"""Benchmark of the cuspidal verifier: end-to-end metrics from plain runs,
per-layer metrics from a separate traced run.

    python3 perfbench/run.py                      # every workload, both runs
    python3 perfbench/run.py --workload derive --seed 3 --seconds 20 --trace 0

One process, one thread, closed loop: a single caller runs one task after
another.  A pass runs every task of the workload once, in an order drawn
from --seed; passes repeat until --seconds have elapsed.  Every answer is
checked against its expected value (workloads.py).  The last line of output
is one JSON object {"correct", "attempted", "failed", "metrics"}; the exit
code is non-zero if any task failed or the per-layer counts did not repeat.
See README.md for the metrics and what each one should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# the keys of workloads.WORKLOADS, which imports the program
WORKLOAD_NAMES = ("verify-sweep", "derive", "alexander", "geometry")
SETUP_PROBES = 9
SAMPLE_PERIOD_S = 0.1
MIN_SAMPLES = 10
# Nominal time of the reference kernel; reported times are rescaled to a host
# of this speed (see HostSpeed and run_pass).
REFERENCE_S = 0.003


def load_program() -> None:
    """Import `cuspidal` from the checkout's own src/ and nowhere else."""
    package = ROOT / "src" / "cuspidal"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from a repository checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import cuspidal
    if Path(cuspidal.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported cuspidal from {cuspidal.__file__}")


def task_order(tasks, rng: random.Random) -> list:
    order = list(tasks)
    rng.shuffle(order)
    return order


def reference_time() -> float:
    """Seconds for a fixed pure-Python kernel (integer arithmetic, tuples and
    dicts, like the program's inner loops): the host's current speed."""
    start = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(10000):
        key = (i % 97, i * 7 % 13)
        table[key] = table.get(key, 0) + 1
        acc += i * i % 97
    return time.perf_counter() - start


class HostSpeed:
    """Samples the host's speed while passes run: a timer signal runs the
    reference kernel every SAMPLE_PERIOD_S seconds.  `now` is a clock that
    leaves the handler's own time out."""

    def __init__(self):
        self.samples: list[float] = []
        self.handler_s = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(reference_time())
        self.handler_s += time.perf_counter() - start

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        return time.perf_counter() - self.handler_s

    def factor(self, first: int) -> float:
        """REFERENCE_S over the mean kernel time of samples[first:], widened
        back to the last MIN_SAMPLES samples for a short pass, so that the
        estimate does not get noisier as passes get faster."""
        start = max(0, min(first, len(self.samples) - MIN_SAMPLES))
        samples = self.samples[start:] or [reference_time()]
        return REFERENCE_S / statistics.fmean(samples)


def setup_probe(workload: str, seed: int) -> None:
    """Child-process body: import the program, build the inputs, then print
    the monotonic clock, which is system-wide on Linux."""
    load_program()
    import workloads
    task_order(workloads.WORKLOADS[workload], random.Random(seed))
    print(time.monotonic())


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(wall, corrected) seconds from process start until the first task is
    ready, one sample per probe process.  The reference kernel runs between
    probes to give each its host speed."""
    def speed() -> float:
        return statistics.fmean(reference_time() for _ in range(5))

    samples = []
    before = speed()
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload",
             workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        wall = float(proc.stdout.split()[-1]) - start
        after = speed()
        samples.append((wall, wall * 2 * REFERENCE_S / (before + after)))
        before = after
    return samples


def run_pass(order, workloads, failures: list[str], speed: HostSpeed,
             tracer=None) -> tuple[float, float]:
    """(wall, corrected) seconds of one pass over the tasks.  Corrected
    seconds are wall seconds rescaled to a host on which the reference
    kernel takes REFERENCE_S, by the samples taken during the pass."""
    gc.collect()
    first = len(speed.samples)
    start = speed.now()
    for task in order:
        tid = workloads.task_id(task)
        if tracer is not None:
            tracer.task = tid
        problem = workloads.run_task(task)
        if problem:
            failures.append(f"{tid}: {problem}")
    wall = speed.now() - start
    return wall, wall * speed.factor(first)


def tail(samples: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 11
    return f"p{100 * rank // (n - 1)}", sorted(samples)[rank]


def describe_timing(name: str, samples, unit: str) -> str:
    """Median and tail of the corrected times, with the plain wall median."""
    fixed = [c for _, c in samples]
    line = (f"  {name:<12} median {statistics.median(fixed):.4f} {unit}")
    t = tail(fixed)
    line += (f", {t[0]} {t[1]:.4f} {unit}" if t
             else ", no tail percentile (needs 11 samples)")
    return (line + f"; {len(samples)} samples; uncorrected wall median "
            f"{statistics.median(w for w, _ in samples):.4f} {unit}")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cuspidal").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_counts_across_runs(workload: str, seed: int,
                             counts: dict) -> list[str]:
    """Compare with the counts an earlier run of the same source recorded."""
    path = OUT / f"counts-{workload}.json"
    digest = source_digest()
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier["source"] == digest:
            return [f"per-layer count {k} is {counts[k]} with seed {seed} but "
                    f"{earlier['counts'].get(k)} with seed {earlier['seed']}"
                    for k in counts if earlier["counts"].get(k) != counts[k]]
    path.write_text(json.dumps({"source": digest, "seed": seed,
                                "counts": counts}, sort_keys=True, indent=1))
    return []


def plain_run(workload, tasks, rng, seed, seconds, workloads, failures):
    setup = measure_setup(workload, seed)
    passes = []
    start = time.perf_counter()
    with HostSpeed() as speed:
        while not passes or time.perf_counter() - start < seconds:
            passes.append(run_pass(task_order(tasks, rng), workloads,
                                   failures, speed))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = len(passes) * len(tasks)
    print(f"workload {workload}, seed {seed}, plain run:")
    print(describe_timing("pass_s", passes, "s"))
    print(describe_timing("setup_s", setup, "s"))
    print(f"  {'peak_rss_mb':<12} {rss_mb:.1f} MB")
    print(f"  {'fail_ratio':<12} {len(failures)}/{attempted}"
          f" = {len(failures) / attempted:.4f}")
    metrics = {"pass_s": (statistics.median(c for _, c in passes), "s"),
               "setup_s": (statistics.median(c for _, c in setup), "s"),
               "peak_rss_mb": (rss_mb, "MB")}
    return attempted, metrics, []


def traced_run(workload, tasks, rng, seed, seconds, workloads, failures):
    """Alternate plain and traced passes; per-layer figures come from the
    traced ones, and their ratio gives the tracing overhead."""
    import tracing
    plain, traced, self_times, pass_counts, spans = [], [], [], [], []
    start = time.perf_counter()
    with HostSpeed() as speed:
        tracer = tracing.Tracer(speed.now)
        while not traced or time.perf_counter() - start < seconds:
            order = task_order(tasks, rng)
            if len(plain) == len(traced):
                plain.append(run_pass(order, workloads, failures, speed)[1])
                continue
            tracer.reset()
            tracer.install()
            try:
                wall, fixed = run_pass(order, workloads, failures, speed,
                                       tracer)
            finally:
                tracer.remove()
            traced.append(fixed)
            self_s, counts = tracer.pass_metrics()
            self_times.append({k: v * fixed / wall for k, v in self_s.items()})
            pass_counts.append(counts)
            spans += [dict(span, pass_index=len(traced) - 1)
                      for span in tracer.spans]
    errors = [f"per-layer counts of traced pass {i} differ from pass 0"
              for i, c in enumerate(pass_counts) if c != pass_counts[0]]
    OUT.mkdir(exist_ok=True)
    errors += check_counts_across_runs(workload, seed, pass_counts[0])
    (OUT / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(spans))

    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (
            statistics.median(s[layer] for s in self_times), "s")
    metrics.update((name, (value, "count"))
                   for name, value in pass_counts[0].items())
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain) - 1, "ratio")
    print(f"workload {workload}, seed {seed}, traced run"
          f" ({len(plain)} plain and {len(traced)} traced passes):")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:.6g} {unit}")
    return (len(plain) + len(traced)) * len(tasks), metrics, errors


def run_workload(args) -> int:
    load_program()
    import workloads
    tasks = workloads.WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    failures: list[str] = []
    run = traced_run if args.trace else plain_run
    attempted, metrics, errors = run(args.workload, tasks, rng, args.seed,
                                     args.seconds, workloads, failures)
    for problem in failures + errors:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = not failures and not errors
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, plain then traced, each in a fresh process so that
    peak memory is measured per workload."""
    status = 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            rc = subprocess.run(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], check=False).returncode
            status = status or rc
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
