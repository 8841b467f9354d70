"""Before/after timings of the S_k hom search, written to BENCH_homcount.json.

    python3 scripts/bench_homcount.py --before OLD/src

times the hom-count cases below and `verify-all --n 2..4` on the `cuspidal`
package under OLD/src and on the one in this checkout's src/, and writes
the JSON report next to this checkout's README.  Every measurement runs in
a fresh interpreter and times only the call itself (hom counts: the search,
after the presentation is built; verify-all: the whole command, stdout
captured), so the lazily built S_k tables are part of the time.  Runs of the
two versions alternate, and the median of REPEAT runs is reported with the
exact answers, which must agree.  The before version is labelled with the
git commit OLD is checked out at, if any.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (presentation constructor in cuspidal.presentations, argument, k)
HOM_CASES = {
    "derived(3), k = 4": ("derive_pi1_via_rs", 3, 4),
    "pi1(4), k = 4": ("presentation_pi1", 4, 4),
    "derived(4), k = 3": ("derive_pi1_via_rs", 4, 3),
    "zariski3, k = 5": ("presentation_zariski3", "corrected", 5),
    "pi1(3), k = 5": ("presentation_pi1", 3, 5),
}
VERIFY_ALL_N = (2, 3, 4)
REPEAT = 3


def child(src: str, case: str) -> None:
    """Run one measurement and print {"seconds", "answer"}."""
    sys.path.insert(0, src)
    from cuspidal import cli, presentations
    from cuspidal.homcount import count_homs
    if case in HOM_CASES:
        build, arg, k = HOM_CASES[case]
        p = getattr(presentations, build)(arg)
        start = time.perf_counter()
        answer = count_homs(p, k).total
    else:
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify-all", "--n", case,
                             "--format", "structured"])
        answer = {"exit": code, "results": json.loads(out.getvalue())["results"]}
    print(json.dumps({"seconds": time.perf_counter() - start,
                      "answer": answer}))


def measure(src: Path, case: str) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--child", str(src),
                           case], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def commit(src: Path) -> str | None:
    """Short hash of the git commit that src/ is checked out at."""
    proc = subprocess.run(["git", "-C", str(src), "rev-parse", "--short",
                           "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path,
                        help="src/ directory of the version to compare with")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_homcount.json")
    parser.add_argument("--child", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(*args.child)
        return 0
    versions = {"after": ROOT / "src"}
    if args.before:
        versions = {"before": args.before, **versions}
    cases = list(HOM_CASES) + [str(n) for n in VERIFY_ALL_N]
    times = {(v, c): [] for v in versions for c in cases}
    answers = {}
    for _ in range(REPEAT):
        for case in cases:
            for version, src in versions.items():
                run = measure(src, case)
                times[version, case].append(run["seconds"])
                answers.setdefault(case, run["answer"])
                if run["answer"] != answers[case]:
                    sys.exit(f"{case}: {version} answers differently")
    rows = []
    for case in cases:
        row = {"case": case if case in HOM_CASES else f"verify-all --n {case}"}
        if case in HOM_CASES:
            row["hom_count"] = answers[case]
        else:
            row["exit_code"] = answers[case]["exit"]
        for version in versions:
            row[f"{version}_s"] = round(statistics.median(
                times[version, case]), 4)
        if "before" in versions:
            row["speedup"] = round(row["before_s"] / row["after_s"], 1)
        rows.append(row)
    report = {
        "what": "median wall seconds of one call, fresh interpreter per run; "
                "hom counts time count_homs only, verify-all the whole "
                "command; answers (hom counts, verify-all results) are "
                "identical for both versions",
        "before": commit(args.before) if args.before else None,
        "after": "this checkout",
        "repeat": REPEAT,
        "machine": {"cpus": os.cpu_count(), "system": platform.system(),
                    "release": platform.release(),
                    "python": platform.python_version()},
        "cases": rows,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(rows, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
