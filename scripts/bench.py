"""Before/after timings of one suite, written to BENCH_<suite>.json.

    python3 scripts/bench.py homcount --before OLD/src
    python3 scripts/bench.py tietze --before OLD/src
    python3 scripts/bench.py alexander --before OLD/src
    python3 scripts/bench.py kernel --before OLD/src
    python3 scripts/bench.py geometry --before OLD/src
    python3 scripts/bench.py verify --before OLD/src

times the suite's cases on the `cuspidal` package under OLD/src and on the
one in this checkout's src/, and writes the JSON report next to this
checkout's README.  Every measurement runs in a fresh interpreter and times
only the call itself, so tables built on first use are part of the time.
Runs of the two versions alternate, and the median of REPEAT runs is
reported with the exact answers, which must agree.  The before version is
labelled with the git commit OLD is checked out at, if any.  Standard
library only.

homcount: `count_homs` on the cases below (the search only, after the
presentation is built) and `verify-all --n 2..4` (the whole command, stdout
captured).  Each count also reports the search nodes its version visited
(null for a version whose report has no node count).

tietze: `derive_pi1_via_rs(n)` for n = 4..8; the answer is a digest of the
derived presentation's text, and the work counts are summed over the
Tietze simplification calls the derivation makes: generators eliminated and
relator letters in and out.  Next to the times, each side reports the
cyclic normal forms it computed, counted in a second, instrumented call:
the calls of `words._least_rotation` and the letters they scan, and the
relator letters the Tietze loops pass through `Counter` (the letters
counted in `words`, less the distinct nonempty relators of each
simplified presentation, which are counted once on input).

alexander: `alexander_polynomial` of the reduced curve presentation for
n = 5, 7, 9, 11 (the call only, after the presentation is built; the answer
is a digest of the polynomial, its degree, the number of (t - 1) factors
stripped and the Fox matrix size) and `commutator_abelianization_rank(n)`
for n = 5, 7, 9 (the whole call: Schreier rewriting along Z/2n and the
Smith form).

kernel: `commutator_abelianization_rank(n)` for odd n = 9..21 (the whole
call).  Next to the times, each side reports its work, counted after the
timed call: the relator walks of `SchreierSystem.exponent_rows` and the
letters they read (the reads of the coset table, one per letter walked),
the distinct rows, the unit pivots and the shape of the dense remainder.

geometry: `singular_points_scan(n, p)` at (7, 197), (9, 307) and
(7, 2003), `splitting_check_n2(p)` at p = 29, 101, 1009 and
`superabundance_multi(n)` for n = 15, 25, 31, 41, 61 (the whole call).  The
work is counted in a second, instrumented call after the timed one: the
values of F_n the scan computes (one per row of P^2(F_p) and value of z^d,
for the d of `geometry._power_fibres`; one per row and z in a version
without it) and the evaluations of its partials; the lines the splitting
check tests (`geometry._form_vanishes_on_line`), the rows of lines it
skips untested and its evaluations of the quartic; the primes of the
superabundance, its evaluation matrix as rows x used columns (those with
an entry nonzero mod p), and the row updates of its rank computation (the
calls of `abelian._eliminate` under `abelian.independent_rows`) and the
matrix entries they rewrite.

verify: the whole `verify-all --n N` command for N = 2..13, stdout
captured; the answer is its exit code and structured results.  Next to the
times, each side reports the pieces of work it builds, counted in a second,
instrumented run of the command: hom-search plans (`homcount._build_plan`),
reduced curve presentations (`presentation_pi1_reduced`) and curve forms
(`geometry.curve_form`).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
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
    "derived(4), k = 4": ("derive_pi1_via_rs", 4, 4),
    "derived(4), k = 5": ("derive_pi1_via_rs", 4, 5),
    "derived(6), k = 4": ("derive_pi1_via_rs", 6, 4),
    "pi1-reduced(4), k = 5": ("presentation_pi1_reduced", 4, 5),
}
VERIFY_ALL_N = (2, 3, 4)
DERIVE_N = (4, 5, 6, 7, 8)
ALEXANDER_N = (5, 7, 9, 11)
RANK_N = (5, 7, 9)
KERNEL_N = (9, 11, 13, 15, 17, 19, 21)
SCAN_CASES = ((7, 197), (9, 307), (7, 2003))
SPLITTING_P = (29, 101, 1009)
SUPERABUNDANCE_N = (15, 25, 31, 41, 61)
VERIFY_N = tuple(range(2, 14))
SUITES = {
    "homcount": list(HOM_CASES) + [f"verify-all --n {n}"
                                   for n in VERIFY_ALL_N],
    "tietze": [f"derive_pi1_via_rs({n})" for n in DERIVE_N],
    "alexander": [f"alexander_polynomial({n})" for n in ALEXANDER_N]
                 + [f"commutator_abelianization_rank({n})" for n in RANK_N],
    "kernel": [f"commutator_abelianization_rank({n})" for n in KERNEL_N],
    "geometry": [f"singular_points_scan({n},{p})" for n, p in SCAN_CASES]
                + [f"splitting_check_n2({p})" for p in SPLITTING_P]
                + [f"superabundance_multi({n})" for n in SUPERABUNDANCE_N],
    "verify": [f"verify-all --n {n}" for n in VERIFY_N],
}
WHAT = {
    "homcount": "median wall seconds of one call, fresh interpreter per run; "
                "hom counts time count_homs only, verify-all the whole "
                "command; answers (hom counts, verify-all results) are "
                "identical for both versions; *_nodes are the search nodes "
                "each version visited (null where its report has none)",
    "tietze": "median wall seconds of one derive_pi1_via_rs(n) call, fresh "
              "interpreter per run; answers (sha256 of format_presentation "
              "of the result, and the work counts of its simplify calls) are "
              "identical for both versions; *_work are each version's "
              "least-rotation calls and the letters they scan, and the "
              "relator letters its Tietze loops pass through Counter, from "
              "a second, instrumented call",
    "alexander": "median wall seconds of one call, fresh interpreter per "
                 "run; alexander_polynomial(n) is the call on "
                 "presentation_pi1_reduced(n) and times that call only; "
                 "answers (sha256 of the polynomial's text, its degree, the "
                 "(t - 1) factors stripped, the Fox matrix size, the "
                 "commutator rank) are identical for both versions",
    "kernel": "median wall seconds of one commutator_abelianization_rank(n) "
              "call, fresh interpreter per run; the rank is identical for "
              "both versions; *_work are each version's work counts",
    "geometry": "median wall seconds of one call, fresh interpreter per run; "
                "answers (sha256 of the scanned points, of the lines and "
                "meeting points of the splitting, the superabundance report) "
                "are identical for both versions; *_work are each version's "
                "work counts, from a second, instrumented call",
    "verify": "median wall seconds of one verify-all --n N command, fresh "
              "interpreter per run, stdout captured; answers (exit code and "
              "structured results) are identical for both versions; *_work "
              "are the plans, reduced presentations and curve forms each "
              "version builds, from a second, instrumented run",
}
REPEAT = 3


def time_hom_count(case: str):
    from cuspidal import presentations
    from cuspidal.homcount import count_homs
    build, arg, k = HOM_CASES[case]
    p = getattr(presentations, build)(arg)
    start = time.perf_counter()
    rep = count_homs(p, k)
    seconds = time.perf_counter() - start
    return seconds, rep.total, getattr(rep, "nodes", None)


def run_verify_all(n: int):
    from cuspidal import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify-all", "--n", str(n),
                         "--format", "structured"])
    return code, out.getvalue()


def time_verify_all(n: int):
    start = time.perf_counter()
    code, out = run_verify_all(n)
    seconds = time.perf_counter() - start
    return seconds, {"exit": code,
                     "results": json.loads(out)["results"]}, verify_work(n)


def verify_work(n: int) -> dict:
    """The pieces of work verify-all --n n builds in this version."""
    from cuspidal import cli, geometry, homcount, presentations
    work = {"plans": 0, "pi1_reduced": 0, "curve_forms": 0}

    def tally(key):
        def count(args, out):
            work[key] += 1
        return count

    # cli calls presentation_pi1_reduced by the name it imported
    with counting(homcount, "_build_plan", tally("plans")), \
            counting(presentations, "presentation_pi1_reduced",
                     tally("pi1_reduced")), \
            counting(cli, "presentation_pi1_reduced", tally("pi1_reduced")), \
            counting(geometry, "curve_form", tally("curve_forms")):
        run_verify_all(n)
    return work


def time_derive(n: int):
    from cuspidal import presentations, rewriting, words
    work = {"gens_eliminated": 0, "letters_in": 0, "letters_out": 0}

    # *args passes on the Tietze budget of a version that still takes one
    def counted(p, *args):
        q = words.simplify(p, *args)
        work["gens_eliminated"] += len(p.generators) - len(q.generators)
        work["letters_in"] += sum(map(len, p.relators))
        work["letters_out"] += sum(map(len, q.relators))
        return q

    # subgroup_presentation calls simplify by the name rewriting imported
    rewriting.simplify = counted
    start = time.perf_counter()
    p = presentations.derive_pi1_via_rs(n)
    seconds = time.perf_counter() - start
    digest = hashlib.sha256(words.format_presentation(p).encode())
    answer = {"sha256": digest.hexdigest()[:16],
              "generators": len(p.generators), **work}
    return seconds, answer, tietze_work(n)


def tietze_work(n: int) -> dict:
    """The cyclic normal forms derive_pi1_via_rs(n) computes in this
    version (least-rotation calls and the letters they scan) and the
    relator letters its Tietze loops pass through `Counter`: every letter
    `words` counts with it, less the distinct nonempty input relators,
    which each simplify call counts once before its loop."""
    from cuspidal import presentations, rewriting, words
    work = {"least_rotation_calls": 0, "least_rotation_letters": 0,
            "counter_letters": 0}
    counter = words.Counter

    def scanned(args, out):
        work["least_rotation_calls"] += 1
        work["least_rotation_letters"] += len(args[0])

    def counted(letters):
        letters = list(letters)
        work["counter_letters"] += len(letters)
        return counter(letters)

    def simplified(args, out):
        work["counter_letters"] -= sum(
            map(len, dict.fromkeys(r for r in args[0].relators if r)))

    words.Counter = counted
    try:
        with counting(words, "_least_rotation", scanned), \
                counting(rewriting, "simplify", simplified):
            presentations.derive_pi1_via_rs(n)
    finally:
        words.Counter = counter
    return work


def time_alexander(n: int):
    from cuspidal.alexander import alexander_polynomial
    from cuspidal.presentations import presentation_pi1_reduced
    p = presentation_pi1_reduced(n)
    start = time.perf_counter()
    poly, stripped = alexander_polynomial(p)
    seconds = time.perf_counter() - start
    digest = hashlib.sha256(str(poly).encode())
    return seconds, {"sha256": digest.hexdigest()[:16],
                     "degree": poly.degree, "stripped": stripped,
                     "fox_cells": len(p.relators) * len(p.generators)}


def kernel_work(n: int) -> dict:
    """The work of commutator_abelianization_rank(n) in this version."""
    from cuspidal import abelian
    from cuspidal.presentations import presentation_pi1_reduced
    from cuspidal.rewriting import AbelianTarget, SchreierSystem

    class Reads(list):
        """A coset table that counts its reads: one per letter walked."""
        count = 0

        def __getitem__(self, i):
            Reads.count += 1
            return list.__getitem__(self, i)

    p = presentation_pi1_reduced(n)
    target = AbelianTarget((2 * n,), p.generators,
                           tuple((1,) for _ in p.generators))
    system = SchreierSystem(p, target)
    ncols = len(system.generator_names)
    rows = list(system.exponent_rows(p.relators))
    # each distinct relator on its own, to split the reads into walks
    table, walks, letters = system._next, 0, 0
    system._next = Reads(table)
    for r in dict.fromkeys(r for r in p.relators if r):
        Reads.count = 0
        list(system.exponent_rows([r]))
        walks += Reads.count // len(r)
        letters += Reads.count
    system._next = table
    ones, rest = abelian._unit_pivots(rows, ncols)
    cols = {j for row in rest for j in row}
    return {"rows_walked": walks, "letters_walked": letters,
            "distinct_rows": len(rows), "unit_pivots": ones,
            "dense_remainder": [len(rest), len(cols)]}


def time_commutator_rank(n: int):
    from cuspidal.abelian import commutator_abelianization_rank
    start = time.perf_counter()
    rank = commutator_abelianization_rank(n)
    return time.perf_counter() - start, rank, kernel_work(n)


@contextlib.contextmanager
def counting(owner, name: str, count, items: bool = False):
    """Replace owner.name by a wrapper that calls count(args, result), or
    for a generator function (items=True) count(args, item) per item."""
    original = getattr(owner, name)

    def wrapper(*args):
        out = original(*args)
        count(args, out)
        return out

    def item_wrapper(*args):
        for item in original(*args):
            count(args, item)
            yield item

    setattr(owner, name, item_wrapper if items else wrapper)
    try:
        yield
    finally:
        setattr(owner, name, original)


def scan_work(n: int, p: int) -> dict:
    """The work of singular_points_scan(n, p) in this version."""
    from cuspidal import geometry
    work = {"values_evaluated": 0, "partial_evaluations": 0}
    # values of F_n per row: one per value of z^d, or, in a version without
    # _power_fibres, one per z
    per_row = [p]

    def fibred(args, out):
        per_row[0] = len(out)

    def row(args, item):
        work["values_evaluated"] += per_row[0]

    def evaluated(args, out):
        if args[0].degree == 2 * n - 1:
            work["partial_evaluations"] += 1

    with contextlib.ExitStack() as stack:
        if hasattr(geometry, "_power_fibres"):
            stack.enter_context(counting(geometry, "_power_fibres", fibred))
        stack.enter_context(counting(geometry, "_plane_rows", row,
                                     items=True))
        stack.enter_context(counting(geometry.TernaryForm, "evaluate",
                                     evaluated))
        geometry.singular_points_scan(n, geometry.PrimeField(p))
    return work


def time_scan(n: int, p: int):
    from cuspidal.geometry import PrimeField, singular_points_scan
    field = PrimeField(p)
    start = time.perf_counter()
    points = singular_points_scan(n, field)
    seconds = time.perf_counter() - start
    coords = sorted(pt.coords for pt in points)
    digest = hashlib.sha256(str(coords).encode())
    return seconds, {"sha256": digest.hexdigest()[:16],
                     "points": len(coords)}, scan_work(n, p)


def splitting_work(p: int) -> dict:
    """The work of splitting_check_n2(p) in this version."""
    from cuspidal import geometry
    rows, tested, evaluations = [], [], []

    def row(args, item):
        rows.append(item[:2])

    def line(args, out):
        tested.append(args[1])

    def evaluated(args, out):
        evaluations.append(args[1])

    with counting(geometry, "_plane_rows", row, items=True), \
            counting(geometry, "_form_vanishes_on_line", line), \
            counting(geometry.TernaryForm, "evaluate", evaluated):
        geometry.splitting_check_n2(geometry.PrimeField(p))
    reached = {(a, b) for a, b, _ in tested}
    return {"lines_tested": len(tested),
            "rows_skipped": sum(r not in reached for r in rows),
            "evaluations": len(evaluations)}


def time_splitting(p: int):
    from cuspidal.geometry import PrimeField, splitting_check_n2
    field = PrimeField(p)
    start = time.perf_counter()
    rep = splitting_check_n2(field)
    seconds = time.perf_counter() - start
    digest = hashlib.sha256(
        str((rep.linear_forms, rep.intersection_points)).encode())
    return seconds, {"sha256": digest.hexdigest()[:16],
                     "lines": len(rep.linear_forms)}, splitting_work(p)


def superabundance_work(n: int) -> dict:
    """The work of superabundance_multi(n) in this version."""
    from cuspidal import abelian, geometry
    work = {"primes": [], "matrix": None, "row_updates": 0,
            "entry_updates": 0}

    def ranked(args, out):
        # dict rows, or dense lists in a version that ranks those
        rows, p = args
        work["primes"].append(p)
        used = {j for row in rows
                for j, v in (row.items() if isinstance(row, dict)
                             else enumerate(row)) if v % p}
        work["matrix"] = [len(rows), len(used)]

    def eliminated(args, out):
        work["row_updates"] += 1
        work["entry_updates"] += len(args[1])

    with counting(geometry, "independent_rows", ranked), \
            counting(abelian, "_eliminate", eliminated):
        geometry.superabundance_multi(n)
    return work


def time_superabundance(n: int):
    from cuspidal.geometry import superabundance_multi
    start = time.perf_counter()
    rep = superabundance_multi(n)
    seconds = time.perf_counter() - start
    return seconds, {"s": rep.s, "h0": rep.h0, "rank": rep.rank,
                     "prime": rep.prime}, superabundance_work(n)


# case name up to its "(" -> timing function of the integer arguments
CALLS = {"derive_pi1_via_rs": time_derive,
         "alexander_polynomial": time_alexander,
         "commutator_abelianization_rank": time_commutator_rank,
         "singular_points_scan": time_scan,
         "splitting_check_n2": time_splitting,
         "superabundance_multi": time_superabundance}


def child(src: str, case: str) -> None:
    """Run one measurement and print {"seconds", "answer", "work"}."""
    sys.path.insert(0, src)
    work = []
    if case in HOM_CASES:
        seconds, answer, *work = time_hom_count(case)
    elif case.startswith("verify-all"):
        seconds, answer, *work = time_verify_all(int(case.split()[-1]))
    else:
        name, args = case[:-1].split("(")
        seconds, answer, *work = CALLS[name](*map(int, args.split(",")))
    print(json.dumps({"seconds": seconds, "answer": answer,
                      "work": work[0] if work else None}))


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
    parser.add_argument("suite", nargs="?", choices=SUITES)
    parser.add_argument("--before", type=Path,
                        help="src/ directory of the version to compare with")
    parser.add_argument("--out", type=Path,
                        help="report file (default: BENCH_<suite>.json)")
    parser.add_argument("--child", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(*args.child)
        return 0
    if args.suite is None:
        parser.error("a suite is required")
    versions = {"after": ROOT / "src"}
    if args.before:
        versions = {"before": args.before, **versions}
    cases = SUITES[args.suite]
    times = {(v, c): [] for v in versions for c in cases}
    answers, work = {}, {}
    for _ in range(REPEAT):
        for case in cases:
            for version, src in versions.items():
                run = measure(src, case)
                times[version, case].append(run["seconds"])
                answers.setdefault(case, run["answer"])
                work[version, case] = run["work"]
                if run["answer"] != answers[case]:
                    sys.exit(f"{case}: {version} answers differently")
    rows = []
    for case in cases:
        row = {"case": case}
        if case in HOM_CASES:
            row["hom_count"] = answers[case]
        elif case.startswith("verify-all"):
            row["exit_code"] = answers[case]["exit"]
        elif case.startswith("commutator_abelianization_rank"):
            row["rank"] = answers[case]
        else:
            row.update(answers[case])
        for version in versions:
            row[f"{version}_s"] = round(statistics.median(
                times[version, case]), 4)
        if "before" in versions:
            row["speedup"] = round(row["before_s"] / row["after_s"], 1)
        for version in versions:
            if case in HOM_CASES:
                row[f"{version}_nodes"] = work[version, case]
            elif work[version, case] is not None:
                row[f"{version}_work"] = work[version, case]
        rows.append(row)
    report = {
        "what": WHAT[args.suite],
        "before": commit(args.before) if args.before else None,
        "after": "this checkout",
        "repeat": REPEAT,
        "machine": {"cpus": os.cpu_count(), "system": platform.system(),
                    "release": platform.release(),
                    "python": platform.python_version()},
        "cases": rows,
    }
    out = args.out or ROOT / f"BENCH_{args.suite}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(rows, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
