"""Before/after timings of one suite, written to BENCH_<suite>.json.

    python3 scripts/bench.py SUITE --before OLD/src [--out FILE]

times the suite's cases on the `cuspidal` package under OLD/src, which must
be at or after commit 4837920 (the counters patch names older versions
lack), and on this checkout's src/ (alone without --before); a counter of a
name added since reads 0 on OLD.  The report names OLD by the commit it is
checked out at, or by its path outside a checkout.  Each run is a
fresh interpreter (`--child SRC CASE`) that times only the call, tables
built on first use included.  Runs of the two versions alternate, one of
each making a pair.  Right after its timed call, a child runs the
benchmark's host-speed kernel (`reference_time` of perfbench/run.py,
loaded by path) and rescales its time to a host on which that kernel takes
`REFERENCE_S`, as perfbench does.  The report gives the median of REPEAT
runs of each, raw and corrected, the answer, which must be the same for
both, and the speedup: the median over the pairs of before over after
corrected time, with its quartiles, since a pair shares the host's state of
the moment.

A case is a kind of call (KINDS: an untimed setup, the timed call, the
answer read off its result) with arguments (SUITES).  The suites:

homcount   the S_k hom search (`count_homs`, after the build) and verify-all
tietze     the Reidemeister-Schreier derivation `derive_pi1_via_rs(n)`
alexander  Alexander of `presentation_pi1_reduced(n)`, after the build; rank
kernel     the commutator rank: Schreier rewriting and Smith form, odd n
geometry   the F_p singular-locus scan, n = 2 splitting and superabundance
verify     the whole verify-all command, stdout captured, N = 2..13
curve      the odd-n curve checks from n alone, `curve_program(n)` timed too
smith      the Smith forms and Oka quotient behind verify-all at large n;
           `pi1_abelianization(n)` is H1 of a prebuilt `presentation_pi1(n)`
orbit      the kernel and smith suites together
startup    `import cuspidal.cli` in the fresh interpreter, after only the
           script's own imports; the answer is a digest of cuspidal.__all__
build      the builders: `presentation_pi1_reduced(n)` and `curve_program(n)`
           from n alone, the kernel presentation `derive_pi1_via_rs(8)`
           builds, and the power tables of `superabundance_multi(n)`

Each version also reports its work (`count_work`): the call is made again
with the names of PATCHES wrapped, and every case reports all COUNTERS,
zeros included, since a zero is a finding too:

search_nodes        search nodes of `count_homs`, as its report counts them
plans               hom-search plans built (`homcount._build_plan`)
pi1_reduced         calls of `presentation_pi1_reduced`, and the letters of
expanded_letters    the presentations they return
gens_eliminated     generators the Tietze simplifications of Reidemeister-
letters_in          Schreier rewriting (`rewriting.simplify`) remove, and
letters_out         the relator letters into and out of them
least_rotation_*    calls of `words._least_rotation` and the letters they scan
counter_letters     relator letters the Tietze loops pass through `Counter`,
                    less the distinct nonempty relators of each simplify input
cancelled_letters   letters a Tietze step tallies as cancelled (a `Counter`
                    over a list of them, not over a relator's `map(abs, ...)`)
simplify_*          generators and relator letters into `simplify_with_map`
rows_walked         relators `SchreierSystem.exponent_rows` walks; the
letters_walked      letters the Fox walker (`rewriting._FoxProgram.walk`)
program_nodes       reads, and the inner nodes of the programs it is built
                    for, for the kernel rows and the Alexander matrix alike;
distinct_rows       the kernel rows exponent_rows yields, and its row orbits
orbits_skipped      that their reader leaves before the end (a first row in
                    the lattice already); a version that yields rows, not
                    orbits, skips none
fox_rows            Fox rows built (`alexander_matrix`), and those left once
distinct_fox_rows   rows equal up to a unit are dropped (the rows alexander
                    passes to `eliminate`)
unit_pivots         unit pivots of the Smith front end (`eliminate` over Z,
pivot_applications  from abelian), the row reductions over Z that apply
dense_remainders    them (`abelian._reduce`), and the rows x columns of each
                    dense remainder left
curve_forms         calls of `geometry.curve_form`
values_evaluated    values of F_n the scan computes: rows x values of z^d
form_evaluations    calls of `TernaryForm.evaluate`
lines_tested        lines the splitting tests (`_form_vanishes_on_line`), and
rows_skipped        the rows of lines it passes over untested
primes, matrix      the primes of `independent_rows`, and the last one's rows
                    x used columns (those with an entry nonzero mod p)
row_updates         row reductions mod p (`abelian._reduce` with a nonzero
entry_updates       modulus) in its rank computation, and the matrix entries
                    they rewrite
reduced_letters     letters passed through `words.reduce_word`
geometry_pows       calls of `pow` in geometry, counted by a module global
                    that shadows the builtin
"""

from __future__ import annotations

import argparse
import builtins
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from functools import partial
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


def cases(form: str, *args) -> list[str]:
    return [form.format(a) for a in args]


RANK = "commutator_abelianization_rank"
STARTUP = "import cuspidal.cli"
VERIFY = "verify-all --n {}"
SUITES = {
    "homcount": list(HOM_CASES) + cases(VERIFY, 2, 3, 4),
    "tietze": cases("derive_pi1_via_rs({})", 4, 5, 6, 7, 8),
    "alexander": cases("alexander_polynomial({})", 5, 7, 9, 11)
                 + cases(RANK + "({})", 5, 7, 9),
    "kernel": cases(RANK + "({})", 9, 11, 13, 15, 17, 19, 21),
    "geometry": cases("singular_points_scan({})", "7,197", "9,307", "7,2003")
                + cases("splitting_check_n2({})", 29, 101, 1009)
                + cases("superabundance_multi({})", 15, 25, 31, 41, 61),
    "verify": cases(VERIFY, *range(2, 14)),
    "curve": cases("curve_alexander({})", 7, 15, 31, 61)
             + cases(RANK + "({})", 7, 21, 31) + cases(VERIFY, 13, 21, 31),
    "smith": cases(RANK + "({})", 21, 31, 41, 61)
             + cases("pi1_abelianization({})", 21, 41, 61)
             + cases("oka_quotient({})", 7, 21, 31)
             + cases(VERIFY, 31, 41, 61),
}
SUITES["orbit"] = list(dict.fromkeys(SUITES["kernel"] + SUITES["smith"]))
SUITES["startup"] = [STARTUP]
SUITES["build"] = (cases("presentation_pi1_reduced({})", 7, 9, 11, 13)
                   + cases("curve_program({})", 21, 61)
                   + cases("derive_pi1_via_rs({})", 8)
                   + cases("superabundance_multi({})", 25, 41))
REPEAT = 5


def cu(name: str):
    """cuspidal.<name>, looked up at each call: it may be wrapped."""
    return importlib.import_module(f"cuspidal.{name}")


def digest(x) -> str:
    return hashlib.sha256(str(x).encode()).hexdigest()[:16]


def verify_all(n: int):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cu("cli").main(["verify-all", "--n", str(n),
                               "--format", "structured"])
    return code, out.getvalue()


def imported(*args):
    """The case arguments, once the package and its command line are
    imported."""
    importlib.import_module("cuspidal.cli")
    return args


def polynomial(result, *args) -> dict:
    poly, stripped = result
    return {"sha256": digest(poly), "degree": poly.degree,
            "stripped": stripped}


# kind -> (setup: case arguments -> call arguments, untimed; the timed call;
# answer: (result, *call arguments) -> JSON)
KINDS = {
    "count_homs": (
        lambda build, arg, k: (getattr(cu("presentations"), build)(arg), k),
        lambda p, k: cu("homcount").count_homs(p, k),
        lambda rep, p, k: rep.total),
    "verify-all": (
        imported, verify_all,
        lambda out, n: {"exit": out[0],
                        "results": json.loads(out[1])["results"]}),
    "derive_pi1_via_rs": (
        imported, lambda n: cu("presentations").derive_pi1_via_rs(n),
        lambda p, n: {"sha256": digest(cu("words").format_presentation(p)),
                      "generators": len(p.generators)}),
    "alexander_polynomial": (
        lambda n: (cu("presentations").presentation_pi1_reduced(n),),
        lambda p: cu("alexander").alexander_polynomial(p),
        lambda result, p: {**polynomial(result),
                           "fox_cells": len(p.relators) * len(p.generators)}),
    "presentation_pi1_reduced": (
        imported, lambda n: cu("presentations").presentation_pi1_reduced(n),
        lambda p, n: {"sha256": digest(cu("words").format_presentation(p)),
                      "letters": sum(map(len, p.relators))}),
    "curve_program": (
        imported, lambda n: cu("presentations").curve_program(n),
        lambda c, n: {"sha256": digest((c.nodes, c.relators)),
                      "nodes": len(c.nodes)}),
    "curve_alexander": (
        imported, lambda n: cu("alexander").alexander_polynomial(
            cu("presentations").curve_program(n)), polynomial),
    RANK: (
        imported, lambda n: cu("abelian").commutator_abelianization_rank(n),
        lambda rank, n: rank),
    "pi1_abelianization": (
        lambda n: (cu("presentations").presentation_pi1(n),),
        lambda p: cu("abelian").abelianization(p),
        lambda h1, p: {"h1": str(h1)}),
    "oka_quotient": (
        imported, lambda n: cu("presentations").oka_quotient(n),
        lambda result, n: {
            "sha256": digest(cu("words").format_presentation(result[1])),
            "images_sha256": digest(result[0].images)}),
    "singular_points_scan": (
        lambda n, p: (n, cu("geometry").PrimeField(p)),
        lambda n, field: cu("geometry").singular_points_scan(n, field),
        lambda points, n, field: {
            "sha256": digest(sorted(pt.coords for pt in points)),
            "points": len(points)}),
    "splitting_check_n2": (
        lambda p: (cu("geometry").PrimeField(p),),
        lambda field: cu("geometry").splitting_check_n2(field),
        lambda rep, field: {
            "sha256": digest((rep.linear_forms, rep.intersection_points)),
            "lines": len(rep.linear_forms)}),
    "superabundance_multi": (
        imported, lambda n: cu("geometry").superabundance_multi(n),
        lambda rep, n: {"s": rep.s, "h0": rep.h0, "rank": rep.rank,
                        "prime": rep.prime}),
    "startup": (
        lambda: (), lambda: importlib.import_module("cuspidal.cli"),
        lambda cli: {"sha256": digest(importlib.import_module(
            "cuspidal").__all__)}),
}


def parse(case: str):
    """The kind of a case and its arguments."""
    if case in HOM_CASES:
        return "count_homs", HOM_CASES[case]
    if case.startswith("verify-all --n "):
        return "verify-all", (int(case.split()[-1]),)
    if case == STARTUP:
        return "startup", ()
    name, args = case[:-1].split("(")
    return name, tuple(map(int, args.split(",")))


def add(work, **counts) -> None:
    for key, count in counts.items():
        work[key] += count


def tietze(work, args, q):
    p = args[0]
    add(work, gens_eliminated=len(p.generators) - len(q.generators),
        letters_in=sum(map(len, p.relators)),
        letters_out=sum(map(len, q.relators)),
        # each simplify call counts its distinct nonempty relators once
        counter_letters=-sum(map(len, dict.fromkeys(r for r in p.relators
                                                    if r))))


def counted(work, args, counter):
    # a step tallies its cancelled letters from a list; relators and
    # defining words are counted from map(abs, word)
    key = ("cancelled_letters" if isinstance(args[0], list)
           else "counter_letters")
    work[key] += sum(counter.values())


def orbit(work, args, rows):
    # an orbit counts as skipped until it is read to its end
    if isinstance(rows, dict):  # a row: the version yields no orbits
        work["distinct_rows"] += 1
        return rows
    work["orbits_skipped"] += 1
    return read(work, rows)


def read(work, rows):
    for row in rows:
        work["distinct_rows"] += 1
        yield row
    work["orbits_skipped"] -= 1


def walked(work, args, rows):
    add(work, rows_walked=len({r for r in args[1] if r}))


def pivoted(work, args, out):
    # eliminate as abelian calls it: over Z in the Smith front end, or mod p
    # in independent_rows, which ranked and reduced count
    if args[2]:
        return
    pivots, rest = out
    work["unit_pivots"] += len(pivots)
    work["dense_remainders"].append(
        [len(rest), len({j for r in rest for j in r})])


def plane_row(work, args, row):
    # a row of the scan, after _power_fibres, computes one value per fibre;
    # a row of lines is skipped unless one of its lines is tested
    if work["_fibres"]:
        work["values_evaluated"] += work["_fibres"]
    else:
        work["rows_skipped"] += 1
    return row


def line_tested(work, args, out):
    row = args[1][:2]  # the (a, b) of its row of lines
    add(work, lines_tested=1, rows_skipped=-(row not in work["_reached"]))
    work["_reached"].add(row)


def reduced(work, args, out):
    # the one row operation: mod p in a rank, over Z in the Smith front end;
    # over Z[t, t^-1], in the Alexander gcd, it is not counted
    row, pivot, col, modulus = args
    if modulus:
        add(work, row_updates=1, entry_updates=len(pivot))
    elif type(pivot[col]) is int:
        add(work, pivot_applications=1)


def ranked(work, args, out):
    rows, p = args
    work["primes"].append(p)
    used = {j for row in rows for j, v in row.items() if v % p}
    work["matrix"] = [len(rows), len(used)]


# (owners under cuspidal, name, a generator function?, count(work, args,
# result, or each item of a generator, which it returns to pass on)); a
# name imported into other modules is wrapped in each, one a version lacks
# is not, and a builtin is shadowed.  Keys of work from _ on are not
# reported.
PATCHES = (
    ("homcount presentations cli", "count_homs", False,
     lambda w, a, rep: add(w, search_nodes=rep.nodes)),
    ("homcount", "_build_plan", False, lambda w, a, out: add(w, plans=1)),
    ("presentations cli", "presentation_pi1_reduced", False,
     lambda w, a, p: add(w, pi1_reduced=1,
                         expanded_letters=sum(map(len, p.relators)))),
    ("rewriting", "simplify", False, tietze),
    ("words", "_least_rotation", False, lambda w, a, out: add(
        w, least_rotation_calls=1, least_rotation_letters=len(a[0]))),
    ("words", "Counter", False, counted),
    ("presentations", "simplify_with_map", False, lambda w, a, out: add(
        w, simplify_generators=len(a[0].generators),
        simplify_letters=sum(map(len, a[0].relators)))),
    ("rewriting.SchreierSystem", "exponent_rows", True, orbit),
    ("rewriting.SchreierSystem", "exponent_rows", False, walked),
    ("rewriting._FoxProgram", "walk", False,
     lambda w, a, out: add(w, letters_walked=len(a[1]))),
    ("rewriting._FoxProgram", "__init__", False,
     lambda w, a, out: add(w, program_nodes=len(a[2]))),
    ("alexander", "alexander_matrix", False,
     lambda w, a, rows: add(w, fox_rows=len(rows))),
    # alexander's eliminate is its own import, so each owner counts its calls
    ("alexander", "eliminate", False,
     lambda w, a, out: add(w, distinct_fox_rows=len(a[0]))),
    ("abelian", "eliminate", False, pivoted),
    ("abelian", "_reduce", False, reduced),
    ("geometry", "curve_form", False, lambda w, a, out: add(w, curve_forms=1)),
    ("geometry", "_power_fibres", False,
     lambda w, a, fibres: w.update(_fibres=len(fibres))),
    ("geometry", "_plane_rows", True, plane_row),
    ("geometry", "_form_vanishes_on_line", False, line_tested),
    ("geometry.TernaryForm", "evaluate", False,
     lambda w, a, out: add(w, form_evaluations=1)),
    ("geometry", "independent_rows", False, ranked),
    ("words", "reduce_word", False,
     lambda w, a, out: add(w, reduced_letters=len(a[0]))),
    ("geometry", "pow", False, lambda w, a, out: add(w, geometry_pows=1)),
)
COUNTERS = """search_nodes plans pi1_reduced expanded_letters gens_eliminated
    letters_in letters_out least_rotation_calls least_rotation_letters
    counter_letters cancelled_letters simplify_generators simplify_letters
    rows_walked letters_walked program_nodes distinct_rows orbits_skipped
    fox_rows distinct_fox_rows unit_pivots pivot_applications
    dense_remainders curve_forms values_evaluated form_evaluations
    lines_tested rows_skipped primes matrix row_updates
    entry_updates reduced_letters geometry_pows""".split()


def resolve(path: str):
    """The module or class cuspidal.<path>, or None if there is none."""
    module, _, attr = path.partition(".")
    return getattr(cu(module), attr, None) if attr else cu(module)


def wrap(original, count, items: bool):
    """original, calling count(args, result) after each call, or for a
    generator function (items) passing on count(args, item) per item."""
    def wrapper(*args):
        out = original(*args)
        count(args, out)
        return out

    def item_wrapper(*args):
        for item in original(*args):
            yield count(args, item)
    return item_wrapper if items else wrapper


def count_work(call) -> dict:
    """Run call() with every name of PATCHES wrapped and return the
    COUNTERS, in that order."""
    work = dict.fromkeys(COUNTERS, 0)
    work.update(dense_remainders=[], primes=[], matrix=[], _fibres=0,
                _reached=set())
    with contextlib.ExitStack() as restore:
        for paths, name, items, count in PATCHES:
            for owner in filter(None, map(resolve, paths.split())):
                original = getattr(owner, name, None)
                if original is not None:
                    restore.callback(setattr, owner, name, original)
                elif hasattr(builtins, name):
                    # a builtin the module calls: shadowed by a module
                    # global while counting
                    original = getattr(builtins, name)
                    restore.callback(delattr, owner, name)
                else:
                    continue
                setattr(owner, name,
                        wrap(original, partial(count, work), items))
        call()
    return {key: work[key] for key in COUNTERS}


def perfbench_run():
    """perfbench/run.py, loaded by path, for its host-speed kernel."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def child(src: str, case: str) -> None:
    """Run one measurement and print {"seconds", "reference_s",
    "corrected_s", "answer", "work"}."""
    sys.path.insert(0, src)
    kind, args = parse(case)
    setup, call, answer = KINDS[kind]
    state = setup(*args)
    start = time.perf_counter()
    result = call(*state)
    seconds = time.perf_counter() - start
    # loaded only now, so that the timed call imports nothing extra first
    host = perfbench_run()
    reference_s = statistics.fmean(host.reference_time() for _ in range(5))
    print(json.dumps({"seconds": seconds, "reference_s": reference_s,
                      "corrected_s": seconds * host.REFERENCE_S / reference_s,
                      "answer": answer(result, *state),
                      "work": count_work(lambda: call(*state))}))


def measure(src: Path, case: str) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--child", str(src),
                           case], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def commit(src: Path) -> str:
    """Short hash of the git commit that src/ is checked out at, or its
    path if it is not in a checkout (a `git archive` copy)."""
    proc = subprocess.run(["git", "-C", str(src), "rev-parse", "--short",
                           "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or str(src)


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
    after = {"after": ROOT / "src"}
    versions = {"before": args.before, **after} if args.before else after
    cases = SUITES[args.suite]
    times = {(v, c): [] for v in versions for c in cases}
    corrected = {(v, c): [] for v in versions for c in cases}
    answers, work = {}, {}
    for _ in range(REPEAT):
        for case in cases:
            for version, src in versions.items():
                run = measure(src, case)
                times[version, case].append(run["seconds"])
                corrected[version, case].append(run["corrected_s"])
                answers.setdefault(case, run["answer"])
                work[version, case] = run["work"]
                if run["answer"] != answers[case]:
                    sys.exit(f"{case}: {version} answers differently")
    rows = []
    for case in cases:
        row = {"case": case, "answer": answers[case]}
        for version in versions:
            row[f"{version}_s"] = round(statistics.median(
                times[version, case]), 4)
            row[f"{version}_corrected_s"] = round(statistics.median(
                corrected[version, case]), 4)
        if "before" in versions:
            ratios = [b / a for b, a in zip(corrected["before", case],
                                            corrected["after", case])]
            q1, median, q3 = statistics.quantiles(ratios, n=4,
                                                  method="inclusive")
            row["speedup"] = round(median, 2)
            row["speedup_quartiles"] = [round(q1, 2), round(q3, 2)]
        for version in versions:
            row[f"{version}_work"] = work[version, case]
        rows.append(row)
    report = {
        "what": "median wall seconds of one call, fresh interpreter per "
                "run, raw and corrected to the host-speed reference; cases "
                "and counters are described in scripts/bench.py",
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
