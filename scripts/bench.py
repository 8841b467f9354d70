"""Before/after timings of one suite, written to BENCH_<suite>.json.

    python3 scripts/bench.py homcount --before OLD/src
    python3 scripts/bench.py tietze --before OLD/src
    python3 scripts/bench.py alexander --before OLD/src
    python3 scripts/bench.py kernel --before OLD/src
    python3 scripts/bench.py geometry --before OLD/src
    python3 scripts/bench.py verify --before OLD/src
    python3 scripts/bench.py curve --before OLD/src
    python3 scripts/bench.py smith --before OLD/src

times the suite's cases on the `cuspidal` package under OLD/src and on the
one in this checkout's src/, and writes the JSON report next to this
checkout's README.  Every measurement runs in a fresh interpreter and times
only the call itself, so tables built on first use are part of the time.
Runs of the two versions alternate, one run of each making a pair; the
median of REPEAT runs of each version is reported with the exact answers,
which must agree.  The speedup is the median over the pairs of the before
time over the after time, with its quartiles: a pair shares the host's
state of the moment, which the medians of unpaired runs do not.  A case
the before version cannot reach (AFTER_ONLY) is run on this checkout only.
The before version is labelled with the git commit OLD is checked out at,
if any.  Standard library only.

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
call).  Next to the times, each side reports its work, counted in a
second, instrumented call (`kernel_work`): the relators
`SchreierSystem.exponent_rows` walks, the generator letters they read (the
reads of the coset table, one per letter walked), the inner nodes of a
straight-line program composed instead (0 for a version without them),
the letters of the reduced curve presentations built, the distinct rows,
the unit pivots, the row reductions that apply them and the shape of the
dense remainder.

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
reduced curve presentations (`presentation_pi1_reduced`) and their
letters, and curve forms (`geometry.curve_form`).

curve: the two odd-n curve checks of verify-all from n alone, the
Alexander polynomial (`curve_alexander(n)`, n = 7, 15, 31, 61) and the
commutator rank (`commutator_abelianization_rank(n)`, n = 7, 21, 31), and
`verify-all --n N` for N = 13, 21, 31.  The Alexander polynomial is taken
of `presentations.curve_program(n)` in a version that has it, else of
`presentation_pi1_reduced(n)`, which is then part of the time; n = 61 is
out of reach of the expanded presentation, so it runs on this checkout
only.  Next to the times, each side reports its work, counted in a
second, instrumented call: the letters of the reduced curve presentations
built, the Fox rows built and those left once rows equal up to a unit are
dropped, the kernel rows and the unit pivots, row reductions and dense
remainder of their Smith form.

smith: the Smith forms and the Oka quotient behind verify-all at large n:
`commutator_abelianization_rank(n)` for n = 21, 31, 41, 61 (the whole
call), H1 of `presentation_pi1(n)` (`pi1_abelianization(n)`, the
`abelianization` call only, after the presentation is built) for n = 21,
41, 61, `oka_quotient(n)` for n = 7, 21, 31 (the whole call) and
`verify-all --n N` for N = 31, 41 and, on this checkout only, 61.  Next to
the times, each side reports its work, counted in a second, instrumented
call: the unit pivots of its Smith forms, the row reductions that apply
them (the calls of `abelian._reduce_row`; null for a version without it),
the rows x columns of each dense remainder, and the generators and
relator letters of the presentations `oka_quotient` hands to
`simplify_with_map`.  The rank cases report the kernel suite's work, the
verify-all cases the verify suite's with these counts added.
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
CURVE_ALEXANDER_N = (7, 15, 31, 61)
CURVE_RANK_N = (7, 21, 31)
CURVE_VERIFY_N = (13, 21, 31)
SMITH_RANK_N = (21, 31, 41, 61)
SMITH_H1_N = (21, 41, 61)
SMITH_OKA_N = (7, 21, 31)
SMITH_VERIFY_N = (31, 41, 61)
# cases the before version is not run on: pi1-reduced(61) holds about
# 5 * 10^7 letters, and verify-all --n 61 takes about 16 s before the
# forward Smith front end and the Oka quotient by substitution
AFTER_ONLY = {"curve_alexander(61)", "verify-all --n 61"}
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
    "curve": [f"curve_alexander({n})" for n in CURVE_ALEXANDER_N]
             + [f"commutator_abelianization_rank({n})" for n in CURVE_RANK_N]
             + [f"verify-all --n {n}" for n in CURVE_VERIFY_N],
    "smith": [f"commutator_abelianization_rank({n})" for n in SMITH_RANK_N]
             + [f"pi1_abelianization({n})" for n in SMITH_H1_N]
             + [f"oka_quotient({n})" for n in SMITH_OKA_N]
             + [f"verify-all --n {n}" for n in SMITH_VERIFY_N],
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
    "curve": "median wall seconds of one call from n, fresh interpreter per "
             "run (verify-all: the whole command, stdout captured); answers "
             "(the polynomial's digest, degree and (t - 1) factors "
             "stripped, the rank, the verify-all results) are identical for "
             "both versions; *_work are each version's work counts, from a "
             "second, instrumented call; speedup is the median over pairs "
             "of runs of before over after, speedup_quartiles its first and "
             "third quartiles",
    "smith": "median wall seconds of one call, fresh interpreter per run "
             "(pi1_abelianization(n): abelianization(presentation_pi1(n)) "
             "after the build; verify-all: the whole command, stdout "
             "captured); answers (the rank, H1, digests of the Oka "
             "quotient and its images, the verify-all results) are "
             "identical for both versions; *_work are each version's unit "
             "pivots, row reductions, dense remainders and simplify_with_map "
             "inputs, from a second, instrumented call; speedup is the "
             "median over pairs of runs of before over after, "
             "speedup_quartiles its first and third quartiles",
}
REPEAT = 5


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
    work = {"plans": 0, "pi1_reduced": 0, "expanded_letters": 0,
            "curve_forms": 0}

    def tally(key):
        def count(args, out):
            work[key] += 1
        return count

    def built(args, out):
        work["pi1_reduced"] += 1
        work["expanded_letters"] += sum(map(len, out.relators))

    # cli calls presentation_pi1_reduced by the name it imported
    with counting(homcount, "_build_plan", tally("plans")), \
            counting(presentations, "presentation_pi1_reduced", built), \
            counting(cli, "presentation_pi1_reduced", built), \
            counting(geometry, "curve_form", tally("curve_forms")):
        work.update(smith_work(lambda: run_verify_all(n)))
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
    work = curve_work(lambda: abelian.commutator_abelianization_rank(n))
    return {key: work[key] for key in (
        "rows_walked", "letters_walked", "nodes", "expanded_letters",
        "distinct_rows", "unit_pivots", "pivot_applications",
        "dense_remainders")}


def smith_work(call) -> dict:
    """The work of one call in this version, counted by wrapping what it
    calls: the unit pivots of every Smith form, the row reductions that
    apply them (`abelian._reduce_row`, null in a version without it), the
    rows x columns of each dense remainder, and the generators and relator
    letters of each presentation `oka_quotient` hands to
    `simplify_with_map`."""
    from cuspidal import abelian, presentations
    work = {"unit_pivots": 0, "pivot_applications": None,
            "dense_remainders": [], "simplify_generators": 0,
            "simplify_letters": 0}

    def pivoted(args, out):
        ones, rest = out
        work["unit_pivots"] += ones
        work["dense_remainders"].append(
            [len(rest), len({j for r in rest for j in r})])

    def applied(args, out):
        work["pivot_applications"] += 1

    def simplified(args, out):
        work["simplify_generators"] += len(args[0].generators)
        work["simplify_letters"] += sum(map(len, args[0].relators))

    with contextlib.ExitStack() as stack:
        stack.enter_context(counting(abelian, "_unit_pivots", pivoted))
        if hasattr(abelian, "_reduce_row"):
            work["pivot_applications"] = 0
            stack.enter_context(counting(abelian, "_reduce_row", applied))
        # oka_quotient calls simplify_with_map by the name it imported
        stack.enter_context(counting(presentations, "simplify_with_map",
                                     simplified))
        call()
    return work


def time_pi1_abelianization(n: int):
    from cuspidal.abelian import abelianization
    from cuspidal.presentations import presentation_pi1
    p = presentation_pi1(n)
    start = time.perf_counter()
    h1 = abelianization(p)
    seconds = time.perf_counter() - start
    work = smith_work(lambda: abelianization(p))
    return seconds, {"h1": str(h1)}, {key: work[key] for key in (
        "unit_pivots", "pivot_applications", "dense_remainders")}


def time_oka_quotient(n: int):
    from cuspidal import presentations
    from cuspidal.words import format_presentation
    start = time.perf_counter()
    gm, quotient = presentations.oka_quotient(n)
    seconds = time.perf_counter() - start
    work = smith_work(lambda: presentations.oka_quotient(n))
    return seconds, {
        "sha256": hashlib.sha256(
            format_presentation(quotient).encode()).hexdigest()[:16],
        "images_sha256": hashlib.sha256(
            str(gm.images).encode()).hexdigest()[:16]}, {
        key: work[key] for key in ("simplify_generators", "simplify_letters")}


def curve_work(call) -> dict:
    """The work of one call in this version, counted by wrapping what it
    calls: the reduced curve presentations built and their letters, the
    relators `SchreierSystem.exponent_rows` walks, the generator letters
    read on the way (the reads of each coset table) and the inner nodes
    composed, the kernel rows, the Fox rows built and those left once rows
    equal up to a unit are dropped (the rows `alexander._unit_reduce`
    receives), and the work of the Smith forms (`smith_work`)."""
    from cuspidal import alexander, presentations, rewriting
    work = {"expanded_letters": 0, "rows_walked": 0, "letters_walked": 0,
            "nodes": 0, "distinct_rows": 0, "fox_rows": 0,
            "distinct_fox_rows": 0}

    class Reads(list):
        """A coset table that counts its reads: one per letter walked."""

        def __getitem__(self, i):
            work["letters_walked"] += 1
            return list.__getitem__(self, i)

    def built(args, out):
        work["expanded_letters"] += sum(map(len, out.relators))

    def walked(args, out):
        system, relators = args
        system._next = Reads(system._next)
        work["rows_walked"] += len({r for r in relators if r})
        work["nodes"] += len(getattr(system, "_nodes", ()))

    def row(args, item):
        work["distinct_rows"] += 1

    def fox(args, out):
        work["fox_rows"] += len(out)

    def reduced(args, out):
        work["distinct_fox_rows"] += len(args[0])

    with counting(presentations, "presentation_pi1_reduced", built), \
            counting(rewriting.SchreierSystem, "exponent_rows", row,
                     items=True), \
            counting(rewriting.SchreierSystem, "exponent_rows", walked), \
            counting(alexander, "alexander_matrix", fox), \
            counting(alexander, "_unit_reduce", reduced):
        work.update(smith_work(call))
    return work


def time_curve_alexander(n: int):
    """The Alexander polynomial of the curve from n, in this version: of
    its straight-line program if it has one, else of pi1-reduced(n)."""
    from cuspidal import alexander, presentations

    def call():
        # looked up at each call, so that curve_work sees its wrappers
        build = getattr(presentations, "curve_program",
                        presentations.presentation_pi1_reduced)
        return alexander.alexander_polynomial(build(n))

    start = time.perf_counter()
    poly, stripped = call()
    seconds = time.perf_counter() - start
    digest = hashlib.sha256(str(poly).encode())
    work = curve_work(call)
    return seconds, {"sha256": digest.hexdigest()[:16],
                     "degree": poly.degree, "stripped": stripped}, {
        key: work[key] for key in ("expanded_letters", "fox_rows",
                                   "distinct_fox_rows")}


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
         "curve_alexander": time_curve_alexander,
         "commutator_abelianization_rank": time_commutator_rank,
         "pi1_abelianization": time_pi1_abelianization,
         "oka_quotient": time_oka_quotient,
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
                if version == "before" and case in AFTER_ONLY:
                    continue
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
            row[f"{version}_s"] = (round(statistics.median(
                times[version, case]), 4) if times[version, case] else None)
        if "before" in versions and case not in AFTER_ONLY:
            ratios = [b / a for b, a in zip(times["before", case],
                                            times["after", case])]
            q1, median, q3 = statistics.quantiles(ratios, n=4,
                                                  method="inclusive")
            row["speedup"] = round(median, 2)
            row["speedup_quartiles"] = [round(q1, 2), round(q3, 2)]
        for version in versions:
            if case in HOM_CASES:
                row[f"{version}_nodes"] = work.get((version, case))
            elif work.get((version, case)) is not None:
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
