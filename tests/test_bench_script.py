"""Smoke test of scripts/bench.py: one small case of each suite, run the way
the script runs its measurements, in a fresh interpreter
(`python3 scripts/bench.py --child src CASE`).

Each run must exit 0, give the known answer, and read a nonzero value on
every work counter that counts work done.  The counters patch private
names of the package (`SchreierSystem._next`, `abelian._eliminate`,
`abelian._unit_pivots`, `abelian._reduce_row`, `alexander._unit_reduce`,
`words._least_rotation`, `homcount._build_plan`, `geometry._plane_rows`,
`geometry._power_fibres`, `geometry._form_vanishes_on_line`,
`geometry.TernaryForm.evaluate`, `words.Counter`), so a change
to the code they patch shows here.  The children run in
subprocesses because a measurement may leave the package patched
(`time_derive` rebinds `rewriting.simplify`).
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from cuspidal.presentations import derive_pi1_via_rs
from cuspidal.words import format_presentation

ROOT = Path(__file__).resolve().parent.parent


def child(case: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--child",
         str(ROOT / "src"), case], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    assert run["seconds"] > 0
    return run


def test_homcount_suite():
    run = child("derived(3), k = 4")
    assert run["answer"] == 1194
    assert run["work"] > 0  # search nodes


def test_tietze_suite():
    run = child("derive_pi1_via_rs(4)")
    answer, work = run["answer"], run["work"]
    digest = hashlib.sha256(
        format_presentation(derive_pi1_via_rs(4)).encode()).hexdigest()
    assert answer["sha256"] == digest[:16]
    assert answer["generators"] == 4
    for key in ("gens_eliminated", "letters_in", "letters_out"):
        assert answer[key] > 0, key
    for key in ("least_rotation_calls", "least_rotation_letters",
                "counter_letters"):
        assert work[key] > 0, key


def test_alexander_suite():
    run = child("alexander_polynomial(5)")
    # degree 3(n - 1), no (t - 1) factor stripped
    assert run["answer"]["degree"] == 12
    assert run["answer"]["stripped"] == 0
    assert run["work"] is None


def test_kernel_suite():
    run = child("commutator_abelianization_rank(9)")
    assert run["answer"] == 24
    for key in ("rows_walked", "letters_walked", "distinct_rows",
                "unit_pivots", "pivot_applications"):
        assert run["work"][key] > 0, key
    # the rows are read off the curve program's 77 nodes
    assert run["work"]["nodes"] == 77
    assert run["work"]["expanded_letters"] == 0


def test_geometry_suite_scan():
    run = child("singular_points_scan(7,197)")
    assert run["answer"]["points"] == 21  # 3n singular points
    assert run["work"]
    for key, count in run["work"].items():
        assert count > 0, key


def test_geometry_suite_splitting():
    run = child("splitting_check_n2(13)")
    assert run["answer"]["lines"] == 4
    # F_2 vanishes at the rows' first test point on two rows of 13 lines;
    # one evaluation per row of _plane_rows (15 at p = 13), then at most
    # four per tested line, up to the first that does not vanish
    assert run["work"] == {"lines_tested": 26, "rows_skipped": 13,
                           "evaluations": 57}


def test_geometry_suite_superabundance():
    run = child("superabundance_multi(5)")
    answer, work = run["answer"], run["work"]
    assert (answer["s"], answer["h0"]) == (3, 3)  # h0 = (n - 3)(n - 2)/2
    assert len(work["primes"]) == 3
    assert work["matrix"] == [15, 12]  # 3n rows, 3n - 3 used columns
    for key in ("row_updates", "entry_updates"):
        assert work[key] > 0, key


def test_verify_suite():
    run = child("verify-all --n 3")
    assert run["answer"]["exit"] == 0
    assert all(entry.get("passed", True)
               for entry in run["answer"]["results"])
    for key in ("plans", "pi1_reduced", "curve_forms"):
        assert run["work"][key] > 0, key


def test_curve_suite():
    run = child("curve_alexander(5)")
    assert run["answer"]["degree"] == 12
    assert run["answer"]["stripped"] == 0
    # read off the straight-line program: no relator is expanded, and of
    # its 30 relators' Fox rows 11 are distinct up to a unit
    assert run["work"] == {"expanded_letters": 0, "fox_rows": 30,
                           "distinct_fox_rows": 11}


def test_smith_suite():
    run = child("pi1_abelianization(5)")
    assert run["answer"] == {"h1": "Z/10"}
    # every column but one splits off as a unit; the long relator is left
    # as 2n times one column
    assert run["work"]["unit_pivots"] == 24
    assert run["work"]["pivot_applications"] > 0
    assert run["work"]["dense_remainders"] == [[1, 1]]
    run = child("oka_quotient(5)")
    # n generators and 2n^2 + 1 relators: the j-family substitutes to
    # nothing, the i-family to 4 letters, the long relator to 2n
    assert run["work"] == {"simplify_generators": 5,
                           "simplify_letters": 4 * 25 + 10}
