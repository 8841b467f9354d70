"""Tests of scripts/bench.py.

In process, with the script loaded by path: every case of every suite
resolves to an entry of its table of case kinds (KINDS) that takes the
case's arguments, and every name the work counters wrap (PATCHES) exists on
the package, a generator function where its counter reads items.
The counters wrap private names (`homcount._build_plan`,
`words._least_rotation`, `words.Counter`, `abelian._reduce`,
`rewriting._FoxProgram`, `geometry._power_fibres`, `geometry._plane_rows`,
`geometry._form_vanishes_on_line`), so a rename in the package fails here
at once; a builtin they shadow (`pow` in geometry) must be one the module
calls.  A report names a version outside a git checkout by its path.

Then a smoke test of one small case of each suite, run the way the script
runs its measurements, in a fresh interpreter
(`python3 scripts/bench.py --child src CASE`): each run must exit 0, give
the known answer, report a positive time of the host-speed kernel that
perfbench/run.py defines, and read the known or a nonzero value on the
counters of the layers it runs.  The children run in subprocesses because
the script runs each case in a fresh interpreter, with the package of its
choice.
"""

import builtins
import hashlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import cuspidal
from cuspidal import geometry
from cuspidal.presentations import derive_pi1_via_rs
from cuspidal.words import format_presentation

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench.py"


spec = importlib.util.spec_from_file_location("bench", SCRIPT)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)
HOST = bench.perfbench_run()


def test_the_host_speed_kernel_is_perfbench_s():
    # loaded by path from perfbench/run.py, not a copy of it
    run_py = ROOT / "perfbench" / "run.py"
    assert Path(HOST.__file__) == run_py
    assert Path(HOST.reference_time.__code__.co_filename) == run_py
    assert not hasattr(bench, "reference_time")
    assert not hasattr(bench, "REFERENCE_S")


def test_every_case_resolves_to_a_kind():
    for suite, cases in bench.SUITES.items():
        for case in cases:
            kind, args = bench.parse(case)
            assert kind in bench.KINDS, (suite, case)
            setup, call, _ = bench.KINDS[kind]
            inspect.signature(setup).bind(*args)


def test_every_patched_name_exists():
    for paths, name, items, _ in bench.PATCHES:
        for path in paths.split():
            owner = bench.resolve(path)
            if not hasattr(owner, name):  # a builtin, shadowed
                assert hasattr(builtins, name), (path, name)
                assert f"{name}(" in inspect.getsource(owner), (path, name)
                continue
            assert hasattr(owner, name), (path, name)
            if items:
                assert inspect.isgeneratorfunction(getattr(owner, name))


def test_a_shadowed_builtin_is_restored():
    work = bench.count_work(lambda: geometry.superabundance_multi(5))
    assert work["geometry_pows"] > 0
    assert not hasattr(geometry, "pow")


def test_a_version_outside_a_checkout_is_named_by_its_path(tmp_path):
    # a `git archive` copy of a commit has no commit to name
    src = tmp_path / "src"
    src.mkdir()
    assert bench.commit(src) == str(src)


def child(case: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--child", str(ROOT / "src"), case],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    assert run["seconds"] > 0
    assert run["reference_s"] > 0
    assert run["corrected_s"] == pytest.approx(
        run["seconds"] * HOST.REFERENCE_S / run["reference_s"])
    assert list(run["work"]) == bench.COUNTERS
    return run


def ran(work: dict) -> set[str]:
    """The counters that read nonzero (a nonempty list for a list)."""
    return {key for key, count in work.items() if count}


def test_homcount_suite():
    run = child("derived(3), k = 4")
    assert run["answer"] == 1194
    assert ran(run["work"]) == {"search_nodes", "plans"}


def test_tietze_suite():
    run = child("derive_pi1_via_rs(4)")
    answer, work = run["answer"], run["work"]
    digest = hashlib.sha256(
        format_presentation(derive_pi1_via_rs(4)).encode()).hexdigest()
    assert answer == {"sha256": digest[:16], "generators": 4}
    for key in ("gens_eliminated", "letters_in", "letters_out",
                "least_rotation_calls", "least_rotation_letters",
                "counter_letters", "cancelled_letters"):
        assert work[key] > 0, key


def test_alexander_suite():
    run = child("alexander_polynomial(5)")
    # degree 3(n - 1), no (t - 1) factor stripped
    assert run["answer"]["degree"] == 12
    assert run["answer"]["stripped"] == 0
    # pi1-reduced(5) is built in the setup, which is not counted
    assert run["work"]["expanded_letters"] == 0
    assert run["work"]["fox_rows"] > 0


def test_kernel_suite():
    run = child("commutator_abelianization_rank(9)")
    assert run["answer"] == 24
    for key in ("rows_walked", "letters_walked", "distinct_rows",
                "orbits_skipped", "unit_pivots", "pivot_applications"):
        assert run["work"][key] > 0, key
    # of the 37 orbits, 15 end at a first row that reduces to zero
    assert run["work"]["orbits_skipped"] == 15
    # the rows are read off the curve program's 77 nodes
    assert run["work"]["program_nodes"] == 77
    assert run["work"]["expanded_letters"] == 0


def test_geometry_suite_scan():
    run = child("singular_points_scan(7,197)")
    assert run["answer"]["points"] == 21  # 3n singular points
    # the splitting's counters read 0 on a scan
    assert ran(run["work"]) == {"curve_forms", "values_evaluated",
                                "form_evaluations", "geometry_pows"}


def test_geometry_suite_splitting():
    run = child("splitting_check_n2(13)")
    assert run["answer"]["lines"] == 4
    # F_2 vanishes at the rows' first test point on two rows of 13 lines;
    # one evaluation per row of _plane_rows (15 at p = 13), then at most
    # four per tested line, up to the first that does not vanish
    work = run["work"]
    assert (work["lines_tested"], work["rows_skipped"],
            work["form_evaluations"]) == (26, 13, 57)
    # the scan's counter reads 0 on a splitting
    assert ran(work) == {"curve_forms", "form_evaluations", "lines_tested",
                         "rows_skipped", "geometry_pows"}


def test_geometry_suite_superabundance():
    run = child("superabundance_multi(5)")
    answer, work = run["answer"], run["work"]
    assert (answer["s"], answer["h0"]) == (3, 3)  # h0 = (n - 3)(n - 2)/2
    assert len(work["primes"]) == 3
    assert work["matrix"] == [15, 12]  # 3n rows, 3n - 3 used columns
    for key in ("row_updates", "entry_updates"):
        assert work[key] > 0, key


def test_build_suite():
    # the builders take their words reduced by construction: none passes
    # through reduce_word
    run = child("presentation_pi1_reduced(5)")
    assert run["answer"]["letters"] == 1296
    work = run["work"]
    assert (work["pi1_reduced"], work["expanded_letters"]) == (1, 1296)
    assert work["reduced_letters"] == 0
    # each of the 30 nonempty relators ties between the word and its
    # inverse, so both orientations are scanned: two calls and twice its
    # letters each
    assert (work["least_rotation_calls"],
            work["least_rotation_letters"]) == (60, 2 * 1296)
    run = child("curve_program(21)")
    assert run["answer"]["nodes"] == 21 * 21 - 4
    assert ran(run["work"]) == set()
    run = child("superabundance_multi(5)")
    # per prime, the 3n points share (2n + 1) power lists of n entries:
    # 55 pow calls where one list per coordinate took 9n^2 = 225
    assert run["work"]["geometry_pows"] == 2366


def test_verify_suite():
    run = child("verify-all --n 3")
    assert run["answer"]["exit"] == 0
    assert all(entry.get("passed", True)
               for entry in run["answer"]["results"])
    for key in ("search_nodes", "plans", "pi1_reduced", "curve_forms"):
        assert run["work"][key] > 0, key


def test_curve_suite():
    run = child("curve_alexander(5)")
    assert run["answer"]["degree"] == 12
    assert run["answer"]["stripped"] == 0
    # read off the straight-line program: no relator is expanded, and of
    # its 30 relators' Fox rows 11 are distinct up to a unit
    work = run["work"]
    assert (work["expanded_letters"], work["fox_rows"],
            work["distinct_fox_rows"]) == (0, 30, 11)


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
    assert (run["work"]["simplify_generators"],
            run["work"]["simplify_letters"]) == (5, 4 * 25 + 10)


def test_startup_suite():
    run = child("import cuspidal.cli")
    digest = hashlib.sha256(str(cuspidal.__all__).encode()).hexdigest()
    assert run["answer"] == {"sha256": digest[:16]}
    # an import does no work the counters see
    assert ran(run["work"]) == set()
