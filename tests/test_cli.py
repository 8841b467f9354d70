import argparse
import functools
import importlib.util
import itertools
import json
import time
from pathlib import Path

import pytest

from cuspidal import cli, geometry, presentations
from cuspidal.cli import main
from cuspidal.errors import (RankDeficiencySuspect, SplittingFailure,
                             VerificationFailure)
from cuspidal.presentations import derive_pi1_via_rs
from cuspidal.words import format_presentation


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def document(capsys, *argv):
    """(exit code, structured document, text output) of a command that
    writes nothing on stderr, with the same exit code in both formats."""
    code, out, err = run(capsys, *argv, "--format", "structured")
    text = run(capsys, *argv)
    assert (err, text[0], text[2]) == ("", code, "")
    return code, json.loads(out), text[1]


def test_present_text(capsys):
    code, out, _ = run(capsys, "present", "--family", "G")
    assert code == 0
    assert out.startswith("gens: e l1 l2\n")
    assert len(out.strip().splitlines()) == 5  # gens line + 4 relators


def test_present_structured_is_json(capsys):
    code, out, _ = run(capsys, "present", "--family", "pi1", "--n", "2",
                       "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == []
    pres = doc["results"][0]["value"]
    assert len(pres["generators"]) == 4


def test_abelianize_matches_expected(capsys):
    code, out, _ = run(capsys, "abelianize", "--family", "pi1", "--n", "6",
                       "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    value = doc["results"][0]["value"]
    assert value["free_rank"] == 3 and value["torsion"] == [3]


def test_usage_error_exit_2(capsys):
    code, _, err = run(capsys, "present", "--family", "oka", "--n", "0")
    assert code == 2
    assert "error" in err


def test_missing_n_is_usage_error(capsys):
    code, _, err = run(capsys, "abelianize", "--family", "pi1")
    assert code == 2


@pytest.mark.parametrize("n", ["99999999999999999999", "1000000000000"])
@pytest.mark.parametrize("argv", [
    ("present", "--family", "oka"), ("abelianize", "--family", "oka"),
    ("alexander", "--family", "oka"), ("homcount", "--family", "oka"),
    ("compare", "oka", "G")], ids=lambda argv: argv[0])
def test_an_n_past_the_family_bound_is_a_usage_error(capsys, argv, n):
    # each once ended in a traceback, an OverflowError from (2,) * n or a
    # MemoryError
    code, out, err = run(capsys, *argv, "--n", n)
    assert (code, out) == (2, "")
    assert err == "error: --n must be at most 1000000 for family 'oka'\n"


@pytest.mark.parametrize("command", ["present", "abelianize", "alexander"])
@pytest.mark.parametrize("family", sorted(cli.MAX_N))
def test_every_family_bound_is_enforced(capsys, command, family):
    # abelianize and alexander read pi1-reduced as its program, of about n^2
    # nodes, which takes pi1's bound
    program = family == "pi1-reduced" and command != "present"
    bound = cli.MAX_N["pi1" if program else family]
    code, _, err = run(capsys, command, "--family", family,
                       "--n", str(bound + 1))
    assert (code, err) == (
        2, f"error: --n must be at most {bound} for family {family!r}\n")


@pytest.mark.parametrize("command", [
    ("present",), ("abelianize",), ("alexander",), ("homcount", "--k", "3")])
def test_zariski3_needs_no_n(capsys, command):
    # zariski3 exists only at n = 3, so a missing --n reads as 3
    argv = command + ("--family", "zariski3", "--format", "structured")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    with_n = run(capsys, *argv, "--n", "3")
    assert with_n[0] == 0
    # the config records the --n given; the results are the same
    assert json.loads(out)["results"] == json.loads(with_n[1])["results"]


def test_alexander_subcommand(capsys):
    code, out, _ = run(capsys, "alexander", "--family", "pi1-reduced",
                       "--n", "3", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    checks = {e["check"]: e for e in doc["results"]}
    assert checks["matches_cyclotomic_cube"]["passed"]


def test_homcount_subcommand(capsys):
    code, out, _ = run(capsys, "homcount", "--family", "oka", "--n", "3",
                       "--k", "3", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["value"]["total"] == 12


def test_compare_failure_exits_1(capsys):
    code, out, _ = run(capsys, "compare", "pi1", "oka", "--n", "4",
                       "--kmax", "2")
    assert code == 1


def test_singular_points_scan(capsys):
    code, out, _ = run(capsys, "singular-points", "--n", "3", "--prime", "13",
                       "--scan", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    checks = {e["check"]: e for e in doc["results"]}
    assert checks["singular_points"]["value"]["count"] == 9
    assert checks["exhaustive_scan_agrees"]["passed"]
    assert checks["tangent_cone_ranks"]["value"] == [1]


def test_structured_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "verify-all", "--n", "2",
                     "--format", "structured")
    _, out2, _ = run(capsys, "verify-all", "--n", "2",
                     "--format", "structured")
    assert out1 == out2


@pytest.mark.parametrize("n", [2, 3])
def test_verify_all_green(capsys, n):
    code, out, _ = run(capsys, "verify-all", "--n", str(n),
                       "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == []
    assert all(e["passed"] for e in doc["results"] if "passed" in e)


def test_milnor_and_split(capsys):
    code, out, _ = run(capsys, "milnor-ratio", "--n", "11",
                       "--format", "structured")
    assert code == 0
    assert json.loads(out)["results"][0]["value"]["display"] == "15/22"
    code, out, _ = run(capsys, "split-check", "--prime", "17",
                       "--format", "structured")
    assert code == 0
    assert json.loads(out)["failures"] == []


def test_split_check_reach(capsys):
    # the four lines of F_2 over F_1009 meet in its six nodes
    code, out, _ = run(capsys, "split-check", "--prime", "1009",
                       "--format", "structured")
    assert code == 0
    value = json.loads(out)["results"][0]["value"]
    assert len(value["linear_forms"]) == 4
    field = geometry.PrimeField(1009)
    assert value["intersection_points"] == sorted(
        list(pt.coords) for pt in geometry.singular_points(2, field))


def test_budget_exhaustion_is_inconclusive(capsys):
    # the entry is named after the command, and holds the reason
    for argv in [("homcount", "--family", "pi1", "--n", "3", "--k", "4",
                  "--budget", "10"),
                 ("homcount", "--family", "pi1", "--n", "3", "--budget", "0"),
                 ("compare", "pi1", "zariski3", "--n", "3", "--kmax", "4",
                  "--budget", "5")]:
        code, doc, text = document(capsys, *argv)
        assert code == 3
        assert doc["failures"] == []
        reason = f"node budget {argv[-1]} exceeded"
        assert doc["results"] == [{"check": argv[0],
                                   "value": {"inconclusive": reason}}]
        assert text == f"{argv[0]}: {{'inconclusive': {reason!r}}}\n"


def test_rank_disagreement_is_inconclusive(capsys, monkeypatch):
    def disagree(n, primes=None):
        raise RankDeficiencySuspect("ranks 5 and 6 across primes")

    monkeypatch.setattr(cli, "superabundance_multi", disagree)
    code, doc, text = document(capsys, "superabundance", "--n", "3")
    assert code == 3
    assert doc["failures"] == []
    assert doc["results"] == [{
        "check": "superabundance",
        "value": {"inconclusive": "ranks 5 and 6 across primes"}}]
    assert text == ("superabundance: "
                    "{'inconclusive': 'ranks 5 and 6 across primes'}\n")


ODD = ["abelianization_dichotomy", "alexander_vs_cyclotomic_cube",
       "commutator_abelianization_rank", "superabundance", "singular_points",
       "oka_quotient_match", "milnor_ratio"]
VERIFY_ALL_CHECKS = {
    2: ["abelianization_dichotomy", "derivation_match", "singular_points",
        "splitting", "milnor_ratio"],
    3: ["abelianization_dichotomy", "derivation_match",
        "alexander_vs_cyclotomic_cube", "commutator_abelianization_rank",
        "superabundance", "singular_points", "oka_quotient_match",
        "zariski_correspondence", "milnor_ratio"],
    4: ["abelianization_dichotomy", "derivation_match", "singular_points",
        "milnor_ratio"],
    5: ODD,
    6: ["abelianization_dichotomy", "singular_points", "milnor_ratio"],
    7: ODD,
    8: ["abelianization_dichotomy", "singular_points", "milnor_ratio"],
    9: ODD,
}


@pytest.mark.parametrize("n", sorted(VERIFY_ALL_CHECKS))
def test_verify_all_runs_each_claim_where_it_applies(capsys, n):
    code, out, _ = run(capsys, "verify-all", "--n", str(n),
                       "--format", "structured")
    assert code == 0
    results = json.loads(out)["results"]
    assert [e["check"] for e in results] == VERIFY_ALL_CHECKS[n]
    assert all(e["passed"] for e in results)


def test_inconclusive_claim_keeps_the_battery(capsys, monkeypatch):
    def disagree(n, primes=None):
        raise RankDeficiencySuspect("ranks 5 and 6 across primes")

    monkeypatch.setattr(cli, "superabundance_multi", disagree)
    code, out, err = run(capsys, "verify-all", "--n", "3",
                         "--format", "structured")
    assert (code, err) == (3, "")
    doc = json.loads(out)
    assert doc["failures"] == []
    entries = {e["check"]: e for e in doc["results"]}
    assert [e["check"] for e in doc["results"]] == VERIFY_ALL_CHECKS[3]
    assert entries.pop("superabundance") == {
        "check": "superabundance",
        "value": {"inconclusive": "ranks 5 and 6 across primes"}}
    assert len(entries) == 8
    assert all(e["passed"] for e in entries.values())


def test_failed_claim_keeps_the_battery(capsys, monkeypatch):
    def fail(field):
        raise SplittingFailure("expected 4 linear factors, found 2")

    monkeypatch.setattr(cli, "splitting_check_n2", fail)
    code, out, err = run(capsys, "verify-all", "--n", "2",
                         "--format", "structured")
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert doc["failures"] == ["splitting"]
    assert [e["check"] for e in doc["results"]] == VERIFY_ALL_CHECKS[2]
    assert doc["results"][3] == {
        "check": "splitting", "passed": False,
        "value": {"error": "expected 4 linear factors, found 2"}}
    code, out, _ = run(capsys, "verify-all", "--n", "2")
    assert code == 1
    assert out.endswith("  [FAIL]\nmilnor_ratio: 3/8  [ok]\n"
                        "failures: splitting\n")


def perfbench_tracing():
    """perfbench/tracing.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing",
        Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("failing", [0, 1])
def test_tracer_counts_the_checks_of_verify_all(capsys, monkeypatch,
                                                failing):
    # the benchmark's tracer reads `results` and `failures` off the Run
    # that cmd_verify_all(args, run) was given
    def off(n):
        raise VerificationFailure("ratio off")

    if failing:
        monkeypatch.setattr(cli, "milnor_ratio", off)
    handler = cli.cmd_verify_all
    tracer = perfbench_tracing().Tracer(time.perf_counter)
    tracer.install()
    try:
        code, _, _ = run(capsys, "verify-all", "--n", "3")
    finally:
        tracer.remove()
    assert cli.cmd_verify_all is handler
    assert code == failing
    counts = tracer.pass_metrics()[1]
    assert counts["cli.calls"] == 1
    assert (counts["cli.checks"], counts["cli.checks_failed"]) == (9, failing)


def test_compare_reaches_k5(capsys):
    code, out, _ = run(capsys, "compare", "pi1", "zariski3", "--n", "3",
                       "--kmax", "5", "--format", "structured")
    assert code == 0
    checks = {e["check"]: e for e in json.loads(out)["results"]}
    assert checks["hom_count_k5"]["value"] == {"a": 7386, "b": 7386}


MALFORMED = [
    ("singular-points", "--n", "0", "--prime", "13"),
    ("singular-points", "--n", "-1", "--prime", "13"),
    ("singular-points", "--n", "1", "--prime", "13"),
    ("singular-points", "--n", "3", "--prime", "2"),
    ("superabundance", "--n", "0"),
    ("superabundance", "--n", "1"),
    ("superabundance", "--n", "1", "--primes", "7"),
    ("superabundance", "--n", "4"),
    ("superabundance", "--n", "3", "--primes", ","),
    ("superabundance", "--n", "3", "--primes", "19,19,19"),
    ("derive", "--n", "1"),
    ("milnor-ratio", "--n", "0"),
    ("homcount", "--family", "pi1", "--n", "3", "--k", "1"),
    ("homcount", "--family", "pi1", "--n", "3", "--k", "6"),
    ("compare", "G", "G", "--kmax", "6"),
    ("compare", "G", "G", "--kmax", "1"),
    ("compare", "G", "G", "--kmax", "2", "--budget", "-1"),
    ("homcount", "--family", "pi1", "--n", "3", "--budget", "-1"),
    ("split-check", "--prime", "0"),
    ("split-check", "--prime", "1"),
    ("split-check", "--prime", "2"),
    ("split-check", "--prime", "-13"),
    ("verify-all", "--n", "0"),
    ("verify-all", "--n", "1"),
    ("present", "--family", "zariski3", "--n", "4"),
    ("present", "--family", "pi1"),
]

# the messages pinned for some of them: superabundance checks n before it
# chooses primes, whose own check asks only n >= 2
MESSAGES = {
    ("superabundance", "--n", "0"): "n must be odd and >= 3",
    ("superabundance", "--n", "1"): "n must be odd and >= 3",
    ("superabundance", "--n", "1", "--primes", "7"): "n must be odd and >= 3",
}


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_malformed_input_is_a_usage_error(capsys, argv):
    # an exception escaping main fails the test
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""
    if argv in MESSAGES:
        assert err == f"error: {MESSAGES[argv]}\n"


def test_split_check_failure_exits_1(capsys, monkeypatch):
    # x^4 - y^4 has four lines, all through [0:0:1]
    monkeypatch.setattr(geometry, "curve_form", lambda n, field: (
        geometry.TernaryForm(4, field, {(4, 0, 0): 1, (0, 4, 0): -1})))
    code, doc, text = document(capsys, "split-check", "--prime", "13")
    assert code == 1
    reason = "expected 6 distinct intersection points, found 1"
    assert doc["failures"] == ["split-check"]
    assert doc["results"] == [{"check": "split-check", "passed": False,
                               "value": {"error": reason}}]
    assert text == (f"split-check: {{'error': {reason!r}}}  [FAIL]\n"
                    "failures: split-check\n")


@pytest.mark.parametrize("primes", [",", "7,x", ""])
def test_malformed_primes_name_the_option(capsys, primes):
    code, out, err = run(capsys, "superabundance", "--n", "3",
                         "--primes", primes)
    assert code == 2
    assert out == ""
    assert err == ("error: --primes must be comma-separated integers, "
                   f"got {primes!r}\n")


@pytest.mark.parametrize("n", ["0", "-1", "1"])
def test_singular_points_needs_n_at_least_2(capsys, n):
    code, _, err = run(capsys, "singular-points", "--n", n, "--prime", "13")
    assert code == 2
    assert err == "error: n must be >= 2\n"


@pytest.mark.parametrize("kmax", ["-1", "1", "6"])
def test_compare_kmax_out_of_range_names_the_option(capsys, kmax):
    code, out, err = run(capsys, "compare", "pi1", "zariski3", "--n", "3",
                         "--kmax", kmax)
    assert code == 2
    assert out == ""
    assert err == f"error: --kmax must be between 2 and 5, got {kmax}\n"


def reduced_builds(monkeypatch) -> list[int]:
    """The n of every presentation_pi1_reduced(n) built from now on, through
    either name: cli holds the name it imported."""
    built = []
    build = presentations.presentation_pi1_reduced

    def counting(m):
        built.append(m)
        return build(m)

    monkeypatch.setattr(presentations, "presentation_pi1_reduced", counting)
    monkeypatch.setattr(cli, "presentation_pi1_reduced", counting)
    return built


@pytest.mark.parametrize("n", [5, 7, 9])
def test_verify_all_builds_no_reduced_presentation(capsys, monkeypatch, n):
    # the Alexander polynomial and the commutator rank read the curve
    # program; the n^4-letter presentation is built for no check
    built = reduced_builds(monkeypatch)
    code, _, _ = run(capsys, "verify-all", "--n", str(n))
    assert code == 0
    assert built == []
    # the counting sees a build through either name
    cli.presentation_pi1_reduced(3)
    presentations.presentation_pi1_reduced(3)
    assert built == [3, 3]


@pytest.mark.parametrize("n", [16, 17])
@pytest.mark.parametrize("command", ["alexander", "abelianize"])
def test_cli_reads_the_curve_program(capsys, monkeypatch, command, n):
    # alexander and abelianize read pi1-reduced as curve_program(n); the
    # n^4-letter expansion is left to present, homcount and compare
    built = reduced_builds(monkeypatch)
    code, _, _ = run(capsys, command, "--family", "pi1-reduced", "--n", str(n))
    assert code == 0
    assert built == []
    run(capsys, "present", "--family", "pi1-reduced", "--n", "3")
    assert built == [3]


def test_curve_program_output_matches_the_expanded_route(capsys, monkeypatch):
    expanded = functools.cache(presentations.presentation_pi1_reduced)
    for n in range(2, 16):
        for command, fmt in itertools.product(("alexander", "abelianize"),
                                              ("text", "structured")):
            argv = (command, "--family", "pi1-reduced", "--n", str(n),
                    "--format", fmt)
            program = run(capsys, *argv)
            with monkeypatch.context() as m:
                m.setattr(cli, "curve_program", expanded)
                assert run(capsys, *argv) == program, argv


def test_derive_text_and_structured(capsys):
    code, out, _ = run(capsys, "derive", "--n", "3")
    assert code == 0
    assert out == format_presentation(derive_pi1_via_rs(3))
    code, out, _ = run(capsys, "derive", "--n", "3", "--format", "structured")
    assert code == 0
    pres = json.loads(out)["results"][0]["value"]
    assert pres["generators"] == ["e_1_2", "l1_1_2", "e_2_1", "e_2_2"]


def test_homcount_counts_surjective_homs(capsys):
    code, out, _ = run(capsys, "homcount", "--family", "G", "--k", "3",
                       "--surjective", "--format", "structured")
    assert code == 0
    value = json.loads(out)["results"][0]["value"]
    assert (value["total"], value["surjective"]) == (90, 42)


def test_superabundance_succeeds(capsys):
    code, out, _ = run(capsys, "superabundance", "--n", "5",
                       "--format", "structured")
    assert code == 0
    assert json.loads(out)["results"][0]["value"] == {
        "n": 5, "s": 3, "h0": 3, "rank": 12, "prime": 10061}


def test_abelianize_the_oka_quotient(capsys):
    code, out, _ = run(capsys, "abelianize", "--family", "oka-quotient",
                       "--n", "3", "--format", "structured")
    assert code == 0
    assert json.loads(out)["results"][0]["value"]["display"] == "Z/6"


def test_alexander_of_the_raw_arrangement_group(capsys):
    code, out, _ = run(capsys, "alexander", "--family", "G-raw",
                       "--format", "structured")
    assert code == 0
    value = json.loads(out)["results"][0]["value"]
    assert (value["display"], value["stripped_t_minus_1"]) == ("1", 2)


def test_one_parser_per_process(capsys, monkeypatch):
    # the parser tree is built by the first call in the process, if no
    # earlier one built it, and reused by the second, which looks its
    # handler up in the module when it runs
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(capsys, "milnor-ratio", "--n", "3")[0] == 0
    built = len(progs)
    assert progs.count("cuspidal") == (1 if built else 0)
    ran = []
    monkeypatch.setattr(cli, "cmd_verify_all",
                        lambda args, run: ran.append(args.n))
    assert run(capsys, "verify-all", "--n", "5") == (0, "", "")
    assert len(progs) == built
    assert ran == [5]
