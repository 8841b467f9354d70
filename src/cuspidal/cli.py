"""Command-line front end: every verification behind a named subcommand.

Output is either human-readable text or a single deterministic JSON document
{"config": ..., "results": [...], "failures": [...]} in which a check that
fails or is inconclusive is an entry too; stderr carries only usage errors.
Exit codes: 0 all passed, 1 a check failed, 2 usage error, 3 inconclusive.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .abelian import abelianization, commutator_abelianization_rank
from .alexander import alexander_polynomial, cyclotomic_target
from .errors import (BudgetExceeded, InvalidParameter, RankDeficiencySuspect,
                     VerificationFailure)
from .geometry import (PrimeField, choose_prime, milnor_ratio, singular_points,
                       singular_points_scan, splitting_check_n2,
                       superabundance_multi, tangent_cone_ranks)
from .homcount import count_homs
from .presentations import (curve_program, derive_pi1_via_rs,
                            invariant_battery, map_check, oka_quotient,
                            presentation_G, presentation_G_raw,
                            presentation_oka, presentation_pi1,
                            presentation_pi1_reduced, presentation_zariski3,
                            zariski_iso_candidate)
from .words import Presentation, format_presentation

FAMILIES = ("G", "G-raw", "pi1", "pi1-reduced", "zariski3", "oka",
            "oka-quotient")
# the largest --n of each family, where its builder stays under about 1 GB:
# pi1(n) has n^2 generators, pi1-reduced(n) 2n^4 letters, oka(n) n letters
MAX_N = {"pi1": 500, "pi1-reduced": 61, "oka": 10**6, "oka-quotient": 500}


def check_n(family: str, n: int, bound: int) -> None:
    if n > bound:
        raise InvalidParameter(
            f"--n must be at most {bound} for family {family!r}")


def build_family(family: str, n: int | None, variant: str) -> Presentation:
    if family == "G":
        return presentation_G()
    if family == "G-raw":
        return presentation_G_raw()
    if family == "zariski3":
        # the family exists only at n = 3, so a missing --n means 3
        if n not in (None, 3):
            raise InvalidParameter("zariski3 is only defined for n = 3")
        return presentation_zariski3(variant)
    if n is None:
        raise InvalidParameter(f"--n is required for family {family!r}")
    check_n(family, n, MAX_N.get(family, n))
    if family == "pi1":
        return presentation_pi1(n)
    if family == "pi1-reduced":
        return presentation_pi1_reduced(n)
    if family == "oka":
        return presentation_oka(n)
    if family == "oka-quotient":
        return oka_quotient(n)[1]
    raise InvalidParameter(f"unknown family: {family!r}")


class Run:
    """The entries of one CLI invocation, in record order."""

    def __init__(self, config: dict):
        self.config = config
        self.results: list[dict] = []
        self.inconclusive = False

    @property
    def failures(self) -> list[str]:
        return [e["check"] for e in self.results if e.get("passed") is False]

    def record(self, name: str, value, passed: bool | None = None):
        entry = {"check": name, "value": value}
        if passed is not None:
            entry["passed"] = passed
        self.results.append(entry)

    def check(self, name: str, check, *args) -> None:
        """Record the (value, passed) of check(*args) as `name`, unless it is
        None (the check recorded its own): failed on VerificationFailure,
        inconclusive (no `passed`) on BudgetExceeded, RankDeficiencySuspect."""
        try:
            outcome = check(*args)
        except VerificationFailure as exc:
            outcome = {"error": str(exc)}, False
        except (BudgetExceeded, RankDeficiencySuspect) as exc:
            outcome = {"inconclusive": str(exc)}, None
            self.inconclusive = True
        if outcome is not None:
            self.record(name, *outcome)

    def emit(self, fmt: str) -> int:
        if fmt == "structured":
            doc = {"config": self.config, "results": self.results,
                   "failures": self.failures}
            print(json.dumps(doc, sort_keys=True, default=str))
        else:
            marks = {True: "  [ok]", False: "  [FAIL]", None: ""}
            for entry in self.results:
                print(f"{entry['check']}: {entry['value']}"
                      + marks[entry.get("passed")])
            if self.failures:
                print("failures: " + ", ".join(self.failures))
        return 1 if self.failures else 3 if self.inconclusive else 0


def cmd_present(args, run: Run) -> None:
    """present prints a family; derive, with no family, the derived group."""
    if args.command == "derive":
        p = derive_pi1_via_rs(args.n)
    else:
        p = build_family(args.family, args.n, args.variant)
    if args.format == "structured":
        run.record("presentation", {"generators": list(p.generators),
                                    "relators": [list(r) for r in p.relators]})
    else:
        sys.stdout.write(format_presentation(p))


def read_family(family: str, n: int | None, variant: str):
    """The family as abelianize and alexander read it: pi1-reduced as its
    straight-line program of about n^2 nodes, under pi1's bound on n, so its
    relators are never expanded."""
    if family == "pi1-reduced" and n is not None:
        check_n(family, n, MAX_N["pi1"])
        return curve_program(n)
    return build_family(family, n, variant)


def cmd_abelianize(args, run: Run) -> None:
    ab = abelianization(read_family(args.family, args.n, args.variant))
    run.record("abelianization", {"free_rank": ab.free_rank,
                                  "torsion": list(ab.torsion),
                                  "display": str(ab)})


def cmd_alexander(args, run: Run) -> None:
    p = read_family(args.family, args.n, args.variant)
    poly, stripped = alexander_polynomial(p)
    run.record("alexander_polynomial",
               {"low": poly.low, "coeffs": list(poly.coeffs),
                "display": str(poly), "stripped_t_minus_1": stripped})
    if args.family in ("pi1", "pi1-reduced") and args.n % 2 == 1:
        target = cyclotomic_target(args.n)
        run.record("matches_cyclotomic_cube", str(target), poly == target)


def cmd_homcount(args, run: Run) -> None:
    p = build_family(args.family, args.n, args.variant)
    rep = count_homs(p, args.k, args.budget, count_surjective=args.surjective)
    doc = {"symbols": rep.symbols, "total": rep.total}
    if rep.surjective is not None:
        doc["surjective"] = rep.surjective
    run.record("hom_count", doc)


def cmd_compare(args, run: Run) -> None:
    if not 2 <= args.kmax <= 5:
        raise InvalidParameter(
            f"--kmax must be between 2 and 5, got {args.kmax}")
    a = build_family(args.family_a, args.n, args.variant)
    b = build_family(args.family_b, args.n, args.variant)
    battery = invariant_battery(a, b, range(2, args.kmax + 1), args.budget)
    ab_a, ab_b = battery.h1
    run.record("abelianization",
               {"a": str(ab_a), "b": str(ab_b)}, ab_a == ab_b)
    for k, ca, cb in battery.hom_counts:
        run.record(f"hom_count_k{k}", {"a": ca, "b": cb}, ca == cb)


def cmd_superabundance(args, run: Run) -> None:
    primes = None
    if args.primes is not None:
        try:
            primes = [int(tok) for tok in args.primes.split(",")]
        except ValueError:
            raise InvalidParameter("--primes must be comma-separated "
                                   f"integers, got {args.primes!r}") from None
    rep = superabundance_multi(args.n, primes)
    run.record("superabundance",
               {"n": rep.n, "prime": rep.prime, "rank": rep.rank,
                "h0": rep.h0, "s": rep.s})


def cmd_singular_points(args, run: Run) -> None:
    field = PrimeField(args.prime)
    pts = singular_points(args.n, field)
    run.record("singular_points",
               {"count": len(pts),
                "points": sorted(list(pt.coords) for pt in pts)})
    if args.scan:
        scan = singular_points_scan(args.n, field)
        run.record("exhaustive_scan_agrees", {"count": len(scan)},
                   sorted(pt.coords for pt in pts)
                   == sorted(pt.coords for pt in scan))
    run.record("tangent_cone_ranks",
               sorted(set(tangent_cone_ranks(pts, args.n, field))))


def cmd_milnor_ratio(args, run: Run) -> None:
    r = milnor_ratio(args.n)
    run.record("milnor_ratio", {"numerator": r.numerator,
                                "denominator": r.denominator,
                                "display": str(r)})


def cmd_split_check(args, run: Run) -> None:
    rep = splitting_check_n2(PrimeField(args.prime))
    # splitting_check_n2 raises unless four forms meet in six points: a pass
    run.record("splitting",
               {"prime": rep.prime,
                "linear_forms": [list(f) for f in rep.linear_forms],
                "intersection_points":
                    [list(pt) for pt in rep.intersection_points]}, True)


def check_abelianization(n: int):
    ab = abelianization(presentation_pi1(n))
    # Z/2n at odd n, Z^3 + Z/(n/2) at even n, no Z/1 at n = 2
    expected = (0, (2 * n,)) if n % 2 else (3, (n // 2,) if n > 2 else ())
    return str(ab), (ab.free_rank, ab.torsion) == expected


def check_derivation(n: int):
    derived = derive_pi1_via_rs(n)
    battery = invariant_battery(derived, presentation_pi1(n),
                                (3, 4) if n <= 3 else (3,))
    return {"generators": len(derived.generators)}, battery.agrees


def check_alexander(n: int):
    poly, stripped = alexander_polynomial(curve_program(n))
    return ({"display": str(poly), "stripped": stripped},
            poly == cyclotomic_target(n))


def check_rank(n: int):
    rank = commutator_abelianization_rank(n)
    return rank, rank == 3 * (n - 1)


def check_superabundance(n: int):
    rep = superabundance_multi(n)
    return ({"prime": rep.prime, "h0": rep.h0, "s": rep.s},
            rep.s == 3 and rep.h0 == (n - 3) * (n - 2) // 2)


def check_singular_points(n: int):
    field = choose_prime(n, 100)
    pts = singular_points(n, field)
    ranks = set(tangent_cone_ranks(pts, n, field))
    return ({"prime": field.p, "count": len(pts),
             "tangent_cone_ranks": sorted(ranks)},
            len(pts) == 3 * n and ranks == ({2} if n == 2 else {1}))


def check_splitting(n: int):
    # p = 1 mod 2n is 1 mod 4; a report is a pass, as in split-check
    rep = splitting_check_n2(choose_prime(2, 10))
    return {"prime": rep.prime, "forms": len(rep.linear_forms)}, True


def check_oka_quotient(n: int):
    battery = invariant_battery(oka_quotient(n)[1], presentation_oka(n),
                                (3, 4))
    return str(battery.h1[0]), battery.agrees


def check_zariski(n: int):
    rep = map_check(zariski_iso_candidate("corrected"), kmax=4)
    return ({"h1": str(rep.target_h1), "hom_counts": list(rep.hom_counts),
             "triviality": rep.triviality.passed},
            rep.consistent_with_isomorphism)


def check_milnor_ratio(n: int):
    r = milnor_ratio(n)
    ok = n < 4 or abs(r - Fraction(3, 4)) < Fraction(1, n)
    return str(r), r == Fraction(3 * (n - 1), 4 * n) and ok


# (name, the n it applies to or None for all, check(n) -> (value, passed)),
# in record order; a check looks the library up in this module as it runs
CLAIMS = (
    ("abelianization_dichotomy", None, check_abelianization),
    ("derivation_match", lambda n: n <= 4, check_derivation),
    ("alexander_vs_cyclotomic_cube", lambda n: n % 2, check_alexander),
    ("commutator_abelianization_rank", lambda n: n % 2, check_rank),
    ("superabundance", lambda n: n % 2, check_superabundance),
    ("singular_points", None, check_singular_points),
    ("splitting", lambda n: n == 2, check_splitting),
    ("oka_quotient_match", lambda n: n % 2, check_oka_quotient),
    ("zariski_correspondence", lambda n: n == 3, check_zariski),
    ("milnor_ratio", None, check_milnor_ratio),
)


def cmd_verify_all(args, run: Run) -> None:
    """Each claim that applies to --n; a failed one leaves the rest to run."""
    for name, applies, check in CLAIMS:
        if applies is None or applies(args.n):
            run.check(name, check, args.n)


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one.
    A subcommand stores its handler's name, which `main` looks up in this
    module when it runs, so a handler replaced after the build is the one
    run."""
    parser = argparse.ArgumentParser(
        prog="cuspidal",
        description="Exact verification toolkit for a family of cuspidal "
                    "plane curves: presentations, abelianizations, Alexander "
                    "polynomials, and finite-field singularity geometry.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--format", choices=("text", "structured"),
                       default="text")
        p.set_defaults(fn=handler.__name__)
        return p

    def n_and_variant(p):
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--variant", choices=("stated", "corrected"),
                       default="corrected")

    def family_args(p):
        p.add_argument("--family", choices=FAMILIES, required=True)
        n_and_variant(p)

    p = add("present", cmd_present, help="print a presentation")
    family_args(p)
    p = add("derive", cmd_present,
            help="derive the curve presentation by coset rewriting")
    p.add_argument("--n", type=int, required=True)
    p = add("abelianize", cmd_abelianize, help="abelianization invariants")
    family_args(p)
    p = add("alexander", cmd_alexander, help="Alexander polynomial")
    family_args(p)
    p = add("homcount", cmd_homcount,
            help="count homomorphisms into a symmetric group")
    family_args(p)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--budget", type=int, default=10**9)
    p.add_argument("--surjective", action="store_true")
    p = add("compare", cmd_compare,
            help="compare two families on the invariant battery")
    p.add_argument("family_a", choices=FAMILIES)
    p.add_argument("family_b", choices=FAMILIES)
    n_and_variant(p)
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--budget", type=int, default=10**9)
    p = add("superabundance", cmd_superabundance,
            help="superabundance over three admissible primes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--primes", default=None,
                   help="comma-separated primes, each 1 mod 2n")
    p = add("singular-points", cmd_singular_points,
            help="construct and verify the singular locus over F_p")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--scan", action="store_true",
                   help="also run the exhaustive projective-plane scan")
    p = add("milnor-ratio", cmd_milnor_ratio,
            help="total Milnor number over degree squared")
    p.add_argument("--n", type=int, required=True)
    p = add("split-check", cmd_split_check,
            help="split the n=2 quartic into linear forms over F_p")
    p.add_argument("--prime", type=int, required=True)
    p = add("verify-all", cmd_verify_all, help="run the full battery")
    p.add_argument("--n", type=int, required=True)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    run = Run({k: v for k, v in sorted(vars(args).items())
               if k != "fn" and v is not None})
    try:
        run.check(args.command, globals()[args.fn], args, run)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run.emit(args.format)


if __name__ == "__main__":
    sys.exit(main())
