"""The benchmark's workloads and the correctness gate.

A workload is a fixed list of tasks.  A task is a kind and a tuple of
(family, n, p, k)-style inputs; running it calls the public functions of
`cuspidal` and compares every answer with a literal expected value, or with
a value computed here from the paper's closed formulas.  The gate never
reads the program's own pass/fail flags, so it cannot grade itself.

Every call into the program goes through a module attribute
(`abelian.abelianization`, not a name imported from it), so the tracer in
`tracing.py` sees the benchmark's own calls as well as the program's.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
import traceback
from fractions import Fraction

from cuspidal import (abelian, alexander, cli, errors, geometry,
                      presentations)

# H1 of the curve group as (free rank, torsion): Z/2n for odd n,
# Z^3 + Z/(n/2) for even n (Z^3 for n = 2).
H1 = {2: (3, ()), 3: (0, (6,)), 4: (3, (2,)), 5: (0, (10,)),
      6: (3, (3,)), 7: (0, (14,)), 8: (3, (4,))}
# Generators left after the Reidemeister-Schreier derivation and Tietze
# simplification.
DERIVED_GENERATORS = {2: 3, 3: 4, 4: 4, 5: 4, 6: 4}
# Smallest prime p >= 100 with p = 1 mod 2n (verify-all's singular locus).
SINGULAR_PRIME = {2: 101, 3: 103, 4: 113, 5: 101, 6: 109, 7: 113, 8: 113}
# Smallest prime p >= 10^4 with p = 1 mod 2n (verify-all's superabundance).
SUPERABUNDANCE_PRIME = {3: 10009, 5: 10061, 7: 10039}
# Hom counts (k, |Hom(pi1(3), S_k)|, |Hom(zariski3, S_k)|).
ZARISKI_HOM_COUNTS = [[2, 2, 2], [3, 84, 84], [4, 1194, 1194]]


def h1_display(free_rank: int, torsion) -> str:
    parts = ["Z"] * free_rank + [f"Z/{d}" for d in torsion]
    return " + ".join(parts) if parts else "0"


def cyclotomic_cube(n: int) -> list[int]:
    """Coefficients, constant term first, of (1 - t + ... + t^(n-1))^3."""
    base = [(-1) ** i for i in range(n)]
    out = [1]
    for _ in range(3):
        out = [sum(out[j] * base[i - j] for j in range(len(out))
                   if 0 <= i - j < n)
               for i in range(len(out) + n - 1)]
    return out


def poly_display(coeffs) -> str:
    """The CLI's display of a polynomial with constant term first."""
    terms = [f"{c}" if e == 0 else f"{c}*t" if e == 1 else f"{c}*t^{e}"
             for e, c in enumerate(coeffs) if c]
    return " + ".join(terms)


def curve_gradient(n: int, pt, p: int) -> tuple[int, int, int, int]:
    """F_n and its three partials at pt, mod p, with X = x^n etc.:
    F_n = X^2 + Y^2 + Z^2 + 2XZ - 2XY + 2YZ."""
    x, y, z = pt
    X, Y, Z = (pow(c, n, p) for c in pt)
    f = X * X + Y * Y + Z * Z + 2 * X * Z - 2 * X * Y + 2 * Y * Z
    fx = 2 * n * pow(x, n - 1, p) * (X - Y + Z)
    fy = 2 * n * pow(y, n - 1, p) * (Y - X + Z)
    fz = 2 * n * pow(z, n - 1, p) * (Z + X + Y)
    return tuple(v % p for v in (f, fx, fy, fz))


def singular_locus(n: int, p: int) -> list[tuple[int, int, int]]:
    """The 3n points [0:1:w], [1:0:w] (w^n = -1) and [1:w:0] (w^n = 1),
    found by trying every w in F_p."""
    minus = [w for w in range(p) if pow(w, n, p) == p - 1]
    plus = [w for w in range(1, p) if pow(w, n, p) == 1]
    return sorted([(0, 1, w) for w in minus] + [(1, 0, w) for w in minus]
                  + [(1, w, 0) for w in plus])


def expected_verify_all(n: int) -> dict:
    """The value each verify-all check must report for n."""
    exp = {
        "abelianization_dichotomy": h1_display(*H1[n]),
        "singular_points": {"count": 3 * n, "prime": SINGULAR_PRIME[n],
                            "tangent_cone_ranks": [2] if n == 2 else [1]},
        "milnor_ratio": str(Fraction(3 * (n - 1), 4 * n)),
    }
    if n <= 4:
        exp["derivation_match"] = {"generators": DERIVED_GENERATORS[n]}
    if n % 2:
        exp["alexander_vs_cyclotomic_cube"] = {
            "display": poly_display(cyclotomic_cube(n)), "stripped": 0}
        exp["commutator_abelianization_rank"] = 3 * (n - 1)
        exp["superabundance"] = {"h0": (n - 3) * (n - 2) // 2,
                                 "prime": SUPERABUNDANCE_PRIME[n], "s": 3}
        exp["oka_quotient_match"] = f"Z/{2 * n}"
    if n == 2:
        exp["splitting"] = {"forms": 4, "prime": 13}
    if n == 3:
        exp["zariski_correspondence"] = {
            "h1": "Z/6", "hom_counts": ZARISKI_HOM_COUNTS, "triviality": True}
    return exp


def _mismatch(what, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {got!r}, want {want!r}"]


def check_verify_all(n: int) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["verify-all", "--n", str(n), "--format", "structured"])
    problems = _mismatch("exit code", rc, 0)
    results = json.loads(out.getvalue())["results"]
    got = {r["check"]: r["value"] for r in results}
    for check, want in expected_verify_all(n).items():
        problems += _mismatch(check, got.get(check), want)
    return problems


def check_derive(n: int) -> list[str]:
    derived = presentations.derive_pi1_via_rs(n)
    h1 = abelian.abelianization(derived)
    direct = abelian.abelianization(presentations.presentation_pi1(n))
    return (_mismatch("generators", len(derived.generators),
                      DERIVED_GENERATORS[n])
            + _mismatch("H1", (h1.free_rank, h1.torsion), H1[n])
            + _mismatch("H1 of the direct presentation",
                        (direct.free_rank, direct.torsion), H1[n]))


def check_alexander_polynomial(n: int) -> list[str]:
    poly, stripped = alexander.alexander_polynomial(
        presentations.presentation_pi1_reduced(n))
    poly = poly.normalized()
    target = alexander.cyclotomic_target(n).normalized()
    return (_mismatch("polynomial", (poly.low, list(poly.coeffs)),
                      (0, cyclotomic_cube(n)))
            + _mismatch("cyclotomic_target", (target.low, list(target.coeffs)),
                        (0, cyclotomic_cube(n)))
            + _mismatch("stripped", stripped, 0))


def check_commutator_rank(n: int) -> list[str]:
    return _mismatch("rank", abelian.commutator_abelianization_rank(n),
                     3 * (n - 1))


def check_superabundance(n: int) -> list[str]:
    rep = geometry.superabundance_multi(n)
    return _mismatch("(s, h0)", (rep.s, rep.h0), (3, (n - 3) * (n - 2) // 2))


def check_splitting(p: int) -> list[str]:
    rep = geometry.splitting_check_n2(geometry.PrimeField(p))
    lines = rep.linear_forms
    points = sorted(set(rep.intersection_points))
    problems = _mismatch("distinct lines", len(set(lines)), 4)
    # the six meeting points are the nodes of F_2
    problems += _mismatch("intersection points", points, singular_locus(2, p))
    for pt in points:
        on = sum((a * pt[0] + b * pt[1] + c * pt[2]) % p == 0
                 for a, b, c in lines)
        problems += _mismatch(f"lines through {pt}", on, 2)
    # the product of the four lines is a nonzero multiple of F_2
    scale = None
    for pt in itertools.product(range(5), repeat=3):
        f = curve_gradient(2, pt, p)[0]
        prod = 1
        for a, b, c in lines:
            prod = prod * (a * pt[0] + b * pt[1] + c * pt[2]) % p
        if scale is None and f:
            scale = prod * pow(f, p - 2, p) % p
        if scale is not None and prod != scale * f % p:
            return problems + [f"line product differs from F_2 at {pt}"]
    return problems + _mismatch("line product is a multiple of F_2",
                                bool(scale), True)


def check_singular_points(n: int, p: int) -> list[str]:
    field = geometry.PrimeField(p)
    pts = sorted(pt.coords for pt in geometry.singular_points(n, field))
    scan = sorted(pt.coords
                  for pt in geometry.singular_points_scan(n, field))
    want = singular_locus(n, p)
    problems = (_mismatch("count", len(want), 3 * n)
                + _mismatch("constructed points", pts, want)
                + _mismatch("scanned points", scan, want))
    for pt in want:
        problems += _mismatch(f"F_n and gradient at {pt}",
                              curve_gradient(n, pt, p), (0, 0, 0, 0))
    ranks = {geometry.tangent_cone_rank(geometry.ProjectivePoint(pt, field),
                                        n, field) for pt in want}
    return problems + _mismatch("tangent cone ranks", ranks, {1})


KINDS = {
    "verify-all": check_verify_all,
    "derive": check_derive,
    "alexander-polynomial": check_alexander_polynomial,
    "commutator-rank": check_commutator_rank,
    "superabundance": check_superabundance,
    "splitting": check_splitting,
    "singular-points": check_singular_points,
}

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "verify-sweep": [("verify-all", (n,)) for n in range(2, 9)],
    "derive": [("derive", (4,)), ("derive", (5,))],
    "alexander": [("alexander-polynomial", (7,)), ("commutator-rank", (7,)),
                  ("superabundance", (7,)), ("alexander-polynomial", (9,)),
                  ("superabundance", (9,))],
    "geometry": ([("splitting", (p,)) for p in (13, 17, 29)]
                 + [("singular-points", (n, p))
                    for n, p in ((3, 97), (5, 101), (7, 197))]
                 + [("superabundance", (n,)) for n in (15, 25)]),
}


def task_id(task) -> str:
    kind, params = task
    return kind + ":" + ",".join(map(str, params))


def run_task(task) -> str:
    """'' if the task's answers are all as expected, else what went wrong.
    An exception or an inconclusive search fails the task."""
    kind, params = task
    try:
        problems = KINDS[kind](*params)
    except errors.BudgetExceeded as exc:
        return f"inconclusive: {exc}"
    except Exception as exc:  # a raising task is a failed task; keep going
        traceback.print_exc(file=sys.stderr)
        return f"raised {type(exc).__name__}: {exc}"
    return "; ".join(problems)
