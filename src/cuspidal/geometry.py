"""Exact finite-field verification of the curve geometry.

The curve of interest is F_n = f(x^n, y^n, z^n) with
f = x^2 + y^2 + z^2 + 2(xz - xy + yz).  Working over a prime field with
p = 1 mod 2n puts the needed 2n-th roots of unity in the field, so the 3n
singular points have exact coordinates and linear-system ranks are exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

from ._record import Record
from .abelian import independent_rows
from .errors import (InvalidParameter, NotSingular, RankDeficiencySuspect,
                     SplittingFailure, VerificationFailure)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the ranges used here."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factorize(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class PrimeField:
    """F_p with a precomputed primitive root of the multiplicative group."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise InvalidParameter(f"{p} is not prime")
        self.p = p
        self.primitive_root = self._find_primitive_root()

    def _find_primitive_root(self) -> int:
        p = self.p
        if p == 2:
            return 1
        factors = _factorize(p - 1)
        for g in range(2, p):
            if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
                return g
        raise VerificationFailure("no primitive root found")  # unreachable

    def inv(self, a: int) -> int:
        return pow(a % self.p, self.p - 2, self.p)

    def __repr__(self):
        return f"PrimeField({self.p})"


def choose_prime(n: int, minimum: int = 2) -> PrimeField:
    """Smallest prime p >= minimum with p = 1 mod 2n, so F_p contains the
    2n-th roots of unity."""
    if n < 2:
        raise InvalidParameter("n must be >= 2")
    step = 2 * n
    # the first candidate >= max(minimum, 3) that is 1 mod 2n
    p = max(minimum, 3)
    p += (1 - p) % step
    while p < 2**31:
        if is_prime(p):
            return PrimeField(p)
        p += step
    raise VerificationFailure("no admissible prime below 2^31")


class ProjectivePoint(Record):
    """Point of P^2(F_p), normalized so the first nonzero coordinate is 1."""

    __slots__ = ("coords", "p")

    coords: tuple[int, int, int]
    p: int

    def __init__(self, coords, field: PrimeField):
        c = [x % field.p for x in coords]
        if not any(c):
            raise InvalidParameter("all coordinates zero")
        first = next(i for i, x in enumerate(c) if x)
        scale = field.inv(c[first])
        c = tuple(x * scale % field.p for x in c)
        object.__setattr__(self, "coords", c)
        object.__setattr__(self, "p", field.p)


def graded_lex_monomials(d: int) -> list[tuple[int, int, int]]:
    """Exponent triples of degree d, graded-lex with x > y > z."""
    out = []
    for a in range(d, -1, -1):
        for b in range(d - a, -1, -1):
            out.append((a, b, d - a - b))
    return out


class TernaryForm:
    """Homogeneous ternary form over a prime field, stored as its nonzero
    coefficients keyed by exponent triple."""

    def __init__(self, degree: int, field: PrimeField, coeffs: dict):
        self.degree = degree
        self.field = field
        p = field.p
        self.coeffs = {m: c % p for m, c in coeffs.items() if c % p}
        if any(sum(m) != degree for m in self.coeffs):
            raise InvalidParameter(f"monomial of degree other than {degree}")

    def evaluate(self, pt) -> int:
        x, y, z = pt.coords if isinstance(pt, ProjectivePoint) else pt
        p = self.field.p
        total = 0
        for (a, b, c), coef in self.coeffs.items():
            total += coef * pow(x, a, p) * pow(y, b, p) * pow(z, c, p)
        return total % p

    def partial(self, var: int) -> "TernaryForm":
        out: dict[tuple[int, int, int], int] = {}
        for mono, coef in self.coeffs.items():
            e = mono[var]
            if e:
                out[mono[:var] + (e - 1,) + mono[var + 1:]] = coef * e
        return TernaryForm(self.degree - 1, self.field, out)

    def multiply(self, other: "TernaryForm") -> "TernaryForm":
        out: dict[tuple[int, int, int], int] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                key = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                out[key] = out.get(key, 0) + c1 * c2
        return TernaryForm(self.degree + other.degree, self.field, out)


def curve_form(n: int, field: PrimeField) -> TernaryForm:
    """F_n = f(x^n, y^n, z^n), a degree-2n form."""
    if n < 1:
        raise InvalidParameter("n must be >= 1")
    coeffs = {
        (2 * n, 0, 0): 1, (0, 2 * n, 0): 1, (0, 0, 2 * n): 1,
        (n, 0, n): 2, (n, n, 0): -2, (0, n, n): 2,
    }
    return TernaryForm(2 * n, field, coeffs)


def singular_points(n: int, field: PrimeField) -> list[ProjectivePoint]:
    """The 3n singular points: [0:1:w], [1:0:w] with w^n = -1 and [1:w:0]
    with w^n = 1.  Each is verified to kill F_n and its gradient."""
    if n < 2:
        raise InvalidParameter("n must be >= 2")
    p = field.p
    if (p - 1) % (2 * n):
        raise InvalidParameter("field lacks primitive 2n-th roots of unity")
    g = field.primitive_root
    r = pow(g, (p - 1) // (2 * n), p)  # primitive 2n-th root of unity
    roots_plus = sorted({pow(r, 2 * k, p) for k in range(n)})    # w^n = 1
    roots_minus = sorted({pow(r, 2 * k + 1, p) for k in range(n)})  # w^n = -1
    if len(roots_plus) != n or len(roots_minus) != n:
        raise VerificationFailure("root counts wrong; prime unsuitable")
    pts = [ProjectivePoint((0, 1, w), field) for w in roots_minus]
    pts += [ProjectivePoint((1, 0, w), field) for w in roots_minus]
    pts += [ProjectivePoint((1, w, 0), field) for w in roots_plus]
    form = curve_form(n, field)
    partials = [form.partial(v) for v in range(3)]
    for pt in pts:
        if form.evaluate(pt) or any(d.evaluate(pt) for d in partials):
            raise VerificationFailure(f"constructed point {pt} not singular")
    return pts


def _plane_rows(p: int):
    """P^2(F_p) as rows of points [x:y:z] with (x, y) fixed: (1, y) for
    every y, then (0, 1), each with every z, then (0, 0) with z = 1 only.
    Every triple has first nonzero coordinate 1, so the same rows list the
    lines of the plane by their normalized coefficient triples."""
    for y in range(p):
        yield 1, y, range(p)
    yield 0, 1, range(p)
    yield 0, 0, range(1, 2)


def _power_fibres(d: int, p: int) -> dict[int, list[int]]:
    """The fibres of z -> z^d on F_p: each value u, in the order of its
    least preimage, with its preimages in increasing order.  For d = 0 the
    one value is 1."""
    fibres: dict[int, list[int]] = {}
    for z in range(p):
        fibres.setdefault(pow(z, d, p), []).append(z)
    return fibres


def _zeros_in_plane(forms, field: PrimeField) -> list[tuple[int, int, int]]:
    """The points of P^2(F_p) where every form vanishes, in the order of
    _plane_rows.  On each row the first form collapses to a polynomial in
    u = z^d, with d the gcd of its z-exponents, which is evaluated once per
    value of u from u-power tables; the row's zeros are read off the fibres
    of z -> z^d.  The other forms are evaluated only where the first
    vanishes."""
    p = field.p
    first, rest = forms[0], forms[1:]
    d = gcd(*(c for _, _, c in first.coeffs))
    fibres = _power_fibres(d, p)
    power = {e: [pow(v, e, p) for v in range(p)]
             for e in {e for a, b, _ in first.coeffs for e in (a, b)}}
    # z-exponent c -> (z^d)^(c/d) at each value of z^d
    upower = {c: [pow(u, c // d if d else 0, p) for u in fibres]
              for c in {c for _, _, c in first.coeffs}}
    found = []
    for x, y, zs in _plane_rows(p):
        by_z: dict[int, int] = {}
        for (a, b, c), coef in first.coeffs.items():
            by_z[c] = by_z.get(c, 0) + coef * power[a][x] * power[b][y]
        values = [0] * len(fibres)
        for c, coef in by_z.items():
            coef %= p
            if coef:
                values = [v + coef * w for v, w in zip(values, upower[c])]
        zeros = sorted(z for u, v in zip(fibres, values) if v % p == 0
                       for z in fibres[u])
        found += [(x, y, z) for z in zeros if z in zs
                  and all(f.evaluate((x, y, z)) == 0 for f in rest)]
    return found


def singular_points_scan(n: int, field: PrimeField) -> list[ProjectivePoint]:
    """Exhaustive-scan oracle over all of P^2(F_p): the points where F_n
    and its three partials vanish, the partials evaluated only where F_n
    does."""
    form = curve_form(n, field)
    forms = [form] + [form.partial(v) for v in range(3)]
    return [ProjectivePoint(pt, field) for pt in _zeros_in_plane(forms, field)]


def tangent_cone_ranks(pts, n: int, field: PrimeField) -> list[int]:
    """The rank of the Hessian quadratic form of F_n at each of the given
    singular points, in the affine chart at the point's first unit
    coordinate: 1 for a double-line tangent cone (A_{n-1}, n >= 3), 2 for a
    node (n = 2).  F_n, its partials and its second partials are built once
    for all the points, each second partial once, since the Hessian is
    symmetric."""
    form = curve_form(n, field)
    partials = [form.partial(v) for v in range(3)]
    # (u, v) with u <= v -> the second partial in u and v, built when a
    # chart first needs it
    hessian: dict[tuple[int, int], TernaryForm] = {}
    p = field.p
    ranks = []
    for pt in pts:
        if any(d.evaluate(pt) for d in partials):
            raise NotSingular(f"{pt} is not a singular point")
        chart = next(i for i, x in enumerate(pt.coords) if x == 1)
        u, v = (w for w in range(3) if w != chart)
        h = []
        for key in ((u, u), (u, v), (v, v)):
            if key not in hessian:
                hessian[key] = partials[key[0]].partial(key[1])
            h.append(hessian[key].evaluate(pt) % p)
        a, b, c = h
        ranks.append(2 if (a * c - b * b) % p else 1 if a or b or c else 0)
    return ranks


def tangent_cone_rank(pt: ProjectivePoint, n: int, field: PrimeField) -> int:
    """`tangent_cone_ranks` at one point."""
    return tangent_cone_ranks([pt], n, field)[0]


class SuperabundanceReport(Record):
    __slots__ = ("n", "prime", "rank", "h0", "s")

    n: int
    prime: int
    rank: int
    h0: int   # dim of degree-(n-1) curves through the singular points
    s: int    # superabundance: h0 minus the expected dimension


def superabundance(n: int, field: PrimeField) -> SuperabundanceReport:
    """Superabundance of the linear system of degree-(n-1) curves through the
    3n singular points: s = 3n - rank of the evaluation matrix."""
    if n < 3 or n % 2 == 0:
        raise InvalidParameter("n must be odd and >= 3")
    pts = singular_points(n, field)
    monos = graded_lex_monomials(n - 1)
    p = field.p
    # the zero coordinates of a point -> the monomials nonzero there: those
    # with no positive exponent on a zero coordinate
    supported: dict[tuple[bool, bool, bool], list] = {}
    # coordinate value -> its powers 0..n-1: the points are [0:1:w],
    # [1:0:w] and [1:w:0], so the values are 0 and the 2n roots w, 1 among
    # them
    powers: dict[int, list[int]] = {}
    rows = []
    for pt in pts:
        x, y, z = pt.coords
        zero = zx, zy, zz = x == 0, y == 0, z == 0
        if zero not in supported:
            supported[zero] = [(j, a, b, c)
                               for j, (a, b, c) in enumerate(monos)
                               if not (zx and a or zy and b or zz and c)]
        for v in pt.coords:
            if v not in powers:
                powers[v] = [pow(v, e, p) for e in range(n)]
        px, py, pz = powers[x], powers[y], powers[z]
        rows.append({j: px[a] * py[b] * pz[c] % p
                     for j, a, b, c in supported[zero]})
    r = len(independent_rows(rows, p))
    ncols = len(monos)
    return SuperabundanceReport(n, p, r, ncols - r, 3 * n - r)


def superabundance_multi(n: int, primes=None) -> SuperabundanceReport:
    """Run over the given distinct primes, by default the three least
    admissible primes >= 10^4, and require agreement."""
    if n < 3 or n % 2 == 0:  # before choose_prime, which wants only n >= 2
        raise InvalidParameter("n must be odd and >= 3")
    if primes is None:
        fields = [choose_prime(n, 10_000)]
        while len(fields) < 3:
            fields.append(choose_prime(n, fields[-1].p + 1))
    elif not primes:
        raise InvalidParameter("at least one prime is required")
    elif len(set(primes)) != len(primes):
        raise InvalidParameter(f"primes must be distinct, got {primes}")
    else:
        fields = map(PrimeField, primes)
    reports = [superabundance(n, field) for field in fields]
    if len({(r.s, r.h0, r.rank) for r in reports}) != 1:
        raise RankDeficiencySuspect(
            f"superabundance disagrees across primes: {reports}")
    return reports[0]


def milnor_ratio(n: int) -> Fraction:
    """Sum of Milnor numbers over the degree squared: 3n(n-1) / (2n)^2,
    exactly 3(n-1)/(4n); tends to 3/4."""
    if n < 2:
        raise InvalidParameter("n must be >= 2")
    return Fraction(3 * n * (n - 1), (2 * n) ** 2)


class SplittingReport(Record):
    __slots__ = ("prime", "linear_forms", "intersection_points")

    prime: int
    linear_forms: tuple[tuple[int, int, int], ...]
    intersection_points: tuple[tuple[int, int, int], ...]


def _form_vanishes_on_line(form: TernaryForm, line, field: PrimeField) -> bool:
    """Whether a quartic that vanishes at the line's first test point,
    (-b, 1, 0), or (1, 0, 0) when a = 0, vanishes on the line
    {ax + by + cz = 0}: a binary quartic with 5 distinct projective zeros is
    zero, so that point and 4 more decide it (a line over F_p has p + 1 >= 6
    points for p >= 5)."""
    a, b, c = line  # normalized: the first nonzero coefficient is 1
    if a:
        base, direction = (-b, 1, 0), (-c, 0, 1)
    elif b:
        base, direction = (1, 0, 0), (0, -c, 1)
    else:
        base, direction = (1, 0, 0), (0, 1, 0)
    p = field.p
    return all(form.evaluate(tuple((x + s * y) % p
                                   for x, y in zip(base, direction))) == 0
               for s in range(1, 5))


def _lines_on(form: TernaryForm, field: PrimeField):
    """The lines a quartic vanishes on, as sorted normalized coefficient
    triples.  The lines (a, b, c) of a row of _plane_rows share their first
    test point, (-b, 1, 0), or (1, 0, 0) when a = 0, so a row is skipped
    when the quartic does not vanish there, and otherwise each of its lines
    is tested at its other four points."""
    p = field.p
    lines = []
    for a, b, cs in _plane_rows(p):
        if form.evaluate((-b % p, 1, 0) if a else (1, 0, 0)):
            continue
        lines += [(a, b, c) for c in cs
                  if _form_vanishes_on_line(form, (a, b, c), field)]
    return sorted(lines)


def splitting_check_n2(field: PrimeField) -> SplittingReport:
    """Check that F_2 splits into 4 distinct linear forms over F_p
    (p = 1 mod 4) meeting in 6 distinct points."""
    p = field.p
    if p % 4 != 1:
        raise InvalidParameter("p must be 1 mod 4")
    form = curve_form(2, field)
    lines = _lines_on(form, field)
    if len(lines) != 4:
        raise SplittingFailure(f"expected 4 linear factors, found {len(lines)}")
    prod_form = TernaryForm(0, field, {(0, 0, 0): 1})
    for a, b, c in lines:
        prod_form = prod_form.multiply(
            TernaryForm(1, field, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c}))
    # the product must be F_2 times the scalar that matches F_2's first term
    mono, coef = next(iter(form.coeffs.items()))
    scale = coef * field.inv(prod_form.coeffs.get(mono, 0))
    if {m: c * scale % p for m, c in prod_form.coeffs.items()} != form.coeffs:
        raise SplittingFailure("factor product does not match F_2")
    points = set()
    for l1, l2 in combinations(lines, 2):
        pt = _line_intersection(l1, l2, field)
        points.add(pt.coords)
    if len(points) != 6:
        raise SplittingFailure(
            f"expected 6 distinct intersection points, found {len(points)}")
    return SplittingReport(p, tuple(lines), tuple(sorted(points)))


def _line_intersection(l1, l2, field: PrimeField) -> ProjectivePoint:
    # cross product of the coefficient vectors
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    x = b1 * c2 - c1 * b2
    y = c1 * a2 - a1 * c2
    z = a1 * b2 - b1 * a2
    return ProjectivePoint((x, y, z), field)
