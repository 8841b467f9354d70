"""Laurent polynomials over Z, Fox calculus, and Alexander polynomials via
elementary-ideal gcds.

The meridian specialization sends generator x to t^weight(x).  The Fox
matrix takes every weight to be 1, since all generators of the curve
presentations are meridians of the same curve.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd as int_gcd

from ._record import Record
from .abelian import eliminate
from .errors import InvalidParameter
from .rewriting import _FoxProgram
from .words import Word


class LaurentPolynomial(Record):
    """Integer Laurent polynomial: coefficients from exponent `low` upward.
    Canonical: first and last coefficients nonzero, or coeffs empty (zero).
    """

    __slots__ = ("low", "coeffs")

    low: int
    coeffs: tuple[int, ...]

    def __init__(self, low: int = 0, coeffs=()):
        coeffs = tuple(coeffs)
        start, end = 0, len(coeffs)
        while start < end and not coeffs[start]:
            start += 1
        while end > start and not coeffs[end - 1]:
            end -= 1
        object.__setattr__(self, "low", low + start if start < end else 0)
        object.__setattr__(self, "coeffs", coeffs[start:end])

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls(0, ())

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls(0, (1,))

    @classmethod
    def monomial(cls, exponent: int) -> "LaurentPolynomial":
        return cls(exponent, (1,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def degree(self) -> int:
        """Highest exponent; raises on the zero polynomial."""
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return self.low + len(self.coeffs) - 1

    def is_unit(self) -> bool:
        """Units of Z[t, t^-1] are +-t^k."""
        return len(self.coeffs) == 1 and abs(self.coeffs[0]) == 1

    def __add__(self, other):
        if not other.coeffs:
            return self
        if self.low > other.low:
            self, other = other, self
        return LaurentPolynomial(self.low, _combine(
            1, list(self.coeffs), -1, other.low - self.low, other.coeffs))

    def __neg__(self):
        return LaurentPolynomial(self.low, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return LaurentPolynomial(self.low + other.low,
                                 _mul(self.coeffs, other.coeffs))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers only defined for units")
        out = LaurentPolynomial.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def content(self) -> int:
        return int_gcd(*self.coeffs)

    def normalized(self) -> "LaurentPolynomial":
        """Strip the t^k unit (set low = 0) and make the leading coefficient
        positive."""
        if self.is_zero:
            return self
        coeffs = self.coeffs
        if coeffs[-1] < 0:
            coeffs = tuple(-c for c in coeffs)
        return LaurentPolynomial(0, coeffs)

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            e = self.low + i
            if e == 0:
                terms.append(f"{c}")
            elif e == 1:
                terms.append(f"{c}*t")
            else:
                terms.append(f"{c}*t^{e}")
        return " + ".join(terms)


_ZERO = LaurentPolynomial.zero()


# Dense polynomials over Z, used inside the gcd and elimination code: a
# list of coefficients from t^0 upward with a nonzero last entry; [] is zero.

def _mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _combine(x: int, a: list[int], y: int, shift: int,
             b: list[int]) -> list[int]:
    """x*a - y*t^shift*b."""
    out = [x * c for c in a]
    out.extend([0] * (len(b) + shift - len(out)))
    for j, c in enumerate(b, shift):
        out[j] -= y * c
    while out and out[-1] == 0:
        out.pop()
    return out


def _quotient(a: list[int], b: list[int]):
    """a / b over Z[t] if b divides a exactly, else None (b nonzero)."""
    if not a:
        return []
    db, lb = len(b) - 1, b[-1]
    if len(a) <= db:
        return None
    a = a[:]
    q = [0] * (len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        c, r = divmod(a[i + db], lb)
        if r:
            return None
        q[i] = c
        if c:
            for j, bc in enumerate(b, i):
                a[j] -= c * bc
    return q if not any(a) else None


def divide_exact(a: LaurentPolynomial, b: LaurentPolynomial):
    """a / b in Z[t, t^-1] if the division is exact, else None."""
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    q = _quotient(list(a.coeffs), list(b.coeffs))
    return None if q is None else LaurentPolynomial(a.low - b.low, q)


def _poly_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by nonzero b: a becomes lc(b)*a - lc(a)*t^s*b
    until its degree is below b's."""
    while len(a) >= len(b):
        a = _combine(b[-1], a, a[-1], len(a) - len(b), b)
    return a


def _primitive(a: list[int]) -> list[int]:
    """a divided by its content, leading coefficient positive."""
    g = int_gcd(*a)
    if a and a[-1] < 0:
        g = -g
    return [c // g for c in a] if g not in (0, 1) else a


def _primitive_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two nonzero dense polynomials over Z (the gcd over
    Q[t] scaled to a primitive polynomial with positive leading
    coefficient), by a primitive Euclidean remainder sequence."""
    pa, pb = _primitive(a), _primitive(b)
    while pb:
        # make each remainder primitive to keep coefficients small
        pa, pb = pb, _primitive(_poly_pseudo_rem(pa, pb))
    return _primitive(pa)


def laurent_gcd(a: LaurentPolynomial, b: LaurentPolynomial):
    """Gcd in Z[t, t^-1] (defined up to units): gcd of contents times the
    primitive gcd, computed by a primitive Euclidean remainder sequence."""
    if a.is_zero:
        return b.normalized()
    if b.is_zero:
        return a.normalized()
    content = int_gcd(a.content(), b.content())
    prim = _primitive_gcd(list(a.coeffs), list(b.coeffs))
    return LaurentPolynomial(0, [content * c for c in prim]).normalized()


def _from_terms(terms: dict[int, int]) -> LaurentPolynomial:
    """The Laurent polynomial with the given exponent -> coefficient map."""
    if not terms:
        return _ZERO
    low = min(terms)
    return LaurentPolynomial(low, [terms.get(e, 0)
                                   for e in range(low, max(terms) + 1)])


def fox_derivative(w: Word, g: int, weights) -> LaurentPolynomial:
    """Fox derivative of a word by generator g (1-based), specialized at the
    meridian map x -> t^weights[x].

    Satisfies d(x)/dx = 1, d(x^-1)/dx = -t^-w(x), and the product rule
    d(uv)/dx = du/dx + phi(u)*dv/dx with phi(u) = t^(weighted exponent sum).
    """
    images = {x: (weights[x],) for x in map(abs, w)}
    ngen = max(images, default=0)
    terms, _, _ = _FoxProgram([images.get(x, (0,)) for x in range(
        1, ngen + 1)], (), (w,)).walk(w)
    return _from_terms(terms[g] if 0 < g < len(terms) else {})


def alexander_matrix(p):
    """Fox-derivative matrix of a presentation, or of a straight-line
    program, under the all-meridians map (every generator to t), as a list
    of rows: one row per relator, one column per generator.

    The program is read node by node (`rewriting._FoxProgram`, along one
    axis): the derivatives of each inner node are composed from those of
    its letters, and each relator's row from those of its letters, so no
    word is expanded.  A presentation is a program with no inner nodes,
    whose relators are read letter by letter."""
    ngen = len(p.generators)
    program = _FoxProgram(((1,),) * ngen, p.nodes, p.relators)
    decoded: dict[int, list[LaurentPolynomial]] = {}  # packed -> columns

    def row(r: Word) -> list[LaurentPolynomial]:
        terms, packed, _ = program.walk(r)
        row = [_from_terms(t) for t in terms[1:]]
        if not packed:
            return row
        if packed not in decoded:
            entries = program.packing.unpack(packed)
            decoded[packed] = [LaurentPolynomial(program.low, entries[g::ngen])
                               for g in range(ngen)]
        return [e + f for e, f in zip(decoded[packed], row)]
    return [row(r) for r in p.relators]


def _laurent_unit(row: dict[int, LaurentPolynomial]):
    """The first unit +-t^k of a row over Z[t, t^-1], with its inverse."""
    for j, e in row.items():
        if e.is_unit():
            return j, LaurentPolynomial(-e.low, e.coeffs)
    return None


def _det(m: list[list[list[int]]]) -> list[int]:
    """Fraction-free (Bareiss) determinant of a square matrix over Z[t];
    every division is exact."""
    m = [row[:] for row in m]
    n = len(m)
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return []
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k]
        for row in m[k + 1:]:
            for j in range(k + 1, n):
                entry = _combine(1, _mul(row[j], pivot[k]), 1, 0,
                                 _mul(row[k], pivot[j]))
                # the first step divides by 1
                row[j] = _quotient(entry, prev) if k else entry
        prev = pivot[k]
    return [sign * c for c in m[n - 1][n - 1]]


def _lead(row) -> int:
    """The column of the first nonzero entry of a row, or its length."""
    return next((j for j, e in enumerate(row) if e), len(row))


def _minors(rows, size: int):
    """The size x size minors of a matrix over Z[t], up to sign, lazily:
    column subsets outermost, each in lexicographic order.  With the rows
    ordered by their leading columns, a minor whose k-th row leads right
    of its k-th column is 0, since its rows from the k-th on are zero in
    its first k columns, and is skipped."""
    rows = sorted(rows, key=_lead)
    leads = [_lead(row) for row in rows]
    for cols in combinations(range(len(rows[0])), size):
        for subset in combinations(range(len(rows)), size):
            if all(leads[i] <= c for i, c in zip(subset, cols)):
                yield _det([[rows[i][j] for j in cols] for i in subset])


def _divide_content(row: list[list[int]]) -> list[list[int]]:
    """The row divided by the gcd of all its coefficients."""
    g = 0
    for e in row:
        g = int_gcd(g, *e)
        if g == 1:
            return row
    return [[c // g for c in e] for e in row] if g else row


def _echelon(rows: list[list[list[int]]], ncols: int):
    """Row-echelon form over Q[t] of a matrix over Z[t]; returns its nonzero
    rows, at most ncols of them.

    Each step replaces a row r by a*r - b*t^s*p, with p the pivot row of the
    column and a, b nonzero integers, then divides r by its integer content.
    Every step is invertible over Q[t], so no determinantal ideal over Q[t]
    changes."""
    echelon = []
    for j in range(ncols):
        live = [r for r in rows if r[j]]
        rows = [r for r in rows if not r[j]]
        # Euclid on column j: reduce every live row by the one of least
        # degree there until a single row is left with a nonzero entry
        while len(live) > 1:
            live.sort(key=lambda r: len(r[j]))
            pivot, rest = live[0], []
            lead, degree = pivot[j][-1], len(pivot[j])
            for r in live[1:]:
                while len(r[j]) >= degree:
                    g = int_gcd(lead, r[j][-1])
                    x, y = lead // g, r[j][-1] // g
                    shift = len(r[j]) - degree
                    r = _divide_content([_combine(x, e, y, shift, pe)
                                         for e, pe in zip(r, pivot)])
                if r[j]:
                    rest.append(r)
                elif any(r):
                    rows.append(r)
            live = rest + [pivot]
        echelon += live
    return echelon


def elementary_ideal_gcd(rows, cols: int) -> LaurentPolynomial:
    """Gcd of all (cols - 1)-sized minors of a Laurent-polynomial matrix (a
    list of rows, each of cols entries), the minors that generate its first
    elementary ideal; normalized (no t^k factor, positive leading
    coefficient).  Zero if all minors vanish, as for a matrix with no rows.
    A matrix of at most one column has no such minors and raises
    InvalidParameter.

    The unit pivots of `eliminate` over Z[t, t^-1] split off first, each
    lowering the minor size by one.  By Gauss's lemma the gcd over
    Z[t, t^-1] of the minors of the rows left is c*P, with P the primitive
    gcd over Q[t] and c the gcd of the minors' integer contents.  P comes
    from the minors of a row-echelon form over Q[t], which has at most cols
    rows; c from the minors of the rows left themselves, enumerated until
    the gcd is 1 (on the curve presentations, the first nonzero minor
    already has content 1)."""
    size = cols - 1
    if size < 1:
        raise InvalidParameter(
            f"a matrix of {cols} columns has no (cols - 1)-sized minors")
    # bring each nonzero row into Z[t] by the unit +-t^k that makes its
    # entries polynomials, not all divisible by t, with the first nonzero
    # coefficient positive; keep each such row once: a row that is a unit
    # times an earlier one contributes only minors that are units times
    # others, or 0
    unique = {}
    for row in rows:
        nonzero = [e for e in row if e.coeffs]
        if not nonzero:
            continue
        low = min(e.low for e in nonzero)
        sign = 1 if nonzero[0].coeffs[0] > 0 else -1
        unique[tuple(LaurentPolynomial(e.low - low,
                                       [sign * c for c in e.coeffs])
                     for e in row)] = None
    # a unit pivot splits off with its row and column: the size-s minors
    # generate the same ideal as the size-(s - 1) minors of the rows left
    pivots, rest = eliminate([({j: e for j, e in enumerate(row) if e},)
                              for row in unique], _laurent_unit, 0)
    size -= len(pivots)
    if size <= 0:
        return LaurentPolynomial.one()
    # the rows left, each times the t^k that makes it a polynomial row
    used = sorted({j for row in rest for j in row})
    rows = []
    for row in rest:
        low = min(e.low for e in row.values())
        rows.append([[0] * (row[j].low - low) + list(row[j].coeffs)
                     if j in row else [] for j in used])
    echelon = _echelon(rows, len(used))
    if len(echelon) < size:
        return LaurentPolynomial.zero()
    prim = None
    for minor in _minors(echelon, size):
        if minor:
            prim = minor if prim is None else _primitive_gcd(prim, minor)
            if len(prim) == 1:
                break
    content = 0
    for minor in _minors(rows, size):
        content = int_gcd(content, *minor)
        if content == 1:
            break
    prim = _primitive(prim)
    return LaurentPolynomial(0, [content * c for c in prim]).normalized()


def alexander_polynomial(p):
    """First-elementary-ideal gcd of the Fox matrix under the all-meridians
    map, with up to two factors of (t - 1) removed.  p is a presentation or
    a straight-line program (`alexander_matrix`).

    Returns (polynomial, number of (t - 1) factors stripped).
    """
    g = elementary_ideal_gcd(alexander_matrix(p), len(p.generators))
    t_minus_1 = LaurentPolynomial(0, (-1, 1))
    stripped = 0
    while stripped < 2 and not g.is_zero and not g.is_unit():
        q = divide_exact(g, t_minus_1)
        if q is None:
            break
        g = q
        stripped += 1
    return g.normalized(), stripped


def cyclotomic_target(n: int) -> LaurentPolynomial:
    """The expected curve Alexander polynomial for odd n,
    (t^{n-1} - t^{n-2} + ... + t^2 - t + 1)^3, normalized as
    `alexander_polynomial` returns it."""
    return cyclotomic_base(n) ** 3


def cyclotomic_base(n: int) -> LaurentPolynomial:
    """t^{n-1} - t^{n-2} + ... - t + 1 (alternating signs, n odd)."""
    if n < 3 or n % 2 == 0:
        raise InvalidParameter("n must be odd and >= 3")
    coeffs = [(-1) ** k for k in range(n)]
    return LaurentPolynomial(0, coeffs)
