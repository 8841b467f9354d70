"""Exact integer linear algebra: exponent matrices, Smith normal form,
abelian invariants of finitely presented groups.

All arithmetic uses Python's arbitrary-precision integers, so no pivoting
sequence can overflow.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from math import gcd

from ._record import Record
from .errors import InvalidParameter
from .rewriting import AbelianTarget, SchreierSystem
from .words import Word


class IntegerMatrix:
    """Dense integer matrix, row-major."""

    def __init__(self, rows: int, cols: int, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[0] * cols for _ in range(rows)]
        else:
            self.data = [list(row) for row in data]
            if len(self.data) != rows or any(len(r) != cols for r in self.data):
                raise ValueError("data shape does not match rows x cols")

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        m = cls(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    @classmethod
    def from_rows(cls, rows) -> "IntegerMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, rows)

    def __mul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = IntegerMatrix(self.rows, other.cols)
        for i in range(self.rows):
            row = self.data[i]
            for k, a in enumerate(row):
                if a:
                    orow = other.data[k]
                    orow_out = out.data[i]
                    for j in range(other.cols):
                        orow_out[j] += a * orow[j]
        return out

    def __eq__(self, other):
        return (isinstance(other, IntegerMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self):
        return f"IntegerMatrix({self.rows}x{self.cols})"

    def determinant(self) -> int:
        """Determinant of a square matrix, by `_bareiss`."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        rank, minor = _bareiss(self.data)
        return minor if rank == self.rows else 0


def _bareiss(rows) -> tuple[int, int]:
    """(r, minor): the rank r of the matrix with the given integer rows and
    its last pivot, a nonzero r x r minor (1 when r = 0), by fraction-free
    elimination with row swaps (Bareiss, Math. Comp. 22, 1968); a column
    with no pivot is skipped.  Signed by the swaps, the minor of a
    nonsingular square matrix is its determinant."""
    a = [list(row) for row in rows]
    ncols = len(a[0]) if a else 0
    sign, prev, k = 1, 1, 0
    for c in range(ncols):
        i = next((i for i in range(k, len(a)) if a[i][c]), None)
        if i is None:
            continue
        if i != k:
            a[k], a[i] = a[i], a[k]
            sign = -sign
        pivot = a[k]
        for row in a[k + 1:]:
            x = row[c]
            for j in range(c + 1, ncols):
                row[j] = (row[j] * pivot[c] - x * pivot[j]) // prev
            row[c] = 0
        prev = pivot[c]
        k += 1
    return k, sign * prev


class AbelianStructure(Record):
    """Invariant-factor form of a finitely generated abelian group."""

    __slots__ = ("free_rank", "torsion")

    free_rank: int
    torsion: tuple[int, ...]  # d1 | d2 | ..., each >= 2

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def _exponent_sums(w: Word, sums) -> dict[int, int]:
    """The nonzero exponent sums, generator column -> sum, of the word w
    over symbols whose own sums are sums[symbol - 1]."""
    row: dict[int, int] = {}
    for x, k in Counter(w).items():
        for j, e in sums[abs(x) - 1].items():
            row[j] = row.get(j, 0) + (k * e if x > 0 else -k * e)
    return {j: e for j, e in row.items() if e}


def _smallest_pivot(a, k, rows, cols):
    best = None
    for i in range(k, rows):
        for j in range(k, cols):
            v = a[i][j]
            if v and (best is None or abs(v) < best[0]):
                best = (abs(v), i, j)
                if best[0] == 1:  # nothing smaller can follow
                    return i, j
    return None if best is None else (best[1], best[2])


def _diagonalize(m: IntegerMatrix, modulus: int = 0):
    """Smith-form elimination of m: returns (diagonal, U, V) with the
    diagonal d1 | d2 | ... of length min(rows, cols), di >= 0.  Without a
    modulus, U and V are the unimodular row and column transforms (as row
    lists) with U*m*V diagonal, built by the row and column operations in
    identity blocks to the right of m and below it.

    Each round moves the least nonzero absolute value of the block from
    (k, k) on to (k, k), then reduces column k once by floor quotients of
    that pivot and, if no remainder is left there, row k.  If a remainder
    is left in column k or row k, or the pivot does not divide the rest of
    the block and the fix adds a row to row k, the next round re-picks.  A remainder is less than the
    pivot in absolute value, so the least entry of the block falls within
    two rounds of any round that does not finish pivot k, and the loop
    ends.  Re-picking the least entry each round, instead of running Euclid
    on one row and column, is the pivot rule Havas and Majewski ("Integer
    matrix diagonalization", J. Symbolic Comput. 24, 1997) discuss against
    entry explosion.  Once pivot k is done, row k and column k are zero off
    the diagonal, so the operations of later steps touch only the block
    from (k, k) on, and the blocks beside it.

    With a nonzero `modulus` D, entries are kept as residues mod D, of
    absolute value at most D/2, and the diagonal is returned as gcd(di, D):
    the Smith form of L + D*Z^cols, the lattice spanned by the rows of m
    and of D*I, with L the row lattice of m.  Each gcd(di, D) divides all
    later entries and D, hence the next one.  Transforms taken mod D are
    not unimodular over Z, so U and V are then None and never built.
    """
    rows, cols = m.rows, m.cols
    k = 0
    half = modulus // 2

    def residue(x):
        x %= modulus
        return x - modulus if x > half else x

    if modulus:
        a = [[residue(x) for x in row] for row in m.data]
    else:  # m with the identity to its right, over the identity
        a = [row + unit for row, unit in
             zip(m.data, IntegerMatrix.identity(rows).data)]
        a += IntegerMatrix.identity(cols).data

    def row_op(i, j, q, support):  # row_i -= q * row_j, row_j 0 off support
        ai, aj = a[i], a[j]
        for c in support:
            x = ai[c] - q * aj[c]
            ai[c] = residue(x) if modulus else x

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in a[k:]:
            r[i] -= q * r[j]
            if modulus:
                r[i] = residue(r[i])

    n = min(rows, cols)
    while k < n:
        piv = _smallest_pivot(a, k, rows, cols)
        if piv is None:
            break
        pi, pj = piv
        if pi != k:
            a[pi], a[k] = a[k], a[pi]
        if pj != k:
            for r in a[k:]:
                r[pj], r[k] = r[k], r[pj]
        pivot = a[k][k]
        support = [c for c, x in enumerate(a[k]) if x]
        for i in range(k + 1, rows):
            if a[i][k]:
                row_op(i, k, a[i][k] // pivot, support)
        if any(a[i][k] for i in range(k + 1, rows)):
            continue  # a remainder, less than |pivot|, is the next pivot
        for j in range(k + 1, cols):
            if a[k][j]:
                col_op(j, k, a[k][j] // pivot)
        if any(a[k][k + 1:cols]):
            continue
        # enforce divisibility of the remaining block by the pivot; a unit
        # pivot divides everything
        if abs(pivot) > 1:
            bad = next((i for i in range(k + 1, rows)
                        if any(x % pivot for x in a[i][k + 1:cols])), None)
            if bad is not None:  # add row bad to row k, and go round again
                row_op(k, bad, -1, [c for c, x in enumerate(a[bad]) if x])
                continue
        if pivot < 0:
            a[k] = [-x for x in a[k]]
        k += 1
    diagonal = [a[i][i] for i in range(n)]
    if modulus:
        return [gcd(d, modulus) for d in diagonal], None, None
    return diagonal, [row[cols:] for row in a[:rows]], a[rows:]


def smith_normal_form(m: IntegerMatrix):
    """Return (D, U, V) with D = U*m*V, U and V unimodular, D diagonal with
    d1 | d2 | ... and di >= 0."""
    diagonal, u, v = _diagonalize(m)
    d = IntegerMatrix(m.rows, m.cols)
    for i, x in enumerate(diagonal):
        d.data[i][i] = x
    return (d, IntegerMatrix(m.rows, m.rows, u),
            IntegerMatrix(m.cols, m.cols, v))


def eliminate(orbits, unit, modulus: int):
    """Sparse forward elimination over Z, F_p or Z[t, t^-1] (the front end
    of Havas, Holt and Rees, "Recognizing badly presented Z-modules", 1993).

    The rows come in orbits, each an iterable of rows, read in turn; a row
    is a dict column -> nonzero entry, and is consumed; with a nonzero
    modulus the entries are residues mod it.  Each row in turn is reduced
    by the pivots found so far, in the order found (`_reduce`).  If
    unit(row) then gives (column, inverse of the entry there), the row
    becomes the next pivot, scaled so that that entry is 1.  A pivot has no
    entry in an earlier pivot's column, so a reduced row has none in any:
    the pivot block is unit upper triangular, and column operations split
    each pivot off.  A row left with no unit waits, and is reduced at the
    end by the pivots found after it.

    A first row of an orbit that reduces to zero lies in the span of the
    pivots (back-substitution through the unit triangular block gives the
    coefficients), and the rest of its orbit is not read.  The caller
    vouches that this drops nothing from the row lattice: an orbit whose
    first row lies in the lattice of the rows read before it lies there
    whole.  An orbit of one row, as over F_p and Z[t, t^-1], vouches for
    nothing more.  Returns the index of the orbit of each pivot row, in
    the order found, and the rows left, none of them empty."""
    pivots: list[tuple[int, dict]] = []  # (column, row)
    found = []
    waiting = []  # (row, pivots found before it)
    for i, orbit in enumerate(orbits):
        first = True
        for row in orbit:
            for col, pivot in pivots:
                if col in row:
                    _reduce(row, pivot, col, modulus)
            scale = unit(row)
            if scale is not None:
                col, inverse = scale
                if inverse != 1:
                    row = {j: x * inverse % modulus if modulus
                           else x * inverse for j, x in row.items()}
                pivots.append((col, row))
                found.append(i)
            elif row:
                waiting.append((row, len(pivots)))
            elif first:
                break
            first = False
    rest = []
    for row, seen in waiting:
        for col, pivot in pivots[seen:]:
            if col in row:
                _reduce(row, pivot, col, modulus)
        if row:
            rest.append(row)
    return found, rest


def _reduce(row: dict, pivot: dict, col, modulus: int) -> None:
    """row -= row[col] * pivot, in place, for a pivot row with a 1 at col;
    entries mod the modulus unless it is 0.  The modulus is tested once, not
    per entry: the loop over Z is the Smith front end's inner loop."""
    f = row[col]
    if modulus:
        for j, v in pivot.items():
            w = (row.get(j, 0) - f * v) % modulus
            if w:
                row[j] = w
            else:
                del row[j]
        return
    zero = f - f  # 0 of the ring: an int, or a LaurentPolynomial
    for j, v in pivot.items():
        w = row.get(j, zero) - f * v
        if w:
            row[j] = w
        else:
            del row[j]


def _integer_unit(row: dict[int, int]):
    """The first +-1 of an integer row, with its inverse (itself)."""
    return next(((j, x) for j, x in row.items() if x == 1 or x == -1), None)


def independent_rows(rows, p: int) -> list[int]:
    """The indices of the rows independent mod the prime p of the rows
    before them: the first basis of the row space in row order.

    The rows are sparse, dicts column -> entry (not consumed); a column is
    any hashable key.  The columns are renumbered fewest-touched-first (by
    the rows with the key, ties in the order the rows first use them),
    since a pivot in a column few rows touch leaves few rows to update;
    row independence does not depend on the column order, so neither do
    the indices.  `eliminate` mod p pivots each row at its least column."""
    touched = Counter(chain.from_iterable(rows))  # column -> rows with it
    order = {j: k for k, j in enumerate(sorted(touched, key=touched.get))}

    def least(row):  # the least column, with its entry's inverse mod p
        lead = min(row, default=None)
        return None if lead is None else (lead, pow(row[lead], p - 2, p))

    found, _ = eliminate(
        [({order[j]: v % p for j, v in row.items() if v % p},)
         for row in rows], least, p)
    return found


def invariant_factors(orbits) -> list[int]:
    """Nonzero diagonal entries of the Smith form of the matrix with the
    rows of the given orbits: iterables of sparse rows (dicts column ->
    nonzero entry, consumed), each closed as `eliminate` requires, so
    that the rest of an orbit whose first row reduces to zero is skipped.

    The unit pivots of `eliminate` over Z give the leading 1s.  The rows
    left, restricted to the columns they still use, form the dense
    remainder, with row lattice L in Z^cols; `_bareiss` gives its rank r
    and a nonzero r x r minor D.  The product s1...sr of its invariant
    factors is the gcd of its r x r minors, so it divides D, and so does
    each si.  Hence L + D*Z^cols has invariant factors (s1, ..., sr, D, ...,
    D), and the first r diagonal entries of the elimination modulo |D| are
    s1, ..., sr, every entry bounded by |D|/2 on the way.
    """
    pivots, rest = eliminate(orbits, _integer_unit, 0)
    cols = sorted({j for row in rest for j in row})
    dense = [[row.get(j, 0) for j in cols] for row in rest]
    rank, minor = _bareiss(dense)
    diagonal, _, _ = _diagonalize(IntegerMatrix(len(rest), len(cols), dense),
                                  abs(minor))
    return [1] * len(pivots) + diagonal[:rank]


def abelianization(p) -> AbelianStructure:
    """Abelian invariants of the group: Smith form of the exponent-sum rows,
    one per relator.  p is a presentation or a straight-line program, read
    node by node: a node's exponent sums are the sum of its letters'."""
    ngen = len(p.generators)
    sums = [{j: 1} for j in range(ngen)]
    for node in p.nodes:
        sums.append(_exponent_sums(node, sums))
    factors = invariant_factors([(_exponent_sums(r, sums),)
                                 for r in p.relators])
    return AbelianStructure(ngen - len(factors),
                            tuple(d for d in factors if d != 1))


def kernel_abelianization(p, target) -> AbelianStructure:
    """H1 of the kernel of p ->> target (an AbelianTarget), by abelianized
    Reidemeister-Schreier: the kernel's exponent-sum rows are read off the
    relators' Fox rows (`SchreierSystem.exponent_rows`) and their Smith
    form is taken.  The rows come one orbit per relator, closed under the
    conjugations by the coset representatives, so an orbit whose row at
    coset 0 reduces to zero is dropped after that row.  No kernel
    presentation is built.  p is a presentation or a straight-line
    program, read node by node."""
    system = SchreierSystem(p, target)
    ncols = len(system.generator_names)
    factors = invariant_factors(system.exponent_rows(p.relators))
    return AbelianStructure(ncols - len(factors),
                            tuple(d for d in factors if d != 1))


def total_degree_kernel(p, m: int) -> AbelianStructure:
    """H1 of the kernel of the total-degree map p ->> Z/m, which sends
    every generator to 1, by `kernel_abelianization`; p is a presentation
    or a straight-line program."""
    target = AbelianTarget(moduli=(m,), generators=p.generators,
                           images=tuple((1,) for _ in p.generators))
    return kernel_abelianization(p, target)


def commutator_abelianization_rank(n: int) -> int:
    """Free rank of H1 of the kernel of the total-degree map to Z/2n.

    The kernel of the map sending every generator of the reduced curve
    presentation to 1 mod 2n (the commutator subgroup for odd n, where that
    map is the abelianization), abelianized by `total_degree_kernel`.  The
    relators are read from the straight-line program `curve_program(n)`,
    node by node, so the n^4 or so letters of presentation_pi1_reduced(n)
    are never walked.  For odd n the rank equals the degree of the curve's
    Alexander polynomial, 3(n-1); both read Fox rows, and word-level oracles
    that share no code with the engine check them in the tests.
    """
    if n < 3 or n % 2 == 0:
        raise InvalidParameter("n must be odd and >= 3")
    from .presentations import curve_program

    return total_degree_kernel(curve_program(n), 2 * n).free_rank
