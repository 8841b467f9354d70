"""Exact integer linear algebra: exponent matrices, Smith normal form,
abelian invariants of finitely presented groups.

All arithmetic uses Python's arbitrary-precision integers, so no pivoting
sequence can overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameter
from .words import Presentation


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

    def copy(self) -> "IntegerMatrix":
        return IntegerMatrix(self.rows, self.cols, self.data)

    def determinant(self) -> int:
        """Fraction-free (Bareiss) determinant; square matrices only."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        a = [row[:] for row in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class AbelianStructure:
    """Invariant-factor form of a finitely generated abelian group."""

    free_rank: int
    torsion: tuple[int, ...]  # d1 | d2 | ..., each >= 2

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def relator_matrix(p: Presentation) -> IntegerMatrix:
    """Exponent-sum matrix: one row per relator, one column per generator."""
    m = IntegerMatrix(len(p.relators), len(p.generators))
    for i, r in enumerate(p.relators):
        row = m.data[i]
        for x in r:
            row[abs(x) - 1] += 1 if x > 0 else -1
    return m


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


def _diagonalize(m: IntegerMatrix, track: bool):
    """Smith-form elimination of m: returns (diagonal, U, V) with the
    diagonal d1 | d2 | ... of length min(rows, cols), di >= 0.  With
    `track`, U and V are the unimodular row and column transforms (as row
    lists) with U*m*V diagonal; without it they are None and never built.

    Pivot strategy: smallest nonzero absolute value in the remaining block.
    Once pivot k is done, row k and column k are zero off the diagonal, so
    the operations of later steps touch only the block from (k, k) on.
    """
    rows, cols = m.rows, m.cols
    a = [row[:] for row in m.data]
    u = IntegerMatrix.identity(rows).data if track else None
    v = IntegerMatrix.identity(cols).data if track else None
    k = 0

    def row_op(i, j, q):  # row_i -= q * row_j
        ai, aj = a[i], a[j]
        for c in range(k, cols):
            ai[c] -= q * aj[c]
        if track:
            u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in a[k:]:
            r[i] -= q * r[j]
        if track:
            for r in v:
                r[i] -= q * r[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        if track:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a[k:]:
            r[i], r[j] = r[j], r[i]
        if track:
            for r in v:
                r[i], r[j] = r[j], r[i]

    n = min(rows, cols)
    while k < n:
        piv = _smallest_pivot(a, k, rows, cols)
        if piv is None:
            break
        pi, pj = piv
        if pi != k:
            swap_rows(pi, k)
        if pj != k:
            swap_cols(pj, k)
        # clear row and column k; remainders can reappear, so loop
        while True:
            dirty = False
            for i in range(k + 1, rows):
                if a[i][k]:
                    q = a[i][k] // a[k][k]
                    row_op(i, k, q)
                    if a[i][k]:  # nonzero remainder becomes the new pivot
                        swap_rows(i, k)
                        dirty = True
            for j in range(k + 1, cols):
                if a[k][j]:
                    q = a[k][j] // a[k][k]
                    col_op(j, k, q)
                    if a[k][j]:
                        swap_cols(j, k)
                        dirty = True
            if not dirty:
                break
        # enforce divisibility of the remaining block by the pivot; a unit
        # pivot divides everything
        pivot = a[k][k]
        if abs(pivot) > 1:
            bad = next((i for i in range(k + 1, rows)
                        if any(x % pivot for x in a[i][k + 1:])), None)
            if bad is not None:
                row_op(k, bad, -1)  # add row i to row k, then redo column k
                continue
        if pivot < 0:
            a[k][k] = -pivot
            if track:
                u[k] = [-x for x in u[k]]
        k += 1
    return [a[i][i] for i in range(n)], u, v


def smith_normal_form(m: IntegerMatrix):
    """Return (D, U, V) with D = U*m*V, U and V unimodular, D diagonal with
    d1 | d2 | ... and di >= 0."""
    diagonal, u, v = _diagonalize(m, track=True)
    d = IntegerMatrix(m.rows, m.cols)
    for i, x in enumerate(diagonal):
        d.data[i][i] = x
    return (d, IntegerMatrix(m.rows, m.rows, u),
            IntegerMatrix(m.cols, m.cols, v))


def invariant_factors(m: IntegerMatrix) -> list[int]:
    """Nonzero diagonal entries of the Smith form."""
    diagonal, _, _ = _diagonalize(m, track=False)
    return [x for x in diagonal if x]


def abelianization(p: Presentation) -> AbelianStructure:
    """Abelian invariants of the group: Smith form of the exponent matrix."""
    factors = invariant_factors(relator_matrix(p))
    free_rank = len(p.generators) - len(factors)
    torsion = tuple(d for d in factors if d != 1)
    return AbelianStructure(free_rank, torsion)


def commutator_abelianization_rank(n: int) -> int:
    """Free rank of H1 of the kernel of the total-degree map to Z/2n.

    Rewrites the reduced presentation of the curve group along the map
    sending every generator to 1 mod 2n (the abelianization for odd n) and
    returns the free rank of the kernel presentation's abelianization.  For
    odd n this equals the degree of the curve's Alexander polynomial, 3(n-1).
    """
    if n < 3 or n % 2 == 0:
        raise InvalidParameter("n must be odd and >= 3")
    from .presentations import presentation_pi1_reduced
    from .rewriting import AbelianTarget, subgroup_presentation

    p = presentation_pi1_reduced(n)
    target = AbelianTarget(moduli=(2 * n,), generators=p.generators,
                           images=tuple((1,) for _ in p.generators))
    kernel = subgroup_presentation(p, target, [], simplify_budget=0)
    return abelianization(kernel).free_rank
