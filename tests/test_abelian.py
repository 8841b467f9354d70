import math
import random
from itertools import combinations

import pytest

from cuspidal.abelian import (AbelianStructure, IntegerMatrix, abelianization,
                              commutator_abelianization_rank,
                              invariant_factors, relator_matrix,
                              smith_normal_form)
from cuspidal.presentations import presentation_pi1_reduced
from cuspidal.rewriting import AbelianTarget, subgroup_presentation
from cuspidal.words import Presentation


def random_matrix(rng, max_dim=5, bound=9):
    rows = rng.randrange(1, max_dim + 1)
    cols = rng.randrange(1, max_dim + 1)
    return IntegerMatrix.from_rows(
        [[rng.randrange(-bound, bound + 1) for _ in range(cols)]
         for _ in range(rows)])


def minors_gcd(m: IntegerMatrix, k: int) -> int:
    """gcd of all k x k minors, the classical determinantal-divisor oracle."""
    g = 0
    for rows in combinations(range(m.rows), k):
        for cols in combinations(range(m.cols), k):
            sub = IntegerMatrix.from_rows(
                [[m.data[i][j] for j in cols] for i in rows])
            g = math.gcd(g, sub.determinant())
    return g


def snf_diagonal_oracle(m: IntegerMatrix):
    """d_k = D_k / D_{k-1} with D_k the k-th determinantal divisor."""
    out = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        dk = minors_gcd(m, k)
        if dk == 0:
            break
        out.append(dk // prev)
        prev = dk
    return out


def is_unimodular(m: IntegerMatrix) -> bool:
    return m.rows == m.cols and abs(m.determinant()) == 1


def test_snf_round_trip_with_unimodular_transforms():
    rng = random.Random(21)
    for _ in range(250):
        m = random_matrix(rng)
        d, u, v = smith_normal_form(m)
        assert is_unimodular(u) and is_unimodular(v)
        assert (u * m * v).data == d.data
        # diagonal, nonnegative, divisibility chain
        diag = [d.data[i][i] for i in range(min(d.rows, d.cols))]
        for i in range(d.rows):
            for j in range(d.cols):
                if i != j:
                    assert d.data[i][j] == 0
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0


def test_invariant_factors_are_the_smith_diagonal():
    # invariant_factors skips the transforms smith_normal_form records; the
    # elimination is the same, so the diagonals agree
    rng = random.Random(23)
    for _ in range(300):
        m = random_matrix(rng)
        d, _, _ = smith_normal_form(m)
        diagonal = [d.data[i][i] for i in range(min(m.rows, m.cols))]
        assert invariant_factors(m) == [x for x in diagonal if x]


def test_invariant_factors_on_a_kernel_presentation():
    # the 510 x 31 exponent matrix behind commutator_abelianization_rank(5)
    p = presentation_pi1_reduced(5)
    target = AbelianTarget(moduli=(10,), generators=p.generators,
                           images=tuple((1,) for _ in p.generators))
    m = relator_matrix(subgroup_presentation(p, target, [],
                                             simplify_budget=0))
    d, u, v = smith_normal_form(m)
    assert (u * m * v).data == d.data
    diagonal = [d.data[i][i] for i in range(min(m.rows, m.cols))]
    assert invariant_factors(m) == [x for x in diagonal if x]
    assert m.cols - len(invariant_factors(m)) == 12


def test_invariant_factors_match_determinantal_divisors():
    rng = random.Random(22)
    for _ in range(120):
        m = random_matrix(rng, max_dim=4, bound=6)
        got = [d for d in invariant_factors(m) if d]
        assert got == [d for d in snf_diagonal_oracle(m) if d != 0]


def test_relator_matrix_shape():
    p = Presentation(("a", "b"), [(1, 1, -2), (2, 2, 2)])
    m = relator_matrix(p)
    assert (m.rows, m.cols) == (2, 2)
    # rows are exponent sums of the stored (cyclically normalized) relators,
    # so each row is the expected one up to a global sign
    assert [[abs(x) for x in row] for row in m.data] == [[2, 1], [0, 3]]


@pytest.mark.parametrize("relators,expected", [
    ([], AbelianStructure(2, ())),
    ([(1, 1)], AbelianStructure(1, (2,))),
    # Z/2 + Z/3 = Z/6 in invariant-factor form
    ([(1, 1), (2, 2, 2)], AbelianStructure(0, (6,))),
])
def test_abelianization_small_cases(relators, expected):
    p = Presentation(("a", "b"), relators)
    assert abelianization(p) == expected


def test_abelianization_drops_unit_factors():
    p = Presentation(("a", "b"), [(1,), (2, 2)])
    assert abelianization(p) == AbelianStructure(0, (2,))


@pytest.mark.parametrize("n", [7, 9])
def test_commutator_abelianization_rank_reach(n):
    # the free rank of the kernel's H1 is the Alexander degree 3(n - 1)
    assert commutator_abelianization_rank(n) == 3 * (n - 1)


def test_commutator_abelianization_rank_rejects_even():
    with pytest.raises(Exception):
        commutator_abelianization_rank(4)


def test_matrix_multiplication_and_determinant():
    a = IntegerMatrix.from_rows([[1, 2], [3, 4]])
    b = IntegerMatrix.from_rows([[0, 1], [1, 0]])
    assert (a * b).data == [[2, 1], [4, 3]]
    assert a.determinant() == -2
    assert IntegerMatrix.identity(3).determinant() == 1
