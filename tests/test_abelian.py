import math
import random
import time
from itertools import chain, combinations

import pytest

from cuspidal import abelian, words
from cuspidal.abelian import (AbelianStructure, IntegerMatrix, _bareiss,
                              _diagonalize, _integer_unit, abelianization,
                              commutator_abelianization_rank, eliminate,
                              invariant_factors, kernel_abelianization,
                              smith_normal_form, total_degree_kernel)
from cuspidal.errors import NotInKernel
from cuspidal.presentations import (curve_program, derive_pi1_via_rs,
                                    presentation_G, presentation_oka,
                                    presentation_pi1,
                                    presentation_pi1_reduced)
from cuspidal.rewriting import AbelianTarget, SchreierSystem
from cuspidal.words import Presentation

from oracles import (check_smith_form, kernel_abelianization_oracle,
                     raw_kernel, relator_matrix, watch_orbits)


def random_matrix(rng, max_dim=5, bound=9):
    rows = rng.randrange(1, max_dim + 1)
    cols = rng.randrange(1, max_dim + 1)
    return IntegerMatrix.from_rows(
        [[rng.randrange(-bound, bound + 1) for _ in range(cols)]
         for _ in range(rows)])


def sparse_rows(m: IntegerMatrix) -> list[dict[int, int]]:
    """The rows of m as eliminate takes them: column -> entry."""
    return [{j: x for j, x in enumerate(row) if x} for row in m.data]


def one_row_orbits(rows) -> list[tuple[dict[int, int]]]:
    """Each row as an orbit of its own, which eliminate reads whole."""
    return [(row,) for row in rows]


def matrix_factors(m: IntegerMatrix) -> list[int]:
    return invariant_factors(one_row_orbits(sparse_rows(m)))


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


def test_snf_round_trip_with_unimodular_transforms():
    rng = random.Random(21)
    for _ in range(250):
        check_smith_form(random_matrix(rng))


@pytest.mark.parametrize("rows,cols", [(20, 8), (30, 13)])
def test_snf_finishes_on_tall_matrices_with_small_entries(rows, cols):
    # many rows of small entries leave remainders in most rounds, where
    # the transforms' entries can blow up; each must finish within the
    # deadline
    rng = random.Random(29)
    for _ in range(5):
        check_smith_form(IntegerMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]))


def test_invariant_factors_are_the_smith_diagonal():
    # invariant_factors skips the transforms smith_normal_form records; the
    # elimination is the same, so the diagonals agree
    rng = random.Random(23)
    for _ in range(300):
        m = random_matrix(rng)
        d, _, _ = smith_normal_form(m)
        diagonal = [d.data[i][i] for i in range(min(m.rows, m.cols))]
        assert matrix_factors(m) == [x for x in diagonal if x]


def test_invariant_factors_on_a_kernel_presentation():
    # the 510 x 31 exponent matrix behind commutator_abelianization_rank(5)
    p = presentation_pi1_reduced(5)
    target = AbelianTarget(moduli=(10,), generators=p.generators,
                           images=tuple((1,) for _ in p.generators))
    m = relator_matrix(raw_kernel(p, target))
    d, u, v = smith_normal_form(m)
    assert (u * m * v).data == d.data
    diagonal = [d.data[i][i] for i in range(min(m.rows, m.cols))]
    assert matrix_factors(m) == [x for x in diagonal if x]
    assert m.cols - len(matrix_factors(m)) == 12


def test_invariant_factors_match_determinantal_divisors():
    rng = random.Random(22)
    for _ in range(120):
        m = random_matrix(rng, max_dim=4, bound=6)
        got = [d for d in matrix_factors(m) if d]
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


def test_abelianization_matches_the_exponent_matrix():
    # the sparse exponent-sum rows against the Smith form of the exponent
    # matrix, counted here letter by letter
    rng = random.Random(25)
    cases = [presentation_pi1(n) for n in (2, 3, 4)] + [
        presentation_pi1_reduced(n) for n in (3, 4, 5)] + [presentation_G()]
    for _ in range(200):
        ngen = rng.randrange(1, 5)
        cases.append(Presentation("abcd"[:ngen], [
            [rng.choice((1, -1)) * rng.randint(1, ngen)
             for _ in range(rng.randrange(1, 9))]
            for _ in range(rng.randrange(0, 5))]))
    for p in cases:
        ngen = len(p.generators)
        m = IntegerMatrix(len(p.relators), ngen, [
            [r.count(g) - r.count(-g) for g in range(1, ngen + 1)]
            for r in p.relators])
        d, _, _ = smith_normal_form(m)
        diagonal = [d.data[i][i] for i in range(min(m.rows, m.cols))]
        assert abelianization(p) == AbelianStructure(
            m.cols - sum(1 for x in diagonal if x),
            tuple(x for x in diagonal if x > 1)), p.relators


def test_abelianization_drops_unit_factors():
    p = Presentation(("a", "b"), [(1,), (2, 2)])
    assert abelianization(p) == AbelianStructure(0, (2,))


@pytest.mark.parametrize("n", [*range(7, 22, 2), 41, 61])
def test_commutator_abelianization_rank_reach(n):
    # the free rank of the kernel's H1 is the Alexander degree 3(n - 1)
    assert commutator_abelianization_rank(n) == 3 * (n - 1)


def dense_factors(m: IntegerMatrix) -> list[int]:
    """The Smith form without the sparse front end or a modulus."""
    diagonal, _, _ = _diagonalize(m)
    return [x for x in diagonal if x]


def total_degree_target(p, m):
    return AbelianTarget((m,), p.generators, tuple((1,) for _ in p.generators))


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_kernel_rows_match_the_kernel_presentation(n):
    p = presentation_pi1_reduced(n)
    target = total_degree_target(p, 2 * n)
    got = kernel_abelianization(p, target)
    assert got == kernel_abelianization_oracle(p, target)
    assert got.free_rank == 3 * (n - 1)


@pytest.mark.parametrize("n", range(2, 12))
def test_total_degree_kernel_for_every_divisor_of_2n(n):
    # every m | 2n, on the presentation and on the program (some of whose
    # orbits end at their first row), against every row of the presentation
    p, program = presentation_pi1_reduced(n), curve_program(n)
    for m in range(1, 2 * n + 1):
        if 2 * n % m == 0:
            oracle = kernel_abelianization_oracle(p, total_degree_target(p, m))
            assert total_degree_kernel(p, m) == oracle, m
            assert total_degree_kernel(program, m) == oracle, m
    if n % 2:
        assert total_degree_kernel(p, 2 * n).free_rank == \
            commutator_abelianization_rank(n)


# orbits: (orbits, orbits read to their end); on G onto Z/3 + Z/2, ending
# an orbit at a later translate that reduces to zero would lose rows, so
# only the first row decides
@pytest.mark.parametrize("build,moduli,images,orbits", [
    (lambda: presentation_pi1_reduced(4), (8,), None, (15, 8)),
    (lambda: presentation_pi1(3), (2, 3), None, (19, 9)),
    (presentation_G, (3, 2), ((1, 0), (0, 1), (1, 1)), (4, 3)),
    (lambda: presentation_oka(3), (6,), ((3,), (2,)), (2, 2)),
    (lambda: presentation_oka(4), (2, 4), ((1, 0), (0, 1)), (2, 2)),
], ids=["pi1-reduced(4)-Z8", "pi1(3)-Z2xZ3", "G-Z3xZ2", "oka(3)-Z6",
        "oka(4)-Z2xZ4"])
def test_kernel_abelianization_on_other_targets(build, moduli, images, orbits,
                                                monkeypatch):
    p = build()
    images = images or tuple((1,) * len(moduli) for _ in p.generators)
    target = AbelianTarget(moduli, p.generators, images)
    counts = watch_orbits(monkeypatch)
    assert kernel_abelianization(p, target) == \
        kernel_abelianization_oracle(p, target)
    assert (counts["orbits"], counts["whole"]) == orbits


def test_the_rank_drops_orbits_after_a_first_row_in_the_lattice(
        monkeypatch):
    # at n = 7, 29 of the 54 distinct relators pass kernel generators, one
    # orbit each; 11 of the orbits end at a first row that reduces to zero
    counts = watch_orbits(monkeypatch)
    assert commutator_abelianization_rank(7) == 18
    assert counts == {"orbits": 29, "whole": 18}


@pytest.mark.parametrize("m", [3, 4, 7])
def test_total_degree_kernel_needs_relators_of_degree_0_mod_m(m):
    # pi1-reduced(5) has relators of total degree 10, so the map to Z/m is a
    # homomorphism only for m dividing 10
    with pytest.raises(NotInKernel):
        total_degree_kernel(presentation_pi1_reduced(5), m)


@pytest.mark.parametrize("n", [3, 5])
def test_total_degree_kernel_refuses_derived_presentations(n):
    # not every generator of the derived presentation is a meridian: some
    # relators have a total degree that is not 0 mod 2n
    with pytest.raises(NotInKernel):
        total_degree_kernel(derive_pi1_via_rs(n), 2 * n)


def test_kernel_abelianization_refuses_a_map_that_is_not_a_homomorphism():
    # Oka(3) = <a, b | a^2, b^3>: a -> 1, b -> 0 in Z/4 sends a^2 to 2
    p = presentation_oka(3)
    with pytest.raises(NotInKernel):
        kernel_abelianization(p, AbelianTarget((4,), p.generators,
                                               ((1,), (0,))))


def test_commutator_rank_builds_no_kernel_presentation(monkeypatch):
    source = presentation_pi1_reduced(7).generators
    built = []
    init, make = words.Presentation.__init__, words.Presentation._make

    def recording(self, generators, relators):
        built.append(tuple(generators))
        init(self, generators, relators)

    def recording_make(cls, generators, relators):
        built.append(tuple(generators))
        return make(generators, relators)

    # a presentation is built through its constructor or, by a builder
    # whose relators are reduced by construction, through _make
    monkeypatch.setattr(words.Presentation, "__init__", recording)
    monkeypatch.setattr(words.Presentation, "_make",
                        classmethod(recording_make))
    assert commutator_abelianization_rank(7) == 18
    # the rows are read off the curve program: no presentation is built,
    # neither the curve's nor one on kernel generators
    assert built == []
    # the recording sees a presentation built either way
    presentation_pi1_reduced(3)
    presentation_G()
    assert built == [source, ("e", "l1", "l2")]


def random_sparse_matrix(rng):
    """A sparse integer matrix with small entries, with zero rows, repeated
    and negated rows, and sometimes every entry scaled so no unit is left."""
    nrows, ncols = rng.randrange(1, 9), rng.randrange(1, 7)
    density = rng.uniform(0.15, 0.6)
    rows = [[rng.choice((-4, -3, -2, -1, 1, 2, 3, 4, 6))
             if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows)]
    for _ in range(rng.randrange(4)):
        row = rows[rng.randrange(len(rows))]
        rows.append(rng.choice(([0] * ncols, list(row), [-x for x in row])))
    if rng.random() < 0.3:
        k = rng.choice((2, 3, 6))
        rows = [[k * x for x in row] for row in rows]
    rng.shuffle(rows)
    return IntegerMatrix.from_rows(rows)


def markowitz_unit(live, where):
    """The (row, column) of a +-1 entry of least Markowitz cost
    (r - 1)(c - 1), with r the entries of its row and c of its column, or
    None if no entry is a unit; the first such entry in row order.  A row
    that cannot cost less than the best so far, even in the column with
    fewest entries, is not scanned."""
    fewest = min(len(w) for w in where if w) - 1
    best = None
    for i, row in live.items():
        length = len(row) - 1
        if best is not None and length * fewest >= best[0]:
            continue
        for j, x in row.items():
            if x == 1 or x == -1:
                cost = length * (len(where[j]) - 1)
                if best is None or cost < best[0]:
                    best = (cost, i, j)
    return None if best is None else best[1:]


def markowitz_unit_pivots(rows):
    """The Markowitz unit-pivot front end, an oracle for `eliminate` over Z:
    while some entry is +-1, the cheapest by Markowitz cost clears its
    whole column, and its row and column split off.  Returns the number of
    pivots and the rows left."""
    live = {i: row for i, row in enumerate(rows) if row}
    ncols = 1 + max((j for row in live.values() for j in row), default=-1)
    where = [set() for _ in range(ncols)]  # column -> rows with an entry
    for i, row in live.items():
        for j in row:
            where[j].add(i)
    ones = 0
    while live:
        pivot = markowitz_unit(live, where)
        if pivot is None:
            break
        i, j = pivot
        prow = live.pop(i)
        for c in prow:
            where[c].discard(i)
        column, where[j] = where[j], set()
        sign = prow.pop(j)
        for k in column:
            row = live[k]
            q = row.pop(j) * sign  # row -= q * prow zeroes column j
            for c, x in prow.items():
                y = row.get(c)
                if y is None:
                    row[c] = -q * x
                    where[c].add(k)
                elif y - q * x:
                    row[c] = y - q * x
                else:
                    del row[c]
                    where[c].discard(k)
            if not row:
                del live[k]
        ones += 1
    return ones, list(live.values())


def markowitz_factors(rows) -> list[int]:
    """invariant_factors with the Markowitz front end (rows consumed): the
    same bounded dense remainder after it."""
    ones, rest = markowitz_unit_pivots(rows)
    cols = sorted({j for row in rest for j in row})
    dense = [[row.get(j, 0) for j in cols] for row in rest]
    rank, minor = _bareiss(dense)
    diagonal, _, _ = _diagonalize(IntegerMatrix(len(rest), len(cols), dense),
                                  abs(minor))
    return [1] * ones + diagonal[:rank]


def kernel_orbits(n):
    """The row orbits and column count of commutator_abelianization_rank(n)."""
    program = curve_program(n)
    system = SchreierSystem(program, total_degree_target(program, 2 * n))
    return system.exponent_rows(program.relators), len(system.generator_names)


def kernel_rows(n):
    """The rows of commutator_abelianization_rank(n), every orbit read
    whole, and the column count."""
    orbits, ncols = kernel_orbits(n)
    return list(chain.from_iterable(orbits)), ncols


def both_front_ends(rows):
    """The invariant factors of the sparse rows (not consumed) through the
    forward front end, each row an orbit of its own, and through the
    Markowitz one."""
    return (invariant_factors(one_row_orbits(dict(r) for r in rows)),
            markowitz_factors([dict(r) for r in rows]))


def test_forward_front_end_matches_the_markowitz_front_end():
    rng = random.Random(64)
    units = 0
    for _ in range(1000):
        m = random_sparse_matrix(rng)
        forward, markowitz = both_front_ends(sparse_rows(m))
        assert forward == markowitz, m.data
        units += 1 in forward
    assert units >= 500


@pytest.mark.parametrize("n", range(9, 22, 2))
def test_forward_front_end_matches_markowitz_on_kernel_rows(n):
    # the commutator-rank rows of the BENCH_kernel.json cases
    rows, ncols = kernel_rows(n)
    forward, markowitz = both_front_ends(rows)
    assert forward == markowitz
    assert ncols - len(forward) == 3 * (n - 1)
    # the orbits as the rank reads them, some dropped after their first row
    assert invariant_factors(kernel_orbits(n)[0]) == forward


@pytest.mark.parametrize("n", range(2, 7))
def test_forward_front_end_matches_markowitz_on_derived_h1(n):
    m = relator_matrix(derive_pi1_via_rs(n))
    forward, markowitz = both_front_ends(sparse_rows(m))
    assert forward == markowitz
    # the derivation matches the direct presentation on H1
    assert AbelianStructure(m.cols - len(forward),
                            tuple(d for d in forward if d != 1)) == \
        abelianization(presentation_pi1(n))


def test_front_end_entries_stay_bounded(monkeypatch):
    # every pivot of forward elimination is a unit row; on the rank rows at
    # n = 21 the pivots hold only 0 and +-1 and no reduced row outgrows the
    # rows' own largest entry (20), and on H1 of pi1(15) the long relator
    # ends as 2n = 30 times one column
    rank_rows, h1 = kernel_rows(21), relator_matrix(presentation_pi1(15))
    assert max(abs(x) for row in rank_rows[0] for x in row.values()) == 20
    start = time.perf_counter()
    assert invariant_factors(one_row_orbits(dict(r) for r in rank_rows[0])) \
        == [1] * 67
    assert matrix_factors(h1) == [1] * 224 + [30]
    assert time.perf_counter() - start < 2
    largest = {"pivot": 0, "row": 0}
    reduce = abelian._reduce

    def recording(row, pivot, col, modulus):
        assert modulus == 0
        reduce(row, pivot, col, modulus)
        largest["pivot"] = max(largest["pivot"], *map(abs, pivot.values()))
        largest["row"] = max(largest["row"], *map(abs, row.values()), 0)

    monkeypatch.setattr(abelian, "_reduce", recording)
    invariant_factors(one_row_orbits(rank_rows[0]))
    assert largest == {"pivot": 1, "row": 20}
    largest.update(pivot=0, row=0)
    matrix_factors(h1)
    assert largest == {"pivot": 1, "row": 30}


def test_unit_pivot_front_end_matches_dense_elimination():
    rng = random.Random(61)
    seen = {"unit pivots": 0, "full column rank": 0, "rank-deficient": 0,
            "units only": 0}
    for _ in range(400):
        m = random_sparse_matrix(rng)
        assert matrix_factors(m) == dense_factors(m), m.data
        pivots, rest = eliminate(one_row_orbits(sparse_rows(m)),
                                 _integer_unit, 0)
        seen["unit pivots"] += len(pivots) > 0
        if not rest:
            seen["units only"] += 1
            continue
        cols = sorted({j for row in rest for j in row})
        rank, _ = _bareiss([[row.get(j, 0) for j in cols] for row in rest])
        if rank == len(cols):
            seen["full column rank"] += 1
        else:
            seen["rank-deficient"] += 1
    # every path of invariant_factors is exercised
    assert min(seen.values()) >= 40, seen


def test_bareiss_minor_is_a_multiple_of_the_factors():
    # the modulus of the dense remainder: s1...sr divides the r x r minor
    rng = random.Random(62)
    deficient = 0
    for _ in range(300):
        m = random_sparse_matrix(rng)
        rank, minor = _bareiss(m.data)
        factors = dense_factors(m)
        assert rank == len(factors), m.data
        assert minor and minor % math.prod(factors) == 0, m.data
        deficient += rank < m.cols
    assert deficient >= 50


def test_invariant_factors_match_the_oracle_on_dense_matrices():
    # dense 1-6 x 1-5 matrices, some with a repeated row and some scaled by
    # 2, 3 or 6; a rank-deficient one is bounded by a minor smaller than the
    # matrix
    rng = random.Random(63)
    deficient = 0
    for _ in range(300):
        cols = rng.randrange(1, 6)
        rows = [[rng.randrange(-9, 10) for _ in range(cols)]
                for _ in range(rng.randrange(1, 7))]
        if rng.random() < 0.4:
            rows.append(list(rng.choice(rows)))
        if rng.random() < 0.3:
            k = rng.choice((2, 3, 6))
            rows = [[k * x for x in row] for row in rows]
        m = IntegerMatrix.from_rows(rows)
        assert matrix_factors(m) == snf_diagonal_oracle(m), m.data
        deficient += _bareiss(m.data)[0] < m.cols
    assert deficient >= 50


def test_dense_remainder_entries_stay_bounded():
    # on the unbounded elimination this reaches a 290-digit pivot and does
    # not finish; its determinantal divisors are all 1
    m = IntegerMatrix.from_rows([
        [-19, 15, -14, 0, 17], [-5, 20, -6, -30, 15], [-18, -15, 0, 0, -8],
        [0, -1, 17, 0, -12], [30, 0, 2, 28, -13], [0, -11, -11, -25, 16]])
    start = time.perf_counter()
    assert matrix_factors(m) == [1, 1, 1, 1, 1]
    assert time.perf_counter() - start < 1
    assert snf_diagonal_oracle(m) == [1, 1, 1, 1, 1]


def test_rank_deficient_dense_remainder_stays_bounded():
    # rows 6 and 8 are equal; with no modulus the elimination does not finish
    m = IntegerMatrix.from_rows([
        [-5, 1, -7, -7, 4, -8, 7, 5], [6, 0, 2, 8, -3, 8, 8, -6],
        [8, -8, -4, 4, -8, -3, 5, -3], [0, -4, -9, -9, -5, -6, 4, 2],
        [2, -8, 6, 7, -7, -6, -9, 0], [4, 5, -9, -1, 0, 0, 2, 8],
        [-5, 4, -1, -7, -6, -8, -8, -3], [4, 5, -9, -1, 0, 0, 2, 8]])
    start = time.perf_counter()
    assert matrix_factors(m) == [1] * 7
    assert time.perf_counter() - start < 1


def test_every_smith_caller_runs_the_front_end(monkeypatch):
    # H1 and the kernel rank each run it exactly once; an AbelianTarget
    # checks that its images generate without a Smith form
    calls = []
    front_end = abelian.eliminate

    def counting(rows, unit, modulus):
        calls.append(modulus)  # 0: over Z
        return front_end(rows, unit, modulus)

    monkeypatch.setattr(abelian, "eliminate", counting)
    abelianization(presentation_pi1(3))
    assert len(calls) == 1
    total_degree_target(presentation_pi1_reduced(3), 6)
    assert len(calls) == 1
    commutator_abelianization_rank(3)
    assert len(calls) == 2
    assert calls == [0, 0]


def test_commutator_abelianization_rank_rejects_even():
    with pytest.raises(Exception):
        commutator_abelianization_rank(4)


def test_matrix_multiplication_and_determinant():
    a = IntegerMatrix.from_rows([[1, 2], [3, 4]])
    b = IntegerMatrix.from_rows([[0, 1], [1, 0]])
    assert (a * b).data == [[2, 1], [4, 3]]
    assert a.determinant() == -2
    assert IntegerMatrix.identity(3).determinant() == 1
