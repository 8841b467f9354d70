import itertools
import random
from fractions import Fraction

import pytest

from cuspidal import geometry
from cuspidal.abelian import independent_rows
from cuspidal.errors import InvalidParameter, NotSingular, SplittingFailure
from cuspidal.geometry import (PrimeField, ProjectivePoint, TernaryForm,
                               _form_vanishes_on_line, _lines_on, _plane_rows,
                               _zeros_in_plane, choose_prime, curve_form,
                               graded_lex_monomials, is_prime, milnor_ratio,
                               singular_points, singular_points_scan,
                               splitting_check_n2, superabundance,
                               superabundance_multi, tangent_cone_rank,
                               tangent_cone_ranks)


def all_projective_points(field):
    """Every point of P^2(F_p), one normalized ProjectivePoint each."""
    p = field.p
    for y in range(p):
        for z in range(p):
            yield ProjectivePoint((1, y, z), field)
    for z in range(p):
        yield ProjectivePoint((0, 1, z), field)
    yield ProjectivePoint((0, 0, 1), field)


class DenseForm:
    """Reference ternary form: a coefficient for every graded-lex monomial,
    evaluated with three pow calls per monomial."""

    def __init__(self, degree, field, coeffs=None):
        self.degree = degree
        self.field = field
        self.monomials = graded_lex_monomials(degree)
        coeffs = coeffs or {}
        self.coeffs = {m: coeffs.get(m, 0) % field.p for m in self.monomials}

    def evaluate(self, pt):
        coords = pt.coords if isinstance(pt, ProjectivePoint) else pt
        p = self.field.p
        total = 0
        for (a, b, c), coef in self.coeffs.items():
            if coef:
                total += coef * pow(coords[0], a, p) * pow(coords[1], b, p) \
                    * pow(coords[2], c, p)
        return total % p

    def partial(self, var):
        out = {}
        for mono, coef in self.coeffs.items():
            e = mono[var]
            if coef and e:
                new = list(mono)
                new[var] = e - 1
                key = tuple(new)
                out[key] = (out.get(key, 0) + coef * e) % self.field.p
        return DenseForm(self.degree - 1, self.field, out)

    def multiply(self, other):
        out = {}
        p = self.field.p
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                if c1 and c2:
                    key = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                    out[key] = (out.get(key, 0) + c1 * c2) % p
        return DenseForm(self.degree + other.degree, self.field, out)

    def nonzero(self):
        return {m: c for m, c in self.coeffs.items() if c}


def dense_curve_form(n, field):
    return DenseForm(2 * n, field, curve_form(n, field).coeffs)


def scan_oracle(n, field):
    """The exhaustive scan point by point: a ProjectivePoint for every point
    of P^2(F_p), F_n and its partials by the dense evaluator."""
    form = dense_curve_form(n, field)
    partials = [form.partial(v) for v in range(3)]
    return [pt for pt in all_projective_points(field)
            if form.evaluate(pt) == 0
            and all(d.evaluate(pt) == 0 for d in partials)]


def row_scan_zeros(forms, field):
    """The common zeros of the forms, row by row as _plane_rows gives them:
    on each row the first form is a polynomial in z, evaluated at every z
    from per-exponent power tables; the other forms are evaluated only
    where the first vanishes."""
    p = field.p
    first, rest = forms[0], forms[1:]
    power = {e: [pow(v, e, p) for v in range(p)]
             for e in {e for mono in first.coeffs for e in mono}}
    found = []
    for x, y, zs in _plane_rows(p):
        by_z = {}
        for (a, b, c), coef in first.coeffs.items():
            by_z[c] = by_z.get(c, 0) + coef * power[a][x] * power[b][y]
        values = [0] * p
        for c, coef in by_z.items():
            values = [v + coef * w for v, w in zip(values, power[c])]
        found += [(x, y, z) for z in zs if values[z] % p == 0
                  and all(f.evaluate((x, y, z)) == 0 for f in rest)]
    return found


def line_test_points(line, p):
    """The five test points of a normalized line: the first, (-b, 1, 0), or
    (1, 0, 0) when a = 0, that _lines_on evaluates once for its row, and
    the four that _form_vanishes_on_line walks on from it."""
    a, b, c = line
    if a:
        base, direction = (-b, 1, 0), (-c, 0, 1)
    elif b:
        base, direction = (1, 0, 0), (0, -c, 1)
    else:
        base, direction = (1, 0, 0), (0, 1, 0)
    return [tuple((x + s * y) % p for x, y in zip(base, direction))
            for s in range(5)]


def five_point_test(form, line, field):
    """Whether the quartic vanishes at all five test points of the line."""
    return all(form.evaluate(pt) == 0 for pt in line_test_points(line, field.p))


def all_lines_on(form, field):
    """Every line of P^2(F_p) tested with the five-point test, sorted."""
    return sorted(line for line in plane_triples(field.p)
                  if five_point_test(form, line, field))


def graded_lex_rank_rows(n, field):
    """The superabundance evaluation matrix, dense: one row per singular
    point, one column per degree-(n - 1) monomial in graded-lex order."""
    p = field.p
    monos = graded_lex_monomials(n - 1)
    matrix = []
    for pt in singular_points(n, field):
        px, py, pz = ([pow(v, e, p) for e in range(n)] for v in pt.coords)
        matrix.append([px[a] * py[b] * pz[c] % p for a, b, c in monos])
    return matrix


def graded_lex_independent_rows(matrix, p):
    """The rows independent of the rows before them, by forward elimination
    with the columns in their given order: each row is reduced by the pivot
    rows from its leading column on."""
    pivots, found = {}, []
    for i, dense in enumerate(matrix):
        row = {j: v % p for j, v in enumerate(dense) if v % p}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(row[lead], p - 2, p)
                pivots[lead] = {j: v * inv % p for j, v in row.items()}
                found.append(i)
                break
            f = row[lead]
            for j, v in pivot.items():
                w = (row.get(j, 0) - f * v) % p
                if w:
                    row[j] = w
                else:
                    del row[j]
    return found


def sparse_rows(matrix):
    """The rows as dicts column -> entry, keeping the entries that are
    multiples of p but not the zeros."""
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


def gauss_jordan_rank(matrix, p):
    """Rank mod p by full Gauss-Jordan elimination on dense rows."""
    m = [row[:] for row in matrix]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col] % p), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] % p:
                f = m[i][col]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def filtered_linear_forms(field):
    """Every nonzero triple in lexicographic order whose first nonzero
    entry is 1."""
    for coeffs in itertools.product(range(field.p), repeat=3):
        if any(coeffs) and next(x for x in coeffs if x) == 1:
            yield coeffs


def random_coeffs(rng, degree, p, density):
    """Sparse random coefficients, some of them multiples of p."""
    return {m: rng.choice((rng.randrange(-3 * p, 3 * p), p, -2 * p))
            for m in graded_lex_monomials(degree) if rng.random() < density}


def test_is_prime():
    primes_below_60 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                       47, 53, 59]
    assert [m for m in range(2, 60) if is_prime(m)] == primes_below_60
    assert is_prime(10**9 + 7)
    assert not is_prime((10**9 + 7) * (10**9 + 9))
    assert not is_prime(561)  # Carmichael number


def test_choose_prime_congruence():
    for n in (2, 3, 5, 7):
        f = choose_prime(n, 10_000)
        assert f.p >= 10_000 and f.p % (2 * n) == 1


def test_choose_prime_is_the_smallest_admissible_prime():
    # oracle: try every integer from the minimum up
    def smallest(n, minimum):
        p = max(minimum, 3)
        while not (p % (2 * n) == 1 and is_prime(p)):
            p += 1
        return p

    for n in range(2, 12):
        for minimum in list(range(0, 120, 7)) + [10_000, 10**6]:
            assert choose_prime(n, minimum).p == smallest(n, minimum)


def test_graded_lex_monomials():
    monos = graded_lex_monomials(2)
    assert len(monos) == 6
    assert monos[0] == (2, 0, 0)
    assert all(sum(m) == 2 for m in monos)


def test_projective_point_normalization():
    f = PrimeField(7)
    pt = ProjectivePoint((2, 4, 6), f)
    assert pt.coords[0] == 1
    pt2 = ProjectivePoint((0, 3, 5), f)
    assert pt2.coords[1] == 1


@pytest.mark.parametrize("n,p", [(2, 5), (3, 7), (3, 13), (4, 17), (7, 197),
                                 (9, 307)])
def test_singular_points_match_exhaustive_scan(n, p):
    f = PrimeField(p)
    built = singular_points(n, f)
    scanned = singular_points_scan(n, f)
    assert len(built) == 3 * n
    assert sorted(pt.coords for pt in built) == \
        sorted(pt.coords for pt in scanned)


# admissible primes (p = 1 mod 2n), then two where the locus is smaller
@pytest.mark.parametrize("n,p", [(2, 5), (3, 13), (5, 31), (7, 29),
                                 (3, 11), (4, 7)])
def test_scan_matches_pointwise_oracle(n, p):
    f = PrimeField(p)
    scanned = [pt.coords for pt in singular_points_scan(n, f)]
    assert scanned == [pt.coords for pt in scan_oracle(n, f)]
    if (p - 1) % (2 * n):
        assert len(scanned) < 3 * n
    else:
        assert len(scanned) == 3 * n


def test_zeros_in_plane_matches_pointwise_oracle():
    rng = random.Random(7)
    kinds = {"x divides": 0, "vanishes at [0:0:1]": 0, "zero form": 0}
    for _ in range(240):
        field = PrimeField(rng.choice((2, 3, 5, 7, 11, 13)))
        forms = []
        for _ in range(rng.randint(1, 3)):
            degree = rng.randint(0, 6)
            coeffs = random_coeffs(rng, degree, field.p, rng.random())
            kind = rng.randrange(4)
            if kind == 0 and degree:
                # a multiple of x vanishes on the line x = 0
                coeffs = {m: c for m, c in coeffs.items() if m[0]}
                kinds["x divides"] += 1
            elif kind == 1 and degree:
                coeffs.pop((0, 0, degree), None)
                kinds["vanishes at [0:0:1]"] += 1
            elif kind == 2:
                coeffs = {m: field.p * rng.randint(-2, 2) for m in coeffs}
                kinds["zero form"] += 1
            forms.append((TernaryForm(degree, field, coeffs),
                          DenseForm(degree, field, coeffs)))
        want = [pt.coords for pt in all_projective_points(field)
                if all(d.evaluate(pt) == 0 for _, d in forms)]
        assert _zeros_in_plane([s for s, _ in forms], field) == want
    assert min(kinds.values()) >= 40


def test_zeros_in_plane_matches_row_scan():
    # forms without z, with a z-exponent gcd above 1 and with coefficients
    # that are multiples of p, over fields where z -> z^d is and is not one
    # to one; at p = 197 one form, not the zero form, since the forms after
    # the first are evaluated point by point wherever the first vanishes
    rng = random.Random(19)
    kinds = {"no z": 0, "z-gcd above 1": 0, "multiples of p": 0}
    for _ in range(150):
        field = PrimeField(rng.choice((2, 3, 5, 13, 197)))
        p = field.p
        forms = []
        for _ in range(rng.randint(1, 3) if p < 197 else 1):
            degree = rng.randint(0, 8 if p < 197 else 6)
            coeffs = random_coeffs(rng, degree, p, rng.random())
            kind = rng.randrange(4)
            if kind == 0:
                coeffs = {m: c for m, c in coeffs.items() if not m[2]}
                kinds["no z"] += 1
            elif kind == 1:
                d = rng.choice((2, 3, 4, 6))
                coeffs = {m: c for m, c in coeffs.items() if m[2] % d == 0}
                coeffs[(0, degree % d, degree - degree % d)] = 1
                kinds["z-gcd above 1"] += 1
            elif kind == 2:
                coeffs = {m: p * rng.randint(-2, 2) for m in coeffs}
                coeffs[(degree, 0, 0)] = rng.randint(1, p - 1)
                kinds["multiples of p"] += 1
            if p == 197 and not any(c % p for c in coeffs.values()):
                coeffs[(0, 0, degree)] = 1
            forms.append(TernaryForm(degree, field, coeffs))
        assert _zeros_in_plane(forms, field) == row_scan_zeros(forms, field)
    assert min(kinds.values()) >= 30


def test_sparse_form_matches_dense_reference():
    rng = random.Random(11)
    for _ in range(200):
        field = PrimeField(rng.choice((2, 3, 5, 13, 10_009)))
        p = field.p
        d1, d2 = rng.randint(0, 5), rng.randint(0, 5)
        c1 = random_coeffs(rng, d1, p, rng.random())
        c2 = random_coeffs(rng, d2, p, rng.random())
        s1, s2 = TernaryForm(d1, field, c1), TernaryForm(d2, field, c2)
        r1, r2 = DenseForm(d1, field, c1), DenseForm(d2, field, c2)
        assert s1.coeffs == r1.nonzero()
        for var in range(3):
            assert s1.partial(var).coeffs == r1.partial(var).nonzero()
        assert s1.multiply(s2).coeffs == r1.multiply(r2).nonzero()
        for _ in range(5):
            pt = tuple(rng.randrange(p) for _ in range(3))
            assert s1.evaluate(pt) == r1.evaluate(pt)
    f = PrimeField(5)
    with pytest.raises(InvalidParameter):
        TernaryForm(2, f, {(1, 0, 0): 1})


def random_matrix(rng, p):
    rows, cols = rng.randint(0, 8), rng.randint(0, 8)
    m = [[rng.randrange(-p, 2 * p) if rng.random() < 0.5 else 0
          for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        kind = rng.randrange(5)
        if kind == 0:
            m[i] = [0] * cols
        elif kind == 1 and i:
            m[i] = m[rng.randrange(i)][:]
        elif kind == 2 and i:
            # a combination of earlier rows, shifted by multiples of p
            a, b = rng.randrange(i), rng.randrange(i)
            s, t = rng.randrange(p), rng.randrange(p)
            m[i] = [s * x + t * y + p * rng.randint(-1, 1)
                    for x, y in zip(m[a], m[b])]
    return m


def first_independent_rows(matrix, p):
    """The rows that raise the Gauss-Jordan rank of the rows before them."""
    ranks = [gauss_jordan_rank(matrix[:i], p) for i in range(len(matrix) + 1)]
    return [i for i in range(len(matrix)) if ranks[i + 1] > ranks[i]]


def test_rank_mod_p_matches_gauss_jordan():
    # superabundance takes the number of rows found; the rows are sparse,
    # with entries that are multiples of p left in
    rng = random.Random(13)
    shapes = set()
    for p in (2, 3, 13, 10_009, 2**61 - 1):
        for _ in range(80):
            m = random_matrix(rng, p)
            rows = sparse_rows(m)
            found = independent_rows(rows, p)
            assert rows == sparse_rows(m)  # not consumed
            assert len(found) == gauss_jordan_rank(m, p)
            assert found == first_independent_rows(m, p)
            shapes.add((len(m) == 0, bool(m) and not m[0]))
        for rows in ([], [{}], [{}, {}, {}], [{0: 0, 1: 0, 2: 0}],
                     [{0: p, 1: 2 * p}]):
            assert independent_rows(rows, p) == []
    assert shapes == {(True, False), (False, True), (False, False)}


def test_rank_does_not_depend_on_the_column_order():
    # relabelling the columns, and listing each row's entries in another
    # order, keeps the rows found
    rng = random.Random(17)
    for p in (2, 13, 10_009):
        for _ in range(40):
            m = random_matrix(rng, p)
            label = list(range(len(m[0]) if m else 0))
            rng.shuffle(label)
            relabelled = []
            for row in sparse_rows(m):
                entries = [(label[j], v) for j, v in row.items()]
                rng.shuffle(entries)
                relabelled.append(dict(entries))
            assert independent_rows(relabelled, p) == \
                first_independent_rows(m, p)


@pytest.mark.parametrize("n", [2, 3, 5, 7, 9])
def test_gradient_vanishes_at_constructed_points(n):
    for minimum in (100, 1000, 10_000):
        f = choose_prime(n, minimum)
        form = curve_form(n, f)
        partials = [form.partial(v) for v in range(3)]
        for pt in singular_points(n, f):
            assert form.evaluate(pt) == 0
            assert all(d.evaluate(pt) == 0 for d in partials)


def test_tangent_cone_ranks():
    for n, expected in ((2, 2), (3, 1), (5, 1), (7, 1), (9, 1)):
        f = choose_prime(n, 100)
        ranks = {tangent_cone_rank(pt, n, f) for pt in singular_points(n, f)}
        assert ranks == {expected}


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_tangent_cone_ranks_build_the_curve_once_per_call(monkeypatch, n):
    f = choose_prime(n, 100)
    pts = singular_points(n, f)
    want = [tangent_cone_rank(pt, n, f) for pt in pts]
    built = []
    build = geometry.curve_form

    def counting(n, field):
        built.append(n)
        return build(n, field)

    monkeypatch.setattr(geometry, "curve_form", counting)
    assert tangent_cone_ranks(pts, n, f) == want
    assert built == [n]
    assert tangent_cone_ranks([], n, f) == []


def test_tangent_cone_rank_rejects_smooth_point():
    f = choose_prime(3, 100)
    smooth = ProjectivePoint((1, 1, 1), f)
    form = curve_form(3, f)
    if form.evaluate(smooth) != 0 or any(
            form.partial(v).evaluate(smooth) != 0 for v in range(3)):
        with pytest.raises(NotSingular):
            tangent_cone_rank(smooth, 3, f)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 15, 25, 31, 41, 61])
def test_superabundance(n):
    rep = superabundance_multi(n)
    assert rep.s == 3
    assert rep.h0 == (n - 3) * (n - 2) // 2
    assert rep.prime >= 10_000


def test_superabundance_matches_dense_graded_lex_matrix(monkeypatch):
    # the sparse rows are the dense graded-lex evaluation matrix's nonzero
    # entries, and ranking them fewest-touched-column-first keeps the rows
    # the graded-lex elimination keeps
    ranked = []

    def record(rows, p):
        ranked.append(([dict(row) for row in rows], independent_rows(rows, p)))
        return ranked[-1][1]

    monkeypatch.setattr(geometry, "independent_rows", record)
    for n in range(3, 42, 2):
        field = choose_prime(n, 100)
        dense = graded_lex_rank_rows(n, field)
        rep = superabundance(n, field)
        rows, found = ranked.pop()
        assert rows == sparse_rows(dense)
        assert found == graded_lex_independent_rows(dense, field.p)
        rank = len(found)
        assert (rep.rank, rep.h0, rep.s) == \
            (rank, n * (n + 1) // 2 - rank, 3 * n - rank)


def test_superabundance_prime_independence():
    for n in (3, 5):
        f1 = choose_prime(n, 10_000)
        f2 = choose_prime(n, f1.p + 1)
        r1, r2 = superabundance(n, f1), superabundance(n, f2)
        assert (r1.s, r1.h0) == (r2.s, r2.h0)


def test_superabundance_primes_must_be_distinct():
    # a repeated prime would check one prime against itself
    with pytest.raises(InvalidParameter, match="distinct"):
        superabundance_multi(3, [19, 19, 19])
    with pytest.raises(InvalidParameter, match="distinct"):
        superabundance_multi(3, [19, 31, 19])
    # a single prime is allowed
    assert superabundance_multi(3, [19]) == superabundance(3, PrimeField(19))


def test_superabundance_needs_a_prime():
    # no prime is a usage error, not a disagreement across primes
    with pytest.raises(InvalidParameter, match="at least one prime"):
        superabundance_multi(3, [])


def test_superabundance_rejects_even_n():
    with pytest.raises(InvalidParameter):
        superabundance(4, choose_prime(4, 100))


def test_milnor_ratio_values_and_limit():
    assert milnor_ratio(3) == Fraction(1, 2)
    assert milnor_ratio(11) == Fraction(15, 22)
    for n in (4, 10, 100, 10**4, 10**6):
        r = milnor_ratio(n)
        assert r == Fraction(3 * (n - 1), 4 * n)
        assert abs(r - Fraction(3, 4)) < Fraction(1, n)


@pytest.mark.parametrize("p", [13, 17])
def test_quartic_splits_into_four_lines(p):
    rep = splitting_check_n2(PrimeField(p))
    assert len(rep.linear_forms) == 4
    assert len(set(rep.linear_forms)) == 4
    assert len(set(rep.intersection_points)) == 6


def plane_triples(p):
    """The triples of _plane_rows, in the order the rows give them."""
    return [(x, y, z) for x, y, zs in _plane_rows(p) for z in zs]


@pytest.mark.parametrize("p", [5, 13, 17, 29])
def test_normalized_linear_forms_match_filter(p):
    # the normalized coefficient triples of the lines are the points of the
    # dual plane, so the plane's rows list them too
    forms = sorted(plane_triples(p))
    assert forms == list(filtered_linear_forms(PrimeField(p)))
    assert len(forms) == p * p + p + 1


def scan_vanishes_on_line(form, line, field):
    """Oracle: test the form at every point of P^2(F_p) on the line."""
    a, b, c = line
    p = field.p
    pts = []
    for pt in all_projective_points(field):
        x, y, z = pt.coords
        if (a * x + b * y + c * z) % p == 0:
            pts.append(pt)
    return all(form.evaluate(pt) == 0 for pt in pts)


@pytest.mark.parametrize("p", [5, 13, 17])
def test_line_test_matches_full_scan(p):
    # five points of a line decide whether the quartic F_2 contains it; at
    # p = 5 a line has only six points
    field = PrimeField(p)
    form = curve_form(2, field)
    lines = sorted(plane_triples(p))
    found = [ln for ln in lines if five_point_test(form, ln, field)]
    assert found == [ln for ln in lines
                     if scan_vanishes_on_line(form, ln, field)]
    assert len(found) == 4
    assert splitting_check_n2(field).linear_forms == tuple(found)


def product_of_lines(lines, field):
    form = TernaryForm(0, field, {(0, 0, 0): 1})
    for a, b, c in lines:
        form = form.multiply(TernaryForm(
            1, field, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c}))
    return form


@pytest.mark.parametrize("p", [5, 13, 17, 29, 37, 101])
def test_lines_on_matches_all_lines_filter(p):
    # a row of lines is skipped when the quartic does not vanish at the
    # row's shared first test point; at p = 5 a line has only six points
    field = PrimeField(p)
    form = curve_form(2, field)
    want = all_lines_on(form, field)
    assert _lines_on(form, field) == want
    assert splitting_check_n2(field).linear_forms == tuple(want)


def test_lines_on_random_quartics_matches_all_lines_filter():
    # products of random lines, rows with a = 0 among them, and a random
    # form of the remaining degree
    rng = random.Random(23)
    field = PrimeField(13)
    triples = plane_triples(13)
    for _ in range(40):
        k = rng.randint(0, 4)
        lines = [rng.choice(triples) for _ in range(k)]
        rest = TernaryForm(4 - k, field, random_coeffs(rng, 4 - k, 13, 0.7))
        form = product_of_lines(lines, field).multiply(rest)
        found = _lines_on(form, field)
        assert found == all_lines_on(form, field)
        if form.coeffs:
            assert set(lines) <= set(found)


@pytest.mark.parametrize("p", [13, 29])
def test_lines_on_needs_all_five_test_points(p):
    # a product of four lines, each through one of four of a line's five
    # test points and a point off the line, vanishes at those four points
    # and nowhere else on the line
    rng = random.Random(p)
    field = PrimeField(p)
    triples = plane_triples(p)
    for line in rng.sample(triples, 10):
        points = line_test_points(line, p)
        for missing in range(5):
            factors = []
            for x1, y1, z1 in points[:missing] + points[missing + 1:]:
                x2, y2, z2 = rng.choice(
                    [q for q in triples
                     if sum(a * b for a, b in zip(line, q)) % p])
                factors.append((y1 * z2 - z1 * y2, z1 * x2 - x1 * z2,
                                x1 * y2 - y1 * x2))
            form = product_of_lines(factors, field)
            assert not scan_vanishes_on_line(form, line, field)
            assert line not in _lines_on(form, field)


def test_splitting_fails_without_four_lines(monkeypatch):
    # the square of the smooth conic x^2 + y^2 + z^2 contains no line
    field = PrimeField(13)
    conic = TernaryForm(2, field, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    monkeypatch.setattr(geometry, "curve_form",
                        lambda n, f: conic.multiply(conic))
    with pytest.raises(SplittingFailure, match="found 0$"):
        splitting_check_n2(field)


def test_splitting_fails_on_concurrent_lines(monkeypatch):
    # four lines through [0:0:1] meet in one point, not in six
    field = PrimeField(13)
    lines = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 12, 0)]
    monkeypatch.setattr(geometry, "curve_form",
                        lambda n, f: product_of_lines(lines, f))
    with pytest.raises(SplittingFailure,
                       match="6 distinct intersection points, found 1$"):
        splitting_check_n2(field)


@pytest.mark.parametrize("lines", [
    # their product lacks F_2's first monomial x^4
    [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)],
    # their product has x^4 with F_2's coefficient, and differs elsewhere
    [(1, 0, 1), (1, 1, 0), (1, 2, 3), (1, 5, 7)],
])
def test_splitting_fails_when_the_lines_are_not_the_factors(monkeypatch,
                                                             lines):
    monkeypatch.setattr(geometry, "_lines_on",
                        lambda form, field: sorted(lines))
    with pytest.raises(SplittingFailure, match="does not match F_2$"):
        splitting_check_n2(PrimeField(13))


def test_splitting_requires_1_mod_4():
    with pytest.raises(InvalidParameter):
        splitting_check_n2(PrimeField(7))


def test_n2_singular_locus_is_line_intersections():
    # the 6 singular points of the quartic are exactly the 6 pairwise
    # intersections of its 4 linear components
    f = PrimeField(13)
    rep = splitting_check_n2(f)
    sing = sorted(pt.coords for pt in singular_points(2, f))
    assert sorted(rep.intersection_points) == sing
