import functools
import math
import random
from itertools import chain, combinations

import pytest

from cuspidal import alexander
from cuspidal.alexander import (LaurentPolynomial, alexander_matrix,
                                alexander_polynomial, cyclotomic_base,
                                cyclotomic_target, divide_exact,
                                elementary_ideal_gcd, fox_derivative,
                                laurent_gcd)
from cuspidal.errors import InvalidParameter
from cuspidal.presentations import (derive_pi1_via_rs, oka_quotient,
                                    presentation_G, presentation_G_raw,
                                    presentation_oka, presentation_pi1,
                                    presentation_pi1_reduced,
                                    presentation_zariski3)
from cuspidal.words import Presentation, multiply, reduce_word

T = LaurentPolynomial.monomial(1)
ONE = LaurentPolynomial.one()


def random_poly(rng, maxdeg=4, bound=5):
    coeffs = [rng.randrange(-bound, bound + 1)
              for _ in range(rng.randrange(1, maxdeg + 2))]
    return LaurentPolynomial(rng.randrange(-3, 4), coeffs)


def random_word(rng, ngen=3, maxlen=10):
    return reduce_word(tuple(
        rng.choice([s * g for s in (1, -1) for g in range(1, ngen + 1)])
        for _ in range(rng.randrange(maxlen + 1))))


def phi(w, weights):
    """t^(weighted exponent sum)."""
    e = sum(weights[abs(x)] * (1 if x > 0 else -1) for x in w)
    return LaurentPolynomial.monomial(e)


def test_laurent_arithmetic_basics():
    p = LaurentPolynomial(-1, (1, 0, 2))  # t^-1 + 2t
    q = p * T
    assert q == LaurentPolynomial(0, (1, 0, 2))
    assert (p - p).is_zero
    assert (T ** 3).coeffs == (1,) and (T ** 3).low == 3
    assert LaurentPolynomial(-2, (-1,)).is_unit()
    assert not LaurentPolynomial(0, (2,)).is_unit()


def oracle_add(a, b):
    """The sum, one coefficient at a time on a common exponent range."""
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    low = min(a.low, b.low)
    high = max(a.low + len(a.coeffs), b.low + len(b.coeffs))
    out = [0] * (high - low)
    for i, c in enumerate(a.coeffs):
        out[a.low - low + i] += c
    for i, c in enumerate(b.coeffs):
        out[b.low - low + i] += c
    return LaurentPolynomial(low, out)


def oracle_mul(a, b):
    """The product by the schoolbook double loop."""
    if a.is_zero or b.is_zero:
        return LaurentPolynomial.zero()
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return LaurentPolynomial(a.low + b.low, out)


def oracle_content(a):
    g = 0
    for c in a.coeffs:
        g = math.gcd(g, c)
    return g


def test_laurent_arithmetic_matches_coefficient_loops():
    rng = random.Random(71)
    seen = {"zero": 0, "low differs": 0, "cancels": 0}
    for _ in range(600):
        a = random_poly(rng)
        kind = rng.randrange(4)
        if kind == 0:
            b = LaurentPolynomial.zero()
        elif kind == 1:
            b = -a  # cancels completely
        elif kind == 2:
            # cancels at one end only: shares a's top or bottom terms
            b = LaurentPolynomial(a.low, [-c for c in a.coeffs[:-1]]) \
                if rng.random() < 0.5 else \
                LaurentPolynomial(a.low + 1, [-c for c in a.coeffs[1:]])
        else:
            b = random_poly(rng)
        if rng.random() < 0.5:
            a, b = b, a
        seen["zero"] += a.is_zero or b.is_zero
        seen["low differs"] += a.low != b.low
        seen["cancels"] += (a + b).is_zero and not a.is_zero
        assert a + b == oracle_add(a, b)
        assert a - b == oracle_add(a, -b)
        assert a * b == oracle_mul(a, b)
        assert a.content() == oracle_content(a)
    assert min(seen.values()) >= 100, seen


def test_divide_exact():
    a = (T - ONE) * (T + ONE)
    assert divide_exact(a, T - ONE) == T + ONE
    assert divide_exact(T + ONE, T - ONE) is None
    assert divide_exact(LaurentPolynomial.zero(), T - ONE).is_zero


def test_laurent_gcd_divides_both_and_attains_products():
    rng = random.Random(51)
    for _ in range(200):
        a, b = random_poly(rng), random_poly(rng)
        g = laurent_gcd(a, b)
        if a.is_zero and b.is_zero:
            assert g.is_zero
            continue
        assert divide_exact(a, g) is not None
        assert divide_exact(b, g) is not None
        # common factors survive: gcd(c*a, c*b) is divisible by c
        c = random_poly(rng, maxdeg=2)
        if c.is_zero:
            continue
        g2 = laurent_gcd(a * c, b * c)
        if not (a.is_zero and b.is_zero):
            assert divide_exact(g2, c) is not None


def test_fox_derivative_base_cases():
    w = {1: 1, 2: 1}
    assert fox_derivative((1,), 1, w) == ONE
    assert fox_derivative((-1,), 1, w) == -LaurentPolynomial.monomial(-1)
    assert fox_derivative((2,), 1, w).is_zero
    # d(ab)/da = 1, d(ab)/db = t
    assert fox_derivative((1, 2), 1, w) == ONE
    assert fox_derivative((1, 2), 2, w) == T
    # d(a^2)/da = 1 + t
    assert fox_derivative((1, 1), 1, w) == ONE + T


def test_fox_product_rule():
    rng = random.Random(52)
    weights = {1: 1, 2: 2, 3: 1}
    for _ in range(200):
        u, v = random_word(rng), random_word(rng)
        uv = multiply(u, v)
        for g in (1, 2, 3):
            lhs = fox_derivative(uv, g, weights)
            rhs = fox_derivative(u, g, weights) + \
                phi(u, weights) * fox_derivative(v, g, weights)
            assert lhs == rhs


def test_fox_fundamental_identity():
    # sum_g d(w)/dg * (t^w(g) - 1) = t^w(w) - 1
    rng = random.Random(53)
    weights = {1: 1, 2: 1, 3: 2}
    for _ in range(200):
        w = random_word(rng)
        total = LaurentPolynomial.zero()
        for g in (1, 2, 3):
            tg = LaurentPolynomial.monomial(weights[g]) - ONE
            total = total + fox_derivative(w, g, weights) * tg
        assert total == phi(w, weights) - ONE


def test_trefoil_alexander_polynomial():
    # <a, b | a b a = b a b> has Alexander polynomial t^2 - t + 1
    p = Presentation(("a", "b"), [(1, 2, 1, -2, -1, -2)])
    poly, stripped = alexander_polynomial(p)
    assert poly.normalized() == LaurentPolynomial(0, (1, -1, 1))


def test_unknot_is_trivial():
    # two-generator presentation of Z: a = b
    p = Presentation(("a", "b"), [(1, -2)])
    poly, stripped = alexander_polynomial(p)
    assert poly.is_unit()


def test_torus_2_5_knot():
    # <a, b | (ab)^2 a = b (ab)^2>: Alexander polynomial t^4 - t^3 + t^2 - t + 1
    r = (1, 2, 1, 2, 1, -2, -1, -2, -1, -2)
    p = Presentation(("a", "b"), [r])
    poly, _ = alexander_polynomial(p)
    assert poly.normalized() == LaurentPolynomial(0, (1, -1, 1, -1, 1))


def test_cyclotomic_target_values():
    base3 = cyclotomic_base(3)
    assert base3 == LaurentPolynomial(0, (1, -1, 1))
    assert cyclotomic_target(3) == base3 ** 3
    with pytest.raises(InvalidParameter):
        cyclotomic_base(4)
    with pytest.raises(InvalidParameter):
        cyclotomic_target(2)


@pytest.mark.parametrize("n", [3, 5])
def test_curve_alexander_polynomial(n):
    poly, stripped = alexander_polynomial(presentation_pi1_reduced(n))
    assert poly.normalized() == cyclotomic_target(n).normalized()
    assert stripped <= 2


def one_generator_fox_derivative(w, g, weights):
    """The Fox derivative by g alone, from its own walk of the word: the
    terms of the letters +-g, at the exponent reached before a letter g and
    after a letter g^-1."""
    terms = {}
    exp = 0
    for x in w:
        a = abs(x)
        if x > 0:
            if a == g:
                terms[exp] = terms.get(exp, 0) + 1
            exp += weights[a]
        else:
            exp -= weights[a]
            if a == g:
                terms[exp] = terms.get(exp, 0) - 1
    if not terms:
        return LaurentPolynomial.zero()
    low = min(terms)
    return LaurentPolynomial(low, [terms.get(e, 0)
                                   for e in range(low, max(terms) + 1)])


def test_fox_derivative_matches_one_generator_walk():
    rng = random.Random(58)
    for _ in range(300):
        w = random_word(rng)
        weights = {g: rng.randrange(-3, 4) for g in (1, 2, 3)}
        for g in (0, 1, 2, 3, 4):
            assert fox_derivative(w, g, weights) == \
                one_generator_fox_derivative(w, g, weights), (w, g)


def fox_rows(p, weights):
    """The Fox matrix entry by entry, one walk of the relator each."""
    return [[one_generator_fox_derivative(r, g, weights)
             for g in range(1, len(p.generators) + 1)] for r in p.relators]


FOX_FAMILIES = {
    "G": presentation_G,
    "G-raw": presentation_G_raw,
    "zariski3-stated": functools.partial(presentation_zariski3, "stated"),
    "zariski3-corrected": functools.partial(presentation_zariski3,
                                            "corrected"),
    **{f"{name}({n})": functools.partial(build, n)
       for name, build in (("pi1", presentation_pi1),
                           ("pi1-reduced", presentation_pi1_reduced),
                           ("oka", presentation_oka),
                           ("oka-quotient", lambda n: oka_quotient(n)[1]))
       for n in range(2, 10)},
    # derived(7..9) take 1-4 s each to build
    **{f"derived({n})": functools.partial(derive_pi1_via_rs, n)
       for n in range(2, 7)},
}


@pytest.mark.parametrize("name", FOX_FAMILIES)
def test_alexander_matrix_matches_fox_derivatives(name):
    p = FOX_FAMILIES[name]()
    meridians = {g: 1 for g in range(1, len(p.generators) + 1)}
    assert alexander_matrix(p) == fox_rows(p, meridians)


def test_elementary_ideal_unit_shortcut():
    # a presentation of the trivial group: ideals are the whole ring
    p = Presentation(("a", "b"), [(1,), (2,)])
    m = alexander_matrix(p)
    g = elementary_ideal_gcd(m, 2)
    assert g.is_unit()


def minor_gcd(rows, size):
    """Oracle: gcd of every size x size minor, each a cofactor expansion
    (sub-expansions shared between minors), folded with `laurent_gcd`."""
    acc = LaurentPolynomial.zero()
    if len(rows) < size or len(rows[0]) < size:
        return acc

    @functools.cache
    def det(rs, cs):
        if len(rs) == 1:
            return rows[rs[0]][cs[0]]
        out = LaurentPolynomial.zero()
        for j, c in enumerate(cs):
            a = rows[rs[0]][c]
            if not a.is_zero:
                term = a * det(rs[1:], cs[:j] + cs[j + 1:])
                out = out + term if j % 2 == 0 else out - term
        return out

    minors = (det(rs, cs) for cs in combinations(range(len(rows[0])), size)
              for rs in combinations(range(len(rows)), size))
    for d in minors:
        if d.is_zero or (not acc.is_zero
                         and divide_exact(d, acc) is not None):
            continue  # gcd(acc, d) = acc when acc divides d
        acc = laurent_gcd(acc, d)
        if acc.is_unit():
            break
    return acc.normalized()


def laurent_unit_reduce(rows, size):
    """Unit pre-reduction over Z[t, t^-1]: a unit entry u lets us clear its
    column by subtracting (entry / u) times its row from every other row,
    delete its row and column, and lower the minor size by one."""
    rows = [row[:] for row in rows]
    while size > 0:
        rows = [row for row in rows if any(not e.is_zero for e in row)]
        pivot = next(((i, j) for i, row in enumerate(rows)
                      for j, e in enumerate(row) if e.is_unit()), None)
        if pivot is None:
            break
        i, j = pivot
        prow = rows[i]
        inverse = LaurentPolynomial(-prow[j].low, prow[j].coeffs)
        for k, row in enumerate(rows):
            if k != i and not row[j].is_zero:
                factor = row[j] * inverse
                rows[k] = [e - factor * pe for e, pe in zip(row, prow)]
        rows = [row[:j] + row[j + 1:] for k, row in enumerate(rows) if k != i]
        size -= 1
    return rows, size


def oracle_elementary_ideal_gcd(rows):
    """The minor-enumeration route: drop zero and repeated rows, clear unit
    entries with `laurent_unit_reduce`, then the gcd of all remaining
    minors of size cols - 1."""
    size = len(rows[0]) - 1
    seen, unique = set(), []
    for row in rows:
        key = tuple((e.low, e.coeffs) for e in row)
        if key not in seen and any(not e.is_zero for e in row):
            seen.add(key)
            unique.append(row)
    rows, size = laurent_unit_reduce(unique, size)
    return ONE if size == 0 else minor_gcd(rows, size)


def test_rows_equal_up_to_a_unit_reach_unit_reduction_once(monkeypatch):
    # [t, 0, 1 + 2t] and t times it: the zero entry is the same in both,
    # so only one of them is left to reduce; counted as scripts/bench.py
    # counts distinct_fox_rows, by the rows passed to eliminate
    counted = []
    front_end = alexander.eliminate

    def counting(rows, unit, modulus):
        counted.append(len(rows))
        return front_end(rows, unit, modulus)

    monkeypatch.setattr(alexander, "eliminate", counting)
    row = [T, LaurentPolynomial.zero(), LaurentPolynomial(0, (1, 2))]
    rows = [row, [T * e for e in row]]
    assert elementary_ideal_gcd(rows, 3) == minor_gcd(rows, 2)
    assert elementary_ideal_gcd(rows, 3).is_zero
    assert counted == [1, 1]


CURVE_PRESENTATIONS = {
    "G": presentation_G,
    "G-raw": presentation_G_raw,
    **{f"zariski3-{v}": functools.partial(presentation_zariski3, v)
       for v in ("stated", "corrected")},
    **{f"pi1-reduced({n})": functools.partial(presentation_pi1_reduced, n)
       for n in range(2, 8)},
    **{f"oka({n})": functools.partial(presentation_oka, n)
       for n in range(2, 8)},
    **{f"oka-quotient({n})": functools.partial(lambda n: oka_quotient(n)[1], n)
       for n in range(2, 8)},
    # pi1(n) presents the group of pi1-reduced(n); at n = 6, 7 the oracle
    # alone takes seconds
    **{f"pi1({n})": functools.partial(presentation_pi1, n)
       for n in range(2, 6)},
    **{f"derived({n})": functools.partial(derive_pi1_via_rs, n)
       for n in range(2, 5)},
}


@pytest.mark.parametrize("name", CURVE_PRESENTATIONS)
def test_elementary_ideals_match_minor_enumeration_on_curves(name):
    m = alexander_matrix(CURVE_PRESENTATIONS[name]())
    assert elementary_ideal_gcd(m, len(m[0])) == \
        oracle_elementary_ideal_gcd(m)


def random_entry(rng):
    """A random Laurent polynomial, zero three times in ten."""
    if rng.random() < 0.3:
        return LaurentPolynomial.zero()
    return LaurentPolynomial(rng.randrange(-3, 3), [
        rng.randrange(-3, 4) for _ in range(rng.randrange(1, 4))])


def random_laurent_matrix(rng):
    """Rows of random Laurent polynomials with negative exponents, zero
    entries and rows, repeated rows, a row scaled by 2(t + 1) and rows that
    are combinations of others (rank-deficient)."""
    nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 6)
    rows = [[random_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
    two_t_plus_2 = LaurentPolynomial(0, (2, 2))
    for _ in range(rng.randrange(3)):
        i = rng.randrange(len(rows))
        kind = rng.randrange(4)
        if kind == 0:
            rows[i] = [LaurentPolynomial.zero()] * ncols
        elif kind == 1:
            rows[i] = [two_t_plus_2 * e for e in rows[i]]
        elif kind == 2:
            rows.append(list(rows[i]))
        else:
            j = rng.randrange(len(rows))
            f, g = random_entry(rng), random_entry(rng)
            rows.append([f * a + g * b for a, b in zip(rows[i], rows[j])])
    rng.shuffle(rows)
    return rows


def unit_path_matrix(rng):
    """Rows that take the paths of the unit reduction: a row p with a unit
    entry, after g*p for a random g of two terms, not a unit (a row that
    waits, and that p clears), and before h*p plus a unit in another column
    (whose unit only reduction by p exposes); up to two random rows are
    inserted among them."""
    ncols = rng.randrange(2, 6)
    unit, other = rng.sample(range(ncols), 2)
    p = [random_entry(rng) for _ in range(ncols)]
    p[unit] = LaurentPolynomial(rng.randrange(-2, 3), (rng.choice((-1, 1)),))
    g, h = (LaurentPolynomial(rng.randrange(-2, 2),
                              (rng.choice((-2, -1, 1, 2)),
                               rng.choice((-1, 1, 3))))
            for _ in range(2))
    exposed = [h * e for e in p]
    exposed[other] = exposed[other] + T ** rng.randrange(3)
    rows = [[g * e for e in p], p, exposed]
    for _ in range(rng.randrange(3)):
        rows.insert(rng.randrange(len(rows) + 1),
                    [random_entry(rng) for _ in range(ncols)])
    return rows


def test_elementary_ideals_match_minor_enumeration_on_random_matrices(
        monkeypatch):
    # seen counts the matrices that take each path of the unit reduction
    # (`eliminate` over Z[t, t^-1]): a pivot whose unit only reduction by
    # the pivots before it exposes, a row that waits with no unit and is
    # cleared by a later pivot, and pivots enough to make the gcd 1
    seen = {"unit after reduction": 0, "waiting row cleared": 0,
            "pivots >= size": 0}
    waiting, runs = [], []
    unit, front_end = alexander._laurent_unit, alexander.eliminate

    def recording_unit(row):
        out = unit(row)
        waiting[-1] += out is None and bool(row)
        return out

    def recording(rows, row_unit, modulus):
        # each row comes as an orbit of its own
        given = [dict(row) for row, in rows]
        waiting.append(0)
        pivots, rest = front_end(rows, row_unit, modulus)
        runs.append((any(unit(given[i]) is None for i in pivots),
                     waiting[-1] > len(rest), len(pivots)))
        return pivots, rest

    monkeypatch.setattr(alexander, "_laurent_unit", recording_unit)
    monkeypatch.setattr(alexander, "eliminate", recording)
    rng = random.Random(54)
    compared = 0
    for rows in chain((random_laurent_matrix(rng) for _ in range(520)),
                      (unit_path_matrix(rng) for _ in range(120))):
        ncols = len(rows[0])
        if ncols < 2:
            with pytest.raises(InvalidParameter):
                elementary_ideal_gcd(rows, ncols)
            continue
        # the definition itself: no row dropping, no unit reduction
        gcd = elementary_ideal_gcd(rows, ncols)
        assert gcd == minor_gcd(rows, ncols - 1), rows
        compared += 1
        exposed, cleared, pivots = runs.pop()
        seen["unit after reduction"] += exposed
        seen["waiting row cleared"] += cleared
        if pivots >= ncols - 1:
            seen["pivots >= size"] += 1
            assert gcd == ONE
    assert compared >= 400
    assert min(seen.values()) >= 40, seen


def test_free_group_has_alexander_polynomial_zero():
    # F_2 with no relators and with the trivial relator a a^-1: the Fox
    # matrix has two columns and no nonzero row, so every 1-minor vanishes
    for relators in ([], [(1, -1)]):
        poly, stripped = alexander_polynomial(Presentation(("a", "b"),
                                                           relators))
        assert poly.is_zero and stripped == 0
    assert elementary_ideal_gcd([], 2).is_zero
    # one column has no 0-sized minors, with or without rows
    with pytest.raises(InvalidParameter):
        alexander_polynomial(Presentation(("a",), []))
    with pytest.raises(InvalidParameter):
        elementary_ideal_gcd([[LaurentPolynomial(0, (1, -1))]], 1)


def test_elementary_ideal_content_is_kept():
    # every minor of 2(t + 1) * [[t - 1, 3]] is divisible by 2(t + 1)
    row = [LaurentPolynomial(-1, (-2, 0, 2)), LaurentPolynomial(0, (6, 6))]
    assert elementary_ideal_gcd([row], 2) == LaurentPolynomial(0, (2, 2))
    # every 2 x 2 minor of a matrix of rank 1 vanishes
    wide = row + [LaurentPolynomial(0, (1, 1))]
    t = LaurentPolynomial(1, (1,))
    assert elementary_ideal_gcd([wide, [t * e for e in wide]], 3).is_zero


@pytest.mark.parametrize("n", [7, 9, 11, 13, 15])
def test_curve_alexander_polynomial_reach(n):
    poly, stripped = alexander_polynomial(presentation_pi1_reduced(n))
    assert poly == cyclotomic_target(n).normalized()
    assert poly.degree == 3 * (n - 1)
    assert stripped == 0
