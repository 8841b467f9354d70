from fractions import Fraction

import pytest

from cuspidal.errors import InvalidParameter, NotSingular
from cuspidal.geometry import (PrimeField, ProjectivePoint,
                               _form_vanishes_on_line,
                               _normalized_linear_forms,
                               all_projective_points, choose_prime,
                               curve_form, graded_lex_monomials, is_prime,
                               milnor_ratio, singular_points,
                               singular_points_scan, splitting_check_n2,
                               superabundance, superabundance_multi,
                               tangent_cone_rank)


def test_is_prime():
    primes_below_60 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                       47, 53, 59]
    assert [m for m in range(2, 60) if is_prime(m)] == primes_below_60
    assert is_prime(10**9 + 7)
    assert not is_prime((10**9 + 7) * (10**9 + 9))
    assert not is_prime(561)  # Carmichael number


def test_prime_field_roots():
    f = PrimeField(13)
    # 13 = 1 mod 4: i^2 = -1 has solutions
    roots = f.nth_roots_of(2, 13 - 1)
    assert sorted(roots) == [5, 8]
    assert all(r * r % 13 == 12 for r in roots)


def test_choose_prime_congruence():
    for n in (2, 3, 5, 7):
        f = choose_prime(n, 10_000)
        assert f.p >= 10_000 and f.p % (2 * n) == 1
    f = choose_prime(2, 10, mod4=True)
    assert f.p % 4 == 1


def test_choose_prime_is_the_smallest_admissible_prime():
    # oracle: try every integer from the minimum up
    def smallest(n, minimum, mod4):
        p = max(minimum, 3)
        while not (p % (2 * n) == 1 and (not mod4 or p % 4 == 1)
                   and is_prime(p)):
            p += 1
        return p

    for n in range(2, 12):
        for minimum in list(range(0, 120, 7)) + [10_000, 10**6]:
            for mod4 in (False, True):
                assert choose_prime(n, minimum, mod4=mod4).p == \
                    smallest(n, minimum, mod4)


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


@pytest.mark.parametrize("n,p", [(2, 5), (3, 7), (3, 13), (4, 17)])
def test_singular_points_match_exhaustive_scan(n, p):
    f = PrimeField(p)
    built = singular_points(n, f)
    scanned = singular_points_scan(n, f)
    assert len(built) == 3 * n
    assert sorted(pt.coords for pt in built) == \
        sorted(pt.coords for pt in scanned)


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


def test_tangent_cone_rank_rejects_smooth_point():
    f = choose_prime(3, 100)
    smooth = ProjectivePoint((1, 1, 1), f)
    form = curve_form(3, f)
    if form.evaluate(smooth) != 0 or any(
            form.partial(v).evaluate(smooth) != 0 for v in range(3)):
        with pytest.raises(NotSingular):
            tangent_cone_rank(smooth, 3, f)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_superabundance(n):
    rep = superabundance_multi(n)
    assert rep.s == 3
    assert rep.h0 == (n - 3) * (n - 2) // 2
    assert rep.prime >= 10_000


def test_superabundance_prime_independence():
    for n in (3, 5):
        f1 = choose_prime(n, 10_000)
        f2 = choose_prime(n, f1.p + 1)
        r1, r2 = superabundance(n, f1), superabundance(n, f2)
        assert (r1.s, r1.h0) == (r2.s, r2.h0)


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
    found = [ln for ln in _normalized_linear_forms(field)
             if _form_vanishes_on_line(form, ln, field)]
    assert found == [ln for ln in _normalized_linear_forms(field)
                     if scan_vanishes_on_line(form, ln, field)]
    assert len(found) == 4
    assert splitting_check_n2(field).linear_forms == tuple(found)


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
