"""Acceptance gate: one test per verification target, at the stated scales.

Each test is self-contained and uses only public API, so a failure localizes
the broken claim rather than a helper.
"""

import random
import time
from fractions import Fraction

import pytest

from cuspidal.abelian import (AbelianStructure, IntegerMatrix, abelianization,
                              commutator_abelianization_rank,
                              smith_normal_form)
from cuspidal.alexander import (LaurentPolynomial, alexander_polynomial,
                                cyclotomic_target, divide_exact,
                                fox_derivative, laurent_gcd)
from cuspidal.geometry import (PrimeField, choose_prime, curve_form,
                               milnor_ratio, singular_points,
                               singular_points_scan, splitting_check_n2,
                               superabundance_multi, tangent_cone_rank)
from cuspidal.homcount import count_homs
from cuspidal.presentations import (derive_pi1_via_rs, map_check, oka_quotient,
                                    presentation_oka, presentation_pi1,
                                    presentation_pi1_reduced,
                                    zariski_iso_candidate)
from cuspidal.words import (Presentation, multiply, reduce_word, simplify,
                            tietze_eliminate)


# --- 1. abelianization dichotomy -------------------------------------------

def test_criterion_1_abelianization_dichotomy():
    for n in (3, 5, 7):
        assert abelianization(presentation_pi1(n)) == \
            AbelianStructure(0, (2 * n,))
    assert abelianization(presentation_pi1(2)) == AbelianStructure(3, ())
    for n in (4, 6, 8):
        assert abelianization(presentation_pi1(n)) == \
            AbelianStructure(3, (n // 2,))


# --- 2. independent derivation by coset rewriting --------------------------

def test_criterion_2_derivation_matches():
    for n in (2, 3, 4):
        derived = derive_pi1_via_rs(n)
        direct = presentation_pi1(n)
        assert abelianization(derived) == abelianization(direct)
        assert count_homs(derived, 3).total == count_homs(direct, 3).total
        assert count_homs(derived, 4).total == count_homs(direct, 4).total


# --- 3. Alexander polynomial equals the cubed cyclotomic factor ------------

def test_criterion_3_alexander_polynomial():
    deadline = time.monotonic() + 600
    for n in (3, 5, 7):
        if n == 7 and time.monotonic() > deadline:
            break
        poly, stripped = alexander_polynomial(presentation_pi1_reduced(n))
        assert stripped <= 2
        assert poly.normalized() == cyclotomic_target(n).normalized(), n


# --- 4. rank of the abelianized commutator subgroup ------------------------

@pytest.mark.parametrize("n", [3, 5])
def test_criterion_4_commutator_rank(n):
    assert commutator_abelianization_rank(n) == 3 * (n - 1)


# --- 5. superabundance over three large primes ------------------------------

@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_criterion_5_superabundance(n):
    rep = superabundance_multi(n)  # three admissible primes >= 10^4
    assert rep.s == 3
    assert rep.h0 == (n - 3) * (n - 2) // 2


# --- 6. singular locus ------------------------------------------------------

def test_criterion_6_singular_locus():
    for n in range(2, 10):
        field = choose_prime(n, 1000)
        pts = singular_points(n, field)
        assert len(pts) == 3 * n
        form = curve_form(n, field)
        partials = [form.partial(v) for v in range(3)]
        for pt in pts:
            assert form.evaluate(pt) == 0
            assert all(d.evaluate(pt) == 0 for d in partials)
        ranks = {tangent_cone_rank(pt, n, field) for pt in pts}
        assert ranks == ({2} if n == 2 else {1})
    for n, p in ((2, 5), (3, 7), (3, 13)):
        field = PrimeField(p)
        assert sorted(pt.coords for pt in singular_points(n, field)) == \
            sorted(pt.coords for pt in singular_points_scan(n, field))


# --- 7. the n=2 curve is four lines -----------------------------------------

@pytest.mark.parametrize("p", [13, 17])
def test_criterion_7_quartic_splitting(p):
    rep = splitting_check_n2(PrimeField(p))
    assert len(set(rep.linear_forms)) == 4
    assert len(set(rep.intersection_points)) == 6


# --- 8. degeneration onto the free product Z/2 * Z/n ------------------------

@pytest.mark.parametrize("n", [3, 5])
def test_criterion_8_oka_quotient(n):
    _, quotient = oka_quotient(n)
    target = presentation_oka(n)
    assert abelianization(quotient) == abelianization(target)
    for k in (3, 4):
        assert count_homs(quotient, k).total == count_homs(target, k).total


# --- 9. correspondence with the 9-cuspidal comparison presentation ----------

def test_criterion_9_comparison_consistent_with_isomorphism():
    rep = map_check(zariski_iso_candidate("corrected"), kmax=4)
    assert rep.source_h1 == AbelianStructure(0, (6,))
    assert rep.target_h1 == AbelianStructure(0, (6,))
    assert rep.h1_isomorphism
    assert rep.triviality.passed
    assert all(a == b for _, a, b in rep.hom_counts)
    assert rep.consistent_with_isomorphism


# --- 10. randomized property suites, >= 200 instances each ------------------

def _random_word(rng, ngen, maxlen=10):
    return tuple(rng.choice([s * g for s in (1, -1)
                             for g in range(1, ngen + 1)])
                 for _ in range(rng.randrange(maxlen + 1)))


def test_criterion_10a_free_reduction_confluence():
    rng = random.Random(101)
    for _ in range(250):
        w = _random_word(rng, 4, 14)
        once = reduce_word(w)
        # reduction is idempotent, removes all adjacent inverse pairs, and
        # is independent of the insertion of cancelling pairs
        assert reduce_word(once) == once
        assert all(once[i] != -once[i + 1] for i in range(len(once) - 1))
        i = rng.randrange(len(w) + 1)
        x = rng.choice((1, -1, 2, -2))
        padded = w[:i] + (x, -x) + w[i:]
        assert reduce_word(padded) == once


def _battery(p):
    return abelianization(p), count_homs(p, 3).total


def test_criterion_10b_tietze_invariance():
    rng = random.Random(102)
    done = 0
    while done < 200:
        ngen = rng.randrange(2, 4)
        relators = [reduce_word(_random_word(rng, ngen, 6))
                    for _ in range(rng.randrange(1, 4))]
        p = Presentation([f"g{i}" for i in range(ngen)], relators)
        before = _battery(p)
        # adjoin a new generator with a defining relator, then drop it again
        extra = reduce_word(_random_word(rng, ngen, 6))
        bigger = Presentation(
            list(p.generators) + ["h"],
            [r for r in p.relators] + [multiply((ngen + 1,),
                                                tuple(-x for x in
                                                      reversed(extra)))])
        assert _battery(bigger) == before
        back = tietze_eliminate(bigger, "h", extra)
        assert _battery(back) == before
        assert _battery(simplify(bigger)) == before
        done += 1


def test_criterion_10c_smith_normal_form_round_trip():
    rng = random.Random(103)
    for _ in range(250):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = IntegerMatrix.from_rows(
            [[rng.randrange(-9, 10) for _ in range(cols)]
             for _ in range(rows)])
        d, u, v = smith_normal_form(m)
        assert abs(u.determinant()) == 1
        assert abs(v.determinant()) == 1
        assert (u * m * v).data == d.data


def test_criterion_10d_fox_calculus_identities():
    rng = random.Random(104)
    weights = {1: 1, 2: 1, 3: 2}
    one = LaurentPolynomial.one()

    def phi(w):
        e = sum(weights[abs(x)] * (1 if x > 0 else -1) for x in w)
        return LaurentPolynomial.monomial(e)

    for _ in range(200):
        u = reduce_word(_random_word(rng, 3))
        v = reduce_word(_random_word(rng, 3))
        for g in (1, 2, 3):
            # product rule
            assert fox_derivative(multiply(u, v), g, weights) == \
                fox_derivative(u, g, weights) + \
                phi(u) * fox_derivative(v, g, weights)
        # fundamental identity
        total = LaurentPolynomial.zero()
        for g in (1, 2, 3):
            tg = LaurentPolynomial.monomial(weights[g]) - one
            total = total + fox_derivative(u, g, weights) * tg
        assert total == phi(u) - one


def test_criterion_10e_laurent_gcd_divides():
    rng = random.Random(105)
    for _ in range(250):
        a = LaurentPolynomial(rng.randrange(-3, 4),
                              [rng.randrange(-5, 6)
                               for _ in range(rng.randrange(1, 6))])
        b = LaurentPolynomial(rng.randrange(-3, 4),
                              [rng.randrange(-5, 6)
                               for _ in range(rng.randrange(1, 6))])
        g = laurent_gcd(a, b)
        if a.is_zero and b.is_zero:
            assert g.is_zero
        else:
            assert divide_exact(a, g) is not None
            assert divide_exact(b, g) is not None


# --- 11. Milnor-number ratio ------------------------------------------------

def test_criterion_11_milnor_ratio():
    for n in range(2, 10**6 + 1):
        assert milnor_ratio(n) == Fraction(3 * (n - 1), 4 * n)
    for n in range(4, 10**4):
        assert abs(milnor_ratio(n) - Fraction(3, 4)) < Fraction(1, n)
    for n in (10**5, 10**6):
        assert abs(milnor_ratio(n) - Fraction(3, 4)) < Fraction(1, n)
