import hashlib
import random

import pytest

from cuspidal.abelian import (AbelianStructure, IntegerMatrix, abelianization,
                              smith_normal_form)
from cuspidal.errors import InvalidParameter
from cuspidal.homcount import count_homs, relator_triviality_check
from cuspidal.presentations import (_pi1_relators, _reduced_words,
                                    derive_pi1_via_rs, long_relator, map_check,
                                    oka_quotient, presentation_G,
                                    presentation_G_raw, presentation_oka,
                                    presentation_pi1, presentation_pi1_reduced,
                                    presentation_zariski3, zariski_aux_datum,
                                    zariski_iso_candidate)
from cuspidal.words import (GroupMap, Presentation, format_presentation,
                            simplify, simplify_with_map, substitute)

from oracles import exponent_vector, relator_matrix
from test_words import oka_inputs


def battery(p: Presentation, kmax: int = 3):
    return (abelianization(p),
            tuple(count_homs(p, k).total for k in range(2, kmax + 1)))


def test_raw_and_simplified_arrangement_groups_agree():
    raw = presentation_G_raw()
    g = presentation_G()
    assert len(raw.generators) == 5 and len(raw.relators) == 9
    assert len(g.generators) == 3 and len(g.relators) == 4
    assert battery(raw, 4) == battery(g, 4)
    # the complement of four curves has first homology of rank 3
    assert abelianization(g) == AbelianStructure(3, ())


def test_pi1_shape():
    for n in (2, 3, 5):
        p = presentation_pi1(n)
        assert len(p.generators) == n * n
        assert len(p.relators) == 2 * n * n + 1
    with pytest.raises(InvalidParameter):
        presentation_pi1(1)


def test_long_relator_has_2n_positive_letters():
    for n in range(2, 9):
        w = long_relator(n)
        assert len(w) == 2 * n
        assert all(x > 0 for x in w)
        # it is a relator of the full presentation
        from cuspidal.words import cyclic_normal_form
        assert cyclic_normal_form(w) in presentation_pi1(n).relators


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_reduced_presentation_is_equivalent(n):
    full = presentation_pi1(n)
    red = presentation_pi1_reduced(n)
    assert len(red.generators) == 4
    assert battery(full) == battery(red)


# sha256 of format_presentation, first 16 hex digits
PI1_REDUCED_TEXT = {
    2: "2ee8acca25465daa", 3: "f27dfb2ab09e6181", 4: "763a717af39bbabe",
    5: "6145d89bf090a7fe", 6: "8f78ce1f6ea14f85", 7: "6e40efa634a32753",
    8: "300fb09a0fda25ed", 9: "667ccac1c6c3056e"}
ZARISKI3_TEXT = {"stated": "f16ee5bdbfdf62bb",
                 "corrected": "dadd3fae2a1e10fa"}
DERIVE_TEXT = {
    2: "4121e92b7caebc53", 3: "8b15b6fd16a16673", 4: "be04fb943ba3cc8c",
    5: "799e57981071a0dd", 6: "d1533c5d0b4ac441"}


def text_digest(p: Presentation) -> str:
    return hashlib.sha256(format_presentation(p).encode()).hexdigest()[:16]


@pytest.mark.parametrize("n", sorted(PI1_REDUCED_TEXT))
def test_pi1_reduced_text_is_pinned(n):
    assert text_digest(presentation_pi1_reduced(n)) == PI1_REDUCED_TEXT[n]


@pytest.mark.parametrize("n", sorted(DERIVE_TEXT))
def test_derive_text_is_pinned(n):
    assert text_digest(derive_pi1_via_rs(n)) == DERIVE_TEXT[n]


@pytest.mark.parametrize("variant", sorted(ZARISKI3_TEXT))
def test_zariski3_text_is_pinned(variant):
    assert text_digest(presentation_zariski3(variant)) == \
        ZARISKI3_TEXT[variant]


@pytest.mark.parametrize("n", range(2, 8))
def test_pi1_reduced_is_the_image_of_pi1(n):
    # substituting the recurrence words into the stored (rotated, possibly
    # inverted) relators of pi1(n) gives the same normalized relators
    full, reduced = presentation_pi1(n), presentation_pi1_reduced(n)
    images, _ = _reduced_words(n)
    m = GroupMap(full, reduced, tuple(images))
    assert Presentation(reduced.generators,
                        [m.apply(r) for r in full.relators]) == reduced


@pytest.mark.parametrize("n", range(2, 16))
def test_definitional_relators_reduce_to_nothing(n):
    # presentation_pi1_reduced writes () for these without substituting;
    # substituting reduces exactly them to nothing
    images, definitions = _reduced_words(n)
    assert len(definitions) == (n + 2) * (n - 2)
    assert {k for k, r in enumerate(_pi1_relators(n))
            if substitute(r, images) == ()} == definitions
    reduced = presentation_pi1_reduced(n).relators
    assert {k for k, r in enumerate(reduced) if r == ()} == definitions


@pytest.mark.parametrize("n,expected", [
    (2, AbelianStructure(3, ())),
    (3, AbelianStructure(0, (6,))),
    (4, AbelianStructure(3, (2,))),
    (5, AbelianStructure(0, (10,))),
    (6, AbelianStructure(3, (3,))),
    (7, AbelianStructure(0, (14,))),
])
def test_abelianization_dichotomy(n, expected):
    assert abelianization(presentation_pi1(n)) == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_derivation_matches_direct_presentation(n):
    derived = derive_pi1_via_rs(n)
    direct = presentation_pi1(n)
    assert abelianization(derived) == abelianization(direct)
    assert count_homs(derived, 3).total == count_homs(direct, 3).total
    if n <= 3:
        assert count_homs(derived, 4).total == count_homs(direct, 4).total
        assert len(derived.generators) <= n * n


@pytest.mark.parametrize("n,expected", [
    (5, AbelianStructure(0, (10,))),
    (6, AbelianStructure(3, (3,))),
])
def test_derivation_reaches_n5_n6(n, expected):
    derived = derive_pi1_via_rs(n)
    assert len(derived.generators) == 4
    assert abelianization(derived) == expected
    assert abelianization(presentation_pi1(n)) == expected
    homs_s4 = {5: 10, 6: 6216}[n]
    assert count_homs(derived, 4).total == homs_s4
    assert count_homs(presentation_pi1_reduced(n), 4).total == homs_s4


@pytest.mark.parametrize("n", range(2, 7))
def test_derivation_is_a_tietze_fixed_point(n):
    # one Tietze pass already stops at a fixed point (an l1_* generator
    # survives it for n >= 3), so a second pass would change nothing
    derived = derive_pi1_via_rs(n)
    again = simplify(derived)
    assert format_presentation(again) == format_presentation(derived)


def test_zariski3_variants():
    stated = presentation_zariski3("stated")
    assert len(stated.generators) == 5
    assert len(stated.relators) == 9
    # the braid relations alone only identify generators in homology
    assert abelianization(stated) == AbelianStructure(1, ())
    corrected = presentation_zariski3("corrected")
    assert len(corrected.generators) == 5
    assert abelianization(corrected) == AbelianStructure(0, (6,))
    with pytest.raises(InvalidParameter):
        presentation_zariski3("other")


def test_zariski_candidate_map_images():
    m = zariski_iso_candidate("corrected")
    by_name = dict(zip(m.source.generators, m.images))
    tgt = m.target
    g2 = (tgt.generator_index("g2"),)
    assert by_name["eps_1_0"] == g2
    assert by_name["eps_0_1"] == (tgt.generator_index("g10"),)
    assert by_name["eps_0_0"][0] == g2[0] and by_name["eps_0_0"][-1] == -g2[0]


def test_zariski_correspondence_battery():
    rep = map_check(zariski_iso_candidate("corrected"), kmax=4)
    assert rep.h1_isomorphism
    assert rep.triviality.passed
    assert all(a == b for _, a, b in rep.hom_counts)
    assert rep.consistent_with_isomorphism
    # the verbatim table does not even have the right first homology
    rep = map_check(zariski_iso_candidate("stated"), kmax=3)
    assert not rep.consistent_with_isomorphism


def test_zariski_aux_datum_consistent():
    src_word, tgt_word = zariski_aux_datum()
    m = zariski_iso_candidate("corrected")
    # the image of the source word must equal g00 in the target: check the
    # difference word is trivial in every small symmetric quotient, as the
    # image of the relator of <x | x>
    combined = m.apply(src_word) + tuple(-x for x in reversed(tgt_word))
    probe = GroupMap(Presentation(("x",), [(1,)]), m.target, (combined,))
    rep = relator_triviality_check(probe, 4)
    assert rep.passed
    assert sorted(rep.homs_checked) == [2, 3, 4]


def test_oka_presentation():
    p = presentation_oka(3)
    assert abelianization(p) == AbelianStructure(0, (6,))
    assert count_homs(p, 3).total == 12
    assert abelianization(presentation_oka(4)) == AbelianStructure(0, (2, 4))


@pytest.mark.parametrize("n", [3, 5])
def test_oka_quotient_matches_free_product(n):
    gm, quotient = oka_quotient(n)
    target = presentation_oka(n)
    assert abelianization(quotient) == abelianization(target)
    for k in (3, 4):
        assert count_homs(quotient, k).total == count_homs(target, k).total
    # the quotient map must kill every source relator
    rep = map_check(gm, kmax=3)
    assert rep.triviality.passed
    assert rep.h1_surjective


def tietze_oka_quotient(n: int):
    """The Oka quotient by Tietze steps, the route before the substitution:
    presentation_pi1(n) plus the relators eps_i_j = eps_i_0 through
    simplify_with_map.  Returns (images of the n^2 generators, quotient)."""
    (raw,) = oka_inputs([n])
    quotient, image_map = simplify_with_map(raw)
    return tuple(image_map[name] for name in raw.generators), quotient


@pytest.mark.parametrize("n", range(2, 16))
def test_oka_quotient_matches_the_tietze_route(n):
    # byte for byte: the substitution leaves simplify_with_map the n
    # generators the n(n - 1) Tietze steps would keep, in the same order
    gm, quotient = oka_quotient(n)
    images, tietze = tietze_oka_quotient(n)
    assert quotient.generators == tietze.generators
    assert quotient.relators == tietze.relators
    assert format_presentation(quotient) == format_presentation(tietze)
    assert gm.images == images
    assert gm.source == presentation_pi1(n)


def in_row_lattice(vector, matrix: IntegerMatrix) -> bool:
    """Is the vector an integer combination of the matrix rows?"""
    d, _, v = smith_normal_form(matrix)
    # row lattice of m = row lattice of D*V^-1; v in L  <=>  v*V in rows(D)
    w = [sum(vector[i] * v.data[i][j] for i in range(matrix.cols))
         for j in range(matrix.cols)]
    n = min(matrix.rows, matrix.cols)
    for j in range(matrix.cols):
        dj = d.data[j][j] if j < n else 0
        if dj == 0:
            if w[j] != 0:
                return False
        elif w[j] % dj != 0:
            return False
    return True


def h1_map_oracle(m: GroupMap) -> tuple[bool, bool]:
    """(well defined, onto) for the map m induces on H1, by row-lattice
    membership in the target's exponent matrix: each source relator's image
    must lie in it, and with the generator images added every unit vector
    must."""
    ngen = len(m.target.generators)
    rt = relator_matrix(m.target)
    well_defined = all(
        in_row_lattice(exponent_vector(m.apply(r), ngen), rt)
        for r in m.source.relators)
    rows = [exponent_vector(img, ngen) for img in m.images] + rt.data
    stacked = IntegerMatrix(len(rows), ngen, rows)
    onto = all(in_row_lattice([int(i == j) for i in range(ngen)], stacked)
               for j in range(ngen))
    return well_defined, onto


def random_word(rng, ngen: int, length: int):
    return tuple(rng.choice((1, -1)) * rng.randint(1, ngen)
                 for _ in range(length))


def random_group_map(rng) -> GroupMap:
    def group(names):
        ngen = rng.randint(1, 3)
        relators = [random_word(rng, ngen, rng.randint(1, 6))
                    for _ in range(rng.randint(0, 3))]
        return Presentation(names[:ngen], relators)

    source, target = group(("a", "b", "c")), group(("x", "y", "z"))
    ngen = len(target.generators)
    images = tuple(random_word(rng, ngen, rng.randint(0, 4))
                   for _ in source.generators)
    return GroupMap(source, target, images)


def test_map_check_h1_matches_row_lattice_oracle():
    rng = random.Random(8)
    outcomes = {}
    for _ in range(1000):
        m = random_group_map(rng)
        rep = map_check(m, kmax=2)
        pair = h1_map_oracle(m)
        assert (rep.h1_well_defined, rep.h1_surjective) == pair, m
        outcomes[pair] = outcomes.get(pair, 0) + 1
    assert len(outcomes) == 4, outcomes


def test_map_check_target_counts_are_count_homs():
    # the target's counts come from the triviality check's search
    rng = random.Random(9)
    for _ in range(150):
        m = random_group_map(rng)
        rep = map_check(m, kmax=3)
        assert rep.hom_counts == tuple(
            (k, count_homs(m.source, k).total, count_homs(m.target, k).total)
            for k in (2, 3)), m
    rep = map_check(zariski_iso_candidate("corrected"), kmax=4)
    assert rep.hom_counts == ((2, 2, 2), (3, 84, 84), (4, 1194, 1194))


def test_map_check_toy_examples():
    z2 = Presentation(("a",), [(1, 1)])
    ident = GroupMap(z2, z2, ((1,),))
    rep = map_check(ident, kmax=3)
    assert rep.consistent_with_isomorphism
    z3 = Presentation(("b",), [(1, 1, 1)])
    bad = GroupMap(z2, z3, ((1,),))
    rep = map_check(bad, kmax=3)
    assert not rep.h1_well_defined
    assert not rep.consistent_with_isomorphism


def test_map_check_needs_a_well_defined_map_for_an_isomorphism():
    # <a, c | a^7, c> -> <b | b^7>, a -> b, c -> b: onto and both H1 are Z/7,
    # but c = 1 maps to b, so the map is no homomorphism; no hom into S_k
    # with k <= 5 sees Z/7, so the finite quotients cannot tell
    source = Presentation(("a", "c"), [(1,) * 7, (2,)])
    target = Presentation(("b",), [(1,) * 7])
    rep = map_check(GroupMap(source, target, ((1,), (1,))), kmax=5)
    assert rep.source_h1 == rep.target_h1 == AbelianStructure(0, (7,))
    assert rep.h1_surjective and rep.triviality.passed
    assert not rep.h1_well_defined
    assert not rep.h1_isomorphism
    assert not rep.consistent_with_isomorphism


def test_hom_counts_reach_k5():
    # |Hom(G, S_5)| for n = 3 from three presentations
    for p in (presentation_pi1(3), presentation_zariski3("corrected"),
              derive_pi1_via_rs(3)):
        assert count_homs(p, 5).total == 7386
    # the derivation match one k further at n = 2 and n = 4
    assert count_homs(derive_pi1_via_rs(2), 5).total == \
        count_homs(presentation_pi1(2), 5).total
    assert count_homs(derive_pi1_via_rs(4), 4).total == 11232
    assert count_homs(presentation_pi1(4), 4).total == 11232


def test_zariski_correspondence_reaches_k5():
    rep = map_check(zariski_iso_candidate("corrected"), kmax=5)
    assert rep.hom_counts[-1] == (5, 7386, 7386)
    assert rep.triviality.homs_checked[5] == 7386
    assert rep.triviality.passed and not rep.triviality.witnesses
    assert rep.consistent_with_isomorphism
