"""Straight-line programs against their expansions.

The Fox rows, the first-elementary-ideal gcd and the kernel's exponent rows
are read off a program node by node; here every relator is also expanded
into a word over the generators, the one place such words are built, and
the answers on the expanded words are the oracle.
"""

import random

import pytest

from cuspidal.abelian import (abelianization,
                              commutator_abelianization_rank,
                              kernel_abelianization, total_degree_kernel)
from cuspidal.alexander import (LaurentPolynomial, alexander_matrix,
                                alexander_polynomial, cyclotomic_target,
                                elementary_ideal_gcd)
from cuspidal.errors import NotInKernel
from cuspidal.packing import Packing
from cuspidal.presentations import curve_program, presentation_pi1_reduced
from cuspidal.rewriting import AbelianTarget, SchreierSystem, _FoxProgram
from cuspidal.words import (Presentation, StraightLineProgram,
                            cyclic_normal_form, invert, reduce_word)

from oracles import (all_rows, check_smith_form, image_of_word,
                     kernel_abelianization_oracle, raw_kernel, relator_matrix,
                     watch_orbits)


def expansion(program):
    """The word over the generators of every symbol, at index symbol - 1,
    each node's letters replaced by the words of the symbols they name."""
    words = [(g,) for g in range(1, len(program.generators) + 1)]
    for node in program.nodes:
        words.append(expand(node, words))
    return words


def expand(w, words):
    return reduce_word([y for x in w
                        for y in (words[x - 1] if x > 0
                                  else invert(words[-x - 1]))])


def expanded_relators(program):
    words = expansion(program)
    return [expand(r, words) for r in program.relators]


def fox_row(w, ngen):
    """The Fox derivatives of a word over the generators by each of them
    under the all-meridians map, one walk of the word per generator."""
    row = []
    for g in range(1, ngen + 1):
        terms = {}
        exp = 0
        for x in w:
            if x > 0:
                if x == g:
                    terms[exp] = terms.get(exp, 0) + 1
                exp += 1
            else:
                exp -= 1
                if -x == g:
                    terms[exp] = terms.get(exp, 0) - 1
        low = min(terms, default=0)
        row.append(LaurentPolynomial(low, [
            terms.get(e, 0) for e in range(low, max(terms, default=-1) + 1)]))
    return row


def exponent_rows_oracle(system, words):
    """The exponent sums of every word rewritten at every coset; zero rows
    dropped, each row kept once up to sign, first nonzero entry positive."""
    ncols = len(system.generator_names)
    rows = []
    for w in dict.fromkeys(words):
        for ci in range(system.target.size):
            row = [0] * ncols
            for x in system.rewrite(w, ci):
                row[abs(x) - 1] += 1 if x > 0 else -1
            if any(row):
                lead = next(x for x in row if x)
                row = tuple(x if lead > 0 else -x for x in row)
                if row not in rows:
                    rows.append(row)
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def random_program(rng, ngen, relators=None):
    """A program on ngen generators with up to five nodes, each a word of up
    to four letters over the symbols before it, and up to four random
    relators unless they are given (as words over the symbols)."""
    nodes = [tuple(rng.choice((1, -1)) * rng.randint(1, ngen + k)
                   for _ in range(rng.randint(1, 4)))
             for k in range(rng.randint(0, 5))]
    nsym = ngen + len(nodes)
    if relators is None:
        relators = [tuple(rng.choice((1, -1)) * rng.randint(1, nsym)
                          for _ in range(rng.randint(0, 6)))
                    for _ in range(rng.randint(1, 4))]
    return StraightLineProgram("abc"[:ngen], nodes, relators)


def test_program_validation():
    with pytest.raises(ValueError):  # a node may only use earlier symbols
        StraightLineProgram(("a", "b"), [(1, 3)], [])
    with pytest.raises(ValueError):
        StraightLineProgram(("a", "b"), [(1, 2)], [(4,)])
    with pytest.raises(ValueError):
        StraightLineProgram(("a", "a"), [], [])
    p = StraightLineProgram(("a", "b"), [(1, 2, -2), (-3, 2, 3)], [(4, -1)])
    assert p.nodes == ((1,), (-3, 2, 3))
    assert p.expand() == expansion(p) == [(1,), (2,), (1,), (-1, 2, 1)]
    assert Presentation(("a",), [(1, 1)]).nodes == ()


def test_fox_rows_match_the_expanded_words():
    rng = random.Random(71)
    compared = 0
    for _ in range(300):
        ngen = rng.randint(2, 3)
        program = random_program(rng, ngen)
        words = expanded_relators(program)
        rows = alexander_matrix(program)
        assert rows == [fox_row(w, ngen) for w in words], program
        # the plain presentation of the expanded words, read letter by
        # letter, has the same rows
        assert rows == alexander_matrix(_plain(program, words))
        if any(any(not e.is_zero for e in row) for row in rows):
            assert elementary_ideal_gcd(rows, ngen) == elementary_ideal_gcd(
                [fox_row(w, ngen) for w in words], ngen)
            compared += 1
    assert compared >= 200


def test_abelianization_matches_the_expanded_words():
    # a node's exponent sums are the sum of its letters' sums
    rng = random.Random(72)
    torsion = 0
    for _ in range(300):
        program = random_program(rng, rng.randint(2, 3))
        h1 = abelianization(program)
        assert h1 == abelianization(Presentation(
            program.generators, expanded_relators(program))), program
        torsion += bool(h1.torsion)
    assert torsion >= 50


def _plain(program, words):
    """The expanded relators as a program with no nodes, kept as they are
    (a Presentation would rotate them into cyclic normal form)."""
    return StraightLineProgram(program.generators, [], words)


TARGETS = [((4,), ((1,), (1,), (3,))), ((2, 3), ((1, 0), (0, 1), (1, 1))),
           ((3,), ((0,), (1,), (2,))), ((2, 2), ((1, 0), (0, 1), (0, 0)))]


def kernel_relators(rng, target, program):
    """Random words over the program's symbols, each followed by generator
    letters that bring its image back to 0: relators in the kernel."""
    words = expansion(program)
    ngen = len(program.generators)
    nsym = ngen + len(program.nodes)
    out = []
    for _ in range(rng.randint(1, 5)):
        w = tuple(rng.choice((1, -1)) * rng.randint(1, nsym)
                  for _ in range(rng.randint(1, 6)))
        image = image_of_word(target, expand(w, words))
        while image != target.identity():
            g = rng.randint(1, ngen)
            w += (g,)
            image = target.add(image, target.images[g - 1])
        out.append(w)
    return out


# the trivial target: no summand, so the rows are plain exponent sums
TRIVIAL = ((), ((), (), ()))


@pytest.mark.parametrize("moduli,images", TARGETS + [TRIVIAL],
                         ids=["Z4", "Z2xZ3", "Z3", "Z2xZ2", "trivial"])
def test_exponent_rows_match_the_expanded_words(moduli, images):
    rng = random.Random(72)
    target = AbelianTarget(moduli, ("a", "b", "c"), images)
    for _ in range(60):
        shape = random_program(rng, 3)
        program = StraightLineProgram(
            shape.generators, shape.nodes,
            kernel_relators(rng, target, shape))
        words = expanded_relators(program)
        system = SchreierSystem(program, target)
        rows = all_rows(system, program.relators)
        plain = SchreierSystem(_plain(program, words), target)
        assert rows == exponent_rows_oracle(plain, words), program
        assert rows == all_rows(plain, words)


@pytest.mark.parametrize("moduli,images", TARGETS,
                         ids=["Z4", "Z2xZ3", "Z3", "Z2xZ2"])
def test_a_relator_outside_the_kernel_is_refused(moduli, images):
    rng = random.Random(73)
    target = AbelianTarget(moduli, ("a", "b", "c"), images)
    refused = 0
    for _ in range(40):
        shape = random_program(rng, 3)
        relators = kernel_relators(rng, target, shape)
        words = expansion(shape)
        # a node or generator whose image is not 0, at the end
        for s in range(len(words), 0, -1):
            if image_of_word(target, words[s - 1]) != target.identity():
                relators.append((s,))
                break
        else:
            continue
        program = StraightLineProgram(shape.generators, shape.nodes,
                                      relators)
        with pytest.raises(NotInKernel):
            all_rows(SchreierSystem(program, target), program.relators)
        refused += 1
    assert refused >= 30


def seeded_kernel_programs(target):
    """40 random programs whose relators lie in the kernel of the map to
    the target, one of them a product of two others (a first row in the
    lattice already), each with its relators expanded as a program with no
    nodes."""
    rng = random.Random(74)
    for _ in range(40):
        shape = random_program(rng, 3)
        relators = kernel_relators(rng, target, shape)
        relators.append(relators[0] + relators[-1])
        program = StraightLineProgram(shape.generators, shape.nodes,
                                      relators)
        yield program, _plain(program, expanded_relators(program))


Z3xZ3 = ((3, 3), ((1, 0), (0, 1), (1, 1)))


@pytest.mark.parametrize("moduli,images", [
    TARGETS[0], TARGETS[3], TARGETS[1], Z3xZ3],
    ids=["Z4", "Z2xZ2", "Z2xZ3", "Z3xZ3"])
def test_kernel_h1_by_orbits_matches_the_dense_oracle(moduli, images,
                                                      monkeypatch):
    # the Smith front end drops an orbit after a first row that reduces to
    # zero; the oracle takes the dense Smith form of every row
    counts = watch_orbits(monkeypatch)
    target = AbelianTarget(moduli, ("a", "b", "c"), images)
    dropped = 0
    for program, plain in seeded_kernel_programs(target):
        before = counts["orbits"] - counts["whole"]
        assert kernel_abelianization(program, target) == \
            kernel_abelianization_oracle(plain, target), program
        dropped += counts["orbits"] - counts["whole"] > before
    assert dropped >= 10


@pytest.mark.parametrize("moduli,images", [TARGETS[1], Z3xZ3],
                         ids=["Z2xZ3", "Z3xZ3"])
def test_smith_form_of_raw_kernel_matrices(moduli, images):
    # the exact Smith form of every raw kernel exponent matrix, transforms
    # included, in well under a second each
    target = AbelianTarget(moduli, ("a", "b", "c"), images)
    for _, plain in seeded_kernel_programs(target):
        check_smith_form(relator_matrix(raw_kernel(plain, target)))


def test_a_deep_program_needs_more_than_a_word_per_entry():
    # w_j = w_{j-1}^-1 w_{j-2} w_{j-1}, the curve recurrence along one line:
    # w_j has 2j - 1 letters once reduced, but about 2.4^j before, the bound
    # the packings are sized by, which passes 2^64 by j = 60
    nodes = [(-(j + 1), j, j + 1) for j in range(1, 60)]
    last = 2 + len(nodes)
    relators = [(last, -(last - 2)), (last, last - 1, -last, -(last - 1)),
                (3, -1)]
    program = StraightLineProgram(("a", "b"), nodes, relators)
    words = expanded_relators(program)
    assert len(expansion(program)[-1]) == 2 * last - 3
    assert _FoxProgram(((1,), (1,)), program.nodes,
                       program.relators).packing.words > 1
    assert alexander_matrix(program) == [fox_row(w, 2) for w in words]
    target = AbelianTarget((3, 2), ("a", "b"), ((1, 0), (2, 1)))
    plain = SchreierSystem(_plain(program, words), target)
    assert all_rows(SchreierSystem(program, target), program.relators) \
        == exponent_rows_oracle(plain, words)


def test_packing_round_trip():
    rng = random.Random(74)

    def pack(values, packing):
        return sum(v * packing.unit(i) for i, v in enumerate(values))

    # entries of one word, of one word read from two, and of several words
    for bound in (1, 2 ** 62, 2 ** 63, 2 ** 64, 2 ** 130):
        packing = Packing(7, 2 * bound)
        for _ in range(50):
            v = [rng.randint(-bound, bound) for _ in range(7)]
            w = [rng.choice((0, rng.randint(-bound, bound))) for _ in range(7)]
            a, b = pack(v, packing), pack(w, packing)
            assert packing.unpack(a) == v
            assert packing.unpack(a - b) == [x - y for x, y in zip(v, w)]
            low = pack(w[:5] + [0, 0], packing)
            assert packing.unpack(packing.shift(low, 2)) == [0, 0] + w[:5]
            moved = pack([0, 0] + v[:5], packing)
            assert packing.unpack(packing.shift(moved, -2)) == v[:5] + [0, 0]
        assert packing.unpack(packing.unit(3)) == [0, 0, 0, 1, 0, 0, 0]


@pytest.mark.parametrize("n", range(2, 10))
def test_curve_program_expands_to_the_reduced_presentation(n):
    program = curve_program(n)
    assert len(program.nodes) == n * n - 4
    reduced = presentation_pi1_reduced(n)
    # the program's relators are the nonempty ones, each once
    assert {cyclic_normal_form(w) for w in expanded_relators(program)} == \
        {r for r in reduced.relators if r}
    assert len(program.relators) == len(set(program.relators))


@pytest.mark.parametrize("n", range(2, 16))
def test_curve_alexander_polynomial_matches_the_expanded_route(n):
    poly, stripped = alexander_polynomial(curve_program(n))
    assert (poly, stripped) == alexander_polynomial(
        presentation_pi1_reduced(n))
    assert stripped == (0 if n % 2 else 2)


def test_curve_alexander_polynomial_at_31():
    poly, stripped = alexander_polynomial(curve_program(31))
    assert poly == cyclotomic_target(31).normalized()
    assert stripped == 0


def test_curve_alexander_polynomial_at_61():
    poly, stripped = alexander_polynomial(curve_program(61))
    assert poly == cyclotomic_target(61).normalized()
    assert stripped == 0


@pytest.mark.parametrize("n", range(2, 16))
def test_curve_abelianization_matches_the_expanded_route(n):
    assert abelianization(curve_program(n)) == \
        abelianization(presentation_pi1_reduced(n))


@pytest.mark.parametrize("n", range(2, 11))
def test_total_degree_kernel_matches_the_expanded_route(n):
    program, reduced = curve_program(n), presentation_pi1_reduced(n)
    for m in range(2, 2 * n + 1):
        if 2 * n % m == 0:
            assert total_degree_kernel(program, m) == \
                total_degree_kernel(reduced, m), m


@pytest.mark.parametrize("n", range(3, 16, 2))
def test_commutator_rank_matches_the_expanded_route(n):
    rank = commutator_abelianization_rank(n)
    assert rank == total_degree_kernel(presentation_pi1_reduced(n),
                                       2 * n).free_rank
    assert rank == 3 * (n - 1)
