import itertools
import random

import pytest

from cuspidal.abelian import abelianization
from cuspidal.errors import InvalidParameter, NotGenerating, NotInKernel
from cuspidal.presentations import (presentation_G, presentation_oka,
                                    presentation_pi1_reduced)
from cuspidal.rewriting import (AbelianTarget, SchreierSystem, _FoxProgram,
                                subgroup_presentation)
from cuspidal.words import (Presentation, StraightLineProgram, commutator,
                            format_presentation, invert, multiply,
                            reduce_word, simplify, substitute)

from oracles import all_rows, coset_table_oracle, image_of_word, raw_kernel


def kernel_word(target, w):
    """w followed by a correcting word, a shortest word in the positive
    generators whose image cancels w's: a word of the kernel."""
    words = {target.identity(): ()}
    queue = [target.identity()]
    for el in queue:
        for g, image in enumerate(target.images, 1):
            reached = target.add(el, image)
            if reached not in words:
                words[reached] = words[el] + (g,)
                queue.append(reached)
    # w^-1 has the image that cancels w's
    return reduce_word(w + words[image_of_word(target, invert(w))])


def test_target_validation():
    # a single generator mapping to 0 cannot generate Z/2
    with pytest.raises(NotGenerating):
        AbelianTarget((2,), ("a",), ((0,),))
    # images are reduced mod the moduli
    t = AbelianTarget((3,), ("a",), ((5,),))
    assert t.images == ((2,),)
    assert t.size == 3
    assert image_of_word(t, (1, 1)) == (1,)
    assert image_of_word(t, (-1,)) == (1,)


def test_target_without_moduli_is_accepted():
    # the trivial group: no rows reach the Smith form, and nothing is missing
    t = AbelianTarget((), (), ())
    assert t.size == 1 and t.identity() == ()
    t = AbelianTarget((), ("a", "b"), ((), ()))
    assert image_of_word(t, (1, -2, 1)) == ()


def test_target_rejects_a_zero_modulus():
    with pytest.raises(InvalidParameter):
        AbelianTarget((0,), ("a",), ((1,),))


def transversal_is_prefix_closed(representatives) -> bool:
    reps = set(representatives)
    return all(w[:i] in reps for w in representatives
               for i in range(len(w)))


# the search tries the generators in declaration order, so declaring them
# in reverse reverses it
@pytest.mark.parametrize("generators,images", [
    (("a", "b"), ((1, 0), (0, 1))),
    (("b", "a"), ((0, 1), (1, 0))),
], ids=["bfs", "bfs-reversed"])
def test_transversal_schreier_property(generators, images):
    t = AbelianTarget((3, 3), generators, images)
    free = Presentation(generators, [])
    reps = SchreierSystem(free, t).representatives
    assert len(reps) == 9
    assert transversal_is_prefix_closed(reps)
    # representatives hit each coset exactly once, in row-major order
    assert [image_of_word(t, w) for w in reps] == list(
        itertools.product(range(3), range(3)))
    # coset (1, 1) is first reached from the first generator declared
    assert reps[4][0] == 1


def schreier_generator_words(system) -> list:
    """The words rep(c) g rep(c g)^-1 of the edges (coset c, generator g)
    in order, c g found by the image of rep(c) g, less those that reduce
    freely to 1: the kernel generators' words, built from the
    representatives alone."""
    reps = system.representatives
    coset_of = {image_of_word(system.target, rep): c
                for c, rep in enumerate(reps)}
    words = []
    for rep in reps:
        for g in range(1, len(system.target.generators) + 1):
            reached = reps[coset_of[image_of_word(system.target,
                                                  rep + (g,))]]
            word = multiply(multiply(rep, (g,)), invert(reached))
            if word:
                words.append(word)
    return words


def test_rewrite_of_kernel_word_expands_back():
    t = AbelianTarget((2, 2), ("a", "b"), ((1, 0), (0, 1)))
    free = Presentation(("a", "b"), [])
    system = SchreierSystem(free, t)
    generator_words = schreier_generator_words(system)
    assert len(generator_words) == len(system.generator_names)
    rng = random.Random(41)
    for _ in range(200):
        w = reduce_word(tuple(rng.choice((1, -1, 2, -2))
                              for _ in range(rng.randrange(12))))
        # force w into the kernel by appending a correction
        img = image_of_word(t, w)
        corr = tuple([1] * img[0] + [2] * img[1])
        w = multiply(w, invert(corr)) if any(img) else w
        if image_of_word(t, w) != t.identity():
            w = multiply(w, w)  # even power is always in the kernel here
        assert image_of_word(t, w) == t.identity()
        rewritten = system.rewrite(w, 0)
        assert substitute(rewritten, generator_words) == w


def test_free_group_kernel_has_nielsen_schreier_rank():
    # kernel of F_2 ->> Z/n x Z/n is free of rank 1 + n^2 (2 - 1)
    for n in (2, 3):
        t = AbelianTarget((n, n), ("a", "b"), ((1, 0), (0, 1)))
        free = Presentation(("a", "b"), [])
        q = raw_kernel(free, t)
        assert q.relators == ()
        assert len(q.generators) == 1 + n * n


def test_extra_words_must_lie_in_kernel():
    t = AbelianTarget((2,), ("a", "b"), ((1,), (0,)))
    p = Presentation(("a", "b"), [])
    with pytest.raises(NotInKernel):
        subgroup_presentation(p, t, [(1,)])


def test_words_outside_the_kernel_are_refused():
    # a is sent to 1 in Z/2, so a and a b a^-1 b a are not in the kernel
    t = AbelianTarget((2,), ("a", "b"), ((1,), (0,)))
    system = SchreierSystem(Presentation(("a", "b"), []), t)
    for w in ((1,), (1, 2, -1, 2, 1)):
        for ci in range(t.size):
            with pytest.raises(NotInKernel, match=f"length {len(w)} "):
                system.rewrite(w, ci)
        with pytest.raises(NotInKernel, match=f"length {len(w)} "):
            all_rows(system, [(1, 1), w])


def test_kernel_words_with_letters_outside_the_generators_are_refused():
    # G has three generators: the letter 4 once indexed past the table, 7
    # from coset 2 landed in another coset's block and read (), and 0 read
    # l1 0 l1^-1 from coset 1 as two kernel letters
    p = presentation_G()
    t = AbelianTarget((2, 2), ("e", "l1", "l2"), ((0, 0), (1, 0), (0, 1)))
    with pytest.raises(ValueError, match="letter 4 out of range"):
        subgroup_presentation(p, t, [(4, 4)])
    with pytest.raises(ValueError, match="letter 7 out of range"):
        SchreierSystem(p, t).rewrite((7, -7), 2)
    with pytest.raises(ValueError, match="letter 0 out of range"):
        SchreierSystem(p, t).rewrite((2, 0, -2), 1)


def test_relators_must_lie_in_kernel():
    # Oka(3) = <a, b | a^2, b^3>; a -> 1, b -> 0 in Z/4 is not a
    # homomorphism, since a^2 goes to 2
    p = presentation_oka(3)
    t = AbelianTarget((4,), p.generators, ((1,), (0,)))
    with pytest.raises(NotInKernel):
        subgroup_presentation(p, t, [])


def random_targets(rng, count):
    """count random targets with images that generate: 1 to 3 summands,
    moduli 1..7, 1 to 4 generators."""
    targets = []
    while len(targets) < count:
        moduli = tuple(rng.randint(1, 7) for _ in range(rng.randint(1, 3)))
        generators = ("a", "b", "c", "d")[:rng.randint(1, 4)]
        images = tuple(tuple(rng.randrange(m) for m in moduli)
                       for _ in generators)
        try:
            targets.append(AbelianTarget(moduli, generators, images))
        except NotGenerating:
            pass
    return targets


def test_coset_table_matches_the_residue_tuple_oracle():
    rng = random.Random(36)
    for i, t in enumerate(random_targets(rng, 200)):
        ngen = len(t.generators)
        # every other target is read from a straight-line program, whose
        # inner nodes leave the table as it is
        p = (Presentation(t.generators, []) if i % 2 else
             StraightLineProgram(t.generators, [(1, 1), (-1, ngen + 1)], []))
        system = SchreierSystem(p, t)
        oracle = coset_table_oracle(p, t)
        for name in ("_next", "_kernel_letter", "generator_names",
                     "representatives"):
            assert getattr(system, name) == oracle[name], (t, name)
        assert [system._translated_edges(c) for c in range(t.size)] == \
            oracle["translated"], t
        # Schreier's index formula for a subgroup of index |T| of the free
        # group on ngen generators
        assert len(system.generator_names) == t.size * (ngen - 1) + 1


def test_rewrite_from_identity_coset():
    t = AbelianTarget((2,), ("a", "b"), ((1,), (0,)))
    free = Presentation(("a", "b"), [])
    w = SchreierSystem(free, t).rewrite((1, 1), 0)  # a^2 is in the kernel
    assert w != ()


def test_kernel_of_cyclic_quotient_abelianization():
    # G = Z (one generator, no relators); kernel of Z ->> Z/3 is 3Z = Z
    t = AbelianTarget((3,), ("a",), ((1,),))
    p = Presentation(("a",), [])
    q = subgroup_presentation(p, t, [])
    assert abelianization(q).free_rank == 1
    assert abelianization(q).torsion == ()


def test_index_formula_for_relator_count():
    # every relator is rewritten at every coset before simplification
    t = AbelianTarget((2, 2), ("a", "b"), ((1, 0), (0, 1)))
    p = Presentation(("a", "b"), [(-1, -2, 1, 2)])
    q = raw_kernel(p, t)
    assert len(q.relators) == 4


def coset_arithmetic_rewrite(system, w, start_coset=0):
    """Rewriting that recomputes each coset from the target's residues,
    letter by letter, with its own row-major coset index, and finds each
    Schreier generator by its name <generator>_<residues of the coset>."""
    target = system.target
    elements = list(itertools.product(*(range(m) for m in target.moduli)))
    index = {el: i for i, el in enumerate(elements)}
    letters = {name: i for i, name in enumerate(system.generator_names, 1)}
    coset = start_coset
    out = []
    for x in w:
        if x < 0:
            coset = index[target.add(elements[coset],
                                     image_of_word(target, (x,)))]
        suffix = "_".join(str(r) for r in elements[coset])
        letter = letters.get(f"{target.generators[abs(x) - 1]}_{suffix}")
        if x > 0:
            coset = index[target.add(elements[coset],
                                     image_of_word(target, (x,)))]
        if letter is not None:
            out = list(multiply(out, (letter if x > 0 else -letter,)))
    return tuple(out)


# the search tries the generators in declaration order, so the last case,
# declared in reverse, tries them in reverse
@pytest.mark.parametrize("moduli,images,generators", [
    ((2, 2), ((1, 0), (0, 1), (1, 1)), ("a", "b", "c")),
    ((3, 3), ((0, 0), (1, 0), (0, 1)), ("a", "b", "c")),
    ((4,), ((1,), (2,), (3,)), ("a", "b", "c")),
    ((2, 3), ((0, 0), (0, 1), (1, 0)), ("c", "b", "a")),
], ids=["moduli0-images0-bfs", "moduli1-images1-bfs", "moduli2-images2-bfs",
        "moduli3-images3-bfs-reversed"])
def test_rewrite_matches_coset_arithmetic(moduli, images, generators):
    rng = random.Random(43)
    t = AbelianTarget(moduli, generators, images)
    relators = [kernel_word(t, tuple(rng.choice((1, -1, 2, -2, 3, -3))
                                     for _ in range(rng.randrange(1, 10))))
                for _ in range(6)]
    relators = [r for r in relators if r]
    p = Presentation(generators, relators)
    system = SchreierSystem(p, t)
    for _ in range(100):
        w = kernel_word(t, tuple(rng.choice((1, -1, 2, -2, 3, -3))
                                 for _ in range(rng.randrange(15))))
        for ci in range(t.size):
            assert system.rewrite(w, ci) == coset_arithmetic_rewrite(
                system, w, ci)
    # the kernel presentation is built from exactly these rewrites, then
    # simplified once
    q = raw_kernel(p, t)
    expected = Presentation(system.generator_names, [
        coset_arithmetic_rewrite(system, r, ci)
        for r in p.relators for ci in range(t.size)])
    assert format_presentation(q) == format_presentation(expected)
    assert subgroup_presentation(p, t, []) == simplify(q)


def exponent_rows_oracle(system, relators):
    """Exponent sums of the rewritten words, relator by relator and coset by
    coset; zero rows dropped, each row kept once up to sign, first nonzero
    entry positive."""
    ncols = len(system.generator_names)
    rows = []
    for r in relators:
        for ci in range(system.target.size):
            row = [0] * ncols
            for x in coset_arithmetic_rewrite(system, r, ci):
                row[abs(x) - 1] += 1 if x > 0 else -1
            if any(row):
                lead = next(x for x in row if x)
                row = tuple(x * (1 if lead > 0 else -1) for x in row)
                if row not in rows:
                    rows.append(row)
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


@pytest.mark.parametrize("moduli,images,generators", [
    ((2, 2), ((1, 0), (0, 1), (1, 1)), ("a", "b", "c")),
    ((3, 3), ((0, 0), (1, 0), (0, 1)), ("a", "b", "c")),
    ((4,), ((1,), (2,), (3,)), ("a", "b", "c")),
    ((2, 3), ((0, 0), (0, 1), (1, 0)), ("c", "b", "a")),
], ids=["Z2xZ2", "Z3xZ3", "Z4", "Z2xZ3-reversed"])
def test_exponent_rows_match_rewritten_words(moduli, images, generators):
    rng = random.Random(44)
    t = AbelianTarget(moduli, generators, images)
    for _ in range(30):
        relators = [kernel_word(t, tuple(rng.choice((1, -1, 2, -2, 3, -3))
                                         for _ in range(rng.randrange(12))))
                    for _ in range(rng.randrange(1, 6))]
        # repeated and inverted relators give repeated and negated rows
        relators += [invert(r) for r in relators[:2]] + relators[:1]
        # kernel words: a commutator, and a commutator of two of them,
        # whose rows are zero at every coset
        u, v = relators[0], relators[-1]
        relators += [commutator(u, v), commutator(commutator(u, v),
                                                  commutator(v, invert(u)))]
        system = SchreierSystem(Presentation(generators, []), t)
        assert all_rows(system, relators) == \
            exponent_rows_oracle(system, relators)


def walk_every_coset_rows(system, relators):
    """The rows as the table gives them walking each relator from every
    coset in turn: the kernel letters read on each walk are counted, and a
    closed walk with a zero row ends the relator's walks."""
    nkernel = len(system.generator_names)
    seen, rows = set(), []
    for r in dict.fromkeys(relators):
        if not r:
            continue
        for start in system._slots:
            slot = start
            counts = [0] * (2 * nkernel + 1)
            for x in r:
                slot += x
                counts[system._kernel_letter[slot]] += 1
                slot = system._next[slot]
            row = tuple(a - b for a, b in zip(counts[1:nkernel + 1],
                                              reversed(counts[nkernel + 1:])))
            first = next(filter(None, row), 0)
            if not first:
                if slot == start:
                    break
                continue
            if first < 0:
                row = tuple(-x for x in row)
            if row not in seen:
                seen.add(row)
                rows.append({j: v for j, v in enumerate(row) if v})
    return rows


def curve_kernel_system(p, moduli, images=None):
    """The coset table of the kernel of p onto the sum of Z/moduli, by
    default with every generator sent to 1 in each summand; given images
    are repeated along the generators."""
    images = images or ((1,) * len(moduli),)
    return SchreierSystem(p, AbelianTarget(
        moduli, p.generators,
        tuple(images[i % len(images)] for i in range(len(p.generators)))))


@pytest.mark.parametrize("n,moduli,images", [
    (3, (6,), None), (5, (10,), None), (7, (14,), None), (9, (18,), None),
    (5, (2, 5), None), (4, (2, 4), ((1, 0), (0, 1), (1, 1))),
], ids=["3-Z6", "5-Z10", "7-Z14", "9-Z18", "5-Z2xZ5", "4-Z2xZ4"])
def test_translated_rows_match_walks_from_every_coset(n, moduli, images):
    p = presentation_pi1_reduced(n)
    system = curve_kernel_system(p, moduli, images)
    relators = list(p.relators) + [invert(r) for r in p.relators[:3]]
    rows = all_rows(system, relators)
    # the same rows in the same order, dict keys in the same order too
    assert [list(row.items()) for row in rows] == \
        [list(row.items()) for row in walk_every_coset_rows(system,
                                                            relators)]


def test_exponent_rows_walk_each_distinct_relator_once(monkeypatch):
    """The Fox walker reads each distinct nonempty relator once, so the
    letters walked are the sum of their lengths, however many cosets there
    are."""
    walked = []
    walk = _FoxProgram.walk

    def counting(program, w):
        walked.append(w)
        return walk(program, w)

    monkeypatch.setattr(_FoxProgram, "walk", counting)
    p = presentation_pi1_reduced(7)
    system = curve_kernel_system(p, (14,))
    relators = list(p.relators) * 2 + [()]
    assert all_rows(system, relators)
    distinct = {r for r in p.relators if r}
    assert len(walked) == len(distinct) and set(walked) == distinct
    assert sum(map(len, walked)) == sum(map(len, distinct))
