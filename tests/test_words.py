import itertools
import json
import random
from collections import Counter

import pytest

from cuspidal import rewriting, words
from cuspidal.errors import NoDefiningRelator
from cuspidal.homcount import relator_triviality_check
from cuspidal.presentations import (_CURVE_GENERATORS, _curve_nodes,
                                    _pi1_relators, curve_program,
                                    derive_pi1_via_rs, presentation_pi1,
                                    presentation_pi1_reduced)
from cuspidal.words import (GroupMap, Presentation, StraightLineProgram,
                            commutator, conjugate, cyclic_normal_form,
                            cyclic_reduce, format_presentation, format_word,
                            invert, multiply, power, reduce_word, simplify,
                            simplify_with_map, substitute, tietze_eliminate)

from oracles import least_rotation_oracle


def parse_word(text, generators):
    """Inverse of format_word: tokens ``name`` or ``name^-1``."""
    index = {name: i + 1 for i, name in enumerate(generators)}
    return tuple(-index[tok[:-3]] if tok.endswith("^-1") else index[tok]
                 for tok in text.split())


def parse_presentation(text):
    """Inverse of format_presentation."""
    gens_line, *lines = text.splitlines()
    generators = gens_line[len("gens:"):].split()
    return Presentation(generators,
                        [parse_word(line, generators) for line in lines])


def presentation_to_json(p):
    doc = {"generators": list(p.generators),
           "relators": [list(r) for r in p.relators]}
    return json.dumps(doc, sort_keys=True)


def presentation_from_json(text):
    doc = json.loads(text)
    return Presentation(doc["generators"], [tuple(r) for r in doc["relators"]])


def naive_reduce(letters):
    """One-pass-at-a-time cancellation, iterated to a fixed point."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i:i + 2]
                changed = True
                break
    return tuple(out)


def random_letters(rng, ngen=4, maxlen=12):
    return tuple(rng.choice([s * g for s in (1, -1)
                             for g in range(1, ngen + 1)])
                 for _ in range(rng.randrange(maxlen + 1)))


def random_word(rng, ngen=4, maxlen=12):
    return reduce_word(random_letters(rng, ngen, maxlen))


def test_reduce_matches_naive_fixed_point():
    rng = random.Random(11)
    for _ in range(300):
        w = random_letters(rng)
        assert reduce_word(w) == naive_reduce(w)


def test_multiply_and_invert():
    rng = random.Random(12)
    for _ in range(200):
        u, v = random_word(rng), random_word(rng)
        assert multiply(u, invert(u)) == ()
        assert invert(multiply(u, v)) == multiply(invert(v), invert(u))
        # on reduced inputs, multiplication is concatenation + reduction
        assert multiply(u, v) == reduce_word(tuple(u) + tuple(v))


def test_power_and_commutator():
    assert power((1,), 3) == (1, 1, 1)
    assert power((1, 2), -2) == (-2, -1, -2, -1)
    assert power((1,), 0) == ()
    assert commutator((1,), (2,)) == (-1, -2, 1, 2)
    assert conjugate((1,), (2,)) == (-2, 1, 2)  # by^-1 w by


def test_cyclic_normal_form_is_rotation_and_inversion_invariant():
    rng = random.Random(13)
    for _ in range(200):
        w = cyclic_reduce(reduce_word(random_word(rng)))
        if not w:
            continue
        nf = cyclic_normal_form(w)
        k = rng.randrange(len(w))
        rotated = w[k:] + w[:k]
        assert cyclic_normal_form(rotated) == nf
        assert cyclic_normal_form(invert(w)) == nf


def naive_cyclic_normal_form(w):
    """Least of all rotations of the cyclically reduced word and its
    inverse, listed out (quadratic)."""
    w = cyclic_reduce(w)
    if not w:
        return w
    return min(u[i:] + u[:i] for u in (w, invert(w)) for i in range(len(u)))


def test_cyclic_normal_form_matches_all_rotations_oracle():
    rng = random.Random(14)
    words = [random_letters(rng, ngen=rng.randrange(1, 5), maxlen=16)
             for _ in range(600)]
    words += [(1, 2) * k for k in range(1, 7)]
    words += [(2, -1, -1) * k for k in range(1, 5)]
    words += [(x,) * k for x in (1, -1, 3, -3) for k in range(1, 6)]
    words += [(1, 2, -1, -2) * k for k in range(1, 4)]
    words += [(), (1, -1), (2, 1, -1, -2)]
    for w in words:
        assert cyclic_normal_form(w) == naive_cyclic_normal_form(w), w


def test_cyclic_normal_form_on_every_short_word():
    # No nonempty cyclically reduced word is a rotation of its inverse (a
    # nontrivial element of a free group is never conjugate to its
    # inverse), so the closest case is a tie: the word and its inverse have
    # the same least letter, and both least rotations must be compared.
    ties = 0
    for length in range(8):
        for w in itertools.product((1, -1, 2, -2), repeat=length):
            assert cyclic_normal_form(w) == naive_cyclic_normal_form(w), w
            u = cyclic_reduce(w)
            if u:
                assert invert(u) not in {u[i:] + u[:i] for i in range(len(u))}
                ties += min(u) == -max(u)
    assert ties > 1000


def test_relator_form_matches_cyclic_normal_form_and_its_range_check():
    # _relator_form reads a freely reduced word's least and greatest
    # letters once; the oracle normalizes it, then scans the normal form
    # for the first letter out of range
    rng = random.Random(16)
    formed = rejected = 0
    for _ in range(4000):
        ngen = rng.randrange(1, 6)
        w = random_word(rng, ngen=ngen, maxlen=rng.choice((4, 12, 40)))
        limit = ngen - rng.randrange(2)
        nf = cyclic_normal_form(w)
        bad = [x for x in nf if not 0 < abs(x) <= limit]
        if bad:
            with pytest.raises(ValueError) as caught:
                words._relator_form(w, limit)
            assert str(caught.value) == f"relator letter {bad[0]} out of " \
                                        "range", w
            rejected += 1
        else:
            assert words._relator_form(w, limit) == nf, w
            formed += 1
    assert min(formed, rejected) > 1000, (formed, rejected)


def test_least_rotation_matches_the_every_start_oracle():
    # _least_rotation starts only at the least letter; the oracle tries
    # every start.  Words need not be reduced, and powers are periodic.
    rng = random.Random(15)
    cases = [random_letters(rng, ngen=rng.randrange(1, 4), maxlen=30)
             for _ in range(3000)]
    cases += [random_letters(rng, ngen=rng.randrange(1, 4), maxlen=6)
              * rng.randrange(1, 8) for _ in range(3000)]
    cases += [r for n in range(2, 10) for r in
              presentation_pi1_reduced(n).relators]
    cases += [r for n in range(2, 6) for r in derive_pi1_via_rs(n).relators]
    periodic = 0
    for w in filter(None, cases):
        for u in (w, invert(w)):
            assert words._least_rotation(u, min(u)) == \
                least_rotation_oracle(u), u
        periodic += len(w) <= 42 and any(w == w[k:] + w[:k]
                                         for k in range(1, len(w)))
    assert periodic > 1000


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation(("a", "a"), [])
    with pytest.raises(ValueError):
        Presentation(("a",), [(2,)])
    # the message names the first letter out of range in the normal form
    with pytest.raises(ValueError, match=r"^relator letter -3 out of range$"):
        Presentation(("a",), [(1,), (1, 3, 1, -2)])
    with pytest.raises(ValueError):
        Presentation(("1bad",), [])


def test_a_name_may_not_end_in_a_newline():
    # `$` would match before a final newline, which the text format cannot
    # carry: "gens: a\n b" would print on two lines
    with pytest.raises(ValueError, match="invalid generator name"):
        Presentation(("a\n", "b"), [(1, 2)])
    with pytest.raises(ValueError, match="invalid generator name"):
        StraightLineProgram(("a\n", "b"), [], [(1, 2)])


def test_word_parsing_round_trip():
    p = Presentation(("a", "b_2", "c"), [])
    w = parse_word("a b_2^-1 c c a^-1", p.generators)
    assert w == (1, -2, 3, 3, -1)
    assert format_word(w, p.generators) == "a b_2^-1 c c a^-1"
    assert parse_word("", p.generators) == ()


def test_presentation_text_and_json_round_trip():
    p = Presentation(("x", "y"), [(1, 1), (1, 2, -1, -2)])
    q = parse_presentation(format_presentation(p))
    assert q.generators == p.generators and q.relators == p.relators
    r = presentation_from_json(presentation_to_json(p))
    assert r.generators == p.generators and r.relators == p.relators


def test_tietze_eliminate_substitutes_everywhere():
    # <a, b | b = a^2, b^3> -> <a | a^6>
    p = Presentation(("a", "b"), [(2, -1, -1), (2, 2, 2)])
    q = tietze_eliminate(p, "b", (1, 1))
    assert q.generators == ("a",)
    assert q.relators == (cyclic_normal_form((1,) * 6),)


def test_simplify_eliminates_single_occurrence_generators():
    # <a, b, c | c a b, a^2 b^2> : the first relator defines one generator
    # in terms of the others, so simplify must shed a generator and the
    # defining relator
    p = Presentation(("a", "b", "c"), [(3, 1, 2), (1, 1, 2, 2)])
    q = simplify(p)
    assert len(q.generators) == 2
    assert len(q.relators) == 1


def test_simplify_with_map_tracks_images():
    p = Presentation(("a", "b", "c"), [(3, -1, -2), (1, 1, 1), (2, 2)])
    q, image_map = simplify_with_map(p)
    assert set(image_map) == {"a", "b", "c"}
    gm = GroupMap(p, q, tuple(image_map[g] for g in p.generators))
    # every source relator image must be trivial in the quotient: check in
    # all homomorphisms of q into the symmetric groups on up to 3 symbols
    assert relator_triviality_check(gm, 3).passed


def test_group_map_apply():
    src = Presentation(("a",), [])
    tgt = Presentation(("x", "y"), [])
    gm = GroupMap(src, tgt, ((1, 2),))
    assert gm.apply((1, 1)) == (1, 2, 1, 2)
    assert gm.apply((-1,)) == (-2, -1)


def test_group_map_validation():
    src = Presentation(("a", "b"), [])
    tgt = Presentation(("x",), [])
    with pytest.raises(ValueError, match=r"^3 images for 2 generators$"):
        GroupMap(src, tgt, ((1,), (1,), (1,)))
    with pytest.raises(ValueError, match=r"^1 images for 2 generators$"):
        GroupMap(src, tgt, ((1,),))
    # the message names the first letter out of range, after free reduction
    with pytest.raises(ValueError, match=r"^image letter -2 out of range$"):
        GroupMap(src, tgt, ((1, 3, -3, -2), (2,)))
    with pytest.raises(ValueError, match=r"^image letter 2 out of range$"):
        GroupMap(src, tgt, ((1,), (2,)))


def multiply_accumulate_substitute(w, images):
    """Letter by letter, multiply the image of each letter onto the result
    (the loop GroupMap.apply and power ran before substitute)."""
    out = ()
    for x in w:
        img = images[abs(x) - 1]
        out = multiply(out, img if x > 0 else invert(img))
    return out


def test_substitute_matches_multiply_accumulate_oracle():
    rng = random.Random(17)
    seen = {"empty image": 0, "inverse letter": 0, "unreduced word": 0,
            "cancels across letters": 0}
    for _ in range(400):
        ngen = rng.randrange(1, 5)
        # images share a random prefix and suffix, so the images of
        # neighbouring letters often cancel into each other
        prefix, suffix = random_word(rng, 3, 3), random_word(rng, 3, 3)
        images = []
        for _ in range(ngen):
            kind = rng.random()
            if kind < 0.15:
                images.append(())
            elif kind < 0.3 and images:
                images.append(invert(rng.choice(images)))
            else:
                images.append(reduce_word(prefix + random_word(rng, 3, 4)
                                          + suffix))
        w = (random_letters if rng.random() < 0.3 else random_word)(
            rng, ngen, 10)
        got = substitute(w, images)
        assert got == multiply_accumulate_substitute(w, images), (w, images)
        assert got == reduce_word(got)
        seen["empty image"] += any(not images[abs(x) - 1] for x in w)
        seen["inverse letter"] += any(x < 0 for x in w)
        seen["unreduced word"] += w != reduce_word(w)
        seen["cancels across letters"] += len(got) < sum(
            len(images[abs(x) - 1]) for x in reduce_word(w))
    assert min(seen.values()) >= 50, seen


def test_power_matches_multiply_accumulate_oracle():
    rng = random.Random(18)
    for _ in range(300):
        w = random_letters(rng, 3, 6)
        n = rng.randrange(-4, 5)
        letters = (1 if n > 0 else -1,) * abs(n)
        assert power(w, n) == \
            multiply_accumulate_substitute(letters, (w,)), (w, n)


def full_retidy_simplify_with_map(p):
    """The Tietze loop that re-normalizes every relator after every
    elimination and renumbers generators as it goes."""
    def tidy(relators):
        seen, out = set(), []
        for r in relators:
            r = naive_cyclic_normal_form(r)
            if r and r not in seen:
                seen.add(r)
                out.append(r)
        return out

    def candidate(relators):
        best = None
        for ri, r in enumerate(relators):
            counts = {}
            for x in r:
                counts[abs(x)] = counts.get(abs(x), 0) + 1
            for g, c in counts.items():
                if c == 1 and (best is None or (len(r), g, ri) < best):
                    best = (len(r), g, ri)
        return None if best is None else (best[2], best[1])

    def substitute(w, g, defining):
        inv = invert(defining)
        return reduce_word(y for x in w
                           for y in (defining if x == g else
                                     inv if x == -g else (x,)))

    def drop(w, g):
        return tuple(x if abs(x) < g else x - (1 if x > 0 else -1)
                     for x in w)

    generators = list(p.generators)
    relators = tidy(p.relators)
    images = [(i + 1,) for i in range(len(generators))]
    while (cand := candidate(relators)) is not None:
        ri, g = cand
        r = relators.pop(ri)
        pos = next(i for i, x in enumerate(r) if abs(x) == g)
        rot = r[pos:] + r[:pos]
        if rot[0] < 0:
            rot = invert(rot)
            rot = rot[-1:] + rot[:-1]
        defining = invert(rot[1:])
        relators = tidy(drop(substitute(w, g, defining), g) for w in relators)
        images = [drop(substitute(w, g, defining), g) for w in images]
        del generators[g - 1]
    return (Presentation(generators, relators),
            dict(zip(p.generators, images)))


def random_presentation(rng):
    ngen = rng.randrange(1, 7)
    relators = []
    for _ in range(rng.randrange(0, 8)):
        kind = rng.random()
        if kind < 0.2 and relators:
            relators.append(rng.choice(relators))  # duplicate
        elif kind < 0.35:
            # g = u, then w, something else, and w with g replaced by u:
            # eliminating g turns w into a copy of a later relator
            g = rng.randrange(1, ngen + 1)
            u = tuple(x for x in random_letters(rng, ngen, 3) if abs(x) != g)
            w = (random_letters(rng, ngen, 6) + (g,)
                 + random_letters(rng, ngen, 4))
            inv = invert(u)
            copy = tuple(y for x in w for y in (u if x == g else inv if x == -g
                                                else (x,)))
            relators += [(g,) + inv, w, random_letters(rng, ngen, 6), copy]
        elif kind < 0.6:
            g = rng.randrange(1, ngen + 1)
            others = [x for x in range(1, ngen + 1) if x != g] or [g]
            body = tuple(rng.choice(others) * rng.choice((1, -1))
                         for _ in range(rng.randrange(0, 5)))
            relators.append((g * rng.choice((1, -1)),) + body)
        else:
            relators.append(random_letters(rng, ngen, 10))
    names = [f"x{i}" for i in range(1, ngen + 1)]
    return Presentation(names, [r for r in relators
                                if all(abs(x) <= ngen for x in r)])


def cancelling_presentation(rng):
    """A relator g u^-1 that defines g as u, and relators with u^-1 g in
    the middle or split between their ends: substituting u for g cancels
    u^-1 u against its neighbours or in the cyclic-core trim."""
    ngen = rng.randrange(2, 7)
    g = rng.randrange(1, ngen + 1)
    others = [x for x in range(1, ngen + 1) if x != g]
    u = reduce_word(rng.choice(others) * rng.choice((1, -1))
                    for _ in range(rng.randrange(1, 5)))
    relators = [(g,) + invert(u)]
    for _ in range(rng.randrange(1, 4)):
        a = random_letters(rng, ngen, 4)
        b = random_letters(rng, ngen, 4)
        cut = rng.randrange(len(u) + 1)
        relators += [a + invert(u) + (g,) + b,
                     invert(u)[cut:] + (g,) + b + invert(u)[:cut]]
    names = [f"x{i}" for i in range(1, ngen + 1)]
    return Presentation(names, relators)


def occurrence_flip_presentations():
    """Steps where a generator other than the eliminated one leaves or
    enters a relator, then is eliminated itself: the loop must substitute
    it in exactly the relators that contain it by then.  The first
    relator defines x1, eliminated first; x3, once in the last relator, is
    eliminated next."""
    leaves = [
        # x3 cancels against x1's image, at a junction or in the core trim
        [(1, 3), (1, 3, 2, 2), (3, 2, 2, 2)],
        [(1, 3), (-3, 2, 2, -1), (3, 2, 2, 2)],
        # every one of several copies of x3 cancels
        [(1, 3), (1, 3, 2, 1, 3, 2), (3, 2, 2, 2)],
        [(1, 3), (1, 3, 2, 1, 3, 2), (1, 3, 4, 4), (3, 4, 2, 2, 4)],
    ]
    enters = [
        # x3 comes in with x1's image
        [(1, -3), (1, 1, 2, 2, 4, 4), (3, 4, 4, 2, 2)],
        [(1, -3), (2, 1, 2, 1), (3, 2, 2, 2)],
        # x1 = x3 x2 x3^-1: x3 comes in with x1^2 and cancels in the same
        # step, at the junction and in the core trim, so it never enters
        [(1, 3, -2, -3), (1, 1), (3, 2, 2, 2)],
    ]
    return [Presentation([f"x{i}" for i in range(1, 5)], relators)
            for relators in leaves + enters]


def watch_cancellations(monkeypatch):
    """Count, among the substitutions whose result the Tietze loop then
    cyclically reduces, those where a copy of the defining word or of its
    inverse cancelled completely, and those the cyclic-core trim shortened.
    """
    seen = Counter()
    last = {}
    substitute_, append_, core_ = (words._substitute, words._append_reduced,
                                   words._cyclic_core)

    def substituting(w, g, occ, defining, inv):
        last["pieces"], last["complete"] = (defining, inv), False
        out, cancelled = substitute_(w, g, occ, defining, inv)
        last["out"] = out
        return out, cancelled

    def appending(out, piece):
        k = append_(out, piece)
        if piece and k == len(piece) and piece in last.get("pieces", ()):
            last["complete"] = True
        return k

    def core(w):
        c = core_(w)
        if w is last.get("out"):
            seen["defining word cancelled"] += last["complete"]
            seen["core trimmed"] += len(c) < len(w)
        return c

    monkeypatch.setattr(words, "_substitute", substituting)
    monkeypatch.setattr(words, "_append_reduced", appending)
    monkeypatch.setattr(words, "_cyclic_core", core)
    return seen


def oka_inputs(ns):
    """The presentations the Tietze route to oka_quotient(n) hands to
    simplify_with_map: presentation_pi1(n), with its n^2 generators, plus
    the relators eps_i_j eps_i_0^-1 for j >= 1."""
    inputs = []
    for n in ns:
        p = presentation_pi1(n)
        inputs.append(Presentation(p.generators, list(p.relators) + [
            (i * n + j + 1, -(i * n + 1))
            for i in range(n) for j in range(1, n)]))
    return inputs


def schreier_kernels(monkeypatch, ns):
    """The presentations derive_pi1_via_rs(n) hands to simplify: there
    relators become rotated or inverted copies of one another mid-loop."""
    kernels = []

    def recording(p):
        kernels.append(p)
        return simplify(p)

    monkeypatch.setattr(rewriting, "simplify", recording)
    for n in ns:
        derive_pi1_via_rs(n)
    return kernels


def same_fields(built, oracle) -> None:
    """built equals oracle field by field, each field of the same type."""
    assert type(built) is type(oracle)
    for name in built.__slots__:
        value, expected = getattr(built, name), getattr(oracle, name)
        assert type(value) is type(expected), name
        assert value == expected, name


def pi1_reduced_oracle(n):
    """presentation_pi1_reduced(n) through the public constructors, which
    reduce every word again."""
    nodes, symbols, definitions = _curve_nodes(n)
    expanded = StraightLineProgram(_CURVE_GENERATORS, nodes, ()).expand()
    images = [expanded[s - 1] for s in symbols]
    return Presentation(_CURVE_GENERATORS, [
        () if k in definitions else substitute(r, images)
        for k, r in enumerate(_pi1_relators(n))])


def test_make_builders_match_the_public_constructors(monkeypatch):
    # the builders whose words are reduced by construction skip the
    # constructors' reduction and build through _make; each is listed here:
    # presentation_pi1_reduced, subgroup_presentation (the kernels of
    # derive_pi1_via_rs) and curve_program
    for n in range(2, 14):
        same_fields(presentation_pi1_reduced(n), pi1_reduced_oracle(n))
    rewrite = rewriting.SchreierSystem.rewrite
    rewritten = []

    def recording(self, w, start_coset):
        rewritten.append(rewrite(self, w, start_coset))
        return rewritten[-1]

    monkeypatch.setattr(rewriting.SchreierSystem, "rewrite", recording)
    for kernel in schreier_kernels(monkeypatch, range(2, 7)):
        words_in = rewritten[:len(kernel.relators)]
        del rewritten[:len(kernel.relators)]
        same_fields(kernel, Presentation(kernel.generators, words_in))
    assert rewritten == []
    for n in range(2, 22):
        c = curve_program(n)
        same_fields(c, StraightLineProgram(c.generators, c.nodes,
                                           c.relators))


def test_simplify_with_map_matches_full_retidy_oracle(monkeypatch):
    rng = random.Random(15)
    cases = [random_presentation(rng) for _ in range(300)]
    cases += [cancelling_presentation(rng) for _ in range(100)]
    cases += schreier_kernels(monkeypatch, (2, 3, 4, 5))
    cases += oka_inputs(range(3, 8))
    cases += occurrence_flip_presentations()
    seen = watch_cancellations(monkeypatch)
    eliminated = 0
    for p in cases:
        q, image_map = simplify_with_map(p)
        q0, image_map0 = full_retidy_simplify_with_map(p)
        assert format_presentation(q) == format_presentation(q0)
        assert image_map == image_map0
        assert simplify(p) == q
        # the loop stops at a fixed point: no relator has a generator that
        # occurs in it exactly once, so a second pass changes nothing
        assert all(1 not in Counter(map(abs, r)).values()
                   for r in q.relators), p
        assert simplify(q) == q
        eliminated += len(p.generators) - len(q.generators)
    assert eliminated > 300
    assert min(seen["defining word cancelled"], seen["core trimmed"]) >= 100, \
        seen


def test_simplify_normalizes_only_its_input_and_output(monkeypatch):
    # a relator is put in cyclic normal form once when the kernel
    # presentation is built and once when it survives the loop, never after
    # each elimination and never again in the result's constructor
    scanned, survivors = [], []
    least_rotation, renumber = words._least_rotation, words._renumber

    def counting(w, lo):
        scanned.append(len(w))
        return least_rotation(w, lo)

    def renumbering(w, new_id):  # _tietze renumbers each survivor once
        survivors.append(len(w))
        return renumber(w, new_id)

    monkeypatch.setattr(words, "_least_rotation", counting)
    monkeypatch.setattr(words, "_renumber", renumbering)
    (kernel,) = schreier_kernels(monkeypatch, (5,))
    work = sum(scanned)
    letters_in = sum(map(len, kernel.relators))
    # 1170 letters in and 6624 in the survivors, merged into 5223 out.  One
    # normalization scans each letter at most twice (a tie scans the
    # inverse too): 14 740 letters.  Normalizing the result again in its
    # constructor scanned 25 186, re-normalizing each touched relator after
    # every elimination 184 722.
    assert work <= 2 * (letters_in + sum(survivors)), work


def find_and_drop_tietze_eliminate(p, gen, defining):
    """Tietze elimination by a linear scan for the defining relator and a
    letter-by-letter renumbering of the substituted relators."""
    g = p.generator_index(gen)
    if any(abs(x) == g for x in defining):
        raise NoDefiningRelator(f"defining word contains {gen!r}")
    defining = reduce_word(defining)
    target = cyclic_normal_form(multiply((g,), invert(defining)))
    idx = next((i for i, r in enumerate(p.relators) if r == target), None)
    if idx is None:
        raise NoDefiningRelator(f"no relator defines {gen!r} as the given word")
    inv = invert(defining)
    relators = []
    for i, r in enumerate(p.relators):
        if i == idx:
            continue
        w = reduce_word(y for x in r for y in (defining if x == g else
                                               inv if x == -g else (x,)))
        out = []
        for x in w:
            assert abs(x) != g
            out.append(x if abs(x) < g else x - (1 if x > 0 else -1))
        relators.append(tuple(out))
    return Presentation(p.generators[:g - 1] + p.generators[g:], relators)


def test_tietze_eliminate_matches_find_and_drop_oracle():
    rng = random.Random(16)
    seen = {"eliminated": 0, "no relator": 0, "contains gen": 0}
    for _ in range(300):
        p = random_presentation(rng)
        g = rng.randrange(1, len(p.generators) + 1)
        kind = rng.random()
        defining = tuple(x for x in random_letters(rng, len(p.generators), 5)
                         if abs(x) != g)
        once = [(r, x) for r in p.relators for x in set(map(abs, r))
                if sum(abs(y) == x for y in r) == 1]
        if kind < 0.6 and once:
            # a relator g^-1 * u defines g as u, as simplify finds it
            r, g = rng.choice(once)
            pos = next(i for i, x in enumerate(r) if abs(x) == g)
            rot = r[pos:] + r[:pos]
            if rot[0] < 0:
                rot = invert(rot)
                rot = rot[-1:] + rot[:-1]
            defining = invert(rot[1:])
        elif kind < 0.8:
            defining = defining + (g * rng.choice((1, -1)),)
        gen = p.generators[g - 1]
        try:
            expected = format_presentation(
                find_and_drop_tietze_eliminate(p, gen, defining))
        except NoDefiningRelator as exc:
            with pytest.raises(NoDefiningRelator) as got:
                tietze_eliminate(p, gen, defining)
            assert str(got.value) == str(exc)
            seen["contains gen" if "contains" in str(exc)
                 else "no relator"] += 1
            continue
        assert format_presentation(tietze_eliminate(p, gen, defining)) \
            == expected
        seen["eliminated"] += 1
    assert min(seen.values()) >= 40, seen
