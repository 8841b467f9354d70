import functools
import itertools
import math
import random

import pytest

from cuspidal.errors import BudgetExceeded, InvalidParameter
from cuspidal.homcount import (_build_plan, _compile, _evaluate, _search,
                               _symmetric_group, count_homs, invert_perm,
                               relator_triviality_check)
from cuspidal.presentations import (derive_pi1_via_rs, oka_quotient,
                                    presentation_G, presentation_G_raw,
                                    presentation_oka, presentation_pi1,
                                    presentation_pi1_reduced,
                                    presentation_zariski3)
from cuspidal.words import GroupMap, Presentation


def identity_perm(k: int):
    return tuple(range(k))


def compose(a, b):
    """a then b."""
    return tuple(b[x] for x in a)


def word_image(w, assignment):
    """Image of a nonempty word; assignment maps the 1-based generator index
    to a permutation."""
    out = identity_perm(len(assignment[abs(w[0])]))
    for x in w:
        p = assignment[abs(x)]
        out = compose(out, p if x > 0 else invert_perm(p))
    return out


def naive_homs(p: Presentation, k: int) -> list:
    """Try every assignment of permutations to generators; keep the homs."""
    perms = list(itertools.permutations(range(k)))
    ident = identity_perm(k)
    homs = []
    for assignment in itertools.product(perms, repeat=len(p.generators)):
        asg = {i + 1: perm for i, perm in enumerate(assignment)}
        if all((not r) or word_image(r, asg) == ident for r in p.relators):
            homs.append(assignment)
    return homs


def naive_count(p: Presentation, k: int) -> int:
    return len(naive_homs(p, k))


def naive_generates_sym(perms, k: int) -> bool:
    """Closure of the identity under right multiplication by perms."""
    seen = {identity_perm(k)}
    frontier = list(seen)
    while frontier:
        frontier = [b for b in {compose(a, g) for a in frontier
                                for g in perms} if b not in seen]
        seen.update(frontier)
    return len(seen) == math.factorial(k)


def hom_image(w, h, k: int):
    """Image of the word w under the hom with generator images h."""
    return word_image(w, dict(enumerate(h, 1))) if w else identity_perm(k)


def conjugate_hom(h, s):
    """The hom x -> s^-1 h(x) s."""
    return tuple(compose(compose(invert_perm(s), x), s) for x in h)


def random_presentation(rng, ngen=2, nrel=2, maxlen=6):
    relators = []
    for _ in range(nrel):
        relators.append(tuple(
            rng.choice([s * g for s in (1, -1) for g in range(1, ngen + 1)])
            for _ in range(rng.randrange(1, maxlen + 1))))
    return Presentation([f"g{i}" for i in range(ngen)], relators)


def test_permutation_algebra():
    a = (1, 2, 0)
    b = (0, 2, 1)
    # left-to-right composition: (a then b)
    assert compose(a, b) == tuple(b[x] for x in a)
    assert compose(a, invert_perm(a)) == identity_perm(3)
    assert word_image((1, -1), {1: a}) == identity_perm(3)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_symmetric_group_tables_match_compose(k):
    group = _symmetric_group(k)
    index = {perm: i for i, perm in enumerate(group.elements)}
    assert group.elements == tuple(itertools.permutations(range(k)))
    assert group.mul == tuple(tuple(index[compose(a, b)]
                                    for b in group.elements)
                              for a in group.elements)
    assert group.inv == tuple(index[invert_perm(a)] for a in group.elements)


def test_count_matches_naive_enumeration():
    rng = random.Random(31)
    for _ in range(200):
        p = random_presentation(rng)
        k = rng.choice((2, 3))
        assert count_homs(p, k).total == naive_count(p, k)


def test_known_counts():
    # free group of rank 2: every pair of permutations works
    free2 = Presentation(("a", "b"), [])
    assert count_homs(free2, 3).total == 36
    # Z/2 * Z/3: 4 choices of order <= 2 times 3 choices of order dividing 3
    oka3 = Presentation(("a", "b"), [(1, 1), (2, 2, 2)])
    assert count_homs(oka3, 3).total == 12
    # cyclic group of order 2 into S_4: identity + 9 involutions
    z2 = Presentation(("a",), [(1, 1)])
    assert count_homs(z2, 4).total == 10


def test_surjective_counting():
    free1 = Presentation(("a",), [])
    rep = count_homs(free1, 3, count_surjective=True)
    assert rep.total == 6
    assert rep.surjective == 0  # S_3 is not cyclic
    free2 = Presentation(("a", "b"), [])
    rep = count_homs(free2, 2, count_surjective=True)
    assert rep.total == 4 and rep.surjective == 3


def test_symbol_range_validated():
    p = Presentation(("a",), [])
    with pytest.raises(InvalidParameter):
        count_homs(p, 1)
    with pytest.raises(InvalidParameter):
        count_homs(p, 6)


def test_budget_exceeded():
    p = Presentation(tuple(f"g{i}" for i in range(4)), [])
    with pytest.raises(BudgetExceeded):
        count_homs(p, 5, budget=10)


def test_triviality_check_flags_bad_maps():
    src = Presentation(("a",), [(1, 1)])        # Z/2
    tgt = Presentation(("b",), [(1, 1, 1)])     # Z/3
    bad = GroupMap(src, tgt, ((1,),))           # a -> b is not well defined
    rep = relator_triviality_check(bad, 3)
    assert not rep.passed
    assert rep.witnesses
    good = GroupMap(src, tgt, ((),))            # a -> 1 is fine
    rep = relator_triviality_check(good, 3)
    assert rep.passed and not rep.witnesses
    assert rep.homs_checked[3] == 3


def test_budget_counts_search_nodes():
    free1 = Presentation(("a",), [])
    # S_5 has 7 conjugacy classes: one node per representative when counting
    rep = count_homs(free1, 5, budget=7)
    assert (rep.total, rep.nodes) == (120, 7)
    with pytest.raises(BudgetExceeded):
        count_homs(free1, 5, budget=6)


def partitions(k: int) -> int:
    """The number of partitions of k, the conjugacy classes of S_k."""
    ways = [1] + [0] * k
    for part in range(1, k + 1):
        for total in range(part, k + 1):
            ways[total] += ways[total - part]
    return ways[k]


@pytest.mark.parametrize("k", [4, 5])
def test_closed_form_counts(k):
    # a free group of rank r: every r-tuple of permutations
    for rank in (2, 3):
        free = Presentation(tuple(f"g{i}" for i in range(rank)), [])
        assert count_homs(free, k).total == math.factorial(k) ** rank
    # Z^2: commuting pairs, k! times the number of classes
    z2 = Presentation(("a", "b"), [(1, 2, -1, -2)])
    assert count_homs(z2, k).total == math.factorial(k) * partitions(k)
    assert count_homs(z2, k).total == {4: 120, 5: 840}[k]


def centralizer_size(h, k: int) -> int:
    return sum(all(compose(s, x) == compose(x, s) for x in h)
               for s in itertools.permutations(range(k)))


def test_search_yields_one_hom_per_conjugacy_orbit():
    """On random presentations the yielded homs are pairwise non-conjugate
    and meet every orbit, and each weight is the size of its orbit,
    k! / |C(images)|."""
    rng = random.Random(77)
    for _ in range(200):
        k = rng.choice((2, 3, 4))
        p = random_presentation(rng, rng.randint(1, 3), rng.randint(0, 3), 6)
        elements = _symmetric_group(k).elements
        orbits = set()
        for images, _, weight in _search(p, k, 10**9):
            h = tuple(elements[x] for x in images)
            orbit = frozenset(conjugate_hom(h, s)
                              for s in itertools.permutations(range(k)))
            assert orbit not in orbits
            orbits.add(orbit)
            assert weight * centralizer_size(h, k) == math.factorial(k)
            assert weight == len(orbit)
        assert sum(map(len, orbits)) == naive_count(p, k)


# (family, k, the least node budget that completes the count): the nodes
# the plan's search visits, so a change of generator or check order shows
MINIMAL_BUDGETS = [
    ("pi1(3)", lambda: presentation_pi1(3), 4, 1389),
    ("pi1-reduced(3)", lambda: presentation_pi1_reduced(3), 4, 614),
    ("zariski3", lambda: presentation_zariski3("corrected"), 4, 636),
    ("derived(3)", lambda: derive_pi1_via_rs(3), 4, 3138),
    ("pi1(4)", lambda: presentation_pi1(4), 3, 1604),
    ("G-raw", presentation_G_raw, 4, 606),
]


@pytest.mark.parametrize("build, k, budget",
                         [case[1:] for case in MINIMAL_BUDGETS],
                         ids=[case[0] for case in MINIMAL_BUDGETS])
def test_search_nodes_are_pinned(build, k, budget):
    p = build()
    assert count_homs(p, k, budget=budget).nodes == budget
    with pytest.raises(BudgetExceeded):
        count_homs(p, k, budget=budget - 1)


def random_word(rng, ngen, maxlen):
    return tuple(rng.choice([s * g for s in (1, -1)
                             for g in range(1, ngen + 1)])
                 for _ in range(rng.randrange(maxlen + 1)))


def check_against_oracle(rng, p, k):
    """Counts, surjective counts and relator triviality of p into S_k
    against brute force over every assignment."""
    ngen = len(p.generators)
    homs = {j: naive_homs(p, j) for j in range(2, k + 1)}
    want = homs[k]

    rep = count_homs(p, k, count_surjective=True)
    assert rep.total == len(want)
    assert rep.surjective == sum(naive_generates_sym(h, k) for h in want)

    nsrc = rng.randint(1, 2)
    source = random_presentation(rng, nsrc, rng.randint(1, 2), 4)
    m = GroupMap(source, p, tuple(random_word(rng, ngen, 3)
                                  for _ in range(nsrc)))
    check = relator_triviality_check(m, k)
    assert check.homs_checked == {j: len(homs[j]) for j in homs}
    # witnesses come up to conjugation: conjugating them gives exactly
    # the failing (hom, relator) pairs of the oracle
    failing = {(j, ri, h) for j in homs for h in homs[j]
               for ri, r in enumerate(source.relators)
               if hom_image(m.apply(r), h, j) != identity_perm(j)}
    conjugates = {(w.symbols, w.relator_index, conjugate_hom(
                      w.assignment, s))
                  for w in check.witnesses
                  for s in itertools.permutations(range(w.symbols))}
    assert conjugates == failing
    assert check.passed == (not failing)
    for w in check.witnesses:
        relator = source.relators[w.relator_index]
        assert w.image == hom_image(m.apply(relator), w.assignment,
                                    w.symbols)


def test_engine_matches_oracle_on_random_presentations():
    """The oracle on 240 random presentations into S_2, S_3 and S_4."""
    rng = random.Random(2024)
    for _ in range(240):
        ngen = rng.randint(1, 3)
        k = rng.choice((2, 3, 4))
        p = random_presentation(rng, ngen, rng.randint(1, 3), 6)
        check_against_oracle(rng, p, k)


def test_engine_matches_oracle_into_s5():
    """The oracle into S_5 on 20 random two-generator presentations."""
    rng = random.Random(5)
    for _ in range(20):
        p = random_presentation(rng, 2, rng.randint(1, 3), 6)
        check_against_oracle(rng, p, 5)


def quadratic_plan(p: Presentation):
    """The assignment plan by rescanning every relator at every step, with
    each step's checks in relator order."""
    ngen = len(p.generators)
    gens_of = [sorted({abs(x) - 1 for x in r}) for r in p.relators]
    occurrences = [[sum(1 for x in r if abs(x) - 1 == g) for g in range(ngen)]
                   for r in p.relators]
    assigned, checked, steps = set(), set(), []

    def completed(g):
        return [ri for ri, gens in enumerate(gens_of)
                if ri not in checked and gens
                and all(x in assigned or x == g for x in gens)]

    while len(assigned) < ngen:
        det = None
        for ri, gens in enumerate(gens_of):
            if ri in checked:
                continue
            missing = [g for g in gens if g not in assigned]
            if len(missing) == 1 and occurrences[ri][missing[0]] == 1:
                key = (len(p.relators[ri]), missing[0], ri)
                if det is None or key < det:
                    det = key
        if det is not None:
            _, g, ri = det
            r = p.relators[ri]
            pos = next(i for i, x in enumerate(r) if abs(x) - 1 == g)
            checked.add(ri)
            solve, positive = _compile(r[pos + 1:] + r[:pos]), r[pos] > 0
        else:
            g = min((g for g in range(ngen) if g not in assigned),
                    key=lambda g: (-len(completed(g)), g))
            solve = positive = None
        checks = completed(g)
        assigned.add(g)
        checked.update(checks)
        steps.append((g, [_compile(p.relators[ri]) for ri in checks],
                      solve, positive))
    return steps


def shortest_checks_first(plan):
    """The plan with each step's checks stably sorted by length."""
    return [(g, tuple(sorted(checks, key=len)), solve, positive)
            for g, checks, solve, positive in plan]


SHIPPED = [
    ("G", presentation_G), ("G-raw", presentation_G_raw),
    ("zariski3-stated", lambda: presentation_zariski3("stated")),
    ("zariski3", lambda: presentation_zariski3("corrected")),
    ("oka(3)", lambda: presentation_oka(3)),
    ("oka(4)", lambda: presentation_oka(4)),
    ("oka-quotient(3)", lambda: oka_quotient(3)[1]),
] + [(f"pi1({n})", functools.partial(presentation_pi1, n))
     for n in (2, 3, 4, 5)] \
  + [(f"pi1-reduced({n})", functools.partial(presentation_pi1_reduced, n))
     for n in (2, 3, 4, 5, 7)] \
  + [(f"derived({n})", functools.partial(derive_pi1_via_rs, n))
     for n in (2, 3, 4)]


@pytest.mark.parametrize("build", [case[1] for case in SHIPPED],
                         ids=[case[0] for case in SHIPPED])
def test_plan_matches_quadratic_oracle_on_shipped_presentations(build):
    p = build()
    assert _build_plan(p) == shortest_checks_first(quadratic_plan(p))


def test_plan_matches_quadratic_oracle_on_random_presentations():
    rng = random.Random(1729)
    for _ in range(300):
        p = random_presentation(rng, rng.randint(1, 6), rng.randint(0, 8),
                                rng.randint(1, 8))
        if rng.random() < 0.3:  # repeated relators and an empty one
            p = Presentation(p.generators, list(p.relators) * 2 + [()])
        assert _build_plan(p) == shortest_checks_first(quadratic_plan(p))


def test_negative_budget_is_rejected():
    p = Presentation(("a",), [(1, 1)])
    with pytest.raises(InvalidParameter):
        count_homs(p, 3, budget=-1)
    # a zero budget is a search that stops at its first node
    with pytest.raises(BudgetExceeded):
        count_homs(p, 3, budget=0)


def reference_search(p: Presentation, k: int, budget: int,
                     visited: list[int] | None = None):
    """_search as one depth-first loop over every step of the plan, with a
    candidate iterator per step: an enumerated step iterates its orbit
    table, a determined one a single solved image."""
    group = _symmetric_group(k)
    mul, inv = group.mul, group.inv
    steps = _build_plan(p)
    ngen = len(p.generators)
    images = [0] * ngen
    slots = [0] * (2 * ngen)
    depth = len(steps)
    if not depth:
        yield images, slots, 1
        return

    def candidates(step, h):
        _, _, solve, positive = steps[step]
        if solve is None:
            return iter(group.orbits(h))
        x = _evaluate(solve, slots, mul)
        return iter(((inv[x] if positive else x, 1, h),))

    nodes = 0
    weights = [1] * depth
    pending = [None] * depth
    pending[0] = candidates(0, group.whole)
    step = 0
    while step >= 0:
        g, checks, _, _ = steps[step]
        for x, size, stab in pending[step]:
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"node budget {budget} exceeded")
            images[g] = x
            slots[2 * g] = x
            slots[2 * g + 1] = inv[x]
            if any(_evaluate(code, slots, mul) for code in checks):
                continue
            weight = weights[step] * size
            if step + 1 == depth:
                yield images, slots, weight
            else:
                step += 1
                weights[step] = weight
                pending[step] = candidates(step, stab)
                break
        else:
            step -= 1
    if visited is not None:
        visited[0] = nodes


def search_trace(search, p, k, budget):
    """The (images, slots, weight) a search yields, and the nodes it
    visited."""
    visited = [0]
    homs = [(tuple(images), tuple(slots), weight)
            for images, slots, weight in search(p, k, budget, visited)]
    return homs, visited[0]


def check_against_reference_search(p, k):
    """_search yields the reference's homs in the reference's order, visits
    as many nodes, and stops at the same node when the budget is short."""
    want = search_trace(reference_search, p, k, 10**9)
    assert search_trace(_search, p, k, 10**9) == want
    visited = want[1]
    assert search_trace(_search, p, k, visited) == want
    if visited:
        for budget in (visited - 1, visited // 2):
            with pytest.raises(BudgetExceeded):
                search_trace(_search, p, k, budget)


SEARCH_CASES = [(name, build, k) for name, build in SHIPPED
                for k in (2, 3, 4)] + [
    ("pi1(3)", functools.partial(presentation_pi1, 3), 5),
    ("zariski3", lambda: presentation_zariski3("corrected"), 5),
    ("G", presentation_G, 5),
]


@pytest.mark.parametrize("build, k", [case[1:] for case in SEARCH_CASES],
                         ids=[f"{name}, k = {k}"
                              for name, _, k in SEARCH_CASES])
def test_search_matches_reference_on_shipped_presentations(build, k):
    check_against_reference_search(build(), k)


def test_search_matches_reference_on_random_presentations():
    """0 to 4 generators; about a third of the presentations get a
    one-letter relator, so that their plan opens with a determined step."""
    rng = random.Random(4181)
    opens_determined = 0
    for _ in range(300):
        ngen = rng.randint(0, 4)
        if ngen:
            p = random_presentation(rng, ngen, rng.randint(0, 4), 6)
        else:
            p = Presentation((), [()] * rng.randint(0, 2))
        if ngen and rng.random() < 1 / 3:
            letter = rng.choice((1, -1)) * rng.randint(1, ngen)
            p = Presentation(p.generators, list(p.relators) + [(letter,)])
        plan = _build_plan(p)
        opens_determined += bool(plan) and plan[0][2] is not None
        check_against_reference_search(p, rng.choice((2, 3, 4)))
    assert opens_determined >= 100
