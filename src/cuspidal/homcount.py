"""Homomorphism counting into small symmetric groups.

Permutations on k symbols are tuples of length k.  Words act left to right:
the image of u*v is image(u) followed by image(v), i.e. the product a b
of two permutations is x -> b[a[x]].

The search numbers S_k as 0..k!-1 (lexicographic order, so 0 is the
identity) and works on that numbering only: a multiplication table and an
inverse table are built once per k, on first use.  Each relator is compiled
once into an array of slots, one slot per letter, and evaluated by walking
the multiplication table.

Generator images are assigned one at a time along a statically planned
order.  A generator that occurs exactly once in a relator whose other
generators are already assigned is *determined*: its image is solved for
directly instead of enumerated.  Relators are verified as soon as all their
generators have images.

Hom(G, S_k) is closed under conjugation, and conjugation preserves
surjectivity and whether a word maps to the identity, so the search walks
one hom per conjugacy orbit.  It keeps the stabilizer H of the images
assigned so far: the elements commuting with all of them, S_k at the start.
An enumerated generator runs over representatives of the orbits of H acting
on S_k by conjugation, each weighted by its orbit size, and an image x
shrinks H to its centralizer C_H(x).  A determined image is a word in
earlier images, so H fixes it and stays as it is.  Each orbit of homs is
met exactly once, and the product of the orbit sizes along its path is
|S_k| / |C(images)|, the size of the orbit.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from operator import itemgetter

from ._record import Record
from .errors import BudgetExceeded, InvalidParameter
from .words import GroupMap, Presentation, Word

Permutation = tuple[int, ...]

# count_homs's default budget, and relator_triviality_check's for each k
_NODE_CAP = 10**9


def invert_perm(a: Permutation) -> Permutation:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


class HomCountReport(Record):
    __slots__ = ("symbols", "total", "surjective", "nodes")
    _defaults = {"surjective": None, "nodes": 0}

    symbols: int
    total: int
    surjective: int | None
    nodes: int  # the search nodes visited, counted as the budget counts


class _SymmetricGroup:
    """S_k numbered 0..k!-1: elements[i] is the permutation with index i,
    mul[a][b] the index of elements[a] then elements[b], the permutation
    x -> elements[b][elements[a][x]], and inv[a] that of its inverse.  Get
    one through _symmetric_group, which builds each k >= 2 once."""

    def __init__(self, k: int):
        self.elements = tuple(itertools.permutations(range(k)))
        index = {perm: i for i, perm in enumerate(self.elements)}
        # a then b is itemgetter(*a)(b), a tuple since k >= 2
        self.mul = tuple(tuple(map(index.__getitem__,
                                   map(itemgetter(*a), self.elements)))
                         for a in self.elements)
        self.inv = tuple(index[invert_perm(a)] for a in self.elements)
        self.whole = frozenset(range(len(self.elements)))
        self._orbits: dict[frozenset[int], tuple] = {}
        self._subgroups = {self.whole: self.whole}

    def orbits(self, h: frozenset[int]) -> tuple:
        """The orbits of the subgroup h acting on S_k by conjugation, as
        (representative, orbit size, stabilizer) triples in increasing
        order of representative, each the least index of its orbit; the
        stabilizer of x is its centralizer in h.  Built on first use for
        each h and kept, with every stabilizer interned so that equal
        subgroups are one object."""
        table = self._orbits.get(h)
        if table is None:
            mul, inv = self.mul, self.inv
            seen: set[int] = set()
            table = []
            for x in range(len(self.elements)):
                if x not in seen:
                    orbit = {mul[mul[inv[g]][x]][g] for g in h}
                    seen |= orbit
                    stab = frozenset(g for g in h if mul[g][x] == mul[x][g])
                    table.append((x, len(orbit),
                                  self._subgroups.setdefault(stab, stab)))
            table = self._orbits[h] = tuple(table)
        return table


@functools.cache
def _symmetric_group(k: int) -> _SymmetricGroup:
    if not 2 <= k <= 5:
        raise InvalidParameter("symbol count must be between 2 and 5")
    return _SymmetricGroup(k)


def _build_plan(p: Presentation):
    """The static assignment plan: one step (g, checks, solve, positive) per
    generator, in the order the search assigns them.  g is a 0-based
    generator index and checks the compiled relators that become fully
    assigned at the step, shortest first, so that a candidate is rejected
    on its cheapest relator.  A determined generator occurs once, as g^s,
    in a relator u g^s v whose other generators are assigned before it:
    solve is the compiled v u, so that g^s = (v u)^-1, and positive says
    s = 1.  An enumerated generator has solve and positive None.

    The determined generator of least (relator length, generator, relator)
    is taken first; failing one, the generator that completes the most
    relators, least first, is enumerated.  Each relator keeps the count of
    its generators not yet assigned, and each generator the unchecked
    relators that lack only it, so a step reads these buckets instead of
    rescanning the relators: the plan costs time linear in the relator
    letters, plus a pass over the generators per enumerated step.
    """
    ngen = len(p.generators)
    relators = p.relators
    gens_of = [{abs(x) - 1 for x in r} for r in relators]
    relators_of: list[list[int]] = [[] for _ in range(ngen)]
    for ri, gens in enumerate(gens_of):
        for g in gens:
            relators_of[g].append(ri)
    missing = [len(gens) for gens in gens_of]
    # g -> the unchecked relators whose only unassigned generator is g
    lacking: list[set[int]] = [set() for _ in range(ngen)]
    # (length, g, relator) for each relator that determines g, while unchecked
    determined: list[tuple[int, int, int]] = []
    assigned = [False] * ngen
    checked = [False] * len(relators)
    steps = []

    def lacks_one(ri: int) -> None:
        g = next(x for x in gens_of[ri] if not assigned[x])
        lacking[g].add(ri)
        r = relators[ri]
        if r.count(g + 1) + r.count(-g - 1) == 1:
            heapq.heappush(determined, (len(r), g, ri))

    for ri, count in enumerate(missing):
        if count == 1:
            lacks_one(ri)
    while len(steps) < ngen:
        while determined and checked[determined[0][2]]:
            heapq.heappop(determined)
        if determined:
            _, g, ri = heapq.heappop(determined)
            r = relators[ri]
            pos = next(i for i, x in enumerate(r) if abs(x) - 1 == g)
            checked[ri] = True
            solve, positive = _compile(r[pos + 1:] + r[:pos]), r[pos] > 0
        else:
            g = min((g for g in range(ngen) if not assigned[g]),
                    key=lambda g: (-len(lacking[g]), g))
            solve = positive = None
        checks = sorted((ri for ri in lacking[g] if not checked[ri]),
                        key=lambda ri: (len(relators[ri]), ri))
        assigned[g] = True
        for ri in checks:
            checked[ri] = True
        for ri in relators_of[g]:
            missing[ri] -= 1
            if missing[ri] == 1:
                lacks_one(ri)
        steps.append((g, tuple(_compile(relators[ri]) for ri in checks),
                      solve, positive))
    return steps


def _compile(w: Word) -> tuple[int, ...]:
    """Slots of a word: generator g (0-based) reads slot 2g, its inverse
    slot 2g + 1."""
    return tuple([2 * x - 2 if x > 0 else -2 * x - 1 for x in w])


def _evaluate(code, slots, mul) -> int:
    acc = 0
    for s in code:
        acc = mul[acc][slots[s]]
    return acc


def _search(p: Presentation, k: int, budget: int,
            visited: list[int] | None = None):
    """Yield (images, slots, weight) for the homs of p into S_k, one per
    conjugacy orbit: images is the list of generator image indices, aligned
    with p.generators, and slots holds them in the layout of _compile, ready
    for _evaluate; both are reused, so read them before the next item.
    weight is the size of the orbit, the number of homs the yielded one
    stands for.  When the search ends, visited[0] (if given) is set to the
    nodes it visited."""
    group = _symmetric_group(k)
    mul, inv = group.mul, group.inv
    ngen = len(p.generators)
    images = [0] * ngen
    slots = [0] * (2 * ngen)
    # The search backtracks over levels: level e > 0 is the plan's e-th
    # enumerated step, and runs[e] that step and the determined ones after
    # it, solved in one straight run once the step has an image.  Level 0
    # has a single image, for no generator, and runs the determined steps
    # before the first enumerated one.
    runs = [[]]
    for step in _build_plan(p):
        if step[2] is None:
            runs.append([])
        runs[-1].append(step)
    depth = len(runs)
    nodes = 0
    weights = [1] * depth
    pending = [None] * depth  # an orbit-table iterator per level
    pending[0] = iter(((0, 1, group.whole),))
    e = 0
    while e >= 0:
        run = runs[e]
        for x, size, stab in pending[e]:
            for g, checks, solve, positive in run:
                nodes += 1
                if nodes > budget:
                    raise BudgetExceeded(f"node budget {budget} exceeded")
                if solve is not None:
                    x = 0
                    for s in solve:
                        x = mul[x][slots[s]]
                    if positive:
                        x = inv[x]
                images[g] = x
                slots[2 * g] = x
                slots[2 * g + 1] = inv[x]
                for code in checks:
                    acc = 0
                    for s in code:
                        acc = mul[acc][slots[s]]
                    if acc:
                        break
                else:
                    continue
                break  # a check failed: on to the level's next image
            else:
                weight = weights[e] * size
                if e + 1 == depth:
                    yield images, slots, weight
                else:
                    e += 1
                    weights[e] = weight
                    pending[e] = iter(group.orbits(stab))
                    break
        else:
            e -= 1
    if visited is not None:
        visited[0] = nodes


def _generates_sym(images, k: int) -> bool:
    group = _symmetric_group(k)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for g in images:
                b = group.mul[a][g]
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return len(seen) == len(group.elements)


def count_homs(p: Presentation, k: int, budget: int = _NODE_CAP,
               count_surjective: bool = False) -> HomCountReport:
    """Exact number of homomorphisms into the symmetric group on k symbols.

    The budget caps the search nodes: each image tried for an enumerated
    generator (one per orbit of the current stabilizer) and each image
    solved for a determined one is one node.  BudgetExceeded is raised when
    the search would pass it; otherwise the report's nodes is the number
    visited."""
    if budget < 0:
        raise InvalidParameter("budget must be >= 0")
    total = 0
    surj = 0
    visited = [0]
    for images, _, weight in _search(p, k, budget, visited):
        total += weight
        if count_surjective and _generates_sym(images, k):
            surj += weight
    return HomCountReport(k, total, surj if count_surjective else None,
                          visited[0])


class TrivialityWitness(Record):
    __slots__ = ("symbols", "relator_index", "assignment", "image")

    symbols: int
    relator_index: int
    assignment: tuple[Permutation, ...]
    image: Permutation


class TrivialityReport(Record):
    __slots__ = ("passed", "homs_checked", "witnesses")

    passed: bool
    homs_checked: dict[int, int]
    witnesses: tuple[TrivialityWitness, ...]


def relator_triviality_check(m: GroupMap, kmax: int) -> TrivialityReport:
    """Necessary condition for a GroupMap to be a homomorphism.

    For every homomorphism of the target into S_k (k <= kmax), every source
    relator's image word must evaluate to the identity.  homs_checked counts
    every homomorphism; witnesses are listed up to conjugation: each
    homomorphism that sends a relator image off the identity is conjugate to
    a witness for that relator.  The search of each k is capped at
    count_homs's default budget.
    """
    if not 2 <= kmax <= 5:
        raise InvalidParameter("kmax must be between 2 and 5")
    relator_images = [(ri, _compile(w))
                      for ri, w in enumerate(m.apply(r)
                                             for r in m.source.relators)
                      if w]
    witnesses = []
    homs_checked = {}
    for k in range(2, kmax + 1):
        group = _symmetric_group(k)
        count = 0
        for images, slots, weight in _search(m.target, k, _NODE_CAP):
            count += weight
            for ri, code in relator_images:
                got = _evaluate(code, slots, group.mul)
                if got:
                    witnesses.append(TrivialityWitness(
                        k, ri, tuple(group.elements[x] for x in images),
                        group.elements[got]))
        homs_checked[k] = count
    return TrivialityReport(not witnesses, homs_checked, tuple(witnesses))
