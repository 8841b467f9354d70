"""Reidemeister-Schreier presentations for kernels of maps onto finite
abelian groups.

The target is a direct sum of cyclic groups; each source generator is sent to
a residue tuple.  SchreierSystem owns the coset table: the coset reached by
each letter, the Schreier transversal and the kernel letter read on each
edge.  It rewrites words of the kernel, and reads the kernel relators'
exponent sums straight off the table for the kernel's abelianization; a
word whose walk does not end at the coset it started from raises NotInKernel.
"""

from __future__ import annotations

from collections import deque
from itertools import compress, product
from math import prod
from operator import add, itemgetter, neg, sub
from typing import Iterator

from ._record import Record
from .errors import InvalidParameter, NotGenerating, NotInKernel
from .packing import Packing
from .words import (Presentation, Word, _check_letters, expanded_letters,
                    invert, multiply, simplify)


class AbelianTarget(Record):
    """Direct sum of Z/moduli[k] with an image tuple per source generator."""

    __slots__ = ("moduli", "generators", "images")

    moduli: tuple[int, ...]
    generators: tuple[str, ...]
    images: tuple[tuple[int, ...], ...]

    def __init__(self, moduli, generators, images):
        moduli = tuple(moduli)
        if any(m < 1 for m in moduli):
            raise InvalidParameter("moduli must be positive")
        generators = tuple(generators)
        images = tuple(tuple(r % m for r, m in zip(img, moduli))
                       for img in images)
        if len(images) != len(generators):
            raise ValueError("one image tuple per generator required")
        if any(len(img) != len(moduli) for img in images):
            raise ValueError("image arity must match moduli count")
        object.__setattr__(self, "moduli", moduli)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "images", images)
        # the target is finite, so the images generate it exactly when
        # every element is a sum of images
        reached = [self.identity()]
        seen = set(reached)
        for el in reached:
            new = {self.add(el, img) for img in images} - seen
            seen |= new
            reached += new
        if len(reached) != self.size:
            raise NotGenerating("generator images do not generate the target")

    @property
    def size(self) -> int:
        return prod(self.moduli)

    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.moduli)

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def neg(self, a) -> tuple[int, ...]:
        return tuple((-x) % m for x, m in zip(a, self.moduli))

    def image_of_letter(self, x: int) -> tuple[int, ...]:
        img = self.images[abs(x) - 1]
        return img if x > 0 else self.neg(img)


class SchreierSystem:
    """The coset table of the kernel of p ->> target and its Schreier
    generators.  p is a presentation or, for `exponent_rows` only, a
    straight-line program over the generators.

    Cosets are the target's elements in row-major order, coset 0 the
    identity.  The representatives form a Schreier transversal (every prefix
    of a representative is a representative), built breadth-first from coset
    0 trying the generators in declaration order; the images generate the
    target, so it reaches every coset.
    The Schreier generator of (coset c, generator g) is
    rep(c) * g * rep(c g)^-1; those that freely reduce to the identity are
    never emitted, the rest are named <generator>_<residues of c>.
    """

    def __init__(self, p, target: AbelianTarget):
        if target.generators != p.generators:
            raise ValueError(
                "target images must be indexed by p's generators")
        self.target = target
        elements = list(product(*(range(m) for m in target.moduli)))
        index = {el: i for i, el in enumerate(elements)}
        ngen = len(p.generators)
        # Both tables are flat lists of one block of 2 * ngen + 1 entries per
        # coset.  The slot of coset c is the middle of its block, so the
        # entry of (c, signed source letter x) sits at slot + x.
        width = 2 * ngen + 1
        self._slots = range(ngen, len(elements) * width, width)
        # (coset, letter) -> the slot of the coset reached
        self._next = [0] * (len(elements) * width)
        for ci, el in enumerate(elements):
            for g in range(1, ngen + 1):
                cj = index[target.add(el, target.image_of_letter(g))]
                self._next[self._slots[ci] + g] = self._slots[cj]
                self._next[self._slots[cj] - g] = self._slots[ci]
        reps: list[Word | None] = [None] * len(elements)
        reps[0] = ()
        queue = deque([0])
        while queue:
            ci = queue.popleft()
            for g in range(1, ngen + 1):
                cj = self._next[self._slots[ci] + g] // width
                if reps[cj] is None:
                    reps[cj] = reps[ci] + (g,)
                    queue.append(cj)
        self.representatives: tuple[Word, ...] = tuple(reps)
        # (coset, letter) -> the signed kernel letter read on the way (0 for
        # a redundant generator)
        self._kernel_letter = [0] * (len(elements) * width)
        # The edge (coset c, generator g) is numbered c * ngen + g - 1.
        # (coset, letter) -> the edge passed: a letter g from coset c passes
        # (c, g) forward, a letter g^-1 into coset c passes it backward.
        # Backward passes are numbered past the last edge.
        nedges = len(elements) * ngen
        self._edge = [0] * (len(elements) * width)
        names: list[str] = []
        words: list[Word] = []
        # the edge of each kernel generator
        edges: list[int] = []
        for ci, el in enumerate(elements):
            suffix = "_".join(str(r) for r in el)
            for g in range(1, ngen + 1):
                cj = self._next[self._slots[ci] + g] // width
                word = multiply(multiply(reps[ci], (g,)), invert(reps[cj]))
                letter = 0
                edge = ci * ngen + g - 1
                if word:
                    names.append(f"{p.generators[g - 1]}_{suffix}")
                    words.append(word)
                    letter = len(names)
                    edges.append(edge)
                self._kernel_letter[self._slots[ci] + g] = letter
                self._kernel_letter[self._slots[cj] - g] = -letter
                self._edge[self._slots[ci] + g] = edge
                self._edge[self._slots[cj] - g] = nedges + edge
        self.generator_names = tuple(names)
        self.generator_words = tuple(words)
        self._generator_edges = edges
        self._elements = elements
        # coset a, coset b -> the coset a + b, the sum over the summands of
        # its residue times the summand's place value in row-major order;
        # coset a -> the coset -a
        places = [len(elements) // prod(target.moduli[:k + 1])
                  for k in range(len(target.moduli))]
        self._sum = [[sum(c) for c in product(*(
            [(x + y) % m * place for y in range(m)]
            for x, m, place in zip(a, target.moduli, places)))]
            for a in elements]
        self._minus = [index[target.neg(a)] for a in elements]
        self._nodes = p.nodes

    def rewrite(self, w: Word, start_coset: int) -> Word:
        """Reidemeister-Schreier rewriting of the kernel word w starting at
        a coset; ValueError on a letter outside +-1..ngen."""
        _check_letters([w], len(self.target.generators), "kernel word")
        slot = start = self._slots[start_coset]
        out: list[int] = []
        for x in w:
            slot += x
            letter = self._kernel_letter[slot]
            slot = self._next[slot]
            if letter:
                if out and out[-1] == -letter:
                    out.pop()
                else:
                    out.append(letter)
        if slot != start:
            raise NotInKernel(f"a word of length {len(w)} is not in the kernel")
        return tuple(out)

    def exponent_rows(self, relators) -> Iterator[Iterator[dict[int, int]]]:
        """Abelianized Reidemeister-Schreier: the exponent-sum rows of the
        kernel relators, read off the coset table, one orbit per relator.

        A row maps the 0-based index of a kernel generator to its exponent
        sum.  A relator's orbit is a lazy iterator of its rows at cosets 0,
        1, ... in order; a row is built only when the orbit is advanced to
        it.  Zero rows are skipped and every row is yielded once, with its
        first nonzero entry made positive, since a repeated or negated row
        generates nothing new.  Equal relators give equal rows, so a
        repeated relator is not walked again.

        Each relator is walked once, from coset 0, counting with sign the
        edges (coset c, generator g) it passes: forward, a letter g from
        coset c, adds 1; backward, a letter g^-1 into coset c, subtracts 1.
        No rewritten word is built.  The target is abelian, so the walk from
        coset c passes the edges of that walk translated by c, as often.
        The row at coset c is therefore read off the same counts: the entry
        of a kernel generator is the count at its edge translated back by c
        (Sims, *Computation with Finitely Presented Groups*, 1994, ch. 2).

        The relators are words over the symbols of the straight-line
        program the system was built from (a presentation has no inner
        nodes).  Each inner node is walked once, from coset 0, composing
        the (end coset, counts) of its letters: counts(uv) = counts(u) +
        counts(v) translated by the end coset of u, and the inverse of a
        node ending at e, entered at coset c, subtracts its counts
        translated by c - e.  The counts of a node are packed into one
        integer (`_NodeWalks`), so a node letter costs a translation and an
        addition of integers; a generator letter stays one step through the
        table.

        Every relator must lie in the kernel (NotInKernel otherwise).  Its
        row at coset c is then A_c applied to its row at coset 0, where A_c
        is the map that conjugation by the representative of c induces on
        the kernel's abelianization Z^(kernel generators).  A_c is an
        automorphism, and conjugation by a kernel element acts trivially on
        the abelianization, so A_c A_c' = A_(c + c'): the lattice spanned by
        complete orbits is invariant under every A_c.  Hence if a relator's
        row at coset 0 lies in the lattice of the rows read before it, so do
        all its rows, and a reader may drop the rest of its orbit without
        changing the lattice (by induction, neither did the orbits it
        dropped before); `abelian.eliminate` does, once that row reduces to
        zero.  Two cases are seen here without any elimination, and end the
        orbit before it yields a row: a zero row at coset 0, whose
        translates are all zero, and a row at coset 0 that is, up to sign,
        a row yielded before.  A later translate that was yielded before is
        only skipped: the orbit goes on.
        """
        # coset c -> the edge of each kernel generator translated back by c
        shifted = [itemgetter(*self._translated_edges(c))
                   for c in range(len(self._slots))]
        single = len(self._generator_edges) == 1
        relators = [r for r in dict.fromkeys(relators) if r]
        walks = _NodeWalks(self, relators) if self._nodes else None
        seen = set()

        def orbit(counts):
            """The rows at cosets 0, 1, ... read off a relator's counts."""
            for c, row_of in enumerate(shifted):
                row = (row_of(counts),) if single else row_of(counts)
                first = next(filter(None, row), 0)
                if not first:
                    return
                if first < 0:
                    row = tuple(map(neg, row))
                if row not in seen:
                    seen.add(row)
                    yield dict(compress(enumerate(row), row))
                elif not c:
                    return

        for r in relators:
            end, counts, packed = self._walk(r, walks)
            if end:
                raise NotInKernel(
                    f"a relator of length {len(r)} is not in the kernel")
            if packed:
                moved = walks.packing.unpack(packed)
                counts = moved if counts is None else list(map(add, moved,
                                                               counts))
            if counts is not None:
                yield orbit(counts)

    def _walk(self, w: Word, walks):
        """(end coset, signed counts of the edges its generator letters
        pass or None if it has none, packed counts of its node letters) of
        the walk of w from coset 0; walks (a `_NodeWalks`) holds those of
        the inner nodes.  Generator letters count forward and backward
        passes apart, one table step each, and the two are subtracted at
        the end."""
        next_slot, edge, slots = self._next, self._edge, self._slots
        ngen = len(self.target.generators)
        width = 2 * ngen + 1
        nedges = len(slots) * ngen
        slot = slots[0]
        passes = None
        packed = 0
        for x in w:
            if -ngen <= x <= ngen:
                if passes is None:
                    passes = [0] * (2 * nedges)
                slot += x
                passes[edge[slot]] += 1
                slot = next_slot[slot]
            elif x > 0:
                coset = slot // width
                packed += walks.moved(x, coset)
                slot = slots[self._sum[coset][walks.ends[x - ngen - 1]]]
            else:
                coset = self._sum[slot // width][
                    self._minus[walks.ends[-x - ngen - 1]]]
                packed -= walks.moved(-x, coset)
                slot = slots[coset]
        counts = None if passes is None else list(map(sub, passes[:nedges],
                                                      passes[nedges:]))
        return slot // width, counts, packed

    def _translated_edges(self, c: int) -> list[int]:
        """The edge of each kernel generator, moved from its coset d to the
        coset d - c."""
        ngen = len(self.target.generators)
        back = self._sum[self._minus[c]]
        return [back[e // ngen] * ngen + e % ngen
                for e in self._generator_edges]


class _NodeWalks:
    """The walks of the inner nodes of a straight-line program through the
    coset table of a `SchreierSystem`, each from coset 0: its end coset and
    its signed edge counts, packed (`Packing`), one entry per edge.

    A count is bounded by the letters of the node's expansion
    (`expanded_letters`), which the packing is sized for.  The cosets are
    the target's elements in row-major order, so moving every count from
    coset d to coset d + c turns, along each summand Z/m of the target,
    every run of m blocks by c's residue (`Packing.rotation`)."""

    def __init__(self, system: SchreierSystem, relators):
        self.system = system
        nodes = system._nodes
        ngen = len(system.target.generators)
        self.packing = Packing(len(system._slots) * ngen,
                               expanded_letters(ngen, nodes, relators))
        self._turns: dict = {}  # coset -> its `Packing.rotation`
        self.ends: list[int] = []
        self._counts: list[int] = []
        for node in nodes:
            end, counts, packed = system._walk(node, self)
            for edge, count in enumerate(counts or ()):
                if count:
                    packed += count * self.packing.unit(edge)
            self.ends.append(end)
            self._counts.append(packed)

    def moved(self, symbol: int, c: int) -> int:
        """The packed counts of a node symbol's walk from coset c."""
        packed = self._counts[symbol - len(self.system.target.generators)
                              - 1]
        if not c:
            return packed
        if c not in self._turns:
            self._turns[c] = self.packing.rotation(self._runs(c))
        return self._turns[c](packed)

    def _runs(self, c: int) -> list[tuple[int, int]]:
        """(run, by) for each summand Z/m of the target along which coset
        c's residue r is not 0: the counts fall into runs of m blocks, one
        block per residue there, and each run turns by r blocks."""
        run, runs = self.packing.size, []
        for m, r in zip(self.system.target.moduli, self.system._elements[c]):
            if r:
                runs.append((run, r * run // m))
            run //= m
        return runs


def subgroup_presentation(p: Presentation, target: AbelianTarget,
                          extra_kernel_words) -> Presentation:
    """Presentation of the kernel, with the normal closures of the extra
    kernel words quotiented out.

    Every relator and extra word is rewritten at every coset (conjugation by
    each representative), so one that is not in the kernel raises
    NotInKernel, and an extra word with a letter outside p's generators
    raises ValueError; then Tietze simplification runs to its fixed point.
    """
    system = SchreierSystem(p, target)
    relators = [system.rewrite(r, ci)
                for r in [*p.relators, *extra_kernel_words]
                for ci in range(target.size)]
    return simplify(Presentation(system.generator_names, relators))
