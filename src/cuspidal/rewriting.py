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
from dataclasses import dataclass
from itertools import product
from operator import neg, sub
from typing import Iterator

from .errors import InvalidParameter, NotGenerating, NotInKernel
from .words import Presentation, Word, invert, multiply, simplify


@dataclass(frozen=True)
class AbelianTarget:
    """Direct sum of Z/moduli[k] with an image tuple per source generator."""

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
        n = 1
        for m in self.moduli:
            n *= m
        return n

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
    generators.

    Cosets are the target's elements in row-major order, coset 0 the
    identity.  The representatives form a Schreier transversal (every prefix
    of a representative is a representative), built breadth-first from coset
    0 trying the generators in declaration order; the images generate the
    target, so it reaches every coset.
    The Schreier generator of (coset c, generator g) is
    rep(c) * g * rep(c g)^-1; those that freely reduce to the identity are
    never emitted, the rest are named <generator>_<residues of c>.
    """

    def __init__(self, p: Presentation, target: AbelianTarget):
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
        names: list[str] = []
        words: list[Word] = []
        # the slot of each kernel generator and of its inverse
        positive: list[int] = []
        negative: list[int] = []
        for ci, el in enumerate(elements):
            suffix = "_".join(str(r) for r in el)
            for g in range(1, ngen + 1):
                cj = self._next[self._slots[ci] + g] // width
                word = multiply(multiply(reps[ci], (g,)), invert(reps[cj]))
                letter = 0
                if word:
                    names.append(f"{p.generators[g - 1]}_{suffix}")
                    words.append(word)
                    letter = len(names)
                    positive.append(self._slots[ci] + g)
                    negative.append(self._slots[cj] - g)
                self._kernel_letter[self._slots[ci] + g] = letter
                self._kernel_letter[self._slots[cj] - g] = -letter
        self.generator_names = tuple(names)
        self.generator_words = tuple(words)
        self._elements, self._index = elements, index
        self._generator_slots = (positive, negative)

    def rewrite(self, w: Word, start_coset: int) -> Word:
        """Reidemeister-Schreier rewriting of the kernel word w starting at
        a coset."""
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

    def exponent_rows(self, relators) -> Iterator[dict[int, int]]:
        """Abelianized Reidemeister-Schreier: the exponent-sum rows of the
        kernel relators, read off the coset table, cosets in order.

        A row maps the 0-based index of a kernel generator to its exponent
        sum.  Zero rows are skipped and every row is yielded once, with its
        first nonzero entry made positive, since a repeated or negated row
        generates nothing new.  Equal relators give equal rows, so a
        repeated relator is not walked again.

        Each relator is walked once, from coset 0, counting the (coset,
        letter) slots it passes; no rewritten word is built.  The target is
        abelian, so the walk from coset c passes the slots of that walk
        translated by c, as often.  The row at coset c is therefore read off
        the same counts: the entry of a kernel generator is the count at its
        positive slot minus the count at its negative slot, both translated
        back by c (Sims, *Computation with Finitely Presented Groups*, 1994,
        ch. 2).

        Every relator must lie in the kernel (NotInKernel otherwise).  Its
        row at coset c is then the image of its row at coset 0 under
        conjugation by the representative of c, an automorphism of the
        kernel's abelianization, so a zero row at coset 0 means that all of
        its rows are zero, and its other cosets are skipped.
        """
        next_slot, start = self._next, self._slots[0]
        # coset c -> the positive and the negative slot of each kernel
        # generator, translated back by c
        shifted = [self._translated_slots(c) for c in range(len(self._slots))]
        seen = set()
        for r in dict.fromkeys(relators):
            if not r:
                continue
            slot = start
            counts = [0] * len(next_slot)
            for x in r:
                slot += x
                counts[slot] += 1
                slot = next_slot[slot]
            if slot != start:
                raise NotInKernel(
                    f"a relator of length {len(r)} is not in the kernel")
            for positive, negative in shifted:
                row = tuple(map(sub, map(counts.__getitem__, positive),
                                map(counts.__getitem__, negative)))
                first = next(filter(None, row), 0)
                if not first:
                    break
                if first < 0:
                    row = tuple(map(neg, row))
                if row not in seen:
                    seen.add(row)
                    yield {j: v for j, v in enumerate(row) if v}

    def _translated_slots(self, c: int) -> tuple[list[int], ...]:
        """The positive and the negative slot of each kernel generator,
        each moved from its coset d to the coset d - c."""
        width = 2 * len(self.target.generators) + 1
        minus_c = self.target.neg(self._elements[c])
        back = [self._index[self.target.add(el, minus_c)]
                for el in self._elements]
        return tuple([back[s // width] * width + s % width for s in slots]
                     for slots in self._generator_slots)


def subgroup_presentation(p: Presentation, target: AbelianTarget,
                          extra_kernel_words) -> Presentation:
    """Presentation of the kernel, with the normal closures of the extra
    kernel words quotiented out.

    Every relator and extra word is rewritten at every coset (conjugation by
    each representative), so one that is not in the kernel raises
    NotInKernel; then Tietze simplification runs to its fixed point.
    """
    system = SchreierSystem(p, target)
    relators = [system.rewrite(r, ci)
                for r in [*p.relators, *extra_kernel_words]
                for ci in range(target.size)]
    return simplify(Presentation(system.generator_names, relators))
