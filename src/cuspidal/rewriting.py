"""Reidemeister-Schreier presentations for kernels of maps onto finite
abelian groups.

The target is a direct sum of cyclic groups; each source generator is sent to
a residue tuple.  SchreierSystem owns the coset table: the coset reached by
each letter, the Schreier transversal and the kernel letter read on each
edge.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product

from .errors import InvalidParameter, NotGenerating, NotInKernel
from .words import (Presentation, Word, invert, multiply, reduce_word,
                    simplify)


@dataclass(frozen=True)
class AbelianTarget:
    """Direct sum of Z/moduli[k] with an image tuple per source generator."""

    moduli: tuple[int, ...]
    generators: tuple[str, ...]
    images: tuple[tuple[int, ...], ...]

    def __init__(self, moduli, generators, images):
        moduli = tuple(moduli)
        generators = tuple(generators)
        images = tuple(tuple(r % m for r, m in zip(img, moduli))
                       for img in images)
        if any(m < 1 for m in moduli):
            raise InvalidParameter("moduli must be positive")
        if len(images) != len(generators):
            raise ValueError("one image tuple per generator required")
        if any(len(img) != len(moduli) for img in images):
            raise ValueError("image arity must match moduli count")
        object.__setattr__(self, "moduli", moduli)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "images", images)
        if not self._generates():
            raise NotGenerating("generator images do not generate the target")

    def _generates(self) -> bool:
        from .abelian import IntegerMatrix, invariant_factors
        rows = [list(img) for img in self.images]
        for i, m in enumerate(self.moduli):
            row = [0] * len(self.moduli)
            row[i] = m
            rows.append(row)
        if not rows:
            return self.size == 1
        facs = invariant_factors(IntegerMatrix.from_rows(rows))
        return len(facs) == len(self.moduli) and all(d == 1 for d in facs)

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

    def image_of_word(self, w: Word) -> tuple[int, ...]:
        acc = self.identity()
        for x in w:
            acc = self.add(acc, self.image_of_letter(x))
        return acc


class SchreierSystem:
    """The coset table of the kernel of p ->> target and its Schreier
    generators.

    Cosets are the target's elements in row-major order, coset 0 the
    identity.  The representatives form a Schreier transversal (every prefix
    of a representative is a representative), built breadth-first from coset
    0 trying the generators in generator_order (default: declaration order).
    The Schreier generator of (coset c, generator g) is
    rep(c) * g * rep(c g)^-1; those that freely reduce to the identity are
    never emitted, the rest are named <generator>_<residues of c>.
    """

    def __init__(self, p: Presentation, target: AbelianTarget,
                 generator_order=None):
        self.target = target
        elements = list(product(*(range(m) for m in target.moduli)))
        index = {el: i for i, el in enumerate(elements)}
        ngen = len(p.generators)
        # per coset, signed source letter -> the coset reached
        self._next: list[dict[int, int]] = [{} for _ in elements]
        for ci, el in enumerate(elements):
            for g in range(1, ngen + 1):
                cj = index[target.add(el, target.image_of_letter(g))]
                self._next[ci][g] = cj
                self._next[cj][-g] = ci
        order = [target.generators.index(name) + 1
                 for name in generator_order or target.generators]
        reps: list[Word | None] = [None] * len(elements)
        reps[0] = ()
        queue = deque([0])
        while queue:
            ci = queue.popleft()
            for g in order:
                cj = self._next[ci][g]
                if reps[cj] is None:
                    reps[cj] = reps[ci] + (g,)
                    queue.append(cj)
        if None in reps:
            raise NotGenerating("generator images do not generate the target")
        self.representatives: tuple[Word, ...] = tuple(reps)
        # per coset, signed source letter -> the signed kernel letter read on
        # the way (0 for a redundant generator)
        self._kernel_letter: list[dict[int, int]] = [{} for _ in elements]
        names: list[str] = []
        words: list[Word] = []
        for ci, el in enumerate(elements):
            suffix = "_".join(str(r) for r in el)
            for g in range(1, ngen + 1):
                cj = self._next[ci][g]
                word = multiply(multiply(reps[ci], (g,)), invert(reps[cj]))
                letter = 0
                if word:
                    names.append(f"{p.generators[g - 1]}_{suffix}")
                    words.append(word)
                    letter = len(names)
                self._kernel_letter[ci][g] = letter
                self._kernel_letter[cj][-g] = -letter
        self.generator_names = tuple(names)
        self.generator_words = tuple(words)

    def letter_for(self, coset: int, g: int) -> int | None:
        """Kernel-word letter for (coset, source generator), or None if the
        Schreier generator is redundant."""
        return self._kernel_letter[coset].get(g) or None

    def rewrite(self, w: Word, start_coset: int = 0) -> Word:
        """Reidemeister-Schreier rewriting of w starting at a coset."""
        coset = start_coset
        out: list[int] = []
        for x in w:
            letter = self._kernel_letter[coset][x]
            coset = self._next[coset][x]
            if letter:
                if out and out[-1] == -letter:
                    out.pop()
                else:
                    out.append(letter)
        return tuple(out)

    def expand(self, w: Word) -> Word:
        """Map a kernel word back to the source generators."""
        out: Word = ()
        for x in w:
            word = self.generator_words[abs(x) - 1]
            out = multiply(out, word if x > 0 else invert(word))
        return out


def subgroup_presentation(p: Presentation, target: AbelianTarget,
                          extra_kernel_words, *, generator_order=None,
                          simplify_budget: int = 10_000) -> Presentation:
    """Presentation of the kernel, with the normal closures of the extra
    kernel words quotiented out.

    Every relator and extra word is rewritten at every coset (conjugation by
    each representative), then one Tietze pass runs unless simplify_budget
    is 0.
    """
    if target.generators != p.generators:
        raise ValueError("target images must be indexed by p's generators")
    extras = [reduce_word(w) for w in extra_kernel_words]
    for w in extras:
        if target.image_of_word(w) != target.identity():
            raise NotInKernel(f"extra word has nonzero image: {w}")
    system = SchreierSystem(p, target, generator_order)
    relators = [system.rewrite(r, start_coset=ci)
                for r in list(p.relators) + extras
                for ci in range(target.size)]
    result = Presentation(system.generator_names, relators)
    if simplify_budget:
        result = simplify(result, simplify_budget)
    return result
