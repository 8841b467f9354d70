"""Reidemeister-Schreier presentations for kernels of maps onto finite
abelian groups.

The target is a direct sum of cyclic groups; each source generator is sent to
a residue tuple.  Coset representatives form a Schreier transversal (every
prefix of a representative is a representative), built breadth-first in a
declared generator order, or as power-products in "power-basis" mode.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product

from .errors import InvalidParameter, NotGenerating, NotInKernel
from .words import (Presentation, Word, cyclic_normal_form, invert, multiply,
                    reduce_word, simplify)


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


@dataclass(frozen=True)
class Transversal:
    """Ordered Schreier coset representatives with an element -> index map."""

    representatives: tuple[Word, ...]
    index: dict

    def coset_of(self, element) -> int:
        return self.index[element]


def build_transversal(target: AbelianTarget, generator_order=None,
                      mode: str = "bfs") -> Transversal:
    """Coset representatives for the kernel.

    "bfs": breadth-first products in the declared generator order (default:
    declaration order).  "power-basis": representatives g1^a1 * g2^a2 * ...
    over the ordered generators; fails unless this yields each coset once.
    Both modes produce prefix-closed (Schreier) transversals.
    """
    names = list(generator_order or target.generators)
    order = [target.generators.index(nm) + 1 for nm in names]
    if mode == "bfs":
        reps: dict = {target.identity(): ()}
        queue = deque([target.identity()])
        while queue:
            el = queue.popleft()
            for g in order:
                img = target.image_of_letter(g)
                nxt = target.add(el, img)
                if nxt not in reps:
                    reps[nxt] = reps[el] + (g,)
                    queue.append(nxt)
        if len(reps) != target.size:
            raise NotGenerating("generator images do not generate the target")
        ordered = _row_major_elements(target)
        return Transversal(tuple(reps[el] for el in ordered),
                           {el: i for i, el in enumerate(ordered)})
    if mode == "power-basis":
        active = [g for g in order
                  if target.image_of_letter(g) != target.identity()]
        orders = [_element_order(target, target.image_of_letter(g))
                  for g in active]
        seen: dict = {}
        for exps in product(*(range(o) for o in orders)):
            word: Word = ()
            for g, e in zip(active, exps):
                word = multiply(word, (g,) * e)
            el = target.image_of_word(word)
            if el in seen:
                raise NotGenerating(
                    "power products do not enumerate the cosets")
            seen[el] = word
        if len(seen) != target.size:
            raise NotGenerating("power products do not cover the target")
        ordered = _row_major_elements(target)
        return Transversal(tuple(seen[el] for el in ordered),
                           {el: i for i, el in enumerate(ordered)})
    raise InvalidParameter(f"unknown transversal mode: {mode!r}")


def _row_major_elements(target: AbelianTarget):
    return list(product(*(range(m) for m in target.moduli)))


def _element_order(target: AbelianTarget, el) -> int:
    acc = el
    n = 1
    while acc != target.identity():
        acc = target.add(acc, el)
        n += 1
    return n


@dataclass(frozen=True)
class SchreierGenerator:
    coset: int
    source_generator: int  # 1-based index into the source generators
    name: str
    word: Word  # t * x * rep(t*x)^-1 expanded in the source generators
    redundant: bool


class SchreierSystem:
    """The Schreier generators attached to (target, transversal).

    A generator whose expanded word freely reduces to the identity is
    redundant and never emitted.  Additional generators can be marked
    redundant up front ("pre" elimination of known line meridians) by passing
    kernel words whose conjugacy class they represent.
    """

    def __init__(self, p: Presentation, target: AbelianTarget,
                 transversal: Transversal, pre_eliminate=()):
        self.source = p
        self.target = target
        self.transversal = transversal
        pre = {cyclic_normal_form(w) for w in pre_eliminate}
        elements = _row_major_elements(target)
        self.table: dict[tuple[int, int], SchreierGenerator] = {}
        names = []
        # per coset, signed source letter -> the coset reached and the signed
        # kernel letter read on the way (0 for a redundant generator)
        self._next: list[dict[int, int]] = [{} for _ in elements]
        self._kernel_letter: list[dict[int, int]] = [{} for _ in elements]
        for ci, el in enumerate(elements):
            rep = transversal.representatives[ci]
            for g in range(1, len(p.generators) + 1):
                cj = transversal.coset_of(
                    target.add(el, target.image_of_letter(g)))
                rep_nxt = transversal.representatives[cj]
                word = multiply(multiply(rep, (g,)), invert(rep_nxt))
                redundant = not word
                if not redundant and pre:
                    redundant = cyclic_normal_form(word) in pre
                suffix = "_".join(str(r) for r in el)
                name = f"{p.generators[g - 1]}_{suffix}"
                sg = SchreierGenerator(ci, g, name, word, redundant)
                self.table[(ci, g)] = sg
                letter = 0
                if not redundant:
                    names.append(name)
                    letter = len(names)
                self._next[ci][g] = cj
                self._kernel_letter[ci][g] = letter
                self._next[cj][-g] = ci
                self._kernel_letter[cj][-g] = -letter
        self.generator_names = tuple(names)

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
        by_letter = {}
        for (ci, g), sg in self.table.items():
            if not sg.redundant:
                by_letter[self._kernel_letter[ci][g]] = sg.word
        out: Word = ()
        for x in w:
            word = by_letter[abs(x)]
            out = multiply(out, word if x > 0 else invert(word))
        return out


def rewrite_word(w: Word, transversal: Transversal,
                 target: AbelianTarget) -> Word:
    """Rewrite a source word over the Schreier generators, starting at the
    identity coset.  Convenience wrapper around SchreierSystem.rewrite for a
    free source on the target's generator names."""
    free_source = Presentation(target.generators, [])
    system = SchreierSystem(free_source, target, transversal)
    return system.rewrite(reduce_word(w))


def subgroup_presentation(p: Presentation, target: AbelianTarget,
                          extra_kernel_words, *, generator_order=None,
                          transversal_mode: str = "bfs",
                          simplify_budget: int = 10_000,
                          line_meridian_mode: str = "post") -> Presentation:
    """Presentation of the kernel, with the normal closures of the extra
    kernel words quotiented out.

    Every relator and extra word is rewritten at every coset (conjugation by
    each transversal representative).  line_meridian_mode "pre" marks the
    Schreier generators that are conjugates of extra kernel words redundant
    during rewriting; "post" (default) leaves them to the simplification pass.
    """
    if target.generators != p.generators:
        raise ValueError("target images must be indexed by p's generators")
    extras = [reduce_word(w) for w in extra_kernel_words]
    for w in extras:
        if target.image_of_word(w) != target.identity():
            raise NotInKernel(f"extra word has nonzero image: {w}")
    transversal = build_transversal(target, generator_order, transversal_mode)
    if line_meridian_mode == "pre":
        system = SchreierSystem(p, target, transversal, pre_eliminate=extras)
    elif line_meridian_mode == "post":
        system = SchreierSystem(p, target, transversal)
    else:
        raise InvalidParameter(
            f"unknown line_meridian_mode: {line_meridian_mode!r}")
    relators = []
    ncosets = target.size
    for r in list(p.relators) + extras:
        for ci in range(ncosets):
            relators.append(system.rewrite(r, start_coset=ci))
    result = Presentation(system.generator_names, relators)
    if simplify_budget:
        result = simplify(result, simplify_budget)
    return result
