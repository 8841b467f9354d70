"""Reidemeister-Schreier presentations for kernels of maps onto finite
abelian groups.

The target is a direct sum of cyclic groups; each source generator is sent to
a residue tuple.  SchreierSystem owns the coset table: the coset reached by
each letter, the Schreier transversal and the kernel letter read on each
edge.  It rewrites words of the kernel, and reads the kernel relators'
exponent sums off their Fox derivatives folded mod the target, for the
kernel's abelianization; a word whose walk does not end at the coset it
started from raises NotInKernel.  `_FoxProgram` computes those derivatives
under any map to Z^r, and is the one reader of straight-line programs that
the Alexander matrix shares.
"""

from __future__ import annotations

from itertools import compress, product
from math import prod
from operator import add, itemgetter, neg
from typing import Iterator

from ._record import Record
from .errors import InvalidParameter, NotGenerating, NotInKernel
from .packing import Packing
from .words import (Presentation, Word, _check_letters, _check_names,
                    _relator_form, expanded_letters, simplify)


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
    rep(c) * g * rep(c g)^-1.  The representatives are positive words, so it
    reduces freely to 1 exactly when (c, g) is the tree edge into c g, and
    is never emitted then; the rest are named <generator>_<residues of c>.
    """

    def __init__(self, p, target: AbelianTarget):
        if target.generators != p.generators:
            raise ValueError(
                "target images must be indexed by p's generators")
        self.target = target
        ngen, size = len(p.generators), target.size
        # Both tables are flat lists of one block of 2 * ngen + 1 entries per
        # coset.  The slot of coset c is the middle of its block, so the
        # entry of (c, signed source letter x) sits at slot + x.
        width = 2 * ngen + 1
        slots = self._slots = range(ngen, size * width, width)
        # (coset, letter) -> the slot of the coset reached
        self._next = [0] * (size * width)
        for g, image in enumerate(target.images, 1):
            # g takes coset ci = cj - image to cj
            for cj, ci in enumerate(_moved(range(size), target.moduli,
                                           image)):
                self._next[slots[ci] + g] = slots[cj]
                self._next[slots[cj] - g] = slots[ci]
        # the edge (coset, generator) that first reaches a coset is a tree edge
        reps: list[Word | None] = [()] + [None] * (size - 1)
        tree, order = set(), [0]
        for ci in order:
            for g in range(1, ngen + 1):
                cj = self._next[slots[ci] + g] // width
                if reps[cj] is None:
                    reps[cj] = reps[ci] + (g,)
                    tree.add(slots[ci] + g)
                    order.append(cj)
        self.representatives: tuple[Word, ...] = tuple(reps)
        # (coset, letter) -> the signed kernel letter read on the way (0 for
        # a tree edge)
        self._kernel_letter = [0] * (size * width)
        # The edge (coset c, generator g) is numbered c * ngen + g - 1.
        names: list[str] = []
        edges: list[int] = []
        self._elements = list(product(*(range(m) for m in target.moduli)))
        for ci, el in enumerate(self._elements):
            suffix = "_".join(map(str, el))
            for g in range(1, ngen + 1):
                slot = slots[ci] + g
                if slot not in tree:
                    names.append(f"{p.generators[g - 1]}_{suffix}")
                    edges.append(ci * ngen + g - 1)
                    self._kernel_letter[slot] = len(names)
                    self._kernel_letter[self._next[slot] - g] = -len(names)
        self.generator_names = tuple(names)
        self._generator_edges = edges
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
        kernel relators, read off their Fox derivatives, one orbit per
        relator.

        A row maps the 0-based index of a kernel generator to its exponent
        sum.  A relator's orbit is a lazy iterator of its rows at cosets 0,
        1, ... in order; a row is built only when the orbit is advanced to
        it.  Zero rows are skipped and every row is yielded once, with its
        first nonzero entry made positive, since a repeated or negated row
        generates nothing new.  Equal relators give equal rows, so a
        repeated relator is not walked again.

        The walk of a relator from coset 0 passes the edge (coset c,
        generator g) forward at a letter g from c, and backward at a letter
        g^-1 into c.  Counting forward passes +1 and backward ones -1 gives
        the coefficient of c in the Fox derivative by g under the map to
        the target (Fox, "Free differential calculus II", Ann. of Math. 59,
        1954).  So each relator is read once by `_FoxProgram`, with every
        generator sent to its residues as integers, and its derivatives
        are folded mod the target: no rewritten word is built.  The target
        is abelian, so the walk from coset c passes the edges of that walk
        translated by c, as often.  The row at coset c is therefore read
        off the same counts: the entry of a kernel generator is the count
        at its edge translated back by c (Sims, *Computation with Finitely
        Presented Groups*, 1994, ch. 2).

        The relators are words over the symbols of the straight-line
        program the system was built from (a presentation has no inner
        nodes); `_FoxProgram` reads each inner node once, so a node letter
        costs a shift of one packed integer.

        Every relator must lie in the kernel (NotInKernel from its end).  Its
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
        program = _FoxProgram(self.target.images, self._nodes, relators)
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
            end, counts = program.folded(r, self.target.moduli)
            if end:
                raise NotInKernel(
                    f"a relator of length {len(r)} is not in the kernel")
            if counts is not None:
                yield orbit(counts)

    def _translated_edges(self, c: int) -> list[int]:
        """The edge of each kernel generator, moved from its coset d to the
        coset d - c: every edge, moved by c's residues, read at the kernel
        generators' edges."""
        ngen = len(self.target.generators)
        edges = _moved(range(len(self._slots) * ngen), self.target.moduli,
                       self._elements[c])
        return list(map(edges.__getitem__, self._generator_edges))


def _moved(v, moduli, residues) -> list:
    """v, one run of entries per coset of the sum of Z/moduli[k] in
    row-major order, with the run of each coset d put at coset d + residues:
    each summand Z/m turns every run of its blocks (`_turned`)."""
    run = len(v)
    for m, r in zip(moduli, residues):
        v = _turned(v, run, r * run // m)
        run //= m
    return v


def _turned(v, run: int, by: int) -> list[int]:
    """v with every run of `run` entries turned by `by` places: the entry
    at place i of a run moves to place (i + by) mod run."""
    cut, out = run - by, []
    for i in range(0, len(v), run):
        out += v[i + cut:i + run]
        out += v[i:i + cut]
    return out


def _span(w: Word, degree, low, high) -> tuple[int, int, int]:
    """(degree, least exponent, greatest exponent) of the Fox derivatives
    of w along one axis, given those of every symbol."""
    exp, least, greatest = 0, 0, 0
    for x in w:
        s = x if x > 0 else -x
        if x < 0:
            exp -= degree[s]
        if exp + low[s] < least:
            least = exp + low[s]
        if exp + high[s] > greatest:
            greatest = exp + high[s]
        if x > 0:
            exp += degree[s]
    return exp, least, greatest


class _FoxProgram:
    """The Fox derivatives of the symbols of a straight-line program under a
    map to Z^r, read node by node: the one walker of program words, for the
    Alexander matrix and the kernel rows alike.  images holds the image in
    Z^r of each of the ngen generators.  By the product rule F(uv) = F(u) +
    t^deg(u) F(v) and F(u^-1) = -t^-deg(u) F(u), each letter of a word adds
    its own derivatives moved to the point reached.

    A point of Z^r is one integer, its flat position, through the strides
    of a window: a box of low[k]..low[k] + width[k] - 1 along axis k (the
    last has stride 1) that holds every term of a node, of a node letter of
    a relator and every end of a relator, from each symbol's least and
    greatest exponent (`_span`).  A node's derivatives are one packed vector
    (`Packing`, sized by `expanded_letters`), exponent-major: the term at
    flat position f of the derivative by generator g sits at place
    (f - low) * ngen + g - 1.  So a node letter costs one shift and one
    addition, a generator letter one dict update.  Words of generators
    along at most one axis need no window: their flat positions are their
    exponents.
    """

    def __init__(self, images, nodes, relators):
        ngen = self.ngen = len(images)
        self.degree = [0] * (ngen + len(nodes) + 1)  # flat, per symbol
        self.low, self.lows, self.widths = 0, [], []
        self.nodes: list[int] = []  # packed derivatives, per node
        self._folds: dict = {}  # (packed, moduli) -> folded, once each
        axes = len(images[0]) if images else 0
        windowed = relators if nodes or axes > 1 else ()
        stride = 1
        for k in reversed(range(axes)):
            # per symbol: degree, least and greatest exponent of a term; a
            # generator's derivative is 1
            degree = [0] + [image[k] for image in images]
            low, high = [0] * (ngen + 1), [0] * (ngen + 1)
            for word in nodes:
                span = _span(word, degree, low, high)
                degree.append(span[0])
                low.append(span[1])
                high.append(span[2])
            spans = [_span(r, degree, low, high) for r in windowed]
            least = min(low + [s[i] for s in spans for i in (0, 1)])
            greatest = max(high + [s[i] for s in spans for i in (0, 2)])
            self.degree = [f + d * stride
                           for f, d in zip(self.degree, degree)]
            self.low += least * stride
            self.lows.insert(0, least)
            self.widths.insert(0, greatest - least + 1)
            stride *= greatest - least + 1
        self.packing = Packing(stride * ngen,
                               expanded_letters(ngen, nodes, windowed))
        for word in nodes:
            terms, packed, _ = self.walk(word)
            for g, column in enumerate(terms[1:]):
                for f, c in column.items():
                    packed += c * self.packing.unit((f - self.low) * ngen + g)
            self.nodes.append(packed)

    def walk(self, w: Word):
        """The Fox derivatives of w, read once: (the terms of its generator
        letters, as flat position -> coefficient maps by generators 1..ngen
        at index 1..ngen, index 0 unused; the packed sum of the terms of
        its node letters; the flat position of its end)."""
        ngen, degree, nodes = self.ngen, self.degree, self.nodes
        terms: list[dict[int, int]] = [{} for _ in range(ngen + 1)]
        packed = exp = 0
        for x in w:
            if x > 0:
                if x > ngen:
                    packed += self.packing.shift(nodes[x - ngen - 1],
                                                 exp * ngen)
                else:
                    column = terms[x]
                    column[exp] = column.get(exp, 0) + 1
                exp += degree[x]
            else:
                exp -= degree[-x]
                if x < -ngen:
                    packed -= self.packing.shift(nodes[-x - ngen - 1],
                                                 exp * ngen)
                else:
                    column = terms[-x]
                    column[exp] = column.get(exp, 0) - 1
        return terms, packed, exp

    def folded(self, w: Word, moduli) -> tuple[int, list[int] | None]:
        """(the coset of w's end, its Fox derivatives mod the sum of
        Z/moduli[k]: the coefficient of coset c, in row-major order, in the
        derivative by g at place c * ngen + g - 1; None if w has no
        generator letter and its node letters' derivatives fold to 0).  Each
        distinct packed sum folds once, axis by axis, into a list that the
        words sharing it share, to read, not change: the width[k] slices
        along axis k of each block are summed m by m, so that slice i holds
        the coordinates low[k] + i mod m, and turned by low[k] mod m."""
        ngen = self.ngen
        terms, packed, end = self.walk(w)
        if (packed, moduli) not in self._folds:
            entries = self.packing.unpack(packed)
            inner = len(entries)
            for width, low, m in zip(self.widths, self.lows, moduli):
                block, inner = inner, inner // width
                run, counts = m * inner, []
                for start in range(0, len(entries), block):
                    acc = [0] * run
                    for chunk in range(start, start + block, run):
                        part = entries[chunk:min(chunk + run, start + block)]
                        acc[:len(part)] = map(add, acc, part)
                    counts += acc
                entries = _turned(counts, run, low % m * inner)
            self._folds[packed, moduli] = entries
        entries = self._folds[packed, moduli]
        if any(terms):
            entries = entries[:]
            for g, column in enumerate(terms[1:]):
                for f, c in column.items():
                    entries[self._coset(f, moduli) * ngen + g] += c
        elif not any(entries):
            entries = None
        return self._coset(end, moduli), entries

    def _coset(self, flat: int, moduli) -> int:
        """The index, in row-major order, of the coset of the point at a
        flat position in the sum of Z/moduli[k]."""
        index, coset, place = flat - self.low, 0, 1
        for k in reversed(range(len(moduli))):
            index, i = divmod(index, self.widths[k]) if k else (0, index)
            coset += (self.lows[k] + i) % moduli[k] * place
            place *= moduli[k]
        return coset


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
    # rewriting cancels as it goes, so its words are freely reduced; the
    # names are checked, since two edges can share one (a at coset (0, 1)
    # and a_0 at coset (1,) are both a_0_1)
    generators = _check_names(system.generator_names)
    return simplify(Presentation._make(generators, tuple(
        _relator_form(r, len(generators)) for r in relators)))
