"""Free-group words and finitely presented groups.

Words are tuples of nonzero signed integers: letter ``+k`` is the k-th
generator (1-based), ``-k`` its inverse.  Every word is kept freely reduced;
the empty tuple is the identity.  Presentations store their relators in a
canonical cyclic form (cyclically reduced, lexicographically least rotation
among the relator and its inverse) so that duplicate detection is stable.
"""

from __future__ import annotations

import re
from collections import Counter
from operator import neg

from ._record import Record
from .errors import NoDefiningRelator

Word = tuple[int, ...]

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def reduce_word(letters) -> Word:
    """Freely reduce a letter sequence (cancel adjacent x, -x pairs)."""
    out: list[int] = []
    for x in letters:
        if x == 0:
            raise ValueError("letter 0 is not a generator reference")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def multiply(w1: Word, w2: Word) -> Word:
    """Freely reduced concatenation."""
    out = list(w1)
    for x in w2:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert(w: Word) -> Word:
    return tuple(map(neg, reversed(w)))


def conjugate(w: Word, by: Word) -> Word:
    """by^-1 * w * by, freely reduced."""
    return multiply(multiply(invert(by), w), by)


def power(w: Word, n: int) -> Word:
    return substitute((1 if n > 0 else -1,) * abs(n), (reduce_word(w),))


def substitute(w: Word, images) -> Word:
    """The image of w under the map sending generator k to images[k - 1]:
    each letter +-k becomes images[k - 1] or its inverse.  The images must
    be freely reduced.  The result is freely reduced, in time linear in the
    letters appended."""
    out: list[int] = []
    for x in w:
        _append_reduced(out, images[x - 1] if x > 0
                        else invert(images[-x - 1]))
    return tuple(out)


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u^-1 v^-1 u v (global convention)."""
    return multiply(multiply(multiply(invert(u), invert(v)), u), v)


def cyclic_reduce(w: Word) -> Word:
    return _cyclic_core(reduce_word(w))


def _cyclic_core(w: Word) -> Word:
    """Cyclic reduction of a freely reduced word."""
    i, j = 0, len(w) - 1
    while i < j and w[i] == -w[j]:
        i += 1
        j -= 1
    return w[i:j + 1]


def _least_rotation(w: Word, lo: int) -> Word:
    """Lexicographically least rotation of a nonempty word whose least
    letter is lo, in linear time.

    Two-pointer scan: i is the best start so far, j < len(w) the candidate
    compared with it and k the length of their common prefix.  A mismatch
    rules out the k + 1 starts from the loser onwards; k == len(w) means
    the word is periodic and rotation i is already least.  A least rotation
    starts with the least letter, so i starts at its first occurrence, and
    the next candidate is the next occurrence after j (`tuple.index`); when
    none is left, i is least."""
    n = len(w)
    s = w + w
    i = j = w.index(lo)
    while True:
        try:
            j = s.index(lo, j + 1, n)
        except ValueError:
            return s[i:i + n]
        k = 0
        while k < n and s[i + k] == s[j + k]:
            k += 1
        if k == n:
            return s[i:i + n]
        if s[i + k] < s[j + k]:
            j += k
        else:
            i = j = max(i + k + 1, j)


def cyclic_normal_form(w: Word) -> Word:
    """Cyclic reduction, then least rotation among the word and its inverse."""
    w = cyclic_reduce(w)
    return _least_form(w, min(w), max(w)) if w else w


def _least_form(w: Word, lo: int, hi: int) -> Word:
    """Least rotation among a nonempty cyclically reduced word and its
    inverse, given the word's least and greatest letters."""
    # a least rotation starts with the least letter, and the inverse's least
    # letter is -hi, so only a tie needs both rotations
    if lo < -hi:
        return _least_rotation(w, lo)
    if -hi < lo:
        return _least_rotation(invert(w), -hi)
    return min(_least_rotation(w, lo), _least_rotation(invert(w), lo))


def _relator_form(w: Word, ngen: int) -> Word:
    """The cyclic normal form of a freely reduced relator over ngen
    generators, in one pass: its least and greatest letters, read once,
    both range-check it and choose its orientation.  ValueError names the
    first letter of the normal form outside +-1..ngen."""
    w = _cyclic_core(w)
    if not w:
        return w
    lo, hi = min(w), max(w)
    form = _least_form(w, lo, hi)
    if lo < -ngen or hi > ngen:
        _check_letters([form], ngen, "relator")
    return form


def _check_letters(words, ngen: int, kind: str) -> None:
    """Raise ValueError at the first letter of the words not in +-1..ngen."""
    for w in words:
        if w and (min(w) < -ngen or max(w) > ngen or 0 in w):
            bad = next(x for x in w if not 0 < abs(x) <= ngen)
            raise ValueError(f"{kind} letter {bad} out of range")


def _check_names(generators) -> tuple[str, ...]:
    """The generator names as a tuple; ValueError on a repeated or
    malformed name."""
    generators = tuple(generators)
    if len(set(generators)) != len(generators):
        raise ValueError("duplicate generator names")
    for name in generators:
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"invalid generator name: {name!r}")
    return generators


class Presentation(Record):
    """A finitely presented group: generator names plus relator words.

    Relators are freely reduced and normalized to cyclic normal form on
    construction.  A builder whose relators are freely reduced by
    construction skips the reduction: it calls `_make` with each relator's
    `_relator_form` and its checked names.  Instances are immutable; all
    operations return new presentations.
    """

    __slots__ = ("generators", "relators")

    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    # a plain presentation is a straight-line program with no inner nodes
    nodes = ()

    def __init__(self, generators, relators):
        generators = _check_names(generators)
        ngen = len(generators)
        reduced = [reduce_word(r) for r in relators]
        relators = tuple(_relator_form(r, ngen) for r in reduced)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relators", relators)

    def generator_index(self, name: str) -> int:
        """1-based index of a generator name."""
        return self.generators.index(name) + 1

    def __repr__(self):
        return (f"Presentation({len(self.generators)} generators, "
                f"{len(self.relators)} relators)")


class StraightLineProgram(Record):
    """A presentation whose relators are words over a straight-line
    program (Lohrey, "Algorithmics on SLP-compressed strings: a survey",
    Groups Complex. Cryptol. 4, 2012).

    The symbols 1..len(generators) are the generators, the leaves; symbol
    len(generators) + k + 1 is inner node k, which stands for the word
    nodes[k] over the symbols before it.  The relators are words over all
    the symbols.  A consumer reads the program node by node, composing what
    it needs of each node from its letters, so no relator is ever expanded
    into a word over the generators.  A `Presentation` is the program with
    no inner nodes.  Relators are kept as given, not normalized.
    """

    __slots__ = ("generators", "nodes", "relators")

    generators: tuple[str, ...]
    nodes: tuple[Word, ...]
    relators: tuple[Word, ...]

    def __init__(self, generators, nodes, relators):
        generators = _check_names(generators)
        nodes = tuple(map(reduce_word, nodes))
        for k, node in enumerate(nodes):
            _check_letters([node], len(generators) + k, "node")
        relators = tuple(map(reduce_word, relators))
        _check_letters(relators, len(generators) + len(nodes), "relator")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "relators", relators)

    def expand(self) -> list[Word]:
        """The freely reduced word over the generators of every symbol,
        at index symbol - 1."""
        words: list[Word] = [(g,) for g in range(1, len(self.generators) + 1)]
        for node in self.nodes:
            words.append(substitute(node, words))
        return words


def expanded_letters(ngen: int, nodes, words) -> int:
    """The most letters that a generator, a node or one of the words has in
    its expansion over the generators, before free reduction, for a
    straight-line program with ngen generators and these nodes: a bound on
    every count summed letter by letter over an expansion, which sizes a
    `Packing`."""
    length = [1] * (ngen + 1)
    for node in nodes:
        length.append(sum(length[abs(x)] for x in node))
    return max(length + [sum(length[abs(x)] for x in w) for w in words])


def format_word(w: Word, generators) -> str:
    toks = []
    for x in w:
        name = generators[abs(x) - 1]
        toks.append(name if x > 0 else name + "^-1")
    return " ".join(toks)


def format_presentation(p: Presentation) -> str:
    """Bit-exact text format: a ``gens:`` line then one relator per line."""
    lines = ["gens: " + " ".join(p.generators)]
    lines.extend(format_word(r, p.generators) for r in p.relators)
    return "\n".join(lines) + "\n"


class GroupMap(Record):
    """A candidate homomorphism: an image word per source generator.

    Well-definedness is not checked here; it is probed by the verification
    operations (abelianization comparison, relator triviality in finite
    quotients).
    """

    __slots__ = ("source", "target", "images")

    source: Presentation
    target: Presentation
    images: tuple[Word, ...]  # aligned with source.generators

    def __init__(self, source, target, images):
        # apply substitutes the images, which must be freely reduced
        images = tuple(map(reduce_word, images))
        if len(images) != len(source.generators):
            raise ValueError(f"{len(images)} images for "
                             f"{len(source.generators)} generators")
        _check_letters(images, len(target.generators), "image")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", images)

    def apply(self, w: Word) -> Word:
        return substitute(w, self.images)


def _substitute(w: Word, g: int, occ: int, defining: Word, inv: Word):
    """Replace the occ occurrences of generator g (1-based) in w by
    `defining`, and of g^-1 by inv = defining^-1; all three words freely
    reduced.  Returns the freely reduced result and the letters that
    cancelled, one of each cancelled pair."""
    # tuple.index scans in C; stop once all occ occurrences are found
    where: list[int] = []
    for x in (g, -g):
        i = -1
        while len(where) < occ:
            try:
                i = w.index(x, i + 1)
            except ValueError:
                break
            where.append(i)
    where.sort()
    pieces: list[Word] = []
    start = 0
    for i in where:
        pieces += (w[start:i], defining if w[i] == g else inv)
        start = i + 1
    pieces.append(w[start:])
    out: list[int] = []
    cancelled: list[int] = []
    # a piece is freely reduced, so only a junction whose first letter
    # cancels the output's last one needs the letter-by-letter merge
    for piece in pieces:
        if piece and out and out[-1] == -piece[0]:
            cancelled += piece[:_append_reduced(out, piece)]
        else:
            out += piece
    return tuple(out), cancelled


def _append_reduced(out: list[int], piece: Word) -> int:
    """Multiply the freely reduced word `out` by the freely reduced `piece`
    in place: cancel at the junction, then append the rest.  Returns the
    number of cancelled pairs."""
    k = 0
    while k < len(piece) and out and out[-1] == -piece[k]:
        out.pop()
        k += 1
    out.extend(piece[k:])
    return k


def _renumber(w: Word, new_id) -> Word:
    """w with every letter x replaced by new_id[x]; new_id maps both signs
    of each generator id (see `_survivor_ids`)."""
    return tuple(map(new_id.__getitem__, w))


def tietze_eliminate(p: Presentation, gen: str, defining: Word) -> Presentation:
    """Eliminate a generator via a defining relator.

    `defining` is a word over p not containing `gen`; some relator must be
    cyclically equivalent to gen*defining^-1 (up to inversion).  That relator
    is consumed and every other occurrence of gen replaced by `defining`.
    """
    g = p.generator_index(gen)
    if any(abs(x) == g for x in defining):
        raise NoDefiningRelator(f"defining word contains {gen!r}")
    defining = reduce_word(defining)
    try:
        idx = p.relators.index(
            cyclic_normal_form(multiply((g,), invert(defining))))
    except ValueError:
        raise NoDefiningRelator(
            f"no relator defines {gen!r} as the given word") from None
    # each survivor maps to its new id, gen to its renumbered definition
    new_id = _survivor_ids(len(p.generators), [(g, defining)])
    images = [(new_id[k],) if k in new_id else _renumber(defining, new_id)
              for k in range(1, len(p.generators) + 1)]
    return Presentation(p.generators[:g - 1] + p.generators[g:],
                        [substitute(r, images)
                         for i, r in enumerate(p.relators) if i != idx])


def simplify(p: Presentation) -> Presentation:
    """Deterministic Tietze simplification driver, run to its fixed point.

    Each step eliminates one generator that occurs exactly once in some
    relator, and the steps go on until no relator has such a generator;
    every step removes a generator, so there are at most as many steps as
    generators.  Empty relators and repeated input relators are dropped at
    once; relators that the steps turn into cyclic copies of one another are
    merged only at the end, keeping the first.
    """
    return _tietze(p)[0]


def simplify_with_map(p: Presentation):
    """Like simplify, with the same result and the same duplicate merging
    at the end, but also returns each original generator's image word.

    The images are composed backward, from the last step to the first: a
    step's defining word uses only generators that survive or that later
    steps eliminate, whose images are then known, so the eliminated
    generator's image is the defining word with those images substituted.
    Free reduction is unique, so these are the reduced words that replaying
    every step on every image would give."""
    q, log = _tietze(p)
    new_id = _survivor_ids(len(p.generators), log)
    images: list[Word] = [(new_id[g],) if g in new_id else ()
                          for g in range(1, len(p.generators) + 1)]
    for g, defining in reversed(log):
        images[g - 1] = substitute(defining, images)
    return q, dict(zip(p.generators, images))


def _survivor_ids(ngen: int, log) -> dict[int, int]:
    """Original letter -> final letter of the generators that no step
    eliminated, both signs: g -> i and -g -> -i, the positive keys first
    and in order."""
    gone = {g for g, _ in log}
    kept = [g for g in range(1, ngen + 1) if g not in gone]
    new_id = {g: i for i, g in enumerate(kept, 1)}
    return new_id | {-g: -i for g, i in new_id.items()}


def _tietze(p: Presentation):
    """The Tietze loop of simplify: the result and the list of its steps,
    (eliminated generator, its defining word), ids as in p."""
    # Inside the loop generators keep their original 1-based ids; they are
    # renumbered once at the end.  A relator is stored as whichever cyclic
    # word its last substitution left, not in cyclic normal form: no
    # decision depends on the rotation or inversion stored.  The candidate
    # key depends only on the letter counts, the defining word is read from
    # the rotation that starts at the eliminated generator, and substituting
    # then cyclically reducing commutes with rotation and inversion up to
    # rotation.  So relators that are cyclically equal stay equal, the one
    # in the lower slot always wins the key tie, and consuming it empties
    # its twin; the copies left over are merged after the loop.
    #
    # Relators sit in slots that keep their order (a dropped relator leaves
    # None behind), and candidates are ranked by (length, generator, slot).
    # A step updates each touched relator's generator counts from its
    # substitution instead of recounting its letters: g's occurrences times
    # the defining word's counts, less twice the count of each letter that
    # cancelled, the cancelled letters counted in one pass.  A generator
    # enters or leaves `occurs` only where its count leaves or reaches 0.
    rels: list[Word | None] = []
    gen_counts: dict[int, Counter] = {}  # slot -> generator counts
    occurs: dict[int, set[int]] = {}  # generator -> slots of its relators
    key: dict[int, tuple[int, int, int]] = {}  # slot -> candidate key

    def rekey(s: int) -> None:
        once = [g for g, c in gen_counts[s].items() if c == 1]
        if once:
            key[s] = (len(rels[s]), min(once), s)
        else:
            key.pop(s, None)

    def drop(s: int) -> None:
        rels[s] = None
        for g in gen_counts.pop(s):
            occurs[g].discard(s)
        key.pop(s, None)

    # p's relators are in cyclic normal form, so a copy is an equal tuple
    for r in dict.fromkeys(p.relators):
        if r:
            s = len(rels)
            rels.append(r)
            gen_counts[s] = Counter(map(abs, r))
            for g in gen_counts[s]:
                occurs.setdefault(g, set()).add(s)
            rekey(s)
    log: list[tuple[int, Word]] = []
    while key:
        _, g, ri = min(key.values())
        r = rels[ri]
        pos = r.index(g) if g in r else r.index(-g)
        rot = r[pos:] + r[:pos]
        if rot[0] < 0:
            rot = invert(rot)
            rot = rot[-1:] + rot[:-1]
        # rot = g * w, so g is defined by w^-1
        inv = rot[1:]
        defining = invert(inv)
        defining_counts = Counter(map(abs, defining))
        drop(ri)
        for s in occurs.pop(g):
            counts = gen_counts[s]
            occ = counts.pop(g)
            w, cancelled = _substitute(rels[s], g, occ, defining, inv)
            core = _cyclic_core(w)
            if not core:
                drop(s)
                continue
            rels[s] = core
            for h, c in defining_counts.items():
                if h in counts:
                    counts[h] += occ * c
                else:
                    counts[h] = occ * c
                    occurs[h].add(s)
            # the cyclic-core trim cancels pairs too; counting signed
            # letters is exact, since a count reaches 0 only once both
            # signs of its generator are subtracted.  About a third of the
            # substitutions cancel nothing and skip the tally.
            cancelled += w[:(len(w) - len(core)) // 2]
            if cancelled:
                for x, c in Counter(cancelled).items():
                    h = x if x > 0 else -x
                    c = counts[h] - 2 * c
                    if c:
                        counts[h] = c
                    else:
                        del counts[h]
                        occurs[h].discard(s)
            rekey(s)
        log.append((g, defining))
    new_id = _survivor_ids(len(p.generators), log)
    # the survivors' names are checked and their relators cyclically
    # reduced, so only the normal form is redone
    generators = tuple(p.generators[g - 1] for g in new_id if g > 0)
    relators = dict.fromkeys(_relator_form(_renumber(r, new_id),
                                           len(generators))
                             for r in rels if r is not None)
    return Presentation._make(generators, tuple(relators)), log
