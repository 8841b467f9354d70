"""Constructors for the concrete presentations under study and the maps
between them.

Conventions, fixed globally:
  * [u, v] = u^-1 v^-1 u v;
  * a relation written X = Y is stored as the relator X * Y^-1;
  * epsilon generators are named eps_i_j, the line-arrangement group uses
    e, l0, l1, l2, the 9-cuspidal comparison presentation g2, g00, ..., g11.
"""

from __future__ import annotations

from ._record import Record
from .abelian import AbelianStructure, abelianization
from .errors import InvalidParameter
from .homcount import TrivialityReport, count_homs, relator_triviality_check
from .rewriting import AbelianTarget, subgroup_presentation
from .words import (GroupMap, Presentation, StraightLineProgram, Word,
                    _relator_form, commutator, conjugate, invert, multiply,
                    power, simplify_with_map, substitute)


def presentation_G_raw() -> Presentation:
    """The line-and-conic arrangement group, as read off the real picture:
    five generators, the eight monodromy relations plus the projective one.

    The common value of e1 = e2 is written with e1 in the other relators.
    """
    gens = ("e1", "e2", "l0", "l1", "l2")
    e1, e2, l0, l1, l2 = ((1,), (2,), (3,), (4,), (5,))
    e = e1
    l1_e_l1 = conjugate(e, l1)  # l1^-1 e l1
    relators = [
        multiply(e1, invert(e2)),                         # i2
        *_e_l1_l2_relators(e, l1, l2),                    # i1, i3, i4
        commutator(conjugate(l1, invert(e)), l0),         # i5
        _tangency(l0, l1_e_l1),                           # i6
        multiply(conjugate(l1_e_l1, l0),
                 invert(conjugate(e, invert(l2)))),       # i7
        commutator(l2, conjugate(l0, invert(l1_e_l1))),   # i8
        multiply(_l0_inverse(e, l1, l2), l0),             # projective
    ]
    return Presentation(gens, relators)


def presentation_G() -> Presentation:
    """The simplified arrangement group on e, l1, l2."""
    e, l1, l2 = ((1,), (2,), (3,))
    return Presentation(("e", "l1", "l2"), [
        *_e_l1_l2_relators(e, l1, l2), _tangency(multiply(l1, l2), e)])


def _e_l1_l2_relators(e: Word, l1: Word, l2: Word) -> list[Word]:
    """The relations among e, l1 and l2 that G and G-raw share, G-raw's
    i1, i3 and i4: [e l1 e^-1, l2] = 1, and l1 and l2 each tangent to e."""
    return [commutator(conjugate(l1, invert(e)), l2),
            _tangency(l1, e), _tangency(l2, e)]


def _tangency(u: Word, v: Word) -> Word:
    """The tangency relation (uv)^2 = (vu)^2 as a relator, for u and v
    freely reduced."""
    return substitute((1, 2, 1, 2, -1, -2, -1, -2), (u, v))


def _l0_inverse(e: Word, l1: Word, l2: Word) -> Word:
    """l2 e^2 l1, the inverse of the meridian l0 of the line at infinity."""
    return substitute((3, 1, 1, 2), (e, l1, l2))


def eps_name(i: int, j: int) -> str:
    return f"eps_{i}_{j}"


def presentation_pi1(n: int) -> Presentation:
    """The curve-complement group on n^2 generators eps_i_j (indices mod n):
    two conjugation-recurrence families plus one long relator of 2n letters.
    """
    if n < 2:
        raise InvalidParameter("n must be >= 2")
    gens = tuple(eps_name(i, j) for i in range(n) for j in range(n))
    return Presentation(gens, _pi1_relators(n))


def _pi1_relators(n: int) -> list[Word]:
    """The relators of presentation_pi1(n) before normalization, with
    eps_i_j numbered i*n + j + 1."""
    e = [[i % n * n + j % n + 1 for j in range(n + 2)] for i in range(n + 2)]
    relators = []
    for i in range(n):
        for j in range(n):
            # eps_{i+2,j} = eps_{i+1,j}^-1 eps_{i,j} eps_{i+1,j}
            relators.append((e[i + 2][j], -e[i + 1][j], -e[i][j], e[i + 1][j]))
            # eps_{i,j+2} = eps_{i,j+1}^-1 eps_{i,j} eps_{i,j+1}
            relators.append((e[i][j + 2], -e[i][j + 1], -e[i][j], e[i][j + 1]))
    return relators + [long_relator(n)]


def long_relator(n: int) -> Word:
    """The 2n-letter product relator of presentation_pi1(n): the letters
    eps_k_k, eps_k_{k+1} for k = 0..n-1, indices mod n."""
    if n < 2:
        raise InvalidParameter("n must be >= 2")
    return tuple(i * n + j + 1 for k in range(n)
                 for (i, j) in ((k, k), (k, (k + 1) % n)))


_CURVE_LEAVES = ((0, 0), (0, 1), (1, 0), (1, 1))
_CURVE_GENERATORS = tuple(eps_name(i, j) for i, j in _CURVE_LEAVES)


def _curve_nodes(n: int) -> tuple[list[Word], list[int], set[int]]:
    """The inner nodes of curve_program(n), the symbol of each eps_i_j, at
    i*n + j, and the positions in _pi1_relators(n) of the relators the
    nodes read.  The leaves eps_0_0, eps_0_1, eps_1_0, eps_1_1 are symbols
    1..4; each other eps_i_j is one node, the recurrence that defines it
    written as W_u^-1 W_v W_u over earlier symbols, j-direction first: the
    j-family relator of eps_i_j, at 2(i*n + j - 2) + 1, for i < 2, and the
    i-family one, at 2((i - 2)*n + j), for the rest."""
    symbol = {ij: s for s, ij in enumerate(_CURVE_LEAVES, 1)}
    nodes: list[Word] = []
    definitions: set[int] = set()

    def define(ij, v, u, position):
        nodes.append(conjugate((symbol[v],), (symbol[u],)))
        symbol[ij] = len(_CURVE_LEAVES) + len(nodes)
        definitions.add(position)

    for i in (0, 1):
        for j in range(2, n):
            define((i, j), (i, j - 2), (i, j - 1), 2 * (i * n + j - 2) + 1)
    for i in range(2, n):
        for j in range(n):
            define((i, j), (i - 2, j), (i - 1, j), 2 * ((i - 2) * n + j))
    return nodes, [symbol[divmod(k, n)] for k in range(n * n)], definitions


def curve_program(n: int) -> StraightLineProgram:
    """The group of presentation_pi1_reduced(n) as a straight-line program
    over the four generators eps_i_j, i, j in {0, 1}.

    The inner nodes are the recurrences that express every other eps_i_j
    (`_curve_nodes`).  The relators are the relators of presentation_pi1(n)
    that are not such definitions, with each eps_i_j written as its symbol,
    each kept once.  presentation_pi1_reduced(n) is their expansion, so the
    definitions, which expand to nothing, and the repeats are dropped here
    at the source; its n^4 or so letters are never built.
    """
    if n < 2:
        raise InvalidParameter("n must be >= 2")
    nodes, symbols, definitions = _curve_nodes(n)
    relators = dict.fromkeys(
        tuple(symbols[x - 1] if x > 0 else -symbols[-x - 1] for x in r)
        for k, r in enumerate(_pi1_relators(n)) if k not in definitions)
    # the nodes conjugate one earlier symbol by another, and the relators
    # rename the letters of the reduced _pi1_relators(n) one to one, so
    # every word is freely reduced and in range by construction
    return StraightLineProgram._make(_CURVE_GENERATORS, tuple(nodes),
                                     tuple(relators))


def _reduced_words(n: int) -> tuple[list[Word], set[int]]:
    """Words over (eps_0_0, eps_0_1, eps_1_0, eps_1_1) for every eps_i_j,
    the expansion of the symbols of curve_program(n), indexed like the
    generators of presentation_pi1(n): eps_i_j's word at i*n + j; and the
    positions in _pi1_relators(n) of the definitions they expand."""
    nodes, symbols, definitions = _curve_nodes(n)
    words = StraightLineProgram._make(_CURVE_GENERATORS, tuple(nodes),
                                      ()).expand()
    return [words[s - 1] for s in symbols], definitions


def presentation_pi1_reduced(n: int) -> Presentation:
    """The same group on the four generators eps_i_j, i,j in {0,1}: the
    image of every relator of presentation_pi1(n) under the substitution of
    each eps_i_j by its recurrence word, the expansion of curve_program(n).
    The (n + 2)(n - 2) relators that served as definitions, the i-family
    with i + 2 < n and the j-family with i < 2 and j + 2 < n, reduce to
    nothing and are written down as such; the wrap-around and
    cross-consistency ones survive, repeats included.  The relators hold
    about n^4 letters, so the Alexander polynomial and the commutator rank
    read curve_program(n) instead; this presentation is for the commands
    that print or search it.
    """
    if n < 2:
        raise InvalidParameter("n must be >= 2")
    images, definitions = _reduced_words(n)
    # substitute returns freely reduced words, so only the normal form is
    # taken
    return Presentation._make(_CURVE_GENERATORS, tuple(
        () if k in definitions else _relator_form(substitute(r, images),
                                                    len(_CURVE_GENERATORS))
        for k, r in enumerate(_pi1_relators(n))))


def derive_pi1_via_rs(n: int) -> Presentation:
    """Independent derivation of the curve group: Reidemeister-Schreier on
    the arrangement group along (Z/n)^2, quotienting by the line meridian
    powers l1^n, l2^n and (l2 e^2 l1)^-n, then Tietze simplification."""
    if n < 2:
        raise InvalidParameter("n must be >= 2")
    p = presentation_G()
    target = AbelianTarget(moduli=(n, n), generators=p.generators,
                           images=((0, 0), (1, 0), (0, 1)))
    e, l1, l2 = ((1,), (2,), (3,))
    l0 = invert(_l0_inverse(e, l1, l2))
    extras = [power(l1, n), power(l2, n), power(l0, n)]
    return subgroup_presentation(p, target, extras)


_ZARISKI3_GENERATORS = ("g2", "g00", "g01", "g10", "g11")


def presentation_zariski3(variant: str = "corrected") -> Presentation:
    """The comparison presentation for the 9-cuspidal sextic: braid relations
    g2 g_ij g2 = g_ij g2 g_ij for i,j in {0,1,2} with the index-2 entries
    expanded through the substitution table.

    "stated" keeps the table verbatim: g22 = g21 g20 g21^-1, nine relators,
    nothing else.  Its abelianization is Z (every braid relator only equates
    generators there), so it cannot present the curve group as it stands.

    "corrected" repairs the single defective table entry -- g22 conjugates
    g00, not g20; with the verbatim entry the pulled-back (2,2) braid
    relation fails in the curve group while all eight others hold -- and
    closes the presentation projectively with two more relators: the image
    of the 2n-letter product relator, and the identification of g00 with the
    image of eps_11 (eps_01^-1 eps_00 eps_01) eps_11^-1.  The result has
    abelianization Z/6 and matches the reduced curve presentation on the
    whole invariant battery.
    """
    if variant not in ("stated", "corrected"):
        raise InvalidParameter(f"unknown variant: {variant!r}")
    g2: Word = (1,)
    table: dict[tuple[int, int], Word] = {
        (0, 0): (2,), (0, 1): (3,), (1, 0): (4,), (1, 1): (5,)}
    # g_ij conjugated by g_kl as in the table: g_kl g_ij g_kl^-1
    table[2, 0] = conjugate(table[0, 0], invert(table[1, 0]))
    table[2, 1] = conjugate(table[1, 0], invert(table[1, 1]))
    table[0, 2] = conjugate(table[0, 0], invert(table[0, 1]))
    table[1, 2] = conjugate(table[1, 0], invert(table[1, 1]))
    if variant == "stated":
        table[2, 2] = conjugate(table[2, 0], invert(table[2, 1]))
    else:
        table[2, 2] = conjugate(table[0, 0], invert(table[2, 1]))
    # g2 g_ij g2 = g_ij g2 g_ij
    relators = [substitute((1, 2, 1, -2, -1, -2), (g2, table[i, j]))
                for i in range(3) for j in range(3)]
    if variant == "corrected":
        relators.extend(_zariski3_completion())
    return Presentation(_ZARISKI3_GENERATORS, relators)


def _zariski3_images() -> tuple[Word, ...]:
    """Images of eps_00, eps_01, eps_10, eps_11 (the generators of
    presentation_pi1_reduced(3), in order) under the candidate map."""
    g2, g01, g10, g11 = ((1,), (3,), (4,), (5,))
    return (conjugate(g11, invert(g2)), g10, g2, conjugate(g01, invert(g2)))


def _zariski3_completion() -> list[Word]:
    """The two closing relators of the corrected comparison presentation:
    the image of the reduced product relator under the candidate map, and
    the image of the auxiliary source word times the inverse of its target
    word g00."""
    images = _zariski3_images()
    words, _ = _reduced_words(3)
    reduced_long = substitute(long_relator(3), words)
    fifth, g00 = zariski_aux_datum()
    return [substitute(reduced_long, images),
            multiply(substitute(fifth, images), invert(g00))]


def zariski_iso_candidate(variant: str = "corrected") -> GroupMap:
    """The candidate isomorphism from the reduced curve presentation (n = 3)
    to the comparison presentation."""
    return GroupMap(presentation_pi1_reduced(3),
                    presentation_zariski3(variant), _zariski3_images())


def zariski_aux_datum():
    """The fifth displayed correspondence, kept as a consistency datum:
    (source word eps_11 * eps_00^{01} * eps_11^-1, target word g00), with
    eps_00^{01} = eps_01^-1 eps_00 eps_01 and eps_00, eps_01, eps_10, eps_11
    the generators 1..4 of presentation_pi1_reduced(3)."""
    return (4, -2, 1, 2, -4), (2,)  # g00 in the target


def presentation_oka(n: int) -> Presentation:
    """The free product Z/2 * Z/n."""
    if n < 2:
        raise InvalidParameter("n must be >= 2")
    return Presentation(("a", "b"), [(1, 1), (2,) * n])


def oka_quotient(n: int):
    """Quotient of the curve group by eps_i_j = eps_i_0, with the canonical
    map tracked through simplification.  Returns (GroupMap, Presentation).

    Built by substitution (Oka, Math. Ann. 218, 1975): every eps_i_j of row
    i becomes one generator c_i, named eps_i_{n-1}, in the relators of
    presentation_pi1(n).  The j-family becomes trivial, the i-family n
    copies of c_{i+2} = c_{i+1}^-1 c_i c_{i+1}, the long relator the
    product of the c_k^2; `simplify_with_map` takes it from those n
    generators, and each eps_i_j maps to the image of c_i.  Tietze
    elimination from presentation_pi1(n) plus the relators eps_i_j =
    eps_i_0 keeps eps_i_{n-1} in each row; the tests check for n <= 15 that
    it gives the same presentation and images, byte for byte, after
    n(n - 1) more steps."""
    if n < 2:
        raise InvalidParameter("n must be >= 2")
    rows = [(i + 1,) for i in range(n) for _ in range(n)]
    generators = tuple(eps_name(i, n - 1) for i in range(n))
    quotient, image_map = simplify_with_map(Presentation(
        generators, [substitute(r, rows) for r in _pi1_relators(n)]))
    images = tuple(image_map[name] for name in generators for _ in range(n))
    return GroupMap(presentation_pi1(n), quotient, images), quotient


class Battery(Record):
    """The invariant battery of two groups: their H1 and their numbers of
    homomorphisms into S_k."""

    __slots__ = ("h1", "hom_counts")

    h1: tuple[AbelianStructure, AbelianStructure]
    hom_counts: tuple[tuple[int, int, int], ...]  # (k, first, second)

    @property
    def agrees(self) -> bool:
        return (self.h1[0] == self.h1[1]
                and all(a == b for _, a, b in self.hom_counts))


def invariant_battery(a: Presentation, b: Presentation, ks,
                      budget: int = 10**9) -> Battery:
    """H1 of a and b and |Hom(-, S_k)| of each for every k in ks, the
    budget capping each count's search as in count_homs."""
    return Battery((abelianization(a), abelianization(b)),
                   tuple((k, count_homs(a, k, budget).total,
                          count_homs(b, k, budget).total) for k in ks))


class MapCheckReport(Record):
    __slots__ = ("source_h1", "target_h1", "h1_well_defined", "h1_surjective",
                 "h1_isomorphism", "triviality", "hom_counts")

    source_h1: AbelianStructure
    target_h1: AbelianStructure
    h1_well_defined: bool
    h1_surjective: bool
    h1_isomorphism: bool
    triviality: TrivialityReport
    hom_counts: tuple[tuple[int, int, int], ...]  # (k, source, target)

    @property
    def consistent_with_isomorphism(self) -> bool:
        return (self.h1_isomorphism and self.triviality.passed
                and all(a == b for _, a, b in self.hom_counts))


def map_check(m: GroupMap, kmax: int = 3) -> MapCheckReport:
    """Necessary-condition battery for a GroupMap: the induced map on H1,
    relator triviality in symmetric-group quotients, and hom-count agreement.

    Finitely generated abelian groups are Hopfian, so the map is well
    defined on H1 exactly when adding the images of the source relators to
    the target's relators leaves H1 of the target unchanged, and onto
    exactly when adding the generator images makes it trivial.  Only a
    well defined map onto a target with the source's H1 is an isomorphism.
    """
    triviality = relator_triviality_check(m, kmax)
    # the triviality check has already counted every hom of the target
    hom_counts = tuple((k, count_homs(m.source, k).total, count)
                       for k, count in triviality.homs_checked.items())
    src_h1, tgt_h1 = abelianization(m.source), abelianization(m.target)
    gens, relators = m.target.generators, list(m.target.relators)
    well_defined = abelianization(Presentation(
        gens, relators + [m.apply(r) for r in m.source.relators])) == tgt_h1
    surjective = abelianization(Presentation(
        gens, relators + list(m.images))) == AbelianStructure(0, ())
    iso = well_defined and surjective and src_h1 == tgt_h1
    return MapCheckReport(src_h1, tgt_h1, well_defined, surjective, iso,
                          triviality, hom_counts)
