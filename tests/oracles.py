"""Direct constructions that several test files compare the fast paths
against: the exponent-sum matrix of a presentation, a kernel presentation
before any Tietze step and its H1 by the dense Smith form, the kernel's
exponent rows with every orbit read whole, and the least rotation of a word
trying every start.  `watch_orbits` counts the row orbits a reader leaves
unread."""

from itertools import chain

from cuspidal.abelian import (AbelianStructure, IntegerMatrix, _bareiss,
                              _diagonalize)
from cuspidal.rewriting import SchreierSystem
from cuspidal.words import Presentation


def exponent_vector(w, ngen: int) -> list[int]:
    out = [0] * ngen
    for x in w:
        out[abs(x) - 1] += 1 if x > 0 else -1
    return out


def relator_matrix(p: Presentation) -> IntegerMatrix:
    """Exponent-sum matrix: one row per relator, one column per generator."""
    ngen = len(p.generators)
    return IntegerMatrix(len(p.relators), ngen,
                         [exponent_vector(r, ngen) for r in p.relators])


def raw_kernel(p, target):
    """The kernel presentation before any Tietze step: every relator
    rewritten at every coset."""
    system = SchreierSystem(p, target)
    return Presentation(system.generator_names,
                        [system.rewrite(r, ci) for r in p.relators
                         for ci in range(target.size)])


def kernel_abelianization_oracle(p, target) -> AbelianStructure:
    """The kernel route before abelianized Reidemeister-Schreier: the
    kernel presentation (every relator rewritten at every coset), its
    exponent matrix with each nonzero row kept once up to sign, and the
    dense Smith form, with no sparse front end and no orbit.  The dense
    elimination runs modulo a nonzero maximal minor, as in
    `invariant_factors`: on some random kernels the unbounded one does not
    finish."""
    kernel = raw_kernel(p, target)
    rows = {}
    for row in relator_matrix(kernel).data:
        lead = next(filter(None, row), 0)
        if lead:
            rows[tuple(x if lead > 0 else -x for x in row)] = None
    ncols = len(kernel.generators)
    rank, minor = _bareiss(list(rows))
    diagonal, _, _ = _diagonalize(IntegerMatrix(len(rows), ncols, rows),
                                  abs(minor))
    factors = diagonal[:rank]
    return AbelianStructure(ncols - rank,
                            tuple(d for d in factors if d != 1))


def watch_orbits(monkeypatch) -> dict[str, int]:
    """Counts of the row orbits that SchreierSystem.exponent_rows yields
    from now on: "orbits", all of them, and "whole", those read to their
    end."""
    counts = {"orbits": 0, "whole": 0}
    exponent_rows = SchreierSystem.exponent_rows

    def watched(system, relators):
        for orbit in exponent_rows(system, relators):
            counts["orbits"] += 1
            yield _whole(orbit, counts)

    monkeypatch.setattr(SchreierSystem, "exponent_rows", watched)
    return counts


def _whole(orbit, counts):
    yield from orbit
    counts["whole"] += 1


def all_rows(system, relators) -> list[dict[int, int]]:
    """The rows of system.exponent_rows(relators), every orbit read whole,
    in order."""
    return list(chain.from_iterable(system.exponent_rows(relators)))


def least_rotation_oracle(w):
    """Lexicographically least rotation of a nonempty word by the two-pointer
    scan that tries every start in turn."""
    n = len(w)
    s = w + w
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = s[i + k], s[j + k]
        if a == b:
            k += 1
        elif a < b:
            j += k + 1
            k = 0
        else:
            i = max(i + k + 1, j)
            j = i + 1
            k = 0
    return s[i:i + n]
