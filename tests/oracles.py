"""Direct constructions that several test files compare the fast paths
against: the exponent-sum matrix of a presentation, and a kernel
presentation before any Tietze step."""

from cuspidal.abelian import IntegerMatrix
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
