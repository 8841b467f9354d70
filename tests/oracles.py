"""Direct constructions that several test files compare the fast paths
against: the exponent-sum matrix of a presentation, a kernel presentation
before any Tietze step and its H1 by the exact dense Smith form, the
kernel's exponent rows with every orbit read whole, and the least rotation
of a word trying every start.  `watch_orbits` counts the row orbits a
reader leaves unread; `check_smith_form` takes a Smith form under a
deadline and checks it."""

import signal
from itertools import chain

from cuspidal.abelian import (AbelianStructure, IntegerMatrix,
                              invariant_factors, smith_normal_form)
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
    exponent matrix with each nonzero row kept once up to sign, and its
    exact Smith form, with no sparse front end, no orbit and no modulus."""
    kernel = raw_kernel(p, target)
    rows = {}
    for row in relator_matrix(kernel).data:
        lead = next(filter(None, row), 0)
        if lead:
            rows[tuple(x if lead > 0 else -x for x in row)] = None
    ncols = len(kernel.generators)
    d, _, _ = smith_normal_form(IntegerMatrix(len(rows), ncols, rows))
    factors = [x for x in (d.data[i][i] for i in range(min(d.rows, ncols)))
               if x]
    return AbelianStructure(ncols - len(factors),
                            tuple(x for x in factors if x != 1))


def check_smith_form(m: IntegerMatrix) -> None:
    """Take smith_normal_form(m), raising TimeoutError if it has not
    returned after 1 s of wall time (a SIGALRM timer, so the caller is the
    main thread), and check it: U*m*V = D with U and V unimodular,
    D diagonal with d1 | d2 | ... and di >= 0, and the nonzero diagonal
    equal to invariant_factors of the rows of m."""
    def expire(signum, frame):
        raise TimeoutError(f"smith_normal_form({m!r}) took over 1 s")

    handler = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1)
    try:
        d, u, v = smith_normal_form(m)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    assert abs(u.determinant()) == 1 and abs(v.determinant()) == 1
    assert (u * m * v).data == d.data
    diagonal = [d.data[i][i] for i in range(min(d.rows, d.cols))]
    assert all(d.data[i][j] == 0 for i in range(d.rows)
               for j in range(d.cols) if i != j)
    assert all(x >= 0 for x in diagonal)
    for x, y in zip(diagonal, diagonal[1:]):
        assert y % x == 0 if x else y == 0
    assert invariant_factors(
        [({j: x for j, x in enumerate(row) if x},) for row in m.data]) == \
        [x for x in diagonal if x]


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
