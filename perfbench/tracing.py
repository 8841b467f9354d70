"""Spans and work counts around the public entry points of `cuspidal`.

The tracer replaces each entry point with a wrapper in every `cuspidal`
module namespace that holds it, because callers look names up there (`cli`
imports `count_homs` by name, for example).  A span records its name, start,
end, parent span and task id; spans stay in memory until the run writes them
out.  Work counts come from call arguments and return values only, so they
repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter

from cuspidal import errors

LAYERS = ("words", "rewriting", "abelian", "alexander", "homcount",
          "geometry", "presentations", "cli")


def _letters(p) -> int:
    return sum(len(r) for r in p.relators)


def _cells(p) -> int:
    return len(p.relators) * len(p.generators)


def _simplify(a, out):
    p = a["p"]
    return {"words.gens_eliminated": len(p.generators) - len(out.generators),
            "words.letters_in": _letters(p),
            "words.letters_out": _letters(out)}


def _subgroup_presentation(a, out):
    return {"rewriting.kernel_gens": len(out.generators),
            "rewriting.kernel_letters": _letters(out)}


def _alexander_polynomial(a, out):
    return {"alexander.fox_cells": _cells(a["p"]),
            "alexander.poly_degree": out[0].degree}


def _superabundance_multi(a, out):
    # three primes, 3n points, one column per degree-(n-1) monomial
    n = a["n"]
    primes = 3 if a.get("primes") is None else len(a["primes"])
    return {"geometry.rank_cells": primes * 3 * n * n * (n + 1) // 2}


def _plane_size(field) -> int:
    return field.p * field.p + field.p + 1


# module -> entry point -> counts taken from (bound arguments, return value)
ENTRY_POINTS = {
    "words": {"simplify": _simplify},
    "rewriting": {"subgroup_presentation": _subgroup_presentation},
    "abelian": {
        "abelianization": lambda a, out: {"abelian.matrix_cells":
                                          _cells(a["p"])},
        "commutator_abelianization_rank": None,
    },
    "alexander": {"alexander_polynomial": _alexander_polynomial},
    "homcount": {
        "count_homs": lambda a, out: {"homcount.homs_found": out.total},
        "relator_triviality_check": lambda a, out: {
            "homcount.homs_checked": sum(out.homs_checked.values())},
    },
    "geometry": {
        "superabundance_multi": _superabundance_multi,
        "splitting_check_n2": lambda a, out: {
            "geometry.lines_tested": _plane_size(a["field"])},
        "singular_points": None,
        "singular_points_scan": lambda a, out: {
            "geometry.points_scanned": _plane_size(a["field"])},
    },
    "presentations": {"derive_pi1_via_rs": None, "map_check": None},
    "cli": {"cmd_verify_all": lambda a, out: {
        "cli.checks": len(a["run"].results),
        "cli.checks_failed": len(a["run"].failures)}},
}

COUNTERS = ("words.gens_eliminated", "words.letters_in", "words.letters_out",
            "rewriting.kernel_gens", "rewriting.kernel_letters",
            "abelian.matrix_cells", "alexander.fox_cells",
            "alexander.poly_degree", "homcount.homs_found",
            "homcount.homs_checked", "homcount.budget_exceeded",
            "geometry.points_scanned", "geometry.lines_tested",
            "geometry.rank_cells", "cli.checks", "cli.checks_failed")


class Tracer:
    """Records spans and counts while installed; `install` and `remove`
    swap the wrappers in and out so untraced passes run the plain code.
    `clock` gives the span times."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.task: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def _wrap(self, layer: str, fn, count):
        name = f"{layer}.{fn.__name__}"
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "layer": layer, "task": self.task,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span["start"] = self.clock()
            try:
                out = fn(*args, **kwargs)
            except errors.BudgetExceeded:
                self.counts["homcount.budget_exceeded"] += 1
                raise
            finally:
                span["end"] = self.clock()
                self._stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts.update(count(bound.arguments, out))
            return out

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "cuspidal" or name.startswith("cuspidal.")]
        for layer, entries in ENTRY_POINTS.items():
            home = sys.modules[f"cuspidal.{layer}"]
            for fname, count in entries.items():
                original = getattr(home, fname)
                wrapper = self._wrap(layer, original, count)
                sites = [(module, attr) for module in modules
                         for attr, value in vars(module).items()
                         if value is original]
                for module, attr in sites:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def pass_metrics(self) -> tuple[dict, dict]:
        """(self seconds per layer, exact counts) of the spans recorded
        since the last reset.  Self time is a span's duration minus the
        durations of its direct children."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        counts = {c: self.counts.get(c, 0) for c in COUNTERS}
        counts.update({f"{layer}.calls": 0 for layer in LAYERS})
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        for span, inner in zip(self.spans, child_time):
            self_s[span["layer"]] += span["end"] - span["start"] - inner
            counts[f"{span['layer']}.calls"] += 1
        return self_s, counts
