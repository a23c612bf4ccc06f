"""In-memory spans around the public functions of each pcpoly layer.

The tracer wraps functions from outside: the original is replaced in its
defining module and in every loaded ``pcpoly.*`` module that imported it by
name, and class methods are replaced on the class.  ``Tracer.installed``
restores every original on exit.  Spans are recorded in one thread, so the
children of a span never overlap and its self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

# layer -> public functions, as "module:qualname"
LAYERS = {
    "exactpoly.squarefree": (
        "pcpoly.exactpoly:squarefree_decomposition",
        "pcpoly.exactpoly:squarefree_part",
    ),
    "exactpoly.sturm": (
        "pcpoly.exactpoly:sturm_chain",
        "pcpoly.exactpoly:count_roots_halfopen",
    ),
    "exactpoly.count_nonreal": ("pcpoly.exactpoly:count_nonreal_roots",),
    "exactpoly.isolate": (
        "pcpoly.exactpoly:isolate_real_roots",
        "pcpoly.exactpoly:dominant_real_root",
    ),
    "exactpoly.prefilter": ("pcpoly.exactpoly:descartes_no_root_above",),
    "exactpoly.compare": (
        "pcpoly.exactpoly:AlgebraicReal.compare",
        "pcpoly.exactpoly:AlgebraicReal.compare_fraction",
    ),
    "cliquepoly.clique_counts": ("pcpoly.cliquepoly:clique_counts",),
    "graphs": (
        "pcpoly.graphs:adj_from_edge_mask",
        "pcpoly.graphs:graph_from_edge_mask",
        "pcpoly.graphs:Graph.__post_init__",
        "pcpoly.graphs:to_graph6",
        "pcpoly.graphs:parse_graph",
    ),
    "matching": (
        "pcpoly.matching:matching_counts_from_adj",
        "pcpoly.matching:matching_polynomials",
        "pcpoly.matching:t_largest",
    ),
    "extremal": (
        "pcpoly.extremal:max_beta_pc",
        "pcpoly.extremal:max_beta_equality_family",
        "pcpoly.extremal:min_beta_graph",
    ),
    "survey": (
        "pcpoly.survey:survey_nonreal",
        "pcpoly.survey:census_extremal_check",
    ),
    "cli": ("pcpoly.cli:main",),
}

# layer -> (counter, function of the call's result giving the increment)
COUNTERS = {
    "exactpoly.prefilter": ("hits", lambda settled: int(settled)),
    "exactpoly.compare": ("equal", lambda cmp: int(cmp == 0)),
    "cliquepoly.clique_counts": ("cliques", lambda counts: sum(counts) - 1),
}


class Tracer:
    """Records spans as (name, start, end, parent index, operation id).

    A span opened with no span open starts a new operation; nested spans
    inherit its id.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: dict = {}
        self.operations = 0
        self._open: list = []

    def wrap(self, name: str, fn, count=None):
        spans, open_, clock = self.spans, self._open, self.clock

        def traced(*args, **kwargs):
            idx = len(spans)
            if open_:
                parent = open_[-1]
                op = spans[parent][4]
            else:
                parent = -1
                self.operations += 1
                op = self.operations
            spans.append((name, 0.0, 0.0, parent, op))
            open_.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[idx] = (name, start, end, parent, op)
            if count is not None:
                key = (name, count[0])
                self.counts[key] = self.counts.get(key, 0) + count[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every function in ``LAYERS``; restore the originals on exit."""
        patches = []
        try:
            for layer, targets in LAYERS.items():
                for target in targets:
                    patches.extend(self._patch(layer, target, COUNTERS.get(layer)))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def _patch(self, layer, target, count):
        module_name, qualname = target.split(":")
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(layer, original, count))
            return [(cls, attr, original)]
        original = getattr(module, qualname)
        wrapper = self.wrap(layer, original, count)
        patches = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "pcpoly" or mod_name.startswith("pcpoly.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    patches.append((mod, attr, original))
        return patches

    def layer_totals(self) -> dict:
        """layer -> {"calls", "self_s"} plus the layer's counters."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child[i]
        for (name, counter), value in self.counts.items():
            out.setdefault(name, {"calls": 0, "self_s": 0.0})[counter] = value
        return out

    def root_wall(self) -> float:
        """Summed duration of the spans opened with no span open."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)
