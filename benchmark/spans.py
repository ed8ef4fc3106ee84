"""Span recording around the public functions of each stlayout module.

Nothing here touches the library's source: :func:`traced` swaps each
listed function for a timing wrapper in every namespace that holds it
(the library's own modules and the benchmark's) and puts the originals
back on exit.  Spans are kept in memory as ``[name, start, end, parent]``
rows, where ``parent`` is the index of the enclosing span or -1.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import stlayout.generate
import stlayout.graph
import stlayout.io
import stlayout.layout
import stlayout.ordering
import stlayout.splitting
import stlayout.validate
from stlayout import BitonicOrdering

BRUTE_LIMIT = 1200  # piece count at or below which the validator brute-forces

# (span name, module, function): every public call timed by the traced run
TARGETS = (
    ("io.graph_from_text", stlayout.io, "graph_from_text"),
    ("io.graph_to_text", stlayout.io, "graph_to_text"),
    ("io.drawing_to_text", stlayout.io, "drawing_to_text"),
    ("io.drawing_from_text", stlayout.io, "drawing_from_text"),
    ("graph.build_graph", stlayout.graph, "build_graph"),
    ("ordering.find_bitonic_ordering", stlayout.ordering,
     "find_bitonic_ordering"),
    ("ordering.verify_bitonic_ordering", stlayout.ordering,
     "verify_bitonic_ordering"),
    ("splitting.minimum_split_plan", stlayout.splitting,
     "minimum_split_plan"),
    ("splitting.apply_splits", stlayout.splitting, "apply_splits"),
    ("layout.draw_polyline", stlayout.layout, "draw_polyline"),
    ("layout.draw_straightline", stlayout.layout, "draw_straightline"),
    ("validate.check_upward_planar", stlayout.validate,
     "check_upward_planar"),
    ("validate.check_bounds", stlayout.validate, "check_bounds"),
    ("generate.generate_random_st_graph", stlayout.generate,
     "generate_random_st_graph"),
    ("generate.add_random_chords", stlayout.generate, "add_random_chords"),
)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self.input_graph = None  # the graph the current draw started from

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        row = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self.spans.append(row)
        self._open.append(idx)
        row[1] = time.perf_counter()
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._open.pop()

    def totals(self, clock) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: summed time, and summed self time.

        ``clock(start, end)`` converts a span's stamps to seconds.
        """
        wall: defaultdict[str, float] = defaultdict(float)
        self_t: defaultdict[str, float] = defaultdict(float)
        child: defaultdict[int, float] = defaultdict(float)
        durations = [clock(start, end) for _, start, end, _ in self.spans]
        for (_, _, _, parent), dur in zip(self.spans, durations):
            if parent >= 0:
                child[parent] += dur
        for idx, (name, _, _, _) in enumerate(self.spans):
            wall[name] += durations[idx]
            self_t[name] += durations[idx] - child[idx]
        return wall, self_t


def _span_name(tracer: Tracer, name: str, args) -> str:
    # ordering the split graph is a separate stage from ordering the input
    if (name == "ordering.find_bitonic_ordering"
            and args[0] is not tracer.input_graph):
        return "ordering.order_split_graph"
    return name


def _count(tracer: Tracer, name: str, args, result) -> None:
    c = tracer.counts
    if name == "splitting.minimum_split_plan":
        c["splitting.splits"] += len(result.split_edges)
    elif name == "ordering.find_bitonic_ordering":
        if isinstance(result, BitonicOrdering):
            c["ordering.gap_edges"] += len(result.augment_edges)
    elif name == "validate.check_upward_planar":
        pieces = sum(len(p) - 1 for p in args[1].edge_paths)
        c["validate.pieces"] += pieces
        c["validate.brute_graphs"] += pieces <= BRUTE_LIMIT


def _wrap(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        with tracer.span(_span_name(tracer, name, args)):
            result = fn(*args, **kwargs)
        _count(tracer, name, args, result)
        return result
    return wrapper


@contextmanager
def traced(tracer: Tracer, targets=TARGETS, extra_modules=()):
    """Route every call to a target function through ``tracer``.

    The wrapper replaces the function under every name that refers to it
    in the stlayout package and in ``extra_modules``.
    """
    namespaces = [m for name, m in list(sys.modules.items())
                  if name == "stlayout" or name.startswith("stlayout.")]
    namespaces += list(extra_modules)
    patched = []
    try:
        for name, module, fname in targets:
            fn = getattr(module, fname)
            wrapper = _wrap(tracer, name, fn)
            for ns in namespaces:
                for attr, val in list(vars(ns).items()):
                    if val is fn:
                        setattr(ns, attr, wrapper)
                        patched.append((ns, attr, fn))
        yield tracer
    finally:
        for ns, attr, fn in reversed(patched):
            setattr(ns, attr, fn)
