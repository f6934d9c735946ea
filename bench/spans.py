"""In-memory span tracing around the solver's module-level functions.

The traced run replaces module attributes such as
``cluedit.solver.enumerate_k_cuts`` with wrappers that record a span
(name, start, end, parent) and bump counters.  The package source is not
edited; ``Tracer.installed()`` restores every original on exit.  Spans and
counts are recorded only while an operation span is open, so the
correctness gate, which runs between operations, leaves no trace.
"""
from __future__ import annotations

import contextlib
import functools
from collections import Counter
from importlib import import_module
from time import perf_counter_ns

# import_module, because the package re-exports a function named preprocess
# that hides the submodule of the same name
cuts = import_module("cluedit.cuts")
graph = import_module("cluedit.graph")
preprocess = import_module("cluedit.preprocess")
solver = import_module("cluedit.solver")

END = 2  # index of the end time in a span


def _after_enumerate(counts: Counter, args, index) -> None:
    if index is None:
        counts["cuts.aborted"] += 1
        return
    counts["cuts.explored"] += index.stats.explored
    counts["cuts.pruned"] += index.stats.pruned
    counts["cuts.emitted"] += index.stats.emitted


def _after_preprocess(counts: Counter, args, outcome) -> None:
    counts["preprocess.rules_fired"] += len(outcome.removed)
    if outcome.rejected:
        counts["preprocess.rejects"] += 1
    else:
        counts["preprocess.kernels"] += 1
        counts["preprocess.kernel_n_total"] += outcome.instance.g.n


def _after_dp(counts: Counter, args, chain) -> None:
    counts["solver.dp_states"] += args[4].dp_states


# (module, attribute, span name or None for count-only, hook after return)
TARGETS = (
    (solver, "solve_at_most_p", "solver.at_most", None),
    (solver, "solve_exact_p", "solver.exact", None),
    (solver, "preprocess", "preprocess", _after_preprocess),
    (preprocess, "connected_components", "graph.components", None),
    (preprocess, "induced_subgraph", "graph.induced_subgraph", None),
    (solver, "enumerate_k_cuts", "cuts.enumerate", _after_enumerate),
    (cuts, "min_cut_leq", "cuts.min_cut", None),
    (cuts, "edges_inside_table", "cuts.inside_table", None),
    (solver, "edges_inside_table", "cuts.inside_table", None),
    (solver, "_dp_numpy", None, _after_dp),
    (solver, "_dp_python", None, _after_dp),
    (solver, "lift_clustering", "solver.lift", None),
    (solver, "clustering_to_edit_set", "solver.lift", None),
    (solver, "verify_solution", "solver.verify", None),
    (solver, "connected_components", "graph.components", None),
    (graph, "connected_components", "graph.components", None),
)


class NullTracer:
    """Stands in for a Tracer in untraced passes; records nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    """Spans as [name, start_ns, end_ns, parent index] plus call counters.

    ``counts`` holds the counters of the current operation; the caller
    reads and clears it after each operation.  ``spans`` keeps every span
    of the run until ``self_times`` folds them at the end.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][END] = perf_counter_ns()

    def _wrap(self, fn, name, after):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            if name is None:
                result = fn(*args, **kwargs)
            else:
                counts[name + ".calls"] += 1
                idx = len(spans)
                spans.append([name, perf_counter_ns(), 0, stack[-1]])
                stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[idx][END] = perf_counter_ns()
            if after is not None:
                after(counts, args, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TARGETS]
        try:
            for mod, attr, name, after in TARGETS:
                setattr(mod, attr, self._wrap(getattr(mod, attr), name, after))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def self_times(self, first: int, last: int) -> tuple[Counter, Counter]:
        """(inclusive, self) nanoseconds per span name over spans[first:last].

        The range must hold whole operations, so every child of a span in it
        is in it too.  Self time is a span's duration minus the durations of
        its direct children, which never overlap one another.
        """
        inclusive: Counter = Counter()
        own: Counter = Counter()
        child_ns = [0] * (last - first)
        for i in range(last - 1, first - 1, -1):
            name, start, end, parent = self.spans[i]
            dur = end - start
            inclusive[name] += dur
            own[name] += dur - child_ns[i - first]
            if parent >= first:
                child_ns[parent - first] += dur
        return inclusive, own
