"""Spans around the package's layer boundaries, recorded from outside.

`Tracer.install()` replaces the names `steinertree.solver` calls, a few
methods and the exact-solver kernel with wrappers that record one span per
call; `uninstall()` puts the originals back. Untraced runs never install
it, so they execute the package unmodified.

A span is (name, start, end, parent index, call id). Spans stay in memory
and are written out once at the end of a run. A span's self time is its
duration minus the durations of its direct children; summed over every
span of a call, self times add up to the call's duration.
"""
from __future__ import annotations

import json
import time
import weakref
from collections import Counter

import steinertree.exact
import steinertree.solver
import steinertree.stp
from steinertree.components import CandidatePool
from steinertree.core import ContractedTree

ROOT = "call"

# (owner, attribute, span name). Module attributes are looked up at call
# time by their callers, so replacing them reaches every call site.
_FUNCTIONS = [
    (steinertree.solver, "solve", "solver.solve"),
    (steinertree.solver, "metric_closure", "core.metric_closure"),
    (steinertree.solver, "enumerate_full_components", "components.enumerate"),
    (steinertree.solver, "CandidatePool", "components.pool_build"),
    (steinertree.solver, "run_phase1", "phase1"),
    (steinertree.solver, "run_phase2", "phase2"),
    (steinertree.solver, "optimal_steiner_tree", "exact.opt"),
    (steinertree.solver, "optimal_k_restricted", "exact.optk"),
    (steinertree.solver, "expand_solution", "solver.expand"),
    (steinertree.solver, "check_run", "bounds.check_run"),
    (steinertree.exact, "dw_closure_tree", "exact.dw_closure_tree"),
    (steinertree.stp, "load_stp", "stp.load"),
    (CandidatePool, "savings_for", "components.savings_for"),
    (ContractedTree, "contract_zero_set", "core.contract_zero_set"),
]

# Span names whose subtree decides which caller a dw_closure_tree call
# is charged to.
_DW_CALLERS = {"components.enumerate": "under_enumerate", "exact.opt": "under_opt"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []       # [name, start, end, parent, call id]
        self.counts: Counter = Counter()  # (call id, counter name) -> value
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._pool: CandidatePool | None = None
        self.call_id = -1

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.call_id])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        traced.__wrapped__ = fn
        return traced

    def call(self, fn, *args):
        """Run one timed unit of work under a root span."""
        self.call_id += 1
        result = self._wrap(ROOT, fn)(*args)
        if self._pool is not None:
            sizes = Counter(len(c.terminals) for c in self._pool.candidates)
            for m, n in sizes.items():
                self.counts[(self.call_id, f"components.candidates_m{m}")] += n
            self.counts[(self.call_id, "components.candidates")] += len(self._pool)
            self._pool = None
        return result

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in _FUNCTIONS:
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original)
            if attr == "CandidatePool":
                wrapped = self._keeping_pool(wrapped)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        # bottleneck_matrix is a cached property: trace only the first access
        # per tree, which is the one that builds the matrix.
        prop = ContractedTree.__dict__["bottleneck_matrix"]
        build = self._wrap("core.bottleneck_matrix", prop.fget)
        built: weakref.WeakSet = weakref.WeakSet()

        def fget(tree):
            if tree in built:
                return prop.fget(tree)
            built.add(tree)
            return build(tree)

        self._saved.append((ContractedTree, "bottleneck_matrix", prop))
        ContractedTree.bottleneck_matrix = property(fget, doc=prop.__doc__)

    def _keeping_pool(self, build_pool):
        def wrapper(*args, **kwargs):
            self._pool = build_pool(*args, **kwargs)
            return self._pool
        return wrapper

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_totals(self, groups: list[set[int]],
                     scale: dict[int, float] | None = None) -> list[Counter]:
        """For each group of call ids: self time (`<layer>_s`) and call
        count (`<layer>_calls`) per layer, dw_closure_tree split by caller,
        the recorded counters, and `trace.call_s`, the summed duration of
        the calls themselves. Times of a call are multiplied by its
        `scale` entry, if any."""
        scale = scale or {}
        group_of = {call: g for g, calls in enumerate(groups) for call in calls}
        totals = [Counter() for _ in groups]
        caller: list[str | None] = []
        for (name, start, end, parent, call), own in zip(self.spans, self.self_times()):
            caller.append(_DW_CALLERS.get(name, caller[parent] if parent >= 0 else None))
            if call not in group_of:
                continue
            out = totals[group_of[call]]
            factor = scale.get(call, 1.0)
            if name == ROOT:
                out["trace.call_s"] += (end - start) * factor
                continue
            if name == "exact.dw_closure_tree":
                name = f"exact.dw_closure_tree.{caller[-1] or 'other'}"
            out[f"{name}_s"] += own * factor
            out[f"{name}_calls"] += 1
        for (call, counter), value in self.counts.items():
            if call in group_of:
                totals[group_of[call]][counter] += value
        return totals

    def write(self, path: str) -> None:
        """One JSON list per line: name, start, end, parent, call id."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
