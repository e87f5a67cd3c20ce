"""End-to-end solver: closure, enumeration, phases, oracles, verification.

solve() returns a RunResult holding the solution expanded into original
graph edges, the cost ladder (mst, base, both merges), any oracle values
that fit the configured limits, a bound report, and the full phase traces.
Everything in the JSON rendering except wall time is deterministic for a
given instance and configuration.
"""
from __future__ import annotations

import json
import logging
import math
import operator
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .bounds import BoundReport, check_run
from .components import CandidatePool, CandidateTable, enumerate_full_components
from .core import Instance, MetricClosure, Tree, metric_closure, minimum_spanning_tree
from .errors import InputError, InternalInvariantError
from .exact import (OPT_LIMIT_CAP, OPTK_LIMIT_CAP, check_limit, check_opt_budget,
                    optimal_k_restricted, optimal_steiner_tree)
from .phase1 import Phase1Result, run_phase1
from .phase2 import Phase2Result, run_phase2

log = logging.getLogger(__name__)

MODES = ("mst", "phase1", "full")


@dataclass
class RunConfig:
    k: int = 3
    mode: str = "full"
    exact_opt_limit: int = 10
    exact_optk_limit: int = 8

    def validate(self) -> None:
        """Reject settings the solver cannot run; store k and the limits as ints."""
        if self.mode not in MODES:
            raise InputError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name, least in (("k", 2), ("exact_opt_limit", 0), ("exact_optk_limit", 0)):
            value = getattr(self, name)
            try:
                setattr(self, name, operator.index(value))
            except TypeError:
                raise InputError(f"{name} must be an integer, got {value!r}") from None
            if value < least:
                raise InputError(f"{name} must be at least {least}, got {value}")
        check_limit(self.exact_opt_limit, OPT_LIMIT_CAP, "exact-opt")
        check_limit(self.exact_optk_limit, OPTK_LIMIT_CAP, "exact-optk")


@dataclass
class RunResult:
    instance_name: str
    vertex_count: int
    edge_count: int
    terminal_count: int
    k: int
    mode: str
    scale: int
    solution_edges: list[tuple[int, int, int]]
    solution_cost: int
    mst_cost: int
    base_cost: int | None
    phase1_cost: int | None
    phase2_cost: int | None
    opt_cost: int | None
    restricted_opt_cost: int | None
    stalled: bool
    report: BoundReport
    phase1_trace: dict | None
    phase2_trace: dict | None
    wall_time_s: float
    display: dict = field(default_factory=dict)

    def to_dict(self, timing: bool = True) -> dict:
        out = {
            "schema": 1,
            "instance": {
                "name": self.instance_name,
                "vertices": self.vertex_count,
                "edges": self.edge_count,
                "terminals": self.terminal_count,
                "scale": self.scale,
            },
            "config": {"k": self.k, "mode": self.mode},
            "costs": {
                "mst": self.mst_cost,
                "base": self.base_cost,
                "phase1": self.phase1_cost,
                "phase2": self.phase2_cost,
                "solution": self.solution_cost,
                "opt": self.opt_cost,
                "restricted_opt": self.restricted_opt_cost,
            },
            "display": self.display,
            "solution": {
                "edges": [list(e) for e in self.solution_edges],
                "cost": self.solution_cost,
            },
            "stalled": self.stalled,
            "bounds": self.report.to_dict(),
            "phase1_trace": self.phase1_trace,
            "phase2_trace": self.phase2_trace,
        }
        if timing:
            out["timing"] = {"wall_s": self.wall_time_s}
        return out

    def to_json(self, timing: bool = True) -> str:
        return json.dumps(self.to_dict(timing), sort_keys=True, indent=2)

    @staticmethod
    def csv_header() -> list[str]:
        return ["instance", "vertices", "edges", "terminals", "k", "mst",
                "cost", "opt", "ratio_opt", "ratio_mst", "bounds_ok",
                "runtime_s", "status"]

    def to_csv_row(self) -> list[str]:
        ratio_opt = (f"{self.solution_cost / self.opt_cost:.6f}"
                     if self.opt_cost else "")
        ratio_mst = (f"{self.solution_cost / self.mst_cost:.6f}"
                     if self.mst_cost else "1.000000")
        return [
            self.instance_name,
            str(self.vertex_count),
            str(self.edge_count),
            str(self.terminal_count),
            str(self.k),
            self.display.get("mst", str(self.mst_cost)),
            self.display.get("solution", str(self.solution_cost)),
            self.display.get("opt", "") if self.opt_cost is not None else "",
            ratio_opt,
            ratio_mst,
            "pass" if self.report.ok else "fail",
            f"{self.wall_time_s:.3f}",
            "ok",
        ]


def expand_solution(closure: MetricClosure, tree: Tree, terminals: list[int],
                    origin_of: dict[int, int]) -> Tree:
    """Map interior copies back to graph vertices and expand the tree's
    closure edges into original edges."""
    pairs = ((origin_of.get(u, u), origin_of.get(v, v)) for u, v, _ in tree.edges)
    return closure.expand(pairs, terminals)


def _validate_solution(instance: Instance, tree: Tree) -> None:
    """Hard validation before output: spans all terminals, uses only edges
    that exist in the instance at the recorded weight."""
    if not instance.terminals <= tree.nodes:
        missing = sorted(instance.terminals - tree.nodes)
        raise InternalInvariantError(f"solution misses terminals {missing}")
    for u, v, w in tree.edges:
        key = (u, v) if u < v else (v, u)
        if instance.edge_weights.get(key) != w:
            raise InternalInvariantError(
                f"solution edge {key} (weight {w}) not in the instance"
            )


def _log_candidates(instance: Instance, table: CandidateTable) -> None:
    """One INFO line on enumeration: the rows kept per size, the subsets
    rejected as not full, and the rows whose trees the solve read."""
    sizes = range(2, table.pos.shape[1] + 1)
    kept = np.bincount(table.size, minlength=sizes[-1] + 1)
    rejected = sum(math.comb(len(table.terminal_ids), m) for m in sizes) - len(table)
    log.info("%s: candidates %s, %d subsets not full, %d rows read on demand",
             instance.name or "instance", " ".join(f"m{m}={kept[m]}" for m in sizes),
             rejected, table.rows_built)


@contextmanager
def _stage(instance: Instance, stage: str) -> Iterator[None]:
    """Prefix an InternalInvariantError raised inside with the instance and
    the stage of the solve it came from."""
    try:
        yield
    except InternalInvariantError as exc:
        raise InternalInvariantError(
            f"instance {instance.name or '(unnamed)'}, stage {stage}: {exc}") from exc


def solve(instance: Instance, config: RunConfig | None = None) -> RunResult:
    config = config or RunConfig()
    config.validate()
    started = time.perf_counter()
    terms = sorted(instance.terminals)
    with _stage(instance, "closure"):
        closure = metric_closure(instance)
    if 1 < len(terms) <= config.exact_opt_limit:
        # Before any closure row: the exact optimum reads the whole matrix.
        check_opt_budget(len(closure.vertices), len(terms))
    table = None
    if config.mode != "mst":
        # Before the terminal MST reads a row: at k >= 4 enumeration checks
        # the dense budget first, then computes every closure row in one batch.
        with _stage(instance, "enumerate"):
            table = enumerate_full_components(instance, closure, config.k)
    with _stage(instance, "closure"):
        t0 = minimum_spanning_tree(terms, closure.block(terms))
    mst_cost = t0.total_cost
    log.info("%s: |V|=%d |R|=%d mst=%d", instance.name or "instance",
             instance.vertex_count, len(terms), mst_cost)

    pool = None
    p1: Phase1Result | None = None
    p2: Phase2Result | None = None
    max_residual_gain = None
    if table is not None:
        with _stage(instance, "pool"):
            pool = CandidatePool(table)
        with _stage(instance, "phase 1"):
            p1 = run_phase1(instance, closure, pool, t0)
        if len(pool):
            max_residual_gain = int((p1.base.savings - pool.costs).max())
        if config.mode == "full":
            with _stage(instance, "phase 2"):
                p2 = run_phase2(instance, pool, t0, p1.start, p1.base)
        # The checks need only the largest residual gain, not the scored trees.
        p1 = replace(p1, start=None, base=None)

    opt_cost = None
    restricted_opt_cost = None
    with _stage(instance, "oracles"):
        if len(terms) <= config.exact_opt_limit:
            opt_cost = optimal_steiner_tree(closure, terms, config.exact_opt_limit).cost
        if pool is not None and len(terms) <= config.exact_optk_limit:
            restricted_opt_cost = optimal_k_restricted(
                terms, pool.table, config.k, config.exact_optk_limit
            ).cost
    # After the oracles, which read the last rows a solve reads.
    if pool is not None and log.isEnabledFor(logging.INFO):
        _log_candidates(instance, pool.table)

    origin: dict[int, int] = {}
    if config.mode == "mst":
        winner = t0
    elif config.mode == "phase1":
        winner = p1.solution
        origin = p1.steiner_origin
    else:
        if p1.solution.total_cost <= p2.solution.total_cost:
            winner = p1.solution
            origin = p1.steiner_origin
        else:
            winner = p2.solution
            origin = p2.steiner_origin
    with _stage(instance, "expand"):
        solution = expand_solution(closure, winner, terms, origin)
        _validate_solution(instance, solution)

    with _stage(instance, "checks"):
        max_pair_overlap = None
        if p2 is not None:
            max_pair_overlap = 0
            for a, b in combinations(p2.chosen, 2):
                shared = len(set(a.comp.terminals) & set(b.comp.terminals))
                max_pair_overlap = max(max_pair_overlap, shared)

        report = check_run(
            mst_cost=mst_cost,
            solution_cost=solution.total_cost,
            k=config.k,
            base_cost=p1.base_tree.total_cost if p1 else None,
            merge1_cost=p1.solution_cost_unpruned if p1 else None,
            loss_total=sum(e.comp.loss for e in p1.chosen) if p1 else None,
            max_residual_gain=max_residual_gain,
            merge2_cost=p2.solution_cost_unpruned if p2 else None,
            load_total=sum(r["load"] for r in p2.trace["iterations"]) if p2 else None,
            diff_total=sum(r["saving_diff"] for r in p2.trace["iterations"]) if p2 else None,
            initial_gap=p2.trace["initial_gap"] if p2 else None,
            stalled=p2.stalled if p2 else None,
            max_pair_overlap=max_pair_overlap,
            opt_cost=opt_cost,
            restricted_opt_cost=restricted_opt_cost,
        )
    for name in report.failed:
        log.warning("bound check failed: %s (%s)", name,
                    report.checks[name]["detail"])

    display = {
        "mst": instance.display_cost(mst_cost),
        "solution": instance.display_cost(solution.total_cost),
    }
    if opt_cost is not None:
        display["opt"] = instance.display_cost(opt_cost)

    return RunResult(
        instance_name=instance.name,
        vertex_count=instance.vertex_count,
        edge_count=len(instance.edges),
        terminal_count=len(terms),
        k=config.k,
        mode=config.mode,
        scale=instance.scale,
        solution_edges=[tuple(e) for e in solution.edges],
        solution_cost=solution.total_cost,
        mst_cost=mst_cost,
        base_cost=p1.base_tree.total_cost if p1 else None,
        phase1_cost=p1.solution.total_cost if p1 else None,
        phase2_cost=p2.solution.total_cost if p2 else None,
        opt_cost=opt_cost,
        restricted_opt_cost=restricted_opt_cost,
        stalled=p2.stalled if p2 else False,
        display=display,
        report=report,
        phase1_trace=p1.trace if p1 else None,
        phase2_trace=p2.trace if p2 else None,
        wall_time_s=time.perf_counter() - started,
    )
