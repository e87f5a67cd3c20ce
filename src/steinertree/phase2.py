"""Second greedy phase.

Runs two contracted trees side by side, starting from the terminal MST and
the phase-1 base tree as phase 1 scored them. Each step picks the candidate
minimizing load divided by the difference of the savings it produces in the
two trees, then contracts its terminals in both. The gap between the tree costs shrinks
by exactly that difference, so the loop ends when the costs meet. A scan
with no positive difference while the gap is still open is a stall; it is
recorded and the merge built so far is returned.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .components import CandidatePool, argmin_ratio
from .core import Instance, Tree
from .errors import InternalInvariantError
from .phase1 import ChosenEntry, ScoredTree, merge

log = logging.getLogger(__name__)


@dataclass
class Phase2Result:
    solution: Tree
    solution_cost_unpruned: int
    chosen: list[ChosenEntry]
    stalled: bool
    steiner_origin: dict[int, int]
    trace: dict


def select_candidate(costs: np.ndarray, sav_origin: np.ndarray,
                     sav_base: np.ndarray) -> tuple[int, int, int] | None:
    """(index, load, saving difference) of the candidate minimizing
    load / difference among positive differences, given every candidate's
    cost and its savings in the two trees; ties fall to the earliest
    candidate. None when no candidate has a positive difference. Float
    ratios only narrow the field; integer cross-multiplication decides."""
    diffs = sav_origin - sav_base
    loads = costs - sav_base
    i = argmin_ratio(loads, diffs)
    return None if i is None else (i, int(loads[i]), int(diffs[i]))


def run_phase2(instance: Instance, pool: CandidatePool, t0: Tree,
               origin: ScoredTree, base: ScoredTree) -> Phase2Result:
    """Phase 2 between `t0`, the terminal MST, and the phase-1 base tree,
    starting from their scored views (Phase1Result.start and .base)."""
    terms = sorted(instance.terminals)
    t_origin, t_base = origin.view, base.view
    savings = origin.savings, base.savings
    initial_gap = t_origin.cost - t_base.cost
    if initial_gap < 0:
        raise InternalInvariantError("base tree costs more than the MST")
    chosen: list[ChosenEntry] = []
    uid = 0
    alloc = max(instance.vertex_count, pool.max_steiner_id) + 1
    rows: list[dict] = []
    stalled = False

    while t_origin.cost != t_base.cost:
        if t_origin.cost < t_base.cost:
            raise InternalInvariantError("origin tree fell below the base tree")
        if len(rows) >= len(terms):
            raise InternalInvariantError("phase 2 ran past the terminal count")
        if savings is None:
            savings = pool.savings_for(t_origin), pool.savings_for(t_base)
        pick = select_candidate(pool.costs, *savings)
        if pick is None:
            stalled = True
            log.debug("phase2 stalled with gap %d", t_origin.cost - t_base.cost)
            break
        i, load_value, diff_value = pick
        comp, alloc = pool.component(i, alloc)
        uid += 1
        chosen.append(ChosenEntry(uid, comp))
        # Each contraction must drop its tree's cost by exactly the saving
        # the batched scoring gave: cost - load in the base tree, that plus
        # the difference in the origin tree.
        saving_base = comp.cost - load_value
        expected = (t_origin.cost - saving_base - diff_value, t_base.cost - saving_base)
        t_origin = t_origin.contract_zero_set(comp.terminals)
        t_base = t_base.contract_zero_set(comp.terminals)
        savings = None
        if (t_origin.cost, t_base.cost) != expected:
            raise InternalInvariantError(
                f"contracting {comp.terminals} left costs {t_origin.cost}, {t_base.cost};"
                f" the savings give {expected[0]}, {expected[1]}"
            )
        f = Fraction(load_value, diff_value)
        log.debug("phase2 pick %s load=%d diff=%d", comp.terminals, load_value, diff_value)
        rows.append({
            "iteration": len(rows) + 1,
            "candidate_index": i,
            "uid": uid,
            "terminals": list(comp.terminals),
            "candidate_cost": comp.cost,
            "load": load_value,
            "saving_diff": diff_value,
            "f": [f.numerator, f.denominator],
            "origin_cost": t_origin.cost,
            "base_cost": t_base.cost,
        })

    if not stalled:
        diff_total = sum(r["saving_diff"] for r in rows)
        if diff_total != initial_gap:
            raise InternalInvariantError(
                f"differences sum to {diff_total}, gap was {initial_gap}"
            )

    unpruned, solution, origin = merge(t0, chosen)
    trace = {
        "initial_gap": initial_gap,
        "iterations": rows,
        "stalled": stalled,
        "merge_cost_unpruned": unpruned,
        "solution_cost": solution.total_cost,
        "chosen": [
            {"uid": e.uid, "terminals": list(e.comp.terminals), "cost": e.comp.cost}
            for e in chosen
        ],
    }
    return Phase2Result(
        solution=solution,
        solution_cost_unpruned=unpruned,
        chosen=chosen,
        stalled=stalled,
        steiner_origin=origin,
        trace=trace,
    )
