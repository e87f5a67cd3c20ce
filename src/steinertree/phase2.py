"""Second greedy phase.

Runs two contracted trees side by side, starting from the terminal MST and
the phase-1 base tree as phase 1 scored them. Each step picks the candidate
minimizing load divided by the difference of the savings it produces in the
two trees, then contracts its terminals in both. The gap between the tree costs shrinks
by exactly that difference, so the loop ends when the costs meet. A scan
with no positive difference while the gap is still open is a stall; it is
recorded and the merge built so far is returned.

A pick scores only a prefix of the rows that an exact floor cannot rule
out (FloorPrefix), and it is the pick a scan of every row would make.
"""
from __future__ import annotations

import logging
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .components import CandidatePool, argmin_ratio, rows_at_most
from .core import Instance, Tree, pruned_mst
from .errors import InternalInvariantError
from .phase1 import ChosenEntry, ScoredTree, merge_graph

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


# The rank of the first threshold. A scan of about 1,000 rows costs some
# 0.1 ms, mostly fixed numpy calls, against 0.4 ms for all 60,000 rows of a
# many-terminals-k3 pool; a pool of at most PREFIX live rows is its own
# prefix, scanned once per pick.
PREFIX = 1024


def _floor(loads: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """loads / caps in float64; +inf where caps <= 0 (never eligible) and
    -inf where loads < 0 < caps (no bound, so always scored)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        floor = loads / caps
    floor[loads < 0] = -np.inf
    floor[caps <= 0] = np.inf
    return floor


class FloorPrefix:
    """Phase 2's pick over a prefix of the rows (lazy greedy, Minoux 1978).

    Both trees only ever contract the same groups, and a contraction only
    lowers bottlenecks, so a row's savings in both trees only fall. At every
    later scan its load = cost - sav_base is therefore at least load0, its
    load at phase 2's start, and its difference is at most sav_origin0
    (sav_base >= 0) and at most the current gap, itself at most gap0: after
    contracting any X in both trees the base cost is at most the origin
    cost, as the base tree's graph holds the origin tree's edges, so a
    difference (the fall of the gap) never exceeds the gap. Hence
    floor = load0 / min(sav_origin0, gap0) bounds every later ratio of a
    row with load0 >= 0. A row whose denominator is <= 0 can never be
    eligible, and a row with load0 < 0 (which an unimprovable base tree
    never has) is in every prefix.

    A pick scores the prefix, the rows whose floor is at most a threshold
    tau, kept as the exact pair (load, denominator) that defines it, and
    accepts the prefix's best once its exact ratio is at most tau: every
    other row's ratio is above tau, so the best is the pool-wide pick, ties
    included. A best above tau raises tau to it and rescans. A prefix with
    no positive difference doubles by rank, up to every live row, where no
    positive difference is a stall. The first tau is the floor at rank
    PREFIX; tau only rises, so the prefix only grows. `scored` counts the
    rows scored so far, and `scans` the scans, a pick's rescans included.
    """

    def __init__(self, costs: np.ndarray, origin0: np.ndarray, base0: np.ndarray,
                 gap0: int):
        self._costs, self._origin0, self._base0, self._gap0 = costs, origin0, base0, gap0
        self.floor = _floor(costs - base0, np.minimum(origin0, gap0))
        self.live = int(np.count_nonzero(self.floor < np.inf))
        self.iteration = self.scored = self.scans = 0
        self._to_rank(PREFIX)

    def _to_rank(self, n: int) -> None:
        """Make tau the floor at rank n, or lift it when n covers every live row."""
        if n >= self.live:
            self.tau = None
            self.rows = np.flatnonzero(self.floor < np.inf)
        else:
            j = int(np.argpartition(self.floor, n - 1)[n - 1])
            load0 = int(self._costs[j]) - int(self._base0[j])
            self._raise_to(load0, min(int(self._origin0[j]), self._gap0))

    def _raise_to(self, num: int, den: int) -> None:
        self.tau = num, den
        self.rows = rows_at_most(self.floor, num, den)

    def pick(self, score: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
             gap: int) -> tuple[int, int, int] | None:
        """(row, load, difference) of the pick a scan of every row would
        make at the current `gap`, or None on a stall. `score(rows)` gives
        the savings of `rows` in the origin and base trees."""
        self.iteration += 1
        while True:
            rows = self.rows
            origin, base = score(rows)
            self.scored += len(rows)
            self.scans += 1
            self._check(rows, origin, base, gap)
            best = select_candidate(self._costs[rows], origin, base)
            if best is None:
                if self.tau is None:
                    return None
                self._to_rank(2 * len(rows))
                continue
            i, load, diff = best
            if self.tau is None or load * self.tau[1] <= self.tau[0] * diff:
                return int(rows[i]), load, diff
            self._raise_to(load, diff)

    def _check(self, rows: np.ndarray, origin: np.ndarray, base: np.ndarray,
               gap: int) -> None:
        """The floor's facts on the scored rows: the load is at least load0,
        and the difference at most sav_origin0 and the current gap."""
        bad = (base > self._base0[rows]) | (origin - base > np.minimum(self._origin0[rows], gap))
        if bad.any():
            at = int(bad.argmax())
            i = int(rows[at])
            cost, now, start = int(self._costs[i]), int(base[at]), int(self._base0[i])
            raise InternalInvariantError(
                f"phase-2 iteration {self.iteration}, row {i}: load {cost - now}"
                f" (start {cost - start}), difference {int(origin[at]) - now} (start"
                f" saving {int(self._origin0[i])}, gap {gap}); the floor does not hold"
            )


def run_phase2(instance: Instance, pool: CandidatePool, t0: Tree,
               origin: ScoredTree, base: ScoredTree) -> Phase2Result:
    """Phase 2 between `t0`, the terminal MST, and the phase-1 base tree,
    starting from their scored views (Phase1Result.start and .base)."""
    terms = sorted(instance.terminals)
    t_origin, t_base = origin.view, base.view
    initial_gap = t_origin.cost - t_base.cost
    if initial_gap < 0:
        raise InternalInvariantError("base tree costs more than the MST")
    rows: list[dict] = []
    stalled = False
    prefix = None
    contractions = 0  # of the two trees, those that merged something

    def score(at):
        # The first pick reads phase 1's savings; later ones score the trees.
        if not rows:
            return origin.savings[at], base.savings[at]
        return pool.savings_for(t_origin, at), pool.savings_for(t_base, at)

    while t_origin.cost != t_base.cost:
        if t_origin.cost < t_base.cost:
            raise InternalInvariantError("origin tree fell below the base tree")
        if len(rows) >= len(terms):
            raise InternalInvariantError("phase 2 ran past the terminal count")
        if prefix is None:  # only a gap to close needs the floor
            prefix = FloorPrefix(pool.costs, origin.savings, base.savings, initial_gap)
        pick = prefix.pick(score, t_origin.cost - t_base.cost)
        if pick is None:
            stalled = True
            log.debug("phase2 stalled with gap %d", t_origin.cost - t_base.cost)
            break
        i, load_value, diff_value = pick
        terminals, cost = pool.table.terminals(i), int(pool.costs[i])
        # Each contraction must drop its tree's cost by exactly the saving
        # the batched scoring gave: cost - load in the base tree, that plus
        # the difference in the origin tree.
        saving_base = cost - load_value
        expected = (t_origin.cost - saving_base - diff_value, t_base.cost - saving_base)
        merged = t_origin.contract_zero_set(terminals), t_base.contract_zero_set(terminals)
        contractions += (merged[0] is not t_origin) + (merged[1] is not t_base)
        t_origin, t_base = merged
        if (t_origin.cost, t_base.cost) != expected:
            raise InternalInvariantError(
                f"contracting {terminals} left costs {t_origin.cost}, {t_base.cost};"
                f" the savings give {expected[0]}, {expected[1]}"
            )
        f = Fraction(load_value, diff_value)
        log.debug("phase2 pick %s load=%d diff=%d", terminals, load_value, diff_value)
        rows.append({
            "iteration": len(rows) + 1,
            "candidate_index": i,
            "uid": len(rows) + 1,
            "terminals": list(terminals),
            "candidate_cost": cost,
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

    # The picks' trees are read only now, all at once, numbered in pick order.
    picked = [row["candidate_index"] for row in rows]
    built = pool.table.build(picked)
    alloc = max(instance.vertex_count, pool.table.max_steiner_id) + 1
    chosen: list[ChosenEntry] = []
    for j in range(len(picked)):
        comp, alloc = built.component(j, alloc)
        chosen.append(ChosenEntry(j + 1, comp))
    edges, origin = merge_graph(t0, chosen)
    unpruned, solution = pruned_mst(edges, terms)
    if log.isEnabledFor(logging.INFO):
        scored, rescans = (prefix.scored, prefix.scans - prefix.iteration) if prefix else (0, 0)
        log.info("%s: phase 2 %d picks%s, %d contractions, %d rows scored of %d, %d rescans",
                 instance.name or "instance", len(rows), " (stalled)" if stalled else "",
                 contractions, scored, len(pool), rescans)
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
