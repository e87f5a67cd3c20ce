"""Exact Steiner tree solvers for small instances.

Two oracles:

* optimal_steiner_tree: Dreyfus-Wagner over terminal subsets and
  attachment vertices, run on the metric closure. It evaluates the tables
  the k >= 4 enumeration shares (dreyfus_wagner._SharedTables) for one subset,
  all the terminals. Exponential in the number of terminals, so gated by a
  limit.
* optimal_k_restricted: cheapest way to connect all terminals using only
  candidate components with at most k terminals each. DP over terminal
  bitmasks seeded and relaxed with whole candidates; components glue only
  at terminals because candidate Steiner copies are private.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .components import CandidateTable
from .dreyfus_wagner import _SharedTables, check_dense_budget
from .core import MetricClosure, Tree, pruned_mst
from .errors import InternalInvariantError, LimitExceededError, UnknownNodeError


# The largest limits the oracles accept. Both take time exponential in the
# terminal count: the exact optimum's tables hold about 2**(m-1) * V
# entries in three arrays, and the restricted DP visits every terminal mask
# once per candidate.
OPT_LIMIT_CAP = 16
OPTK_LIMIT_CAP = 12


def check_limit(limit: int, cap: int, solver: str) -> None:
    """Raise LimitExceededError when an oracle limit is above its cap."""
    if limit > cap:
        raise LimitExceededError(f"{solver} limit {limit} exceeds the cap of {cap} terminals")


def check_opt_budget(vertices: int, terminals: int) -> None:
    """Raise LimitExceededError when the exact optimum's matrix and tables
    over two or more terminals exceed DENSE_BUDGET."""
    check_dense_budget(vertices, terminals, terminals - 2,
                       f"lower the exact-opt limit (--exact-opt-limit) below {terminals}")


@dataclass(frozen=True)
class ExactResult:
    tree: Tree
    cost: int
    restricted_k: int | None = None


def dw_closure_tree(D: np.ndarray, term_idx: Sequence[int]) -> tuple[int, list[tuple[int, int]]]:
    """Optimal Steiner tree over closure indices: (cost, closure edges as
    index pairs). Dreyfus-Wagner on the shared tables for one subset: the
    tables of every part of the terminals but the last, then the last mask
    at the last terminal; sub-masks go in decreasing order and all argmins
    take the first index, which pins the reconstruction.
    """
    m = len(term_idx)
    if m == 1:
        return 0, []
    if m == 2:
        a, b = term_idx
        return int(D[a, b]), [(a, b)]
    tables = _SharedTables(D, np.asarray(term_idx, dtype=np.int64), m - 2)
    (subset, hub, cost, split, _), = tables.last_masks(m)
    children, parents = tables.trees(subset, hub, split)[..., 0].tolist()
    return int(cost[0]), [(a, b) for a, b in zip(children, parents) if a >= 0]


def optimal_steiner_tree(closure: MetricClosure, terminals: Sequence[int],
                         limit: int = 10) -> ExactResult:
    """Globally optimal tree spanning `terminals`, expanded back into
    original-graph edges. Raises LimitExceededError above `limit` terminals
    or when `limit` exceeds OPT_LIMIT_CAP.
    """
    check_limit(limit, OPT_LIMIT_CAP, "exact-solver")
    terms = sorted(set(terminals))
    for t in terms:
        if t not in closure.index:
            raise UnknownNodeError(f"terminal {t} not in closure")
    if len(terms) > limit:
        raise LimitExceededError(
            f"{len(terms)} terminals exceeds exact-solver limit {limit}"
        )
    if len(terms) == 1:
        return ExactResult(Tree(frozenset(terms), (), 0), 0)
    check_opt_budget(len(closure.vertices), len(terms))
    tidx = [closure.index[t] for t in terms]
    cost, closure_edges = dw_closure_tree(closure.dist, tidx)
    tree = closure.expand(
        ((closure.vertices[i], closure.vertices[j]) for i, j in closure_edges), terms
    )
    if tree.total_cost != cost:
        raise InternalInvariantError(
            f"expanded optimum {tree.total_cost} != table optimum {cost}"
        )
    return ExactResult(tree, cost)


def optimal_k_restricted(terminals: Sequence[int], table: CandidateTable,
                         k: int, limit: int = 8) -> ExactResult:
    """Cheapest union of the table's candidates (each spanning at most k
    terminals) whose terminal sets chain together to cover all terminals.
    The DP reads the table's terminal and cost columns, and only the picked
    rows' trees are read, in one batch, and built as components. Raises
    LimitExceededError above `limit` terminals or when `limit` exceeds
    OPTK_LIMIT_CAP.

    Equivalent to exhaustive search over candidate subsets: any connected
    union can be ordered so every prefix stays connected, which is exactly
    the relaxation order the bitmask DP explores. The returned tree keeps
    closure-level component edges; `cost` is the authoritative value.
    """
    check_limit(limit, OPTK_LIMIT_CAP, "restricted-solver")
    terms = sorted(set(terminals))
    if len(terms) > limit:
        raise LimitExceededError(
            f"{len(terms)} terminals exceeds restricted-solver limit {limit}"
        )
    rows = np.flatnonzero(table.size <= k)
    pos = table.pos[rows]
    unknown = set(table.terminal_ids[pos[pos >= 0]].tolist()) - set(terms)
    if unknown:
        raise UnknownNodeError(f"candidate terminal {min(unknown)} not in terminal set")
    # The bit of each terminal position, and 0 for the padding (-1).
    bits = np.array([1 << terms.index(t) if t in terms else 0
                     for t in table.terminal_ids.tolist()] + [0], dtype=np.int64)
    pool = list(zip(rows.tolist(), bits[pos].sum(axis=1).tolist(), table.costs[rows].tolist()))
    full = (1 << len(terms)) - 1
    best: dict[int, int] = {}
    choice: dict[int, tuple[int, int]] = {}
    for i, m, cost in pool:
        if m not in best or cost < best[m]:
            best[m] = cost
            choice[m] = (0, i)
    for mask in range(1, full + 1):
        if mask not in best:
            continue
        cur = best[mask]
        for i, cm, cost in pool:
            if cm & mask and (cm | mask) != mask:
                nm = cm | mask
                nc = cur + cost
                if nm not in best or nc < best[nm]:
                    best[nm] = nc
                    choice[nm] = (mask, i)
    if full not in best:
        raise InternalInvariantError("candidate pool cannot connect the terminals")
    picked: list[int] = []
    mask = full
    while mask:
        prev, i = choice[mask]
        picked.append(i)
        mask = prev
    picked.reverse()
    edges: list[tuple[int, int, int]] = []
    built = table.build(picked)
    alloc = table.max_steiner_id + 1
    for j in range(len(picked)):
        comp, alloc = built.component(j, alloc)
        edges.extend(comp.edges)
    # The table value is the picks' cost sum, so their union's MST, before
    # its interior leaves are pruned, must weigh as much.
    cost, tree = pruned_mst(edges, terms)
    if cost != best[full]:
        raise InternalInvariantError(
            f"realized restricted optimum {cost} != table value {best[full]}"
        )
    return ExactResult(tree, best[full], k)
