"""First greedy phase.

Starts from the terminal MST over the metric closure and repeatedly adds
the candidate with the best gain-to-loss ratio. Chosen candidates travel in
loss-contracted form, so the working tree always spans exactly the terminal
set. Bookkeeping rules keep the chosen list honest when later picks displace
earlier ones: displaced components are split and re-sourced, and components
that lose every contracted edge shrink to a two-edge remnant.

The phase ends when no candidate has positive gain. Its two outputs are the
final working tree (the base tree) and the merge of everything chosen so
far with the starting MST (the phase-1 solution).

After the first scan only rows with positive gain on the starting MST are
rescored: the working tree is an MST over a superset of its edges, and path
maxima in an MST are minimax path values (Hu 1961), so every bottleneck, and
with it every saving, is at most its value there.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .components import (
    CandidatePool,
    FullComponent,
    argmin_ratio,
    component_from_part,
    reduce_to_basic,
)
from .core import (
    ContractedTree,
    Instance,
    MetricClosure,
    Tree,
    UnionFind,
    kruskal_indices,
    pruned_mst,
)
from .errors import InternalInvariantError

log = logging.getLogger(__name__)

BASE = "base"  # tag owner for starting-MST edges


@dataclass
class ChosenEntry:
    uid: int
    comp: FullComponent


class ScoredTree(NamedTuple):
    """A tree over the terminals with every candidate's saving in it."""
    view: ContractedTree
    savings: np.ndarray


@dataclass
class Phase1Result:
    base_tree: Tree                  # final working tree over the terminals
    # The terminal MST and the base tree, scored; solve's own copy drops them.
    start: ScoredTree | None
    base: ScoredTree | None
    solution: Tree                   # merged phase-1 tree, interior leaves pruned
    solution_cost_unpruned: int
    mst_cost: int
    chosen: list[ChosenEntry]
    steiner_origin: dict[int, int]
    trace: dict


def _ratio_json(gain_value: int, loss_value: int) -> list | str:
    if loss_value == 0:
        return "inf"
    f = Fraction(gain_value, loss_value)
    return [f.numerator, f.denominator]


def merge(t0: Tree, chosen: list[ChosenEntry]) -> tuple[int, Tree, dict[int, int]]:
    """The starting tree plus every chosen component's full edge set,
    reduced by pruned_mst: (cost before pruning, pruned tree, interior id ->
    graph vertex)."""
    edges = list(t0.edges)
    origin: dict[int, int] = {}
    for entry in chosen:
        edges.extend(entry.comp.edges)
        origin.update(entry.comp.steiner_origin)
    unpruned, tree = pruned_mst(edges, sorted(t0.nodes))
    return unpruned, tree, origin


def run_phase1(instance: Instance, closure: MetricClosure,
               pool: CandidatePool, t0: Tree) -> Phase1Result:
    """Phase 1 from `t0`, the terminal MST over `closure`."""
    terms = sorted(instance.terminals)
    chosen: list[ChosenEntry] = []
    uid_counter = 0
    alloc = max(instance.vertex_count, pool.max_steiner_id) + 1
    # Working tree: (u, v, w, (owner, j)) where owner is BASE or an entry uid.
    current = [(u, v, w, (BASE, i)) for i, (u, v, w) in enumerate(t0.edges)]
    current_cost = t0.total_cost
    rows: list[dict] = []
    merged = None  # merge of the latest iteration
    view = ContractedTree.from_tree(t0)
    start = ScoredTree(view, pool.savings_for(view))
    active = np.flatnonzero(start.savings > pool.costs)
    costs, losses = pool.costs[active], pool.losses[active]
    gains = start.savings[active] - costs

    while True:
        # Best gain/loss ratio among positive gains, as the smallest
        # loss/gain; a zero loss is ratio 0 and wins. Rows stay in pool
        # order, so ties still go to the earliest row.
        pick = argmin_ratio(losses, gains)
        if pick is None:
            break
        idx = int(active[pick])
        if len(rows) + 1 > max(len(pool), 1):
            raise InternalInvariantError("phase 1 ran past the candidate count")
        sel = pool[idx]
        comp, alloc = sel.reassign_steiner(alloc)
        uid_counter += 1
        entry = ChosenEntry(uid_counter, comp)
        gain_value = int(gains[pick])
        loss_value = int(pool.losses[idx])
        log.debug("phase1 pick %s gain=%d loss=%d", sel.terminals, gain_value, loss_value)

        # Edges the merge displaces from the current tree, by owner.
        kept_now = set(kruskal_indices(terms, current,
                                       merged_groups=[set(comp.terminals)]))
        displaced = [current[i][3] for i in range(len(current)) if i not in kept_now]
        by_owner: dict[int, list[int]] = {}
        for owner, j in displaced:
            if owner != BASE:
                by_owner.setdefault(owner, []).append(j)

        replacements = []
        new_chosen: list[ChosenEntry] = []
        for old in chosen:
            removed = []
            if old.uid in by_owner:
                removed = sorted(
                    src for j in by_owner[old.uid]
                    if (src := old.comp.contraction.edges[j].source) is not None
                )
            if not removed:
                new_chosen.append(old)
                continue
            event = {"owner_uid": old.uid,
                     "removed_edges": [list(old.comp.edges[s]) for s in removed],
                     "parts": []}
            kept_edges = [e for i, e in enumerate(old.comp.edges) if i not in removed]
            part_nodes = _connected_parts(old.comp, kept_edges)
            for nodes in part_nodes:
                part_terms = [t for t in old.comp.terminals if t in nodes]
                if len(part_terms) < 2:
                    event["parts"].append({"terminals": part_terms, "kept": False})
                    continue
                converted = component_from_part(old.comp, nodes, closure)
                pool_idx = pool.by_terminals(part_terms)
                if pool_idx is not None and pool.costs[pool_idx] <= converted.cost:
                    fresh, alloc = pool[pool_idx].reassign_steiner(alloc)
                    source = "pool"
                else:
                    fresh = converted
                    source = "part"
                uid_counter += 1
                new_chosen.append(ChosenEntry(uid_counter, fresh))
                event["parts"].append({
                    "terminals": list(fresh.terminals),
                    "cost": fresh.cost,
                    "source": source,
                    "uid": uid_counter,
                    "kept": True,
                })
            replacements.append(event)
        chosen = new_chosen
        chosen.append(entry)

        # Recompute the working tree from the full pool of contracted edges.
        tagged = [(u, v, w, (BASE, i)) for i, (u, v, w) in enumerate(t0.edges)]
        for e in chosen:
            for j, ce in enumerate(e.comp.contraction.edges):
                tagged.append((ce.u, ce.v, ce.w, (e.uid, j)))
        kept_idx = kruskal_indices(terms, tagged)
        current = [tagged[i] for i in kept_idx]
        # The cost is a nonnegative integer that falls with every pick, so
        # the phase ends.
        new_cost = sum(e[2] for e in current)
        if new_cost >= current_cost:
            raise InternalInvariantError(
                f"working tree cost did not fall: {current_cost} to {new_cost}"
            )
        current_cost = new_cost

        # Components with no contracted edge left in the tree shrink to a
        # two-edge remnant (or drop out when they have no interior node).
        present = {tag[0] for *_, tag in current}
        basic_events = []
        final_chosen: list[ChosenEntry] = []
        for e in chosen:
            if e.uid == entry.uid or e.uid in present:
                final_chosen.append(e)
                continue
            if len(e.comp.edges) == 2 and len(e.comp.steiner_ids) == 1:
                final_chosen.append(e)  # already a remnant
                continue
            remnant = reduce_to_basic(e.comp)
            if remnant is None:
                basic_events.append({"owner_uid": e.uid, "action": "dropped"})
                continue
            uid_counter += 1
            final_chosen.append(ChosenEntry(uid_counter, remnant))
            basic_events.append({
                "owner_uid": e.uid,
                "action": "reduced",
                "uid": uid_counter,
                "terminals": list(remnant.terminals),
                "cost": remnant.cost,
            })
        chosen = final_chosen

        merged = merge(t0, chosen)
        merged_cost = merged[0]
        loss_total = sum(e.comp.loss for e in chosen)
        if merged_cost != current_cost + loss_total:
            raise InternalInvariantError(
                f"merge cost {merged_cost} != tree {current_cost} + losses {loss_total}"
            )
        rows.append({
            "iteration": len(rows) + 1,
            "candidate_index": idx,
            "uid": entry.uid,
            "terminals": list(sel.terminals),
            "candidate_cost": sel.cost,
            "loss": loss_value,
            "gain": gain_value,
            "ratio": _ratio_json(gain_value, loss_value),
            "displaced": [[str(o), j] for o, j in displaced],
            "replacements": replacements,
            "basic_events": basic_events,
            "tree_cost": current_cost,
            "merge_cost_unpruned": merged_cost,
            "loss_total": loss_total,
        })
        view = ContractedTree({t: t for t in terms}, [(u, v, w) for u, v, w, _ in current])
        gains = pool.savings_for(view, active) - costs

    base_tree = Tree.from_edges([(u, v, w) for u, v, w, _ in current], terms)
    base = start if view is start.view else ScoredTree(view, pool.savings_for(view))
    merged_cost, solution, origin = merged or merge(t0, chosen)
    trace = {
        "mst_cost": t0.total_cost,
        "iterations": rows,
        "base_cost": base_tree.total_cost,
        "merge_cost_unpruned": merged_cost,
        "solution_cost": solution.total_cost,
        "loss_total": sum(e.comp.loss for e in chosen),
        "chosen": [
            {"uid": e.uid, "terminals": list(e.comp.terminals),
             "cost": e.comp.cost, "loss": e.comp.loss}
            for e in chosen
        ],
    }
    return Phase1Result(
        base_tree=base_tree,
        start=start,
        base=base,
        solution=solution,
        solution_cost_unpruned=merged_cost,
        mst_cost=t0.total_cost,
        chosen=chosen,
        steiner_origin=origin,
        trace=trace,
    )


def _connected_parts(comp: FullComponent, kept_edges: list) -> list[set[int]]:
    """Connected node sets of the component after edge removal, ordered by
    their smallest terminal (then smallest node) for determinism."""
    nodes = {x for e in comp.edges for x in e[:2]}
    uf = UnionFind(nodes)
    for u, v, _ in kept_edges:
        uf.union(u, v)
    groups: dict[int, set[int]] = {}
    for x in nodes:
        groups.setdefault(uf.find(x), set()).add(x)
    term_set = set(comp.terminals)

    def order_key(part: set[int]) -> tuple:
        terms = sorted(x for x in part if x in term_set)
        return (0, terms[0], min(part)) if terms else (1, min(part), 0)

    return sorted(groups.values(), key=order_key)
