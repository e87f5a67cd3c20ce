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
with it every saving, is at most its value there. Those active rows are also
the only rows whose trees phase 1 reads, once, for their losses and picks.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

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
    Edge,
    Instance,
    MetricClosure,
    Tree,
    connected_parts,
    kruskal_indices,
    kruskal_over_paths,
    pruned_mst,
    tree_paths,
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


def merge_graph(t0: Tree, chosen: list[ChosenEntry]) -> tuple[list[Edge], dict[int, int]]:
    """The starting tree's edges plus every chosen component's full edge
    set, and the chosen interior ids' graph vertices: its MST, with
    interior leaves pruned (`core.pruned_mst`), is a phase's solution."""
    edges, origin = list(t0.edges), {}
    for entry in chosen:
        edges.extend(entry.comp.edges)
        origin.update(entry.comp.steiner_origin)
    return edges, origin


def _carried(view: ContractedTree, added: Sequence[Edge]) -> np.ndarray:
    """`view`'s bottleneck matrix, a matrix of minimax path values (Hu
    1961), with the edges `added` (a, c, w) between its representatives
    folded into its graph one at a time: a path may now cross the edge,
    either way, so b' = min(b, max(b[:, a], w, b[c, :]), max(b[:, c], w,
    b[a, :]))."""
    b = view.bottleneck_matrix
    for a, c, w in added:
        a, c = view.rep_index[a], view.rep_index[c]
        via = np.maximum(np.maximum(b[:, a], w)[:, None], b[c])  # x .. a - c .. y
        b = np.minimum(b, via)
        np.minimum(b, via.T, out=b)
    return b


def _check_carried(view: ContractedTree) -> None:
    """A tree edge is the only path between its ends, so its own weight
    must be their carried path maximum."""
    b, at = view.bottleneck_matrix, view.rep_index
    for u, v, w in view.edges:
        if b[at[u], at[v]] != w:
            raise InternalInvariantError(
                f"carried path maximum {int(b[at[u], at[v]])} between {u} and {v}"
                f" differs from the working-tree edge's weight {w}")


def run_phase1(instance: Instance, closure: MetricClosure,
               pool: CandidatePool, t0: Tree) -> Phase1Result:
    """Phase 1 from `t0`, the terminal MST over `closure`."""
    terms = sorted(instance.terminals)
    chosen: list[ChosenEntry] = []
    uid_counter = 0
    alloc = max(instance.vertex_count, pool.table.max_steiner_id) + 1
    # Working tree: (u, v, w, (owner, j)) where owner is BASE or an entry uid.
    current = [(u, v, w, (BASE, i)) for i, (u, v, w) in enumerate(t0.edges)]
    current_cost = t0.total_cost
    rows: list[dict] = []
    carried = 0  # views whose matrix was carried, not filled
    reduced = False  # whether the last pick left a remnant
    view = ContractedTree.from_tree(t0)
    start = ScoredTree(view, pool.savings_for(view))
    active = np.flatnonzero(start.savings > pool.costs)
    # The only rows phase 1 reads a loss of, or picks: their trees are
    # built once, here, and its picks are made from them.
    built = pool.table.build(active)
    costs, losses = pool.costs[active], built.losses
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
        comp, alloc = built.component(pick, alloc)
        uid_counter += 1
        entry = ChosenEntry(uid_counter, comp)
        gain_value = int(gains[pick])
        loss_value = int(losses[pick])
        log.debug("phase1 pick %s gain=%d loss=%d", comp.terminals, gain_value, loss_value)

        # Edges the merge displaces from the current tree, by owner.
        # Only the tree paths between the pick's terminals can close a cycle
        # when they merge, or when its contraction edges join.
        paths = tree_paths(current, comp.terminals)
        _, dropped = kruskal_over_paths(current, paths, merged=comp.terminals)
        displaced = [current[i][3] for i in dropped]
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
            # Parts with a terminal first, by their smallest one; then by smallest node.
            for nodes in connected_parts([*old.comp.terminals, *old.comp.steiner_ids],
                                         kept_edges):
                part_terms = [t for t in old.comp.terminals if t in nodes]
                if len(part_terms) < 2:
                    event["parts"].append({"terminals": part_terms, "kept": False})
                    continue
                # A pool row is an optimal closure tree over its terminals,
                # so it never costs more than the part converted.
                pool_idx = pool.by_terminals(part_terms)
                if pool_idx is not None:
                    fresh, alloc = pool.table.build([pool_idx]).component(0, alloc)
                    source = "pool"
                else:
                    fresh = component_from_part(old.comp, nodes, closure)
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

        # The working tree is the MST of the terminal MST's edges plus the
        # chosen contraction edges. With no replacement, that graph only
        # gained the pick's contraction edges; otherwise it is rebuilt. So
        # is it after a remnant: its contraction edge is never lighter than
        # the tree path it closes, but may precede that path's heaviest
        # edge in Kruskal's order.
        if replacements or reduced:
            tagged = [(u, v, w, (BASE, i)) for i, (u, v, w) in enumerate(t0.edges)]
            for e in chosen:
                for j, ce in enumerate(e.comp.contraction.edges):
                    tagged.append((ce.u, ce.v, ce.w, (e.uid, j)))
            current = [tagged[i] for i in kruskal_indices(terms, tagged)]
        else:
            current, _ = kruskal_over_paths(current, paths, [
                (ce.u, ce.v, ce.w, (entry.uid, j)) for j, ce in enumerate(comp.contraction.edges)])
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
        reduced = any(b["action"] == "reduced" for b in basic_events)

        # The merge's MST cost; its tree is built once, after the loop.
        merged, _ = merge_graph(t0, chosen)
        nodes = {x for e in merged for x in e[:2]}  # t0's edges reach every terminal
        merged_cost = sum(merged[i][2] for i in kruskal_indices(nodes, merged))
        loss_total = sum(e.comp.loss for e in chosen)
        if merged_cost != current_cost + loss_total:
            raise InternalInvariantError(
                f"merge cost {merged_cost} != tree {current_cost} + losses {loss_total}"
            )
        rows.append({
            "iteration": len(rows) + 1,
            "candidate_index": idx,
            "uid": entry.uid,
            "terminals": list(comp.terminals),
            "candidate_cost": comp.cost,
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
        # When this pick only appended its entry, the working tree's graph
        # only gained the entry's contraction edges, which fold into the
        # last view's matrix exactly (a remnant left before changes no path
        # maximum); otherwise the view fills.
        edges = [(u, v, w) for u, v, w, _ in current]
        if replacements or basic_events:
            view = ContractedTree(view.rep_of, edges)
        else:
            view = ContractedTree(view.rep_of, edges, _carried(
                view, [(ce.u, ce.v, ce.w) for ce in comp.contraction.edges]))
            _check_carried(view)
            carried += 1
        gains = pool.savings_for(view, active) - costs

    base_tree = Tree.from_edges([(u, v, w) for u, v, w, _ in current], terms)
    base = start if view is start.view else ScoredTree(view, pool.savings_for(view))
    merged, origin = merge_graph(t0, chosen)
    merged_cost, solution = pruned_mst(merged, terms)
    if log.isEnabledFor(logging.INFO):
        log.info("%s: phase 1 %d iterations, views %d carried %d filled, %d edges displaced,"
                 " %d components re-sourced, %d remnants, %d dropped",
                 instance.name or "instance", len(rows), carried,
                 len(rows) + 1 - carried, sum(len(r["displaced"]) for r in rows),
                 sum(len(r["replacements"]) for r in rows),
                 *(sum(b["action"] == act for r in rows for b in r["basic_events"])
                   for act in ("reduced", "dropped")))
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

