"""Candidate components for the greedy phases.

A full component is a tree whose leaves are exactly its terminals; interior
nodes are private copies of graph vertices (fresh ids, each remembering the
vertex it came from). The loss of a component is the cheapest forest inside
it that hooks every interior node to some terminal; contracting the loss
yields the component's cheaper stand-in used while building the base tree.

Enumeration produces, for every terminal subset of size 2..k, an optimal
tree over the metric closure, keeping only subsets whose own terminals end
up as leaves.
"""
from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    ContractedTree,
    Instance,
    MetricClosure,
    UnionFind,
    edge_key,
    kruskal_indices,
    prune_leaves,
)
from .errors import InternalInvariantError, KRestrictionError, UnknownNodeError

Edge = tuple[int, int, int]


class FullComponent:
    """Immutable candidate tree. `steiner_origin` maps each private interior
    id back to the graph vertex it copies."""

    __slots__ = ("terminals", "steiner_ids", "steiner_origin", "edges", "cost",
                 "_loss_indices", "_contraction")

    def __init__(self, terminals: Sequence[int], edges: Sequence[Edge],
                 steiner_origin: dict[int, int] | None = None):
        self.terminals = tuple(sorted(terminals))
        self.steiner_origin = dict(steiner_origin or {})
        norm = tuple((u, v, w) if u < v else (v, u, w) for u, v, w in edges)
        self.edges = tuple(sorted(norm, key=lambda e: edge_key(*e)))
        self.cost = sum(w for _, _, w in self.edges)
        self._loss_indices: tuple[int, ...] | None = None
        self._contraction: Contraction | None = None
        nodes = {x for e in self.edges for x in e[:2]}
        term_set = set(self.terminals)
        if len(term_set) < 2:
            raise InternalInvariantError("component needs at least 2 terminals")
        if not term_set <= nodes:
            raise InternalInvariantError("component misses a terminal")
        steiner = nodes - term_set
        if steiner != set(self.steiner_origin):
            raise InternalInvariantError("steiner ids and origin map disagree")
        self.steiner_ids = tuple(sorted(steiner))
        if len(self.edges) != len(nodes) - 1:
            raise InternalInvariantError("component edges do not form a tree")
        uf = UnionFind(nodes)
        for u, v, _ in self.edges:
            if not uf.union(u, v):
                raise InternalInvariantError("cycle inside component")
        degree: dict[int, int] = {}
        for u, v, _ in self.edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        for t in self.terminals:
            if degree.get(t, 0) != 1:
                raise InternalInvariantError(f"terminal {t} is not a leaf")

    @property
    def loss_forest_indices(self) -> tuple[int, ...]:
        if self._loss_indices is None:
            self._loss_indices = _loss_indices(self)
        return self._loss_indices

    @property
    def loss(self) -> int:
        return sum(self.edges[i][2] for i in self.loss_forest_indices)

    @property
    def contraction(self) -> "Contraction":
        if self._contraction is None:
            self._contraction = loss_contract(self)
        return self._contraction

    def reassign_steiner(self, next_id: int) -> tuple["FullComponent", int]:
        """Copy with fresh interior ids starting at next_id."""
        mapping = {}
        for s in self.steiner_ids:
            mapping[s] = next_id
            next_id += 1
        edges = [(mapping.get(u, u), mapping.get(v, v), w) for u, v, w in self.edges]
        origin = {mapping[s]: o for s, o in self.steiner_origin.items()}
        return FullComponent(self.terminals, edges, origin), next_id

    def __repr__(self) -> str:
        return f"FullComponent(terminals={self.terminals}, cost={self.cost})"


def _loss_indices(comp: FullComponent) -> tuple[int, ...]:
    """Edge indices of the minimal forest connecting every interior node to
    a terminal: MST(component + zero clique on terminals) minus the clique.
    One-interior stars take the direct route (cheapest terminal edge)."""
    if not comp.steiner_ids:
        return ()
    if len(comp.steiner_ids) == 1 and len(comp.edges) == len(comp.terminals):
        best = min(range(len(comp.edges)), key=lambda i: edge_key(*comp.edges[i]))
        return (best,)
    zero = [(a, b, 0) for a, b in itertools.combinations(comp.terminals, 2)]
    combined = zero + list(comp.edges)
    kept = kruskal_indices({x for e in comp.edges for x in e[:2]}, combined)
    return tuple(i - len(zero) for i in kept if i >= len(zero))


def compute_loss(comp: FullComponent) -> tuple[tuple[Edge, ...], int]:
    """(loss forest edges, loss value) of a component."""
    idx = comp.loss_forest_indices
    return tuple(comp.edges[i] for i in idx), comp.loss


class ContractedEdge(NamedTuple):
    u: int
    v: int
    w: int
    source: int | None  # index into the owner's edges; None for zero fillers


class Contraction(NamedTuple):
    """The component with its loss forest collapsed: a tree on the
    component's terminals. Positive edges keep a pointer to the component
    edge they stand for; zero fillers tie same-part terminals together."""

    terminals: tuple[int, ...]
    edges: tuple[ContractedEdge, ...]
    cost: int


def loss_contract(comp: FullComponent) -> Contraction:
    nodes = {x for e in comp.edges for x in e[:2]}
    forest = set(comp.loss_forest_indices)
    uf = UnionFind(nodes)
    for i in forest:
        u, v, _ = comp.edges[i]
        uf.union(u, v)
    members: dict[int, list[int]] = {}
    for x in nodes:
        members.setdefault(uf.find(x), []).append(x)
    term_set = set(comp.terminals)
    rep: dict[int, int] = {}
    part_terms: dict[int, list[int]] = {}
    for root, xs in members.items():
        terms = sorted(x for x in xs if x in term_set)
        if not terms:
            raise InternalInvariantError("loss part without a terminal")
        rep[root] = terms[0]
        part_terms[root] = terms
    out: list[ContractedEdge] = []
    for i, (u, v, w) in enumerate(comp.edges):
        if i in forest:
            continue
        ru, rv = rep[uf.find(u)], rep[uf.find(v)]
        if ru == rv:
            raise InternalInvariantError("non-loss edge inside a loss part")
        out.append(ContractedEdge(min(ru, rv), max(ru, rv), w, i))
    for root, terms in sorted(part_terms.items(), key=lambda kv: rep[kv[0]]):
        r = rep[root]
        for t in terms[1:]:
            out.append(ContractedEdge(min(r, t), max(r, t), 0, None))
    total = sum(e.w for e in out)
    if total != comp.cost - comp.loss:
        raise InternalInvariantError("contracted cost != cost - loss")
    if len(out) != len(comp.terminals) - 1:
        raise InternalInvariantError("contraction is not a tree on the terminals")
    return Contraction(comp.terminals, tuple(out), total)


# ---------------------------------------------------------------------------
# Greedy quantities


def gain(tree: ContractedTree, comp: FullComponent) -> int:
    """Cost drop of treating the component's terminals as merged, minus the
    component's price."""
    return tree.cost - tree.mst_with_zero_set(comp.terminals) - comp.cost


def load(tree: ContractedTree, comp: FullComponent) -> int:
    """Negated gain: what the component costs beyond what it saves."""
    return -gain(tree, comp)


def saving_difference(tree_a: ContractedTree, tree_b: ContractedTree,
                      comp: FullComponent) -> int:
    """How much more the component's terminal merge saves in tree_a than in
    tree_b."""
    saving_a = tree_a.cost - tree_a.mst_with_zero_set(comp.terminals)
    saving_b = tree_b.cost - tree_b.mst_with_zero_set(comp.terminals)
    return saving_a - saving_b


# ---------------------------------------------------------------------------
# Enumeration


def enumerate_full_components(instance: Instance, closure: MetricClosure,
                              k: int) -> list[FullComponent]:
    """Candidates for every terminal subset of size 2..k: an optimal closure
    tree per subset, kept only when the subset's own terminals are leaves.
    Ordered lexicographically by terminal tuple; interior ids are unique
    across the whole list.
    """
    if k < 2:
        raise KRestrictionError(f"k must be at least 2, got {k}")
    terms = sorted(instance.terminals)
    k = min(k, len(terms))
    D = closure.dist
    tidx = [closure.index[t] for t in terms]
    raw: list[tuple[tuple[int, ...], list[Edge], dict[int, int]]] = []

    for i, j in itertools.combinations(range(len(terms)), 2):
        ta, tb = terms[i], terms[j]
        raw.append(((ta, tb), [(ta, tb, int(D[tidx[i], tidx[j]]))], {}))

    if k >= 3:
        tarr = np.array(tidx)
        for i, j in itertools.combinations(range(len(terms)), 2):
            rest = tarr[j + 1:]
            if rest.size == 0:
                continue
            sums = (D[tidx[i]] + D[tidx[j]])[None, :] + D[rest]
            centers = sums.argmin(axis=1)
            for pos in range(rest.size):
                center = int(centers[pos])
                if center in (tidx[i], tidx[j], int(rest[pos])):
                    continue  # a subset terminal would sit inside
                c = j + 1 + pos
                triple = (terms[i], terms[j], terms[c])
                edges = [
                    (terms[i], -1, int(D[tidx[i], center])),
                    (terms[j], -1, int(D[tidx[j], center])),
                    (terms[c], -1, int(D[tidx[c], center])),
                ]
                raw.append((triple, edges, {-1: closure.vertices[center]}))

    if k >= 4:
        from .exact import dw_closure_tree

        for size in range(4, k + 1):
            for combo in itertools.combinations(range(len(terms)), size):
                sub_idx = [tidx[x] for x in combo]
                cost, cedges = dw_closure_tree(D, sub_idx)
                degree: dict[int, int] = {}
                for a, b in cedges:
                    degree[a] = degree.get(a, 0) + 1
                    degree[b] = degree.get(b, 0) + 1
                if any(degree.get(x, 0) != 1 for x in sub_idx):
                    continue
                subset = tuple(terms[x] for x in combo)
                mapping = {x: terms[c] for x, c in zip(sub_idx, combo)}
                origin: dict[int, int] = {}
                next_ph = -1
                edges = []
                for a, b in cedges:
                    for x in (a, b):
                        if x not in mapping:
                            mapping[x] = next_ph
                            origin[next_ph] = closure.vertices[x]
                            next_ph -= 1
                    edges.append((mapping[a], mapping[b], int(D[a, b])))
                edges, origin = _normalized_edges(edges, set(subset), origin, closure)
                if sum(w for _, _, w in edges) != cost:
                    raise InternalInvariantError(
                        f"normalization changed optimal cost for subset {subset}"
                    )
                raw.append((subset, edges, origin))

    raw.sort(key=lambda item: item[0])
    out: list[FullComponent] = []
    next_id = instance.vertex_count + 1
    for subset, edges, origin in raw:
        remap: dict[int, int] = {}
        for ph in sorted(origin, reverse=True):  # -1 first, then -2, ...
            remap[ph] = next_id
            next_id += 1
        final_edges = [(remap.get(u, u), remap.get(v, v), w) for u, v, w in edges]
        final_origin = {remap[ph]: o for ph, o in origin.items()}
        out.append(FullComponent(subset, final_edges, final_origin))
    return out


def _normalized_edges(edges: list[Edge], keep: set[int], origin: dict[int, int],
                      closure: MetricClosure) -> tuple[list[Edge], dict[int, int]]:
    """Prune interior leaves and shortcut degree-2 interior nodes through
    the closure. Keeps terminals untouched; never raises cost. Returns the
    edges and `origin` restricted to the interior ids they still use."""
    work = prune_leaves(edges, keep)
    while True:
        degree: dict[int, int] = {}
        for u, v, _ in work:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        target = None
        for node in sorted(degree):
            if node not in keep and degree[node] == 2:
                target = node
                break
        if target is None:
            used = {x for e in work for x in e[:2]}
            return work, {s: o for s, o in origin.items() if s in used}
        incident = [e for e in work if target in e[:2]]
        (a, b) = (
            incident[0][0] if incident[0][1] == target else incident[0][1],
            incident[1][0] if incident[1][1] == target else incident[1][1],
        )
        w = closure.distance(origin.get(a, a), origin.get(b, b))
        work = [e for e in work if target not in e[:2]]
        work.append((min(a, b), max(a, b), w))
        work = prune_leaves(work, keep)


def component_from_part(comp: FullComponent, part_nodes: set[int],
                        closure: MetricClosure) -> FullComponent | None:
    """Rebuild one connected part of a split component as a standalone
    component. Returns None when the part has fewer than 2 terminals."""
    terms = [t for t in comp.terminals if t in part_nodes]
    if len(terms) < 2:
        return None

    edges = [e for e in comp.edges if e[0] in part_nodes and e[1] in part_nodes]
    edges, origin = _normalized_edges(edges, set(terms), comp.steiner_origin, closure)
    return FullComponent(terms, edges, origin)


def reduce_to_basic(comp: FullComponent) -> FullComponent | None:
    """Two-edge remnant of a component: one interior node, its loss-forest
    terminal edge, and one non-loss terminal edge. Smallest qualifying
    (interior, loss terminal, kept terminal) triple wins; None when no
    interior node qualifies."""
    forest = set(comp.loss_forest_indices)
    term_set = set(comp.terminals)
    best: tuple[int, int, int] | None = None
    best_edges: tuple[Edge, Edge] | None = None
    for s in comp.steiner_ids:
        loss_opts = []
        keep_opts = []
        for i, (u, v, w) in enumerate(comp.edges):
            if s not in (u, v):
                continue
            other = v if u == s else u
            if other not in term_set:
                continue
            if i in forest:
                loss_opts.append((other, w))
            else:
                keep_opts.append((other, w))
        for t_loss, w_loss in loss_opts:
            for t_keep, w_keep in keep_opts:
                key = (s, t_loss, t_keep)
                if best is None or key < best:
                    best = key
                    best_edges = ((t_loss, s, w_loss), (t_keep, s, w_keep))
    if best is None:
        return None
    s, t_loss, t_keep = best
    return FullComponent(
        (t_loss, t_keep), list(best_edges), {s: comp.steiner_origin[s]}
    )


# ---------------------------------------------------------------------------
# Batch evaluation


class CandidatePool:
    """Candidate list with vectorized scan support. Savings are evaluated
    as MSTs under the tree's path-bottleneck weights; the from-scratch
    definition lives in ContractedTree.mst_with_zero_set and the two are
    cross-checked in tests."""

    def __init__(self, candidates: Sequence[FullComponent]):
        self.candidates = list(candidates)
        self.costs = np.array([c.cost for c in self.candidates], dtype=np.int64)
        self.losses = np.array([c.loss for c in self.candidates], dtype=np.int64)
        self.by_terminals: dict[frozenset[int], int] = {}
        for i, c in enumerate(self.candidates):
            key = frozenset(c.terminals)
            prev = self.by_terminals.get(key)
            if prev is None or c.cost < self.candidates[prev].cost:
                self.by_terminals[key] = i
        groups: dict[int, list[int]] = {}
        for i, c in enumerate(self.candidates):
            groups.setdefault(len(c.terminals), []).append(i)
        self._groups = [
            (m, np.array(idx), np.array([self.candidates[i].terminals for i in idx]))
            for m, idx in sorted(groups.items())
        ]
        self.max_steiner_id = max(
            (s for c in self.candidates for s in c.steiner_ids), default=0
        )

    def __len__(self) -> int:
        return len(self.candidates)

    def __getitem__(self, i: int) -> FullComponent:
        return self.candidates[i]

    def savings_for(self, tree: ContractedTree) -> np.ndarray:
        out = np.zeros(len(self.candidates), dtype=np.int64)
        if not self.candidates:
            return out
        lookup = tree.rep_lookup
        B = tree.bottleneck_matrix
        for m, idx, terms in self._groups:
            reps = lookup[terms]
            if (reps < 0).any():
                raise UnknownNodeError("candidate terminal missing from tree")
            if m == 2:
                out[idx] = B[reps[:, 0], reps[:, 1]]
            elif m == 3:
                b01 = B[reps[:, 0], reps[:, 1]]
                b02 = B[reps[:, 0], reps[:, 2]]
                b12 = B[reps[:, 1], reps[:, 2]]
                out[idx] = b01 + b02 + b12 - np.maximum(b01, np.maximum(b02, b12))
            else:
                for i in idx.tolist():
                    out[i] = tree.saving(self.candidates[i].terminals)
        return out
