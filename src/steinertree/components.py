"""Candidate components for the greedy phases.

A full component is a tree whose leaves are exactly its terminals; interior
nodes are private copies of graph vertices (fresh ids, each remembering the
vertex it came from). The loss of a component is the cheapest forest inside
it that hooks every interior node to some terminal; contracting the loss
yields the component's cheaper stand-in used while building the base tree.

Enumeration produces, for every terminal subset of size 2..k, an optimal
tree over the metric closure, keeping only subsets whose own terminals end
up as leaves. It returns numpy columns (CandidateTable) that the greedy
phases score in batch; a candidate becomes a FullComponent only when it is
asked for by index: when a phase picks it, a displacement looks it up, or
the restricted oracle reads the whole pool.
"""
from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

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
from .errors import InternalInvariantError, KRestrictionError, LimitExceededError

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
# Enumeration

# Most terminal subsets of size 2..k that enumeration accepts, which bounds
# its time and memory. 80 terminals at k=3 are 85,320 subsets; at k=6 they
# would be about 3 * 10**8.
CANDIDATE_BUDGET = 2_000_000


class CandidateRow(NamedTuple):
    """A candidate's terminals, cost and loss, read from the columns."""

    terminals: tuple[int, ...]
    cost: int
    loss: int


class CandidateTable(Sequence):
    """Candidates as numpy columns, one row per terminal subset, ordered by
    sorted terminal tuple.

    `pos` holds each row's terminals as positions into `terminal_ids`,
    padded with -1. A pair row is one closure edge of weight `spokes[i, 0]`;
    a star row joins its three terminals at graph vertex `hub[i]` by
    `spokes[i]`, through an interior node with id `first_id[i]`. Rows in
    `built` from the start (components of 4 or more terminals, and every
    row of a table made from a list) have no column form. Indexing builds
    a row's FullComponent once and keeps it in `built`.
    """

    def __init__(self, terminal_ids: np.ndarray, pos: np.ndarray, costs: np.ndarray,
                 losses: np.ndarray, hub: np.ndarray, spokes: np.ndarray,
                 first_id: np.ndarray, built: dict[int, FullComponent],
                 max_steiner_id: int):
        self.terminal_ids = terminal_ids
        self.pos = pos
        self.size = (pos >= 0).sum(axis=1)
        self.costs = costs
        self.losses = losses
        self.hub = hub
        self.spokes = spokes
        self.first_id = first_id
        self.built = built
        self.max_steiner_id = max_steiner_id
        column_rows = np.ones(len(costs), dtype=bool)
        column_rows[list(built)] = False
        self._check(np.flatnonzero(column_rows))

    @classmethod
    def from_components(cls, comps: Sequence[FullComponent]) -> "CandidateTable":
        """Table over a given list, in its order; every row is built."""
        comps = list(comps)
        ids = sorted({t for c in comps for t in c.terminals})
        index = {t: i for i, t in enumerate(ids)}
        width = max((len(c.terminals) for c in comps), default=2)
        pos = np.full((len(comps), width), -1, dtype=np.int64)
        for row, c in enumerate(comps):
            pos[row, :len(c.terminals)] = [index[t] for t in c.terminals]
        n = len(comps)
        return cls(
            np.array(ids, dtype=np.int64), pos,
            np.array([c.cost for c in comps], dtype=np.int64),
            np.array([c.loss for c in comps], dtype=np.int64),
            np.full(n, -1, dtype=np.int64), np.zeros((n, 3), dtype=np.int64),
            np.full(n, -1, dtype=np.int64), dict(enumerate(comps)),
            max((s for c in comps for s in c.steiner_ids), default=0),
        )

    def _check(self, rows: np.ndarray) -> None:
        """Component validation, vectorized, for rows that have a column
        form: each is a pair or a one-hub star over increasing terminal
        positions, the hub is none of its terminals, spokes are
        nonnegative, cost is their sum and loss the lightest star spoke."""
        pos, hub, spokes = self.pos[rows], self.hub[rows], self.spokes[rows]
        size = self.size[rows]
        pair = (size == 2) & (hub < 0)
        star = (size == 3) & (hub >= 0)
        used = np.arange(3) < np.where(pair, 1, 3)[:, None]
        star_terms = self.terminal_ids[np.maximum(pos[:, :3], 0)]
        ok = ((pair | star).all() and (pos[:, :2] >= 0).all()
              and ((np.diff(pos, axis=1) > 0) | (pos[:, 1:] < 0)).all()
              and (star_terms != hub[:, None])[star].all()
              and (spokes >= 0).all() and (spokes[~used] == 0).all()
              and (self.costs[rows] == spokes.sum(axis=1)).all()
              and (self.losses[rows] == np.where(star, spokes.min(axis=1), 0)).all())
        if not ok:
            raise InternalInvariantError("candidate columns fail component validation")

    def __len__(self) -> int:
        return len(self.costs)

    def __getitem__(self, i: int) -> FullComponent:
        i = operator.index(i)
        if not 0 <= i < len(self):
            raise IndexError("candidate index out of range")
        if i not in self.built:
            self._build([i])
        return self.built[i]

    def __iter__(self) -> Iterator[FullComponent]:
        self._build([i for i in range(len(self)) if i not in self.built])
        return (self.built[i] for i in range(len(self)))

    def _build(self, rows: list[int]) -> None:
        """Build the components of column-form rows into `built`."""
        idx = np.array(rows, dtype=np.int64)
        columns = zip(rows, self.terminal_ids[np.maximum(self.pos[idx], 0)].tolist(),
                      self.size[idx].tolist(), self.hub[idx].tolist(),
                      self.spokes[idx].tolist(), self.first_id[idx].tolist(),
                      self.costs[idx].tolist(), self.losses[idx].tolist())
        for i, terms, m, hub, weights, s, cost, loss in columns:
            terms = terms[:m]
            if hub < 0:
                comp = FullComponent(terms, [(terms[0], terms[1], weights[0])])
            else:
                comp = FullComponent(terms, [(t, s, w) for t, w in zip(terms, weights)],
                                     {s: hub})
            if (comp.cost, comp.loss) != (cost, loss):
                raise InternalInvariantError(f"candidate {i} disagrees with its columns")
            self.built[i] = comp


def enumerate_full_components(instance: Instance, closure: MetricClosure,
                              k: int) -> CandidateTable:
    """Candidates for every terminal subset of size 2..k: an optimal closure
    tree per subset, kept only when the subset's own terminals are leaves.
    Ordered lexicographically by terminal tuple; interior ids are unique
    across the whole table and numbered in that order from
    vertex_count + 1. Raises LimitExceededError when there are more than
    CANDIDATE_BUDGET subsets.
    """
    if k < 2:
        raise KRestrictionError(f"k must be at least 2, got {k}")
    terms = sorted(instance.terminals)
    r = len(terms)
    k = min(k, r)
    subsets = sum(math.comb(r, m) for m in range(2, k + 1))
    if subsets > CANDIDATE_BUDGET:
        raise LimitExceededError(
            f"{subsets} terminal subsets of size 2..{k} exceed the candidate "
            f"budget of {CANDIDATE_BUDGET}; use a smaller k"
        )
    tidx = np.array([closure.index[t] for t in terms], dtype=np.int64)
    rows_of = closure.rows(terms)  # closure distances from each terminal

    # Pairs: one closure edge each.
    ranks = np.arange(r)
    pairs = np.argwhere(ranks[:, None] < ranks)
    weights = rows_of[pairs[:, 0], tidx[pairs[:, 1]]]
    blocks = [(pairs, np.full(len(pairs), -1, dtype=np.int64), weights[:, None])]

    if k >= 3:
        # 3-stars, grouped by their middle terminal j: for each i < j < c the
        # first closure vertex minimizing the spoke sum, kept when no subset
        # terminal sits there.
        middle = (ranks[None, :, None] < ranks[:, None, None]) & (ranks[:, None, None] < ranks)
        triples = np.argwhere(middle)[:, [1, 0, 2]]
        hubs = np.concatenate([
            (rows_of[:j, None] + rows_of[j] + rows_of[None, j + 1:]).argmin(axis=2).ravel()
            for j in range(1, r - 1)
        ])
        keep = (hubs[:, None] != tidx[triples]).all(axis=1)
        triples, hubs = triples[keep], hubs[keep]
        spokes = rows_of[triples, hubs[:, None]]
        blocks.append((triples, np.asarray(closure.vertices, dtype=np.int64)[hubs], spokes))

    larger: list[tuple[tuple[int, ...], list[Edge], dict[int, int]]] = []
    if k >= 4:
        from .exact import dw_closure_tree

        D = closure.dist
        for size in range(4, k + 1):
            for combo in itertools.combinations(range(r), size):
                sub_idx = [int(tidx[x]) for x in combo]
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
                larger.append((combo, edges, origin))

    n = sum(len(p) for p, _, _ in blocks) + len(larger)
    pos = np.full((n, k), -1, dtype=np.int64)
    hub = np.full(n, -1, dtype=np.int64)
    spokes = np.zeros((n, 3), dtype=np.int64)
    interior = np.zeros(n, dtype=np.int64)
    at = 0
    for p, h, w in blocks:
        rows = slice(at, at + len(p))
        pos[rows, :p.shape[1]] = p
        hub[rows] = h
        spokes[rows, :w.shape[1]] = w
        interior[rows] = h >= 0
        at += len(p)
    for combo, _, origin in larger:
        pos[at, :len(combo)] = combo
        interior[at] = len(origin)
        at += 1

    order = np.lexsort(pos.T[::-1])
    pos, hub, spokes, interior = pos[order], hub[order], spokes[order], interior[order]
    row_of = np.empty(n, dtype=np.int64)
    row_of[order] = np.arange(n)
    first_id = instance.vertex_count + 1 + np.cumsum(interior) - interior
    total = int(interior.sum())
    costs = spokes.sum(axis=1)
    losses = np.where(hub >= 0, spokes.min(axis=1), 0)
    built: dict[int, FullComponent] = {}
    for j, (combo, edges, origin) in enumerate(larger):
        row = int(row_of[n - len(larger) + j])
        next_id = int(first_id[row])
        remap: dict[int, int] = {}
        for ph in sorted(origin, reverse=True):  # -1 first, then -2, ...
            remap[ph] = next_id
            next_id += 1
        final_edges = [(remap.get(u, u), remap.get(v, v), w) for u, v, w in edges]
        comp = FullComponent(tuple(terms[x] for x in combo), final_edges,
                             {remap[ph]: o for ph, o in origin.items()})
        built[row] = comp
        costs[row] = comp.cost
        losses[row] = comp.loss
    return CandidateTable(
        np.array(terms, dtype=np.int64), pos, costs, losses, hub, spokes,
        first_id, built, instance.vertex_count + total if total else 0,
    )


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

# Relative tolerance of the float prefilter in the greedy selections. A
# float64 ratio of two int64 values is within a relative 2**-51 of the exact
# one, so this keeps every exact optimum and rarely much else.
RATIO_TOLERANCE = 1e-9


def near_minimum(ratios: np.ndarray) -> np.ndarray:
    """Positions, in increasing order, whose float ratio lies within
    RATIO_TOLERANCE of the smallest: a superset of the exact minimizers,
    which integer comparisons then decide among."""
    best = ratios.min()
    slack = RATIO_TOLERANCE * np.maximum(np.abs(ratios), abs(best))
    return np.flatnonzero(ratios - best <= slack)


def argmin_ratio(num: np.ndarray, den: np.ndarray) -> int | None:
    """Row with the smallest num/den among rows with positive den; ties go
    to the earliest row. None when no den is positive. Float ratios only
    narrow the field (near_minimum); integer cross-multiplication decides."""
    eligible = np.flatnonzero(den > 0)
    if eligible.size == 0:
        return None
    best, best_num, best_den = None, 0, 1
    for i in eligible[near_minimum(num[eligible] / den[eligible])].tolist():
        n, d = int(num[i]), int(den[i])
        if best is None or n * best_den < best_num * d:
            best, best_num, best_den = i, n, d
    return best


class CandidateRows(Sequence):
    """The pool's candidates as (terminals, cost, loss) rows, read from the
    columns without building components."""

    def __init__(self, table: CandidateTable):
        self._table = table

    def __len__(self) -> int:
        return len(self._table)

    def __getitem__(self, i: int) -> CandidateRow:
        t = self._table
        return CandidateRow(tuple(t.terminal_ids[t.pos[i, :t.size[i]]].tolist()),
                            int(t.costs[i]), int(t.losses[i]))

    def __iter__(self) -> Iterator[CandidateRow]:
        t = self._table
        by_size = {}
        for m in np.flatnonzero(np.bincount(t.size)).tolist():
            idx = np.flatnonzero(t.size == m)
            terms = np.ascontiguousarray(t.terminal_ids[t.pos[idx, :m]])
            # A structured view's tolist() makes all the tuples in one call.
            fields = np.dtype([(f"t{j}", np.int64) for j in range(m)])
            rows = zip(terms.view(fields).reshape(-1).tolist(), t.costs[idx].tolist(),
                       t.losses[idx].tolist())
            # tuple.__new__ makes each row without a Python-level call.
            by_size[m] = map(tuple.__new__, itertools.repeat(CandidateRow), rows)
        # Each row comes from its size's stream, in row order, and is made
        # only when reached, so a pass over every row stays cheap.
        return map(next, map(by_size.__getitem__, t.size.tolist()))


class CandidatePool:
    """Scoring index over a CandidateTable; a list of components is turned
    into one. `pool[i]` is candidate i as a FullComponent, built on first
    use. Savings are evaluated as MSTs under the tree's path-bottleneck
    weights; the from-scratch definition lives in
    ContractedTree.mst_with_zero_set and the two are cross-checked in
    tests."""

    def __init__(self, candidates: Sequence[FullComponent]):
        table = (candidates if isinstance(candidates, CandidateTable)
                 else CandidateTable.from_components(candidates))
        self.table = table
        self.candidates = CandidateRows(table)
        self.costs = table.costs
        self.losses = table.losses
        self.max_steiner_id = table.max_steiner_id
        # Per size: the rows, and for each terminal column i >= 1 the flat
        # indices, into an r x r matrix, of its pairs with columns j < i.
        r, width = len(table.terminal_ids), table.pos.shape[1]
        self._groups = []
        for m in np.flatnonzero(np.bincount(table.size)).tolist():
            idx = np.flatnonzero(table.size == m)
            pos = table.pos[idx, :m]
            earlier = [pos[:, :i].T * r + pos[:, i] for i in range(1, m)]
            self._groups.append((idx, earlier))
        # Terminal-set keys: an offset per size plus the colex rank of the
        # positions among the subsets of that size.
        counts = [math.comb(r, m) for m in range(width + 1)]
        if sum(counts) >= 2**63:
            raise LimitExceededError("candidate terminal sets too large to index")
        self._offsets = np.cumsum([0] + counts[:-1])
        self._binom = np.array([[math.comb(p, t) for t in range(1, width + 1)]
                                for p in range(max(r, 1))], dtype=np.int64)
        keys = self._keys(table.pos, table.size)
        self._key_order = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[self._key_order]

    def _keys(self, pos: np.ndarray, size: np.ndarray) -> np.ndarray:
        cols = np.arange(pos.shape[1])
        ranks = np.where(pos >= 0, self._binom[np.maximum(pos, 0), cols], 0)
        return self._offsets[size] + ranks.sum(axis=1)

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, i: int) -> FullComponent:
        return self.table[i]

    def by_terminals(self, terminals: Iterable[int]) -> int | None:
        """Index of the first candidate spanning exactly `terminals`."""
        ids = self.table.terminal_ids
        terms = np.array(sorted(set(terminals)), dtype=np.int64)
        m = len(terms)
        if not 2 <= m <= self.table.pos.shape[1]:
            return None
        pos = np.searchsorted(ids, terms)
        if pos[-1] >= len(ids) or (ids[pos] != terms).any():
            return None
        padded = np.full((1, self.table.pos.shape[1]), -1, dtype=np.int64)
        padded[0, :m] = pos
        key = self._keys(padded, np.array([m]))[0]
        at = int(np.searchsorted(self._sorted_keys, key))
        if at == len(self._sorted_keys) or self._sorted_keys[at] != key:
            return None
        return int(self._key_order[at])

    def savings_for(self, tree: ContractedTree) -> np.ndarray:
        """Each candidate's saving in `tree`: the MST of its terminals under
        path-maximum weights b. Path maxima in a tree form an ultrametric,
        so for terminals t0 .. t(m-1) that MST is the sum over i >= 1 of
        min over j < i of b(ti, tj): each Kruskal merge among them is
        counted once, by the earliest terminal of the later side."""
        out = np.zeros(len(self.table), dtype=np.int64)
        if not len(out):
            return out
        reps = tree.rep_rows(self.table.terminal_ids.tolist())
        # Path maxima between the pool's terminals, flattened.
        between = tree.bottleneck_matrix[reps[:, None], reps].ravel()
        for idx, earlier in self._groups:
            out[idx] = sum(between.take(flat).min(axis=0) for flat in earlier)
        return out
