"""Candidate components for the greedy phases.

A full component is a tree whose leaves are exactly its terminals; interior
nodes are private copies of graph vertices (fresh ids, each remembering the
vertex it came from). The loss of a component is the cheapest forest inside
it that hooks every interior node to some terminal; contracting the loss
yields the component's cheaper stand-in used while building the base tree.

Enumeration produces, for every terminal subset of size 2..k, an optimal
tree over the metric closure, keeping only subsets whose own terminals end
up as leaves. It returns numpy columns (CandidateTable) that the greedy
phases score in batch; a candidate becomes a FullComponent only when a
phase picks it, a displacement looks it up, or the restricted oracle picks
it, and then once, with the interior ids it keeps.
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

    def __repr__(self) -> str:
        return f"FullComponent(terminals={self.terminals}, cost={self.cost})"


def _loss_indices(comp: FullComponent) -> tuple[int, ...]:
    """Edge indices of the minimal forest connecting every interior node to
    a terminal: MST(component + zero clique on terminals) minus the clique."""
    if not comp.steiner_ids:
        return ()
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
    """A candidate's terminals and cost, read from the columns."""

    terminals: tuple[int, ...]
    cost: int


class CandidateTable(Sequence):
    """Candidates as numpy columns, one row per terminal subset, ordered by
    sorted terminal tuple.

    `pos` holds each row's terminals as positions into `terminal_ids`,
    padded with -1, and `size` their number, both int16: every pair is a
    subset, so CANDIDATE_BUDGET keeps enumeration at 2,000 terminals.
    `edges` holds each row's tree as (endpoint, endpoint, weight) closure
    edges, the row's edges first and zeros after them: a pair has 1 edge,
    a star 3 or 4, a two-hub 4-row 5, and an m-row at most 2m - 3. Each
    edge after the first joins one new node to the earlier ones, as
    enumeration's depth-first order does. An endpoint is a terminal id or
    the graph vertex an interior node copies, so the table needs no
    closure to build a row. `edges` is in Fortran order, so
    `edges.T`, [end or weight, edge, row], reads contiguous rows. Its
    dtype is int32 when every endpoint and weight is below 2**31
    (`_work_dtype`), else int64; `costs`, `losses` and `first_id` are
    int64, and sums over the edges accumulate in int64. `losses` come
    from the edges (`tree_losses`). `component(i, first)` builds row
    i; `table[i]` numbers its interior nodes from `first_id[i]`, so that
    every row has ids of its own: the table's interior nodes, row by row
    from `base` (vertex_count + 1 for enumeration), end at `max_steiner_id`.
    """

    def __init__(self, terminal_ids: np.ndarray, pos: np.ndarray, costs: np.ndarray,
                 edges: np.ndarray, base: int):
        self.terminal_ids = terminal_ids
        self.pos = pos
        self.size = (pos >= 0).sum(axis=1, dtype=np.int16)
        self.costs = costs
        self.edges = edges
        self.losses = tree_losses(edges, self._check(), self.size)
        # A tree over its terminals and interior nodes has one node more than edges.
        interior = (edges.T[0] != 0).sum(axis=0) + 1 - self.size
        self.first_id = base + np.cumsum(interior) - interior
        self.max_steiner_id = base - 1 + int(interior.sum())

    def _check(self) -> np.ndarray:
        """Component validation, vectorized: terminal positions increase;
        each terminal appears once among its row's endpoints (so it is a
        leaf and no interior node); edges have positive endpoints and come
        before the zero padding; the first edge has two ends and each later
        one exactly one end among the earlier ones, so the edges grow a tree;
        weights are nonnegative and costs their sums. Returns which ends are
        the row's terminals, as an [end, edge, row] mask like `edges.T`."""
        pos, ends, weights = self.pos, self.edges.T[:2], self.edges.T[2]
        real = ends[0] != 0
        # Terminal ids in the endpoints' dtype; padded positions read -1.
        ids = np.append(self.terminal_ids, -1)
        terms = ids.astype(ends.dtype)
        leaves, at_term = _leaves(ends, terms[pos].T)
        grows = (ends[0, 0] != ends[1, 0]).all()
        for j in range(1, len(real)):
            old = [(ends[:, :j] == end).any(axis=0).any(axis=0) for end in ends[:, j]]
            grows &= ((old[0] != old[1]) | ~real[j]).all()
        ok = (leaves.all() and grows and (pos[:, :2] >= 0).all()
              and (terms == ids).all()
              and ((pos[:, 1:] > pos[:, :-1]) | (pos[:, 1:] < 0)).all()
              and (real[:-1] | ~real[1:]).all()
              and ((ends[0] > 0) & (ends[1] > 0) | ~real).all()
              and (real | (ends[1] == 0) & (weights == 0)).all()
              and (weights >= 0).all()
              and (self.costs == weights.sum(axis=0, dtype=np.int64)).all())
        if not ok:
            raise InternalInvariantError("candidate columns fail component validation")
        return at_term

    def __len__(self) -> int:
        return len(self.costs)

    def __getitem__(self, i: int) -> FullComponent:
        return self.component(i, int(self.first_id[i]))[0]

    def component(self, i: int, first: int) -> tuple[FullComponent, int]:
        """Row i as a FullComponent, its interior nodes numbered from
        `first` in order of first appearance, and the next free id. The
        component's cost and loss are checked against the columns."""
        i = operator.index(i)
        if not 0 <= i < len(self):
            raise IndexError("candidate index out of range")
        terms = self.terminal_ids[self.pos[i, :self.size[i]]].tolist()
        edges = [e for e in self.edges[i].tolist() if e[0]]
        ids = {t: t for t in terms}
        origin: dict[int, int] = {}
        for x in (x for u, v, _ in edges for x in (u, v)):
            if x not in ids:
                ids[x] = first + len(origin)
                origin[ids[x]] = x
        comp = FullComponent(terms, [(ids[u], ids[v], w) for u, v, w in edges], origin)
        if (comp.cost, comp.loss) != (self.costs[i], self.losses[i]):
            raise InternalInvariantError(f"candidate {i} disagrees with its columns")
        return comp, first + len(origin)


def tree_losses(edges: np.ndarray, at_term: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Loss of each row's tree: the MST of its edges with its terminals
    (`at_term`) merged into one node, grown by Prim from that node on every
    row at once, one interior node per step, so no row's edges need
    sorting. The padding counts as grown. Work arrays keep the edges'
    dtype; the losses are int64."""
    ends, weights = edges.T[:2], edges.T[2]
    grown = at_term | (ends == 0)
    losses = np.zeros(len(edges), dtype=np.int64)
    interior = (ends[0] != 0).sum(axis=0, dtype=np.int16) + 1 - size  # nodes - edges = 1
    # Read as unsigned, the sentinel -1 exceeds every nonnegative weight of
    # the dtype, int32's largest included, so a minimum is a crossing edge.
    unsigned = np.dtype(f"u{weights.itemsize}")
    for left in range(int(interior.max(initial=0)), 0, -1):
        cand = np.where(grown[0] != grown[1], weights, weights.dtype.type(-1)).view(unsigned)
        step = cand.min(axis=0).view(weights.dtype)
        reached = step >= 0  # the rows with an interior node left
        np.add(losses, step, out=losses, where=reached)
        if left > 1:
            j = cand.argmin(axis=0)[None]
            u, v = (np.take_along_axis(end, j, axis=0)[0] for end in ends)
            new = np.where(np.take_along_axis(grown[0], j, axis=0)[0], v, u)
            grown |= (ends == new) & reached
    return losses


def _leaves(ends: np.ndarray, terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, whether its `terms` ([terminal, row], -1 padded) each appear
    once among its `ends` ([end, edge, row]), and the ends that are terms."""
    at_term = np.zeros(ends.shape, dtype=bool)
    present = np.ones(ends.shape[-1], dtype=bool)
    for t in terms:
        hit = ends == t
        present &= hit.any(axis=0).any(axis=0) | (t < 0)
        at_term |= hit
    # 16-bit sums run several times faster than int64 ones.
    count = at_term.sum(axis=0, dtype=np.int16).sum(axis=0, dtype=np.int16)
    return present & (count == (terms >= 0).sum(axis=0, dtype=np.int16)), at_term


# Most int64 elements in one temporary array of the shared Dreyfus-Wagner
# tables: 2**16 elements are 512 KiB. Tables are built in chunks of subsets,
# and last masks evaluated in chunks of bases, sized so that the gathered
# splits (a closure row per split and subset or base) and the V x V min-plus
# step stay within it, so transient memory does not grow with the number of
# subsets. One subset or base is never split, so above 256 vertices a table
# chunk is V*V, the size of `dist`.
DW_CHUNK = 2**16

# Most bytes of the dense arrays over the V closure vertices that k >= 4
# enumeration and the exact optimum allocate: the distance matrix, 8 V^2
# bytes, and the shared tables, 16 bytes per table row and vertex (W in
# int64, relax and split in int32). 1 GiB keeps a solve well inside a
# machine of a few GiB: the matrix alone fits 11,585 vertices, and the
# exact optimum at its cap of 16 terminals (2**15 - 2 rows) 1,987.
DENSE_BUDGET = 2**30


def check_dense_budget(vertices: int, terminals: int, top: int, remedy: str) -> None:
    """Raise LimitExceededError when the distance matrix and the tables for
    up to `top` of all terminals but the last exceed DENSE_BUDGET."""
    rows = sum(math.comb(terminals - 1, s) for s in range(1, top + 1))
    need = 8 * vertices * vertices + 16 * vertices * rows
    if need > DENSE_BUDGET:
        raise LimitExceededError(
            f"the distance matrix and Dreyfus-Wagner tables over {vertices} vertices "
            f"need {need} bytes, above the budget of {DENSE_BUDGET}; {remedy}")


def _colex_levels(n: int, top: int) -> list[np.ndarray]:
    """For s = 0 .. top, the s-subsets of range(n) as increasing rows in
    colex order: row i has colex rank i, and the subsets of range(p) are
    the first C(p, s). Level s appends each largest element p to the first
    C(p, s - 1) rows of level s - 1."""
    levels = [np.zeros((1, 0), dtype=np.int64)]
    for s in range(1, top + 1):
        rows = np.empty((math.comb(n, s), s), dtype=np.int64)
        at = 0
        for p in range(s - 1, n):
            count = math.comb(p, s - 1)
            rows[at:at + count, :-1] = levels[-1][:count]
            rows[at:at + count, -1] = p
            at += count
        levels.append(rows)
    return levels


class _SharedTables:
    """Dreyfus-Wagner over the metric closure for every terminal subset at
    once, in the Erickson-Monma-Veinott form; the exact optimum
    (exact.dw_closure_tree) is the case of a single subset.

    A table W[S] depends only on the terminal set S, and a subset's base
    (every terminal but its last) never holds the last terminal. Local bit
    order preserves global rank, so the sub-mask order and the first-index
    argmins are those of every subset containing S: the tables for |S| up
    to `top` are built once, over the positions 0 .. r-2, and each subset
    adds only its last mask, evaluated at its last terminal.

    The tables are rows of three arrays of closure columns: W (the cheapest
    tree over S and one more vertex v), relax (the hub u it uses at v) and
    split (the local sub-mask chosen at u). The s-subsets take the rows from
    offset[s] on, in colex order; the single terminals (s = 1) come first,
    as their closure rows, each its own relax.
    """

    def __init__(self, D: np.ndarray, tidx: np.ndarray, top: int):
        self.D = D
        self.tidx = tidx
        r, nv = len(tidx), D.shape[0]
        # C(p, j) for each position p and width j, and the bit count of
        # each sub-mask of up to top + 1 positions.
        self._binom = np.array([[math.comb(p, j) for j in range(top + 2)] for p in range(r)],
                               dtype=np.int64)
        self._size = np.zeros(1, dtype=np.int64)
        for _ in range(top + 1):
            self._size = np.concatenate([self._size, self._size + 1])
        self._subsets = _colex_levels(r - 1, top + 1)
        self.offset = np.cumsum([0, 0] + [len(self._subsets[s]) for s in range(1, top + 1)])
        self.W = np.empty((self.offset[-1], nv), dtype=np.int64)
        self.relax = np.zeros((self.offset[-1], nv), dtype=np.int32)
        self.split = np.zeros((self.offset[-1], nv), dtype=np.int32)
        self.W[:r - 1] = D[tidx[:r - 1]]
        self.relax[:r - 1] = tidx[:r - 1, None]
        for s in range(2, top + 1):
            subsets = self._subsets[s]
            step = max(1, DW_CHUNK // (nv * max(nv, (1 << (s - 1)) - 1)))
            for at in range(0, len(subsets), step):
                chunk = subsets[at:at + step]
                rows = slice(self.offset[s] + at, self.offset[s] + at + len(chunk))
                subs, _, cand = self.splits(chunk)
                merged = cand.min(axis=0)
                self.split[rows] = subs[cand.argmin(axis=0)]
                del cand  # the gathered splits and the min-plus step are never held together
                # [i, v, u] is merged[i, u] + D[u, v]; closure distances
                # are symmetric, and the argmin over u takes the first u.
                total = merged[:, None, :] + D
                relax = total.argmin(axis=2)
                self.relax[rows] = relax
                self.W[rows] = total.reshape(-1, nv)[np.arange(relax.size),
                                                     relax.ravel()].reshape(relax.shape)

    def _part_rows(self, base: np.ndarray) -> np.ndarray:
        """The table row of every part of each row of increasing positions,
        as [part bits, row]: the binomial sum of its positions, filled in by
        the highest bit, plus the offset of its size (for one, its position)."""
        size = self._size[:1 << base.shape[1]]
        rows = np.zeros((len(size), len(base)), dtype=np.int64)
        for j in range(base.shape[1]):
            high = slice(1 << j, 2 << j)
            rows[high] = rows[:1 << j] + self._binom.T[size[high]][:, base[:, j]]
        return rows + self.offset[size][:, None]

    def splits(self, base: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For rows of increasing positions: the local sub-masks of the parts
        holding the row's first position, in decreasing order; the table
        rows of each part and its rest, as [half, split, row]; and
        W[part] + W[rest] for each, as [split, row, vertex]. The first
        minimum over the splits is the largest sub-mask attaining it, the
        choice that keeps the earlier split on a tie."""
        full = (1 << base.shape[1]) - 1
        subs = np.arange(full - 2, 0, -2)  # the odd proper sub-masks
        rows = self._part_rows(base)
        halves = np.stack([rows[subs], rows[full ^ subs]])
        cand = self.W[halves[0]]
        cand += self.W[halves[1]]
        return subs, halves, cand

    def last_masks(self, m: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray,
                                                   np.ndarray]]:
        """Every m-subset's optimal tree root: (the subsets as increasing
        positions, the hub u minimizing merged[u] + D[u, q] for the last
        position q, that tree's cost, the split chosen at u), in batches of
        about DW_CHUNK tree ends. The bases (every position but the last)
        are merged once, a chunk at a time, and each chunk is read at every
        q above it: in colex order the bases over positions below q are the
        first C(q, m - 1). The split is chosen only at the hub."""
        bases = self._subsets[m - 1]
        step = max(1, DW_CHUNK // (self.D.shape[0] * ((1 << (m - 2)) - 1)))
        batch: list[tuple[np.ndarray, ...]] = []
        held = 0  # the rows in batch
        for at in range(0, len(bases), step):
            chunk = bases[at:at + step]
            subs, halves, cand = self.splits(chunk)
            merged = cand.min(axis=0)
            del cand  # the splits are read again at the hubs alone, from W
            for q in range(m - 1, len(self.tidx)):
                n = min(len(chunk), math.comb(q, m - 1) - at)
                if n <= 0:
                    continue
                total = merged[:n] + self.D[self.tidx[q]]
                hub = total.argmin(axis=1)
                at_hub = self.W[halves[0, :, :n], hub] + self.W[halves[1, :, :n], hub]
                batch.append((np.column_stack([chunk[:n], np.full(n, q)]), hub,
                              total[np.arange(n), hub], subs[at_hub.argmin(axis=0)]))
                held += n
                if held * 2 * (2 * m - 3) >= DW_CHUNK:
                    yield tuple(np.concatenate(col) for col in zip(*batch))
                    batch, held = [], 0
        if batch:
            yield tuple(np.concatenate(col) for col in zip(*batch))

    def trees(self, subsets: np.ndarray, hub: np.ndarray, split: np.ndarray) -> np.ndarray:
        """Closure edges of each subset's tree, as (child, parent) indices in
        a (2, 2m - 3, rows) array: `hub` joined to the last terminal q, and
        the parts of the other terminals split by `split` hanging from it,
        each rebuilt from its table, one split level at a time for all rows.
        Edges go depth first, part before rest: a part of p terminals takes
        2p - 1 slots, its own edge first. Edges whose ends coincide are
        left out; each row's edges come first, padded with -1."""
        base = subsets[:, :-1]
        n, mu = base.shape
        row_of, size, bits = self._part_rows(base), self._size, 1 << np.arange(mu)
        ends = np.full((2, (2 * mu - 1) * n), -1, dtype=np.int64)  # [end, slot * n + row]
        ends[:, :n] = hub, self.tidx[subsets[:, -1]]
        # The parts that split at their hub: row, base columns as bits, the
        # hub, the local sub-mask chosen there, the slot of the edge to it.
        row, mask, at, sub, slot = np.arange(n), np.full(n, bits.sum()), hub, split, 0 * hub
        while len(row):
            on = mask[:, None] & bits != 0  # the part takes the columns whose rank is in sub
            part = ((sub[:, None] >> (on.cumsum(axis=1) - on) & on) * bits).sum(axis=1)
            halves = np.concatenate([part, mask ^ part])
            slot = np.concatenate([slot + 1, slot + 2 * size[part]])
            row, above = np.concatenate([row, row]), np.concatenate([at, at])
            table = row_of[halves, row]
            at = self.relax[table, above]  # a single terminal's own vertex
            ends[:, slot * n + row] = at, above
            more = size[halves] > 1
            row, mask, at, slot = row[more], halves[more], at[more], slot[more]
            sub = self.split[table[more], at]
        ends = ends.reshape(2, 2 * mu - 1, n)
        ends[:, ends[0] == ends[1]] = -1
        return np.take_along_axis(ends, (ends[:1] < 0).argsort(axis=1, kind="stable"), axis=1)


def _dw_rows(tables: _SharedTables, vertices: np.ndarray, subset: np.ndarray, hub: np.ndarray,
             cost: np.ndarray, split: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions and transposed edge columns of the subsets in one batch of
    last masks whose trees have their terminals as leaves. A terminal at
    the root hub never is one, so those trees are not rebuilt."""
    keep = (tables.tidx[subset] != hub[:, None]).all(axis=1)
    subset, hub, cost, split = subset[keep], hub[keep], cost[keep], split[keep]
    ends = tables.trees(subset, hub, split)
    keep = _leaves(ends, tables.tidx[subset].T)[0]
    ends, subset, cost = ends[..., keep], subset[keep], cost[keep]
    real = ends[0] >= 0
    weights = np.where(real, tables.D[ends[0], ends[1]], 0)
    wrong = np.flatnonzero(weights.sum(axis=0) != cost)
    if len(wrong):
        raise InternalInvariantError(
            f"tree for terminal positions {subset[wrong[0]].tolist()} disagrees with its "
            "table cost")
    return subset, np.concatenate([np.where(real, vertices[ends], 0), weights[None]])


def _middle_triples(r: int) -> np.ndarray:
    """Every i < j < c below r, by j, then i, then c, as int16 positions:
    for each j, the grid of i < j by c > j."""
    triples = np.empty((math.comb(r, 3), 3), dtype=np.int16)
    at = 0
    for j in range(1, r - 1):
        block = triples[at:at + j * (r - 1 - j)].reshape(j, r - 1 - j, 3)
        block[..., 0] = np.arange(j)[:, None]
        block[..., 1] = j
        block[..., 2] = np.arange(j + 1, r)
        at += j * (r - 1 - j)
    return triples


def _work_dtype(values: np.ndarray, terms: int) -> type:
    """int32 when a sum of `terms` of the nonnegative `values` stays below
    2**31, so that int32 arithmetic on them is exact, else int64. A kernel
    that forms nothing larger than such a sum runs the same lines in either
    dtype, and its results match an int64 run's bit for bit."""
    return np.int32 if terms * int(values.max(initial=0)) < 2**31 else np.int64


def _three_stars(rows_of: np.ndarray, tidx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """3-stars by middle terminal j: for each i < j < c the first closure vertex
    minimizing the spoke sum, kept when no subset terminal sits there, as
    (positions, hub columns)."""
    triples = _middle_triples(len(tidx))
    # The largest value formed is a spoke sum, three closure distances.
    rows_of = rows_of.astype(_work_dtype(rows_of, 3), copy=False)
    hubs = np.concatenate([
        ((rows_of[:j] + rows_of[j])[:, None] + rows_of[None, j + 1:]).argmin(axis=2).ravel()
        for j in range(1, len(tidx) - 1)
    ])
    keep = tidx[triples[:, 0]] != hubs
    for j in (1, 2):
        keep &= tidx[triples[:, j]] != hubs
    return np.compress(keep, triples, axis=0), np.compress(keep, hubs)


def enumerate_full_components(instance: Instance, closure: MetricClosure,
                              k: int) -> CandidateTable:
    """Candidates for every terminal subset of size 2..k: an optimal closure
    tree per subset, kept only when the subset's own terminals are leaves.
    Ordered lexicographically by terminal tuple; interior ids are unique
    across the whole table and numbered in that order from
    vertex_count + 1. Subsets of 4 or more terminals share Dreyfus-Wagner
    tables (_SharedTables). Raises LimitExceededError when there are more
    than CANDIDATE_BUDGET subsets, or when the tables would exceed
    DENSE_BUDGET.
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
    vertices = np.asarray(closure.vertices, dtype=np.int64)
    leaf, nv = vertices[tidx], len(vertices)

    # Blocks of positions and transposed edge columns. Pairs: one closure edge each.
    pairs = np.column_stack(np.triu_indices(r, 1))
    weights = rows_of[pairs[:, 0], tidx[pairs[:, 1]]]
    blocks = [(pairs, np.vstack([leaf[pairs.T], weights])[:, None])]
    if k >= 3:
        # The 3-stars come as positions and hubs; their edges, three spokes
        # to the hub, go straight into the table's columns below.
        blocks.append(_three_stars(rows_of, tidx))
    if k >= 4:
        check_dense_budget(len(vertices), r, k - 2, "use a smaller k")
        tables = _SharedTables(closure.dist, tidx, k - 2)
        for m in range(4, k + 1):
            blocks.extend(_dw_rows(tables, vertices, *last) for last in tables.last_masks(m))

    n = sum(len(p) for p, _ in blocks)
    # Rows store closure vertices and distances: at k = 3 those from the
    # terminals, at k >= 4 any of the matrix, which the tables have read.
    top = (closure.dist if k >= 4 else rows_of).max()
    edge_dtype = _work_dtype(np.array([vertices.max(), top]), 1)
    # Fortran order, and edges built transposed: row-wise checks and sums
    # read one contiguous column at a time.
    pos = np.full((n, k), -1, dtype=np.int16, order="F")
    edges = np.zeros((3, max(1, 2 * k - 3), n), dtype=edge_dtype)
    at = 0
    for p, e in blocks:
        rows = slice(at, at + len(p))
        pos[rows, :p.shape[1]] = p
        if e.ndim == 1:  # 3-star hubs: the hub ends all three spokes
            edges[1, :3, rows] = vertices[e]
            for j in range(3):
                edges[0, j, rows] = leaf[p[:, j]]
                edges[2, j, rows] = rows_of.take(p[:, j].astype(np.int64) * nv + e)
        else:
            edges[:, :e.shape[1], rows] = e
        at += len(p)
    del blocks, p, e  # the block columns, before the sort and the checks

    # numpy radix-sorts the int16 keys.
    order = np.lexsort(pos.T[::-1])
    for plane in (*pos.T, *edges.reshape(-1, n)):  # in place, one plane at a time
        plane[:] = plane[order]
    return CandidateTable(np.array(terms, dtype=np.int64), pos,
                          edges[2].sum(axis=0, dtype=np.int64), edges.T,
                          instance.vertex_count + 1)


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


def rows_at_most(floor: np.ndarray, num: int, den: int) -> np.ndarray:
    """Rows, in increasing order, whose float `floor` may be at most num/den
    (den > 0). The float test is widened by RATIO_TOLERANCE, as in
    near_minimum, so every row whose exact floor is at most num/den is kept;
    a floor of -inf is always kept and one of +inf never."""
    bound = num / den
    return np.flatnonzero(floor <= bound + RATIO_TOLERANCE * abs(bound))


class CandidatePool:
    """Scoring index over a CandidateTable. `pool.component(i, first)`
    builds candidate i as a FullComponent with interior ids from `first`.
    Savings are evaluated as MSTs under the tree's path-bottleneck weights;
    phase 2 checks them against each contraction's cost drop, and the tests
    against a from-scratch zero-clique MST (tests/oracles.py:
    mst_with_zero_set)."""

    def __init__(self, table: CandidateTable):
        self.table = table
        self.costs = table.costs
        self.losses = table.losses
        self.max_steiner_id = table.max_steiner_id
        self.component = table.component
        # For each terminal column i >= 1, the flat indices into an (r+1) x (r+1)
        # matrix of its pairs with columns j < i; padding reads the zero row r.
        # Each array is allocated once and filled a column at a time, from
        # positions widened before * (r + 1): int16 would wrap there.
        r = len(table.terminal_ids)

        def column(j: int) -> np.ndarray:
            at = table.pos[:, j].astype(np.int64)
            at[at < 0] = r
            return at

        self._earlier = []
        for i in range(1, table.pos.shape[1]):
            later = column(i)
            flat = np.empty((i, len(table)), dtype=np.int64)
            for j in range(i):
                np.multiply(column(j), r + 1, out=flat[j])
                flat[j] += later
            self._earlier.append(flat)

    def __len__(self) -> int:
        return len(self.table)

    @property
    def candidates(self) -> Iterator[CandidateRow]:
        """The rows as (terminals, cost), in row order, read from the
        columns without building components; each read starts a new pass."""
        t = self.table
        by_size = {}
        for m in np.flatnonzero(np.bincount(t.size)).tolist():
            idx = np.flatnonzero(t.size == m)
            terms = np.ascontiguousarray(t.terminal_ids[t.pos[idx, :m]])
            # A structured view's tolist() makes all the tuples in one call.
            fields = np.dtype([(f"t{j}", np.int64) for j in range(m)])
            rows = zip(terms.view(fields).reshape(-1).tolist(), t.costs[idx].tolist())
            # tuple.__new__ makes each row without a Python-level call.
            by_size[m] = map(tuple.__new__, itertools.repeat(CandidateRow), rows)
        # Each row comes from its size's stream, in row order, and is made
        # only when reached, so a pass over every row stays cheap.
        return map(next, map(by_size.__getitem__, t.size.tolist()))

    def by_terminals(self, terminals: Iterable[int]) -> int | None:
        """Index of the first candidate spanning exactly `terminals`."""
        ids, width = self.table.terminal_ids, self.table.pos.shape[1]
        terms = np.array(sorted(set(terminals)), dtype=np.int64)
        if not 2 <= len(terms) <= width:
            return None
        pos = np.searchsorted(ids, terms)
        if pos[-1] >= len(ids) or (ids[pos] != terms).any():
            return None
        rows = (self.table.size == len(pos)) & (self.table.pos[:, :len(pos)] == pos).all(axis=1)
        return int(rows.argmax()) if rows.any() else None

    def savings_for(self, tree: ContractedTree, rows: np.ndarray | None = None) -> np.ndarray:
        """Each candidate's saving in `tree`, or only those of `rows` (row
        indices, in their order): the MST of its terminals under
        path-maximum weights b. Path maxima in a tree form an ultrametric,
        so for terminals t0 .. t(m-1) that MST is the sum over i >= 1 of
        min over j < i of b(ti, tj): each Kruskal merge among them is
        counted once, by the earliest terminal of the later side. A padded
        column's pairs read 0, so rows of every size share one gather."""
        reps = tree.rep_rows(self.table.terminal_ids.tolist())
        block = tree.bottleneck_matrix.take(reps, axis=0).take(reps, axis=1)
        # Path maxima between the pool's terminals, zero-padded, flattened.
        # A saving sums one entry per column after the first. The bound is
        # the gathered block's, not the pool's: any tree may be scored, and
        # assigning a larger value into int32 would wrap.
        between = np.zeros((len(reps) + 1, len(reps) + 1),
                           dtype=_work_dtype(block, len(self._earlier)))
        between[:-1, :-1] = block
        between = between.ravel()
        # take(axis=1) gathers the columns about six times faster than flat[:, rows].
        earlier = (self._earlier if rows is None
                   else [flat.take(rows, axis=1) for flat in self._earlier])
        return sum(between.take(flat).min(axis=0) for flat in earlier).astype(np.int64, copy=False)
