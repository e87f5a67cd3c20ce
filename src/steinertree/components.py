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
the restricted oracle picks it.
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
    """A candidate's terminals, cost and loss, read from the columns."""

    terminals: tuple[int, ...]
    cost: int
    loss: int


class CandidateTable(Sequence):
    """Candidates as numpy columns, one row per terminal subset, ordered by
    sorted terminal tuple.

    `pos` holds each row's terminals as positions into `terminal_ids`,
    padded with -1. A pair row is one closure edge of weight `spokes[i, 0]`.
    A star row joins its 3 or 4 terminals at graph vertex `hub[i]` by
    `spokes[i]`, through an interior node with id `first_id[i]`. A two-hub
    row has 4 terminals and a second hub, graph vertex `hub2[i]` with id
    `first_id[i] + 1`, joined to the first by an edge of weight `link[i]`:
    the two terminals whose position bits are set in `far[i]` hang at the
    second hub by their spokes, the other two, the last among them, at the
    first. Rows in `built` from the start (components of 5 or more
    terminals, and every row of a table made from a list) have no column
    form. Indexing builds a row's FullComponent once and keeps it in
    `built`. `hub2`, `far` and `link` may be left out when no row has a
    second hub.
    """

    def __init__(self, terminal_ids: np.ndarray, pos: np.ndarray, costs: np.ndarray,
                 losses: np.ndarray, hub: np.ndarray, spokes: np.ndarray,
                 first_id: np.ndarray, built: dict[int, FullComponent],
                 max_steiner_id: int, hub2: np.ndarray | None = None,
                 far: np.ndarray | None = None, link: np.ndarray | None = None):
        n = len(costs)
        self.terminal_ids = terminal_ids
        self.pos = pos
        self.size = (pos >= 0).sum(axis=1)
        self.costs = costs
        self.losses = losses
        self.hub = hub
        self.spokes = spokes
        self.hub2 = np.full(n, -1, dtype=np.int64) if hub2 is None else hub2
        self.far = np.zeros(n, dtype=np.int64) if far is None else far
        self.link = np.zeros(n, dtype=np.int64) if link is None else link
        self.first_id = first_id
        self.built = built
        self.max_steiner_id = max_steiner_id
        self._check()

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

    def _check(self) -> None:
        """Component validation, vectorized, for rows that have a column
        form: each is a pair, a one-hub star of 3 or 4 terminals, or two
        distinct hubs with two of its 4 terminals each, the last at the
        first hub; terminal positions increase; no hub is a terminal of its
        row; spokes and link are nonnegative; cost is their sum and loss
        the closed form of `column_losses`."""
        rows = np.ones(len(self), dtype=bool)
        rows[list(self.built)] = False
        if rows.all():
            rows = slice(None)  # views of the columns, not copies
        pos, size, spokes = self.pos[rows], self.size[rows], self.spokes[rows]
        hub, hub2, far, link = self.hub[rows], self.hub2[rows], self.far[rows], self.link[rows]
        plain = (hub2 < 0) & (far == 0) & (link == 0)
        pair = (size == 2) & (hub < 0) & plain
        star = ((size == 3) | (size == 4)) & (hub >= 0) & plain
        two = (size == 4) & (hub >= 0) & (hub2 >= 0) & ((far == 3) | (far == 5) | (far == 6))
        used = np.arange(spokes.shape[1]) < np.where(pair, 1, size)[:, None]
        terms = self.terminal_ids[np.maximum(pos, 0)]
        at_hub = (pos >= 0) & ((terms == hub[:, None]) | (terms == hub2[:, None]))
        ok = ((pair | star | two).all() and (pos[:, :2] >= 0).all()
              and ((np.diff(pos, axis=1) > 0) | (pos[:, 1:] < 0)).all()
              and not at_hub.any() and (hub != hub2)[two].all()
              and (spokes >= 0).all() and (link >= 0).all() and (spokes[~used] == 0).all()
              and (self.costs[rows] == spokes.sum(axis=1) + link).all()
              and (self.losses[rows] == column_losses(size, hub, hub2, far, spokes, link)).all())
        if not ok:
            raise InternalInvariantError("candidate columns fail component validation")

    def __len__(self) -> int:
        return len(self.costs)

    def __getitem__(self, i: int) -> FullComponent:
        i = operator.index(i)
        if not 0 <= i < len(self):
            raise IndexError("candidate index out of range")
        if i not in self.built:
            self.built[i] = self._build(i)
        return self.built[i]

    def _build(self, i: int) -> FullComponent:
        """The component of column-form row i."""
        terms = self.terminal_ids[self.pos[i, :self.size[i]]].tolist()
        weights = self.spokes[i].tolist()
        hub, hub2, far, link, s = (int(col[i]) for col in (self.hub, self.hub2, self.far,
                                                           self.link, self.first_id))
        if hub < 0:
            comp = FullComponent(terms, [(terms[0], terms[1], weights[0])])
        else:
            edges = [(t, s + (far >> j & 1), w) for j, (t, w) in enumerate(zip(terms, weights))]
            origin = {s: hub}
            if hub2 >= 0:
                edges.append((s, s + 1, link))
                origin[s + 1] = hub2
            comp = FullComponent(terms, edges, origin)
        if (comp.cost, comp.loss) != (self.costs[i], self.losses[i]):
            raise InternalInvariantError(f"candidate {i} disagrees with its columns")
        return comp


_NO_SPOKE = np.iinfo(np.int64).max


def column_losses(size: np.ndarray, hub: np.ndarray, hub2: np.ndarray, far: np.ndarray,
                  spokes: np.ndarray, link: np.ndarray) -> np.ndarray:
    """Loss of column-form rows in closed form: 0 for a pair, the lightest
    spoke for a star, and for two hubs min(la + lc, la + w, lc + w), with la
    and lc the lightest spokes at the first and second hub and w the link:
    each hub reaches a terminal through its own spokes or through the
    other hub. That minimum is min(la, lc) + min(max(la, lc), w)."""
    near = np.full(len(size), _NO_SPOKE, dtype=np.int64)
    away = near.copy()
    for j in range(spokes.shape[1]):  # one column at a time, so temporaries stay 1-D
        at_far = (far >> j) & 1 == 1
        np.minimum(near, spokes[:, j], out=near, where=~at_far & (j < size))
        np.minimum(away, spokes[:, j], out=away, where=at_far)
    two_hub = np.minimum(near, away) + np.minimum(np.maximum(near, away), link)
    return np.where(hub < 0, 0, np.where(hub2 < 0, near, two_hub))


# Most int64 elements in one temporary array of the shared Dreyfus-Wagner
# tables: 2**16 elements are 512 KiB. Tables are built and last masks
# evaluated in chunks of subsets sized so that the gathered splits (a
# closure row per split and subset) and the V x V min-plus step stay within
# it, so transient memory does not grow with the number of subsets. One
# subset is never split, so above 256 vertices a table chunk is V*V, the
# size of `dist`.
DW_CHUNK = 2**16


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
    as their closure rows.
    """

    def __init__(self, D: np.ndarray, tidx: np.ndarray, top: int):
        self.D = D
        self.tidx = tidx
        r, nv = len(tidx), D.shape[0]
        # C(p, j) for each position p and width j, and a last column of
        # zeros that pads parts narrower than their row.
        self._binom = np.array([[math.comb(p, j) for j in range(top + 2)] + [0]
                                for p in range(r)], dtype=np.int64)
        self._subsets = _colex_levels(r - 1, top + 1)
        self.offset = np.cumsum([0, 0] + [len(self._subsets[s]) for s in range(1, top + 1)])
        self._splits = {mu: self._split_rows(mu) for mu in range(2, top + 2)}
        self.W = np.empty((self.offset[-1], nv), dtype=np.int64)
        self.relax = np.zeros((self.offset[-1], nv), dtype=np.int32)
        self.split = np.zeros((self.offset[-1], nv), dtype=np.int32)
        self.W[:r - 1] = D[tidx[:r - 1]]
        for s in range(2, top + 1):
            subsets = self._subsets[s]
            step = max(1, DW_CHUNK // (nv * max(nv, len(self._splits[s][0]))))
            for at in range(0, len(subsets), step):
                chunk = subsets[at:at + step]
                rows = slice(self.offset[s] + at, self.offset[s] + at + len(chunk))
                merged, self.split[rows] = self.merged(chunk)
                # [i, v, u] is merged[i, u] + D[u, v]; closure distances
                # are symmetric, and the argmin over u takes the first u.
                total = merged[:, None, :] + D
                self.W[rows] = total.min(axis=2)
                self.relax[rows] = total.argmin(axis=2)

    def row(self, subsets: np.ndarray) -> np.ndarray:
        """Table row of each subset, given as increasing terminal positions
        along the last axis."""
        width = subsets.shape[-1]
        return self.offset[width] + self._binom[subsets, np.arange(1, width + 1)].sum(axis=-1)

    def _split_rows(self, mu: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The odd proper sub-masks of mu positions in decreasing order, and
        for each, its part and its rest as base columns in increasing
        order, padded to mu, with the binomial column and the table offset
        that turn them into table rows."""
        subs = np.arange((1 << mu) - 3, 0, -2, dtype=np.int32)
        halves = subs[:, None] ^ np.array([0, (1 << mu) - 1], dtype=np.int32)
        outside = (halves[..., None] >> np.arange(mu)) & 1 == 0
        cols = outside.argsort(axis=2, kind="stable")  # the half's positions first
        width = mu - outside.sum(axis=2)
        j = np.arange(mu)
        binom_col = np.where(j < width[..., None], j + 1, self._binom.shape[1] - 1)
        return subs, cols, binom_col, self.offset[width]

    def merged(self, base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For rows of increasing positions, the smallest W[part] + W[rest]
        at every closure vertex over the splits of the row, and the local
        sub-mask of the part attaining it. Parts hold the row's first
        position and go in decreasing sub-mask order; a tie keeps the
        earlier split."""
        subs, cols, binom_col, offset = self._splits[base.shape[1]]
        rows = (self._binom[base[:, cols], binom_col].sum(axis=-1) + offset).T
        cand = self.W[rows[0]]  # [split, row, vertex]
        cand += self.W[rows[1]]
        best = cand.min(axis=0)
        # Sub-masks decrease along the splits, so the first minimum is the
        # largest sub-mask attaining it.
        return best, np.where(cand == best, subs[:, None, None], 0).max(axis=0)

    def last_masks(self, m: int) -> Iterator[tuple[np.ndarray, int, np.ndarray,
                                                   np.ndarray, np.ndarray]]:
        """Every m-subset's optimal tree root, in chunks of subsets sharing
        their last position q: (base positions, q, the hub u minimizing
        merged[u] + D[u, q], that tree's cost, the split chosen at u)."""
        bases = self._subsets[m - 1]
        step = max(1, DW_CHUNK // (self.D.shape[0] * len(self._splits[m - 1][0])))
        for q in range(m - 1, len(self.tidx)):
            count = math.comb(q, m - 1)  # the bases over positions below q
            for at in range(0, count, step):
                base = bases[at:min(at + step, count)]
                total, choice = self.merged(base)
                total += self.D[self.tidx[q]]
                hub = total.argmin(axis=1)
                rows = np.arange(len(base))
                yield base, q, hub, total[rows, hub], choice[rows, hub]

    def tree_edges(self, base: list[int], q: int, hub: int, split: int) -> list[tuple[int, int]]:
        """Closure edges of one subset's tree: `hub` joined to terminal q,
        and the parts of `base` split by the local mask `split` hanging from
        it, each rebuilt from its table, depth first, part before rest."""
        edges: list[tuple[int, int]] = []

        def hang(part: list[int], v: int, u: int, s: int) -> None:
            if u != v:
                edges.append((u, v))
            for half in ([p for i, p in enumerate(part) if s >> i & 1],
                         [p for i, p in enumerate(part) if not s >> i & 1]):
                if len(half) == 1:
                    t = int(self.tidx[half[0]])
                    if t != u:
                        edges.append((t, u))
                    continue
                row = int(self.row(np.array(half)))
                w = int(self.relax[row, u])
                hang(half, u, w, int(self.split[row, w]))

        hang(base, int(self.tidx[q]), hub, split)
        return edges


def _four_rows(tables: _SharedTables, vertices: np.ndarray, base: np.ndarray, q: int,
               hub: np.ndarray, cost: np.ndarray, split: np.ndarray) -> dict[str, np.ndarray]:
    """Column form of the 4-subsets, from one chunk of last masks, whose
    tree has the subset's terminals as leaves. The tree joins q to `hub`,
    where the base splits into one terminal and a pair; the pair hangs at
    its own hub, the pair table's relax at `hub`. The same vertex for both
    makes a 4-star."""
    rows = np.arange(len(base))
    pair = np.where(split == 1, 6, split)  # split 5 (ac), 3 (ab) or 1 (a, pair bc)
    ends = np.column_stack([base[rows, np.where(pair == 6, 1, 0)],
                            base[rows, np.where(pair == 3, 1, 2)]])
    inner = tables.relax[tables.row(ends), hub]
    subset = np.column_stack([base, np.full(len(base), q)])
    own = tables.tidx[subset]
    # A terminal at a hub is no leaf: it has an edge towards q's side and
    # one towards its own part. Without that, each has exactly one edge.
    keep = ((own != hub[:, None]) & (own != inner[:, None])).all(axis=1)
    subset, own, hub, inner, pair, cost = (
        a[keep] for a in (subset, own, hub, inner, pair, cost))
    two = inner != hub
    far = np.where(two, pair, 0)
    at_far = (far[:, None] >> np.arange(4)) & 1 == 1
    spokes = tables.D[own, np.where(at_far, inner[:, None], hub[:, None])]
    link = tables.D[hub, inner]  # 0 for a star
    if (spokes.sum(axis=1) + link != cost).any():
        raise InternalInvariantError("4-terminal tree disagrees with its table cost")
    columns = dict(pos=subset, hub=vertices[hub], hub2=np.where(two, vertices[inner], -1),
                   far=far, link=link, spokes=spokes)
    columns["loss"] = column_losses(np.full(len(subset), 4), columns["hub"], columns["hub2"],
                                    far, spokes, link)
    return columns


def _middle_triples(r: int) -> np.ndarray:
    """Every i < j < c below r, by j, then i, then c: one run of c per i < j."""
    j = np.arange(r)
    mid = np.repeat(j, j)
    length = r - 1 - mid
    runs = np.column_stack([np.arange(len(mid)) - np.repeat(j * (j - 1) // 2, j), mid,
                            mid + 1 + length - np.cumsum(length)])
    triples = np.repeat(runs, length, axis=0)
    triples[:, 2] += np.arange(len(triples))
    return triples


def _three_stars(rows_of: np.ndarray, tidx: np.ndarray, vertices: np.ndarray) -> dict:
    """3-stars by middle terminal j: for each i < j < c the first closure vertex
    minimizing the spoke sum, kept when no subset terminal sits there."""
    triples = _middle_triples(len(tidx))
    hubs = np.concatenate([
        ((rows_of[:j] + rows_of[j])[:, None] + rows_of[None, j + 1:]).argmin(axis=2).ravel()
        for j in range(1, len(tidx) - 1)
    ])
    own = tidx[triples]
    keep = (own[:, 0] != hubs) & (own[:, 1] != hubs) & (own[:, 2] != hubs)
    triples, hubs = np.compress(keep, triples, axis=0), np.compress(keep, hubs)
    spokes = rows_of[triples.T, hubs].T  # Fortran order, like the table's columns
    return dict(pos=triples, hub=vertices[hubs], spokes=spokes, loss=spokes.min(axis=1))


def enumerate_full_components(instance: Instance, closure: MetricClosure,
                              k: int) -> CandidateTable:
    """Candidates for every terminal subset of size 2..k: an optimal closure
    tree per subset, kept only when the subset's own terminals are leaves.
    Ordered lexicographically by terminal tuple; interior ids are unique
    across the whole table and numbered in that order from
    vertex_count + 1. Subsets of 4 or more terminals share Dreyfus-Wagner
    tables (_SharedTables). Raises LimitExceededError when there are more
    than CANDIDATE_BUDGET subsets.
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

    # Pairs: one closure edge each.
    pairs = np.column_stack(np.triu_indices(r, 1))
    weights = rows_of[pairs[:, 0], tidx[pairs[:, 1]]]
    blocks = [dict(pos=pairs, spokes=weights[:, None])]

    if k >= 3:
        blocks.append(_three_stars(rows_of, tidx, vertices))

    # Components of 5 or more terminals: (positions, closure edges, interior
    # closure columns in order of first appearance), built after numbering.
    larger: list[tuple[list[int], list[tuple[int, int]], list[int]]] = []
    if k >= 4:
        D = closure.dist
        tables = _SharedTables(D, tidx, k - 2)
        blocks.extend(_four_rows(tables, vertices, *chunk) for chunk in tables.last_masks(4))
        for m in range(5, k + 1):
            for base, q, hub, cost, split in tables.last_masks(m):
                subset = np.column_stack([base, np.full(len(base), q)])
                # A terminal at the root hub is never a leaf.
                for i in np.flatnonzero((tidx[subset] != hub[:, None]).all(axis=1)).tolist():
                    combo = subset[i].tolist()
                    edges = tables.tree_edges(combo[:-1], q, int(hub[i]), int(split[i]))
                    own = tidx[combo].tolist()
                    ends = [x for e in edges for x in e]
                    if any(ends.count(x) != 1 for x in own):
                        continue
                    if sum(int(D[a, b]) for a, b in edges) != cost[i]:
                        raise InternalInvariantError(
                            f"tree for terminals {combo} disagrees with its table cost")
                    inner = list(dict.fromkeys(x for x in ends if x not in own))
                    larger.append((combo, edges, inner))

    n = sum(len(b["pos"]) for b in blocks) + len(larger)
    # Fortran order: row-wise checks and sums read one contiguous column at a time.
    cols = dict(pos=np.full((n, k), -1, dtype=np.int64, order="F"),
                spokes=np.zeros((n, 4 if k >= 4 else 3), dtype=np.int64, order="F"),
                hub=np.full(n, -1, dtype=np.int64), hub2=np.full(n, -1, dtype=np.int64),
                far=np.zeros(n, dtype=np.int64), link=np.zeros(n, dtype=np.int64),
                loss=np.zeros(n, dtype=np.int64))
    at = 0
    for block in blocks:
        rows = slice(at, at + len(block["pos"]))
        for name, value in block.items():
            target = cols[name][rows]
            if value.ndim == 2:
                target = target[:, :value.shape[1]]
            target[...] = value
        at += len(block["pos"])
    del blocks, block, value  # the stacked block columns, before the sort and the checks
    interior = (cols["hub"] >= 0).astype(np.int64) + (cols["hub2"] >= 0)
    for j, (combo, _, inner) in enumerate(larger):
        cols["pos"][at + j, :len(combo)] = combo
        interior[at + j] = len(inner)

    # The budget caps r at 2000, so int16 keys, which numpy radix-sorts, keep the order.
    order = np.lexsort(cols["pos"].astype(np.int16).T[::-1])
    cols = {name: col.T.take(order, axis=-1).T for name, col in cols.items()}  # stays Fortran
    interior = interior[order]
    row_of = np.empty(n, dtype=np.int64)
    row_of[order] = np.arange(n)
    first_id = instance.vertex_count + 1 + np.cumsum(interior) - interior
    total = int(interior.sum())
    costs = cols["spokes"].sum(axis=1) + cols["link"]
    losses = cols["loss"]
    built: dict[int, FullComponent] = {}
    for j, (combo, edges, inner) in enumerate(larger):
        row = int(row_of[at + j])
        ids = {int(tidx[p]): terms[p] for p in combo}
        ids.update((x, int(first_id[row]) + i) for i, x in enumerate(inner))
        comp = FullComponent([terms[p] for p in combo],
                             [(ids[a], ids[b], int(D[a, b])) for a, b in edges],
                             {ids[x]: closure.vertices[x] for x in inner})
        built[row] = comp
        costs[row] = comp.cost
        losses[row] = comp.loss
    return CandidateTable(
        np.array(terms, dtype=np.int64), cols["pos"], costs, losses, cols["hub"],
        cols["spokes"], first_id, built, instance.vertex_count + total if total else 0,
        hub2=cols["hub2"], far=cols["far"], link=cols["link"],
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
    weights; phase 2 checks them against each contraction's cost drop, and
    the tests against a from-scratch zero-clique MST
    (tests/oracles.py: mst_with_zero_set)."""

    def __init__(self, candidates: Sequence[FullComponent]):
        table = (candidates if isinstance(candidates, CandidateTable)
                 else CandidateTable.from_components(candidates))
        self.table = table
        self.candidates = CandidateRows(table)
        self.costs = table.costs
        self.losses = table.losses
        self.max_steiner_id = table.max_steiner_id
        # For each terminal column i >= 1, the flat indices into an (r+1) x (r+1)
        # matrix of its pairs with columns j < i; padding reads the zero row r.
        r = len(table.terminal_ids)
        pos = np.where(table.pos < 0, r, table.pos)
        self._earlier = [pos[:, :i].T * (r + 1) + pos[:, i] for i in range(1, pos.shape[1])]

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, i: int) -> FullComponent:
        return self.table[i]

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
        # Path maxima between the pool's terminals, zero-padded, flattened.
        between = np.zeros((len(reps) + 1, len(reps) + 1), dtype=np.int64)
        between[:-1, :-1] = tree.bottleneck_matrix[reps[:, None], reps]
        between = between.ravel()
        earlier = self._earlier if rows is None else [flat[:, rows] for flat in self._earlier]
        return sum(between.take(flat).min(axis=0) for flat in earlier)
