"""Candidate components for the greedy phases.

A full component is a tree whose leaves are exactly its terminals; interior
nodes are private copies of graph vertices (fresh ids, each remembering the
vertex it came from). The loss of a component is the cheapest forest inside
it that hooks every interior node to some terminal; contracting the loss
yields the component's cheaper stand-in used while building the base tree.

Enumeration finds, for every terminal subset of size 2..k, the root of an
optimal tree over the metric closure, keeping only subsets whose own
terminals end up as leaves. It returns numpy columns (CandidateTable) of
terminals, costs and roots that the greedy phases score in batch. A row's
tree is rebuilt from its root only when a caller reads it: phase 1 reads
its active rows' losses, and a candidate becomes a FullComponent only when
a phase picks it, a displacement looks it up, or the restricted oracle
picks it, and then once, numbered by that caller's own id counter.
"""
from __future__ import annotations

import itertools
import math
import weakref
from collections.abc import Iterable, Iterator
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import (
    ContractedTree,
    Instance,
    MetricClosure,
    _work_dtype,
    connected_parts,
    edge_key,
    kruskal_indices,
    prune_leaves,
)
from .dreyfus_wagner import _SharedTables, check_dense_budget
from .errors import InternalInvariantError, KRestrictionError, LimitExceededError

Edge = tuple[int, int, int]


class FullComponent:
    """Immutable candidate tree. `steiner_origin` maps each private interior
    id back to the graph vertex it copies."""

    __slots__ = ("terminals", "steiner_ids", "steiner_origin", "edges", "cost",
                 "_loss_indices", "_contraction")

    def __init__(self, terminals: Iterable[int], edges: Iterable[Edge],
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
        if len(self.edges) != len(nodes) - 1 or len(connected_parts(nodes, self.edges)) != 1:
            raise InternalInvariantError("component edges do not form a tree")
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
    term_set = set(comp.terminals)
    rep: dict[int, int] = {}
    part_terms: list[list[int]] = []
    for part in connected_parts(nodes, [comp.edges[i] for i in forest]):
        terms = sorted(part & term_set)
        if not terms:
            raise InternalInvariantError("loss part without a terminal")
        rep.update(dict.fromkeys(part, terms[0]))
        part_terms.append(terms)
    out: list[ContractedEdge] = []
    for i, (u, v, w) in enumerate(comp.edges):
        if i in forest:
            continue
        ru, rv = rep[u], rep[v]
        if ru == rv:
            raise InternalInvariantError("non-loss edge inside a loss part")
        out.append(ContractedEdge(min(ru, rv), max(ru, rv), w, i))
    for r, *rest in sorted(part_terms):  # parts are disjoint: by representative
        for t in rest:
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


class CandidateTable:
    """Candidates as numpy columns, one row per terminal subset, ordered by
    sorted terminal tuple. A row is its terminals, its cost and its root;
    its tree is rebuilt only when a caller reads it (`build`).

    `pos` holds each row's terminals as positions into `terminal_ids`,
    padded with -1, and `size` their number, both int16: every pair is a
    subset, so CANDIDATE_BUDGET keeps enumeration at 2,000 terminals.
    `hub` holds each row's root as a closure column: the vertex a pair's
    one edge reaches (in enumeration, its last terminal) and the hub of a
    star's spokes. A table made with shared Dreyfus-Wagner tables
    (`tables`, kept alive with the table) roots its rows of four or more
    terminals at (`hub`, `split`): the hub its tree joins the last terminal
    at, and the local sub-mask chosen there. Weights and vertices are read
    from `closure`: its rows from the terminals (`closure.rows`) and the
    tables' distance matrix (`closure.dist`), and `closure.vertices` names
    the vertex each column stands for. `costs` is int64. Callers number the
    interior nodes of the rows they build from above `max_steiner_id`
    (vertex_count plus every row's interior node count, for enumeration).
    `rows_built` counts the rows `build` has read.
    """

    def __init__(self, terminal_ids: np.ndarray, pos: np.ndarray, costs: np.ndarray,
                 hub: np.ndarray, max_steiner_id: int, closure: MetricClosure,
                 tables: _SharedTables | None = None, split: np.ndarray | None = None):
        self.terminal_ids = terminal_ids
        self.pos = pos
        self.size = (pos >= 0).sum(axis=1, dtype=np.int16)
        self.costs = costs
        self.hub = hub
        self.split = split
        self.closure = closure
        self.tables = tables
        self.max_steiner_id = max_steiner_id
        self.rows_built = 0

    def __len__(self) -> int:
        return len(self.costs)

    @cached_property
    def vertices(self) -> np.ndarray:
        """The vertex each closure column stands for."""
        return np.asarray(self.closure.vertices, dtype=np.int64)

    def terminals(self, i: int) -> tuple[int, ...]:
        """Row i's terminal ids, in increasing order."""
        return tuple(self.terminal_ids[self.pos[i, :self.size[i]]].tolist())

    def build(self, rows: list[int] | np.ndarray) -> BuiltRows:
        """The trees of `rows` (row indices), the one reader of the roots: a
        pair's one edge, a star's spokes in position order, and a shared
        table's rows of four or more terminals through
        `_SharedTables.trees`, depth first. Ends are terminal ids or the
        vertices interior nodes copy, weights closure distances. Checks
        each row's cost against the weights read."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        self.rows_built += len(rows)
        size = self.size[rows]
        width = max(1, 2 * self.pos.shape[1] - 3)
        edges = np.zeros((3, width, len(rows)), dtype=np.int64)  # [end or weight, edge, row]
        at_term = np.zeros((2, width, len(rows)), dtype=bool)
        ends, weights = edges[:2], edges[2]
        by_size: dict[int, list[int]] = {}
        for j, m in enumerate(size.tolist()):
            by_size.setdefault(m, []).append(j)
        vertices = self.vertices
        # Pairs and spokes read the closure rows of the terminals they leave
        # from: position p's row is rows_of[index[p]]. (np.unique would
        # import numpy.ma, 1.6 MB of resident memory.)
        leaving = self.pos[rows[size < 4 if self.tables is not None else slice(None)]]
        index = np.zeros(len(self.terminal_ids), dtype=np.int64)
        index[leaving[leaving >= 0]] = 1
        read = np.flatnonzero(index)
        index[read] = np.arange(len(read))
        rows_of = self.closure.rows(self.terminal_ids[read].tolist()) if len(read) else None
        for m, j in by_size.items():
            at = rows[j]
            pos, hub = self.pos[at, :m].T.astype(np.int64), self.hub[at]
            if m >= 4 and self.tables is not None:
                tree = self.tables.trees(pos.T, hub.astype(np.int64), self.split[at])
                real, edge = tree[0] >= 0, slice(0, 2 * m - 3)
                ends[:, edge, j] = np.where(real, vertices[tree], 0)
                weights[edge, j] = np.where(real, self.tables.D[tree[0], tree[1]], 0)
                at_term[:, edge, j] = (tree[..., None] == self.tables.tidx[pos.T]).any(axis=-1)
            elif m == 2:  # one edge, to the vertex at the root
                ends[:, 0, j] = self.terminal_ids[pos]
                weights[0, j] = rows_of[index[pos[0]], hub]
                at_term[:, 0, j] = True
            else:  # spokes
                ends[0][:m, j] = self.terminal_ids[pos]
                ends[1][:m, j] = vertices[hub]
                weights[:m, j] = rows_of[index[pos], hub]
                at_term[0][:m, j] = True
        wrong = np.flatnonzero(weights.sum(axis=0) != self.costs[rows])
        if len(wrong):
            i = int(rows[wrong[0]])
            raise InternalInvariantError(
                f"candidate {i}: its tree weighs {int(weights[:, wrong[0]].sum())}, its cost"
                f" is {int(self.costs[i])}")
        return BuiltRows(self, rows, edges, tree_losses(edges, at_term, size))


class BuiltRows:
    """Trees of some rows of a table, as CandidateTable.build read them:
    `edges` as [end or weight, edge, row], zero-padded, and `losses`, one
    per row."""

    __slots__ = ("table", "rows", "edges", "losses")

    def __init__(self, table: CandidateTable, rows: np.ndarray, edges: np.ndarray,
                 losses: np.ndarray):
        self.table, self.rows, self.edges, self.losses = table, rows, edges, losses

    def component(self, j: int, first: int) -> tuple[FullComponent, int]:
        """The j-th row read as a FullComponent, its interior nodes numbered
        from `first` in order of first appearance, and the next free id.
        The component's cost and loss are checked against the table's cost
        and the loss read."""
        t, i = self.table, int(self.rows[j])
        terms = t.terminals(i)
        edges = [e for e in self.edges[:, :, j].T.tolist() if e[0]]
        ids = {t: t for t in terms}
        origin: dict[int, int] = {}
        for x in (x for u, v, _ in edges for x in (u, v)):
            if x not in ids:
                ids[x] = first + len(origin)
                origin[ids[x]] = x
        comp = FullComponent(terms, [(ids[u], ids[v], w) for u, v, w in edges], origin)
        if (comp.cost, comp.loss) != (t.costs[i], self.losses[j]):
            raise InternalInvariantError(f"candidate {i} disagrees with its columns")
        return comp, first + len(origin)


def tree_losses(edges: np.ndarray, at_term: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Loss of each row's tree, given as [end or weight, edge, row] with the
    ends that are its terminals (`at_term`, [end, edge, row]): the MST of
    its edges with its terminals merged into one node, grown by Prim from
    that node on every row at once, one interior node per step, so no
    row's edges need sorting. The padding counts as grown."""
    ends, weights = edges[:2], edges[2]
    grown = at_term | (ends == 0)
    losses = np.zeros(weights.shape[1], dtype=np.int64)
    interior = (ends[0] != 0).sum(axis=0, dtype=np.int16) + 1 - size  # nodes - edges = 1
    # Read as unsigned, the sentinel -1 exceeds every nonnegative weight,
    # so a minimum is a crossing edge.
    for left in range(int(interior.max(initial=0)), 0, -1):
        cand = np.where(grown[0] != grown[1], weights, -1).view(np.uint64)
        step = cand.min(axis=0).view(np.int64)
        reached = step >= 0  # the rows with an interior node left
        np.add(losses, step, out=losses, where=reached)
        if left > 1:
            j = cand.argmin(axis=0)[None]
            u, v = (np.take_along_axis(end, j, axis=0)[0] for end in ends)
            new = np.where(np.take_along_axis(grown[0], j, axis=0)[0], v, u)
            grown |= (ends == new) & reached
    return losses


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
    """Candidates for every terminal subset of size 2..k: the root of an
    optimal closure tree per subset, kept only when the subset's own
    terminals are leaves, which is decided without the tree
    (_SharedTables.leaves at four or more terminals). Ordered
    lexicographically by terminal tuple; `max_steiner_id` is vertex_count
    plus the kept rows' interior node count. Subsets of 4 or more terminals
    share Dreyfus-Wagner tables (_SharedTables), which the table keeps for
    reading its rows. Raises LimitExceededError when there are more than
    CANDIDATE_BUDGET subsets, or when the tables would exceed DENSE_BUDGET,
    before any closure row is computed.
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
    nv = len(closure.vertices)
    if k >= 4:
        # The budget before any closure row is computed; the terminals' rows
        # are then read from the matrix, so every row comes in one batch.
        check_dense_budget(nv, r, k - 2, "use a smaller k")
        rows_of = closure.dist[tidx]
    else:
        rows_of = closure.rows(terms)  # closure distances from each terminal

    # Blocks of (positions, hub columns, splits, costs); `interior` counts
    # their interior nodes. Pairs: one closure edge each, to the last terminal.
    pairs = np.column_stack(np.triu_indices(r, 1))
    ends = tidx[pairs[:, 1]]
    blocks = [(pairs, ends, 0, rows_of[pairs[:, 0], ends])]
    interior = 0
    if k >= 3:
        triples, hubs = _three_stars(rows_of, tidx)
        costs = sum(rows_of.take(triples[:, j].astype(np.int64) * nv + hubs) for j in range(3))
        blocks.append((triples, hubs, 0, costs))
        interior += len(triples)
    tables = None
    if k >= 4:
        tables = _SharedTables(closure.dist, tidx, k - 2)
        for m in range(4, k + 1):
            for subset, hub, cost, split, parts in tables.last_masks(m):
                full, inner = tables.leaves(subset, hub, split, parts)
                # Kept in the table's dtypes: DENSE_BUDGET keeps hubs in int32.
                blocks.append((subset[full].astype(np.int16), hub[full].astype(np.int32),
                               split[full], cost[full]))
                interior += int(inner[full].sum(dtype=np.int64))

    n = sum(len(block[0]) for block in blocks)
    # Fortran order: the sort permutes one contiguous position column at a time.
    pos = np.full((n, k), -1, dtype=np.int16, order="F")
    hub = np.empty(n, dtype=_work_dtype(np.array([nv]), 1))
    split = np.zeros(n, dtype=np.int32) if tables is not None else None
    costs = np.empty(n, dtype=np.int64)
    at = 0
    for p, *cols in blocks:
        rows = slice(at, at + len(p))
        pos[rows, :p.shape[1]] = p
        hub[rows], splits, costs[rows] = cols
        if split is not None:
            split[rows] = splits
        at += len(p)
    del blocks, p, cols  # the block columns, before the sort

    # numpy radix-sorts the int16 keys.
    order = np.lexsort(pos.T[::-1])
    for plane in (*pos.T, hub, costs, *([] if split is None else [split])):
        plane[:] = plane[order]  # in place, one plane at a time
    return CandidateTable(np.array(terms, dtype=np.int64), pos, costs, hub,
                          instance.vertex_count + interior, closure, tables, split)


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
    """Scoring index over a CandidateTable, `pool.table`. Savings are
    evaluated as MSTs under the tree's path-bottleneck weights; phase 2
    checks them against each contraction's cost drop, and the tests against
    a from-scratch zero-clique MST (tests/oracles.py: mst_with_zero_set)."""

    def __init__(self, table: CandidateTable):
        self.table = table
        self.costs = table.costs
        # For each terminal column i >= 1, the flat indices into an (r+1) x (r+1)
        # matrix of its pairs with columns j < i; padding reads the zero row r.
        # Each array is allocated once and filled a column at a time, from
        # positions widened before * (r + 1): int16 would wrap there.
        r = len(table.terminal_ids)

        def column(j: int) -> np.ndarray:
            at = table.pos[:, j].astype(np.int64)
            at[at < 0] = r
            return at

        # Each scored tree's padded path-maximum block, kept while the tree lives.
        self._between: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
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
        return map(next, map(by_size.get, t.size.tolist()))

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
        between = self._between.get(tree)
        if between is None:
            reps = tree.rep_rows(self.table.terminal_ids.tolist())
            block = tree.bottleneck_matrix.take(reps, axis=0).take(reps, axis=1)
            # Path maxima between the pool's terminals, zero-padded, flattened.
            # A saving sums one entry per column after the first. The bound
            # is the gathered block's, not the pool's: any tree may be
            # scored, and assigning a larger value into int32 would wrap.
            between = np.zeros((len(reps) + 1, len(reps) + 1),
                               dtype=_work_dtype(block, len(self._earlier)))
            between[:-1, :-1] = block
            between = self._between[tree] = between.ravel()
        # take(axis=1) gathers the columns about six times faster than flat[:, rows].
        earlier = (self._earlier if rows is None
                   else [flat.take(rows, axis=1) for flat in self._earlier])
        return sum(between.take(flat).min(axis=0) for flat in earlier).astype(np.int64, copy=False)
