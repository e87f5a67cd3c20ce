"""Weighted-graph primitives: instances, metric closure, spanning trees,
and trees with contracted (zero-distance) node groups.

All weights are exact nonnegative integers. Rational inputs are scaled to a
common denominator once, at Instance construction, and every quantity the
solver compares afterwards is an integer. Ties are broken everywhere by the
same global edge order: (weight, smaller endpoint, larger endpoint), then
construction order for exact duplicates.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DisconnectedInputError,
    DisconnectedTerminalsError,
    InternalInvariantError,
    InvalidInstanceError,
    UnknownNodeError,
)

Edge = tuple[int, int, int]

# Instance.build rejects instances whose scaled weights sum to this or more.
# Every shortest-path distance, and so every bottleneck weight and
# Dreyfus-Wagner table entry, is then below 2**59. A terminal MST costs at
# most twice an optimal Steiner tree, which costs at most the weight sum, so
# every tree the phases contract costs below 2**60. The widest int64
# expressions stay below 2**63: each partial sum in
# CandidatePool.savings_for is at most the saving, which is at most the
# tree's cost (< 2**60), and the widest sum in the shared Dreyfus-Wagner
# tables, W[part] + W[rest] + D (components._SharedTables), is below
# 3 * 2**59.
WEIGHT_LIMIT = 2**59

# Instance.build rejects vertex counts above this. Interior node ids are
# numbered in int64 columns from vertex_count + 1, and the candidate budget
# keeps their number far below 2**62, so they stay below 2**63.
VERTEX_LIMIT = 2**62


def edge_key(u: int, v: int, w: int) -> tuple[int, int, int]:
    """Global deterministic edge order used by every MST in the package."""
    return (w, u, v) if u <= v else (w, v, u)


class UnionFind:
    __slots__ = ("parent", "rank", "groups")

    def __init__(self, items: Iterable[int]):
        self.parent = {x: x for x in items}
        self.rank = {x: 0 for x in self.parent}
        self.groups = len(self.parent)

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        self.groups -= 1
        return True


# ---------------------------------------------------------------------------
# Instances


@dataclass(frozen=True)
class Instance:
    """An undirected graph with terminals. Weights are scaled integers;
    `scale` is the common denominator they were multiplied by, so the
    original weight of edge (u, v, w) is Fraction(w, scale).
    """

    vertex_count: int
    edges: tuple[Edge, ...]
    terminals: frozenset[int]
    name: str = ""
    scale: int = 1

    @classmethod
    def build(
        cls,
        vertex_count: int,
        edges: Sequence[tuple[int, int, object]],
        terminals: Iterable[int],
        name: str = "",
    ) -> "Instance":
        """Validate and normalize. Weights may be int, Fraction, Decimal, or
        numeric strings; floats are rejected to keep arithmetic exact.
        """
        if vertex_count < 1:
            raise InvalidInstanceError("vertex count must be positive")
        if vertex_count > VERTEX_LIMIT:
            raise InvalidInstanceError(
                f"vertex count {vertex_count} exceeds the limit of 2**62"
            )
        terms = frozenset(int(t) for t in terminals)
        if len(terms) < 2:
            raise InvalidInstanceError("need at least 2 terminals")
        fractions = []
        for u, v, w in edges:
            if isinstance(w, float):
                raise InvalidInstanceError(
                    f"edge ({u},{v}) has float weight {w!r}; pass str or Fraction"
                )
            fw = Fraction(w)
            if fw < 0:
                raise InvalidInstanceError(f"edge ({u},{v}) has negative weight {w}")
            if u == v:
                raise InvalidInstanceError(f"self loop at vertex {u}")
            for x in (u, v):
                if not 1 <= x <= vertex_count:
                    raise InvalidInstanceError(f"edge endpoint {x} out of range")
            fractions.append(fw)
        for t in terms:
            if not 1 <= t <= vertex_count:
                raise InvalidInstanceError(f"terminal {t} out of range")
        scale = math.lcm(*(fw.denominator for fw in fractions))
        scaled = tuple(
            (int(u), int(v), int(fw * scale))
            for (u, v, _), fw in zip(edges, fractions)
        )
        if sum(w for _, _, w in scaled) >= WEIGHT_LIMIT:
            raise InvalidInstanceError(
                f"scaled weights (scale {scale}) sum to 2**59 or more; "
                "exact int64 arithmetic needs a smaller total"
            )
        inst = cls(vertex_count, scaled, terms, name, scale)
        inst.terminal_component  # terminal connectivity is part of validity
        return inst

    @cached_property
    def edge_weights(self) -> dict[tuple[int, int], int]:
        """Minimum weight per vertex pair, keyed (smaller, larger), so
        parallel edges collapse to their lightest."""
        best: dict[tuple[int, int], int] = {}
        for u, v, w in self.edges:
            key = (u, v) if u < v else (v, u)
            if key not in best or w < best[key]:
                best[key] = w
        return best

    @cached_property
    def adjacency(self) -> dict[int, list[tuple[int, int]]]:
        """Neighbor lists (vertex, weight), sorted, over `edge_weights`.
        Keyed by the terminals and the edge endpoints only, so its size
        follows the edges, not vertex_count."""
        adj: dict[int, list[tuple[int, int]]] = {t: [] for t in self.terminals}
        for (a, b), w in sorted(self.edge_weights.items()):
            adj.setdefault(a, []).append((b, w))
            adj.setdefault(b, []).append((a, w))
        return adj

    @cached_property
    def terminal_component(self) -> frozenset[int]:
        """Vertices reachable from the smallest terminal. Raises
        DisconnectedTerminalsError unless every terminal is among them."""
        adj = self.adjacency
        start = min(self.terminals)
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y, _ in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        missing = self.terminals - seen
        if missing:
            raise DisconnectedTerminalsError(
                f"terminals {sorted(missing)} unreachable from terminal {start}"
            )
        return frozenset(seen)

    def display_cost(self, cost: int) -> str:
        return format_cost(cost, self.scale)


def format_cost(cost: int, scale: int) -> str:
    """Exact human-readable rendering of a scaled integer cost."""
    f = Fraction(cost, scale)
    if f.denominator == 1:
        return str(f.numerator)
    den = f.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:
        digits = max(twos, fives)
        scaled = f.numerator * 10**digits // f.denominator
        text = f"{scaled:0{digits + 1}d}"
        return f"{text[:-digits]}.{text[-digits:]}"
    return f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# Metric closure


# S closure rows over V vertices and E edges are S * (V + 2E) units of
# work; Dijkstra spends 0.11-0.20 us on a unit (timeit, best of 5, on a
# shared 2-core x86-64 host). The batch adds a fixed cost of about 0.15 ms
# plus 20-30 us of numpy calls per round, which it wins back only on
# enough work: on random graphs of 20-50 vertices it took 1.27x Dijkstra's
# time at 2,760 units, 1.01x at 4,176, 0.98x at 5,560 and 0.84x at 6,240.
# Smaller batches run Dijkstra per row. That covers every batch of the
# small oracle corpus (at most 1,248 units), while the 20 terminal rows of
# a 60-vertex k=4 instance (8,360 units) batch in 0.7 ms against 1.1 ms.
BATCH_MIN_WORK = 5_000

# A batch may take one round per ROUND_WORK units of its work. A round
# costs at least about 25 us, what Dijkstra spends on some 200 units, so a
# batch out of rounds has cost about as much as Dijkstra on its rows, which
# then rerun by Dijkstra: hop-deep graphs (a long path needs a round per
# hop) pay at most about twice Dijkstra's time. The benchmark shapes need
# at most 1.9 rounds per 1,000 units (60-vertex random graphs), against
# the 5 the budget allows.
ROUND_WORK = 200

# Rows beyond BATCH_MAX_WORK units are computed in several batches. Larger
# batches are slower, as each round's arrays outgrow the caches: all 3,600
# rows of a 60 x 60 grid (17,760 units a row) took 2.8-3.1 s in batches of
# 2**20 units against 5.2 s in one batch, whose round arrays peaked at
# 62 MiB beside the 99 MiB matrix (2 MiB in batches).
BATCH_MAX_WORK = 2**20


def _distinct(flat: np.ndarray, at: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The positions `at`, each once: every entry writes its own index into
    `flat` at its position, as -1 - index, and the entries that read their
    index back are kept. `values` (equal for repeats) are then written
    there, so `flat` ends as if assigned `values` at `at`."""
    mark = -1 - np.arange(len(at))
    flat[at] = mark
    keep = at[flat[at] == mark]
    flat[at] = values
    return keep


class MetricClosure:
    """Shortest paths over the component containing the terminals, computed
    on demand and kept.

    Vertices outside that component are excluded; `vertices` are its sorted
    ids and `index` maps a vertex id to its column. The first read that
    needs rows not yet computed (`distance`, `rows`, `block`, `dist`,
    `predecessors`, `path_edges` or `expand`) computes all of them at once:
    one batched Δ-stepping over the sources when every weight is positive
    and the batch is large enough to pay (`_delta_stepping`), else one
    Dijkstra per source. Distances are unique, and predecessors follow
    Dijkstra's tie rule either way, so every row is the same whichever path
    computed it and whichever order the rows are asked for in.
    `rows_computed` counts the rows computed. `dist`, the full int64
    matrix, computes every row that is still missing.
    """

    def __init__(self, vertices: Sequence[int], adjacency: Sequence[Sequence[tuple[int, int]]],
                 edge_weight: Mapping[tuple[int, int], int]):
        self.vertices = tuple(vertices)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self._adj = adjacency  # per column: (neighbor column, weight), sorted
        self._edge_weight = edge_weight
        self._work = len(self.vertices) + sum(map(len, adjacency))  # V + 2E per row
        self._dist: dict[int, np.ndarray] = {}
        self._pred: dict[int, np.ndarray] = {}
        self._runs = 0

    @property
    def rows_computed(self) -> int:
        """Number of rows computed so far, by either path."""
        return self._runs

    def _column(self, u: int) -> int:
        try:
            return self.index[u]
        except KeyError:
            raise UnknownNodeError(f"vertex {u} not in closure") from None

    @cached_property
    def _arcs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """The adjacency as CSR arrays (row starts, neighbor columns,
        weights), or None when a weight is 0: a zero-weight edge breaks the
        pop-order argument of the predecessor rule, so such a closure
        computes every row by Dijkstra."""
        flat = np.array([x for nbrs in self._adj for x in nbrs], dtype=np.int64).reshape(-1, 2)
        if flat[:, 1].min() == 0:
            return None
        start = np.zeros(len(self._adj) + 1, dtype=np.int64)
        np.cumsum([len(nbrs) for nbrs in self._adj], out=start[1:])
        return start, flat[:, 0].copy(), flat[:, 1].copy()

    def _dijkstra(self, si: int) -> tuple[list[int], list[int]]:
        """Distances and predecessors from column `si`."""
        adj = self._adj
        n = len(adj)
        dist = [WEIGHT_LIMIT] * n  # every real distance is below it
        pred = [-1] * n
        dist[si] = 0
        # An entry (d, v) is the int d * n + v, which pops in (d, v) order.
        heap, pop, push = [si], heapq.heappop, heapq.heappush
        while heap:
            key = pop(heap)
            du = key // n
            u = key - du * n
            if du > dist[u]:
                continue  # a stale entry; u was settled at dist[u]
            for v, w in adj[u]:
                nd = du + w
                if nd < dist[v]:
                    dist[v] = nd
                    pred[v] = u
                    push(heap, nd * n + v)
        return dist, pred

    def _delta_stepping(self, out: np.ndarray, slots: np.ndarray, sources: np.ndarray) -> bool:
        """Distances from each of `sources` into row `slots[i]` of `out`, all
        at once: Δ-stepping (Meyer & Sanders 2003) with Δ the largest edge
        weight, over the disjoint union of one graph copy per source. An
        entry is a flat position row * V + column of `out`. Bucket b holds
        the entries with distance in [bΔ, (b + 1)Δ); relaxing one reaches
        only buckets b and b + 1, so two lists of pending entries suffice.
        Each round relaxes every pending entry of the current bucket. False
        when the rounds exceed the budget (`ROUND_WORK`), the rows then
        being partial."""
        start, head, weight = self._arcs
        n = len(start) - 1
        flat = out.reshape(-1)  # a view: out is C-contiguous
        out[slots] = WEIGHT_LIMIT
        cur = slots * n + sources
        flat[cur] = 0
        delta = int(weight.max())
        top, later, budget = delta, [], len(sources) * self._work // ROUND_WORK
        while True:
            while len(cur):
                budget -= 1
                if budget < 0:
                    return False
                col = cur % n
                first, degree = start[col], start[col + 1] - start[col]
                ends = np.cumsum(degree)
                arc = np.arange(ends[-1]) + np.repeat(first - ends + degree, degree)
                to = np.repeat(cur - col, degree) + head[arc]
                d = np.repeat(flat[cur], degree) + weight[arc]
                better = d < flat[to]
                to, d = to[better], d[better]
                np.minimum.at(flat, to, d)
                won = d == flat[to]
                cur = _distinct(flat, to[won], d[won])
                low = flat[cur] < top
                later.append(cur[~low])
                cur = cur[low]
            if not later:
                return True
            # Entries lowered below `top` since they were put off were relaxed then.
            pending = np.concatenate(later)
            later, top = [], top + delta
            d = flat[pending]
            keep = d >= top - delta
            cur = _distinct(flat, pending[keep], d[keep])

    @cached_property
    def _incoming(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every arc (u, v, w) into column v, sorted by v, then heaviest
        first, then smallest u."""
        start, head, weight = self._arcs
        # Edges are undirected: the arcs out of column v are the arcs into it.
        v = np.repeat(np.arange(len(start) - 1), np.diff(start))
        order = np.lexsort((head, -weight, v))
        return head[order], v[order], weight[order]

    def _tight_predecessors(self, row: np.ndarray) -> np.ndarray:
        """Dijkstra's predecessors, from a distance row over positive
        weights. Dijkstra sets pred[v] to the first popped u with
        row[u] + w(u, v) == row[v], a tight neighbor. With positive weights
        every vertex at distance d is in the heap before any of them pops, so
        vertices pop in (distance, column) order and that u is the tight
        neighbor of smallest row[u] = row[v] - w, that is of largest w, ties
        going to the smallest column."""
        u, v, w = self._incoming
        tight = np.flatnonzero(row[u] + w == row[v])
        first = tight[np.diff(v[tight], prepend=-1) != 0]
        pred = np.full(len(row), -1, dtype=np.int32)
        pred[v[first]] = u[first]
        return pred

    def _compute(self, out: np.ndarray, slots: Sequence[int], sources: Sequence[int]) -> None:
        """Rows from the columns `sources` into rows `slots` of `out`, kept as
        views of it: batches of up to BATCH_MAX_WORK units when they pay,
        else Dijkstra per source, which also reruns a batch out of rounds."""
        step = max(1, BATCH_MAX_WORK // self._work)
        for at in range(0, len(sources), step):
            into, part = slots[at:at + step], sources[at:at + step]
            batched = (len(part) * self._work >= BATCH_MIN_WORK and self._arcs is not None
                       and self._delta_stepping(out, np.asarray(into), np.asarray(part)))
            for slot, si in zip(into, part):
                if not batched:
                    dist, pred = self._dijkstra(si)
                    out[slot] = dist
                    self._pred[si] = np.array(pred, dtype=np.int32)
                    self._pred[si].flags.writeable = False
                self._dist[si] = out[slot]
        self._runs += len(sources)

    def _row(self, si: int) -> np.ndarray:
        row = self._dist.get(si)
        return self._rows([si])[0] if row is None else row

    def _rows(self, columns: Sequence[int]) -> list[np.ndarray]:
        """Distance rows of `columns`; computes the missing ones together."""
        missing = list(dict.fromkeys(c for c in columns if c not in self._dist))
        self._compute(np.empty((len(missing), len(self._adj)), dtype=np.int64),
                      range(len(missing)), missing)
        return [self._dist[c] for c in columns]

    def rows(self, nodes: Iterable[int]) -> np.ndarray:
        """Distances from each of `nodes` (rows) to every closure vertex
        (columns, in `vertices` order)."""
        return np.stack(self._rows([self._column(u) for u in nodes]))

    def block(self, nodes: Sequence[int]) -> np.ndarray:
        """Distances between `nodes`, rows and columns in the given order."""
        return self.rows(nodes)[:, [self.index[u] for u in nodes]]

    def predecessors(self, u: int) -> np.ndarray:
        """Column of the vertex before each vertex on its shortest path
        from `u`; -1 at `u`."""
        si = self._column(u)
        row = self._row(si)
        pred = self._pred.get(si)
        if pred is None:
            pred = self._pred[si] = self._tight_predecessors(row)
            pred.flags.writeable = False
        return pred

    @cached_property
    def dist(self) -> np.ndarray:
        """All-pairs distances. Rows computed earlier move into the matrix,
        so no second copy of them stays behind; the missing rows are
        computed straight into it."""
        n = len(self.vertices)
        full = np.empty((n, n), dtype=np.int64)
        for i, row in self._dist.items():
            full[i] = row
        missing = [i for i in range(n) if i not in self._dist]
        self._compute(full, missing, missing)
        for i in range(n):
            self._dist[i] = full[i]
        full.flags.writeable = False
        return full

    def distance(self, u: int, v: int) -> int:
        return int(self._row(self._column(u))[self._column(v)])

    def path_edges(self, u: int, v: int) -> list[Edge]:
        """Original-graph edges of one shortest u-v path (deterministic)."""
        pred = self.predecessors(u)
        iu, cur = self.index[u], self._column(v)
        out: list[Edge] = []
        while cur != iu:
            prev = int(pred[cur])
            a, b = self.vertices[prev], self.vertices[cur]
            key = (a, b) if a < b else (b, a)
            out.append((key[0], key[1], self._edge_weight[key]))
            cur = prev
        out.reverse()
        return out

    def expand(self, pairs: Iterable[tuple[int, int]], terminals: Sequence[int]) -> Tree:
        """Tree over original edges: one shortest path per (u, v) pair,
        their union reduced by pruned_mst."""
        assembled: dict[tuple[int, int], int] = {}
        for u, v in pairs:
            for a, b, w in self.path_edges(u, v):
                assembled[(a, b)] = w
        edges = [(a, b, w) for (a, b), w in sorted(assembled.items())]
        return pruned_mst(edges, terminals)[1]


def metric_closure(instance: Instance) -> MetricClosure:
    """Closure over the terminal component, exact integer distances. Reads
    the component only (which raises when a terminal lies outside it); rows
    are computed when first read."""
    adj = instance.adjacency
    vertices = sorted(instance.terminal_component)
    index = {v: i for i, v in enumerate(vertices)}
    columns = [[(index[v], w) for v, w in adj[u]] for u in vertices]
    return MetricClosure(vertices, columns, instance.edge_weights)


# ---------------------------------------------------------------------------
# Trees


@dataclass(frozen=True)
class Tree:
    """An undirected tree. `nodes` includes isolated context only when the
    tree is a single vertex; otherwise it is exactly the edge endpoints."""

    nodes: frozenset[int]
    edges: tuple[Edge, ...]
    total_cost: int

    @classmethod
    def from_edges(cls, edges: Sequence[Edge], nodes: Iterable[int] | None = None) -> "Tree":
        node_set = set(nodes) if nodes is not None else set()
        for u, v, _ in edges:
            node_set.add(u)
            node_set.add(v)
        if not node_set:
            raise InvalidInstanceError("empty tree")
        if len(edges) != len(node_set) - 1:
            raise InvalidInstanceError(
                f"{len(edges)} edges cannot form a tree on {len(node_set)} nodes"
            )
        uf = UnionFind(node_set)
        for u, v, _ in edges:
            if not uf.union(u, v):
                raise InvalidInstanceError(f"cycle through edge ({u},{v})")
        return cls(frozenset(node_set), tuple(edges), sum(w for _, _, w in edges))


def kruskal_indices(
    nodes: Iterable[int],
    edges: Sequence[Sequence[int]],
    merged_groups: Iterable[Iterable[int]] = (),
) -> list[int]:
    """Indices, increasing, of the edges an MST keeps, over a multigraph
    given as (u, v, w, ...) rows or an (edges x 3) int64 array; the
    package's one Kruskal. Edges go in
    `edge_key` order, by one stable lexsort, so exact duplicates keep input
    order; self-loops are skipped. `merged_groups` are node sets treated as
    already connected (zero-cost cliques). Raises if the result does not
    connect all nodes.
    """
    uf = UnionFind(nodes)
    for group in merged_groups:
        members = list(group)
        for other in members[1:]:
            uf.union(members[0], other)
    if not isinstance(edges, np.ndarray):
        edges = np.array([e[:3] for e in edges], dtype=np.int64)
    u, v, w = edges.reshape(-1, 3).T
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((hi, lo, w))
    kept = []
    for i, a, b in zip(order.tolist(), lo[order].tolist(), hi[order].tolist()):
        if uf.groups == 1:
            break
        if a != b and uf.union(a, b):
            kept.append(i)
    if uf.groups != 1:
        raise DisconnectedInputError("edge set does not connect the node set")
    kept.sort()
    return kept


def minimum_spanning_tree(nodes: Iterable[int],
                          weights: Callable[[int, int], int] | np.ndarray) -> Tree:
    """MST of the complete graph on the sorted distinct `nodes`. `weights`
    is a symmetric weight oracle, or the matrix of weights between the
    sorted nodes (as `MetricClosure.block` gives it). Under the strict
    `edge_key` order the MST is unique."""
    node_list = sorted(set(nodes))
    if not node_list:
        raise InvalidInstanceError("empty node set")
    first, second = np.triu_indices(len(node_list), 1)
    if callable(weights):
        w = np.array([weights(node_list[i], node_list[j])
                      for i, j in zip(first.tolist(), second.tolist())], dtype=np.int64)
    else:
        w = np.asarray(weights, dtype=np.int64)[first, second]
    ids = np.array(node_list, dtype=np.int64)
    pairs = np.column_stack((ids[first], ids[second], w))
    kept = pairs[kruskal_indices(node_list, pairs)].tolist()
    return Tree.from_edges(list(map(tuple, kept)), node_list)


def pruned_mst(edges: Sequence[Edge], terminals: Sequence[int]) -> tuple[int, Tree]:
    """MST of the multigraph `edges` over their endpoints and `terminals`,
    then non-terminal leaves pruned away: (MST cost before pruning, tree)."""
    nodes = {x for e in edges for x in e[:2]} | set(terminals)
    kept = [edges[i] for i in kruskal_indices(nodes, edges)]
    return sum(w for _, _, w in kept), Tree.from_edges(prune_leaves(kept, terminals), terminals)


def prune_leaves(edges: Sequence[Edge], keep: Iterable[int]) -> list[Edge]:
    """Iteratively drop degree-1 nodes not in `keep`, with their edges."""
    keep_set = set(keep)
    current = list(edges)
    while True:
        degree: dict[int, int] = {}
        for u, v, _ in current:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        doomed = {x for x, d in degree.items() if d == 1 and x not in keep_set}
        if not doomed:
            return current
        current = [e for e in current if e[0] not in doomed and e[1] not in doomed]


# ---------------------------------------------------------------------------
# Trees with contracted node groups


class ContractedTree:
    """A tree over representative nodes, remembering which original nodes
    each representative stands for. Contracting a node set means treating
    it as mutually zero-distance: the MST then drops the heaviest edge of
    every cycle the merge closes.

    Instances are treated as immutable; contraction returns a new object.
    """

    def __init__(self, rep_of: Mapping[int, int], edges: Sequence[Edge]):
        self.rep_of = dict(rep_of)
        self.edges = tuple(edges)
        self.cost = sum(w for _, _, w in self.edges)
        reps = sorted(set(self.rep_of.values()))
        self.reps = tuple(reps)
        self.rep_index = {r: i for i, r in enumerate(reps)}
        self._bottleneck: np.ndarray | None = None

    @classmethod
    def from_tree(cls, tree: Tree) -> "ContractedTree":
        return cls({x: x for x in tree.nodes}, tree.edges)

    @property
    def bottleneck_matrix(self) -> np.ndarray:
        """Dense path-maximum weights between representatives (int64).
        Filled in one breadth-first pass: every node seen before x is
        reached through x's parent p, so x's row over them is p's row raised
        to the weight of edge (p, x), one slice per node, mirrored into the
        column."""
        if self._bottleneck is not None:
            return self._bottleneck
        n = len(self.reps)
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for u, v, w in self.edges:
            a, b = self.rep_index[u], self.rep_index[v]
            adj[a].append((b, w))
            adj[b].append((a, w))
        seen_at = [0] + [-1] * (n - 1)  # breadth-first position of each node
        order, up = [0], [(0, 0)]       # nodes, and (parent position, weight)
        for x in order:
            for y, w in adj[x]:
                if seen_at[y] < 0:
                    seen_at[y] = len(order)
                    order.append(y)
                    up.append((seen_at[x], w))
        if len(order) != n or len(self.edges) != n - 1:
            raise InternalInvariantError(
                f"{len(self.edges)} edges are not a spanning tree of {n} representatives")
        mat = np.zeros((n, n), dtype=np.int64)
        for k in range(1, n):
            p, w = up[k]
            mat[k, :k] = mat[:k, k] = np.maximum(mat[p, :k], w)
        self._bottleneck = mat[np.ix_(seen_at, seen_at)]
        return self._bottleneck

    def rep_rows(self, nodes: Iterable[int]) -> np.ndarray:
        """Representative row index of each node id."""
        try:
            return np.array([self.rep_index[self.rep_of[x]] for x in nodes], dtype=np.int64)
        except KeyError as exc:
            raise UnknownNodeError(f"node {exc.args[0]} not in contracted tree") from None

    def _group_reps(self, group: Iterable[int]) -> set[int]:
        """Representatives of the nodes in `group`."""
        reps = set()
        for node in group:
            rep = self.rep_of.get(node)
            if rep is None:
                raise UnknownNodeError(f"node {node} not in contracted tree")
            reps.add(rep)
        return reps

    def contract_zero_set(self, group: Iterable[int]) -> "ContractedTree":
        """Merge the groups touched by `group` and re-run the MST over the
        surviving edges. The merged representative is the smallest member.
        A built bottleneck matrix is carried over exactly: through the zero-cost
        group, b' = min(b, max(near_x, near_z)), near being the bottleneck to it."""
        group_reps = self._group_reps(group)
        if len(group_reps) <= 1:
            return self
        merged_members = [n for n, r in self.rep_of.items() if r in group_reps]
        new_rep = min(merged_members)
        remap = {r: (new_rep if r in group_reps else r) for r in self.reps}
        new_rep_of = {n: remap[r] for n, r in self.rep_of.items()}
        mapped = [(remap[u], remap[v], w) for u, v, w in self.edges]
        kept = kruskal_indices(sorted(set(remap.values())), mapped)
        tree = ContractedTree(new_rep_of, [mapped[i] for i in kept])
        if self._bottleneck is not None:
            rows = [self.rep_index[r] for r in group_reps]
            keep = [rows[0] if r == new_rep else self.rep_index[r] for r in tree.reps]
            near = self._bottleneck[rows].min(axis=0)[keep]
            tree._bottleneck = np.minimum(self._bottleneck[np.ix_(keep, keep)],
                                          np.maximum(near[:, None], near))
        return tree
