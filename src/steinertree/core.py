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
import itertools
import logging
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import dreyfus_wagner
from .errors import (
    DisconnectedInputError,
    DisconnectedTerminalsError,
    InternalInvariantError,
    InvalidInstanceError,
    UnknownNodeError,
)

Edge = tuple[int, int, int]

log = logging.getLogger(__name__)

# Instance.build rejects instances whose scaled weights sum to this or more.
# Every shortest-path distance, and so every bottleneck weight and
# Dreyfus-Wagner table entry, is then below 2**59. A terminal MST costs at
# most twice an optimal Steiner tree, which costs at most the weight sum, so
# every tree the phases contract costs below 2**60. The widest int64
# expressions stay below 2**63: each partial sum in
# CandidatePool.savings_for is at most the saving, which is at most the
# tree's cost (< 2**60), and the widest sum in the shared Dreyfus-Wagner
# tables, W[part] + W[rest] + D (dreyfus_wagner._SharedTables), is below
# 3 * 2**59.
WEIGHT_LIMIT = 2**59

# Instance.build rejects vertex counts above this. Interior node ids are
# numbered in int64 columns from vertex_count + 1, and the candidate budget
# keeps their number far below 2**62, so they stay below 2**63.
VERTEX_LIMIT = 2**62


def _vertex_id(x: object, what: str) -> int:
    """x as an int, from any integer type; anything else is rejected, not truncated."""
    try:
        return operator.index(x)
    except TypeError:
        raise InvalidInstanceError(f"{what} {x!r} is not an integer") from None


def _work_dtype(values: np.ndarray, terms: int) -> type:
    """int32 when a sum of `terms` of the nonnegative `values` stays below
    2**31, so that int32 arithmetic on them is exact, else int64. A kernel
    that forms nothing larger than such a sum runs the same lines in either
    dtype, and its results match an int64 run's bit for bit."""
    return np.int32 if terms * int(values.max(initial=0)) < 2**31 else np.int64


def edge_key(u: int, v: int, w: int) -> tuple[int, int, int]:
    """Global deterministic edge order used by every MST in the package."""
    return (w, u, v) if u <= v else (w, v, u)


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
        The vertex count, endpoints and terminals must be integers of any
        integer type.
        """
        vertex_count = _vertex_id(vertex_count, "vertex count")
        if vertex_count < 1:
            raise InvalidInstanceError("vertex count must be positive")
        if vertex_count > VERTEX_LIMIT:
            raise InvalidInstanceError(
                f"vertex count {vertex_count} exceeds the limit of 2**62"
            )
        terms = frozenset(_vertex_id(t, "terminal") for t in terminals)
        if len(terms) < 2:
            raise InvalidInstanceError("need at least 2 terminals")
        ends, fractions = [], []
        for u, v, w in edges:
            u, v = _vertex_id(u, "edge endpoint"), _vertex_id(v, "edge endpoint")
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
            ends.append((u, v))
            fractions.append(fw)
        for t in terms:
            if not 1 <= t <= vertex_count:
                raise InvalidInstanceError(f"terminal {t} out of range")
        scale = math.lcm(*(fw.denominator for fw in fractions))
        if scale >= WEIGHT_LIMIT:  # given by bit length: it may have too many digits to print
            raise InvalidInstanceError(f"the weights' common denominator has {scale.bit_length()}"
                                       " bits, 2**59 or more; exact int64 arithmetic needs less")
        scaled = tuple((u, v, int(fw * scale)) for (u, v), fw in zip(ends, fractions))
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
# work. Three paths compute them; timeit, best of 5-7, on a shared 2-core
# x86-64 host:
# - Dijkstra, one row at a time, spends 0.11-0.20 us on a unit.
# - The Δ-stepping batch takes about BATCH_FIXED_NS plus BATCH_UNIT_NS a
#   unit: 1.17 ms for the 60 rows of a 60-vertex k=4 instance (25,080
#   units), 2.9 ms for the 80 terminal rows of family(80) (65,440), 7.5 ms
#   for the 31 of a 30 x 30 grid (135,780), 12.8 ms at 266,240.
# - The dense pass computes all V rows at once in about V * (DENSE_PIVOT_NS
#   + DENSE_ENTRY_NS * V^2) in int64, an entry half that in int32: 0.36-0.44,
#   2.4-3.1, 16.5-18 and 98-105 ms at V = 60, 120, 240 and 400 in int64
#   (family(40/80/160/267, 1)), 0.30, 1.3-1.5, 8.3-9.5 and 38-42 in int32.
# Below BATCH_MIN_WORK units Dijkstra runs.
# The batch's fixed numpy cost wins back only on enough work: on random
# graphs of 20-50 vertices it took 1.27x Dijkstra's time at 2,760 units,
# 1.01x at 4,176, 0.98x at 5,560 and 0.84x at 6,240. The dense pass gained
# nothing measurable on the small oracle corpus, whose batches are at most
# 1,248 units. From BATCH_MIN_WORK on, the path of the smaller estimate
# runs (`MetricClosure._path`): the dense pass for all 60 rows of a
# 60-vertex k=4 instance (0.30 against 1.28 ms estimated), the 80 terminal
# rows of family(80) and the 160 of family(160) (8.3 against 12.3 ms), the
# batch for the 31 of a 30 x 30 grid and for all its 900 rows at k=4
# (0.40 s dense in int32).
BATCH_MIN_WORK = 5_000
BATCH_FIXED_NS, BATCH_UNIT_NS = 150_000, 45
DENSE_PIVOT_NS, DENSE_ENTRY_NS = 3_000, 1.1

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
    `path_edges` or `expand`) computes all of them at once, by one of
    three paths (`_path`): one Dijkstra per source; one batched Δ-stepping
    over the sources (`_delta_stepping`); or, before any row is computed,
    one dense Floyd-Warshall pass that computes every row
    (`_floyd_warshall`). Distances are unique, and `path_edges` follows
    Dijkstra's path over a row whichever path computed it, so every row
    and path is the same either way and whichever order the rows are
    asked for in.
    `rows_computed` counts the rows computed. `dist`, the full int64
    matrix, computes every row that is still missing.
    """

    def __init__(self, vertices: Sequence[int], adjacency: Sequence[Sequence[tuple[int, int]]]):
        self.vertices = tuple(vertices)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self._adj = adjacency  # per column: (neighbor column, weight), sorted
        self._work = len(self.vertices) + sum(map(len, adjacency))  # V + 2E per row
        self._dist: dict[int, np.ndarray] = {}
        self._pred: dict[int, np.ndarray] = {}
        self._runs = 0

    @property
    def rows_computed(self) -> int:
        """Number of rows computed so far, by any path: all V after a dense
        pass."""
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
        pop-order argument of `path_edges`' tight-arc walk, so such a
        closure computes every row by Dijkstra."""
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
    def _dense_fill(self) -> tuple[int, type]:
        """The dense pass's sentinel, the total edge weight plus 1, and its
        dtype: an entry formed is at most twice the sentinel, so int32 when
        that sum stays below 2**31 (`_work_dtype`). Needs `_arcs`."""
        sentinel = int(self._arcs[2].sum()) // 2 + 1  # each edge is two arcs
        return sentinel, _work_dtype(np.array([sentinel]), 2)

    def _path(self, count: int) -> tuple[str, float, float]:
        """How `count` missing rows are computed, "dijkstra", "batch" or
        "dense", with the batch's and the dense pass's estimated times in
        ns. Dijkstra below BATCH_MIN_WORK units or when a weight is 0 (see
        `_arcs`), the dense pass unpriced (inf). Else the dense pass when
        its estimate in its dtype is the smaller, no row is computed yet
        (it computes them all) and its arrays fit in
        dreyfus_wagner.DENSE_BUDGET: 16 V^2 bytes, the int64 matrix and its
        temporary, or in int32 the int64 matrix, the work matrix and its
        temporary. Else the batch."""
        n = len(self._adj)
        batch = BATCH_FIXED_NS + BATCH_UNIT_NS * count * self._work
        if count * self._work < BATCH_MIN_WORK or self._arcs is None:
            return "dijkstra", batch, math.inf
        entry = DENSE_ENTRY_NS * np.dtype(self._dense_fill[1]).itemsize / 8
        dense = n * (DENSE_PIVOT_NS + entry * n * n)
        if dense < batch and not self._dist and 16 * n * n <= dreyfus_wagner.DENSE_BUDGET:
            return "dense", batch, dense
        return "batch", batch, dense

    def _floyd_warshall(self, full: np.ndarray) -> None:
        """Every row into `full`, the V x V int64 matrix, kept as `dist`:
        Floyd-Warshall (Floyd 1962) in place over the weight matrix, every
        non-edge the sentinel (`_dense_fill`), one broadcast add and one
        minimum per pivot. The pass runs in `_dense_fill`'s dtype, the
        same lines either way, and distances are unique integers, so int32
        rows match int64's bit for bit. Paths walk its rows' tight arcs, as
        for batched rows (`path_edges`)."""
        start, head, weight = self._arcs
        n = len(start) - 1
        sentinel, dtype = self._dense_fill
        d = full if dtype == np.int64 else np.empty((n, n), dtype=dtype)
        d.fill(sentinel)
        d[np.repeat(np.arange(n), np.diff(start)), head] = weight
        np.fill_diagonal(d, 0)
        through = np.empty_like(d)
        for k in range(n):
            np.add(d[:, k:k + 1], d[k], out=through)
            np.minimum(d, through, out=d)
        if d is not full:
            full[...] = d
        full.flags.writeable = False
        for i in range(n):
            self._dist[i] = full[i]
        self._runs += n
        self.dist = full

    def _compute(self, sources: Sequence[int], full: np.ndarray | None = None) -> None:
        """Rows from the columns `sources`, kept as views: of `full`, the
        matrix `dist` fills (row i for column i), else of a new block. The
        path is `_path`'s: the dense pass (every row), batches of up to
        BATCH_MAX_WORK units, or Dijkstra per source, which also reruns a
        batch out of rounds."""
        if not sources:
            return
        n = len(self._adj)
        path, batch_ns, dense_ns = self._path(len(sources))
        log.debug("closure: %s for %d rows over %d vertices (estimates: batch %.0f us,"
                  " dense %.0f us)", path, len(sources), n, batch_ns / 1e3, dense_ns / 1e3)
        if path == "dense":
            self._floyd_warshall(np.empty((n, n), dtype=np.int64) if full is None else full)
            return
        if full is None:
            out, slots = np.empty((len(sources), n), dtype=np.int64), range(len(sources))
        else:
            out, slots = full, sources
        step = max(1, BATCH_MAX_WORK // self._work)
        for at in range(0, len(sources), step):
            into, part = slots[at:at + step], sources[at:at + step]
            batched = (path == "batch" and len(part) * self._work >= BATCH_MIN_WORK
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
        self._compute(list(dict.fromkeys(c for c in columns if c not in self._dist)))
        return [self._dist[c] for c in columns]

    def rows(self, nodes: Iterable[int]) -> np.ndarray:
        """Distances from each of `nodes` (rows) to every closure vertex
        (columns, in `vertices` order)."""
        return np.stack(self._rows([self._column(u) for u in nodes]))

    def block(self, nodes: Sequence[int]) -> np.ndarray:
        """Distances between `nodes`, rows and columns in the given order."""
        return self.rows(nodes)[:, [self.index[u] for u in nodes]]

    @cached_property
    def dist(self) -> np.ndarray:
        """All-pairs distances. Rows computed earlier move into the matrix,
        so no second copy of them stays behind; the missing rows are
        computed straight into it. A dense pass keeps its matrix here."""
        n = len(self.vertices)
        full = np.empty((n, n), dtype=np.int64)
        for i, row in self._dist.items():
            full[i] = row
        self._compute([i for i in range(n) if i not in self._dist], full)
        for i in range(n):
            self._dist[i] = full[i]
        full.flags.writeable = False
        return full

    def distance(self, u: int, v: int) -> int:
        return int(self._row(self._column(u))[self._column(v)])

    def path_edges(self, u: int, v: int) -> list[Edge]:
        """Original-graph edges of the shortest u-v path Dijkstra from u
        records, walked back from v. A row Dijkstra computed keeps its
        predecessors. Over any other row, whose weights are positive
        (`_arcs`), each step from x goes to its tight neighbor y,
        row[y] + w(y, x) == row[x], of largest w, ties going to the
        smallest column. That is Dijkstra's choice: it sets pred[x] to the
        first popped tight neighbor. With positive weights every vertex at
        distance d is in the heap before any of them pops, so vertices pop
        in (distance, column) order and that neighbor is the one of
        smallest row[y] = row[x] - w. A step's edge is tight, so its weight
        is the rise in distance along it."""
        iu, cur = self._column(u), self._column(v)
        row = self._row(iu)
        pred = self._pred.get(iu)
        out: list[Edge] = []
        while cur != iu:
            if pred is not None:
                prev = int(pred[cur])
            else:
                at, heaviest = row[cur], 0
                for y, w in self._adj[cur]:  # in column order
                    if w > heaviest and row[y] + w == at:
                        prev, heaviest = y, w
            a, b = self.vertices[prev], self.vertices[cur]
            out.append((min(a, b), max(a, b), int(row[cur] - row[prev])))
            cur = prev
        out.reverse()
        return out

    def expand(self, pairs: Iterable[tuple[int, int]], terminals: Sequence[int]) -> Tree:
        """Tree over original edges: one shortest path per (u, v) pair,
        their union reduced by pruned_mst. The pairs' missing source rows
        are computed together first."""
        pairs = list(pairs)
        self._rows([self._column(u) for u, _ in pairs])
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
    return MetricClosure(vertices, columns)


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
        if len(edges) != len(node_set) - 1 or len(connected_parts(node_set, edges)) != 1:
            raise InvalidInstanceError(
                f"{len(edges)} edges do not form a tree on {len(node_set)} nodes"
            )
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

    The union-find is a list over the nodes numbered 0..n-1, with path
    halving, inlined in the loop; the groups join first, as edges of index
    -1, which are never kept.
    """
    index = {x: i for i, x in enumerate(set(nodes))}
    parent = list(range(len(index)))
    groups = len(parent)
    if groups == 1:
        return []  # every edge is a self-loop: a contraction's merged paths often are
    if not isinstance(edges, np.ndarray):
        edges = np.array([e[:3] for e in edges], dtype=np.int64)
    u, v, w = edges.reshape(-1, 3).T
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((hi, lo, w))
    joins = [(-1, g[0], x) for g in map(list, merged_groups) for x in g[1:]]
    kept = []
    for i, a, b in itertools.chain(joins, zip(order.tolist(), lo[order].tolist(),
                                              hi[order].tolist())):
        if groups == 1:
            break
        ra, rb = index[a], index[b]
        while ra != parent[ra]:
            parent[ra] = ra = parent[parent[ra]]
        while rb != parent[rb]:
            parent[rb] = rb = parent[parent[rb]]
        if ra != rb:  # a self-loop has ra == rb
            parent[ra] = rb
            groups -= 1
            if i >= 0:
                kept.append(i)
    if groups != 1:
        raise DisconnectedInputError("edge set does not connect the node set")
    kept.sort()
    return kept


def connected_parts(nodes: Iterable[int], edges: Iterable[Sequence[int]]) -> list[set[int]]:
    """Node sets of the connected parts of the graph on `nodes` with
    `edges` ((u, v, ...) rows between them), in order of their first node
    in `nodes`. A tree on n nodes is n - 1 edges in one part. The
    union-find is `kruskal_indices`' list with path halving; a join hangs
    the later root under the earlier, so every parent precedes its child,
    a part's root is its first node, and one pass in node order leaves
    each node's parent at its root."""
    order = list(dict.fromkeys(nodes))
    index = {x: i for i, x in enumerate(order)}
    parent = list(range(len(order)))
    for e in edges:
        a, b = index[e[0]], index[e[1]]
        while a != parent[a]:
            parent[a] = a = parent[parent[a]]
        while b != parent[b]:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        else:
            parent[a] = b
    parts: dict[int, set[int]] = {}
    for i, x in enumerate(order):
        parent[i] = root = parent[parent[i]]
        if root == i:
            parts[i] = {x}
        else:
            parts[root].add(x)
    return list(parts.values())


def tree_paths(edges: Sequence[Sequence[int]], members: Iterable[int]) -> list[int]:
    """Indices, increasing, of the tree `edges` ((u, v, ...) rows) that lie
    on a path between two of `members`: a breadth-first search from the
    smallest member, stopped once every member is reached, then a walk back
    from each member. Once the members are merged into one node, every
    other edge is a bridge, which Kruskal keeps and which never joins the
    ends of another edge, so a Kruskal over the tree plus the merge needs
    only these edges."""
    targets = set(members)
    adj: dict[int, list[tuple[int, int]]] = {}
    for i, e in enumerate(edges):
        u, v = e[0], e[1]
        adj.setdefault(u, []).append((v, i))
        adj.setdefault(v, []).append((u, i))
    start = min(targets)
    up = {start: (start, -1)}  # node -> (its parent, the edge to it)
    left = len(targets) - 1
    queue = [start]
    for x in queue:
        if not left:
            break
        for y, i in adj.get(x, ()):
            if y not in up:
                up[y] = (x, i)
                queue.append(y)
                left -= y in targets
    if left:
        raise InternalInvariantError(f"members {sorted(targets - up.keys())} are not"
                                     f" reached from {start} in the tree")
    on_paths, walked = [], {start}
    for y in targets:
        while y not in walked:
            walked.add(y)
            y, i = up[y]
            on_paths.append(i)
    on_paths.sort()
    return on_paths


def kruskal_over_paths(edges: Sequence[Sequence[int]], paths: Sequence[int],
                       added: Sequence[Sequence[int]] = (),
                       merged: Sequence[int] = ()) -> tuple[list, list[int]]:
    """The MST of the tree `edges` ((u, v, w, ...) rows) with the edges
    `added` joined to its graph, or the nodes `merged` joined at zero cost,
    both among the ends of its tree paths `paths` (`tree_paths`): (the
    MST's rows, the indices, increasing, of the tree rows it drops).
    Kruskal runs over the rows on those paths and `added` alone. Every
    other row is a bridge and keeps its place; kept added rows follow, in
    order, as in one Kruskal over `edges` then `added`."""
    cycles = [edges[i] for i in paths] + list(added)
    kept = set(kruskal_indices({x for e in cycles for x in e[:2]}, cycles,
                               [merged] if merged else ()))
    dropped = [p for i, p in enumerate(paths) if i not in kept]
    gone = set(dropped)
    tree = [e for i, e in enumerate(edges) if i not in gone]
    tree += [e for i, e in enumerate(added, len(paths)) if i in kept]
    return tree, dropped


def minimum_spanning_tree(nodes: Iterable[int], weights: np.ndarray) -> Tree:
    """MST of the complete graph on the sorted distinct `nodes`. `weights`
    is the symmetric matrix of weights between the sorted nodes (as
    `MetricClosure.block` gives it). Under the strict `edge_key` order the
    MST is unique."""
    node_list = sorted(set(nodes))
    if not node_list:
        raise InvalidInstanceError("empty node set")
    first, second = np.triu_indices(len(node_list), 1)
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

    def __init__(self, rep_of: Mapping[int, int], edges: Sequence[Edge],
                 bottleneck: np.ndarray | None = None):
        """`bottleneck`, when given, is the tree's bottleneck matrix, known
        to its caller; it is otherwise filled on first read."""
        self.rep_of = dict(rep_of)
        self.edges = tuple(edges)
        self.cost = sum(w for _, _, w in self.edges)
        reps = sorted(set(self.rep_of.values()))
        self.reps = tuple(reps)
        self.rep_index = {r: i for i, r in enumerate(reps)}
        self._bottleneck = bottleneck

    @classmethod
    def from_tree(cls, tree: Tree) -> "ContractedTree":
        return cls({x: x for x in tree.nodes}, tree.edges)

    @property
    def bottleneck_matrix(self) -> np.ndarray:
        """Dense path-maximum weights between representatives (int64), in
        `reps` order: carried in or filled on first read (`_fill`)."""
        if self._bottleneck is None:
            self._bottleneck = self._fill()
        return self._bottleneck

    def _fill(self) -> np.ndarray:
        """The bottleneck matrix in one breadth-first pass: every node seen
        before x is reached through x's parent p, so x's row over them is
        p's row raised to the weight of edge (p, x), one slice per node,
        mirrored into the column."""
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
        return mat[np.ix_(seen_at, seen_at)]

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
        Edges keep their order, ids remapped to the merged representative.
        Only the edges on the tree paths between the merged
        representatives can close a cycle (`tree_paths`); Kruskal, under
        the remapped ids, runs over those alone and keeps every other edge
        (`kruskal_over_paths`).
        A built bottleneck matrix is carried over exactly: through the zero-cost
        group, b' = min(b, max(near_x, near_z)), near being the bottleneck to it."""
        group_reps = self._group_reps(group)
        if len(group_reps) <= 1:
            return self
        new_rep = min(n for n, r in self.rep_of.items() if r in group_reps)
        new_rep_of = {n: (new_rep if r in group_reps else r) for n, r in self.rep_of.items()}
        mapped = [(new_rep if u in group_reps else u, new_rep if v in group_reps else v, w)
                  for u, v, w in self.edges]
        tree = ContractedTree(new_rep_of,
                              kruskal_over_paths(mapped, tree_paths(self.edges, group_reps))[0])
        if self._bottleneck is not None:
            b = self._bottleneck
            rows = [self.rep_index[r] for r in group_reps]
            keep = [rows[0] if r == new_rep else self.rep_index[r] for r in tree.reps]
            # take() gathers some twice as fast as fancy indexing here.
            near = b.take(rows, axis=0).min(axis=0).take(keep)
            carried = b.take(keep, axis=0).take(keep, axis=1)
            tree._bottleneck = np.minimum(carried, np.maximum.outer(near, near), out=carried)
        return tree
