"""Brute-force reference implementations used to cross-check the library.

Everything here is deliberately naive and written from scratch: exhaustive
enumeration wherever the instance is small enough, plain dicts and loops
everywhere else. The tests compare these against the real implementations.
`reference_full_components` (the earlier object-per-subset enumeration)
builds package components, `reference_kruskal_indices` is the earlier
Python-sorted Kruskal, and `mst_with_zero_set` and the reference
definitions of the greedy quantities at the end take package trees and
components; everything else stands on its own.
"""
import heapq
import itertools

import numpy as np

from steinertree.components import FullComponent, _normalized_edges
from steinertree.core import WEIGHT_LIMIT, edge_key
from steinertree.errors import DisconnectedInputError, InternalInvariantError, UnknownNodeError

INF = float("inf")

# Above every real distance (< WEIGHT_LIMIT); DW_INF + D stays below 2**63.
DW_INF = np.int64(4 * WEIGHT_LIMIT)


def floyd_warshall(vertex_count, edges):
    """All-pairs shortest distances as a dict {(u, v): dist}, 1-based."""
    nodes = range(1, vertex_count + 1)
    dist = {(u, v): (0 if u == v else INF) for u in nodes for v in nodes}
    for u, v, w in edges:
        if w < dist[(u, v)]:
            dist[(u, v)] = w
            dist[(v, u)] = w
    for m in nodes:
        for u in nodes:
            dum = dist[(u, m)]
            if dum == INF:
                continue
            for v in nodes:
                alt = dum + dist[(m, v)]
                if alt < dist[(u, v)]:
                    dist[(u, v)] = alt
    return dist


class _UF:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _is_spanning_tree(nodes, subset):
    nodes = set(nodes)
    if len(subset) != len(nodes) - 1:
        return False
    uf = _UF(nodes)
    for u, v, _ in subset:
        if not uf.union(u, v):
            return False
    return len({uf.find(x) for x in nodes}) == 1


def mst_cost_enumerate(nodes, edges):
    """Minimum spanning tree cost by trying every edge subset of size n-1.

    Only usable on tiny graphs; returns None when disconnected.
    """
    nodes = list(nodes)
    best = None
    for subset in itertools.combinations(edges, len(nodes) - 1):
        if _is_spanning_tree(nodes, subset):
            cost = sum(w for _, _, w in subset)
            if best is None or cost < best:
                best = cost
    return best


def mst_cost_kruskal(nodes, edges):
    """Independent Kruskal for larger cross-checks; None when disconnected."""
    nodes = set(nodes)
    uf = _UF(nodes)
    cost = 0
    used = 0
    for u, v, w in sorted(edges, key=lambda e: (e[2], min(e[0], e[1]), max(e[0], e[1]))):
        if uf.union(u, v):
            cost += w
            used += 1
    if used != len(nodes) - 1:
        return None
    return cost


def reference_kruskal_indices(nodes, edges, merged_groups=()):
    """Kruskal sorted in Python by edge_key: the indices, increasing, of the
    edges an MST keeps over (u, v, w, ...) rows, with `merged_groups`
    already connected. The reference `core.kruskal_indices` is tested
    against; raises DisconnectedInputError when the nodes stay apart."""
    nodes = list(nodes)
    uf = _UF(nodes)
    for group in merged_groups:
        members = list(group)
        for other in members[1:]:
            uf.union(members[0], other)
    order = sorted(range(len(edges)), key=lambda i: edge_key(*edges[i][:3]))
    kept = [i for i in order if edges[i][0] != edges[i][1] and uf.union(edges[i][0], edges[i][1])]
    if len({uf.find(x) for x in nodes}) != 1:
        raise DisconnectedInputError("edge set does not connect the node set")
    return sorted(kept)


def mst_with_zero_set(tree, group):
    """Cost of the MST of a ContractedTree plus a zero-cost clique over the
    representatives of ``group``, by an independent Kruskal."""
    reps = sorted({tree.rep_of[x] for x in group})
    zero = [(a, b, 0) for a, b in itertools.combinations(reps, 2)]
    return mst_cost_kruskal(tree.reps, zero + list(tree.edges))


def zero_set_mst_cost(tree_edges, group):
    """MST cost of a tree's edges plus a zero-cost clique over ``group``."""
    nodes = {x for e in tree_edges for x in e[:2]} | set(group)
    group = sorted(set(group))
    zero = [(a, b, 0) for a, b in itertools.combinations(group, 2)]
    return mst_cost_kruskal(nodes, zero + list(tree_edges))


def saving_of_group(tree_edges, group):
    """Cost drop of contracting ``group`` to a point inside the tree."""
    total = sum(w for _, _, w in tree_edges)
    return total - zero_set_mst_cost(tree_edges, group)


def loss_cost_bruteforce(terminals, edges):
    """Cheapest edge subset connecting every interior node to a terminal.

    ``edges`` is a small tree; subsets are enumerated exhaustively.
    """
    terminals = set(terminals)
    interior = {x for e in edges for x in e[:2]} - terminals
    if not interior:
        return 0
    best = None
    for r in range(len(edges) + 1):
        for subset in itertools.combinations(edges, r):
            uf = _UF({x for e in edges for x in e[:2]})
            for u, v, _ in subset:
                uf.union(u, v)
            ok = all(
                any(uf.find(s) == uf.find(t) for t in terminals)
                for s in interior
            )
            if ok:
                cost = sum(w for _, _, w in subset)
                if best is None or cost < best:
                    best = cost
    return best


def steiner_cost_bruteforce(vertex_count, edges, terminals):
    """Exact Steiner tree cost by enumerating Steiner-vertex subsets.

    For the right vertex set the optimum is a spanning tree of the induced
    subgraph, so min over subsets of MST(G[R + S]) is exact.
    """
    terminals = set(terminals)
    others = sorted(set(range(1, vertex_count + 1)) - terminals)
    best = None
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            keep = terminals | set(extra)
            sub = [(u, v, w) for u, v, w in edges if u in keep and v in keep]
            cost = mst_cost_kruskal(keep, sub)
            if cost is not None and (best is None or cost < best):
                best = cost
    return best


def restricted_opt_bruteforce(terminals, candidates):
    """Cheapest union of candidate components connecting all terminals.

    ``candidates`` is a list of (terminal_tuple, cost) pairs. At most
    len(terminals) - 1 components can appear in a minimal union, which keeps
    the enumeration tractable for small pools.
    """
    terminals = sorted(terminals)
    best = None
    for r in range(1, len(terminals)):
        for combo in itertools.combinations(candidates, r):
            uf = _UF(terminals)
            for terms, _ in combo:
                for t in terms[1:]:
                    uf.union(terms[0], t)
            if len({uf.find(t) for t in terminals}) == 1:
                cost = sum(c for _, c in combo)
                if best is None or cost < best:
                    best = cost
    return best


def path_bottleneck_bruteforce(tree_edges, u, v):
    """Maximum edge weight on the unique tree path from u to v."""
    adj = {}
    for a, b, w in tree_edges:
        adj.setdefault(a, []).append((b, w))
        adj.setdefault(b, []).append((a, w))
    stack = [(u, None, -1)]
    seen = {u}
    while stack:
        node, _, high = stack.pop()
        if node == v:
            return high
        for nxt, w in adj[node]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, node, max(high, w)))
    raise AssertionError("endpoints not connected in tree")


def reference_closure(instance, sources=None):
    """The earlier eager closure: Dijkstra from every vertex of the terminal
    component, or from each of `sources`, into two dense matrices. Heap ties
    pop the smaller vertex and relaxations are strict. Returns (sorted
    vertices, int64 distances, int32 predecessor columns, -1 at the source),
    one row per source."""
    adj = instance.adjacency
    component = instance.terminal_component
    vertices = sorted(component)
    index = {v: i for i, v in enumerate(vertices)}
    sources = vertices if sources is None else list(sources)
    dist = np.zeros((len(sources), len(vertices)), dtype=np.int64)
    pred = np.full(dist.shape, -1, dtype=np.int32)
    for si, src in enumerate(sources):
        d = {src: 0}
        done = set()
        heap = [(0, src)]
        while heap:
            du, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in adj[u]:
                nd = du + w
                if v not in d or nd < d[v]:
                    d[v] = nd
                    pred[si, index[v]] = index[u]
                    heapq.heappush(heap, (nd, v))
        for v, dv in d.items():
            dist[si, index[v]] = dv
    return vertices, dist, pred


def reference_dw_closure_tree(D, term_idx):
    """The earlier per-subset Dreyfus-Wagner program, the reference for
    exact.dw_closure_tree and the shared tables: (cost, closure edges as
    index pairs) of an optimal tree over closure indices. Tables are keyed
    by subsets of all terminals but the last; masks are processed in
    increasing numeric order and all argmins take the first index, which
    pins the reconstruction."""
    m = len(term_idx)
    if m == 1:
        return 0, []
    if m == 2:
        a, b = term_idx
        return int(D[a, b]), [(a, b)]
    q = term_idx[-1]
    base = list(term_idx[:-1])
    mu = len(base)
    nv = D.shape[0]
    full = (1 << mu) - 1
    W, relax, split = {}, {}, {}
    for i, t in enumerate(base):
        W[1 << i] = D[t].astype(np.int64, copy=True)
    for mask in range(1, full + 1):
        if mask & (mask - 1) == 0:
            continue
        low = mask & (-mask)
        merged = np.full(nv, DW_INF, dtype=np.int64)
        choice = np.zeros(nv, dtype=np.int64)
        sub = (mask - 1) & mask
        while sub:
            if sub & low:
                cand = W[sub] + W[mask ^ sub]
                better = cand < merged
                merged = np.where(better, cand, merged)
                choice = np.where(better, sub, choice)
            sub = (sub - 1) & mask
        total = merged[:, None] + D
        W[mask] = total.min(axis=0)
        relax[mask] = total.argmin(axis=0)
        split[mask] = choice
    cost = int(W[full][q])

    edges = []

    def build(mask, v):
        if mask & (mask - 1) == 0:
            t = base[mask.bit_length() - 1]
            if t != v:
                edges.append((t, v))
            return
        u = int(relax[mask][v])
        if u != v:
            edges.append((u, v))
        s = int(split[mask][u])
        build(s, u)
        build(mask ^ s, u)

    build(full, q)
    return cost, edges


def reference_full_components(instance, closure, k):
    """Object-per-subset candidate enumeration, the reference for the
    columnar one: one FullComponent per terminal subset of size 2..k whose
    optimal closure tree has the subset's terminals as leaves, ordered by
    terminal tuple, interior ids numbered in that order."""
    terms = sorted(instance.terminals)
    k = min(k, len(terms))
    D = closure.dist
    tidx = [closure.index[t] for t in terms]
    raw = []

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
        for size in range(4, k + 1):
            for combo in itertools.combinations(range(len(terms)), size):
                sub_idx = [tidx[x] for x in combo]
                cost, cedges = reference_dw_closure_tree(D, sub_idx)
                degree = {}
                for a, b in cedges:
                    degree[a] = degree.get(a, 0) + 1
                    degree[b] = degree.get(b, 0) + 1
                if any(degree.get(x, 0) != 1 for x in sub_idx):
                    continue
                subset = tuple(terms[x] for x in combo)
                mapping = {x: terms[c] for x, c in zip(sub_idx, combo)}
                origin = {}
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
    out = []
    next_id = instance.vertex_count + 1
    for subset, edges, origin in raw:
        remap = {}
        for ph in sorted(origin, reverse=True):  # -1 first, then -2, ...
            remap[ph] = next_id
            next_id += 1
        final_edges = [(remap.get(u, u), remap.get(v, v), w) for u, v, w in edges]
        final_origin = {remap[ph]: o for ph, o in origin.items()}
        out.append(FullComponent(subset, final_edges, final_origin))
    return out


# ---------------------------------------------------------------------------
# Reference definitions of the greedy quantities, one component and one tree
# at a time, from scratch. The solver computes them in batch
# (CandidatePool.savings_for, components.argmin_ratio).


def gain(tree, comp):
    """Cost drop of treating the component's terminals as merged, minus the
    component's price."""
    return tree.cost - mst_with_zero_set(tree, comp.terminals) - comp.cost


def load(tree, comp):
    """Negated gain: what the component costs beyond what it saves."""
    return -gain(tree, comp)


def saving_difference(tree_a, tree_b, comp):
    """How much more the component's terminal merge saves in tree_a than in
    tree_b."""
    saving_a = tree_a.cost - mst_with_zero_set(tree_a, comp.terminals)
    saving_b = tree_b.cost - mst_with_zero_set(tree_b, comp.terminals)
    return saving_a - saving_b


def compute_loss(comp):
    """(loss forest edges, loss value) of a component."""
    idx = comp.loss_forest_indices
    return tuple(comp.edges[i] for i in idx), comp.loss


def bottleneck_edge(tree, u, v):
    """Heaviest edge on the unique u-v path of a Tree. Among equal-weight
    maxima the one latest in global edge order is returned, because that is
    the edge a Kruskal run displaces when u and v are merged. u must differ
    from v.
    """
    if u == v:
        raise ValueError("bottleneck_edge needs two distinct nodes")
    for x in (u, v):
        if x not in tree.nodes:
            raise UnknownNodeError(f"node {x} not in tree")
    adj = {x: [] for x in tree.nodes}
    for e in tree.edges:
        adj[e[0]].append((e[1], e))
        adj[e[1]].append((e[0], e))
    parent_edge = {}
    parent = {u: u}
    stack = [u]
    while stack:
        x = stack.pop()
        if x == v:
            break
        for y, e in adj[x]:
            if y not in parent:
                parent[y] = x
                parent_edge[y] = e
                stack.append(y)
    path = []
    cur = v
    while cur != u:
        path.append(parent_edge[cur])
        cur = parent[cur]
    return max(path, key=lambda e: edge_key(*e))
