"""Seeded workload generators for the benchmark.

The generators live here, not in the package or its tests, so a change to
either cannot silently change what the benchmark measures. `family`,
`grid` and `random_graph` reproduce the shapes of the test suite's
`_family` and of `steinertree.gen.grid_instance` / `random_instance`.

Every workload builds `count` instances from the run seed; instance i is
made from the derived seed `seed * 1000 + i` and its index i, so the same
run seed always gives the same inputs.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from steinertree import Instance


def family(terminals: int, seed: int) -> Instance:
    """Sparse random graph with 1.5 vertices per terminal and 3 edges per
    vertex, weights 1..50 (the acceptance suite's complexity-trend shape)."""
    nv = int(1.5 * terminals)
    rng = random.Random(seed * 1000 + terminals)
    edges = []
    for v in range(2, nv + 1):
        edges.append((rng.randint(1, v - 1), v, rng.randint(1, 50)))
    while len(edges) < 3 * nv:
        u, v = rng.sample(range(1, nv + 1), 2)
        edges.append((u, v, rng.randint(1, 50)))
    terms = rng.sample(range(1, nv + 1), terminals)
    return Instance.build(nv, edges, terms, name=f"family-{terminals}-{seed}")


def grid(rows: int, cols: int, seed: int, terminal_stride: int,
         max_weight: int = 9) -> Instance:
    """Grid with random weights; every terminal_stride-th vertex in
    row-major order is a terminal, plus both corners."""
    rng = random.Random(seed)

    def vid(r: int, c: int) -> int:
        return r * cols + c + 1

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1), rng.randint(1, max_weight)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c), rng.randint(1, max_weight)))
    n = rows * cols
    terms = sorted({1, n} | set(range(1, n + 1, terminal_stride)))
    return Instance.build(n, edges, terms, name=f"grid-{rows}x{cols}-s{seed}")


def random_graph(seed: int, vertices: int, terminals: int, extra_edges: int,
                 max_weight: int = 20, name: str = "") -> Instance:
    """Random spanning tree plus `extra_edges` random extra edges."""
    rng = random.Random(seed)
    edges = []
    used = set()
    for v in range(2, vertices + 1):
        u = rng.randint(1, v - 1)
        edges.append((u, v, rng.randint(1, max_weight)))
        used.add((u, v))
    pairs = [(u, v) for u in range(1, vertices + 1)
             for v in range(u + 1, vertices + 1) if (u, v) not in used]
    rng.shuffle(pairs)
    for u, v in pairs[:extra_edges]:
        edges.append((u, v, rng.randint(1, max_weight)))
    terms = rng.sample(range(1, vertices + 1), terminals)
    return Instance.build(vertices, edges, terms,
                          name=name or f"rand-s{seed}-v{vertices}-t{terminals}")


def small_corpus_instance(seed: int, index: int, max_terminals: int) -> Instance:
    """One instance of the oracle corpus. Sizes follow the index, so every
    seed gets the same mix: terminals cycle through 4..max_terminals and
    vertices through 8..16 (never fewer than terminals + 2), with one extra
    edge per vertex. The seed draws the graph, weights and terminals."""
    nt = 4 + index % (max_terminals - 3)
    nv = max(nt + 2, 8 + (index // (max_terminals - 3)) % 9)
    return random_graph(seed, nv, nt, extra_edges=nv, name=f"corpus-{seed}")


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    count: int              # instances per pass
    from_files: bool        # timed call is load_stp + solve, as `steinertree bench` does
    params: dict            # generator arguments besides the seed
    tiny: dict              # smaller arguments for the benchmark's own smoke test
    make: Callable[..., Instance]  # (derived seed, index, **params)

    def instances(self, seed: int, tiny: bool = False) -> list[Instance]:
        params = self.tiny if tiny else self.params
        count = params.get("count", self.count)
        args = {k: v for k, v in params.items() if k != "count"}
        return [self.make(seed * 1000 + i, i, **args) for i in range(count)]

    def describe(self) -> dict:
        return {"k": self.k, "instances_per_pass": self.count,
                "timed_call": "load_stp + solve" if self.from_files else "solve",
                **self.params}


WORKLOADS = {
    w.name: w for w in (
        Workload("many-terminals-k3", k=3, count=8, from_files=False,
                 params={"terminals": 80}, tiny={"terminals": 12, "count": 2},
                 make=lambda seed, i, terminals: family(terminals, seed)),
        Workload("big-graph-k3", k=3, count=6, from_files=False,
                 params={"rows": 30, "cols": 30, "terminal_stride": 30},
                 tiny={"rows": 6, "cols": 6, "terminal_stride": 6, "count": 2},
                 make=lambda seed, i, **p: grid(seed=seed, **p)),
        Workload("k4-dp", k=4, count=10, from_files=False,
                 params={"vertices": 60, "terminals": 20, "extra_edges": 120},
                 tiny={"vertices": 16, "terminals": 6, "extra_edges": 20, "count": 2},
                 make=lambda seed, i, **p: random_graph(seed, **p)),
        Workload("small-corpus-oracles", k=3, count=100, from_files=True,
                 params={"max_terminals": 10},
                 tiny={"max_terminals": 6, "count": 6},
                 make=small_corpus_instance),
    )
}
