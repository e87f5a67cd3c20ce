import contextlib
import importlib.util
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from steinertree import Instance, MetricClosure, grid_instance, random_instance
from steinertree.components import CandidateTable

ACCEPTANCE_LINES = []
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def pytest_terminal_summary(terminalreporter):
    """Repeat the acceptance verdict lines in one block at the end."""
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def recording_closure_paths(monkeypatch):
    """Record (sources, finished) for every Δ-stepping batch and the rows
    of every dense pass, and count Dijkstra runs."""
    calls = {"batches": [], "dense": [], "dijkstra": 0}
    batch, dense = MetricClosure._delta_stepping, MetricClosure._floyd_warshall
    dijkstra = MetricClosure._dijkstra

    def recording_batch(self, out, slots, sources):
        calls["batches"].append((len(sources), batch(self, out, slots, sources)))
        return calls["batches"][-1][1]

    def recording_dense(self, full):
        calls["dense"].append(len(full))
        return dense(self, full)

    def counting_dijkstra(self, si):
        calls["dijkstra"] += 1
        return dijkstra(self, si)

    monkeypatch.setattr(MetricClosure, "_delta_stepping", recording_batch)
    monkeypatch.setattr(MetricClosure, "_floyd_warshall", recording_dense)
    monkeypatch.setattr(MetricClosure, "_dijkstra", counting_dijkstra)
    return calls


@pytest.fixture
def star3():
    """Three terminals around one hub, all spokes weight 1."""
    return Instance.build(4, [(1, 4, 1), (2, 4, 1), (3, 4, 1)], [1, 2, 3],
                          name="star3")


@pytest.fixture(scope="session")
def long_path():
    """A 150,000-vertex unit path with 5 terminals: its V x V closure
    matrix would take 180 GB."""
    n = 150_000
    return Instance.build(n, [(v, v + 1, 1) for v in range(1, n)],
                          [1, 40_000, 75_000, 110_000, n], name="long-path")


def perfbench_module(name):
    """`perfbench/<name>.py`, loaded from its file as it is, outside any
    package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up as it runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def make_batch(count, seed0=0, max_vertices=12, max_terminals=8, max_weight=20):
    """Seeded list of small random instances shared by the property tests."""
    out = []
    for i in range(count):
        rng = random.Random(seed0 + i)
        nv = rng.randint(4, max_vertices)
        nt = rng.randint(2, min(max_terminals, nv))
        extra = rng.randint(0, nv)
        out.append(random_instance(seed0 + i, nv, nt, extra_edges=extra,
                                   max_weight=max_weight, name=f"rnd-{seed0 + i}"))
    return out


def family(terminals, seed):
    """Sparse random graph with 1.5 vertices per terminal and 3 edges per
    vertex, weights 1..50: the complexity-trend shape, and the benchmark's
    many-terminals instances."""
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


def tie_instances():
    """A unit-weight grid full of equal-cost trees, and a random instance
    with zero-weight and parallel edges."""
    grid = grid_instance(6, 6, max_weight=1, terminal_stride=4)
    rng = random.Random(3)
    base = random_instance(11, 24, 9, extra_edges=30)
    edges = list(base.edges)
    for _ in range(12):
        u, v = rng.sample(range(1, 25), 2)
        edges.append((u, v, rng.choice([0, 0, 1, 3])))
    edges += edges[:10]
    return [grid, Instance.build(24, edges, sorted(base.terminals))]


def candidate_table(rows):
    """A CandidateTable over hand-made pairs and single-hub stars, in the
    given order. Each row is its edge list: one edge (u, v, w) for a pair,
    or spokes (terminal, hub, w) for a star, the hub named by the vertex it
    copies, its own id. Rows are written in the table's form: positions,
    cost and a root column of their own, which stands for the vertex the
    row's edges reach (a pair's larger terminal, a star's hub) and holds the
    weights they read, so rows may disagree on a distance. A row of two
    terminals is a pair, as in enumeration: two spokes become one edge of
    their summed weight. `max_steiner_id` leaves one id per star of three
    or more terminals, from the smallest such hub, or from above the largest
    terminal when that is larger."""
    rows = [sorted(row) for row in rows]  # a star's spokes in terminal order
    terms = [sorted(row[0][:2]) if len(row) == 1 else [t for t, _, _ in row] for row in rows]
    costs = [sum(w for *_, w in row) for row in rows]
    ids = sorted({t for ts in terms for t in ts})
    index = {t: i for i, t in enumerate(ids)}
    r = len(ids)
    stars = [len(ts) > 2 for ts in terms]
    pos = np.full((len(rows), max(map(len, terms), default=2)), -1, dtype=np.int16)
    # One column per terminal, then the rows' root columns.
    vertices = ids + [row[0][1] if star else ts[1] for ts, row, star in zip(terms, rows, stars)]
    rows_of = np.zeros((r, len(vertices)), dtype=np.int64)
    for i, (ts, row, star) in enumerate(zip(terms, rows, stars)):
        pos[i, :len(ts)] = [index[t] for t in ts]
        for t, w in [(t, w) for t, _, w in row] if star else [(ts[0], costs[i])]:
            rows_of[index[t], r + i] = w
    base = max(min((row[0][1] for row, star in zip(rows, stars) if star), default=0),
               ids[-1] + 1 if ids else 1)
    return CandidateTable(np.array(ids, dtype=np.int64), pos, np.array(costs, dtype=np.int64),
                          r + np.arange(len(rows), dtype=np.int32), base - 1 + sum(stars),
                          rows_of, np.array(vertices, dtype=np.int64))


def interior_counts(built):
    """Each built row's interior node count: its tree has one node more
    than edges (padded edges have end 0), less its terminals."""
    return (built.edges[0] != 0).sum(axis=0) + 1 - built.table.size[built.rows]


def components_of(table):
    """Every row of `table` as a FullComponent, in row order: all rows
    built in one `build` call, their interior nodes numbered one row after
    another by one counter that ends at `table.max_steiner_id`. For an
    enumerated table the counter starts at vertex_count + 1."""
    built = table.build(np.arange(len(table)))
    first = table.max_steiner_id + 1 - int(interior_counts(built).sum())
    out = []
    for j in range(len(table)):
        comp, first = built.component(j, first)
        out.append(comp)
    return out


@contextlib.contextmanager
def counting_components():
    """Every row built into a FullComponent inside, as (row, the component
    built), in build order."""
    from steinertree.components import BuiltRows

    calls = []
    build = BuiltRows.component

    def counting(built, j, first):
        out = build(built, j, first)
        calls.append((int(built.rows[j]), out[0]))
        return out
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BuiltRows, "component", counting)
        yield calls


@contextlib.contextmanager
def reading_trees():
    """Every CandidateTable.build call made inside, as the list of rows
    whose trees it read, in call order."""
    calls = []
    build = CandidateTable.build

    def reading(table, rows):
        out = build(table, rows)
        calls.append(out.rows.tolist())
        return out
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CandidateTable, "build", reading)
        yield calls


@contextlib.contextmanager
def recording_work_dtypes(module=None):
    """Every dtype `_work_dtype` chooses inside, in call order, for the
    callers in `module` (components unless given)."""
    from steinertree import components

    module = module or components
    chosen = []
    choose = module._work_dtype

    def recording(values, terms):
        chosen.append(choose(values, terms))
        return chosen[-1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_work_dtype", recording)
        yield chosen


@contextlib.contextmanager
def recording_scans():
    """Every phase-2 pick made inside, in call order, as (rows in the pool,
    rows scored for the pick, summed over its scans)."""
    from steinertree.phase2 import FloorPrefix

    picks = []
    pick = FloorPrefix.pick

    def recording(prefix, score, gap):
        before = prefix.scored
        out = pick(prefix, score, gap)
        picks.append((len(prefix.floor), prefix.scored - before))
        return out
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FloorPrefix, "pick", recording)
        yield picks


FORCED = {
    "enumerate": "stage enumerate: the fullness test failed",
    "phase 1": "stage phase 1: working tree cost did not fall: \\d+ to \\d+",
}


def force_invariant_failure(monkeypatch, stage):
    """Make the next solve fail inside `stage`: enumeration's fullness test
    at k >= 4, made to raise, or phase 1's check that every pick lowers the
    working tree's cost, by handing it the first pick again, whose
    terminals are already joined. FORCED[stage] matches the error."""
    from steinertree import dreyfus_wagner, phase1
    from steinertree.errors import InternalInvariantError

    if stage == "enumerate":
        def reject(tables, *last):
            raise InternalInvariantError("the fullness test failed")
        monkeypatch.setattr(dreyfus_wagner._SharedTables, "leaves", reject)
    else:
        first = []
        pick = phase1.argmin_ratio

        def same_pick(num, den):
            if not first:
                first.append(pick(num, den))
            return first[0]
        monkeypatch.setattr(phase1, "argmin_ratio", same_pick)
