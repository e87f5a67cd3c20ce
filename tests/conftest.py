import contextlib
import random

import numpy as np
import pytest

from steinertree import Instance, grid_instance, random_instance
from steinertree.components import CandidateTable, _work_dtype

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    """Repeat the acceptance verdict lines in one block at the end."""
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


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
    copies, its own id. Interior ids start at the smallest hub, or above
    the largest terminal when that is larger."""
    rows = [sorted(row) for row in rows]  # a star's spokes in terminal order
    terms = [sorted(row[0][:2]) if len(row) == 1 else [t for t, _, _ in row] for row in rows]
    ids = sorted({t for ts in terms for t in ts})
    index = {t: i for i, t in enumerate(ids)}
    pos = np.full((len(rows), max(map(len, terms), default=2)), -1, dtype=np.int16)
    edges = np.zeros((3, max(map(len, rows), default=1), len(rows)), dtype=np.int64)
    for i, (ts, row) in enumerate(zip(terms, rows)):
        pos[i, :len(ts)] = [index[t] for t in ts]
        edges[:, :len(row), i] = np.array(row, dtype=np.int64).T
    base = max(min((row[0][1] for row in rows if len(row) > 1), default=0),
               ids[-1] + 1 if ids else 1)
    return CandidateTable(np.array(ids, dtype=np.int64), pos, edges[2].sum(axis=0),
                          edges.astype(_work_dtype(edges, 1)).T, base)


@contextlib.contextmanager
def counting_components():
    """Every call of CandidateTable.component made inside, as (row, the
    component built), in call order. Pools take the method when they are
    made, so make them inside too."""
    from steinertree.components import CandidateTable

    calls = []
    build = CandidateTable.component

    def counting(table, i, first):
        out = build(table, i, first)
        calls.append((i, out[0]))
        return out
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CandidateTable, "component", counting)
        yield calls


@contextlib.contextmanager
def recording_work_dtypes():
    """Every dtype components._work_dtype chooses inside, in call order."""
    from steinertree import components

    chosen = []
    choose = components._work_dtype

    def recording(values, terms):
        chosen.append(choose(values, terms))
        return chosen[-1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(components, "_work_dtype", recording)
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
    "enumerate": "stage enumerate: candidate columns fail component validation",
    "phase 1": "stage phase 1: working tree cost did not fall: \\d+ to \\d+",
}


def force_invariant_failure(monkeypatch, stage):
    """Make the next solve fail a self-check inside `stage`: enumeration's
    column checks, or phase 1's check that every pick lowers the working
    tree's cost, by handing it the first pick again, whose terminals are
    already joined. FORCED[stage] matches the error."""
    from steinertree import components, phase1
    from steinertree.errors import InternalInvariantError

    if stage == "enumerate":
        def reject(table):
            raise InternalInvariantError("candidate columns fail component validation")
        monkeypatch.setattr(components.CandidateTable, "_check", reject)
    else:
        first = []
        pick = phase1.argmin_ratio

        def same_pick(num, den):
            if not first:
                first.append(pick(num, den))
            return first[0]
        monkeypatch.setattr(phase1, "argmin_ratio", same_pick)
