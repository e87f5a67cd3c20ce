import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from conftest import (candidate_table, family, make_batch, recording_closure_paths,
                      recording_work_dtypes, tie_instances)
from steinertree import (
    CandidatePool,
    DisconnectedInputError,
    DisconnectedTerminalsError,
    Instance,
    InvalidInstanceError,
    RunConfig,
    Tree,
    UnknownNodeError,
    enumerate_full_components,
    grid_instance,
    metric_closure,
    minimum_spanning_tree,
    random_instance,
    solve,
)
from steinertree import components, core, dreyfus_wagner
from steinertree.core import (
    WEIGHT_LIMIT,
    ContractedTree,
    connected_parts,
    format_cost,
    kruskal_indices,
    prune_leaves,
    tree_paths,
)
from steinertree.errors import InternalInvariantError


# ------------------------------
# Instance building and validation
# ------------------------------

def test_build_rejects_bad_input():
    with pytest.raises(InvalidInstanceError):
        Instance.build(0, [], [1, 2])
    with pytest.raises(InvalidInstanceError):
        Instance.build(3, [(1, 2, 1)], [1])  # one terminal
    with pytest.raises(InvalidInstanceError):
        Instance.build(3, [(1, 5, 1)], [1, 2])  # endpoint out of range
    with pytest.raises(InvalidInstanceError):
        Instance.build(3, [(1, 1, 1)], [1, 2])  # self loop
    with pytest.raises(InvalidInstanceError):
        Instance.build(3, [(1, 2, -2)], [1, 2])  # negative weight
    with pytest.raises(InvalidInstanceError):
        Instance.build(3, [(1, 2, 1.5)], [1, 2])  # float weight
    with pytest.raises(InvalidInstanceError):
        Instance.build(3, [(1, 2, 1)], [1, 4])  # terminal out of range


def test_build_rejects_vertex_ids_that_are_not_integers():
    # int() would truncate them and make (1, 2.5, 4) the edge (1, 2, 4).
    with pytest.raises(InvalidInstanceError, match="endpoint 2.5"):
        Instance.build(3, [(1, 2.5, 4), (2, 3, 1)], [1, 3])
    with pytest.raises(InvalidInstanceError, match="terminal 2.9"):
        Instance.build(3, [(1, 2, 4), (2, 3, 1)], [1, 2.9])
    with pytest.raises(InvalidInstanceError, match="terminal '3'"):
        Instance.build(3, [(1, 2, 4), (2, 3, 1)], [1, "3"])
    inst = Instance.build(3, [(np.int64(1), np.int32(2), 4), (2, 3, 1)], [np.int16(1), 3])
    assert inst.edges == ((1, 2, 4), (2, 3, 1)) and inst.terminals == {1, 3}
    assert all(type(x) is int for x in (*inst.edges[0], *inst.terminals))


def test_build_normalizes_the_vertex_count():
    # Like the ids: 3.5 would reach the JSON as is, and "3" fail in a comparison.
    for count in (3.5, "3"):
        with pytest.raises(InvalidInstanceError, match="vertex count"):
            Instance.build(count, [(1, 2, 4), (2, 3, 1)], [1, 3])
    inst = Instance.build(np.int64(3), [(1, 2, 4), (2, 3, 1)], [1, 3])
    assert type(inst.vertex_count) is int and inst.vertex_count == 3
    res = solve(inst, RunConfig(k=3))
    assert json.loads(res.to_json(timing=False))["instance"]["vertices"] == 3


def test_build_common_denominator_boundary():
    # The scale itself must stay below WEIGHT_LIMIT, whatever the weights sum to.
    assert Instance.build(2, [(1, 2, Fraction(1, WEIGHT_LIMIT - 1))], [1, 2]).scale == (
        WEIGHT_LIMIT - 1)
    with pytest.raises(InvalidInstanceError, match="60 bits"):
        Instance.build(2, [(1, 2, Fraction(1, WEIGHT_LIMIT))], [1, 2])


def test_build_requires_connected_terminals():
    with pytest.raises(DisconnectedTerminalsError):
        Instance.build(4, [(1, 2, 1)], [1, 3])
    # Unreachable non-terminal vertices are fine.
    inst = Instance.build(4, [(1, 2, 1)], [1, 2])
    assert inst.vertex_count == 4


def test_terminal_component_is_walked_once_and_read_by_the_closure():
    inst = Instance.build(5, [(1, 2, 1), (2, 3, 1), (4, 5, 1)], [1, 3])
    assert vars(inst)["terminal_component"] == {1, 2, 3}  # cached by build
    assert metric_closure(inst).vertices == (1, 2, 3)
    # An instance constructed without build still has its terminals checked.
    unchecked = Instance(4, ((1, 2, 1),), frozenset({1, 3}))
    with pytest.raises(DisconnectedTerminalsError):
        metric_closure(unchecked)


def test_build_scales_fractional_weights():
    inst = Instance.build(3, [(1, 2, "1.5"), (2, 3, 2)], [1, 3])
    assert inst.scale == 2
    assert [w for _, _, w in inst.edges] == [3, 4]
    inst = Instance.build(3, [(1, 2, Fraction(1, 3)), (2, 3, "0.5")], [1, 3])
    assert inst.scale == 6
    assert [w for _, _, w in inst.edges] == [2, 3]


def test_build_weight_headroom_boundary():
    # Scaled weights must sum below WEIGHT_LIMIT; one unit more is rejected.
    inst = Instance.build(4, [(1, 4, WEIGHT_LIMIT - 3), (2, 4, 1), (3, 4, 1)], [1, 2, 3])
    assert sum(w for _, _, w in inst.edges) == WEIGHT_LIMIT - 1
    with pytest.raises(InvalidInstanceError):
        Instance.build(4, [(1, 4, WEIGHT_LIMIT - 2), (2, 4, 1), (3, 4, 1)], [1, 2, 3])
    # The bound applies to scaled weights: with scale 2 these sum to
    # WEIGHT_LIMIT - 1 and WEIGHT_LIMIT, though their own sums are ~2**58.
    big = Fraction(WEIGHT_LIMIT - 1, 2)
    assert Instance.build(3, [(1, 2, big), (2, 3, 0)], [1, 3]).scale == 2
    with pytest.raises(InvalidInstanceError):
        Instance.build(3, [(1, 2, big), (2, 3, Fraction(1, 2))], [1, 3])
    assert oracles.DW_INF == 4 * WEIGHT_LIMIT == 2**61


def test_format_cost_exact():
    assert format_cost(7, 1) == "7"
    assert format_cost(3, 2) == "1.5"
    assert format_cost(4, 2) == "2"
    assert format_cost(1, 4) == "0.25"
    assert format_cost(2, 3) == "2/3"  # non-terminating decimal stays a fraction


# ------------------------------
# Metric closure
# ------------------------------

def test_closure_path_graph():
    inst = Instance.build(3, [(1, 2, 1), (2, 3, 1)], [1, 3])
    c = metric_closure(inst)
    assert c.distance(1, 3) == 2


def test_closure_single_edge_and_identity():
    inst = Instance.build(2, [(1, 2, 5)], [1, 2])
    c = metric_closure(inst)
    assert c.distance(1, 2) == 5
    assert c.distance(1, 1) == 0


def test_closure_star3(star3):
    c = metric_closure(star3)
    assert c.distance(1, 2) == c.distance(2, 3) == c.distance(1, 3) == 2


def test_closure_matches_bruteforce_on_random_graphs():
    for inst in make_batch(40, seed0=100, max_vertices=9):
        c = metric_closure(inst)
        want = oracles.floyd_warshall(inst.vertex_count, inst.edges)
        reach = inst.terminal_component
        for u in reach:
            for v in reach:
                assert c.distance(u, v) == want[(u, v)], (inst.name, u, v)


def test_closure_path_edges_expand_to_distance():
    for inst in make_batch(20, seed0=200, max_vertices=10):
        c = metric_closure(inst)
        terms = sorted(inst.terminals)
        for u in terms:
            for v in terms:
                if u >= v:
                    continue
                path = c.path_edges(u, v)
                assert sum(w for _, _, w in path) == c.distance(u, v)
                ends = sorted([u, v])
                nodes = [x for e in path for x in e[:2]]
                assert ends[0] in nodes and ends[1] in nodes


def test_closure_path_edges_unknown_vertex():
    inst = Instance.build(3, [(1, 2, 1), (2, 3, 1)], [1, 3])
    c = metric_closure(inst)
    for u, v in ((999, 1), (1, 999), (999, 998)):
        with pytest.raises(UnknownNodeError):
            c.path_edges(u, v)
    with pytest.raises(UnknownNodeError):
        c.rows([1, 999])
    assert c.path_edges(1, 1) == [] and c.path_edges(3, 3) == []


def _odd_instance():
    """Vertex 6 lies outside the terminal component; 1-2 has parallel
    edges, and zero-weight edges make ties between paths of equal length."""
    return Instance.build(
        7,
        [(1, 2, 4), (2, 1, 3), (1, 2, 3), (2, 3, 0), (3, 4, 2), (1, 4, 5),
         (4, 5, 0), (2, 5, 2), (5, 3, 0), (6, 7, 1)],
        [1, 4, 5],
    )


def test_closure_rows_match_eager_reference():
    for inst in make_batch(60, seed0=150, max_vertices=12) + [_odd_instance()]:
        vertices, want_dist, want_pred = oracles.reference_closure(inst)
        c = metric_closure(inst)
        # Each row read here is a batch too small to pay: Dijkstra.
        assert len(vertices) * c._work < core.BATCH_MIN_WORK
        assert list(c.vertices) == vertices
        assert c.rows_computed == 0
        # Rows asked for in reverse order, one at a time.
        for i in reversed(range(len(vertices))):
            _assert_rows_and_paths(c, vertices, want_dist[i:i + 1], want_pred[i:i + 1],
                                   vertices[i:i + 1])
        assert c.rows_computed == len(vertices)
        # The full matrix takes the computed rows over and recomputes none.
        assert c.dist.dtype == np.int64
        assert (c.dist == want_dist).all()
        assert (c.dist == c.rows(vertices)).all()
        assert c.rows_computed == len(vertices)
        # A fresh closure fills the matrix itself, with the same rows.
        fresh = metric_closure(inst)
        assert (fresh.dist == want_dist).all()
        _assert_rows_and_paths(fresh, vertices, want_dist, want_pred, vertices)
        assert fresh.rows_computed == len(vertices)
    assert 6 not in c.index  # the last case leaves vertex 6 outside


def _batch_every_read(monkeypatch):
    """Batch however small the work, with rounds to spare, and never the
    dense pass."""
    monkeypatch.setattr(core, "BATCH_MIN_WORK", 0)
    monkeypatch.setattr(core, "ROUND_WORK", 1)
    monkeypatch.setattr(core, "DENSE_PIVOT_NS", math.inf)


def _dense_every_read(monkeypatch):
    """The dense pass at the first read, however small the work."""
    monkeypatch.setattr(core, "BATCH_MIN_WORK", 0)
    monkeypatch.setattr(core, "DENSE_PIVOT_NS", 0)
    monkeypatch.setattr(core, "DENSE_ENTRY_NS", 0)


def _assert_rows_and_paths(c, vertices, want_dist, want_pred, sources):
    """Each source's row, and its path to every vertex, are the reference's
    (row i of `want_dist` and `want_pred` for source i). A path's step
    back from a vertex depends on that vertex alone, and every vertex lies
    on the path to a leaf of the source's predecessor tree, so the paths
    to the leaves check every step."""
    for i, v in enumerate(sources):
        assert (c.rows([v])[0] == want_dist[i]).all(), v
        for x in np.setdiff1d(np.arange(len(vertices)), want_pred[i]).tolist():
            want = oracles.reference_path(vertices, want_dist[i], want_pred[i], x)
            assert c.path_edges(v, vertices[x]) == want, (v, vertices[x])
    assert list(c.vertices) == vertices


def _positive_weight_cases():
    """Closures the batch and the dense pass both take: unit weights tie
    everywhere, and random weights."""
    return ([grid_instance(12, 12, max_weight=1, terminal_stride=5), tie_instances()[0]]
            + make_batch(60, seed0=150, max_vertices=12))


def test_closure_batch_matches_eager_reference(monkeypatch):
    # Positive weights: one Δ-stepping batch computes every row asked for,
    # and paths walk its rows' tight arcs. The 30 x 30 grid
    # is the benchmark's shape.
    _batch_every_read(monkeypatch)
    calls = recording_closure_paths(monkeypatch)
    bench_grid = grid_instance(30, 30, seed=1, terminal_stride=30)
    cases = [(inst, None) for inst in _positive_weight_cases()]
    cases.append((bench_grid, sorted(bench_grid.terminals)))
    for inst, sources in cases:
        vertices, want_dist, want_pred = oracles.reference_closure(inst, sources)
        sources = sources or vertices
        calls["batches"].clear()
        c = metric_closure(inst)
        assert (c.rows(sources) == want_dist).all(), inst.name
        assert calls["batches"] == [(len(sources), True)]
        assert c.rows_computed == len(sources)
        _assert_rows_and_paths(c, vertices, want_dist, want_pred, sources)
        if len(sources) == len(vertices):  # the matrix takes the rows over
            assert (c.dist == want_dist).all()
    assert calls["dijkstra"] == 0 and calls["dense"] == []


def _int32_bound_path(total):
    """A 6-vertex path whose weights sum to `total`, its end-to-end
    distance."""
    weights = [2**27] * 4 + [total - 4 * 2**27]
    return Instance.build(6, [(v, v + 1, w) for v, w in enumerate(weights, 1)], [1, 4, 6],
                          name=f"total-{total}")


def test_closure_dense_pass_matches_eager_reference(monkeypatch):
    # The first read computes every row in one dense pass, whatever it
    # asks for; paths walk its rows' tight arcs. The pass
    # runs in int32 while the sentinel, the total weight plus 1, sums with
    # itself below 2**31, else in int64, with equal rows either way.
    _dense_every_read(monkeypatch)
    calls = recording_closure_paths(monkeypatch)
    cases = [(inst, None) for inst in _positive_weight_cases()]
    cases.append((random_instance(95008, 60, 20, extra_edges=120), None))  # the k4-dp shape
    cases += [(_int32_bound_path(2**30 - 2), np.int32), (_int32_bound_path(2**30 - 1), np.int64)]
    for inst, dtype in cases:
        vertices, want_dist, want_pred = oracles.reference_closure(inst)
        calls["dense"].clear()
        c = metric_closure(inst)
        terms = sorted(inst.terminals)
        with recording_work_dtypes(core) as chosen:
            assert (c.rows(terms) == want_dist[[c.index[t] for t in terms]]).all(), inst.name
        assert calls["dense"] == [len(vertices)] and c.rows_computed == len(vertices)
        if dtype is not None:
            assert chosen == [dtype] and want_dist.max() == sum(w for *_, w in inst.edges)
        # Every later read, the matrix included, computes nothing.
        assert c.dist is c.dist and (c.dist == want_dist).all()
        _assert_rows_and_paths(c, vertices, want_dist, want_pred, vertices)
        assert calls["dense"] == [len(vertices)] and c.rows_computed == len(vertices)
    assert calls["dijkstra"] == 0 and calls["batches"] == []


def test_zero_weight_closures_take_the_dijkstra_path(monkeypatch):
    calls = recording_closure_paths(monkeypatch)
    for force in (_batch_every_read, _dense_every_read):
        force(monkeypatch)
        for inst in (_odd_instance(), tie_instances()[1]):
            vertices, want_dist, want_pred = oracles.reference_closure(inst)
            c = metric_closure(inst)
            assert (c.dist == want_dist).all()
            _assert_rows_and_paths(c, vertices, want_dist, want_pred, vertices)
            assert calls["dijkstra"] == len(vertices)
            assert calls["batches"] == [] and calls["dense"] == []
            calls["dijkstra"] = 0


def _weighted_path(n, seed):
    """A path 1 - 2 - ... - n with weights 1..9, and its closure rows from
    `sources` in closed form: prefix-sum differences, each predecessor
    one step toward the source."""
    rng = random.Random(seed)
    weights = [rng.randint(1, 9) for _ in range(n - 1)]
    inst = Instance.build(n, [(v, v + 1, w) for v, w in enumerate(weights, 1)], [1, n])
    prefix = np.concatenate([[0], np.cumsum(weights)])
    cols = np.arange(n)

    def rows(sources):
        dist = np.array([np.abs(prefix - prefix[s - 1]) for s in sources])
        pred = np.array([np.where(cols < s - 1, cols + 1, cols - 1) for s in sources])
        for i, s in enumerate(sources):
            pred[i, s - 1] = -1
        return dist, pred

    return inst, rows


def test_closure_batch_out_of_rounds_reruns_its_sources(monkeypatch):
    # A path needs one round per hop. With rounds for about ten, the batch
    # gives up and Dijkstra recomputes its rows; with enough it finishes.
    inst, reference = _weighted_path(3000, seed=4)
    sources = [1, 1700, 3000]
    want_dist, want_pred = reference(sources)
    calls = recording_closure_paths(monkeypatch)
    work = len(sources) * (3000 + 2 * 2999)
    for round_work, finished in ((work // 10, False), (1, True)):
        monkeypatch.setattr(core, "ROUND_WORK", round_work)
        calls["batches"].clear()
        calls["dijkstra"] = 0
        c = metric_closure(inst)
        assert (c.rows(sources) == want_dist).all()
        assert calls["batches"] == [(3, finished)]
        assert calls["dijkstra"] == (0 if finished else 3)
        assert c.rows_computed == 3
        # The paths to both ends step through every vertex's predecessor.
        for i, s in enumerate(sources):
            for end in {1, 3000} - {s}:
                want = oracles.reference_path(range(1, 3001), want_dist[i], want_pred[i], end - 1)
                assert c.path_edges(s, end) == want


def test_closure_batches_from_the_stated_work(monkeypatch):
    # A batch of S rows is S * (V + 2E) units; it runs from BATCH_MIN_WORK.
    calls = recording_closure_paths(monkeypatch)
    monkeypatch.setattr(core, "ROUND_WORK", 1)
    monkeypatch.setattr(core, "DENSE_PIVOT_NS", math.inf)
    inst = grid_instance(6, 6, seed=3, terminal_stride=4)
    terms = sorted(inst.terminals)
    work = len(terms) * (36 + 2 * len(inst.edges))
    want = oracles.reference_closure(inst, terms)[1][:, [t - 1 for t in terms]]
    for bound, batches in ((work + 1, []), (work, [(len(terms), True)])):
        monkeypatch.setattr(core, "BATCH_MIN_WORK", bound)
        calls["batches"].clear()
        assert (metric_closure(inst).block(terms) == want).all()
        assert calls["batches"] == batches
    assert calls["dijkstra"] == len(terms)
    # Past BATCH_MAX_WORK units the rows split into several batches.
    monkeypatch.setattr(core, "BATCH_MIN_WORK", 0)
    monkeypatch.setattr(core, "BATCH_MAX_WORK", 2 * work // len(terms) + 1)
    calls["batches"].clear()
    assert (metric_closure(inst).block(terms) == want).all()
    assert calls["batches"] == [(2, True)] * (len(terms) // 2) + [(1, True)] * (len(terms) % 2)
    # The benchmark's shapes sit on either side of the stated constant: all
    # rows of the small oracle corpus's largest instances run Dijkstra, the
    # rows of the 60-vertex k=4 instances do not, 20 of them already.
    monkeypatch.undo()
    corpus = random_instance(1, 16, 10, extra_edges=16)
    k4 = random_instance(1, 60, 20, extra_edges=120)
    assert 16 * (16 + 2 * 31) < core.BATCH_MIN_WORK <= 20 * (60 + 2 * 179)
    assert [len(i.edge_weights) for i in (corpus, k4)] == [31, 179]


def test_closure_path_follows_the_estimates(monkeypatch, caplog):
    # Above BATCH_MIN_WORK the smaller estimate runs: the dense pass for
    # every row of the k4-dp shape and the terminal rows of the
    # many-terminals shape and of family(160, 1), whose int32 pass costs
    # less than the batch though an int64 one would not, the batch for a
    # 900-vertex grid's terminal rows and, at k=4, for all its rows. One
    # debug line names the path.
    grid = grid_instance(30, 30, seed=1, terminal_stride=30)
    k4 = random_instance(1, 60, 20, extra_edges=120)
    shapes = [(random_instance(1, 16, 10, extra_edges=16), 16, "dijkstra"),
              (k4, 60, "dense"),
              (family(80, 1), 80, "dense"),
              (family(160, 1), 160, "dense"),
              (grid, 31, "batch"),
              (grid, 900, "batch")]
    for inst, count, path in shapes:
        assert metric_closure(inst)._path(count)[0] == path, (inst.name, count)
    _, batch, dense = metric_closure(family(160, 1))._path(160)
    assert dense < batch < 240 * (core.DENSE_PIVOT_NS + core.DENSE_ENTRY_NS * 240**2)
    # The dense pass computes every row, so it runs only before any row:
    # after one row by Dijkstra, the other 59 of the k4-dp shape batch.
    calls = recording_closure_paths(monkeypatch)
    c = metric_closure(k4)
    c.rows([min(k4.terminals)])
    assert (c.dist == oracles.reference_closure(k4)[1]).all() and c.rows_computed == 60
    assert calls == {"batches": [(59, True)], "dense": [], "dijkstra": 1}
    with caplog.at_level("DEBUG", logger="steinertree.core"):
        metric_closure(grid).rows(sorted(grid.terminals))
    (line,) = [r.getMessage() for r in caplog.records]
    assert line.startswith("closure: batch for 31 rows over 900 vertices (estimates: batch ")


def test_dense_pass_fits_the_dense_budget(monkeypatch):
    # The dense pass's matrix and temporary, 16 V^2 bytes, count against
    # DENSE_BUDGET; above it the batch runs.
    calls = recording_closure_paths(monkeypatch)
    inst = random_instance(1, 60, 20, extra_edges=120)
    want = oracles.reference_closure(inst)[1]
    for budget, batches, dense in ((16 * 60 * 60 - 1, [(60, True)], []),
                                   (16 * 60 * 60, [], [60])):
        monkeypatch.setattr(dreyfus_wagner, "DENSE_BUDGET", budget)
        calls["batches"].clear()
        calls["dense"].clear()
        assert (metric_closure(inst).dist == want).all()
        assert calls["batches"] == batches and calls["dense"] == dense


def test_expand_reads_its_rows_in_one_pass(monkeypatch):
    # The source rows an expand misses come from one batch, or the dense
    # pass, and an expand over computed rows computes none. Paths over
    # either walk tight arcs to Dijkstra's choice; unit weights tie
    # everywhere.
    calls = recording_closure_paths(monkeypatch)
    for force, inst in itertools.product(
            (_batch_every_read, _dense_every_read),
            (tie_instances()[0], grid_instance(12, 12, max_weight=1, terminal_stride=5),
             grid_instance(9, 7, max_weight=1, seed=2, terminal_stride=2))):
        force(monkeypatch)
        vertices, want_dist, want_pred = oracles.reference_closure(inst)
        c = metric_closure(inst)
        sources = vertices[::3]
        root = min(inst.terminals)
        calls["batches"].clear()
        calls["dense"].clear()
        c.expand([(u, root) for u in sources], sorted({root, *sources}))
        if force is _batch_every_read:
            assert calls["batches"] == [(len(sources), True)] and calls["dense"] == []
        else:
            assert calls["batches"] == [] and calls["dense"] == [len(vertices)]
        assert c.path_edges(root, root) == []
        at = [c.index[u] for u in sources]
        _assert_rows_and_paths(c, vertices, want_dist[at], want_pred[at], sources)
        computed = c.rows_computed
        c.expand([(sources[0], vertices[-1])], [sources[0], vertices[-1]])
        assert c.rows_computed == computed
        assert len(calls["batches"]) + len(calls["dense"]) == 1
    assert calls["dijkstra"] == 0


def test_expand_keeps_the_predecessors_of_dijkstra_rows(monkeypatch):
    calls = recording_closure_paths(monkeypatch)
    inst = tie_instances()[1]  # zero weights: every row runs Dijkstra
    vertices, want_dist, want_pred = oracles.reference_closure(inst)
    c = metric_closure(inst)
    c.rows(vertices)
    stored = dict(c._pred)
    c.expand([(u, vertices[0]) for u in vertices[1:]], vertices)
    assert calls["dijkstra"] == len(vertices) and c.rows_computed == len(vertices)
    assert len(c._pred) == len(vertices)
    for i in range(len(vertices)):
        assert c._pred[i] is stored[i] and (stored[i] == want_pred[i]).all()
    _assert_rows_and_paths(c, vertices, want_dist, want_pred, vertices)


def _tight_arc_step(closure, row, x):
    """The step back from column x that the tight-arc walk of
    `path_edges` takes over `row`: the tight neighbor of largest weight,
    ties going to the smallest column, here with zero weights allowed."""
    tight = [(-w, y) for y, w in closure._adj[x] if row[y] + w == row[x]]
    return min(tight)[1]


def test_zero_weight_paths_need_dijkstras_predecessors():
    # With a zero-weight edge the pop order no longer follows distance
    # alone, so the tight-arc walk can leave Dijkstra's path: on this
    # instance it steps elsewhere at 3 (source, vertex) pairs, on 7 paths.
    # Dijkstra's stored predecessors give the reference path everywhere.
    inst = _odd_instance()
    vertices, want_dist, want_pred = oracles.reference_closure(inst)
    c = metric_closure(inst)
    _assert_rows_and_paths(c, vertices, want_dist, want_pred, vertices)
    differ = [(i, x) for i in range(len(vertices)) for x in range(len(vertices))
              if x != i and _tight_arc_step(c, want_dist[i], x) != want_pred[i, x]]
    assert differ


def test_closure_rows_compute_each_missing_row_once(monkeypatch):
    _batch_every_read(monkeypatch)
    calls = recording_closure_paths(monkeypatch)
    inst = grid_instance(8, 8, seed=5, terminal_stride=3)
    vertices, want_dist, _ = oracles.reference_closure(inst)
    c = metric_closure(inst)
    c.rows([5, 9])
    got = c.rows([9, 1, 5, 1, 30, 9])
    assert (got == want_dist[[8, 0, 4, 0, 29, 8]]).all()
    assert calls["batches"] == [(2, True), (2, True)]
    assert c.rows_computed == 4
    c.dist
    assert calls["batches"][-1] == (60, True) and c.rows_computed == 64
    assert (c.dist == want_dist).all()


# ------------------------------
# Spanning trees
# ------------------------------

def test_mst_star3_closure(star3):
    c = metric_closure(star3)
    t = minimum_spanning_tree(star3.terminals, c.block(sorted(star3.terminals)))
    assert t.total_cost == 4


def test_mst_two_terminals():
    inst = Instance.build(2, [(1, 2, 5)], [1, 2])
    c = metric_closure(inst)
    t = minimum_spanning_tree([1, 2], c.block([1, 2]))
    assert t.total_cost == 5 and len(t.edges) == 1


def test_mst_triangle():
    # a-b=1, b-c=1, a-c=3: the cheap path wins.
    t = minimum_spanning_tree([1, 2, 3], np.array([[0, 1, 3], [1, 0, 1], [3, 1, 0]]))
    assert t.total_cost == 2
    assert sorted((u, v) for u, v, _ in t.edges) == [(1, 2), (2, 3)]


def test_mst_matches_enumeration_oracle():
    for inst in make_batch(25, seed0=300, max_vertices=7):
        reach = sorted(inst.terminal_component)
        edges = [e for e in inst.edges if e[0] in reach and e[1] in reach]
        want = oracles.mst_cost_enumerate(reach, edges)
        # Compare through the closure MST over all reachable vertices, which
        # for the full vertex set equals the graph MST.
        c = metric_closure(inst)
        t = minimum_spanning_tree(reach, c.block(reach))
        assert t.total_cost <= (want if want is not None else t.total_cost)
        if want is not None:
            # Closure never beats the true MST on the same vertex set when
            # every closure edge is realized by a path; equality holds because
            # closure weights equal original weights on adjacent pairs.
            assert t.total_cost == want


def test_mst_from_block_matches_oracle_and_kruskal():
    # The block gives the tree a Kruskal under edge_key gives, with the
    # edges in (smaller, larger) pair order, and the oracle's MST cost.
    for inst in make_batch(40, seed0=320, max_vertices=12):
        c = metric_closure(inst)
        terms = sorted(inst.terminals)
        pairs = [(u, v, c.distance(u, v)) for u, v in itertools.combinations(terms, 2)]
        want = [pairs[i] for i in kruskal_indices(terms, pairs)]
        from_block = minimum_spanning_tree(terms, c.block(terms))
        assert list(from_block.edges) == want, inst.name
        assert from_block.total_cost == oracles.mst_cost_kruskal(terms, pairs)


def test_mst_ties_follow_edge_key():
    # Equal weights are taken in (smaller, larger) endpoint order: (2, 5)
    # comes before (3, 4), so it joins {1, 2, 4} to {3, 5}. Ordering ties by
    # the larger endpoint first would keep (3, 4) instead.
    weights = {(1, 2): 1, (1, 3): 2, (1, 4): 0, (1, 5): 2, (2, 3): 2,
               (2, 4): 2, (2, 5): 1, (3, 4): 1, (3, 5): 0, (4, 5): 2}
    matrix = np.zeros((5, 5), dtype=np.int64)
    for (u, v), w in weights.items():
        matrix[u - 1, v - 1] = matrix[v - 1, u - 1] = w
    t = minimum_spanning_tree(range(1, 6), matrix)
    assert t.edges == ((1, 2, 1), (1, 4, 0), (2, 5, 1), (3, 5, 0))


def test_mst_deterministic_under_input_shuffle():
    inst = make_batch(1, seed0=400, max_vertices=10)[0]
    c = metric_closure(inst)
    terms = sorted(inst.terminals)
    base = minimum_spanning_tree(terms, c.block(terms))
    for s in range(5):
        shuffled = list(inst.edges)
        random.Random(s).shuffle(shuffled)
        inst2 = Instance.build(inst.vertex_count, shuffled, inst.terminals)
        c2 = metric_closure(inst2)
        t2 = minimum_spanning_tree(terms, c2.block(terms))
        assert t2.edges == base.edges


def test_kruskal_disconnected_raises():
    with pytest.raises(DisconnectedInputError):
        kruskal_indices([1, 2, 3, 4], [(1, 2, 1), (3, 4, 1)])


def test_kruskal_matches_reference_on_tied_multigraphs():
    # Weights in {0, 1, 2} tie heavily; exact duplicates appear in both
    # orientations, self-loops and tagged rows are mixed in, and merged
    # groups join some nodes up front. The lexsort Kruskal keeps the same
    # indices as the Python-sorted reference, or both raise.
    rng = random.Random(909)
    outcomes = set()
    for _ in range(400):
        nodes = rng.sample(range(1, 40), rng.randint(1, 9))
        edges = []
        if rng.random() < 0.8:  # a spanning path, so most trials connect
            order = rng.sample(nodes, len(nodes))
            edges += [(a, b, rng.randint(0, 2)) for a, b in zip(order, order[1:])]
        edges += [(rng.choice(nodes), rng.choice(nodes), rng.randint(0, 2))
                  for _ in range(rng.randint(0, 3 * len(nodes)))]
        for u, v, w in rng.sample(edges, min(4, len(edges))):
            edges.insert(rng.randint(0, len(edges)), (v, u, w) if rng.random() < 0.5 else (u, v, w))
        edges = [e + ("tag", i) if rng.random() < 0.3 else e for i, e in enumerate(edges)]
        groups = [rng.sample(nodes, rng.randint(1, len(nodes)))
                  for _ in range(rng.randint(0, 2))]
        # The same rows as an (edges x 3) int64 array, empty included.
        table = np.array([e[:3] for e in edges], dtype=np.int64).reshape(-1, 3)
        try:
            want = oracles.reference_kruskal_indices(nodes, edges, groups)
        except DisconnectedInputError:
            for given in (edges, table):
                with pytest.raises(DisconnectedInputError):
                    kruskal_indices(nodes, given, groups)
            outcomes.add("disconnected")
        else:
            assert kruskal_indices(nodes, edges, groups) == want, (nodes, edges, groups)
            assert kruskal_indices(nodes, table, groups) == want, (nodes, edges, groups)
            outcomes.add("tree")
        if not edges:
            outcomes.add("empty")
    assert outcomes == {"tree", "disconnected", "empty"}


def test_kruskal_numbers_any_node_ids():
    # The union-find numbers the nodes 0..n-1 whatever their ids: ids near
    # 2**62 and negative ones, an empty merged group and a one-node group.
    # A single node keeps no edge.
    big = 2**62
    nodes = [big + 3, -5, 7, big]
    edges = [(big + 3, -5, 2), (-5, 7, 1), (7, big, 1), (big, big + 3, 1), (7, 7, 0)]
    assert kruskal_indices(nodes, edges) == [1, 2, 3]
    assert kruskal_indices(nodes, edges, [[], [7], [-5, big + 3]]) == [1, 2]
    assert kruskal_indices([7, 7], [(7, 7, 0), (7, 7, 3)]) == []
    with pytest.raises(DisconnectedInputError):
        kruskal_indices([], [])


# ------------------------------
# Tree helpers
# ------------------------------

def test_tree_from_edges_validates():
    t = Tree.from_edges([(1, 2, 3), (2, 3, 4)], [1, 2, 3])
    assert t.total_cost == 7
    with pytest.raises(InvalidInstanceError):
        Tree.from_edges([(1, 2, 1), (2, 3, 1), (1, 3, 1)], [1, 2, 3])  # cycle
    with pytest.raises(InvalidInstanceError):
        # n - 1 edges, but a cycle among 1, 2, 3 leaves 4 unreached.
        Tree.from_edges([(1, 2, 1), (2, 3, 1), (1, 3, 1)], [1, 2, 3, 4])
    with pytest.raises(InvalidInstanceError):
        Tree.from_edges([(1, 2, 1), (2, 2, 1)], [1, 2, 3])  # a self-loop
    with pytest.raises(InvalidInstanceError):
        Tree.from_edges([(5, 5, 0)], [5])
    with pytest.raises(InvalidInstanceError):
        Tree.from_edges([], [])
    single = Tree.from_edges([], [5])
    assert single.nodes == {5} and single.edges == () and single.total_cost == 0


def test_connected_parts_examples():
    # Parts come in order of their first node; isolated nodes are their own
    # parts, and parallel edges and self-loops join nothing more.
    assert connected_parts([], []) == []
    assert connected_parts([4], [(4, 4, 0)]) == [{4}]
    edges = [(7, 3, 1), (3, 7, 2), (9, 9, 0), (2, 9, 5), (3, 7, 1)]
    assert connected_parts([9, 1, 3, 2, 7, 8], edges) == [{9, 2}, {1}, {3, 7}, {8}]
    assert connected_parts([1, 2, 3, 4, 5], [(5, 4, 1), (4, 3, 1), (3, 2, 1), (2, 1, 1)]) == [
        {1, 2, 3, 4, 5}]
    rng = random.Random(5)
    for _ in range(200):
        nodes = rng.sample(range(30), rng.randint(1, 12))
        edges = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randint(0, 12))]
        parts = connected_parts(nodes, edges)
        assert sorted(x for p in parts for x in p) == sorted(nodes)
        assert [min(p, key=nodes.index) for p in parts] == sorted(
            (min(p, key=nodes.index) for p in parts), key=nodes.index)
        where = {x: i for i, p in enumerate(parts) for x in p}
        assert all(where[u] == where[v] for u, v in edges)
        # A part splits into no two sides without an edge between them.
        for p in parts:
            reached, stack = set(), [next(iter(p))]
            while stack:
                x = stack.pop()
                if x not in reached:
                    reached.add(x)
                    stack += [v for u, v in edges if u == x] + [u for u, v in edges if v == x]
            assert reached == p


def test_bottleneck_edge_examples():
    t = Tree.from_edges([(1, 2, 1), (2, 3, 3)], [1, 2, 3])
    assert oracles.bottleneck_edge(t, 1, 3) == (2, 3, 3)
    t = Tree.from_edges([(4, 1, 1), (4, 2, 2), (4, 3, 4)], [1, 2, 3, 4])
    assert oracles.bottleneck_edge(t, 1, 3)[2] == 4
    with pytest.raises(ValueError):
        oracles.bottleneck_edge(t, 2, 2)


def test_bottleneck_edge_matches_bruteforce():
    for inst in make_batch(15, seed0=500, max_vertices=10):
        c = metric_closure(inst)
        terms = sorted(inst.terminals)
        t = minimum_spanning_tree(terms, c.block(terms))
        for u in terms:
            for v in terms:
                if u >= v:
                    continue
                got = oracles.bottleneck_edge(t, u, v)[2]
                want = oracles.path_bottleneck_bruteforce(t.edges, u, v)
                assert got == want


def test_prune_leaves_drops_interior_chains():
    edges = [(1, 5, 1), (5, 6, 1), (6, 2, 1), (6, 7, 1)]
    kept = prune_leaves(edges, [1, 2])
    assert (6, 7, 1) not in kept
    assert len(kept) == 3


# ------------------------------
# Contracted trees: savings and zero-set contraction
# ------------------------------

def _closure_mst(inst):
    c = metric_closure(inst)
    return minimum_spanning_tree(inst.terminals, c.block(sorted(inst.terminals)))


def _savings(view, groups):
    """pool.savings_for over a pool with one row per group: a star of its
    terminals around an interior node no tree uses."""
    hub = max(x for g in groups for x in g) + 1
    table = candidate_table([(t, hub, 1) for t in g] for g in groups)
    return CandidatePool(table).savings_for(view).tolist()


def _groups(rng, terms, extra):
    """One random group of every size 2..len(terms), then `extra` more."""
    sizes = list(range(2, len(terms) + 1))
    sizes += [rng.randint(2, len(terms)) for _ in range(extra)]
    return [rng.sample(terms, m) for m in sizes]


def test_zero_set_examples(star3):
    t = _closure_mst(star3)  # cost 4
    view = ContractedTree.from_tree(t)
    assert oracles.mst_with_zero_set(view, [1, 2, 3]) == 0
    assert _savings(view, [[1, 2, 3]]) == [4]
    # Single-member group changes nothing.
    assert oracles.mst_with_zero_set(view, [2]) == 4

    path = ContractedTree.from_tree(Tree.from_edges([(1, 2, 2), (2, 3, 2)], [1, 2, 3]))
    assert oracles.mst_with_zero_set(path, [1, 2]) == 2


def test_contract_zero_set_sequence():
    view = ContractedTree.from_tree(Tree.from_edges([(1, 2, 2), (2, 3, 2)], [1, 2, 3]))
    after = view.contract_zero_set([1, 2])
    assert after.cost == 2
    again = after.contract_zero_set([1, 2])  # idempotent
    assert again.cost == 2
    done = after.contract_zero_set([2, 3])
    assert done.cost == 0


def test_contract_unknown_node():
    view = ContractedTree.from_tree(Tree.from_edges([(1, 2, 2)], [1, 2]))
    with pytest.raises(UnknownNodeError):
        view.contract_zero_set([1, 9])


def test_saving_matches_from_scratch_oracle():
    # The batched bottleneck-matrix sum must agree with a from-scratch
    # Kruskal over the tree plus an explicit zero clique, for every group
    # size.
    rng = random.Random(7)
    for inst in make_batch(25, seed0=600, max_vertices=11):
        t = _closure_mst(inst)
        view = ContractedTree.from_tree(t)
        groups = _groups(rng, sorted(inst.terminals), 6)
        want = [oracles.saving_of_group(t.edges, g) for g in groups]
        assert _savings(view, groups) == want
        for group, saving in zip(groups, want):
            assert oracles.mst_with_zero_set(view, group) == t.total_cost - saving


def test_saving_after_contraction_matches_oracle():
    # Same cross-check on a tree that already has a merged group. The
    # contracted tree is an MST of (tree + zero clique), so the saving of a
    # second group is the difference of two from-scratch MST costs; any edge
    # the first contraction displaced is gone and must stay gone.
    rng = random.Random(11)
    for inst in make_batch(10, seed0=700, max_vertices=11, max_terminals=7):
        t = _closure_mst(inst)
        terms = sorted(inst.terminals)
        if len(terms) < 4:
            continue
        first = rng.sample(terms, 2)
        view = ContractedTree.from_tree(t).contract_zero_set(first)
        zero1 = [(a, b, 0) for a, b in itertools.combinations(sorted(first), 2)]
        cost1 = oracles.mst_cost_kruskal(t.nodes, list(t.edges) + zero1)
        assert view.cost == cost1
        groups = _groups(rng, terms, 4)
        want = []
        for group in groups:
            zero2 = [(a, b, 0) for a, b in itertools.combinations(sorted(group), 2)]
            cost2 = oracles.mst_cost_kruskal(t.nodes, list(t.edges) + zero1 + zero2)
            want.append(cost1 - cost2)
            assert oracles.mst_with_zero_set(view, group) == cost2
        assert _savings(view, groups) == want
        # A group inside the merged pair saves nothing more.
        assert _savings(view, [sorted(first)]) == [0]


def test_pool_savings_at_weight_headroom_k4():
    # Scaled weights sum to just below WEIGHT_LIMIT. On the five-spoke star
    # every terminal pair is 2W apart, so the terminal MST costs 8W, about
    # 0.8 * 2**60, and a 4-terminal saving is 6W. Every k=4 row's batched
    # saving must equal the from-scratch one, before and after a
    # contraction.
    spoke = (WEIGHT_LIMIT - 1) // 5
    cases = [Instance.build(6, [(1, t, spoke) for t in range(2, 7)], range(2, 7))]
    for seed in (34, 42, 46):
        small = random_instance(seed, 12, 7, extra_edges=4, max_weight=20)
        c = (WEIGHT_LIMIT - 1) // sum(w for _, _, w in small.edges)
        cases.append(Instance.build(small.vertex_count,
                                    [(u, v, w * c) for u, v, w in small.edges],
                                    small.terminals))
    for inst in cases:
        assert WEIGHT_LIMIT - 20 * 12**2 < sum(w for _, _, w in inst.edges) < WEIGHT_LIMIT
        closure = metric_closure(inst)
        t = minimum_spanning_tree(inst.terminals, closure.block(sorted(inst.terminals)))
        pool = CandidatePool(enumerate_full_components(inst, closure, 4))
        rows = [row.terminals for row in pool.candidates]
        assert any(len(r) == 4 for r in rows)
        view = ContractedTree.from_tree(t)
        assert pool.savings_for(view).tolist() == [
            oracles.saving_of_group(t.edges, r) for r in rows]
        after = view.contract_zero_set(rows[0])
        assert pool.savings_for(after).tolist() == [
            after.cost - oracles.mst_with_zero_set(after, r) for r in rows]
    star = ContractedTree.from_tree(
        minimum_spanning_tree(range(2, 7), metric_closure(cases[0]).block([2, 3, 4, 5, 6])))
    assert star.cost == 8 * spoke > 2**59


def _pendant_bottleneck_instance(seed, top):
    """A random graph scaled so its distances stay below top / 2, plus a
    pendant terminal 13 that is `top` from its nearest terminal: the
    terminal MST's largest edge, and so its largest path maximum, is top."""
    small = random_instance(seed, 12, 7, extra_edges=6, max_weight=20)
    c = top // 2 // sum(w for _, _, w in small.edges)
    scaled = [(u, v, w * c) for u, v, w in small.edges]
    near = int(metric_closure(Instance.build(12, scaled, small.terminals))
               .rows(sorted(small.terminals))[:, 0].min())
    return Instance.build(13, scaled + [(1, 13, top - near)], [*small.terminals, 13])


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_pool_savings_at_the_int32_bound(k, side):
    # A saving sums k - 1 path maxima, so the gather narrows to int32 while
    # k - 1 times the largest path maximum it gathers is below 2**31. top is
    # the largest such maximum (2**31 - 1 at k = 2), or one more (2**31).
    top = (2**31 - 1) // (k - 1) + side
    want = (np.int32, np.int64)[side]
    # A star whose every path maximum is top, so a k-terminal saving is
    # (k - 1) * top, scored against a pool of 2..k-terminal stars of cost
    # 1 per spoke; and k-row pools of random graphs with one edge of top in
    # their terminal MSTs.
    leaves = range(1, k + 3)
    groups = [g for m in range(2, k + 1) for g in itertools.combinations(leaves, m)]
    cases = [(CandidatePool(candidate_table([(t, 50, 1) for t in g] for g in groups)),
              Tree.from_edges([(t, 100, top) for t in leaves], leaves))]
    for seed in (52, 53):
        inst = _pendant_bottleneck_instance(seed, top)
        closure = metric_closure(inst)
        cases.append((CandidatePool(enumerate_full_components(inst, closure, k)),
                      minimum_spanning_tree(inst.terminals, closure.block(sorted(inst.terminals)))))
    for pool, t in cases:
        assert pool.table.pos.shape[1] == k
        rows = [row.terminals for row in pool.candidates]
        view = ContractedTree.from_tree(t)
        assert view.bottleneck_matrix.max() == top
        with recording_work_dtypes() as chosen:
            got = pool.savings_for(view)
        assert chosen == [want]
        assert got.dtype == np.int64  # widened where it leaves the kernel
        assert got.tolist() == [oracles.saving_of_group(t.edges, r) for r in rows]
        # Contracting two terminals other than the pendant one keeps top.
        after = view.contract_zero_set(rows[0][:2])
        with recording_work_dtypes() as chosen:
            got = pool.savings_for(after)
        assert chosen == [want]
        assert got.tolist() == [after.cost - oracles.mst_with_zero_set(after, r) for r in rows]
    star, star_tree = cases[0]
    assert star.savings_for(ContractedTree.from_tree(star_tree)).max() == (k - 1) * top
    # Every pool cost is far below the tree's path maxima: a bound taken
    # from the pool would narrow, and at one more than top, wrap.
    assert components._work_dtype(star.costs, k - 1) == np.int32


def test_bottleneck_matrix_matches_bruteforce():
    rng = random.Random(13)
    for inst in make_batch(15, seed0=800, max_vertices=11, max_terminals=7):
        t = _closure_mst(inst)
        view = ContractedTree.from_tree(t)
        terms = sorted(inst.terminals)
        if len(terms) >= 3:
            view = view.contract_zero_set(rng.sample(terms, 2))
        mat = view.bottleneck_matrix
        for a, b in itertools.combinations(view.reps, 2):
            want = oracles.path_bottleneck_bruteforce(view.edges, a, b)
            ia, ib = view.rep_index[a], view.rep_index[b]
            assert mat[ia, ib] == mat[ib, ia] == want
        assert not mat.diagonal().any()


def _random_tree(rng, nodes, weights):
    """Random labelled tree on `nodes`, weights drawn from `weights`."""
    order = rng.sample(nodes, len(nodes))
    return Tree.from_edges([(order[i], rng.choice(order[:i]), rng.choice(weights))
                            for i in range(1, len(order))], nodes)


def _matrix_from_scratch(view):
    """The bottleneck matrix of a copy of `view` that carries nothing."""
    return ContractedTree(view.rep_of, view.edges).bottleneck_matrix


def test_carried_bottleneck_matrix_matches_rebuild_and_bruteforce():
    # Contraction updates a matrix already built instead of rebuilding it.
    # Read it before every contraction, over sequences of 1-4 contractions
    # on trees with zero-weight and tied edges, including a group already
    # merged and a group of one representative.
    rng = random.Random(17)
    carried = 0
    for trial in range(300):
        nodes = rng.sample(range(1, 30), rng.randint(2, 9))
        view = ContractedTree.from_tree(_random_tree(rng, nodes, [0, 1, 1, 2, 3]))
        for _ in range(rng.randint(1, 4)):
            view.bottleneck_matrix
            kind = rng.random()
            if kind < 0.15:  # members of one representative, maybe a merged one
                rep = rng.choice(view.reps)
                group = [x for x in view.rep_of if view.rep_of[x] == rep]
            elif kind < 0.3 and len(view.reps) < len(view.rep_of):  # touches a merged group
                merged = [x for x in view.rep_of if view.rep_of[x] != x]
                group = [rng.choice(merged), rng.choice(nodes)]
            else:
                group = rng.sample(nodes, rng.randint(2, len(nodes)))
            after = view.contract_zero_set(group)
            if after is view:
                continue
            assert after._bottleneck is not None
            carried += 1
            mat = after.bottleneck_matrix
            assert mat.tolist() == _matrix_from_scratch(after).tolist()
            for a, b in itertools.combinations(after.reps, 2):
                want = oracles.path_bottleneck_bruteforce(after.edges, a, b)
                ia, ib = after.rep_index[a], after.rep_index[b]
                assert mat[ia, ib] == mat[ib, ia] == want
            view = after
    assert carried > 300


def test_tree_paths_examples():
    # A path 1-2-3-4 with a branch 2-5: the edges between the members, in
    # input order, and none for a single member.
    edges = [(2, 3, 1), (1, 2, 1), (3, 4, 1, "tag"), (2, 5, 1)]
    assert tree_paths(edges, [1, 3]) == [0, 1]
    assert tree_paths(edges, [5, 4]) == [0, 2, 3]
    assert tree_paths(edges, [1, 2, 3, 4, 5]) == [0, 1, 2, 3]
    assert tree_paths(edges, [3]) == []
    with pytest.raises(InternalInvariantError, match="not reached"):
        tree_paths([(1, 2, 1), (3, 4, 1)], [1, 4])


def test_contraction_over_the_paths_matches_a_full_kruskal():
    # Kruskal runs over the group's tree paths only. On random trees with
    # tied weights, zero-weight edges and representatives standing for
    # zero-distance filler nodes, groups of 2-5 nodes give the edges, their
    # order and rep_of of one Kruskal over every remapped edge, and the
    # carried matrix of a fresh fill.
    rng = random.Random(29)
    restricted = 0
    for trial in range(400):
        nodes = rng.sample(range(1, 50), rng.randint(2, 14))
        reps = sorted(rng.sample(nodes, rng.randint(2, len(nodes))))
        rep_of = {x: (x if x in reps else rng.choice(reps)) for x in nodes}
        view = ContractedTree(rep_of, _random_tree(rng, reps, [0, 1, 1, 2, 3]).edges)
        for _ in range(rng.randint(1, 3)):
            view.bottleneck_matrix
            group = rng.sample(nodes, min(len(nodes), rng.randint(2, 5)))
            after = view.contract_zero_set(group)
            want_rep_of, want_edges = oracles.contraction_by_full_kruskal(view, group)
            assert after.rep_of == want_rep_of, (view.rep_of, view.edges, group)
            assert list(after.edges) == want_edges, (view.rep_of, view.edges, group)
            assert after.bottleneck_matrix.tolist() == _matrix_from_scratch(after).tolist()
            reps = {view.rep_of[x] for x in group}
            restricted += len(reps) > 1 and len(tree_paths(view.edges, reps)) < len(view.edges)
            view = after
    assert restricted > 300


def _assert_bottlenecks(view):
    mat = view.bottleneck_matrix
    for a, b in itertools.combinations(view.reps, 2):
        want = oracles.path_bottleneck_bruteforce(view.edges, a, b)
        ia, ib = view.rep_index[a], view.rep_index[b]
        assert mat[ia, ib] == mat[ib, ia] == want
    assert mat.shape == (len(view.reps),) * 2 and not mat.diagonal().any()


def test_breadth_first_fill_matches_bruteforce():
    # Trees over representatives that stand for several nodes each, with
    # zero and tied weights; single representatives; and views after a
    # contraction, filled from scratch there.
    rng = random.Random(19)
    for trial in range(200):
        nodes = rng.sample(range(1, 60), rng.randint(1, 14))
        reps = sorted(rng.sample(nodes, rng.randint(1, len(nodes))))
        rep_of = {x: (x if x in reps else rng.choice(reps)) for x in nodes}
        tree = _random_tree(rng, reps, [0, 0, 1, 1, 2, 5])
        view = ContractedTree(rep_of, tree.edges)
        _assert_bottlenecks(view)
        if len(nodes) >= 2:
            after = ContractedTree.from_tree(_random_tree(rng, nodes, [0, 1, 1, 2]))
            after = after.contract_zero_set(rng.sample(nodes, rng.randint(2, len(nodes))))
            assert after._bottleneck is None
            _assert_bottlenecks(after)
    single = ContractedTree({1: 1, 4: 1, 7: 1}, [])
    assert single.bottleneck_matrix.tolist() == [[0]]


@pytest.mark.parametrize("nodes, edges", [
    ([1, 2, 3], [(1, 2, 1), (2, 3, 1), (1, 3, 1)]),     # a cycle, one edge too many
    ([1, 2, 3, 4], [(1, 2, 1), (2, 3, 1), (1, 3, 1)]),  # a cycle, and 4 unreached
    ([1, 2, 3], [(1, 2, 1)]),                           # 3 unreached
    ([1, 2, 3], [(1, 2, 1), (1, 1, 0)]),                # a self-loop instead of an edge
])
def test_breadth_first_fill_rejects_a_non_tree(nodes, edges):
    view = ContractedTree({x: x for x in nodes}, edges)
    with pytest.raises(InternalInvariantError, match="not a spanning tree"):
        view.bottleneck_matrix


def test_contraction_without_a_built_matrix_carries_none():
    view = ContractedTree.from_tree(Tree.from_edges([(1, 2, 2), (2, 3, 1)], [1, 2, 3]))
    after = view.contract_zero_set([1, 3])
    assert after._bottleneck is None
    assert after.bottleneck_matrix.tolist() == [[0, 1], [1, 0]]
