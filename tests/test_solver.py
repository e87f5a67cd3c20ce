import json
import os
import subprocess
import sys

import pytest

import oracles
from conftest import FORCED, force_invariant_failure, make_batch
from steinertree import (
    Instance,
    InvalidInstanceError,
    MetricClosure,
    RunConfig,
    grid_instance,
    metric_closure,
    random_instance,
    solve,
    solver,
)
from steinertree.core import WEIGHT_LIMIT
from steinertree.errors import InputError, InternalInvariantError, LimitExceededError
from steinertree.exact import OPT_LIMIT_CAP, OPTK_LIMIT_CAP
from steinertree.solver import MODES


# ------------------------------
# End-to-end golden run
# ------------------------------

def test_solve_star3_full(star3):
    res = solve(star3, RunConfig(k=3, mode="full"))
    assert res.mst_cost == 4
    assert res.base_cost == 2
    assert res.phase1_cost == 3
    assert res.phase2_cost == 3
    assert res.solution_cost == 3
    assert res.opt_cost == 3
    assert res.restricted_opt_cost == 3
    assert not res.stalled
    assert res.report.ok
    assert sorted(res.solution_edges) == [(1, 4, 1), (2, 4, 1), (3, 4, 1)]


def test_solve_modes(star3):
    # Baseline mode still expands closure edges into real paths; the paths
    # share the hub here, so the emitted subgraph undercuts the metric MST.
    mst_run = solve(star3, RunConfig(mode="mst"))
    assert mst_run.mst_cost == 4
    assert mst_run.solution_cost == 3
    assert mst_run.base_cost is None and mst_run.phase1_cost is None
    assert mst_run.report.checks["base_within_mst"]["ok"] is None

    p1_run = solve(star3, RunConfig(mode="phase1"))
    assert p1_run.phase2_cost is None
    assert p1_run.solution_cost == 3


def test_mst_mode_without_sharing_matches_metric_mst():
    # Adjacent terminals leave nothing to share, so baseline cost is exact.
    inst = Instance.build(3, [(1, 2, 4), (2, 3, 5)], [1, 2, 3])
    res = solve(inst, RunConfig(mode="mst"))
    assert res.solution_cost == res.mst_cost == 9


def test_solve_two_terminals():
    inst = Instance.build(3, [(1, 2, 4), (2, 3, 4), (1, 3, 9)], [1, 3])
    res = solve(inst)
    assert res.solution_cost == 8
    assert sorted(res.solution_edges) == [(1, 2, 4), (2, 3, 4)]


def test_weight_headroom_edge_solves_exactly():
    # The heaviest accepted instance still solves exactly, oracles included.
    inst = Instance.build(4, [(1, 4, WEIGHT_LIMIT - 3), (2, 4, 1), (3, 4, 1)], [1, 2, 3])
    res = solve(inst, RunConfig(k=3))
    assert res.solution_cost == res.opt_cost == res.restricted_opt_cost == WEIGHT_LIMIT - 1
    assert res.report.ok


@pytest.mark.parametrize("vertex_count, edges, terminals", [
    # Spokes of 2**61 once wrapped the exact DP around int64.
    (4, [(1, 4, 2**61), (2, 4, 2**61), (3, 4, 2**61)], [1, 2, 3]),
    # Weights 1/2 .. 1/71 need an 89-bit scale.
    (71, [(i, i + 1, f"1/{i + 1}") for i in range(1, 71)], [1, 71]),
])
def test_weights_beyond_headroom_are_rejected(vertex_count, edges, terminals):
    with pytest.raises(InvalidInstanceError):
        solve(Instance.build(vertex_count, edges, terminals))


def test_config_validation():
    with pytest.raises(InputError):
        solve(Instance.build(2, [(1, 2, 1)], [1, 2]), RunConfig(k=1))
    with pytest.raises(InputError):
        solve(Instance.build(2, [(1, 2, 1)], [1, 2]), RunConfig(mode="nope"))


def test_dense_budget_rejects_the_exact_optimum_of_a_long_path(long_path):
    # The exact optimum reads the closure matrix even in mst mode.
    with pytest.raises(LimitExceededError, match="--exact-opt-limit"):
        solve(long_path, RunConfig(mode="mst"))


def test_config_caps_the_oracle_limits():
    inst = Instance.build(2, [(1, 2, 1)], [1, 2])
    RunConfig(exact_opt_limit=OPT_LIMIT_CAP, exact_optk_limit=OPTK_LIMIT_CAP).validate()
    for config in (RunConfig(exact_opt_limit=OPT_LIMIT_CAP + 1),
                   RunConfig(exact_optk_limit=OPTK_LIMIT_CAP + 1)):
        with pytest.raises(LimitExceededError):
            solve(inst, config)


# ------------------------------
# Solution validity and quality
# ------------------------------

def test_solution_edges_exist_in_instance():
    for inst in make_batch(25, seed0=6000):
        res = solve(inst, RunConfig(k=3))
        weights = {}
        for u, v, w in inst.edges:
            key = (min(u, v), max(u, v))
            weights[key] = min(w, weights.get(key, w))
        for u, v, w in res.solution_edges:
            assert weights[(min(u, v), max(u, v))] == w
        nodes = {x for e in res.solution_edges for x in e[:2]}
        assert set(inst.terminals) <= nodes or len(inst.terminals) == 1


def test_solution_never_above_mst_never_below_opt():
    for inst in make_batch(30, seed0=6100):
        for k in (3, 4):
            res = solve(inst, RunConfig(k=k))
            assert res.opt_cost <= res.solution_cost <= res.mst_cost
            assert res.report.ok, res.report.failed


def test_solution_matches_bruteforce_on_small_instances():
    for inst in make_batch(15, seed0=6200, max_vertices=8, max_terminals=5):
        res = solve(inst, RunConfig(k=3))
        want = oracles.steiner_cost_bruteforce(
            inst.vertex_count, inst.edges, inst.terminals
        )
        assert res.opt_cost == want
        assert res.solution_cost >= want


def test_k4_dp_shape_sweep_solves_with_passing_reports():
    # The benchmark's k=4 shape: 60 vertices, 20 terminals. Seed 95008
    # picks a fully displaced component a second time in phase 1.
    for seed in [95008, *range(95100, 95139)]:
        res = solve(random_instance(seed, 60, 20, extra_edges=120), RunConfig(k=4))
        assert res.report.ok, (seed, res.report.failed)


def test_winner_ties_go_to_phase1(star3):
    res = solve(star3, RunConfig(k=3))
    # Both phases cost 3 here; the reported solution must match phase 1's.
    assert res.phase1_cost == res.phase2_cost == res.solution_cost


def _solve_counting_rows(monkeypatch, instance, config):
    """Solve, returning (result, the closure the solve built)."""
    built = []

    def closure_of(inst):
        built.append(metric_closure(inst))
        return built[-1]

    monkeypatch.setattr(solver, "metric_closure", closure_of)
    return solve(instance, config), built[0]


def test_k3_solve_without_oracles_computes_terminal_rows_only(monkeypatch):
    # At k=3 every closure distance or path the solve reads starts at a
    # terminal: a hub is only ever the far end of a spoke. The terminal
    # MST reads them all first, in one batch.
    inst = grid_instance(30, 30, seed=1, terminal_stride=30)
    batches = []
    batch = MetricClosure._delta_stepping

    def recording_batch(self, out, slots, sources):
        batches.append((len(sources), batch(self, out, slots, sources)))
        return batches[-1][1]

    monkeypatch.setattr(MetricClosure, "_delta_stepping", recording_batch)
    for mode in MODES:
        batches.clear()
        res, closure = _solve_counting_rows(
            monkeypatch, inst, RunConfig(k=3, mode=mode, exact_opt_limit=0, exact_optk_limit=0))
        assert res.report.ok
        assert len(closure.vertices) == 900
        assert closure.rows_computed == len(inst.terminals) == 31
        assert batches == [(31, True)]


def test_solving_imports_only_declared_dependencies():
    # pyproject declares numpy alone. A k=4 solve with both oracles on
    # reads every closure path: batched rows, Dijkstra rows, the tables.
    code = (
        "import sys\n"
        "from steinertree import RunConfig, random_instance, solve\n"
        "res = solve(random_instance(1, 60, 8, extra_edges=120), RunConfig(k=4))\n"
        "assert res.report.ok and res.opt_cost and res.restricted_opt_cost\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(solver.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_k4_and_oracle_solves_compute_every_row_once(monkeypatch):
    inst = grid_instance(6, 6, seed=2, terminal_stride=5)
    assert len(inst.terminals) == 8
    for config in (RunConfig(k=4, exact_opt_limit=0, exact_optk_limit=0),
                   RunConfig(k=3, exact_opt_limit=8, exact_optk_limit=0)):
        res, closure = _solve_counting_rows(monkeypatch, inst, config)
        assert res.report.ok
        assert closure.rows_computed == len(closure.vertices) == 36


# ------------------------------
# Serialization
# ------------------------------

@pytest.mark.parametrize("stage", sorted(FORCED))
def test_invariant_errors_name_the_instance_and_the_stage(monkeypatch, stage):
    inst = random_instance(3, 16, 6, extra_edges=10, name="forced-k4")
    force_invariant_failure(monkeypatch, stage)
    with pytest.raises(InternalInvariantError, match=f"^instance forced-k4, {FORCED[stage]}"):
        solve(inst, RunConfig(k=4))


def test_json_shape_and_determinism(star3):
    a = solve(star3, RunConfig(k=3))
    b = solve(star3, RunConfig(k=3))
    ja = a.to_json(timing=False)
    jb = b.to_json(timing=False)
    assert ja == jb
    doc = json.loads(ja)
    assert doc["schema"] == 1
    assert doc["costs"]["solution"] == 3
    assert doc["instance"]["name"] == "star3"
    assert "timing" not in doc
    assert "timing" in json.loads(a.to_json())


def test_csv_row_shape(star3):
    res = solve(star3, RunConfig(k=3))
    header = res.csv_header()
    row = res.to_csv_row()
    assert len(header) == len(row)
    d = dict(zip(header, row))
    assert d["instance"] == "star3"
    assert d["mst"] == "4" and d["cost"] == "3" and d["opt"] == "3"
    assert d["ratio_opt"] == "1.000000"
    assert d["bounds_ok"] == "pass"
    assert d["status"] == "ok"


def test_fractional_costs_render_exactly():
    inst = Instance.build(4, [(1, 4, "0.5"), (2, 4, "1.5"), (3, 4, "0.25")],
                          [1, 2, 3], name="frac")
    res = solve(inst, RunConfig(k=3))
    assert res.scale == 4
    assert res.display == {"mst": "2.5", "solution": "2.25", "opt": "2.25"}
    d = dict(zip(res.csv_header(), res.to_csv_row()))
    assert d["cost"] == "2.25"


def test_oracle_limits_suppress_exact_costs():
    inst = make_batch(1, seed0=6300, max_vertices=12, max_terminals=6)[0]
    res = solve(inst, RunConfig(k=3, exact_opt_limit=2, exact_optk_limit=2))
    assert res.opt_cost is None
    assert res.restricted_opt_cost is None
    assert "solution_at_least_opt" not in res.report.checks
    assert res.report.ok


def test_trace_is_json_serializable():
    for inst in make_batch(5, seed0=6400):
        res = solve(inst, RunConfig(k=3))
        json.dumps(res.to_dict())  # must not raise
