import json
import os
import subprocess
import sys

import numpy as np
import pytest

import oracles
from conftest import FORCED, family, force_invariant_failure, make_batch, recording_closure_paths
from steinertree import (
    CandidatePool,
    Instance,
    InvalidInstanceError,
    RunConfig,
    dreyfus_wagner,
    grid_instance,
    metric_closure,
    random_instance,
    save_stp,
    solve,
    solver,
)
from steinertree.cli import main
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


@pytest.mark.parametrize("value, name", [
    (3.5, "k"),                  # once solved, then failed in the bound report
    ("3", "k"),
    (None, "exact_optk_limit"),
    (2.5, "exact_opt_limit"),    # once accepted
])
def test_config_rejects_integer_settings_of_another_type(value, name):
    inst = Instance.build(2, [(1, 2, 1)], [1, 2])
    with pytest.raises(InputError, match=f"{name} must be an integer"):
        solve(inst, RunConfig(**{name: value}))


def test_config_takes_numpy_integers_as_ints():
    inst = random_instance(1, 12, 5, extra_edges=10)
    config = RunConfig(k=np.int64(3), exact_opt_limit=np.int32(5), exact_optk_limit=np.int16(6))
    got = solve(inst, config)
    assert type(config.k) is type(config.exact_opt_limit) is type(config.exact_optk_limit) is int
    assert got.opt_cost is not None and got.restricted_opt_cost is not None
    want = solve(inst, RunConfig(k=3, exact_opt_limit=5, exact_optk_limit=6))
    assert got.to_json(timing=False) == want.to_json(timing=False)


def test_dense_budget_rejects_the_exact_optimum_of_a_long_path(long_path):
    # The exact optimum reads the closure matrix even in mst mode.
    with pytest.raises(LimitExceededError, match="--exact-opt-limit"):
        solve(long_path, RunConfig(mode="mst"))


def test_exact_optimum_budget_is_checked_before_any_closure_row(monkeypatch, long_path):
    # Five terminals are within the default exact-opt limit: the optimum's
    # matrix is refused before enumeration or the terminal MST reads a row.
    calls, built = recording_closure_paths(monkeypatch), []
    monkeypatch.setattr(solver, "metric_closure",
                        lambda inst: built.append(metric_closure(inst)) or built[-1])
    with pytest.raises(LimitExceededError, match="--exact-opt-limit"):
        solve(long_path, RunConfig(k=3, mode="full"))
    assert built[0].rows_computed == 0 and calls == {"batches": [], "dijkstra": 0}


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
    # terminal: a hub is only ever the far end of a spoke. Enumeration (the
    # terminal MST in mst mode) reads them all first, in one batch.
    inst = grid_instance(30, 30, seed=1, terminal_stride=30)
    calls = recording_closure_paths(monkeypatch)
    for mode in MODES:
        calls["batches"].clear()
        res, closure = _solve_counting_rows(
            monkeypatch, inst, RunConfig(k=3, mode=mode, exact_opt_limit=0, exact_optk_limit=0))
        assert res.report.ok
        assert len(closure.vertices) == 900
        assert closure.rows_computed == len(inst.terminals) == 31
        assert calls["batches"] == [(31, True)]


def test_k4_solve_computes_every_closure_row_in_one_batch(monkeypatch):
    # Enumeration runs before the terminal MST and reads the matrix before
    # the terminals' rows, so all 60 rows come from one batch, not the 20
    # terminal rows and then the other 40.
    calls = recording_closure_paths(monkeypatch)
    res, closure = _solve_counting_rows(
        monkeypatch, random_instance(95008, 60, 20, extra_edges=120), RunConfig(k=4))
    assert res.report.ok and len(closure.vertices) == 60
    assert calls["batches"] == [(60, True)] and calls["dijkstra"] == 0
    assert closure.rows_computed == 60


def test_k4_dense_budget_is_checked_before_any_closure_row(monkeypatch, tmp_path, capsys):
    # The README's "before allocating anything": not even the terminal MST's
    # rows are computed when the tables would not fit.
    inst = random_instance(95008, 60, 20, extra_edges=120)
    monkeypatch.setattr(dreyfus_wagner, "DENSE_BUDGET", 8 * 60 * 60)
    calls, built = recording_closure_paths(monkeypatch), []
    monkeypatch.setattr(solver, "metric_closure",
                        lambda inst: built.append(metric_closure(inst)) or built[-1])
    with pytest.raises(LimitExceededError, match="smaller k"):
        solve(inst, RunConfig(k=4))
    assert built[0].rows_computed == 0 and calls == {"batches": [], "dijkstra": 0}
    path = str(tmp_path / "k4.stp")
    save_stp(inst, path)
    assert main(["solve", path, "--k", "4"]) == 2
    assert "smaller k" in capsys.readouterr().err


def test_solving_imports_only_declared_dependencies():
    # pyproject declares numpy alone. A k=4 solve with both oracles on
    # reads every closure path: batched rows, Dijkstra rows, the tables.
    # numpy.ma is no dependency but 1.6 MB of resident memory, which
    # np.unique would load on first use; nor does an 80-terminal k=3 solve
    # (the many-terminals shape) load it.
    code = (
        "import sys\n"
        "from steinertree import RunConfig, random_instance, solve\n"
        "res = solve(random_instance(1, 60, 8, extra_edges=120), RunConfig(k=4))\n"
        "assert res.report.ok and res.opt_cost and res.restricted_opt_cost\n"
        "assert solve(random_instance(2, 120, 80, extra_edges=240), RunConfig(k=3)).report.ok\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
        " or m == 'numpy.ma' or m.startswith('numpy.ma.')))\n"
    )
    src = os.path.dirname(os.path.dirname(solver.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# Functions numpy 2.0 to 2.2 added to its namespace; none exists in 1.24.
NUMPY_2_NAMES = (
    "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "astype", "bitwise_count",
    "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift", "concat",
    "cumulative_prod", "cumulative_sum", "isdtype", "matrix_transpose", "matvec",
    "permute_dims", "pow", "trapezoid", "unique_all", "unique_counts", "unique_inverse",
    "unique_values", "unstack", "vecdot", "vecmat",
)


def test_solving_uses_no_function_newer_than_the_declared_numpy():
    # pyproject declares numpy>=1.24, while the tests may run on numpy 2:
    # with numpy 2's additions taken out of its namespace, a k=5 solve
    # with both oracles on (the shared tables, the exact optimum) and a
    # many-terminal k=3 solve still run.
    code = (
        "import numpy\n"
        f"for name in {NUMPY_2_NAMES!r}:\n"
        "    numpy.__dict__.pop(name, None)\n"
        "from steinertree import RunConfig, random_instance, solve\n"
        "res = solve(random_instance(1, 60, 8, extra_edges=120), RunConfig(k=5))\n"
        "assert res.report.ok and res.opt_cost and res.restricted_opt_cost\n"
        "assert solve(random_instance(2, 120, 80, extra_edges=240), RunConfig(k=3)).report.ok\n"
    )
    src = os.path.dirname(os.path.dirname(solver.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


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


def test_phase2_floor_guard_names_the_instance_and_the_stage(monkeypatch):
    # Savings scored during phase 2 come back raised by 1: the loads fall
    # below their start, which the floor that prunes the scans rules out.
    inst = random_instance(4, 16, 8, extra_edges=10, name="raised-savings")
    assert len(solve(inst, RunConfig(k=4)).phase2_trace["iterations"]) >= 2
    score, run = CandidatePool.savings_for, solver.run_phase2

    def raised(*args):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CandidatePool, "savings_for", lambda *a: score(*a) + 1)
            return run(*args)
    monkeypatch.setattr(solver, "run_phase2", raised)
    with pytest.raises(InternalInvariantError, match="^instance raised-savings, stage phase 2:"
                       " phase-2 iteration 2, row \\d+: load \\d+ \\(start \\d+\\)"):
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


def test_info_line_counts_candidates_and_rows_read(caplog, monkeypatch):
    # One INFO line: rows kept per size, subsets rejected as not full, and
    # the rows whose trees the solve read; computed only when INFO is on.
    inst = random_instance(1000, 60, 20, extra_edges=120, name="k4-shape")
    with caplog.at_level("INFO", logger="steinertree.solver"):
        res = solve(inst, RunConfig(k=4))
    (line,) = [r.getMessage() for r in caplog.records if "candidates" in r.getMessage()]
    assert line == ("k4-shape: candidates m2=190 m3=667 m4=1698, 3620 subsets not full, "
                    "21 rows read on demand")
    assert "rows read" not in res.to_json(timing=False)
    caplog.clear()

    def computed(*args):
        raise AssertionError("the line was computed with INFO off")
    monkeypatch.setattr(solver, "_log_candidates", computed)
    with caplog.at_level("WARNING", logger="steinertree.solver"):
        assert solve(inst, RunConfig(k=4)).to_json(timing=False) == res.to_json(timing=False)


def test_info_line_after_each_phase(caplog):
    # One INFO line after each greedy phase, outside the JSON: phase 1's
    # iterations, views carried and filled, and its displacement events;
    # phase 2's picks, contractions, rows scored and rescans.
    inst = family(80, 1)
    with caplog.at_level("INFO", logger="steinertree"):
        res = solve(inst, RunConfig(k=3))
    lines = [r.getMessage() for r in caplog.records if ": phase " in r.getMessage()]
    assert lines == [
        "family-80-1: phase 1 4 iterations, views 3 carried 2 filled, 8 edges displaced,"
        " 1 components re-sourced, 0 remnants, 1 dropped",
        "family-80-1: phase 2 4 picks, 8 contractions, 16159 rows scored of 56720, 3 rescans",
    ]
    assert len(res.phase1_trace["iterations"]) == len(res.phase2_trace["iterations"]) == 4
    caplog.clear()
    with caplog.at_level("WARNING", logger="steinertree"):
        assert solve(inst, RunConfig(k=3)).to_json(timing=False) == res.to_json(timing=False)
    assert not caplog.records
