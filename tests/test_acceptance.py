"""Acceptance gate: seven criteria, one printed pass/fail line each.

Each criterion is one test. The verdict line goes to the real stdout so it
shows up even while pytest captures output; the assert right after it makes
the suite fail loudly if the criterion does not hold.
"""
import json
import math
import sys
import time

import numpy as np
import pytest

import conftest
import oracles
from conftest import components_of, family, make_batch
from steinertree import (
    CandidatePool,
    Instance,
    RunConfig,
    enumerate_full_components,
    grid_instance,
    metric_closure,
    minimum_spanning_tree,
    random_instance,
    restricted_ratio_bound,
    save_stp,
    solve,
)
from steinertree.cli import main
from steinertree.phase1 import run_phase1


@pytest.fixture
def report(capsys):
    """Print a verdict line past pytest's capture and save it for the
    terminal summary block."""

    def _report(line: str) -> None:
        conftest.ACCEPTANCE_LINES.append(line)
        with capsys.disabled():
            sys.stdout.write(line + "\n")
            sys.stdout.flush()

    return _report


def _verdict(ok: bool) -> str:
    return "pass" if ok else "FAIL"


# ------------------------------
# 1. Closed-form constants via the CLI
# ------------------------------

def test_criterion_1_closed_form_constants(capsys, report):
    started = time.perf_counter()
    rc = main(["bounds", "--solve-alpha-star", "--tol", "1e-8"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    values = {}
    for line in out.strip().splitlines():
        key, _, val = line.partition(" = ")
        values[key] = float(val)
    ok = (
        rc == 0
        and abs(values["alpha_star"] - 0.7147) < 1e-3
        and abs(values["ratio"] - 1.4295) < 1e-3
        and elapsed < 1.0
    )
    report(f"criterion 1 (closed-form constants): {_verdict(ok)} "
            f"alpha_star={values['alpha_star']:.8f} ratio={values['ratio']:.8f} "
            f"({elapsed:.3f}s)")
    assert ok


# ------------------------------
# 2. Oracle sandwich on 200 random instances
# ------------------------------

def test_criterion_2_oracle_sandwich(report):
    started = time.perf_counter()
    instances = make_batch(200, seed0=20000, max_vertices=12, max_terminals=8,
                           max_weight=20)
    worst = 0.0
    runs = 0
    for inst in instances:
        for k in (3, 4):
            res = solve(inst, RunConfig(k=k))
            runs += 1
            assert res.opt_cost is not None
            assert res.opt_cost <= res.solution_cost <= res.mst_cost, inst.name
            ratio = res.solution_cost / res.opt_cost
            worst = max(worst, ratio)
            cap = float(restricted_ratio_bound(k)) * 1.4295 + 1e-9
            assert ratio <= cap, (inst.name, k, ratio)
    elapsed = time.perf_counter() - started
    ok = runs == 400 and elapsed < 300.0
    report(f"criterion 2 (oracle sandwich, 200 instances x k=3,4): {_verdict(ok)} "
            f"max_ratio={worst:.4f} runs={runs} ({elapsed:.1f}s)")
    assert ok


# ------------------------------
# 3. Lemma suite: zero violations
# ------------------------------

def test_criterion_3_lemma_suite(report):
    started = time.perf_counter()
    violations = []

    # (a) loss equals the brute-force minimal connecting forest (<= 6 nodes).
    loss_checked = 0
    for inst in make_batch(40, seed0=30000, max_vertices=10, max_terminals=6):
        closure = metric_closure(inst)
        for comp in components_of(enumerate_full_components(inst, closure, 4)):
            if len(comp.terminals) + len(comp.steiner_ids) > 6:
                continue
            loss_checked += 1
            if comp.loss != oracles.loss_cost_bruteforce(comp.terminals, comp.edges):
                violations.append(("loss", inst.name, comp.terminals))

    # (b) base tree never beats the exhaustively found restricted optimum.
    base_checked = 0
    for inst in make_batch(30, seed0=31000, max_vertices=10, max_terminals=6):
        closure = metric_closure(inst)
        cands = enumerate_full_components(inst, closure, 3)
        t0 = minimum_spanning_tree(inst.terminals, closure.block(sorted(inst.terminals)))
        p1 = run_phase1(inst, closure, CandidatePool(cands), t0)
        optk = oracles.restricted_opt_bruteforce(
            sorted(inst.terminals), [(c.terminals, c.cost) for c in components_of(cands)]
        )
        base_checked += 1
        if p1.base_tree.total_cost > optk:
            violations.append(("base_vs_optk", inst.name))

    # (c,d,e) half bound, pairwise overlap, log bound on full runs.
    run_checked = 0
    for inst in make_batch(60, seed0=32000):
        for k in (3, 4):
            res = solve(inst, RunConfig(k=k))
            run_checked += 1
            for name in ("base_at_least_half_merge", "pairwise_overlap",
                         "merge2_within_log_bound"):
                check = res.report.checks.get(name)
                if check is not None and check["ok"] is False:
                    violations.append((name, inst.name, k))

    elapsed = time.perf_counter() - started
    ok = not violations and loss_checked > 100 and base_checked >= 30
    report(f"criterion 3 (lemma suite): {_verdict(ok)} violations={len(violations)} "
            f"loss_checks={loss_checked} base_checks={base_checked} "
            f"run_checks={run_checked} ({elapsed:.1f}s)")
    assert ok, violations[:5]


# ------------------------------
# 4. Exact termination rate
# ------------------------------

def test_criterion_4_exact_termination(report):
    started = time.perf_counter()
    stalls = 0
    runs = 0
    for inst in make_batch(100, seed0=40000):
        for k in (3, 4):
            res = solve(inst, RunConfig(k=k))
            runs += 1
            stalls += bool(res.stalled)
    rate = (runs - stalls) / runs
    elapsed = time.perf_counter() - started
    ok = rate >= 0.99
    report(f"criterion 4 (exact termination): {_verdict(ok)} "
            f"exact={runs - stalls}/{runs} stalls={stalls} ({elapsed:.1f}s)")
    assert ok


# ------------------------------
# 5. Byte-identical JSON across repeated corpus runs
# ------------------------------

def _corpus_dir(tmp_path):
    instances = [
        Instance.build(4, [(1, 4, 1), (2, 4, 1), (3, 4, 1)], [1, 2, 3],
                       name="star3"),
        Instance.build(4, [(1, 4, "0.5"), (2, 4, "1.5"), (3, 4, "0.25")],
                       [1, 2, 3], name="frac"),
        Instance.build(5, [(1, 2, 0), (2, 3, 0), (3, 4, 2), (4, 5, 2), (1, 5, 3)],
                       [1, 3, 5], name="zeroes"),
        grid_instance(3, 4, seed=5, name="grid34"),
    ]
    instances += make_batch(8, seed0=50000)
    for inst in instances:
        save_stp(inst, str(tmp_path / f"{inst.name}.stp"))
    return sorted(tmp_path.glob("*.stp"))


def test_criterion_5_deterministic_json(tmp_path, report):
    from steinertree import load_stp

    started = time.perf_counter()
    paths = _corpus_dir(tmp_path)
    blobs = []
    for _ in range(3):
        parts = [solve(load_stp(str(p)), RunConfig(k=3)).to_json(timing=False)
                 for p in paths]
        blobs.append("\n".join(parts).encode())
    elapsed = time.perf_counter() - started
    ok = blobs[0] == blobs[1] == blobs[2]
    report(f"criterion 5 (deterministic JSON, 3 runs x {len(paths)} instances): "
            f"{_verdict(ok)} bytes={len(blobs[0])} ({elapsed:.1f}s)")
    assert ok


# ------------------------------
# 6. Golden three-terminal star
# ------------------------------

def test_criterion_6_star3_golden(star3, report):
    res = solve(star3, RunConfig(k=3, mode="full"))
    got = (res.base_cost, res.phase1_cost, res.phase2_cost, res.solution_cost,
           res.opt_cost, res.mst_cost)
    want = (2, 3, 3, 3, 3, 4)
    ok = got == want and res.report.ok and not res.stalled
    report(f"criterion 6 (golden star): {_verdict(ok)} "
            f"base/s1/s2/s/opt/mst={'/'.join(map(str, got))}")
    assert ok


# ------------------------------
# 7. Complexity trend at fixed k
# ------------------------------

def test_criterion_7_complexity_trend(report):
    sizes = [10, 20, 40, 80]
    config = RunConfig(k=3, exact_opt_limit=2, exact_optk_limit=2)
    medians = []
    for nr in sizes:
        times = []
        for seed in (1, 2, 3):
            inst = family(nr, seed)
            t0 = time.perf_counter()
            res = solve(inst, config)
            times.append(time.perf_counter() - t0)
            assert res.report.ok, res.report.failed
        medians.append(sorted(times)[1])
    slope = np.polyfit(np.log(sizes), np.log(medians), 1)[0]
    ok = slope < 8.0
    times_txt = " ".join(f"{nr}:{t * 1000:.0f}ms" for nr, t in zip(sizes, medians))
    report(f"criterion 7 (complexity trend, k=3): {_verdict(ok)} "
            f"loglog_slope={slope:.2f} medians[{times_txt}]")
    assert ok
