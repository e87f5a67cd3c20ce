"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import steinertree.solver  # noqa: E402
from tracing import ROOT, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    out = _run(HERE.parent, "--workload", workload, "--seed", "3", "--seconds", "0.5",
               "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_self_times_sum_to_the_traced_call_time(workload, tmp_path):
    spec = WORKLOADS[workload]
    calls = run.prepare_calls(spec, spec.instances(3, tiny=True), tmp_path)
    original = steinertree.solver.solve
    tracer = Tracer()
    for call in calls:
        with tracer:
            tracer.call(call)
    assert steinertree.solver.solve is original

    roots = [end - start for name, start, end, _, _ in tracer.spans if name == ROOT]
    assert len(roots) == len(calls)
    assert sum(tracer.self_times()) == pytest.approx(sum(roots), rel=1e-9, abs=1e-9)
    assert all(own >= -1e-9 for own in tracer.self_times())

    (totals,) = tracer.layer_totals([set(range(len(calls)))])
    layers = sum(v for name, v in totals.items()
                 if name.endswith("_s") and name != "trace.call_s")
    assert 0 < layers <= totals["trace.call_s"]
    assert totals["solver.solve_calls"] == len(calls)
    assert totals["core.metric_closure_calls"] == len(calls)
    if spec.from_files:
        assert totals["stp.load_calls"] == len(calls)
        assert totals["exact.opt_calls"] > 0
    if spec.k >= 4:
        assert totals["exact.dw_closure_tree.under_enumerate_calls"] > 0
        assert totals["components.candidates_m4"] > 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "k4-dp", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
