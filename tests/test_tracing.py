"""The benchmark's tracer still finds the package names it wraps.

`perfbench/tracing.py` replaces names of the package from outside, so a
rename in the package breaks it only when the benchmark runs. These tests
install it as it is: traced solves must give the untraced output, and
uninstalling must put every name back.
"""
import pytest

import steinertree.solver
from conftest import perfbench_module
from steinertree import RunConfig, enumerate_full_components, metric_closure, random_instance
from steinertree.core import ContractedTree


@pytest.mark.parametrize("k", [3, 4])
def test_traced_solves_match_untraced_ones_and_uninstall_restores_the_names(k):
    tracing = perfbench_module("tracing")
    # 8 terminals: both oracles run under their default limits.
    inst = random_instance(12, 30, 8, extra_edges=40)
    config = RunConfig(k=k)
    want = steinertree.solver.solve(inst, config).to_json(timing=False)
    hooks = [(owner, attr) for owner, attr, _ in tracing._FUNCTIONS]
    hooks.append((ContractedTree, "bottleneck_matrix"))
    originals = [vars(owner)[attr] for owner, attr in hooks]

    tracer = tracing.Tracer()
    with tracer:
        assert all(vars(owner)[attr] is not original
                   for (owner, attr), original in zip(hooks, originals))
        got = tracer.call(steinertree.solver.solve, inst, config)
    assert all(vars(owner)[attr] is original
               for (owner, attr), original in zip(hooks, originals))

    assert got.to_json(timing=False) == want
    names = {span[0] for span in tracer.spans}
    assert {"solver.solve", "core.metric_closure", "components.enumerate",
            "components.pool_build", "components.savings_for", "phase1", "phase2",
            "exact.opt", "exact.optk", "core.bottleneck_matrix"} <= names
    rows = len(enumerate_full_components(inst, metric_closure(inst), k))
    assert tracer.counts[(0, "components.candidates")] == rows > 0
