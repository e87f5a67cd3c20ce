"""Metamorphic tests: transformations of an instance with a known effect on
every cost the solver reports.

Scaling every weight by an integer c scales every cost by c. Relabelling
the vertices changes terminal order, and so the order of the candidates
and the numbering of their interior ids, but no cost. An added edge
strictly heavier than the shortest path between its endpoints, and a
write and read of the instance as an STP file, change nothing else in the
output.
"""
import json
import random

from conftest import make_batch
from steinertree import Instance, RunConfig, load_stp, metric_closure, save_stp, solve

LADDER = ("mst", "base", "phase1", "phase2", "solution", "opt", "restricted_opt")


def _ladder(inst, k):
    costs = solve(inst, RunConfig(k=k)).to_dict(timing=False)["costs"]
    return [costs[name] for name in LADDER]


def _scaled(inst, c):
    edges = [(u, v, w * c) for u, v, w in inst.edges]
    return Instance.build(inst.vertex_count, edges, inst.terminals, name=inst.name)


def _relabelled(inst, rng):
    new = list(range(1, inst.vertex_count + 1))
    rng.shuffle(new)
    label = dict(zip(range(1, inst.vertex_count + 1), new))
    edges = [(label[u], label[v], w) for u, v, w in inst.edges]
    rng.shuffle(edges)
    return Instance.build(inst.vertex_count, edges, [label[t] for t in inst.terminals],
                          name=inst.name)


def test_scaling_weights_scales_cost_ladder():
    rng = random.Random(41)
    for inst in make_batch(20, seed0=5000):
        for k in (3, 4):
            c = rng.randint(2, 9)
            want = [None if x is None else c * x for x in _ladder(inst, k)]
            assert _ladder(_scaled(inst, c), k) == want, (inst.name, k, c)


def test_relabelling_vertices_keeps_cost_ladder():
    rng = random.Random(43)
    for inst in make_batch(20, seed0=5100):
        for k in (3, 4):
            assert _ladder(_relabelled(inst, rng), k) == _ladder(inst, k), (inst.name, k)


def _output(inst, k):
    return solve(inst, RunConfig(k=k)).to_json(timing=False)


def test_heavy_extra_edge_changes_only_the_edge_count():
    rng = random.Random(47)
    for inst in make_batch(20, seed0=5200):
        closure = metric_closure(inst)
        u, v = rng.sample(closure.vertices, 2)
        heavier = closure.distance(u, v) + rng.randint(1, 5)
        grown = Instance.build(inst.vertex_count, list(inst.edges) + [(u, v, heavier)],
                               inst.terminals, name=inst.name)
        for k in (3, 4):
            want = json.loads(_output(inst, k))
            want["instance"]["edges"] += 1
            assert _output(grown, k) == json.dumps(want, sort_keys=True, indent=2), (
                inst.name, k, u, v)


def test_stp_round_trip_keeps_output(tmp_path):
    cases = make_batch(20, seed0=5300)
    cases.append(Instance.build(4, [(1, 4, "1/2"), (2, 4, "2/3"), (3, 4, "0.75"),
                                    (1, 2, "5/4")], [1, 2, 3], name="frac"))
    for inst in cases:
        path = str(tmp_path / f"{inst.name}.stp")
        save_stp(inst, path)
        back = load_stp(path)
        for k in (3, 4):
            assert _output(back, k) == _output(inst, k), (inst.name, k)
