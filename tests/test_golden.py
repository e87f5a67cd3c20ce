"""Golden corpus: pins the timing-free JSON of every solve in a fixed corpus.

`golden.json` holds, per (instance, k, mode), the SHA-256 of
`solve(...).to_json(timing=False)` and the cost ladder. Any change to a
solution, a trace, a bound report or a cost shows up here. Regenerate the
file only for a change that is meant to alter outputs:

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib
import json
import os
import random
from fractions import Fraction

from steinertree import Instance, RunConfig, grid_instance, random_instance, solve

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden.json")
KS = (3, 4)
MODES = ("mst", "phase1", "full")
LADDER = ("mst", "base", "phase1", "phase2", "solution", "opt", "restricted_opt")


def _fractional_instance():
    """Mixed denominators (2, 3, 4, 5, 7), so the common scale is 420."""
    edges = [(1, 2, "1/2"), (2, 3, "2/3"), (3, 4, "0.75"), (4, 5, Fraction(6, 5)),
             (5, 6, "1/7"), (6, 7, "3/2"), (7, 8, "0.4"), (1, 5, "5/3"),
             (2, 6, "9/4"), (3, 7, "1"), (4, 8, "11/7"), (8, 1, "2.5")]
    return Instance.build(8, edges, [1, 3, 6, 8], name="fractional-8")


def corpus():
    out = []
    for seed in range(40):
        rng = random.Random(7000 + seed)
        nv = rng.randint(4, 14)
        nt = rng.randint(2, min(8, nv))
        out.append(random_instance(7000 + seed, nv, nt, extra_edges=rng.randint(0, nv),
                                   name=f"small-{seed}"))
    for seed in range(4):
        out.append(random_instance(7100 + seed, 40, 14, extra_edges=40,
                                   name=f"mid-{seed}"))
    out.append(grid_instance(8, 8, terminal_stride=5))
    out.append(_fractional_instance())
    return out


def compute():
    golden = {}
    for inst in corpus():
        for k in KS:
            for mode in MODES:
                res = solve(inst, RunConfig(k=k, mode=mode))
                doc = res.to_dict(timing=False)
                golden[f"{inst.name}|k={k}|{mode}"] = {
                    "sha256": hashlib.sha256(
                        res.to_json(timing=False).encode()).hexdigest(),
                    "costs": [doc["costs"][name] for name in LADDER],
                }
    return golden


def test_golden_corpus():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)
    actual = compute()
    assert sorted(actual) == sorted(expected)
    cost_diffs = [key for key in expected if actual[key]["costs"] != expected[key]["costs"]]
    assert not cost_diffs, f"cost ladders changed: {cost_diffs[:5]}"
    json_diffs = [key for key in expected if actual[key]["sha256"] != expected[key]["sha256"]]
    assert not json_diffs, f"JSON outputs changed: {json_diffs[:5]}"


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(compute(), fh, indent=1, sort_keys=True)
        fh.write("\n")
