#!/usr/bin/env python3
"""Benchmark for the steinertree package.

One workload per process, one call at a time (a closed loop with a single
client), timing calls into the public API from outside the package:

    python3 perfbench/run.py --workload many-terminals-k3 --seed 1 --seconds 28 --trace 0

With `--trace 0` the run times untraced calls and reports the end-to-end
metrics. With `--trace 1` it alternates untraced and traced calls and
reports the per-layer metrics (see tracing.py), each summed over one pass
through the workload's instances and given as the median over the passes
that completed. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

Call times are in reference seconds (see refclock.py): wall seconds scaled
by a calibration loop timed between the calls, so that load from other
processes on a shared machine cancels out. The wall-second figures are
printed on a `# wall seconds` line. `setup_s` stays in wall seconds.

Every call is checked: the bound report must hold, the solution must be a
tree of instance edges spanning the terminals at the stated cost, never
above the terminal MST and never below a known optimum, and repeated solves
of one instance must give byte-identical JSON. For the default seed the
SHA-256 of the workload's concatenated `to_json(timing=False)` must match
the digest recorded in baseline.json. A call that raises counts as failed;
a result that fails a check counts as failed and makes the run incorrect,
and a digest mismatch counts every call of the run so.

    python3 perfbench/run.py --all [--seed N] [--seconds S] [--record]

runs every workload in fresh processes, untraced then traced, and prints
all metrics with units plus each workload's layer shares. `--record`
rewrites baseline.json from that run.
"""
from __future__ import annotations

import os

# Pinned before numpy is imported: one solve at a time on one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BASELINE = HERE / "baseline.json"
DEFAULT_SEED = 1
SETUP_PROBES = 5

END_TO_END = {
    "solve_s_p50": "s",
    "solve_s_p90": "s",
    "instances_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cost_vs_mst": "ratio",
    "cost_vs_opt_max": "ratio",
}

# Per-layer metric -> (unit, the end-to-end metric and workload it should move).
PER_LAYER = {
    "core.metric_closure_s": ("s", "solve_s_p50, peak_rss_mb on big-graph-k3"),
    "core.bottleneck_matrix_s": ("s", "solve_s_p50 on many-terminals-k3"),
    "core.bottleneck_matrix_builds": ("count", "solve_s_p50 on many-terminals-k3"),
    "core.contract_zero_set_s": ("s", "solve_s_p50 on many-terminals-k3"),
    "core.contract_zero_set_calls": ("count", "solve_s_p50 on many-terminals-k3"),
    "components.enumerate_s": ("s", "solve_s_p50, peak_rss_mb on many-terminals-k3"),
    "components.pool_build_s": ("s", "solve_s_p50, peak_rss_mb on many-terminals-k3"),
    "components.candidates": ("count", "peak_rss_mb on many-terminals-k3"),
    "components.candidates_m2": ("count", "peak_rss_mb on many-terminals-k3"),
    "components.candidates_m3": ("count", "peak_rss_mb on many-terminals-k3"),
    "components.candidates_m4": ("count", "solve_s_p50 on k4-dp"),
    "components.savings_for_s": ("s", "solve_s_p50 on many-terminals-k3 and k4-dp"),
    "components.savings_for_calls": ("count", "solve_s_p50 on many-terminals-k3"),
    "components.pick_ratio": ("ratio", "solve_s_p50, peak_rss_mb on many-terminals-k3"),
    "exact.dw_closure_tree.under_enumerate_s": ("s", "solve_s_p50 on k4-dp"),
    "exact.dw_closure_tree.under_enumerate_calls": ("count", "solve_s_p50 on k4-dp"),
    "exact.dw_closure_tree.under_opt_s": ("s", "instances_per_s, solve_s_p90 on small-corpus-oracles"),
    "exact.dw_closure_tree.under_opt_calls": ("count", "instances_per_s on small-corpus-oracles"),
    "exact.opt_s": ("s", "instances_per_s, solve_s_p90 on small-corpus-oracles"),
    "exact.optk_s": ("s", "instances_per_s, solve_s_p90 on small-corpus-oracles"),
    "phase1.self_s": ("s", "solve_s_p50 on many-terminals-k3 and k4-dp"),
    "phase1.iterations": ("count", "solve_s_p50 on many-terminals-k3 and k4-dp"),
    "phase1.displacements": ("count", "solve_s_p50 on many-terminals-k3 and k4-dp"),
    "phase2.self_s": ("s", "solve_s_p50 on many-terminals-k3 and k4-dp"),
    "phase2.iterations": ("count", "solve_s_p50 on many-terminals-k3 and k4-dp"),
    "phase2.stalls": ("count", "solve_s_p50 on many-terminals-k3 and k4-dp"),
    "solver.expand_s": ("s", "instances_per_s on small-corpus-oracles"),
    "solver.self_s": ("s", "instances_per_s on small-corpus-oracles"),
    "bounds.check_run_s": ("s", "instances_per_s on small-corpus-oracles"),
    "stp.load_s": ("s", "instances_per_s on small-corpus-oracles"),
    "trace.call_s": ("s", "sum of the traced calls of one pass; the base of every layer share"),
    "trace.overhead_ratio": ("ratio", "none; traced over untraced call p50 in the same run"),
}

# Span totals whose names differ from the metric they feed.
_RENAMED = {
    "solver.solve_s": "solver.self_s",
    "phase1_s": "phase1.self_s",
    "phase2_s": "phase2.self_s",
    "core.bottleneck_matrix_calls": "core.bottleneck_matrix_builds",
}


def import_package():
    """Import steinertree from this checkout's src/, never an installed copy."""
    package = SRC / "steinertree"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no steinertree sources at {package}")
    sys.path.insert(0, str(SRC))
    import steinertree
    if Path(steinertree.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported steinertree from {steinertree.__file__}, "
                 f"expected {package}")


# ---------------------------------------------------------------------------
# Timed units and output checks


def prepare_calls(workload, instances, workdir: Path):
    """One zero-argument callable per instance. File workloads write their
    .stp files here, as part of set-up, and parse them inside the call."""
    import steinertree.solver
    import steinertree.stp

    config = steinertree.solver.RunConfig(k=workload.k)
    calls = []
    for i, inst in enumerate(instances):
        if workload.from_files:
            path = str(workdir / f"{i:04d}.stp")
            steinertree.stp.save_stp(inst, path)
            # Module attributes are looked up per call so tracing reaches them.
            calls.append(lambda p=path: steinertree.solver.solve(
                steinertree.stp.load_stp(p), config))
        else:
            calls.append(lambda x=inst: steinertree.solver.solve(x, config))
    return calls


def solution_problem(inst, res) -> str | None:
    """Why a result is wrong, or None when every check holds."""
    if not res.report.ok:
        return f"bound checks failed: {res.report.failed}"
    weights: dict[tuple[int, int], int] = {}
    for u, v, w in inst.edges:
        key = (min(u, v), max(u, v))
        weights[key] = min(w, weights.get(key, w))
    adj: dict[int, list[int]] = {t: [] for t in inst.terminals}
    for u, v, w in res.solution_edges:
        if weights.get((min(u, v), max(u, v))) != w:
            return f"edge {(u, v, w)} is not an instance edge"
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if len(res.solution_edges) != len(adj) - 1:
        return "solution is not a tree"
    start = min(inst.terminals)
    seen, stack = {start}, [start]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != len(adj):
        return "solution is not connected"
    if sum(w for _, _, w in res.solution_edges) != res.solution_cost:
        return "solution cost does not match its edges"
    if res.solution_cost > res.mst_cost:
        return "solution costs more than the terminal MST"
    if res.opt_cost is not None and res.solution_cost < res.opt_cost:
        return "solution costs less than the exact optimum"
    return None


class OutputCheck:
    """Checks every result; remembers each instance's first JSON so later
    solves of it must repeat it byte for byte. A call that raised is failed;
    a result that came back and fails a check is also wrong."""

    def __init__(self, instances):
        self.instances = instances
        self.first_json: list[str | None] = [None] * len(instances)
        self.first_result = [None] * len(instances)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def __call__(self, idx: int, res, error: str | None = None) -> bool:
        self.attempted += 1
        problem = error or solution_problem(self.instances[idx], res)
        if problem is None:
            text = res.to_json(timing=False)
            if self.first_json[idx] is None:
                self.first_json[idx] = text
                self.first_result[idx] = (res.solution_cost, res.mst_cost, res.opt_cost)
            elif text != self.first_json[idx]:
                problem = "JSON differs from an earlier solve of the same instance"
        if problem is not None:
            self.failed += 1
            self.wrong += error is None
            print(f"perfbench: {self.instances[idx].name}: {problem}", file=sys.stderr)
        return problem is None

    def digest(self) -> str:
        """SHA-256 of every instance's JSON in order; an instance whose
        solve always raised contributes the word `raised`."""
        text = "".join(j if j is not None else "raised" for j in self.first_json)
        return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Runs


def setup_seconds(args) -> float:
    """Median wall time of fresh processes that import the package, build
    the workload and write its files: the cost paid before the first solve.
    Kept in wall seconds: process start-up and imports do not slow down
    with contention the way the calibration loop does."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        # No timeout: with one, wait() polls in steps of up to 50 ms.
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def end_to_end(args, workload, calls, check) -> dict:
    from refclock import ReferenceClock

    setup = setup_seconds(args)
    clock = ReferenceClock()
    timed: list[tuple[int, float, float]] = []   # (instance, start, wall)
    started = time.perf_counter()
    last = 0.0
    i = 0
    while i < len(calls) or time.perf_counter() - started + last < args.seconds:
        idx = i % len(calls)
        res, error, at, last = clock.time(calls[idx])
        if check(idx, res, error):
            timed.append((idx, at, last))
        del res
        i += 1
    clock.calibrate(force=True)
    timed = timed or [(0, started, last)]
    samples = [clock.reference(at, wall) for _, at, wall in timed]
    by_instance: dict[int, list[float]] = {}
    for (idx, _, _), ref in zip(timed, samples):
        by_instance.setdefault(idx, []).append(ref)
    typical = [statistics.median(refs) for refs in by_instance.values()]
    wall = [w for _, _, w in timed]
    print(f"# wall seconds: p50 {statistics.median(wall):.6g}; {len(samples)} timed "
          f"calls over {len(calls)} instances; calibration median {clock.median():.6g} s")
    firsts = [r for r in check.first_result if r is not None]
    ratios_mst = [Fraction(s, m) if m else Fraction(1) for s, m, _ in firsts]
    ratios_opt = [Fraction(s, o) for s, _, o in firsts if o]
    return {
        "solve_s_p50": statistics.median(samples),
        # Tail over instances: robust to a single slow call, and with 100
        # instances on small-corpus-oracles, ten lie beyond it.
        "solve_s_p90": (statistics.quantiles(typical, n=10, method="inclusive")[-1]
                        if len(typical) > 1 else typical[0]),
        "instances_per_s": len(samples) / sum(samples),
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cost_vs_mst": float(sum(ratios_mst) / len(ratios_mst)) if ratios_mst else 1.0,
        # No instance within the oracle limits: no excess over a known optimum.
        "cost_vs_opt_max": float(max(ratios_opt)) if ratios_opt else 1.0,
    }


def count_result(counts: Counter, call_id: int, res) -> None:
    """Counters read from the returned traces."""
    p1, p2 = res.phase1_trace, res.phase2_trace
    if p1 is not None:
        counts[(call_id, "phase1.iterations")] += len(p1["iterations"])
        counts[(call_id, "phase1.displacements")] += sum(
            len(row["replacements"]) for row in p1["iterations"])
    if p2 is not None:
        counts[(call_id, "phase2.iterations")] += len(p2["iterations"])
        counts[(call_id, "phase2.stalls")] += int(p2["stalled"])


def per_layer(args, workload, calls, check) -> tuple[dict, bool]:
    from refclock import ReferenceClock
    from tracing import Tracer

    clock = ReferenceClock()
    tracer = Tracer()
    untraced: list[tuple[float, float]] = []
    traced: dict[int, tuple[float, float]] = {}   # call id -> (start, wall)
    passes: list[set[int]] = []
    current: set[int] = set()
    started = time.perf_counter()
    last = 0.0
    i = 0
    while not passes or time.perf_counter() - started + last < args.seconds:
        idx = i % len(calls)
        res, error, at, plain = clock.time(calls[idx])
        if check(idx, res, error):
            untraced.append((at, plain))
        with tracer:
            res, error, at, wall = clock.time(lambda: tracer.call(calls[idx]))
        if check(idx, res, error):
            traced[tracer.call_id] = (at, wall)
            count_result(tracer.counts, tracer.call_id, res)
        del res
        last = plain + wall
        current.add(tracer.call_id)
        if idx == len(calls) - 1:
            passes.append(current)
            current = set()
        i += 1
    clock.calibrate(force=True)

    scale = {call: clock.reference(at, wall) / wall for call, (at, wall) in traced.items()}
    per_pass = []
    for totals in tracer.layer_totals(passes, scale):
        row = {_RENAMED.get(name, name): value for name, value in totals.items()}
        picks = row.get("phase1.iterations", 0) + row.get("phase2.iterations", 0)
        candidates = row.get("components.candidates", 0)
        row["components.pick_ratio"] = picks / candidates if candidates else 0.0
        per_pass.append(row)
    metrics = {name: statistics.median(row.get(name, 0) for row in per_pass)
               for name in PER_LAYER if name != "trace.overhead_ratio"}
    plain_ref = [clock.reference(at, wall) for at, wall in untraced]
    traced_ref = [clock.reference(at, wall) for at, wall in traced.values()]
    metrics["trace.overhead_ratio"] = (statistics.median(traced_ref) / statistics.median(plain_ref)
                                       if traced_ref and plain_ref else 1.0)
    repeats = all(row.get(name, 0) == per_pass[0].get(name, 0)
                  for row in per_pass for name, (unit, _) in PER_LAYER.items()
                  if unit == "count")
    if not repeats:
        print("perfbench: layer counters differ between passes", file=sys.stderr)
    WORK.mkdir(exist_ok=True)
    tracer.write(str(WORK / f"spans-{workload.name}-seed{args.seed}.jsonl"))
    return metrics, repeats


def expected_digest(name: str) -> str | None:
    if not BASELINE.is_file():
        return None
    return json.loads(BASELINE.read_text()).get("workloads", {}).get(name, {}).get("digest")


def run_workload(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    instances = workload.instances(args.seed, args.tiny)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        calls = prepare_calls(workload, instances, workdir)
        if args.setup_probe:
            return 0
        check = OutputCheck(instances)
        if args.trace:
            metrics, correct = per_layer(args, workload, calls, check)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            metrics = end_to_end(args, workload, calls, check)
            correct = True
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digest = check.digest()
    print(f"# digest: {digest}")
    if args.seed == DEFAULT_SEED and not args.tiny:
        expected = expected_digest(workload.name)
        if expected is None:
            print(f"perfbench: no recorded digest for {workload.name}", file=sys.stderr)
        elif digest != expected:
            print(f"perfbench: {workload.name}: output digest {digest} "
                  f"differs from the recorded {expected}", file=sys.stderr)
            check.failed = check.wrong = check.attempted
    correct = correct and check.wrong == 0
    print(json.dumps({
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# All workloads at once


def environment() -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = out.stdout.strip() or commit
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_all(args) -> int:
    from workloads import WORKLOADS

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    record = {"environment": env, "seed": args.seed, "seconds": args.seconds,
              "workloads": {}}
    all_correct = True
    for name, workload in WORKLOADS.items():
        entry = {"params": workload.describe()}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            out = subprocess.run(cmd, capture_output=True, text=True, check=False,
                                 timeout=900)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.stderr.write(out.stderr)
                print(f"{name}: run failed with exit code {out.returncode}")
                return 1
            result = json.loads(lines[-1])
            all_correct &= result["correct"]
            key = "per_layer" if trace else "end_to_end"
            entry[key] = {m: v["value"] for m, v in result["metrics"].items()}
            entry[f"{key}_checks"] = {k: result[k] for k in ("correct", "attempted", "failed")}
            for line in lines:
                if line.startswith("# ") and not trace:
                    key, _, value = line[2:].partition(": ")
                    entry[key.replace(" ", "_")] = value
        record["workloads"][name] = entry
        print_workload(name, entry)
    if args.record:
        BASELINE.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {BASELINE}")
    return 0 if all_correct else 1


def print_workload(name: str, entry: dict) -> None:
    e2e, layers = entry["end_to_end"], entry["per_layer"]
    checks = entry["end_to_end_checks"]
    print(f"\n== {name}  (correct={checks['correct']}, "
          f"attempted={checks['attempted']}, failed={checks['failed']})")
    for metric, unit in END_TO_END.items():
        print(f"  {metric:<18} {e2e[metric]:>12.6g} {unit}")
    print(f"  wall seconds: {entry['wall_seconds']}")
    total = layers["trace.call_s"] or 1.0
    shares = sorted(((v / total, m) for m, v in layers.items()
                     if m.endswith("_s") and m != "trace.call_s" and v), reverse=True)
    print(f"  layer self time, share of {total:.3f} s traced per pass "
          f"(tracing overhead x{layers['trace.overhead_ratio']:.3f}):")
    for share, metric in shares[:6]:
        print(f"    {metric:<42} {layers[metric]:>9.4f} s {share:>6.1%}")
    counters = [m for m, (unit, _) in PER_LAYER.items() if unit == "count" and layers[m]]
    print("  counters per pass: " + ", ".join(f"{m}={layers[m]:g}" for m in counters))


def main(argv: list[str] | None = None) -> int:
    import_package()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny instances, for the benchmark's own smoke test")
    parser.add_argument("--record", action="store_true",
                        help="with --all: rewrite baseline.json")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record and (args.tiny or not args.all):
        parser.error("--record needs --all and full-size workloads")
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
