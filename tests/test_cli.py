import csv
import io
import json

import re

import pytest

from conftest import FORCED, force_invariant_failure
from steinertree import Instance, random_instance, save_stp
from steinertree.cli import main


def _star3_file(tmp_path):
    inst = Instance.build(4, [(1, 4, 1), (2, 4, 1), (3, 4, 1)], [1, 2, 3],
                          name="star3")
    path = str(tmp_path / "star3.stp")
    save_stp(inst, path)
    return path


# ------------------------------
# solve
# ------------------------------

def test_solve_json(tmp_path, capsys):
    rc = main(["solve", _star3_file(tmp_path), "--k", "3"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["costs"]["solution"] == 3
    assert doc["bounds"]["ok"] is True


def test_solve_csv(tmp_path, capsys):
    rc = main(["solve", _star3_file(tmp_path), "--format", "csv"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0][0] == "instance"
    assert rows[1][0] == "star3"
    assert dict(zip(rows[0], rows[1]))["cost"] == "3"


def test_solve_mode_flag(tmp_path, capsys):
    rc = main(["solve", _star3_file(tmp_path), "--mode", "mst"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["costs"]["mst"] == 4
    # Path expansion through the shared hub beats the metric MST.
    assert doc["costs"]["solution"] == 3
    assert doc["costs"]["base"] is None


def test_solve_missing_file_is_input_error(tmp_path, capsys):
    rc = main(["solve", str(tmp_path / "nope.stp")])
    assert rc == 2
    assert "input error" in capsys.readouterr().err


def test_solve_malformed_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.stp"
    path.write_text("SECTION Graph\nWAT\nEND\n")
    rc = main(["solve", str(path)])
    assert rc == 2


def test_solve_non_utf8_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.stp"
    path.write_bytes(b"33D32945 STP File\n\xff\xfeSECTION Graph\n")
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "Traceback" not in err
    assert str(path) in err and "byte 18" in err and "line 2" in err


def test_solve_over_candidate_budget_is_input_error(tmp_path, capsys):
    # 80 terminals at k=6 would mean about 3 * 10**8 terminal subsets.
    path = str(tmp_path / "many.stp")
    save_stp(random_instance(5, 120, 80, extra_edges=240, max_weight=50), path)
    rc = main(["solve", path, "--k", "6"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "input error" in err and "candidate budget" in err


@pytest.mark.parametrize("nodes, edges, terminals", [
    (4, [(1, 4, 2**61), (2, 4, 2**61), (3, 4, 2**61)], [1, 2, 3]),
    (71, [(i, i + 1, f"1/{i + 1}") for i in range(1, 71)], [1, 71]),
])
def test_solve_weights_beyond_headroom_is_input_error(tmp_path, capsys, nodes, edges,
                                                      terminals):
    lines = ["SECTION Graph", f"Nodes {nodes}", f"Edges {len(edges)}"]
    lines += [f"E {u} {v} {w}" for u, v, w in edges]
    lines += ["END", "SECTION Terminals", f"Terminals {len(terminals)}"]
    lines += [f"T {t}" for t in terminals] + ["END", "EOF"]
    path = tmp_path / "heavy.stp"
    path.write_text("\n".join(lines) + "\n")
    rc = main(["solve", str(path)])
    assert rc == 2
    assert "input error" in capsys.readouterr().err


def test_solve_vertex_count_beyond_limit_is_input_error(tmp_path, capsys):
    # One vertex past core.VERTEX_LIMIT (2**62), declared over a 3-star.
    text = (tmp_path / _star3_file(tmp_path)).read_text()
    path = tmp_path / "wide.stp"
    path.write_text(text.replace("Nodes 4", f"Nodes {2**62 + 1}"))
    rc = main(["solve", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "input error" in err and "vertex count" in err


@pytest.mark.parametrize("flag, value", [("--exact-opt-limit", 17),
                                         ("--exact-optk-limit", 13)])
def test_solve_oracle_limit_above_cap_is_input_error(tmp_path, capsys, flag, value):
    rc = main(["solve", str(_star3_file(tmp_path)), flag, str(value)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "input error" in err and "exceeds the cap" in err


@pytest.mark.parametrize("stage", sorted(FORCED))
def test_solve_invariant_error_names_instance_and_stage(tmp_path, capsys, monkeypatch,
                                                        stage):
    path = str(tmp_path / "forced-k4.stp")
    save_stp(random_instance(3, 16, 6, extra_edges=10, name="forced-k4"), path)
    force_invariant_failure(monkeypatch, stage)
    rc = main(["solve", path, "--k", "4"])
    assert rc == 3
    err = capsys.readouterr().err
    assert re.search(f"^internal invariant violation: instance forced-k4, {FORCED[stage]}",
                     err), err


# ------------------------------
# bench
# ------------------------------

def test_bench_directory(tmp_path, capsys):
    _star3_file(tmp_path)
    inst = Instance.build(2, [(1, 2, 5)], [1, 2], name="pair")
    save_stp(inst, str(tmp_path / "pair.stp"))
    rc = main(["bench", str(tmp_path), "--k", "3"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    names = [r[0] for r in rows]
    assert names == ["instance", "pair", "star3", "(summary)"]
    star_row = dict(zip(rows[0], rows[2]))
    assert star_row["ratio_opt"] == "1.000000"
    assert rows[-1][-1] == "ok=2;error=0"


def test_bench_keeps_going_after_bad_file(tmp_path, capsys):
    _star3_file(tmp_path)
    (tmp_path / "broken.stp").write_text("SECTION Graph\nnonsense\n")
    rc = main(["bench", str(tmp_path)])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    byname = {r[0]: r for r in rows[1:]}
    assert byname["broken"][-1].startswith("error:")
    assert rows[-1][-1] == "ok=1;error=1"


def test_bench_keeps_going_after_a_non_utf8_file(tmp_path, capsys):
    for name in ("a", "c"):
        save_stp(Instance.build(2, [(1, 2, 5)], [1, 2], name=name), str(tmp_path / f"{name}.stp"))
    (tmp_path / "b.stp").write_bytes(b"\xff\xfe" + "SECTION Graph".encode("utf-16-le"))
    assert main(["bench", str(tmp_path)]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [r[0] for r in rows] == ["instance", "a", "b", "c", "(summary)"]
    assert rows[1][-1] == rows[3][-1] == "ok"
    assert rows[2][-1].startswith("error:") and "not UTF-8" in rows[2][-1]
    assert rows[-1][-1] == "ok=2;error=1"


def test_bench_out_file(tmp_path, capsys):
    _star3_file(tmp_path)
    out = tmp_path / "results.csv"
    rc = main(["bench", str(tmp_path), "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("instance,")
    assert "star3" in text


def test_bench_missing_directory_is_usage_error(tmp_path, capsys):
    rc = main(["bench", str(tmp_path / "missing")])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


def test_bench_empty_directory_header_only(tmp_path, capsys):
    rc = main(["bench", str(tmp_path)])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 1
    assert rows[0][0] == "instance"


# ------------------------------
# bounds
# ------------------------------

def test_solve_rejects_a_closure_matrix_over_the_dense_budget(tmp_path, capsys, long_path):
    path = str(tmp_path / "path.stp")
    save_stp(long_path, path)
    assert main(["solve", path, "--mode", "mst"]) == 2
    assert "--exact-opt-limit" in capsys.readouterr().err


def test_bounds_crossover(capsys):
    rc = main(["bounds", "--solve-alpha-star", "--tol", "1e-8"])
    assert rc == 0
    out = capsys.readouterr().out
    values = {}
    for line in out.strip().splitlines():
        key, _, val = line.partition(" = ")
        values[key] = float(val)
    assert abs(values["alpha_star"] - 0.7147) < 1e-3
    assert abs(values["ratio"] - 1.4295) < 1e-3


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_bounds_rejects_a_tolerance_that_is_not_positive_and_finite(tol, capsys):
    assert main(["bounds", "--solve-alpha-star", "--tol", tol]) == 2
    assert "tolerance must be positive and finite" in capsys.readouterr().err


def test_bounds_crossover_at_a_tolerance_below_the_float_spacing(capsys):
    assert main(["bounds", "--solve-alpha-star", "--tol", "1e-300"]) == 0
    assert "alpha_star = 0.714" in capsys.readouterr().out


def test_bounds_curve_point(capsys):
    rc = main(["bounds", "--alpha", "0.5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "curve_merge_bound" in out
    assert "worst_case" in out


def test_bounds_bad_alpha(capsys):
    rc = main(["bounds", "--alpha", "1.5"])
    assert rc == 2


def test_bounds_requires_a_task(capsys):
    rc = main(["bounds"])
    assert rc == 1


# ------------------------------
# parser plumbing
# ------------------------------

def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    assert main(["solve", _star3_file(tmp_path), "--nope"]) == 1


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "steinertree", "bounds", "--alpha", "0.25"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "worst_case" in proc.stdout
