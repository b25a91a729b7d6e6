import json
import math

import numpy as np
import pytest

from turanshadow.cli import main
from turanshadow.estimator import required_samples
from turanshadow.graph import degeneracy_order, load_edge_list
from turanshadow.oracle import exact_kclique_count

from genutil import complete_graph, cycle_graph, er_graph

COUNT_KEYS = [
    "command", "input", "k", "estimate", "t", "successes", "success_ratio",
    "gamma", "total_weight", "exact_offset", "shadow_sets",
    "representation_size", "alpha", "n", "m", "time_shadow_ms",
    "time_sample_ms", "seed",
]

TIMING_KEYS = {"time_shadow_ms", "time_sample_ms", "time_ms"}


def write_graph(path, g):
    with open(path, "w") as fh:
        for v in range(g.vertex_count):
            for u in g.neighbors(v).tolist():
                if v < u:
                    fh.write(f"{v} {u}\n")
    return str(path)


@pytest.fixture
def er_file(tmp_path):
    return write_graph(tmp_path / "er.txt", er_graph(60, 0.3, seed=1))


@pytest.fixture
def k30_file(tmp_path):
    return write_graph(tmp_path / "k30.txt", complete_graph(30))


def run_cli(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_rows(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def strip_timing(row):
    return {k: v for k, v in row.items() if k not in TIMING_KEYS}


def test_count_k2_reports_edge_count(capsys, er_file):
    g = load_edge_list(er_file)
    code, out, _ = run_cli(capsys, ["count", "--input", er_file, "--k", "2"])
    assert code == 0
    row = json_rows(out)[0]
    assert row["estimate"] == float(g.edge_count)
    assert row["m"] == g.edge_count


def test_count_json_schema_is_exact(capsys, er_file):
    code, out, _ = run_cli(
        capsys, ["count", "--input", er_file, "--k", "4", "--samples", "2000"])
    assert code == 0
    row = json_rows(out)[0]
    assert list(row.keys()) == COUNT_KEYS


def test_count_reruns_identical_modulo_timing(capsys, er_file):
    args = ["count", "--input", er_file, "--k", "4",
            "--samples", "5000", "--seed", "3"]
    _, out1, _ = run_cli(capsys, args)
    _, out2, _ = run_cli(capsys, args)
    r1, r2 = json_rows(out1)[0], json_rows(out2)[0]
    assert strip_timing(r1) == strip_timing(r2)
    # byte-identical once timing fields are masked out
    for row in (r1, r2):
        for key in TIMING_KEYS:
            row.pop(key, None)
    assert json.dumps(r1) == json.dumps(r2)


def test_count_csv_header_and_row(capsys, er_file):
    code, out, _ = run_cli(
        capsys, ["count", "--input", er_file, "--k", "3",
                 "--samples", "1000", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(COUNT_KEYS)
    assert len(lines) == 2
    assert len(lines[1].split(",")) == len(COUNT_KEYS)


def test_count_eps_delta_mode(capsys, er_file):
    code, out, _ = run_cli(
        capsys, ["count", "--input", er_file, "--k", "4",
                 "--eps", "0.5", "--delta", "0.1"])
    assert code == 0
    row = json_rows(out)[0]
    assert row["t"] == required_samples(row["gamma"], 0.5, 0.1)


def test_count_rejects_both_sampling_modes(capsys, er_file):
    code, _, err = run_cli(
        capsys, ["count", "--input", er_file, "--k", "4",
                 "--samples", "100", "--eps", "0.5", "--delta", "0.1"])
    assert code == 1
    assert "error" in err


def test_count_rejects_zero_samples(capsys, tmp_path):
    for name, g in (("c5", cycle_graph(5)), ("k4", complete_graph(4))):
        path = write_graph(tmp_path / f"{name}.txt", g)
        code, out, err = run_cli(capsys, ["count", "--input", path, "--k",
                                          "3", "--samples", "0"])
        assert (code, out) == (1, "")
        assert "samples must be >= 1" in err


@pytest.mark.parametrize("graph,k", [
    (er_graph(60, 0.3, seed=1), 4),
    (complete_graph(8), 4),  # root saturated: no refinement pass
    (er_graph(60, 0.3, seed=1), 2),  # counted without a shadow
], ids=["er", "saturated", "k2"])
def test_count_alpha_is_graph_degeneracy(capsys, tmp_path, graph, k):
    path = write_graph(tmp_path / "g.txt", graph)
    code, out, _ = run_cli(capsys, ["count", "--input", path, "--k", str(k),
                                    "--samples", "1000"])
    assert code == 0
    assert json_rows(out)[0]["alpha"] == degeneracy_order(graph).alpha


def test_missing_input_file_fails(capsys):
    code, out, err = run_cli(capsys, ["count", "--input", "/no/such", "--k", "3"])
    assert code == 1
    assert out == ""
    assert "error" in err


def test_malformed_input_fails_with_line_number(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\nnope\n")
    code, _, err = run_cli(capsys, ["count", "--input", str(path), "--k", "3"])
    assert code == 1
    assert "line 2" in err


def test_exact_command(capsys, tmp_path):
    path = write_graph(tmp_path / "k10.txt", complete_graph(10))
    code, out, _ = run_cli(capsys, ["exact", "--input", path, "--k", "5"])
    assert code == 0
    assert json_rows(out)[0]["count"] == 252


def test_exact_time_budget_takes_fractional_seconds(capsys, tmp_path):
    path = write_graph(tmp_path / "k10.txt", complete_graph(10))
    args = ["exact", "--input", path, "--k", "5", "--time-budget-secs"]
    code, out, _ = run_cli(capsys, args + ["0.5"])
    assert code == 0
    assert json_rows(out)[0]["count"] == 252
    code, _, err = run_cli(capsys, args + ["0"])
    assert code == 1
    assert "budget" in err


def test_exact_time_budget_refusal(capsys, er_file):
    code, _, err = run_cli(
        capsys, ["exact", "--input", er_file, "--k", "5",
                 "--time-budget-secs", "0"])
    assert code == 1
    assert "budget" in err


def test_stats_cycle5(capsys, tmp_path):
    path = write_graph(tmp_path / "c5.txt", cycle_graph(5))
    code, out, _ = run_cli(capsys, ["stats", "--input", path, "--k", "3"])
    assert code == 0
    row = json_rows(out)[0]
    assert row["set_count"] == 1
    assert row["representation_size"] == 2
    assert row["max_set_size"] == 2
    assert row["ell_histogram"] == {"2": 1}
    assert row["depth_reached"] == 1
    assert row["alpha"] == 2
    assert row["ratio_representation_to_m"] == 2 / 5


def test_sweep_complete_graph_binomials(capsys, tmp_path):
    path = write_graph(tmp_path / "k20.txt", complete_graph(20))
    code, out, _ = run_cli(
        capsys, ["sweep", "--input", path, "--k-range", "3:10",
                 "--samples", "2000"])
    assert code == 0
    rows = json_rows(out)
    assert [r["k"] for r in rows] == list(range(3, 11))
    for r in rows:
        truth = math.comb(20, r["k"])
        assert abs(r["estimate"] - truth) <= 0.02 * truth


def test_sweep_rejects_bad_ranges(capsys, er_file):
    for bad in ("0:5", "5:3", "1:65", "x"):
        code, _, err = run_cli(
            capsys, ["sweep", "--input", er_file, "--k-range", bad])
        assert code == 1
        assert "error" in err


def test_negative_seed_exits_before_any_row(capsys, er_file):
    for args in (["count", "--k", "2"], ["sweep", "--k-range", "2:3"]):
        code, out, err = run_cli(
            capsys, [*args, "--input", er_file, "--seed", "-1"])
        assert code == 1
        assert out == ""
        assert "seed must be >= 0" in err


def test_convergence_single_run(capsys, er_file):
    code, out, _ = run_cli(
        capsys, ["convergence", "--input", er_file, "--k", "4",
                 "--samples", "1000"])
    assert code == 0
    rows = json_rows(out)
    assert len(rows) == 1
    assert rows[0]["run"] == 0 and rows[0]["t"] == 1000


def test_convergence_complete_graph_all_exact(capsys, k30_file):
    code, out, _ = run_cli(
        capsys, ["convergence", "--input", k30_file, "--k", "5",
                 "--samples", "1000", "--repeat", "3"])
    assert code == 0
    rows = json_rows(out)
    assert len(rows) == 3
    assert all(r["estimate"] == 142506.0 for r in rows)
    assert [r["seed"] for r in rows] == [0, 1, 2]


def test_convergence_multiple_sample_counts(capsys, er_file):
    code, out, _ = run_cli(
        capsys, ["convergence", "--input", er_file, "--k", "4",
                 "--samples", "500,1000", "--repeat", "2", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 4
    assert lines[0].startswith("command,input,k,t,run,estimate")


def test_baseline_p_one_matches_exact(capsys, er_file):
    g = load_edge_list(er_file)
    truth = exact_kclique_count(g, 4).count
    code, out, _ = run_cli(
        capsys, ["baseline", "--input", er_file, "--k", "4", "--p", "1.0"])
    assert code == 0
    assert json_rows(out)[0]["estimate"] == float(truth)


def test_baseline_sweep_emits_ten_rows(capsys, er_file):
    code, out, _ = run_cli(capsys, ["baseline", "--input", er_file, "--k", "3"])
    assert code == 0
    rows = json_rows(out)
    assert [r["p"] for r in rows] == [round(0.1 * i, 1) for i in range(1, 11)]


def test_console_entry_point_subprocess(er_file):
    import os
    import subprocess
    import sys

    import turanshadow

    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(turanshadow.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "turanshadow.cli", "count", "--input", er_file,
         "--k", "3", "--samples", "1000", "--seed", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    row = json.loads(proc.stdout)
    assert list(row.keys()) == COUNT_KEYS
    assert proc.stderr == ""
