import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import turanshadow
from turanshadow import cli, estimator
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


def test_count_eps_delta_mode(capsys, tmp_path):
    # m > n * n / 3: the whole graph saturates at k = 4, so its one entry
    # is sampled whatever the vertex order
    g = er_graph(30, 0.9, seed=1)
    assert 3 * g.edge_count > g.vertex_count ** 2
    path = write_graph(tmp_path / "dense.txt", g)
    code, out, _ = run_cli(
        capsys, ["count", "--input", path, "--k", "4",
                 "--eps", "0.5", "--delta", "0.1"])
    assert code == 0
    row = json_rows(out)[0]
    assert row["total_weight"] > 0
    assert row["t"] == required_samples(row["gamma"], 0.5, 0.1)


def test_count_huge_eps_runs_one_trial(capsys, tmp_path):
    # eps * eps overflows for eps = 1e200; the bound is still one trial
    g = er_graph(30, 0.9, seed=1)
    path = write_graph(tmp_path / "dense.txt", g)
    code, out, err = run_cli(
        capsys, ["count", "--input", path, "--k", "5",
                 "--eps", "1e200", "--delta", "0.5"])
    assert code == 0, err
    row = json_rows(out)[0]
    assert row["total_weight"] > 0
    assert row["t"] == 1


def test_count_eps_delta_mode_without_sampled_entries(capsys, er_file):
    # at k = 3 every root's out-neighbourhood is emitted at ell = 2 and
    # counted exactly, whatever the vertex order, so no trial runs
    code, out, _ = run_cli(
        capsys, ["count", "--input", er_file, "--k", "3",
                 "--eps", "0.5", "--delta", "0.1"])
    assert code == 0
    row = json_rows(out)[0]
    assert (row["t"], row["total_weight"]) == (0, 0)
    exact = exact_kclique_count(load_edge_list(er_file), 3).count
    assert row["estimate"] == exact > 0


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


def test_exact_bad_time_budget_prints_no_row(capsys, er_file):
    for budget in ("nan", "-1"):
        code, out, err = run_cli(
            capsys, ["exact", "--input", er_file, "--k", "5",
                     "--time-budget-secs", budget])
        assert code == 1
        assert out == ""
        assert "time_budget must be >= 0" in err


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


def test_bad_eps_delta_exits_before_any_row(capsys, monkeypatch, er_file):
    # k = 1 and 2 are counted exactly, so they must check eps and delta too;
    # a non-finite eps is refused before the shadow is built
    for args in (["count", "--k", "2"], ["sweep", "--k-range", "1:4"]):
        code, out, err = run_cli(
            capsys, [*args, "--input", er_file, "--eps", "-1", "--delta", "2"])
        assert code == 1
        assert out == ""
        assert "eps must be positive" in err
    def unreachable(*args):
        raise AssertionError("shadow built before eps was checked")

    monkeypatch.setattr(estimator, "shadow_finder", unreachable)
    for eps in ("inf", "nan"):
        code, out, err = run_cli(
            capsys, ["count", "--k", "7", "--input", er_file, "--eps", eps,
                     "--delta", "0.5"])
        assert code == 1
        assert out == ""
        assert "eps must be positive and finite" in err


def test_trial_counts_above_int64_exit_before_the_shadow(capsys, monkeypatch,
                                                       er_file):
    # numpy's multinomial takes at most 2**63 - 1 trials; a larger count,
    # given or derived from eps, is refused before the shadow is built
    def unreachable(*args):
        raise AssertionError("shadow built before the trial count was checked")

    monkeypatch.setattr(estimator, "shadow_finder", unreachable)
    monkeypatch.setattr(cli, "shadow_finder", unreachable)
    huge = ["--samples", "100000000000000000000"]
    for args, word in ((["count", "--k", "4", "--eps", "1e-9", "--delta",
                         "0.5"], "eps"),
                       (["count", "--k", "4", "--eps", "1e-200", "--delta",
                         "0.5"], "eps"),
                       (["count", "--k", "4", *huge], "samples"),
                       (["sweep", "--k-range", "3:4", *huge], "samples"),
                       (["convergence", "--k", "4", *huge], "samples")):
        code, out, err = run_cli(capsys, [*args, "--input", er_file])
        assert (code, out) == (1, ""), args
        assert word in err and "2**63 - 1" in err, (args, err)
        assert "Traceback" not in err


def test_negative_seed_exits_before_any_row(capsys, er_file):
    for args in (["count", "--k", "2"], ["sweep", "--k-range", "2:3"]):
        code, out, err = run_cli(
            capsys, [*args, "--input", er_file, "--seed", "-1"])
        assert code == 1
        assert out == ""
        assert "seed must be >= 0" in err


def test_convergence_negative_seed_exits_before_shadow(capsys, monkeypatch,
                                                        er_file):
    def unreachable(*args):
        raise AssertionError("shadow built before the seed was checked")

    monkeypatch.setattr(cli, "shadow_finder", unreachable)
    code, out, err = run_cli(
        capsys, ["convergence", "--input", er_file, "--k", "4",
                 "--seed", "-1"])
    assert code == 1
    assert out == ""
    assert "seed must be >= 0" in err


@pytest.mark.parametrize("args,message", [
    (["count", "--k", "4", "--eps", "0.1"], "--eps and --delta"),
    (["sweep", "--k-range", "9:3"], "k range must satisfy"),
    (["sweep", "--k-range", "3:4", "--delta", "0.1"], "--eps and --delta"),
    (["convergence", "--k", "4", "--repeat", "0"], "--repeat must be >= 1"),
    (["convergence", "--k", "4", "--samples", "0"],
     "sample counts must be >= 1"),
    (["convergence", "--k", "4", "--seed", "-1"], "seed must be >= 0"),
    (["count", "--k", "0"], "k must be >= 1"),
    (["count", "--k", "4", "--samples", "0"], "samples must be >= 1"),
    (["count", "--k", "4", "--seed", "-1"], "seed must be >= 0"),
    (["count", "--k", "99"], "k must be <= 64"),
    (["stats", "--k", "0"], "k must be >= 3"),
    (["convergence", "--k", "99"], "k must be <= 64"),
    (["exact", "--k", "6", "--time-budget-secs", "-1"],
     "time_budget must be >= 0 seconds"),
    (["baseline", "--k", "4", "--p", "2"], "p must be in (0, 1]"),
], ids=["count-eps", "sweep-range", "sweep-delta", "convergence-repeat",
        "convergence-samples", "convergence-seed", "count-k", "count-samples",
        "count-seed", "count-k-max", "stats-k", "convergence-k-max",
        "exact-budget", "baseline-p"])
def test_bad_flags_exit_before_the_input_is_read(capsys, monkeypatch, args,
                                                 message):
    def unreachable(*args):
        raise AssertionError("input read before the flags were checked")

    monkeypatch.setattr(cli, "load_edge_list", unreachable)
    code, out, err = run_cli(capsys, [*args, "--input", "/no/such"])
    assert (code, out) == (1, "")
    assert message in err, err


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


def test_baseline_refuses_p_out_of_double_range(capsys, er_file):
    for p in ("1e-8", "1e-7"):
        code, out, err = run_cli(
            capsys, ["baseline", "--input", er_file, "--k", "10", "--p", p])
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: p = {float(p)} is too small for k = 10")
        assert err.count("\n") == 1 and "Traceback" not in err


def run_child(args):
    """Run python with args in a child that imports this same package."""
    src = os.path.dirname(os.path.dirname(turanshadow.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path})


def test_console_entry_point_subprocess(er_file):
    proc = run_child(["-m", "turanshadow.cli", "count", "--input", er_file,
                      "--k", "3", "--samples", "1000", "--seed", "1"])
    assert proc.returncode == 0
    row = json.loads(proc.stdout)
    assert list(row.keys()) == COUNT_KEYS
    assert proc.stderr == ""


def test_commands_never_import_numpy_ma(er_file):
    # a plain np.unique imports numpy.ma, about 0.03 s on every run, and
    # concurrent.futures costs 4-5 ms: the batch runner uses plain threads
    script = f"""
import sys
from turanshadow.cli import main
for argv in (["count", "--k", "4"], ["convergence", "--k", "4",
             "--samples", "500", "--repeat", "2"]):
    assert main([*argv, "--input", {er_file!r}]) == 0, argv
assert main(["exact", "--k", "4", "--input", {er_file!r}]) == 0
assert "concurrent.futures" not in sys.modules, "concurrent.futures imported"
assert "numpy.ma" not in sys.modules, "numpy.ma imported"
"""
    proc = run_child(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 4
