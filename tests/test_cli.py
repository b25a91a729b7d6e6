import csv
import io
import json
import math
import os

import numpy as np
import pytest

from turanshadow import cli, estimator, shadow
from turanshadow.cli import main
from turanshadow.estimator import required_samples
from turanshadow.graph import degeneracy_order, load_edge_list
from turanshadow.oracle import exact_kclique_count

from budgets import spy_builds
from genutil import (
    complete_graph,
    cycle_graph,
    er_graph,
    neighbors,
    planted_small,
    run_child,
)

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
            for u in neighbors(g, v).tolist():
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


def test_csv_quotes_a_cell_holding_a_comma(capsys, tmp_path):
    path = write_graph(tmp_path / "a,b.txt", complete_graph(5))
    code, out, _ = run_cli(
        capsys, ["stats", "--input", path, "--k", "4", "--format", "csv"])
    assert code == 0
    header, row = csv.reader(out.splitlines())
    assert len(row) == len(header) == 13
    assert dict(zip(header, row))["input"] == path
    assert f'"{path}"' in out


def test_csv_quotes_a_cell_holding_a_carriage_return(capsys, tmp_path):
    path = write_graph(tmp_path / "a\rb.txt", complete_graph(5))
    code, out, _ = run_cli(
        capsys, ["stats", "--input", path, "--k", "4", "--format", "csv"])
    assert code == 0
    header, row = csv.reader(io.StringIO(out, newline=""))
    assert len(row) == len(header) == 13
    assert dict(zip(header, row))["input"] == path


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


def test_id_outside_int64_fails_with_one_line_error(capsys, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("0 1\n1 99999999999999999999\n")
    code, out, err = run_cli(capsys, ["exact", "--input", str(path),
                                      "--k", "3"])
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: line 2: id outside the int64 range in "
        "'1 99999999999999999999'"]


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


STATS_KEYS = [
    "command", "input", "k", "set_count", "representation_size",
    "max_set_size", "ell_histogram", "depth_reached", "alpha", "n", "m",
    "ratio_representation_to_m", "time_ms",
]

# stats rows on planted-small, seed 0, as the shadow of each k gave them
PLANTED_SMALL_STATS = {
    5: (627, 2991, 26, {"2": 141, "3": 417, "4": 69}, 3, 0.4396589739820667),
    6: (557, 3117, 26, {"2": 8, "3": 208, "4": 307, "5": 34}, 4,
        0.45818021461120095),
    7: (756, 5697, 22, {"2": 10, "3": 59, "4": 258, "5": 424, "6": 5}, 5,
        0.8374246655887109),
}


@pytest.mark.parametrize("k", sorted(PLANTED_SMALL_STATS))
def test_stats_row_is_pinned_on_planted_small(capsys, tmp_path, k):
    path = write_graph(tmp_path / "small.txt", planted_small())
    code, out, _ = run_cli(capsys, ["stats", "--input", path, "--k", str(k)])
    assert code == 0
    row = json_rows(out)[0]
    assert list(row) == STATS_KEYS
    sets, size, largest, hist, depth, ratio = PLANTED_SMALL_STATS[k]
    assert strip_timing(row) == {
        "command": "stats", "input": path, "k": k, "set_count": sets,
        "representation_size": size, "max_set_size": largest,
        "ell_histogram": hist, "depth_reached": depth, "alpha": 26,
        "n": 1498, "m": 6803, "ratio_representation_to_m": ratio}


def test_stats_row_on_the_empty_graph(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    code, out, _ = run_cli(capsys, ["stats", "--input", str(path),
                                    "--k", "5"])
    assert code == 0
    row = json_rows(out)[0]
    assert list(row) == STATS_KEYS
    assert strip_timing(row) == {
        "command": "stats", "input": str(path), "k": 5, "set_count": 0,
        "representation_size": 0, "max_set_size": 0, "ell_histogram": {},
        "depth_reached": 0, "alpha": 0, "n": 0, "m": 0,
        "ratio_representation_to_m": 0.0}


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


def test_sweep_builds_the_order_and_table_once(capsys, monkeypatch,
                                              tmp_path):
    # neither depends on k: sweep builds each once, for its first k, and
    # its rows are those of one count per k, each on a fresh load
    path = write_graph(tmp_path / "er.txt", er_graph(90, 0.35, seed=3))
    keys = ("k", "estimate", "success_ratio", "t", "seed")
    expected = []
    for k in range(3, 7):
        code, out, _ = run_cli(capsys, ["count", "--input", path, "--k",
                                        str(k), "--samples", "3000"])
        assert code == 0
        expected.append({key: json_rows(out)[0][key] for key in keys})
    built = spy_builds(monkeypatch)
    code, out, _ = run_cli(capsys, ["sweep", "--input", path, "--k-range",
                                    "3:6", "--samples", "3000"])
    assert code == 0
    assert [{key: r[key] for key in keys} for r in json_rows(out)] \
        == expected
    assert [len(built["order"]), len(built["table"])] == [1, 1]


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
    (["count", "--k", "4", "--eps", "0.1"],
     "eps and delta must be given together"),
    (["sweep", "--k-range", "9:3"], "k range must satisfy"),
    (["sweep", "--k-range", "3:4", "--delta", "0.1"],
     "eps and delta must be given together"),
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


def test_console_entry_point_subprocess(er_file):
    # -W error: runpy warns when something imports turanshadow.cli before
    # running it, as an eager package __init__ would
    proc = run_child(["-W", "error", "-m", "turanshadow.cli", "count",
                      "--input", er_file, "--k", "3", "--samples", "1000",
                      "--seed", "1"], OPENBLAS_NUM_THREADS=None)
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


def test_exact_never_imports_numpy_random(er_file):
    # numpy.random's extension modules take about 12 ms to import cold, and
    # an exact count draws nothing (older numpy imports it with numpy)
    script = f"""
import sys
import numpy
eager = "numpy.random" in sys.modules
from turanshadow.cli import main
assert main(["exact", "--k", "5", "--input", {er_file!r}]) == 0
assert eager or "numpy.random" not in sys.modules, "numpy.random imported"
"""
    proc = run_child(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 1


@pytest.mark.parametrize("argv, modules", [
    (["exact", "--k", "4"], {"graph", "shadow", "oracle"}),
    (["count", "--k", "4", "--samples", "500"],
     {"graph", "shadow", "estimator"}),
    (["sweep", "--k-range", "3:4", "--samples", "500"],
     {"graph", "shadow", "estimator"}),
    (["convergence", "--k", "4", "--samples", "500"],
     {"graph", "shadow", "estimator"}),
    (["stats", "--k", "4"], {"graph", "shadow"}),
    (["baseline", "--k", "4", "--p", "0.5"],
     {"graph", "shadow", "oracle", "baseline"}),
], ids=["exact", "count", "sweep", "convergence", "stats", "baseline"])
def test_each_command_imports_only_its_own_modules(er_file, argv, modules):
    # a cold process compiles each module it imports when no bytecode is
    # cached (about 2 ms for the estimator and 3 ms for the baseline), and
    # what a module makes joins the collector's walks unless frozen: a
    # frozen module's namespace is tracked by no generation
    script = f"""
import gc, sys
from turanshadow.cli import main
assert main([*{argv!r}, "--input", {er_file!r}]) == 0
loaded = sorted(m for m in sys.modules if m.startswith("turanshadow."))
tracked = {{id(o) for o in gc.get_objects()}}
assert not [m for m in loaded if id(vars(sys.modules[m])) in tracked]
print(loaded)
"""
    proc = run_child(["-c", script])
    assert proc.returncode == 0, proc.stderr
    *rows, loaded = proc.stdout.splitlines()
    assert rows
    assert loaded == str(sorted(f"turanshadow.{m}"
                                for m in {"cli", *modules}))


def test_help_names_the_default_trial_count(capsys):
    with pytest.raises(SystemExit):
        main(["count", "--help"])
    assert f"(default {estimator.DEFAULT_SAMPLES})" in capsys.readouterr().out


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_cli_import_gives_openblas_one_thread_by_default(preset, expected):
    script = """
import gc, os
enabled = gc.isenabled()
import turanshadow.cli
print(os.environ["OPENBLAS_NUM_THREADS"])
assert gc.get_freeze_count() > 0, "nothing frozen"
assert gc.isenabled() == enabled, "collector switched"
"""
    proc = run_child(["-c", script], OPENBLAS_NUM_THREADS=preset)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected + "\n"


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
    reason="needs /proc/self/task and two CPUs")
def test_cli_import_starts_no_blas_thread():
    script = ("import os, turanshadow.cli; "
              "print(len(os.listdir('/proc/self/task')))")
    proc = run_child(["-c", script], OPENBLAS_NUM_THREADS=None)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"
