"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a source checkout. Checks that the generator is
deterministic, that each correctness gate rejects a corrupted result taken
from real CLI output, that a directory without the program makes the
benchmark fail, and runs all three workloads, timed and traced, on the small
self-test graph through the same code path as a real run. Prints one line
per check and exits nonzero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gen
import run


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def test_generator_determinism() -> None:
    spec = gen.SPECS["planted-small"]
    with tempfile.TemporaryDirectory(dir=run.WORK) as d:
        a, b, c = (Path(d) / name for name in ("a", "b", "c"))
        gen.write_edge_list(gen.planted_edges(spec, 7), a)
        gen.write_edge_list(gen.planted_edges(spec, 7), b)
        gen.write_edge_list(gen.planted_edges(spec, 8), c)
        check(a.read_bytes() == b.read_bytes(), "same seed, different files")
        check(a.read_bytes() != c.read_bytes(), "two seeds, same file")
    e = gen.planted_edges(spec, 7)
    check(bool((e[:, 0] < e[:, 1]).all()), "edges not canonical")
    check(len(e) == len({tuple(p) for p in e.tolist()}), "duplicate edges")


def cli_rows(wl: run.Workload, graph: Path, seed: int) -> list[dict]:
    argv = [sys.executable, "-m", "turanshadow.cli", wl.cli[0], "--input",
            str(graph.relative_to(run.ROOT)), "--seed", str(seed), *wl.cli[1:]]
    child = run.run_child(argv, 120.0)
    check(child.code == 0, f"{wl.name} CLI exited {child.code}: {child.err}")
    return run.parse_rows(child.out)


def test_gates_reject_corruption() -> None:
    spec = gen.SPECS["planted-small"]
    graph, sha = run.prepare_graph(spec, 0)
    deadline = time.perf_counter() + 120.0
    refs = {}
    for name, wl in run.WORKLOADS.items():
        ref = run.reference(graph, sha, spec.name, wl, 0, deadline, None)
        check(ref["committed"] == ref["count"],
              f"{name}: exact count {ref['count']} is not the committed "
              f"{ref['committed']}")
        refs[name] = ref["count"]

    wl = run.WORKLOADS["count-k7"]
    rows, ref = cli_rows(wl, graph, 0), refs["count-k7"]
    check(run.gate_count(rows, ref) is None, "count gate rejects real output")
    se = run.count_se(rows[0])
    for sign in (1, -1):
        bad = [dict(rows[0], estimate=ref + sign * 10 * se)]
        check(run.gate_count(bad, ref) is not None,
              "count gate passes +-10 SE")
    short = [{k: v for k, v in rows[0].items() if k != "alpha"}]
    check(run.gate_count(short, ref) is not None,
          "count gate passes a lost key")

    wl = run.WORKLOADS["converge-k5"]
    rows, ref = cli_rows(wl, graph, 0), refs["converge-k5"]
    check(run.gate_converge(rows, ref) is None,
          "converge gate rejects real output")
    est = [row["estimate"] for row in rows]
    shift = 10 * statistics.stdev(est) / len(est) ** 0.5
    bad = [dict(row, estimate=row["estimate"] + shift) for row in rows]
    check(run.gate_converge(bad, ref) is not None,
          "converge gate passes +10 SE")
    check(run.gate_converge(rows[:-1], ref) is not None,
          "converge gate passes a missing row")

    wl = run.WORKLOADS["exact-k6"]
    rows, ref = cli_rows(wl, graph, 0), refs["exact-k6"]
    check(run.gate_exact(rows, ref) is None, "exact gate rejects real output")
    for off in (1, -1):
        bad = [dict(rows[0], count=rows[0]["count"] + off)]
        check(run.gate_exact(bad, ref) is not None, "exact gate passes +-1")


def bench(args: list[str], cwd: Path) -> tuple[int, str]:
    p = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                       capture_output=True, text=True, timeout=170)
    return p.returncode, p.stdout


def test_smoke_all_workloads() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    for wl in spec["workloads"]:
        for trace in (0, 1):
            code, out = bench(["--workload", wl["name"], "--seed", "0",
                               "--seconds", "1", "--trace", str(trace),
                               "--graph", "planted-small"], run.ROOT)
            check(code == 0, f"{wl['name']} trace {trace} exited {code}")
            res = json.loads(out.strip().splitlines()[-1])
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  f"result keys {sorted(res)}")
            check(res["correct"] and res["failed"] == 0
                  and res["attempted"] >= 1,
                  f"{wl['name']} trace {trace}: {res}")
            check(sorted(res["metrics"]) == sorted(names[trace]),
                  f"{wl['name']} trace {trace} metric names differ")


def test_fails_without_program() -> None:
    with tempfile.TemporaryDirectory(dir=run.WORK) as d:
        shutil.copy(run.ROOT / "BENCHMARK.json", d)
        shutil.copytree(run.HERE, Path(d) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, out = bench(["--workload", "count-k7", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], Path(d))
    check(code != 0, "benchmark succeeded without the program")
    check(out.strip() == "", "benchmark printed a result without the program")


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    for test in (test_generator_determinism, test_gates_reject_corruption,
                 test_fails_without_program, test_smoke_all_workloads):
        t0 = time.perf_counter()
        test()
        print(f"ok  {test.__name__} ({time.perf_counter() - t0:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
