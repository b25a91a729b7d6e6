"""Benchmark of the turanshadow CLI on a seeded planted-community graph.

    python3 perfbench/run.py --workload count-k7 --seed 0 --seconds 25 \
        --trace 0

Run from the root of a source checkout (the program is imported from
`src`). Each run:

1. generates the workload's graph from `--seed` and writes its edge list;
2. computes the exact k-clique count with `exact_kclique_count` in its own
   process, outside all timed runs, and caches it by the file's hash;
3. with `--trace 1`, makes the traced runs (`traced.py`), which time every
   layer's public calls from outside;
4. for `--seconds`, runs three fresh child processes in turn: one that
   imports `turanshadow` and loads the graph (set-up), the workload's CLI
   command, which is the operation, and the fixed reference work
   (`refwork.py`) that the set-up and CLI times are scaled by. Each CLI
   output passes a correctness gate or counts as failed.

Closed loop, one client: the next child starts when the previous one has
exited, so nothing else of this harness runs while a child is timed. The
report goes to stdout; the last line is one JSON object with `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with `--trace 0`,
per-layer metrics with `--trace 1`). The full report, spans included, is
also written to `.bench_work/report-<workload>-seed<seed>-trace<t>.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Gate width in standard errors. A correct estimator fails a gate of this
# width less than once in 10^4 seeds (Student t, 15 degrees of freedom, for
# the convergence mean); an estimate 10 SE off always fails it.
Z = 6.0
SAMPLES = 50_000
CONVERGE_REPEAT = 16
# Wall time of refwork.py at the machine speed that timings are scaled to.
REFWORK_S = 0.6
# A run must exit within 180 s; no child is started past this point.
RUN_BUDGET_S = 165.0

COUNT_KEYS = (
    "command", "input", "k", "estimate", "t", "successes", "success_ratio",
    "gamma", "total_weight", "exact_offset", "shadow_sets",
    "representation_size", "alpha", "n", "m", "time_shadow_ms",
    "time_sample_ms", "seed",
)


def count_se(row: dict) -> float:
    """Standard error of a `count` estimate, from the command's own output."""
    r = row["success_ratio"]
    return row["total_weight"] * math.sqrt(r * (1.0 - r) / row["t"])


def gate_count(rows: list[dict], ref: int) -> str | None:
    if len(rows) != 1:
        return f"expected 1 row, got {len(rows)}"
    row = rows[0]
    missing = [key for key in COUNT_KEYS if key not in row]
    if missing:
        return f"count output lacks {missing}"
    off = abs(row["estimate"] - ref)
    if off > Z * count_se(row):
        return (f"estimate {row['estimate']} is {off} from exact {ref} "
                f"(> {Z} SE)")
    return None


def gate_converge(rows: list[dict], ref: int) -> str | None:
    if len(rows) != CONVERGE_REPEAT:
        return f"expected {CONVERGE_REPEAT} rows, got {len(rows)}"
    est = [row["estimate"] for row in rows]
    mean = statistics.fmean(est)
    tol = Z * statistics.stdev(est) / math.sqrt(len(est))
    if abs(mean - ref) > tol:
        return f"mean estimate {mean} is more than {tol} from exact {ref}"
    return None


def gate_exact(rows: list[dict], ref: int) -> str | None:
    if len(rows) != 1 or rows[0].get("count") != ref:
        return f"exact output {rows} differs from reference {ref}"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    cli: tuple[str, ...]
    gate: Callable[[list[dict], int], str | None]
    trace_repeat: int  # trial runs in the traced pipeline
    cli_part: str  # the traced part whose spans the CLI command also runs
    cli_trial_runs: int  # how many of the traced trial runs the CLI runs


WORKLOADS = {
    w.name: w for w in (
        Workload("count-k7", 7,
                 ("count", "--k", "7", "--samples", str(SAMPLES)), gate_count,
                 trace_repeat=4, cli_part="pipeline", cli_trial_runs=1),
        Workload("converge-k5", 5,
                 ("convergence", "--k", "5", "--samples", str(SAMPLES),
                  "--repeat", str(CONVERGE_REPEAT)),
                 gate_converge, trace_repeat=CONVERGE_REPEAT,
                 cli_part="pipeline", cli_trial_runs=CONVERGE_REPEAT),
        Workload("exact-k6", 6, ("exact", "--k", "6"), gate_exact,
                 trace_repeat=4, cli_part="oracle", cli_trial_runs=0),
    )
}


class HarnessError(RuntimeError):
    """The harness itself could not complete a run."""


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    out: str
    err: str


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(argv: list[str], timeout: float) -> Child:
    """Run one process to exit; wall time from spawn to exit, its peak RSS.

    The child is reaped with wait4 to get its own rusage. A child still
    running after `timeout` seconds is killed and reported as exit code -9.
    """
    if timeout <= 0:
        raise HarnessError("run budget exhausted before a child could start")
    with tempfile.TemporaryFile(dir=WORK) as out, \
            tempfile.TemporaryFile(dir=WORK) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())

        def kill(signum, frame):
            try:
                proc.kill()
            except ProcessLookupError:
                pass

        old = signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                     out.read().decode(), err.read().decode())


def parse_rows(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def prepare_graph(spec: gen.PlantedSpec, seed: int) -> tuple[Path, str]:
    """Write the seed's edge list (atomically); returns (path, sha256)."""
    WORK.mkdir(exist_ok=True)
    path = WORK / f"{spec.name}-seed{seed}.txt"
    tmp = path.with_suffix(".tmp")
    gen.write_edge_list(gen.planted_edges(spec, seed), tmp)
    os.replace(tmp, path)
    return path, hashlib.sha256(path.read_bytes()).hexdigest()


def traced_part(part: str, graph: Path, wl: Workload, seed: int,
                deadline: float) -> dict:
    """Run one part of traced.py in its own process and load its spans."""
    out = WORK / f"spans-{part}-{os.getpid()}.json"
    argv = [sys.executable, str(HERE / "traced.py"), "--part", part,
            "--input", str(graph.relative_to(ROOT)), "--k", str(wl.k),
            "--samples", str(SAMPLES), "--repeat", str(wl.trace_repeat),
            "--seed", str(seed), "--out", str(out)]
    child = run_child(argv, deadline - time.perf_counter())
    if child.code != 0:
        raise HarnessError(f"traced {part} run exited {child.code}: "
                           f"{child.err.strip()[-2000:]}")
    try:
        return json.loads(out.read_text())
    finally:
        out.unlink()


def spans_named(doc: dict, name: str) -> list[dict]:
    return [s for s in doc["spans"] if s["name"] == name]


def first_span(doc: dict, name: str) -> dict:
    return spans_named(doc, name)[0]


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def reference(graph: Path, sha: str, spec_name: str, wl: Workload, seed: int,
              deadline: float, oracle_doc: dict | None) -> dict:
    """Exact count plus n, m and alpha of the graph, cached by file hash.

    Checked against the committed values in reference.json where that file
    lists this (graph, seed, k).
    """
    cache = WORK / f"ref-{sha[:20]}-k{wl.k}.json"
    if oracle_doc is None and cache.is_file():
        ref = json.loads(cache.read_text())
    else:
        if oracle_doc is None:
            oracle_doc = traced_part("oracle", graph, wl, seed, deadline)
        load = first_span(oracle_doc, "graph.load")["counts"]
        degen = first_span(oracle_doc, "graph.degeneracy")["counts"]
        exact = first_span(oracle_doc, "oracle.exact")["counts"]
        ref = {"count": exact["count"], "n": load["n"], "m": load["m"],
               "alpha": degen["alpha"]}
        cache.write_text(json.dumps(ref))
    committed = json.loads((HERE / "reference.json").read_text())["graphs"]
    listed = committed.get(spec_name, {}).get(str(seed), {})
    ref["committed"] = listed.get("exact", {}).get(str(wl.k))
    return ref


@dataclass
class Op:
    setup_s: float
    wall_s: float
    rss_mb: float
    refwork_before_s: float  # reference work run just before the set-up
    refwork_after_s: float  # reference work run just after the CLI
    rows: list[dict]
    error: str | None


def timed_ops(wl: Workload, graph: Path, seed: int, ref: int,
              seconds: float, deadline: float) -> list[Op]:
    """Closed loop of set-up, CLI and reference-work children for `seconds`.

    The sequence is R S C R S C R ...: each set-up (S) directly follows a
    reference-work run (R) and each CLI run (C) directly precedes one.
    """
    rel = str(graph.relative_to(ROOT))
    setup = [sys.executable, "-c",
             "import sys, turanshadow; "
             "turanshadow.load_edge_list(sys.argv[1])", rel]
    cli = [sys.executable, "-m", "turanshadow.cli", wl.cli[0], "--input", rel,
           "--seed", str(seed), *wl.cli[1:]]
    refwork = [sys.executable, str(HERE / "refwork.py")]
    # untimed: writes the bytecode cache and warms the page cache
    run_child(setup, deadline - time.perf_counter())
    before = run_child(refwork, deadline - time.perf_counter())
    ops: list[Op] = []
    end = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        s = run_child(setup, deadline - start)
        c = run_child(cli, deadline - time.perf_counter())
        after = run_child(refwork, deadline - time.perf_counter())
        if before.code != 0 or after.code != 0:
            raise HarnessError(f"reference work failed: {after.err}")
        rows: list[dict] = []
        if s.code != 0:
            error = f"set-up child exited {s.code}: {s.err.strip()[-500:]}"
        elif c.code != 0:
            error = f"CLI exited {c.code}: {c.err.strip()[-500:]}"
        else:
            try:
                rows = parse_rows(c.out)
                error = wl.gate(rows, ref)
            except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
                error = f"unreadable CLI output: {exc!r}"
        ops.append(Op(s.wall_s, c.wall_s, c.rss_mb, before.wall_s,
                      after.wall_s, rows, error))
        before = after
        now = time.perf_counter()
        if now >= end or now + 2.0 * (now - start) >= deadline:
            return ops


def summarize(values: list[float]) -> dict:
    """Median, minimum, and the highest percentile with at least ten samples
    beyond it (the maximum when there are too few), with the sample count."""
    xs = sorted(values)
    n = len(xs)
    out = {"median": statistics.median(xs), "min": xs[0]}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            out[f"p{p:g}"] = xs[min(n - 1, math.ceil(p / 100.0 * n) - 1)]
            break
    else:
        out["max"] = xs[-1]
    out.update(n=n, samples=values)
    return out


def end_to_end(ops: list[Op]) -> dict[str, tuple[str, dict]]:
    """Unit and summary of each timed quantity; the result reports medians.

    wall_s and setup_s are each run's wall time scaled to a fixed machine
    speed: multiplied by REFWORK_S over the wall time of the reference work
    run next to it (refwork.py). On the two-core machine the benchmark was
    tuned on, phases of 30 s and more in which all code ran up to 1.9x
    slower made the median raw CLI time of a 25 s run spread by about 30%
    between runs of the same input, and its minimum by nearly as much; the
    median scaled time spread by 5-10%. The raw times are reported beside.
    """
    return {
        "wall_s": ("s", summarize([REFWORK_S * o.wall_s / o.refwork_after_s
                                   for o in ops])),
        "setup_s": ("s", summarize([REFWORK_S * o.setup_s
                                    / o.refwork_before_s for o in ops])),
        "peak_rss_mb": ("MB", summarize([o.rss_mb for o in ops])),
        "raw_wall_s": ("s", summarize([o.wall_s for o in ops])),
        "raw_setup_s": ("s", summarize([o.setup_s for o in ops])),
        "refwork_s": ("s", summarize([o.refwork_after_s for o in ops])),
    }


def per_layer(wl: Workload, pipe: dict, orac: dict, e2e: dict,
              exact: int) -> dict[str, float]:
    """Per-layer metrics from the two traced documents."""
    load = first_span(pipe, "graph.load")
    degen = first_span(pipe, "graph.degeneracy")
    shadow = first_span(pipe, "shadow.build")
    build = first_span(pipe, "estimator.build")
    exact_span = first_span(orac, "oracle.exact")
    trials = spans_named(pipe, "estimator.trials")
    sc, bc, t0c = shadow["counts"], build["counts"], trials[0]["counts"]
    m = load["counts"]["m"]
    r0 = t0c["successes"] / t0c["trials"]
    warm = statistics.median(duration(s) for s in trials[1:])
    ran = sum(s["counts"]["trials"] for s in trials)
    useful = sum(s["counts"]["successes"] for s in trials)
    if wl.cli_part == "pipeline":
        cli_spans = ([first_span(pipe, "cli.import"), load, shadow, build]
                     + trials[:wl.cli_trial_runs])
    else:
        cli_spans = [first_span(orac, "cli.import"),
                     first_span(orac, "graph.load"), exact_span]
    wall = e2e["raw_wall_s"][1]["median"]
    return {
        "graph.load_s": duration(load),
        "graph.degeneracy_s": duration(degen),
        "graph.n": load["counts"]["n"],
        "graph.m": m,
        "graph.alpha": degen["counts"]["alpha"],
        "graph.load_rss_mb": load["rss_peak_mb"],
        "shadow.build_s": duration(shadow),
        "shadow.entries": sc["entries"],
        **{f"shadow.ell.{e}": sc["ell_histogram"].get(str(e), 0)
           for e in range(2, 7)},
        "shadow.representation_size": sc["representation_size"],
        "shadow.repr_per_m": sc["representation_size"] / m,
        "shadow.max_set_size": sc["max_set_size"],
        "shadow.rss_mb": shadow["rss_peak_mb"],
        "estimator.build_s": duration(build),
        "estimator.gamma": bc["gamma"],
        "estimator.sampled_entries": bc["sampled_entries"],
        "estimator.exact_offset": bc["exact_offset"],
        "estimator.trials": ran,
        "estimator.trials_cold_s": duration(trials[0]),
        "estimator.trials_warm_s": warm,
        "estimator.trials_per_s": t0c["trials"] / warm,
        "estimator.success_ratio": useful / ran,
        "estimator.rel_err": abs(t0c["estimate"] - exact) / exact,
        "estimator.rel_se": (bc["total_weight"]
                             * math.sqrt(r0 * (1.0 - r0) / t0c["trials"])
                             / t0c["estimate"]),
        "estimator.rss_mb": trials[-1]["rss_peak_mb"],
        "oracle.exact_s": duration(exact_span),
        "oracle.count": exact_span["counts"]["count"],
        "oracle.rss_mb": exact_span["rss_peak_mb"],
        "cli.import_s": duration(first_span(pipe, "cli.import")),
        "cli.residual_s": wall - sum(duration(s) for s in cli_spans),
        "cli.wall_s": wall,
        "cli.refwork_s": e2e["refwork_s"][1]["median"],
        "trace.overhead_s": pipe["overhead_s"] + orac["overhead_s"],
        "trace.spans": len(pipe["spans"]) + len(orac["spans"]),
    }


def load_units() -> tuple[dict, dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def span_tree(doc: dict) -> list[str]:
    lines = []
    depth = {}
    for s in doc["spans"]:
        d = 0 if s["parent"] is None else depth[s["parent"]] + 1
        depth[s["id"]] = d
        counts = " ".join(f"{k}={v}" for k, v in s["counts"].items()
                          if not isinstance(v, dict))
        lines.append(f"  {'  ' * d}{s['name']:<{24 - 2 * d}} "
                     f"{s['start']:9.4f} {s['end']:9.4f} "
                     f"{duration(s):9.4f} s  rss {s['rss_peak_mb']:7.1f} MB"
                     f"  {counts}")
    return lines


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--graph", choices=sorted(gen.SPECS),
                    default="planted-12k",
                    help="graph family (planted-small is the self-test graph)")
    args = ap.parse_args(argv)
    if not (SRC / "turanshadow" / "__init__.py").is_file():
        print(f"error: no turanshadow package under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_BUDGET_S
    wl = WORKLOADS[args.workload]
    spec = gen.SPECS[args.graph]
    e2e_units, layer_units = load_units()

    graph, sha = prepare_graph(spec, args.seed)
    orac = traced_part("oracle", graph, wl, args.seed, deadline) \
        if args.trace else None
    ref = reference(graph, sha, spec.name, wl, args.seed, deadline, orac)
    ref_error = None
    if ref["committed"] is not None and ref["committed"] != ref["count"]:
        ref_error = (f"exact count {ref['count']} differs from the committed "
                     f"reference {ref['committed']}")
    pipe = traced_part("pipeline", graph, wl, args.seed, deadline) \
        if args.trace else None
    ops = timed_ops(wl, graph, args.seed, ref["count"], args.seconds,
                    deadline)

    e2e = end_to_end(ops)
    failed = sum(o.error is not None for o in ops)
    report = {
        "machine": machine(),
        "workload": wl.name, "command": ["turanshadow", *wl.cli],
        "seed": args.seed,
        "graph": {"name": spec.name, "sha256": sha, "n": ref["n"],
                  "m": ref["m"], "alpha": ref["alpha"]},
        "reference": {"k": wl.k, "count": ref["count"],
                      "committed": ref["committed"], "error": ref_error},
        "attempted": len(ops), "failed": failed,
        "errors": sorted({o.error for o in ops if o.error}),
        "end_to_end": {name: st for name, (_, st) in e2e.items()},
    }
    if wl.name == "count-k7" and ops[0].error is None:
        row = ops[0].rows[0]
        report["count_rel_se"] = count_se(row) / row["estimate"]
    print(f"machine   {json.dumps(report['machine'])}")
    print(f"workload  {wl.name}: {' '.join(report['command'])} "
          f"(seed {args.seed}, {len(ops)} runs, {failed} failed)")
    print(f"graph     {json.dumps(report['graph'])}")
    print(f"reference {json.dumps(report['reference'])}")
    for err in report["errors"]:
        print(f"FAILED    {err}")
    if "count_rel_se" in report:
        print(f"rel_se    {report['count_rel_se']!r} (count output, "
              f"{SAMPLES} trials)")
    print("end-to-end (untraced)")
    for name, (unit, st) in e2e.items():
        stats = "  ".join(f"{k} {v:.4f}" for k, v in st.items()
                          if k not in ("n", "samples"))
        print(f"  {name:<12} [{unit}]  {stats}  n={st['n']}")

    if args.trace:
        layers = per_layer(wl, pipe, orac, e2e, ref["count"])
        report["per_layer"] = layers
        report["spans"] = {"pipeline": pipe, "oracle": orac}
        print("per-layer (traced, one run of each part)")
        for name, value in layers.items():
            print(f"  {name:<28} {value!r} {layer_units[name]}")
        print("spans (name, start, end, duration)")
        for doc in (orac, pipe):
            print("\n".join(span_tree(doc)))
        print(f"tracing overhead {layers['trace.overhead_s']!r} s over "
              f"{layers['trace.spans']} spans")
        metrics = {name: {"value": layers[name], "unit": layer_units[name]}
                   for name in layer_units}
    else:
        metrics = {name: {"value": e2e[name][1]["median"], "unit": unit}
                   for name, unit in e2e_units.items()}
    name = f"report-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(report, indent=1))
    print(json.dumps({"correct": failed == 0 and ref_error is None,
                      "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
