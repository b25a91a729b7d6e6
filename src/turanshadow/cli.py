"""Command-line front end.

Subcommands: count (shadow estimator), exact (exact count by the
degeneracy-ordered clique counter, the ground truth), stats (shadow
structure), sweep (estimates over a k range), convergence (repeated runs
at one or more sample counts), baseline (edge sampling).
Data goes to stdout as JSON objects (one per line) or CSV; diagnostics go
to stderr. Reruns with identical flags are byte-identical except for the
timing fields.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .baseline import check_baseline_args, edge_sampling_estimate
from .estimator import (
    DEFAULT_SAMPLES,
    MAX_SAMPLES,
    build_sampler,
    check_count_args,
    estimate_from_trials,
    gamma_of,
    required_samples,
    run_trials,
    turan_shadow_count,
)
from .graph import load_edge_list
from .oracle import check_exact_args, exact_kclique_count
from .shadow import MAX_K, check_shadow_args, shadow_finder, shadow_stats


class _Emitter:
    """Writes rows as one-per-line JSON objects or CSV with a header."""

    def __init__(self, fmt: str, out):
        self.fmt = fmt
        self.out = out
        self.header_done = False

    def row(self, data: dict) -> None:
        if self.fmt == "json":
            self.out.write(json.dumps(data) + "\n")
            return
        if not self.header_done:
            self.out.write(",".join(data.keys()) + "\n")
            self.header_done = True
        self.out.write(",".join(_csv_cell(v) for v in data.values()) + "\n")


def _csv_cell(value) -> str:
    if isinstance(value, dict):
        return "|".join(f"{k}:{v}" for k, v in value.items())
    return str(value)


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _parse_k_range(text: str) -> tuple[int, int]:
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ValueError(f"bad k range {text!r}, expected LO:HI") from None
    if not 1 <= lo <= hi <= MAX_K:
        raise ValueError(f"k range must satisfy 1 <= lo <= hi <= {MAX_K}")
    return lo, hi


def _parse_samples_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"bad sample count list {text!r}") from None
    if any(v < 1 for v in values):
        raise ValueError("sample counts must be >= 1")
    if any(v > MAX_SAMPLES for v in values):
        raise ValueError("--samples must be at most 2**63 - 1")
    return values


def _sampling_kwargs(args) -> dict:
    if (args.eps is None) != (args.delta is None):
        raise ValueError("--eps and --delta must be given together")
    if args.eps is not None:
        if args.samples is not None:
            raise ValueError("use either --samples or --eps/--delta, not both")
        return {"eps": args.eps, "delta": args.delta}
    samples = int(args.samples) if args.samples is not None else DEFAULT_SAMPLES
    return {"samples": samples}


def cmd_count(args, emit: _Emitter) -> int:
    sampling = _sampling_kwargs(args)
    check_count_args(args.k, seed=args.seed, **sampling)
    g = load_edge_list(args.input)
    report = turan_shadow_count(g, args.k, seed=args.seed, **sampling)
    emit.row({
        "command": "count",
        "input": args.input,
        "k": report.k,
        "estimate": report.estimate,
        "t": report.samples_run,
        "successes": report.successes,
        "success_ratio": report.success_ratio,
        "gamma": report.gamma,
        "total_weight": report.total_weight,
        "exact_offset": report.exact_offset,
        "shadow_sets": report.shadow_set_count,
        "representation_size": report.representation_size,
        "alpha": report.alpha,
        "n": g.vertex_count,
        "m": g.edge_count,
        "time_shadow_ms": _ms(report.time_shadow),
        "time_sample_ms": _ms(report.time_sample),
        "seed": report.seed,
    })
    return 0


def cmd_exact(args, emit: _Emitter) -> int:
    check_exact_args(args.k, args.time_budget_secs)
    g = load_edge_list(args.input)
    res = exact_kclique_count(g, args.k, time_budget=args.time_budget_secs)
    emit.row({
        "command": "exact",
        "input": args.input,
        "k": res.k,
        "count": res.count,
        "n": g.vertex_count,
        "m": g.edge_count,
        "time_ms": _ms(res.elapsed),
    })
    return 0


def cmd_stats(args, emit: _Emitter) -> int:
    check_shadow_args(args.k)
    g = load_edge_list(args.input)
    t0 = time.perf_counter()
    sh = shadow_finder(g, args.k)
    stats = shadow_stats(sh)
    elapsed = time.perf_counter() - t0
    m = g.edge_count
    emit.row({
        "command": "stats",
        "input": args.input,
        "k": args.k,
        "set_count": stats["set_count"],
        "representation_size": stats["representation_size"],
        "max_set_size": stats["max_set_size"],
        "ell_histogram": {str(k): v for k, v in stats["ell_histogram"].items()},
        "depth_reached": stats["depth_reached"],
        "alpha": sh.alpha,
        "n": g.vertex_count,
        "m": m,
        "ratio_representation_to_m":
            stats["representation_size"] / m if m else 0.0,
        "time_ms": _ms(elapsed),
    })
    return 0


def cmd_sweep(args, emit: _Emitter) -> int:
    lo, hi = _parse_k_range(args.k_range)
    sampling = _sampling_kwargs(args)
    for k in range(lo, hi + 1):
        check_count_args(k, seed=args.seed, **sampling)
    g = load_edge_list(args.input)
    for k in range(lo, hi + 1):
        report = turan_shadow_count(g, k, seed=args.seed, **sampling)
        emit.row({
            "command": "sweep",
            "input": args.input,
            "k": k,
            "estimate": report.estimate,
            "success_ratio": report.success_ratio,
            "t": report.samples_run,
            "time_ms": _ms(report.time_shadow + report.time_sample),
            "seed": args.seed,
        })
    return 0


def cmd_convergence(args, emit: _Emitter) -> int:
    sample_counts = _parse_samples_list(args.samples or str(DEFAULT_SAMPLES))
    if args.repeat < 1:
        raise ValueError("--repeat must be >= 1")
    if args.seed < 0:
        raise ValueError("seed must be >= 0")
    check_shadow_args(args.k)
    g = load_edge_list(args.input)
    sh = shadow_finder(g, args.k)  # built once, shared by all runs
    st = build_sampler(sh, g)
    for t in sample_counts:
        for run in range(args.repeat):
            successes, t_run = run_trials(st, g, t, args.seed + run)
            estimate = estimate_from_trials(st, successes, t_run)
            emit.row({
                "command": "convergence",
                "input": args.input,
                "k": args.k,
                "t": t,
                "run": run,
                "estimate": estimate,
                "seed": args.seed + run,
            })
    return 0


def cmd_baseline(args, emit: _Emitter) -> int:
    if args.p is not None:
        ps = [args.p]
    else:
        ps = [round(0.1 * i, 1) for i in range(1, 11)]
    for p in ps:
        check_baseline_args(args.k, p, args.seed)
    g = load_edge_list(args.input)
    for p in ps:
        rep = edge_sampling_estimate(g, args.k, p, seed=args.seed)
        emit.row({
            "command": "baseline",
            "input": args.input,
            "k": rep.k,
            "p": rep.p,
            "estimate": rep.estimate,
            "sampled_edges": rep.sampled_edges,
            "time_ms": _ms(rep.elapsed),
            "seed": rep.seed,
        })
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turanshadow",
        description="k-clique counting on sparse graphs via shadow sampling")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, k_flag=True):
        p.add_argument("--input", required=True, help="edge-list file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if k_flag:
            p.add_argument("--k", type=int, required=True)

    def sampling(p):
        p.add_argument("--samples", type=int, default=None,
                       help=f"fixed trial count (default {DEFAULT_SAMPLES})")
        p.add_argument("--eps", type=float, default=None)
        p.add_argument("--delta", type=float, default=None)

    p = sub.add_parser("count", help="estimate the k-clique count")
    common(p)
    sampling(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("exact", help="exact k-clique count")
    common(p)
    p.add_argument("--time-budget-secs", type=float, default=None,
                   help="refuse if the count runs longer than this")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("stats", help="shadow structure for one k")
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("sweep", help="estimates over a k range")
    common(p, k_flag=False)
    p.add_argument("--k-range", required=True, metavar="LO:HI")
    sampling(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("convergence",
                       help="repeated runs over one shared shadow")
    common(p)
    p.add_argument("--samples", default=None,
                   help="trial count or comma-separated list")
    p.add_argument("--repeat", type=int, default=1)
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("baseline", help="edge-sampling estimate")
    common(p)
    p.add_argument("--p", type=float, default=None,
                   help="keep probability; sweeps 0.1..1.0 when omitted")
    p.set_defaults(func=cmd_baseline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    emit = _Emitter(args.format, sys.stdout)
    try:
        return args.func(args, emit)
    except Exception as exc:  # noqa: BLE001 - one exit path for the CLI
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
