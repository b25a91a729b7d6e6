"""Traced run of one workload's layers, in a fresh process.

Calls the public functions of each `turanshadow` module from outside and
records one span per call (name, start, end, the span that caused it), with
the counts each layer produced at that boundary and the peak RSS so far.
Spans stay in memory and are written as one JSON document when the run ends.

Two parts, each its own process so that peak RSS is per part:

- `pipeline`: import, load, degeneracy order, shadow, sampler, then
  `--repeat` trial runs with seeds seed, seed+1, ...
- `oracle`: import, load, degeneracy order, exact count.

    python3 perfbench/traced.py --part pipeline --input g.txt --k 7 \
        --samples 50000 --repeat 4 --seed 0 --out spans.json
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder that also times its own bookkeeping."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.overhead_s = 0.0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record a span around the body; the body fills the yielded counts."""
        b = time.perf_counter()
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter() - self.t0
        self.overhead_s += time.perf_counter() - b
        try:
            yield rec["counts"]
        finally:
            e = time.perf_counter()
            rec["end"] = e - self.t0
            self._stack.pop()
            rec["rss_peak_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            self.overhead_s += time.perf_counter() - e

    def document(self) -> dict:
        return {"spans": self.spans, "overhead_s": self.overhead_s}


def run_pipeline(tr: Tracer, ts, path: str, k: int, samples: int,
                 repeat: int, seed: int) -> None:
    with tr.span("graph.load") as c:
        g = ts.load_edge_list(path)
        c.update(n=g.vertex_count, m=g.edge_count)
    with tr.span("graph.degeneracy") as c:
        c["alpha"] = ts.degeneracy_order(g).alpha
    with tr.span("shadow.build") as c:
        sh = ts.shadow_finder(g, k)
        c.update(entries=len(sh.entries),
                 representation_size=sh.representation_size,
                 max_set_size=sh.max_set_size,
                 ell_histogram={str(ell): count for ell, count
                                in sh.ell_histogram.items()})
    with tr.span("estimator.build") as c:
        st = ts.build_sampler(sh, g)
        c.update(gamma=ts.gamma_of(sh), sampled_entries=st.entry_count,
                 exact_offset=st.exact_offset, total_weight=st.total_weight)
    for i in range(repeat):
        with tr.span("estimator.trials") as c:
            successes, t = ts.run_trials(st, g, samples, seed + i)
            c.update(seed=seed + i, trials=t, successes=successes,
                     estimate=ts.estimate_from_trials(st, successes, t))


def run_oracle(tr: Tracer, ts, path: str, k: int) -> None:
    with tr.span("graph.load") as c:
        g = ts.load_edge_list(path)
        c.update(n=g.vertex_count, m=g.edge_count)
    with tr.span("graph.degeneracy") as c:
        c["alpha"] = ts.degeneracy_order(g).alpha
    with tr.span("oracle.exact") as c:
        c["count"] = ts.exact_kclique_count(g, k).count


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--part", choices=("pipeline", "oracle"), required=True)
    ap.add_argument("--input", required=True)
    ap.add_argument("--k", type=int, required=True)
    ap.add_argument("--samples", type=int, default=50_000)
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    tr = Tracer()
    with tr.span(args.part):
        with tr.span("cli.import"):
            ts = importlib.import_module("turanshadow")
            importlib.import_module("turanshadow.cli")
        if args.part == "pipeline":
            run_pipeline(tr, ts, args.input, args.k, args.samples,
                         args.repeat, args.seed)
        else:
            run_oracle(tr, ts, args.input, args.k)
    with open(args.out, "w") as fh:
        json.dump(tr.document(), fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
