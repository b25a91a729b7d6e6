"""Edge-sampling baseline: keep each edge with probability p, count exactly
in the down-sampled graph, and scale back by p**(-C(k,2)).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .oracle import exact_kclique_count


@dataclass(frozen=True)
class BaselineReport:
    k: int
    p: float
    estimate: float
    sampled_edges: int
    elapsed: float
    seed: int


def _edge_array(g: Graph) -> np.ndarray:
    """Edges as (m, 2) with u < v, sorted lexicographically."""
    n = g.vertex_count
    degs = np.diff(g.indptr)
    src = np.repeat(np.arange(n, dtype=np.int64), degs)
    dst = g.indices
    mask = src < dst
    return np.stack([src[mask], dst[mask]], axis=1)


def edge_sampling_estimate(g: Graph, k: int, p: float,
                           seed: int = 0) -> BaselineReport:
    """Unbiased k-clique estimate from one Bernoulli edge sample.

    Each surviving k-clique survives with probability p**C(k,2), hence the
    scale factor. p = 1 reproduces the exact count. Edge draws are keyed by
    (seed, edge index) in canonical edge order, so runs are reproducible.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    if k < 3:
        raise ValueError("k must be >= 3")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    start = time.perf_counter()
    edges = _edge_array(g)
    rng = np.random.default_rng(seed)
    keep = rng.random(len(edges)) < p
    sub = Graph.from_edges(edges[keep], num_vertices=g.vertex_count)
    count = exact_kclique_count(sub, k).count
    estimate = count / p ** math.comb(k, 2)
    return BaselineReport(
        k=k,
        p=p,
        estimate=estimate,
        sampled_edges=int(np.count_nonzero(keep)),
        elapsed=time.perf_counter() - start,
        seed=seed,
    )
