"""Seeded planted-community graph generator for the benchmark.

A uniform random background of fixed average degree, plus disjoint planted
communities. Community sizes follow a capped Pareto law, drawn by stratified
sampling (one draw per quantile stratum). Internal densities follow a uniform
law, taken at the points of a golden-ratio sequence over the size ranks, and
a community of size s and density p gets exactly round(p * C(s, 2)) of its
pairs as edges. So every seed gets the same mix of large-dense and
large-sparse communities: the few largest, densest communities hold most of
the deep cliques, and independent draws made the exact 7-clique count, and
with it the run time, swing by several times from seed to seed. The seed
still decides the community sizes within their strata, which vertices form
each community, which pairs are edges, and the background.

Run as a script to write one graph:

    python3 perfbench/gen.py --seed 0 --out graph.txt [--graph planted-small]
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

import numpy as np

_PHI = (5 ** 0.5 - 1) / 2


@dataclass(frozen=True)
class PlantedSpec:
    """Parameters of one planted-community graph family."""

    name: str
    n: int
    communities: int
    avg_degree: float = 6.0
    shape: float = 1.6
    min_size: int = 8
    max_size: int = 120
    density_lo: float = 0.35
    density_hi: float = 0.8


SPECS = {
    "planted-12k": PlantedSpec("planted-12k", n=12_000, communities=180,
                               max_size=80),
    # the self-test graph: same laws, small enough for a few-second check
    "planted-small": PlantedSpec("planted-small", n=1_500, communities=24,
                                 max_size=40),
}


def community_plan(spec: PlantedSpec, rng: np.random.Generator):
    """Sizes (descending) and internal densities of the planted communities."""
    c = spec.communities
    q = (np.arange(c) + rng.random(c)) / c
    sizes = np.floor(spec.min_size * (1.0 - q) ** (-1.0 / spec.shape))
    sizes = np.minimum(sizes, spec.max_size).astype(np.int64)[::-1].copy()
    dq = np.mod((np.arange(c) + 0.5) * _PHI, 1.0)
    dens = spec.density_lo + (spec.density_hi - spec.density_lo) * dq
    return sizes, dens


def planted_edges(spec: PlantedSpec, seed: int) -> np.ndarray:
    """Sorted unique (u, v) pairs, u < v; a pure function of (spec, seed)."""
    rng = np.random.default_rng(seed)
    n = spec.n
    m_bg = int(round(n * spec.avg_degree / 2))
    parts = [rng.integers(0, n, size=(m_bg, 2), dtype=np.int64)]
    sizes, dens = community_plan(spec, rng)
    if int(sizes.sum()) > n:
        raise ValueError("communities do not fit in the vertex set")
    members = rng.permutation(n)[: int(sizes.sum())]
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    triu = {}
    for s, start, p in zip(sizes.tolist(), starts.tolist(), dens.tolist()):
        if s not in triu:
            triu[s] = np.triu_indices(s, 1)
        iu, ju = triu[s]
        keep = rng.permutation(iu.size)[: int(round(p * iu.size))]
        block = members[start:start + s]
        parts.append(np.stack([block[iu[keep]], block[ju[keep]]], axis=1))
    e = np.concatenate(parts)
    e = e[e[:, 0] != e[:, 1]]
    e = np.stack([e.min(axis=1), e.max(axis=1)], axis=1)
    return np.unique(e, axis=0)


def write_edge_list(edges: np.ndarray, path) -> None:
    """One `u v` line per edge; the same edges always give the same bytes."""
    with open(path, "w") as fh:
        fh.write("\n".join(f"{u} {v}" for u, v in edges.tolist()))
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--graph", choices=sorted(SPECS), default="planted-12k")
    args = ap.parse_args(argv)
    write_edge_list(planted_edges(SPECS[args.graph], args.seed), args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
