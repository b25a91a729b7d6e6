"""Deterministic graph generators used as test fixtures, reference graph
queries that the library does not need, and a runner for child processes
that import this same package."""

import os
import runpy
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

import turanshadow
from turanshadow.graph import Graph, _gather_rows


def run_child(args, **env):
    """Run python with args in a child that imports this same package.

    Each keyword sets one of the child's environment variables; None
    removes it.
    """
    src = os.path.dirname(os.path.dirname(turanshadow.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **env, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env={k: v for k, v in env.items() if v is not None})


def neighbors(g: Graph, v: int) -> np.ndarray:
    """Sorted neighbour ids of v: a read-only view of g's CSR row."""
    return g.indices[g.indptr[v]:g.indptr[v + 1]]


def has_edge(g: Graph, u: int, v: int) -> bool:
    """Edge test via binary search in the shorter adjacency list."""
    if u == v:
        return False
    if neighbors(g, u).size > neighbors(g, v).size:
        u, v = v, u
    nbrs = neighbors(g, u)
    i = int(np.searchsorted(nbrs, v))
    return i < nbrs.size and int(nbrs[i]) == v


def _induced_pairs(g: Graph, vertices
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(verts, a, b): the set as int64 and, ascending by a then b, the
    local index pairs of its induced edges in both directions.

    vertices must be strictly ascending ids of g, else ValueError. Each
    gathered neighbour is placed in the set by one searchsorted, so W
    members cost O(sum of their degrees * log W) and no W x W array.
    """
    verts = np.asarray(vertices, dtype=np.int64)
    if verts.size and np.any(np.diff(verts) <= 0):
        raise ValueError("vertex set must be strictly ascending")
    if verts.size and (int(verts[0]) < 0 or int(verts[-1]) >= g.vertex_count):
        raise ValueError("vertex id out of range")
    start = g.indptr[verts]
    count = g.indptr[verts + 1] - start
    nbrs = _gather_rows(g.indices, start, count)
    b = np.searchsorted(verts, nbrs).clip(max=verts.size - 1)
    hit = verts[b] == nbrs
    return verts, np.arange(verts.size).repeat(count)[hit], b[hit]


def induced_adjacency_matrix(g: Graph, vertices) -> np.ndarray:
    """Dense boolean adjacency of the subgraph induced by `vertices`.

    Row/column i corresponds to vertices[i]; vertices must be strictly
    ascending ids of g, else ValueError. Costs O(sum of their degrees *
    log W) for W vertices, plus the W x W result.
    """
    verts, a, b = _induced_pairs(g, vertices)
    mat = np.zeros((verts.size, verts.size), dtype=bool)
    mat[a, b] = True
    return mat


def induced_edge_count(g: Graph, vertices) -> int:
    """Number of edges of g with both endpoints in `vertices`: strictly
    ascending ids of g, else ValueError. Costs O(sum of their degrees *
    log W) for W vertices."""
    return _induced_pairs(g, vertices)[1].size // 2


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, np.ndarray]:
    """Subgraph induced by a sorted vertex set, plus the local-to-global map.

    Returns (subgraph, local_to_global) where local id i names global id
    local_to_global[i]. The global-to-local direction is a searchsorted
    into that array. vertices must be strictly ascending ids of g, else
    ValueError. Costs O(sum of their degrees * log W) for W vertices, and
    no W x W array.
    """
    verts, a, b = _induced_pairs(g, vertices)
    indptr = np.zeros(verts.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(a, minlength=verts.size), out=indptr[1:])
    return Graph(indptr, b), verts.copy()


def entry_offsets(sh) -> np.ndarray:
    """Where each entry's labels start in a TuranShadow, and their end:
    entry i's labels are labels[offsets[i]:offsets[i + 1]]. Classes lay
    out their entries one after another, each class_sizes[c] labels long."""
    offsets = np.zeros(sh.rowbase.size + 1, dtype=np.int64)
    np.cumsum(np.repeat(sh.class_sizes, sh.class_counts), out=offsets[1:])
    return offsets


def shadow_vertices(sh) -> np.ndarray:
    """Every entry's sorted ids of a TuranShadow, flat, in entry order:
    member a of entry i is vertex ids[rowbase[i] + a]."""
    sizes = np.diff(entry_offsets(sh))
    return sh.ids[np.repeat(sh.rowbase, sizes) + sh.labels]


def out_neighbors(d, v: int) -> np.ndarray:
    """v's later neighbours in the DegeneracyOrder d: its slice of
    d.out_ids, which ends where the next vertex's begins."""
    end = (d.out_start[v + 1] if v + 1 < d.out_start.size
           else d.out_ids.size)
    return d.out_ids[int(d.out_start[v]):int(end)]


def er_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) with a fixed seed."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, 1)
    mask = rng.random(iu.size) < p
    return Graph.from_edges(np.stack([iu[mask], ju[mask]], axis=1),
                            num_vertices=n)


def complete_graph(n: int) -> Graph:
    iu, ju = np.triu_indices(n, 1)
    return Graph.from_edges(np.stack([iu, ju], axis=1), num_vertices=n)


def cycle_graph(n: int) -> Graph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(edges, num_vertices=n)


def path_graph(n: int) -> Graph:
    edges = [(i, i + 1) for i in range(n - 1)]
    return Graph.from_edges(edges, num_vertices=n)


def star_graph(n: int) -> Graph:
    """Center 0 plus n-1 leaves."""
    edges = [(0, i) for i in range(1, n)]
    return Graph.from_edges(edges, num_vertices=n)


def grid_graph(rows: int, cols: int) -> Graph:
    """rows x cols grid; vertex r * cols + c."""
    ids = np.arange(rows * cols).reshape(rows, cols)
    edges = np.concatenate([
        np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1),
        np.stack([ids[:-1].ravel(), ids[1:].ravel()], axis=1)])
    return Graph.from_edges(edges, num_vertices=rows * cols)


def cycle_complement(n, tail=0):
    """K_n less the cycle 0, 1, ..., n - 1: (n - 3)-regular, so its
    degeneracy is n - 3, and every out-neighbourhood misses some pairs.
    A path of `tail` more vertices, n first, hangs off vertex 0."""
    iu, ju = np.triu_indices(n, 1)
    keep = (ju - iu != 1) & (ju - iu != n - 1)
    path = np.arange(n - 1, n + tail)
    path[0] = 0
    edges = np.concatenate([np.stack([iu[keep], ju[keep]], axis=1),
                            np.stack([path[:-1], path[1:]], axis=1)])
    return Graph.from_edges(edges, num_vertices=n + tail)


def turan_graph(n: int, r: int) -> Graph:
    """Complete r-partite graph with balanced parts (sizes differ by <= 1)."""
    part = [i % r for i in range(n)]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if part[i] != part[j]]
    return Graph.from_edges(edges, num_vertices=n)


def validity_suite():
    """Mixed (graph, k) cases, k = 3..6, for exact shadow and sampler checks."""
    rng = np.random.default_rng(505)
    graphs = [
        er_graph(40, 0.2, seed=1),
        er_graph(60, 0.4, seed=2),
        er_graph(30, 0.5, seed=3),
        turan_graph(12, 3),
        turan_graph(18, 5),
        complete_graph(9),
        star_graph(12),
        path_graph(10),
        cycle_graph(7),
    ]
    for g in graphs:
        for k in range(3, 7):
            yield g, k
    for _ in range(4):
        n = int(rng.integers(20, 70))
        p = float(rng.choice([0.1, 0.3, 0.5]))
        g = er_graph(n, p, seed=int(rng.integers(2**31)))
        for k in range(3, 7):
            yield g, k


@lru_cache(maxsize=None)
def planted_small() -> Graph:
    """The benchmark's planted-small graph, seed 0, from perfbench/gen.py."""
    gen = runpy.run_path(str(Path(__file__).parents[1] / "perfbench/gen.py"))
    small = gen["SPECS"]["planted-small"]
    return Graph.from_edges(gen["planted_edges"](small, 0),
                            num_vertices=small.n)
