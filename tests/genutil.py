"""Deterministic graph generators used as test fixtures."""

import numpy as np

from turanshadow.graph import Graph


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
