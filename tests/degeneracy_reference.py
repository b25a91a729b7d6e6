"""Lazy-heap reference for the degeneracy.

An independent one-at-a-time peel: one binary heap of (remaining degree,
id) pairs, stale pairs skipped when popped, so each step removes a vertex
of minimum remaining degree. Its alpha is the degeneracy that the library's
round peel must reach; its order is one valid order among many, so tests
compare alphas, not orders. It returns the library's DegeneracyOrder.
"""

import heapq

import numpy as np

from turanshadow.graph import DegeneracyOrder


def reference_degeneracy_order(g) -> DegeneracyOrder:
    n = g.vertex_count
    deg = [g.degree(v) for v in range(n)]
    heap = [(deg[v], v) for v in range(n)]
    heapq.heapify(heap)
    removed = bytearray(n)
    order = np.empty(n, dtype=np.int64)
    core = np.zeros(n, dtype=np.int64)
    alpha = 0
    idx = 0
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = 1
        order[idx] = v
        core[v] = d
        if d > alpha:
            alpha = d
        for u in g.neighbors(v).tolist():
            if not removed[u]:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
        idx += 1
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n, dtype=np.int64)
    return DegeneracyOrder(order, position, core, alpha)
