"""Lazy-heap reference for the degeneracy order.

The peeler the library used before its bucket queue: one binary heap of
(remaining degree, id) pairs, stale pairs skipped when popped, so each step
removes the smallest id among the vertices of minimum remaining degree.
It returns the library's DegeneracyOrder, so tests compare them directly.
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
