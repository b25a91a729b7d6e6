"""Lazy-heap reference for the degeneracy.

An independent one-at-a-time peel: one binary heap of (remaining degree,
id) pairs, stale pairs skipped when popped, so each step removes a vertex
of minimum remaining degree. Its alpha is the degeneracy that the library's
round peel must reach; its order is one valid order among many, so tests
compare alphas, not orders, and it returns the alpha alone.
"""

import heapq

from genutil import neighbors


def reference_degeneracy(g) -> int:
    n = g.vertex_count
    deg = [neighbors(g, v).size for v in range(n)]
    heap = [(deg[v], v) for v in range(n)]
    heapq.heapify(heap)
    removed = bytearray(n)
    alpha = 0
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = 1
        alpha = max(alpha, d)
        for u in neighbors(g, v).tolist():
            if not removed[u]:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
    return alpha
