"""Reference k-clique counters for testing the exact counter.

`reference_count` is the orientation counter the library used before its
level engine: each vertex's out-neighbourhood in the degeneracy order is a
Python set, and (k-1)-cliques are found inside it by recursive
intersection. Its sets are read off the orientation's CSR (out_start and
out_ids), so it shares no counting or induced-subgraph code with the
library; it shares only `degeneracy_order`.

`naive_kclique_count` enumerates every k-subset and tests all pairs, so it
shares not even the order: an independent second oracle for small graphs.
"""

import itertools
import math
import time

import numpy as np

from turanshadow.graph import Graph, degeneracy_order
from turanshadow.oracle import ExactCount, _check_uint64

from genutil import induced_adjacency_matrix, out_neighbors

NAIVE_GUARD = 100_000_000


def _count_rec(outs, cand, j):
    c = len(cand)
    if j > c:
        return 0
    if j == 1:
        return c
    if j == 2:
        return sum(len(outs[u] & cand) for u in cand)
    inters = [outs[u] & cand for u in cand]
    e = sum(len(x) for x in inters)
    if 2 * e == c * (c - 1):
        # candidate set induces a clique: all j-subsets count
        return math.comb(c, j)
    return sum(_count_rec(outs, x, j - 1) for x in inters if len(x) >= j - 1)


def reference_count(g, k):
    """Number of k-cliques of g, for k >= 3."""
    n = g.vertex_count
    order = degeneracy_order(g)
    outs = [set(out_neighbors(order, v).tolist()) for v in range(n)]
    return sum(_count_rec(outs, outs[v], k - 1)
               for v in range(n) if len(outs[v]) >= k - 1)


def naive_kclique_count(g: Graph, k: int) -> ExactCount:
    """Enumerate every k-subset and test all pairs. Testing oracle only.

    Refuses instances with C(n, k) above NAIVE_GUARD.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = g.vertex_count
    if math.comb(n, k) > NAIVE_GUARD:
        raise ValueError(
            f"refusing naive enumeration: C({n},{k}) exceeds {NAIVE_GUARD}")
    start = time.perf_counter()
    if k == 1:
        return ExactCount(k, n, time.perf_counter() - start)
    adj = induced_adjacency_matrix(g, np.arange(n, dtype=np.int64))
    count = 0
    combos = itertools.combinations(range(n), k)
    while True:
        chunk = list(itertools.islice(combos, 200_000))
        if not chunk:
            break
        arr = np.asarray(chunk, dtype=np.int64)
        ok = np.ones(len(arr), dtype=bool)
        for a in range(k):
            col_a = arr[:, a]
            for b in range(a + 1, k):
                ok &= adj[col_a, arr[:, b]]
        count += int(np.count_nonzero(ok))
    _check_uint64(count)
    return ExactCount(k, count, time.perf_counter() - start)
