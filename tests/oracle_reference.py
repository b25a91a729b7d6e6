"""Set-intersection reference for the exact k-clique counter.

The orientation counter the library used before its level engine: each
vertex's out-neighbourhood in the degeneracy order is a Python set, and
(k-1)-cliques are found inside it by recursive intersection. Adjacency
comes from Python sets of CSR neighbours, so this shares no counting or
induced-subgraph code with the library; it shares only `degeneracy_order`.
"""

import math

from turanshadow.graph import degeneracy_order


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
    pos = degeneracy_order(g).position
    outs = [{u for u in g.neighbors(v).tolist() if pos[u] > pos[v]}
            for v in range(n)]
    return sum(_count_rec(outs, outs[v], k - 1)
               for v in range(n) if len(outs[v]) >= k - 1)
