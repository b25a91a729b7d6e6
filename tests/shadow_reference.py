"""Recursive Python-int reference for the shadow builder.

Depth-first refinement with one bitmask per set: the result is the ordered
list of (ell, vertices, edges) that `shadow_finder` must reproduce exactly.
Adjacency comes from Python sets of CSR neighbours, so this shares no
induced-subgraph code with the library; it shares only `degeneracy_order`.
"""

from turanshadow.graph import degeneracy_order


def _saturated(edges, size, ell):
    return 2 * edges * (ell - 1) > size * size * (ell - 2)


def _bits(mask):
    out = []
    while mask:
        lsb = mask & -mask
        out.append(lsb.bit_length() - 1)
        mask ^= lsb
    return out


def _edges(rows, members):
    return sum((rows[b] & members).bit_count() for b in _bits(members)) // 2


def _peel(rows, members):
    """Out-neighbourhood mask per member; ties go to the lowest bit."""
    nplus = {}
    deg = {b: (rows[b] & members).bit_count() for b in _bits(members)}
    alive = members
    while alive:
        best = min(_bits(alive), key=lambda b: (deg[b], b))
        alive ^= 1 << best
        nplus[best] = rows[best] & alive
        for b in _bits(nplus[best]):
            deg[b] -= 1
    return nplus


def reference_shadow(g, k):
    """Entries of the k-clique shadow of g, in depth-first emission order."""
    n, m = g.vertex_count, g.edge_count
    if n < k:
        return []
    if _saturated(m, n, k):
        return [(k, tuple(range(n)), m)]
    pos = degeneracy_order(g).position
    adj = [set(g.neighbors(v).tolist()) for v in range(n)]
    out = []

    def refine(rows, ids, members, ell):
        if ell <= 2 or _saturated(_edges(rows, members), len(_bits(members)),
                                  ell):
            out.append((ell, tuple(ids[b] for b in _bits(members)),
                        _edges(rows, members)))
            return
        for b, child in sorted(_peel(rows, members).items()):
            if child.bit_count() >= ell - 1:
                refine(rows, ids, child, ell - 1)

    for v in range(n):
        ids = [u for u in sorted(adj[v]) if pos[u] > pos[v]]
        if len(ids) < k - 1:
            continue
        rows = [sum(1 << j for j, w in enumerate(ids) if w in adj[u])
                for u in ids]
        refine(rows, ids, (1 << len(ids)) - 1, k - 1)
    return out
