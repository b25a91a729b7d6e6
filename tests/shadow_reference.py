"""Recursive Python-int reference for the shadow builder.

Depth-first refinement with one bitmask per set: the result is the ordered
list of (ell, vertices, edges) that `shadow_finder` must reproduce exactly,
edges being each entry's induced edge count. Entries are in the library's
class-major order: by ell, then by size, then by root id, then by the
member mask read as one integer (bit j for the root's j-th out-neighbour
in ascending id). A root's members are its slice of the
orientation's out_ids, and adjacency comes from Python sets of CSR
neighbours, so this shares no induced-subgraph code with the library; it
shares only `degeneracy_order`.
"""

from turanshadow.graph import degeneracy_order

from genutil import neighbors, out_neighbors


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
    """Entries of the k-clique shadow of g, in (ell, size, root, mask)
    order."""
    n, m = g.vertex_count, g.edge_count
    if n < k:
        return []
    if _saturated(m, n, k):
        return [(k, tuple(range(n)), m)]
    order = degeneracy_order(g)
    adj = [set(neighbors(g, v).tolist()) for v in range(n)]
    out = []

    def refine(v, rows, ids, members, ell):
        if ell <= 2 or _saturated(_edges(rows, members), len(_bits(members)),
                                  ell):
            out.append(((ell, members.bit_count(), v, members), (
                ell, tuple(ids[b] for b in _bits(members)),
                _edges(rows, members))))
            return
        for child in _peel(rows, members).values():
            if child.bit_count() >= ell - 1:
                refine(v, rows, ids, child, ell - 1)

    for v in range(n):
        ids = out_neighbors(order, v).tolist()
        if len(ids) < k - 1:
            continue
        rows = [sum(1 << j for j, w in enumerate(ids) if w in adj[u])
                for u in ids]
        refine(v, rows, ids, (1 << len(ids)) - 1, k - 1)
    return [entry for _, entry in sorted(out)]
