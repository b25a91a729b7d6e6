"""Shadow construction: cover all k-cliques by a multiset of dense subsets.

Starting from the whole vertex set, any set that is not provably clique
dense is refined into the out-neighborhoods of its local degeneracy DAG,
with the clique budget dropping by one. Sets that cross the threshold (or
reach ell <= 2) are emitted.

A set with s vertices saturates for budget ell when its edge count exceeds
(1 - 1/(ell-1)) * s^2 / 2. That is the classical clique-existence bound: it
dominates the extremal edge count of the balanced complete (ell-1)-partite
graph, so every saturated set is guaranteed a quantifiable supply of
ell-cliques. Normalizing by C(s,2) instead would admit clique-free sets
(a 2-edge path on 3 vertices already beats 1 - 1/2 that way) and void the
sampler's success-probability floor. Comparisons are exact integer
cross-multiplications, so extremal graphs sit exactly on the boundary and
route deterministically to refinement.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import IO

import numpy as np

from .graph import (
    Graph,
    degeneracy_order,
    induced_adjacency_matrix,
    out_neighbors,
)

MAX_K = 64


@dataclass(frozen=True, eq=False)
class ShadowEntry:
    """One shadow element: count `ell`-cliques inside `vertices`.

    vertices are sorted ascending global ids; edges caches the induced
    edge count computed during construction.
    """

    vertices: np.ndarray
    ell: int
    edges: int

    @property
    def size(self) -> int:
        return int(self.vertices.size)


@dataclass(frozen=True, eq=False)
class TuranShadow:
    k: int
    entries: list[ShadowEntry]
    representation_size: int
    ell_histogram: dict[int, int]
    max_set_size: int
    alpha: int  # degeneracy of the graph the shadow covers


def _saturated(edges: int, size: int, ell: int) -> bool:
    # edges > (1 - 1/(ell-1)) * size^2 / 2, cross-multiplied to stay exact
    return 2 * edges * (ell - 1) > size * size * (ell - 2)


def _pack_rows(mat: np.ndarray) -> list[int]:
    """Rows of a boolean adjacency matrix as little-endian bitmask ints."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    return [int.from_bytes(packed[i].tobytes(), "little")
            for i in range(mat.shape[0])]


def _bit_indices(mask: int) -> list[int]:
    out = []
    while mask:
        lsb = mask & -mask
        out.append(lsb.bit_length() - 1)
        mask ^= lsb
    return out


def _mask_edges(rows: list[int], members: int) -> int:
    total = 0
    m = members
    while m:
        lsb = m & -m
        total += (rows[lsb.bit_length() - 1] & members).bit_count()
        m ^= lsb
    return total // 2


def _peel_out_masks(rows: list[int], members: int, width: int) -> list[int]:
    """Out-neighborhood mask per member under min-degree peeling.

    Ties go to the lowest bit index, which is the smallest global id since
    bit order follows the sorted vertex list.
    """
    nplus = [0] * width
    deg = [0] * width
    for b in _bit_indices(members):
        deg[b] = (rows[b] & members).bit_count()
    alive = members
    while alive:
        best = -1
        best_deg = width + 1
        m = alive
        while m:
            lsb = m & -m
            b = lsb.bit_length() - 1
            m ^= lsb
            if deg[b] < best_deg:
                best_deg = deg[b]
                best = b
        alive ^= 1 << best
        rest = rows[best] & alive
        nplus[best] = rest
        while rest:
            lsb = rest & -rest
            deg[lsb.bit_length() - 1] -= 1
            rest ^= lsb
    return nplus


class _Builder:
    def __init__(self, k: int):
        self.k = k
        self.entries: list[ShadowEntry] = []

    def emit(self, vertices: np.ndarray, ell: int, edges: int) -> None:
        self.entries.append(ShadowEntry(vertices, ell, edges))

    def refine_masks(self, rows: list[int], ids: np.ndarray,
                     members: int, ell: int) -> None:
        # members is known unsaturated with ell >= 3; replace it by the
        # out-neighborhoods of its degeneracy DAG at budget ell - 1
        nplus = _peel_out_masks(rows, members, ids.size)
        child_ell = ell - 1
        for b in _bit_indices(members):
            child = nplus[b]
            size = child.bit_count()
            if size < child_ell:
                continue  # holds no clique of the required size
            edges = _mask_edges(rows, child)
            if child_ell <= 2 or _saturated(edges, size, child_ell):
                verts = ids[np.asarray(_bit_indices(child), dtype=np.int64)]
                self.emit(verts, child_ell, edges)
            else:
                self.refine_masks(rows, ids, child, child_ell)


def shadow_finder(g: Graph, k: int) -> TuranShadow:
    """Build the k-clique shadow of g by iterative density refinement.

    The sum over returned entries of the exact ell-clique counts inside
    each set equals the k-clique count of g. Every returned entry with
    ell >= 3 is strictly above its density threshold; sets too small to
    hold their clique budget are dropped at emission.
    """
    if k < 3:
        raise ValueError("k must be >= 3; smaller k are counted directly")
    if k > MAX_K:
        raise ValueError(f"k must be <= {MAX_K}")
    b = _Builder(k)
    n, m = g.vertex_count, g.edge_count
    order = degeneracy_order(g)
    if n >= k:
        if _saturated(m, n, k):
            b.emit(np.arange(n, dtype=np.int64), k, m)
        else:
            child_ell = k - 1
            for v in range(n):
                child = out_neighbors(g, order, v)
                if child.size < child_ell:
                    continue
                mat = induced_adjacency_matrix(g, child)
                edges = int(np.count_nonzero(mat)) // 2
                if child_ell <= 2 or _saturated(edges, child.size, child_ell):
                    b.emit(child, child_ell, edges)
                else:
                    b.refine_masks(_pack_rows(mat), child,
                                   (1 << child.size) - 1, child_ell)
    entries = b.entries
    hist = Counter(e.ell for e in entries)
    return TuranShadow(
        k=k,
        entries=entries,
        representation_size=sum(e.size for e in entries),
        ell_histogram=dict(sorted(hist.items())),
        max_set_size=max((e.size for e in entries), default=0),
        alpha=order.alpha,
    )


def shadow_stats(sh: TuranShadow) -> dict:
    """Aggregate structure of a shadow, as plain serializable values."""
    min_ell = min((e.ell for e in sh.entries), default=sh.k)
    return {
        "set_count": len(sh.entries),
        "representation_size": sh.representation_size,
        "max_set_size": sh.max_set_size,
        "ell_histogram": dict(sh.ell_histogram),
        "depth_reached": sh.k - min_ell,
    }


def dump_shadow(sh: TuranShadow, stream: IO | None = None) -> str | None:
    """Debug dump, one entry per line: ell TAB size TAB sorted global ids."""
    lines = (
        f"{e.ell}\t{e.size}\t{' '.join(str(v) for v in e.vertices.tolist())}"
        for e in sh.entries
    )
    if stream is None:
        return "\n".join(lines)
    for line in lines:
        stream.write(line + "\n")
    return None
