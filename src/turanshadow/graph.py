"""Compact immutable graph storage, degeneracy ordering, and induced-subgraph tools.

Graphs are simple and undirected, stored in CSR form with sorted neighbor
lists. Vertex ids are dense ints in [0, n); loaders compact arbitrary input
ids and keep the original-id map around for reporting.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

import numpy as np

Source = Union[str, Path, IO, Iterable]


class EdgeListParseError(ValueError):
    """A malformed edge-list line; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class Graph:
    """Immutable simple undirected graph.

    Invariants: no self-loops, no parallel edges, neighbor lists sorted
    ascending, and symmetric adjacency (v in adj[u] iff u in adj[v]).
    Safe for concurrent reads once constructed.
    """

    __slots__ = ("indptr", "indices", "vertex_count", "edge_count", "original_ids")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 original_ids: np.ndarray | None = None):
        self.indptr = indptr
        self.indices = indices
        self.vertex_count = int(len(indptr) - 1)
        self.edge_count = int(len(indices)) // 2
        self.original_ids = original_ids

    @classmethod
    def from_edges(cls, edges, num_vertices: int | None = None,
                   original_ids: np.ndarray | None = None) -> "Graph":
        """Build a graph from (u, v) pairs.

        Self-loops are dropped, parallel edges and reversed duplicates are
        merged. `num_vertices` may exceed the largest endpoint to keep
        isolated vertices.
        """
        e = np.asarray(edges, dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be an (E, 2) array of vertex pairs")
        if num_vertices is None:
            num_vertices = int(e.max()) + 1 if len(e) else 0
        if len(e):
            if int(e.min()) < 0 or int(e.max()) >= num_vertices:
                raise ValueError("vertex id out of range")
            e = e[e[:, 0] != e[:, 1]]
        lo = np.minimum(e[:, 0], e[:, 1])
        hi = np.maximum(e[:, 0], e[:, 1])
        und = np.stack([lo, hi], axis=1)
        if len(und):
            und = np.unique(und, axis=0)
        src = np.concatenate([und[:, 0], und[:, 1]])
        dst = np.concatenate([und[:, 1], und[:, 0]])
        order = np.lexsort((dst, src))
        indices = np.ascontiguousarray(dst[order])
        counts = np.bincount(src, minlength=num_vertices)
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, indices, original_ids)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of v (a read-only view)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Edge test via binary search in the shorter adjacency list."""
        if u == v:
            return False
        if self.degree(u) > self.degree(v):
            u, v = v, u
        nbrs = self.neighbors(u)
        i = int(np.searchsorted(nbrs, v))
        return i < nbrs.size and int(nbrs[i]) == v

    def edge_density(self) -> float:
        """m / C(n, 2); defined as 0 for n <= 1."""
        n = self.vertex_count
        if n <= 1:
            return 0.0
        return 2.0 * self.edge_count / (n * (n - 1))

    def __repr__(self):
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"


def _iter_lines(source: Source) -> Iterator:
    if isinstance(source, (str, Path)):
        with open(source, "rt") as fh:
            yield from fh
    else:
        yield from source


def load_edge_list(source: Source, comment_prefix: str = "#",
                   delimiter: str | None = None) -> Graph:
    """Parse a whitespace-separated edge list into a simple undirected graph.

    One edge per line as two integer tokens; lines starting with
    `comment_prefix` and blank lines are skipped. Direction is ignored,
    self-loops are dropped, and parallel edges are merged. Input ids are
    compacted to [0, n) in ascending numeric order; the original ids are
    retained on the graph when relabeling actually changed anything.
    """
    us: list[int] = []
    vs: list[int] = []
    for line_number, raw in enumerate(_iter_lines(source), start=1):
        if isinstance(raw, bytes):
            raw = raw.decode()
        line = raw.strip()
        if not line or line.startswith(comment_prefix):
            continue
        parts = line.split(delimiter)
        if len(parts) != 2:
            raise EdgeListParseError(
                line_number, f"expected two integer tokens, got {len(parts)}")
        try:
            us.append(int(parts[0]))
            vs.append(int(parts[1]))
        except ValueError:
            raise EdgeListParseError(
                line_number, f"non-integer token in {line!r}") from None
    if not us:
        return Graph.from_edges(np.empty((0, 2), dtype=np.int64), num_vertices=0)
    raw_edges = np.stack([np.asarray(us, dtype=np.int64),
                          np.asarray(vs, dtype=np.int64)], axis=1)
    ids = np.unique(raw_edges)
    compact = np.searchsorted(ids, raw_edges)
    relabeled = ids.size != int(ids[-1]) + 1 or int(ids[0]) != 0
    return Graph.from_edges(compact, num_vertices=ids.size,
                            original_ids=ids if relabeled else None)


@dataclass(frozen=True)
class DegeneracyOrder:
    """Min-degree peeling order with per-vertex deletion degrees.

    order[i] is the i-th deleted vertex; position is the inverse
    permutation. core_number[v] is v's degree among the not-yet-deleted
    vertices at its deletion, and alpha is the maximum of those (the
    degeneracy).
    """

    order: np.ndarray
    position: np.ndarray
    core_number: np.ndarray
    alpha: int


def degeneracy_order(g: Graph) -> DegeneracyOrder:
    """Peel minimum-degree vertices, ties broken by smallest vertex id.

    Uses a lazy binary heap, so each step removes the smallest-id vertex
    among those of minimum remaining degree.
    """
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


def out_neighbors(g: Graph, order: DegeneracyOrder, v: int) -> np.ndarray:
    """Neighbors of v that come strictly later in the peeling order.

    The result is sorted ascending by vertex id and has exactly
    core_number[v] elements.
    """
    nbrs = g.neighbors(v)
    if nbrs.size == 0:
        return nbrs.copy()
    return nbrs[order.position[nbrs] > order.position[v]]


def _neighbor_mask(g: Graph, u: int, verts: np.ndarray) -> np.ndarray:
    """Boolean mask over `verts` marking neighbors of u (verts sorted asc)."""
    nbrs = g.neighbors(u)
    if nbrs.size == 0:
        return np.zeros(verts.size, dtype=bool)
    pos = np.searchsorted(nbrs, verts)
    ok = pos < nbrs.size
    ok[ok] = nbrs[pos[ok]] == verts[ok]
    return ok


def edge_keys(g: Graph) -> np.ndarray:
    """Ascending keys u * n + v of all ordered adjacent pairs (u, v).

    The CSR is lexsorted by (row, column), so the keys need no sort.
    """
    n = g.vertex_count
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.indptr))
    return rows * n + g.indices


def induced_adjacency_matrix(g: Graph, vertices) -> np.ndarray:
    """Dense boolean adjacency of the subgraph induced by `vertices`.

    Row/column i corresponds to vertices[i]; vertices must be strictly
    ascending global ids.
    """
    verts = np.asarray(vertices, dtype=np.int64)
    s = verts.size
    mat = np.zeros((s, s), dtype=bool)
    for i in range(s):
        mat[i] = _neighbor_mask(g, int(verts[i]), verts)
    return mat


def induced_edge_count(g: Graph, vertices) -> int:
    """Number of edges of g with both endpoints in `vertices`."""
    verts = np.asarray(vertices, dtype=np.int64)
    total = 0
    for i in range(verts.size):
        total += int(np.count_nonzero(_neighbor_mask(g, int(verts[i]), verts)))
    return total // 2


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, np.ndarray]:
    """Subgraph induced by a sorted vertex set, plus the local-to-global map.

    Returns (subgraph, local_to_global) where local id i names global id
    local_to_global[i]. The global-to-local direction is a searchsorted
    into that array.
    """
    verts = np.asarray(vertices, dtype=np.int64)
    if verts.size and np.any(np.diff(verts) <= 0):
        raise ValueError("vertex set must be strictly ascending")
    if verts.size and (int(verts[0]) < 0 or int(verts[-1]) >= g.vertex_count):
        raise ValueError("vertex id out of range")
    mat = induced_adjacency_matrix(g, verts)
    counts = mat.sum(axis=1)
    indptr = np.zeros(verts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.nonzero(mat)[1].astype(np.int64)
    return Graph(indptr, indices), verts.copy()
