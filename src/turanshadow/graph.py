"""Compact immutable graph storage, degeneracy ordering, and induced-subgraph tools.

Graphs are simple and undirected, stored in CSR form with sorted neighbor
lists. Vertex ids are dense ints in [0, n); loaders compact arbitrary input
ids and keep the original-id map around for reporting.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

import numpy as np

Source = Union[str, Path, IO, Iterable]

# Largest vertex count whose pair keys u * n + v (u, v < n) fit in int64.
MAX_VERTICES = 3_037_000_499

# Pair lookups per chunk of induced_adjacency_rows.
_LOOKUP_CHUNK = 1 << 17


def _check_vertex_count(n: int) -> None:
    if n > MAX_VERTICES:
        raise ValueError(f"{n} vertices exceed the supported maximum "
                         f"{MAX_VERTICES}: pair keys u * n + v would "
                         "overflow int64")


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

    __slots__ = ("indptr", "indices", "vertex_count", "edge_count",
                 "original_ids", "_edge_keys")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 original_ids: np.ndarray | None = None):
        indptr.flags.writeable = indices.flags.writeable = False
        self.indptr = indptr
        self.indices = indices
        self.vertex_count = int(len(indptr) - 1)
        self.edge_count = int(len(indices)) // 2
        self.original_ids = original_ids
        self._edge_keys = None  # filled on first use by edge_keys()

    @classmethod
    def from_edges(cls, edges, num_vertices: int | None = None,
                   original_ids: np.ndarray | None = None) -> "Graph":
        """Build a graph from (u, v) pairs.

        Self-loops are dropped, parallel edges and reversed duplicates are
        merged. `num_vertices` may exceed the largest endpoint to keep
        isolated vertices, up to MAX_VERTICES.
        """
        if num_vertices is not None:
            _check_vertex_count(num_vertices)
        e = np.asarray(edges, dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be an (E, 2) array of vertex pairs")
        if num_vertices is None:
            num_vertices = int(e.max()) + 1 if len(e) else 0
            _check_vertex_count(num_vertices)
        n = num_vertices
        if len(e):
            if int(e.min()) < 0 or int(e.max()) >= n:
                raise ValueError("vertex id out of range")
            e = e[e[:, 0] != e[:, 1]]
        # one scalar key lo * n + hi per undirected edge; sorting the keys
        # of both directions lists every row's neighbours in ascending order.
        # Duplicates go by sort and compare: a plain np.unique takes a hash
        # path in numpy 2.4 that is 20-40x slower on these keys
        und = np.sort(np.minimum(e[:, 0], e[:, 1]) * n
                      + np.maximum(e[:, 0], e[:, 1]))
        und = und[np.diff(und, prepend=-1) != 0]
        lo, hi = np.divmod(und, max(n, 1))
        keys = np.concatenate([und, hi * n + lo])
        keys.sort()
        src, indices = np.divmod(keys, max(n, 1))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
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


def _parse_lines(lines: Iterable, comment_prefix: str) -> np.ndarray:
    """(E, 2) int64 edges of an edge list, parsed line by line."""
    us: list[int] = []
    vs: list[int] = []
    for line_number, raw in enumerate(lines, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode()
        line = raw.strip()
        if not line or (comment_prefix and line.startswith(comment_prefix)):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(
                line_number, f"expected two integer tokens, got {len(parts)}")
        try:
            us.append(int(parts[0]))
            vs.append(int(parts[1]))
        except ValueError:
            raise EdgeListParseError(
                line_number, f"non-integer token in {line!r}") from None
    return np.stack([np.asarray(us, dtype=np.int64),
                     np.asarray(vs, dtype=np.int64)], axis=1)


def _parse_text(text: str, comment_prefix: str) -> np.ndarray:
    """(E, 2) int64 edges of a whole edge-list text.

    The leading block of blank and comment lines (a SNAP header, say) is
    skipped. One np.loadtxt call parses the rest when it is ASCII,
    whitespace-separated text that holds no comment prefix; on such text
    it accepts exactly the lines the per-line parser accepts and reads the
    same integers (on non-ASCII text it can misread letters as digits).
    Any other text, or text it rejects, is parsed line by line, which
    skips comments and reports the number of a malformed line.
    """
    start = 0
    while comment_prefix and start < len(text):
        end = text.find("\n", start) + 1 or len(text)  # past the line
        line = text[start:end].strip()
        if line and not line.startswith(comment_prefix):
            break
        start = end
    body = text[start:]
    if (body.isascii() and body.strip()
            and not (comment_prefix and comment_prefix in body)):
        try:
            edges = np.loadtxt(io.StringIO(body), dtype=np.int64,
                               comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if edges.shape[1] == 2:
                return edges
    return _parse_lines(io.StringIO(text), comment_prefix)


def load_edge_list(source: Source, comment_prefix: str = "#") -> Graph:
    """Parse a whitespace-separated edge list into a simple undirected graph.

    One edge per line as two integer tokens; lines starting with
    `comment_prefix` (unless it is empty) and blank lines are skipped.
    Direction is ignored, self-loops are dropped, and parallel edges are
    merged. Input ids are compacted to [0, n) in ascending numeric order;
    the original ids are retained on the graph when relabeling actually
    changed anything. A file path is read whole and parsed in one numpy
    call where that gives the same edges as the per-line parser.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rt") as fh:
            raw_edges = _parse_text(fh.read(), comment_prefix)
    else:
        raw_edges = _parse_lines(source, comment_prefix)
    if not len(raw_edges):
        return Graph.from_edges(np.empty((0, 2), dtype=np.int64), num_vertices=0)
    # one sort gives the ids and every endpoint's rank; the inverse comes
    # back flat or in the input's shape depending on the numpy 2.x release
    ids, compact = np.unique(raw_edges, return_inverse=True)
    compact = compact.reshape(raw_edges.shape)
    relabeled = ids.size != int(ids[-1]) + 1 or int(ids[0]) != 0
    return Graph.from_edges(compact, num_vertices=ids.size,
                            original_ids=ids if relabeled else None)


@dataclass(frozen=True)
class DegeneracyOrder:
    """A round peeling order with per-vertex out-degrees.

    order[i] is the i-th deleted vertex: rounds in the order they ran, each
    in ascending id (see degeneracy_order). position is the inverse
    permutation. core_number[v] is v's out-degree, the number of its
    neighbours deleted after it, and alpha is the maximum of those, which
    is the degeneracy. The orientation itself is a CSR of m entries: v's
    later neighbours, in ascending id, are
    out_ids[out_start[v]:out_start[v] + core_number[v]], and out_start is
    the exclusive cumulative sum of core_number.
    """

    order: np.ndarray
    position: np.ndarray
    core_number: np.ndarray
    alpha: int
    out_start: np.ndarray
    out_ids: np.ndarray


def degeneracy_order(g: Graph) -> DegeneracyOrder:
    """A degeneracy order peeled in rounds of numpy work.

    Each round removes, in ascending id, every live vertex whose remaining
    degree is at most d. d rises, to the least remaining degree, only when
    no live vertex is left at or below it; every subgraph has a vertex of
    degree at most alpha, so d never passes alpha, and neither does any
    out-degree: a vertex's later neighbours are among the at most d live
    ones it had when removed. Between rises only the live neighbours of the
    last round's removals can have fallen to d, so a round looks at those
    alone. The number of rounds is the depth of the peel, at worst about
    n / 2 (a path loses its two ends per round).
    """
    n = g.vertex_count
    indptr, indices = g.indptr, g.indices
    deg = np.diff(indptr)
    live = np.ones(n, dtype=bool)
    rest = frontier = np.arange(n, dtype=np.int64)
    rounds = []
    d = 0
    while True:
        peel = frontier[deg[frontier] <= d]
        if not peel.size:
            rest = rest[live[rest]]
            if not rest.size:
                break
            d = int(deg[rest].min())
            frontier = rest
            continue
        live[peel] = False
        rounds.append(peel)
        start = indptr[peel]
        count = indptr[peel + 1] - start
        end = count.cumsum()
        # the CSR rows of the removed vertices, gathered by one index
        nbrs = indices[(start + count - end).repeat(count)
                       + np.arange(end[-1])]
        nbrs = nbrs[live[nbrs]]
        np.subtract.at(deg, nbrs, 1)
        nbrs.sort()
        frontier = np.concatenate((nbrs[:1], nbrs[1:][nbrs[1:] != nbrs[:-1]]))
    order = np.concatenate(rounds) if rounds else np.empty(0, dtype=np.int64)
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n, dtype=np.int64)
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    later = position[indices] > position[src]
    core = np.bincount(src[later], minlength=n)
    out_ids = indices[later]
    out_ids.flags.writeable = False  # out_neighbors hands out views of it
    return DegeneracyOrder(order, position, core, int(core.max(initial=0)),
                           np.cumsum(core) - core, out_ids)


def out_neighbors(g: Graph, order: DegeneracyOrder, v: int) -> np.ndarray:
    """Neighbors of v that come strictly later in the peeling order.

    The result is sorted ascending by vertex id and has exactly
    core_number[v] elements: a read-only view of v's slice of
    order.out_ids.
    """
    start = int(order.out_start[v])
    return order.out_ids[start:start + int(order.core_number[v])]


def edge_keys(g: Graph) -> np.ndarray:
    """Ascending keys u * n + v of all ordered adjacent pairs (u, v).

    The CSR is lexsorted by (row, column), so the keys need no sort. They
    are computed once per graph and returned read-only.
    """
    if g._edge_keys is None:
        n = g.vertex_count
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.indptr))
        keys = rows * n + g.indices
        keys.flags.writeable = False
        g._edge_keys = keys
    return g._edge_keys


def has_edge_keys(keys: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Elementwise membership of the pair keys q in the sorted `keys`."""
    if keys.size == 0:
        return np.zeros(np.shape(q), dtype=bool)
    at = np.searchsorted(keys, q).clip(max=keys.size - 1)
    return keys[at] == q


def induced_adjacency_rows(g: Graph, verts: np.ndarray
                           ) -> Iterator[tuple[int, np.ndarray]]:
    """Upper-triangle adjacency rows of the subgraph induced by a vertex set.

    `verts` is a strictly ascending int64 array of W vertex ids. Yields
    (a0, block) in order, where block[a - a0, b] tells, for b > a, whether
    verts[a] and verts[b] are adjacent; it is False for b <= a, so each
    unordered pair is looked up once, and the caller mirrors the block if it
    needs both halves. Each block costs about _LOOKUP_CHUNK pair lookups, so
    no (W, W) key array is built at once.
    """
    keys = edge_keys(g)
    n = g.vertex_count
    width = verts.size
    step = max(1, _LOOKUP_CHUNK // max(width, 1))
    for a0 in range(0, width, step):
        u = verts[a0:a0 + step]
        upper = np.arange(width) > np.arange(a0, a0 + u.size)[:, None]
        block = np.zeros(upper.shape, dtype=bool)
        block[upper] = has_edge_keys(keys, (u[:, None] * n + verts)[upper])
        yield a0, block


def induced_adjacency_matrix(g: Graph, vertices) -> np.ndarray:
    """Dense boolean adjacency of the subgraph induced by `vertices`.

    Row/column i corresponds to vertices[i]; vertices must be strictly
    ascending global ids.
    """
    verts = np.asarray(vertices, dtype=np.int64)
    mat = np.zeros((verts.size, verts.size), dtype=bool)
    for a0, block in induced_adjacency_rows(g, verts):
        mat[a0:a0 + len(block)] = block
    return mat | mat.T


def induced_edge_count(g: Graph, vertices) -> int:
    """Number of edges of g with both endpoints in `vertices`."""
    verts = np.asarray(vertices, dtype=np.int64)
    return sum(int(np.count_nonzero(block))
               for _, block in induced_adjacency_rows(g, verts))


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
