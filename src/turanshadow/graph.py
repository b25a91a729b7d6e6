"""Compact immutable graph storage, edge-list loading and degeneracy ordering.

Graphs are simple and undirected, stored in CSR form with sorted neighbor
lists. Vertex ids are dense ints in [0, n); loaders compact arbitrary input
ids and keep the original-id map around for reporting.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from typing import IO, Union

import numpy as np

Source = Union[str, os.PathLike, IO]

# Largest vertex count whose pair keys u * n + v (u, v < n) fit in int64.
MAX_VERTICES = 3_037_000_499


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
    Safe for concurrent reads. Its degeneracy order and oriented table are
    built lazily and kept read-only: the order once per graph (two threads
    making the first call at once may both peel one, harmlessly), and the
    table, with the least out-degree floor its rows are filled for, once
    per row, extended in place under a lock when a call asks for a lower
    floor (see shadow.oriented_table). Nothing else is cached.
    """

    __slots__ = ("indptr", "indices", "vertex_count", "edge_count",
                 "original_ids", "_order", "_table", "_table_floor")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 original_ids: np.ndarray | None = None):
        indptr.flags.writeable = indices.flags.writeable = False
        self.indptr = indptr
        self.indices = indices
        self.vertex_count = int(len(indptr) - 1)
        self.edge_count = int(len(indices)) // 2
        self.original_ids = original_ids
        self._order = self._table = self._table_floor = None  # see above

    @classmethod
    def from_edges(cls, edges, num_vertices: int | None = None,
                   original_ids: np.ndarray | None = None) -> "Graph":
        """Build a graph from (u, v) pairs.

        Self-loops are dropped, parallel edges and reversed duplicates are
        merged. `num_vertices` may exceed the largest endpoint to keep
        isolated vertices, up to MAX_VERTICES.
        """
        e = np.asarray(edges, dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be an (E, 2) array of vertex pairs")
        if num_vertices is None:
            num_vertices = int(e.max()) + 1 if len(e) else 0
        _check_vertex_count(num_vertices)
        n = num_vertices
        if len(e) and (int(e.min()) < 0 or int(e.max()) >= n):
            raise ValueError("vertex id out of range")
        # one key u * n + v per direction of each edge: one sort lists each
        # row's neighbours in ascending order, and duplicates go by compare
        # (np.unique takes a hash path in numpy 2.4, 20-40x slower here)
        u, v = e[:, 0], e[:, 1]
        keys = np.concatenate([u * n + v, v * n + u])
        keys.sort()
        src, indices = np.divmod(keys, max(n, 1))
        keep = np.diff(keys, prepend=-1) != 0
        keep &= src != indices
        src, indices = src[keep], indices[keep]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return cls(indptr, indices, original_ids)

    def __repr__(self):
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"


def _parse_lines(text: str) -> np.ndarray:
    """(E, 2) int64 edges of an edge-list text, parsed line by line."""
    us: list[int] = []
    vs: list[int] = []
    for line_number, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
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
        if not (-2**63 <= us[-1] < 2**63 and -2**63 <= vs[-1] < 2**63):
            raise EdgeListParseError(
                line_number, f"id outside the int64 range in {line!r}")
    return np.stack([np.asarray(us, dtype=np.int64),
                     np.asarray(vs, dtype=np.int64)], axis=1)


def _parse_text(text: str | bytes) -> np.ndarray:
    """(E, 2) int64 edges of a whole edge-list text (str, or UTF-8 bytes).

    One leading byte-order mark is dropped, and every whole-line `#`
    comment (a SNAP header, say, or a trailing note) is blanked, its
    newline kept. One np.loadtxt call parses the rest when it is ASCII,
    whitespace-separated text; on such text it accepts exactly the lines
    the per-line parser accepts and reads the same integers (on non-ASCII
    text it can misread letters as digits). Any other text, text it
    rejects, or text with a `#` after an edge on its line, is parsed line
    by line, which reports the number of a malformed line; a byte that is
    not UTF-8 (a lone surrogate by surrogateescape) is reported so too.
    """
    text = (text.decode(errors="surrogateescape")
            if isinstance(text, bytes) else text).removeprefix("\ufeff")
    try:
        text.isascii() or text.encode()  # ASCII text holds no surrogate
    except UnicodeEncodeError as err:
        raise EdgeListParseError(text.count("\n", 0, err.start) + 1,
                                 "not UTF-8") from None
    parts, end = [], 0
    while (at := text.find("#", end)) >= 0:
        start = text.rfind("\n", 0, at) + 1  # of the `#`'s line
        if text[start:at].strip():
            return _parse_lines(text)
        parts.append(text[end:start])
        end = text.find("\n", at)
        if end < 0:  # a comment ends the text
            end = len(text)
    body = "".join([*parts, text[end:]])
    if body.isascii() and body.strip():
        try:
            edges = np.loadtxt(io.StringIO(body), dtype=np.int64,
                               comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if edges.shape[1] == 2:
                return edges
    return _parse_lines(text)


def load_edge_list(source: Source) -> Graph:
    """Parse a whitespace-separated edge list into a simple undirected graph.

    `source` is a path (str or os.PathLike) or an open text or byte stream;
    anything else is refused with TypeError before anything is read. One
    edge per line as two integer tokens; lines starting with `#` and blank
    lines are skipped, and one leading UTF-8 byte-order mark is dropped.
    Direction is ignored, self-loops are dropped, and parallel edges are
    merged. Input ids are compacted to [0, n) in ascending numeric order;
    the original ids are retained on the graph when relabeling actually
    changed anything. The source is read whole and parsed in one numpy
    call where that gives the per-line parser's edges. Bytes and paths are
    UTF-8 whatever the locale, and a path's lines end at LF, CRLF or a
    lone CR (text mode).
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, encoding="utf-8", errors="surrogateescape") as fh:
            raw_edges = _parse_text(fh.read())
    elif hasattr(source, "read"):  # the text is not held past the parse
        raw_edges = _parse_text(source.read())
    else:
        raise TypeError(f"expected a path or a stream with .read(), got "
                        f"{type(source).__name__}")
    if not len(raw_edges):
        return Graph.from_edges(np.empty((0, 2), dtype=np.int64), num_vertices=0)
    low, high = int(raw_edges.min()), int(raw_edges.max())
    if high - low < 2 * raw_edges.size:
        # dense ids: an id's rank is the count of ids present below it
        raw_edges -= low
        present = np.bincount(raw_edges.reshape(-1)).astype(bool)
        rank = np.cumsum(present) - 1
        ids = np.flatnonzero(present) + low
        compact = rank[raw_edges]
    else:
        # one sort gives the ids and ranks; the inverse comes back flat or
        # in the input's shape depending on the numpy 2.x release
        ids, compact = np.unique(raw_edges, return_inverse=True)
        compact = compact.reshape(raw_edges.shape)
    relabeled = ids.size != int(ids[-1]) + 1 or int(ids[0]) != 0
    return Graph.from_edges(compact, num_vertices=ids.size,
                            original_ids=ids if relabeled else None)


@dataclass(frozen=True)
class DegeneracyOrder:
    """The orientation of g along a round peeling order.

    out_degree[v] is the number of v's neighbours deleted after it, and
    alpha is the maximum of those, which is the degeneracy. The orientation
    is a CSR of m entries: v's later neighbours, in ascending id, are
    out_ids[out_start[v]:out_start[v] + out_degree[v]], and out_start is
    the exclusive cumulative sum of out_degree.
    """

    out_degree: np.ndarray
    alpha: int
    out_start: np.ndarray
    out_ids: np.ndarray


def _gather_rows(indices: np.ndarray, start: np.ndarray, count: np.ndarray
                 ) -> np.ndarray:
    """The CSR rows indices[start[i]:start[i] + count[i]], in their order
    and joined by one index."""
    # each row's start, less where it begins in the join
    shift = start + count - count.cumsum()
    return indices[shift.repeat(count) + np.arange(count.sum())]


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
    n / 2 (a path loses its two ends per round). g keeps it, read-only.
    """
    if g._order is not None:
        return g._order
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
        nbrs = _gather_rows(indices, start, indptr[peel + 1] - start)
        nbrs = nbrs[live[nbrs]]
        np.subtract.at(deg, nbrs, 1)
        nbrs.sort()
        frontier = np.concatenate((nbrs[:1], nbrs[1:][nbrs[1:] != nbrs[:-1]]))
    # each vertex's place in the peel, rounds in the order they ran and
    # each in ascending id: an edge points to the later end
    position = np.empty(n, dtype=np.int64)
    position[np.concatenate(rounds) if rounds else []] = np.arange(n)
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    later = position[indices] > position[src]
    out_degree = np.bincount(src[later], minlength=n)
    g._order = DegeneracyOrder(out_degree, int(out_degree.max(initial=0)),
                               np.cumsum(out_degree) - out_degree,
                               indices[later])
    for a in (out_degree, g._order.out_start, g._order.out_ids):
        a.flags.writeable = False  # shared by every caller
    return g._order

