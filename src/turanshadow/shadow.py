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

The builder is level-synchronous. Unless the whole graph saturates, every
vertex whose out-neighborhood in the global degeneracy order holds at least
k - 1 vertices is a root. A root's members are numbered 0..s-1 in ascending
id, and each member's adjacency inside the root is a row of uint64 words,
so every set refined below the root is a member bitmask. Those rows come
from one table per graph, oriented_table, built before any root: row
out_start[v] + a holds, for out-neighbour a of every vertex v, its
adjacency among v's out-neighbours, so it depends on the order and not on
k, and the exact counter reads the same table. Roots are grouped by
power-of-two width class and gather their rows from it. At budget ell, all
frontier sets of a class are tested together; the saturated ones (and all
at ell <= 2) are emitted, the rest are peeled together, one minimum-degree
member per step (argmin picks the lowest index among ties, which is the
lowest id), and each member's out-neighborhood with at least ell - 1
members joins the frontier at budget ell - 1.

A set is named by its path: the root id, then the member index taken at
each level. A recursive builder visits children in ascending member order,
and emitted sets are leaves, so no emitted path is a prefix of another;
sorting the emitted sets by path therefore restores exactly the
depth-first emission order, and with it every draw of the sampler.

Roots are processed in id-ordered batches cut by member pairs: a batch
closes before the sum of W * W over its roots, W being a root's width
class, would pass 2 * _CHUNK_ELEMS, unless it holds only one root. So a
batch's member rows take at most 2 * _CHUNK_ELEMS / 8 words (W * ceil(W /
64) <= W * W / 8), or one root's W * ceil(W / 64), and narrow classes fill
whole chunks at every peel step. Each temporary of a step (gathered rows,
degrees, children) is cut into chunks of about _CHUNK_ELEMS elements.
The table's chunks and then the batches are run by map_batches, the batch
runner the exact counter shares, on one thread per CPU the process may run
on, each thread holding one chunk or batch; so transient build memory is
bounded by the number of workers times one batch's rows and frontier plus
the chunk budget, whatever the size of the graph. Table chunks fill
disjoint rows, so the threads share the table without a lock, and the
batches only read it. Batches are id-contiguous, so sorting each batch's
emitted sets by path once and joining the batches in order gives the
global depth-first order: every shadow array is a function of the graph
and k alone, and the table of the graph alone, whatever the batch and
chunk sizes and the number of threads.

The shadow itself is flat: entry i has clique budget ells[i], induced edge
count edges[i] and the members labels[offsets[i]:offsets[i + 1]], each a
root-local index in the narrowest unsigned dtype that holds an index below
alpha; a label is all the shadow stores per member. One rule gives each
member's vertex id and adjacency row: row j of the uint64 `table` is the
adjacency row, inside its root, of vertex `ids[j]`, and entry i's member
with label a is row rowbase[i] + a. Normally `ids` is the order's out_ids
(DegeneracyOrder), referenced and not copied, rowbase[i] is out_start of
entry i's root, and the table is the oriented_table the shadow was built
from, referenced as built: m rows of nw = ceil(alpha / 64) words (a vertex
has at most alpha out-neighbours), one for every oriented edge, those of
vertices that are no root included. The saturated whole graph is one entry
with rowbase 0, ids = arange(n) and its packed adjacency matrix as the
table, n * ceil(n / 64) words, under m / 16 + n because the graph is
dense. `vertices` (derived once, on first read) and the lazy `entries`
view give the ids; dump_shadow derives them a chunk at a time instead.
"""

from __future__ import annotations

import operator
import os
import threading
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import IO

import numpy as np

from .graph import (
    DegeneracyOrder,
    Graph,
    degeneracy_order,
    edge_keys,
    has_edge_keys,
    induced_adjacency_matrix,
)

MAX_K = 64

_CHUNK_ELEMS = 1 << 17


@dataclass(frozen=True, eq=False)
class ShadowEntry:
    """One shadow element: count `ell`-cliques inside `vertices`.

    vertices are sorted ascending global ids; edges caches the induced
    edge count computed during construction. Entries compare by value.
    """

    vertices: np.ndarray
    ell: int
    edges: int

    @property
    def size(self) -> int:
        return int(self.vertices.size)

    def __eq__(self, other):
        if not isinstance(other, ShadowEntry):
            return NotImplemented
        return ((self.ell, self.edges) == (other.ell, other.edges)
                and np.array_equal(self.vertices, other.vertices))

    __hash__ = None


class ShadowEntries(Sequence):
    """Read-only view of a shadow's entries; each is made when read."""

    __slots__ = ("_sh",)

    def __init__(self, sh: "TuranShadow"):
        self._sh = sh

    def __len__(self) -> int:
        return int(self._sh.ells.size)

    def __getitem__(self, i):
        """Entry i, or a list of entries for a slice (like list slicing)."""
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = operator.index(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("shadow entry index out of range")
        sh = self._sh
        ids = sh._member_ids(i, i + 1)
        ids.flags.writeable = False
        return ShadowEntry(ids, int(sh.ells[i]), int(sh.edges[i]))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None


@dataclass(frozen=True, eq=False)
class TuranShadow:
    """A k-clique shadow as flat read-only arrays.

    Entry i has the clique budget ells[i], the induced edge count edges[i]
    and the members labels[offsets[i]:offsets[i + 1]], each a root-local
    index in the narrowest unsigned dtype. Row j of the uint64 table is the
    adjacency row of vertex ids[j] inside its root, and entry i's member
    with label a is row rowbase[i] + a: it is vertex ids[rowbase[i] + a],
    and members a and b are adjacent exactly when bit b of that row is set.
    Unless the whole graph saturates, ids is out_ids of
    degeneracy_order(g), shared and not copied, the table is the graph's
    oriented_table, with one row of ceil(alpha / 64) words per oriented
    edge and the rule above for every row, those of vertices that are no
    root included, and rowbase[i] is out_start of entry i's root. The
    saturated whole graph is the only entry, with rowbase 0, ids =
    arange(n) and its packed adjacency as the table.

    Memory, for E entries and m edges: one label per member
    (itemsize 1 B while alpha <= 256, or n <= 256 for the whole graph),
    8(E + 1) + 24E bytes for offsets, ells, edges and rowbase, m *
    ceil(alpha / 64) table words and m ids words shared with the order;
    for the whole graph, n * ceil(n / 64) table words and n ids words.
    The table's words are the same at every k: each vertex's rows are
    filled, roots or not. While it is built, each worker thread of
    map_batches also holds one table chunk, or one root batch's rows,
    frontier and chunk budget. A sampler over the shadow adds one index
    per entry with ell >= 3, in the narrowest unsigned dtype that holds
    an index below E (at most 4 B below 2^32 entries). `vertices`, once
    read, adds 8 B per member; dump_shadow does not read it.
    """

    k: int
    offsets: np.ndarray
    ells: np.ndarray
    edges: np.ndarray
    alpha: int  # degeneracy of the graph the shadow covers
    labels: np.ndarray
    rowbase: np.ndarray
    table: np.ndarray  # (rows, words per row) uint64
    ids: np.ndarray  # vertex id of each table row

    def _member_ids(self, lo: int, hi: int) -> np.ndarray:
        """Sorted ids of entries lo..hi - 1, flat: ids[rowbase + labels]."""
        offsets = self.offsets[lo:hi + 1]
        rows = np.repeat(self.rowbase[lo:hi], np.diff(offsets))
        rows += self.labels[offsets[0]:offsets[-1]]
        return self.ids[rows]

    @cached_property
    def vertices(self) -> np.ndarray:
        """Every entry's sorted ids, flat and read-only, made on first read."""
        vertices = self._member_ids(0, len(self.ells))
        vertices.flags.writeable = False
        return vertices

    @property
    def entries(self) -> ShadowEntries:
        return ShadowEntries(self)

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def representation_size(self) -> int:
        return int(self.offsets[-1])

    @property
    def max_set_size(self) -> int:
        return int(self.sizes.max(initial=0))

    @property
    def ell_histogram(self) -> dict[int, int]:
        ells, counts = np.unique(self.ells, return_counts=True)
        return dict(zip(ells.tolist(), counts.tolist()))


def _saturated(edges, size, ell):
    # edges > (1 - 1/(ell-1)) * size^2 / 2, cross-multiplied to stay exact;
    # takes Python ints or int64 arrays
    return 2 * edges * (ell - 1) > size * size * (ell - 2)


def _pack(bits: np.ndarray, nw: int) -> np.ndarray:
    """(c, W) booleans -> (c, nw) uint64 words, bit j of word j // 64."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    words = np.zeros((bits.shape[0], nw * 8), dtype=np.uint8)
    words[:, :packed.shape[1]] = packed
    return words.view("<u8").astype(np.uint64)


def _unpack(words: np.ndarray, width: int) -> np.ndarray:
    """(..., nw) uint64 words -> (..., width) booleans."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=-1, count=width,
                         bitorder="little").view(bool)


def _chunks(total: int, per_item: int):
    step = max(1, _CHUNK_ELEMS // per_item)
    for lo in range(0, total, step):
        yield slice(lo, min(lo + step, total))


@dataclass
class _Sets:
    """Sets of one width class: member masks under their roots."""

    root: np.ndarray   # index of the root in the class
    mask: np.ndarray   # (F, nw) uint64 member bitmask
    size: np.ndarray
    edges: np.ndarray
    path: np.ndarray   # (F, L): root id, then member indices, -1 padded

    def take(self, idx) -> "_Sets":
        return _Sets(self.root[idx], self.mask[idx], self.size[idx],
                     self.edges[idx], self.path[idx])

    @staticmethod
    def concat(parts: list["_Sets"]) -> "_Sets":
        return _Sets(*(np.concatenate([getattr(p, f) for p in parts])
                       for f in ("root", "mask", "size", "edges", "path")))


def _children(rows: np.ndarray, sets: _Sets, ell: int, depth: int) -> _Sets:
    """Out-neighborhoods (budget ell - 1) of unsaturated sets at budget ell.

    Peels every set of a chunk together: each step removes, in each set,
    the alive member of least degree (lowest index among ties), records its
    out-neighborhood rows[best] & alive, and lowers its neighbors' degrees.
    Out-neighborhoods with fewer than ell - 1 members are dropped. The
    member removed at step s keeps at most size - s - 1 members, so a set
    stops after size - ell + 1 steps.
    """
    _, width, nw = rows.shape
    big = width + 1
    sets = sets.take(np.argsort(-sets.size, kind="stable"))
    out = []
    for c in _chunks(len(sets.size), width * nw):
        root, mask, size = sets.root[c], sets.mask[c], sets.size[c]
        deg = np.bitwise_count(rows[root] & mask[:, None, :]).sum(
            axis=2, dtype=np.int64)
        deg[~_unpack(mask, width)] = big
        alive = mask.copy()
        nplus = np.zeros((size.size, width, nw), dtype=np.uint64)
        for step in range(int(size[0]) - ell + 1):
            # sizes are descending
            na = int(np.count_nonzero(size - ell >= step))
            it = np.arange(na)
            best = deg[:na].argmin(axis=1)
            alive[it, best >> 6] ^= np.left_shift(
                np.uint64(1), (best & 63).astype(np.uint64))
            rest = rows[root[:na], best] & alive[:na]
            nplus[it, best] = rest
            deg[it, best] = big
            deg[:na] -= _unpack(rest, width)
        csize = np.bitwise_count(nplus).sum(axis=2, dtype=np.int64)
        item, member = np.nonzero(csize >= ell - 1)
        cmask = nplus[item, member]
        cedges = np.empty(item.size, dtype=np.int64)
        for d in _chunks(item.size, width * nw):
            per_row = np.bitwise_count(
                rows[root[item[d]]] & cmask[d][:, None, :]).sum(
                    axis=2, dtype=np.int64)
            cedges[d] = (per_row * _unpack(cmask[d], width)).sum(axis=1) // 2
        path = sets.path[c][item]
        path[:, depth] = member
        out.append(_Sets(root[item], cmask, csize[item, member], cedges,
                         path))
    return _Sets.concat(out)


def _spans(cost: np.ndarray, budget: int):
    """(lo, hi) spans that cut `cost` greedily at `budget`.

    A span takes items in order until the next one would carry the sum of
    their costs past budget, and holds at least one item.
    """
    spent = np.cumsum(cost)
    lo = 0
    while lo < cost.size:
        limit = budget + (int(spent[lo - 1]) if lo else 0)
        hi = max(lo + 1, int(np.searchsorted(spent, limit, side="right")))
        yield lo, hi
        lo = hi


def root_batches(order: DegeneracyOrder, k: int):
    """Roots for budget k, batch by batch.

    The roots are the vertices with at least k - 1 out-neighbours in
    `order` (its core_number), in ascending id. Each root has a power-of-two
    width class W (at least 8), and W * W is the size of its member-pair
    block. A batch takes roots in id order until the next one would carry
    the sum of their W * W past 2 * _CHUNK_ELEMS, and holds at least one
    root. Yields one list per batch holding an (ids, W) pair per width
    class, in ascending width, ids the class's roots in ascending id.
    Batches are made only when asked for, so under map_batches at most one
    per worker thread is alive, with its rows, frontier and chunk budget.
    """
    out_deg = order.core_number
    roots = np.flatnonzero(out_deg >= k - 1)
    widths = np.maximum(
        8, 1 << np.ceil(np.log2(out_deg[roots])).astype(np.int64))
    for lo, hi in _spans(widths * widths, 2 * _CHUNK_ELEMS):
        batch, classes = roots[lo:hi], widths[lo:hi]
        yield [(batch[classes == width], width)
               for width in sorted(set(classes.tolist()))]


def _workers() -> int:
    """Threads for map_batches: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def map_batches(fn: Callable, batches: Iterable) -> list:
    """[fn(batch) for batch in batches], on _workers() plain threads.

    The calling thread is one of the workers, so one worker starts no
    thread. A worker takes the next batch from the iterator, under a lock,
    only when it is free, so at most one batch per worker is in flight and
    batches are made no sooner than they are needed. After the first error
    that fn or the iterator raises, no batch is taken; the workers finish
    what they hold and the error is re-raised. Results are in batch order.
    """
    lock = threading.Lock()
    source = enumerate(batches)
    results, errors = {}, []

    def work():
        try:
            while True:
                with lock:
                    if errors:
                        return
                    item = next(source, None)
                if item is None:
                    return
                result = fn(item[1])
                with lock:
                    results[item[0]] = result
        except BaseException as error:  # re-raised by the calling thread
            with lock:
                errors.append(error)

    threads = [threading.Thread(target=work) for _ in range(_workers() - 1)]
    for thread in threads:
        thread.start()
    try:
        work()
        for thread in threads:
            thread.join()
    except BaseException as error:  # interrupted while joining
        errors.append(error)  # the workers take no more batches
        raise
    if errors:
        raise errors[0]
    return [results[i] for i in range(len(results))]


def oriented_table(g: Graph, order: DegeneracyOrder,
                   check_time: Callable[[], None] = lambda: None
                   ) -> np.ndarray:
    """Member-pair table of every vertex's out-neighbourhood in `order`.

    Returns the (m, max(1, ceil(alpha / 64))) uint64 table whose row
    out_start[v] + a stands for out-neighbour a of v (out_ids order): bit b
    is set exactly when out-neighbours a and b of v are adjacent in g, so
    rows of vertices with out-degree <= 1 are zero. It depends on the order
    alone, not on any k. Members ascend in id, so the pair a < b is the one
    edge key u * n + w, looked up once in edge_keys(g) and set in both
    rows. Vertices are cut, in id order, into chunks, as root_batches cuts
    roots: a chunk closes before its member pairs plus the bits of its rows
    would pass 2 * _CHUNK_ELEMS (a vertex with more is a chunk alone), so
    a vertex of out-degree 1, which has no pair, still counts. Chunks fill
    disjoint rows on the threads of map_batches; check_time() runs before
    each chunk.
    """
    n, out_deg, out_start = g.vertex_count, order.core_number, order.out_start
    nw = max(1, -(-order.alpha // 64))
    row_bits = 64 * nw
    table = np.zeros((g.edge_count, nw), dtype=np.uint64)
    keys = edge_keys(g)  # a lazy cache: filled here, not raced for by workers

    def fill(span):
        check_time()
        deg, start = out_deg[span[0]:span[1]], out_start[span[0]:span[1]]
        rows = np.arange(start[0], start[-1] + deg[-1])
        member = rows - np.repeat(start, deg)
        later = np.repeat(deg, deg) - 1 - member  # pairs (a, b > a) of row a
        a = np.repeat(rows, later)
        # b runs from a + 1 to the last row of a's vertex
        b = np.arange(a.size) + np.repeat(rows + 1 - np.cumsum(later) + later,
                                          later)
        hit = has_edge_keys(keys, order.out_ids[a] * n + order.out_ids[b])
        a, b = a[hit] - start[0], b[hit] - start[0]
        bits = np.zeros(rows.size * row_bits, dtype=bool)
        bits[a * row_bits + member[b]] = True
        bits[b * row_bits + member[a]] = True
        table[rows] = np.packbits(bits, bitorder="little").view(
            "<u8").reshape(-1, nw)

    cost = out_deg * (out_deg - 1) // 2 + out_deg * row_bits
    map_batches(fill, _spans(cost, 2 * _CHUNK_ELEMS))
    return table


def class_rows(order: DegeneracyOrder, table: np.ndarray, ids: np.ndarray,
               width: int) -> tuple[np.ndarray, np.ndarray]:
    """Member rows and member masks of the roots of one width class.

    Gathers, from the oriented_table `table`, the (R, W, ceil(W / 64))
    uint64 rows of the members of roots `ids`, and returns them with the
    roots' (R, ceil(W / 64)) member masks. Padding is adjacent to nothing.
    """
    deg = order.core_number[ids]
    col = np.arange(width)
    inside = col < deg[:, None]
    nw = (width + 63) // 64
    rows = np.zeros((ids.size, width, nw), dtype=np.uint64)
    rows[inside] = _fit_words(
        table[(order.out_start[ids, None] + col)[inside]], nw)
    return rows, _pack(inside, nw)


def _roots(order: DegeneracyOrder, table: np.ndarray, ids: np.ndarray,
           width: int, k: int) -> tuple[_Sets, np.ndarray]:
    """Root sets of one width class and their member rows.

    Takes one (ids, width) pair of root_batches. Returns the roots as sets
    at budget k - 1 and their class_rows.
    """
    rows, mask = class_rows(order, table, ids, width)
    path = np.full((ids.size, max(k - 2, 1)), -1, dtype=np.int64)
    path[:, 0] = ids
    edges = np.bitwise_count(rows).sum(axis=(1, 2), dtype=np.int64) // 2
    return _Sets(np.arange(ids.size), mask, order.core_number[ids], edges,
                 path), rows


def _fit_words(rows: np.ndarray, nw: int) -> np.ndarray:
    """(c, w) uint64 rows cut or zero-padded to nw words."""
    out = np.zeros((rows.shape[0], nw), dtype=np.uint64)
    keep = min(nw, rows.shape[1])
    out[:, :keep] = rows[:, :keep]
    return out


def _build_batch(k: int, group: list, order: DegeneracyOrder,
                 table: np.ndarray, label_dtype):
    """Emitted entries of one batch of root_batches, in path order.

    Reads each root's member rows from the oriented_table `table`. Returns
    (sizes, flat labels, ells, edges, rowbase): labels are the members'
    root-local indices, and rowbase[i] is out_start of entry i's root.
    """
    nw = table.shape[1]
    emitted, ells = [], []
    for ids, width in group:
        sets, rows = _roots(order, table, ids, width, k)
        ell, depth = k - 1, 1
        while sets.size.size:
            done = (_saturated(sets.edges, sets.size, ell) if ell > 2
                    else np.ones(sets.size.size, dtype=bool))
            out = sets.take(done)
            out.mask = _fit_words(out.mask, nw)
            emitted.append(out)
            ells.append(np.full(out.size.size, ell, dtype=np.int64))
            sets = sets.take(~done)
            if not sets.size.size:
                break
            sets = _children(rows, sets, ell, depth)
            ell, depth = ell - 1, depth + 1
    sets, ell = _Sets.concat(emitted), np.concatenate(ells)
    perm = np.lexsort(sets.path.T[::-1])
    sets, ell = sets.take(perm), ell[perm]
    labels = [np.empty(0, dtype=label_dtype)]
    for c in _chunks(ell.size, nw * 64):
        labels.append(np.nonzero(_unpack(sets.mask[c], nw * 64))[1].astype(
            label_dtype))
    return (sets.size, np.concatenate(labels), ell, sets.edges,
            order.out_start[sets.path[:, 0]])


def _label_dtype(count: int) -> np.dtype:
    """Narrowest unsigned dtype that holds every index below count."""
    return np.min_scalar_type(max(count - 1, 0))


def check_shadow_args(k: int) -> None:
    """The checks of shadow_finder that need no graph."""
    if k < 3:
        raise ValueError("k must be >= 3; smaller k are counted directly")
    if k > MAX_K:
        raise ValueError(f"k must be <= {MAX_K}")


def shadow_finder(g: Graph, k: int) -> TuranShadow:
    """Build the k-clique shadow of g by iterative density refinement.

    The sum over returned entries of the exact ell-clique counts inside
    each set equals the k-clique count of g. Every returned entry with
    ell >= 3 is strictly above its density threshold; sets too small to
    hold their clique budget are dropped at emission.
    """
    check_shadow_args(k)
    n, m = g.vertex_count, g.edge_count
    order = degeneracy_order(g)
    if n >= k and _saturated(m, n, k):
        # one entry, the whole graph: its rows are the packed adjacency
        # matrix, about n * n / 64 < m / 16 words because the graph is dense
        ids = np.arange(n, dtype=np.int64)
        table = _pack(induced_adjacency_matrix(g, ids), -(-n // 64))
        parts = [(np.array([n]), ids.astype(_label_dtype(n)), np.array([k]),
                  np.array([m]), np.array([0]))]
    else:
        # one row per oriented edge: a root has at most alpha members
        ids, table = order.out_ids, oriented_table(g, order)
        dtype = _label_dtype(order.alpha)
        none = np.empty(0, dtype=np.int64)
        parts = [(none, none.astype(dtype), none, none, none), *map_batches(
            lambda group: _build_batch(k, group, order, table, dtype),
            root_batches(order, k))]
    sizes, labels, ells, edges, rowbase = (
        np.concatenate([p[i] for p in parts]) for i in range(5))
    offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    for a in (offsets, labels, ells, edges, rowbase, table, ids):
        a.flags.writeable = False
    return TuranShadow(k=k, offsets=offsets, ells=ells, edges=edges,
                       alpha=order.alpha, labels=labels, rowbase=rowbase,
                       table=table, ids=ids)


def shadow_stats(sh: TuranShadow) -> dict:
    """Aggregate structure of a shadow, as plain serializable values."""
    min_ell = int(sh.ells.min(initial=sh.k))
    return {
        "set_count": len(sh.ells),
        "representation_size": sh.representation_size,
        "max_set_size": sh.max_set_size,
        "ell_histogram": sh.ell_histogram,
        "depth_reached": sh.k - min_ell,
    }


def dump_shadow(sh: TuranShadow, stream: IO | None = None) -> str | None:
    """Debug dump, one entry per line: ell TAB size TAB sorted global ids.

    Entries go out in chunks of about _CHUNK_ELEMS members, each chunk's
    ids derived by _member_ids, so `vertices` is never built.
    """
    chunks = _dump_chunks(sh)
    if stream is None:
        return "\n".join(chunks)
    for chunk in chunks:
        stream.write(chunk + "\n")
    return None


def _dump_chunks(sh: TuranShadow):
    """The dump's lines, a chunk of entries at a time, joined by newlines."""
    offsets, lo = sh.offsets, 0
    while lo < len(sh.ells):
        # entries lo..hi - 1 end within _CHUNK_ELEMS members, or hi = lo + 1
        hi = max(lo + 1, int(np.searchsorted(
            offsets, offsets[lo] + _CHUNK_ELEMS, side="right")) - 1)
        ids = sh._member_ids(lo, hi).tolist()
        bounds = (offsets[lo:hi + 1] - offsets[lo]).tolist()
        yield "\n".join(
            f"{ell}\t{b - a}\t{' '.join(map(str, ids[a:b]))}"
            for ell, a, b in zip(sh.ells[lo:hi].tolist(), bounds, bounds[1:]))
        lo = hi
