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
vertex with at least k - 1 out-neighbours in the global degeneracy order is
a root. Its d members are numbered 0..d-1 in ascending id, so every set
below it is a member mask of nw = ceil(d / 64) words, its word class. Row
out_start[v] + a of oriented_table, one table per graph that the exact
counter reads too, holds the adjacency of out-neighbour a of v among v's
out-neighbours, so it does not depend on k; a call at k fills the rows of
the roots alone, the only ones read, and a later call at a lower k fills
more in place. Rows are filled by forward triangle listing along the
order, and no vertex pair is looked up. Member rows are read there in
place by one flat gather (member_rows), and members found by one 1-D
flatnonzero over the masks. At budget ell the frontier sets of a word
class have their edges counted over their own members' rows and are
tested together, in one call per level when alpha <= 64; the saturated
ones (and all at ell <= 2) are emitted, the rest are peeled together, one
minimum-degree member per step (the lowest index, which is the lowest id,
among ties; one-word sets take a lean step on 1-D masks), and each
member's out-neighborhood with at least ell - 1 members joins the frontier
at budget ell - 1.

The shadow is a multiset, and neither the estimate nor its guarantee
depends on the order of its entries; one canonical key fixes that order.
Emitted sets are sorted by class (ell, then size: one key ell * span +
size, where span = 64 * nw + 1, for the table's nw words a row, passes
any size), then by root (by base, out_start[root], which rises with the
root id), then by the member mask read as one integer (bit a of word w
is 2^(64w + a)). Two sets tie only when they are the same entry, since a
mask and its root fix the members, the size and the edges.

Roots are processed in id-ordered batches that hold no rows, only frontier
and emitted sets. Every set below a root of out-degree d is a subset of
its d members, and its first frontier holds at most d sets, so a root
costs d * d member slots; a batch closes before its roots' costs would
pass 2 * _CHUNK_ELEMS, unless it holds one root, and a peel step works in
chunks of about _CHUNK_ELEMS member slots. The table's chunks and then the
batches run on map_batches, the batch runner the exact counter shares,
one thread per CPU the process may run on, each working on one chunk or
batch at a time (TuranShadow bounds what a batch holds). Table chunks
fill disjoint rows, and batches only read the table. Batches are
id-contiguous and each is sorted by the key, so laying each class's runs
out batch after batch, with no sort over entries, sorts the whole shadow
by it: every shadow array is a function of the graph and k alone, and each
filled table row of the graph alone, whatever the batch, chunk and thread
counts.

TuranShadow describes the stored layout; its lazy `entries` view derives
the ids an entry at a time.
"""

from __future__ import annotations

import operator
import os
import threading
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .graph import (
    DegeneracyOrder,
    Graph,
    _gather_rows,
    degeneracy_order,
)

MAX_K = 64

_CHUNK_ELEMS = 1 << 17


@dataclass(frozen=True, eq=False)
class ShadowEntry:
    """One shadow element: count `ell`-cliques inside `vertices`, sorted
    ascending global ids. Entries compare by value."""

    vertices: np.ndarray
    ell: int

    @property
    def size(self) -> int:
        return int(self.vertices.size)

    def __eq__(self, other):
        if not isinstance(other, ShadowEntry):
            return NotImplemented
        return (self.ell == other.ell
                and np.array_equal(self.vertices, other.vertices))


class ShadowEntries(Sequence):
    """Read-only view of a shadow's entries; each is made when read. It
    has len, integer indexing and iteration, and, like range, equals no
    list; entries compare by value, so `e in sh.entries` works."""

    __slots__ = ("_sh", "_first", "_start")

    def __init__(self, sh: "TuranShadow"):
        self._sh, self._first, self._start = sh, sh.class_first, sh.class_start

    def __len__(self) -> int:
        return int(self._sh.rowbase.size)

    def __getitem__(self, i):
        i = range(len(self))[operator.index(i)]  # negative i from the end
        sh, first = self._sh, self._first
        c = int(np.searchsorted(first, i, side="right")) - 1  # i's class
        size = int(sh.class_sizes[c])
        lo = int(self._start[c]) + (i - int(first[c])) * size
        ids = sh.ids[sh.rowbase[i] + sh.labels[lo:lo + size]]
        ids.flags.writeable = False
        return ShadowEntry(ids, int(sh.class_ells[c]))


@dataclass(frozen=True, eq=False)
class TuranShadow:
    """A k-clique shadow as flat read-only arrays, stored class-major.

    Class c holds class_counts[c] >= 1 entries, each with the clique budget
    class_ells[c] and class_sizes[c] members. Classes ascend by (ell, size),
    a class's entries by root, then member mask. Its entries are numbered
    from class_first[c] and its labels start at class_start[c], exclusive
    cumsums of counts and of counts * sizes: rank r's labels start at
    class_start[c] + r * size. A label is a root-local member index in the
    narrowest unsigned dtype, and entry i's member with label a is table
    row rowbase[i] + a and vertex ids[rowbase[i] + a]: members a and b are
    adjacent exactly when bit b of that row is set. exact_offset sums the
    induced edges of the ell = 2 entries. Unless the whole graph
    saturates, ids and the table are out_ids and oriented_table of
    degeneracy_order(g), shared and not copied, and rowbase[i] is out_start
    of entry i's root; the saturated whole graph is one entry with rowbase
    0, ids = arange(n) and its packed adjacency as the table.

    Memory, for E entries, C classes, m edges and alpha the order's: one
    label per member (1 B while alpha <= 256, or n <= 256 for the whole
    graph), one rowbase word per entry, three words per class, and m *
    ceil(alpha / 64) table words and m ids words shared with the order;
    for the whole graph, n * ceil(n / 64) table words and n ids words.
    The table is allocated whole at any k, with the rows of the roots
    filled, and g keeps it for the counter and later builds, which fill
    the rows a lower k needs in place (see oriented_table); while its
    chunks are cut, one n-word array and an n-byte mask are held too, and
    no m-word one. While the shadow is built, its root batches are
    listed, one word per root, and each map_batches worker holds a table
    chunk (see oriented_table) or works on a root batch, which holds no
    rows: with nw = ceil(alpha / 64), at most twice its emitted sets plus
    its largest frontier and the children made from it, at nw + 3 words a
    set (a frontier set's base, size and edge count, or an emitted set's
    base and class key, beside its mask), two bytes a label, and about
    16 * _CHUNK_ELEMS words of chunk temporaries. A sampler adds no bytes
    per entry.
    """

    k: int
    class_ells: np.ndarray
    class_sizes: np.ndarray
    class_counts: np.ndarray
    labels: np.ndarray
    rowbase: np.ndarray
    exact_offset: int
    table: np.ndarray  # (rows, words per row) uint64
    ids: np.ndarray  # vertex id of each table row

    @property
    def entries(self) -> ShadowEntries:
        return ShadowEntries(self)

    @property
    def class_first(self) -> np.ndarray:
        return np.cumsum(self.class_counts) - self.class_counts

    @property
    def class_start(self) -> np.ndarray:
        labels = self.class_counts * self.class_sizes
        return np.cumsum(labels) - labels

    @property
    def representation_size(self) -> int:
        return int(self.labels.size)

    @property
    def max_set_size(self) -> int:
        return int(self.class_sizes.max(initial=0))

    @property
    def ell_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for ell, count in zip(self.class_ells.tolist(),
                              self.class_counts.tolist()):
            hist[ell] = hist.get(ell, 0) + count
        return hist


def _saturated(edges, size, ell):
    # edges > (1 - 1/(ell-1)) * size^2 / 2, cross-multiplied to stay exact;
    # takes Python ints or int64 arrays
    return 2 * edges * (ell - 1) > size * size * (ell - 2)


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
    """Sets of one word class: member masks under their roots."""

    base: np.ndarray   # table row of the root's member 0: out_start[root]
    mask: np.ndarray   # (F, nw) uint64 member bitmask
    size: np.ndarray

    def take(self, idx) -> "_Sets":
        return _Sets(self.base[idx], self.mask[idx], self.size[idx])


# _BIT[i] holds bit i alone and _LOW[i] bits 0..i - 1
_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
_LOW = np.concatenate([_BIT - np.uint64(1), [np.uint64(2**64 - 1)]])


def member_rows(table: np.ndarray, rows: np.ndarray, nw: int) -> np.ndarray:
    """Words 0..nw-1 of the table rows `rows`, read in place by one gather:
    member a under root v is row out_start[v] + a of the oriented_table."""
    if nw == 1:
        return table[:, 0][rows][:, None]
    return np.take(table, rows, axis=0)[:, :nw]


def popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each row of (c, nw) uint64 words, as int64, word by word
    (a summing reduction over the short word axis is several times slower)."""
    count = np.bitwise_count(words[:, 0]).astype(np.int64)
    for w in range(1, words.shape[1]):
        count += np.bitwise_count(words[:, w])
    return count


def _members(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(set, member) of each member of (F, nw) masks, by set then member."""
    # scanned up to the highest member of any mask, not all 64 * nw bits
    top = int(np.bitwise_or.reduce(mask[:, -1], initial=0))
    width = 64 * (mask.shape[1] - 1) + top.bit_length()
    flat = np.flatnonzero(_unpack(mask, width))
    item = flat // max(width, 1)
    flat -= item * width  # in place: each temporary is a chunk's members
    return item, flat


def _low_bits(count: np.ndarray, nw: int) -> np.ndarray:
    """(c, nw) uint64 masks holding members 0..count[i] - 1, for each i."""
    if nw == 1:  # count <= 64
        return _LOW[count][:, None]
    return _LOW[np.clip(count[:, None] - 64 * np.arange(nw), 0, 64)]


def _degrees(table: np.ndarray, base: np.ndarray, mask: np.ndarray):
    """(set, member, degree inside the set) of every member of the sets."""
    item, member = _members(mask)
    rows = member_rows(table, base[item] + member, mask.shape[1])
    rows &= mask[item]
    return item, member, popcount(rows)


def _edges(table: np.ndarray, sets: _Sets) -> np.ndarray:
    """Induced edge counts of nonempty sets, over their own members."""
    edges = np.empty(sets.size.size, dtype=np.int64)
    for c in _chunks(sets.size.size, 64 * sets.mask.shape[1]):
        size = sets.size[c]
        degree = _degrees(table, sets.base[c], sets.mask[c])[2]
        edges[c] = np.add.reduceat(degree, np.cumsum(size) - size) // 2
    return edges


def _children(table: np.ndarray, sets: _Sets, ell: int) -> _Sets:
    """Out-neighborhoods (budget ell - 1) of unsaturated sets at budget ell,
    given by descending size; peeled by chunk, the parts joined every 16
    chunks so that one-set chunks hold few arrays. Their edges are not
    counted here: the next level counts them where it tests them."""
    nw = sets.mask.shape[1]
    parts = []
    for c in _chunks(sets.size.size, 64 * nw * nw):
        parts.append(_peel(table, sets.take(c), ell))
        if len(parts) == 16:
            parts = [tuple(map(np.concatenate, zip(*parts)))]
    return _Sets(*map(np.concatenate, zip(*parts)))


def _peel(table: np.ndarray, sets: _Sets, ell: int):
    """(base, mask, size) of a chunk's out-neighborhoods of at least
    ell - 1 members. Each step removes, in every set, the alive member of
    least degree (lowest index among ties), records its row & alive and
    lowers its neighbors' degrees; a set stops after size - ell + 1 steps,
    as the member removed at step s keeps at most size - s - 1 members.
    One-word sets take a lean step on 1-D masks and rows, with about half
    the numpy calls."""
    base, mask, size = sets.base, sets.mask, sets.size
    nw = mask.shape[1]
    width = 64 * nw
    big = width + 1
    deg = np.full((size.size, width), big, dtype=np.min_scalar_type(big))
    item, member, degree = _degrees(table, base, mask)
    deg[item, member] = degree
    del item, member, degree  # only deg is needed while peeling
    flat = deg.reshape(-1)
    lane = np.arange(size.size)
    slot = lane * width  # (set, member) slot of member 0 in deg
    # rows of one word little-endian, so that their bytes unpack in order
    col = table[:, 0].astype("<u8", copy=False)
    alive = mask[:, 0].copy() if nw == 1 else mask.copy()
    ats, rests = [], []
    # sizes are descending, and a set takes part in steps 0..size - ell
    for na in np.cumsum(np.bincount(size - ell)[::-1])[::-1].tolist():
        best = deg[:na].argmin(axis=1)
        if nw == 1:
            alive[:na] ^= _BIT[best]
            rest = col[base[:na] + best]
            rest &= alive[:na]
            bits = np.unpackbits(rest.view(np.uint8), bitorder="little")
        else:
            alive[lane[:na], best >> 6] ^= _BIT[best & 63]
            rest = member_rows(table, base[:na] + best, nw) & alive[:na]
            bits = _unpack(rest, width)
        at = slot[:na] + best
        flat[at] = big
        deg[:na] -= bits.reshape(na, width)
        ats.append(at)
        rests.append(rest)
    cmask = np.concatenate(rests).reshape(-1, nw)
    csize = popcount(cmask)
    keep = csize >= ell - 1
    item = np.concatenate(ats)[keep] // width
    return base[item], cmask[keep], csize[keep]


def _spans(spent: np.ndarray, budget: int):
    """(lo, hi) spans that cut items greedily at `budget`, given `spent`,
    the running sum of their costs.

    A span takes items in order until the next one would carry the sum of
    their costs past budget, and holds at least one item.
    """
    lo = 0
    while lo < spent.size:
        limit = budget + (int(spent[lo - 1]) if lo else 0)
        hi = max(lo + 1, int(np.searchsorted(spent, limit, side="right")))
        yield lo, hi
        lo = hi


def root_batches(order: DegeneracyOrder, k: int):
    """Roots for budget k, batch by batch.

    The roots are the vertices with at least k - 1 out-neighbours in
    `order` (its out_degree), in ascending id; one of out-degree d costs
    d * d member slots. A batch takes roots in id order until the next one
    would carry its cost past 2 * _CHUNK_ELEMS, and holds at least one.
    Yields one list per batch of (ids, nw) pairs, one per word class nw =
    ceil(d / 64) in ascending nw, ids ascending. A batch holds only root
    ids, so the list that map_batches makes of them costs one word a root.
    """
    roots = np.flatnonzero(order.out_degree >= k - 1)
    size = order.out_degree[roots]
    for lo, hi in _spans(np.cumsum(size * size), 2 * _CHUNK_ELEMS):
        batch, classes = roots[lo:hi], -(-size[lo:hi] // 64)
        yield [(batch[classes == nw], nw)
               for nw in sorted(set(classes.tolist()))]


def _workers() -> int:
    """Threads for map_batches: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def map_batches(fn: Callable, batches: Iterable) -> list:
    """[fn(batch) for batch in batches], on _workers() plain threads.

    The batches are listed first, so an error raised while they are cut
    surfaces before any batch runs. The calling thread is one of the
    workers, so one worker starts no thread. A free worker claims the next
    index under a lock and writes fn's result into that slot of a
    preallocated list. After the first error that fn raises, no batch is
    claimed; the workers finish what they hold and the error is re-raised.
    Results are in batch order.
    """
    batches = list(batches)
    results, errors = [None] * len(batches), []
    lock = threading.Lock()
    claimed = 0  # batches claimed so far

    def work():
        nonlocal claimed
        try:
            while True:
                with lock:
                    if errors or claimed == len(batches):
                        return
                    i, claimed = claimed, claimed + 1
                results[i] = fn(batches[i])
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
    return results


_TABLE_LOCK = threading.Lock()  # held while any graph's table is filled


def oriented_table(g: Graph, floor: int = 0,
                   check_time: Callable[[], None] = lambda: None
                   ) -> np.ndarray:
    """Member-pair table of the out-neighbourhoods in degeneracy_order(g).

    Returns the (m, max(1, ceil(alpha / 64))) uint64 table whose row
    out_start[v] + a stands for out-neighbour a of v (out_ids order): bit b
    is set exactly when out-neighbours a and b of v are adjacent in g, so
    rows of vertices with out-degree <= 1 are zero. The rows are filled for
    every vertex of out-degree at least `floor` (the builder and the
    counter at k pass k - 1, the out-degree of a root; 0 fills every row),
    and the rest are zero or filled by an earlier call: a row, once filled,
    depends on the order alone, not on any k. g keeps one table, read-only,
    and the least floor filled so far; a call with a lower floor fills the
    missing vertices in place, into the array under that same read-only
    one, so each row is written once and rows at or above the old floor,
    all that earlier callers read, are never written. Fills are serialized
    by one lock, so two threads extending the floor at once fill each row
    once. Rows are filled by forward triangle listing: a wedge is a row
    (v, u) and a w in out(u), and each w is looked up among the ascending
    keys v * n + x, v chunk-local, of the chunk's own rows (v, x). A hit is
    the row of w, and sets the pair's bit in both rows; each adjacent pair
    of out(v) is one wedge, from whichever of the two comes first in the
    order. Vertices are cut, in id order, into chunks, as root_batches cuts
    roots: a vertex to fill of out-degree d costs d * (64 * nw + alpha),
    the bits of its rows and a bound on their wedges (a row (v, u) has
    out_degree[u] <= alpha), any other vertex nothing, and a chunk closes
    before its vertices' costs would pass 2 * _CHUNK_ELEMS (a vertex with
    more is a chunk alone). Beside the table, cutting holds one n-word
    array, the costs summed in place, an n-byte mask of the vertices to
    fill, and the (lo, hi) bounds of every chunk, listed before any is
    filled; a chunk holds at most 16 * _CHUNK_ELEMS words, or, alone,
    about 8 words per unit of its cost. Chunks fill disjoint rows on the
    threads of map_batches; check_time() runs before each chunk. A stopped
    first fill leaves g no table, and a stopped extension the old floor, so
    the next call fills that extension's vertices again.
    """
    if g._table_floor is not None and g._table_floor <= floor:
        return g._table
    with _TABLE_LOCK:
        filled = g._table_floor  # None before the first fill
        if filled is not None and filled <= floor:
            return g._table  # filled by another thread meanwhile
        order = degeneracy_order(g)
        out_deg = order.out_degree
        nw = max(1, -(-order.alpha // 64))
        if g._table is None:  # nothing filled: no out-degree passes alpha
            table = np.zeros((g.edge_count, nw), dtype=np.uint64)
            filled = order.alpha + 1
        else:  # the writable array under the read-only one handed out
            table = g._table.base
        fill_here = (out_deg >= floor) & (out_deg < filled)

        def fill(span):
            check_time()
            vs = np.arange(*span)[fill_here[span[0]:span[1]]]
            if vs.size:
                _fill_rows(table, order, vs)

        # a row (v, u) has 64 * nw bits and out_deg[u] <= alpha wedges
        spent = out_deg * (64 * nw + order.alpha)
        spent[~fill_here] = 0
        map_batches(fill, _spans(np.cumsum(spent, out=spent),
                                 2 * _CHUNK_ELEMS))
        if g._table is None:
            g._table = table.view()
            g._table.flags.writeable = False
        g._table_floor = floor  # only once every row is filled
        return g._table


def _fill_rows(table: np.ndarray, order: DegeneracyOrder, vs: np.ndarray):
    """Fill the table rows of the vertices vs, ascending, by forward
    triangle listing (see oriented_table)."""
    out_deg, out_start, out_ids = (order.out_degree, order.out_start,
                                   order.out_ids)
    n, nw = out_deg.size, table.shape[1]
    row_bits = 64 * nw
    deg = out_deg[vs]
    owner = np.arange(vs.size).repeat(deg)  # chunk-local v of row (v, u)
    first = np.cumsum(deg) - deg  # chunk-local row of each v's member 0
    member = np.arange(owner.size) - first[owner]
    rows = out_start[vs][owner] + member
    u = out_ids[rows]
    keys = owner * n + u
    # wedge (v, u, w) for each w in out(u): row a is (v, u)
    a = np.arange(rows.size).repeat(out_deg[u])
    q = owner[a] * n + _gather_rows(out_ids, out_start[u], out_deg[u])
    b = np.searchsorted(keys, q).clip(max=rows.size - 1)
    hit = keys[b] == q
    a, b = a[hit], b[hit]
    bits = np.zeros(rows.size * row_bits, dtype=bool)
    bits[a * row_bits + member[b]] = True
    bits[b * row_bits + member[a]] = True
    table[rows] = np.packbits(bits, bitorder="little").view(
        "<u8").reshape(-1, nw)


def _build_batch(k: int, group: list, order: DegeneracyOrder,
                 table: np.ndarray, label_dtype):
    """(keys, counts, labels, rowbase, edges) of one batch of root_batches,
    in the module docstring's order: its classes' keys ell * span + size
    and counts, its entries' labels and rowbase, and the induced edges of
    its ell = 2 entries. Each level appends its emitted sets as one (key,
    base, mask) tuple, the mask padded to the table's width."""
    width = table.shape[1]
    span, emitted, edges = 64 * width + 1, [], 0
    for ids, nw in group:
        size = order.out_degree[ids]
        sets = _Sets(order.out_start[ids], _low_bits(size, nw), size)
        ell = k - 1
        while sets.size.size:
            if ell == 2:  # every set is emitted
                edges += int(_edges(table, sets).sum())
                done = np.ones(sets.size.size, dtype=bool)
            else:
                done = _saturated(_edges(table, sets), sets.size, ell)
            out = sets.take(done)
            # at the table's width, so that the word classes' sets join
            emitted.append((ell * span + out.size, out.base,
                            np.pad(out.mask, ((0, 0), (0, width - nw)))))
            rest = np.flatnonzero(~done)  # by descending size, as peeled
            sets = sets.take(rest[np.argsort(-sets.size[rest], kind="stable")])
            if sets.size.size:
                sets = _children(table, sets, ell)
            ell -= 1
    key, base, mask = map(np.concatenate, zip(*emitted))
    emitted.clear()  # so that it and the sorted copy are not held at once
    # lexsort's last key is its first: the class, then base, then the
    # mask's words from the highest down
    perm = np.lexsort((*mask.T, base, key))
    key, base, mask = key[perm], base[perm], mask[perm]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    labels = [np.empty(0, dtype=label_dtype), *(
        _members(mask[c])[1].astype(label_dtype)
        for c in _chunks(key.size, 64 * width))]
    return (key[first], np.diff(first, append=key.size),
            np.concatenate(labels), base, edges)


def _join(parts: list, span: int) -> tuple:
    """(ells, sizes, counts, labels, rowbase, edges) of the batches'
    (keys, counts, labels, rowbase, edges), each key ell * span + size:
    each class's runs batch after batch, a batch released once copied."""
    keys, counts = (np.concatenate([p[i] for p in parts]) for i in (0, 1))
    sizes = keys % span
    keys, cls = np.unique(keys, return_inverse=True)
    runs = np.argsort(cls, kind="stable")  # by class, then batch
    places = np.empty((cls.size, 2), dtype=np.int64)
    for col, n in enumerate((counts, counts * sizes)):
        places[runs, col] = np.cumsum(n[runs]) - n[runs]
    rowbase = np.empty(int(counts.sum()), dtype=np.int64)
    labels = np.empty(int(counts @ sizes), dtype=parts[0][2].dtype)
    edges, places = sum(p[4] for p in parts), iter(places.tolist())
    for b, (key, count, lb, rb, _) in enumerate(parts):
        parts[b] = None
        for r, l in zip(np.split(rb, np.cumsum(count))[:-1],
                        np.split(lb, np.cumsum(count * (key % span)))[:-1]):
            at, label_at = next(places)
            rowbase[at:at + r.size], labels[label_at:label_at + l.size] = r, l
    total = np.zeros(keys.size, dtype=np.int64)
    np.add.at(total, cls, counts)
    return (*np.divmod(keys, span), total, labels, rowbase, edges)


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
    hold their clique budget are dropped at emission. The degeneracy order
    and oriented_table, which do not depend on k, are built once per g.
    """
    check_shadow_args(k)
    n, m = g.vertex_count, g.edge_count
    order = degeneracy_order(g)
    if n >= k and _saturated(m, n, k):
        # one entry, the whole graph: its rows are g's CSR rows as bits
        # (bit j of row v in word j // 64), about n * n / 64 < m / 16 words
        # because the graph is dense
        ids = np.arange(n, dtype=np.int64)
        bits = np.zeros((n, 64 * -(-n // 64)), dtype=bool)
        bits[ids.repeat(np.diff(g.indptr)), g.indices] = True
        table = np.packbits(bits, axis=1, bitorder="little").view(
            "<u8").astype(np.uint64, copy=False)
        parts = [(np.array([k * (64 * table.shape[1] + 1) + n]),
                  np.array([1]), ids.astype(_label_dtype(n)), np.array([0]),
                  0)]
    else:
        # one row per oriented edge: a root has at most alpha members, and
        # only the rows of roots, of out-degree k - 1 or more, are read
        ids, table = order.out_ids, oriented_table(g, k - 1)
        dtype = _label_dtype(order.alpha)
        none = np.empty(0, dtype=np.int64)
        parts = [(none, none, none.astype(dtype), none, 0), *map_batches(
            lambda group: _build_batch(k, group, order, table, dtype),
            root_batches(order, k))]
    ells, sizes, counts, labels, rowbase, edges = _join(
        parts, 64 * table.shape[1] + 1)
    for a in (ells, sizes, counts, labels, rowbase, table, ids):
        a.flags.writeable = False
    return TuranShadow(k=k, class_ells=ells, class_sizes=sizes,
                       class_counts=counts, labels=labels, rowbase=rowbase,
                       exact_offset=edges, table=table, ids=ids)
