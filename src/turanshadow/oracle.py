"""Exact k-clique counting.

The count needs only an orientation: an order in which each vertex has at
most alpha later neighbours (its out-degree). Every k-clique has one member
that comes first, so the count is the sum, over the roots (the vertices
with at least k - 1 out-neighbours), of the (k-1)-cliques inside each
root's out-neighbourhood, and each clique is found once. The order is
graph.degeneracy_order, the one the shadow builder uses: each round removes
every live vertex of remaining degree at most d, d rises only when none is
left, and a round is a few numpy calls over the neighbours of the last
round's removals. So it costs O(n + m) plus a fixed cost per round, and the
number of rounds is the depth of the peel, at worst about n / 2 (a
100,000-vertex path takes 50,000 rounds).

The counter reads the builder's table and root batches. Before any batch
it builds shadow.oriented_table, whose row out_start[v] + a holds the
adjacency of out-neighbour a of v among v's out-neighbours, for every
vertex; it holds those m * ceil(alpha / 64) words for the whole count, and
each batch gathers its roots' uint64 member rows from them by width class.
A batch is id-ordered and cut by member pairs: the sum of W * W over its
roots, W being a root's width class, stays within 2 * _CHUNK_ELEMS unless
it holds one root, so its member rows take at most 2 * _CHUNK_ELEMS / 8
words. The counter keeps in each row only the higher-indexed members, so a
clique is found once, from its lowest member. It then runs level by level
over (root, member mask) sets: a set that needs `need` more vertices is
replaced by one child per member u, the mask restricted to u's row, and
children too small to hold need - 1 are dropped. A set that induces a
clique adds C(size, need) at once, in Python ints; at need = 2 the edges
inside each mask are counted with np.bitwise_count and no pair is
enumerated. Sets wait on a stack of chunks of about _CHUNK_ELEMS elements
and the deepest level is expanded first, so a batch needs O(k * chunk)
memory on any graph.

The table's chunks and then the batches are run by shadow.map_batches,
the builder's batch runner, on one thread per CPU the process may run on;
numpy releases the interpreter lock in the searchsorted lookups, gathers
and popcounts where they spend their time, and the sum of the batches'
Python-int counts is the same at any number of threads. A thread takes a
chunk or batch only when it is free, so each holds one: a table chunk, or
a batch's member rows and its O(k * chunk) stack. The soft time budget is
checked before every table chunk and every stack chunk; the first error
raised, such as TimeBudgetExceeded, is re-raised, and nothing starts after
it.

A brute-force enumerator over all k-subsets is kept as an independent
second oracle for testing the tester.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import shadow
from .graph import (
    DegeneracyOrder,
    Graph,
    degeneracy_order,
    induced_adjacency_matrix,
)
from .shadow import _pack, _unpack

UINT64_MAX = 2**64 - 1

NAIVE_GUARD = 100_000_000


class CountOverflowError(OverflowError):
    """Clique count exceeds the unsigned 64-bit range."""


class TimeBudgetExceeded(RuntimeError):
    """Exact counting gave up after the configured soft time budget."""


@dataclass(frozen=True)
class ExactCount:
    k: int
    count: int
    elapsed: float


def _check_uint64(count: int) -> int:
    if count > UINT64_MAX:
        raise CountOverflowError(f"clique count {count} exceeds 64-bit range")
    return count


def _count_class(rows: np.ndarray, masks: np.ndarray, k: int,
                 check_time) -> int:
    """(k-1)-cliques inside the member masks of one width class of roots.

    rows are the (R, W, nw) class_rows of the roots and masks their (R, nw)
    member masks. Frontier items are (root, mask, need) sets, kept as a
    stack of chunks and expanded deepest level first; check_time() runs
    before every chunk.
    """
    _, width, nw = rows.shape
    # member a keeps only members b > a, so each clique is found once, from
    # its lowest member
    rows = rows & _pack(np.triu(np.ones((width, width), dtype=bool), 1), nw)
    step = max(1, shadow._CHUNK_ELEMS // (width * nw))
    stack = [(k - 1, np.arange(masks.shape[0]), masks)]
    total = 0
    while stack:
        check_time()
        need, root, mask = stack.pop()
        if root.size > step:
            stack.append((need, root[step:], mask[step:]))
            root, mask = root[:step], mask[:step]
        # 1-D flatnonzero: 2-D nonzero is several times slower
        item, member = np.divmod(np.flatnonzero(_unpack(mask, width)), width)
        child = rows[root[item], member] & mask[item]
        csize = np.bitwise_count(child).sum(axis=1, dtype=np.int64)
        if need == 2:
            total += int(csize.sum())
            continue
        size = np.bitwise_count(mask).sum(axis=1, dtype=np.int64)
        # every mask is nonempty, so its members start at these offsets
        edges = np.add.reduceat(csize, np.cumsum(size) - size)
        clique = 2 * edges == size * (size - 1)
        sizes, counts = np.unique(size[clique], return_counts=True)
        total += sum(math.comb(s, need) * c
                     for s, c in zip(sizes.tolist(), counts.tolist()))
        keep = (csize >= need - 1) & ~clique[item]
        if keep.any():
            stack.append((need - 1, root[item[keep]], child[keep]))
    return total


def _count_batch(order: DegeneracyOrder, table: np.ndarray, group: list,
                 k: int, check_time) -> int:
    """(k-1)-cliques below the roots of one batch of root_batches."""
    check_time()
    count = 0
    for ids, width in group:
        rows, masks = shadow.class_rows(order, table, ids, width)
        count += _count_class(rows, masks, k, check_time)
    return count


def check_exact_args(k: int, time_budget: float | None = None) -> None:
    """The checks of exact_kclique_count that need no graph."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if time_budget is not None and not time_budget >= 0.0:
        raise ValueError("time_budget must be >= 0 seconds")


def exact_kclique_count(g: Graph, k: int,
                        time_budget: float | None = None) -> ExactCount:
    """Exact number of k-cliques of g.

    k=1 and k=2 are the vertex and edge counts. For k >= 3 the count is the
    sum, over the roots of degeneracy_order, of the (k-1)-cliques inside
    each root's out-neighbourhood, counted batch by batch on the threads of
    shadow.map_batches from the graph's shadow.oriented_table.
    Raises CountOverflowError if the result does not fit in 64 bits, and
    TimeBudgetExceeded if a soft `time_budget` (seconds, at least 0) runs
    out mid-count.
    """
    check_exact_args(k, time_budget)
    start = time.perf_counter()

    def check_time():
        if (time_budget is not None
                and time.perf_counter() - start > time_budget):
            raise TimeBudgetExceeded(
                f"exact count exceeded {time_budget}s time budget")

    if k == 1:
        count = g.vertex_count
    elif k == 2:
        count = g.edge_count
    else:
        order, count = degeneracy_order(g), 0
        if order.alpha >= k - 1:  # else no vertex is a root
            table = shadow.oriented_table(g, order, check_time)
            count = sum(shadow.map_batches(
                lambda group: _count_batch(order, table, group, k,
                                           check_time),
                shadow.root_batches(order, k)))
    _check_uint64(count)
    return ExactCount(k, count, time.perf_counter() - start)


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
