"""Exact k-clique counting.

The count needs only an orientation: an order in which each vertex has at
most alpha later neighbours (its out-degree). Every k-clique has one member
that comes first, so the count is the sum, over the roots (the vertices
with at least k - 1 out-neighbours), of the (k-1)-cliques inside each
root's out-neighbourhood, and each clique is found once. The order is
graph.degeneracy_order, the one the shadow builder uses and g keeps; a
peel costs O(n + m) plus a fixed cost for each of its rounds, at worst
about n / 2 of them (a 100,000-vertex path takes 50,000 rounds).

The counter reads the builder's table and root batches. Before any batch
it reads shadow.oriented_table at the floor k - 1 (m * ceil(alpha / 64)
words, which g keeps once built, with the rows of the roots at k filled),
and, as the builder does, reads member a of a set under root v in place
as row out_start[v] + a (shadow.member_rows), a root of out-degree d
being a mask of nw = ceil(d / 64) words. Rows point downward:
member u keeps only the members below it, so a clique is found once, from
its highest member, and a set's lowest member, which keeps none, is never
expanded. The counter runs level by level over (row base, member mask)
sets: a set that needs `need` more vertices is replaced by one child per
member u, the mask restricted to u's row, and children too small to hold
need - 1 are dropped. A set that induces a clique adds C(size, need) at
once, in Python ints; at need = 2 the children's uint8 np.bitwise_count,
the edges inside each mask, is summed once in int64. One loop serves every
word class at about the cost of 1-D arrays for one word: the lowest member
is dropped by mask & (mask - 1) on nw-word integers, whose borrow runs
through the low zero words (a cumprod, when nw > 1); rows and masks are
gathered by np.take, and children kept by index, as a boolean mask selects
several times more slowly. Sets wait on a stack of chunks of about
_CHUNK_ELEMS member slots, the deepest level expanded first: on any graph
a batch holds nw + 2 words a root, at most k - 3 stacked levels of
2 * _CHUNK_ELEMS words and 16 * _CHUNK_ELEMS while expanding.

The table's chunks and then the batches are run by shadow.map_batches,
the builder's batch runner, on one thread per CPU the process may run on;
numpy releases the interpreter lock in the table's wedge searches, the
gathers and popcounts where they spend their time, and the sum of the
batches' Python-int counts is the same at any number of threads. A thread
takes a chunk or batch only when it is free, so each holds one: a table
chunk, or a batch, within the bound above. The soft time budget is
checked before every table chunk and every stack chunk; the first error
raised, such as TimeBudgetExceeded, is re-raised, and nothing starts
after it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import shadow
from .graph import DegeneracyOrder, Graph, degeneracy_order

UINT64_MAX = 2**64 - 1


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


def _count_class(table: np.ndarray, base: np.ndarray, mask: np.ndarray,
                 k: int, check_time) -> int:
    """(k-1)-cliques in the masks of one word class of roots, base[i] the
    row of root i's member 0; check_time() runs before every stack chunk."""
    nw = mask.shape[1]
    step = max(1, shadow._CHUNK_ELEMS // (64 * nw * nw))
    stack = [(k - 1, base, mask)]
    total = 0
    while stack:
        check_time()
        need, base, mask = stack.pop()
        if base.size > step:
            stack.append((need, base[step:], mask[step:]))
            base, mask = base[:step], mask[:step]
        # the lowest member keeps none: mask & (mask - 1), nw-word integers
        low = mask - 1
        if nw > 1:
            low[:, 1:] = mask[:, 1:] - np.cumprod(mask[:, :-1] == 0, axis=1,
                                                  dtype=np.uint64)
        low &= mask
        item, member = shadow._members(low)
        child = shadow.member_rows(table, np.take(base, item) + member, nw)
        child &= np.take(mask, item, axis=0)
        child &= shadow._low_bits(member, nw)
        if need == 2:  # each edge below a member, once
            total += int(np.bitwise_count(child).sum(dtype=np.int64))
            continue
        csize = shadow.popcount(child)
        size = shadow.popcount(mask)
        # every mask has two members or more: one expanded at least
        edges = np.add.reduceat(csize, np.cumsum(size - 1) - (size - 1))
        clique = 2 * edges == size * (size - 1)
        counts = np.bincount(size[clique]).tolist()
        total += sum(math.comb(s, need) * c for s, c in enumerate(counts))
        keep = np.flatnonzero((csize >= need - 1) & ~clique[item])
        if keep.size:
            stack.append((need - 1, np.take(base, np.take(item, keep)),
                          np.take(child, keep, axis=0)))
    return total


def _count_batch(order: DegeneracyOrder, table: np.ndarray, group: list,
                 k: int, check_time) -> int:
    """(k-1)-cliques below the roots of one batch of root_batches."""
    check_time()
    count = 0
    for ids, nw in group:
        # by out-degree, so that a chunk's masks span few bits
        ids = ids[np.argsort(order.out_degree[ids], kind="stable")]
        count += _count_class(table, order.out_start[ids],
                              shadow._low_bits(order.out_degree[ids], nw),
                              k, check_time)
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
            table = shadow.oriented_table(g, k - 1, check_time)
            count = sum(shadow.map_batches(
                lambda group: _count_batch(order, table, group, k,
                                           check_time),
                shadow.root_batches(order, k)))
    _check_uint64(count)
    return ExactCount(k, count, time.perf_counter() - start)
