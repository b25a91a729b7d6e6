import math
import time
from functools import lru_cache

import numpy as np
import pytest

from turanshadow import oracle, shadow
from turanshadow.graph import Graph, degeneracy_order
from turanshadow.oracle import (
    CountOverflowError,
    TimeBudgetExceeded,
    _check_uint64,
    exact_kclique_count,
    naive_kclique_count,
)

from budgets import check_batches, shrink_budgets
from genutil import (
    complete_graph,
    cycle_graph,
    er_graph,
    turan_graph,
)
from oracle_reference import reference_count


def test_complete_graph_binomial():
    assert exact_kclique_count(complete_graph(10), 5).count == 252


def test_complete_identity_various():
    for n in (2, 7, 13, 25):
        g = complete_graph(n)
        for k in range(1, n + 1):
            assert exact_kclique_count(g, k).count == math.comb(n, k)


def test_turan_graph_is_clique_free_at_the_boundary():
    # complete 4-partite graph holds no 5-clique
    assert exact_kclique_count(turan_graph(20, 4), 5).count == 0


def test_k1_and_k2_are_vertex_and_edge_counts():
    g = er_graph(30, 0.3, seed=1)
    assert exact_kclique_count(g, 1).count == 30
    assert exact_kclique_count(g, 2).count == g.edge_count


def test_k_below_one_rejected():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        exact_kclique_count(g, 0)
    with pytest.raises(ValueError):
        naive_kclique_count(g, 0)


def test_naive_small_cases():
    triangle = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
    assert naive_kclique_count(triangle, 3).count == 1
    empty = Graph.from_edges([], num_vertices=0)
    assert naive_kclique_count(empty, 4).count == 0
    assert naive_kclique_count(cycle_graph(5), 3).count == 0


def test_naive_guard_refuses_huge_enumerations():
    with pytest.raises(ValueError, match="refusing"):
        naive_kclique_count(complete_graph(60), 30)


def test_exact_matches_naive_on_random_graphs():
    rng = np.random.default_rng(77)
    for _ in range(12):
        n = int(rng.integers(10, 61))
        p = float(rng.choice([0.1, 0.3, 0.5]))
        k = int(rng.integers(3, 7))
        if math.comb(n, k) > 600_000:
            k = 3
        g = er_graph(n, p, seed=int(rng.integers(2**31)))
        assert exact_kclique_count(g, k).count == naive_kclique_count(g, k).count


def test_er60_half_k4_matches_naive():
    g = er_graph(60, 0.5, seed=12)
    assert exact_kclique_count(g, 4).count == naive_kclique_count(g, 4).count


def test_adding_edges_never_decreases_counts():
    rng = np.random.default_rng(3)
    g = er_graph(25, 0.3, seed=6)
    base = exact_kclique_count(g, 4).count
    edges = {(min(u, v), max(u, v))
             for v in range(25) for u in g.neighbors(v).tolist()}
    for _ in range(5):
        u, v = sorted(rng.choice(25, size=2, replace=False).tolist())
        edges.add((u, v))
        g = Graph.from_edges(sorted(edges), num_vertices=25)
        count = exact_kclique_count(g, 4).count
        assert count >= base
        base = count


def test_overflow_is_reported_not_wrapped():
    _check_uint64(2**64 - 1)
    with pytest.raises(CountOverflowError):
        _check_uint64(2**64)


def test_overflow_through_the_counter():
    # C(70, 35) = 112186277816662845432 > 2^64: roots of two-word rows and
    # the clique shortcut must carry it in Python ints, then refuse it
    g = complete_graph(70)
    with pytest.raises(CountOverflowError):
        exact_kclique_count(g, 35)
    assert exact_kclique_count(g, 10).count == math.comb(70, 10)


def reference_cases():
    """(graph, ks, unit): unit says whether the one-element budgets run."""
    # alpha = 81: rows of two words; its deep levels hold millions of sets,
    # too many to take one at a time
    g = er_graph(160, 0.6, seed=2)
    yield g, (3, 4), True
    yield g, (5, 6, 7), False
    yield turan_graph(24, 5), range(3, 8), True
    yield complete_graph(30), range(3, 8), True
    yield complete_graph(4), range(3, 8), True  # n < k from k = 5


@lru_cache(maxsize=None)
def reference_counts():
    return [[reference_count(g, k) for k in ks]
            for g, ks, _ in reference_cases()]


@pytest.mark.parametrize("budget", [None, "unit", "batch3"],
                         ids=["default", "unit", "batch3"])
def test_exact_matches_set_reference(monkeypatch, budget):
    # the level engine must count exactly what the set recursion counts,
    # whatever the root batch, chunk and lookup sizes and worker count
    batches = shrink_budgets(monkeypatch, budget)
    widths = []
    class_rows = shadow.class_rows

    def spy(order, table, ids, width):
        widths.append(width)
        return class_rows(order, table, ids, width)

    monkeypatch.setattr(shadow, "class_rows", spy)
    for workers in (1, 3):
        monkeypatch.setattr(shadow, "_workers", lambda: workers)
        for (g, ks, unit), expected in zip(reference_cases(),
                                           reference_counts()):
            if budget is not None and not unit:
                continue
            got = [exact_kclique_count(g, k).count for k in ks]
            assert got == expected, (g, list(ks), workers)
    assert max(widths) > 64
    check_batches(budget, batches)


def test_time_budget_stops_batches_mid_count(monkeypatch):
    # one root per batch, a count of tens of seconds and a budget of 0.2 s:
    # batches are submitted one per free worker, so most never start
    shrink_budgets(monkeypatch, "unit")
    g, k = er_graph(160, 0.6, seed=2), 6
    roots = int(np.count_nonzero(degeneracy_order(g).core_number >= k - 1))
    started = []
    count_batch = oracle._count_batch

    def spy(*args):
        started.append(None)
        return count_batch(*args)

    monkeypatch.setattr(oracle, "_count_batch", spy)
    with pytest.raises(TimeBudgetExceeded):
        exact_kclique_count(g, k, time_budget=0.2)
    assert 0 < len(started) < roots


def test_time_budget_stops_the_table_build(monkeypatch):
    # one vertex per chunk of the member-pair table, each 10 ms: a 50 ms
    # budget runs out after a few of er160's 160 chunks, before any batch
    shrink_budgets(monkeypatch, "unit")
    g = er_graph(160, 0.6, seed=2)
    chunks, batches = [], []
    lookup = shadow.has_edge_keys

    def slow_lookup(*args):
        chunks.append(None)
        time.sleep(0.01)
        return lookup(*args)

    monkeypatch.setattr(shadow, "has_edge_keys", slow_lookup)
    monkeypatch.setattr(oracle, "_count_batch",
                        lambda *args: batches.append(None))
    with pytest.raises(TimeBudgetExceeded):
        exact_kclique_count(g, 6, time_budget=0.05)
    assert 0 < len(chunks) < g.vertex_count // 2
    assert not batches


def test_time_budget_refusal():
    g = er_graph(100, 0.5, seed=4)
    with pytest.raises(TimeBudgetExceeded):
        exact_kclique_count(g, 8, time_budget=0.0)


@pytest.mark.parametrize("budget", [math.nan, -1.0, -math.inf])
def test_time_budget_must_be_a_nonnegative_number(monkeypatch, budget):
    # refused before the graph is ordered, at every k, k <= 2 included
    def unreachable(*args):
        raise AssertionError("counted before the budget was checked")

    monkeypatch.setattr(oracle, "degeneracy_order", unreachable)
    for k in (1, 2, 3, 5):
        with pytest.raises(ValueError, match="time_budget"):
            exact_kclique_count(complete_graph(8), k, time_budget=budget)


def test_elapsed_recorded():
    res = exact_kclique_count(complete_graph(8), 3)
    assert res.elapsed >= 0.0
    assert res.k == 3
