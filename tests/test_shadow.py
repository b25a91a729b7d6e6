import io
import math
import sys
import threading
import time
import tracemalloc
from dataclasses import fields
from functools import lru_cache

import numpy as np
import pytest

from turanshadow import shadow
from turanshadow.graph import (
    degeneracy_order,
    induced_edge_count,
    induced_subgraph,
)
from turanshadow.oracle import exact_kclique_count
from turanshadow.shadow import (
    dump_shadow,
    shadow_finder,
    shadow_stats,
)

from budgets import check_batches, run_bounded, shrink_budgets
from genutil import (
    complete_graph,
    cycle_graph,
    er_graph,
    turan_graph,
    validity_suite,
)
from shadow_reference import reference_shadow


def entry_exact_count(g, entry):
    """Exact ell-clique count inside one entry, via the oracle route."""
    if entry.ell == 1:
        return entry.size
    if entry.ell == 2:
        return induced_edge_count(g, entry.vertices)
    sub, _ = induced_subgraph(g, entry.vertices)
    return exact_kclique_count(sub, entry.ell).count


def shadow_total(g, sh):
    return sum(entry_exact_count(g, e) for e in sh.entries)


def entry_keys(sh):
    return sorted((e.ell, tuple(e.vertices.tolist())) for e in sh.entries)


def test_dense_root_passes_through_unrefined():
    sh = shadow_finder(complete_graph(6), 4)
    assert len(sh.entries) == 1
    e = sh.entries[0]
    assert e.ell == 4
    assert e.vertices.tolist() == [0, 1, 2, 3, 4, 5]
    stats = shadow_stats(sh)
    assert stats["set_count"] == 1
    assert stats["representation_size"] == 6
    assert stats["depth_reached"] == 0


def test_cycle5_triangle_shadow_hand_trace():
    # peeling C_5 = 0-1-2-3-4-0 deletes 0,1,2,3,4 with out-neighborhoods
    # {1,4}, {2}, {3}, {4}, {}; only {1,4} survives the size-2 floor, and
    # 1-4 is not an edge, so the shadow holds zero 2-cliques (= triangles)
    g = cycle_graph(5)
    sh = shadow_finder(g, 3)
    assert entry_keys(sh) == [(2, (1, 4))]
    assert sh.entries[0].edges == 0
    assert shadow_total(g, sh) == 0
    stats = shadow_stats(sh)
    assert stats["set_count"] == 1
    assert stats["representation_size"] == 2
    assert stats["max_set_size"] == 2
    assert stats["ell_histogram"] == {2: 1}
    assert stats["depth_reached"] == 1


def test_er_validity_exact_equality():
    g = er_graph(80, 0.4, seed=42)
    sh = shadow_finder(g, 5)
    assert shadow_total(g, sh) == exact_kclique_count(g, 5).count


def test_validity_on_mixed_suite():
    for g, k in validity_suite():
        sh = shadow_finder(g, k)
        assert shadow_total(g, sh) == exact_kclique_count(g, k).count


def test_every_entry_is_saturated_or_small_ell():
    for g, k in validity_suite():
        sh = shadow_finder(g, k)
        for e in sh.entries:
            if e.ell >= 3:
                edges = induced_edge_count(g, e.vertices)
                s = e.size
                # the clique-existence bound the sampler relies on
                assert 2 * edges * (e.ell - 1) > s * s * (e.ell - 2)
                # which implies the C(s,2)-normalized density threshold
                assert 2 * edges * (e.ell - 1) > s * (s - 1) * (e.ell - 2)


def test_cached_edge_counts_match_recomputation():
    for g, k in validity_suite():
        for e in shadow_finder(g, k).entries:
            assert e.edges == induced_edge_count(g, e.vertices)


def test_refined_entries_bounded_by_degeneracy():
    for g, k in validity_suite():
        alpha = degeneracy_order(g).alpha
        sh = shadow_finder(g, k)
        for e in sh.entries:
            if e.ell < k:  # everything except a passed-through root
                assert e.size <= alpha
        assert len(sh.entries) <= g.vertex_count * max(alpha, 1) ** (k - 2)


def test_ell_range_and_root_uniqueness():
    for g, k in validity_suite():
        sh = shadow_finder(g, k)
        roots = 0
        for e in sh.entries:
            assert 1 <= e.ell <= k
            assert e.size >= e.ell
            if e.ell == k:
                roots += 1
                assert e.size == g.vertex_count
        assert roots <= 1


def test_deterministic_across_runs():
    g = er_graph(50, 0.4, seed=8)
    assert entry_keys(shadow_finder(g, 5)) == entry_keys(shadow_finder(g, 5))


def test_entries_are_sorted_global_ids():
    g = er_graph(60, 0.4, seed=14)
    for e in shadow_finder(g, 6).entries:
        v = e.vertices
        assert np.all(np.diff(v) > 0)
        assert 0 <= int(v[0]) and int(v[-1]) < 60


def test_k_below_three_rejected():
    with pytest.raises(ValueError):
        shadow_finder(complete_graph(5), 2)


def test_k_above_cap_rejected():
    with pytest.raises(ValueError):
        shadow_finder(complete_graph(5), 65)


def test_small_graph_yields_empty_shadow():
    sh = shadow_finder(complete_graph(3), 5)
    assert sh.entries == []
    assert shadow_stats(sh)["set_count"] == 0
    assert sh.max_set_size == 0


def test_representation_size_and_histogram_aggregates():
    g = er_graph(70, 0.4, seed=21)
    sh = shadow_finder(g, 5)
    assert sh.representation_size == sum(e.size for e in sh.entries)
    hist = {}
    for e in sh.entries:
        hist[e.ell] = hist.get(e.ell, 0) + 1
    assert sh.ell_histogram == hist


def test_dump_format_round_trips():
    g = er_graph(40, 0.4, seed=33)
    sh = shadow_finder(g, 4)
    text = dump_shadow(sh)
    lines = text.split("\n") if text else []
    assert len(lines) == len(sh.entries)
    for line, e in zip(lines, sh.entries):
        ell_s, size_s, ids_s = line.split("\t")
        assert int(ell_s) == e.ell
        assert int(size_s) == e.size
        assert [int(x) for x in ids_s.split()] == e.vertices.tolist()
    buf = io.StringIO()
    assert dump_shadow(sh, buf) is None
    assert buf.getvalue() == text + "\n" if text else buf.getvalue() == ""


def test_dump_streams_in_chunks(monkeypatch):
    # a streamed dump holds one chunk of ids at a time, not the shadow's
    # flat ids: those alone would take 8 B per member, several bounds here
    g = er_graph(120, 0.5, seed=1)
    sh = shadow_finder(g, 6)
    chunk = 1024
    monkeypatch.setattr(shadow, "_CHUNK_ELEMS", chunk)
    bound = 128 * chunk + 2**14
    assert 8 * sh.representation_size > 4 * bound

    class Discard:
        def write(self, text):
            pass

    tracemalloc.start()
    try:
        dump_shadow(sh, Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "vertices" not in sh.__dict__
    assert peak < bound
    # every chunking gives the same lines, one per entry, from the ids
    expected = [f"{ell}\t{b - a}\t"
                + " ".join(map(str, sh.vertices[a:b].tolist()))
                for ell, a, b in zip(sh.ells.tolist(), sh.offsets.tolist(),
                                     sh.offsets[1:].tolist())]
    for size in (1, 37, chunk):
        monkeypatch.setattr(shadow, "_CHUNK_ELEMS", size)
        buf = io.StringIO()
        dump_shadow(sh, buf)
        assert buf.getvalue().split("\n") == [*expected, ""]
        assert dump_shadow(sh) == "\n".join(expected)


def test_turan_graph_sits_exactly_on_the_boundary():
    # the balanced complete (k-1)-partite graph meets the extremal edge
    # count without exceeding it, so the root refines instead of passing
    # through, and every resulting entry is clique-free
    g = turan_graph(12, 4)
    sh = shadow_finder(g, 5)
    assert all(e.ell < 5 for e in sh.entries)
    assert shadow_total(g, sh) == 0
    # one extra edge pushes the root strictly past the boundary
    dense = [(i, j) for i in range(12) for j in range(i + 1, 12)
             if i % 4 != j % 4] + [(0, 4)]
    from turanshadow.graph import Graph
    sh2 = shadow_finder(Graph.from_edges(dense, num_vertices=12), 5)
    assert [e.ell for e in sh2.entries] == [5]
    assert sh2.entries[0].size == 12


def reference_cases():
    yield from validity_suite()
    yield complete_graph(6), 4   # saturated root
    yield cycle_graph(5), 3
    yield turan_graph(12, 4), 5  # root exactly on the boundary
    yield complete_graph(3), 5   # n < k
    g = er_graph(160, 0.6, seed=2)  # alpha = 81: rows of two words
    for k in (4, 5, 6):
        yield g, k


@lru_cache(maxsize=None)
def reference_entries():
    return [reference_shadow(g, k) for g, k in reference_cases()]


@pytest.mark.parametrize("budget", [None, "unit", "batch3"],
                         ids=["default", "unit", "batch3"])
def test_builder_matches_recursive_reference(monkeypatch, budget):
    # the level engine must emit exactly the depth-first builder's ordered
    # entries, whatever the root batch and chunk sizes and worker count
    batches = shrink_budgets(monkeypatch, budget)
    widths = []
    class_rows = shadow.class_rows

    def spy(order, table, ids, width):
        widths.append(width)
        return class_rows(order, table, ids, width)

    monkeypatch.setattr(shadow, "class_rows", spy)
    for workers in (1, 3):
        monkeypatch.setattr(shadow, "_workers", lambda: workers)
        for (g, k), expected in zip(reference_cases(), reference_entries()):
            got = [(e.ell, tuple(e.vertices.tolist()), e.edges)
                   for e in shadow_finder(g, k).entries]
            assert got == expected, (g, k, workers)
    assert max(widths) > 64
    check_batches(budget, batches)


SHADOW_FIELDS = ("k", "offsets", "ells", "edges", "alpha", "labels",
                 "rowbase", "table", "ids")


def test_shadow_arrays_do_not_depend_on_batches(monkeypatch):
    # every array, the table's row order and rowbase included, the derived
    # vertices and the dump, is a function of (g, k) alone: batches, chunks
    # and worker threads change how it is built, not what. The expected
    # shadows are built on one thread; the others on two and three
    assert set(SHADOW_FIELDS) == {f.name for f in fields(shadow.TuranShadow)}
    with monkeypatch.context() as mp:
        mp.setattr(shadow, "_workers", lambda: 1)
        expected = [shadow_finder(g, k) for g, k in reference_cases()]
    for budget in (None, "unit", "batch3"):
        with monkeypatch.context() as mp:
            batches = shrink_budgets(mp, budget)
            for workers in (2, 3):
                mp.setattr(shadow, "_workers", lambda: workers)
                for (g, k), want in zip(reference_cases(), expected):
                    got = shadow_finder(g, k)
                    where = (budget, workers, g, k)
                    for f in (*SHADOW_FIELDS, "vertices"):
                        a, b = getattr(got, f), getattr(want, f)
                        assert np.array_equal(a, b), (*where, f)
                        assert np.asarray(a).dtype == np.asarray(b).dtype
                    assert dump_shadow(got) == dump_shadow(want), where
            check_batches(budget, batches)


def test_flat_shadow_invariants():
    for g, k in reference_cases():
        sh = shadow_finder(g, k)
        assert sh.offsets[0] == 0
        assert np.all(np.diff(sh.offsets) >= 0)
        assert sh.offsets[-1] == sh.representation_size == sh.vertices.size
        assert len(sh.entries) == len(sh.ells) == len(sh.edges) \
            == len(sh.offsets) - 1
        assert sh.ells.min(initial=k) >= 2  # ell <= 1 is never emitted
        for i, e in enumerate(sh.entries):
            a, b = sh.offsets[i], sh.offsets[i + 1]
            assert np.array_equal(e.vertices, sh.vertices[a:b])
            assert (e.ell, e.edges) == (sh.ells[i], sh.edges[i])
        assert sh.labels.size == sh.vertices.size
        assert sh.rowbase.size == sh.ells.size
        assert sh.labels.dtype.kind == "u"
        for a in (sh.offsets, sh.vertices, sh.ells, sh.edges, sh.labels,
                  sh.rowbase, sh.table, sh.ids):
            assert not a.flags.writeable


def test_shadow_bytes_match_the_documented_bound():
    # one 1-byte label per member (alpha <= 256 and n <= 256 here), four
    # words per entry (one more for offsets), and a table row of
    # ceil(alpha / 64) words plus an id word per oriented edge, or
    # ceil(n / 64) words plus an id word per vertex for the whole graph
    for g, k in reference_cases():
        sh = shadow_finder(g, k)
        n, m, e = g.vertex_count, g.edge_count, len(sh.ells)
        if n >= k and shadow._saturated(m, n, k):
            rows, words = n, -(-n // 64)
        else:
            rows, words = m, -(-sh.alpha // 64)
        arrays = [getattr(sh, f.name) for f in fields(sh)]
        total = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
        assert sh.labels.itemsize == 1
        assert total == (sh.representation_size + 8 * (e + 1) + 24 * e
                         + 8 * rows * words + 8 * rows), (g, k)


@pytest.mark.parametrize("budget", [None, "batch3"], ids=["default", "batch3"])
def test_table_bits_match_adjacency(monkeypatch, budget):
    # bit labels[b] of table row rowbase[i] + labels[a] is the edge test of
    # members a and b of entry i, and ids[rowbase[i] + labels] are its
    # members, for every entry, ell <= 2 included. er160 has rows of several
    # words: at k = 3 its whole graph saturates. Small root batches put
    # every graph's table rows in several batches. Unless the whole graph
    # saturates, the table has a row per oriented edge and ids is out_ids
    batches = shrink_budgets(monkeypatch, budget)
    wide = er_graph(160, 0.6, seed=2)
    for g, k in [*validity_suite(), (wide, 3), (wide, 4)]:
        sh = shadow_finder(g, k)
        n, m = g.vertex_count, g.edge_count
        whole = n >= k and shadow._saturated(m, n, k)
        order = degeneracy_order(g)
        ids = np.arange(n) if whole else order.out_ids
        assert np.array_equal(sh.ids, ids)
        if whole:
            assert sh.rowbase.tolist() == [0]
        else:
            assert sh.table.shape == (m, max(1, -(-sh.alpha // 64)))
        assert sh.labels.dtype == np.uint8
        for i, e in enumerate(sh.entries):
            base = int(sh.rowbase[i])
            labels = sh.labels[sh.offsets[i]:sh.offsets[i + 1]].tolist()
            verts = e.vertices.tolist()
            assert ids[base + np.array(labels, dtype=int)].tolist() \
                == verts, (g, k, i)
            if not whole:
                # rowbase is out_start of a root that holds every label
                root = np.searchsorted(order.out_start, base, "right") - 1
                assert order.out_start[root] == base
                assert max(labels) < order.core_number[root], (g, k, i)
            bits = 0
            for la, u in zip(labels, verts):
                row = sh.table[base + la]
                for lb, v in zip(labels, verts):
                    bit = int(row[lb // 64]) >> (lb % 64) & 1
                    assert bit == g.has_edge(u, v), (g, k, i)
                    bits += bit
            assert bits == 2 * e.edges
    check_batches(budget, batches)


def expected_table(g, order):
    """Every oriented_table row, bit by bit, from g.has_edge."""
    table = np.zeros((g.edge_count, max(1, -(-order.alpha // 64))),
                     dtype=np.uint64)
    for v in range(g.vertex_count):
        start = int(order.out_start[v])
        out = order.out_ids[start:start + int(order.core_number[v])].tolist()
        for a, u in enumerate(out):
            for b, w in enumerate(out):
                if g.has_edge(u, w):
                    table[start + a, b // 64] |= np.uint64(1 << (b % 64))
    return table


def whole_graph(g, k):
    n = g.vertex_count
    return n >= k and shadow._saturated(g.edge_count, n, k)


def test_whole_table_matches_adjacency():
    # every row, those of vertices with out-degree below k - 1 included:
    # the table depends on the order alone
    tables = {}  # by graph, which it holds so that no id is reused
    for g, k in reference_cases():
        if whole_graph(g, k):
            continue
        if id(g) not in tables:
            tables[id(g)] = g, expected_table(g, degeneracy_order(g))
        assert np.array_equal(shadow_finder(g, k).table, tables[id(g)][1]), \
            (g, k)


def test_table_does_not_depend_on_k():
    graphs = {id(g): g for g, _ in reference_cases()}
    for g in graphs.values():
        tables = [shadow_finder(g, k).table for k in (4, 7)
                  if not whole_graph(g, k)]
        if len(tables) == 2:
            assert np.array_equal(*tables), g


def test_entries_view_indexing():
    sh = shadow_finder(er_graph(40, 0.4, seed=33), 4)
    n = len(sh.entries)
    assert n > 1
    assert sh.entries[-1] == sh.entries[n - 1]
    assert sh.entries[0] != sh.entries[1]
    assert list(sh.entries) == sh.entries
    with pytest.raises(IndexError):
        sh.entries[n]
    # slices give lists of entries, as list slicing does
    assert sh.entries[1:3] == [sh.entries[1], sh.entries[2]]
    assert isinstance(sh.entries[1:3], list)
    assert sh.entries[::-1] == list(sh.entries)[::-1]
    assert sh.entries[n:] == []


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_map_batches_returns_results_in_batch_order(monkeypatch, workers):
    # later batches finish first, yet results keep the batches' order
    monkeypatch.setattr(shadow, "_workers", lambda: workers)

    def fn(batch):
        time.sleep(0.002 * (10 - batch))
        return batch * batch

    got = run_bounded(lambda: shadow.map_batches(fn, iter(range(10))))
    assert got == [b * b for b in range(10)]
    assert run_bounded(lambda: shadow.map_batches(fn, iter([]))) == []


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_map_batches_stops_at_the_first_error(monkeypatch, workers):
    # batches take 50 ms, so the workers take them in rounds of `workers`;
    # batch i, the first of the third round, fails after 25 ms, while the
    # other workers still hold the rest of its round: they finish those and
    # no batch starts afterwards
    monkeypatch.setattr(shadow, "_workers", lambda: workers)
    i = 2 * workers
    started, lock = [], threading.Lock()

    def fn(batch):
        with lock:
            started.append(batch)
        time.sleep(0.025 if batch == i else 0.05)
        if batch == i:
            raise ValueError(f"batch {batch}")
        return batch

    with pytest.raises(ValueError, match=f"batch {i}$"):
        run_bounded(lambda: shadow.map_batches(fn, iter(range(20))))
    assert sorted(started) == list(range(i + workers))


def test_map_batches_reraises_the_earliest_error(monkeypatch):
    # three batches fail, at 10, 50 and 30 ms: the first to fail wins
    monkeypatch.setattr(shadow, "_workers", lambda: 3)

    def fn(batch):
        time.sleep((0.01, 0.05, 0.03)[batch])
        raise ValueError(f"batch {batch}")

    with pytest.raises(ValueError, match="batch 0"):
        run_bounded(lambda: shadow.map_batches(fn, iter(range(3))))


def test_map_batches_reraises_an_error_of_the_iterator(monkeypatch):
    monkeypatch.setattr(shadow, "_workers", lambda: 3)

    def batches():
        yield from range(5)
        raise KeyError("made no batch")

    with pytest.raises(KeyError, match="made no batch"):
        run_bounded(lambda: shadow.map_batches(lambda b: b, batches()))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_map_batches_pulls_batches_lazily(monkeypatch, workers):
    # a batch is taken only when a worker is free: at every pull, at most
    # `workers` batches are out and unfinished, this one included
    monkeypatch.setattr(shadow, "_workers", lambda: workers)
    finished, ahead, lock = [], [], threading.Lock()

    def batches():
        for batch in range(30):
            with lock:
                ahead.append(batch + 1 - len(finished))
            yield batch

    def fn(batch):
        time.sleep(0.001 * (batch % 4))
        with lock:
            finished.append(batch)
        return batch

    assert run_bounded(lambda: shadow.map_batches(fn, batches())) \
        == list(range(30))
    assert max(ahead) <= workers
    if workers > 1:
        assert max(ahead) > 1  # the workers did overlap


def test_map_batches_under_fast_thread_switching(monkeypatch):
    # more workers than CPUs and a switch every microsecond, also while a
    # batch is being made: every batch is made once, by one thread at a
    # time, and its result lands in its own slot
    monkeypatch.setattr(shadow, "_workers", lambda: 8)
    pulled = []

    def batches():
        for batch in range(5000):
            pulled.append(batch)
            yield [batch for _ in range(batch % 9)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = run_bounded(lambda: shadow.map_batches(len, batches()))
    finally:
        sys.setswitchinterval(interval)
    assert pulled == list(range(5000))
    assert got == [b % 9 for b in range(5000)]
