import hashlib
import itertools
import os
import sys
import threading
import time
import tracemalloc
from collections import Counter
from dataclasses import fields
from functools import lru_cache

import numpy as np
import pytest

from turanshadow import shadow
from turanshadow.estimator import turan_shadow_count
from turanshadow.graph import Graph, degeneracy_order
from turanshadow.oracle import exact_kclique_count
from turanshadow.shadow import shadow_finder

from budgets import (
    check_batches,
    run_bounded,
    shrink_budgets,
    spy_builds,
)
from genutil import (
    complete_graph,
    cycle_complement,
    cycle_graph,
    entry_offsets,
    er_graph,
    has_edge,
    induced_adjacency_matrix,
    induced_edge_count,
    induced_subgraph,
    out_neighbors,
    path_graph,
    planted_small,
    shadow_vertices,
    turan_graph,
    validity_suite,
)
from oracle_reference import reference_count
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
    assert len(sh.rowbase) == 1
    assert sh.representation_size == 6
    assert sh.class_ells.tolist() == [sh.k]  # no refinement


def test_cycle5_triangle_shadow_hand_trace():
    # peeling C_5 = 0-1-2-3-4-0 deletes 0,1,2,3,4 with out-neighborhoods
    # {1,4}, {2}, {3}, {4}, {}; only {1,4} survives the size-2 floor, and
    # 1-4 is not an edge, so the shadow holds zero 2-cliques (= triangles)
    g = cycle_graph(5)
    sh = shadow_finder(g, 3)
    assert entry_keys(sh) == [(2, (1, 4))]
    assert induced_edge_count(g, sh.entries[0].vertices) == 0
    assert sh.exact_offset == 0
    assert shadow_total(g, sh) == 0
    assert len(sh.rowbase) == 1
    assert sh.representation_size == 2
    assert sh.max_set_size == 2
    assert sh.ell_histogram == {2: 1}
    assert sh.k - int(sh.class_ells.min()) == 1  # refined once


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
    assert list(sh.entries) == []
    assert len(sh.rowbase) == sh.class_ells.size == 0
    assert sh.max_set_size == 0
    assert sh.ell_histogram == {}


def test_representation_size_and_histogram_aggregates():
    g = er_graph(70, 0.4, seed=21)
    sh = shadow_finder(g, 5)
    assert sh.representation_size == sum(e.size for e in sh.entries)
    hist = {}
    for e in sh.entries:
        hist[e.ell] = hist.get(e.ell, 0) + 1
    assert sh.ell_histogram == hist


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


@lru_cache(maxsize=None)
def induced_edges():
    """induced_edge_count of each reference entry, case by case: the
    builder's entries have the same vertices, so these are theirs too."""
    cases = zip(reference_cases(), reference_entries())
    return [[induced_edge_count(g, np.array(v)) for _, v, _ in expected]
            for (g, _), expected in cases]


@pytest.mark.parametrize("budget", [None, "unit", "batch3"],
                         ids=["default", "unit", "batch3"])
def test_builder_matches_recursive_reference(monkeypatch, budget):
    # the level engine must emit exactly the recursive builder's entries,
    # in the canonical class-major (ell, size, root, member mask) order,
    # whatever the root batch and chunk sizes and worker count. The
    # reference's edge counts are each entry's induced_edge_count, and the
    # shadow's exact_offset is their sum over the ell = 2 entries
    batches = shrink_budgets(monkeypatch, budget)
    words = []
    children = shadow._children

    def spy(table, sets, ell):
        words.append(sets.mask.shape[1])
        return children(table, sets, ell)

    monkeypatch.setattr(shadow, "_children", spy)
    for workers in (1, 3):
        monkeypatch.setattr(shadow, "_workers", lambda: workers)
        for (g, k), expected, edges in zip(
                reference_cases(), reference_entries(), induced_edges()):
            sh = shadow_finder(g, k)
            got = [(e.ell, tuple(e.vertices.tolist())) for e in sh.entries]
            assert got == [(ell, v) for ell, v, _ in expected], (g, k, workers)
            assert [e for *_, e in expected] == edges, (g, k)
            ell2 = sum(e for (ell, *_), e in zip(expected, edges) if ell == 2)
            assert sh.exact_offset == ell2, (g, k, workers)
    assert max(words) == 2  # er160's roots of out-degree above 64
    check_batches(budget, batches)


def test_one_children_call_per_level_and_word_class(monkeypatch):
    # alpha = 49 <= 64: every root, of out-degree 5 to 49, is of one word
    # class, so each level of a batch makes one _children call; er160
    # (alpha = 81) still peels its roots of out-degree above 64 on rows
    # of two words, one call per word class and level. Roots are at
    # budget k - 1, so a set at budget ell is at level k - 1 - ell
    monkeypatch.setattr(shadow, "_workers", lambda: 1)
    monkeypatch.setattr(shadow, "_CHUNK_ELEMS", 4096)  # several batches
    calls = []
    build, children = shadow._build_batch, shadow._children

    def build_spy(*args):
        calls.append([])
        return build(*args)

    def children_spy(table, sets, ell):
        calls[-1].append((k - 1 - ell, sets.mask.shape[1]))
        return children(table, sets, ell)

    monkeypatch.setattr(shadow, "_build_batch", build_spy)
    monkeypatch.setattr(shadow, "_children", children_spy)
    g = er_graph(120, 0.5, seed=1)
    out_deg = degeneracy_order(g).out_degree
    assert out_deg.max() == 49
    assert out_deg[(out_deg >= 5) & (out_deg <= 8)].size > 1
    k = 6
    shadow_finder(g, k)
    assert len(calls) > 2
    for batch in calls:
        assert batch == [(level, 1) for level in range(len(batch))]
    calls.clear()
    k = 5
    shadow_finder(er_graph(160, 0.6, seed=2), k)
    for batch in calls:
        assert len(batch) == len(set(batch))
        assert {nw for _, nw in batch} <= {1, 2}
    assert any(nw == 2 for batch in calls for _, nw in batch)


def test_builder_batch_peaks_within_the_documented_bound(monkeypatch):
    # the TuranShadow docstring's bound on a batch: twice its entries plus
    # its largest frontier and children, at nw + 3 words a set (a frontier
    # set holds base, size and one level's edge count beside its mask, an
    # emitted set base and class key beside its padded mask), two bytes a
    # label and 16 chunks of words. Traced: the batch of each graph's
    # widest root, alone in its batch at this small chunk; the sets' words
    # outweigh the chunks' at er160, k = 6. At er200, k = 7, a peel chunk
    # holds one set, so the peel's parts are many and must be joined as
    # they come
    chunk = 256
    monkeypatch.setattr(shadow, "_CHUNK_ELEMS", chunk)
    frontier = [0]
    children = shadow._children

    def spy(table, sets, ell):
        out = children(table, sets, ell)
        frontier[0] = max(frontier[0], sets.size.size + out.size.size)
        return out

    monkeypatch.setattr(shadow, "_children", spy)
    set_words = []
    for g, k in [(er_graph(160, 0.6, seed=2), 6),  # two-word rows
                 (er_graph(120, 0.5, seed=1), 7),
                 (er_graph(200, 0.4, seed=1), 7)]:  # two-word rows
        order = degeneracy_order(g)
        table = shadow.oriented_table(g)
        group = max(shadow.root_batches(order, k), key=lambda group: max(
            order.out_degree[ids].max() for ids, _ in group))
        frontier[0] = 0
        tracemalloc.start()
        try:
            *_, labels, rowbase, _ = shadow._build_batch(k, group, order,
                                                         table, np.uint8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        set_words.append(2 * (frontier[0] + rowbase.size)
                         * (table.shape[1] + 3))
        assert peak <= 8 * (set_words[-1] + 16 * chunk) + 2 * labels.size
    assert set_words[0] > 2 * 16 * chunk


SHADOW_FIELDS = ("k", "class_ells", "class_sizes", "class_counts", "labels",
                 "rowbase", "exact_offset", "table", "ids")


ENTRY_FIELDS = ("class_ells", "class_sizes", "class_counts", "labels",
                "rowbase", "exact_offset")


def shadow_digest(g, ks, names=ENTRY_FIELDS):
    """sha256 over the named fields of g's shadow at each k in ks, each
    as an array with its dtype and shape: any change to the entries, their
    order or their dtypes changes it."""
    digest = hashlib.sha256()
    for k in ks:
        sh = shadow_finder(g, k)
        for name in names:
            a = np.asarray(getattr(sh, name))
            digest.update(f"{k} {name} {a.dtype.str} {a.shape}".encode())
            digest.update(a.tobytes())
    return digest.hexdigest()


def test_shadow_arrays_digest_is_pinned():
    # planted-small at k = 5..7, whose table rows are one word
    assert shadow_digest(planted_small(), (5, 6, 7)) == (
        "1fa5d7db84b83d7b7fae1617c1ec5623c0a6266e811c94a14c29bed0398bd2db")


def test_shadow_arrays_digest_is_pinned_on_wide_and_whole_tables():
    # er(160, 0.6, 2) has alpha = 81, so its table rows are two words; the
    # saturated K_65 is one entry over its own 65 x 2-word packed table
    # and ids = arange(65), which are pinned too
    wide = er_graph(160, 0.6, seed=2)
    assert shadow_finder(wide, 5).table.shape[1] == 2
    assert shadow_digest(wide, (5, 6)) == (
        "05e39aa966d81e8ae84954cb8b7c3c66385adf4ddf780fa14c859ef46427003a")
    whole = complete_graph(65)
    assert shadow_finder(whole, 8).table.shape == (65, 2)
    assert shadow_digest(whole, (8,), (*ENTRY_FIELDS, "table", "ids")) == (
        "4dd35bb1e0fb3721288c1745be17138b160aa83bc235a67e43c98c34a8c010ea")


def test_shadow_arrays_do_not_depend_on_batches(monkeypatch):
    # every array, the table's row order and rowbase included, and the
    # derived vertices, is a function of (g, k) alone, dtypes included:
    # batches, chunks and worker threads change how it is built, not what.
    # The expected shadows are built on one thread; the others on two and
    # three
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
                        a, b = (shadow_vertices(x) if f == "vertices"
                                else getattr(x, f) for x in (got, want))
                        assert np.array_equal(a, b), (*where, f)
                        assert np.asarray(a).dtype == np.asarray(b).dtype
            check_batches(budget, batches)


def test_entries_ascend_by_root_ell_and_mask():
    # the canonical class-major order, read off the flat arrays: classes
    # strictly ascend by (ell, size), and within a class (rowbase, member
    # mask as one integer) never decreases from one entry to the next. It
    # is equal only for an entry repeated in the multiset (one set reached
    # twice under one root)
    planted = planted_small()
    big = [*((planted, k) for k in (5, 6, 7)),
           (er_graph(160, 0.6, seed=2), 5)]  # two-word masks
    for g, k in big:
        assert len(shadow_finder(g, k).entries) > 100, (g, k)
    for g, k in [*reference_cases(), *big]:
        sh = shadow_finder(g, k)
        classes = list(zip(sh.class_ells.tolist(), sh.class_sizes.tolist()))
        assert all(a < b for a, b in zip(classes, classes[1:])), (g, k)
        offsets = entry_offsets(sh)
        first, counts = sh.class_first.tolist(), sh.class_counts.tolist()
        for c, (lo, n) in enumerate(zip(first, counts)):
            keys = [(int(sh.rowbase[i]), sum(
                1 << a for a in sh.labels[offsets[i]:offsets[i + 1]].tolist()))
                for i in range(lo, lo + n)]
            assert keys == sorted(keys), (g, k, c)


def test_flat_shadow_invariants():
    # classes are never empty; the labels are exactly the classes' entries
    # laid out one after another; the entry view and the histogram read the
    # same layout; every array is read-only
    for g, k in reference_cases():
        sh = shadow_finder(g, k)
        classes = list(zip(sh.class_ells.tolist(), sh.class_sizes.tolist()))
        assert sh.class_counts.min(initial=1) >= 1
        assert sh.class_ells.min(initial=k) >= 2  # ell <= 1 is never emitted
        assert sh.labels.size == sh.representation_size == int(
            (sh.class_counts * sh.class_sizes).sum())
        assert len(sh.entries) == sh.rowbase.size == sh.class_counts.sum()
        offsets, vertices = entry_offsets(sh), shadow_vertices(sh)
        assert offsets[0] == 0 and offsets[-1] == vertices.size
        first, counts = sh.class_first.tolist(), sh.class_counts.tolist()
        assert first == [sum(counts[:c]) for c in range(len(counts))]
        assert sh.class_start.tolist() == offsets[first].tolist()
        for c, (lo, n) in enumerate(zip(first, counts)):
            # each class's first and last entries, from the start and the end
            for i in {lo, lo + n - 1}:
                for j in (i, i - len(sh.entries)):
                    e = sh.entries[j]
                    assert (e.ell, e.size) == classes[c], (g, k, j)
                    assert np.array_equal(
                        e.vertices, vertices[offsets[i]:offsets[i + 1]])
        hist = Counter(e.ell for e in sh.entries)
        assert sh.ell_histogram == hist, (g, k)
        assert all(type(v) is int for v in sh.ell_histogram.values())
        assert sh.labels.dtype.kind == "u"
        for a in (sh.class_ells, sh.class_sizes, sh.class_counts, sh.labels,
                  sh.rowbase, sh.table, sh.ids):
            assert not a.flags.writeable


def test_shadow_bytes_match_the_documented_bound():
    # one 1-byte label per member (alpha <= 256 and n <= 256 here), one
    # rowbase word per entry, three words per class, and a table row of
    # ceil(alpha / 64) words plus an id word per oriented edge, or
    # ceil(n / 64) words plus an id word per vertex for the whole graph
    for g, k in reference_cases():
        sh = shadow_finder(g, k)
        n, m = g.vertex_count, g.edge_count
        e, c = len(sh.entries), sh.class_counts.size
        if n >= k and shadow._saturated(m, n, k):
            rows, words = n, -(-n // 64)
        else:
            rows, words = m, -(-degeneracy_order(g).alpha // 64)
        arrays = [getattr(sh, f.name) for f in fields(sh)]
        total = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
        assert sh.labels.itemsize == 1
        assert total == (sh.representation_size + 8 * e + 24 * c
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
            assert sh.table.shape == (m, max(1, -(-order.alpha // 64)))
        assert sh.labels.dtype == np.uint8
        offsets = entry_offsets(sh)
        for i, e in enumerate(sh.entries):
            base = int(sh.rowbase[i])
            labels = sh.labels[offsets[i]:offsets[i + 1]].tolist()
            verts = e.vertices.tolist()
            assert ids[base + np.array(labels, dtype=int)].tolist() \
                == verts, (g, k, i)
            if not whole:
                # rowbase is out_start of a root that holds every label
                root = np.searchsorted(order.out_start, base, "right") - 1
                assert order.out_start[root] == base
                assert max(labels) < order.out_degree[root], (g, k, i)
            bits = 0
            for la, u in zip(labels, verts):
                row = sh.table[base + la]
                for lb, v in zip(labels, verts):
                    bit = int(row[lb // 64]) >> (lb % 64) & 1
                    assert bit == has_edge(g, u, v), (g, k, i)
                    bits += bit
            assert bits == 2 * induced_edge_count(g, e.vertices)
    check_batches(budget, batches)


def expected_table(g, order):
    """Every oriented_table row, bit by bit, from has_edge."""
    table = np.zeros((g.edge_count, max(1, -(-order.alpha // 64))),
                     dtype=np.uint64)
    for v in range(g.vertex_count):
        start = int(order.out_start[v])
        out = out_neighbors(order, v).tolist()
        for a, u in enumerate(out):
            for b, w in enumerate(out):
                if has_edge(g, u, w):
                    table[start + a, b // 64] |= np.uint64(1 << (b % 64))
    return table


def whole_graph(g, k):
    n = g.vertex_count
    return n >= k and shadow._saturated(g.edge_count, n, k)


def fresh_copy(g):
    """g with no order or table built yet."""
    return Graph(g.indptr, g.indices)


def test_oriented_table_matches_adjacency():
    # at k, the rows of the roots, the vertices of out-degree k - 1 or
    # more, are those of expected_table and, on a fresh graph, every other
    # row is zero; with no floor every row is filled. Some graph here has
    # nonzero rows below its floor, so the floor is seen to skip them
    tables = {}  # by graph, which it holds so that no id is reused
    skipped = False
    for g, k in reference_cases():
        if whole_graph(g, k):
            continue
        if id(g) not in tables:
            tables[id(g)] = g, expected_table(g, degeneracy_order(g))
            full = shadow.oriented_table(fresh_copy(g))
            assert np.array_equal(full, tables[id(g)][1]), g
        expected = tables[id(g)][1]
        order = degeneracy_order(g)
        root_rows = (order.out_degree >= k - 1).repeat(order.out_degree)
        table = shadow_finder(fresh_copy(g), k).table
        assert np.array_equal(table[root_rows], expected[root_rows]), (g, k)
        assert not table[~root_rows].any(), (g, k)
        skipped |= bool(expected[~root_rows].any())
    assert skipped


WHOLE_GRAPHS = [(complete_graph(n), k) for n in (63, 64, 65, 128, 129)
                for k in (3, 8)] + [
    (er_graph(n, p, seed=n), k) for n in (63, 64, 65, 128, 129)
    for p, k in ((0.97, 8), (0.9, 5), (0.8, 3))]


def test_whole_table_is_the_packed_adjacency():
    # a graph that saturates is one entry, its table the adjacency matrix
    # packed little-endian into words, with the padding bits clear
    for g, k in WHOLE_GRAPHS:
        n = g.vertex_count
        assert whole_graph(g, k), (g, k)
        sh = shadow_finder(g, k)
        assert (sh.class_ells.tolist(), sh.class_sizes.tolist(),
                sh.class_counts.tolist()) == ([k], [n], [1])
        assert np.array_equal(sh.ids, np.arange(n))
        assert sh.table.dtype == np.uint64
        assert sh.table.shape == (n, -(-n // 64))
        bits = np.unpackbits(sh.table.view(np.uint8), axis=1,
                             bitorder="little")
        assert not bits[:, n:].any(), (g, k)
        assert np.array_equal(bits[:, :n],
                              induced_adjacency_matrix(g, np.arange(n)))


def random_bipartite(side, p, seed):
    """Each pair across two sides of `side` vertices with probability p."""
    u, w = np.nonzero(np.random.default_rng(seed).random((side, side)) < p)
    return Graph.from_edges(np.stack([u, w + side], axis=1),
                            num_vertices=2 * side)


# graphs of alpha 63, 64, 65, 128 and 129 put members on both sides of a
# word boundary; the rest have all-zero tables
TABLE_GRAPHS = {
    **{f"alpha{n - 3}": lambda n=n: cycle_complement(n)
       for n in (66, 67, 68, 131, 132)},
    "triangle-free": lambda: random_bipartite(40, 0.5, seed=3),
    "path": lambda: path_graph(50),
    "empty": lambda: Graph.from_edges(np.empty((0, 2), dtype=np.int64),
                                      num_vertices=0),
}


@pytest.mark.parametrize("name", TABLE_GRAPHS)
def test_table_at_word_boundaries_and_on_degenerate_graphs(monkeypatch,
                                                           name):
    # oriented_table itself, so that graphs the builder would take whole
    # count too; one vertex a chunk, on one and three workers
    g = TABLE_GRAPHS[name]()
    order = degeneracy_order(g)
    expected = expected_table(g, order)
    if name.startswith("alpha"):
        assert order.alpha == int(name[5:])
    else:
        assert not expected.any()
    shrink_budgets(monkeypatch, "unit")
    for workers in (1, 3):
        monkeypatch.setattr(shadow, "_workers", lambda: workers)
        table = shadow.oriented_table(TABLE_GRAPHS[name]())
        assert table.dtype == np.uint64
        assert np.array_equal(table, expected), workers


def test_table_fill_peaks_within_the_documented_bound(monkeypatch):
    # oriented_table's bound on one worker: beside the table, two n-word
    # arrays (each vertex's cost and their running sum) while chunks are
    # cut, and 16 * _CHUNK_ELEMS words a chunk. No vertex here is a chunk
    # alone, and one m-word array beside the two would pass the bound
    chunk = 1024
    monkeypatch.setattr(shadow, "_CHUNK_ELEMS", chunk)
    monkeypatch.setattr(shadow, "_workers", lambda: 1)
    g = er_graph(2000, 0.01, seed=3)
    order = degeneracy_order(g)
    n, m = g.vertex_count, g.edge_count
    nw = max(1, -(-order.alpha // 64))
    assert order.alpha * (64 * nw + order.alpha) <= 2 * chunk
    words = 2 * n + 16 * chunk
    assert 2 * n + m > words
    tracemalloc.start()
    try:
        table = shadow.oriented_table(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(table, expected_table(g, order))
    assert peak <= table.nbytes + 8 * words


@pytest.mark.parametrize("workers", [1, 3])
def test_table_chunks_are_cut_greedily_by_out_degree(monkeypatch, workers):
    # a vertex of out-degree d costs d * (64 * nw + alpha): its rows' bits
    # and a bound on their wedges. Chunks are cut greedily at
    # 2 * _CHUNK_ELEMS: each fits or holds one vertex with rows, and
    # closed only because the next vertex did not fit. The tailed cycle
    # complement has rows of two words, vertices that are chunks alone
    # and a path of vertices with at most one row
    monkeypatch.setattr(shadow, "_workers", lambda: workers)
    monkeypatch.setattr(shadow, "_CHUNK_ELEMS", 2048)
    limit = 2 * shadow._CHUNK_ELEMS
    calls, map_batches = [], shadow.map_batches

    def spy(fn, spans):  # the (lo, hi) vertex spans of each call
        calls.append(list(spans))
        return map_batches(fn, calls[-1])

    monkeypatch.setattr(shadow, "map_batches", spy)
    for g in (er_graph(300, 0.05, seed=4), cycle_complement(68, tail=200)):
        order = degeneracy_order(g)
        nw = max(1, -(-order.alpha // 64))
        cost = order.out_degree * (64 * nw + order.alpha)
        table = shadow.oriented_table(g)
        spans = calls.pop()
        assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
        assert spans[-1][1] == g.vertex_count
        for lo, hi in spans:
            with_rows = np.count_nonzero(order.out_degree[lo:hi])
            assert cost[lo:hi].sum() <= limit or with_rows == 1, (lo, hi)
        for (lo, hi), _ in zip(spans, spans[1:]):
            assert cost[lo:hi + 1].sum() > limit, (lo, hi)
        assert max(hi - lo for lo, hi in spans) > 1
        assert np.array_equal(table, expected_table(g, order))
    assert nw == 2 and cost.max() > limit


def test_table_does_not_depend_on_k():
    graphs = {id(g): g for g, _ in reference_cases()}
    for g in graphs.values():
        tables = [shadow_finder(g, k).table for k in (4, 7)
                  if not whole_graph(g, k)]
        if len(tables) == 2:
            assert np.array_equal(*tables), g


def test_order_and_table_are_built_once_per_graph(monkeypatch):
    # whatever calls come first, g is peeled once and its table filled
    # once, and every result is that of the same call on a fresh graph
    def graph():
        return er_graph(60, 0.3, seed=8)

    calls = {
        "order": lambda g: degeneracy_order(g).alpha,
        "shadow": lambda g: shadow_finder(g, 5),
        "exact": lambda g: exact_kclique_count(g, 6).count,
        "count": lambda g: turan_shadow_count(g, 5).estimate,
    }
    expected = {name: call(graph()) for name, call in calls.items()}
    assert expected["order"] >= 5  # so the exact count reads the table
    assert not whole_graph(graph(), 5)  # and so does the builder
    for names in itertools.permutations(calls):
        built, g = spy_builds(monkeypatch), graph()
        for name in names:
            got, want = calls[name](g), expected[name]
            if name == "shadow":
                for f in SHADOW_FIELDS:
                    assert np.array_equal(getattr(got, f), getattr(want, f))
            else:
                assert got == want, (names, name)
        assert [len(built["order"]), len(built["table"])] == [1, 1], names
        assert g._order is built["order"][0]
        assert g._table is built["table"][0]
        monkeypatch.undo()


def test_table_floor_is_extended_in_place_once_per_row(monkeypatch):
    # the builder at k = 7, then the counter at k = 4 and k = 3: one
    # table object throughout, each vertex's rows filled at most once, and
    # in the end every row of expected_table
    g = er_graph(160, 0.3, seed=5)
    order = degeneracy_order(g)
    assert order.out_degree.max() >= 6 and (order.out_degree == 2).any()
    filled, fill_rows = [], shadow._fill_rows

    def spy(table, order, vs):
        filled.extend(vs.tolist())
        return fill_rows(table, order, vs)

    monkeypatch.setattr(shadow, "_fill_rows", spy)
    built = spy_builds(monkeypatch)
    table = shadow_finder(g, 7).table
    for k in (4, 3):
        assert exact_kclique_count(g, k).count == reference_count(g, k)
    assert shadow.oriented_table(g, floor=2) is table is g._table
    assert len(built["table"]) == 1 and built["table"][0] is table
    assert not table.flags.writeable
    assert g._table_floor == 2
    counts = Counter(filled)
    assert max(counts.values()) == 1
    assert set(counts) == set(np.flatnonzero(order.out_degree >= 2).tolist())
    expected = expected_table(g, order)
    rows = (order.out_degree >= 2).repeat(order.out_degree)
    assert np.array_equal(table[rows], expected[rows])
    assert np.array_equal(shadow.oriented_table(g), expected)


def test_two_threads_extend_the_floor_once(monkeypatch):
    # two threads lower the floor from 6 to 2 at once: one fills the rows,
    # the other waits and gets the same table, every vertex filled once
    g = er_graph(160, 0.3, seed=5)
    table = shadow.oriented_table(g, 6)
    filled, fill_rows = [], shadow._fill_rows

    def spy(table, order, vs):
        filled.extend(vs.tolist())
        time.sleep(0.01)  # so that the second thread arrives mid-fill
        return fill_rows(table, order, vs)

    monkeypatch.setattr(shadow, "_CHUNK_ELEMS", 64)
    monkeypatch.setattr(shadow, "_fill_rows", spy)
    start = threading.Barrier(2)

    def extend():
        start.wait()
        return shadow.oriented_table(g, 2)

    got = run_bounded(lambda: _both(extend))
    assert all(t is table for t in got)
    order = degeneracy_order(g)
    fill = (order.out_degree >= 2) & (order.out_degree < 6)
    assert sorted(filled) == np.flatnonzero(fill).tolist()
    rows = (order.out_degree >= 2).repeat(order.out_degree)
    assert np.array_equal(table[rows], expected_table(g, order)[rows])


def _both(fn):
    """fn() on this thread and one more at once; both results."""
    box = []
    thread = threading.Thread(target=lambda: box.append(fn()))
    thread.start()
    mine = fn()
    thread.join()
    return [mine, *box]


def test_nothing_reads_table_rows_below_the_floor():
    # a copy whose rows below the floor hold all-ones gives the same
    # shadow, fixed-seed estimate and exact count: no reader looks there
    cases = [(planted_small(), k) for k in (5, 6, 7)] + [
        (er_graph(160, 0.6, seed=2), k) for k in (4, 5)] + [
        (er_graph(160, 0.3, seed=5), 6)]
    for g, k in cases:
        clean, dirty = fresh_copy(g), fresh_copy(g)
        order = degeneracy_order(dirty)
        below = (order.out_degree < k - 1).repeat(order.out_degree)
        assert below.any() and not whole_graph(g, k), (g, k)
        shadow.oriented_table(dirty, k - 1).base[below] = ~np.uint64(0)
        want, got = shadow_finder(clean, k), shadow_finder(dirty, k)
        for name in (*ENTRY_FIELDS, "ids"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert (turan_shadow_count(dirty, k, samples=4000, seed=3).estimate
                == turan_shadow_count(clean, k, samples=4000,
                                      seed=3).estimate), (g, k)
        assert (exact_kclique_count(dirty, k).count
                == exact_kclique_count(clean, k).count), (g, k)
        assert dirty._table[below].all()  # not written over


def test_one_word_peel_matches_the_general_peel():
    # _peel's lean one-word step against the general step on the same
    # sets padded to two words (over the table padded with a zero word),
    # level after level below planted-small's roots
    g, k = planted_small(), 7
    order = degeneracy_order(g)
    table = shadow.oriented_table(g, k - 1)
    assert table.shape[1] == 1
    wide = np.pad(table, ((0, 0), (0, 1)))
    ids = np.flatnonzero(order.out_degree >= k - 1)
    ids = ids[np.argsort(-order.out_degree[ids], kind="stable")]
    size = order.out_degree[ids]
    sets = shadow._Sets(order.out_start[ids], shadow._low_bits(size, 1), size)
    levels = 0
    for ell in range(k - 1, 2, -1):
        padded = shadow._Sets(sets.base, np.pad(sets.mask, ((0, 0), (0, 1))),
                              sets.size)
        lean = shadow._peel(table, sets, ell)
        general = shadow._peel(wide, padded, ell)
        assert lean[1].shape[1] == 1 and not general[1][:, 1].any()
        assert np.array_equal(lean[0], general[0]), ell
        assert np.array_equal(lean[1], general[1][:, :1]), ell
        assert np.array_equal(lean[2], general[2]), ell
        assert lean[2].dtype == general[2].dtype
        sets = shadow._Sets(*lean)
        sets = sets.take(np.argsort(-sets.size, kind="stable"))
        levels += bool(sets.size.size)
    assert levels >= 3


def test_entries_view_indexing():
    sh = shadow_finder(er_graph(40, 0.4, seed=33), 4)
    n = len(sh.entries)
    assert n > 1
    assert sh.entries[-1] == sh.entries[n - 1]
    assert sh.entries[-n] == sh.entries[0]
    assert sh.entries[0] != sh.entries[1]
    assert list(sh.entries) == [sh.entries[i] for i in range(n)]
    assert sh.entries[n - 1] in sh.entries
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            sh.entries[i]
    # integer indexing only, and, like range, the view equals no list
    with pytest.raises(TypeError):
        sh.entries[1:3]
    assert sh.entries != list(sh.entries)


def test_workers_falls_back_to_the_cpu_count(monkeypatch):
    # platforms without CPU affinity (macOS) count every CPU, or take one
    # worker when that count is unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert shadow._workers() == 3

    def fn(batch):
        time.sleep(0.002 * (10 - batch))
        return batch * batch

    got = run_bounded(lambda: shadow.map_batches(fn, iter(range(10))))
    assert got == [b * b for b in range(10)]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert shadow._workers() == 1


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
    # the batches are listed first, so an error made while they are cut
    # surfaces before any batch runs
    monkeypatch.setattr(shadow, "_workers", lambda: 3)
    ran = []

    def batches():
        yield from range(5)
        raise KeyError("made no batch")

    with pytest.raises(KeyError, match="made no batch"):
        run_bounded(lambda: shadow.map_batches(ran.append, batches()))
    assert ran == []


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
