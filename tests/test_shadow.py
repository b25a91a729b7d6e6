import io
import math
from functools import lru_cache

import numpy as np
import pytest

from turanshadow import graph, shadow
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


@pytest.mark.parametrize("budget", [None, 1], ids=["default", "unit"])
def test_builder_matches_recursive_reference(monkeypatch, budget):
    # the level engine must emit exactly the depth-first builder's ordered
    # entries, whatever the root batch and chunk sizes
    if budget is not None:
        monkeypatch.setattr(shadow, "_ROOT_BATCH", budget)
        monkeypatch.setattr(shadow, "_CHUNK_ELEMS", budget)
        monkeypatch.setattr(graph, "_LOOKUP_CHUNK", budget)
    widths = []
    roots = shadow._roots

    def spy(g, ids, members, k):
        widths.append(members.shape[1])
        return roots(g, ids, members, k)

    monkeypatch.setattr(shadow, "_roots", spy)
    for (g, k), expected in zip(reference_cases(), reference_entries()):
        got = [(e.ell, tuple(e.vertices.tolist()), e.edges)
               for e in shadow_finder(g, k).entries]
        assert got == expected, (g, k)
    assert max(widths) > 64


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
                  sh.rowbase, sh.table):
            assert not a.flags.writeable


@pytest.mark.parametrize("batch", [None, 3], ids=["default", "batch3"])
def test_table_bits_match_adjacency(monkeypatch, batch):
    # bit labels[b] of table row rowbase[i] + labels[a] is the edge test of
    # members a and b of entry i; ell <= 2 entries are never sampled. er160
    # has rows of several words: at k = 3 its whole graph saturates. Small
    # root batches put every graph's table rows in several batches
    if batch is not None:
        monkeypatch.setattr(shadow, "_ROOT_BATCH", batch)
    wide = er_graph(160, 0.6, seed=2)
    for g, k in [*validity_suite(), (wide, 3), (wide, 4)]:
        sh = shadow_finder(g, k)
        assert sh.labels.dtype == np.uint8
        for i, e in enumerate(sh.entries):
            base = int(sh.rowbase[i])
            if e.ell <= 2:
                assert base == -1
                continue
            labels = sh.labels[sh.offsets[i]:sh.offsets[i + 1]].tolist()
            verts = e.vertices.tolist()
            bits = 0
            for la, u in zip(labels, verts):
                row = sh.table[base + la]
                for lb, v in zip(labels, verts):
                    bit = int(row[lb // 64]) >> (lb % 64) & 1
                    assert bit == g.has_edge(u, v), (g, k, i)
                    bits += bit
            assert bits == 2 * e.edges


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
