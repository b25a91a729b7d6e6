import io

import numpy as np
import pytest

from turanshadow import graph
from turanshadow.graph import (
    EdgeListParseError,
    Graph,
    degeneracy_order,
    induced_adjacency_matrix,
    induced_edge_count,
    induced_subgraph,
    load_edge_list,
    out_neighbors,
)

from degeneracy_reference import reference_degeneracy
from genutil import (
    complete_graph,
    cycle_graph,
    er_graph,
    grid_graph,
    path_graph,
    star_graph,
    turan_graph,
)


def test_load_dedup_and_self_loops():
    g = load_edge_list(io.StringIO("0 1\n1 2\n2 0\n0 0\n1 0\n"))
    assert g.vertex_count == 3
    assert g.edge_count == 3
    assert g.original_ids is None


def test_load_empty_stream():
    g = load_edge_list(io.StringIO(""))
    assert g.vertex_count == 0
    assert g.edge_count == 0


def test_load_comments_blank_lines_and_trailing_whitespace():
    g = load_edge_list(io.StringIO("# header\n0 1   \n\n  \n1 2\n"))
    assert g.vertex_count == 3
    assert g.edge_count == 2


def test_load_malformed_line_reports_line_number():
    with pytest.raises(EdgeListParseError) as exc:
        load_edge_list(io.StringIO("0 1\n1 x\n"))
    assert exc.value.line_number == 2
    with pytest.raises(EdgeListParseError) as exc:
        load_edge_list(io.StringIO("0 1\n1 2 3\n"))
    assert exc.value.line_number == 2


def test_load_compacts_ids_preserving_numeric_order():
    g = load_edge_list(io.StringIO("30 10\n10 20\n"))
    assert g.vertex_count == 3
    assert g.original_ids.tolist() == [10, 20, 30]
    # 10 -> 0, 20 -> 1, 30 -> 2
    assert g.has_edge(0, 2) and g.has_edge(0, 1) and not g.has_edge(1, 2)


def test_load_accepts_bytes_and_large_ids():
    g = load_edge_list(io.BytesIO(b"9999999999999 1\n"))
    assert g.vertex_count == 2
    assert g.original_ids.tolist() == [1, 9999999999999]


def test_load_path_fast_parse_matches_line_parser(tmp_path, monkeypatch):
    # a relabeled file with duplicates, reversed pairs, self-loops, blank
    # lines and uneven spacing takes the one-call parse from a path and
    # must give the per-line parser's CSR and original ids
    rng = np.random.default_rng(8)
    pairs = rng.integers(0, 300, size=(2000, 2)) * 7 + 1000
    lines = [f"{u}{' ' * int(s)}{v}" for (u, v), s in
             zip(pairs.tolist(), rng.integers(1, 4, size=2000))]
    lines[10] = lines[20] = ""
    lines.append(f"{pairs[0, 0]} {pairs[0, 0]}")
    path = tmp_path / "g.txt"
    path.write_text("\n".join(lines) + "\n")
    line_parses = []
    parse_lines = graph._parse_lines

    def spy(lines, comment_prefix):
        line_parses.append(1)
        return parse_lines(lines, comment_prefix)

    monkeypatch.setattr(graph, "_parse_lines", spy)
    fast = load_edge_list(path)
    assert line_parses == []
    with open(path) as fh:
        slow = load_edge_list(fh)
    assert line_parses == [1]
    assert fast.vertex_count == slow.vertex_count > 200
    for a, b in ((fast.indptr, slow.indptr), (fast.indices, slow.indices),
                 (fast.original_ids, slow.original_ids)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_load_path_snap_header_takes_fast_parse(tmp_path, monkeypatch):
    # a SNAP-style header of comment and blank lines, then tab-separated
    # pairs: the header is skipped and the rest takes the one-call parse
    rng = np.random.default_rng(9)
    pairs = rng.integers(0, 500, size=(1500, 2)) * 3 + 7
    text = ("# Directed graph (each unordered pair of nodes is saved once)\n"
            "\n# Nodes: 1500 Edges: 1500\n  # FromNodeId\tToNodeId\n"
            + "".join(f"{u}\t{v}\n" for u, v in pairs.tolist()))
    path = tmp_path / "snap.txt"
    path.write_text(text)
    line_parses = []
    parse_lines = graph._parse_lines

    def spy(lines, comment_prefix):
        line_parses.append(1)
        return parse_lines(lines, comment_prefix)

    monkeypatch.setattr(graph, "_parse_lines", spy)
    fast = load_edge_list(path)
    assert line_parses == []
    slow = load_edge_list(io.StringIO(text))
    assert line_parses == [1]
    assert fast.vertex_count == slow.vertex_count > 200
    for a, b in ((fast.indptr, slow.indptr), (fast.indices, slow.indices),
                 (fast.original_ids, slow.original_ids)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("text", ["# c\n", "# a\n\n  # b\n\n", "\n \n"])
def test_load_path_without_edges_is_empty(tmp_path, text):
    # np.loadtxt warns on input with no data, and warnings are errors here
    path = tmp_path / "g.txt"
    path.write_text(text)
    g = load_edge_list(path)
    assert (g.vertex_count, g.edge_count) == (0, 0)


@pytest.mark.parametrize("text, line_number", [
    ("0 1\n1 x\n", 2),
    ("0 1\n\n1 2 3\n", 3),
    ("# c\n0 1\n5\n", 3),
    ("0 1\n1.0 2\n", 2),
    ("0 1\n\u01fe1 2\n", 2),  # np.loadtxt would read 4621
    ("0 1 2\n3 4 5\n", 1),
    ("# c\n0 1\n1 2 # x\n", 3),
])
def test_load_path_malformed_line_number(tmp_path, text, line_number):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    for source in (path, io.StringIO(text)):
        with pytest.raises(EdgeListParseError) as exc:
            load_edge_list(source)
        assert exc.value.line_number == line_number


def test_load_empty_comment_prefix_means_no_comments(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n")
    for source in (io.StringIO("0 1\n1 2\n"), path):
        g = load_edge_list(source, comment_prefix="")
        assert (g.vertex_count, g.edge_count) == (3, 2)
    with pytest.raises(EdgeListParseError):
        load_edge_list(io.StringIO("# c\n0 1\n"), comment_prefix="")


def test_adjacency_invariants():
    g = er_graph(60, 0.2, seed=5)
    total = 0
    for v in range(g.vertex_count):
        nbrs = g.neighbors(v).tolist()
        assert nbrs == sorted(set(nbrs))
        assert v not in nbrs
        for u in nbrs:
            assert v in g.neighbors(u).tolist()
        total += len(nbrs)
    assert total == 2 * g.edge_count


def test_degeneracy_complete_graph():
    # deletion degrees: each peel step of K_4 removes one vertex, so the
    # remaining degree drops by one per step
    d = degeneracy_order(complete_graph(4))
    assert d.alpha == 3
    assert [int(d.core_number[v]) for v in d.order.tolist()] == [3, 2, 1, 0]


def test_degeneracy_path_is_one():
    assert degeneracy_order(path_graph(4)).alpha == 1


def test_order_and_position_are_inverse():
    for seed in range(5):
        g = er_graph(40, 0.3, seed=seed)
        d = degeneracy_order(g)
        assert np.array_equal(d.order[d.position], np.arange(40))
        assert np.array_equal(d.position[d.order], np.arange(40))


def _peel_bruteforce(g):
    """Degeneracy by peeling on sets: the largest deletion degree."""
    remaining = set(range(g.vertex_count))
    adj = [set(g.neighbors(v).tolist()) for v in range(g.vertex_count)]
    alpha = 0
    while remaining:
        v = min(remaining, key=lambda u: len(adj[u] & remaining))
        alpha = max(alpha, len(adj[v] & remaining))
        remaining.discard(v)
    return alpha


def _bruteforce_er_graphs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(10, 61))
        p = float(rng.choice([0.1, 0.3, 0.5]))
        yield er_graph(n, p, seed=int(rng.integers(2**31)))


def _sparse_random_graph(n, m, seed):
    """About m uniform random pairs on n vertices (self-loops dropped)."""
    rng = np.random.default_rng(seed)
    return Graph.from_edges(rng.integers(0, n, size=(m, 2)), num_vertices=n)


PEEL_CASES = {
    # many ties on equal degrees, and degrees that fall below the current
    # minimum
    "sparse3000": [_sparse_random_graph(3000, 9000, seed=1)],
    "star": [star_graph(500)],
    "path": [path_graph(500)],
    "complete": [complete_graph(60)],
    "empty": [Graph.from_edges([], num_vertices=0)],
    "isolated": [Graph.from_edges([(0, 1), (1, 2), (2, 0), (5, 6)],
                                  num_vertices=10)],
    # the exact counter's graphs: alpha = 81 (two-word rows), Turan
    # boundaries, cliques, isolated vertices, and deep peels
    "counter": [er_graph(160, 0.6, seed=2), turan_graph(24, 5),
                complete_graph(30), complete_graph(4),
                Graph.from_edges([(2, 5)], num_vertices=9),
                complete_graph(12), turan_graph(20, 4), path_graph(3001),
                grid_graph(30, 40)],
    "bruteforce": list(_bruteforce_er_graphs()),
}


@pytest.mark.parametrize("case", PEEL_CASES)
def test_peel_is_a_degeneracy_order(case):
    # any order whose out-degrees stay within the degeneracy will do: the
    # reference's alpha is the oracle, not its lowest-id order
    for g in PEEL_CASES[case]:
        d = degeneracy_order(g)
        n = g.vertex_count
        assert sorted(d.order.tolist()) == list(range(n))
        assert np.array_equal(d.position[d.order], np.arange(n))
        src = np.repeat(np.arange(n), np.diff(g.indptr))
        later = np.bincount(src[d.position[g.indices] > d.position[src]],
                            minlength=n)
        assert d.core_number.tolist() == later.tolist()
        # the orientation is a CSR: each slice of out_ids holds v's later
        # neighbours in ascending id, and out_start is the exclusive cumsum
        assert d.out_start.tolist() == (np.cumsum(later) - later).tolist()
        for v in range(n):
            nbrs = g.neighbors(v)
            got = d.out_ids[d.out_start[v]:d.out_start[v] + later[v]]
            assert got.tolist() == nbrs[d.position[nbrs]
                                        > d.position[v]].tolist()
        assert d.out_ids.size == g.edge_count
        assert not d.out_ids.flags.writeable
        alpha = reference_degeneracy(g)
        assert int(later.max(initial=0)) == d.alpha == alpha, g
        assert d.order.dtype == d.core_number.dtype == np.int64
        if case == "bruteforce":
            assert alpha == _peel_bruteforce(g)


def test_alpha_never_grows_in_induced_subgraphs():
    rng = np.random.default_rng(23)
    for _ in range(10):
        g = er_graph(50, 0.3, seed=int(rng.integers(2**31)))
        alpha = degeneracy_order(g).alpha
        size = int(rng.integers(5, 40))
        verts = np.sort(rng.choice(50, size=size, replace=False))
        sub, _ = induced_subgraph(g, verts)
        assert degeneracy_order(sub).alpha <= alpha


def test_alpha_sqrt_bound():
    for seed in range(6):
        g = er_graph(70, 0.4, seed=seed)
        if g.edge_count >= 1:
            assert degeneracy_order(g).alpha <= (2 * g.edge_count) ** 0.5


def test_out_neighbors_complete_graph_extremes():
    g = complete_graph(4)
    d = degeneracy_order(g)
    assert out_neighbors(g, d, int(d.order[0])).size == 3
    assert out_neighbors(g, d, int(d.order[-1])).size == 0


def test_out_neighbors_sizes_equal_deletion_degrees():
    g = er_graph(50, 0.3, seed=9)
    d = degeneracy_order(g)
    for v in range(50):
        assert out_neighbors(g, d, v).size == int(d.core_number[v])


def test_out_neighbors_sum_to_edge_count():
    for seed in range(5):
        g = er_graph(45, 0.25, seed=seed)
        d = degeneracy_order(g)
        assert sum(out_neighbors(g, d, v).size for v in range(45)) == g.edge_count


def test_graph_arrays_are_read_only(tmp_path):
    # neighbors() hands out views, so writing through one must fail rather
    # than change the graph under its cached edge keys
    path = tmp_path / "triangle.txt"
    path.write_text("0 1\n1 2\n0 2\n")
    triangle = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
    for g in (triangle, load_edge_list(path),
              induced_subgraph(triangle, [0, 1])[0]):
        assert not g.indptr.flags.writeable
        assert not g.indices.flags.writeable
        with pytest.raises(ValueError):
            g.neighbors(0)[0] = 2


def test_induced_subgraph_cycle_segment_is_path():
    sub, l2g = induced_subgraph(cycle_graph(5), np.array([0, 1, 2]))
    assert sub.vertex_count == 3
    assert sub.edge_count == 2
    assert l2g.tolist() == [0, 1, 2]


def test_induced_subgraph_empty_set():
    sub, l2g = induced_subgraph(cycle_graph(5), np.array([], dtype=np.int64))
    assert sub.vertex_count == 0
    assert sub.edge_count == 0
    assert l2g.size == 0


def test_induced_subgraph_matches_edge_filter():
    rng = np.random.default_rng(31)
    g = er_graph(100, 0.2, seed=4)
    for _ in range(5):
        verts = np.sort(rng.choice(100, size=10, replace=False))
        sub, l2g = induced_subgraph(g, verts)
        expected = {(int(u), int(v))
                    for u in verts for v in verts
                    if u < v and g.has_edge(int(u), int(v))}
        got = set()
        for lu in range(sub.vertex_count):
            for lv in sub.neighbors(lu).tolist():
                if lu < lv:
                    got.add((int(l2g[lu]), int(l2g[lv])))
        assert got == expected
        assert induced_edge_count(g, verts) == len(expected)


def test_has_edge_triangle_and_self():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
    assert g.has_edge(0, 1)
    assert g.has_edge(1, 0)
    assert not g.has_edge(0, 0)


def test_has_edge_agrees_with_edge_set_on_all_pairs():
    g = er_graph(200, 0.1, seed=17)
    pairs = set()
    for v in range(200):
        for u in g.neighbors(v).tolist():
            pairs.add((min(u, v), max(u, v)))
    for u in range(200):
        for v in range(u + 1, 200):
            assert g.has_edge(u, v) == ((u, v) in pairs)


def test_induced_adjacency_matrix_is_symmetric_and_hollow():
    g = er_graph(40, 0.3, seed=2)
    verts = np.arange(0, 40, 3)
    mat = induced_adjacency_matrix(g, verts)
    assert np.array_equal(mat, mat.T)
    assert not mat.diagonal().any()


def test_edge_density():
    assert complete_graph(5).edge_density() == 1.0
    assert cycle_graph(5).edge_density() == 0.5
    assert Graph.from_edges([], num_vertices=1).edge_density() == 0.0
    assert Graph.from_edges([], num_vertices=0).edge_density() == 0.0


def test_from_edges_matches_set_reference():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 40))
        total = n + int(rng.integers(0, 4))  # isolated trailing vertices
        # random pairs include self-loops, duplicates and reversed edges
        e = rng.integers(0, n, size=(int(rng.integers(0, 120)), 2))
        g = Graph.from_edges(e, num_vertices=total)
        adj = [set() for _ in range(total)]
        for u, v in e.tolist():
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        assert g.vertex_count == total
        assert g.indptr.tolist() == np.cumsum(
            [0] + [len(a) for a in adj]).tolist()
        assert g.indices.tolist() == [w for a in adj for w in sorted(a)]
        assert g.indptr.dtype == g.indices.dtype == np.int64


def test_from_edges_rejects_vertex_counts_past_key_range():
    # n * n would overflow the int64 pair keys u * n + v
    with pytest.raises(ValueError, match="overflow"):
        Graph.from_edges([(0, 1)], num_vertices=4_000_000_000)
    with pytest.raises(ValueError, match="overflow"):
        Graph.from_edges([(0, 3_037_000_499)])
