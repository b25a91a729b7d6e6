import io
import tracemalloc

import numpy as np
import pytest

from turanshadow import graph
from turanshadow.graph import (
    EdgeListParseError,
    Graph,
    degeneracy_order,
    load_edge_list,
)

from degeneracy_reference import reference_degeneracy
from genutil import (
    complete_graph,
    cycle_graph,
    er_graph,
    grid_graph,
    has_edge,
    induced_adjacency_matrix,
    induced_edge_count,
    induced_subgraph,
    neighbors,
    out_neighbors,
    path_graph,
    run_child,
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
    assert has_edge(g, 0, 2) and has_edge(g, 0, 1) and not has_edge(g, 1, 2)


def test_load_accepts_bytes_and_large_ids():
    g = load_edge_list(io.BytesIO(b"9999999999999 1\n"))
    assert g.vertex_count == 2
    assert g.original_ids.tolist() == [1, 9999999999999]


@pytest.fixture
def line_parses(monkeypatch):
    """One entry per call of the per-line parser, made while the test runs."""
    calls = []
    parse_lines = graph._parse_lines

    def spy(text):
        calls.append(1)
        return parse_lines(text)

    monkeypatch.setattr(graph, "_parse_lines", spy)
    return calls


def test_load_path_fast_parse_matches_line_parser(tmp_path, monkeypatch,
                                                  line_parses):
    # a relabeled file with duplicates, reversed pairs, self-loops, blank
    # lines and uneven spacing takes the one-call parse from a path and
    # must give the per-line parser's CSR and original ids
    rng = np.random.default_rng(8)
    pairs = rng.integers(0, 300, size=(2000, 2)) * 7 + 1000
    lines = [f"{u}{' ' * int(s)}{v}" for (u, v), s in
             zip(pairs.tolist(), rng.integers(1, 4, size=2000))]
    lines[10] = lines[20] = ""
    lines.append(f"{pairs[0, 0]} {pairs[0, 0]}")
    text = "\n".join(lines) + "\n"
    path = tmp_path / "g.txt"
    path.write_text(text)
    fast = load_edge_list(path)
    assert line_parses == []
    monkeypatch.setattr(graph, "_parse_text", graph._parse_lines)
    slow = load_edge_list(io.StringIO(text))
    assert line_parses == [1]
    assert fast.vertex_count == slow.vertex_count > 200
    for a, b in ((fast.indptr, slow.indptr), (fast.indices, slow.indices),
                 (fast.original_ids, slow.original_ids)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_load_path_snap_header_takes_fast_parse(tmp_path, monkeypatch,
                                                line_parses):
    # a SNAP-style header of comment and blank lines, then tab-separated
    # pairs: the header is skipped and the rest takes the one-call parse
    rng = np.random.default_rng(9)
    pairs = rng.integers(0, 500, size=(1500, 2)) * 3 + 7
    text = ("# Directed graph (each unordered pair of nodes is saved once)\n"
            "\n# Nodes: 1500 Edges: 1500\n  # FromNodeId\tToNodeId\n"
            + "".join(f"{u}\t{v}\n" for u, v in pairs.tolist()))
    path = tmp_path / "snap.txt"
    path.write_text(text)
    fast = load_edge_list(path)
    assert line_parses == []
    monkeypatch.setattr(graph, "_parse_text", graph._parse_lines)
    slow = load_edge_list(io.StringIO(text))
    assert line_parses == [1]
    assert fast.vertex_count == slow.vertex_count > 200
    for a, b in ((fast.indptr, slow.indptr), (fast.indices, slow.indices),
                 (fast.original_ids, slow.original_ids)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_load_comments_past_the_header_take_fast_parse(tmp_path,
                                                       line_parses):
    # whole-line comments between and after the edges, indented, at CRLF
    # and with no final newline, are blanked: one np.loadtxt call reads
    # the per-line parser's edges, and a malformed line keeps its number
    text = ("# header\n0 1\n  # between\n1 2\r\n\t#\tcrlf\r\n"
            "2 3\n# a # b\n3 0\n# end")
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode())
    want = graph._parse_lines(text)
    assert want.tolist() == [[0, 1], [1, 2], [2, 3], [3, 0]]
    for source in (path, io.StringIO(text), io.BytesIO(text.encode())):
        got = load_edge_list(source)
        assert got.indices.tolist() == [1, 3, 0, 2, 1, 3, 0, 2], source
    assert graph._parse_text(text).tolist() == want.tolist()
    assert line_parses == [1]  # the direct call alone
    with pytest.raises(EdgeListParseError) as exc:
        load_edge_list(io.StringIO(text.replace("3 0", "3 x")))
    assert exc.value.line_number == 8


@pytest.mark.parametrize("text", ["# c\n", "# a\n\n  # b\n\n", "\n \n"])
def test_load_path_without_edges_is_empty(tmp_path, text):
    # np.loadtxt warns on input with no data, and warnings are errors here
    path = tmp_path / "g.txt"
    path.write_text(text)
    g = load_edge_list(path)
    assert (g.vertex_count, g.edge_count) == (0, 0)


def test_load_stream_is_read_whole_like_a_path(tmp_path, line_parses):
    # text and byte streams are read whole and parsed as a path's text is:
    # the same graph with no per-line parse, and, for a malformed line,
    # the same line number
    rng = np.random.default_rng(10)
    pairs = rng.integers(0, 400, size=(3000, 2)) * 5 + 11
    text = "# header\n\n" + "".join(f"{u} {v}\n" for u, v in pairs.tolist())
    path = tmp_path / "g.txt"
    path.write_text(text)

    def streams(text, path):
        yield io.StringIO(text)
        yield io.BytesIO(text.encode())
        with open(path) as fh:
            yield fh
        with open(path, "rb") as fh:
            yield fh

    want = load_edge_list(path)
    for stream in streams(text, path):
        got = load_edge_list(stream)
        for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                     (got.original_ids, want.original_ids)):
            assert a.dtype == b.dtype and np.array_equal(a, b), stream
    assert line_parses == []
    bad = text + "7 8 9\n1 2\n"
    path.write_text(bad)
    with pytest.raises(EdgeListParseError) as exc:
        load_edge_list(path)
    assert exc.value.line_number == 3 + len(pairs)
    for stream in streams(bad, path):
        with pytest.raises(EdgeListParseError) as exc:
            load_edge_list(stream)
        assert exc.value.line_number == 3 + len(pairs), stream


@pytest.mark.parametrize("text, line_number", [
    ("0 1\n1 x\n", 2),
    ("0 1\n\n1 2 3\n", 3),
    ("# c\n0 1\n5\n", 3),
    ("0 1\n1.0 2\n", 2),
    ("0 1\n\u01fe1 2\n", 2),  # np.loadtxt would read 4621
    ("0 1 2\n3 4 5\n", 1),
    ("# c\n0 1\n1 2 # x\n", 3),
    ("# c\r\n0 1\r\n1 x\r\n", 3),
])
def test_load_path_malformed_line_number(tmp_path, text, line_number):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    for source in (path, io.StringIO(text)):
        with pytest.raises(EdgeListParseError) as exc:
            load_edge_list(source)
        assert exc.value.line_number == line_number


@pytest.mark.parametrize("data, line_number", [
    (b"0 1\n1 \xff2\n", 2),
    (b"# caf\xe9\n0 1\n", 1),  # Latin-1, in a comment
    (b"0 1\n1 2\n2 3\xc3\n", 3),  # cut short at the end
])
@pytest.mark.parametrize("kind", ["path", "stream"])
def test_load_bytes_not_utf8_report_line_number(tmp_path, kind, data,
                                                line_number):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    source = {"path": path, "stream": io.BytesIO(data)}[kind]
    with pytest.raises(EdgeListParseError, match="UTF-8") as exc:
        load_edge_list(source)
    assert exc.value.line_number == line_number


def test_load_path_decodes_utf8_under_an_ascii_locale(tmp_path):
    path = tmp_path / "snap.txt"
    path.write_bytes("# caf\u00e9\n0 1\n1 2\n".encode())
    script = f"""
from turanshadow.graph import load_edge_list
print(load_edge_list({str(path)!r}).edge_count)
"""
    proc = run_child(["-c", script], LC_ALL="C", PYTHONUTF8="0",
                     PYTHONCOERCECLOCALE="0")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2\n"


def test_load_crlf_and_lone_cr_lines(tmp_path):
    path = tmp_path / "g.txt"
    data = b"0 1\r\n1 2\r\n\r\n# c\r\n2 0\r\n"
    path.write_bytes(data)
    for source in (path, io.BytesIO(data)):
        assert load_edge_list(source).indices.tolist() == [1, 2, 0, 2, 0, 1]
    # a path is read in text mode, where a lone CR ends a line too
    path.write_bytes(data.replace(b"\r\n", b"\r"))
    assert load_edge_list(path).indices.tolist() == [1, 2, 0, 2, 0, 1]
    path.write_bytes(b"0 1\r1 2\rx\r")
    with pytest.raises(EdgeListParseError) as exc:
        load_edge_list(path)
    assert exc.value.line_number == 3


@pytest.mark.parametrize("text", ["0 1\n1 99999999999999999999\n",
                                  "0 1\n-9223372036854775809 2\n",
                                  "0 1\n3 9223372036854775808\n"])
def test_load_id_outside_int64_reports_line_number(tmp_path, text):
    # a path and a stream alike; the loadtxt fast path refuses such a
    # line, and the line parser names it
    path = tmp_path / "big.txt"
    path.write_text(text)
    for source in (path, io.StringIO(text)):
        with pytest.raises(EdgeListParseError, match="int64") as exc:
            load_edge_list(source)
        assert exc.value.line_number == 2, source


def test_load_int64_extremes(tmp_path):
    text = "-9223372036854775808 9223372036854775807\n"
    path = tmp_path / "edge.txt"
    path.write_text(text)
    for source in (path, io.StringIO(text)):
        g = load_edge_list(source)
        assert g.original_ids.tolist() == [-2**63, 2**63 - 1], source


def unique_load(edges: np.ndarray) -> Graph:
    """The reference for load_edge_list's relabelling: ids compacted by one
    np.unique sort, which load_edge_list keeps for ids spread wider than
    twice the endpoint count."""
    if not len(edges):
        return Graph.from_edges(edges, num_vertices=0)
    ids, compact = np.unique(edges, return_inverse=True)
    relabeled = ids.size != int(ids[-1]) + 1 or int(ids[0]) != 0
    return Graph.from_edges(compact.reshape(edges.shape),
                            num_vertices=ids.size,
                            original_ids=ids if relabeled else None)


def id_cases():
    rng = np.random.default_rng(11)
    yield "empty", np.empty((0, 2), dtype=np.int64)
    yield "dense", rng.integers(0, 40, size=(150, 2))
    yield "dense-from-0-all-present", np.array([[0, 1], [1, 2], [3, 2]])
    yield "dense-offset", rng.integers(1000, 1050, size=(60, 2))
    # a span of exactly, and of one past, twice the endpoint count
    yield "span-at-bound", np.array([[0, 3], [2, 7]])
    yield "span-past-bound", np.array([[0, 3], [2, 8]])
    yield "gapped", rng.integers(0, 10**6, size=(80, 2))
    yield "negative", rng.integers(-30, 30, size=(100, 2))
    yield "negative-gapped", rng.integers(-10**9, 10**3, size=(50, 2))
    yield "int64-extremes", np.array([[-2**63, 2**63 - 1], [0, -2**63],
                                      [2**63 - 1, 5]])
    yield "near-int64-max", 2**63 - 1 - rng.integers(0, 20, size=(30, 2))
    yield "near-int64-min", -2**63 + rng.integers(0, 20, size=(30, 2))
    yield "from-2**40", 2**40 + rng.integers(0, 30, size=(40, 2))
    yield "gapped-past-2**40", rng.integers(2**40, 2**50, size=(40, 2))
    yield "self-loops-and-repeats", np.array([[5, 5], [5, 6], [6, 5],
                                              [5, 6], [7, 7]])


@pytest.mark.parametrize("name, edges", list(id_cases()),
                         ids=[name for name, _ in id_cases()])
def test_load_matches_the_unique_relabelling(name, edges):
    text = "".join(f"{u} {v}\n" for u, v in edges.tolist())
    g = load_edge_list(io.StringIO(text))
    ref = unique_load(edges.astype(np.int64))
    assert np.array_equal(g.indptr, ref.indptr)
    assert np.array_equal(g.indices, ref.indices)
    assert g.indptr.dtype == g.indices.dtype == np.int64
    if ref.original_ids is None:
        assert g.original_ids is None
    else:
        assert g.original_ids.dtype == np.int64
        assert np.array_equal(g.original_ids, ref.original_ids)


@pytest.mark.parametrize("source, line_number", [
    (b"0 1\n", 1),
    (bytearray(b"0 1\n"), 1),
    ([0, 1], 1),
    (["0 1\n", b"1 2\n", 7], 3),
])
def test_load_refuses_lines_that_are_not_text(source, line_number):
    # iterated as lines, each source holds neither str nor bytes at
    # line_number; the loader takes no lines, so it refuses the source by its
    # type, whatever the lines hold
    assert not isinstance(list(source)[line_number - 1], (str, bytes))
    with pytest.raises(TypeError,
                       match=f"path or a stream .*, got {type(source).__name__}$"):
        load_edge_list(source)


def test_load_refuses_sources_that_are_not_paths_or_streams(tmp_path):
    # an iterator of lines is neither a path nor a stream: it is refused
    # before anything is read
    lines = iter(["0 1\n", "1 2\n"])
    with pytest.raises(TypeError, match="path or a stream"):
        load_edge_list(lines)
    assert next(lines) == "0 1\n"

    class PlainPath:  # an os.PathLike that is no pathlib.Path
        def __fspath__(self):
            return str(path)

    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n")
    g = load_edge_list(PlainPath())
    assert (g.vertex_count, g.edge_count) == (3, 2)


BOM_TEXT = "\ufeff0 1\n1 2\n2 0\n"


def bom_sources(tmp_path, text):
    """The UTF-8 text as a path, a byte stream and a text stream."""
    path = tmp_path / "bom.txt"
    path.write_bytes(text.encode())
    return [path, io.BytesIO(text.encode()), io.StringIO(text)]


def test_load_drops_a_leading_byte_order_mark(tmp_path, line_parses):
    # one parse call, no per-line fallback, and the plain text's graph
    want = load_edge_list(io.StringIO(BOM_TEXT[1:]))
    for source in bom_sources(tmp_path, BOM_TEXT):
        got = load_edge_list(source)
        for a, b in ((got.indptr, want.indptr), (got.indices, want.indices)):
            assert a.dtype == b.dtype and np.array_equal(a, b), source
        assert got.original_ids is None
    assert line_parses == []


def test_load_byte_order_mark_keeps_line_numbers(tmp_path):
    for source in bom_sources(tmp_path, BOM_TEXT + "# c\n3 x\n"):
        with pytest.raises(EdgeListParseError) as exc:
            load_edge_list(source)
        assert exc.value.line_number == 5, source
    # only one mark is dropped: a second is a malformed token on line 1
    for source in bom_sources(tmp_path, "\ufeff" + BOM_TEXT):
        with pytest.raises(EdgeListParseError) as exc:
            load_edge_list(source)
        assert exc.value.line_number == 1, source


def test_adjacency_invariants():
    g = er_graph(60, 0.2, seed=5)
    total = 0
    for v in range(g.vertex_count):
        nbrs = neighbors(g, v).tolist()
        assert nbrs == sorted(set(nbrs))
        assert v not in nbrs
        for u in nbrs:
            assert v in neighbors(g, u).tolist()
        total += len(nbrs)
    assert total == 2 * g.edge_count


def test_degeneracy_complete_graph():
    # deletion degrees: each peel step of K_4 removes one vertex, so the
    # remaining degree drops by one per step
    d = degeneracy_order(complete_graph(4))
    assert d.alpha == 3
    assert sorted(d.out_degree.tolist()) == [0, 1, 2, 3]


def test_degeneracy_path_is_one():
    assert degeneracy_order(path_graph(4)).alpha == 1


def _peel_bruteforce(g):
    """Degeneracy by peeling on sets: the largest deletion degree."""
    remaining = set(range(g.vertex_count))
    adj = [set(neighbors(g, v).tolist()) for v in range(g.vertex_count)]
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


def _is_acyclic(d):
    """Whether the orientation's arcs v -> out_ids admit a topological
    order: Kahn's algorithm removes every vertex."""
    n = d.out_degree.size
    indegree = np.bincount(d.out_ids, minlength=n).tolist()
    ready = [v for v in range(n) if not indegree[v]]
    for v in ready:  # grows as vertices lose their last in-arc
        for u in out_neighbors(d, v).tolist():
            indegree[u] -= 1
            if not indegree[u]:
                ready.append(u)
    return len(ready) == n


@pytest.mark.parametrize("case", PEEL_CASES)
def test_peel_is_a_degeneracy_order(case):
    # any acyclic orientation whose out-degrees stay within the degeneracy
    # will do: the reference's alpha is the oracle, not its lowest-id order
    for g in PEEL_CASES[case]:
        d = degeneracy_order(g)
        n = g.vertex_count
        # the orientation is a CSR: out_start is the exclusive cumsum of
        # out_degree, and each vertex's slice of out_ids ascends
        assert set(vars(d)) == {"out_degree", "alpha", "out_start", "out_ids"}
        assert d.out_start.tolist() == (
            np.cumsum(d.out_degree) - d.out_degree).tolist()
        for v in range(n):
            assert np.all(np.diff(out_neighbors(d, v)) > 0), (g, v)
        # every edge is oriented exactly once, from one end to the other
        src = np.repeat(np.arange(n), d.out_degree)
        lo = np.minimum(src, d.out_ids)
        hi = np.maximum(src, d.out_ids)
        arcs = np.sort(lo * max(n, 1) + hi)
        gsrc = np.repeat(np.arange(n), np.diff(g.indptr))
        edges = gsrc * max(n, 1) + g.indices
        assert arcs.tolist() == edges[gsrc < g.indices].tolist(), g
        assert _is_acyclic(d), g
        alpha = reference_degeneracy(g)
        assert int(d.out_degree.max(initial=0)) == d.alpha == alpha, g
        assert d.out_degree.dtype == d.out_ids.dtype == np.int64
        for a in (d.out_degree, d.out_start, d.out_ids):
            assert not a.flags.writeable
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
    # the first vertex peeled from K_4 points to the other three, and the
    # last to none
    d = degeneracy_order(complete_graph(4))
    first, last = int(d.out_degree.argmax()), int(d.out_degree.argmin())
    assert out_neighbors(d, first).tolist() == sorted({0, 1, 2, 3} - {first})
    assert out_neighbors(d, last).size == 0


def test_out_neighbors_sizes_equal_deletion_degrees():
    g = er_graph(50, 0.3, seed=9)
    d = degeneracy_order(g)
    for v in range(50):
        assert out_neighbors(d, v).size == int(d.out_degree[v])


def test_out_neighbors_sum_to_edge_count():
    for seed in range(5):
        g = er_graph(45, 0.25, seed=seed)
        d = degeneracy_order(g)
        assert sum(out_neighbors(d, v).size for v in range(45)) == g.edge_count


def test_graph_arrays_are_read_only(tmp_path):
    # the CSR arrays are handed out as they are, so writing to them must
    # fail rather than change the graph under its cached order and table
    path = tmp_path / "triangle.txt"
    path.write_text("0 1\n1 2\n0 2\n")
    triangle = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
    for g in (triangle, load_edge_list(path),
              induced_subgraph(triangle, [0, 1])[0]):
        assert not g.indptr.flags.writeable
        assert not g.indices.flags.writeable
        for a in (g.indptr, g.indices):
            with pytest.raises(ValueError):
                a[0] = 2


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
                    if u < v and has_edge(g, int(u), int(v))}
        got = set()
        for lu in range(sub.vertex_count):
            for lv in neighbors(sub, lu).tolist():
                if lu < lv:
                    got.add((int(l2g[lu]), int(l2g[lv])))
        assert got == expected
        assert induced_edge_count(g, verts) == len(expected)


def test_has_edge_triangle_and_self():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
    assert has_edge(g, 0, 1)
    assert has_edge(g, 1, 0)
    assert not has_edge(g, 0, 0)


def test_has_edge_agrees_with_edge_set_on_all_pairs():
    g = er_graph(200, 0.1, seed=17)
    pairs = set()
    for v in range(200):
        for u in neighbors(g, v).tolist():
            pairs.add((min(u, v), max(u, v)))
    for u in range(200):
        for v in range(u + 1, 200):
            assert has_edge(g, u, v) == ((u, v) in pairs)


def test_induced_adjacency_matrix_is_symmetric_and_hollow():
    g = er_graph(40, 0.3, seed=2)
    verts = np.arange(0, 40, 3)
    mat = induced_adjacency_matrix(g, verts)
    assert np.array_equal(mat, mat.T)
    assert not mat.diagonal().any()


def test_induced_helpers_refuse_bad_vertex_sets():
    # unchecked, [0, 7] would alias the pair key 0 * 5 + 7 of the edge
    # (1, 2), and the repeated 2 in [1, 2, 2] would count that edge twice
    g = Graph.from_edges([(1, 2)], num_vertices=5)
    for helper in (induced_adjacency_matrix, induced_edge_count,
                   induced_subgraph):
        for verts in ([0, 7], [-1, 2], [1, 2, 2], [2, 1], [4, 2, 1]):
            with pytest.raises(ValueError):
                helper(g, verts)
    assert induced_edge_count(g, [0, 1, 2, 4]) == 1


def test_induced_helpers_hold_no_quadratic_arrays():
    # the rows of the set are gathered, so a 5000-vertex path costs its
    # 2 * 4999 neighbours, not 5000 x 5000 pairs
    g, verts = path_graph(5000), np.arange(5000)
    for helper in (induced_subgraph, induced_edge_count):
        tracemalloc.start()
        try:
            helper(g, verts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, (helper.__name__, peak)



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
