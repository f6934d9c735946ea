"""Graph container, clusterings, edit sets (graphs of toggled pairs) and the
text file format."""
from __future__ import annotations

import itertools
import random
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import connected_components, mask_of
from cluedit import (Clustering, Graph, apply_edits, cluster_graph_of,
                     clustering_to_edit_set, format_graph, induced_subgraph,
                     is_cluster_graph, parse_graph, write_graph)
import cluedit.graph as graph_module
from cluedit.graph import MAX_PARSE_VERTICES, bits, clique_components


def path3() -> Graph:
    return Graph.from_edges(3, [(0, 1), (1, 2)])


def triangle() -> Graph:
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def test_bits_and_mask_roundtrip():
    vs = [0, 3, 5, 11]
    assert list(bits(mask_of(vs))) == vs
    assert list(bits(0)) == []


def test_from_edges_basic():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    assert (g.n, g.m) == (5, 3)
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    # ids outside 0..n-1 have no edge, though keys 7 and 1 are 1-2 and 0-1
    assert not g.has_edge(0, 7) and not g.has_edge(-1, 6)
    assert g.degree(1) == 2 and g.degree(3) == 1
    assert list(bits(g.rows[1])) == [0, 2]
    assert list(g.edges()) == [(0, 1), (1, 2), (3, 4)]
    assert g.rows == (0b00010, 0b00101, 0b00010, 0b10000, 0b01000)


def test_edges_on_wide_rows():
    # rows wider than a machine word, empty rows and a last-vertex neighbour
    rng = random.Random(17)
    n = 300
    edges = {(u, v) for u in range(n) for v in range(u + 1, n)
             if u % 7 and rng.random() < 0.05}
    edges |= {(0, n - 1), (n - 2, n - 1)}
    g = Graph.from_edges(n, edges)
    assert list(g.edges()) == sorted(edges)
    assert list(Graph.empty(n).edges()) == []


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError, match="bad edge"):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError, match="bad edge"):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError, match="duplicate edge"):
        Graph.from_edges(3, [(0, 1), (1, 0)])


def test_connected_components_order():
    g = Graph.from_edges(6, [(1, 4), (2, 3)])
    assert connected_components(g) == [mask_of([0]), mask_of([1, 4]),
                                       mask_of([2, 3]), mask_of([5])]


def test_is_cluster_graph():
    assert is_cluster_graph(Graph.empty(4))
    assert is_cluster_graph(triangle())
    assert not is_cluster_graph(path3())
    two = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    assert is_cluster_graph(two)


def test_edit_distance_matches_pair_count():
    # g xor h has one edge per pair the two graphs disagree on
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 9)
        e1 = oracles.random_edges(rng, n, 0.5)
        e2 = oracles.random_edges(rng, n, 0.5)
        g, h = Graph.from_edges(n, e1), Graph.from_edges(n, e2)
        expect = len({frozenset(e) for e in e1} ^ {frozenset(e) for e in e2})
        assert apply_edits(g, h).m == expect
        assert apply_edits(h, g).m == expect
    with pytest.raises(ValueError, match="mismatch"):
        apply_edits(Graph.empty(2), Graph.empty(3))


def test_apply_edits_is_an_involution():
    rng = random.Random(5)
    g = Graph.from_edges(6, oracles.random_edges(rng, 6, 0.4))
    edits = Graph.from_edges(6, [(0, 1), (2, 5), (3, 4)])
    h = apply_edits(g, edits)
    assert apply_edits(g, h) == edits
    back = apply_edits(h, edits)
    assert back == g
    with pytest.raises(ValueError, match="vertex count mismatch: 6 vs 10"):
        apply_edits(g, Graph.from_edges(10, [(0, 9)]))


def test_clustering_from_blocks_roundtrip():
    cl = Clustering.from_blocks(5, [[1, 3], [0], [2, 4]])
    assert cl.assignment == (1, 0, 2, 0, 2)
    assert cl.c == 3 and len(cl.assignment) == 5
    assert cl.cluster_masks() == [mask_of([1, 3]), mask_of([0]), mask_of([2, 4])]
    assert cl.sizes() == [2, 1, 2]
    # empty inner blocks are skipped, not counted
    assert Clustering.from_blocks(2, [[0], [], [1]]).c == 2


def test_clustering_validation():
    with pytest.raises(ValueError, match="two blocks"):
        Clustering.from_blocks(3, [[0, 1], [1, 2]])
    with pytest.raises(ValueError, match="cover"):
        Clustering.from_blocks(3, [[0, 1]])
    # ids outside 0..n-1 neither wrap round nor leak an IndexError
    for block in ([-1], [3], [-4]):
        with pytest.raises(ValueError, match="outside 0..2"):
            Clustering.from_blocks(3, [[0, 1], block])
    with pytest.raises(ValueError, match="outside 0..2"):
        Clustering.from_blocks(3, [[0, 1, 2], [5]])
    with pytest.raises(ValueError, match="dense"):
        Clustering((0, 2))
    with pytest.raises(ValueError, match="dense"):
        Clustering((-1, 0))
    assert Clustering(()).c == 0 and Clustering((1, 0, 1)).c == 2


def test_cluster_graph_of_and_edit_set_agree_with_reference():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(1, 8)
        edges = oracles.random_edges(rng, n, 0.45)
        g = Graph.from_edges(n, edges)
        blocks = oracles.random_blocks(rng, n, rng.randint(1, n))
        cl = Clustering.from_blocks(n, blocks)
        es = clustering_to_edit_set(g, cl)
        assert es.m == oracles.editing_cost(n, edges, blocks)
        assert apply_edits(g, es) == cluster_graph_of(n, cl)
        assert is_cluster_graph(apply_edits(g, es))


def test_induced_subgraph():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 4), (3, 4)])
    sub, old = induced_subgraph(g, [1, 2, 4])
    assert old == (1, 2, 4)
    assert (sub.n, sub.m) == (3, 2)
    assert list(sub.edges()) == [(0, 1), (1, 2)]


def test_format_and_parse_roundtrip():
    g = Graph.from_edges(4, [(0, 2), (1, 3)])
    text = format_graph(g)
    assert text == "p cep 4 2\ne 1 3\ne 2 4\n"
    assert parse_graph(text) == g
    assert parse_graph("c comment\np cep 2 0\n") == Graph.empty(2)
    assert format_graph(Graph.empty(0)) == "p cep 0 0\n"


def test_write_graph_writes_format_graph(tmp_path):
    rng = random.Random(23)
    graphs = [Graph.empty(0), Graph.empty(5),
              Graph.from_edges(40, oracles.random_edges(rng, 40, 0.3))]
    for i, g in enumerate(graphs):
        path = tmp_path / f"{i}.g"
        write_graph(g, path)
        assert path.read_bytes() == format_graph(g).encode()


def test_pace_edge_lines_roundtrip():
    # PACE 2021 files list each edge as a bare "u v"; both forms may mix
    text = "c pace\np cep 4 3\n1 3\n2 4\ne 3 4\n"
    g = parse_graph(text)
    assert g == Graph.from_edges(4, [(0, 2), (1, 3), (2, 3)])
    assert parse_graph(format_graph(g)) == g


@pytest.mark.parametrize("text, message", [
    ("e 1 2\n", "edge before header"),
    ("p cep 2\n", "malformed header"),
    ("p cep 2 0\np cep 2 0\n", "duplicate header"),
    ("p cep 2 1\ne 1 3\n", "out of range"),
    ("p cep 2 1\ne 1 1\n", "out of range"),
    ("p cep 2 2\ne 1 2\ne 2 1\n", "duplicate edge"),
    ("p cep 2 2\ne 1 2\n", "found 1"),
    ("p cep 2 0\nx 1 2\n", "unknown record"),
    ("1 2\n", "edge before header"),
    ("p cep 2 1\n1 3\n", "out of range"),
    ("p cep 2 1\n2 2\n", "out of range"),
    ("p cep 2 1\n0 1\n", "out of range"),
    ("p cep 2 2\n1 2\n2 1\n", "duplicate edge"),
    ("p cep 2 2\n1 2\n", "found 1"),
    ("p cep 3 1\n1 2 3\n", "malformed edge"),
    ("p cep 3 1\n1\n", "malformed edge"),
    ("p cep 3 1\n1 x\n", "malformed edge"),
    ("", "missing header"),
    ("p cep 99999999999 0\n", "exceed the limit of 10000000"),
    (f"p cep {MAX_PARSE_VERTICES + 1} 0\n", "exceed the limit"),
    # canonical texts that break a rule: the bulk reader leaves them to the
    # line reader, which names the line
    ("p cep 5 6\ne 1 2\ne 1 3\ne 1 4\ne 1 5\ne 2 3\ne 2 1\n",
     "line 7: duplicate edge"),
    ("p cep 3 1\ne 2 2\n", "line 2: vertex out of range"),
    ("p cep 3 1\ne 0 1\n", "line 2: vertex out of range"),
    ("p cep 3 1\ne 1 4\n", "line 2: vertex out of range"),
    ("p cep 3 1\ne 1 123456789\n", "line 2: vertex out of range"),
    pytest.param("p cep 3 1\ne 1 " + "1" * 5000 + "\n", "line 2: malformed edge",
                 id="5000-digit id"),
    ("p cep 3 2\ne 1 2\n", "header claims 2 edges, found 1"),
    ("p cep 3 0\ne 1 2\n", "header claims 0 edges, found 1"),
])
def test_parse_graph_errors(text, message):
    # the bulk reader takes none of these, whatever the text's length
    assert graph_module._parse_canonical(text) is None
    with pytest.raises(ValueError, match=message):
        parse_graph(text)


# edge lines that break a rule the bulk reader checks, ids longer than it
# reads, and lines only the line reader takes
DAMAGE = st.one_of(
    st.builds("e {} {}".format, st.integers(0, 42), st.integers(0, 42)),
    st.sampled_from(["e 1 000000002", "e 1 123456789", "e 1 " + "9" * 5000,
                     "e 1 " + "1" * 19, "1 2", "e 1 2 ", "e  1 2", "e 1 2\r",
                     "c note", "", "p cep 3 0", "p cep 40 0"]),
)


@st.composite
def damaged_canonical_texts(draw):
    """(g, text, damage): g a random graph on at most 40 vertices, text its
    format_graph output as it is (damage None) or with its header counts
    moved or one line inserted, replaced or dropped."""
    n = draw(st.integers(0, 40))
    rnd = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from([0.05, 0.3, 0.9]))
    g = Graph.from_edges(n, oracles.random_edges(rnd, n, density))
    lines = format_graph(g).splitlines()
    damage = draw(st.sampled_from([None, "header", "insert", "replace",
                                   "drop"]))
    if damage == "header":
        lines[0] = (f"p cep {n + draw(st.integers(-1, 1))} "
                    f"{g.m + draw(st.integers(-1, 1))}")
    elif damage is not None:
        at = draw(st.integers(0, len(lines) - (damage != "insert")))
        lines[at:at + (damage != "insert")] = (
            [] if damage == "drop" else [draw(DAMAGE)])
    return g, "\n".join(lines) + "\n", damage


def _graph_or_message(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(damaged_canonical_texts())
def test_bulk_and_line_readers_agree(case):
    # the bulk reader takes every text format_graph writes, and any graph it
    # gives has the line reader's keys; the rows built from them are those
    # set one edge at a time, by either branch of _rows_of_keys: nearly
    # every draw at density 0.05 has n² > 8m and takes the edge loop, and
    # nearly every one at 0.3 or 0.9 has n² <= 8m and takes the bit matrix;
    # parse_graph gives the line reader's graph or error message
    g, text, damage = case
    bulk = graph_module._parse_canonical(text)
    lines = _graph_or_message(graph_module._parse_lines, text)
    if damage is None:
        assert bulk == g
    if bulk is not None:
        assert bulk == lines
        assert bulk.rows == _rows_by_edge(bulk)
    assert _graph_or_message(parse_graph, text) == lines


def _rows_by_edge(g: Graph) -> tuple[int, ...]:
    """The neighbour masks of g, set one edge at a time."""
    rows = [0] * g.n
    for u, v in g.edges():
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


def _kilobyte_text(extra: str = "") -> tuple[Graph, str]:
    """A random graph's canonical text of over a kilobyte, with one more
    edge line, and the header's count, when *extra* is given."""
    g = Graph.from_edges(60, oracles.random_edges(random.Random(8), 60, 0.1))
    body = format_graph(g).split("\n", 1)[1]
    text = f"p cep {g.n} {g.m + bool(extra)}\n" + body + extra
    assert len(text) >= 1024
    return g, text


@pytest.mark.parametrize("line, message", [
    ("e {v} {u}", "duplicate edge"),     # an edge written both ways
    ("e 7 7", "vertex out of range"),    # a self-loop
    ("e 1 61", "vertex out of range"),   # an id past n
    ("e 0 5", "vertex out of range"),    # an id below 1
])
def test_bulk_reader_declines_kilobyte_texts_that_break_a_rule(line, message):
    # the sorted keys show a pair written both ways, and the ends a loop or
    # an id out of range: the bulk reader declines, and the line reader
    # raises today's message with the line's number
    g, _ = _kilobyte_text()
    u, v = (x + 1 for x in next(g.edges()))
    extra = line.format(u=u, v=v)
    _, text = _kilobyte_text(extra + "\n")
    assert graph_module._parse_canonical(text) is None
    with pytest.raises(ValueError, match=f"line {g.m + 2}: {message}"):
        parse_graph(text)


def test_bulk_reader_keys_and_rows_match_the_line_reader():
    # a kilobyte text read by either reader gives the same keys and no
    # rows; the rows built from the keys on first use are the graph's
    g, text = _kilobyte_text()
    bulk, lines = graph_module._parse_canonical(text), graph_module._parse_lines(text)
    assert "rows" not in vars(bulk) and "rows" not in vars(lines)
    assert bulk == lines == g and bulk.m == g.m
    assert bulk.rows == lines.rows == _rows_by_edge(g)
    assert parse_graph(text) == g
    # parse_graph offers every canonical text to the bulk reader, however
    # short: the line reader is never called on one
    short = [Graph.empty(0), path3(), Graph.from_edges(
        20, oracles.random_edges(random.Random(3), 20, 0.1))]
    with mock.patch.object(graph_module, "_parse_lines",
                           side_effect=AssertionError("line reader called")):
        for h in short:
            assert len(format_graph(h)) < 1024
            assert parse_graph(format_graph(h)) == h


def test_bulk_reader_memory_stays_near_its_rows():
    # K_{2,n-2} between vertices 0 and n-1: each middle row spans n bits
    # for two edges, so the rows (2.1 MB) dwarf the edge arrays, and a byte
    # buffer for all rows at once, with its copy, would add twice the rows
    n = 4000
    g = Graph.from_edges(n, [(e, v) for v in range(1, n - 1)
                             for e in (0, n - 1)])
    text, rows = format_graph(g), g.rows
    tracemalloc.start()
    try:
        assert graph_module._parse_canonical(text).rows == rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sum(map(sys.getsizeof, rows)) + (2 << 20)


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 9))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, chosen)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_parse_format_identity(g):
    assert parse_graph(format_graph(g)) == g


@settings(max_examples=60, deadline=None)
@given(graphs(), st.randoms(use_true_random=False))
def test_random_edit_sets_shift_distance(g, rnd):
    pairs = list(itertools.combinations(range(g.n), 2))
    chosen = [p for p in pairs if rnd.random() < 0.3]
    es = Graph.from_edges(g.n, chosen)
    h = apply_edits(g, es)
    assert apply_edits(g, h).m == len(chosen)


@st.composite
def graph_pairs(draw):
    """Two graphs on one vertex set, and a cluster label per vertex."""
    n = draw(st.integers(0, 9))
    pairs = list(itertools.combinations(range(n), 2))

    def edges():
        return draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []

    g, h = Graph.from_edges(n, edges()), Graph.from_edges(n, edges())
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return g, h, labels


@settings(max_examples=80, deadline=None)
@given(graph_pairs())
def test_edit_graphs_match_pair_sets(case):
    g, h, a = case
    n = g.n
    # apply_edits is the symmetric difference of the edge sets, so applying
    # the same edits twice is the identity
    diff = apply_edits(g, h)
    assert set(diff.edges()) == set(g.edges()) ^ set(h.edges())
    assert diff.m == len(set(g.edges()) ^ set(h.edges()))
    assert apply_edits(diff, h) == g and apply_edits(g, diff) == h
    # a clustering's edit set toggles exactly the pairs whose adjacency
    # disagrees with sharing a cluster
    cl = Clustering.from_blocks(n, [[v for v in range(n) if a[v] == c]
                                    for c in range(4)])
    edits = clustering_to_edit_set(g, cl)
    assert list(edits.edges()) == [
        (u, v) for u, v in itertools.combinations(range(n), 2)
        if g.has_edge(u, v) != (a[u] == a[v])]
    assert edits.m == len(list(edits.edges()))


@st.composite
def near_cluster_graphs(draw):
    """Disjoint cliques under a random vertex order, as they are or with
    one pair toggled, or a random graph."""
    kind = draw(st.sampled_from(["cliques", "toggled", "random"]))
    if kind == "random":
        return draw(graphs())
    sizes = draw(st.lists(st.integers(1, 6), max_size=16))
    n = sum(sizes)
    order = draw(st.permutations(range(n)))
    edges, base = set(), 0
    for size in sizes:
        block = sorted(order[base:base + size])
        edges.update(itertools.combinations(block, 2))
        base += size
    if kind == "toggled" and n >= 2:
        pair = draw(st.sampled_from(list(itertools.combinations(range(n), 2))))
        edges ^= {pair}
    return Graph.from_edges(n, edges)


def scanned_components(g: Graph) -> list[int]:
    """The masks of g's clique components by `clique_components`: each
    head with its neighbours, checked against the reported sizes."""
    heads, sizes = clique_components(g)
    masks = [1 << h | g.rows[h] for h in heads.tolist()]
    assert [c.bit_count() for c in masks] == sizes.tolist()
    return masks


@settings(max_examples=300, deadline=None)
@given(near_cluster_graphs())
def test_clique_components_match_bfs_reference(g):
    # the label scan finds the same components in the same order, by
    # smallest vertex
    assert scanned_components(g) == oracles.clique_components_bfs(g)
    assert is_cluster_graph(g) == oracles.is_cluster_graph_bfs(g)


@pytest.mark.parametrize("edges", [
    # a pendant vertex on a clique's smallest vertex: all four are labelled
    # 0 and there are deg(0) + 1 of them, but the pendant's degree differs
    [(0, 1), (0, 2), (1, 2), (0, 3)],
    # two equal-size cliques joined by one edge that misses both smallest
    # vertices: {0, 1, 2} is labelled 0 and of size deg(0) + 1
    [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (1, 4)],
    # a vertex adjacent only to another clique's smallest vertex, below it:
    # {0, 1} is labelled 0 and of size deg(0) + 1, and vertex 1 is no head
    [(0, 1), (1, 2), (1, 3), (2, 3)],
])
def test_clique_scan_needs_more_than_labels(edges):
    # none of these components is a clique, though each passes a test on
    # labels and sizes alone; a true clique beside them is still found
    n = max(map(max, edges)) + 1
    g = Graph.from_edges(n + 2, edges + [(n, n + 1)])
    assert scanned_components(g) == [1 << n | 1 << n + 1]
    assert oracles.clique_components_bfs(g) == [1 << n | 1 << n + 1]
    assert not is_cluster_graph(g)
