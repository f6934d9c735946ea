"""Ordered k-cut enumeration, min-cut pruning and the counting bounds."""
from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

import oracles
from oracles import mask_of
from cluedit import (Graph, cut_count_bound, edges_inside_table,
                     enumerate_k_cuts, min_cut_leq)
from cluedit import cuts


def triangle() -> Graph:
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def as_pairs(index):
    return set(zip(index.masks, index.crossing))


def test_enumeration_matches_brute_filter_exhaustively():
    n = 4
    pairs = list(itertools.combinations(range(n), 2))
    for select in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if select >> i & 1]
        g = Graph.from_edges(n, edges)
        for k in range(5):
            index = enumerate_k_cuts(g, k)
            assert as_pairs(index) == set(oracles.ordered_cuts(n, edges, k))


def test_enumeration_matches_brute_filter_seeded():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(1, 8)
        edges = oracles.random_edges(rng, n, rng.uniform(0.2, 0.8))
        g = Graph.from_edges(n, edges)
        k = rng.randint(0, 5)
        index = enumerate_k_cuts(g, k)
        assert as_pairs(index) == set(oracles.ordered_cuts(n, edges, k))


def test_flow_route_agrees_beyond_the_table_threshold():
    # n = 17 graphs branch with the augmenting-path feasibility test
    # instead of filtering the 2^n masks; both must give the brute cut set
    rng = random.Random(43)
    n = 17
    edges = oracles.random_edges(rng, n, 0.12)
    g = Graph.from_edges(n, edges)
    index = enumerate_k_cuts(g, 2)
    assert as_pairs(index) == set(oracles.ordered_cuts(n, edges, 2))


def test_filter_route_matches_flow_route(monkeypatch):
    # the 2^n filter must give what the max-flow branching gives: same
    # cuts, same order, same crossing, same aborts, and both the brute set
    rng = random.Random(61)
    graphs = [Graph.empty(0), triangle()]
    for _ in range(40):
        n = rng.randint(1, 12)
        graphs.append(Graph.from_edges(
            n, oracles.random_edges(rng, n, rng.uniform(0.1, 0.9))))
    cases = [(g, k, cap) for g in graphs for k in range(5)
             for cap in (40, None)]
    runs = []
    for filter_n in (cuts._FILTER_N, -1):
        monkeypatch.setattr(cuts, "_FILTER_N", filter_n)
        runs.append([enumerate_k_cuts(g, k, cap) for g, k, cap in cases])
    brute = {(id(g), k): oracles.ordered_cuts(g.n, list(g.edges()), k)
             for g in graphs for k in range(5)}
    for (g, k, cap), filtered, flow in zip(cases, *runs):
        if filtered is None or flow is None:
            assert filtered is flow
            assert len(brute[id(g), k]) > cap
            continue
        assert filtered.masks == flow.masks
        assert filtered.crossing == flow.crossing
        assert as_pairs(filtered) == set(brute[id(g), k])


def test_long_path_enumerates_without_recursion():
    # 1500 vertices: far beyond the filter, and deeper than Python's
    # recursion limit, so only an explicit stack gets through
    n = 1500
    g = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
    index = enumerate_k_cuts(g, 0)
    assert index.masks == [0, (1 << n) - 1]
    assert index.crossing == [0, 0]


def test_triangle_frozen_counts():
    assert as_pairs(enumerate_k_cuts(triangle(), 0)) == {(0, 0), (0b111, 0)}
    assert len(enumerate_k_cuts(triangle(), 1)) == 2
    assert len(enumerate_k_cuts(triangle(), 2)) == 8
    assert len(enumerate_k_cuts(triangle(), 3)) == 8


def test_output_order_and_determinism(monkeypatch):
    # both routes list the cuts by side-1 mask, so the order is a property
    # of the cut set and not of how the search found it
    for filter_n in (cuts._FILTER_N, -1):
        monkeypatch.setattr(cuts, "_FILTER_N", filter_n)
        rng = random.Random(47)
        for _ in range(10):
            n = rng.randint(2, 7)
            edges = oracles.random_edges(rng, n, 0.5)
            g = Graph.from_edges(n, edges)
            k = rng.randint(1, 4)
            a = enumerate_k_cuts(g, k)
            b = enumerate_k_cuts(g, k)
            assert a.masks == b.masks and a.crossing == b.crossing
            assert a.masks == sorted(a.masks)
            brute = dict(oracles.ordered_cuts(n, edges, k))
            assert a.crossing == [brute[m] for m in a.masks]


def test_cap_abort_and_argument_guards():
    assert enumerate_k_cuts(triangle(), 2, cap=3) is None
    assert enumerate_k_cuts(triangle(), 2, cap=8) is not None
    with pytest.raises(ValueError, match="cap"):
        enumerate_k_cuts(triangle(), 2, cap=0)
    with pytest.raises(ValueError, match="k"):
        enumerate_k_cuts(triangle(), -1)


def test_pruning_never_wastes_a_subtree(monkeypatch):
    # the max-flow test keeps a branch only if some completion is a k-cut,
    # so no kept branch has both children pruned: by induction on depth,
    # every kept subtree emits, which is the polynomial-delay argument
    monkeypatch.setattr(cuts, "_FILTER_N", -1)
    rng = random.Random(53)
    for _ in range(20):
        n = rng.randint(1, 9)
        g = Graph.from_edges(n, oracles.random_edges(rng, n, rng.random()))
        index = enumerate_k_cuts(g, rng.randint(0, 6))
        assert index.stats.dead_ends == 0
        assert index.stats.emitted == len(index)


def test_min_cut_leq_matches_brute_force():
    rng = random.Random(59)
    for _ in range(40):
        n = rng.randint(2, 9)
        edges = oracles.random_edges(rng, n, rng.uniform(0.1, 0.7))
        g = Graph.from_edges(n, edges)
        vs = rng.sample(range(n), rng.randint(2, min(4, n)))
        half = len(vs) // 2 or 1
        a, b = mask_of(vs[:half]), mask_of(vs[half:])
        true_cut = oracles.min_cut(n, edges, a, b)
        for k in range(0, 7):
            assert min_cut_leq(g, a, b, k) == (true_cut <= k)


def test_min_cut_leq_matches_dict_reference():
    # 17-60 vertices: beyond the 2^n brute force, so the bitmask flow is
    # compared with the dict-based max-flow it replaced
    rng = random.Random(67)
    answers = set()
    for _ in range(60):
        n = rng.randint(17, 60)
        density = rng.choice((0.04, 0.08, 0.15, 0.3, 0.6))
        g = Graph.from_edges(n, oracles.random_edges(rng, n, density))
        vs = rng.sample(range(n), rng.randint(1, 8) + rng.randint(1, 8))
        half = rng.randint(1, len(vs) - 1)
        a, b = mask_of(vs[:half]), mask_of(vs[half:])
        for k in range(13):
            got = min_cut_leq(g, a, b, k)
            assert got == oracles.min_cut_leq_dict(g, a, b, k)
            answers.add(got)
    assert answers == {True, False}


def test_two_bridged_cliques_have_four_cuts():
    # two 100-cliques joined by one edge: with k = 1 only the trivial cuts
    # and the two sides of the bridge survive the branching
    side = 100
    edges = [(u, v) for base in (0, side)
             for u in range(base, base + side) for v in range(u + 1, base + side)]
    g = Graph.from_edges(2 * side, edges + [(side - 1, side)])
    index = enumerate_k_cuts(g, 1)
    a = (1 << side) - 1
    assert index.masks == [0, a, a << side, (1 << 2 * side) - 1]
    assert index.crossing == [0, 1, 1, 0]


def test_min_cut_leq_disconnected_sides():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert min_cut_leq(g, mask_of([0]), mask_of([2]), 0)
    assert not min_cut_leq(triangle(), mask_of([0]), mask_of([2]), 1)


def test_min_cut_leq_rejects_sides_outside_the_graph():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    for a, b in ((1, 1 << 5), (1 << 5, 1), (1, -4), (-1, 4), (1, 1)):
        for k in (0, 1):
            with pytest.raises(ValueError, match="disjoint vertex masks"):
                min_cut_leq(path, a, b, k)


def test_edges_inside_table():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    table = edges_inside_table(g)
    for mask in range(1 << 4):
        inside = sum(1 for u, v in g.edges()
                     if mask >> u & 1 and mask >> v & 1)
        assert table[mask] == inside


def complete(n) -> Graph:
    return Graph.from_edges(n, list(itertools.combinations(range(n), 2)))


def test_filter_route_on_the_largest_complete_kernel():
    # K16 at k = 120 = m: every one of the 2^16 masks is a cut, and the
    # table's narrow dtype must not wrap any crossing count
    n = 16
    g = complete(n)
    index = enumerate_k_cuts(g, g.m)
    assert len(index) == 1 << n and index.stats.pruned == 0
    assert sorted(index.masks) == list(range(1 << n))
    edges = list(g.edges())
    assert index.crossing == [oracles.crossing_count(n, edges, m)
                              for m in index.masks]


@pytest.mark.parametrize("n, dtype", [(23, np.uint8), (24, np.uint16)])
def test_edges_inside_table_dtype_boundary(n, dtype):
    # K23 has m = 253, the last that fits uint8; K24 has m = 276, and a
    # uint8 table would wrap at its full mask (numpy gives no warning)
    g = complete(n)
    table = edges_inside_table(g)
    assert table.dtype == dtype
    size = np.bitwise_count(np.arange(1 << n, dtype=np.uint32)).astype(np.int16)
    assert np.array_equal(table, size * (size - 1) // 2)
    edges = list(g.edges())
    rng = random.Random(83)
    for mask in [(1 << n) - 1, (1 << n) - 2] + rng.sample(range(1 << n), 50):
        assert table[mask] == sum(1 for u, v in edges
                                  if mask >> u & 1 and mask >> v & 1)


def _cut_graphs():
    rng = random.Random(89)
    side = 100
    two_cliques = [(u, v) for base in (0, side)
                   for u, v in itertools.combinations(range(base, base + side), 2)]
    yield Graph.empty(0), 0
    yield Graph.empty(1), 0
    for n in (16, 17):
        yield Graph.from_edges(n, oracles.random_edges(rng, n, 0.15)), 2
    yield Graph.from_edges(65, [(v, v + 1) for v in range(64)]), 1
    yield Graph.from_edges(2 * side, two_cliques + [(side - 1, side)]), 1


@pytest.mark.parametrize("filter_n", [cuts._FILTER_N + 1, -1],
                         ids=["filter", "flow"])
def test_cut_index_arrays_match_their_list_views(monkeypatch, filter_n):
    # on both routes: side 1 of each cut is one row of uint64 words, the
    # crossing and inside counts are int64, and the list views read the
    # same cuts
    monkeypatch.setattr(cuts, "_FILTER_N", filter_n)
    for g, k in _cut_graphs():
        index = enumerate_k_cuts(g, k)
        assert index.words.dtype == np.uint64
        assert index.words.shape == (len(index), max(1, -(-g.n // 64)))
        for counts in (index.crossing_counts, index.inside_counts):
            assert counts.dtype == np.int64
            assert counts.shape == (len(index),)
        assert index.masks == [sum(int(w) << 64 * i for i, w in enumerate(row))
                               for row in index.words]
        assert index.crossing == index.crossing_counts.tolist()


@pytest.mark.parametrize("filter_n", [cuts._FILTER_N + 1, -1],
                         ids=["filter", "flow"])
def test_inside_counts_match_a_brute_edge_count(monkeypatch, filter_n):
    monkeypatch.setattr(cuts, "_FILTER_N", filter_n)
    for g, k in _cut_graphs():
        edges = list(g.edges())
        index = enumerate_k_cuts(g, k)
        assert index.inside_counts.tolist() == [
            sum(1 for u, v in edges if mask >> u & 1 and mask >> v & 1)
            for mask in index.masks]


def test_cut_count_bound_frozen_values():
    # k = 0: p cliques have 2^p cuts of crossing 0
    assert [cut_count_bound(p, 0) for p in (1, 2, 3)] == [2, 4, 8]
    assert cut_count_bound(0, 5) == 1              # the empty graph's one cut
    assert cut_count_bound(1, 1) == 10             # f(0) + f(1) + f(2) = 2 + 2 + 6
    assert cut_count_bound(2, 1) == 40
    assert cut_count_bound(2, 4) == 1864
    assert cut_count_bound(4, 4) == 118384
    assert cut_count_bound(8, 8) == 55329212160    # about 2^35.7
    with pytest.raises(ValueError):
        cut_count_bound(-1, 2)


def test_cut_count_bound_covers_cluster_graphs():
    # a cluster graph of p cliques is a YES instance at any k, and its
    # cuts crossing at most 2k edges are exactly what the bound counts
    tight = 0
    for p in range(1, 4):
        for sizes in itertools.combinations_with_replacement(range(1, 7), p):
            blocks, start = [], 0
            for size in sizes:
                blocks.append(range(start, start + size))
                start += size
            g = Graph.from_edges(start, oracles.blocks_to_edges(blocks))
            for k in range(4):
                count = len(enumerate_k_cuts(g, 2 * k))
                assert count <= cut_count_bound(p, k), (sizes, k)
                tight += count == cut_count_bound(p, k)
    assert tight == 83  # of 332 cases: B is the exact maximum where it can be


def test_cut_count_bound_below_paper_bound():
    # the paper's cap ceil(2^(8 sqrt(2pk))); at k = 0 it is 1, below 2^p
    for p in range(17):
        for k in range(1, 17):
            assert oracles.leq_pow2_sqrt(cut_count_bound(p, k), 8, 2 * p * k), (p, k)


def test_cut_count_bound_monotone():
    for p in range(9):
        for k in range(9):
            assert type(cut_count_bound(p, k)) is int
            assert cut_count_bound(p, k) <= cut_count_bound(p + 1, k)
            assert cut_count_bound(p, k) <= cut_count_bound(p, k + 1)
