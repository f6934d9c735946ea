"""Ordered k-cut enumeration and the counting bounds."""
from __future__ import annotations

import itertools
import random
import tracemalloc

import numpy as np
import pytest

import oracles
from cluedit import (Graph, cut_count_bound, edges_inside_table,
                     enumerate_k_cuts)
from cluedit import cuts


def triangle() -> Graph:
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def as_pairs(index):
    return set(zip(oracles.cut_masks(index), index.crossing_counts.tolist()))


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


def _ranges(lo, hi, leaf):
    """The vertex ranges a list of [lo, hi) is joined from, [lo, hi)
    first, each with its two halves or None for a table range."""
    if hi - lo <= leaf:
        return [(lo, hi, None)]
    mid = (lo + hi) // 2
    return [(lo, hi, mid)] + _ranges(lo, mid, leaf) + _ranges(mid, hi, leaf)


def test_one_route_matches_brute_cuts(monkeypatch):
    # at the default LEAF, and at LEAF = 1 where every list is joined from
    # single vertices, one high cut per block of pairs: the brute cuts in
    # mask order with their crossing and inside counts; None exactly when
    # the list of the graph, or of a range it is joined from, is longer
    # than the cap; and the counters add up the table masks and join
    # pairs scored
    rng = random.Random(61)
    graphs = [Graph.empty(0), triangle()]
    for _ in range(40):
        n = rng.randint(1, 12)
        graphs.append(Graph.from_edges(
            n, oracles.random_edges(rng, n, rng.uniform(0.1, 0.9))))
    aborts = set()
    for g in graphs:
        edges = list(g.edges())
        for k in range(5):
            brute = oracles.ordered_cuts(g.n, edges, k)
            count = {(0, g.n): len(brute)}  # k-cuts of G[lo:hi]
            for leaf, pairs in ((cuts.LEAF, cuts._PAIRS), (1, 1)):
                monkeypatch.setattr(cuts, "LEAF", leaf)
                monkeypatch.setattr(cuts, "_PAIRS", pairs)
                ranges = _ranges(0, g.n, leaf)
                for lo, hi, _ in ranges:
                    if (lo, hi) not in count:
                        inner = [(u - lo, v - lo) for u, v in edges
                                 if lo <= u and v < hi]
                        count[lo, hi] = len(
                            oracles.ordered_cuts(hi - lo, inner, k))
                listed = [count[lo, hi] for lo, hi, _ in ranges]
                for cap in (3, 10, 40, None):
                    index = enumerate_k_cuts(g, k, cap)
                    if cap is not None and max(listed) > cap:
                        assert index is None
                        aborts.add((leaf, len(brute) <= cap))
                        continue
                    assert oracles.cut_masks(index) == [m for m, _ in brute]
                    assert index.crossing_counts.tolist() == [
                        c for _, c in brute]
                    assert index.inside_counts.tolist() == [
                        sum(1 for u, v in edges if m >> u & 1 and m >> v & 1)
                        for m, _ in brute]
                    explored = sum(1 << hi - lo if mid is None
                                   else count[lo, mid] * count[mid, hi]
                                   for lo, hi, mid in ranges)
                    assert index.stats.explored == explored
                    assert index.stats.pruned == explored - sum(listed)
                    assert index.stats.emitted == len(brute)
    # aborts on a whole list past the cap and on a half's list alone
    assert {(1, True), (1, False), (cuts.LEAF, False)} <= aborts


def test_flow_route_agrees_beyond_the_table_threshold():
    # kernels past LEAF once branched on a max-flow test; now a 17-vertex
    # graph is joined from the tables of its halves of 8 and 9 vertices,
    # and must give the brute cuts in mask order with their counts
    rng = random.Random(43)
    n = 17
    edges = oracles.random_edges(rng, n, 0.12)
    g = Graph.from_edges(n, edges)
    brute = oracles.ordered_cuts(n, edges, 2)
    index = enumerate_k_cuts(g, 2)
    assert oracles.cut_masks(index) == [m for m, _ in brute]
    assert index.crossing_counts.tolist() == [c for _, c in brute]
    assert index.inside_counts.tolist() == [
        sum(1 for u, v in edges if m >> u & 1 and m >> v & 1)
        for m, _ in brute]
    halves = [len(oracles.ordered_cuts(hi - lo, [
        (u - lo, v - lo) for u, v in edges if lo <= u and v < hi], 2))
        for lo, hi in ((0, 8), (8, n))]
    assert index.stats.explored == (1 << 8) + (1 << 9) + halves[0] * halves[1]
    assert index.stats.emitted == len(brute)
    # a cap under a half's list aborts even where the whole list fits
    assert enumerate_k_cuts(g, 2, max(halves) - 1) is None


def test_filter_route_matches_flow_route(monkeypatch):
    # on kernels of 13 to LEAF vertices, too large for the brute cuts of
    # the test above but still one table, the table's filter of the 2^n
    # masks and the joins from single vertices at LEAF = 1 give the same
    # cuts, order and counts; where the table aborts, so does the join
    rng = random.Random(67)
    runs = []
    cases = []
    for _ in range(6):
        n = rng.randint(13, cuts.LEAF)
        g = Graph.from_edges(n, oracles.random_edges(
            rng, n, rng.uniform(0.1, 0.5)))
        cases += [(g, k, cap) for k in range(4) for cap in (200, None)]
    for leaf, pairs in ((cuts.LEAF, cuts._PAIRS), (1, 1)):
        monkeypatch.setattr(cuts, "LEAF", leaf)
        monkeypatch.setattr(cuts, "_PAIRS", pairs)
        runs.append([enumerate_k_cuts(g, k, cap) for g, k, cap in cases])
    for (g, k, cap), table, joined in zip(cases, *runs):
        if table is None:
            assert joined is None and cap is not None
            continue
        if joined is None:
            assert cap is not None
            continue
        assert oracles.cut_masks(joined) == oracles.cut_masks(table)
        assert np.array_equal(joined.crossing_counts, table.crossing_counts)
        assert np.array_equal(joined.inside_counts, table.inside_counts)
        assert table.stats.explored == 1 << g.n
    assert sum(joined is not None for joined in runs[1]) > len(cases) // 2


def test_long_path_enumerates_without_recursion():
    # 1500 vertices, more than Python's recursion limit: the halving goes
    # only log2(1500 / LEAF) ranges deep
    n = 1500
    g = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
    index = enumerate_k_cuts(g, 0)
    assert oracles.cut_masks(index) == [0, (1 << n) - 1]
    assert index.crossing_counts.tolist() == [0, 0]


def test_triangle_frozen_counts():
    assert as_pairs(enumerate_k_cuts(triangle(), 0)) == {(0, 0), (0b111, 0)}
    assert len(enumerate_k_cuts(triangle(), 1)) == 2
    assert len(enumerate_k_cuts(triangle(), 2)) == 8
    assert len(enumerate_k_cuts(triangle(), 3)) == 8


def test_output_order_and_determinism(monkeypatch):
    # tables and joins list the cuts by side-1 mask, so the order is a
    # property of the cut set and not of how the ranges were split
    for leaf in (cuts.LEAF, 1):
        monkeypatch.setattr(cuts, "LEAF", leaf)
        rng = random.Random(47)
        for _ in range(10):
            n = rng.randint(2, 7)
            edges = oracles.random_edges(rng, n, 0.5)
            g = Graph.from_edges(n, edges)
            k = rng.randint(1, 4)
            a = enumerate_k_cuts(g, k)
            b = enumerate_k_cuts(g, k)
            masks = oracles.cut_masks(a)
            assert masks == oracles.cut_masks(b)
            assert np.array_equal(a.crossing_counts, b.crossing_counts)
            assert masks == sorted(masks)
            brute = dict(oracles.ordered_cuts(n, edges, k))
            assert a.crossing_counts.tolist() == [brute[m] for m in masks]


def test_cap_abort_and_argument_guards():
    assert enumerate_k_cuts(triangle(), 2, cap=3) is None
    assert enumerate_k_cuts(triangle(), 2, cap=8) is not None
    # K_{1,17} with its centre at id 17 has 2 cuts at k = 0, but the lower
    # half it is joined from, 9 lone leaves, has 512
    star = Graph.from_edges(18, [(v, 17) for v in range(17)])
    assert enumerate_k_cuts(star, 0, cap=511) is None
    assert len(enumerate_k_cuts(star, 0, cap=512)) == 2
    with pytest.raises(ValueError, match="cap"):
        enumerate_k_cuts(triangle(), 2, cap=0)
    with pytest.raises(ValueError, match="k"):
        enumerate_k_cuts(triangle(), -1)


def test_two_bridged_cliques_have_four_cuts():
    # two 100-cliques joined by one edge: with k = 1 only the trivial cuts
    # and the two sides of the bridge survive the joins
    side = 100
    edges = [(u, v) for base in (0, side)
             for u in range(base, base + side) for v in range(u + 1, base + side)]
    g = Graph.from_edges(2 * side, edges + [(side - 1, side)])
    index = enumerate_k_cuts(g, 1)
    a = (1 << side) - 1
    assert oracles.cut_masks(index) == [0, a, a << side, (1 << 2 * side) - 1]
    assert index.crossing_counts.tolist() == [0, 1, 1, 0]


def _planted(rng, n, p, t):
    """A p-clustering of n vertices with t vertex pairs toggled, drawn as
    the benchmark's planted workloads draw it."""
    labels = list(range(p)) + [rng.randrange(p) for _ in range(n - p)]
    rng.shuffle(labels)
    pairs = list(itertools.combinations(range(n), 2))
    toggled = set(rng.sample(pairs, t))
    return Graph.from_edges(n, [e for e in pairs if (
        labels[e[0]] == labels[e[1]]) != (e in toggled)])


def test_join_memory_stays_near_its_result():
    # the planted point p = k = 8, n = 24 joins two 12-vertex halves of
    # 4096 cuts each: scored at once, their 2^24 pairs would take 128 MiB
    # of float64, but blocks of _PAIRS pairs keep the peak at a few copies
    # of the 136,896 cuts listed (3.1 MiB); 16.2 MiB measured
    g = _planted(random.Random(2), 24, 8, 8)
    tracemalloc.start()
    try:
        index = enumerate_k_cuts(g, 8, cut_count_bound(8, 8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(index) == 136896
    assert index.stats.explored == 2 * 4096 + 4096 * 4096
    assert index.stats.pruned == index.stats.explored - 2 * 4096 - len(index)
    assert peak < 24 << 20


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
    masks = oracles.cut_masks(index)
    assert masks == list(range(1 << n))
    edges = list(g.edges())
    assert index.crossing_counts.tolist() == [
        oracles.crossing_count(n, edges, m) for m in masks]


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


@pytest.mark.parametrize("leaf", [cuts.LEAF, 1], ids=["default", "leaf1"])
def test_cut_index_arrays_hold_sorted_cuts(monkeypatch, leaf):
    # side 1 of each cut is one row of uint64 words, in ascending mask
    # order, and the crossing and inside counts are int64
    monkeypatch.setattr(cuts, "LEAF", leaf)
    for g, k in _cut_graphs():
        index = enumerate_k_cuts(g, k)
        assert index.words.dtype == np.uint64
        assert index.words.shape == (len(index), max(1, -(-g.n // 64)))
        for counts in (index.crossing_counts, index.inside_counts):
            assert counts.dtype == np.int64
            assert counts.shape == (len(index),)
        masks = oracles.cut_masks(index)
        assert masks == sorted(set(masks))
        edges = list(g.edges())
        assert index.crossing_counts.tolist() == [
            oracles.crossing_count(g.n, edges, mask) for mask in masks]


@pytest.mark.parametrize("leaf", [cuts.LEAF, 1], ids=["default", "leaf1"])
def test_inside_counts_match_a_brute_edge_count(monkeypatch, leaf):
    monkeypatch.setattr(cuts, "LEAF", leaf)
    for g, k in _cut_graphs():
        edges = list(g.edges())
        index = enumerate_k_cuts(g, k)
        assert index.inside_counts.tolist() == [
            sum(1 for u, v in edges if mask >> u & 1 and mask >> v & 1)
            for mask in oracles.cut_masks(index)]


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
