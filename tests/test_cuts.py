"""Ordered k-cut enumeration, min-cut pruning and the counting bounds."""
from __future__ import annotations

import itertools
import math
import random

import mpmath
import pytest

import oracles
from cluedit import (Graph, UNBOUNDED, binomial_bound_check, cut_count_bound,
                     edges_inside_table, enumerate_k_cuts, min_cut_leq)
from cluedit import cuts
from cluedit.graph import mask_of


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
    # n = 17 graphs use the augmenting-path feasibility test instead of the
    # subset table; both must produce the same cut sets
    rng = random.Random(43)
    n = 17
    edges = oracles.random_edges(rng, n, 0.12)
    g = Graph.from_edges(n, edges)
    index = enumerate_k_cuts(g, 2)
    assert as_pairs(index) == set(oracles.ordered_cuts(n, edges, 2))


def test_table_route_matches_flow_route(monkeypatch):
    # the completion tables must make every branch decision the max-flow
    # test makes: same cuts, same order, same crossing, same counters
    rng = random.Random(61)
    graphs = [Graph.empty(0), triangle()]
    for _ in range(40):
        n = rng.randint(1, 12)
        graphs.append(Graph.from_edges(
            n, oracles.random_edges(rng, n, rng.uniform(0.1, 0.9))))
    runs = []
    for table_n in (cuts._TABLE_N, -1):
        monkeypatch.setattr(cuts, "_TABLE_N", table_n)
        runs.append([enumerate_k_cuts(g, k, cap)
                     for g in graphs for k in range(5) for cap in (40, UNBOUNDED)])
    for table, flow in zip(*runs):
        if table is None or flow is None:
            assert table is flow
            continue
        assert table.masks == flow.masks
        assert table.crossing == flow.crossing
        assert table.stats == flow.stats


def test_triangle_frozen_counts():
    assert as_pairs(enumerate_k_cuts(triangle(), 0)) == {(0, 0), (0b111, 0)}
    assert len(enumerate_k_cuts(triangle(), 1)) == 2
    assert len(enumerate_k_cuts(triangle(), 2)) == 8
    assert len(enumerate_k_cuts(triangle(), 3)) == 8


def test_output_order_and_determinism():
    rng = random.Random(47)
    for _ in range(10):
        n = rng.randint(2, 7)
        g = Graph.from_edges(n, oracles.random_edges(rng, n, 0.5))
        k = rng.randint(1, 4)
        a = enumerate_k_cuts(g, k)
        b = enumerate_k_cuts(g, k)
        assert a.masks == b.masks and a.crossing == b.crossing
        sizes = [m.bit_count() for m in a.masks]
        assert sizes == sorted(sizes)


def test_cap_abort_and_argument_guards():
    assert enumerate_k_cuts(triangle(), 2, cap=3) is None
    assert enumerate_k_cuts(triangle(), 2, cap=8) is not None
    with pytest.raises(ValueError, match="cap"):
        enumerate_k_cuts(triangle(), 2, cap=0)
    with pytest.raises(ValueError, match="k"):
        enumerate_k_cuts(triangle(), -1)


def test_pruning_never_wastes_a_subtree():
    # the feasibility test keeps a branch only if some completion is a
    # k-cut, so every surviving subtree emits: that is the polynomial-delay
    # argument, visible as zero_emit_subtrees == 0
    rng = random.Random(53)
    for _ in range(20):
        n = rng.randint(1, 9)
        g = Graph.from_edges(n, oracles.random_edges(rng, n, rng.random()))
        index = enumerate_k_cuts(g, rng.randint(0, 6))
        assert index.stats.zero_emit_subtrees == 0
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


def test_min_cut_leq_disconnected_sides():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert min_cut_leq(g, mask_of([0]), mask_of([2]), 0)
    assert not min_cut_leq(triangle(), mask_of([0]), mask_of([2]), 1)


def test_edges_inside_table():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    table = edges_inside_table(g)
    for mask in range(1 << 4):
        inside = sum(1 for u, v in g.edges()
                     if mask >> u & 1 and mask >> v & 1)
        assert table[mask] == inside


def test_cut_count_bound_frozen_values():
    assert cut_count_bound(2, 1) == 65536          # exponent 8*sqrt(4) = 16
    assert cut_count_bound(1, 1) == 2546           # ceil(2**(8*sqrt(2)))
    assert cut_count_bound(2, 4) == 1 << 32
    assert cut_count_bound(0, 5) == 1
    assert cut_count_bound(3, 0) == 1
    assert cut_count_bound(8, 8) == UNBOUNDED      # exponent 8*sqrt(128) > 63
    assert math.isinf(UNBOUNDED)
    with pytest.raises(ValueError):
        cut_count_bound(-1, 2)


def test_cut_count_bound_against_high_precision():
    with mpmath.workdps(80):
        for p in range(5):
            for k in range(5):
                expect = int(mpmath.ceil(mpmath.power(
                    2, 8 * mpmath.sqrt(2 * p * k))))
                got = cut_count_bound(p, k)
                if got != UNBOUNDED:
                    assert got == expect


def test_cut_count_bound_monotone():
    grid = [cut_count_bound(p, k) for p in range(6) for k in range(6)]
    for p in range(5):
        for k in range(5):
            assert cut_count_bound(p, k) <= cut_count_bound(p + 1, k)
            assert cut_count_bound(p, k) <= cut_count_bound(p, k + 1)
    assert grid  # silence unused warnings


def test_binomial_bound_check_small():
    assert binomial_bound_check(8)
