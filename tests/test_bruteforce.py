"""The exhaustive cluster-editing oracle."""
from __future__ import annotations

import itertools
import random

import pytest

import oracles
from cluedit import Graph, ORACLE_LIMIT, oracle_best_cost


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for select in range(1 << len(pairs)):
        yield [pairs[i] for i in range(len(pairs)) if select >> i & 1]


def test_oracle_matches_reference_exhaustively():
    n = 4
    for edges in all_graphs(n):
        g = Graph.from_edges(n, edges)
        expect = oracles.best_by_count(n, edges)
        got = [oracle_best_cost(g, c) for c in range(g.n + 1)]
        assert got[1:] == expect[1:]
        for p in range(1, n + 1):
            assert oracle_best_cost(g, p) == expect[p]


def test_oracle_matches_reference_seeded():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(5, 7)
        edges = oracles.random_edges(rng, n, rng.uniform(0.2, 0.8))
        g = Graph.from_edges(n, edges)
        expect = oracles.best_by_count(n, edges)
        assert [oracle_best_cost(g, c) for c in range(g.n + 1)][1:] == expect[1:]


def test_oracle_at_most_is_min_over_counts():
    rng = random.Random(29)
    for _ in range(10):
        n = rng.randint(1, 6)
        g = Graph.from_edges(n, oracles.random_edges(rng, n, 0.5))
        by = [oracle_best_cost(g, c) for c in range(g.n + 1)]
        for p in range(1, n + 2):
            vals = [v for v in by[1:min(p, n) + 1] if v is not None]
            assert oracle_best_cost(g, p, "at_most") == min(vals)


def test_oracle_frozen_values():
    path3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert [oracle_best_cost(path3, c) for c in range(4)] == [None, 1, 1, 2]
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert oracle_best_cost(triangle, 1) == 0
    assert oracle_best_cost(triangle, 2) == 2
    assert oracle_best_cost(triangle, 3) == 3


def test_oracle_edge_cases():
    empty = Graph.empty(0)
    assert oracle_best_cost(empty, 0) == 0
    assert oracle_best_cost(empty, 1) is None
    one = Graph.empty(1)
    assert oracle_best_cost(one, 0) is None
    assert oracle_best_cost(one, 1) == 0
    assert oracle_best_cost(one, 2) is None  # p > n
    assert [oracle_best_cost(one, c) for c in range(2)] == [None, 0]


def test_oracle_guards():
    big = Graph.empty(ORACLE_LIMIT + 1)
    with pytest.raises(ValueError, match="limited"):
        oracle_best_cost(big, 1)
    with pytest.raises(ValueError, match="mode"):
        oracle_best_cost(Graph.empty(2), 1, "approx")
