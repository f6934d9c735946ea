"""Exact solver: DP over cuts, cap semantics, verification, reporting."""
from __future__ import annotations

import itertools
import random

import pytest

import oracles
from cluedit import (Clustering, EditSet, Graph, Instance, Solution,
                     arc_cost, enumerate_k_cuts, solve_at_most_p,
                     solve_exact_p, verify_solution)
from cluedit import solver
from cluedit.graph import mask_of
from cluedit.solver import SolveStats, _dp_numpy, _dp_python, result_to_dict


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def triangles(t):
    edges = []
    for i in range(t):
        b = 3 * i
        edges += [(b, b + 1), (b + 1, b + 2), (b, b + 2)]
    return Graph.from_edges(3 * t, edges)


def test_frozen_small_cases():
    res = solve_exact_p(Instance(path(3), 2, 1, "exact"))
    assert res.answer and res.solution.cost == 1
    assert not solve_exact_p(Instance(path(3), 2, 0, "exact")).answer

    tri = triangles(1)
    res = solve_exact_p(Instance(tri, 3, 3, "exact"))
    assert res.answer and res.solution.cost == 3
    assert not solve_exact_p(Instance(tri, 3, 2, "exact")).answer

    res = solve_exact_p(Instance(path(4), 2, 2, "exact"))
    assert res.answer and res.solution.cost == 1
    assert res.stats.cuts_enumerated == 14


def test_twenty_triangles_through_rules():
    res = solve_exact_p(Instance(triangles(20), 20, 1, "exact"))
    assert res.answer and res.solution.cost == 0
    assert res.stats.rules_applied == ["rule3"] * 14
    assert verify_solution(Instance(triangles(20), 20, 1, "exact"),
                           res.solution)


def test_exhaustive_agreement_with_reference_n4():
    n = 4
    pairs = list(itertools.combinations(range(n), 2))
    for select in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if select >> i & 1]
        g = Graph.from_edges(n, edges)
        by = oracles.best_by_count(n, edges)
        for p in range(1, n + 1):
            for k in range(7):
                inst = Instance(g, p, k, "exact")
                res = solve_exact_p(inst)
                opt = by[p]
                assert res.answer == (opt is not None and opt <= k)
                if res.answer:
                    assert res.solution.cost == opt
                    assert verify_solution(inst, res.solution)


def test_at_most_agreement_with_reference():
    rng = random.Random(83)
    for _ in range(15):
        n = rng.randint(1, 7)
        edges = oracles.random_edges(rng, n, rng.uniform(0.2, 0.8))
        g = Graph.from_edges(n, edges)
        for p in (1, 2, n):
            for k in range(6):
                inst = Instance(g, p, k, "at_most")
                res = solve_at_most_p(inst)
                opt = oracles.best_cost(n, edges, p, "at_most")
                assert res.answer == (opt is not None and opt <= k)
                if res.answer:
                    assert res.solution.cost == opt
                    assert verify_solution(inst, res.solution)


def test_mode_mismatch_raises():
    inst = Instance(path(3), 2, 1, "exact")
    with pytest.raises(ValueError, match="at-most|at_most"):
        solve_at_most_p(inst)
    with pytest.raises(ValueError, match="exact"):
        solve_exact_p(Instance(path(3), 2, 1, "at_most"))


def test_cap_override_aborts():
    res = solve_exact_p(Instance(path(4), 2, 2, "exact"), cap=1)
    assert not res.answer and res.stats.aborted
    # generous cap restores the answer
    res2 = solve_exact_p(Instance(path(4), 2, 2, "exact"), cap=10 ** 6)
    assert res2.answer and not res2.stats.aborted


def test_python_dp_route_on_wide_graphs():
    # 8 triangles leave 24 vertices when no rule fires (p = 6 <= 6k), so
    # the flow-based enumeration and the arc DP run at n = 24
    g = triangles(8)
    res = solve_exact_p(Instance(g, 6, 1, "exact"))
    assert not res.answer
    res2 = solve_exact_p(Instance(g, 8, 1, "exact"))
    assert res2.answer and res2.solution.cost == 0


def _dp_cases(rng):
    """(graph, k, cluster counts): dense random graphs, planted
    clusterings for every n from 0 to 24, equal cliques (many cuts of one
    size), and a chain of five 14-cliques (n = 70, past one 64-bit word)."""
    for _ in range(20):
        n = rng.randint(2, 7)
        g = Graph.from_edges(n, oracles.random_edges(rng, n, 0.5))
        yield g, rng.randint(0, 4), {1, rng.randint(1, n), n}
    for n in range(25):
        blocks = oracles.random_blocks(rng, n, max(1, n // 4)) if n else []
        edges = oracles.perturb(rng, n, oracles.blocks_to_edges(blocks),
                                min(n * (n - 1) // 2, 2))
        p = len(blocks)
        yield Graph.from_edges(n, edges), rng.randint(0, 3), {1, p, p + 1}
    yield triangles(4), 3, {3, 4, 5}
    cliques = [list(range(14 * i, 14 * i + 14)) for i in range(5)]
    joins = [(14 * i + 13, 14 * i + 14) for i in range(4)]
    yield (Graph.from_edges(70, oracles.blocks_to_edges(cliques) + joins), 4,
           {4, 5, 6})


def test_dp_backends_agree(monkeypatch):
    # the arc DP must reproduce the reference chain (hence its tie-break)
    # and state count, whatever the block size: one target per block, at
    # least three, or the default
    rng = random.Random(89)
    for g, k, counts in _dp_cases(rng):
        cuts = enumerate_k_cuts(g, k)
        for p in sorted(counts):
            want_stats = SolveStats()
            want = _dp_python(g, cuts, p, k, want_stats)
            for block in (1, 3 * len(cuts) * (g.n + 3), solver._ARC_BLOCK):
                monkeypatch.setattr(solver, "_ARC_BLOCK", block)
                stats = SolveStats()
                assert _dp_numpy(g, cuts, p, k, stats) == want
                assert stats.dp_states == want_stats.dp_states


def test_arc_cost_chain_telescopes_to_editing_cost():
    # summing arc costs along a chain of nested cuts must equal the cost of
    # the partition formed by the successive differences
    rng = random.Random(97)
    for _ in range(25):
        n = rng.randint(2, 8)
        edges = oracles.random_edges(rng, n, 0.5)
        g = Graph.from_edges(n, edges)
        p = rng.randint(1, n)
        blocks = oracles.random_blocks(rng, n, p)
        chain = [0]
        for block in blocks:
            chain.append(chain[-1] | mask_of(block))
        total = sum(arc_cost(g, a, b) for a, b in zip(chain, chain[1:]))
        assert total == oracles.editing_cost(n, edges, blocks)


def test_verify_solution_rejects_bad_certificates():
    g = path(3)
    inst = Instance(g, 2, 1, "exact")
    good = solve_exact_p(inst).solution
    assert verify_solution(inst, good)
    # wrong cost
    assert not verify_solution(inst, Solution(good.clustering, good.edits, 0))
    # edits do not produce the claimed clustering
    other = Clustering.from_blocks(3, [[0], [1, 2]])
    if other.cluster_masks() != good.clustering.cluster_masks():
        assert not verify_solution(inst, Solution(other, good.edits,
                                                  good.cost))
    # cluster count differs from p
    assert not verify_solution(Instance(g, 3, 1, "exact"), good)
    # budget exceeded
    assert not verify_solution(Instance(g, 2, 0, "exact"), good)


def test_result_to_dict_shapes():
    inst = Instance(path(3), 2, 1, "exact")
    res = solve_exact_p(inst)
    d = result_to_dict(res, inst.g, base=1)
    assert d["answer"] == "yes" and d["cost"] == 1
    assert all(min(c) >= 1 for c in d["clusters"])
    assert d["additions"] == [] and len(d["deletions"]) == 1
    assert set(d["stats"]) == {"cuts_enumerated", "dp_states",
                               "rules_applied", "aborted"}
    no = solve_exact_p(Instance(path(3), 2, 0, "exact"))
    dn = result_to_dict(no, inst.g)
    assert dn["answer"] == "no" and dn["cost"] is None and dn["clusters"] == []


def test_zero_p_degenerate_cases():
    assert solve_exact_p(Instance(Graph.empty(0), 0, 0, "exact")).answer
    assert not solve_exact_p(Instance(Graph.empty(2), 0, 5, "exact")).answer
    assert solve_at_most_p(Instance(Graph.empty(0), 0, 0, "at_most")).answer
    assert not solve_at_most_p(Instance(Graph.empty(2), 0, 5, "at_most")).answer
