"""Exact solver: DP over cuts, cap semantics, verification, reporting."""
from __future__ import annotations

import itertools
import random
import time

import numpy as np
import pytest

import oracles
from oracles import arc_cost, mask_of
from cluedit import (Clustering, CutIndex, Graph, Instance, Solution,
                     cut_count_bound, enumerate_k_cuts, solve_at_most_p,
                     solve_exact_p, verify_solution)
from cluedit import solver
from cluedit.bruteforce import oracle_best_cost
from cluedit.cuts import _keys, _lowest, _mask, _words
from cluedit.graph import (apply_edits, bits, clustering_to_edit_set,
                           format_graph, parse_graph)
from cluedit.solver import (SolveResult, SolveStats, _dp_numpy,
                            result_to_dict)


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


def clique_union_with_core(rng):
    """0-5 cliques of size 1-3 plus a random core of up to 4 vertices, n <= 8."""
    while True:
        blocks, n = [], 0
        for _ in range(rng.randint(0, 5)):
            size = rng.randint(1, 3)
            blocks.append(list(range(n, n + size)))
            n += size
        core = rng.randint(0, 4)
        edges = oracles.blocks_to_edges(blocks) + [
            (n + u, n + v) for u, v in oracles.random_edges(rng, core, 0.5)]
        if n + core <= 8:
            return n + core, edges


def test_at_most_one_pass_matches_exact_loop(monkeypatch):
    calls = []
    enumerate_once = solver.enumerate_k_cuts

    def counted(*args):
        calls.append(args)
        return enumerate_once(*args)

    rng = random.Random(101)
    solves = peeled = 0
    for _ in range(120):
        n, edges = clique_union_with_core(rng)
        g = Graph.from_edges(n, edges)
        by = oracles.best_by_count(n, edges)
        for k, p in itertools.product(range(3), range(1, n + 2)):
            inst = Instance(g, p, k, "at_most")
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(solver, "enumerate_k_cuts", counted)
                res = solve_at_most_p(inst)
            assert len(calls) <= 1
            loop = oracles.at_most_by_exact_loop(inst)
            costs = [c for c in by[:p + 1] if c is not None]
            opt = min(costs) if costs else None
            want = opt is not None and opt <= k
            assert res.answer == loop.answer == want, (n, edges, p, k)
            if res.answer:
                assert res.solution.cost == loop.solution.cost == opt
                # the fewest clusters among the cheapest, as the loop finds
                assert (res.solution.clustering.c
                        == loop.solution.clustering.c)
                assert verify_solution(inst, res.solution)
            solves += 1
            peeled += p > 6 * k and bool(res.stats.rules_applied)
    # the rules peel in at-most mode, which the cap needs once p > 6k
    assert solves > 1500 and peeled > 400


def test_at_most_on_the_empty_graph():
    # zero clusters is at most p, at cost 0
    for p, k in ((1, 0), (2, 0), (3, 2)):
        inst = Instance(Graph.empty(0), p, k, "at_most")
        res = solve_at_most_p(inst)
        assert res.answer and res.solution.cost == 0
        assert res.solution.clustering.c == 0
        assert verify_solution(inst, res.solution)


def test_mode_mismatch_raises():
    inst = Instance(path(3), 2, 1, "exact")
    with pytest.raises(ValueError, match="at-most|at_most"):
        solve_at_most_p(inst)
    with pytest.raises(ValueError, match="exact"):
        solve_exact_p(Instance(path(3), 2, 1, "at_most"))


def test_cap_override_aborts(monkeypatch):
    # a YES instance: an abort under a cap below the counting bound is
    # unknown, not NO
    res = solve_exact_p(Instance(path(4), 2, 2, "exact"), cap=1)
    assert res.answer is None and res.stats.aborted
    assert result_to_dict(res, path(4))["answer"] == "unknown"
    # generous cap restores the answer
    res2 = solve_exact_p(Instance(path(4), 2, 2, "exact"), cap=10 ** 6)
    assert res2.answer and not res2.stats.aborted
    # more cuts than the counting bound allows is a proven NO, also under
    # a user cap at or above the bound
    monkeypatch.setattr(solver, "cut_count_bound", lambda p, k: 1)
    for cap in (None, 1, 2):
        res3 = solve_exact_p(Instance(path(4), 2, 2, "exact"), cap=cap)
        assert res3.answer is False and res3.stats.aborted
        assert result_to_dict(res3, path(4))["answer"] == "no"


def test_long_path_answers_no_from_its_class_count():
    # a 10^4-vertex path at p = 2, k = 1: no rule fires, and its n closed
    # rows are all distinct, more than 2k + p = 4 classes, so the solver
    # answers before it lists a cut; the count stops at the fifth class
    g = path(10 ** 4)
    start = time.perf_counter()
    res = solve_exact_p(Instance(g, 2, 1, "exact"))
    assert time.perf_counter() - start < 1
    assert res.answer is False and not res.stats.aborted
    assert res.stats.no_reason == "class_count"
    assert res.stats.cuts_enumerated == 0


def test_disjoint_edges_abort_at_their_join():
    # 10 disjoint edges at p = 2, k = 4: 10 closed-twin classes, at most
    # 2k + p, and no conflict triple, so neither early bound settles it.
    # Each 10-vertex half lists 2^5 * (C(5, 0) + .. + C(5, 4)) = 992 cuts,
    # under the counting bound of 1864, and their join passes the bound,
    # which proves NO; under a cap below the bound the same abort is
    # unknown
    g = Graph.from_edges(20, [(2 * i, 2 * i + 1) for i in range(10)])
    assert cut_count_bound(2, 4) == 1864
    assert len(enumerate_k_cuts(Graph.from_edges(
        10, [(2 * i, 2 * i + 1) for i in range(5)]), 4)) == 992
    res = solve_exact_p(Instance(g, 2, 4, "exact"))
    assert res.answer is False and res.stats.aborted
    assert res.stats.no_reason == "cut_bound"
    res = solve_exact_p(Instance(g, 2, 4, "exact"), cap=1863)
    assert res.answer is None and res.stats.aborted
    assert res.stats.no_reason is None


def test_python_dp_route_on_wide_graphs():
    # 8 triangles leave 24 vertices when no rule fires (p = 6 <= 6k), so
    # the enumeration joins two 12-vertex halves and the arc DP runs at
    # n = 24
    g = triangles(8)
    res = solve_exact_p(Instance(g, 6, 1, "exact"))
    assert not res.answer
    res2 = solve_exact_p(Instance(g, 8, 1, "exact"))
    assert res2.answer and res2.solution.cost == 0


def _dp_cases(rng):
    """(graph, k, cluster counts): dense random graphs, planted
    clusterings for every n from 0 to 24, equal cliques (many cuts of one
    size), chains of cliques on 64 and 65 vertices (one 64-bit word full,
    and one vertex past it) and on 70 vertices, a core past the first word
    that many chains reach, and a budget under which every mask is a
    cut."""
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
    for sizes in ((20, 20, 20, 4), (20, 20, 20, 5), (14,) * 5):
        n = sum(sizes)
        starts = list(itertools.accumulate(sizes, initial=0))
        cliques = [list(range(a, b)) for a, b in zip(starts, starts[1:])]
        joins = [(b - 1, b) for b in starts[1:-1]]
        g = Graph.from_edges(n, oracles.blocks_to_edges(cliques) + joins)
        yield g, 4, {len(sizes) - 1, len(sizes), len(sizes) + 1}
    # a random core on 60..65 behind three 20-cliques: two chains meet in
    # one prefix past the first word, so keys of two words pick the best
    cliques = [list(range(20 * i, 20 * i + 20)) for i in range(3)]
    core = [(60 + u, 60 + v)
            for u, v in oracles.random_edges(random.Random(2), 6, 0.6)]
    edges = oracles.blocks_to_edges(cliques) + [(19, 20), (39, 40), (59, 60)]
    yield Graph.from_edges(66, edges + core), 6, {4, 5, 7}
    # k >= C(n, 2): every mask is a cut, so every size class is full
    g = Graph.from_edges(7, oracles.random_edges(rng, 7, 0.5))
    yield g, 21, {1, 3, 7}


def test_dp_backends_agree():
    # the numpy DP must reproduce the python-int reference chain (hence its
    # tie-break) and state count in both modes
    rng = random.Random(89)
    for g, k, counts in _dp_cases(rng):
        cuts = enumerate_k_cuts(g, k)
        for p, at_most in itertools.product(counts, (False, True)):
            want_stats, stats = SolveStats(), SolveStats()
            chain = oracles.dp_reference(g, cuts, p, k, want_stats, at_most)
            assert _dp_numpy(g, cuts, p, k, stats, at_most) == chain
            assert stats.dp_states == want_stats.dp_states


def test_pruning_keeps_the_chain_and_drops_states():
    # a state or candidate that no chain within budget can hold is dropped,
    # so the chain is the one the DP without the filters returns, from no
    # more states
    rng = random.Random(89)
    for g, k, counts in _dp_cases(rng):
        cuts = enumerate_k_cuts(g, k)
        for p, at_most in itertools.product(counts, (False, True)):
            full_stats, stats = SolveStats(), SolveStats()
            chain = oracles.dp_reference(g, cuts, p, k, full_stats, at_most,
                                         prune=False)
            assert _dp_numpy(g, cuts, p, k, stats, at_most) == chain
            assert stats.dp_states <= full_stats.dp_states


@pytest.mark.parametrize("head", [1, 65])
def test_dp_never_joins_overlapping_sides(head):
    # a clique H on vertices 0..head-1, then a triangle a, b, z with one
    # edge from z into H.  On the full cut list an overlapping pair never
    # beats a disjoint one, so this sub-list leaves out {a, b}: the one
    # route from the prefix H + z to V is then the cluster {a, b, z}, which
    # shares z and fits the budget.  At head = 65 the sides span two words
    a, b, z = head, head + 1, head + 2
    n, full = head + 3, (1 << head + 3) - 1
    edges = list(itertools.combinations(range(head), 2)) + [
        (0, z), (a, b), (a, z), (b, z)]
    g = Graph.from_edges(n, edges)
    masks = [0, full ^ 1 << a ^ 1 << b, 1 << a | 1 << b | 1 << z, full]
    cuts = CutIndex(
        _words(masks, n),
        np.array([oracles.crossing_count(n, edges, m) for m in masks],
                 dtype=np.int64),
        np.array([sum(1 for u, v in edges if m >> u & 1 and m >> v & 1)
                  for m in masks], dtype=np.int64))
    want_stats, stats = SolveStats(), SolveStats()
    assert oracles.dp_reference(g, cuts, 2, head + 1, want_stats) is None
    assert _dp_numpy(g, cuts, 2, head + 1, stats) is None
    assert stats.dp_states == want_stats.dp_states


def test_one_arc_chain_per_partition():
    # with k = C(n, 2) every mask is a cut and every cluster a candidate
    # within budget, so the states are exactly the prefixes of the
    # canonical chains: the unions of the first j blocks of each partition,
    # its blocks listed by lowest vertex
    rng = random.Random(61)
    for n in range(1, 8):
        g = Graph.from_edges(n, oracles.random_edges(rng, n, 0.5))
        k = n * (n - 1) // 2
        cuts = enumerate_k_cuts(g, k)
        assert len(cuts) == 1 << n
        prefixes = {(0, 0)}
        for part in oracles.partitions(range(n)):
            union = 0
            for j, block in enumerate(sorted(part, key=min), 1):
                union |= mask_of(block)
                prefixes.add((j, union))
        for dp in (_dp_numpy, oracles.dp_reference):
            stats = SolveStats()
            assert dp(g, cuts, n, k, stats) is not None
            assert stats.dp_states == len(prefixes)


def test_cluster_weights_sum_to_twice_the_editing_cost():
    # each deleted edge lies on the boundaries of two clusters, so half the
    # summed weights of a partition's clusters is its editing cost
    rng = random.Random(71)
    for _ in range(30):
        n = rng.randint(1, 8)
        edges = oracles.random_edges(rng, n, rng.random())
        g = Graph.from_edges(n, edges)
        parts = list(oracles.partitions(range(n)))
        masks = [mask_of(block) for part in parts for block in part]
        # w(X) = |X| (|X| - 1) - 2 e(X) + crossing(X), as the DP takes it
        weight = {m: m.bit_count() * (m.bit_count() - 1)
                  - 2 * sum(1 for u, v in edges if m >> u & 1 and m >> v & 1)
                  + oracles.crossing_count(n, edges, m) for m in set(masks)}
        weights = [weight[m] for m in masks]
        starts = np.cumsum([0] + [len(part) for part in parts[:-1]])
        sums = np.add.reduceat(weights, starts)
        assert sums.tolist() == [2 * oracles.editing_cost(n, edges, part)
                                 for part in parts]


def test_mask_words_round_trip_across_word_boundaries():
    rng = random.Random(73)
    for n in (1, 63, 64, 65, 128, 130):
        masks = [0, (1 << n) - 1, 1 << (n - 1)] + [rng.getrandbits(n)
                                                   for _ in range(20)]
        words = _words(masks, n)
        assert words.shape == (len(masks), max(1, -(-n // 64)))
        assert [_mask(row) for row in words] == masks
        lowest = [(m & -m).bit_length() - 1 if m else n for m in masks]
        assert _lowest(words, n).tolist() == lowest
        keys = _keys(words)
        assert np.argsort(keys, kind="stable").tolist() == sorted(
            range(len(masks)), key=masks.__getitem__)


def _layer_optimum(g, cuts, p, k):
    """Cost of the chain `_dp_numpy` returns for exactly p clusters."""
    chain = _dp_numpy(g, cuts, p, k, SolveStats())
    if chain is None:
        return None
    return sum(arc_cost(g, a, b) for a, b in zip(chain, chain[1:]))


def test_canonical_chains_keep_every_layer_optimum():
    # one chain per clustering still reaches, at V, the optimum for every
    # cluster count: the brute-force optimum on small graphs, and the DP
    # over every nested pair (every cluster order) on the larger ones
    rng = random.Random(67)
    for _ in range(40):
        n = rng.randint(1, 8)
        g = Graph.from_edges(n, oracles.random_edges(rng, n, rng.random()))
        k = rng.randint(0, n * (n - 1) // 2)
        cuts = enumerate_k_cuts(g, k)
        for p in range(1, n + 1):
            best = oracle_best_cost(g, p)
            assert _layer_optimum(g, cuts, p, k) == (
                best if best <= k else None)
    for g, k, counts in _dp_cases(random.Random(89)):
        if g.n <= 8:
            continue
        cuts = enumerate_k_cuts(g, k)
        optima = oracles.chain_optima(g, oracles.cut_masks(cuts),
                                      max(counts), k)
        for p in counts:
            assert _layer_optimum(g, cuts, p, k) == optima[p]


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
    # clustering or edit graph on another vertex count
    assert not verify_solution(inst, Solution(
        Clustering.from_blocks(4, [[0, 1], [2, 3]]), good.edits, good.cost))
    wide = _widened(good.edits)
    assert not verify_solution(inst, Solution(good.clustering, wide, good.cost))
    # cost one below the edit count; an edit graph whose key is its pair
    # written reversed, or a self-loop (both keep m == cost)
    assert not verify_solution(inst, Solution(good.clustering, good.edits,
                                              good.edits.m - 1))
    (u, v), = good.edits.edges()
    for key in (v * 3 + u, u * 3 + u):
        bad = _with_key(good.edits, key)
        assert bad.m == good.cost
        assert not verify_solution(inst, Solution(good.clustering, bad,
                                                  good.cost))
    # cluster count differs from p
    assert not verify_solution(Instance(g, 3, 1, "exact"), good)
    # budget exceeded
    assert not verify_solution(Instance(g, 2, 0, "exact"), good)


def _with_key(g: Graph, key: int) -> Graph:
    """g with its first key replaced by *key*, in order: m stays."""
    return Graph(g.n, np.sort(np.append(g.keys[1:], key)))


def _widened(g: Graph) -> Graph:
    """g's edges on one more vertex."""
    return Graph.from_edges(g.n + 1, g.edges())


def _corruptions(sol: Solution, n: int):
    """Damaged copies of a solution: one per way a certificate can lie."""
    pairs = list(sol.edits.edges())
    blocks = [list(bits(mask)) for mask in sol.clustering.cluster_masks()]
    if pairs:
        dropped = Graph.from_edges(n, pairs[1:])
        yield Solution(sol.clustering, dropped, dropped.m)
    extra = next(((u, v) for u in range(n) for v in range(u + 1, n)
                  if not sol.edits.has_edge(u, v)), None)
    if extra is not None:
        added = Graph.from_edges(n, pairs + [extra])
        yield Solution(sol.clustering, added, added.m)
    yield Solution(sol.clustering, _widened(sol.edits), sol.cost)
    if sol.cost:
        yield Solution(sol.clustering, sol.edits, sol.edits.m - 1)
        # keys that are no pair u < v but keep m, and so the cost: the
        # first edit written reversed, or a self-loop in its place
        u, v = pairs[0]
        for key in (v * n + u, u * n + u):
            yield Solution(sol.clustering, _with_key(sol.edits, key), sol.cost)
    if len(blocks) >= 2:
        merged = Clustering.from_blocks(n, [blocks[0] + blocks[1]] + blocks[2:])
        yield Solution(merged, sol.edits, sol.cost)
        moved = [blocks[0][1:], blocks[1] + blocks[0][:1]] + blocks[2:]
        yield Solution(Clustering.from_blocks(n, moved), sol.edits, sol.cost)
    yield Solution(sol.clustering, sol.edits, sol.cost + 1)


def test_verify_solution_matches_component_reference():
    rng = random.Random(4321)
    yes = rejected = 0
    for _ in range(60):
        n = rng.randint(2, 8)
        edges = oracles.random_edges(rng, n, rng.uniform(0.2, 0.8))
        g = Graph.from_edges(n, edges)
        for mode in ("exact", "at_most"):
            inst = Instance(g, rng.randint(1, n), rng.randint(0, 6), mode)
            res = (solve_exact_p if mode == "exact" else solve_at_most_p)(inst)
            if not res.answer:
                continue
            yes += 1
            assert verify_solution(inst, res.solution)
            assert oracles.verify_solution_components(inst, res.solution)
            for bad in _corruptions(res.solution, n):
                for probe in (inst, Instance(g, inst.p, inst.k + 1, mode)):
                    assert not verify_solution(probe, bad)
                    assert not oracles.verify_solution_components(probe, bad)
                    rejected += 1
    assert yes >= 40 and rejected >= 100


def test_verify_solution_on_random_edit_sets_matches_component_reference():
    # random clusterings with their exact edit set, or with one pair of it
    # toggled, and costs and cluster counts right or off by one: the check
    # over keys agrees with the component check
    rng = random.Random(59)
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        n = rng.randint(1, 8)
        g = Graph.from_edges(n, oracles.random_edges(rng, n, rng.random()))
        cl = Clustering.from_blocks(n, oracles.random_blocks(
            rng, n, rng.randint(1, n)))
        edits = clustering_to_edit_set(g, cl)
        if n > 1 and rng.random() < 0.5:
            pair = rng.sample(range(n), 2)
            edits = apply_edits(edits, Graph.from_edges(n, [pair]))
        cost = edits.m + (rng.random() < 0.2)
        mode = rng.choice(("exact", "at_most"))
        inst = Instance(g, cl.c + rng.choice((-1, 0, 0, 1)),
                        rng.choice((cost, cost + 1)), mode)
        sol = Solution(cl, edits, cost)
        want = oracles.verify_solution_components(inst, sol)
        assert verify_solution(inst, sol) == want
        verdicts[want] += 1
    assert min(verdicts.values()) >= 100


def test_verify_solution_rejects_bad_edit_keys():
    # G: edges 0-1, 2-3 and 3-4 on n = 5; clusters {0, 1, 2} and {3, 4}:
    # add 0-2 and 1-2 and delete 2-3, keys 2, 7 and 13.  Each bad edit set
    # but the first three keeps the right edit count, cost and edge count
    n = 5
    g = Graph.from_edges(n, [(0, 1), (2, 3), (3, 4)])
    cl = Clustering.from_blocks(n, [[0, 1, 2], [3, 4]])

    def verdict(keys, p=2):
        edits = Graph(n, np.array(keys, np.int64))
        return verify_solution(Instance(g, p, 3, "exact"),
                               Solution(cl, edits, len(keys)))

    assert verdict([2, 7, 13])
    assert not verdict([2, 7])           # a missing deletion
    assert not verdict([2, 13])          # a missing addition
    assert not verdict([2, 7, 13, 14])   # an extra addition, 2-4
    assert not verdict([1, 7, 13])       # a deletion inside a cluster, 0-1
    assert not verdict([2, 2, 13])       # a repeated pair
    assert not verdict([2, 13, 7])       # keys out of order
    assert not verdict([2, 11, 13])      # 1-2 written as 2-1
    assert not verdict([2, 12, 13])      # a self-loop at 2
    assert not verdict([-1, 2, 13])      # a pair outside 0..n-1
    assert not verdict([2, 13, n * n])   # and past it
    assert not verdict([2, 7, 13], p=3)  # a wrong cluster count
    assert not verdict([2, 7, 13], p=1)


def test_solve_of_a_parsed_clique_union_builds_no_input_rows():
    # 300 triangles and a path on 3 vertices, in a text the bulk reader
    # takes and, after a comment line, in one the line reader takes: the
    # clique scan, the kernel, the certificate check and the report read
    # the input's keys, so its n-bit rows are never built
    t = 300
    g = Graph.from_edges(3 * t + 3, [e for i in range(0, 3 * t + 3, 3)
                                     for e in ((i, i + 1), (i + 1, i + 2),
                                               (i, i + 2))][:-1])
    text = format_graph(g)
    for form in (text, "c line-read\n" + text):
        parsed = parse_graph(form)
        res = solve_exact_p(Instance(parsed, t + 2, 1, "exact"))
        report = result_to_dict(res, parsed, base=1)
        assert report["answer"] == "yes" and report["cost"] == 1
        assert report["stats"]["rules_applied"]
        assert "rows" not in vars(parsed)


def test_result_to_dict_shapes():
    inst = Instance(path(3), 2, 1, "exact")
    res = solve_exact_p(inst)
    d = result_to_dict(res, inst.g, base=1)
    assert d["answer"] == "yes" and d["cost"] == 1
    assert all(min(c) >= 1 for c in d["clusters"])
    assert d["additions"] == [] and len(d["deletions"]) == 1
    assert set(d["stats"]) == {"cuts_enumerated", "dp_states",
                               "rules_applied", "aborted", "no_reason"}
    assert d["stats"]["no_reason"] is None
    # one edit graph splits into additions and deletions against the input
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    edits = Graph.from_edges(4, [(1, 2), (0, 3)])
    cl = Clustering.from_blocks(4, [[0, 1, 3], [2]])
    d = result_to_dict(SolveResult(True, Solution(cl, edits, 2), SolveStats()), g)
    assert d["additions"] == [[0, 3]] and d["deletions"] == [[1, 2]]
    assert d["clusters"] == [[0, 1, 3], [2]]
    no = solve_exact_p(Instance(path(3), 2, 0, "exact"))
    dn = result_to_dict(no, inst.g)
    assert dn["answer"] == "no" and dn["cost"] is None and dn["clusters"] == []
    assert dn["stats"]["no_reason"] == "rule1"


def test_zero_p_degenerate_cases():
    assert solve_exact_p(Instance(Graph.empty(0), 0, 0, "exact")).answer
    assert not solve_exact_p(Instance(Graph.empty(2), 0, 5, "exact")).answer
    assert solve_at_most_p(Instance(Graph.empty(0), 0, 0, "at_most")).answer
    assert not solve_at_most_p(Instance(Graph.empty(2), 0, 5, "at_most")).answer


def test_edit_set_lifted_from_the_kernel():
    # Rules 2 and 3 peel clique components, which are clusters as they
    # stand and touch no edit, so the kernel's edit set taken through
    # vertex_map is the edit set of the whole lifted clustering
    rng = random.Random(103)
    fired, yes = set(), 0
    for _ in range(20):
        # k = 1 keeps the cut lists short
        k = 1
        n = rng.randint(20, 40)
        p = rng.randint(7, 16)
        blocks = oracles.random_blocks(rng, n, p)
        edges = oracles.perturb(rng, n, oracles.blocks_to_edges(blocks),
                                rng.randint(0, k))
        g = Graph.from_edges(n, edges)
        for solve, mode in ((solve_exact_p, "exact"),
                            (solve_at_most_p, "at_most")):
            res = solve(Instance(g, p, k, mode))
            fired.update(res.stats.rules_applied)
            if res.answer:
                yes += 1
                assert res.solution.edits == clustering_to_edit_set(
                    g, res.solution.clustering)
    assert {"rule2", "rule3"} <= fired and yes >= 20
