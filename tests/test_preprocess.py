"""Reduction rules: rejection, safe deletions, and lift-back."""
from __future__ import annotations

import importlib
import itertools
import math
import random
import time

import pytest

import oracles
from cluedit import (Clustering, Graph, Instance, is_cluster_graph,
                     apply_edits, oracle_best_cost, preprocess, lift_clustering,
                     solve_exact_p)
from cluedit.graph import clique_component_masks
from oracles import (mask_of, preprocess_stepwise, rule1_rejects, rule2_target,
                     rule3_target)

# the package re-exports a function named preprocess that hides the module
preprocess_module = importlib.import_module("cluedit.preprocess")


def disjoint_union(parts):
    """Edge list of a disjoint union; parts are ('clique', size) tuples."""
    edges, base = [], 0
    for size in parts:
        edges.extend((base + u, base + v)
                     for u, v in itertools.combinations(range(size), 2))
        base += size
    return base, edges


def triangles(t):
    n, edges = disjoint_union([3] * t)
    return Graph.from_edges(n, edges)


def test_clique_component_masks():
    g = Graph.from_edges(6, [(0, 1), (2, 3), (3, 4), (2, 4)])
    # each component's mask and ascending vertices, by smallest vertex
    assert list(clique_component_masks(g).items()) == [
        (mask_of([0, 1]), [0, 1]), (mask_of([2, 3, 4]), [2, 3, 4]),
        (mask_of([5]), [5])]
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert clique_component_masks(path) == {}


def test_rule_targets():
    g = Graph.from_edges(8, [(0, 1), (2, 3), (2, 4), (3, 4)])
    # vertices 5, 6, 7 isolated
    assert rule2_target(g, 1) == mask_of([5])
    assert rule2_target(g, 2) is None  # needs 2k+1 = 5 isolated vertices
    # nontrivial cliques: K2 {0,1} and K3 {2,3,4}; threshold 2k+1
    assert rule3_target(g, 0) == mask_of([2, 3, 4])  # largest wins
    assert rule3_target(g, 1) is None
    # tie on size: the clique containing the smallest vertex id wins
    h = triangles(3)
    assert rule3_target(h, 1) == mask_of([0, 1, 2])


def test_rule1_rejects():
    path7 = Graph.from_edges(7, [(i, i + 1) for i in range(6)])
    assert rule1_rejects(path7, 7, 1)  # 0 clique components < 7 - 2
    assert not rule1_rejects(path7, 2, 1)
    out = preprocess(Instance(path7, 7, 1, "exact"))
    assert out.rejected and out.reason == "rule1"
    assert out.rules_applied == ["rule1"]
    assert out.instance is None


def test_rule2_deletes_smallest_isolated_vertex():
    # K3 plus seven isolated vertices; p = 8 > 6k fires Rule 2 twice
    g = Graph.from_edges(10, [(0, 1), (1, 2), (0, 2)])
    out = preprocess(Instance(g, 8, 1, "exact"))
    assert not out.rejected
    assert out.rules_applied == ["rule2", "rule2"]
    assert out.removed == [("rule2", (3,)), ("rule2", (4,))]
    assert out.instance.p == 6 and out.instance.g.n == 8
    assert out.vertex_map == (0, 1, 2, 5, 6, 7, 8, 9)


def test_rule3_runs_before_rule2_and_deletes_largest():
    # three isolated vertices and three cliques present at k = 1:
    # Rule 3 must fire first and take a largest clique
    n, edges = disjoint_union([4, 3, 2])
    g = Graph.from_edges(n + 3, edges)
    out = preprocess(Instance(g, 7, 1, "exact"))
    assert out.rules_applied[0] == "rule3"
    assert out.removed[0] == ("rule3", (0, 1, 2, 3))
    assert out.instance.p == 6


def test_twenty_triangles_frozen():
    g = triangles(20)
    out = preprocess(Instance(g, 20, 1, "exact"))
    assert out.rules_applied == ["rule3"] * 14
    assert out.instance.p == 6 and out.instance.g.n == 18
    res = solve_exact_p(Instance(g, 20, 1, "exact"))
    assert res.answer and res.solution.cost == 0
    assert res.stats.rules_applied == ["rule3"] * 14


def test_p_exceeds_n_rejection():
    out = preprocess(Instance(Graph.empty(2), 3, 1, "exact"))
    assert out.rejected and out.reason == "p_exceeds_n"


def test_k_zero_dissolves_or_rejects():
    # at k = 0 the loop runs while p > 0, so clique graphs dissolve fully
    out = preprocess(Instance(triangles(3), 3, 0, "exact"))
    assert not out.rejected
    assert out.instance.p == 0 and out.instance.g.n == 0
    out2 = preprocess(Instance(triangles(3), 2, 0, "exact"))
    assert not out2.rejected
    assert out2.instance.p == 0 and out2.instance.g.n == 3
    # a triangle and two K2s at p = 2: Rule 3 peels the triangle, then a K2
    g = Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (5, 6)])
    out3 = preprocess(Instance(g, 2, 0, "exact"))
    assert out3.removed == [("rule3", (0, 1, 2)), ("rule3", (3, 4))]
    assert out3.vertex_map == (5, 6) and out3.instance.p == 0


def test_at_most_mode_peels_without_rule1():
    # the same Rule 3 peel as exact mode: 14 triangles, largest and then
    # lowest ids first, leave p' = 6k
    out = preprocess(Instance(triangles(20), 20, 1, "at_most"))
    assert not out.rejected
    assert out.rules_applied == ["rule3"] * 14
    assert out.removed == [("rule3", (3 * t, 3 * t + 1, 3 * t + 2))
                           for t in range(14)]
    assert out.instance == Instance(triangles(6), 6, 1, "at_most")
    assert out.vertex_map == tuple(range(42, 60))
    # no Rule 1 (no clique component at all) and no p_exceeds_n: p' <= n
    path7 = Graph.from_edges(7, [(i, i + 1) for i in range(6)])
    out = preprocess(Instance(path7, 9, 1, "at_most"))
    assert not out.rejected and out.rules_applied == []
    assert out.instance == Instance(path7, 7, 1, "at_most")


def test_no_rule_fires_below_threshold():
    inst = Instance(triangles(3), 3, 1, "exact")  # p = 3 <= 6k
    out = preprocess(inst)
    assert out.rules_applied == [] and out.instance.g.n == 9


def test_lift_clustering_restores_removed_cliques():
    g = triangles(8)
    inst = Instance(g, 8, 1, "exact")
    out = preprocess(inst)
    assert out.rules_applied == ["rule3"] * 2
    red = out.instance
    blocks = [sorted(range(3 * t, 3 * t + 3)) for t in range(6)]
    reduced_cl = Clustering.from_blocks(red.g.n, blocks)
    lifted = lift_clustering(out, reduced_cl, g.n)
    assert lifted.c == 8
    assert sorted(lifted.sizes()) == [3] * 8
    # removed triangles come back as their own clusters covering all of g
    assert sorted(m for m in lifted.cluster_masks()) == sorted(
        mask_of(range(3 * t, 3 * t + 3)) for t in range(8))


def test_lift_matches_reference_walk():
    rng = random.Random(3)
    fired = {("exact", "rule2"): 0, ("exact", "rule3"): 0,
             ("at_most", "rule2"): 0, ("at_most", "rule3"): 0}
    for _ in range(80):
        g = random_clique_union(rng)
        k = rng.randint(0, 1)
        for mode in ("exact", "at_most"):
            out = preprocess(Instance(g, rng.randint(1, g.n + 2), k, mode))
            if out.rejected or out.instance.g.n == 0:
                continue
            n = out.instance.g.n
            cl = Clustering.from_blocks(
                n, oracles.random_blocks(rng, n, rng.randint(1, n)))
            assert (lift_clustering(out, cl, g.n)
                    == oracles.lift_reference(out, cl, g.n))
            for rule in out.rules_applied:
                fired[mode, rule] += 1
    # both rules peel in both modes
    assert min(fired.values()) > 20, fired


def test_pipeline_agrees_with_oracle_on_rule_heavy_instances():
    rng = random.Random(71)
    for _ in range(40):
        t = rng.randint(2, 3)
        iso = rng.randint(0, 2)
        core_n = rng.randint(0, 2)
        n, edges = disjoint_union([3] * t + [2] * rng.randint(0, 1))
        n += iso
        if core_n == 2 and rng.random() < 0.7:
            edges.append((n, n + 1))
        n += core_n
        g = Graph.from_edges(n, edges)
        if g.n > 8:
            continue
        expect_by = oracles.best_by_count(g.n, list(g.edges()))
        for p in range(1, g.n + 1):
            for k in (0, 1):
                res = solve_exact_p(Instance(g, p, k, "exact"))
                opt = expect_by[p]
                assert res.answer == (opt is not None and opt <= k), (
                    list(g.edges()), p, k, opt)
                if res.answer:
                    assert res.solution.cost == opt


def random_clique_union(rng):
    """Cliques of size 1-4, a random core of up to 6 vertices, ids shuffled."""
    sizes = [rng.randint(1, 4) for _ in range(rng.randint(0, 30))]
    n, edges = disjoint_union(sizes)
    core = rng.randint(0, 6)
    edges += [(n + u, n + v) for u, v in oracles.random_edges(rng, core, 0.5)]
    n += core
    perm = rng.sample(range(n), n)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def test_one_pass_matches_stepwise_rules():
    rng = random.Random(2024)
    fired = {"exact": 0, "at_most": 0}
    rejected = clamped = 0
    for _ in range(60):
        g = random_clique_union(rng)
        for k, p, mode in itertools.product(  # k = 0 peels while p > 0
                range(4), range(g.n + 4), ("exact", "at_most")):
            inst = Instance(g, p, k, mode)
            got, want = preprocess(inst), preprocess_stepwise(inst)
            assert got.rejected == want.rejected, (g, p, k, mode)
            assert got.reason == want.reason, (g, p, k, mode)
            assert got.instance == want.instance, (g, p, k, mode)
            assert got.vertex_map == want.vertex_map, (g, p, k, mode)
            assert got.removed == want.removed, (g, p, k, mode)
            assert got.rules_applied == want.rules_applied, (g, p, k, mode)
            fired[mode] += len(got.removed)
            rejected += got.reason == "rule1"
            clamped += (mode == "at_most"
                        and got.instance.p < p - len(got.removed))
    # the inputs exercise the deletions in both modes, the Rule 1
    # rejection and the at-most clamp to n
    assert min(fired.values()) > 1000 and rejected > 100 and clamped > 100


def test_one_component_pass_whatever_fires(monkeypatch):
    # one clique-component pass when the rules may fire (p > 6k), none
    # otherwise, no breadth-first search and at most one induced subgraph
    calls = {"cliques": 0, "components": 0, "induced": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(preprocess_module, "clique_component_masks",
                        counted("cliques",
                                preprocess_module.clique_component_masks))
    monkeypatch.setattr(preprocess_module, "connected_components",
                        counted("components",
                                preprocess_module.connected_components))
    monkeypatch.setattr(preprocess_module, "induced_subgraph",
                        counted("induced", preprocess_module.induced_subgraph))
    n, edges = disjoint_union([3] * 300)
    core = [(n + i, n + i + 1) for i in range(5)]  # a path: not a clique
    g = Graph.from_edges(n + 6, edges + core)
    k = 1
    c3 = sum(c.bit_count() > 1 for c in clique_component_masks(g))
    assert c3 == 300
    for p in (8, 100, 302):
        calls.update(cliques=0, components=0, induced=0)
        out = preprocess(Instance(g, p, k, "exact"))
        assert calls["cliques"] == 1 and calls["components"] == 0
        assert calls["induced"] <= 1
        assert out.rules_applied == ["rule3"] * min(c3 - 2 * k, p - 6 * k)
        assert out.instance.p == 6 * k
    for p in (1, 6 * k):
        calls.update(cliques=0, components=0, induced=0)
        out = preprocess(Instance(g, p, k, "exact"))
        assert calls == {"cliques": 0, "components": 0, "induced": 0}
        assert out.rules_applied == [] and out.instance.g == g


def criterion_1_graphs():
    """The graphs of acceptance criterion 1: every labelled graph on 1-5
    vertices, then 200 seeded random graphs on 6-8 vertices."""
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            yield Graph.from_edges(n, [pairs[i] for i in range(len(pairs))
                                       if chosen >> i & 1])
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(6, 8)
        yield Graph.from_edges(
            n, oracles.random_edges(rng, n, rng.uniform(0.2, 0.8)))


def test_early_no_is_sound_on_criterion_1_graphs():
    # the check runs on the kernel, as the solver runs it; it never fires
    # on a YES, and each packing is k + 1 induced P3s of the input, taken
    # back through vertex_map, no two sharing a vertex pair
    fired = {"class_count": 0, "conflict_triples": 0}
    for g in criterion_1_graphs():
        best = [oracle_best_cost(g, c) for c in range(g.n + 1)]
        for p in range(1, g.n + 1):
            for mode in ("exact", "at_most"):
                costs = [c for c in (best[p:p + 1] if mode == "exact"
                                     else best[1:p + 1]) if c is not None]
                opt = min(costs, default=None)
                for k in range(9):
                    out = preprocess(Instance(g, p, k, mode))
                    if out.rejected:
                        continue
                    red = out.instance
                    proof = preprocess_module.early_no(red.g, red.p, red.k)
                    if proof is None:
                        continue
                    reason, packing = proof
                    fired[reason] += 1
                    assert opt is None or opt > k, (list(g.edges()), p, k)
                    if reason == "class_count":
                        assert packing == []
                        continue
                    assert len(packing) == k + 1
                    held = set()
                    for trio in packing:
                        u, w, v = (out.vertex_map[x] for x in trio)
                        assert g.has_edge(u, w) and g.has_edge(w, v)
                        assert not g.has_edge(u, v) and u != v
                        held.update(frozenset(pair) for pair in
                                    ((u, w), (w, v), (u, v)))
                    assert len(held) == 3 * (k + 1)
    # 10,451 and 11,306 when written
    assert fired["class_count"] > 10000 and fired["conflict_triples"] > 10000


def hub_graph(size):
    """Two cliques of *size* vertices and a hub next to all of them."""
    a = (1 << size) - 1
    b, hub = a << size, 1 << 2 * size
    return Graph(tuple([a ^ 1 << v | hub for v in range(size)]
                       + [b ^ 1 << v | hub for v in range(size, 2 * size)]
                       + [a | b]))


def test_early_no_skips_centres_past_the_triple_budget():
    # the hub centres |A| |B| triples u-hub-v, and any matching of A to B
    # gives a packing: at size 30 its 1770 neighbour pairs fit the budget
    # and k = 5 is a proven NO (the optimum deletes the 30 edges to one
    # clique)
    g = hub_graph(30)
    assert preprocess_module.early_no(g, 2, 5)[0] == "conflict_triples"
    # at size 1000 the hub and both cliques' classes hold over 2^16
    # neighbour pairs each, so no centre is taken, where listing the hub's
    # 10^6 triples would take seconds and over 100 MB
    g = hub_graph(1000)
    start = time.perf_counter()
    assert preprocess_module.early_no(g, 2, 5) is None
    assert time.perf_counter() - start < 0.5


def test_early_no_takes_a_centre_that_exactly_fills_the_triple_budget():
    # a star of 8 leaves, a 362-clique and a star of 33 leaves: the class
    # centres with neighbour pairs, the stars' centres and the clique's
    # first vertex, hold 28 + 64980 + 528 = 2^16 of them, so the last star
    # leaves no room.  The stars pack 4 and 16 disjoint triples and the
    # clique none, so at k = 19 that last centre completes the proof
    stars = [(0, range(1, 9)), (371, range(372, 405))]
    edges = [(c, v) for c, leaves in stars for v in leaves]
    g = Graph.from_edges(405, edges + list(itertools.combinations(
        range(9, 371), 2)))
    assert sum(math.comb(g.rows[w].bit_count(), 2)
               for w in (0, 9, 371)) == preprocess_module._TRIPLES
    # 44 classes, exactly 2k + p
    proof = preprocess_module.early_no(g, 6, 19)
    assert proof == oracles.early_no_reference(g, 6, 19)
    assert proof[0] == "conflict_triples" and len(proof[1]) == 20
    assert sum(w == 371 for _, w, _ in proof[1]) == 16


def test_early_no_packs_in_its_documented_order():
    # the whole return value, reason and packing in order, is the one its
    # docstring spells out: on criterion 1's graphs, on seeded graphs of up
    # to 14 vertices, and on a hub past the triple budget with a few edges
    # taken out of its cliques, which gives its other centres triples
    cases = [(g, p, k) for g in criterion_1_graphs()
             for p in range(1, g.n + 1) for k in range(5)]
    rng = random.Random(103)
    for _ in range(800):
        n = rng.randint(1, 14)
        g = Graph.from_edges(n, oracles.random_edges(rng, n, rng.random()))
        cases += [(g, p, k) for p in sorted({1, 2, 3, n}) for k in range(6)]
    hub = hub_graph(200)
    edges = [(u, v) for u, v in hub.edges() if u != 400 and v != 400]
    removed = rng.sample(edges, 8)
    hub = Graph.from_edges(401, [e for e in hub.edges() if e not in removed])
    assert math.comb(hub.rows[400].bit_count(), 2) > preprocess_module._TRIPLES
    # at p = 2 its classes prove NO up to k = 8, at p = 20 its packing up
    # to k = 3
    cases += [(hub, p, k) for p in (2, 20) for k in range(10)]
    fired = {"class_count": 0, "conflict_triples": 0, None: 0}
    for g, p, k in cases:
        proof = preprocess_module.early_no(g, p, k)
        assert proof == oracles.early_no_reference(g, p, k), (
            list(g.edges()), p, k)
        fired[proof and proof[0]] += 1
    assert fired["class_count"] > 1000 and fired["conflict_triples"] > 1000
