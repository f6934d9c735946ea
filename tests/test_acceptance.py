"""Acceptance gate: one test per shipped guarantee, one summary line each.

Each test covers one numbered criterion end to end and records a PASS/FAIL
line (plus fallback flags and timings) in the terminal summary.  Seeded
randomness only; every run checks the same instances.
"""
from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction
from math import comb

import oracles
from conftest import criterion, criterion_note, run_cli
from test_reductions import clique_edit_parts
from test_regularize import pushforward_checks, scan_invariants

from cluedit.bruteforce import oracle_best_cost
from cluedit.cnf import CnfFormula, falsified_clause, format_dimacs
from cluedit.cuts import cut_count_bound, enumerate_k_cuts
from cluedit.graph import Graph, apply_edits, cluster_graph_of, format_graph
from cluedit.preprocess import Instance, preprocess
from cluedit.reductions import (attachment_counts, budget_summands, build_eth,
                                build_multivariate, eth_witness,
                                extend_eth_assignment, materialize_graph,
                                multivariate_witness, witness_clustering)
from cluedit.regularize import extend_assignment, regularize
from cluedit.solver import solve_exact_p, verify_solution


def _edge_list(g: Graph) -> list[tuple[int, int]]:
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
            if g.has_edge(u, v)]


# ---------------------------------------------------------------------------
# criterion 1


@criterion(1, "solver matches the partition oracle")
def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    calls = 0

    def check_graph(g: Graph) -> None:
        nonlocal calls
        by_count = [oracle_best_cost(g, c) for c in range(g.n + 1)]
        for p in range(1, g.n + 1):
            best = by_count[p]
            for k in range(9):
                inst = Instance(g, p, k, "exact")
                res = solve_exact_p(inst)
                expected = best is not None and best <= k
                assert res.answer == expected, (g, p, k, best)
                if expected:
                    assert res.solution.cost == best, (g, p, k, best)
                    assert verify_solution(inst, res.solution)
                calls += 1

    graphs = 0
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            g = Graph.from_edges(n, edges)
            if n <= 3:
                # second, independent reference route on the tiny slice
                by_count = [oracle_best_cost(g, c) for c in range(n + 1)]
                assert by_count[1:] == oracles.best_by_count(n, edges)[1:]
            check_graph(g)
            graphs += 1
    assert graphs == 1099          # 1 + 2 + 8 + 64 + 1024 labelled graphs

    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(6, 8)
        edges = oracles.random_edges(rng, n, rng.uniform(0.2, 0.8))
        check_graph(Graph.from_edges(n, edges))

    elapsed = time.perf_counter() - t0
    criterion_note(1, f"{calls} solver calls, {elapsed:.0f}s")
    assert elapsed < 300


# ---------------------------------------------------------------------------
# criterion 2


def _clique_union(rng: random.Random, sizes: list[int], iso: int) -> Graph:
    """Disjoint cliques plus isolated vertices, under a random relabeling."""
    n = sum(sizes) + iso
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    v = 0
    for s in sizes:
        for a in range(s):
            for b in range(a + 1, s):
                edges.append((perm[v + a], perm[v + b]))
        v += s
    return Graph.from_edges(n, edges)


def _draw_reducible_k1(rng: random.Random):
    """k=1 instance over many cliques; reduction leaves <= 10 vertices.

    Rules delete largest cliques down to two, then isolated vertices down
    to two; the requested cluster count is chosen so the firing count is
    known in advance.  Returns (graph, p, k, predicted reduced size).
    """
    while True:
        nb = rng.randint(2, 6)
        sizes = [2, 2] + [rng.randint(2, 5) for _ in range(nb - 2)]
        iso = rng.choice([0, 0, 3, 4, 5, 6, 7, 8])
        n = sum(sizes) + iso
        if n > 20:
            continue
        f3max = nb - 2 if nb >= 3 else 0
        f2max = iso - 2 if iso >= 3 else 0
        desc = sorted(sizes, reverse=True)
        prefix = [0]
        for s in desc:
            prefix.append(prefix[-1] + s)
        combos = []
        for f3 in range(f3max + 1):
            for f2 in (range(f2max + 1) if f3 == f3max else (0,)):
                if nb + iso - f3 - f2 < 4:     # component rule must stay quiet
                    continue
                n_red = n - prefix[f3] - f2
                if n_red <= 10 and (f3 + f2 > 0 or n <= 10):
                    combos.append((f3, f2, n_red))
        if not combos:
            continue
        f3, f2, n_red = rng.choice(combos)
        return _clique_union(rng, sizes, iso), 6 + f3 + f2, 1, n_red


def _draw_reducible_k2(rng: random.Random):
    """k=2 instance: four K2 floors plus isolated vertices, reduced to 12."""
    c1 = rng.randint(8, 10)
    g = _clique_union(rng, [2, 2, 2, 2], c1)
    return g, c1 + 8, 2, 12


@criterion(2, "preprocessing preserves answers and shrinks p below 6k")
def test_criterion_2_preprocess_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(202)
    instances = []

    for _ in range(105):
        instances.append(_draw_reducible_k1(rng))
    for _ in range(3):
        instances.append(_draw_reducible_k2(rng))
    for _ in range(17):                       # k=2, below threshold: no rules
        n = rng.randint(2, 10)
        g = Graph.from_edges(n, oracles.random_edges(rng, n, rng.uniform(0.2, 0.8)))
        instances.append((g, rng.randint(1, min(n, 12)), 2, None))
    for _ in range(45):                       # rejection by the component rule
        if rng.random() < 0.7:
            k = 1
            cliques = [rng.randint(1, 3) for _ in range(rng.randint(4, 6))]
            extra = rng.choice([0, 3, 4])     # optional non-clique path
            margin = rng.randint(1, 3)
        else:
            k = 2
            cliques = [1] * rng.randint(6, 7)
            extra = 3
            margin = 9 - len(cliques)
        while sum(cliques) + extra > 10:
            cliques.pop()
        g, off = _clique_union(rng, cliques, 0), sum(cliques)
        if extra:
            path = [(off + i, off + i + 1) for i in range(extra - 1)]
            g = Graph.from_edges(off + extra, _edge_list(g) + path)
        p = max(6 * k + 1, len(cliques) + 2 * k + margin)
        instances.append((g, p, k, "reject"))
    for _ in range(30):                       # k=0 full dissolution
        cliques = [rng.randint(1, 4) for _ in range(rng.randint(1, 6))]
        while sum(cliques) > 10:
            cliques.pop()
        g = _clique_union(rng, cliques, 0)
        choices = [c for c in (len(cliques), len(cliques) + 1) if 1 <= c <= g.n]
        instances.append((g, rng.choice(choices), 0, None))
    assert len(instances) == 200

    reduced_sizes = []
    for g, p, k, predicted in instances:
        inst = Instance(g, p, k, "exact")
        out = preprocess(inst)
        res = solve_exact_p(inst)
        if predicted == "reject":
            assert out.rejected and out.reason in ("rule1", "p_exceeds_n")
            assert not res.answer
            best = oracle_best_cost(g, p)
            assert best is None or best > k
            continue
        if out.rejected:
            assert not res.answer
            assert g.n <= 10
            best = oracle_best_cost(g, p)
            assert best is None or best > k
            continue
        red = out.instance
        assert red.p <= 6 * k
        if predicted is not None:
            assert red.g.n == predicted
        reduced_sizes.append(red.g.n)
        best = oracle_best_cost(red.g, red.p) if red.p >= 1 else \
            (0 if red.g.n == 0 else None)
        expected = best is not None and best <= k
        assert res.answer == expected, (g, p, k)
        if expected:
            assert res.solution.cost == best
            assert verify_solution(inst, res.solution)   # lifted to the input
        if g.n <= 10:                          # small originals: direct route
            direct = oracle_best_cost(g, p)
            assert (direct is not None and direct <= k) == expected
            if expected:
                assert direct == best

    elapsed = time.perf_counter() - t0
    criterion_note(2, f"max reduced size {max(reduced_sizes)}, {elapsed:.0f}s")
    assert elapsed < 120


# ---------------------------------------------------------------------------
# criterion 3


@criterion(3, "cut counts stay under the counting bound and the square-root bounds")
def test_criterion_3_cut_bounds():
    t0 = time.perf_counter()
    for a in range(31):
        for b in range(31):
            assert oracles.leq_pow2_sqrt(comb(a + b, a), 2, a * b), (a, b)
    rng = random.Random(303)
    for _ in range(100):                      # exact cluster graphs
        k = rng.randint(1, 4)
        p = rng.randint(1, 4)                 # p <= 4 <= 6k
        n = rng.randint(max(p, 4), 14)
        blocks = oracles.random_blocks(rng, n, p)
        g = Graph.from_edges(n, oracles.blocks_to_edges(blocks))
        count = len(enumerate_k_cuts(g, k))
        assert oracles.leq_pow2_sqrt(count, 8, p * k), (n, p, k, count)
        assert count <= cut_count_bound(p, k), (n, p, k, count)
    for _ in range(100):                      # planted YES instances
        k = rng.randint(1, 4)
        p = rng.randint(1, 4)
        n = rng.randint(max(p, 4), 14)
        blocks = oracles.random_blocks(rng, n, p)
        edges = oracles.perturb(rng, n, oracles.blocks_to_edges(blocks),
                                rng.randint(0, k))
        g = Graph.from_edges(n, edges)
        count = len(enumerate_k_cuts(g, k))
        assert oracles.leq_pow2_sqrt(count, 8, 2 * p * k), (n, p, k, count)
        assert count <= cut_count_bound(p, k), (n, p, k, count)
    elapsed = time.perf_counter() - t0
    criterion_note(3, f"{elapsed:.0f}s")
    assert elapsed < 180


# ---------------------------------------------------------------------------
# criterion 4


@criterion(4, "cut enumeration equals the power-set filter")
def test_criterion_4_cut_exhaustiveness():
    t0 = time.perf_counter()
    rng = random.Random(404)
    for _ in range(60):
        n = rng.randint(1, 12)
        k = rng.randint(0, 6)
        edges = oracles.random_edges(rng, n, rng.uniform(0.1, 0.9))
        g = Graph.from_edges(n, edges)
        cuts = enumerate_k_cuts(g, k)
        brute = oracles.ordered_cuts(n, edges, k)
        assert set(zip(cuts.masks, cuts.crossing)) == set(brute)
        assert len(cuts.masks) == len(brute)
    elapsed = time.perf_counter() - t0
    criterion_note(4, f"{elapsed:.0f}s")
    assert elapsed < 120


# ---------------------------------------------------------------------------
# criterion 5


def _clause_universe() -> list[tuple[int, ...]]:
    """All 26 clauses with 1..3 distinct variables drawn from {1,2,3}."""
    out = []
    for w in (1, 2, 3):
        for vs in itertools.combinations((1, 2, 3), w):
            for signs in itertools.product((1, -1), repeat=w):
                out.append(tuple(s * v for s, v in zip(signs, vs)))
    return out


@criterion(5, "bounded-degree reduction round trip",
           note="fallback engaged in place of a direct solve: exact-budget "
                "witness certifies YES, transitivity-relaxation lower bound "
                "certifies NO")
def test_criterion_5_eth_round_trip():
    t0 = time.perf_counter()
    universe = _clause_universe()
    assert len(universe) == 26
    sat = unsat = 0
    # distinct formulas can normalize to one graph, e.g. (x1)(~x1) and
    # (x2)(~x2); its vertex count 18m fixes the budget 14m as well
    bounds: dict[Graph, int] = {}
    for r in range(4):
        for member in itertools.combinations(universe, r):
            phi = CnfFormula(3, member)
            model = oracles.sat_assignment(3, member)
            art = build_eth(phi)
            m = len(art.formula.clauses)
            assert art.budget == 14 * m
            if model is not None:
                sat += 1
                full = extend_eth_assignment(art, model)
                clustering, edits, cost = eth_witness(art, full)
                # a verified edit set of size 14m is a YES certificate for
                # the at-most-n decision at budget 14m
                assert cost == art.budget
                assert apply_edits(art.graph, edits) == \
                    cluster_graph_of(art.graph.n, clustering)
            else:
                unsat += 1
                if art.graph not in bounds:
                    bounds[art.graph], _ = oracles.cluster_editing_lb(
                        art.graph.n, _edge_list(art.graph), art.budget)
                bound = bounds[art.graph]
                # even without a cluster-count cap no edit set fits 14m
                assert bound > art.budget, (member, bound, art.budget)
    assert sat == 2853 and unsat == 99
    elapsed = time.perf_counter() - t0
    criterion_note(5, f"2952 formulas ({unsat} unsatisfiable, {len(bounds)} "
                      f"distinct graphs), {elapsed:.0f}s")
    assert elapsed < 600


# ---------------------------------------------------------------------------
# criterion 6


@criterion(6, "balanced-clique witness meets the budget identity")
def test_criterion_6_multivariate_budget():
    t0 = time.perf_counter()
    rng = random.Random(606)
    done = 0
    while done < 20:
        nvar = rng.randint(1, 6)
        clauses = tuple(oracles.random_clauses(rng, nvar, rng.randint(1, 6)))
        model = oracles.sat_assignment(nvar, clauses)
        if model is None:
            continue
        p = rng.randint(1, min(3, nvar))
        k = max(p, -(-nvar * nvar // p), -(-len(clauses) ** 2 // p))
        art = build_multivariate(CnfFormula(nvar, clauses), p, k)
        wit = multivariate_witness(art, extend_assignment(art.regularized, model))
        assert wit.cost == art.budget          # counted, not copied
        s = budget_summands(art.n_reg, art.m_reg, art.p, art.L)
        assert s["total"] == art.budget        # recomputed from sizes
        assert wit.kept_cycle == s["cycle_kept"] == 3 * art.n_reg
        assert wit.kept_attachment == s["attachment_kept"] == 9 * art.m_reg
        sizes = set(wit.cluster_sizes.values())
        assert len(wit.cluster_sizes) == 6 * art.p and len(sizes) == 1
        assert sum(wit.cluster_sizes.values()) == art.vertex_count
        counts = attachment_counts(art)
        assert 17 * art.n_reg % art.p == 0
        assert set(counts.values()) == {17 * art.n_reg // art.p}
        assert len(counts) == 6 * art.p
        done += 1

    # downsized instances small enough to build: third, bitwise route
    small = [
        (CnfFormula(1, ((1,),)), 1, 1, Fraction(1)),
        (CnfFormula(3, ((1, 2, 3),)), 2, 5, Fraction(1)),
        (CnfFormula(3, ((1, 2, 3),)), 2, 2, Fraction(1, 2)),
    ]
    for phi, p, k, eps in small:
        art = build_multivariate(phi, p, k, eps, L_factor=1)
        model = oracles.sat_assignment(phi.var_count, phi.clauses)
        wit = multivariate_witness(art, extend_assignment(art.regularized, model))
        g = materialize_graph(art)
        target = cluster_graph_of(g.n, witness_clustering(art, wit))
        assert apply_edits(g, target).m == art.budget == wit.cost
        # each counted part, not just their sum, matches the real edits
        assert clique_edit_parts(art, g, target) == {
            "cut_clique": wit.cut_clique, "cut_cycle": wit.cut_cycle,
            "cut_attachment": wit.cut_attachment, "additions": wit.additions}

    elapsed = time.perf_counter() - t0
    criterion_note(6, f"{elapsed:.0f}s")
    assert elapsed < 120


# ---------------------------------------------------------------------------
# criterion 7


@criterion(7, "regularized formulas keep their shape and their answer",
           note="unsatisfiable direction decided by an integer-program "
                "feasibility check")
def test_criterion_7_regularization():
    t0 = time.perf_counter()
    fixed = [
        (CnfFormula(1, ((1,), (-1,))), 1, Fraction(1)),
        (CnfFormula(2, ((1,), (2,), (-1, -2))), 2, Fraction(1)),
        (CnfFormula(2, ((1, 2), (1, -2), (-1, 2), (-1, -2))), 1, Fraction(1)),
        (CnfFormula(3, ((1, 2, 3),)), 3, Fraction(1)),
        (CnfFormula(2, ((1,), (2,))), 2, Fraction(1, 2)),
    ]
    rng = random.Random(707)
    sat_checked = unsat_checked = 0
    for i in range(50):
        if i < len(fixed):
            phi, p, eps = fixed[i]
        else:
            nvar = rng.randint(1, 6)
            phi = CnfFormula(
                nvar, tuple(oracles.random_clauses(rng, nvar, rng.randint(1, 8))))
            eps = rng.choice([Fraction(1), Fraction(1), Fraction(1, 2)])
            p = rng.randint(1, min(3, max(1, int(Fraction(nvar) / eps))))
        reg = regularize(phi, p, eps)
        scan_invariants(reg)
        assert reg.p == p and reg.source_var_count == phi.var_count
        if phi.var_count <= 4:
            model = oracles.sat_assignment(phi.var_count, phi.clauses)
            if model is not None:
                pushforward_checks(phi, reg)
                sat_checked += 1
            else:
                assert not oracles.milp_sat(reg.formula.var_count,
                                            reg.formula.clauses)
                unsat_checked += 1
    assert sat_checked >= 10 and unsat_checked >= 3
    elapsed = time.perf_counter() - t0
    criterion_note(7, f"{sat_checked} sat + {unsat_checked} unsat "
                      f"equisatisfiability checks, {elapsed:.0f}s")
    assert elapsed < 60


# ---------------------------------------------------------------------------
# criterion 8


@criterion(8, "identical flags and seed give byte-identical output")
def test_criterion_8_determinism(tmp_path):
    graph = tmp_path / "g.g"
    graph.write_text(format_graph(Graph.from_edges(3, [(0, 1), (1, 2)])))
    cnf = tmp_path / "f.cnf"
    cnf.write_text(format_dimacs(CnfFormula(3, ((1, 2, 3),))))
    mini = tmp_path / "one.cnf"
    mini.write_text(format_dimacs(CnfFormula(1, ((1,),))))
    model = tmp_path / "model.txt"
    model.write_text("1 -2 -3\n")
    one_model = tmp_path / "one.txt"
    one_model.write_text("1\n")

    # (argv, expected exit code): the path on 3 vertices needs one edit
    # for 2 clusters, so only the k=0 solve is a NO.
    plain = [
        (("solve", "g.g", "--p", "2", "--k", "1"), 0),
        (("solve", "g.g", "--p", "2", "--k", "1", "--format", "text"), 0),
        (("--seed", "5", "solve", "g.g", "--p", "2", "--k", "0"), 1),
        (("--seed", "5", "solve", "g.g", "--p", "2", "--k", "1",
          "--threads", "3"), 0),
        (("oracle", "g.g", "--p", "2", "--k", "1"), 0),
        (("cuts", "g.g", "--k", "1"), 0),
        (("cuts", "g.g", "--k", "1", "--count-only", "--p", "2"), 0),
    ]
    for argv, code in plain:
        first = run_cli(*argv, cwd=tmp_path)
        second = run_cli(*argv, cwd=tmp_path)
        assert first.returncode == code, (argv, first.stderr)
        assert first.stdout, argv
        assert first.stdout == second.stdout, argv
        assert first.returncode == second.returncode, argv

    writers = [
        ("reduce", "eth", "../f.cnf", "--out", "inst",
         "--witness", "../model.txt"),
        ("reduce", "multivariate", "../one.cnf", "--p", "1", "--k", "1",
         "--L-factor", "1", "--out", "inst", "--witness", "../one.txt"),
        ("reduce", "multivariate", "../one.cnf", "--p", "1", "--k", "1",
         "--out", "inst"),
    ]
    for argv in writers:
        outs = []
        for d in ("run1", "run2"):
            sub = tmp_path / d
            sub.mkdir(exist_ok=True)
            res = run_cli(*argv, cwd=sub)
            assert res.returncode == 0, res.stderr
            files = {f.name: f.read_bytes() for f in sub.iterdir()}
            outs.append((res.stdout, files))
            for f in sub.iterdir():
                f.unlink()
        assert outs[0] == outs[1], argv

    report = json.loads(run_cli(*plain[0][0], cwd=tmp_path).stdout)
    assert report["schema"] == 1
