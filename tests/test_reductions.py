"""Tests for the two hardness constructions and their witnesses."""
from __future__ import annotations

import hashlib
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import oracles
from cluedit.cnf import CnfFormula, falsified_clause
from cluedit.graph import apply_edits, cluster_graph_of, format_graph
from cluedit.reductions import (
    MATERIALIZE_VERTEX_LIMIT,
    attachment_counts,
    budget_summands,
    build_eth,
    build_multivariate,
    eth_witness,
    extend_eth_assignment,
    materialize_graph,
    multivariate_witness,
    normalize_for_eth,
    sidecar_dict,
    witness_clustering,
    write_sidecar,
)
from cluedit.regularize import extend_assignment, regularize

XYZ = CnfFormula(3, ((1, 2, 3),))
UNSAT_PAIR = CnfFormula(1, ((1,), (-1,)))
MIN_SRC = CnfFormula(1, ((1,),))


# ---------------------------------------------------------------------------
# formula normalization for the bounded-degree construction


def _polarity_sets(f: CnfFormula) -> tuple[set, set]:
    pos = {abs(l) for c in f.clauses for l in c if l > 0}
    neg = {abs(l) for c in f.clauses for l in c if l < 0}
    return pos, neg


def check_normal_form(f: CnfFormula) -> None:
    for cl in f.clauses:
        assert len(cl) == 3
        assert len({abs(l) for l in cl}) == 3          # distinct variables
        assert all(1 <= abs(l) <= f.var_count for l in cl)
    pos, neg = _polarity_sets(f)
    if f.clauses:
        assert pos == neg == set(range(1, f.var_count + 1))
    else:
        assert f.var_count == 0


def test_normalize_xyz():
    f, recipes = normalize_for_eth(XYZ)
    assert f.var_count == 6
    assert len(f.clauses) == 6
    check_normal_form(f)
    assert len(recipes) == 6
    assert recipes[:3] == (("var", 1, True), ("var", 2, True), ("var", 3, True))
    assert all(rec[0] == "const" for rec in recipes[3:])


def test_normalize_drops_tautologies():
    f, recipes = normalize_for_eth(CnfFormula(2, ((1, -1, 2),)))
    assert f.var_count == 0
    assert f.clauses == ()
    assert recipes == ()


def test_normalize_rejects_wide_clauses():
    with pytest.raises(ValueError, match="wider than 3"):
        normalize_for_eth(CnfFormula(4, ((1, 2, 3, 4),)))


def test_normalize_collapses_duplicate_literals():
    f, _ = normalize_for_eth(CnfFormula(2, ((1, 1, 2),)))
    check_normal_form(f)
    # (x or x or y) behaves like the two-literal clause (x or y)
    asg = oracles.sat_assignment(f.var_count, f.clauses)
    assert asg is not None
    assert falsified_clause(f, asg) is None


@pytest.mark.parametrize("seed", range(12))
def test_normalize_equisatisfiable(seed):
    rng = random.Random(900 + seed)
    nvar = rng.randint(1, 3)
    clauses = oracles.random_clauses(rng, nvar, rng.randint(1, 3))
    src = CnfFormula(nvar, tuple(clauses))
    f, _ = normalize_for_eth(src)
    check_normal_form(f)
    src_model = oracles.sat_assignment(nvar, clauses)
    norm_model = oracles.sat_assignment(f.var_count, f.clauses)
    assert (src_model is None) == (norm_model is None)


def test_extend_eth_assignment_respects_recipes():
    art = build_eth(XYZ)
    source = {1: True, 2: False, 3: False}
    full = extend_eth_assignment(art, source)
    assert {v: full[v] for v in (1, 2, 3)} == source
    assert set(full) == set(range(1, art.formula.var_count + 1))
    assert falsified_clause(art.formula, full) is None


def test_header_variable_count_does_not_drive_memory():
    # a DIMACS header may declare far more variables than occur; recipes are
    # built only for those that do, and the outputs match the small header
    wide = CnfFormula(10 ** 6, XYZ.clauses)
    for build in (build_eth, lambda phi: regularize(phi, 1)):
        tracemalloc.start()
        try:
            art = build(wide)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20
        small = build(XYZ)
        assert (art.formula, art.recipes) == (small.formula, small.recipes)


def test_extend_eth_assignment_missing_source_var():
    art = build_eth(XYZ)
    with pytest.raises(ValueError, match="misses source variable"):
        extend_eth_assignment(art, {1: True})


# ---------------------------------------------------------------------------
# bounded-degree construction


def test_eth_xyz_frozen():
    art = build_eth(XYZ)
    assert art.graph.n == 108
    assert art.graph.m == 180
    assert art.budget == 84                      # 14 edits per clause
    assert art.source_var_count == 3
    assert max(r.bit_count() for r in art.graph.rows) == 5
    assert art.gadget_base == 72


def test_eth_unsat_pair_frozen():
    art = build_eth(UNSAT_PAIR)
    # both unit clauses expand over fresh variables: 8 clauses, 5 variables
    assert art.formula.var_count == 5
    assert len(art.formula.clauses) == 8
    assert art.graph.n == 144
    assert art.graph.m == 240
    assert art.budget == 112
    for asg in ({v: True for v in range(1, 6)}, {v: False for v in range(1, 6)}):
        with pytest.raises(ValueError, match="falsifies clause"):
            eth_witness(art, asg)


def test_eth_cycle_arithmetic():
    art = build_eth(XYZ)
    occ = [0] * art.formula.var_count
    for clause in art.formula.clauses:
        for lit in clause:
            occ[abs(lit) - 1] += 1
    for x in range(1, art.formula.var_count + 1):
        assert art.cycle_length(x) == 4 * occ[x - 1]
        span = next(s for s in art.role_map if s[2] == f"cycle x={x}")
        assert span[0] == art.cycle_base[x - 1]
        assert span[1] - span[0] == art.cycle_length(x)
        for slot in range(occ[x - 1]):
            for j in (1, 2, 3, 4):
                v = art.cycle_vertex(x, slot, j)
                assert span[0] <= v < span[1]
    for j in range(len(art.formula.clauses)):
        span = next(s for s in art.role_map if s[2] == f"gadget j={j}")
        for name in ("p", "q"):
            for eta in (1, 2, 3):
                assert span[0] <= art.gadget_vertex(j, name, eta) < span[1]


def test_eth_role_map_partitions_vertices():
    art = build_eth(XYZ)
    spans = sorted(art.role_map)
    assert spans[0][0] == 0
    assert spans[-1][1] == art.graph.n
    for (_, stop, _), (start, _, _) in zip(spans, spans[1:]):
        assert stop == start
    assert len({tag for _, _, tag in spans}) == len(spans)


def eth_edit_kinds(art, edits) -> Counter:
    """Witness edits by action and the roles of their ends (cycle, p, q)."""
    role = [""] * art.graph.n
    for start, stop, tag in art.role_map:
        if tag.startswith("cycle"):
            role[start:stop] = ["cycle"] * (stop - start)
    for j in range(len(art.formula.clauses)):
        for name in ("p", "q"):
            for eta in (1, 2, 3):
                role[art.gadget_vertex(j, name, eta)] = name
    return Counter(("delete" if art.graph.has_edge(u, v) else "add",
                    *sorted((role[u], role[v]))) for u, v in edits.edges())


def check_eth_edit_accounting(art, edits) -> None:
    m = len(art.formula.clauses)
    assert eth_edit_kinds(art, edits) == {
        ("delete", "cycle", "cycle"): 6 * m,   # half of every variable cycle
        ("delete", "p", "q"): 3 * m,           # the chosen q leaves its gadget
        ("delete", "cycle", "q"): 4 * m,       # the other two q leave the cycles
        ("add", "q", "q"): m,                  # ... and join the p triangle
    }


def test_eth_witness_xyz_frozen():
    art = build_eth(XYZ)
    asg = extend_eth_assignment(art, {1: True, 2: False, 3: False})
    clustering, edits, cost = eth_witness(art, asg)
    assert cost == 84
    assert len(list(edits.edges())) == edits.m == 84
    assert clustering.c == 42
    sizes = Counter(Counter(clustering.assignment).values())
    assert dict(sizes) == {2: 30, 3: 6, 5: 6}
    edited = apply_edits(art.graph, edits)
    assert edited == cluster_graph_of(art.graph.n, clustering)
    check_eth_edit_accounting(art, edits)


@pytest.mark.parametrize("seed", range(10))
def test_eth_witness_seeded(seed):
    # redraw until satisfiable, so every seed checks a witness
    rng = random.Random(7100 + seed)
    source = None
    while source is None:
        nvar = rng.randint(1, 3)
        clauses = oracles.random_clauses(rng, nvar, rng.randint(1, 3))
        source = oracles.sat_assignment(nvar, clauses)
    src = CnfFormula(nvar, tuple(clauses))
    art = build_eth(src)
    if not art.formula.clauses:
        pytest.skip("normalization erased every clause")
    clustering, edits, cost = eth_witness(art, extend_eth_assignment(art, source))
    assert cost == art.budget == 14 * len(art.formula.clauses)
    edited = apply_edits(art.graph, edits)
    assert edited == cluster_graph_of(art.graph.n, clustering)
    assert set(Counter(clustering.assignment).values()) <= {2, 3, 5}
    check_eth_edit_accounting(art, edits)


# ---------------------------------------------------------------------------
# balanced-clique construction


def test_multivariate_minimal_frozen():
    art = build_multivariate(MIN_SRC, p=1, k=1, L_factor=1)
    assert art.n_reg == 144
    assert art.m_reg == 288
    assert art.L == 145
    assert art.vertex_count == 4326
    assert art.edge_count == 2_201_040
    assert art.budget == 2_624_832
    counts = attachment_counts(art)
    assert set(counts) == {(1, a) for a in range(1, 7)}
    assert set(counts.values()) == {2448}


def test_budget_summands_minimal_frozen():
    s = budget_summands(144, 288, 1, 145)
    assert s == {
        "clique_clique": 0,
        "clique_rest": 1_628_640,
        "rest_all_pairs": 993_600,
        "rest_existing": 8_640,
        "cycle_kept": 432,
        "attachment_kept": 2_592,
        "total": 2_624_832,
    }
    assert s["total"] == (s["clique_clique"] + s["clique_rest"]
                          + s["rest_all_pairs"] + s["rest_existing"]
                          - 2 * s["cycle_kept"] - 2 * s["attachment_kept"])


def test_budget_summands_divisibility_guard():
    with pytest.raises(ValueError, match="not divisible"):
        budget_summands(1, 1, 1, 10)


def test_multivariate_minimal_witness_materialized():
    art = build_multivariate(MIN_SRC, p=1, k=1, L_factor=1)
    asg = extend_assignment(art.regularized, {1: True})
    wit = multivariate_witness(art, asg)
    assert wit.cost == art.budget
    assert wit.kept_cycle == 3 * art.n_reg == 432
    assert wit.kept_attachment == 9 * art.m_reg == 2592
    assert set(wit.cluster_sizes.values()) == {721}
    assert sum(wit.cluster_sizes.values()) == art.vertex_count
    clustering = witness_clustering(art, wit)
    assert clustering.c == 6 * art.p
    g = materialize_graph(art)
    assert g.n == art.vertex_count
    assert g.m == art.edge_count
    target = cluster_graph_of(g.n, clustering)
    assert apply_edits(g, target).m == art.budget


def clique_edit_parts(art, g, target) -> Counter:
    """The edits turning g into target, split by the roles of their ends
    and named after the `CliqueWitness` counts.

    Counted with numpy over the keys of `apply_edits(g, target)`, the
    pairs that `clustering_to_edit_set` would list: the edit sets here run
    to millions of pairs, too many to hold as tuples, and n-bit rows of
    graphs this size take seconds to build.
    """
    names = sorted({tag.split()[0] for _, _, tag in art.role_map})
    role = np.empty(g.n, np.int64)
    for start, stop, tag in art.role_map:
        role[start:stop] = names.index(tag.split()[0])
    deletion = {("clause", "clique"): "cut_clique", ("clique", "cycle"): "cut_clique",
                ("cycle", "cycle"): "cut_cycle", ("clause", "cycle"): "cut_attachment"}
    edits = apply_edits(g, target).keys
    deleted = np.isin(edits, g.keys, assume_unique=True)
    parts = Counter(additions=int(len(edits) - deleted.sum()))
    # each deletion counted by the roles of its ends, the lower role first
    low, high = (role[end] for end in np.divmod(edits[deleted], g.n))
    pair = np.minimum(low, high) * len(names) + np.maximum(low, high)
    for code, count in enumerate(np.bincount(pair).tolist()):
        if count:
            a, b = divmod(code, len(names))
            parts[deletion.get((names[a], names[b]), "other")] += count
    return parts


def test_multivariate_minimal_faithful_frozen():
    art = build_multivariate(MIN_SRC, p=1, k=1)
    assert art.L_factor == 1000
    assert art.L == 145_000
    assert art.vertex_count == 873_456
    assert art.edge_count == 65_204_333_640
    assert art.budget == 1_629_636_192
    with pytest.raises(ValueError, match="too large to materialize"):
        materialize_graph(art)


def test_multivariate_xyz_faithful_witness():
    art = build_multivariate(XYZ, p=2, k=5)
    assert art.n_reg == 288
    assert art.L == 145_000
    asg = extend_assignment(art.regularized, {1: True, 2: False, 3: False})
    wit = multivariate_witness(art, asg)
    assert wit.cost == art.budget
    assert wit.kept_cycle == 3 * art.n_reg == 864
    assert wit.kept_attachment == 9 * art.m_reg == 5184
    assert set(wit.cluster_sizes.values()) == {145_576}
    assert len(wit.cluster_sizes) == 12
    with pytest.raises(ValueError, match="too large for an explicit clustering"):
        witness_clustering(art, wit)


def test_multivariate_witness_error_paths():
    art = build_multivariate(MIN_SRC, p=1, k=1, L_factor=1)
    f = art.regularized.formula
    asg = extend_assignment(art.regularized, {1: True})
    flips = {}
    for v in range(1, f.var_count + 1):
        flipped = dict(asg)
        flipped[v] = not flipped[v]
        key = "clean" if falsified_clause(f, flipped) is None else "falsifying"
        flips.setdefault(key, flipped)
        if len(flips) == 2:
            break
    assert set(flips) == {"clean", "falsifying"}
    with pytest.raises(ValueError, match="falsifies clause"):
        multivariate_witness(art, flips["falsifying"])
    with pytest.raises(ValueError, match="unbalanced"):
        multivariate_witness(art, flips["clean"])


@pytest.mark.parametrize(
    "phi,p,k,eps,factor,msg",
    [
        (MIN_SRC, 1, 0, 1, 1, "k >= epsilon"),
        (MIN_SRC, 3, 3, 1, 1, "n >= epsilon"),
        (XYZ, 1, 1, 1, 1, "n <= sqrt"),
        (CnfFormula(1, ((1,), (1,))), 1, 1, 1, 1, "m <= sqrt"),
        (MIN_SRC, 1, 1, 0, 1, "epsilon must be positive"),
        (MIN_SRC, 0, 1, 1, 1, "p must be at least 1"),
        (MIN_SRC, 1, 1, 1, 0, "L_factor must be at least 1"),
    ],
)
def test_multivariate_hypothesis_guards(phi, p, k, eps, factor, msg):
    with pytest.raises(ValueError, match=msg):
        build_multivariate(phi, p=p, k=k, epsilon=eps, L_factor=factor)


def test_multivariate_fractional_epsilon():
    # epsilon = 1/2 relaxes the size hypotheses but enlarges the cliques
    art = build_multivariate(XYZ, p=2, k=2, epsilon=Fraction(1, 2), L_factor=1)
    assert art.epsilon == Fraction(1, 2)
    assert art.n_reg % (2 * art.p) == 0
    wit = multivariate_witness(
        art, extend_assignment(art.regularized, {1: True, 2: False, 3: False}))
    assert wit.cost == art.budget


def test_multivariate_role_map_partitions_vertices():
    art = build_multivariate(MIN_SRC, p=1, k=1, L_factor=1)
    spans = sorted(art.role_map)
    assert spans[0][0] == 0
    assert spans[-1][1] == art.vertex_count
    for (_, stop, _), (start, _, _) in zip(spans, spans[1:]):
        assert stop == start
    tags = Counter(tag.split()[0] for _, _, tag in art.role_map)
    assert tags == {"clique": 6 * art.p, "cycle": art.n_reg, "clause": art.m_reg}
    for r in range(1, art.p + 1):
        for alpha in range(1, 7):
            rng = art.clique_range(r, alpha)
            span = next(s for s in art.role_map
                        if s[2] == f"clique r={r} alpha={alpha}")
            assert (rng.start, rng.stop) == (span[0], span[1])
    w_span = next(s for s in art.role_map if s[2] == "cycle x=1")
    assert w_span[0] <= art.w_id(1, 1) < w_span[1]
    s_span = next(s for s in art.role_map if s[2] == "clause j=0")
    assert s_span[0] <= art.s_id(0, 1, 1) < s_span[1]


def test_build_deterministic():
    assert build_multivariate(MIN_SRC, 1, 1, L_factor=1) == \
        build_multivariate(MIN_SRC, 1, 1, L_factor=1)
    assert build_eth(XYZ) == build_eth(XYZ)


# ---------------------------------------------------------------------------
# sidecar metadata


def test_sidecar_multivariate(tmp_path):
    art = build_multivariate(MIN_SRC, p=1, k=1, L_factor=1)
    d = sidecar_dict(art)
    assert d["schema"] == 1
    assert d["kind"] == "multivariate"
    assert d["budget"] == art.budget
    assert d["vertex_count"] == art.vertex_count
    assert d["edge_count"] == art.edge_count
    assert d["parameters"]["epsilon"] == "1"
    assert d["parameters"]["L"] == 145
    assert d["parameters"]["n_regular"] == 144
    assert d["parameters"]["source_vars"] == 1
    assert len(d["role_map"]) == len(art.role_map)
    path = tmp_path / "instance.json"
    write_sidecar(path, art)
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == d


def test_sidecar_eth(tmp_path):
    art = build_eth(XYZ)
    d = sidecar_dict(art)
    assert d["kind"] == "eth"
    assert d["budget"] == 84
    assert d["vertex_count"] == 108
    assert d["parameters"] == {
        "clause_count": 6, "var_count": 6, "source_vars": 3}
    path = tmp_path / "eth.json"
    write_sidecar(path, art)
    assert json.loads(path.read_text()) == d


def test_materialize_limit_constant():
    assert MATERIALIZE_VERTEX_LIMIT == 12000


# ---------------------------------------------------------------------------
# pinned adjacency and witnesses


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_construction_outputs_pinned():
    # digests of the full graphs and witnesses; a refactor must keep them
    art = build_eth(XYZ)
    clustering, edits, _ = eth_witness(
        art, extend_eth_assignment(art, {1: True, 2: False, 3: False}))
    mv = build_multivariate(MIN_SRC, p=1, k=1, L_factor=1)
    wit = multivariate_witness(mv, extend_assignment(mv.regularized, {1: True}))
    got = [
        _sha(format_graph(art.graph)),
        _sha(json.dumps(list(edits.edges()))),
        _sha(json.dumps(clustering.assignment)),
        _sha(format_graph(materialize_graph(mv))),
        _sha(json.dumps(witness_clustering(mv, wit).assignment)),
    ]
    assert got == [
        "55a712173f77da3d5f48efb5989b4b9a186ccea63ff3bf14fa0f529a9f2bb748",
        "9ea2b57a92bb3aaafbf828eb08b15aab6f7f47b08d6f99a349fc9badd27b4e14",
        "af1cbbeeecb422036bb785bd610242dd1f0ee661648b9457f190b8b5bb042c4f",
        "05f98b152f24addd5c3d18459ce22578c7de392310d630c8bd98cc795843cb13",
        "8fe4a1ad5366d8dd1dab20de8b64c39352b14448bc46d64d9d231d15ddc2f08b",
    ]
