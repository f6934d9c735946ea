"""Hardness-instance generators: SAT formulas to cluster-editing instances.

Two constructions live here.

The balanced-clique construction turns a 3-CNF formula (after the
regularizing rewrite) into a p-cluster-editing instance built around 6p
large cliques.  Faithful instances are far too big to materialize, so the
artifact is a structural description: exact vertex/edge counts, a budget,
and id arithmetic.  A guarded materializer produces a real Graph for
downscaled instances.

The bounded-degree construction turns a 3-CNF formula into a (max degree 5)
cluster-editing instance with budget 14m; these graphs are always small
enough to materialize.

Both carry exact-budget witness builders that convert a satisfying
assignment into a clustering whose edit cost meets the budget exactly.
Each construction's adjacency is stated once.  The bounded-degree witness
builds only the clusters and derives its 14m edits from them with
`clustering_to_edit_set`.  For the balanced-clique construction one walk
over the cycle and clause vertices (`_gadget`) drives the materializer,
the attachment counts and the counted witness.  Both artifacts derive
their role maps from their own id arithmetic, and the bounded-degree graph
is built through that arithmetic too.
"""
from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, product
from math import comb

import numpy as np

from .cnf import CnfFormula, falsified_clause, first_true_position
from .graph import Clustering, Graph, clustering_to_edit_set
from .regularize import (Recipe, RegularizedFormula, apply_recipes,
                         clean_clauses, regularize)

MATERIALIZE_VERTEX_LIMIT = 12000

RoleSpan = tuple[int, int, str]          # [start, stop) vertex range + role tag


def _norm6(z: int) -> int:
    return (z - 1) % 6 + 1


# ===========================================================================
# balanced-clique construction


def budget_summands(n_reg: int, m_reg: int, p: int, L: int) -> dict[str, int]:
    """The six budget components; total is the editing budget."""
    ws = 6 * n_reg + 9 * m_reg
    if ws % (6 * p):
        raise ValueError("vertex total not divisible by cluster count")
    size = ws // (6 * p)
    s = {
        "clique_clique": 0,
        "clique_rest": (6 * n_reg + 36 * m_reg) * L,
        "rest_all_pairs": 6 * p * comb(size, 2),
        "rest_existing": 6 * n_reg + 27 * m_reg,
        "cycle_kept": 3 * n_reg,
        "attachment_kept": 9 * m_reg,
    }
    s["total"] = (s["clique_clique"] + s["clique_rest"] + s["rest_all_pairs"]
                  + s["rest_existing"] - 2 * s["cycle_kept"] - 2 * s["attachment_kept"])
    return s


@dataclass(frozen=True)
class CliqueArtifact:
    """Structural description of a balanced-clique instance."""

    regularized: RegularizedFormula
    p: int                       # part count; the instance asks for 6p clusters
    k: int                       # solver budget named in the size hypotheses
    epsilon: Fraction
    L: int                       # clique size
    L_factor: int                # 1000 is faithful; smaller values are test-scale
    budget: int
    vertex_count: int
    edge_count: int

    @property
    def n_reg(self) -> int:
        return self.regularized.formula.var_count

    @property
    def m_reg(self) -> int:
        return len(self.regularized.formula.clauses)

    def clique_range(self, r: int, alpha: int) -> range:
        base = ((r - 1) * 6 + (alpha - 1)) * self.L
        return range(base, base + self.L)

    def w_id(self, x: int, c: int) -> int:
        return 6 * self.p * self.L + (x - 1) * 6 + (c - 1)

    def s_id(self, j: int, beta: int, xi: int) -> int:
        base = 6 * self.p * self.L + 6 * self.n_reg
        return base + 9 * j + 3 * (beta - 1) + (xi - 1)

    @property
    def role_map(self) -> tuple[RoleSpan, ...]:
        spans = []
        for r in range(1, self.p + 1):
            for alpha in range(1, 7):
                rng = self.clique_range(r, alpha)
                spans.append((rng.start, rng.stop, f"clique r={r} alpha={alpha}"))
        spans += [(self.w_id(x, 1), self.w_id(x, 6) + 1, f"cycle x={x}")
                  for x in range(1, self.n_reg + 1)]
        spans += [(self.s_id(j, 1, 1), self.s_id(j, 3, 3) + 1, f"clause j={j}")
                  for j in range(self.m_reg)]
        return tuple(spans)


def _s_attached(clause: tuple[int, ...], part_of: dict[int, int],
                beta: int, xi: int) -> tuple[tuple[int, int], ...]:
    """Distinct clique keys s_{beta,xi} is fully joined to, in rule order."""
    out = []
    for eta in (1, 2, 3):
        lit = clause[eta - 1]
        r = part_of[abs(lit)]
        if xi == 1:
            sgn = 1 if lit > 0 else 0
            out.append((r, _norm6(2 * beta + 2 * eta - 2 - sgn)))
        else:
            out.append((r, _norm6(2 * beta + 2 * eta - 3)))
            out.append((r, _norm6(2 * beta + 2 * eta - 2)))
    return tuple(dict.fromkeys(out))


def _gadget(art: CliqueArtifact) -> Iterator[tuple[int, str, tuple[tuple[int, int], ...],
                                                   tuple[int, ...]]]:
    """Walk the cycle and clause vertices in id order.

    Yields (vertex id, kind, attached clique keys, cycle neighbours), kind
    being the role-map tag "cycle" or "clause".  A cycle vertex names only
    its successor w_{x,c+1} and a clause vertex its three cycle vertices,
    so every edge outside the cliques appears once.
    """
    part_of = art.regularized.part_index()
    for x in range(1, art.n_reg + 1):
        r = part_of[x]
        for c in range(1, 7):
            yield (art.w_id(x, c), "cycle", ((r, c), (r, _norm6(c + 1))),
                   (art.w_id(x, _norm6(c + 1)),))
    for j, clause in enumerate(art.regularized.formula.clauses):
        for beta in (1, 2, 3):
            nbrs = tuple(art.w_id(abs(clause[eta - 1]), _norm6(2 * beta + 2 * eta - 3))
                         for eta in (1, 2, 3))
            for xi in (1, 2, 3):
                yield (art.s_id(j, beta, xi), "clause",
                       _s_attached(clause, part_of, beta, xi), nbrs)


def build_multivariate(phi: CnfFormula, p: int, k: int,
                       epsilon: Fraction | int = 1,
                       L_factor: int = 1000) -> CliqueArtifact:
    """Build the balanced-clique instance; checks the size hypotheses exactly.

    L_factor below 1000 downsizes the cliques for test runs and is not
    faithful to the soundness argument.
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    if p < 1:
        raise ValueError("p must be at least 1")
    if L_factor < 1:
        raise ValueError("L_factor must be at least 1")
    n, m = phi.var_count, len(phi.clauses)
    if Fraction(k) < eps * p:
        raise ValueError(f"hypothesis violated: k >= epsilon*p ({k} < {eps * p})")
    if Fraction(n) < eps * p:
        raise ValueError(f"hypothesis violated: n >= epsilon*p ({n} < {eps * p})")
    if (Fraction(n) * eps) ** 2 > p * k:
        raise ValueError(f"hypothesis violated: n <= sqrt(p*k)/epsilon (n={n})")
    if (Fraction(m) * eps) ** 2 > p * k:
        raise ValueError(f"hypothesis violated: m <= sqrt(p*k)/epsilon (m={m})")

    reg = regularize(phi, p, eps)
    n_reg = reg.formula.var_count
    m_reg = len(reg.formula.clauses)

    eps_l = min(eps, Fraction(1))        # larger epsilon only strengthens the hypotheses
    val = L_factor * (1 + Fraction(n_reg) / (p * eps_l))
    L = -((-val.numerator) // val.denominator)

    budget = budget_summands(n_reg, m_reg, p, L)["total"]
    vertices = 6 * p * L + 6 * n_reg + 9 * m_reg
    edges = (6 * p * comb(L, 2) + (12 * n_reg + 45 * m_reg) * L
             + 6 * n_reg + 27 * m_reg)
    return CliqueArtifact(reg, p, k, eps, L, L_factor, budget, vertices, edges)


def attachment_counts(art: CliqueArtifact) -> dict[tuple[int, int], int]:
    """How many cycle/clause vertices are fully joined to each clique."""
    counts = {(r, a): 0 for r in range(1, art.p + 1) for a in range(1, 7)}
    for _, _, attached, _ in _gadget(art):
        for key in attached:
            counts[key] += 1
    return counts


def materialize_graph(art: CliqueArtifact) -> Graph:
    """Actually build the graph; only sensible for downsized instances."""
    n = art.vertex_count
    if n > MATERIALIZE_VERTEX_LIMIT:
        raise ValueError(f"graph too large to materialize ({n} vertices)")
    # the keys in ascending order with no sort: each clique's block, in id
    # order, holds for each of its vertices the clique's later vertices and
    # then the vertices joined to all of the clique, which _gadget walks in
    # id order and which lie above every clique id; the gadget's own edges
    # come last
    joined = {(r, alpha): [] for r in range(1, art.p + 1) for alpha in range(1, 7)}
    gadget = []
    for v, _, attached, nbrs in _gadget(art):
        gadget += [min(u, v) * n + max(u, v) for u in nbrs]
        for key in attached:
            joined[key].append(v)
    keys = []
    for key, ids in joined.items():
        lo = art.clique_range(*key).start
        ends = np.concatenate((np.arange(lo, lo + art.L), ids))
        i, j = np.triu_indices(art.L, 1, len(ends))
        keys.append((lo + i) * n + ends[j])
    keys.append(np.sort(np.array(gadget, np.int64)))
    g = Graph(n, np.concatenate(keys))
    if g.m != art.edge_count:
        raise AssertionError(f"materialized edge count {g.m} != predicted {art.edge_count}")
    return g


@dataclass
class CliqueWitness:
    """Counted exact-budget witness for a balanced-clique instance.

    Clusters are keyed by (part, alpha); clique members are implicit.
    Costs are counted from the cluster assignment, not copied from the
    budget formula.
    """

    cluster_of: dict[int, tuple[int, int]]   # cycle/clause vertex id -> cluster
    cut_clique: int
    cut_cycle: int
    cut_attachment: int
    additions: int
    cost: int
    cluster_sizes: dict[tuple[int, int], int]
    kept_cycle: int
    kept_attachment: int


def multivariate_witness(art: CliqueArtifact,
                         assignment: dict[int, bool]) -> CliqueWitness:
    """Clustering + counted edit cost for a balanced satisfying assignment.

    The assignment addresses the regularized formula's variables; push a
    source-formula assignment through `extend_assignment` first.
    """
    reg = art.regularized
    f = reg.formula
    bad = falsified_clause(f, assignment)
    if bad is not None:
        raise ValueError(f"assignment falsifies clause {bad}")
    for ri, block in enumerate(reg.parts, start=1):
        true_count = sum(assignment[v] for v in block)
        if 2 * true_count != len(block):
            raise ValueError(f"part {ri} unbalanced: {true_count} true of {len(block)}")
    part_of = reg.part_index()
    L = art.L

    place: dict[int, tuple[int, int]] = {}
    for x in range(1, f.var_count + 1):
        for c in range(1, 7):
            alpha = c if (c % 2 == 1) == assignment[x] else _norm6(c + 1)
            place[art.w_id(x, c)] = (part_of[x], alpha)
    for j, clause in enumerate(f.clauses):
        sat_eta = first_true_position(clause, assignment)
        for beta in (1, 2, 3):
            for xi in (1, 2, 3):
                eta = (sat_eta + xi - 2) % 3 + 1
                x = abs(clause[eta - 1])
                phi = 1 if assignment[x] else 0
                place[art.s_id(j, beta, xi)] = (part_of[x], _norm6(2 * beta + 2 * eta - 2 - phi))

    cut_clique = 0
    kept = {"cycle": 0, "clause": 0}     # cycle edges, attachment edges
    cut = {"cycle": 0, "clause": 0}
    members = {(r, a): 0 for r in range(1, art.p + 1) for a in range(1, 7)}
    for v, kind, attached, nbrs in _gadget(art):
        cl = place[v]
        if cl not in attached:
            raise AssertionError(f"{kind} vertex placed away from its cliques")
        cut_clique += L * (len(attached) - 1)
        members[cl] += 1
        for u in nbrs:
            if place[u] == cl:
                kept[kind] += 1
            else:
                cut[kind] += 1

    additions = sum(comb(L + t, 2) - comb(L, 2) - L * t for t in members.values())
    additions -= kept["cycle"] + kept["clause"]

    cost = cut_clique + cut["cycle"] + cut["clause"] + additions
    if cost != art.budget:
        raise AssertionError(f"witness cost {cost} != budget {art.budget}")
    sizes = {cl: L + t for cl, t in members.items()}
    return CliqueWitness(place, cut_clique, cut["cycle"], cut["clause"],
                         additions, cost, sizes, kept["cycle"], kept["clause"])


def witness_clustering(art: CliqueArtifact, wit: CliqueWitness) -> Clustering:
    """Explicit per-vertex clustering of a witness (guarded by graph size)."""
    if art.vertex_count > MATERIALIZE_VERTEX_LIMIT:
        raise ValueError("instance too large for an explicit clustering")
    # cluster 6 (r - 1) + alpha - 1: clique (r, alpha) and what joins it
    blocks = [list(art.clique_range(r, alpha))
              for r in range(1, art.p + 1) for alpha in range(1, 7)]
    for v, (r, alpha) in wit.cluster_of.items():
        blocks[(r - 1) * 6 + (alpha - 1)].append(v)
    return Clustering.from_blocks(art.vertex_count, blocks)


# ===========================================================================
# bounded-degree construction


def normalize_for_eth(f: CnfFormula) -> tuple[CnfFormula, tuple[Recipe, ...]]:
    """Equisatisfiable rewrite: 3 distinct variables per clause, every
    variable used in both polarities, no unused variables.

    Short clauses are expanded over fresh variables (all sign patterns, so
    the original literal is still forced); missing polarities are supplied
    by clauses over a fresh always-satisfiable triple.  Recipes extend a
    satisfying assignment of the input to one of the output.
    """
    clauses: list[tuple[int, ...]] = []
    n = f.var_count
    recipes: dict[int, Recipe] = {}     # fresh variables only

    def fresh(value: bool) -> int:
        nonlocal n
        n += 1
        recipes[n] = ("const", value)
        return n

    for seen in clean_clauses(f.clauses):
        if len(seen) == 3:
            clauses.append(seen)
        elif len(seen) == 2:
            c = fresh(True)
            clauses.append(seen + (c,))
            clauses.append(seen + (-c,))
        else:
            a, b = fresh(True), fresh(True)
            for sa in (a, -a):
                for sb in (b, -b):
                    clauses.append((seen[0], sa, sb))

    pos = {abs(l) for c in clauses for l in c if l > 0}
    neg = {abs(l) for c in clauses for l in c if l < 0}
    trio: tuple[int, int, int] | None = None

    def get_trio() -> tuple[int, int, int]:
        nonlocal trio
        if trio is None:
            t1, t2, t3 = fresh(True), fresh(False), fresh(True)
            clauses.append((t1, t2, t3))
            clauses.append((-t1, -t2, -t3))
            trio = (t1, t2, t3)
        return trio

    for v in sorted(pos | neg):
        if v not in pos:
            t1, t2, _ = get_trio()
            clauses.append((v, t1, t2))
        if v not in neg:
            t1, t2, _ = get_trio()
            clauses.append((-v, t1, t2))

    used = sorted({abs(l) for c in clauses for l in c})
    renum = {old: i for i, old in enumerate(used, start=1)}
    out_clauses = tuple(tuple((1 if l > 0 else -1) * renum[abs(l)] for l in c)
                        for c in clauses)
    out_recipes = tuple(recipes.get(old, ("var", old, True)) for old in used)
    return CnfFormula(len(used), out_clauses), out_recipes


@dataclass(frozen=True)
class DegreeArtifact:
    """Bounded-degree instance: graph, budget 14m, and id arithmetic."""

    formula: CnfFormula                  # normalized form
    recipes: tuple[Recipe, ...]          # extend a source assignment to `formula`
    source_var_count: int
    graph: Graph
    budget: int
    cycle_base: tuple[int, ...]          # per variable (index v-1)
    occurrence_index: dict[tuple[int, int], int]   # (clause j, eta) -> slot on var's cycle
    gadget_base: int

    def cycle_length(self, x: int) -> int:
        nxt = (self.cycle_base[x] if x < len(self.cycle_base) else self.gadget_base)
        return nxt - self.cycle_base[x - 1]

    def cycle_vertex(self, x: int, slot: int, j: int) -> int:
        """j in 1..4 inside occurrence `slot` of variable x."""
        return self.cycle_base[x - 1] + 4 * slot + (j - 1)

    def gadget_vertex(self, j: int, name: str, eta: int) -> int:
        off = (0 if name == "p" else 3) + (eta - 1)
        return self.gadget_base + 6 * j + off

    @property
    def role_map(self) -> tuple[RoleSpan, ...]:
        spans = [(self.cycle_vertex(x, 0, 1),
                  self.cycle_vertex(x, 0, 1) + self.cycle_length(x), f"cycle x={x}")
                 for x in range(1, self.formula.var_count + 1)]
        spans += [(self.gadget_vertex(j, "p", 1), self.gadget_vertex(j, "q", 3) + 1,
                   f"gadget j={j}") for j in range(len(self.formula.clauses))]
        return tuple(spans)


def extend_eth_assignment(art: DegreeArtifact,
                          assignment: dict[int, bool]) -> dict[int, bool]:
    return apply_recipes(art.recipes, assignment)


def _attached_slots(lit: int) -> tuple[int, int]:
    """Which of its occurrence's four cycle vertices (j = 1..4) a literal's
    q vertex joins: the first two if positive, the middle two if negated."""
    return (1, 2) if lit > 0 else (2, 3)


def build_eth(phi: CnfFormula) -> DegreeArtifact:
    """Construct the bounded-degree instance (normalizes the formula first)."""
    f, recipes = normalize_for_eth(phi)
    n = f.var_count
    occs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for j, clause in enumerate(f.clauses):
        for eta, lit in enumerate(clause, start=1):
            occs[abs(lit) - 1].append((j, eta))

    cycle_base = []
    total = 0
    for x in range(n):
        cycle_base.append(total)
        total += 4 * len(occs[x])
    gadget_base = total
    vcount = total + 6 * len(f.clauses)

    occurrence_index = {key: slot for x in range(n)
                        for slot, key in enumerate(occs[x])}
    # the id arithmetic first, so the edges are stated through it
    art = DegreeArtifact(f, recipes, phi.var_count, Graph.empty(0),
                         14 * len(f.clauses), tuple(cycle_base),
                         occurrence_index, gadget_base)

    edges: list[tuple[int, int]] = []
    for x in range(1, n + 1):
        base, ln = art.cycle_vertex(x, 0, 1), art.cycle_length(x)
        for i in range(ln):
            edges.append((base + i, base + (i + 1) % ln))
    for j, clause in enumerate(f.clauses):
        ps = [art.gadget_vertex(j, "p", eta) for eta in (1, 2, 3)]
        qs = [art.gadget_vertex(j, "q", eta) for eta in (1, 2, 3)]
        edges += combinations(ps, 2)
        edges += product(ps, qs)
        for eta, lit in enumerate(clause, start=1):
            slot = occurrence_index[(j, eta)]
            for pos in _attached_slots(lit):
                edges.append((qs[eta - 1], art.cycle_vertex(abs(lit), slot, pos)))

    return replace(art, graph=Graph.from_edges(vcount, edges))


def eth_witness(art: DegreeArtifact, assignment: dict[int, bool]
                ) -> tuple[Clustering, Graph, int]:
    """Exact-budget witness: clustering, edit set and its size 14m.

    Only the clusters are built; the edit set is the graph on the vertices
    of ``art.graph`` whose edges are the pairs that turn it into their
    cluster graph.  `assignment` addresses the normalized formula; use
    `extend_eth_assignment` to push a source assignment through.
    """
    f = art.formula
    bad = falsified_clause(f, assignment)
    if bad is not None:
        raise ValueError(f"assignment falsifies clause {bad}")

    blocks: list[list[int]] = []
    pair_block: dict[int, int] = {}      # kept pair's first vertex -> block index
    for x in range(1, f.var_count + 1):
        # the kept pairs start at even cycle offsets if x is true, odd if false
        base, ln = art.cycle_vertex(x, 0, 1), art.cycle_length(x)
        for i in range(0 if assignment[x] else 1, ln, 2):
            pair_block[base + i] = len(blocks)
            blocks.append([base + i, base + (i + 1) % ln])

    for j, clause in enumerate(f.clauses):
        sat_eta = first_true_position(clause, assignment)
        blocks.append([art.gadget_vertex(j, "p", e) for e in (1, 2, 3)]
                      + [art.gadget_vertex(j, "q", e) for e in (1, 2, 3) if e != sat_eta])
        # the chosen q joins the kept cycle pair it is attached to
        lit = clause[sat_eta - 1]
        lead = art.cycle_vertex(abs(lit), art.occurrence_index[(j, sat_eta)],
                                _attached_slots(lit)[0])
        blocks[pair_block[lead]].append(art.gadget_vertex(j, "q", sat_eta))

    clustering = Clustering.from_blocks(art.graph.n, blocks)
    edits = clustering_to_edit_set(art.graph, clustering)
    if edits.m != art.budget:
        raise AssertionError(f"witness size {edits.m} != budget {art.budget}")
    return clustering, edits, edits.m


# ===========================================================================
# sidecar files


def sidecar_dict(art: CliqueArtifact | DegreeArtifact) -> dict:
    if isinstance(art, CliqueArtifact):
        return {
            "schema": 1,
            "kind": "multivariate",
            "budget": art.budget,
            "vertex_count": art.vertex_count,
            "edge_count": art.edge_count,
            "parameters": {
                "p": art.p,
                "k": art.k,
                "epsilon": str(art.epsilon),
                "L": art.L,
                "L_factor": art.L_factor,
                "n_regular": art.n_reg,
                "m_regular": art.m_reg,
                "source_vars": art.regularized.source_var_count,
                "flag": art.regularized.flag,
            },
            "role_map": [list(span) for span in art.role_map],
        }
    return {
        "schema": 1,
        "kind": "eth",
        "budget": art.budget,
        "vertex_count": art.graph.n,
        "edge_count": art.graph.m,
        "parameters": {
            "clause_count": len(art.formula.clauses),
            "var_count": art.formula.var_count,
            "source_vars": art.source_var_count,
        },
        "role_map": [list(span) for span in art.role_map],
    }


def write_sidecar(path, art) -> None:
    with open(path, "w") as fh:
        json.dump(sidecar_dict(art), fh, indent=2, sort_keys=True)
        fh.write("\n")
