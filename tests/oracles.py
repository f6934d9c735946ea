"""Independent reference computations for the test suite.

Everything here rebuilds answers from first principles -- exhaustive
enumeration over raw edge lists, high-precision arithmetic, or an external
MILP solver -- so package results are compared against a second route
rather than against themselves.  Nothing in this module calls back into
the package, except two replays of a package routine by a second route:
``preprocess_stepwise`` applies the reduction rules one deletion at a time
on the package's graph primitives, so the one-pass ``preprocess`` is
compared against the rules as stated, and ``at_most_by_exact_loop`` answers
at-most mode with one exact-mode solve per cluster count.
``connected_components`` is the breadth-first search that
``graph`` shipped until no solve ran it; ``clique_components_bfs``, the
clique-component test that ``graph.clique_components`` replaced with a
label scan over the edge keys, ``is_cluster_graph_bfs`` and
``verify_solution_components``, the component-scan certificate check that
``solver.verify_solution`` replaced with a check over the edge keys, build
on it.
``chain_optima`` is the DP over every nested pair of cuts, so over every
cluster order, that the solver's one canonical chain per clustering
replaced, and ``dp_reference`` is the solver's canonical-chain DP on
python ints and dicts, which ``solver._dp_numpy`` must match chain for
chain.  ``lift_reference`` is the per-vertex assignment walk that
``preprocess.lift_clustering`` replaced with one ``Clustering.from_blocks``,
and ``early_no_reference`` restates ``preprocess.early_no``'s packing order
as its docstring gives it, without the arithmetic on packed sort keys.
``cut_masks`` decodes a ``CutIndex``'s uint64 words into python-int masks
by plain shifts, without the package's word helpers.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections import Counter

import mpmath
import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp

from cluedit.cuts import CutIndex
from cluedit.graph import (Clustering, Graph, apply_edits, bits,
                           induced_subgraph)
from cluedit.preprocess import _TRIPLES, Instance, PreprocessOutcome
from cluedit.solver import Solution, SolveResult, SolveStats, solve_exact_p


# ---------------------------------------------------------------------------
# vertex masks

def mask_of(vertices) -> int:
    """The vertex mask with bit v set for each v in *vertices*."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


# ---------------------------------------------------------------------------
# set partitions and editing cost

def partitions(items):
    """All partitions of *items* into nonempty blocks (lists of lists)."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


def editing_cost(n, edges, blocks) -> int:
    """Edits turning (n, edges) into the cluster graph with these blocks."""
    block_of = {}
    for b, block in enumerate(blocks):
        for v in block:
            block_of[v] = b
    es = {frozenset(e) for e in edges}
    cost = 0
    for u, v in itertools.combinations(range(n), 2):
        inside = block_of[u] == block_of[v]
        present = frozenset((u, v)) in es
        cost += inside != present
    return cost


def best_by_count(n, edges) -> list:
    """best_by_count(...)[p] = optimal cost with exactly p blocks, else None."""
    best: list = [None] * (n + 1)
    for part in partitions(range(n)):
        c = editing_cost(n, edges, part)
        p = len(part)
        if best[p] is None or c < best[p]:
            best[p] = c
    return best


def best_cost(n, edges, p, mode="exact"):
    by = best_by_count(n, edges)
    if mode == "exact":
        return by[p] if p <= n else None
    vals = [v for v in by[1:min(p, n) + 1] if v is not None]
    if p >= 0 and n == 0:
        return 0
    return min(vals) if vals else None


# ---------------------------------------------------------------------------
# clique components by breadth-first search

def connected_components(g: Graph) -> list[int]:
    """Component vertex masks, ordered by smallest contained vertex id."""
    seen = 0
    out = []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        comp = 1 << v
        frontier = comp
        while frontier:
            grow = 0
            for u in bits(frontier):
                grow |= g.rows[u]
            frontier = grow & ~comp
            comp |= grow
        out.append(comp)
        seen |= comp
    return out


def clique_components_bfs(g: Graph) -> list[int]:
    """Masks of the connected components whose every vertex is adjacent to
    exactly the rest of the component, in component order."""
    return [comp for comp in connected_components(g)
            if all(g.rows[v] == comp ^ (1 << v) for v in bits(comp))]


def is_cluster_graph_bfs(g: Graph) -> bool:
    """True iff each vertex's row is exactly the rest of its connected
    component, so every component is a clique and no row has its own bit."""
    return all(g.rows[v] == comp ^ (1 << v)
               for comp in connected_components(g) for v in bits(comp))


# ---------------------------------------------------------------------------
# preprocessing, one rule firing at a time

def rule1_rejects(g: Graph, p: int, k: int) -> bool:
    """Reject iff fewer than p - 2k components of g are cliques."""
    return len(clique_components_bfs(g)) < p - 2 * k


def rule2_target(g: Graph, k: int) -> int | None:
    """Mask of the isolated vertex Rule 2 would delete, or None.

    Fires when at least 2k+1 isolated vertices exist; deletes the one with
    the smallest id.
    """
    isolated = [1 << v for v in range(g.n) if g.rows[v] == 0]
    if len(isolated) >= 2 * k + 1:
        return isolated[0]
    return None


def rule3_target(g: Graph, k: int) -> int | None:
    """Mask of the clique component Rule 3 would delete, or None.

    Fires when at least 2k+1 isolated nontrivial cliques exist; deletes a
    largest one, ties broken towards the smallest contained vertex id.
    """
    cliques = [c for c in clique_components_bfs(g) if c.bit_count() >= 2]
    if len(cliques) < 2 * k + 1:
        return None
    best = cliques[0]
    for c in cliques[1:]:
        if c.bit_count() > best.bit_count():
            best = c
    return best


def preprocess_stepwise(inst: Instance) -> PreprocessOutcome:
    """Rules 1-3 applied one firing at a time, re-scanning the graph after
    each deletion: Rule 1 rejects, else Rule 3, else Rule 2, while p' > 6k.

    At-most mode skips Rule 1 and clamps the final p' to the kernel's
    vertex count instead of rejecting.
    """
    g, p, k, mode = inst.g, inst.p, inst.k, inst.mode
    vmap = list(range(g.n))
    removed: list[tuple[str, tuple[int, ...]]] = []

    def delete(mask: int, rule: str) -> None:
        nonlocal g, p, vmap
        removed.append((rule, tuple(vmap[v] for v in bits(mask))))
        full = (1 << g.n) - 1
        g, submap = induced_subgraph(g, list(bits(full ^ mask)))
        vmap = [vmap[o] for o in submap]
        p -= 1

    while p > 6 * k:
        if mode == "exact" and rule1_rejects(g, p, k):
            return PreprocessOutcome("rule1", None, tuple(vmap), removed)
        target = rule3_target(g, k)
        if target is not None:
            delete(target, "rule3")
            continue
        target = rule2_target(g, k)
        if target is not None:
            delete(target, "rule2")
            continue
        break  # in exact mode unreachable once Rule 1 passed

    if p > g.n:
        if mode == "exact":
            return PreprocessOutcome("p_exceeds_n", None, tuple(vmap),
                                     removed)
        p = g.n
    return PreprocessOutcome(None, Instance(g, p, k, mode), tuple(vmap),
                             removed)


def early_no_reference(g: Graph, p: int, k: int
                       ) -> tuple[str, list[tuple[int, int, int]]] | None:
    """``preprocess.early_no`` restated from its docstring on sets and a
    `Counter`: count the closed-twin classes, then list the conflict
    triples u-w-v (u < v) at the first vertex of each class, skipping a
    centre whose d(d - 1)/2 neighbour pairs would take the centres before
    it past ``_TRIPLES``, and pack them greedily in ascending order of
    (summed listed triples per pair, u, w, v)."""
    classes: dict[int, int] = {}
    for v in range(g.n):
        classes.setdefault(g.rows[v] | 1 << v, v)
    if len(classes) > 2 * k + p:
        return "class_count", []
    room, triples = _TRIPLES, []
    for w in sorted(classes.values()):
        pairs = math.comb(g.rows[w].bit_count(), 2)
        if pairs > room:
            continue
        room -= pairs
        triples += [(u, w, v) for u, v in itertools.combinations(
            bits(g.rows[w]), 2) if not g.has_edge(u, v)]

    def pairs_of(trio):
        u, w, v = trio
        return frozenset((u, w)), frozenset((w, v)), frozenset((u, v))

    listed = Counter(pair for trio in triples for pair in pairs_of(trio))
    held: set[frozenset] = set()
    packing = []
    for trio in sorted(triples, key=lambda trio: (
            sum(listed[pair] for pair in pairs_of(trio)), *trio)):
        if held.isdisjoint(pairs_of(trio)):
            held.update(pairs_of(trio))
            packing.append(trio)
            if len(packing) > k:
                return "conflict_triples", packing
    return None


def lift_reference(outcome: PreprocessOutcome, cl: Clustering,
                   original_n: int) -> Clustering:
    """Kernel vertex v gets the cluster of its reduced id, then each removed
    component a new id in removal order; every vertex must get one."""
    assignment = [-1] * original_n
    for reduced_v, orig_v in enumerate(outcome.vertex_map):
        assignment[orig_v] = cl.assignment[reduced_v]
    next_id = cl.c
    for _, vertices in outcome.removed:
        for v in vertices:
            assignment[v] = next_id
        next_id += 1
    if any(a == -1 for a in assignment):
        raise ValueError("lift does not cover the original vertex set")
    return Clustering(tuple(assignment))


# ---------------------------------------------------------------------------
# at-most mode, one exact-mode solve per cluster count

def at_most_by_exact_loop(inst: Instance, cap=None) -> SolveResult:
    """Cheapest solution over exact cluster counts 1..p, fewest clusters
    among the cheapest; stats summed over the solves.  Zero clusters fit
    only the empty graph."""
    assert inst.mode == "at_most"
    total = SolveStats()
    if inst.g.n == 0:
        return solve_exact_p(Instance(inst.g, 0, inst.k, "exact"), cap)
    best = None
    for p_exact in range(1, inst.p + 1):
        res = solve_exact_p(Instance(inst.g, p_exact, inst.k, "exact"), cap)
        total.cuts_enumerated += res.stats.cuts_enumerated
        total.dp_states += res.stats.dp_states
        total.aborted = total.aborted or res.stats.aborted
        if res.answer and (best is None
                           or res.solution.cost < best.solution.cost):
            best = res
            total.rules_applied = res.stats.rules_applied
            if best.solution.cost == 0:
                break
    if best is None:
        return SolveResult(False, None, total)
    return SolveResult(True, best.solution, total)


def verify_solution_components(inst: Instance, sol: Solution) -> bool:
    """Certificate check by components: the edited graph is a cluster graph
    and its components are exactly the clusters."""
    if len(sol.clustering.assignment) != inst.g.n or sol.edits.n != inst.g.n:
        return False
    pairs = list(sol.edits.edges())
    if sol.cost != len(pairs) or sol.cost > inst.k:
        return False
    # the edit set is a simple graph: distinct pairs u < v of 0..n-1, in order
    if (any(not 0 <= u < v < inst.g.n for u, v in pairs)
            or pairs != sorted(set(pairs))):
        return False
    edited = apply_edits(inst.g, sol.edits)
    if not is_cluster_graph_bfs(edited):
        return False
    comps = connected_components(edited)
    if sorted(comps) != sorted(sol.clustering.cluster_masks()):
        return False
    if inst.mode == "exact":
        return len(comps) == inst.p
    return len(comps) <= inst.p


# ---------------------------------------------------------------------------
# cuts

def crossing_count(n, edges, mask: int) -> int:
    return sum((mask >> u & 1) != (mask >> v & 1) for u, v in edges)


def cut_masks(index: CutIndex) -> list[int]:
    """Side 1 of every cut of *index* as a python-int mask, in row order."""
    return [sum(int(w) << 64 * i for i, w in enumerate(row))
            for row in index.words]


def ordered_cuts(n, edges, k: int):
    """All (side1 mask, crossing) pairs with crossing <= k, mask order."""
    return [(m, c) for m in range(1 << n)
            if (c := crossing_count(n, edges, m)) <= k]


def arc_cost(g: Graph, v1: int, v1p: int) -> int:
    """Cost of growing side-1 from v1 to v1p: edges cut off from v1 plus
    missing edges inside the new cluster v1p - v1."""
    if v1 & ~v1p:
        raise ValueError("v1 must be a subset of v1p")
    delta = v1p & ~v1
    cut = 0
    inside = 0
    for v in bits(delta):
        cut += (g.rows[v] & v1).bit_count()
        inside += (g.rows[v] & delta).bit_count()
    d = delta.bit_count()
    return cut + math.comb(d, 2) - inside // 2


def _grow_cost(g: Graph):
    """The cost of growing S_i to a superset S_j, counted on the edge list:
    the e(S_j) - e(S_i) - e(Delta) edges between S_i and Delta = S_j - S_i
    are deleted and the C(|Delta|, 2) - e(Delta) missing pairs inside Delta
    are added."""
    edges = list(g.edges())

    @functools.cache
    def inside(mask):
        return sum(mask >> u & 1 and mask >> v & 1 for u, v in edges)

    def grow(mi: int, mj: int) -> int:
        delta = mj & ~mi
        return (inside(mj) - inside(mi) - 2 * inside(delta)
                + math.comb(delta.bit_count(), 2))
    return grow


def chain_optima(g: Graph, masks, p: int, k: int) -> list:
    """Cheapest chain from the empty cut to V through *masks* with exactly
    0..p arcs, over every nested pair (every cluster order), as a list
    indexed by arc count; None where no chain costs <= k."""
    grow = _grow_cost(g)
    full = (1 << g.n) - 1
    best = {0: 0}
    optima = []
    for _ in range(p + 1):
        optima.append(best.get(full))
        nxt: dict[int, int] = {}
        for mi, ci in best.items():
            for mj in masks:
                if mi != mj and mi & ~mj == 0:
                    c = ci + grow(mi, mj)
                    if c <= k and c < nxt.get(mj, k + 1):
                        nxt[mj] = c
        best = nxt
    return optima


def dp_reference(g: Graph, cuts: CutIndex, p: int, k: int,
                 stats: SolveStats, at_most: bool = False,
                 prune: bool = True) -> list[int] | None:
    """Reference of `solver._dp_numpy` on python ints, with the same
    signature, states, tie-break and ``dp_states``; tests compare the two.

    With *prune* it keeps, as `_dp_numpy` does, only the candidates X with
    w(X) + crossing(X) <= 2k and the new states S with F + crossing(S) <=
    2k; without it, every candidate with w(X) <= 2k and every state within
    budget, the rule before those filters."""
    n = g.n
    full = (1 << n) - 1
    budget = 2 * k
    crossing_of = dict(zip(cut_masks(cuts), cuts.crossing_counts.tolist()))
    by_low: dict[int, list[tuple[int, int]]] = {}
    for x, crossing in crossing_of.items():
        size = x.bit_count()
        w = (size * (size - 1) - sum(g.rows[v].bit_count() for v in bits(x))
             + 2 * crossing)
        if x and w + (crossing if prune else 0) <= budget:
            by_low.setdefault((x & -x).bit_length() - 1, []).append((x, w))
    layers: list[dict[int, tuple[int, int]]] = [{0: (0, -1)}]  # S: (F, parent)
    for _ in range(p):
        nxt: dict[int, tuple[int, int]] = {}
        # parents by mask, so the smallest one wins a tie
        for s, (f, _) in sorted(layers[-1].items()):
            for x, w in by_low.get((~s & (s + 1)).bit_length() - 1, ()):
                u = s | x
                if (not x & s and u in crossing_of
                        and f + w + (crossing_of[u] if prune else 0) <= budget
                        and f + w < nxt.get(u, (budget + 1,))[0]):
                    nxt[u] = (f + w, s)
        if not nxt:
            break
        layers.append(nxt)
    stats.dp_states = sum(map(len, layers))
    reach = [j for j, layer in enumerate(layers)
             if (at_most or j == p) and full in layer]
    if not reach:
        return None
    last = min(reach, key=lambda j: (layers[j][full][0], j))
    chain = [full]
    for layer in reversed(layers[1:last + 1]):
        chain.append(layer[chain[-1]][1])
    chain.reverse()
    return chain


def leq_pow2_sqrt(value: int, coeff: int, q: int) -> bool:
    """Exact-enough decision of value <= 2**(coeff*sqrt(q)).

    For perfect squares both sides are integers and compared exactly;
    otherwise the right side is irrational and 60 digits settle it.
    """
    s = math.isqrt(q)
    if s * s == q:
        return value <= 1 << (coeff * s)
    with mpmath.workdps(60):
        return mpmath.log(value, 2) < coeff * mpmath.sqrt(q)


# ---------------------------------------------------------------------------
# CNF

def sat_assignment(nvar, clauses):
    """Exhaustive satisfiability; returns a model dict or None."""
    for pattern in range(1 << nvar):
        a = {v + 1: bool(pattern >> v & 1) for v in range(nvar)}
        if all(any((l > 0) == a[abs(l)] for l in cl) for cl in clauses):
            return a
    return None


def check_model(clauses, assignment) -> bool:
    return all(any((l > 0) == assignment[abs(l)] for l in cl)
               for cl in clauses)


def milp_sat(nvar, clauses) -> bool:
    """Feasibility MILP for CNF satisfiability (handles hundreds of vars).

    Clauses that share no variable are independent: the formula is
    satisfiable iff every variable-disjoint block is, so each block gets a
    MILP of its own (branch and bound on the whole would search the product
    of the blocks' trees).
    """
    if any(not cl for cl in clauses):
        return False
    parent = list(range(nvar + 1))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for cl in clauses:
        root = find(abs(cl[0]))
        for l in cl[1:]:
            parent[find(abs(l))] = root
    blocks: dict[int, list] = {}
    for cl in clauses:
        blocks.setdefault(find(abs(cl[0])), []).append(cl)
    return all(_milp_block_sat(block) for block in blocks.values())


def _milp_block_sat(clauses) -> bool:
    index: dict[int, int] = {}
    data, ri, ci, lo = [], [], [], []
    for r, cl in enumerate(clauses):
        neg = sum(l < 0 for l in cl)
        lo.append(1 - neg)
        for l in cl:
            data.append(1.0 if l > 0 else -1.0)
            ri.append(r)
            ci.append(index.setdefault(abs(l), len(index)))
    nvar = len(index)
    a = sp.csr_array((data, (ri, ci)), shape=(len(clauses), nvar))
    res = milp(np.zeros(nvar),
               constraints=LinearConstraint(a, lo, np.inf),
               integrality=np.ones(nvar), bounds=Bounds(0, 1))
    if res.status == 0:
        return True
    if res.status == 2:
        return False
    raise RuntimeError(f"MILP solver did not settle: {res.message}")


# ---------------------------------------------------------------------------
# cluster editing lower bound (unconstrained cluster count)

def cluster_editing_lb(n, edges, budget, max_rounds=30):
    """Certified lower bound on the cluster editing cost of (n, edges).

    MILP over pair variables with a lazily grown subset of transitivity
    constraints.  Any subset yields a relaxation, so every intermediate
    optimum is a valid lower bound; the loop stops once the bound exceeds
    *budget* or the incumbent is transitive (bound then exact).  A bound
    for unconstrained editing also lower-bounds every fixed cluster count.
    Returns (bound, exact).
    """
    pairs = list(itertools.combinations(range(n), 2))
    pidx = {e: i for i, e in enumerate(pairs)}
    es = {tuple(sorted(e)) for e in edges}
    c = np.ones(len(pairs))
    offset = 0
    for i, e in enumerate(pairs):
        if e in es:
            c[i] = -1.0
            offset += 1
    rows = [0] * n
    for u, v in es:
        rows[u] |= 1 << v
        rows[v] |= 1 << u

    triple_rows: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()

    def add_triple(u, v, w):
        # two present pairs force the third: x_a + x_b - x_c <= 1, rotated
        a, b, d = pidx[(u, v)], pidx[(v, w)], pidx[(u, w)]
        triple_rows.extend([(a, b, d), (b, d, a), (d, a, b)])

    def neighbors(row):
        out = []
        while row:
            low = row & -row
            out.append(low.bit_length() - 1)
            row ^= low
        return out

    for v in range(n):
        for u, w in itertools.combinations(neighbors(rows[v]), 2):
            t = tuple(sorted((u, v, w)))
            if t not in seen:
                seen.add(t)
                add_triple(*t)

    integrality = np.ones(len(pairs))
    bounds = Bounds(0, 1)
    lb = 0
    for _ in range(max_rounds):
        data, ri, ci = [], [], []
        for r, (a, b, d) in enumerate(triple_rows):
            data += [1.0, 1.0, -1.0]
            ri += [r, r, r]
            ci += [a, b, d]
        mat = sp.csr_array((data, (ri, ci)),
                           shape=(len(triple_rows), len(pairs)))
        res = milp(c, constraints=LinearConstraint(mat, -np.inf, 1),
                   integrality=integrality, bounds=bounds)
        if res.status != 0:
            raise RuntimeError(f"MILP solver did not settle: {res.message}")
        lb = round(res.fun + offset)
        chosen = res.x > 0.5
        sol_rows = [0] * n
        for i, (u, v) in enumerate(pairs):
            if chosen[i]:
                sol_rows[u] |= 1 << v
                sol_rows[v] |= 1 << u
        violated = []
        for v in range(n):
            for u, w in itertools.combinations(neighbors(sol_rows[v]), 2):
                if not sol_rows[u] >> w & 1:
                    t = tuple(sorted((u, v, w)))
                    if t not in seen:
                        violated.append(t)
            if len(violated) >= 3000:
                break
        if not violated:
            return lb, True
        if lb > budget:
            return lb, False
        for t in violated:
            seen.add(t)
            add_triple(*t)
    raise RuntimeError("transitivity generation did not converge")


# ---------------------------------------------------------------------------
# seeded generators (plain random.Random instances are passed in)

def random_edges(rng, n, density):
    return [e for e in itertools.combinations(range(n), 2)
            if rng.random() < density]


def random_blocks(rng, n, p):
    """A uniform-ish partition of 0..n-1 into exactly p nonempty blocks."""
    perm = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), p - 1)) if p > 1 else []
    out, prev = [], 0
    for c in cuts + [n]:
        out.append(sorted(perm[prev:c]))
        prev = c
    return out


def blocks_to_edges(blocks):
    edges = []
    for block in blocks:
        edges.extend(itertools.combinations(block, 2))
    return edges


def perturb(rng, n, edges, t):
    """Toggle exactly t distinct vertex pairs; returns the new edge list."""
    es = {tuple(sorted(e)) for e in edges}
    flips = rng.sample(list(itertools.combinations(range(n), 2)), t)
    for e in flips:
        if e in es:
            es.remove(e)
        else:
            es.add(e)
    return sorted(es)


def random_clauses(rng, nvar, nclauses, widths=(1, 2, 3)):
    """Random distinct-variable clauses; may repeat clauses."""
    out = []
    for _ in range(nclauses):
        w = rng.choice([w for w in widths if w <= nvar])
        vs = rng.sample(range(1, nvar + 1), w)
        out.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return out
