"""Exact (p-)cluster-editing decision via dynamic programming over cuts.

A solution with clusters X_1..X_p (ordered by enumeration) induces the
prefix bipartitions (X_1 u .. u X_j, rest), each of which must be a k-cut:
every crossing edge of a prefix is deleted by the solution.  Conversely any
chain of p nested cuts from (empty, V) to (V, empty) spells out a
clustering whose cost telescopes over the chain.  So the solver enumerates
the k-cut space and runs a shortest-chain DP with p layers.  The
enumeration stops at the counting bound `cut_count_bound(p, k)`, finite
for every p and k: every k-cut of a YES instance crosses at most 2k edges
of its target cluster graph, and no more than B(p, 2k) cuts of p cliques
do that.  So an abort at the bound is a proven NO, and every
``aborted`` NO is backed by it.  A user cap below the bound proves
nothing when it is exceeded, so such an abort answers unknown.

At-most mode runs the same pipeline once.  Layer j of the DP at the full
vertex set is the optimum for exactly j clusters, so the answer is the
cheapest layer in 0..p, ties going to the fewest clusters.  One cap
serves every layer: after preprocessing, a solution of the kernel has at
most min(p, 6k) clusters (at most 2k of them touch an edit, the rest are
clique components, and past 6k the rules leave at most 4k of those), and
the counting bound is monotone in p.

Arc costs.  Let B be the 0/1 cut-membership matrix (row i holds side-1
S_i), A the adjacency matrix, D = B A and X = B D^T, so that
X_ij = sum over u in S_i of |N(u) & S_j|.  For S_i a proper subset of S_j,
with Delta = S_j - S_i, the arc S_i -> S_j deletes the edges between
Delta and S_i and adds the missing pairs inside Delta:

    cost_ij = e(S_i, Delta) + C(|Delta|, 2) - e(Delta)
            = 2 X_ij - 1.5 X_ii - 0.5 X_jj + C(|S_j| - |S_i|, 2).

Only arcs of cost <= k can lie on a chain within budget, so the DP keeps
just those arcs and relaxes its p layers over that list.  Few pairs
survive: on the benchmark's planted_dense kernels 17% of the scored pairs
are nested and 4% become arcs.

Tie-break.  Among the minimum-cost predecessors of a cut in a layer, the
one with the smallest index in the cut list wins.  Cut indices follow
`CutIndex` order, side-1 size and then mask value, so the returned
optimum depends only on the cut set, not on how it was enumerated.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

# edges_inside_table is not used here; bench/spans.py patches it by name
from .cuts import CutIndex, cut_count_bound, edges_inside_table, enumerate_k_cuts
# connected_components is not used here; bench/spans.py patches it by name
from .graph import (Clustering, Graph, apply_edits, bits, cluster_graph_of,
                    clustering_to_edit_set, connected_components)
from .preprocess import Instance, PreprocessOutcome, lift_clustering, preprocess

_BIG = 1 << 31
# multiply-adds per block matmul; below 2^18 OpenBLAS keeps a call on one
# thread, and more threads only spin on blocks this small
_ARC_BLOCK = 1 << 18


@dataclass(frozen=True)
class Solution:
    clustering: Clustering
    edits: Graph                 # edit set: its edges are the toggled pairs
    cost: int


@dataclass
class SolveStats:
    cuts_enumerated: int = 0
    dp_states: int = 0
    rules_applied: list[str] = field(default_factory=list)
    aborted: bool = False


@dataclass
class SolveResult:
    answer: bool | None          # None: unknown, aborted under a user cap
    solution: Solution | None
    stats: SolveStats


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
    return cut + comb(d, 2) - inside // 2


def _membership(masks, n: int) -> np.ndarray:
    """len(masks) x n float64 0/1 matrix whose row i holds the bits of masks[i]."""
    width = (n + 7) // 8
    raw = b"".join(m.to_bytes(width, "little") for m in masks)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(packed, axis=1, count=n,
                         bitorder="little").astype(np.float64)


def _cheap_arcs(g: Graph, masks: list[int], k: int):
    """Every arc i -> j with S_i a proper subset of S_j and cost <= k.

    Returns integer arrays (src, dst, cost) sorted by dst, then src.  The
    masks are sorted by size, so the targets of one size are scored
    against all strictly smaller sources, a block of targets at a time, in
    one float64 matmul val = L R^T with L_i = [B_i, r_i, 1, -s_i] and
    R_j = [2 D_j + w (1 - B_j), 1, c_j, s_j], where s is the side-1 size,
    r_i = (s_i^2 + s_i)/2 - 1.5 X_ii and c_j = (s_j^2 - s_j)/2 - 0.5 X_jj.
    Then val_ij = cost_ij + w |S_i - S_j|: the penalty w = 4n^2 + 1 lifts
    every non-nested pair above n^2, since its cost term is >= -2n^2, so
    k must be at most n^2.  Every product is a multiple of 1/2 and their
    absolute values sum to less than 5n^3, so every partial sum of the
    matmul, and val, is exact in float64 for n up to 90000.

    The arcs of a block are read off in one flat scan: the block is
    raveled, the positions with val <= k are found in row-major order, and
    division by the source count `top` splits each position into its
    target row and source column, so the order is by target, then source.
    """
    n = g.n
    if n == 0:                                      # one cut, no arcs
        return (np.zeros(0, dtype=np.int64),) * 3
    b = _membership(masks, n)
    d = b @ _membership(g.rows, n)
    x_self = np.einsum("ij,ij->i", b, d)           # X_ii = 2 e(S_i)
    size = b.sum(axis=1)
    ones = np.ones(len(masks))
    left = np.column_stack([b, (size * size + size) / 2 - 1.5 * x_self,
                            ones, -size])
    right = np.column_stack([2 * d + (4 * n * n + 1) * (1 - b), ones,
                             (size * size - size) / 2 - 0.5 * x_self, size])
    first = np.searchsorted(size, np.arange(n + 2))  # first cut of each size
    src, dst, cost = [], [], []
    for s in range(1, n + 1):
        top, end = first[s], first[s + 1]          # sources are [0, top)
        sources = left[:top].T
        step = max(1, _ARC_BLOCK // (top * (n + 3)))
        for lo in range(top, end, step):
            val = (right[lo:min(lo + step, end)] @ sources).ravel()
            flat = np.flatnonzero(val <= k)
            j, i = np.divmod(flat, top)
            src.append(i)
            dst.append(j + lo)
            cost.append(val[flat])
    return (np.concatenate(src), np.concatenate(dst),
            np.concatenate(cost).astype(np.int64))


def _dp_numpy(g: Graph, cuts: CutIndex, p: int, k: int,
              stats: SolveStats, at_most: bool = False) -> list[int] | None:
    """Layered relaxation over the list of cheap arcs; any n.

    Returns the chain of side-1 masks of an optimal solution with exactly p
    clusters, or with the cheapest count in 0..p when *at_most* (ties go to
    the fewest clusters), or None.  Same layers, states and tie-break as
    `_dp_python`.
    """
    n = g.n
    ncuts = len(cuts)
    masks = cuts.masks
    # a chain never costs more than C(n, 2), so a larger budget changes
    # nothing; clamping keeps the keys below far from int64 overflow
    k = min(k, n * n)
    src, dst, cost = _cheap_arcs(g, masks, k)
    first = np.ones(len(dst), dtype=bool)              # first arc per target
    first[1:] = dst[1:] != dst[:-1]
    heads = np.flatnonzero(first)
    targets = dst[heads]
    best = np.full((p + 1, ncuts), _BIG, dtype=np.int64)
    pred = np.full((p + 1, ncuts), -1, dtype=np.int64)
    # CutIndex order puts the cut (empty, V) first and (V, empty) last
    best[0, 0] = 0
    for layer in range(p):
        if not len(src) or best[layer].min() > k:
            break
        # smallest (cost, source) per target, as one int64 key
        cand = np.minimum(best[layer][src] + cost, k + 1)
        key = np.minimum.reduceat(cand * ncuts + src, heads)
        hit = key < (k + 1) * ncuts
        best[layer + 1, targets[hit]] = key[hit] // ncuts
        pred[layer + 1, targets[hit]] = key[hit] % ncuts
    stats.dp_states = int((best <= k).sum())
    pos_full = ncuts - 1
    # argmin takes the first, so the fewest clusters among the cheapest
    last = int(best[:, pos_full].argmin()) if at_most else p
    if best[last, pos_full] > k:
        return None
    chain = [pos_full]
    for layer in range(last, 0, -1):
        chain.append(int(pred[layer, chain[-1]]))
    chain.reverse()
    return [masks[i] for i in chain]


def _dp_python(g: Graph, cuts: CutIndex, p: int, k: int,
               stats: SolveStats) -> list[int] | None:
    """Reference relaxation on python ints over all nested pairs; tests
    compare `_dp_numpy` against it."""
    ncuts = len(cuts)
    masks = cuts.masks
    arcs: list[list[tuple[int, int]]] = [[] for _ in range(ncuts)]
    for i in range(ncuts):
        mi = masks[i]
        for j in range(ncuts):
            mj = masks[j]
            if mi != mj and mi & ~mj == 0:
                arcs[i].append((j, arc_cost(g, mi, mj)))
    pos_empty = masks.index(0)
    pos_full = masks.index((1 << g.n) - 1)
    best = [[_BIG] * ncuts for _ in range(p + 1)]
    pred = [[-1] * ncuts for _ in range(p + 1)]
    best[0][pos_empty] = 0
    for layer in range(p):
        cur, nxt = best[layer], best[layer + 1]
        for i in range(ncuts):
            if cur[i] > k:
                continue
            for j, c in arcs[i]:
                cand = cur[i] + c
                if cand <= k and cand < nxt[j]:
                    nxt[j] = cand
                    pred[layer + 1][j] = i
    stats.dp_states = sum(v <= k for layer in best for v in layer)
    if best[p][pos_full] > k:
        return None
    chain = [pos_full]
    for layer in range(p, 0, -1):
        chain.append(pred[layer][chain[-1]])
    chain.reverse()
    return [masks[i] for i in chain]


def _no(stats: SolveStats) -> SolveResult:
    return SolveResult(False, None, stats)


def solve_exact_p(inst: Instance, cap: int | None = None) -> SolveResult:
    """Decide whether <= k edits reach a cluster graph with exactly p cliques.

    Pipeline: reduction rules, cut enumeration capped by the counting bound
    (abort => NO), layered DP, reconstruction, lift-back, verification.
    `cap` overrides the enumeration cap (default: the counting bound); an
    abort under a cap below the bound answers None, unknown.
    """
    if inst.mode != "exact":
        raise ValueError("solve_exact_p needs an exact-mode instance")
    return _solve(inst, cap)


def solve_at_most_p(inst: Instance, cap: int | None = None) -> SolveResult:
    """Decide whether <= k edits reach a cluster graph with at most p cliques.

    The same pipeline as `solve_exact_p`; its one DP reads the cheapest of
    its layers 0..p instead of layer p.
    """
    if inst.mode != "at_most":
        raise ValueError("solve_at_most_p needs an at-most mode instance")
    return _solve(inst, cap)


def _solve(inst: Instance, cap: int | None) -> SolveResult:
    if cap is not None and cap < 1:
        # checked before preprocessing, which can answer without enumerating
        raise ValueError("cap must be >= 1")
    stats = SolveStats()
    outcome = preprocess(inst)
    stats.rules_applied = outcome.rules_applied
    if outcome.rejected:
        return _no(stats)
    red = outcome.instance
    assert red is not None
    g, p, k = red.g, red.p, red.k

    if p == 0:
        if g.n > 0:
            return _no(stats)
        return _finish(inst, outcome, Clustering(()), stats)

    bound = cut_count_bound(p, k)
    if cap is None:
        cap = bound
    cuts = enumerate_k_cuts(g, k, cap)
    if cuts is None:
        stats.aborted = True
        # only more cuts than the bound allows rule out a solution
        return SolveResult(None if cap < bound else False, None, stats)
    stats.cuts_enumerated = len(cuts)

    chain = _dp_numpy(g, cuts, p, k, stats, inst.mode == "at_most")
    if chain is None:
        return _no(stats)
    blocks = []
    for prev, cur in zip(chain, chain[1:]):
        blocks.append(list(bits(cur & ~prev)))
    reduced_cl = Clustering.from_blocks(g.n, blocks)
    return _finish(inst, outcome, reduced_cl, stats)


def _finish(inst: Instance, outcome: PreprocessOutcome, reduced_cl: Clustering,
            stats: SolveStats) -> SolveResult:
    cl = lift_clustering(outcome, reduced_cl, inst.g.n)
    edits = clustering_to_edit_set(inst.g, cl)
    sol = Solution(cl, edits, edits.m)
    if not verify_solution(inst, sol):
        raise AssertionError("internal error: solver produced a bad solution")
    return SolveResult(True, sol, stats)


def verify_solution(inst: Instance, sol: Solution) -> bool:
    """Recheck a solution from scratch; independent of solver internals.

    The edited graph equals the clustering's cluster graph iff it is a
    cluster graph whose components are exactly the clusters.
    """
    if len(sol.clustering.assignment) != inst.g.n or sol.edits.n != inst.g.n:
        return False
    if sol.edits.m != sol.cost or sol.cost > inst.k:
        return False
    if apply_edits(inst.g, sol.edits) != cluster_graph_of(inst.g.n, sol.clustering):
        return False
    if inst.mode == "exact":
        return sol.clustering.c == inst.p
    return sol.clustering.c <= inst.p


def result_to_dict(res: SolveResult, g: Graph, base: int = 0) -> dict:
    """JSON-ready report; *base* shifts vertex ids (CLI uses 1)."""
    stats = {
        "cuts_enumerated": res.stats.cuts_enumerated,
        "dp_states": res.stats.dp_states,
        "rules_applied": list(res.stats.rules_applied),
        "aborted": res.stats.aborted,
    }
    if not res.answer:
        return {"answer": "no" if res.answer is False else "unknown",
                "cost": None, "clusters": [],
                "additions": [], "deletions": [], "stats": stats}
    sol = res.solution
    assert sol is not None
    clusters = [[] for _ in range(sol.clustering.c)]
    for v, a in enumerate(sol.clustering.assignment):
        clusters[a].append(v + base)
    adds, dels = [], []
    for u, v in sol.edits.edges():
        (dels if g.has_edge(u, v) else adds).append([u + base, v + base])
    return {"answer": "yes", "cost": sol.cost, "clusters": clusters,
            "additions": adds, "deletions": dels, "stats": stats}
