"""Exact (p-)cluster-editing decision via dynamic programming over cuts.

A solution with clusters X_1..X_p (ordered by enumeration) induces the
prefix bipartitions (X_1 u .. u X_j, rest), each of which must be a k-cut:
every crossing edge of a prefix is deleted by the solution.  Conversely any
chain of p nested cuts from (empty, V) to (V, empty) spells out a
clustering whose cost telescopes over the chain.  So the solver enumerates
the k-cut space, caps it with the subexponential counting bound (abort
means NO), and runs a shortest-chain DP with p layers.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .cuts import CutIndex, cut_count_bound, edges_inside_table, enumerate_k_cuts
from .graph import (Clustering, EditSet, Graph, apply_edits, bits,
                    clustering_to_edit_set, connected_components,
                    is_cluster_graph)
from .preprocess import Instance, PreprocessOutcome, lift_clustering, preprocess

_BIG = 1 << 31
_TABLE_N = 20          # build the 2^n inside-edge table up to here
_DENSE_CUT_LIMIT = 2048  # precompute the full cost matrix up to this many cuts


@dataclass(frozen=True)
class Solution:
    clustering: Clustering
    edits: EditSet
    cost: int


@dataclass
class SolveStats:
    cuts_enumerated: int = 0
    dp_states: int = 0
    rules_applied: list[str] = field(default_factory=list)
    aborted: bool = False


@dataclass
class SolveResult:
    answer: bool
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


def _dp_numpy(g: Graph, cuts: CutIndex, p: int, k: int,
              stats: SolveStats) -> list[int] | None:
    """Layered relaxation with vectorized transitions; n <= _TABLE_N.

    Returns the chain of side-1 masks of an optimal solution, or None.
    """
    n = g.n
    ncuts = len(cuts)
    masks = np.asarray(cuts.masks, dtype=np.int64)
    table = np.asarray(edges_inside_table(g), dtype=np.int64)
    e_cut = table[masks]
    pos_empty = int(np.nonzero(masks == 0)[0][0])
    pos_full = int(np.nonzero(masks == (1 << n) - 1)[0][0])

    def cost_block(lo: int, hi: int) -> np.ndarray:
        src = masks[lo:hi, None]
        delta = masks[None, :] & ~src
        dsz = np.bitwise_count(delta.astype(np.uint64)).astype(np.int64)
        cost = (e_cut[None, :] - e_cut[lo:hi, None] - 2 * table[delta]
                + dsz * (dsz - 1) // 2)
        valid = ((src & ~masks[None, :]) == 0) & (src != masks[None, :])
        return np.where(valid, cost, _BIG)

    dense = ncuts <= _DENSE_CUT_LIMIT
    full_cost = cost_block(0, ncuts) if dense else None
    block = ncuts if dense else 1024

    best = np.full((p + 1, ncuts), _BIG, dtype=np.int64)
    pred = np.full((p + 1, ncuts), -1, dtype=np.int64)
    best[0, pos_empty] = 0
    for layer in range(p):
        cur = best[layer]
        if not (cur <= k).any():
            break
        nxt = best[layer + 1]
        for lo in range(0, ncuts, block):
            hi = min(lo + block, ncuts)
            seg = cur[lo:hi]
            if not (seg <= k).any():
                continue
            costs = full_cost[lo:hi] if dense else cost_block(lo, hi)
            cand = np.where(seg[:, None] <= k, seg[:, None] + costs, _BIG)
            cmin = cand.min(axis=0)
            carg = cand.argmin(axis=0) + lo  # first index = first discovered
            upd = cmin < nxt
            nxt[upd] = cmin[upd]
            pred[layer + 1, upd] = carg[upd]
        nxt[nxt > k] = _BIG
        pred[layer + 1, best[layer + 1] == _BIG] = -1
    stats.dp_states = int((best <= k).sum())
    if best[p, pos_full] > k:
        return None
    chain = [pos_full]
    for layer in range(p, 0, -1):
        chain.append(int(pred[layer, chain[-1]]))
    chain.reverse()
    return [int(masks[i]) for i in chain]


def _dp_python(g: Graph, cuts: CutIndex, p: int, k: int,
               stats: SolveStats) -> list[int] | None:
    """Reference relaxation on python ints; any n, same tie-breaks."""
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


def solve_exact_p(inst: Instance, cap: float | None = None) -> SolveResult:
    """Decide whether <= k edits reach a cluster graph with exactly p cliques.

    Pipeline: reduction rules, cut enumeration capped by the counting bound
    (abort => NO), layered DP, reconstruction, lift-back, verification.
    `cap` overrides the enumeration cap (default: the counting bound).
    """
    if inst.mode != "exact":
        raise ValueError("solve_exact_p needs an exact-mode instance")
    stats = SolveStats()
    outcome = preprocess(inst)
    stats.rules_applied = list(outcome.rules_applied)
    if outcome.rejected:
        return _no(stats)
    red = outcome.instance
    assert red is not None
    g, p, k = red.g, red.p, red.k

    if p == 0:
        if g.n > 0:
            return _no(stats)
        return _finish(inst, outcome, Clustering((), 0), stats)

    if cap is None:
        cap = cut_count_bound(p, k)
    cuts = enumerate_k_cuts(g, k, cap)
    if cuts is None:
        stats.aborted = True
        return _no(stats)
    stats.cuts_enumerated = len(cuts)

    dp = _dp_numpy if g.n <= _TABLE_N else _dp_python
    chain = dp(g, cuts, p, k, stats)
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
    sol = Solution(cl, edits, len(edits))
    if not verify_solution(inst, sol):
        raise AssertionError("internal error: solver produced a bad solution")
    return SolveResult(True, sol, stats)


def solve_at_most_p(inst: Instance, cap: float | None = None) -> SolveResult:
    """Best solution over exact cluster counts 1..p (p=0 kept degenerate)."""
    if inst.mode != "at_most":
        raise ValueError("solve_at_most_p needs an at-most mode instance")
    total = SolveStats()
    if inst.p == 0:
        if inst.g.n == 0:
            sol = Solution(Clustering((), 0), EditSet(frozenset()), 0)
            return SolveResult(True, sol, total)
        return _no(total)
    best: SolveResult | None = None
    for p_exact in range(1, inst.p + 1):
        res = solve_exact_p(Instance(inst.g, p_exact, inst.k, "exact"), cap)
        total.cuts_enumerated += res.stats.cuts_enumerated
        total.dp_states += res.stats.dp_states
        total.aborted = total.aborted or res.stats.aborted
        if res.answer:
            assert res.solution is not None
            if best is None or res.solution.cost < best.solution.cost:
                best = res
                total.rules_applied = res.stats.rules_applied
            if best.solution.cost == 0:
                break
    if best is None:
        return _no(total)
    stats = SolveStats(total.cuts_enumerated, total.dp_states,
                       total.rules_applied, total.aborted)
    return SolveResult(True, best.solution, stats)


def verify_solution(inst: Instance, sol: Solution) -> bool:
    """Recheck a solution from scratch; independent of solver internals."""
    if len(sol.clustering.assignment) != inst.g.n:
        return False
    if sol.cost != len(sol.edits) or sol.cost > inst.k:
        return False
    edited = apply_edits(inst.g, sol.edits)
    if not is_cluster_graph(edited):
        return False
    comps = connected_components(edited)
    if sorted(comps) != sorted(sol.clustering.cluster_masks()):
        return False
    if inst.mode == "exact":
        return len(comps) == inst.p
    return len(comps) <= inst.p


def result_to_dict(res: SolveResult, g: Graph, base: int = 0) -> dict:
    """JSON-ready report; *base* shifts vertex ids (CLI uses 1)."""
    stats = {
        "cuts_enumerated": res.stats.cuts_enumerated,
        "dp_states": res.stats.dp_states,
        "rules_applied": list(res.stats.rules_applied),
        "aborted": res.stats.aborted,
    }
    if not res.answer:
        return {"answer": "no", "cost": None, "clusters": [],
                "additions": [], "deletions": [], "stats": stats}
    sol = res.solution
    assert sol is not None
    clusters = [sorted(v + base for v in bits(m))
                for m in sol.clustering.cluster_masks()]
    adds, dels = sol.edits.split(g)
    return {"answer": "yes", "cost": sol.cost, "clusters": clusters,
            "additions": [[u + base, v + base] for u, v in adds],
            "deletions": [[u + base, v + base] for u, v in dels],
            "stats": stats}
