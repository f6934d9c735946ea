"""Exact (p-)cluster-editing decision via dynamic programming over cuts.

Pipeline: preprocess (`preprocess`, the reduction rules) -> early NO
(`early_no` on the kernel: a closed-twin class count and a packing of
conflict triples, each a proof of NO that lists no cut) -> cuts
(`enumerate_k_cuts`, capped by the counting bound) -> DP (`_dp_numpy`),
then the chain's clusters are lifted to the input and verified.  Every NO
names its proof in ``SolveStats.no_reason``: "rule1" or "p_exceeds_n"
from preprocessing, "class_count" or "conflict_triples" from the early
check, "cut_bound" from an enumeration abort at the bound, or "dp" when no
chain within budget reaches V.  A kernel with p' = 0 takes the same
route: its counting bound B(0, 2k) is 1, so a kernel with a vertex, which
has at least two cuts, aborts at the bound, and the empty kernel's one
cut is V itself, which layer 0 of the DP reaches.

A solution with clusters X_1..X_p induces the prefix bipartitions
(X_1 u .. u X_j, rest), each of which must be a k-cut: every crossing edge
of a prefix is deleted by the solution.  Conversely any chain of p nested
cuts from (empty, V) to (V, empty) spells out a clustering whose cost
telescopes over the chain.  So the solver enumerates the k-cut space and
runs a shortest-chain DP with p layers.  The enumeration stops at the
counting bound `cut_count_bound(p, k)`, finite for every p and k: every
k-cut of a YES instance crosses at most 2k edges of its target cluster
graph, and no more than B(p, 2k) cuts of p cliques do that.  The
enumeration also stops when the list of a vertex range it joins from
passes the cap, and that is sound too: the induced subgraph on the range
is within k edits of the target's induced subgraph, a cluster graph of at
most p cliques, so it has at most B(p, 2k) k-cuts as well.  So an abort at
the bound is a proven NO, and every ``aborted`` NO is backed by it.  A
user cap below the bound proves nothing when it is exceeded, so such an
abort answers unknown.

At-most mode runs the same pipeline once.  Layer j of the DP at the full
vertex set holds the optimum for exactly j clusters (twice it, as a sum
of the cluster weights below), so the answer is the cheapest layer in
0..p, ties going to the fewest clusters.  One cap serves every layer:
after preprocessing, a solution of the kernel has at most min(p, 6k)
clusters (at most 2k of them touch an edit, the rest are clique
components, and past 6k the rules leave at most 4k of those), and the
counting bound is monotone in p.

Canonical chains.  A clustering with q clusters is spelled by q! chains,
one per cluster order, and the DP walks only one of them: the clusters
listed by their lowest vertex.  Each clustering has exactly one such
chain, since the rule fixes which cluster comes next: the one holding
low(S), the lowest vertex outside the prefix S built so far.

Cluster weights.  A clustering costs the sum over its clusters X of
missing(X) = C(|X|, 2) - e(X), plus every edge between two clusters once.
Such an edge crosses the boundary of both of its clusters, so twice the
cost is the sum over X of 2 missing(X) + crossing(X), that is the sum of

    w(X) = |X| (|X| - 1) - 2 e(X) + crossing(X),

a weight of the cluster alone, whatever prefix it joins.  Every term comes
from the cut list as the enumeration hands it over: |X| is the popcount
of its uint64 words, and e(X) and crossing(X) are its int64 inside and
crossing counts.  The module `cuts` owns that word layout; the DP reads
the words only through its helpers (`_sizes`, `_lowest`, `_keys`,
`_mask`) and bitwise operators.

Candidates and states.  In a clustering of cost <= k every boundary edge
is deleted, so each cluster X is a side of a k-cut, and for the same
reason every prefix of its canonical chain, a union of clusters, is a
k-cut.  Write w(X) = 2 missing(X) + crossing(X), so every weight is >= 0,
and let T <= 2k be the value of a chain, the sum of its clusters'
weights.  Two lower bounds on T decide what the DP keeps:

* a cluster X: each edge leaving X also leaves the cluster at its other
  end, whose weight counts it again, so T >= w(X) + crossing(X).  The
  candidates are the cut sides with w(X) + crossing(X) <= 2k, that is
  missing(X) + crossing(X) <= k;
* a prefix S of value F: the clusters still to come tile V - S, and each
  edge leaving S also leaves one of them, so T >= F + crossing(S).  A new
  state is kept only if F + crossing(S) <= 2k.

Layer j of the DP maps each prefix S that is a k-cut and passes the state
test to F, the least weight of j candidate clusters that tile S, each
holding the lowest vertex it leaves out: layer j + 1 pairs each S with the
candidates X with min(X) = low(S), X disjoint from S, F + w(X) <= 2k and
S u X a cut that passes the state test, and keeps the least F per new
prefix.  Neither test changes a value or a chain the DP returns.  Every
state and candidate on a chain of value <= 2k passes both tests.  The
clusters after a prefix S depend on S alone, so if S lies on such a chain
at some F, it does at its least F, and so does every parent that reaches S
at that least F.  By induction on the layer, each such S keeps its least F
and the same set of parents that reach it there, so the tie-break below
picks the same one.  Layer j at V has crossing(V) = 0 and F <= 2k, so every
value there is kept: twice the cost of a real clustering, twice the
optimum for exactly j clusters, or nothing when that optimum exceeds k, in
both modes.  ``dp_states`` counts the (layer, prefix) states kept over
layers 0..p, after both tests.

Layout.  `enumerate_k_cuts` hands the cut list over in ascending mask
order, and the DP reads it in that order, so a state is the position of
its prefix in the list: the empty set is the first row and V the last.
Each cut's start key, low(S) times 2k + 1, is computed once per kernel,
and a new prefix takes its own from the row its membership search found.
Layer 1 needs no pairing: it is the candidates that hold vertex 0, each
on the empty prefix.

Tie-break.  Among the pairs that reach one prefix at the least F, the one
from the smallest parent prefix, as an integer mask, wins: that is the
parent at the lowest position.  The chain's differences are the kernel's
clusters, which `Clustering.from_blocks` turns into the kernel clustering
that `lift_clustering` takes back to the input.

`_dp_numpy` is the one DP.  ``dp_reference`` in ``tests/oracles.py``
restates it on python ints and dicts, and the tests compare the two chain
for chain.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

# edges_inside_table is not used here; bench/spans.py patches it by name
from .cuts import (CutIndex, _keys, _lowest, _mask, _sizes, cut_count_bound,
                   edges_inside_table, enumerate_k_cuts)
# connected_components is graph's retired stub, imported only because
# bench/spans.py patches it by name here
from .graph import (Clustering, Graph, bits, clustering_to_edit_set,
                    connected_components)
from .preprocess import (Instance, PreprocessOutcome, early_no,
                         lift_clustering, preprocess)


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
    # the proof of a NO (see the module docstring); None unless the answer
    # is NO
    no_reason: str | None = None


@dataclass
class SolveResult:
    answer: bool | None          # None: unknown, aborted under a user cap
    solution: Solution | None
    stats: SolveStats


def _dp_numpy(g: Graph, cuts: CutIndex, p: int, k: int,
              stats: SolveStats, at_most: bool = False) -> list[int] | None:
    """Layered DP over canonical prefixes and candidate clusters; any n.

    Returns the chain of prefix masks, from the empty set to V, of an
    optimal solution with exactly p clusters, or with the cheapest count in
    0..p when *at_most* (ties go to the fewest clusters), or None.  It
    keeps only the candidates with w(X) + crossing(X) <= 2k and the states
    with F + crossing(S) <= 2k (see the module docstring).  *cuts* must
    hold its rows in ascending mask order, as `enumerate_k_cuts` hands them
    over.  Its int64 keys reach about 2kn, which `_solve` keeps small by
    clamping k to C(n, 2).  ``dp_reference`` in ``tests/oracles.py`` is its
    python-int reference, with the same states, tie-break and
    ``dp_states``.
    """
    n = g.n
    budget = 2 * k
    # a state is the position of its mask in the list: the empty set is
    # row 0, and V, a cut of every graph, the last row
    cut_words, crossing = cuts.words, cuts.crossing_counts
    cut_keys = _keys(cut_words)
    size = _sizes(cut_words)
    weight = size * (size - 1) - 2 * cuts.inside_counts + crossing
    # the nonempty cuts that some chain within budget can hold (row 0, the
    # empty set, passes the test)
    cand = np.flatnonzero(weight + crossing <= budget)[1:]
    # one pass over the candidates and the complements of all cuts: each
    # candidate's lowest vertex, and each cut's start key, where the
    # candidates a prefix can take begin (its lowest missing vertex, n for
    # V, whose complement holds only padding bits past n), both times
    # budget + 1
    low = _lowest(np.concatenate((cut_words[cand], ~cut_words)),
                  n) * (budget + 1)
    cand_key, cut_start = low[:len(cand)] + weight[cand], low[len(cand):]
    layers = [(np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.int64), None)]
    # layer 1: the candidates holding vertex 0, in mask order, each on the
    # empty prefix; the candidate test is their state test
    first = cand[cand_key <= budget]
    if p and len(first):
        layers.append((first, weight[first], np.zeros(len(first), np.intp)))
    # candidates by lowest vertex, then weight: those a state can afford
    # are one run of positions
    order = cand_key.argsort(kind="stable")
    cand, cand_key = cand[order], cand_key[order]
    cand_words, cand_weight = cut_words[cand], weight[cand]
    while 1 < len(layers) <= p:
        pos, spent, _ = layers[-1]
        # pair state src with candidate pick: those holding the lowest
        # vertex outside the state and within the budget it has left
        start = cut_start[pos]
        lo, hi = cand_key.searchsorted(np.concatenate(
            (start, start + budget + 1 - spent))).reshape(2, -1)
        counts = hi - lo
        src = np.arange(len(pos)).repeat(counts)
        pick = np.arange(len(src)) + (lo - counts.cumsum()
                                      + counts).repeat(counts)
        prefix, cluster = cut_words[pos[src]], cand_words[pick]
        key = _keys(prefix | cluster)
        # every union lies in V, the largest key, so the search stays inside
        at = cut_keys.searchsorted(key)
        total = spent[src] + cand_weight[pick]
        # the union is a cut, the two are disjoint, and the edges leaving
        # the union still fit the budget
        ok = ((cut_keys[at] == key)
              & ~(prefix & cluster).any(axis=1)
              & (total + crossing[at] <= budget))
        src, at, total = src[ok], at[ok], total[ok]
        if not len(at):
            break
        # by mask, then F, then parent (src ascends and the sort is
        # stable): the first of each mask is kept
        order = np.lexsort((total, at))
        at = at[order]
        first = np.concatenate(([True], at[1:] != at[:-1]))
        keep = order[first]
        layers.append((at[first], total[keep], src[keep]))
    stats.dp_states = sum(len(layer[1]) for layer in layers)
    # a layer reaches V iff its last state, the largest mask, is V
    reach = [j for j, (pos, _, _) in enumerate(layers)
             if (at_most or j == p) and pos[-1] == len(cut_keys) - 1]
    if not reach:
        return None
    # ties go to the fewest clusters
    last = min(reach, key=lambda j: (layers[j][1][-1], j))
    chain, at = [], len(layers[last][1]) - 1
    for pos, _, parent in reversed(layers[:last + 1]):
        chain.append(_mask(cut_words[pos[at]]))
        if parent is not None:
            at = parent[at]
    chain.reverse()
    return chain


# _dp_python is never called; bench/spans.py patches it by name
_dp_python = _dp_numpy


def _no(stats: SolveStats, reason: str) -> SolveResult:
    stats.no_reason = reason
    return SolveResult(False, None, stats)


def solve_exact_p(inst: Instance, cap: int | None = None) -> SolveResult:
    """Decide whether <= k edits reach a cluster graph with exactly p cliques.

    Pipeline: reduction rules, the early NO check, cut enumeration capped
    by the counting bound (abort => NO), layered DP, reconstruction,
    lift-back, verification.  `cap` overrides the enumeration cap
    (default: the counting bound); an abort under a cap below the bound
    answers None, unknown.
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
        return _no(stats, outcome.reason)
    red = outcome.instance
    assert red is not None
    # no clustering of the kernel costs more than C(n', 2), and under that
    # budget every mask is a cut, so a larger k changes nothing; the clamp
    # keeps the O(k^3) bound and the DP's int64 keys small
    g, p, k = red.g, red.p, min(red.k, comb(red.g.n, 2))
    proof = early_no(g, p, k)
    if proof is not None:
        return _no(stats, proof[0])

    bound = cut_count_bound(p, k)
    if cap is None:
        cap = bound
    cuts = enumerate_k_cuts(g, k, cap)
    if cuts is None:
        stats.aborted = True
        # only more cuts than the bound allows, in g or in a range its list
        # is joined from, rule out a solution
        if cap < bound:
            return SolveResult(None, None, stats)
        return _no(stats, "cut_bound")
    stats.cuts_enumerated = len(cuts)

    chain = _dp_numpy(g, cuts, p, k, stats, inst.mode == "at_most")
    if chain is None:
        return _no(stats, "dp")
    reduced_cl = Clustering.from_blocks(
        g.n, (bits(cur & ~prev) for prev, cur in zip(chain, chain[1:])))
    return _finish(inst, outcome, reduced_cl, stats)


def _finish(inst: Instance, outcome: PreprocessOutcome, reduced_cl: Clustering,
            stats: SolveStats) -> SolveResult:
    cl = lift_clustering(outcome, reduced_cl, inst.g.n)
    # the removed components are clusters as they stand, so every edit lies
    # in the kernel: its edit set, taken to the input through vertex_map,
    # which ascends and so keeps the keys' order
    kernel_edits = clustering_to_edit_set(outcome.instance.g, reduced_cl)
    vmap, n = np.array(outcome.vertex_map, np.int64), inst.g.n
    low, high = np.divmod(kernel_edits.keys, kernel_edits.n)
    edits = Graph(n, vmap[low] * n + vmap[high])
    sol = Solution(cl, edits, edits.m)
    if not verify_solution(inst, sol):
        raise AssertionError("internal error: solver produced a bad solution")
    return SolveResult(True, sol, stats)


def verify_solution(inst: Instance, sol: Solution) -> bool:
    """Recheck a solution from scratch; independent of solver internals.

    Over the keys of the input G and of the edit set F, with the
    assignment alone, in O(n + m + |F| log m).  F must be a simple graph on
    G's vertices: ascending keys of pairs u < v in 0..n-1.  Each pair of F
    that is an edge of G must join two clusters, a deletion, and each
    other pair lie inside one, an addition.  Then the edited graph
    H = G xor F has, inside the clusters, G's edges there and the
    additions, at most as many as the clusters have pairs, and outside
    them the c - d edges between clusters that the d deletions leave of
    G's c.  So m - 2c + |F|, which is those inside edges less c - d,
    equals the clusters' pair count iff H fills the clusters and has no
    other edge: iff it is their cluster graph.
    """
    g, n, cl = inst.g, inst.g.n, sol.clustering
    if len(cl.assignment) != n or sol.edits.n != n:
        return False
    if sol.edits.m != sol.cost or sol.cost > inst.k:
        return False
    if cl.c != inst.p and (inst.mode == "exact" or cl.c > inst.p):
        return False
    edits = sol.edits.keys
    if len(edits) and not 0 <= edits[0] <= edits[-1] < n * n:
        return False
    keys = g.keys
    m = len(keys)
    low, high = np.divmod(np.concatenate((keys, edits)), n)
    if (np.count_nonzero(low[m:] >= high[m:])
            or np.count_nonzero(edits[1:] <= edits[:-1])):
        return False
    cluster = np.array(cl.assignment, np.int64)
    inside = cluster[low] == cluster[high]
    # an edit deletes iff its key is one of G's
    at = keys.searchsorted(edits)
    deleted = keys.take(at, mode="clip") == edits if m else at < 0
    if np.count_nonzero(inside[m:] == deleted):
        return False
    crossing = m - np.count_nonzero(inside[:m])
    sizes = np.bincount(cluster)
    return m - 2 * crossing + len(edits) == int(sizes @ (sizes - 1)) // 2


def result_to_dict(res: SolveResult, g: Graph, base: int = 0) -> dict:
    """JSON-ready report; *base* shifts vertex ids (CLI uses 1)."""
    stats = {
        "cuts_enumerated": res.stats.cuts_enumerated,
        "dp_states": res.stats.dp_states,
        "rules_applied": list(res.stats.rules_applied),
        "aborted": res.stats.aborted,
        "no_reason": res.stats.no_reason,
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
