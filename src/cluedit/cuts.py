"""Ordered small cuts: feasibility, enumeration with pruning, counting bounds.

A k-cut of G is an ordered bipartition (V1, V2) of the vertex set with at
most k crossing edges; V1 and V2 may be empty.  Enumeration branches vertex
by vertex and prunes a branch as soon as no completion can stay within k,
so every surviving branch emits at least one cut (polynomial delay).
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from math import isqrt

import mpmath
import numpy as np

from .graph import Graph, bits

# up to this vertex count the pruning test is a lookup in precomputed
# completion tables (2^n entries per depth) instead of a max-flow run;
# identical decisions, much cheaper per node for dense branching trees
_TABLE_N = 16

UNBOUNDED = math.inf


def min_cut_leq(g: Graph, a: int, b: int, k: int) -> bool:
    """True iff the minimum edge cut separating vertex sets a and b is <= k.

    a and b are disjoint vertex masks.  Unit capacities in both directions,
    contracted super-source/super-sink, BFS augmenting paths, giving up as
    soon as k+1 paths exist.  Empty a or b cuts nothing, so always True.
    """
    if a & b:
        raise ValueError("sides overlap")
    if k < 0:
        raise ValueError("k must be >= 0")
    if a == 0 or b == 0:
        return True
    flow: dict[tuple[int, int], int] = {}
    found = 0
    while found <= k:
        # BFS in the residual network from every a-vertex at once
        parent: dict[int, int] = {v: -1 for v in bits(a)}
        queue = deque(parent)
        reached = -1
        while queue:
            u = queue.popleft()
            for v in bits(g.rows[u]):
                if v in parent or a >> v & 1:
                    continue
                if flow.get((u, v), 0) >= 1:
                    continue
                parent[v] = u
                if b >> v & 1:
                    reached = v
                    queue.clear()
                    break
                queue.append(v)
        if reached < 0:
            return True  # max flow == found <= k
        v = reached
        while parent[v] != -1:
            u = parent[v]
            flow[(u, v)] = flow.get((u, v), 0) + 1
            flow[(v, u)] = flow.get((v, u), 0) - 1
            v = u
        found += 1
    return False


def edges_inside_table(g: Graph) -> np.ndarray:
    """e[S] = number of g-edges with both ends in mask S, for all S.

    Size 2^n; callers guard n.  Built by doubling: for S below bit v,
    e[S | v] = e[S] + |N(v) & S|.
    """
    table = np.zeros(1 << g.n, dtype=np.int64)
    for v, row in enumerate(g.rows):
        half = 1 << v
        low = np.arange(half, dtype=np.int64) & (row & (half - 1))
        table[half:2 * half] = table[:half] + np.bitwise_count(low)
    return table


def _completion_tables(g: Graph, k: int, order: list[int]) -> list[bytes]:
    """ok[d][S] != 0 iff some k-cut agrees with side-1 S on order[:d].

    ok[n] marks the k-cuts, whose crossing is m - e(S) - e(V - S); each
    shallower level ORs the two choices for vertex order[d], so a branch
    test is one lookup.  Entries for bits of order[d:] are ignored (each
    level is constant along them).
    """
    inside = edges_inside_table(g)
    ok = g.m - inside - inside[::-1] <= k
    tables = [b""] * (g.n + 1)
    tables[g.n] = ok.tobytes()
    for d in range(g.n - 1, -1, -1):
        pair = ok.reshape(-1, 2, 1 << order[d])
        ok = np.broadcast_to(pair.any(axis=1, keepdims=True),
                             pair.shape).reshape(-1)
        tables[d] = ok.tobytes()
    return tables


@dataclass
class EnumStats:
    explored: int = 0
    pruned: int = 0
    emitted: int = 0
    zero_emit_subtrees: int = 0


@dataclass
class CutIndex:
    """All k-cuts of a graph, in a deterministic order.

    ``masks[i]`` is side-1 of the i-th cut as a vertex mask and
    ``crossing[i]`` its crossing count.  The list is sorted by side-1 size
    (stable over discovery order), which is the order the solver's
    reconstruction tie-break refers to.
    """

    n: int
    k: int
    masks: list[int]
    crossing: list[int]
    stats: EnumStats = field(default_factory=EnumStats)

    def __len__(self) -> int:
        return len(self.masks)


def enumerate_k_cuts(g: Graph, k: int, cap: float = UNBOUNDED) -> CutIndex | None:
    """Enumerate every ordered k-cut of g exactly once, or abort.

    Aborts (returns None) as soon as more than *cap* cuts have been
    emitted.  Vertices are branched in descending-degree order (ties by
    id); each side-1/side-2 decision is checked with the min-cut
    feasibility test, so a branch is kept alive only if some completion is
    a k-cut.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if cap != UNBOUNDED and cap < 1:
        raise ValueError("cap must be >= 1")
    n = g.n
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    rows = g.rows
    stats = EnumStats()
    out_masks: list[int] = []
    out_cross: list[int] = []

    tables = _completion_tables(g, k, order) if n <= _TABLE_N else None

    def feasible(side1: int, side2: int, depth: int) -> bool:
        if tables is not None:
            return bool(tables[depth][side1])
        return min_cut_leq(g, side1, side2, k)

    aborted = False

    def rec(depth: int, side1: int, side2: int, crossing: int) -> int:
        nonlocal aborted
        if aborted:
            return 0
        if depth == n:
            out_masks.append(side1)
            out_cross.append(crossing)
            stats.emitted += 1
            if stats.emitted > cap:
                aborted = True
            return 1
        v = order[depth]
        emitted = 0
        for to_side1 in (True, False):
            if to_side1:
                extra = (rows[v] & side2).bit_count()
                s1, s2 = side1 | (1 << v), side2
            else:
                extra = (rows[v] & side1).bit_count()
                s1, s2 = side1, side2 | (1 << v)
            stats.explored += 1
            if crossing + extra > k or not feasible(s1, s2, depth + 1):
                stats.pruned += 1
                continue
            got = rec(depth + 1, s1, s2, crossing + extra)
            if got == 0 and not aborted:
                stats.zero_emit_subtrees += 1
            emitted += got
            if aborted:
                break
        return emitted

    if feasible(0, 0, 0):
        rec(0, 0, 0, 0)
    if aborted:
        return None
    pairs = sorted(range(len(out_masks)),
                   key=lambda i: out_masks[i].bit_count())
    index = CutIndex(n=n, k=k,
                     masks=[out_masks[i] for i in pairs],
                     crossing=[out_cross[i] for i in pairs],
                     stats=stats)
    return index


# ---------------------------------------------------------------------------
# counting bounds

def _leq_pow2_sqrt(value: int, q: int) -> bool:
    """Exact decision of value <= 2**sqrt(q) for integers value >= 1, q >= 0.

    If q is a perfect square both sides are integers and the comparison is
    exact arithmetic.  Otherwise 2**sqrt(q) is irrational (transcendental,
    by Gelfond-Schneider), so the sides are never equal and a finite
    mpmath precision comfortably clear of the operand sizes decides.
    """
    if value < 1 or q < 0:
        raise ValueError("need value >= 1, q >= 0")
    s = isqrt(q)
    if s * s == q:
        bl = value.bit_length()
        if bl <= s:
            return True
        return bl == s + 1 and value == 1 << s
    with mpmath.workprec(max(96, value.bit_length() + 64)):
        return mpmath.log(value, 2) <= mpmath.sqrt(q)


def cut_count_bound(p: int, k: int) -> int | float:
    """ceil(2**(8*sqrt(2*p*k))), the enumeration cap for a p/k instance.

    Returns UNBOUNDED (math.inf) once the exponent exceeds 63; the caller
    then enumerates uncapped.  Monotone in p and k.
    """
    if p < 0 or k < 0:
        raise ValueError("need p, k >= 0")
    t = 2 * p * k
    s = isqrt(t)
    if s * s == t:
        e = 8 * s
        return UNBOUNDED if e > 63 else 1 << e
    if 64 * t > 63 * 63:  # (8*sqrt(t))^2 > 63^2
        return UNBOUNDED
    with mpmath.workprec(128):
        return int(mpmath.ceil(mpmath.power(2, 8 * mpmath.sqrt(t))))


def binomial_bound_check(limit: int) -> bool:
    """Verify C(a+b, a) <= 2**(2*sqrt(a*b)) for all 0 <= a, b <= limit."""
    for a in range(limit + 1):
        for b in range(a, limit + 1):
            if not _leq_pow2_sqrt(math.comb(a + b, a), 4 * a * b):
                return False
    return True
