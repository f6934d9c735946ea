"""Ordered small cuts: enumeration, its feasibility test, counting bounds.

A k-cut of G is an ordered bipartition (V1, V2) of the vertex set with at
most k crossing edges; V1 and V2 may be empty.  Small graphs need no
search: the k-cuts are exactly the masks S with m - e(S) - e(V - S) <= k,
read off one 2^n table of inside-edge counts.  Larger graphs branch vertex
by vertex on an explicit stack and prune a branch as soon as a max-flow
test shows that no completion stays within k, so every surviving branch
emits at least one cut (polynomial delay).  The max-flow works on the
graph's bitmask rows: its residual network is one int per vertex and each
breadth-first layer is one mask.
"""
from __future__ import annotations

import decimal
import functools
import math
from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .graph import Graph, bits

# up to this vertex count enumeration filters all 2^n masks instead of
# branching with max-flow tests: far cheaper per kernel while 2^n is small,
# and past it the table's time and memory outgrow the flow search
_FILTER_N = 16

UNBOUNDED = math.inf


def min_cut_leq(g: Graph, a: int, b: int, k: int) -> bool:
    """True iff the minimum edge cut separating vertex sets a and b is <= k.

    a and b are disjoint vertex masks.  Unit capacities in both directions,
    contracted super-source/super-sink, giving up as soon as k+1 augmenting
    paths exist.  Everything is a bitmask over ``g.rows``: bit v of
    ``out[u]`` is set while u sends a unit to v, which saturates the arc
    u->v, and each path comes from a breadth-first search whose layers are
    masks.  Empty a or b cuts nothing, so always True.
    """
    if a & b:
        raise ValueError("sides overlap")
    if k < 0:
        raise ValueError("k must be >= 0")
    if a == 0 or b == 0:
        return True
    rows = g.rows
    out = [0] * g.n
    for _ in range(k + 1):
        layers = [a]
        seen = frontier = a
        while not frontier & b:
            reach = 0
            for u in bits(frontier):
                reach |= rows[u] & ~out[u]
            frontier = reach & ~seen
            if not frontier:
                return True  # max flow == paths found so far <= k
            seen |= frontier
            layers.append(frontier)
        # back-trace from the lowest reached b-vertex through the layers
        v = (frontier & b & -(frontier & b)).bit_length() - 1
        for layer in reversed(layers[:-1]):
            u = next(u for u in bits(layer & rows[v]) if not out[u] >> v & 1)
            if out[v] >> u & 1:
                out[v] ^= 1 << u  # cancel the unit v sends back to u
            else:
                out[u] |= 1 << v
            v = u
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


@dataclass
class EnumStats:
    """Work counters.  A dead end is a kept branch whose two children are
    both pruned; exact pruning leaves none, which by induction on depth
    means every kept subtree emits a cut (polynomial delay)."""

    explored: int = 0
    pruned: int = 0
    emitted: int = 0
    dead_ends: int = 0


@dataclass
class CutIndex:
    """All k-cuts of a graph, in a deterministic order.

    ``masks[i]`` is side-1 of the i-th cut as a vertex mask and
    ``crossing[i]`` its crossing count.  The list is sorted by side-1
    size, then by mask value, so the order is a property of the cut set
    alone; the solver's reconstruction tie-break refers to it.
    """

    masks: list[int]
    crossing: list[int]
    stats: EnumStats = field(default_factory=EnumStats)

    def __len__(self) -> int:
        return len(self.masks)


def enumerate_k_cuts(g: Graph, k: int, cap: float = UNBOUNDED) -> CutIndex | None:
    """Enumerate every ordered k-cut of g exactly once, or abort.

    Returns None when there are more than *cap* cuts.  The cuts come
    sorted by (side-1 size, side-1 mask), whichever route finds them.  Up
    to ``_FILTER_N`` vertices nothing branches: every mask is scored
    against ``m - e(S) - e(V - S) <= k``.  Beyond, a branching over the
    vertices in descending-degree order (ties by id) runs on an explicit
    stack and keeps a child only if ``min_cut_leq`` finds a completion
    within k.  The degree order only steers the pruning: high-degree
    vertices placed first make the flow test bite early.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if cap != UNBOUNDED and cap < 1:
        raise ValueError("cap must be >= 1")
    n = g.n
    stats = EnumStats()
    if n <= _FILTER_N:
        inside = edges_inside_table(g)
        crossing = g.m - inside - inside[::-1]
        masks = np.flatnonzero(crossing <= k)  # ascending
        if masks.size > cap:
            return None
        masks = masks[np.argsort(np.bitwise_count(masks), kind="stable")]
        stats.explored = 1 << n
        stats.emitted = masks.size
        stats.pruned = stats.explored - stats.emitted
        return CutIndex(masks=masks.tolist(), crossing=crossing[masks].tolist(),
                        stats=stats)

    rows = g.rows
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    found: list[tuple[int, int]] = []  # (side 1, crossing)
    stack = [(0, 0, 0, 0)]  # depth, side 1, side 2, crossing so far
    while stack:
        depth, side1, side2, crossing = stack.pop()
        if depth == n:
            found.append((side1, crossing))
            if len(found) > cap:
                return None
            continue
        v = order[depth]
        bit = 1 << v
        height = len(stack)
        for s1, s2, extra in ((side1 | bit, side2, (rows[v] & side2).bit_count()),
                              (side1, side2 | bit, (rows[v] & side1).bit_count())):
            stats.explored += 1
            if crossing + extra > k or not min_cut_leq(g, s1, s2, k):
                stats.pruned += 1
            else:
                stack.append((depth + 1, s1, s2, crossing + extra))
        if len(stack) == height:
            stats.dead_ends += 1
    stats.emitted = len(found)
    found.sort(key=lambda c: (c[0].bit_count(), c[0]))
    return CutIndex(masks=[m for m, _ in found], crossing=[c for _, c in found],
                    stats=stats)


# ---------------------------------------------------------------------------
# counting bounds

# 30 significant digits, far more than the bound's values need (see
# cut_count_bound); one fixed context, so no caller's decimal settings leak in
_BOUND_CONTEXT = decimal.Context(prec=30)


def cut_count_bound(p: int, k: int) -> int | float:
    """ceil(2**(8*sqrt(2*p*k))), the enumeration cap for a p/k instance.

    Returns UNBOUNDED (math.inf) once the exponent exceeds 63; the caller
    then enumerates uncapped.  Monotone in p and k.

    With t = 2pk the cap is finite only for 64t <= 63**2, so t is even and
    at most 62: the function has exactly 32 finite values.  A perfect
    square t gives an exact power of two.  For the others 2**(8*sqrt(t)) is
    irrational and lies at least 0.0249 from an integer (closest at t = 8),
    while below 2**63 < 10**19 a 30-digit decimal evaluation errs by under
    10**-8, so its ceiling is exact.
    """
    if p < 0 or k < 0:
        raise ValueError("need p, k >= 0")
    t = 2 * p * k
    if 64 * t > 63 * 63:  # (8*sqrt(t))^2 > 63^2
        return UNBOUNDED
    return _finite_bound(t)


@functools.cache  # at most 32 keys
def _finite_bound(t: int) -> int:
    s = isqrt(t)
    if s * s == t:
        return 1 << 8 * s
    ctx = _BOUND_CONTEXT
    power = ctx.power(2, ctx.multiply(8, ctx.sqrt(t)))
    return int(power.to_integral_value(rounding=decimal.ROUND_CEILING))
