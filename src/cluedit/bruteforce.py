"""Brute-force ground truth over set partitions.

Everything here enumerates; nothing is clever.  The point is to be an
independent, obviously-correct reference the real solver is tested against,
so the enumeration is guarded rather than optimized: Bell(15) is already
past 10^9 partitions.
"""
from __future__ import annotations

from .graph import Graph

ORACLE_LIMIT = 14


def _partition_cost_min(g: Graph, p: int, exact: bool) -> int | None:
    """Min edit cost over partitions with exactly / at most p blocks."""
    n = g.n
    if n == 0:
        return 0 if (not exact or p == 0) else None
    if p <= 0 or (exact and p > n):
        return None
    best: int | None = None
    rows = g.rows
    blocks = [0] * min(p, n)
    bsize = [0] * min(p, n)

    def rec(v: int, used: int, placed: int, cost: int) -> None:
        nonlocal best
        if best is not None and cost >= best:
            return
        if v == n:
            if not exact or used == p:
                best = cost
            return
        if exact and used + (n - v) < p:
            return
        row = rows[v]
        deg_placed = (row & placed).bit_count()
        top = min(used + 1, p)
        for b in range(top):
            if b < used:
                inb = (row & blocks[b]).bit_count()
                delta = (deg_placed - inb) + (bsize[b] - inb)
            else:
                delta = deg_placed
            blocks[b] |= 1 << v
            bsize[b] += 1
            rec(v + 1, max(used, b + 1), placed | (1 << v), cost + delta)
            blocks[b] ^= 1 << v
            bsize[b] -= 1

    rec(0, 0, 0, 0)
    return best


def oracle_best_cost(g: Graph, p: int, mode: str = "exact") -> int | None:
    """Optimal cluster-editing cost by exhaustive partition enumeration.

    mode "exact" requires exactly p clusters, "at_most" allows up to p.
    Returns None when no clustering qualifies (exact mode with p > n).
    """
    if g.n > ORACLE_LIMIT:
        raise ValueError(f"oracle limited to {ORACLE_LIMIT} vertices, got {g.n}")
    if mode not in ("exact", "at_most"):
        raise ValueError(f"unknown mode {mode!r}")
    return _partition_cost_min(g, p, exact=(mode == "exact"))

