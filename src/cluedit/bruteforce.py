"""Brute-force ground truth over set partitions.

Everything here enumerates; nothing is clever.  The point is to be an
independent, obviously-correct reference the real solver is tested against,
so the enumeration is guarded rather than optimized: Bell(15) is already
past 10^9 partitions.
"""
from __future__ import annotations

from math import comb
from typing import Iterator

from .graph import Clustering, Graph

ORACLE_LIMIT = 14


def set_partitions(n: int, max_blocks: int | None = None,
                   exact_blocks: int | None = None) -> Iterator[tuple[int, ...]]:
    """Set partitions of 0..n-1 as restricted growth strings.

    A restricted growth string assigns each element a block id such that
    block ids appear in first-use order, so each partition is produced
    exactly once and the output doubles as a dense Clustering assignment.
    ``exact_blocks`` prunes branches that cannot end with that many blocks.
    """
    if exact_blocks is not None and max_blocks is not None:
        raise ValueError("give at most one of max_blocks / exact_blocks")
    cap = exact_blocks if exact_blocks is not None else max_blocks
    if n == 0:
        if exact_blocks in (None, 0):
            yield ()
        return
    if cap is not None and cap <= 0:
        return
    a = [0] * n

    def rec(i: int, used: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            if exact_blocks is None or used == exact_blocks:
                yield tuple(a)
            return
        if exact_blocks is not None and used + (n - i) < exact_blocks:
            return  # cannot open enough blocks with the elements left
        top = used + 1 if cap is None else min(used + 1, cap)
        for b in range(top):
            a[i] = b
            yield from rec(i + 1, max(used, b + 1))

    yield from rec(0, 0)


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


def oracle_cost_by_block_count(g: Graph) -> list[int | None]:
    """best[c] = optimal cost with exactly c clusters, for c in 0..n.

    One exact-mode search per block count; used where a caller needs every
    block count of the same graph.
    """
    return [oracle_best_cost(g, c) for c in range(g.n + 1)]


def clustering_from_rgs(rgs: tuple[int, ...]) -> Clustering:
    return Clustering(rgs, max(rgs) + 1 if rgs else 0)


def oracle_min_edges_cluster_graph(total: int, max_clusters: int) -> int:
    """Fewest edges of any cluster graph on *total* vertices with at most
    *max_clusters* cliques, by brute force over integer partitions."""
    if total < 0 or max_clusters < 1:
        raise ValueError("need total >= 0 and max_clusters >= 1")
    if total == 0:
        return 0
    best: int | None = None

    def rec(remaining: int, parts_left: int, largest: int, acc: int) -> None:
        nonlocal best
        if remaining == 0:
            if best is None or acc < best:
                best = acc
            return
        if parts_left == 0:
            return
        for size in range(1, min(remaining, largest) + 1):
            rec(remaining - size, parts_left - 1, size,
                acc + comb(size, 2))

    rec(total, max_clusters, total, 0)
    assert best is not None  # parts of size 1 always complete a partition
    return best
