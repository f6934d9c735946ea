#!/usr/bin/env python3
"""Enumerate small edge cuts and print the counting bound on their number.

The solver branches over ordered bipartitions (V1, V2) whose crossing
edge count is at most k.  This demo enumerates them for a 6-cycle,
cross-checks the count against a power-set filter, and prints the
counting bound B(p, 2k) that caps the solver's enumeration.  A graph
within k edits of p cliques has each k-cut crossing at most 2k clique
edges, and B counts the ways to cut p cliques across at most 2k of their
edges, so a graph with more k-cuts is a proven NO.  B is finite for every
p and k; for k >= 1 it stays below the paper's 2^(8*sqrt(2pk)) on every
p, k <= 16 the tests check.
"""
from cluedit import Graph, cut_count_bound, enumerate_k_cuts


def brute_cut_count(g: Graph, k: int) -> int:
    count = 0
    for mask in range(1 << g.n):
        crossing = sum(1 for u, v in g.edges()
                       if (mask >> u & 1) != (mask >> v & 1))
        if crossing <= k:
            count += 1
    return count


def main():
    g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    print(f"graph: 6-cycle, n={g.n} m={g.m}")
    print(f"{'k':>3} {'cuts':>6} {'2^n filter':>10} {'explored':>9} {'pruned':>7}")
    for k in range(0, 5):
        idx = enumerate_k_cuts(g, k)
        brute = brute_cut_count(g, k)
        assert len(idx) == brute
        print(f"{k:>3} {len(idx):>6} {brute:>10} "
              f"{idx.stats.explored:>9} {idx.stats.pruned:>7}")

    print("\ncap handling: abort as soon as the cap is exceeded")
    idx = enumerate_k_cuts(g, 4, cap=10)
    print(f"  cap=10 on the k=4 space -> {'aborted' if idx is None else 'kept'}")

    print("\ncounting bound B(p, 2k) by (p, k):")
    for p, k in [(2, 0), (1, 1), (2, 1), (2, 2), (4, 3), (8, 2), (8, 4)]:
        print(f"  p={p} k={k}: {cut_count_bound(p, k)}")


if __name__ == "__main__":
    main()
