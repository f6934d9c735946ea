#!/usr/bin/env python3
"""Watch the reduction rules shrink a many-clique instance.

When the requested cluster count p is far above the edit budget k, whole
clique components can be resolved up front: the component-count rule
rejects hopeless instances outright, and the two deletion rules peel off
the largest clique or an isolated vertex while decrementing p, until
p <= 6k.  The demo narrates each firing, solves the reduced instance,
and lifts the certificate back to the original vertex ids.
"""
from cluedit import (Graph, Instance, clustering_to_edit_set, lift_clustering,
                     preprocess, solve_exact_p, verify_solution)


def clique_union(sizes, iso):
    n = sum(sizes) + iso
    edges = []
    v = 0
    for s in sizes:
        edges += [(v + a, v + b) for a in range(s) for b in range(a + 1, s)]
        v += s
    return Graph.from_edges(n, edges)


def main():
    g = clique_union([5, 4, 2, 2], iso=4)
    inst = Instance(g, p=9, k=1, mode="exact")
    print(f"cliques of sizes 5,4,2,2 plus 4 isolated vertices: n={g.n}")
    print(f"asking for exactly p={inst.p} clusters with k={inst.k} edits\n")

    out = preprocess(inst)
    for rule, vertices in out.removed:
        print(f"  {rule}: removed component {list(vertices)}")
    red = out.instance
    print(f"\nreduced instance: n'={red.g.n}  p'={red.p}  (now p' <= 6k)")
    print(f"surviving original vertices: {list(out.vertex_map)}")

    res = solve_exact_p(red)
    print(f"reduced answer: {'YES' if res.answer else 'NO'} "
          f"cost={res.solution.cost}")

    lifted_cl = lift_clustering(out, res.solution.clustering, g.n)
    lifted_ed = clustering_to_edit_set(g, lifted_cl)
    print(f"lifted back: {lifted_cl.c} clusters on the original graph, "
          f"{lifted_ed.m} edits")

    # The solver runs the same pipeline internally; answers agree.
    direct = solve_exact_p(inst)
    assert direct.answer == res.answer
    assert verify_solution(inst, direct.solution)
    print(f"direct solve agrees (rules applied: {direct.stats.rules_applied})")

    print("\nrejection: four singleton cliques cannot make p=8 clusters")
    bad = Instance(clique_union([1, 1, 1, 1], iso=0), p=8, k=1, mode="exact")
    out = preprocess(bad)
    print(f"  rejected={out.rejected} reason={out.reason!r}")
    print(f"  solver answer: {solve_exact_p(bad).answer}")


if __name__ == "__main__":
    main()
