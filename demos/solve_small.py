#!/usr/bin/env python3
"""Solve a small cluster-editing instance and inspect the certificate.

Two triangles joined by a bridge edge are one deletion away from a
cluster graph with two cliques.  The demo asks for exactly p clusters at
several edit budgets, prints the clustering and edit set the solver
returns, and re-checks the certificate with verify_solution.
"""
from cluedit import Graph, Instance, solve_at_most_p, solve_exact_p, verify_solution
from cluedit.graph import bits


def show(res, g):
    if not res.answer:
        print("  answer: NO")
        return
    sol = res.solution
    print(f"  answer: YES  cost={sol.cost}")
    for i, mask in enumerate(sol.clustering.cluster_masks()):
        print(f"  cluster {i}: {sorted(bits(mask))}")
    # additions first, then deletions, each in (u, v) order
    for u, v in sorted(sol.edits.edges(), key=lambda e: g.has_edge(*e)):
        action = "delete" if g.has_edge(u, v) else "add   "
        print(f"  {action} ({u}, {v})")


def main():
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2),
                             (3, 4), (3, 5), (4, 5),
                             (2, 3)])
    print("graph: two triangles {0,1,2}, {3,4,5} plus the bridge (2,3)")
    print(f"n={g.n}  m={g.m}")

    for k in (0, 1):
        print(f"\nexactly p=2 clusters, budget k={k}")
        inst = Instance(g, p=2, k=k, mode="exact")
        res = solve_exact_p(inst)
        show(res, g)
        if res.answer:
            assert verify_solution(inst, res.solution)
            print("  certificate verified")
        print(f"  stats: {res.stats.cuts_enumerated} cuts enumerated, "
              f"{res.stats.dp_states} dp states")

    # One clique forces adding every missing pair: C(6,2) - 7 = 8 edits.
    print("\nexactly p=1 cluster, budget k=8")
    inst = Instance(g, p=1, k=8, mode="exact")
    res = solve_exact_p(inst)
    show(res, g)

    print("\nat most p=3 clusters, budget k=1 (picks the cheapest count <= 3)")
    inst = Instance(g, p=3, k=1, mode="at_most")
    res = solve_at_most_p(inst)
    show(res, g)
    print(f"  clusters used: {res.solution.clustering.c}")


if __name__ == "__main__":
    main()
