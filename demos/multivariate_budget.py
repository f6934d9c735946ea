#!/usr/bin/env python3
"""Build a balanced-clique instance and audit its edit budget three ways.

The multivariate construction regularizes the input formula, plants 6p
large cliques of graded sizes, and wires variable cycles and clause
gadgets to them so that reaching exactly 6p balanced clusters costs
exactly the published budget when the formula is satisfiable.  At scale
factor 1 the graph is small enough to materialize, so the counted
witness cost, the closed-form summands, and a bit-level edit distance
can all be compared; at the faithful scale factor only the counts fit
in memory.
"""
from cluedit import (CnfFormula, apply_edits, attachment_counts,
                     brute_force_sat, budget_summands, build_multivariate,
                     cluster_graph_of, extend_assignment, materialize_graph,
                     multivariate_witness, witness_clustering)


def main():
    phi = CnfFormula(3, ((1, 2, 3),))
    p, k = 2, 5
    print("formula: (x1 v x2 v x3)   target p=2 clusters, budget parameter k=5")

    art = build_multivariate(phi, p=p, k=k, L_factor=1)
    reg = art.regularized
    print(f"\nscale factor 1: regularized to {art.n_reg} variables / "
          f"{art.m_reg} clauses across {len(reg.parts)} parts (flag={reg.flag!r})")
    print(f"clique scale L={art.L}; graph has {art.vertex_count} vertices, "
          f"{art.edge_count} edges; budget {art.budget}")

    print("\nbudget summands:")
    for name, value in budget_summands(art.n_reg, art.m_reg, art.p, art.L).items():
        print(f"  {name:>16}: {value}")

    src = brute_force_sat(phi)
    full = extend_assignment(reg, src)
    wit = multivariate_witness(art, full)
    print(f"\nwitness cost (counted from the clustering): {wit.cost}")
    print(f"matches the budget: {wit.cost == art.budget}")
    sizes = sorted(set(wit.cluster_sizes.values()))
    print(f"cluster count {len(wit.cluster_sizes)} == 6p, sizes {sizes}")
    attach = sorted(set(attachment_counts(art).values()))
    print(f"attachment count per clique: {attach} "
          f"(identity 17*n'/p = {17 * art.n_reg // art.p})")

    g = materialize_graph(art)
    target = cluster_graph_of(g.n, witness_clustering(art, wit))
    # g xor target has one edge per pair the two graphs disagree on
    print(f"bit-level cross-check: edit_distance = {apply_edits(g, target).m}")

    art = build_multivariate(phi, p=p, k=k, L_factor=1000)
    print(f"\nfaithful scale factor 1000: L={art.L}, "
          f"{art.vertex_count} vertices, {art.edge_count} edges")
    print(f"budget {art.budget}")
    full = extend_assignment(art.regularized, src)
    wit = multivariate_witness(art, full)
    print(f"counted witness still meets it exactly: {wit.cost == art.budget}")
    print("(too large to materialize -- every number above is counted)")


if __name__ == "__main__":
    main()
