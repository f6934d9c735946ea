"""Exact solver toolkit for (p-)cluster editing.

Decide whether a graph can be turned into a disjoint union of exactly (or
at most) p cliques with at most k edge edits, enumerate the small edge
cuts the algorithm branches over, preprocess instances with safe reduction
rules, cross-check everything against brute force, and generate SAT-based
hardness instances with exact-budget witnesses.
"""
from .bruteforce import ORACLE_LIMIT, oracle_best_cost
from .cnf import (CnfFormula, brute_force_sat, format_dimacs, parse_assignment,
                  parse_dimacs, read_dimacs, satisfies)
from .cuts import (CutIndex, cut_count_bound, edges_inside_table,
                   enumerate_k_cuts, min_cut_leq)
from .graph import (Clustering, Graph, apply_edits, clustering_to_edit_set,
                    cluster_graph_of, connected_components, format_graph,
                    induced_subgraph, is_cluster_graph, parse_graph,
                    read_graph, write_graph)
from .preprocess import Instance, PreprocessOutcome, lift_clustering, preprocess
from .reductions import (CliqueArtifact, CliqueWitness, DegreeArtifact,
                         attachment_counts, budget_summands, build_eth,
                         build_multivariate, eth_witness,
                         extend_eth_assignment, materialize_graph,
                         multivariate_witness, normalize_for_eth,
                         sidecar_dict, witness_clustering, write_sidecar)
from .regularize import RegularizedFormula, extend_assignment, regularize
from .solver import (Solution, SolveResult, SolveStats, solve_at_most_p,
                     solve_exact_p, verify_solution)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
