"""Command-line front end: solve, oracle, cuts, reduce.

`solve` and `oracle` share one front end: `_instance` reads the graph,
checks p and builds the `Instance` (which checks k), and `_report` prints
either command's result and picks its exit code.  The library makes every
other check (k, the oracle's size limit, the cut cap) and the CLI turns
its `ValueError` into exit 2.

Exit codes: 0 for YES (or generator success), 1 for a proven NO,
2 for usage or input errors and for internal failures (any other
exception, such as a certificate that fails self-verification), 3 for
unknown: `solve` gave up under a `--cap` below the counting bound
B(p, 2k) of `cut_count_bound`, where an abort proves nothing, or `cuts`
stopped listing at its `--cap`.  Without `--cap`, `solve` stops at B,
which is finite for every p and k, so its aborts are proven NOs (exit 1).
Reports go to stdout as JSON with a `schema` field; wall time goes to
stderr so stdout stays deterministic.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

from .bruteforce import oracle_best_cost
from .cnf import parse_assignment, read_dimacs
from .cuts import _members, _sizes, cut_count_bound, enumerate_k_cuts
from .graph import read_graph, write_graph
from .preprocess import Instance
from .reductions import (MATERIALIZE_VERTEX_LIMIT, build_eth,
                         build_multivariate, eth_witness,
                         extend_eth_assignment, materialize_graph,
                         multivariate_witness, write_sidecar)
from .regularize import extend_assignment
from .solver import result_to_dict, solve_at_most_p, solve_exact_p

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_UNKNOWN = 3


def _emit(obj: dict) -> None:
    obj.setdefault("schema", 1)
    print(json.dumps(obj, sort_keys=True, indent=2))


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def _solve_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("graph", help="graph file (p cep header format)")
    sp.add_argument("--p", type=int, required=True, help="target cluster count")
    sp.add_argument("--k", type=int, required=True, help="edit budget")
    sp.add_argument("--mode", choices=("exact", "at-most"), default="exact")
    sp.add_argument("--format", choices=("json", "text"), default="json")


def _instance(args) -> Instance:
    g = read_graph(args.graph)
    if args.p < 1:
        raise ValueError("p must be at least 1")
    return Instance(g, args.p, args.k,
                    "exact" if args.mode == "exact" else "at_most")


def _report(res_dict: dict, fmt: str) -> int:
    """Print a solve or oracle report; an oracle report has no edits."""
    answer = res_dict["answer"]
    yes = answer == "yes"
    if fmt == "json":
        _emit(res_dict)
    else:
        print(f"answer {answer}")
        if yes:
            print(f"cost {res_dict['cost']}")
            for i, cluster in enumerate(res_dict.get("clusters", ()), start=1):
                print(f"cluster {i}: " + " ".join(str(v) for v in cluster))
            for tag in ("additions", "deletions"):
                for u, v in res_dict.get(tag, ()):
                    print(f"{tag[:-1]} {u} {v}")
    return {"yes": EXIT_YES, "no": EXIT_NO, "unknown": EXIT_UNKNOWN}[answer]


def cmd_solve(args) -> int:
    inst = _instance(args)
    solve = solve_exact_p if inst.mode == "exact" else solve_at_most_p
    return _report(result_to_dict(solve(inst, args.cap), inst.g, base=1),
                   args.format)


def cmd_oracle(args) -> int:
    inst = _instance(args)
    cost = oracle_best_cost(inst.g, inst.p, inst.mode)
    yes = cost is not None and cost <= inst.k
    return _report({"answer": "yes" if yes else "no",
                    "cost": cost if yes else None}, args.format)


# `cuts` renders this many cuts at a time, which bounds the text it holds
_CUTS_BLOCK = 4096


def cmd_cuts(args) -> int:
    g = read_graph(args.graph)
    cuts = enumerate_k_cuts(g, args.k, args.cap)
    if cuts is None:
        print(f"error: enumeration aborted, more than {args.cap} cuts "
              "in the graph or in a half it is joined from", file=sys.stderr)
        return EXIT_UNKNOWN
    if args.count_only:
        out: dict = {"count": len(cuts)}
        if args.p is not None:
            # a graph on n vertices is within k edits of at most n cliques,
            # and for k >= C(n, 2) every mask is a cut, so p past n and k
            # past C(n, 2) change nothing but the time and the number
            out["bound"] = bound = cut_count_bound(
                min(args.p, g.n), min(args.k, comb(g.n, 2)))
            out["within_bound"] = len(cuts) <= bound
        _emit(out)
    else:
        n = g.n
        # the cuts come in mask order; listed by (side-1 size, mask)
        shown = _sizes(cuts.words).argsort(kind="stable")
        for start in range(0, len(cuts), _CUTS_BLOCK):
            rows = shown[start:start + _CUTS_BLOCK]
            # one row of '0'/'1' bytes per cut, vertex 0 first
            member = _members(cuts.words[rows], n)
            text = (member + ord("0")).tobytes().decode("ascii")
            crossing = cuts.crossing_counts[rows].tolist()
            print("\n".join(f"{text[i * n:(i + 1) * n]} {c}"
                            for i, c in enumerate(crossing)))
    return EXIT_YES


def cmd_reduce_eth(args) -> int:
    phi = read_dimacs(args.cnf)
    art = build_eth(phi)
    prefix = args.out if args.out else str(Path(args.cnf).with_suffix(""))
    graph_file = prefix + ".g"
    sidecar_file = prefix + ".json"
    write_graph(art.graph, graph_file)
    write_sidecar(sidecar_file, art)
    out = {"kind": "eth", "budget": art.budget,
           "vertex_count": art.graph.n, "edge_count": art.graph.m,
           "clause_count": len(art.formula.clauses),
           "graph_file": graph_file, "sidecar_file": sidecar_file}
    if args.witness:
        source = parse_assignment(Path(args.witness).read_text())
        full = extend_eth_assignment(art, source)
        clustering, edits, cost = eth_witness(art, full)
        out["witness"] = {"cost": cost, "verified": True,
                          "cluster_count": clustering.c}
    _emit(out)
    return EXIT_YES


def cmd_reduce_multivariate(args) -> int:
    phi = read_dimacs(args.cnf)
    eps = Fraction(args.epsilon)
    art = build_multivariate(phi, args.p, args.k, eps, args.L_factor)
    prefix = args.out if args.out else str(Path(args.cnf).with_suffix(""))
    sidecar_file = prefix + ".json"
    write_sidecar(sidecar_file, art)
    out = {"kind": "multivariate", "budget": art.budget,
           "vertex_count": art.vertex_count, "edge_count": art.edge_count,
           "L": art.L, "sidecar_file": sidecar_file, "graph_file": None}
    if art.vertex_count <= MATERIALIZE_VERTEX_LIMIT:
        graph_file = prefix + ".g"
        write_graph(materialize_graph(art), graph_file)
        out["graph_file"] = graph_file
    if args.witness:
        source = parse_assignment(Path(args.witness).read_text())
        full = extend_assignment(art.regularized, source)
        wit = multivariate_witness(art, full)
        sizes = set(wit.cluster_sizes.values())
        out["witness"] = {"cost": wit.cost, "verified": True,
                          "cluster_count": 6 * art.p,
                          "cluster_size": sizes.pop() if len(sizes) == 1 else None}
    _emit(out)
    return EXIT_YES


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cluedit",
                                 description="exact cluster editing toolkit")
    ap.add_argument("--seed", type=int, default=0,
                    help="reserved for randomized commands; current commands "
                         "are deterministic")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run the exact solver")
    _solve_args(sp)
    sp.add_argument("--cap", type=int, default=None,
                    help="override the cut enumeration cap; an abort under "
                         "a cap below the counting bound answers unknown "
                         "(exit 3)")
    sp.add_argument("--threads", type=int, default=1,
                    help="accepted for interface stability; the solver "
                         "is single-threaded and output does not depend on "
                         "this value")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("oracle", help="brute-force reference solver (n <= 14)")
    _solve_args(sp)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("cuts", help="enumerate k-cuts")
    sp.add_argument("graph")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--cap", type=int, default=None,
                    help="stop once the graph, or a half it is joined "
                         "from, has more than this many cuts (exit 3, "
                         "nothing printed)")
    sp.add_argument("--count-only", action="store_true")
    sp.add_argument("--p", type=int, default=None,
                    help="compare the count against the cut bound "
                         "B(min(p, n), 2 min(k, C(n, 2)))")
    sp.set_defaults(func=cmd_cuts)

    sp = sub.add_parser("reduce", help="generate hardness instances from CNF")
    rsub = sp.add_subparsers(dest="kind", required=True)

    rp = rsub.add_parser("eth", help="bounded-degree construction, budget 14m")
    rp.add_argument("cnf")
    rp.add_argument("--out", default=None, help="output file prefix")
    rp.add_argument("--witness", default=None,
                    help="assignment file; emit and verify the exact-budget witness")
    rp.set_defaults(func=cmd_reduce_eth)

    rp = rsub.add_parser("multivariate",
                         help="balanced-clique construction for p clusters")
    rp.add_argument("cnf")
    rp.add_argument("--p", type=int, required=True)
    rp.add_argument("--k", type=int, required=True)
    rp.add_argument("--epsilon", default="1",
                    help="rational, e.g. 1 or 2/3")
    rp.add_argument("--L-factor", dest="L_factor", type=int, default=1000,
                    help="clique size factor; values below 1000 are "
                         "test-scale and not faithful")
    rp.add_argument("--out", default=None)
    rp.add_argument("--witness", default=None)
    rp.set_defaults(func=cmd_reduce_multivariate)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep both
        return int(exc.code or 0)
    start = time.perf_counter()
    try:
        code = args.func(args)
    except (ValueError, OSError, ZeroDivisionError) as exc:
        return _fail(str(exc))
    except Exception as exc:  # a crash must not read as exit 1, "proven NO"
        return _fail(f"internal error: {type(exc).__name__}: {exc}")
    finally:
        elapsed = time.perf_counter() - start
        print(f"wall_time_s={elapsed:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
