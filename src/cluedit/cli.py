"""Command-line front end: solve, oracle, cuts, reduce.

Exit codes: 0 for YES (or generator success), 1 for a proven NO,
2 for usage or input errors and for internal failures (any other
exception, such as a certificate that fails self-verification).  Reports
go to stdout as JSON with a `schema` field; wall time goes to stderr so
stdout stays deterministic.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from .bruteforce import ORACLE_LIMIT, oracle_best_cost
from .cnf import parse_assignment, read_dimacs
from .cuts import UNBOUNDED, cut_count_bound, enumerate_k_cuts
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


def _report(res_dict: dict, fmt: str) -> None:
    if fmt == "json":
        _emit(res_dict)
        return
    print(f"answer {res_dict['answer']}")
    if res_dict["answer"] == "yes":
        print(f"cost {res_dict['cost']}")
        for i, cluster in enumerate(res_dict["clusters"], start=1):
            print(f"cluster {i}: " + " ".join(str(v) for v in cluster))
        for tag in ("additions", "deletions"):
            for u, v in res_dict[tag]:
                print(f"{tag[:-1]} {u} {v}")


def cmd_solve(args) -> int:
    g = read_graph(args.graph)
    if args.p < 1:
        raise ValueError("p must be at least 1")
    if args.k < 0:
        raise ValueError("k must be nonnegative")
    mode = "exact" if args.mode == "exact" else "at_most"
    inst = Instance(g, args.p, args.k, mode)
    solve = solve_exact_p if mode == "exact" else solve_at_most_p
    res = solve(inst, args.cap)
    _report(result_to_dict(res, g, base=1), args.format)
    return EXIT_YES if res.answer else EXIT_NO


def cmd_oracle(args) -> int:
    g = read_graph(args.graph)
    if args.p < 1:
        raise ValueError("p must be at least 1")
    if args.k < 0:
        raise ValueError("k must be nonnegative")
    if g.n > ORACLE_LIMIT:
        raise ValueError(f"oracle limited to {ORACLE_LIMIT} vertices, got {g.n}")
    mode = "exact" if args.mode == "exact" else "at_most"
    cost = oracle_best_cost(g, args.p, mode)
    answer = cost is not None and cost <= args.k
    out = {"answer": "yes" if answer else "no",
           "cost": cost if answer else None}
    if args.format == "json":
        _emit(out)
    else:
        print(f"answer {out['answer']}")
        if answer:
            print(f"cost {cost}")
    return EXIT_YES if answer else EXIT_NO


def cmd_cuts(args) -> int:
    g = read_graph(args.graph)
    if args.k < 0:
        raise ValueError("k must be nonnegative")
    cap = args.cap if args.cap is not None else UNBOUNDED
    cuts = enumerate_k_cuts(g, args.k, cap)
    if cuts is None:
        print(f"error: enumeration aborted, more than {args.cap} cuts",
              file=sys.stderr)
        return EXIT_NO
    if args.count_only:
        out: dict = {"count": len(cuts)}
        if args.p is not None:
            bound = cut_count_bound(args.p, args.k)
            out["bound"] = "unbounded" if bound == UNBOUNDED else bound
            out["within_bound"] = True if bound == UNBOUNDED else len(cuts) <= bound
        _emit(out)
    else:
        for mask, crossing in zip(cuts.masks, cuts.crossing):
            bitstring = "".join("1" if mask >> v & 1 else "0" for v in range(g.n))
            print(f"{bitstring} {crossing}")
    return EXIT_YES


def _load_witness_assignment(path: str) -> dict[int, bool]:
    return parse_assignment(Path(path).read_text())


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
        source = _load_witness_assignment(args.witness)
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
        source = _load_witness_assignment(args.witness)
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
                    help="override the cut enumeration cap")
    sp.add_argument("--threads", type=int, default=1,
                    help="accepted for interface stability; the layer "
                         "relaxation is single-threaded and output does not "
                         "depend on this value")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("oracle", help="brute-force reference solver (n <= 14)")
    _solve_args(sp)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("cuts", help="enumerate k-cuts")
    sp.add_argument("graph")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--cap", type=int, default=None)
    sp.add_argument("--count-only", action="store_true")
    sp.add_argument("--p", type=int, default=None,
                    help="compare the count against the p,k cut bound")
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
