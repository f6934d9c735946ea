"""Input hardening: every text the parsers see gives a value or a ValueError,
and `cluedit solve` answers or rejects every graph file it is given.

The CLI turns a ValueError into exit 2 with a one-line message; any other
exception would be reported as an internal error, so none may escape.
"""
from __future__ import annotations

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cluedit import (Clustering, Graph, Instance, Solution, cli,
                     oracle_best_cost, parse_assignment, parse_dimacs,
                     parse_graph, verify_solution)

# tokens near the grammar of both formats, plus numbers that int() rejects
# (over 4300 digits, superscripts) or accepts in other scripts (Arabic-Indic)
TOKENS = st.one_of(
    st.sampled_from(["p", "cep", "cnf", "e", "0", "-", "--1", "+2",
                     "1.5", "1e3", "0x10", "10000001", "99999999999",
                     "1" * 5000, "²", "١٢", "٣"]),
    st.integers(-5, 30).map(str),
    st.text(max_size=3),
)
# a line is a record tag (or none) and up to five tokens
LINES = st.builds(lambda tag, toks: " ".join([tag, *toks]),
                  st.sampled_from(["p cep", "p cnf", "p", "e", "c", "%", ""]),
                  st.lists(TOKENS, max_size=5))
STRUCTURED = st.lists(LINES, max_size=8).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), STRUCTURED))
def test_parsers_answer_or_reject(text):
    for parse in (parse_graph, parse_dimacs, parse_assignment):
        try:
            parse(text)
        except ValueError:
            pass


@st.composite
def graph_texts(draw):
    """A graph file on at most 8 vertices with "e u v" and bare "u v" edge
    lines and comments, sometimes damaged by one inserted, replaced or
    dropped line, which may or may not leave it well-formed."""
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    lines = [f"p cep {n} {len(edges)}"]
    for u, v in edges:
        if draw(st.booleans()):
            u, v = v, u
        lines.append(draw(st.sampled_from(["e {} {}", "{} {}"])).format(u, v))
        if draw(st.integers(0, 7)) == 0:
            lines.append("c comment")
    if draw(st.booleans()):
        damage = draw(st.sampled_from(["insert", "replace", "drop"]))
        at = draw(st.integers(0, len(lines) - (damage != "insert")))
        lines[at:at + (damage != "insert")] = (
            [] if damage == "drop" else [draw(LINES)])
    return "\n".join(lines) + "\n"


def _solve_in_process(text, argv):
    """Run `cluedit solve` on *text* written to a file; (code, out, err)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.g")
        with open(path, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["solve", path, *argv])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(graph_texts(), st.integers(0, 10), st.integers(-1, 12),
       st.sampled_from(["exact", "at-most"]),
       st.one_of(st.none(), st.integers(0, 16)))
def test_solve_cli_answers_or_rejects(text, p, k, mode, cap):
    # malformed input and bad parameters exit 2 with a one-line message; a
    # YES carries a certificate that verifies; a NO is proven, so it agrees
    # with the brute-force oracle, cap or not; only a cap may give unknown
    try:
        g = parse_graph(text)
    except ValueError:
        g = None
    assume(g is None or g.n <= 8)
    argv = ["--p", str(p), "--k", str(k), "--mode", mode]
    if cap is not None:
        argv += ["--cap", str(cap)]
    code, out, err = _solve_in_process(text, argv)
    if g is None or p < 1 or k < 0 or (cap is not None and cap < 1):
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "internal error" not in err
        return
    assert "error" not in err
    report = json.loads(out)
    inst = Instance(g, p, k, "exact" if mode == "exact" else "at_most")
    opt = oracle_best_cost(g, p, inst.mode)
    yes = opt is not None and opt <= k
    if code == 0:
        assert yes and report["cost"] == opt
        adds = [(u - 1, v - 1) for u, v in report["additions"]]
        dels = [(u - 1, v - 1) for u, v in report["deletions"]]
        # one edit graph: the additions are its non-edges of g, the
        # deletions its edges of g, each list in (u, v) order
        edits = Graph.from_edges(g.n, adds + dels)
        assert [e for e in edits.edges() if not g.has_edge(*e)] == adds
        assert [e for e in edits.edges() if g.has_edge(*e)] == dels
        clustering = Clustering.from_blocks(
            g.n, [[v - 1 for v in c] for c in report["clusters"]])
        assert verify_solution(inst, Solution(clustering, edits, opt))
    elif code == 1:
        assert not yes and report["answer"] == "no"
    else:
        assert code == 3 and cap is not None
        assert report["answer"] == "unknown" and report["stats"]["aborted"]
