"""One benchmark operation and the correctness gate that follows it.

An operation is what ``cluedit solve`` does inside its process: parse the
instance text, run the exact or at-most solver, build the report dict and
serialise it.  The gate runs outside the timer; it compares the report
with the recorded reference and rechecks every certificate with the
package's ``verify_solution``.
"""
from __future__ import annotations

import json

import cluedit.graph
import cluedit.solver
from cluedit.preprocess import Instance

# bound before any tracing wrapper is installed, so the gate is never traced
_verify_solution = cluedit.solver.verify_solution


def run_op(case, tracer):
    """Parse, solve and report *case*; returns (instance, result, report)."""
    with tracer.span("op"):
        with tracer.span("cli.parse"):
            g = cluedit.graph.parse_graph(case.text)
        inst = Instance(g, case.p, case.k, case.mode)
        if case.mode == "exact":
            res = cluedit.solver.solve_exact_p(inst)
        else:
            res = cluedit.solver.solve_at_most_p(inst)
        with tracer.span("cli.report"):
            report = cluedit.solver.result_to_dict(res, g, base=1)
            report.setdefault("schema", 1)
            text = json.dumps(report, sort_keys=True, indent=2)
    return inst, res, text


def check(case, ref: dict, inst, res, text: str) -> str | None:
    """Why the operation's output is wrong, or None when it is right.

    The answer and cost must equal the reference, a YES must carry a
    certificate that ``verify_solution`` accepts, and when the generator
    planted a clustering within budget the answer must be YES at a cost no
    higher than the planted one.
    """
    out = json.loads(text)
    if (out["answer"], out["cost"]) != (ref["answer"], ref["cost"]):
        return (f"answer {out['answer']} cost {out['cost']}, reference "
                f"{ref['answer']} cost {ref['cost']}")
    if res.answer != (out["answer"] == "yes"):
        return "report disagrees with the solver result"
    if res.answer and not _verify_solution(inst, res.solution):
        return "certificate does not verify"
    w = case.witness_cost
    if w is not None and w <= case.k and (not res.answer or res.solution.cost > w):
        return f"no better than the planted clustering of cost {w}"
    return None


def signature(res) -> tuple:
    """Deterministic fields of a result, compared across repeats."""
    s = res.stats
    return (res.answer, res.solution.cost if res.answer else None,
            s.cuts_enumerated, s.dp_states, tuple(s.rules_applied), s.aborted)
