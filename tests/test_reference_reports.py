"""The benchmark's reference instances, solved through the package.

``bench/reference.json`` records the answer and cost of every instance in
the benchmark's pools, and ``bench/workloads.py`` regenerates each one from
its key.  This test solves all of them as ``cluedit solve`` does (parse,
solve, ``result_to_dict`` with 1-based ids, ``json.dumps`` with sorted keys
and an indent of 2), checks each answer and cost against the reference, and
pins one SHA-256 over every key and report.  The reports leave out
``stats.dp_states``, which counts the DP's work and not its result: a DP
change that keeps fewer states moves only that field, and the DP tests
compare it against ``oracles.dp_reference``.  Certificates, the cut counts,
the rules applied, the abort flag and the NO reason all stay in the pin.
The test only reads ``bench/``.
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from cluedit.graph import parse_graph
from cluedit.preprocess import Instance
from cluedit.solver import result_to_dict, solve_at_most_p, solve_exact_p

BENCH = Path(__file__).resolve().parent.parent / "bench"

# SHA-256 over each instance's key and report, in reference.json order
PINNED_REPORTS = (
    "8446c69ba3dd909fc16dca520a589df72b2c38bbabca04b145839c303c23a51e")


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks the module up by name while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_reference_reports_pinned(monkeypatch):
    workloads = _workloads(monkeypatch)
    reference = json.loads((BENCH / "reference.json").read_text())
    entries = [entry for strata in reference["workloads"].values()
               for stratum in strata for entry in stratum]
    assert len(entries) == 181
    digest = hashlib.sha256()
    for entry in entries:
        case = workloads.generate(entry["key"])
        g = parse_graph(case.text)
        solve = solve_exact_p if case.mode == "exact" else solve_at_most_p
        report = result_to_dict(solve(Instance(g, case.p, case.k, case.mode)),
                                g, base=1)
        assert (report["answer"], report["cost"]) == (
            entry["answer"], entry["cost"]), entry["key"]
        del report["stats"]["dp_states"]
        digest.update(entry["key"].encode())
        digest.update(json.dumps(report, sort_keys=True, indent=2).encode())
    assert digest.hexdigest() == PINNED_REPORTS
