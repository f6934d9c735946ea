"""The benchmark reaches into the package by name.

``bench/spans.py`` patches the module attributes listed in its ``TARGETS``,
and the other benchmark scripts import ``cluedit`` names or call them by
dotted path.  A rename in the package that leaves one of these names
behind breaks only a benchmark run, so every one of them is resolved here.
"""
from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import cluedit

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_span_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans",
                                                  BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert len(spans.TARGETS) >= 10
    for mod, attr, _, _ in spans.TARGETS:
        assert callable(getattr(mod, attr, None)), (mod.__name__, attr)


def _dotted(node: ast.expr) -> str | None:
    """'cluedit.a.b' for an attribute chain rooted at the name cluedit."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "cluedit" and parts:
        return ".".join(["cluedit", *reversed(parts)])
    return None


def test_bench_scripts_cluedit_names_resolve():
    seen = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        # the imports first, so submodules are attributes of the package
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "cluedit":
                        importlib.import_module(alias.name)
            elif (isinstance(node, ast.ImportFrom) and node.module
                  and node.module.split(".")[0] == "cluedit"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (path.name, alias.name)
                    seen.add(f"{node.module}.{alias.name}")
        for node in ast.walk(tree):
            dotted = _dotted(node)
            if dotted is None:
                continue
            obj = cluedit
            for part in dotted.split(".")[1:]:
                assert hasattr(obj, part), (path.name, dotted)
                obj = getattr(obj, part)
            seen.add(dotted)
    # the scan finds what the harness and the reference recorder call
    assert {"cluedit.graph.parse_graph", "cluedit.graph.is_cluster_graph",
            "cluedit.solver.verify_solution", "cluedit.solver.result_to_dict",
            "cluedit.preprocess.Instance",
            "cluedit.cuts.enumerate_k_cuts"} <= seen
