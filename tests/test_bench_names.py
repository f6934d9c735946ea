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
import pkgutil
from pathlib import Path

import cluedit

BENCH = Path(__file__).resolve().parent.parent / "bench"
PACKAGE = Path(cluedit.__file__).resolve().parent


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


def test_retired_stubs_are_only_span_targets():
    # a name bound to graph._retired stays only while bench/spans.py
    # patches it, and no code in the package calls it
    spec = importlib.util.spec_from_file_location("bench_spans",
                                                  BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = {(mod.__name__, attr) for mod, attr, _, _ in spans.TARGETS}
    stubs = set()
    for info in pkgutil.iter_modules(cluedit.__path__):
        module = importlib.import_module(f"cluedit.{info.name}")
        stubs |= {(module.__name__, name)
                  for name, value in vars(module).items()
                  if value is cluedit.graph._retired and name != "_retired"}
    assert stubs <= targets, stubs - targets
    retired = {name for _, name in stubs} | {"_retired"}
    assert retired == {"connected_components", "min_cut_leq", "_retired"}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else (
                    getattr(func, "id", None))
                assert name not in retired, (path.name, node.lineno)
