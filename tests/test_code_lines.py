"""The code-line counter in tools/ that the change notes quote."""
from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SNIPPET = '''"""A module docstring
over two lines."""
import os  # a comment after code

# a comment line


def f(a,
      b):
    """A docstring."""
    text = """not a docstring:
it is assigned"""
    return (a
            + b)  # the expression spans two lines
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only():
    # import, def over two lines, the assignment's two lines and the
    # return's two lines: the docstrings, comments and blanks count nothing
    assert _tool().code_lines(SNIPPET) == 7


def test_reports_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert _tool().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"7 {tmp_path / 'a.py'}", f"1 {tmp_path / 'b.py'}", "8 total"]
