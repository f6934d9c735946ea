"""Shared pytest wiring.

The acceptance tests report one summary line per criterion; collecting the
lines here and printing them from ``pytest_terminal_summary`` keeps them
visible regardless of output capturing.

``run_cli`` starts ``python -m cluedit.cli`` in a subprocess that imports the
same ``cluedit`` package as the test process, whatever its working directory;
``package_env`` gives other subprocesses (the demos) the same environment.
"""
from __future__ import annotations

import functools
import os
import subprocess
import sys
from pathlib import Path

ACCEPTANCE_LINES: list[tuple[int, str]] = []
CRITERION_NOTES: dict[int, list[str]] = {}


def criterion_note(num: int, text: str) -> None:
    """Attach a note (fallback flag, timing) to a criterion's summary line."""
    CRITERION_NOTES.setdefault(num, []).append(text)


def record_criterion(num: int, name: str, ok: bool, note: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    notes = ([note] if note else []) + CRITERION_NOTES.get(num, [])
    extra = f"  [{'; '.join(notes)}]" if notes else ""
    ACCEPTANCE_LINES.append((num, f"criterion {num} {status} - {name}{extra}"))


def criterion(num: int, name: str, note: str = ""):
    """Wrap an acceptance test so a summary line is recorded either way."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                record_criterion(num, name, False, note)
                raise
            record_criterion(num, name, True, note)
        return wrapper
    return deco


def package_env() -> dict[str, str]:
    """The environment for a subprocess that imports ``cluedit``.

    The directory that holds the imported ``cluedit`` package goes first on
    the subprocess ``PYTHONPATH`` as an absolute path, so a relative entry
    such as ``PYTHONPATH=src`` does not decide whether a subprocess started
    in another directory finds the package. Existing entries are kept after
    it.
    """
    import cluedit  # here, so a missing package fails only these tests

    root = str(Path(cluedit.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join([root, rest] if rest else [root])}


def run_cli(*argv: str, cwd=None) -> subprocess.CompletedProcess:
    """Run ``python -m cluedit.cli *argv`` and capture its text output."""
    return subprocess.run([sys.executable, "-m", "cluedit.cli", *argv],
                          capture_output=True, text=True, cwd=cwd,
                          env=package_env())


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
