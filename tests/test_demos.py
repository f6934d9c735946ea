"""Every demo script runs to completion and prints something."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import package_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    res = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, env=package_env(), timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()
