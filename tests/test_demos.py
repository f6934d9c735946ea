"""Every demo script runs to completion and prints its pinned output."""
from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import package_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# SHA-256 of each demo's stdout; every demo is deterministic, so a
# refactor must leave these unchanged
PINNED_STDOUT = {
    "cut_enumeration":
        "855f81f0c458e85821afa19c8d0b7e0a5b973a58f25f7be7276e7f9df9210cec",
    "eth_reduction":
        "d959dbc6c191c01aca562d4244b911e87471fb6307a151b64c7747a3909892a0",
    "multivariate_budget":
        "dd180884912df74b32629ce0686c4d7485126160eb2258bd468fd0d137d26c76",
    "preprocessing_rules":
        "6138825b4d2d94897f975a851263ba023a49daef48e67ce426376c9a4b50b72c",
    "solve_small":
        "bafff4c13464b7d91dabc11382c87b0d37ab47bf949d4be3f200a8a014bb2b8f",
}


def test_all_demos_found():
    assert len(DEMOS) == 5
    assert [demo.stem for demo in DEMOS] == sorted(PINNED_STDOUT)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    res = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, env=package_env(), timeout=120)
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == \
        PINNED_STDOUT[demo.stem]
