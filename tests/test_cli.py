"""End-to-end command-line tests run through a real subprocess (except the
internal-error test, which patches the solver in process)."""
from __future__ import annotations

import json

import pytest

from conftest import run_cli

from cluedit import cli, solver
from cluedit.cnf import CnfFormula, format_dimacs
from cluedit.graph import Graph, format_graph, read_graph

TRIANGLE = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])


@pytest.fixture
def graph_file(tmp_path):
    def write(g: Graph, name: str = "g.g") -> str:
        path = tmp_path / name
        path.write_text(format_graph(g))
        return str(path)
    return write


@pytest.fixture
def cnf_file(tmp_path):
    def write(f: CnfFormula, name: str = "f.cnf") -> str:
        path = tmp_path / name
        path.write_text(format_dimacs(f))
        return str(path)
    return write


# ---------------------------------------------------------------------------
# solve / oracle


def test_solve_yes_json(graph_file):
    res = run_cli("solve", graph_file(PATH3), "--p", "2", "--k", "1")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["schema"] == 1
    assert out["answer"] == "yes"
    assert out["cost"] == 1
    assert len(out["clusters"]) == 2
    assert len(out["additions"]) + len(out["deletions"]) == 1
    assert set(out["stats"]) == {"cuts_enumerated", "dp_states",
                                 "rules_applied", "aborted"}
    assert "wall_time_s=" in res.stderr


def test_solve_no_exit_code(graph_file):
    res = run_cli("solve", graph_file(PATH3), "--p", "2", "--k", "0")
    assert res.returncode == 1
    out = json.loads(res.stdout)
    assert out["answer"] == "no"
    assert out["cost"] is None


def test_solve_text_format(graph_file):
    res = run_cli("solve", graph_file(PATH3), "--p", "2", "--k", "1",
                  "--format", "text")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "answer yes"
    assert lines[1] == "cost 1"
    assert lines[2].startswith("cluster 1:")
    assert lines[3].startswith("cluster 2:")
    # vertices are 1-based on output
    listed = sorted(int(v) for ln in lines[2:4] for v in ln.split(":")[1].split())
    assert listed == [1, 2, 3]
    assert lines[4].split()[0] in ("addition", "deletion")


def test_solve_at_most_mode(graph_file):
    res = run_cli("solve", graph_file(TRIANGLE), "--p", "2", "--k", "3",
                  "--mode", "at-most")
    assert res.returncode == 0
    assert json.loads(res.stdout)["cost"] == 0


def test_solve_cap_abort(graph_file):
    res = run_cli("solve", graph_file(PATH3), "--p", "2", "--k", "1",
                  "--cap", "1")
    assert res.returncode == 1
    out = json.loads(res.stdout)
    assert out["answer"] == "no"
    assert out["stats"]["aborted"] is True


def test_oracle_matches_solver(graph_file):
    path = graph_file(TRIANGLE)
    for k, code in ((3, 0), (2, 1)):
        a = run_cli("solve", path, "--p", "3", "--k", str(k))
        b = run_cli("oracle", path, "--p", "3", "--k", str(k))
        assert a.returncode == b.returncode == code
        assert json.loads(a.stdout)["answer"] == json.loads(b.stdout)["answer"]
        assert json.loads(a.stdout)["cost"] == json.loads(b.stdout)["cost"]


def test_oracle_size_limit(graph_file):
    big = Graph.from_edges(15, [(0, 1)])
    res = run_cli("oracle", graph_file(big), "--p", "2", "--k", "1")
    assert res.returncode == 2
    assert res.stderr.startswith("error: oracle limited to 14 vertices")


# ---------------------------------------------------------------------------
# cuts


def test_cuts_stream(graph_file):
    res = run_cli("cuts", graph_file(TRIANGLE), "--k", "1")
    assert res.returncode == 0
    assert res.stdout.splitlines() == ["000 0", "111 0"]


def test_cuts_count_only_with_bound(graph_file):
    res = run_cli("cuts", graph_file(TRIANGLE), "--k", "1",
                  "--count-only", "--p", "2")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out == {"schema": 1, "count": 2, "bound": 65536,
                   "within_bound": True}


def test_cuts_count_only_unbounded(graph_file):
    res = run_cli("cuts", graph_file(TRIANGLE), "--k", "4",
                  "--count-only", "--p", "8")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["count"] == 8
    assert out["bound"] == "unbounded"
    assert out["within_bound"] is True


def test_cuts_cap_abort(graph_file):
    res = run_cli("cuts", graph_file(TRIANGLE), "--k", "2", "--cap", "1")
    assert res.returncode == 1
    assert res.stdout == ""
    assert "enumeration aborted, more than 1 cuts" in res.stderr


# ---------------------------------------------------------------------------
# reduce


def test_reduce_eth_with_witness(tmp_path, cnf_file):
    cnf = cnf_file(CnfFormula(3, ((1, 2, 3),)))
    wit = tmp_path / "model.txt"
    wit.write_text("1 -2 -3\n")
    res = run_cli("reduce", "eth", cnf, "--witness", str(wit))
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["kind"] == "eth"
    assert out["budget"] == 84
    assert out["vertex_count"] == 108
    assert out["edge_count"] == 180
    assert out["clause_count"] == 6
    assert out["witness"] == {"cost": 84, "verified": True, "cluster_count": 42}
    g = read_graph(out["graph_file"])
    assert (g.n, g.m) == (108, 180)
    side = json.loads((tmp_path / "f.json").read_text())
    assert side["kind"] == "eth"
    assert side["budget"] == 84


def test_reduce_eth_out_prefix(tmp_path, cnf_file):
    cnf = cnf_file(CnfFormula(3, ((1, 2, 3),)))
    prefix = str(tmp_path / "inst")
    res = run_cli("reduce", "eth", cnf, "--out", prefix)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["graph_file"] == prefix + ".g"
    assert out["sidecar_file"] == prefix + ".json"
    assert (tmp_path / "inst.g").exists()
    assert (tmp_path / "inst.json").exists()


def test_reduce_multivariate_materialized(tmp_path, cnf_file):
    cnf = cnf_file(CnfFormula(1, ((1,),)))
    wit = tmp_path / "model.txt"
    wit.write_text("1\n")
    res = run_cli("reduce", "multivariate", cnf, "--p", "1", "--k", "1",
                  "--L-factor", "1", "--witness", str(wit))
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["kind"] == "multivariate"
    assert out["budget"] == 2_624_832
    assert out["vertex_count"] == 4326
    assert out["L"] == 145
    assert out["witness"] == {"cost": 2_624_832, "verified": True,
                              "cluster_count": 6, "cluster_size": 721}
    # small enough to materialize: header should announce the exact size
    assert out["graph_file"] is not None
    header = open(out["graph_file"]).readline().split()
    assert header == ["p", "cep", "4326", "2201040"]


def test_reduce_multivariate_faithful_sidecar_only(tmp_path, cnf_file):
    cnf = cnf_file(CnfFormula(1, ((1,),)))
    res = run_cli("reduce", "multivariate", cnf, "--p", "1", "--k", "1")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["graph_file"] is None
    assert out["vertex_count"] == 873_456
    assert out["budget"] == 1_629_636_192
    side = json.loads((tmp_path / "f.json").read_text())
    assert side["parameters"]["L"] == 145_000
    assert not (tmp_path / "f.g").exists()


def test_reduce_multivariate_fractional_epsilon(tmp_path, cnf_file):
    cnf = cnf_file(CnfFormula(3, ((1, 2, 3),)))
    res = run_cli("reduce", "multivariate", cnf, "--p", "2", "--k", "2",
                  "--epsilon", "1/2", "--L-factor", "1")
    assert res.returncode == 0
    side = json.loads((tmp_path / "f.json").read_text())
    assert side["parameters"]["epsilon"] == "1/2"


def test_reduce_multivariate_hypothesis_error(cnf_file):
    cnf = cnf_file(CnfFormula(3, ((1, 2, 3),)))
    res = run_cli("reduce", "multivariate", cnf, "--p", "1", "--k", "1")
    assert res.returncode == 2
    assert res.stderr.startswith("error: hypothesis violated")


# ---------------------------------------------------------------------------
# errors, help, determinism


def test_missing_file_is_error():
    res = run_cli("solve", "/nonexistent.g", "--p", "2", "--k", "1")
    assert res.returncode == 2
    assert res.stderr.startswith("error:")


def test_bad_parameter_is_error(graph_file):
    res = run_cli("solve", graph_file(PATH3), "--p", "0", "--k", "1")
    assert res.returncode == 2
    assert "p must be at least 1" in res.stderr


def test_malformed_graph_is_error(tmp_path):
    path = tmp_path / "bad.g"
    path.write_text("e 1 2\n")
    res = run_cli("solve", str(path), "--p", "2", "--k", "1")
    assert res.returncode == 2
    assert "edge before header" in res.stderr


def _crash(inst, cap):
    raise RuntimeError("boom")


@pytest.mark.parametrize("target, attr, fake, message", [
    (cli, "solve_exact_p", _crash, "RuntimeError: boom"),
    # the certificate check in solver._finish fails
    (solver, "verify_solution", lambda inst, sol: False, "AssertionError"),
])
def test_internal_error_exit_2(graph_file, monkeypatch, capsys,
                               target, attr, fake, message):
    # exit 1 means a proven NO, so a crash must exit 2 without a traceback
    monkeypatch.setattr(target, attr, fake)
    code = cli.main(["solve", graph_file(PATH3), "--p", "2", "--k", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: internal error: " + message)


def test_usage_error_exit_2():
    assert run_cli().returncode == 2
    assert run_cli("solve").returncode == 2


def test_help_exit_0():
    res = run_cli("--help")
    assert res.returncode == 0
    assert "solve" in res.stdout and "reduce" in res.stdout


def test_stdout_deterministic(graph_file):
    path = graph_file(PATH3)
    argv = ("solve", path, "--p", "2", "--k", "1")
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode


def test_seed_and_threads_do_not_change_output(graph_file):
    path = graph_file(PATH3)
    base = run_cli("solve", path, "--p", "2", "--k", "1")
    seeded = run_cli("--seed", "7", "solve", path, "--p", "2", "--k", "1")
    threaded = run_cli("solve", path, "--p", "2", "--k", "1", "--threads", "4")
    assert base.stdout == seeded.stdout == threaded.stdout
