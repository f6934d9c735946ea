"""End-to-end command-line tests run through a real subprocess (except the
internal-error test, which patches the solver in process, and the pinned
stdout digests, which call `cli.main` in process for speed)."""
from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time

import pytest

import oracles
from conftest import package_env, run_cli

from cluedit import cli, cut_count_bound, enumerate_k_cuts, solver
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
                                 "rules_applied", "aborted", "no_reason"}
    assert out["stats"]["no_reason"] is None
    assert "wall_time_s=" in res.stderr


def test_solve_no_exit_code(graph_file):
    res = run_cli("solve", graph_file(PATH3), "--p", "2", "--k", "0")
    assert res.returncode == 1
    out = json.loads(res.stdout)
    assert out["answer"] == "no"
    assert out["cost"] is None
    # the path has no clique component, and Rule 1 needs p - 2k = 2
    assert out["stats"]["no_reason"] == "rule1"


@pytest.mark.parametrize("k", [10 ** 8, 10 ** 29])
def test_solve_huge_budget_answers_at_once(graph_file, capsys, k):
    # no clustering of 3 vertices costs more than 3, so the budget is
    # clamped before the counting bound, whose work grows as k^3
    start = time.perf_counter()
    code = cli.main(["solve", graph_file(PATH3), "--p", "2", "--k", str(k)])
    elapsed = time.perf_counter() - start
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["answer"] == "yes" and out["cost"] == 1
    assert elapsed < 1.0


@pytest.mark.parametrize("k", [10 ** 8, 10 ** 29])
def test_cuts_bound_huge_budget_answers_at_once(graph_file, capsys, k):
    # for k >= C(3, 2) every mask is a cut, so the bound is taken at k = 3
    # and its O(k^3) work stays small
    start = time.perf_counter()
    code = cli.main(["cuts", graph_file(PATH3), "--k", str(k),
                     "--count-only", "--p", "2"])
    elapsed = time.perf_counter() - start
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["bound"] == cut_count_bound(2, 3) == 700
    assert out["count"] == 8 and out["within_bound"]
    assert elapsed < 1.0


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


def test_solve_at_most_on_the_empty_graph(graph_file):
    # zero clusters is at most p and costs nothing
    res = run_cli("solve", graph_file(Graph.empty(0)), "--p", "2", "--k", "0",
                  "--mode", "at-most")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["answer"] == "yes" and out["cost"] == 0
    assert out["clusters"] == []


def test_solve_pace_format(tmp_path):
    # PACE 2021 edge lines: a bare "u v" after the header
    path = tmp_path / "pace.gr"
    path.write_text("c path on three vertices\np cep 3 2\n1 2\n2 3\n")
    res = run_cli("solve", str(path), "--p", "2", "--k", "1")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["answer"] == "yes" and out["cost"] == 1


def test_solve_two_bridged_cliques(graph_file):
    # a large easy graph: 300 vertices, only the bridge needs deleting
    side = 150
    edges = [(u, v) for base in (0, side)
             for u in range(base, base + side) for v in range(u + 1, base + side)]
    g = Graph.from_edges(2 * side, edges + [(side - 1, side)])
    res = run_cli("solve", graph_file(g), "--p", "2", "--k", "1")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["answer"] == "yes" and out["cost"] == 1
    assert out["deletions"] == [[side, side + 1]]
    assert out["additions"] == []


def test_solve_cap_abort(graph_file):
    # a YES at cost 1: giving up under a cap below the counting bound
    # proves nothing, so the answer is unknown with its own exit code
    argv = ("solve", graph_file(PATH3), "--p", "2", "--k", "1", "--cap", "1")
    res = run_cli(*argv)
    assert res.returncode == 3
    out = json.loads(res.stdout)
    assert out["answer"] == "unknown"
    assert out["cost"] is None and out["clusters"] == []
    assert out["stats"]["aborted"] is True
    res = run_cli(*argv, "--format", "text")
    assert res.returncode == 3
    assert res.stdout == "answer unknown\n"


@pytest.mark.parametrize("g, p, cap", [
    (PATH3, 5, 0),              # p > n: preprocessing rejects
    (Graph.empty(2), 9, -3),    # Rule 1 answers before enumerating
])
def test_bad_cap_is_error_before_preprocessing(graph_file, g, p, cap):
    res = run_cli("solve", graph_file(g), "--p", str(p), "--k", "1",
                  "--cap", str(cap))
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: cap must be >= 1")


def test_oracle_matches_solver(graph_file):
    path = graph_file(TRIANGLE)
    for k, code in ((3, 0), (2, 1)):
        a = run_cli("solve", path, "--p", "3", "--k", str(k))
        b = run_cli("oracle", path, "--p", "3", "--k", str(k))
        assert a.returncode == b.returncode == code
        assert json.loads(a.stdout)["answer"] == json.loads(b.stdout)["answer"]
        assert json.loads(a.stdout)["cost"] == json.loads(b.stdout)["cost"]


BRIDGED_TRIANGLES = Graph.from_edges(
    6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])

# YES and NO answers in both modes, with additions and deletions
PINNED_CASES = [(PATH3, 2, 1), (PATH3, 2, 0), (PATH3, 1, 1), (TRIANGLE, 3, 3),
                (TRIANGLE, 2, 1), (BRIDGED_TRIANGLES, 2, 1),
                (BRIDGED_TRIANGLES, 1, 3), (BRIDGED_TRIANGLES, 3, 1)]
EXACT_CODES = [0, 1, 0, 0, 1, 0, 1, 1]
AT_MOST_CODES = [0, 1, 0, 0, 0, 0, 1, 0]
# SHA-256 of the stdout of all PINNED_CASES in order
PINNED_STDOUT = {
    ("solve", "json", "exact"):
        "446773b51873c0a283bfbac3de31f078b75c85dcd2ffb4c9e90f55c187e82a63",
    ("solve", "json", "at-most"):
        "695711257db61f3968a701d7d09b229cdf6292c63aa6ed01fd9b512855a70571",
    ("solve", "text", "exact"):
        "e882cb52cac487e43f0b86a17a4d859295b6d6252b12a7cc713dc59b91ee9cc7",
    ("solve", "text", "at-most"):
        "e742e577acb217bf3cd73c694fb315545f7cd93ce5466c1beb124b351d68f699",
    ("oracle", "json", "exact"):
        "3977ed021fc26ac9e1b3ae69d6a9cd9e3f461ea3c07f545365421169f97d6424",
    ("oracle", "json", "at-most"):
        "4167c1c079cc4bd63b1833eb2a4193b35a0f625181d441641397027843829163",
    ("oracle", "text", "exact"):
        "682de4f2ae689251b41c4f676c267a21d22af6da436a46052e93d7f2bc5fc5ad",
    ("oracle", "text", "at-most"):
        "3ecf6f874ed5129b69edb26313039ee20c3aa139dc7a07b08e28920833d82cae",
}


@pytest.mark.parametrize("command, fmt, mode", sorted(PINNED_STDOUT))
def test_solve_and_oracle_stdout_pinned(graph_file, capsys, command, fmt, mode):
    digest = hashlib.sha256()
    codes = []
    for i, (g, p, k) in enumerate(PINNED_CASES):
        codes.append(cli.main([command, graph_file(g, f"{i}.g"),
                               "--p", str(p), "--k", str(k),
                               "--mode", mode, "--format", fmt]))
        digest.update(capsys.readouterr().out.encode())
    assert codes == (EXACT_CODES if mode == "exact" else AT_MOST_CODES)
    assert digest.hexdigest() == PINNED_STDOUT[command, fmt, mode]


def test_runtime_does_not_import_mpmath(tmp_path, graph_file, cnf_file):
    # the test extra's modules are for tests only: every command runs on
    # the standard library and numpy
    path = graph_file(BRIDGED_TRIANGLES)
    cnf = cnf_file(CnfFormula(3, ((1, 2, 3),)))
    wit = tmp_path / "model.txt"
    wit.write_text("1 -2 -3\n")
    commands = [
        ["solve", path, "--p", "2", "--k", "1"],
        ["oracle", path, "--p", "2", "--k", "1"],
        ["cuts", path, "--k", "1", "--count-only", "--p", "2"],
        ["reduce", "eth", cnf, "--witness", str(wit)],
        ["reduce", "multivariate", cnf, "--p", "2", "--k", "5"],
    ]
    script = f"""
import sys
import time
from cluedit import cli
for argv in {commands!r}:
    assert cli.main(argv) == 0, argv
    loaded = {{"mpmath", "scipy", "hypothesis", "pytest"}} & set(sys.modules)
    assert not loaded, (argv, loaded)
"""
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=package_env(), timeout=120)
    assert res.returncode == 0, res.stderr
    assert '"within_bound": true' in res.stdout


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
    # one edge {1, 3}: every mask is a 1-cut, listed by (side-1 size, mask)
    one_edge = Graph.from_edges(3, [(0, 2)])
    res = run_cli("cuts", graph_file(one_edge), "--k", "1")
    assert res.returncode == 0
    assert res.stdout.splitlines() == ["000 0", "100 1", "010 0", "001 1",
                                       "110 1", "101 0", "011 1", "111 0"]


def test_cuts_stream_across_words_and_blocks(graph_file):
    # bitstrings of masks wider than one uint64 word, listings longer than
    # one rendering block, and the empty graph's one cut with no bits
    path = Graph.from_edges(70, [(v, v + 1) for v in range(69)])
    assert 1 << 13 > cli._CUTS_BLOCK  # the 2^13 cuts of 13 lone vertices
    for g, k in ((path, 1), (Graph.empty(13), 0), (Graph.empty(0), 0)):
        res = run_cli("cuts", graph_file(g), "--k", str(k))
        assert res.returncode == 0
        index = enumerate_k_cuts(g, k)
        # listed by (side-1 size, mask)
        listed = sorted(zip(oracles.cut_masks(index),
                            index.crossing_counts.tolist()),
                        key=lambda cut: (cut[0].bit_count(), cut[0]))
        assert res.stdout.splitlines() == [
            "".join("1" if mask >> v & 1 else "0" for v in range(g.n)) + f" {c}"
            for mask, c in listed]


def test_cuts_count_only_with_bound(graph_file):
    res = run_cli("cuts", graph_file(TRIANGLE), "--k", "1",
                  "--count-only", "--p", "2")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out == {"schema": 1, "count": 2, "bound": 40,
                   "within_bound": True}


def test_cuts_count_only_bound_finite_for_large_pk(graph_file):
    # 2pk = 64 is past where 2^(8 sqrt(2pk)) fits 63 bits; B stays an int
    res = run_cli("cuts", graph_file(Graph.empty(8)), "--k", "4",
                  "--count-only", "--p", "8")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out == {"schema": 1, "count": 256, "bound": 48242176,
                   "within_bound": True}
    # p beyond n is read as n: B(10**6, 2) alone would have 300000 digits
    res = run_cli("cuts", graph_file(TRIANGLE), "--k", "1",
                  "--count-only", "--p", str(10 ** 6))
    assert res.returncode == 0
    assert json.loads(res.stdout)["bound"] == 128  # B(3, 1)


def test_cuts_bound_at_k0_counts_every_clique_whole(graph_file):
    # two cliques have 2^2 cuts of crossing 0, all within the bound
    two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
    res = run_cli("cuts", graph_file(two_edges), "--k", "0",
                  "--count-only", "--p", "2")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out == {"schema": 1, "count": 4, "bound": 4, "within_bound": True}


def test_cuts_on_a_long_path(graph_file):
    # 1500 vertices: about a hundred table ranges, joined pairwise
    n = 1500
    path = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
    res = run_cli("cuts", graph_file(path), "--k", "0", "--count-only")
    assert res.returncode == 0
    assert json.loads(res.stdout) == {"schema": 1, "count": 2}


def test_cuts_cap_abort(graph_file):
    # a cut listing has no NO to prove, so the abort is unknown, not exit 1
    res = run_cli("cuts", graph_file(TRIANGLE), "--k", "2", "--cap", "1")
    assert res.returncode == 3
    assert res.stdout == ""
    assert "enumeration aborted, more than 1 cuts" in res.stderr


def test_cuts_cap_counts_the_halves_too(graph_file):
    # K_{1,17} with its centre at id 17 has 2 cuts at k = 0, but the lower
    # half it is joined from, ids 0-8, is 9 lone leaves with 2^9 = 512
    # cuts, past the cap
    star = Graph.from_edges(18, [(v, 17) for v in range(17)])
    assert len(enumerate_k_cuts(star, 0)) == 2
    res = run_cli("cuts", graph_file(star), "--k", "0", "--cap", "10")
    assert res.returncode == 3
    assert res.stdout == ""
    assert ("enumeration aborted, more than 10 cuts in the graph or in a "
            "half it is joined from") in res.stderr


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


def test_absurd_vertex_count_is_input_error(tmp_path):
    # the header alone would need arrays of terabytes for its vertices: bad
    # input, not an internal error
    path = tmp_path / "huge.g"
    path.write_text("p cep 99999999999 0\n")
    res = run_cli("solve", str(path), "--p", "2", "--k", "1")
    assert res.returncode == 2
    assert res.stderr.startswith("error: line 1: 99999999999 vertices "
                                 "exceed the limit of 10000000")


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
