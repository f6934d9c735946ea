"""CNF formulas, DIMACS parsing and the exhaustive SAT check."""
from __future__ import annotations

import random

import pytest

import oracles
from cluedit import (CnfFormula, brute_force_sat, format_dimacs,
                     parse_assignment, parse_dimacs, satisfies)
from cluedit.cnf import BRUTE_SAT_LIMIT, falsified_clause, first_true_position


def test_formula_validation():
    with pytest.raises(ValueError, match="empty clause"):
        CnfFormula(0, ((),))
    with pytest.raises(ValueError):
        CnfFormula(1, ((0,),))
    with pytest.raises(ValueError):
        CnfFormula(1, ((2,),))


def test_satisfies_and_falsified_clause():
    f = CnfFormula(2, ((1, 2), (-1, 2), (-2, 1)))
    assert satisfies(f, {1: True, 2: True})
    assert falsified_clause(f, {1: True, 2: True}) is None
    assert falsified_clause(f, {1: False, 2: False}) == 0
    assert falsified_clause(f, {1: False, 2: True}) == 2
    assert [first_true_position(cl, {1: False, 2: True})
            for cl in f.clauses[:2]] == [2, 1]
    with pytest.raises(ValueError, match="misses variable"):
        satisfies(f, {1: True})


def test_brute_force_sat_matches_reference():
    rng = random.Random(3)
    seen_unsat = 0
    for _ in range(40):
        nvar = rng.randint(1, 5)
        clauses = oracles.random_clauses(rng, nvar, rng.randint(1, 6))
        f = CnfFormula(nvar, tuple(clauses))
        expect = oracles.sat_assignment(nvar, clauses)
        got = brute_force_sat(f)
        assert (got is None) == (expect is None)
        if got is not None:
            assert satisfies(f, got)
        else:
            seen_unsat += 1
    assert seen_unsat > 0


def test_brute_force_sat_returns_first_in_bit_order():
    # variable 1 is the least significant bit of the sweep
    f = CnfFormula(2, ((1, 2),))
    assert brute_force_sat(f) == {1: True, 2: False}


def test_brute_force_sat_limit():
    f = CnfFormula(BRUTE_SAT_LIMIT + 1, ())
    with pytest.raises(ValueError):
        brute_force_sat(f)


def test_dimacs_roundtrip():
    f = CnfFormula(4, ((1, -2, 3), (-1, 2)))
    text = format_dimacs(f)
    assert text.splitlines()[0] == "p cnf 4 2"
    assert parse_dimacs(text) == f


def test_dimacs_parses_comments_and_multiline_clauses():
    text = "c header comment\np cnf 3 2\n1 -2\n3 0\n% trailer\n-1 2 0\n"
    f = parse_dimacs(text)
    assert f.clauses == ((1, -2, 3), (-1, 2))


@pytest.mark.parametrize("text, message", [
    ("1 2 0\n", "before header"),
    ("p cnf 2\n", "malformed header"),
    ("p cnf 2 1\np cnf 2 1\n", "malformed header"),
    ("p cnf 2 1\n3 0\n", "out of range"),
    ("p cnf 2 2\n1 0\n", "claims 2"),
    ("p cnf 2 1\n1 x 0\n", "bad token"),
    ("p cnf 2 1\n0\n", "empty clause"),
    ("p cnf 2 1\n1 2\n", "unterminated"),
    ("", "missing header"),
])
def test_dimacs_errors(text, message):
    with pytest.raises(ValueError, match=message):
        parse_dimacs(text)


def test_parse_assignment():
    assert parse_assignment("1 -2\n3\n") == {1: True, 2: False, 3: True}
    assert parse_assignment("1 0 1") == {1: True}  # 0 terminators tolerated
    with pytest.raises(ValueError, match="both ways"):
        parse_assignment("1 -1\n")
