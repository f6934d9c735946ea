"""Formula regularization: structural invariants and pushforward."""
from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

import oracles
from cluedit import CnfFormula, RegularizedFormula, extend_assignment, regularize


def scan_invariants(reg: RegularizedFormula) -> None:
    """The advertised output shape, checked from scratch."""
    f = reg.formula
    n = f.var_count
    # clauses: exactly three distinct variables each
    pos: Counter = Counter()
    neg: Counter = Counter()
    for cl in f.clauses:
        assert len(cl) == 3
        assert len({abs(l) for l in cl}) == 3
        for l in cl:
            (pos if l > 0 else neg)[abs(l)] += 1
    # every variable three times per polarity; clause count twice var count
    for v in range(1, n + 1):
        assert pos[v] == 3 and neg[v] == 3, v
    assert len(f.clauses) == 2 * n
    # parts: p equal consecutive-free groups covering all variables
    assert len(reg.parts) == reg.p
    assert n % reg.p == 0
    seen: set = set()
    for block in reg.parts:
        assert len(block) == n // reg.p
        seen.update(block)
    assert seen == set(range(1, n + 1))
    # mirror closure: each variable v is paired with v + n/2; negating every
    # literal and swapping the halves permutes the clause multiset, parts are
    # closed under the pairing, and mirror recipes are exact negations
    assert n % 2 == 0
    half = n // 2

    def mirror(lit: int) -> int:
        v = abs(lit)
        m = v + half if v <= half else v - half
        return -m if lit > 0 else m

    bag = Counter(tuple(sorted(cl)) for cl in f.clauses)
    mirrored = Counter(tuple(sorted(mirror(l) for l in cl)) for cl in f.clauses)
    assert bag == mirrored
    for block in reg.parts:
        assert {abs(mirror(v)) for v in block} == set(block)
    for v in range(1, half + 1):
        low, high = reg.recipes[v - 1], reg.recipes[v + half - 1]
        if low[0] == "const":
            assert high == ("const", not low[1])
        else:
            assert high == ("var", low[1], not low[2])
    assert reg.flag in ("none", "forced_sat", "forced_unsat")
    assert len(reg.recipes) == n
    for rec in reg.recipes:
        assert rec[0] in ("const", "var")


def pushforward_checks(phi: CnfFormula, reg: RegularizedFormula) -> None:
    """Every satisfying source assignment extends to a balanced model."""
    model = oracles.sat_assignment(phi.var_count, phi.clauses)
    assert model is not None
    full = extend_assignment(reg, model)
    assert oracles.check_model(reg.formula.clauses, full)
    half = reg.formula.var_count // (2 * reg.p)
    for block in reg.parts:
        assert sum(full[v] for v in block) == half


def test_frozen_sizes():
    phi = CnfFormula(3, ((1, 2, 3),))
    reg = regularize(phi, 2)
    assert reg.formula.var_count == 288
    assert len(reg.formula.clauses) == 576
    assert reg.flag == "none"
    assert [len(b) for b in reg.parts] == [144, 144]
    scan_invariants(reg)
    pushforward_checks(phi, reg)


def test_forced_sat_seed():
    phi = CnfFormula(1, ())
    reg = regularize(phi, 1)
    assert reg.flag == "forced_sat"
    assert reg.formula.var_count == 144
    scan_invariants(reg)
    pushforward_checks(phi, reg)


def test_unit_propagation_can_force_sat():
    # propagation satisfies everything; pipeline continues from the seed
    phi = CnfFormula(2, ((1,), (-2,)))
    reg = regularize(phi, 1)
    assert reg.flag == "forced_sat"
    scan_invariants(reg)
    pushforward_checks(phi, reg)


def test_forced_unsat_seed():
    phi = CnfFormula(1, ((1,), (-1,)))
    reg = regularize(phi, 1)
    assert reg.flag == "forced_unsat"
    scan_invariants(reg)
    assert not oracles.milp_sat(reg.formula.var_count, reg.formula.clauses)


def test_equisatisfiability_seeded():
    rng = random.Random(101)
    seen = {True: 0, False: 0}
    for _ in range(14):
        nvar = rng.randint(2, 3)
        clauses = oracles.random_clauses(rng, nvar, rng.randint(1, 4))
        phi = CnfFormula(nvar, tuple(clauses))
        reg = regularize(phi, rng.randint(1, 2))
        scan_invariants(reg)
        source_sat = oracles.sat_assignment(nvar, clauses) is not None
        seen[source_sat] += 1
        if source_sat:
            pushforward_checks(phi, reg)
        else:
            assert not oracles.milp_sat(reg.formula.var_count,
                                        reg.formula.clauses)
    assert seen[True] > 0 and seen[False] > 0


def test_part_index_is_one_based():
    reg = regularize(CnfFormula(3, ((1, 2, 3),)), 3)
    idx = reg.part_index()
    assert set(idx.values()) == {1, 2, 3}
    for r, block in enumerate(reg.parts, start=1):
        assert all(idx[v] == r for v in block)


def test_epsilon_is_accepted_as_fraction():
    phi = CnfFormula(3, ((1, 2, 3),))
    a = regularize(phi, 2, Fraction(1, 2))
    b = regularize(phi, 2, 1)
    # epsilon only gates the p <= n / epsilon precondition, not the rewrite
    assert a.formula == b.formula


def test_validation_errors():
    phi = CnfFormula(2, ((1, 2),))
    with pytest.raises(ValueError, match="p must be"):
        regularize(phi, 0)
    with pytest.raises(ValueError, match="positive"):
        regularize(phi, 1, 0)
    with pytest.raises(ValueError, match="epsilon"):
        regularize(phi, 3)  # epsilon * p = 3 > 2 variables
    with pytest.raises(ValueError, match="epsilon"):
        regularize(CnfFormula(0, ()), 1)


def test_determinism():
    phi = CnfFormula(3, ((1, -2, 3), (2, 3)))
    assert regularize(phi, 1) == regularize(phi, 1)
