"""Rewrite a 3-SAT formula into the balanced form the graph reduction needs.

Five equisatisfiable rewriting passes turn an arbitrary CNF with clauses of
size at most three into a formula where

  * every clause has exactly three distinct variables,
  * every variable occurs exactly three times positively and three times
    negatively (so the clause count is exactly twice the variable count),
  * the variable count is divisible by a requested part count p and the
    variables are grouped into p equal parts,
  * each part contains, for every variable in it, a mirror variable whose
    polarity is flipped everywhere -- hence every part admits an assignment
    setting exactly half of it true under any satisfying assignment.

Each output variable carries a recipe that rebuilds its value from a
satisfying assignment of the input formula, so satisfying assignments can be
pushed forward through the rewrite.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable

from .cnf import CnfFormula

# recipe forms: ("const", bool) or ("var", input_var, keep_polarity)
Recipe = tuple


@dataclass(frozen=True)
class RegularizedFormula:
    formula: CnfFormula
    parts: tuple[tuple[int, ...], ...]
    recipes: tuple[Recipe, ...]          # index v-1 -> recipe for variable v
    flag: str                            # "none" | "forced_sat" | "forced_unsat"
    p: int
    source_var_count: int

    def part_index(self) -> dict[int, int]:
        """Variable -> 1-based part number."""
        out: dict[int, int] = {}
        for r, block in enumerate(self.parts, start=1):
            for v in block:
                out[v] = r
        return out


def _negate_recipe(rec: Recipe) -> Recipe:
    if rec[0] == "const":
        return ("const", not rec[1])
    return ("var", rec[1], not rec[2])


def apply_recipes(recipes: tuple[Recipe, ...],
                  assignment: dict[int, bool]) -> dict[int, bool]:
    """Rebuild variables 1..len(recipes) from a source assignment."""
    out: dict[int, bool] = {}
    for v, rec in enumerate(recipes, start=1):
        if rec[0] == "const":
            out[v] = rec[1]
        else:
            _, src, keep = rec
            try:
                val = assignment[src]
            except KeyError:
                raise ValueError(f"assignment misses source variable {src}") from None
            out[v] = val if keep else not val
    return out


def extend_assignment(reg: RegularizedFormula,
                      assignment: dict[int, bool]) -> dict[int, bool]:
    """Push a satisfying assignment of the source formula to the output.

    When the rewrite collapsed to a canonical seed (flag != "none") the
    result ignores `assignment` entirely.
    """
    return apply_recipes(reg.recipes, assignment)


# ---------------------------------------------------------------------------
# pass 1: clean up, unit-propagate, pad short clauses

def clean_clauses(clauses: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The clauses with repeated literals dropped and tautologies removed.

    Raises at the first clause wider than three literals.
    """
    out = []
    for clause in clauses:
        if len(clause) > 3:
            raise ValueError("clauses wider than 3 are not supported")
        seen: list[int] = []
        for lit in clause:
            if -lit in seen:
                break                    # a tautology: the clause is dropped
            if lit not in seen:
                seen.append(lit)
        else:
            out.append(tuple(seen))
    return out


def _unit_propagate(clauses: list[tuple[int, ...]]) -> tuple[list[tuple[int, ...]], bool]:
    """Eliminate unit clauses; second value reports a contradiction."""
    forced: dict[int, bool] = {}
    while True:
        unit = next((c for c in clauses if len(c) == 1), None)
        if unit is None:
            return clauses, False
        lit = unit[0]
        v, val = abs(lit), lit > 0
        if forced.get(v, val) != val:
            return [], True
        forced[v] = val
        nxt: list[tuple[int, ...]] = []
        for c in clauses:
            if lit in c:
                continue
            if -lit in c:
                c = tuple(l for l in c if l != -lit)
                if not c:
                    return [], True
            nxt.append(c)
        clauses = nxt


def _pass_clean(f: CnfFormula) -> tuple[list[list[int]], int, dict[int, Recipe], str]:
    clauses, contradiction = _unit_propagate(clean_clauses(f.clauses))
    n = f.var_count
    recipes: dict[int, Recipe] = {}

    if contradiction:
        # canonical unsatisfiable seed on three fresh variables
        a, b, c = n + 1, n + 2, n + 3
        seed = [[s1 * a, s2 * b, s3 * c]
                for s1, s2, s3 in product((1, -1), repeat=3)]
        for v in (a, b, c):
            recipes[v] = ("const", True)
        return seed, n + 3, recipes, "forced_unsat"

    if not clauses:
        # everything satisfied or simplified away: canonical satisfiable seed
        a, b, c = n + 1, n + 2, n + 3
        seed = [[a, b, c], [-a, -b, -c]]
        recipes[a] = ("const", True)
        recipes[b] = ("const", True)
        recipes[c] = ("const", False)
        return seed, n + 3, recipes, "forced_sat"

    out: list[list[int]] = []
    pad = 0
    for c in clauses:
        if len(c) == 3:
            out.append(list(c))
        else:                            # len == 2; units were all consumed
            if pad == 0:
                pad = n + 1
                n += 1
                recipes[pad] = ("const", True)
            out.append(list(c) + [pad])
            out.append(list(c) + [-pad])
    for v in {abs(lit) for c in out for lit in c}:
        recipes.setdefault(v, ("var", v, True))
    return out, n, recipes, "none"


# ---------------------------------------------------------------------------
# pass 2: duplicate clauses, then even out each variable's polarity counts

def _pass_balance_parity(clauses: list[list[int]], n: int,
                         recipes: dict[int, Recipe]) -> tuple[list[list[int]], int]:
    clauses = [c for c in clauses for _ in range(2)]
    pos: dict[int, int] = {}
    neg: dict[int, int] = {}
    for c in clauses:
        for lit in c:
            (pos if lit > 0 else neg)[abs(lit)] = (pos if lit > 0 else neg).get(abs(lit), 0) + 1
    skewed = sorted(v for v in set(pos) | set(neg) if pos.get(v, 0) != neg.get(v, 0))
    if not skewed:
        return clauses, n
    q, r = n + 1, n + 2
    n += 2
    recipes[q] = ("const", True)
    recipes[r] = ("const", False)
    for v in skewed:
        diff = pos.get(v, 0) - neg.get(v, 0)
        # duplication makes every count even, so the gap is even too
        lit = v if diff < 0 else -v
        for _ in range(abs(diff) // 2):
            clauses.append([lit, q, r])
            clauses.append([lit, -q, -r])
    return clauses, n


# ---------------------------------------------------------------------------
# pass 3: triple the clause list, then split each variable into a cycle of
# fresh variables so that every variable occurs exactly 3 times per polarity

def _pass_three_per_polarity(clauses: list[list[int]], n: int,
                             recipes: dict[int, Recipe]
                             ) -> tuple[list[list[int]], int, dict[int, Recipe]]:
    clauses = [list(c) for c in clauses for _ in range(3)]
    slots_pos: dict[int, list[tuple[int, int]]] = {}
    slots_neg: dict[int, list[tuple[int, int]]] = {}
    for ci, c in enumerate(clauses):
        for li, lit in enumerate(c):
            (slots_pos if lit > 0 else slots_neg).setdefault(abs(lit), []).append((ci, li))

    new_recipes: dict[int, Recipe] = {}
    extra: list[list[int]] = []
    nxt = 0

    def fresh() -> int:
        nonlocal nxt
        nxt += 1
        return nxt

    for v in sorted(set(slots_pos) | set(slots_neg)):
        ps, ns = slots_pos.get(v, []), slots_neg.get(v, [])
        if len(ps) != len(ns) or len(ps) % 3:
            raise AssertionError("polarity counts not a balanced multiple of 3")
        d = len(ps) // 3
        xs = [fresh() for _ in range(3 * d)]
        ys = [fresh() for _ in range(d)]
        for x in xs:
            new_recipes[x] = recipes[v]
        for y in ys:
            new_recipes[y] = ("const", True)
        for i, (ci, li) in enumerate(ps):
            clauses[ci][li] = xs[i]
        for i, (ci, li) in enumerate(ns):
            clauses[ci][li] = -xs[i]
        # implication cycle x_1 -> x_2 -> ... -> x_{3d} -> x_1 keeps all the
        # copies equal; the y variable makes each implication two clauses
        for i in range(3 * d):
            y = ys[i // 3]
            extra.append([-xs[i], xs[(i + 1) % (3 * d)], y])
            extra.append([-xs[i], xs[(i + 1) % (3 * d)], -y])
    return clauses + extra, nxt, new_recipes


# ---------------------------------------------------------------------------
# pass 4: three fresh copies of the formula, then filler variable triples
# until the variable count is divisible by p

def _pass_divisible(clauses: list[list[int]], n: int,
                    recipes: dict[int, Recipe], p: int
                    ) -> tuple[list[list[int]], int, dict[int, Recipe]]:
    out: list[list[int]] = []
    new_recipes: dict[int, Recipe] = {}
    for copy in range(3):
        shift = copy * n
        for c in clauses:
            out.append([lit + shift if lit > 0 else lit - shift for lit in c])
        for v, rec in recipes.items():
            new_recipes[v + shift] = rec
    total = 3 * n
    while total % p:
        a, b, c = total + 1, total + 2, total + 3
        total += 3
        for v in (a, b, c):
            new_recipes[v] = ("const", True)
        for s1, s2, s3 in product((1, -1), repeat=3):
            if s1 == s2 == s3:
                continue
            out.append([s1 * a, s2 * b, s3 * c])
    return out, total, new_recipes


# ---------------------------------------------------------------------------
# pass 5: append a polarity-flipped disjoint copy and carve out the parts

def _pass_mirror(clauses: list[list[int]], n: int,
                 recipes: dict[int, Recipe], p: int
                 ) -> tuple[list[list[int]], int, dict[int, Recipe],
                            tuple[tuple[int, ...], ...]]:
    mirrored = [[-lit - n if lit > 0 else -lit + n for lit in c] for c in clauses]
    for v in range(1, n + 1):
        recipes[v + n] = _negate_recipe(recipes[v])
    block = n // p
    parts = []
    for r in range(p):
        lo = r * block + 1
        originals = range(lo, lo + block)
        parts.append(tuple(originals) + tuple(v + n for v in originals))
    return clauses + mirrored, 2 * n, recipes, tuple(parts)


# ---------------------------------------------------------------------------

def regularize(f: CnfFormula, p: int, epsilon: Fraction | int = 1) -> RegularizedFormula:
    """Run all five passes; requires p >= 1 and epsilon * p <= var count."""
    if p < 1:
        raise ValueError("p must be at least 1")
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    if eps * p > f.var_count:
        raise ValueError(f"need epsilon * p <= n, got {eps} * {p} > {f.var_count}")

    clauses, n, recipes, flag = _pass_clean(f)
    clauses, n = _pass_balance_parity(clauses, n, recipes)
    clauses, n, recipes = _pass_three_per_polarity(clauses, n, recipes)
    clauses, n, recipes = _pass_divisible(clauses, n, recipes, p)
    clauses, n, recipes, parts = _pass_mirror(clauses, n, recipes, p)

    formula = CnfFormula(n, tuple(tuple(c) for c in clauses))
    if len(formula.clauses) != 2 * n:
        raise AssertionError("clause count is not twice the variable count")
    rec_tuple = tuple(recipes[v] for v in range(1, n + 1))
    return RegularizedFormula(formula, parts, rec_tuple, flag, p, f.var_count)
