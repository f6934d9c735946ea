"""CNF formulas, DIMACS round trip, tiny brute-force SAT."""
from __future__ import annotations

from dataclasses import dataclass

BRUTE_SAT_LIMIT = 20


@dataclass(frozen=True)
class CnfFormula:
    """Clauses of signed 1-based literals, DIMACS style."""

    var_count: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.var_count < 0:
            raise ValueError("negative var_count")
        for cl in self.clauses:
            if not cl:
                raise ValueError("empty clause")
            for lit in cl:
                if lit == 0 or not (1 <= abs(lit) <= self.var_count):
                    raise ValueError(f"literal {lit} out of range")


def satisfies(f: CnfFormula, assignment: dict[int, bool]) -> bool:
    return falsified_clause(f, assignment) is None


def falsified_clause(f: CnfFormula, assignment: dict[int, bool]) -> int | None:
    """Index of the first clause the assignment falsifies, else None."""
    for i, cl in enumerate(f.clauses):
        for lit in cl:
            try:
                val = assignment[abs(lit)]
            except KeyError:
                raise ValueError(f"assignment misses variable {abs(lit)}") from None
            if val == (lit > 0):
                break
        else:
            return i
    return None


def first_true_position(clause: tuple[int, ...],
                        assignment: dict[int, bool]) -> int:
    """1-based position of the first literal of *clause* that *assignment*
    makes true; the clause must be satisfied."""
    return next(eta for eta, lit in enumerate(clause, start=1)
                if assignment[abs(lit)] == (lit > 0))


def brute_force_sat(f: CnfFormula) -> dict[int, bool] | None:
    """First satisfying assignment in ascending bit order, or None.

    Guarded exhaustive search; var 1 is the least significant bit.
    """
    if f.var_count > BRUTE_SAT_LIMIT:
        raise ValueError(f"brute force limited to {BRUTE_SAT_LIMIT} variables")
    for m in range(1 << f.var_count):
        assignment = {v: bool(m >> (v - 1) & 1) for v in range(1, f.var_count + 1)}
        if satisfies(f, assignment):
            return assignment
    return None


# ---------------------------------------------------------------------------
# DIMACS

def format_dimacs(f: CnfFormula) -> str:
    lines = [f"p cnf {f.var_count} {len(f.clauses)}"]
    for cl in f.clauses:
        lines.append(" ".join(str(l) for l in cl) + " 0")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> CnfFormula:
    n = m = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            fields = line.split()
            if n is not None or len(fields) != 4 or fields[1] != "cnf":
                raise ValueError(f"line {lineno}: malformed header {line!r}")
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise ValueError(f"line {lineno}: malformed header {line!r}") from None
            continue
        if n is None:
            raise ValueError(f"line {lineno}: clause before header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ValueError(f"line {lineno}: bad token {tok!r}") from None
            if lit == 0:
                if not current:
                    raise ValueError(f"line {lineno}: empty clause")
                clauses.append(tuple(current))
                current = []
            else:
                if abs(lit) > n:
                    raise ValueError(f"line {lineno}: literal {lit} out of range")
                current.append(lit)
    if n is None:
        raise ValueError("missing header")
    if current:
        raise ValueError("unterminated clause at end of input")
    if m is not None and m != len(clauses):
        raise ValueError(f"header claims {m} clauses, found {len(clauses)}")
    return CnfFormula(n, tuple(clauses))


def read_dimacs(path) -> CnfFormula:
    with open(path) as fh:
        return parse_dimacs(fh.read())


def parse_assignment(text: str) -> dict[int, bool]:
    """Whitespace-separated signed ints: '1 -2 3' sets x1=T, x2=F, x3=T."""
    out: dict[int, bool] = {}
    for tok in text.split():
        lit = int(tok)
        if lit == 0:
            continue
        v = abs(lit)
        val = lit > 0
        if v in out and out[v] != val:
            raise ValueError(f"variable {v} assigned both ways")
        out[v] = val
    return out
