"""Exact linear programming: two-phase primal simplex on an integer tableau.

minimize c.x  subject to  A x (<= | >= | ==) b,  x >= 0.

The tableau is fraction-free (Edmonds 1967; Bareiss 1968).  Every row is
scaled to integers at entry and the whole tableau shares one positive
integer denominator D, so the rational tableau is always rows / D.  A pivot
on the entry p in column c of row r replaces every other row by
(p * row - row[c] * row_r) / D and then sets D = p.  By Cramer's rule the
division is exact, and a remainder raises VerificationError.  The phase-1 and
phase-2 reduced-cost rows are two more rows of the same elimination, so no
iteration rebuilds them.

Bland's anti-cycling rule (lowest eligible index enters, lowest-index basic
among minimum-ratio ties leaves) guarantees termination.  Every result is
checked against the original program in exact rationals before it leaves
this module.  An optimum must satisfy every constraint, and its dual vector
y must have the sign each sense asks for and satisfy A^T y <= c and
b.y == c.x.  An infeasible verdict must come with a Farkas ray.  The checks
raise VerificationError rather than assert, so they also hold under
`python -O`.

This tableau is the package's only exact linear solver: membership, alpha
and the Caratheodory reduction in geometry.py are all LPs built from plain
integers, and LinearProgram.make is where their entries become rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from .errors import VerificationError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LE, GE, EQ = "<=", ">=", "=="


@dataclass(frozen=True)
class LinearProgram:
    matrix: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]
    senses: tuple[str, ...]
    objective: tuple[Fraction, ...]

    @staticmethod
    def make(matrix, rhs, senses, objective) -> "LinearProgram":
        mat = tuple(tuple(Fraction(x) for x in row) for row in matrix)
        b = tuple(Fraction(x) for x in rhs)
        c = tuple(Fraction(x) for x in objective)
        senses = tuple(senses)
        if len(mat) != len(b) or len(mat) != len(senses):
            raise ValueError("inconsistent row counts")
        if any(len(row) != len(c) for row in mat):
            raise ValueError("inconsistent column counts")
        if any(s not in (LE, GE, EQ) for s in senses):
            raise ValueError("bad sense")
        return LinearProgram(mat, b, senses, c)


@dataclass(frozen=True)
class LPResult:
    """`dual` is the certificate, one entry per constraint, with y_i <= 0
    on LE rows and y_i >= 0 on GE rows.  For OPTIMAL it is a dual optimum
    (A^T y <= c, b.y == value); for INFEASIBLE a Farkas ray (A^T y <= 0,
    b.y > 0).  UNBOUNDED carries none."""

    status: str
    value: Fraction | None
    solution: tuple[Fraction, ...] | None
    dual: tuple[Fraction, ...] | None = None


class _Tableau:
    """Columns: structural, one slack per LE/GE row, one artificial per
    GE/EQ row (both in row order), then the right-hand side.  A row whose
    right-hand side is negative is negated first, so every starting basic
    value is non-negative."""

    def __init__(self, lp: LinearProgram):
        nstruct = len(lp.objective)
        self.flipped = [b < 0 for b in lp.rhs]
        senses = [{LE: GE, GE: LE, EQ: EQ}[s] if f else s
                  for s, f in zip(lp.senses, self.flipped)]
        n_slack = sum(1 for s in senses if s != EQ)
        n_art = sum(1 for s in senses if s != LE)
        self.nstruct = nstruct
        self.n_free = nstruct + n_slack  # columns phase 2 may enter
        self.ncols = self.n_free + n_art
        self.senses = senses
        self.slack_col: list[int | None] = []
        self.art_col: list[int | None] = []
        self.basis: list[int] = []
        # D = the product of the rows' own denominators is the determinant
        # of the starting basis once each row is scaled to integers; it
        # makes every later Bareiss division exact
        self.denom = prod(lcm(b.denominator, *(x.denominator for x in arow))
                          for arow, b in zip(lp.matrix, lp.rhs))
        d = self.denom
        self.rows = []
        next_slack, next_art = nstruct, self.n_free
        for arow, bval, sense, flip in zip(lp.matrix, lp.rhs, senses, self.flipped):
            row = self._integers(list(arow) + [bval], -d if flip else d)
            row[nstruct:nstruct] = [0] * (self.ncols - nstruct)
            slack = art = None
            if sense != EQ:
                slack, next_slack = next_slack, next_slack + 1
                row[slack] = d if sense == LE else -d
            if sense != LE:
                art, next_art = next_art, next_art + 1
                row[art] = d
            self.slack_col.append(slack)
            self.art_col.append(art)
            self.basis.append(art if art is not None else slack)
            self.rows.append(row)

        # reduced-cost rows hold D * scale * (cost - c_B * tableau); the
        # last entry is then -D * scale * (objective value)
        self.cost_scale = lcm(*(c.denominator for c in lp.objective))
        cost = [0] * (self.ncols + 1)
        cost[:nstruct] = self._integers(lp.objective, self.denom * self.cost_scale)
        self.phase2 = cost
        self.phase1 = None
        if n_art:
            phase1 = [0] * self.n_free + [self.denom] * n_art + [0]
            for row, b in zip(self.rows, self.basis):
                if b >= self.n_free:
                    phase1 = [x - y for x, y in zip(phase1, row)]
            self.phase1 = phase1

    @staticmethod
    def _integers(values, scale: int) -> list[int]:
        """scale * values, for a scale that every denominator divides."""
        return [x.numerator * (scale // x.denominator) for x in values]

    def _cost_rows(self):
        return [row for row in (self.phase1, self.phase2) if row is not None]

    def _pivot(self, r: int, c: int):
        """Bareiss step: the pivot row stays as it is, every other row
        becomes (p * row - row[c] * pivot_row) / D, and D becomes p."""
        prow = self.rows[r]
        p, d = prow[c], self.denom
        psum = sum(prow)
        for row in self.rows + self._cost_rows():
            if row is prow:
                continue
            f = row[c]
            if f:
                total = p * sum(row) - f * psum
                row[:] = [(p * a - f * b) // d for a, b in zip(row, prow)]
            elif p != d:
                total = p * sum(row)
                row[:] = [p * a // d for a in row]
            else:
                continue
            # each floor-division remainder is in [0, d), so the quotients
            # account for the whole sum only if every division was exact
            if sum(row) * d != total:
                raise VerificationError(f"inexact Bareiss division by {d}")
        self.denom = p
        if p < 0:
            for row in self.rows + self._cost_rows():
                row[:] = [-a for a in row]
            self.denom = -p
        self.basis[r] = c

    def _iterate(self, cost: list[int], allowed: int) -> str:
        """Pivot until no column below `allowed` has a negative reduced
        cost.  Ratios are compared by cross-multiplication."""
        rhs = self.ncols
        while True:
            enter = next((j for j in range(allowed) if cost[j] < 0), None)
            if enter is None:
                return OPTIMAL
            leave = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    if leave is None:
                        leave, num, den = i, row[rhs], a
                        continue
                    lhs, best = row[rhs] * den, num * a
                    if lhs < best or (lhs == best and self.basis[i] < self.basis[leave]):
                        leave, num, den = i, row[rhs], a
            if leave is None:
                return UNBOUNDED
            self._pivot(leave, enter)

    def _multipliers(self, cost: list[int], scale: int, art_cost: int):
        """Simplex multipliers pi (one per row of the sign-normalised
        system) read off a reduced-cost row, then y with the row flips
        undone.  The reduced cost of a slack with coefficient +-1 is
        -+pi_i; that of an artificial is art_cost - pi_i."""
        denom = self.denom * scale
        y = []
        for slack, art, sense, flip in zip(self.slack_col, self.art_col,
                                           self.senses, self.flipped):
            if slack is not None:
                red = Fraction(cost[slack], denom)
                pi = -red if sense == LE else red
            else:
                pi = art_cost - Fraction(cost[art], denom)
            y.append(-pi if flip else pi)
        return tuple(y)

    def solve(self) -> LPResult:
        if self.phase1 is not None:
            if self._iterate(self.phase1, self.ncols) != OPTIMAL:
                raise VerificationError("phase 1 reported unbounded, but it "
                                        "is bounded below by 0")
            if self.phase1[-1] != 0:
                ray = self._multipliers(self.phase1, scale=1, art_cost=1)
                return LPResult(INFEASIBLE, None, None, ray)
            self.phase1 = None
            self._purge_artificials()
        if self._iterate(self.phase2, self.n_free) == UNBOUNDED:
            return LPResult(UNBOUNDED, None, None)
        x = [Fraction(0)] * self.nstruct
        for row, b in zip(self.rows, self.basis):
            if b < self.nstruct:
                x[b] = Fraction(row[-1], self.denom)
        value = Fraction(-self.phase2[-1], self.denom * self.cost_scale)
        y = self._multipliers(self.phase2, scale=self.cost_scale, art_cost=0)
        return LPResult(OPTIMAL, value, tuple(x), y)

    def _purge_artificials(self):
        """Pivot every artificial out of the basis (or drop its redundant
        row) so phase 2 can ignore artificial columns entirely."""
        for r in range(len(self.rows) - 1, -1, -1):
            if self.basis[r] < self.n_free:
                continue
            row = self.rows[r]
            col = next((j for j in range(self.n_free) if row[j] != 0), None)
            if col is None:
                del self.rows[r]
                del self.basis[r]
            else:
                self._pivot(r, col)


def _dual_signs_ok(lp: LinearProgram, y) -> bool:
    """y_i <= 0 on LE rows, y_i >= 0 on GE rows, free on EQ rows."""
    return len(y) == len(lp.rhs) and all(
        (v <= 0 if s == LE else v >= 0 if s == GE else True)
        for v, s in zip(y, lp.senses))


def _dot(u, v) -> Fraction:
    """Exact u.v, summed over one running denominator and reduced once."""
    num, den = 0, 1
    for a, b in zip(u, v):
        if a and b:
            n, d = a.numerator * b.numerator, a.denominator * b.denominator
            if d == den:
                num += n
            else:
                num, den = num * d + n * den, den * d
    return Fraction(num, den)


def _verify(lp: LinearProgram, result: LPResult):
    """Re-check an OPTIMAL or INFEASIBLE result against the original
    program; raise VerificationError on the first failure."""
    y = result.dual
    if y is None or not _dual_signs_ok(lp, y):
        raise VerificationError(f"{result.status} result without a valid "
                                f"dual certificate: {y}")
    aty = [_dot((row[j] for row in lp.matrix), y) for j in range(len(lp.objective))]
    by = _dot(lp.rhs, y)
    if result.status == INFEASIBLE:
        if any(v > 0 for v in aty) or by <= 0:
            raise VerificationError(f"not a Farkas ray: A^T y = {aty}, b.y = {by}")
        return
    x = result.solution
    if x is None or len(x) != len(lp.objective) or any(v < 0 for v in x):
        raise VerificationError(f"solution is not a non-negative point: {x}")
    for row, bval, sense in zip(lp.matrix, lp.rhs, lp.senses):
        lhs = _dot(row, x)
        ok = lhs <= bval if sense == LE else lhs >= bval if sense == GE else lhs == bval
        if not ok:
            raise VerificationError(f"solution violates {row} {sense} {bval}: got {lhs}")
    val = _dot(lp.objective, x)
    if val != result.value:
        raise VerificationError(f"objective mismatch: c.x = {val}, reported {result.value}")
    if any(a > c for a, c in zip(aty, lp.objective)):
        raise VerificationError(f"dual infeasible: A^T y = {aty} exceeds c = {lp.objective}")
    if by != val:
        raise VerificationError(f"duality gap: b.y = {by}, c.x = {val}")


def solve(lp: LinearProgram) -> LPResult:
    """Solve; an optimum or an infeasible verdict is re-checked against
    its certificate before being returned."""
    result = _Tableau(lp).solve()
    if result.status != UNBOUNDED:
        _verify(lp, result)
    return result


def feasible_point(matrix, rhs, senses) -> tuple[Fraction, ...] | None:
    """A basic feasible point of the system, or None (phase 1 only)."""
    lp = LinearProgram.make(matrix, rhs, senses, [0] * len(matrix[0]))
    result = solve(lp)
    return result.solution if result.status == OPTIMAL else None
