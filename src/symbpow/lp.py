"""Exact linear programming: two-phase primal simplex on an integer tableau.

minimize c.x  subject to  A x (<= | >= | ==) b,  x >= 0.

Every row is kept as integers at a positive scale of its own: a constraint
row is its rational tableau row times its entry in its basic column, so a
basic value is row[rhs] / row[basis].  A pivot on the entry p in column c of
row r keeps row r and every row with a zero in column c as they are; any
other row becomes p * row - row[c] * row_r over the gcd of its entries.  The
purge of artificials may pivot on a negative entry, and negates row r first.
The two reduced-cost rows take the same step and end with their own scale,
an entry that is 0 in every constraint row.  After each pivot, column c must
be 0 outside row r and every basic entry positive, or VerificationError is
raised.

A positive scale changes no sign and no ratio, so the pivot path, and with
it the optimum, the point and the dual vector, is the one Bland's rule
(lowest eligible index enters, lowest-index basic among minimum-ratio ties
leaves) reaches on the rational tableau.  Every result is checked against
the original program in exact rationals before it leaves this module.  An
optimum must satisfy every constraint, and its dual vector y must have the
sign each sense asks for and satisfy A^T y <= c and b.y == c.x.  An
infeasible verdict must come with a Farkas ray.  The checks raise
VerificationError rather than assert, so they also hold under `python -O`.

This tableau is the package's only exact linear solver: alpha and the
Caratheodory decomposition in geometry.py are LPs built from plain
integers, and LinearProgram.make is where their entries become rationals.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from .errors import VerificationError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LE, GE, EQ = "<=", ">=", "=="


class LinearProgram(namedtuple("LinearProgram", "matrix rhs senses objective")):
    """Rows of Fractions, right-hand sides, senses (LE, GE or EQ) and the
    objective, as tuples; `make` checks their shapes."""

    __slots__ = ()

    @staticmethod
    def make(matrix, rhs, senses, objective) -> LinearProgram:
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


class LPResult(namedtuple("LPResult", "status value solution dual", defaults=(None,))):
    """`value` (a Fraction), `solution` and `dual` (Fraction tuples) are
    None where the status gives none.  `dual` is the certificate, one
    entry per constraint, with y_i <= 0 on LE rows and y_i >= 0 on GE
    rows.  For OPTIMAL it is a dual optimum (A^T y <= c, b.y == value);
    for INFEASIBLE a Farkas ray (A^T y <= 0, b.y > 0).  UNBOUNDED carries
    none."""

    __slots__ = ()


class _Tableau:
    """Columns: structural, one slack per LE/GE row, one artificial per
    GE/EQ row (both in row order), the right-hand side, then the cost rows'
    scale entry.  A row whose right-hand side is negative is negated first,
    so every starting basic value is non-negative.  Phase 2 keeps only the
    artificials of EQ rows."""

    def __init__(self, lp: LinearProgram):
        nstruct = len(lp.objective)
        self.flipped = [b < 0 for b in lp.rhs]
        senses = [{LE: GE, GE: LE, EQ: EQ}[s] if f else s
                  for s, f in zip(lp.senses, self.flipped)]
        n_slack = sum(1 for s in senses if s != EQ)
        n_art = sum(1 for s in senses if s != LE)
        self.nstruct = nstruct
        self.n_free = nstruct + n_slack  # columns phase 2 may enter
        self.ncols = self.n_free + n_art  # also the index of the rhs entry
        self.senses = senses
        self.slack_col: list[int | None] = []
        self.art_col: list[int | None] = []
        self.basis: list[int] = []
        self.rows = []
        next_slack, next_art = nstruct, self.n_free
        for arow, bval, sense, flip in zip(lp.matrix, lp.rhs, senses, self.flipped):
            d = lcm(bval.denominator, *(x.denominator for x in arow))
            row = self._integers(list(arow) + [bval], -d if flip else d) + [0]
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

        # a reduced-cost row holds scale * (cost - c_B * tableau), then
        # -scale * (objective value), then the positive integer scale
        scale = lcm(*(c.denominator for c in lp.objective))
        self.phase2 = (self._integers(lp.objective, scale)
                       + [0] * (self.ncols - nstruct) + [0, scale])
        self.phase1 = None
        if n_art:
            art_rows = [(row, row[b]) for row, b in zip(self.rows, self.basis)
                        if b >= self.n_free]
            scale = lcm(*(s for _, s in art_rows))
            phase1 = [0] * self.n_free + [scale] * n_art + [0, scale]
            for row, s in art_rows:
                k = scale // s
                phase1 = [x - k * y for x, y in zip(phase1, row)]
            self.phase1 = phase1

    @staticmethod
    def _integers(values, scale: int) -> list[int]:
        """scale * values, for a scale that every denominator divides."""
        return [x.numerator * (scale // x.denominator) for x in values]

    def _cost_rows(self):
        return [row for row in (self.phase1, self.phase2) if row is not None]

    def _pivot(self, r: int, c: int):
        """Scaled-row step, as q * row - f * pivot_row with q and f the pivot
        and row[c] over their gcd; the subtraction touches only the few
        columns where the pivot row is non-zero."""
        prow = self.rows[r]
        p = prow[c]
        if p < 0:  # only the purge of artificials pivots on a negative entry
            prow[:] = [-a for a in prow]
            p = -p
        support = [(j, b) for j, b in enumerate(prow) if b]
        for row in self.rows + self._cost_rows():
            f = row[c]
            if f and row is not prow:
                g = gcd(p, f)
                q, f = p // g, f // g
                if q != 1:
                    row[:] = [q * a for a in row]
                for j, b in support:
                    row[j] -= f * b
                g = gcd(*row)
                if g > 1:
                    row[:] = [a // g for a in row]
        self.basis[r] = c
        # the O(rows) guard of the step: column c is a unit column again,
        # and every row keeps a positive scale
        for i, row in enumerate(self.rows):
            if row[self.basis[i]] <= 0 or (i != r and row[c]):
                raise VerificationError(f"pivot on ({r}, {c}) broke row {i}")
        if any(row[c] or row[-1] <= 0 for row in self._cost_rows()):
            raise VerificationError(f"pivot on ({r}, {c}) broke a cost row")

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

    def _multipliers(self, cost: list[int], art_cost: int):
        """Simplex multipliers pi (one per row of the sign-normalised
        system) read off a reduced-cost row through its scale, then y with
        the row flips undone.  The reduced cost of a slack with coefficient
        +-1 is -+pi_i; that of an artificial is art_cost - pi_i."""
        scale = cost[-1]
        y = []
        for slack, art, sense, flip in zip(self.slack_col, self.art_col,
                                           self.senses, self.flipped):
            if slack is not None:
                red = Fraction(cost[slack], scale)
                pi = -red if sense == LE else red
            else:
                pi = art_cost - Fraction(cost[art], scale)
            y.append(-pi if flip else pi)
        return tuple(y)

    def solve(self) -> LPResult:
        if self.phase1 is not None:
            if self._iterate(self.phase1, self.ncols) != OPTIMAL:
                raise VerificationError("phase 1 reported unbounded, but it "
                                        "is bounded below by 0")
            if self.phase1[self.ncols] != 0:
                ray = self._multipliers(self.phase1, art_cost=1)
                return LPResult(INFEASIBLE, None, None, ray)
            self.phase1 = None
            self._purge_artificials()
            self._drop_dead_artificials()
        if self._iterate(self.phase2, self.n_free) == UNBOUNDED:
            return LPResult(UNBOUNDED, None, None)
        rhs = self.ncols
        x = [Fraction(0)] * self.nstruct
        for row, b in zip(self.rows, self.basis):
            if b < self.nstruct:
                x[b] = Fraction(row[rhs], row[b])
        value = Fraction(-self.phase2[rhs], self.phase2[-1])
        y = self._multipliers(self.phase2, art_cost=0)
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

    def _drop_dead_artificials(self):
        """Delete the artificial columns of GE rows, which phase 2 never
        reads: such a row's multiplier comes from its slack.  Only an EQ
        row's artificial stays, for its multiplier.  The kept columns keep
        their order, so Bland's rule takes the same path."""
        dead = {art for art, sense in zip(self.art_col, self.senses) if sense == GE}
        if not dead:
            return
        keep = [j for j in range(len(self.phase2)) if j not in dead]
        for row in self.rows + [self.phase2]:
            row[:] = [row[j] for j in keep]
        moved = {j: i for i, j in enumerate(keep)}
        self.art_col = [None if art is None or art in dead else moved[art]
                        for art in self.art_col]
        self.ncols -= len(dead)


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
