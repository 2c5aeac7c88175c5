"""Exact linear programming: the simplex method on an integer tableau.

minimize c.x  subject to  A x (<= | >= | ==) b,  x >= 0,  for b >= 0, c >= 0.
`solve` runs the two-phase primal simplex on any such program.  Each phase
minimizes a cost that is non-negative on x >= 0, so neither is unbounded:
an entering column with no leaving row raises VerificationError, and the
verdict is OPTIMAL or INFEASIBLE.  `solve_ge` runs the dual simplex (Lemke
1954) in one phase on a program whose rows are all GE.  It stores each row
negated, -A x + s = -b, so the surplus basis is its start and no
artificial column is needed: c >= 0 makes that basis dual feasible, and
every dual pivot keeps it so.

Every row is kept as integers at a positive scale of its own: a constraint
row is its rational tableau row times its entry in its basic column, so a
basic value is row[rhs] / row[basis].  Rows are sparse, a dict from column
to non-zero entry: a facet row of the alpha LP is zero off its prime's
variables, and the V-block rows that break its ties are mostly zeros.  A
pivot on the entry p in column c of row r keeps row r and every row with a
zero in column c as they are; any other row becomes p * row - row[c] *
row_r over the gcd of its entries, which touches only row r's non-zero
columns.  The purge of artificials and every dual pivot are on a negative
entry, and negate row r first.
The reduced-cost rows take the same step and end with their own scale,
an entry that is 0 in every constraint row.  After each pivot, column c must
be 0 outside row r and every basic entry positive, or VerificationError is
raised.

A positive scale changes no sign and no ratio, so the pivot path, and with
it the optimum, the point and the dual vector, is the one Bland's rule
reaches on the rational tableau.  In the primal the lowest eligible index
enters and the lowest-index basic among minimum-ratio ties leaves; in the
dual the lowest-index basic among negative rows leaves and the least
cost / |entry| enters, ties to the lowest column.  Every result is checked
against the original program in exact rationals before it leaves this
module.  An optimum must satisfy every constraint, and its dual vector y
must have the sign each sense asks for and satisfy A^T y <= c and b.y ==
c.x.  An infeasible verdict must come with a Farkas ray.  The checks raise
VerificationError rather than assert, so they also hold under `python -O`.

This tableau is the package's only exact linear solver, and `solve` and
`solve_ge` its only entry points.  LinearProgram.make refuses a negative
right-hand side or cost, keeps an int entry as an int and makes a Fraction
of any other; the alpha LPs of geometry.py are all ints, so no Fraction is
made of them.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from .errors import VerificationError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

LE, GE, EQ = "<=", ">=", "=="


class LinearProgram(namedtuple("LinearProgram", "matrix rhs senses objective")):
    """Rows, right-hand sides, senses (LE, GE or EQ) and the objective, as
    tuples.  `make` keeps an int entry as it is, makes a Fraction of any
    other, checks the shapes, and refuses a negative right-hand side or
    cost with ValueError."""

    __slots__ = ()

    @staticmethod
    def make(matrix, rhs, senses, objective) -> LinearProgram:
        mat = tuple(tuple(map(_exact, row)) for row in matrix)
        b = tuple(map(_exact, rhs))
        c = tuple(map(_exact, objective))
        senses = tuple(senses)
        if len(mat) != len(b) or len(mat) != len(senses):
            raise ValueError("inconsistent row counts")
        if any(len(row) != len(c) for row in mat):
            raise ValueError("inconsistent column counts")
        if any(s not in (LE, GE, EQ) for s in senses):
            raise ValueError("bad sense")
        if any(x < 0 for x in b) or any(x < 0 for x in c):
            raise ValueError("a right-hand side or cost is negative")
        return LinearProgram(mat, b, senses, c)


def _exact(x) -> int | Fraction:
    """x itself if it is an int, else the Fraction of x."""
    return x if type(x) is int else Fraction(x)


class LPResult(namedtuple("LPResult", "status value solution dual", defaults=(None,))):
    """`value` (a Fraction), `solution` and `dual` (Fraction tuples) are
    None where the status gives none.  `dual` is the certificate, one
    entry per constraint, with y_i <= 0 on LE rows and y_i >= 0 on GE
    rows.  For OPTIMAL it is a dual optimum (A^T y <= c, b.y == value);
    for INFEASIBLE a Farkas ray (A^T y <= 0, b.y > 0)."""

    __slots__ = ()


def _subtract(row: dict, f: int, support) -> None:
    """row -= f * support in place, for a non-zero f and the non-zero
    (column, entry) pairs of support; an entry that reaches 0 goes."""
    for j, b in support:
        v = row.get(j, 0) - f * b
        if v:
            row[j] = v
        else:
            del row[j]


class _Tableau:
    """Columns: structural, one slack per LE/GE row, one artificial per
    GE/EQ row (both in row order), the right-hand side at index ncols,
    then the cost rows' scale entry at ncols + 1.  Every row is sparse, a
    dict from column to its non-zero integer entry; a column it lacks
    holds 0.  Phase 2 never enters an artificial column; it reads only
    EQ rows' artificials, for their multipliers."""

    def __init__(self, lp: LinearProgram):
        nstruct = len(lp.objective)
        senses = self.senses = lp.senses
        n_slack = sum(1 for s in senses if s != EQ)
        n_art = sum(1 for s in senses if s != LE)
        self.nstruct = nstruct
        self.n_free = nstruct + n_slack  # columns phase 2 may enter
        self.ncols = self.n_free + n_art  # also the index of the rhs entry
        self.slack_col: list[int | None] = []
        self.art_col: list[int | None] = []
        self.basis: list[int] = []
        self.rows: list[dict[int, int]] = []
        next_slack, next_art = nstruct, self.n_free
        for arow, bval, sense in zip(lp.matrix, lp.rhs, senses):
            d = lcm(bval.denominator, *(x.denominator for x in arow))
            row = self._integers([*enumerate(arow), (self.ncols, bval)], d)
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
        self.phase2 = self._integers(enumerate(lp.objective), scale)
        self.phase2[self.ncols + 1] = scale
        self.phase1 = None
        if n_art:
            art_rows = [(row, row[b]) for row, b in zip(self.rows, self.basis)
                        if b >= self.n_free]
            scale = lcm(*(s for _, s in art_rows))
            phase1 = dict.fromkeys([*range(self.n_free, self.ncols), self.ncols + 1], scale)
            for row, s in art_rows:
                _subtract(phase1, scale // s, row.items())
            self.phase1 = phase1

    @staticmethod
    def _integers(entries, scale: int) -> dict[int, int]:
        """The sparse row of scale * x over the (column, x) entries, for a
        scale that every denominator divides."""
        return {j: x.numerator * (scale // x.denominator) for j, x in entries if x}

    def _cost_rows(self):
        return [row for row in (self.phase1, self.phase2) if row is not None]

    def _pivot(self, r: int, c: int):
        """Scaled-row step, as q * row - f * pivot_row with q and f the pivot
        and row[c] over their gcd; the subtraction touches only the
        pivot row's non-zero columns."""
        prow = self.rows[r]
        p = prow[c]
        if p < 0:  # the purge of artificials, and every dual pivot
            for j in prow:
                prow[j] = -prow[j]
            p = -p
        support = list(prow.items())
        for row in self.rows + self._cost_rows():
            f = row.get(c)
            if f and row is not prow:
                g = gcd(p, f)
                q, f = p // g, f // g
                if q != 1:
                    for j in row:
                        row[j] *= q
                _subtract(row, f, support)
                g = gcd(*row.values())
                if g > 1:
                    for j in row:
                        row[j] //= g
        self.basis[r] = c
        # the O(rows) guard of the step: column c is a unit column again,
        # and every row keeps a positive scale
        for i, row in enumerate(self.rows):
            if row.get(self.basis[i], 0) <= 0 or (i != r and c in row):
                raise VerificationError(f"pivot on ({r}, {c}) broke row {i}")
        if any(c in row or row.get(self.ncols + 1, 0) <= 0 for row in self._cost_rows()):
            raise VerificationError(f"pivot on ({r}, {c}) broke a cost row")

    def _iterate(self, cost: dict[int, int], allowed: int):
        """Pivot until no column below `allowed` has a negative reduced
        cost.  Ratios are compared by cross-multiplication."""
        rhs = self.ncols
        while True:
            enter = min((j for j, a in cost.items() if a < 0 and j < allowed), default=None)
            if enter is None:
                return
            leave = None
            for i, row in enumerate(self.rows):
                a = row.get(enter, 0)
                if a > 0:
                    if leave is None:
                        leave, num, den = i, row.get(rhs, 0), a
                        continue
                    lhs, best = row.get(rhs, 0) * den, num * a
                    if lhs < best or (lhs == best and self.basis[i] < self.basis[leave]):
                        leave, num, den = i, row.get(rhs, 0), a
            if leave is None:
                raise VerificationError(f"column {enter} is unbounded in a phase bounded by 0")
            self._pivot(leave, enter)

    def _multipliers(self, cost: dict[int, int], art_cost: int):
        """Simplex multipliers y, one per row, read off a reduced-cost row
        through its scale.  The reduced cost of a slack with coefficient
        +-1 is -+y_i; that of an artificial is art_cost - y_i."""
        scale = cost[self.ncols + 1]
        y = []
        for slack, art, sense in zip(self.slack_col, self.art_col, self.senses):
            if slack is not None:
                red = Fraction(cost.get(slack, 0), scale)
                y.append(-red if sense == LE else red)
            else:
                y.append(art_cost - Fraction(cost.get(art, 0), scale))
        return tuple(y)

    def solve(self) -> LPResult:
        if self.phase1 is not None:
            self._iterate(self.phase1, self.ncols)
            if self.phase1.get(self.ncols, 0) != 0:
                ray = self._multipliers(self.phase1, art_cost=1)
                return LPResult(INFEASIBLE, None, None, ray)
            self.phase1 = None
            self._purge_artificials()
        self._iterate(self.phase2, self.n_free)
        return self._optimum()

    def solve_dual(self) -> LPResult:
        """The dual simplex from a slack basis that is dual feasible (every
        cost >= 0, no artificial), on right-hand sides of any sign, by
        Bland's dual rule; each ratio test keeps every cost >= 0.  A leaving
        row with no negative entry reads x_B + (entries >= 0).x = (value <
        0), which no x >= 0 meets: its multipliers are a Farkas ray."""
        rhs, cost = self.ncols, self.phase2
        while True:
            r = min((i for i, row in enumerate(self.rows) if row.get(rhs, 0) < 0),
                    key=self.basis.__getitem__, default=None)
            if r is None:
                return self._optimum()
            row, enter = self.rows[r], None
            for j, a in row.items():
                if a < 0 and j < rhs:
                    cj = cost.get(j, 0)
                    # cj / -a below num / den, or equal to it at a lower column
                    if enter is None or (cj * den, j) < (num * -a, enter):
                        enter, num, den = j, cj, -a
            if enter is None:
                ray = self._multipliers({**row, rhs + 1: row[self.basis[r]]}, art_cost=0)
                return LPResult(INFEASIBLE, None, None, ray)
            self._pivot(r, enter)

    def _optimum(self) -> LPResult:
        """The point, value and multipliers of a primal and dual feasible basis."""
        rhs = self.ncols
        x = [Fraction(0)] * self.nstruct
        for row, b in zip(self.rows, self.basis):
            if b < self.nstruct:
                x[b] = Fraction(row.get(rhs, 0), row[b])
        value = Fraction(-self.phase2.get(rhs, 0), self.phase2[rhs + 1])
        y = self._multipliers(self.phase2, art_cost=0)
        return LPResult(OPTIMAL, value, tuple(x), y)

    def _purge_artificials(self):
        """Pivot every artificial out of the basis (or drop its redundant
        row) so phase 2 can ignore artificial columns entirely."""
        for r in range(len(self.rows) - 1, -1, -1):
            if self.basis[r] < self.n_free:
                continue
            col = min((j for j in self.rows[r] if j < self.n_free), default=None)
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


def _dot(pairs) -> Fraction:
    """Exact sum of a * b over the (a, b) pairs, summed over one running
    denominator and reduced once."""
    num, den = 0, 1
    for a, b in pairs:
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
    # each row's non-zero (column, entry) pairs, listed once: the alpha
    # LPs' rows hold a few non-zeros each
    nonzero = [[(j, a) for j, a in enumerate(row) if a] for row in lp.matrix]
    columns = [[] for _ in lp.objective]
    for pairs, v in zip(nonzero, y):
        if v:
            for j, a in pairs:
                columns[j].append((a, v))
    aty = [_dot(col) for col in columns]
    by = _dot(zip(lp.rhs, y))
    if result.status == INFEASIBLE:
        if any(v > 0 for v in aty) or by <= 0:
            raise VerificationError(f"not a Farkas ray: A^T y = {aty}, b.y = {by}")
        return
    x = result.solution
    if x is None or len(x) != len(lp.objective) or any(v < 0 for v in x):
        raise VerificationError(f"solution is not a non-negative point: {x}")
    for row, pairs, bval, sense in zip(lp.matrix, nonzero, lp.rhs, lp.senses):
        lhs = _dot((a, x[j]) for j, a in pairs)
        ok = lhs <= bval if sense == LE else lhs >= bval if sense == GE else lhs == bval
        if not ok:
            raise VerificationError(f"solution violates {row} {sense} {bval}: got {lhs}")
    val = _dot(zip(lp.objective, x))
    if val != result.value:
        raise VerificationError(f"objective mismatch: c.x = {val}, reported {result.value}")
    if any(a > c for a, c in zip(aty, lp.objective)):
        raise VerificationError(f"dual infeasible: A^T y = {aty} exceeds c = {lp.objective}")
    if by != val:
        raise VerificationError(f"duality gap: b.y = {by}, c.x = {val}")


def solve(lp: LinearProgram) -> LPResult:
    """Solve; the optimum or the infeasible verdict is re-checked against
    its certificate before being returned."""
    result = _Tableau(lp).solve()
    _verify(lp, result)
    return result


def solve_ge(lp: LinearProgram) -> LPResult:
    """Solve a program whose rows are all GE in one phase: A x >= b is the
    LE program -A x <= -b (built here, as `make` refuses its right-hand
    side), whose slack basis is the surplus basis, dual feasible as c >= 0.
    Its multipliers, negated, are this program's; the result is re-checked
    as `solve`'s is."""
    if any(s != GE for s in lp.senses):
        raise ValueError("solve_ge takes GE rows only")
    negated = LinearProgram(tuple(tuple(-a for a in row) for row in lp.matrix),
                            tuple(-b for b in lp.rhs), (LE,) * len(lp.rhs), lp.objective)
    result = _Tableau(negated).solve_dual()
    result = result._replace(dual=tuple(-y for y in result.dual))
    _verify(lp, result)
    return result
