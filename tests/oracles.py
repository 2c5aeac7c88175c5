"""Independent slow routes that the tests compare the package against."""

from fractions import Fraction
from functools import reduce

from symbpow import lp
from symbpow.decomposition import irreducible_decomposition
from symbpow.geometry import (NewtonPolyhedron, _as_point, alpha_polyhedron,
                              realizing_denominator, symbolic_polyhedron)
from symbpow.invariants import alpha
from symbpow.monomial import (Monomial, MonomialIdeal, _compositions,
                              intersect, is_squarefree, power, require_proper)
from symbpow.symbolic import symbolic_power


def degree_monomials(ambient_dim: int, degree: int) -> list[Monomial]:
    """All monomials of the given total degree."""
    return [Monomial(c) for c in _compositions(degree, ambient_dim)]


def pairwise_lcms(avecs, bvecs) -> list[tuple[int, ...]]:
    """The lcm of every pair of exponent vectors, one from each side: the
    literal candidate set of an intersection, before minimalization."""
    return [tuple(map(max, a, b)) for a in avecs for b in bvecs]


def symbolic_power_oracle_sqfree(I: MonomialIdeal, m: int) -> MonomialIdeal:
    """Independent route for square-free ideals: intersect the m-th powers
    of the minimal primes coming straight out of the irreducible
    decomposition (no localization involved)."""
    require_proper(I)
    if not is_squarefree(I):
        raise ValueError("oracle only applies to square-free ideals")
    if m == 0:
        return MonomialIdeal.unit(I.ambient_dim)
    comps = [power(c.to_ideal(), m) for c in irreducible_decomposition(I)]
    comps.sort(key=lambda c: len(c.vectors))
    return reduce(intersect, comps)


def np_member_lp(N: NewtonPolyhedron, a) -> bool:
    """Exact membership of a rational point in the Newton polyhedron:
    feasibility of  G lambda <= a, sum lambda = 1, lambda >= 0."""
    pt = _as_point(a, N.ambient_dim)
    if any(x < 0 for x in pt):
        return False
    matrix = [[g[i] for g in N.gens] for i in range(N.ambient_dim)]
    matrix.append([1] * len(N.gens))
    senses = [lp.LE] * N.ambient_dim + [lp.EQ]
    return lp.feasible_point(matrix, pt + (1,), senses) is not None


def alpha_equality_at_denominator(I: MonomialIdeal, cap: int = 12) -> dict:
    """Whether alpha(I^(b)) == b * waldschmidt at b = the realizing
    denominator of an optimal point.  Returns a report dict; when b exceeds
    the cap the equality is left unchecked rather than approximated."""
    w, pt = alpha_polyhedron(symbolic_polyhedron(I))
    b = realizing_denominator(I, pt)
    report = {"b": b, "waldschmidt": w, "checked": b <= cap}
    if b <= cap:
        ab = alpha(symbolic_power(I, b))
        report["alpha_at_b"] = ab
        report["equal"] = Fraction(ab) == b * w
    return report


def textbook_simplex(prog: lp.LinearProgram) -> lp.LPResult:
    """Two-phase simplex on a Fraction tableau with Bland's rule, in the
    column layout of lp.py: structural, one slack per LE/GE row, one
    artificial per GE/EQ row, rows with a negative right-hand side negated
    first.  Each pivot divides the pivot row by its entry; reduced costs and
    multipliers pi = c_B B^-1 are recomputed from the basis every time."""
    flip = [b < 0 for b in prog.rhs]
    senses = [{lp.LE: lp.GE, lp.GE: lp.LE, lp.EQ: lp.EQ}[s] if f else s
              for s, f in zip(prog.senses, flip)]
    n, n_rows = len(prog.objective), len(prog.rhs)
    slack_rows = [i for i in range(n_rows) if senses[i] != lp.EQ]
    art_rows = [i for i in range(n_rows) if senses[i] != lp.LE]
    n_free = n + len(slack_rows)
    ncols = n_free + len(art_rows)
    start = {}  # row -> the column of its starting basic variable
    rows, basis = [], []
    for i, (arow, b) in enumerate(zip(prog.matrix, prog.rhs)):
        sign = -1 if flip[i] else 1
        row = [sign * a for a in arow] + [Fraction(0)] * (ncols - n) + [sign * b]
        if i in slack_rows:
            col = n + slack_rows.index(i)
            row[col] = Fraction(1 if senses[i] == lp.LE else -1)
            start[i] = col
        if i in art_rows:
            col = n_free + art_rows.index(i)
            row[col] = Fraction(1)
            start[i] = col
        rows.append(row)
        basis.append(start[i])

    def pivot(r, c):
        rows[r] = [a / rows[r][c] for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        basis[r] = c

    def run(cost, allowed):
        while True:
            reduced = [cost[j] - sum(cost[b] * row[j] for row, b in zip(rows, basis))
                       for j in range(allowed)]
            enter = next((j for j in range(allowed) if reduced[j] < 0), None)
            if enter is None:
                return lp.OPTIMAL
            ratios = [(row[-1] / row[enter], b, i)
                      for i, (row, b) in enumerate(zip(rows, basis)) if row[enter] > 0]
            if not ratios:
                return lp.UNBOUNDED
            pivot(min(ratios)[2], enter)

    def value(cost):
        return sum(cost[b] * row[-1] for row, b in zip(rows, basis))

    def dual(cost):
        pi = [sum(cost[b] * row[start[i]] for row, b in zip(rows, basis))
              for i in range(n_rows)]
        return tuple(-p if f else p for p, f in zip(pi, flip))

    if art_rows:
        phase1 = [Fraction(0)] * n_free + [Fraction(1)] * len(art_rows)
        run(phase1, ncols)
        if value(phase1) != 0:
            return lp.LPResult(lp.INFEASIBLE, None, None, dual(phase1))
        for r in range(len(rows) - 1, -1, -1):
            if basis[r] >= n_free:
                col = next((j for j in range(n_free) if rows[r][j]), None)
                if col is None:
                    del rows[r], basis[r]
                else:
                    pivot(r, col)
    cost = list(prog.objective) + [Fraction(0)] * (ncols - n)
    if run(cost, n_free) == lp.UNBOUNDED:
        return lp.LPResult(lp.UNBOUNDED, None, None)
    x = [Fraction(0)] * n
    for row, b in zip(rows, basis):
        if b < n:
            x[b] = row[-1]
    return lp.LPResult(lp.OPTIMAL, value(cost), tuple(x), dual(cost))
