"""Independent slow routes that the tests compare the package against,
and the exact routines that only the tests use: a phase-1 feasible point,
staircase membership, convex weights, and Caratheodory decompositions
with the realizing denominator they give."""

from collections import namedtuple
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement, product
from math import lcm
from operator import add, le

from symbpow import lp
from symbpow.decomposition import (MonomialPrime, irreducible_decomposition, localize,
                                   max_associated_primes)
from symbpow.errors import VerificationError
from symbpow.geometry import (NewtonPolyhedron, SymbolicPolyhedron, alpha_polyhedron,
                              enumerate_vertices, member_scaled, newton_polyhedron,
                              np_member, symbolic_polyhedron)
from symbpow.invariants import alpha
from symbpow.monomial import (Monomial, MonomialIdeal, intersect, is_squarefree,
                              require_proper)
from symbpow.symbolic import symbolic_power


def degree_monomials(ambient_dim: int, degree: int) -> list[Monomial]:
    """All monomials of the given total degree, in lex order: the
    generators of that power of the maximal ideal, as `prime_power_oracle`
    lists them."""
    return [Monomial(v) for v in
            prime_power_oracle(ambient_dim, range(ambient_dim), degree).vectors]


def prime_power_oracle(dim: int, s_vars, n: int) -> MonomialIdeal:
    """P^n for the prime P on s_vars, n >= 0: one degree-n monomial per
    multiset of n of those variables (combinations_with_replacement),
    listed with no kernel of the package.  They are all of one degree, so
    lex order is canonical."""
    vectors = []
    for pick in combinations_with_replacement(s_vars, n):
        v = [0] * dim
        for i in pick:
            v[i] += 1
        vectors.append(tuple(v))
    return MonomialIdeal(dim, tuple(sorted(vectors)))


def pairwise_lcms(avecs, bvecs) -> list[tuple[int, ...]]:
    """The lcm of every pair of exponent vectors, one from each side: the
    literal candidate set of an intersection, before minimalization."""
    return [tuple(map(max, a, b)) for a in avecs for b in bvecs]


def power_oracle(I: MonomialIdeal, n: int) -> MonomialIdeal:
    """I^n for n >= 1 by repeated pairwise sums with the generators of I,
    each product minimalized by a linear scan: visited in (degree, lex)
    order, a sum is kept unless a kept one lies at or below it
    (`above_some`), as a proper divisor has the smaller degree.  No
    product, power or minimalization of the package runs."""
    out = I.vectors
    for _ in range(n - 1):
        kept = []
        for v in sorted({tuple(map(add, a, b)) for a in out for b in I.vectors},
                        key=lambda v: (sum(v), v)):
            if not above_some(kept, v):
                kept.append(v)
        out = kept
    return MonomialIdeal(I.ambient_dim, tuple(out))


def symbolic_power_oracle_sqfree(I: MonomialIdeal, m: int) -> MonomialIdeal:
    """Independent route for square-free ideals: intersect the m-th powers
    of the minimal primes coming straight out of the irreducible
    decomposition (no localization involved), each listed by
    `prime_power_oracle`, so no step runs the prime-power kernel."""
    require_proper(I)
    if not is_squarefree(I):
        raise ValueError("oracle only applies to square-free ideals")
    if m == 0:
        return MonomialIdeal.unit(I.ambient_dim)
    comps = [prime_power_oracle(I.ambient_dim, [v for v, _ in c.powers], m)
             for c in irreducible_decomposition(I)]
    comps.sort(key=lambda c: len(c.vectors))
    return reduce(intersect, comps)


def by_definition(I, m_):
    """I^(m) as the smallest-first intersection of the powers of the
    localizations at the maximal associated primes.  The power Q^(km) of a
    localization Q^k is listed by `prime_power_oracle` and the power of a
    general localization is `power_oracle`'s, not `power`'s, so no step
    here runs the prime-power kernel, the product or the minimalization
    that symbolic_power runs to build its components."""
    comps = []
    for P in max_associated_primes(I):
        L = localize(I, P)
        if L.simplex_power is None:
            comps.append(power_oracle(L, m_))
        else:
            s_vars, k = L.simplex_power
            comps.append(prime_power_oracle(I.ambient_dim, s_vars, k * m_))
    return reduce(intersect, sorted(comps, key=lambda c: len(c.vectors)))


def _as_point(a, dim: int) -> tuple[Fraction, ...]:
    pt = tuple(Fraction(x) for x in a)
    if len(pt) != dim:
        raise ValueError(f"point has {len(pt)} coordinates, expected {dim}")
    return pt


def feasible_point(matrix, rhs, senses) -> tuple[Fraction, ...] | None:
    """A basic feasible point of the system, or None (phase 1 only)."""
    prog = lp.LinearProgram.make(matrix, rhs, senses, [0] * len(matrix[0]))
    result = lp.solve(prog)
    return result.solution if result.status == lp.OPTIMAL else None


def np_member_lp(N: NewtonPolyhedron, a) -> bool:
    """Exact membership of a rational point in the Newton polyhedron:
    feasibility of  G lambda <= a, sum lambda = 1, lambda >= 0."""
    pt = _as_point(a, N.ambient_dim)
    if any(x < 0 for x in pt):
        return False
    matrix = [[g[i] for g in N.gens] for i in range(N.ambient_dim)]
    matrix.append([1] * len(N.gens))
    senses = [lp.LE] * N.ambient_dim + [lp.EQ]
    return feasible_point(matrix, pt + (1,), senses) is not None


def unique_optimum(Q: SymbolicPolyhedron, objective) -> bool:
    """Whether a positive objective takes its least value over Q at one
    point only, read off Q's vertices: Q's recession cone is the orthant,
    on which the objective is positive, so the optimal face is bounded,
    the convex hull of the optimal vertices, and a point iff exactly one
    vertex reaches the least value."""
    values = [sum(c * x for c, x in zip(objective, v)) for v in enumerate_vertices(Q)]
    return values.count(min(values)) == 1


def above_some(vectors, point) -> bool:
    """Whether some vector lies componentwise at or below `point`, whose
    entries may be any exact numbers: membership in the staircase by a
    linear scan, the reference for the package's divisibility index."""
    return any(all(map(le, g, point)) for g in vectors)


def stairs_member(J: MonomialIdeal, point) -> bool:
    """Is the rational point in the up-closure of J's generator exponents?"""
    return above_some(J.vectors, _as_point(point, J.ambient_dim))


def integrally_closed_by_box(I: MonomialIdeal) -> bool:
    """Whether every lattice point of the Newton polyhedron lies in the
    staircase of I, by a scan of the box up to the componentwise maximum M
    of the generators: clamping a counterexample to the box keeps it inside
    the polyhedron and outside the staircase.  It asks every one of the
    prod(M_i + 1) points, so callers keep the box small."""
    require_proper(I)
    N = newton_polyhedron(I)
    corner = tuple(map(max, zip(*I.vectors)))
    return all(above_some(I.vectors, pt) or not np_member(N, pt)
               for pt in product(*(range(c + 1) for c in corner)))


def convex_weights(rng, count: int) -> list[Fraction]:
    """Random exact convex weights (sum to 1) over `count` slots, from the
    raw weights of a SplitRng."""
    raw = rng.raw_weights(count)
    total = sum(raw)
    return [Fraction(r, total) for r in raw]


class CaratheodoryDecomposition(namedtuple("CaratheodoryDecomposition",
                                           "point weights cone")):
    """a = sum of weight * vertex + cone, with at most height(P) non-zero
    convex weights over the component's generator exponent vectors:
    point and cone are Fraction tuples, weights (vector, Fraction) pairs."""

    __slots__ = ()

    def reconstruction(self) -> tuple[Fraction, ...]:
        total = list(self.cone)
        for vec, w in self.weights:
            for i, e in enumerate(vec):
                total[i] += w * e
        return tuple(total)

    def denominator(self) -> int:
        dens = [w.denominator for _, w in self.weights]
        dens += [c.denominator for c in self.cone]
        return lcm(*dens) if dens else 1


def caratheodory_decompose(N: NewtonPolyhedron, P: MonomialPrime, a) -> CaratheodoryDecomposition:
    """Exact decomposition of a point of N as a convex combination of at
    most height(P) generator exponent vectors plus an orthant part.

    Starts from a basic feasible solution of the transportation system
    (at most height(P) + 1 non-zero entries, on linearly independent
    columns).  When all height(P) + 1 of them are convex weights, the point
    lies in the simplex of their vectors, and one more certified LP rides
    the first coordinate ray of the prime down to that simplex's boundary:
    the ride's length t lands in the orthant part and retires a weight.
    """
    pt = _as_point(a, N.ambient_dim)
    pvars = list(P.variables)
    h = len(pvars)
    outside = [i for i in range(N.ambient_dim) if i not in set(pvars)]
    for g in N.gens:
        if any(g[i] for i in outside):
            raise ValueError("component generators must be supported inside the prime")
    if any(x < 0 for x in pt):
        raise ValueError("point is outside the Newton polyhedron")

    k = len(N.gens)
    # variables: lambda_0..lambda_{k-1}, then c_i for i in pvars; with the
    # generators inside the prime, this phase 1 alone decides membership on
    # the prime's coordinates (an infeasible verdict carries a Farkas ray)
    matrix = [[g[i] for g in N.gens] + [int(j == idx) for j in range(h)]
              for idx, i in enumerate(pvars)]
    matrix.append([1] * k + [0] * h)
    rhs = [pt[i] for i in pvars] + [1]
    base = feasible_point(matrix, rhs, [lp.EQ] * (h + 1))
    if base is None:
        raise ValueError("point is outside the Newton polyhedron")
    lam = list(base[:k])
    act = [j for j in range(k) if lam[j] > 0]
    if len(act) > h:
        # the basic point spends all h + 1 non-zeros on weights, so the
        # orthant part is 0; maximize t in G_A lambda + t e_{p0} = a_P,
        # sum lambda = 1: barycentric coordinates in a simplex are unique,
        # so lambda is a function of t and the optimum is the ride.  As
        # t = a_p0 - sum_j g_{j,p0} lambda_j, the LP minimizes that sum,
        # a non-negative cost, with cost 0 on t
        ride = [[N.gens[j][i] for j in act] + [int(idx == 0)]
                for idx, i in enumerate(pvars)]
        ride.append([1] * len(act) + [0])
        result = lp.solve(lp.LinearProgram.make(
            ride, rhs, [lp.EQ] * (h + 1), [N.gens[j][pvars[0]] for j in act] + [0]))
        if result.status != lp.OPTIMAL:
            raise VerificationError(f"Caratheodory ride LP ended {result.status}")
        for j, w in zip(act, result.solution):
            lam[j] = w
        act = [j for j in act if lam[j] > 0]
        if len(act) > h:
            raise VerificationError("the ride retired no convex weight")

    cone = list(pt)
    for j in act:
        for i in range(N.ambient_dim):
            cone[i] -= lam[j] * N.gens[j][i]
    if any(c < 0 for c in cone):
        raise VerificationError("negative orthant part")
    if sum(lam[j] for j in act) != 1:
        raise VerificationError("convex weights do not sum to 1")
    weights = tuple((N.gens[j], lam[j]) for j in act)
    deco = CaratheodoryDecomposition(pt, weights, tuple(cone))
    if deco.reconstruction() != pt:
        raise VerificationError("decomposition does not reconstruct the point")
    return deco


def realizing_denominator(I: MonomialIdeal, a) -> int:
    """Least common denominator b of Caratheodory decompositions of a over
    every component of the symbolic polyhedron; x^(b*a) then lies in the
    b-th symbolic power, which is verified before returning."""
    Q = symbolic_polyhedron(I)
    pt = _as_point(a, I.ambient_dim)
    if not member_scaled(Q, pt, 1):
        raise ValueError("point is outside the symbolic polyhedron")
    b = 1
    for P, N in Q.components:
        b = lcm(b, caratheodory_decompose(N, P, pt).denominator())
    scaled = [b * x for x in pt]
    if any(x.denominator != 1 for x in scaled):
        raise VerificationError(f"b = {b} does not clear the denominators of {pt}")
    if not above_some(symbolic_power(I, b).vectors, scaled):
        raise VerificationError("certificate monomial escapes the symbolic power")
    return b


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
    artificial per GE/EQ row.  Each pivot divides the pivot row by its
    entry; reduced costs and multipliers pi = c_B B^-1 are recomputed from
    the basis every time.  Right-hand sides and costs are non-negative, as
    LinearProgram.make requires, so neither phase is unbounded."""
    senses = prog.senses
    n, n_rows = len(prog.objective), len(prog.rhs)
    slack_rows = [i for i in range(n_rows) if senses[i] != lp.EQ]
    art_rows = [i for i in range(n_rows) if senses[i] != lp.LE]
    n_free = n + len(slack_rows)
    ncols = n_free + len(art_rows)
    start = {}  # row -> the column of its starting basic variable
    rows, basis = [], []
    for i, (arow, b) in enumerate(zip(prog.matrix, prog.rhs)):
        row = [Fraction(a) for a in arow] + [Fraction(0)] * (ncols - n) + [Fraction(b)]
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
                return
            ratios = [(row[-1] / row[enter], b, i)
                      for i, (row, b) in enumerate(zip(rows, basis)) if row[enter] > 0]
            if not ratios:
                raise AssertionError("unbounded, though the costs are non-negative")
            pivot(min(ratios)[2], enter)

    def value(cost):
        return sum(cost[b] * row[-1] for row, b in zip(rows, basis))

    def dual(cost):
        return tuple(sum(cost[b] * row[start[i]] for row, b in zip(rows, basis))
                     for i in range(n_rows))

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
    cost = [Fraction(c) for c in prog.objective] + [Fraction(0)] * (ncols - n)
    run(cost, n_free)
    x = [Fraction(0)] * n
    for row, b in zip(rows, basis):
        if b < n:
            x[b] = row[-1]
    return lp.LPResult(lp.OPTIMAL, value(cost), tuple(x), dual(cost))


def textbook_dual_simplex(prog: lp.LinearProgram) -> lp.LPResult:
    """Dual simplex on a Fraction tableau with Bland's dual rule, for a
    program whose rows are all GE.  Row i is -A_i x + s_i = -b_i, so the
    surplus basis starts it, dual feasible as the costs are >= 0.  The
    lowest-index basic variable among negative rows leaves; of that row's
    negative entries the least reduced cost / |entry| enters, ties to the
    lowest column.  A leaving row with no negative entry is infeasible, and
    its surplus entries are the Farkas ray.  Reduced costs and multipliers
    are recomputed from the basis every time."""
    n, m = len(prog.objective), len(prog.rhs)
    rows = [[-Fraction(a) for a in arow] + [Fraction(int(j == i)) for j in range(m)]
            + [-Fraction(b)] for i, (arow, b) in enumerate(zip(prog.matrix, prog.rhs))]
    basis = list(range(n, n + m))
    cost = [Fraction(c) for c in prog.objective] + [Fraction(0)] * m
    while any(row[-1] < 0 for row in rows):
        r = min((i for i in range(m) if rows[i][-1] < 0), key=basis.__getitem__)
        reduced = [cost[j] - sum(cost[b] * row[j] for row, b in zip(rows, basis))
                   for j in range(n + m)]
        ratios = [(reduced[j] / -rows[r][j], j) for j in range(n + m) if rows[r][j] < 0]
        if not ratios:
            return lp.LPResult(lp.INFEASIBLE, None, None, tuple(rows[r][n:n + m]))
        c = min(ratios)[1]
        rows[r] = [a / rows[r][c] for a in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        basis[r] = c
    x = [Fraction(0)] * n
    for row, b in zip(rows, basis):
        if b < n:
            x[b] = row[-1]
    value = sum(cost[b] * row[-1] for row, b in zip(rows, basis))
    y = tuple(-sum(cost[b] * row[n + i] for row, b in zip(rows, basis)) for i in range(m))
    return lp.LPResult(lp.OPTIMAL, value, tuple(x), y)
