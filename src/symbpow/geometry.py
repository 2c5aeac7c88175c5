"""Newton polyhedra, the symbolic polyhedron, and its exact geometry.

The Newton polyhedron of a monomial ideal J is conv(exponent vectors of the
generators) + the non-negative orthant; its recession cone is always the
whole orthant.  The symbolic polyhedron of I is the intersection of the
Newton polyhedra of the localizations of I at its maximal associated
primes, stored V-style: one generator matrix per component prime.

Everything here is exact, and rests on two integer routines: the
certified LP of lp.py and one double-description routine.  Alpha (the
least coordinate sum over the polyhedron) is one simplex solve over the
components' facet rows; a tangent-cone certificate proves its point the
only optimum, and at a tie, or when a facet table or that certificate is
over MAX_RAYS, the V-block LP of convex weights gives the point.  Facets
and vertices come from the double description (Motzkin et al. 1953;
Fukuda and Prodon 1996), whose intermediate ray count has an explicit
budget, MAX_RAYS (ResourceLimitError, never truncation).  Q's vertices are
enumerated over the rows of its components' facet tables, described next.

Membership is integer dot products against one facet table per Newton
polyhedron, the H-description {a >= 0 : normal.a >= offset per facet}.  A
component that is a power of a monomial prime (P_S)^m has the closed form
{a >= 0 : sum of a over S >= m}; for square-free input every component has
this shape.  Any other table comes from the double description and is
certified in both directions before it is stored: N lies in H because
every facet is valid on the generators and tight at one of them, and H
lies in N because every vertex of H, enumerated by the same double
description, is a generator (H and N share the orthant as recession cone).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from . import lp
from .decomposition import MonomialPrime, localizations
from .errors import ResourceLimitError, VerificationError
from .monomial import (MonomialIdeal, _ambient_dim, _fact, _Frozen, _naturals,
                       as_prime_power, require_proper)

# The most rays the double description keeps after a cut.  It binds when a
# facet table or a vertex set is built; a facet table is a fact of its
# ideal's polyhedron, so a lowered budget reaches it only after the caller
# has dropped that ideal.
MAX_RAYS = 256
PROBE_SAMPLES = 8  # the convex combinations probe_points adds to Q's vertices


class NewtonPolyhedron(_Frozen):
    """conv(generator exponent vectors) + non-negative orthant."""

    _fields = ("ambient_dim", "gens")

    def __init__(self, ambient_dim: int, gens: tuple[tuple[int, ...], ...]):
        ambient_dim = _ambient_dim(ambient_dim)
        gens = tuple(sorted(_naturals(g, "exponent") for g in gens))
        if not gens:
            raise ValueError("a Newton polyhedron needs at least one generator")
        if any(len(g) != ambient_dim for g in gens):
            raise ValueError("generator dimension mismatch")
        fields = self.__dict__
        fields["ambient_dim"] = ambient_dim
        fields["gens"] = gens

    @cached_property
    def simplex_power(self) -> tuple[tuple[int, ...], int] | None:
        """(sorted S, m) when this is the polyhedron of P^m for the prime on S."""
        return as_prime_power(self.gens)

    @cached_property
    def facets(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(normal, offset) integer pairs with N = {a >= 0 : normal.a >=
        offset for every pair}: the closed form (1_S, m) for (P_S)^m, else
        the double-description table, certified before it is stored."""
        sp = self.simplex_power
        if sp is not None:
            s_vars, m = sp
            return ((tuple(int(i in s_vars) for i in range(self.ambient_dim)), m),)
        return _certified_facets(self, _facet_rays(self))


@_fact
def newton_polyhedron(I: MonomialIdeal) -> NewtonPolyhedron:
    """The Newton polyhedron of I, a fact of I: every caller asking about
    one ideal reads the facet table certified at its first membership query."""
    if I.is_zero:
        raise ValueError("the zero ideal has an empty Newton polyhedron")
    return NewtonPolyhedron(I.ambient_dim, I.vectors)


class SymbolicPolyhedron(_Frozen):
    """One (prime, Newton polyhedron) pair per maximal associated prime."""

    _fields = ("ambient_dim", "components")

    def __init__(self, ambient_dim: int,
                 components: tuple[tuple[MonomialPrime, NewtonPolyhedron], ...]):
        fields = self.__dict__
        fields["ambient_dim"] = ambient_dim
        fields["components"] = components


@_fact
def symbolic_polyhedron(I: MonomialIdeal) -> SymbolicPolyhedron:
    """One Newton polyhedron per maximal associated prime, in the order of
    the primes: that of I localized there, read from `localizations`,
    which the symbolic powers of I share."""
    require_proper(I)
    return SymbolicPolyhedron(I.ambient_dim, tuple(
        (P, newton_polyhedron(L)) for P, L in localizations(I)))


def _as_integers(a, dim: int) -> tuple[list[int], int]:
    """The point a as integer numerators over one positive common
    denominator.  A coordinate is a Fraction or what operator.index reads:
    a float or a string raises ValueError."""
    try:
        pt = [x if isinstance(x, (int, Fraction)) else operator.index(x) for x in a]
    except TypeError:
        raise ValueError(f"inexact number in {a!r}: give ints or Fractions") from None
    if len(pt) != dim:
        raise ValueError(f"point has {len(pt)} coordinates, expected {dim}")
    den = lcm(*(x.denominator for x in pt))
    return [x.numerator * (den // x.denominator) for x in pt], den


def _certified_facets(N: NewtonPolyhedron, table) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The table as N's H-description, once both inclusions hold.  N in H:
    every normal is non-negative, every offset positive, and the least
    value of normal.g over the generators is the offset.  H in N: every
    vertex x / t of H, a ray (x, t) with t > 0 of its homogenization, is a
    generator; H's recession cone is the orthant, as N's is."""
    table = tuple(table)
    for normal, offset in table:
        if min(normal) < 0 or offset <= 0 or min(
                sum(n * e for n, e in zip(normal, g)) for g in N.gens) != offset:
            raise VerificationError(f"facet {normal} >= {offset} is not a "
                                    f"tight valid inequality of {N.gens}")
    gens = set(N.gens)
    rows = [normal + (-offset,) for normal, offset in table]
    for *x, t in _cone_rays(N.ambient_dim + 1, rows):
        if t > 0 and (any(e % t for e in x) or tuple(e // t for e in x) not in gens):
            raise VerificationError(f"the facets of {N.gens} admit the vertex "
                                    f"{tuple(Fraction(e, t) for e in x)}")
    return table


def _satisfies(facets, v: list[int], den: int) -> bool:
    """Does v / den satisfy normal.a >= offset on every facet?"""
    return all(sum(n * x for n, x in zip(normal, v)) >= offset * den
               for normal, offset in facets)


def np_member(N: NewtonPolyhedron, a) -> bool:
    """Exact membership of a rational point in the Newton polyhedron: a
    non-negative point whose numerators v over the common denominator den
    satisfy normal.v >= offset * den on every row of N.facets."""
    v, den = _as_integers(a, N.ambient_dim)
    return min(v, default=0) >= 0 and _satisfies(N.facets, v, den)


def member_scaled(Q: SymbolicPolyhedron, a, m) -> bool:
    """Is a/m in every component of Q?  m is a positive int or Fraction."""
    (num,), m_den = _as_integers((m,), 1)
    if num <= 0:
        raise ValueError("scale must be positive")
    v, den = _as_integers(a, Q.ambient_dim)
    if min(v, default=0) < 0:
        return False
    # a/m is (m_den * v) / (num * den)
    v = [m_den * x for x in v]
    return all(_satisfies(N.facets, v, num * den) for _, N in Q.components)


# ---------------------------------------------------------------------------
# alpha: one exact LP over the facet rows, and the V-block LP for ties


def _optimize_over(Q: SymbolicPolyhedron, objective) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Minimize a positive linear objective over Q, exactly.  The LP over
    the distinct rows of every component's certified N.facets, solved in
    one phase by `lp.solve_ge`, gives the value, proved by its dual
    certificate, and a point checked against every component.  That point
    is returned when a tangent-cone certificate proves it the only
    optimum, as then every exact LP over Q returns it, whatever its pivot
    path.  Otherwise, at a tie, the V-block LP on `lp.solve` breaks the tie
    and must reach the same value; it also runs alone when a facet table
    or the certificate's cone goes over MAX_RAYS."""
    try:
        value, point, unique = _facet_optimum(Q, objective)
    except ResourceLimitError:
        return _vblock_optimum(Q, objective)
    if unique:
        return value, point
    tie = _vblock_optimum(Q, objective)
    if tie[0] != value:
        raise VerificationError(f"the alpha LPs disagree: {value} over the "
                                f"facet rows, {tie[0]} over the V-blocks")
    return tie


def _facet_optimum(Q: SymbolicPolyhedron,
                   objective) -> tuple[Fraction, tuple[Fraction, ...], bool]:
    """(value, point, unique): min objective.a subject to normal.a >= offset
    for every distinct row of Q's facet tables, in component order, and
    a >= 0, by the dual simplex of `lp.solve_ge` from the surplus basis
    (offsets > 0 and objective >= 0 make it dual feasible, so there is no
    phase 1); unique when `_is_unique_optimum` certifies the point."""
    d = Q.ambient_dim
    rows = list(dict.fromkeys(row for _, N in Q.components for row in N.facets))
    result = lp.solve_ge(lp.LinearProgram.make([normal for normal, _ in rows],
                                               [offset for _, offset in rows],
                                               [lp.GE] * len(rows), objective))
    if result.status != lp.OPTIMAL:
        raise VerificationError(f"alpha LP ended {result.status}")
    point = result.solution
    if len(point) != d:
        raise VerificationError(f"alpha LP solution has {len(point)} entries, expected {d}")
    if result.value != sum(c * x for c, x in zip(objective, point)):
        raise VerificationError(f"alpha LP value {result.value} is not c.point")
    v, den = _as_integers(point, d)
    if min(v) < 0 or not _satisfies(rows, v, den):
        raise VerificationError("LP point escapes a component")
    return result.value, point, _is_unique_optimum(rows, objective, v, den)


def _is_unique_optimum(rows, objective, v: list[int], den: int) -> bool:
    """Is the optimal point v / den the only minimum of the positive
    integer objective c over {a >= 0 : normal.a >= offset for each row}?
    It is iff c.u > 0 on every extreme ray u of the tangent cone {u : t.u
    >= 0 for every constraint t tight at the point}.  Fraction-free
    Gauss-Jordan (Bareiss) on the matrix whose columns are the tight
    constraints and then c picks the first d independent ones, b_1..b_d,
    and writes each other column x as |D|.x = sum_k l_k b_k, D being the
    last pivot.  So w = (b_k.u)_k maps the cone onto {w >= 0 : l.w >= 0 for
    each other tight row}, on whose rays (`_cone_rays`) c.u has the sign
    of l.w for c's own l.  Integer arithmetic only, and each |D|.x =
    sum_k l_k b_k is checked.  A point with fewer than d independent tight
    constraints is no vertex, so not the only optimum."""
    d = len(v)
    tight = [normal for normal, offset in rows
             if sum(n * x for n, x in zip(normal, v)) == offset * den]
    tight += [tuple(int(i == j) for i in range(d)) for j in range(d) if v[j] == 0]
    columns = tight + [tuple(objective)]
    M = [[x[i] for x in columns] for i in range(d)]
    pivots, D = [], 1
    for j in range(len(tight)):
        k = len(pivots)
        if k == d:
            break
        p = next((i for i in range(k, d) if M[i][j]), None)
        if p is None:
            continue
        M[k], M[p] = M[p], M[k]
        pivot = M[k][j]
        for i in range(d):
            if i != k:
                f = M[i][j]
                M[i] = [(pivot * x - f * y) // D for x, y in zip(M[i], M[k])]
        pivots.append(j)
        D = pivot
    if len(pivots) < d:
        return False
    s = 1 if D > 0 else -1
    coords = {j: [s * M[k][j] for k in range(d)]
              for j in range(len(columns)) if j not in pivots}
    for j, lam in coords.items():
        if any(sum(l * columns[b][i] for l, b in zip(lam, pivots)) != s * D * columns[j][i]
               for i in range(d)):
            raise VerificationError(f"fraction-free Gauss-Jordan misread {columns[j]}")
    cost = coords.pop(len(tight))
    return all(sum(c * x for c, x in zip(cost, ray)) > 0
               for ray in _cone_rays(d, list(coords.values())))


def _vblock_optimum(Q: SymbolicPolyhedron, objective) -> tuple[Fraction, tuple[Fraction, ...]]:
    """The V-block LP: prime-power components contribute one halfspace,
    general components a convex-weight block (a >= G lambda, sum lambda =
    1).  Its point is checked in each component through its own solution:
    sum_S a >= m for a prime power, the lambda block for any other."""
    d = Q.ambient_dim
    blocks: list[tuple] = []  # (prime, gens) for general components
    simple_rows: list[tuple[tuple[int, ...], int]] = []
    for _, N in Q.components:
        sp = N.simplex_power
        if sp is not None:
            simple_rows.append(sp)
        else:
            blocks.append(N.gens)
    ncols = d + sum(len(g) for g in blocks)
    matrix: list[list[int]] = []
    rhs: list[int] = []
    senses: list[str] = []
    for s_vars, m in simple_rows:
        matrix.append([int(i in s_vars) for i in range(d)] + [0] * (ncols - d))
        rhs.append(m)
        senses.append(lp.GE)
    col0 = d
    for gens in blocks:
        k = len(gens)
        for i in range(d):
            row = [0] * ncols
            row[i] = 1
            for j, g in enumerate(gens):
                row[col0 + j] = -g[i]
            matrix.append(row)
            rhs.append(0)
            senses.append(lp.GE)
        row = [0] * ncols
        row[col0:col0 + k] = [1] * k
        matrix.append(row)
        rhs.append(1)
        senses.append(lp.EQ)
        col0 += k
    cost = list(objective) + [0] * (ncols - d)
    result = lp.solve(lp.LinearProgram.make(matrix, rhs, senses, cost))
    if result.status != lp.OPTIMAL:
        raise VerificationError(f"alpha LP ended {result.status}")
    if len(result.solution) != ncols:
        raise VerificationError(f"alpha LP solution has {len(result.solution)} "
                                f"entries, expected {ncols}")
    # the point lies in each component, certified by the LP's own solution:
    # Σ_S a >= m for a prime power, its λ block for a general component
    point = result.solution[:d]
    if any(x < 0 for x in point) or any(
            sum(point[i] for i in s_vars) < m for s_vars, m in simple_rows):
        raise VerificationError("LP point escapes a component")
    col0 = d
    for gens in blocks:
        lam = result.solution[col0:col0 + len(gens)]
        col0 += len(gens)
        if any(w < 0 for w in lam) or sum(lam) != 1 or any(
                sum(w * g[i] for w, g in zip(lam, gens)) > point[i] for i in range(d)):
            raise VerificationError("LP point escapes a component")
    return result.value, point


@_fact
def alpha_polyhedron(Q: SymbolicPolyhedron) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Least coordinate sum over Q and a point attaining it, a fact of Q."""
    return _optimize_over(Q, [1] * Q.ambient_dim)


# ---------------------------------------------------------------------------
# facet / vertex enumeration (double description, budgeted)


def _cone_rays(dim: int, rows) -> list[tuple[int, ...]]:
    """Extreme rays of {x >= 0 : row.x >= 0 for every row} as primitive
    integer vectors, by Motzkin's double description: start from the
    orthant's unit vectors and cut by one row at a time.  A ray on the
    positive side and one on the negative side are combined onto the new
    hyperplane only when they are adjacent, which is decided
    combinatorially: no third ray is tight on every constraint that both
    are tight on (constraint bits: x_i >= 0 first, then the rows)."""
    full = (1 << dim) - 1
    rays = [(tuple(int(i == j) for i in range(dim)), full ^ (1 << j))
            for j in range(dim)]
    for k, row in enumerate(rows):
        bit = 1 << (dim + k)
        signed = [(vec, tight, sum(a * x for a, x in zip(row, vec)))
                  for vec, tight in rays]
        kept = [(vec, tight | bit if s == 0 else tight)
                for vec, tight, s in signed if s >= 0]
        pos = [r for r in signed if r[2] > 0]
        neg = [r for r in signed if r[2] < 0]
        for vp, tp, sp in pos:
            for vn, tn, sn in neg:
                common = tp & tn
                # two adjacent rays span a 2-face, which needs dim - 2 tight constraints
                if common.bit_count() < dim - 2 or any(
                        t & common == common and t != tp and t != tn
                        for _, t, _ in signed):
                    continue
                vec = [sp * b - sn * a for a, b in zip(vp, vn)]
                g = gcd(*vec)
                kept.append((tuple(x // g for x in vec), common | bit))
                if len(kept) > MAX_RAYS:
                    raise ResourceLimitError("double-description rays", len(kept), MAX_RAYS)
        rays = kept
    return sorted(vec for vec, _ in rays)


def _facet_rays(N: NewtonPolyhedron) -> list[tuple[tuple[int, ...], int]]:
    """The facet inequalities normal.x >= offset of N other than the
    coordinate halfspaces, as primitive integer (normal, offset) pairs.
    By polarity they are the rays with offset > 0 of the cone of valid
    inequalities, cut by one row (v, -1) per generator v."""
    return [(tuple(normal), offset)
            for *normal, offset in _cone_rays(N.ambient_dim + 1,
                                              [v + (-1,) for v in N.gens])
            if offset > 0]


def enumerate_vertices(Q: SymbolicPolyhedron) -> tuple:
    """All vertices of Q, exactly, sorted.  Q is homogenized by one row
    (normal, -offset) per row of a component's certified N.facets; the
    rays (x, t) with t > 0 of that cone are the vertices x / t.  Each
    vertex is re-checked against every component.  An intermediate ray
    count over MAX_RAYS, in that cone or in a component's table, raises
    ResourceLimitError."""
    rows = {normal + (-offset,) for _, N in Q.components for normal, offset in N.facets}
    rays = _cone_rays(Q.ambient_dim + 1, sorted(rows))
    vertices = sorted(tuple(Fraction(x, t) for x in ray) for *ray, t in rays if t > 0)
    if not vertices:
        raise VerificationError("a pointed non-empty polyhedron must have a vertex")
    for v in vertices:
        if not all(np_member(N, v) for _, N in Q.components):
            raise VerificationError(f"vertex {v} escapes a component")
    return tuple(vertices)


# ---------------------------------------------------------------------------
# staircase membership and probe points


@_fact
def _probe_vertices(Q: SymbolicPolyhedron) -> tuple | None:
    """The vertices of Q, or None over budget (the MAX_RAYS of the first
    call): a fact of Q, as a check probes Q at every r."""
    try:
        return enumerate_vertices(Q)
    except ResourceLimitError:
        return None


def probe_points(Q: SymbolicPolyhedron, rng):
    """Points of Q to test a statement on: every vertex plus PROBE_SAMPLES
    pseudo-random convex combinations of them.  If vertex enumeration is
    over budget, PROBE_SAMPLES LP optima of random positive objectives
    instead.  Returns (points, vertex count, sampled_only), each point as
    integer numerators over a positive denominator.  The vertices share
    the lcm L of their denominators; a combination with raw weights of
    total T is the same integer sum of their numerators over T * L."""
    d = Q.ambient_dim
    verts = _probe_vertices(Q)
    if verts is None:
        points = []
        for _ in range(PROBE_SAMPLES):
            objective = [rng.randint(1, 64) for _ in range(d)]
            v, den = _as_integers(_optimize_over(Q, objective)[1], d)
            points.append((tuple(v), den))
        return points, 0, True
    den = lcm(*(x.denominator for v in verts for x in v))
    nums = [tuple(x.numerator * (den // x.denominator) for x in v) for v in verts]
    points = [(v, den) for v in nums]
    for _ in range(PROBE_SAMPLES):
        w = rng.raw_weights(len(verts))
        points.append((tuple(sum(wi * v[i] for wi, v in zip(w, nums)) for i in range(d)),
                       sum(w) * den))
    return points, len(verts), False
