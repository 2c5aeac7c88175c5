"""Newton polyhedra, the symbolic polyhedron, and its exact geometry.

The Newton polyhedron of a monomial ideal J is conv(exponent vectors of the
generators) + the non-negative orthant; its recession cone is always the
whole orthant.  The symbolic polyhedron of I is the intersection of the
Newton polyhedra of the localizations of I at its maximal associated
primes, stored V-style: one generator matrix per component prime.

Everything here is exact, and rests on two integer routines: the
certified LP of lp.py and one double-description routine.  Alpha (the
least coordinate sum over the polyhedron) is one simplex solve; a
Caratheodory decomposition is a basic feasible point, reduced when needed
by one more LP.  Facets and vertices come from the double description
(Motzkin et al. 1953; Fukuda and Prodon 1996), whose intermediate ray
count has an explicit budget (ResourceLimitError, never truncation).

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

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm

from . import lp
from .decomposition import MonomialPrime, localize, max_associated_primes
from .errors import ResourceLimitError, VerificationError
from .monomial import (MonomialIdeal, _Frozen, above_some, as_prime_power,
                       require_proper)
from .symbolic import symbolic_power

DEFAULT_MAX_RAYS = 256


class NewtonPolyhedron(_Frozen):
    """conv(generator exponent vectors) + non-negative orthant."""

    _fields = ("ambient_dim", "gens")

    def __init__(self, ambient_dim: int, gens: tuple[tuple[int, ...], ...]):
        if not gens:
            raise ValueError("a Newton polyhedron needs at least one generator")
        if any(len(g) != ambient_dim for g in gens):
            raise ValueError("generator dimension mismatch")
        fields = self.__dict__
        fields["ambient_dim"] = ambient_dim
        fields["gens"] = tuple(sorted(gens))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.gens == other.gens

    def __hash__(self):
        return hash((self.ambient_dim, self.gens))

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
        return _certified_facets(self, _facet_rays(self, DEFAULT_MAX_RAYS))


def newton_polyhedron(I: MonomialIdeal) -> NewtonPolyhedron:
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

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.components == other.components

    def __hash__(self):
        return hash((self.ambient_dim, self.components))


@lru_cache(maxsize=512)
def symbolic_polyhedron(I: MonomialIdeal) -> SymbolicPolyhedron:
    """One Newton polyhedron per maximal associated prime, in the order of
    the primes."""
    require_proper(I)
    comps = []
    for P in max_associated_primes(I):
        comps.append((P, newton_polyhedron(localize(I, P))))
    return SymbolicPolyhedron(I.ambient_dim, tuple(comps))


def _as_point(a, dim: int) -> tuple[Fraction, ...]:
    pt = tuple(Fraction(x) for x in a)
    if len(pt) != dim:
        raise ValueError(f"point has {len(pt)} coordinates, expected {dim}")
    return pt


def _as_integers(a, dim: int) -> tuple[list[int], int]:
    """The point a as integer numerators over one positive common
    denominator; integer and Fraction coordinates are read as they are."""
    pt = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in a]
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
    for *x, t in _cone_rays(N.ambient_dim + 1, rows, DEFAULT_MAX_RAYS):
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
    """Is a/m in every component of Q?  m is a positive integer or rational."""
    m = Fraction(m)
    if m <= 0:
        raise ValueError("scale must be positive")
    v, den = _as_integers(a, Q.ambient_dim)
    if min(v, default=0) < 0:
        return False
    # a/m is (m.denominator * v) / (m.numerator * den)
    v = [m.denominator * x for x in v]
    return all(_satisfies(N.facets, v, m.numerator * den) for _, N in Q.components)


# ---------------------------------------------------------------------------
# alpha via one exact LP


def _optimize_over(Q: SymbolicPolyhedron, objective) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Minimize a positive linear objective over Q.  Components that are
    prime powers contribute one halfspace; general components contribute a
    convex-weight block (a >= G lambda, sum lambda = 1)."""
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


@lru_cache(maxsize=512)
def alpha_polyhedron(Q: SymbolicPolyhedron) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Least coordinate sum over Q and a point attaining it."""
    return _optimize_over(Q, [1] * Q.ambient_dim)


# ---------------------------------------------------------------------------
# Caratheodory decomposition and realizing denominators


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
    if any(pt[i] < 0 for i in outside):
        raise ValueError("point is outside the Newton polyhedron")

    k = len(N.gens)
    # variables: lambda_0..lambda_{k-1}, then c_i for i in pvars; with the
    # generators inside the prime, this phase 1 alone decides membership on
    # the prime's coordinates (an infeasible verdict carries a Farkas ray)
    matrix = [[g[i] for g in N.gens] + [int(j == idx) for j in range(h)]
              for idx, i in enumerate(pvars)]
    matrix.append([1] * k + [0] * h)
    rhs = [pt[i] for i in pvars] + [1]
    base = lp.feasible_point(matrix, rhs, [lp.EQ] * (h + 1))
    if base is None:
        raise ValueError("point is outside the Newton polyhedron")
    lam = list(base[:k])
    act = [j for j in range(k) if lam[j] > 0]
    if len(act) > h:
        # the basic point spends all h + 1 non-zeros on weights, so the
        # orthant part is 0; maximize t in G_A lambda + t e_{p0} = a_P,
        # sum lambda = 1: barycentric coordinates in a simplex are unique,
        # so lambda is a function of t and the optimum is the ride
        ride = [[N.gens[j][i] for j in act] + [int(idx == 0)]
                for idx, i in enumerate(pvars)]
        ride.append([1] * len(act) + [0])
        result = lp.solve(lp.LinearProgram.make(
            ride, rhs, [lp.EQ] * (h + 1), [0] * len(act) + [-1]))
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
    decos = []
    for P, N in Q.components:
        deco = caratheodory_decompose(N, P, pt)
        decos.append(deco)
        b = lcm(b, deco.denominator())
    scaled = [b * x for x in pt]
    if any(x.denominator != 1 for x in scaled):
        raise VerificationError(f"b = {b} does not clear the denominators of {pt}")
    if not above_some(symbolic_power(I, b).vectors, scaled):
        raise VerificationError("certificate monomial escapes the symbolic power")
    return b


# ---------------------------------------------------------------------------
# facet / vertex enumeration (double description, budgeted)


def _cone_rays(dim: int, rows, max_rays: int) -> list[tuple[int, ...]]:
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
                if len(kept) > max_rays:
                    raise ResourceLimitError("double-description rays", len(kept), max_rays)
        rays = kept
    return sorted(vec for vec, _ in rays)


def _facet_rays(N: NewtonPolyhedron, max_rays: int) -> list[tuple[tuple[int, ...], int]]:
    """The facet inequalities normal.x >= offset of N other than the
    coordinate halfspaces, as primitive integer (normal, offset) pairs.
    By polarity they are the rays with offset > 0 of the cone of valid
    inequalities, cut by one row (v, -1) per generator v."""
    return [(tuple(normal), offset)
            for *normal, offset in _cone_rays(N.ambient_dim + 1,
                                              [v + (-1,) for v in N.gens], max_rays)
            if offset > 0]


def component_facets(N: NewtonPolyhedron, max_rays: int = DEFAULT_MAX_RAYS):
    """The facets of N from _facet_rays, each scaled so that its first
    non-zero normal entry is 1, sorted."""
    facets = []
    for normal, offset in _facet_rays(N, max_rays):
        lead = next(x for x in normal if x != 0)
        facets.append((tuple(Fraction(x, lead) for x in normal), Fraction(offset, lead)))
    return sorted(facets)


def enumerate_vertices(Q: SymbolicPolyhedron, max_rays: int = DEFAULT_MAX_RAYS) -> tuple:
    """All vertices of Q, exactly, sorted.  Q is homogenized by one row
    (normal, -offset) per component facet; the rays (x, t) with t > 0 of
    that cone are the vertices x / t.  Each vertex is re-checked against
    every component.  An intermediate ray count over max_rays raises
    ResourceLimitError."""
    rows = {normal + (-offset,) for _, N in Q.components
            for normal, offset in _facet_rays(N, max_rays)}
    rays = _cone_rays(Q.ambient_dim + 1, sorted(rows), max_rays)
    vertices = sorted(tuple(Fraction(x, t) for x in ray) for *ray, t in rays if t > 0)
    if not vertices:
        raise VerificationError("a pointed non-empty polyhedron must have a vertex")
    for v in vertices:
        if not all(np_member(N, v) for _, N in Q.components):
            raise VerificationError(f"vertex {v} escapes a component")
    return tuple(vertices)


# ---------------------------------------------------------------------------
# staircase membership and probe points


def stairs_member(J: MonomialIdeal, point) -> bool:
    """Is the rational point in the up-closure of J's generator exponents?"""
    return above_some(J.vectors, _as_point(point, J.ambient_dim))


@lru_cache(maxsize=512)
def _probe_vertices(Q: SymbolicPolyhedron, max_rays: int) -> tuple | None:
    """The vertices of Q, or None when their enumeration is over budget:
    enumerated once per polyhedron, though a check probes Q at every r."""
    try:
        return enumerate_vertices(Q, max_rays)
    except ResourceLimitError:
        return None


def probe_points(Q: SymbolicPolyhedron, sample_count: int, rng,
                 max_rays: int = DEFAULT_MAX_RAYS):
    """Points of Q to test a statement on: every vertex plus sample_count
    pseudo-random convex combinations of them.  If vertex enumeration is
    over budget, sample_count LP optima of random positive objectives
    instead.  Returns (points, vertex count, sampled_only), each point as
    integer numerators over a positive denominator.  The vertices share
    the lcm L of their denominators; a combination with raw weights of
    total T is the same integer sum of their numerators over T * L."""
    d = Q.ambient_dim
    verts = _probe_vertices(Q, max_rays)
    if verts is None:
        points = []
        for _ in range(sample_count):
            objective = [rng.randint(1, 64) for _ in range(d)]
            v, den = _as_integers(_optimize_over(Q, objective)[1], d)
            points.append((tuple(v), den))
        return points, 0, True
    den = lcm(*(x.denominator for v in verts for x in v))
    nums = [tuple(x.numerator * (den // x.denominator) for x in v) for v in verts]
    points = [(v, den) for v in nums]
    for _ in range(sample_count):
        w = rng.raw_weights(len(verts))
        points.append((tuple(sum(wi * v[i] for wi, v in zip(w, nums)) for i in range(d)),
                       sum(w) * den))
    return points, len(verts), False
