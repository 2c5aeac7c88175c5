from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import symbpow.results as R
from symbpow import cli, geometry, harness, lp
from symbpow.decomposition import MonomialPrime, _big_height
from symbpow.errors import ResourceLimitError, VerificationError
from symbpow.geometry import (_optimize_over, alpha_polyhedron,
                              enumerate_vertices, member_scaled,
                              newton_polyhedron, np_member, probe_points,
                              symbolic_polyhedron)
from symbpow.harness import check, run_suite
from symbpow.invariants import is_integrally_closed, waldschmidt, waldschmidt_point
from symbpow.monomial import Monomial, MonomialIdeal, multiply, power
from symbpow.rng import SplitRng

import oracles
from conftest import drop_facts, ideal_of, random_squarefree_corpus
from oracles import (caratheodory_decompose, convex_weights, np_member_lp,
                     realizing_denominator, stairs_member, unique_optimum)

F = Fraction


@pytest.fixture
def lower_max_rays(monkeypatch):
    """A setter of geometry.MAX_RAYS for one test.  _probe_vertices is a
    fact of Q alone and would keep a verdict reached under another
    budget, so it is dropped at each setting and on the way out."""
    def lower(value):
        drop_facts(geometry._probe_vertices)
        monkeypatch.setattr(geometry, "MAX_RAYS", value)
    yield lower
    drop_facts(geometry._probe_vertices)


def test_simplex_power_membership():
    # the polyhedron of (x, y) in three variables: a_0 + a_1 >= 1
    N = newton_polyhedron(ideal_of(3, (1, 0, 0), (0, 1, 0)))
    assert N.simplex_power == ((0, 1), 1)
    assert np_member(N, (1, 0, 0))
    assert np_member(N, (F(1, 3), F(2, 3), 5))
    assert not np_member(N, (0, F(1, 2), F(1, 2)))
    assert not np_member(N, (-1, 3, 0))


def test_general_membership_via_facets():
    # conv{(2,0), (0,1)} + orthant:  x + 2y >= 2
    N = newton_polyhedron(ideal_of(2, (2, 0), (0, 1)))
    assert N.simplex_power is None
    assert N.facets == (((1, 2), 2),)
    assert np_member(N, (2, 0))
    assert np_member(N, (1, F(1, 2)))
    assert np_member(N, (0, 10))
    assert not np_member(N, (1, F(1, 4)))


def test_component_facets_frozen():
    N = newton_polyhedron(ideal_of(2, (2, 0), (0, 1)))
    # x + 2y >= 2; the coordinate halfspaces are not listed
    assert N.facets == (((1, 2), 2),)
    # conv{(0,3,0), (1,1,0), (3,0,0)} + orthant: 2x + y >= 3 and x + 2y >= 3
    assert newton_polyhedron(TRIANGLE).facets == (((1, 2, 0), 3), ((2, 1, 0), 3))


def test_symbolic_polyhedron_components(rot3):
    Q = symbolic_polyhedron(rot3)
    assert [P.variables for P, _ in Q.components] == [(0, 1), (0, 2), (1, 2)]
    assert all(N.ambient_dim == 3 for _, N in Q.components)
    # no component is a prime power, so the alpha LP has one λ block each
    assert all(N.simplex_power is None for _, N in Q.components)
    assert Q.components[0][1].gens == ((0, 1, 0), (2, 0, 0))


def test_alpha_rot3(rot3):
    value, point = alpha_polyhedron(symbolic_polyhedron(rot3))
    assert value == F(2)
    assert point == (F(2, 3), F(2, 3), F(2, 3))


def _first_block(solution, transform):
    """rot3's V-block LP solution with its first λ block (columns 3 and 4,
    the generators (0,1,0) and (2,0,0) of the component on x, y) replaced."""
    return solution[:3] + transform(solution[3:5]) + solution[5:]


def _lambda_block(transform):
    return lambda r: r._replace(solution=_first_block(r.solution, transform))


# rot3's optimum (2/3, 2/3, 2/3) moved along x - z: the value stays 2, but
# y + 2z = 4/3 falls below the facet row y + 2z >= 2 of the component on y, z
_ESCAPED = (F(1), F(2, 3), F(1, 3))


@pytest.mark.parametrize("ideal, route, tamper, match", [
    ("edges3", "_optimize_over", lambda r: lp.LPResult(lp.INFEASIBLE, F(0), None),
     "ended infeasible"),
    # a point outside every component
    ("edges3", "_optimize_over", lambda r: lp.LPResult(lp.OPTIMAL, F(0), (F(0),) * 3),
     "escapes"),
    # the V-block LP, which breaks ties, checks its point through its λ blocks:
    # the first sums to 1/2, so G·λ stays below the point
    ("rot3", "_vblock_optimum", _lambda_block(lambda lam: tuple(w / 2 for w in lam)),
     "escapes"),
    # all weight on (0,1,0): G·λ is 1 > 2/3 in the y coordinate
    ("rot3", "_vblock_optimum", _lambda_block(lambda lam: (F(1), F(0))), "escapes"),
    # the point without its λ blocks, and one entry too many
    ("rot3", "_vblock_optimum", lambda r: r._replace(solution=r.solution[:3]), "entries"),
    ("rot3", "_vblock_optimum", lambda r: r._replace(solution=r.solution + (F(0),)),
     "entries"),
    # the facet-row LP checks its point against every facet row, its value
    # against c·point and its length against d
    ("rot3", "_optimize_over", lambda r: r._replace(solution=_ESCAPED), "escapes"),
    ("rot3", "_optimize_over", lambda r: r._replace(value=r.value + 1), "c.point"),
    ("rot3", "_optimize_over", lambda r: r._replace(solution=r.solution + (F(0),)),
     "entries"),
], ids=["infeasible-None", "optimal-solution1", "lambda-sum", "lambda-above-point",
        "only-d-entries", "extra-entry", "facet-row-escape", "value-not-c-point",
        "facet-extra-entry"])
def test_tampered_alpha_lp_raises(request, monkeypatch, ideal, route, tamper, match):
    """The facet-row LP of _optimize_over runs on lp.solve_ge, the V-block
    LP on lp.solve; each case tampers with the one its route checks."""
    Q = symbolic_polyhedron(request.getfixturevalue(ideal))
    entry = "solve_ge" if route == "_optimize_over" else "solve"
    solve = getattr(lp, entry)
    monkeypatch.setattr(lp, entry, lambda prog: tamper(solve(prog)))
    with pytest.raises(VerificationError, match=match):
        getattr(geometry, route)(Q, [1, 1, 1])


# sq10-5 of tests/cli_pins.py: every square-free monomial of degree 5 in 10
# variables, one component per 6-subset, so 210 facet rows
SQ10_5 = ideal_of(10, *(tuple(int(i in s) for i in range(10))
                        for s in combinations(range(10), 5)))


def test_alpha_lp_runs_in_one_phase(monkeypatch):
    """The facet-row LP of sq10-5 runs the dual simplex from the surplus
    basis: one tableau of 210 rows with no artificial column, and 58
    pivots, where the two-phase lp.solve adds 210 artificials and takes
    565.  A unique optimum never reaches lp.solve."""
    tableaus, pivots = [], []
    init, pivot = lp._Tableau.__init__, lp._Tableau._pivot

    def spy_init(self, prog):
        init(self, prog)
        tableaus.append(self)

    monkeypatch.setattr(lp._Tableau, "__init__", spy_init)
    monkeypatch.setattr(lp._Tableau, "_pivot",
                        lambda self, r, c: pivots.append(c) or pivot(self, r, c))
    monkeypatch.setattr(lp, "solve", None)
    assert _optimize_over(symbolic_polyhedron(SQ10_5), [1] * 10) == (F(5, 3), (F(1, 6),) * 10)
    [tableau] = tableaus
    assert len(tableau.rows) == 210
    assert tableau.ncols == tableau.n_free == 220
    assert len(pivots) == 58


def test_a_tie_break_must_reach_the_facet_value(monkeypatch):
    """At a tie the V-block LP's point is returned only with the value the
    facet-row LP proved: (x^2, y^2) has the whole edge x + y = 2 optimal."""
    Q = symbolic_polyhedron(ideal_of(2, (2, 0), (0, 2)))
    real = geometry._vblock_optimum
    assert _optimize_over(Q, [1, 1]) == real(Q, [1, 1]) == (2, (0, 2))
    monkeypatch.setattr(geometry, "_vblock_optimum",
                        lambda Q, objective: (real(Q, objective)[0] + 1, (F(0), F(3))))
    with pytest.raises(VerificationError, match="disagree"):
        _optimize_over(Q, [1, 1])


# g7a of tests/cli_pins.py, the 1st 7-variable ideal of the random.Random(5) draw
G7A = ideal_of(7, (3, 1, 5, 0, 1, 0, 2), (1, 0, 1, 4, 4, 3, 1), (0, 5, 1, 3, 2, 1, 3),
               (3, 1, 3, 4, 0, 4, 1), (5, 2, 5, 5, 5, 4, 0))


@pytest.mark.parametrize("drop_tables", [True, False], ids=["facet-tables", "certificate-cone"])
def test_alpha_over_budget_breaks_no_call(vblock_calls, lower_max_rays, drop_tables):
    """Where a facet table, or the certificate's cone, needs more rays than
    MAX_RAYS, waldschmidt and waldschmidt_point return the value and point
    of the default budget through the V-block LP, which needs no rays."""
    Q = symbolic_polyhedron(G7A)
    for _, N in Q.components:
        assert N.facets
    expected = waldschmidt(G7A), waldschmidt_point(G7A)
    assert vblock_calls == []
    lower_max_rays(4)
    if drop_tables:
        drop_facts(newton_polyhedron, symbolic_polyhedron)
        Q = symbolic_polyhedron(G7A)
    with pytest.raises(ResourceLimitError):
        geometry._facet_optimum(Q, [1] * 7)
    drop_facts(alpha_polyhedron)
    assert (waldschmidt(G7A), waldschmidt_point(G7A)) == expected
    assert vblock_calls == [Q]


def test_alpha_triples4(triples4):
    value, point = alpha_polyhedron(symbolic_polyhedron(triples4))
    assert value == F(2)
    assert point == (F(1, 2), F(1, 2), F(1, 2), F(1, 2))


def test_alpha_edges3(edges3):
    value, _ = alpha_polyhedron(symbolic_polyhedron(edges3))
    assert value == F(3, 2)


def test_vertices_rot3(rot3):
    verts = enumerate_vertices(symbolic_polyhedron(rot3))
    assert verts == (
        (F(0), F(1), F(2)),
        (F(2, 3), F(2, 3), F(2, 3)),
        (F(1), F(2), F(0)),
        (F(2), F(0), F(1)),
    )


def test_vertices_of_prime():
    I = ideal_of(3, (1, 0, 0), (0, 1, 0))
    verts = enumerate_vertices(symbolic_polyhedron(I))
    assert verts == ((F(0), F(1), F(0)), (F(1), F(0), F(0)))


def test_vertex_escaping_a_component_raises(rot3, monkeypatch):
    Q = symbolic_polyhedron(rot3)
    monkeypatch.setattr(geometry, "np_member", lambda N, a: False)
    with pytest.raises(VerificationError):
        enumerate_vertices(Q)


def test_vertex_enumeration_budget(lower_max_rays):
    # the edge ideal of the complete graph on 6 vertices: more than 16
    # vertices, so more than 16 rays; the budget raises instead of truncating
    I = ideal_of(6, *(tuple(int(k in (i, j)) for k in range(6))
                      for i in range(6) for j in range(i + 1, 6)))
    Q = symbolic_polyhedron(I)
    assert len(enumerate_vertices(Q)) > 16
    lower_max_rays(16)
    with pytest.raises(ResourceLimitError) as exc:
        enumerate_vertices(Q)
    assert exc.value.what == "double-description rays"
    assert exc.value.limit == 16


def test_vertex_enumeration_reads_the_certified_tables(monkeypatch, rot3):
    """Once every component's facet table is certified, enumerating the
    vertices of Q runs the double description of no component again."""
    calls = []
    real = geometry._facet_rays

    def counting(N):
        calls.append(N)
        return real(N)

    monkeypatch.setattr(geometry, "_facet_rays", counting)
    Q = symbolic_polyhedron(rot3)
    for _, N in Q.components:
        assert N.facets
    before = len(calls)
    assert enumerate_vertices(Q)
    assert len(calls) == before


def test_one_certified_facet_table_per_ideal(monkeypatch):
    """newton_polyhedron is keyed by value: three closure tests of one
    ideal certify its facet table once, and integrally_closed_bound reads
    the tables its localizations got as components of the symbolic
    polyhedron."""
    calls = []
    real = geometry._certified_facets
    monkeypatch.setattr(geometry, "_certified_facets",
                        lambda N, table: calls.append(N) or real(N, table))
    drop_facts(newton_polyhedron, symbolic_polyhedron)
    ic4 = ideal_of(4, (2, 4, 4, 0), (3, 4, 1, 4), (4, 1, 3, 0), (3, 2, 4, 4), (1, 4, 3, 3))
    for _ in range(3):
        is_integrally_closed(ic4)
    assert len(calls) == 1
    for _, N in symbolic_polyhedron(ic4).components:
        assert N.facets
    calls.clear()
    assert check("integrally_closed_bound", ic4).verdict == R.NOT_APPLICABLE
    assert calls == []


def _units(dim, scale=1):
    return [tuple(scale * int(i == j) for j in range(dim)) for i in range(dim)]


def test_maximal_ideal_in_7_variables_enumerates():
    I = MonomialIdeal.make(7, [Monomial(v) for v in _units(7)])
    assert enumerate_vertices(symbolic_polyhedron(I)) == tuple(sorted(
        tuple(F(x) for x in v) for v in _units(7)))


def test_product_polyhedra_in_8_and_7_variables():
    """(x0^2, x1)(x2, ..., x7) and (x0, ..., x3)(x4, x5, x6)^2: the two
    primes share no variable, so Q is the product of the two component
    polyhedra and its vertices are the sums of their vertices."""
    left = ideal_of(8, (2, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 0))
    right = ideal_of(8, *[(0, 0) + v for v in _units(6)])
    Q = symbolic_polyhedron(multiply(left, right))
    assert [N.simplex_power for _, N in Q.components] == [None, ((2, 3, 4, 5, 6, 7), 1)]
    assert enumerate_vertices(Q) == tuple(sorted(
        tuple(F(a + b) for a, b in zip(u.exponents, w.exponents))
        for u in left.gens for w in right.gens))
    left = ideal_of(7, *[u + (0, 0, 0) for u in _units(4)])
    right = ideal_of(7, *[(0, 0, 0, 0) + w for w in _units(3)])
    Q = symbolic_polyhedron(multiply(left, power(right, 2)))
    assert [N.simplex_power for _, N in Q.components] == [((0, 1, 2, 3), 1), ((4, 5, 6), 2)]
    assert enumerate_vertices(Q) == tuple(sorted(
        tuple(F(x) for x in u + w) for u in _units(4) for w in _units(3, 2)))


def test_member_scaled(rot3):
    Q = symbolic_polyhedron(rot3)
    assert member_scaled(Q, (2, 2, 2), 3)
    assert not member_scaled(Q, (1, 1, 1), 3)


def test_caratheodory_frozen(rot3):
    """Decomposing the optimal point over the (x^2, y) component forces
    weights 1/3 and 2/3 and a pure-z cone part."""
    N = newton_polyhedron(ideal_of(3, (0, 1, 0), (2, 0, 0)))
    P = MonomialPrime(3, (0, 1))
    deco = caratheodory_decompose(N, P, (F(2, 3), F(2, 3), F(2, 3)))
    assert dict(deco.weights) == {(0, 1, 0): F(2, 3), (2, 0, 0): F(1, 3)}
    assert deco.cone == (F(0), F(0), F(2, 3))
    assert deco.denominator() == 3


def test_caratheodory_weight_count(triples4):
    Q = symbolic_polyhedron(triples4)
    point = (F(1, 2),) * 4
    for P, N in Q.components:
        deco = caratheodory_decompose(N, P, point)
        assert len(deco.weights) <= P.height
        assert deco.reconstruction() == point


def test_caratheodory_rejects_outside_point():
    N = newton_polyhedron(ideal_of(2, (1, 0), (0, 1)))
    with pytest.raises(ValueError):
        caratheodory_decompose(N, MonomialPrime(2, (0, 1)), (F(1, 4), F(1, 4)))


def _decompose_recording_phase1(monkeypatch, N, P, point):
    """caratheodory_decompose, and how many convex weights its phase-1
    basic point makes positive (the last feasible_point call is that one;
    the ride, when it runs, is a plain lp.solve)."""
    feasible_point, points = oracles.feasible_point, []

    def recording(*args):
        points.append(feasible_point(*args))
        return points[-1]

    monkeypatch.setattr(oracles, "feasible_point", recording)
    deco = caratheodory_decompose(N, P, point)
    return deco, sum(1 for x in points[-1][:len(N.gens)] if x > 0)


def test_caratheodory_ride_frozen(monkeypatch):
    """The centroid (4/3, 4/3) of the triangle (0,3), (1,1), (3,0): phase 1
    weights all three corners, so the ride runs.  Riding down the x axis
    meets the edge from (0,3) to (1,1) at (5/6, 4/3), after t = 1/2."""
    N = newton_polyhedron(ideal_of(2, (0, 3), (1, 1), (3, 0)))
    deco, active = _decompose_recording_phase1(
        monkeypatch, N, MonomialPrime(2, (0, 1)), (F(4, 3), F(4, 3)))
    assert active == 3
    assert deco.weights == (((0, 3), F(1, 6)), ((1, 1), F(5, 6)))
    assert deco.cone == (F(1, 2), F(0))
    assert deco.denominator() == 6


def _counting_lp_solves(monkeypatch):
    solve, calls = lp.solve, []

    def counting(program):
        calls.append(program)
        return solve(program)

    monkeypatch.setattr(lp, "solve", counting)
    return calls


TRIANGLE = ideal_of(3, (0, 3, 0), (1, 1, 0), (3, 0, 0))


@pytest.mark.parametrize("point, lps", [((F(4, 3), F(4, 3), 2), 2),
                                        ((0, 3, 0), 1)],
                         ids=["ride", "vertex"])
def test_caratheodory_lp_count(monkeypatch, point, lps):
    """Phase 1 alone decides membership: one LP per decomposition, two
    when the ride runs."""
    N, P = newton_polyhedron(TRIANGLE), MonomialPrime(3, (0, 1))
    calls = _counting_lp_solves(monkeypatch)
    assert caratheodory_decompose(N, P, point).reconstruction() == point
    assert len(calls) == lps


@pytest.mark.parametrize("point, lps", [((F(1, 2), F(1, 2), 0), 1),
                                        ((F(4, 3), F(4, 3), -1), 0)],
                         ids=["infeasible-phase-1", "negative-outside"])
def test_caratheodory_rejects_outside_triangle(monkeypatch, point, lps):
    N, P = newton_polyhedron(TRIANGLE), MonomialPrime(3, (0, 1))
    calls = _counting_lp_solves(monkeypatch)
    with pytest.raises(ValueError, match="outside the Newton polyhedron"):
        caratheodory_decompose(N, P, point)
    assert len(calls) == lps
    assert not np_member(N, point)


# (variables, prime, generators, point, weights, orthant part) of rides as
# the former Gauss-Jordan ride returned them, before the ride became an LP.
# Three per (variables, prime height) pair, from a random corpus of
# symbolic polyhedron components of 2-5-variable ideals and of Newton
# polyhedra of h + 1 generators on a prime of height h.
PINNED_RIDES = [
    (2, (0, 1), [(1, 4), (2, 2), (5, 0)],
     ("22/9", "2"),
     {(2, 2): "1"},
     ("4/9", "0")),
    (2, (0, 1), [(2, 5), (4, 2), (5, 0)],
     ("59/15", "2"),
     {(2, 5): "2/5", (5, 0): "3/5"},
     ("2/15", "0")),
    (2, (0, 1), [(0, 3), (1, 2), (2, 0)],
     ("12/7", "1/2"),
     {(0, 3): "1/6", (2, 0): "5/6"},
     ("1/21", "0")),
    (3, (1, 2), [(0, 1, 5), (0, 3, 2), (0, 5, 0)],
     ("0", "23/7", "2"),
     {(0, 3, 2): "1"},
     ("0", "2/7", "0")),
    (3, (0, 2), [(0, 0, 5), (1, 0, 4), (4, 0, 2)],
     ("2", "0", "24/7"),
     {(1, 0, 4): "5/7", (4, 0, 2): "2/7"},
     ("1/7", "0", "0")),
    (3, (1, 2), [(0, 1, 4), (0, 2, 2), (0, 5, 0)],
     ("0", "2", "18/7"),
     {(0, 1, 4): "2/7", (0, 2, 2): "5/7"},
     ("0", "2/7", "0")),
    (3, (0, 1, 2), [(0, 1, 3), (1, 3, 1), (2, 1, 1), (2, 5, 0)],
     ("22/15", "11/3", "2/3"),
     {(1, 3, 1): "2/3", (2, 5, 0): "1/3"},
     ("2/15", "0", "0")),
    (3, (0, 1, 2), [(0, 0, 4), (0, 5, 3), (1, 0, 2), (4, 0, 0)],
     ("1", "60/31", "74/31"),
     {(0, 5, 3): "12/31", (1, 0, 2): "19/31"},
     ("12/31", "0", "0")),
    (3, (0, 1, 2), [(0, 2, 2), (1, 2, 1), (4, 1, 4), (5, 1, 0)],
     ("79/32", "25/16", "9/8"),
     {(0, 2, 2): "9/16", (5, 1, 0): "7/16"},
     ("9/32", "0", "0")),
    (4, (1, 2), [(0, 0, 4, 0), (0, 1, 2, 0), (0, 4, 0, 0)],
     ("0", "19/11", "2", "0"),
     {(0, 1, 2, 0): "1"},
     ("0", "8/11", "0", "0")),
    (4, (2, 3), [(0, 0, 0, 5), (0, 0, 2, 2), (0, 0, 4, 1)],
     ("0", "0", "7/4", "3"),
     {(0, 0, 0, 5): "1/3", (0, 0, 2, 2): "2/3"},
     ("0", "0", "5/12", "0")),
    (4, (0, 1), [(0, 5, 0, 0), (2, 4, 0, 0), (5, 1, 0, 0)],
     ("1", "13/3", "0", "0"),
     {(0, 5, 0, 0): "5/6", (5, 1, 0, 0): "1/6"},
     ("1/6", "0", "0", "0")),
    (4, (0, 1, 3), [(2, 5, 0, 0), (3, 3, 0, 1), (4, 1, 0, 1), (5, 0, 0, 2)],
     ("83/24", "19/8", "0", "1"),
     {(3, 3, 0, 1): "11/16", (4, 1, 0, 1): "5/16"},
     ("7/48", "0", "0", "0")),
    (4, (0, 1, 2), [(1, 2, 4, 0), (1, 5, 1, 0), (4, 1, 5, 0), (4, 3, 2, 0)],
     ("2", "41/12", "7/3", "0"),
     {(1, 2, 4, 0): "13/36", (1, 5, 1, 0): "7/18", (4, 3, 2, 0): "1/4"},
     ("1/4", "0", "0", "0")),
    (4, (1, 2, 3), [(0, 1, 2, 1), (0, 2, 1, 2), (0, 4, 0, 1), (0, 4, 1, 0)],
     ("0", "25/12", "4/3", "7/6"),
     {(0, 1, 2, 1): "7/12", (0, 2, 1, 2): "1/6", (0, 4, 0, 1): "1/4"},
     ("0", "1/6", "0", "0")),
    (4, (0, 1, 2, 3), [(0, 3, 3, 1), (4, 3, 1, 3), (4, 4, 0, 5), (5, 0, 3, 3),
                       (5, 1, 1, 5)],
     ("3", "53/28", "16/7", "37/14"),
     {(0, 3, 3, 1): "13/28", (4, 3, 1, 3): "1/14", (5, 0, 3, 3): "5/28",
      (5, 1, 1, 5): "2/7"},
     ("11/28", "0", "0", "0")),
    (4, (0, 1, 2, 3), [(2, 3, 2, 2), (3, 0, 2, 3), (3, 3, 5, 1), (3, 4, 1, 4),
                       (4, 4, 5, 0)],
     ("83/28", "17/7", "22/7", "12/7"),
     {(2, 3, 2, 2): "8/21", (3, 0, 2, 3): "5/21", (3, 3, 5, 1): "5/21",
      (4, 4, 5, 0): "1/7"},
     ("17/84", "0", "0", "0")),
    (4, (0, 1, 2, 3), [(0, 1, 5, 4), (0, 2, 5, 1), (1, 1, 5, 2), (2, 5, 0, 1),
                       (5, 5, 1, 0)],
     ("9/8", "19/8", "63/16", "29/16"),
     {(0, 1, 5, 4): "9/32", (0, 2, 5, 1): "1/2", (2, 5, 0, 1): "3/16",
      (5, 5, 1, 0): "1/32"},
     ("19/32", "0", "0", "0")),
    (5, (0, 3), [(1, 0, 0, 5, 0), (2, 0, 0, 4, 0), (5, 0, 0, 3, 0)],
     ("39/14", "0", "0", "4", "0"),
     {(2, 0, 0, 4, 0): "1"},
     ("11/14", "0", "0", "0", "0")),
    (5, (1, 2), [(0, 2, 5, 0, 0), (0, 4, 4, 0, 0), (0, 5, 1, 0, 0)],
     ("0", "27/8", "4", "0", "0"),
     {(0, 2, 5, 0, 0): "3/4", (0, 5, 1, 0, 0): "1/4"},
     ("0", "5/8", "0", "0", "0")),
    (5, (0, 4), [(0, 0, 0, 0, 3), (1, 0, 0, 0, 2), (5, 0, 0, 0, 0)],
     ("7/8", "0", "0", "0", "9/4"),
     {(0, 0, 0, 0, 3): "1/4", (1, 0, 0, 0, 2): "3/4"},
     ("1/8", "0", "0", "0", "0")),
    (5, (1, 2, 4), [(0, 0, 3, 0, 3), (0, 1, 1, 0, 4), (0, 1, 4, 0, 1),
                    (0, 2, 1, 0, 1)],
     ("14/19", "26/19", "32/19", "11/19", "32/19"),
     {(0, 0, 3, 0, 3): "13/38", (0, 2, 1, 0, 1): "25/38"},
     ("14/19", "1/19", "0", "11/19", "0")),
    (5, (0, 3, 4), [(1, 0, 0, 1, 4), (3, 0, 0, 2, 3), (3, 0, 0, 3, 1),
                    (4, 0, 0, 0, 5)],
     ("5/2", "0", "0", "1", "27/7"),
     {(1, 0, 0, 1, 4): "4/7", (3, 0, 0, 3, 1): "1/7", (4, 0, 0, 0, 5): "2/7"},
     ("5/14", "0", "0", "0", "0")),
    (5, (0, 2, 3), [(0, 0, 3, 3, 0), (2, 0, 5, 1, 0), (3, 0, 1, 3, 0),
                    (4, 0, 0, 0, 0)],
     ("43/25", "0", "3", "9/5", "0"),
     {(0, 0, 3, 3, 0): "1/2", (2, 0, 5, 1, 0): "3/10", (4, 0, 0, 0, 0): "1/5"},
     ("8/25", "0", "0", "0", "0")),
    (5, (0, 2, 3, 4), [(0, 0, 1, 0, 4), (1, 0, 0, 4, 5), (2, 0, 3, 3, 2),
                       (3, 0, 0, 1, 2), (3, 0, 1, 0, 3)],
     ("15/8", "0", "3/4", "5/4", "3"),
     {(0, 0, 1, 0, 4): "15/44", (1, 0, 0, 4, 5): "7/66", (2, 0, 3, 3, 2): "3/22",
      (3, 0, 0, 1, 2): "5/12"},
     ("65/264", "0", "0", "0", "0")),
    (5, (0, 1, 2, 4), [(1, 1, 1, 0, 4), (1, 4, 4, 0, 1), (2, 5, 3, 0, 1),
                       (3, 0, 1, 0, 3), (4, 5, 4, 0, 0)],
     ("20/9", "101/36", "22/9", "0", "2"),
     {(1, 1, 1, 0, 4): "1/6", (1, 4, 4, 0, 1): "5/18", (2, 5, 3, 0, 1): "11/36",
      (3, 0, 1, 0, 3): "1/4"},
     ("5/12", "0", "0", "0", "0")),
    (5, (0, 2, 3, 4), [(0, 0, 1, 3, 4), (2, 0, 2, 2, 5), (2, 0, 4, 0, 5),
                       (3, 0, 0, 0, 5), (5, 0, 1, 1, 4)],
     ("94/31", "0", "41/31", "1", "142/31"),
     {(0, 0, 1, 3, 4): "9/31", (2, 0, 4, 0, 5): "7/31", (3, 0, 0, 0, 5): "11/31",
      (5, 0, 1, 1, 4): "4/31"},
     ("27/31", "0", "0", "0", "0")),
    (5, (0, 1, 2, 3, 4), [(1, 1, 5, 4, 4), (1, 4, 5, 0, 3), (2, 0, 3, 0, 0),
                          (2, 3, 0, 2, 2), (3, 1, 0, 3, 1), (5, 1, 1, 1, 0)],
     ("3", "35/26", "30/13", "33/26", "29/26"),
     {(1, 1, 5, 4, 4): "1/13", (1, 4, 5, 0, 3): "5/26", (2, 0, 3, 0, 0): "3/13",
      (3, 1, 0, 3, 1): "3/13", (5, 1, 1, 1, 0): "7/26"},
     ("3/13", "0", "0", "0", "0")),
    (5, (0, 1, 2, 3, 4), [(0, 3, 1, 1, 4), (0, 4, 3, 1, 1), (1, 0, 5, 2, 4),
                          (1, 1, 4, 5, 1), (3, 0, 3, 3, 1), (3, 2, 0, 0, 0)],
     ("27/22", "29/22", "32/11", "5/2", "51/22"),
     {(0, 3, 1, 1, 4): "8/33", (1, 0, 5, 2, 4): "8/33", (1, 1, 4, 5, 1): "7/22",
      (3, 0, 3, 3, 1): "2/33", (3, 2, 0, 0, 0): "3/22"},
     ("5/66", "0", "0", "0", "0")),
    (5, (0, 1, 2, 3, 4), [(0, 4, 4, 0, 2), (0, 5, 1, 4, 3), (2, 1, 5, 0, 0),
                          (2, 4, 0, 0, 4), (4, 3, 2, 0, 4), (5, 0, 2, 2, 1)],
     ("9/5", "71/20", "43/20", "6/5", "23/8"),
     {(0, 4, 4, 0, 2): "89/720", (0, 5, 1, 4, 3): "3/10", (2, 1, 5, 0, 0): "13/90",
      (2, 4, 0, 0, 4): "83/720", (4, 3, 2, 0, 4): "19/60"},
     ("1/72", "0", "0", "0", "0")),
]


@pytest.mark.parametrize("dim, prime, gens, point, weights, cone", PINNED_RIDES)
def test_caratheodory_ride_is_pinned(monkeypatch, dim, prime, gens, point, weights, cone):
    N = newton_polyhedron(ideal_of(dim, *gens))
    deco, active = _decompose_recording_phase1(
        monkeypatch, N, MonomialPrime(dim, prime), tuple(F(x) for x in point))
    assert active == len(prime) + 1
    assert deco.weights == tuple((v, F(w)) for v, w in weights.items())
    assert deco.cone == tuple(F(x) for x in cone)


def test_realizing_denominator(rot3, triples4):
    assert realizing_denominator(rot3, (F(2, 3),) * 3) == 3
    assert realizing_denominator(triples4, (F(1, 2),) * 4) == 2


class _Index:
    """An exact integer that is no int: operator.index reads it."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize("call", [
    lambda N, Q: np_member(N, (0.1, 1, 1)),
    lambda N, Q: np_member(N, ("1", 1, 1)),
    lambda N, Q: np_member(N, (1.0, 1, 1)),
    lambda N, Q: member_scaled(Q, (1, 1, 1), 0.5),
    lambda N, Q: member_scaled(Q, (2, 2, 2), "3"),
    lambda N, Q: member_scaled(Q, (F(1, 2), 2.5, 2), 1),
], ids=["float", "string", "integral-float", "float-scale", "string-scale",
        "float-coordinate"])
def test_geometry_refuses_inexact_numbers(rot3, call):
    """A coordinate or scale is a Fraction or what operator.index reads, as
    an exponent of a Monomial is: a float or a string is refused, not read
    through Fraction."""
    Q = symbolic_polyhedron(rot3)
    with pytest.raises(ValueError, match="inexact number"):
        call(Q.components[0][1], Q)


def test_geometry_reads_what_operator_index_reads(rot3):
    Q = symbolic_polyhedron(rot3)
    N = Q.components[0][1]
    assert np_member(N, (_Index(2), 0, 0)) == np_member(N, (2, 0, 0)) is True
    assert member_scaled(Q, (2, 2, 2), _Index(3)) == member_scaled(Q, (2, 2, 2), 3)
    assert member_scaled(Q, (_Index(1), 1, 1), F(3, 2))


def test_stairs_member():
    I = ideal_of(2, (2, 0), (0, 1))
    assert stairs_member(I, (2, 0))
    assert stairs_member(I, (F(5, 2), F(1, 2)))
    assert not stairs_member(I, (F(3, 2), F(1, 2)))


def test_probe_points_are_exact_convex_combinations(rot3, monkeypatch, lower_max_rays):
    """Integer numerators over a denominator: every vertex, then convex
    combinations with the weights convex_weights draws from the same
    stream; over the ray budget, LP optima of the same objectives."""
    Q = symbolic_polyhedron(rot3)
    verts = enumerate_vertices(Q)
    rng = SplitRng(0, ("stairs", 2))
    combos = [tuple(sum(wi * v[i] for wi, v in zip(w, verts)) for i in range(3))
              for w in (convex_weights(rng, len(verts)) for _ in range(8))]
    points, count, sampled = probe_points(Q, SplitRng(0, ("stairs", 2)))
    assert (count, sampled) == (len(verts), False)
    assert [tuple(F(x, den) for x in v) for v, den in points] == list(verts) + combos
    rng = SplitRng(0, ("stairs", 1))
    optima = [_optimize_over(Q, [rng.randint(1, 64) for _ in range(3)])[1] for _ in range(4)]
    monkeypatch.setattr(geometry, "PROBE_SAMPLES", 4)
    lower_max_rays(1)
    points, count, sampled = probe_points(Q, SplitRng(0, ("stairs", 1)))
    assert (count, sampled) == (0, True)
    assert [tuple(F(x, den) for x in v) for v, den in points] == optima


def test_stairs_witness_is_the_first_point_outside(monkeypatch, rot3):
    """With I^r swapped for I^(r+1) the stairs row fails, and its witness is
    the first probe point p with e*r*p outside that staircase, found here
    with Fractions."""
    monkeypatch.setattr(harness, "power", lambda I, r: power(I, r + 1))
    res = check("stairs", rot3, {"r": 1})
    assert res.verdict == R.FAILS
    points, _, _ = probe_points(symbolic_polyhedron(rot3), SplitRng(0, ("stairs", 1)))
    e, J = _big_height(rot3), power(rot3, 2)
    bad = next(p for p in ([F(x, den) for x in v] for v, den in points)
               if not stairs_member(J, [e * x for x in p]))
    assert res.details["witness_point"] == bad


def test_the_suite_seed_reaches_every_stairs_row(monkeypatch, rot3):
    """run_suite(seed=5) samples the stairs row at r from SplitRng(5,
    ("stairs", r)) and reports the seed on every row; with I^r swapped for
    I^(r+1), a failing row's witness is the first of those probe points p
    with e*r*p outside the staircase."""
    monkeypatch.setattr(harness, "power", lambda I, r: power(I, r + 1))
    streams = []
    monkeypatch.setattr(harness, "probe_points",
                        lambda Q, rng: streams.append((rng.seed, rng.path))
                        or probe_points(Q, rng))
    report = run_suite(rot3, checks=("stairs",), seed=5)
    assert [res.details["seed"] for res in report.results] == [5, 5, 5]
    assert streams == [(5, ("stairs", str(r))) for r in (1, 2, 3)]
    Q, e = symbolic_polyhedron(rot3), _big_height(rot3)
    failed = [res for res in report.results if res.verdict == R.FAILS]
    assert failed
    for res in failed:
        r = res.params["r"]
        points, _, _ = probe_points(Q, SplitRng(5, ("stairs", r)))
        J = power(rot3, r + 1)
        bad = next(p for p in ([F(x, den) for x in v] for v, den in points)
                   if not stairs_member(J, [e * r * x for x in p]))
        assert res.details["witness_point"] == bad


def test_stairs_containment(rot3, triples4):
    for I in (rot3, triples4):
        for r in (1, 2):
            res = check("stairs", I, {"r": r})
            assert res.verdict == R.HOLDS
            assert not res.details["sampled_only"]


def test_stairs_sampled_fallback(rot3, monkeypatch, lower_max_rays):
    monkeypatch.setattr(geometry, "PROBE_SAMPLES", 4)
    lower_max_rays(1)
    res = check("stairs", rot3, {"r": 1})
    assert res.verdict == R.HOLDS
    assert res.details["sampled_only"]
    assert res.details["samples"] == 4


@pytest.mark.parametrize("num, verdict", [(2 * 10 ** 20 - 1, R.FAILS), (2 * 10 ** 20, R.HOLDS)],
                         ids=["just-below", "on"])
def test_stairs_floors_a_point_just_below_an_integer(monkeypatch, rot3, num, verdict):
    """The stairs row asks the staircase at the floor of e*r*p.  Here e*r*p
    is (num / 10^20, 0, 0): 2 - 10^-20 lies above no generator, though
    a float would round it to 2, which does."""
    e = _big_height(rot3)
    monkeypatch.setattr(harness, "power", lambda I, r: ideal_of(3, (2, 0, 0), (0, 1, 1)))
    monkeypatch.setattr(harness, "probe_points",
                        lambda Q, rng: ([((num, 0, 0), e * 10 ** 20)], 1, False))
    res = check("stairs", rot3, {"r": 1})
    assert res.verdict == verdict
    if verdict == R.FAILS:
        assert res.details["witness_point"] == [F(num, e * 10 ** 20), F(0), F(0)]


# ---------------------------------------------------------------------------
# properties


@given(st.lists(st.lists(st.integers(min_value=0, max_value=4), min_size=3,
                         max_size=3).filter(lambda v: sum(v) > 0),
                min_size=1, max_size=4))
@settings(max_examples=50)
def test_membership_is_upward_closed(vecs):
    N = newton_polyhedron(ideal_of(3, *vecs))
    base = N.gens[0]
    assert np_member(N, base)
    bumped = tuple(x + 1 for x in base)
    assert np_member(N, bumped)


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=1, max_value=5))
def test_cone_scaling(num, den):
    """Scaling a polyhedron point by lambda >= 1 stays inside."""
    N = newton_polyhedron(ideal_of(2, (2, 0), (0, 1)))
    pt = (F(2) + F(num, den), F(0))
    assert np_member(N, pt)


def _rank(rows) -> int:
    """Exact rank of rational rows, by Gaussian elimination over Fractions."""
    rows = [[F(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] / rows[rank][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_rank_helper():
    assert _rank([[1, 1, 1]]) == 1
    assert _rank([[1, 0], [0, 1]]) == 2
    assert _rank([[1, 2], [2, 4], [3, 6]]) == 1
    assert _rank([[0, 0, 1], [0, 1, 0], [0, 1, 1]]) == 2
    assert _rank([]) == 0


def _ideals(max_exp):
    return st.integers(min_value=2, max_value=5).flatmap(lambda d: st.lists(
        st.lists(st.integers(min_value=0, max_value=max_exp), min_size=d,
                 max_size=d).filter(any),
        min_size=1, max_size=5).map(lambda vecs: ideal_of(d, *vecs)))


@given(st.one_of(_ideals(1), _ideals(3)),
       st.lists(st.integers(min_value=1, max_value=9), min_size=5, max_size=5))
@settings(max_examples=150, deadline=None)
def test_double_description_against_oracles(I, weights):
    """Facets are valid on the generators and tight at one of them; vertices
    lie in every component and are tight on d linearly independent rows
    (facets and coordinate halfspaces); the least value of a positive
    objective over the vertices is the LP optimum."""
    Q = symbolic_polyhedron(I)
    d = Q.ambient_dim
    rows = [(tuple(F(int(i == j)) for j in range(d)), F(0)) for i in range(d)]
    for _, N in Q.components:
        facets = N.facets
        assert facets
        for normal, offset in facets:
            assert offset > 0
            assert min(sum(n * e for n, e in zip(normal, g)) for g in N.gens) == offset
        rows += facets
    verts = enumerate_vertices(Q)
    for v in verts:
        assert all(np_member_lp(N, v) for _, N in Q.components)
        tight = [list(n) for n, c in rows if sum(a * x for a, x in zip(n, v)) == c]
        assert _rank(tight) == d
    objective = weights[:d]
    assert (min(sum(c * x for c, x in zip(objective, v)) for v in verts)
            == _optimize_over(Q, objective)[0])


@st.composite
def _ideal_and_objective(draw):
    """A general ideal in 2-6 variables, with the objective 1 or one drawn
    as probe_points draws its objectives, each entry in 1-64."""
    d = draw(st.integers(min_value=2, max_value=6))
    vector = st.lists(st.integers(min_value=0, max_value=4), min_size=d, max_size=d)
    I = ideal_of(d, *draw(st.lists(vector.filter(any), min_size=1, max_size=5)))
    ones = draw(st.booleans())
    return I, [1] * d if ones else draw(st.lists(st.integers(1, 64), min_size=d, max_size=d))


def _ties(*ideals):
    """Ideals whose Waldschmidt point is a tie that the V-block LP breaks."""
    def decorate(test):
        for dim, gens in reversed(ideals):
            test = example((ideal_of(dim, *gens), [1] * dim))(test)
        return test
    return decorate


@_ties((2, [(500, 0), (0, 500)]),  # x500.ideal of tests/cli_pins.py
       (2, [(2, 0), (0, 2)]),
       (3, [(2, 1, 0), (1, 2, 0), (0, 0, 3)]),
       (5, [(3, 2, 1, 0, 4), (5, 2, 0, 1, 2)]),  # v5-07 of the Waldschmidt corpus
       (5, [(2, 1, 0, 2, 4), (5, 3, 1, 0, 0), (3, 2, 1, 5, 1), (1, 4, 1, 5, 3),
            (2, 1, 4, 5, 3)]),  # v5-20
       (5, [(0, 2, 3, 1, 0), (4, 0, 1, 1, 0), (0, 0, 5, 2, 2), (2, 0, 2, 5, 5)]),  # v5-23
       (3, [(1, 3, 2), (3, 1, 2)]))  # the seeded_general file of cli-desk at seed 1
@given(_ideal_and_objective())
@settings(max_examples=100, deadline=None)
def test_unique_optimum_certificate_against_vertices(case):
    """The tangent-cone certificate calls the facet-row LP's point the only
    optimum exactly when one vertex of Q reaches the least value, and a
    point it certifies is the V-block LP's point."""
    I, objective = case
    Q = symbolic_polyhedron(I)
    try:
        expected = unique_optimum(Q, objective)
        _, point, unique = geometry._facet_optimum(Q, objective)
    except ResourceLimitError:
        reject()
    assert unique == expected
    if unique:
        assert point == geometry._vblock_optimum(Q, objective)[1]


def _prime_powers():
    """(P_S)^m for a random variable subset S of 2-5 variables, m <= 3."""
    return st.integers(min_value=2, max_value=5).flatmap(lambda d: st.tuples(
        st.sets(st.integers(min_value=0, max_value=d - 1), min_size=1),
        st.integers(min_value=1, max_value=3)).map(lambda sm: power(
            ideal_of(d, *(tuple(int(i == j) for i in range(d)) for j in sm[0])),
            sm[1])))


@given(st.one_of(_ideals(3), _prime_powers()), st.data())
@settings(max_examples=100, deadline=None)
def test_membership_against_lp_oracle(I, data):
    """np_member and member_scaled agree with one LP per point, on random
    points and on boundary points: generators, midpoints of two of them,
    and both shifted by +-1/k on one coordinate."""
    N = newton_polyhedron(I)
    d = N.ambient_dim
    g, h = data.draw(st.sampled_from(N.gens)), data.draw(st.sampled_from(N.gens))
    mid = tuple(F(a + b, 2) for a, b in zip(g, h))
    i = data.draw(st.integers(min_value=0, max_value=d - 1))
    step = F(data.draw(st.sampled_from((-1, 1))), data.draw(st.integers(1, 4)))
    shifted = [p[:i] + (p[i] + step,) + p[i + 1:] for p in (g, mid)]
    rand = tuple(data.draw(st.fractions(min_value=-1, max_value=6, max_denominator=6))
                 for _ in range(d))
    m = data.draw(st.fractions(min_value=F(1, 3), max_value=4, max_denominator=3))
    Q = symbolic_polyhedron(I)
    for p in [g, mid, rand, *shifted]:
        assert np_member(N, p) == np_member_lp(N, p), p
        assert member_scaled(Q, [m * x for x in p], m) == all(
            np_member_lp(C, p) for _, C in Q.components), (p, m)


@pytest.mark.parametrize("tamper", [
    lambda table: table[1:],
    lambda table: [(table[0][0], table[0][1] + 1)] + table[1:],
    lambda table: table + [((-1,) + table[0][0][1:], table[0][1])],
], ids=["drop-facet", "raise-offset", "negative-normal"])
def test_tampered_facet_table_raises(monkeypatch, tamper):
    """The certificate rejects a table that is not N's H-description at
    the first membership query."""
    real = geometry._facet_rays
    monkeypatch.setattr(geometry, "_facet_rays", lambda N: tamper(real(N)))
    drop_facts(newton_polyhedron)  # a known polyhedron may hold its table
    N = newton_polyhedron(TRIANGLE)
    with pytest.raises(VerificationError):
        np_member(N, (1, 1, 0))


def test_facet_table_over_budget_is_a_resource_limit(lower_max_rays, tmp_path):
    lower_max_rays(1)
    # fresh polyhedra: the known ones may hold a facet table already
    drop_facts(newton_polyhedron)
    with pytest.raises(ResourceLimitError):
        np_member(newton_polyhedron(TRIANGLE), (1, 1, 0))
    drop_facts(symbolic_polyhedron)
    res = check("polyhedron_bound", TRIANGLE, {"m": 2})
    assert res.verdict == R.RESOURCE_LIMIT
    assert "double-description rays" in res.details["reason"]
    # vertex enumeration meets the same budget, and the CLI exits 3
    path = tmp_path / "triangle.ideal"
    path.write_text("vars: x y z\ngens:\n  y^3\n  x*y\n  x^3\n")
    assert cli.main(["polyhedron", str(path), "--vertices"]) == 3


@pytest.mark.parametrize("seed", [3])
def test_caratheodory_reconstructs_on_corpus(seed):
    for I, _fam in random_squarefree_corpus(8, seed, dims=(3, 4)):
        Q = symbolic_polyhedron(I)
        _, point = alpha_polyhedron(Q)
        for P, N in Q.components:
            deco = caratheodory_decompose(N, P, point)
            assert deco.reconstruction() == point
            assert sum(w for _, w in deco.weights) == 1
            assert len(deco.weights) <= P.height
