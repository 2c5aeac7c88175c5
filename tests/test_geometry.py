from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symbpow.results as R
from symbpow import lp
from symbpow.decomposition import MonomialPrime
from symbpow.errors import ResourceLimitError, VerificationError
from symbpow.geometry import (NewtonPolyhedron, _optimize_over, alpha_polyhedron,
                              caratheodory_decompose, component_facets,
                              enumerate_vertices, member_scaled,
                              newton_polyhedron, np_member,
                              realizing_denominator, stairs_member,
                              symbolic_polyhedron)
from symbpow.harness import check_stairs_containment
from symbpow.monomial import Monomial, MonomialIdeal, power

from conftest import ideal_of, random_squarefree_corpus

F = Fraction


def test_simplex_power_membership():
    # the polyhedron of (x, y) in three variables: a_0 + a_1 >= 1
    N = newton_polyhedron(ideal_of(3, (1, 0, 0), (0, 1, 0)))
    assert N.simplex_power == ((0, 1), 1)
    assert np_member(N, (1, 0, 0))
    assert np_member(N, (F(1, 3), F(2, 3), 5))
    assert not np_member(N, (0, F(1, 2), F(1, 2)))
    assert not np_member(N, (-1, 3, 0))


def test_general_membership_via_lp():
    # conv{(2,0), (0,1)} + orthant:  x + 2y >= 2
    N = newton_polyhedron(ideal_of(2, (2, 0), (0, 1)))
    assert N.simplex_power is None
    assert np_member(N, (2, 0))
    assert np_member(N, (1, F(1, 2)))
    assert np_member(N, (0, 10))
    assert not np_member(N, (1, F(1, 4)))


def test_component_facets_frozen():
    N = newton_polyhedron(ideal_of(2, (2, 0), (0, 1)))
    facets = component_facets(N)
    assert ((F(1), F(2)), F(2)) in facets  # x + 2y >= 2
    # plus the valid supporting bounds x >= 0 and y >= 0
    for normal, offset in facets:
        assert all(x >= 0 for x in normal)
        assert offset >= 0


def test_symbolic_polyhedron_components(rot3):
    Q = symbolic_polyhedron(rot3)
    assert [P.variables for P, _ in Q.components] == [(0, 1), (0, 2), (1, 2)]
    assert all(N.ambient_dim == 3 for _, N in Q.components)


def test_alpha_rot3(rot3):
    value, point = alpha_polyhedron(symbolic_polyhedron(rot3))
    assert value == F(2)
    assert point == (F(2, 3), F(2, 3), F(2, 3))


@pytest.mark.parametrize("status, solution", [
    (lp.UNBOUNDED, None),
    (lp.OPTIMAL, (F(0), F(0), F(0))),  # a point outside every component
])
def test_tampered_alpha_lp_raises(edges3, monkeypatch, status, solution):
    Q = symbolic_polyhedron(edges3)
    monkeypatch.setattr(lp, "solve", lambda prog: lp.LPResult(status, F(0), solution))
    with pytest.raises(VerificationError):
        _optimize_over(Q, [1, 1, 1])


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


def test_vertex_enumeration_budget():
    I = MonomialIdeal.make(7, [Monomial(tuple(1 if j == i else 0 for j in range(7)))
                               for i in range(7)])
    with pytest.raises(ResourceLimitError):
        enumerate_vertices(symbolic_polyhedron(I))


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


def test_realizing_denominator(rot3, triples4):
    assert realizing_denominator(rot3, (F(2, 3),) * 3) == 3
    assert realizing_denominator(triples4, (F(1, 2),) * 4) == 2


def test_stairs_member():
    I = ideal_of(2, (2, 0), (0, 1))
    assert stairs_member(I, (2, 0))
    assert stairs_member(I, (F(5, 2), F(1, 2)))
    assert not stairs_member(I, (F(3, 2), F(1, 2)))


def test_stairs_containment(rot3, triples4):
    for I in (rot3, triples4):
        for r in (1, 2):
            res = check_stairs_containment(I, r)
            assert res.verdict == R.HOLDS
            assert not res.details["sampled_only"]


def test_stairs_sampled_fallback(rot3):
    res = check_stairs_containment(rot3, 1, sample_count=4, max_facets=1)
    assert res.verdict == R.HOLDS
    assert res.details["sampled_only"]


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
