import copy
import gc
import pickle
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symbpow import monomial
from symbpow.decomposition import IrreducibleComponent, MonomialPrime
from symbpow.errors import DimensionMismatchError
from symbpow.geometry import NewtonPolyhedron, SymbolicPolyhedron
from symbpow.monomial import (Monomial, MonomialIdeal, _bits, _divisor_index,
                              _from_vectors, _rows_below,
                              containment_witness, minimal_vectors,
                              contains, intersect,
                              is_squarefree, maximal_ideal, multiply, power,
                              radical, subset)
from symbpow.decomposition import localizations
from symbpow.invariants import waldschmidt
from symbpow.symbolic import symbolic_power

from conftest import drop_facts, ideal_of
from oracles import above_some, degree_monomials, pairwise_lcms, prime_power_oracle


def m(*exps):
    return Monomial(tuple(exps))


# ---------------------------------------------------------------------------
# Monomial basics


def test_monomial_has_no_product():
    with pytest.raises(TypeError):  # products of ideals work on exponent vectors
        m(1, 2) * m(2, 1)


def test_monomial_rejects_negative():
    with pytest.raises(ValueError):
        Monomial((1, -1))


@pytest.mark.parametrize("bad", [0.9, Fraction(3, 2), "3"])
def test_monomial_rejects_non_integer(bad):
    """No exponent is truncated or parsed: Monomial((0.9, 1)) once became
    (0, 1), and make(2, [it]) the ideal (y)."""
    with pytest.raises(ValueError, match=re.escape(f"non-integer exponent in {(bad, 1)!r}")):
        Monomial((bad, 1))


@pytest.mark.parametrize("make", [
    lambda: MonomialPrime(3, (1.5, 2.9)),  # once (x1, x2)
    lambda: MonomialPrime(3, ("1",)),
    lambda: MonomialPrime(3, (-1, 2)),
    lambda: MonomialPrime(3, (3,)),
    lambda: IrreducibleComponent(3, ((0, 2.7),)),  # once powers ((0, 2),)
    lambda: IrreducibleComponent(3, ((0, "2"),)),
    lambda: IrreducibleComponent(3, ((-1, 2),)),
    lambda: IrreducibleComponent(3, ((5, 2),)),  # once rendered as (1)
    lambda: IrreducibleComponent(3, ((0, 0),)),
    lambda: NewtonPolyhedron(2, ((0.5, 1), (2, 0))),  # once a TypeError in np_member
    lambda: NewtonPolyhedron(2, ((-1, 3), (2, 0))),  # once a VerificationError
    lambda: NewtonPolyhedron(2, (("1", 3),)),
    # once an ideal whose waldschmidt raised TypeError
    lambda: MonomialIdeal.make(2.0, [Monomial((1, 1)), Monomial((0, 2))]),
    lambda: MonomialIdeal.make(2.5, []),  # once a zero ideal of dimension 2.5
    lambda: MonomialPrime(2.5, (0,)),
    lambda: IrreducibleComponent(2.5, ((0, 1),)),
    lambda: NewtonPolyhedron(2.0, [(1, 1)]),
    lambda: MonomialIdeal.zero(2.5),
    lambda: MonomialIdeal.zero(-1),
    lambda: MonomialIdeal.unit(0),
    lambda: NewtonPolyhedron(0, [()]),
], ids=["prime-float", "prime-str", "prime-negative", "prime-out-of-range",
        "component-float", "component-str", "component-negative",
        "component-out-of-range", "component-zero-power", "newton-float",
        "newton-negative", "newton-str", "ideal-dim-float", "zero-ideal-dim-float",
        "prime-dim-float", "component-dim-float", "newton-dim-float",
        "zero-dim-float", "zero-dim-negative", "unit-dim-zero", "newton-dim-zero"])
def test_value_types_refuse_what_is_not_a_natural_in_range(make):
    """Every value type reads its integers, ambient_dim among them, as
    Monomial does: through operator.index, non-negative, and a variable
    inside the ring."""
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("read", [
    lambda I: power(I, -1),
    lambda I: symbolic_power(I, -1),
    lambda I: containment_witness(I, I, -1),
], ids=["power", "symbolic-power", "containment-gap"])
def test_a_negative_exponent_is_refused_by_name(read):
    I = ideal_of(2, (1, 1))
    with pytest.raises(ValueError, match=re.escape("negative exponent in (-1,)")):
        read(I)


VALUES = {
    "Monomial": lambda: Monomial((1, 2)),
    "MonomialPrime": lambda: MonomialPrime(3, (2, 0)),
    "IrreducibleComponent": lambda: IrreducibleComponent(3, ((2, 1), (0, 2))),
    "NewtonPolyhedron": lambda: NewtonPolyhedron(2, ((0, 2), (1, 0))),
    "SymbolicPolyhedron": lambda: SymbolicPolyhedron(2, (
        (MonomialPrime(2, (0, 1)), NewtonPolyhedron(2, ((1, 0), (0, 2)))),)),
}


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES)
def test_value_types_are_immutable_values(make):
    """Equal fields give equal objects with equal hashes, the hash of the
    field tuple; no field can be assigned or deleted."""
    a, b = make(), make()
    fields = tuple(getattr(a, name) for name in a._fields)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(fields)
    assert a != fields
    for name in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert tuple(getattr(a, name) for name in a._fields) == fields


def test_equal_ideals_are_one_interned_value(monkeypatch):
    """Equal ideals are one object, however built, whose hash is that of
    the field tuple, computed once when it was interned; no field can be
    assigned or deleted."""
    a, b = MonomialIdeal(2, ((1, 0), (0, 2))), ideal_of(2, (0, 2), (1, 0), (1, 2))
    fields = (a.ambient_dim, a.vectors)
    assert a is b and a == b and not a != b
    assert MonomialIdeal(2, ((1, 0), (0, 3))) is not a and MonomialIdeal(3, ()) is not a
    assert pickle.loads(pickle.dumps(a)) is a and copy.copy(a) is a and copy.deepcopy(a) is a
    reads = []
    values = MonomialIdeal._values
    monkeypatch.setattr(MonomialIdeal, "_values",
                        staticmethod(lambda obj: reads.append(obj) or values(obj)))
    assert hash(a) == hash(b) == hash(fields) and reads == []
    assert a != fields
    for name in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert (a.ambient_dim, a.vectors) == fields


def test_an_ideal_s_facts_go_with_it():
    """Facts are kept on the ideal, not beside it: once the caller drops
    an ideal whose symbolic powers, localizations and alpha are known, the
    cycle collector frees it, and the intern table forgets it."""
    I = ideal_of(3, (0, 7, 11), (5, 0, 11), (5, 7, 0), (3, 3, 3))
    assert symbolic_power(I, 3) and localizations(I) and waldschmidt(I)
    ref, key = weakref.ref(I), (I.ambient_dim, I.vectors)
    del I
    gc.collect()
    assert ref() is None and key not in MonomialIdeal._interned


def test_value_types_of_two_classes_differ():
    """The same field values in two classes are two different values."""
    I, N = ideal_of(2, (1, 0), (0, 1)), NewtonPolyhedron(2, ((1, 0), (0, 1)))
    assert (I.ambient_dim, I.vectors) == (N.ambient_dim, N.gens)
    assert I != N and N != I and len({I, N}) == 2


def test_value_types_print_their_fields():
    assert repr(Monomial((1, 2))) == "Monomial(exponents=(1, 2))"
    assert repr(MonomialPrime(3, (2, 0))) == "MonomialPrime(ambient_dim=3, variables=(0, 2))"
    assert repr(ideal_of(2, (0, 2), (1, 0))) == (
        "MonomialIdeal(ambient_dim=2, vectors=((1, 0), (0, 2)))")


def test_render():
    assert m(2, 1, 0).render(("x", "y", "z")) == "x^2*y"
    assert m(0, 0).render() == "1"


def test_render_refuses_a_wrong_number_of_names(rot3):
    """Two names for three exponents would render rot3 as
    (b, a*b, a*b^2, a^2): the name count must match the variable count."""
    assert rot3.render(["a", "b", "c"]) == "(b*c^2, a*b*c, a*b^2, a^2*c)"
    for names in (["a", "b"], ["a", "b", "c", "d"]):
        with pytest.raises(ValueError, match="variable names for 3 variables"):
            rot3.render(names)
        with pytest.raises(ValueError, match="variable names for 3 variables"):
            m(1, 0, 2).render(names)


# ---------------------------------------------------------------------------
# ideal construction and minimal generators


def test_make_minimalizes_and_sorts():
    I = ideal_of(2, (2, 0), (2, 1), (0, 3), (2, 0))
    # (x^2*y is divisible by x^2; duplicates collapse)
    assert I.vectors == ((2, 0), (0, 3))


def test_zero_and_unit():
    Z = MonomialIdeal.zero(3)
    U = MonomialIdeal.unit(3)
    assert Z.is_zero and Z.is_proper  # the zero ideal is proper
    assert U.is_unit and not U.is_proper
    assert ideal_of(3, (0, 0, 0), (1, 2, 0)).is_unit
    assert ideal_of(2, (1, 0)).is_proper


def test_contains_membership():
    I = ideal_of(2, (2, 0), (0, 1))
    assert contains(I, m(2, 5))
    assert contains(I, m(0, 1))
    assert not contains(I, m(1, 0))
    assert not contains(MonomialIdeal.zero(2), m(1, 0))
    assert contains(MonomialIdeal.unit(2), m(0, 0))


# exponents up to and past 2^64, and the zero and unit ideals
huge = st.one_of(st.integers(min_value=0, max_value=4),
                 st.integers(min_value=2 ** 64 - 2, max_value=2 ** 64 + 2))
huge_ideal = st.one_of(
    st.lists(st.lists(huge, min_size=3, max_size=3), min_size=1, max_size=6).map(
        lambda vs: MonomialIdeal.make(3, [Monomial(tuple(v)) for v in vs])),
    st.just(MonomialIdeal.zero(3)), st.just(MonomialIdeal.unit(3)))


@given(huge_ideal, st.lists(huge, min_size=3, max_size=3))
@example(MonomialIdeal.zero(3), [0, 0, 0])
@example(MonomialIdeal.unit(3), [0, 0, 0])
@example(ideal_of(3, (2 ** 64, 0, 1)), [2 ** 64 - 1, 0, 1])
@example(ideal_of(3, (2 ** 64, 0, 1)), [2 ** 64, 0, 1])
def test_staircase_kernel_matches_linear_scan(I, point):
    """contains and _in_staircase ask the containment kernel's index; the
    oracle scans every generator."""
    expected = above_some(I.vectors, point)
    assert monomial._in_staircase(I, point) == expected
    assert contains(I, Monomial(tuple(point))) == expected


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        intersect(ideal_of(2, (1, 0)), ideal_of(3, (1, 0, 0)))


# ---------------------------------------------------------------------------
# frozen arithmetic oracles


def test_intersect_known_values():
    x = ideal_of(2, (1, 0))
    y = ideal_of(2, (0, 1))
    assert intersect(x, y).vectors == ((1, 1),)
    # (x^2, y) cap (y^2, x) = (x*y, x^2, y^2) minimalized
    a = ideal_of(2, (2, 0), (0, 1))
    b = ideal_of(2, (0, 2), (1, 0))
    assert intersect(a, b).vectors == ((0, 2), (1, 1), (2, 0))


def test_intersect_three_primes(edges3):
    x_y = ideal_of(3, (1, 0, 0), (0, 1, 0))
    x_z = ideal_of(3, (1, 0, 0), (0, 0, 1))
    y_z = ideal_of(3, (0, 1, 0), (0, 0, 1))
    got = intersect(intersect(x_y, x_z), y_z)
    assert got == edges3


def test_power_known_value():
    I = ideal_of(2, (2, 0), (0, 1))
    cube = power(I, 3)
    assert cube.vectors == ((0, 3), (2, 2), (4, 1), (6, 0))


def test_power_edge_cases():
    I = ideal_of(2, (1, 1))
    assert power(I, 0).is_unit
    assert power(I, 1) == I
    assert power(MonomialIdeal.zero(2), 3).is_zero
    assert power(MonomialIdeal.unit(2), 3).is_unit


def test_power_reuses_lower_powers(monkeypatch):
    I = ideal_of(3, (2, 1, 0), (0, 1, 3), (1, 0, 1))
    drop_facts(monomial._powers_of)
    calls = []
    real_multiply = monomial.multiply
    monkeypatch.setattr(monomial, "multiply",
                        lambda A, B: calls.append(B) or real_multiply(A, B))
    cube = power(I, 3)
    assert power(I, 4) == real_multiply(cube, I)
    assert power(I, 2) == real_multiply(I, I)
    assert calls == [I, I, I]  # one product per step, I^2 and I^3 built once


def test_power_of_high_exponent_does_not_recurse():
    # far past the interpreter's recursion limit
    assert power(ideal_of(1, (2,)), 5000).vectors == ((10000,),)


def test_multiply():
    I = ideal_of(2, (1, 0))
    J = ideal_of(2, (0, 1), (2, 0))
    assert multiply(I, J).vectors == ((1, 1), (3, 0))
    assert multiply(I, MonomialIdeal.zero(2)).is_zero


def test_radical_and_squarefree(rot3):
    assert radical(rot3).vectors == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    assert not is_squarefree(rot3)
    assert is_squarefree(radical(rot3))


def test_subset():
    I = ideal_of(2, (2, 0), (0, 2))
    J = ideal_of(2, (1, 0), (0, 1))
    assert subset(I, J)
    assert not subset(J, I)
    assert subset(MonomialIdeal.zero(2), I)
    assert subset(I, MonomialIdeal.unit(2))


def _in_m_power_times(f, J, s):
    """f lies in m^s * J, asked of the kernel with a one-generator lhs."""
    return containment_witness(MonomialIdeal.make(J.ambient_dim, [f]), J, s) is None


def test_containment_with_m_degree_gap():
    J = ideal_of(3, (1, 1, 0))
    assert _in_m_power_times(m(2, 1, 0), J, 1)       # one spare degree
    assert not _in_m_power_times(m(1, 1, 0), J, 1)   # no room for m
    assert _in_m_power_times(m(1, 1, 0), J, 0)
    assert not _in_m_power_times(m(1, 0, 0), J, 0)


def test_simplex_power_recognition():
    P2 = power(ideal_of(3, (1, 0, 0), (0, 1, 0)), 2)
    assert P2.simplex_power == ((0, 1), 2)
    assert ideal_of(3, (2, 0, 0), (0, 1, 0)).simplex_power is None
    assert maximal_ideal(3).simplex_power == ((0, 1, 2), 1)


def test_degree_monomials_count():
    assert len(degree_monomials(3, 4)) == 15  # C(4+2, 2)


def test_huge_exponents_fall_back_to_python():
    big = 10 ** 30
    I = ideal_of(2, (big, 0), (0, big))
    J = ideal_of(2, (1, 1))
    assert intersect(I, J).vectors == ((1, big), (big, 1))
    assert power(I, 2).vectors == ((0, 2 * big), (big, big), (2 * big, 0))
    assert contains(I, m(big + 1, 0))


# ---------------------------------------------------------------------------
# property tests

small_vec = st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3)
small_ideal = st.lists(small_vec, min_size=1, max_size=5).map(
    lambda vs: MonomialIdeal.make(3, [Monomial(tuple(v)) for v in vs]))


@given(st.lists(small_vec, min_size=1, max_size=8))
def test_minimalize_idempotent_and_order_free(vecs):
    mons = [Monomial(tuple(v)) for v in vecs]
    once = MonomialIdeal.make(3, mons)
    assert MonomialIdeal.make(3, once.gens) == once
    assert MonomialIdeal.make(3, reversed(mons)) == once
    assert minimal_vectors(map(tuple, vecs)) == list(once.vectors)
    assert minimal_vectors(once.vectors) == list(once.vectors)
    assert minimal_vectors(map(tuple, reversed(vecs))) == list(once.vectors)


@given(small_ideal, small_ideal)
def test_intersect_commutes(I, J):
    assert intersect(I, J) == intersect(J, I)


@given(small_ideal, small_ideal, small_ideal)
@settings(max_examples=40)
def test_intersect_associates(I, J, K):
    assert intersect(intersect(I, J), K) == intersect(I, intersect(J, K))


@given(small_ideal, small_ideal)
def test_intersect_is_greatest_lower_bound(I, J):
    got = intersect(I, J)
    assert subset(got, I) and subset(got, J)
    for g in got.gens:
        assert contains(I, g) and contains(J, g)


@given(small_ideal, st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=2))
@settings(max_examples=40)
def test_power_is_additive(I, a, b):
    assert multiply(power(I, a), power(I, b)) == power(I, a + b)


@given(small_ideal, small_vec, st.integers(min_value=0, max_value=3))
def test_containment_with_m_matches_literal_product(I, vec, s):
    if not I.is_proper:
        return
    f = Monomial(tuple(vec))
    literal = multiply(power(maximal_ideal(3), s), I)
    assert _in_m_power_times(f, I, s) == above_some(literal.vectors, f.exponents)


@pytest.mark.parametrize("s", [1.0, 1.5, Fraction(1), "1"])
def test_containment_refuses_a_gap_that_is_not_an_int(s):
    """A float gap would round the degree test: x^(2^60) is not in
    m * (x^(2^60)), but deg - 1.0 rounds back up to 2^60."""
    A = ideal_of(1, (2 ** 60,))
    assert containment_witness(A, A, 1) == m(2 ** 60)
    with pytest.raises(ValueError, match="non-integer exponent"):
        containment_witness(A, A, s)


# all monomials of one degree 11..14 in three variables but at most ten:
# 68 to 120 generators, so the divisibility index over rhs holds masks of
# that many bits and each lhs generator meets many candidate divisors
wide_ideal = st.tuples(st.integers(min_value=11, max_value=14),
                       st.sets(st.integers(min_value=0, max_value=119), max_size=10)).map(
    lambda dd: MonomialIdeal.make(3, [g for i, g in enumerate(degree_monomials(3, dd[0]))
                                      if i not in dd[1]]))
# m^14 against the degree-10 monomials without x0^a*x1^(10-a), 3 <= a <= 7:
# 120 * 61 generators, and only x0^7*x1^7, mid-order, escapes
HOLE = MonomialIdeal.make(3, [g for g in degree_monomials(3, 10)
                              if not (g.exponents[2] == 0 and 3 <= g.exponents[0] <= 7)])


def _literal_witness(lhs, rhs, s):
    """First generator of lhs outside the literal product m^s * rhs."""
    literal = multiply(power(maximal_ideal(3), s), rhs)
    return next((f for f in lhs.gens if not above_some(literal.vectors, f.exponents)), None)


# the degree gap: x0^2*x1 has one spare degree over x0*x1, x0*x1 has none
@example(ideal_of(3, (2, 1, 0)), ideal_of(3, (1, 1, 0)), 1)
@example(ideal_of(3, (1, 1, 0)), ideal_of(3, (1, 1, 0)), 1)
@example(ideal_of(3, (1, 1, 0)), ideal_of(3, (1, 1, 0)), 0)
@example(ideal_of(3, (1, 0, 0)), ideal_of(3, (1, 1, 0)), 0)
@example(power(maximal_ideal(3), 14), HOLE, 4)
@example(power(maximal_ideal(3), 14), HOLE, 0)
@given(st.one_of(small_ideal, wide_ideal), st.one_of(small_ideal, wide_ideal),
       st.integers(min_value=0, max_value=4))
@settings(max_examples=150, deadline=None)
def test_containment_witness_matches_literal_product(lhs, rhs, s):
    expected = _literal_witness(lhs, rhs, s)
    assert containment_witness(lhs, rhs, s) == expected
    assert containment_witness(lhs, rhs, s) == expected  # asked again
    if s == 0:
        assert subset(lhs, rhs) == (expected is None)


def _spy(monkeypatch, name):
    """Every call of monomial.<name>, recorded by its arguments."""
    calls, real = [], getattr(monomial, name)
    monkeypatch.setattr(monomial, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_containment_is_answered_once_per_question(monkeypatch):
    """A repeated (lhs, rhs, s), even from new ideal objects of the same
    value, makes no index query; another s against the same rhs queries
    the index built for the first."""
    lhs = power(maximal_ideal(3), 14)
    drop_facts(containment_witness, _divisor_index)
    queries, builds = _spy(monkeypatch, "_first_outside"), _spy(monkeypatch, "_prefix_masks")
    witness = containment_witness(lhs, HOLE, 4)
    asked, built = len(queries), len(builds)
    assert witness == m(7, 7, 0) and asked and built
    assert containment_witness(lhs, HOLE, 4) == witness
    assert containment_witness(MonomialIdeal(3, lhs.vectors),
                               MonomialIdeal(3, HOLE.vectors), 4) == witness
    assert len(queries) == asked
    assert containment_witness(lhs, HOLE, 0) == witness
    assert len(queries) > asked and len(builds) == built


@st.composite
def walk_case(draw):
    """A question (lhs, rhs, s) in 4-6 variables.  lhs is, by the drawn
    kind, an ideal of its own, or rhs times m^t for t <= s + 1, whose
    generators share long prefixes and fall outside m^s * rhs only where
    t < s; on a drawn flag, every non-zero exponent e of both becomes
    2**64 + e, which keeps divisibility and moves every degree."""
    dim = draw(st.integers(min_value=4, max_value=6))
    vec = st.lists(st.integers(min_value=0, max_value=3), min_size=dim, max_size=dim).map(tuple)
    rhs = _from_vectors(dim, draw(st.lists(vec, min_size=1, max_size=6)))
    s = draw(st.integers(min_value=0, max_value=3))
    if draw(st.booleans()):
        lhs = _from_vectors(dim, draw(st.lists(vec, min_size=1, max_size=12)))
    else:
        t = draw(st.integers(min_value=0, max_value=s + 1))
        lhs = multiply(power(maximal_ideal(dim), t), rhs)
    if draw(st.booleans()):
        lhs, rhs = (_from_vectors(dim, [tuple(e and 2 ** 64 + e for e in v) for v in A.vectors])
                    for A in (lhs, rhs))
    return lhs, rhs, s


def _degree_ideal(dim, degree, leave_out=()):
    """Every monomial of one degree in dim variables but those left out."""
    return MonomialIdeal.make(dim, [g for g in degree_monomials(dim, degree)
                                    if g.exponents not in leave_out])


# m^5 against the degree-3 monomials without x2^a*x3^(3-a), in 6
# variables: the walk passes 20 generators that start (0, 0, 0) before
# x3^5, which resumes at the fourth column and whose AND empties at the
# sixth
@example((power(maximal_ideal(6), 5),
          _degree_ideal(6, 3, [(0, 0, a, 3 - a, 0, 0) for a in range(4)]), 2))
# every generator of m^4 inside m^2 * m^2 in 6 variables, then the same
# gap one short: the first generator is outside
@example((power(maximal_ideal(6), 4), power(maximal_ideal(6), 2), 2))
@example((power(maximal_ideal(6), 4), power(maximal_ideal(6), 2), 3))
# the last generator in canonical order is the only one outside
@example((power(maximal_ideal(4), 3), _degree_ideal(4, 2, [(2, 0, 0, 0)]), 1))
@given(walk_case())
@settings(max_examples=200, deadline=None)
def test_containment_walk_matches_literal_product_in_more_variables(case):
    """The prefix-sharing walk against the literal product m^s * rhs in 4-6
    variables, where consecutive generators share longer prefixes than in
    three."""
    lhs, rhs, s = case
    literal = multiply(power(maximal_ideal(lhs.ambient_dim), s), rhs)
    expected = next((f for f in lhs.gens if not above_some(literal.vectors, f.exponents)), None)
    assert containment_witness(lhs, rhs, s) == expected


def test_containment_in_the_zero_ideal():
    """The zero ideal holds no generator, so the walk's first vector is
    outside it; the zero ideal lies in every ideal."""
    I, zero = power(maximal_ideal(3), 2), MonomialIdeal.zero(3)
    assert containment_witness(I, zero, 0) == m(0, 0, 2)
    assert containment_witness(zero, I, 1) is None
    assert subset(zero, zero) and not contains(zero, m(1, 2, 3))


# ---------------------------------------------------------------------------
# vector kernels against brute-force all-pairs oracles


def _divides(d, t):
    return all(a <= b for a, b in zip(d, t))


def _brute_minimal(vectors):
    uniq = set(vectors)
    keep = [v for v in uniq if not any(u != v and _divides(u, v) for u in uniq)]
    return sorted(keep, key=lambda v: (sum(v), v))


def _divisor_mask(dim, targets, divisors, s):
    """The containment kernel's index and query: for each target, is
    there a divisor with degree gap >= s?  The divisors go in as they
    are, repeated or not minimal."""
    index = _divisor_index(MonomialIdeal(dim, tuple(divisors)))
    return [bool(_rows_below(index, (*t, sum(t) - s))) for t in targets]


def _brute_mask(targets, divisors, s):
    return [any(sum(t) - sum(d) >= s and _divides(d, t) for d in divisors)
            for t in targets]


# exponents small enough to make divisibility common, or spread up to 2**70
# around the 2**31 and 2**63 word limits
_exponent = st.one_of(
    st.integers(min_value=0, max_value=4),
    st.sampled_from([2 ** 31 - 1, 2 ** 31, 2 ** 31 + 1, 2 ** 63 - 1, 2 ** 63, 2 ** 70]),
    st.integers(min_value=0, max_value=2 ** 70))


@st.composite
def vector_family(draw, dim):
    """Vectors of one dimension: random ones with repeats, or an antichain
    (a_i, C - a_i, ...) with distinct a_i."""
    vec = st.lists(_exponent, min_size=dim, max_size=dim).map(tuple)
    if dim >= 2 and draw(st.booleans()):
        top = draw(st.sampled_from([30, 2 ** 31 + 5, 2 ** 70]))
        firsts = draw(st.lists(st.integers(min_value=0, max_value=top),
                               min_size=1, max_size=40, unique=True))
        tail = draw(st.lists(_exponent, min_size=dim - 2, max_size=dim - 2))
        vecs = [(a, top - a, *tail) for a in firsts]
    else:
        vecs = draw(st.lists(vec, min_size=0, max_size=30))
    repeats = draw(st.lists(st.sampled_from(vecs), max_size=5)) if vecs else []
    return vecs + repeats


@st.composite
def kernel_case(draw):
    dim = draw(st.integers(min_value=1, max_value=6))
    return dim, draw(vector_family(dim)), draw(vector_family(dim))


@given(kernel_case(), st.integers(min_value=0, max_value=4))
@settings(max_examples=300, deadline=None)
def test_vector_kernels_match_brute_force(case, s):
    dim, avecs, bvecs = case
    assert minimal_vectors(avecs) == _brute_minimal(avecs)
    assert minimal_vectors(avecs + bvecs) == _brute_minimal(avecs + bvecs)
    assert _divisor_mask(dim, avecs, bvecs, s) == _brute_mask(avecs, bvecs, s)
    assert _divisor_mask(dim, bvecs, avecs, s) == _brute_mask(bvecs, avecs, s)


@st.composite
def bit_masks(draw):
    """A mask of up to 10^5 bits: random dense bits, a few set positions,
    or both."""
    width = draw(st.integers(min_value=0, max_value=10 ** 5))
    dense = draw(st.booleans())
    mask = draw(st.randoms(use_true_random=False)).getrandbits(width) if dense else 0
    for p in draw(st.lists(st.integers(min_value=0, max_value=width), max_size=40)):
        mask |= 1 << p
    return mask


@given(bit_masks())
@example(0)
@example(1)
@example(1 << 99_999)
@example((1 << 10 ** 5) - 1)
@settings(max_examples=25, deadline=None)
def test_bits_lists_every_set_bit_lowest_first(mask):
    assert _bits(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]


# ---------------------------------------------------------------------------
# intersections with powers of a monomial prime


def prime_on(dim, s_vars) -> MonomialIdeal:
    return ideal_of(dim, *[[int(j == i) for j in range(dim)] for i in s_vars])


def canonical(vectors) -> tuple:
    return tuple(sorted(vectors, key=lambda v: (sum(v), v)))


@st.composite
def ideal_and_support(draw):
    """A general ideal in 2-5 variables, exponents up to 6 so that some
    generators have S-degree above m, and a non-empty variable subset S."""
    dim = draw(st.integers(min_value=2, max_value=5))
    vec = st.lists(st.integers(min_value=0, max_value=6), min_size=dim, max_size=dim)
    vecs = draw(st.lists(vec, min_size=1, max_size=7))
    s_vars = draw(st.sets(st.integers(min_value=0, max_value=dim - 1), min_size=1))
    return ideal_of(dim, *vecs), sorted(s_vars)


# x0^5*x2 has S-degree 5 > 3 and stays; x1^2 and x0*x2^4 share nothing
@example((ideal_of(3, (5, 0, 1), (0, 2, 0), (1, 0, 4)), [0, 1]), 3)
# two keys outside S, (0,) < (2,): the lower group removes the upper one's
@example((ideal_of(3, (1, 0, 0), (0, 1, 2)), [0, 1]), 2)
@example((ideal_of(2, (2, 1), (0, 3)), [0, 1]), 7)
@given(ideal_and_support(), st.integers(min_value=1, max_value=7))
@settings(max_examples=200, deadline=None)
def test_intersect_with_prime_power_matches_pairwise_lcm(case, m_):
    """intersect, and the prime-power kernel on the same sides, against
    the pairwise lcms, with P^m listed apart from the kernel."""
    I, s_vars = case
    dim = I.ambient_dim
    Pm = prime_power_oracle(dim, s_vars, m_)
    oracle = _from_vectors(dim, pairwise_lcms(I.vectors, Pm.vectors))
    got = intersect(I, Pm)
    assert got == oracle
    assert got.vectors == canonical(got.vectors)
    assert canonical(monomial._meet_simplex_power(I.vectors, dim, s_vars, m_)) == oracle.vectors


def _prime_power_vectors(dim, s_vars, m_):
    """P^m for the prime on s_vars, every degree-m monomial on it, listed
    from the compositions without the kernel."""
    return [tuple(c.exponents[s_vars.index(i)] if i in s_vars else 0 for i in range(dim))
            for c in degree_monomials(len(s_vars), m_)]


@pytest.mark.parametrize("I, s_vars, m_", [
    (ideal_of(1, (3,)), [0], 2),
    (ideal_of(1, (3,)), [0], 5),
    (MonomialIdeal.unit(1), [0], 4),
    (ideal_of(3, (2, 1, 0), (0, 1, 3), (1, 0, 1)), [0, 1, 2], 3),
    (power(maximal_ideal(3), 2), [0, 1, 2], 4),
    (ideal_of(4, (2, 1, 0, 0), (0, 1, 3, 0), (1, 0, 1, 2), (0, 0, 0, 1)), [2], 3),
    (ideal_of(4, (2, 1, 0, 0), (0, 1, 3, 0), (1, 0, 1, 2), (0, 0, 0, 1)), [3], 1),
    # one key per x3 exponent, each group a set of lows on {x0, x1, x2}
    (power(maximal_ideal(4), 3), [0, 1, 2], 4),
    (ideal_of(4, (0, 2, 0, 1), (1, 0, 0, 2), (0, 0, 1, 0)), [0, 1, 3], 5),
], ids=["one-variable", "one-variable-above", "one-variable-unit", "every-variable",
        "every-variable-power", "one-of-four", "one-of-four-degree-one", "three-of-four",
        "three-of-four-lows"])
def test_prime_power_kernel_edge_cases(I, s_vars, m_):
    """The kernel against the pairwise lcms with P^m listed apart from it:
    in one variable, with S every variable (the empty key), and with |S| =
    1 (a one-position gather)."""
    dim = I.ambient_dim
    oracle = _from_vectors(dim, pairwise_lcms(I.vectors, _prime_power_vectors(dim, s_vars, m_)))
    got = monomial._meet_simplex_power(I.vectors, dim, s_vars, m_)
    assert sorted(got) == sorted(oracle.vectors)


@st.composite
def antichain_case(draw):
    """(m, lows): an antichain of h-vectors of degree at most m in tuple
    order, 1 <= h <= 5.  By the drawn kind, random vectors minimalized, or
    every composition of one degree d <= m, some left out, the shape of a
    prime step's output."""
    h = draw(st.integers(min_value=1, max_value=5))
    m_ = draw(st.integers(min_value=0, max_value=9))
    if draw(st.booleans()):
        d = draw(st.integers(min_value=0, max_value=m_))
        full = [g.exponents for g in degree_monomials(h, d)]
        out = draw(st.sets(st.sampled_from(full), max_size=len(full) - 1))
        vecs = [v for v in full if v not in out]
    else:
        vec = st.lists(st.integers(min_value=0, max_value=m_), min_size=h, max_size=h)
        vecs = [tuple(v) for v in draw(st.lists(vec, min_size=1, max_size=12))
                if sum(v) <= m_] or [(0,) * h]
    return m_, tuple(sorted(minimal_vectors(vecs)))


@example((4, ((0, 2, 0), (1, 0, 0))))  # the earlier rest (2, 0) leaves when (0, 0) joins
@example((6, ((0, 0, 0, 0),)))
@example((3, ((2,),)))
@given(antichain_case())
@settings(max_examples=300, deadline=None)
def test_upper_set_matches_brute_force(case):
    """The bitmask of the degree-m compositions above some low against a
    scan of the compositions."""
    m_, lows = case
    comps = monomial._compositions(m_, len(lows[0]))
    brute = sum(1 << j for j, w in enumerate(comps) if above_some(lows, w))
    assert monomial._upper_set(m_, lows) == brute


# ---------------------------------------------------------------------------
# general intersections against the literal pairwise-lcm oracle


@st.composite
def meet_case(draw):
    """Two ideals in 2-5 variables.  The first lives on a random variable
    set.  The second is, by the drawn kind: a random ideal on a set of its
    own, so that the two have private and shared variables; a power of the
    first's localization at a proper variable set, which lives on that
    set; an ideal inside the first (its product with a random ideal); or
    the first itself.  On a drawn flag, every non-zero exponent e of both
    becomes 2**64 + e - 1, which keeps supports and divisibility."""
    dim = draw(st.integers(min_value=2, max_value=5))
    var_set = st.sets(st.integers(min_value=0, max_value=dim - 1), min_size=1)

    def on(support):
        vec = st.tuples(*(st.integers(min_value=0, max_value=3) if i in support
                          else st.just(0) for i in range(dim)))
        return _from_vectors(dim, draw(st.lists(vec, min_size=1, max_size=6)))

    I = on(draw(var_set))
    kind = draw(st.sampled_from(["own support", "localized power", "inside", "equal"]))
    if kind == "own support":
        J = on(draw(var_set))
    elif kind == "localized power":
        S = draw(st.sets(st.integers(min_value=0, max_value=dim - 1),
                         min_size=1, max_size=dim - 1))
        L = _from_vectors(dim, [tuple(e * (i in S) for i, e in enumerate(v)) for v in I.vectors])
        J = power(L, draw(st.integers(min_value=1, max_value=3)))
    elif kind == "inside":
        J = multiply(I, on(range(dim)))
    else:
        J = I
    if draw(st.booleans()):
        I, J = (_from_vectors(dim, [tuple(e and 2 ** 64 + e - 1 for e in v) for v in A.vectors])
                for A in (I, J))
    return I, J


# x0*x2 (key x2 = 1) and x1*x2^2 (key 2) against a component on {x0, x1}
@example((ideal_of(3, (1, 0, 1), (0, 1, 2)), ideal_of(3, (2, 0, 0), (1, 1, 0), (0, 3, 0))))
# x1 meets x0^2*x2 at key (1, 0) though x3, of the incomparable key
# (0, 1), divides it on the shared variables {x0, x1}
@example((ideal_of(4, (2, 0, 1, 0), (0, 0, 0, 1), (0, 5, 6, 0)),
          ideal_of(4, (0, 1, 0, 0), (3, 0, 0, 0))))
# two private variables each, two shared
@example((ideal_of(4, (1, 2, 3, 0), (2, 0, 1, 0), (0, 1, 0, 2)),
          ideal_of(4, (0, 3, 0, 1), (2, 1, 0, 0), (1, 1, 2, 0))))
@given(meet_case())
@settings(max_examples=300, deadline=None)
def test_intersect_matches_pairwise_lcm_oracle(case):
    I, J = case
    oracle = _from_vectors(I.ambient_dim, pairwise_lcms(I.vectors, J.vectors))
    got = intersect(I, J)
    assert got == oracle == intersect(J, I)
    assert got.vectors == canonical(got.vectors)


# x1 meets x0^2*x2 at key (1, 0) though x3, of the incomparable key
# (0, 1), divides it on the shared variables {x0, x1}
@example((ideal_of(4, (2, 0, 1, 0), (0, 0, 0, 1), (0, 5, 6, 0)),
          ideal_of(4, (0, 1, 0, 0), (3, 0, 0, 0))))
# x0*x2 (key x2 = 1) and x1*x2^2 (key 2) against a component on {x0, x1}
@example((ideal_of(3, (1, 0, 1), (0, 1, 2)), ideal_of(3, (2, 0, 0), (1, 1, 0), (0, 3, 0))))
# two private variables each, two shared
@example((ideal_of(4, (1, 2, 3, 0), (2, 0, 1, 0), (0, 1, 0, 2)),
          ideal_of(4, (0, 3, 0, 1), (2, 1, 0, 0), (1, 1, 2, 0))))
@given(meet_case())
@settings(max_examples=300, deadline=None)
def test_direct_lcms_are_minimal_and_screen_the_pair_lcms(case):
    """The invariant of the general meet, against the pairwise lcms: every
    direct lcm is a minimal generator of the meet, the meet lists each
    minimal generator once, and every lcm of a pair that is not a survivor
    (never formed, or screened) is divisible by a direct lcm, which
    divides no survivor."""
    I, J = case
    lcms = pairwise_lcms(I.vectors, J.vectors)
    oracle = set(_from_vectors(I.ambient_dim, lcms).vectors)
    directs, survivors = monomial._meet_parts(I.vectors, J.vectors)
    assert set(directs) <= oracle
    got = monomial._meet_general(I.vectors, J.vectors)
    assert len(got) == len(set(got))
    assert set(got) == oracle
    kept = set(survivors)
    assert all(above_some(directs, lcm) for lcm in lcms if lcm not in kept)
    assert not any(above_some(directs, p) for p in survivors)


def test_general_meet_skips_dominated_pairs(monkeypatch):
    """What reaches minimalization: the direct lcms are kept as they come,
    and a pair lcm that one divides is dropped, so these meets minimalize
    nothing; where pair lcms survive, only they arrive."""
    R = ideal_of(3, (1, 0, 1), (0, 1, 2))
    C = ideal_of(3, (2, 0, 0), (1, 1, 0), (0, 3, 0))
    I = ideal_of(3, (2, 1, 0), (0, 2, 1), (1, 0, 2))
    inside = multiply(I, ideal_of(3, (1, 1, 0), (0, 0, 2)))
    A = ideal_of(3, (0, 0, 2), (0, 1, 1))
    B = ideal_of(3, (0, 2, 0), (1, 0, 2))
    seen = []

    def recorded(vectors):
        vectors = list(vectors)
        seen.append(sorted(vectors))
        return minimal_vectors(vectors)

    monkeypatch.setattr(monomial, "minimal_vectors", recorded)
    # x0^2 and x0*x1 are divisible by x0 of the lower key x2: direct lcms
    # there; x1^3 is divisible by x1 at key x2^2 itself, a direct lcm
    # there, and the pair lcm x0*x1^3*x2 lies above x0*x1*x2
    assert intersect(R, C).vectors == ((1, 1, 1), (2, 0, 1), (0, 3, 2))
    assert intersect(I, inside) == inside
    assert intersect(I, I) == I
    assert seen == []
    # x0*x2^2 is the one direct lcm; x1^2*x2 and x1^2*x2^2 survive it,
    # and only the survivor x1^2*x2 divides x1^2*x2^2
    assert intersect(A, B).vectors == ((0, 2, 1), (1, 0, 2))
    assert seen == [[(0, 2, 1), (0, 2, 2)]]


@pytest.mark.parametrize("dim, s_vars, t", [(1, [0], 4), (3, [0, 1, 2], 5),
                                            (5, [0, 2, 3], 6), (4, [3], 2)])
def test_prime_power_is_canonical(dim, s_vars, t):
    got = power(prime_on(dim, s_vars), t).vectors
    assert got == canonical(got)
    assert got == _from_vectors(dim, list(got)).vectors
    assert len(got) == len(degree_monomials(len(s_vars), t))


def test_prime_powers_never_minimalize(monkeypatch):
    """The prime-power kernel builds minimal generators directly: for P^m,
    for (P^m)^t and for intersections with P^m."""
    def refuse(vectors):
        raise AssertionError("minimal_vectors called")

    I = ideal_of(4, (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 3), (2, 0, 0, 1))
    P = prime_on(4, [0, 2, 3])
    Pm = power(P, 5)
    expected = intersect(I, Pm)
    cube = multiply(multiply(Pm, Pm), Pm)
    monkeypatch.setattr(monomial, "minimal_vectors", refuse)
    assert power(P, 5) == Pm
    assert intersect(I, Pm) == expected
    assert power(Pm, 3) == cube


def test_kernel_and_make_give_equal_ideals_with_equal_hashes():
    """An ideal listed by the prime-power kernel equals, and hashes as, the
    one `make` minimalizes from candidates; the hash is the tuple hash of
    the fields."""
    I = ideal_of(4, (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 3), (2, 0, 0, 1))
    P = prime_on(4, [0, 2, 3])
    P3 = power(P, 3)
    on_s = [Monomial((a, 0, b, c)) for a, b, c in
            (g.exponents for g in degree_monomials(3, 3))]
    lcms = pairwise_lcms(I.vectors, P3.vectors)
    pairs = [(P3, MonomialIdeal.make(4, reversed(on_s))),
             (intersect(I, P3), MonomialIdeal.make(4, map(Monomial, lcms))),
             (power(P3, 2), MonomialIdeal.make(4, multiply(P3, P3).gens[::-1]))]
    for kernel, made in pairs:
        assert kernel == made
        assert hash(kernel) == hash(made) == hash((4, made.vectors))
