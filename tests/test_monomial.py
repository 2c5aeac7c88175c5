import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symbpow import monomial
from symbpow.decomposition import IrreducibleComponent, MonomialPrime
from symbpow.errors import DimensionMismatchError
from symbpow.geometry import NewtonPolyhedron, SymbolicPolyhedron
from symbpow.monomial import (Monomial, MonomialIdeal, _any_divisor_mask,
                              _from_vectors,
                              containment_witness, minimal_vectors,
                              contains, intersect,
                              is_squarefree, maximal_ideal, multiply, power,
                              radical, subset)

from conftest import ideal_of
from oracles import degree_monomials, pairwise_lcms


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


VALUES = {
    "Monomial": lambda: Monomial((1, 2)),
    "MonomialIdeal": lambda: MonomialIdeal(2, ((1, 0), (0, 2))),
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
    monomial._powers_of.cache_clear()
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
    assert _in_m_power_times(f, I, s) == contains(literal, f)


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
    return next((f for f in lhs.gens if not contains(literal, f)), None)


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
    if s == 0:
        assert subset(lhs, rhs) == (expected is None)


# ---------------------------------------------------------------------------
# vector kernels against brute-force all-pairs oracles


def _divides(d, t):
    return all(a <= b for a, b in zip(d, t))


def _brute_minimal(vectors):
    uniq = set(vectors)
    keep = [v for v in uniq if not any(u != v and _divides(u, v) for u in uniq)]
    return sorted(keep, key=lambda v: (sum(v), v))


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
    return draw(vector_family(dim)), draw(vector_family(dim))


@given(kernel_case(), st.integers(min_value=0, max_value=4))
@settings(max_examples=300, deadline=None)
def test_vector_kernels_match_brute_force(case, s):
    avecs, bvecs = case
    assert minimal_vectors(avecs) == _brute_minimal(avecs)
    assert minimal_vectors(avecs + bvecs) == _brute_minimal(avecs + bvecs)
    assert _any_divisor_mask(avecs, bvecs, s) == _brute_mask(avecs, bvecs, s)
    assert _any_divisor_mask(bvecs, avecs, s) == _brute_mask(bvecs, avecs, s)


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
    I, s_vars = case
    Pm = power(prime_on(I.ambient_dim, s_vars), m_)
    oracle = _from_vectors(I.ambient_dim, pairwise_lcms(I.vectors, Pm.vectors))
    got = intersect(I, Pm)
    assert got == oracle
    assert got.vectors == canonical(got.vectors)


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


def test_general_meet_skips_dominated_pairs(monkeypatch):
    """Candidates that reach minimalization: a row of one side inside the
    other is passed as it is, and a generator of C on {x0, x1} that a row
    of a lower key outside {x0, x1} divides makes no candidate there."""
    seen = []

    def recorded(vectors):
        vectors = list(vectors)
        seen.append(sorted(set(vectors)))
        return minimal_vectors(vectors)

    monkeypatch.setattr(monomial, "minimal_vectors", recorded)
    R = ideal_of(3, (1, 0, 1), (0, 1, 2))
    C = ideal_of(3, (2, 0, 0), (1, 1, 0), (0, 3, 0))
    # x0^2 and x0*x1 are divisible by x0 of the lower key x2: nothing at x2^2;
    # x1^3 is divisible by x1 at key x2^2 itself, so only x1^3*x2^2 there
    assert intersect(R, C).vectors == ((1, 1, 1), (2, 0, 1), (0, 3, 2))
    assert seen.pop() == [(0, 3, 2), (1, 1, 1), (1, 3, 1), (2, 0, 1)]
    I = ideal_of(3, (2, 1, 0), (0, 2, 1), (1, 0, 2))
    inside = multiply(I, ideal_of(3, (1, 1, 0), (0, 0, 2)))
    seen.clear()
    assert intersect(I, inside) == inside
    assert intersect(I, I) == I
    assert seen == [sorted(inside.vectors), sorted(I.vectors)]


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
