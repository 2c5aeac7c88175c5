import hashlib
import itertools
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbpow import decomposition
from symbpow.decomposition import (IrreducibleComponent, MonomialPrime,
                                   _check_recombines, associated_primes,
                                   big_height, irreducible_decomposition,
                                   localizations, localize,
                                   max_associated_primes, sigma)
from symbpow.errors import (DimensionMismatchError, NonAssociatedPrimeWarning,
                            PowersCoincideWarning, VerificationError)
from symbpow.geometry import symbolic_polyhedron
from symbpow.harness import check
from symbpow.monomial import (Monomial, MonomialIdeal, contains, intersect,
                              subset)
from symbpow.symbolic import symbolic_power

from conftest import ideal_of, random_general_corpus
from test_symbolic import MIXED

# a localization of ic4 is not integrally closed, and alpha(ic4) = 8 is
# large enough for the integral-closure row to test them
IC4 = ideal_of(4, (2, 4, 4, 0), (3, 4, 1, 4), (4, 1, 3, 0), (3, 2, 4, 4), (1, 4, 3, 3))
CYCLE4 = ideal_of(4, (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1))


def test_prime_basics():
    P = MonomialPrime(3, (0, 2))
    assert P.height == 2
    assert P.render(("x", "y", "z")) == "(x,z)"
    for names in (("a", "b"), ("a", "b", "c", "d", "e")):
        with pytest.raises(ValueError, match="variable names"):
            P.render(names)
    assert P.to_ideal().vectors == ((0, 0, 1), (1, 0, 0))
    assert MonomialPrime(3, (0, 1, 2)).contains(P)


def test_irreducible_decomposition_rot3(rot3):
    comps = irreducible_decomposition(rot3)
    shapes = sorted(tuple(c.powers) for c in comps)
    assert shapes == [
        ((0, 1), (2, 2)),   # (x, z^2)
        ((0, 2), (1, 1)),   # (x^2, y)
        ((1, 2), (2, 1)),   # (y^2, z)
    ]


def test_decomposition_recombines(rot3, triples4):
    for I in (rot3, triples4):
        comps = irreducible_decomposition(I)
        rebuilt = comps[0].to_ideal()
        for c in comps[1:]:
            rebuilt = intersect(rebuilt, c.to_ideal())
        assert rebuilt == I


def test_associated_primes_rot3(rot3):
    assert [P.variables for P in associated_primes(rot3)] == [
        (0, 1), (0, 2), (1, 2)]
    assert [P.variables for P in max_associated_primes(rot3)] == [
        (0, 1), (0, 2), (1, 2)]


def test_associated_primes_triples4(triples4):
    """Six primes: every pair of variables."""
    assert [P.variables for P in associated_primes(triples4)] == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_primary_power_has_single_prime():
    cube = ideal_of(2, (3, 0), (2, 1), (1, 2), (0, 3))  # (x, y)^3
    assert [P.variables for P in associated_primes(cube)] == [(0, 1)]


def test_embedded_prime():
    I = ideal_of(2, (2, 0), (1, 1))  # x * (x, y)
    assert [P.variables for P in associated_primes(I)] == [(0,), (0, 1)]
    assert [P.variables for P in max_associated_primes(I)] == [(0, 1)]


def test_big_height(rot3, triples4):
    assert big_height(rot3) == 2
    assert big_height(triples4) == 2
    with pytest.warns(PowersCoincideWarning):
        assert big_height(ideal_of(2, (2, 0), (1, 1))) == 2


def test_sigma(rot3, triples4, edges3):
    assert sigma(rot3) == 2
    assert sigma(triples4) == 3
    assert sigma(edges3) == 2


def test_localize():
    I = ideal_of(2, (2, 0), (1, 1))  # x*(x, y): localizing at (x) strips y
    Px = MonomialPrime(2, (0,))
    assert localize(I, Px).vectors == ((1, 0),)
    Pxy = MonomialPrime(2, (0, 1))
    assert localize(I, Pxy) == I


def test_localize_at_maxass_fixes_rot3(rot3):
    P = MonomialPrime(3, (0, 1))
    assert localize(rot3, P).vectors == ((0, 1, 0), (2, 0, 0))


def test_localize_refuses_a_prime_of_another_ring(rot3):
    """A ring mismatch is the DimensionMismatchError that contains,
    intersect and containment_witness raise."""
    with pytest.raises(DimensionMismatchError):
        localize(rot3, MonomialPrime(4, (0,)))


def test_localize_warns_off_support(rot3):
    stray = MonomialPrime(3, (0,))
    with pytest.warns(NonAssociatedPrimeWarning):
        localize(rot3, stray)


def test_localizations_pair_each_maximal_prime_with_its_localization(rot3, triples4):
    for I in (rot3, triples4, IC4, MIXED, CYCLE4):
        assert localizations(I) == tuple(
            (P, localize(I, P)) for P in max_associated_primes(I))


def test_each_localization_is_built_once_per_ideal(monkeypatch):
    """Symbolic powers at five exponents, the symbolic polyhedron and the
    integral-closure row share one ideal's localizations: on cold caches,
    localize runs once per maximal associated prime."""
    for cached in (localizations, symbolic_power, symbolic_polyhedron):
        cached.cache_clear()
    built = []
    real = decomposition.localize

    def spy(I, P):
        built.append(P)
        return real(I, P)

    monkeypatch.setattr(decomposition, "localize", spy)
    for m in range(2, 7):
        symbolic_power(IC4, m)
    symbolic_polyhedron(IC4)
    row = check("integrally_closed_bound", IC4)
    assert row.details["reason"] == "a localization is not integrally closed"
    assert built == list(max_associated_primes(IC4))


# ---------------------------------------------------------------------------
# properties

@st.composite
def proper_ideal(draw):
    """A proper non-zero ideal in 1-6 variables, exponents up to 5."""
    dim = draw(st.integers(min_value=1, max_value=6))
    vec = st.lists(st.integers(min_value=0, max_value=5), min_size=dim, max_size=dim)
    vecs = draw(st.lists(vec.filter(lambda v: sum(v) > 0), min_size=1, max_size=5))
    return MonomialIdeal.make(dim, [Monomial(tuple(v)) for v in vecs])


@given(proper_ideal())
@settings(max_examples=60)
def test_components_recombine(I):
    comps = irreducible_decomposition(I)
    rebuilt = comps[0].to_ideal()
    for c in comps[1:]:
        rebuilt = intersect(rebuilt, c.to_ideal())
    assert rebuilt == I


@given(proper_ideal())
@settings(max_examples=60)
def test_components_pairwise_incomparable(I):
    """No component contains another.  With recombination and
    irreducibility this characterizes the unique irredundant irreducible
    decomposition, so together they are an oracle for any algorithm."""
    comps = [c.to_ideal() for c in irreducible_decomposition(I)]
    for Q, R in itertools.permutations(comps, 2):
        assert not subset(Q, R)


@given(proper_ideal())
@settings(max_examples=60)
def test_components_contain_ideal(I):
    for c in irreducible_decomposition(I):
        J = c.to_ideal()
        assert all(contains(J, g) for g in I.gens)


# the edge ideal of the 5-cycle, whose components are all primes, and a
# general ideal with two prime and two other components
C5 = ideal_of(5, *[[int(i in (k, (k + 1) % 5)) for i in range(5)] for k in range(5)])
MIXED = ideal_of(4, (2, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 3))


def _mutants(comps):
    """Each decomposition with one component dropped, then each with one
    exponent of one component raised by 1."""
    for k in range(len(comps)):
        yield comps[:k] + comps[k + 1:]
    for k, c in enumerate(comps):
        for i, (v, e) in enumerate(c.powers):
            powers = c.powers[:i] + ((v, e + 1),) + c.powers[i + 1:]
            yield comps[:k] + (IrreducibleComponent(c.ambient_dim, powers),) + comps[k + 1:]


@pytest.mark.parametrize("I, primes", [(C5, 5), (MIXED, 2)], ids=["c5", "mixed"])
def test_recombination_check_catches_every_mutant(I, primes):
    """Dropping a component enlarges the meet and raising an exponent
    shrinks it (the irredundant decomposition is unique), so the check
    refuses each mutant; on a prime the raise also takes the other route."""
    comps = irreducible_decomposition(I)
    assert sum(all(e == 1 for _, e in c.powers) for c in comps) == primes
    _check_recombines(I, comps)
    mutants = list(_mutants(comps))
    assert len(mutants) == len(comps) + sum(len(c.powers) for c in comps)
    for mutant in mutants:
        with pytest.raises(VerificationError, match="does not recombine"):
            _check_recombines(I, mutant)


@given(proper_ideal())
@settings(max_examples=40)
def test_recombination_check_catches_mutants_of_random_ideals(I):
    comps = irreducible_decomposition(I)
    for mutant in _mutants(comps):
        with pytest.raises(VerificationError, match="does not recombine"):
            _check_recombines(I, mutant)


@given(proper_ideal())
@settings(max_examples=40)
def test_localize_idempotent(I):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for P in max_associated_primes(I):
            L = localize(I, P)
            assert localize(L, P) == L


# ---------------------------------------------------------------------------
# pinned decompositions


def c10_ideals():
    """The 50 ideals of the default structured scan (seed 7), drawn the way
    the scan draws them."""
    from symbpow.harness import _random_general, _random_squarefree
    from symbpow.rng import SplitRng

    root = SplitRng(7, ("scan",))
    out = []
    for i in range(50):
        rng = root.child(f"ideal{i}")
        nvars = (3, 4)[rng.randint(0, 1)]
        if rng.randint(0, 1) == 0:
            out.append(_random_squarefree(rng.child("sqfree"), nvars)[0])
        else:
            out.append(_random_general(rng.child("general"), nvars, 4, 6))
    return out


def five_subsets_of_ten():
    """The square-free ideal of all 5-subsets of 10 variables: its 210
    components are the primes on the 6-subsets."""
    return ideal_of(10, *[[int(i in s) for i in range(10)]
                          for s in itertools.combinations(range(10), 5)])


# sha256 of repr([[c.powers for c in irreducible_decomposition(I)] ...]),
# recorded from an independent split-tree implementation, so a change of
# algorithm that alters any component or its order fails here
@pytest.mark.parametrize("ideals, digest", [
    (c10_ideals, "ad79b6c966fb7512b163d21920d923b2f094d71d1d2ea5362c7ea87d3383c18b"),
    (lambda: random_general_corpus(200, 8, dims=(3, 4, 5, 6)),
     "14763795c36946bf3bb15196f80ce9401481eba5f33805cfa1c0fe3d7156dcc3"),
    (lambda: [five_subsets_of_ten()],
     "b537b4cc90a355fce233b379b459e726fb76c22eb5b4a3357a5181df21791bc6"),
], ids=["c10", "general-3-6", "five-of-ten"])
def test_decompositions_are_pinned(ideals, digest):
    powers = [[c.powers for c in irreducible_decomposition(I)] for I in ideals()]
    assert hashlib.sha256(repr(powers).encode()).hexdigest() == digest
