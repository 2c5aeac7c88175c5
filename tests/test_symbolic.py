import hashlib
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import symbpow.results as R
from symbpow import monomial, symbolic
from symbpow.decomposition import (associated_primes,
                                   irreducible_decomposition, localize,
                                   max_associated_primes)
from symbpow.monomial import Monomial, contains, intersect, power, subset
from symbpow.harness import _random_squarefree, check
from symbpow.rng import SplitRng
from symbpow.symbolic import (equal_exponent_condition,
                              symbolic_equals_ordinary, symbolic_power,
                              twin_quotient)

from conftest import ideal_of, random_squarefree_corpus
from oracles import by_definition, symbolic_power_oracle_sqfree


def test_symbolic_power_edge_cases(rot3):
    assert symbolic_power(rot3, 0).is_unit
    assert symbolic_power(rot3, 1) == rot3
    with pytest.raises(ValueError):
        symbolic_power(rot3, -1)


def test_non_integer_exponent_is_refused_whatever_the_cache_holds(rot3):
    """2.0 once found the cached entry of 2; a cold cache failed with a
    TypeError.  Exponents are read through operator.index, so every
    non-integer is a ValueError, warm cache or cold."""
    symbolic_power(rot3, 2)
    for m in (2.0, 2.5, Fraction(2)):
        with pytest.raises(ValueError, match="non-integer exponent"):
            symbolic_power(rot3, m)
    for t in (2.5, "2"):
        with pytest.raises(ValueError, match="non-integer exponent"):
            power(rot3, t)


def test_symbolic_equals_ordinary_for_primary():
    I = ideal_of(2, (2, 0), (1, 1))  # unique maximal associated prime
    assert symbolic_equals_ordinary(I)
    for t in (2, 3):
        assert symbolic_power(I, t) == power(I, t)


def test_rot3_witness(rot3):
    """The square of the generator product lies in the third symbolic power
    but escapes m * I^2."""
    w = Monomial((2, 2, 2))
    assert contains(symbolic_power(rot3, 3), w)
    assert contains(power(rot3, 2), w)
    sym2 = symbolic_power(rot3, 2)
    assert not contains(sym2, Monomial((1, 1, 1)))
    assert sym2.vectors == (
        (1, 2, 2), (2, 1, 2), (2, 2, 1), (0, 2, 4), (2, 4, 0), (4, 0, 2))


def test_triples4_second_symbolic_power(triples4):
    assert symbolic_power(triples4, 2).vectors == (
        (1, 1, 1, 1),
        (0, 2, 2, 2), (2, 0, 2, 2), (2, 2, 0, 2), (2, 2, 2, 0))


def test_symbolic_is_intersection_over_components(edges3):
    # (xy, xz, yz)^(2) from the primes directly
    assert symbolic_power(edges3, 2).vectors == (
        (1, 1, 1), (0, 2, 2), (2, 0, 2), (2, 2, 0))


def test_sqfree_oracle_agrees(triples4, edges3):
    for I in (triples4, edges3):
        for m_ in (1, 2, 3, 4):
            assert symbolic_power(I, m_) == symbolic_power_oracle_sqfree(I, m_)


def test_ordinary_inside_symbolic(rot3, triples4):
    for I in (rot3, triples4):
        for m_ in (1, 2, 3):
            assert subset(power(I, m_), symbolic_power(I, m_))


# ---------------------------------------------------------------------------
# containment checks


def test_squarefree_containment_requires_squarefree(rot3):
    res = check("squarefree_containment", rot3, {"m": 1, "t": 1, "r": 1})
    assert res.verdict == R.NOT_APPLICABLE
    assert not res.in_hypothesis


def test_squarefree_containment_grid(triples4):
    for m_ in (1, 2):
        for t in (1, 2):
            for r in (1, 2):
                res = check("squarefree_containment", triples4,
                            {"m": m_, "t": t, "r": r})
                assert res.verdict == R.HOLDS, (m_, t, r)
                assert res.kind == R.THEOREM


def test_equal_exponent_condition(triples4, edges3):
    assert equal_exponent_condition(triples4)
    assert equal_exponent_condition(edges3)
    res = check("equal_exponent_containment", triples4, {"m": 2, "t": 1, "r": 2})
    assert res.verdict == R.HOLDS
    # (x^2, y^3) meet (y^3, z^2): y carries 3 in both components
    met = intersect(ideal_of(3, (2, 0, 0), (0, 3, 0)), ideal_of(3, (0, 3, 0), (0, 0, 2)))
    assert equal_exponent_condition(met)
    res = check("equal_exponent_containment", met, {"m": 2, "t": 1, "r": 2})
    assert res.verdict == R.HOLDS
    # (x, y^2) meet (y, z): y carries 2 in one component and 1 in the other
    unmet = intersect(ideal_of(3, (1, 0, 0), (0, 2, 0)), ideal_of(3, (0, 1, 0), (0, 0, 1)))
    assert len(irreducible_decomposition(unmet)) == 2
    assert not equal_exponent_condition(unmet)
    res = check("equal_exponent_containment", unmet, {"m": 2, "t": 1, "r": 2})
    assert res.verdict == R.NOT_APPLICABLE


def test_symbolic_step(rot3, triples4):
    for I in (rot3, triples4):
        for r in (1, 2, 3):
            assert check("symbolic_step", I, {"r": r}).verdict == R.HOLDS


def test_support_step(triples4):
    """I^(r+e) inside m^sigma * I^(r) with e = 2, sigma = 3."""
    for r in (1, 2, 3):
        res = check("support_step", triples4, {"r": r})
        assert res.verdict == R.HOLDS
        assert res.details["sigma"] == 3


def test_refined_containment_flags_rot3(rot3):
    res = check("refined_containment", rot3, {"r": 2})
    assert res.kind == R.CONJECTURE  # rot3 is not square-free
    assert res.verdict == R.FAILS
    assert res.classify() == "candidate"
    assert res.witness == Monomial((2, 2, 2))
    assert res.details["witness_in_plain_power"] is True


def test_refined_containment_on_squarefree(triples4):
    for r in (1, 2, 3):
        res = check("refined_containment", triples4, {"r": r})
        assert res.kind == R.THEOREM
        assert res.verdict == R.HOLDS


def test_exploratory_containment(rot3):
    good = check("symbolic_in_mpower", rot3, {"m": 3, "s": 0, "r": 2})
    assert good.verdict == R.HOLDS and good.kind == R.EXPLORATION
    bad = check("symbolic_in_mpower", rot3, {"m": 3, "s": 1, "r": 2})
    assert bad.verdict == R.FAILS
    assert bad.witness == Monomial((2, 2, 2))


# ---------------------------------------------------------------------------
# randomized agreement between the two symbolic-power routes


@pytest.mark.parametrize("seed", [1, 2])
def test_symbolic_matches_oracle_on_random_squarefree(seed):
    for I, _fam in random_squarefree_corpus(12, seed):
        for m_ in (1, 2, 3):
            assert symbolic_power(I, m_) == symbolic_power_oracle_sqfree(I, m_)


vec3 = st.lists(st.integers(min_value=0, max_value=3), min_size=3, max_size=3)
proper3 = st.lists(vec3.filter(lambda v: sum(v) > 0), min_size=1, max_size=4).map(
    lambda vs: ideal_of(3, *vs))


@given(proper3, st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_ordinary_power_inside_symbolic(I, m_):
    assert subset(power(I, m_), symbolic_power(I, m_))


# ---------------------------------------------------------------------------
# the streamed route against the definition


def prime_power(dim, s_vars, k):
    return power(ideal_of(dim, *[[int(j == i) for j in range(dim)] for i in s_vars]), k)


@st.composite
def mixed_ideal(draw):
    """A general ideal in 2-5 variables with exponents <= 4: a general
    piece on a variable set G (pure powers of exponent 2-4 and a few more
    monomials on G) met with one or two prime powers, each on a set that
    misses a variable of G and holds one outside it.  So the localizations
    at the maximal associated primes mix prime powers with general
    components (in 3 or more variables)."""
    dim = draw(st.integers(min_value=2, max_value=5))
    var = st.integers(min_value=0, max_value=dim - 1)
    G = sorted(draw(st.sets(var, min_size=min(2, dim - 1), max_size=dim - 1)))
    outside = [i for i in range(dim) if i not in G]
    exps = st.lists(st.integers(min_value=0, max_value=4), min_size=len(G), max_size=len(G))
    vecs = [[draw(st.integers(min_value=2, max_value=4)) * (j == i) for j in range(dim)]
            for i in G]
    for low in draw(st.lists(exps, max_size=3)):
        vecs.append([dict(zip(G, low)).get(j, 0) for j in range(dim)])
    pieces = [ideal_of(dim, *(v for v in vecs if sum(v)))]
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        S = draw(st.sets(var)) - {draw(st.sampled_from(G))} | {draw(st.sampled_from(outside))}
        pieces.append(prime_power(dim, sorted(S), draw(st.integers(min_value=1, max_value=4))))
    return reduce(intersect, pieces)


# (x0, x1)^2 and (x2^2, x2*x3, x3^3) meet in a prime power and a general
# component at the two maximal associated primes
MIXED = intersect(prime_power(4, [0, 1], 2), ideal_of(4, (0, 0, 2, 0), (0, 0, 1, 1),
                                                      (0, 0, 0, 3)))


def test_mixed_example_has_both_kinds_of_component():
    kinds = sorted(localize(MIXED, P).simplex_power is None
                   for P in max_associated_primes(MIXED))
    assert kinds == [False, True]


@example(MIXED, 3)
@given(mixed_ideal(), st.integers(min_value=1, max_value=5))
@settings(max_examples=100, deadline=None)
def test_symbolic_power_matches_definition(I, m_):
    assert symbolic_power(I, m_) == by_definition(I, m_)


def test_agreement_does_not_share_the_kernel(monkeypatch):
    """A mutant of the prime-power kernel that drops the largest generator
    of a step whose output has more than one key (exponents off the prime)
    bites symbolic_power on the triangle (x0*x1, x0*x2, x1*x2), a connected
    ideal whose second prime step meets (x0, x1)^2 with (x0, x2)^2, and
    neither by_definition nor the square-free oracle, which list the prime
    powers and meet them apart from the kernel.  ((x0, x1) meet (x1, x2) =
    (x1, x0*x2) splits, and its symbolic powers no longer reach the
    kernel.)"""
    I, m_ = ideal_of(3, (1, 1, 0), (1, 0, 1), (0, 1, 1)), 2
    assert symbolic._split(I) is None
    expected = symbolic_power(I, m_)
    kernel = monomial._meet_simplex_power

    def mutant(vectors, dim, s_vars, m):
        out = kernel(vectors, dim, s_vars, m)
        if len({tuple(v[i] for i in range(dim) if i not in s_vars) for v in out}) > 1:
            out.remove(max(out))
        return out

    monkeypatch.setattr(monomial, "_meet_simplex_power", mutant)
    monkeypatch.setattr(symbolic, "_meet_simplex_power", mutant)
    symbolic_power.cache_clear()
    try:
        assert symbolic_power(I, m_) != expected
        assert by_definition(I, m_) == symbolic_power_oracle_sqfree(I, m_) == expected
    finally:
        symbolic_power.cache_clear()


def test_a_dropped_product_of_the_split_route_is_caught(monkeypatch):
    """A mutant of the split route that drops its last product bites
    symbolic_power on (x1, x0*x2), the sum of (x1) and (x0*x2), and
    by_definition, which meets the localizations' powers, does not share
    it."""
    I, m_ = ideal_of(3, (0, 1, 0), (1, 0, 1)), 2
    assert symbolic._split(I) is not None
    expected = by_definition(I, m_)
    sum_power = symbolic._sum_power
    monkeypatch.setattr(symbolic, "_sum_power", lambda *args: sum_power(*args)[:-1])
    symbolic_power.cache_clear()
    try:
        assert symbolic_power(I, m_) != expected
        assert by_definition(I, m_) == expected
    finally:
        symbolic_power.cache_clear()


# ---------------------------------------------------------------------------
# the split route: sums of ideals on disjoint variables


@st.composite
def split_ideal(draw):
    """A sum of 2-4 ideals on disjoint blocks of 1-3 variables, in up to 13
    variables, one of which may lie in no generator.  A block holds a
    general summand (1-3 monomials with exponents <= 3), a principal one, a
    pure power, or a square-free one, such as x0*(x1, x2), whose x1 and x2
    are twins.  Every generator uses its block's first variable, and the
    blocks are scattered over the variables."""
    blocks = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    spare = draw(st.booleans())
    dim = sum(blocks) + spare
    order = draw(st.permutations(range(dim)))
    vecs, at = [], 0
    for size in blocks:
        block, at = order[at:at + size], at + size
        kind = draw(st.sampled_from(["general", "principal", "pure", "squarefree"]))
        top = 1 if kind == "squarefree" else 3
        count = 1 if kind in ("principal", "pure") else draw(st.integers(1, 3))
        for _ in range(count):
            exps = [draw(st.integers(1 if i == 0 else 0, top)) for i in range(size)]
            if kind == "pure":
                exps = [exps[0]] + [0] * (size - 1)
            v = [0] * dim
            for x, e in zip(block, exps):
                v[x] = e
            vecs.append(v)
    return ideal_of(dim, *vecs)


TWIN_SUM = ideal_of(6, (1, 1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0),
                    (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 1))  # (x0x1, x1x2) + (x3) + (x4x5)


def test_the_twin_sum_takes_the_split_route():
    """TWIN_SUM, (x0*x1, x1*x2) + (x3) + (x4*x5), is square-free and x0 and
    x2 are twins, so its twin quotient exists, and splits too.  (A sum with
    a summand off a prime, such as (x3^2), has localizations such as
    (x1, x3^2, x4), which are no prime powers, so it has no quotient.)"""
    assert symbolic._split(TWIN_SUM) is not None
    J, _classes = twin_quotient(TWIN_SUM)
    assert symbolic._split(J) is not None


@example(TWIN_SUM, 4)
@example(ideal_of(5, (2, 1, 0, 0, 0), (0, 3, 0, 0, 0), (0, 0, 0, 2, 0)), 3)  # x2, x4 unused
@given(split_ideal(), st.integers(min_value=1, max_value=5))
@settings(max_examples=80, deadline=None)
def test_split_route_matches_definition(I, m_):
    """The split route against the localizations' powers met by
    by_definition, and against the square-free oracle when I is
    square-free."""
    assert symbolic._split(I) is not None
    got = symbolic_power(I, m_)
    assert got == by_definition(I, m_)
    if monomial.is_squarefree(I):
        assert got == symbolic_power_oracle_sqfree(I, m_)


@given(mixed_ideal(), st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_no_minimal_generator_lies_in_the_next_symbolic_power(I, n):
    """What lets the split route list products with no filter: a minimal
    generator of I^(n) lies outside I^(n+1)."""
    above = symbolic_power(I, n + 1)
    assert not any(monomial._in_staircase(above, g) for g in symbolic_power(I, n).vectors)


# the slow ideals of the 6-variable scans of seeds 3 and 4: four and seven
# general components, on primes of three and four variables
SEED3 = ideal_of(6, (2, 1, 0, 0, 0, 0), (0, 2, 0, 3, 0, 3), (0, 2, 2, 2, 1, 1),
                 (1, 3, 1, 1, 3, 0))
SEED4 = ideal_of(6, (0, 0, 0, 2, 3, 4), (1, 4, 0, 4, 0, 2), (2, 2, 3, 1, 1, 2),
                 (3, 3, 1, 0, 3, 2))


@pytest.mark.parametrize("I, m_", [
    (SEED3, 4), (SEED4, 3),
    # four general components and two prime powers
    (ideal_of(5, (4, 1, 1, 0, 0), (3, 3, 0, 1, 1)), 3)], ids=["seed3", "seed4", "mixed"])
def test_symbolic_power_does_not_depend_on_fold_order(I, m_):
    """symbolic_power folds the components in its own order; a plain fold
    in the order of the primes and in the reverse one gives the same ideal."""
    comps = [power(localize(I, P), m_) for P in max_associated_primes(I)]
    assert len(comps) >= 3
    got = symbolic_power(I, m_)
    assert got == reduce(intersect, comps) == reduce(intersect, reversed(comps))


def test_seed_3_symbolic_power_is_pinned():
    """I^(12) of the seed-3 ideal, as the smallest-first fold over all lcm
    pairs computed it: 455 generators and the sha256 of their vectors."""
    got = symbolic_power(SEED3, 12).vectors
    assert len(got) == 455
    assert hashlib.sha256(repr(got).encode()).hexdigest() == (
        "94f1c8c3d361230296dce9efb14cdaf830921bcb0d6f58ddfcdf1d3170c327ae")


def test_wide_prime_power_meet_is_pinned():
    """I^(12) of (x1, ..., x6, x0*x7), which is P{0..6} meet P{1..7} in 8
    variables: 18,564 generators, so the prime-power kernel walks masks
    that wide.  The sha256 of their vectors was recorded when the kernel
    still cleared one set bit at a time."""
    I = ideal_of(8, *[[int(j == i) for j in range(8)] for i in range(1, 7)],
                 (1, 0, 0, 0, 0, 0, 0, 1))
    got = symbolic_power(I, 12).vectors
    assert len(got) == 18_564
    assert hashlib.sha256(repr(got).encode()).hexdigest() == (
        "bdb0eef55e0bec4d78710d9dd7a3d0f1026a52a2369960a05518c9932d114fe3")


@pytest.mark.parametrize("seed", [1, 2])
def test_squarefree_symbolic_power_builds_no_component(monkeypatch, seed):
    """On a square-free ideal every localization is a prime, so no power
    is formed and no ideal is intersected: each step is one kernel call."""
    cases = [(I, m_) for I, _fam in random_squarefree_corpus(12, seed)
             for m_ in (2, 3, 5)]
    expected = [symbolic_power_oracle_sqfree(I, m_) for I, m_ in cases]

    def refuse(*args):
        raise AssertionError("a component was built")

    symbolic_power.cache_clear()
    monkeypatch.setattr(symbolic, "power", refuse)
    monkeypatch.setattr(symbolic, "ideal_intersect", refuse)
    assert [symbolic_power(I, m_) for I, m_ in cases] == expected


@pytest.mark.parametrize("I", [
    ideal_of(4, (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)),
    MIXED], ids=["squarefree", "general"])
def test_ideal_operations_build_no_monomial(monkeypatch, I):
    """Ideals are exponent vectors inside the package: symbolic_power,
    power, intersect and irreducible_decomposition build no Monomial, on
    cold caches.  `gens` derives the Monomials from the vectors."""
    J = ideal_of(4, (2, 1, 0, 0), (0, 0, 2, 1), (1, 0, 1, 0))
    P = ideal_of(4, (0, 1, 0, 0), (0, 0, 1, 0))

    def run():
        for cached in (symbolic_power, irreducible_decomposition,
                       associated_primes, monomial._powers_of):
            cached.cache_clear()
        return (symbolic_power(I, 3), power(I, 3), intersect(I, J),
                intersect(I, power(P, 2)), irreducible_decomposition(I))

    expected = run()
    built = []
    init = Monomial.__init__

    def counted(self, exponents):
        built.append(exponents)
        init(self, exponents)

    monkeypatch.setattr(Monomial, "__init__", counted)
    assert run() == expected
    assert built == []
    for ideal in (I, *expected[:4]):
        assert ideal.gens == tuple(map(Monomial, ideal.vectors))
    assert built


# ---------------------------------------------------------------------------
# square-free symbolic powers against the local criterion


def c03_ideals(count):
    """The first square-free ideals of the c03 sweep (scan seed 2026, 3-5
    variables), drawn as harness.scan draws them."""
    root = SplitRng(2026, ("scan",))
    for i in range(count):
        rng = root.child(f"ideal{i}")
        nvars = (3, 4, 5)[rng.randint(0, 2)]
        yield _random_squarefree(rng.child("sqfree"), nvars)[0]


def assert_local_criterion(I, n):
    """Every generator a of the square-free I^(n) has a(P) >= n on each
    minimal prime P, and each a_i is forced by the others:
    a_i = max(0, max over P containing i of n - a(P minus i))."""
    primes = [P.variables for P in max_associated_primes(I)]
    gens = symbolic_power(I, n).vectors
    assert gens
    for a in gens:
        assert all(sum(a[i] for i in P) >= n for P in primes)
        for i in range(I.ambient_dim):
            need = max((n - sum(a[j] for j in P if j != i)
                        for P in primes if i in P), default=0)
            assert a[i] == max(0, need)


@pytest.mark.parametrize("n", range(2, 9))
def test_c03_symbolic_powers_meet_local_criterion(n):
    for I in c03_ideals(100):
        assert_local_criterion(I, n)


def test_the_twin_quotient_merges_the_variables_of_one_set_of_primes(wide8):
    """wide8's primes are x0..x6 and x1..x7: three classes, and I' is the
    ideal of the class sums of its generators."""
    assert twin_quotient(wide8) == (ideal_of(3, (0, 1, 0), (1, 0, 1)),
                                    ((0,), (1, 2, 3, 4, 5, 6), (7,)))


def test_no_twin_quotient_without_twins_or_with_a_localization_off_a_prime_power(
        triples4, net6, rot3):
    """triples4, net6 and the 5-cycle have one variable per class; rot3's
    one localization is rot3 itself, not a prime power."""
    C5 = ideal_of(5, *[[int(j in (i, (i + 1) % 5)) for j in range(5)]
                       for i in range(5)])
    assert [twin_quotient(I) for I in (triples4, net6, C5, rot3)] == [None] * 4


def test_five_cycle_symbolic_power_is_pinned():
    C5 = ideal_of(5, *[[int(j in (i, (i + 1) % 5)) for j in range(5)]
                       for i in range(5)])
    assert len(symbolic_power(C5, 20).gens) == 2940
    assert_local_criterion(C5, 20)
