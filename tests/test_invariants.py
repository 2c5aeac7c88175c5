import hashlib
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symbpow.results as R
from symbpow import geometry, harness
from symbpow.decomposition import localizations
from symbpow.errors import ResourceLimitError
from symbpow.geometry import alpha_polyhedron, newton_polyhedron
from symbpow.harness import check
from symbpow.invariants import (alpha, beta, chudnovsky_bound,
                                invariant_report, is_equigenerated,
                                is_integrally_closed, waldschmidt,
                                waldschmidt_point)
from symbpow.monomial import MonomialIdeal, maximal_ideal, power
from symbpow.rng import SplitRng

from conftest import drop_facts, ideal_of
from oracles import alpha_equality_at_denominator, integrally_closed_by_box

F = Fraction


def test_alpha_beta(rot3, triples4):
    assert alpha(rot3) == 3 and beta(rot3) == 3
    assert alpha(triples4) == 3 and beta(triples4) == 3
    mixed = ideal_of(2, (2, 0), (0, 5))
    assert alpha(mixed) == 2 and beta(mixed) == 5
    assert not is_equigenerated(mixed)
    assert is_equigenerated(rot3)


def test_alpha_rejects_degenerate():
    with pytest.raises(ValueError):
        alpha(MonomialIdeal.zero(2))
    with pytest.raises(ValueError):
        beta(MonomialIdeal.unit(2))


def test_waldschmidt_values(rot3, triples4, edges3):
    assert waldschmidt(rot3) == F(2)
    assert waldschmidt(triples4) == F(2)
    assert waldschmidt(edges3) == F(3, 2)
    assert sum(waldschmidt_point(rot3)) == F(2)


def test_waldschmidt_of_prime_power():
    assert waldschmidt(power(maximal_ideal(3), 4)) == F(4)


def test_chudnovsky(rot3, triples4, edges3):
    for I, bound in ((rot3, F(2)), (triples4, F(2)), (edges3, F(3, 2))):
        assert chudnovsky_bound(I) == bound
        res = check("chudnovsky", I)
        assert res.verdict == R.HOLDS
        assert res.kind == R.CONJECTURE
        assert res.details["slack"] == 0


def test_alpha_lower(rot3):
    for m in (1, 2, 3, 4, 5, 6):
        res = check("alpha_lower", rot3, {"m": m})
        assert res.verdict == R.HOLDS
    # equality exactly at multiples of the realizing denominator 3
    assert check("alpha_lower", rot3, {"m": 3}).details["equality"]
    assert check("alpha_lower", rot3, {"m": 6}).details["equality"]
    assert not check("alpha_lower", rot3, {"m": 1}).details["equality"]


def test_alpha_equality_at_denominator(rot3, triples4):
    rep = alpha_equality_at_denominator(rot3)
    assert rep == {"b": 3, "waldschmidt": F(2), "checked": True,
                   "alpha_at_b": 6, "equal": True}
    rep4 = alpha_equality_at_denominator(triples4)
    assert rep4["b"] == 2 and rep4["equal"]


def test_alpha_slope(triples4):
    res = check("alpha_slope", triples4, {"r": 1, "m": 2})
    assert res.verdict == R.HOLDS
    assert res.params == {"r": 1, "m": 2}
    assert res.details["s"] == 1
    below = check("alpha_slope", triples4, {"r": 1, "m": 1})
    assert below.verdict == R.NOT_APPLICABLE
    assert not below.in_hypothesis


def test_alpha_slope_auto_m(rot3):
    res = check("alpha_slope", rot3, {"r": 1})
    assert res.verdict == R.HOLDS
    assert res.params["m"] == 2  # threshold max(2, 3/2) = 2


def test_alpha_slope_threshold_cap(rot3, monkeypatch):
    monkeypatch.setattr(harness, "THRESHOLD_CAP", 1)
    res = check("alpha_slope", rot3, {"r": 1})
    assert res.verdict == R.RESOURCE_LIMIT


def test_equigenerated_containment(rot3, triples4):
    for I in (rot3, triples4):
        for r in (1, 2):
            res = check("equigenerated_containment", I, {"r": r})
            assert res.verdict == R.HOLDS, (I, r)
    mixed = ideal_of(2, (2, 0), (0, 5))
    res = check("equigenerated_containment", mixed, {"r": 1})
    assert res.verdict == R.NOT_APPLICABLE


def test_alpha_equality_check(edges3, rot3):
    # edges3: waldschmidt 3/2 != alpha 2 -> not applicable
    assert check("alpha_equality", edges3, {"r": 1}).verdict == R.NOT_APPLICABLE
    # a prime power: waldschmidt equals alpha
    res = check("alpha_equality", power(maximal_ideal(2), 3), {"r": 1})
    assert res.verdict == R.HOLDS
    assert res.details["containment_checked"]
    assert check("alpha_equality", rot3, {"r": 1}).verdict == R.NOT_APPLICABLE


def test_is_integrally_closed(monkeypatch, rot3):
    assert is_integrally_closed(ideal_of(2, (2, 0), (0, 1)))
    assert is_integrally_closed(power(maximal_ideal(3), 4))
    # (x^2, y^2) misses x*y which lies in the Newton polyhedron
    assert not is_integrally_closed(ideal_of(2, (2, 0), (0, 2)))
    # no box is scanned: (x^40, y^40) misses x^20*y^20, and (x^500, y^500)
    # x^250*y^250, with no budget on the exponents
    assert not is_integrally_closed(ideal_of(2, (40, 0), (0, 40)))
    assert not is_integrally_closed(ideal_of(2, (500, 0), (0, 500)))
    # the one limit left is the facet table's; a table is a fact of its
    # ideal's polyhedron, so rot3's is dropped before its budget is lowered
    drop_facts(newton_polyhedron)
    monkeypatch.setattr(geometry, "MAX_RAYS", 1)
    with pytest.raises(ResourceLimitError) as exc:
        is_integrally_closed(rot3)
    assert exc.value.what == "double-description rays"


def test_a_squarefree_ideal_is_closed_whatever_its_facet_table_costs(monkeypatch):
    """A square-free ideal is radical, so integrally closed: the answer
    needs no facet table, though its table is over a budget of one ray."""
    I = ideal_of(5, *[[int(i in s) for i in range(5)] for s in combinations(range(5), 3)])
    drop_facts(newton_polyhedron)
    monkeypatch.setattr(geometry, "MAX_RAYS", 1)
    assert is_integrally_closed(I)
    with pytest.raises(ResourceLimitError):
        newton_polyhedron(I).facets


@st.composite
def _small_ideals(draw):
    """Ideals in 2-4 variables with exponents up to 5: a box of at most
    1,296 points."""
    d = draw(st.integers(min_value=2, max_value=4))
    vector = st.lists(st.integers(min_value=0, max_value=5),
                      min_size=d, max_size=d).filter(any)
    return ideal_of(d, *draw(st.lists(vector, min_size=1, max_size=5)))


@given(_small_ideals())
@settings(max_examples=200, deadline=None)
def test_corner_test_against_the_box_scan(I):
    """The corner test over the facet rows and the irreducible components
    gives the verdict of a scan of every lattice point of the box, on I
    and on each of its localizations."""
    for J in (I, *(L for _, L in localizations(I))):
        assert is_integrally_closed(J) == integrally_closed_by_box(J)


def test_integrally_closed_bound():
    I = power(maximal_ideal(3), 8)  # n = 2, alpha = 8: hypothesis boundary
    res = check("integrally_closed_bound", I)
    assert res.verdict == R.HOLDS
    assert res.details["bound"] == F(9, 2)
    small = power(maximal_ideal(3), 3)
    assert check("integrally_closed_bound", small).verdict == R.NOT_APPLICABLE


def test_invariant_report(rot3):
    rep = invariant_report(rot3, ("x", "y", "z"))
    assert rep["alpha"] == 3
    assert rep["big_height"] == 2
    assert rep["sigma"] == 2
    assert rep["waldschmidt"] == F(2)
    assert rep["ass"] == ["(x,y)", "(x,z)", "(y,z)"]
    assert rep["squarefree"] is False
    assert rep["symbolic_equals_ordinary"] is False
    assert rep["integrally_closed"] is True


def test_invariant_report_checks_the_name_count(rot3):
    with pytest.raises(ValueError, match="variable names"):
        invariant_report(rot3, ("a", "b"))


def squarefree_ideal(n, supports):
    return ideal_of(n, *[[int(i in s) for i in range(n)] for s in supports])


# Closed forms of the Waldschmidt constant of square-free ideals (Bocci,
# Cooper, Guardo, Harbourne, Janssen, Nagel, Seceleanu, Van Tuyl and Vu,
# "The Waldschmidt constant for squarefree monomial ideals", J. Algebraic
# Combin. 44 (2016)): (2k+1)/(k+1) for the edge ideal of the odd cycle
# C_{2k+1}, n/(n-1) for that of the complete graph K_n, and n/(n-k+1) for
# the ideal of all square-free degree-k monomials in n variables.  They
# hold whichever LP computes the constant; the (10, 5) ideal has 210
# components.
CLOSED_FORMS = (
    [(f"C{n}", n, [(k, (k + 1) % n) for k in range(n)], F(n, (n + 1) // 2))
     for n in (5, 7, 9)]
    + [(f"K{n}", n, list(combinations(range(n), 2)), F(n, n - 1)) for n in (4, 6, 8)]
    + [(f"{k}-of-{n}", n, list(combinations(range(n), k)), F(n, n - k + 1))
       for n, k in ((7, 3), (8, 4), (9, 3), (10, 5))])


@pytest.mark.parametrize("n, supports, value", [row[1:] for row in CLOSED_FORMS],
                         ids=[row[0] for row in CLOSED_FORMS])
def test_waldschmidt_closed_forms(n, supports, value):
    assert waldschmidt(squarefree_ideal(n, supports)) == value


# sha256 of repr([(str(waldschmidt(I)), [str(x) for x in waldschmidt_point(I)])])
# over the benchmark's Waldschmidt corpus: the ideals
# _random_general(SplitRng(1309, ("waldschmidt-general",)).child(n, i), n, 5, 6)
# for n = 5, i < 24, then n = 6, i = 0.  A change that moves a pivot of
# the V-block LP, which gives the point at the corpus's three ties, fails
# here.
WALD_CORPUS_SHA256 = "2e16ff1a6891f79503c5dc8a80a1ff59a29a20007478e1f3d13bad09f7b471a2"


def _wald_corpus():
    """[(op id, ideal)] of the benchmark's Waldschmidt corpus, in order."""
    root = SplitRng(1309, ("waldschmidt-general",))
    return [(f"v{n}-{i:02d}", harness._random_general(root.child(n, i), n, 5, 6))
            for n, count in ((5, 24), (6, 1)) for i in range(count)]


def test_waldschmidt_corpus_is_pinned(dump_records):
    rows = [(str(waldschmidt(I)), [str(x) for x in waldschmidt_point(I)])
            for _, I in _wald_corpus()]
    dump_records("wald-corpus.jsonl", rows)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == WALD_CORPUS_SHA256


def test_only_the_corpus_ties_reach_the_vblock_lp(vblock_calls):
    """The facet-row LP's point is certified the only optimum on every
    ideal of the corpus but its three ties, and only those run the V-block
    LP, once each: waldschmidt_point reads the value's memo."""
    drop_facts(alpha_polyhedron)
    ties = []
    for name, I in _wald_corpus():
        before = len(vblock_calls)
        waldschmidt(I), waldschmidt_point(I)
        ties += [name] * (len(vblock_calls) - before)
    assert ties == ["v5-07", "v5-20", "v5-23"]


# waldschmidt_point as the Fraction-tableau simplex returned it, before the
# integer tableau replaced it.  Where the optimum is not unique (the last
# three rows) the point is the vertex that the V-block LP's pivot rules
# reach, so these tuples pin the pivot path; the very last ideal returns
# another optimal vertex if the entering column is chosen by any rule but
# Bland's.  The first five five-variable ideals are
# _random_general(SplitRng(7, ("pinned-pivots",)).child(i), 5, 4, 6), the
# last is ideal v5-23 of the benchmark's Waldschmidt corpus.
PINNED_POINTS = [
    (3, [(1, 2, 0), (0, 1, 2), (2, 0, 1), (1, 1, 1)], ("2/3", "2/3", "2/3")),
    (4, [(1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1)],
     ("1/2", "1/2", "1/2", "1/2")),
    (3, [(1, 1, 0), (1, 0, 1), (0, 1, 1)], ("1/2", "1/2", "1/2")),
    (5, [(1, 0, 1, 3, 3), (2, 2, 0, 2, 2), (2, 2, 2, 4, 0), (4, 2, 3, 1, 1),
         (1, 4, 4, 2, 1)], ("91/46", "37/23", "9/46", "97/46", "43/23")),
    (5, [(2, 4, 0, 1, 1), (2, 4, 4, 1, 0)], ("2", "4", "0", "1", "1")),
    (5, [(2, 0, 1, 3, 3), (0, 4, 3, 0, 3), (3, 4, 1, 2, 0), (4, 3, 0, 2, 1),
         (3, 3, 2, 1, 3), (4, 4, 0, 4, 0)],
     ("600/223", "616/223", "201/223", "372/223", "207/223")),
    (5, [(4, 3, 0, 4, 2), (4, 1, 4, 3, 4)], ("4", "3", "0", "4", "2")),
    (5, [(2, 3, 0, 1, 1), (3, 2, 3, 4, 1)], ("2", "3", "0", "1", "1")),
    (2, [(2, 0), (0, 2)], ("0", "2")),
    (3, [(2, 1, 0), (1, 2, 0), (0, 0, 3)], ("0", "0", "3")),
    (5, [(0, 2, 3, 1, 0), (4, 0, 1, 1, 0), (0, 0, 5, 2, 2), (2, 0, 2, 5, 5)],
     ("0", "2", "3", "1", "0")),
]


@pytest.mark.parametrize("dim, gens, point", PINNED_POINTS)
def test_waldschmidt_point_is_pinned(dim, gens, point):
    assert waldschmidt_point(ideal_of(dim, *gens)) == tuple(F(x) for x in point)
