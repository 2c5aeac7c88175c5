"""Exact simplex solver tests, including a float cross-check against scipy."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symbpow import lp
from symbpow.errors import VerificationError

from oracles import textbook_simplex

F = Fraction


def make_lp(matrix, rhs, senses, cost):
    return lp.LinearProgram.make(matrix, rhs, senses, cost)


def test_known_optimum():
    # min x + y  s.t.  x + 2y >= 2,  2x + y >= 2
    prog = make_lp([[1, 2], [2, 1]], [2, 2], [lp.GE, lp.GE], [1, 1])
    res = lp.solve(prog)
    assert res.status == lp.OPTIMAL
    assert res.value == F(4, 3)
    assert res.solution == (F(2, 3), F(2, 3))
    assert res.dual == (F(1, 3), F(1, 3))


def test_dual_of_a_flipped_row():
    # min -x  s.t.  x <= 3/2, x - y == -1  (a negative right-hand side)
    prog = make_lp([[1, 0], [1, -1]], [F(3, 2), -1], [lp.LE, lp.EQ], [-1, 0])
    res = lp.solve(prog)
    assert res.solution == (F(3, 2), F(5, 2))
    assert res.dual == (F(-1), F(0))


def test_infeasible():
    prog = make_lp([[1], [1]], [1, 0], [lp.GE, lp.LE], [1])
    res = lp.solve(prog)
    assert res.status == lp.INFEASIBLE
    y = res.dual  # a Farkas ray: y_0 >= 0, y_1 <= 0, y_0 + y_1 <= 0, y_0 > 0
    assert y[0] > 0 and y[1] <= -y[0]


def _known_optimum():
    prog = make_lp([[1, 2], [2, 1]], [2, 2], [lp.GE, lp.GE], [1, 1])
    return prog, lp.solve(prog)


@pytest.mark.parametrize("tamper", [
    lambda r: r._replace(value=r.value + 1),
    lambda r: r._replace(solution=(F(0), F(0)), value=F(0)),
    # feasible but not optimal: only the dual certificate catches it
    lambda r: r._replace(solution=(F(2), F(0)), value=F(2)),
    lambda r: r._replace(dual=None),
    lambda r: r._replace(dual=(F(-1, 3), F(1, 3))),  # wrong sign for >=
    lambda r: r._replace(dual=(F(1), F(0))),  # A^T y exceeds c
    lambda r: r._replace(dual=(F(0), F(0))),  # duality gap
    lambda r: lp.LPResult(lp.INFEASIBLE, None, None, (F(1), F(1))),
])
def test_tampered_result_raises(tamper):
    prog, good = _known_optimum()
    lp._verify(prog, good)
    with pytest.raises(VerificationError):
        lp._verify(prog, tamper(good))


def test_solve_rejects_a_wrong_tableau_answer(monkeypatch):
    prog, good = _known_optimum()
    suboptimal = good._replace(solution=(F(2), F(0)), value=F(2))
    monkeypatch.setattr(lp._Tableau, "solve", lambda self: suboptimal)
    with pytest.raises(VerificationError):
        lp.solve(prog)


def test_unbounded():
    prog = make_lp([[1]], [0], [lp.GE], [-1])
    assert lp.solve(prog).status == lp.UNBOUNDED


def test_equality_constraints():
    # min x + 3y  s.t.  x + y == 4, x <= 3
    prog = make_lp([[1, 1], [1, 0]], [4, 3], [lp.EQ, lp.LE], [1, 3])
    res = lp.solve(prog)
    assert res.status == lp.OPTIMAL
    assert res.solution == (F(3), F(1))
    assert res.value == F(6)


def test_degenerate_redundant_rows():
    prog = make_lp([[1, 1], [2, 2], [1, 0]], [2, 4, 5],
                   [lp.EQ, lp.EQ, lp.LE], [1, 2])
    res = lp.solve(prog)
    assert res.status == lp.OPTIMAL
    assert res.value == F(2)  # all weight on x
    assert res.dual == (F(1), F(0), F(0))  # the dropped row's multiplier is 0


def test_feasible_point():
    sol = lp.feasible_point([[1, 1]], [1], [lp.EQ])
    assert sol is not None
    assert sum(sol) == F(1)
    assert lp.feasible_point([[1], [1]], [2, 1], [lp.GE, lp.LE]) is None


# ---------------------------------------------------------------------------
# the pivot path against a textbook Fraction tableau under the same Bland rule

# a few Fraction entries of both signs, so rows need scaling and flipping
mixed_entry = st.one_of(st.integers(min_value=-3, max_value=4),
                        st.fractions(min_value=-3, max_value=4, max_denominator=4))
sense = st.sampled_from([lp.LE, lp.GE, lp.EQ])


def with_redundant_rows(matrix, rhs, senses, redundant):
    """Append, per redundant copy, the same row again and twice it, both as
    EQ rows, which phase 1 leaves with artificials at 0 for the purge."""
    n = len(rhs)
    matrix, rhs, senses = [list(r) for r in matrix], list(rhs), list(senses)
    for i in range(redundant):
        k = i % n
        matrix += [list(matrix[k]), [2 * a for a in matrix[k]]]
        rhs += [rhs[k], 2 * rhs[k]]
        senses += [lp.EQ, lp.EQ]
    return matrix, rhs, senses


# a program whose purge of artificials pivots on a negative entry
NEGATIVE_PURGE = ([[1, -1, -2], [1, -1, -2], [2, -2, -4]], [3, 3, 6],
                  [lp.LE, lp.EQ, lp.EQ], [4, 3, 4])


def test_purge_pivots_on_a_negative_entry(monkeypatch):
    pivots = []
    pivot = lp._Tableau._pivot

    def spy(self, r, c):
        pivots.append(self.rows[r][c])
        pivot(self, r, c)

    monkeypatch.setattr(lp._Tableau, "_pivot", spy)
    prog = make_lp(*NEGATIVE_PURGE)
    assert lp.solve(prog) == textbook_simplex(prog)
    assert any(p < 0 for p in pivots)


def test_phase_2_keeps_only_eq_artificials():
    """Once phase 1 ends, a GE row's artificial column is deleted, since its
    multiplier comes from its slack; an EQ row keeps its artificial."""
    # min x + y  s.t.  -x - y <= -2 (flipped to GE),  x - y >= 0,  x + 2y == 3
    prog = make_lp([[-1, -1], [1, -1], [1, 2]], [-2, 0, 3],
                   [lp.LE, lp.GE, lp.EQ], [1, 1])
    tableau = lp._Tableau(prog)
    assert tableau.ncols == tableau.n_free + 3
    assert tableau.solve() == textbook_simplex(prog)
    assert tableau.ncols == tableau.n_free + 1
    assert all(len(row) == tableau.ncols + 2 for row in tableau.rows + [tableau.phase2])


@given(st.lists(st.tuples(st.lists(mixed_entry, min_size=3, max_size=3),
                          mixed_entry, sense), min_size=1, max_size=5),
       st.lists(st.integers(min_value=-2, max_value=5), min_size=3, max_size=3),
       st.integers(min_value=0, max_value=3))
@example([(r, b, s) for r, b, s in zip(*NEGATIVE_PURGE[:3])], NEGATIVE_PURGE[3], 0)
@settings(max_examples=200, deadline=None)
def test_pivot_path_matches_textbook_tableau(rows, cost, redundant):
    matrix, rhs, senses = with_redundant_rows(
        [r for r, _, _ in rows], [b for _, b, _ in rows], [s for _, _, s in rows],
        redundant)
    prog = make_lp(matrix, rhs, senses, cost)
    ours, ref = lp.solve(prog), textbook_simplex(prog)
    assert ours.status == ref.status
    assert ours.solution == ref.solution
    assert ours.dual == ref.dual
    assert ours.value == ref.value


# ---------------------------------------------------------------------------
# randomized cross-check against scipy (floats, loose tolerance)

scipy = pytest.importorskip("scipy")
import numpy as np  # noqa: E402
from scipy.optimize import linprog  # noqa: E402

entry = st.integers(min_value=0, max_value=4)
row3 = st.lists(entry, min_size=3, max_size=3)


@given(st.lists(row3, min_size=1, max_size=4),
       st.lists(st.integers(min_value=0, max_value=6), min_size=4, max_size=4),
       st.lists(st.integers(min_value=1, max_value=5), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_matches_scipy_on_ge_programs(matrix, rhs, cost):
    rhs = rhs[:len(matrix)]
    prog = make_lp(matrix, rhs, [lp.GE] * len(matrix), cost)
    ours = lp.solve(prog)
    ref = linprog(c=cost, A_ub=-np.array(matrix, dtype=float),
                  b_ub=-np.array(rhs, dtype=float), method="highs")
    if ref.status == 0:
        assert ours.status == lp.OPTIMAL
        assert abs(float(ours.value) - ref.fun) < 1e-7
    elif ref.status == 2:
        assert ours.status == lp.INFEASIBLE


@given(st.lists(st.tuples(st.lists(mixed_entry, min_size=3, max_size=3),
                          mixed_entry, sense), min_size=1, max_size=5),
       st.lists(st.integers(min_value=0, max_value=5), min_size=3, max_size=3),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=150, deadline=None)
def test_matches_scipy_on_mixed_programs(rows, cost, redundant):
    matrix, rhs, senses = with_redundant_rows(
        [r for r, _, _ in rows], [b for _, b, _ in rows], [s for _, _, s in rows],
        redundant)
    ours = lp.solve(make_lp(matrix, rhs, senses, cost))
    A = np.array([[float(a) for a in row] for row in matrix])
    b = np.array([float(x) for x in rhs])
    le = [i for i, s in enumerate(senses) if s == lp.LE]
    ge = [i for i, s in enumerate(senses) if s == lp.GE]
    eq = [i for i, s in enumerate(senses) if s == lp.EQ]
    A_ub = np.vstack([A[le], -A[ge]]) if le or ge else None
    b_ub = np.concatenate([b[le], -b[ge]]) if le or ge else None
    ref = linprog(c=cost, A_ub=A_ub, b_ub=b_ub,
                  A_eq=A[eq] if eq else None, b_eq=b[eq] if eq else None,
                  method="highs")
    if ref.status == 0:
        assert ours.status == lp.OPTIMAL
        assert abs(float(ours.value) - ref.fun) < 1e-7
        assert ours.dual is not None
    elif ref.status == 2:
        assert ours.status == lp.INFEASIBLE
        assert ours.dual is not None
