"""Small exact linear algebra over Fractions (Gaussian elimination)."""

from __future__ import annotations

from fractions import Fraction


def _echelon(rows: list[list[Fraction]]):
    """Row-reduce in place; returns the list of pivot column indices."""
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def solve_square(matrix, rhs) -> list[Fraction] | None:
    """Unique solution of matrix @ x = rhs, or None when singular."""
    n = len(matrix)
    rows = [[Fraction(matrix[i][j]) for j in range(n)] + [Fraction(rhs[i])]
            for i in range(n)]
    pivots = _echelon(rows)
    if len(pivots) < n or any(p >= n for p in pivots):
        return None
    sol = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        sol[c] = rows[i][n]
    return sol


def nullspace(matrix) -> list[list[Fraction]]:
    """Basis of the kernel of matrix (list of column vectors)."""
    if not matrix:
        return []
    nrows, ncols = len(matrix), len(matrix[0])
    rows = [[Fraction(matrix[i][j]) for j in range(ncols)] for i in range(nrows)]
    pivots = _echelon(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -rows[i][free]
        basis.append(vec)
    return basis
