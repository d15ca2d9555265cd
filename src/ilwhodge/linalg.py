"""Exact Gaussian elimination over the rationals.

Deterministic pivoting: columns are processed left to right and the pivot is
the first row with a nonzero entry, so identical systems always produce
identical solutions and free-direction bases.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["LinearSolution", "solve_exact"]


class LinearSolution:
    """Outcome of an exact solve: a particular solution (free variables set
    to zero) plus a basis of the homogeneous solution space."""

    def __init__(self, consistent: bool, solution: list[Fraction] | None,
                 free_directions: list[list[Fraction]] | None = None):
        self.consistent = consistent
        self.solution = solution
        self.free_directions = [] if free_directions is None else free_directions

    @property
    def unique(self) -> bool:
        return self.consistent and not self.free_directions


def solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> LinearSolution:
    """Solve rows * x = rhs exactly; never raises on rank defects."""
    m = len(rows)
    if m != len(rhs):
        raise ValueError("matrix/right-hand side size mismatch")
    n = len(rows[0]) if m else 0
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for row in a:
        if len(row) != n + 1:
            raise ValueError("ragged matrix")

    pivot_cols: list[int] = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break

    for i in range(r, m):
        if a[i][n] != 0:
            return LinearSolution(consistent=False, solution=None)

    free_cols = [c for c in range(n) if c not in pivot_cols]
    solution = [Fraction(0)] * n
    for i, c in enumerate(pivot_cols):
        solution[c] = a[i][n]

    directions = []
    for fc in free_cols:
        d = [Fraction(0)] * n
        d[fc] = Fraction(1)
        for i, c in enumerate(pivot_cols):
            d[c] = -a[i][fc]
        directions.append(d)
    return LinearSolution(consistent=True, solution=solution, free_directions=directions)
