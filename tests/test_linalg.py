from __future__ import annotations

import random
from fractions import Fraction

from ilwhodge.linalg import solve_exact


def F(a, b=1):
    return Fraction(a, b)


def test_unique_solution():
    res = solve_exact([[F(2), F(1)], [F(1), F(-1)]], [F(5), F(1)])
    assert res.unique
    assert res.solution == [F(2), F(1)]


def test_underdetermined_reports_directions():
    res = solve_exact([[F(1), F(2), F(-1)]], [F(3)])
    assert res.consistent and not res.unique
    assert len(res.free_directions) == 2
    for d in res.free_directions:
        assert sum(x * y for x, y in zip([F(1), F(2), F(-1)], d)) == 0
        assert any(x != 0 for x in d)


def test_inconsistent():
    res = solve_exact([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)])
    assert not res.consistent
    assert res.solution is None


def test_inconsistent_solutions_do_not_share_directions():
    a, b = (solve_exact([[F(1)], [F(1)]], [F(1), F(2)]) for _ in range(2))
    assert not a.consistent and a.free_directions == [] == b.free_directions
    a.free_directions.append([F(1)])
    assert b.free_directions == []


def test_zero_columns_are_free():
    res = solve_exact([[F(0), F(1)]], [F(4)])
    assert res.consistent
    assert res.solution == [F(0), F(4)]
    assert res.free_directions == [[F(1), F(0)]]


def test_randomized_exact_solve():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(1, 5)
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        rows = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n + rng.randint(0, 2))
        ]
        rhs = [sum(r * v for r, v in zip(row, x)) for row in rows]
        res = solve_exact(rows, rhs)
        assert res.consistent
        got = res.solution
        for row, b in zip(rows, rhs):
            assert sum(r * v for r, v in zip(row, got)) == b
        if res.unique:
            assert got == x
