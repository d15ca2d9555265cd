"""The double-ramification recursion against the commutation solve.

`ilwhodge.ilw.higher_hamiltonian` builds h_i by the recursion;
`ansatz_reference.higher_hamiltonian` solves {h_i, h_1} = 0 over a graded
ansatz with exact Gaussian elimination.  Both must give the same functional,
and under a shifted c_g both must fail at the same h-order.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import ansatz_reference
from ansatz_reference import UnderdeterminedSystemError, ansatz_monomials
from ilwhodge import exactnum
from ilwhodge.ilw import InconsistentSystemError, higher_hamiltonian


def perturbed(g0, delta):
    def cg(g):
        return exactnum.c_g(g) + (delta if g == g0 else 0)

    return cg


def test_ansatz_monomials_shape():
    for i, g in ((2, 1), (2, 2), (3, 2)):
        for ue, j in ansatz_monomials(i, g):
            assert sum(k * m for k, m in ue) == 2 * g
            top, mult = ue[-1]
            assert top == 0 or mult >= 2
            n = sum(m for _, m in ue)
            assert j == g - (i + 2 - n) >= 0


class TestRankDefectSurfacing:
    def test_duplicate_ansatz_column_is_underdetermined(self, monkeypatch):
        original = ansatz_monomials

        def doubled(i, g):
            basis = original(i, g)
            return basis + [basis[0]]

        monkeypatch.setattr(ansatz_reference, "ansatz_monomials", doubled)
        with pytest.raises(UnderdeterminedSystemError) as exc:
            ansatz_reference.higher_hamiltonian(2, 1)
        assert exc.value.directions

    def test_empty_ansatz_is_inconsistent(self, monkeypatch):
        monkeypatch.setattr(ansatz_reference, "ansatz_monomials", lambda i, g: [])
        with pytest.raises(InconsistentSystemError):
            ansatz_reference.higher_hamiltonian(2, 1)


class TestBothRoutes:
    @pytest.mark.parametrize("i", (2, 3, 4))
    def test_recursion_matches_solve(self, i):
        for G in range(9):
            assert higher_hamiltonian(i, G) == ansatz_reference.higher_hamiltonian(i, G)

    @pytest.mark.parametrize("i", (2, 3))
    @pytest.mark.parametrize("g0", range(1, 7))
    def test_shifted_cg_fails_at_the_same_order(self, i, g0):
        cg = perturbed(g0, Fraction(-37, 123456))
        outcomes = []
        for build in (higher_hamiltonian, ansatz_reference.higher_hamiltonian):
            try:
                outcomes.append(build(i, 6, cg))
            except InconsistentSystemError as exc:
                outcomes.append(("inconsistent", exc.genus))
        assert outcomes[0] == outcomes[1]
