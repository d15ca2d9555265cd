from __future__ import annotations

from fractions import Fraction

import pytest

from ilwhodge import exactnum
from ilwhodge.diffalg import (
    DiffPoly,
    coeff_ring,
    normalize,
    poisson_bracket,
    reconstruct_functional_from_flow,
    u_key,
)
import ilwhodge.ilw
from ilwhodge.ilw import (
    check_grading,
    first_diffpoly_mismatch,
    flow,
    h1,
    hamiltonian,
    higher_hamiltonian,
    t1_flow_rhs,
    t2_flow_rhs,
    verify_commutation,
    verify_flow_t1,
    verify_flow_t2,
)
from ilwhodge.mpseries import MultiSeries


def perturbed(g0, delta=Fraction(1, 1000000)):
    def cg(g):
        return exactnum.c_g(g) + (delta if g == g0 else 0)

    return cg


class TestH1:
    def test_order_zero(self):
        cv = coeff_ring(0)
        assert h1(0).functional == normalize(DiffPoly(cv, {u_key({0: 3}): Fraction(1, 6)}))

    def test_matches_displayed_density_as_functional(self):
        G = 3
        cv = coeff_ring(G)
        displayed = DiffPoly(cv, {u_key({0: 3}): Fraction(1, 6)})
        for g in range(1, G + 1):
            coef = MultiSeries.monomial(cv, (g, g - 1), exactnum.c_g(g))
            displayed = displayed + DiffPoly(cv, {u_key({0: 1, 2 * g: 1}): coef})
        assert h1(G).functional == normalize(displayed)

    def test_normal_form_coefficients(self):
        # int u u_{2g} = (-1)^g int u_g^2, so the stored density alternates sign
        density = h1(2).functional.density
        cv = coeff_ring(2)
        assert density.coefficient_of({1: 2}) == MultiSeries.monomial(
            cv, (1, 0), Fraction(-1, 24)
        )
        assert density.coefficient_of({2: 2}) == MultiSeries.monomial(
            cv, (2, 1), Fraction(1, 1440)
        )

    def test_grading(self):
        check_grading(h1(4))


class TestFlow:
    def test_h1_flow_matches_theorem(self):
        for G in (0, 1, 2, 5):
            assert flow(h1(G)) == t1_flow_rhs(G)

    def test_quadratic_hamiltonian(self):
        cv = coeff_ring(1)
        lf = normalize(DiffPoly(cv, {u_key({0: 2}): Fraction(1, 2)}))
        assert flow(lf) == DiffPoly(cv, {u_key({1: 1}): 1})

    def test_dispersion_coefficients(self):
        f = flow(h1(2))
        cv = coeff_ring(2)
        assert f.coefficient_of({3: 1}) == MultiSeries.monomial(cv, (1, 0), Fraction(1, 12))
        assert f.coefficient_of({5: 1}) == MultiSeries.monomial(cv, (2, 1), Fraction(1, 720))


class TestHigherHamiltonian:
    def test_order_zero(self):
        cv = coeff_ring(0)
        assert higher_hamiltonian(2, 0).functional == normalize(
            DiffPoly(cv, {u_key({0: 4}): Fraction(1, 24)})
        )

    def test_h2_first_order_density(self):
        cv = coeff_ring(1)
        expected = DiffPoly(
            cv,
            {
                u_key({0: 4}): Fraction(1, 24),
                u_key({0: 1, 1: 2}): MultiSeries.monomial(cv, (1, 0), Fraction(-1, 24)),
            },
        )
        assert higher_hamiltonian(2, 1).functional.density == expected

    def test_rejects_low_index(self):
        with pytest.raises(ValueError):
            higher_hamiltonian(1, 2)

    def test_grading(self):
        check_grading(higher_hamiltonian(2, 3))
        check_grading(higher_hamiltonian(3, 2))


class TestTheorem1:
    def test_t2_flow_matches(self):
        for G in (1, 2, 3, 20):
            assert verify_flow_t2(G).ok

    def test_t1_flow_matches(self):
        assert verify_flow_t1(5).ok

    def test_t2_closed_form_low_order_slice(self):
        # h^1 e^0 slice is (1/48)(2 (u u_2)_x + d^3/dx^3 u^2)
        f = flow(higher_hamiltonian(2, 1))
        cv = coeff_ring(1)
        assert f.coefficient_of({1: 1, 2: 1}) == MultiSeries.monomial(
            cv, (1, 0), Fraction(1, 6)
        )
        assert f.coefficient_of({0: 1, 3: 1}) == MultiSeries.monomial(
            cv, (1, 0), Fraction(1, 12)
        )


class TestCommutation:
    def test_defining_relation(self):
        assert verify_commutation(2, 1, 3).ok

    def test_self_commutation(self):
        assert verify_commutation(1, 1, 2).ok

    def test_pairwise_property(self):
        assert verify_commutation(3, 2, 2).ok

    def test_bracket_vanishes_directly(self):
        g2 = higher_hamiltonian(2, 3)
        g1 = h1(3)
        assert poisson_bracket(g2.functional, g1.functional).is_zero()


class TestNegativeControls:
    def test_t1_mismatch_is_localized(self):
        report = verify_flow_t1(2, perturbed(2))
        assert report.status == "mismatch"
        assert report.first_mismatch["h_exp"] == 2
        assert report.first_mismatch["monomial"] == "u_5"

    def test_t2_mismatch_first_term(self):
        report = verify_flow_t2(1, perturbed(1))
        assert report.status == "mismatch"
        assert report.first_mismatch["h_exp"] == 1
        assert report.first_mismatch["monomial"] == "u_1*u_2"

    def test_commutation_mismatch_names_the_bracket(self, monkeypatch):
        # h_1 with a shifted dispersion constant does not commute with h_1
        original = ilwhodge.ilw.hamiltonian

        def non_commuting(i, G, cg_values=None):
            return h1(G, perturbed(1)) if i == 2 else original(i, G, cg_values)

        monkeypatch.setattr(ilwhodge.ilw, "hamiltonian", non_commuting)
        report = verify_commutation(2, 1, 2)
        assert report.status == "mismatch"
        assert list(report.first_mismatch) == [
            "monomial", "h_exp", "e_exp", "expected", "computed", "bracket"
        ]
        assert report.first_mismatch["bracket"] == "{h_2, h_1}"


class TestReconstruction:
    def test_flow_reconstructs_hamiltonian(self):
        for ham in (h1(2), higher_hamiltonian(2, 2)):
            got = reconstruct_functional_from_flow(flow(ham))
            assert got == ham.functional


def test_first_mismatch_none_on_equal():
    assert first_diffpoly_mismatch(t2_flow_rhs(2), t2_flow_rhs(2)) is None


def test_hamiltonian_dispatch():
    assert hamiltonian(1, 2).index == 1
    assert hamiltonian(3, 1).index == 3
    with pytest.raises(ValueError):
        hamiltonian(0, 2)
