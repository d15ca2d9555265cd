from __future__ import annotations

import re
from fractions import Fraction

import pytest

from homotopy_reference import reconstruct_functional_from_flow
from ilwhodge import exactnum
from ilwhodge.diffalg import (
    DiffPoly,
    normalize,
    poisson_bracket,
    total_x_derivative,
    u_key,
)
from ilwhodge.ilw import (
    InconsistentSystemError,
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
from ilwhodge.mpseries import coeff_ring
from properties import check_hamiltonians_in_normal_form, he_group, u_power


def perturbed(g0, delta=Fraction(1, 1000000)):
    def cg(g):
        return exactnum.c_g(g) + (delta if g == g0 else 0)

    return cg


class TestH1:
    def test_order_zero(self):
        cv = coeff_ring(0)
        assert h1(0) == normalize(u_power(cv, 0, 3, Fraction(1, 6)))

    def test_matches_displayed_density_as_functional(self):
        G = 3
        cv = coeff_ring(G)
        displayed = u_power(cv, 0, 3, Fraction(1, 6))
        for g in range(1, G + 1):
            key = (u_key({0: 1, 2 * g: 1}), g, g - 1)
            displayed = displayed + DiffPoly(cv, {key: exactnum.c_g(g)})
        assert h1(G) == normalize(displayed)

    def test_normal_form_coefficients(self):
        # int u u_{2g} = (-1)^g int u_g^2, so the stored density alternates sign
        density = h1(2)
        assert he_group(density, {1: 2}) == {(1, 0): Fraction(-1, 24)}
        assert he_group(density, {2: 2}) == {(2, 1): Fraction(1, 1440)}

    def test_grading(self):
        check_grading(1, h1(4))

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError, match="genus order must be >= 0, got -1"):
            h1(-1)


class TestFlow:
    def test_h1_flow_matches_theorem(self):
        for G in (0, 1, 2, 5):
            assert flow(h1(G)) == t1_flow_rhs(G)

    def test_quadratic_hamiltonian(self):
        cv = coeff_ring(1)
        lf = normalize(u_power(cv, 0, 2, Fraction(1, 2)))
        assert flow(lf) == u_power(cv, 1)

    def test_dispersion_coefficients(self):
        f = flow(h1(2))
        assert he_group(f, {3: 1}) == {(1, 0): Fraction(1, 12)}
        assert he_group(f, {5: 1}) == {(2, 1): Fraction(1, 720)}


class TestHigherHamiltonian:
    def test_order_zero(self):
        cv = coeff_ring(0)
        assert higher_hamiltonian(2, 0) == normalize(
            u_power(cv, 0, 4, Fraction(1, 24))
        )

    def test_h2_first_order_density(self):
        cv = coeff_ring(1)
        expected = DiffPoly(
            cv,
            {
                (u_key({0: 4}), 0, 0): Fraction(1, 24),
                (u_key({0: 1, 1: 2}), 1, 0): Fraction(-1, 24),
            },
        )
        assert higher_hamiltonian(2, 1) == expected

    def test_rejects_low_index(self):
        with pytest.raises(ValueError):
            higher_hamiltonian(1, 2)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError, match="genus order must be >= 0, got -1"):
            higher_hamiltonian(2, -1)

    def test_grading(self):
        check_grading(2, higher_hamiltonian(2, 3))
        check_grading(3, higher_hamiltonian(3, 2))


class TestCheckGrading:
    """The density of h_2 to h^2, edited to break one invariant at a time."""

    @pytest.mark.parametrize("edit, message", [
        ({(u_key({0: 2, 3: 1}), 1, 0): 1}, "u^2*u_3 at h^1 has differential degree 3"),
        ({(u_key({0: 1, 1: 2}), 1, 1): 1}, "u*u_1^2 at h^1 has e-exponent 1"),
        ({(u_key({0: 4}), 0, 0): Fraction(1, 12)}, "h^0 part is not u^(i+2)/(i+2)!"),
    ], ids=["differential-degree", "e-exponent", "h0-part"])
    def test_an_edited_density_fails(self, edit, message):
        h = higher_hamiltonian(2, 2)
        check_grading(2, h)
        edited = DiffPoly(h.vars, {**h.terms, **edit})
        with pytest.raises(AssertionError, match=re.escape(message)):
            check_grading(2, edited)


class TestTheorem1:
    def test_t2_flow_matches(self):
        for G in (1, 2, 3, 20):
            assert verify_flow_t2(higher_hamiltonian(2, G)).ok

    def test_t1_flow_matches(self):
        assert verify_flow_t1(h1(5)).ok

    def test_t2_closed_form_matches_derivative_construction(self):
        # the reference builds each dispersive sum with total_x_derivative
        # and DiffPoly arithmetic, which the literal term map avoids
        for G in range(13):
            cvars = coeff_ring(G)
            terms = {(u_key({0: 2, 1: 1}), 0, 0): Fraction(1, 2)}
            dxs = total_x_derivative(u_power(cvars, 0, 2))
            for g in range(1, G + 1):
                disp = exactnum.dispersion_coeff(g)
                inner = total_x_derivative(DiffPoly(cvars, {(u_key({0: 1, 2 * g: 1}), 0, 0): 2}))
                dxs = total_x_derivative(total_x_derivative(dxs))  # d^(2g+1)/dx^(2g+1) u^2
                for (ue, _, _), c in (inner + dxs).terms.items():
                    terms[(ue, g, g - 1)] = c * disp / 4
                if g >= 2:
                    terms[(u_key({2 * g + 1: 1}), g, g - 2)] = disp * (g + 1)
            assert t2_flow_rhs(G) == DiffPoly(cvars, terms), G

    def test_t2_closed_form_low_order_slice(self):
        # h^1 e^0 slice is (1/48)(2 (u u_2)_x + d^3/dx^3 u^2)
        f = flow(higher_hamiltonian(2, 1))
        assert he_group(f, {1: 1, 2: 1}) == {(1, 0): Fraction(1, 6)}
        assert he_group(f, {0: 1, 3: 1}) == {(1, 0): Fraction(1, 12)}


class TestCommutation:
    def test_defining_relation(self):
        assert verify_commutation(2, 1, higher_hamiltonian(2, 3), h1(3)).ok

    def test_self_commutation(self):
        assert verify_commutation(1, 1, h1(2), h1(2)).ok

    def test_pairwise_property(self):
        assert verify_commutation(3, 2, higher_hamiltonian(3, 2), higher_hamiltonian(2, 2)).ok

    def test_bracket_vanishes_directly(self):
        g2 = higher_hamiltonian(2, 3)
        g1 = h1(3)
        assert not poisson_bracket(g2, g1)


class TestNegativeControls:
    def test_t1_mismatch_is_localized(self):
        report = verify_flow_t1(h1(2, perturbed(2)))
        assert report.status == "mismatch"
        assert report.first_mismatch["h_exp"] == 2
        assert report.first_mismatch["monomial"] == "u_5"

    def test_t2_mismatch_first_term(self):
        report = verify_flow_t2(higher_hamiltonian(2, 1, perturbed(1)))
        assert report.status == "mismatch"
        assert report.first_mismatch["h_exp"] == 1
        assert report.first_mismatch["monomial"] == "u_1*u_2"

    def test_commutation_mismatch_names_the_bracket(self):
        # h_1 with a shifted dispersion constant does not commute with h_1
        report = verify_commutation(2, 1, h1(2, perturbed(1)), h1(2))
        assert report.status == "mismatch"
        assert list(report.first_mismatch) == [
            "monomial", "h_exp", "e_exp", "expected", "computed", "bracket"
        ]
        assert report.first_mismatch["bracket"] == "{h_2, h_1}"


# the build of h_i with c_{g0} shifted by 1/1000000, per G and g0 = 1..G:
# None when it succeeds, else the h-order of its InconsistentSystemError
SHIFTED_CG_OUTCOMES = {
    1: [None],
    2: [None, None],
    3: [None, None, None],
    4: [4, 4, 4, None],
    5: [4, 4, 4, 5, None],
    6: [4, 4, 4, 5, 6, None],
}


@pytest.mark.parametrize("i", [2, 3, 4])
def test_shifted_cg_outcomes_are_pinned(i):
    got = {}
    for G in SHIFTED_CG_OUTCOMES:
        got[G] = []
        for g0 in range(1, G + 1):
            try:
                higher_hamiltonian(i, G, perturbed(g0))
                got[G].append(None)
            except InconsistentSystemError as err:
                assert err.index == i
                got[G].append(err.genus)
    assert got == SHIFTED_CG_OUTCOMES


class TestReconstruction:
    def test_flow_reconstructs_hamiltonian(self):
        for ham in (h1(2), higher_hamiltonian(2, 2)):
            got = reconstruct_functional_from_flow(flow(ham))
            assert got == ham


def test_first_mismatch_none_on_equal():
    assert first_diffpoly_mismatch(t2_flow_rhs(2), t2_flow_rhs(2)) is None


def test_hamiltonian_dispatch():
    assert hamiltonian(1, 2) == h1(2)
    assert hamiltonian(3, 1) == higher_hamiltonian(3, 1)
    with pytest.raises(ValueError):
        hamiltonian(0, 2)


def test_hamiltonians_are_returned_in_normal_form():
    check_hamiltonians_in_normal_form(200, 2034)
