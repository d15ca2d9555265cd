from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from homotopy_reference import NotSelfAdjointError, reconstruct_functional_from_flow
from ilwhodge.cli import _coefficient_rows, _density_json, _density_latex
from ilwhodge.diffalg import (
    DiffAlgError,
    DiffPoly,
    NotTotalDerivativeError,
    _Packing,
    coeff_ring,
    integrate_x,
    miura_inverse_series,
    miura_series,
    normalize,
    poisson_bracket,
    total_x_derivative,
    u_key,
    variational_derivative,
)
from ilwhodge.mpseries import SeriesError, _int_product, _scaled
from oracles import series_reciprocal, sinc_half_coeffs
from properties import (
    check_bracket_antisymmetry_jacobi,
    check_calculus_kernel_against_reference,
    check_packed_kernels_at_field_width,
    check_diffpoly_ring_against_reference,
    check_dx_derivation,
    check_euler_kills_dx,
    check_frechet_pairing_by_parts,
    check_shared_derivative_list,
    check_miura_roundtrip,
    check_normalize_against_reference,
    check_normalize_idempotent,
    check_one_pair_loop_at_field_width,
    frechet_apply,
    he_group,
    miura_forward,
    miura_inverse,
    random_diffpoly,
)

CV = coeff_ring(2)


def dp(terms):
    return DiffPoly(CV, {(k, 0, 0): Fraction(*v) if isinstance(v, tuple) else v
                         for k, v in terms.items()})


U = dp({((0, 1),): 1})


class TestTotalXDerivative:
    def test_power(self):
        assert total_x_derivative(dp({((0, 2),): (1, 2)})) == dp({((0, 1), (1, 1)): 1})

    def test_product_rule_case(self):
        got = total_x_derivative(dp({((0, 1), (2, 1)): 1}))
        assert got == dp({((1, 1), (2, 1)): 1, ((0, 1), (3, 1)): 1})

    def test_constant(self):
        assert total_x_derivative(DiffPoly.constant(CV, 5)).is_zero()


class TestVariationalDerivative:
    def test_cubic(self):
        assert variational_derivative(dp({((0, 3),): (1, 6)})) == dp({((0, 2),): (1, 2)})

    def test_u_u2g(self):
        for g in (1, 2, 3):
            cv = coeff_ring(3)
            p = DiffPoly(cv, {(u_key({0: 1, 2 * g: 1}), 0, 0): 1})
            assert variational_derivative(p) == DiffPoly(cv, {(u_key({2 * g: 1}), 0, 0): 2})

    def test_u1_squared(self):
        assert variational_derivative(dp({((1, 2),): (1, 2)})) == dp({((2, 1),): -1})

    def test_accepts_functional(self):
        lf = normalize(dp({((0, 3),): (1, 6)}))
        assert variational_derivative(lf) == dp({((0, 2),): (1, 2)})


class TestNormalize:
    def test_u1_squared_already_normal(self):
        assert normalize(dp({((1, 2),): 1})) == dp({((1, 2),): 1})

    def test_u_u2_reduces(self):
        assert normalize(dp({((0, 1), (2, 1)): 1})) == dp({((1, 2),): -1})

    def test_pure_derivative_vanishes(self):
        assert normalize(dp({((3, 1),): 1})).is_zero()

    def test_u_cubed_stays(self):
        assert normalize(dp({((0, 3),): 1})) == dp({((0, 3),): 1})

    def test_self_reproducing_monomial(self):
        # u_1^2 u_2 = d/dx(u_1^3/3)
        assert normalize(dp({((1, 2), (2, 1)): 1})).is_zero()

    def test_three_factor_reduction(self):
        # int u u_1 u_3 = -int u u_2^2 (two steps, one vanishing branch)
        got = normalize(dp({((0, 1), (1, 1), (3, 1)): 1}))
        assert got == dp({((0, 1), (2, 2)): -1})

    def test_casimir_density_survives(self):
        assert normalize(dp({((0, 1),): 1})) == dp({((0, 1),): 1})

    def test_functional_equality_mod_exact_terms(self):
        p = dp({((0, 3),): (1, 6)})
        shifted = p + total_x_derivative(dp({((0, 2), (1, 1)): 3, ((2, 2),): (5, 7)}))
        assert normalize(shifted) == normalize(p)


class TestPoissonBracket:
    def test_self_bracket_vanishes(self):
        h = normalize(dp({((0, 3),): (1, 6), ((1, 2),): (-1, 24)}))
        assert poisson_bracket(h, h).is_zero()

    def test_casimir(self):
        casimir = normalize(dp({((0, 1),): 1}))
        h = normalize(dp({((0, 4),): (1, 24), ((0, 1), (2, 1)): 1}))
        assert poisson_bracket(h, casimir).is_zero()
        assert poisson_bracket(casimir, h).is_zero()

    def test_cubic_quadratic(self):
        h3 = normalize(dp({((0, 3),): (1, 6)}))
        h2 = normalize(dp({((0, 2),): (1, 2)}))
        assert poisson_bracket(h3, h2).is_zero()


def _linear_terms(coeffs: list[Fraction]) -> dict:
    """{(u_{2m}, m, m): coeffs[2m]} over the nonzero even coefficients."""
    return {(u_key({x: 1}), x // 2, x // 2): c
            for x, c in enumerate(coeffs) if x % 2 == 0 and c}


class TestMiura:
    def test_forward_series_coefficients(self):
        m = miura_series(CV, 2)
        assert he_group(m, {0: 1}) == {(0, 0): 1}
        assert he_group(m, {2: 1}) == {(1, 1): Fraction(-1, 24)}
        assert he_group(m, {4: 1}) == {(2, 2): Fraction(1, 1920)}

    def test_inverse_series_coefficients(self):
        w = miura_inverse_series(CV, 2)
        assert he_group(w, {2: 1}) == {(1, 1): Fraction(1, 24)}
        assert he_group(w, {4: 1}) == {(2, 2): Fraction(7, 5760)}

    def test_forward_series_is_the_sinc_series(self):
        # u_{2m} h^m e^m carries the z^{2m} coefficient of sin(z/2)/(z/2)
        for G in range(11):
            s = sinc_half_coeffs(2 * G)
            assert miura_series(coeff_ring(G), G).terms == _linear_terms(s)

    def test_inverse_series_is_the_reciprocal_sinc_series(self):
        for G in range(11):
            s = series_reciprocal(sinc_half_coeffs(2 * G))
            assert miura_inverse_series(coeff_ring(G), G).terms == _linear_terms(s)

    def test_series_stop_at_h_G_on_a_wider_ring(self):
        # the ring keeps h^(G+1) and h^(G+2); neither series may reach them
        for G in range(7):
            for series in (miura_series, miura_inverse_series):
                wide = series(coeff_ring(G + 2), G)
                assert max(a for _, a, _ in wide.terms) == G
                assert wide.terms == series(coeff_ring(G), G).terms

    def test_series_stop_at_the_ring_order_on_a_narrower_ring(self):
        # a ring that keeps only h^G truncates a series asked for through h^(G+2)
        for G in range(7):
            for series in (miura_series, miura_inverse_series):
                assert series(coeff_ring(G), G + 2).terms == series(coeff_ring(G), G).terms

    def test_roundtrip_on_generator(self):
        assert miura_inverse(miura_forward(U, 2), 2) == U

    def test_roundtrip_randomized(self):
        check_miura_roundtrip(50, 77, G=3)


class TestIntegrateX:
    def test_simple(self):
        q = total_x_derivative(dp({((0, 2), (1, 1)): 1}))
        phi = integrate_x(q)
        assert total_x_derivative(phi) == q

    def test_rejects_non_derivative(self):
        with pytest.raises(NotTotalDerivativeError, match=r"monomial u\^2 "):
            integrate_x(dp({((0, 2),): 1}))

    def test_rejects_nonlinear_top_factor_by_name(self):
        # the lower u^2 admits no antiderivative either; the greatest is named
        q = DiffPoly._make(CV, {(((0, 1), (3, 2)), 1, 0): Fraction(1, 5),
                                (((0, 2),), 0, 0): Fraction(1)})
        with pytest.raises(NotTotalDerivativeError,
                           match=r"monomial u\*u_3\^2 at h\^1 e\^0 has u_3\^2;"):
            integrate_x(q)

    def test_names_the_smallest_he_exponents_of_the_greatest_monomial(self):
        # u*u_3^2 carries three (h, e) terms; the smallest pair is named
        q = DiffPoly._make(CV, {(((0, 1), (3, 2)), a, b): Fraction(1, 3)
                                for a, b in ((1, 0), (0, 1), (1, 1))})
        with pytest.raises(NotTotalDerivativeError,
                           match=r"monomial u\*u_3\^2 at h\^0 e\^1 has u_3\^2;"):
            integrate_x(q)

    def test_names_the_greatest_monomial_whatever_the_insertion_order(self):
        # both monomials are normal on level 1; the lesser u_1^2 comes first
        q = DiffPoly._make(CV, {(((1, 2),), 0, 0): Fraction(1),
                                (((0, 1), (1, 2)), 0, 0): Fraction(1)})
        with pytest.raises(NotTotalDerivativeError,
                           match=r"leading monomial u\*u_1\^2 at h\^0 e\^0 has u_1\^2;"):
            integrate_x(q)

    def test_randomized_right_inverse(self):
        rng = random.Random(31)
        for _ in range(100):
            p = random_diffpoly(CV, rng, with_params=True)
            q = total_x_derivative(p)
            assert total_x_derivative(integrate_x(q)) == q


class TestReconstruct:
    def test_u_u1(self):
        got = reconstruct_functional_from_flow(dp({((0, 1), (1, 1)): 1}))
        assert got == normalize(dp({((0, 3),): (1, 6)}))

    def test_two_u3(self):
        got = reconstruct_functional_from_flow(dp({((3, 1),): 2}))
        assert got == normalize(dp({((0, 1), (2, 1)): 1}))
        assert got == dp({((1, 2),): -1})

    def test_u1(self):
        got = reconstruct_functional_from_flow(dp({((1, 1),): 1}))
        assert got == normalize(dp({((0, 2),): (1, 2)}))

    def test_rejects_non_total_derivative(self):
        with pytest.raises(NotTotalDerivativeError, match=r"monomial u\^2 "):
            reconstruct_functional_from_flow(dp({((0, 2),): 1}))
        with pytest.raises(NotTotalDerivativeError):
            reconstruct_functional_from_flow(DiffPoly.constant(CV, 3))

    def test_rejects_non_gradient(self):
        bad = total_x_derivative(dp({((0, 1), (1, 1)): 1}))
        with pytest.raises(NotSelfAdjointError):
            reconstruct_functional_from_flow(bad)

    def test_right_inverse_property(self):
        rng = random.Random(41)
        for _ in range(30):
            h = normalize(random_diffpoly(CV, rng, max_index=2, max_udeg=3, max_terms=2))
            q = total_x_derivative(variational_derivative(h))
            got = reconstruct_functional_from_flow(q)
            assert total_x_derivative(variational_derivative(got)) == q


def test_frechet_apply_linear():
    phi = dp({((0, 1), (2, 1)): 1})
    b = dp({((0, 1),): 1})
    # D(u u_2)(b) = u_2 b + u b''
    assert frechet_apply(phi, b) == dp({((0, 1), (2, 1)): 2})


def test_monomial_iteration_canonical_order():
    p = dp({((0, 1), (3, 1)): 1, ((1, 1), (2, 1)): 1, ((0, 2),): 1})
    keys = [ue for (ue, _, _), _ in p.sorted_terms()]
    assert keys == [((0, 2),), ((1, 1), (2, 1)), ((0, 1), (3, 1))]


# (h + 1/2*e)*u_1 + u^2: one u-monomial carrying two (h, e) terms
MULTI = DiffPoly(
    coeff_ring(1),
    {
        (u_key({1: 1}), 1, 0): 1,
        (u_key({1: 1}), 0, 1): Fraction(1, 2),
        (u_key({0: 2}), 0, 0): 1,
    },
)


def test_u_key_rejects_a_negative_index_or_multiplicity():
    with pytest.raises(DiffAlgError, match="derivative index must be >= 0, got -1"):
        u_key({-1: 1})
    with pytest.raises(DiffAlgError, match="multiplicity must be >= 0, got -1"):
        u_key({0: -1})


class TestConstructor:
    def test_repeated_factor_adds_up(self):
        p = DiffPoly(CV, {(((0, 1), (0, 1)), 0, 0): 1})
        assert p.pretty() == "u^2"
        assert p == DiffPoly.u_power(CV, 0, 2)

    def test_rejects_exponents_outside_the_ring(self):
        for a, b in ((3, 0), (0, 3), (-1, 0), (7, 7)):
            with pytest.raises(DiffAlgError, match="outside the coefficient ring"):
                DiffPoly(CV, {(u_key({0: 1}), a, b): 1})

    def test_drops_zero_coefficients(self):
        p = DiffPoly(CV, {(u_key({0: 1}), 0, 0): 0, (u_key({1: 2}), 1, 0): Fraction(0)})
        assert p.is_zero() and p.terms == {}
        # a zero sum of repeated keys is dropped as well
        q = DiffPoly(CV, {(((0, 2),), 0, 0): 1, (((0, 1), (0, 1)), 0, 0): -1})
        assert q.terms == {}

    def test_rejects_inexact_coefficients(self):
        for coef in (0.5, "1/3"):
            with pytest.raises(SeriesError, match="exact rationals"):
                DiffPoly(CV, {(u_key({0: 1}), 0, 0): coef})


def test_pretty_and_latex():
    cv = coeff_ring(1)
    p = DiffPoly(cv, {(u_key({0: 1, 1: 1}), 0, 0): 1, (u_key({3: 1}), 1, 0): Fraction(1, 12)})
    assert p.pretty() == "u*u_1 + 1/12*h*u_3"
    assert r"\frac{1}{12}\hbar u_{3}" in _density_latex(p)
    # several (h, e) terms on one u-monomial render as one bracketed coefficient
    assert MULTI.pretty() == "u^2 + (1/2*e + h)*u_1"
    assert _density_latex(MULTI) == r"u^{2} + \left(\frac{1}{2}\varepsilon + \hbar\right) u_{1}"


def test_json_schema():
    p = dp({((0, 1), (2, 1)): (1, 24)})
    data = _density_json(p)
    assert data[0]["u"] == [[0, 1], [2, 1]]
    assert data[0]["coef"]["terms"][0]["coef"] == "1/24"
    # one u-monomial's (h, e) terms are listed graded-lex: total degree first
    coef = {(2, 1): Fraction(7, 5760), (0, 0): 1, (1, 0): Fraction(-1, 24), (0, 2): 3}
    graded = DiffPoly(coeff_ring(3), {(u_key({1: 1}), a, b): c for (a, b), c in coef.items()})
    exps = [tuple(t["exp"]) for t in _density_json(graded)[0]["coef"]["terms"]]
    assert exps == [(0, 0), (1, 0), (0, 2), (2, 1)]
    ring = {"vars": [{"name": "h", "order": 2}, {"name": "e", "order": 2}]}
    assert _density_json(MULTI) == [
        {"coef": {**ring, "terms": [{"exp": [0, 0], "coef": "1"}]}, "u": [[0, 2]]},
        {"coef": {**ring, "terms": [{"exp": [0, 1], "coef": "1/2"},
                                    {"exp": [1, 0], "coef": "1"}]},
         "u": [[1, 1]]},
    ]


def test_local_functional_algebra():
    # sums and rational multiples of normal-form densities stay normal
    a = normalize(dp({((0, 3),): 1}))
    b = normalize(dp({((0, 1), (2, 1)): 1}))
    assert (a + b) - b == a
    assert normalize(a + b) == a + b
    assert normalize(a * Fraction(1, 2)) == a * Fraction(1, 2) == dp({((0, 3),): (1, 2)})


# -- randomized property suites ---------------------------------------------


def test_euler_kills_total_derivatives():
    check_euler_kills_dx(200, 2024)


def test_dx_is_a_derivation():
    check_dx_derivation(200, 2025)


def test_bracket_antisymmetry_and_jacobi():
    check_bracket_antisymmetry_jacobi(200, 2026)


def test_normalize_idempotent_and_class_preserving():
    check_normalize_idempotent(200, 2027)


def test_frechet_pairing_equals_euler_pairing():
    check_frechet_pairing_by_parts(200, 2033)


def test_frechet_sums_share_one_derivative_list():
    check_shared_derivative_list(200, 2034)


def test_normal_form_matches_max_scan_reference():
    check_normalize_against_reference(200, 2028)


def test_flat_ring_matches_reference():
    check_diffpoly_ring_against_reference(200, 2029)


def test_calculus_kernel_matches_reference():
    check_calculus_kernel_against_reference(200, 2030)


def test_packed_kernels_match_references_at_the_field_width():
    check_packed_kernels_at_field_width(200, 2031)


def test_one_pair_loop_matches_references_at_the_field_width():
    check_one_pair_loop_at_field_width(200, 2032)


def test_packed_product_past_the_field_width_raises():
    # 4-bit fields hold a u-degree of at most 7; u^4 * u^4 would need 8
    pack = _Packing(coeff_ring(7), 7)
    u4 = list(_scaled(dp({((0, 4),): 1}).terms, pack)[1].items())
    u3 = list(_scaled(dp({((0, 3),): 1}).terms, pack)[1].items())
    assert _int_product([(1, u4, u3)], pack)
    with pytest.raises(DiffAlgError, match="exceeds the 4-bit packed fields"):
        _int_product([(1, u4, u4)], pack)


def test_field_width_follows_the_operands():
    # no fixed cap: u^130 * u^200 packs u-degree 330 in 10-bit fields
    cv = coeff_ring(1)
    product = DiffPoly.u_power(cv, 0, 130) * DiffPoly.u_power(cv, 0, 200, Fraction(1, 3))
    assert product == DiffPoly.u_power(cv, 0, 330, Fraction(1, 3))
    assert DiffPoly._packing(product).width == 10
    assert normalize(total_x_derivative(product)).is_zero()


# -- rendering digest ---------------------------------------------------------


def _render_digest() -> tuple[str, int]:
    """(SHA-256 over every rendering of 200 seeded polynomials, number of
    draws with a u-monomial carrying more than one (h, e) term)."""
    sha = hashlib.sha256()
    multi = 0
    for seed in range(200):
        p = random_diffpoly(coeff_ring(3), random.Random(seed), max_index=2,
                            max_udeg=2, max_terms=6, with_params=True)
        per_monomial = Counter(ue for ue, _, _ in p.terms)
        multi += any(n > 1 for n in per_monomial.values())
        for text in (p.pretty(), _density_latex(p), json.dumps(_density_json(p)),
                     f"int({normalize(p).pretty()}) dx", json.dumps(_coefficient_rows(p))):
            sha.update(text.encode() + b"\n")
    return sha.hexdigest(), multi


RENDER_DIGEST = "77d054f6f817fe0079eaa7f7c12265036b23b166af85b7576ad84736e05626f8"


def test_renderers_are_pinned():
    # taken before the renderers read the flat term map directly
    digest, multi = _render_digest()
    assert multi >= 50, "too few draws exercise the bracketed (h, e) coefficient"
    assert digest == RENDER_DIGEST
