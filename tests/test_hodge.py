from __future__ import annotations

import json
import sys
from fractions import Fraction
from math import factorial

import pytest

import ilwhodge.hodge
from ilwhodge import exactnum
from ilwhodge.cli import _report_json, main
from ilwhodge.hodge import (
    HodgeConsistencyError,
    extract_cg,
    one_point_table,
    s_series,
    s_tilde_from_constants,
    s_tilde_series,
    verify_cg,
    verify_linear_term_identity,
    verify_one_point_reverse,
)
from ilwhodge.mpseries import (
    MultiSeries, coeff_ring, exp_series, inverse_series, sinc_half_series,
)
from ilwhodge.reports import VerificationReport, first_term_mismatch
from oracles import (
    bernoulli_at,
    dimension_check,
    linear_term_reference,
    log_sinc_half_coeffs,
    one_point_oracle,
)


def perturbed(g0, delta=Fraction(1, 1000000)):
    def cg(g):
        return exactnum.c_g(g) + (delta if g == g0 else 0)

    return cg


class TestDimensionCheck:
    def test_genus_one_point(self):
        assert dimension_check(1, 1, 1, (0,))
        assert not dimension_check(1, 1, 0, (0,))

    def test_unstable(self):
        assert not dimension_check(0, 2, 0, (0, 0))

    def test_genus_zero_triple(self):
        assert dimension_check(0, 3, 0, (0, 0, 0))


class TestOnePointTable:
    def test_frozen_values(self):
        table = one_point_table(2)
        assert table[(1, 1, (0,))] == Fraction(1, 24)
        assert table[(1, 0, (1,))] == Fraction(1, 24)
        assert table[(2, 2, (2,))] == Fraction(7, 5760)
        assert table[(2, 0, (4,))] == Fraction(1, 1152)
        assert table[(2, 1, (3,))] == Fraction(1, 480)

    @pytest.mark.parametrize("g_max", [5, 12])
    def test_against_brute_force_oracle(self, g_max):
        table = one_point_table(g_max)
        oracle = one_point_oracle(g_max)
        for (g, i), want in oracle.items():
            assert table.get((g, g - i, (2 * g - 2 + i,)), 0) == want, (g, i)
        # and nothing extra
        assert len(table) == sum(1 for v in oracle.values() if v != 0)

    def test_entries_satisfy_dimension_constraint(self):
        table = one_point_table(3)
        for (g, j, d) in table:
            assert dimension_check(g, 1, j, d)

    def test_rejects_zero_bound(self):
        with pytest.raises(ValueError):
            one_point_table(0)


class TestSSeries:
    def test_low_order_coefficients(self):
        s = s_series(2)
        assert s.coefficient((0, 0)) == 1
        assert s.coefficient((1, 0)) == Fraction(1, 24)
        assert s.coefficient((1, 1)) == Fraction(1, 24)
        assert s.coefficient((2, 0)) == Fraction(1, 1152)

    def test_string_reduction_matches_table(self):
        G = 5
        s = s_series(G)
        table = one_point_table(G)
        for g in range(1, G + 1):
            for j in range(0, g + 1):
                assert s.coefficient((g, j)) == table.get((g, j, (3 * g - j - 2,)), 0), (g, j)


class TestSTilde:
    def test_low_order_coefficients(self):
        st = s_tilde_series(2)
        assert st.coefficient((1, 0)) == Fraction(1, 24)
        assert st.coefficient((2, 0)) == Fraction(1, 1152)
        assert st.coefficient((2, 1)) == Fraction(1, 2880)

    def test_eps_degree_shape(self):
        st = s_tilde_series(5)
        for (a, b), val in st.terms.items():
            if a == 0:
                assert b == 0 and val == 1
            else:
                assert b <= a - 1, (a, b)

    def test_two_paths_agree_to_order_eight(self):
        # the sine-factor product against exp(sum_g h^g e^{g-1} |B_2g|/(2g (2g)!))
        G = 8
        exponent = {(g, g - 1): c for g, c in log_sinc_half_coeffs(G).items()}
        direct = exp_series(MultiSeries(coeff_ring(G), exponent))
        assert s_series(G) * sinc_half_series(G) == direct
        assert s_tilde_series(G) == direct

    def test_tilde_table_keys(self):
        # h^a e^b of S~ is the tilde value <lambda_b tau_0^2 tau_{3a-b}>~_a
        terms = s_tilde_series(3).terms
        assert terms[(0, 0)] == 1
        assert terms[(1, 0)] == Fraction(1, 24)
        for a, b in terms:
            assert dimension_check(a, 3, b, (0, 0, 3 * a - b))


class TestExtractCg:
    def test_matches_closed_form(self):
        got = extract_cg(8)
        for g in range(1, 9):
            assert got[g - 1] == exactnum.c_g(g), g

    def test_first_values(self):
        got = extract_cg(3)
        assert got == [Fraction(1, 24), Fraction(1, 1440), Fraction(1, 60480)]

    def test_ode_residual_vanishes(self):
        G = 6
        hv = coeff_ring(G)
        st = s_tilde_series(G)
        rhs_exponent = MultiSeries(
            hv, {(g - 1, g - 1): exactnum.c_g(g) for g in range(1, G + 1)}
        )
        residual = st.partial_derivative("h") - rhs_exponent * st
        for (a, b), val in residual.terms.items():
            assert a > G - 1, (a, b, val)

    def test_verify_cg(self):
        assert verify_cg(6).ok
        report = verify_cg(5, perturbed(3))
        assert report.status == "mismatch"
        assert report.first_mismatch["g"] == 3
        assert report.first_mismatch["computed"] == "1/60480"


class TestLinearTermIdentity:
    def test_holds_at_order_four(self):
        assert verify_linear_term_identity(4).ok

    def test_holds_at_order_one(self):
        assert verify_linear_term_identity(1).ok

    def test_perturbation_is_localized(self):
        report = verify_linear_term_identity(3, perturbed(1))
        assert report.status == "mismatch"
        assert report.first_mismatch["h_exp"] == 1
        assert report.first_mismatch["t_label"] == 3
        report = verify_linear_term_identity(3, perturbed(2))
        assert report.status == "mismatch"
        assert report.first_mismatch["h_exp"] == 2

    def test_matches_label_by_label_reference(self):
        # the series identity against the explicit loops over genus shifts,
        # unperturbed and with C_{g0} shifted at every g0 <= G
        seen = set()
        for G in range(1, 13):
            st = s_tilde_series(G)
            for g0 in [None, *range(1, G + 1)]:
                cg = exactnum.c_g if g0 is None else perturbed(g0)
                left, right = linear_term_reference(st.terms, cg, G)
                expected = first_term_mismatch(
                    left, right, lambda k: {"h_exp": k[0], "e_exp": k[1], "t_label": k[2]},
                    "left", "right",
                )
                got = verify_linear_term_identity(G, cg).first_mismatch
                assert got == expected, (G, g0)
                assert got is None or list(got) == list(expected)
                seen.add(got is None)
        assert seen == {True, False}


class TestOnePointReverse:
    def test_reverse_direction(self):
        assert verify_one_point_reverse(6).ok

    def test_reverse_consistency_with_s(self):
        G = 5
        s_ode = s_tilde_from_constants(G) * inverse_series(sinc_half_series(G))
        assert s_ode == s_series(G)

    def test_perturbation_detected(self):
        report = verify_one_point_reverse(4, perturbed(2))
        assert report.status == "mismatch"
        assert report.first_mismatch["g"] == 2


@pytest.mark.parametrize(
    "entry",
    [
        one_point_table, s_series, s_tilde_series, s_tilde_from_constants,
        extract_cg, verify_cg, verify_linear_term_identity, verify_one_point_reverse,
    ],
    ids=lambda f: f.__name__,
)
@pytest.mark.parametrize("G", [0, -1])
def test_series_routes_reject_orders_below_one(entry, G):
    with pytest.raises(ValueError):
        entry(G)


def test_hodge_series_read_no_bernoulli_number(monkeypatch):
    # S, S~ and the table come from the sine series alone, so the constants
    # read off S~ are a second route to the Bernoulli closed form; only the
    # modules that bind it are patched, since the package reaches it through
    # its __getattr__ and monkeypatch's undo would leave the stub bound there
    original = exactnum.bernoulli

    def refuse(n):
        raise AssertionError(f"B_{n} was read")

    bound = [
        module for name, module in list(sys.modules.items())
        if name.split(".")[0] == "ilwhodge" and vars(module).get("bernoulli") is original
    ]
    assert exactnum in bound
    for module in bound:
        monkeypatch.setattr(module, "bernoulli", refuse)
    s_tilde_series(8)
    one_point_table(8)
    assert extract_cg(8) == [abs(bernoulli_at(2 * g)) / (2 * factorial(2 * g)) for g in range(1, 9)]


class TestConsistencyGuards:
    def test_path_disagreement_is_detected(self, monkeypatch):
        # corrupt the S route by h/7; every check that compares it with the
        # closed form C_g then fails at h^1
        original = ilwhodge.hodge.s_series

        def corrupted(G):
            hv = coeff_ring(G)
            return original(G) + MultiSeries(hv, {(1, 0): Fraction(1, 7)})

        monkeypatch.setattr(ilwhodge.hodge, "s_series", corrupted)
        with pytest.raises(HodgeConsistencyError):
            extract_cg(3)
        reverse = verify_one_point_reverse(3)
        assert reverse.status == "mismatch"
        assert (reverse.first_mismatch["g"], reverse.first_mismatch["j"]) == (1, 0)
        linear = verify_linear_term_identity(3)
        assert linear.status == "mismatch"
        assert linear.first_mismatch["h_exp"] == 1

    def test_off_diagonal_quotient_is_detected(self, monkeypatch):
        def not_a_function_of_he(G):
            hv = coeff_ring(G)
            return exp_series(MultiSeries(hv, {(2, 0): Fraction(1, 5)}))

        monkeypatch.setattr(ilwhodge.hodge, "s_tilde_series", not_a_function_of_he)
        with pytest.raises(HodgeConsistencyError):
            extract_cg(3)


class TestBracketTableRendering:
    """The one-point rows as the CLI renders them from one_point_table."""

    @staticmethod
    def rendered(capsys, g_max):
        assert main(["one-point", "--max-genus", str(g_max), "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_rows(self, capsys):
        rows = self.rendered(capsys, 2)["details"]
        assert rows == [
            {"g": g, "j": j, "d": list(d), "value": str(v)}
            for (g, j, d), v in sorted(one_point_table(2).items())
        ]
        assert rows[:2] == [
            {"g": 1, "j": 0, "d": [1], "value": "1/24"},
            {"g": 1, "j": 1, "d": [0], "value": "1/24"},
        ]

    def test_json(self, capsys):
        data = self.rendered(capsys, 1)
        assert (data["command"], data["status"]) == ("one-point", "ok")
        assert len(data["details"]) == 2


def test_report_of_no_mismatch_is_ok_and_omits_the_key():
    report = VerificationReport.of("cg", 4, None)
    assert (report.name, report.status, report.order_checked) == ("cg", "ok", 4)
    assert report.ok and report.first_mismatch is None
    assert _report_json(report) == {"name": "cg", "status": "ok", "order_checked": 4}
    bad = VerificationReport.of("cg", 4, {"g": 2})
    assert not bad.ok and bad.status == "mismatch"
    assert list(_report_json(bad)) == ["name", "status", "order_checked", "first_mismatch"]


def test_sympy_oracle_one_point_and_bernoulli():
    """A third route, independent of the engine and of tests/oracles.py:
    sympy's own series of (t/2)/sin(t/2), raised to the power k + 1 as the
    truncated binomial sum over falling factorials (the series minus 1 has
    no constant term, so six powers reach t^12)."""
    sympy = pytest.importorskip("sympy")
    G = 6
    t, k = sympy.symbols("t k")
    x = sympy.expand(sympy.series((t / 2) / sympy.sin(t / 2), t, 0, 2 * G + 1).removeO() - 1)
    power = sum(sympy.ff(k + 1, n) / sympy.factorial(n) * x**n for n in range(G + 1))
    coeffs = sympy.Poly(sympy.expand(power), t, k).as_dict()
    entries = one_point_table(G)
    for g in range(1, G + 1):
        for i in range(g + 1):
            want = entries.get((g, g - i, (2 * g - 2 + i,)), Fraction(0))
            assert coeffs.get((2 * g, i), 0) == sympy.Rational(want.numerator, want.denominator)
    # sympy 1.14 takes B_1 = +1/2; the engine takes B_1 = -1/2
    for n in range(41):
        if n != 1:
            b = exactnum.bernoulli(n)
            assert sympy.bernoulli(n) == sympy.Rational(b.numerator, b.denominator), n
