"""One-point intersection-number tables and the extraction of the constants.

The generating identity

    1 + sum_{g>=1} sum_{i=0}^g t^{2g} k^i <lambda_{g-i} tau_{2g-2+i}>_g
        = ((t/2) / sin(t/2))^{k+1}

is the one route to every series here.  Read at t^2 = h e and k = 1/e it is
S(h, e) = exp((1 + 1/e) L) with L = log((t/2)/sin(t/2)); two string-equation
steps make the coefficient of h^g e^j the one-point value
<lambda_j tau_{3g-j-2}>_g, so the one-point table is S re-keyed.  The sine
factor sin(t/2)/(t/2) turns S into the tilde variant S~, and the logarithmic
h-derivative of S~ is a function of the product h*e alone whose
coefficients are the constants

    C_g = |B_{2g}| / (2 (2g)!).

No Bernoulli number enters S or S~: each check compares what they give with
the closed form `exactnum.c_g`, coefficient-by-coefficient over the
rationals.  The linear-term check is the step that equates the dilaton
expansion of the t_1 flow with its right-hand side, written as the series
identity

    (1 + 2h d/dh) S~ = (1 + Q) S~,  Q = sum_g 2 C_g h^g e^{g-1}.
"""

from __future__ import annotations

from fractions import Fraction

from . import exactnum, reports
from .mpseries import (
    MultiSeries, coeff_ring, divide_series, exp_series, log_series, sinc_half_series,
)

__all__ = [
    "HodgeConsistencyError", "one_point_table", "s_series", "s_tilde_series",
    "s_tilde_from_constants", "extract_cg", "verify_cg", "verify_linear_term_identity",
    "verify_one_point_reverse",
]

TableKey = tuple[int, int, tuple[int, ...]]


class HodgeConsistencyError(RuntimeError):
    """The logarithmic h-derivative of S~ is not a function of h*e alone."""


def one_point_table(g_max: int) -> dict[TableKey, Fraction]:
    """One-point values {(g, j, (3g-j-2,)): <lambda_j tau_{3g-j-2}>_g} for
    g <= g_max: the coefficient of h^g e^j in S, re-keyed."""
    return {(g, j, (3 * g - j - 2,)): c for (g, j), c in s_series(g_max).terms.items() if g}


def _check_order(G: int) -> None:
    if G < 1:
        raise ValueError(f"order must be >= 1, got {G}")


def s_series(G: int) -> MultiSeries:
    """S(h, e) = ((t/2)/sin(t/2))^{k+1} at t^2 = h e, k = 1/e, that is
    exp((1 + 1/e) L) with L = log((t/2)/sin(t/2)).

    The coefficient of h^g e^j is the tau_0^2-padded one-point value
    <lambda_j tau_0^2 tau_{3g-j}>_g.  Every term of L is a power of h e, so
    L/e lowers the e-exponent by one and no Laurent term ever exists.
    """
    _check_order(G)
    L = -log_series(sinc_half_series(G))
    exponent = {(a, b - s): c for (a, b), c in L.terms.items() for s in (0, 1)}
    return exp_series(MultiSeries(L.vars, exponent))


def s_tilde_series(G: int) -> MultiSeries:
    """S~(h, e): S times the sine factor sin(t/2)/(t/2) at t^2 = h e."""
    return s_series(G) * sinc_half_series(G)


def s_tilde_from_constants(G: int, cg_values: exactnum.CgValues | None = None) -> MultiSeries:
    """Integrate dS~/dh = (sum_g C_g (h e)^{g-1}) S~ with S~(0,0) = 1:
    the solution exp(sum_g (C_g/g) h^g e^{g-1}) built from given constants."""
    _check_order(G)
    cg = cg_values or exactnum.c_g
    terms = {(g, g - 1): cg(g) / g for g in range(1, G + 1)}
    return exp_series(MultiSeries(coeff_ring(G), terms))


def extract_cg(G: int) -> list[Fraction]:
    """The constants [C_1, ..., C_G] read from (d/dh S~) / S~.

    The quotient must be a function of the product h*e alone on the region
    where the truncated derivative is exact (h-exponent <= G-1); C_g is its
    coefficient at (h e)^{g-1}.
    """
    st = s_tilde_series(G)
    quotient = divide_series(st.partial_derivative("h"), st)
    for (a, b), val in quotient.terms.items():
        if a <= G - 1 and a != b and val != 0:
            raise HodgeConsistencyError(
                f"dS~/dh / S~ has off-diagonal term h^{a} e^{b}: {val}"
            )
    return [quotient.coefficient((g - 1, g - 1)) for g in range(1, G + 1)]


def verify_cg(G: int, cg_values: exactnum.CgValues | None = None) -> reports.VerificationReport:
    """Compare the extracted constants against the Bernoulli closed form."""
    reference = cg_values or exactnum.c_g
    mism = reports.first_term_mismatch(
        {g: reference(g) for g in range(1, G + 1)}, dict(enumerate(extract_cg(G), 1)),
        lambda g: {"g": g}, "expected", "computed",
    )
    return reports.VerificationReport.of("cg", G, mism)


def verify_linear_term_identity(
    G: int, cg_values: exactnum.CgValues | None = None
) -> reports.VerificationReport:
    """Check the linear-in-t coefficient identity between the dilaton
    expansion of the t_1 flow and its right-hand side.

    Left, per (h^a, e^b, t-label 3a-b): (2g+1) T~(g, j), that is
    (1 + 2h d/dh) S~.  Right: T~(g, j) from u u_x plus sum_{g'>=1} 2 C_{g'}
    T~(g'', j) at (g'+g'', g'+j-1), that is (1 + Q) S~ with
    Q = sum_g 2 C_g h^g e^{g-1}.  Checked up to total h-order G.
    """
    cg = cg_values or exactnum.c_g
    st = s_tilde_series(G)
    q = MultiSeries(st.vars, {(g, g - 1): 2 * cg(g) for g in range(1, G + 1)})
    left = {(a, b): (1 + 2 * a) * c for (a, b), c in st.terms.items()}  # h d/dh scales by a
    mism = reports.first_term_mismatch(
        left, (st + q * st).terms,
        lambda k: {"h_exp": k[0], "e_exp": k[1], "t_label": 3 * k[0] - k[1]}, "left", "right",
    )
    return reports.VerificationReport.of("linear-term", G, mism)


def verify_one_point_reverse(
    G: int, cg_values: exactnum.CgValues | None = None
) -> reports.VerificationReport:
    """Run the argument backwards: from the constants C_g, integrate the
    differential equation for S~, undo the sine factor, and compare the
    resulting S against S from the one-point formula, whose h^g e^j
    coefficient is the one-point table entry."""
    s_ode = divide_series(s_tilde_from_constants(G, cg_values), sinc_half_series(G))
    mism = reports.first_term_mismatch(
        s_ode.terms, s_series(G).terms, lambda k: {"g": k[0], "j": k[1]}, "from_ode", "from_table"
    )
    return reports.VerificationReport.of("one-point-reverse", G, mism)
