"""One-point intersection-number tables and the extraction of the constants.

The generating identity

    1 + sum_{g>=1} sum_{i=0}^g t^{2g} k^i <lambda_{g-i} tau_{2g-2+i}>_g
        = ((t/2) / sin(t/2))^{k+1}

is expanded exactly to read off the one-point table.  Two string-equation
steps turn it into S(h, e) = exp((1 + 1/e) L(h e)) with
L(z) = log((z/2)/sin(z/2)), the sine factor produces the tilde variant
S~(h, e) = exp(sum_g h^g e^{g-1} |B_{2g}|/(2g (2g)!)), and the logarithmic
h-derivative of S~ is a function of the product h*e alone whose
coefficients are the constants

    C_g = |B_{2g}| / (2 (2g)!).

Everything is verified coefficient-by-coefficient over the rationals.  The
linear-term check is the step that equates the dilaton expansion of the t_1
flow with its right-hand side, written as the series identity

    (1 + 2h d/dh) S~ = (1 + Q) S~,  Q = sum_g 2 C_g h^g e^{g-1}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import exactnum
from .diffalg import coeff_ring
from .exactnum import rational_to_str
from .mpseries import (
    MultiSeries,
    VarSpec,
    divide_by_var,
    divide_series,
    exp_series,
    inverse_series,
    log_series,
    log_sinc_half,
    sinc_half_series,
    substitute_square,
)
from .reports import VerificationReport, first_mismatch

__all__ = [
    "HodgeConsistencyError",
    "BracketTable",
    "dimension_check",
    "one_point_table",
    "sinc_factor_series",
    "s_series",
    "s_tilde_series",
    "s_tilde_from_constants",
    "extract_cg",
    "verify_cg",
    "verify_linear_term_identity",
    "verify_one_point_reverse",
]

CgValues = Callable[[int], Fraction]

TableKey = tuple[int, int, tuple[int, ...]]


class HodgeConsistencyError(RuntimeError):
    """Two mathematically identical computation paths disagreed."""


def dimension_check(g: int, n: int, j: int, d: tuple[int, ...]) -> bool:
    """True iff 3g - 3 + n = j + sum(d) and the case is stable."""
    return 3 * g - 3 + n == j + sum(d) and 2 * g - 2 + n > 0


@dataclass
class BracketTable:
    """Finite table of one-point bracket values keyed (genus, lambda-index,
    tau-index tuple)."""

    entries: dict[TableKey, Fraction] = field(default_factory=dict)

    def value(self, g: int, j: int, d: tuple[int, ...]) -> Fraction:
        return self.entries.get((g, j, tuple(d)), Fraction(0))

    def rows(self) -> list[dict]:
        out = []
        for (g, j, d) in sorted(self.entries):
            out.append(
                {"g": g, "j": j, "d": list(d), "value": rational_to_str(self.entries[(g, j, d)])}
            )
        return out

    def to_latex(self) -> str:
        lines = [
            r"\begin{tabular}{rrrl}",
            r"$g$ & $j$ & $d$ & value \\ \hline",
        ]
        for (g, j, d) in sorted(self.entries):
            v = self.entries[(g, j, d)]
            if v.denominator == 1:
                val = str(v.numerator)
            else:
                sign = "-" if v < 0 else ""
                val = rf"${sign}\frac{{{abs(v.numerator)}}}{{{v.denominator}}}$"
            dd = ",".join(str(x) for x in d)
            lines.append(f"{g} & {j} & $({dd})$ & {val} \\\\")
        lines.append(r"\end{tabular}")
        return "\n".join(lines) + "\n"


def one_point_table(g_max: int) -> BracketTable:
    """One-point values <lambda_{g-i} tau_{2g-2+i}>_g for g <= g_max, read off
    the exact expansion of ((t/2)/sin(t/2))^{k+1} = exp((1 + k) L(t)) with
    L = log((t/2)/sin(t/2))."""
    if g_max < 1:
        raise ValueError(f"genus bound must be >= 1, got {g_max}")
    L = log_series(inverse_series(sinc_half_series(2 * g_max + 1, "t")))
    exponent = {(e, m): c for (e,), c in L.terms.items() for m in (0, 1)}
    expansion = exp_series(MultiSeries(L.vars + (VarSpec("k", g_max + 1),), exponent))
    table = BracketTable()
    for g in range(1, g_max + 1):
        for i in range(0, g + 1):
            val = expansion.coefficient((2 * g, i))
            entry = (g, g - i, (2 * g - 2 + i,))
            if not dimension_check(g, 1, entry[1], entry[2]):
                raise HodgeConsistencyError(f"entry {entry} violates the dimension constraint")
            if val != 0:
                table.entries[entry] = val
    return table


def _check_order(G: int) -> None:
    if G < 1:
        raise ValueError(f"order must be >= 1, got {G}")


def sinc_factor_series(G: int) -> MultiSeries:
    """sin(sqrt(h e)/2) / (sqrt(h e)/2) as a series in h, e (z^2 -> h e)."""
    _check_order(G)
    return substitute_square(sinc_half_series(2 * G + 1), coeff_ring(G))


def s_series(G: int) -> MultiSeries:
    """S(h, e) = exp((1 + 1/e) L(h e)) with L = log((z/2)/sin(z/2)).

    The coefficient of h^g e^j is the tau_0^2-padded one-point value
    <lambda_j tau_0^2 tau_{3g-j}>_g; the 1/e prefactor is a checked exponent
    shift, so no Laurent term ever exists.
    """
    _check_order(G)
    L = substitute_square(log_sinc_half(2 * G + 1), coeff_ring(G))
    return exp_series(L + divide_by_var(L, "e", 1))


def s_tilde_series(G: int) -> MultiSeries:
    """S~(h, e), computed two independent ways and cross-checked exactly.

    (a) multiply S by the sine factor sin(sqrt(he)/2)/(sqrt(he)/2);
    (b) directly exp(sum_g h^g e^{g-1} |B_{2g}|/(2g (2g)!)).
    """
    path_a = s_series(G) * sinc_factor_series(G)
    L = substitute_square(log_sinc_half(2 * G + 1), coeff_ring(G))
    path_b = exp_series(divide_by_var(L, "e", 1))
    if path_a != path_b:
        raise HodgeConsistencyError(
            "sine-factor and direct-exponential routes to S~ disagree"
        )
    return path_a


def s_tilde_from_constants(G: int, cg_values: CgValues | None = None) -> MultiSeries:
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


def verify_cg(G: int, cg_values: CgValues | None = None) -> VerificationReport:
    """Compare the extracted constants against the Bernoulli closed form."""
    reference = cg_values or exactnum.c_g
    computed = extract_cg(G)
    scan = (({"g": g}, reference(g), computed[g - 1]) for g in range(1, G + 1))
    return VerificationReport.of("cg", G, first_mismatch(scan, "expected", "computed"))


def verify_linear_term_identity(
    G: int, cg_values: CgValues | None = None
) -> VerificationReport:
    """Check the linear-in-t coefficient identity between the dilaton
    expansion of the t_1 flow and its right-hand side.

    Left, per (h^a, e^b, t-label 3a-b): (2g+1) T~(g, j), that is
    (1 + 2h d/dh) S~.  Right: T~(g, j) from u u_x plus sum_{g'>=1} 2 C_{g'}
    T~(g'', j) at (g'+g'', g'+j-1), that is (1 + Q) S~ with
    Q = sum_g 2 C_g h^g e^{g-1}.  Checked up to total h-order G.
    """
    cg = cg_values or exactnum.c_g
    st = s_tilde_series(G)
    h = MultiSeries.variable(st.vars, "h")
    q = MultiSeries(st.vars, {(g, g - 1): 2 * cg(g) for g in range(1, G + 1)})
    left = st + 2 * h * st.partial_derivative("h")
    right = st + q * st
    scan = (
        ({"h_exp": a, "e_exp": b, "t_label": 3 * a - b},
         left.terms.get((a, b), Fraction(0)), right.terms.get((a, b), Fraction(0)))
        for a, b in sorted(left.terms.keys() | right.terms.keys())
    )
    return VerificationReport.of("linear-term", G, first_mismatch(scan, "left", "right"))


def verify_one_point_reverse(
    G: int, cg_values: CgValues | None = None
) -> VerificationReport:
    """Run the argument backwards: from the constants C_g, integrate the
    differential equation for S~, undo the sine factor, and compare the
    resulting S against the one-point table."""
    s_ode = divide_series(s_tilde_from_constants(G, cg_values), sinc_factor_series(G))
    table = one_point_table(G)
    scan = itertools.chain(
        [({"g": 0, "j": 0}, s_ode.coefficient((0, 0)), Fraction(1))],
        (
            ({"g": a, "j": b}, s_ode.terms.get((a, b), Fraction(0)),
             table.value(a, b, (3 * a - b - 2,)) if b <= a else Fraction(0))
            for a in range(1, G + 1)
            for b in range(0, G + 1)
        ),
    )
    return VerificationReport.of(
        "one-point-reverse", G, first_mismatch(scan, "from_ode", "from_table")
    )
