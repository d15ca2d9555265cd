"""Construction and verification of the ILW hierarchy.

The first Hamiltonian is explicit,

    h_1 = int( u^3/6 + sum_{g>=1} h^g e^{g-1} c_g u u_{2g} ) dx,
    c_g = |B_{2g}| / (2 (2g)!),

and generates the first flow u_t = u u_x + sum_g h^g e^{g-1} (|B_{2g}|/(2g)!)
u_{2g+1}.  The ILW hierarchy is the double-ramification hierarchy of the
Hodge class, and h_1 is its first Hamiltonian (Buryak, CMP 336 (2015)), so
the higher densities follow from the recursion

    d/dx (D - 1) g_{d+1} = {g_d, h_1},    g_{-1} = u,

with D = 2h d/dh + sum_s u_s d/du_s (Buryak-Rossi, CMP 342 (2016)); h_i is
int g_i dx.  Each step is an exact x-antiderivative followed by a division.
The antiderivative exists exactly when {h_d, h_1} = 0, so a step certifies
the density it starts from, and one more step on g_i certifies h_i.  The
bracket itself, by the Euler route of `diffalg.poisson_bracket`, is the
second route that `verify_commutation` runs.  A Hamiltonian int(h) dx is
passed and returned as the `DiffPoly` of its normal form (`normalize`).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm

from . import exactnum, reports
from .diffalg import (
    DiffPoly, _decoded, _encoded, _int_dx, _int_euler, _int_frechet, _Packing, _reduce,
    differential_degree, monomial_sort_key, normalize, poisson_bracket, u_degree, u_key,
    u_monomial_pretty,
)
from .mpseries import IntTerms, _content, _scaled, coeff_ring

__all__ = [
    "InconsistentSystemError", "h1", "hamiltonian", "higher_hamiltonian", "flow",
    "t1_flow_rhs", "t2_flow_rhs", "verify_flow_t1", "verify_flow_t2", "verify_commutation",
    "check_grading", "first_diffpoly_mismatch",
]


class InconsistentSystemError(RuntimeError):
    """h_i cannot be made to commute with h_1, which signals a faulty h_1
    such as a shifted c_g: a recursion step, or the last step on h_i itself,
    meets a t_1-derivative with no x-antiderivative.  `genus` is the lowest
    h-order of the obstruction."""

    def __init__(self, index: int, genus: int):
        self.index = index
        self.genus = genus
        super().__init__(f"h_{index} is not a conserved quantity of h_1 at h^{genus}")


def h1(G: int, cg_values: exactnum.CgValues | None = None) -> DiffPoly:
    """The explicit first Hamiltonian, truncated at h^G, in normal form."""
    if G < 0:
        raise ValueError(f"genus order must be >= 0, got {G}")
    cg = cg_values or exactnum.c_g
    terms = {(u_key({0: 3}), 0, 0): Fraction(1, 6)}
    for g in range(1, G + 1):
        terms[(u_key({0: 1, 2 * g: 1}), g, g - 1)] = cg(g)
    ham = normalize(DiffPoly(coeff_ring(G), terms))
    check_grading(1, ham)
    return ham


def flow(h: DiffPoly) -> DiffPoly:
    """The flow d/dx (delta h / delta u) of a Hamiltonian, in one packed pass."""
    pack, den, nums = _encoded(h)
    return _decoded(h.vars, den, _int_dx(_int_euler(nums, pack), pack), pack)


def higher_hamiltonian(i: int, G: int, cg_values: exactnum.CgValues | None = None) -> DiffPoly:
    """The index-i Hamiltonian (i >= 2), built by the double-ramification
    recursion from g_{-1} = u.

    Step d integrates {g_d, h_1} = sum_s (dg_d/du_s) d^s/dx^s flow(h_1) once
    in x and divides each term h^a (u-monomial of degree n) by its D - 1
    eigenvalue 2a + n - 1.  By parts, int sum_s (dg/du_s) d^s/dx^s X dx =
    int (delta g/delta u) X dx, and `_reduce` leaves the canonical normal
    form, so a step's remainder is zero exactly when the bracket
    {int g_d, h_1} is; a remainder raises `InconsistentSystemError` at its
    lowest h-order.  The normal form of g_i is checked for grading and
    certified by one more step.  Every step reads d^s/dx^s flow(h_1) from
    one list, so each such x-derivative is taken once per build.  The whole
    build runs on packed keys, as integer numerators over one denominator; a
    `Fraction` is built only for h_i itself.
    """
    if i < 2:
        raise ValueError(f"higher Hamiltonian index must be >= 2, got {i}")
    if G < 0:
        raise ValueError(f"genus order must be >= 0, got {G}")
    cvars = coeff_ring(G)
    # the widest term is a step's product, of u-degree i + 3
    pack = _Packing(cvars, i + 3)
    d1, n1 = _scaled(h1(G, cg_values).terms, pack)
    # the flow of h_1 and its x-derivatives so far, over d1, shared by every step
    flows = [list(_int_dx(_int_euler(n1, pack), pack).items())]

    def step(den: int, density: IntTerms, phi: IntTerms | None = None) -> int:
        # the t_1-derivative of density / den, integrated into phi when given
        den, rest = _reduce(den * d1, _int_frechet(density, flows, pack), pack, phi)
        if rest:  # the obstruction's lowest h-order, read off the h field
            raise InconsistentSystemError(i, min(map(pack.h, rest)))
        return den

    den, density = 1, {pack.encode((((0, 1),), 0, 0)): 1}
    for _ in range(i + 1):
        phi: IntTerms = {}
        den = step(den, density, phi)
        # the D - 1 eigenvalue 2a + n - 1 of h^a (u-monomial of u-degree n)
        eigen = {k: 2 * pack.h(k) + pack.degree(k) - 1 for k in phi}
        scale = lcm(*eigen.values())
        den, density = _content(den * scale, {k: c * (scale // eigen[k]) for k, c in phi.items()})

    den, nums = _reduce(den, density, pack)
    ham = _decoded(cvars, den, nums, pack)
    check_grading(i, ham)
    step(den, nums)  # {h_i, h_1} = 0 on the normal form of h_i
    return ham


def hamiltonian(i: int, G: int, cg_values: exactnum.CgValues | None = None) -> DiffPoly:
    """h_i at truncation order G (explicit for i = 1, by recursion for i >= 2)."""
    if i < 1:
        raise ValueError(f"hierarchy index must be >= 1, got {i}")
    return h1(G, cg_values) if i == 1 else higher_hamiltonian(i, G, cg_values)


def check_grading(i: int, h: DiffPoly) -> None:
    """Assert the grading invariants on a constructed Hamiltonian h_i.

    Every monomial at h^g with u-degree n must carry e-exponent
    g - (index + 2 - n) and differential degree exactly 2g, and the h^0
    part must be u^{i+2}/(i+2)!.
    """
    lead = u_key({0: i + 2})
    for (ue, g, j), val in h.terms.items():
        d = differential_degree(ue)
        if d != 2 * g:
            raise AssertionError(
                f"monomial {u_monomial_pretty(ue)} at h^{g} has differential degree {d}"
            )
        if j != g - (i + 2 - u_degree(ue)):
            raise AssertionError(
                f"monomial {u_monomial_pretty(ue)} at h^{g} has e-exponent {j}"
            )
        if g == 0 and (ue != lead or val != Fraction(1, factorial(i + 2))):
            raise AssertionError("h^0 part is not u^(i+2)/(i+2)!")


def first_diffpoly_mismatch(computed: DiffPoly, expected: DiffPoly) -> dict | None:
    """First differing coefficient in scan order (h-exp, e-exp, monomial)."""
    return reports.first_term_mismatch(
        expected.terms, computed.terms,
        lambda k: {"monomial": u_monomial_pretty(k[0]), "h_exp": k[1], "e_exp": k[2]},
        "expected", "computed", key=lambda k: (k[1], k[2], monomial_sort_key(k[0])),
    )


def t1_flow_rhs(G: int) -> DiffPoly:
    """Closed form of the first flow: u u_x + sum_g h^g e^{g-1}
    (|B_{2g}|/(2g)!) u_{2g+1}."""
    terms = {(u_key({0: 1, 1: 1}), 0, 0): 1}
    for g in range(1, G + 1):
        terms[(u_key({2 * g + 1: 1}), g, g - 1)] = exactnum.dispersion_coeff(g)
    return DiffPoly(coeff_ring(G), terms)


def t2_flow_rhs(G: int) -> DiffPoly:
    """Closed form of the second flow: (1/2)u^2 u_x plus the two displayed
    dispersive sums with coefficients |B_{2g}|/(2g)!, as a literal term map:
    at h^g e^{g-1} it is (1/4)(d/dx (2 u u_{2g}) + d^{2g+1}/dx^{2g+1} u^2),
    where d/dx (2 u u_{2g}) = 2 u_1 u_{2g} + 2 u u_{2g+1} and, by Leibniz,
    d^n/dx^n u^2 = sum_k C(n, k) u_k u_{n-k}."""
    terms = {(u_key({0: 2, 1: 1}), 0, 0): Fraction(1, 2)}
    for g in range(1, G + 1):
        disp, n = exactnum.dispersion_coeff(g), 2 * g + 1
        # n is odd, so Leibniz gives u_k u_{n-k} twice; k = 0, 1 add d/dx (2 u u_{2g})
        for k in range(g + 1):
            terms[(u_key({k: 1, n - k: 1}), g, g - 1)] = disp * (comb(n, k) + (k <= 1)) / 2
        if g >= 2:
            terms[(u_key({2 * g + 1: 1}), g, g - 2)] = disp * (g + 1)
    return DiffPoly(coeff_ring(G), terms)


def verify_flow_t1(h_1: DiffPoly) -> reports.VerificationReport:
    """Compare the flow of h_1 with the displayed first flow, exactly."""
    G = h_1.vars[0].order - 1  # its ring is coeff_ring(G)
    mism = first_diffpoly_mismatch(flow(h_1), t1_flow_rhs(G))
    return reports.VerificationReport.of("ilw-t1", G, mism)


def verify_flow_t2(h_2: DiffPoly) -> reports.VerificationReport:
    """Compare the flow of h_2 with the displayed second flow, exactly."""
    G = h_2.vars[0].order - 1  # its ring is coeff_ring(G)
    mism = first_diffpoly_mismatch(flow(h_2), t2_flow_rhs(G))
    return reports.VerificationReport.of("ilw-t2", G, mism)


def verify_commutation(i: int, j: int, h_i: DiffPoly, h_j: DiffPoly) -> reports.VerificationReport:
    """Reduce {h_i, h_j} to normal form and report whether it vanishes."""
    bracket = poisson_bracket(h_i, h_j)
    mism = first_diffpoly_mismatch(bracket, DiffPoly.zero(bracket.vars))
    if mism is not None:
        mism["bracket"] = f"{{h_{i}, h_{j}}}"
    return reports.VerificationReport.of(f"commute({i},{j})", bracket.vars[0].order - 1, mism)
