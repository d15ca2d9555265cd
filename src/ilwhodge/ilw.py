"""Construction and verification of the ILW hierarchy.

The first Hamiltonian is explicit,

    h_1 = int( u^3/6 + sum_{g>=1} h^g e^{g-1} c_g u u_{2g} ) dx,
    c_g = |B_{2g}| / (2 (2g)!),

and generates the first flow u_t = u u_x + sum_g h^g e^{g-1} (|B_{2g}|/(2g)!)
u_{2g+1}.  Higher Hamiltonians start from u^{i+2}/(i+2)! and are pinned down
by commutation with h_1: an ansatz over normal-form monomials obeying the
observed grading (differential degree 2g at h^g; e-exponent g - (i+2-n) for
u-degree n) is solved order by order with exact Gaussian elimination.  Any
rank defect is surfaced, never repaired silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Iterator

from . import exactnum
from .diffalg import (
    DiffPoly,
    LocalFunctional,
    UExps,
    coeff_ring,
    differential_degree,
    monomial_sort_key,
    normalize,
    poisson_bracket,
    total_x_derivative,
    u_degree,
    u_key,
    u_monomial_pretty,
    variational_derivative,
)
from .exactnum import rational_to_str
from .linalg import solve_exact
from .mpseries import MultiSeries
from .reports import VerificationReport, first_mismatch

__all__ = [
    "Hamiltonian",
    "InconsistentSystemError",
    "UnderdeterminedSystemError",
    "h1",
    "hamiltonian",
    "higher_hamiltonian",
    "flow",
    "t1_flow_rhs",
    "t2_flow_rhs",
    "verify_flow_t1",
    "verify_flow_t2",
    "verify_commutation",
    "check_grading",
    "first_diffpoly_mismatch",
]

CgValues = Callable[[int], Fraction]


class UnderdeterminedSystemError(RuntimeError):
    """The commutation system leaves free directions; they are reported."""

    def __init__(self, index: int, genus: int, directions: list[str]):
        self.index = index
        self.genus = genus
        self.directions = directions
        super().__init__(
            f"h_{index} at h^{genus} is underdetermined; ambiguity basis: {directions}"
        )


class InconsistentSystemError(RuntimeError):
    """The commutation system has no solution (ansatz/grading bug)."""

    def __init__(self, index: int, genus: int):
        self.index = index
        self.genus = genus
        super().__init__(f"commutation system for h_{index} at h^{genus} has no solution")


@dataclass(frozen=True)
class Hamiltonian:
    """A hierarchy Hamiltonian: its index, truncation order, and functional."""

    index: int
    genus_order: int
    functional: LocalFunctional


def h1(G: int, cg_values: CgValues | None = None) -> Hamiltonian:
    """The explicit first Hamiltonian, truncated at h^G."""
    if G < 0:
        raise ValueError(f"genus order must be >= 0, got {G}")
    cg = cg_values or exactnum.c_g
    cvars = coeff_ring(G)
    density = DiffPoly(cvars, {u_key({0: 3}): Fraction(1, 6)})
    for g in range(1, G + 1):
        coef = MultiSeries.monomial(cvars, (g, g - 1), cg(g))
        density = density + DiffPoly(cvars, {u_key({0: 1, 2 * g: 1}): coef})
    ham = Hamiltonian(1, G, normalize(density))
    check_grading(ham)
    return ham


def flow(h: Hamiltonian | LocalFunctional) -> DiffPoly:
    """The flow generated by a Hamiltonian: d/dx (delta h / delta u)."""
    functional = h.functional if isinstance(h, Hamiltonian) else h
    return total_x_derivative(variational_derivative(functional))


def _partitions(total: int, max_part: int) -> Iterator[tuple[int, ...]]:
    # partitions of `total` into parts <= max_part, weakly decreasing
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def ansatz_monomials(i: int, g: int) -> list[tuple[UExps, int]]:
    """Normal-form monomials allowed at h^g for the index-i Hamiltonian,
    paired with their e-exponent g - (i + 2 - n)."""
    out: list[tuple[UExps, int]] = []
    for n in range(max(2, i + 2 - g), i + 3):
        j = g - (i + 2 - n)
        for part in _partitions(2 * g, 2 * g):
            if len(part) > n:
                continue
            if part and part.count(part[0]) < 2:
                continue  # strictly-top linear factor: not a normal form
            exps: dict[int, int] = {0: n - len(part)}
            for k in part:
                exps[k] = exps.get(k, 0) + 1
            out.append((u_key(exps), j))
    out.sort(key=lambda mj: (mj[1], monomial_sort_key(mj[0])))
    return out


def _h_slice(p: DiffPoly, g: int) -> dict[tuple[UExps, int], Fraction]:
    """Rows (u-monomial, e-exponent) -> coefficient of the h^g part."""
    return {(ue, b): val for (ue, a, b), val in p.terms.items() if a == g}


def higher_hamiltonian(i: int, G: int, cg_values: CgValues | None = None) -> Hamiltonian:
    """The index-i Hamiltonian (i >= 2) determined by commutation with h_1.

    Solves {candidate, h_1} = 0 coefficient-wise, one h-order at a time;
    demands a unique solution over the graded normal-form ansatz and
    re-verifies the full bracket afterwards.  The bracket of the part solved
    so far with h_1 is kept across orders: the bracket is bilinear and
    `normalize` is linear, so each solved layer adds its own bracket once.
    """
    if i < 2:
        raise ValueError(f"higher Hamiltonian index must be >= 2, got {i}")
    if G < 0:
        raise ValueError(f"genus order must be >= 0, got {G}")
    cvars = coeff_ring(G)
    h1_full = h1(G, cg_values)
    xdh1_full = total_x_derivative(variational_derivative(h1_full.functional))
    # the h^0 flow generator u*u_1 of int u^3/6: all unknowns pair with it
    xdh1_zero = DiffPoly(cvars, {u_key({0: 1, 1: 1}): 1})

    density = DiffPoly(cvars, {u_key({0: i + 2}): Fraction(1, factorial(i + 2))})
    known = normalize(variational_derivative(density) * xdh1_full).density
    for g in range(1, G + 1):
        basis = ansatz_monomials(i, g)
        columns: list[dict[tuple[UExps, int], Fraction]] = []
        for ue, j in basis:
            mono = DiffPoly(cvars, {ue: 1})
            bracket = normalize(variational_derivative(mono) * xdh1_zero).density
            col = {
                (row_ue, j): val
                for (row_ue, b0), val in _h_slice(bracket, 0).items()
                if b0 == 0
            }
            columns.append(col)
        rhs_rows = _h_slice(known, g)

        row_keys = sorted(
            {rk for col in columns for rk in col} | set(rhs_rows),
            key=lambda rk: (rk[1], monomial_sort_key(rk[0])),
        )
        matrix = [[col.get(rk, Fraction(0)) for col in columns] for rk in row_keys]
        rhs = [-rhs_rows.get(rk, Fraction(0)) for rk in row_keys]
        result = solve_exact(matrix, rhs)
        if not result.consistent:
            raise InconsistentSystemError(i, g)
        if result.free_directions:
            pretty = [
                " + ".join(
                    f"{rational_to_str(c)}*{u_monomial_pretty(ue)}"
                    for (ue, _), c in zip(basis, direction)
                    if c != 0
                )
                for direction in result.free_directions
            ]
            raise UnderdeterminedSystemError(i, g, pretty)
        layer = DiffPoly(
            cvars,
            {ue: MultiSeries.monomial(cvars, (g, j), c)
             for (ue, j), c in zip(basis, result.solution)},
        )
        density = density + layer
        if g < G:
            known = known + normalize(variational_derivative(layer) * xdh1_full).density

    ham = Hamiltonian(i, G, normalize(density))
    check_grading(ham)
    residual = poisson_bracket(ham.functional, h1_full.functional)
    if not residual.is_zero():
        raise InconsistentSystemError(i, G)
    return ham


def hamiltonian(i: int, G: int, cg_values: CgValues | None = None) -> Hamiltonian:
    """h_i at truncation order G (explicit for i = 1, solved for i >= 2)."""
    if i < 1:
        raise ValueError(f"hierarchy index must be >= 1, got {i}")
    return h1(G, cg_values) if i == 1 else higher_hamiltonian(i, G, cg_values)


def check_grading(h: Hamiltonian) -> None:
    """Assert the grading invariants on a constructed Hamiltonian.

    Every monomial at h^g with u-degree n must carry e-exponent
    g - (index + 2 - n) and differential degree exactly 2g, and the h^0
    part must be u^{i+2}/(i+2)!.
    """
    i = h.index
    lead = u_key({0: i + 2})
    for (ue, g, j), val in h.functional.density.terms.items():
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
    got, want = computed.terms, expected.terms
    keys = sorted(got.keys() | want.keys(), key=lambda k: (k[1], k[2], monomial_sort_key(k[0])))
    scan = (
        ({"monomial": u_monomial_pretty(ue), "h_exp": a, "e_exp": b},
         want.get((ue, a, b), Fraction(0)), got.get((ue, a, b), Fraction(0)))
        for ue, a, b in keys
    )
    return first_mismatch(scan, "expected", "computed")


def t1_flow_rhs(G: int) -> DiffPoly:
    """Closed form of the first flow: u u_x + sum_g h^g e^{g-1}
    (|B_{2g}|/(2g)!) u_{2g+1}."""
    cvars = coeff_ring(G)
    out = DiffPoly(cvars, {u_key({0: 1, 1: 1}): 1})
    for g in range(1, G + 1):
        coef = MultiSeries.monomial(cvars, (g, g - 1), exactnum.dispersion_coeff(g))
        out = out + DiffPoly(cvars, {u_key({2 * g + 1: 1}): coef})
    return out


def t2_flow_rhs(G: int) -> DiffPoly:
    """Closed form of the second flow: (1/2)u^2 u_x plus the two displayed
    dispersive sums with coefficients |B_{2g}|/(2g)!."""
    cvars = coeff_ring(G)
    out = DiffPoly(cvars, {u_key({0: 2, 1: 1}): Fraction(1, 2)})
    usq = DiffPoly(cvars, {u_key({0: 2}): 1})
    for g in range(1, G + 1):
        disp = exactnum.dispersion_coeff(g)
        inner = total_x_derivative(DiffPoly(cvars, {u_key({0: 1, 2 * g: 1}): 2}))
        dxs = usq
        for _ in range(2 * g + 1):
            dxs = total_x_derivative(dxs)
        coef = MultiSeries.monomial(cvars, (g, g - 1), disp / 4)
        out = out + (inner + dxs) * coef
        if g >= 2:
            coef2 = MultiSeries.monomial(cvars, (g, g - 2), disp * (g + 1))
            out = out + DiffPoly(cvars, {u_key({2 * g + 1: 1}): coef2})
    return out


def verify_flow_t1(G: int, cg_values: CgValues | None = None) -> VerificationReport:
    """Compare flow(h_1(G)) with the displayed first flow, exactly."""
    mism = first_diffpoly_mismatch(flow(h1(G, cg_values)), t1_flow_rhs(G))
    return VerificationReport.of("ilw-t1", G, mism)


def verify_flow_t2(G: int, cg_values: CgValues | None = None) -> VerificationReport:
    """Compare flow(h_2(G)) with the displayed second flow, exactly."""
    mism = first_diffpoly_mismatch(flow(higher_hamiltonian(2, G, cg_values)), t2_flow_rhs(G))
    return VerificationReport.of("ilw-t2", G, mism)


def verify_commutation(
    i: int, j: int, G: int, cg_values: CgValues | None = None
) -> VerificationReport:
    """Reduce {h_i, h_j} to normal form and report whether it vanishes."""
    hi = hamiltonian(i, G, cg_values)
    hj = hamiltonian(j, G, cg_values)
    bracket = poisson_bracket(hi.functional, hj.functional)
    mism = first_diffpoly_mismatch(bracket.density, DiffPoly.zero(bracket.coeff_vars))
    if mism is not None:
        mism["bracket"] = f"{{h_{i}, h_{j}}}"
    return VerificationReport.of(f"commute({i},{j})", G, mism)
