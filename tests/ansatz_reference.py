"""Test-side reference for the higher Hamiltonians: the commutation solve.

A second route to `ilwhodge.ilw.higher_hamiltonian`, which builds h_i by the
double-ramification recursion.  Here h_i starts from u^{i+2}/(i+2)! and is
pinned down by commutation with h_1: an ansatz over normal-form monomials
obeying the observed grading (differential degree 2g at h^g; e-exponent
g - (i+2-n) for u-degree n) is solved order by order with exact Gaussian
elimination (`ilwhodge.linalg.solve_exact`).  Any rank defect is surfaced,
never repaired silently.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterator

from ilwhodge.diffalg import (
    DiffPoly,
    UExps,
    monomial_sort_key,
    normalize,
    poisson_bracket,
    total_x_derivative,
    u_key,
    u_monomial_pretty,
    variational_derivative,
)
from ilwhodge.exactnum import CgValues
from ilwhodge.ilw import InconsistentSystemError, check_grading, h1
from ilwhodge.linalg import solve_exact
from ilwhodge.mpseries import coeff_ring
from properties import u_power

__all__ = ["UnderdeterminedSystemError", "ansatz_monomials", "higher_hamiltonian"]


class UnderdeterminedSystemError(RuntimeError):
    """The commutation system leaves free directions; they are reported."""

    def __init__(self, index: int, genus: int, directions: list[str]):
        self.index = index
        self.genus = genus
        self.directions = directions
        super().__init__(
            f"h_{index} at h^{genus} is underdetermined; ambiguity basis: {directions}"
        )


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


def higher_hamiltonian(i: int, G: int, cg_values: CgValues | None = None) -> DiffPoly:
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
    xdh1_full = total_x_derivative(variational_derivative(h1_full))
    # the h^0 flow generator u*u_1 of int u^3/6: all unknowns pair with it
    xdh1_zero = DiffPoly(cvars, {(u_key({0: 1, 1: 1}), 0, 0): 1})

    density = u_power(cvars, 0, i + 2, Fraction(1, factorial(i + 2)))
    known = normalize(variational_derivative(density) * xdh1_full)
    for g in range(1, G + 1):
        basis = ansatz_monomials(i, g)
        columns: list[dict[tuple[UExps, int], Fraction]] = []
        for ue, j in basis:
            mono = DiffPoly(cvars, {(ue, 0, 0): 1})
            bracket = normalize(variational_derivative(mono) * xdh1_zero)
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
                    f"{c}*{u_monomial_pretty(ue)}"
                    for (ue, _), c in zip(basis, direction)
                    if c != 0
                )
                for direction in result.free_directions
            ]
            raise UnderdeterminedSystemError(i, g, pretty)
        layer = DiffPoly(
            cvars,
            {(ue, g, j): c for (ue, j), c in zip(basis, result.solution)},
        )
        density = density + layer
        if g < G:
            known = known + normalize(variational_derivative(layer) * xdh1_full)

    ham = normalize(density)
    check_grading(i, ham)
    residual = poisson_bracket(ham, h1_full)
    if residual:
        raise InconsistentSystemError(i, G)
    return ham
