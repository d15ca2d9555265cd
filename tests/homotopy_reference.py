"""Test-side reconstruction of a Hamiltonian from its flow: the homotopy formula.

The engine builds each Hamiltonian forward, by the double-ramification
recursion in `ilwhodge.ilw`; nothing in it needs to run a flow backwards.
`reconstruct_functional_from_flow` does, and so checks a Hamiltonian and its
flow against each other from the other side.
"""

from __future__ import annotations

from fractions import Fraction

from ilwhodge.diffalg import (
    DiffAlgError,
    DiffPoly,
    NotTotalDerivativeError,
    integrate_x,
    normalize,
    u_degree,
    variational_derivative,
)

__all__ = ["NotSelfAdjointError", "reconstruct_functional_from_flow"]


class NotSelfAdjointError(DiffAlgError):
    """The integrated flow is not a variational gradient."""


def reconstruct_functional_from_flow(q: DiffPoly) -> DiffPoly:
    """Recover h with d/dx (delta h/delta u) = q via the homotopy formula,
    as the normal form of its density.

    Integrates q to phi, which fails unless q is a total x-derivative with no
    u-free part (with none, delta q/delta u = 0 exactly when `integrate_x`
    leaves no remainder), and evaluates
    h = int_0^1 dl int u*phi[l*u] dx exactly: the l-integral weights each
    monomial of phi by 1/(u-degree + 1).  phi is a variational gradient
    exactly when it reproduces itself, delta h/delta u = phi (Olver,
    Applications of Lie Groups to Differential Equations, ch. 5); any other
    phi is rejected.
    """
    if any(not ue for ue, _, _ in q.terms):
        raise NotTotalDerivativeError("flow has a u-independent part")
    phi = integrate_x(q)
    # u * monomial is injective in the monomial, so no two keys collide
    h = normalize(DiffPoly(q.vars, {
        (ue + ((0, 1),), a, b): coef * Fraction(1, u_degree(ue) + 1)
        for (ue, a, b), coef in phi.terms.items()
    }))
    defect = variational_derivative(h) - phi
    if defect:
        raise NotSelfAdjointError(
            "integrated flow is not a variational gradient; "
            f"delta h/delta u - phi = {defect}"
        )
    return h
