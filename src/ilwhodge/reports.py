"""Verification reports, which `cli` renders, and the one scan that localizes a mismatch."""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping

from .exactnum import rational_to_str

__all__ = ["VerificationReport", "first_term_mismatch"]


class VerificationReport:
    """Outcome of one identity check.

    `status` is "ok" or "mismatch"; a mismatch carries the first differing
    locus in canonical scan order together with both values, so a fault is
    always localized.
    """

    def __init__(self, name: str, status: str, order_checked: int,
                 first_mismatch: dict | None = None):
        self.name = name
        self.status = status
        self.order_checked = order_checked
        self.first_mismatch = first_mismatch

    @classmethod
    def of(cls, name: str, order: int, mismatch: dict | None) -> VerificationReport:
        """An "ok" report when `mismatch` is None, else a "mismatch" report."""
        return cls(name, "ok" if mismatch is None else "mismatch", order, mismatch)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def first_term_mismatch(
    x: Mapping, y: Mapping, locus: Callable[..., dict], x_label: str, y_label: str,
    key: Callable | None = None,
) -> dict | None:
    """The first key at which the term maps x and y differ, scanned in
    `sorted(..., key=key)` order with an absent key read as 0: `locus(k)`
    followed by both values in p/q form under `x_label` and `y_label`; None
    if every key agrees."""
    zero = Fraction(0)
    for k in sorted(x.keys() | y.keys(), key=key):
        xv, yv = x.get(k, zero), y.get(k, zero)
        if xv != yv:
            return {**locus(k), x_label: rational_to_str(xv), y_label: rational_to_str(yv)}
    return None
