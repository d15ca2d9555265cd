"""Verification reports and the one scan that localizes a mismatch."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .exactnum import rational_to_str

__all__ = ["VerificationReport", "first_mismatch", "first_term_mismatch"]


@dataclass
class VerificationReport:
    """Outcome of one identity check.

    `status` is "ok" or "mismatch"; a mismatch carries the first differing
    locus in canonical scan order together with both values, so a fault is
    always localized.
    """

    name: str
    status: str
    order_checked: int
    first_mismatch: dict | None = None

    @classmethod
    def of(cls, name: str, order: int, mismatch: dict | None) -> VerificationReport:
        """An "ok" report when `mismatch` is None, else a "mismatch" report."""
        return cls(name, "ok" if mismatch is None else "mismatch", order, mismatch)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "status": self.status,
            "order_checked": self.order_checked,
        }
        if self.first_mismatch is not None:
            out["first_mismatch"] = self.first_mismatch
        return out


def first_mismatch(
    scan: Iterable[tuple[dict, Fraction, Fraction]], x_label: str, y_label: str
) -> dict | None:
    """The first `(locus, x, y)` of `scan` with x != y, as the locus followed
    by both values in p/q form under `x_label` and `y_label`; None if every
    pair agrees.  `scan` is consumed only up to that point."""
    for locus, x, y in scan:
        if x != y:
            return {**locus, x_label: rational_to_str(x), y_label: rational_to_str(y)}
    return None


def first_term_mismatch(
    x: Mapping, y: Mapping, locus: Callable[..., dict], x_label: str, y_label: str,
    key: Callable | None = None,
) -> dict | None:
    """`first_mismatch` over the keys of the term maps x and y, scanned in
    `sorted(..., key=key)` order with an absent key read as 0; `locus(k)` is
    the locus of key k."""
    zero = Fraction(0)
    scan = ((locus(k), x.get(k, zero), y.get(k, zero)) for k in sorted(x.keys() | y.keys(), key=key))
    return first_mismatch(scan, x_label, y_label)
