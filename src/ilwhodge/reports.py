"""Verification reports, which `cli` renders, and the one scan that localizes a mismatch."""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple

__all__ = ["VerificationReport", "first_term_mismatch"]


class VerificationReport(NamedTuple):
    """Outcome of one identity check.

    `status` is "ok", "mismatch" or "error"; a mismatch carries the first
    differing locus in canonical scan order together with both values, so a
    fault is always localized, and an error (a check that raised, as
    `cli._run_verifications` reports it) carries `{"error": message}`.
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


def first_term_mismatch(
    x: Mapping, y: Mapping, locus: Callable[..., dict], x_label: str, y_label: str,
    key: Callable | None = None,
) -> dict | None:
    """The first key at which the term maps x and y differ, scanned in
    `sorted(..., key=key)` order with an absent key read as 0: `locus(k)`
    followed by both values in p/q form under `x_label` and `y_label`; None
    if every key agrees."""
    for k in sorted(x.keys() | y.keys(), key=key):
        xv, yv = x.get(k, 0), y.get(k, 0)
        if xv != yv:
            return {**locus(k), x_label: str(xv), y_label: str(yv)}
    return None
