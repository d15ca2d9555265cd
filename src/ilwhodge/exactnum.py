"""Exact rational scalars, Bernoulli numbers, and the hierarchy constants.

Every number in the engine is a `fractions.Fraction`: arbitrary precision,
always stored reduced with a positive denominator, no floating point
anywhere.  This module adds the Bernoulli numbers B_n (convention generated
by z/(e^z - 1), so B_1 = -1/2) and the two derived constant families

    c_g(g)              = |B_{2g}| / (2 (2g)!)
    dispersion_coeff(g) = |B_{2g}| / (2g)!   = 2 c_g(g)

which appear as the dispersive coefficients of the hierarchy.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb, factorial, lcm

Rational = Fraction

__all__ = [
    "Rational", "bernoulli", "c_g", "dispersion_coeff", "rational_to_str", "rational_from_str",
]

# B_0, B_1, ... computed so far; guarded for concurrent use.
_bernoulli_cache: list[Fraction] = [Fraction(1)]
_cache_lock = threading.Lock()


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n, with B_1 = -1/2.

    Computed by the binomial recurrence sum_{k=0}^{n} C(n+1, k) B_k = 0,
    memoized; exact at every index.  Each step sums in integers over the lcm
    of the denominators and skips the odd B_k (k >= 3), which vanish.
    """
    if n < 0:
        raise ValueError(f"Bernoulli index must be non-negative, got {n}")
    with _cache_lock:
        while len(_bernoulli_cache) <= n:
            m = len(_bernoulli_cache)
            known = [(k, b) for k, b in enumerate(_bernoulli_cache) if b]
            den = lcm(*(b.denominator for _, b in known))
            acc = sum(comb(m + 1, k) * b.numerator * (den // b.denominator) for k, b in known)
            _bernoulli_cache.append(Fraction(-acc, den * (m + 1)))
            if m >= 2:
                _bernoulli_cache.append(Fraction(0))  # B_{m+1}
        return _bernoulli_cache[n]


def c_g(g: int) -> Fraction:
    """The constant |B_{2g}| / (2 (2g)!) for g >= 1."""
    if g < 1:
        raise ValueError(f"genus must be positive, got {g}")
    return abs(bernoulli(2 * g)) / (2 * factorial(2 * g))


def dispersion_coeff(g: int) -> Fraction:
    """The first-flow dispersion coefficient |B_{2g}| / (2g)! = 2 c_g(g)."""
    return 2 * c_g(g)


def rational_to_str(x: Fraction) -> str:
    """Wire encoding: "p/q" with the sign on the numerator, or "p" when q = 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rational_from_str(s: str) -> Fraction:
    """Parse the "p/q" / "p" wire encoding back into a Fraction."""
    text = s.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        d = int(den)
        if d <= 0:
            raise ValueError(f"denominator must be positive in {s!r}")
        return Fraction(int(num), d)
    return Fraction(int(text))
