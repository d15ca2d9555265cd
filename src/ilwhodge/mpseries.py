"""Truncated multivariate formal power series over exact rationals.

A `TermMap` is a finite association from keys to nonzero `Fraction`
coefficients over an ordered tuple of `VarSpec` variables; it owns the ring
code (construction, equality, sum, difference, product, render order) shared
by the two exact term maps of the package.  A `MultiSeries` is the one keyed
by exponent vectors; `diffalg.DiffPoly` is the other.  Each variable carries
its own truncation order: an exclusive bound on the exponents retained.
Every operation enforces the bounds, so equality of series is decidable and
exact.

Negative exponents are never allowed.  The sine series of the Hodge side is
a series in t^2 alone and is built at t^2 = h e, so it never leaves the
(h, e) ring of `coeff_ring`.

`exp_series`, `log_series` and `divide_series` (with `inverse_series` as
1 / a) share one graded recurrence (Brent & Kung, J. ACM 25, 1978).  A series
is split into homogeneous components by a grade, and component d of the
result is solved from the components below it; for exp and log the Euler
derivative of the grade, which scales grade d by d, turns the functional
equation into such a recurrence.  The grade is the degree in one variable
when every nonconstant term of the input has that variable, else the total
degree.  Each slice is a sum of products of homogeneous components, so the
work is about that of a single product, not one product per power.

Products run through one integer kernel, shared with `diffalg`: coefficients
become numerators over the lcm of their denominators, each key becomes one
packed int (`Packing`), and `_int_product`, the one pair loop of the
package, adds a list of scaled products into one integer map; a reduced
`Fraction` is built once per output term.  Each slice of the graded solve
is one such call: base_d minus the slice's left products, over one
denominator.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial, gcd, lcm
from operator import lshift
from typing import Iterable, Mapping

__all__ = [
    "SeriesError", "VarSpec", "coeff_ring", "TermMap", "MultiSeries", "exp_series", "log_series",
    "inverse_series", "divide_series", "sinc_half_series", "series_text", "term_text",
    "join_signed",
]

Exponents = tuple[int, ...]


class SeriesError(ValueError):
    """An operation violated a series precondition (bounds, variables, ...)."""


class VarSpec(namedtuple("VarSpec", "name order")):
    """A formal variable with its truncation order (exclusive exponent bound);
    a named tuple, so immutable and equal and hashed by (name, order)."""

    __slots__ = ()

    def __new__(cls, name: str, order: int):
        if not name:
            raise SeriesError("variable name must be non-empty")
        if not isinstance(order, int) or order < 0:
            raise SeriesError(f"truncation order must be >= 0, got {order}")
        return super().__new__(cls, name, order)


def coeff_ring(G: int) -> tuple[VarSpec, VarSpec]:
    """Coefficient variables (h, e) truncated so exponents up to G survive."""
    if G < 0:
        raise SeriesError(f"truncation order must be >= 0, got {G}")
    return (VarSpec("h", G + 1), VarSpec("e", G + 1))


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise SeriesError(f"coefficients must be exact rationals, got {type(value).__name__}")


class TermMap:
    """An exact sparse map from keys to nonzero `Fraction` coefficients over an
    ordered tuple of `VarSpec` variables; immutable by discipline.

    The ring code shared by `MultiSeries` and `diffalg.DiffPoly`.  A subclass
    supplies its error class `error`, its key check and canonical form
    `_key(vars, key)`, its render order `_order(key)`, `constant` and the
    packed key layout `_packing(a, b)` of a product.  `terms` never stores a
    zero coefficient or a key that `_key` rejects; two maps of one class are
    equal iff their variables and term maps are equal.
    """

    __slots__ = ("vars", "terms")
    error: type[Exception]

    def __init__(self, vars: Iterable[VarSpec], terms: Mapping):
        vs = tuple(vars)
        names = [v.name for v in vs]
        if len(set(names)) != len(names):
            raise self.error(f"duplicate variable names in {names}")
        clean: dict = {}
        for key, coef in terms.items():
            _accumulate(clean, self._key(vs, key), _as_fraction(coef))
        self.vars = vs
        self.terms = clean

    @classmethod
    def _make(cls, vs: tuple[VarSpec, ...], terms: dict):
        # trusted fast path: caller guarantees invariants
        out = cls.__new__(cls)
        out.vars = vs
        out.terms = terms
        return out

    @classmethod
    def zero(cls, vars: Iterable[VarSpec]):
        return cls._make(tuple(vars), {})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def sorted_terms(self) -> list:
        """Terms in the class's render order."""
        return sorted(self.terms.items(), key=lambda kv: self._order(kv[0]))

    # -- ring operations ----------------------------------------------------

    def _check_ring(self, other: "TermMap") -> None:
        if self.vars != other.vars:
            a, b = ([f"{v.name} order {v.order}" for v in m.vars] for m in (self, other))
            raise self.error(f"variable mismatch: {a} vs {b}")

    def _operand(self, other):
        """other as a map over this ring (a rational becomes a constant), or
        None when it is neither."""
        if isinstance(other, (int, Fraction)):
            return self.constant(self.vars, other)
        if type(other) is not type(self):
            return None
        self._check_ring(other)
        return other

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for key, c in other.terms.items():
            _accumulate(terms, key, c)
        return self._make(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return self._make(self.vars, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """self * other: a rational scales every coefficient; a map over the
        same ring multiplies through `_int_product` on packed keys."""
        if isinstance(other, (int, Fraction)):
            return self._make(self.vars, {key: c * other for key, c in self.terms.items()}
                              if other else {})
        if type(other) is not type(self):
            return NotImplemented
        self._check_ring(other)
        pack = self._packing(self, other)
        (da, na), (db, nb) = _scaled(self.terms, pack), _scaled(other.terms, pack)
        product = _int_product([(1, list(na.items()), list(nb.items()))], pack)
        return self._make(self.vars, _unscale(product, da * db, pack))

    __rmul__ = __mul__


class Packing:
    """Packed keys (Monagan & Pearce, CASC 2007): one int per key, field i of
    `width` bits at bit i * width, here exponent i of a `MultiSeries`.  The
    width is the least that holds the operands.  Each field's top bit is a
    guard that stored keys keep clear, so adding keys never carries between
    fields.  `bias` lifts the truncated fields 0..n-1 of one factor so that a
    sum field sets its guard exactly at its order; field n, up to `top`, is
    not truncated, and its guard (`over`) set means the width cannot hold
    the result: `_int_product` raises `error` and never wraps."""

    __slots__ = ("width", "mask", "shifts", "bias", "guard", "over")
    error = SeriesError

    def __init__(self, orders: tuple[int, ...], top: int = 0):
        w = 1 + max([top.bit_length()] + [(o - 1).bit_length() for o in orders])
        half, n = 1 << (w - 1), len(orders)
        self.width, self.mask = w, (1 << w) - 1
        self.shifts = range(0, n * w, w)
        self.bias = sum((half - o) << s for o, s in zip(orders, self.shifts))
        self.guard = sum(half << (i * w) for i in range(n + 1))
        self.over = half << (n * w)

    def encode(self, e: Exponents) -> int:
        return sum(map(lshift, e, self.shifts))

    def decode(self, key: int) -> Exponents:
        return tuple([key >> s & self.mask for s in self.shifts])


class MultiSeries(TermMap):
    """A truncated formal power series: a `TermMap` keyed by exponent vectors,
    each exponent below its variable's truncation order."""

    __slots__ = ()
    error = SeriesError

    @staticmethod
    def _key(vs: tuple[VarSpec, ...], exps) -> Exponents:
        e = tuple(exps)
        if not all(isinstance(x, int) for x in e):
            raise SeriesError(f"exponents must be integers, got {e}")
        if len(e) != len(vs):
            raise SeriesError(f"exponent vector {e} has wrong arity for {[v.name for v in vs]}")
        for x, v in zip(e, vs):
            if x < 0:
                raise SeriesError(f"negative exponent {x} for {v.name}")
            if x >= v.order:
                raise SeriesError(f"exponent {x} of {v.name} exceeds truncation order {v.order}")
        return e

    @staticmethod
    def _order(e: Exponents) -> tuple:
        # graded-lexicographic: total degree, then exponents
        return (sum(e), e)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, vars: Iterable[VarSpec], value) -> "MultiSeries":
        vs = tuple(vars)
        c = _as_fraction(value)
        if c == 0:
            return cls._make(vs, {})
        for v in vs:
            if v.order == 0:
                raise SeriesError(f"variable {v.name} truncates even the constant term")
        return cls._make(vs, {(0,) * len(vs): c})

    # -- queries -----------------------------------------------------------

    @property
    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def coefficient(self, exps: Exponents) -> Fraction:
        """Coefficient at an exponent vector; 0 if absent, error if out of range."""
        return self.terms.get(self._key(self.vars, exps), Fraction(0))

    _packing = staticmethod(lambda a, b: Packing(tuple(v.order for v in a.vars)))

    # perfbench/tracing.py wraps this binding, so a DiffPoly product is no series product
    def __mul__(self, other) -> "MultiSeries":
        return TermMap.__mul__(self, other)

    __rmul__ = __mul__

    # -- calculus ------------------------------------------------------------

    def partial_derivative(self, name: str) -> "MultiSeries":
        """Formal d/d(name): the exponent-weighted shift."""
        names = [v.name for v in self.vars]
        if name not in names:
            raise SeriesError(f"no variable named {name!r} in {names}")
        idx = names.index(name)
        terms: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            k = e[idx]
            if k == 0:
                continue
            # lowering one exponent is injective, so no two terms collide
            terms[e[:idx] + (k - 1,) + e[idx + 1 :]] = c * k
        return MultiSeries._make(self.vars, terms)

    def __str__(self) -> str:
        return series_text(self.vars, self.sorted_terms())

    def __repr__(self) -> str:
        names = ",".join(v.name for v in self.vars)
        return f"MultiSeries[{names}]({self})"


def join_signed(parts: list[str]) -> str:
    """The sum of signed terms, a leading "-" folded into " - "; "0" for none."""
    out = parts[0] if parts else "0"
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def term_text(coef: str, body: str, sep: str) -> str:
    """The text of coef times body; an empty body leaves coef alone, and a
    coefficient of 1 or -1 stays implicit."""
    if not body:
        return coef
    if coef in ("1", "-1"):
        return coef[:-1] + body
    return coef + sep + body


def series_text(vars: tuple[VarSpec, ...], items: Iterable[tuple[Exponents, Fraction]]) -> str:
    """Plain text of (exponents, coefficient) terms in the order given,
    e.g. "1/2*e + h"."""
    parts = []
    for e, c in items:
        factors = [
            v.name if x == 1 else f"{v.name}^{x}"
            for v, x in zip(vars, e)
            if x > 0
        ]
        parts.append(term_text(str(c), "*".join(factors), "*"))
    return join_signed(parts)


def _grading(a: MultiSeries):
    """The grade of an exponent vector in the solve for a: its exponent of the
    first variable that every term of a but the constant contains, so that
    grade 0 holds only the constant, or else the total degree.  One variable
    gives fewer slices, each a larger product."""
    i = next((i for i in range(len(a.vars)) if all(e[i] for e in a.terms if any(e))), None)
    return sum if i is None else (lambda e: e[i])


def _components(a: MultiSeries, grade=sum) -> list[MultiSeries]:
    """Homogeneous components a_0..a_D of a by grade (by default the total
    degree), where D is the largest grade the truncation box retains."""
    parts: list[dict] = [{} for _ in range(grade([v.order - 1 for v in a.vars]) + 1)]
    for e, c in a.terms.items():
        parts[grade(e)][e] = c
    return [MultiSeries._make(a.vars, t) for t in parts]


# integer numerators keyed by packed keys, over a denominator kept alongside
IntTerms = dict[int, int]


def _scaled(terms: Mapping, pack: Packing) -> tuple[int, IntTerms]:
    """(den, nums) with terms[key] = nums[pack.encode(key)] / den and den the
    lcm of the denominators."""
    den = lcm(*(c.denominator for c in terms.values()))
    encode = pack.encode
    return den, {encode(e): c.numerator * (den // c.denominator) for e, c in terms.items()}


def _int_product(products: list, pack: Packing) -> IntTerms:
    """sum of scale * a * b over the (scale, a, b) products, each factor a
    sequence of (packed key, numerator) pairs, dropping every term at or
    past a truncation order; a sum that cancels stays as 0.  The one pair
    loop of the package: the shorter factor of each product is biased and
    scaled once, and the bias comes off the sum's keys at the end."""
    bias, guard, over = pack.bias, pack.guard, pack.over
    acc: IntTerms = {}
    for scale, a, b in products:
        short, long = (a, b) if len(a) <= len(b) else (b, a)
        for ks, cs in short:
            ks += bias
            cs *= scale
            for kl, cl in long:
                k = ks + kl
                if k & guard:  # truncated away, or too wide for the layout
                    if k & over:
                        raise pack.error(
                            f"a product term exceeds the {pack.width}-bit packed fields")
                    continue
                acc[k] = acc.get(k, 0) + cs * cl
    return {k - bias: c for k, c in acc.items()}


def _content(den: int, nums: IntTerms) -> tuple[int, IntTerms]:
    """(den, nums) divided by their gcd: den is then the lcm of the reduced
    denominators, as `_scaled` would give."""
    g = gcd(den, *nums.values())
    return den // g, {k: n // g for k, n in nums.items() if n}


def _unscale(nums: IntTerms, den: int, pack: Packing) -> dict:
    """The reduced coefficients nums[key] / den on decoded keys, zeros dropped."""
    decode = pack.decode
    return {decode(k): Fraction(n, den) for k, n in nums.items() if n}


def _accumulate(terms: dict, key, coef: Fraction) -> None:
    """Add coef to terms[key], dropping the key when the sum is zero."""
    acc = terms[key] + coef if key in terms else coef  # no 0 + Fraction
    if acc:
        terms[key] = acc
    else:
        terms.pop(key, None)


def _solve_graded(base: list[MultiSeries], left: list[MultiSeries], weight) -> MultiSeries:
    """The series y with weight(d) * y_d = base_d - sum_{k=1..d} left_k * y_{d-k}
    in every grade d that the components were split by, from the grades below.

    Slice d is one `_int_product` call, about one product's worth of work,
    over the lcm of the slice's operand denominators: base_d enters as
    base_d * 1 and each left product with a negative scale.  Division by
    weight(d), an int or a `Fraction`, and reduction by the content are
    done in integers.
    """
    pack = Packing(tuple(v.order for v in base[0].vars))
    # denominators of the left factors negated: their products are subtracted
    lefts = [(-den, list(nums.items())) for den, nums in (_scaled(p.terms, pack) for p in left)]
    y, out = [], {}
    for d, part in enumerate(base):
        products = [(lefts[k][0] * y[d - k][0], lefts[k][1], y[d - k][1])
                    for k in range(1, d + 1) if lefts[k][1] and y[d - k][1]]
        if part.terms:  # base_d enters as base_d * 1
            bden, bnums = _scaled(part.terms, pack)
            products.append((bden, list(bnums.items()), [(0, 1)]))
        den, w = lcm(*[s for s, _, _ in products]), weight(d)
        f = w.denominator if w > 0 else -w.denominator  # den stays positive
        den, nums = _content(den * abs(w.numerator),
                             _int_product([(den // s * f, a, b) for s, a, b in products], pack))
        y.append((den, list(nums.items())))
        out.update(_unscale(nums, den, pack))
    return MultiSeries._make(base[0].vars, out)


def _euler(parts: list[MultiSeries]) -> list[MultiSeries]:
    """Components of the Euler derivative of the grade: grade d scaled by d."""
    return [p * d for d, p in enumerate(parts)]


def exp_series(a: MultiSeries) -> MultiSeries:
    """exp of a series with zero constant term, exact to truncation.

    f = exp(a) satisfies E f = (E a) f for the Euler derivative E of the
    grade, that is d f_d = sum_{k=1..d} k a_k f_{d-k}: the solve's weight
    is -d, as it subtracts its left sum, and 1 for the constant f_0 = 1.
    """
    if a.constant_term != 0:
        raise SeriesError("exp_series requires a zero constant term")
    one = MultiSeries.constant(a.vars, 1)  # rejects a variable of order 0
    grade = _grading(a)
    return _solve_graded(_components(one, grade), _euler(_components(a, grade)), lambda d: -d or 1)


def log_series(a: MultiSeries) -> MultiSeries:
    """log of a series with constant term one, exact to truncation.

    g = log(a) satisfies a E g = E a, that is
    d g_d = d a_d - sum_{k=1..d-1} a_{d-k} k g_k.
    """
    if a.constant_term != 1:
        raise SeriesError("log_series requires constant term 1")
    grade = _grading(a)
    parts = _components(a, grade)
    eg = _solve_graded(_euler(parts), parts, lambda d: 1)  # E g
    return MultiSeries._make(a.vars, {e: c / grade(e) for e, c in eg.terms.items()})


def divide_series(num, den: MultiSeries) -> MultiSeries:
    """num / den for a series den with nonzero constant term, exact to
    truncation; num is a series over the same variables or a rational."""
    return _divide(num, den, "divide_series")


def inverse_series(a: MultiSeries) -> MultiSeries:
    """Multiplicative inverse of a series with nonzero constant term."""
    return _divide(1, a, "inverse_series")


def _divide(num, den: MultiSeries, caller: str) -> MultiSeries:
    # q = num / den solves den_0 q_d = num_d - sum_{k=1..d} den_k q_{d-k}
    c = den.constant_term
    if c == 0:
        raise SeriesError(f"{caller} requires a nonzero constant term")
    try:
        operand = den._operand(num)
    except SeriesError as exc:
        raise SeriesError(f"{caller}: {exc}") from None
    if operand is None:
        raise SeriesError(f"{caller}: numerator must be a series or an exact rational, "
                          f"got {type(num).__name__}")
    grade = _grading(den)
    return _solve_graded(_components(operand, grade), _components(den, grade), lambda d: c)


def sinc_half_series(G: int) -> MultiSeries:
    """sin(t/2)/(t/2) = sum_m (-1)^m t^{2m} / (4^m (2m+1)!) at t^2 = h e,
    through (h e)^G, over `coeff_ring(G)`."""
    return MultiSeries(coeff_ring(G), {
        (m, m): Fraction((-1) ** m, 4**m * factorial(2 * m + 1)) for m in range(G + 1)
    })
