"""Differential polynomials in one dependent variable and local functionals.

A `DiffPoly` is a finite sum of monomials in u = u_0, u_1, u_2, ... (u_k is
the k-th x-derivative of u) whose coefficients are polynomials in the two
deformation parameters h and e, truncated at each parameter's order.  It is
the `mpseries.TermMap` keyed flat by (u-monomial, h-exponent, e-exponent),
so it shares the ring code of `MultiSeries` and adds its own key check,
render order and product; that map is the only coefficient shape it is
built from and computed on.  Its plain text (`str`) and the LaTeX and
JSON forms that `cli` renders read one grouping of its sorted terms,
`by_monomial`.  On top of the ring this module provides the total
x-derivative, the variational (Euler) derivative, the Poisson bracket
{f, g} = int (delta f/delta u) d/dx (delta g/delta u) dx, one
integration-by-parts reduction whose remainder is the normal form of a
density and whose peeled terms are the x-antiderivative of a total
derivative, and the series of the triangular Miura substitution
(sin(t/2)/(t/2) of `mpseries` with t^2 read as h e d^2/dx^2) and of its
inverse (the reciprocal series).

The calculus runs on packed keys (`_Packing`): a key's u_k fields are read
off it each time, and every product, the Frechet sum included, is one call
of `mpseries._int_product`, the one pair loop of the package.  The Frechet
sum is what certifies a Hamiltonian build in `ilw`; it reads the
x-derivatives of its second factor from a list that the caller may keep
across calls, so a build takes each of them once.  `poisson_bracket` is
the only code that multiplies a variational derivative by a flow, so the
Euler route is a second route to {h_i, h_1} = 0.

A local functional int(h) dx, the class of a density modulo total
x-derivatives, is the `DiffPoly` of its canonical normal form: no monomial
keeps a factor u_N (N >= 1) that is linear and strictly above every other
derivative index in that monomial.  Together with dropping pure c*u_N terms
this picks one density per class, so equality of functionals is equality of
normal forms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from math import lcm
from typing import Iterable, Iterator, Mapping

from .mpseries import (
    IntTerms, MultiSeries, Packing, TermMap, VarSpec, _int_product, _scaled, _unscale,
    inverse_series, join_signed, series_text, sinc_half_series, term_text,
)

__all__ = [
    "DiffAlgError", "NotTotalDerivativeError", "UExps", "u_key", "u_monomial_pretty",
    "by_monomial", "DiffPoly", "total_x_derivative", "variational_derivative",
    "normalize", "poisson_bracket", "miura_series", "miura_inverse_series", "integrate_x",
]

# ((derivative index, multiplicity), ...) sorted by index, multiplicities > 0
UExps = tuple[tuple[int, int], ...]


class DiffAlgError(ValueError):
    """An operation violated a differential-algebra precondition."""


class NotTotalDerivativeError(DiffAlgError):
    """The input is not a total x-derivative."""


def u_key(exponents: Mapping[int, int] | Iterable[tuple[int, int]]) -> UExps:
    """Canonicalize {derivative index: multiplicity} into a UExps tuple."""
    items = exponents.items() if isinstance(exponents, Mapping) else exponents
    acc: dict[int, int] = {}
    for k, m in items:
        if not isinstance(k, int) or k < 0:
            raise DiffAlgError(f"derivative index must be >= 0, got {k}")
        if not isinstance(m, int) or m < 0:
            raise DiffAlgError(f"multiplicity must be >= 0, got {m}")
        if m:
            acc[k] = acc.get(k, 0) + m
    return tuple(sorted(acc.items()))


def differential_degree(ue: UExps) -> int:
    """D = sum of index * multiplicity."""
    return sum(k * m for k, m in ue)


def u_degree(ue: UExps) -> int:
    """N = total multiplicity."""
    return sum(m for _, m in ue)


def monomial_sort_key(ue: UExps) -> tuple:
    """Graded-lex canonical order: differential degree, then the dense
    exponent vector (u_0 multiplicity first)."""
    dense = [0] * (ue[-1][0] + 1 if ue else 1)
    for k, m in ue:
        dense[k] = m
    return (differential_degree(ue), tuple(dense))


# (u-monomial, h-exponent, e-exponent)
FlatKey = tuple[UExps, int, int]


class DiffPoly(TermMap):
    """Finite sum of terms c * h^a * e^b * (u-monomial) over a fixed (h, e)
    coefficient ring: a `TermMap` keyed flat by (u-monomial, a, b).

    The constructor canonicalizes each u-monomial with `u_key`, so a repeated
    factor adds up, and rejects an (a, b) outside the ring; `str` reads
    `sorted_terms` through `by_monomial`.
    """

    __slots__ = ()
    error = DiffAlgError

    @staticmethod
    def _key(vs: tuple[VarSpec, ...], key: FlatKey) -> FlatKey:
        ue, a, b = key
        if len(vs) != 2:
            raise DiffAlgError(f"coefficient ring must be (h, e), got {[v.name for v in vs]}")
        h_order, e_order = (v.order for v in vs)
        if not (isinstance(a, int) and isinstance(b, int)
                and 0 <= a < h_order and 0 <= b < e_order):
            raise DiffAlgError(f"h^{a} e^{b} is outside the coefficient ring")
        return (u_key(ue), a, b)

    @staticmethod
    def _order(key: FlatKey) -> tuple:
        # u-monomials by `monomial_sort_key`, then each one's (h, e) exponents
        # graded-lex
        ue, a, b = key
        return (monomial_sort_key(ue), a + b, a, b)

    @staticmethod
    def _packing(*factors: "DiffPoly") -> "_Packing":
        # wide enough for the u-degree of every factor and of their product
        return _Packing(factors[0].vars, sum(
            max((u_degree(ue) for ue, _, _ in p.terms), default=0) for p in factors))

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, cvars: Iterable[VarSpec], coef: int | Fraction) -> "DiffPoly":
        return cls(cvars, {((), 0, 0): coef})

    # -- rendering -------------------------------------------------------------------

    def __str__(self) -> str:
        """Plain-text rendering, e.g. "u*u_1 + 1/12*h*u_3"."""
        terms = []
        for ue, items in by_monomial(self):
            coef = series_text(self.vars, items)
            coef = f"({coef})" if len(items) > 1 else coef
            terms.append(term_text(coef, u_monomial_pretty(ue) if ue else "", "*"))
        return join_signed(terms)

    def __repr__(self) -> str:
        return f"DiffPoly({self})"


def u_monomial_pretty(ue: Iterable[Iterable[int]]) -> str:
    """Plain-text u-monomial, e.g. "u^2*u_3"; "1" for the empty monomial."""
    return "*".join(
        ("u" if k == 0 else f"u_{k}") + ("" if m == 1 else f"^{m}") for k, m in ue
    ) or "1"


# one u-monomial's (h, e) coefficient: ((h-exponent, e-exponent), value) pairs
CoefItems = list[tuple[tuple[int, int], Fraction]]


def by_monomial(p: DiffPoly) -> Iterator[tuple[UExps, CoefItems]]:
    """`p.sorted_terms()` cut into runs that share a u-monomial."""
    for ue, run in groupby(p.sorted_terms(), key=lambda item: item[0][0]):
        yield ue, [((a, b), c) for (_, a, b), c in run]


# -- calculus ---------------------------------------------------------------------


# The calculus runs on integer numerators over one common denominator
# (`mpseries._scaled`), keyed by packed keys; a sum that cancels may stay as
# 0 until `_unscale`.


class _Packing(Packing):
    """Packed `DiffPoly` keys: e, h and the u-degree in fields 0, 1 and 2, then
    u_k in field k + 3.  The u-degree bounds every multiplicity, so no u
    field can carry.  Compared as integers, keys order by top derivative
    index, then multiplicities from the top down, then h and e; that order
    only picks the monomial `integrate_x` names."""

    __slots__ = ("base",)
    error = DiffAlgError

    def __init__(self, cvars: tuple[VarSpec, ...], degree: int):
        super().__init__(tuple(v.order for v in reversed(cvars)), degree)
        self.base = 3 * self.width

    def encode(self, key: FlatKey) -> int:
        (ue, a, b), w = key, self.width
        u = sum(m << (k * w + self.base) for k, m in ue)
        return u | u_degree(ue) << 2 * w | a << w | b

    def decode(self, key: int) -> FlatKey:
        ue = tuple(((s - self.base) // self.width, m) for s, m in self.factors(key))
        return (ue, self.h(key), key & self.mask)

    def h(self, key: int) -> int:
        """The h exponent of a key."""
        return key >> self.width & self.mask

    def degree(self, key: int) -> int:
        """The u-degree of a key."""
        return key >> 2 * self.width & self.mask

    def factors(self, key: int) -> list[tuple[int, int]]:
        """(field shift, multiplicity) of every u_k in a key, lowest first."""
        w, mask, out, rest = self.width, self.mask, [], key >> self.base << self.base
        while rest:  # jump to the lowest nonzero field
            s = (rest & -rest).bit_length() - 1
            s -= s % w
            out.append((s, rest >> s & mask))
            rest &= ~(mask << s)
        return out


def _encoded(p: DiffPoly) -> tuple[_Packing, int, IntTerms]:
    """(pack, den, nums): p on the narrowest packed keys that hold it."""
    pack = DiffPoly._packing(p)
    return (pack, *_scaled(p.terms, pack))


def _decoded(cvars: tuple[VarSpec, ...], den: int, nums: IntTerms, pack: _Packing) -> DiffPoly:
    return DiffPoly._make(cvars, _unscale(nums, den, pack))


def _int_dx(nums: IntTerms, pack: _Packing, out: IntTerms | None = None,
            sign: int = 1) -> IntTerms:
    """sign * d/dx of nums, added into `out` (a new map when None): each u_k
    of multiplicity m gives m times the key with one u_k raised to u_{k+1};
    raising a different u_k gives a different key."""
    out = {} if out is None else out
    w, factors = pack.width, pack.factors
    for key, c in nums.items():
        c *= sign
        for s, m in factors(key):
            k = key + (1 << (s + w)) - (1 << s)
            out[k] = out.get(k, 0) + m * c
    return out


def _int_partials(nums: IntTerms, pack: _Packing) -> dict[int, IntTerms]:
    """{field shift of u_k: dp/du_k} for every u_k present, in one pass;
    taking one u_k off is injective on monomials, so no two terms collide."""
    parts: dict[int, IntTerms] = {}
    degree, factors = 1 << 2 * pack.width, pack.factors
    for key, c in nums.items():
        for s, m in factors(key):
            parts.setdefault(s, {})[key - (1 << s) - degree] = m * c
    return parts


def _int_euler(nums: IntTerms, pack: _Packing) -> IntTerms:
    """The Euler operator by Horner, P_0 - d/dx(P_1 - d/dx(P_2 - ...))."""
    parts = _int_partials(nums, pack)
    acc: IntTerms = {}
    for s in range(max(parts, default=0), pack.base - 1, -pack.width):
        acc = _int_dx(acc, pack, parts.get(s, {}), -1)
    return acc


def _int_frechet(nphi: IntTerms, derivs: list[list[tuple[int, int]]],
                 pack: _Packing) -> IntTerms:
    """sum_k (dphi/du_k) d^k/dx^k b, as one `_int_product` accumulation.

    derivs[k] is d^k/dx^k b as (packed key, numerator) pairs, derivs[0] = b;
    a call appends the derivatives it needs and the list lacks, so a caller
    that keeps the list takes each x-derivative of b once."""
    parts, products = _int_partials(nphi, pack), []
    for k, s in enumerate(range(pack.base, max(parts, default=0) + 1, pack.width)):
        if k == len(derivs):
            derivs.append(list(_int_dx(dict(derivs[-1]), pack).items()))
        products.append((1, list(parts.get(s, {}).items()), derivs[k]))
    return _int_product(products, pack)


def total_x_derivative(p: DiffPoly) -> DiffPoly:
    """d/dx p = sum_k (dp/du_k) u_{k+1}; a derivation, kills constants."""
    pack, den, nums = _encoded(p)
    return _decoded(p.vars, den, _int_dx(nums, pack), pack)


def variational_derivative(h: DiffPoly) -> DiffPoly:
    """Euler operator: delta/delta u = sum_k (-d/dx)^k (partial/partial u_k),
    evaluated by Horner as P_0 - d/dx(P_1 - d/dx(P_2 - ...)).

    Representative-independent: total x-derivatives are killed.
    """
    pack, den, nums = _encoded(h)
    return _decoded(h.vars, den, _int_euler(nums, pack), pack)


# -- normal form -------------------------------------------------------------------


def normalize(p: DiffPoly) -> DiffPoly:
    """The integration-by-parts normal form of p, the density that stands
    for int(p) dx.

    The remainder of `_reduce`: the projection onto the complement of
    im(d/dx), hence idempotent and independent of reduction order.
    """
    pack, den, nums = _encoded(p)
    return _decoded(p.vars, *_reduce(den, nums, pack), pack)


def _reduce(den: int, nums: IntTerms, pack: _Packing,
            antiderivative: IntTerms | None = None) -> tuple[int, IntTerms]:
    """(den', rest): the normal-form remainder of nums / den as rest / den',
    reached in one sweep over levels, the level of a monomial being the
    index N of its top factor u_N.

    A monomial c*R*u_{N-1}^j*u_N with u_N linear and strictly top reduces to
    -c/(j+1) * dx(R) * u_{N-1}^{j+1}: the usual step int Q u_N = -int (dx Q)
    u_{N-1}, with the self-reproducing part (dx raising a u_{N-1} of Q back
    to u_N) already solved for.  The peeled c/(j+1) * R * u_{N-1}^{j+1}, whose
    x-derivative is the monomial minus its reduction, goes into
    `antiderivative` (over den') when one is given.  Every monomial a
    reduction produces lies on level N - 1, so the levels are swept from the
    top down: each normal monomial is filed in the remainder, and each
    reduction -c/(j+1) * dx(R) * u_{N-1}^{j+1} is subtracted straight into
    the level below, one raised factor of R at a time; raising a u_{N-2} of
    R gives u_{N-1}^{j+2}.  Pure c*u_N terms come out as zero.  A reduction
    keeps the u-degree and divides by at most the largest u-degree d, so
    scaling by lcm(1..d)^(top index) once makes every division exact.
    """
    w, mask, base = pack.width, pack.mask, pack.base
    top = (max(nums, default=0).bit_length() - 1 - base) // w
    scale = lcm(*range(1, max(map(pack.degree, nums), default=0) + 1)) ** max(top, 0)
    levels: dict[int, IntTerms] = {}  # by the field shift of the top u_N
    for key, c in nums.items():
        s = key.bit_length() - 1
        levels.setdefault(s - (s - base) % w, {})[key] = c * scale
    rest: IntTerms = {}
    factors = pack.factors
    for s in range(base + top * w, base, -w):
        # key & below drops u_{N-1} and u_N, leaving R's fields for `factors`
        lower, below = levels.setdefault(s - w, {}), (1 << (s - w)) - 1
        for key, coef in levels.pop(s, {}).items():
            if not coef:
                continue
            if key >> s >= 2:  # u_N not linear: already normal
                rest[key] = coef
                continue
            p = key - (1 << s) + (1 << (s - w))  # R * u_{N-1}^{j+1}
            coef, r = divmod(coef, p >> (s - w) & mask)  # by j + 1
            if r:
                raise DiffAlgError("a term is not divisible by j + 1 in the scaled worklist")
            if antiderivative is not None:  # a new key: each level peels onto its own
                antiderivative[p] = coef
            for f, m in factors(key & below):  # raise each factor of R
                k = p + (1 << (f + w)) - (1 << f)
                lower[k] = lower.get(k, 0) - m * coef
    for level in levels.values():  # level 0 and the constants
        rest.update((k, c) for k, c in level.items() if c)
    return den * scale, rest


def poisson_bracket(h: DiffPoly, f: DiffPoly) -> DiffPoly:
    """{h, f} = int (delta h/delta u) d/dx (delta f/delta u) dx, in normal form."""
    h._check_ring(f)
    pack = DiffPoly._packing(h, f)
    (hden, hnums), (fden, fnums) = _scaled(h.terms, pack), _scaled(f.terms, pack)
    xf = _int_dx(_int_euler(fnums, pack), pack)  # the flow of f
    density = _int_product([(1, list(_int_euler(hnums, pack).items()), list(xf.items()))], pack)
    return _decoded(h.vars, *_reduce(hden * fden, density, pack), pack)


# -- Miura substitution ---------------------------------------------------------


def _derivative_series(cvars: tuple[VarSpec, ...], s: MultiSeries) -> DiffPoly:
    """sum_m s_m h^m e^m u_{2m} for a series sum_m s_m (h e)^m: the operator
    s(t) with t^2 read as h e d^2/dx^2, applied to u and truncated at the
    orders of cvars."""
    top = min(v.order for v in cvars)
    return DiffPoly._make(cvars, {(((2 * m, 1),), m, m): c for (m, _), c in s.terms.items()
                                  if m < top})


def miura_series(cvars: Iterable[VarSpec], G: int) -> DiffPoly:
    """The substitution series of the triangular change of dependent variable:
    the image reads w + sum_{g>=1} (-1)^g/(2^{2g}(2g+1)!) h^g e^g w_{2g}, that
    is sin(t/2)/(t/2) with t^2 read as h e d^2/dx^2, through h^G."""
    return _derivative_series(tuple(cvars), sinc_half_series(G))


def miura_inverse_series(cvars: Iterable[VarSpec], G: int) -> DiffPoly:
    """Compositional inverse of `miura_series` through h^G.

    The substitution is the linear operator S(t) at t^2 = h e d^2/dx^2, so
    its inverse is the reciprocal series 1/S read the same way.
    """
    return _derivative_series(tuple(cvars), inverse_series(sinc_half_series(G)))


# -- integration and reconstruction -----------------------------------------------


def integrate_x(q: DiffPoly) -> DiffPoly:
    """A differential polynomial phi with d/dx phi = q, when one exists.

    The antiderivative that `_reduce` peels off; q is in the image of d/dx
    exactly when nothing remains, and otherwise the greatest remaining
    monomial is named.
    """
    pack, den, nums = _encoded(q)
    phi: IntTerms = {}
    den, rest = _reduce(den, nums, pack, phi)
    if rest:
        flip = (1 << 2 * pack.width) - 1  # the h and e fields: smallest (h, e) first
        ue, a, b = pack.decode(max(rest, key=lambda k: k ^ flip))
        top, mult = ue[-1] if ue else (0, 0)
        name = f"{u_monomial_pretty(ue)} at h^{a} e^{b}"
        if top == 0:
            raise NotTotalDerivativeError(f"monomial {name} admits no x-antiderivative")
        raise NotTotalDerivativeError(
            f"leading monomial {name} has u_{top}^{mult}; input is not a total derivative"
        )
    return _decoded(q.vars, den, phi, pack)
