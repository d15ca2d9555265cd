"""Independent oracles, kept separate from the engine's code paths.

`bernoulli_at` re-derives Bernoulli numbers with the Akiyama-Tanigawa
triangle (a different algorithm from the engine's binomial recurrence).
`log_sinc_half_coeffs` is the closed form |B_2g|/(2g (2g)!) of the
coefficients of log((z/2)/sin(z/2)) from those Bernoulli numbers, the second
route to the engine's log of the sine series.
`one_point_oracle` expands ((t/2)/sin(t/2))^(k+1) by brute force: a
hand-coded power-series reciprocal (long division), integer powers by
convolution, and Vandermonde interpolation in k -- no exp/log anywhere.
`dimension_check` is the dimension constraint an intersection number must
meet to be nonzero.
`linear_term_reference` builds both sides of the linear-term identity label
by label from the S~ coefficients and the constants C_g, by explicit loops
over genus shifts where the engine multiplies series.
`exp_power_sum`, `log_power_sum` and `inverse_power_sum` are the plain
Taylor sums sum_n a^n / n!, sum_n (-1)^(n+1) (a-1)^n / n and
sum_n (1 - a/c)^n / c over full series products, a reference for the
engine's degree-by-degree recurrences; they take the series class from
their argument, because `perfbench/workloads.py` loads this file by path
without `ilwhodge` on the import path.  Those products run through the
engine's own integer product kernel, so `series_product_reference` is the
truncated product done pair by pair in `Fraction` arithmetic on plain
{exps: Fraction} maps, a reference for that kernel.
`normalize_reference` and `integrate_x_reference` are the integration-by-
parts normal form and the x-antiderivative by a full max-scan of the
worklist on every step, over plain {(u-exps, (h, e)): Fraction} maps; they
are the reference for the engine's versions on packed keys.
`multiply_reference` and `dx_reference` are the product (truncated at given
h and e orders) and the total x-derivative on the same plain maps, a
reference for the engine's flat differential-polynomial ring.
`variational_reference` is the naive Euler sum over k of (-d/dx)^k applied
to each partial derivative d/du_k, every power taken as k separate
x-derivatives, and `frechet_reference` the sum over k of d/du_k times the
k-th x-derivative, each product truncated; they are the reference for the
engine's one-pass partials and Horner evaluation on integer numerators;
`partial_reference` is the single d/du_k they are built from.
`solve_graded_reference` is the graded recurrence of the series operations,
weight(d) y_d = base_d + sum_{k>=1} left_k y_{d-k}, solved degree by degree
on plain {exps: Fraction} maps with `series_product_reference` for every
product.  These plain-tuple oracles are the reference for the engine's
kernels on packed integer keys.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


def bernoulli_at(n: int) -> Fraction:
    """Akiyama-Tanigawa value, adjusted to the B_1 = -1/2 convention."""
    a = [Fraction(0)] * (n + 1)
    b = Fraction(0)
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        b = a[0]
    return -b if n == 1 else b


def log_sinc_half_coeffs(g_max: int) -> dict[int, Fraction]:
    """{g: |B_2g| / (2g (2g)!)} for 1 <= g <= g_max: the coefficient of z^{2g}
    in log((z/2)/sin(z/2))."""
    return {g: abs(bernoulli_at(2 * g)) / (2 * g * factorial(2 * g)) for g in range(1, g_max + 1)}


def dimension_check(g: int, n: int, j: int, d: tuple[int, ...]) -> bool:
    """True iff 3g - 3 + n = j + sum(d) and the case is stable."""
    return 3 * g - 3 + n == j + sum(d) and 2 * g - 2 + n > 0


def sinc_half_coeffs(n: int) -> list[Fraction]:
    """Coefficients of t^0..t^n for sin(t/2)/(t/2)."""
    out = [Fraction(0)] * (n + 1)
    m = 0
    while 2 * m <= n:
        out[2 * m] = Fraction((-1) ** m, 4**m * factorial(2 * m + 1))
        m += 1
    return out


def series_reciprocal(s: list[Fraction]) -> list[Fraction]:
    """Long-division reciprocal of a series with s[0] = 1."""
    assert s[0] == 1
    n = len(s) - 1
    c = [Fraction(0)] * (n + 1)
    c[0] = Fraction(1)
    for k in range(1, n + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += s[i] * c[k - i]
        c[k] = -acc
    return c


def series_multiply(a: list[Fraction], b: list[Fraction], n: int) -> list[Fraction]:
    out = [Fraction(0)] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x == 0:
            continue
        for j, y in enumerate(b[: n + 1 - i]):
            out[i + j] += x * y
    return out


def _solve_vandermonde(points: list[int], values: list[Fraction]) -> list[Fraction]:
    """Solve sum_i a_i x^i = v(x) on the given sample points."""
    n = len(points)
    m = [[Fraction(p) ** i for i in range(n)] + [values[r]] for r, p in enumerate(points)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def one_point_oracle(g_max: int) -> dict[tuple[int, int], Fraction]:
    """Brute-force values of [t^{2g} k^i] ((t/2)/sin(t/2))^{k+1}.

    The t^{2g} coefficient of the (m+1)-st power is a degree-g polynomial in
    m; sampling m = 0..g and interpolating recovers the k-monomial
    coefficients.
    """
    n = 2 * g_max
    recip = series_reciprocal(sinc_half_coeffs(n))
    powers = [[Fraction(1)] + [Fraction(0)] * n]  # recip^0
    for _ in range(g_max + 1):
        powers.append(series_multiply(powers[-1], recip, n))
    out: dict[tuple[int, int], Fraction] = {}
    for g in range(1, g_max + 1):
        samples = [powers[m + 1][2 * g] for m in range(g + 1)]
        coeffs = _solve_vandermonde(list(range(g + 1)), samples)
        for i, c in enumerate(coeffs):
            out[(g, i)] = c
    return out


def linear_term_reference(s_tilde_terms: dict, cg, G: int) -> tuple[dict, dict]:
    """Both sides of the linear-term identity as {(a, b, 3a-b): Fraction} maps.

    Left: (2g+1) T~(g, j) at (g, j, 3g-j).  Right: T~(g, j) plus, for each
    g' >= 1, 2 C_{g'} T~(g'', j) at (g'+g'', g'+j-1, 3(g'+g'')-(g'+j-1)),
    up to total h-order G.  T~(g, j) is the coefficient of h^g e^j in S~.
    """
    def t_value(g: int, j: int) -> Fraction:
        if g < 0 or j < 0 or g > G or j > G:
            return Fraction(0)
        return s_tilde_terms.get((g, j), Fraction(0))

    left: dict[tuple[int, int, int], Fraction] = {}
    right: dict[tuple[int, int, int], Fraction] = {}
    for g in range(0, G + 1):
        for j in range(0, g + 1):
            v = t_value(g, j)
            if v == 0:
                continue
            key = (g, j, 3 * g - j)
            left[key] = left.get(key, Fraction(0)) + (2 * g + 1) * v
            right[key] = right.get(key, Fraction(0)) + v
    for gp in range(1, G + 1):
        two_c = 2 * cg(gp)
        for h in range(0, G - gp + 1):
            for j in range(0, h + 1):
                v = t_value(h, j)
                if v == 0:
                    continue
                a = gp + h
                b = gp + j - 1
                key = (a, b, 3 * a - b)
                right[key] = right.get(key, Fraction(0)) + two_c * v
    return left, right


def _power_sum(x, coeff):
    """sum_{n>=0} coeff(n) x^n for a nilpotent series x (zero constant term);
    the powers vanish once n exceeds the largest retained total degree."""
    acc = type(x).zero(x.vars)
    power = type(x).constant(x.vars, 1)
    n = 0
    while not power.is_zero():
        acc = acc + power * coeff(n)
        power = power * x
        n += 1
    return acc


def series_product_reference(a_terms: dict, b_terms: dict, bounds: tuple) -> dict:
    """Product of two {exps: Fraction} maps, dropping every exponent vector
    with a component at or past its bound and every coefficient that sums
    to zero."""
    out: dict = {}
    for ea, ca in a_terms.items():
        for eb, cb in b_terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if all(x < b for x, b in zip(e, bounds)):
                _add(out, e, ca * cb)
    return out


def exp_power_sum(a):
    assert a.constant_term == 0
    return _power_sum(a, lambda n: Fraction(1, factorial(n)))


def log_power_sum(a):
    assert a.constant_term == 1
    return _power_sum(a - 1, lambda n: Fraction((-1) ** (n + 1), n) if n else 0)


def inverse_power_sum(a):
    c = a.constant_term
    assert c != 0
    return _power_sum(1 - a * (1 / c), lambda n: 1 / c)


def _integration_key(ue: tuple) -> tuple:
    """Top derivative index first, then multiplicities from the top down."""
    if not ue:
        return (-1, ())
    top = ue[-1][0]
    dense = [0] * (top + 1)
    for k, m in ue:
        dense[k] = m
    return (top, tuple(reversed(dense)))


def _dx_monomial(ue: tuple) -> dict[tuple, int]:
    """d/dx of a bare u-monomial ((index, multiplicity), ...)."""
    out: dict[tuple, int] = {}
    for k, m in ue:
        d = dict(ue)
        if m == 1:
            del d[k]
        else:
            d[k] = m - 1
        d[k + 1] = d.get(k + 1, 0) + 1
        key = tuple(sorted(d.items()))
        out[key] = out.get(key, 0) + m
    return out


def _add(acc: dict, key, value) -> None:
    total = acc.get(key, 0) + value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def _greatest(work: dict) -> tuple:
    return max(work, key=lambda k: _integration_key(k[0]))


def normalize_reference(terms: dict) -> dict:
    """Normal form of int(sum c * u-monomial * h^a e^b) dx: a term with a
    linear strictly-top factor u_N reduces to -c/(j+1) dx(R) u_{N-1}^(j+1),
    where the monomial is R u_{N-1}^j u_N."""
    work = {k: Fraction(v) for k, v in terms.items() if v}
    out: dict = {}
    while work:
        ue, hexp = key = _greatest(work)
        coef = work.pop(key)
        if not ue or ue[-1][0] == 0 or ue[-1][1] >= 2:
            _add(out, key, coef)
            continue
        top = ue[-1][0]
        rest = dict(ue[:-1])
        j = rest.pop(top - 1, 0)
        for rk, m in _dx_monomial(tuple(sorted(rest.items()))).items():
            d = dict(rk)
            d[top - 1] = d.get(top - 1, 0) + j + 1
            _add(work, (tuple(sorted(d.items())), hexp), -coef * m / (j + 1))
    return out


def integrate_x_reference(terms: dict) -> dict:
    """phi with d/dx phi = the input, peeling the greatest term each step;
    ValueError when the input is not a total x-derivative."""
    work = {k: Fraction(v) for k, v in terms.items() if v}
    phi: dict = {}
    while work:
        ue, hexp = key = _greatest(work)
        coef = work[key]
        if not ue or ue[-1][0] == 0 or ue[-1][1] != 1:
            raise ValueError(f"{ue} at {hexp} admits no x-antiderivative")
        top = ue[-1][0]
        d = dict(ue[:-1])
        d[top - 1] = d.get(top - 1, 0) + 1
        pre = tuple(sorted(d.items()))
        c = coef / d[top - 1]
        _add(phi, (pre, hexp), c)
        # d/dx(pre) contains the greatest term itself, which cancels here
        for rk, m in _dx_monomial(pre).items():
            _add(work, (rk, hexp), -c * m)
    return phi


def multiply_reference(a: dict, b: dict, h_order: int, e_order: int) -> dict:
    """Product of two {(u-exps, (h, e)): c} maps, dropping every term whose
    h-exponent reaches h_order or whose e-exponent reaches e_order."""
    out: dict = {}
    for (ua, (ha, ea)), ca in a.items():
        for (ub, (hb, eb)), cb in b.items():
            if ha + hb >= h_order or ea + eb >= e_order:
                continue
            d = dict(ua)
            for k, m in ub:
                d[k] = d.get(k, 0) + m
            _add(out, (tuple(sorted(d.items())), (ha + hb, ea + eb)), ca * cb)
    return out


def dx_reference(terms: dict) -> dict:
    """Total x-derivative of a {(u-exps, (h, e)): c} map, monomial by monomial
    by the product rule."""
    out: dict = {}
    for (ue, hexp), c in terms.items():
        for rk, m in _dx_monomial(ue).items():
            _add(out, (rk, hexp), c * m)
    return out


def partial_reference(terms: dict, k: int) -> dict:
    """d/du_k of a {(u-exps, (h, e)): c} map."""
    out: dict = {}
    for (ue, hexp), c in terms.items():
        d = dict(ue)
        m = d.get(k, 0)
        if not m:
            continue
        if m == 1:
            del d[k]
        else:
            d[k] = m - 1
        _add(out, (tuple(sorted(d.items())), hexp), c * m)
    return out


def _top_index(terms: dict) -> int:
    return max((k for ue, _ in terms for k, _ in ue), default=-1)


def variational_reference(terms: dict) -> dict:
    """sum_k (-d/dx)^k d/du_k of a {(u-exps, (h, e)): c} map."""
    out: dict = {}
    for k in range(_top_index(terms) + 1):
        term = partial_reference(terms, k)
        for _ in range(k):
            term = dx_reference(term)
        for key, c in term.items():
            _add(out, key, (-1) ** k * c)
    return out


def frechet_reference(phi: dict, b: dict, h_order: int, e_order: int) -> dict:
    """sum_k (d phi/du_k) * (d^k b/dx^k), each product truncated at the given
    h and e orders."""
    out: dict = {}
    bk = dict(b)
    for k in range(_top_index(phi) + 1):
        if k:
            bk = dx_reference(bk)
        product = multiply_reference(partial_reference(phi, k), bk, h_order, e_order)
        for key, c in product.items():
            _add(out, key, c)
    return out


def solve_graded_reference(base: dict, left: dict, weight, bounds: tuple) -> dict:
    """{exps: Fraction} of the y with weight(d) * y_d = base_d + sum over k >= 1
    of left_k * y_{d-k} in every total degree d inside the box `bounds`."""
    y: dict = {}
    for d in range(sum(b - 1 for b in bounds) + 1):
        acc = {e: c for e, c in base.items() if sum(e) == d}
        lower = {e: c for e, c in y.items() if sum(e) < d}
        shifts = {e: c for e, c in left.items() if sum(e) >= 1}
        for e, c in series_product_reference(shifts, lower, bounds).items():
            if sum(e) == d:
                _add(acc, e, c)
        y.update({e: c / weight(d) for e, c in acc.items() if c})
    return y
