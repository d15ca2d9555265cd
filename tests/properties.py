"""Seeded randomized property suites, shared by module tests and acceptance.

Each checker runs `cases` independently generated instances from an
explicitly seeded `random.Random`, asserting an exact identity for each.
`he_group` reads one u-monomial's whole (h, e) coefficient for the unit tests,
`u_power` builds the one-term polynomial coef * u_index^mult, and
`random_diffpoly` draws the small polynomials that the suites check.
`miura_forward` and `miura_inverse` substitute the Miura series and its
inverse for u (`substitute_u`), for the round-trip checks only, and
`frechet_apply` is the Frechet derivative that the calculus checks apply.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from ilwhodge.diffalg import (
    DiffAlgError,
    DiffPoly,
    _decoded,
    _int_dx,
    _int_frechet,
    _int_partials,
    _Packing,
    _reduce,
    integrate_x,
    miura_inverse_series,
    miura_series,
    normalize,
    poisson_bracket,
    total_x_derivative,
    u_key,
    variational_derivative,
)
from ilwhodge.ilw import flow, h1, higher_hamiltonian
from ilwhodge.mpseries import (
    MultiSeries,
    Packing,
    VarSpec,
    _components,
    _grading,
    _int_product,
    _scaled,
    _solve_graded,
    _unscale,
    coeff_ring,
    divide_series,
    exp_series,
    inverse_series,
    log_series,
)
from oracles import (
    dx_reference,
    exp_power_sum,
    frechet_reference,
    integrate_x_reference,
    inverse_power_sum,
    log_power_sum,
    multiply_reference,
    normalize_reference,
    partial_reference,
    series_product_reference,
    solve_graded_reference,
    variational_reference,
)


def he_group(p: DiffPoly, ue) -> dict:
    """{(h-exponent, e-exponent): coefficient} of every term of p on the
    u-monomial ue; comparing the whole group also rules out extra terms."""
    key = u_key(ue)
    return {(a, b): c for (u, a, b), c in p.terms.items() if u == key}


def u_power(cvars: tuple[VarSpec, ...], index: int = 0, mult: int = 1,
            coef: int | Fraction = 1) -> DiffPoly:
    """coef * u_index^mult over the coefficient ring cvars."""
    return DiffPoly(cvars, {(u_key({index: mult}), 0, 0): coef})


def random_diffpoly(
    cvars: tuple[VarSpec, ...],
    rng: random.Random,
    max_index: int = 3,
    max_udeg: int = 3,
    max_terms: int = 3,
    with_params: bool = False,
) -> DiffPoly:
    """Small random differential polynomial for seeded property checks."""
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        exps: dict[int, int] = {}
        for _ in range(rng.randint(0, max_udeg)):
            k = rng.randint(0, max_index)
            exps[k] = exps.get(k, 0) + 1
        coef = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if coef == 0:
            coef = Fraction(1)
        a = b = 0
        if with_params:
            a, b = rng.randrange(cvars[0].order), rng.randrange(cvars[1].order)
        key = (u_key(exps), a, b)
        terms[key] = terms.get(key, 0) + coef
    return DiffPoly(cvars, terms)  # drops the sums that cancel


def random_series(rng: random.Random, vars: tuple[VarSpec, ...],
                  zero_constant: bool) -> MultiSeries:
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exps = tuple(rng.randrange(v.order) for v in vars)
        if zero_constant and all(x == 0 for x in exps):
            continue
        terms[exps] = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
    if zero_constant:
        terms.pop(tuple(0 for _ in vars), None)
    return MultiSeries(vars, terms)


def check_exp_log_inversion(cases: int, seed: int) -> int:
    rng = random.Random(seed)
    vars = (VarSpec("x", 5), VarSpec("y", 4))
    for _ in range(cases):
        a = random_series(rng, vars, zero_constant=True)
        assert log_series(exp_series(a)) == a
        b = random_series(rng, vars, zero_constant=True) + 1
        assert exp_series(log_series(b)) == b
    return cases


# uneven truncation boxes, including a variable that keeps only its constant
SERIES_BOXES = [
    (VarSpec("x", 5), VarSpec("y", 4)),
    (VarSpec("x", 1), VarSpec("y", 6)),
    (VarSpec("x", 3), VarSpec("y", 7), VarSpec("z", 2)),
]


def check_series_ops_against_power_sums(cases: int, seed: int) -> int:
    """exp, log, inverse and division against the power sums, on inputs that
    the graded solve splits by one variable's degree and on inputs that it
    splits by total degree."""
    rng = random.Random(seed)
    by_one = by_total = 0
    for _ in range(cases):
        vars = rng.choice(SERIES_BOXES)
        a = random_series(rng, vars, zero_constant=True)
        assert exp_series(a) == exp_power_sum(a)
        b = random_series(rng, vars, zero_constant=True) + 1
        assert log_series(b) == log_power_sum(b)
        c = b + random_series(rng, vars, zero_constant=True) + Fraction(rng.randint(-3, 3))
        if c.constant_term == 0:
            c = c + 1
        assert inverse_series(c) == inverse_power_sum(c)
        num = random_series(rng, vars, zero_constant=rng.random() < 0.5)
        assert divide_series(num, c) == num * inverse_power_sum(c)
        for s in (a, b, c):
            by_total += _grading(s) is sum
            by_one += _grading(s) is not sum
    assert by_one and by_total, "the solve was not graded both ways"
    return cases


# prime powers shared by the drawn denominators, so that their lcm stays far
# below their product and the kernel's common denominators are exercised
SHARED_DENOMINATORS = (1, 2**19, 3**12, 2**6 * 5**5, 7**7)


def _big_terms(rng: random.Random, vars: tuple[VarSpec, ...]) -> dict:
    """Up to six terms with numerators up to 10^9 in size over denominators
    up to 10^12; about one term in ten is an integer."""
    return {
        tuple(rng.randrange(v.order) for v in vars): Fraction(
            rng.choice((-1, 1)) * rng.randint(1, 10**9),
            rng.choice((1, rng.randint(1, 10**6))) * rng.choice(SHARED_DENOMINATORS),
        )
        for _ in range(rng.randint(1, 6))
    }


def check_series_kernel_against_reference(cases: int, seed: int) -> int:
    rng = random.Random(seed)
    cancelled = truncated = integral = 0
    for n in range(cases):
        vars = SERIES_BOXES[n % len(SERIES_BOXES)]
        bounds = tuple(v.order for v in vars)
        a = MultiSeries(vars, _big_terms(rng, vars))
        b = MultiSeries(vars, _big_terms(rng, vars))
        if n % 2:  # (a + b)(a - b): the cross terms ab and -ba cancel
            a, b = a + b, a - b
        expected = series_product_reference(a.terms, b.terms, bounds)
        got = a * b
        assert got.terms == expected
        for e, c in got.terms.items():
            assert type(c) is Fraction and c != 0
            assert all(0 <= x < bound for x, bound in zip(e, bounds))
            integral += c.denominator == 1
        sums = {tuple(x + y for x, y in zip(ea, eb)) for ea in a.terms for eb in b.terms}
        inside = {e for e in sums if all(x < bound for x, bound in zip(e, bounds))}
        truncated += inside != sums
        cancelled += len(inside) != len(expected)
        # division by a series whose constant term is a negative non-integer
        den = _big_terms(rng, vars)
        den[(0,) * len(vars)] = -(rng.randint(0, 1000) + Fraction(3, 7))
        c = MultiSeries(vars, den)
        num = MultiSeries(vars, _big_terms(rng, vars))
        assert divide_series(num, c) * c == num
    assert truncated, "no product was truncated"
    assert cancelled, "no product coefficient cancelled to zero"
    assert integral, "no product coefficient was an integer"
    return cases


def check_euler_kills_dx(cases: int, seed: int) -> int:
    rng = random.Random(seed)
    cvars = coeff_ring(2)
    for _ in range(cases):
        p = random_diffpoly(cvars, rng, with_params=rng.random() < 0.5)
        assert not variational_derivative(total_x_derivative(p))
    return cases


def check_dx_derivation(cases: int, seed: int) -> int:
    rng = random.Random(seed)
    cvars = coeff_ring(2)
    for _ in range(cases):
        p = random_diffpoly(cvars, rng, with_params=rng.random() < 0.5)
        q = random_diffpoly(cvars, rng, with_params=rng.random() < 0.5)
        lhs = total_x_derivative(p * q)
        rhs = total_x_derivative(p) * q + p * total_x_derivative(q)
        assert lhs == rhs
    return cases


def check_bracket_antisymmetry_jacobi(cases: int, seed: int) -> int:
    rng = random.Random(seed)
    cvars = coeff_ring(1)
    for _ in range(cases):
        h = normalize(random_diffpoly(cvars, rng, max_index=2, max_udeg=3, max_terms=2))
        f = normalize(random_diffpoly(cvars, rng, max_index=2, max_udeg=3, max_terms=2))
        g = normalize(random_diffpoly(cvars, rng, max_index=1, max_udeg=3, max_terms=2))
        hf, fg, gh = poisson_bracket(h, f), poisson_bracket(f, g), poisson_bracket(g, h)
        assert not (hf + poisson_bracket(f, h))
        jacobi = [poisson_bracket(h, fg), poisson_bracket(f, gh), poisson_bracket(g, hf)]
        assert not sum(jacobi, DiffPoly.zero(cvars))
        # a bracket is returned in normal form
        for bracket in (hf, fg, gh, *jacobi):
            assert normalize(bracket) == bracket
    return cases


def substitute_u(p: DiffPoly, image: DiffPoly) -> DiffPoly:
    """Replace the dependent variable: u_k goes to d^k/dx^k (image)."""
    p._check_ring(image)
    images = [image]
    for _ in range(max((ue[-1][0] for ue, _, _ in p.terms if ue), default=0)):
        images.append(total_x_derivative(images[-1]))
    out = DiffPoly.zero(p.vars)
    for (ue, a, b), coef in p.terms.items():
        term = DiffPoly(p.vars, {((), a, b): coef})
        for k, m in ue:
            for _ in range(m):
                term = term * images[k]
        out = out + term
    return out


def miura_forward(p: DiffPoly, G: int) -> DiffPoly:
    """Substitute the triangular series `miura_series` for the dependent
    variable (rewrites an expression against the transformed variable)."""
    return substitute_u(p, miura_series(p.vars, G))


def miura_inverse(p: DiffPoly, G: int) -> DiffPoly:
    """Substitute the compositional inverse series; round-trips with
    `miura_forward` up to h^G."""
    return substitute_u(p, miura_inverse_series(p.vars, G))


def check_miura_roundtrip(cases: int, seed: int, G: int = 4) -> int:
    rng = random.Random(seed)
    cvars = coeff_ring(G)
    for _ in range(cases):
        p = random_diffpoly(cvars, rng, max_index=2, max_udeg=2, max_terms=2,
                            with_params=rng.random() < 0.3)
        assert miura_inverse(miura_forward(p, G), G) == p
        assert miura_forward(miura_inverse(p, G), G) == p
    return cases


def check_normalize_idempotent(cases: int, seed: int) -> int:
    rng = random.Random(seed)
    cvars = coeff_ring(2)
    for _ in range(cases):
        p = random_diffpoly(cvars, rng, with_params=rng.random() < 0.5)
        nf = normalize(p)
        assert normalize(nf) == nf
        # class preservation: the Euler derivative cannot see the reduction
        assert variational_derivative(nf) == variational_derivative(p)
    return cases


def check_hamiltonians_in_normal_form(cases: int, seed: int) -> int:
    """h1 at drawn orders and drawn constants c_g, and h_i (i = 2..4) at
    drawn orders, each returned in normal form."""
    rng = random.Random(seed)
    for _ in range(cases):
        G = rng.randint(0, 6)
        cg = {g: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for g in range(1, G + 1)}
        ham = h1(G, cg.__getitem__)
        assert normalize(ham) == ham
        ham = higher_hamiltonian(rng.randint(2, 4), rng.randint(0, 4))
        assert normalize(ham) == ham
    return cases


def _flat(p: DiffPoly) -> dict:
    """{(u-exps, (h, e)): Fraction}, the form the reference oracles take."""
    return {(ue, (a, b)): c for (ue, a, b), c in p.terms.items()}


def _integrate_or_error(integrate, p):
    try:
        return integrate(p)
    except ValueError:
        return "no antiderivative"


# the two shapes of a peeled R * u_{N-1}^{j+1} that every seeded reduction
# suite must meet: raising a u_{N-2} of R gives u_{N-1}^{j+2}, and j >= 1
PEEL_SHAPES = {"R holds u_{N-2}", "j >= 1"}


def _top_peels(flat: dict) -> set[str]:
    """The `PEEL_SHAPES` among the monomials R * u_{N-1}^j * u_N, u_N linear,
    on the top level N >= 1 of a {(u-exps, (h, e)): c} map: nothing lands on
    that level, so a reduction peels each of them as given."""
    top = max((ue[-1][0] for ue, _ in flat if ue), default=0)
    shapes = set()
    for ue, _ in flat:
        if top and ue and ue[-1] == (top, 1):
            exps = dict(ue)
            if top - 2 in exps:
                shapes.add("R holds u_{N-2}")
            if top - 1 in exps:
                shapes.add("j >= 1")
    return shapes


def check_normalize_against_reference(cases: int, seed: int) -> int:
    """`normalize` and `integrate_x` against the max-scan references, on
    cases that peel both `PEEL_SHAPES`, in the normal form and in the
    antiderivative."""
    rng = random.Random(seed)
    cvars = coeff_ring(2)
    normal_peels, integral_peels = set(), set()
    for n in range(cases):
        p = random_diffpoly(cvars, rng, max_index=6, max_udeg=4, with_params=n % 2 == 1)
        assert _flat(normalize(p)) == normalize_reference(_flat(p))
        q = total_x_derivative(p)
        assert _flat(integrate_x(q)) == integrate_x_reference(_flat(q))
        # on a density that is usually not a total derivative both must agree
        # on whether an antiderivative exists, and on it when it does
        got = _integrate_or_error(lambda x: _flat(integrate_x(x)), p)
        assert got == _integrate_or_error(integrate_x_reference, _flat(p))
        normal_peels |= _top_peels(_flat(p))
        integral_peels |= _top_peels(_flat(q))
    assert normal_peels == PEEL_SHAPES, f"no normal form peeled {PEEL_SHAPES - normal_peels}"
    assert integral_peels == PEEL_SHAPES, f"no antiderivative peeled {PEEL_SHAPES - integral_peels}"
    return cases


def frechet_apply(phi: DiffPoly, b: DiffPoly) -> DiffPoly:
    """Frechet derivative of phi applied to b: sum_k (dphi/du_k) d^k/dx^k b."""
    phi._check_ring(b)
    pack = DiffPoly._packing(phi, b)
    (dphi, nphi), (db, nb) = _scaled(phi.terms, pack), _scaled(b.terms, pack)
    return _decoded(phi.vars, dphi * db, _int_frechet(nphi, [list(nb.items())], pack), pack)


def check_shared_derivative_list(cases: int, seed: int) -> int:
    """One list [b, b_x, ...] passed to four successive `_int_frechet` calls
    whose top derivative index goes up, then down, then up again, as the
    steps of a Hamiltonian build share the derivatives of flow(h_1): each
    sum equals `frechet_reference`, the list grows only to the deepest index
    asked for so far, and afterwards entry k of it is still d^k b."""
    rng = random.Random(seed)
    cvars = coeff_ring(3)
    h_order, e_order = (v.order for v in cvars)
    pack = _Packing(cvars, 7)  # phi of u-degree up to 4 times b of up to 3
    for _ in range(cases):
        b = random_diffpoly(cvars, rng, max_udeg=3, with_params=rng.random() < 0.5)
        db, nb = _scaled(b.terms, pack)
        derivs = [list(nb.items())]
        first = rng.randint(0, 2)
        second = rng.randint(first + 1, 4)
        tops = (first, second, rng.randint(0, second - 1), rng.randint(second + 1, 6))
        for n, top in enumerate(tops):
            # a factor u_top makes top the phi's top derivative index; a draw
            # whose terms all cancel has none
            phi = DiffPoly.zero(cvars)
            while not phi:
                phi = random_diffpoly(cvars, rng, max_index=top) * u_power(cvars, top)
            dphi, nphi = _scaled(phi.terms, pack)
            assert (_flat_packed(dphi * db, _int_frechet(nphi, derivs, pack), pack)
                    == frechet_reference(_flat(phi), _flat(b), h_order, e_order))
            assert len(derivs) == max(tops[:n + 1]) + 1
        bk = _flat(b)
        for k, entry in enumerate(derivs):
            assert _flat_packed(db, dict(entry), pack) == bk
            bk = dx_reference(bk)
    return cases


def check_frechet_pairing_by_parts(cases: int, seed: int) -> int:
    """int sum_k (dg/du_k) d^k/dx^k X dx = int (delta g/delta u) X dx, by
    parts: why the normal form of a recursion step's Frechet sum vanishes
    exactly when the bracket {int g, h_1} does, with X the flow of h_1."""
    rng = random.Random(seed)
    nonzero = 0
    for _ in range(cases):
        cvars = coeff_ring(rng.randint(2, 4))
        g = random_diffpoly(cvars, rng, max_index=4, with_params=rng.random() < 0.5)
        x = random_diffpoly(cvars, rng, max_udeg=2, with_params=rng.random() < 0.5)
        pairing = normalize(frechet_apply(g, x))
        assert pairing == normalize(variational_derivative(g) * x)
        nonzero += bool(pairing)
    assert nonzero, "every pairing was zero"
    return cases


# coefficient rings for the flat product: the square box the engine uses and
# an uneven one where products of random terms are often truncated
RING_BOXES = [coeff_ring(2), (VarSpec("h", 3), VarSpec("e", 2))]


def check_diffpoly_ring_against_reference(cases: int, seed: int) -> int:
    rng = random.Random(seed)
    truncated = 0
    for n in range(cases):
        cvars = RING_BOXES[n % 2]
        p = random_diffpoly(cvars, rng, with_params=True)
        q = random_diffpoly(cvars, rng, with_params=True)
        h_order, e_order = (v.order for v in cvars)
        expected = multiply_reference(_flat(p), _flat(q), h_order, e_order)
        assert _flat(p * q) == expected
        truncated += expected != multiply_reference(_flat(p), _flat(q), 2 * h_order, 2 * e_order)
        assert _flat(total_x_derivative(p)) == dx_reference(_flat(p))
    assert truncated, "no product was truncated"
    return cases


def _big_diffpoly(rng: random.Random, cvars: tuple[VarSpec, ...],
                  max_udeg: int, max_index: int) -> DiffPoly:
    """Up to three terms at random (h, e) exponents, with the coefficients of
    `_big_terms`; the indices of a monomial are drawn from a window of three,
    so factors repeat and sit next to each other."""
    terms: dict = {}
    for _ in range(rng.randint(1, 3)):
        ue: dict[int, int] = {}
        low = rng.randint(0, max(0, max_index - 2))
        for _ in range(rng.randint(0, max_udeg)):
            k = rng.randint(low, min(low + 2, max_index))
            ue[k] = ue.get(k, 0) + 1
        key = (tuple(sorted(ue.items())), rng.randrange(cvars[0].order),
               rng.randrange(cvars[1].order))
        terms[key] = Fraction(
            rng.choice((-1, 1)) * rng.randint(1, 10**9),
            rng.choice((1, rng.randint(1, 10**6))) * rng.choice(SHARED_DENOMINATORS),
        )
    return DiffPoly._make(cvars, terms)


def check_calculus_kernel_against_reference(cases: int, seed: int) -> int:
    """Euler operator, flow, Frechet derivative, product, normal form and
    x-antiderivative on integer numerators, each against its plain-Fraction
    reference.  p has u-degree up to 6 and top index up to 8; q, the second
    factor and the Frechet direction, has both up to 3."""
    rng = random.Random(seed)
    truncated = repeated = reduced = 0
    for n in range(cases):
        cvars = RING_BOXES[n % 2]
        h_order, e_order = (v.order for v in cvars)
        p, q = _big_diffpoly(rng, cvars, 6, 8), _big_diffpoly(rng, cvars, 3, 3)
        fp, fq = _flat(p), _flat(q)
        assert _flat(variational_derivative(p)) == variational_reference(fp)
        assert _flat(flow(p)) == dx_reference(variational_reference(fp))
        assert _flat(frechet_apply(p, q)) == frechet_reference(fp, fq, h_order, e_order)
        product = multiply_reference(fp, fq, h_order, e_order)
        assert _flat(p * q) == product
        truncated += product != multiply_reference(fp, fq, 2 * h_order, 2 * e_order)
        assert _flat(normalize(p)) == normalize_reference(fp)
        dp = total_x_derivative(p)
        assert _flat(integrate_x(dp)) == integrate_x_reference(_flat(dp))
        assert (_integrate_or_error(lambda x: _flat(integrate_x(x)), p)
                == _integrate_or_error(integrate_x_reference, fp))
        repeated += any(m > 1 for ue in p.terms for _, m in ue[0])
        # a term c*R*u_{N-1}^j*u_N with j >= 1 divides by j + 1 >= 2 when reduced
        reduced += any(len(ue) > 1 and ue[-1][1] == 1 and ue[-2][0] == ue[-1][0] - 1
                       for ue, _, _ in p.terms)
    assert truncated, "no product was truncated"
    assert repeated, "no input had a repeated factor"
    assert reduced, "no input term divided by j + 1 >= 2 in the normal form"
    return cases


# A ring and a u-degree bound that fill 4-bit packed fields exactly: h^7, e^7
# and a u-degree of 7 are the largest values a field holds, and a series
# exponent up to 15 fills the 5-bit fields of the box (8, 3, 16).
WIDTH_RING, WIDTH_TOP = coeff_ring(7), 7
WIDTH_BOX = (VarSpec("x", 8), VarSpec("y", 3), VarSpec("z", 16))


def _wide_diffpoly(rng: random.Random, degree: int) -> DiffPoly:
    """Up to four terms of u-degree `degree` (or less), often one factor taking
    the whole degree, at (h, e) exponents that are often the largest kept."""
    terms: dict = {}
    for _ in range(rng.randint(1, 4)):
        ue: dict[int, int] = {}
        k0 = rng.randint(0, 5)
        for _ in range(rng.choice((degree, rng.randint(0, degree)))):
            k = k0 if rng.random() < 0.6 else rng.randint(0, 5)
            ue[k] = ue.get(k, 0) + 1
        a, b = (rng.choice((0, v.order - 1, rng.randrange(v.order))) for v in WIDTH_RING)
        terms[(tuple(sorted(ue.items())), a, b)] = Fraction(rng.randint(1, 9), rng.randint(1, 6))
    return DiffPoly(WIDTH_RING, terms)


def _flat_packed(den: int, nums: dict, pack) -> dict:
    """`_flat` of packed numerators over den."""
    return {(ue, (a, b)): c for (ue, a, b), c in _unscale(nums, den, pack).items()}


def check_packed_kernels_at_field_width(cases: int, seed: int) -> int:
    """The packed product, d/dx, partials, normal form, x-antiderivative and
    graded solve against the plain-tuple references, and the key reads
    `_Packing.h` and `degree` against `decode`, with every field at its
    width limit somewhere: multiplicities and u-degrees up to 7 and h, e
    exponents up to 7 in 4-bit fields, series exponents up to 15 in 5-bit
    ones, and products one step past the h or e order."""
    rng = random.Random(seed)
    pack = _Packing(WIDTH_RING, WIDTH_TOP)
    series_pack = Packing(tuple(v.order for v in WIDTH_BOX))
    assert (pack.width, series_pack.width) == (4, 5)
    h_order, e_order = (v.order for v in WIDTH_RING)
    full = past = 0
    widest = (0, 0)  # the largest h exponent and u-degree read off a key
    normal_peels, integral_peels = set(), set()
    for n in range(cases):
        d = rng.randint(0, WIDTH_TOP)
        p, q = _wide_diffpoly(rng, d), _wide_diffpoly(rng, WIDTH_TOP - d)
        fp, fq = _flat(p), _flat(q)
        normal_peels |= _top_peels(fp)
        integral_peels |= _top_peels(dx_reference(fp))
        (dp, np), (dq, nq) = _scaled(p.terms, pack), _scaled(q.terms, pack)
        for key in (*np, *nq):  # the field reads agree with decode
            ue, a, _ = pack.decode(key)
            assert (pack.h(key), pack.degree(key)) == (a, _degree(ue))
            widest = (max(widest[0], a), max(widest[1], _degree(ue)))
        product = _int_product([(1, list(np.items()), list(nq.items()))], pack)
        assert (_flat_packed(dp * dq, product, pack)
                == multiply_reference(fp, fq, h_order, e_order))
        assert _flat_packed(dp, _int_dx(np, pack), pack) == dx_reference(fp)
        parts = _int_partials(np, pack)
        for k in range(7):
            assert (_flat_packed(dp, parts.get(pack.base + k * pack.width, {}), pack)
                    == partial_reference(fp, k))
        assert _flat_packed(*_reduce(dp, np, pack), pack) == normalize_reference(fp)
        phi: dict = {}
        den, rest = _reduce(dp, _int_dx(np, pack), pack, phi)
        assert not rest and _flat_packed(den, phi, pack) == integrate_x_reference(dx_reference(fp))
        # the same terms in reversed insertion order reduce to the same result
        backward = dict(reversed(np.items()))
        assert _reduce(dp, backward, pack) == _reduce(dp, np, pack)
        phi_back: dict = {}
        assert _reduce(dp, _int_dx(backward, pack), pack, phi_back) == (den, rest)
        assert phi_back == phi
        full += any(sum(m for _, m in ua + ub) == WIDTH_TOP for ua, _, _ in p.terms
                    for ub, _, _ in q.terms)
        past += any(a1 + a2 == h_order or b1 + b2 == e_order
                    for _, a1, b1 in p.terms for _, a2, b2 in q.terms)
        # the graded solve, with a weight of either sign, on the series box
        base = MultiSeries(WIDTH_BOX, _big_terms(rng, WIDTH_BOX))
        left = MultiSeries(WIDTH_BOX, _big_terms(rng, WIDTH_BOX))
        sign = -1 if n % 2 else 1
        got = _solve_graded(_components(base), _components(-left), lambda d: sign * (d + 2))
        bounds = tuple(v.order for v in WIDTH_BOX)
        assert got.terms == solve_graded_reference(base.terms, left.terms,
                                                   lambda d: sign * (d + 2), bounds)
    assert full, "no product filled the u-degree field"
    assert past, "no product went one step past the h or e order"
    assert widest == (h_order - 1, WIDTH_TOP), f"no key filled the h or u-degree field: {widest}"
    assert normal_peels == PEEL_SHAPES, f"no normal form peeled {PEEL_SHAPES - normal_peels}"
    assert integral_peels == PEEL_SHAPES, f"no antiderivative peeled {PEEL_SHAPES - integral_peels}"
    return cases


def _degree(ue) -> int:
    return sum(m for _, m in ue)


def _pairs(p: DiffPoly, pack) -> tuple[int, list]:
    """(den, [(packed key, numerator), ...]) of p, the factor form of `_int_product`."""
    den, nums = _scaled(p.terms, pack)
    return den, list(nums.items())


def check_one_pair_loop_at_field_width(cases: int, seed: int) -> int:
    """`_int_product` over several products at once, against the sum of
    their `multiply_reference` products, and `_int_frechet`, which sums its
    products in one such call, against `frechet_reference`, both with every
    u-degree, h and e field at its width limit somewhere.  Each call has
    products of distinct scales (one negative), a shorter first and a
    shorter second factor, an empty factor, and in one case of four a
    product past the field width after the first, which must raise."""
    rng = random.Random(seed)
    pack = _Packing(WIDTH_RING, WIDTH_TOP)
    h_order, e_order = (v.order for v in WIDTH_RING)
    shorter, full, raised = set(), [0, 0], 0
    for n in range(cases):
        factors = []
        for _ in range(2):
            d = rng.randint(0, WIDTH_TOP)
            factors.append((_wide_diffpoly(rng, d), _wide_diffpoly(rng, WIDTH_TOP - d)))
        # the first product passes its shorter factor first, the second last
        factors = [sorted(f, key=lambda x: len(x.terms) * sign)
                   for f, sign in zip(factors, (1, -1))]
        factors.append((DiffPoly.zero(WIDTH_RING), factors[0][0]))
        weights = (rng.randint(1, 5), -rng.randint(1, 5), rng.randint(1, 5))
        scaled = [(_pairs(a, pack), _pairs(b, pack)) for a, b in factors]
        den = lcm(*[da * db for (da, _), (db, _) in scaled])
        products = [(den // (da * db) * m, na, nb)
                    for m, ((da, na), (db, nb)) in zip(weights, scaled)]
        assert len({scale for scale, _, _ in products[:2]}) == 2
        expected: dict = {}
        for m, (a, b) in zip(weights, factors):
            for key, c in multiply_reference(_flat(a), _flat(b), h_order, e_order).items():
                expected[key] = expected.get(key, 0) + m * c
        expected = {key: c for key, c in expected.items() if c}
        assert _flat_packed(den, _int_product(products, pack), pack) == expected
        for _, na, nb in products[:2]:
            shorter.add("first" if len(na) < len(nb) else "second" if len(na) > len(nb) else "")
        full[0] += any(_degree(ua) + _degree(ub) == WIDTH_TOP for a, b in factors[:2]
                       for ua, _, _ in a.terms for ub, _, _ in b.terms)
        if n % 4 == 3:  # u^4 * u^4 needs a u-degree of 8 in fields that hold 7
            wide = _pairs(DiffPoly(WIDTH_RING, {(((0, 4),), 0, 0): 1}), pack)[1]
            try:
                _int_product(products + [(1, wide, wide)], pack)
            except DiffAlgError as exc:
                raised += "exceeds the 4-bit packed fields" in str(exc)
        # the Frechet sum: (dphi/du_k) has u-degree one below phi's
        d = rng.randint(0, WIDTH_TOP - 1)
        phi, b = _wide_diffpoly(rng, d + 1), _wide_diffpoly(rng, WIDTH_TOP - d)
        (dphi, nphi), (db, nb) = _scaled(phi.terms, pack), _scaled(b.terms, pack)
        assert (_flat_packed(dphi * db, _int_frechet(nphi, [list(nb.items())], pack), pack)
                == frechet_reference(_flat(phi), _flat(b), h_order, e_order))
        full[1] += any(_degree(ua) - 1 + _degree(ub) == WIDTH_TOP
                       for ua, _, _ in phi.terms for ub, _, _ in b.terms)
    assert {"first", "second"} <= shorter, "no product had each factor as the shorter one"
    assert all(full), "no product or Frechet term filled the u-degree field"
    assert raised == cases // 4, "a product past the field width did not raise"
    return cases


# boxes of one, two and three variables, and the 5-bit fields of WIDTH_BOX;
# weights of either sign, integral and fractional, one of them constant as
# in a division
GRADED_BOXES = [
    (VarSpec("x", 12),),
    (VarSpec("x", 6), VarSpec("y", 5)),
    (VarSpec("x", 3), VarSpec("y", 4), VarSpec("z", 3)),
    WIDTH_BOX,
]
GRADED_WEIGHTS = [
    lambda d: d + 1,
    lambda d: -(d + 2),
    lambda d: Fraction(2 * d + 1, 3),
    lambda d: Fraction(-5, 7),
]


def check_graded_solve_against_reference(cases: int, seed: int) -> int:
    """The graded solve, one integer accumulation per degree slice, against
    `solve_graded_reference`.  Every other case solves for a drawn target y:
    its base is weight(d) y_d minus the slice's products, so each degree
    where y is 0 but the products are not is a slice that cancels to zero.
    Left factors are sparse, so many of their components are empty, and one
    case in eight has no left factor at all."""
    rng = random.Random(seed)
    cancelled = empty_left = 0
    for n in range(cases):
        vars = GRADED_BOXES[n % len(GRADED_BOXES)]
        weight = GRADED_WEIGHTS[n // len(GRADED_BOXES) % len(GRADED_WEIGHTS)]
        bounds = tuple(v.order for v in vars)
        left = MultiSeries(vars, {} if n % 8 == 7 else _big_terms(rng, vars))
        shifts = {e: c for e, c in left.terms.items() if sum(e)}
        target = None
        if n % 2:
            target = _big_terms(rng, vars)
            products = series_product_reference(shifts, target, bounds)
            base = {e: weight(sum(e)) * target.get(e, 0) - products.get(e, 0)
                    for e in target.keys() | products.keys()}
            degrees = {sum(e) for e in target}
            cancelled += any(sum(e) not in degrees for e in products)
        else:
            base = _big_terms(rng, vars)
        base = MultiSeries(vars, base)
        got = _solve_graded(_components(base), _components(-left), weight)
        assert got.terms == solve_graded_reference(base.terms, left.terms, weight, bounds)
        if target is not None:
            assert got.terms == target
        for c in got.terms.values():
            assert type(c) is Fraction and c != 0
        empty_left += len({sum(e) for e in shifts}) < sum(b - 1 for b in bounds)
    assert cancelled, "no degree slice cancelled to zero"
    assert empty_left, "every left component was nonempty"
    return cases


ALL_SUITES = [
    ("exp/log inversion", check_exp_log_inversion),
    ("series ops vs power sums", check_series_ops_against_power_sums),
    ("series kernel vs reference", check_series_kernel_against_reference),
    ("Euler kills d/dx", check_euler_kills_dx),
    ("d/dx derivation rule", check_dx_derivation),
    ("bracket antisymmetry + Jacobi", check_bracket_antisymmetry_jacobi),
    ("Miura roundtrip", check_miura_roundtrip),
    ("normalize idempotence", check_normalize_idempotent),
    ("Hamiltonians in normal form", check_hamiltonians_in_normal_form),
    ("Frechet pairing by parts", check_frechet_pairing_by_parts),
    ("Frechet sums on one derivative list", check_shared_derivative_list),
    ("normal form vs max-scan reference", check_normalize_against_reference),
    ("flat ring vs reference", check_diffpoly_ring_against_reference),
    ("calculus kernel vs reference", check_calculus_kernel_against_reference),
    ("packed kernels at the field width", check_packed_kernels_at_field_width),
    ("graded solve vs reference", check_graded_solve_against_reference),
    ("one pair loop at the field width", check_one_pair_loop_at_field_width),
]
