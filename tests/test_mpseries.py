from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ilwhodge.diffalg import DiffAlgError, DiffPoly, coeff_ring
from ilwhodge.mpseries import (
    MultiSeries,
    Packing,
    SeriesError,
    VarSpec,
    _components,
    _grading,
    _int_product,
    divide_series,
    exp_series,
    inverse_series,
    log_series,
    sinc_half_series,
    substitute_square,
)
from oracles import exp_power_sum, inverse_power_sum, log_power_sum, log_sinc_half_coeffs
from properties import (
    check_exp_log_inversion,
    check_graded_solve_against_reference,
    check_series_kernel_against_reference,
    check_series_ops_against_power_sums,
    random_series,
)

T3 = (VarSpec("t", 3),)
T6 = (VarSpec("t", 6),)
HE = (VarSpec("h", 4), VarSpec("e", 4))


def series(vars, terms):
    return MultiSeries(vars, {k: Fraction(*v) if isinstance(v, tuple) else Fraction(v) for k, v in terms.items()})


def test_packed_product_past_the_field_width_raises():
    # the untruncated field above two 4-bit exponent fields holds at most 7
    pack = Packing((8, 8), 7)
    assert pack.width == 4
    assert _int_product([(1, [(4 << 8, 1)], [(3 << 8, 1)])], pack) == {7 << 8: 1}
    with pytest.raises(SeriesError, match="exceeds the 4-bit packed fields"):
        _int_product([(1, [(4 << 8, 1)], [(4 << 8, 1)])], pack)


def test_packed_product_truncates_one_step_past_the_order():
    # x^7 in a 4-bit field of order 8 is kept; x^8 sets the guard bit
    pack = Packing((8, 3))
    assert _int_product([(1, [(7, 2)], [(0, 3), (1, 5)])], pack) == {7: 6}
    a = MultiSeries((VarSpec("x", 8), VarSpec("y", 3)), {(7, 2): 2, (1, 0): 1})
    assert a * a == MultiSeries(a.vars, {(2, 0): 1})


def test_mul_truncation():
    a = series(T3, {(0,): 1, (1,): 1})
    b = series(T3, {(0,): 1, (1,): -1})
    assert a * b == series(T3, {(0,): 1, (2,): -1})


def test_additive_identity():
    a = series(T3, {(1,): (1, 2)})
    assert a + MultiSeries.zero(T3) == a


def test_square_hand_expansion():
    a = series(T3, {(0,): 1, (1,): 1, (2,): (1, 2)})
    assert a * a == series(T3, {(0,): 1, (1,): 2, (2,): 2})


def test_mul_requires_matching_vars():
    a = series(T3, {(0,): 1})
    b = series(T6, {(0,): 1})
    with pytest.raises(SeriesError):
        a * b


def test_varspec_rejects_an_empty_name_and_a_negative_order():
    with pytest.raises(SeriesError, match="^variable name must be non-empty$"):
        VarSpec("", 1)
    with pytest.raises(SeriesError, match="^truncation order must be >= 0, got -1$"):
        VarSpec("x", -1)


def test_rings_built_apart_are_equal_and_hash_equal():
    # ring checks compare tuples of VarSpec, so two separate coeff_ring(G)
    # calls must give the same ring
    a, b = coeff_ring(3), coeff_ring(3)
    assert a[0] is not b[0]
    assert a == b and hash(a) == hash(b)
    assert a != coeff_ring(2) and VarSpec("h", 4) != VarSpec("e", 4)
    assert len({a, b, coeff_ring(2)}) == 2
    assert DiffPoly.constant(a, 1) + DiffPoly.constant(b, 2) == DiffPoly.constant(a, 3)


def test_constructor_rejects_out_of_range():
    with pytest.raises(SeriesError):
        MultiSeries(T3, {(3,): Fraction(1)})
    with pytest.raises(SeriesError):
        MultiSeries(T3, {(-1,): Fraction(1)})


def test_constructor_checks_the_key_of_a_zero_coefficient():
    # a zero coefficient is dropped only after its exponent is checked
    for exps in ((5,), (-1,)):
        with pytest.raises(SeriesError):
            MultiSeries((VarSpec("x", 2),), {exps: 0})


def test_non_integer_exponents_are_rejected():
    # int() would truncate 1.5 to 1 and silently read the coefficient of t
    with pytest.raises(SeriesError, match="exponents must be integers"):
        MultiSeries(T3, {(1.5,): 1})
    a = series(T3, {(1,): 5})
    with pytest.raises(SeriesError, match="exponents must be integers"):
        a.coefficient((1.7,))
    assert a.coefficient((1,)) == 5


def test_exp_of_zero():
    assert exp_series(MultiSeries.zero(T6)) == MultiSeries.constant(T6, 1)


def test_log_exp_t():
    t = MultiSeries(T6, {(1,): 1})
    assert log_series(exp_series(t)) == t


def test_exp_hand_expansion():
    a = series(T6, {(2,): (1, 24), (4,): (1, 2880)})
    expected = series(T6, {(0,): 1, (2,): (1, 24), (4,): (7, 5760)})
    assert exp_series(a) == expected


def test_exp_log_preconditions():
    with pytest.raises(SeriesError):
        exp_series(MultiSeries.constant(T6, 1))
    with pytest.raises(SeriesError):
        log_series(MultiSeries.zero(T6))
    with pytest.raises(SeriesError, match="inverse_series"):
        inverse_series(MultiSeries.zero(T6))
    # a variable of order 0 leaves no room for exp's constant term
    with pytest.raises(SeriesError, match="truncates even the constant term"):
        exp_series(MultiSeries.zero((VarSpec("t", 0),)))
    t = MultiSeries(T6, {(1,): 1})
    with pytest.raises(SeriesError, match="divide_series"):
        divide_series(t, t)
    with pytest.raises(SeriesError, match="divide_series"):
        divide_series(MultiSeries.constant(T3, 1), MultiSeries.constant(T6, 1))


def test_log_sinc_half_coefficients():
    ls = -log_series(sinc_half_series(6))
    assert ls.coefficient((2,)) == Fraction(1, 24)
    assert ls.coefficient((4,)) == Fraction(1, 2880)
    assert all(e[0] % 2 == 0 for e in ls.terms)
    coeffs = log_sinc_half_coeffs(2)
    assert coeffs[1] == Fraction(1, 24) and coeffs[2] == Fraction(1, 2880)
    with pytest.raises(SeriesError):
        sinc_half_series(0)


def test_log_sinc_half_against_sine_composition():
    # independent routes: -log(sin(z/2)/(z/2)) against |B_2g|/(2g (2g)!) from
    # the Akiyama-Tanigawa Bernoulli numbers, through z^40
    want = MultiSeries((VarSpec("z", 41),), {(2 * g,): c for g, c in log_sinc_half_coeffs(20).items()})
    assert -log_series(sinc_half_series(41)) == want


def test_substitute_square():
    z = (VarSpec("z", 6),)
    a = series(z, {(2,): 1})
    h, e = VarSpec("h", 3), VarSpec("e", 3)
    assert substitute_square(a, (h, e)) == series((h, e), {(1, 1): 1})
    b = series(z, {(4,): (1, 2880)})
    assert substitute_square(b, (h, e)) == series((h, e), {(2, 2): (1, 2880)})
    c = series(z, {(2,): (1, 24), (4,): (1, 2880)})
    assert substitute_square(c, (h, e)) == series((h, e), {(1, 1): (1, 24), (2, 2): (1, 2880)})
    with pytest.raises(SeriesError):
        substitute_square(series(z, {(3,): 1}), (h, e))


def test_substitute_square_commutes_with_mul():
    rng = random.Random(3)
    z = (VarSpec("z", 9),)
    h, e = VarSpec("h", 5), VarSpec("e", 5)
    for _ in range(50):
        a = MultiSeries(z, {(2 * rng.randrange(5),): Fraction(rng.randint(-5, 5)) for _ in range(3)})
        b = MultiSeries(z, {(2 * rng.randrange(5),): Fraction(rng.randint(-5, 5)) for _ in range(3)})
        assert substitute_square(a * b, (h, e)) == substitute_square(a, (h, e)) * substitute_square(b, (h, e))


def test_coefficient_and_partial_derivative():
    a = series(T6, {(0,): 1, (2,): (1, 24)})
    assert a.coefficient((2,)) == Fraction(1, 24)
    assert a.coefficient((3,)) == 0
    with pytest.raises(SeriesError):
        a.coefficient((6,))
    he = (VarSpec("h", 4), VarSpec("e", 4))
    b = series(he, {(2, 1): 1})
    assert b.partial_derivative("h") == series(he, {(1, 1): 2})


def test_partial_derivative_chain_rule_truncated():
    h = (VarSpec("h", 6),)
    ex = exp_series(series(h, {(1,): (1, 24)}))
    got = ex.partial_derivative("h")
    want = ex * Fraction(1, 24)
    # derivative of a truncated series is exact one order below the bound
    for n in range(0, 4):
        assert got.coefficient((n,)) == want.coefficient((n,))


def test_partial_derivative_is_derivation():
    rng = random.Random(5)
    vars = (VarSpec("x", 5), VarSpec("y", 4))
    for _ in range(100):
        a = random_series(rng, vars, zero_constant=False)
        b = random_series(rng, vars, zero_constant=False)
        lhs = (a * b).partial_derivative("x")
        rhs = a.partial_derivative("x") * b + a * b.partial_derivative("x")
        # products beyond the bound were discarded before differentiation:
        # compare only up to one order below
        for e, c in (lhs - rhs).terms.items():
            assert e[0] >= vars[0].order - 1, (e, c)


def test_mul_commutative_associative():
    rng = random.Random(9)
    vars = (VarSpec("x", 5), VarSpec("y", 4))
    for _ in range(100):
        a = random_series(rng, vars, zero_constant=False)
        b = random_series(rng, vars, zero_constant=False)
        c = random_series(rng, vars, zero_constant=False)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_inverse_series():
    rng = random.Random(13)
    vars = (VarSpec("x", 5), VarSpec("y", 4))
    one = MultiSeries.constant(vars, 1)
    for _ in range(50):
        a = random_series(rng, vars, zero_constant=True) + Fraction(rng.randint(1, 5))
        assert a * inverse_series(a) == one


def test_exp_log_inversion_property():
    check_exp_log_inversion(200, 101)


def test_series_ops_match_power_sums():
    check_series_ops_against_power_sums(200, 102)


def test_series_kernel_matches_reference():
    check_series_kernel_against_reference(200, 103)


def test_graded_solve_matches_reference():
    check_graded_solve_against_reference(200, 104)


def test_series_ops_grade_by_one_variable_when_every_term_has_it():
    x = MultiSeries(HE, {(1, 0): 1, (1, 1): Fraction(1, 2), (2, 1): 3})
    grade = _grading(x)
    assert [sorted(p.terms) for p in _components(x, grade)] == [[], [(1, 0), (1, 1)], [(2, 1)], []]
    assert _grading(x + MultiSeries(HE, {(0, 1): 1})) is sum  # no variable is in every term
    assert exp_series(x) == exp_power_sum(x)
    assert log_series(1 + x) == log_power_sum(1 + x)
    assert inverse_series(1 + x) == inverse_power_sum(1 + x)
    assert divide_series(x, 1 + x) == x * inverse_power_sum(1 + x)


def test_divide_series_hand_expansion():
    # (1 + t) / (1 - t) = 1 + 2t + 2t^2 + ... to truncation
    t = MultiSeries(T6, {(1,): 1})
    expected = series(T6, {(0,): 1, (1,): 2, (2,): 2, (3,): 2, (4,): 2, (5,): 2})
    assert divide_series(1 + t, 1 - t) == expected
    assert divide_series(Fraction(1, 2), MultiSeries.constant(T6, 2)) == MultiSeries.constant(T6, Fraction(1, 4))


def test_str_rendering():
    he = (VarSpec("h", 4), VarSpec("e", 4))
    a = series(he, {(0, 0): 1, (1, 0): (-1, 24), (2, 1): (7, 5760)})
    assert str(a) == "1 - 1/24*h + 7/5760*h^2*e"


# Hand-computed ring arithmetic, the same for both exact term maps: keys
# k0..k3 are listed in each class's render order, which differs from the
# plain tuple order (graded-lex (2, 0) before (1, 2); u_2 before u_1^2 and
# h before e^2).
TERM_MAPS = {
    "MultiSeries": (MultiSeries, SeriesError, [(0, 0), (2, 0), (1, 2), (2, 1)]),
    "DiffPoly": (DiffPoly, DiffAlgError, [
        ((), 0, 0), (((2, 1),), 1, 0), (((2, 1),), 0, 2), (((1, 2),), 0, 0),
    ]),
}


@pytest.mark.parametrize("name", sorted(TERM_MAPS))
def test_term_map_ring_arithmetic(name):
    cls, error, (k0, k1, k2, k3) = TERM_MAPS[name]
    ring = coeff_ring(3)
    half = Fraction(1, 2)
    p = cls(ring, {k2: half, k0: 1})
    q = cls(ring, {k2: -half, k3: 3, k1: Fraction(-2, 3)})
    assert (p + q).terms == {k0: 1, k1: Fraction(-2, 3), k3: 3}
    assert (p - q).terms == {k0: 1, k1: Fraction(2, 3), k2: 1, k3: -3}
    assert (-q).terms == {k1: Fraction(2, 3), k2: half, k3: -3}
    assert (p * 3).terms == (3 * p).terms == {k0: 3, k2: Fraction(3, 2)}
    assert (q * Fraction(3, 2)).terms == {k1: -1, k2: Fraction(-3, 4), k3: Fraction(9, 2)}
    assert (p * 0).terms == (Fraction(0) * p).terms == {}
    assert p + q == cls(ring, {k3: 3, k1: Fraction(-2, 3), k0: 1})
    assert p != q and p - p == cls.zero(ring) and not cls.zero(ring)
    assert cls.zero(ring).terms == {} and cls.zero(ring).is_zero()
    assert q.sorted_terms() == [(k1, Fraction(-2, 3)), (k2, -half), (k3, Fraction(3))]
    assert (p - q).sorted_terms() == [(k0, 1), (k1, Fraction(2, 3)), (k2, 1), (k3, -3)]
    other = cls(coeff_ring(2), {k0: 1})
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        with pytest.raises(error):
            op(p, other)
