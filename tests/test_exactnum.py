from __future__ import annotations

import random
from fractions import Fraction
from math import comb, gcd

import pytest

from ilwhodge import exactnum
from oracles import bernoulli_at


def test_bernoulli_base_values():
    assert exactnum.bernoulli(0) == 1
    assert exactnum.bernoulli(1) == Fraction(-1, 2)
    assert exactnum.bernoulli(2) == Fraction(1, 6)
    assert exactnum.bernoulli(4) == Fraction(-1, 30)
    assert exactnum.bernoulli(3) == 0
    assert exactnum.bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_matches_akiyama_tanigawa_oracle():
    for n in range(0, 121):
        assert exactnum.bernoulli(n) == bernoulli_at(n), n


def test_bernoulli_recurrence():
    # sum_{k=0}^{n} C(n+1, k) B_k = 0 for n >= 1
    for n in range(1, 31):
        acc = sum(comb(n + 1, k) * exactnum.bernoulli(k) for k in range(n + 1))
        assert acc == 0, n


def test_odd_bernoulli_vanish():
    for k in range(1, 15):
        assert exactnum.bernoulli(2 * k + 1) == 0


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        exactnum.bernoulli(-1)


def test_cg_values():
    assert exactnum.c_g(1) == Fraction(1, 24)
    assert exactnum.c_g(2) == Fraction(1, 1440)
    assert exactnum.c_g(3) == Fraction(1, 60480)
    with pytest.raises(ValueError):
        exactnum.c_g(0)


def test_dispersion_values():
    assert exactnum.dispersion_coeff(1) == Fraction(1, 12)
    assert exactnum.dispersion_coeff(2) == Fraction(1, 720)
    for g in range(1, 13):
        assert exactnum.dispersion_coeff(g) == 2 * exactnum.c_g(g)
    with pytest.raises(ValueError):
        exactnum.dispersion_coeff(0)


def test_rational_codec():
    assert str(Fraction(1, 6)) == "1/6"
    assert str(Fraction(-691, 2730)) == "-691/2730"
    assert str(Fraction(5)) == "5"


def test_rational_field_axioms_randomized():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (
            Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(3)
        )
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        for x in (a + b, a * b, a - c):
            assert gcd(x.numerator, x.denominator) == 1
            assert x.denominator > 0
