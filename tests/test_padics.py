"""Truncated p-adic arithmetic and serialization."""

import pytest
from fractions import Fraction
from hypothesis import given
from hypothesis import strategies as st

from ultralift.errors import ParseError, PrecisionLossError, UsageError
from ultralift.padics import (TruncatedPAdic, format_padic, parse_padic,
                              random_padic)
from ultralift.values import Value


def test_add_carries():
    a = TruncatedPAdic(3, 7, 5)
    b = TruncatedPAdic(3, 2, 5)
    s = a + b
    assert s.residue == 9 and s.value() == Value(2)


def test_inverse_of_three_mod_32():
    # extended-gcd oracle: 3 * 11 = 33 = 1 mod 32
    assert pow(3, -1, 32) == 11
    q = TruncatedPAdic(2, 1, 5) / TruncatedPAdic(2, 3, 5)
    assert q.residue == 11


def test_value_of_prime_powers():
    for k in range(0, 7):
        assert TruncatedPAdic(3, 3**k, 9).value() == Value(k)


def _digit_loop_value(x):
    if x.residue == 0:
        return x.precision
    r, k = x.residue, 0
    while r % x.p == 0:
        r //= x.p
        k += 1
    return k


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("n", [1, 2, 13, 200, 12800])
def test_value_matches_the_digit_loop(p, n):
    # every valuation 0..n (p^n is the zero residue) up to n = 200; above,
    # the powers of two and their neighbours, and the top of the range
    ks = range(n + 1) if n <= 200 else sorted(
        {2**i + d for i in range(13) for d in (-1, 0, 1)} | {n - 1, n})
    for k in ks:
        units = (1, p - 1, p + 1, 2 * p**3 + 1) if k < 64 else (p + 1,)
        for unit in units:
            x = TruncatedPAdic(p, p**k * unit, n)
            assert x.value() == Value(_digit_loop_value(x)), (k, unit)


def test_from_rational_rejects_p_in_denominator():
    with pytest.raises(UsageError):
        TruncatedPAdic.from_rational(3, Fraction(1, 3), 5)


def test_from_rational_unit_denominator():
    x = TruncatedPAdic.from_rational(3, Fraction(2, 5), 6)
    assert (x * 5 - 2).is_zero_mod_precision()


@given(st.integers(0, 3**8 - 1), st.integers(0, 3**8 - 1), st.integers(0, 3**8 - 1))
def test_ring_laws(x, y, z):
    a, b, c = (TruncatedPAdic(3, v, 8) for v in (x, y, z))
    assert ((a + b) + c) == (a + (b + c))
    assert (a * b) == (b * a)
    # precisions may differ by the operands' valuations; compare mod the cap
    assert (a * (b + c) - (a * b + a * c)).is_zero_mod_precision()


def test_division_exact_and_precision():
    a = TruncatedPAdic(3, 18, 6)
    b = TruncatedPAdic(3, 3, 6)
    q = a / b
    assert q.residue == 6 and q.precision == 5
    with pytest.raises(UsageError):
        b / a  # negative valuation quotient
    with pytest.raises(PrecisionLossError):
        a / TruncatedPAdic(3, 0, 6)


def test_serialization_round_trip(rng):
    for _ in range(50):
        a = random_padic(5, 7, rng)
        assert parse_padic(format_padic(a)) == a


def test_parse_rejects_bad_digit_count():
    with pytest.raises(ParseError):
        parse_padic("1,2+O(3^5)")


def test_mul_precision_tightens_with_valuation():
    a = TruncatedPAdic(3, 9, 6)   # v = 2
    b = TruncatedPAdic(3, 3, 6)   # v = 1
    assert (a * b).precision == 6 + 1  # min(6+1, 6+2, 12)
