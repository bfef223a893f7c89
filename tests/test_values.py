"""Value group order/arithmetic, minimum valuation, and ball geometry."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import q_series
from ultralift.errors import HypothesisViolation, PrecisionLossError, UsageError
from ultralift.padics import TruncatedPAdic, random_padic
from ultralift.values import (INFINITY, Ball, Value, ValuedVector,
                              ball_relation, require, value_min)

rationals = st.fractions(min_value=-50, max_value=50)
values = st.one_of(st.just(INFINITY), rationals.map(Value))


def test_value_min_all_infinite():
    assert value_min([INFINITY, INFINITY]) == INFINITY


def test_value_min_plain():
    assert value_min([Value(3), Value(1), Value(2)]) == Value(1)


def test_value_min_mixed():
    assert value_min([Value(Fraction(5, 2)), INFINITY, Value(3)]) == Value(Fraction(5, 2))


def test_value_min_empty_is_usage_error():
    with pytest.raises(UsageError):
        value_min([])


@given(values, values)
def test_total_order(a, b):
    assert (a < b) or (b < a) or (a == b)


@given(values)
def test_infinity_dominates(a):
    assert a <= INFINITY
    assert a + INFINITY == INFINITY


@given(rationals, rationals)
def test_addition_matches_rationals(x, y):
    assert Value(x) + Value(y) == Value(x + y)


def test_scalar_multiple():
    assert 2 * Value(Fraction(3, 2)) == Value(3)
    assert 2 * INFINITY == INFINITY


def test_ball_relation_larger_radius_is_smaller_ball():
    zero = TruncatedPAdic(3, 0, 8)
    b_2 = Ball(zero, Value(2))
    b_1 = Ball(zero, Value(1))
    assert ball_relation(b_2, b_1) == "B1subB2"
    assert ball_relation(b_1, b_2) == "B2subB1"


def test_ball_relation_equal():
    zero = TruncatedPAdic(3, 0, 8)
    assert ball_relation(Ball(zero, Value(1)), Ball(zero, Value(1))) == "equal"


def test_ball_relation_disjoint_3adic():
    # v(1 - 2) = 0 < 1, confirmed by enumerating residues mod 3
    assert all((1 - 2) % 3 != 0 for _ in [0])
    one = TruncatedPAdic(3, 1, 8)
    two = TruncatedPAdic(3, 2, 8)
    assert ball_relation(Ball(one, Value(1)), Ball(two, Value(1))) == "disjoint"


def test_balls_with_common_point_are_comparable(rng):
    for _ in range(60):
        c1 = random_padic(3, 8, rng)
        c2 = random_padic(3, 8, rng)
        r1 = Value(rng.randrange(0, 6))
        r2 = Value(rng.randrange(0, 6))
        b1, b2 = Ball(c1, r1), Ball(c2, r2)
        rel = ball_relation(b1, b2)
        common = [x for x in (c1, c2) if b1.contains(x) and b2.contains(x)]
        if common:
            assert rel != "disjoint"


def test_ball_membership_commutes_with_translation(rng):
    for _ in range(40):
        c = random_padic(3, 8, rng)
        shift = random_padic(3, 8, rng)
        z = random_padic(3, 8, rng)
        ball = Ball(c, Value(rng.randrange(0, 6)))
        assert ball.contains(z) == Ball(c + shift, ball.radius).contains(z + shift)


def test_ultrametric_derived_rules(rng):
    # v(a-b) > min(va, vb) forces va = vb; va != vb forces equality with min
    for _ in range(200):
        a = random_padic(3, 10, rng)
        b = random_padic(3, 10, rng)
        va, vb, vab = a.value(), b.value(), (a - b).value()
        if a.is_zero_mod_precision() or b.is_zero_mod_precision():
            continue
        if va != vb:
            assert vab == value_min([va, vb])
        if (a - b).is_zero_mod_precision():
            continue
        if vab > value_min([va, vb]):
            assert va == vb


def test_vector_value_is_minimum(rng):
    for _ in range(50):
        entries = [random_padic(3, 9, rng) for _ in range(4)]
        vec = ValuedVector(entries)
        assert vec.value() == value_min([e.value() for e in entries])


# 9 = 3^2 known to 3^6, and 0 known only to 3^2; t^2 known to O(t^6), and 0
# known only to O(t^2): below the cap each value is exact, at it the vanishing
# element can no longer be told apart from one of larger value
@pytest.mark.parametrize("x, zero", [
    (TruncatedPAdic(3, 9, 6), TruncatedPAdic(3, 0, 2)),
    (q_series({2: 1}, 6), q_series({}, 2)),
], ids=["padic", "series"])
@pytest.mark.parametrize("op, holds_at, fails_at", [(">", 1, 2), (">=", 2, 3)])
def test_require_decides_or_raises(x, zero, op, holds_at, fails_at):
    require(x, op, holds_at, "claim")
    require(zero, op, holds_at, "claim")
    with pytest.raises(HypothesisViolation, match=f"claim: got 2 {'<=' if op == '>' else '<'} {fails_at}"):
        require(x, op, fails_at, "claim", index=0)
    with pytest.raises(PrecisionLossError, match="cannot decide claim"):
        require(zero, op, fails_at, "claim")
