"""Truncated series arithmetic, big-O discipline, serialization, and the
weak coefficient map."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import F2, F3, QQ, f2_series, q_series
from ultralift.errors import PrecisionLossError, UsageError
from ultralift.series import (TruncatedSeries, WeakCoeffMap, format_series,
                              parse_series, random_series, weak_coeff)
from ultralift.values import Value, value_min


def series_strategy(draw, trunc=10):
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        e = draw(st.integers(0, trunc - 1))
        c = draw(st.fractions(min_value=-9, max_value=9))
        terms[Fraction(e)] = c
    return q_series(terms, trunc)


q_series_st = st.composite(series_strategy)()


def test_product_of_conjugates():
    a = q_series({0: 1, 1: 1}, 10)
    b = q_series({0: 1, 1: -1}, 10)
    prod = a * b
    assert prod.coeff_at(0) == 1 and prod.coeff_at(2) == -1
    assert prod.coeff_at(1) == 0
    assert prod.trunc >= 3


def test_v3_on_products():
    a = q_series({2: 1, 3: 1}, 11)
    t = q_series({1: 1}, 11)
    assert (a * t).value() == a.value() + t.value() == Value(3)


def test_geometric_inverse_matches_oracle():
    one = q_series({0: 1}, 10)
    denom = q_series({0: 1, 1: -1}, 10)
    inv = one / denom
    oracle = q_series({k: 1 for k in range(10)}, 10)
    assert inv == oracle


def test_division_by_zero_mod_precision_raises():
    with pytest.raises(PrecisionLossError):
        q_series({0: 1}, 8) / q_series({}, 8)


def test_division_precision_is_tight():
    # a/b with v(b) = 1 loses one order off the top
    a = q_series({2: 1}, 9)
    b = q_series({1: 1, 2: 5}, 9)
    q = a / b
    assert q.trunc == 8
    assert (q * b - a).is_zero_mod_precision()


def test_off_grid_exponent_rejected():
    with pytest.raises(UsageError):
        TruncatedSeries(QQ, 2, {Fraction(1, 3): 1}, 5)


@given(q_series_st, q_series_st)
def test_ultrametric_triangle(a, b):
    diff = a - b
    if diff.is_zero_mod_precision():
        return
    assert diff.value() >= value_min([a.value(), b.value()])


@given(q_series_st, q_series_st)
def test_value_of_products(a, b):
    if a.is_zero_mod_precision() or b.is_zero_mod_precision():
        return
    prod = a * b
    if not prod.is_zero_mod_precision():
        assert prod.value() == a.value() + b.value()


@settings(max_examples=60)
@given(q_series_st, q_series_st, q_series_st)
def test_ring_laws_modulo_common_truncation(a, b, c):
    lhs = (a * b) * c
    rhs = a * (b * c)
    assert (lhs - rhs).is_zero_mod_precision()
    assert ((a + b) * c - (a * c + b * c)).is_zero_mod_precision()
    assert (a * b - b * a).is_zero_mod_precision()


def test_derived_valuation_rules(rng):
    for _ in range(150):
        a = random_series(QQ, 2, 8, rng)
        b = random_series(QQ, 2, 8, rng)
        if a.is_zero_mod_precision() or b.is_zero_mod_precision():
            continue
        diff = a - b
        if a.value() != b.value():
            assert diff.value() == value_min([a.value(), b.value()])
        elif not diff.is_zero_mod_precision() and diff.value() > a.value():
            assert a.value() == b.value()


# -- differential test of the kernels against a naive oracle -----------
#
# The oracle keeps a series as ({Fraction exponent: coefficient}, Fraction
# order) and applies the documented truncation orders by hand: min of the
# orders for + and -, min(va + N_b, vb + N_a) for *, and
# min(N_a - vb, va + N_b - 2 vb) for /, where v is the least stored
# exponent (the order when nothing is stored).


def _oracle(a):
    return dict(a.terms), a.trunc


def _o_value(terms, order):
    return min(terms) if terms else order


def _o_clean(field, terms, order):
    return {e: c for e, c in terms.items()
            if e < order and not field.is_zero(c)}, order


def _o_add(field, a, b, sign=1):
    (ta, na), (tb, nb) = a, b
    acc = dict(ta)
    for e, c in tb.items():
        c = c if sign == 1 else -c
        acc[e] = acc[e] + c if e in acc else c
    return _o_clean(field, acc, min(na, nb))


def _o_mul(field, a, b):
    (ta, na), (tb, nb) = a, b
    order = min(_o_value(ta, na) + nb, _o_value(tb, nb) + na)
    acc = {}
    for e1, c1 in ta.items():
        for e2, c2 in tb.items():
            e = e1 + e2
            acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2
    return _o_clean(field, acc, order)


def _o_div(field, a, b):
    """Long division: subtract (quotient term) * b until the remainder's
    leading term lies at or past the quotient's order."""
    (ta, na), (tb, nb) = a, b
    vb = min(tb)
    lead = tb[vb]
    lead_inv = 1 / lead if isinstance(lead, Fraction) else lead.inverse()
    order = min(na - vb, _o_value(ta, na) + nb - 2 * vb)
    rem = {e: c for e, c in ta.items() if e - vb < order}
    quot = {}
    while rem:
        e = min(rem)
        qe, qc = e - vb, rem[e] * lead_inv
        quot[qe] = qc
        for eb, cb in tb.items():
            f = qe + eb
            if f - vb >= order:
                continue
            r = rem[f] - qc * cb if f in rem else -(qc * cb)
            if field.is_zero(r):
                rem.pop(f, None)
            else:
                rem[f] = r
    return quot, order


def _assert_matches(field, got, want):
    terms, order = want
    want_terms = tuple(sorted(terms.items()))
    assert got.trunc == order
    assert got.terms == want_terms
    # the printed form pins tower levels as well as values
    assert [field.show(c) for _, c in got.terms] == [field.show(c) for _, c in want_terms]


def _check_kernels(field, a, b):
    oa, ob = _oracle(a), _oracle(b)
    _assert_matches(field, a + b, _o_add(field, oa, ob))
    _assert_matches(field, a - b, _o_add(field, oa, ob, sign=-1))
    prod = a * b
    _assert_matches(field, prod, _o_mul(field, oa, ob))
    if not b.is_zero_mod_precision():
        _assert_matches(field, a / b, _o_div(field, oa, ob))
        _assert_matches(field, prod / b, _o_div(field, _oracle(prod), ob))
        assert (prod / b - a).is_zero_mod_precision()


@st.composite
def q_grid_series(draw, lo=0):
    """Q series on the grid (1/d)Z, d in {1, 2, 3}; some drawn terms lie at
    or past the order and must be dropped."""
    d = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(lo * d + 1, 12 * d))
    ks = draw(st.lists(st.integers(lo * d, n + 2), max_size=8))
    coeffs = draw(st.lists(st.fractions(-9, 9, max_denominator=7),
                           min_size=len(ks), max_size=len(ks)))
    return TruncatedSeries(QQ, d, {Fraction(k, d): c for k, c in zip(ks, coeffs)},
                           Fraction(n, d))


@st.composite
def sparse_tower_series(draw, field):
    """Tower series at levels 1-2 with stored terms spread over more than
    400 grid slots."""
    n = draw(st.integers(420, 480))
    ks = [draw(st.integers(0, 4)),
          *draw(st.lists(st.integers(5, 400), max_size=4)),
          draw(st.integers(405, 419))]
    terms = {}
    for k in ks:
        level = draw(st.integers(1, 2))
        digits = draw(st.lists(st.integers(0, field.p - 1), min_size=level,
                               max_size=level).filter(any))
        terms[Fraction(k)] = field.tower.elem(level, digits)
    return TruncatedSeries(field, 1, terms, Fraction(n))


@settings(max_examples=60)
@given(q_grid_series(), q_grid_series())
def test_kernels_match_oracle_on_mixed_grids(a, b):
    _check_kernels(QQ, a, b)


@settings(max_examples=40)
@given(q_grid_series(lo=-4), q_grid_series(lo=-4))
def test_kernels_match_oracle_with_negative_exponents(a, b):
    _check_kernels(QQ, a, b)


@pytest.mark.parametrize("field", [F2, F3], ids=["f2", "f3"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_kernels_match_oracle_on_sparse_tower_series(field, data):
    a = data.draw(sparse_tower_series(field))
    b = data.draw(sparse_tower_series(field))
    assert max(e for e, _ in a.terms) - min(e for e, _ in a.terms) > 400
    _check_kernels(field, a, b)


def test_equality_and_hash_ignore_the_grid():
    a = q_series({Fraction(1): Fraction(2, 3), Fraction(4): -1}, 6)
    fine = TruncatedSeries(QQ, 6, a.terms, a.trunc)
    assert fine.denom == 6 and a == fine and hash(a) == hash(fine)
    assert a != TruncatedSeries(QQ, 6, a.terms, Fraction(11, 2))


# -- serialization ------------------------------------------------------


def test_round_trip_rational():
    s = TruncatedSeries(QQ, 2, {Fraction(1, 2): Fraction(3), 2: Fraction(-5, 7)}, 8)
    assert parse_series(format_series(s), QQ) == s


def test_round_trip_tower_coefficients():
    w = F2.tower.generator(2)
    s = f2_series({1: w, 3: 1}, 9)
    text = format_series(s)
    again = parse_series(text, F2)
    assert again == s
    assert format_series(again) == text


def test_round_trip_fractional_exponents(rng):
    for _ in range(30):
        s = random_series(QQ, 4, 6, rng)
        assert parse_series(format_series(s), QQ) == s


# -- weak coefficient map ------------------------------------------------


def test_weak_coeff_leading():
    a = q_series({2: 3, 3: 1}, 9)
    assert weak_coeff(a) == 3


def test_weak_coeff_value_zero_is_residue():
    a = q_series({0: Fraction(5, 2), 1: 4}, 9)
    assert weak_coeff(a) == a.coeff_at(0)


def test_weak_coeff_zero_flag():
    c, flagged = weak_coeff(q_series({}, 9), with_flag=True)
    assert c == 0 and flagged


def test_wcm3_matching_leads_increase_value(rng):
    # co(a) = co(b) and va = vb imply v(a - b) > va, on 100 random pairs
    hits = 0
    while hits < 100:
        lead_exp = Fraction(rng.randrange(0, 4))
        lead = Fraction(rng.randrange(1, 9))
        a = q_series({lead_exp: lead}, 10) + random_series(QQ, 1, 10, rng, min_exp=lead_exp + 1)
        b = q_series({lead_exp: lead}, 10) + random_series(QQ, 1, 10, rng, min_exp=lead_exp + 1)
        diff = a - b
        assert diff.is_zero_mod_precision() or diff.value() > a.value()
        hits += 1


def test_wcm2_sum_of_equal_values(rng):
    co = WeakCoeffMap(q_series({}, 10))
    for _ in range(100):
        e = Fraction(rng.randrange(0, 5))
        parts = []
        for _ in range(rng.randrange(2, 5)):
            lead = Fraction(rng.randrange(-9, 10))
            if lead == 0:
                lead = Fraction(1)
            parts.append(q_series({e: lead}, 10)
                         + random_series(QQ, 1, 10, rng, min_exp=e + 1))
        total_lead = sum(co.co(p) for p in parts)
        if total_lead != 0:
            s = parts[0]
            for p in parts[1:]:
                s = s + p
            assert co.co(s) == total_lead


def test_wcm4_lift():
    co = WeakCoeffMap(q_series({}, 10))
    lifted = co.lift(Fraction(7, 2), Fraction(3), 10)
    assert lifted.value() == Value(3)
    assert co.co(lifted) == Fraction(7, 2)
