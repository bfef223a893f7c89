"""Newton lemmas, implicit functions, pseudo-inverse lifting, inversion."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import F2, QQ, f2_series, padic, q_series
from ultralift.errors import HypothesisViolation
from ultralift.hensel import (PseudoInversePair, implicit_fn, newton_1d,
                              newton_nd, pseudo_inverse_lift,
                              pseudo_inverse_pair_ok, series_invert,
                              witness_pseudo_linear)
from ultralift.matrices import ValuedMatrix, jacobian
from ultralift.padics import TruncatedPAdic, random_padic
from ultralift.polynomials import MultiPoly, parse_poly
from ultralift.sampling import sample_near
from ultralift.series import TruncatedSeries, random_series
from ultralift.values import Ball, Value, ValuedVector


def slope_law_samples(fmap, center, radius, slope_value, rng, pairs=50):
    """Pseudo-slope law on sampled pairs from the strict ball around the
    center: v(fy - fz) = v(s) + v(y - z) exactly."""
    checked = 0
    while checked < pairs:
        y = sample_near(center, radius, rng, strict=True)
        z = sample_near(center, radius, rng, strict=True)
        move = y - z
        if move.is_zero_mod_precision():
            continue
        gap = fmap(y) - fmap(z)
        if gap.is_zero_mod_precision():
            continue
        assert gap.value() == slope_value + move.value()
        checked += 1


# -- one-dimensional -----------------------------------------------------


def test_newton_1d_sqrt7_matches_enumeration():
    N = 3**12
    enumerated = sorted(a for a in range(N) if (a * a - 7) % N == 0)
    f = parse_poly("1*X0^2 + -7", 1)
    root, cert = newton_1d(f, padic(3, 1, 14), 12)
    assert root.residue % N in enumerated
    assert root.residue % 9 == 4
    assert (root - padic(3, 1, 14)).value() == Value(1)  # vf(b) - vf'(b) = 1 - 0
    assert cert.monotone()


def test_newton_1d_root_start_zero_steps():
    f = parse_poly("1*X0", 1)
    root, cert = newton_1d(f, padic(3, 0, 12), 12)
    assert root.is_zero_mod_precision()
    assert cert.outcome == "converged-at-precision"


def test_newton_1d_b_already_root():
    f = parse_poly("1*X0^2 + -1*X0", 1)
    root, cert = newton_1d(f, padic(3, 0, 12), 12)
    assert root.is_zero_mod_precision() and cert.steps == ()


def test_newton_1d_boundary_hypothesis_fires():
    # v f(0) = v(-9) = 2 equals 2 v f'(0) = 2 v(3): must be rejected
    f = parse_poly("3*X0 + -9", 1)
    with pytest.raises(HypothesisViolation):
        newton_1d(f, padic(3, 0, 12), 10)


def test_newton_1d_slope_law(rng):
    f = parse_poly("1*X0^2 + -7", 1)
    b = padic(3, 1, 14)
    s = f.partial(0).eval([b])
    slope_law_samples(lambda y: f.eval([y]), b, s.value(), s.value(), rng, 50)


def test_pseudo_linear_witness_for_1d_run(rng):
    f = parse_poly("1*X0^2 + -7", 1)
    b = padic(3, 1, 14)
    root, cert = newton_1d(f, b, 12)
    s = f.partial(0).eval([b])
    wit = witness_pseudo_linear(lambda y: f.eval([y]), s,
                                cert.uniqueness_ball, rng, pairs=50)
    assert wit.samples_checked == 50
    assert wit.slope_value == s.value()


def test_pseudo_linear_witness_rejects_wrong_slope(rng):
    # squaring around 0 is not pseudo-linear with slope 1 on v >= 1
    from ultralift.values import Ball
    ball = Ball(padic(3, 0, 12), Value(1))
    one = padic(3, 1, 12)
    with pytest.raises(HypothesisViolation):
        witness_pseudo_linear(lambda y: y * y, one, ball, rng, pairs=10)


def test_newton_1d_uniqueness_by_enumeration_2adic():
    # 2-adics at 2^8: exhaustive search of the ball b + f'(b)M
    f = parse_poly("1*X0^2 + -17", 1)
    b = padic(2, 1, 12)
    root, cert = newton_1d(f, b, 8)
    s = f.partial(0).eval([b])
    vs = int(s.value().amount)
    N = 2**8
    ball = [a for a in range(N) if (a - 1) % 2 ** (vs + 1) == 0]
    hits = sorted(a for a in ball if (a * a - 17) % N == 0)
    assert hits
    # all residue-level hits collapse to the lifted root modulo 2^(8 - vs)
    mod = 2 ** (8 - vs)
    assert {a % mod for a in hits} == {root.residue % mod}


@pytest.mark.parametrize("p, poly, b, n", [
    (3, "1*X0^2 + -7", 1, 800),
    (2, "1*X0^2 + -17", 1, 800),
    (3, "1*X0^3 + -35", 2, 200),
])
def test_newton_1d_steps_are_logarithmic(p, poly, b, n):
    root, cert = newton_1d(parse_poly(poly, 1), padic(p, b, n + 8), n)
    assert len(cert.steps) <= math.ceil(math.log2(n)) + 2
    assert cert.monotone()
    assert root.precision == n


# -- multi-dimensional ---------------------------------------------------


def test_newton_nd_2x2_by_substitution_oracle():
    fs = [parse_poly("1*X0^2 + -7", 2), parse_poly("1*X1^2 + -1*X0", 2)]
    b = ValuedVector([padic(3, 1, 14), padic(3, 1, 14)])
    roots, cert = newton_nd(fs, b, 10)
    N = 3**10
    r0, r1 = roots[0].residue % N, roots[1].residue % N
    assert (r0 * r0 - 7) % N == 0          # independent integer arithmetic
    assert (r1 * r1 - r0) % N == 0
    assert cert.monotone()


def test_newton_nd_decoupled_matches_1d_bit_for_bit():
    f0 = parse_poly("1*X0^2 + -7", 1)
    f1 = parse_poly("1*X0^2 + -13", 1)
    sys2 = [parse_poly("1*X0^2 + -7", 2), parse_poly("1*X1^2 + -13", 2)]
    b0, b1 = padic(3, 1, 14), padic(3, 1, 14)
    r0, _ = newton_1d(f0, b0, 10)
    r1, _ = newton_1d(f1, b1, 10)
    roots, _ = newton_nd(sys2, ValuedVector([b0, b1]), 10)
    assert roots[0] == r0 and roots[1] == r1


def test_newton_nd_start_already_zero():
    fs = [parse_poly("1*X0^2 + -1*X0", 2), parse_poly("1*X1", 2)]
    b = ValuedVector([padic(3, 0, 12), padic(3, 0, 12)])
    roots, cert = newton_nd(fs, b, 10)
    assert roots.is_zero_mod_precision() and cert.steps == ()


def test_newton_nd_singular_rejected():
    fs = [parse_poly("1*X0^2", 2), parse_poly("1*X1^2", 2)]
    b = ValuedVector([padic(3, 0, 10), padic(3, 0, 10)])
    with pytest.raises(HypothesisViolation):
        newton_nd(fs, b, 8)


def test_newton_nd_reduced_map_slope_law(rng):
    fs = [parse_poly("1*X0^2 + -7", 2), parse_poly("1*X1^2 + -1*X0", 2)]
    b = ValuedVector([padic(3, 1, 14), padic(3, 1, 14)])
    J = jacobian(fs, list(b))
    Jstar, s = J.adjugate(), J.determinant()

    def reduced(y):
        return Jstar.apply(ValuedVector([f.eval(list(y)) for f in fs]))

    slope_law_samples(reduced, b, s.value(), s.value(), rng, 50)


def test_newton_nd_steps_are_logarithmic():
    n = 400
    fs = [parse_poly("1*X0^2 + -7", 2), parse_poly("1*X1^2 + -1*X0", 2)]
    b = ValuedVector([padic(3, 1, n + 8), padic(3, 1, n + 8)])
    roots, cert = newton_nd(fs, b, n)
    assert len(cert.steps) <= math.ceil(math.log2(n)) + 2
    for f in fs:
        assert f.eval(list(roots)).value() >= Value(n)


# -- implicit function ---------------------------------------------------


def test_implicit_fn_same_x_returns_same_y():
    fs = [parse_poly("1*X0 + -1*X1", 2)]
    z = [padic(3, 4, 12), padic(3, 4, 12)]
    ys, _ = implicit_fn(fs, z, [padic(3, 4, 12)], 10)
    assert (ys[0] - z[1]).is_zero_mod_precision()


def test_implicit_fn_linear():
    fs = [parse_poly("1*X0 + -1*X1", 2)]
    z = [padic(3, 0, 12), padic(3, 0, 12)]
    ys, _ = implicit_fn(fs, z, [padic(3, 9, 12)], 10)
    assert (ys[0] - 9).is_zero_mod_precision()


def test_implicit_fn_sqrt_of_ten():
    # y' = sqrt(10) mod 3^N; oracle: enumerate square roots of 10
    fs = [parse_poly("1*X1^2 + -1*X0 + -1", 2)]
    z = [padic(3, 0, 12), padic(3, 1, 12)]
    ys, _ = implicit_fn(fs, z, [padic(3, 9, 12)], 10)
    N = 3**10
    roots = {a for a in range(N) if (a * a - 10) % N == 0}
    assert ys[0].residue % N in roots
    # value bound: min v(y - y') >= min v(x - x') - v det J(z)
    assert (ys[0] - z[1]).value() >= Value(2) - Value(0)


def test_implicit_fn_requires_common_zero():
    fs = [parse_poly("1*X1 + -1", 2)]
    z = [padic(3, 0, 10), padic(3, 0, 10)]
    with pytest.raises(HypothesisViolation):
        implicit_fn(fs, z, [padic(3, 9, 10)], 8)


# -- pseudo-inverse lifting ----------------------------------------------


def _identity_matrix(p, n, prec):
    return ValuedMatrix([[padic(p, 1 if i == j else 0, prec) for j in range(n)]
                         for i in range(n)])


def test_pinv_identity_jacobian_plain_fixed_point():
    fs = [parse_poly("1*X0 + -9", 1)]
    Mo = _identity_matrix(3, 1, 12)
    root, cert = pseudo_inverse_lift(fs, ValuedVector([padic(3, 0, 12)]), Mo, 10)
    assert (root[0] - 9).is_zero_mod_precision()
    assert (root[0] - 0).value() == Value(2)  # v(b - a) = v f(b)


def test_pinv_perturbed_jacobian_same_pseudo_inverse():
    # J' - J with entries of positive value keeps the same pseudo-inverse
    fs = [parse_poly("1*X0 + 3*X1 + -9", 2), parse_poly("1*X1 + 3*X0 + -27", 2)]
    Mo = _identity_matrix(3, 2, 12)
    b = ValuedVector([padic(3, 0, 12), padic(3, 0, 12)])
    J = jacobian(fs, list(b))
    assert pseudo_inverse_pair_ok(J, Mo)
    roots, _ = pseudo_inverse_lift(fs, b, Mo, 10)
    for f in fs:
        assert f.eval(list(roots)).value() >= Value(10)


def test_pinv_planted_root_over_f2_series(rng):
    # plant r, define f with f(r) = 0, recover to t^10
    r0 = random_series(F2, 1, 12, rng, min_exp=1)
    r1 = random_series(F2, 1, 12, rng, min_exp=1)
    # f0 = X0 + X0*X1 - c0, f1 = X1 + t*X0 - c1 with c_i forcing f(r) = 0
    c0 = r0 + r0 * r1
    c1 = r1 + f2_series({1: 1}) * r0
    fs = [
        MultiPoly(2, {(1, 0): 1, (1, 1): 1}) - MultiPoly.constant(2, c0),
        MultiPoly(2, {(0, 1): 1}) + MultiPoly(2, {(1, 0): f2_series({1: 1})})
        - MultiPoly.constant(2, c1),
    ]
    zero = f2_series({}, 12)
    one = f2_series({0: 1}, 12)
    Mo = ValuedMatrix([[one, zero], [zero, one]])
    b = ValuedVector([zero, zero])
    roots, _ = pseudo_inverse_lift(fs, b, Mo, 10)
    assert (roots[0] - r0).value() >= Value(10)
    assert (roots[1] - r1).value() >= Value(10)


def test_pinv_pair_value_preservation(rng):
    # valid pairs act value-preservingly: v(My) = v(y) = v(M°y)
    fs = [parse_poly("1*X0 + 3*X1", 2), parse_poly("1*X1 + 9*X0", 2)]
    b = ValuedVector([padic(3, 0, 10), padic(3, 0, 10)])
    J = jacobian(fs, list(b))
    Mo = _identity_matrix(3, 2, 10)
    assert pseudo_inverse_pair_ok(J, Mo)
    for _ in range(100):
        y = ValuedVector([random_padic(3, 10, rng) for _ in range(2)])
        if y.is_zero_mod_precision():
            continue
        assert (J.apply(y)).value() == y.value()
        assert (Mo.apply(y)).value() == y.value()


@pytest.mark.parametrize("p, n, corner", [
    *((p, n, 0) for p in (2, 3, 5, 7) for n in (12, 50, 200, 800)),
    (3, 800, 3),  # M° = [[1, 3], [0, 1]], a pseudo-inverse other than E
])
def test_pinv_lift_steps_are_logarithmic(p, n, corner):
    # X0 + p X1^2 - a0, X1 + p X0^2 - a1: J(b) = E mod p
    rng = random.Random(p * 1000 + n + corner)
    b0, b1 = rng.randrange(p**3), rng.randrange(p**3)
    a0 = b0 + p * b1 * b1 + p * rng.randrange(1, p**4)
    a1 = b1 + p * b0 * b0 + p * rng.randrange(1, p**4)
    fs = [parse_poly(f"1*X0 + {p}*X1^2 + {-a0}", 2),
          parse_poly(f"1*X1 + {p}*X0^2 + {-a1}", 2)]
    b = ValuedVector([padic(p, b0, n), padic(p, b1, n)])
    Mo = ValuedMatrix([[padic(p, 1, n), padic(p, corner, n)],
                       [padic(p, 0, n), padic(p, 1, n)]])
    assert pseudo_inverse_pair_ok(jacobian(fs, list(b)), Mo)
    roots, cert = pseudo_inverse_lift(fs, b, Mo, n)
    assert len(cert.steps) <= math.ceil(math.log2(n)) + 2
    assert cert.monotone()
    for f in fs:
        assert f.eval(list(roots)).value() >= Value(n)


def test_pinv_rejects_bad_pair():
    fs = [parse_poly("3*X0 + -9", 1)]  # Jacobian (3): 3*1 - 1 has value 0
    Mo = _identity_matrix(3, 1, 10)
    with pytest.raises(HypothesisViolation):
        pseudo_inverse_lift(fs, ValuedVector([padic(3, 0, 10)]), Mo, 8)


def test_pseudo_inverse_pair_type_validates():
    fs = [parse_poly("1*X0 + 3*X1", 2), parse_poly("1*X1 + 9*X0", 2)]
    b = [padic(3, 0, 10), padic(3, 0, 10)]
    J = jacobian(fs, b)
    Mo = _identity_matrix(3, 2, 10)
    pair = PseudoInversePair(J, Mo)
    assert pair.M is J
    bad = ValuedMatrix([[padic(3, 2, 10), padic(3, 0, 10)],
                        [padic(3, 0, 10), padic(3, 1, 10)]])
    with pytest.raises(HypothesisViolation):
        PseudoInversePair(bad, Mo)


# -- series inversion ----------------------------------------------------


def signed_catalan_inverse(n):
    """Coefficient recursion for the inverse of X + X^2 (independent)."""
    y = [Fraction(0)] * (n + 1)
    y[1] = Fraction(1)
    for k in range(2, n + 1):
        y[k] = -sum(y[i] * y[k - i] for i in range(1, k))
    return y


def test_series_invert_identity():
    z = q_series({1: 1, 2: 4}, 10)
    y, _ = series_invert([1], z, 10)
    assert y == z.truncate(10)


def test_series_invert_signed_catalan():
    z = q_series({1: 1}, 14)
    y, cert = series_invert([1, 1], z, 13)
    oracle = signed_catalan_inverse(12)
    for k in range(1, 13):
        assert y.coeff_at(k) == oracle[k]
    assert cert.monotone()


@pytest.mark.parametrize("n", [12, 40, 96])
def test_series_invert_steps_are_logarithmic(n):
    z = q_series({1: 1}, n)
    y, cert = series_invert([1, 1], z, n)
    assert len(cert.steps) <= math.ceil(math.log2(n)) + 2
    oracle = signed_catalan_inverse(n - 1)
    assert all(y.coeff_at(k) == oracle[k] for k in range(1, n))


def test_series_invert_zero_target():
    z = q_series({}, 10)
    y, cert = series_invert([1, 1], z, 10)
    assert y.is_zero_mod_precision()
    assert cert.outcome == "converged-at-precision"


def test_series_invert_rejects_zero_linear_coefficient():
    with pytest.raises(HypothesisViolation):
        series_invert([0, 1], q_series({1: 1}, 10), 8)


def test_series_invert_round_trip_random(rng):
    for _ in range(50):
        k = rng.randrange(1, 5)
        coeffs = [Fraction(rng.randrange(1, 9))]
        coeffs += [Fraction(rng.randrange(-9, 10)) for _ in range(k)]
        z = random_series(QQ, 1, 13, rng, min_exp=1)
        if z.is_zero_mod_precision():
            continue
        y, _ = series_invert(coeffs, z, 12)
        acc = y.zero_like()
        power = y.one_like()
        for c in coeffs:
            power = power * y
            acc = acc + power * c
        assert (acc - z).value() >= Value(12)


def test_series_invert_uniqueness_brute_force_f2():
    # over F_2 coefficients truncated at t^6 there are 2^5 candidates with
    # v > 0; exactly one solves f(y) = z'
    z = f2_series({1: 1, 3: 1}, 6)
    y, _ = series_invert([F2.one, F2.one], z, 6)
    hits = []
    for mask in range(1 << 5):
        cand = TruncatedSeries(F2, 1, {k: (mask >> (k - 1)) & 1 for k in range(1, 6)}, 6)
        img = cand + cand * cand
        if (img - z).is_zero_mod_precision():
            hits.append(cand)
    assert len(hits) == 1
    assert (hits[0] - y).is_zero_mod_precision()


def test_series_invert_slope_law(rng):
    coeffs = [Fraction(1), Fraction(1)]
    z = q_series({1: 1}, 12)
    start = z.zero_like()

    def fmap(y):
        return y + y * y

    slope_law_samples(fmap, start, Value(0), Value(0), rng, 50)
