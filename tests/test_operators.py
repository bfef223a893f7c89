"""Operator polynomials: evaluation, Taylor gaps, and the three solvers."""

import random
from fractions import Fraction

import pytest

from conftest import F2, QQ, f2_series, padic, q_series
from ultralift.diff_fields import RosenlichtInstance
from ultralift.errors import HypothesisViolation
from ultralift.operators import (OperatorFamily, OperatorPoly, eval_opoly,
                                 solve_dominant, solve_rosenlicht, solve_wcm,
                                 taylor_gap_check)
from ultralift.padics import random_padic
from ultralift.polynomials import MultiPoly, parse_poly
from ultralift.series import WeakCoeffMap, random_series
from ultralift.values import Ball, Value


def _identity_family(sampler):
    return OperatorFamily(ops=(lambda a: a,), value_nondecreasing=True,
                          sampler=sampler)


def test_eval_opoly_identity_operator(rng):
    fam = _identity_family(lambda r: random_series(QQ, 1, 10, r))
    F = OperatorPoly(MultiPoly(1, {(1,): 1}), fam)
    x = q_series({2: 5}, 10)
    assert eval_opoly(F, x) == x


def test_eval_opoly_derivative():
    ros = RosenlichtInstance(denom=1, trunc=Fraction(10))
    fam = OperatorFamily(ops=(lambda a: a, ros.D),
                         sampler=lambda r: ros.random_element(r, min_exp=1))
    F = OperatorPoly(MultiPoly(2, {(0, 1): 1}), fam)
    t2 = ros.series({2: 1})
    assert eval_opoly(F, t2) == ros.series({1: 2}, trunc=Fraction(9))


def test_eval_opoly_mixed_matches_symbolic():
    # f = X0*X1 - X2 with (id, D, D^2) at x = t^2: t^2*2t - 2 = 2t^3 - 2
    ros = RosenlichtInstance(denom=1, trunc=Fraction(10))
    fam = OperatorFamily(
        ops=(lambda a: a, ros.D, lambda a: ros.D_iter(a, 2)),
        sampler=lambda r: ros.random_element(r, min_exp=2))
    F = OperatorPoly(MultiPoly(3, {(1, 1, 0): 1, (0, 0, 1): -1}), fam)
    got = eval_opoly(F, ros.series({2: 1}))
    assert got.coeff_at(3) == 2 and got.coeff_at(0) == -2


# -- Taylor gap ----------------------------------------------------------


def test_taylor_gap_equal_tuples_vacuous():
    b = [padic(3, 1, 10), padic(3, 1, 10)]
    f = parse_poly("1*X0^2 + 1*X1", 2)
    rep = taylor_gap_check(f, b, b, b)
    assert rep.linear_gap_ok and rep.difference_bound_ok


def test_taylor_gap_linear_polynomial_exact():
    f = parse_poly("2*X0 + 5*X1", 2)
    b = [padic(3, 1, 10), padic(3, 2, 10)]
    y = [padic(3, 1 + 9, 10), padic(3, 2 + 27, 10)]
    z = [padic(3, 1 + 27, 10), padic(3, 2 + 9, 10)]
    rep = taylor_gap_check(f, b, y, z)
    assert rep.remainder_value >= Value(10)  # identically zero mod precision


def test_taylor_gap_square_over_3adics():
    f = parse_poly("1*X0^2", 1)
    b = [padic(3, 1, 12)]
    y = [padic(3, 1 + 9, 12)]
    z = [padic(3, 1 + 18, 12)]
    rep = taylor_gap_check(f, b, y, z)
    assert rep.linear_gap_ok and rep.difference_bound_ok
    assert rep.remainder_value > rep.slope_value + rep.min_move


def test_lemma37_inequalities_random(rng):
    # both characteristics, random polynomials and tuples in b + sM
    for _ in range(200):
        f = MultiPoly(2, {(rng.randrange(0, 3), rng.randrange(0, 3)):
                          rng.randrange(-9, 10) for _ in range(4)})
        if all(f.partial(i).is_zero() for i in range(2)):
            continue
        b = [random_padic(3, 10, rng), random_padic(3, 10, rng)]
        parts = [f.partial(i).eval(b) for i in range(2)]
        if all(p.is_zero_mod_precision() for p in parts):
            continue
        vs = min(p.value() for p in parts if not p.is_zero_mod_precision())
        if vs > Value(3):
            continue
        k = int(vs.amount) + 1
        y = [x + random_padic(3, 10, rng) * 3**k for x in b]
        z = [x + random_padic(3, 10, rng) * 3**k for x in b]
        rep = taylor_gap_check(f, b, y, z)
        if not rep.decided:
            continue
        assert rep.linear_gap_ok and rep.difference_bound_ok
    for _ in range(200):
        f = MultiPoly(2, {(rng.randrange(0, 3), rng.randrange(0, 3)):
                          rng.randrange(0, 2) for _ in range(4)})
        if all(f.partial(i).is_zero() for i in range(2)):
            continue
        b = [random_series(F2, 1, 10, rng), random_series(F2, 1, 10, rng)]
        parts = [f.partial(i).eval(b) for i in range(2)]
        if all(p.is_zero_mod_precision() for p in parts):
            continue
        vs = min(p.value() for p in parts if not p.is_zero_mod_precision())
        if vs > Value(3):
            continue  # keep the strict bounds decidable at trunc 10
        y = [x + random_series(F2, 1, 10, rng, min_exp=vs.amount + 1) for x in b]
        z = [x + random_series(F2, 1, 10, rng, min_exp=vs.amount + 1) for x in b]
        rep = taylor_gap_check(f, b, y, z)
        if not rep.decided:
            continue
        assert rep.linear_gap_ok and rep.difference_bound_ok


# -- solve_wcm ------------------------------------------------------------


def _rational_residue_solver(cs, target):
    # residue field Q; single identity operator: c_0 * x = target
    total = sum(cs, Fraction(0))
    if total == 0:
        return None
    return target / total


def test_solve_wcm_linear_is_division(rng):
    fam = _identity_family(lambda r: random_series(QQ, 1, 12, r))
    c = q_series({2: 3, 3: 1}, 12)
    F = OperatorPoly(MultiPoly(1, {(1,): 2}) - MultiPoly.constant(1, c), fam)
    co = WeakCoeffMap(q_series({}, 12))
    root, cert = solve_wcm(F, co, _rational_residue_solver,
                           q_series({}, 12), 10, rng=rng)
    # 2x = c, so x = c/2
    assert (root - c / 2).is_zero_mod_precision()


def test_solve_wcm_already_root(rng):
    fam = _identity_family(lambda r: random_series(QQ, 1, 12, r))
    F = OperatorPoly(MultiPoly(1, {(1,): 1}), fam)
    co = WeakCoeffMap(q_series({}, 12))
    root, cert = solve_wcm(F, co, _rational_residue_solver,
                           q_series({}, 12), 10, rng=rng)
    assert cert.outcome == "converged-at-precision" and root.is_zero_mod_precision()


def test_solve_wcm_correction_value_bound(rng):
    # phi = sum d_i sigma_i satisfies v(phi a) >= v(s) + v(a) per step
    fam = _identity_family(lambda r: random_series(QQ, 1, 12, r))
    c = q_series({1: 1, 2: 5, 4: Fraction(1, 3)}, 12)
    F = OperatorPoly(MultiPoly(1, {(1,): 2}) - MultiPoly.constant(1, c), fam)
    co = WeakCoeffMap(q_series({}, 12))
    ds_holder = {}
    b = q_series({}, 12)
    ds = F.derivatives(b)
    vs = min(d.value() for d in ds if not d.is_zero_mod_precision())
    corrections = []

    def watch(old, new):
        corrections.append(new - old)

    solve_wcm(F, co, _rational_residue_solver, b, 10, rng=rng, on_step=watch)
    assert corrections
    for a in corrections:
        phi_a = None
        for d, op in zip(ds, fam.ops):
            term = d * op(a)
            phi_a = term if phi_a is None else phi_a + term
        assert phi_a.value() >= vs + a.value()


def test_solve_wcm_non_surjective_residue_reports(rng):
    fam = _identity_family(lambda r: random_series(QQ, 1, 12, r))
    c = q_series({2: 3}, 12)
    F = OperatorPoly(MultiPoly(1, {(1,): 2}) - MultiPoly.constant(1, c), fam)
    co = WeakCoeffMap(q_series({}, 12))

    def refuse(cs, target):
        return None

    with pytest.raises(HypothesisViolation) as exc:
        solve_wcm(F, co, refuse, q_series({}, 12), 10, rng=rng)
    assert "surjective" in str(exc.value)


# -- solve_dominant / solve_rosenlicht ------------------------------------


def _integration_family(ros, n, e, witnesses=None):
    def hook(u):
        from ultralift.diff_fields import integrate
        for _ in range(n):
            u = integrate(ros, u)
        return u

    return OperatorFamily(
        ops=tuple((lambda a, k=i: ros.D_iter(a, k)) for i in range(n + 1)),
        dominant_index=n,
        inverse_hook=hook,
        hypothesis_e=e,
        rosenlicht_witnesses=witnesses,
        sampler=lambda r: ros.random_element(r, min_exp=3),
        domain_ball=Ball(ros.zero(), Value(3)),
    )


def test_solve_dominant_single_operator_exact_inverse(rng):
    # n = 0: sigma_0 = 2-fold scaling with exact inverse hook
    fam = OperatorFamily(
        ops=(lambda a: a * 2,),
        dominant_index=0,
        inverse_hook=lambda u: u / 2,
        sampler=lambda r: random_series(QQ, 1, 12, r, min_exp=1),
    )
    c = q_series({1: 4, 3: 6}, 12)
    F = OperatorPoly(MultiPoly(1, {(1,): 1}) - MultiPoly.constant(1, c), fam)
    root, cert = solve_dominant(F, q_series({}, 12), q_series({1: 1}, 12), 10,
                                rng=rng)
    assert (root * 2 - c).is_zero_mod_precision()


def test_solve_dominant_pure_integration(rng):
    ros = RosenlichtInstance(denom=1, trunc=Fraction(16))
    c = ros.series({2: 1})
    e = ros.series({3: 1})
    fam = _integration_family(ros, 1, e)
    F = OperatorPoly(MultiPoly(2, {(0, 1): -1}) + MultiPoly.constant(2, c), fam)
    root, cert = solve_dominant(F, ros.zero(), e, 14, rng=rng)
    # D y = c, i.e. y = t^3/3
    assert (ros.D(root) - c).is_zero_mod_precision()
    assert root.coeff_at(3) == Fraction(1, 3)


def test_solve_dominant_already_root(rng):
    ros = RosenlichtInstance(denom=1, trunc=Fraction(16))
    e = ros.series({3: 1})
    fam = _integration_family(ros, 1, e)
    F = OperatorPoly(MultiPoly(2, {(0, 1): 1}), fam)
    root, cert = solve_dominant(F, ros.zero(), e, 12, rng=rng)
    assert cert.outcome == "converged-at-precision"


def test_solve_rosenlicht_linear_matches_dominant(rng):
    ros = RosenlichtInstance(denom=1, trunc=Fraction(18))
    c = ros.series({3: 1, 5: 2})
    e = ros.series({3: 1})
    de = ros.D(e)
    wit = (de, e.one_like())
    fam_d = _integration_family(ros, 1, e)
    fam_r = _integration_family(ros, 1, e, witnesses=wit)
    F_d = OperatorPoly(MultiPoly(2, {(0, 1): -1}) + MultiPoly.constant(2, c), fam_d)
    F_r = OperatorPoly(MultiPoly(2, {(0, 1): -1}) + MultiPoly.constant(2, c), fam_r)
    r1, _ = solve_dominant(F_d, ros.zero(), e, 15, rng=random.Random(1))
    r2, _ = solve_rosenlicht(F_r, ros.zero(), 15, e=e, rng=random.Random(1))
    assert (r1 - r2).is_zero_mod_precision()


def test_rosenlicht_unit_witnesses_imply_dominance(rng):
    # with all witnesses = 1, the Rosenlicht inequalities say exactly that
    # the last operator is dominant; check_rosenlicht passing must imply
    # check_dominance passing on the same samples
    ros = RosenlichtInstance(denom=1, trunc=Fraction(16))
    one = ros.series({0: 1})
    fam = OperatorFamily(
        ops=(lambda a: a, ros.D),
        dominant_index=1,
        rosenlicht_witnesses=(one, one),
        sampler=lambda r: ros.random_element(r, min_exp=2),
    )
    fam.check_rosenlicht(random.Random(5), samples=8)
    fam.check_dominance(random.Random(5), samples=8)


def test_rosenlicht_higher_derivative_bound_violation_reported(rng):
    ros = RosenlichtInstance(denom=1, trunc=Fraction(16))
    e = ros.series({3: 1})
    de = ros.D(e)
    wit = (de, e.one_like())
    fam = _integration_family(ros, 1, e, witnesses=wit)
    # quadratic X0^2 with unit coefficient breaks the witness-weighted bound
    c = ros.series({3: 1})
    F = OperatorPoly(MultiPoly(2, {(2, 0): 1, (0, 1): -1})
                     + MultiPoly.constant(2, c), fam)
    with pytest.raises(HypothesisViolation) as exc:
        solve_rosenlicht(F, ros.zero(), 12, e=e, rng=rng)
    assert "multi-index" in str(exc.value)
