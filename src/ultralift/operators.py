"""Polynomials evaluated at tuples of additive operators, and the three
solver regimes: weak-coefficient-map, dominant operator, Rosenlicht system.

Family axioms that quantify over all ring elements (additivity, value
growth, dominance, the Rosenlicht inequalities) are TRUSTED but SAMPLED:
they are checked on randomly drawn elements plus adversarial variants
(leading monomials, cancelling sums); a failed sample aborts the run with
the counterexample.

The value inequalities on the run's own data (coefficients, start, v f(b),
the higher-derivative bounds, the remainder law, the post-conditions) go
through ``values.require``, under the rule stated in ``hensel``: decided
strictly on inputs and iterates, and against min(bound, cap) on the moved
root.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from .errors import HypothesisViolation, UsageError
from .hensel import require_ring_coeffs
from .lifting import clip_accuracy, newton_drive
from .polynomials import MultiPoly, _zero_like
from .series import TruncatedSeries, WeakCoeffMap
from .values import (Ball, Value, _as_value, require, value_at_least, value_exceeds,
                     value_min)


@dataclass
class OperatorFamily:
    """Additive self-maps sigma_0..sigma_n of the valuation ring with
    declared structural flags and, for the distinguished operator, an
    inverse hook a' -> a with v(a' - sigma a) > v(a')."""

    ops: Tuple[Callable, ...]
    value_nondecreasing: bool = False
    dominant_index: Optional[int] = None
    rosenlicht_witnesses: Optional[Tuple] = None
    inverse_hook: Optional[Callable] = None
    hypothesis_e: Optional[object] = None
    sampler: Optional[Callable] = None
    domain_ball: Optional[Ball] = None
    name: str = "family"

    @property
    def arity(self) -> int:
        return len(self.ops)

    # -- sampled axiom checks -----------------------------------------

    def _draws(self, rng, samples):
        if self.sampler is None:
            return []
        out = []
        for _ in range(samples):
            a = self.sampler(rng)
            out.append(a)
            if isinstance(a, TruncatedSeries) and not a.is_zero_mod_precision():
                e, c = a.leading()
                out.append(TruncatedSeries(a.field, a.denom, {e: c}, a.trunc))
        # cancelling sums: pairs whose difference drops the leading term
        for i in range(0, len(out) - 1, 2):
            out.append(out[i] - out[i + 1])
        return [a for a in out if not a.is_zero_mod_precision()]

    def check_additivity(self, rng, samples=6):
        draws = self._draws(rng, samples)
        for i, op in enumerate(self.ops):
            for a, b in zip(draws, draws[1:]):
                gap = op(a + b) - op(a) - op(b)
                if not gap.is_zero_mod_precision():
                    raise HypothesisViolation(
                        f"operator {i} is not additive on a sample",
                        index=i, counterexample=(str(a), str(b)))

    def check_value_nondecreasing(self, rng, samples=6):
        draws = self._draws(rng, samples)
        for i, op in enumerate(self.ops):
            for a in draws:
                image = op(a)
                if image.is_zero_mod_precision():
                    continue
                if image.value() < a.value():
                    raise HypothesisViolation(
                        f"v(sigma_{i} a) >= v(a) fails on a sample",
                        index=i, counterexample=str(a),
                        va=str(a.value()), vsa=str(image.value()))

    def check_dominance(self, rng, samples=6):
        if self.dominant_index is None:
            raise UsageError("family declares no dominant operator")
        n = self.dominant_index
        draws = self._draws(rng, samples)
        for a in draws:
            images = [op(a) for op in self.ops]
            if all(im.is_zero_mod_precision() for im in images):
                continue
            vn = images[n].value()
            others = [images[j].value() for j in range(len(self.ops)) if j != n]
            if others and not all(vn < v for v in others):
                raise HypothesisViolation(
                    "dominance fails on a sample: "
                    f"v(sigma_{n} a) = {vn} not below {[str(v) for v in others]}",
                    counterexample=str(a))

    def check_rosenlicht(self, rng, samples=6):
        if self.rosenlicht_witnesses is None:
            raise UsageError("family declares no Rosenlicht witnesses")
        es = list(self.rosenlicht_witnesses)
        if len(es) != self.arity:
            raise UsageError("need one witness per operator")
        last = es[-1]
        if not (last - last.one_like()).is_zero_mod_precision():
            raise HypothesisViolation("the last Rosenlicht witness must be 1")
        vals = [e.value() for e in es]
        for v1, v2 in zip(vals, vals[1:]):
            if not v1 >= v2:
                raise HypothesisViolation(
                    f"witness values must be non-increasing: {[str(v) for v in vals]}")
        if vals[-1] != Value(0):
            raise HypothesisViolation("the last witness must have value 0")
        n = self.arity - 1
        for a in self._draws(rng, samples):
            img_n = self.ops[n](a)
            if img_n.is_zero_mod_precision():
                continue
            vn = img_n.value()
            for i in range(n):
                img = self.ops[i](a)
                lhs = vals[i] + img.value()
                if not lhs > vn:
                    raise HypothesisViolation(
                        f"v(e_{i}) + v(sigma_{i} a) > v(sigma_{n} a) fails",
                        counterexample=str(a), lhs=str(lhs), rhs=str(vn))


@dataclass
class OperatorPoly:
    """A polynomial together with the operator family it is evaluated at:
    F(x) = f(sigma_0 x, ..., sigma_n x)."""

    poly: MultiPoly
    family: OperatorFamily

    def __post_init__(self):
        if self.poly.nvars != self.family.arity:
            raise UsageError(
                f"polynomial in {self.poly.nvars} variables against "
                f"{self.family.arity} operators")

    def op_point(self, x) -> list:
        return [op(x) for op in self.family.ops]

    def eval(self, x):
        return self.poly.eval(self.op_point(x))

    def derivatives(self, b) -> list:
        pt = self.op_point(b)
        return [self.poly.partial(i).eval(pt) for i in range(self.poly.nvars)]


def eval_opoly(F: OperatorPoly, x):
    """Evaluate f^sigma at x (x must lie in the valuation ring)."""
    if not (x.is_zero_mod_precision() or value_at_least(x, 0)):
        raise UsageError(f"point has negative value {x.value()}")
    return F.eval(x)


@dataclass(frozen=True)
class TaylorGapReport:
    slope_value: Value
    min_move: Value
    remainder_value: Value
    difference_value: Value
    linear_gap_ok: bool
    difference_bound_ok: bool
    decided: bool = True  # False when truncation orders cannot settle the bounds


def taylor_gap_check(f: MultiPoly, b: Sequence, y: Sequence, z: Sequence) -> TaylorGapReport:
    """Check the two Taylor-gap inequalities for a polynomial at tuples
    y, z near b: the remainder after the frozen linear part exceeds
    v(s) + min v(y_i - z_i), and the plain difference reaches it."""
    b, y, z = list(b), list(y), list(z)
    n = f.nvars
    if not (len(b) == len(y) == len(z) == n):
        raise UsageError("tuple arity mismatch")
    partials = [f.partial(i).eval(b) for i in range(n)]
    vs = value_min([d.value() for d in partials])
    if vs.is_infinite:
        raise HypothesisViolation("all first derivatives vanish at b")
    for i in range(n):
        for w in (y, z):
            if not (w[i] - b[i]).is_zero_mod_precision() and not value_exceeds(w[i] - b[i], vs):
                raise HypothesisViolation(
                    f"tuple entry {i} is outside b + sM", index=i,
                    value=str((w[i] - b[i]).value()))
    moves = [(yi - zi) for yi, zi in zip(y, z)]
    min_move = value_min([m.value() for m in moves])
    fy = f.eval(y)
    fz = f.eval(z)
    diff = fy - fz
    linear = None
    for m, d in zip(moves, partials):
        term = m * d
        linear = term if linear is None else linear + term
    remainder = diff - linear
    bound = vs + min_move
    rem_v = remainder.value()
    diff_v = diff.value()
    all_zero = all(m.is_zero_mod_precision() for m in moves)
    undecided = (not all_zero
                 and ((remainder.is_zero_mod_precision() and rem_v <= bound)
                      or (diff.is_zero_mod_precision() and diff_v < bound)))
    return TaylorGapReport(
        slope_value=vs,
        min_move=min_move,
        remainder_value=rem_v,
        difference_value=diff_v,
        linear_gap_ok=True if all_zero else rem_v > bound,
        difference_bound_ok=True if all_zero else diff_v >= bound,
        decided=not undecided,
    )


def _entry_checks(F: OperatorPoly, b, rng, samples):
    if rng is None:
        rng = random.Random(0)
    F.family.check_additivity(rng, samples)
    require(b, ">=", 0, "v(b) >= 0")
    require_ring_coeffs(F.poly, "polynomial")
    return rng


def solve_wcm(F: OperatorPoly, co: WeakCoeffMap, residue_solver: Callable,
              b, precision, *, rng=None, samples: int = 6,
              on_step: Optional[Callable] = None) -> tuple:
    """Hensel lifting through a weak coefficient map.

    Each step reads the leading coefficient of the residual, solves the
    induced residue equation sum c_i sigmabar_i = co(s^-1 a') with the
    supplied residue solver, lifts the answer to a correction of value
    v(residual) - v(s), and adds it.
    """
    precision = _as_value(precision)
    rng = _entry_checks(F, b, rng, samples)
    if not F.family.value_nondecreasing:
        raise HypothesisViolation("family does not declare v(sigma a) >= v(a)")
    F.family.check_value_nondecreasing(rng, samples)
    _check_unit_commutation(F, co, rng, samples)

    ds = F.derivatives(b)
    finite = [d.value() for d in ds if not d.is_zero_mod_precision()]
    if not finite:
        raise HypothesisViolation("all derivatives d_i vanish modulo precision")
    vs = value_min(finite)
    require(F.eval(b), ">", 2 * vs, "v f^sigma(b) > 2 v(s)")
    cs = [co.co(d.shift(-vs.amount)) if (not d.is_zero_mod_precision()
                                         and d.value() == vs)
          else co.field.zero
          for d in ds]

    def companion(_y, r):
        target_bar = co.co(r)
        bar = residue_solver(cs, target_bar)
        if bar is None or co.field.is_zero(co.field.coerce(bar)):
            raise HypothesisViolation(
                "residue operator is not surjective: no solution of "
                f"sum c_i sigmabar_i x = {co.field.show(target_bar)} with "
                f"c = {[co.field.show(c) for c in cs]}",
                equation=[co.field.show(c) for c in cs],
                target=co.field.show(target_bar))
        alpha = r.value() - vs
        return co.lift(bar, alpha.amount, trunc=r.precision_cap().amount)

    root, cert = newton_drive(
        F.eval, companion, b, _zero_like(b), precision,
        uniqueness_ball=Ball(b, vs, strict=True), on_step=on_step)
    moved = root - b
    require(moved, ">", min(vs, moved.precision_cap()), "post v(a - b) > v(s)")
    return clip_accuracy(root, precision), cert


def _check_unit_commutation(F: OperatorPoly, co: WeakCoeffMap, rng, samples):
    """Sampled form of: unit multiples of the operators commute with the
    coefficient map (v(sigma_i(m a) - m sigma_i a) > 0 for m = t^-v(a))."""
    draws = F.family._draws(rng, samples)
    for a in draws:
        if a.is_zero_mod_precision():
            continue
        va = a.value().amount
        shifted = a.shift(-va)
        for i, op in enumerate(F.family.ops):
            gap = op(shifted) - op(a).shift(-va)
            if not gap.is_zero_mod_precision() and not gap.value() > Value(0):
                raise HypothesisViolation(
                    f"operator {i} does not commute with the monomial section "
                    "modulo the valuation ideal",
                    index=i, counterexample=str(a), gap=str(gap.value()))


def solve_dominant(F: OperatorPoly, b, e, precision, *, rng=None,
                   samples: int = 6) -> tuple:
    """Hensel lifting when the last operator dominates: corrections come
    from the family's inverse hook applied to residual / d_n."""
    precision = _as_value(precision)
    rng = _entry_checks(F, b, rng, samples)
    n = F.family.arity - 1
    if F.family.dominant_index != n:
        raise HypothesisViolation("family must declare the last operator dominant")
    if F.family.inverse_hook is None:
        raise UsageError("solve_dominant needs the family's inverse hook")
    F.family.check_dominance(rng, samples)

    ds = F.derivatives(b)
    d_n = ds[n]
    if d_n.is_zero_mod_precision():
        raise HypothesisViolation("d_n vanishes modulo precision")
    vdn = d_n.value()
    finite = [d.value() for d in ds if not d.is_zero_mod_precision()]
    if value_min(finite) != vdn:
        raise HypothesisViolation(
            f"v(d_n) = {vdn} is not the minimal derivative value "
            f"{value_min(finite)}")
    sigma_n_e = F.family.ops[n](e)
    v_target = vdn + sigma_n_e.value()
    require(F.eval(b), ">=", v_target, "v f^sigma(b) >= v(d_n) + v(sigma_n e)")

    hook = F.family.inverse_hook

    def companion(_y, r):
        return hook(r / d_n)

    ball = F.family.domain_ball
    root, cert = newton_drive(
        F.eval, companion, b, _zero_like(b), precision,
        uniqueness_ball=ball)
    _require_post_image(F, root - b, sigma_n_e)
    return root, cert


def solve_rosenlicht(F: OperatorPoly, b, precision, *, e=None, rng=None,
                     samples: int = 6) -> tuple:
    """Dominant-operator lifting under the sharper Rosenlicht hypotheses:
    the higher Hasse derivatives obey the witness-weighted bound and every
    accepted step is re-checked against the remainder law
    v(f(y) - f(z) - d_n (y_n - z_n)) > v(d_n (y_n - z_n))."""
    precision = _as_value(precision)
    rng = _entry_checks(F, b, rng, samples)
    fam = F.family
    n = fam.arity - 1
    if fam.rosenlicht_witnesses is None:
        raise HypothesisViolation("family declares no Rosenlicht witnesses")
    if fam.inverse_hook is None:
        raise UsageError("solve_rosenlicht needs the family's inverse hook")
    fam.check_rosenlicht(rng, samples)
    e = e if e is not None else fam.hypothesis_e
    if e is None:
        raise UsageError("solve_rosenlicht needs the hypothesis element e")

    pt = F.op_point(b)
    ds = F.derivatives(b)
    d_n = ds[n]
    if d_n.is_zero_mod_precision():
        raise HypothesisViolation("d_n vanishes modulo precision")
    vdn = d_n.value()
    witnesses = list(fam.rosenlicht_witnesses)
    for idx in F.poly.multi_indices():
        k = min(j for j, ij in enumerate(idx) if ij)
        require(F.poly.hasse(idx).eval(pt), ">=", vdn + witnesses[k].value(),
                f"higher-derivative bound v f^[i](b) >= v(d_n) + v(e_{k}) at "
                f"multi-index i = {idx}", index=idx)
    sigma_n_e = fam.ops[n](e)
    v_target = vdn + sigma_n_e.value()
    require(F.eval(b), ">=", v_target, "v f^sigma(b) >= v(d_n) + v(sigma_n e)")

    hook = fam.inverse_hook

    def companion(_y, r):
        return hook(r / d_n)

    def remainder_law(y_old, y_new):
        yv = F.op_point(y_old)
        zv = F.op_point(y_new)
        move_n = yv[n] - zv[n]
        if move_n.is_zero_mod_precision():
            return
        linear = d_n * move_n
        require(F.poly.eval(yv) - F.poly.eval(zv) - linear, ">", linear.value(),
                "remainder law v(f(y) - f(z) - d_n(y_n - z_n)) > v(d_n(y_n - z_n))")

    root, cert = newton_drive(
        F.eval, companion, b, _zero_like(b), precision,
        uniqueness_ball=fam.domain_ball, on_step=remainder_law)
    _require_post_image(F, root - b, sigma_n_e)
    return root, cert


def _require_post_image(F: OperatorPoly, moved, sigma_n_e):
    """Post-condition of both dominant solvers: the move a - b stays in the
    hypothesis ball, v(sigma_n(a - b)) >= v(sigma_n e)."""
    image = F.family.ops[-1](moved)
    require(image, ">=", min(sigma_n_e.value(), image.precision_cap()),
            "post v(sigma_n(a - b)) >= v(sigma_n e)")
