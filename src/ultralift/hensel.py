"""One- and multi-dimensional Newton lifting, the implicit function
theorem, pseudo-inverse lifting, and compositional inversion of series.

Every solver builds its uniqueness ball at the point b as given.
``newton_1d``, ``newton_nd`` (and ``implicit_fn``) and ``series_invert``
refresh the slope at each iterate y (f'(y), or J(y) with its determinant
and adjugate), and ``pseudo_inverse_lift`` carries its pseudo-inverse M
along by one Newton–Schulz step M <- M - M(J(y)M - E) per iterate, so N
digits take O(log N) steps.  The iterate is only a candidate, carried at
the working precision precision + 2 v(s) + 1, where ``newton_1d`` and
``newton_nd`` also read v f(b) when b's own cap fixes it for every lift
of b; the coefficients and the target keep their stated caps, so every
residual target - f(y) certifies against the inputs.
``pseudo_inverse_lift`` stays determinant-free: the pair (J(b), M°) is
checked at b as the paper states it, and no determinant or adjugate is
formed.  Only the differential solvers keep their slope frozen.

Every value inequality a solver checks on its data goes through
``values.require``; only the sampled ``witness_pseudo_linear``, the
predicate ``pseudo_inverse_pair_ok`` and the value identities of
``_check_gap`` stay outside it.  A hypothesis on the inputs
is decided strictly: one that their caps cannot settle raises
PrecisionLossError rather than passing.  A post-condition on a computed
quantity is checked against min(bound, its cap), since a root known to 10
digits cannot show a bound of 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import HypothesisViolation, UsageError
from .lifting import clip_accuracy, newton_drive
from .matrices import ValuedMatrix, jacobian
from .polynomials import MultiPoly, _zero_like
from .sampling import sample_near
from .values import (Ball, Value, ValuedVector, _as_value, require,
                     value_exceeds, value_min)


@dataclass(frozen=True)
class PseudoLinearWitness:
    """Sampled evidence that a map is pseudo-linear with the given slope
    on a ball: on every checked pair y != z,
    v(fy - fz - s(y - z)) > v(fy - fz) = v(s) + v(y - z)."""

    slope_value: Value
    domain_ball: Ball
    samples_checked: int


def witness_pseudo_linear(fmap: Callable, slope, ball: Ball, rng,
                          pairs: int = 50, attempts: int = 2000) -> PseudoLinearWitness:
    """Sample pairs from the ball and verify the pseudo-slope law; raises
    with the counterexample on the first failed pair."""
    vs = slope.value()
    checked = 0
    for _ in range(attempts):
        if checked >= pairs:
            break
        y = sample_near(ball.center, ball.radius, rng, strict=ball.strict)
        z = sample_near(ball.center, ball.radius, rng, strict=ball.strict)
        move = y - z
        if move.is_zero_mod_precision():
            continue
        gap = fmap(y) - fmap(z)
        linear = move * slope if not isinstance(move, ValuedVector) else \
            ValuedVector([m * slope for m in move])
        rem = gap - linear
        if gap.is_zero_mod_precision():
            continue
        if gap.value() != vs + move.value():
            raise HypothesisViolation(
                f"pseudo-slope law v(fy - fz) = v(s) + v(y - z) fails: "
                f"{gap.value()} != {vs + move.value()}",
                counterexample=(str(y), str(z)))
        if not rem.is_zero_mod_precision() and not rem.value() > gap.value():
            raise HypothesisViolation(
                "remainder bound v(fy - fz - s(y-z)) > v(fy - fz) fails",
                counterexample=(str(y), str(z)))
        checked += 1
    return PseudoLinearWitness(vs, ball, checked)


@dataclass(frozen=True)
class PseudoInversePair:
    """A matrix and a pseudo-inverse: both MM° - E and M°M - E have all
    entries of positive value.  Validated on construction."""

    M: ValuedMatrix
    Mo: ValuedMatrix

    def __post_init__(self):
        if not pseudo_inverse_pair_ok(self.M, self.Mo):
            raise HypothesisViolation(
                "not a pseudo-inverse pair: an entry of MM° - E or M°M - E "
                "has value <= 0")


def require_ring_coeffs(f: MultiPoly, what: str):
    """Every coefficient of f lies in the valuation ring (a rational
    coefficient is a unit or zero)."""
    for idx, c in f.terms.items():
        if hasattr(c, "value"):
            require(c, ">=", 0, f"v({what} coefficient at {idx}) >= 0", index=idx)


def _pad(x, cap: Value):
    """The candidate x re-expressed at ``cap``, a working precision such as
    precision + 2 v(s) + 1: each division by the slope s costs v(s) digits,
    and the quadratic step needs its residual known past 2 v(s)."""
    if isinstance(x, ValuedVector):
        return ValuedVector([_pad(e, cap) for e in x])
    return x.pad(cap.amount)


def _check_gap(root, b, expected: Value, known: Value, identity: str):
    """v(root - b) must equal ``expected`` below the precision to which
    root - b is known: its cap, and ``known`` = precision - v(slope), past
    which a root with residual value >= precision is not determined."""
    diff = root - b
    gap = diff.value()
    cap = min(diff.precision_cap(), known)
    if min(gap, cap) != min(expected, cap):
        raise HypothesisViolation(f"{identity} failed: {gap} != {expected}",
                                  gap=str(gap), expected=str(expected))


def newton_1d(f: MultiPoly, b, precision) -> tuple:
    """Lift a root of a univariate polynomial from an approximate one.

    Requires v f(b) > 2 v f'(b); returns the root a with
    v(a - b) = v f(b) - v f'(b) together with the run certificate, whose
    ball b + f'(b)M carries the uniqueness claim.
    """
    precision = _as_value(precision)
    if f.nvars != 1:
        raise UsageError("newton_1d expects a univariate polynomial")
    require_ring_coeffs(f, "f")
    require(b, ">=", 0, "v(b) >= 0")
    df = f.partial(0)
    s = df.eval([b])
    if s.is_zero_mod_precision():
        raise HypothesisViolation(
            "f'(b) vanishes modulo precision; no pseudo-slope available",
            cap=str(s.precision_cap()))
    vs = s.value()
    work = precision + 2 * vs + 1
    start = _pad(b, work)
    # lifts of b differ in f by value >= vs + cap(b), past 2 vs when
    # cap(b) > vs: only then may the padded start decide the hypothesis
    fb = f.eval([start if b.precision_cap() > vs else b])
    require(fb, ">", 2 * vs, "v f(b) > 2 v f'(b)")
    root, cert = newton_drive(
        lambda y: f.eval([y]),
        lambda y, r: _pad(r / df.eval([y]), work),
        start,
        _zero_like(start),
        precision,
        uniqueness_ball=Ball(b, vs, strict=True),
    )
    _check_gap(root, b, fb.value() - vs, precision - vs,
               "value identity v(a-b) = vf(b) - vf'(b)")
    # the returned representative carries `precision` digits: every element
    # of its accuracy class (width precision - vs) keeps v f(a) >= precision
    return clip_accuracy(root, precision), cert


def newton_nd(fs: Sequence[MultiPoly], b, precision) -> tuple:
    """Multi-dimensional Newton lifting via the adjugate.

    The hypotheses are checked with the Jacobian at b; each step is
    a <- a - J*_f(a) f(a) / det J_f(a), and the driver watches the plain
    residual f(a) up to the requested precision.
    """
    precision = _as_value(precision)
    fs = list(fs)
    b = ValuedVector(b)
    n = len(fs)
    if n != len(b):
        raise UsageError("system size and point size differ")
    for f in fs:
        require_ring_coeffs(f, "system entry")
    require(b, ">=", 0, "v(b) >= 0")
    J = jacobian(fs, list(b))
    s = J.determinant()
    if s.is_zero_mod_precision():
        raise HypothesisViolation(
            "singular: det J_f(b) vanishes modulo precision",
            kind="singular", cap=str(s.precision_cap()))
    vs = s.value()
    work = precision + 2 * vs + 1

    def fmap(y: ValuedVector) -> ValuedVector:
        return ValuedVector([f.eval(list(y)) for f in fs])

    def companion(y: ValuedVector, r: ValuedVector) -> ValuedVector:
        Jy = jacobian(fs, list(y))
        det = Jy.determinant()
        return _pad(ValuedVector([x / det for x in Jy.adjugate().apply(r)]), work)

    start = _pad(b, work)
    # J is integral, so lifts of b differ in f by value >= cap(b): the
    # padded start may decide the hypothesis only when cap(b) > 2 v(s)
    fb = fmap(start if b.precision_cap() > 2 * vs else b)
    require(fb, ">", 2 * vs, "v f(b) > 2 v det J_f(b)")
    target = ValuedVector([_zero_like(x) for x in start])
    root, cert = newton_drive(fmap, companion, start, target, precision,
                              uniqueness_ball=Ball(b, vs, strict=True))
    _check_gap(root, b, J.adjugate().apply(fb).value() - vs, precision - vs,
               "value identity v(a-b) = v(J*f(b)) - v det J")
    return clip_accuracy(root, precision), cert


def implicit_fn(fs: Sequence[MultiPoly], z, x_new, precision) -> tuple:
    """Solve f(x', Y) = 0 near a known common zero (x, y).

    ``fs`` are n polynomials in m+n variables (X block first); ``z`` is the
    known zero, ``x_new`` the replacement X block.  Requires
    v(x_i - x'_i) > 2 v det J(z) for the Y-block Jacobian J.
    """
    precision = _as_value(precision)
    fs = list(fs)
    z = list(z)
    x_new = list(x_new)
    n = len(fs)
    m = len(x_new)
    if any(f.nvars != m + n for f in fs):
        raise UsageError(f"system must live in {m}+{n} variables")
    for f in fs:
        require_ring_coeffs(f, "system entry")
    fz = [f.eval(z) for f in fs]
    for k, v in enumerate(fz):
        if not v.is_zero_mod_precision():
            raise HypothesisViolation(
                f"z is not a common zero: v f_{k}(z) = {v.value()}", index=k)
    Jz = ValuedMatrix([[f.partial(m + i).eval(z) for i in range(n)] for f in fs])
    det = Jz.determinant()
    if det.is_zero_mod_precision():
        raise HypothesisViolation("singular Y-block Jacobian at z", kind="singular")
    vdet = det.value()
    shift = value_min([(xo - xn).value() for xo, xn in zip(z[:m], x_new)])
    for i, (xo, xn) in enumerate(zip(z[:m], x_new)):
        require(xo - xn, ">", 2 * vdet, f"v(x_{i} - x'_{i}) > 2 v det J(z)", index=i)
    gs = [f.substitute({j: x_new[j] for j in range(m)}) for f in fs]
    y0 = ValuedVector(z[m:])
    roots, cert = newton_nd(gs, y0, precision)
    moved = roots - y0
    require(moved, ">=", min(shift - vdet, moved.precision_cap()),
            "post min v(y - y') >= min v(x - x') - v det J(z)")
    return roots, cert


def pseudo_inverse_pair_ok(M: ValuedMatrix, Mo: ValuedMatrix) -> bool:
    """Both MM° - E and M°M - E must have entries of positive value."""
    E = M.identity_like()
    for prod in (M * Mo - E, Mo * M - E):
        for row in prod.rows:
            for e in row:
                if not value_exceeds(e, 0):
                    return False
    return True


def pseudo_inverse_lift(fs: Sequence[MultiPoly], b, Mo: ValuedMatrix,
                        precision) -> tuple:
    """Determinant-free lifting: iterate a <- a - M f(a), where M starts
    at M°, a pseudo-inverse of the Jacobian at b, and takes one
    Newton–Schulz step M <- M - M(J(a)M - E) before each use.  The unique
    zero sits on the maximal-ideal ball around b and satisfies
    v(b - a) = v f(b)."""
    precision = _as_value(precision)
    fs = list(fs)
    b = ValuedVector(b)
    if isinstance(Mo, PseudoInversePair):
        Mo = Mo.Mo
    for f in fs:
        require_ring_coeffs(f, "system entry")
    require(b, ">=", 0, "v(b) >= 0")
    for i, row in enumerate(Mo.rows):
        for j, e in enumerate(row):
            require(e, ">=", 0, f"v(M°[{i}][{j}]) >= 0")
    J = jacobian(fs, list(b))
    PseudoInversePair(J, Mo)  # validates the pair invariant
    fb = ValuedVector([f.eval(list(b)) for f in fs])
    require(fb, ">", 0, "v f(b) > 0")

    def fmap(y: ValuedVector) -> ValuedVector:
        return ValuedVector([f.eval(list(y)) for f in fs])

    E = Mo.identity_like()
    M = Mo

    def companion(y: ValuedVector, r: ValuedVector) -> ValuedVector:
        # one Newton–Schulz step at y: v(y - b) > 0 keeps J(y) ≡ J(b) mod
        # the maximal ideal, so v(J(y)M - E) > 0 and its value doubles
        nonlocal M
        M = M - M * (jacobian(fs, list(y)) * M - E)
        return M.apply(r)

    target = ValuedVector([_zero_like(x) for x in b])
    ball = Ball(b, Value(0), strict=True)
    root, cert = newton_drive(
        fmap,
        companion,
        b,
        target,
        precision,
        uniqueness_ball=ball,
    )
    _check_gap(root, b, fb.value(), precision, "value map identity v(b - a) = v f(b)")
    return clip_accuracy(root, precision), cert


def series_invert(coeffs: Sequence, z_prime, precision) -> tuple:
    """Invert y -> sum_i c_i y^i (c_1 a unit) on the valuation ideal:
    find y with v(y) > 0 and f(y) = z' modulo the precision."""
    precision = _as_value(precision)
    coeffs = list(coeffs)
    if not coeffs:
        raise UsageError("series_invert needs at least the linear coefficient")
    field = z_prime.field
    c1 = field.coerce(coeffs[0])
    if field.is_zero(c1):
        raise HypothesisViolation("the linear coefficient c_1 vanishes")
    require(z_prime, ">", 0, "v(z') > 0")

    f = MultiPoly(1, {(i,): field.coerce(c) for i, c in enumerate(coeffs, start=1)})
    df = f.partial(0)
    # the slope f'(y) is a unit on the valuation ideal: v(s) = 0
    work = precision + 1
    root, cert = newton_drive(
        lambda y: f.eval([y]),
        lambda y, r: _pad(r / df.eval([y]), work),
        _pad(z_prime.zero_like(), work),
        z_prime,
        precision,
        uniqueness_ball=Ball(z_prime.zero_like(), Value(0), strict=True),
    )
    return clip_accuracy(root, precision), cert
