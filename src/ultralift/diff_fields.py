"""Concrete valued differential structures.

Two instances drive everything here:

* ``VDFieldInstance`` -- truncated series over the F_p tower with
  D = (coefficientwise Frobenius) - id.  The twisted Leibniz rule holds
  exactly with twist 1, every unit monomial is a value witness, and the
  induced residue operator is Frobenius - id, whose equations reduce to
  additive polynomials over the tower.

* ``RosenlichtInstance`` -- truncated series over the rationals with the
  formal derivative d/dt.  The constants represent the residue field and
  the l'Hopital axiom holds on the grid; d/dt does not map the valuation
  ideal into itself globally, so the solvers keep every intermediate
  exponent inside the safe region and fail loudly at the t^-1 obstruction.
"""

from __future__ import annotations

import math
import random
from dataclasses import InitVar, dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import (HypothesisViolation, NoAsymptoticIntegral,
                     PrecisionLossError, ResourceCapError, UsageError)
from .fftower import additive_poly_solve
from .lifting import clip_accuracy, newton_drive
from .operators import OperatorFamily, OperatorPoly, solve_dominant, solve_rosenlicht, solve_wcm
from .polynomials import MultiPoly, unit_index
from .series import (RationalField, TowerField, TruncatedSeries, WeakCoeffMap,
                     _frac, _series, random_series)
from .values import Ball, Value, _as_value, require


# ---------------------------------------------------------------------------
# the VD instance


@dataclass
class VDFieldInstance:
    """F_p-tower coefficients, D = coefficientwise Frobenius minus id."""

    p: int
    trunc: Fraction = Fraction(12)
    denom: int = 1
    tower_degree_cap: InitVar[int] = 64

    def __post_init__(self, tower_degree_cap):
        object.__setattr__(self, "trunc", _frac(self.trunc))
        # the field holds the cap: on literal levels and additive-solve degrees
        self.field = TowerField(self.p, level_cap=tower_degree_cap)
        self.tower = self.field.tower

    def series(self, terms, trunc=None) -> TruncatedSeries:
        return TruncatedSeries(self.field, self.denom, terms,
                               self.trunc if trunc is None else trunc)

    def zero(self, trunc=None) -> TruncatedSeries:
        return self.series({}, trunc)

    def monomial(self, exp, coeff=1, trunc=None) -> TruncatedSeries:
        return self.series({_frac(exp): coeff}, trunc)

    def D(self, a: TruncatedSeries) -> TruncatedSeries:
        return a.map_coeffs(lambda c: c.frobenius() - c)

    def D_iter(self, a: TruncatedSeries, i: int) -> TruncatedSeries:
        for _ in range(i):
            a = self.D(a)
        return a

    def residue_D(self, c):
        return c.frobenius() - c

    def random_element(self, rng, *, min_exp=0, max_terms=5,
                       max_level=2) -> TruncatedSeries:
        lo = int(_frac(min_exp) * self.denom)
        hi = int(self.trunc * self.denom)
        terms = {}
        for _ in range(rng.randrange(0, max_terms + 1)):
            e = Fraction(rng.randrange(lo, hi), self.denom)
            terms[e] = self.tower.random(rng, rng.randrange(1, max_level + 1))
        return self.series(terms)


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    ok: bool
    counterexample: Optional[str] = None


def vd_axiom_report(inst: VDFieldInstance, samples: int = 20,
                    seed: int = 0) -> List[AxiomCheck]:
    """Per-axiom pass/fail report for the VD instance, with a
    counterexample on failure."""
    rng = random.Random(seed)
    out = []
    draws = [inst.random_element(rng) for _ in range(samples)]

    bad = next((a for a in draws
                if not a.is_zero_mod_precision()
                and not inst.D(a).is_zero_mod_precision()
                and inst.D(a).value() < a.value()), None)
    out.append(AxiomCheck("value-growth v(Da) >= v(a)", bad is None,
                          None if bad is None else str(bad)))

    # value witnesses: prime-field monomials are killed by D
    witness_bad = None
    for _ in range(samples):
        g = Fraction(rng.randrange(0, int(inst.trunc * inst.denom)), inst.denom)
        m = inst.monomial(g)
        if not inst.D(m).is_zero_mod_precision():
            witness_bad = str(m)
            break
    out.append(AxiomCheck("value witnesses v(D t^g) > g", witness_bad is None,
                          witness_bad))

    leib_bad = None
    for a, b in zip(draws, draws[1:]):
        gap = inst.D(a * b) - (a * inst.D(b) + b * inst.D(a)
                               + inst.D(a) * inst.D(b))
        if not gap.is_zero_mod_precision():
            leib_bad = f"a={a}, b={b}"
            break
    out.append(AxiomCheck("twisted Leibniz rule (twist 1)", leib_bad is None,
                          leib_bad))

    res_bad = None
    for a in draws:
        lhs = inst.D(a).coeff_at(0)
        rhs = inst.residue_D(a.coeff_at(0))
        if not (lhs - rhs).is_zero():
            res_bad = str(a)
            break
    out.append(AxiomCheck("residue compatibility (Da)v = Dbar(av)",
                          res_bad is None, res_bad))

    one = inst.monomial(0)
    out.append(AxiomCheck("D1 = 0", inst.D(one).is_zero_mod_precision(), None))
    return out


def d_solve(inst: VDFieldInstance, a_prime: TruncatedSeries, precision) -> TruncatedSeries:
    """Solve D a = a' modulo the precision, one Artin-Schreier equation
    x^p - x = coefficient per exponent."""
    precision = _frac(_as_value(precision).amount)
    if a_prime.trunc < precision:
        raise PrecisionLossError(
            f"target known only to O(t^{a_prime.trunc}) < requested {precision}")
    minus_one = inst.tower.from_int(-1)
    one = inst.tower.one()
    terms = {}
    for e, c in a_prime.terms:
        if e >= precision:
            break
        terms[e] = additive_poly_solve([minus_one, one], c,
                                       degree_cap=inst.field.level_cap)
    return inst.series(terms, trunc=precision)


def _vd_family(inst: VDFieldInstance, n: int) -> OperatorFamily:
    ops = tuple((lambda a, k=i: inst.D_iter(a, k)) for i in range(n + 1))
    return OperatorFamily(
        ops=ops,
        value_nondecreasing=True,
        sampler=lambda rng: inst.random_element(rng),
        name=f"(id, D, ..., D^{n}) on F_{inst.p}-tower series",
    )


def _vd_residue_solver(inst: VDFieldInstance):
    def solver(cs, target):
        p = inst.p
        n = len(cs) - 1
        bs = []
        for j in range(n + 1):
            acc = inst.tower.zero()
            for i in range(j, n + 1):
                w = math.comb(i, j) * (-1) ** (i - j)
                acc = acc + cs[i] * inst.tower.from_int(w)
            bs.append(acc)
        if all(b.is_zero() for b in bs):
            return None
        try:
            return additive_poly_solve(bs, target, degree_cap=inst.field.level_cap)
        except ResourceCapError:
            return None

    return solver


def dhensel_solve(inst: VDFieldInstance, f: MultiPoly, b: TruncatedSeries,
                  precision, *, rng=None, samples: int = 6) -> Tuple:
    """D-Hensel lifting: solve f(a, Da, ..., D^n a) = 0 from the start b.

    Instantiates the weak-coefficient-map solver with the operators D^i,
    the unit-monomial section, and the residue solver that expands
    sum c_i Dbar^i into an additive polynomial over the tower.
    """
    family = _vd_family(inst, f.nvars - 1)
    F = OperatorPoly(f, family)
    proto = inst.zero()
    co = WeakCoeffMap(proto)
    return solve_wcm(F, co, _vd_residue_solver(inst), b, precision,
                     rng=rng, samples=samples)


# ---------------------------------------------------------------------------
# the Rosenlicht instance


@dataclass
class RosenlichtInstance:
    """Rational-grid series with the formal derivative d/dt."""

    denom: int = 1
    trunc: Fraction = Fraction(20)

    def __post_init__(self):
        object.__setattr__(self, "trunc", _frac(self.trunc))
        self.field = RationalField()

    def series(self, terms, trunc=None) -> TruncatedSeries:
        return TruncatedSeries(self.field, self.denom, terms,
                               self.trunc if trunc is None else trunc)

    def zero(self, trunc=None) -> TruncatedSeries:
        return self.series({}, trunc)

    def monomial(self, exp, coeff=1, trunc=None) -> TruncatedSeries:
        return self.series({_frac(exp): coeff}, trunc)

    def D(self, a: TruncatedSeries) -> TruncatedSeries:
        return a.differentiate()

    def D_iter(self, a: TruncatedSeries, i: int) -> TruncatedSeries:
        for _ in range(i):
            a = self.D(a)
        return a

    def random_element(self, rng, *, min_exp=0, max_terms=6) -> TruncatedSeries:
        return random_series(self.field, self.denom, self.trunc, rng,
                             min_exp=min_exp, max_terms=max_terms)


def asymptotic_integrate(inst: RosenlichtInstance, a_prime: TruncatedSeries) -> TruncatedSeries:
    """One-term asymptotic integral: integrate the leading term only,
    so v(a' - Da) > v(a') and the result has nonzero value."""
    if a_prime.is_zero_mod_precision():
        return inst.zero(trunc=a_prime.trunc + 1)
    g, c = a_prime.leading()
    if g == -1:
        raise NoAsymptoticIntegral(
            "leading exponent -1: t^-1 has no asymptotic integral on the grid",
            exponent=str(g))
    return TruncatedSeries(a_prime.field, a_prime.denom,
                           {g + 1: c / (g + 1)}, a_prime.trunc + 1)


def integrate(inst: RosenlichtInstance, a_prime: TruncatedSeries,
              precision=None) -> TruncatedSeries:
    """Exact termwise integration; refuses the t^-1 obstruction."""
    if precision is not None:
        need = _frac(_as_value(precision).amount)
        if a_prime.trunc < need:
            raise PrecisionLossError(
                f"integrand known only to O(t^{a_prime.trunc}) < requested {need}")
    d = a_prime.denom
    if -d in a_prime.idx:
        raise NoAsymptoticIntegral(
            "integrand contains the exponent -1; no primitive on the grid",
            exponent="-1")
    return _series(a_prime.field, d, [k + d for k in a_prime.idx],
                   [c / Fraction(k + d, d) for k, c in zip(a_prime.idx, a_prime.coeffs)],
                   a_prime.ntrunc + d)


def integrate_iterative(inst: RosenlichtInstance, a_prime: TruncatedSeries,
                        precision) -> Tuple:
    """Driver-based integration (asymptotic step repeated); cross-checks
    the termwise route."""
    precision = _as_value(precision)
    start = inst.zero(trunc=a_prime.trunc + 1)
    return newton_drive(
        inst.D,
        lambda _y, r: asymptotic_integrate(inst, r),
        start,
        a_prime,
        precision,
    )


def ode_solve(inst: RosenlichtInstance, g: MultiPoly, c: TruncatedSeries,
              r, precision, *, route: str = "dominant", start=None,
              rng=None, samples: int = 6) -> Tuple:
    """Solve D^n y = g(y, Dy, ..., D^n y) + c for the unique infinitesimal y.

    Value conditions (t-coordinate translation of the x = 1/t original):
    every monomial of g whose lowest variable is X_k (k < n) carries a
    coefficient of value >= (n-k)*r; pure X_n monomials are linear with
    positive value or of degree >= 2 with value >= 0; and v(c) >= r+n-1
    with r > 1.  The inverse hook is n-fold termwise integration; every
    intermediate exponent is checked against the t^-1 obstruction rather
    than assumed safe.
    """
    r = _frac(r)
    precision = _as_value(precision)
    if not r > 1:
        raise HypothesisViolation(f"need r > 1, got {r}")
    n = g.nvars - 1
    if n < 1:
        raise UsageError("the equation needs at least order 1 (two variables)")
    grid = inst.denom
    for val in (r, _frac(precision.amount) if precision.is_finite else Fraction(0)):
        grid = grid * val.denominator // math.gcd(grid, val.denominator)

    # Ball-local value conditions.  The literal block bound (coefficient
    # value >= (n-k)r for the X_k block) is sufficient on the whole ideal
    # but stronger than the iteration needs on the ball where the solution
    # lives; quadratic-and-higher monomials with O-coefficients are already
    # contracting there.  The rosenlicht route re-imposes the literal bound
    # through its exact higher-derivative check.  That every coefficient
    # lies in the valuation ring the solvers check on f = g + c - X_n.
    if any(not any(idx) for idx in g.terms):
        raise UsageError("constant terms of the equation belong in c")
    linear = unit_index(n + 1, n)
    if linear in g.terms:
        # read a rational coefficient as a series, where a unit fails
        require(c.zero_like() + g.terms[linear], ">", 0,
                f"v(g coefficient at {linear}) > 0")
    require(c, ">=", r + n - 1, "v(c) >= r + n - 1")
    vc = c.value()

    f = g + MultiPoly.constant(n + 1, c) - MultiPoly.variable(n + 1, n)

    def hook(u: TruncatedSeries) -> TruncatedSeries:
        for _ in range(n):
            u = integrate(inst, u)
        return u

    ball_floor = vc.amount + n

    def sampler(rng_):
        return random_series(inst.field, grid, c.trunc + n, rng_,
                             min_exp=ball_floor, max_terms=4)

    if route == "dominant":
        e = TruncatedSeries(inst.field, grid, {vc.amount + n: 1}, c.trunc + n + 1)
    elif route == "rosenlicht":
        e = TruncatedSeries(inst.field, grid, {r + 1: 1}, c.trunc + n + 1)
    else:
        raise UsageError(f"unknown route {route!r}")

    family = OperatorFamily(
        ops=tuple((lambda a, k=i: inst.D_iter(a, k)) for i in range(n + 1)),
        dominant_index=n,
        inverse_hook=hook,
        hypothesis_e=e,
        sampler=sampler,
        domain_ball=Ball(inst.zero(trunc=c.trunc + n), Value(ball_floor)),
        name=f"(id, D, ..., D^{n}) with n-fold integration hook",
    )
    if route == "rosenlicht":
        de = inst.D(e)
        witnesses = tuple(de ** (n - i) if n - i > 0 else e.one_like()
                          for i in range(n + 1))
        family.rosenlicht_witnesses = witnesses
    F = OperatorPoly(f, family)
    b = start if start is not None else inst.zero(trunc=c.trunc + n)
    if route == "dominant":
        y, cert = solve_dominant(F, b, e, precision, rng=rng, samples=samples)
    else:
        y, cert = solve_rosenlicht(F, b, precision, e=e, rng=rng, samples=samples)
    # residual certified at `precision` for D^n y means y itself is only
    # certified n grid steps higher
    return clip_accuracy(y, precision + n), cert


def ode_residual(inst: RosenlichtInstance, g: MultiPoly, c: TruncatedSeries,
                 y: TruncatedSeries) -> TruncatedSeries:
    """Independent re-evaluation of D^n y - g(y, ..., D^n y) - c."""
    n = g.nvars - 1
    point = [inst.D_iter(y, i) for i in range(n + 1)]
    return point[n] - g.eval(point) - c
