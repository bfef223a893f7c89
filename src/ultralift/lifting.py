"""The generic correction-iteration driver and its run certificates.

Every solver in the package is an instantiation of ``newton_drive``: a
correction oracle turns the current iterate and its residual into an
update whose application strictly increases the residual value.  Strict
increase on a discrete value grid plus a finite precision cap guarantees
termination; a step that fails to increase the residual aborts
immediately, because under the solvers' hypotheses such a step is
impossible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .errors import PrecisionLossError, StallError
from .values import Ball, Value, ValuedVector

OUTCOME_CONVERGED = "converged-at-precision"
OUTCOME_STALLED = "stalled"

_MAX_STEPS = 100_000  # defensive cap; grids make real runs far shorter


@dataclass(frozen=True)
class LiftStep:
    residual_before: Value
    residual_after: Value


@dataclass(frozen=True)
class LiftCertificate:
    """Transcript of a lifting run.

    ``steps`` records the residual value before and after each accepted
    correction; values strictly increase unless the run stalled.
    """

    steps: Tuple[LiftStep, ...]
    final_residual: Value
    uniqueness_ball: Optional[Ball]
    outcome: str

    def monotone(self) -> bool:
        ok = all(s.residual_after > s.residual_before for s in self.steps)
        chained = all(a.residual_after <= b.residual_before
                      for a, b in zip(self.steps, self.steps[1:]))
        return ok and chained

    def table(self) -> str:
        lines = ["step  v(residual) before -> after"]
        for k, s in enumerate(self.steps):
            lines.append(f"{k:4d}  {s.residual_before} -> {s.residual_after}")
        lines.append(f"final residual value: {self.final_residual} ({self.outcome})")
        return "\n".join(lines)


def clip_accuracy(x, order: Value):
    """Truncate an element (or vector) to the accuracy a run certifies;
    claiming digits beyond v(residual) - v(slope) would be wrong."""
    if order.is_infinite or order.amount <= 0:
        return x
    if isinstance(x, ValuedVector):
        return ValuedVector([clip_accuracy(e, order) for e in x])
    return x.truncate(order.amount)


def newton_drive(
    f: Callable,
    companion_solve: Callable,
    start,
    target,
    precision: Value,
    *,
    uniqueness_ball: Optional[Ball] = None,
    on_step: Optional[Callable] = None,
) -> tuple:
    """Iterate y += companion_solve(y, target - f(y)) until the residual
    value reaches ``precision``.

    ``companion_solve(y, r)`` must return a correction c with
    v(r - phi_y(c)) > v(r) for the instantiating solver's pseudo-companion
    phi_y at the iterate y: a solver with a frozen slope ignores y, one
    that refreshes its slope linearizes at y.  The driver only watches the
    residual values, and every residual is computed from ``f`` and
    ``target`` as given, so the run certifies against the inputs whatever
    representative of y the companion carries.  ``on_step`` (if given) is
    called with (old_y, new_y) after each accepted step, so solvers can
    verify per-step laws on the actual iterates.
    """
    y = start
    r = target - f(y)
    steps = []

    def cert(outcome, final):
        return LiftCertificate(tuple(steps), final, uniqueness_ball, outcome)

    for _ in range(_MAX_STEPS):
        # a residual that vanishes modulo its cap has that cap as its value:
        # at or past ``precision`` it converged, short of it it is refused
        before = r.value()
        if before >= precision:
            return y, cert(OUTCOME_CONVERGED, before)
        if r.is_zero_mod_precision():
            raise PrecisionLossError(
                f"residual vanished modulo {r.precision_cap()} short of the "
                f"requested {precision}; supply wider inputs")
        c = companion_solve(y, r)
        y_next = y + c
        r_next = target - f(y_next)
        after = r_next.value()
        if not after > before:
            if r_next.is_zero_mod_precision():
                # the residual saturated its own truncation order, which is a
                # shortage of input precision, not a violated hypothesis
                raise PrecisionLossError(
                    f"residual vanished modulo {r_next.precision_cap()} short "
                    f"of the requested {precision}; supply wider inputs")
            steps.append(LiftStep(before, after))
            raise StallError(
                f"residual value failed to increase at step {len(steps) - 1}: "
                f"{before} -> {after}",
                certificate=cert(OUTCOME_STALLED, after),
            )
        steps.append(LiftStep(before, after))
        if on_step is not None:
            on_step(y, y_next)
        y, r = y_next, r_next
    raise StallError(
        f"no convergence within {_MAX_STEPS} steps (precision {precision})",
        certificate=cert(OUTCOME_STALLED, r.value()),
    )
