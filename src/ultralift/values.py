"""Value group arithmetic, balls, and the minimum valuation on tuples.

Values live in the rationals extended by a formal top element; every
valuation in the package returns one.  Larger value means closer to zero
(Krull convention), so under inclusion a larger radius describes a
*smaller* ball.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import HypothesisViolation, PrecisionLossError, UsageError


@functools.total_ordering
@dataclass(frozen=True)
class Value:
    """Element of the value group (a rational) or the formal top element.

    ``amount is None`` encodes the top element; it is strictly greater
    than every finite value and absorbs addition.
    """

    amount: Optional[Fraction]

    @staticmethod
    def of(q) -> "Value":
        return Value(Fraction(q))

    @property
    def is_finite(self) -> bool:
        return self.amount is not None

    @property
    def is_infinite(self) -> bool:
        return self.amount is None

    def __lt__(self, other: "Value") -> bool:
        other = _as_value(other)
        if self.amount is None:
            return False
        if other.amount is None:
            return True
        return self.amount < other.amount

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Value, int, Fraction)):
            return NotImplemented
        return self.amount == _as_value(other).amount

    def __hash__(self):
        return hash(("Value", self.amount))

    def __add__(self, other) -> "Value":
        other = _as_value(other)
        if self.amount is None or other.amount is None:
            return INFINITY
        return Value(self.amount + other.amount)

    __radd__ = __add__

    def __sub__(self, other) -> "Value":
        other = _as_value(other)
        if other.amount is None:
            raise UsageError("cannot subtract the top element from a value")
        if self.amount is None:
            return INFINITY
        return Value(self.amount - other.amount)

    def __mul__(self, k: int) -> "Value":
        if not isinstance(k, int):
            return NotImplemented
        if self.amount is None:
            return INFINITY
        return Value(self.amount * k)

    __rmul__ = __mul__

    def __repr__(self):
        return "Value(inf)" if self.amount is None else f"Value({self.amount})"

    def __str__(self):
        return "inf" if self.amount is None else str(self.amount)


INFINITY = Value(None)
ZERO = Value(Fraction(0))


def _as_value(x) -> Value:
    if isinstance(x, Value):
        return x
    if isinstance(x, (int, Fraction)):
        return Value(Fraction(x))
    raise UsageError(f"not a value: {x!r}")


def value_min(values: Sequence[Value]) -> Value:
    """Least element of a non-empty list of values; the top element only
    when every entry is the top element."""
    vals = list(values)
    if not vals:
        raise UsageError("value_min of an empty list")
    return min(_as_value(v) for v in vals)


class ValuedVector:
    """Tuple of elements of one valued structure, valued by the minimum
    of the entry values."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(entries)
        if not self.entries:
            raise UsageError("empty vector")

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __add__(self, other):
        return ValuedVector(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other):
        return ValuedVector(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self):
        return ValuedVector(-a for a in self.entries)

    def __eq__(self, other):
        return isinstance(other, ValuedVector) and self.entries == other.entries

    def value(self) -> Value:
        return value_min([e.value() for e in self.entries])

    def is_zero_mod_precision(self) -> bool:
        return all(e.is_zero_mod_precision() for e in self.entries)

    def precision_cap(self) -> Value:
        return value_min([e.precision_cap() for e in self.entries])

    def __repr__(self):
        return f"ValuedVector({list(self.entries)!r})"


_HOLDS = {">": operator.gt, ">=": operator.ge}
_FAILS = {">": "<=", ">=": "<"}


def _decide(x, op: str, bound, claim: Optional[str] = None) -> bool:
    """Decide v(x) op bound.  An x that vanishes modulo its cap is only
    known to have value >= cap; when that does not settle the question,
    raise instead of guessing."""
    bound = _as_value(bound)
    if not x.is_zero_mod_precision():
        return _HOLDS[op](x.value(), bound)
    cap = x.precision_cap()
    if _HOLDS[op](cap, bound):
        return True
    claim = claim or f"v(x) {op} {bound}"
    raise PrecisionLossError(
        f"cannot decide {claim}: it vanishes modulo precision {cap} (bound {bound})")


def value_at_least(x, alpha) -> bool:
    """Decide v(x) >= alpha, raising when the truncation order cannot tell."""
    return _decide(x, ">=", alpha)


def value_exceeds(x, alpha) -> bool:
    """Decide v(x) > alpha, raising when the truncation order cannot tell."""
    return _decide(x, ">", alpha)


def require(x, op: str, bound, claim: str, **details) -> None:
    """The one check for a valuation hypothesis v(x) op bound, with ``op``
    ``">"`` or ``">="``: a false inequality raises HypothesisViolation
    (carrying ``details``), one the truncation order cannot decide raises
    PrecisionLossError.  ``claim`` names the hypothesis in both messages."""
    if not _decide(x, op, bound, claim):
        raise HypothesisViolation(
            f"{claim}: got {x.value()} {_FAILS[op]} {bound}", **details)


@dataclass(frozen=True)
class Ball:
    """Closed ball around ``center`` of radius ``radius``; with
    ``strict=True`` the membership test uses a strict inequality
    (the coset analogue of c + sM rather than c + sO)."""

    center: object
    radius: Value
    strict: bool = False

    def contains(self, z) -> bool:
        diff = z - self.center
        if self.strict:
            return value_exceeds(diff, self.radius)
        return value_at_least(diff, self.radius)

    def __str__(self):
        op = ">" if self.strict else ">="
        return f"{{z : v(z - center) {op} {self.radius}}}"


def ball_relation(b1: Ball, b2: Ball) -> str:
    """Classify two closed balls over the same structure.

    Returns one of ``"disjoint"``, ``"B1subB2"``, ``"B2subB1"``,
    ``"equal"``.  Balls with a common point are always comparable.
    """
    if b1.strict or b2.strict:
        raise UsageError("ball_relation classifies closed balls only")
    try:
        diff = b1.center - b2.center
    except (TypeError, UsageError) as exc:
        raise UsageError(f"balls live over different structures: {exc}") from exc
    r1, r2 = b1.radius, b2.radius
    if r1 == r2:
        return "equal" if value_at_least(diff, r1) else "disjoint"
    if r1 > r2:
        # b1 is the smaller set; it sits inside b2 iff its center does.
        return "B1subB2" if value_at_least(diff, r2) else "disjoint"
    return "B2subB1" if value_at_least(diff, r1) else "disjoint"
