"""Random element generation for sampled axiom checks and property tests."""

from __future__ import annotations

from fractions import Fraction

from .errors import UsageError
from .padics import TruncatedPAdic
from .series import TruncatedSeries, random_series
from .values import Value, ValuedVector


def sample_near(center, radius: Value, rng, *, strict: bool = False):
    """A random element z with v(z - center) >= radius (> if strict)."""
    if isinstance(center, ValuedVector):
        return ValuedVector([sample_near(c, radius, rng, strict=strict)
                             for c in center.entries])
    if isinstance(center, TruncatedPAdic):
        k = int(radius.amount) if radius.is_finite else center.precision
        if strict:
            k += 1
        k = max(0, k)
        if k >= center.precision:
            return center
        delta = rng.randrange(center.p ** (center.precision - k)) * center.p**k
        return center + center.from_int(delta)
    if isinstance(center, TruncatedSeries):
        lo = radius.amount if radius.is_finite else center.trunc
        if strict:
            lo = lo + Fraction(1, center.denom)
        if lo >= center.trunc:
            return center
        delta = random_series(center.field, center.denom, center.trunc, rng,
                              min_exp=lo)
        return center + delta
    raise UsageError(f"no sampler for {type(center).__name__}")

