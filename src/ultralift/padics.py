"""Truncated p-adic integers: residues modulo p^N with explicit precision.

The absolute precision of every result is the tightest one determined by
the inputs (same big-O discipline as the series kernel).  Division is
exact on the digits it reports and costs v(divisor) digits of precision.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import ParseError, PrecisionLossError, UsageError
from .values import Value


class TruncatedPAdic:
    __slots__ = ("p", "residue", "precision")

    def __init__(self, p: int, residue: int, precision: int):
        if precision < 1:
            raise UsageError("p-adic precision must be positive")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "residue", residue % p**precision)

    def __setattr__(self, *a):
        raise AttributeError("TruncatedPAdic is immutable")

    @staticmethod
    def from_rational(p: int, x, precision: int) -> "TruncatedPAdic":
        x = Fraction(x)
        den = x.denominator
        if den % p == 0:
            raise UsageError(f"{x} is not a p-adic integer for p={p}")
        mod = p**precision
        return TruncatedPAdic(p, x.numerator * pow(den, -1, mod), precision)

    # -- inspection ---------------------------------------------------

    def is_zero_mod_precision(self) -> bool:
        return self.residue == 0

    def value(self) -> Value:
        """v_p of the residue; the precision N when zero modulo p^N."""
        r, p = self.residue, self.p
        if r == 0:
            return Value(Fraction(self.precision))
        # square p while p^(2^i) divides r, then divide out in binary
        powers = []
        while r % p == 0:
            powers.append(p)
            p *= p
        k = 0
        for i in reversed(range(len(powers))):
            if r % powers[i] == 0:
                r //= powers[i]
                k += 1 << i
        return Value(Fraction(k))

    def precision_cap(self) -> Value:
        return Value(Fraction(self.precision))

    def digits(self) -> tuple:
        out = []
        r = self.residue
        for _ in range(self.precision):
            out.append(r % self.p)
            r //= self.p
        return tuple(out)

    # -- helpers ------------------------------------------------------

    def zero_like(self) -> "TruncatedPAdic":
        return TruncatedPAdic(self.p, 0, self.precision)

    def one_like(self) -> "TruncatedPAdic":
        return TruncatedPAdic(self.p, 1, self.precision)

    def from_int(self, n: int) -> "TruncatedPAdic":
        return TruncatedPAdic(self.p, n, self.precision)

    def truncate(self, precision) -> "TruncatedPAdic":
        """Known to p^ceil(precision): a value of at least 5/2 is one of 3."""
        return TruncatedPAdic(self.p, self.residue,
                              min(self.precision, math.ceil(precision)))

    def pad(self, precision) -> "TruncatedPAdic":
        """The same residue, read modulo p^precision: digits past the old
        cap are taken as zero.  Only for a solver's candidate iterate,
        whose digits a residual certifies, never for an input."""
        return TruncatedPAdic(self.p, self.residue, math.ceil(precision))

    def _coerce(self, other):
        if isinstance(other, TruncatedPAdic):
            if other.p != self.p:
                raise UsageError("p-adics over different primes")
            return other
        if isinstance(other, int):
            return TruncatedPAdic(self.p, other, self.precision)
        if isinstance(other, Fraction):
            return TruncatedPAdic.from_rational(self.p, other, self.precision)
        return None

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.precision, o.precision)
        return TruncatedPAdic(self.p, self.residue + o.residue, n)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedPAdic(self.p, -self.residue, self.precision)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.precision, o.precision)
        return TruncatedPAdic(self.p, self.residue - o.residue, n)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        va = self.value().amount
        vb = o.value().amount
        n = min(self.precision + int(vb), o.precision + int(va),
                self.precision + o.precision)
        return TruncatedPAdic(self.p, self.residue * o.residue, n)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise UsageError("p-adic powers take non-negative integer exponents")
        out = self.one_like()
        base = self
        while k:
            if k & 1:
                out = out * base
            if k > 1:
                base = base * base
            k >>= 1
        return out

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.residue == 0:
            raise PrecisionLossError("division by a p-adic that vanishes modulo precision")
        vb = int(o.value().amount)
        va = int(self.value().amount) if self.residue else self.precision
        if self.residue and va < vb:
            raise UsageError(
                f"quotient has negative valuation ({va} - {vb}); not a p-adic integer")
        n = min(self.precision - vb, va + o.precision - 2 * vb)
        if n < 1:
            raise PrecisionLossError("division leaves no certain digits")
        pk = self.p**vb
        unit_b = o.residue // pk
        num = self.residue // pk
        mod = self.p**n
        return TruncatedPAdic(self.p, num * pow(unit_b, -1, mod), n)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.residue == o.residue and self.precision == o.precision)

    def __hash__(self):
        return hash((self.p, self.residue, self.precision))

    def __repr__(self):
        return f"TruncatedPAdic({format_padic(self)!r})"

    def __str__(self):
        return format_padic(self)


def format_padic(a: TruncatedPAdic) -> str:
    """Digits least-significant first, then the precision marker."""
    return ",".join(str(d) for d in a.digits()) + f"+O({a.p}^{a.precision})"


_PADIC_RE = re.compile(r"^(?P<digits>[\d,]*)\+O\((?P<p>\d+)\^(?P<n>\d+)\)$")


def parse_padic(text: str) -> TruncatedPAdic:
    m = _PADIC_RE.match(text.strip())
    if not m:
        raise ParseError(f"bad p-adic literal {text!r}")
    p, n = int(m.group("p")), int(m.group("n"))
    ds = [int(d) for d in m.group("digits").split(",") if d != ""]
    if len(ds) != n:
        raise ParseError(f"expected {n} digits, got {len(ds)}")
    if any(d < 0 or d >= p for d in ds):
        raise ParseError("digit out of range")
    residue = 0
    for d in reversed(ds):
        residue = residue * p + d
    return TruncatedPAdic(p, residue, n)


def random_padic(p: int, precision: int, rng) -> TruncatedPAdic:
    return TruncatedPAdic(p, rng.randrange(p**precision), precision)
