"""Truncated power series over pluggable coefficient fields.

A series lives on the grid (1/denom)Z and stores its known terms as two
parallel tuples: ``idx``, the strictly increasing integer grid indices,
and ``coeffs``, the nonzero canonical coefficients; entry i is the term
coeffs[i] * t^(idx[i]/denom).  ``ntrunc`` is the truncation order as a
grid index: terms at or beyond t^(ntrunc/denom) are unknown.  Every
inner loop therefore does integer arithmetic on exponents, and bringing
two series onto a common grid (the lcm of their denominators) is a
rescale of their indices.  The layout stays sparse: Frobenius powers and
monomials leave long runs of empty grid slots between stored terms.

Coefficient arithmetic sits behind the field tags.  Each tag has a
product kernel, ``_mul``, which convolves two sorted term lists below a
truncation index, a scalar kernel ``_scale`` and an ``inverse``.  Over Q
the product kernel multiplies integer numerators over one common
denominator per operand and normalises each output coefficient once;
over the F_p tower it uses element arithmetic.  Addition merges the two
sorted term lists, and division runs the long-division recurrence over
grid indices.  Kernel results are built by ``_series``, which trusts its
input and skips the coercion, sorting and zero filtering the public
constructor applies to outside data.

``terms`` and ``trunc`` present the same data as (Fraction exponent,
coefficient) pairs and a Fraction order.  Every operation propagates the
tightest truncation order that is fully determined by its inputs, so
valuations read off stored data are never silently wrong.
"""

from __future__ import annotations

import heapq
import math
import re
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Mapping, Tuple, Union

from .errors import ParseError, PrecisionLossError, ResourceCapError, UsageError
from .fftower import FFTower, FFTowerElem, tower
from .values import Value


class RationalField:
    """Coefficient field tag for exact rationals."""

    name = "q"
    char = 0

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise UsageError(f"cannot coerce {x!r} into the rationals")

    def owns(self, x) -> bool:
        return isinstance(x, (int, Fraction))

    def is_zero(self, c) -> bool:
        return c == 0

    def inverse(self, c):
        return 1 / Fraction(c)

    def _scale(self, cs, c):
        """The coefficients cs times the nonzero scalar c."""
        if c == 1:
            return cs
        if c == -1:
            return [-x for x in cs]
        return [x * c for x in cs]

    def _mul(self, ka, ca, kb, cb, n):
        """Product of two sorted term lists below grid index n: integer
        numerators over one common denominator per operand, each output
        coefficient normalised once."""
        da, na = _numerators(ca)
        db, nb = _numerators(cb)
        acc = _convolve(ka, na, kb, nb, n)
        d = da * db
        ks = [k for k in sorted(acc) if acc[k]]
        return ks, [Fraction(acc[k], d) for k in ks]

    def show(self, c) -> str:
        return str(Fraction(c))

    def parse(self, text: str):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational coefficient {text!r}") from exc

    def random(self, rng):
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQ"


def _numerators(cs):
    """(d, numerators) with cs[i] == numerators[i] / d."""
    d = math.lcm(*[c.denominator for c in cs])
    return d, [c.numerator * (d // c.denominator) for c in cs]


def _convolve(ka, xa, kb, xb, n) -> dict:
    """{k: sum of xa[i] * xb[j] over ka[i] + kb[j] = k} for k below n; the
    index lists are sorted, so each row stops at the first index past n."""
    pb = list(zip(kb, xb))
    acc = {}
    for k1, x1 in zip(ka, xa):
        m = bisect_left(kb, n - k1)
        if not m:
            break
        for k2, x2 in pb[:m]:
            k = k1 + k2
            prev = acc.get(k)
            acc[k] = x1 * x2 if prev is None else prev + x1 * x2
    return acc


class TowerField:
    """Coefficient field tag for the F_p tower (desk-scale F_p^alg)."""

    def __init__(self, p: int, tower_: FFTower | None = None, level_cap: int | None = None):
        self.p = p
        self.tower = tower_ or tower(p)
        self.level_cap = level_cap
        self.name = f"f{p}"
        self.char = p

    @property
    def zero(self):
        return self.tower.zero()

    @property
    def one(self):
        return self.tower.one()

    def coerce(self, x):
        if isinstance(x, FFTowerElem):
            if x.p != self.p:
                raise UsageError("tower coefficient over the wrong prime")
            return x
        if isinstance(x, int):
            return self.tower.from_int(x)
        if isinstance(x, Fraction):
            num = self.tower.from_int(x.numerator)
            den = self.tower.from_int(x.denominator)
            return num / den
        raise UsageError(f"cannot coerce {x!r} into F_{self.p} tower")

    def owns(self, x) -> bool:
        return isinstance(x, (FFTowerElem, int, Fraction))

    def is_zero(self, c) -> bool:
        return self.coerce(c).is_zero()

    def inverse(self, c):
        return self.coerce(c).inverse()

    def _scale(self, cs, c):
        """The coefficients cs times the nonzero scalar c."""
        return [x * c for x in cs]

    def _mul(self, ka, ca, kb, cb, n):
        """Product of two sorted term lists below grid index n, by element
        arithmetic; sums that cancel are dropped."""
        acc = _convolve(ka, ca, kb, cb, n)
        ks = [k for k in sorted(acc) if not acc[k].is_zero()]
        return ks, [acc[k] for k in ks]

    def show(self, c) -> str:
        c = self.coerce(c)
        body = ",".join(str(d) for d in c.coeffs)
        return f"({body})@{self.p}^{c.level}"

    def parse(self, text: str):
        text = text.strip()
        m = re.fullmatch(r"\(([\d,]*)\)@(\d+)\^(\d+)", text)
        if m:
            digits = [int(d) for d in m.group(1).split(",") if d != ""]
            p, lvl = int(m.group(2)), int(m.group(3))
            if p != self.p:
                raise ParseError(f"coefficient is over p={p}, ground over p={self.p}")
            if lvl < 1:
                raise ParseError(f"tower level must be at least 1 in {text!r}")
            if self.level_cap is not None and lvl > self.level_cap:
                raise ResourceCapError(
                    f"F_{p}^{lvl} in {text!r} lies above --tower-cap {self.level_cap}")
            return self.tower.elem(lvl, digits)
        try:
            return self.tower.from_int(int(text))
        except ValueError as exc:
            raise ParseError(f"bad tower coefficient {text!r}") from exc

    def random(self, rng, level: int = 1):
        return self.tower.random(rng, level)

    def __eq__(self, other):
        return isinstance(other, TowerField) and other.p == self.p

    def __hash__(self):
        return hash(("TowerField", self.p))

    def __repr__(self):
        return f"GF({self.p})~"


FieldTag = Union[RationalField, TowerField]


def field_by_name(name: str, level_cap: int | None = None) -> FieldTag:
    name = name.lower()
    if name in ("q", "qq", "rational"):
        return RationalField()
    m = re.fullmatch(r"f(\d+)", name)
    if m:
        return TowerField(int(m.group(1)), level_cap=level_cap)
    raise ParseError(f"unknown coefficient field {name!r}")


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


_set = object.__setattr__


def _series(field, denom, idx, coeffs, ntrunc) -> "TruncatedSeries":
    """A series from kernel output: indices sorted and below ntrunc,
    coefficients canonical and nonzero.  Nothing is checked."""
    s = object.__new__(TruncatedSeries)
    _set(s, "field", field)
    _set(s, "denom", denom)
    _set(s, "idx", tuple(idx))
    _set(s, "coeffs", tuple(coeffs))
    _set(s, "ntrunc", ntrunc)
    return s


class TruncatedSeries:
    """Finitely supported exponent -> coefficient map below a truncation order."""

    __slots__ = ("field", "denom", "idx", "coeffs", "ntrunc")

    def __init__(self, field: FieldTag, denom: int,
                 terms: Union[Mapping, Iterable[Tuple]], trunc):
        trunc = _frac(trunc)
        if denom < 1:
            raise UsageError("grid denominator must be positive")
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc = {}
        for e, c in items:
            e = _frac(e)
            k, r = divmod(e.numerator * denom, e.denominator)
            if r:
                raise UsageError(f"exponent {e} is not on the grid (1/{denom})Z")
            c = field.coerce(c)
            if k in acc:
                c = acc[k] + c
            acc[k] = c
        # an order off the grid refines the grid (stored exponents stay put)
        scale = trunc.denominator // math.gcd(denom, trunc.denominator)
        denom *= scale
        ntrunc = trunc.numerator * denom // trunc.denominator
        idx = [k * scale for k in sorted(acc) if k * scale < ntrunc
               and not field.is_zero(acc[k])]
        _set(self, "field", field)
        _set(self, "denom", denom)
        _set(self, "idx", tuple(idx))
        _set(self, "coeffs", tuple(acc[k // scale] for k in idx))
        _set(self, "ntrunc", ntrunc)

    def __setattr__(self, *a):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(field: FieldTag, denom: int, trunc) -> "TruncatedSeries":
        return TruncatedSeries(field, denom, {}, trunc)

    def zero_like(self) -> "TruncatedSeries":
        return _series(self.field, self.denom, (), (), self.ntrunc)

    def one_like(self) -> "TruncatedSeries":
        return self._constant(self.field.one)

    def from_int(self, n: int) -> "TruncatedSeries":
        return self._constant(self.field.coerce(n))

    def _constant(self, c) -> "TruncatedSeries":
        if self.ntrunc <= 0 or self.field.is_zero(c):
            return self.zero_like()
        return _series(self.field, self.denom, (0,), (c,), self.ntrunc)

    # -- inspection ---------------------------------------------------

    @property
    def terms(self) -> tuple:
        """The stored terms as (Fraction exponent, coefficient) pairs."""
        d = self.denom
        return tuple((Fraction(k, d), c) for k, c in zip(self.idx, self.coeffs))

    @property
    def trunc(self) -> Fraction:
        return Fraction(self.ntrunc, self.denom)

    def is_zero_mod_precision(self) -> bool:
        return not self.idx

    def value(self) -> Value:
        """Least stored exponent; the truncation order when no term is
        stored (read: the valuation is at least this)."""
        return Value(Fraction(self.idx[0] if self.idx else self.ntrunc, self.denom))

    def precision_cap(self) -> Value:
        return Value(self.trunc)

    def coeff_at(self, e) -> object:
        e = _frac(e)
        if e >= self.trunc:
            raise PrecisionLossError(f"coefficient at t^{e} is beyond O(t^{self.trunc})")
        k, r = divmod(e.numerator * self.denom, e.denominator)
        i = bisect_left(self.idx, k)
        if r or i == len(self.idx) or self.idx[i] != k:
            return self.field.zero
        return self.coeffs[i]

    def leading(self):
        if not self.idx:
            raise PrecisionLossError("leading term of a series that vanishes modulo precision")
        return Fraction(self.idx[0], self.denom), self.coeffs[0]

    # -- arithmetic ---------------------------------------------------

    def _check_field(self, other: "TruncatedSeries"):
        if self.field != other.field:
            raise UsageError("series over different coefficient fields")

    def _coerce_operand(self, other):
        if isinstance(other, TruncatedSeries):
            return other
        if self.field.owns(other) or isinstance(other, (int, Fraction)):
            return self._constant(self.field.coerce(other))
        return None

    def _on_common_grid(self, other):
        """(denom, self indices, self order, other indices, other order)
        on the lcm of the two grids."""
        if self.denom == other.denom:
            return self.denom, self.idx, self.ntrunc, other.idx, other.ntrunc
        d = math.lcm(self.denom, other.denom)
        sa, sb = d // self.denom, d // other.denom
        return (d, [k * sa for k in self.idx], self.ntrunc * sa,
                [k * sb for k in other.idx], other.ntrunc * sb)

    def _add(self, other, negate: bool):
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        self._check_field(other)
        d, ka, na, kb, nb = self._on_common_grid(other)
        n = min(na, nb)
        field = self.field
        ia, ib = bisect_left(ka, n), bisect_left(kb, n)
        ca, cb = self.coeffs[:ia], other.coeffs[:ib]
        if negate:
            cb = [-c for c in cb]
        ka, kb = ka[:ia], kb[:ib]
        if not kb or (ka and ka[-1] < kb[0]):
            return _series(field, d, [*ka, *kb], [*ca, *cb], n)
        if not ka or kb[-1] < ka[0]:
            return _series(field, d, [*kb, *ka], [*cb, *ca], n)
        acc = dict(zip(ka, ca))
        for k, c in zip(kb, cb):
            prev = acc.get(k)
            if prev is None:
                acc[k] = c
            else:
                c = prev + c
                if field.is_zero(c):
                    del acc[k]
                else:
                    acc[k] = c
        ks = sorted(acc)
        return _series(field, d, ks, [acc[k] for k in ks], n)

    def __add__(self, other):
        return self._add(other, False)

    __radd__ = __add__

    def __neg__(self):
        return _series(self.field, self.denom, self.idx,
                       [-c for c in self.coeffs], self.ntrunc)

    def __sub__(self, other):
        return self._add(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            if isinstance(other, int) or self.field.owns(other):
                c = self.field.coerce(other)
                if self.field.is_zero(c):
                    return self.zero_like()
                return _series(self.field, self.denom, self.idx,
                               self.field._scale(self.coeffs, c), self.ntrunc)
            return NotImplemented
        self._check_field(other)
        d, ka, na, kb, nb = self._on_common_grid(other)
        va = ka[0] if ka else na
        vb = kb[0] if kb else nb
        n = min(va + nb, vb + na)
        if not ka or not kb or ka[0] + kb[0] >= n:
            return _series(self.field, d, (), (), n)
        ks, cs = self.field._mul(ka, self.coeffs, kb, other.coeffs, n)
        return _series(self.field, d, ks, cs, n)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise UsageError("series powers take non-negative integer exponents")
        out = self.one_like()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __truediv__(self, other):
        if not isinstance(other, TruncatedSeries):
            if isinstance(other, int) or self.field.owns(other):
                c = self.field.coerce(other)
                if self.field.is_zero(c):
                    raise ZeroDivisionError("division by zero coefficient")
                return self * self.field.inverse(c)
            return NotImplemented
        self._check_field(other)
        if other.is_zero_mod_precision():
            raise PrecisionLossError("division by a series that vanishes modulo precision")
        d, ka, na, kb, nb = self._on_common_grid(other)
        vb = kb[0]
        va = ka[0] if ka else na
        n = min(na - vb, va + nb - 2 * vb)
        ks, cs = _divide(self.field, ka, self.coeffs, kb, other.coeffs, n)
        return _series(self.field, d, ks, cs, n)

    # -- structural maps ----------------------------------------------

    def shift(self, alpha) -> "TruncatedSeries":
        """Exact multiplication by the unit monomial t^alpha."""
        alpha = _frac(alpha)
        s, r = divmod(alpha.numerator * self.denom, alpha.denominator)
        if r:
            return TruncatedSeries(self.field, self.denom,
                                   [(e + alpha, c) for e, c in self.terms],
                                   self.trunc + alpha)
        return _series(self.field, self.denom, [k + s for k in self.idx],
                       self.coeffs, self.ntrunc + s)

    def truncate(self, order) -> "TruncatedSeries":
        return self.pad(min(_frac(order), self.trunc))

    def pad(self, order) -> "TruncatedSeries":
        """The same terms, known to O(t^order): past the old order they are
        taken as zero.  Widening is only for a solver's candidate iterate,
        whose terms a residual certifies, never for an input."""
        n = _frac(order) * self.denom
        if n.denominator != 1:
            return TruncatedSeries(self.field, self.denom, self.terms, order)
        i = bisect_left(self.idx, int(n))
        return _series(self.field, self.denom, self.idx[:i], self.coeffs[:i], int(n))

    def map_coeffs(self, fn) -> "TruncatedSeries":
        field = self.field
        ks, cs = [], []
        for k, c in zip(self.idx, self.coeffs):
            c = field.coerce(fn(c))
            if not field.is_zero(c):
                ks.append(k)
                cs.append(c)
        return _series(field, self.denom, ks, cs, self.ntrunc)

    def differentiate(self) -> "TruncatedSeries":
        """Formal d/dt: t^g -> g * t^(g-1)."""
        field, d = self.field, self.denom
        ks, cs = [], []
        for k, c in zip(self.idx, self.coeffs):
            g = field.coerce(Fraction(k, d))
            if not field.is_zero(g):
                ks.append(k - d)
                cs.append(g * c)
        return _series(field, d, ks, cs, self.ntrunc - d)

    # -- comparison ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = self._coerce_operand(other)
            if other is None:
                return NotImplemented
        if self.field != other.field or len(self.idx) != len(other.idx):
            return False
        _, ka, na, kb, nb = self._on_common_grid(other)
        return na == nb and ka == kb and self.coeffs == other.coeffs

    def __hash__(self):
        # on the coarsest grid that holds every exponent, so equal series
        # on different grids hash alike
        g = math.gcd(self.denom, self.ntrunc, *self.idx)
        return hash((self.field, self.denom // g, tuple(k // g for k in self.idx),
                     self.coeffs, self.ntrunc // g))

    def __repr__(self):
        return f"TruncatedSeries({format_series(self)!r})"

    def __str__(self):
        return format_series(self)


def _divide(field, ka, ca, kb, cb, n):
    """Quotient terms below index n of (ka, ca) by (kb, cb), by the
    coefficient recurrence of long division.

    ``rem`` holds the remainder coefficients at the quotient indices still
    ahead; a partial sum that cancels is dropped, as long division drops a
    vanished remainder term, so every coefficient comes out exactly as the
    term-by-term subtraction would leave it."""
    vb = kb[0]
    inv = field.inverse(cb[0])
    tail = [(k - vb, c) for k, c in zip(kb[1:], cb[1:])]
    rem = {}
    for k, c in zip(ka, ca):
        if k - vb >= n:
            break
        rem[k - vb] = c
    heap = list(rem)
    ks, cs = [], []
    while heap:
        k = heapq.heappop(heap)
        r = rem.pop(k, None)
        if r is None:
            continue
        q = r * inv
        ks.append(k)
        cs.append(q)
        for dk, c in tail:
            e = k + dk
            if e >= n:
                break
            prev = rem.get(e)
            if prev is None:
                rem[e] = -(q * c)
                heapq.heappush(heap, e)
            else:
                s = prev - q * c
                if field.is_zero(s):
                    del rem[e]
                else:
                    rem[e] = s
    return ks, cs


# ---------------------------------------------------------------------------
# text serialization: "c*t^(e) + ... + O(t^(N))"


def format_series(a: TruncatedSeries) -> str:
    parts = [f"{a.field.show(c)}*t^({e})" for e, c in a.terms]
    parts.append(f"O(t^({a.trunc}))")
    return " + ".join(parts)


_TERM_RE = re.compile(r"^(?P<coeff>.+?)\*t\^\((?P<exp>-?\d+(?:/\d+)?)\)$")
_BIGO_RE = re.compile(r"^O\(t\^\((?P<ord>-?\d+(?:/\d+)?)\)\)$")


def _parse_exponent(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ParseError(f"zero denominator in exponent {text!r}") from exc


def parse_series(text: str, field: FieldTag, denom: int | None = None) -> TruncatedSeries:
    """Parse the ``format_series`` grammar; inverse of it bit for bit."""
    chunks = [c.strip() for c in text.split(" + ")]
    if not chunks:
        raise ParseError("empty series text")
    trunc = None
    terms = []
    for chunk in chunks:
        m = _BIGO_RE.match(chunk)
        if m:
            if trunc is not None:
                raise ParseError("two O(...) markers in one series")
            trunc = _parse_exponent(m.group("ord"))
            continue
        m = _TERM_RE.match(chunk)
        if not m:
            raise ParseError(f"bad series term {chunk!r}")
        terms.append((_parse_exponent(m.group("exp")), field.parse(m.group("coeff"))))
    if trunc is None:
        raise ParseError("series text lacks the O(t^(N)) marker")
    if denom is None:
        denom = math.lcm(trunc.denominator, *[e.denominator for e, _ in terms])
    return TruncatedSeries(field, denom, terms, trunc)


def random_series(field: FieldTag, denom: int, trunc, rng, *,
                  min_exp=0, max_terms=6) -> TruncatedSeries:
    trunc = _frac(trunc)
    lo = int(_frac(min_exp) * denom)
    hi = int(trunc * denom)
    if hi <= lo:
        return TruncatedSeries.zero(field, denom, trunc)
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        e = Fraction(rng.randrange(lo, hi), denom)
        terms[e] = field.random(rng)
    return TruncatedSeries(field, denom, terms, trunc)


# ---------------------------------------------------------------------------
# weak coefficient map (monomial section alpha -> t^alpha, so the
# coefficient of the leading term represents the residue)


class WeakCoeffMap:
    """Leading-coefficient map built from the unit monomial section."""

    def __init__(self, prototype: TruncatedSeries):
        self.prototype = prototype
        self.field = prototype.field

    def monomial(self, alpha, trunc=None) -> TruncatedSeries:
        trunc = self.prototype.trunc + _frac(alpha) if trunc is None else _frac(trunc)
        return TruncatedSeries(self.field, self.prototype.denom,
                               {_frac(alpha): self.field.one}, trunc)

    def co(self, a: TruncatedSeries):
        """co a: the residue of t^(-va) * a; zero when a vanishes modulo
        precision (flag via a.is_zero_mod_precision())."""
        return weak_coeff(a)

    def lift(self, coeff_bar, alpha, trunc) -> TruncatedSeries:
        """(WCM4): an element with co = coeff_bar and value alpha."""
        if self.field.is_zero(self.field.coerce(coeff_bar)):
            raise UsageError("cannot lift the zero residue to a prescribed value")
        return TruncatedSeries(self.field, self.prototype.denom,
                               {_frac(alpha): coeff_bar}, _frac(trunc))


def weak_coeff(a: TruncatedSeries, with_flag: bool = False):
    """Leading coefficient of a series; 0 (with flag True) when the series
    vanishes modulo precision."""
    flagged = a.is_zero_mod_precision()
    c = a.field.zero if flagged else a.coeffs[0]
    return (c, flagged) if with_flag else c
