"""Images of additive polynomials over truncated F_p((t)) as windowed
F_p-subspaces: pseudo-directness of sums and optimal approximation.

A subgroup is represented exactly on an exponent window [lo, hi): the
image of an additive polynomial is an F_p-subspace, so windowed linear
algebra is exact within the window and every claim is "modulo value >=
hi".  Echelon bases are ordered by ascending leading exponent, which
makes the greedy elimination step exactly the value-improvement step of
the immediacy criterion.  Bases are stored as dense tuples, but echelon
work runs on sparse rows {position: coefficient} (``fftower._echelon``):
image rows have one or two nonzeros, so the cost follows the nonzeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import PrecisionLossError, ResourceCapError, UsageError
from .fftower import _echelon
from .series import TowerField, TruncatedSeries, _series
from .values import Value


def frobenius_power(a: TruncatedSeries, p: int, j: int) -> TruncatedSeries:
    """a^(p^j) in characteristic p: exponents scale by p^j, coefficients
    pass through the j-fold Frobenius; exact on the scaled window."""
    q = p**j
    return _series(a.field, a.denom, [k * q for k in a.idx],
                   [c ** q for c in a.coeffs], a.ntrunc * q)


@dataclass(frozen=True)
class AdditivePoly:
    """sum_j coeffs[j] * X^(p^j) with coefficients in F_p((t))."""

    p: int
    coeffs: Tuple[TruncatedSeries, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise UsageError("additive polynomial needs at least one coefficient")
        for c in self.coeffs:
            if not isinstance(c.field, TowerField) or c.field.p != self.p:
                raise UsageError("coefficients must live over the declared F_p")

    def apply(self, a: TruncatedSeries) -> TruncatedSeries:
        """Coefficients that vanish modulo their caps are skipped;
        ``image_window`` refuses a window their unknown terms reach."""
        acc = None
        for j, c in enumerate(self.coeffs):
            if c.is_zero_mod_precision():
                continue
            term = c * frobenius_power(a, self.p, j)
            acc = term if acc is None else acc + term
        if acc is None:
            raise UsageError("all coefficients vanish modulo precision")
        return acc


@dataclass(frozen=True)
class TruncatedSubspace:
    """Reduced echelon basis of an F_p-subspace of the coefficient window
    [lo, hi); coordinates are exponents ascending, leading = lowest."""

    p: int
    lo: int
    hi: int
    basis: Tuple[Tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def pivots(self) -> List[int]:
        return [self.lo + _pivot_pos(row) for row in self.basis]

    def elements(self, limit: int = 1 << 14):
        """Every vector in the span (tests only; capped)."""
        if self.p**self.dim > limit:
            raise ResourceCapError(f"span has {self.p}^{self.dim} elements")
        import itertools

        width = self.hi - self.lo
        for combo in itertools.product(range(self.p), repeat=self.dim):
            vec = [0] * width
            for coeff, row in zip(combo, self.basis):
                if coeff:
                    for i, x in enumerate(row):
                        vec[i] = (vec[i] + coeff * x) % self.p
            yield tuple(vec)


def _pivot_pos(row) -> int:
    for i, x in enumerate(row):
        if x:
            return i
    raise UsageError("zero row in an echelon basis")


def _subspace(p: int, lo: int, hi: int, rows: Iterable[Dict[int, int]],
              shift: int = 0) -> TruncatedSubspace:
    """The reduced echelon basis of the sparse rows on the window [lo, hi),
    keeping the rows whose pivot is at or past ``shift``, moved down by it."""
    basis = []
    for row in _echelon(rows, p):
        if min(row) >= shift:
            vec = [0] * (hi - lo)
            for i, x in row.items():
                vec[i - shift] = x
            basis.append(tuple(vec))
    return TruncatedSubspace(p, lo, hi, tuple(basis))


def _sparse(vec: Sequence[int]) -> Dict[int, int]:
    return {i: x for i, x in enumerate(vec) if x}


def _series_window_vector(a: TruncatedSeries, lo: int, hi: int) -> List[int]:
    if a.denom != 1:
        raise UsageError("windowed subgroups live on the integer grid")
    if a.trunc < hi:
        raise PrecisionLossError(
            f"series known to O(t^{a.trunc}) cannot fill the window up to {hi}")
    vec = [0] * (hi - lo)
    for e, c in zip(a.idx, a.coeffs):
        if e < lo:
            raise UsageError(f"series has a term below the window: t^{e}")
        if e >= hi:
            break
        vec[e - lo] = _coeff_int(c)
    return vec


def _coeff_int(c) -> int:
    if c.level != 1:
        raise UsageError("windowed computations need prime-field coefficients")
    return c.coeffs[0] if c.coeffs else 0


def subspace_from_series(elems: Sequence[TruncatedSeries], lo: int, hi: int,
                         p: int) -> TruncatedSubspace:
    return _subspace(p, lo, hi, [_sparse(_series_window_vector(a, lo, hi)) for a in elems])


_CELL_BOUND = 200_000  # generators x exponents of one image echelon


def _terms(p: int, coeffs: Sequence[TruncatedSeries]) -> List[Tuple[int, Fraction]]:
    """(p^j, v(a_j)) for the coefficients that do not vanish modulo their
    caps.  A vanishing one counts as zero: ``image_window`` refuses every
    window its unknown terms reach."""
    return [(p**j, c.value().amount) for j, c in enumerate(coeffs)
            if not c.is_zero_mod_precision()]


def input_range(p: int, coeffs: Sequence[TruncatedSeries],
                window: Tuple[int, int]) -> Tuple[int, int]:
    """(g_lo, order) for sum_j coeffs[j] X^(p^j) on the window [lo, hi),
    read off the Newton polygon.

    Let a_d be the top coefficient that does not vanish modulo its cap
    (vanishing ones count as zero, as in ``AdditivePoly.apply``).  An input
    of value g below every tie g (p^d - p^j) = v(a_j) - v(a_d) with a lower
    term has image value exactly v(a_d) + p^d g, which is below lo when
    g < (lo - v(a_d)) / p^d.  So every input whose image reaches the window
    has value at least g_lo = min(ceil((lo - v(a_d)) / p^d),
    min_j floor((v(a_j) - v(a_d)) / (p^d - p^j))), and the image of each
    t^g with g >= g_lo is known up to hi when the coefficients are known
    to ``order``."""
    lo, hi = window
    if hi <= lo:
        raise UsageError("empty window")
    vals = _terms(p, coeffs)
    if not vals:
        raise UsageError("zero additive polynomial")
    top, v_top = vals[-1]
    g_lo = min([math.ceil((lo - v_top) / top)]
               + [math.floor((v - v_top) / (top - q)) for q, v in vals[:-1]])
    return g_lo, max(hi - g_lo, hi - g_lo * p**(len(coeffs) - 1))


def image_window(f: AdditivePoly, window: Tuple[int, int]) -> TruncatedSubspace:
    """The F_p-span of f over inputs whose images can meet the window,
    reduced to the window [lo, hi).

    Generators are the images of the unit monomials t^g; g runs from
    ``input_range``'s g_lo up to the first exponent whose image lies
    entirely above the window (image valuations are monotone in g).
    Combinations whose leading terms cancel below lo are handled by
    echelonizing over an extended exponent range before restricting.  A
    coefficient a_j that vanishes modulo its cap has unknown terms from
    t^(cap + p^j g) on; when they reach the window for g = g_lo, the
    image is not determined there and the run is refused.
    """
    lo, hi = window
    g, _ = input_range(f.p, f.coeffs, window)
    if any(c.denom != 1 for c in f.coeffs):
        raise UsageError("windowed subgroups live on the integer grid")
    p = f.p
    for j, c in enumerate(f.coeffs):
        if c.is_zero_mod_precision() and c.trunc + p**j * g < hi:
            raise PrecisionLossError(
                f"coefficient {j} vanishes modulo O(t^{c.trunc}): its unknown "
                f"terms reach the window from t^{c.trunc + p**j * g} on")
    vals = _terms(p, f.coeffs)

    def image_value(g: int) -> Fraction:
        return min(vc + g * q for q, vc in vals)

    gens = []
    while image_value(g) < hi:
        gens.append(g)
        g += 1
    if not gens:
        return TruncatedSubspace(p, lo, hi, ())
    floor = int(min(image_value(g) for g in gens))
    if (hi - floor) * len(gens) > _CELL_BOUND:
        raise ResourceCapError(
            f"window too large: {len(gens)} generators over {hi - floor} exponents")

    field = f.coeffs[0].field
    # t^g is exact: carry it far enough that no a_j t^(g p^j) is cut below hi
    reach = max(math.ceil((hi - vc) / q) for q, vc in vals)
    rows = []
    for g in gens:
        unit = TruncatedSeries(field, 1, {Fraction(g): 1},
                               Fraction(max(reach, g + 1)))
        img = f.apply(unit)
        if img.trunc < hi:
            raise PrecisionLossError(
                f"coefficients too short: image of t^{g} known to O(t^{img.trunc})")
        rows.append({e - floor: _coeff_int(c)
                     for e, c in zip(img.idx, img.coeffs) if floor <= e < hi})
    return _subspace(p, lo, hi, rows, lo - floor)


@dataclass(frozen=True)
class PseudoDirectReport:
    ok: bool
    witness: Optional[Tuple[int, ...]] = None
    witness_value: Optional[int] = None

    def __bool__(self):
        return self.ok


def _union_span(subspaces: Sequence[TruncatedSubspace]) -> TruncatedSubspace:
    first = subspaces[0]
    for s in subspaces[1:]:
        if (s.lo, s.hi, s.p) != (first.lo, first.hi, first.p):
            raise UsageError("subspaces live on different windows")
    return _subspace(first.p, first.lo, first.hi,
                     [_sparse(row) for s in subspaces for row in s.basis])


def pseudo_direct_check(subspaces: Sequence[TruncatedSubspace],
                        window: Tuple[int, int]) -> PseudoDirectReport:
    """Windowed pseudo-directness: every valuation attained by the sum
    must be attained by a combination whose summands all have at least
    that valuation (no leading-value cancellation is ever needed).

    Decided by leading-exponent matching: for each pivot alpha of the sum
    span, the span of the basis rows of value >= alpha from each summand
    must itself attain alpha."""
    subspaces = list(subspaces)
    if not subspaces:
        raise UsageError("no subspaces given")
    lo, hi = window
    total = _union_span(subspaces)
    p = total.p
    for row in total.basis:
        alpha = lo + _pivot_pos(row)
        high_rows = [_sparse(r) for s in subspaces for r in s.basis
                     if s.lo + _pivot_pos(r) >= alpha]
        if not any(lo + min(r) == alpha for r in _echelon(high_rows, p)):
            return PseudoDirectReport(False, witness=tuple(row),
                                      witness_value=alpha)
    return PseudoDirectReport(True)


@dataclass(frozen=True)
class ApproxResult:
    best: Tuple[int, ...]
    achieved: Value
    at_window_top: bool
    pseudo_direct: bool


def optimal_approx(a_prime: TruncatedSeries,
                   subspaces: Sequence[TruncatedSubspace],
                   window: Tuple[int, int]) -> ApproxResult:
    """Best approximation of a' from the windowed sum by greedy
    leading-term elimination over the echelon basis.

    When the windowed sum is pseudo-direct the greedy answer attains the
    maximum of v(a' - z); otherwise the result is best-effort and flagged.
    """
    lo, hi = window
    total = _union_span(list(subspaces))
    p = total.p
    flag = pseudo_direct_check(subspaces, window).ok
    r = _series_window_vector(a_prime, lo, hi)
    width = hi - lo
    best = [0] * width
    rows_by_pivot = {_pivot_pos(row): row for row in total.basis}
    achieved = None
    for pos in range(width):
        if r[pos] % p == 0:
            continue
        row = rows_by_pivot.get(pos)
        if row is None:
            achieved = Value(Fraction(lo + pos))
            break
        coeff = r[pos] % p
        r = [(x - coeff * y) % p for x, y in zip(r, row)]
        best = [(x + coeff * y) % p for x, y in zip(best, row)]
    at_top = achieved is None
    if at_top:
        achieved = Value(Fraction(hi))
    return ApproxResult(tuple(best), achieved, at_top, flag)
