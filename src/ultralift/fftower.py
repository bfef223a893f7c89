"""Finite field towers F_{p^m} with compatible embeddings.

Each level m is realized as F_p[x]/(C_m) for a deterministically chosen
modulus C_m: the first monic polynomial (in base-p counting order of its
lower coefficients) that is irreducible, primitive, and norm-compatible
with every previously fixed subfield level.  Norm compatibility makes the
canonical embeddings x_d -> x_m^((p^m-1)/(p^d-1)) ring maps that commute,
so elements at different levels can be mixed freely; arithmetic lifts to
the lcm level.  The table is reproducible bit for bit.

Every modulus is primitive, so x generates F_{p^m}^x.  A level of at
most ``_TABLE_ELEMENTS`` elements builds, on first use, log and antilog
tables for x^k <-> k: products, inverses, powers and the Frobenius
become integer arithmetic modulo p^m - 1, the embedding F_{p^d} ->
F_{p^m} multiplies k by r = (p^m - 1)/(p^d - 1), and an element lies in
F_{p^d} exactly when r divides k.  Larger levels (the additive solver
climbs to degree 64) keep polynomial arithmetic modulo C_m.  Elements
store the reduced coefficient tuple of length ``level``: ``FFTower.elem``
validates outside input, kernels build results directly.  Linear algebra
over F_p runs on sparse rows (``_echelon``).
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Sequence

from .errors import ResourceCapError, UsageError

# ---------------------------------------------------------------------------
# F_p[x] arithmetic on little-endian coefficient tuples (no trailing zeros)


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _padd(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = (out[i] + x) % p
    return _trim(out)


def _psub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = (out[i] - x) % p
    return _trim(out)


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _pdivmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], -1, p)
    for i in range(len(a) - len(b), -1, -1):
        c = (a[i + len(b) - 1] * inv_lead) % p
        if c:
            q[i] = c
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - c * y) % p
    return _trim(q), _trim(a)


def _pmod(a, b, p):
    return _pdivmod(a, b, p)[1]


def _ppowmod(base, e, mod, p):
    result = [1]
    base = _pmod(base, mod, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), mod, p)
        base = _pmod(_pmul(base, base, p), mod, p)
        e >>= 1
    return result


def _pgcd(a, b, p):
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [(c * inv) % p for c in a]
    return a


def _is_irreducible(g, p):
    """Ben-Or's test: g of degree m is irreducible iff it is coprime to
    x^(p^k) - x for every k <= m/2; most reducible candidates have a small
    factor and fail at a small k."""
    m = len(g) - 1
    if m < 1:
        return False
    h = [0, 1]
    for _ in range(m // 2):
        h = _ppowmod(h, p, g, p)
        if _pgcd(_psub(h, [0, 1], p), g, p) != [1]:
            return False
    return True


def is_prime(n: int) -> bool:
    """Trial division below 10^12, sympy's test above (imported only then)."""
    if n >= 10**12:
        from sympy import isprime

        return bool(isprime(n))
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


_FACTOR_CACHE = {}


def _prime_factors(n):
    """Prime factors of n, such as a level or a group order p^m - 1, by
    trial division up to 10^6 and then sympy."""
    if n not in _FACTOR_CACHE:
        out, rest, d = [], n, 2
        while d * d <= rest and d <= 10**6:
            if rest % d == 0:
                out.append(d)
                while rest % d == 0:
                    rest //= d
            d += 1
        if d * d <= rest:
            from sympy import factorint  # lazy; only large towers need it

            out = sorted(factorint(n).keys())
        elif rest > 1:
            out.append(rest)
        _FACTOR_CACHE[n] = out
    return _FACTOR_CACHE[n]


def _is_primitive(g, p):
    m = len(g) - 1
    order = p**m - 1
    for q in _prime_factors(order):
        if _ppowmod([0, 1], order // q, g, p) == [1]:
            return False
    return True


# levels of at most this many elements get log and antilog tables, each
# under 1 MiB; 2^16 would add F_{3^8} and F_{3^9} and about 4 MiB of RSS
_TABLE_ELEMENTS = 1 << 12

# polynomials the modulus search examines per level: F_{3^12}, the deepest
# level in use, is found at candidate 524; F_{2^24} would take minutes
_MODULUS_CANDIDATES = 768


class FFTower:
    """Registry of compatible moduli and embeddings for one prime p."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise UsageError(f"p = {p} is not prime")
        self.p = p
        self._moduli = {}
        self._gen_images = {}
        self._tables = {}
        self._lock = threading.Lock()

    def modulus(self, m: int) -> tuple:
        """Deterministic Conway-style modulus for level m."""
        with self._lock:
            return self._modulus_locked(m)

    def _modulus_locked(self, m):
        if m in self._moduli:
            return self._moduli[m]
        p = self.p
        # moduli of maximal subfields must exist first
        sub = [m // q for q in _prime_factors(m)]
        for d in sub:
            self._modulus_locked(d)
        for n in range(min(p**m, _MODULUS_CANDIDATES)):
            coeffs = []
            k = n
            for _ in range(m):
                coeffs.append(k % p)
                k //= p
            if coeffs[0] == 0:  # root 0 is never a unit
                continue
            g = tuple(coeffs + [1])
            if not _is_irreducible(g, p):
                continue
            if not _is_primitive(list(g), p):
                continue
            if all(self._compatible(d, list(g), m) for d in sub):
                self._moduli[m] = g
                return g
        raise ResourceCapError(
            f"no compatible modulus for F_{p}^{m} among the first "
            f"{min(p**m, _MODULUS_CANDIDATES)} candidates")

    def _compatible(self, d, g, m):
        p = self.p
        xi = _ppowmod([0, 1], (p**m - 1) // (p**d - 1), g, p)
        cd = list(self._moduli[d])
        # evaluate C_d at xi modulo g (Horner)
        acc = []
        for c in reversed(cd):
            acc = _pmul(acc, xi, p)
            if c:
                acc = _padd(acc, [c], p)
            acc = _pmod(acc, g, p)
        return not acc

    def _log_tables(self, m):
        """(log, antilog) of level m on the powers of x modulo C_m, or None
        above ``_TABLE_ELEMENTS``; a zero tuple has no log."""
        if m not in self._tables:
            antilog, x = [], (1,) + (0,) * (m - 1)
            if self.p**m <= _TABLE_ELEMENTS:
                p, g = self.p, self.modulus(m)
                for _ in range(p**m - 1):
                    antilog.append(x)
                    x = tuple([(c - x[-1] * gi) % p for c, gi in zip((0,) + x[:-1], g)])
            tables = ({a: k for k, a in enumerate(antilog)}, antilog)
            self._tables[m] = tables if antilog else None
        return self._tables[m]

    def elem(self, level: int, coeffs) -> "FFTowerElem":
        self.modulus(level)
        vec = [c % self.p for c in coeffs]
        if len(vec) > level:
            vec = _pmod(vec, list(self.modulus(level)), self.p)
        vec = vec + [0] * (level - len(vec))
        return FFTowerElem(self, level, tuple(vec[:level]))

    def zero(self, level: int = 1) -> "FFTowerElem":
        return self.elem(level, [])

    def one(self, level: int = 1) -> "FFTowerElem":
        return self.elem(level, [1])

    def from_int(self, n: int, level: int = 1) -> "FFTowerElem":
        return self.elem(level, [n % self.p])

    def generator(self, level: int) -> "FFTowerElem":
        if level == 1:
            # the canonical generator of F_p is the root of the level-1 modulus
            a0 = self.modulus(1)[0]
            return self.from_int(-a0)
        return self.elem(level, [0, 1])

    def _generator_image(self, d: int, m: int):
        """Coefficients of x_d's image in F_{p^m} (d divides m)."""
        key = (d, m)
        if key not in self._gen_images:
            g = list(self.modulus(m))
            xi = _ppowmod([0, 1], (self.p**m - 1) // (self.p**d - 1), g, self.p)
            self._gen_images[key] = tuple(xi + [0] * (m - len(xi)))
        return self._gen_images[key]

    def embed(self, a: "FFTowerElem", m: int) -> "FFTowerElem":
        if a.level == m:
            return a
        if m % a.level != 0:
            raise UsageError(f"no embedding F_{self.p}^{a.level} -> F_{self.p}^{m}")
        if a.level == 1:
            return FFTowerElem(self, m, a.coeffs + (0,) * (m - 1))
        tables = self._log_tables(m)
        if tables is not None:
            k = self._log_tables(a.level)[0].get(a.coeffs)
            r = len(tables[1]) // (self.p**a.level - 1)
            return FFTowerElem(self, m, (0,) * m if k is None else tables[1][k * r])
        xi = list(self._generator_image(a.level, m))
        g = list(self.modulus(m))
        acc = []
        for c in reversed(a.coeffs):
            acc = _pmod(_pmul(acc, xi, self.p), g, self.p)
            if c:
                acc = _padd(acc, [c], self.p)
        return self.elem(m, acc)

    def random(self, rng, level: int = 1) -> "FFTowerElem":
        return self.elem(level, [rng.randrange(self.p) for _ in range(level)])


_TOWERS = {}


def tower(p: int) -> FFTower:
    if p not in _TOWERS:
        _TOWERS[p] = FFTower(p)
    return _TOWERS[p]


def conway_modulus(p: int, m: int) -> tuple:
    return tower(p).modulus(m)


class FFTowerElem:
    """Element of F_{p^level} as a coefficient vector over F_p."""

    __slots__ = ("tower", "level", "coeffs")

    def __init__(self, tower_, level, coeffs):
        self.tower = tower_
        self.level = level
        self.coeffs = coeffs

    @property
    def p(self):
        return self.tower.p

    def is_zero(self):
        return not any(self.coeffs)

    def _common(self, other):
        if isinstance(other, int):
            other = self.tower.from_int(other)
        if not isinstance(other, FFTowerElem):
            return None, None
        if other.level == self.level and other.tower is self.tower:
            return self, other
        if other.tower.p != self.p:
            raise UsageError("tower elements over different primes")
        m = self.level * other.level // math.gcd(self.level, other.level)
        return self.tower.embed(self, m), self.tower.embed(other, m)

    def __add__(self, other):
        a, b = self._common(other)
        if a is None:
            return NotImplemented
        p = self.tower.p
        return FFTowerElem(self.tower, a.level,
                           tuple([(x + y) % p for x, y in zip(a.coeffs, b.coeffs)]))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._common(other)
        if a is None:
            return NotImplemented
        p = self.tower.p
        return FFTowerElem(self.tower, a.level,
                           tuple([(x - y) % p for x, y in zip(a.coeffs, b.coeffs)]))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        p = self.tower.p
        return FFTowerElem(self.tower, self.level, tuple([(-c) % p for c in self.coeffs]))

    def __mul__(self, other):
        a, b = self._common(other)
        if a is None:
            return NotImplemented
        tw, m = self.tower, a.level
        tables = tw._log_tables(m)
        if tables is None:
            prod = _pmul(list(a.coeffs), list(b.coeffs), tw.p)
            return tw.elem(m, _pmod(prod, list(tw.modulus(m)), tw.p))
        log, antilog = tables
        ka, kb = log.get(a.coeffs), log.get(b.coeffs)
        if ka is None or kb is None:
            return FFTowerElem(tw, m, (0,) * m)
        return FFTowerElem(tw, m, antilog[(ka + kb) % len(antilog)])

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in the tower")
        tw, m = self.tower, self.level
        tables = tw._log_tables(m)
        if tables is not None:
            log, antilog = tables
            return FFTowerElem(tw, m, antilog[-log[self.coeffs] % len(antilog)])
        p = tw.p
        g = list(tw.modulus(m))
        # extended Euclid in F_p[x]
        r0, r1 = g, _trim(self.coeffs)
        s0, s1 = [], [1]
        while r1:
            q, r = _pdivmod(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
        inv_lead = pow(r0[-1], -1, p)
        s0 = [(c * inv_lead) % p for c in s0]
        return tw.elem(m, _pmod(s0, g, p))

    def __truediv__(self, other):
        a, b = self._common(other)
        if a is None:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        tw, m = self.tower, self.level
        tables = tw._log_tables(m)
        if tables is None:
            return tw.elem(m, _ppowmod(list(self.coeffs), e, list(tw.modulus(m)), tw.p))
        log, antilog = tables
        k = log.get(self.coeffs)
        if k is None:  # 0^0 = 1
            return self if e else tw.one(m)
        return FFTowerElem(tw, m, antilog[k * e % len(antilog)])

    def frobenius(self) -> "FFTowerElem":
        return self**self.p

    def __eq__(self, other):
        a, b = self._common(other)
        return NotImplemented if a is None else a.coeffs == b.coeffs

    def __hash__(self):
        return hash((self.p, self._minimal_form()))

    def _minimal_form(self):
        """Coefficient tuple at the smallest level containing the element."""
        tables = self.tower._log_tables(self.level)
        if tables is not None:
            k = tables[0].get(self.coeffs)
            if k is None:
                return (0,)
            for d in sorted(_divisors(self.level)):
                sub = self.tower._log_tables(d)[1]
                r = len(tables[1]) // len(sub)
                if k % r == 0:
                    return sub[k // r]
        for d in sorted(_divisors(self.level)):
            if self ** (self.p**d) == self:
                if d == self.level:
                    return self.coeffs
                pulled = self._pull_back(d)
                if pulled is not None:
                    return pulled
        return self.coeffs

    def _pull_back(self, d):
        # solve the F_p-linear system expressing self in the embedded basis
        m = self.level
        basis = []
        gen = self.tower.generator(d)
        acc = self.tower.one(d)
        for _ in range(d):
            basis.append(self.tower.embed(acc, m).coeffs)
            acc = acc * gen
        sol = _solve_mod_p([list(col) for col in basis], list(self.coeffs), self.p)
        return None if sol is None else tuple(sol)

    def multiplicative_order(self):
        if self.is_zero():
            raise UsageError("order of zero")
        n = self.p**self.level - 1
        order = n
        for q in _prime_factors(n):
            while order % q == 0 and self ** (order // q) == self.tower.one(self.level):
                order //= q
        return order

    def __repr__(self):
        return f"FF({self.p}^{self.level}: {list(self.coeffs)})"


def _divisors(n):
    out = set()
    for d in range(1, int(n**0.5) + 1):
        if n % d == 0:
            out.add(d)
            out.add(n // d)
    return out


def _echelon(rows: Iterable[Dict[int, int]], p: int) -> List[Dict[int, int]]:
    """Reduced row echelon form over F_p of sparse rows {position:
    coefficient}, ordered by pivot position; zero rows drop out.  Each row
    is reduced by the pivot rows found so far, and a new pivot is cleared
    from them, so the work follows the nonzeros, not the width."""
    pivots: Dict[int, Dict[int, int]] = {}
    for row in rows:
        r = {i: x % p for i, x in row.items() if x % p}
        for c in [c for c in r if c in pivots]:
            r = _axpy(r, -r[c], pivots[c], p)
        if not r:
            continue
        c = min(r)
        inv = pow(r[c], -1, p)
        r = {i: x * inv % p for i, x in r.items()}
        for k, other in pivots.items():
            if c in other:
                pivots[k] = _axpy(other, -other[c], r, p)
        pivots[c] = r
    return [pivots[c] for c in sorted(pivots)]


def _axpy(r: Dict[int, int], f: int, row: Dict[int, int], p: int) -> Dict[int, int]:
    """The sparse row r + f * row over F_p."""
    out = dict(r)
    for i, y in row.items():
        out[i] = (out.get(i, 0) + f * y) % p
    return {i: x for i, x in out.items() if x}


def _solve_mod_p(columns, rhs, p):
    """Solve sum_i v_i * columns[i] = rhs over F_p; None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    n = len(columns)
    cols = list(columns) + [rhs]
    rows = [{j: c[i] for j, c in enumerate(cols) if c[i]} for i in range(len(rhs))]
    sol = [0] * n
    for row in _echelon(rows, p):
        pivot = min(row)
        if pivot == n:
            return None
        sol[pivot] = row.get(n, 0)
    return sol


def additive_poly_solve(
    coeffs: Sequence[FFTowerElem],
    target: FFTowerElem,
    degree_cap: int = 64,
) -> FFTowerElem:
    """Solve sum_j coeffs[j] * x^(p^j) = target in the tower.

    Tries the common level of the inputs, then its successive multiples,
    up to ``degree_cap``; the additive map is F_p-linear at every level so
    each attempt is one linear solve.  The returned root is verified by
    substitution.
    """
    coeffs = list(coeffs)
    if all(c.is_zero() for c in coeffs):
        raise UsageError("all coefficients of the additive polynomial vanish")
    tw = target.tower
    p = tw.p
    m0 = target.level
    for c in coeffs:
        m0 = m0 * c.level // math.gcd(m0, c.level)
    k = 1
    while m0 * k <= degree_cap:
        m = m0 * k
        cs = [tw.embed(c, m) for c in coeffs]
        tg = tw.embed(target, m)
        gen = tw.generator(m)
        basis_elem = tw.one(m)
        columns = []
        for _ in range(m):
            image = tw.zero(m)
            for j, cj in enumerate(cs):
                if not cj.is_zero():
                    image = image + cj * (basis_elem ** (p**j))
            columns.append(list(tw.embed(image, m).coeffs))
            basis_elem = basis_elem * gen
        sol = _solve_mod_p(columns, list(tg.coeffs), p)
        if sol is not None:
            x = tw.elem(m, sol)
            chk = tw.zero(m)
            for j, cj in enumerate(cs):
                chk = chk + cj * (x ** (p**j))
            if chk == tg:
                return x
        k += 1
    raise ResourceCapError(
        f"no root within the degree cap {degree_cap} (base level {m0})"
    )
