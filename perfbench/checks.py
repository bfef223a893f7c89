"""Output checks that do not trust the program under test.

p-adic roots are checked with Python integers (f(x) = 0 mod p^N), series
over Q with the benchmark's own ``Fraction`` arithmetic.  Tower answers
(``dsolve``, ``dhensel``, ``subgroup``) are compared with the lines the
reference commit printed for the same argv, stored in ``golden.json``.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Dict, Optional, Tuple

GOLDEN_PATH = Path(__file__).with_name("golden.json")
# the subgroup lines that must match the reference commit
SUBGROUP_KEYS = ("pseudo-direct on window",
                 "best approximation (window coordinates)",
                 "achieved value", "approximation certified optimal")

@functools.cache
def golden() -> Dict[str, Dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text())


def report_fields(stdout: str, structured: bool) -> Dict[str, str]:
    """Top-level ``key: value`` fields of a report, values as text."""
    if structured:
        try:
            doc = json.loads(stdout)
        except ValueError:
            return {}
        return {k: str(v) for k, v in doc.items() if not isinstance(v, (list, dict))}
    out = {}
    for line in stdout.splitlines():
        if ": " in line and not line.startswith(" "):
            k, v = line.split(": ", 1)
            out.setdefault(k, v)
    return out


# ---------------------------------------------------------------------------
# p-adics with Python ints

_PADIC = re.compile(r"^([\d,]*)\+O\((\d+)\^(\d+)\)$")


def parse_padic_digits(text: str) -> Tuple[int, int, int]:
    m = _PADIC.match(text.strip())
    if not m:
        raise ValueError(f"not a p-adic literal: {text[:60]!r}")
    p, n = int(m.group(2)), int(m.group(3))
    digits = [int(d) for d in m.group(1).split(",") if d]
    if len(digits) != n or any(not 0 <= d < p for d in digits):
        raise ValueError("digit list does not match its O(p^n) marker")
    residue = 0
    for d in reversed(digits):
        residue = residue * p + d
    return p, residue, n


def eval_poly_mod(terms, xs, mod) -> int:
    acc = 0
    for c, exps in terms:
        t = c
        for x, k in zip(xs, exps):
            if k:
                t = t * pow(x, k, mod) % mod
        acc += t
    return acc % mod


def check_padic(fields, p, prec, polys, prefix) -> Optional[str]:
    parts = fields["solution"].split(" ; ")
    xs = list(prefix)
    for part in parts:
        q, residue, n = parse_padic_digits(part)
        if q != p:
            return f"solution is {q}-adic, ground is {p}-adic"
        if n < prec:
            return f"solution has {n} digits, {prec} requested"
        xs.append(residue)
    mod = p**prec
    for k, f in enumerate(polys):
        if eval_poly_mod(f, xs, mod):
            return f"f{k}(solution) != 0 mod {p}^{prec}"
    return None


# ---------------------------------------------------------------------------
# series over Q with Fractions; a series is ({exponent: coeff}, order)

_TERM = re.compile(r"^(.+?)\*t\^\((-?\d+(?:/\d+)?)\)$")
_BIGO = re.compile(r"^O\(t\^\((-?\d+(?:/\d+)?)\)\)$")


def parse_q_series(text: str):
    terms, order = {}, None
    for chunk in text.split(" + "):
        chunk = chunk.strip()
        m = _BIGO.match(chunk)
        if m:
            order = Fraction(m.group(1))
            continue
        m = _TERM.match(chunk)
        if not m:
            raise ValueError(f"bad series term {chunk[:40]!r}")
        terms[Fraction(m.group(2))] = Fraction(m.group(1))
    if order is None:
        raise ValueError("series without O(t^N)")
    return terms, order


def _mul(a: dict, b: dict, below) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            if e < below:
                out[e] = out.get(e, 0) + c1 * c2
    return out


def _add_into(acc: dict, b: dict, scale=1):
    for e, c in b.items():
        acc[e] = acc.get(e, 0) + scale * c


def _first_nonzero_below(d: dict, below):
    bad = sorted(e for e, c in d.items() if c and e < below)
    return bad[0] if bad else None


def _deriv(y: dict) -> dict:
    return {e - 1: e * c for e, c in y.items() if e != 0}


def check_invert(fields, coeffs, target, prec) -> Optional[str]:
    y, order = parse_q_series(fields["solution"])
    if order < prec:
        return f"solution known to O(t^{order}), {prec} requested"
    acc, power = {}, {Fraction(0): Fraction(1)}
    for c in coeffs:
        power = _mul(power, y, prec)
        _add_into(acc, power, c)
    _add_into(acc, {Fraction(e): Fraction(c) for e, c in target.items()}, -1)
    e = _first_nonzero_below(acc, prec)
    return None if e is None else f"f(y) - z has a term at t^{e}"


def check_ode(fields, a, c, prec) -> Optional[str]:
    y, order = parse_q_series(fields["solution"])
    if order < prec + 1:
        return f"solution known to O(t^{order}), {prec + 1} needed"
    resid = _deriv(y)
    _add_into(resid, _mul(y, y, prec), -a)
    _add_into(resid, {Fraction(e): Fraction(v) for e, v in c.items()}, -1)
    e = _first_nonzero_below(resid, prec)
    return None if e is None else f"Dy - g(y) - c has a term at t^{e}"


def check_integrate(fields, target, prec) -> Optional[str]:
    y, order = parse_q_series(fields["solution"])
    if order < prec + 1:
        return f"solution known to O(t^{order}), {prec + 1} needed"
    resid = _deriv(y)
    _add_into(resid, {Fraction(e): Fraction(v) for e, v in target.items()}, -1)
    e = _first_nonzero_below(resid, prec)
    return None if e is None else f"Dy - target has a term at t^{e}"


def check_golden(fields, key) -> Optional[str]:
    want = golden().get(key)
    if want is None:
        return "no stored seed line for this request"
    for k, v in want.items():
        if fields.get(k) != v:
            return f"{k!r} differs from the reference commit's line"
    return None


_CHECKS = {"padic": check_padic, "invert": check_invert, "ode": check_ode,
           "integrate": check_integrate, "golden": check_golden}


def check(req, code, stdout: str) -> Tuple[bool, str, bool]:
    """(passed, reason, wrong).  ``wrong`` marks an answer the program
    certified (exit 0, no failed re-verification) that the check refutes."""
    if code != req.expect:
        return False, f"exit {code}, expected {req.expect}", False
    if req.expect != 0:
        return True, "", False
    fields = report_fields(stdout, "structured" in req.argv)
    if fields.get("reverified") == "False":
        return False, "report says reverified: False", False
    try:
        why = _CHECKS[req.check[0]](fields, *req.check[1:])
    except (KeyError, ValueError) as exc:
        why = f"unreadable report: {type(exc).__name__}: {exc}"
    if why is None:
        return True, "", False
    return False, why, True
