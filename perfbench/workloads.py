"""Seeded request generator for the four benchmark workloads.

A workload is one *pass*: a fixed multiset of request shapes whose
constants (roots, coefficients, orders of the requests) are drawn from
the run seed.  The benchmark repeats the pass until its time is up, so
every run measures whole passes with the same mix of shapes.

Each request carries the argv the program sees and, on the benchmark's
side only, what a correct run looks like: the expected exit code, the
precision it certifies, and the data for the output check.

Tower requests (``dsolve``, ``dhensel``, ``subgroup``) are checked against
lines stored from the reference commit, so they are drawn from a finite pool
(``tower_pool``) whose every entry has a stored line in ``golden.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

WORKLOADS = ("padic-ladder", "series-ladder", "tower-window", "cli-mix")

# p-adic precision ladder; residues are capped near 1300 bits, so the top
# rung is 800 digits for p in {2, 3} and 400 digits for p in {5, 7}
PADIC_RUNGS = (12, 25, 50, 100, 200, 400, 800)
PADIC_TOP = {2: 800, 3: 800, 5: 400, 7: 400}
CUBE_TOP = 200
# liftnd / implicit / pinv-lift carry two or three residues per iterate
SYSTEM_TOP = {2: 200, 3: 200, 5: 100, 7: 100}

# tower pool: every (command, p, level, N, variant) entry has a golden line.
# Coefficients of one request share one level: mixing levels 2 and 3 over
# F_3 needs the F_{3^6} modulus, whose search alone takes about two minutes.
TOWER_PRIMES = (2, 3)
TOWER_LEVELS = (1, 2, 3, 4)
TOWER_ORDERS = {"dsolve": (8, 24), "dhensel": (16,)}
SUBGROUP_WIDTHS = (12, 24, 40, 60)
TOWER_VARIANTS = 4


@dataclass
class Request:
    argv: List[str]
    kind: str                   # warm-up key: command + ground family
    expect: int = 0             # documented exit code of a correct run
    precision: int = 0          # digits / exponent units certified on success
    check: Tuple = ()           # output-check data, see checks.py
    label: str = ""             # short name for failure listings
    known_failure: Optional[str] = None  # seed-commit defect this shape hits


# ---------------------------------------------------------------------------
# polynomial text in the CLI grammar; terms are (int coefficient, exponents)


def poly_text(terms) -> str:
    parts = []
    for c, exps in terms:
        factors = [str(c)]
        for j, k in enumerate(exps):
            if k == 1:
                factors.append(f"X{j}")
            elif k > 1:
                factors.append(f"X{j}^{k}")
        parts.append("*".join(factors))
    return " + ".join(parts)


def _unit(rng, p, hi):
    while True:
        r = rng.randrange(1, hi)
        if r % p:
            return r


# ---------------------------------------------------------------------------
# p-adic shapes


def lift1d_request(rng, p, n, shape, report="text") -> Request:
    r = _unit(rng, p, p**3)
    if shape == "square":
        if p == 2:
            # v f(b) = 4 exactly, the shape of sqrt(17) from b = 1
            a = r * r + 16 * _unit(rng, 2, 64)
        else:
            a = r * r + p * _unit(rng, p, p**4)
        terms = [(1, (2,)), (-a, (0,))]
    else:
        if p == 3:
            # f'(b) = 3b^2 has value 1; v f(b) = 3 clears v f(b) > 2 v f'(b)
            a = r**3 + 27 * _unit(rng, 3, 81)
        else:
            a = r**3 + p * _unit(rng, p, p**4)
        terms = [(1, (3,)), (-a, (0,))]
    known = None
    if shape == "square" and p == 2 and n >= 28:
        known = "non-unit slope: root one digit short (exit 70 or uncaught UltraliftError)"
    if shape == "cube" and p == 3 and n >= 20:
        known = "non-unit slope: root one digit short (exit 70 or uncaught UltraliftError)"
    argv = ["lift1d", "--ground", f"padic:{p}:{n}", "--poly", poly_text(terms),
            "--point", str(r), "--report", report]
    return Request(argv, f"lift1d padic:{p}", 0, n, ("padic", p, n, [terms], []),
                   f"lift1d {shape} padic:{p}:{n}", known)


def liftnd_request(rng, p, n, report="text") -> Request:
    # X0^2 + X1 - a0, X1^2 + X0 - a1: det J(r) = 4 r0 r1 - 1, a unit
    while True:
        r0, r1 = _unit(rng, p, p**3), _unit(rng, p, p**3)
        if (4 * r0 * r1 - 1) % p:
            break
    a0 = r0 * r0 + r1 + p * rng.randrange(1, p**4)
    a1 = r1 * r1 + r0 + p * rng.randrange(1, p**4)
    f0 = [(1, (2, 0)), (1, (0, 1)), (-a0, (0, 0))]
    f1 = [(1, (0, 2)), (1, (1, 0)), (-a1, (0, 0))]
    argv = ["liftnd", "--ground", f"padic:{p}:{n}", "--poly", poly_text(f0),
            "--poly", poly_text(f1), "--point", f"{r0};{r1}", "--report", report]
    return Request(argv, f"liftnd padic:{p}", 0, n, ("padic", p, n, [f0, f1], []),
                   f"liftnd padic:{p}:{n}")


def implicit_request(rng, p, n, report="text") -> Request:
    # Y-block system around the exact zero (0, r0, r1); X0 moves to p*k
    while True:
        r0, r1 = _unit(rng, p, p**3), _unit(rng, p, p**3)
        if (4 * r0 * r1 - 1) % p:
            break
    c0, c1 = r0 * r0 + r1, r1 * r1 + r0
    x_new = p * rng.randrange(1, p**3)
    f0 = [(1, (0, 2, 0)), (1, (0, 0, 1)), (-1, (1, 0, 0)), (-c0, (0, 0, 0))]
    f1 = [(1, (0, 0, 2)), (1, (0, 1, 0)), (-c1, (0, 0, 0))]
    argv = ["implicit", "--ground", f"padic:{p}:{n}", "--poly", poly_text(f0),
            "--poly", poly_text(f1), "--point", f"0;{r0};{r1}",
            "--target", str(x_new), "--report", report]
    return Request(argv, f"implicit padic:{p}", 0, n,
                   ("padic", p, n, [f0, f1], [x_new]), f"implicit padic:{p}:{n}")


def pinv_request(rng, p, n, report="text") -> Request:
    # X0 + p X1^2 - a0, X1 + p X0^2 - a1 with the identity as pseudo-inverse
    b0, b1 = rng.randrange(0, p**3), rng.randrange(0, p**3)
    a0 = b0 + p * b1 * b1 + p * rng.randrange(1, p**4)
    a1 = b1 + p * b0 * b0 + p * rng.randrange(1, p**4)
    f0 = [(1, (1, 0)), (p, (0, 2)), (-a0, (0, 0))]
    f1 = [(1, (0, 1)), (p, (2, 0)), (-a1, (0, 0))]
    argv = ["pinv-lift", "--ground", f"padic:{p}:{n}", "--poly", poly_text(f0),
            "--poly", poly_text(f1), "--point", f"{b0};{b1}",
            "--pseudo-inverse", "1;0|0;1", "--report", report]
    return Request(argv, f"pinv-lift padic:{p}", 0, n,
                   ("padic", p, n, [f0, f1], []), f"pinv-lift padic:{p}:{n}")


# ---------------------------------------------------------------------------
# series shapes over Q; series are {exponent: int coefficient} dicts.
# Values that may start with "-" are passed as --flag=value for argparse.


def series_text(terms: dict, order: int) -> str:
    parts = [f"{c}*t^({e})" for e, c in sorted(terms.items()) if c]
    parts.append(f"O(t^({order}))")
    return " + ".join(parts)


def invert_request(rng, n, ncoeffs, report="text", target_order=None,
                   precision=None) -> Request:
    # the seed picks a sign pattern in the orbit of sum y^i = t + t^2 under
    # y -> -y, (f, z) -> (-f, -z) and t -> -t; every pattern has the same
    # coefficient heights, so a shape costs the same from seed to seed
    coeffs, target = [1] * ncoeffs, {1: 1, 2: 1}
    if rng.random() < 0.5:
        coeffs = [c * (-1) ** i for i, c in enumerate(coeffs, 1)]
    if rng.random() < 0.5:
        coeffs, target = [-c for c in coeffs], {e: -c for e, c in target.items()}
    if rng.random() < 0.5:
        target = {e: c * (-1) ** e for e, c in target.items()}
    order = n if target_order is None else target_order
    prec = n if precision is None else precision
    argv = ["invert-series", "--ground", f"series:q:1:{n}",
            "--coeffs=" + ";".join(str(c) for c in coeffs),
            "--target=" + series_text(target, order), "--report", report]
    if precision is not None:
        argv += ["--precision", str(precision)]
    if order < prec:
        # the target states only O(t^order): certifying more must exit 70
        return Request(argv, "invert-series series:q", 70, 0, ("exit",),
                       f"invert-series O(t^{order}) at precision {prec}",
                       "exits 0 with 'reverified: False' instead of 70")
    return Request(argv, "invert-series series:q", 0, prec,
                   ("invert", coeffs, target, prec), f"invert-series q:{n} k={ncoeffs}")


def ode_request(rng, n, dense, report="text") -> Request:
    # D y = a y^2 + c with v(c) >= r + n - 1 = 2 (r = 2, first order); a
    # t^3 term in c fills every exponent of y, without it y is sparse.  The
    # seed picks from the orbit of (1, t^2 [+ t^3]) under y -> -y and
    # t -> -t, which keeps the cost of the shape
    a, c = 1, {2: 1, 3: 1 if dense else 0}
    if rng.random() < 0.5:
        a, c = -a, {e: -v for e, v in c.items()}
    if rng.random() < 0.5:
        a, c = -a, {e: -v * (-1) ** e for e, v in c.items()}
    prec = n - 3
    argv = ["ode", "--ground", f"rosenlicht:1:{n}", "--nvars", "2", "--r", "2",
            "--precision", str(prec), f"--poly={a}*X0^2",
            "--target=" + series_text(c, n), "--report", report]
    return Request(argv, "ode rosenlicht", 0, prec, ("ode", a, c, prec),
                   f"ode {'dense' if dense else 'sparse'} rosenlicht:1:{n}")


def integrate_request(rng, n, report="text") -> Request:
    k = max(3, n // 6)
    terms = {e: rng.choice((1, -1, 2, -3, 5)) for e in rng.sample(range(0, n), k)}
    argv = ["integrate", "--ground", f"rosenlicht:1:{n}",
            "--target=" + series_text(terms, n), "--report", report]
    return Request(argv, "integrate rosenlicht", 0, n, ("integrate", terms, n),
                   f"integrate rosenlicht:1:{n}")


# ---------------------------------------------------------------------------
# tower pool: deterministic in its key, independent of the run seed


def tower_coeff(rng, p, level) -> str:
    while True:
        digits = [rng.randrange(p) for _ in range(level)]
        if any(digits):
            break
    if level == 1:
        return str(digits[0])
    return "(" + ",".join(map(str, digits)) + f")@{p}^{level}"


def _tower_series(rng, p, level, n, lo, count) -> str:
    exps = sorted(rng.sample(range(lo, n), min(count, n - lo)))
    parts = [f"{tower_coeff(rng, p, level)}*t^({e})" for e in exps]
    return " + ".join(parts + [f"O(t^({n}))"])


def tower_entry(cmd, p, level, n, variant) -> List[str]:
    """argv (without --report) of one pool entry; ``level`` is the window
    width for ``subgroup`` and ``n`` the number of additive polynomials."""
    rng = random.Random(f"{cmd}:{p}:{level}:{n}:{variant}")
    if cmd == "dsolve":
        return ["dsolve", "--ground", f"vdfield:{p}:{n}",
                "--target", _tower_series(rng, p, level, n, 1, 3 + variant % 3)]
    if cmd == "dhensel":
        c = _tower_series(rng, p, level, n, 1, 2 + variant % 2)
        return ["dhensel", "--ground", f"vdfield:{p}:{n}", "--nvars", "2",
                "--poly", f"1*X1^2 + 1*X1 + -1*{{{c}}}", "--point", "0",
                "--seed", str(variant)]
    if cmd == "subgroup":
        width, npolys = level, n
        top = width + 10
        argv = ["subgroup", "--ground", f"series:f{p}:1:{top}", "--window", f"0:{width}"]
        shapes = ["0;1"]
        for _ in range(npolys - 1):
            a = rng.randrange(1, 4)
            # a coefficient literal must outlive the widest input the
            # window pulls in: width + (2 width + p) * p exponents
            order = width + (2 * width + p) * p + 8
            shapes.append(f"{rng.randrange(1, p)}*t^({a}) + O(t^({order}));1")
        for s in shapes:
            argv += ["--addpoly", s]
        approx = {e: 1 for e in rng.sample(range(1, width), min(4, width - 1))}
        argv += ["--approx", " + ".join([f"1*t^({e})" for e in sorted(approx)]
                                        + [f"O(t^({top}))"])]
        return argv
    raise ValueError(cmd)


def tower_pool():
    """Every pool key, in a fixed order (used to build golden.json)."""
    for cmd in ("dsolve", "dhensel"):
        for p in TOWER_PRIMES:
            for level in TOWER_LEVELS:
                for n in TOWER_ORDERS[cmd]:
                    for v in range(TOWER_VARIANTS):
                        yield (cmd, p, level, n, v)
    for p in TOWER_PRIMES:
        for width in SUBGROUP_WIDTHS:
            for npolys in (1, 2, 3):
                for v in range(TOWER_VARIANTS):
                    yield ("subgroup", p, width, npolys, v)


def golden_key(argv: List[str]) -> str:
    return "\x1f".join(argv)


def tower_request(rng, cmd, p, level, n, report="text", variant=None) -> Request:
    v = rng.randrange(TOWER_VARIANTS) if variant is None else variant
    argv = tower_entry(cmd, p, level, n, v)
    key = golden_key(argv)
    if cmd == "subgroup":
        kind, prec, label = f"subgroup f{p}", level, f"subgroup f{p} 0:{level} x{n}"
    else:
        kind, prec, label = f"{cmd} vdfield:{p} L{level}", n, f"{cmd} vdfield:{p}:{n} L{level}"
    return Request(argv + ["--report", report], kind, 0, prec, ("golden", key), label)


# ---------------------------------------------------------------------------
# the four workloads


# Each quantile of a pass should fall inside a group of same-shape requests:
# between two shapes of different cost it would jump from one to the other
# under host noise.  The ANCHOR groups below sit at p50 and at p90.


def _padic_ladder(rng) -> List[Request]:
    out = []
    for p in (2, 3, 5, 7):
        for n in PADIC_RUNGS:
            if n > PADIC_TOP[p]:
                continue
            out.append(lift1d_request(rng, p, n, "square"))
            if n <= CUBE_TOP:
                out.append(lift1d_request(rng, p, n, "cube"))
            if n <= SYSTEM_TOP[p]:
                out.append(liftnd_request(rng, p, n))
                out.append(implicit_request(rng, p, n))
                out.append(pinv_request(rng, p, n))
    # p50 anchor
    out += [implicit_request(rng, 5, 25) for _ in range(10)]
    return out


def _series_ladder(rng) -> List[Request]:
    out = [integrate_request(rng, n) for n in (12, 24, 48, 96) for _ in range(3)]
    out.append(invert_request(rng, 12, 2, target_order=8, precision=12))
    for n in (8, 16, 24, 32):
        out.append(invert_request(rng, n, 2))
    for n in (8, 12, 16, 24):
        out.append(invert_request(rng, n, 3))
    for n in (24, 48, 72, 96):
        out.append(ode_request(rng, n, dense=False))
    for n in (12, 24, 36):
        out.append(ode_request(rng, n, dense=True))
    # p50 anchor
    out += [invert_request(rng, 12, 2) for _ in range(6)]
    out += [ode_request(rng, 12, dense=False) for _ in range(6)]
    # p90 anchor
    out += [invert_request(rng, 40, 2) for _ in range(5)]
    return out


def _tower_window(rng) -> List[Request]:
    out = []
    for p in TOWER_PRIMES:
        for level in TOWER_LEVELS:
            for n in (8, 24):
                out.append(tower_request(rng, "dsolve", p, level, n))
            # dhensel cost differs several-fold between pool variants, so
            # every variant runs in every pass and the seed only orders them
            for v in range(TOWER_VARIANTS):
                out.append(tower_request(rng, "dhensel", p, level, 16, variant=v))
    for i, width in enumerate(SUBGROUP_WIDTHS):
        for npolys in (1, 2, 3):
            p = TOWER_PRIMES[(i + npolys) % 2]
            out.append(tower_request(rng, "subgroup", p, width, npolys))
    # p90 anchor
    out += [tower_request(rng, "subgroup", 3, 40, 3) for _ in range(4)]
    return out


def _cli_mix(rng) -> List[Request]:
    # sizes and levels are fixed per slot; the seed draws constants only
    out = []
    for half, report in enumerate(("text", "structured")):
        for p, n in ((3, 16), (5, 12), (7, 8)):
            out.append(lift1d_request(rng, p, n, "square", report))
            out.append(lift1d_request(rng, p, n, "cube", report))
            out.append(liftnd_request(rng, p, n, report))
            out.append(implicit_request(rng, p, n, report))
            out.append(pinv_request(rng, p, n, report))
        out.append(lift1d_request(rng, 2, 16, "square", report))
        out.append(invert_request(rng, 12, 2, report))
        out.append(ode_request(rng, 16, False, report))
        out.append(ode_request(rng, 12, True, report))
        out.append(integrate_request(rng, 12, report))
        out.append(tower_request(rng, "dsolve", 2, 2, 8, report))
        out.append(tower_request(rng, "dsolve", 3, 1, 8, report))
        for v in (2 * half, 2 * half + 1):
            out.append(tower_request(rng, "dhensel", 2, 1, 16, report, variant=v))
        out.append(tower_request(rng, "subgroup", 2, 12, 1, report))
        # p90 anchor
        out += [tower_request(rng, "subgroup", 3, 12, 2, report) for _ in range(4)]
        # documented non-zero exits
        out.append(Request(["lift1d", "--ground", f"padic:{rng.choice((3, 5))}",
                            "--poly", "1*X0^2 + -7", "--point", "1", "--report", report],
                           "lift1d padic:3", 64, 0, ("exit",), "bad ground"))
        out.append(Request(["liftnd", "--ground", "padic:7:12", "--point", "1;1",
                            "--report", report],
                           "liftnd padic:7", 64, 0, ("exit",), "missing --poly"))
        out.append(Request(["integrate", "--ground", "rosenlicht:1:12",
                            f"--target={rng.choice((1, 2, -1))}*t^(-1) + 1*t^(2) + O(t^(12))",
                            "--report", report],
                           "integrate rosenlicht", 2, 0, ("exit",), "integrate t^(-1)"))
        short = rng.choice((6, 8))
        out.append(Request(["dsolve", "--ground", "vdfield:2:16", "--precision", "12",
                            "--target", f"1*t^(1) + 1*t^(3) + O(t^({short}))",
                            "--report", report],
                           "dsolve vdfield:2 L1", 70, 0, ("exit",), "dsolve short target"))
        out.append(Request(["integrate", "--ground", "rosenlicht:1:16", "--precision", "12",
                            "--target", f"1*t^(0) + 1*t^(2) + O(t^({short}))",
                            "--report", report],
                           "integrate rosenlicht", 70, 0, ("exit",), "integrate short target"))
        out.append(invert_request(rng, 12, 2, report, target_order=8, precision=12))
    return out


_BUILDERS = {
    "padic-ladder": _padic_ladder,
    "series-ladder": _series_ladder,
    "tower-window": _tower_window,
    "cli-mix": _cli_mix,
}


def build_pass(workload: str, seed: int) -> List[Request]:
    """The workload's pass for this seed, in a seeded order."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    reqs = _BUILDERS[workload](rng)
    rng.shuffle(reqs)
    return reqs


def warmup_requests(requests: List[Request]) -> List[Request]:
    """The cheapest request of each kind, the set-up a one-shot CLI user
    pays for: it fills the process-wide tower moduli cache."""
    best = {}
    for r in requests:
        cur = best.get(r.kind)
        if cur is None or (r.expect != 0, r.precision) < (cur.expect != 0, cur.precision):
            best[r.kind] = r
    return [best[k] for k in sorted(best)]
