"""Command-line surface: every solver behind reproducible text I/O.

``COMMANDS`` maps each command to its ground kinds and a row, and it is the
only list of commands: the one flat parser takes the command as a positional
that options may precede or follow, and ``--help`` lists every command and
option (there is no per-command help).  A row parses the command's options,
calls its solver through the solver's module (so a rebound module attribute
is seen) and returns the solution entries, the certificate or None, and the
residual values as a function of entries.  ``run`` is the one path around
the rows: ground check, header, solution line and certificate, then the
round trip: the printed solution is parsed back and the residual values are
recomputed from it; one short of the requested precision exits 70.
``subgroup`` has no residual and writes its own lines.

Exit codes: 0 success, 2 hypothesis violation (with the offending
inequality), 3 stall (with the certificate prefix), 64 parse, usage and
syntax errors (``ultralift: ...``), 70 resource caps and precision loss (a
failed round trip counts as one).  Identical invocations produce
byte-identical reports: moduli tables are deterministic, sampled checks
take their seed from --seed, and iteration order is fixed.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from . import diff_fields, hensel, subgroups
from .errors import (HypothesisViolation, ParseError, PrecisionLossError,
                     ResourceCapError, StallError, UsageError)
from .fftower import is_prime
from .lifting import LiftCertificate
from .matrices import ValuedMatrix
from .padics import TruncatedPAdic, format_padic, parse_padic
from .polynomials import MultiPoly, parse_poly
from .series import (TruncatedSeries, field_by_name, format_series,
                     parse_series)
from .values import Value, ValuedVector

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_STALL = 3
EXIT_USAGE = 64
EXIT_RESOURCE = 70


@dataclass
class GroundSpec:
    kind: str
    p: int = 0
    field_name: str = "q"
    denom: int = 1
    precision: Fraction = Fraction(0)

    @staticmethod
    def parse(text: str) -> "GroundSpec":
        parts = text.split(":")
        kind = parts[0]
        try:
            if kind in ("padic", "vdfield") and len(parts) == 3:
                spec = GroundSpec(kind, p=int(parts[1]),
                                  precision=Fraction(parts[2]))
                if not is_prime(spec.p):
                    raise ParseError(f"bad ground {text!r}: p = {spec.p} is not prime")
                return spec
            if kind == "series" and len(parts) == 4:
                return GroundSpec("series", field_name=parts[1],
                                  denom=int(parts[2]),
                                  precision=Fraction(parts[3]))
            if kind == "rosenlicht" and len(parts) == 3:
                return GroundSpec("rosenlicht", denom=int(parts[1]),
                                  precision=Fraction(parts[2]))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad ground {text!r}: {exc}") from exc
        raise ParseError(
            f"bad ground {text!r}; expected padic:p:N, series:field:d:N, "
            "vdfield:p:N, or rosenlicht:d:N")

    def describe(self) -> str:
        if self.kind == "padic":
            return f"padic({self.p}, {self.precision})"
        if self.kind == "series":
            return f"series({self.field_name}, 1/{self.denom} grid, O(t^{self.precision}))"
        if self.kind == "vdfield":
            return f"vdfield({self.p}, O(t^{self.precision}))"
        return f"rosenlicht(1/{self.denom} grid, O(t^{self.precision}))"

    def coeff_field(self, level_cap: Optional[int] = None):
        if self.kind == "padic":
            raise UsageError("p-adic grounds have no coefficient field")
        return field_by_name(f"f{self.p}" if self.kind == "vdfield" else self.field_name,
                             level_cap)

    def element(self, text: str, order: Fraction, level_cap: Optional[int] = None):
        """Parse a ground element: a literal with a big-O marker is taken at
        its word (padding it would invent digits), an exact one is read
        modulo ``order``, and tower coefficients by ``coeff_field(level_cap)``."""
        text = text.strip()
        if self.kind == "padic":
            if "O(" in text:
                a = parse_padic(text)
                if a.p != self.p:
                    raise ParseError(f"literal is {a.p}-adic, ground is {self.p}-adic")
                return a
            return TruncatedPAdic.from_rational(
                self.p, _rational(text, "p-adic literal"), math.ceil(order))
        fld = self.coeff_field(level_cap)
        if "O(" in text:
            return parse_series(text, fld, self.denom)
        const = _rational(text, "series literal")
        return TruncatedSeries(fld, self.denom, {Fraction(0): const}, order)

    def show(self, x) -> str:
        return format_padic(x) if isinstance(x, TruncatedPAdic) else format_series(x)


def _rational(text: str, what: str) -> Fraction:
    """A rational from the command line; malformed text is a ParseError."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad {what} {text!r}") from exc


def _integers(text: str, what: str, count: int = 1) -> List[int]:
    """``count`` colon-separated integers from the command line; malformed
    text is a ParseError."""
    try:
        out = [int(x) for x in text.split(":")]
    except ValueError:
        out = []
    if len(out) != count:
        raise ParseError(f"bad {what} {text!r}")
    return out


def _split_list(text: str) -> List[str]:
    return [chunk.strip() for chunk in text.split(";") if chunk.strip()]


@dataclass
class Report:
    lines: List[str] = field(default_factory=list)
    data: Dict[str, object] = field(default_factory=dict)

    def put(self, key: str, value):
        self.data[key] = value
        self.lines.append(f"{key}: {value}")

    def certificate(self, cert: LiftCertificate):
        self.data["steps"] = [[str(s.residual_before), str(s.residual_after)]
                              for s in cert.steps]
        self.data["final_residual"] = str(cert.final_residual)
        self.data["outcome"] = cert.outcome
        self.lines.append(cert.table())
        if cert.uniqueness_ball is not None:
            self.put("uniqueness ball", str(cert.uniqueness_ball))

    def render(self, mode: str) -> str:
        if mode == "structured":
            return json.dumps(self.data, sort_keys=True, indent=2)
        return "\n".join(self.lines)


class Job(argparse.Namespace):
    """The options of one request.  ``run`` parses --ground and --precision
    and sets ``order`` = max(ground precision, --precision): exact literals
    are read modulo it, and only a solver's iterate is carried past it."""

    def need(self, key: str):
        val = getattr(self, key)
        if val in (None, []):
            flag = key.replace("_", "-").replace("polys", "poly")
            raise UsageError(f"command {self.command} needs --{flag}")
        return val

    def field(self):
        return self.ground.coeff_field(self.tower_cap)

    def element(self, text: str, order: Optional[Fraction] = None):
        return self.ground.element(text, order or self.order, self.tower_cap)

    def elements(self, text: str) -> list:
        return [self.element(t) for t in _split_list(text)]

    def parse_polys(self, texts: List[str], nvars: int) -> List[MultiPoly]:
        """Series literals in a polynomial are ground elements, parenthesized
        literals coefficient-field elements, the rest rationals."""
        def coeff(tok: str):
            tok = tok.strip()
            if "t^" in tok or "O(" in tok:
                return self.element(tok)
            if tok.startswith("("):
                return self.field().parse(tok)
            return _rational(tok, "coefficient")

        return [parse_poly(t, nvars, coeff) for t in texts]


def _roots(polys, known=()):
    return lambda ys: [f.eval([*known, *ys]).value() for f in polys]


def _lift1d(job: Job, rep: Report):
    poly, = job.parse_polys(job.need("polys")[:1], 1)
    b = job.element(job.need("point"))
    root, cert = hensel.newton_1d(poly, b, Value(job.precision))
    return [root], cert, _roots([poly])


def _liftnd(job: Job, rep: Report):
    texts = job.need("polys")
    polys = job.parse_polys(texts, len(texts))
    b = ValuedVector(job.elements(job.need("point")))
    roots, cert = hensel.newton_nd(polys, b, Value(job.precision))
    return roots, cert, _roots(polys)


def _implicit(job: Job, rep: Report):
    texts, zs = job.need("polys"), job.need("point")
    xs = _split_list(job.need("target"))
    polys = job.parse_polys(texts, len(xs) + len(texts))
    z = job.elements(zs)
    x_new = [job.element(t) for t in xs]
    ys, cert = hensel.implicit_fn(polys, z, x_new, Value(job.precision))
    return ys, cert, _roots(polys, x_new)


def _pinv_lift(job: Job, rep: Report):
    texts = job.need("polys")
    polys = job.parse_polys(texts, len(texts))
    b = ValuedVector(job.elements(job.need("point")))
    Mo = ValuedMatrix([job.elements(row)
                       for row in job.need("pseudo_inverse").split("|")])
    roots, cert = hensel.pseudo_inverse_lift(polys, b, Mo, Value(job.precision))
    return roots, cert, _roots(polys)


def _invert_series(job: Job, rep: Report):
    fld = job.field()
    coeffs = [fld.parse(t) for t in _split_list(job.need("coeffs"))]
    z = job.element(job.need("target"))
    root, cert = hensel.series_invert(coeffs, z, Value(job.precision))
    terms = {(i,): c for i, c in enumerate(coeffs, start=1)}
    return [root], cert, _roots([MultiPoly(1, {(0,): -z, **terms})])


def _instance(job: Job):
    if job.ground.kind == "vdfield":
        return diff_fields.VDFieldInstance(p=job.ground.p, trunc=job.order,
                                           tower_degree_cap=job.tower_cap)
    return diff_fields.RosenlichtInstance(denom=job.ground.denom, trunc=job.order)


def _antiderivative(job: Job, rep: Report):
    """dsolve and integrate: D y = target on the ground's instance."""
    inst = _instance(job)
    target = job.element(job.need("target"))
    solve = diff_fields.d_solve if job.command == "dsolve" else diff_fields.integrate
    y = solve(inst, target, Value(job.precision))
    return [y], None, lambda ys: [(target - inst.D(ys[0])).value()]


def _dhensel(job: Job, rep: Report):
    inst = _instance(job)
    nvars = _integers(str(job.nvars or 2), "--nvars")[0]
    poly, = job.parse_polys(job.need("polys")[:1], nvars)
    b = job.element(job.point or "0")
    y, cert = diff_fields.dhensel_solve(inst, poly, b, Value(job.precision),
                                        rng=random.Random(job.seed),
                                        samples=job.samples)
    return [y], cert, lambda ys: [
        poly.eval([inst.D_iter(ys[0], i) for i in range(nvars)]).value()]


def _ode(job: Job, rep: Report):
    inst = _instance(job)
    nvars = _integers(str(job.nvars or 2), "--nvars")[0]
    g, = job.parse_polys(job.need("polys")[:1], nvars)
    c = job.element(job.need("target"))
    r = _rational(job.need("r"), "--r")
    y, cert = diff_fields.ode_solve(inst, g, c, r, Value(job.precision),
                                    route=job.route or "dominant",
                                    rng=random.Random(job.seed),
                                    samples=job.samples)
    return [y], cert, lambda ys: [diff_fields.ode_residual(inst, g, c, ys[0]).value()]


def _subgroup(job: Job, rep: Report):
    """No residual to re-verify: the row writes its own report lines."""
    if job.ground.denom != 1:
        raise UsageError("subgroup runs on integer-grid series grounds")
    fld = job.field()
    if not hasattr(fld, "p"):
        raise UsageError("subgroup needs a finite coefficient field")
    lo, hi = _integers(job.need("window"), "--window", 2)
    polys = []
    for spec in job.need("addpolys"):
        texts = _split_list(spec)
        # the range from the values at the run's order, then re-read to it
        need = subgroups.input_range(fld.p, job.elements(spec), (lo, hi))[1]
        coeffs = tuple(job.element(t, max(job.order, need)) for t in texts)
        polys.append(subgroups.AdditivePoly(fld.p, coeffs))
    spaces = [subgroups.image_window(f, (lo, hi)) for f in polys]
    for i, s in enumerate(spaces):
        rep.put(f"image {i} pivots", str(s.pivots()))
        rep.data[f"image {i} basis"] = [list(r) for r in s.basis]
    verdict = subgroups.pseudo_direct_check(spaces, (lo, hi))
    rep.put("pseudo-direct on window", verdict.ok)
    if not verdict.ok:
        rep.put("witness (window coordinates)", str(list(verdict.witness)))
        rep.put("witness value", str(verdict.witness_value))
    if job.approx:
        a = job.element(job.approx, max(job.order, hi))
        res = subgroups.optimal_approx(a, spaces, (lo, hi))
        rep.put("best approximation (window coordinates)", str(list(res.best)))
        achieved = f">= {hi}" if res.at_window_top else str(res.achieved)
        rep.put("achieved value", achieved)
        rep.put("approximation certified optimal", res.pseudo_direct)


_ANY = ("padic", "series", "vdfield", "rosenlicht")

# command -> (ground kinds it runs on, row)
COMMANDS = {
    "lift1d": (("padic", "series"), _lift1d),
    "liftnd": (_ANY, _liftnd),
    "implicit": (_ANY, _implicit),
    "pinv-lift": (_ANY, _pinv_lift),
    "invert-series": (("series",), _invert_series),
    "dsolve": (("vdfield",), _antiderivative),
    "dhensel": (("vdfield",), _dhensel),
    "integrate": (("rosenlicht",), _antiderivative),
    "ode": (("rosenlicht",), _ode),
    "subgroup": (("series",), _subgroup),
}


def run(job: Job) -> Report:
    """One request through its row, the report and the round trip."""
    job.ground = GroundSpec.parse(job.ground)
    job.precision = (_rational(job.precision, "--precision") if job.precision
                     else job.ground.precision)
    if job.precision <= 0:
        raise UsageError("precision must be positive")
    job.order = max(job.ground.precision, job.precision)
    if job.samples < 1:
        raise ParseError(f"--samples must be at least 1, not {job.samples}")
    kinds, row = COMMANDS[job.command]
    if job.ground.kind not in kinds:
        raise UsageError(f"{job.command} runs on {' or '.join(kinds)} grounds")
    rep = Report()
    rep.put("command", job.command)
    rep.put("ground", job.ground.describe())
    rep.put("precision", str(job.precision))
    solved = row(job, rep)
    if solved is None:
        return rep
    entries, cert, residuals = solved
    shown = [job.ground.show(x) for x in entries]
    rep.put("solution", " ; ".join(shown))
    if cert is not None:
        rep.certificate(cert)
    # --tower-cap bounds the inputs; the printed solution is read back as is
    vals = residuals([job.ground.element(t, job.order) for t in shown])
    listed = "[" + ", ".join(str(v) for v in vals) + "]"
    ok = all(v >= Value(job.precision) for v in vals)
    rep.put("reverified residual values", listed)
    rep.put("reverified", ok)
    if not ok:
        raise PrecisionLossError(
            f"round-trip verification failed: residual values {listed} short "
            f"of the requested {job.precision}; supply wider inputs")
    return rep


class _Parser(argparse.ArgumentParser):
    """Syntax errors raise ParseError (exit 64)."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="ultralift",
        description="finite-precision Hensel/Newton lifting over valued fields")
    ap.add_argument("command", choices=tuple(COMMANDS))
    ap.add_argument("--ground", required=True)
    ap.add_argument("--precision", default=None)
    ap.add_argument("--poly", action="append", default=None, dest="polys")
    ap.add_argument("--point", default=None)
    ap.add_argument("--target", default=None)
    ap.add_argument("--coeffs", default=None)
    ap.add_argument("--pseudo-inverse", dest="pseudo_inverse", default=None)
    ap.add_argument("--r", default=None)
    ap.add_argument("--route", default=None)
    ap.add_argument("--nvars", default=None)
    ap.add_argument("--addpoly", action="append", default=None, dest="addpolys")
    ap.add_argument("--window", default=None)
    ap.add_argument("--approx", default=None)
    ap.add_argument("--report", choices=("text", "structured"), default="text")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--samples", type=int, default=6)
    ap.add_argument("--tower-cap", dest="tower_cap", type=int, default=64)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        job = ap.parse_args(argv, namespace=Job())
        rep = run(job)
    except (ParseError, UsageError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HypothesisViolation as exc:
        print(f"hypothesis violated: {exc}")
        for k, v in getattr(exc, "details", {}).items():
            print(f"  {k}: {v}")
        return EXIT_HYPOTHESIS
    except StallError as exc:
        print(f"stalled: {exc}")
        if exc.certificate is not None:
            print(exc.certificate.table())
        return EXIT_STALL
    except (PrecisionLossError, ResourceCapError) as exc:
        print(f"resource/precision limit: {exc}")
        return EXIT_RESOURCE
    print(rep.render(job.report))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
