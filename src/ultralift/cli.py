"""Command-line surface: every solver behind reproducible text I/O.

Exit codes: 0 success, 2 hypothesis violation (with the offending
inequality), 3 stall (with the certificate prefix), 64 parse/usage
errors, 70 resource caps and precision loss (a solution that fails its
round-trip re-verification counts as one).  Identical invocations
produce byte-identical reports: moduli tables are deterministic, sampled
checks take their seed from --seed, and iteration order is fixed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from . import diff_fields, hensel, subgroups
from .errors import (HypothesisViolation, ParseError, PrecisionLossError,
                     ResourceCapError, StallError, UsageError)
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
            if kind == "padic" and len(parts) == 3:
                return GroundSpec("padic", p=int(parts[1]),
                                  precision=Fraction(parts[2]))
            if kind == "series" and len(parts) == 4:
                return GroundSpec("series", field_name=parts[1],
                                  denom=int(parts[2]),
                                  precision=Fraction(parts[3]))
            if kind == "vdfield" and len(parts) == 3:
                return GroundSpec("vdfield", p=int(parts[1]),
                                  precision=Fraction(parts[2]))
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

    def coeff_field(self):
        if self.kind == "series":
            return field_by_name(self.field_name)
        if self.kind == "vdfield":
            return field_by_name(f"f{self.p}")
        if self.kind == "rosenlicht":
            return field_by_name("q")
        raise UsageError("p-adic grounds have no coefficient field")

    def element(self, text: str, widen: Fraction = Fraction(0)):
        """Parse a ground element.

        Literals without a big-O marker are exact, so headroom widening
        applies to them; a literal that states its own truncation order is
        taken at its word (fabricating digits past it would be unsound)."""
        text = text.strip()
        if self.kind == "padic":
            n = int(self.precision + widen)
            if "O(" in text:
                a = parse_padic(text)
                if a.p != self.p:
                    raise ParseError(f"literal is {a.p}-adic, ground is {self.p}-adic")
                return a
            return TruncatedPAdic.from_rational(
                self.p, _rational(text, "p-adic literal"), n)
        fld = self.coeff_field()
        trunc = self.precision + widen
        if "O(" in text:
            return parse_series(text, fld, self.denom)
        const = _rational(text, "series literal")
        return TruncatedSeries(fld, self.denom, {Fraction(0): const}, trunc)

    def show(self, x) -> str:
        if isinstance(x, TruncatedPAdic):
            return format_padic(x)
        return format_series(x)


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
class JobSpec:
    command: str
    ground: GroundSpec
    precision: Fraction
    payload: Dict[str, object]
    report: str = "text"
    seed: int = 0
    samples: int = 6
    headroom: Fraction = Fraction(8)
    tower_cap: int = 64


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


def _poly_parser(ground: GroundSpec, widen: Fraction):
    def parse_c(tok: str):
        tok = tok.strip()
        if "t^" in tok or "O(" in tok:
            return ground.element(tok, widen)
        if tok.startswith("("):
            return ground.coeff_field().parse(tok)
        return _rational(tok, "coefficient")

    return parse_c


def run(job: JobSpec) -> Report:
    handler = _HANDLERS.get(job.command)
    if handler is None:
        raise UsageError(f"unknown command {job.command!r}")
    rep = Report()
    rep.put("command", job.command)
    rep.put("ground", job.ground.describe())
    rep.put("precision", str(job.precision))
    handler(job, rep)
    return rep


def _need(job: JobSpec, key: str) -> object:
    val = job.payload.get(key)
    if val in (None, []):
        raise UsageError(f"command {job.command} needs --{key.replace('_', '-')}")
    return val


def _reverify(job: JobSpec, rep: Report, vals: List[Value]):
    """Report the residual values recomputed from the printed solution; one
    short of the requested precision is a precision shortage (exit 70)."""
    shown = "[" + ", ".join(str(v) for v in vals) + "]"
    ok = all(v >= Value(job.precision) for v in vals)
    rep.put("reverified residual values", shown)
    rep.put("reverified", ok)
    if not ok:
        raise PrecisionLossError(
            f"round-trip verification failed: residual values {shown} short "
            f"of the requested {job.precision}; supply wider inputs")


def _reverify_root(job: JobSpec, rep: Report, polys, root_texts: List[str]):
    """Round-trip: re-parse the printed solution and recompute the residual."""
    fresh = [job.ground.element(t) for t in root_texts]
    _reverify(job, rep, [f.eval(fresh).value() for f in polys])


def _cmd_lift1d(job: JobSpec, rep: Report):
    if job.ground.kind not in ("padic", "series"):
        raise UsageError("lift1d runs on padic or series grounds")
    text = str(_need(job, "poly"))
    poly = parse_poly(text, 1, _poly_parser(job.ground, job.headroom))
    b = job.ground.element(str(_need(job, "point")), job.headroom)
    root, cert = hensel.newton_1d(poly, b, Value(job.precision))
    rep.put("solution", job.ground.show(root))
    rep.certificate(cert)
    _reverify_root(job, rep, [poly], [job.ground.show(root)])


def _cmd_liftnd(job: JobSpec, rep: Report):
    texts = _need(job, "polys")
    polys = [parse_poly(t, len(texts), _poly_parser(job.ground, job.headroom))
             for t in texts]
    pts = _split_list(str(_need(job, "point")))
    b = ValuedVector([job.ground.element(t, job.headroom) for t in pts])
    roots, cert = hensel.newton_nd(polys, b, Value(job.precision))
    shown = [job.ground.show(x) for x in roots]
    rep.put("solution", " ; ".join(shown))
    rep.certificate(cert)
    _reverify_root(job, rep, polys, shown)


def _cmd_implicit(job: JobSpec, rep: Report):
    texts = _need(job, "polys")
    n = len(texts)
    zs = _split_list(str(_need(job, "point")))
    xs = _split_list(str(_need(job, "target")))
    m = len(xs)
    polys = [parse_poly(t, m + n, _poly_parser(job.ground, job.headroom))
             for t in texts]
    z = [job.ground.element(t, job.headroom) for t in zs]
    x_new = [job.ground.element(t, job.headroom) for t in xs]
    ys, cert = hensel.implicit_fn(polys, z, x_new, Value(job.precision))
    shown = [job.ground.show(y) for y in ys]
    rep.put("solution", " ; ".join(shown))
    rep.certificate(cert)
    fresh = x_new + [job.ground.element(t) for t in shown]
    _reverify(job, rep, [f.eval(fresh).value() for f in polys])


def _cmd_pinv_lift(job: JobSpec, rep: Report):
    texts = _need(job, "polys")
    polys = [parse_poly(t, len(texts), _poly_parser(job.ground, job.headroom))
             for t in texts]
    pts = _split_list(str(_need(job, "point")))
    b = ValuedVector([job.ground.element(t, job.headroom) for t in pts])
    rows = [[job.ground.element(e, job.headroom) for e in _split_list(row)]
            for row in str(_need(job, "pseudo_inverse")).split("|")]
    Mo = ValuedMatrix(rows)
    roots, cert = hensel.pseudo_inverse_lift(polys, b, Mo, Value(job.precision))
    shown = [job.ground.show(x) for x in roots]
    rep.put("solution", " ; ".join(shown))
    rep.certificate(cert)
    _reverify_root(job, rep, polys, shown)


def _cmd_invert_series(job: JobSpec, rep: Report):
    if job.ground.kind != "series":
        raise UsageError("invert-series runs on series grounds")
    fld = job.ground.coeff_field()
    coeffs = [fld.parse(t) for t in _split_list(str(_need(job, "coeffs")))]
    z = job.ground.element(str(_need(job, "target")), job.headroom)
    root, cert = hensel.series_invert(coeffs, z, Value(job.precision))
    rep.put("solution", job.ground.show(root))
    rep.certificate(cert)
    fresh = job.ground.element(job.ground.show(root))
    acc = fresh.zero_like()
    power = fresh.one_like()
    for c in coeffs:
        power = power * fresh
        acc = acc + power * c
    _reverify(job, rep, [(acc - z).value()])


def _vd_instance(job: JobSpec) -> diff_fields.VDFieldInstance:
    return diff_fields.VDFieldInstance(
        p=job.ground.p, trunc=job.ground.precision + job.headroom,
        tower_degree_cap=job.tower_cap)


def _cmd_dsolve(job: JobSpec, rep: Report):
    if job.ground.kind != "vdfield":
        raise UsageError("dsolve runs on vdfield grounds")
    inst = _vd_instance(job)
    target = job.ground.element(str(_need(job, "target")), job.headroom)
    sol = diff_fields.d_solve(inst, target, Value(job.precision))
    rep.put("solution", format_series(sol))
    fresh = parse_series(format_series(sol), inst.field, inst.denom)
    _reverify(job, rep, [(target - inst.D(fresh)).value()])


def _cmd_dhensel(job: JobSpec, rep: Report):
    if job.ground.kind != "vdfield":
        raise UsageError("dhensel runs on vdfield grounds")
    inst = _vd_instance(job)
    nvars = _integers(str(job.payload.get("nvars") or 2), "--nvars")[0]
    poly = parse_poly(str(_need(job, "poly")), nvars,
                      _poly_parser(job.ground, job.headroom))
    b = job.ground.element(str(job.payload.get("point") or "0"), job.headroom)
    rng = random.Random(job.seed)
    root, cert = diff_fields.dhensel_solve(inst, poly, b, Value(job.precision),
                                           rng=rng, samples=job.samples)
    rep.put("solution", format_series(root))
    rep.certificate(cert)
    fresh = parse_series(format_series(root), inst.field, inst.denom)
    point = [inst.D_iter(fresh, i) for i in range(nvars)]
    _reverify(job, rep, [poly.eval(point).value()])


def _ros_instance(job: JobSpec) -> diff_fields.RosenlichtInstance:
    return diff_fields.RosenlichtInstance(
        denom=job.ground.denom, trunc=job.ground.precision + job.headroom)


def _cmd_integrate(job: JobSpec, rep: Report):
    if job.ground.kind != "rosenlicht":
        raise UsageError("integrate runs on rosenlicht grounds")
    inst = _ros_instance(job)
    target = job.ground.element(str(_need(job, "target")), job.headroom)
    sol = diff_fields.integrate(inst, target, Value(job.precision))
    rep.put("solution", format_series(sol))
    fresh = parse_series(format_series(sol), inst.field, inst.denom)
    _reverify(job, rep, [(target - inst.D(fresh)).value()])


def _cmd_ode(job: JobSpec, rep: Report):
    if job.ground.kind != "rosenlicht":
        raise UsageError("ode runs on rosenlicht grounds")
    inst = _ros_instance(job)
    nvars = _integers(str(job.payload.get("nvars") or 2), "--nvars")[0]
    g = parse_poly(str(_need(job, "poly")), nvars,
                   _poly_parser(job.ground, job.headroom))
    c = job.ground.element(str(_need(job, "target")), job.headroom)
    r = _rational(str(_need(job, "r")), "--r")
    route = str(job.payload.get("route") or "dominant")
    rng = random.Random(job.seed)
    y, cert = diff_fields.ode_solve(inst, g, c, r, Value(job.precision),
                                    route=route, rng=rng, samples=job.samples)
    rep.put("solution", format_series(y))
    rep.certificate(cert)
    fresh = parse_series(format_series(y), inst.field, inst.denom)
    _reverify(job, rep, [diff_fields.ode_residual(inst, g, c, fresh).value()])


def _cmd_subgroup(job: JobSpec, rep: Report):
    if job.ground.kind != "series" or job.ground.denom != 1:
        raise UsageError("subgroup runs on integer-grid series grounds")
    fld = job.ground.coeff_field()
    if not hasattr(fld, "p"):
        raise UsageError("subgroup needs a finite coefficient field")
    lo, hi = _integers(str(_need(job, "window")), "--window", 2)
    widen = Fraction(max(0, hi) + job.headroom * (hi - lo))
    polys = []
    for spec in _need(job, "addpolys"):
        coeffs = tuple(job.ground.element(t, widen) for t in _split_list(spec))
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
    approx_text = job.payload.get("approx")
    if approx_text:
        a = job.ground.element(str(approx_text), widen)
        res = subgroups.optimal_approx(a, spaces, (lo, hi))
        rep.put("best approximation (window coordinates)", str(list(res.best)))
        achieved = f">= {hi}" if res.at_window_top else str(res.achieved)
        rep.put("achieved value", achieved)
        rep.put("approximation certified optimal", res.pseudo_direct)


_HANDLERS = {
    "lift1d": _cmd_lift1d,
    "liftnd": _cmd_liftnd,
    "implicit": _cmd_implicit,
    "pinv-lift": _cmd_pinv_lift,
    "invert-series": _cmd_invert_series,
    "dsolve": _cmd_dsolve,
    "dhensel": _cmd_dhensel,
    "integrate": _cmd_integrate,
    "ode": _cmd_ode,
    "subgroup": _cmd_subgroup,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ultralift",
        description="finite-precision Hensel/Newton lifting over valued fields")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        sp = sub.add_parser(name)
        sp.add_argument("--ground", required=True)
        sp.add_argument("--precision", default=None)
        sp.add_argument("--poly", action="append", default=None,
                        dest="polys")
        sp.add_argument("--point", default=None)
        sp.add_argument("--target", default=None)
        sp.add_argument("--coeffs", default=None)
        sp.add_argument("--pseudo-inverse", dest="pseudo_inverse", default=None)
        sp.add_argument("--r", default=None)
        sp.add_argument("--route", default=None)
        sp.add_argument("--nvars", default=None)
        sp.add_argument("--addpoly", action="append", default=None,
                        dest="addpolys")
        sp.add_argument("--window", default=None)
        sp.add_argument("--approx", default=None)
        sp.add_argument("--report", choices=("text", "structured"),
                        default="text")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--samples", type=int, default=6)
        sp.add_argument("--headroom", default="8")
        sp.add_argument("--tower-cap", dest="tower_cap", type=int, default=64)
    return ap


def job_from_args(args) -> JobSpec:
    ground = GroundSpec.parse(args.ground)
    precision = (_rational(args.precision, "--precision") if args.precision
                 else ground.precision)
    if precision <= 0:
        raise UsageError("precision must be positive")
    payload = {
        "polys": args.polys,
        "poly": args.polys[0] if args.polys else None,
        "point": args.point,
        "target": args.target,
        "coeffs": args.coeffs,
        "pseudo_inverse": args.pseudo_inverse,
        "r": args.r,
        "route": args.route,
        "nvars": args.nvars,
        "addpolys": args.addpolys,
        "window": args.window,
        "approx": args.approx,
    }
    return JobSpec(command=args.command, ground=ground, precision=precision,
                   payload=payload, report=args.report, seed=args.seed,
                   samples=args.samples, tower_cap=args.tower_cap,
                   headroom=_rational(args.headroom, "--headroom"))


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        job = job_from_args(args)
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
