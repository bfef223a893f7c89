"""Spans around the calls into each ultralift module, installed from the
benchmark's side by wrapping public functions and methods.

A span is (name, start, end, parent span, request id).  Spans live in
flat arrays while the traced pass runs and are written out when it ends;
self time, call counts and the per-layer metrics are derived from them.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import types
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# the layers, in the order the metrics are listed
MODULES = ("padics", "series", "fftower", "polynomials", "matrices", "lifting",
           "hensel", "operators", "diff_fields", "subgroups", "values", "cli")

# dunder methods that are part of a layer's public surface, by op name;
# reflected forms count with their plain op
DUNDER_OPS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__mul__": "mul", "__rmul__": "mul", "__truediv__": "div",
    "__rtruediv__": "div", "__neg__": "neg", "__pow__": "pow",
    "__hash__": "hash", "__eq__": "eq", "__lt__": "lt",
}
# span names that differ from the function name
ALIASES = {"polynomials.parse_poly": "polynomials.parse"}
# trivial predicates, coercions and constants are not wrapped: they are
# called millions of times, and their time counts in the caller's self time
UNWRAPPED = {"is_zero", "is_zero_mod_precision", "precision_cap", "grid_step",
             "coerce", "owns", "zero", "one", "from_int", "zero_like", "one_like"}


class Tracer:
    def __init__(self):
        self.modules = {m: importlib.import_module(f"ultralift.{m}") for m in MODULES}
        self.names: list = []
        self._ids: dict = {}
        self.start = array.array("d")
        self.end = array.array("d")
        self.name = array.array("i")
        self.parent = array.array("i")
        self.req = array.array("i")
        self.stack = [-1]
        self.request_id = -1
        self.counters = defaultdict(int)
        self.driven_requests: set = set()
        self._undo: list = []

    # -- installation ---------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name, fn, on_return=None):
        nid = self._id(ALIASES.get(name, name))
        start, end, names, parents, reqs = (self.start, self.end, self.name,
                                            self.parent, self.req)
        stack = self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            reqs.append(tracer.request_id)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _on_drive(self, result):
        self.counters["lifting.steps"] += len(result[1].steps)
        self.driven_requests.add(self.request_id)

    def _on_draws(self, result):
        self.counters["operators.axiom_draws"] += len(result)

    def install(self):
        replaced = {}
        for short, mod in self.modules.items():
            for attr, val in list(vars(mod).items()):
                if isinstance(val, type) and val.__module__ == mod.__name__:
                    self._install_class(short, val)
                elif (isinstance(val, types.FunctionType) and not attr.startswith("_")
                      and val.__module__ == mod.__name__):
                    hook = self._on_drive if attr == "newton_drive" else None
                    replaced[val] = self._wrap(f"{short}.{attr}", val, hook)
        # module globals that hold a wrapped function (imports, aliases)
        for mod in self.modules.values():
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in replaced:
                    self._set(mod, attr, replaced[val])
        ops = self.modules["operators"].OperatorFamily
        self._set(ops, "_draws", self._wrap("operators.draws", ops.__dict__["_draws"],
                                            self._on_draws))

    def _install_class(self, short, cls):
        for attr, val in list(vars(cls).items()):
            if attr in DUNDER_OPS:
                name = DUNDER_OPS[attr]
            elif attr.startswith("_") or attr in UNWRAPPED:
                continue
            else:
                name = attr
            if isinstance(val, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(f"{short}.{name}", val.__func__)))
            elif isinstance(val, types.FunctionType):
                self._set(cls, attr, self._wrap(f"{short}.{name}", val))

    def uninstall(self):
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    # -- results ----------------------------------------------------------

    def write(self, path: Path):
        """Spans as five arrays in native byte order after a one-line JSON header."""
        header = {"names": self.names, "count": len(self.name),
                  "arrays": ["name:i32", "parent:i32", "request:i32",
                             "start:f64", "end:f64"]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.req, self.start, self.end):
                arr.tofile(fh)

    def summary(self):
        """Per span name: (calls, total self seconds); plus the summed
        duration of the root spans (one per request)."""
        n = len(self.name)
        child = array.array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            par = parent[i]
            if par >= 0:
                child[par] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        root_s = 0.0
        for i in range(n):
            dur = end[i] - start[i]
            k = self.name[i]
            calls[k] += 1
            self_s[k] += dur - child[i]
            if parent[i] < 0:
                root_s += dur
        per_name = {nm: (calls[k], self_s[k]) for k, nm in enumerate(self.names)}
        return per_name, root_s


def layer_metrics(tracer: Tracer, passes: int, digits_driven: int,
                  overhead_s: float) -> dict:
    """The per-layer metrics, normalized to one pass over the request list."""
    per_name, root_s = tracer.summary()
    mod_calls, mod_self = defaultdict(int), defaultdict(float)
    for nm, (c, s) in per_name.items():
        mod = nm.split(".", 1)[0]
        mod_calls[mod] += c
        mod_self[mod] += s

    def calls(nm):
        return per_name.get(nm, (0, 0.0))[0] / passes

    def self_s(nm):
        return per_name.get(nm, (0, 0.0))[1] / passes

    steps = tracer.counters["lifting.steps"]
    m = {
        "padics.value.calls": (calls("padics.value"), "count"),
        "padics.mul.calls": (calls("padics.mul"), "count"),
        "lifting.steps": (steps / passes, "count"),
        "lifting.steps_per_digit": (steps / digits_driven if digits_driven else 0.0,
                                    "steps/digit"),
        "series.mul.calls": (calls("series.mul"), "count"),
        "series.div.calls": (calls("series.div"), "count"),
        "fftower.mul.calls": (calls("fftower.mul"), "count"),
        "fftower.inverse.calls": (calls("fftower.inverse"), "count"),
        "fftower.hash.calls": (calls("fftower.hash"), "count"),
        "fftower.modulus.self_s": (self_s("fftower.modulus"), "s"),
        "subgroups.image_window.self_s": (self_s("subgroups.image_window"), "s"),
        "matrices.adjugate.calls": (calls("matrices.adjugate"), "count"),
        "polynomials.eval.calls": (calls("polynomials.eval"), "count"),
        "polynomials.parse.self_s": (self_s("polynomials.parse"), "s"),
        "operators.axiom_draws": (tracer.counters["operators.axiom_draws"] / passes,
                                  "count"),
        "values.calls": (mod_calls["values"] / passes, "count"),
        "cli.build_parser.self_s": (self_s("cli.build_parser"), "s"),
    }
    for mod in MODULES:
        m[f"{mod}.self_s"] = (mod_self[mod] / passes, "s")
        m[f"{mod}.self_share"] = (mod_self[mod] / root_s if root_s else 0.0, "ratio")
    m["bench.trace_overhead_s"] = (overhead_s / passes, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
