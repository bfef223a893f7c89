"""Compare two sets of benchmark results, or summarize one.

    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl]

Each file holds one JSON line per run, as ``run.py --out FILE`` appends
them.  Per workload and metric this prints each side's median and
quartiles and the spread (quartile distance over median).  With two files
it adds the ratio CHANGE/BASE and a verdict against the metric's bound
from ``BENCHMARK.json``: "unresolved" when either side's spread is wider
than the bound, else "worse", "better" or "same" by whether the medians
differ by more than the bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load(path):
    """{(workload, trace): {metric: [values]}} from a JSON-lines file."""
    out = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        for name, m in row["result"]["metrics"].items():
            out[(row["workload"], row["trace"])][name].append(m["value"])
    return out


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def verdict(metric, base, change):
    bound, lower = metric["bound"], metric["better"] == "lower"
    if base[3] > bound or change[3] > bound:
        return "unresolved"
    ratio = change[0] / base[0] if base[0] else float("inf")
    worse = ratio - 1 if lower else 1 - ratio
    if worse > bound:
        return "worse"
    if -worse > bound:
        return "better"
    return "same"


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 64
    sides = [load(p) for p in argv]
    spec = json.loads(SPEC_PATH.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    keys = sorted(set().union(*(s.keys() for s in sides)))
    for wl, trace in keys:
        names = sorted(set().union(*(s[(wl, trace)].keys() for s in sides)))
        print(f"== {wl} (trace {trace})")
        for name in names:
            cells = []
            got = []
            for s in sides:
                vals = s[(wl, trace)].get(name)
                if not vals:
                    cells.append(f"{'-':>40s}")
                    got.append(None)
                    continue
                st = stats(vals)
                got.append(st)
                cells.append(f"{st[0]:12.5g} [{st[1]:.5g}, {st[2]:.5g}] "
                             f"spread {st[3]:6.1%} n={len(vals)}")
            line = f"  {name:30s} " + " | ".join(cells)
            if len(sides) == 2 and None not in got and got[0][0]:
                line += f" | ratio {got[1][0] / got[0][0]:.3f}"
                if name in bounds:
                    line += f" {verdict(bounds[name], got[0], got[1])}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
