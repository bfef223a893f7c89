"""Rebuild golden.json: the reference commit's lines for every tower pool entry.

    python3 perfbench/make_golden.py

Run it only on the commit whose answers are the reference; the benchmark
compares every later commit's ``dsolve``/``dhensel``/``subgroup`` lines
with these.  Entries that do not exit 0 are reported and left out.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

import harness
import workloads
from checks import GOLDEN_PATH, SUBGROUP_KEYS, report_fields


def main() -> int:
    cli = harness.import_cli()
    out, bad = {}, []
    t0 = time.perf_counter()
    for cmd, p, level, n, v in workloads.tower_pool():
        argv = workloads.tower_entry(cmd, p, level, n, v)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv + ["--report", "text"])
        fields = report_fields(buf.getvalue(), structured=False)
        if code != 0 or fields.get("reverified", "True") != "True":
            bad.append((code, " ".join(argv)))
            continue
        if cmd == "subgroup":
            keep = {k: v for k, v in fields.items()
                    if (k.startswith("image ") and k.endswith(" pivots")) or k in SUBGROUP_KEYS}
        else:
            keep = {"solution": fields["solution"], "reverified": "True"}
        out[workloads.golden_key(argv)] = keep
    GOLDEN_PATH.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    print(f"{len(out)} entries in {time.perf_counter() - t0:.1f} s; {len(bad)} left out")
    for code, text in bad:
        print(f"  exit {code}: {text[:160]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
