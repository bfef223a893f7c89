"""End-to-end and per-layer benchmark of certified lifting.

    python3 perfbench/run.py --workload padic-ladder --seed 1 --seconds 20 --trace 0

One process drives ``ultralift.cli.main(argv)`` in-process as a closed
loop with a single client: the next request goes out when the previous
one has returned.  The run repeats the workload's seeded pass of requests
until ``--seconds`` have passed (whole passes only), checks every output
with checks that do not trust the program, and prints a summary followed
by one JSON line with the metrics.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` runs the same passes with spans around every call into the
package's modules, reports the per-layer metrics, then replays the same
requests untraced to report the tracing overhead.  Spans are written to
``perfbench/out/``.  ``--out FILE`` appends the result as one JSON line,
the input of ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import checks
import harness
import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_REPS = 7
SETUP_TIMEOUT_S = 20
SPAN_CAP = 4_000_000  # a traced run ends at the first pass boundary past it


@dataclass
class Record:
    req: workloads.Request
    seconds: float
    ok: bool
    reason: str
    wrong: bool         # a certified answer the check refutes


def run_request(cli, req) -> Record:
    code, out, exc, dt = harness.call(cli, req.argv)
    if exc is not None:
        return Record(req, dt, False, f"{exc} escaped cli.main", False)
    return Record(req, dt, *checks.check(req, code, out))


def run_passes(cli, requests, seconds, tracer=None):
    """Whole passes until ``seconds`` have gone by (at least one)."""
    records, passes = [], 0
    deadline = time.perf_counter() + seconds
    while True:
        for req in requests:
            if tracer is not None:
                tracer.request_id = len(records)
            records.append(run_request(cli, req))
        passes += 1
        if time.perf_counter() >= deadline or (
                tracer is not None and len(tracer.name) > SPAN_CAP):
            return records, passes


def measure_setup(warm):
    """Median wall time of SETUP_REPS fresh interpreters, each importing
    the package and running the warm-up requests."""
    payload = json.dumps([r.argv for r in warm])
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py")], input=payload,
                       text=True, stdout=subprocess.DEVNULL, check=True,
                       timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def digits_per_s(records, per_pass):
    """Median over passes of the digits certified by passing requests per
    second of request time; the median keeps a slow stretch of the host out."""
    rates = []
    for k in range(0, len(records), per_pass):
        chunk = records[k:k + per_pass]
        rates.append(sum(r.req.precision for r in chunk if r.ok)
                     / sum(r.seconds for r in chunk))
    return statistics.median(rates)


def end_to_end(records, per_pass, setup_s):
    times = [r.seconds for r in records]
    passed = [r for r in records if r.ok]
    return {
        "setup_s": (setup_s, "s"),
        "request_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "request_ms_p90": (statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
        "digits_per_s": (digits_per_s(records, per_pass), "1/s"),
        "pass_share": (len(passed) / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def failure_summary(records):
    counts = Counter()
    for r in records:
        if not r.ok:
            note = f" [known: {r.req.known_failure}]" if r.req.known_failure else ""
            counts[f"{r.req.label}: {r.reason}{note}"] += 1
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None,
                    help="append the result as one JSON line to this file")
    args = ap.parse_args(argv)

    try:
        cli = harness.import_cli()
        checks.golden()
    except (harness.NoProgram, OSError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    requests = workloads.build_pass(args.workload, args.seed)
    warm = workloads.warmup_requests(requests)
    print(f"workload {args.workload} seed {args.seed}: {len(requests)} requests "
          f"per pass, {len(warm)} warm-up kinds")
    if args.trace == 0:
        setup_s = measure_setup(warm)
    # one untimed pass fills every cache a timed pass would touch
    for req in requests:
        run_request(cli, req)

    if args.trace == 0:
        records, passes = run_passes(cli, requests, args.seconds)
        metrics = end_to_end(records, len(requests), setup_s)
        if len(records) < 100:
            print(f"warning: {len(records)} samples leave fewer than 10 beyond p90")
    else:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        t0 = time.perf_counter()
        try:
            records, passes = run_passes(cli, requests, args.seconds, tracer)
        finally:
            tracer.uninstall()
        traced_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(passes):
            for req in requests:
                run_request(cli, req)
        untraced_wall = time.perf_counter() - t0
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"{args.workload}-s{args.seed}.spans")
        digits = sum(r.req.precision for i, r in enumerate(records)
                     if i in tracer.driven_requests)
        metrics = {k: (v["value"], v["unit"]) for k, v in
                   layer_metrics(tracer, passes, digits, traced_wall - untraced_wall).items()}
        print(f"traced {traced_wall:.2f} s, untraced replay {untraced_wall:.2f} s, "
              f"{len(tracer.name)} spans")

    failed = [r for r in records if not r.ok]
    print(f"{len(records)} requests in {passes} passes; fail_share "
          f"{len(failed) / len(records):.4f} ({len(failed)} of {len(records)})")
    for line, n in sorted(failure_summary(records).items()):
        print(f"  failed x{n}: {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    result = {
        "correct": not any(r.wrong for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out is not None:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "passes": passes,
                                 "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
