"""One benchmark job in a fresh interpreter.

    python3 perfbench/job.py --workload NAME --seed N --out DIR --t0 T \
        --result FILE [--trace] [--setup-only] [--reference] [--job-id K]

Builds the workload's inputs, runs the job once, checks its outputs and
writes a JSON result to FILE.  `--t0` is the launcher's CLOCK_MONOTONIC
reading taken just before it started this process, so `setup_s` covers
interpreter start, `import scldpc` and building the inputs.  With
`--trace` the layer wrappers are installed for the job and its spans and
per-layer metrics are written too; the output checks always run untraced.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import spans
from workloads import WORKLOADS, Checks


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def run_job(args) -> dict:
    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    inputs = workload.build(args.seed, out)
    result = {"setup_s": time.monotonic() - args.t0,
              "numpy": np.__version__}
    if args.setup_only:
        return result

    tracer = restore = root = None
    if args.trace:
        tracer = spans.Tracer(args.job_id)
        restore = spans.install(tracer)
        root = tracer.open(spans.ROOT, "bench")
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        outputs = workload.run(inputs)
    finally:
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        if tracer is not None:
            tracer.close(root)
            restore()

    checks = Checks()
    f_sc = None
    try:
        f_sc = workload.check(inputs, outputs, checks, args.seed)
    except Exception as exc:  # a damaged output must count as a failed check
        checks.attempted += 1
        checks.failures.append(f"checks raised {exc!r}")
    result.update(
        wall_s=wall,
        cpu_s=_cpu(ru1) - _cpu(ru0),
        peak_rss_mb=ru1.ru_maxrss / 1024,  # KiB on Linux
        f_sc=f_sc,
        attempted=checks.attempted,
        failures=checks.failures,
    )
    if tracer is not None:
        result["spans"] = tracer.dump()
        result["layers"] = spans.layer_metrics(tracer.spans)
        result["missing_spans"] = sorted(
            set(workload.required_spans) - spans.fired(tracer.spans))
    if args.reference:
        result["reference"] = workload.reference(inputs, outputs, args.seed)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--job-id", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--reference", action="store_true")
    args = ap.parse_args(argv)
    result = run_job(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
