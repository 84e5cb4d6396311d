"""Benchmark of the scldpc construction pipeline and audits.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding
BENCHMARK.json and src/).  Jobs run one at a time, each in a fresh
interpreter with BLAS/OpenMP threads pinned to 1 and `--out` set to a
temporary directory under .perfbench_tmp/.  A discarded warm-up and a few
setup-only processes come first; then as many whole jobs as fit in S
seconds run back to back (at least one).  Every job checks its outputs.

The last line of stdout is one JSON object: `correct`, `attempted` and
`failed` count output checks over all jobs, and `metrics` holds the
end-to-end metrics of BENCHMARK.json (trace 0) or its per-layer metrics
(trace 1).  Times are medians over the run's jobs; each job's wall time
is in the record line.  A traced run also runs untraced jobs,
alternately, to measure the tracing overhead, and writes its spans under
.perfbench_out/.  The line before it records the
machine: nproc, Python, numpy and CPU model.

    python3 perfbench/run.py --record-reference

re-records perfbench/reference.json from one job per workload at its
default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 8
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class JobFailed(Exception):
    pass


def job_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("SCLDPC_OUT", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class Launcher:
    """Starts jobs one after another, each in a fresh interpreter."""

    def __init__(self, root: Path, tmp: Path, workload: str, seed: int,
                 deadline: float):
        self.root, self.tmp = root, tmp
        self.workload, self.seed = workload, seed
        self.deadline = deadline
        self.env = job_env(root)
        self.count = 0

    def run(self, trace=False, setup_only=False, reference=False) -> dict:
        self.count += 1
        out = self.tmp / f"job{self.count}"
        result = self.tmp / f"job{self.count}.json"
        cmd = [sys.executable, str(HERE / "job.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--out", str(out), "--result", str(result),
               "--job-id", str(self.count)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        cmd += ["--reference"] * reference
        timeout = max(self.deadline - time.monotonic(), 1.0)
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=self.root,
                                  env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            raise JobFailed(f"job {self.count} timed out after {timeout:.0f} s")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            raise JobFailed(f"job {self.count} exited with {proc.returncode}: "
                            f"{tail[0]}")
        return json.loads(result.read_text())


def median(values):
    return statistics.median(values) if values else 0.0


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(launcher: Launcher, seconds: float, trace: bool):
    """Warm-up, setup probes, then as many whole jobs as fit in `seconds`.

    The first job always runs; each further job starts only if a job as
    long as the longest so far would still end within `seconds`.  A traced
    run alternates traced and untraced jobs and runs at least one of each.
    """
    setups, jobs, crashes = [], [], []
    launcher.run(setup_only=True)  # warm-up: bytecode and page caches
    for _ in range(SETUP_PROBES):
        setups.append(launcher.run(setup_only=True))
    start = time.monotonic()
    longest = 0.0
    while len(crashes) <= 2:
        traced = trace and len(jobs) % 2 == 0
        t0 = time.monotonic()
        try:
            rec = launcher.run(trace=traced)
            rec["traced"] = traced
            jobs.append(rec)
        except JobFailed as exc:
            crashes.append(str(exc))
        now = time.monotonic()
        longest = max(longest, now - t0)
        if now + longest > launcher.deadline:
            break
        if now - start + longest > seconds and (not trace or len(jobs) >= 2):
            break
    return setups, jobs, crashes


def end_to_end(setups, jobs) -> dict:
    plain = [j for j in jobs if not j["traced"]]
    # wall_s stays in the record line only: on a shared host it also counts
    # time the vCPU was descheduled, which once spread 0.275 over ten runs
    # where cpu_s spread 0.17
    return {
        "cpu_s": median([j["cpu_s"] for j in plain]),
        "setup_s": median([s["setup_s"] for s in setups + jobs]),
        "peak_rss_mb": median([j["peak_rss_mb"] for j in plain]),
        "f_sc": median([j["f_sc"] for j in plain if j["f_sc"] is not None]),
    }


def per_layer(jobs) -> dict:
    traced = [j for j in jobs if j["traced"]]
    plain = [j for j in jobs if not j["traced"]]
    names = traced[0]["layers"]
    out = {k: median([j["layers"][k] for j in traced]) for k in names}
    out["trace.overhead_s"] = (median([j["wall_s"] for j in traced])
                               - median([j["wall_s"] for j in plain]))
    return out


def run(args, root: Path) -> int:
    bench = json.loads((root / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    work = root / ".perfbench_tmp"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=work))
    try:
        launcher = Launcher(root, tmp, args.workload, args.seed,
                            time.monotonic() + RUN_LIMIT_S)
        setups, jobs, crashes = measure(launcher, args.seconds,
                                        bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for msg in crashes:
        print("error:", msg, file=sys.stderr)
    kinds = {j["traced"] for j in jobs}
    if not jobs or (args.trace and kinds != {True, False}):
        print("error: no job (or, traced, no job of each kind) completed",
              file=sys.stderr)
        return 1

    failures = [f for j in jobs for f in j["failures"]] + crashes
    attempted = sum(j["attempted"] for j in jobs) + len(crashes)
    values = per_layer(jobs) if args.trace else end_to_end(setups, jobs)
    if args.trace:
        missing = sorted({s for j in jobs if j["traced"]
                          for s in j["missing_spans"]})
        if missing:
            print(f"error: spans never fired on {args.workload}: "
                  + ", ".join(missing), file=sys.stderr)
            return 1
    unknown = [m["name"] for m in wanted if m["name"] not in values]
    if unknown:
        print("error: benchmark does not produce " + ", ".join(unknown),
              file=sys.stderr)
        return 1

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": setups[0]["numpy"], "cpu": cpu_model(),
        "jobs": len(jobs), "setup_probes": len(setups),
        "failed_frac": len(failures) / attempted,
        "wall_s": [j["wall_s"] for j in jobs],
        "failures": failures,
    }
    outdir = root / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (outdir / name).write_text(json.dumps(
        dict(record, values=values,
             spans=[j.get("spans") for j in jobs if j["traced"]])))
    for msg in failures:
        print("check failed:", msg, file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


def workload_defs(root: Path) -> dict:
    """The workload definitions, imported into this launcher on demand."""
    sys.path[:0] = [str(HERE), str(root / "src")]
    from workloads import WORKLOADS
    return WORKLOADS


def record_reference(root: Path) -> int:
    """Write reference.json from one job per workload at its default seed."""
    ref = {}
    work = root / ".perfbench_tmp"
    work.mkdir(exist_ok=True)
    for name, wl in workload_defs(root).items():
        tmp = Path(tempfile.mkdtemp(dir=work))
        try:
            launcher = Launcher(root, tmp, name, wl.default_seed,
                                time.monotonic() + 600)
            ref.update(launcher.run(reference=True)["reference"])
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        print(name, "recorded", file=sys.stderr)
    (HERE / "reference.json").write_text(
        json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "scldpc" / "__init__.py").is_file():
        print("error: run from the root of an scldpc checkout "
              "(src/scldpc not found)", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference(root)
    names = [w["name"] for w in
             json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    if args.workload not in names:
        ap.error("--workload must be one of " + ", ".join(names))
    if args.seed is None:
        args.seed = workload_defs(root)[args.workload].default_seed
    return run(args, root)


if __name__ == "__main__":
    sys.exit(main())
