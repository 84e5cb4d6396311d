"""The benchmark's workloads: inputs, the job itself, and output checks.

A job runs the parts of its workload in order.  A part builds its inputs
from a seed (`build`), runs on them (`run`, the timed part), and checks
its outputs (`check`).  Every check that holds for any seed always runs;
checks against recorded reference values (reference.json: counts, trace
digest, sha256 of every artifact) run only for the part's default seed.

Seeds.  The pipeline parts are the paper's two headline codes at the
CPO seeds of the acceptance tests (1 for gamma=3, 0 for gamma=4).  Their
inputs do not depend on the seed: the CPO seed alone changes the length
of the search by up to 2.3x on gamma=4 (seeds 0-9: 7.6-17.9 s CPU),
which would swamp any regression bound.  The audit parts take the
paper's codes and, for a nonzero seed, relabel them: every circulant
power f[h, l] becomes f[h, l] + b[h] + c[l] mod p for seeded row and
column shifts.  That permutes rows and columns inside each circulant
block, so the lifted matrix, its alist file and the search order change
while every cycle and trapping-set count, and the work done, stay the
same.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import scldpc.cli
import scldpc.trapping_sets
from scldpc.code_model import (CirculantBlockCode, PartitionMatrix, SCCodeSpec,
                               ab_powers, partition_from_cutting_vectors,
                               sc_lift, sc_protograph)
from scldpc.cycle_census import active_cycles6, count_cycles6
from scldpc.io_formats import read_alist, read_int_grid, write_int_grid
from scldpc.trapping_sets import ObjectSpecies

REFERENCE = Path(__file__).with_name("reference.json")
P = 17
L = 30


class Checks:
    """Output checks of one job; each failure names the output that differed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, name: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.failures.append(f"{name}: got {got!r}, want {want!r}")


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def artifact_digests(out: Path) -> dict:
    """sha256 of every file under a job's output directory, by relative path."""
    return {p.relative_to(out).as_posix(): sha256(p)
            for p in sorted(out.rglob("*")) if p.is_file()}


def load_reference(workload: str, seed: int):
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def csv_total(path: Path) -> int:
    """The weighted total on the last line of a census csv."""
    return int(Path(path).read_text().splitlines()[-1].split(",")[-1])


def has_4_cycle(h: np.ndarray) -> bool:
    """True when two rows share two columns, from each column's row pairs."""
    h = np.asarray(h, dtype=bool)
    cols, rows = np.nonzero(h.T)  # the ones, ordered by column
    degree = np.bincount(cols, minlength=h.shape[1])
    starts = np.concatenate(([0], np.cumsum(degree)))
    keys = []
    for d in np.unique(degree):  # columns of one degree pair up together
        first = starts[:-1][degree == d]
        block = rows[first[:, None] + np.arange(d)]
        a, b = np.triu_indices(d, 1)
        keys.append((block[:, a] * h.shape[0] + block[:, b]).ravel())
    keys = np.concatenate(keys)
    return len(np.unique(keys)) < len(keys)


def relabeled_powers(gamma: int, kappa: int, p: int, seed: int) -> np.ndarray:
    """AB powers plus seeded row and column shifts (none for seed 0)."""
    f = ab_powers(gamma, kappa, p)
    if seed:
        rng = np.random.default_rng([seed, gamma, kappa, p])
        f = f + rng.integers(0, p, (gamma, 1)) + rng.integers(0, p, (1, kappa))
    return f % p


def run_cli(argv) -> str:
    """scldpc.cli.main in-process, looked up at call time; returns its stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = scldpc.cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"scldpc {argv[0]} exited with {code}")
    return buf.getvalue()


@dataclass
class Part:
    """One stage of a workload's job: a pipeline or an audit of fixed codes."""

    name: str
    default_seed: int
    required_spans: tuple

    def build(self, seed: int, out: Path):
        raise NotImplementedError

    def run(self, inputs) -> dict:
        raise NotImplementedError

    def check(self, inputs, outputs: dict, checks: Checks, seed: int) -> None:
        raise NotImplementedError

    def reference(self, inputs, outputs: dict) -> dict:
        raise NotImplementedError

    def input_seed(self, seed: int) -> int:
        """The seed the inputs were built from."""
        return seed

    def check_reference(self, inputs, outputs, checks, seed):
        seed = self.input_seed(seed)
        if seed != self.default_seed:
            return
        ref = load_reference(self.name, seed)
        if ref is None:
            checks.expect("reference values recorded", False, True)
            return
        got = self.reference(inputs, outputs)
        for key in sorted(set(ref) | set(got)):
            if isinstance(ref.get(key), dict) and isinstance(got.get(key), dict):
                for sub in sorted(set(ref[key]) | set(got[key])):
                    checks.expect(f"{key}[{sub}]", got[key].get(sub),
                                  ref[key].get(sub))
            else:
                checks.expect(key, got.get(key), ref.get(key))


# ---------------------------------------------------------------------------
# pipelines


class Pipeline(Part):
    """`scldpc pipeline` on a headline kappa=p=17, L=30 code, CLI defaults."""

    def __init__(self, name, gamma, cpo_seed, required_spans):
        super().__init__(name, cpo_seed, required_spans)
        self.gamma = gamma

    def input_seed(self, seed):
        return self.default_seed

    def build(self, seed, out):
        argv = ["pipeline", "--gamma", self.gamma, "--kappa", P, "--p", P,
                "--L", L, "--seed", self.default_seed, "--out", out]
        return {"argv": argv, "out": Path(out)}

    def run(self, inputs):
        printed = run_cli(inputs["argv"])
        f_sc = int(re.search(r"F_SC = (\d+)", printed).group(1))
        f_star = int(re.search(r"F\* = (\d+)", printed).group(1))
        return {"f_sc": f_sc, "f_star": f_star}

    def final_spec(self, inputs) -> SCCodeSpec:
        out = inputs["out"]
        part = PartitionMatrix(1, read_int_grid(out / "partition.txt"))
        powers = read_int_grid(out / "powers.txt")
        return SCCodeSpec(CirculantBlockCode(self.gamma, P, P, powers),
                          part, L)

    def check(self, inputs, outputs, checks, seed):
        out = inputs["out"]
        spec = self.final_spec(inputs)
        census_total = csv_total(out / "census.csv")
        checks.expect("census.csv total == F*", census_total,
                      outputs["f_star"])
        checks.expect("closed-form census == brute force", census_total,
                      count_cycles6(sc_protograph(spec)))
        active = active_cycles6(spec).total
        checks.expect("F_SC == active_cycles6(final)", outputs["f_sc"], active)
        checks.expect("census_lifted.csv total == F_SC",
                      csv_total(out / "census_lifted.csv"), outputs["f_sc"])
        checks.expect("trace.csv ends at F_SC",
                      trace_final(out / "trace.csv"), outputs["f_sc"])
        h = read_alist(out / "code.alist")
        checks.expect("read_alist(code.alist) == sc_lift(final)",
                      bool(np.array_equal(h, sc_lift(spec).astype(bool))),
                      True)
        checks.expect("lift has no 4-cycles", has_4_cycle(h), False)
        self.check_reference(inputs, outputs, checks, seed)

    def reference(self, inputs, outputs):
        return {"f_star": outputs["f_star"], "f_sc": outputs["f_sc"],
                "trace_sha256": sha256(inputs["out"] / "trace.csv"),
                "artifacts": artifact_digests(inputs["out"])}


def trace_final(path: Path) -> int:
    """Count after the last round of a CPO trace; rounds must chain."""
    lines = Path(path).read_text().splitlines()[1:]
    value = None
    for line in lines:
        _, _, _, before, after, accepted = line.split(",")
        if value is not None and int(before) != value:
            return -1
        if int(after) > int(before) or (accepted == "0" and after != before):
            return -1
        value = int(after)
    return value


# ---------------------------------------------------------------------------
# audit-cycles: census, lift and brute-force census of the paper's codes


# name -> (gamma, m, cutting vectors, lifted 6-cycles of the paper's code)
AUDIT_CODES = {
    "uncoupled-g3": (3, 0, None, 138_720),
    "uncoupled-g4": (4, 0, None, 554_880),
    "cv-g3": (3, 1, ((4, 9, 13),), 59_024),
    "cv-g4": (4, 1, ((3, 7, 11, 15),), 238_697),
    "m2-g3": (3, 2, ((4, 4, 12), (4, 12, 12)), 27_880),
}


def audit_partition(gamma, m, zetas) -> PartitionMatrix:
    if zetas is None:
        return PartitionMatrix(m, np.zeros((gamma, P), dtype=np.int64))
    return partition_from_cutting_vectors(zetas, gamma, P)


class AuditCycles(Part):

    def build(self, seed, out):
        out = Path(out)
        codes = {}
        for name, (gamma, m, zetas, golden) in AUDIT_CODES.items():
            d = out / name
            d.mkdir(parents=True)
            powers = relabeled_powers(gamma, P, P, seed)
            write_int_grid(powers, d / "powers-in.txt")
            code = ["--gamma", gamma, "--kappa", P, "--p", P, "--L", L,
                    "--m", m, "--powers-file", d / "powers-in.txt"]
            if zetas is None:
                write_int_grid(np.zeros((gamma, P), dtype=np.int64),
                               d / "partition-in.txt")
                code += ["--partition-file", d / "partition-in.txt"]
            else:
                code += ["--zeta", ",".join(str(v) for z in zetas for v in z)]
            spec = SCCodeSpec(CirculantBlockCode(gamma, P, P, powers),
                              audit_partition(gamma, m, zetas), L)
            codes[name] = (d, code, spec, golden)
        return {"out": out, "codes": codes}

    def run(self, inputs):
        totals = {}
        for name, (d, code, _, _) in inputs["codes"].items():
            run_cli(["census"] + code + ["--out", d])
            run_cli(["lift"] + code + ["--out", d])
            run_cli(["census", "--matrix", d / "code.alist",
                     "--out", d / "brute"])
            totals[name] = csv_total(d / "census_lifted.csv")
        return {"f_sc": sum(totals.values()), "totals": totals}

    def check(self, inputs, outputs, checks, seed):
        for name, (d, _, spec, golden) in inputs["codes"].items():
            closed = outputs["totals"][name]
            brute = int((d / "brute" / "census.csv").read_text().split()[-1])
            checks.expect(f"{name}: closed-form census == brute force",
                          closed, brute)
            checks.expect(f"{name}: lifted 6-cycles", closed, golden)
            h = read_alist(d / "code.alist")
            checks.expect(f"{name}: read_alist(code.alist) == sc_lift",
                          bool(np.array_equal(h, sc_lift(spec).astype(bool))),
                          True)
            checks.expect(f"{name}: lift has no 4-cycles", has_4_cycle(h),
                          False)
        self.check_reference(inputs, outputs, checks, seed)

    def reference(self, inputs, outputs):
        return {"artifacts": artifact_digests(inputs["out"])}


# ---------------------------------------------------------------------------
# audit-trapping: windowed trapping/absorbing-set enumeration


# label -> (gamma, kappa = p, L, cutting vector, species (a, b, kind,
# path_vns), objects in the paper's code)
TRAPPING = {
    "as33-g3k17": (3, 17, 30, (4, 9, 13), (3, 3, "AS", 2), 59_024),
    "as42-g3k7": (3, 7, 12, (2, 4, 6), (4, 2, "AS", 3), 392),
    "ts36-g4k7": (4, 7, 12, (1, 3, 5, 6), (3, 6, "TS", 2), 5_537),
}
# the (3, 3(gamma-2)) common denominator is exactly the 6-cycle triple in
# a 4-cycle-free lift, so its count equals the lifted 6-cycle count
SIX_CYCLE_SPECIES = ("as33-g3k17", "ts36-g4k7")


class AuditTrapping(Part):

    def build(self, seed, out):
        cases = {}
        for label, (gamma, kp, length, zeta, sp, golden) in TRAPPING.items():
            powers = relabeled_powers(gamma, kp, kp, seed)
            spec = SCCodeSpec(CirculantBlockCode(gamma, kp, kp, powers),
                              partition_from_cutting_vectors([zeta], gamma, kp),
                              length)
            cases[label] = (spec, ObjectSpecies(*sp), golden)
        return cases

    def run(self, inputs):
        found = {}
        for label, (spec, species, _) in inputs.items():
            found[label] = scldpc.trapping_sets.enumerate_objects(spec, species)
        return {"found": found}

    def check(self, inputs, outputs, checks, seed):
        # the lifted 6-cycles of the audited codes come from this check's
        # own active_cycles6 calls, which stay out of the timed run
        f_sc = 0
        for label, (spec, _, golden) in inputs.items():
            census = outputs["found"][label]
            active = active_cycles6(spec).total
            f_sc += active
            checks.expect(f"{label}: objects", census.total, golden)
            if label in SIX_CYCLE_SPECIES:
                checks.expect(f"{label}: objects == active_cycles6",
                              census.total, active)
        outputs["f_sc"] = f_sc
        self.check_reference(inputs, outputs, checks, seed)

    def reference(self, inputs, outputs):
        return {"per_span": {label: {str(k): n for k, n in
                                     sorted(c.per_span.items())}
                             for label, c in outputs["found"].items()}}


_PIPELINE_SPANS = (
    "cli.main", "partition_opt.optimize", "power_opt.run_cpo",
    "power_opt.CycleSystem", "cycle_census.starter_cycles6",
    "cycle_census.starter_cycles4", "cycle_census.census_from_partition",
    "cycle_census.active_cycles6", "code_model.sc_lift", "code_model.window",
    "io_formats.write_alist", "overlaps.partition_from_patterns",
    "overlaps.overlaps_from_partition",
)

PARTS = {p.name: p for p in (
    Pipeline("pipeline-g3", 3, 1, _PIPELINE_SPANS),
    Pipeline("pipeline-g4", 4, 0, _PIPELINE_SPANS),
    AuditCycles(
        "audit-cycles", 0,
        ("cli.main", "cycle_census.census_from_partition",
         "cycle_census.active_cycles6", "cycle_census.starter_cycles6",
         "cycle_census.count_cycles6", "code_model.sc_lift",
         "code_model.window", "io_formats.write_alist",
         "io_formats.read_alist", "overlaps.overlaps_from_partition")),
    AuditTrapping(
        "audit-trapping", 0,
        ("trapping_sets.enumerate_objects", "code_model.window",
         "code_model.sc_lift")),
)}


@dataclass
class Workload:
    """A job that runs its parts in order, in one process, each in its own
    output directory."""

    name: str
    parts: tuple
    default_seed: int = 0

    @property
    def required_spans(self) -> set:
        return {s for part in self.parts for s in part.required_spans}

    def build(self, seed: int, out: Path) -> list:
        return [part.build(seed, Path(out) / part.name) for part in self.parts]

    def run(self, inputs) -> list:
        return [part.run(i) for part, i in zip(self.parts, inputs)]

    def check(self, inputs, outputs, checks: Checks, seed: int) -> int:
        """Check every part; return f_sc, the lifted 6-cycles of every code
        the job delivered or audited."""
        for part, i, o in zip(self.parts, inputs, outputs):
            part.check(i, o, checks, seed)
        return sum(o["f_sc"] for o in outputs)

    def reference(self, inputs, outputs, seed: int) -> dict:
        return {part.name: {str(part.input_seed(seed)): part.reference(i, o)}
                for part, i, o in zip(self.parts, inputs, outputs)}


# Two workloads of two parts each, not one per part: a run of either holds
# 35-50 s of work and 22 runs of each fit in under an hour.  Between runs
# the host's speed drifts by up to +-20% over minutes (the gamma=3
# pipeline alone spread 26% over ten 20 s runs).
WORKLOADS = {w.name: w for w in (
    Workload("pipelines", (PARTS["pipeline-g3"], PARTS["pipeline-g4"])),
    Workload("audits", (PARTS["audit-cycles"], PARTS["audit-trapping"])),
)}
