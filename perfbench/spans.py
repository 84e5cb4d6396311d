"""Spans around the calls into each scldpc layer, installed from outside.

The package is not edited: `install` replaces module attributes (the
names callers look up at call time, such as ``scldpc.cli.run_cpo`` or
``scldpc.power_opt.CycleSystem``) with wrappers that record a span per
call, and returns a function that puts the originals back.  Spans stay in
memory; the job writes them out when it ends.

A span's self time is its duration minus the part of that interval its
child spans cover.  Layer metrics are derived from the spans by
`layer_metrics`.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import asdict, dataclass, field

LAYERS = ("cli", "overlaps", "partition_opt", "power_opt", "cycle_census",
          "trapping_sets", "code_model", "io_formats")
ROOT = "bench.job"
# trapping-set cases of the audit-trapping workload, labelled by
# _count_objects as species kind, a, b and the code's gamma, kappa
TRAPPING_CASES = ("as33-g3k17", "as42-g3k7", "ts36-g4k7")


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    job: int
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one job (single-threaded)."""

    def __init__(self, job: int):
        self.job = job
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, layer, time.perf_counter(), 0.0,
                    parent, self.job)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, fn, name: str, layer: str, count=None):
        def traced(*args, **kwargs):
            span = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                span.counters.update(count(result, *args, **kwargs))
            return result
        traced.__wrapped__ = fn
        return traced

    def dump(self) -> list:
        return [asdict(s) for s in self.spans]


# ---------------------------------------------------------------------------
# counters read off a call's result and arguments


def cpo_candidates(state, config, p: int) -> int:
    """Joint power assignments scored over a run_cpo, from its trace.

    Per round: p**size when the subset is searched exhaustively, else the
    sample size (the explicit candidate count, or the exhaustive cap).
    """
    total = 0
    for row in state.trace:
        size = len(row.cells)
        if config.power_candidates is None and p**size <= config.exhaustive_cap:
            total += p**size
        elif config.power_candidates is not None:
            total += config.power_candidates
        else:
            total += config.exhaustive_cap
    return total


def _count_cpo(state, spec, config):
    return {"rounds": state.rounds,
            "accepted": sum(1 for row in state.trace if row.accepted),
            "candidates": cpo_candidates(state, config, spec.p)}


def _count_system(system, spec):
    return {"starters6": len(system.res6)}


def _count_optimum(opt, *args, **kwargs):
    return {"evaluated": opt.evaluated}


def _count_cycles(n, h):
    return {"cycles": int(n)}


def _count_lift(h, spec):
    return {"lift_bytes": int(h.shape[0]) * int(h.shape[1])}


def _count_window(w, spec, r, k, lifted=False):
    return {"window_cols": int(w.shape[1])} if lifted else {}


def _count_alist(result, matrix, path):
    return {"alist_bytes": os.path.getsize(path)}


def _count_objects(census, spec, species):
    label = (f"{species.kind.lower()}{species.a}{species.b}"
             f"-g{spec.gamma}k{spec.kappa}")
    return {"objects": census.total, "case": label}


# (module, attribute, layer, span name, counter): each attribute is the
# name a caller inside the package (or the benchmark) looks up at call time.
TARGETS = (
    ("scldpc.cli", "main", "cli", "cli.main", None),
    ("scldpc.cli", "optimize", "partition_opt", "partition_opt.optimize",
     _count_optimum),
    ("scldpc.cli", "run_cpo", "power_opt", "power_opt.run_cpo", _count_cpo),
    ("scldpc.power_opt", "CycleSystem", "power_opt", "power_opt.CycleSystem",
     _count_system),
    ("scldpc.cli", "census_from_partition", "cycle_census",
     "cycle_census.census_from_partition", None),
    ("scldpc.cli", "active_cycles6", "cycle_census",
     "cycle_census.active_cycles6", None),
    ("scldpc.cli", "count_cycles6", "cycle_census",
     "cycle_census.count_cycles6", _count_cycles),
    ("scldpc.power_opt", "starter_cycles6", "cycle_census",
     "cycle_census.starter_cycles6", None),
    ("scldpc.power_opt", "starter_cycles4", "cycle_census",
     "cycle_census.starter_cycles4", None),
    ("scldpc.cycle_census", "starter_cycles6", "cycle_census",
     "cycle_census.starter_cycles6", None),
    ("scldpc.cycle_census", "starter_cycles4", "cycle_census",
     "cycle_census.starter_cycles4", None),
    ("scldpc.trapping_sets", "enumerate_objects", "trapping_sets",
     "trapping_sets.enumerate_objects", _count_objects),
    ("scldpc.cli", "sc_lift", "code_model", "code_model.sc_lift", _count_lift),
    ("scldpc.code_model", "sc_lift", "code_model", "code_model.sc_lift",
     _count_lift),
    ("scldpc.cycle_census", "window", "code_model", "code_model.window",
     _count_window),
    ("scldpc.trapping_sets", "window", "code_model", "code_model.window",
     _count_window),
    ("scldpc.cli", "write_alist", "io_formats", "io_formats.write_alist",
     _count_alist),
    ("scldpc.cli", "read_alist", "io_formats", "io_formats.read_alist", None),
    ("scldpc.cli", "partition_from_patterns", "overlaps",
     "overlaps.partition_from_patterns", None),
    ("scldpc.cycle_census", "overlaps_from_partition", "overlaps",
     "overlaps.overlaps_from_partition", None),
)


def install(tracer: Tracer, targets=TARGETS):
    """Wrap every target attribute; return a function restoring them.

    A missing attribute raises, so a refactor that renames or moves a
    traced function fails the traced run instead of dropping its layer.
    """
    saved = []
    try:
        for module_name, attr, layer, name, count in targets:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                raise AttributeError(
                    f"traced attribute {module_name}.{attr} no longer exists")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, layer, count))
    except BaseException:
        _restore(saved)
        raise
    return lambda: _restore(saved)


def _restore(saved):
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


# ---------------------------------------------------------------------------
# arithmetic over recorded spans


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def _total(spans, name, key=None):
    picked = [s for s in spans if s.name == name]
    if key is None:
        return sum(s.duration for s in picked)
    return sum(s.counters.get(key, 0) for s in picked)


def _rate(num, den):
    return num / den if den > 0 else 0.0


def fired(spans) -> set:
    return {s.name for s in spans}


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced job, keyed by BENCHMARK.json name.

    Times are summed durations of every span with the given name; `*.self_s`
    and `overlaps.partition_s` are self times summed over a layer.  A layer
    that the job never calls reads 0.
    """
    selfs = self_times(spans)
    layer_self = {layer: 0.0 for layer in LAYERS + ("bench",)}
    for s in spans:
        layer_self[s.layer] += selfs[s.id]
    root = [s for s in spans if s.name == ROOT]
    job_wall = sum(s.duration for s in root)

    m = {}
    m["partition_opt.optimize_s"] = _total(spans, "partition_opt.optimize")
    m["partition_opt.evaluated"] = _total(spans, "partition_opt.optimize",
                                          "evaluated")
    m["partition_opt.evals_per_s"] = _rate(m["partition_opt.evaluated"],
                                           m["partition_opt.optimize_s"])

    m["power_opt.run_cpo_s"] = _total(spans, "power_opt.run_cpo")
    m["power_opt.cycle_system_s"] = _total(spans, "power_opt.CycleSystem")
    m["power_opt.rounds"] = _total(spans, "power_opt.run_cpo", "rounds")
    m["power_opt.accepted"] = _total(spans, "power_opt.run_cpo", "accepted")
    m["power_opt.accept_rate"] = _rate(m["power_opt.accepted"],
                                       m["power_opt.rounds"])
    m["power_opt.candidates"] = _total(spans, "power_opt.run_cpo",
                                       "candidates")
    m["power_opt.candidates_per_s"] = _rate(m["power_opt.candidates"],
                                            m["power_opt.run_cpo_s"])
    m["power_opt.starters6"] = _total(spans, "power_opt.CycleSystem",
                                      "starters6")

    m["cycle_census.census_s"] = _total(spans,
                                       "cycle_census.census_from_partition")
    m["cycle_census.active6_s"] = _total(spans, "cycle_census.active_cycles6")
    m["cycle_census.starters_s"] = (
        _total(spans, "cycle_census.starter_cycles6")
        + _total(spans, "cycle_census.starter_cycles4"))
    m["cycle_census.count6_s"] = _total(spans, "cycle_census.count_cycles6")
    m["cycle_census.count6_cycles"] = _total(
        spans, "cycle_census.count_cycles6", "cycles")
    m["cycle_census.count6_cycles_per_s"] = _rate(
        m["cycle_census.count6_cycles"], m["cycle_census.count6_s"])

    for case in TRAPPING_CASES:
        m[f"trapping_sets.enumerate_s.{case}"] = sum(
            s.duration for s in spans
            if s.name == "trapping_sets.enumerate_objects"
            and s.counters.get("case") == case)
    m["trapping_sets.objects"] = _total(
        spans, "trapping_sets.enumerate_objects", "objects")
    m["trapping_sets.window_cols"] = _total(spans, "code_model.window",
                                            "window_cols")

    m["code_model.sc_lift_s"] = _total(spans, "code_model.sc_lift")
    m["code_model.window_s"] = _total(spans, "code_model.window")
    m["code_model.lift_bytes"] = _total(spans, "code_model.sc_lift",
                                        "lift_bytes")

    m["io_formats.alist_write_s"] = _total(spans, "io_formats.write_alist")
    m["io_formats.alist_read_s"] = _total(spans, "io_formats.read_alist")
    m["io_formats.alist_bytes"] = _total(spans, "io_formats.write_alist",
                                         "alist_bytes")
    m["io_formats.alist_mb_per_s"] = _rate(m["io_formats.alist_bytes"] / 1e6,
                                           m["io_formats.alist_write_s"])

    m["overlaps.partition_s"] = layer_self["overlaps"]
    m["cli.self_s"] = layer_self["cli"]
    for layer in LAYERS:
        if layer not in ("cli", "overlaps"):
            m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.job_wall_s"] = job_wall
    m["trace.unattributed_s"] = layer_self["bench"]
    return m

