"""The benchmark traces named package attributes; a rename must fail here.

perfbench/spans.py wraps each (module, attribute) of its TARGETS at run
time, so deleting or renaming one of them, or a library path no longer
calling a traced name, would otherwise only surface in a traced benchmark
run.  The benchmark's files are loaded read-only, never edited.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import scldpc.cli
import scldpc.trapping_sets
from scldpc.code_model import SCCodeSpec, ab_code, partition_from_cutting_vector

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while being built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_span_targets_exist(monkeypatch):
    spans = _load(monkeypatch, "spans")
    assert spans.TARGETS
    missing = [(module, attr) for module, attr, *_ in spans.TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing


def test_small_pipeline_fires_every_required_pipeline_span(monkeypatch,
                                                           tmp_path):
    spans = _load(monkeypatch, "spans")
    workloads = _load(monkeypatch, "workloads")
    tracer = spans.Tracer(0)
    restore = spans.install(tracer)
    try:
        code = scldpc.cli.main(["pipeline", "--gamma", "3", "--kappa", "5",
                                "--p", "5", "--L", "4", "--seed", "0",
                                "--out", str(tmp_path)])
    finally:
        restore()
    assert code == 0
    required = set(workloads.PARTS["pipeline-g3"].required_spans)
    assert sorted(required - spans.fired(tracer.spans)) == []


def _audit_cycles(out):
    code = ["--gamma", "3", "--kappa", "5", "--p", "5", "--L", "4",
            "--zeta", "1,3,4", "--out", str(out)]
    assert scldpc.cli.main(["census", *code]) == 0
    assert scldpc.cli.main(["lift", *code]) == 0
    assert scldpc.cli.main(["census", "--matrix", str(out / "code.alist"),
                            "--out", str(out / "brute")]) == 0


def _audit_trapping(out):
    spec = SCCodeSpec(ab_code(3, 5, 5),
                      partition_from_cutting_vector([1, 3, 4], 3, 5), 4)
    # looked up on the module, where the tracer wrapped it
    scldpc.trapping_sets.enumerate_objects(
        spec, scldpc.trapping_sets.common_denominator(3))


# a small job of each audits part, traced on its own so that a span fired
# by one part cannot stand in for the other's
AUDIT_JOBS = {"audit-cycles": _audit_cycles, "audit-trapping": _audit_trapping}


def test_small_audits_fire_every_required_audit_span(monkeypatch, tmp_path):
    spans = _load(monkeypatch, "spans")
    workloads = _load(monkeypatch, "workloads")
    fired = set()
    for part in workloads.WORKLOADS["audits"].parts:
        tracer = spans.Tracer(0)
        restore = spans.install(tracer)
        try:
            AUDIT_JOBS[part.name](tmp_path / part.name)
        finally:
            restore()
        part_fired = spans.fired(tracer.spans)
        assert sorted(set(part.required_spans) - part_fired) == [], part.name
        fired |= part_fired
    required = workloads.WORKLOADS["audits"].required_spans
    assert sorted(required - fired) == []
