"""Tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scldpc.cli
import scldpc.power_opt
from scldpc.code_model import (SCCodeSpec, ab_code,
                               partition_from_cutting_vector, sc_lift)
from scldpc.cycle_census import active_cycles6
from scldpc.power_opt import CpoConfig, run_cpo
from scldpc.trapping_sets import ObjectSpecies, enumerate_objects

import spans
import workloads
from workloads import Checks, has_4_cycle, relabeled_powers

ROOT = Path(__file__).resolve().parents[1]


def tiny_spec():
    part = partition_from_cutting_vector((1, 2, 4), 3, 5)
    return SCCodeSpec(ab_code(3, 5, 5), part, 4)


def counted_cpo(monkeypatch, config):
    """run_cpo with every candidate block it scores counted as it is made."""
    made = []
    chunks = scldpc.power_opt._candidate_chunks

    def counting(*args, **kwargs):
        for block in chunks(*args, **kwargs):
            made.append(len(block))
            yield block

    monkeypatch.setattr(scldpc.power_opt, "_candidate_chunks", counting)
    return run_cpo(tiny_spec(), config), sum(made)


def test_cpo_candidates_exhaustive_matches_hand_count(monkeypatch):
    config = CpoConfig(seed=0, subset_size_schedule=(1, 2),
                       max_stale_rounds=2)
    state, made = counted_cpo(monkeypatch, config)
    sizes = [len(row.cells) for row in state.trace]
    assert set(sizes) == {1, 2}
    # p = 5: a one-cell round tries 5 powers, a two-cell round 5 * 5 pairs
    assert made == 5 * sizes.count(1) + 25 * sizes.count(2)
    assert spans.cpo_candidates(state, config, 5) == made


def test_cpo_candidates_sampled_rounds_use_the_cap(monkeypatch):
    config = CpoConfig(seed=0, subset_size_schedule=(1, 2), exhaustive_cap=10,
                       max_stale_rounds=2)
    state, made = counted_cpo(monkeypatch, config)
    sizes = [len(row.cells) for row in state.trace]
    assert made == 5 * sizes.count(1) + 10 * sizes.count(2)
    assert spans.cpo_candidates(state, config, 5) == made


def span(i, name, layer, start, end, parent):
    return spans.Span(i, name, layer, start, end, parent, 0)


def test_self_times_subtract_children():
    tree = [
        span(0, spans.ROOT, "bench", 0.0, 10.0, None),
        span(1, "cli.main", "cli", 1.0, 9.0, 0),
        span(2, "power_opt.run_cpo", "power_opt", 2.0, 6.0, 1),
        span(3, "power_opt.CycleSystem", "power_opt", 2.5, 3.0, 2),
        span(4, "io_formats.write_alist", "io_formats", 7.0, 8.5, 1),
    ]
    assert spans.self_times(tree) == pytest.approx(
        {0: 2.0, 1: 2.5, 2: 3.5, 3: 0.5, 4: 1.5})
    m = spans.layer_metrics(tree)
    assert m["cli.self_s"] == pytest.approx(2.5)
    assert m["power_opt.self_s"] == pytest.approx(4.0)
    assert m["power_opt.run_cpo_s"] == pytest.approx(4.0)
    assert m["trace.unattributed_s"] == pytest.approx(2.0)
    layer_selfs = sum(v for k, v in m.items() if k.endswith(".self_s")
                      or k in ("overlaps.partition_s", "trace.unattributed_s"))
    assert layer_selfs == pytest.approx(m["trace.job_wall_s"])


def test_overlapping_children_are_not_counted_twice():
    tree = [span(0, "a", "cli", 0.0, 4.0, None),
            span(1, "b", "cli", 1.0, 3.0, 0),
            span(2, "c", "cli", 2.0, 5.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_traced_cli_run_accounts_for_its_wall_time(tmp_path):
    tracer = spans.Tracer(job=7)
    restore = spans.install(tracer)
    try:
        root = tracer.open(spans.ROOT, "bench")
        workloads.run_cli(["census", "--gamma", 3, "--kappa", 5, "--p", 5,
                           "--L", 4, "--zeta", "1,2,4", "--out", tmp_path])
        tracer.close(root)
    finally:
        restore()
    assert scldpc.cli.main.__name__ == "main"  # originals are back
    names = spans.fired(tracer.spans)
    assert {"cli.main", "cycle_census.census_from_partition",
            "cycle_census.active_cycles6"} <= names
    assert {s.job for s in tracer.spans} == {7}
    m = spans.layer_metrics(tracer.spans)
    total = sum(spans.self_times(tracer.spans).values())
    assert total == pytest.approx(m["trace.job_wall_s"])


def test_install_fails_loudly_on_a_missing_attribute():
    tracer = spans.Tracer(job=0)
    target = ("scldpc.cli", "no_such_function", "cli", "cli.gone", None)
    original = scldpc.cli.main
    with pytest.raises(AttributeError, match="no_such_function"):
        spans.install(tracer, spans.TARGETS[:1] + (target,))
    assert scldpc.cli.main is original


def test_has_4_cycle():
    assert has_4_cycle(np.array([[1, 1, 0], [1, 1, 1]]))
    assert not has_4_cycle(np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
    # columns of mixed degree, the shared pair in columns of degree 2 and 3
    assert has_4_cycle(np.array([[1, 1, 0, 1], [1, 1, 1, 0], [0, 1, 0, 0]]))
    assert not has_4_cycle(np.array([[1, 0, 0, 1], [1, 1, 0, 0],
                                     [0, 1, 1, 0], [0, 0, 1, 1]]))
    assert not has_4_cycle(sc_lift(tiny_spec()))


def test_relabeling_keeps_every_count():
    spec = tiny_spec()
    for seed in (1, 2, 3):
        f = relabeled_powers(3, 5, 5, seed)
        assert not np.array_equal(f, spec.block.powers)
        moved = SCCodeSpec(type(spec.block)(3, 5, 5, f), spec.partition, 4)
        assert active_cycles6(moved).total == active_cycles6(spec).total
        species = ObjectSpecies(3, 3, "AS", 2)
        assert (enumerate_objects(moved, species).per_span
                == enumerate_objects(spec, species).per_span)


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    wl = workloads.PARTS["pipeline-g3"]
    inputs = wl.build(wl.default_seed, out)
    return wl, inputs, wl.run(inputs)


def test_clean_pipeline_output_passes_every_check(pipeline_run):
    wl, inputs, outputs = pipeline_run
    checks = Checks()
    wl.check(inputs, outputs, checks, wl.default_seed)
    assert checks.failures == []
    assert checks.attempted >= 10


def test_corrupted_artifact_raises_failed_frac(pipeline_run, tmp_path):
    wl, inputs, outputs = pipeline_run
    out = tmp_path / "copy"
    shutil.copytree(inputs["out"], out)
    inputs = dict(inputs, out=out)
    alist = out / "code.alist"
    lines = alist.read_text().splitlines()
    # lines[4] lists the rows of column 1: move its first one down a row
    col = lines[4].split()
    col[0] = str(int(col[0]) + 1)
    lines[4] = " ".join(col)
    alist.write_text("\n".join(lines) + "\n")
    checks = Checks()
    wl.check(inputs, outputs, checks, wl.default_seed)
    assert len(checks.failures) / checks.attempted > 0  # failed_frac
    assert any("read_alist(code.alist)" in f for f in checks.failures)
    assert any("artifacts[code.alist]" in f for f in checks.failures)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline-g3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_what_the_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = set(spans.layer_metrics([])) | {"trace.overhead_s"}
    assert {m["name"] for m in bench["per_layer"]} == layer_names
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    parts = {p.name for w in workloads.WORKLOADS.values() for p in w.parts}
    assert parts == set(workloads.PARTS)
