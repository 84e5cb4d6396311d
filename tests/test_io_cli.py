from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from scldpc import cli, code_model
from scldpc.cli import main
from scldpc.code_model import (ColumnLists, SCCodeSpec, ab_code,
                               partition_from_cutting_vector, sc_lift,
                               sc_lift_columns)
from scldpc.cycle_census import (active_cycles6, census_from_partition,
                                 count_cycles6)
from scldpc.io_formats import (alist_string, census_csv, read_alist,
                               read_alist_columns, read_int_grid, trace_csv,
                               write_alist, write_int_grid)
from scldpc.partition_opt import STRATEGIES, OptimizerConfig

from oracles import (random_partition, scan_alist_string,
                     split_alist_tokens)


def test_alist_identity_two_by_two():
    assert alist_string(np.eye(2, dtype=int)) == (
        "2 2\n1 1\n1 1\n1 1\n1\n2\n1\n2\n")


def test_alist_pads_ragged_degrees():
    h = np.array([[1, 1, 0], [0, 1, 0]])
    text = alist_string(h)
    lines = text.splitlines()
    assert lines[0] == "3 2"
    assert lines[1] == "2 2"
    assert lines[2] == "1 2 0"  # column degrees
    assert lines[3] == "2 1"  # row degrees
    assert lines[4:7] == ["1 0", "1 2", "0 0"]  # per-column rows, padded
    assert lines[7:] == ["1 2", "2 0"]


def test_alist_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    h = (rng.random((9, 14)) < 0.3).astype(np.uint8)
    h[0, 0] = 1  # avoid an all-zero matrix
    path = tmp_path / "m.alist"
    write_alist(h, path)
    assert np.array_equal(read_alist(path), h.astype(bool))


def test_alist_rejects_garbage(tmp_path):
    path = tmp_path / "bad.alist"
    path.write_text("3 3\n2 2\n1 1\n")
    with pytest.raises(ValueError, match="malformed"):
        read_alist(path)


def test_alist_lists_in_any_order_read_as_sorted_columns(tmp_path):
    path = tmp_path / "m.alist"
    # [[1, 1, 0], [0, 1, 0]] with column 2 and row 1 listed in reverse
    path.write_text("3 2\n2 2\n1 2 0\n2 1\n1 0\n2 1\n0 0\n2 1\n2 0\n")
    ones = read_alist_columns(path)
    assert ones.shape == (2, 3)
    assert ones.rows.tolist() == [0, 0, 1] and ones.cols.tolist() == [0, 1, 1]


def test_alist_round_trip_with_empty_rows_and_columns(tmp_path):
    rng = np.random.default_rng(5)
    h = (rng.random((12, 20)) < 0.25).astype(np.uint8)
    h[:, [0, 7, 19]] = 0
    h[[3, 11]] = 0
    h[0, 1] = 1
    path = tmp_path / "m.alist"
    write_alist(h, path)
    assert np.array_equal(read_alist(path), h.astype(bool))


# alist of [[1, 1, 0], [0, 1, 0]], one line per list; the edits below
# corrupt one part of it
_ALIST_LINES = ["3 2", "2 2", "1 2 0", "2 1", "1 0", "1 2", "0 0", "1 2", "2 0"]


@pytest.mark.parametrize("edit, message", [
    ({2: "2 1 0"}, "column degree line disagrees"),
    ({3: "2 2"}, "row degree line disagrees"),
    ({1: "2 3"}, "tokens where the header implies"),
    ({2: "1 1 0", 5: "2 0", 7: "1 0", 8: "2 0", 3: "1 1", 1: "2 2"},
     "maximum degree line"),
    ({8: "3 0"}, "row lists disagree"),
    ({4: "1 0", 5: "2 2"}, "repeated index"),
    ({4: "3 0"}, "outside"),
    ({4: "-1 0"}, "outside"),
    ({8: None}, "tokens where the header implies"),
    ({9: "garbage"}, "non-integer"),
    ({9: "7"}, "tokens where the header implies"),
    ({0: "0 2"}, "bad header"),
    ({0: f"{2**63} 2"}, "outside int64"),
    ({0: f"{-2**63 - 1} 2"}, "outside int64"),
    ({4: f"{2**63} 0"}, "outside int64"),
    ({4: f"{-2**63 - 1} 0"}, "outside int64"),
    ({i: " \t" for i in range(10)}, "truncated header"),
    ({4: "1_000 0"}, "non-integer"),
    ({4: "1 - 0"}, "non-integer"),
    ({8: "2 0 -"}, "non-integer"),
])
def test_alist_rejects_inconsistent_files(tmp_path, edit, message):
    path = tmp_path / "ok.alist"
    path.write_text("\n".join(_ALIST_LINES) + "\n")
    assert np.array_equal(read_alist(path), [[1, 1, 0], [0, 1, 0]])
    path.write_bytes("".join(t + "\r\n" for t in _ALIST_LINES).encode())
    assert np.array_equal(read_alist(path), [[1, 1, 0], [0, 1, 0]])
    lines = list(_ALIST_LINES) + [""]
    for i, text in edit.items():
        lines[i] = text
    path.write_text("\n".join(t for t in lines if t is not None) + "\n")
    for read in (read_alist, read_alist_columns):
        with pytest.raises(ValueError,
                           match="malformed alist file: .*" + message):
            read(path)


@pytest.mark.parametrize("text", [
    "\t".join(_ALIST_LINES),
    "\n\n  ".join(_ALIST_LINES) + " \n\n",
    "\x0b".join(_ALIST_LINES) + "\x0c",
    " ".join("+" + t for t in " ".join(_ALIST_LINES).split()),
    " ".join("00" + t for t in " ".join(_ALIST_LINES).split()),
])
def test_alist_reader_tokens_match_split_oracle(tmp_path, text):
    plain = "\n".join(_ALIST_LINES) + "\n"
    # the variant holds the same tokens as the plain file
    assert np.array_equal(split_alist_tokens(text), split_alist_tokens(plain))
    path = tmp_path / "m.alist"
    path.write_bytes(text.encode())
    ones = read_alist_columns(path)
    assert ones.shape == (2, 3)
    assert ones.rows.tolist() == [0, 0, 1] and ones.cols.tolist() == [0, 1, 1]


def test_int_grid_round_trip(tmp_path):
    g = np.array([[0, 1, 2], [2, 1, 0]])
    path = tmp_path / "grid.txt"
    write_int_grid(g, path)
    assert path.read_text() == "0 1 2\n2 1 0\n"
    assert np.array_equal(read_int_grid(path), g)


def test_int_grid_rejects_ragged(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text("1 2 3\n4 5\n")
    with pytest.raises(ValueError):
        read_int_grid(path)


def test_census_csv_recomputable():
    part = partition_from_cutting_vector((1, 3, 4), 3, 5)
    cen = census_from_partition(part, 6)
    lines = census_csv(cen).splitlines()
    assert lines[0] == "k,count,positions,weighted"
    total = 0
    for line in lines[1:-1]:
        k, n, mult, contrib = line.split(",")
        assert int(contrib) == int(n) * int(mult)
        assert int(mult) == 6 - int(k) + 1
        total += int(contrib)
    assert lines[-1] == f"total,,,{cen.total}"
    assert total == cen.total


def test_census_csv_lifted_rows_sum_to_total():
    # the lifted report must count active classes, not all starter classes,
    # each weighted by the census's own lift factor
    part = partition_from_cutting_vector((1, 3, 4), 3, 5)
    spec = SCCodeSpec(ab_code(3, 5, 5), part, 6)
    act = active_cycles6(spec)
    assert act.p == 5
    lines = census_csv(act).splitlines()
    total = 0
    for line in lines[1:-1]:
        k, n, mult, contrib = line.split(",")
        assert int(contrib) == int(n) * int(mult) * 5
        total += int(contrib)
    assert total == act.total
    assert lines[-1] == f"total,,,{act.total}"


def test_cli_census_writes_artifacts(tmp_path, capsys):
    rc = main(["census", "--gamma", "3", "--kappa", "5", "--p", "5",
               "--L", "6", "--zeta", "1,3,4", "--out", str(tmp_path)])
    assert rc == 0
    outp = capsys.readouterr().out
    assert "protograph cycles-6" in outp and "lifted cycles-6" in outp
    assert (tmp_path / "census.csv").exists()
    assert (tmp_path / "census_lifted.csv").exists()


def test_cli_census_matches_library(tmp_path):
    main(["census", "--gamma", "3", "--kappa", "5", "--L", "6",
          "--zeta", "1,3,4", "--out", str(tmp_path)])
    part = partition_from_cutting_vector((1, 3, 4), 3, 5)
    want = census_csv(census_from_partition(part, 6))
    assert (tmp_path / "census.csv").read_text() == want


def test_cli_multi_vector_zeta(tmp_path, capsys):
    rc = main(["census", "--gamma", "3", "--kappa", "7", "--m", "2",
               "--L", "5", "--zeta", "1,2,3,3,4,6", "--out", str(tmp_path)])
    assert rc == 0
    assert "protograph cycles-6" in capsys.readouterr().out


def test_cli_missing_required_flag():
    with pytest.raises(SystemExit):
        main(["census", "--gamma", "3", "--L", "6", "--zeta", "1,3,4"])


def test_cli_zeta_length_checked():
    with pytest.raises(SystemExit):
        main(["census", "--gamma", "3", "--kappa", "7", "--m", "2",
              "--L", "5", "--zeta", "1,2,3"])


def test_cli_rejects_two_partition_sources():
    with pytest.raises(SystemExit):
        main(["census", "--gamma", "3", "--kappa", "5", "--L", "6",
              "--zeta", "1,3,4", "--optimize"])


def test_cli_cpo_requires_seed(tmp_path):
    with pytest.raises(SystemExit):
        main(["cpo", "--gamma", "3", "--kappa", "5", "--p", "5", "--L", "6",
              "--zeta", "1,3,4", "--out", str(tmp_path)])


def test_cli_optimize_then_cpo_round_trip(tmp_path, capsys):
    rc = main(["optimize", "--gamma", "3", "--kappa", "5", "--L", "6",
               "--out", str(tmp_path)])
    assert rc == 0
    assert "certified" in capsys.readouterr().out
    part = read_int_grid(tmp_path / "partition.txt")
    assert part.shape == (3, 5)
    rc = main(["cpo", "--gamma", "3", "--kappa", "5", "--p", "5", "--L", "6",
               "--m", "1", "--partition-file", str(tmp_path / "partition.txt"),
               "--seed", "0", "--cpo-stale", "3", "--out", str(tmp_path)])
    assert rc == 0
    powers = read_int_grid(tmp_path / "powers.txt")
    assert powers.shape == (3, 5)
    assert (tmp_path / "trace.csv").read_text().startswith(
        "round,cells,powers,f_sc_before,f_sc_after,accepted\n")


def test_cli_cpo_says_when_the_time_budget_stopped_it(tmp_path, capsys):
    flags = ["--gamma", "3", "--kappa", "5", "--p", "5", "--L", "6",
             "--zeta", "1,3,4", "--seed", "0", "--cpo-stale", "3",
             "--out", str(tmp_path)]
    for command in ("cpo", "pipeline"):
        assert main([command] + flags + ["--cpo-budget", "0"]) == 0
        out = capsys.readouterr().out.rstrip()
        assert out.startswith("F_SC = ") and out.endswith("(time budget reached)")
        assert main([command] + flags) == 0
        assert "time budget" not in capsys.readouterr().out


def test_cli_lift_and_reread(tmp_path):
    main(["lift", "--gamma", "3", "--kappa", "4", "--p", "5", "--L", "3",
          "--zeta", "1,2,3", "--out", str(tmp_path)])
    h = read_alist(tmp_path / "code.alist")
    part = partition_from_cutting_vector((1, 2, 3), 3, 4)
    want = sc_lift(SCCodeSpec(ab_code(3, 4, 5), part, 3))
    assert np.array_equal(h, want.astype(bool))
    assert count_cycles6(h.astype(np.uint8)) == count_cycles6(want)


def test_cli_census_direct_matrix(tmp_path, capsys):
    rng = np.random.default_rng(1)
    part = random_partition(rng, 3, 4, 1)
    h = sc_lift(SCCodeSpec(ab_code(3, 4, 5), part, 3))
    write_alist(h, tmp_path / "h.alist")
    rc = main(["census", "--matrix", str(tmp_path / "h.alist"),
               "--out", str(tmp_path)])
    assert rc == 0
    n = count_cycles6(h)
    assert f"cycles-6 = {n}" in capsys.readouterr().out
    assert (tmp_path / "census.csv").read_text() == f"cycles6\n{n}\n"


def test_cli_config_file_flag_precedence(tmp_path, capsys):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(
        "[code]\ngamma = 3\nkappa = 5\nL = 6\nzeta = 1,3,4\n"
        f"out = {tmp_path}\n")
    rc = main(["census", "--config", str(cfgfile)])
    assert rc == 0
    first = capsys.readouterr().out
    # explicit flag overrides the file value
    rc = main(["census", "--config", str(cfgfile), "--zeta", "2,3,4"])
    assert rc == 0
    second = capsys.readouterr().out
    assert first != second


def test_cli_config_file_unknown_key(tmp_path):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[code]\ngamma = 3\nwat = 1\n")
    with pytest.raises(SystemExit):
        main(["census", "--config", str(cfgfile)])


@pytest.mark.parametrize("flags, flag", [
    (["--p", "0"], "--p"),
    (["--p", "-3"], "--p"),
    (["--L", "0"], "--L"),
    (["--m", "-1"], "--m"),
])
def test_cli_census_rejects_out_of_range_flags(tmp_path, capsys, flags, flag):
    code = {"--gamma": "3", "--kappa": "5", "--L": "6", "--zeta": "1,3,4",
            "--p": "5", "--out": str(tmp_path)}
    code.update(zip(flags[::2], flags[1::2]))
    with pytest.raises(SystemExit):
        main(["census"] + [v for item in code.items() for v in item])
    assert f"{flag} must be >= " in capsys.readouterr().err
    assert not (tmp_path / "census.csv").exists()


@pytest.mark.parametrize("flag, value", [
    ("--cpo-cap", "0"), ("--cpo-cap", "-5"), ("--cpo-stale", "-1"),
    ("--cpo-budget", "-1"), ("--cpo-schedule", "0,1"), ("--restarts", "0"),
    ("--seed", "-1"), ("--cpo-budget", "nan"),
])
def test_cli_cpo_rejects_out_of_range_flags(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit):
        main(["cpo", "--gamma", "3", "--kappa", "5", "--p", "5", "--L", "6",
              "--zeta", "1,3,4", "--seed", "0", "--out", str(tmp_path),
              flag, value])
    assert f"{flag} must be >= " in capsys.readouterr().err


@pytest.mark.parametrize("line", ["use_optimizer = ture", "p = five",
                                  "strategy = foo"])
def test_cli_config_file_bad_value(tmp_path, line):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(f"[code]\ngamma = 3\n{line}\n")
    key = line.split(" = ")[0]
    with pytest.raises(SystemExit, match=f"bad value for config key {key}"):
        main(["census", "--config", str(cfgfile)])


def test_cli_unknown_strategy_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--strategy", "foo"])
    assert exc.value.code == 2
    assert "--strategy: unknown strategy: 'foo'" in capsys.readouterr().err


def test_cli_parser_is_built_once_and_parses_like_a_fresh_one(
        tmp_path, capsys, monkeypatch):
    # back-to-back main() calls of one process share one parser; with a
    # usage error between them, each must still act as on a fresh parser
    code = ["--gamma", "3", "--kappa", "5", "--p", "5", "--L", "6"]
    calls = [
        ["census"] + code + ["--zeta", "1,3,4", "--out", str(tmp_path / "a")],
        ["census", "--strategy", "foo"],
        ["optimize", "--gamma", "3", "--kappa", "5", "--L", "6",
         "--strategy", "exhaustive", "--out", str(tmp_path / "b")],
        ["cpo"] + code + ["--zeta", "1,3,4", "--out", str(tmp_path / "c")],
        ["cpo"] + code + ["--zeta", "1,3,4", "--seed", "0", "--cpo-stale",
                          "2", "--out", str(tmp_path / "c")],
        ["census"] + code + ["--zeta", "1,3,4", "--out", str(tmp_path / "a")],
    ]

    def outcome(argv):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    cached = [outcome(argv) for argv in calls]
    assert cli._build_parser() is cli._build_parser()
    assert [rc for rc, _, _ in cached] == [0, 2, 0, 2, 0, 0]
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert cached == [outcome(argv) for argv in calls]


def test_cli_strategies_are_the_optimizers():
    # one list: each accepted name is an optimizer strategy, and -h lists
    # every one of them
    help_text = {s.key: s.help for s in cli.SETTINGS}["strategy"]
    for name in STRATEGIES:
        assert cli._strategy(name) == name
        assert OptimizerConfig(strategy=name).strategy == name
        assert name in help_text


def test_cli_config_file_booleans(tmp_path, capsys):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[code]\ngamma = 3\nkappa = 5\nL = 6\nzeta = 1,3,4\n"
                       f"use_optimizer = off\nout = {tmp_path}\n")
    assert main(["census", "--config", str(cfgfile)]) == 0
    assert "protograph cycles-6" in capsys.readouterr().out


def test_cli_out_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SCLDPC_OUT", str(tmp_path / "envdir"))
    rc = main(["census", "--gamma", "3", "--kappa", "5", "--L", "6",
               "--zeta", "1,3,4"])
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "envdir" / "census.csv").exists()


@pytest.mark.parametrize("config", [False, True])
def test_cli_explicit_out_dot_beats_env_var(tmp_path, monkeypatch, capsys,
                                           config):
    monkeypatch.setenv("SCLDPC_OUT", str(tmp_path / "envdir"))
    monkeypatch.chdir(tmp_path)
    argv = ["census", "--gamma", "3", "--kappa", "5", "--L", "6",
            "--zeta", "1,3,4"]
    if config:
        (tmp_path / "run.ini").write_text("[run]\nout = .\n")
        argv += ["--config", "run.ini"]
    else:
        argv += ["--out", "."]
    assert main(argv) == 0
    capsys.readouterr()
    assert (tmp_path / "census.csv").exists()
    assert not (tmp_path / "envdir").exists()


@pytest.mark.parametrize("text", [
    "gamma = 3\n",  # no section header
    "[code]\ngamma = 3\ngamma = 4\n",  # a key repeated in one section
    "[code]\ngamma = 3\n[code]\nkappa = 5\n",  # a section repeated
], ids=["no-section", "repeated-key", "repeated-section"])
def test_cli_malformed_config_file_is_a_clean_error(tmp_path, text):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(text)
    with pytest.raises(SystemExit, match=f"config file {cfgfile}"):
        main(["census", "--config", str(cfgfile)])


def test_cli_config_default_section_applies(tmp_path, capsys):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[DEFAULT]\ngamma = 3\nkappa = 5\nL = 6\n"
                       f"zeta = 1,3,4\nout = {tmp_path}\n")
    assert main(["census", "--config", str(cfgfile)]) == 0
    assert "protograph cycles-6" in capsys.readouterr().out
    assert (tmp_path / "census.csv").exists()


# one value per setting, as typed, that differs from its default
_SAMPLES = {
    "gamma": "4", "kappa": "6", "p": "7", "m": "2", "L": "9",
    "zeta": "1,2,3", "overlaps": "1,2", "partition_file": "part.txt",
    "use_optimizer": "yes", "powers_file": "powers.txt",
    "matrix": "code.alist", "seed": "5", "out": "somewhere",
    "strategy": "local-search", "restarts": "3", "slack": "2",
    "cpo_target": "10", "cpo_schedule": "2,1", "cpo_stale": "4",
    "cpo_cap": "100", "cpo_budget": "2.5",
}


def _resolved(argv):
    parser = cli._build_parser()
    return cli._resolve(parser.parse_args(argv), parser)


@pytest.mark.parametrize("setting", cli.SETTINGS, ids=lambda s: s.key)
def test_cli_flag_and_config_key_resolve_alike(tmp_path, setting):
    assert set(_SAMPLES) == {s.key for s in cli.SETTINGS}
    key, text = setting.key, _SAMPLES[setting.key]
    flag = cli._flag(key)
    by_flag = [flag] if key == "use_optimizer" else [flag, text]  # a switch
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(f"[run]\n{key} = {text}\n")
    from_flag = getattr(_resolved(["census", *by_flag]), key)
    from_file = getattr(_resolved(["census", "--config", str(cfgfile)]), key)
    assert from_flag == from_file
    assert from_flag != setting.default


@pytest.mark.parametrize("setting",
                         [s for s in cli.SETTINGS if s.least is not None],
                         ids=lambda s: s.key)
def test_cli_bounds_hold_for_flags_and_config_keys(tmp_path, capsys,
                                                   setting):
    flag, low = cli._flag(setting.key), str(setting.least - 1)
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(f"[run]\n{setting.key} = {low}\n")
    for argv in ([flag, low], ["--config", str(cfgfile)]):
        with pytest.raises(SystemExit):
            main(["census", *argv, "--out", str(tmp_path / "out")])
        assert f"{flag} must be >= {setting.least}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_export_round_trip(tmp_path):
    grid = np.array([[1, 0, 1], [0, 1, 1]])
    write_int_grid(grid, tmp_path / "grid.txt")
    rc = main(["export", "--matrix", str(tmp_path / "grid.txt"),
               "--out", str(tmp_path)])
    assert rc == 0
    assert np.array_equal(read_alist(tmp_path / "matrix.alist"),
                          grid.astype(bool))


def test_cli_byte_identical_reruns(tmp_path):
    args = ["census", "--gamma", "3", "--kappa", "5", "--p", "5", "--L", "6",
            "--zeta", "1,3,4", "--out"]
    main(args + [str(tmp_path / "a")])
    main(args + [str(tmp_path / "b")])
    for name in ("census.csv", "census_lifted.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_cli_pipeline_end_to_end(tmp_path, capsys):
    rc = main(["pipeline", "--gamma", "3", "--kappa", "5", "--p", "5",
               "--L", "6", "--seed", "1", "--cpo-stale", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    outp = capsys.readouterr().out
    assert "F_SC" in outp
    for name in ("optimum.csv", "partition.txt", "census.csv", "powers.txt",
                 "trace.csv", "census_lifted.csv", "code.alist"):
        assert (tmp_path / name).exists(), name
    # the lifted census in the report matches a recount on the shipped alist
    h = read_alist(tmp_path / "code.alist")
    last = (tmp_path / "census_lifted.csv").read_text().splitlines()[-1]
    assert int(last.split(",")[-1]) == count_cycles6(h.astype(np.uint8))


def test_trace_csv_layout():
    class Row:
        round = 1
        cells = ((0, 3), (2, 1))
        powers = (4, 6)
        f_sc_before = 100
        f_sc_after = 90
        accepted = True

    text = trace_csv([Row()])
    assert text.splitlines()[1] == "1,0:3;2:1,4;6,100,90,1"


@pytest.mark.parametrize("slab", [None, 7])
def test_alist_string_matches_scan_oracle(monkeypatch, slab):
    if slab is not None:  # many slabs, some ending mid-row
        monkeypatch.setattr(code_model, "_SCAN_SLAB", slab)
    rng = np.random.default_rng(12)
    for case in range(320):
        rows, cols = (int(v) for v in rng.integers(1, 16, size=2))
        h = rng.random((rows, cols)) < rng.random()
        if case % 4 == 1:
            h[rng.integers(rows)] = False
            h[:, rng.integers(cols)] = False
        elif case % 4 == 2:
            h[:] = case % 8 == 2  # all zeros or all ones
        h = h.astype(np.uint8) if case % 2 else h
        want = scan_alist_string(h)
        assert alist_string(h) == want, case
        assert alist_string(ColumnLists.from_dense(h)) == want, case
    for _ in range(20):
        g = int(rng.integers(2, 5))
        k = int(rng.integers(2, 7))
        m = int(rng.integers(0, 3))
        p = int(rng.integers(2, 8))
        spec = SCCodeSpec(ab_code(g, k, p), random_partition(rng, g, k, m),
                          int(rng.integers(1, 5)))
        h = sc_lift(spec)
        want = scan_alist_string(h)
        assert alist_string(h) == want
        assert alist_string(ColumnLists.from_dense(h)) == want


def _assert_alist_round_trip(path, ones):
    got = read_alist_columns(path)
    assert got.shape == ones.shape
    assert np.array_equal(got.rows, ones.rows)
    assert np.array_equal(got.cols, ones.cols)


def test_alist_string_matches_scan_oracle_at_realistic_sizes(tmp_path):
    # several hundred rows and columns: three-digit words, degree lines of
    # ten and more words, empty rows and columns
    rng = np.random.default_rng(31)
    path = tmp_path / "m.alist"
    for case in range(6):
        rows, cols = (int(v) for v in rng.integers(200, 700, size=2))
        h = rng.random((rows, cols)) < rng.uniform(0.02, 0.06)
        if case % 2:
            h[rng.integers(rows, size=5)] = False
            h[:, rng.integers(cols, size=5)] = False
        ones = ColumnLists.from_dense(h)
        col_deg = np.bincount(ones.cols, minlength=cols)
        row_deg = np.bincount(ones.rows, minlength=rows)
        assert min(col_deg.max(), row_deg.max()) >= 10
        want = scan_alist_string(h)
        assert alist_string(h) == want, case
        assert alist_string(ones) == want, case
        path.write_text(want)
        _assert_alist_round_trip(path, ones)


def test_alist_string_of_a_coupled_lift_matches_scan_oracle(tmp_path):
    spec = SCCodeSpec(ab_code(3, 7, 7),
                      partition_from_cutting_vector((2, 4, 6), 3, 7), 5)
    ones, h = sc_lift_columns(spec), sc_lift(spec)
    assert ones.shape == h.shape == (126, 245)
    want = scan_alist_string(h)
    assert alist_string(ones) == want
    assert alist_string(h) == want
    write_alist(ones, tmp_path / "code.alist")
    assert (tmp_path / "code.alist").read_text() == want
    _assert_alist_round_trip(tmp_path / "code.alist", ones)


def _numpy_ma_after(script, tmp_path) -> str:
    """Run script in a fresh interpreter (pytest's own process may already
    hold numpy.ma) with sys.argv[1] = tmp_path; whether it imported numpy.ma."""
    src = Path(code_model.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    script += "print('numpy.ma' in sys.modules)\n"
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()[-1]


def test_lift_and_census_matrix_leave_numpy_ma_unimported(tmp_path):
    script = (
        "import sys\n"
        "from scldpc.cli import main\n"
        "out = sys.argv[1]\n"
        "code = ['--gamma', '3', '--kappa', '5', '--p', '5', '--L', '4',\n"
        "        '--zeta', '1,3,4', '--out', out]\n"
        "assert main(['lift', *code]) == 0\n"
        "assert main(['census', '--matrix', out + '/code.alist',\n"
        "             '--out', out + '/brute']) == 0\n")
    assert _numpy_ma_after(script, tmp_path) == "False"


def test_pipeline_audits_and_trapping_search_leave_numpy_ma_unimported(tmp_path):
    # plain np.unique(x) imports numpy.ma on first use; every stage of both
    # benchmark workloads must avoid it
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from scldpc.cli import main\n"
        "from scldpc.code_model import (SCCodeSpec, ab_code,\n"
        "                               partition_from_cutting_vector, sc_lift)\n"
        "from scldpc.trapping_sets import (ObjectSpecies, classify,\n"
        "                                  enumerate_objects)\n"
        "out = sys.argv[1]\n"
        "code = ['--gamma', '3', '--kappa', '5', '--p', '5', '--L', '4']\n"
        "assert main(['pipeline', *code, '--seed', '0', '--cpo-stale', '2',\n"
        "             '--out', out + '/pipe']) == 0\n"
        "code += ['--zeta', '1,3,4', '--out', out + '/audit']\n"
        "assert main(['census', *code]) == 0\n"
        "assert main(['lift', *code]) == 0\n"
        "assert main(['census', '--matrix', out + '/audit/code.alist',\n"
        "             '--out', out + '/brute']) == 0\n"
        "spec = SCCodeSpec(ab_code(3, 5, 5),\n"
        "                  partition_from_cutting_vector([1, 3, 4], 3, 5), 4)\n"
        "assert enumerate_objects(spec, ObjectSpecies(4, 2, 'AS', 3)).total\n"
        "assert classify(sc_lift(spec), [0, 5, 11]).a == 3\n")
    assert _numpy_ma_after(script, tmp_path) == "False"


_CODE = ["--gamma", "3", "--kappa", "4", "--p", "5", "--L", "3"]


@pytest.mark.parametrize("argv, flag, content", [
    (["lift", *_CODE, "--zeta", "1,2,3", "--powers-file"], "--powers-file",
     "0 1 2 3\n0 1 x 3\n0 2 4 1\n"),
    (["lift", *_CODE, "--partition-file"], "--partition-file",
     "0 1 1 1\n0 0 1 1.5\n0 0 0 1\n"),
    (["export", "--matrix"], "--matrix", "1 0\n0 one\n"),
    (["cpo", *_CODE, "--seed", "0", "--partition-file"], "--partition-file",
     "\n\n"),
    (["lift", *_CODE, "--partition-file"], "--partition-file",
     "0 1 1 1\n0 0 1 2\n0 0 0 1\n"),
    (["pipeline", *_CODE, "--seed", "0", "--zeta", "1,2,3", "--powers-file"],
     "--powers-file", "0 1 2 3\n0 1 2 3\n0 1 2 z\n"),
    (["census", "--matrix"], "--matrix", "3 2\n2 2\n1 2 0\n"),
    (["census", "--matrix"], "--matrix", None),
    (["lift", *_CODE, "--zeta", "1,2,3", "--powers-file"], "--powers-file",
     f"0 1 2 3\n0 1 {2**63} 3\n0 2 4 1\n"),
], ids=["powers-token", "partition-token", "export-token", "empty-grid",
        "partition-above-m", "pipeline-powers", "alist-malformed",
        "alist-missing", "powers-overflow"])
def test_cli_bad_input_file_is_a_usage_error(tmp_path, capsys, argv, flag,
                                             content):
    path = tmp_path / "input.txt"
    if content is not None:
        path.write_text(content)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + [str(path), "--out", str(out)])
    assert exc.value.code == 2
    assert f"{flag} {path}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["cpo", "pipeline"])
def test_cli_powers_closing_4_cycles_are_a_usage_error(tmp_path, capsys,
                                                       command):
    # under all-zero powers every protograph 4-cycle survives the lift
    path = tmp_path / "zeros.txt"
    path.write_text("0 0 0 0 0 0 0\n" * 3)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--gamma", "3", "--kappa", "7", "--p", "7", "--L", "10",
              "--seed", "3", "--zeta", "2,4,6", "--powers-file", str(path),
              "--out", str(out)])
    assert exc.value.code == 2
    assert f"--powers-file {path}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["cpo", "pipeline"])
def test_cli_ab_powers_closing_4_cycles_are_a_usage_error(tmp_path, capsys,
                                                          command):
    # AB powers i*j mod 5 repeat every five columns, so kappa=7 has 4-cycles
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--gamma", "3", "--kappa", "7", "--p", "5", "--L", "10",
              "--seed", "3", "--zeta", "2,4,6", "--out", str(out)])
    assert exc.value.code == 2
    assert "AB powers for p=5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["cpo", "--gamma", "3", "--kappa", "5", "--p", "5", "--L", "1",
      "--zeta", "1,3,4", "--seed", "0"], "--L must be >= m + 1 = 2"),
    (["pipeline", "--gamma", "3", "--kappa", "5", "--p", "5", "--L", "1",
      "--seed", "0"], "--L must be >= m + 1 = 2"),
    (["pipeline", "--gamma", "3", "--kappa", "5", "--p", "5", "--L", "2",
      "--m", "2", "--seed", "0"], "--L must be >= m + 1 = 3"),
    (["optimize", "--gamma", "4", "--kappa", "17", "--L", "30"],
     "local search requires a seed"),
    (["census", "--gamma", "4", "--kappa", "17", "--L", "30", "--optimize"],
     "local search requires a seed"),
    (["optimize", "--gamma", "3", "--kappa", "5", "--L", "6",
      "--strategy", "local-search"], "local search requires a seed"),
], ids=["cpo-short-chain", "pipeline-short-chain", "pipeline-m2-short-chain",
        "optimize-auto-no-seed", "census-auto-no-seed",
        "optimize-local-no-seed"])
def test_cli_settings_a_stage_rejects_are_usage_errors(tmp_path, capsys, argv,
                                                       message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_overlaps_of_wrong_length_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["census", "--gamma", "3", "--kappa", "5", "--L", "6",
              "--overlaps", "1,2", "--out", str(out)])
    assert exc.value.code == 2
    assert "--overlaps: expected" in capsys.readouterr().err
    assert not out.exists()


def test_lift_and_matrix_census_stay_below_one_dense_matrix(tmp_path):
    # the paper's gamma=4 cutting-vector code, 2108 x 8670: neither command
    # may hold as much as one byte per matrix entry
    code = ["--gamma", "4", "--kappa", "17", "--p", "17", "--L", "30",
            "--zeta", "3,7,11,15"]
    dense_bytes = (30 + 1) * 4 * 17 * 30 * 17 * 17
    peaks = {}
    for name, argv in (
            ("lift", ["lift", *code, "--out", str(tmp_path)]),
            ("census --matrix", ["census", "--matrix",
                                 str(tmp_path / "code.alist"),
                                 "--out", str(tmp_path / "brute")])):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert all(peak < dense_bytes for peak in peaks.values()), peaks
