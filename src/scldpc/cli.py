"""Command line front end.

Subcommands cover the construction pipeline: optimize the partition,
count cycles, optimize circulant powers, lift, and export matrices.
A config file (INI style) can carry any flag value; explicit flags win.
Artifacts land in --out, the SCLDPC_OUT directory, or the working
directory, and identical runs produce byte-identical files.  Input files
are read before any output is written: a missing or malformed one is a
usage error (exit status 2) naming its flag and path.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .code_model import (CirculantBlockCode, PartitionMatrix, SCCodeSpec,
                         ab_powers, partition_from_cutting_vectors)
from .cycle_census import active_cycles6, census_from_partition, count_cycles6
from .io_formats import (census_csv, optimum_csv, read_int_grid, trace_csv,
                         write_alist, write_int_grid)
# The CLI lifts and reads a code as column lists, never as a dense matrix.
# It calls them by the names sc_lift and read_alist, the attributes the
# tracer in perfbench/spans.py wraps to time the CLI's lift and alist read.
from .code_model import sc_lift_columns as sc_lift
from .io_formats import read_alist_columns as read_alist
from .overlaps import (IndependentOverlaps, partition_from_overlaps,
                       partition_from_patterns)
from .partition_opt import OptimizerConfig, optimize
from .power_opt import CpoConfig, run_cpo

ENV_OUT = "SCLDPC_OUT"


@dataclass
class RunConfig:
    """Resolved settings for one command invocation."""

    gamma: int | None = None
    kappa: int | None = None
    p: int | None = None
    m: int = 1
    L: int | None = None
    zeta: tuple | None = None
    overlaps: tuple | None = None
    partition_file: str | None = None
    use_optimizer: bool = False
    powers_file: str | None = None
    matrix: str | None = None
    seed: int | None = None
    out: str = "."
    strategy: str = "auto"
    restarts: int = 60
    slack: int = 0
    cpo_target: int = 0
    cpo_schedule: tuple = (1, 2, 3)
    cpo_stale: int = 60
    cpo_cap: int = 8192
    cpo_budget: float | None = None

    def partition_sources(self):
        return [s for s, used in (
            ("--zeta", self.zeta is not None),
            ("--overlaps", self.overlaps is not None),
            ("--partition-file", self.partition_file is not None),
            ("--optimize", self.use_optimizer),
        ) if used]


def _int_list(text: str):
    return tuple(int(v) for v in text.replace(",", " ").split())


_STRATEGIES = ("auto", "exhaustive", "branch-and-bound", "local-search")


def _strategy(text: str) -> str:
    if text not in _STRATEGIES:
        raise ValueError(f"unknown strategy: {text!r}")
    return text


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="scldpc",
        description="Construct and audit spatially coupled LDPC codes.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--gamma", type=int, help="row blocks of the base matrix")
        sp.add_argument("--kappa", type=int, help="column blocks of the base matrix")
        sp.add_argument("--p", type=int, help="circulant size")
        sp.add_argument("--m", type=int, help="coupling memory (default 1)")
        sp.add_argument("--L", type=int, help="coupling length")
        sp.add_argument("--zeta", type=_int_list, metavar="A,B,...",
                        help="cutting vector partition: m * gamma entries, "
                             "one gamma-long vector per component boundary")
        sp.add_argument("--overlaps", type=_int_list, metavar="T0,T1,...",
                        help="independent overlap values, canonical order")
        sp.add_argument("--partition-file", help="partition grid file")
        sp.add_argument("--optimize", action="store_true", dest="use_optimizer",
                        help="derive the partition with the overlap optimizer")
        sp.add_argument("--powers-file", help="circulant power grid file")
        sp.add_argument("--seed", type=int, help="seed for heuristic stages")
        sp.add_argument("--config", help="INI file with default flag values")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--strategy", choices=_STRATEGIES)
        sp.add_argument("--restarts", type=int)
        sp.add_argument("--slack", type=int, help="balance slack per component")
        sp.add_argument("--cpo-target", type=int)
        sp.add_argument("--cpo-schedule", type=_int_list, metavar="1,2,3")
        sp.add_argument("--cpo-stale", type=int)
        sp.add_argument("--cpo-cap", type=int)
        sp.add_argument("--cpo-budget", type=float)
        return sp

    add_common(sub.add_parser("optimize", help="search overlap parameters"))
    c = add_common(sub.add_parser("census", help="count cycles"))
    c.add_argument("--matrix", help="alist file to audit directly")
    add_common(sub.add_parser("cpo", help="optimize circulant powers"))
    add_common(sub.add_parser("lift", help="build the full coupled matrix"))
    e = add_common(sub.add_parser("export", help="convert a 0/1 grid to alist"))
    e.add_argument("--matrix", help="dense 0/1 text matrix to export")
    add_common(sub.add_parser("pipeline",
                              help="optimize, power-optimize, lift, report"))
    return ap


def _bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


_CONFIG_KEYS = {
    "gamma": int, "kappa": int, "p": int, "m": int, "L": int,
    "zeta": _int_list, "overlaps": _int_list, "partition_file": str,
    "use_optimizer": _bool,
    "powers_file": str, "matrix": str, "seed": int, "out": str,
    "strategy": _strategy, "restarts": int, "slack": int,
    "cpo_target": int, "cpo_schedule": _int_list, "cpo_stale": int,
    "cpo_cap": int, "cpo_budget": float,
}


def _load_config_file(path: str) -> dict:
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise SystemExit(f"config file not found: {path}")
    merged = {}
    for section in cp.sections():
        for key, raw in cp.items(section):
            key = key.replace("-", "_").lower()
            if key == "l":
                key = "L"
            if key not in _CONFIG_KEYS:
                raise SystemExit(f"unknown config key: {key}")
            try:
                merged[key] = _CONFIG_KEYS[key](raw)
            except ValueError:
                raise SystemExit(
                    f"bad value for config key {key}: {raw!r}") from None
    return merged


# smallest accepted value of each numeric setting (every entry of a list)
_AT_LEAST = {
    "gamma": 1, "kappa": 1, "p": 1, "m": 0, "L": 1, "seed": 0, "restarts": 1,
    "slack": 0, "cpo_target": 0, "cpo_schedule": 1, "cpo_stale": 0,
    "cpo_cap": 1, "cpo_budget": 0,
}


def _resolve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, val in _load_config_file(args.config).items():
            setattr(cfg, key, val)
    for key in vars(cfg):
        val = getattr(args, key, None)
        if val is not None and val is not False:
            setattr(cfg, key, val)
    for key, least in _AT_LEAST.items():
        val = getattr(cfg, key)
        vals = val if isinstance(val, tuple) else (val,)
        if val is not None and (not vals or min(vals) < least):
            parser.error(f"--{key.replace('_', '-')} must be >= {least}, "
                         f"got {val}")
    if cfg.out == "." and os.environ.get(ENV_OUT):
        cfg.out = os.environ[ENV_OUT]
    sources = cfg.partition_sources()
    if len(sources) > 1:
        parser.error("pick one partition source, got " + " and ".join(sources))
    return cfg


def _require(parser, cfg: RunConfig, *names):
    for name in names:
        if getattr(cfg, name) is None:
            parser.error(f"--{name} is required for this command")


def _read_input(parser, flag: str, path, read):
    """read(path); a missing or malformed file is a usage error naming both."""
    try:
        return read(path)
    except (OSError, ValueError) as exc:
        parser.error(f"{flag} {path}: {exc}")


def _out_dir(cfg: RunConfig) -> Path:
    path = Path(cfg.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _partition(parser, cfg: RunConfig) -> PartitionMatrix:
    _require(parser, cfg, "gamma", "kappa")
    if cfg.zeta is not None:
        if len(cfg.zeta) != cfg.m * cfg.gamma:
            parser.error("--zeta needs m * gamma entries "
                         f"({cfg.m} * {cfg.gamma}), got {len(cfg.zeta)}")
        vectors = [cfg.zeta[i * cfg.gamma:(i + 1) * cfg.gamma]
                   for i in range(cfg.m)]
        try:
            return partition_from_cutting_vectors(vectors, cfg.gamma, cfg.kappa)
        except ValueError as exc:
            parser.error(str(exc))
    if cfg.overlaps is not None:
        try:
            return partition_from_overlaps(IndependentOverlaps(
                cfg.gamma, cfg.m, cfg.kappa, cfg.overlaps))
        except ValueError as exc:
            parser.error(f"--overlaps: {exc}")
    if cfg.partition_file is not None:
        path = cfg.partition_file
        grid = _read_input(parser, "--partition-file", path, read_int_grid)
        if grid.shape != (cfg.gamma, cfg.kappa):
            parser.error(f"--partition-file {path}: shape {grid.shape} does "
                         "not match gamma x kappa")
        try:
            return PartitionMatrix(cfg.m, grid)
        except ValueError as exc:
            parser.error(f"--partition-file {path}: {exc}")
    if cfg.use_optimizer:
        _require(parser, cfg, "L")
        opt = _run_optimizer(cfg)
        return partition_from_patterns(opt.patterns)
    parser.error("no partition source given "
                 "(--zeta, --overlaps, --partition-file, or --optimize)")


def _run_optimizer(cfg: RunConfig):
    return optimize(cfg.gamma, cfg.kappa, cfg.m, cfg.L, OptimizerConfig(
        strategy=cfg.strategy, balance_slack=cfg.slack, seed=cfg.seed,
        restarts=cfg.restarts))


def _powers(parser, cfg: RunConfig) -> np.ndarray:
    _require(parser, cfg, "p")
    if cfg.powers_file is not None:
        path = cfg.powers_file
        f = _read_input(parser, "--powers-file", path, read_int_grid)
        if f.shape != (cfg.gamma, cfg.kappa):
            parser.error(f"--powers-file {path}: shape {f.shape} does not "
                         "match gamma x kappa")
        return f % cfg.p
    return ab_powers(cfg.gamma, cfg.kappa, cfg.p)


def _block(parser, cfg: RunConfig) -> CirculantBlockCode:
    return CirculantBlockCode(cfg.gamma, cfg.kappa, cfg.p, _powers(parser, cfg))


def _spec(parser, cfg: RunConfig, part: PartitionMatrix) -> SCCodeSpec:
    _require(parser, cfg, "p", "L")
    return SCCodeSpec(_block(parser, cfg), part, cfg.L)


def _cpo_config(cfg: RunConfig) -> CpoConfig:
    return CpoConfig(seed=cfg.seed, subset_size_schedule=cfg.cpo_schedule,
                     exhaustive_cap=cfg.cpo_cap, target_f_sc=cfg.cpo_target,
                     max_stale_rounds=cfg.cpo_stale,
                     time_budget_s=cfg.cpo_budget)


def cmd_optimize(parser, cfg: RunConfig) -> int:
    _require(parser, cfg, "gamma", "kappa", "L")
    opt = _run_optimizer(cfg)
    out = _out_dir(cfg)
    (out / "optimum.csv").write_text(optimum_csv(opt), newline="")
    part = partition_from_patterns(opt.patterns)
    write_int_grid(part.assign, out / "partition.txt")
    print(f"F* = {opt.f_star} ({opt.strategy}, "
          f"{'certified' if opt.certified else 'heuristic'})")
    return 0


def cmd_census(parser, cfg: RunConfig) -> int:
    if cfg.matrix is not None:
        n = count_cycles6(_read_input(parser, "--matrix", cfg.matrix,
                                      read_alist))
        (_out_dir(cfg) / "census.csv").write_text(
            "cycles6\n%d\n" % n, newline="")
        print(f"cycles-6 = {n}")
        return 0
    part = _partition(parser, cfg)
    _require(parser, cfg, "L")
    spec = _spec(parser, cfg, part) if cfg.p is not None else None
    out = _out_dir(cfg)
    cen = census_from_partition(part, cfg.L)
    (out / "census.csv").write_text(census_csv(cen), newline="")
    print(f"protograph cycles-6 = {cen.total}")
    if spec is not None:
        act = active_cycles6(spec)
        (out / "census_lifted.csv").write_text(
            census_csv(act, p=cfg.p), newline="")
        print(f"lifted cycles-6 = {act.total}")
    return 0


def cmd_cpo(parser, cfg: RunConfig) -> int:
    part = _partition(parser, cfg)
    spec = _spec(parser, cfg, part)
    if cfg.seed is None:
        parser.error("--seed is required for the power search")
    state = run_cpo(spec, _cpo_config(cfg))
    out = _out_dir(cfg)
    write_int_grid(state.powers, out / "powers.txt")
    (out / "trace.csv").write_text(trace_csv(state.trace), newline="")
    print(f"F_SC = {state.f_sc} after {state.rounds} rounds"
          + (" (target reached)" if state.reached_target else ""))
    return 0


def cmd_lift(parser, cfg: RunConfig) -> int:
    part = _partition(parser, cfg)
    spec = _spec(parser, cfg, part)
    out = _out_dir(cfg)
    write_alist(sc_lift(spec), out / "code.alist")
    print(f"wrote code.alist ({spec.L * cfg.kappa * cfg.p} columns)")
    return 0


def cmd_export(parser, cfg: RunConfig) -> int:
    if cfg.matrix is None:
        parser.error("--matrix is required for export")
    grid = _read_input(parser, "--matrix", cfg.matrix, read_int_grid)
    if not np.isin(grid, (0, 1)).all():
        parser.error(f"--matrix {cfg.matrix}: export expects a 0/1 matrix")
    out = _out_dir(cfg)
    write_alist(grid.astype(bool), out / "matrix.alist")
    print("wrote matrix.alist")
    return 0


def cmd_pipeline(parser, cfg: RunConfig) -> int:
    _require(parser, cfg, "gamma", "kappa", "p", "L")
    if cfg.seed is None:
        parser.error("--seed is required for the pipeline")
    block = _block(parser, cfg)  # input files are read before any output
    part = None
    if cfg.partition_sources() and not cfg.use_optimizer:
        part = _partition(parser, cfg)
    out = _out_dir(cfg)
    if part is None:
        opt = _run_optimizer(cfg)
        (out / "optimum.csv").write_text(optimum_csv(opt), newline="")
        part = partition_from_patterns(opt.patterns)
        print(f"F* = {opt.f_star}")
    write_int_grid(part.assign, out / "partition.txt")
    cen = census_from_partition(part, cfg.L)
    (out / "census.csv").write_text(census_csv(cen), newline="")
    state = run_cpo(SCCodeSpec(block, part, cfg.L), _cpo_config(cfg))
    write_int_grid(state.powers, out / "powers.txt")
    (out / "trace.csv").write_text(trace_csv(state.trace), newline="")
    final = SCCodeSpec(CirculantBlockCode(cfg.gamma, cfg.kappa, cfg.p,
                                          state.powers), part, cfg.L)
    act = active_cycles6(final)
    (out / "census_lifted.csv").write_text(census_csv(act, p=cfg.p),
                                           newline="")
    write_alist(sc_lift(final), out / "code.alist")
    print(f"F_SC = {state.f_sc}; wrote partition, powers, trace, censuses, "
          "and code.alist")
    return 0


_COMMANDS = {
    "optimize": cmd_optimize,
    "census": cmd_census,
    "cpo": cmd_cpo,
    "lift": cmd_lift,
    "export": cmd_export,
    "pipeline": cmd_pipeline,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = _resolve(args, parser)
    return _COMMANDS[args.command](parser, cfg)


if __name__ == "__main__":
    sys.exit(main())
