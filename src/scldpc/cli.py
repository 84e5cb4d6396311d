"""Command line front end.

Subcommands cover the construction pipeline: optimize the partition,
count cycles, optimize circulant powers, lift, and export matrices.
A config file (INI style) can carry any flag value; explicit flags win.
Artifacts land in --out, the SCLDPC_OUT directory, or the working
directory, and identical runs produce byte-identical files.  Input files
are read before any output is written: a missing or malformed one is a
usage error (exit status 2) naming its flag and path, and so is a setting
the partition or power search would reject once started.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import os
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np

from .code_model import (CirculantBlockCode, PartitionMatrix, SCCodeSpec,
                         ab_powers, partition_from_cutting_vectors)
from .cycle_census import (active_cycles6, census_from_partition,
                           count_cycles6, count_lifted_cycles4)
from .io_formats import (census_csv, optimum_csv, read_int_grid, trace_csv,
                         write_alist, write_int_grid)
# The CLI lifts and reads a code as column lists, never as a dense matrix.
# It calls them by the names sc_lift and read_alist, the attributes the
# tracer in perfbench/spans.py wraps to time the CLI's lift and alist read.
from .code_model import sc_lift_columns as sc_lift
from .io_formats import read_alist_columns as read_alist
from .overlaps import (IndependentOverlaps, partition_from_overlaps,
                       partition_from_patterns)
from .partition_opt import STRATEGIES, OptimizerConfig, optimize
from .power_opt import CpoConfig, run_cpo

ENV_OUT = "SCLDPC_OUT"


def _int_list(text: str):
    return tuple(int(v) for v in text.replace(",", " ").split())


def _strategy(text: str) -> str:
    if text not in STRATEGIES:  # argparse prints this message as it is
        raise argparse.ArgumentTypeError(f"unknown strategy: {text!r}")
    return text


def _bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


# Each setting once: its config key (the flag is the key with dashes, but
# use_optimizer is --optimize), the parser of its text, its default, the
# least value accepted for it or for each entry of its list, and its help.
Setting = namedtuple("Setting", "key parse default least help")
SETTINGS = tuple(Setting(*row) for row in (
    ("gamma", int, None, 1, "row blocks of the base matrix"),
    ("kappa", int, None, 1, "column blocks of the base matrix"),
    ("p", int, None, 1, "circulant size"),
    ("m", int, 1, 0, "coupling memory"),
    ("L", int, None, 1, "coupling length"),
    ("zeta", _int_list, None, None, "cutting vector partition: m * gamma "
     "entries, one gamma-long vector per component boundary"),
    ("overlaps", _int_list, None, None, "independent overlap values"),
    ("partition_file", str, None, None, "partition grid file"),
    ("use_optimizer", _bool, False, None, "search for the partition"),
    ("powers_file", str, None, None, "circulant power grid file"),
    ("matrix", str, None, None, "alist (census) or 0/1 grid (export) file"),
    ("seed", int, None, 0, "seed for heuristic stages"),
    ("out", str, None, None, f"output directory (else ${ENV_OUT}, else .)"),
    ("strategy", _strategy, "auto", None, ", ".join(STRATEGIES)),
    ("restarts", int, 60, 1, "local-search restarts"),
    ("slack", int, 0, 0, "balance slack per component"),
    ("cpo_target", int, 0, 0, "stop the power search at this F_SC"),
    ("cpo_schedule", _int_list, (1, 2, 3), 1, "power search subset sizes"),
    ("cpo_stale", int, 60, 0, "gainless schedule passes before stopping"),
    ("cpo_cap", int, 8192, 1, "joint power spaces above this are sampled"),
    ("cpo_budget", float, None, 0, "power search time budget, seconds"),
))


def _flag(key: str) -> str:
    if key == "use_optimizer":
        return "--optimize"
    return "--" + key.replace("_", "-")


def _add_flag(parser: argparse.ArgumentParser, s: Setting) -> None:
    text = s.help
    if s.default is not None and s.parse is not _bool:
        text += f" (default {s.default})"
    if s.parse is _bool:  # a switch; None marks it as not given
        parser.add_argument(_flag(s.key), dest=s.key, action="store_true",
                            default=None, help=text)
    else:
        parser.add_argument(_flag(s.key), dest=s.key, type=s.parse, help=text,
                            metavar="A,B,..." if s.parse is _int_list else None)


# parsing leaves the parser as it was, so one per process serves every main()
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    matrix = argparse.ArgumentParser(add_help=False)
    for s in SETTINGS:
        _add_flag(matrix if s.key == "matrix" else common, s)
    common.add_argument("--config", help="INI file with default flag values")
    ap = argparse.ArgumentParser(
        prog="scldpc",
        description="Construct and audit spatially coupled LDPC codes.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, text) in _COMMANDS.items():
        parents = [common, matrix] if name in ("census", "export") else [common]
        sub.add_parser(name, parents=parents, help=text)
    return ap


def _load_config_file(path: str) -> dict:
    # no section header can be empty, so [DEFAULT] is an ordinary section
    cp = configparser.ConfigParser(default_section="", interpolation=None)
    try:
        found = cp.read(path)
    except configparser.Error as exc:
        raise SystemExit(f"malformed config file {path}: {exc}") from None
    if not found:
        raise SystemExit(f"config file not found: {path}")
    rows = {s.key.lower(): s for s in SETTINGS}  # configparser lowercases keys
    merged = {}
    for section in cp.sections():
        for name, raw in cp.items(section):
            s = rows.get(name.replace("-", "_"))
            if s is None:
                raise SystemExit(f"unknown config key: {name}")
            try:
                merged[s.key] = s.parse(raw)
            except (ValueError, argparse.ArgumentTypeError):
                raise SystemExit(
                    f"bad value for config key {s.key}: {raw!r}") from None
    return merged


def _partition_sources(cfg) -> list:
    keys = ("zeta", "overlaps", "partition_file", "use_optimizer")
    return [_flag(k) for k in keys if getattr(cfg, k) not in (None, False)]


def _resolve(args: argparse.Namespace, parser) -> argparse.Namespace:
    """Each setting from its flag, else the config file, else its default;
    --out falls back to $SCLDPC_OUT before the working directory."""
    cfg = argparse.Namespace(**{s.key: s.default for s in SETTINGS})
    if args.config:
        vars(cfg).update(_load_config_file(args.config))
    for s in SETTINGS:
        if getattr(args, s.key, None) is not None:
            setattr(cfg, s.key, getattr(args, s.key))
        val = getattr(cfg, s.key)
        vals = val if isinstance(val, tuple) else (val,)
        # "not v >= least" rejects NaN too
        if s.least is not None and val is not None and (
                not vals or not all(v >= s.least for v in vals)):
            parser.error(f"{_flag(s.key)} must be >= {s.least}, got {val}")
    if cfg.out is None:
        cfg.out = os.environ.get(ENV_OUT) or "."
    sources = _partition_sources(cfg)
    if len(sources) > 1:
        parser.error("pick one partition source, got " + " and ".join(sources))
    return cfg


def _require(parser, cfg, *names):
    for name in names:
        if getattr(cfg, name) is None:
            parser.error(f"{_flag(name)} is required for this command")


def _read_input(parser, cfg, key: str, read=read_int_grid):
    """read() of the file a setting names; a bad file is a usage error."""
    try:
        return read(getattr(cfg, key))
    except (OSError, ValueError) as exc:
        parser.error(f"{_flag(key)} {getattr(cfg, key)}: {exc}")


def _out_dir(cfg) -> Path:
    path = Path(cfg.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _partition(parser, cfg) -> PartitionMatrix:
    _require(parser, cfg, "gamma", "kappa")
    if cfg.zeta is not None:
        if len(cfg.zeta) != cfg.m * cfg.gamma:
            parser.error("--zeta needs m * gamma entries "
                         f"({cfg.m} * {cfg.gamma}), got {len(cfg.zeta)}")
        vectors = np.reshape(cfg.zeta, (cfg.m, cfg.gamma))
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
        grid = _read_input(parser, cfg, "partition_file")
        if grid.shape != (cfg.gamma, cfg.kappa):
            parser.error(f"--partition-file {cfg.partition_file}: shape "
                         f"{grid.shape} does not match gamma x kappa")
        try:
            return PartitionMatrix(cfg.m, grid)
        except ValueError as exc:
            parser.error(f"--partition-file {cfg.partition_file}: {exc}")
    if cfg.use_optimizer:
        return _run_optimizer(parser, cfg)[1]
    parser.error("no partition source given "
                 "(--zeta, --overlaps, --partition-file, or --optimize)")


def _run_optimizer(parser, cfg):
    """The partition search's optimum and the partition it describes."""
    _require(parser, cfg, "gamma", "kappa", "L")
    try:
        opt = optimize(cfg.gamma, cfg.kappa, cfg.m, cfg.L, OptimizerConfig(
            strategy=cfg.strategy, balance_slack=cfg.slack, seed=cfg.seed,
            restarts=cfg.restarts))
    except ValueError as exc:  # a local search without --seed, say
        parser.error(f"partition search: {exc}")
    return opt, partition_from_patterns(opt.patterns)


def _powers(parser, cfg) -> np.ndarray:
    _require(parser, cfg, "p")
    if cfg.powers_file is not None:
        f = _read_input(parser, cfg, "powers_file")
        if f.shape != (cfg.gamma, cfg.kappa):
            parser.error(f"--powers-file {cfg.powers_file}: shape {f.shape} "
                         "does not match gamma x kappa")
        return f % cfg.p
    return ab_powers(cfg.gamma, cfg.kappa, cfg.p)


def _spec(parser, cfg, part: PartitionMatrix, powers=None) -> SCCodeSpec:
    """The coupled code, with --powers-file or AB powers unless given."""
    _require(parser, cfg, "p", "L")
    if powers is None:
        powers = _powers(parser, cfg)
    return SCCodeSpec(CirculantBlockCode(cfg.gamma, cfg.kappa, cfg.p, powers),
                      part, cfg.L)


def _check_start(parser, cfg, spec: SCCodeSpec) -> None:
    """The power search needs L >= m + 1 and a start free of 4-cycles."""
    if cfg.L < cfg.m + 1:
        parser.error(f"--L must be >= m + 1 = {cfg.m + 1} for the power search")
    if count_lifted_cycles4(spec):
        source = (f"--powers-file {cfg.powers_file}" if cfg.powers_file
                  is not None else f"the AB powers for p={cfg.p}")
        parser.error(f"{source}: the powers close lifted 4-cycles on this "
                     "partition; the power search starts 4-cycle-free")


# Each stage writes its artifacts in one function, which its command and the
# pipeline both call.  Each creates --out only once its results are ready.

def _write_partition(cfg, part: PartitionMatrix, opt=None) -> None:
    """partition.txt, and optimum.csv when the partition was searched for."""
    out = _out_dir(cfg)
    if opt is not None:
        (out / "optimum.csv").write_text(optimum_csv(opt), newline="")
    write_int_grid(part.assign, out / "partition.txt")


def _census(cfg, part: PartitionMatrix):
    """The protograph's cycle census, in census.csv."""
    cen = census_from_partition(part, cfg.L)
    (_out_dir(cfg) / "census.csv").write_text(census_csv(cen), newline="")
    return cen


def _active(cfg, spec: SCCodeSpec):
    """The lifted code's active cycles, in census_lifted.csv."""
    act = active_cycles6(spec)
    (_out_dir(cfg) / "census_lifted.csv").write_text(census_csv(act), newline="")
    return act


def _cpo(cfg, spec: SCCodeSpec):
    """The power search, its powers (powers.txt) and its trace (trace.csv)."""
    state = run_cpo(spec, CpoConfig(
        seed=cfg.seed, subset_size_schedule=cfg.cpo_schedule,
        exhaustive_cap=cfg.cpo_cap, target_f_sc=cfg.cpo_target,
        max_stale_rounds=cfg.cpo_stale, time_budget_s=cfg.cpo_budget))
    out = _out_dir(cfg)
    write_int_grid(state.powers, out / "powers.txt")
    (out / "trace.csv").write_text(trace_csv(state.trace), newline="")
    return state


def _lift(cfg, spec: SCCodeSpec) -> None:
    write_alist(sc_lift(spec), _out_dir(cfg) / "code.alist")


def cmd_optimize(parser, cfg) -> int:
    opt, part = _run_optimizer(parser, cfg)
    _write_partition(cfg, part, opt)
    print(f"F* = {opt.f_star} ({opt.strategy}, "
          f"{'certified' if opt.certified else 'heuristic'})")
    return 0


def cmd_census(parser, cfg) -> int:
    if cfg.matrix is not None:
        n = count_cycles6(_read_input(parser, cfg, "matrix", read_alist))
        (_out_dir(cfg) / "census.csv").write_text("cycles6\n%d\n" % n,
                                                  newline="")
        print(f"cycles-6 = {n}")
        return 0
    part = _partition(parser, cfg)
    _require(parser, cfg, "L")
    spec = _spec(parser, cfg, part) if cfg.p is not None else None
    print(f"protograph cycles-6 = {_census(cfg, part).total}")
    if spec is not None:
        print(f"lifted cycles-6 = {_active(cfg, spec).total}")
    return 0


def cmd_cpo(parser, cfg) -> int:
    spec = _spec(parser, cfg, _partition(parser, cfg))
    _require(parser, cfg, "seed")
    _check_start(parser, cfg, spec)
    state = _cpo(cfg, spec)
    print(f"F_SC = {state.f_sc} after {state.rounds} rounds"
          + (" (target reached)" if state.reached_target else "")
          + (" (time budget reached)" if state.cut_short else ""))
    return 0


def cmd_lift(parser, cfg) -> int:
    spec = _spec(parser, cfg, _partition(parser, cfg))
    _lift(cfg, spec)
    print(f"wrote code.alist ({spec.L * cfg.kappa * cfg.p} columns)")
    return 0


def cmd_export(parser, cfg) -> int:
    _require(parser, cfg, "matrix")
    grid = _read_input(parser, cfg, "matrix")
    if not np.isin(grid, (0, 1)).all():
        parser.error(f"--matrix {cfg.matrix}: export expects a 0/1 matrix")
    write_alist(grid.astype(bool), _out_dir(cfg) / "matrix.alist")
    print("wrote matrix.alist")
    return 0


def cmd_pipeline(parser, cfg) -> int:
    _require(parser, cfg, "gamma", "kappa", "p", "L", "seed")
    powers = _powers(parser, cfg)  # input files are read before any output
    opt = None
    if _partition_sources(cfg) and not cfg.use_optimizer:
        part = _partition(parser, cfg)
    else:
        opt, part = _run_optimizer(parser, cfg)
        print(f"F* = {opt.f_star}")
    start = _spec(parser, cfg, part, powers)
    _check_start(parser, cfg, start)  # before any output
    _write_partition(cfg, part, opt)
    _census(cfg, part)
    state = _cpo(cfg, start)
    final = _spec(parser, cfg, part, state.powers)
    _active(cfg, final)
    _lift(cfg, final)
    print(f"F_SC = {state.f_sc}; wrote partition, powers, trace, censuses, "
          "and code.alist" + (" (time budget reached)" if state.cut_short else ""))
    return 0


_COMMANDS = {
    "optimize": (cmd_optimize, "search overlap parameters"),
    "census": (cmd_census, "count cycles"),
    "cpo": (cmd_cpo, "optimize circulant powers"),
    "lift": (cmd_lift, "build the full coupled matrix"),
    "export": (cmd_export, "convert a 0/1 grid to alist"),
    "pipeline": (cmd_pipeline, "optimize, power-optimize, lift, report"),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = _resolve(args, parser)
    return _COMMANDS[args.command][0](parser, cfg)


if __name__ == "__main__":
    sys.exit(main())
