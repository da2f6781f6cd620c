"""Command-line front end.

Commands:

    solve      optimal schedules for each risk aversion (and correlation,
               under a stochastic turnover model); CSV per schedule plus a
               machine-readable report.json
    validate   run the self-validation suite and write validation.json
    expand     small-risk expansion around the volume-proportional schedule
               (deterministic turnover configurations only)
    simulate   solve, then Monte Carlo the realized cost of each schedule

One parser reads the command and the options all four share, in any order;
`main` builds the run once for the command's handler in COMMANDS.  solve and
simulate report every schedule through one sweep, _solve_sweep.

Configuration is a JSON document given either with --config PATH or as a
named built-in preset with --preset.  The SCHEMA table lists every key it may
hold, with its type and default, and a key it does not list is a
configuration problem; _build_run reads the table and checks the rules that
tie keys together.  Exit codes: 0 success, 2 configuration problem (an output
directory that cannot be created and a run too large to allocate included)
or usage error, 3 solver or validation failure.  Diagnostics go to stderr;
each command prints a one-line JSON summary to stdout.
"""
from __future__ import annotations

import argparse
import difflib
import json
import math
import sys
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .bvp import asymptotic_expansion
from .cost import MarketParams
from .errors import ConsistencyError, SolverFailureError
from .grids import TimeGrid, build_grid, write_csv
from .montecarlo import SimulationConfig, _cost_rows, moment_estimate
from .optimizer import solve_qp_deterministic, solve_sqp_gbm
from .strategies import strategy_to_csv, vwap_strategy
from .validation import run_validation
from .volume import (
    GbmVolumeModel,
    VolumeProfile,
    arcsine_profile,
    constant_profile,
    gbm_harmonic_mean,
    profile_from_samples,
)

SCHEMA_VERSION = 1
PRESETS = ("fig1", "fig2", "fig3")


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    volume: object            # VolumeProfile or GbmVolumeModel
    market: MarketParams
    grid: TimeGrid
    Phi: float
    lambdas: list
    rhos: list                # empty for deterministic turnover
    n_paths: int
    seed: int
    antithetic: bool
    dump_paths: bool
    out_dir: Optional[str]

    @property
    def stochastic(self) -> bool:
        return isinstance(self.volume, GbmVolumeModel)


_KIND_NAMES = {float: "a number", int: "an integer", bool: "true or false",
               str: "a string", list: "a list", dict: "an object"}


def _value(value, kind, name):
    """A config value checked against its type.

    float takes a finite JSON number, int an integral one; bool, str, list
    and dict take JSON true/false, strings, arrays and objects.
    """
    if kind in (bool, str, list, dict):
        if isinstance(value, kind):
            return value
    elif not isinstance(value, bool) and isinstance(value, (int, float)):
        if kind is int and isinstance(value, int):
            return value
        try:
            out = float(value)
        except OverflowError:
            out = math.inf
        if not math.isfinite(out):
            raise ConfigError(f"{name} must be finite, got {value!r}")
        if kind is float:
            return out
        if out.is_integer():
            return int(out)
    raise ConfigError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")


def _floats(values, name):
    """A list of numbers: finite JSON numbers are checked in bulk, anything
    else one by one for the message."""
    values = _value(values, list, name)
    if set(map(type, values)) <= {int, float}:
        try:
            out = np.asarray(values, dtype=float)
            if np.isfinite(out).all():
                return out.tolist()
        except OverflowError:
            pass
    return [_value(x, float, f"{name}[{i}]") for i, x in enumerate(values)]


_REQUIRED = object()  # the default of a key that must be given
_NUMBER = (float, _REQUIRED)
# The whole configuration format: section -> key -> (kind, default), read in
# this order.  A kind is a type that _value checks, or _floats for a list of
# numbers.  "volume.<type>" holds the keys of one volume.type.  Lengths are in
# horizon units, the schedule size phi in shares, and grid_n counts uniform
# steps; rhos applies to gbm turnover only, volume.values holds grid_n + 1
# samples, and --out overrides out_dir.
SCHEMA = {
    "config": {"schema": (int, _REQUIRED), "volume": (dict, _REQUIRED), "market": (dict, _REQUIRED),
               "phi": _NUMBER, "horizon": _NUMBER, "grid_n": (int, _REQUIRED),
               "lambdas": (_floats, _REQUIRED), "rhos": (_floats, ()), "mc": (dict, {}),
               "out_dir": (str, None)},
    "market": dict.fromkeys(("kappa", "kappa_tilde", "sigma_tilde", "s0"), _NUMBER),
    "mc": {"n_paths": (int, 20_000), "seed": (int, 0), "antithetic": (bool, False),
           "dump_paths": (bool, False)},
    "volume.arcsine": {"type": (str, _REQUIRED)},
    "volume.constant": {"type": (str, _REQUIRED), "level": _NUMBER},
    "volume.samples": {"type": (str, _REQUIRED), "values": (_floats, _REQUIRED)},
    "volume.gbm": {"type": (str, _REQUIRED), **dict.fromkeys(("v0", "mu", "sigma", "rho"), _NUMBER)},
}


def _section(mapping: dict, section: str) -> dict:
    """The keys of one SCHEMA section read from mapping, defaults filled in.
    A key the section does not list is an error that names the nearest
    listed one."""
    table, where = SCHEMA[section], section.partition(".")[0]
    for key in mapping:
        if key not in table:
            near = difflib.get_close_matches(key, table, n=1)
            hint = f" (did you mean {where}.{near[0]}?)" if near else ""
            raise ConfigError(f"unknown key {where}.{key}{hint}")
    out = {}
    for key, (kind, default) in table.items():
        name = f"{where}.{key}"
        if key in mapping:
            out[key] = _floats(mapping[key], name) if kind is _floats else _value(mapping[key], kind, name)
        elif default is _REQUIRED:
            raise ConfigError(f"missing {name}")
        else:
            out[key] = default
    return out


def _build_run(doc: dict, seed_override=None, grid_n_override=None) -> RunConfig:
    """Validate the JSON document and build the run inputs.

    SCHEMA gives every key with its type and default, and a key outside it
    is an error; the rules here tie keys together.  --grid-n and --seed
    replace grid_n and mc.seed before they are read.
    """
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    if grid_n_override is not None:
        doc = {**doc, "grid_n": grid_n_override}
    cfg = _section(doc, "config")
    if cfg["schema"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema {cfg['schema']!r}, expected {SCHEMA_VERSION}")
    vtype = cfg["volume"].get("type")
    if f"volume.{vtype}" not in SCHEMA:
        raise ConfigError("missing volume.type" if vtype is None else f"unknown volume.type {vtype!r}")
    vol = _section(cfg["volume"], f"volume.{vtype}")
    del vol["type"]
    mc = _section(cfg["mc"] if seed_override is None else {**cfg["mc"], "seed": seed_override}, "mc")

    try:  # the last section read, so that every key is checked before a value is used
        market = MarketParams(**_section(cfg["market"], "market"))
    except ValueError as e:
        raise ConfigError(f"bad market parameters: {e}") from None
    try:
        grid = build_grid(cfg["horizon"], cfg["grid_n"])
    except ValueError as e:
        raise ConfigError(str(e)) from None
    try:
        if vtype == "arcsine":
            volume = arcsine_profile(grid)
        elif vtype == "constant":
            volume = constant_profile(grid, vol["level"])
        elif vtype == "samples":
            if len(vol["values"]) != cfg["grid_n"] + 1:
                raise ConfigError(f"volume.values must hold grid_n + 1 = {cfg['grid_n'] + 1} samples")
            volume = profile_from_samples(grid, np.asarray(vol["values"]))
        else:
            volume = GbmVolumeModel(**vol)
            gbm_harmonic_mean(volume, grid)  # rejects a curve that over- or underflows
    except ValueError as e:
        raise ConfigError(f"bad volume section: {e}") from None

    lambdas, rhos = cfg["lambdas"], list(cfg["rhos"])
    if cfg["phi"] <= 0.0:
        raise ConfigError(f"phi must be positive, got {cfg['phi']}")
    if not lambdas:
        raise ConfigError("lambdas must be a non-empty list")
    if any(x < 0 for x in lambdas):
        raise ConfigError("lambdas must be nonnegative")
    if rhos and not isinstance(volume, GbmVolumeModel):
        raise ConfigError("rhos only applies to a gbm volume model")
    if any(abs(r) > 1.0 for r in rhos):
        raise ConfigError("rhos must lie in [-1, 1]")
    for key, values in (("lambdas", lambdas), ("rhos", rhos)):
        first = {}  # artifact name -> the value that wrote it
        for x in values:
            name = _fmt(x)
            if name in first:
                raise ConfigError(f"{key} {first[name]!r} and {x!r} share the artifact name {name!r}")
            first[name] = x
    if mc["n_paths"] < 2:
        raise ConfigError("mc.n_paths must be at least 2")
    if mc["antithetic"] and mc["n_paths"] % 2:
        raise ConfigError(f"mc.n_paths must be even with mc.antithetic, got {mc['n_paths']}")
    if mc["antithetic"] and mc["n_paths"] < 4:  # one antithetic pair has no standard error
        raise ConfigError("mc.n_paths must be at least 4 with mc.antithetic")
    if not 0 <= mc["seed"] < 2**64:
        source = "--seed" if seed_override is not None else "mc.seed"
        raise ConfigError(f"{source} must lie in [0, 2^64), got {mc['seed']}")
    return RunConfig(volume=volume, market=market, grid=grid, Phi=cfg["phi"], lambdas=lambdas,
                     rhos=rhos, out_dir=cfg["out_dir"], **mc)


def _load_doc(args) -> dict:
    if args.config and args.preset:
        raise ConfigError("give either --config or --preset, not both")
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}") from None
    elif args.preset:
        try:
            text = resources.files("volexec.presets").joinpath(f"{args.preset}.json").read_text()
        except (FileNotFoundError, ModuleNotFoundError) as e:
            raise ConfigError(f"unknown preset {args.preset!r}: {e}") from None
    else:
        raise ConfigError("a configuration is required: --config PATH or --preset NAME")
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None


def _out_dir(args, run: RunConfig) -> Path:
    path = Path(args.out or run.out_dir or ".")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # a file in the way, or no permission
        raise ConfigError(f"cannot create output directory: {e}") from None
    return path


def _fmt(x: float) -> str:
    return format(x, "g")


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, allow_nan=False))


def _solve_sweep(run: RunConfig):
    """Yield (entry, strategy) across the config sweep, the entry holding
    lambda, rho (gbm only) and the solve report's fields; a solve that did
    not converge is reported on stderr."""
    rhos = (run.rhos or [run.volume.rho]) if run.stochastic else [None]
    for lam in run.lambdas:
        for rho in rhos:
            if rho is None:
                s, rep = solve_qp_deterministic(run.volume, lam, run.market, run.Phi)
            else:
                model = replace(run.volume, rho=rho)
                s, rep = solve_sqp_gbm(model, lam, run.market, run.Phi, run.grid)
            entry = {"lambda": lam, **rep.as_dict()}
            if rho is not None:
                entry["rho"] = rho
            if rep.status != "converged":
                print(f"solver did not converge for lambda={lam} rho={rho}", file=sys.stderr)
            yield entry, s


def _artifact_name(prefix: str, entry: dict) -> str:
    name = f"{prefix}_lam{_fmt(entry['lambda'])}"
    if "rho" in entry:
        name += f"_rho{_fmt(entry['rho'])}"
    return name + ".csv"


def cmd_solve(args, run: RunConfig) -> int:
    out = _out_dir(args, run)
    results = []
    for entry, s in _solve_sweep(run):
        entry["file"] = _artifact_name("strategy", entry)
        strategy_to_csv(s, str(out / entry["file"]))
        results.append(entry)
    converged = all(e["status"] == "converged" for e in results)
    report = {"schema": SCHEMA_VERSION, "command": "solve", "results": results,
              "all_converged": converged}
    _write_json(out / "report.json", report)
    _emit({"command": "solve", "out_dir": str(out), "n_results": len(results),
           "all_converged": converged})
    return 0 if converged else 3


def cmd_validate(args, run: RunConfig) -> int:
    out = _out_dir(args, run)
    report = run_validation(
        run.volume,
        run.market,
        run.grid,
        Phi=run.Phi,
        n_paths=run.n_paths,
        seed=run.seed,
        lambdas=run.lambdas,
    )
    _write_json(out / "validation.json", report)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    for name in failed:
        print(f"validation check failed: {name}", file=sys.stderr)
    _emit({"command": "validate", "out_dir": str(out),
           "n_checks": len(report["checks"]), "all_passed": report["all_passed"]})
    return 0 if report["all_passed"] else 3


def cmd_expand(args, run: RunConfig) -> int:
    if run.stochastic:
        raise ConfigError("expand requires a deterministic turnover profile")
    out = _out_dir(args, run)
    base = vwap_strategy(run.volume, run.Phi)
    columns = {"t": run.grid.nodes, "zeta0": base.zeta}
    zeta1 = None
    for lam in run.lambdas:
        comp, zeta1 = asymptotic_expansion(run.volume, run.market, lam, run.Phi)
        columns[f"composite_lam{_fmt(lam)}"] = comp.zeta
    columns["zeta1"] = zeta1
    names = ["t", "zeta0", "zeta1"] + [k for k in columns if k.startswith("composite_")]
    write_csv(out / "expansion.csv", names, [columns[k] for k in names])
    _emit({"command": "expand", "out_dir": str(out), "n_lambdas": len(run.lambdas)})
    return 0


def cmd_simulate(args, run: RunConfig) -> int:
    out = _out_dir(args, run)
    solved = list(_solve_sweep(run))
    cfg = SimulationConfig(run.n_paths, run.seed, run.grid, run.market, run.volume)
    # every schedule, at its own correlation, is priced on one pass of draws
    costs = _cost_rows(cfg, [s for _, s in solved], antithetic=run.antithetic,
                       rhos=[entry.get("rho") for entry, _ in solved])
    results = []
    for (entry, _), row in zip(solved, costs):
        kept = {k: entry[k] for k in ("lambda", "rho", "objective", "status") if k in entry}
        kept["moments"] = moment_estimate(row, run.antithetic).as_dict()
        if run.dump_paths:
            kept["costs_file"] = _artifact_name("costs", entry)
            write_csv(out / kept["costs_file"], ["path", "cost"], [range(len(row)), row])
        results.append(kept)
    report = {"schema": SCHEMA_VERSION, "command": "simulate", "results": results}
    _write_json(out / "simulate.json", report)
    _emit({"command": "simulate", "out_dir": str(out), "n_results": len(results)})
    return 0 if all(e["status"] == "converged" for e in results) else 3


# command -> (handler, one-line help)
COMMANDS = {
    "solve": (cmd_solve, "solve the schedule sweep and write CSV/JSON artifacts"),
    "validate": (cmd_validate, "run the self-validation suite"),
    "expand": (cmd_expand, "small-risk expansion around volume-proportional"),
    "simulate": (cmd_simulate, "solve, then Monte Carlo the realized costs"),
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="volexec",
        description="Volume-weighted execution scheduling under linear market impact.",
        epilog="commands:\n" + "\n".join(f"  {k}: {help_}" for k, (_, help_) in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("command", choices=COMMANDS, metavar="command", help="see commands below")
    p.add_argument("--config", help="path to a JSON run configuration")
    p.add_argument("--preset", choices=PRESETS, help="named built-in configuration")
    p.add_argument("--out", help="output directory (overrides config out_dir)")
    p.add_argument("--seed", type=int, help="override mc.seed")
    p.add_argument("--grid-n", type=int, help="override grid_n")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler, _ = COMMANDS[args.command]
    try:
        return handler(args, _build_run(_load_doc(args), args.seed, args.grid_n))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # a grid or path count too large to allocate
        print(f"config error: run does not fit in memory: {e}", file=sys.stderr)
        return 2
    except SolverFailureError as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, ConsistencyError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
