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

Configuration is a JSON document (see _build_run from the schema below) given
either with --config PATH or as a named built-in preset with --preset.  Exit
codes: 0 success, 2 configuration problem or usage error, 3 solver or
validation failure.  Diagnostics go to stderr; each command prints a
one-line JSON summary to stdout.
"""
from __future__ import annotations

import argparse
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


_MISSING = object()
_KIND_NAMES = {float: "a number", int: "an integer", bool: "true or false",
               list: "a list", dict: "an object"}


def _value(value, kind, name):
    """A config value checked against its type.

    float takes a finite JSON number, int an integral one; bool, list and
    dict take JSON true/false, arrays and objects.
    """
    if kind in (bool, list, dict):
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


def _require(mapping, key, kind, where, default=_MISSING):
    if key not in mapping:
        if default is _MISSING:
            raise ConfigError(f"missing {where}.{key}")
        return default
    return _value(mapping[key], kind, f"{where}.{key}")


def _require_list(mapping, key, kind, where, default=_MISSING):
    """Finite JSON numbers are checked in bulk, anything else one by one for the message."""
    values = _require(mapping, key, list, where, default)
    if kind is float and set(map(type, values)) <= {int, float}:
        try:
            out = np.asarray(values, dtype=float)
            if np.isfinite(out).all():
                return out.tolist()
        except OverflowError:
            pass
    return [_value(x, kind, f"{where}.{key}[{i}]") for i, x in enumerate(values)]


def _build_run(doc: dict, seed_override=None, grid_n_override=None) -> RunConfig:
    """Validate the JSON document and build the run inputs.

    Schema (all lengths in horizon units, schedule size in shares):

        {"schema": 1,
         "volume": {"type": "arcsine" | "constant" | "samples" | "gbm", ...},
         "market": {"kappa", "kappa_tilde", "sigma_tilde", "s0"},
         "phi": 1.0, "horizon": 1.0, "grid_n": 500,
         "lambdas": [0.0, ...],
         "rhos": [0.0, ...],                      # gbm turnover only
         "mc": {"n_paths", "seed", "antithetic", "dump_paths"},
         "out_dir": "optional/path"}

    constant takes {"level"}, samples takes {"values": [grid_n + 1 samples]},
    gbm takes {"v0", "mu", "sigma", "rho"}.
    """
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema {doc.get('schema')!r}, expected {SCHEMA_VERSION}")
    mdoc = doc.get("market")
    if not isinstance(mdoc, dict):
        raise ConfigError("missing market section")
    try:
        market = MarketParams(
            kappa=_require(mdoc, "kappa", float, "market"),
            kappa_tilde=_require(mdoc, "kappa_tilde", float, "market"),
            sigma_tilde=_require(mdoc, "sigma_tilde", float, "market"),
            s0=_require(mdoc, "s0", float, "market"),
        )
    except ValueError as e:
        raise ConfigError(f"bad market parameters: {e}") from None

    horizon = _require(doc, "horizon", float, "config")
    grid_n = grid_n_override if grid_n_override is not None else _require(doc, "grid_n", int, "config")
    try:
        grid = build_grid(horizon, grid_n)
    except ValueError as e:
        raise ConfigError(str(e)) from None

    vdoc = doc.get("volume")
    if not isinstance(vdoc, dict) or "type" not in vdoc:
        raise ConfigError("missing volume.type")
    vtype = vdoc["type"]
    try:
        if vtype == "arcsine":
            volume = arcsine_profile(grid)
        elif vtype == "constant":
            volume = constant_profile(grid, _require(vdoc, "level", float, "volume"))
        elif vtype == "samples":
            values = _require_list(vdoc, "values", float, "volume")
            if len(values) != grid_n + 1:
                raise ConfigError(
                    f"volume.values must hold grid_n + 1 = {grid_n + 1} samples"
                )
            volume = profile_from_samples(grid, np.asarray(values))
        elif vtype == "gbm":
            volume = GbmVolumeModel(
                v0=_require(vdoc, "v0", float, "volume"),
                mu=_require(vdoc, "mu", float, "volume"),
                sigma=_require(vdoc, "sigma", float, "volume"),
                rho=_require(vdoc, "rho", float, "volume"),
            )
            gbm_harmonic_mean(volume, grid)  # rejects a curve that over- or underflows
        else:
            raise ConfigError(f"unknown volume.type {vtype!r}")
    except ValueError as e:
        raise ConfigError(f"bad volume section: {e}") from None

    Phi = _require(doc, "phi", float, "config")
    if Phi <= 0.0:
        raise ConfigError(f"phi must be positive, got {Phi}")
    lambdas = _require_list(doc, "lambdas", float, "config")
    if not lambdas:
        raise ConfigError("lambdas must be a non-empty list")
    if any(x < 0 for x in lambdas):
        raise ConfigError("lambdas must be nonnegative")
    rhos = _require_list(doc, "rhos", float, "config", default=[])
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

    mc = _require(doc, "mc", dict, "config", default={})
    n_paths = _require(mc, "n_paths", int, "mc", default=20_000)
    if n_paths < 2:
        raise ConfigError("mc.n_paths must be at least 2")
    antithetic = _require(mc, "antithetic", bool, "mc", default=False)
    if antithetic and n_paths % 2:
        raise ConfigError(f"mc.n_paths must be even with mc.antithetic, got {n_paths}")
    if antithetic and n_paths < 4:  # one antithetic pair has no standard error
        raise ConfigError("mc.n_paths must be at least 4 with mc.antithetic")
    seed = seed_override if seed_override is not None else _require(mc, "seed", int, "mc", default=0)
    if not 0 <= seed < 2**64:
        source = "--seed" if seed_override is not None else "mc.seed"
        raise ConfigError(f"{source} must lie in [0, 2^64), got {seed}")
    out_dir = doc.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError(f"out_dir must be a string, got {out_dir!r}")
    return RunConfig(
        volume=volume,
        market=market,
        grid=grid,
        Phi=Phi,
        lambdas=lambdas,
        rhos=rhos,
        n_paths=n_paths,
        seed=seed,
        antithetic=antithetic,
        dump_paths=_require(mc, "dump_paths", bool, "mc", default=False),
        out_dir=out_dir,
    )


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
    out = args.out or run.out_dir or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
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
    lambdas = [x for x in run.lambdas if x > 0] or [0.5, 1.0, 2.0]
    report = run_validation(
        run.volume,
        run.market,
        run.grid,
        Phi=run.Phi,
        n_paths=run.n_paths,
        seed=run.seed,
        lambdas=lambdas,
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
    except SolverFailureError as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, ConsistencyError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
