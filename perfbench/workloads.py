"""Seeded workload generator: strict-JSON `--config` documents for the
benchmark's three workloads.

Every op is one CLI command.  `op_config(workload, seed, i)` returns the
command and the configuration document of the i-th op; the same (workload,
seed, i) always gives the same document, and the program never sees the
workload seed, only the documents (`mc.seed` included).

Run as a script to write the first ops of each workload (one solve-sweep
cycle's worth) to a directory:

    python3 perfbench/workloads.py --seed 20240 --out perfbench/results/configs
"""
from __future__ import annotations

import argparse
import inspect
import json
import math
from pathlib import Path

import numpy as np

DEFAULT_SEED = 20240

# Full sizes; `smoke=True` swaps in SMOKE_SIZES so the self-test runs in seconds.
SIZES = {
    "sim_grid_n": 200,
    "sim_paths": 20_000,
    "val_grid_n": 500,
    "val_paths": 20_000,
    "det_grid_n": (1000, 2000, 4000),
    "gbm_grid_n": (200, 500),
    "corner_grid_n": 200,
}
SMOKE_SIZES = {
    "sim_grid_n": 20,
    "sim_paths": 200,
    "val_grid_n": 40,
    "val_paths": 200,
    "det_grid_n": (50, 100, 200),
    "gbm_grid_n": (20, 40),
    "corner_grid_n": 20,
}

# SQP corners that stop at max-iterations today, as (sigma, rho, lambda) on
# the fig3 market they were measured on.  Every
# solve-sweep cycle runs all three.
HARD_CORNERS = ((1.0, -0.9, 1000.0), (2.0, 0.9, 100.0), (2.0, 0.9, 1000.0))
CORNER_MARKET = {"kappa": 0.1, "kappa_tilde": 0.02, "sigma_tilde": 0.2, "s0": 100.0}
CORNER_MU = -0.02

# One solve-sweep cycle: deterministic (QP) and gbm (SQP) ops alternate.
# ("det", grid index, profile) or ("gbm", "corner", k) or ("gbm", "random", grid index).
# Four n=2000 QPs put the median op inside one group of like ops.
SOLVE_CYCLE = (
    ("det", 0, "arcsine"),
    ("gbm", "corner", 0),
    ("det", 1, "samples"),
    ("gbm", "random", 0),
    ("det", 1, "arcsine"),
    ("gbm", "corner", 1),
    ("det", 2, "alternate"),
    ("gbm", "random", 1),
    ("det", 1, "samples"),
    ("gbm", "corner", 2),
    ("det", 0, "samples"),
    ("gbm", "random", 0),
    ("det", 1, "arcsine"),
    ("gbm", "random", 0),
)
# Runs end on a whole cycle, so every run holds the same mix of ops.
CYCLE = {"solve-sweep": len(SOLVE_CYCLE)}
# Upper end of the random sigma draws at each gbm grid size.  At n=500 a draw
# above 1 can run to max-iterations for 40 s (sigma=1.90, rho=0.54,
# lambda=466), longer than a whole run; the full range runs at n=200, next to
# the hard corners.
RANDOM_SIGMA_MAX = (2.0, 1.0)
_RANDOM_SLOTS = [k for k, op in enumerate(SOLVE_CYCLE) if op[:2] == ("gbm", "random")]

_STREAMS = {"simulate-gbm": 1, "validate-det": 2, "solve-sweep": 3}
_LHS_BLOCK = 4


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *key])


def _lhs(seed: int, stream: int, j: int, dims: int) -> np.ndarray:
    """Point j of a Latin-hypercube sequence in [0, 1)^dims.

    Each block of _LHS_BLOCK consecutive points puts exactly one point in
    every stratum of every axis, so a short run still spans the whole box.
    """
    block, pos = divmod(j, _LHS_BLOCK)
    perm_rng = _rng(seed, stream, 1, block)
    strata = [perm_rng.permutation(_LHS_BLOCK)[pos] for _ in range(dims)]
    u = _rng(seed, stream, 2, block, pos).random(dims)
    return (np.asarray(strata) + u) / _LHS_BLOCK


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def u_shaped_samples(rng: np.random.Generator, grid_n: int) -> list:
    """Intraday U-shaped turnover: heavy open and close, a trough in between,
    with a little multiplicative noise per node.  Strictly positive."""
    t = np.linspace(0.0, 1.0, grid_n + 1)
    trough = rng.uniform(0.35, 0.65)
    floor = rng.uniform(0.2, 0.5)
    power = rng.uniform(1.5, 3.0)
    open_weight = rng.uniform(0.7, 1.3)
    side = np.where(t < trough, open_weight * ((trough - t) / trough), (t - trough) / (1.0 - trough))
    v = floor + np.abs(side) ** power
    v *= np.exp(0.05 * rng.standard_normal(grid_n + 1))
    return [float(x) for x in v / v.mean()]


def _market(rng: np.random.Generator) -> dict:
    return {
        "kappa": 0.1,
        "kappa_tilde": float(rng.uniform(0.01, 0.04)),
        "sigma_tilde": float(rng.uniform(0.1, 0.3)),
        "s0": 100.0,
    }


def _doc(volume: dict, market: dict, grid_n: int, lambdas: list, **extra) -> dict:
    doc = {
        "schema": 1,
        "volume": volume,
        "market": market,
        "phi": 1.0,
        "horizon": 1.0,
        "grid_n": int(grid_n),
        "lambdas": [float(x) for x in lambdas],
    }
    doc.update(extra)
    return doc


def _simulate_gbm(seed: int, i: int, sizes: dict):
    """`simulate` on gbm turnover, one lambda and one rho, n=200, 20k paths.

    Bound by random-number generation: one Philox generator per path.  Each
    path is drawn once and the SQP at these easy corners is about 1% of an op,
    so path reuse and solver changes should leave it unchanged.  Every second
    op is antithetic, which uses the same layer through negated draws.
    """
    rng = _rng(seed, _STREAMS["simulate-gbm"], i)
    sigma, mu, rho = rng.uniform(0.1, 0.5), rng.uniform(-0.1, 0.1), rng.uniform(-0.9, 0.9)
    lam = rng.uniform(0.5, 10.0)
    volume = {"type": "gbm", "v0": 1.0, "mu": float(mu), "sigma": float(sigma), "rho": float(rho)}
    mc = {"n_paths": sizes["sim_paths"], "seed": int(rng.integers(2**31)),
          "antithetic": i % 2 == 1, "dump_paths": False}
    return "simulate", _doc(volume, _market(rng), sizes["sim_grid_n"], [lam],
                            rhos=[float(rho)], mc=mc)


def _validate_det(seed: int, i: int, sizes: dict):
    """`validate` on deterministic turnover (arcsine or a seeded U-shaped
    `samples` profile), n=500, 20k paths.

    Bound by the cost kernel and memory.  The same paths are drawn three
    times per op (two moment estimates and the tournament), which is what
    path reuse should move.  The fixed structural solver checks take a small
    share.
    """
    rng = _rng(seed, _STREAMS["validate-det"], i)
    n = sizes["val_grid_n"]
    if i % 2 == 0:
        volume = {"type": "arcsine"}
    else:
        volume = {"type": "samples", "values": u_shaped_samples(rng, n)}
    lambdas = sorted(_log_uniform(u, 0.5, 10.0) for u in rng.random(2))
    mc = {"n_paths": sizes["val_paths"], "seed": int(rng.integers(2**31)),
          "antithetic": False, "dump_paths": False}
    return "validate", _doc(volume, _market(rng), n, lambdas, mc=mc)


def _solve_sweep(seed: int, i: int, sizes: dict):
    """`solve` only, no Monte Carlo: the optimizer does the work.

    Dense-KKT QP ops at n=1000..4000 alternate with gbm SQP ops, the hard
    corners among them, in the fixed cycle SOLVE_CYCLE.
    """
    cycle, pos = divmod(i, len(SOLVE_CYCLE))
    kind, a, b = SOLVE_CYCLE[pos]
    rng = _rng(seed, _STREAMS["solve-sweep"], i)
    market = _market(rng)
    if kind == "det":
        n = sizes["det_grid_n"][a]
        profile = b if b != "alternate" else ("arcsine", "samples")[cycle % 2]
        if profile == "arcsine":
            volume = {"type": "arcsine"}
        else:
            volume = {"type": "samples", "values": u_shaped_samples(rng, n)}
        return "solve", _doc(volume, market, n, [_log_uniform(rng.random(), 0.5, 100.0)])
    mu = float(rng.uniform(-0.1, 0.1))
    if a == "corner":
        sigma, rho, lam = HARD_CORNERS[b]
        market, mu = dict(CORNER_MARKET), CORNER_MU
        n = sizes["corner_grid_n"]
    else:
        # random draws at one grid size form their own Latin-hypercube sequence
        slots = [p for p in _RANDOM_SLOTS if SOLVE_CYCLE[p][2] == b]
        j = cycle * len(slots) + slots.index(pos)
        u = _lhs(seed, _STREAMS["solve-sweep"] * 10 + b, j, 3)
        sigma = 0.2 + (RANDOM_SIGMA_MAX[b] - 0.2) * u[0]
        rho = -0.9 + 1.8 * u[1]
        lam = _log_uniform(u[2], 1.0, 1000.0)
        n = sizes["gbm_grid_n"][b]
    volume = {"type": "gbm", "v0": 1.0, "mu": mu, "sigma": float(sigma), "rho": float(rho)}
    return "solve", _doc(volume, market, n, [lam], rhos=[float(rho)])


# name -> op builder; each builder's docstring says why the workload exists
WORKLOADS = {
    "simulate-gbm": _simulate_gbm,
    "validate-det": _validate_det,
    "solve-sweep": _solve_sweep,
}


def op_config(workload: str, seed: int, i: int, smoke: bool = False):
    """(command, config document) of op i of the workload."""
    return WORKLOADS[workload](int(seed), int(i), SMOKE_SIZES if smoke else SIZES)


def dumps(doc: dict) -> str:
    """Strict JSON: a NaN or infinity in a generated document is a bug here."""
    return json.dumps(doc, allow_nan=False)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", required=True, help="directory to write configs into")
    args = p.parse_args(argv)
    out = Path(args.out)
    for name, builder in WORKLOADS.items():
        d = out / name
        d.mkdir(parents=True, exist_ok=True)
        (d / "WHY.txt").write_text(inspect.getdoc(builder) + "\n")
        for i in range(len(SOLVE_CYCLE)):
            command, doc = op_config(name, args.seed, i)
            (d / f"op{i:04d}-{command}.json").write_text(dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
