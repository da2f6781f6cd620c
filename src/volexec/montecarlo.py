"""Monte Carlo validation: joint price/turnover simulation, cost-moment
estimation, and the optimality-ordering tournament.

Draws are keyed per block of paths (the volume layer's _BLOCK) and driver
stream with a counter-based generator, so any path is rebuilt by drawing its
block up to that row and slicing, and results do not depend on batch size.
Every estimate runs one pass over batches of _DEFAULT_BATCH paths: each batch
is drawn once, antithetic twins flip the signs of the normals already drawn,
and the cost rows of all schedules read the same batch (common random
numbers), so batch size bounds memory.  The price is arithmetic with
volatility sigma_tilde; under a lognormal turnover model its driver is
correlated with the turnover driver through rho.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

import numpy as np

from .cost import MarketParams, _decompose, realized_is_cost_paths
from .grids import TimeGrid, require_same_grid, trapz_weights
from .strategies import Strategy, expected_vwap_strategy
from .volume import GbmVolumeModel, VolumeProfile, _gbm_block, _normal_block

_DEFAULT_BATCH = 2048  # paths per batch: bounds memory; a multiple of _BLOCK
ANTICIPATING_LABEL = "anticipating-vwap"
EXPECTED_VWAP_LABEL = "expected-vwap"


@dataclass(frozen=True)
class SimulationConfig:
    """Inputs of a simulation run; rho overrides the turnover model's own
    correlation when set (it must stay unset for deterministic turnover)."""

    n_paths: int
    seed: int
    grid: TimeGrid
    market: MarketParams
    volume: Union[VolumeProfile, GbmVolumeModel]
    rho: Optional[float] = None

    def __post_init__(self):
        n = int(self.n_paths)
        if n < 2:
            raise ValueError(f"n_paths must be at least 2, got {self.n_paths}")
        object.__setattr__(self, "n_paths", n)
        object.__setattr__(self, "seed", int(self.seed))
        if isinstance(self.volume, VolumeProfile):
            require_same_grid(self.volume.grid, self.grid, "volume profile")
            if self.rho is not None:
                raise ValueError("rho only applies to a stochastic turnover model")
        elif not isinstance(self.volume, GbmVolumeModel):
            raise TypeError(f"unsupported volume input: {type(self.volume).__name__}")
        if self.rho is not None:
            r = float(self.rho)
            if not -1.0 <= r <= 1.0:
                raise ValueError(f"rho must lie in [-1, 1], got {self.rho}")
            object.__setattr__(self, "rho", r)

    @property
    def effective_rho(self) -> float:
        if self.rho is not None:
            return self.rho
        if isinstance(self.volume, GbmVolumeModel):
            return self.volume.rho
        return 0.0


@dataclass(frozen=True)
class MomentEstimate:
    mean: float
    variance: float
    std_error_mean: float
    std_error_variance: float
    n_paths: int

    def as_dict(self) -> dict:
        return {
            "mean": self.mean,
            "variance": self.variance,
            "std_error_mean": self.std_error_mean,
            "std_error_variance": self.std_error_variance,
            "n_paths": self.n_paths,
        }


def _joint_block(cfg: SimulationConfig, first: int, last: int, mirror: bool = False):
    """Price and turnover paths for path indices [first, last), drawn once.

    Returns a list of (price, vol) batches: the drawn paths and, with
    mirror=True, their antithetic twins, built from the same normals with
    flipped signs.  Turnover draws come from driver stream 0 and
    price-specific noise from stream 1, combined as
    rho * dB + sqrt(1 - rho^2) * dW, so the turnover paths are bit-identical
    with and without a correlated price leg.
    """
    grid, market = cfg.grid, cfg.market
    n = grid.n_steps
    z = _normal_block(cfg.seed, first, last, stream=0, n=n)
    stochastic = isinstance(cfg.volume, GbmVolumeModel)
    if stochastic:
        zw = math.sqrt(grid.tau) * _normal_block(cfg.seed, first, last, stream=1, n=n)
        rho = cfg.effective_rho
        mix = math.sqrt(max(0.0, 1.0 - rho**2))
    draws = [(z, zw if stochastic else None)]
    if mirror:
        draws.append((-z, -zw if stochastic else None))
    out = []
    for zs, zws in draws:
        if stochastic:
            vol, db = _gbm_block(cfg.volume, grid, zs)
            dprice = rho * db + mix * zws
        else:
            vol = np.broadcast_to(cfg.volume.v, (last - first, n + 1))
            dprice = math.sqrt(grid.tau) * zs
        price = np.empty((last - first, n + 1))
        price[:, 0] = market.s0
        price[:, 1:] = market.s0 + market.sigma_tilde * np.cumsum(dprice, axis=1)
        out.append((price, vol))
    return out


def simulate_joint_paths(cfg: SimulationConfig):
    """All (price, turnover) paths of the configuration, shape (n_paths, n+1).

    For deterministic turnover the turnover rows are a broadcast (read-only)
    view of the profile.
    """
    return _joint_block(cfg, 0, cfg.n_paths)[0]


def _batches(n: int, size: int):
    for first in range(0, n, size):
        yield first, min(first + size, n)


def _cost_rows(
    cfg: SimulationConfig,
    statics: Sequence[Strategy],
    anticipating_phi: Optional[float] = None,
    antithetic: bool = False,
    batch_size: int = _DEFAULT_BATCH,
) -> np.ndarray:
    """Realized cost of every static schedule on every path, one pass.

    Each batch of paths is drawn once and every row reads it.  With
    `anticipating_phi` set, row 0 is the anticipating turnover-proportional
    schedule for that order size (rebuilt per path) and the static schedules
    follow.  With antithetic=True (n_paths must be even) the first n_paths/2
    columns are the drawn paths and column n_paths/2 + i is the mirror of
    column i.  Returns an array of shape (rows, n_paths).
    """
    for s in statics:
        require_same_grid(s.grid, cfg.grid, "strategy")
    n = cfg.n_paths
    if antithetic and n % 2:
        raise ValueError(f"antithetic pairing needs an even n_paths, got {n}")
    lead = int(anticipating_phi is not None)
    costs = np.empty((lead + len(statics), n))
    drawn = n // 2 if antithetic else n
    offsets = (0, drawn) if antithetic else (0,)
    step = max(1, batch_size // len(offsets))
    tau = cfg.grid.tau
    w = trapz_weights(cfg.grid.n_steps, tau)
    for first, last in _batches(drawn, step):
        batches = _joint_block(cfg, first, last, mirror=antithetic)
        for offset, (price, vol) in zip(offsets, batches):
            cols = slice(offset + first, offset + last)
            if lead:
                zeta_paths = vol * (anticipating_phi / (vol @ w))[:, None]
                costs[0, cols] = _decompose(
                    price, vol, zeta_paths, anticipating_phi, tau, cfg.market
                )[0]
            for k, s in enumerate(statics, start=lead):
                costs[k, cols] = realized_is_cost_paths(price, vol, s, cfg.market)
    return costs


def moment_estimate(costs: np.ndarray, antithetic: bool = False) -> MomentEstimate:
    """Sample mean/variance of one cost row, as laid out by `_cost_rows`.

    With antithetic=True the mean's standard error comes from the pair means,
    while the variance estimate pools all paths (its reported standard error
    keeps the independent-sample formula, a mild approximation).
    """
    n = costs.size
    if antithetic:
        half = n // 2
        pair_means = 0.5 * (costs[:half] + costs[half:])
        se_mean = float(pair_means.std(ddof=1) / math.sqrt(half))
        mean = float(pair_means.mean())
    else:
        mean = float(costs.mean())
        se_mean = float(costs.std(ddof=1) / math.sqrt(n))
    variance = float(costs.var(ddof=1))
    m4 = float(np.mean((costs - costs.mean()) ** 4))
    se_var = math.sqrt(max(m4 - variance**2, 0.0) / n)
    return MomentEstimate(
        mean=mean,
        variance=variance,
        std_error_mean=se_mean,
        std_error_variance=se_var,
        n_paths=n,
    )


def estimate_cost_moments(
    s: Strategy,
    cfg: SimulationConfig,
    antithetic: bool = False,
    batch_size: int = _DEFAULT_BATCH,
    return_costs: bool = False,
):
    """Sample mean/variance of the realized cost of `s` under the configuration.

    With antithetic=True (n_paths must be even) each drawn path is paired
    with its sign-flipped twin; see `moment_estimate` for the standard
    errors.  `batch_size` only bounds memory: the draws, and so the result,
    do not depend on it.
    """
    costs = _cost_rows(cfg, [s], antithetic=antithetic, batch_size=batch_size)[0]
    est = moment_estimate(costs, antithetic)
    return (est, costs) if return_costs else est


def validate_theorem_orderings(
    cfg: SimulationConfig, candidates: Dict[str, Strategy], return_costs: bool = False
):
    """Paired-sample tournament checking the model's optimality orderings.

    Two families of inequalities are tested on common paths:

      * the anticipating turnover-proportional schedule (rebuilt per path, so
        it tracks the realized turnover) beats every submitted candidate;
      * under stochastic turnover, the static schedule proportional to the
        harmonic-mean turnover curve beats every submitted static candidate.

    An ordering is confirmed when mean(better - worse) <= 3 standard errors
    of the paired difference.  Returns a plain-dict report and, with
    return_costs=True, also the cost row of every schedule by name.
    """
    if not candidates:
        raise ValueError("need at least one candidate strategy")
    for label in (ANTICIPATING_LABEL, EXPECTED_VWAP_LABEL):
        if label in candidates:
            raise ValueError(f"candidate name {label!r} is reserved")
    names = sorted(candidates)
    Phi = None
    for name in names:
        s = candidates[name]
        require_same_grid(s.grid, cfg.grid, f"candidate {name!r}")
        if Phi is None:
            Phi = s.Phi
        elif abs(s.Phi - Phi) > 1e-12 * max(1.0, abs(Phi)):
            raise ValueError("all candidates must share the same parent order size")

    stochastic = isinstance(cfg.volume, GbmVolumeModel)
    rows = [ANTICIPATING_LABEL] + ([EXPECTED_VWAP_LABEL] if stochastic else []) + names
    static = {}
    if stochastic:
        static[EXPECTED_VWAP_LABEL] = expected_vwap_strategy(cfg.volume, cfg.grid, Phi)
    static.update(candidates)

    n = cfg.n_paths
    matrix = _cost_rows(cfg, [static[name] for name in rows[1:]], anticipating_phi=Phi)
    costs = dict(zip(rows, matrix))
    by_name = {
        name: {
            "mean": float(costs[name].mean()),
            "se_mean": float(costs[name].std(ddof=1) / math.sqrt(n)),
        }
        for name in rows
    }
    pairs = [(ANTICIPATING_LABEL, other) for other in rows[1:]]
    if stochastic:
        pairs += [(EXPECTED_VWAP_LABEL, name) for name in names]
    # exact ties (e.g. a candidate that IS the anticipating schedule) leave a
    # systematic residue from accumulated rounding, whose scale is set by the
    # initial mark s0 * Phi rather than by the vanishing standard error
    tie_slack = 1e-12 * max(1.0, cfg.market.s0 * Phi)
    orderings = []
    for better, worse in pairs:
        diff = costs[better] - costs[worse]
        mean_diff = float(diff.mean())
        se_diff = float(diff.std(ddof=1) / math.sqrt(n))
        orderings.append(
            {
                "better": better,
                "worse": worse,
                "mean_diff": mean_diff,
                "se_diff": se_diff,
                "confirmed": bool(mean_diff <= 3.0 * se_diff + tie_slack),
            }
        )
    report = {
        "n_paths": n,
        "seed": cfg.seed,
        "phi": Phi,
        "strategies": by_name,
        "orderings": orderings,
        "all_confirmed": all(o["confirmed"] for o in orderings),
    }
    return (report, costs) if return_costs else report
