"""Monte Carlo validation: joint price/turnover simulation, cost-moment
estimation, and the optimality-ordering tournament.

Draws are keyed per block of paths (the volume layer's _BLOCK) and driver
stream with a counter-based generator, so any path is rebuilt by drawing its
block up to that row and slicing, and results depend neither on batch size
nor on which thread draws a path.  Every estimate runs one pass over the
paths, split into _BLOCK-aligned tasks of at most _TASK drawn paths.  The
calling thread and one helper thread per further CPU the process may run on
(os.sched_getaffinity) take tasks from one shared list; with one CPU no
thread starts.  numpy's normal fills, ufuncs, cumsum and einsum release the
interpreter lock, so the threads draw and price in parallel.  Each task is
drawn once into its thread's workspace, which the calling thread allocates
up front and `_joint_block` fills in place, so a worker allocates no
path-sized memory for its draws and the workspaces together hold at most
_DEFAULT_BATCH paths on any CPU count.  Antithetic twins flip the signs of
the normals already drawn, the cost rows of all schedules read the same
task (common random numbers), and each task writes its own columns of the
result, so every row keeps its bits on any CPU count.  A static schedule's
cost is affine in the price path and in 1/v, so every static row is a pair
of weight vectors (decomposed and direct form) and one einsum contraction
per task prices them all; einsum, unlike a BLAS matmul, gives each entry
bits that do not depend on the task's size, offset or schedule count, so
results stay batch-invariant.  Under deterministic turnover the
anticipating schedule is static too and joins that contraction; under
stochastic turnover its per-path schedules get their weight vectors from
the same kernel (cost._cost_weights) and are priced by row-wise einsum.  The price is
arithmetic with volatility sigma_tilde; under a lognormal turnover model its
driver is correlated with the turnover driver through the model's rho.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

import numpy as np

from .cost import MarketParams, _path_costs, _StaticCosts
from .grids import TimeGrid, require_same_grid, trapz_weights
from .strategies import Strategy, expected_vwap_strategy, vwap_strategy
from .volume import _BLOCK, GbmVolumeModel, VolumeProfile, _gbm_block, _normal_block

_DEFAULT_BATCH = 2048  # paths held at once by a pass: bounds memory; a multiple of _BLOCK
_TASK = 2 * _BLOCK  # most drawn paths per task of a pass
ANTICIPATING_LABEL = "anticipating-vwap"
EXPECTED_VWAP_LABEL = "expected-vwap"


@dataclass(frozen=True)
class SimulationConfig:
    """Inputs of a simulation run; a stochastic turnover model carries the
    price-turnover correlation rho."""

    n_paths: int
    seed: int
    grid: TimeGrid
    market: MarketParams
    volume: Union[VolumeProfile, GbmVolumeModel]

    def __post_init__(self):
        n = int(self.n_paths)
        if n < 2:
            raise ValueError(f"n_paths must be at least 2, got {self.n_paths}")
        object.__setattr__(self, "n_paths", n)
        object.__setattr__(self, "seed", int(self.seed))
        if isinstance(self.volume, VolumeProfile):
            require_same_grid(self.volume.grid, self.grid, "volume profile")
        elif not isinstance(self.volume, GbmVolumeModel):
            raise TypeError(f"unsupported volume input: {type(self.volume).__name__}")


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


class _Workspace:
    """Buffers that `_joint_block` fills in place for up to `rows` drawn
    paths: the standard normals of driver streams 0 and 1 (which become the
    scaled increments), and the price and turnover paths of each draw, the
    antithetic mirror being the second.  Deterministic turnover needs no
    stream 1 and no turnover buffer: its rows broadcast the profile.  With
    `inverse`, stochastic turnover also gets the buffer the static cost
    kernel writes one draw's reciprocal turnover to."""

    def __init__(
        self, cfg: SimulationConfig, rows: int, mirror: bool = False, inverse: bool = False
    ):
        n = cfg.grid.n_steps
        stochastic = isinstance(cfg.volume, GbmVolumeModel)
        draws = 2 if mirror else 1
        self.z = np.empty((rows, n))
        self.zw = np.empty((rows, n)) if stochastic else None
        self.price = np.empty((draws, rows, n + 1))
        self.vol = np.empty((draws, rows, n + 1)) if stochastic else None
        self.inverse = np.empty((rows, n + 1)) if stochastic and inverse else None


def _joint_block(
    cfg: SimulationConfig,
    first: int,
    last: int,
    mirror: bool = False,
    out: Optional[_Workspace] = None,
):
    """Price and turnover paths for path indices [first, last), drawn once.

    Returns a list of (price, vol) batches: the drawn paths and, with
    mirror=True, their antithetic twins, built from the same normals with
    flipped signs.  Turnover draws come from driver stream 0 and
    price-specific noise from stream 1, combined as
    rho * dB + sqrt(1 - rho^2) * dW, so the turnover paths are bit-identical
    with and without a correlated price leg.  The batches are views of `out`
    (a workspace for at least last - first paths, allocated when None), which
    is filled in place: no other path-sized memory is allocated.
    """
    grid, market = cfg.grid, cfg.market
    n, m = grid.n_steps, last - first
    ws = _Workspace(cfg, m, mirror) if out is None else out
    scale = math.sqrt(grid.tau)
    db = _normal_block(cfg.seed, first, last, stream=0, n=n, out=ws.z[:m])
    db *= scale
    stochastic = isinstance(cfg.volume, GbmVolumeModel)
    if stochastic:
        rho = cfg.volume.rho
        # the price-specific increments sqrt(1 - rho^2) dW
        dw = _normal_block(cfg.seed, first, last, stream=1, n=n, out=ws.zw[:m])
        dw *= scale
        dw *= math.sqrt(max(0.0, 1.0 - rho**2))
    batches = []
    for d in range(2 if mirror else 1):
        if d:
            np.negative(db, out=db)
            if stochastic:
                np.negative(dw, out=dw)
        price = ws.price[d, :m]
        price[:, 0] = market.s0
        dprice = price[:, 1:]
        if stochastic:
            vol = _gbm_block(cfg.volume, grid, db, out=ws.vol[d, :m])
            np.multiply(db, rho, out=dprice)
            dprice += dw
        else:
            vol = np.broadcast_to(cfg.volume.v, (m, n + 1))
            dprice = db
        # s0 + sigma_tilde * cumsum(dprice), built in place
        np.cumsum(dprice, axis=1, out=price[:, 1:])
        price[:, 1:] *= market.sigma_tilde
        price[:, 1:] += market.s0
        batches.append((price, vol))
    return batches


def _worker_count() -> int:
    """Threads that price a pass: one per CPU this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _drain(tasks: Sequence, work, spaces: Sequence) -> None:
    """Call work(task, space) for every task.  The calling thread, with
    spaces[0], and one helper thread per further space take tasks from one
    shared list; with a single space no thread starts.  After an exception
    no thread takes another task, and the first exception is re-raised."""
    pending = iter(tasks)
    lock = threading.Lock()
    errors = []

    def run(space):
        try:
            while not errors:
                with lock:
                    task = next(pending, None)
                if task is None:
                    return
                work(task, space)
        except BaseException as e:  # re-raised on the calling thread
            errors.append(e)

    helpers = [threading.Thread(target=run, args=(space,)) for space in spaces[1:]]
    for t in helpers:
        t.start()
    run(spaces[0])
    for t in helpers:
        t.join()
    if errors:
        raise errors[0]


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

    The paths are split into tasks of at most _TASK drawn paths, aligned to
    the keyed blocks when the batch allows it.  The calling thread and one
    helper thread per further CPU (`_worker_count`), but no more threads
    than the batch holds blocks, take them from one list.  Each task draws
    its paths once into its thread's workspace, allocated up front, every
    row reads them, and the task writes its own columns of the result, so
    every row keeps its bits on any CPU count.
    All workspaces together hold at most `batch_size` paths (mirrors
    included), so batch size bounds memory and never changes a result.

    The static rows come from weight vectors (see cost._StaticCosts): one
    row-stable einsum contraction per task prices all of them, direct and
    decomposed form, and checks the two agree on every path, so no
    path-sized temporary is made per schedule.  With `anticipating_phi` set,
    row 0 is the anticipating turnover-proportional schedule for that order
    size and the static schedules follow.  Under deterministic turnover that
    schedule is itself static, the volume-proportional one, and joins the
    contraction; under stochastic turnover it is rebuilt per path as
    Phi v / (w . v) and priced from its per-path weight vectors
    (cost._path_costs), which each task allocates.
    With antithetic=True (n_paths must be even) the first n_paths/2 columns
    are the drawn paths and column n_paths/2 + i is the mirror of column i.
    Returns an array of shape (rows, n_paths).
    """
    for s in statics:
        require_same_grid(s.grid, cfg.grid, "strategy")
    n = cfg.n_paths
    if antithetic and n % 2:
        raise ValueError(f"antithetic pairing needs an even n_paths, got {n}")
    stochastic = isinstance(cfg.volume, GbmVolumeModel)
    per_path = int(anticipating_phi is not None and stochastic)
    if anticipating_phi is not None and not stochastic:
        statics = [vwap_strategy(cfg.volume, anticipating_phi), *statics]
    if statics:
        kernel = _StaticCosts(statics, cfg.market, v=None if stochastic else cfg.volume.v)
    costs = np.empty((per_path + len(statics), n))
    drawn = n // 2 if antithetic else n
    offsets = (0, drawn) if antithetic else (0,)
    held = max(1, batch_size // len(offsets))  # drawn paths held at once
    cpus = _worker_count()
    if held >= _BLOCK:
        cpus = min(cpus, held // _BLOCK)  # so that every task holds whole blocks
    size = max(1, held // cpus)
    if size >= _BLOCK:
        size = min(_TASK, size - size % _BLOCK)
    size = min(size, drawn)
    tasks = list(_batches(drawn, size))
    tau = cfg.grid.tau
    w = trapz_weights(cfg.grid.n_steps, tau)
    spaces = [
        _Workspace(cfg, size, antithetic, inverse=bool(statics))
        for _ in range(min(cpus, len(tasks)))
    ]

    def price_task(task, ws):
        first, last = task
        batches = _joint_block(cfg, first, last, mirror=antithetic, out=ws)
        for offset, (price, vol) in zip(offsets, batches):
            cols = slice(offset + first, offset + last)
            if statics:
                costs[per_path:, cols] = kernel(price, vol, out=ws.inverse)
            if per_path:
                mass = np.einsum("ij,j->i", vol, w)  # row-stable, unlike vol @ w
                zeta_paths = vol * (anticipating_phi / mass)[:, None]
                costs[0, cols] = _path_costs(
                    price, vol, zeta_paths, anticipating_phi, tau, cfg.market
                )[0]

    _drain(tasks, price_task, spaces)
    return costs


def moment_estimate(costs: np.ndarray, antithetic: bool = False) -> MomentEstimate:
    """Sample mean/variance of one cost row, as laid out by `_cost_rows`.

    With antithetic=True the variance estimate still pools all paths, but
    both standard errors come from the independent pairs: the mean's from the
    pair means, the variance's from the pair means of the squared deviations,
    since a path and its mirror carry nearly the same squared deviation.
    """
    n = costs.size
    variance = float(costs.var(ddof=1))
    if antithetic:
        half = n // 2
        pair_means = 0.5 * (costs[:half] + costs[half:])
        se_mean = float(pair_means.std(ddof=1) / math.sqrt(half))
        mean = float(pair_means.mean())
        sq = (costs - costs.mean()) ** 2
        se_var = float((0.5 * (sq[:half] + sq[half:])).std(ddof=1) / math.sqrt(half))
    else:
        mean = float(costs.mean())
        se_mean = float(costs.std(ddof=1) / math.sqrt(n))
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
