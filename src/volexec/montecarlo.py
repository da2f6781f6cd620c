"""Monte Carlo validation: joint price/turnover simulation, cost-moment
estimation, and the optimality-ordering tournament.

Draws are keyed per block of paths (the volume layer's _BLOCK) and driver
stream with one SFC64 generator per key, and every draw starts on a block,
so results depend neither on the task split nor on which thread draws a
path.  Every estimate runs one pass over the paths, one task per keyed
block of drawn paths.  One helper thread per further CPU the process may
run on (os.sched_getaffinity) takes tasks from one shared list at once;
the calling thread first runs the work it was given beside the pass
(`validate`'s checks that do not read the rows), then takes tasks too.
With one CPU no thread starts, and that work runs before the pass.
numpy's normal fills, ufuncs and einsum release the interpreter lock, so
the threads draw and price in parallel, each into its workspace allocated
up front.  All rows read the same draws (common random
numbers), each static row at its own rho through the drivers' scales, one
listed twice at one rho priced once; each task writes its own columns of
the result, so every row keeps its bits on any CPU count.
The pass prices the draws, not the paths: a price path is s0 plus the
running sum of fixed multiples of the normals (its driver is correlated
with a lognormal turnover's through the model's rho), so every static row
is a constant plus the normals contracted with the schedule's weight
vectors moved onto the increments, and one einsum per driver stream prices
all of them; an antithetic twin's price terms are the negated ones.  A
lognormal turnover path is built once per drawn path, as the v0/v its cost
reads; a twin's path is its draw's reflected through the drift, so its v0/v
is one division (volume._mirror_ramp); nothing else is mirrored.  Each
schedule's direct form is checked against its decomposition once, on the
weights, before any draw (cost._StaticCosts).
einsum, unlike a BLAS matmul, gives each entry bits that do not depend on
the task's size, offset or schedule count.  Under deterministic turnover
the anticipating schedule is static too; under stochastic turnover its row
is the paper's pathwise identity in closed form, row-wise dots of the same
draws (cost._anticipating_costs), priced on drawn paths only, which
`validate` checks; only that row and `_joint_block`, which builds price
paths for `validate`'s path checks, form the turnover v itself.
"""
from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Sequence, Union

import numpy as np

from .cost import MarketParams, _anticipating_costs, _StaticCosts
from .grids import TimeGrid, require_same_grid
from .strategies import Strategy, expected_vwap_strategy, vwap_strategy
from .volume import (
    _BLOCK,
    GbmVolumeModel,
    VolumeProfile,
    _inverse_gbm_block,
    _mirror_ramp,
    _normal_block,
)

_MAX_THREADS = 8  # threads of one pass: their workspaces hold at most 8 x _BLOCK = 2048 paths
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
        return asdict(self)


class _Workspace:
    """Buffers one task of the pass fills in place, for one keyed block of
    drawn paths: the normals of driver stream 0 and, under stochastic
    turnover, of stream 1 and each path's v0/v, which its mirror's v0/v or
    else the per-path anticipating row then overwrites."""

    def __init__(self, cfg: SimulationConfig, rows: int):
        n = cfg.grid.n_steps
        stochastic = isinstance(cfg.volume, GbmVolumeModel)
        self.z = np.empty((rows, n))
        self.zw = np.empty((rows, n)) if stochastic else None
        self.inverse = np.empty((rows, n + 1)) if stochastic else None


def _joint_block(cfg: SimulationConfig, first: int, last: int):
    """Price and turnover paths for path indices [first, last), from the
    draws the pass prices: the paths `validate`'s path checks read.

    Turnover draws come from driver stream 0 and price-specific noise from
    stream 1, combined as rho * z_0 + sqrt(1 - rho^2) * z_1, so the turnover
    paths are bit-identical with and without a correlated price leg; a
    turnover path is v0 over the v0/v the pass prices, from the same kernel.
    The price increments are summed in place in the paths' own columns.
    """
    grid, market = cfg.grid, cfg.market
    n = grid.n_steps
    z = _normal_block(cfg.seed, first, last, stream=0, n=n)
    if isinstance(cfg.volume, GbmVolumeModel):
        rho = cfg.volume.rho
        vol = _inverse_gbm_block(cfg.volume, grid, z)
        np.divide(cfg.volume.v0, vol, out=vol)
        zw = _normal_block(cfg.seed, first, last, stream=1, n=n)
        zw *= math.sqrt(max(0.0, 1.0 - rho**2))  # the price-specific draws
        z *= rho
        z += zw
    else:
        vol = np.broadcast_to(cfg.volume.v, (last - first, n + 1))
    z *= math.sqrt(grid.tau)  # the price driver's increments
    price = np.empty((last - first, n + 1))
    price[:, 0] = market.s0
    np.cumsum(z, axis=1, out=price[:, 1:])
    price[:, 1:] *= market.sigma_tilde
    price[:, 1:] += market.s0
    return price, vol


def _worker_count() -> int:
    """Threads that price a pass: one per CPU this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


class _Outcome:
    """Zero-argument work to run beside a pass (see _drain).  A call keeps
    its value or exception and, in place of the warnings numpy would issue
    on this thread, their messages; get() issues those, then returns the
    value or re-raises the exception, so work never read leaves no trace."""

    def __init__(self, fn):
        self.fn, self.value, self.error, self.warned = fn, None, None, []

    def __call__(self):
        logged = {k: "log" if v == "warn" else v for k, v in np.geterr().items()}
        try:
            with np.errstate(**logged, call=self):
                self.value = self.fn()
        except BaseException as e:  # re-raised where the result is read
            self.error = e

    def write(self, message):  # numpy's log of a floating-point error
        self.warned.append(message.removeprefix("Warning: ").strip())

    def get(self):
        for message in self.warned:
            warnings.warn(message, RuntimeWarning, stacklevel=2)
        if self.error is not None:
            raise self.error
        return self.value


def _drain(tasks: Sequence, work, spaces: Sequence, alongside: Sequence = ()) -> None:
    """Call work(task, space) for every task.  One helper thread per space
    after the first takes tasks from one shared list at once; the calling
    thread first runs each of `alongside` (_Outcome instances) in order,
    then takes tasks with spaces[0].  With one space no thread starts.
    After an exception no thread takes another task, and once all have
    stopped the lowest failed task's exception is re-raised: every task
    before it was taken, so a serial run stops at the same task."""
    pending = iter(enumerate(tasks))
    lock = threading.Lock()
    errors = {}

    def run(space):
        while not errors:
            with lock:
                index, task = next(pending, (None, None))
            if index is None:
                return
            try:
                work(task, space)
            except BaseException as e:  # re-raised on the calling thread
                errors[index] = e

    helpers = [threading.Thread(target=run, args=(space,)) for space in spaces[1:]]
    for t in helpers:
        t.start()
    for call in alongside:
        call()
    run(spaces[0])
    for t in helpers:
        t.join()
    if errors:
        raise errors[min(errors)]


def _cost_rows(
    cfg: SimulationConfig,
    statics: Sequence[Strategy],
    anticipating_phi: Optional[float] = None,
    antithetic: bool = False,
    alongside: Sequence[_Outcome] = (),
    rhos: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Realized cost of every static schedule (at least one) on every path,
    one pass.

    Each task is one keyed block of _BLOCK drawn paths, and the tasks are
    drained (`_drain`) by one thread per CPU (`_worker_count`), but no more
    than _MAX_THREADS threads; the calling thread runs `alongside` first.
    A mirror reuses its draw's buffers, so all workspaces together hold at
    most _MAX_THREADS x _BLOCK paths on any CPU count, and the task split
    never changes a result.

    No price path is built: the price moves by sigma_tilde sqrt(tau) z under
    deterministic turnover, by sigma_tilde sqrt(tau) (rho z_0 + sqrt(1 - rho^2) z_1)
    under stochastic turnover, z_0 being the turnover driver's draws, from
    which one kernel builds each path's v0/v (volume._inverse_gbm_block).
    rho enters only those scales: each static schedule is priced at its
    entry of `rhos` (default, and for the anticipating row, the model's rho).
    cost._StaticCosts prices a static schedule listed twice at one rho once,
    its direct and decomposed weights checked against each other once.
    With `anticipating_phi` set, row 0 is the anticipating
    turnover-proportional schedule for that order size and the static
    schedules follow.  Under deterministic turnover that schedule is itself
    static, the volume-proportional one, and joins the contraction; under
    stochastic turnover it is Phi v / (w . v) on each path, priced from the
    same draws in closed form (cost._anticipating_costs), unchecked, on the
    drawn paths only: it cannot be antithetic (ValueError).
    With antithetic=True (n_paths must be even) the first n_paths/2 columns
    are the drawn paths and column n_paths/2 + i is the mirror of column i:
    its price terms are its draw's, negated, and its v0/v the drift ramp
    over its draw's (volume._mirror_ramp), so it runs no cumsum, no exp.
    Returns an array of shape (rows, n_paths).
    """
    if not statics:
        raise ValueError("need at least one static schedule")
    for s in statics:
        require_same_grid(s.grid, cfg.grid, "strategy")
    n = cfg.n_paths
    if antithetic and n % 2:
        raise ValueError(f"antithetic pairing needs an even n_paths, got {n}")
    grid, market = cfg.grid, cfg.market
    stochastic = isinstance(cfg.volume, GbmVolumeModel)
    per_path = int(anticipating_phi is not None and stochastic)
    if per_path and antithetic:
        raise ValueError("the per-path anticipating row is priced on drawn paths only")
    rho = cfg.volume.rho if stochastic else None
    if anticipating_phi is not None and not stochastic:
        statics = [vwap_strategy(cfg.volume, anticipating_phi), *statics]
    rhos = [rho] * len(statics) if rhos is None or not stochastic else rhos
    base = market.sigma_tilde * math.sqrt(grid.tau)

    def scales(r):  # of the price drivers at correlation r
        return (base * r, base * math.sqrt(max(0.0, 1.0 - r**2))) if stochastic else (base,)

    ramp = _mirror_ramp(cfg.volume, grid) if stochastic else None
    # before the task list: a path count too large to allocate fails here
    # with MemoryError, not after building n / _BLOCK tasks
    costs = np.empty((per_path + len(statics), n))
    keys = [(s.Phi, s.zeta.tobytes(), r) for s, r in zip(statics, rhos)]
    unique = dict(zip(keys, statics))  # each schedule at each rho is contracted once
    slot = [list(unique).index(key) for key in keys]
    row_scales = np.transpose([scales(r) for *_, r in unique])  # (drivers, K)
    kernel = _StaticCosts(list(unique.values()), market, row_scales, cfg.volume)
    drawn = n // 2 if antithetic else n
    offsets = (0, drawn) if antithetic else (0,)
    tasks = [(first, min(first + _BLOCK, drawn)) for first in range(0, drawn, _BLOCK)]
    # no more than _MAX_THREADS threads; a helper starts beside `alongside`
    count = min(_worker_count(), _MAX_THREADS, len(tasks) + bool(alongside))
    spaces = [_Workspace(cfg, min(_BLOCK, drawn)) for _ in range(count)]

    def price_task(task, ws):
        first, last = task
        m = last - first
        draws = [
            _normal_block(cfg.seed, first, last, stream=d, n=grid.n_steps, out=out[:m])
            for d, out in enumerate((ws.z, ws.zw)[: 1 + stochastic])
        ]
        terms = kernel.contract(draws)
        inverse = None
        if stochastic:
            inverse = _inverse_gbm_block(cfg.volume, grid, draws[0], out=ws.inverse[:m])
        for offset in offsets:
            if offset:  # the mirror: its draw's price terms negated, its turnover reflected
                np.negative(terms, out=terms)
                if stochastic:  # totals rejects a non-finite v0/v
                    with np.errstate(divide="ignore", over="ignore"):
                        np.divide(ramp, inverse, out=inverse)
            costs[per_path:, offset + first : offset + last] = kernel.totals(terms, inverse)[slot]
        if per_path:
            costs[0, first:last] = _anticipating_costs(
                draws, scales(rho), inverse, cfg.volume.v0, anticipating_phi, grid.tau, market
            )

    _drain(tasks, price_task, spaces, alongside)
    return costs


@np.errstate(over="ignore", invalid="ignore")  # a non-finite statistic fails its check
def _mean_and_se(x):
    """Sample mean of x and its standard error."""
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size))


@np.errstate(over="ignore", invalid="ignore")  # as in _mean_and_se
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
        mean, se_mean = _mean_and_se(0.5 * (costs[:half] + costs[half:]))
        sq = (costs - costs.mean()) ** 2
        se_var = _mean_and_se(0.5 * (sq[:half] + sq[half:]))[1]
    else:
        mean, se_mean = _mean_and_se(costs)
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
    return_costs: bool = False,
):
    """Sample mean/variance of the realized cost of `s` under the configuration.

    With antithetic=True (n_paths must be even) each drawn path is paired
    with its sign-flipped twin; see `moment_estimate` for the standard
    errors.
    """
    costs = _cost_rows(cfg, [s], antithetic=antithetic)[0]
    est = moment_estimate(costs, antithetic)
    return (est, costs) if return_costs else est


def validate_theorem_orderings(
    cfg: SimulationConfig,
    candidates: Dict[str, Strategy],
    return_costs: bool = False,
    alongside: Sequence[_Outcome] = (),
):
    """Paired-sample tournament checking the model's optimality orderings.

    Two families of inequalities are tested on common paths:

      * the anticipating turnover-proportional schedule (rebuilt per path, so
        it tracks the realized turnover) beats every submitted candidate;
      * under stochastic turnover, the static schedule proportional to the
        harmonic-mean turnover curve beats every submitted static candidate.

    An ordering is confirmed when mean(better - worse) <= 3 standard errors
    of the paired difference.  Returns a plain-dict report and, with
    return_costs=True, also the cost row of every schedule by name.  The
    calling thread runs `alongside` while the pass's helpers price its first
    tasks (see _drain).
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
    statics = [static[name] for name in rows[1:]]
    matrix = _cost_rows(cfg, statics, anticipating_phi=Phi, alongside=alongside)
    costs = dict(zip(rows, matrix))
    by_name = {name: dict(zip(("mean", "se_mean"), _mean_and_se(costs[name]))) for name in rows}
    pairs = [(ANTICIPATING_LABEL, other) for other in rows[1:]]
    if stochastic:
        pairs += [(EXPECTED_VWAP_LABEL, name) for name in names]
    # exact ties (e.g. a candidate that IS the anticipating schedule) leave a
    # systematic residue from accumulated rounding, whose scale is set by the
    # initial mark s0 * Phi rather than by the vanishing standard error
    tie_slack = 1e-12 * max(1.0, cfg.market.s0 * Phi)
    orderings = []
    for better, worse in pairs:
        with np.errstate(over="ignore", invalid="ignore"):  # as in _mean_and_se
            mean_diff, se_diff = _mean_and_se(costs[better] - costs[worse])
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
