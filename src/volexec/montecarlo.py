"""Monte Carlo validation: joint price/turnover simulation, cost-moment
estimation, and the optimality-ordering tournament.

Draws are keyed per block of paths (the volume layer's _BLOCK) and driver
stream with one SFC64 generator per key, and every draw starts on a block,
so results depend neither on the task split nor on which thread draws a
path.  Every estimate runs one pass over the paths, split into
_BLOCK-aligned tasks of at most _TASK drawn paths.  One
helper thread per further CPU the process may run on (os.sched_getaffinity)
takes tasks from one shared list at once; the calling thread first runs the
work it was given beside the pass (`validate`'s checks that do not read the
rows), then takes tasks too.  With one CPU no thread starts, and that work
runs before the pass.  numpy's normal fills, ufuncs and einsum release the
interpreter lock, so the threads draw and price in parallel, each into its
workspace allocated up front.  All schedules' rows read the same draws
(common random numbers), a schedule listed twice is priced once, and each
task writes its own columns of the result, so every row keeps its bits on
any CPU count.
The pass prices the draws, not the paths: a price path is s0 plus the
running sum of fixed multiples of the normals (its driver is correlated
with a lognormal turnover's through the model's rho), so every static row
is a constant plus the normals contracted with the schedule's weight
vectors moved onto the increments, and one einsum per driver stream prices
all of them; an antithetic twin's price terms are the negated ones.  Each
schedule's direct form is checked against its decomposition once, on the
weights, before any draw (cost._StaticCosts).
einsum, unlike a BLAS matmul, gives each entry bits that do not depend on
the task's size, offset or schedule count.  Under deterministic turnover
the anticipating schedule is static too; under stochastic turnover its row
is the paper's pathwise identity in closed form, row-wise dots of the same
draws (cost._anticipating_costs), which `validate` checks.  Only
`_joint_block` builds price paths, for `validate`'s path checks.
"""
from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

import numpy as np

from .cost import MarketParams, _anticipating_costs, _StaticCosts
from .grids import TimeGrid, require_same_grid
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
    """Buffers one task of the pass fills in place for up to `rows` drawn
    paths: the normals of driver stream 0 and, under stochastic turnover, of
    stream 1, a turnover path per row (a mirror rebuilds it) and a spare one
    (the static kernel's 1/v, then the anticipating row's running turnover)."""

    def __init__(self, cfg: SimulationConfig, rows: int):
        n = cfg.grid.n_steps
        stochastic = isinstance(cfg.volume, GbmVolumeModel)
        self.z = np.empty((rows, n))
        self.zw = np.empty((rows, n)) if stochastic else None
        self.vol = np.empty((rows, n + 1)) if stochastic else None
        self.spare = np.empty((rows, n + 1)) if stochastic else None


def _joint_block(cfg: SimulationConfig, first: int, last: int):
    """Price and turnover paths for path indices [first, last), from the
    draws the pass prices: the paths `validate`'s path checks read.

    Turnover draws come from driver stream 0 and price-specific noise from
    stream 1, combined as rho * dB + sqrt(1 - rho^2) * dW, so the turnover
    paths are bit-identical with and without a correlated price leg.  The
    price increments are summed in place in the paths' own columns.
    """
    grid, market = cfg.grid, cfg.market
    n, root = grid.n_steps, math.sqrt(grid.tau)
    db = _normal_block(cfg.seed, first, last, stream=0, n=n)
    db *= root
    if isinstance(cfg.volume, GbmVolumeModel):
        rho = cfg.volume.rho
        vol = _gbm_block(cfg.volume, grid, db)
        dw = _normal_block(cfg.seed, first, last, stream=1, n=n)
        dw *= root
        dw *= math.sqrt(max(0.0, 1.0 - rho**2))  # the price-specific increments
        db *= rho
        db += dw
    else:
        vol = np.broadcast_to(cfg.volume.v, (last - first, n + 1))
    price = np.empty((last - first, n + 1))
    price[:, 0] = market.s0
    np.cumsum(db, axis=1, out=price[:, 1:])
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


def _batches(n: int, size: int):
    for first in range(0, n, size):
        yield first, min(first + size, n)


def _cost_rows(
    cfg: SimulationConfig,
    statics: Sequence[Strategy],
    anticipating_phi: Optional[float] = None,
    antithetic: bool = False,
    alongside: Sequence[_Outcome] = (),
) -> np.ndarray:
    """Realized cost of every static schedule on every path, one pass.

    The paths are split into tasks of at most _TASK drawn paths, each
    starting on a keyed block, and drained (`_drain`) by one thread per CPU
    (`_worker_count`), but no more threads than _DEFAULT_BATCH holds
    blocks; the calling thread runs `alongside` first.  All workspaces
    together hold at most _DEFAULT_BATCH paths, mirrors counted (a mirror
    reuses its draw's buffers), so memory is bounded on any CPU count, and
    the task split never changes a result.

    No price path is built: the price moves by sigma_tilde sqrt(tau) z under
    deterministic turnover, by sigma_tilde (rho dB + sqrt(tau (1 - rho^2)) z_1)
    under stochastic turnover, dB = sqrt(tau) z_0 being the turnover driver's
    increments.  cost._StaticCosts prices each distinct static schedule once,
    its direct and decomposed weights checked against each other once; a
    mirror's price terms are its draw's, negated.
    With `anticipating_phi` set, row 0 is the anticipating
    turnover-proportional schedule for that order size and the static
    schedules follow.  Under deterministic turnover that schedule is itself
    static, the volume-proportional one, and joins the contraction; under
    stochastic turnover it is Phi v / (w . v) on each path, priced from the
    same draws in closed form (cost._anticipating_costs), unchecked.
    With antithetic=True (n_paths must be even) the first n_paths/2 columns
    are the drawn paths and column n_paths/2 + i is the mirror of column i.
    Returns an array of shape (rows, n_paths).
    """
    for s in statics:
        require_same_grid(s.grid, cfg.grid, "strategy")
    n = cfg.n_paths
    if antithetic and n % 2:
        raise ValueError(f"antithetic pairing needs an even n_paths, got {n}")
    grid, market = cfg.grid, cfg.market
    stochastic = isinstance(cfg.volume, GbmVolumeModel)
    per_path = int(anticipating_phi is not None and stochastic)
    if anticipating_phi is not None and not stochastic:
        statics = [vwap_strategy(cfg.volume, anticipating_phi), *statics]
    root = math.sqrt(grid.tau)
    scales, sds = (market.sigma_tilde * root,), (1.0,)
    if stochastic:
        rho = cfg.volume.rho
        scales = (market.sigma_tilde * rho, scales[0] * math.sqrt(max(0.0, 1.0 - rho**2)))
        sds = (root, 1.0)  # the turnover driver's draws are its increments
    costs = np.empty((per_path + len(statics), n))
    unique = {(s.Phi, s.zeta.tobytes()): s for s in statics}  # each is contracted once
    slot = [list(unique).index((s.Phi, s.zeta.tobytes())) for s in statics]
    statics = list(unique.values())
    if statics:
        kernel = _StaticCosts(statics, market, scales, sds, None if stochastic else cfg.volume.v)
    drawn = n // 2 if antithetic else n
    offsets = (0, drawn) if antithetic else (0,)
    held = _DEFAULT_BATCH // len(offsets)  # drawn paths held at once
    cpus = min(_worker_count(), held // _BLOCK)  # so that every task holds whole blocks
    size = min(_TASK, drawn, held // cpus // _BLOCK * _BLOCK)
    tasks = list(_batches(drawn, size))
    count = min(cpus, len(tasks) + bool(alongside))  # a helper starts beside `alongside`
    spaces = [_Workspace(cfg, size) for _ in range(count)]

    def price_task(task, ws):
        first, last = task
        m = last - first
        draws = [
            _normal_block(cfg.seed, first, last, stream=d, n=grid.n_steps, out=out[:m])
            for d, out in enumerate((ws.z, ws.zw)[: 1 + stochastic])
        ]
        z = draws[0]
        if stochastic:
            z *= root  # the turnover driver's increments, which _gbm_block reads
        terms = kernel.contract(draws) if statics else None
        for d, offset in enumerate(offsets):
            if d and statics:
                np.negative(terms, out=terms)
            if d and stochastic:  # the mirror's turnover, and its price
                np.negative(z, out=z)
                if per_path:
                    np.negative(draws[1], out=draws[1])
            cols = slice(offset + first, offset + last)
            vol = _gbm_block(cfg.volume, grid, z, out=ws.vol[:m]) if stochastic else None
            if statics:
                costs[per_path:, cols] = kernel.totals(terms, vol, ws.spare)[slot]
            if per_path:
                costs[0, cols] = _anticipating_costs(
                    draws, scales, vol, anticipating_phi, grid.tau, market, ws.spare[:m]
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
