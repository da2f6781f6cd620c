"""Monte Carlo validation: joint price/turnover simulation, cost-moment
estimation, and the optimality-ordering tournament.

Draws are keyed per block of paths (the volume layer's _BLOCK) and stream
with one SFC64 generator per key, and every draw starts on a block, so
results depend neither on the task split nor on which thread draws a
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
vectors moved onto the increments, W z per driver stream.  A stream that
only the static rows read (the one stream under deterministic turnover,
the price-specific one under lognormal turnover unless the per-path
anticipating row reads it) is drawn in the rows' own space: with
W = R' Q, Q's rows orthonormal, Q z is standard normal, so the pass draws
K normals xi per path in its place and prices xi R (_Factor), and
_joint_block rebuilds a full path from xi and the stream's own keyed
normals on which each row is a realized cost.  A row then depends on the
rows listed before it.  Any other stream is contracted as drawn, one
einsum per stream for all rows; an antithetic twin's price terms are the
negated ones.  A lognormal turnover path is built once per drawn path, as
the v0/v its cost reads; a twin's path is its draw's reflected through the
drift, so its v0/v is one division (volume._mirror_ramp); nothing else is
mirrored.  Each schedule's direct form is checked against its
decomposition once, on the weights, before any draw (cost._StaticCosts).
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

from .cost import MarketParams, _anticipating_costs, _dot, _StaticCosts
from .grids import TimeGrid, _integral, require_same_grid
from .strategies import Strategy, expected_vwap_strategy, vwap_strategy
from .volume import (
    _BLOCK,
    _FACTOR_STREAM,
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
        n = _integral(self.n_paths, "n_paths")
        if n < 2:
            raise ValueError(f"n_paths must be at least 2, got {self.n_paths}")
        object.__setattr__(self, "n_paths", n)
        object.__setattr__(self, "seed", _integral(self.seed, "seed"))
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
    drawn paths: each driver stream's normals, `widths` of them per path,
    and, under stochastic turnover, each path's v0/v, which its mirror's
    v0/v or else the per-path anticipating row then overwrites."""

    def __init__(self, cfg: SimulationConfig, rows: int, widths: Sequence[int]):
        self.draws = [np.empty((rows, width)) for width in widths]
        stochastic = isinstance(cfg.volume, GbmVolumeModel)
        self.inverse = np.empty((rows, cfg.grid.n_steps + 1)) if stochastic else None


class _Factor:
    """One driver stream's price weights W (K, n) as W = R' Q: Q's rows
    orthonormal or zero and R upper triangular, built row by row in listed
    order by Gram-Schmidt applied twice (the second pass removes what
    rounding left of the first), with einsum dots: row-stable, and free of
    BLAS threads.  Row k of Q and column k of R depend on rows 0..k of W
    only.  A row that adds no new direction (its residual is exactly zero,
    or n directions are already found) gets q = 0 and R_kk = 0.

    The stream's normals z reach the rows only as W z = R' (Q z), and Q z
    is standard normal on the rows of Q that are not zero, so K normals xi
    per path reproduce the rows' joint law exactly (Glasserman 2003,
    section 2.3): `terms` prices them, and `rebuild` gives back a full
    standard-normal z with Q z = xi, on which each row is a realized cost.
    """

    def __init__(self, w: np.ndarray):
        k, n = w.shape
        self.q, self.r = np.zeros((k, n)), np.zeros((k, k))
        found = 0
        for i in range(k):
            v, q = w[i], self.q[:i]
            for _ in range(2):
                c = np.einsum("jn,n->j", q, v)
                v = v - np.einsum("j,jn->n", c, q)
                self.r[:i, i] += c
            norm = math.sqrt(_dot(v, v))
            if norm > 0.0 and found < n:
                self.q[i], self.r[i, i] = v / norm, norm
                found += 1

    def terms(self, xi: np.ndarray) -> np.ndarray:
        """Price terms (rows, K) of the normals xi (rows, K): xi R, summed
        in listed order, so column k has the bits of a factor of rows 0..k."""
        terms = xi[:, :1] * self.r[0]
        for j in range(1, len(self.r)):
            terms += xi[:, j : j + 1] * self.r[j]
        return terms

    def rebuild(self, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """z = Q' xi + (eta - Q' Q eta) in place of eta (rows, n), the
        stream's own standard normals: xi in Q's span, eta's part
        orthogonal to it, so z is standard normal and Q z = xi."""
        eta += np.einsum("ik,kj->ij", xi - np.einsum("ij,kj->ik", eta, self.q), self.q)
        return eta


def _driver_scales(cfg: SimulationConfig, rho) -> tuple:
    """Scales of the price drivers' standard normals at correlation rho:
    the price moves by sigma_tilde sqrt(tau) z under deterministic turnover
    and by sigma_tilde sqrt(tau) (rho z_0 + sqrt(1 - rho^2) z_1) under
    stochastic turnover."""
    base = cfg.market.sigma_tilde * math.sqrt(cfg.grid.tau)
    if isinstance(cfg.volume, GbmVolumeModel):
        return base * rho, base * math.sqrt(max(0.0, 1.0 - rho**2))
    return (base,)


def _static_rows(cfg: SimulationConfig, statics, anticipating_phi=None, rhos=None):
    """The static rows of a pass over `statics` (see _cost_rows): the
    kernel of their distinct (schedule, rho) pairs in listed order, each
    listed row's index into it, and the driver stream whose normals the
    pass draws in the rows' own space, with its _Factor: stream 0 under
    deterministic turnover; stream 1 under stochastic turnover, unless the
    per-path anticipating row reads it, and then (None, None)."""
    if not statics:
        raise ValueError("need at least one static schedule")
    for s in statics:
        require_same_grid(s.grid, cfg.grid, "strategy")
    stochastic = isinstance(cfg.volume, GbmVolumeModel)
    if anticipating_phi is not None and not stochastic:
        statics = [vwap_strategy(cfg.volume, anticipating_phi), *statics]
    rho = cfg.volume.rho if stochastic else None
    rhos = [rho] * len(statics) if rhos is None or not stochastic else rhos
    keys = [(s.Phi, s.zeta.tobytes(), r) for s, r in zip(statics, rhos)]
    unique = dict(zip(keys, statics))  # each schedule at each rho is contracted once
    slot = [list(unique).index(key) for key in keys]
    row_scales = np.transpose([_driver_scales(cfg, r) for *_, r in unique])  # (drivers, K)
    kernel = _StaticCosts(list(unique.values()), cfg.market, row_scales, cfg.volume)
    if stochastic and anticipating_phi is not None:
        return kernel, slot, None, None
    factored = int(stochastic)
    return kernel, slot, factored, _Factor(kernel.price_w[factored])


def _joint_block(
    cfg: SimulationConfig,
    first: int,
    last: int,
    *,
    statics: Sequence[Strategy] = (),
    anticipating_phi: Optional[float] = None,
    rhos: Optional[Sequence[float]] = None,
):
    """Price and turnover paths for path indices [first, last) of a pass
    over `statics`, with `anticipating_phi` and `rhos` as given to
    `_cost_rows`: the paths whose realized costs are that pass's rows, the
    paths `validate`'s path checks read.

    Turnover draws come from driver stream 0 and price-specific noise from
    stream 1, combined as rho * z_0 + sqrt(1 - rho^2) * z_1, so the turnover
    paths are bit-identical with and without a correlated price leg; a
    turnover path is v0 over the v0/v the pass prices, from the same kernel.
    The stream the pass draws in its rows' own space is rebuilt from the
    same normals xi and its own keyed draws (_Factor.rebuild); with no
    schedule, every stream is read as drawn.  The price increments are
    summed in place in the paths' own columns.
    """
    grid, market = cfg.grid, cfg.market
    n = grid.n_steps
    factored, factor = (None, None)
    if statics:
        factored, factor = _static_rows(cfg, statics, anticipating_phi, rhos)[2:]

    def normals(stream):
        z = _normal_block(cfg.seed, first, last, stream=stream, n=n)
        if stream == factored:
            xi = _normal_block(cfg.seed, first, last, stream=_FACTOR_STREAM, n=len(factor.r))
            factor.rebuild(xi, z)
        return z

    z = normals(0)
    if isinstance(cfg.volume, GbmVolumeModel):
        rho = cfg.volume.rho
        vol = _inverse_gbm_block(cfg.volume, grid, z)
        np.divide(cfg.volume.v0, vol, out=vol)
        zw = normals(1)
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
    A driver stream that only the static rows read reaches them as W z, W
    their (K, n) price weights on it: stream 0 under deterministic turnover,
    stream 1 under stochastic turnover when no per-path anticipating row
    reads it.  The pass draws that stream in the rows' own space, K normals
    xi per path from volume stream 2, priced as xi R with W = R' Q
    (_Factor): the rows keep their joint law, each row is the realized cost
    of the path _joint_block rebuilds from the same schedules, and row k
    depends on the rows listed before it (and never on those after it).
    Under deterministic turnover no workspace is n wide.
    With `anticipating_phi` set, row 0 is the anticipating
    turnover-proportional schedule for that order size and the static
    schedules follow.  Under deterministic turnover that schedule is itself
    static, the volume-proportional one, and joins the contraction; under
    stochastic turnover it is Phi v / (w . v) on each path, priced from the
    same draws in closed form (cost._anticipating_costs), unchecked, on the
    drawn paths only: it cannot be antithetic (ValueError).
    With antithetic=True (n_paths must be even) the first n_paths/2 columns
    are the drawn paths and column n_paths/2 + i is the mirror of column i:
    its price terms are its draw's (xi's too), negated, and its v0/v the
    drift ramp over its draw's (volume._mirror_ramp), so it runs no cumsum,
    no exp.
    Returns an array of shape (rows, n_paths).
    """
    n = cfg.n_paths
    if antithetic and n % 2:
        raise ValueError(f"antithetic pairing needs an even n_paths, got {n}")
    grid = cfg.grid
    stochastic = isinstance(cfg.volume, GbmVolumeModel)
    per_path = int(anticipating_phi is not None and stochastic)
    if per_path and antithetic:
        raise ValueError("the per-path anticipating row is priced on drawn paths only")
    kernel, slot, factored, factor = _static_rows(cfg, statics, anticipating_phi, rhos)
    ramp = _mirror_ramp(cfg.volume, grid) if stochastic else None
    model_scales = _driver_scales(cfg, cfg.volume.rho) if per_path else None
    # before the task list: a path count too large to allocate fails here
    # with MemoryError, not after building n / _BLOCK tasks
    costs = np.empty((per_path + len(slot), n))
    drawn = n // 2 if antithetic else n
    offsets = (0, drawn) if antithetic else (0,)
    tasks = [(first, min(first + _BLOCK, drawn)) for first in range(0, drawn, _BLOCK)]
    # no more than _MAX_THREADS threads; a helper starts beside `alongside`
    count = min(_worker_count(), _MAX_THREADS, len(tasks) + bool(alongside))
    # the driver streams' keys and normals per path: n, or for the stream
    # drawn in the rows' own space, one per distinct row
    streams = [0, 1][: 1 + stochastic]
    widths = [grid.n_steps] * len(streams)
    if factor is not None:
        streams[factored], widths[factored] = _FACTOR_STREAM, len(factor.r)
    spaces = [_Workspace(cfg, min(_BLOCK, drawn), widths) for _ in range(count)]

    def price_task(task, ws):
        first, last = task
        m = last - first
        draws = [
            _normal_block(cfg.seed, first, last, stream=stream, n=out.shape[1], out=out[:m])
            for stream, out in zip(streams, ws.draws)
        ]
        if factor is None:
            terms = kernel.contract(draws)
        elif factored == 0:
            terms = factor.terms(draws[0])
        else:  # stream 0 drawn n wide, stream 1 in the rows' own space
            terms = kernel.contract(draws[:1])
            terms += factor.terms(draws[1])
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
                draws, model_scales, inverse, cfg.volume.v0, anticipating_phi, grid.tau, cfg.market
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
    The moments are those of the costs less the first one: identical costs
    become exact zeros, whose mean cannot round away from them, so a
    constant row has variance 0.
    """
    n = costs.size
    shift, costs = costs[0], costs - costs[0]
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
        mean=float(shift + mean),
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


def _tournament(cfg: SimulationConfig, candidates: Dict[str, Strategy]):
    """The rows of a tournament of `candidates` by name, the static
    schedules of its pass, listed as the rows after the anticipating one,
    and their common parent order size Phi."""
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
    statics = [candidates[name] for name in names]
    if isinstance(cfg.volume, GbmVolumeModel):  # the harmonic-mean row leads the static rows
        names.insert(0, EXPECTED_VWAP_LABEL)
        statics.insert(0, expected_vwap_strategy(cfg.volume, cfg.grid, Phi))
    return [ANTICIPATING_LABEL, *names], statics, Phi


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
    rows, statics, Phi = _tournament(cfg, candidates)
    costs = dict(zip(rows, _cost_rows(cfg, statics, anticipating_phi=Phi, alongside=alongside)))
    by_name = {name: dict(zip(("mean", "se_mean"), _mean_and_se(costs[name]))) for name in rows}
    pairs = [(ANTICIPATING_LABEL, other) for other in rows[1:]]
    if isinstance(cfg.volume, GbmVolumeModel):
        pairs += [(EXPECTED_VWAP_LABEL, name) for name in rows[2:]]
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
        "n_paths": cfg.n_paths,
        "seed": cfg.seed,
        "phi": Phi,
        "strategies": by_name,
        "orderings": orderings,
        "all_confirmed": all(o["confirmed"] for o in orderings),
    }
    return (report, costs) if return_costs else report
