"""Deterministic turnover profiles and the lognormal turnover model.

A profile is its per-node turnover samples v on a uniform grid: the
optimizers, the small-risk expansion, the cost weights and the Monte Carlo
pass all read v alone.  Families with a closed form (constant, arcsine, the
lognormal harmonic mean) evaluate it at the nodes; sampled profiles take the
values as given.

Random draws are keyed per block of _BLOCK consecutive paths: one SFC64
generator per (seed, block, stream) fills the block's rows, so a path's
draws never depend on how the paths are split into tasks, nor on which
thread draws them: every draw starts on a block, the Monte Carlo pass
prices _BLOCK-aligned tasks on every CPU the process may run on, and its
rows keep their bits on any CPU count.  Streams 0 and 1 are the price and
turnover drivers' normals, n per path, filled path by path.  Stream 2
holds the normals the pass draws in its rows' own space (one per distinct
static row) and is filled normal by normal across the whole block, so a
path's k-th normal does not depend on how many are drawn.
The fills write into caller-owned buffers when given one (`out=`), so a
worker thread draws without allocating path-sized memory.

A lognormal path is built once, by one kernel, as the v0/v that its cost
reads (_inverse_gbm_block); an antithetic twin's v0/v follows from its
draw's in one division (_mirror_ramp), and v itself is formed only where a
schedule or a check reads it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import TimeGrid, _frozen

_BLOCK = 256  # paths per keyed generator
_FACTOR_STREAM = 2  # the normals drawn in the Monte Carlo rows' own space


@dataclass(frozen=True)
class VolumeProfile:
    """Deterministic turnover curve: strictly positive samples v at the grid nodes."""

    grid: TimeGrid
    v: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = len(self.grid)
        v = np.asarray(self.v, dtype=float)
        if v.shape != (n,):
            raise ValueError(f"v must have {n} entries, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("v contains non-finite values")
        if np.any(v <= 0.0):
            raise ValueError("turnover must be strictly positive at every node")
        object.__setattr__(self, "v", _frozen(v))


@dataclass(frozen=True)
class GbmVolumeModel:
    """Lognormal turnover dv = v(mu dt + sigma dB); rho correlates B with the price driver."""

    v0: float
    mu: float
    sigma: float
    rho: float = 0.0

    def __post_init__(self):
        if not all(np.isfinite((self.v0, self.mu, self.sigma))):
            raise ValueError(f"v0, mu and sigma must be finite: {self}")
        if not (self.v0 > 0.0):
            raise ValueError(f"v0 must be positive, got {self.v0}")
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        if not (-1.0 <= self.rho <= 1.0):
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho}")


def constant_profile(grid: TimeGrid, v: float) -> VolumeProfile:
    """Flat turnover v at every node."""
    if not (v > 0.0):
        raise ValueError(f"turnover must be positive, got {v}")
    return VolumeProfile(grid=grid, v=np.full(len(grid), float(v)))


def arcsine_profile(grid: TimeGrid) -> VolumeProfile:
    """Turnover v = 1/(pi*sqrt(t(1-t))) on [0, 1], with unit total volume.

    v diverges at both endpoints; the endpoint samples are clamped to the value
    at distance tau/2 from the boundary, so the trapezoid mass of the samples
    falls slightly short of 1.
    """
    if grid.T != 1.0:
        raise ValueError(f"arcsine profile is defined on T = 1, got T = {grid.T}")
    t = grid.nodes
    v = np.empty(len(grid))
    ti = t[1:-1]
    v[1:-1] = 1.0 / (np.pi * np.sqrt(ti * (1.0 - ti)))
    edge = 0.5 * grid.tau
    v[0] = v[-1] = 1.0 / (np.pi * math.sqrt(edge * (1.0 - edge)))
    return VolumeProfile(grid=grid, v=v)


def profile_from_samples(grid: TimeGrid, samples: np.ndarray) -> VolumeProfile:
    """Profile from raw per-node turnover samples (checked by VolumeProfile)."""
    return VolumeProfile(grid=grid, v=samples)


@np.errstate(over="ignore")  # VolumeProfile rejects an infinite curve
def gbm_harmonic_mean(model: GbmVolumeModel, grid: TimeGrid) -> VolumeProfile:
    """Harmonic-mean turnover u_t = 1/E[1/v_t] = v0*exp((mu - sigma^2) t).

    1/v_t is lognormal, so E[1/v_t] = v0^{-1} exp((sigma^2 - mu) t).
    """
    mt = (model.mu - model.sigma**2) * grid.nodes
    return VolumeProfile(grid=grid, v=model.v0 * np.exp(mt))


def path_rng(seed: int, block: int, stream: int = 0) -> np.random.Generator:
    """RNG of one block of paths: SFC64 seeded by SeedSequence(seed,
    spawn_key=key), which pads the seed to its full pool before it mixes in
    the key's 32-bit words, so no two keys share a state.  The driver
    streams 0 and 1 have key (2*block + stream,); stream 2 (_FACTOR_STREAM)
    has (block, 0), whose words end in a zero word after another word, as
    those of no one-integer key do (an integer's top word is nonzero).  Any
    other stream is an error: "stream 2" as 2*block + 2 would be stream 0 of
    the next block.

    Draws depend only on the key, so batching/partitioning paths across
    workers cannot change the sampled values.  The seed is one 64-bit word:
    a seed outside [0, 2^64) is an error.
    """
    seed = int(seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    block, stream = int(block), int(stream)
    if stream not in (0, 1, _FACTOR_STREAM):
        raise ValueError(f"stream must be 0, 1 or {_FACTOR_STREAM}, got {stream}")
    spawn_key = (block, 0) if stream == _FACTOR_STREAM else (2 * block + stream,)
    key = np.random.SeedSequence(seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.SFC64(key))


def _normal_block(seed: int, first: int, last: int, stream: int, n: int, out=None) -> np.ndarray:
    """Standard-normal draws for paths first..last-1, shape (last - first, n),
    written into `out` (C-contiguous, allocated when None).

    Path k is row k % _BLOCK of block k // _BLOCK.  A driver stream's
    generator fills its block's rows in order with one standard_normal call,
    so the leading rows of a block never depend on how many rows are drawn.
    Stream 2's generator fills an (n, _BLOCK) array, the whole block's first
    normals before any second one, of which the rows take their columns: so
    neither the leading rows nor the leading columns depend on how many are
    drawn.  `first` must start a block (ValueError otherwise): the ziggurat
    sampler consumes a variable number of words per normal, so a generator
    cannot skip ahead to a row.
    """
    if first % _BLOCK:
        raise ValueError(f"draws start on a block of {_BLOCK} paths, got path {first}")
    z = np.empty((last - first, n)) if out is None else out
    for lo in range(first, last, _BLOCK):
        rows = z[lo - first : min(lo + _BLOCK, last) - first]
        rng = path_rng(seed, lo // _BLOCK, stream=stream)
        if stream == _FACTOR_STREAM:
            rows[...] = rng.standard_normal((n, _BLOCK))[:, : len(rows)].T
        else:
            rng.standard_normal(out=rows)
    return z


@np.errstate(over="ignore")  # the cost kernel rejects a non-finite v0/v
def _inverse_gbm_block(model: GbmVolumeModel, grid: TimeGrid, z: np.ndarray, out=None):
    """v0/v on the lognormal paths driven by the standard normals z of the
    turnover's Brownian driver (one row per path, dB = sqrt(tau) z), written
    into `out` of shape (rows, n + 1), allocated when None: the exp of the
    negated running log-turnover, accumulated in place in out's own columns,
    so no temporary is made.  The static cost reads 1/v, so this is the
    turnover the Monte Carlo pass prices; the path itself is v0 / out."""
    drift = (model.mu - 0.5 * model.sigma**2) * grid.tau
    out = np.empty((z.shape[0], grid.n_steps + 1)) if out is None else out
    out[:, 0] = 1.0
    log = out[:, 1:]
    np.multiply(z, -model.sigma * math.sqrt(grid.tau), out=log)
    log -= drift
    np.cumsum(log, axis=1, out=log)
    np.exp(log, out=log)
    return out


@np.errstate(over="ignore")  # as in _inverse_gbm_block
def _mirror_ramp(model: GbmVolumeModel, grid: TimeGrid) -> np.ndarray:
    """e^{-2 (mu - sigma^2/2) t} at the nodes.  An antithetic twin's path is
    its draw's reflected through the drift, v'_t = v0^2 e^{2 (mu - sigma^2/2) t} / v_t,
    so its v0/v is this ramp over its draw's v0/v."""
    return np.exp(-2.0 * (model.mu - 0.5 * model.sigma**2) * grid.nodes)
