"""Deterministic turnover profiles and the lognormal turnover model.

A profile stores the instantaneous turnover v together with the cumulative
quantities the optimizers consume: V_t = int_0^t v, calV_t = int_0^t V and
int_0^t V^2.  Closed forms are used where the profile family has them;
sampled profiles fall back to composite-trapezoid integration.

Random draws are keyed per block of _BLOCK consecutive paths: one Philox
generator per (seed, block, stream) fills the block's rows in path order, so
a path's draws never depend on how the paths are batched.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import TimeGrid, _frozen, build_grid, cumtrapz

_MASK64 = (1 << 64) - 1
_BLOCK = 256  # paths per keyed generator


@dataclass(frozen=True)
class VolumeProfile:
    """Deterministic turnover curve with its cumulative integrals (all per-node)."""

    grid: TimeGrid
    v: np.ndarray = field(repr=False)
    V: np.ndarray = field(repr=False)
    calV: np.ndarray = field(repr=False)
    V2int: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = len(self.grid)
        for name in ("v", "V", "calV", "V2int"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"{name} must have {n} entries, got shape {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
            object.__setattr__(self, name, _frozen(arr))
        if np.any(self.v <= 0.0):
            raise ValueError("turnover must be strictly positive at every node")
        if self.V[0] != 0.0 or np.any(np.diff(self.V) <= 0.0):
            raise ValueError("cumulative volume must start at 0 and increase strictly")


@dataclass(frozen=True)
class GbmVolumeModel:
    """Lognormal turnover dv = v(mu dt + sigma dB); rho correlates B with the price driver."""

    v0: float
    mu: float
    sigma: float
    rho: float = 0.0

    def __post_init__(self):
        if not (self.v0 > 0.0):
            raise ValueError(f"v0 must be positive, got {self.v0}")
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        if not (-1.0 <= self.rho <= 1.0):
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho}")


@dataclass(frozen=True)
class VolumePathSet:
    """Simulated turnover paths plus the Brownian increments that drove them."""

    grid: TimeGrid
    paths: np.ndarray = field(repr=False)
    seed: int
    driver_increments: np.ndarray = field(repr=False)

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]


def constant_profile(grid: TimeGrid, v: float) -> VolumeProfile:
    """Flat turnover; every integral is a polynomial in t."""
    if not (v > 0.0):
        raise ValueError(f"turnover must be positive, got {v}")
    t = grid.nodes
    return VolumeProfile(
        grid=grid,
        v=np.full(len(grid), float(v)),
        V=v * t,
        calV=0.5 * v * t**2,
        V2int=(v**2) * t**3 / 3.0,
    )


def arcsine_profile(grid: TimeGrid) -> VolumeProfile:
    """Turnover v = 1/(pi*sqrt(t(1-t))) on [0, 1] with V = (2/pi)*arcsin(sqrt t).

    v diverges at both endpoints; the endpoint samples are clamped to the value
    at distance tau/2 from the boundary.  All cumulative fields use the exact
    closed forms, so the clamping never leaks into integrals.
    """
    if grid.T != 1.0:
        raise ValueError(f"arcsine profile is defined on T = 1, got T = {grid.T}")
    t = grid.nodes
    v = np.empty(len(grid))
    ti = t[1:-1]
    v[1:-1] = 1.0 / (np.pi * np.sqrt(ti * (1.0 - ti)))
    edge = 0.5 * grid.tau
    v[0] = v[-1] = 1.0 / (np.pi * math.sqrt(edge * (1.0 - edge)))

    root = np.sqrt(t)
    asn = np.arcsin(root)
    w = np.sqrt(t * (1.0 - t))
    V = (2.0 / np.pi) * asn
    V[-1] = 1.0
    # calV = int_0^t V: substitute r = sin^2(theta) and integrate theta*sin(2 theta).
    calV = ((2.0 * t - 1.0) * asn + w) / np.pi
    # int_0^t V^2: same substitution on theta^2*sin(2 theta).
    V2int = (4.0 / np.pi**2) * (0.5 * (2.0 * t - 1.0) * asn**2 + w * asn - 0.5 * t)
    return VolumeProfile(grid=grid, v=v, V=V, calV=calV, V2int=V2int)


def profile_from_samples(grid: TimeGrid, samples: np.ndarray) -> VolumeProfile:
    """Profile from raw per-node turnover samples; integrals by composite trapezoid."""
    v = np.asarray(samples, dtype=float)
    if v.shape != (len(grid),):
        raise ValueError(f"expected {len(grid)} samples, got shape {v.shape}")
    if np.any(~np.isfinite(v)) or np.any(v <= 0.0):
        raise ValueError("turnover samples must be finite and strictly positive")
    tau = grid.tau
    V = cumtrapz(v, tau)
    return VolumeProfile(grid=grid, v=v, V=V, calV=cumtrapz(V, tau), V2int=cumtrapz(V**2, tau))


def _e1(x: np.ndarray) -> np.ndarray:
    # (e^x - 1)/x, stable near 0
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-12
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 + 0.5 * x, np.expm1(safe) / safe)


def _e2(x: np.ndarray) -> np.ndarray:
    # (e^x - 1 - x)/x^2, stable near 0
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    series = 0.5 + x / 6.0 + x**2 / 24.0 + x**3 / 120.0
    return np.where(small, series, (np.expm1(safe) - safe) / safe**2)


def _e1_gap(x: np.ndarray) -> np.ndarray:
    # e1(2x) - 2*e1(x) + 1 = x^2/3 + x^3/4 + 7x^4/60 + ..., stable near 0
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    series = x**2 / 3.0 + x**3 / 4.0 + 7.0 * x**4 / 60.0
    return np.where(small, series, _e1(2.0 * x) - 2.0 * _e1(x) + 1.0)


def gbm_harmonic_mean(model: GbmVolumeModel, grid: TimeGrid) -> VolumeProfile:
    """Harmonic-mean turnover u_t = 1/E[1/v_t] = v0*exp((mu - sigma^2) t).

    1/v_t is lognormal, so E[1/v_t] = v0^{-1} exp((sigma^2 - mu) t); the
    cumulative fields follow from the exponential closed forms.
    """
    t = grid.nodes
    m = model.mu - model.sigma**2
    mt = m * t
    u = model.v0 * np.exp(mt)
    U = model.v0 * t * _e1(mt)
    calU = model.v0 * t**2 * _e2(mt)
    # int_0^t U^2 = v0^2 t^3 * [e1(2mt) - 2 e1(mt) + 1]/(mt)^2, with limit 1/3 at mt = 0
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(mt != 0.0, _e1_gap(mt) / np.where(mt != 0.0, mt, 1.0) ** 2, 1.0 / 3.0)
    U2int = model.v0**2 * t**3 * ratio
    return VolumeProfile(grid=grid, v=u, V=U, calV=calU, V2int=U2int)


def path_rng(seed: int, block: int, stream: int = 0) -> np.random.Generator:
    """Counter-based RNG of one block of paths: a Philox stream keyed by
    (seed, 2*block + stream).

    Draws depend only on the key, so batching/partitioning paths across
    workers cannot change the sampled values.
    """
    key = (int(seed) & _MASK64) + (((2 * int(block) + int(stream)) & _MASK64) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def _normal_block(seed: int, first: int, last: int, stream: int, n: int) -> np.ndarray:
    """Standard-normal draws for paths first..last-1, shape (last - first, n).

    Path k is row k % _BLOCK of block k // _BLOCK.  A block's generator fills
    its rows in order with one standard_normal call, so the leading rows of a
    block never depend on how many rows are drawn, and any path is rebuilt
    by drawing its block up to that row and slicing.  A range that starts
    partway into a block draws that block from row 0: the ziggurat sampler
    consumes a variable number of words per normal, so the generator cannot
    skip ahead to a row.
    """
    z = np.empty((last - first, n))
    for block in range(first // _BLOCK, -(-last // _BLOCK)):
        lo = block * _BLOCK
        hi = min(lo + _BLOCK, last)
        rng = path_rng(seed, block, stream=stream)
        if first <= lo:
            rng.standard_normal(out=z[lo - first : hi - first])
        else:
            z[: hi - first] = rng.standard_normal((hi - lo, n))[first - lo :]
    return z


def _gbm_block(model: GbmVolumeModel, grid: TimeGrid, z: np.ndarray):
    """Lognormal paths driven by standard normals z (one row per path);
    returns (paths, driver increments)."""
    increments = math.sqrt(grid.tau) * z
    drift = (model.mu - 0.5 * model.sigma**2) * grid.tau
    logv = np.cumsum(drift + model.sigma * increments, axis=1)
    paths = np.empty((z.shape[0], grid.n_steps + 1))
    paths[:, 0] = model.v0
    paths[:, 1:] = model.v0 * np.exp(logv)
    return paths, increments


def simulate_gbm_paths(
    model: GbmVolumeModel, grid: TimeGrid, n_paths: int, seed: int
) -> VolumePathSet:
    """Exact lognormal stepping v_{t+tau} = v_t * exp((mu - sigma^2/2) tau + sigma dB)."""
    if n_paths < 1:
        raise ValueError(f"need at least one path, got {n_paths}")
    z = _normal_block(seed, 0, n_paths, stream=0, n=grid.n_steps)
    paths, increments = _gbm_block(model, grid, z)
    return VolumePathSet(grid=grid, paths=paths, seed=int(seed), driver_increments=increments)


# ---------------------------------------------------------------------------
# CSV serialization: columns t,v,V,calV,V2int at full double precision.

def profile_to_csv(profile: VolumeProfile, path: str) -> None:
    cols = np.column_stack(
        [profile.grid.nodes, profile.v, profile.V, profile.calV, profile.V2int]
    )
    with open(path, "w") as f:
        f.write("t,v,V,calV,V2int\n")
        for row in cols:
            f.write(",".join(f"{x:.17g}" for x in row) + "\n")


def profile_from_csv(path: str) -> VolumeProfile:
    """Rebuild a sampled profile from CSV (columns t,v minimum); integrals re-derived."""
    with open(path) as f:
        header = f.readline().strip().split(",")
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    try:
        it, iv = header.index("t"), header.index("v")
    except ValueError as e:
        raise ValueError(f"profile CSV needs at least columns t,v; got {header}") from e
    t, v = data[:, it], data[:, iv]
    if len(t) < 3:
        raise ValueError("profile CSV must contain at least 3 nodes")
    tau = t[1] - t[0]
    if t[0] != 0.0 or tau <= 0.0 or np.max(np.abs(np.diff(t) - tau)) > 1e-12 * max(t[-1], 1.0):
        raise ValueError("profile CSV must carry a uniform grid starting at t = 0")
    grid = build_grid(T=t[-1], n_steps=len(t) - 1)
    return profile_from_samples(grid, v)
