"""Benchmark execution schedules and the rate <-> inventory conversions.

A Strategy is a nonnegative per-node execution rate that liquidates exactly
Phi shares over the grid horizon (sell-off condition, enforced under the
composite trapezoid rule).  The constructors here cover the closed-form
schedules: volume-proportional, harmonic-mean proportional, impact-twisted
and the constant-turnover risk-averse schedule.  The small-risk-aversion
expansion around the volume-proportional one lives in bvp, beside the
boundary problem whose first-order correction it is.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InconsistentStrategyError, NegativeRateError
from .grids import (
    TimeGrid,
    _frozen,
    build_grid,
    cumtrapz,
    derivative,
    trapz,
    write_csv,
)
from .volume import GbmVolumeModel, VolumeProfile, gbm_harmonic_mean

SELL_OFF_RTOL = 1e-10


@dataclass(frozen=True)
class Strategy:
    """Static schedule: per-node selling rate zeta >= 0 integrating to Phi."""

    grid: TimeGrid
    zeta: np.ndarray
    Phi: float

    def __post_init__(self):
        z = np.asarray(self.zeta, dtype=float)
        if z.shape != (len(self.grid),):
            raise ValueError(f"zeta must have {len(self.grid)} entries, got shape {z.shape}")
        if not np.all(np.isfinite(z)):
            raise ValueError("zeta contains non-finite values")
        if np.any(z < 0.0):
            raise NegativeRateError("execution rate must be nonnegative at every node")
        Phi = _block_size(self.Phi)
        mass = trapz(z, self.grid.tau)
        if abs(mass - Phi) > SELL_OFF_RTOL * Phi:
            raise InconsistentStrategyError(
                f"rate integrates to {mass!r} but Phi = {Phi!r} was declared"
            )
        object.__setattr__(self, "zeta", _frozen(z))
        object.__setattr__(self, "Phi", Phi)


@dataclass(frozen=True)
class InventoryCurve:
    """Remaining shares phi_t, pinned to phi_0 = Phi and phi_T = 0."""

    grid: TimeGrid
    phi: np.ndarray
    Phi: float

    def __post_init__(self):
        p = np.asarray(self.phi, dtype=float)
        if p.shape != (len(self.grid),):
            raise ValueError(f"phi must have {len(self.grid)} entries, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("phi contains non-finite values")
        Phi = _block_size(self.Phi)
        tol = 1e-12 * max(1.0, Phi)
        if abs(p[0] - Phi) > tol or abs(p[-1]) > tol:
            raise ValueError(
                f"inventory must run from Phi to 0, got phi_0 = {p[0]!r}, phi_T = {p[-1]!r}"
            )
        object.__setattr__(self, "phi", _frozen(p))
        object.__setattr__(self, "Phi", Phi)


def inventory_from_rate(s: Strategy) -> InventoryCurve:
    """phi_t = Phi - int_0^t zeta, with the terminal node forced to exactly 0.

    The accumulated quadrature residual (bounded by the sell-off tolerance)
    is absorbed into the last step so downstream boundary conditions hold
    exactly.
    """
    phi = s.Phi - cumtrapz(s.zeta, s.grid.tau)
    if abs(phi[-1]) > SELL_OFF_RTOL * s.Phi:
        raise InconsistentStrategyError(
            f"rate leaves {phi[-1]!r} shares unexecuted out of {s.Phi!r}"
        )
    phi[-1] = 0.0
    return InventoryCurve(grid=s.grid, phi=phi, Phi=s.Phi)


def rate_from_inventory(c: InventoryCurve) -> Strategy:
    """Differentiate an inventory curve back into a selling rate.

    Central differences inside, second-order one-sided at the ends; the
    one-sided stencils can undershoot zero by O(tau^2) on convex curves, so
    the rate is clipped at 0 and rescaled to integrate to Phi exactly.
    """
    steps = np.diff(c.phi)
    if np.any(steps > SELL_OFF_RTOL * max(1.0, c.Phi)):
        i = int(np.argmax(steps))
        raise NegativeRateError(
            f"inventory increases by {steps[i]!r} over step {i}; rate would be negative"
        )
    zeta = np.clip(-derivative(c.phi, c.grid.tau), 0.0, None)
    mass = trapz(zeta, c.grid.tau)
    if mass <= 0.0:
        raise NegativeRateError("inventory curve carries no selling volume")
    return Strategy(grid=c.grid, zeta=zeta * (c.Phi / mass), Phi=c.Phi)


def _risk_aversion(lam) -> float:
    """lam as a float; ValueError unless it is finite and nonnegative (so NaN fails)."""
    lam = float(lam)
    if not (0.0 <= lam < np.inf):
        raise ValueError(f"lam must be finite and nonnegative, got {lam}")
    return lam


def _block_size(Phi) -> float:
    """Phi as a float; ValueError unless it is positive and finite (so NaN fails)."""
    Phi = float(Phi)
    if not (0.0 < Phi < np.inf):
        raise ValueError(f"Phi must be positive and finite, got {Phi}")
    return Phi


def _proportional(grid: TimeGrid, weight: np.ndarray, Phi) -> Strategy:
    """Rate proportional to `weight`, scaled by its trapezoid mass to sell Phi."""
    Phi = _block_size(Phi)
    with np.errstate(over="ignore"):  # Strategy rejects a non-finite rate or a wrong sell-off
        zeta = weight * (Phi / trapz(weight, grid.tau))
    return Strategy(grid=grid, zeta=zeta, Phi=Phi)


def vwap_strategy(profile: VolumeProfile, Phi: float) -> Strategy:
    """Volume-proportional schedule zeta = v * Phi / V_T.

    V_T is taken as the trapezoid mass of the (possibly endpoint-clamped)
    sampled turnover, so the sell-off condition holds on the grid and not
    merely in the continuum limit.
    """
    return _proportional(profile.grid, profile.v, Phi)


def expected_vwap_strategy(model: GbmVolumeModel, grid: TimeGrid, Phi: float) -> Strategy:
    """Schedule proportional to the harmonic-mean turnover u_t = 1/E[1/v_t]."""
    return _proportional(grid, gbm_harmonic_mean(model, grid).v, Phi)


def twisted_vwap(
    profile: VolumeProfile, k: Callable[[np.ndarray], np.ndarray], alpha: float, Phi: float
) -> Strategy:
    """Rate proportional to k(v)^(-1/alpha), for a temporary impact k(v)*zeta^alpha."""
    alpha = float(alpha)
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    kv = np.asarray(k(profile.v), dtype=float)
    if kv.ndim == 0:
        kv = np.full(len(profile.grid), float(kv))
    if kv.shape != profile.v.shape:
        raise ValueError(f"k(v) must be scalar or per-node, got shape {kv.shape}")
    if not np.all(np.isfinite(kv)) or np.any(kv <= 0.0):
        raise ValueError("k(v) must be finite and strictly positive at every node")
    return _proportional(profile.grid, kv ** (-1.0 / alpha), Phi)


def ac_closed_form(lam, market, v, grid: TimeGrid, Phi) -> Strategy:
    """Risk-averse schedule under constant turnover v.

    The inventory is phi_t = sinh(g (T - t)) / sinh(g T) * Phi with
    g = sqrt(sigma_tilde^2 * lam * v / kappa_tilde), hence the rate

        zeta_t = g * Phi * cosh(g (T - t)) / sinh(g T),

    evaluated in overflow-safe exponential form and rescaled by its own
    trapezoid mass (an O(tau^2) factor) so the sell-off condition holds on
    the grid.  lam = 0 degenerates to the constant rate Phi/T.
    """
    lam = _risk_aversion(lam)
    v = float(v)
    if v <= 0.0:
        raise ValueError(f"turnover must be positive, got {v}")
    Phi = _block_size(Phi)
    t = grid.nodes
    T = grid.T
    g = np.sqrt(market.sigma_tilde**2 * lam * v / market.kappa_tilde)
    if g * T < 1e-12:
        return Strategy(grid=grid, zeta=np.full(len(grid), Phi / T), Phi=Phi)
    # cosh(g(T-t))/sinh(gT) = exp(-g t) (1 + exp(-2g(T-t))) / (1 - exp(-2gT))
    zeta = g * Phi * np.exp(-g * t) * (1.0 + np.exp(-2.0 * g * (T - t)))
    zeta /= -np.expm1(-2.0 * g * T)
    zeta *= Phi / trapz(zeta, grid.tau)
    return Strategy(grid=grid, zeta=zeta, Phi=Phi)


# ---------------------------------------------------------------------------
# CSV serialization: columns t,zeta,phi at full double precision.

def strategy_to_csv(s: Strategy, path: str) -> None:
    write_csv(path, ["t", "zeta", "phi"], [s.grid.nodes, s.zeta, inventory_from_rate(s).phi])


def strategy_from_csv(path: str) -> Strategy:
    """Rebuild a strategy from CSV; Phi is re-derived as the rate's integral."""
    with open(path) as f:
        header = f.readline().strip().split(",")
        lines = [line for line in f if line.strip()]  # loadtxt warns on no data
    try:
        it, iz = header.index("t"), header.index("zeta")
    except ValueError as e:
        raise ValueError(f"strategy CSV needs at least columns t,zeta; got {header}") from e
    data = np.loadtxt(lines, delimiter=",", ndmin=2) if lines else np.empty((0, len(header)))
    if len(data) < 3:
        raise ValueError("strategy CSV must contain at least 3 nodes")
    t, zeta = data[:, it], data[:, iz]
    tau = t[1] - t[0]
    gap = np.max(np.abs(np.diff(t) - tau))
    # written as not(x <= tol) so that a NaN node fails the test
    if t[0] != 0.0 or not (tau > 0.0) or not (gap <= 1e-12 * max(t[-1], 1.0)):
        raise ValueError("strategy CSV must carry a uniform grid starting at t = 0")
    grid = build_grid(T=t[-1], n_steps=len(t) - 1)
    return Strategy(grid=grid, zeta=zeta, Phi=trapz(zeta, grid.tau))
