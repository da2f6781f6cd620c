"""Two-point boundary solves for the stationarity equation of the
mean-variance schedule problem.

The continuous equation is

    phi''(t) - a(t) phi'(t) - c(t) phi(t) = r(t),    phi(0), phi(T) given,

discretized with second-order central differences on the uniform grid,
giving a tridiagonal system handled by direct elimination (pivot locations
are reported on failure, which off-the-shelf banded solvers hide).  The
optimizer's bound-constrained QP steps run on the same elimination, and
the small-risk expansion around the volume-proportional schedule solves its
first-order correction with it.
"""
from __future__ import annotations

import warnings

import numpy as np

from .errors import ConsistencyError, SolverFailureError
from .grids import TimeGrid, interval_rates_to_nodes, trapz
from .strategies import (
    InventoryCurve,
    Strategy,
    _block_size,
    _risk_aversion,
    inventory_from_rate,
    vwap_strategy,
)

_RESIDUAL_RTOL = 1e-10
_PIVOT_RTOL = 1e-13


def _eliminate(lower, diag, upper, row_scale):
    """Forward elimination of lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = rhs[i]
    on Python floats (rounded as float64 arrays are, indexed several times
    faster): the factors (multipliers, pivots, upper) that _substitute applies to
    any rhs; SolverFailureError naming the node (row + 1) of a pivot below
    1e-13 * row_scale."""
    diag, upper, row_scale = diag.tolist(), upper.tolist(), row_scale.tolist()
    mult = [0.0] + lower[1:].tolist()
    m = len(diag)
    for i in range(m):
        if abs(diag[i]) <= _PIVOT_RTOL * row_scale[i]:
            raise SolverFailureError(f"tridiagonal elimination hit a vanishing pivot at node {i + 1}")
        if i + 1 < m:
            mult[i + 1] /= diag[i]
            diag[i + 1] -= mult[i + 1] * upper[i]
    return mult, diag, upper


def _substitute(factors, rhs) -> np.ndarray:
    """x from the factors of _eliminate and one right-hand side."""
    mult, diag, upper = factors
    b = rhs.tolist()
    for i in range(1, len(b)):
        b[i] -= mult[i] * b[i - 1]
    x = [0.0] * (len(b) + 1)
    for i in range(len(b) - 1, -1, -1):
        x[i] = (b[i] - upper[i] * x[i + 1]) / diag[i]
    return np.array(x[:-1])


def _solve_bvp(grid: TimeGrid, a, c, rhs, left, right) -> np.ndarray:
    """phi at every node from phi'' - a phi' - c phi = rhs, phi(0) = left and
    phi(T) = right, with a, c and rhs given at the nodes.

    Interior stencil at node i:

        (phi[i+1] - 2 phi[i] + phi[i-1]) / tau^2
            - a[i] (phi[i+1] - phi[i-1]) / (2 tau) - c[i] phi[i] = rhs[i].

    Raises ValueError when a coefficient is not a finite node array or a
    boundary value is not finite, SolverFailureError (naming the offending
    node) when elimination meets a vanishing pivot, and
    ConsistencyError when the back-substituted solution fails the scaled
    residual check.
    """
    n = len(grid)
    a, c, rhs = (np.asarray(x, dtype=float) for x in (a, c, rhs))
    for name, arr in (("a", a), ("c", c), ("rhs", rhs)):
        if arr.shape != (n,):
            raise ValueError(f"{name} must be a length-{n} node array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} contains non-finite entries")
    left, right = float(left), float(right)
    if not (np.isfinite(left) and np.isfinite(right)):
        raise ValueError(f"boundary values must be finite, got {left} and {right}")
    tau = grid.tau
    inv2 = 1.0 / tau**2
    ai, ci = a[1:-1], c[1:-1]
    lower = inv2 + ai / (2.0 * tau)
    diag = -2.0 * inv2 - ci
    upper = inv2 - ai / (2.0 * tau)
    b = rhs[1:-1].copy()
    b[0] -= lower[0] * left
    b[-1] -= upper[-1] * right

    row_scale = 2.0 * inv2 + np.abs(ai) / tau + np.abs(ci)
    x = _substitute(_eliminate(lower, diag, upper, row_scale), b)
    phi = np.concatenate([[left], x, [right]])

    applied = (
        (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) * inv2
        - ai * (phi[2:] - phi[:-2]) / (2.0 * tau)
        - ci * phi[1:-1]
    )
    resid = float(np.max(np.abs(applied - rhs[1:-1])))
    denom = float(np.max(row_scale)) * max(1.0, float(np.max(np.abs(phi)))) + float(
        np.max(np.abs(rhs))
    )
    if resid > _RESIDUAL_RTOL * denom:
        raise ConsistencyError(
            f"discrete residual {resid:.3e} exceeds {_RESIDUAL_RTOL:.0e} * {denom:.3e}"
        )
    return phi


def matched_log_derivative(v: np.ndarray, tau: float):
    """Discrete (d/dt log v, v) pair matching the divergence form of the equation.

    The stationarity equation is self-adjoint, (phi'/v)' = (c/v) phi, and the
    natural conservative stencil uses the turnover averaged over each interval.
    Rewriting that stencil as phi'' - a phi' - c phi requires

        a[j] = (2/tau) (vbar[j+1/2] - vbar[j-1/2]) / (vbar[j+1/2] + vbar[j-1/2])
        h[j] = harmonic mean of the two adjacent interval averages,

    both second-order consistent with dlog v/dt and v at node j.  Using them
    keeps the boundary solve algebraically equivalent to the optimality
    conditions of the direct quadratic program, so the two routes agree to
    rounding instead of merely to truncation order (the difference matters for
    profiles with steep open/close activity).
    """
    v = np.asarray(v, dtype=float)
    vbar = 0.5 * (v[1:] + v[:-1])
    a = np.zeros(v.size)
    h = v.copy()
    with np.errstate(over="ignore"):  # _solve_bvp rejects a non-finite coefficient
        a[1:-1] = (2.0 / tau) * (vbar[1:] - vbar[:-1]) / (vbar[1:] + vbar[:-1])
    h[1:-1] = 2.0 / (1.0 / vbar[1:] + 1.0 / vbar[:-1])  # no product to overflow
    a[0], a[-1] = a[1], a[-2]
    return a, h


def asymptotic_expansion(profile, market, lam, Phi):
    """First-order expansion of the optimal schedule around volume-proportional.

    Returns (strategy, correction_rate): the composite rate
    zeta0 + lam * correction clipped at zero and renormalized, plus the raw
    (unclipped) first-order rate correction so its convergence can be studied
    directly.  The inventory correction solves

        phi1'' - (d/dt log v) phi1' = (sigma_tilde^2/kappa_tilde) v phi0,
        phi1(0) = phi1(T) = 0,

    where phi0 is the volume-proportional inventory.  Coefficients and right
    side use the same divergence-matched discretization as the boundary-value
    route, which makes phi1 the exact risk-aversion derivative of the direct
    quadratic program's solution family; the rate correction is therefore read
    off as interval differences of phi1 and resampled to the nodes.
    """
    lam = _risk_aversion(lam)
    base = vwap_strategy(profile, Phi)
    phi0 = inventory_from_rate(base).phi
    g = profile.grid
    a, h = matched_log_derivative(profile.v, g.tau)
    rhs = (market.sigma_tilde**2 / market.kappa_tilde) * h * phi0
    phi1 = _solve_bvp(g, a, np.zeros(len(g)), rhs, 0.0, 0.0)
    zeta1 = interval_rates_to_nodes((phi1[:-1] - phi1[1:]) / g.tau)
    composite = np.clip(base.zeta + lam * zeta1, 0.0, None)
    composite *= base.Phi / trapz(composite, g.tau)
    return Strategy(grid=g, zeta=composite, Phi=base.Phi), zeta1


def optimal_inventory_ode(profile, lam, market, Phi) -> InventoryCurve:
    """Risk-adjusted inventory from the stationarity equation of the schedule cost.

    Solves

        phi'' - (d/dt log v) phi' - (sigma_tilde^2 lam / kappa_tilde) v phi = 0,
        phi(0) = Phi, phi(T) = 0,

    with the coefficient pair discretized in divergence-matched form (see
    matched_log_derivative).  The implied rate -phi' is sign-checked and a
    warning is emitted when it dips negative (large lam, strongly front-loaded
    profiles); imposing the nonnegativity bound is the constrained optimizer's
    job, not this solver's.
    """
    lam = _risk_aversion(lam)
    if lam == 0.0:
        raise ValueError(
            f"lam must be positive, got {lam}; the lam -> 0 limit is the "
            "volume-proportional schedule"
        )
    Phi = _block_size(Phi)
    g = profile.grid
    a, h = matched_log_derivative(profile.v, g.tau)
    c = (market.sigma_tilde**2 * lam / market.kappa_tilde) * h
    phi = _solve_bvp(g, a, c, np.zeros(len(g)), Phi, 0.0)
    if np.any(np.diff(phi) > 1e-10 * max(1.0, Phi)):
        warnings.warn(
            "implied execution rate dips below zero; returning the unconstrained solution",
            RuntimeWarning,
            stacklevel=2,
        )
    return InventoryCurve(grid=profile.grid, phi=phi, Phi=Phi)
