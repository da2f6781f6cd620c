"""The boundary route to the deterministic-turnover optimum: the paper's
Euler-Lagrange equation, solved as written.

The optimum's inventory solves

    (phi'/v)' = (sigma_tilde^2 lam / kappa_tilde) phi,    phi(0) = Phi, phi(T) = 0,

and the first-order correction of the small-risk expansion around the
volume-proportional schedule solves

    (phi1'/v)' = (sigma_tilde^2 / kappa_tilde) phi0,    phi1(0) = phi1(T) = 0.

Both are discretized in conservative form on the uniform grid, with v the
turnover averaged over each interval (the mean of its two node samples).
That stencil is the stationarity condition of the optimizer's rate-space QP,
so the two routes agree to rounding.  The first is one tridiagonal solve by
direct elimination; the optimizer's faces run on the same elimination.  Both
systems are M-matrices given as positive couplings plus a nonnegative row
excess (c h here, k W on a face), and the elimination works on those, never
on a diagonal, so no pivot cancels however far apart the couplings are
(pivot locations are reported on failure, which off-the-shelf banded
solvers hide).  The second has no phi1 term, so its flux phi1'/v is a
first-order recurrence: one prefix sum.
"""
from __future__ import annotations

import warnings

import numpy as np

from .errors import ConsistencyError, SolverFailureError
from .grids import TimeGrid, interval_means, interval_rates_to_nodes, trapz
from .strategies import (
    InventoryCurve,
    Strategy,
    _block_size,
    _risk_aversion,
    inventory_from_rate,
    vwap_strategy,
)

_RESIDUAL_RTOL = 1e-10


def _eliminate(lower, upper, excess):
    """Forward elimination of the M-matrix rows

        -lower[i] x[i-1] + (lower[i] + upper[i] + excess[i]) x[i] - upper[i] x[i+1] = rhs[i],

    given as their couplings and row excess, all >= 0, on Python floats
    (rounded as float64 arrays are, indexed several times faster).  The
    diagonal is never formed: the excess E is carried down the rows,
    E[i] = excess[i] + lower[i] E[i-1] / p[i-1], and each pivot is
    p[i] = upper[i] + E[i], a sum of nonnegative terms that no rounding can
    cancel (Grassmann, Taksar and Heyman 1985).  Row 0's lower coupling
    reaches a boundary value, so all of it is excess.  Returns the factors
    (multipliers, pivots, upper) that _substitute applies to any rhs;
    SolverFailureError naming the node (row + 1) of a pivot that is not a
    positive finite number, which only a negative excess or an overflow
    gives."""
    # pivot holds each row's excess until its pivot overwrites it
    mult, pivot, upper = lower.tolist(), excess.tolist(), upper.tolist()
    inf, carried, p = float("inf"), 1.0, 1.0
    for i in range(len(pivot)):
        mult[i] /= p
        carried = pivot[i] + mult[i] * carried
        p = pivot[i] = upper[i] + carried
        if not 0.0 < p < inf:
            raise SolverFailureError(f"tridiagonal elimination hit a vanishing pivot at node {i + 1}")
    return mult, pivot, upper


def _substitute(factors, rhs) -> np.ndarray:
    """x from the factors of _eliminate and one right-hand side."""
    mult, pivot, upper = factors
    b = rhs.tolist()
    for i in range(1, len(b)):
        b[i] += mult[i] * b[i - 1]
    x = [0.0] * (len(b) + 1)
    for i in range(len(b) - 1, -1, -1):
        x[i] = (b[i] + upper[i] * x[i + 1]) / pivot[i]
    return np.array(x[:-1])


def _solve_bvp(grid: TimeGrid, vbar, c, Phi) -> np.ndarray:
    """phi at every node from (phi'/v)' = c phi, phi(0) = Phi and phi(T) = 0,
    with vbar the turnover over each interval.

    The row of interior node i is the conservative stencil scaled by h, the
    harmonic mean of vbar[i-1] and vbar[i], so that its couplings sum to
    2/tau^2, and negated, so that they are positive and c h is the row
    excess:

        h ((phi[i] - phi[i+1]) / vbar[i] + (phi[i] - phi[i-1]) / vbar[i-1]) / tau^2
            + c h phi[i] = 0.

    Raises ValueError when a coefficient is not finite, SolverFailureError
    (naming the offending node) when elimination meets a pivot that is not
    a positive finite number (c < 0, or an overflow), and ConsistencyError
    when the solution fails the scaled residual check.
    """
    inv2 = 1.0 / grid.tau**2
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        r = 1.0 / vbar
        h = 2.0 / (r[:-1] + r[1:])
        lower, upper, excess = inv2 * (h * r[:-1]), inv2 * (h * r[1:]), c * h
    if not all(np.all(np.isfinite(x)) for x in (vbar, lower, upper, excess)):
        raise ValueError(f"vbar and c = {c} give a non-finite stencil coefficient")
    b = np.zeros(excess.size)
    b[0] = lower[0] * Phi
    x = _substitute(_eliminate(lower, upper, excess), b)
    phi = np.concatenate([[Phi], x, [0.0]])

    mid = phi[1:-1]
    resid = float(np.max(np.abs(lower * (mid - phi[:-2]) + upper * (mid - phi[2:]) + excess * mid)))
    row_sums = 2.0 * (lower + upper) + np.abs(excess)  # of each row's absolute entries
    denom = float(np.max(row_sums)) * max(1.0, float(np.max(np.abs(phi))))
    if resid > _RESIDUAL_RTOL * denom:
        raise ConsistencyError(
            f"discrete residual {resid:.3e} exceeds {_RESIDUAL_RTOL:.0e} * {denom:.3e}"
        )
    return phi


def asymptotic_expansion(profile, market, lam, Phi):
    """First-order expansion of the optimal schedule around volume-proportional.

    Returns (strategy, correction_rate): the composite rate
    zeta0 + lam * correction clipped at zero and renormalized, plus the raw
    (unclipped) first-order rate correction so its convergence can be studied
    directly.  The inventory correction solves (phi1'/v)' =
    (sigma_tilde^2/kappa_tilde) phi0 with phi1(0) = phi1(T) = 0, phi0 the
    volume-proportional inventory, in the stencil of _solve_bvp: the exact
    risk-aversion derivative of the QP's solution family.  With no phi1
    term, the flux over interval j is the first interval's plus tau
    sigma_tilde^2/kappa_tilde times the sum of phi0 over the interior nodes
    up to j, so the interval rates are

        vbar (C - held) tau sigma_tilde^2 / kappa_tilde,

    with held that running sum and C its vbar-weighted mean, so that the
    correction sells nothing.  They are resampled to the nodes.
    """
    lam = _risk_aversion(lam)
    base = vwap_strategy(profile, Phi)
    phi0 = inventory_from_rate(base).phi
    g = profile.grid
    with np.errstate(over="ignore", invalid="ignore"):  # Strategy rejects a non-finite rate
        vbar = interval_means(profile.v)
        # summed from the heaviest interval, where C - held would cancel
        held = np.concatenate([[0.0], np.cumsum(phi0[1:-1])])
        held -= held[np.argmax(vbar)]
        C = np.average(held, weights=vbar / vbar.max())
        rates = vbar * (C - held) * (g.tau * (market.sigma_tilde**2 / market.kappa_tilde))
        zeta1 = interval_rates_to_nodes(rates)
        composite = np.clip(base.zeta + lam * zeta1, 0.0, None)
        composite *= base.Phi / trapz(composite, g.tau)
    return Strategy(grid=g, zeta=composite, Phi=base.Phi), zeta1


def optimal_inventory_ode(profile, lam, market, Phi) -> InventoryCurve:
    """Risk-adjusted inventory from the Euler-Lagrange equation of the schedule
    cost, (phi'/v)' = (sigma_tilde^2 lam / kappa_tilde) phi with phi(0) = Phi
    and phi(T) = 0, by _solve_bvp.

    The implied rate -phi' is sign-checked and a warning is emitted when it
    dips negative (large lam, strongly front-loaded profiles); imposing the
    nonnegativity bound is the constrained optimizer's job, not this solver's.
    """
    lam = _risk_aversion(lam)
    if lam == 0.0:
        raise ValueError(
            f"lam must be positive, got {lam}; the lam -> 0 limit is the "
            "volume-proportional schedule"
        )
    Phi = _block_size(Phi)
    vbar = interval_means(profile.v)
    phi = _solve_bvp(profile.grid, vbar, market.sigma_tilde**2 * lam / market.kappa_tilde, Phi)
    if np.any(np.diff(phi) > 1e-10 * max(1.0, Phi)):
        warnings.warn(
            "implied execution rate dips below zero; returning the unconstrained solution",
            RuntimeWarning,
            stacklevel=2,
        )
    return InventoryCurve(grid=profile.grid, phi=phi, Phi=Phi)
