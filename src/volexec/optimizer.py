"""Optimizers for the mean-variance schedule problem on per-interval rates.

Decision variables are per-interval (piecewise-constant) execution rates, so
the sell-off condition is a single exact linear constraint.  Both problems
share one kernel: an active set on the nonnegativity bounds over a rate-space
quadratic model (a diagonal plus the inventory-variance term), tridiagonal in
inventory coordinates, where a pinned rate merges two nodes; every product and
every equality-constrained solve is O(n).  Under deterministic turnover the
objective is that model and one active-set solve is the optimum; the
lognormal-turnover problem takes damped sequential quadratic steps on it.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .bvp import _solve_tridiagonal
from .cost import MarketParams, _cross_moment, _inverse_turnover_factors, _lognormal_variance
from .errors import SolverFailureError
from .grids import TimeGrid, _frozen, cumtrapz, interval_rates_to_nodes, trapz_weights
from .strategies import Strategy
from .volume import GbmVolumeModel, VolumeProfile, gbm_harmonic_mean

_KKT_TOL = 1e-8
_OBJ_DECREASE_TOL = 1e-12
_BOUND_TOL = 1e-12
_SQP_MAX_ITER = 200


@dataclass(frozen=True)
class SolveReport:
    objective: float
    iterations: int
    kkt_residual: float
    active_bounds: tuple
    status: str
    zeta_intervals: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def as_dict(self) -> dict:
        return {
            "objective": self.objective,
            "iterations": self.iterations,
            "kkt_residual": self.kkt_residual,
            "active_bounds": list(self.active_bounds),
            "status": self.status,
        }


@dataclass(frozen=True)
class _RateModel:
    """Quadratic model 1/2 z'Hz over the n interval rates, H = diag(d) + k T:
    the Hessian of 1/2 sum d z^2 + 1/2 k sum_m w_m x_m^2 in the inventory
    x_m = sum_{i >= m} z_i (in units of tau), so T[i, j] = sum_{m <= min(i, j)} w_m.
    No n x n array is ever formed."""

    d: np.ndarray
    k: float
    w: np.ndarray

    def dot(self, z) -> np.ndarray:
        """H z: the inventory (a suffix sum of z), then a prefix sum of w x."""
        x = np.cumsum(z[::-1])[::-1]
        return self.d * z + self.k * np.cumsum(self.w[:-1] * x)

    def solve(self, b, tau, Phi, fixed):
        """(z, nu) minimizing 1/2 z'Hz - b'z s.t. tau sum(z) = Phi and z[fixed] = 0,
        with nu the sell-off multiplier.  In the inventory, with x_0 = Phi/tau
        and x_n = 0, the problem is tridiagonal; a pinned rate merges the nodes
        at its two ends, whose weights add up."""
        free = np.flatnonzero(~fixed)
        if free.size == 0:
            raise SolverFailureError("all decision variables pinned at zero")
        c, dfree = Phi / tau, self.d[free]
        # merged node j runs from after free rate j-1 to free rate j; rows are
        # scaled so that their couplings sum to 2, as in the boundary problem's
        # stencil, and the small node term of the diagonal survives rounding
        scale = 2.0 / (dfree[:-1] + dfree[1:])
        lower, upper = -scale * dfree[:-1], -scale * dfree[1:]
        diag = 2.0 + scale * self.k * np.add.reduceat(self.w[: free[-1] + 1], free[:-1] + 1)
        rhs = scale * np.diff(b[free])
        rhs[:1] -= lower[:1] * c
        x = np.concatenate([[c], _solve_tridiagonal(lower, diag, upper, rhs, diag + 2.0), [0.0]])
        z = np.zeros(b.size)
        z[free] = x[:-1] - x[1:]
        # stationarity in the first free rate; the inventory is c up to it
        f0 = free[0]
        grad0 = dfree[0] * z[f0] + self.k * c * float(np.sum(self.w[: f0 + 1])) - b[f0]
        return z, -float(grad0) / tau


def _rate_model(xbar, lam, market: MarketParams, w, tau) -> _RateModel:
    """kappa_tilde tau sum z^2/xbar + lam sigma_tilde^2 sum w phi^2 as a model."""
    k = 2.0 * lam * market.sigma_tilde**2 * tau**2
    return _RateModel(2.0 * market.kappa_tilde * tau / xbar, k, w)


def _active_set_qp(model: _RateModel, b, tau, Phi, max_iter):
    """Minimize 1/2 z'Hz - b'z under the sell-off equality and z >= 0: violating
    bounds are fixed and re-solved, active bounds with negative multipliers are
    released one at a time (Nocedal & Wright, section 16.5).  Returns (z, nu,
    iterations, fixed_mask, status)."""
    n = b.size
    fixed = np.zeros(n, dtype=bool)
    rate_scale = max(abs(Phi) / (tau * n), 1e-300)
    for it in range(1, max_iter + 1):
        z, nu = model.solve(b, tau, Phi, fixed)
        violating = z < -_BOUND_TOL * rate_scale
        if violating.any():
            fixed |= violating
            continue
        z[z < 0.0] = 0.0
        grad = model.dot(z) - b
        active = np.where(fixed)[0]
        if active.size:
            mult = grad[active] + tau * nu
            worst = int(np.argmin(mult))
            if mult[worst] < -_BOUND_TOL * max(1.0, float(np.abs(grad).max())):
                fixed[active[worst]] = False
                continue
        return z, nu, it, fixed, "converged"
    return z, nu, max_iter, fixed, "max-iterations"


def _kkt_residual(grad, z, tau):
    """Scaled first-order residual of min f s.t. tau*sum(z)=Phi and z >= 0."""
    at_bound = z <= 0.0
    free = ~at_bound
    if free.any():
        nu = -float(grad[free].mean()) / tau
    else:
        nu = 0.0
    r = 0.0
    if free.any():
        r = float(np.abs(grad[free] + tau * nu).max())
    if at_bound.any():
        mult = grad[at_bound] + tau * nu
        r = max(r, float(np.maximum(0.0, -mult).max()))
    return r / max(1.0, float(np.abs(grad).max()))


def _price_variance_gradient(phi, market: MarketParams, w, tau):
    """Gradient of sigma_tilde^2 sum w phi^2 in the interval rates: each rate
    lowers the inventory at every later node, hence a suffix sum."""
    return -2.0 * market.sigma_tilde**2 * tau * np.cumsum((w[1:] * phi[1:])[::-1])[::-1]


def solve_qp_deterministic(profile: VolumeProfile, lam, market: MarketParams, Phi):
    """Optimal schedule under deterministic turnover, in O(n).

    Discretizes kappa Phi^2/2 + lam sigma_tilde^2 int phi^2 + kappa_tilde
    int zeta^2/v over interval rates (interval turnover = mean of the two
    node samples).  That objective is its own rate-space model, so one
    active-set solve is the optimum; positive turnover keeps it nonnegative,
    and rates that underflow at extreme lam are exactly zero, reported as
    active bounds.  The status is "converged" when the KKT residual is within
    tolerance and "stalled" otherwise.  Returns the node-sampled Strategy and
    a SolveReport carrying the raw interval rates.
    """
    lam = float(lam)
    if lam < 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    Phi = float(Phi)
    if Phi <= 0.0:
        raise ValueError(f"Phi must be positive, got {Phi}")
    grid = profile.grid
    n, tau = grid.n_steps, grid.tau
    vbar = 0.5 * (profile.v[1:] + profile.v[:-1])
    w = trapz_weights(n, tau)
    model = _rate_model(vbar, lam, market, w, tau)
    z, _, iterations, _, status = _active_set_qp(model, np.zeros(n), tau, Phi, max_iter=max(n, 8))
    if status != "converged":
        raise SolverFailureError(f"deterministic QP ended with status {status!r}")
    z *= Phi / (tau * z.sum())

    # inventory as the tail sums of the rates still to sell: Phi - tau*cumsum(z)
    # would leave rounding residue where the inventory is tiny, and at large
    # lam that residue dominates the price-risk gradient
    phi = np.append(tau * np.cumsum(z[::-1])[::-1], 0.0)
    objective = float(
        market.kappa * Phi**2 / 2.0
        + market.kappa_tilde * tau * np.sum(z**2 / vbar)
        + lam * market.sigma_tilde**2 * np.sum(w * phi**2)
    )
    grad = 2.0 * market.kappa_tilde * tau * z / vbar
    grad += lam * _price_variance_gradient(phi, market, w, tau)
    kkt = _kkt_residual(grad, z, tau)
    report = SolveReport(
        objective=objective,
        iterations=iterations,
        kkt_residual=kkt,
        active_bounds=tuple(int(i) for i in np.where(z == 0.0)[0]),
        status="converged" if kkt <= _KKT_TOL else "stalled",
        zeta_intervals=_frozen(z),
    )
    strategy = Strategy(grid=grid, zeta=interval_rates_to_nodes(z), Phi=Phi)
    return strategy, report


class GbmObjective:
    """Mean-variance objective E + lam Var on interval rates, with analytic gradient.

    The variance is the cost module's lognormal variance on interval
    midpoints, with weights tau z^2; the inventory enters through the exact
    lower-triangular map.
    """

    def __init__(self, model: GbmVolumeModel, lam, market: MarketParams, Phi, grid: TimeGrid):
        self.model = model
        self.market = market
        self.lam = float(lam)
        self.Phi = float(Phi)
        n = grid.n_steps
        self.tau = grid.tau
        t = grid.nodes
        u = gbm_harmonic_mean(model, grid).v
        self.ubar = 0.5 * (u[1:] + u[:-1])
        self.w = trapz_weights(n, self.tau)
        self.mid = 0.5 * (t[:-1] + t[1:])
        self.emid = np.exp(-(model.mu - model.sigma**2) * self.mid)
        self.cov = _inverse_turnover_factors(model, self.mid)
        self.cross_coef = model.sigma * model.rho / model.v0
        self.idx = np.arange(1, n + 1, dtype=float)

    def _pieces(self, z):
        mk, tau = self.market, self.tau
        phi = np.concatenate([[self.Phi], self.Phi - self.tau * np.cumsum(z)])
        expect = mk.kappa * self.Phi**2 / 2.0 + mk.kappa_tilde * tau * np.sum(z**2 / self.ubar)
        omega = tau * z**2
        bhat = cumtrapz(phi, tau)
        bmid = 0.5 * (bhat[:-1] + bhat[1:])
        ema = _cross_moment(self.model, self.mid, omega, bmid)
        variance, c_omega = _lognormal_variance(self.cov, mk, self.w, phi, omega, ema)
        return expect, variance, phi, c_omega, bmid

    def value(self, z):
        expect, variance, _, _, _ = self._pieces(z)
        return expect + self.lam * variance

    def value_and_gradient(self, z):
        mk, tau = self.market, self.tau
        expect, variance, phi, c_omega, bmid = self._pieces(z)
        g = 2.0 * mk.kappa_tilde * tau * z / self.ubar
        if self.lam > 0.0:
            g_price = _price_variance_gradient(phi, mk, self.w, tau)
            g_quartic = 4.0 * mk.kappa_tilde**2 * tau * z * c_omega
            if self.cross_coef != 0.0:
                qe = z**2 * self.emid
                s0 = np.concatenate([np.cumsum(qe[::-1])[::-1][1:], [0.0]])
                s1 = np.concatenate([np.cumsum((self.idx * qe)[::-1])[::-1][1:], [0.0]])
                d_bmid = s1 - self.idx * s0 + 0.25 * qe
                g_ema = -self.cross_coef * tau * (
                    2.0 * z * self.emid * bmid - tau**2 * d_bmid
                )
            else:
                g_ema = 0.0
            g = g + self.lam * (g_price - 2.0 * mk.sigma_tilde * mk.kappa_tilde * g_ema + g_quartic)
        return expect + self.lam * variance, g


def solve_sqp_gbm(model: GbmVolumeModel, lam, market: MarketParams, Phi, grid: TimeGrid):
    """Optimal static schedule under lognormal turnover.

    Damped sequential quadratic steps: the step subproblem is the
    deterministic problem's rate-space model (the exact curvature of the
    quadratic terms) plus a Levenberg shift mu adapted by a ratio test, and
    is solved by the same O(n) active set.  Starts from the
    harmonic-mean-proportional schedule, which is already optimal at lam = 0.
    The status is "converged" only when the KKT residual is within
    tolerance, "max-iterations" when the iteration budget runs out, and
    "stalled" when no step lowers the objective any more.
    """
    lam = float(lam)
    if lam < 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    Phi = float(Phi)
    if Phi <= 0.0:
        raise ValueError(f"Phi must be positive, got {Phi}")
    obj = GbmObjective(model, lam, market, Phi, grid)
    tau = grid.tau

    z = obj.ubar * (Phi / (tau * obj.ubar.sum()))
    f, g = obj.value_and_gradient(z)
    H = _rate_model(obj.ubar, lam, market, obj.w, tau)
    mu = 0.0
    status = "max-iterations"
    kkt = _kkt_residual(g, z, tau)
    iterations = 0

    for it in range(1, _SQP_MAX_ITER + 1):
        if kkt <= _KKT_TOL:
            break
        iterations = it
        decrease = None
        while mu < 1e12:
            Hd = replace(H, d=H.d + mu) if mu > 0.0 else H
            b = Hd.dot(z) - g
            z_new, _, _, _, sub_status = _active_set_qp(Hd, b, tau, Phi, max(grid.n_steps, 8))
            if sub_status != "converged":
                mu = max(4.0 * mu, 1e-8)
                continue
            d = z_new - z
            predicted = -(g @ d + 0.5 * d @ Hd.dot(d))
            f_new = obj.value(z_new)
            if predicted <= 0.0:
                # the model says "no descent left": accept only an actual improvement
                if f_new < f:
                    ratio = 1.0
                else:
                    break
            else:
                ratio = (f - f_new) / predicted
            if ratio < 1e-4:
                mu = max(4.0 * mu, 1e-8)
                continue
            decrease = f - f_new
            z, f = z_new, f_new
            _, g = obj.value_and_gradient(z)
            kkt = _kkt_residual(g, z, tau)
            if ratio > 0.75:
                mu = 0.0 if mu < 1e-10 else mu / 3.0
            elif ratio < 0.25:
                mu = max(4.0 * mu, 1e-8)
            break
        if decrease is None or decrease <= _OBJ_DECREASE_TOL * max(1.0, abs(f)):
            # no step, or a step that no longer lowers the objective
            status = "stalled"
            break
    if kkt <= _KKT_TOL:
        status = "converged"

    z = np.clip(z * (Phi / (tau * z.sum())), 0.0, None)
    report = SolveReport(
        objective=float(obj.value(z)),
        iterations=iterations,
        kkt_residual=float(kkt),
        active_bounds=tuple(int(i) for i in np.where(z == 0.0)[0]),
        status=status,
        zeta_intervals=_frozen(z),
    )
    strategy = Strategy(grid=grid, zeta=interval_rates_to_nodes(z), Phi=Phi)
    return strategy, report
