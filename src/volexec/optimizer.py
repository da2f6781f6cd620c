"""Optimizers for the mean-variance schedule problem on per-interval rates.

Decision variables are per-interval (piecewise-constant) execution rates, so
the sell-off condition is a single exact linear constraint and the inventory
map is lower-triangular.  Under deterministic turnover the optimum is one
O(n) tridiagonal solve (the bvp module's kernel); a dense KKT active set on
the nonnegativity bounds is its independent reference.  The lognormal-turnover
problem is handled by damped sequential quadratic steps whose model Hessian
keeps the exact curvature of the quadratic terms, each solved by that active set.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bvp import _matched_inventory
from .cost import MarketParams, _cross_moment, _lognormal_variance
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


def _solve_kkt(H, b, tau, Phi, fixed):
    """Equality-constrained QP step: min 1/2 z'Hz - b'z s.t. tau * sum(z) = Phi,
    with the `fixed` coordinates pinned at zero."""
    free = ~fixed
    nf = int(free.sum())
    if nf == 0:
        raise SolverFailureError("all decision variables pinned at zero")
    M = np.zeros((nf + 1, nf + 1))
    M[:nf, :nf] = H[np.ix_(free, free)]
    M[:nf, nf] = tau
    M[nf, :nf] = tau
    rhs = np.concatenate([b[free], [Phi]])
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as e:
        raise SolverFailureError(f"KKT system is singular: {e}") from e
    z = np.zeros(b.size)
    z[free] = sol[:nf]
    return z, float(sol[nf])


def _active_set_qp(H, b, tau, Phi, max_iter):
    """Minimize 1/2 z'Hz - b'z under the sell-off equality and z >= 0.

    Violating bounds are fixed and re-solved; active bounds with negative
    multipliers are released one at a time.  Returns (z, nu, iterations,
    fixed_mask, status).
    """
    n = b.size
    fixed = np.zeros(n, dtype=bool)
    rate_scale = max(abs(Phi) / (tau * n), 1e-300)
    for it in range(1, max_iter + 1):
        z, nu = _solve_kkt(H, b, tau, Phi, fixed)
        violating = z < -_BOUND_TOL * rate_scale
        if violating.any():
            fixed |= violating
            continue
        z[z < 0.0] = 0.0
        grad = H @ z - b
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


def _quadratic_hessian(xbar, lam, market: MarketParams, w, tau):
    """Hessian of kappa_tilde tau sum z^2/xbar + lam sigma_tilde^2 sum w phi^2
    over interval rates: a diagonal plus 2 lam sigma_tilde^2 tau^2 S with
    S[i, j] = sum_{k >= max(i, j)} w_k over nodes 1..N."""
    H = 2.0 * market.kappa_tilde * tau * np.diag(1.0 / xbar)
    if lam > 0.0:
        cw = np.cumsum(w[1:][::-1])[::-1]
        idx = np.arange(cw.size)
        S = cw[np.maximum(idx[:, None], idx[None, :])]
        H += 2.0 * lam * market.sigma_tilde**2 * tau**2 * S
    return H


def _price_variance_gradient(phi, market: MarketParams, w, tau):
    """Gradient of sigma_tilde^2 sum w phi^2 in the interval rates: each rate
    lowers the inventory at every later node, hence a suffix sum."""
    return -2.0 * market.sigma_tilde**2 * tau * np.cumsum((w[1:] * phi[1:])[::-1])[::-1]


def _dense_qp_rates(profile: VolumeProfile, lam, market: MarketParams, Phi):
    """Interval rates of the deterministic optimum from the dense KKT active
    set: O(n^2) memory and O(n^3) time, the independent reference for
    solve_qp_deterministic."""
    grid = profile.grid
    n, tau = grid.n_steps, grid.tau
    vbar = 0.5 * (profile.v[1:] + profile.v[:-1])
    w = trapz_weights(n, tau)
    H = _quadratic_hessian(vbar, lam, market, w, tau)
    # minus the objective's gradient at z = 0, where the inventory stays at Phi
    b = -lam * _price_variance_gradient(np.full(n + 1, Phi), market, w, tau)
    z, _, _, _, status = _active_set_qp(H, b, tau, Phi, max_iter=max(n, 8))
    if status != "converged":
        raise SolverFailureError(f"dense reference QP ended with status {status!r}")
    return z * (Phi / (tau * z.sum()))


def solve_qp_deterministic(profile: VolumeProfile, lam, market: MarketParams, Phi):
    """Optimal schedule under deterministic turnover, in O(n).

    Discretizes kappa Phi^2/2 + lam sigma_tilde^2 int phi^2 + kappa_tilde
    int zeta^2/v over interval rates (interval turnover = mean of the two
    node samples).  The stationarity system is the bvp module's tridiagonal
    matched boundary problem, so the rates are interval differences of one
    solve; positive turnover keeps them positive.  Rates that underflow at
    extreme lam are clipped at zero and reported as active bounds.  The
    status is "converged" when the KKT residual is within tolerance and
    "stalled" otherwise.  Returns the node-sampled Strategy and a
    SolveReport carrying the raw interval rates.
    """
    lam = float(lam)
    if lam < 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    Phi = float(Phi)
    grid = profile.grid
    tau = grid.tau
    phi = _matched_inventory(profile, lam, market, Phi)
    z = np.clip((phi[:-1] - phi[1:]) / tau, 0.0, None)
    z *= Phi / (tau * z.sum())
    vbar = 0.5 * (profile.v[1:] + profile.v[:-1])
    w = trapz_weights(grid.n_steps, tau)

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
        iterations=1,
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
        self.grid = grid
        n = grid.n_steps
        self.tau = grid.tau
        t = grid.nodes
        u = gbm_harmonic_mean(model, grid).v
        self.ubar = 0.5 * (u[1:] + u[:-1])
        self.w = trapz_weights(n, self.tau)
        self.mid = 0.5 * (t[:-1] + t[1:])
        self.emid = np.exp(-(model.mu - model.sigma**2) * self.mid)
        self.cross_coef = model.sigma * model.rho / model.v0
        self.idx = np.arange(1, n + 1, dtype=float)

    def inventory(self, z):
        phi = np.empty(z.size + 1)
        phi[0] = self.Phi
        phi[1:] = self.Phi - self.tau * np.cumsum(z)
        return phi

    def _pieces(self, z):
        mk, tau = self.market, self.tau
        phi = self.inventory(z)
        expect = mk.kappa * self.Phi**2 / 2.0 + mk.kappa_tilde * tau * np.sum(z**2 / self.ubar)
        omega = tau * z**2
        bhat = cumtrapz(phi, tau)
        bmid = 0.5 * (bhat[:-1] + bhat[1:])
        ema = _cross_moment(self.model, self.mid, omega, bmid)
        variance, c_omega = _lognormal_variance(self.model, mk, self.w, phi, self.mid, omega, ema)
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

    def model_hessian(self):
        """Exact Hessian of the quadratic terms (temporary cost + inventory
        variance); constant and positive definite, so steps stay well-posed."""
        return _quadratic_hessian(self.ubar, self.lam, self.market, self.w, self.tau)


def solve_sqp_gbm(model: GbmVolumeModel, lam, market: MarketParams, Phi, grid: TimeGrid):
    """Optimal static schedule under lognormal turnover.

    Damped sequential quadratic steps: the step subproblem keeps the exact
    curvature of the quadratic terms plus a Levenberg shift mu adapted by a
    ratio test, and is solved by the dense active set.  Starts from the
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
    n = grid.n_steps

    z = obj.ubar * (Phi / (tau * obj.ubar.sum()))
    f, g = obj.value_and_gradient(z)
    H = obj.model_hessian()
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
            Hd = H + mu * np.eye(n) if mu > 0.0 else H
            b = Hd @ z - g
            z_new, _, _, _, sub_status = _active_set_qp(Hd, b, tau, Phi, max_iter=max(n, 8))
            if sub_status != "converged":
                mu = max(4.0 * mu, 1e-8)
                continue
            d = z_new - z
            predicted = -(g @ d + 0.5 * d @ (Hd @ d))
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
