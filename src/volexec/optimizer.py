"""Optimizers for the mean-variance schedule problem on per-interval rates.

Decision variables are per-interval (piecewise-constant) execution rates, so
the sell-off condition is a single exact linear constraint.  Both problems
minimize one objective, E + lam Var of the shortfall: its temporary-cost and
price-variance part is a rate-space quadratic model (a diagonal plus the
inventory-variance term), tridiagonal in inventory coordinates, where a
pinned rate merges two nodes, and lognormal turnover adds the variance terms
of 1/v.  One kernel does every solve, each face in O(n): an active set on
the nonnegativity bounds over that model that only pins, never releases,
because the model is a tridiagonal Stieltjes matrix in inventory
coordinates, so every rate negative on a face is pinned at the optimum
too.  Under deterministic turnover the objective is the model plus a
constant and one active-set solve is the optimum; the lognormal-turnover
problem takes damped sequential quadratic steps on it, whose model adds the
turnover terms' O(n) Hessian diagonal, clipped at zero.
Once the pinned rates settle, it finishes on their face with projected
Newton steps (More and Toraldo 1991): conjugate gradients on the exact O(n)
Hessian product, preconditioned by that same step model, which keeps every
iterate on the sell-off equality.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .bvp import _eliminate, _substitute
from .cost import (
    MarketParams,
    _inverse_turnover_cov_dot,
    _inverse_turnover_factors,
    _lognormal_variance,
)
from .errors import SolverFailureError
from .grids import TimeGrid, _frozen, cumtrapz, interval_means, interval_rates_to_nodes, trapz_weights
from .strategies import Strategy, _block_size, _risk_aversion
from .volume import GbmVolumeModel, VolumeProfile, gbm_harmonic_mean

_KKT_TOL = 1e-8
_BOUND_TOL = 1e-12
_SQP_MAX_ITER = 200
_TINY = np.finfo(float).tiny  # the smallest normal number


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

    def face(self, tau, fixed):
        """(b, Phi) -> z minimizing 1/2 z'Hz - b'z s.t. tau sum(z) = Phi and
        z[fixed] = 0, eliminated once for every right-hand side.  In the
        inventory, with x_0 = Phi/tau and x_n = 0, the problem is tridiagonal;
        a pinned rate merges the nodes at its two ends, whose weights add up.
        Its sell-off multiplier, where a caller needs it, comes from
        _multipliers."""
        free = np.flatnonzero(~fixed)
        if free.size == 0:
            raise SolverFailureError("all decision variables pinned at zero")
        dfree = self.d[free]
        # merged node j runs from after free rate j-1 to free rate j: its row
        # couples it to the nodes on either side by those two rates' d, and
        # its excess is k times its merged weight
        excess = self.k * np.add.reduceat(self.w[: free[-1] + 1], free[:-1] + 1)
        factors = _eliminate(dfree[:-1], dfree[1:], excess)

        def solve(b, Phi):
            c = Phi / tau
            rhs = np.diff(b[free])
            rhs[:1] += dfree[:1] * c
            x = np.concatenate([[c], _substitute(factors, rhs), [0.0]])
            z = np.zeros(b.size)
            z[free] = x[:-1] - x[1:]
            return z

        return solve


def _active_set_qp(model: _RateModel, b, tau, Phi):
    """Minimize 1/2 z'Hz - b'z under the sell-off equality and z >= 0, for a
    model with d > 0, k >= 0 and w >= 0, any b and Phi > 0: solve the face,
    pin every negative rate, and repeat until no rate is negative.  A pinned
    rate is never released, as in pool-adjacent-violators for isotonic
    problems (Best and Chakravarti 1990).  Each round pins a new rate and
    none pins them all, since a face's rates sum to Phi/tau > 0, so there are
    at most n face solves.  Returns (z, face_solves, fixed_mask)."""
    # Why no release is needed.  In inventory coordinates a face is a
    # tridiagonal Stieltjes matrix on merged nodes (couplings -d, row sums
    # k W >= 0), whose inverse is G(r, s) = u_min(r,s) v_max(r,s) / c with u
    # increasing from 0 and v decreasing to 0.  Across two distinct edges
    # (s, s+1) left of (r, r+1), G's mixed difference is
    # (u_s - u_{s+1}) (v_r - v_{r+1}) <= 0.  Let P* be the rates pinned at
    # the optimum z*, with multipliers m >= 0.  On the face of pins P, a
    # subset of P*, z* is stationary up to the forces m_j on the edges j in
    # P* \ P, so every edge e not in P* gets z_e - z*_e = -sum_j m_j (mixed
    # difference of e and j) >= 0.  So every negative rate is in P*, P stays
    # a subset of P*, and the first face with no negative rate is z*.
    fixed = np.zeros(b.size, dtype=bool)
    rate_scale = max(abs(Phi) / (tau * b.size), 1e-300)
    face_solves = 0
    while True:
        z = model.face(tau, fixed)(b, Phi)
        face_solves += 1
        violating = z < -_BOUND_TOL * rate_scale
        if not violating.any():
            z[z < 0.0] = 0.0
            return z, face_solves, fixed
        fixed |= violating


def _multipliers(grad, at_bound, tau):
    """(r, mult): the free rates' stationarity residual r = max |grad + tau nu|
    and the bound multipliers mult = grad + tau nu of the rates at_bound, with
    nu the sell-off multiplier that fits the free rates in least squares.
    Some rate is free: the callers' rates sum to Phi/tau > 0."""
    free = ~at_bound
    nu = -float(grad[free].mean()) / tau
    return float(np.abs(grad[free] + tau * nu).max()), grad[at_bound] + tau * nu


def _kkt_residual(grad, z, tau):
    """Scaled first-order residual of min f s.t. tau*sum(z)=Phi and z >= 0."""
    r, mult = _multipliers(grad, z <= 0.0, tau)
    if mult.size:
        r = max(r, float(np.maximum(0.0, -mult).max()))
    return r / max(1.0, float(np.abs(grad).max()))


def _finite(f, g):
    """f, after a check that it and every entry of g are finite."""
    if not (np.isfinite(f) and np.isfinite(g).all()):
        raise FloatingPointError("objective or gradient is not finite")
    return f


class MeanVarianceObjective:
    """E + lam Var of the shortfall as a function of the interval rates z.

    kappa Phi^2/2 is a constant.  The temporary cost and lam times the price
    variance, kappa_tilde tau sum z^2/xbar + lam sigma_tilde^2 sum w phi^2,
    are 1/2 z'Hz with H the rate model that the steps solve, so their
    gradient is Hz.  `xbar` is the interval turnover: the mean of two node
    samples of v, or, under the lognormal `model`, of its harmonic mean u.
    FloatingPointError unless the diagonal 2 kappa_tilde tau / xbar and the
    total turnover tau sum(xbar), which the step rows and the SQP start
    divide by, are finite normal numbers.
    The model adds lam times the Cov(1/v) and cross-moment terms of the cost
    module's variance (on interval midpoints, weights tau z^2).  `evaluate`
    is the one evaluation at a point: it forms those terms' C omega and bmid
    once and returns the value, the gradient and the Hessian from them.
    """

    def __init__(self, xbar, lam, market: MarketParams, Phi, grid: TimeGrid, model=None):
        self.lam = _risk_aversion(lam)
        self.Phi = _block_size(Phi)
        self.market, self.model, self.xbar = market, model, xbar
        n, tau = grid.n_steps, grid.tau
        self.tau, self.permanent = tau, market.kappa * self.Phi**2 / 2.0
        k = 2.0 * self.lam * market.sigma_tilde**2 * tau**2
        with np.errstate(over="ignore"):  # out of range is rejected below
            d, mass = 2.0 * market.kappa_tilde * tau / xbar, tau * np.sum(xbar)
        if not (np.all((d >= _TINY) & (d < np.inf)) and _TINY <= mass < np.inf):
            raise FloatingPointError("rate-model diagonal or interval turnover is out of range")
        self.quad = _RateModel(d, k, trapz_weights(n, tau))
        if model is not None:
            t = grid.nodes
            self.mid = 0.5 * (t[:-1] + t[1:])
            self.emid = np.exp(-(model.mu - model.sigma**2) * self.mid)
            self.cov = _inverse_turnover_factors(model, self.mid)
            self.cross_coef = model.sigma * model.rho / model.v0
            self.idx = np.arange(1, n + 1, dtype=float)

    @np.errstate(over="ignore", invalid="ignore")  # a non-finite f or g is rejected below
    def evaluate(self, z):
        """(f, g, hessian) at z, with omega = tau z^2, C omega and bmid formed
        once.  hessian() gives (curvature, dot) of the exact Hessian from those
        same arrays, in O(n), only when it is called: `curvature` is the
        diagonal of lam times the Cov(1/v) and cross-moment terms' Hessian
        (C_ii = a_i^2 g_i, and d bmid_i / d z_i = -tau^2/4); `dot` maps v to the
        whole objective's Hessian times v: the rate model, plus lam times the
        Cov(1/v) term, 4 kt^2 tau (v C omega + 2 tau z C(z v)), and the cross
        moment's -cc tau (2 e bmid v + 2 z e J v + 2 J'(z e v)) with
        J = d bmid / dz.  Without turnover terms (lam = 0 or deterministic
        turnover) the curvature is zero and the product is the rate model's.
        FloatingPointError when f or g is not finite: no step is taken on NaN."""
        quad = self.quad.dot
        g = quad(z)
        f = self.permanent + 0.5 * float(np.sum(z * g))
        if self.model is None or self.lam == 0.0:
            return _finite(f, g), g, lambda: (np.zeros(z.size), quad)
        mk, tau, cov, cc = self.market, self.tau, self.cov, self.cross_coef
        omega, bmid = tau * z**2, self._bmid(z)
        ema = float(-cc * np.sum(omega * self.emid * bmid)) if cc != 0.0 else 0.0  # E[M_T A_T]
        variance, c_omega = _lognormal_variance(cov, mk, 0.0, omega, ema)
        g_quartic = 4.0 * mk.kappa_tilde**2 * tau * z * c_omega
        if cc != 0.0:
            d_bmid = self._bmid_adjoint(z**2 * self.emid)
            g_ema = -cc * tau * (2.0 * z * self.emid * bmid + d_bmid)
        else:
            g_ema = 0.0
        g_turnover = g_quartic - 2.0 * mk.sigma_tilde * mk.kappa_tilde * g_ema
        g = g + self.lam * g_turnover
        f = _finite(f + self.lam * variance, g)

        def hessian():
            a, gc = cov
            curv = 4.0 * mk.kappa_tilde**2 * tau * (c_omega + 2.0 * tau * z**2 * a**2 * gc)
            if cc != 0.0:
                e_coef = 2.0 * mk.sigma_tilde * mk.kappa_tilde * cc * tau * self.emid
                curv += e_coef * (2.0 * bmid - tau**2 * z)
            quartic = 4.0 * self.lam * mk.kappa_tilde**2 * tau
            cross = 4.0 * self.lam * mk.sigma_tilde * mk.kappa_tilde * cc * tau
            ze, e_bmid = z * self.emid, self.emid * bmid

            def dot(v):
                hv = quad(v) + quartic * (v * c_omega + 2.0 * tau * z * _inverse_turnover_cov_dot(cov, z * v))
                if cross != 0.0:
                    hv += cross * (e_bmid * v + ze * self._bmid(v, 0.0) + self._bmid_adjoint(ze * v))
                return hv

            return self.lam * curv, dot

        return f, g, hessian

    def _bmid(self, z, Phi=None):
        """b_t = int_0^t phi at the midpoints, from the head-form inventory that
        starts at Phi (the objective's own by default); affine in z, with the
        Jacobian that _bmid_adjoint transposes."""
        Phi = self.Phi if Phi is None else Phi
        bhat = cumtrapz(np.concatenate([[Phi], Phi - self.tau * np.cumsum(z)]), self.tau)
        return 0.5 * (bhat[:-1] + bhat[1:])

    def _bmid_adjoint(self, u):
        """J'u for J = d bmid / dz, whose entries are -tau^2 (i - j) below the
        diagonal and -tau^2/4 on it: two suffix sums."""
        s0 = np.concatenate([np.cumsum(u[::-1])[::-1][1:], [0.0]])
        s1 = np.concatenate([np.cumsum((self.idx * u)[::-1])[::-1][1:], [0.0]])
        return -self.tau**2 * (s1 - self.idx * s0 + 0.25 * u)


def _solution(obj: MeanVarianceObjective, grid: TimeGrid, z, iterations, evaluation=None,
              unconverged="stalled"):
    """The node-sampled Strategy and SolveReport of the final rates z, rescaled
    to sell exactly Phi: both solvers end here.  `evaluation` is z's (f, g),
    reused when the rescale leaves z bit for bit as it is; otherwise the
    rescaled rates are evaluated.  The report's objective and KKT residual are
    those of the rates it returns, and its status is "converged" when that
    residual is within tolerance and `unconverged` otherwise."""
    z_out = z * (obj.Phi / (obj.tau * z.sum()))
    if evaluation is None or not np.array_equal(z_out, z):
        evaluation = obj.evaluate(z_out)[:2]
    f, g = evaluation
    kkt = _kkt_residual(g, z_out, obj.tau)
    report = SolveReport(
        objective=f,
        iterations=iterations,
        kkt_residual=kkt,
        active_bounds=tuple(int(i) for i in np.where(z_out == 0.0)[0]),
        status="converged" if kkt <= _KKT_TOL else unconverged,
        zeta_intervals=_frozen(z_out),
    )
    return Strategy(grid=grid, zeta=interval_rates_to_nodes(z_out), Phi=obj.Phi), report


def solve_qp_deterministic(profile: VolumeProfile, lam, market: MarketParams, Phi):
    """Optimal schedule under deterministic turnover, in O(n).

    The objective on interval rates (interval turnover = mean of the two
    node samples) is its rate model plus a constant, so one active-set solve
    is the optimum; rates that underflow at extreme lam are exactly zero,
    reported as active bounds.  `_solution` rescales the rates to sell
    exactly Phi and evaluates them once: the status is "converged" when
    their KKT residual is within tolerance and "stalled" otherwise.
    Returns the node-sampled Strategy and a SolveReport carrying the raw
    interval rates.
    """
    grid = profile.grid
    obj = MeanVarianceObjective(interval_means(profile.v), lam, market, Phi, grid)
    z, iterations, _ = _active_set_qp(obj.quad, np.zeros(grid.n_steps), grid.tau, obj.Phi)
    return _solution(obj, grid, z, iterations)


def _face_newton_direction(hess, g, model: _RateModel, tau, fixed, forcing):
    """Truncated Newton direction on the face z[fixed] = 0, tau sum(z) = const:
    CG on g'd + 1/2 d'Hd with the exact product `hess`, preconditioned by the
    step model solved on the same face (a constraint preconditioner, Gould,
    Hribar and Nocedal 2001), so every iterate keeps d[fixed] = 0 and
    sum(d) = 0.  Stops when the preconditioned residual has fallen by
    `forcing`, or on non-positive curvature (returning the steepest
    preconditioned direction if that comes first)."""
    solve = model.face(tau, fixed)
    d = np.zeros(g.size)
    r = g.copy()
    y = solve(r, 0.0)
    p, ry = -y, float(r @ y)
    stop = forcing**2 * ry
    for j in range(int(np.count_nonzero(~fixed))):
        hp = hess(p)
        curvature = float(p @ hp)
        if curvature <= 0.0:
            return p if j == 0 else d
        alpha = ry / curvature
        d += alpha * p
        r += alpha * hp
        y = solve(r, 0.0)
        ry, ry_old = float(r @ y), ry
        if ry <= stop:
            break
        p = -y + (ry / ry_old) * p
    return d


def _face_newton_step(obj: MeanVarianceObjective, model: _RateModel, hess, z, f, g, kkt):
    """One projected Newton step (More and Toraldo 1991) on the face of the
    pinned rates z == 0, with `hess` the exact Hessian product at z: the bound
    with the most negative multiplier is released first if it outweighs the
    free rates' stationarity residual; the Armijo line search is cut at the
    first bound the step reaches, which is then pinned, and accepts only a
    point that lowers f.  Returns the new z and its evaluation,
    (z, f, g, hessian), or None when no step descends."""
    tau = obj.tau
    fixed = z == 0.0
    stationarity, mult = _multipliers(g, fixed, tau)
    if mult.size and -mult.min() > stationarity:
        fixed[np.flatnonzero(fixed)[np.argmin(mult)]] = False
    d = _face_newton_direction(hess, g, model, tau, fixed, min(0.1, np.sqrt(kkt)))
    slope = float(g @ d)
    if not slope < 0.0:
        return None
    falling = np.flatnonzero(d < 0.0)
    reach = -z[falling] / d[falling]  # step length at which each falling rate hits zero
    alpha = min(1.0, float(reach.min(initial=np.inf)))
    while alpha > 1e-10:
        z_new = np.maximum(z + alpha * d, 0.0)
        z_new[falling[reach == alpha]] = 0.0
        evaluation = obj.evaluate(z_new)
        # the Armijo bound rounds to f itself once 1e-4 alpha slope is below
        # half an ulp of f, so a step must also lower f
        if evaluation[0] < f and evaluation[0] <= f + 1e-4 * alpha * slope:
            return (z_new, *evaluation)
        alpha *= 0.5
    return None


def solve_sqp_gbm(model: GbmVolumeModel, lam, market: MarketParams, Phi, grid: TimeGrid):
    """Optimal static schedule under lognormal turnover.

    Damped sequential quadratic steps on the mean-variance objective: the
    step subproblem is the objective's own rate-space model (the exact
    curvature of its temporary-cost and price-variance terms) plus, on its
    diagonal, the Hessian diagonal of the Cov(1/v) and cross-moment terms at
    the iterate clipped at zero and a Levenberg shift mu adapted by a ratio
    test; the same active set solves it, pinning only, since the clipped
    diagonal and the shift keep the model's diagonal positive.  Each point
    is evaluated once:
    an accepted point's evaluation carries its Hessian, which gives both that
    diagonal and the Newton steps' product.  Once
    two accepted steps in a row each pin the rates that one of the two steps
    before it pinned (a pinned set that settles, or swings between two sets),
    the solve finishes on that face with Newton steps: conjugate gradients
    on the exact Hessian product, preconditioned by the step model, an
    Armijo line search cut at the first bound it reaches, and one bound
    released at a time; a damped step is taken whenever no Newton step
    descends.  Starts from the harmonic-mean-proportional schedule, which is
    already optimal at lam = 0.
    `iterations` counts damped and Newton steps together.  The solve stops
    for one of three reasons: the KKT test passes; no damped step descends
    (the step model predicts no descent, or the shift mu reaches 1e12
    before the ratio test accepts a step); or the iteration budget runs out.
    `_solution` then rescales the rates to sell exactly Phi, and reports
    "converged" when the KKT residual of the rates it returns is within
    tolerance, otherwise "max-iterations" if the budget ran out and
    "stalled" if no step descends.
    """
    u = gbm_harmonic_mean(model, grid).v
    obj = MeanVarianceObjective(interval_means(u), lam, market, Phi, grid, model)
    tau, H, Phi = grid.tau, obj.quad, obj.Phi

    z = obj.xbar * (Phi / (tau * obj.xbar.sum()))
    f, g, hessian = obj.evaluate(z)
    mu = 0.0
    kkt = _kkt_residual(g, z, tau)
    iterations, unconverged = 0, "stalled"
    pinned, stable = [], 0  # the last two accepted steps' pinned sets; recurring steps in a row

    for it in range(1, _SQP_MAX_ITER + 1):
        if kkt <= _KKT_TOL:
            break
        iterations = it
        curvature, hess = hessian()
        diag = H.d + np.maximum(curvature, 0.0)
        if stable >= 2:
            step = _face_newton_step(obj, replace(H, d=diag), hess, z, f, g, kkt)
            if step is not None:
                z, f, g, hessian = step
                kkt = _kkt_residual(g, z, tau)
                continue
            stable = 0
        accepted = False
        while mu < 1e12:
            Hd = replace(H, d=diag + mu)
            b = Hd.dot(z) - g
            z_new = _active_set_qp(Hd, b, tau, Phi)[0]
            d = z_new - z
            predicted = -(g @ d + 0.5 * d @ Hd.dot(d))
            if not predicted > 0.0:
                # z is feasible and z_new minimizes the convex model, so the
                # model predicts no descent only at its own minimizer
                break
            f_new, g_new, h_new = obj.evaluate(z_new)
            ratio = (f - f_new) / predicted
            if ratio < 1e-4:
                mu = max(4.0 * mu, 1e-8)
                continue
            accepted = True
            z, f, g, hessian = z_new, f_new, g_new, h_new
            kkt = _kkt_residual(g, z, tau)
            now = z == 0.0
            stable = stable + 1 if any(np.array_equal(p, now) for p in pinned) else 0
            pinned = [*pinned[-1:], now]
            if ratio > 0.75:
                mu = 0.0 if mu < 1e-10 else mu / 3.0
            elif ratio < 0.25:
                mu = max(4.0 * mu, 1e-8)
            break
        if not accepted:  # no damped step descends
            break
    else:
        unconverged = "max-iterations"
    return _solution(obj, grid, z, iterations, (f, g), unconverged)
