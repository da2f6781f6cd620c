"""Realized and expected liquidation costs, and the mean-variance objective.

The realized cost of a schedule against an unaffected price path S0 and a
turnover path v is

    C = S0_0 * Phi - int_0^T S_t zeta_t dt,
    S_t = S0_t - kappa * int_0^t zeta - kappa_tilde * zeta_t / v_t,

and it decomposes exactly (by summation by parts, see _cost_weights) into
permanent impact, temporary impact, and a zero-mean price-risk term.  The
cost is affine in the price path and in 1/v, so one kernel, _cost_weights,
turns a schedule (or one schedule per path) into weight vectors, and every
realized cost in the package contracts them, moved onto the price
increments (_price_weights), with the increments' driver draws.  The
expected/variance formulas below reproduce that decomposition in closed form
for deterministic turnover and for the lognormal turnover model, whose
variance is one formula with its Cov(1/v) double integral in O(n).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConsistencyError
from .grids import cumtrapz, trapz, trapz_weights
from .strategies import Strategy, _risk_aversion, inventory_from_rate
from .volume import GbmVolumeModel, VolumeProfile, gbm_harmonic_mean

_DECOMP_RTOL = 1e-8
_GH_NODES = 32


@dataclass(frozen=True)
class MarketParams:
    """Impact and price parameters: all strictly positive."""

    kappa: float
    kappa_tilde: float
    sigma_tilde: float
    s0: float

    def __post_init__(self):
        for name in ("kappa", "kappa_tilde", "sigma_tilde", "s0"):
            val = float(getattr(self, name))
            if not (val > 0.0 and np.isfinite(val)):
                raise ValueError(f"{name} must be positive and finite, got {val}")
            object.__setattr__(self, name, val)


@dataclass(frozen=True)
class CostBreakdown:
    total: float
    permanent: float
    temporary: float
    price_risk: float

    def __post_init__(self):
        parts = self.permanent + self.temporary + self.price_risk
        scale = max(1.0, abs(self.total), abs(parts))
        if not abs(self.total - parts) <= 1e-10 * scale:
            raise ConsistencyError(
                f"cost parts sum to {parts!r} but total is {self.total!r}"
            )

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "permanent": self.permanent,
            "temporary": self.temporary,
            "price_risk": self.price_risk,
        }


@dataclass(frozen=True)
class MvValue:
    """Mean-variance value E + lam * Var of the liquidation cost."""

    expectation: float
    variance: float
    objective: float
    lam: float

    def __post_init__(self):
        if not (self.variance >= 0.0):
            raise ValueError(f"variance must be nonnegative, got {self.variance}")
        _risk_aversion(self.lam)
        check = self.expectation + self.lam * self.variance
        gap = abs(self.objective - check) if self.objective != check else 0.0  # inf == inf
        if not gap <= 1e-12 * max(1.0, abs(self.objective)):  # a NaN never agrees
            raise ConsistencyError(
                f"objective {self.objective!r} is not expectation + lam * variance = {check!r}"
            )

    def as_dict(self) -> dict:
        return {
            "expectation": self.expectation,
            "variance": self.variance,
            "objective": self.objective,
            "lambda": self.lam,
        }


def _cost_weights(zeta, Phi, tau, market: MarketParams):
    """A schedule's realized cost, affine in the price path S and 1/v.

    `zeta` is one schedule or, with leading path axes, one per path.  Returns
    (risk, direct, temporary, total0, direct0) such that

        total  = S . risk   + (1/v) . temporary + total0
        direct = S . direct + (1/v) . temporary + direct0

    `risk` holds the price-risk weights: at node k, the mean inventory of the
    interval after k minus that of the interval before it (zero outside the
    horizon), plus phi_N at the last node; total0 is the permanent impact
    kappa psi_N^2 / 2.  The direct form is built on its own from the node
    weights c of the trapezoid proceeds, as direct = Phi e_0 - c and
    direct0 = kappa psi . c.  `temporary` = kappa_tilde zeta c serves both.
    Products of interval averages make the discrete integration by parts
    exact (sum Psi_bar dPsi = Psi_N^2 / 2, and S0_0 Phi - sum S0_bar dPsi =
    S0_N phi_N - sum phi_bar dS0), so the two forms agree to rounding.
    """
    zero = np.zeros(zeta.shape[:-1] + (1,))
    sold = tau * 0.5 * (zeta[..., 1:] + zeta[..., :-1])  # shares sold per interval
    psi = np.concatenate([zero, np.cumsum(sold, axis=-1)], axis=-1)
    padded = np.concatenate([zero, sold, zero], axis=-1)
    c = 0.5 * (padded[..., 1:] + padded[..., :-1])  # node weights of the proceeds
    direct = -c
    direct[..., 0] += Phi
    phi = Phi - psi
    phi_bar = 0.5 * (phi[..., 1:] + phi[..., :-1])
    risk = np.diff(np.concatenate([zero, phi_bar, phi[..., -1:]], axis=-1), axis=-1)
    total0 = market.kappa * psi[..., -1] ** 2 / 2.0
    direct0 = market.kappa * _dot(psi, c)
    return risk, direct, market.kappa_tilde * zeta * c, total0, direct0


def _dot(a, b):
    """Row-wise dot product over the last axis, row-stable (unlike BLAS)."""
    return np.einsum("...j,...j->...", a, b)


def _require_agreement(direct, total, path=0, rows=(0,)):
    """ConsistencyError unless the direct and decomposed totals agree to 1e-8
    (a NaN on either side is a disagreement).  The message names the first
    such path (axis 0), as `path` plus its offset, and on it the first
    schedule (axis 1, if any) by its entry of `rows`."""
    gap = np.abs(direct - total)
    bad = ~(gap <= _DECOMP_RTOL * np.maximum(1.0, np.abs(direct)))
    if bad.any():
        at = np.unravel_index(np.argmax(bad), bad.shape)
        i, k = (*map(int, at), 0, 0)[:2]
        raise ConsistencyError(
            f"direct cost and decomposition disagree by {float(gap[at])!r} "
            f"on path {path + i} in schedule row {rows[k]}"
        )


def _price_weights(w):
    """Node weights w moved onto the price increments: with dS_i = S_{i+1} - S_i,
    summation by parts gives S . w = S_0 sum(w) + dS . W, W_i = sum_{k>i} w_k."""
    return w.sum(axis=-1), np.cumsum(w[..., :0:-1], axis=-1)[..., ::-1]


def _price_terms(start, draws, w):
    """S . w, row-wise, for prices that start at `start` and move by the sum
    of scale * x over the (x, scale) pairs of `draws`."""
    total, suffix = _price_weights(w)
    return start * total + sum(scale * _dot(x, suffix) for x, scale in draws)


def _path_costs(start, draws, vol, zeta, Phi, tau, market: MarketParams, path=0):
    """Realized cost on paths (rows) of one schedule, or of one schedule per
    path, priced as in _price_terms: (total, permanent, temporary,
    price_risk), after the direct form is checked against the total; the
    first row is path number `path` of the run."""
    risk, direct, temp, total0, direct0 = _cost_weights(zeta, Phi, tau, market)
    temporary = _dot(1.0 / vol, temp)
    price_risk = _price_terms(start, draws, risk)
    total = price_risk + total0 + temporary
    _require_agreement(_price_terms(start, draws, direct) + direct0 + temporary, total, path)
    return total, total0, temporary, price_risk


class _StaticCosts:
    """Realized cost of K static schedules on a batch of draws, one
    contraction per driver.

    Prices start at s0 and move by dS = sum_d scales[d] x_d over the driver
    draws x_d.  By _price_weights, each schedule's weight vectors (decomposed
    and direct form) price s0 times their sums plus the draws contracted with
    scales[d] times their suffix sums: one (2K, n) matrix per driver, applied
    with einsum("ij,kj->ik"), whose entries do not depend on the batch's rows
    nor on K (a BLAS matmul's do).  Under deterministic turnover (`v` given) the 1/v terms are constants per
    schedule; otherwise one more contraction of 1/vol prices them.  The
    direct and decomposed totals must agree on every path.
    """

    def __init__(self, schedules: Sequence[Strategy], market: MarketParams, scales, v=None):
        risk, direct, temp, total0, direct0 = zip(
            *(_cost_weights(s.zeta, s.Phi, s.grid.tau, market) for s in schedules)
        )
        self.k = len(risk)
        sums, suffix = _price_weights(np.array(risk + direct))
        self.price_w = [scale * suffix for scale in scales]
        self.temp_w = np.array(temp)
        self.total0 = np.array(total0) + market.s0 * sums[: self.k]
        self.direct0 = np.array(direct0) + market.s0 * sums[self.k :]
        if v is not None:
            fixed = np.einsum("kj,j->k", self.temp_w, 1.0 / v)
            self.total0 += fixed
            self.direct0 += fixed
            self.temp_w = None

    def contract(self, draws) -> np.ndarray:
        """Price terms of every weight vector, shape (rows, 2K), from one
        draw array per driver; a mirrored draw's are their negation."""
        both = np.einsum("ij,kj->ik", draws[0], self.price_w[0])
        for x, w in zip(draws[1:], self.price_w[1:]):
            both += np.einsum("ij,kj->ik", x, w)
        return both

    def totals(self, both, vol=None, out=None, path=0, rows=None) -> np.ndarray:
        """Totals of shape (K, paths) from the price terms of `contract`;
        `vol` is read only under stochastic turnover, whose reciprocal goes
        to the leading rows of `out` (a buffer with at least vol's rows,
        allocated when None).  A disagreement names the path, the first
        being `path`, and schedule k as `rows[k]` (k by default)."""
        total = both[:, : self.k] + self.total0
        direct = both[:, self.k :] + self.direct0
        if self.temp_w is not None:
            if not vol.min() > 0.0:
                raise ValueError("turnover path must be strictly positive")
            inverse = np.divide(1.0, vol, out=None if out is None else out[: len(vol)])
            temporary = np.einsum("ij,kj->ik", inverse, self.temp_w)
            total += temporary
            direct += temporary
        _require_agreement(direct, total, path, range(self.k) if rows is None else rows)
        return total.T


def realized_is_cost(price_path, volume_path, s: Strategy, market: MarketParams) -> CostBreakdown:
    """Realized shortfall of a schedule on one (price, turnover) path.

    The permanent/temporary/price-risk parts come from the schedule's cost
    weights; the direct evaluation must agree with their total within 1e-8
    relative (it does to rounding by construction), else ConsistencyError.
    """
    price = np.asarray(price_path, dtype=float)
    vol = np.asarray(volume_path, dtype=float)
    if price.shape != (len(s.grid),) or vol.shape != price.shape:
        raise ValueError(f"expected one path of {len(s.grid)} nodes, got {price.shape}, {vol.shape}")
    if np.any(vol <= 0.0):
        raise ValueError("turnover path must be strictly positive")
    costs = _path_costs(price[0], [(np.diff(price), 1.0)], vol, s.zeta, s.Phi, s.grid.tau, market)
    return CostBreakdown(*map(float, costs))


def market_vwap(price_path, volume_path):
    """Turnover-weighted average price over the horizon (trapezoid weights)."""
    price = np.asarray(price_path, dtype=float)
    vol = np.asarray(volume_path, dtype=float)
    if price.shape != vol.shape:
        raise ValueError(f"path shapes differ: {price.shape} vs {vol.shape}")
    w = trapz_weights(price.shape[-1] - 1, 1.0)
    denom = np.sum(w * vol, axis=-1)
    if np.any(denom <= 0.0):
        raise ValueError("total turnover must be positive")
    out = np.sum(w * price * vol, axis=-1) / denom
    return float(out) if out.ndim == 0 else out


def expected_cost(s: Strategy, profile, market: MarketParams) -> float:
    """E[C] = kappa Phi^2 / 2 + kappa_tilde * int zeta^2 / v dt.

    Under the lognormal turnover model the harmonic mean u_t replaces v_t,
    since E[1/v_t] = 1/u_t.
    """
    if isinstance(profile, VolumeProfile):
        from .grids import require_same_grid

        require_same_grid(profile.grid, s.grid, "profile and strategy")
        v = profile.v
    elif isinstance(profile, GbmVolumeModel):
        v = gbm_harmonic_mean(profile, s.grid).v
    else:
        raise TypeError(f"expected VolumeProfile or GbmVolumeModel, got {type(profile)!r}")
    tau = s.grid.tau
    return float(
        market.kappa * s.Phi**2 / 2.0 + market.kappa_tilde * trapz(s.zeta**2 / v, tau)
    )


def mv_deterministic(s: Strategy, profile: VolumeProfile, lam, market: MarketParams) -> MvValue:
    """Mean-variance value under deterministic turnover.

    The temporary cost is deterministic there, so the variance is just the
    price-risk term sigma_tilde^2 * int phi^2 dt.
    """
    lam = float(lam)
    expectation = expected_cost(s, profile, market)
    phi = inventory_from_rate(s).phi
    variance = market.sigma_tilde**2 * trapz(phi**2, s.grid.tau)
    return MvValue(
        expectation=expectation,
        variance=variance,
        objective=expectation + lam * variance,
        lam=lam,
    )


def _inverse_turnover_factors(model: GbmVolumeModel, times):
    """Factors (a, g) of C[i, j] = Cov(1/v_{t_i}, 1/v_{t_j}) under the lognormal model:

    Cov(1/v_s, 1/v_t) = v0^-2 e^{-(mu - sigma^2)(s + t)} (e^{sigma^2 min(s, t)} - 1)
    = a_s a_t g_min(s, t) with a = e^{-(mu - sigma^2) t} / v0, g = expm1(sigma^2 t).
    """
    a = np.exp(-(model.mu - model.sigma**2) * times) / model.v0
    return a, np.expm1(model.sigma**2 * times)


def _inverse_turnover_cov_dot(factors, q) -> np.ndarray:
    """C q from the factors of _inverse_turnover_factors: for increasing
    times, one prefix and one suffix sum, in O(n) time and memory."""
    a, g = factors
    aq = a * q
    after = np.append(np.cumsum(aq[:0:-1])[::-1], 0.0)  # sum of aq past each index
    return a * (np.cumsum(g * aq) + g * after)


def _cross_moment(model: GbmVolumeModel, times, omega, b) -> float:
    """E[M_T A_T]: covariance of the price-risk martingale with the impact error.

    With M_t = int_0^t phi dW (price driver) and A_T = int zeta^2 (1/v - 1/u) dt,
    the Gaussian cross-moment identity E[X e^Y] = Cov(X, Y) e^{Var(Y)/2} gives

        E[M_T A_T] = -(sigma rho / v0) int_0^T zeta_t^2 e^{-(mu - sigma^2) t} b_t dt,

    where b_t = int_0^t phi_s ds; here as a sum over quadrature points
    `times` with weights omega ~ zeta^2 dt.
    """
    if model.rho == 0.0 or model.sigma == 0.0:
        return 0.0
    e = np.exp(-(model.mu - model.sigma**2) * times)
    return float(-(model.sigma * model.rho / model.v0) * np.sum(omega * e * b))


def _lognormal_variance(cov, market: MarketParams, price_variance, omega, ema):
    """Var(C) under lognormal turnover on one quadrature, and C omega.

    Var(C) = sigma_tilde^2 int phi^2 - 2 sigma_tilde kappa_tilde E[M_T A_T]
             + kappa_tilde^2 omega' C omega,

    with the price variance sigma_tilde^2 int phi^2 given, the Cov(1/v)
    factors `cov` at the quadrature points and weights omega ~ zeta^2 dt for
    the double integral of zeta_s^2 zeta_t^2 Cov(1/v_s, 1/v_t), and the
    cross moment `ema`.
    """
    c_omega = _inverse_turnover_cov_dot(cov, omega)
    variance = (
        price_variance
        - 2.0 * market.sigma_tilde * market.kappa_tilde * ema
        + market.kappa_tilde**2 * np.dot(omega, c_omega)
    )
    return float(variance), c_omega


def _mv_lognormal(s: Strategy, model: GbmVolumeModel, lam, market: MarketParams, cross_moment):
    """Mean-variance value under lognormal turnover on the strategy grid, with
    the cross moment E[M_T A_T] from cross_moment(phi, omega), omega = w zeta^2."""
    lam = float(lam)
    t = s.grid.nodes
    tau = s.grid.tau
    phi = inventory_from_rate(s).phi
    w = trapz_weights(s.grid.n_steps, tau)
    omega = w * s.zeta**2
    ema = cross_moment(phi, omega)
    expectation = expected_cost(s, model, market)
    cov = _inverse_turnover_factors(model, t)
    price_variance = market.sigma_tilde**2 * np.sum(w * phi**2)
    variance, _ = _lognormal_variance(cov, market, price_variance, omega, ema)
    return MvValue(
        expectation=expectation,
        variance=variance,
        objective=expectation + lam * variance,
        lam=lam,
    )


def mv_gbm(s: Strategy, model: GbmVolumeModel, lam, market: MarketParams) -> MvValue:
    """Mean-variance value under lognormal turnover (reduced closed forms).

    Var(C) = sigma_tilde^2 int phi^2 dt
             - 2 sigma_tilde kappa_tilde E[M_T A_T]
             + kappa_tilde^2 intint zeta_s^2 zeta_t^2 Cov(1/v_s, 1/v_t) ds dt,

    with the cross moment in single-integral form (see _cross_moment) and the
    double integral by the trapezoid rule on the strategy grid.
    """
    t, tau = s.grid.nodes, s.grid.tau
    return _mv_lognormal(
        s, model, lam, market, lambda phi, omega: _cross_moment(model, t, omega, cumtrapz(phi, tau))
    )


def mv_gbm_quadrature_check(
    s: Strategy, model: GbmVolumeModel, lam, market: MarketParams
) -> MvValue:
    """mv_gbm with the cross moment evaluated by Gauss-Hermite double quadrature.

    The cross moment is written as an expectation over the correlated pair
    (M_t, B_t) ~ N(0, [[a_t, b_t], [b_t, t]]) with a_t = int_0^t phi^2 and
    b_t = rho int_0^t phi:

        E[M_T A_T] = (1/v0) int zeta_t^2 e^{-(mu - sigma^2/2) t} sqrt(a_t) G_t dt,
        G_t = E[Z exp(-sigma sqrt(t) (r_t Z + sqrt(1 - r_t^2) W))],

    where r_t = b_t / sqrt(a_t t) and Z, W are independent standard normals.
    G_t is evaluated on a 32x32 Gauss-Hermite tensor grid.  Agreement with
    the reduced single-integral form is a validation target, not assumed.
    """
    rho = model.rho
    t = s.grid.nodes
    tau = s.grid.tau

    def cross_moment(phi, omega):
        if rho == 0.0 or model.sigma == 0.0:
            return 0.0
        a = cumtrapz(phi**2, tau)
        b = rho * cumtrapz(phi, tau)
        at = a * t
        r = np.full_like(t, rho)
        ok = at > 0.0
        r[ok] = np.clip(b[ok] / np.sqrt(at[ok]), -1.0, 1.0)

        x, gw = np.polynomial.hermite.hermgauss(_GH_NODES)
        z = np.sqrt(2.0) * x
        coef = -model.sigma * np.sqrt(t)
        arg = coef[:, None, None] * (
            r[:, None, None] * z[:, None] + np.sqrt(1.0 - r**2)[:, None, None] * z[None, :]
        )
        gt = np.sum((gw[:, None] * gw[None, :]) * z[:, None] * np.exp(arg), axis=(1, 2)) / np.pi

        m_half = model.mu - 0.5 * model.sigma**2
        integrand = s.zeta**2 * np.exp(-m_half * t) * np.sqrt(a) * gt
        return float(trapz(integrand, tau) / model.v0)

    return _mv_lognormal(s, model, lam, market, cross_moment)
