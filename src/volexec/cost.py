"""Realized and expected liquidation costs, and the mean-variance objective.

The realized cost of a schedule against an unaffected price path S0 and a
turnover path v is

    C = S0_0 * Phi - int_0^T S_t zeta_t dt,
    S_t = S0_t - kappa * int_0^t zeta - kappa_tilde * zeta_t / v_t,

and it decomposes exactly (by summation by parts, see _cost_weights) into
permanent impact, temporary impact, and a zero-mean price-risk term.  The
cost is affine in the price path and in 1/v, so one kernel, _cost_weights,
turns a schedule into weight vectors, which the Monte Carlo pass contracts,
moved onto the price increments (_price_weights), with the increments'
driver draws, and, under lognormal turnover, with the paths' v0/v, the
form in which the pass builds them; the direct form's weights are checked
against the decomposition's once per schedule, not on every path.  The
turnover-proportional schedule Phi v / (w . v), rebuilt on each path, pays
the same temporary cost on every path, and its rows are that identity in
closed form (_anticipating_costs).  The expected/variance
formulas below reproduce the decomposition in closed form for
deterministic turnover and for the lognormal turnover model, whose
variance is one formula with its Cov(1/v) double integral in O(n).
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import ConsistencyError
from .grids import cumtrapz, require_same_grid, trapz, trapz_weights
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
        return asdict(self)


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

    Returns (risk, direct, temporary, total0, direct0) such that

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
    sold = tau * 0.5 * (zeta[1:] + zeta[:-1])  # shares sold per interval
    psi = np.concatenate([[0.0], np.cumsum(sold)])
    padded = np.concatenate([[0.0], sold, [0.0]])
    c = 0.5 * (padded[1:] + padded[:-1])  # node weights of the proceeds
    direct = -c
    direct[0] += Phi
    phi = Phi - psi
    phi_bar = 0.5 * (phi[1:] + phi[:-1])
    risk = np.diff(np.concatenate([[0.0], phi_bar, phi[-1:]]))
    with np.errstate(over="ignore"):  # the identity check rejects a non-finite cost
        total0 = market.kappa * psi[-1] ** 2 / 2.0
        direct0 = market.kappa * _dot(psi, c)
        temporary = market.kappa_tilde * zeta * c
    return risk, direct, temporary, total0, direct0


def _dot(a, b):
    """Row-wise dot product over the last axis, row-stable (unlike BLAS)."""
    return np.einsum("...j,...j->...", a, b)


def _require_agreement(gap, size):
    """ConsistencyError unless every gap between the direct and decomposed
    costs is at most 1e-8 max(1, size) (a NaN is a disagreement); the
    message names the first schedule whose gap is not."""
    gap = np.atleast_1d(gap)
    bad = ~(gap <= _DECOMP_RTOL * np.maximum(1.0, size))
    if bad.any():
        k = int(np.argmax(bad))
        raise ConsistencyError(
            f"direct cost and decomposition disagree by {float(gap[k])!r} in schedule {k}"
        )


def _price_weights(w):
    """Node weights w moved onto the price increments: with dS_i = S_{i+1} - S_i,
    summation by parts gives S . w = S_0 sum(w) + dS . W, W_i = sum_{k>i} w_k."""
    return w.sum(axis=-1), np.cumsum(w[..., :0:-1], axis=-1)[..., ::-1]


class _StaticCosts:
    """Realized cost of K static schedules on a batch of draws, one
    contraction per driver.

    Schedule k's prices start at s0 and move by dS = sum_d scales[d, k] x_d
    over the standard-normal driver draws x_d (`scales` is (drivers, K), or
    one scalar per driver for all).  By _price_weights, each schedule's
    decomposed weights price a constant c (s0 times their sums, plus the
    permanent impact) plus the draws contracted with G_d, scales[d, k] times
    their suffix sums: one (K, n) matrix per driver, applied with
    einsum("ij,kj->ik"), whose entries depend neither on the batch's rows nor
    on K (a BLAS matmul's do) nor on whether a row's scalar is shared.
    Under deterministic turnover (`volume` a VolumeProfile) the 1/v terms
    join c; under the lognormal model one more contraction prices them, of
    the paths' v0/v with the temporary weights over the model's v0.  The
    direct form, c' and G', is checked once, on the weights: on a path the
    two forms differ by a Gaussian of mean c - c' and standard deviation
    |G - G'| (the 1/v term is common to both), and ConsistencyError unless
    |c - c'| + 6 |G - G'| <= 1e-8 max(1, |c'| - 6 |G'|), so every path
    within 6 standard deviations meets the per-path test at 1e-8.
    """

    def __init__(self, schedules: Sequence[Strategy], market: MarketParams, scales, volume):
        risk, direct, temp, total0, direct0 = map(
            np.array, zip(*(_cost_weights(s.zeta, s.Phi, s.grid.tau, market) for s in schedules))
        )
        sums, suffix = _price_weights(risk)
        direct_sums, direct_suffix = _price_weights(direct)
        scales = np.asarray(scales, dtype=float).reshape(len(scales), -1)
        self.price_w = [scale[:, None] * suffix for scale in scales]
        self.total0 = total0 + market.s0 * sums
        direct0 = direct0 + market.s0 * direct_sums
        self.temp_w = None
        if isinstance(volume, VolumeProfile):
            fixed = np.einsum("kj,j->k", temp, 1.0 / volume.v)
            self.total0 += fixed
            direct0 += fixed
        else:
            self.temp_w = temp / volume.v0

        def spread(w):  # standard deviation of sum_d x_d . (scales[d, k] w_k)
            return np.sqrt(np.sum(scales**2, axis=0) * _dot(w, w))

        with np.errstate(invalid="ignore"):  # a NaN gap is a disagreement
            gap = np.abs(self.total0 - direct0) + 6.0 * spread(suffix - direct_suffix)
        _require_agreement(gap, np.abs(direct0) - 6.0 * spread(direct_suffix))

    def contract(self, draws) -> np.ndarray:
        """Price terms of every schedule, shape (rows, K), from one draw
        array per driver; a mirrored draw's are their negation."""
        terms = np.einsum("ij,kj->ik", draws[0], self.price_w[0])
        for x, w in zip(draws[1:], self.price_w[1:]):
            terms += np.einsum("ij,kj->ik", x, w)
        return terms

    def totals(self, terms, inverse=None) -> np.ndarray:
        """Totals of shape (K, paths) from the price terms of `contract`;
        `inverse`, the paths' v0/v (nonnegative by construction, so a path
        that has not underflowed to zero turnover has a finite one), is read
        only under stochastic turnover."""
        total = terms + self.total0
        if self.temp_w is not None:
            if not inverse.max() < np.inf:  # a NaN fails too
                raise ValueError("turnover path must be strictly positive")
            total += np.einsum("ij,kj->ik", inverse, self.temp_w)
        return total.T


def _anticipating_costs(draws, scales, inverse, v0, Phi, tau, market: MarketParams):
    """Realized cost of the anticipating schedule zeta = Phi v / M, M = w . v
    (trapezoid weights w), on each turnover path whose v0/v is a row of
    `inverse`, from the draws as in _StaticCosts.  It pays
    kappa_tilde Phi^2 / M of temporary impact on every path and holds
    phi_j = Phi (1 - tau P_j / M), P_j the running trapezoid turnover:
    cost = kappa Phi^2 / 2 + kappa_tilde Phi^2 / M - sum_i dS_i (phi_i + phi_{i+1}) / 2.
    With C_j = v_0 + ... + v_j, written over `inverse` in place of v0/v,
    P_j = (C_{j-1} + C_j - v0) / 2 (C_{-1} = 0) and M = tau P_n, so
    P_i + P_{i+1} = C_{i-1} / 2 + C_i + C_{i+1} / 2 - v0.
    """
    cum = np.divide(v0, inverse, out=inverse)  # the turnover path; v_0 = v0 on every row
    np.cumsum(cum, axis=1, out=cum)
    mass = 0.5 * tau * (cum[:, -2] + cum[:, -1] - v0)
    flat, ramp = 0.0, 0.0
    for x, scale in zip(draws, scales):
        total = np.einsum("ij->i", x)
        flat += scale * total
        half = _dot(x[:, 1:], cum[:, :-2]) + _dot(x, cum[:, 1:])
        ramp += scale * (0.5 * half + _dot(x, cum[:, :-1]) - v0 * total)
    over_mass = market.kappa_tilde * Phi + 0.5 * tau * ramp  # the terms in Phi / M
    return market.kappa * Phi**2 / 2.0 - Phi * flat + (Phi / mass) * over_mass


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
    risk, direct, temp, total0, direct0 = _cost_weights(s.zeta, s.Phi, s.grid.tau, market)
    temporary, price_risk = _dot(1.0 / vol, temp), _dot(price, risk)
    total = price_risk + total0 + temporary
    direct_total = _dot(price, direct) + direct0 + temporary
    _require_agreement(abs(direct_total - total), abs(direct_total))
    return CostBreakdown(*map(float, (total, total0, temporary, price_risk)))


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
        require_same_grid(profile.grid, s.grid, "profile and strategy")
        v = profile.v
    elif isinstance(profile, GbmVolumeModel):
        v = gbm_harmonic_mean(profile, s.grid).v
    else:
        raise TypeError(f"expected VolumeProfile or GbmVolumeModel, got {type(profile)!r}")
    with np.errstate(over="ignore"):  # a non-finite z fails its validate check
        temporary = trapz(s.zeta**2 / v, s.grid.tau)
    return float(market.kappa * s.Phi**2 / 2.0 + market.kappa_tilde * temporary)


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


@np.errstate(over="ignore", invalid="ignore")  # a non-finite variance fails its check
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
