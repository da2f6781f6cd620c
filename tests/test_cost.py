import numpy as np
import pytest

from volexec.cost import (
    CostBreakdown,
    MarketParams,
    MvValue,
    expected_cost,
    market_vwap,
    mv_deterministic,
    mv_gbm,
    mv_gbm_quadrature_check,
    realized_is_cost,
    _inverse_turnover_cov_dot,
    _inverse_turnover_factors,
)
from volexec.errors import ConsistencyError
from volexec.grids import build_grid, trapz
from volexec.strategies import Strategy, vwap_strategy
from volexec.volume import GbmVolumeModel, arcsine_profile, constant_profile

from conftest import decompose, inverse_turnover_covariance, joint_paths, make_twap

# TWAP over unit turnover with kappa = 0.1, kappa_tilde = 0.02, Phi = 1:
# permanent 0.05 + temporary 0.02.
TWAP_EXPECTED_COST = 0.07
# Analytic variances of the TWAP cost under the lognormal turnover model
# (v0 = 1, mu = -0.02, sigma = 0.2, sigma_tilde = 0.2, 200 steps), frozen
# from the closed-form kernels.
TWAP_GBM_VAR_RHO09 = 0.013837700610640859
TWAP_GBM_VAR_RHO0 = 0.013339308592262043


def _flat_paths(n_nodes, s0, n_paths=1):
    price = np.full((n_paths, n_nodes), s0)
    vol = np.ones((n_paths, n_nodes))
    return price, vol


def _seeded_paths(grid, s0, n_paths, seed):
    rng = np.random.default_rng(seed)
    dS = 0.3 * np.sqrt(grid.tau) * rng.standard_normal((n_paths, grid.n_steps))
    price = s0 + np.concatenate([np.zeros((n_paths, 1)), np.cumsum(dS, axis=1)], axis=1)
    vol = np.exp(0.2 * rng.standard_normal((n_paths, len(grid))))
    return price, vol


def test_market_params_validation():
    for field in ("kappa", "kappa_tilde", "sigma_tilde", "s0"):
        kw = dict(kappa=0.1, kappa_tilde=0.02, sigma_tilde=0.1, s0=100.0)
        kw[field] = 0.0
        with pytest.raises(ValueError):
            MarketParams(**kw)


def test_breakdown_and_mv_invariants():
    with pytest.raises(ConsistencyError):
        CostBreakdown(total=1.0, permanent=0.3, temporary=0.3, price_risk=0.3)
    with pytest.raises(ValueError):
        MvValue(expectation=1.0, variance=-0.1, objective=1.0, lam=1.0)
    with pytest.raises(ConsistencyError):
        MvValue(expectation=1.0, variance=0.5, objective=1.2, lam=1.0)
    d = MvValue(expectation=1.0, variance=0.5, objective=1.5, lam=1.0).as_dict()
    assert d["lambda"] == 1.0



def test_mv_value_rejects_nan():
    with pytest.raises(ValueError):
        MvValue(expectation=1.0, variance=np.nan, objective=np.nan, lam=1.0)
    with pytest.raises(ConsistencyError):
        MvValue(expectation=1.0, variance=0.5, objective=np.nan, lam=1.0)
    inf = MvValue(expectation=1.0, variance=np.inf, objective=np.inf, lam=1.0)
    assert inf.objective == np.inf


def test_mv_gbm_infinite_variance():
    """At v0 = 1e-300 the Cov(1/v) factors overflow: lam = 1 reports an
    infinite variance, and at lam = 0 the objective 0 * inf is NaN, an error."""
    g = build_grid(1.0, 10)
    model = GbmVolumeModel(1e-300, -0.02, 0.2, rho=0.0)
    market = MarketParams(kappa=0.1, kappa_tilde=0.02, sigma_tilde=0.2, s0=100.0)
    s = make_twap(g)
    with np.errstate(over="ignore"):
        assert mv_gbm(s, model, 1.0, market).variance == np.inf
        with pytest.raises(ConsistencyError):
            mv_gbm(s, model, 0.0, market)

def test_flat_price_twap_cost(market, grid200, twap200):
    price, vol = _flat_paths(len(grid200), market.s0)
    out = realized_is_cost(price[0], vol[0], twap200, market)
    assert abs(out.total - TWAP_EXPECTED_COST) < 1e-9
    assert abs(out.price_risk) < 1e-12
    assert out.permanent == pytest.approx(0.05, abs=1e-10)
    assert out.temporary == pytest.approx(0.02, abs=1e-10)


def test_realized_cost_invariant_under_price_shift(market, grid200, twap200):
    price, vol = _seeded_paths(grid200, market.s0, 1, seed=2)
    a = realized_is_cost(price[0], vol[0], twap200, market)
    b = realized_is_cost(price[0] + 7.5, vol[0], twap200, market)
    # a parallel shift moves the mark and the proceeds by the same amount
    assert abs(a.total - b.total) < 1e-10


def test_decomposition_consistency_on_noise(market, grid200, twap200):
    price, vol = _seeded_paths(grid200, market.s0, 8, seed=4)
    for i in range(8):
        out = realized_is_cost(price[i], vol[i], twap200, market)
        parts = out.permanent + out.temporary + out.price_risk
        assert abs(out.total - parts) <= 1e-10 * max(1.0, abs(out.total))


@pytest.mark.parametrize("shape", ["twap", "shaped"])
def test_realized_parts_match_oracle(market, grid200, shape):
    """Each part priced from the cost weights equals the interval-average
    decomposition on seeded lognormal-turnover paths."""
    from volexec.montecarlo import SimulationConfig

    model = GbmVolumeModel(1.0, -0.02, 0.3, rho=0.4)
    cfg = SimulationConfig(n_paths=16, seed=5, grid=grid200, market=market, volume=model)
    price, vol = joint_paths(cfg)
    z = (grid200.nodes + 0.05) ** (0.0 if shape == "twap" else 1.5)
    s = Strategy(grid=grid200, zeta=z / trapz(z, grid200.tau), Phi=1.0)
    tol = 1e-12 * max(1.0, market.s0 * s.Phi)
    for i in range(cfg.n_paths):
        out = realized_is_cost(price[i], vol[i], s, market)
        ref = decompose(price[i], vol[i], s.zeta, s.Phi, grid200.tau, market)
        got = (out.total, out.permanent, out.temporary, out.price_risk)
        assert np.max(np.abs(np.subtract(got, ref))) <= tol


def test_vwap_slippage_zero_when_tracking_volume(market):
    g = build_grid(1.0, 150)
    rng = np.random.default_rng(8)
    vol = np.exp(0.3 * rng.standard_normal(len(g)))
    price = market.s0 + np.cumsum(0.1 * rng.standard_normal(len(g)))
    s = Strategy(grid=g, zeta=vol / trapz(vol, g.tau), Phi=1.0)
    assert abs(market_vwap(price, s.zeta) - market_vwap(price, vol)) < 1e-10


def test_vwap_slippage_sign_front_loading(market, grid200):
    # selling early into a rising price realizes less than market VWAP
    price = market.s0 + grid200.nodes
    vol = np.ones(len(grid200))
    zeta = 2.0 * (1.0 - grid200.nodes)
    front = Strategy(grid=grid200, zeta=zeta / trapz(zeta, grid200.tau), Phi=1.0)
    assert market_vwap(price, front.zeta) - market_vwap(price, vol) < 0.0


def test_expected_cost_twap_exact(market, grid200, twap200):
    p = constant_profile(grid200, 1.0)
    assert expected_cost(twap200, p, market) == pytest.approx(TWAP_EXPECTED_COST, rel=1e-14)


def test_expected_cost_vwap_arcsine(market, arcsine500):
    s = vwap_strategy(arcsine500, 1.0)
    mass = trapz(arcsine500.v, arcsine500.grid.tau)
    # zeta^2 / v = gamma^2 v, so the temporary term collapses to kt * gamma^2 * mass
    expect = market.kappa / 2.0 + market.kappa_tilde / mass
    assert expected_cost(s, arcsine500, market) == pytest.approx(expect, rel=1e-13)


def test_expected_cost_quadratic_in_phi(market, arcsine500):
    a = expected_cost(vwap_strategy(arcsine500, 1.0), arcsine500, market)
    b = expected_cost(vwap_strategy(arcsine500, 2.0), arcsine500, market)
    assert b == pytest.approx(4.0 * a, rel=1e-13)


def test_expected_cost_gbm_uses_harmonic_mean(market, gbm_model, grid200, twap200):
    from volexec.volume import gbm_harmonic_mean

    got = expected_cost(twap200, gbm_model, market)
    u = gbm_harmonic_mean(gbm_model, grid200).v
    manual = market.kappa / 2.0 + market.kappa_tilde * trapz(1.0 / u, grid200.tau)
    assert got == pytest.approx(manual, rel=1e-13)


def test_mv_deterministic_twap_variance(market, grid200, twap200):
    p = constant_profile(grid200, 1.0)
    out = mv_deterministic(twap200, p, 2.0, market)
    # trapezoid rule on the quadratic (1-t)^2 is exact up to the tau^2/6 term
    exact = market.sigma_tilde**2 * (1.0 / 3.0 + grid200.tau**2 / 6.0)
    assert out.variance == pytest.approx(exact, rel=1e-13)
    assert out.objective == pytest.approx(out.expectation + 2.0 * out.variance, rel=1e-15)


def test_mv_gbm_frozen_values(market_hi, grid200):
    s = make_twap(grid200)
    hi = mv_gbm(s, GbmVolumeModel(1.0, -0.02, 0.2, rho=0.9), 10.0, market_hi)
    flat = mv_gbm(s, GbmVolumeModel(1.0, -0.02, 0.2, rho=0.0), 10.0, market_hi)
    assert hi.variance == pytest.approx(TWAP_GBM_VAR_RHO09, rel=1e-12)
    assert flat.variance == pytest.approx(TWAP_GBM_VAR_RHO0, rel=1e-12)


def test_mv_gbm_variance_increases_with_rho(market_hi, grid200):
    s = make_twap(grid200)
    out = [
        mv_gbm(s, GbmVolumeModel(1.0, -0.02, 0.2, rho=r), 1.0, market_hi).variance
        for r in (-0.9, 0.0, 0.9)
    ]
    assert out[0] < out[1] < out[2]


def test_mv_gbm_quadrature_agreement(market_hi, grid200):
    s = make_twap(grid200)
    for rho in (-0.5, 0.9):
        model = GbmVolumeModel(1.0, -0.02, 0.2, rho=rho)
        a = mv_gbm(s, model, 1.0, market_hi)
        b = mv_gbm_quadrature_check(s, model, 1.0, market_hi)
        assert a.variance == pytest.approx(b.variance, rel=1e-9)


@pytest.mark.parametrize("n", [200, 1000])
@pytest.mark.parametrize("sigma", [0.1, 1.0, 2.0])
@pytest.mark.parametrize("where", ["nodes", "midpoints"])
def test_inverse_turnover_cov_dot_matches_dense(where, sigma, n):
    """The O(n) semiseparable product equals the dense covariance matrix
    times a positive weight vector, as mv_gbm and the SQP use it."""
    g = build_grid(1.0, n)
    t = g.nodes if where == "nodes" else 0.5 * (g.nodes[1:] + g.nodes[:-1])
    model = GbmVolumeModel(1.3, -0.02, sigma, rho=0.5)
    q = np.random.default_rng(n).uniform(0.1, 2.0, t.size) ** 2
    got = _inverse_turnover_cov_dot(_inverse_turnover_factors(model, t), q)
    ref = inverse_turnover_covariance(model, t) @ q
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_nan_node_raises(market, grid200, twap200):
    """A NaN on a path is a disagreement of the direct and decomposed costs,
    not a NaN cost."""
    price, vol = _seeded_paths(grid200, market.s0, 4, seed=6)
    price[1, 50] = np.nan
    with pytest.raises(ConsistencyError):
        realized_is_cost(price[1], vol[1], twap200, market)
    with pytest.raises(ConsistencyError):
        CostBreakdown(total=np.nan, permanent=0.0, temporary=0.0, price_risk=0.0)
