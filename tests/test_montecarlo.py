import tracemalloc

import numpy as np
import pytest

from volexec.cost import mv_gbm
from volexec.grids import build_grid, trapz
from volexec.montecarlo import (
    SimulationConfig,
    estimate_cost_moments,
    simulate_joint_paths,
    validate_theorem_orderings,
)
from volexec.strategies import Strategy, expected_vwap_strategy, vwap_strategy
from volexec.volume import (
    GbmVolumeModel,
    arcsine_profile,
    constant_profile,
    gbm_harmonic_mean,
    simulate_gbm_paths,
)

from conftest import make_twap


def _cfg(volume, market, grid, n_paths=2000, seed=0, rho=None):
    return SimulationConfig(
        n_paths=n_paths, seed=seed, grid=grid, market=market, volume=volume, rho=rho
    )


def test_config_validation(market, gbm_model, grid200):
    with pytest.raises(ValueError):
        _cfg(gbm_model, market, grid200, n_paths=1)
    with pytest.raises(ValueError):
        _cfg(gbm_model, market, grid200, rho=1.5)
    p = constant_profile(grid200, 1.0)
    with pytest.raises(ValueError):
        _cfg(p, market, grid200, rho=0.3)  # correlation needs a stochastic model
    mismatched = constant_profile(build_grid(1.0, 30), 1.0)
    with pytest.raises(ValueError):
        _cfg(mismatched, market, grid200)


def test_effective_rho_resolution(market, grid200):
    base = GbmVolumeModel(1.0, -0.02, 0.2, rho=0.4)
    assert _cfg(base, market, grid200).effective_rho == 0.4
    assert _cfg(base, market, grid200, rho=-0.7).effective_rho == -0.7
    p = constant_profile(grid200, 1.0)
    assert _cfg(p, market, grid200).effective_rho == 0.0


def test_volume_paths_match_reference_sampler(market, gbm_model, grid200):
    cfg = _cfg(gbm_model, market, grid200, n_paths=16, seed=12)
    price, vol = simulate_joint_paths(cfg)
    ref = simulate_gbm_paths(gbm_model, grid200, n_paths=16, seed=12)
    assert np.array_equal(vol, ref.paths)
    assert np.all(price[:, 0] == market.s0)


def test_price_increments_have_requested_correlation(market, grid200):
    model = GbmVolumeModel(1.0, -0.02, 0.2, rho=0.3)
    cfg = _cfg(model, market, grid200, n_paths=200, seed=1)
    price, vol = simulate_joint_paths(cfg)
    dS = np.diff(price, axis=1).ravel()
    dlogv = np.diff(np.log(vol), axis=1).ravel()
    corr = np.corrcoef(dS, dlogv)[0, 1]
    # 40k increments: sampling error well under 0.01
    assert abs(corr - 0.3) < 0.01


def test_perfect_correlation_is_exact(market, grid200):
    model = GbmVolumeModel(1.0, -0.02, 0.2, rho=1.0)
    cfg = _cfg(model, market, grid200, n_paths=8, seed=2)
    price, vol = simulate_joint_paths(cfg)
    dS = np.diff(price, axis=1)
    drift = (model.mu - 0.5 * model.sigma**2) * grid200.tau
    db = (np.log(vol[:, 1:] / vol[:, :-1]) - drift) / model.sigma
    assert np.allclose(dS, market.sigma_tilde * db, rtol=1e-10)


def test_deterministic_volume_is_broadcast(market, grid200):
    p = arcsine_profile(grid200)
    cfg = _cfg(p, market, grid200, n_paths=5, seed=3)
    price, vol = simulate_joint_paths(cfg)
    assert np.array_equal(vol, np.broadcast_to(p.v, vol.shape))
    assert not np.array_equal(price[0], price[1])


def test_batching_is_invisible(market, gbm_model, grid200, twap200):
    # 600 paths span three keyed blocks, and batches of 7 start mid-block
    cfg = _cfg(gbm_model, market, grid200, n_paths=600, seed=4)
    for antithetic in (False, True):
        a, ca = estimate_cost_moments(
            twap200, cfg, antithetic=antithetic, batch_size=7, return_costs=True
        )
        b, cb = estimate_cost_moments(
            twap200, cfg, antithetic=antithetic, batch_size=600, return_costs=True
        )
        assert np.array_equal(ca, cb)
        assert a.mean == b.mean
        assert a.variance == b.variance
        assert a.n_paths == 600


def test_repeat_runs_are_bitwise_equal(market, gbm_model, grid200, twap200):
    cfg = _cfg(gbm_model, market, grid200, n_paths=64, seed=4)
    a = estimate_cost_moments(twap200, cfg)
    b = estimate_cost_moments(twap200, cfg)
    assert a.as_dict() == b.as_dict()


def test_moments_match_closed_form(market_hi, grid200):
    """Sampled mean and variance sit within 3 SE of the analytic kernels."""
    model = GbmVolumeModel(1.0, -0.02, 0.2, rho=0.4)
    cfg = _cfg(model, market_hi, grid200, n_paths=20_000, seed=5)
    s = expected_vwap_strategy(model, grid200, 1.0)
    out = estimate_cost_moments(s, cfg)
    ref = mv_gbm(s, GbmVolumeModel(1.0, -0.02, 0.2, rho=0.4), 1.0, market_hi)
    assert abs(out.mean - ref.expectation) < 3.0 * out.std_error_mean
    assert abs(out.variance - ref.variance) < 3.0 * out.std_error_variance


def test_martingale_terminal_price(market, gbm_model, grid200):
    cfg = _cfg(gbm_model, market, grid200, n_paths=4000, seed=6)
    price, _ = simulate_joint_paths(cfg)
    term = price[:, -1]
    se = term.std(ddof=1) / np.sqrt(len(term))
    assert abs(term.mean() - market.s0) < 3.0 * se


def test_antithetic_needs_even_paths(market, gbm_model, grid200, twap200):
    cfg = _cfg(gbm_model, market, grid200, n_paths=65, seed=7)
    with pytest.raises(ValueError):
        estimate_cost_moments(twap200, cfg, antithetic=True)


def test_antithetic_mean_matches_discrete_expectation(market_hi, gbm_model, grid200):
    """Antithetic pairs cancel the price-risk term, so the standard error of
    the mean shrinks until it resolves the O(tau) gap between
    expected_cost's trapz(zeta^2/u) and the cost kernel's interval-average
    products.  Against the kernel's exact discrete expectation, built here
    from the harmonic-mean curve u at the nodes, the mean sits within 3 SE."""
    g = grid200
    z = 3.0 * (1.0 - g.nodes) ** 2 + 1e-3  # front-loaded, far from proportional
    s = Strategy(grid=g, zeta=z / trapz(z, g.tau), Phi=1.0)
    cfg = _cfg(gbm_model, market_hi, g, n_paths=20_000, seed=13)
    est = estimate_cost_moments(s, cfg, antithetic=True)
    u = gbm_harmonic_mean(gbm_model, g).v
    zbar = 0.5 * (s.zeta[1:] + s.zeta[:-1])
    a = s.zeta / u
    psi_n = g.tau * zbar.sum()
    exact = (
        market_hi.kappa * psi_n**2 / 2.0
        + market_hi.kappa_tilde * g.tau * np.sum(0.5 * (a[1:] + a[:-1]) * zbar)
        + market_hi.s0 * (s.Phi - psi_n)
    )
    assert abs(est.mean - exact) <= 3.0 * est.std_error_mean


def test_memory_is_bounded_by_batch(market_hi, grid500):
    """A 20k-path, n=500 estimate holds a few batches, not every path: drawn
    all at once, the same call peaked near 480 MB."""
    model = GbmVolumeModel(1.0, -0.02, 0.2, rho=0.4)
    cfg = _cfg(model, market_hi, grid500, n_paths=20_000, seed=14)
    s = expected_vwap_strategy(model, grid500, 1.0)
    tracemalloc.start()
    try:
        estimate_cost_moments(s, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 120e6


def test_antithetic_reduces_error(market, gbm_model, grid200, twap200):
    cfg = _cfg(gbm_model, market, grid200, n_paths=2000, seed=7)
    plain = estimate_cost_moments(twap200, cfg)
    anti = estimate_cost_moments(twap200, cfg, antithetic=True)
    assert anti.std_error_mean < 0.5 * plain.std_error_mean


def test_return_costs_shape(market, gbm_model, grid200, twap200):
    cfg = _cfg(gbm_model, market, grid200, n_paths=32, seed=8)
    est, costs = estimate_cost_moments(twap200, cfg, return_costs=True)
    assert costs.shape == (32,)
    assert est.mean == pytest.approx(costs.mean(), rel=1e-14)


def test_tournament_rejects_reserved_names(market, gbm_model, grid200, twap200):
    cfg = _cfg(gbm_model, market, grid200, n_paths=16, seed=9)
    with pytest.raises(ValueError):
        validate_theorem_orderings(cfg, {"anticipating-vwap": twap200})


def test_tournament_rejects_mixed_phi(market, gbm_model, grid200, twap200):
    cfg = _cfg(gbm_model, market, grid200, n_paths=16, seed=9)
    other = make_twap(grid200, Phi=2.0)
    with pytest.raises(ValueError):
        validate_theorem_orderings(cfg, {"a": twap200, "b": other})


def test_tournament_orderings_stochastic(market_hi, grid200, twap200):
    model = GbmVolumeModel(1.0, -0.02, 0.2, rho=0.0)
    cfg = _cfg(model, market_hi, grid200, n_paths=4000, seed=10)
    ev = expected_vwap_strategy(model, grid200, 1.0)
    out = validate_theorem_orderings(cfg, {"twap": twap200, "expected": ev})
    assert out["all_confirmed"]
    names = {(o["better"], o["worse"]) for o in out["orderings"]}
    assert ("anticipating-vwap", "twap") in names
    assert ("expected-vwap", "expected") in names
    for o in out["orderings"]:
        assert o["mean_diff"] <= 3.0 * o["se_diff"] + 1e-8


def test_tournament_deterministic_tie(market, grid200):
    # against a deterministic curve the anticipating schedule IS the static
    # volume-proportional one; the comparison degenerates to a rounding tie
    p = arcsine_profile(grid200)
    cfg = _cfg(p, market, grid200, n_paths=500, seed=11)
    out = validate_theorem_orderings(cfg, {"vwap": vwap_strategy(p, 1.0)})
    assert out["all_confirmed"]
