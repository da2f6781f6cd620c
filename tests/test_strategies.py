import numpy as np
import pytest

from volexec.bvp import asymptotic_expansion
from volexec.cost import MarketParams
from volexec.errors import InconsistentStrategyError, NegativeRateError
from volexec.grids import build_grid, cumtrapz, require_same_grid, trapz
from volexec.strategies import (
    InventoryCurve,
    Strategy,
    ac_closed_form,
    expected_vwap_strategy,
    inventory_from_rate,
    rate_from_inventory,
    strategy_from_csv,
    strategy_to_csv,
    twisted_vwap,
    vwap_strategy,
)
from volexec.volume import GbmVolumeModel, arcsine_profile, constant_profile, profile_from_samples

# sinh(0.5)/sinh(1): midpoint inventory of the constant-turnover risk-averse
# schedule when the involvement/risk ratio works out to g = 1 (sigma_tilde =
# 0.1, kappa_tilde = 0.02, v = 1, lam = 2).
SINH_MIDPOINT = 0.443409441985037


def test_constructors_leave_caller_arrays_writeable():
    g = build_grid(1.0, 4)
    z = np.full(5, 1.0)
    a = np.full(5, 1.0)
    s = Strategy(grid=g, zeta=z, Phi=1.0)
    p = profile_from_samples(g, a)
    assert z.flags.writeable and a.flags.writeable
    z[0] = a[0] = 2.0  # the objects hold their own read-only copies
    assert s.zeta[0] == p.v[0] == 1.0
    assert not (s.zeta.flags.writeable or p.v.flags.writeable)


def test_require_same_grid():
    """Grids are the same exactly when T and n_steps agree, however built."""
    require_same_grid(build_grid(1.0, 200), build_grid(1, 200))
    for other in (build_grid(2.0, 200), build_grid(1.0, 100)):
        with pytest.raises(ValueError, match="live on different grids"):
            require_same_grid(build_grid(1.0, 200), other, "schedules")


def test_strategy_validation(grid200):
    n = len(grid200)
    with pytest.raises(NegativeRateError):
        Strategy(grid=grid200, zeta=np.linspace(-0.1, 2.0, n), Phi=1.0)
    with pytest.raises(InconsistentStrategyError):
        Strategy(grid=grid200, zeta=np.ones(n), Phi=2.0)
    with pytest.raises(ValueError):
        Strategy(grid=grid200, zeta=np.ones(n), Phi=-1.0)
    with pytest.raises(ValueError):
        Strategy(grid=grid200, zeta=np.ones(n - 1), Phi=1.0)


def test_inventory_round_trip(market):
    g = build_grid(1.0, 1000)
    s = ac_closed_form(2.0, market, 1.0, g, 1.0)
    back = rate_from_inventory(inventory_from_rate(s))
    assert np.max(np.abs(back.zeta - s.zeta)) / np.max(s.zeta) < 1e-5
    assert abs(trapz(back.zeta, g.tau) - 1.0) < 1e-12


def test_inventory_rejects_increasing(grid200):
    phi = 1.0 - grid200.nodes
    phi[50] = phi[49] + 0.05  # a buy-back bump
    c = InventoryCurve(grid=grid200, phi=phi, Phi=1.0)
    with pytest.raises(NegativeRateError):
        rate_from_inventory(c)


def test_inventory_boundary_enforced(grid200):
    with pytest.raises(ValueError):
        InventoryCurve(grid=grid200, phi=np.linspace(0.9, 0.0, len(grid200)), Phi=1.0)
    with pytest.raises(ValueError):
        InventoryCurve(grid=grid200, phi=np.linspace(1.0, 0.1, len(grid200)), Phi=1.0)


def test_vwap_inventory_tracks_cumulative_volume(arcsine500):
    s = vwap_strategy(arcsine500, 2.0)
    g = arcsine500.grid
    phi = inventory_from_rate(s).phi
    expect = 2.0 * (1.0 - cumtrapz(arcsine500.v, g.tau) / trapz(arcsine500.v, g.tau))
    assert np.max(np.abs(phi - expect)) < 1e-13


def test_vwap_phi_homogeneity(arcsine500):
    a = vwap_strategy(arcsine500, 1.0)
    b = vwap_strategy(arcsine500, 2.5)
    assert np.allclose(b.zeta, 2.5 * a.zeta, rtol=1e-14, atol=0)


def test_expected_vwap_proportional_to_harmonic_mean(gbm_model, grid200):
    s = expected_vwap_strategy(gbm_model, grid200, 1.0)
    u = np.exp((gbm_model.mu - gbm_model.sigma**2) * grid200.nodes)
    ratio = s.zeta / u
    assert np.max(ratio) / np.min(ratio) - 1.0 < 1e-13


def test_twisted_vwap_reductions(arcsine500, market):
    # power-law impact k(v) z^alpha: k = kappa_tilde / v with alpha = 1 is
    # the plain linear model, so the twisted rule collapses to VWAP
    tw = twisted_vwap(arcsine500, lambda v: market.kappa_tilde / v, 1.0, 1.0)
    vw = vwap_strategy(arcsine500, 1.0)
    assert np.allclose(tw.zeta, vw.zeta, rtol=1e-12, atol=0)
    # volume-independent impact spreads evenly regardless of alpha
    flat = twisted_vwap(arcsine500, lambda v: 3.0, 2.0, 1.0)
    assert np.allclose(flat.zeta, 1.0, rtol=1e-13)
    # alpha = 2: rate goes like v^{1/2}
    half = twisted_vwap(arcsine500, lambda v: 1.0 / v, 2.0, 1.0)
    ratio = half.zeta / np.sqrt(arcsine500.v)
    assert np.max(ratio) / np.min(ratio) - 1.0 < 1e-13


def test_twisted_vwap_validation(arcsine500):
    with pytest.raises(ValueError):
        twisted_vwap(arcsine500, lambda v: 1.0 / v, 0.0, 1.0)
    with pytest.raises(ValueError):
        twisted_vwap(arcsine500, lambda v: v - v, 1.0, 1.0)  # k(v) = 0
    with pytest.raises(ValueError):
        twisted_vwap(arcsine500, lambda v: v[:-1], 1.0, 1.0)


@pytest.mark.parametrize("Phi", [np.nan, np.inf, -np.inf, 0.0])
def test_proportional_schedules_reject_bad_phi(arcsine500, gbm_model, Phi):
    g = arcsine500.grid
    for make in (
        lambda: vwap_strategy(arcsine500, Phi),
        lambda: expected_vwap_strategy(gbm_model, g, Phi),
        lambda: twisted_vwap(arcsine500, lambda v: 1.0 / v, 1.0, Phi),
    ):
        with pytest.raises(ValueError, match="Phi must be positive and finite"):
            make()


def test_ac_closed_form_matches_sinh(market):
    g = build_grid(1.0, 1000)
    s = ac_closed_form(2.0, market, 1.0, g, 1.0)
    phi = inventory_from_rate(s).phi
    assert abs(phi[g.n_steps // 2] - SINH_MIDPOINT) < 1e-12
    exact = np.sinh(1.0 - g.nodes) / np.sinh(1.0)
    assert np.max(np.abs(phi - exact)) < 1e-7


def test_ac_zero_risk_is_flat(market, grid200):
    s = ac_closed_form(0.0, market, 1.0, grid200, 2.0)
    assert np.allclose(s.zeta, 2.0, rtol=0, atol=1e-15)


def test_ac_large_risk_no_overflow(market):
    g = build_grid(1.0, 400)
    s = ac_closed_form(5e4, market, 1.0, g, 1.0)
    assert np.all(np.isfinite(s.zeta))
    # nearly everything executes immediately
    assert inventory_from_rate(s).phi[g.n_steps // 10] < 1e-6


def test_ac_validation(market, grid200):
    with pytest.raises(ValueError):
        ac_closed_form(-1.0, market, 1.0, grid200, 1.0)
    with pytest.raises(ValueError):
        ac_closed_form(1.0, market, 0.0, grid200, 1.0)
    with pytest.raises(ValueError):
        ac_closed_form(1.0, market, 1.0, grid200, 0.0)


def _correction_closed_form(t, V, calV, V2int, market, Phi):
    """The paper's quadrature form of the first-order inventory correction.

    Integrating the correction equation twice against the exact cumulatives
    V_t = int_0^t v, calV_t = int_0^t V and V2int_t = int_0^t V^2 gives, with
    s = sigma_tilde^2 Phi / kappa_tilde,

        phi1(t) = s * [ t V_t - calV_t - (V_t calV_t - V2int_t)/V_T + K V_t ],
        K = 2 calV_T / V_T - T - V2int_T / V_T^2.
    """
    VT = V[-1]
    s = market.sigma_tilde**2 * float(Phi) / market.kappa_tilde
    K = 2.0 * calV[-1] / VT - t[-1] - V2int[-1] / VT**2
    return s * (t * V - calV - (V * calV - V2int) / VT + K * V)


def _correction_inventory(zeta1, tau):
    """Inventory correction of the expansion's node rates: the interval rates
    are recovered from the nodes (the first copies an interval, interior
    nodes average two) and summed, phi1_j = -tau * (first j interval rates)."""
    rates = [zeta1[0]]
    for z in zeta1[1:-1]:
        rates.append(2.0 * z - rates[-1])
    return -tau * np.concatenate([[0.0], np.cumsum(rates)])


def test_correction_closed_form_constant_turnover(market):
    """Constant turnover: the correction integrates to an explicit cubic.

    With v constant the first-order inventory adjustment is
    (sigma_tilde^2 v Phi / kappa_tilde) * (t^2/2 - t^3/6 - t/3) on T = 1.
    """
    t = build_grid(1.0, 1000).nodes
    phi1 = _correction_closed_form(t, t, 0.5 * t**2, t**3 / 3.0, market, 1.0)
    coef = market.sigma_tilde**2 * 1.0 * 1.0 / market.kappa_tilde
    cubic = coef * (t**2 / 2.0 - t**3 / 6.0 - t / 3.0)
    assert np.max(np.abs(phi1 - cubic)) < 1e-12


def test_correction_closed_form_arcsine(market):
    """The expansion's correction on arcsine turnover converges to the closed
    form built from V = (2/pi) arcsin(sqrt t) and its exact integrals.

    The endpoint clamp of the sampled v costs O(tau^(1/2)) in the sup norm:
    1.66e-3 at n=500 and 8.3e-4 at n=2000.
    """
    gaps = {}
    for n in (500, 2000):
        g = build_grid(1.0, n)
        t = g.nodes
        asn = np.arcsin(np.sqrt(t))
        w = np.sqrt(t * (1.0 - t))
        V = (2.0 / np.pi) * asn
        V[-1] = 1.0
        # substitute t = sin^2(theta): calV integrates theta sin(2 theta) and
        # V2int integrates theta^2 sin(2 theta)
        calV = ((2.0 * t - 1.0) * asn + w) / np.pi
        V2int = (4.0 / np.pi**2) * (0.5 * (2.0 * t - 1.0) * asn**2 + w * asn - 0.5 * t)
        _, zeta1 = asymptotic_expansion(arcsine_profile(g), market, 0.0, 1.0)
        exact = _correction_closed_form(t, V, calV, V2int, market, 1.0)
        gaps[n] = np.max(np.abs(_correction_inventory(zeta1, g.tau) - exact))
    assert gaps[500] <= 2e-3
    assert gaps[2000] / gaps[500] <= 0.6


def test_expansion_zero_lam_is_vwap(arcsine500, market):
    base, zeta1 = asymptotic_expansion(arcsine500, market, 0.0, 1.0)
    vw = vwap_strategy(arcsine500, 1.0)
    assert np.allclose(base.zeta, vw.zeta, rtol=1e-12, atol=0)
    assert zeta1.shape == base.zeta.shape
    assert np.all(np.isfinite(zeta1))


def test_expansion_first_order_term_constant_turnover(market):
    # first-order rate = -(d/dt) of the cubic above; the two boundary nodes
    # carry the O(tau) one-sided resampling error, interior is O(tau^2)
    g = build_grid(1.0, 1000)
    p = constant_profile(g, 1.0)
    _, zeta1 = asymptotic_expansion(p, market, 0.0, 1.0)
    t = g.nodes
    coef = market.sigma_tilde**2 * 1.0 * 1.0 / market.kappa_tilde
    exact = -coef * (t - t**2 / 2.0 - 1.0 / 3.0)
    assert np.max(np.abs(zeta1[1:-1] - exact[1:-1])) < 1e-6
    assert np.max(np.abs(zeta1 - exact)) < 1e-3


def test_expansion_composite_sells_off(arcsine500, market):
    comp, _ = asymptotic_expansion(arcsine500, market, 0.5, 1.0)
    assert abs(trapz(comp.zeta, arcsine500.grid.tau) - 1.0) < 1e-12
    assert np.all(comp.zeta >= 0.0)


def test_strategy_csv_round_trip(tmp_path, market):
    g = build_grid(1.0, 300)
    s = ac_closed_form(1.0, market, 1.0, g, 2.0)
    f = tmp_path / "strategy.csv"
    strategy_to_csv(s, str(f))
    r = strategy_from_csv(str(f))
    assert r.grid.n_steps == g.n_steps
    assert np.array_equal(r.zeta, s.zeta)
    assert r.Phi == pytest.approx(s.Phi, rel=1e-15)


@pytest.mark.parametrize(
    "text",
    [
        "t,phi\n0.0,1.0\n0.5,0.5\n1.0,0.0\n",
        "t,zeta\n0.0,1.0\n1.0,1.0\n",
        "t,zeta\n",
        "t,zeta\n0.1,1.0\n0.6,1.0\n1.1,1.0\n",
        "t,zeta\n0.0,1.0\n0.1,1.0\n0.3,1.0\n",
        "t,zeta\n0.0,1.0\nnan,1.0\n1.0,1.0\n",
    ],
    ids=["no-zeta", "two-nodes", "header-only", "late-start", "non-uniform", "nan-node"],
)
def test_strategy_csv_rejects(tmp_path, text):
    f = tmp_path / "bad.csv"
    f.write_text(text)
    with pytest.raises(ValueError):
        strategy_from_csv(str(f))


def test_strategies_on_random_profile():
    g = build_grid(1.0, 256)
    rng = np.random.default_rng(40)
    p = profile_from_samples(g, 0.2 + rng.random(len(g)))
    s = vwap_strategy(p, 1.0)
    assert abs(trapz(s.zeta, g.tau) - 1.0) < 1e-12
    phi = inventory_from_rate(s).phi
    assert np.all(np.diff(phi) <= 0.0)
