"""End-to-end acceptance checks.

Each test covers one advertised guarantee of the package and prints a single
[PASS]/[FAIL] line (visible under pytest -s, and in the captured output
otherwise) in addition to asserting.  Tolerances are pinned, not adaptive.
"""
import json
import time

import numpy as np

from volexec.bvp import asymptotic_expansion, optimal_inventory_ode
from volexec.cost import (
    MarketParams,
    market_vwap,
    mv_gbm,
    mv_gbm_quadrature_check,
)
from volexec.grids import build_grid, trapz, trapz_weights
from volexec.montecarlo import SimulationConfig, estimate_cost_moments, validate_theorem_orderings
from volexec.optimizer import solve_qp_deterministic, solve_sqp_gbm
from volexec.strategies import Strategy, ac_closed_form, expected_vwap_strategy
from volexec.volume import (
    GbmVolumeModel,
    arcsine_profile,
    constant_profile,
    gbm_harmonic_mean,
    profile_from_samples,
)

from conftest import joint_paths

MARKET_LO = MarketParams(kappa=0.1, kappa_tilde=0.02, sigma_tilde=0.1, s0=100.0)
MARKET_HI = MarketParams(kappa=0.1, kappa_tilde=0.02, sigma_tilde=0.2, s0=100.0)
MODEL = GbmVolumeModel(v0=1.0, mu=-0.02, sigma=0.2, rho=0.0)


def _verdict(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _interval_means(v):
    return 0.5 * (v[1:] + v[:-1])


def _native_inventory(rep, Phi, tau):
    return np.concatenate([[Phi], Phi - tau * np.cumsum(rep.zeta_intervals)])


def test_01_zero_risk_qp_is_volume_proportional():
    """QP at lam = 0 reproduces the volume-proportional rates to 1e-8."""
    t0 = time.perf_counter()
    g = build_grid(1.0, 500)
    profiles = [arcsine_profile(g)]
    rng = np.random.default_rng(0)
    for _ in range(5):
        profiles.append(profile_from_samples(g, 0.2 + rng.random(len(g))))
    worst = 0.0
    for p in profiles:
        _, rep = solve_qp_deterministic(p, 0.0, MARKET_LO, 1.0)
        vbar = _interval_means(p.v)
        expect = vbar / (g.tau * np.sum(vbar))
        worst = max(worst, np.max(np.abs(rep.zeta_intervals - expect)) / np.max(expect))
    elapsed = time.perf_counter() - t0
    _verdict(
        "zero-risk QP = volume curve",
        worst <= 1e-8 and elapsed < 5.0,
        f"rel sup {worst:.3e} over {len(profiles)} profiles in {elapsed:.2f}s (tol 1e-8, 5s)",
    )


def test_02_zero_risk_sqp_is_expected_vwap():
    """SQP at lam = 0 lands on the harmonic-mean schedule, and that schedule
    beats static alternatives on simulated costs."""
    g = build_grid(1.0, 200)
    _, rep = solve_sqp_gbm(MODEL, 0.0, MARKET_HI, 1.0, g)
    ubar = _interval_means(gbm_harmonic_mean(MODEL, g).v)
    expect = ubar / (g.tau * np.sum(ubar))
    gap = np.max(np.abs(rep.zeta_intervals - expect)) / np.max(expect)

    cfg = SimulationConfig(
        n_paths=100_000, seed=2024, grid=g, market=MARKET_HI, volume=MODEL
    )
    twap = Strategy(grid=g, zeta=np.ones(len(g)), Phi=1.0)
    front = ac_closed_form(2.0, MARKET_HI, 1.0, g, 1.0)
    tour = validate_theorem_orderings(cfg, {"twap": twap, "front-loaded": front})
    ev_rows = [o for o in tour["orderings"] if o["better"] == "expected-vwap"]
    ok = gap <= 1e-6 and len(ev_rows) == 2 and all(o["confirmed"] for o in ev_rows)
    _verdict(
        "zero-risk SQP = expected-volume curve",
        ok,
        f"rate gap {gap:.3e} (tol 1e-6); tournament rows confirmed: "
        f"{[(o['worse'], o['confirmed']) for o in ev_rows]}",
    )


def test_03_constant_volume_ode_matches_sinh():
    """Constant turnover reduces the two-point problem to the sinh profile."""
    errs = {}
    for n in (250, 500, 1000):
        g = build_grid(1.0, n)
        p = constant_profile(g, 1.0)
        phi = optimal_inventory_ode(p, 2.0, MARKET_LO, 1.0).phi
        exact = np.sinh(1.0 - g.nodes) / np.sinh(1.0)
        errs[n] = np.max(np.abs(phi - exact))
    order = np.log2(errs[500] / errs[1000])
    ok = errs[1000] <= 1e-4 and order >= 1.95
    _verdict(
        "constant-volume ODE = sinh schedule",
        ok,
        f"sup err {errs[1000]:.3e} at n=1000 (tol 1e-4), order {order:.3f} (>= 1.95)",
    )


def test_04_ode_and_qp_routes_agree():
    """Direct QP and the optimality-system ODE give the same inventory."""
    t0 = time.perf_counter()
    g = build_grid(1.0, 1000)
    p = arcsine_profile(g)
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        _, rep = solve_qp_deterministic(p, lam, MARKET_LO, 1.0)
        phi_qp = _native_inventory(rep, 1.0, g.tau)
        phi_ode = optimal_inventory_ode(p, lam, MARKET_LO, 1.0).phi
        worst = max(worst, np.max(np.abs(phi_qp - phi_ode)))
    elapsed = time.perf_counter() - t0
    _verdict(
        "QP and ODE routes agree",
        worst <= 1e-4 and elapsed < 10.0,
        f"inventory sup gap {worst:.3e} over lam in {{0.5,1,2}} in {elapsed:.2f}s (tol 1e-4, 10s)",
    )


def test_05_deterministic_early_rate_monotone_in_risk():
    """More risk aversion always front-loads the U-shaped-volume schedule."""
    g = build_grid(1.0, 500)
    p = arcsine_profile(g)
    node = round(0.05 / g.tau)
    rates = []
    for lam in (0.0, 0.5, 1.0, 2.0):
        s, _ = solve_qp_deterministic(p, lam, MARKET_LO, 1.0)
        rates.append(s.zeta[node])
    frozen = [1.492941, 1.583007, 1.668132, 1.825231]
    ok = all(b > a for a, b in zip(rates, rates[1:])) and np.allclose(
        rates, frozen, atol=1e-5
    )
    _verdict(
        "early rate rises with risk aversion",
        ok,
        f"zeta(0.05) = {[f'{r:.6f}' for r in rates]} strictly increasing, matches pinned values",
    )


def test_06_stochastic_solver_risk_and_correlation_structure():
    """Under random volume: risk front-loads strongly, correlation mildly."""
    g = build_grid(1.0, 200)
    lam_rates = []
    for lam in (0.0, 0.5, 1.0, 2.0):
        s, rep = solve_sqp_gbm(MODEL, lam, MARKET_HI, 1.0, g)
        assert rep.status == "converged" and rep.kkt_residual <= 1e-8
        lam_rates.append(s.zeta[0])
    rho_rates = []
    for rho in (-0.9, -0.3, 0.0, 0.3, 0.9):
        model = GbmVolumeModel(1.0, -0.02, 0.2, rho=rho)
        s, rep = solve_sqp_gbm(model, 10.0, MARKET_HI, 1.0, g)
        assert rep.status == "converged" and rep.kkt_residual <= 1e-8
        assert rep.iterations <= 200
        rho_rates.append(s.zeta[0])
    frozen_rho = [4.26609163, 4.38449563, 4.44235210, 4.49940132, 4.61126422]
    lam_spread = lam_rates[-1] - lam_rates[0]
    rho_spread = rho_rates[-1] - rho_rates[0]
    ok = (
        all(b > a for a, b in zip(lam_rates, lam_rates[1:]))
        and all(b >= a for a, b in zip(rho_rates, rho_rates[1:]))
        and np.allclose(rho_rates, frozen_rho, rtol=1e-6)
        and rho_spread < 0.5 * lam_spread
    )
    _verdict(
        "risk/correlation structure of stochastic solver",
        ok,
        f"zeta0 vs lam {[f'{r:.4f}' for r in lam_rates]}, vs rho {[f'{r:.4f}' for r in rho_rates]}; "
        f"rho spread {rho_spread:.4f} < half of lam spread {lam_spread:.4f}",
    )


def test_07_simulation_agrees_with_closed_form_moments():
    """1e5-path Monte Carlo straddles the analytic mean and variance."""
    t0 = time.perf_counter()
    g = build_grid(1.0, 200)
    twap = Strategy(grid=g, zeta=np.ones(len(g)), Phi=1.0)
    ev = expected_vwap_strategy(MODEL, g, 1.0)
    worst_z = 0.0
    quad_gap = 0.0
    for rho in (0.0, 0.9):
        model = GbmVolumeModel(1.0, -0.02, 0.2, rho=rho)
        cfg = SimulationConfig(
            n_paths=100_000, seed=2024, grid=g, market=MARKET_HI, volume=model
        )
        for s in (twap, ev):
            est = estimate_cost_moments(s, cfg)
            ref = mv_gbm(s, model, 1.0, MARKET_HI)
            worst_z = max(
                worst_z,
                abs(est.mean - ref.expectation) / est.std_error_mean,
                abs(est.variance - ref.variance) / est.std_error_variance,
            )
            quad = mv_gbm_quadrature_check(s, model, 1.0, MARKET_HI)
            quad_gap = max(quad_gap, abs(quad.variance - ref.variance) / ref.variance)
    elapsed = time.perf_counter() - t0
    ok = worst_z <= 3.0 and quad_gap <= 1e-6 and elapsed < 60.0
    _verdict(
        "simulation matches closed-form moments",
        ok,
        f"worst |z| {worst_z:.2f} (<= 3), quadrature cross-check rel {quad_gap:.2e} "
        f"(<= 1e-6), {elapsed:.1f}s (< 60s)",
    )


def test_08_small_risk_expansion_slope():
    """The first-order term is the lam-derivative of the QP family: the
    remainder of the linearization dies quadratically in lam."""
    g = build_grid(1.0, 500)
    p = arcsine_profile(g)
    base, zeta1 = asymptotic_expansion(p, MARKET_LO, 0.0, 1.0)
    s0, _ = solve_qp_deterministic(p, 0.0, MARKET_LO, 1.0)

    def defect(lam):
        s, _ = solve_qp_deterministic(p, lam, MARKET_LO, 1.0)
        return np.max(np.abs((s.zeta - s0.zeta) / lam - zeta1))

    m2, m3 = defect(1e-2), defect(1e-3)
    ratio = m3 / m2
    _verdict(
        "expansion slope is exact to first order",
        ratio <= 0.5,
        f"defect {m2:.3e} at lam=1e-2 vs {m3:.3e} at lam=1e-3, ratio {ratio:.4f} (<= 0.5)",
    )


def test_09_pathwise_identity_and_vwap_tracking():
    """Realized decomposition equals a fresh direct evaluation on every path,
    and the per-path volume tracker nulls its own benchmark slippage."""
    from volexec.cost import realized_is_cost

    g = build_grid(1.0, 200)
    model = GbmVolumeModel(1.0, -0.02, 0.2, rho=0.3)
    cfg = SimulationConfig(n_paths=1000, seed=42, grid=g, market=MARKET_HI, volume=model)
    price, vol = joint_paths(cfg)
    twap = Strategy(grid=g, zeta=np.ones(len(g)), Phi=1.0)
    w = trapz_weights(g.n_steps, g.tau)

    worst_id = 0.0
    worst_slip = 0.0
    for i in range(cfg.n_paths):
        out = realized_is_cost(price[i], vol[i], twap, MARKET_HI)
        # independent direct evaluation: proceeds under the impacted price
        zbar = np.full(g.n_steps, 1.0)
        psi = np.concatenate([[0.0], np.cumsum(g.tau * zbar)])
        exec_price = price[i] - MARKET_HI.kappa * psi - MARKET_HI.kappa_tilde * twap.zeta / vol[i]
        pb = 0.5 * (exec_price[1:] + exec_price[:-1])
        direct = price[i][0] * 1.0 - np.sum(g.tau * pb * zbar)
        worst_id = max(worst_id, abs(out.total - direct) / max(1.0, abs(out.total)))

        zeta_i = vol[i] / (vol[i] @ w)
        slip = market_vwap(price[i], zeta_i) - market_vwap(price[i], vol[i])
        worst_slip = max(worst_slip, abs(slip))
    ok = worst_id <= 1e-8 and worst_slip <= 1e-10
    _verdict(
        "pathwise cost identity + volume tracking",
        ok,
        f"worst identity gap {worst_id:.2e} (<= 1e-8), worst tracker slippage "
        f"{worst_slip:.2e} (<= 1e-10) over 1000 paths",
    )


def test_10_validation_run_is_reproducible(tmp_path):
    """Two validate commands with one seed emit byte-identical reports."""
    from volexec.cli import main

    doc = {
        "schema": 1,
        "volume": {"type": "gbm", "v0": 1.0, "mu": -0.02, "sigma": 0.2, "rho": 0.0},
        "market": {"kappa": 0.1, "kappa_tilde": 0.02, "sigma_tilde": 0.2, "s0": 100.0},
        "phi": 1.0,
        "horizon": 1.0,
        "grid_n": 100,
        "lambdas": [0.5, 1.0],
        "rhos": [0.0],
        "mc": {"n_paths": 2000, "seed": 5, "antithetic": False, "dump_paths": False},
    }
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        rc = main(["validate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        outs.append((out / "validation.json").read_bytes())
    report = json.loads(outs[0])
    ok = outs[0] == outs[1] and report["all_passed"]
    _verdict(
        "validation is reproducible",
        ok,
        f"two runs, {len(outs[0])} bytes each, identical={outs[0] == outs[1]}, "
        f"all {len(report['checks'])} checks passed",
    )
