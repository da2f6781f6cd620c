import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from volexec import optimizer
from volexec.bvp import asymptotic_expansion, optimal_inventory_ode
from volexec.cost import MarketParams, MvValue, mv_deterministic, mv_gbm
from volexec.errors import SolverFailureError
from volexec.grids import build_grid, trapz, trapz_weights
from volexec.optimizer import (
    MeanVarianceObjective,
    SolveReport,
    _active_set_qp,
    _multipliers,
    _RateModel,
    solve_qp_deterministic,
    solve_sqp_gbm,
)
from volexec.strategies import Strategy, ac_closed_form, vwap_strategy
from volexec.volume import GbmVolumeModel, arcsine_profile, gbm_harmonic_mean, profile_from_samples

from conftest import dense_active_set, dense_kkt_step, dense_qp_rates, dense_quadratic_hessian


def _interval_means(v):
    return 0.5 * (v[1:] + v[:-1])


def _qp_objective(z, profile, lam, market, Phi):
    """Independent evaluation of the discretized mean-variance objective."""
    g = profile.grid
    vbar = _interval_means(profile.v)
    phi = np.concatenate([[Phi], Phi - g.tau * np.cumsum(z)])
    w = trapz_weights(g.n_steps, g.tau)
    risk = market.sigma_tilde**2 * np.sum(w * phi**2)
    return market.kappa * Phi**2 / 2.0 + market.kappa_tilde * g.tau * np.sum(z**2 / vbar) + lam * risk


def test_zero_lam_recovers_volume_weights(market, arcsine500):
    s, rep = solve_qp_deterministic(arcsine500, 0.0, market, 1.0)
    vbar = _interval_means(arcsine500.v)
    expect = vbar / (arcsine500.grid.tau * np.sum(vbar))
    rel = np.max(np.abs(rep.zeta_intervals - expect)) / np.max(expect)
    assert rel < 1e-12
    assert rep.status == "converged"
    assert rep.kkt_residual < 1e-10


def test_zero_lam_random_profiles(market):
    g = build_grid(1.0, 300)
    rng = np.random.default_rng(17)
    for _ in range(3):
        p = profile_from_samples(g, 0.2 + rng.random(len(g)))
        _, rep = solve_qp_deterministic(p, 0.0, market, 1.0)
        vbar = _interval_means(p.v)
        expect = vbar / (g.tau * np.sum(vbar))
        assert np.max(np.abs(rep.zeta_intervals - expect)) / np.max(expect) < 1e-11


def test_qp_matches_ode_route(market, arcsine500):
    """Same discrete optimality system, three solvers: the O(n) active set
    behind the QP, the boundary-value route and the dense KKT reference."""
    g = arcsine500.grid
    _, rep = solve_qp_deterministic(arcsine500, 1.0, market, 1.0)
    phi_qp = np.concatenate([[1.0], 1.0 - g.tau * np.cumsum(rep.zeta_intervals)])
    phi_ode = optimal_inventory_ode(arcsine500, 1.0, market, 1.0).phi
    assert np.max(np.abs(phi_qp - phi_ode)) < 1e-10
    rng = np.random.default_rng(23)
    for n in (2, 60, 300):
        g = build_grid(1.0, n)
        for p in (arcsine_profile(g), profile_from_samples(g, 0.2 + rng.random(len(g)))):
            for lam in (0.0, 0.5, 50.0, 5000.0):
                _, rep = solve_qp_deterministic(p, lam, market, 1.0)
                ref = dense_qp_rates(p, lam, market, 1.0)
                assert np.max(np.abs(rep.zeta_intervals - ref)) <= 1e-10 * np.max(ref)
                if lam > 0.0 and not rep.active_bounds:
                    phi = optimal_inventory_ode(p, lam, market, 1.0).phi
                    ode = (phi[:-1] - phi[1:]) / g.tau
                    assert np.max(np.abs(ode - ref)) <= 1e-10 * np.max(ref), (n, lam)


def test_qp_extreme_risk_aversion(market, arcsine500):
    """Late rates underflow to zero at extreme lam; they are reported as
    active bounds and the bound-constrained KKT test still passes."""
    for lam in (1e12, 1e16):
        s, rep = solve_qp_deterministic(arcsine500, lam, market, 1.0)
        assert rep.status == "converged"
        assert rep.kkt_residual <= 1e-8
        assert rep.active_bounds
        assert np.min(s.zeta) >= 0.0
        assert trapz(s.zeta, s.grid.tau) == pytest.approx(1.0, rel=1e-12)



def test_qp_vanishing_temporary_impact(market):
    """At turnover 1e300 the temporary impact is nil and the optimum sells the
    whole block in the first interval; the later rates are bounds or underflow."""
    g = build_grid(1.0, 10)
    p = profile_from_samples(g, np.full(len(g), 1e300))
    _, rep = solve_qp_deterministic(p, 1.0, market, 1.0)
    assert rep.status == "converged"
    assert rep.zeta_intervals[0] == pytest.approx(1.0 / g.tau, rel=1e-12)
    assert np.max(rep.zeta_intervals[1:]) < 1e-250
    # the boundary route agrees, also where the turnover alternates 1e300/1e-300
    alternating = profile_from_samples(g, np.where(np.arange(len(g)) % 2, 1e300, 1e-300))
    for q in (p, alternating):
        _, rep = solve_qp_deterministic(q, 1.0, market, 1.0)
        phi_qp = np.concatenate([[1.0], 1.0 - g.tau * np.cumsum(rep.zeta_intervals)])
        phi_ode = optimal_inventory_ode(q, 1.0, market, 1.0).phi
        assert np.max(np.abs(phi_qp - phi_ode)) < 1e-12


def test_qp_memory_is_linear(market):
    p = arcsine_profile(build_grid(1.0, 4000))
    tracemalloc.start()
    try:
        solve_qp_deterministic(p, 2.0, market, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6  # one n x n matrix alone is 128 MB


def test_qp_stays_interior_on_volume_profiles(market, arcsine500):
    # positive turnover keeps the unconstrained optimum strictly positive,
    # so the bound constraints never activate
    for lam in (2.0, 50.0):
        _, rep = solve_qp_deterministic(arcsine500, lam, market, 1.0)
        assert rep.active_bounds == ()
        assert np.min(rep.zeta_intervals) > 0.0


def test_qp_objective_beats_feasible_perturbations(market, arcsine500):
    g = arcsine500.grid
    _, rep = solve_qp_deterministic(arcsine500, 1.0, market, 1.0)
    z = rep.zeta_intervals
    base = _qp_objective(z, arcsine500, 1.0, market, 1.0)
    assert base == pytest.approx(rep.objective, rel=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(10):
        d = rng.standard_normal(z.size)
        d -= d.mean()  # keep tau * sum(z) fixed
        trial = z + 1e-3 * d / np.max(np.abs(d))
        if np.any(trial < 0.0):
            continue
        assert _qp_objective(trial, arcsine500, 1.0, market, 1.0) >= base - 1e-14


def test_active_set_water_filling():
    """Projection onto the sell-off simplex has a bisection closed form."""
    rng = np.random.default_rng(3)
    n = 40
    c = rng.standard_normal(n)
    tau = 1.0 / n
    # H = 2 I: a unit diagonal model with no inventory term
    model = _RateModel(d=np.full(n, 2.0), k=0.0, w=trapz_weights(n, tau))
    z, iters, fixed = _active_set_qp(model, 2.0 * c, tau, 1.0)
    lo, hi = -10.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if tau * np.sum(np.clip(c + mid, 0.0, None)) < 1.0:
            lo = mid
        else:
            hi = mid
    ref = np.clip(c + 0.5 * (lo + hi), 0.0, None)
    assert fixed.sum() > 0
    assert np.max(np.abs(z - ref)) < 1e-12
    stationarity, mult = _multipliers(2.0 * (z - c), fixed, tau)
    assert np.all(mult > -1e-12)  # pinned coordinates push outward
    assert stationarity < 1e-12   # free coordinates are stationary


def test_active_set_pins_only_the_optimum_bounds():
    """The active set never releases a pin, and needs none: on random models
    (d over 8 decades, k = 0 and k > 0, positive w, any b, Phi > 0) its
    answer is a dense active set's that can release, every rate it pinned on
    any face is zero there, and the bound multipliers are nonnegative."""
    rng = np.random.default_rng(2026)
    pinned_cases = 0
    for case in range(2000):
        n = int(rng.integers(2, 201))
        tau = rng.uniform(0.1, 2.0) / n
        d = tau * 10.0 ** rng.uniform(-4.0, 4.0, n)
        k = 0.0 if case % 2 == 0 else 10.0 ** rng.uniform(-3.0, 5.0)
        w = tau * rng.uniform(0.1, 1.0, n + 1)
        Phi = 10.0 ** rng.uniform(-2.0, 2.0)
        H = dense_quadratic_hessian(d, k, w)
        b = rng.standard_normal(n) * 10.0 ** rng.uniform(-2.0, 2.0) * np.abs(H).max() * Phi / (tau * n)
        z, face_solves, fixed = _active_set_qp(_RateModel(d, k, w), b, tau, Phi)
        ref = dense_active_set(H, b, tau, Phi)[0]
        assert face_solves <= n
        assert np.max(np.abs(z - ref)) <= 1e-10 * np.max(ref)
        assert np.all(ref[fixed] == 0.0)
        mult = _multipliers(H @ z - b, fixed, tau)[1]
        assert np.min(mult, initial=0.0) >= -1e-10 * max(np.abs(H @ z).max(), np.abs(b).max())
        pinned_cases += bool(fixed.any())
    assert pinned_cases > 1000


def _random_model(rng, n, mu=0.0):
    tau = 1.0 / n
    d = 0.01 * tau / (0.2 + rng.random(n)) + mu
    return _RateModel(d=d, k=2.0 * 50.0 * 0.04 * tau**2, w=trapz_weights(n, tau)), tau


@pytest.mark.parametrize("n", [2, 3, 60, 300])
def test_rate_model_product_matches_dense(n):
    rng = np.random.default_rng(n)
    for mu in (0.0, 1e-3):
        model, _ = _random_model(rng, n, mu)
        H = dense_quadratic_hessian(model.d, model.k, model.w)
        for _ in range(3):
            z = rng.standard_normal(n)
            ref = H @ z
            assert np.max(np.abs(model.dot(z) - ref)) <= 1e-14 * np.max(np.abs(H) @ np.abs(z))


@pytest.mark.parametrize("n", [2, 3, 60, 300])
def test_rate_model_pinned_solve_matches_dense(n):
    """The tridiagonal solve with merged nodes equals the dense KKT step on
    random pinned masks, with a single free rate and with a Levenberg shift."""
    rng = np.random.default_rng(100 + n)
    for mu in (0.0, 1e-3):
        model, tau = _random_model(rng, n, mu)
        H = dense_quadratic_hessian(model.d, model.k, model.w)
        masks = [np.zeros(n, dtype=bool), np.arange(n) != rng.integers(n)]
        masks += [rng.random(n) < p for p in (0.3, 0.7)]
        for fixed in masks:
            if fixed.all():
                fixed[rng.integers(n)] = False
            b = rng.standard_normal(n) * np.max(model.d)
            z = model.face(tau, fixed)(b, 1.0)
            z_ref = dense_kkt_step(H, b, tau, 1.0, fixed)[0]
            assert np.all(z[fixed] == 0.0)
            assert np.max(np.abs(z - z_ref)) <= 1e-14 * np.max(np.abs(z_ref)) * n
        with pytest.raises(SolverFailureError):
            model.face(tau, np.ones(n, dtype=bool))(np.zeros(n), 1.0)


def test_face_reuse_matches_fresh_solves():
    """A face eliminated once gives, for every right-hand side, the bits of a
    fresh solve on it: with the first or last rate pinned, a single free rate,
    and a nonzero sell-off target."""
    rng = np.random.default_rng(11)
    n = 40
    model, tau = _random_model(rng, n)
    single = np.ones(n, dtype=bool)
    single[17] = False
    masks = [np.zeros(n, dtype=bool), np.arange(n) == 0, np.arange(n) == n - 1, single]
    masks += [rng.random(n) < 0.4 for _ in range(3)]
    for fixed in masks:
        face = model.face(tau, fixed)
        for Phi in (0.0, 1.0, 0.37):
            for _ in range(3):
                b = rng.standard_normal(n) * np.max(model.d)
                z = face(b, Phi)
                assert np.array_equal(z, model.face(tau, fixed)(b, Phi))
                assert np.all(z[fixed] == 0.0)


def test_face_vanishing_pivot_reported_like_solve():
    """A face whose first merged node has no curvature left fails when it is
    built, before any right-hand side, and names its node."""
    n = 6
    tau = 1.0 / n
    w = trapz_weights(n, tau)
    d = np.ones(n)
    k = -2.0 / float(w[1])  # zeroes 2 + k w_1, the first pivot with nothing pinned
    model = _RateModel(d=d, k=k, w=w)
    fixed = np.zeros(n, dtype=bool)
    with pytest.raises(SolverFailureError, match="vanishing pivot at node 1$"):
        model.face(tau, fixed)


@pytest.mark.xfail(strict=True, raises=SolverFailureError,
                   reason="face elimination cancels a pivot when adjacent turnover differs by 16 decades")
def test_face_survives_turnover_spread_over_sixteen_decades(market):
    """Turnover that jumps between 1e8 and 1e-8 is a well-posed problem, and
    at lam = 0 its optimum is volume-proportional.  Today the face's scaled
    rows cancel a pivot to rounding ("vanishing pivot at node 3") at lam up to
    1e-3, while lam = 1 solves."""
    v = np.array([1e8, 1e-8, 1e-8, 1e-8, 1e8, 1e8, 1e-8, 1e-8, 1e-8, 1e8, 1e-8])
    grid = build_grid(1.0, 10)
    profile = profile_from_samples(grid, v)
    for lam in (0.0, 1e-6, 1e-3):
        _, rep = solve_qp_deterministic(profile, lam, market, 1.0)
        assert rep.status == "converged", lam
        if lam == 0.0:
            xbar = _interval_means(v)
            ref = xbar / (grid.tau * xbar.sum())
            assert np.max(np.abs(rep.zeta_intervals - ref)) <= 1e-12 * ref.max()


def test_report_dict_fields():
    rep = SolveReport(
        objective=1.0, iterations=3, kkt_residual=1e-10, active_bounds=(2,), status="converged"
    )
    assert set(rep.as_dict()) == {
        "objective",
        "iterations",
        "kkt_residual",
        "active_bounds",
        "status",
    }
    assert rep.as_dict()["active_bounds"] == [2]


def test_sqp_zero_lam_immediate(market, gbm_model, grid200):
    s, rep = solve_sqp_gbm(gbm_model, 0.0, market, 1.0, grid200)
    assert rep.iterations == 0
    assert rep.status == "converged"
    u = gbm_harmonic_mean(gbm_model, grid200).v
    ubar = _interval_means(u)
    expect = ubar / (grid200.tau * np.sum(ubar))
    assert np.max(np.abs(rep.zeta_intervals - expect)) / np.max(expect) < 1e-10


def test_sqp_stops_at_a_non_finite_objective(market, grid200):
    """At v0 = 1e-300 the Cov(1/v) term overflows: its variance is infinite,
    without a warning, and the SQP stops at its first objective instead of
    stepping on NaN; at lam = 0 it never reads that term."""
    model = GbmVolumeModel(v0=1e-300, mu=-0.02, sigma=0.2)
    s = vwap_strategy(gbm_harmonic_mean(model, grid200), 1.0)
    assert mv_gbm(s, model, 1.0, market).variance == np.inf
    with pytest.raises(FloatingPointError, match="not finite"):
        solve_sqp_gbm(model, 1.0, market, 1.0, grid200)
    assert solve_sqp_gbm(model, 0.0, market, 1.0, grid200)[1].status == "converged"


@pytest.mark.parametrize("level", [1e306, 1e-313], ids=["diagonal-underflows", "diagonal-overflows"])
def test_rate_model_out_of_range_is_rejected(market, grid200, level):
    """A turnover so large that 2 kappa_tilde tau / xbar is no normal number,
    or so small that it overflows (and tau sum(xbar) underflows), is
    rejected where the rate model is built, with no warning, before any
    solve divides by it."""
    with pytest.raises(FloatingPointError, match="out of range"):
        MeanVarianceObjective(np.full(200, level), 1.0, market, 1.0, grid200)


# solve-sweep benchmark draws at seed 20240 whose objective stopped falling
# above the KKT tolerance before the step model held the turnover curvature
@pytest.mark.parametrize(
    "mu, sigma, rho, kappa_tilde, sigma_tilde, lam",
    [
        (-0.04946279859786151, 1.8295817943100208, 0.6108163188810428,
         0.02798896014620717, 0.17209626698222308, 5.190726838371588),
        (0.016829862581511063, 0.9283887338967032, 0.7748881107707507,
         0.013398935708520016, 0.12273078344696949, 156.6831966858494),
        (-0.03285353969623113, 1.7681725727666509, -0.1333889012540599,
         0.024914432852367926, 0.16017109186045964, 24.675916927727155),
    ],
    ids=["op13", "op25", "op27"],
)
def test_sqp_status_follows_kkt(mu, sigma, rho, kappa_tilde, sigma_tilde, lam, grid200):
    model = GbmVolumeModel(1.0, mu, sigma, rho=rho)
    market = MarketParams(kappa=0.1, kappa_tilde=kappa_tilde, sigma_tilde=sigma_tilde, s0=100.0)
    _, rep = solve_sqp_gbm(model, lam, market, 1.0, grid200)
    assert rep.status in ("converged", "stalled", "max-iterations")
    assert (rep.status == "converged") == (rep.kkt_residual <= 1e-8)


def _objective(kind, lam, market, grid):
    if kind == "deterministic":
        v = arcsine_profile(grid).v
        return MeanVarianceObjective(_interval_means(v), lam, market, 1.0, grid)
    model = GbmVolumeModel(1.0, -0.02, 0.2, rho=0.4)
    u = gbm_harmonic_mean(model, grid).v
    return MeanVarianceObjective(_interval_means(u), lam, market, 1.0, grid, model)


@pytest.mark.parametrize("kind", ["deterministic", "lognormal"])
def test_objective_gradient(kind, market_hi, grid200):
    obj = _objective(kind, 1.5, market_hi, grid200)
    profile = arcsine_profile(grid200)
    rng = np.random.default_rng(9)
    n = grid200.n_steps
    for _ in range(3):
        z = 0.5 + rng.random(n)
        z /= grid200.tau * z.sum()
        val, grad = obj.evaluate(z)[:2]
        assert val == pytest.approx(obj.evaluate(z)[0], rel=1e-14)
        if kind == "deterministic":
            ref = _qp_objective(z, profile, 1.5, market_hi, 1.0)
            assert val == pytest.approx(ref, rel=1e-13)
        idx = rng.choice(n, size=12, replace=False)
        h = 1e-6
        for i in idx:
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            fd = (obj.evaluate(zp)[0] - obj.evaluate(zm)[0]) / (2.0 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-10)
    if kind == "deterministic":
        _, rep = solve_qp_deterministic(profile, 1.5, market_hi, 1.0)
        assert rep.objective == obj.evaluate(rep.zeta_intervals)[0]


def test_lognormal_variance_memory_is_linear(market_hi):
    """mv_gbm, the lognormal objective, the deterministic QP, an easy SQP
    solve and a hard one (sigma=2, rho=0.9, lam=1000) build no n x n matrix."""
    g = build_grid(1.0, 2000)
    model = GbmVolumeModel(1.0, -0.02, 0.4, rho=0.5)
    s = Strategy(grid=g, zeta=np.ones(len(g)), Phi=1.0)
    z = np.full(g.n_steps, 1.0)
    ubar = _interval_means(gbm_harmonic_mean(model, g).v)
    peaks = []
    for run in (
        lambda: mv_gbm(s, model, 2.0, market_hi),
        lambda: MeanVarianceObjective(ubar, 2.0, market_hi, 1.0, g, model).evaluate(z),
        lambda: solve_qp_deterministic(arcsine_profile(g), 2.0, market_hi, 1.0),
        lambda: solve_sqp_gbm(GbmVolumeModel(1.0, -0.02, 0.2, rho=0.5), 2.0, market_hi, 1.0, g),
        lambda: solve_sqp_gbm(GbmVolumeModel(1.0, -0.02, 2.0, rho=0.9), 1000.0, market_hi, 1.0, g),
    ):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 4e6, peaks  # one n x n matrix alone is 32 MB


def test_sqp_converges_with_correlation(market_hi, grid200):
    zeta0 = []
    for rho in (-0.9, 0.0, 0.9):
        model = GbmVolumeModel(1.0, -0.02, 0.2, rho=rho)
        s, rep = solve_sqp_gbm(model, 10.0, market_hi, 1.0, grid200)
        assert rep.status == "converged"
        assert rep.kkt_residual <= 1e-8
        assert rep.iterations <= 200
        zeta0.append(s.zeta[0])
    # stronger positive price/volume coupling front-loads the schedule
    assert zeta0[0] < zeta0[1] < zeta0[2]


def _beats_feasible_perturbations(obj, z, rng, count=10):
    """obj at z is no higher than at `count` feasible perturbations that keep
    tau sum(z) and move pinned rates only upward."""
    base, pinned = obj.evaluate(z)[0], z == 0.0
    for _ in range(count):
        d = rng.standard_normal(z.size)
        d[pinned] = np.abs(d[pinned])
        d[~pinned] -= d.sum() / np.count_nonzero(~pinned)
        step = 1e-3 / np.max(np.abs(d))
        while np.any(z + step * d < 0.0):
            step /= 2.0
        assert obj.evaluate(z + step * d)[0] >= base - 1e-12


def test_sqp_optimum_beats_perturbations(market_hi, grid200):
    model = GbmVolumeModel(1.0, -0.02, 0.2, rho=0.5)
    ubar = _interval_means(gbm_harmonic_mean(model, grid200).v)
    obj = MeanVarianceObjective(ubar, 5.0, market_hi, 1.0, grid200, model)
    _, rep = solve_sqp_gbm(model, 5.0, market_hi, 1.0, grid200)
    z = rep.zeta_intervals
    base = obj.evaluate(z)[0]
    assert base == pytest.approx(rep.objective, rel=1e-12)
    _beats_feasible_perturbations(obj, z, np.random.default_rng(6))


def test_turnover_curvature_matches_differences(market_hi):
    """The diagonal the SQP step adds is the exact second derivative of lam
    times the Cov(1/v) and cross-moment terms, by central differences of the
    gradient; it vanishes at lam = 0 and under deterministic turnover."""
    n = 50
    g = build_grid(1.0, n)
    rng = np.random.default_rng(50)
    z = 0.5 + rng.random(n)
    z /= g.tau * z.sum()
    h, negative = 1e-5, False
    for rho in (-0.9, 0.0, 0.9):
        for sigma in (0.2, 2.0):
            model = GbmVolumeModel(1.0, -0.02, sigma, rho=rho)
            ubar = _interval_means(gbm_harmonic_mean(model, g).v)
            for lam in (5.0, 1000.0):
                obj = MeanVarianceObjective(ubar, lam, market_hi, 1.0, g, model)
                curv = obj.evaluate(z)[2]()[0]
                fd = np.empty(n)
                for i in range(n):
                    zp, zm = z.copy(), z.copy()
                    zp[i] += h
                    zm[i] -= h
                    gp = obj.evaluate(zp)[1] - obj.quad.dot(zp)
                    gm = obj.evaluate(zm)[1] - obj.quad.dot(zm)
                    fd[i] = (gp[i] - gm[i]) / (2.0 * h)
                assert np.max(np.abs(curv - fd)) <= 5e-8 * np.max(np.abs(fd)), (rho, sigma, lam)
                assert np.all(np.maximum(curv, 0.0) >= 0.0)
                negative |= bool(np.any(curv < 0.0))
            neutral = MeanVarianceObjective(ubar, 0.0, market_hi, 1.0, g, model)
            assert np.all(neutral.evaluate(z)[2]()[0] == 0.0)
    assert negative  # a negative cross term makes the clip at zero matter
    det = _objective("deterministic", 1000.0, market_hi, g)
    assert np.all(det.evaluate(z)[2]()[0] == 0.0)


def test_hessian_dot_matches_differences(market_hi):
    """The Hessian product is the exact second derivative of the objective,
    by central differences of its gradient, column by column; its diagonal is
    the SQP step model's diagonal before the clip, quad.d plus the curvature
    (plus the inventory term), and without turnover terms it is the rate model."""
    n = 50
    g = build_grid(1.0, n)
    rng = np.random.default_rng(50)
    z = 0.5 + rng.random(n)
    z /= g.tau * z.sum()
    h, eye = 1e-5, np.eye(n)
    for rho in (-0.9, 0.0, 0.9):
        for sigma in (0.2, 2.0):
            model = GbmVolumeModel(1.0, -0.02, sigma, rho=rho)
            ubar = _interval_means(gbm_harmonic_mean(model, g).v)
            for lam in (5.0, 1000.0):
                obj = MeanVarianceObjective(ubar, lam, market_hi, 1.0, g, model)
                curv, dot = obj.evaluate(z)[2]()
                hess = np.column_stack([dot(e) for e in eye])
                fd = np.column_stack(
                    [
                        obj.evaluate(z + h * e)[1] - obj.evaluate(z - h * e)[1]
                        for e in eye
                    ]
                ) / (2.0 * h)
                assert np.max(np.abs(hess - fd)) <= 5e-8 * np.max(np.abs(fd)), (rho, sigma, lam)
                step = replace(obj.quad, d=obj.quad.d + curv)
                model_diag = np.array([step.dot(e)[i] for i, e in enumerate(eye)])
                assert np.max(np.abs(np.diag(hess) - model_diag)) <= 1e-13 * np.max(model_diag)
    det = _objective("deterministic", 1000.0, market_hi, g)
    v = rng.standard_normal(n)
    assert np.array_equal(det.evaluate(z)[2]()[1](v), det.quad.dot(v))


# (sigma, rho, lam) of the solve-sweep benchmark's hard corners and each one's
# objective before the step model held the turnover curvature, when all three
# ran out of iterations
HARD_CORNERS = [
    (1.0, -0.9, 1000.0, 0.49634171506682745),
    (2.0, 0.9, 100.0, 0.7299491678377519),
    (2.0, 0.9, 1000.0, 4.750556910281606),
]


@pytest.mark.parametrize(
    "sigma, rho, lam, previous", HARD_CORNERS, ids=["rho-0.9", "sigma2-lam100", "sigma2-lam1000"]
)
def test_sqp_hard_corners(sigma, rho, lam, previous, market_hi, grid200):
    model = GbmVolumeModel(1.0, -0.02, sigma, rho=rho)
    _, rep = solve_sqp_gbm(model, lam, market_hi, 1.0, grid200)
    assert rep.objective <= previous
    if sigma == 2.0:
        assert rep.kkt_residual <= 1e-7
        assert rep.iterations <= 50
    ubar = _interval_means(gbm_harmonic_mean(model, grid200).v)
    obj = MeanVarianceObjective(ubar, lam, market_hi, 1.0, grid200, model)
    _beats_feasible_perturbations(obj, rep.zeta_intervals, np.random.default_rng(7))


# each hard corner's objective when the damped steps finished it alone:
# sigma=1 ran out of iterations at KKT 2.1e-8, sigma=2, lam=1000 stalled
DAMPED_ONLY = [0.4963416973336483, 0.7298411308850394, 4.74759279506384]


@pytest.mark.parametrize(
    "corner, previous",
    zip(HARD_CORNERS, DAMPED_ONLY),
    ids=["rho-0.9", "sigma2-lam100", "sigma2-lam1000"],
)
def test_sqp_hard_corners_finish(corner, previous, market_hi, grid200):
    """The Newton endgame takes every hard corner to the KKT tolerance well
    inside the iteration budget, at an objective no higher than the damped
    steps reached; the rho=-0.9 corner also converges at n=1000, where the
    final face needs bounds released."""
    sigma, rho, lam, _ = corner
    model = GbmVolumeModel(1.0, -0.02, sigma, rho=rho)
    _, rep = solve_sqp_gbm(model, lam, market_hi, 1.0, grid200)
    assert rep.status == "converged"
    assert rep.kkt_residual <= 1e-8
    assert rep.iterations <= 60
    assert rep.objective <= previous
    if rho == -0.9:
        _, rep = solve_sqp_gbm(model, lam, market_hi, 1.0, build_grid(1.0, 1000))
        assert rep.status == "converged"


def test_sqp_finishes_when_the_pinned_set_swings(grid200):
    """A solve-sweep op whose pinned set swings between two sets on
    alternate damped steps still enters the Newton endgame and converges;
    it stalled at KKT 2.4e-8 after 46 iterations while the trigger asked for
    one unchanged pinned set."""
    model = GbmVolumeModel(1.0, 0.03158660636885341, 1.4484506617249664, rho=-0.8757490822493116)
    market = MarketParams(kappa=0.1, kappa_tilde=0.03708940958892793,
                          sigma_tilde=0.29552468114922953, s0=100.0)
    _, rep = solve_sqp_gbm(model, 323.32796958312855, market, 1.0, grid200)
    assert rep.status == "converged"
    assert rep.kkt_residual <= 1e-8


def test_face_newton_direction_eliminates_once(monkeypatch, market_hi, grid200):
    """Every CG iteration of a Newton direction reuses one elimination of its
    face, on the rho=-0.9 hard corner."""
    eliminations, per_call = [0], []
    eliminate, direction = optimizer._eliminate, optimizer._face_newton_direction

    def counted_eliminate(*args):
        eliminations[0] += 1
        return eliminate(*args)

    def counted_direction(*args):
        before = eliminations[0]
        d = direction(*args)
        per_call.append(eliminations[0] - before)
        return d

    monkeypatch.setattr(optimizer, "_eliminate", counted_eliminate)
    monkeypatch.setattr(optimizer, "_face_newton_direction", counted_direction)
    sigma, rho, lam, _ = HARD_CORNERS[0]
    _, rep = solve_sqp_gbm(GbmVolumeModel(1.0, -0.02, sigma, rho=rho), lam, market_hi, 1.0, grid200)
    assert rep.status == "converged"
    assert per_call and per_call == [1] * len(per_call)


def test_face_newton_direction_stops_on_non_positive_curvature():
    """Non-positive curvature ends the CG loop: at its first direction the
    preconditioned steepest direction comes back, and after one step the
    iterate so far."""
    rng = np.random.default_rng(31)
    n = 12
    model, tau = _random_model(rng, n)
    fixed = np.arange(n) == 4
    g = rng.standard_normal(n) * np.max(model.d)
    y = model.face(tau, fixed)(g, 0.0)
    d = optimizer._face_newton_direction(lambda v: -v, g, model, tau, fixed, 1e-8)
    assert np.array_equal(d, -y)
    # a true curvature that the step model does not match, then a negative one
    extra = np.max(model.d) * rng.uniform(0.5, 2.0, n)
    calls = []

    def hess(v):
        calls.append(v)
        return model.dot(v) + extra * v if len(calls) == 1 else -v

    d = optimizer._face_newton_direction(hess, g, model, tau, fixed, 1e-8)
    p = -y
    assert len(calls) == 2
    assert np.allclose(d, (g @ y) / (p @ (model.dot(p) + extra * p)) * p, rtol=1e-14, atol=0.0)
    assert d[4] == 0.0 and abs(d.sum()) <= 1e-14 * np.abs(d).sum()


def _newton_case(market):
    """A deterministic objective on 20 rates, its model, and an interior
    point a small sell-off-neutral perturbation away from the optimum."""
    grid = build_grid(1.0, 20)
    profile = arcsine_profile(grid)
    obj = MeanVarianceObjective(_interval_means(profile.v), 5.0, market, 1.0, grid)
    _, rep = solve_qp_deterministic(profile, 5.0, market, 1.0)
    wiggle = np.cos(np.arange(20.0))
    z = rep.zeta_intervals * (1.0 + 0.01 * (wiggle - wiggle.mean()))
    return obj, z * (1.0 / (grid.tau * z.sum()))


def test_face_newton_step_without_descent_returns_none(market):
    """A gradient that is constant on the face is stationary there: the
    direction is zero, its slope is not negative, and no step is taken."""
    obj, z = _newton_case(market)
    g = np.full(z.size, 0.3)
    assert optimizer._face_newton_step(obj, obj.quad, obj.quad.dot, z, 1.0, g, 1e-6) is None


def test_face_newton_step_halves_an_overlong_step(market):
    """A product at 0.3 of the true curvature makes the Newton step 1/0.3
    times too long: the Armijo test rejects the full step and accepts the
    half step, on an objective whose true step is 0.3."""
    obj, z = _newton_case(market)
    f, g, _ = obj.evaluate(z)
    hess = lambda v: 0.3 * obj.quad.dot(v)
    fixed = np.zeros(z.size, dtype=bool)
    d = optimizer._face_newton_direction(hess, g, obj.quad, obj.tau, fixed, 0.1)
    assert np.all(z + d > 0.0)  # no bound cuts the full step
    seen = []
    evaluate = obj.evaluate
    obj.evaluate = lambda x: seen.append(x) or evaluate(x)
    z_new, f_new, g_new, _ = optimizer._face_newton_step(obj, obj.quad, hess, z, f, g, 1e-2)
    assert len(seen) == 2
    assert np.array_equal(seen[0], z + d) and np.array_equal(z_new, z + 0.5 * d)
    assert f_new <= f + 1e-4 * 0.5 * float(g @ d) < f


def test_each_point_is_evaluated_once(monkeypatch, market_hi, grid200):
    """On the sigma=2, rho=0.9, lam=100 hard corner the SQP forms each point's
    turnover terms once: an accepted iterate's step diagonal and Newton
    product read its evaluation instead of a second one, and the final
    rescale to the block size, which leaves these rates bit for bit as they
    are, reuses the last iterate's value.  A deterministic solve reads its
    KKT residual and its objective from one evaluation of its final point."""
    turnover, points = Counter(), Counter()
    bmid, evaluate = MeanVarianceObjective._bmid, MeanVarianceObjective.evaluate

    def counted_bmid(self, z, Phi=None):
        if Phi is None:
            turnover[z.tobytes()] += 1
        return bmid(self, z, Phi)

    def counted_evaluate(self, z):
        points[z.tobytes()] += 1
        return evaluate(self, z)

    monkeypatch.setattr(MeanVarianceObjective, "_bmid", counted_bmid)
    monkeypatch.setattr(MeanVarianceObjective, "evaluate", counted_evaluate)
    sigma, rho, lam, _ = HARD_CORNERS[1]
    _, rep = solve_sqp_gbm(GbmVolumeModel(1.0, -0.02, sigma, rho=rho), lam, market_hi, 1.0, grid200)
    z = np.asarray(rep.zeta_intervals)
    assert rep.iterations > 1
    assert np.array_equal(np.clip(z * (1.0 / (grid200.tau * z.sum())), 0.0, None), z)
    assert points[z.tobytes()] == 1
    assert max(points.values()) == 1 and max(turnover.values()) == 1
    points.clear()
    _, rep = solve_qp_deterministic(arcsine_profile(grid200), lam, market_hi, 1.0)
    assert points == {rep.zeta_intervals.tobytes(): 1}


@pytest.mark.parametrize(
    "sigma, rho, lam",
    [(0.2, 0.0, 10.0), (2.0, 0.9, 100.0), (2.0, 0.9, 1000.0)],
    ids=["fig3-rho0", "sigma2-lam100", "sigma2-lam1000"],
)
def test_report_describes_the_returned_rates(sigma, rho, lam, market_hi, grid200):
    """The report's objective and KKT residual are those of the rates it
    returns, also where the final rescale to the block size moves the last
    iterate (fig3's rho = 0 solve and the sigma=2, lam=1000 corner)."""
    model = GbmVolumeModel(1.0, -0.02, sigma, rho=rho)
    _, rep = solve_sqp_gbm(model, lam, market_hi, 1.0, grid200)
    obj = MeanVarianceObjective(_interval_means(gbm_harmonic_mean(model, grid200).v), lam,
                                market_hi, 1.0, grid200, model)
    f, g, _ = obj.evaluate(rep.zeta_intervals)
    assert rep.status == "converged"
    assert rep.objective == f
    assert rep.kkt_residual == optimizer._kkt_residual(g, rep.zeta_intervals, grid200.tau)


def test_sqp_stalls_when_no_damped_step_descends(monkeypatch, market_hi, gbm_model, grid200):
    """With the KKT test switched off, the fig2 model at lam=1 reaches its
    optimum in two damped steps.  On the third, the predicted decreases are
    rounding that the objective does not follow, so the shift grows until
    the step model predicts no descent: the solve ends "stalled" on the same
    rates, long before the shift reaches 1e12."""
    _, done = solve_sqp_gbm(gbm_model, 1.0, market_hi, 1.0, grid200)
    assert (done.status, done.iterations) == ("converged", 2)
    points = []
    evaluate = MeanVarianceObjective.evaluate
    monkeypatch.setattr(optimizer, "_KKT_TOL", 0.0)
    monkeypatch.setattr(MeanVarianceObjective, "evaluate", lambda self, z: points.append(z) or evaluate(self, z))
    _, rep = solve_sqp_gbm(gbm_model, 1.0, market_hi, 1.0, grid200)
    assert (rep.status, rep.iterations) == ("stalled", 3)
    assert np.array_equal(rep.zeta_intervals, done.zeta_intervals)
    # the start and two accepted points, then the third step's rejected
    # points: the shift needs 34 of them to rise from 1e-8 to 1e12
    assert len(points) - 3 < 34


# solve-sweep benchmark ops (seed 97 ops 403 and 969, and seed 89 op 119 with
# random sigma up to 2 at n=500) that stopped "stalled" at KKT 2.1e-8 to
# 2.2e-8 on a 1e-12 relative objective decrease, an exit the SQP no longer
# has; (mu, sigma, rho, kappa_tilde, sigma_tilde, lam, n, the iterations the
# solve may take, the objective where it stalled)
FORMER_STALLS = [
    (-0.03745906663285657, 0.7535463521131178, -0.6889874059701484, 0.037021132733974886,
     0.18829650580173135, 560.226625839194, 200, 35, 0.7285955823898043),
    (0.0477591454548594, 0.589324759667743, -0.7218243400479294, 0.028811575211892343,
     0.2609993540407789, 867.1362670190732, 200, 31, 1.0108919810030412),
    (-0.02792769646741737, 1.3835753579721974, -0.8139978574130744, 0.019134516697324955,
     0.21734247246379712, 961.4562620573165, 500, 47, 0.7305410654347397),
]


@pytest.mark.parametrize(
    "mu, sigma, rho, kappa_tilde, sigma_tilde, lam, n, iterations, stalled_at",
    FORMER_STALLS,
    ids=["seed97-op403", "seed97-op969", "seed89-op119"],
)
def test_sqp_former_stalls_converge(mu, sigma, rho, kappa_tilde, sigma_tilde, lam, n, iterations,
                                    stalled_at):
    model = GbmVolumeModel(1.0, mu, sigma, rho=rho)
    market = MarketParams(kappa=0.1, kappa_tilde=kappa_tilde, sigma_tilde=sigma_tilde, s0=100.0)
    _, rep = solve_sqp_gbm(model, lam, market, 1.0, build_grid(1.0, n))
    assert rep.status == "converged"
    assert rep.iterations <= iterations
    assert rep.objective <= stalled_at


@pytest.mark.parametrize("Phi", [np.nan, np.inf, -np.inf, 0.0])
def test_bad_phi_rejected_before_solving(Phi, market, arcsine500, gbm_model):
    """Both solvers name a block size that is not positive and finite before
    any arithmetic on it (a solve on NaN rates would warn first)."""
    g = arcsine500.grid
    calls = [
        lambda: MeanVarianceObjective(np.ones(g.n_steps), 1.0, market, Phi, g),
        lambda: solve_qp_deterministic(arcsine500, 1.0, market, Phi),
        lambda: solve_sqp_gbm(gbm_model, 1.0, market, Phi, g),
    ]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Phi must be positive and finite"):
                call()


@pytest.mark.parametrize("lam", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_lam_rejected(lam, market, arcsine500, gbm_model):
    """Every entry point that takes a risk aversion names lam when it is not
    finite, instead of failing later on the numbers it produces."""
    g = arcsine500.grid
    s = vwap_strategy(arcsine500, 1.0)
    calls = [
        lambda: MvValue(expectation=1.0, variance=0.5, objective=1.0 + lam * 0.5, lam=lam),
        lambda: MeanVarianceObjective(np.ones(g.n_steps), lam, market, 1.0, g),
        lambda: solve_qp_deterministic(arcsine500, lam, market, 1.0),
        lambda: solve_sqp_gbm(gbm_model, lam, market, 1.0, g),
        lambda: mv_deterministic(s, arcsine500, lam, market),
        lambda: mv_gbm(s, gbm_model, lam, market),
        lambda: ac_closed_form(lam, market, 1.0, g, 1.0),
        lambda: asymptotic_expansion(arcsine500, market, lam, 1.0),
        lambda: optimal_inventory_ode(arcsine500, lam, market, 1.0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="lam must be finite"):
            call()
