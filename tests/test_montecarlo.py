import dataclasses
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from volexec import cost, montecarlo
from volexec.cost import _StaticCosts, mv_deterministic, mv_gbm
from volexec.errors import ConsistencyError
from volexec.grids import build_grid, trapz, trapz_weights
from volexec.montecarlo import (
    SimulationConfig,
    _cost_rows,
    estimate_cost_moments,
    moment_estimate,
    validate_theorem_orderings,
)
from volexec.optimizer import solve_sqp_gbm
from volexec.strategies import Strategy, expected_vwap_strategy, vwap_strategy
from volexec.validation import _independent_direct_cost
from volexec.volume import (
    GbmVolumeModel,
    _gbm_block,
    _normal_block,
    arcsine_profile,
    constant_profile,
    gbm_harmonic_mean,
    profile_from_samples,
)

from conftest import (
    antithetic_paths,
    decompose,
    joint_paths,
    make_twap,
    perturbed_cost_weights,
    task_fault,
)


def _cfg(volume, market, grid, n_paths=2000, seed=0):
    return SimulationConfig(n_paths=n_paths, seed=seed, grid=grid, market=market, volume=volume)


def test_config_validation(market, gbm_model, grid200):
    with pytest.raises(ValueError):
        _cfg(gbm_model, market, grid200, n_paths=1)
    mismatched = constant_profile(build_grid(1.0, 30), 1.0)
    with pytest.raises(ValueError):
        _cfg(mismatched, market, grid200)


def test_volume_paths_match_reference_sampler(market, gbm_model, grid200):
    cfg = _cfg(gbm_model, market, grid200, n_paths=16, seed=12)
    price, vol = joint_paths(cfg)
    z = _normal_block(12, 0, 16, stream=0, n=grid200.n_steps)
    ref = _gbm_block(gbm_model, grid200, np.sqrt(grid200.tau) * z)
    assert np.array_equal(vol, ref)
    assert np.all(price[:, 0] == market.s0)


def test_price_increments_have_requested_correlation(market, grid200):
    model = GbmVolumeModel(1.0, -0.02, 0.2, rho=0.3)
    cfg = _cfg(model, market, grid200, n_paths=200, seed=1)
    price, vol = joint_paths(cfg)
    dS = np.diff(price, axis=1).ravel()
    dlogv = np.diff(np.log(vol), axis=1).ravel()
    corr = np.corrcoef(dS, dlogv)[0, 1]
    # 40k increments: sampling error well under 0.01
    assert abs(corr - 0.3) < 0.01


def test_perfect_correlation_is_exact(market, grid200):
    model = GbmVolumeModel(1.0, -0.02, 0.2, rho=1.0)
    cfg = _cfg(model, market, grid200, n_paths=8, seed=2)
    price, vol = joint_paths(cfg)
    dS = np.diff(price, axis=1)
    drift = (model.mu - 0.5 * model.sigma**2) * grid200.tau
    db = (np.log(vol[:, 1:] / vol[:, :-1]) - drift) / model.sigma
    assert np.allclose(dS, market.sigma_tilde * db, rtol=1e-10)


def test_deterministic_volume_is_broadcast(market, grid200):
    p = arcsine_profile(grid200)
    cfg = _cfg(p, market, grid200, n_paths=5, seed=3)
    price, vol = joint_paths(cfg)
    assert np.array_equal(vol, np.broadcast_to(p.v, vol.shape))
    assert not np.array_equal(price[0], price[1])


def _on_workers(monkeypatch, counts, run):
    """run() once per worker count, as if the process could use that many
    CPUs."""
    out = []
    for workers in counts:
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
        out.append(run())
    return out


def test_batching_is_invisible(monkeypatch, market, gbm_model, grid200, twap200):
    # 1030 paths span five keyed blocks, the last one ragged; one and two
    # workers price tasks of 512 drawn paths, five workers tasks of 256
    cfg = _cfg(gbm_model, market, grid200, n_paths=1030, seed=4)
    draw, tasks = montecarlo._normal_block, set()

    def logged(seed, first, last, *args, **kwargs):
        tasks.add((first, last))
        return draw(seed, first, last, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "_normal_block", logged)
    for antithetic in (False, True):
        runs = []
        for workers in (1, 2, 5):
            monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
            runs.append(estimate_cost_moments(twap200, cfg, antithetic=antithetic, return_costs=True))
            drawn, size = 1030 // (1 + antithetic), 256 if workers == 5 else 512
            assert tasks == {(a, min(a + size, drawn)) for a in range(0, drawn, size)}
            tasks.clear()
        (a, ca), *rest = runs
        for b, cb in rest:
            assert np.array_equal(ca, cb)
            assert a.mean == b.mean
            assert a.variance == b.variance
            assert b.n_paths == 1030


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
    price, _ = joint_paths(cfg)
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


def test_antithetic_variance_error_matches_spread(market_hi):
    """The reported standard error of an antithetic variance estimate matches
    the spread of that estimate across seeds."""
    g = build_grid(1.0, 50)
    model = GbmVolumeModel(1.0, -0.02, 0.3, rho=0.5)
    s, _ = solve_sqp_gbm(model, 5.0, market_hi, 1.0, g)
    cfgs = [_cfg(model, market_hi, g, n_paths=4000, seed=seed) for seed in range(40)]
    ests = [estimate_cost_moments(s, cfg, antithetic=True) for cfg in cfgs]
    spread = np.std([e.variance for e in ests], ddof=1)
    assert 0.8 <= spread / np.mean([e.std_error_variance for e in ests]) <= 1.25


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


def test_anticipating_row_adds_no_path_memory(monkeypatch, market_hi, grid500):
    """The per-path anticipating row is priced in closed form in the pass's
    spare buffer: with it, an n=500 gbm pass peaks within 1.25x of the same
    pass without it, so no per-path schedule is built."""
    model = GbmVolumeModel(1.0, -0.02, 0.2, rho=0.4)
    cfg = _cfg(model, market_hi, grid500, n_paths=4096, seed=14)
    statics = [expected_vwap_strategy(model, grid500, 1.0)]
    monkeypatch.setattr(montecarlo, "_worker_count", lambda: 2)
    peaks = []
    for phi in (None, 1.0):
        tracemalloc.start()
        try:
            _cost_rows(cfg, statics, anticipating_phi=phi)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


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


def _shaped(grid, power, Phi=1.0):
    z = (grid.nodes + 0.05) ** power
    return Strategy(grid=grid, zeta=z * (Phi / trapz(z, grid.tau)), Phi=Phi)


def _volume(kind, grid, rho=0.0):
    if kind == "arcsine":
        return arcsine_profile(grid)
    if kind == "samples":
        v = 1.0 + 0.5 * np.random.default_rng(3).random(len(grid))
        return profile_from_samples(grid, v)
    return GbmVolumeModel(1.0, -0.02, 0.3, rho=rho)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("kind", ["arcsine", "samples", "gbm"])
def test_cost_rows_match_decompose(market_hi, grid200, kind, antithetic, k):
    """Oracle: every weight-vector row, the anticipating one included, equals
    the path-by-path decomposition on the same draws."""
    cfg = _cfg(_volume(kind, grid200, rho=-0.6), market_hi, grid200, n_paths=300, seed=21)
    statics = [_shaped(grid200, a) for a in (0.0, 1.5, -0.5)[:k]]
    rows = _cost_rows(cfg, statics, anticipating_phi=1.0, antithetic=antithetic)
    price, vol = antithetic_paths(cfg) if antithetic else joint_paths(cfg)
    w = trapz_weights(grid200.n_steps, grid200.tau)
    zeta_paths = vol * (1.0 / (vol @ w))[:, None]
    ref = [decompose(price, vol, zeta_paths, 1.0, grid200.tau, market_hi)[0]]
    ref += [decompose(price, vol, s.zeta, s.Phi, grid200.tau, market_hi)[0] for s in statics]
    tol = 1e-12 * max(1.0, market_hi.s0 * 1.0)
    assert rows.shape == (k + 1, cfg.n_paths)
    for row, expected in zip(rows, ref):
        assert np.max(np.abs(row - expected)) <= tol


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize(
    "kind, rho", [("arcsine", 0.0), ("gbm", -0.9), ("gbm", 0.0), ("gbm", 1.0)]
)
def test_rows_match_path_oracle(market_hi, grid200, kind, rho, antithetic):
    """The pass prices the draws and builds no path: every row, the
    anticipating one included, is the shortfall evaluated from its
    definition on the paths built from the same draws (mirrors included)."""
    cfg = _cfg(_volume(kind, grid200, rho=rho), market_hi, grid200, n_paths=300, seed=26)
    statics = [_shaped(grid200, a) for a in (0.0, 1.5, -0.5)]
    rows = _cost_rows(cfg, statics, anticipating_phi=1.0, antithetic=antithetic)
    price, vol = antithetic_paths(cfg) if antithetic else joint_paths(cfg)
    w = trapz_weights(grid200.n_steps, grid200.tau)
    zetas = [vol * (1.0 / np.einsum("ij,j->i", vol, w))[:, None]] + [s.zeta for s in statics]
    for row, zeta in zip(rows, zetas):
        ref = _independent_direct_cost(price, vol, zeta, 1.0, grid200.tau, market_hi)
        assert np.all(np.abs(row - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def _increment_kernel(statics, profile, market):
    """The pass's static kernel under deterministic turnover: the price
    moves by sigma_tilde sqrt(tau) times the standard normals."""
    scale = market.sigma_tilde * math.sqrt(profile.grid.tau)
    return _StaticCosts(statics, market, (scale,), (1.0,), v=profile.v)


@pytest.mark.parametrize("seed", [31, 32])
def test_deterministic_rows_have_exact_moments(market_hi, seed):
    """Under deterministic turnover a static row is c_k + z . G_k with z the
    standard normals, so its mean is the kernel's constant c_k and its
    variance |G_k|^2: the Monte Carlo moments match both within 3 SE."""
    grid = build_grid(1.0, 100)
    profile = arcsine_profile(grid)
    statics = [vwap_strategy(profile, 1.0), _shaped(grid, 1.5), _shaped(grid, -0.5)]
    rows = _cost_rows(_cfg(profile, market_hi, grid, n_paths=20_000, seed=seed), statics)
    kernel = _increment_kernel(statics, profile, market_hi)
    for k, row in enumerate(rows):
        est = moment_estimate(row)
        g = kernel.price_w[0][k]
        assert abs(est.mean - kernel.total0[k]) <= 3.0 * est.std_error_mean
        assert abs(est.variance - g @ g) <= 3.0 * est.std_error_variance


def test_exact_variance_tends_to_mv_deterministic(market_hi):
    """|G|^2, the exact variance of a row on the grid, meets the continuous
    sigma_tilde^2 int phi^2 at O(tau^2): each doubling of n cuts the gap
    to at most 0.3 of itself."""
    gaps = []
    for n in (50, 100, 200):
        grid = build_grid(1.0, n)
        profile = arcsine_profile(grid)
        s = make_twap(grid)
        g = _increment_kernel([s], profile, market_hi).price_w[0][0]
        gaps.append(abs(g @ g - mv_deterministic(s, profile, 0.0, market_hi).variance))
    assert gaps[1] <= 0.3 * gaps[0] and gaps[2] <= 0.3 * gaps[1], gaps


@pytest.mark.parametrize("kind", ["arcsine", "gbm"])
def test_cost_identity_has_teeth(monkeypatch, market, grid200, twap200, kind):
    """The direct form has its own weights: a small error in one of them
    breaks the identity of a static row and raises.  (The anticipating row
    under stochastic turnover is checked by `validate`.)  A task that fails
    on a helper thread raises on the calling thread."""
    cfg = _cfg(_volume(kind, grid200), market, grid200, n_paths=1030, seed=22)
    _cost_rows(cfg, [twap200])
    with monkeypatch.context() as m:
        m.setattr(cost, "_cost_weights", perturbed_cost_weights(1e-8))
        with pytest.raises(ConsistencyError):
            _cost_rows(cfg, [twap200])

    # a pass of three tasks on two threads whose draws fail on the helper
    # only: each thread's first draw waits for the other's, so the helper
    # holds a task before the calling thread can drain them all
    draw, barrier, seen = montecarlo._normal_block, threading.Barrier(2, timeout=30), set()

    def helper_fails(seed, first, *args, **kwargs):
        if threading.get_ident() not in seen:
            seen.add(threading.get_ident())
            barrier.wait()
        if threading.current_thread() is not threading.main_thread():
            task_fault(seed, first, *args, **kwargs)
        return draw(seed, first, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "_normal_block", helper_fails)
    monkeypatch.setattr(montecarlo, "_worker_count", lambda: 2)
    with pytest.raises(ValueError, match=r"^task at (0|512|1024)$"):
        _cost_rows(cfg, [twap200])


@pytest.mark.parametrize("kind", ["arcsine", "gbm"])
def test_identity_is_checked_on_the_weights_before_any_draw(monkeypatch, market, grid200, twap200, kind):
    """The kernel checks the two forms once, on their weights: a perturbed
    direct form raises from _StaticCosts, before the pass draws a path."""
    cfg = _cfg(_volume(kind, grid200, rho=-0.6), market, grid200, n_paths=1030, seed=22)
    draws = []
    draw = montecarlo._normal_block
    monkeypatch.setattr(montecarlo, "_normal_block", lambda *a, **k: draws.append(a) or draw(*a, **k))
    monkeypatch.setattr(cost, "_cost_weights", perturbed_cost_weights(1e-8))
    with pytest.raises(ConsistencyError, match=r"disagree by \S+ in schedule 0$"):
        _StaticCosts([twap200], market, (1.0,), (1.0,))
    with pytest.raises(ConsistencyError):
        _cost_rows(cfg, [twap200])
    assert not draws


@pytest.mark.parametrize("kind", ["arcsine", "gbm"])
def test_identity_bound_is_six_standard_deviations(monkeypatch, market, grid200, twap200, kind):
    """eps Phi moved between two adjacent direct weights changes one price
    increment's weight only: the forms then differ on a path by a Gaussian
    of standard deviation eps Phi sigma_tilde sqrt(tau), whatever rho (each
    driver weighted by its variance), and the check raises once six of them
    exceed 1e-8 (a TWAP's direct cost is below 1)."""
    cfg = _cfg(_volume(kind, grid200, rho=-0.6), market, grid200, n_paths=64, seed=22)
    bound = 1e-8 / (6.0 * market.sigma_tilde * math.sqrt(grid200.tau))
    with monkeypatch.context() as m:
        m.setattr(cost, "_cost_weights", perturbed_cost_weights(0.9 * bound, pair=True))
        _cost_rows(cfg, [twap200])
    monkeypatch.setattr(cost, "_cost_weights", perturbed_cost_weights(1.1 * bound, pair=True))
    with pytest.raises(ConsistencyError):
        _cost_rows(cfg, [twap200])


@pytest.mark.parametrize("workers", [2, 3, 5])
def test_rows_do_not_depend_on_worker_count(monkeypatch, market, workers):
    """Every row has the same bits whether one thread or several price the
    pass: gbm rows (the per-path anticipating row included) with and without
    antithetic twins, and the deterministic tournament's rows, with tasks of
    512 or 256 drawn paths and a ragged last task."""
    grid50 = build_grid(1.0, 50)
    gbm = GbmVolumeModel(1.0, -0.02, 0.3, rho=-0.4)
    arcsine = arcsine_profile(grid50)
    cases = [
        (gbm, [_shaped(grid50, 1.5), _shaped(grid50, -0.5)], False),
        (gbm, [_shaped(grid50, 1.5), _shaped(grid50, -0.5)], True),
        (arcsine, [_shaped(grid50, 1.5), vwap_strategy(arcsine, 1.0)], False),
    ]
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    # frequent thread switches: a task taken twice or skipped leaves columns
    # of the result unwritten, which the comparison sees
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for volume, statics, antithetic in cases:
            cfg = _cfg(volume, market, grid50, n_paths=1030, seed=25)
            monkeypatch.setattr(montecarlo, "_worker_count", lambda: 1)
            alone = _cost_rows(cfg, statics, 1.0, antithetic=antithetic)
            assert not started  # one CPU: the calling thread prices every task
            monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
            shared = _cost_rows(cfg, statics, 1.0, antithetic=antithetic)
            assert 0 < len(started) < workers  # no more helpers than tasks
            assert not any(t.is_alive() for t in started)
            started.clear()
            assert np.array_equal(alone, shared), (volume, antithetic)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("kind", ["arcsine", "gbm"])
def test_failing_pass_raises_the_same_error_on_any_cpu_count(monkeypatch, market, grid200, kind):
    """Every task of a failing pass raises; the error re-raised is the
    lowest task's, where a serial run stops, on any CPU count."""
    cfg = _cfg(_volume(kind, grid200), market, grid200, n_paths=1030, seed=22)
    statics = [_shaped(grid200, 1.5), _shaped(grid200, -0.5)]
    monkeypatch.setattr(montecarlo, "_normal_block", task_fault)
    for workers in (1, 2, 5):
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
        for antithetic in (False, True):
            with pytest.raises(ValueError, match=r"^task at 0$"):
                _cost_rows(cfg, statics, 1.0, antithetic=antithetic)


def test_repeated_schedule_is_priced_once(monkeypatch, market, grid200, twap200):
    """A schedule listed twice (under deterministic turnover the anticipating
    row and the volume-proportional probe) is contracted once and copied:
    each row has the bits of the schedule priced alone."""
    p = arcsine_profile(grid200)
    vwap = vwap_strategy(p, 1.0)
    cfg = _cfg(p, market, grid200, n_paths=700, seed=4)
    built = []
    kernel = montecarlo._StaticCosts

    def counted(schedules, *args, **kwargs):
        built.append(len(schedules))
        return kernel(schedules, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "_StaticCosts", counted)
    rows = _cost_rows(cfg, [twap200, vwap], 1.0)
    assert built == [2]
    assert np.array_equal(rows[0], _cost_rows(cfg, [vwap])[0])
    assert np.array_equal(rows[1], _cost_rows(cfg, [twap200])[0])
    assert np.array_equal(rows[2], rows[0])


@pytest.mark.parametrize("n_paths", [64, 3000])
@pytest.mark.parametrize("workers", [1, 2])
def test_work_beside_the_pass(monkeypatch, market, grid200, twap200, workers, n_paths):
    """The calling thread runs the work given beside the pass in order; with
    one CPU before the first task, otherwise while a helper prices the
    tasks, which starts even for a pass of one task.  A failing piece of
    work keeps its error for the reader and stops neither the rest nor the
    pass, and numpy's warnings of its call are issued when it is read."""
    cfg = _cfg(arcsine_profile(grid200), market, grid200, n_paths=n_paths, seed=9)
    monkeypatch.setattr(montecarlo, "_worker_count", lambda: 1)
    alone = _cost_rows(cfg, [twap200], 1.0)

    events, started = [], []
    draw = montecarlo._normal_block

    def logged(*args, **kwargs):
        events.append(("task", threading.current_thread() is threading.main_thread()))
        return draw(*args, **kwargs)

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    def boom():
        events.append(("boom", threading.current_thread() is threading.main_thread()))
        np.array([1e300]) * 1e300  # an overflow numpy would warn about
        raise ValueError("beside")

    def value():
        events.append(("value", threading.current_thread() is threading.main_thread()))
        return 7

    beside = [montecarlo._Outcome(boom), montecarlo._Outcome(value)]
    monkeypatch.setattr(montecarlo, "_normal_block", logged)
    monkeypatch.setattr(threading, "Thread", Counted)
    monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = _cost_rows(cfg, [twap200], 1.0, alongside=beside)
        assert not caught  # held until the outcome is read
        with pytest.raises(ValueError, match="beside"):
            beside[0].get()
    assert [str(w.message) for w in caught] == ["overflow encountered in multiply"]
    assert beside[1].get() == 7
    assert np.array_equal(rows, alone)
    assert len(started) == workers - 1
    work = [e for e in events if e[0] != "task"]
    assert work == [("boom", True), ("value", True)]
    if workers == 1:
        assert events.index(("value", True)) < events.index(("task", True))


def test_batching_is_invisible_deterministic_tournament(monkeypatch, market, grid200, twap200):
    # the tournament's rows on deterministic turnover: the anticipating row
    # joins the static contraction, and no row depends on the task split
    p = arcsine_profile(grid200)
    vwap = vwap_strategy(p, 1.0)
    cfg = _cfg(p, market, grid200, n_paths=1030, seed=4)
    for antithetic in (False, True):
        a, *rest = _on_workers(
            monkeypatch, (1, 2, 5), lambda: _cost_rows(cfg, [twap200, vwap], 1.0, antithetic=antithetic)
        )
        for b in rest:
            assert np.array_equal(a, b)
        assert np.array_equal(a[0], a[2])  # anticipating == volume-proportional
    # and these are the tournament's own rows
    _, rows = validate_theorem_orderings(cfg, {"twap": twap200, "vwap": vwap}, True)
    plain = _cost_rows(cfg, [twap200, vwap], 1.0)
    for name, row in zip(("anticipating-vwap", "twap", "vwap"), plain):
        assert np.array_equal(rows[name], row)


def test_batching_is_invisible_stochastic_tournament(monkeypatch, market, gbm_model, grid200, twap200):
    # the per-path anticipating row too: its turnover mass is a row-stable
    # contraction (a BLAS matrix-vector product changed with the task size)
    ev = expected_vwap_strategy(gbm_model, grid200, 1.0)
    model = dataclasses.replace(gbm_model, rho=0.3)
    cfg = _cfg(model, market, grid200, n_paths=1030, seed=4)
    for antithetic in (False, True):
        a, *rest = _on_workers(
            monkeypatch, (1, 2, 5), lambda: _cost_rows(cfg, [ev, twap200], 1.0, antithetic=antithetic)
        )
        for b in rest:
            assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", ["arcsine", "gbm"])
def test_rows_equal_one_schedule_passes(monkeypatch, market, grid200, kind):
    """A shared pass gives each schedule the row a pass of its own gives,
    bit for bit, on any CPU count, so simulate can price a whole sweep on
    one set of draws."""
    statics = [_shaped(grid200, a) for a in (0.0, 0.7, 2.0, -0.3)]
    cfg = _cfg(_volume(kind, grid200), market, grid200, n_paths=1030, seed=23)
    for antithetic in (False, True):
        alone = [
            estimate_cost_moments(s, cfg, antithetic=antithetic, return_costs=True)[1]
            for s in statics
        ]
        for rows in _on_workers(
            monkeypatch, (1, 2, 5), lambda: _cost_rows(cfg, statics, antithetic=antithetic)
        ):
            for row, expected in zip(rows, alone):
                assert np.array_equal(row, expected)


def test_memory_does_not_grow_with_schedules(market_hi, grid500, arcsine500):
    """Static rows are weight vectors: eight schedules hold the same batch
    temporaries as one."""
    cfg = _cfg(arcsine500, market_hi, grid500, n_paths=20_000, seed=24)
    statics = [_shaped(grid500, a) for a in np.linspace(-0.5, 2.0, 8)]
    peaks = []
    for subset in (statics[:1], statics):
        tracemalloc.start()
        try:
            _cost_rows(cfg, subset)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 8e6
