import dataclasses
import math
import re
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

from conftest import antithetic_paths, decompose, joint_paths, make_twap, perturbed_cost_weights


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
    return _StaticCosts(statics, market, (scale,), v=profile.v)


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
    breaks the per-path identity of a static row and raises.  (The
    anticipating row under stochastic turnover is checked by `validate`.)"""
    cfg = _cfg(_volume(kind, grid200), market, grid200, n_paths=64, seed=22)
    _cost_rows(cfg, [twap200])
    monkeypatch.setattr(cost, "_cost_weights", perturbed_cost_weights(1e-8))
    with pytest.raises(ConsistencyError):
        _cost_rows(cfg, [twap200])

    # a pass of eight tasks on two threads: the helper's error reaches the
    # caller.  The calling thread's checks are silenced, so the error raised
    # is the helper's, and each thread's first draw waits for the other's,
    # so the helper holds a task before the calling thread can drain them all.
    check, draw = cost._require_agreement, montecarlo._normal_block
    barrier, seen, raised_on = threading.Barrier(2, timeout=30), set(), []

    def recorded(*args):
        try:
            check(*args)
        except ConsistencyError:
            raised_on.append(threading.current_thread().name)
            if threading.current_thread() is not threading.main_thread():
                raise

    def paired(*args, **kwargs):
        if threading.get_ident() not in seen:
            seen.add(threading.get_ident())
            barrier.wait()
        return draw(*args, **kwargs)

    monkeypatch.setattr(cost, "_require_agreement", recorded)
    monkeypatch.setattr(montecarlo, "_normal_block", paired)
    monkeypatch.setattr(montecarlo, "_worker_count", lambda: 2)
    with pytest.raises(ConsistencyError):
        _cost_rows(cfg, [twap200], batch_size=16)
    assert threading.main_thread().name in raised_on  # the perturbation reached both


@pytest.mark.parametrize("workers", [2, 3])
def test_rows_do_not_depend_on_worker_count(monkeypatch, market, workers):
    """Every row has the same bits whether one thread or several price the
    pass: gbm rows (the per-path anticipating row included) with and without
    antithetic twins, and the deterministic tournament's rows, with tasks
    aligned to the keyed blocks or not, and a ragged last task."""
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
            for batch_size in (7, 2048):
                monkeypatch.setattr(montecarlo, "_worker_count", lambda: 1)
                alone = _cost_rows(cfg, statics, 1.0, antithetic=antithetic, batch_size=batch_size)
                assert not started  # one CPU: the calling thread prices every task
                monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
                shared = _cost_rows(cfg, statics, 1.0, antithetic=antithetic, batch_size=batch_size)
                assert len(started) == workers - 1
                assert not any(t.is_alive() for t in started)
                started.clear()
                assert np.array_equal(alone, shared), (volume, antithetic, batch_size)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("kind", ["arcsine", "gbm"])
def test_failing_pass_raises_the_same_error_on_any_cpu_count(monkeypatch, market, grid200, kind):
    """Every task of a perturbed pass fails; the error re-raised is the
    lowest task's, where a serial run stops, and its message names the
    path's index in the run and the schedule's row in plain numbers."""
    cfg = _cfg(_volume(kind, grid200), market, grid200, n_paths=2000, seed=22)
    statics = [_shaped(grid200, 1.5), _shaped(grid200, -0.5)]
    monkeypatch.setattr(cost, "_cost_weights", perturbed_cost_weights(1e-8))
    messages = []
    for workers in (1, 2, 1, 2):
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
        with pytest.raises(ConsistencyError) as raised:
            _cost_rows(cfg, statics, 1.0, antithetic=True, batch_size=16)
        messages.append(str(raised.value))
    assert len(set(messages)) == 1, messages
    assert "np." not in messages[0]
    assert re.fullmatch(
        r"direct cost and decomposition disagree by \S+ on path \d+ in schedule row [012]",
        messages[0],
    )


def test_message_names_path_and_row_of_the_run(monkeypatch, market, grid200, twap200):
    """A disagreement in a later task names the path's index in the whole
    run and the row of the result, a repeated schedule by its first row."""
    p = arcsine_profile(grid200)
    cfg = _cfg(p, market, grid200, n_paths=1200, seed=4)
    totals = cost._StaticCosts.totals

    def broken(self, both, vol, out, path, rows):
        both = both.copy()
        if path <= 700 < path + len(both):
            both[700 - path, self.k + 1] += 1.0  # the direct form of the second distinct schedule
        return totals(self, both, vol, out, path, rows)

    monkeypatch.setattr(cost._StaticCosts, "totals", broken)
    with pytest.raises(ConsistencyError, match=r"on path 700 in schedule row 2$"):
        _cost_rows(cfg, [vwap_strategy(p, 1.0), vwap_strategy(p, 1.0), twap200])


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


def test_batching_is_invisible_deterministic_tournament(market, grid200, twap200):
    # the tournament's rows on deterministic turnover: the anticipating row
    # joins the static contraction, and no row depends on the batch size
    p = arcsine_profile(grid200)
    vwap = vwap_strategy(p, 1.0)
    cfg = _cfg(p, market, grid200, n_paths=600, seed=4)
    for antithetic in (False, True):
        a = _cost_rows(cfg, [twap200, vwap], 1.0, antithetic=antithetic, batch_size=7)
        b = _cost_rows(cfg, [twap200, vwap], 1.0, antithetic=antithetic, batch_size=600)
        assert np.array_equal(a, b)
        assert np.array_equal(a[0], a[2])  # anticipating == volume-proportional
    # and these are the tournament's own rows
    _, rows = validate_theorem_orderings(cfg, {"twap": twap200, "vwap": vwap}, True)
    plain = _cost_rows(cfg, [twap200, vwap], 1.0, batch_size=7)
    for name, row in zip(("anticipating-vwap", "twap", "vwap"), plain):
        assert np.array_equal(rows[name], row)


def test_batching_is_invisible_stochastic_tournament(market, gbm_model, grid200, twap200):
    # the per-path anticipating row too: its turnover mass is a row-stable
    # contraction (a BLAS matrix-vector product changed with the batch size)
    ev = expected_vwap_strategy(gbm_model, grid200, 1.0)
    model = dataclasses.replace(gbm_model, rho=0.3)
    cfg = _cfg(model, market, grid200, n_paths=600, seed=4)
    for antithetic in (False, True):
        a = _cost_rows(cfg, [ev, twap200], 1.0, antithetic=antithetic, batch_size=7)
        b = _cost_rows(cfg, [ev, twap200], 1.0, antithetic=antithetic, batch_size=600)
        assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", ["arcsine", "gbm"])
def test_rows_equal_one_schedule_passes(market, grid200, kind):
    """A shared pass gives each schedule the row a pass of its own gives,
    bit for bit, so simulate can price a whole sweep on one set of draws."""
    statics = [_shaped(grid200, a) for a in (0.0, 0.7, 2.0, -0.3)]
    cfg = _cfg(_volume(kind, grid200), market, grid200, n_paths=600, seed=23)
    for antithetic in (False, True):
        rows = _cost_rows(cfg, statics, antithetic=antithetic, batch_size=256)
        for s, row in zip(statics, rows):
            _, alone = estimate_cost_moments(s, cfg, antithetic=antithetic, return_costs=True)
            assert np.array_equal(row, alone)


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
