import numpy as np
import pytest

from volexec.grids import build_grid, cumtrapz, trapz
from volexec.volume import (
    GbmVolumeModel,
    _gbm_block,
    _normal_block,
    arcsine_profile,
    constant_profile,
    gbm_harmonic_mean,
    path_rng,
    profile_from_samples,
)

# Trapezoid mass of the endpoint-clamped sampling at n = 500 (frozen; the
# clamp integrates the inverse-sqrt singularities slightly short of 1).
ARCSINE_MASS_500 = 0.9785588129477649

# Harmonic-mean curve u_t = v0 exp((mu - sigma^2) t) for v0=1, mu=-0.02,
# sigma=0.2: u_1 = e^{-0.06}.
GBM_U_T = 0.9417645335842487


def _gbm_paths(model, grid, n_paths, seed):
    """Turnover paths 0..n_paths-1 and their driver increments, as the Monte
    Carlo engine draws them."""
    db = np.sqrt(grid.tau) * _normal_block(seed, 0, n_paths, stream=0, n=grid.n_steps)
    return _gbm_block(model, grid, db), db


def test_constant_profile_cumulatives_exact():
    g = build_grid(2.0, 400)
    p = constant_profile(g, 3.0)
    t = g.nodes
    assert np.allclose(p.v, 3.0, rtol=0, atol=0)
    # trapezoid quadrature is exact on constants, so the cumulative volume of
    # the samples is V_t = 3t up to rounding
    assert np.allclose(cumtrapz(p.v, g.tau), 3.0 * t, rtol=1e-13)


def test_arcsine_closed_form_cumulatives(grid500):
    p = arcsine_profile(grid500)
    t = grid500.nodes
    # the sampled rate is endpoint-clamped, so its trapezoid mass falls
    # measurably short of V_T = 1 ...
    assert abs(trapz(p.v, grid500.tau) - ARCSINE_MASS_500) < 1e-14
    # ... and that terminal shortfall bounds its distance from the closed-form
    # cumulative V_t = (2/pi) arcsin(sqrt(t)) at every node
    exact_V = (2.0 / np.pi) * np.arcsin(np.sqrt(t))
    gap = np.max(np.abs(cumtrapz(p.v, grid500.tau) - exact_V))
    assert gap <= 1.0 - ARCSINE_MASS_500 + 1e-14


def test_arcsine_requires_unit_horizon():
    with pytest.raises(ValueError):
        arcsine_profile(build_grid(2.0, 100))


def test_profile_validation():
    g = build_grid(1.0, 16)
    with pytest.raises(ValueError):
        profile_from_samples(g, np.ones(5))
    bad = np.ones(len(g))
    bad[3] = 0.0
    with pytest.raises(ValueError):
        profile_from_samples(g, bad)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        profile_from_samples(g, bad)
    with pytest.raises(ValueError):
        build_grid(1.0, 1)
    with pytest.raises(ValueError):
        build_grid(-1.0, 16)


def test_gbm_model_validation():
    with pytest.raises(ValueError):
        GbmVolumeModel(v0=0.0, mu=0.0, sigma=0.1)
    with pytest.raises(ValueError):
        GbmVolumeModel(v0=1.0, mu=0.0, sigma=-0.1)
    with pytest.raises(ValueError):
        GbmVolumeModel(v0=1.0, mu=0.0, sigma=0.1, rho=1.5)
    for bad in ({"mu": np.nan}, {"sigma": np.inf}, {"v0": np.inf}):
        with pytest.raises(ValueError):
            GbmVolumeModel(**{"v0": 1.0, "mu": 0.0, "sigma": 0.1, **bad})


def test_harmonic_mean_closed_form(gbm_model):
    g = build_grid(1.0, 1000)
    u = gbm_harmonic_mean(gbm_model, g)
    assert abs(u.v[-1] - GBM_U_T) < 1e-15
    # mu = sigma^2 freezes the harmonic mean at v0
    flat = gbm_harmonic_mean(GbmVolumeModel(v0=2.0, mu=0.04, sigma=0.2), g)
    assert np.allclose(flat.v, 2.0, rtol=1e-14)
    # sigma = 0 degenerates to the deterministic exponential
    det = gbm_harmonic_mean(GbmVolumeModel(v0=1.0, mu=-0.02, sigma=0.0), g)
    assert np.allclose(det.v, np.exp(-0.02 * g.nodes), rtol=1e-14)


def test_harmonic_mean_against_simulation(gbm_model):
    """1/E[1/v_T] over sampled paths should straddle the closed form."""
    g = build_grid(1.0, 100)
    paths, _ = _gbm_paths(gbm_model, g, n_paths=20_000, seed=11)
    inv_term = 1.0 / paths[:, -1]
    mean = inv_term.mean()
    se = inv_term.std(ddof=1) / np.sqrt(inv_term.size)
    assert abs(mean - 1.0 / GBM_U_T) < 3.0 * se


def test_simulation_exact_lognormal_steps(gbm_model):
    g = build_grid(1.0, 50)
    paths, increments = _gbm_paths(gbm_model, g, n_paths=8, seed=3)
    drift = (gbm_model.mu - 0.5 * gbm_model.sigma**2) * g.tau
    expected = np.exp(drift + gbm_model.sigma * increments)
    ratios = paths[:, 1:] / paths[:, :-1]
    assert np.allclose(ratios, expected, rtol=1e-13)
    assert np.all(paths[:, 0] == gbm_model.v0)


def test_simulation_determinism_and_path_keying(gbm_model):
    g = build_grid(1.0, 40)
    a, _ = _gbm_paths(gbm_model, g, n_paths=6, seed=5)
    b, _ = _gbm_paths(gbm_model, g, n_paths=6, seed=5)
    assert np.array_equal(a, b)
    # keyed draws: a shorter run reproduces the leading paths bitwise
    c, _ = _gbm_paths(gbm_model, g, n_paths=3, seed=5)
    assert np.array_equal(c, a[:3])
    d, _ = _gbm_paths(gbm_model, g, n_paths=6, seed=6)
    assert not np.array_equal(a, d)
    # any range that starts a block of paths, ragged or across a block
    # boundary, is the slice of a full draw; one that starts inside a block
    # is an error
    full = _normal_block(5, 0, 768, stream=0, n=8)
    for first, last in ((256, 257), (0, 1), (256, 512), (0, 700), (512, 768)):
        assert np.array_equal(_normal_block(5, first, last, stream=0, n=8), full[first:last])
    for first in (1, 255, 300):
        with pytest.raises(ValueError, match="block"):
            _normal_block(5, first, 512, stream=0, n=8)


def test_path_rng_streams_are_distinct():
    z0 = path_rng(9, 4, stream=0).standard_normal(8)
    z1 = path_rng(9, 4, stream=1).standard_normal(8)
    again = path_rng(9, 4, stream=0).standard_normal(8)
    assert np.array_equal(z0, again)
    assert not np.array_equal(z0, z1)


def test_path_rng_rejects_seeds_outside_the_key_word():
    # the seed is one 64-bit key word: 2^64 and 2^70 would wrap onto seed 0,
    # and -5 onto 2^64 - 5, so they are errors
    for seed in (-5, -1, 2**64, 2**70):
        with pytest.raises(ValueError, match="seed"):
            path_rng(seed, 0)
        with pytest.raises(ValueError, match="seed"):
            _normal_block(seed, 0, 4, stream=0, n=3)
    top = path_rng(2**64 - 1, 0).standard_normal(8)
    assert not np.array_equal(top, path_rng(0, 0).standard_normal(8))


def test_path_rng_keys_do_not_alias():
    # seeds and blocks at the 32- and 64-bit word edges; no normal is shared,
    # so no key's stream is another's, shifted
    draws = np.concatenate(
        [
            path_rng(seed, block, stream=stream).standard_normal(8)
            for seed in (0, 1, 2**32 - 1, 2**32, 2**64 - 1)
            for block in (0, 1, 2**31)
            for stream in (0, 1)
        ]
    )
    assert np.unique(draws).size == draws.size == 240


def test_path_rng_draws_are_pinned():
    # every Monte Carlo number follows from these; a change of the generator
    # or of its key must be made on purpose
    np.testing.assert_allclose(
        path_rng(0, 0).standard_normal(4),
        [-0.5504811808293575, 0.5197080686753037, 0.23055672602603425, 0.5962049767396235],
        rtol=1e-14,
    )
    np.testing.assert_allclose(
        path_rng(2**64 - 1, 3, stream=1).standard_normal(4),
        [0.26611537924973383, -0.32866726326535484, 0.33126348204586276, -0.32901832229832695],
        rtol=1e-14,
    )
