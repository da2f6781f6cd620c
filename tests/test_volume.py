import numpy as np
import pytest

from volexec.grids import build_grid, cumtrapz, trapz
from volexec.volume import (
    GbmVolumeModel,
    arcsine_profile,
    constant_profile,
    gbm_harmonic_mean,
    _normal_block,
    path_rng,
    profile_from_csv,
    profile_from_samples,
    profile_to_csv,
    simulate_gbm_paths,
)

# Closed-form values for the arcsine curve v_t = 1/(pi sqrt(t(1-t))) on [0, 1]:
#   V_t = (2/pi) arcsin(sqrt(t)),  int_0^1 V dt = 1/2,
#   int_0^1 V^2 dt = 1/2 - 2/pi^2.
ARCSINE_CALV_T = 0.5
ARCSINE_V2INT_T = 0.29735763271532445
# Trapezoid mass of the endpoint-clamped sampling at n = 500 (frozen; the
# clamp integrates the inverse-sqrt singularities slightly short of 1).
ARCSINE_MASS_500 = 0.9785588129477649

# Harmonic-mean curve u_t = v0 exp((mu - sigma^2) t) for v0=1, mu=-0.02,
# sigma=0.2: u_1 = e^{-0.06}, int_0^1 U^2 dt with U_t = (1 - e^{-0.06 t})/0.06.
GBM_U_T = 0.9417645335842487
GBM_U2INT_T = 0.31874449036418784


def test_constant_profile_cumulatives_exact():
    g = build_grid(2.0, 400)
    p = constant_profile(g, 3.0)
    t = g.nodes
    assert np.allclose(p.v, 3.0, rtol=0, atol=0)
    assert np.allclose(p.V, 3.0 * t, rtol=1e-13)
    # trapezoid quadrature is exact on polynomials of degree <= 1, so the
    # quadratic/cubic cumulatives only pick up the usual tau^2 Richardson term
    assert np.allclose(p.calV, 1.5 * t**2, rtol=0, atol=4e-5)
    assert np.allclose(p.V2int, 3.0 * t**3, rtol=0, atol=4e-4)


def test_arcsine_closed_form_cumulatives(grid500):
    p = arcsine_profile(grid500)
    t = grid500.nodes
    exact_V = (2.0 / np.pi) * np.arcsin(np.sqrt(t))
    # cumulative fields carry the exact closed forms (no quadrature error)
    assert np.max(np.abs(p.V - exact_V)) < 1e-14
    assert p.V[-1] == 1.0
    assert abs(p.calV[-1] - ARCSINE_CALV_T) < 1e-14
    assert abs(p.V2int[-1] - ARCSINE_V2INT_T) < 1e-14
    # ... while the sampled rate is endpoint-clamped, so its trapezoid mass
    # falls measurably short of V_T = 1
    assert abs(trapz(p.v, grid500.tau) - ARCSINE_MASS_500) < 1e-14


def test_arcsine_requires_unit_horizon():
    with pytest.raises(ValueError):
        arcsine_profile(build_grid(2.0, 100))


def test_profile_from_samples_matches_cumtrapz():
    g = build_grid(1.0, 128)
    rng = np.random.default_rng(7)
    v = 0.5 + rng.random(len(g))
    p = profile_from_samples(g, v)
    assert np.array_equal(p.V, cumtrapz(v, g.tau))
    assert p.V[0] == 0.0


def test_profile_validation():
    g = build_grid(1.0, 16)
    with pytest.raises(ValueError):
        profile_from_samples(g, np.ones(5))
    bad = np.ones(len(g))
    bad[3] = 0.0
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


def test_harmonic_mean_closed_form(gbm_model):
    g = build_grid(1.0, 1000)
    u = gbm_harmonic_mean(gbm_model, g)
    assert abs(u.v[-1] - GBM_U_T) < 1e-15
    assert abs(u.V2int[-1] - GBM_U2INT_T) < 1e-7
    # mu = sigma^2 freezes the harmonic mean at v0
    flat = gbm_harmonic_mean(GbmVolumeModel(v0=2.0, mu=0.04, sigma=0.2), g)
    assert np.allclose(flat.v, 2.0, rtol=1e-14)
    # sigma = 0 degenerates to the deterministic exponential
    det = gbm_harmonic_mean(GbmVolumeModel(v0=1.0, mu=-0.02, sigma=0.0), g)
    assert np.allclose(det.v, np.exp(-0.02 * g.nodes), rtol=1e-14)


def test_harmonic_mean_against_simulation(gbm_model):
    """1/E[1/v_T] over sampled paths should straddle the closed form."""
    g = build_grid(1.0, 100)
    paths = simulate_gbm_paths(gbm_model, g, n_paths=20_000, seed=11)
    inv_term = 1.0 / paths.paths[:, -1]
    mean = inv_term.mean()
    se = inv_term.std(ddof=1) / np.sqrt(paths.n_paths)
    assert abs(mean - 1.0 / GBM_U_T) < 3.0 * se


def test_simulation_exact_lognormal_steps(gbm_model):
    g = build_grid(1.0, 50)
    out = simulate_gbm_paths(gbm_model, g, n_paths=8, seed=3)
    drift = (gbm_model.mu - 0.5 * gbm_model.sigma**2) * g.tau
    expected = np.exp(drift + gbm_model.sigma * out.driver_increments)
    ratios = out.paths[:, 1:] / out.paths[:, :-1]
    assert np.allclose(ratios, expected, rtol=1e-13)
    assert np.all(out.paths[:, 0] == gbm_model.v0)


def test_simulation_determinism_and_path_keying(gbm_model):
    g = build_grid(1.0, 40)
    a = simulate_gbm_paths(gbm_model, g, n_paths=6, seed=5)
    b = simulate_gbm_paths(gbm_model, g, n_paths=6, seed=5)
    assert np.array_equal(a.paths, b.paths)
    # keyed draws: a shorter run reproduces the leading paths bitwise
    c = simulate_gbm_paths(gbm_model, g, n_paths=3, seed=5)
    assert np.array_equal(c.paths, a.paths[:3])
    d = simulate_gbm_paths(gbm_model, g, n_paths=6, seed=6)
    assert not np.array_equal(a.paths, d.paths)
    # any range, inside one block of paths or across a block boundary, is
    # the slice of a full draw
    full = _normal_block(5, 0, 512, stream=0, n=8)
    for first, last in ((300, 301), (250, 270), (0, 1), (255, 512), (511, 512)):
        assert np.array_equal(_normal_block(5, first, last, stream=0, n=8), full[first:last])


def test_path_rng_streams_are_distinct():
    z0 = path_rng(9, 4, stream=0).standard_normal(8)
    z1 = path_rng(9, 4, stream=1).standard_normal(8)
    again = path_rng(9, 4, stream=0).standard_normal(8)
    assert np.array_equal(z0, again)
    assert not np.array_equal(z0, z1)


def test_profile_csv_round_trip(tmp_path):
    g = build_grid(1.0, 64)
    rng = np.random.default_rng(21)
    p = profile_from_samples(g, 0.5 + rng.random(len(g)))
    f = tmp_path / "profile.csv"
    profile_to_csv(p, str(f))
    q = profile_from_csv(str(f))
    assert q.grid.n_steps == g.n_steps
    # %.17g round-trips doubles exactly; integrals are re-derived from v
    assert np.array_equal(q.v, p.v)
    assert np.array_equal(q.V, p.V)


def test_profile_csv_rejects_nonuniform_grid(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("t,v\n0.0,1.0\n0.1,1.0\n0.3,1.0\n")
    with pytest.raises(ValueError):
        profile_from_csv(str(f))
