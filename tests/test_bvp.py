import numpy as np
import pytest

from volexec.bvp import (
    _PIVOT_RTOL,
    _eliminate,
    _solve_bvp,
    _substitute,
    asymptotic_expansion,
    optimal_inventory_ode,
)
from volexec.errors import SolverFailureError
from volexec.grids import build_grid, cumtrapz, interval_rates_to_nodes, trapz
from volexec.volume import arcsine_profile, constant_profile, profile_from_samples

from conftest import dense_qp_rates


def _solve_manufactured(n):
    """phi = 1 - t solves (phi'/v)' = phi with 1/v = 1 - t + t^2/2 on [0, 1]."""
    g = build_grid(1.0, n)
    t = g.nodes
    v = 1.0 / (1.0 - t + t**2 / 2.0)
    return np.max(np.abs(_solve_bvp(g, 0.5 * (v[1:] + v[:-1]), 1.0, 1.0) - (1.0 - t)))


def test_linear_solution_recovered_exactly():
    """At c = 0 the flux phi'/v is constant, so the inventory is linear in the
    volume clock: volume-proportional, exactly, on any interval turnover."""
    g = build_grid(1.0, 64)
    vbar = 0.2 + np.random.default_rng(7).random(g.n_steps)
    phi = _solve_bvp(g, vbar, 0.0, 2.0)
    exact = 2.0 * (1.0 - np.concatenate([[0.0], np.cumsum(vbar)]) / vbar.sum())
    assert np.max(np.abs(phi - exact)) < 1e-13


def test_manufactured_solution_second_order():
    e1, e2 = _solve_manufactured(100), _solve_manufactured(200)
    order = np.log2(e1 / e2)
    assert 1.95 < order < 2.05
    assert _solve_manufactured(400) < 5e-7


def test_constant_turnover_matches_sinh(market):
    # g = sqrt(sigma_tilde^2 lam v / kappa_tilde) = 1 for these parameters
    g = build_grid(1.0, 1000)
    p = constant_profile(g, 1.0)
    phi = optimal_inventory_ode(p, 2.0, market, 1.0).phi
    exact = np.sinh(1.0 - g.nodes) / np.sinh(1.0)
    assert np.max(np.abs(phi - exact)) < 1e-8


def test_small_lam_limit_is_volume_proportional(arcsine500, market):
    g = arcsine500.grid
    phi = optimal_inventory_ode(arcsine500, 1e-12, market, 1.0).phi
    vwap_phi = 1.0 - cumtrapz(arcsine500.v, g.tau) / trapz(arcsine500.v, g.tau)
    assert np.max(np.abs(phi - vwap_phi)) < 1e-9


def test_risk_aversion_front_loads(arcsine500, market):
    lo = optimal_inventory_ode(arcsine500, 0.5, market, 1.0).phi
    hi = optimal_inventory_ode(arcsine500, 4.0, market, 1.0).phi
    mid = len(lo) // 2
    assert hi[mid] < lo[mid]  # more risk aversion leaves less inventory


def test_lam_must_be_positive(arcsine500, market):
    with pytest.raises(ValueError):
        optimal_inventory_ode(arcsine500, 0.0, market, 1.0)
    with pytest.raises(ValueError):
        optimal_inventory_ode(arcsine500, -1.0, market, 1.0)


def test_spec_validation(grid200):
    """A turnover or a c that is not finite, or one whose stencil overflows,
    is rejected by name, without a warning."""
    vbar = np.ones(grid200.n_steps)
    for bad in (np.inf, np.nan, 1e-320):
        v = vbar.copy()
        v[4] = bad
        with pytest.raises(ValueError, match="non-finite stencil coefficient"):
            _solve_bvp(grid200, v, 1.0, 1.0)
    for c in (np.inf, np.nan, 1e308):
        with pytest.raises(ValueError, match="non-finite stencil coefficient"):
            _solve_bvp(grid200, 2.0 * vbar, c, 1.0)


def test_pivot_failure_reports_location(grid200):
    # c = -2/tau^2 on unit turnover zeroes the first interior pivot before
    # any elimination
    c = -2.0 / grid200.tau**2
    with pytest.raises(SolverFailureError, match="vanishing pivot at node 1$"):
        _solve_bvp(grid200, np.ones(grid200.n_steps), c, 1.0)


def _fused_tridiagonal(lower, diag, upper, rhs, row_scale):
    """Elimination and substitution in one pass over the rows, on Python floats."""
    lower, diag, upper = lower.tolist(), diag.tolist(), upper.tolist()
    b, row_scale = rhs.tolist(), row_scale.tolist()
    m = len(b)
    for i in range(m):
        if abs(diag[i]) <= _PIVOT_RTOL * row_scale[i]:
            raise SolverFailureError(f"vanishing pivot at node {i + 1}")
        if i + 1 < m:
            w = lower[i + 1] / diag[i]
            diag[i + 1] -= w * upper[i]
            b[i + 1] -= w * b[i]
    x = [0.0] * (m + 1)
    for i in range(m - 1, -1, -1):
        x[i] = (b[i] - upper[i] * x[i + 1]) / diag[i]
    return np.array(x[:m])


def _random_system(rng, m):
    lower, upper = -rng.random(m), -rng.random(m)
    diag = 1.0 + rng.random(m) * 2.0
    return lower, diag, upper, np.abs(lower) + np.abs(diag) + np.abs(upper)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 50, 777])
def test_split_elimination_matches_fused_pass(m):
    """One elimination reused for several right-hand sides gives the bits of
    a fused elimination-and-substitution pass on each, and leaves its
    factors as they were."""
    rng = np.random.default_rng(m)
    lower, diag, upper, row_scale = _random_system(rng, m)
    factors = _eliminate(lower, diag, upper, row_scale)
    frozen = [list(f) for f in factors]
    for _ in range(3):
        rhs = rng.standard_normal(m) * 10.0 ** rng.integers(-5, 5)
        ref = _fused_tridiagonal(lower, diag, upper, rhs, row_scale)
        assert np.array_equal(_substitute(factors, rhs), ref)
    assert [list(f) for f in factors] == frozen


@pytest.mark.parametrize("row", [0, 1, 40])
def test_elimination_reports_vanishing_pivot_row(row):
    """A pivot that vanishes at `row` raises SolverFailureError naming the
    same node from the elimination alone as from the fused pass."""
    rng = np.random.default_rng(row)
    lower, diag, upper, row_scale = _random_system(rng, 60)
    if row:
        # pivot[row] = diag[row] - lower[row] upper[row-1] / pivot[row-1]
        pivots = _eliminate(lower[:row], diag[:row], upper[:row], row_scale[:row])[1]
        diag[row] = lower[row] / pivots[-1] * upper[row - 1]
    else:
        diag[0] = 0.0
    with pytest.raises(SolverFailureError) as ref:
        _fused_tridiagonal(lower, diag, upper, np.ones(60), row_scale)
    with pytest.raises(SolverFailureError) as err:
        _eliminate(lower, diag, upper, row_scale)
    node = f"vanishing pivot at node {row + 1}"
    assert str(err.value).endswith(node) and str(ref.value).endswith(node)


def test_solution_stays_in_boundary_range(market):
    # c > 0, rhs = 0: discrete maximum principle keeps phi within [0, Phi]
    g = build_grid(1.0, 300)
    rng = np.random.default_rng(13)
    p = profile_from_samples(g, 0.3 + rng.random(len(g)))
    phi = optimal_inventory_ode(p, 3.0, market, 1.0).phi
    assert np.all(phi >= -1e-12)
    assert np.all(phi <= 1.0 + 1e-12)
    assert np.all(np.diff(phi) < 0.0)


def test_expansion_survives_turnover_spread_over_sixteen_decades(market):
    """On turnover that jumps between 1e8 and 1e-8 the first-order correction
    is the lam-derivative of the QP's optimum: it matches the dense KKT
    reference's difference quotient at lam = 1e-14.  It runs no elimination,
    so no pivot can vanish."""
    v = np.array([1e8, 1e-8, 1e-8, 1e-8, 1e8, 1e8, 1e-8, 1e-8, 1e-8, 1e8, 1e-8])
    p = profile_from_samples(build_grid(1.0, 10), v)
    _, zeta1 = asymptotic_expansion(p, market, 0.0, 1.0)
    lam = 1e-14
    slope = (dense_qp_rates(p, lam, market, 1.0) - dense_qp_rates(p, 0.0, market, 1.0)) / lam
    gap = np.max(np.abs(interval_rates_to_nodes(slope) - zeta1))
    assert gap <= 1e-6 * np.max(np.abs(zeta1))
