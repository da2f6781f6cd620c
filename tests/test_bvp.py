import numpy as np
import pytest

from volexec.bvp import (
    _PIVOT_RTOL,
    _eliminate,
    _solve_bvp,
    _substitute,
    matched_log_derivative,
    optimal_inventory_ode,
)
from volexec.errors import SolverFailureError
from volexec.grids import build_grid, cumtrapz, trapz
from volexec.volume import arcsine_profile, constant_profile, profile_from_samples


def _solve_manufactured(n):
    """phi = sin(pi t) + 1 - t with a = sin(3t), c = 1 + t^2 on [0, 1]."""
    g = build_grid(1.0, n)
    t = g.nodes
    phi = np.sin(np.pi * t) + 1.0 - t
    dphi = np.pi * np.cos(np.pi * t) - 1.0
    ddphi = -np.pi**2 * np.sin(np.pi * t)
    a = np.sin(3.0 * t)
    c = 1.0 + t**2
    rhs = ddphi - a * dphi - c * phi
    return np.max(np.abs(_solve_bvp(g, a, c, rhs, 1.0, 0.0) - phi))


def test_linear_solution_recovered_exactly():
    g = build_grid(1.0, 64)
    n = len(g)
    phi = _solve_bvp(g, np.zeros(n), np.zeros(n), np.zeros(n), 2.0, 5.0)
    assert np.max(np.abs(phi - (2.0 + 3.0 * g.nodes))) < 1e-12


def test_manufactured_solution_second_order():
    e1, e2 = _solve_manufactured(100), _solve_manufactured(200)
    order = np.log2(e1 / e2)
    assert order > 1.95
    assert _solve_manufactured(400) < 1e-4


def test_constant_turnover_matches_sinh(market):
    # g = sqrt(sigma_tilde^2 lam v / kappa_tilde) = 1 for these parameters
    g = build_grid(1.0, 1000)
    p = constant_profile(g, 1.0)
    phi = optimal_inventory_ode(p, 2.0, market, 1.0).phi
    exact = np.sinh(1.0 - g.nodes) / np.sinh(1.0)
    assert np.max(np.abs(phi - exact)) < 1e-8


def test_matched_log_derivative_constant():
    v = np.full(11, 3.0)
    a, h = matched_log_derivative(v, 0.1)
    assert np.array_equal(a, np.zeros(11))
    assert np.array_equal(h, v)


def test_matched_log_derivative_consistency():
    # smooth curve: discrete coefficients approach d/dt log v and v itself
    g = build_grid(1.0, 2000)
    v = np.exp(np.sin(2.0 * g.nodes))
    a, h = matched_log_derivative(v, g.tau)
    exact = 2.0 * np.cos(2.0 * g.nodes)
    assert np.max(np.abs(a[1:-1] - exact[1:-1])) < 1e-5
    assert np.max(np.abs(h - v) / v) < 1e-6


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
    n = len(grid200)
    good = dict(a=np.zeros(n), c=np.zeros(n), rhs=np.zeros(n), left=0.0, right=0.0)
    with pytest.raises(ValueError):
        _solve_bvp(grid200, **{**good, "a": np.zeros(n - 1)})
    bad = np.zeros(n)
    bad[4] = np.inf
    with pytest.raises(ValueError):
        _solve_bvp(grid200, **{**good, "c": bad})
    with pytest.raises(ValueError):
        _solve_bvp(grid200, **{**good, "left": np.nan})


def test_pivot_failure_reports_location(grid200):
    # c = -2/tau^2 zeroes the first interior pivot before any elimination
    n = len(grid200)
    c = np.full(n, -2.0 / grid200.tau**2)
    with pytest.raises(SolverFailureError, match="vanishing pivot at node 1$"):
        _solve_bvp(grid200, np.zeros(n), c, np.ones(n), 0.0, 0.0)


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
