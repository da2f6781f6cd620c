"""`run_validation` overlaps the pass with the work that does not read its
rows: the report, and the error a failing run raises, do not depend on how
many threads price the pass."""
import json
import math
import warnings

import numpy as np
import pytest

from volexec import cost, montecarlo, validation
from volexec.errors import SolverFailureError
from volexec.grids import build_grid
from volexec.montecarlo import moment_estimate
from volexec.volume import GbmVolumeModel, arcsine_profile

from conftest import task_fault


def _volume(kind, grid):
    if kind == "arcsine":
        return arcsine_profile(grid)
    return GbmVolumeModel(v0=1.0, mu=-0.02, sigma=0.2, rho=0.0)


def _run(kind, n_paths=64):
    grid = build_grid(1.0, 50)
    market = cost.MarketParams(kappa=0.1, kappa_tilde=0.02, sigma_tilde=0.2, s0=100.0)
    return validation.run_validation(
        _volume(kind, grid), market, grid, n_paths=n_paths, seed=11, lambdas=(0.5,)
    )


@pytest.mark.parametrize("n_paths", [64, 3000])
@pytest.mark.parametrize("kind", ["arcsine", "gbm"])
def test_report_does_not_depend_on_worker_count(monkeypatch, kind, n_paths):
    """One task (64 paths) or several: the report has the same bytes whether
    the calling thread runs the path and structural checks before the pass
    or beside one or two helper threads."""
    reports = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
        reports.append(json.dumps(_run(kind, n_paths)))
    assert reports[0] == reports[1] == reports[2]
    assert json.loads(reports[0])["all_passed"]


@pytest.mark.parametrize("rho", [0.0, 0.5, -0.5])
def test_zero_turnover_volatility_skips_only_the_lognormal_checks(rho):
    """Lognormal turnover with sigma = 0 is deterministic turnover in
    disguise: every check passes, and the two that need a turnover spread
    are skipped with that reason."""
    grid = build_grid(1.0, 40)
    market = cost.MarketParams(kappa=0.1, kappa_tilde=0.02, sigma_tilde=0.2, s0=100.0)
    volume = GbmVolumeModel(v0=1.0, mu=-0.02, sigma=0.0, rho=rho)
    report = validation.run_validation(volume, market, grid, n_paths=2000, seed=7, lambdas=(1.0,))
    assert report["all_passed"]
    skipped = {c["name"]: c["detail"]["reason"] for c in report["checks"] if c["skipped"]}
    reason = "turnover volatility is zero"
    assert skipped == {"harmonic_mean_check": reason, "cross_check_quadrature": reason}


def test_identity_check_catches_an_anticipating_row_error(monkeypatch):
    """Under stochastic turnover the pass prices the anticipating row in
    closed form; `cost_identity_pathwise` checks it against the shortfall's
    definition, so an error of 1e-6 Phi in that row fails the check."""

    def identity():
        report = _run("gbm")
        return next(c for c in report["checks"] if c["name"] == "cost_identity_pathwise")

    assert identity()["passed"]
    rows = montecarlo._cost_rows

    def shifted(cfg, statics, anticipating_phi=None, **kwargs):
        out = rows(cfg, statics, anticipating_phi, **kwargs)
        out[0] += 1e-6 * anticipating_phi
        return out

    monkeypatch.setattr(montecarlo, "_cost_rows", shifted)
    check = identity()
    assert not check["passed"] and check["detail"]["max_rel_gap"] > 1e-8


def _fail_pass(monkeypatch):
    monkeypatch.setattr(montecarlo, "_normal_block", task_fault)


def _fail_paths(monkeypatch):
    def broken(*args):
        raise ValueError("path check")

    monkeypatch.setattr(validation, "_independent_direct_cost", broken)


def _fail_structure(monkeypatch):
    def broken(*args):
        raise SolverFailureError("structural check")

    monkeypatch.setattr(validation, "solve_qp_deterministic", broken)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "breaks, raised, match",
    [
        ((_fail_pass, _fail_structure), ValueError, "^task at 0$"),
        ((_fail_paths, _fail_structure), ValueError, "path check"),
        ((_fail_structure,), SolverFailureError, "structural check"),
    ],
    ids=["pass-and-structural", "paths-and-structural", "structural"],
)
def test_errors_surface_in_serial_order(monkeypatch, workers, breaks, raised, match):
    """A pass error wins (its lowest task's), while the structural checks
    still run beside the failing pass; otherwise the path checks come
    before the structural checks, as when every check ran one after
    another."""
    for brk in breaks:
        brk(monkeypatch)
    monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
    with pytest.raises(raised, match=match):
        _run("arcsine", n_paths=3000)


def test_infinite_standard_error_fails_its_check():
    """A fourth moment past the float range gives an infinite SE of the
    variance, without a warning; its z-score is NaN, a failed check, as
    for a zero SE, never 0."""
    costs = np.zeros(10_000)
    costs[0] = 1e78  # its fourth power overflows, the variance's square does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = moment_estimate(costs)
    assert math.isfinite(est.variance) and est.std_error_variance == math.inf
    for se in (math.inf, 0.0, math.nan):
        assert math.isnan(validation._z(1.0, se))
    assert validation._z(1.0, 4.0) == 0.25
