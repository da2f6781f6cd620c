"""`run_validation` overlaps the pass with the work that does not read its
rows: the report, and the error a failing run raises, do not depend on how
many threads price the pass."""
import json
import math
import warnings

import numpy as np
import pytest

from volexec import cost, montecarlo, validation
from volexec.errors import ConsistencyError, SolverFailureError
from volexec.grids import build_grid
from volexec.montecarlo import moment_estimate
from volexec.volume import GbmVolumeModel, arcsine_profile

from conftest import perturbed_cost_weights


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


def _fail_pass(monkeypatch):
    monkeypatch.setattr(cost, "_cost_weights", perturbed_cost_weights(1e-6))


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
        ((_fail_pass, _fail_structure), ConsistencyError, "direct cost and decomposition"),
        ((_fail_paths, _fail_structure), ValueError, "path check"),
        ((_fail_structure,), SolverFailureError, "structural check"),
    ],
    ids=["pass-and-structural", "paths-and-structural", "structural"],
)
def test_errors_surface_in_serial_order(monkeypatch, workers, breaks, raised, match):
    """A pass error wins; otherwise the path checks come before the
    structural checks, as when every check ran one after another."""
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
