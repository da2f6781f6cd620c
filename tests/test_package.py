import numpy as np
import pytest

import volexec
from volexec import bvp
from volexec.bvp import optimal_inventory_ode
from volexec.cost import MarketParams, expected_cost, market_vwap, realized_is_cost
from volexec.errors import ConsistencyError, NegativeRateError
from volexec.grids import TimeGrid, build_grid, derivative, write_csv
from volexec.montecarlo import SimulationConfig, validate_theorem_orderings
from volexec.strategies import InventoryCurve, Strategy, rate_from_inventory
from volexec.volume import constant_profile

# The artifact text of an integer index beside 0.1, -1e-300 and 1/3, as every
# CSV artifact (strategy, expansion and per-path cost files) spells it.
GOLDEN = "path,cost\n0,0.10000000000000001\n1,-1e-300\n2,0.33333333333333331\n"

GRID = build_grid(1.0, 10)
MARKET = MarketParams(kappa=0.1, kappa_tilde=0.02, sigma_tilde=0.1, s0=100.0)
TWAP = Strategy(grid=GRID, zeta=np.ones(11), Phi=1.0)


def test_public_names_resolve():
    for name in volexec.__all__:
        assert hasattr(volexec, name), name


def test_write_csv_golden_bytes(tmp_path):
    values = np.array([0.1, -1e-300, 1.0 / 3.0])
    f = tmp_path / "costs.csv"
    write_csv(f, ["path", "cost"], [range(values.size), values])
    assert f.read_bytes() == GOLDEN.encode()
    # float columns print integral values the same way as an integer index
    g = tmp_path / "nodes.csv"
    write_csv(g, ["path", "cost"], [np.arange(3.0), values])
    assert g.read_bytes() == GOLDEN.encode()


@pytest.mark.parametrize("build, name", [
    (lambda: build_grid(1.0, 2.9), "n_steps"),
    (lambda: TimeGrid(1.0, 2.5), "n_steps"),
    (lambda: _simulation(n_paths=100.5), "n_paths"),
    (lambda: _simulation(seed=1.9), "seed"),
], ids=["build_grid", "TimeGrid", "n_paths", "seed"])
def test_counts_are_not_truncated(build, name):
    """A step, path or seed count that is not integral is named, never
    truncated; ints, numpy ints and integral floats are stored as ints."""
    with pytest.raises(ValueError, match=rf"{name} must be an integer, got \d+\.\d+"):
        build()
    for count in (3, np.int64(3), 3.0):
        assert type(build_grid(1.0, count).n_steps) is int
        cfg = _simulation(n_paths=count, seed=count)
        assert type(cfg.n_paths) is int and type(cfg.seed) is int
        assert (cfg.n_paths, cfg.seed, build_grid(1.0, count).n_steps) == (3, 3, 3)


def _simulation(n_paths=100, seed=1):
    return SimulationConfig(n_paths=n_paths, seed=seed, grid=GRID, market=MARKET,
                            volume=constant_profile(GRID, 1.0))


def _rising_inventory(solve):
    """bvp._solve_bvp with its inventory raised at one interior node."""
    def patched(*args):
        phi = solve(*args)
        phi[3] = phi[1]
        return phi
    return patched


@pytest.mark.parametrize("call, kind, match", [
    (lambda mp: constant_profile(GRID, 0.0), ValueError, "turnover must be positive"),
    (lambda mp: realized_is_cost(np.ones(10), np.ones(10), TWAP, MARKET), ValueError,
     "expected one path of 11 nodes"),
    (lambda mp: realized_is_cost(np.ones(11), np.zeros(11), TWAP, MARKET), ValueError,
     "turnover path must be strictly positive"),
    (lambda mp: market_vwap(np.ones(11), np.ones(10)), ValueError, "path shapes differ"),
    (lambda mp: market_vwap(np.ones(11), np.zeros(11)), ValueError, "total turnover must be positive"),
    (lambda mp: expected_cost(TWAP, np.ones(11), MARKET), TypeError,
     "expected VolumeProfile or GbmVolumeModel"),
    (lambda mp: derivative(np.ones(2), 0.5), ValueError, "derivative needs at least 3 nodes"),
    (lambda mp: InventoryCurve(GRID, np.linspace(1.0, 0.0, 10), 1.0), ValueError,
     "phi must have 11 entries"),
    (lambda mp: InventoryCurve(GRID, np.r_[1.0, np.nan, np.zeros(9)], 1.0), ValueError,
     "phi contains non-finite values"),
    (lambda mp: rate_from_inventory(InventoryCurve(GRID, np.zeros(11), 1e-13)), NegativeRateError,
     "inventory curve carries no selling volume"),
    (lambda mp: validate_theorem_orderings(_simulation(), {}), ValueError,
     "need at least one candidate strategy"),
    (lambda mp: SimulationConfig(n_paths=100, seed=1, grid=GRID, market=MARKET, volume="flat"),
     TypeError, "^unsupported volume input: str$"),
    (lambda mp: (mp.setattr(bvp, "_solve_bvp", _rising_inventory(bvp._solve_bvp)),
                 optimal_inventory_ode(constant_profile(GRID, 1.0), 1.0, MARKET, 1.0)),
     RuntimeWarning, "implied execution rate dips below zero"),
    (lambda mp: (mp.setattr(bvp, "_substitute", lambda factors, rhs: np.zeros(rhs.size)),
                 optimal_inventory_ode(constant_profile(GRID, 1.0), 1.0, MARKET, 1.0)),
     ConsistencyError, "discrete residual .* exceeds"),
], ids=["constant-level", "cost-shape", "cost-turnover", "vwap-shape", "vwap-turnover",
        "expected-cost-type", "derivative-nodes", "inventory-shape", "inventory-finite",
        "inventory-sells-nothing", "no-candidates", "volume-type", "ode-negative-rate",
        "bvp-residual"])
def test_input_checks(call, kind, match, monkeypatch):
    """Each input check raises (or, for the boundary route's negative rate,
    warns) its own type with its own message."""
    expect = pytest.warns if issubclass(kind, Warning) else pytest.raises
    with expect(kind, match=match):
        call(monkeypatch)
