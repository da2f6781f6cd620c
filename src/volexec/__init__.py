"""Volume-weighted execution scheduling under linear market impact.

Computes, optimizes, and validates liquidation schedules when trading costs
scale with the instantaneous rate relative to market turnover: schedule
constructors (time-proportional, volume-proportional and its tilted variants),
exact realized-cost accounting, mean-variance objectives under deterministic
and lognormal turnover, boundary-value and direct-optimization solvers, a
small-risk expansion, and seeded Monte Carlo validation.
"""

from .bvp import asymptotic_expansion, optimal_inventory_ode
from .cost import (
    CostBreakdown,
    MarketParams,
    MvValue,
    expected_cost,
    market_vwap,
    mv_deterministic,
    mv_gbm,
    mv_gbm_quadrature_check,
    realized_is_cost,
)
from .errors import (
    ConsistencyError,
    InconsistentStrategyError,
    NegativeRateError,
    SolverFailureError,
)
from .grids import TimeGrid, build_grid
from .montecarlo import (
    MomentEstimate,
    SimulationConfig,
    estimate_cost_moments,
    validate_theorem_orderings,
)
from .optimizer import (
    SolveReport,
    solve_qp_deterministic,
    solve_sqp_gbm,
)
from .strategies import (
    InventoryCurve,
    Strategy,
    ac_closed_form,
    expected_vwap_strategy,
    inventory_from_rate,
    rate_from_inventory,
    strategy_from_csv,
    strategy_to_csv,
    twisted_vwap,
    vwap_strategy,
)
from .validation import run_validation
from .volume import (
    GbmVolumeModel,
    VolumeProfile,
    arcsine_profile,
    constant_profile,
    gbm_harmonic_mean,
    profile_from_samples,
)

__version__ = "0.1.0"

__all__ = [
    "TimeGrid",
    "build_grid",
    "VolumeProfile",
    "GbmVolumeModel",
    "arcsine_profile",
    "constant_profile",
    "profile_from_samples",
    "gbm_harmonic_mean",
    "Strategy",
    "InventoryCurve",
    "inventory_from_rate",
    "rate_from_inventory",
    "vwap_strategy",
    "expected_vwap_strategy",
    "twisted_vwap",
    "ac_closed_form",
    "asymptotic_expansion",
    "strategy_to_csv",
    "strategy_from_csv",
    "MarketParams",
    "CostBreakdown",
    "MvValue",
    "realized_is_cost",
    "market_vwap",
    "expected_cost",
    "mv_deterministic",
    "mv_gbm",
    "mv_gbm_quadrature_check",
    "optimal_inventory_ode",
    "SolveReport",
    "solve_qp_deterministic",
    "solve_sqp_gbm",
    "SimulationConfig",
    "MomentEstimate",
    "estimate_cost_moments",
    "validate_theorem_orderings",
    "run_validation",
    "InconsistentStrategyError",
    "NegativeRateError",
    "SolverFailureError",
    "ConsistencyError",
]
