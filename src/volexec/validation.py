"""Self-validation suite: named checks tying the analytic layer, the
optimizers, and the Monte Carlo layer to one another.

Statistical checks run on the supplied configuration: the moment checks,
the orderings and the pathwise cost identity read the tournament's cost
rows, and the path checks rebuild its first paths from the keyed draws.
Structural checks (discretization agreement, small-risk expansion) run on
fixed internal fixtures, so their outcome does not depend on the run
configuration.  The calling thread runs the path and structural checks
while the pass's helper threads price the rows, and reads every outcome in
the report's order, so an exception surfaces as in a serial run: the
pass's first, then the first in the report's order.  The report is a plain
dict of named checks, each with a passed flag and numeric detail, and is
deliberately free of timestamps or environment data so that repeated runs
with the same inputs serialize to identical bytes.
"""
from __future__ import annotations

import json
import math
from typing import Union

import numpy as np

from .bvp import asymptotic_expansion, optimal_inventory_ode
from .cost import (
    MarketParams,
    expected_cost,
    market_vwap,
    mv_deterministic,
    mv_gbm,
    mv_gbm_quadrature_check,
)
from .grids import TimeGrid, build_grid, trapz_weights
from .montecarlo import (
    ANTICIPATING_LABEL,
    SimulationConfig,
    _joint_block,
    _mean_and_se,
    _Outcome,
    moment_estimate,
    validate_theorem_orderings,
)
from .optimizer import solve_qp_deterministic, solve_sqp_gbm
from .strategies import Strategy, expected_vwap_strategy, vwap_strategy
from .volume import GbmVolumeModel, VolumeProfile, arcsine_profile, gbm_harmonic_mean

_STRUCTURAL_MARKET = MarketParams(kappa=0.1, kappa_tilde=0.02, sigma_tilde=0.1, s0=100.0)
_STRUCTURAL_MODEL = GbmVolumeModel(v0=1.0, mu=-0.02, sigma=0.2, rho=0.0)


def _twap(grid: TimeGrid, Phi: float) -> Strategy:
    return Strategy(grid=grid, zeta=np.full(len(grid), Phi / grid.T), Phi=Phi)


def _check(name, passed, **detail):
    """A named check; a non-finite number in its detail fails it and is
    written as null, so the report stays strict JSON."""
    nonfinite = []
    detail = json.loads(json.dumps(detail), parse_constant=nonfinite.append)
    passed = bool(passed) and not nonfinite
    return {"name": name, "passed": passed, "skipped": False, "detail": detail}


def _z(gap, se):
    """z-score of a Monte Carlo gap; NaN, which fails its check, when the SE
    is 0 or not finite."""
    return float(gap / se) if 0.0 < se < math.inf else math.nan


def _skip(name, reason):
    return {"name": name, "passed": True, "skipped": True, "detail": {"reason": reason}}


def _proportional_gap(rates, grid: TimeGrid, v) -> float:
    """Sup relative gap of interval rates to the rates proportional to the
    interval averages of the turnover v, which sell one share."""
    vbar = 0.5 * (v[1:] + v[:-1])
    ref = vbar / (grid.tau * vbar.sum())
    return float(np.max(np.abs(rates - ref) / ref))


def _independent_direct_cost(price, vol, zeta, Phi, tau, market):
    """Shortfall evaluated straight from its definition (initial mark minus
    trapezoid-integrated proceeds), written separately from the cost kernel
    so the two can cross-check each other."""
    zbar = 0.5 * (zeta[..., 1:] + zeta[..., :-1])
    psi = np.concatenate(
        [np.zeros(zbar.shape[:-1] + (1,)), np.cumsum(tau * zbar, axis=-1)], axis=-1
    )
    s_eff = price - market.kappa * psi - market.kappa_tilde * zeta / vol
    proceeds = np.sum(tau * 0.5 * (s_eff[..., 1:] + s_eff[..., :-1]) * zbar, axis=-1)
    return price[..., 0] * Phi - proceeds


def run_validation(
    volume: Union[VolumeProfile, GbmVolumeModel],
    market: MarketParams,
    grid: TimeGrid,
    *,
    Phi: float = 1.0,
    n_paths: int = 20_000,
    seed: int = 0,
    lambdas=(0.5, 1.0, 2.0),
) -> dict:
    """Run every check and return the report dict (see the module docstring
    for which thread runs what)."""
    checks = []
    stochastic = isinstance(volume, GbmVolumeModel)
    degenerate = stochastic and volume.sigma == 0.0
    cfg = SimulationConfig(n_paths=n_paths, seed=seed, grid=grid, market=market, volume=volume)

    probes = {"twap": _twap(grid, Phi)}
    if stochastic:
        probes["expected-vwap"] = expected_vwap_strategy(volume, grid, Phi)
    else:
        probes["vwap"] = vwap_strategy(volume, Phi)
    probe_name, probe = next(iter(probes.items()))

    # --- path checks, turnover model statistics and determinism -----------
    def path_checks():
        # the pass builds no price path: its first paths are rebuilt from
        # the keyed draws, bit for bit, for the checks that read paths
        price, vol = _joint_block(cfg, 0, min(n_paths, 1000))
        # the per-path volume-proportional schedule: the pass prices it in
        # closed form, unchecked, under stochastic turnover; under
        # deterministic turnover it is one row, shared by every path
        w = trapz_weights(grid.n_steps, grid.tau)
        if stochastic:
            zeta_paths = vol * (probe.Phi / (vol @ w))[:, None]
        else:
            zeta_paths = np.broadcast_to(vol[0] * (probe.Phi / (vol[0] @ w)), vol.shape)
        checked = [(probe_name, probe.zeta)] + [(ANTICIPATING_LABEL, zeta_paths)] * stochastic
        direct = {k: _independent_direct_cost(price, vol, z, Phi, grid.tau, market) for k, z in checked}

        # the trader's VWAP of that schedule
        slip = float(np.max(np.abs(market_vwap(price, zeta_paths) - market_vwap(price, vol))))
        out = [_check("vwap_slippage_zero", slip <= 1e-10, max_abs_slippage=slip)]

        # an overflowed statistic is not finite and fails its check
        mean_terminal, se = _mean_and_se(price[:, -1])
        zt = _z(mean_terminal - market.s0, se)
        out.append(_check("martingale_price", abs(zt) <= 3.0, z=zt, mean_terminal=mean_terminal))

        if not stochastic or degenerate:
            reason = "deterministic turnover configuration"
            if degenerate:
                reason = "turnover volatility is zero"
            out += [_skip("harmonic_mean_check", reason), _skip("cross_check_quadrature", reason)]
        else:
            u = gbm_harmonic_mean(volume, grid).v
            probe_nodes = [grid.n_steps // 4, grid.n_steps // 2, grid.n_steps]
            hz, hd = 0.0, {}
            for j in probe_nodes:
                mc, se = _mean_and_se(1.0 / vol[:, j])
                z = _z(mc - 1.0 / u[j], se)
                hd[f"node_{j}"] = {"mc": mc, "analytic": 1.0 / u[j], "z": z}
                hz = max(hz, abs(z))
            out.append(_check("harmonic_mean_check", hz <= 3.0, **hd))

            rel = 0.0
            qd = {}
            for name, s in probes.items():
                a = mv_gbm(s, volume, 1.0, market)
                b = mv_gbm_quadrature_check(s, volume, 1.0, market)
                r = abs(a.variance - b.variance) / max(abs(a.variance), 1e-300)
                qd[name] = {"reduced": a.variance, "quadrature": b.variance, "rel_gap": r}
                rel = max(rel, r)
            out.append(_check("cross_check_quadrature", rel <= 1e-6, **qd))

        # the first paths drawn alone against the same rows, listed last
        k = min(len(price), 64)
        pa, va = _joint_block(cfg, 0, k)
        det = bool(np.array_equal(pa, price[:k]) and np.array_equal(va, vol[:k]))
        return direct, out, _check("determinism_repeat", det, bitwise_equal=det)

    # --- structural checks on fixed fixtures ------------------------------
    def structural_checks():
        g1k = build_grid(1.0, 1000)
        p1k = arcsine_profile(g1k)
        worst = 0.0
        bq = {}
        for lam in lambdas:
            # the rate-space QP against the divergence-matched boundary problem
            _, rep = solve_qp_deterministic(p1k, lam, _STRUCTURAL_MARKET, 1.0)
            phi_ode = optimal_inventory_ode(p1k, lam, _STRUCTURAL_MARKET, 1.0).phi
            gap = float(np.max(np.abs(1.0 - g1k.tau * np.cumsum(rep.zeta_intervals) - phi_ode[1:])))
            bq[f"lam_{lam}"] = gap
            worst = max(worst, gap)
        out = [_check("bvp_qp_agreement", worst <= 1e-4, **bq)]

        g500 = build_grid(1.0, 500)
        p500 = arcsine_profile(g500)
        s0_, rep0 = solve_qp_deterministic(p500, 0.0, _STRUCTURAL_MARKET, 1.0)
        rel = _proportional_gap(rep0.zeta_intervals, g500, p500.v)
        out.append(_check("qp_lambda0_vwap", rel <= 1e-8, rel_sup_gap=rel))

        sqp_model = volume if (stochastic and not degenerate) else _STRUCTURAL_MODEL
        g200 = build_grid(1.0, 200)
        _, rep_s = solve_sqp_gbm(sqp_model, 0.0, _STRUCTURAL_MARKET, 1.0, g200)
        rel_u = _proportional_gap(rep_s.zeta_intervals, g200, gbm_harmonic_mean(sqp_model, g200).v)
        out.append(
            _check(
                "sqp_lambda0_expected_vwap",
                rel_u <= 1e-6 and rep_s.status == "converged",
                rel_sup_gap=rel_u,
                status=rep_s.status,
            )
        )

        _, zeta1 = asymptotic_expansion(p500, _STRUCTURAL_MARKET, 0.0, 1.0)
        m = {}
        for lam in (1e-2, 1e-3):
            sl, _ = solve_qp_deterministic(p500, lam, _STRUCTURAL_MARKET, 1.0)
            m[lam] = float(np.max(np.abs((sl.zeta - s0_.zeta) / lam - zeta1)))
        ratio = m[1e-3] / m[1e-2]
        out.append(
            _check(
                "expansion_small_lambda",
                ratio <= 0.5,
                m_1e2=m[1e-2],
                m_1e3=m[1e-3],
                ratio=ratio,
            )
        )
        return out

    paths, structural = _Outcome(path_checks), _Outcome(structural_checks)

    # --- moment matching and optimality orderings on common paths --------
    # one pass draws every path once; the tournament builds its own
    # anticipating and harmonic-mean rows, so only probes that do not shadow
    # those reserved names enter, and the moment checks read the same rows
    entrants = {k: v for k, v in probes.items() if k not in ("expected-vwap",)}
    tournament, rows = validate_theorem_orderings(
        cfg, entrants, return_costs=True, alongside=(paths, structural)
    )
    mean_detail, var_detail = {}, {}
    mean_ok = var_ok = True
    for name, s in probes.items():
        est = moment_estimate(rows[name])
        ec = expected_cost(s, volume, market)
        zm = _z(est.mean - ec, est.std_error_mean)
        if stochastic:
            analytic_var = mv_gbm(s, volume, 1.0, market).variance
        else:
            analytic_var = mv_deterministic(s, volume, 1.0, market).variance
        zv = _z(est.variance - analytic_var, est.std_error_variance)
        mean_detail[name] = {"mc": est.mean, "analytic": ec, "z": zm}
        var_detail[name] = {"mc": est.variance, "analytic": analytic_var, "z": zv}
        mean_ok &= abs(zm) <= 3.0
        var_ok &= abs(zv) <= 3.0
    checks.append(_check("mean_matches_expected_cost", mean_ok, **mean_detail))
    checks.append(_check("variance_matches_mv", var_ok, **var_detail))

    # each theorem holds when every ordering its row is meant to win is confirmed
    for name, better in (("theorem_anticipating_optimal", ANTICIPATING_LABEL),
                         ("theorem_expected_vwap_optimal", "expected-vwap")):
        if better != ANTICIPATING_LABEL and not stochastic:
            checks.append(_skip(name, "deterministic turnover configuration"))
            continue
        won = [o for o in tournament["orderings"] if o["better"] == better]
        checks.append(_check(name, all(o["confirmed"] for o in won), orderings=won))

    # --- pathwise identities ---------------------------------------------
    # the tournament's rows of the rebuilt paths (the probe's and, under
    # stochastic turnover, the anticipating one's) against the independent
    # direct evaluation
    direct, more, determinism = paths.get()
    gaps = [np.abs(rows[k][: len(d)] - d) / np.maximum(1.0, np.abs(d)) for k, d in direct.items()]
    gap = float(np.max(gaps))
    checks.append(_check("cost_identity_pathwise", gap <= 1e-8, max_rel_gap=gap))
    checks += more + structural.get() + [determinism]

    return {
        "schema": 1,
        "n_paths": n_paths,
        "seed": seed,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
