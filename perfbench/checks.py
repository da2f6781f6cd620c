"""Per-op correctness checks, applied after each op outside the timed interval.

An op *fails* (it counts in `failed`, and the run reports `correct: false`)
when its output is broken or wrong: an exception escapes `main`; the exit code
is not 0 (except exit 3 that matches the reported statuses); stdout is not
exactly one JSON line; an artifact is not strict JSON, holds a non-finite
number or lacks a field; a deterministic solve with no active bound strays
more than 1e-8 * Phi from `optimal_inventory_ode`; a deterministic `validate`
check fails.

An op falls *short* when a solve is not `converged` or reports a KKT residual
above 1e-8, the optimizer's own tolerance.  Shortfalls are the solver's known
limits (the SQP hard corners), not broken output: they are counted apart, and
`fail_ratio` = ops that failed or fell short, over ops attempted.

Statistical (3-sigma) checks are counted apart and never fail an op: the
moment estimates of `simulate` against the closed forms, and `validate`'s
statistical checks.
"""
from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

KKT_TOL = 1e-8          # the optimizer's own _KKT_TOL
ODE_TOL = 1e-8          # times Phi
OBJECTIVE_RTOL = 1e-9   # simulate.json objective vs. a re-solve of the same inputs
STAT_SIGMAS = 3.0       # width of the statistical checks, in standard errors

DETERMINISTIC_CHECKS = frozenset({
    "cost_identity_pathwise",
    "vwap_slippage_zero",
    "cross_check_quadrature",
    "bvp_qp_agreement",
    "qp_lambda0_vwap",
    "sqp_lambda0_expected_vwap",
    "expansion_small_lambda",
    "determinism_repeat",
})


@dataclass
class OpCheck:
    failures: list = field(default_factory=list)
    shortfalls: list = field(default_factory=list)
    stat_checks: int = 0
    stat_failed: list = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    def short(self, reason: str) -> None:
        self.shortfalls.append(reason)

    def stat(self, name: str, passed: bool) -> None:
        self.stat_checks += 1
        if not passed:
            self.stat_failed.append(name)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _all_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return True


def strict_json(text: str):
    """Parse JSON with NaN and Infinity rejected, and no overflow to inf."""
    doc = json.loads(text, parse_constant=_reject_constant)
    if not _all_finite(doc):
        raise ValueError("non-finite number")
    return doc


def _read_csv(path: Path) -> dict:
    """Columns of a numeric CSV with a header row; every cell finite."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    cols = {name: [] for name in header}
    for row in body:
        if len(row) != len(header):
            raise ValueError(f"ragged row in {path.name}")
        for name, cell in zip(header, row):
            x = float(cell)
            if not math.isfinite(x):
                raise ValueError(f"non-finite cell in {path.name}")
            cols[name].append(x)
    return cols


def _load_artifacts(out_dir: Path, chk: OpCheck) -> dict:
    """Every file the op wrote, parsed; a bad file fails the op."""
    docs = {}
    for path in sorted(out_dir.iterdir()):
        try:
            if path.suffix == ".json":
                docs[path.name] = strict_json(path.read_text())
            elif path.suffix == ".csv":
                docs[path.name] = _read_csv(path)
        except (ValueError, IndexError) as e:
            chk.fail(f"artifact {path.name}: {e}")
    return docs


def _grid_and_market(doc):
    import volexec

    grid = volexec.build_grid(doc["horizon"], doc["grid_n"])
    market = volexec.MarketParams(**doc["market"])
    return grid, market


def _profile(doc, grid):
    import volexec

    vol = doc["volume"]
    if vol["type"] == "arcsine":
        return volexec.arcsine_profile(grid)
    return volexec.profile_from_samples(grid, np.asarray(vol["values"], dtype=float))


def _gbm_model(doc, rho):
    import volexec

    vol = doc["volume"]
    return volexec.GbmVolumeModel(v0=vol["v0"], mu=vol["mu"], sigma=vol["sigma"], rho=rho)


def _check_solve_entry(entry: dict, chk: OpCheck, where: str) -> None:
    """Converged with KKT within tolerance, or else a shortfall."""
    if entry["status"] != "converged":
        chk.short(f"{where}: status {entry['status']!r}")
    kkt = entry.get("kkt_residual")
    if kkt is not None and kkt > KKT_TOL:
        chk.short(f"{where}: kkt_residual {kkt:.3g} > {KKT_TOL:g}")


def _interval_inventory(node_rates, doc):
    """Inventory of the solver's interval rates, recovered from the CSV's node
    rates (first and last copy an interval, interior nodes average two):
    phi_j = Phi - tau * sum of the first j interval rates."""
    rates = [node_rates[0]]
    for z in node_rates[1:-1]:
        rates.append(2.0 * z - rates[-1])
    tau = doc["horizon"] / doc["grid_n"]
    return doc["phi"] - tau * np.concatenate([[0.0], np.cumsum(rates)])


def _check_solve(doc, rc, arts: dict, chk: OpCheck) -> None:
    import volexec

    report = arts.get("report.json")
    if report is None:
        chk.fail("solve wrote no report.json")
        return
    results = report["results"]
    n_expected = len(doc["lambdas"]) * max(1, len(doc.get("rhos", [])))
    if len(results) != n_expected:
        chk.fail(f"report.json holds {len(results)} results, expected {n_expected}")
    for entry in results:
        where = f"lambda={entry['lambda']} rho={entry.get('rho')}"
        if "kkt_residual" not in entry:
            chk.fail(f"{where}: no kkt_residual")
        _check_solve_entry(entry, chk, where)
        table = arts.get(entry["file"])
        if table is None:
            chk.fail(f"{where}: strategy CSV missing")
            continue
        if len(table["phi"]) != doc["grid_n"] + 1:
            chk.fail(f"{where}: strategy CSV has the wrong node count")
            continue
        deterministic = doc["volume"]["type"] != "gbm"
        if deterministic and entry["status"] == "converged" and not entry.get("active_bounds"):
            grid, market = _grid_and_market(doc)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                ref = volexec.optimal_inventory_ode(
                    _profile(doc, grid), entry["lambda"], market, doc["phi"]
                ).phi
            gap = float(np.max(np.abs(_interval_inventory(table["zeta"], doc) - ref)))
            if not gap <= ODE_TOL * doc["phi"]:
                chk.fail(f"{where}: inventory {gap:.3g} from optimal_inventory_ode")
    converged = all(e["status"] == "converged" for e in results)
    if (rc == 0) != converged:
        chk.fail(f"solve exited {rc} with all statuses converged={converged}")
    if report["all_converged"] != converged:
        chk.fail("report.json all_converged disagrees with the statuses")


def _check_simulate(doc, arts: dict, chk: OpCheck) -> None:
    import volexec

    report = arts.get("simulate.json")
    if report is None:
        chk.fail("simulate wrote no simulate.json")
        return
    grid, market = _grid_and_market(doc)
    results = report["results"]
    if len(results) != len(doc["lambdas"]) * max(1, len(doc.get("rhos", []))):
        chk.fail(f"simulate.json holds {len(results)} results")
    kind = "antithetic" if doc["mc"]["antithetic"] else "plain"
    for entry in results:
        lam, rho = entry["lambda"], entry.get("rho", doc["volume"]["rho"])
        where = f"lambda={lam} rho={rho}"
        _check_solve_entry(entry, chk, where)
        # simulate.json carries no KKT residual: re-solve the same inputs to read it
        model = _gbm_model(doc, rho)
        s, rep = volexec.solve_sqp_gbm(model, lam, market, doc["phi"], grid)
        if rep.kkt_residual > KKT_TOL:
            chk.short(f"{where}: kkt_residual {rep.kkt_residual:.3g} > {KKT_TOL:g}")
        if abs(rep.objective - entry["objective"]) > OBJECTIVE_RTOL * max(1.0, abs(rep.objective)):
            chk.fail(f"{where}: objective differs from a re-solve")
        m = entry["moments"]
        if m["n_paths"] != doc["mc"]["n_paths"] or not (m["std_error_mean"] > 0 and m["std_error_variance"] > 0):
            chk.fail(f"{where}: moment estimate malformed")
            continue
        # Monte Carlo moments against the closed forms of the same schedule
        ref = volexec.mv_gbm(s, model, lam, market)
        chk.stat(f"mean_{kind}",
                 abs(m["mean"] - ref.expectation) <= STAT_SIGMAS * m["std_error_mean"])
        chk.stat(f"variance_{kind}",
                 abs(m["variance"] - ref.variance) <= STAT_SIGMAS * m["std_error_variance"])


def _check_validate(doc, rc, arts: dict, chk: OpCheck) -> None:
    report = arts.get("validation.json")
    if report is None:
        chk.fail("validate wrote no validation.json")
        return
    if report["n_paths"] != doc["mc"]["n_paths"]:
        chk.fail("validation.json n_paths differs from the config")
    for c in report["checks"]:
        if c["name"] in DETERMINISTIC_CHECKS:
            if not c["passed"]:
                chk.fail(f"deterministic check {c['name']} failed")
        elif not c.get("skipped"):
            chk.stat(c["name"], c["passed"])
    all_passed = all(c["passed"] for c in report["checks"])
    if report["all_passed"] != all_passed:
        chk.fail("validation.json all_passed disagrees with its checks")
    if (rc == 0) != all_passed:
        chk.fail(f"validate exited {rc} with all_passed={all_passed}")


def check_op(command: str, doc: dict, rc, stdout: str, error, out_dir: Path) -> OpCheck:
    """Apply every failure rule to one op's outcome."""
    chk = OpCheck()
    if error is not None:
        chk.fail(f"exception escaped main: {type(error).__name__}: {error}")
        return chk
    # 3 is the documented solver/validation failure exit; the command checks
    # below hold it against the statuses the op reported
    if rc not in (0, 3) or (rc == 3 and command == "simulate"):
        chk.fail(f"exit code {rc}")
    lines = stdout.splitlines()
    try:
        if len(lines) != 1 or not isinstance(strict_json(lines[0]), dict):
            raise ValueError(f"{len(lines)} lines")
    except ValueError as e:
        chk.fail(f"stdout is not one JSON line: {e}")
    arts = _load_artifacts(out_dir, chk)
    try:
        if command == "solve":
            _check_solve(doc, rc, arts, chk)
        elif command == "simulate":
            _check_simulate(doc, arts, chk)
        else:
            _check_validate(doc, rc, arts, chk)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        chk.fail(f"malformed output: {type(e).__name__}: {e}")
    return chk
