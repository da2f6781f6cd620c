import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import make_twap

import volexec
from volexec.grids import trapz
from volexec.strategies import strategy_from_csv

# the CLI runs in a child process: point it at the package the tests import
_SRC = str(Path(volexec.__file__).resolve().parents[1])


def run_cli(*args):
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "volexec", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def det_config(grid_n=60, lambdas=(0.0, 1.0), n_paths=400):
    return {
        "schema": 1,
        "volume": {"type": "arcsine"},
        "market": {"kappa": 0.1, "kappa_tilde": 0.02, "sigma_tilde": 0.1, "s0": 100.0},
        "phi": 1.0,
        "horizon": 1.0,
        "grid_n": grid_n,
        "lambdas": list(lambdas),
        "mc": {"n_paths": n_paths, "seed": 7, "antithetic": False, "dump_paths": False},
    }


def gbm_config(grid_n=60, rhos=(0.0, 0.9), dump=False):
    doc = det_config(grid_n=grid_n, lambdas=(0.0, 2.0))
    doc["volume"] = {"type": "gbm", "v0": 1.0, "mu": -0.02, "sigma": 0.2, "rho": 0.0}
    doc["market"]["sigma_tilde"] = 0.2
    doc["rhos"] = list(rhos)
    doc["mc"]["dump_paths"] = dump
    return doc


def write_config(tmp_path, doc, name="run.json"):
    f = tmp_path / name
    f.write_text(json.dumps(doc))
    return str(f)


def test_solve_deterministic(tmp_path):
    cfg = write_config(tmp_path, det_config())
    out = tmp_path / "out"
    r = run_cli("solve", "--config", cfg, "--out", str(out))
    assert r.returncode == 0, r.stderr
    summary = json.loads(r.stdout)
    assert summary["command"] == "solve"
    report = json.loads((out / "report.json").read_text())
    assert report["schema"] == 1
    assert report["all_converged"] is True
    assert len(report["results"]) == 2
    for entry in report["results"]:
        assert entry["status"] == "converged"
        s = strategy_from_csv(str(out / entry["file"]))
        assert abs(trapz(s.zeta, s.grid.tau) - 1.0) < 1e-10


def test_solve_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, det_config())
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("solve", "--config", cfg, "--out", str(a)).returncode == 0
    assert run_cli("solve", "--config", cfg, "--out", str(b)).returncode == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    for f in sorted(a.glob("*.csv")):
        assert f.read_bytes() == (b / f.name).read_bytes()


def test_solve_gbm_rho_sweep(tmp_path):
    cfg = write_config(tmp_path, gbm_config())
    out = tmp_path / "out"
    r = run_cli("solve", "--config", cfg, "--out", str(out))
    assert r.returncode == 0, r.stderr
    report = json.loads((out / "report.json").read_text())
    # 2 lambdas x 2 rhos
    assert len(report["results"]) == 4
    assert {e["rho"] for e in report["results"]} == {0.0, 0.9}
    names = {e["file"] for e in report["results"]}
    assert any("rho" in n for n in names)
    assert all((out / n).exists() for n in names)


def test_solve_preset_with_overrides(tmp_path):
    out = tmp_path / "out"
    r = run_cli("solve", "--preset", "fig1", "--grid-n", "50", "--out", str(out))
    assert r.returncode == 0, r.stderr
    report = json.loads((out / "report.json").read_text())
    s = strategy_from_csv(str(out / report["results"][0]["file"]))
    assert s.grid.n_steps == 50


def test_expand_writes_composites(tmp_path):
    cfg = write_config(tmp_path, det_config(lambdas=(0.0, 0.5, 1.0)))
    out = tmp_path / "out"
    r = run_cli("expand", "--config", cfg, "--out", str(out))
    assert r.returncode == 0, r.stderr
    lines = (out / "expansion.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["t", "zeta0", "zeta1"]
    assert sum(c.startswith("composite") for c in header) == 3  # one per lambda
    assert len(lines) == 62  # grid_n + 1 rows after the header
    data = np.loadtxt(str(out / "expansion.csv"), delimiter=",", skiprows=1)
    # at lam = 0 the composite collapses onto the base schedule (up to the
    # one rounding op of its mass renormalization)
    assert np.allclose(data[:, header.index("composite_lam0")], data[:, 1], rtol=1e-14, atol=0)


def test_expand_rejects_stochastic_volume(tmp_path):
    cfg = write_config(tmp_path, gbm_config())
    r = run_cli("expand", "--config", cfg, "--out", str(tmp_path / "out"))
    assert r.returncode == 2
    assert r.stderr.strip()


def test_simulate_with_dumped_costs(tmp_path):
    doc = gbm_config(grid_n=40, rhos=(0.0,), dump=True)
    doc["lambdas"] = [1.0]
    doc["mc"]["n_paths"] = 200
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    r = run_cli("simulate", "--config", cfg, "--out", str(out))
    assert r.returncode == 0, r.stderr
    sim = json.loads((out / "simulate.json").read_text())
    entry = sim["results"][0]
    assert entry["moments"]["n_paths"] == 200
    # the sampled mean should line up with the optimizer's own objective at
    # lam = 0 risk weighting... here just demand finiteness and the dump
    costs = [f for f in out.iterdir() if f.name.startswith("costs_")]
    assert len(costs) == 1
    assert len(costs[0].read_text().splitlines()) == 201


def test_simulate_seed_override_changes_draws(tmp_path):
    doc = gbm_config(grid_n=40, rhos=(0.0,))
    doc["lambdas"] = [1.0]
    doc["mc"]["n_paths"] = 100
    cfg = write_config(tmp_path, doc)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", "--config", cfg, "--out", str(a)).returncode == 0
    assert run_cli("simulate", "--config", cfg, "--out", str(b), "--seed", "99").returncode == 0
    ja = json.loads((a / "simulate.json").read_text())
    jb = json.loads((b / "simulate.json").read_text())
    assert ja["results"][0]["moments"]["mean"] != jb["results"][0]["moments"]["mean"]


def test_validate_small_run(tmp_path):
    cfg = write_config(tmp_path, det_config(grid_n=80, n_paths=600))
    out = tmp_path / "out"
    r = run_cli("validate", "--config", cfg, "--out", str(out))
    assert r.returncode == 0, r.stderr + r.stdout
    doc = json.loads((out / "validation.json").read_text())
    assert doc["all_passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert "mean_matches_expected_cost" in names
    assert "cost_identity_pathwise" in names


def test_validate_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path, det_config(grid_n=80, n_paths=600))
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("validate", "--config", cfg, "--out", str(a)).returncode == 0
    assert run_cli("validate", "--config", cfg, "--out", str(b)).returncode == 0
    assert (a / "validation.json").read_bytes() == (b / "validation.json").read_bytes()


def test_validate_catches_seeded_defect(market, gbm_model, grid200):
    """A deliberately corrupted variance kernel must trip exactly one check."""
    from volexec.validation import run_validation

    good = run_validation(
        gbm_model, market, grid200, n_paths=600, seed=3, lambdas=(0.5,)
    )
    assert good["all_passed"]
    bad = run_validation(
        gbm_model, market, grid200, n_paths=600, seed=3, lambdas=(0.5,),
        _corrupt_kappa_tilde=25.0,
    )
    assert not bad["all_passed"]
    failed = [c["name"] for c in bad["checks"] if not c["passed"] and not c.get("skipped")]
    assert failed == ["variance_matches_mv"]
    # the moment checks read the tournament's pass, the same paths a
    # standalone estimate draws
    from volexec.montecarlo import SimulationConfig, estimate_cost_moments
    from volexec.strategies import expected_vwap_strategy

    cfg = SimulationConfig(n_paths=600, seed=3, grid=grid200, market=market, volume=gbm_model)
    checks = {c["name"]: c["detail"] for c in good["checks"]}
    probes = {
        "twap": make_twap(grid200),
        "expected-vwap": expected_vwap_strategy(gbm_model, grid200, 1.0),
    }
    for name, s in probes.items():
        est = estimate_cost_moments(s, cfg)
        assert checks["mean_matches_expected_cost"][name]["mc"] == est.mean
        assert checks["variance_matches_mv"][name]["mc"] == est.variance


def test_config_errors_exit_2(tmp_path, capsys):
    r = run_cli("solve", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path))
    assert r.returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": 99}')
    r = run_cli("solve", "--config", str(bad), "--out", str(tmp_path))
    assert r.returncode == 2
    doc = det_config()
    del doc["market"]
    r = run_cli("solve", "--config", write_config(tmp_path, doc, "nm.json"), "--out", str(tmp_path))
    assert r.returncode == 2
    # one malformed number each: a message and exit 2, never a traceback, a
    # bare NaN in an artifact, or a silent coercion
    from volexec.cli import main

    for section, key, value in (
        (None, "lambdas", ["a"]),
        (None, "lambdas", [float("inf")]),
        (None, "lambdas", [float("nan")]),
        (None, "phi", float("inf")),
        ("mc", "n_paths", "x"),
        ("mc", "n_paths", 2.5),
        ("mc", "seed", "x"),
        ("mc", "antithetic", "no"),
        (None, "out_dir", 5),
    ):
        out = tmp_path / "bad_out"
        doc = dict(det_config(), out_dir=str(out))
        (doc[section] if section else doc)[key] = value
        rc = main(["simulate", "--config", write_config(tmp_path, doc, "case.json")])
        err = capsys.readouterr().err
        assert rc == 2, (key, value)
        assert err.startswith("config error:"), err
        assert not (out / "simulate.json").exists()


def test_config_and_preset_conflict(tmp_path):
    cfg = write_config(tmp_path, det_config())
    r = run_cli("solve", "--config", cfg, "--preset", "fig1", "--out", str(tmp_path))
    assert r.returncode == 2


def test_usage_error_without_source():
    r = run_cli("solve")
    assert r.returncode == 2
