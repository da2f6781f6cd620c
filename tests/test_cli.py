import dataclasses
import json
import os
import subprocess
import sys
import warnings
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


def test_simulate_draws_once_for_every_rho(tmp_path, monkeypatch):
    """Every (lambda, rho) schedule is priced on one pass of draws, and each
    entry still holds the moments of a pass of its own."""
    from volexec import volume
    from volexec.cli import _build_run, _solve_sweep, main
    from volexec.montecarlo import SimulationConfig, estimate_cost_moments

    doc = gbm_config(grid_n=40, rhos=(0.0, -0.5), dump=True)
    doc["lambdas"] = [0.0, 0.5, 1.0, 2.0]
    doc["mc"].update(n_paths=600, antithetic=True)
    out = tmp_path / "out"
    doc["out_dir"] = str(out)
    calls = []
    draw = volume.path_rng

    def counted(*args, **kwargs):
        calls.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(volume, "path_rng", counted)
    assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 0
    # 300 drawn paths span 2 blocks, on 2 driver streams, once for both rhos
    assert len(calls) == 2 * 2
    sim = json.loads((out / "simulate.json").read_text())
    run = _build_run(doc)
    solved = list(_solve_sweep(run))
    pairs = [(e["lambda"], e["rho"]) for e, _ in solved]
    assert [(e["lambda"], e["rho"]) for e in sim["results"]] == pairs
    for entry, (solved_entry, s) in zip(sim["results"], solved):
        cfg = SimulationConfig(n_paths=600, seed=7, grid=run.grid, market=run.market,
                               volume=dataclasses.replace(run.volume, rho=solved_entry["rho"]))
        est, costs = estimate_cost_moments(s, cfg, antithetic=True, return_costs=True)
        assert entry["moments"] == est.as_dict()
        dumped = np.loadtxt(out / entry["costs_file"], delimiter=",", skiprows=1)[:, 1]
        assert np.array_equal(dumped, costs)


def test_simulate_exits_3_when_a_solve_does_not_converge(tmp_path, monkeypatch, capsys):
    """simulate reports like solve: the results are still written, with each
    status, but a solve that did not converge makes the command exit 3."""
    from volexec import cli

    solve = cli.solve_sqp_gbm

    def stalls_at_two(model, lam, *args, **kwargs):
        s, rep = solve(model, lam, *args, **kwargs)
        return s, (dataclasses.replace(rep, status="stalled") if lam == 2.0 else rep)

    monkeypatch.setattr(cli, "solve_sqp_gbm", stalls_at_two)
    doc = gbm_config(grid_n=20, rhos=(0.3,))
    out = tmp_path / "out"
    rc = cli.main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == "solver did not converge for lambda=2.0 rho=0.3\n"
    sim = json.loads((out / "simulate.json").read_text())
    assert [e["status"] for e in sim["results"]] == ["converged", "stalled"]


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


def test_validate_checks_the_correlated_model(tmp_path, capsys):
    """validate checks the model at volume.rho: on a small gbm config at
    rho = +0.5 every check passes, and cross_check_quadrature runs the
    Gauss-Hermite cross moment, so its variances differ from those of the
    same config at rho = 0.  The config's rhos list is not read."""
    from volexec.cli import main

    def validation(rho, **extra):
        doc = gbm_config()
        del doc["rhos"]
        doc["volume"]["rho"] = rho
        doc.update(extra)
        name = f"{rho}-{len(extra)}"
        cfg = write_config(tmp_path, doc, name=f"{name}.json")
        assert main(["validate", "--config", cfg, "--out", str(tmp_path / name)]) == 0, capsys.readouterr().err
        return (tmp_path / name / "validation.json").read_bytes()

    def quadrature(report):
        return next(c["detail"] for c in json.loads(report)["checks"] if c["name"] == "cross_check_quadrature")

    correlated = validation(0.5)
    checks = json.loads(correlated)["checks"]
    assert all(c["passed"] and not c["skipped"] for c in checks), checks
    at_zero = quadrature(validation(0.0))
    for name, probe in quadrature(correlated).items():
        assert probe["quadrature"] != at_zero[name]["quadrature"], name
        assert probe["reduced"] != at_zero[name]["reduced"], name
    assert validation(0.5, rhos=[-0.9, 0.9]) == correlated


def test_validate_catches_seeded_defect(monkeypatch, market, gbm_model, grid200):
    """A deliberately corrupted variance kernel must trip exactly one check."""
    from volexec import validation
    from volexec.validation import run_validation

    good = run_validation(
        gbm_model, market, grid200, n_paths=600, seed=3, lambdas=(0.5,)
    )
    assert good["all_passed"]

    def corrupted(mv):  # kappa_tilde scaled by 25 in the analytic variance
        def scaled(s, model, lam, m):
            return mv(s, model, lam, dataclasses.replace(m, kappa_tilde=25.0 * m.kappa_tilde))

        return scaled

    for name in ("mv_gbm", "mv_gbm_quadrature_check"):
        monkeypatch.setattr(validation, name, corrupted(getattr(validation, name)))
    bad = run_validation(
        gbm_model, market, grid200, n_paths=600, seed=3, lambdas=(0.5,)
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


def test_validate_identity_reads_reported_rows(monkeypatch, market):
    """cost_identity_pathwise checks the cost rows the report is built from:
    1e-4 Phi added to every total of the static contraction, well below the
    mean check's standard error, fails it and nothing else."""
    from volexec import cost
    from volexec.grids import build_grid
    from volexec.validation import run_validation
    from volexec.volume import arcsine_profile

    grid = build_grid(1.0, 50)
    totals = cost._StaticCosts.totals
    monkeypatch.setattr(
        cost._StaticCosts,
        "totals",
        lambda self, *args: totals(self, *args) + 1e-4 * 1.0,
    )
    report = run_validation(
        arcsine_profile(grid), market, grid, Phi=1.0, n_paths=2000, lambdas=(0.5,)
    )
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == ["cost_identity_pathwise"]


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

    (tmp_path / "file").write_text("")
    for section, key, value in (
        (None, "schema", True),
        (None, "lambdas", ["a"]),
        (None, "lambdas", [float("inf")]),
        (None, "lambdas", [float("nan")]),
        (None, "phi", float("inf")),
        ("mc", "n_paths", "x"),
        ("mc", "n_paths", 2.5),
        ("mc", "seed", "x"),
        ("mc", "antithetic", "no"),
        (None, "mc", {"n_paths": 401, "seed": 7, "antithetic": True}),
        ("mc", "seed", -5),
        ("mc", "seed", 2**64),
        ("mc", "seed", 2**70),
        (None, "out_dir", 5),
        (None, "lambdas", [1.0, 1.0000001]),
        (None, "out_dir", str(tmp_path / "file")),
        (None, "out_dir", str(tmp_path / "file" / "below")),
    ):
        out = tmp_path / "bad_out"
        doc = dict(det_config(), out_dir=str(out))
        (doc[section] if section else doc)[key] = value
        rc = main(["simulate", "--config", write_config(tmp_path, doc, "case.json")])
        err = capsys.readouterr().err
        assert rc == 2, (key, value)
        assert err.startswith("config error:"), err
        assert not (out / "simulate.json").exists()
    # a misspelled key in any section is named, with the nearest valid key,
    # before anything is read or written
    gbm = gbm_config()["volume"]
    for volume, section, key, near in (
        (None, None, "lambda", "config.lambdas"),
        (None, "market", "kapa", "market.kappa"),
        (None, "mc", "seeed", "mc.seed"),
        ({"type": "constant", "level": 1.0}, "volume", "levle", "volume.level"),
        ({"type": "samples", "values": [1.0] * 61}, "volume", "value", "volume.values"),
        (gbm, "volume", "sigm", "volume.sigma"),
    ):
        doc = dict(det_config(), out_dir=str(out))
        doc["volume"] = dict(volume or doc["volume"])
        (doc[section] if section else doc)[key] = 0.5
        case = write_config(tmp_path, doc, "case.json")
        for command in ("solve", "validate", "expand", "simulate"):
            assert main([command, "--config", case]) == 2, (command, key)
            where = f"{section or 'config'}.{key}"
            assert capsys.readouterr().err == (
                f"config error: unknown key {where} (did you mean {near}?)\n"
            )
            assert not out.exists()
    # two sweep values that would write one artifact name are named together
    doc = dict(det_config(lambdas=(0.0, 1.0, 1.0000001)), out_dir=str(out))
    assert main(["solve", "--config", write_config(tmp_path, doc, "case.json")]) == 2
    assert capsys.readouterr().err == (
        "config error: lambdas 1.0 and 1.0000001 share the artifact name '1'\n"
    )
    doc = dict(gbm_config(rhos=(0.5, -0.25, 0.50000004)), out_dir=str(out))
    assert main(["solve", "--config", write_config(tmp_path, doc, "case.json")]) == 2
    assert capsys.readouterr().err == (
        "config error: rhos 0.5 and 0.50000004 share the artifact name '0.5'\n"
    )
    assert not (out / "report.json").exists()
    # a seed override outside the 64-bit key word is rejected the same way
    case = write_config(tmp_path, dict(det_config(), out_dir=str(out)), "case.json")
    for seed in ("-1", str(2**64)):
        rc = main(["simulate", "--config", case, "--seed", seed])
        assert rc == 2, seed
        assert capsys.readouterr().err.startswith("config error: --seed"), seed
        assert not (out / "simulate.json").exists()
    # the largest seed is a valid key
    top = write_config(tmp_path, det_config(grid_n=10, n_paths=8), "top.json")
    assert main(["simulate", "--config", top, "--seed", str(2**64 - 1), "--out", str(out)]) == 0


# one bad element of a numeric list and the message that names its index
_BAD_ELEMENTS = {
    "true": (True, "must be a number, got True"),
    "string": ("x", "must be a number, got 'x'"),
    "null": (None, "must be a number, got None"),
    "nan": (float("nan"), "must be finite, got nan"),
    "infinity": (float("inf"), "must be finite, got inf"),
    "huge-int": (10**400, f"must be finite, got {10**400!r}"),
    "nested": ([1.0], "must be a number, got [1.0]"),
}


@pytest.mark.parametrize("key", ["volume.values", "lambdas"])
@pytest.mark.parametrize("bad", sorted(_BAD_ELEMENTS))
def test_bad_list_element_names_its_index(tmp_path, capsys, key, bad):
    from volexec.cli import main

    value, message = _BAD_ELEMENTS[bad]
    doc = det_config(grid_n=10)
    if key == "lambdas":
        doc["lambdas"] = [0.0, 0.5, value, 2.0]
        where = "config.lambdas[2]"
    else:
        doc["volume"] = {"type": "samples", "values": [1.0] * 3 + [value] + [2] * 7}
        where = "volume.values[3]"
    out = tmp_path / "out"
    assert main(["solve", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {where} {message}\n"
    assert not (out / "report.json").exists()


def test_bulk_list_read_matches_per_element():
    """A list of JSON numbers read in bulk gives the floats of the
    element-by-element reader, bit for bit: ints past 2^53 round to nearest
    even, past 2^64 too, and -0.0 keeps its sign."""
    from volexec.cli import _floats, _value

    rng = np.random.default_rng(5)
    ints = [2**53 + 1, 2**53 + 3, 2**54 + 2, 2**63 - 1, 2**63 + 1, 2**64 - 1, -(2**63) - 1]
    ints += [(2**53 + 1) << 20, 2**64 + 2**11, 10**300 + 1, 7]
    ints += [int(x) for x in rng.integers(-(2**62), 2**62, 50)]
    ints += [int(x) << int(s) for x, s in zip(rng.integers(1, 2**62, 50), rng.integers(0, 300, 50))]
    floats = [0.0, -0.0, 5e-324, 1.7976931348623157e308, *rng.standard_normal(50).tolist()]
    values = [(ints + floats)[i] for i in rng.permutation(len(ints) + len(floats))]
    got = _floats(values, "w")
    ref = [_value(x, float, "w") for x in values]
    assert all(type(x) is float for x in got)
    assert [x.hex() for x in got] == [x.hex() for x in ref]


def test_valid_samples_are_read_in_bulk(monkeypatch):
    """A valid 4001-sample profile and its sweep lists are checked without
    one per-element call."""
    from volexec import cli

    names, value = [], cli._value

    def counted(x, kind, name):
        names.append(name)
        return value(x, kind, name)

    monkeypatch.setattr(cli, "_value", counted)
    samples = [1 + i % 7 if i % 3 else 0.5 + i / 4000.0 for i in range(4001)]
    doc = det_config(grid_n=4000, lambdas=(0, 0.5, 1, 2.0))
    doc["volume"] = {"type": "samples", "values": samples}
    run = cli._build_run(json.loads(json.dumps(doc)))
    assert names and not [n for n in names if "[" in n]
    assert np.array_equal(run.volume.v, np.array(samples, dtype=float))
    assert run.lambdas == [0.0, 0.5, 1.0, 2.0]


def _extreme(**kw):
    doc = det_config(grid_n=10, n_paths=64)
    doc["volume"] = kw
    return doc


def _extreme_gbm(**kw):
    return _extreme(**{"type": "gbm", "v0": 1.0, "mu": -0.02, "sigma": 0.2, "rho": 0.0, **kw})


# schema-valid configs whose numbers overflow or underflow somewhere, with
# the exit codes of solve, validate, simulate and expand; turnover near 1e300
# leaves the deterministic optimum well defined (temporary impact vanishes, so
# the whole block sells in the first interval) and its solves succeed; expand
# takes deterministic turnover only.  The flag says stderr holds contract
# lines only (no numpy warning)
_EXTREME = {
    "samples-1e300": (_extreme(type="samples", values=[1e300] * 11), (0, 0, 0, 0), True),
    "samples-1e-300": (_extreme(type="samples", values=[1e-300] * 11), (0, 3, 3, 0), True),
    "samples-alternating": (
        _extreme(type="samples", values=[1e300 if i % 2 else 1e-300 for i in range(11)]),
        (0, 3, 0, 0),
        True,
    ),
    "gbm-v0-1e-300": (_extreme_gbm(v0=1e-300), (3, 3, 3, 2), True),
    "gbm-mu-1e3": (_extreme_gbm(mu=1e3), (2, 2, 2, 2), True),
    "gbm-sigma-50": (_extreme_gbm(sigma=50.0), (2, 2, 2, 2), True),
    # above any address space, so the first allocation fails untouched
    "grid_n-2**50": (det_config(grid_n=2**50, n_paths=64), (2, 2, 2, 2), True),
    "n_paths-2**50": (det_config(grid_n=10, n_paths=2**50), (0, 2, 2, 0), True),
}
# the sample profiles again with antithetic pairs, whose statistics differ
_EXTREME.update(
    {
        f"{name}-antithetic": ({**doc, "mc": {**doc["mc"], "antithetic": True}}, codes, clean)
        for name, (doc, codes, clean) in _EXTREME.items()
        if name.startswith("samples")
    }
)


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("name", sorted(_EXTREME))
def test_extreme_configs_exit_without_traceback(tmp_path, name):
    """Extreme but schema-valid numbers end in a config error (2) or a
    one-line numerical failure (3), never in a traceback; a validate that
    exits 3 writes a strict-JSON report whose non-finite statistics fail
    their checks.  Where flagged clean, stderr holds those lines only."""
    doc, codes, clean = _EXTREME[name]
    cfg = write_config(tmp_path, doc)
    for command, code in zip(("solve", "validate", "simulate", "expand"), codes):
        r = run_cli(command, "--config", cfg, "--out", str(tmp_path / command))
        assert r.returncode == code, (command, r.stderr)
        assert "Traceback" not in r.stderr
        if clean:
            contract = ("config error:", "numerical failure:", "validation check failed:")
            assert all(line.startswith(contract) for line in r.stderr.splitlines()), r.stderr
        if code == 3 and command == "validate":
            assert r.stderr.splitlines()[-1].startswith("validation check failed:"), r.stderr
            text = (tmp_path / command / "validation.json").read_text()
            report = json.loads(text, parse_constant=_reject_constant)
            nulled = [c for c in report["checks"] if "null" in json.dumps(c["detail"])]
            assert nulled and not any(c["passed"] for c in nulled)
            assert not report["all_passed"]
        elif code:
            prefix = "config error:" if code == 2 else "numerical failure:"
            assert r.stderr.splitlines()[-1].startswith(prefix), r.stderr


@pytest.mark.parametrize("n_paths", [2, 3])
def test_validate_with_too_few_paths_fails_its_checks(tmp_path, capsys, n_paths):
    """With 2 or 3 paths the variance's standard error is exactly 0; its
    z-score fails the check and is written as null instead of raising."""
    from volexec.cli import main

    doc = det_config(grid_n=20, n_paths=n_paths)
    doc["mc"]["seed"] = 3
    out = tmp_path / "out"
    assert main(["validate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines()[-1].startswith("validation check failed:")
    report = json.loads((out / "validation.json").read_text(), parse_constant=_reject_constant)
    variance = next(c for c in report["checks"] if c["name"] == "variance_matches_mv")
    assert not variance["passed"] and None in [d["z"] for d in variance["detail"].values()]
    assert not report["all_passed"]


@pytest.mark.parametrize("horizon", [1e300, 5e-324])
def test_extreme_horizon_exits_without_traceback(tmp_path, capsys, horizon):
    """A horizon whose square overflows, or whose step tau is 0, ends every
    command in one message line and exit 2 or 3, never in an exception.
    That line is all of stderr: a warning, which a plain run prints there,
    is recorded here and counts as a line."""
    from volexec.cli import main

    doc = dict(det_config(grid_n=10, n_paths=64), horizon=horizon)
    doc["volume"] = {"type": "constant", "level": 1.0}
    cfg = write_config(tmp_path, doc)
    for command in ("solve", "validate", "simulate", "expand"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", cfg, "--out", str(tmp_path / command)])
        lines = [str(w.message) for w in caught] + capsys.readouterr().err.splitlines()
        assert code in (2, 3), command
        prefix = "config error:" if code == 2 else "numerical failure:"
        assert len(lines) == 1 and lines[0].startswith(prefix), (command, lines)


def _fuzz_config(rng):
    """A random schema-valid config holding every key that SCHEMA lists for
    its sections but out_dir, with rhos under gbm turnover half the time; its
    numbers span 10^-e to 10^e, with e of 2, 20 or 300, so that some
    overflow, underflow or stall a solve."""
    from volexec.cli import SCHEMA

    e = float(rng.choice([2, 20, 300]))

    def num():
        return float(10.0 ** rng.uniform(-e, e))

    grid_n = int(rng.integers(2, 40))
    vtype = str(rng.choice(["arcsine", "constant", "samples", "gbm"]))
    by_key = {  # keys with a range of their own; any other key is drawn by its kind
        "schema": lambda: 1,
        "type": lambda: vtype,
        "grid_n": lambda: grid_n,
        "values": lambda: [num() for _ in range(grid_n + 1)],
        "lambdas": lambda: [0.0, num()][: int(rng.integers(1, 3))],
        "rhos": lambda: [float(rng.uniform(-1.0, 1.0))],
        "mu": lambda: float(rng.normal(0.0, 3.0)),
        "sigma": lambda: min(num(), 10.0),
        "rho": lambda: float(rng.uniform(-1.0, 1.0)),
        "n_paths": lambda: 2 * int(rng.integers(1, 33)),
        "seed": lambda: int(rng.integers(2**63)),
    }
    by_kind = {float: num, bool: lambda: bool(rng.integers(2))}
    sections = {"volume": f"volume.{vtype}", "market": "market", "mc": "mc"}

    def section(name):
        out = {}
        for key, (kind, _) in SCHEMA[name].items():
            if key in sections:
                out[key] = section(sections[key])
            elif key != "out_dir":
                out[key] = by_key.get(key, by_kind.get(kind))()
        return out

    doc = section("config")
    if vtype != "gbm" or rng.integers(2):
        del doc["rhos"]
    return doc


def _near_miss(rng, doc):
    """doc with one key of a random section misspelled (a character dropped,
    doubled or swapped with the next), and the config error it must raise."""
    from volexec.cli import SCHEMA

    doc = json.loads(json.dumps(doc))
    where = str(rng.choice(["config", "market", "mc", "volume"]))
    mapping = doc if where == "config" else doc[where]
    table = SCHEMA[f"volume.{doc['volume']['type']}" if where == "volume" else where]
    key = str(rng.choice(sorted(mapping)))
    bad = key
    while bad in table:
        i = int(rng.integers(len(key)))
        bad = str(rng.choice([key[:i] + key[i + 1:], key[:i] + key[i] + key[i:],
                              key[:i] + key[i + 1: i + 2] + key[i] + key[i + 2:]]))
    mapping[bad] = mapping.pop(key)
    # a misspelled volume.type leaves no volume section to read the key against
    if (where, key) == ("volume", "type"):
        return doc, "missing volume.type"
    return doc, f"unknown key {where}.{bad}"


def _artifacts(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}


def test_cli_contracts_hold_on_random_configs(tmp_path, capsys):
    """Seeded fuzzing of main in-process over random configs and all four
    commands: the exit code is 0, 2 or 3 and no exception escapes; every
    JSON artifact is strict; a converged solve met the KKT tolerance; exit 0
    means every solve converged and every check passed; validate and
    simulate rerun to the same bytes; no command issues a warning.  The same
    config with one key misspelled exits 2 on every command, names that key
    and writes nothing."""
    from volexec.cli import main

    rng = np.random.default_rng(20260419)
    for case in range(100):
        doc = _fuzz_config(rng)
        cfg = write_config(tmp_path, doc, name=f"fuzz{case}.json")
        for command in ("solve", "validate", "simulate", "expand"):
            outs = []
            for run in range(2 if command in ("validate", "simulate") else 1):
                out = tmp_path / f"{case}-{command}-{run}"
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code = main([command, "--config", cfg, "--out", str(out)])
                assert not caught, (case, command, [str(w.message) for w in caught])
                capsys.readouterr()
                assert code in (0, 2, 3), (case, command, doc)
                outs.append(_artifacts(out))
            assert outs[0] == outs[-1], (case, command)
            for name, data in outs[0].items():
                if not name.endswith(".json"):
                    continue
                report = json.loads(data, parse_constant=_reject_constant)
                results = report.get("results", [])
                for r in results:
                    if r["status"] == "converged" and "kkt_residual" in r:
                        assert r["kkt_residual"] <= 1e-8, (case, command, r)
                if code == 0:
                    assert all(r["status"] == "converged" for r in results), (case, command)
                    assert report.get("all_passed", True), (case, command)
        # the same config with one key misspelled is named and writes nothing
        typo, message = _near_miss(rng, doc)
        cfg = write_config(tmp_path, typo, name=f"typo{case}.json")
        for command in ("solve", "validate", "simulate", "expand"):
            out = tmp_path / f"{case}-{command}-typo"
            assert main([command, "--config", cfg, "--out", str(out)]) == 2, (case, command, message)
            assert capsys.readouterr().err.startswith(f"config error: {message}"), (case, message)
            assert not out.exists()


def test_antithetic_needs_two_pairs(tmp_path, capsys):
    """One antithetic pair has no standard error: 2 antithetic paths are a
    config error that writes nothing, 4 simulate."""
    from volexec.cli import main

    for n_paths, code in ((2, 2), (4, 0)):
        doc = det_config(grid_n=10, n_paths=n_paths)
        doc["mc"]["antithetic"] = True
        out = tmp_path / str(n_paths)
        assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert err == "config error: mc.n_paths must be at least 4 with mc.antithetic\n"
            assert not _artifacts(out)
        else:
            assert "simulate.json" in _artifacts(out)


def test_config_and_preset_conflict(tmp_path):
    cfg = write_config(tmp_path, det_config())
    r = run_cli("solve", "--config", cfg, "--preset", "fig1", "--out", str(tmp_path))
    assert r.returncode == 2


def test_usage_error_without_source():
    r = run_cli("solve")
    assert r.returncode == 2


def test_usage_contract(tmp_path):
    """One parser: --help names every command with its help, the options
    may come before or after the command, and an unknown or a missing
    command is a usage error."""
    from volexec.cli import COMMANDS

    r = run_cli("--help")
    assert r.returncode == 0
    for name, (_, help_) in COMMANDS.items():
        assert f"{name}: {help_}" in r.stdout
    before, after = tmp_path / "before", tmp_path / "after"
    assert run_cli("--preset", "fig1", "--out", str(before), "solve").returncode == 0
    assert run_cli("solve", "--preset", "fig1", "--out", str(after)).returncode == 0
    assert (before / "report.json").read_bytes() == (after / "report.json").read_bytes()
    assert run_cli("nosuch", "--preset", "fig1").returncode == 2
    assert run_cli("--preset", "fig1").returncode == 2


def test_readme_schema_block_lists_the_schema():
    """The README's configuration block names the keys of every SCHEMA
    section: the top level, market and mc from the JSON itself, and each
    volume.type's keys from the comment that lists them."""
    import re

    from volexec.cli import SCHEMA

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Configuration schema", 1)[1].split("```jsonc\n", 1)[1].split("```", 1)[0]
    doc = json.loads(re.sub(r"//.*", "", block))
    listed = {"config": set(doc), "market": set(doc["market"]), "mc": set(doc["mc"])}
    listed[f"volume.{doc['volume']['type']}"] = set(doc["volume"])
    for kind, keys in re.findall(r'"(\w+)" \{([^}]*)\}', block):
        listed[f"volume.{kind}"] = {"type"} | set(re.findall(r"(?:^|,)\s*(\w+)", keys))
    assert listed == {section: set(table) for section, table in SCHEMA.items()}
