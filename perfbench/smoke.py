"""Self-test of the benchmark at tiny sizes: every workload, traced and not.

    python3 perfbench/smoke.py

Checks BENCHMARK.json against the benchmark's contract, that each run prints
a last line with exactly the keys correct, attempted and failed and metrics,
that every metric BENCHMARK.json names is present with its unit and a finite
value, and that the runner refuses to run without the program's sources.
It gates on no timing.  Exits 0 when all hold.
"""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_benchmark_json(bench: dict) -> list:
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != keys:
        errors.append(f"BENCHMARK.json keys {sorted(bench)}")
    if not 1 <= bench["run_seconds"] <= 60 or not isinstance(bench["run_seconds"], int):
        errors.append("run_seconds must be a whole number in 1..60")
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    if len(set(names)) != len(names) or not all(NAME.match(n) for n in names):
        errors.append("names must be unique and well formed")
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"workload {w['name']} malformed")
    for m in bench["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            errors.append(f"end_to_end {m['name']} malformed")
    for m in bench["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            errors.append(f"per_layer {m['name']} malformed")
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            errors.append(f"metric {m['name']} unit or direction malformed")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s (s, lower) is required")
    elif setup[0]["bound"] < max(m["bound"] for m in bench["end_to_end"]):
        errors.append("setup_s must carry the largest bound")
    return errors


def check_result(line: str, expected: list) -> list:
    res = json.loads(line)
    errors = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(res)}"]
    if res["correct"] is not True:
        errors.append("correct is not true")
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1
            and isinstance(res["failed"], int) and 0 <= res["failed"] <= res["attempted"]):
        errors.append("attempted/failed malformed")
    if set(res["metrics"]) != {m["name"] for m in expected}:
        errors.append(f"metric names differ: {sorted(set(res['metrics']) ^ {m['name'] for m in expected})}")
    for m in expected:
        got = res["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)) \
                or not math.isfinite(got["value"]):
            errors.append(f"metric {m['name']}: {got}")
    return errors


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_benchmark_json(bench)
    for w in bench["workloads"]:
        for trace, expected in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            argv = bench["command"][1:] + ["--workload", w["name"], "--seed", "7",
                                           "--seconds", "1", "--trace", str(trace), "--smoke"]
            p = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                               text=True, timeout=180)
            where = f"{w['name']} trace={trace}"
            if p.returncode != 0:
                errors.append(f"{where}: exit {p.returncode}: {p.stderr.strip()[-300:]}")
                continue
            errors += [f"{where}: {e}" for e in check_result(p.stdout.splitlines()[-1], expected)]

    # Without the program's sources the runner must fail and print no result.
    bare = HERE / "results" / "tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    argv = bench["command"][1:] + ["--workload", bench["workloads"][0]["name"], "--seed", "7",
                                   "--seconds", "1", "--trace", "0"]
    p = subprocess.run([sys.executable, *argv], cwd=bare, capture_output=True, text=True,
                       timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or p.stdout.strip():
        errors.append("runner did not refuse a directory without src/")

    for e in errors:
        print(f"FAIL {e}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
