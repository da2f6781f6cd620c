"""volexec benchmark: closed-loop CLI ops on seeded workloads.

One run is one fresh process with one client in a closed loop: the next op
starts only when the previous one has finished.  Each op calls
`volexec.cli.main(argv)` in-process on a generated `--config` and writes its
artifacts to a fresh directory; its outputs are checked after the timed
interval (see checks.py).

    python3 perfbench/run.py --workload solve-sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 35    # every workload, one table
    python3 perfbench/run.py --workload validate-det --smoke --seconds 1 --trace 1

`--trace 0` measures the end-to-end metrics.  Their times are scaled to a
reference machine speed.  A fixed kernel that does not use the program
(yardstick.py) is timed once per REF_EVERY_S seconds of ops, in a block of
passes between two ops whenever one is due, with one block before the first
op and one after the last, and once between set-up probes.  Each op or probe
time is multiplied by NOMINAL_S over the mean kernel time of the blocks on
either side of it.  The unscaled times stay in the result file.

`--trace 1` runs every op twice, untraced and then traced with span recorders
(spans.py), and reports the per-layer metrics plus the tracing overhead.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  A result
file with the environment, every op and the failure reasons goes to
perfbench/results/.  The program comes from src/ of this checkout; the run
exits 1 without a result when it is missing.
"""
from __future__ import annotations

import os

# One client, one BLAS thread: on a small shared VM a BLAS call split across
# vCPUs stalls whenever the hypervisor takes any one of them.  Set before
# numpy is imported, for this process and its set-up probes.
NPROC = len(os.sched_getaffinity(0))
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import collections
import contextlib
import ctypes
import inspect
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads
import yardstick

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"
RESULTS = HERE / "results"
SETUP_PROBES = 4           # processes timing interpreter start + import, before
                           # the ops and again after them, so setup_s spans the run
WALL_LIMIT_S = 150.0       # no new op after this much wall time
TAIL_BEYOND = 10           # samples beyond the reported tail percentile
REF_EVERY_S = 1.0          # op seconds per yardstick pass

_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import volexec.cli\n"
    "t = time.perf_counter()\n"
    "if not volexec.__file__.startswith(sys.argv[1]): sys.exit('volexec is not from ' + sys.argv[1])\n"
    "print(repr(t))\n"
)


def measure_setup(ys) -> tuple:
    """Seconds from process start until `volexec.cli` is imported, per probe,
    and the yardstick passes around the probes (one before each, one after
    the last).

    perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and child.
    """
    times, refs = [], [ys()]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        p = subprocess.run([sys.executable, "-c", _PROBE, str(SRC)],
                           capture_output=True, text=True, timeout=60)
        if p.returncode != 0:
            raise SystemExit(f"cannot import volexec from {SRC}: {p.stderr.strip()}")
        times.append(float(p.stdout) - t0)
        refs.append(ys())
    return times, refs


def metric_units() -> dict:
    """name -> unit of every metric BENCHMARK.json names, end to end and per layer."""
    bench = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def import_program():
    sys.path.insert(0, str(SRC))
    try:
        import volexec.cli
    except ImportError as e:
        raise SystemExit(f"cannot import volexec from {SRC}: {e}")
    if not str(Path(volexec.__file__).resolve()).startswith(str(SRC)):
        raise SystemExit(f"volexec was imported from {volexec.__file__}, not {SRC}")
    return volexec.cli


def _blas_threads():
    """Thread count OpenBLAS reports, read through its own entry point."""
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": NPROC,
        "cpu_model": cpu,
        "platform": platform.platform(),
        "workload_seed": seed,
    }


class Runner:
    """Runs ops of one workload and keeps their outcomes."""

    def __init__(self, cli, workload: str, seed: int, smoke: bool, scratch: Path):
        self.cli, self.workload, self.seed, self.smoke = cli, workload, seed, smoke
        self.scratch = scratch
        self.records = []

    def config(self, i: int, smoke=None):
        smoke = self.smoke if smoke is None else smoke
        command, doc = workloads.op_config(self.workload, self.seed, i, smoke)
        path = self.scratch / f"op{i}{'-smoke' if smoke else ''}.json"
        path.write_text(workloads.dumps(doc))
        return command, doc, path

    def run(self, i: int, command: str, doc: dict, path: Path, tag: str, patch=None):
        """One op: time main(), then check its outputs outside the timing."""
        out_dir = self.scratch / f"op{i}-{tag}"
        out_dir.mkdir()
        argv = [command, "--config", str(path), "--out", str(out_dir)]
        stdout, stderr = io.StringIO(), io.StringIO()
        rc, error = None, None
        with patch if patch is not None else contextlib.nullcontext():
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    rc = self.cli.main(argv)
            except SystemExit as e:
                rc = e.code
            except Exception as e:  # an escaped exception is a failed op, not a crash
                error = e
            dt, cpu = time.perf_counter() - t0, time.process_time() - c0
        chk = checks.check_op(command, doc, rc, stdout.getvalue(), error, out_dir)
        shutil.rmtree(out_dir)
        rec = {"op": i, "tag": tag, "command": command, "seconds": dt, "cpu_s": cpu, "rc": rc,
               "failures": chk.failures, "shortfalls": chk.shortfalls,
               "stat_checks": chk.stat_checks, "stat_failed": chk.stat_failed}
        self.records.append(rec)
        return rec


def tail(times: list):
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples beyond it, but never below p75, so a run of few
    ops reports its upper quartile rather than a point under the median or
    its single slowest op."""
    xs = sorted(times)
    n = len(xs)
    beyond = min(TAIL_BEYOND, n // 4)
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def scaled(t: float, before: float, after: float) -> float:
    """A time at reference speed, from the yardstick passes on either side of it."""
    return t * yardstick.NOMINAL_S * 2 / (before + after)


def cpu_steal_s() -> float:
    """Seconds this machine's CPUs waited on the hypervisor since boot."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def run_workload(args) -> int:
    wall0 = time.perf_counter()
    units = metric_units()
    steal0 = cpu_steal_s()
    ys = yardstick.Yardstick()
    setup_times, setup_refs = measure_setup(ys)
    setup_scaled = [scaled(t, *setup_refs[k:k + 2]) for k, t in enumerate(setup_times)]
    cli = import_program()
    scratch = RESULTS / "tmp" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        runner = Runner(cli, args.workload, args.seed, args.smoke, scratch)
        tracer = spans.Tracer() if args.trace else None

        # warm-up at smoke size: lazy imports happen before timing starts
        command, doc, path = runner.config(0, smoke=True)
        runner.run(0, command, doc, path, "warmup")
        runner.records.clear()

        loop_s, i = 0.0, 0
        alloc_mb = 0.0
        if tracer is not None:
            # tracemalloc slows allocation several-fold, so it gets an op of
            # its own, counted in the run's measured seconds
            probe = spans.AllocProbe("montecarlo")
            command, doc, path = runner.config(0)
            loop_s += runner.run(0, command, doc, path, "tracemalloc",
                                 spans.Patcher(probe.wrapper))["seconds"]
            runner.records.pop()
            alloc_mb = probe.peak_bytes / 2**20

        # Whole units (one op, or one solve-sweep cycle), stopping where the
        # run ends nearest to --seconds if the next unit lasts as the last did;
        # whole cycles keep the op mix the same in every run.
        absent = []
        cycle = workloads.CYCLE.get(args.workload, 1)
        unit_start = loop_s
        # yardstick blocks as (index of the next plain op, pass seconds); a
        # block has one pass per REF_EVERY_S of plain op time since the last
        refs, plain_s, ref_at = [], 0.0, 0.0
        while time.perf_counter() - wall0 < WALL_LIMIT_S:
            if i and i % cycle == 0:
                unit_s, unit_start = loop_s - unit_start, loop_s
                if loop_s + unit_s / 2 > args.seconds:
                    break
            due = int((plain_s - ref_at) // REF_EVERY_S)
            if due or not refs:
                refs.append((i, [ys() for _ in range(max(due, 1))]))
                ref_at = plain_s
            command, doc, path = runner.config(i)
            dt = runner.run(i, command, doc, path, "plain")["seconds"]
            loop_s += dt
            plain_s += dt
            if tracer is not None:
                tracer.op = i
                patch = spans.Patcher(tracer.wrapper)
                loop_s += runner.run(i, command, doc, path, "traced", patch)["seconds"]
                tracer.op = None
                absent = patch.absent
            i += 1
        due = int((plain_s - ref_at) // REF_EVERY_S)
        refs.append((i, [ys() for _ in range(max(due, 1))]))
        usage = resource.getrusage(resource.RUSAGE_SELF)
        peak_rss_mb = usage.ru_maxrss / 1024.0
        more_times, more_refs = measure_setup(ys)
        setup_scaled += [scaled(t, *more_refs[k:k + 2]) for k, t in enumerate(more_times)]
        setup_times += more_times
        setup_refs += more_refs
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    recs = runner.records
    plain = [r for r in recs if r["tag"] == "plain"]
    traced = [r for r in recs if r["tag"] == "traced"]
    attempted = len(recs)
    failed = sum(bool(r["failures"]) for r in recs)
    short = sum(bool(r["shortfalls"]) and not r["failures"] for r in recs)
    times = [r["seconds"] for r in plain]
    p50 = statistics.median(times)
    ok = sum(not r["failures"] for r in plain)
    raw = {
        "setup_s": statistics.median(setup_times),
        "op_s_p50": p50,
        "op_s_tail": tail(times)[0],
        "ops_per_s": ok / sum(times),
    }
    # plain op k lies between the last block taken before it and the next one
    blocks = [(pos, statistics.mean(passes)) for pos, passes in refs]
    times = [scaled(t, [r for pos, r in blocks if pos <= k][-1],
                    next(r for pos, r in blocks if pos > k)) for k, t in enumerate(times)]
    tail_s, tail_pct, tail_beyond = tail(times)
    summary = {
        "setup_s": statistics.median(setup_scaled),
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_s,
        "ops_per_s": ok / sum(times),
        "peak_rss_mb": peak_rss_mb,
        "fail_ratio": (failed + short) / attempted,
    }
    stat_checks = sum(r["stat_checks"] for r in recs)
    stat_failed = collections.Counter(name for r in recs for name in r["stat_failed"])
    result = {
        "workload": args.workload,
        "why": inspect.getdoc(workloads.WORKLOADS[args.workload]),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(args.seed),
        "wall_s": time.perf_counter() - wall0,
        "cpu_steal_s": cpu_steal_s() - steal0,
        "rusage": {"user_s": usage.ru_utime, "sys_s": usage.ru_stime,
                   "minor_faults": usage.ru_minflt},
        "summary": summary,
        "unscaled": raw,
        "yardstick_s": {"setup": setup_refs, "ops": [passes for _, passes in refs]},
        "tail": {"percentile": tail_pct, "samples": len(times), "samples_beyond": tail_beyond},
        "setup_probes_s": setup_times,
        "attempted": attempted,
        "failed": failed,
        "solver_shortfalls": short,
        "stat_checks": {"attempted": stat_checks, "failed": sum(stat_failed.values()),
                        "failed_by_name": dict(stat_failed)},
        "ops": recs,
    }
    if tracer is not None:
        layer = spans.layer_metrics(tracer.spans, len(traced))
        layer["montecarlo.peak_alloc_mb"] = alloc_mb
        n = max(len(traced), 1)
        validated = [r for r in traced if r["command"] == "validate"]
        layer["validation.stat_check_fails"] = sum(len(r["stat_failed"]) for r in validated) / n
        layer["validation.stat_checks"] = sum(r["stat_checks"] for r in validated) / n
        layer["trace.overhead_s"] = statistics.median(r["seconds"] for r in traced) - p50
        result["per_layer"] = layer
        result["absent_spans"] = absent
        tracer.write(RESULTS / f"spans-{args.workload}.jsonl")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in summary.items() if k in units}
    tag = "smoke-" if args.smoke else ""
    (RESULTS / f"{tag}{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")

    print(f"{args.workload}: {len(plain)} ops timed in {sum(times):.1f} s, "
          f"{failed}/{attempted} failed, {short} fell short of the solver tolerance, "
          f"stat checks {sum(stat_failed.values())}/{stat_checks} failed")
    for k, v in summary.items():
        unit = units.get(k, "ratio")
        extra = f" (p{tail_pct:.1f} of {len(times)} samples)" if k == "op_s_tail" else ""
        if k in raw:
            extra += f", unscaled {raw[k]:.6g}"
        print(f"  {k} = {v:.6g} {unit}{extra}")
    for kind in ("failures", "shortfalls"):
        for reason in sorted({f for r in recs for f in r[kind]})[:8]:
            print(f"  {kind[:-1]}: {reason}")
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table with units."""
    rows, status = [], 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        p = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(p.stdout)
        sys.stderr.write(p.stderr)
        if p.returncode != 0:
            status = 1
            continue
        rows.append((name, json.loads(p.stdout.splitlines()[-1])))
    for name, res in rows:
        saved = json.loads((RESULTS / f"{'smoke-' if args.smoke else ''}{name}-seed{args.seed}"
                                       f"-trace{args.trace}.json").read_text())
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} fail_ratio={saved['summary']['fail_ratio']:.4g} ratio")
        for k, m in res["metrics"].items():
            print(f"  {k:32s} {m['value']:.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="volexec closed-loop benchmark")
    p.add_argument("--workload", choices=tuple(workloads.WORKLOADS))
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED, help="workload seed")
    p.add_argument("--seconds", type=float, default=35.0, help="timed op seconds per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = p.parse_args(argv)
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload and --all")
    RESULTS.mkdir(exist_ok=True)
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
