"""Span recorder for the traced run.

The benchmark wraps the public functions of each `volexec` layer (and the
few private ones that hold a layer's hot loop) with recorders from this file;
the program itself is not changed.  Every module attribute that binds a
wrapped function is patched, so `volexec.cli.estimate_cost_moments` and
`volexec.validation.estimate_cost_moments` both record.  A target that a
later version of the program no longer has is listed as absent.

Each span is (op id, span id, parent span id, name, start, end, attrs); spans
stay in memory and are written out once, at the end of the run.  A layer's
self time is its spans' durations minus the time their child spans cover.
"""
from __future__ import annotations

import functools
import json
import math
import sys
import time
import tracemalloc
from collections import defaultdict

from checks import KKT_TOL

# (module, attribute, layer).  Span names are "<module tail>.<attribute>".
TARGETS = (
    ("volexec.volume", "path_rng", "volume"),
    ("volexec.volume", "_normal_block", "volume"),
    ("volexec.volume", "_gbm_block", "volume"),
    ("volexec.cost", "realized_is_cost_paths", "cost.kernel"),
    ("volexec.cost", "_decompose", "cost.kernel"),
    ("volexec.cost", "expected_cost", "cost.moments"),
    ("volexec.cost", "mv_deterministic", "cost.moments"),
    ("volexec.cost", "mv_gbm", "cost.moments"),
    ("volexec.cost", "mv_gbm_quadrature_check", "cost.moments"),
    ("volexec.montecarlo", "estimate_cost_moments", "montecarlo"),
    ("volexec.montecarlo", "validate_theorem_orderings", "montecarlo"),
    ("volexec.montecarlo", "simulate_joint_paths", "montecarlo"),
    ("volexec.montecarlo", "_joint_block", "montecarlo"),
    ("volexec.optimizer", "solve_qp_deterministic", "optimizer"),
    ("volexec.optimizer", "solve_sqp_gbm", "optimizer"),
    ("volexec.bvp", "optimal_inventory_ode", "bvp"),
    ("volexec.bvp", "solve_linear_bvp", "bvp"),
    ("volexec.strategies", "strategy_to_csv", "strategies"),
    ("volexec.validation", "run_validation", "validation"),
    ("volexec.cli", "main", "cli"),
)


def _span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


LAYER = {_span_name(m, a): layer for m, a, layer in TARGETS}


def _rows(result) -> dict:
    total = result[0] if isinstance(result, tuple) else result
    return {"rows": int(getattr(total, "size", 1))}


def _solve(result) -> dict:
    rep = result[1]
    bad = rep.status != "converged" or not rep.kkt_residual <= KKT_TOL
    return {"iterations": int(rep.iterations), "unconverged": bool(bad)}


def _joint_block(args, kwargs) -> dict:
    cfg, first, last = args[:3]
    negate = args[3] if len(args) > 3 else kwargs.get("negate", False)
    return {"seed": int(cfg.seed), "first": int(first), "last": int(last), "negate": bool(negate)}


# attrs read from the result, and from the arguments, of some spans
RESULT_ATTRS = {
    "cost.realized_is_cost_paths": _rows,
    "cost._decompose": _rows,
    "optimizer.solve_qp_deterministic": _solve,
    "optimizer.solve_sqp_gbm": _solve,
}
ARG_ATTRS = {"montecarlo._joint_block": _joint_block}


class Patcher:
    """Replace every `volexec` module attribute bound to a target function."""

    def __init__(self, make_wrapper):
        self._make = make_wrapper
        self._saved = []
        self.absent = []

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "volexec" or name.startswith("volexec."))]
        for module, attr, _ in TARGETS:
            fn = getattr(sys.modules.get(module), attr, None)
            if fn is None:
                self.absent.append(_span_name(module, attr))
                continue
            wrapper = self._make(_span_name(module, attr), fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._saved.append((m, key, fn))
                        setattr(m, key, wrapper)
        return self

    def __exit__(self, *exc):
        for m, key, fn in reversed(self._saved):
            setattr(m, key, fn)
        self._saved.clear()
        return False


class Tracer:
    """Records spans while `op` is set; passes calls straight through otherwise."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def wrapper(self, name, fn):
        result_attrs = RESULT_ATTRS.get(name)
        arg_attrs = ARG_ATTRS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            sid = len(spans)
            parent = stack[-1] if stack else None
            span = [self.op, sid, parent, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(sid)
            span[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                stack.pop()
            if result_attrs is not None:
                span[6] = result_attrs(result)
            elif arg_attrs is not None:
                span[6] = arg_attrs(args, kwargs)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as f:
            for op, sid, parent, name, start, end, attrs in self.spans:
                rec = {"op": op, "id": sid, "parent": parent, "name": name,
                       "start": start, "end": end}
                if attrs:
                    rec["attrs"] = attrs
                f.write(json.dumps(rec) + "\n")


class AllocProbe:
    """Peak tracemalloc allocation inside outermost spans of one layer.

    tracemalloc slows Python-level allocation several-fold, so it runs in a
    pass of its own and only inside that layer's spans.
    """

    def __init__(self, layer: str):
        self.layer = layer
        self.peak_bytes = 0
        self._depth = 0

    def wrapper(self, name, fn):
        if LAYER[name] != self.layer:
            return fn

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            self._depth += 1
            if self._depth == 1:
                tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()

        return probed


def _union_length(intervals) -> int:
    total, end = 0, -math.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_metrics(spans, n_ops: int) -> dict:
    """Per-layer metrics, as means per traced op (ratios from run totals)."""
    children = defaultdict(float)
    for op, sid, parent, name, start, end, attrs in spans:
        if parent is not None:
            children[parent] += end - start
    self_s = defaultdict(float)      # by layer
    incl_s = defaultdict(float)      # by span name, outermost same-name spans only
    calls = defaultdict(int)         # by span name
    outer_kernel_calls = outer_kernel_rows = 0
    outer_bvp_calls = 0
    outer_mc_s = 0.0
    iterations = unconverged = 0
    drawn = 0
    draws = defaultdict(list)        # (op, seed, negate) -> [(first, last)]
    for op, sid, parent, name, start, end, attrs in spans:
        layer = LAYER[name]
        dur = end - start
        self_s[layer] += dur - children[sid]
        calls[name] += 1
        parent_name = spans[parent][3] if parent is not None else None
        if parent_name != name:
            incl_s[name] += dur
        parent_layer = LAYER[parent_name] if parent_name else None
        if layer == "cost.kernel" and parent_layer != layer:
            outer_kernel_calls += 1
            outer_kernel_rows += attrs["rows"] if attrs else 0
        if layer == "bvp" and parent_layer != layer:
            outer_bvp_calls += 1
        if layer == "montecarlo" and parent_layer != layer:
            outer_mc_s += dur
        if layer == "optimizer" and attrs:
            unconverged += attrs["unconverged"]
            if name == "optimizer.solve_sqp_gbm":
                iterations += attrs["iterations"]
        if name == "montecarlo._joint_block" and attrs:
            drawn += attrs["last"] - attrs["first"]
            draws[(op, attrs["seed"], attrs["negate"])].append((attrs["first"], attrs["last"]))
    distinct = sum(_union_length(v) for v in draws.values())
    n = max(n_ops, 1)

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    return {
        "volume.rng_streams": calls["volume.path_rng"] / n,
        "volume.rng_s": self_s["volume"] / n,
        "cost.kernel_calls": outer_kernel_calls / n,
        "cost.kernel_rows": outer_kernel_rows / n,
        "cost.kernel_s": self_s["cost.kernel"] / n,
        "cost.kernel_rows_per_s": ratio(outer_kernel_rows, self_s["cost.kernel"]),
        "cost.moments_s": self_s["cost.moments"] / n,
        "montecarlo.estimate_calls": calls["montecarlo.estimate_cost_moments"] / n,
        "montecarlo.estimate_s": incl_s["montecarlo.estimate_cost_moments"] / n,
        "montecarlo.tournament_s": incl_s["montecarlo.validate_theorem_orderings"] / n,
        "montecarlo.joint_paths_s": incl_s["montecarlo.simulate_joint_paths"] / n,
        "montecarlo.paths_drawn": drawn / n,
        "montecarlo.distinct_path_ratio": ratio(distinct, drawn),
        "montecarlo.paths_per_s": ratio(drawn, outer_mc_s),
        "montecarlo.self_s": self_s["montecarlo"] / n,
        "optimizer.qp_calls": calls["optimizer.solve_qp_deterministic"] / n,
        "optimizer.qp_s": incl_s["optimizer.solve_qp_deterministic"] / n,
        "optimizer.sqp_calls": calls["optimizer.solve_sqp_gbm"] / n,
        "optimizer.sqp_s": incl_s["optimizer.solve_sqp_gbm"] / n,
        "optimizer.sqp_iterations": iterations / n,
        "optimizer.unconverged": unconverged / n,
        "bvp.calls": outer_bvp_calls / n,
        "bvp.s": self_s["bvp"] / n,
        "strategies.csv_s": incl_s["strategies.strategy_to_csv"] / n,
        "validation.self_s": self_s["validation"] / n,
        "cli.self_s": self_s["cli"] / n,
    }

