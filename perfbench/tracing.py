"""Outside-in tracing of the fde layers.

A ``Tracer`` replaces each traced function with a wrapper at the place it
is looked up (a module global such as ``fde.evolution.newton_step`` or a
class attribute such as ``fde.profile.Profile.eval_g_log``), records one span
per call and restores the originals on exit.  Nothing in ``src/`` changes.

Spans are kept in memory as ``[name, parent, start_ns, end_ns, info, op]``
and written out once, when the run ends.  ``info`` holds what a layer's
counters need from the call (grid size and Newton iterations, points
evaluated, nfev), taken from the arguments or the return value.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict

import numpy as np


def _kernel_info(args, result):
    _, iters, ok = result
    return (int(np.shape(args[0])[0]), int(iters), bool(ok))


# (module, attribute path, span name, info from (args, result) or None).
# A name bound in several modules is wrapped in each module that looks it up.
TARGETS = [
    ("fde.cli", "run_command", "cli.run_command", None),
    ("fde.cli", "compute_profile", "profile.compute_profile", None),
    ("fde.asymptotics", "compute_profile", "profile.compute_profile", None),
    ("fde.cli", "check_profile_invariants", "profile.check_invariants", None),
    ("fde.profile", "integrate_inner", "profile.inner", None),
    ("fde.profile", "integrate_far_field", "profile.far", None),
    ("fde.profile", "solve_ivp", "profile.solve_ivp", lambda a, r: int(r.nfev)),
    ("fde.profile", "Profile.eval_g_log", "profile.eval_g_log",
     lambda a, r: int(np.size(a[1]))),
    ("fde.evolution", "newton_step", "kernels.newton_step", _kernel_info),
    ("fde.evolution", "run", "evolution.run", lambda a, r: int(r.rejections)),
    ("fde.evolution", "BoundarySpec.values", "evolution.boundary", None),
    ("fde.evolution", "_ordering_bounds", "evolution.band", None),
    ("fde.asymptotics", "compute_K0", "asymptotics.compute_K0", None),
    ("fde.asymptotics", "expansion_residual_report", "asymptotics.residual_report", None),
    ("fde.measures", "contraction_report", "measures.report", None),
    ("fde.measures", "convergence_report", "measures.report", None),
    ("fde.measures", "WeightSpec.values", "measures.weight", None),
] + [(mod, "derive_constants", "params.derive_constants", None)
     for mod in ("fde.cli", "fde.evolution", "fde.profile", "fde.asymptotics")]

class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self.missing = []
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, time.perf_counter_ns(), 0, None, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = time.perf_counter_ns()
            if info is not None:
                rec[4] = info(args, result)
            return result

        return traced

    def __enter__(self):
        self.op += 1
        for modname, path, name, info in TARGETS:
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                if f"{modname}.{path}" not in self.missing:
                    self.missing.append(f"{modname}.{path}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, info))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False

    def write(self, path):
        with open(path, "w") as f:
            f.write("op,span,parent,name,start_ns,end_ns,info\n")
            for i, (name, parent, t0, t1, info, op) in enumerate(self.spans):
                f.write(f"{op},{i},{parent},{name},{t0},{t1},{'' if info is None else info}\n")


def layer_metrics(spans, n_ops):
    """Per-op layer metrics, as {name: (value, unit)}, from the spans of ``n_ops`` traced ops."""
    child_ns = defaultdict(int)
    for name, parent, t0, t1, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    dur = defaultdict(int)
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    layer_self = defaultdict(int)
    k = {"iters": 0, "node_iters": 0, "failed": 0, "accepted": 0}
    nfev = defaultdict(int)
    eval_points = rejections = 0
    for i, (name, parent, t0, t1, info, _) in enumerate(spans):
        d = t1 - t0
        dur[name] += d
        self_ns[name] += d - child_ns[i]
        layer_self[name.split(".")[0]] += d - child_ns[i]
        calls[name] += 1
        if name == "kernels.newton_step":
            N, iters, ok = info
            k["iters"] += iters
            k["node_iters"] += N * iters
            k["failed" if not ok else "accepted"] += 1
        elif name == "profile.solve_ivp":
            nfev[spans[parent][0] if parent >= 0 else ""] += info
        elif name == "profile.eval_g_log":
            eval_points += info
        elif name == "evolution.run":
            rejections += info

    def s(ns):
        return (ns / 1e9 / n_ops, "s/op")

    def c(count):
        return (count / n_ops, "count/op")

    return {
        "kernels.newton_step_s": s(dur["kernels.newton_step"]),
        "kernels.newton_step_calls": c(calls["kernels.newton_step"]),
        "kernels.newton_iters": c(k["iters"]),
        "kernels.failed_steps": c(k["failed"]),
        "kernels.node_iters": c(k["node_iters"]),
        "kernels.ns_per_node_iter": (dur["kernels.newton_step"] / k["node_iters"]
                                     if k["node_iters"] else 0.0, "ns"),
        "profile.eval_s": s(dur["profile.eval_g_log"]),
        "profile.eval_calls": c(calls["profile.eval_g_log"]),
        "profile.eval_points": c(eval_points),
        "profile.build_s": s(dur["profile.compute_profile"]),
        "profile.build_calls": c(calls["profile.compute_profile"]),
        "profile.inner_s": s(dur["profile.inner"]),
        "profile.far_s": s(dur["profile.far"]),
        "profile.inner_nfev": c(nfev["profile.inner"]),
        "profile.far_nfev": c(nfev["profile.far"]),
        "profile.self_s": s(layer_self["profile"]),
        "evolution.run_s": s(dur["evolution.run"]),
        "evolution.run.self_s": s(self_ns["evolution.run"]),
        "evolution.boundary_s": s(dur["evolution.boundary"]),
        "evolution.band_s": s(dur["evolution.band"]),
        "evolution.accepted_steps": c(k["accepted"]),
        "evolution.rejections": c(rejections),
        "evolution.self_s": s(layer_self["evolution"]),
        "asymptotics.compute_K0_s": s(dur["asymptotics.compute_K0"]),
        "asymptotics.residual_report_s": s(dur["asymptotics.residual_report"]),
        "asymptotics.self_s": s(layer_self["asymptotics"]),
        "measures.report_s": s(dur["measures.report"]),
        "measures.weight_s": s(dur["measures.weight"]),
        "measures.self_s": s(layer_self["measures"]),
        "cli.self_s": s(self_ns["cli.run_command"]),
        "params.derive_constants_calls": c(calls["params.derive_constants"]),
        "params.self_s": s(layer_self["params"]),
        "trace.spans_per_op": c(len(spans)),
    }


def kernel_step_ms(sizes=(501, 2001, 8001), n_steps=200, dt=1e-3):
    """Median ms per ``fde._kernels.newton_step`` call on a Barenblatt-driven physical run.

    Same problem as the per-N timing of ``benchmarks/bench_kernels.py``:
    n = 3, m = 0.2 on the annulus R = e^2, Dirichlet data from the exact
    Barenblatt solution.  Returns ({N: ms}, failed step count).
    """
    from fde import _kernels
    from fde.evolution import barenblatt_oracle, build_grid
    from fde.params import ModelParams

    p = ModelParams(n=3, m=0.2, beta=-1.0)
    out, failed = {}, 0
    for N in sizes:
        grid = build_grid(np.e ** 2, N)
        einv, ap, am = grid.coeffs(3)
        u = barenblatt_oracle(grid.r, 0.0, 1.0, 1.0, p)
        ends = np.array([grid.r[0], grid.r[-1]])
        _kernels.newton_step(u, dt, u[0], u[-1], 0.2, 10.0, einv, ap, am, 0.0, 0.0, 1e-11, 50)
        times = []
        t = 0.0
        for _ in range(n_steps):
            bc = barenblatt_oracle(ends, t + dt, 1.0, 1.0, p)
            t0 = time.perf_counter()
            u, _, ok = _kernels.newton_step(u, dt, bc[0], bc[1], 0.2, 10.0, einv, ap, am,
                                            0.0, 0.0, 1e-11, 50)
            times.append(time.perf_counter() - t0)
            failed += not ok
            t += dt
        out[N] = statistics.median(times) * 1e3
    return out, failed

