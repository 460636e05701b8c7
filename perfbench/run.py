"""fde benchmark: end-to-end timings of `fde` subcommands and per-layer traces.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload contract --seed 1 --seconds 30 --trace 0

The process is one client in a closed loop: it calls
``fde.cli.run_command(argv)`` in-process, checks the outputs, and only then
starts the next op.  It starts no threads; the only child processes are the
fresh interpreters that time the import of ``fde.cli`` for ``setup_s``.
Whole cycles of the workload (see ``workloads.py``) run for about
``--seconds``: another cycle starts only if it should end nearer to that
mark than stopping does.  At least one cycle always runs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every unit
of the cycle twice, untraced and traced (alternating which goes first),
prints the per-layer metrics from the spans (see ``tracing.py``) with the
tracing overhead, and times ``fde._kernels.newton_step`` alone at three grid
sizes.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the run
(environment, every op with its argv, timing and check result) is written
to ``.bench_out/`` in the checkout, with the spans of a traced run.

The fde sources are imported from ``src/`` of the checkout; without them the
command exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3


def fresh_import_s(repeats=SETUP_REPEATS):
    """Median wall time of ``import fde.cli`` in a fresh interpreter.

    The benchmark process has imported ``fde.cli`` already, so each fresh
    interpreter finds the bytecode cache written, as a user's second run does.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import fde.cli"]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def environment():
    """What ran: library versions, cores, commit, kernel backend and source size."""
    import numpy
    import scipy

    from fde import _kernels

    digest = hashlib.sha256()
    lines = 0
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                with open(os.path.join(dirpath, fn), "rb") as f:
                    data = f.read()
                digest.update(data)
                lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "using_numba": getattr(_kernels, "USING_NUMBA", None),
        "src_lines": lines,
    }


def _bytes_under(path):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs)


def run_op(argv, outdir, tracer=None):
    """One timed ``run_command`` call; returns its record."""
    from fde import cli

    shutil.rmtree(outdir, ignore_errors=True)
    stderr = io.StringIO()
    error = None
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        with tracer if tracer is not None else contextlib.nullcontext():
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                code = cli.run_command(argv + ["--out", outdir])
            except Exception as e:  # an escaped exception is a failed op, not a crash
                code, error = None, f"{type(e).__name__}: {e}"
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
    return {"argv": argv, "code": code, "wall_s": wall, "cpu_s": cpu,
            "traced": tracer is not None, "bytes": _bytes_under(outdir),
            "stderr": error or stderr.getvalue().strip()[-300:]}


def run_unit(workload, unit, outdirs, tracer=None):
    recs = [run_op(argv, d, tracer) for argv, d in zip(unit, outdirs)]
    try:
        reasons = workload.check(unit, [(r["code"], d) for r, d in zip(recs, outdirs)])
    except (OSError, ValueError, KeyError, TypeError) as e:
        reasons = [f"unreadable output: {type(e).__name__}: {e}"] * len(recs)
    for rec, reason in zip(recs, reasons):
        rec["ok"] = reason is None
        rec["reason"] = reason
    return recs


def measure(workload, seed, seconds, trace, cycle=None):
    """Run whole cycles for about ``seconds``; returns (op records, tracer or None, loop s)."""
    from tracing import Tracer

    units = cycle if cycle is not None else workload.cycle(seed)
    width = max(len(u) for u in units)
    outdirs = [os.path.join(OUT, workload.name, f"op{j}") for j in range(width)]
    tracer = Tracer() if trace else None
    records = []
    start = time.perf_counter()
    n_units = 0
    while True:
        c0 = time.perf_counter()
        for unit in units:
            if not trace:
                records += run_unit(workload, unit, outdirs)
            else:
                for traced in ((False, True) if n_units % 2 == 0 else (True, False)):
                    records += run_unit(workload, unit, outdirs, tracer if traced else None)
            n_units += 1
        now = time.perf_counter()
        # another cycle only if it should end nearer to `seconds` than stopping now
        if now - start + (now - c0) / 2 >= seconds:
            break
    return records, tracer, time.perf_counter() - start


def warm_up(workload):
    """Untimed calls of small configs of the same subcommands: lazy imports, first-call costs."""
    from fde import cli

    t0 = time.perf_counter()
    outdir = os.path.join(OUT, workload.name, "warmup")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in workload.warmup:
            cli.run_command(argv + ["--out", outdir])
    return time.perf_counter() - t0


def end_to_end(records, loop_s, setup_s):
    """Metrics a user sees, as {name: (value, unit)}."""
    return {
        "op_s_p50": (statistics.median(r["wall_s"] for r in records), "s"),
        "ops_per_s": (sum(r["ok"] for r in records) / loop_s, "1/s"),
        "cpu_s_per_op": (statistics.median(r["cpu_s"] for r in records), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(records, tracer, kernel_ms):
    from tracing import layer_metrics

    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    metrics = layer_metrics(tracer.spans, len(traced))
    metrics["cli.bytes_written"] = (sum(r["bytes"] for r in traced) / len(traced), "B/op")
    for N, ms in kernel_ms.items():
        metrics[f"kernels.step_ms.N{N}"] = (ms, "ms")
    p50_traced = statistics.median(r["wall_s"] for r in traced)
    p50_plain = statistics.median(r["wall_s"] for r in plain)
    metrics["trace.op_s_p50"] = (p50_traced, "s")
    metrics["trace.untraced_op_s_p50"] = (p50_plain, "s")
    metrics["trace.overhead_s"] = (p50_traced - p50_plain, "s")
    return metrics


def run_benchmark(workload, seed, seconds, trace, cycle=None, setup_repeats=SETUP_REPEATS):
    """Everything but printing: returns (result line dict, record dict)."""
    os.makedirs(OUT, exist_ok=True)
    env = environment()
    setup_s = fresh_import_s(setup_repeats) if not trace else None
    warm_s = warm_up(workload)
    records, tracer, loop_s = measure(workload, seed, seconds, trace, cycle)
    failed = [r for r in records if not r["ok"]]
    kernel_failed = 0
    if trace:
        from tracing import kernel_step_ms

        kernel_ms, kernel_failed = kernel_step_ms()
        metrics = per_layer(records, tracer, kernel_ms)
        tracer.write(os.path.join(OUT, f"{workload.name}-seed{seed}-spans.csv"))
    else:
        metrics = end_to_end(records, loop_s, setup_s + warm_s)
    result = {
        "correct": not failed and not kernel_failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "result": result,
        "failed_frac": len(failed) / len(records),
        "failures": [{"argv": r["argv"], "reason": r["reason"], "stderr": r["stderr"]}
                     for r in failed],
        "kernel_failed_steps": kernel_failed,
        "unwrapped": tracer.missing if tracer else [],
        "fresh_import_s": setup_s, "warmup_s": warm_s, "loop_s": loop_s,
        "ops": records,
    }
    return result, record


def main(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fde", "cli.py")):
        print(f"error: no fde sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import fde
    import fde.cli  # noqa: F401  (writes the bytecode cache before setup is timed)

    if os.path.dirname(os.path.dirname(os.path.abspath(fde.__file__))) != SRC:
        print(f"error: imported fde from {fde.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    result, record = run_benchmark(workload, args.seed, args.seconds, bool(args.trace))
    with open(os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(record, f, indent=1, default=str)

    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    for fail in record["failures"]:
        print(f"failed op: {' '.join(fail['argv'])}: {fail['reason']}")
    print(f"{workload.name}: {result['attempted']} ops, {result['failed']} failed "
          f"(failed_frac {record['failed_frac']:.4g})")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
