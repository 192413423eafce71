#!/usr/bin/env python3
"""Closed-loop benchmark of the surfcert library in this checkout.

    python3 perfbench/run.py --workload profile --seed 1 --seconds 30 --trace 0

One client sends one operation at a time to the library in this process and
sends the next when it returns, for ``--seconds`` of measured time and at
least one whole repetition of the workload's mix of operations. Between
operations the run times a fixed reference kernel (see reference.py), and
reports operation times in units of its median duration. Inputs come from
``--seed``. Every output is checked (see workloads.py); a raised error or a
failed check counts the operation as failed.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans recorded around the library's layers (see layers.py). The
last line of standard output is the JSON result; the line before it and a
file under ``.perfbench_out/`` hold details: machine, input properties, the
latency tail, failures and, for traced runs, every span.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPS = 5
# share of the measured time spent in the reference kernel, spread between the
# operations so that it sees the same machine speed they do
REF_SHARE = 0.15
REF_WARMUP = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

def load_library():
    """Import surfcert from this checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "surfcert", "__init__.py")):
        raise SystemExit(f"error: no surfcert package under {src}")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (counted in the import time)
    import surfcert
    from surfcert import (
        catalog, certificates, cli, curves, errors, fileio, geometry, intersect,
        monotonicity, surfaces,
    )

    import_s = time.perf_counter() - t0
    if not os.path.abspath(surfcert.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported surfcert from {surfcert.__file__}, not {src}")
    lib = types.SimpleNamespace(
        catalog=catalog, certificates=certificates, cli=cli, curves=curves, errors=errors,
        fileio=fileio, geometry=geometry, intersect=intersect, monotonicity=monotonicity,
        surfaces=surfaces,
    )
    return lib, import_s


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None if unknown."""
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            dll = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            func = getattr(dll, sym, None)
            if func is not None:
                func.restype, func.argtypes = ctypes.c_int, []
                return int(func())
    return None


def machine_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


def latency_tail(latencies: list):
    """Highest listed percentile with at least ten operations beyond it."""
    import numpy

    n = len(latencies)
    for q in TAIL_PERCENTILES:
        if n * (1.0 - q / 100.0) >= 10:
            return {"percentile": q, "value_s": float(numpy.percentile(latencies, q)), "samples": n}
    return {"percentile": None, "value_s": None, "samples": n}


def closed_loop(lib, setup, seconds: float, rec=None) -> dict:
    """Send operations one at a time until ``seconds`` of operation and
    reference time pass and the mix has run through at least once."""
    from reference import kernel
    from workloads import check_op, run_op

    latencies, failures, ops_run, ref_times = [], [], [], []
    busy = ref_busy = 0.0
    for _ in range(REF_WARMUP):
        kernel()
    i = 0
    while busy + ref_busy < seconds or i < setup.cycle:
        op = setup.ops[i % len(setup.ops)]
        hook0 = 0.0
        if rec is not None:
            rec.op, hook0 = i, rec.hook_s
        err = None
        t0 = time.perf_counter()
        try:
            out = run_op(lib, setup, op)
        except Exception as e:  # a raising operation is a failed one; keep going
            err = f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        if rec is not None:
            dt -= rec.hook_s - hook0
            rec.op = None
        if err is None:
            try:
                check_op(lib, setup, op, out)
            except Exception as e:  # a check that cannot run counts as failed too
                err = f"{type(e).__name__}: {e}"
        busy += dt
        while ref_busy < REF_SHARE * (busy + ref_busy):
            ref_times.append(kernel())
            ref_busy += ref_times[-1]
        latencies.append(dt)
        ops_run.append(op)
        if err is not None:
            failures.append({"op": i, "kind": op.kind, "scene": op.scene, "error": err})
        i += 1
    return {
        "latencies": latencies, "failures": failures, "ops_run": ops_run, "ref_times": ref_times,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("profile", "density", "embed"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    lib, import_s = load_library()
    import layers  # after the timed library import, since these import numpy
    import workloads

    rec = None
    work_root = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        if args.trace:
            rec = layers.Recorder(lib)
            rec.install()
            rec.op = "setup"
        setup_times = []
        for rep in range(SETUP_REPS):
            # every set-up starts cold, as in a fresh process
            getattr(lib.catalog, "_CACHE", {}).clear()
            t0 = time.perf_counter()
            setup = workloads.BUILDERS[args.workload](
                lib, workloads.workload_rng(args.workload, args.seed),
                os.path.join(work_root, f"setup{rep}"),
            )
            setup_times.append(time.perf_counter() - t0)
        if rec is not None:
            rec.op = None
        loop = closed_loop(lib, setup, args.seconds, rec)
    finally:
        if rec is not None:
            rec.uninstall()
        shutil.rmtree(work_root, ignore_errors=True)

    lat = loop["latencies"]
    attempted, failed = len(lat), len(loop["failures"])
    ref_s = statistics.median(loop["ref_times"])
    whole = workloads.whole_cycles(lat, setup.cycle)
    passed = len(whole) - sum(1 for f in loop["failures"] if f["op"] < len(whole))
    inputs = workloads.input_properties(setup, loop["ops_run"])
    if args.trace:
        metrics = layers.per_layer_metrics(
            rec, list(range(attempted)), lat, SETUP_REPS, setup.cycle
        )
        metrics.update({f"inputs.{k}": v for k, v in inputs.items()})
        units = {k: layers.metric_unit(k) for k in metrics}
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "ops_per_ref": passed / sum(whole) * ref_s,
            "op_p50_ref": statistics.median(whole) / ref_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "ops_per_ref": "1/ref", "op_p50_ref": "ref", "peak_rss_mb": "MB"}

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    detail = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client",
        "machine": machine_info(),
        "import_s": import_s,
        "setup_reps_s": setup_times,
        "ref_s": ref_s,
        "ref_runs": len(loop["ref_times"]),
        "ops_per_s": passed / sum(whole),
        "op_p50_s": statistics.median(whole),
        "op_tail": latency_tail(lat),
        "inputs": inputs,
        "failures": loop["failures"][:20],
        "latencies_s": lat,
        "ref_times_s": loop["ref_times"],
    }
    if rec is not None:
        detail["trace_missing_bindings"] = rec.missing
        detail["trace_bindings"] = rec.installed
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(detail, fh, indent=1)
    if rec is not None:
        rec.dump(stem + "-spans.json")
    brief = {k: v for k, v in detail.items() if k not in ("latencies_s", "ref_times_s")}
    print("detail: " + json.dumps(brief))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
