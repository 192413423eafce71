"""Tests of the benchmark itself: tracer, input generation and output checks.

Run with ``python -m pytest perfbench/tests``. Resolutions are lowered so the
whole file takes seconds; the workloads' operation code paths are unchanged.
"""
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return run.load_library()[0]


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "DENSITY_RES", 32)
    monkeypatch.setattr(workloads, "EMBED_LARGE_RES", 16)
    monkeypatch.setattr(workloads, "EMBED_SMALL_RES", 8)
    monkeypatch.setattr(workloads, "EMBED_FILES", 8)
    monkeypatch.setattr(
        workloads,
        "EMBED_CYCLE",
        tuple((n, 16 if n != "crossing" else 6, ext) for n, _r, ext in workloads.EMBED_CYCLE),
    )


def _setup(lib, workload, seed, workdir):
    return workloads.BUILDERS[workload](lib, workloads.workload_rng(workload, seed), str(workdir))


def _plan_fingerprint(setup) -> str:
    rows = []
    for op in setup.ops:
        args = {}
        for k, v in op.args.items():
            if k == "mesh":
                with open(v) as fh:
                    v = fh.read()
            elif k == "out":
                v = os.path.basename(v)
            args[k] = np.asarray(v).tolist() if isinstance(v, np.ndarray) else v
        rows.append([op.kind, op.scene, args])
    return json.dumps(rows, sort_keys=True, default=str)


@pytest.mark.parametrize("workload", ["profile", "density", "embed"])
def test_seed_fixes_inputs(lib, small, tmp_path, workload):
    a = _plan_fingerprint(_setup(lib, workload, 7, tmp_path / "a"))
    b = _plan_fingerprint(_setup(lib, workload, 7, tmp_path / "b"))
    c = _plan_fingerprint(_setup(lib, workload, 8, tmp_path / "c"))
    assert a == b
    assert a != c


def test_mix_of_kinds_does_not_depend_on_seed(lib, small, tmp_path):
    kinds = [
        [op.kind for op in _setup(lib, "density", seed, tmp_path / str(seed)).ops]
        for seed in (1, 2)
    ]
    assert kinds[0] == kinds[1]


def test_wrapping_reaches_every_binding_and_is_undone(lib):
    before = tracer.bindings_snapshot()
    clip = lib.geometry.clip_areas_total
    diameter = lib.surfaces.extrinsic_diameter
    rec = layers.Recorder(lib)
    rec.install()
    try:
        assert rec.missing == []
        assert {
            "surfcert.geometry.clip_areas_total",
            "surfcert.monotonicity.clip_areas_total",
            "surfcert.surfaces.clip_areas_total",
            "surfcert.certificates.clip_areas_total",
        } <= set(rec.installed["geometry.clip"])
        assert {
            "surfcert.monotonicity.extrinsic_diameter",
            "surfcert.certificates.extrinsic_diameter",
            "surfcert.cli.extrinsic_diameter",
        } <= set(rec.installed["surfaces.diameter"])
        assert lib.monotonicity.clip_areas_total is not clip
        assert lib.cli.extrinsic_diameter is not diameter
        assert tracer.bindings_snapshot() != before
    finally:
        rec.uninstall()
    assert tracer.bindings_snapshot() == before
    assert lib.monotonicity.clip_areas_total is clip


def test_self_time_subtracts_children():
    t = tracer.Tracer()
    # the second inner span spent 0.5 s in a hook, which counts nowhere
    t.spans += [
        ["outer", 0.0, 10.0, -1, 0, 0.5],
        ["inner", 2.0, 5.0, 0, 0, 0.0],
        ["inner", 6.0, 7.0, 0, 0, 0.5],
    ]
    rows = t.self_times(ops={0})
    assert rows["outer"] == [1, 9.5, 6.0]
    assert rows["inner"] == [2, 3.5, 3.5]
    assert t.covered_time(0) == 9.5


def _first_of_each_kind(setup):
    seen, ops = set(), []
    for op in setup.ops:
        if op.kind not in seen:
            seen.add(op.kind)
            ops.append(op)
    return ops


@pytest.mark.parametrize("workload", ["profile", "density", "embed"])
def test_traced_and_untraced_outputs_match(lib, small, tmp_path, workload):
    setup = _setup(lib, workload, 3, tmp_path)
    ops = _first_of_each_kind(setup)
    if workload == "embed":
        # an embedded mesh and crossing sheets
        ops = [next(op for op in setup.ops if op.args["crossing"] is c) for c in (False, True)]
    plain = [workloads.run_op(lib, setup, op) for op in ops]
    rec = layers.Recorder(lib)
    rec.install()
    try:
        for i, op in enumerate(ops):
            rec.op = i
            traced = workloads.run_op(lib, setup, op)
            assert json.dumps(traced, sort_keys=True) == json.dumps(plain[i], sort_keys=True)
            workloads.check_op(lib, setup, op, traced)
    finally:
        rec.uninstall()
    metrics = layers.per_layer_metrics(rec, list(range(len(ops))), [1.0] * len(ops), 1, 1)
    if workload == "embed":
        assert metrics["intersect.sweep.calls"] > 0 and metrics["geometry.clip.calls"] == 0
    else:
        assert metrics["geometry.clip.calls"] > 0 and metrics["intersect.sweep.calls"] == 0


def test_flipped_intersection_verdict_counts_as_failed(lib, small, tmp_path, monkeypatch):
    setup = _setup(lib, "embed", 5, tmp_path)
    op = setup.ops[0]
    out = workloads.run_op(lib, setup, op)
    workloads.check_op(lib, setup, op, out)
    real_run_op = workloads.run_op

    def flipped(lib_, setup_, op_):
        res = real_run_op(lib_, setup_, op_)
        c = res["report"]["payload"]["conclusion"]
        c["intersection_free"] = not c["intersection_free"]
        return res

    monkeypatch.setattr(workloads, "run_op", flipped)
    loop = run.closed_loop(lib, setup, 1e-9)
    assert len(loop["latencies"]) == setup.cycle  # one whole repetition of the mix
    assert loop["ref_times"] and min(loop["ref_times"]) > 0.0
    assert len(loop["failures"]) == setup.cycle
    assert all("intersection_free" in f["error"] for f in loop["failures"])


def test_wrong_flat_disk_profile_fails_its_check(lib, small, tmp_path):
    setup = _setup(lib, "profile", 2, tmp_path)
    op = next(op for op in setup.ops if op.scene == "flat_disk")
    out = {"radii": [0.5, 1.0], "m": [math.pi, math.pi * (1 + 1e-3)], "surface_density": 1.0}
    with pytest.raises(workloads.CheckFailed):
        workloads.check_op(lib, setup, op, out)
    out["m"][1] = math.pi
    workloads.check_op(lib, setup, op, out)


def test_per_layer_names_match_benchmark_json(lib):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    rec = layers.Recorder(lib)
    names = set(layers.per_layer_metrics(rec, [], [], 1, 1))
    names |= {f"inputs.{k}" for k in ("queries_per_surface", "faces_per_op", "crossing_share")}
    assert {m["name"] for m in spec["per_layer"]} == names
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "embed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
