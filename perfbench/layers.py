"""Which library functions are traced as which layer, and the per-layer metrics.

Each traced function becomes a span name; hooks add counters measured where
the work happens. ``per_layer_metrics`` turns spans and counters into the
``per_layer`` metrics of BENCHMARK.json. A ``.s`` metric is self time (span
duration minus wrapped child spans) per operation, except
``intersect.sweep.s``, which is the whole sweep; its own part, everything but
the narrow phase, is ``intersect.broad.s``.
"""
from __future__ import annotations

import os
import statistics

import numpy as np

from tracer import Tracer
from workloads import whole_cycles

# (module, attribute, span name); classmethods are marked by "Class.method"
LAYERS = (
    ("geometry", "clip_areas_total", "geometry.clip"),
    ("surfaces", "extrinsic_diameter", "surfaces.diameter"),
    ("intersect", "self_intersections", "intersect.sweep"),
    ("intersect", "triangle_pair_dist2", "intersect.narrow"),
    ("surfaces", "SurfaceModel.build", "surfaces.build"),
    ("fileio", "load_mesh", "fileio.load_mesh"),
    ("fileio", "atomic_write", "fileio.report"),
    ("cli", "main", "cli.main"),
    ("catalog", "build_scene", "catalog.build_scene"),
    ("monotonicity", "m_profile", "monotonicity.m_profile"),
    ("monotonicity", "property_p_constants", "monotonicity.property_p"),
    ("curves", "build_cone", "curves.build_cone"),
    ("surfaces", "mean_curvature_field", "surfaces.curvature"),
    ("surfaces", "density_estimate", "surfaces.density"),
    ("certificates", "embeddedness_certificate", "certificates.embeddedness"),
    ("certificates", "density_estimate_certificate", "certificates.density"),
    ("certificates", "corner_density_certificate", "certificates.corner"),
    ("certificates", "delta_for_epsilon", "certificates.delta"),
)

# per operation: (metric, span name, field) with field 0 = calls, 2 = self s
SPAN_METRICS = (
    ("geometry.clip.calls", "geometry.clip", 0),
    ("geometry.clip.s", "geometry.clip", 2),
    ("surfaces.diameter.calls", "surfaces.diameter", 0),
    ("surfaces.diameter.s", "surfaces.diameter", 2),
    ("intersect.sweep.calls", "intersect.sweep", 0),
    ("intersect.sweep.s", "intersect.sweep", 1),
    ("intersect.broad.s", "intersect.sweep", 2),
    ("intersect.narrow.calls", "intersect.narrow", 0),
    ("intersect.narrow.s", "intersect.narrow", 2),
    ("surfaces.build.calls", "surfaces.build", 0),
    ("surfaces.build.s", "surfaces.build", 2),
    ("fileio.load_mesh.s", "fileio.load_mesh", 2),
    ("fileio.report.s", "fileio.report", 2),
    ("cli.main.s", "cli.main", 2),
    ("monotonicity.m_profile.calls", "monotonicity.m_profile", 0),
    ("monotonicity.m_profile.s", "monotonicity.m_profile", 2),
    ("monotonicity.property_p.calls", "monotonicity.property_p", 0),
    ("monotonicity.property_p.s", "monotonicity.property_p", 2),
    ("curves.build_cone.calls", "curves.build_cone", 0),
    ("curves.build_cone.s", "curves.build_cone", 2),
    ("surfaces.curvature.s", "surfaces.curvature", 2),
    ("surfaces.density.calls", "surfaces.density", 0),
    ("surfaces.density.s", "surfaces.density", 2),
    ("certificates.embeddedness.s", "certificates.embeddedness", 2),
    ("certificates.density.s", "certificates.density", 2),
    ("certificates.corner.s", "certificates.corner", 2),
    ("certificates.delta.calls", "certificates.delta", 0),
    ("certificates.delta.s", "certificates.delta", 2),
)

# per operation: sums of counters the hooks keep
COUNTER_METRICS = (
    "geometry.clip.faces",
    "geometry.clip.straddling_faces",
    "surfaces.diameter.vertices",
    "intersect.narrow.pairs",
    "intersect.candidates",
    "intersect.hits",
    "fileio.load_mesh.bytes",
    "fileio.report.bytes",
    "monotonicity.radii",
    "surfaces.density.extrapolated_calls",
)


class Recorder(Tracer):
    """Tracer with the benchmark's hooks installed on the library's layers."""

    def __init__(self, lib):
        super().__init__()
        self.lib = lib
        self.missing: list = []
        self.centers: dict = {}  # clip centre -> set of radii
        self.surfaces: dict = {}  # id -> surface passed to the diameter (kept alive)
        self.installed: dict = {}

    def install(self) -> None:
        hooks = {
            "geometry.clip": (self._clip_before, None),
            "surfaces.diameter": (self._diameter_before, None),
            "intersect.sweep": (None, self._sweep_after),
            "intersect.narrow": (self._narrow_before, None),
            "fileio.load_mesh": (self._load_before, None),
            "fileio.report": (self._report_before, None),
            "monotonicity.m_profile": (None, self._profile_after),
            "surfaces.density": (None, self._density_after),
        }
        for module, attr, name in LAYERS:
            before, after = hooks.get(name, (None, None))
            mod = getattr(self.lib, module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or meth not in vars(cls):
                    self.missing.append(f"{module}.{attr}")
                    continue
                self.installed[name] = self.wrap_classmethod(cls, meth, name, before, after)
                continue
            func = getattr(mod, attr, None)
            if func is None:
                self.missing.append(f"{module}.{attr}")
                continue
            self.installed[name] = self.wrap_function(func, name, before, after)

    # hooks: counters are only kept for operations, not for set-up

    def _clip_before(self, args, kwargs):
        verts = np.asarray(args[0])
        ball = args[1] if len(args) > 1 else kwargs["ball"]
        if self.op == "setup" or verts.ndim != 3 or verts.shape[0] == 0:
            return
        c, r = np.asarray(ball.center, dtype=float), float(ball.radius)
        self.counters["geometry.clip.faces"] += verts.shape[0]
        # a face crosses the sphere when it comes within r but does not fit inside
        near = self.lib.geometry.point_triangle_dist2(verts, c) <= r * r
        far = (((verts - c) ** 2).sum(-1) > r * r).any(axis=1)
        self.counters["geometry.clip.straddling_faces"] += int((near & far).sum())
        self.centers.setdefault(tuple(c.tolist()), set()).add(r)

    def _diameter_before(self, args, kwargs):
        if self.op == "setup":
            return
        s = args[0]
        self.surfaces[id(s)] = s
        self.counters["surfaces.diameter.vertices"] += s.vertices.shape[0]

    def _sweep_after(self, _state, report, args, kwargs):
        if self.op == "setup":
            return
        self.counters["intersect.candidates"] += report.candidates
        self.counters["intersect.hits"] += report.count

    def _narrow_before(self, args, kwargs):
        if self.op != "setup":
            self.counters["intersect.narrow.pairs"] += np.asarray(args[0]).shape[0]

    def _load_before(self, args, kwargs):
        if self.op != "setup":
            self.counters["fileio.load_mesh.bytes"] += os.path.getsize(args[0])

    def _report_before(self, args, kwargs):
        if self.op != "setup":
            self.counters["fileio.report.bytes"] += len(args[1].encode())

    def _profile_after(self, _state, prof, args, kwargs):
        if self.op != "setup":
            self.counters["monotonicity.radii"] += len(prof.radii)

    def _density_after(self, _state, est, args, kwargs):
        if self.op != "setup" and est.mode == "extrapolated":
            self.counters["surfaces.density.extrapolated_calls"] += 1


def per_layer_metrics(rec: Recorder, ops: list, latencies: list, setup_reps: int, cycle: int) -> dict:
    """Per-layer metrics from a traced run; ``ops`` are the operation ids run."""
    n = max(len(ops), 1)
    rows = rec.self_times(ops=set(ops))
    out = {}
    for metric, span, fld in SPAN_METRICS:
        out[metric] = rows.get(span, [0, 0.0, 0.0])[fld] / n
    for metric in COUNTER_METRICS:
        out[metric] = rec.counters.get(metric, 0.0) / n
    clip_faces = rec.counters.get("geometry.clip.faces", 0.0)
    out["geometry.clip.straddling_share"] = (
        rec.counters.get("geometry.clip.straddling_faces", 0.0) / clip_faces if clip_faces else 0.0
    )
    out["geometry.clip.radii_per_center"] = (
        sum(len(r) for r in rec.centers.values()) / len(rec.centers) if rec.centers else 0.0
    )
    diam_calls = rows.get("surfaces.diameter", [0])[0]
    out["surfaces.diameter.calls_per_surface"] = (
        diam_calls / len(rec.surfaces) if rec.surfaces else 0.0
    )
    cands = rec.counters.get("intersect.candidates", 0.0)
    out["intersect.hit_share"] = rec.counters.get("intersect.hits", 0.0) / cands if cands else 0.0
    build = rec.self_times(ops={"setup"}).get("catalog.build_scene", [0, 0.0, 0.0])
    out["catalog.build_scene.calls"] = build[0] / setup_reps
    out["catalog.build_scene.s"] = build[2] / setup_reps
    covered = [rec.covered_time(op) for op in ops]
    unattributed = [max(lat - cov, 0.0) for lat, cov in zip(latencies, covered)]
    out["trace.ops"] = len(ops)
    whole = whole_cycles(latencies, cycle)
    out["trace.op_p50_s"] = statistics.median(whole) if whole else 0.0
    out["trace.unattributed.s"] = sum(unattributed) / n
    out["trace.unattributed_share"] = sum(unattributed) / sum(latencies) if latencies else 0.0
    out["trace.hook_s"] = rec.hook_s / n
    out["trace.spans"] = sum(1 for row in rec.spans if row[4] != "setup") / n
    return out


def metric_unit(name: str) -> str:
    tail = name.rsplit(".", 1)[-1]
    if tail in ("s", "op_p50_s", "hook_s"):
        return "s"
    if tail == "bytes":
        return "bytes"
    if "share" in tail:
        return "ratio"
    return "count"
