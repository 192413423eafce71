"""Seeded inputs, operations and output checks of the three workloads.

Every workload is a closed loop with one client: the next operation is sent
only when the previous one has returned. The seed draws scene parameters,
anchor points, sector angles, rigid motions and crossing placements; the
cyclic order of operation kinds is fixed, so the seed never changes the mix.

Library calls go through module attributes (``monotonicity.m_profile``, not a
name imported here) so that the tracer's replacements are the ones called.

The checks compare against values that do not come from the code under test:
the plane's area ratio pi, integer densities, sector opening angles, and
whether the generated mesh was built to cross itself.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

# Relative per-triangle tolerance the adaptive ball clipper documents
# ("area of triangle ∩ ball within tol times the triangle's area").
CLIP_REL_TOL = 1e-6
# Densities here are integers (1 on an embedded sheet, 2 at the order-2 branch
# point); a measured value must lie this close to the integer.
DENSITY_TOL = 0.05
# The corner certificate's own acceptance distance; the measured corner
# density must also sit this close to the sector's opening angle / 2pi.
CORNER_TOL = 0.05

SMOOTH_SCENES = ("flat_disk", "cap", "catenoid", "enneper", "graph_disk")
PROFILE_RES = 32
DENSITY_RES = 48
EMBED_LARGE_RES = 48
EMBED_SMALL_RES = 24
EMBED_CROSSING_LARGE_RES = 34
P_CYCLE = (4.0, 8.0, math.inf)
# Acute to right opening angles: the apex certificate's cost grows with the
# angle (about 1.3 s at 0.3 pi to 3 s at 0.5 pi, res 48), so no single corner
# takes a large share of a run.
SECTOR_ANGLES = (0.3 * math.pi, 0.4 * math.pi, 0.5 * math.pi)
# one interior point per smooth scene, then a corner and the branch point:
# interior densities are five of the seven latencies of a repetition, so the
# median falls among them rather than between two kinds
DENSITY_CYCLE = ("interior",) * len(SMOOTH_SCENES) + ("corner", "branch")
N_ANCHORS = 64  # generated per (scene, kind); operations cycle through them
EMBED_FILES = 48

WORKLOADS = ("profile", "density", "embed")


class CheckFailed(Exception):
    """An operation returned, but its output contradicts the oracle."""


@dataclass
class Op:
    kind: str
    scene: str
    args: dict = field(default_factory=dict)


@dataclass
class Setup:
    """What a workload's set-up produced: scenes or mesh files, and the plan."""

    scenes: dict
    ops: list  # cyclic plan of Op
    cycle: int  # operations per repetition of the fixed mix


def workload_rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


# ---------------------------------------------------------------------------
# anchors


def _local_edges(surface) -> np.ndarray:
    """Per vertex, the median edge length over its incident faces.

    This is the length density_estimate multiplies by 5 for its largest ball.
    """
    v, f = surface.vertices, surface.faces
    edge = np.linalg.norm(v[f] - v[np.roll(f, -1, axis=1)], axis=2)  # (F, 3)
    owner = np.repeat(f, 3, axis=0).reshape(-1)  # each face's 3 edges, per corner
    length = np.tile(edge, (1, 3)).reshape(-1)
    order = np.lexsort((length, owner))
    owner, length = owner[order], length[order]
    starts = np.searchsorted(owner, np.arange(v.shape[0]))
    ends = np.searchsorted(owner, np.arange(v.shape[0]), side="right")
    return np.array([np.median(length[a:b]) for a, b in zip(starts, ends)])


def _safe_vertices(surface) -> np.ndarray:
    """Interior vertices whose density ball stays clear of the boundary.

    density_estimate extrapolates over a ball of 5 local edge lengths and
    refuses one that reaches the boundary; off-vertex anchors come from faces
    of vertices 5.5 local edges clear, after half a boundary segment.
    """
    v = surface.vertices
    loc = 5.5 * _local_edges(surface)
    bnd = v[surface.boundary_vertex_mask]
    seg = max(
        float(np.max(np.linalg.norm(v[lp] - v[np.roll(lp, 1)], axis=1)))
        for lp in surface.boundary_loops
    )
    d_b = np.min(np.linalg.norm(v[:, None, :] - bnd[None, :, :], axis=2), axis=1)
    idx = np.nonzero(~surface.boundary_vertex_mask & (d_b - 0.5 * seg > loc))[0]
    if idx.size == 0:
        raise RuntimeError("no interior anchor candidates; raise the resolution")
    return idx


def _middle_band(surface, idx: np.ndarray) -> np.ndarray:
    """The middle fifth of the candidate vertices by distance from the centroid.

    An operation's cost depends on how far out its anchor sits; drawing
    anchors from one band keeps the seed from moving the cost of a run much.
    """
    v = surface.vertices
    d = np.linalg.norm(v[idx] - v.mean(axis=0)[None, :], axis=1)
    lo, hi = np.quantile(d, [0.4, 0.6])
    return idx[(d >= lo) & (d <= hi)]


def vertex_anchors(surface, rng, count: int, exclude=None) -> list:
    """Interior mesh vertices (density read from the exact cone angle)."""
    ok = ~surface.boundary_vertex_mask
    if exclude is not None:
        ok &= np.linalg.norm(surface.vertices - np.asarray(exclude)[None, :], axis=1) > 0
    idx = _middle_band(surface, np.nonzero(ok)[0])
    return [surface.vertices[int(i)].copy() for i in rng.choice(idx, size=count)]


def face_anchors(surface, rng, count: int) -> list:
    """Points inside faces of safe vertices touching the middle band, off every vertex."""
    idx = _safe_vertices(surface)
    safe = np.zeros(surface.n_vertices, dtype=bool)
    band = np.zeros(surface.n_vertices, dtype=bool)
    safe[idx] = True
    band[_middle_band(surface, idx)] = True
    f = surface.faces
    faces = f[safe[f].all(axis=1) & band[f].any(axis=1)]
    out = []
    for fi in rng.integers(0, faces.shape[0], size=count):
        w = 0.2 + 0.6 * rng.dirichlet(np.ones(3))
        w /= w.sum()
        out.append(w @ surface.vertices[faces[fi]])
    return out


# ---------------------------------------------------------------------------
# set-up


def _catalog_params(rng) -> dict:
    return {"graph_disk": {"seed": int(rng.integers(0, 1_000_000))}}


def build_profile(lib, rng, _workdir) -> Setup:
    catalog = lib.catalog
    params = _catalog_params(rng)
    names = SMOOTH_SCENES + ("branched_disk",)
    scenes = {n: catalog.build_scene(n, params.get(n), res=PROFILE_RES) for n in names}
    anchors = {}
    for n, sc in scenes.items():
        s = sc.surface
        if n == "branched_disk":
            # off-vertex extrapolation would see the second sheet; vertex
            # anchors other than the branch point have density 1
            branch = s.patch.u(np.zeros((1, 2)))[0]
            anchors[n] = vertex_anchors(s, rng, N_ANCHORS, exclude=branch)
        else:
            verts = vertex_anchors(s, rng, N_ANCHORS // 2)
            offs = face_anchors(s, rng, N_ANCHORS // 2)
            anchors[n] = [a for pair in zip(verts, offs) for a in pair]
    ops = []
    for rnd in range(N_ANCHORS // 2):
        for k, n in enumerate(names):
            # alternate vertex and off-vertex anchors, and p, within every round
            x0 = anchors[n][2 * rnd + (k + rnd) % 2]
            ops.append(Op("profile", n, {"x0": x0, "p": P_CYCLE[(k + rnd) % len(P_CYCLE)]}))
    return Setup(scenes=scenes, ops=ops, cycle=len(names))


def build_density(lib, rng, _workdir) -> Setup:
    catalog = lib.catalog
    params = _catalog_params(rng)
    names = SMOOTH_SCENES + ("branched_disk",)
    scenes = {n: catalog.build_scene(n, params.get(n), res=DENSITY_RES) for n in names}
    # one sector per opening-angle band; the seed moves the angle inside it
    angles = np.asarray(SECTOR_ANGLES) + rng.uniform(-0.01, 0.01, size=len(SECTOR_ANGLES)) * math.pi
    sectors = []
    for j, a in enumerate(angles):
        key = f"flat_sector_{j}"
        scenes[key] = catalog.build_scene("flat_sector", {"angle": float(a)}, res=DENSITY_RES)
        sectors.append(key)
    anchors = {n: face_anchors(scenes[n].surface, rng, N_ANCHORS) for n in SMOOTH_SCENES}
    branch = scenes["branched_disk"].surface.patch.u(np.zeros((1, 2)))[0]
    ops = []
    for rnd in range(N_ANCHORS):
        for slot, kind in enumerate(DENSITY_CYCLE):
            if kind == "interior":
                n = SMOOTH_SCENES[slot]
                ops.append(Op("density", n, {"x0": anchors[n][rnd], "expected": 1.0}))
            elif kind == "branch":
                ops.append(Op("density", "branched_disk", {"x0": branch, "expected": 2.0}))
            else:
                key = sectors[rnd % len(sectors)]
                flags = scenes[key].boundary.corner_flags
                flag = flags[(rnd // len(sectors)) % len(flags)]
                ops.append(Op("corner", key, {"corner_index": int(flag.index)}))
    return Setup(scenes=scenes, ops=ops, cycle=len(DENSITY_CYCLE))


def random_rotation(rng, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q = q * np.sign(np.diag(r))[None, :]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def crossing_sheets(rng, n: int):
    """Two square grid sheets, the second tilted through the first's interior."""
    g = np.linspace(-1.0, 1.0, n + 1)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    flat = np.stack([xx.ravel(), yy.ravel(), np.zeros(xx.size)], axis=1)
    quads = []
    for i in range(n):
        for j in range(n):
            a, b = i * (n + 1) + j, (i + 1) * (n + 1) + j
            quads += [(a, b, b + 1), (a, b + 1, a + 1)]
    faces = np.asarray(quads, dtype=np.int64)
    tilt = rng.uniform(math.pi / 6.0, math.pi / 2.0)
    spin = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(tilt), math.sin(tilt)
    tilt_m = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    cz, sz = math.cos(spin), math.sin(spin)
    spin_m = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    center = np.array([*rng.uniform(-0.4, 0.4, size=2), 0.0])
    second = 0.6 * flat @ (spin_m @ tilt_m).T + center
    verts = np.concatenate([flat, second], axis=0)
    return verts, np.concatenate([faces, faces + flat.shape[0]], axis=0)


# (catalog name or "crossing", resolution, file extension), cycled in order.
# Six of eight have about 4600 faces (crossing sheets at res n have 4 n^2), so
# the median falls inside that cluster rather than at its edge.
EMBED_CYCLE = (
    ("graph_disk", EMBED_LARGE_RES, ".obj"),
    ("crossing", EMBED_SMALL_RES, ".obj"),
    ("enneper", EMBED_LARGE_RES, ".off"),
    ("cap", EMBED_LARGE_RES, ".obj"),
    ("branched_disk", EMBED_SMALL_RES, ".json"),
    ("flat_disk", EMBED_LARGE_RES, ".off"),
    ("crossing", EMBED_CROSSING_LARGE_RES, ".off"),
    ("catenoid", EMBED_LARGE_RES, ".obj"),
)


def build_embed(lib, rng, workdir: str) -> Setup:
    catalog, surfaces, fileio = lib.catalog, lib.surfaces, lib.fileio
    params = _catalog_params(rng)
    os.makedirs(workdir, exist_ok=True)
    ops = []
    for i in range(EMBED_FILES):
        name, res, ext = EMBED_CYCLE[i % len(EMBED_CYCLE)]
        if name == "crossing":
            verts, faces = crossing_sheets(rng, res)
        else:
            s = catalog.build_scene(name, params.get(name), res=res).surface
            verts, faces = s.vertices, s.faces
        rot = random_rotation(rng, verts.shape[1])
        moved = verts @ rot.T + rng.uniform(-5.0, 5.0, size=verts.shape[1])
        path = os.path.join(workdir, f"mesh{i:03d}_{name}_{res}{ext}")
        fileio.save_mesh(path, surfaces.SurfaceModel.build(moved, faces))
        ops.append(
            Op(
                "embed",
                name,
                {
                    "mesh": path,
                    "out": os.path.join(workdir, f"report{i:03d}.json"),
                    "crossing": name == "crossing",
                    "faces": int(faces.shape[0]),
                },
            )
        )
    return Setup(scenes={}, ops=ops, cycle=len(EMBED_CYCLE))


BUILDERS = {"profile": build_profile, "density": build_density, "embed": build_embed}


# ---------------------------------------------------------------------------
# operations: each returns a JSON-able summary of its outputs


def run_op(lib, setup: Setup, op: Op) -> dict:
    if op.kind == "profile":
        sc = setup.scenes[op.scene]
        s, curves, x0, p = sc.surface, list(sc.boundaries), op.args["x0"], op.args["p"]
        k = lib.monotonicity.property_p_constants(s, p)
        prof = lib.monotonicity.m_profile(s, curves, x0, constants=k)
        wm = lib.monotonicity.check_weighted_monotonicity(prof)
        lr = lib.monotonicity.check_large_radius_bound(prof)
        cert = lib.certificates.density_estimate_certificate(s, curves, x0, p, profile=prof)
        return {
            "radii": list(prof.radii),
            "m": list(prof.m_values),
            "weighted_ok": wm.ok,
            "large_radius_ok": lr.ok,
            "status": cert.status,
            "surface_density": cert.conclusion["surface_density"],
        }
    if op.kind == "density":
        est = lib.surfaces.density_estimate(setup.scenes[op.scene].surface, op.args["x0"])
        return {"value": est.value, "mode": est.mode}
    if op.kind == "corner":
        sc = setup.scenes[op.scene]
        cert = lib.certificates.corner_density_certificate(
            sc.surface, sc.boundary, op.args["corner_index"]
        )
        return {"status": cert.status, **cert.conclusion}
    if op.kind == "embed":
        code = lib.cli.main(
            [
                "certify", "--mesh", op.args["mesh"], "--kind", "embeddedness",
                "--which", "full", "--out", op.args["out"],
            ]
        )
        with open(op.args["out"]) as fh:
            report = json.load(fh)
        return {"exit_code": code, "report": report}
    raise ValueError(f"unknown operation kind {op.kind!r}")


# ---------------------------------------------------------------------------
# checks


def flat_plane_bound(surface, boundary_vertices, x0, r: float) -> float:
    """Largest |m(r) - pi| the documented clip tolerance allows on the flat disk.

    Disk plus exterior cone tile the plane, so only triangles crossing the
    sphere |x - x0| = r carry clip error, at most CLIP_REL_TOL of their area.
    Disk triangles crossing it lie within r + h (h the longest edge). Cone
    rings double in t, so a cone triangle reaching inside the sphere ends
    within 2 r M / m (M, m the largest and smallest distance from x0 to the
    boundary). The crossing triangles tile part of the disk of the larger of
    those radii, which bounds their total area.
    """
    v = surface.vertices
    f = surface.faces
    h = float(np.max(np.linalg.norm(v[f] - v[np.roll(f, 1, axis=1)], axis=2)))
    d = np.linalg.norm(boundary_vertices - x0[None, :], axis=1)
    seg = np.max(np.linalg.norm(boundary_vertices - np.roll(boundary_vertices, 1, axis=0), axis=1))
    m = float(d.min() - 0.5 * seg)
    reach = max(r + h, 2.0 * r * float(d.max()) / m)
    return CLIP_REL_TOL * math.pi * reach * reach / (r * r)


def check_op(lib, setup: Setup, op: Op, out: dict) -> None:
    """Raise CheckFailed unless ``out`` agrees with the operation's oracle."""
    if op.kind == "profile":
        m = np.asarray(out["m"])
        if not (np.all(np.isfinite(m)) and np.all(m > 0)):
            raise CheckFailed("profile has a non-positive or non-finite m(r)")
        if op.scene == "flat_disk":
            sc = setup.scenes[op.scene]
            bv = np.concatenate([c.vertices for c in sc.boundaries], axis=0)
            x0 = np.asarray(op.args["x0"], dtype=float)
            for r, mr in zip(out["radii"], m):
                bound = flat_plane_bound(sc.surface, bv, x0, r)
                if abs(mr - math.pi) > bound:
                    raise CheckFailed(f"flat disk m({r:.4g}) = {mr!r}, off pi by more than {bound:.3g}")
        _check_density(out["surface_density"], 1.0)
    elif op.kind == "density":
        _check_density(out["value"], op.args["expected"])
    elif op.kind == "corner":
        sc = setup.scenes[op.scene]
        # the apex (at the origin) opens by the sector angle, the arc ends by pi/2
        apex = np.linalg.norm(sc.boundary.vertices[op.args["corner_index"]]) < 1e-12
        opening = sc.parameters["angle"] if apex else math.pi / 2.0
        expected = opening / (2.0 * math.pi)
        if out["status"] != "satisfied" or not out["satisfied"]:
            raise CheckFailed(f"corner certificate on a flat sector is {out['status']}")
        if abs(out["measured"] - expected) > CORNER_TOL:
            raise CheckFailed(f"corner density {out['measured']!r}, expected {expected!r}")
    elif op.kind == "embed":
        if out["exit_code"] not in (0, 2):
            raise CheckFailed(f"certify exited with {out['exit_code']}")
        try:
            lib.fileio.validate_report(out["report"])
        except lib.errors.GeometryError as e:
            raise CheckFailed(f"report does not validate: {e}")
        conclusion = out["report"]["payload"]["conclusion"]
        expect_free = not op.args["crossing"]
        if conclusion["intersection_free"] is not expect_free:
            raise CheckFailed(
                f"intersection_free is {conclusion['intersection_free']}, mesh built "
                f"{'crossing' if op.args['crossing'] else 'embedded'}"
            )
        if op.args["crossing"] and not conclusion["intersection_pairs"]:
            raise CheckFailed("crossing sheets reported with no intersecting pair")
    else:
        raise ValueError(f"unknown operation kind {op.kind!r}")


def _check_density(value: float, expected: float) -> None:
    if not abs(value - expected) <= DENSITY_TOL:
        raise CheckFailed(f"density {value!r}, expected {expected}")


def whole_cycles(latencies: list, cycle: int) -> list:
    """The latencies of the whole repetitions of the mix.

    Rates and medians over these weigh every operation kind alike in every run.
    """
    return latencies[: len(latencies) // cycle * cycle]


def input_properties(setup: Setup, ops_run: list) -> dict:
    """Shares of the input properties an optimisation might depend on."""
    if not ops_run:
        return {}
    surfaces = {op.scene if op.kind != "embed" else op.args["mesh"] for op in ops_run}
    faces = [
        op.args["faces"] if op.kind == "embed" else setup.scenes[op.scene].surface.n_faces
        for op in ops_run
    ]
    return {
        "queries_per_surface": len(ops_run) / len(surfaces),
        "faces_per_op": float(np.mean(faces)),
        "crossing_share": sum(bool(op.args.get("crossing")) for op in ops_run) / len(ops_run),
    }
