"""Named analytic surfaces with meshes, parametrizations, and boundary curves.

Every entry builds a Scene: a validated SurfaceModel (with an AnalyticPatch
where one exists), boundary polylines extracted from the mesh's own boundary
loops (so they match vertex-for-vertex by construction), and a default base
point. The resolution parameter res controls mesh density; the disk gets
about 2*res*(res/2) = res^2 faces, roughly 8k at the default 64.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import CornerFlag, PolylineCurve
from .errors import InvalidParameterError
from .geometry import PointN, as_point
from .surfaces import AnalyticPatch, SurfaceModel, boundary_polyline

__all__ = [
    "Scene",
    "CatalogEntry",
    "catalog_names",
    "catalog_entry",
    "build_scene",
    "scaled_scene",
]


@dataclass(frozen=True)
class Scene:
    """A surface plus its boundary curves and build provenance."""

    surface: SurfaceModel
    boundaries: tuple  # of PolylineCurve, one per mesh boundary loop
    parameters: dict
    provenance: str
    default_x0: PointN

    @property
    def boundary(self) -> PolylineCurve:
        if not self.boundaries:
            raise InvalidParameterError("scene surface has no boundary")
        return self.boundaries[0]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    doc: str
    schema: dict = field(default_factory=dict)  # param -> (type, default, doc)
    analytic: bool = True


# ---------------------------------------------------------------------------
# grid builders


def _polar_disk_grid(res: int, radius: float = 1.0):
    """Center-fan polar grid over a disk: params are planar (x, y)."""
    rings = max(2, res // 2)
    wedges = max(8, 2 * res)
    pts = [(0.0, 0.0)]
    for i in range(1, rings + 1):
        r = radius * i / rings
        for j in range(wedges):
            a = 2.0 * math.pi * j / wedges
            pts.append((r * math.cos(a), r * math.sin(a)))
    faces = []
    for j in range(wedges):
        faces.append((0, 1 + j, 1 + (j + 1) % wedges))
    for i in range(rings - 1):
        s0 = 1 + i * wedges
        s1 = s0 + wedges
        for j in range(wedges):
            j2 = (j + 1) % wedges
            faces.append((s0 + j, s1 + j, s1 + j2))
            faces.append((s0 + j, s1 + j2, s0 + j2))
    return np.asarray(pts), np.asarray(faces, dtype=np.int64)


def _sector_grid(res: int, radius: float, angle: float):
    """Fan grid over a circular sector of the given opening angle."""
    rings = max(2, res // 2)
    arcs = max(3, int(round(2 * res * angle / (2.0 * math.pi))))
    pts = [(0.0, 0.0)]
    for i in range(1, rings + 1):
        r = radius * i / rings
        for j in range(arcs + 1):
            a = angle * j / arcs
            pts.append((r * math.cos(a), r * math.sin(a)))
    faces = []
    for j in range(arcs):
        faces.append((0, 1 + j, 1 + j + 1))
    row = arcs + 1
    for i in range(rings - 1):
        s0 = 1 + i * row
        s1 = s0 + row
        for j in range(arcs):
            faces.append((s0 + j, s1 + j, s1 + j + 1))
            faces.append((s0 + j, s1 + j + 1, s0 + j + 1))
    return np.asarray(pts), np.asarray(faces, dtype=np.int64)


def _lat_long_grid(res: int, phi_max: float):
    """Pole fan plus latitude rows: params are (phi, psi), psi wraps at 2*pi.

    Returns (params (V,2), faces, face_params (F,3,2)); face params carry the
    unwrapped psi values (and a per-face pole psi), since the vertex array can
    store only one psi per vertex.
    """
    rows = max(2, res // 2)
    wedges = max(8, 2 * res)
    params = [(0.0, 0.0)]
    for i in range(1, rows + 1):
        phi = phi_max * i / rows
        for j in range(wedges):
            params.append((phi, 2.0 * math.pi * j / wedges))
    faces = []
    fparams = []
    phi1 = phi_max / rows
    dpsi = 2.0 * math.pi / wedges
    for j in range(wedges):
        a, b = 1 + j, 1 + (j + 1) % wedges
        faces.append((0, a, b))
        psi_a = j * dpsi
        psi_b = (j + 1) * dpsi  # unwrapped: may equal 2*pi
        fparams.append(((0.0, 0.5 * (psi_a + psi_b)), (phi1, psi_a), (phi1, psi_b)))
    for i in range(rows - 1):
        s0 = 1 + i * wedges
        s1 = s0 + wedges
        p0 = phi_max * (i + 1) / rows
        p1 = phi_max * (i + 2) / rows
        for j in range(wedges):
            j2 = (j + 1) % wedges
            psi_a = j * dpsi
            psi_b = (j + 1) * dpsi
            faces.append((s0 + j, s1 + j, s1 + j2))
            fparams.append(((p0, psi_a), (p1, psi_a), (p1, psi_b)))
            faces.append((s0 + j, s1 + j2, s0 + j2))
            fparams.append(((p0, psi_a), (p1, psi_b), (p0, psi_b)))
    return np.asarray(params), np.asarray(faces, dtype=np.int64), np.asarray(fparams)


def _cylinder_grid(res: int, v_lo: float, v_hi: float):
    """Rows x wedges grid periodic in psi: params are (v, psi)."""
    rows = max(2, res // 2)
    wedges = max(8, 2 * res)
    params = []
    for i in range(rows + 1):
        v = v_lo + (v_hi - v_lo) * i / rows
        for j in range(wedges):
            params.append((v, 2.0 * math.pi * j / wedges))
    faces = []
    fparams = []
    dpsi = 2.0 * math.pi / wedges
    for i in range(rows):
        s0 = i * wedges
        s1 = s0 + wedges
        v0 = v_lo + (v_hi - v_lo) * i / rows
        v1 = v_lo + (v_hi - v_lo) * (i + 1) / rows
        for j in range(wedges):
            j2 = (j + 1) % wedges
            psi_a = j * dpsi
            psi_b = (j + 1) * dpsi
            faces.append((s0 + j, s1 + j, s1 + j2))
            fparams.append(((v0, psi_a), (v1, psi_a), (v1, psi_b)))
            faces.append((s0 + j, s1 + j2, s0 + j2))
            fparams.append(((v0, psi_a), (v1, psi_b), (v0, psi_b)))
    return np.asarray(params), np.asarray(faces, dtype=np.int64), np.asarray(fparams)


# ---------------------------------------------------------------------------
# analytic patches


def _planar_graph_patch(f, fx, fy, fxx, fxy, fyy, dim3: bool = True) -> AnalyticPatch:
    """Patch (x, y) -> (x, y, f(x, y)) from the height function's derivatives."""

    def u(p):
        x, y = p[:, 0], p[:, 1]
        return np.stack([x, y, f(x, y)], axis=1)

    def du(p):
        x, y = p[:, 0], p[:, 1]
        m = p.shape[0]
        out = np.zeros((m, 3, 2))
        out[:, 0, 0] = 1.0
        out[:, 1, 1] = 1.0
        out[:, 2, 0] = fx(x, y)
        out[:, 2, 1] = fy(x, y)
        return out

    def d2u(p):
        x, y = p[:, 0], p[:, 1]
        m = p.shape[0]
        out = np.zeros((m, 3, 2, 2))
        out[:, 2, 0, 0] = fxx(x, y)
        out[:, 2, 0, 1] = fxy(x, y)
        out[:, 2, 1, 0] = fxy(x, y)
        out[:, 2, 1, 1] = fyy(x, y)
        return out

    return AnalyticPatch(u=u, du=du, d2u=d2u, dim=3)


def _flat_patch() -> AnalyticPatch:
    zero = lambda x, y: np.zeros_like(x)  # noqa: E731
    return _planar_graph_patch(zero, zero, zero, zero, zero, zero)


def _sphere_patch(R: float) -> AnalyticPatch:
    """(phi, psi) -> sphere of radius R centered at the origin, pole at +z."""

    def u(p):
        phi, psi = p[:, 0], p[:, 1]
        sp, cp = np.sin(phi), np.cos(phi)
        return R * np.stack([sp * np.cos(psi), sp * np.sin(psi), cp], axis=1)

    def du(p):
        phi, psi = p[:, 0], p[:, 1]
        sp, cp = np.sin(phi), np.cos(phi)
        ss, cs = np.sin(psi), np.cos(psi)
        out = np.empty((p.shape[0], 3, 2))
        out[:, 0, 0] = R * cp * cs
        out[:, 1, 0] = R * cp * ss
        out[:, 2, 0] = -R * sp
        out[:, 0, 1] = -R * sp * ss
        out[:, 1, 1] = R * sp * cs
        out[:, 2, 1] = 0.0
        return out

    def d2u(p):
        phi, psi = p[:, 0], p[:, 1]
        sp, cp = np.sin(phi), np.cos(phi)
        ss, cs = np.sin(psi), np.cos(psi)
        out = np.empty((p.shape[0], 3, 2, 2))
        out[:, 0, 0, 0] = -R * sp * cs
        out[:, 1, 0, 0] = -R * sp * ss
        out[:, 2, 0, 0] = -R * cp
        out[:, 0, 0, 1] = out[:, 0, 1, 0] = -R * cp * ss
        out[:, 1, 0, 1] = out[:, 1, 1, 0] = R * cp * cs
        out[:, 2, 0, 1] = out[:, 2, 1, 0] = 0.0
        out[:, 0, 1, 1] = -R * sp * cs
        out[:, 1, 1, 1] = -R * sp * ss
        out[:, 2, 1, 1] = 0.0
        return out

    return AnalyticPatch(u=u, du=du, d2u=d2u, dim=3)


def _catenoid_patch(a: float) -> AnalyticPatch:
    """(v, psi) -> (a cosh(v/a) cos psi, a cosh(v/a) sin psi, v)."""

    def u(p):
        v, psi = p[:, 0], p[:, 1]
        w = a * np.cosh(v / a)
        return np.stack([w * np.cos(psi), w * np.sin(psi), v], axis=1)

    def du(p):
        v, psi = p[:, 0], p[:, 1]
        w = a * np.cosh(v / a)
        wp = np.sinh(v / a)
        ss, cs = np.sin(psi), np.cos(psi)
        out = np.empty((p.shape[0], 3, 2))
        out[:, 0, 0] = wp * cs
        out[:, 1, 0] = wp * ss
        out[:, 2, 0] = 1.0
        out[:, 0, 1] = -w * ss
        out[:, 1, 1] = w * cs
        out[:, 2, 1] = 0.0
        return out

    def d2u(p):
        v, psi = p[:, 0], p[:, 1]
        w = a * np.cosh(v / a)
        wp = np.sinh(v / a)
        wpp = np.cosh(v / a) / a
        ss, cs = np.sin(psi), np.cos(psi)
        out = np.empty((p.shape[0], 3, 2, 2))
        out[:, 0, 0, 0] = wpp * cs
        out[:, 1, 0, 0] = wpp * ss
        out[:, 2, 0, 0] = 0.0
        out[:, 0, 0, 1] = out[:, 0, 1, 0] = -wp * ss
        out[:, 1, 0, 1] = out[:, 1, 1, 0] = wp * cs
        out[:, 2, 0, 1] = out[:, 2, 1, 0] = 0.0
        out[:, 0, 1, 1] = -w * cs
        out[:, 1, 1, 1] = -w * ss
        out[:, 2, 1, 1] = 0.0
        return out

    return AnalyticPatch(u=u, du=du, d2u=d2u, dim=3)


def _enneper_patch() -> AnalyticPatch:
    """Classic polynomial minimal immersion over a disk domain."""

    def u(p):
        x, y = p[:, 0], p[:, 1]
        return np.stack(
            [
                x - x**3 / 3.0 + x * y * y,
                -y + y**3 / 3.0 - x * x * y,
                x * x - y * y,
            ],
            axis=1,
        )

    def du(p):
        x, y = p[:, 0], p[:, 1]
        out = np.empty((p.shape[0], 3, 2))
        out[:, 0, 0] = 1.0 - x * x + y * y
        out[:, 0, 1] = 2.0 * x * y
        out[:, 1, 0] = -2.0 * x * y
        out[:, 1, 1] = -1.0 + y * y - x * x
        out[:, 2, 0] = 2.0 * x
        out[:, 2, 1] = -2.0 * y
        return out

    def d2u(p):
        x, y = p[:, 0], p[:, 1]
        out = np.empty((p.shape[0], 3, 2, 2))
        out[:, 0, 0, 0] = -2.0 * x
        out[:, 0, 0, 1] = out[:, 0, 1, 0] = 2.0 * y
        out[:, 0, 1, 1] = 2.0 * x
        out[:, 1, 0, 0] = -2.0 * y
        out[:, 1, 0, 1] = out[:, 1, 1, 0] = -2.0 * x
        out[:, 1, 1, 1] = 2.0 * y
        out[:, 2, 0, 0] = 2.0
        out[:, 2, 0, 1] = out[:, 2, 1, 0] = 0.0
        out[:, 2, 1, 1] = -2.0
        return out

    return AnalyticPatch(u=u, du=du, d2u=d2u, dim=3)


def _branched_patch(m: int, branch_radius: float) -> AnalyticPatch:
    """(x, y) = z -> (z^m, z^(m+1)/2) in R^4; branch point of order m at 0."""

    def _powers(p):
        z = p[:, 0] + 1j * p[:, 1]
        return z

    def u(p):
        z = _powers(p)
        f = z**m
        g = 0.5 * z ** (m + 1)
        return np.stack([f.real, f.imag, g.real, g.imag], axis=1)

    def du(p):
        z = _powers(p)
        fp = m * z ** (m - 1)
        gp = 0.5 * (m + 1) * z**m
        out = np.empty((p.shape[0], 4, 2))
        # for holomorphic w(z): d/dx = w', d/dy = i w'
        for row, w in ((0, fp), (2, gp)):
            out[:, row, 0] = w.real
            out[:, row + 1, 0] = w.imag
            out[:, row, 1] = -w.imag
            out[:, row + 1, 1] = w.real
        return out

    def d2u(p):
        z = _powers(p)
        fpp = m * (m - 1) * z ** (m - 2) if m >= 2 else np.zeros_like(z)
        gpp = 0.5 * (m + 1) * m * z ** (m - 1)
        out = np.empty((p.shape[0], 4, 2, 2))
        for row, w in ((0, fpp), (2, gpp)):
            out[:, row, 0, 0] = w.real
            out[:, row + 1, 0, 0] = w.imag
            out[:, row, 0, 1] = out[:, row, 1, 0] = -w.imag
            out[:, row + 1, 0, 1] = out[:, row + 1, 1, 0] = w.real
            out[:, row, 1, 1] = -w.real
            out[:, row + 1, 1, 1] = -w.imag
        return out

    return AnalyticPatch(
        u=u,
        du=du,
        d2u=d2u,
        dim=4,
        branch_points=(((0.0, 0.0), m),),
        branch_radius=branch_radius,
    )


# ---------------------------------------------------------------------------
# scenes


def _scene_from_patch(
    patch: AnalyticPatch,
    params2d: np.ndarray,
    faces: np.ndarray,
    name: str,
    parameters: dict,
    default_x0,
    face_params: np.ndarray | None = None,
    boundary_flags: dict | None = None,
):
    verts = patch.u(params2d)
    surface = SurfaceModel.build(
        verts, faces, patch=patch, params=params2d, face_params=face_params
    )
    boundaries = []
    for li in range(len(surface.boundary_loops)):
        flags = _loop_flags(surface, li, boundary_flags) if boundary_flags else ()
        boundaries.append(boundary_polyline(surface, li, corner_flags=flags))
    return Scene(
        surface=surface,
        boundaries=tuple(boundaries),
        parameters=dict(parameters),
        provenance=f"catalog:{name}",
        default_x0=as_point(default_x0, dim=surface.dim),
    )


def _loop_flags(surface: SurfaceModel, loop_index: int, flag_map: dict):
    """Translate {mesh vertex id: theta} into loop-position corner flags."""
    loop = surface.boundary_loops[loop_index]
    flags = []
    for pos, vid in enumerate(loop.tolist()):
        if vid in flag_map:
            flags.append(CornerFlag(index=pos, theta=flag_map[vid]))
    return tuple(flags)


def _build_flat_disk(res: int) -> Scene:
    params2d, faces = _polar_disk_grid(res, radius=1.0)
    patch = _flat_patch()
    return _scene_from_patch(
        patch, params2d, faces, "flat_disk", {"res": res}, (0.0, 0.0, 0.0)
    )


def _build_flat_sector(res: int, angle: float) -> Scene:
    if not (0.0 < angle < 2.0 * math.pi):
        raise InvalidParameterError("sector angle must lie in (0, 2*pi)")
    params2d, faces = _sector_grid(res, 1.0, angle)
    patch = _flat_patch()
    verts = patch.u(params2d)
    # corners: apex (exterior angle |pi - angle|), two arc ends (pi/2 each)
    apex = 0
    arcs = int(round(2 * res * angle / (2.0 * math.pi)))
    arcs = max(3, arcs)
    rings = max(2, res // 2)
    first_end = 1 + (rings - 1) * (arcs + 1)  # outer ring, j = 0
    second_end = first_end + arcs
    flag_map = {
        apex: abs(math.pi - angle),
        first_end: math.pi / 2.0,
        second_end: math.pi / 2.0,
    }
    surface = SurfaceModel.build(verts, faces, patch=patch, params=params2d)
    boundaries = tuple(
        boundary_polyline(surface, li, corner_flags=_loop_flags(surface, li, flag_map))
        for li in range(len(surface.boundary_loops))
    )
    mid = 0.4 * np.array([math.cos(angle / 2.0), math.sin(angle / 2.0), 0.0])
    return Scene(
        surface=surface,
        boundaries=boundaries,
        parameters={"res": res, "angle": angle},
        provenance="catalog:flat_sector",
        default_x0=as_point(mid),
    )


def _build_branched_disk(res: int, m: int) -> Scene:
    if m < 2:
        raise InvalidParameterError("branch order m must be >= 2")
    rings = max(2, res // 2)
    params2d, faces = _polar_disk_grid(res, radius=1.0)
    patch = _branched_patch(m, branch_radius=1.5 / rings)
    return _scene_from_patch(
        patch,
        params2d,
        faces,
        "branched_disk",
        {"res": res, "m": m},
        (0.0, 0.0, 0.0, 0.0),
    )


def _build_cap(res: int, R: float, theta: float) -> Scene:
    if not (R > 0) or not (0.0 < theta < math.pi):
        raise InvalidParameterError("cap needs R > 0 and polar angle in (0, pi)")
    params, faces, fparams = _lat_long_grid(res, theta)
    patch = _sphere_patch(R)
    return _scene_from_patch(
        patch,
        params,
        faces,
        "cap",
        {"res": res, "R": R, "theta": theta},
        (0.0, 0.0, R),
        face_params=fparams,
    )


def _build_hemisphere(res: int) -> Scene:
    scene = _build_cap(res, 1.0, math.pi / 2.0)
    return Scene(
        surface=scene.surface,
        boundaries=scene.boundaries,
        parameters={"res": res},
        provenance="catalog:hemisphere",
        default_x0=scene.default_x0,
    )


def _build_catenoid(res: int, waist: float, height: float) -> Scene:
    if not (waist > 0 and height > 0):
        raise InvalidParameterError("catenoid needs waist > 0 and height > 0")
    params, faces, fparams = _cylinder_grid(res, -height / 2.0, height / 2.0)
    patch = _catenoid_patch(waist)
    return _scene_from_patch(
        patch,
        params,
        faces,
        "catenoid",
        {"res": res, "waist": waist, "height": height},
        (waist, 0.0, 0.0),
        face_params=fparams,
    )


def _build_enneper(res: int, scale: float) -> Scene:
    if not (0.0 < scale <= 1.2):
        raise InvalidParameterError("enneper scale must lie in (0, 1.2]")
    params2d, faces = _polar_disk_grid(res, radius=scale)
    patch = _enneper_patch()
    return _scene_from_patch(
        patch, params2d, faces, "enneper", {"res": res, "scale": scale}, (0.0, 0.0, 0.0)
    )


def _build_graph_disk(res: int, seed: int) -> Scene:
    rng = np.random.default_rng(int(seed))
    n_bumps = 3
    amp = rng.uniform(0.002, 0.004, n_bumps)
    om = rng.uniform(0.8, 1.8, n_bumps)
    nu = rng.uniform(0.8, 1.8, n_bumps)
    ph = rng.uniform(0.0, 2.0 * math.pi, (2, n_bumps))

    def f(x, y):
        acc = np.zeros_like(x)
        for i in range(n_bumps):
            acc = acc + amp[i] * np.sin(om[i] * x + ph[0, i]) * np.sin(nu[i] * y + ph[1, i])
        return acc

    def fx(x, y):
        acc = np.zeros_like(x)
        for i in range(n_bumps):
            acc = acc + amp[i] * om[i] * np.cos(om[i] * x + ph[0, i]) * np.sin(
                nu[i] * y + ph[1, i]
            )
        return acc

    def fy(x, y):
        acc = np.zeros_like(x)
        for i in range(n_bumps):
            acc = acc + amp[i] * nu[i] * np.sin(om[i] * x + ph[0, i]) * np.cos(
                nu[i] * y + ph[1, i]
            )
        return acc

    def fxx(x, y):
        acc = np.zeros_like(x)
        for i in range(n_bumps):
            acc = acc - amp[i] * om[i] ** 2 * np.sin(om[i] * x + ph[0, i]) * np.sin(
                nu[i] * y + ph[1, i]
            )
        return acc

    def fxy(x, y):
        acc = np.zeros_like(x)
        for i in range(n_bumps):
            acc = acc + amp[i] * om[i] * nu[i] * np.cos(om[i] * x + ph[0, i]) * np.cos(
                nu[i] * y + ph[1, i]
            )
        return acc

    def fyy(x, y):
        acc = np.zeros_like(x)
        for i in range(n_bumps):
            acc = acc - amp[i] * nu[i] ** 2 * np.sin(om[i] * x + ph[0, i]) * np.sin(
                nu[i] * y + ph[1, i]
            )
        return acc

    params2d, faces = _polar_disk_grid(res, radius=1.0)
    patch = _planar_graph_patch(f, fx, fy, fxx, fxy, fyy)
    center = patch.u(np.zeros((1, 2)))[0]
    return _scene_from_patch(
        patch, params2d, faces, "graph_disk", {"res": res, "seed": int(seed)}, center
    )


def _build_torus_minus_disk(res: int, R0: float = 2.0, r_tube: float = 0.7) -> Scene:
    """Mesh-only torus with a rectangular block of cells removed (b=1, g=1)."""
    n = max(16, int(res))
    verts = np.empty((n * n, 3))
    for i in range(n):
        uu = 2.0 * math.pi * i / n
        for j in range(n):
            vv = 2.0 * math.pi * j / n
            w = R0 + r_tube * math.cos(vv)
            verts[i * n + j] = (w * math.cos(uu), w * math.sin(uu), r_tube * math.sin(vv))
    hole = 4  # cells per side of the removed block
    i0 = n // 2 - hole // 2
    j0 = n // 2 - hole // 2
    faces = []
    for i in range(n):
        for j in range(n):
            if i0 <= i < i0 + hole and j0 <= j < j0 + hole:
                continue
            a = i * n + j
            b = ((i + 1) % n) * n + j
            c = ((i + 1) % n) * n + (j + 1) % n
            d = i * n + (j + 1) % n
            faces.append((a, b, c))
            faces.append((a, c, d))
    # drop vertices interior to the hole (not referenced by any kept face)
    faces = np.asarray(faces, dtype=np.int64)
    used = np.zeros(n * n, dtype=bool)
    used[faces.ravel()] = True
    remap = np.cumsum(used) - 1
    surface = SurfaceModel.build(verts[used], remap[faces])
    boundaries = tuple(
        boundary_polyline(surface, li, corner_flags=None)
        for li in range(len(surface.boundary_loops))
    )
    return Scene(
        surface=surface,
        boundaries=boundaries,
        parameters={"res": res, "R0": R0, "r_tube": r_tube},
        provenance="catalog:torus_minus_disk",
        default_x0=as_point(verts[used][0]),
    )


# ---------------------------------------------------------------------------
# registry

_ENTRIES = {
    "flat_disk": CatalogEntry(
        "flat_disk", "Unit disk in the z = 0 plane.", {}, analytic=True
    ),
    "flat_sector": CatalogEntry(
        "flat_sector",
        "Planar circular sector; boundary corners carry intended angles.",
        {"angle": (float, math.pi / 2.0, "opening angle in (0, 2*pi)")},
        analytic=True,
    ),
    "branched_disk": CatalogEntry(
        "branched_disk",
        "(z^m, z^(m+1)/2) in R^4: branch point of order m at the origin.",
        {"m": (int, 2, "branch order >= 2")},
        analytic=True,
    ),
    "cap": CatalogEntry(
        "cap",
        "Spherical cap of radius R up to polar angle theta; |H| = 2/R.",
        {"R": (float, 10.0, "sphere radius"), "theta": (float, 0.1, "polar angle")},
        analytic=True,
    ),
    "hemisphere": CatalogEntry(
        "hemisphere", "Unit upper hemisphere (cap with theta = pi/2).", {}, analytic=True
    ),
    "catenoid": CatalogEntry(
        "catenoid",
        "Minimal catenoid band; two boundary circles.",
        {"waist": (float, 1.0, "waist radius"), "height": (float, 1.5, "total height")},
        analytic=True,
    ),
    "enneper": CatalogEntry(
        "enneper",
        "Polynomial minimal immersion over a disk of the given radius.",
        {"scale": (float, 0.8, "domain disk radius in (0, 1.2]")},
        analytic=True,
    ),
    "graph_disk": CatalogEntry(
        "graph_disk",
        "Gently bumped graph over the unit disk; seeded, for fuzzing.",
        {"seed": (int, 0, "rng seed for the height function")},
        analytic=True,
    ),
    "torus_minus_disk": CatalogEntry(
        "torus_minus_disk",
        "Mesh-only torus with a small rectangular hole (genus 1, one loop).",
        {},
        analytic=False,
    ),
}

_BUILDERS = {
    "flat_disk": lambda res, **kw: _build_flat_disk(res),
    "flat_sector": lambda res, **kw: _build_flat_sector(res, kw["angle"]),
    "branched_disk": lambda res, **kw: _build_branched_disk(res, kw["m"]),
    "cap": lambda res, **kw: _build_cap(res, kw["R"], kw["theta"]),
    "hemisphere": lambda res, **kw: _build_hemisphere(res),
    "catenoid": lambda res, **kw: _build_catenoid(res, kw["waist"], kw["height"]),
    "enneper": lambda res, **kw: _build_enneper(res, kw["scale"]),
    "graph_disk": lambda res, **kw: _build_graph_disk(res, kw["seed"]),
    "torus_minus_disk": lambda res, **kw: _build_torus_minus_disk(res),
}

_CACHE: dict = {}


def catalog_names() -> list[str]:
    return sorted(_ENTRIES)


def catalog_entry(name: str) -> CatalogEntry:
    if name not in _ENTRIES:
        close = [n for n in catalog_names() if name.lower() in n or n in name.lower()]
        hint = f"; did you mean one of {close}?" if close else ""
        raise InvalidParameterError(
            f"unknown catalog surface {name!r}: available {catalog_names()}{hint}"
        )
    return _ENTRIES[name]


def build_scene(name: str, params: dict | None = None, res: int = 64) -> Scene:
    """Instantiate a catalog surface; results are cached per (name, params, res)."""
    entry = catalog_entry(name)
    params = dict(params or {})
    merged = {}
    for key, (typ, default, _doc) in entry.schema.items():
        raw = params.pop(key, default)
        try:
            merged[key] = typ(raw)
        except (TypeError, ValueError) as exc:
            raise InvalidParameterError(f"parameter {key}={raw!r}: {exc}") from exc
    if params:
        raise InvalidParameterError(
            f"unknown parameters {sorted(params)} for {name!r}; "
            f"schema has {sorted(entry.schema)}"
        )
    if not (isinstance(res, int) and 8 <= res <= 512):
        raise InvalidParameterError("res must be an integer in [8, 512]")
    key = (name, tuple(sorted(merged.items())), res)
    if key not in _CACHE:
        _CACHE[key] = _BUILDERS[name](res, **merged)
    return _CACHE[key]


def scaled_scene(scene: Scene, factor: float) -> Scene:
    """Homothety x -> factor * x of a scene, patch included."""
    if not (factor > 0 and math.isfinite(factor)):
        raise InvalidParameterError("scale factor must be positive and finite")
    old = scene.surface
    verts = old.vertices * factor
    patch = old.patch
    if patch is not None:
        base_u, base_du, base_d2u = patch.u, patch.du, patch.d2u
        patch = AnalyticPatch(
            u=lambda p: factor * base_u(p),
            du=lambda p: factor * base_du(p),
            d2u=lambda p: factor * base_d2u(p),
            dim=patch.dim,
            branch_points=patch.branch_points,
            branch_radius=patch.branch_radius,
        )
    surface = SurfaceModel.build(
        verts,
        old.faces,
        patch=patch,
        params=old.params,
        face_params=old.face_params,
    )
    boundaries = tuple(
        boundary_polyline(surface, li, corner_flags=scene.boundaries[li].corner_flags)
        for li in range(len(surface.boundary_loops))
    )
    return Scene(
        surface=surface,
        boundaries=boundaries,
        parameters={**scene.parameters, "scaled_by": factor},
        provenance=scene.provenance + f"*{factor:g}",
        default_x0=scene.default_x0 * factor,
    )
