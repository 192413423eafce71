"""Named analytic surfaces with meshes, parametrizations, and boundary curves.

Every entry builds a Scene: a validated SurfaceModel (with an AnalyticPatch
where one exists), boundary polylines extracted from the mesh's own boundary
loops (so they match vertex-for-vertex by construction), and a default base
point. The resolution parameter res controls mesh density: the disk has
w = max(8, 2 res) wedges and rings = max(2, res // 2) rings, so
w + 2 w (rings - 1) faces, 8064 at the default res 64. Every mesh is a
ring-strip triangulation from surfaces.strip_faces.

Each patch comes from one of three families, each giving the partial
derivatives AnalyticPatch asks for in closed form: graphs (x, y, h(x, y))
for the flat disk, the sector and graph_disk; surfaces of revolution
(w(t) cos psi, w(t) sin psi, z(t)) for the sphere and the catenoid; and
real parts of holomorphic polynomials, the Weierstrass-Enneper form of
Enneper's surface and the branched disk.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as poly

from .curves import CornerFlag, PolylineCurve
from .errors import InvalidParameterError
from .geometry import PointN, as_point
from .surfaces import AnalyticPatch, SurfaceModel, boundary_polyline, strip_faces

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
# grids


def _fan_grid(res: int, radius: float = 1.0, angles: np.ndarray | None = None):
    """Apex fan plus max(2, res // 2) rings out to radius: planar (x, y)
    params with the apex at the origin. The rings close over max(8, 2 res)
    wedges, or run open through the given angles for a sector.
    """
    periodic = angles is None
    if periodic:
        wedges = max(8, 2 * res)
        angles = 2.0 * math.pi * np.arange(wedges) / wedges
    rings = max(2, res // 2)
    r = radius * np.arange(1, rings + 1) / rings
    ring_pts = r[:, None, None] * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    params = np.concatenate([np.zeros((1, 2)), ring_pts.reshape(-1, 2)])
    return params, strip_faces(rings, angles.size, periodic, apex=True)[0]


def _psi_grid(res: int, lo: float, hi: float, apex: bool):
    """max(2, res // 2) + 1 rings from level lo to hi, each max(8, 2 res)
    wedges periodic in psi: params are (level, psi).

    With apex, the ring at lo collapses to one vertex at (lo, 0). Returns
    (params (V, 2), faces, face_params (F, 3, 2)); face params carry the
    unwrapped psi values (and a per-face apex psi, the wedge's middle),
    since the vertex array can store only one psi per vertex.
    """
    rows, wedges = max(2, res // 2), max(8, 2 * res)
    levels = lo + (hi - lo) * np.arange(rows + 1) / rows
    psi = 2.0 * math.pi * np.arange(wedges) / wedges
    params = np.stack(np.broadcast_arrays(levels[:, None], psi), axis=-1).reshape(-1, 2)
    if apex:
        params = np.concatenate([params[:1], params[wedges:]])
    faces, ring, col = strip_faces(rows + 1 - apex, wedges, True, apex)
    dpsi = 2.0 * math.pi / wedges
    fpsi = col * dpsi  # unwrapped: may equal 2*pi
    if apex:
        fpsi = np.where(ring == 0, 0.5 * (col * dpsi + (col + 1) * dpsi), fpsi)
    return params, faces, np.stack([levels[ring], fpsi], axis=-1)


# ---------------------------------------------------------------------------
# analytic patches


def _graph_patch(height) -> AnalyticPatch:
    """Patch (x, y) -> (x, y, h(x, y)); height(x, y, a, b) is the partial
    derivative of h taken a times in x and b times in y."""

    def partials(p, a, b):
        x, y = p[:, 0], p[:, 1]
        if a + b == 0:
            return np.stack([x, y, height(x, y, 0, 0)], axis=1)
        one = np.ones_like(x)
        plane = (one * ((a, b) == (1, 0)), one * ((a, b) == (0, 1)))
        return np.stack([*plane, height(x, y, a, b)], axis=1)

    return AnalyticPatch(partials=partials, dim=3)


def _flat_patch() -> AnalyticPatch:
    return _graph_patch(lambda x, y, a, b: np.zeros_like(x))


def _sin_derivative(k: int, t: np.ndarray) -> np.ndarray:
    """The k-th derivative of sin at t: sin, cos, -sin, -cos, repeating."""
    val = np.cos(t) if k % 2 else np.sin(t)
    return -val if k % 4 >= 2 else val


def _revolution_patch(w, z) -> AnalyticPatch:
    """Surface of revolution (t, psi) -> (w(t) cos psi, w(t) sin psi, z(t));
    w(t, k) and z(t, k) are the k-th derivatives of the profile."""

    def partials(p, a, b):
        t, psi = p[:, 0], p[:, 1]
        wt = w(t, a)
        zt = z(t, a) if b == 0 else np.zeros_like(t)
        return np.stack(
            [wt * _sin_derivative(b + 1, psi), wt * _sin_derivative(b, psi), zt], axis=1
        )

    return AnalyticPatch(partials=partials, dim=3)


def _sphere_patch(R: float) -> AnalyticPatch:
    """(phi, psi) -> sphere of radius R centered at the origin, pole at +z."""
    return _revolution_patch(
        lambda t, k: R * _sin_derivative(k, t), lambda t, k: R * _sin_derivative(k + 1, t)
    )


def _catenoid_patch(a: float) -> AnalyticPatch:
    """(v, psi) -> (a cosh(v/a) cos psi, a cosh(v/a) sin psi, v)."""

    def w(t, k):
        f = (np.sinh if k % 2 else np.cosh)(t / a)
        return (a * f, f, f / a)[k]

    return _revolution_patch(w, lambda t, k: (t, np.ones_like(t), np.zeros_like(t))[k])


def _holomorphic_patch(coeffs, **branch) -> AnalyticPatch:
    """(x, y) = z -> (Re P_1(z), ..., Re P_n(z)) for complex polynomials P_k
    given by ascending coefficients; d^a/dx^a d^b/dy^b Re P = Re(i^b P^(a+b))."""
    derivs = [[poly.polyder(c, k) for c in coeffs] for k in range(3)]

    def partials(p, a, b):
        z = p[:, 0] + 1j * p[:, 1]
        return np.stack([(1j**b * poly.polyval(z, c)).real for c in derivs[a + b]], axis=1)

    return AnalyticPatch(partials=partials, dim=len(coeffs), **branch)


def _enneper_patch() -> AnalyticPatch:
    """Classic polynomial minimal immersion over a disk domain:
    Re(z - z^3/3, i (z + z^3/3), z^2)."""
    return _holomorphic_patch([[0, 1, 0, -1 / 3], [0, 1j, 0, 1j / 3], [0, 0, 1]])


def _branched_patch(m: int, branch_radius: float) -> AnalyticPatch:
    """(x, y) = z -> (z^m, z^(m+1)/2) in R^4; branch point of order m at 0."""
    f, g = [0] * m + [1], [0] * (m + 1) + [0.5]
    return _holomorphic_patch(
        [f, np.multiply(f, -1j), g, np.multiply(g, -1j)],
        branch_points=(((0.0, 0.0), m),),
        branch_radius=branch_radius,
    )


# ---------------------------------------------------------------------------
# scenes


def _patch_surface(patch: AnalyticPatch, params, faces, face_params=None) -> SurfaceModel:
    return SurfaceModel.build(
        patch.u(params), faces, patch=patch, params=params, face_params=face_params
    )


def _scene(name: str, parameters: dict, default_x0, surface: SurfaceModel, corners=None):
    """A catalog scene whose boundary curves are the mesh's boundary loops.

    On a surface with a patch the loops sample smooth curves, so only the
    vertices in corners ({mesh vertex id: exterior angle}) are corners; the
    loops of a mesh-only surface are raw polygons.
    """
    corners = corners or {}
    boundaries = []
    for li, loop in enumerate(surface.boundary_loops):
        flags = tuple(
            CornerFlag(index=pos, theta=corners[vid])
            for pos, vid in enumerate(loop.tolist())
            if vid in corners
        )
        boundaries.append(
            boundary_polyline(surface, li, None if surface.patch is None else flags)
        )
    return Scene(
        surface=surface,
        boundaries=tuple(boundaries),
        parameters=dict(parameters),
        provenance=f"catalog:{name}",
        default_x0=as_point(default_x0, dim=surface.dim),
    )


def _build_flat_disk(res: int) -> Scene:
    surface = _patch_surface(_flat_patch(), *_fan_grid(res))
    return _scene("flat_disk", {"res": res}, (0.0, 0.0, 0.0), surface)


def _build_flat_sector(res: int, angle: float) -> Scene:
    if not (0.0 < angle < 2.0 * math.pi):
        raise InvalidParameterError("sector angle must lie in (0, 2*pi)")
    arcs = max(3, int(round(2 * res * angle / (2.0 * math.pi))))
    params2d, faces = _fan_grid(res, angles=angle * np.arange(arcs + 1) / arcs)
    # corners: apex (exterior angle |pi - angle|), the outer ring's two ends
    # (pi/2 each); the outer ring holds the last arcs + 1 vertices
    last = params2d.shape[0] - 1
    corners = {0: abs(math.pi - angle), last - arcs: math.pi / 2.0, last: math.pi / 2.0}
    mid = 0.4 * np.array([math.cos(angle / 2.0), math.sin(angle / 2.0), 0.0])
    surface = _patch_surface(_flat_patch(), params2d, faces)
    return _scene("flat_sector", {"res": res, "angle": angle}, mid, surface, corners)


def _build_branched_disk(res: int, m: int) -> Scene:
    if m < 2:
        raise InvalidParameterError("branch order m must be >= 2")
    patch = _branched_patch(m, branch_radius=1.5 / max(2, res // 2))
    surface = _patch_surface(patch, *_fan_grid(res))
    return _scene("branched_disk", {"res": res, "m": m}, (0.0, 0.0, 0.0, 0.0), surface)


def _cap_surface(res: int, R: float, theta: float) -> SurfaceModel:
    if not (R > 0) or not (0.0 < theta < math.pi):
        raise InvalidParameterError("cap needs R > 0 and polar angle in (0, pi)")
    return _patch_surface(_sphere_patch(R), *_psi_grid(res, 0.0, theta, apex=True))


def _build_cap(res: int, R: float, theta: float) -> Scene:
    surface = _cap_surface(res, R, theta)
    return _scene("cap", {"res": res, "R": R, "theta": theta}, (0.0, 0.0, R), surface)


def _build_hemisphere(res: int) -> Scene:
    surface = _cap_surface(res, 1.0, math.pi / 2.0)
    return _scene("hemisphere", {"res": res}, (0.0, 0.0, 1.0), surface)


def _build_catenoid(res: int, waist: float, height: float) -> Scene:
    if not (waist > 0 and height > 0):
        raise InvalidParameterError("catenoid needs waist > 0 and height > 0")
    grid = _psi_grid(res, -height / 2.0, height / 2.0, apex=False)
    surface = _patch_surface(_catenoid_patch(waist), *grid)
    parameters = {"res": res, "waist": waist, "height": height}
    return _scene("catenoid", parameters, (waist, 0.0, 0.0), surface)


def _build_enneper(res: int, scale: float) -> Scene:
    if not (0.0 < scale <= 1.2):
        raise InvalidParameterError("enneper scale must lie in (0, 1.2]")
    surface = _patch_surface(_enneper_patch(), *_fan_grid(res, radius=scale))
    return _scene("enneper", {"res": res, "scale": scale}, (0.0, 0.0, 0.0), surface)


def _build_graph_disk(res: int, seed: int) -> Scene:
    rng = np.random.default_rng(int(seed))
    n_bumps = 3
    amp = rng.uniform(0.002, 0.004, n_bumps)
    om = rng.uniform(0.8, 1.8, n_bumps)
    nu = rng.uniform(0.8, 1.8, n_bumps)
    ph = rng.uniform(0.0, 2.0 * math.pi, (2, n_bumps))

    def height(x, y, a, b):
        # h = sum_i amp_i sin(om_i x + ph_0i) sin(nu_i y + ph_1i)
        acc = np.zeros_like(x)
        for i in range(n_bumps):
            acc = acc + amp[i] * om[i] ** a * nu[i] ** b * _sin_derivative(
                a, om[i] * x + ph[0, i]
            ) * _sin_derivative(b, nu[i] * y + ph[1, i])
        return acc

    patch = _graph_patch(height)
    center = patch.u(np.zeros((1, 2)))[0]
    surface = _patch_surface(patch, *_fan_grid(res))
    return _scene("graph_disk", {"res": res, "seed": int(seed)}, center, surface)


def _build_torus_minus_disk(res: int) -> Scene:
    """Mesh-only torus with a rectangular block of cells removed (b=1, g=1)."""
    R0, r_tube = 2.0, 0.7  # from the axis to the tube's centre; the tube's radius
    n = max(16, int(res))
    angle = 2.0 * math.pi * np.arange(n) / n
    w = R0 + r_tube * np.cos(angle)  # distance from the axis at tube angle j
    verts = np.stack(
        [
            np.outer(np.cos(angle), w),
            np.outer(np.sin(angle), w),
            np.broadcast_to(r_tube * np.sin(angle), (n, n)),
        ],
        axis=-1,
    ).reshape(-1, 3)
    # vertex (i, j) is i * n + j; both directions wrap
    _, ring, col = strip_faces(n + 1, n, True, False)
    hole = 4  # cells per side of the removed block
    cell = np.stack([ring[:, 0], col[:, 0]], axis=1) - (n // 2 - hole // 2)
    kept = ~np.all((cell >= 0) & (cell < hole), axis=1)
    faces = (ring % n * n + col % n)[kept]
    # drop vertices interior to the hole (not referenced by any kept face)
    used = np.zeros(n * n, dtype=bool)
    used[faces.ravel()] = True
    surface = SurfaceModel.build(verts[used], (np.cumsum(used) - 1)[faces])
    parameters = {"res": res, "R0": R0, "r_tube": r_tube}
    return _scene("torus_minus_disk", parameters, verts[used][0], surface)


# ---------------------------------------------------------------------------
# registry

_CATALOG = {
    entry.name: (entry, build)
    for entry, build in (
        (CatalogEntry("flat_disk", "Unit disk in the z = 0 plane."), _build_flat_disk),
        (
            CatalogEntry(
                "flat_sector",
                "Planar circular sector; boundary corners carry intended angles.",
                {"angle": (float, math.pi / 2.0, "opening angle in (0, 2*pi)")},
            ),
            _build_flat_sector,
        ),
        (
            CatalogEntry(
                "branched_disk",
                "(z^m, z^(m+1)/2) in R^4: branch point of order m at the origin.",
                {"m": (int, 2, "branch order >= 2")},
            ),
            _build_branched_disk,
        ),
        (
            CatalogEntry(
                "cap",
                "Spherical cap of radius R up to polar angle theta; |H| = 2/R.",
                {"R": (float, 10.0, "sphere radius"), "theta": (float, 0.1, "polar angle")},
            ),
            _build_cap,
        ),
        (
            CatalogEntry("hemisphere", "Unit upper hemisphere (cap with theta = pi/2)."),
            _build_hemisphere,
        ),
        (
            CatalogEntry(
                "catenoid",
                "Minimal catenoid band; two boundary circles.",
                {"waist": (float, 1.0, "waist radius"), "height": (float, 1.5, "total height")},
            ),
            _build_catenoid,
        ),
        (
            CatalogEntry(
                "enneper",
                "Polynomial minimal immersion over a disk of the given radius.",
                {"scale": (float, 0.8, "domain disk radius in (0, 1.2]")},
            ),
            _build_enneper,
        ),
        (
            CatalogEntry(
                "graph_disk",
                "Gently bumped graph over the unit disk; seeded, for fuzzing.",
                {"seed": (int, 0, "rng seed for the height function")},
            ),
            _build_graph_disk,
        ),
        (
            CatalogEntry(
                "torus_minus_disk",
                "Mesh-only torus with a small rectangular hole (genus 1, one loop).",
                analytic=False,
            ),
            _build_torus_minus_disk,
        ),
    )
}

_CACHE: dict = {}


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


def catalog_entry(name: str) -> CatalogEntry:
    if name not in _CATALOG:
        close = [n for n in catalog_names() if name.lower() in n or n in name.lower()]
        hint = f"; did you mean one of {close}?" if close else ""
        raise InvalidParameterError(
            f"unknown catalog surface {name!r}: available {catalog_names()}{hint}"
        )
    return _CATALOG[name][0]


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
        _CACHE[key] = _CATALOG[name][1](res, **merged)
    return _CACHE[key]


def scaled_scene(scene: Scene, factor: float) -> Scene:
    """Homothety x -> factor * x of a scene, patch included."""
    if not (factor > 0 and math.isfinite(factor)):
        raise InvalidParameterError("scale factor must be positive and finite")
    old = scene.surface
    verts = old.vertices * factor
    patch = old.patch
    if patch is not None:
        base = patch.partials
        patch = AnalyticPatch(
            partials=lambda p, a, b: factor * base(p, a, b),
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
