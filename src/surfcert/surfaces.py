"""Triangulated surfaces in R^n: validation, areas, densities, curvature.

A SurfaceModel is an oriented triangle mesh with boundary. Meshes may carry an
AnalyticPatch (a smooth parametrization plus per-vertex domain coordinates), in
which case curvature quantities come from derivatives of the parametrization;
otherwise they fall back to discrete estimators with reliability flags.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    InputInconsistentError,
    InvalidParameterError,
    RadiusTooLargeError,
    UnsupportedOperationError,
)
from .geometry import (
    Ball,
    PointN,
    as_point,
    clip_areas_total,
    stable_sum,
    triangle_areas,
    vertex_total_angle,
    _point_segment_dist2,
)

__all__ = [
    "SurfaceModel",
    "AnalyticPatch",
    "ScalarField",
    "VectorField",
    "DensityEstimate",
    "area_in_ball",
    "density",
    "density_estimate",
    "mean_curvature_field",
    "lp_norm",
    "extrinsic_diameter",
    "second_form_sup",
    "euler_characteristic",
    "genus",
    "boundary_distance",
    "nearest_vertex",
    "boundary_polyline",
]

VERTEX_MATCH_REL_TOL = 1e-9


@dataclass(frozen=True)
class AnalyticPatch:
    """Smooth immersion u: domain in R^2 -> R^n with first and second derivatives.

    All three callables are batched: they take (M, 2) parameter arrays and
    return (M, n), (M, n, 2), and (M, n, 2, 2) arrays. branch_points lists
    ((u, v), order) pairs where the immersion degenerates (order m >= 2);
    curvature samples within branch_radius of one are flagged unreliable
    rather than trusted. domain is a descriptive region object (disk, sector,
    rectangle) used by generators; operations here never dereference it.
    """

    u: Callable[[np.ndarray], np.ndarray]
    du: Callable[[np.ndarray], np.ndarray]
    d2u: Callable[[np.ndarray], np.ndarray]
    dim: int
    branch_points: tuple = ()
    branch_radius: float = 0.0
    domain: object | None = None

    def mean_curvature(self, pts: np.ndarray) -> np.ndarray:
        """Mean curvature vector field at parameter points, (M, n)."""
        return self.curvature_at(pts)["mean_curvature_vec"]

    def second_form_norm(self, pts: np.ndarray) -> np.ndarray:
        """|A| at parameter points, (M,)."""
        return self.curvature_at(pts)["second_form_norm"]

    def curvature_at(self, pts: np.ndarray) -> dict:
        """Mean curvature vector and second-form norm at parameter points.

        Uses the first fundamental form g = E^T E and the normal projection of
        the second derivatives; valid in any ambient dimension. Entries where
        g is numerically singular are flagged unreliable and zeroed.
        """
        pts = np.asarray(pts, dtype=np.float64)
        e = self.du(pts)  # (M, n, 2)
        d2 = self.d2u(pts)  # (M, n, 2, 2)
        g = np.einsum("mia,mib->mab", e, e)
        det = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
        tr = g[:, 0, 0] + g[:, 1, 1]
        bad = det <= 1e-12 * np.maximum(tr, 1e-300) ** 2
        safe_det = np.where(bad, 1.0, det)
        ginv = np.empty_like(g)
        ginv[:, 0, 0] = g[:, 1, 1] / safe_det
        ginv[:, 1, 1] = g[:, 0, 0] / safe_det
        ginv[:, 0, 1] = -g[:, 0, 1] / safe_det
        ginv[:, 1, 0] = -g[:, 1, 0] / safe_det
        # tangential component of each D^2 u slot, then its normal remainder
        coeff = np.einsum("mab,mib,micd->macd", ginv, e, d2)  # (M,2,2,2)
        tang = np.einsum("mia,macd->micd", e, coeff)
        second = d2 - tang  # (M, n, 2, 2), normal valued
        h_vec = np.einsum("mab,miab->mi", ginv, second)
        a2 = np.einsum(
            "mac,mbd,miab,micd->m", ginv, ginv, second, second
        )
        h_norm = np.linalg.norm(h_vec, axis=1)
        a_norm = np.sqrt(np.maximum(a2, 0.0))
        if self.branch_points and self.branch_radius > 0:
            bp = np.asarray([q for q, _order in self.branch_points], dtype=np.float64)
            bp = bp.reshape(-1, 2)
            d2b = ((pts[:, None, :] - bp[None, :, :]) ** 2).sum(-1)
            bad = bad | (d2b.min(axis=1) <= self.branch_radius**2)
        h_vec = np.where(bad[:, None], 0.0, h_vec)
        return {
            "mean_curvature_vec": h_vec,
            "mean_curvature_norm": np.where(bad, 0.0, h_norm),
            "second_form_norm": np.where(bad, 0.0, a_norm),
            "unreliable": bad,
        }


@dataclass(frozen=True)
class ScalarField:
    """Per-vertex scalar samples with provenance and reliability flags."""

    values: np.ndarray
    provenance: str  # "analytic" or "discrete"
    unreliable: np.ndarray

    def reliable_max(self) -> float:
        good = self.values[~self.unreliable]
        if good.size == 0:
            raise InputInconsistentError("field has no reliable samples")
        return float(np.abs(good).max())


@dataclass(frozen=True)
class VectorField:
    """Per-vertex vector samples with provenance and reliability flags."""

    values: np.ndarray
    provenance: str
    unreliable: np.ndarray

    @property
    def norm(self) -> ScalarField:
        return ScalarField(
            values=np.linalg.norm(self.values, axis=1),
            provenance=self.provenance,
            unreliable=self.unreliable,
        )


@dataclass(frozen=True)
class SurfaceModel:
    """Consistently oriented manifold triangle mesh, possibly with boundary."""

    vertices: np.ndarray
    faces: np.ndarray
    face_areas: np.ndarray = field(repr=False, default=None)
    per_vertex_area: np.ndarray = field(repr=False, default=None)
    boundary_loops: tuple = ()
    boundary_vertex_mask: np.ndarray = field(repr=False, default=None)
    degenerate_face_count: int = 0
    edge_count: int = 0
    patch: AnalyticPatch | None = None
    params: np.ndarray | None = None
    face_params: np.ndarray | None = None

    @classmethod
    def build(
        cls,
        vertices: np.ndarray,
        faces: np.ndarray,
        patch: AnalyticPatch | None = None,
        params: np.ndarray | None = None,
        face_params: np.ndarray | None = None,
    ) -> "SurfaceModel":
        v = np.array(vertices, dtype=np.float64)
        f = np.array(faces, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] < 3:
            raise InvalidParameterError(f"expected (V, n) vertices with n >= 3, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise InvalidParameterError("surface vertices must be finite")
        if f.ndim != 2 or f.shape[1] != 3 or f.shape[0] == 0:
            raise InvalidParameterError(f"expected nonempty (F, 3) face array, got {f.shape}")
        nv = v.shape[0]
        if f.min() < 0 or f.max() >= nv:
            raise InputInconsistentError("face index out of range")
        if np.any((f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 2] == f[:, 0])):
            raise InputInconsistentError("face repeats a vertex")
        used = np.zeros(nv, dtype=bool)
        used[f.ravel()] = True
        if not used.all():
            raise InputInconsistentError(
                f"{int((~used).sum())} vertices are not referenced by any face"
            )

        directed = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]], axis=0)
        key = directed[:, 0] * nv + directed[:, 1]
        uniq, counts = np.unique(key, return_counts=True)
        if np.any(counts > 1):
            raise InputInconsistentError(
                "a directed edge appears twice: mesh is non-manifold or not "
                "consistently orientable"
            )
        rev = directed[:, 1] * nv + directed[:, 0]
        has_partner = np.isin(key, rev, assume_unique=False)
        boundary_edges = directed[~has_partner]
        undirected = np.sort(directed, axis=1)
        edge_count = np.unique(undirected[:, 0] * nv + undirected[:, 1]).size

        loops = cls._chain_loops(boundary_edges, nv)
        bmask = np.zeros(nv, dtype=bool)
        for lp in loops:
            bmask[lp] = True

        areas = triangle_areas(v[f])
        sq_ext = float(((v.max(0) - v.min(0)) ** 2).sum())
        degenerate = int((areas <= 1e-14 * max(sq_ext, 1e-300)).sum())
        pva = np.zeros(nv)
        np.add.at(pva, f[:, 0], areas / 3.0)
        np.add.at(pva, f[:, 1], areas / 3.0)
        np.add.at(pva, f[:, 2], areas / 3.0)

        if (patch is None) != (params is None):
            raise InvalidParameterError("patch and params must be given together")
        if params is not None:
            params = np.array(params, dtype=np.float64)
            if params.shape != (nv, 2):
                raise InvalidParameterError(
                    f"params must be ({nv}, 2) to match the vertices, got {params.shape}"
                )
            if patch.dim != v.shape[1]:
                raise InvalidParameterError("patch ambient dimension mismatch")
            params.flags.writeable = False
        if face_params is not None:
            if params is None:
                raise InvalidParameterError("face_params requires params and patch")
            face_params = np.array(face_params, dtype=np.float64)
            if face_params.shape != (f.shape[0], 3, 2):
                raise InvalidParameterError(
                    f"face_params must be ({f.shape[0]}, 3, 2), got {face_params.shape}"
                )
            face_params.flags.writeable = False

        v.flags.writeable = False
        f.flags.writeable = False
        areas.flags.writeable = False
        pva.flags.writeable = False
        bmask.flags.writeable = False
        return cls(
            vertices=v,
            faces=f,
            face_areas=areas,
            per_vertex_area=pva,
            boundary_loops=loops,
            boundary_vertex_mask=bmask,
            degenerate_face_count=degenerate,
            edge_count=int(edge_count),
            patch=patch,
            params=params,
            face_params=face_params,
        )

    def face_param_triangles(self) -> np.ndarray:
        """Per-face parameter triangles (F, 3, 2); explicit ones win over
        vertex params (needed where the parametrization wraps a seam)."""
        if self.face_params is not None:
            return self.face_params
        if self.params is None:
            raise UnsupportedOperationError("surface has no parametrization")
        return self.params[self.faces]

    @staticmethod
    def _chain_loops(boundary_edges: np.ndarray, nv: int) -> tuple:
        if boundary_edges.shape[0] == 0:
            return ()
        heads = boundary_edges[:, 0]
        if np.unique(heads).size != heads.size:
            raise InputInconsistentError(
                "boundary pinches: a vertex has two outgoing boundary edges"
            )
        nxt = dict(zip(heads.tolist(), boundary_edges[:, 1].tolist()))
        loops = []
        visited: set[int] = set()
        for start in heads.tolist():
            if start in visited:
                continue
            loop = [start]
            visited.add(start)
            cur = nxt[start]
            while cur != start:
                if cur in visited or cur not in nxt:
                    raise InputInconsistentError("boundary edges do not close into loops")
                loop.append(cur)
                visited.add(cur)
                cur = nxt[cur]
            if len(loop) < 3:
                raise InputInconsistentError("boundary loop has fewer than 3 vertices")
            loops.append(np.asarray(loop, dtype=np.int64))
        return tuple(loops)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def total_area(self) -> float:
        return stable_sum(self.face_areas.tolist())

    @property
    def scale(self) -> float:
        ext = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        return max(float(np.linalg.norm(ext)), 1e-300)

    def edge_lengths(self) -> np.ndarray:
        v, f = self.vertices, self.faces
        e = np.concatenate(
            [v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 1]], v[f[:, 0]] - v[f[:, 2]]]
        )
        return np.linalg.norm(e, axis=1)

    def median_edge_length(self) -> float:
        return float(np.median(self.edge_lengths()))

    def face_triangles(self) -> np.ndarray:
        """All faces as a (F, 3, n) coordinate array."""
        return self.vertices[self.faces]

    def star_of(self, vertex: int) -> np.ndarray:
        """Faces incident to a vertex, as a (m, 3, n) coordinate array."""
        mask = (self.faces == vertex).any(axis=1)
        if not mask.any():
            raise InputInconsistentError(f"vertex {vertex} has no incident faces")
        return self.vertices[self.faces[mask]]


def nearest_vertex(surface: SurfaceModel, x0: PointN) -> tuple[int, float]:
    x0 = as_point(x0, dim=surface.dim)
    d = np.linalg.norm(surface.vertices - x0[None, :], axis=1)
    i = int(np.argmin(d))
    return i, float(d[i])


def boundary_distance(surface: SurfaceModel, x0: PointN) -> float:
    """Distance from x0 to the mesh boundary; +inf when the mesh is closed."""
    if not surface.boundary_loops:
        return math.inf
    x0 = as_point(x0, dim=surface.dim)
    best = math.inf
    for lp in surface.boundary_loops:
        a = surface.vertices[lp]
        b = surface.vertices[np.roll(lp, -1)]
        best = min(best, float(_point_segment_dist2(a, b, x0).min()))
    return math.sqrt(best)


def boundary_polyline(surface: SurfaceModel, loop_index: int = 0, corner_flags=None):
    """One boundary loop as a closed curve (raw polygon unless flags given)."""
    from .curves import PolylineCurve

    if not surface.boundary_loops:
        raise InputInconsistentError("surface has no boundary")
    if not (0 <= loop_index < len(surface.boundary_loops)):
        raise InvalidParameterError(
            f"loop_index {loop_index} out of range; surface has "
            f"{len(surface.boundary_loops)} boundary loops"
        )
    lp = surface.boundary_loops[loop_index]
    return PolylineCurve(surface.vertices[lp], closed=True, corner_flags=corner_flags)


def area_in_ball(surface: SurfaceModel, x0: PointN, r: float) -> float:
    """Area of the surface inside the ball of radius r around x0."""
    ball = Ball(as_point(x0, dim=surface.dim), r)
    return clip_areas_total(surface.face_triangles(), ball)


@dataclass(frozen=True)
class DensityEstimate:
    """Two-dimensional area density at a point, with how it was obtained."""

    value: float
    mode: str  # "pl_exact" or "extrapolated"
    x0: PointN
    radii: tuple = ()
    ratios: tuple = ()
    vertex_index: int | None = None
    note: str = ""


def _local_edge_length(surface: SurfaceModel, vertex: int) -> float:
    mask = (surface.faces == vertex).any(axis=1)
    f = surface.faces[mask]
    v = surface.vertices
    e = np.concatenate(
        [v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 1]], v[f[:, 0]] - v[f[:, 2]]]
    )
    return float(np.median(np.linalg.norm(e, axis=1)))


def density_estimate(
    surface: SurfaceModel,
    x0: PointN,
    mode: str = "auto",
    r1: float | None = None,
) -> DensityEstimate:
    """Area density of the surface at x0, with diagnostics.

    pl_exact reads the cone angle of the vertex star and divides by 2*pi; it
    is exact for the mesh itself and only valid when x0 is a mesh vertex.
    extrapolated measures area(B_r)/(pi r^2) at radii {r1, r1/2, r1/4} and
    removes the leading curvature bias by fitting ratio ~ c0 + c1 r^2 in
    least squares; the intercept c0 is the estimate. The default r1 is five
    local edge lengths, capped away from the boundary for interior points.
    """
    x0 = as_point(x0, dim=surface.dim)
    vi, dist = nearest_vertex(surface, x0)
    scale = surface.scale
    at_vertex = dist <= VERTEX_MATCH_REL_TOL * scale
    if mode == "auto":
        mode = "pl_exact" if at_vertex else "extrapolated"
    if mode == "pl_exact":
        if not at_vertex:
            raise InvalidParameterError(
                "pl_exact density needs x0 at a mesh vertex; nearest vertex is "
                f"{dist:.3g} away"
            )
        angle = vertex_total_angle(surface.star_of(vi), apex=surface.vertices[vi])
        note = "flat-PL interpretation" if surface.boundary_vertex_mask[vi] else ""
        return DensityEstimate(
            value=angle / (2.0 * math.pi),
            mode="pl_exact",
            x0=x0,
            vertex_index=vi,
            note=note,
        )
    if mode != "extrapolated":
        raise InvalidParameterError(f"unknown density mode {mode!r}")

    if r1 is None:
        r1 = 5.0 * _local_edge_length(surface, vi)
    if not (r1 > 0 and math.isfinite(r1)):
        raise InvalidParameterError("r1 must be positive and finite")
    d_boundary = boundary_distance(surface, x0)
    on_boundary = d_boundary <= VERTEX_MATCH_REL_TOL * scale
    if not on_boundary and r1 >= d_boundary:
        raise RadiusTooLargeError(
            f"r1 = {r1:.6g} reaches the boundary (distance {d_boundary:.6g})",
            suggested_radius=0.5 * d_boundary,
        )
    if r1 > 0.5 * scale:
        raise RadiusTooLargeError(
            f"r1 = {r1:.6g} is large relative to the surface extent {scale:.6g}",
            suggested_radius=0.25 * scale,
        )
    radii = (r1, 0.5 * r1, 0.25 * r1)
    tris = surface.face_triangles()
    ratios = tuple(clip_areas_total(tris, Ball(x0, r)) / (math.pi * r * r) for r in radii)
    design = np.array([[1.0, r * r] for r in radii])
    coef, *_ = np.linalg.lstsq(design, np.asarray(ratios), rcond=None)
    return DensityEstimate(
        value=float(coef[0]), mode="extrapolated", x0=x0, radii=radii, ratios=ratios
    )


def density(
    surface: SurfaceModel,
    x0: PointN,
    mode: str = "auto",
    r1: float | None = None,
) -> float:
    """Area density of the surface at x0 (see density_estimate for details)."""
    return density_estimate(surface, x0, mode=mode, r1=r1).value


def mean_curvature_field(
    surface: SurfaceModel, method: str = "auto"
) -> tuple[ScalarField, VectorField]:
    """Per-vertex |H| and mean curvature vector (trace convention: a sphere
    of radius R has |H| = 2/R).

    With an analytic patch the field is evaluated from the parametrization.
    The discrete fallback is the cotangent formula with barycentric vertex
    areas; boundary vertices and vertices touching degenerate faces carry no
    usable one-ring information and are flagged unreliable.
    """
    vec = _mean_curvature_vector(surface, method)
    return vec.norm, vec


def _mean_curvature_vector(surface: SurfaceModel, method: str = "auto") -> VectorField:
    if method == "auto":
        method = "analytic" if surface.patch is not None else "discrete"
    if method == "analytic":
        if surface.patch is None or surface.params is None:
            raise UnsupportedOperationError("analytic curvature needs a parametrized surface")
        out = surface.patch.curvature_at(surface.params)
        return VectorField(
            values=out["mean_curvature_vec"],
            provenance="analytic",
            unreliable=out["unreliable"],
        )
    if method != "discrete":
        raise InvalidParameterError(f"unknown curvature method {method!r}")

    v, f = surface.vertices, surface.faces
    nv = v.shape[0]
    acc = np.zeros_like(v)
    sq_ext = float(((v.max(0) - v.min(0)) ** 2).sum())
    degen_vertex = np.zeros(nv, dtype=bool)
    for c, (i, j) in ((0, (1, 2)), (1, (2, 0)), (2, (0, 1))):
        pc = v[f[:, c]]
        pi = v[f[:, i]]
        pj = v[f[:, j]]
        u = pi - pc
        w = pj - pc
        dot = np.einsum("kn,kn->k", u, w)
        uu = np.einsum("kn,kn->k", u, u)
        ww = np.einsum("kn,kn->k", w, w)
        cross2 = np.maximum(uu * ww - dot * dot, 0.0)
        bad = cross2 <= 1e-28 * max(sq_ext, 1e-300) ** 2
        cot = np.where(bad, 0.0, dot / np.sqrt(np.where(bad, 1.0, cross2)))
        degen_vertex[f[bad].ravel()] = True
        # cot at c weights the opposite edge (i, j)
        contrib = 0.5 * cot[:, None] * (pj - pi)
        np.add.at(acc, f[:, i], contrib)
        np.add.at(acc, f[:, j], -contrib)
    area = surface.per_vertex_area
    tiny = area <= 1e-14 * max(sq_ext, 1e-300)
    safe = np.where(tiny, 1.0, area)
    hvec = -acc / safe[:, None]
    unreliable = surface.boundary_vertex_mask | tiny | degen_vertex
    hvec = np.where(unreliable[:, None], 0.0, hvec)
    return VectorField(values=hvec, provenance="discrete", unreliable=unreliable)


def lp_norm(field: ScalarField, surface: SurfaceModel, p: float) -> float:
    """L^p norm of a per-vertex field over the surface area measure.

    p must exceed 2 (or be math.inf). Unreliable samples are excluded; their
    vertex area is dropped from the integral, which is documented behavior,
    not a bug: reliable samples only.
    """
    if field.values.shape[0] != surface.n_vertices:
        raise InvalidParameterError("field and surface vertex counts differ")
    if p == math.inf:
        return field.reliable_max()
    if not (p > 2):
        raise InvalidParameterError("lp_norm needs p > 2 or p = inf")
    good = ~field.unreliable
    if not good.any():
        raise InputInconsistentError("field has no reliable samples")
    vals = np.abs(field.values[good]) ** p
    weights = surface.per_vertex_area[good]
    return float(np.dot(vals, weights) ** (1.0 / p))


def extrinsic_diameter(surface: SurfaceModel) -> float:
    """Max pairwise vertex distance, chunked to bound memory."""
    v = surface.vertices
    n = v.shape[0]
    best = 0.0
    step = max(1, int(4e7 // max(n, 1)))
    for lo in range(0, n, step):
        block = v[lo : lo + step]
        d2 = ((block[:, None, :] - v[None, :, :]) ** 2).sum(-1)
        best = max(best, float(d2.max()))
    return math.sqrt(best)


def second_form_sup(surface: SurfaceModel, extra_samples: int = 0) -> float:
    """Sup of the second fundamental form norm over parameter samples.

    Needs an analytic patch; discrete meshes carry no trustworthy pointwise
    second-form information. Samples at the mesh's own parameter points and at
    all edge midpoints in parameter space.
    """
    if surface.patch is None or surface.params is None:
        raise UnsupportedOperationError(
            "second fundamental form requires an analytic parametrization"
        )
    p = surface.params
    f = surface.faces
    mids = np.concatenate(
        [
            0.5 * (p[f[:, 0]] + p[f[:, 1]]),
            0.5 * (p[f[:, 1]] + p[f[:, 2]]),
            0.5 * (p[f[:, 2]] + p[f[:, 0]]),
            (p[f[:, 0]] + p[f[:, 1]] + p[f[:, 2]]) / 3.0,
        ]
    )
    samples = np.concatenate([p, mids], axis=0)
    out = surface.patch.curvature_at(samples)
    good = ~out["unreliable"]
    if not good.any():
        raise InputInconsistentError("no reliable second-form samples")
    return float(out["second_form_norm"][good].max())


def euler_characteristic(surface: SurfaceModel) -> int:
    return surface.n_vertices - surface.edge_count + surface.n_faces


def genus(surface: SurfaceModel) -> int:
    """Genus from chi = 2 - 2g - b; the mesh is already known orientable."""
    b = len(surface.boundary_loops)
    chi = euler_characteristic(surface)
    twog = 2 - chi - b
    if twog < 0 or twog % 2 != 0:
        raise InputInconsistentError(
            f"Euler characteristic {chi} with {b} boundary loops is not a "
            "closed orientable surface with boundary"
        )
    return twog // 2
