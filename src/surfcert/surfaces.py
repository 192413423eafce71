"""Triangulated surfaces in R^n: validation, areas, densities, curvature.

A SurfaceModel is an oriented triangle mesh with boundary. Meshes may carry an
AnalyticPatch (a smooth parametrization plus per-vertex domain coordinates), in
which case curvature quantities come from derivatives of the parametrization;
otherwise they fall back to discrete estimators with reliability flags.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
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
    _angles_batch,
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
    "strip_faces",
]

VERTEX_MATCH_REL_TOL = 1e-9
# bytes of temporaries per block of the diameter's pairwise distances
_DIAMETER_BLOCK_BYTES = 1 << 25
# corner offsets (ring, column) of the two triangles of the quad (i, j)..(i + 1, j + 1)
_QUAD_RINGS = np.array([[0, 1, 1], [0, 1, 0]])
_QUAD_COLS = np.array([[0, 0, 1], [0, 1, 1]])


def strip_faces(rings: int, cols: int, periodic: bool, apex: bool):
    """Triangulate `rings` rings of `cols` vertices joined by strips of quads.

    With `apex` a single vertex, id 0 and ring 0, precedes the rings, which
    are then numbered 1..rings; without it they are numbered 0..rings - 1.
    Vertex (i, j) has id apex + (i - apex) * cols + j. A periodic ring joins
    its last column to column 0. The quad with low corner (i, j) splits into
    (i, j), (i + 1, j), (i + 1, j + 1) and (i, j), (i + 1, j + 1), (i, j + 1).
    The apex fan (0, (1, j), (1, j + 1)) comes first, then the strips ring
    by ring and column by column.

    Returns the (F, 3) faces and each corner's ring and unwrapped column,
    (F, 3) each: a periodic wrap has column `cols`, and an apex corner has
    the column of its fan wedge.
    """
    a = int(apex)
    n = cols if periodic else cols - 1
    low_ring = np.arange(a, a + rings - 1)[:, None, None, None]
    low_col = np.arange(n)[None, :, None, None]
    ring, col = (
        x.reshape(-1, 3)
        for x in np.broadcast_arrays(low_ring + _QUAD_RINGS, low_col + _QUAD_COLS)
    )
    if apex:
        ring = np.concatenate([np.broadcast_to([0, 1, 1], (n, 3)), ring])
        col = np.concatenate([np.arange(n)[:, None] + [0, 0, 1], col])
    faces = a + (ring - a) * cols + col % cols
    if apex:
        faces[ring == 0] = 0
    return faces, ring, col


@dataclass(frozen=True)
class AnalyticPatch:
    """Smooth immersion u: domain in R^2 -> R^n with first and second derivatives.

    All three callables are batched: they take (M, 2) parameter arrays and
    return (M, n), (M, n, 2), and (M, n, 2, 2) arrays. branch_points lists
    ((u, v), order) pairs where the immersion degenerates (order m >= 2);
    curvature samples within branch_radius of one are flagged unreliable
    rather than trusted.
    """

    u: Callable[[np.ndarray], np.ndarray]
    du: Callable[[np.ndarray], np.ndarray]
    d2u: Callable[[np.ndarray], np.ndarray]
    dim: int
    branch_points: tuple = ()
    branch_radius: float = 0.0

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

    @cached_property
    def norm(self) -> ScalarField:
        values = np.linalg.norm(self.values, axis=1)
        values.flags.writeable = False
        return ScalarField(
            values=values, provenance=self.provenance, unreliable=self.unreliable
        )


@dataclass(frozen=True)
class SurfaceModel:
    """Consistently oriented manifold triangle mesh, possibly with boundary.

    `build` validates the mesh and computes its areas and topology; the
    quantities derived from them (`diameter`, `mean_curvature`,
    `angle_sums`) are computed on first access and cached. `vertices` and
    `faces` are read-only, so a cached value cannot go stale, and cached
    arrays are read-only too.

    boundary_face_corners is a (B, 2) array over the boundary edges, loop by
    loop: for the edge loop[e] -> loop[e + 1], its face and the corner c of
    that face with faces[face, c] = loop[e].
    """

    vertices: np.ndarray
    faces: np.ndarray
    face_areas: np.ndarray = field(repr=False, default=None)
    per_vertex_area: np.ndarray = field(repr=False, default=None)
    boundary_loops: tuple = ()
    boundary_face_corners: np.ndarray = field(repr=False, default=None)
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
        key = np.sort(directed[:, 0] * nv + directed[:, 1])
        if np.any(key[1:] == key[:-1]):
            raise InputInconsistentError(
                "a directed edge appears twice: mesh is non-manifold or not "
                "consistently orientable"
            )
        # an edge's partner is its reverse, looked up among the sorted keys
        rev = directed[:, 1] * nv + directed[:, 0]
        at = np.minimum(np.searchsorted(key, rev), key.size - 1)
        boundary_ids = np.flatnonzero(key[at] != rev)
        boundary_edges = directed[boundary_ids]
        # directed edges are distinct, so an interior edge is two of them and
        # a boundary edge one
        edge_count = (directed.shape[0] + boundary_ids.size) // 2

        loops = cls._chain_loops(boundary_edges)
        bmask = np.zeros(nv, dtype=bool)
        for lp in loops:
            bmask[lp] = True
        # directed edge j runs from corner j // F of face j % F
        leaving = np.zeros(nv, dtype=np.int64)
        leaving[boundary_edges[:, 0]] = boundary_ids
        ids = leaving[np.concatenate(loops)] if loops else leaving[:0]
        corners = np.stack([ids % f.shape[0], ids // f.shape[0]], axis=1)

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
        corners.flags.writeable = False
        return cls(
            vertices=v,
            faces=f,
            face_areas=areas,
            per_vertex_area=pva,
            boundary_loops=loops,
            boundary_face_corners=corners,
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
    def _chain_loops(boundary_edges: np.ndarray) -> tuple:
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

    def face_triangles(self) -> np.ndarray:
        """All faces as a (F, 3, n) coordinate array."""
        return self.vertices[self.faces]

    @cached_property
    def diameter(self) -> float:
        """Max pairwise vertex distance, bit for bit the maximum over all
        pairs of the computed sqrt(sum_k (v_ik - v_jk)^2).

        With c the bounding-box centre and rc_i = |v_i - c|, the triangle
        inequality gives |v_i - v_j| <= rc_i + max rc, so both ends of the
        farthest pair have rc_i + max rc >= lb for any lower bound lb on the
        diameter. A double sweep from argmax rc gives lb as a computed
        pairwise distance; the vertices that pass the test are brute-forced
        in blocks of about _DIAMETER_BLOCK_BYTES of temporaries.

        The test's margin covers rounding (unit roundoff u, dimension n). A
        computed squared distance or rc^2 (n differences, n squares, n - 1
        additions) is within (n + 2) u of the true value, relative, plus
        n 2^-1075 absolute from squares that underflow; after the rounded
        square root, a computed distance or rc is within (n + 4) u / 2
        relative plus e = sqrt(n / 2) 2^-537 absolute. Let D be the largest
        computed distance, so lb <= D. For the pair attaining it, the
        computed rc_i + max rc is at least (1 - (n + 6) u / 2) times the true
        rc_i + max |v - c|, less 2e, and that sum is at least their true
        distance, itself at least (1 - (n + 4) u / 2) D - e. So the test
        rc_i + max rc >= lb (1 - 2 (n + 5) u) - 3e keeps both ends: the
        first-order loss is (n + 5) u, and the other (n + 5) u covers the
        rounding of the threshold and every second-order term. If a squared
        distance overflows, the sweep already holds the maximum, inf.
        """
        v = self.vertices
        n = v.shape[1]
        c = (v.max(axis=0) + v.min(axis=0)) / 2.0
        rc = np.sqrt(((v - c) ** 2).sum(-1))
        d2a = ((v - v[int(np.argmax(rc))]) ** 2).sum(-1)
        d2b = ((v - v[int(np.argmax(d2a))]) ** 2).sum(-1)
        best = max(float(d2a.max()), float(d2b.max()))
        u = np.finfo(np.float64).eps / 2.0
        e = math.sqrt(n / 2.0) * 2.0**-537
        w = v[rc + rc.max() >= math.sqrt(best) * (1.0 - 2.0 * (n + 5) * u) - 3.0 * e]
        step = max(1, _DIAMETER_BLOCK_BYTES // (8 * (2 * n + 1) * max(w.shape[0], 1)))
        for lo in range(0, w.shape[0], step):
            # d2(i, j) == d2(j, i) bit for bit, so each block meets only the
            # survivors from its own start on
            d2 = ((w[lo : lo + step, None, :] - w[None, lo:, :]) ** 2).sum(-1)
            best = max(best, float(d2.max()))
        return math.sqrt(best)

    @cached_property
    def angle_sums(self) -> np.ndarray:
        """Per-vertex sum of the corner angles of the incident faces.

        Divided by 2*pi this is the exact area density of the PL surface at
        the vertex. A corner with a zero-length edge has no angle and raises
        InvalidParameterError.
        """
        v, f = self.vertices, self.faces
        sums = np.zeros(self.n_vertices)
        for c in range(3):
            apex = v[f[:, c]]
            angles = _angles_batch(v[f[:, (c + 1) % 3]] - apex, v[f[:, (c + 2) % 3]] - apex)
            np.add.at(sums, f[:, c], angles)
        sums.flags.writeable = False
        return sums

    @cached_property
    def mean_curvature(self) -> VectorField:
        """Per-vertex mean curvature vector, analytic when a patch is present.

        The discrete fallback is the cotangent formula with barycentric vertex
        areas; boundary vertices and vertices touching degenerate faces carry
        no usable one-ring information and are flagged unreliable.
        """
        if self.patch is not None:
            out = self.patch.curvature_at(self.params)
            hvec, unreliable = out["mean_curvature_vec"], out["unreliable"]
            provenance = "analytic"
        else:
            v, f = self.vertices, self.faces
            acc = np.zeros_like(v)
            sq_ext = float(((v.max(0) - v.min(0)) ** 2).sum())
            degen_vertex = np.zeros(self.n_vertices, dtype=bool)
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
            area = self.per_vertex_area
            tiny = area <= 1e-14 * max(sq_ext, 1e-300)
            safe = np.where(tiny, 1.0, area)
            unreliable = self.boundary_vertex_mask | tiny | degen_vertex
            hvec = np.where(unreliable[:, None], 0.0, -acc / safe[:, None])
            provenance = "discrete"
        hvec.flags.writeable = False
        unreliable.flags.writeable = False
        return VectorField(values=hvec, provenance=provenance, unreliable=unreliable)

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
    local edge lengths; at a boundary point of a mesh too coarse for that
    (more than half the surface extent) it falls back to a tenth of the
    extent. An r1 that reaches the boundary from an interior point, or that
    exceeds half the extent, raises RadiusTooLargeError.
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
        note = "flat-PL interpretation" if surface.boundary_vertex_mask[vi] else ""
        return DensityEstimate(
            value=float(surface.angle_sums[vi]) / (2.0 * math.pi),
            mode="pl_exact",
            x0=x0,
            vertex_index=vi,
            note=note,
        )
    if mode != "extrapolated":
        raise InvalidParameterError(f"unknown density mode {mode!r}")

    d_boundary = boundary_distance(surface, x0)
    on_boundary = d_boundary <= VERTEX_MATCH_REL_TOL * scale
    if r1 is None:
        r1 = 5.0 * _local_edge_length(surface, vi)
        if on_boundary and r1 > 0.5 * scale:
            r1 = 0.1 * scale
    if not (r1 > 0 and math.isfinite(r1)):
        raise InvalidParameterError("r1 must be positive and finite")
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


def mean_curvature_field(surface: SurfaceModel) -> tuple[ScalarField, VectorField]:
    """Per-vertex |H| and mean curvature vector (trace convention: a sphere
    of radius R has |H| = 2/R); see SurfaceModel.mean_curvature.
    """
    vec = surface.mean_curvature
    return vec.norm, vec


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
    """Max pairwise vertex distance (SurfaceModel.diameter)."""
    return surface.diameter


def second_form_sup(surface: SurfaceModel) -> float:
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
