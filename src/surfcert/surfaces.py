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
    face_reach,
    stable_sum,
    triangle_areas,
    _angles_batch,
    _box_diagonal,
    _point_segment_dist2,
)

__all__ = [
    "SurfaceModel",
    "AnalyticPatch",
    "ScalarField",
    "DensityEstimate",
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

    partials(p, a, b) is the batched partial derivative of u taken a times in
    the first parameter and b times in the second, for a + b <= 2: it takes
    an (M, 2) parameter array and returns an (M, n) array.
    branch_points lists ((u, v), order) pairs where the immersion degenerates
    (order m >= 2); curvature samples within branch_radius of one are flagged
    unreliable rather than trusted.
    """

    partials: Callable[[np.ndarray, int, int], np.ndarray]
    dim: int
    branch_points: tuple = ()
    branch_radius: float = 0.0

    def u(self, p: np.ndarray) -> np.ndarray:
        return self.partials(p, 0, 0)

    def curvature_at(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """|H|, |A| and the unreliable mask, one entry per row of the (M, 2)
        parameter points.

        With e_u, e_v the first partials, the first fundamental form has
        E = e_u.e_u, F = e_u.e_v, G = e_v.e_v and det = EG - F^2. Each second
        partial s keeps its normal part
        n = s - [(G e_u.s - F e_v.s) e_u + (E e_v.s - F e_u.s) e_v] / det.
        With W = g^-1 and N the 2 x 2 matrix of the normal parts, m = W N per
        ambient component: the mean curvature vector is m11 + m22 and
        |A|^2 sums m11^2 + 2 m12 m21 + m22^2 over the components, in any
        ambient dimension. A sample where g is numerically singular, or
        within branch_radius of a branch point, is unreliable, and both of
        its norms are zero.
        """
        pts = np.asarray(pts, dtype=np.float64)
        eu, ev = self.partials(pts, 1, 0), self.partials(pts, 0, 1)
        E, F, G = ((x * y).sum(axis=1) for x, y in ((eu, eu), (eu, ev), (ev, ev)))
        det = E * G - F * F
        bad = det <= 1e-12 * np.maximum(E + G, 1e-300) ** 2
        safe_det = np.where(bad, 1.0, det)
        # the entries of W = g^-1, as columns against the (M, n) partials
        w11, w12, w22 = ((x / safe_det)[:, None] for x in (G, -F, E))

        def normal(s):
            su, sv = (eu * s).sum(axis=1)[:, None], (ev * s).sum(axis=1)[:, None]
            return s - (w11 * su + w12 * sv) * eu - (w12 * su + w22 * sv) * ev

        nuu, nuv, nvv = (normal(self.partials(pts, a, b)) for a, b in ((2, 0), (1, 1), (0, 2)))
        m11, m12 = w11 * nuu + w12 * nuv, w11 * nuv + w12 * nvv
        m21, m22 = w12 * nuu + w22 * nuv, w12 * nuv + w22 * nvv
        h_norm = np.sqrt(((m11 + m22) ** 2).sum(axis=1))
        a2 = (m11 * m11 + 2.0 * m12 * m21 + m22 * m22).sum(axis=1)
        a_norm = np.sqrt(np.maximum(a2, 0.0))
        if self.branch_points and self.branch_radius > 0:
            bp = np.asarray([q for q, _order in self.branch_points], dtype=np.float64)
            bp = bp.reshape(-1, 2)
            d2b = ((pts[:, None, :] - bp[None, :, :]) ** 2).sum(-1)
            bad = bad | (d2b.min(axis=1) <= self.branch_radius**2)
        return np.where(bad, 0.0, h_norm), np.where(bad, 0.0, a_norm), bad


@dataclass(frozen=True)
class ScalarField:
    """Per-vertex scalar samples with reliability flags."""

    values: np.ndarray
    unreliable: np.ndarray


@dataclass(frozen=True)
class SurfaceModel:
    """Consistently oriented manifold triangle mesh, possibly with boundary.

    `build` validates the mesh and computes its areas and topology; the
    quantities derived from them (`scale`, `diameter`, `mean_curvature` (the
    per-vertex |H| field), `angle_sums`, `face_spans`, `vertex_faces`) are
    computed on first access and cached. `vertices` and `faces` are
    read-only, so a cached value cannot go stale, and cached arrays are
    read-only too.

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

        # beyond about 1e77 the wedge product overflows, from 1e154 with a warning
        with np.errstate(over="ignore", invalid="ignore"):
            areas = triangle_areas(v[f])
        if not np.all(np.isfinite(areas)):
            raise InvalidParameterError("face areas overflow: coordinates are too large")
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

    @cached_property
    def scale(self) -> float:
        """Length of the bounding box's diagonal, at least 1e-300."""
        return _box_diagonal(self.vertices)

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
        # corner-major order adds each vertex's angles as np.add.at would, one
        # corner column after another
        sums = np.bincount(
            self.faces.T.ravel(),
            weights=_angles_batch(*self._corner_edges()).ravel(),
            minlength=self.n_vertices,
        )
        sums.flags.writeable = False
        return sums

    def _corner_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(u, w), each (n, 3, F): u[:, c, k] and w[:, c, k] run from corner c
        of face k to its corners c + 1 and c + 2 (mod 3), one coordinate per
        row."""
        p = np.take(self.vertices.T, self.faces.T, axis=1)
        return np.roll(p, -1, axis=1) - p, np.roll(p, -2, axis=1) - p

    @cached_property
    def face_spans(self) -> np.ndarray:
        """Per face, max(|v1 - v0|, |v2 - v0|) with v0, v1, v2 its corners.

        A face is the convex hull of its corners, so every point of it lies
        within its span of its first corner v0.
        """
        v, f = self.vertices, self.faces
        v0 = v[f[:, 0]]
        spans = np.maximum(
            np.linalg.norm(v[f[:, 1]] - v0, axis=1), np.linalg.norm(v[f[:, 2]] - v0, axis=1)
        )
        spans.flags.writeable = False
        return spans

    @cached_property
    def vertex_faces(self) -> tuple[np.ndarray, np.ndarray]:
        """Vertex-to-face incidence (start, ids): the faces around vertex i
        are ids[start[i]:start[i + 1]], in ascending order."""
        corners = self.faces.ravel()
        # a stable sort keeps each vertex's corners, and so its faces, in order
        ids = np.argsort(corners, kind="stable") // 3
        start = np.zeros(self.n_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(corners, minlength=self.n_vertices), out=start[1:])
        ids.flags.writeable = False
        start.flags.writeable = False
        return start, ids

    @cached_property
    def mean_curvature(self) -> ScalarField:
        """Per-vertex |H|, the mean curvature's norm, analytic when a patch is present.

        The discrete fallback is the cotangent formula with barycentric vertex
        areas; boundary vertices and vertices touching degenerate faces carry
        no usable one-ring information and are flagged unreliable.
        """
        if self.patch is not None:
            values, _, unreliable = self.patch.curvature_at(self.params)
        else:
            v, f = self.vertices, self.faces
            u, w = self._corner_edges()
            # einsum sums a contiguous row in an order of its own (coordinates
            # 0 + 2 and 1 + 3 first); on (3F, n) rows it gives the dot
            # products bit for bit as on the per-corner (F, n) rows
            ur, wr = (np.ascontiguousarray(e.reshape(self.dim, -1).T) for e in (u, w))
            dot, uu, ww = (
                np.einsum("kn,kn->k", a, b).reshape(3, -1) for a, b in ((ur, wr), (ur, ur), (wr, wr))
            )
            sq_ext = float(((v.max(0) - v.min(0)) ** 2).sum())
            cross2 = np.maximum(uu * ww - dot * dot, 0.0)
            bad = cross2 <= 1e-28 * max(sq_ext, 1e-300) ** 2
            cot = np.where(bad, 0.0, dot / np.sqrt(np.where(bad, 1.0, cross2)))
            degen_vertex = np.zeros(self.n_vertices, dtype=bool)
            degen_vertex[f[bad.any(axis=0)].ravel()] = True
            # cot at corner c weights the opposite edge u[:, c + 1], which runs
            # from corner c + 1 to c + 2: +w lands on c + 1 and -w on c + 2,
            # corner after corner, in the order np.add.at would add them
            half_cot = 0.5 * cot
            signed = np.empty((self.dim, 3, 2, f.shape[0]))
            for c in range(3):
                np.multiply(half_cot[c], u[:, (c + 1) % 3], out=signed[:, c, 0])
            np.negative(signed[:, :, 0], out=signed[:, :, 1])
            ends = f.T[[1, 2, 2, 0, 0, 1]].ravel()
            acc = np.array(
                [
                    np.bincount(ends, weights=x, minlength=self.n_vertices)
                    for x in signed.reshape(self.dim, -1)
                ]
            )
            area = self.per_vertex_area
            tiny = area <= 1e-14 * max(sq_ext, 1e-300)
            safe = np.where(tiny, 1.0, area)
            unreliable = self.boundary_vertex_mask | tiny | degen_vertex
            values = np.linalg.norm(np.where(unreliable, 0.0, -acc / safe), axis=0)
        values.flags.writeable = False
        unreliable.flags.writeable = False
        return ScalarField(values=values, unreliable=unreliable)


def _vertex_distances(surface: SurfaceModel, x0: PointN) -> np.ndarray:
    """The computed |v - x0| of every vertex; x0 a validated point."""
    return np.linalg.norm(surface.vertices - x0[None, :], axis=1)


def nearest_vertex(surface: SurfaceModel, x0: PointN) -> tuple[int, float]:
    x0 = as_point(x0, dim=surface.dim)
    d = _vertex_distances(surface, x0)
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
    return PolylineCurve(surface.vertices[lp], corner_flags=corner_flags)


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
    """Median length of the edges of the faces around `vertex`, each face's
    three edges counted."""
    start, ids = surface.vertex_faces
    f = surface.faces[ids[start[vertex] : start[vertex + 1]]]
    v = surface.vertices
    e = np.concatenate(
        [v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 1]], v[f[:, 0]] - v[f[:, 2]]]
    )
    return float(np.median(np.linalg.norm(e, axis=1)))


def _faces_meeting_ball(
    surface: SurfaceModel, x0: PointN, dist: np.ndarray, r: float
) -> np.ndarray:
    """Ascending ids of the faces a clip by the closed ball B(x0, r) can
    count; `dist` holds the computed |v - x0| of every vertex. Each face
    left out is one the clip counts zero at r and at every smaller radius,
    so clipping only these faces gives the same total, bit for bit.

    A face is the convex hull of its corners, so it lies within its span
    L = max(|v1 - v0|, |v2 - v0|) (`SurfaceModel.face_spans`) of its first
    corner v0, and with D = |v0 - x0| it misses the ball when D - L > r. The
    clip drops a face when the computed `point_triangle_dist2` and the
    computed squared distance of its farthest corner both exceed the
    computed r^2, so the test also covers rounding (unit roundoff u,
    dimension n, e = sqrt(n / 2) 2^-537 for squares that underflow):
    - whatever region `point_triangle_dist2` picks, it measures the distance
      to v0 + s e0 + t e1 with s, t >= 0 and s + t <= 1 + 2u, e0 and e1 the
      rounded edges from v0, or in its degenerate fallback to a point
      a + t (b - a) of an edge, t in [0, 1]. Such a point lies within
      (1 + 3u) L of v0, and evaluating it adds at most 3u |v0| + 5u L, with
      |v0| <= |x0| + D. The farthest corner is at least D away.
    - the differences, squares and sum of that squared distance lose at
      most (n + 2) u of it plus n 2^-1075, and r^2 rounds up by at most u,
      so the clip drops the face once it is more than
      r (1 + (n + 3) u / 2) + e away.
    - the computed D and L are within (n + 4) u / 2 of theirs, relative,
      plus e, and the subtraction adds u (D + L).
    With r < D + L on a dropped face, all of this is at most
    (n + 13) u (|x0| + D + L) + 3e to first order. The slack is twice that,
    from the computed values; the other half covers the rounding of the
    slack and of r + slack, and every second-order term. An overflowed
    distance makes the slack inf or the difference NaN, and keeps the face.
    """
    n = surface.dim
    u = np.finfo(np.float64).eps / 2.0
    e = math.sqrt(n / 2.0) * 2.0**-537
    lead = dist[surface.faces[:, 0]]
    spans = surface.face_spans
    slack = 2.0 * (n + 13) * u * (float(np.linalg.norm(x0)) + lead + spans) + 6.0 * e
    return np.flatnonzero(~(lead - spans > r + slack))


def density_estimate(surface: SurfaceModel, x0: PointN, mode: str = "auto") -> DensityEstimate:
    """Area density of the surface at x0, with diagnostics.

    pl_exact reads the cone angle of the vertex star and divides by 2*pi; it
    is exact for the mesh itself and only valid when x0 is a mesh vertex.
    extrapolated measures area(B_r)/(pi r^2) at radii {r1, r1/2, r1/4} and
    removes the leading curvature bias by fitting ratio ~ c0 + c1 r^2 in
    least squares; the intercept c0 is the estimate. r1 is five local edge
    lengths. At an interior point that radius reaches the boundary from, r1
    is half the boundary distance instead, and the note says so; at a
    boundary point of a mesh too coarse for it (more than half the surface
    extent), r1 is a tenth of the extent. An r1 beyond half the extent
    raises RadiusTooLargeError.

    The extrapolation reads only the faces near x0: one pass over the
    vertex distances, which finding the nearest vertex needs anyway, picks
    the faces whose first corner is close enough for them to meet the
    largest ball (`_faces_meeting_ball`), and only those are gathered,
    classified and clipped at the three radii in one `face_reach`. Every
    face left out is one the clip of the whole surface counts zero at all
    three radii, and the clip's total is an error-free sum, correctly
    rounded in any order, so the ratios are the whole surface's bit for bit.
    The local edge length reads the faces around the nearest vertex from the
    cached incidence (`SurfaceModel.vertex_faces`).
    """
    x0 = as_point(x0, dim=surface.dim)
    dist = _vertex_distances(surface, x0)
    vi = int(np.argmin(dist))
    scale = surface.scale
    at_vertex = dist[vi] <= VERTEX_MATCH_REL_TOL * scale
    if mode == "auto":
        mode = "pl_exact" if at_vertex else "extrapolated"
    if mode == "pl_exact":
        if not at_vertex:
            raise InvalidParameterError(
                "pl_exact density needs x0 at a mesh vertex; nearest vertex is "
                f"{dist[vi]:.3g} away"
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
    r1 = 5.0 * _local_edge_length(surface, vi)
    note = ""
    if d_boundary <= VERTEX_MATCH_REL_TOL * scale:
        if r1 > 0.5 * scale:
            r1 = 0.1 * scale
    elif r1 >= d_boundary:
        r1 = 0.5 * d_boundary
        note = f"r1 = {r1:.6g} is half the boundary distance: five local edge lengths reach it"
    if r1 > 0.5 * scale:
        raise RadiusTooLargeError(
            f"r1 = {r1:.6g} is large relative to the surface extent {scale:.6g}",
            suggested_radius=0.25 * scale,
        )
    radii = (r1, 0.5 * r1, 0.25 * r1)
    ids = _faces_meeting_ball(surface, x0, dist, r1)
    tris = surface.vertices[surface.faces[ids]]
    reach = face_reach(tris, x0, surface.face_areas[ids], radii)
    ratios = tuple(clip_areas_total(tris, Ball(x0, r), reach) / (math.pi * r * r) for r in radii)
    design = np.array([[1.0, r * r] for r in radii])
    coef, *_ = np.linalg.lstsq(design, np.asarray(ratios), rcond=None)
    return DensityEstimate(
        value=float(coef[0]), mode="extrapolated", x0=x0, radii=radii, ratios=ratios, note=note
    )


def mean_curvature_field(surface: SurfaceModel) -> ScalarField:
    """Per-vertex |H| (trace convention: a sphere of radius R has |H| = 2/R);
    see SurfaceModel.mean_curvature.
    """
    return surface.mean_curvature


def lp_norm(field: ScalarField, surface: SurfaceModel, p: float) -> float:
    """L^p norm of a per-vertex field over the surface area measure.

    p must exceed 2 or be math.inf. Unreliable samples are left out of the
    integral, and so is their vertex area.
    """
    if field.values.shape[0] != surface.n_vertices:
        raise InvalidParameterError("field and surface vertex counts differ")
    if not (p == math.inf or p > 2):
        raise InvalidParameterError("lp_norm needs p > 2 or p = inf")
    good = ~field.unreliable
    if not good.any():
        raise InputInconsistentError("field has no reliable samples")
    vals = np.abs(field.values[good])
    top = float(vals.max())
    if p == math.inf or top == 0.0:
        return top
    # vals**p under- or overflows at scales build accepts; dividing first by
    # the power of two just above the largest value keeps every power in
    # [0, 1] and rounds nothing but subnormal quotients
    unit = math.ldexp(1.0, math.frexp(top)[1])
    return unit * float(np.dot((vals / unit) ** p, surface.per_vertex_area[good]) ** (1.0 / p))


def extrinsic_diameter(surface: SurfaceModel) -> float:
    """Max pairwise vertex distance (SurfaceModel.diameter)."""
    return surface.diameter


def second_form_sup(surface: SurfaceModel) -> float:
    """Sup of the second fundamental form norm over parameter samples.

    Needs an analytic patch; discrete meshes carry no trustworthy pointwise
    second-form information. Samples at the mesh's own parameter points,
    then at every face's three edge midpoints and its centroid, taken in the
    face's parameter triangle (`SurfaceModel.face_param_triangles`, so a
    face across a seam is sampled inside itself).
    """
    if surface.patch is None or surface.params is None:
        raise UnsupportedOperationError(
            "second fundamental form requires an analytic parametrization"
        )
    t = surface.face_param_triangles()
    a, b, c = t[:, 0], t[:, 1], t[:, 2]
    samples = np.concatenate(
        [surface.params, 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a), (a + b + c) / 3.0]
    )
    _, a_norm, unreliable = surface.patch.curvature_at(samples)
    good = ~unreliable
    if not good.any():
        raise InputInconsistentError("no reliable second-form samples")
    return float(a_norm[good].max())


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
