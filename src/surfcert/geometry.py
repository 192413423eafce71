"""Dimension-agnostic primitives: points, balls, triangles, sphere clipping.

Everything here works in ambient dimension n >= 3. A point is a 1-D float64
array; batches of triangles are (K, 3, n) arrays. Accumulations that feed
measures use error-free summation (math.fsum) in a fixed order so results are
bit-stable across runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputInconsistentError, InvalidParameterError

__all__ = [
    "PointN",
    "Ball",
    "Triangle",
    "as_point",
    "angle_between",
    "stable_sum",
    "triangle_area",
    "triangle_areas",
    "clip_area_in_ball",
    "clip_areas",
    "clip_areas_total",
    "vertex_total_angle",
    "subdivide4",
    "point_triangle_dist2",
    "DEGENERATE_REL_TOL",
]

PointN = np.ndarray

# area below this multiple of the squared diameter counts as zero-area
DEGENERATE_REL_TOL = 1e-14


def as_point(coords, dim: int | None = None) -> PointN:
    """Validate and freeze a point: finite float64, length n >= 3.

    Parameters
    ----------
    coords : array-like of shape (n,)
    dim : expected dimension, or None to accept any n >= 3.
    """
    p = np.array(coords, dtype=np.float64).reshape(-1)
    if p.size < 3:
        raise InvalidParameterError(f"points need n >= 3 coordinates, got {p.size}")
    if not np.all(np.isfinite(p)):
        raise InvalidParameterError("point coordinates must be finite")
    if dim is not None and p.size != dim:
        raise InputInconsistentError(f"expected dimension {dim}, got {p.size}")
    p.flags.writeable = False
    return p


def stable_sum(values) -> float:
    """Error-free summation in the given (fixed) order."""
    return math.fsum(values)


def angle_between(u, v) -> float:
    """Angle in [0, pi] between nonzero vectors, stable near 0 and pi."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise InvalidParameterError("angle undefined for zero vector")
    a = u / nu
    b = v / nv
    # half-angle form: atan2 of chord lengths, exact at both ends of [0, pi]
    return 2.0 * math.atan2(float(np.linalg.norm(a - b)), float(np.linalg.norm(a + b)))


def _angles_batch(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rowwise angle_between for (K, n) stacks; rows must be nonzero."""
    nu = np.linalg.norm(u, axis=-1, keepdims=True)
    nv = np.linalg.norm(v, axis=-1, keepdims=True)
    a = u / nu
    b = v / nv
    return 2.0 * np.arctan2(
        np.linalg.norm(a - b, axis=-1), np.linalg.norm(a + b, axis=-1)
    )


@dataclass(frozen=True)
class Ball:
    """Closed ball in R^n."""

    center: PointN
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        r = float(self.radius)
        if not (math.isfinite(r) and r > 0.0):
            raise InvalidParameterError(f"ball radius must be finite and positive, got {r}")
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return self.center.size


@dataclass(frozen=True)
class Triangle:
    """Triangle in R^n with a winding orientation sign.

    Degenerate (collinear) triangles are legal; they are flagged and measure
    zero rather than raising.
    """

    vertices: np.ndarray  # (3, n)
    orientation: int = 1

    def __post_init__(self):
        v = np.array(self.vertices, dtype=np.float64)
        if v.shape[0] != 3 or v.ndim != 2:
            raise InvalidParameterError(f"triangle needs 3 vertices, got shape {v.shape}")
        if v.shape[1] < 3:
            raise InvalidParameterError("triangle vertices need n >= 3 coordinates")
        if not np.all(np.isfinite(v)):
            raise InvalidParameterError("triangle vertices must be finite")
        if self.orientation not in (-1, 1):
            raise InvalidParameterError("orientation must be +1 or -1")
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def area(self) -> float:
        return triangle_area(self)

    @property
    def degenerate(self) -> bool:
        return triangle_area(self) == 0.0


def triangle_areas(verts: np.ndarray) -> np.ndarray:
    """Areas of a (K, 3, n) stack via the Gram determinant (any n)."""
    e1 = verts[:, 1] - verts[:, 0]
    e2 = verts[:, 2] - verts[:, 0]
    g11 = np.einsum("kn,kn->k", e1, e1)
    g22 = np.einsum("kn,kn->k", e2, e2)
    g12 = np.einsum("kn,kn->k", e1, e2)
    det = g11 * g22 - g12 * g12
    return 0.5 * np.sqrt(np.maximum(det, 0.0))


def subdivide4(verts: np.ndarray, levels: int = 1) -> np.ndarray:
    """Midpoint 4-way subdivision of a (K, 3, n) stack, repeated `levels` times.

    Row order is deterministic (children of row k land at k, K+k, 2K+k, 3K+k),
    so parallel stacks (coordinates and parameters, say) stay aligned when
    subdivided separately.
    """
    out = np.asarray(verts, dtype=np.float64)
    for _ in range(int(levels)):
        a, b, c = out[:, 0], out[:, 1], out[:, 2]
        ab = 0.5 * (a + b)
        bc = 0.5 * (b + c)
        ca = 0.5 * (c + a)
        out = np.concatenate(
            [
                np.stack([a, ab, ca], axis=1),
                np.stack([ab, b, bc], axis=1),
                np.stack([ca, bc, c], axis=1),
                np.stack([ab, bc, ca], axis=1),
            ]
        )
    return out


def _sq_diameters(verts: np.ndarray) -> np.ndarray:
    d01 = ((verts[:, 1] - verts[:, 0]) ** 2).sum(-1)
    d12 = ((verts[:, 2] - verts[:, 1]) ** 2).sum(-1)
    d20 = ((verts[:, 0] - verts[:, 2]) ** 2).sum(-1)
    return np.maximum(np.maximum(d01, d12), d20)


def triangle_area(t: Triangle) -> float:
    """Area of one triangle; collapses to 0.0 below the degeneracy floor."""
    verts = t.vertices[None, :, :]
    a = float(triangle_areas(verts)[0])
    if a < DEGENERATE_REL_TOL * float(_sq_diameters(verts)[0]):
        return 0.0
    return a


def _point_segment_dist2(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Squared distance from point p to segments [a, b]; a, b are (K, n)."""
    ab = b - a
    denom = np.einsum("kn,kn->k", ab, ab)
    ap = p[None, :] - a
    num = np.einsum("kn,kn->k", ap, ab)
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(denom > 0.0, num / np.where(denom > 0.0, denom, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    closest = a + t[:, None] * ab
    return ((closest - p[None, :]) ** 2).sum(-1)


def point_triangle_dist2(verts: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Squared distance from p to each triangle of a (K, 3, n) stack.

    Clamped-barycentric region walk; degenerate rows fall back to the minimum
    of the three edge distances.
    """
    base = verts[:, 0]
    e0 = verts[:, 1] - base
    e1 = verts[:, 2] - base
    dv = base - p[None, :]
    a = np.einsum("kn,kn->k", e0, e0)
    b = np.einsum("kn,kn->k", e0, e1)
    c = np.einsum("kn,kn->k", e1, e1)
    d = np.einsum("kn,kn->k", e0, dv)
    e = np.einsum("kn,kn->k", e1, dv)
    det = a * c - b * b
    s = b * e - c * d
    t = b * d - a * e

    scale = np.maximum(a, c)
    ok = det > 1e-14 * scale * scale
    dets = np.where(ok, det, 1.0)

    s_out = np.empty_like(a)
    t_out = np.empty_like(a)

    inner = s + t <= det
    with np.errstate(invalid="ignore", divide="ignore"):
        # region 0
        r0 = inner & (s >= 0) & (t >= 0)
        s_out = np.where(r0, s / dets, 0.0)
        t_out = np.where(r0, t / dets, 0.0)
        # region 3/4 share s = 0 treatment; region 5 has t = 0
        r4 = inner & (s < 0) & (t < 0)
        r3 = inner & (s < 0) & (t >= 0)
        r5 = inner & (s >= 0) & (t < 0)
        csafe = np.where(c > 0, c, 1.0)
        asafe = np.where(a > 0, a, 1.0)
        t3 = np.clip(-e / csafe, 0.0, 1.0)
        s5 = np.clip(-d / asafe, 0.0, 1.0)
        s_out = np.where(r3, 0.0, s_out)
        t_out = np.where(r3, t3, t_out)
        s_out = np.where(r5, s5, s_out)
        t_out = np.where(r5, 0.0, t_out)
        use_s = d < 0
        s_out = np.where(r4, np.where(use_s, s5, 0.0), s_out)
        t_out = np.where(r4, np.where(use_s, 0.0, t3), t_out)
        # outer regions
        denom_q = a - 2.0 * b + c
        dq = np.where(denom_q > 0, denom_q, 1.0)
        r1 = ~inner & (s >= 0) & (t >= 0)
        numer1 = c + e - b - d
        s1 = np.clip(numer1 / dq, 0.0, 1.0)
        s1 = np.where(numer1 <= 0, 0.0, s1)
        s_out = np.where(r1, s1, s_out)
        t_out = np.where(r1, 1.0 - s1, t_out)
        r2 = ~inner & (s < 0)
        tmp0 = b + d
        tmp1 = c + e
        s2 = np.clip((tmp1 - tmp0) / dq, 0.0, 1.0)
        use_edge = tmp1 > tmp0
        s_out = np.where(r2, np.where(use_edge, s2, 0.0), s_out)
        t_out = np.where(r2, np.where(use_edge, 1.0 - s2, t3), t_out)
        r6 = ~inner & (s >= 0) & (t < 0)
        tmp0b = b + e
        tmp1b = a + d
        t6 = np.clip((tmp1b - tmp0b) / dq, 0.0, 1.0)
        use_edge6 = tmp1b > tmp0b
        t_out = np.where(r6, np.where(use_edge6, t6, 0.0), t_out)
        s_out = np.where(r6, np.where(use_edge6, 1.0 - t6, s5), s_out)

    closest = base + s_out[:, None] * e0 + t_out[:, None] * e1
    dist2 = ((closest - p[None, :]) ** 2).sum(-1)

    if not np.all(ok):
        # degenerate: min over the 3 edges
        bad = ~ok
        vb = verts[bad]
        d2 = np.minimum(
            _point_segment_dist2(vb[:, 0], vb[:, 1], p),
            np.minimum(
                _point_segment_dist2(vb[:, 1], vb[:, 2], p),
                _point_segment_dist2(vb[:, 2], vb[:, 0], p),
            ),
        )
        dist2 = dist2.copy()
        dist2[bad] = d2
    return dist2


def _edge_fan_areas(ax, ay, bx, by, rho2):
    """Signed area of triangle (0, A, B) ∩ disk(0, sqrt(rho2)), rowwise.

    The segment A + t d, d = B - A, meets the circle at t1 <= t2; clamped to
    [0, 1] they split it into a sector, a chord triangle and a sector (a
    single sector from A to B when it misses). Every cross product along the
    segment is (t - s) cross(A, d), which keeps the angles accurate to a few
    ulps even when the edge is short against rho.
    """
    dx, dy = bx - ax, by - ay
    a = dx * dx + dy * dy
    b = ax * dx + ay * dy
    s = np.sqrt(np.maximum(b * b - a * (ax * ax + ay * ay - rho2), 0.0))
    t1 = np.clip((-b - s) / a, 0.0, 1.0)
    t2 = np.clip((-b + s) / a, 0.0, 1.0)
    cross = ax * dy - ay * dx
    # + 0.0 turns a -0.0 dot product at the foot into +0.0: atan2(0, -0.0)
    # is pi and would add a spurious half disk
    theta_in = np.arctan2(t1 * cross, ax * (ax + t1 * dx) + ay * (ay + t1 * dy) + 0.0)
    theta_out = np.arctan2((1.0 - t2) * cross, (ax + t2 * dx) * bx + (ay + t2 * dy) * by + 0.0)
    return 0.5 * ((t2 - t1) * cross + rho2 * (theta_in + theta_out))


def _straddling_areas(rel: np.ndarray, r2: float) -> np.ndarray:
    """Exact area of each triangle of a (K, 3, n) stack inside the ball of
    squared radius r2 centred at the origin; rows must be nondegenerate.

    The triangle's plane meets the ball in a disk of squared radius
    rho2 = r2 - h^2, h the distance from the centre to the plane. In an
    orthonormal in-plane frame built from the longest edge, with the origin
    at the foot of the centre, the area is the sum over the three edges of
    the signed area of (foot, edge) ∩ disk.
    """
    k = rel.shape[0]
    lengths = ((np.roll(rel, -1, axis=1) - rel) ** 2).sum(-1)  # edge i: v_i -> v_i+1
    # rotate the vertices cyclically (orientation kept) so v0 -> v1 is longest
    order = (np.argmax(lengths, axis=1)[:, None] + np.arange(3)) % 3
    rel = rel[np.arange(k)[:, None], order]
    e1 = rel[:, 1] - rel[:, 0]
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = rel[:, 2] - rel[:, 0]
    e2 -= np.einsum("kn,kn->k", e2, e1)[:, None] * e1
    e2 /= np.linalg.norm(e2, axis=1, keepdims=True)
    x = np.einsum("kvn,kn->kv", rel, e1)
    y = np.einsum("kvn,kn->kv", rel, e2)
    foot = rel[:, 0] - x[:, :1] * e1 - y[:, :1] * e2
    rho2 = np.maximum(r2 - (foot**2).sum(-1), 0.0)
    xn, yn = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
    return _edge_fan_areas(x, y, xn, yn, rho2[:, None]).sum(axis=1)


def clip_areas(verts: np.ndarray, ball: Ball) -> np.ndarray:
    """Exact area of each triangle of a (K, 3, n) stack inside a ball.

    Faces with every vertex inside the ball (the ball is convex) count
    whole; faces farther from the centre than the radius count zero;
    degenerate faces (area below DEGENERATE_REL_TOL times the squared
    diameter) count zero. The rest go through the closed form of
    `_straddling_areas`, clamped to [0, area].
    """
    verts = np.asarray(verts, dtype=np.float64)
    if verts.ndim != 3 or verts.shape[1] != 3:
        raise InvalidParameterError(f"expected (K, 3, n) triangle stack, got {verts.shape}")
    if verts.shape[2] != ball.dim:
        raise InputInconsistentError(
            f"triangles have dimension {verts.shape[2]}, ball has {ball.dim}"
        )
    areas = triangle_areas(verts)
    live = (areas > 0.0) & (areas >= DEGENERATE_REL_TOL * _sq_diameters(verts))
    r2 = ball.radius * ball.radius
    inside = live & np.all(((verts - ball.center) ** 2).sum(-1) <= r2, axis=1)
    out = np.where(inside, areas, 0.0)
    rest = np.nonzero(live & ~inside)[0]
    rest = rest[point_triangle_dist2(verts[rest], ball.center) <= r2]
    out[rest] = np.clip(_straddling_areas(verts[rest] - ball.center, r2), 0.0, areas[rest])
    return out


def clip_areas_total(verts: np.ndarray, ball: Ball) -> float:
    """Exact total area of the (K, 3, n) triangle stack inside a ball.

    The error-free sum, in face order, of `clip_areas`; exact up to
    floating-point rounding in any dimension n >= 3.
    """
    return stable_sum(clip_areas(verts, ball).tolist())


def clip_area_in_ball(t: Triangle, b: Ball) -> float:
    """Exact area of triangle ∩ ball, within [0, area(t)].

    Degenerate triangles measure zero.
    """
    if t.dim != b.dim:
        raise InputInconsistentError(f"triangle dim {t.dim} != ball dim {b.dim}")
    return clip_areas_total(t.vertices[None, :, :], b)


def _match_vertex(tri: np.ndarray, p: np.ndarray, tol: float) -> int | None:
    d = np.linalg.norm(tri - p[None, :], axis=1)
    i = int(np.argmin(d))
    return i if d[i] <= tol else None


def vertex_total_angle(star, apex: PointN | None = None) -> float:
    """Sum of the apex angles of a triangle star around its shared vertex.

    The apex is inferred as the vertex common to every triangle of the star.
    Two-triangle stars can share a whole edge, which makes the common vertex
    ambiguous; pass ``apex`` explicitly in that case.

    For a star cut from a flat PL surface this is 2*pi times the area density
    of the surface at the vertex (2*pi at a flat interior vertex, pi along a
    straight boundary, 2*pi*k at a k-fold covering vertex).
    """
    tris = [t.vertices if isinstance(t, Triangle) else np.asarray(t, dtype=np.float64) for t in star]
    if len(tris) == 0:
        raise InvalidParameterError("empty star")
    dims = {t.shape[1] for t in tris}
    if len(dims) != 1:
        raise InputInconsistentError("star triangles live in different dimensions")
    scale = max(float(np.sqrt(_sq_diameters(t[None, :, :]))[0]) for t in tris)
    tol = 1e-12 * max(scale, 1e-300)

    if apex is None:
        candidates = []
        for i in range(3):
            p = tris[0][i]
            if all(_match_vertex(t, p, tol) is not None for t in tris):
                candidates.append(p)
        # deduplicate coincident candidates
        unique: list[np.ndarray] = []
        for p in candidates:
            if not any(np.linalg.norm(p - q) <= tol for q in unique):
                unique.append(p)
        if len(unique) == 0:
            raise InputInconsistentError("star triangles share no common vertex")
        if len(unique) > 1:
            raise InvalidParameterError(
                "shared vertex is ambiguous for this star; pass apex explicitly"
            )
        apex = unique[0]
    else:
        apex = as_point(apex, dim=tris[0].shape[1])

    angles = []
    for t in tris:
        i = _match_vertex(t, apex, tol)
        if i is None:
            raise InputInconsistentError("a star triangle does not contain the apex")
        u = t[(i + 1) % 3] - apex
        w = t[(i + 2) % 3] - apex
        angles.append(angle_between(u, w))
    return stable_sum(angles)
