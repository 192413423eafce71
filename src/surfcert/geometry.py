"""Dimension-agnostic primitives: points, balls, triangle stacks, sphere clipping,
overlapping box pairs.

Everything here works in ambient dimension n >= 3. A point is a 1-D float64
array; batches of triangles are (K, 3, n) arrays. Accumulations that feed
measures use error-free summation (math.fsum) in a fixed order so results are
bit-stable across runs.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputInconsistentError, InvalidParameterError

__all__ = [
    "PointN",
    "Ball",
    "as_point",
    "angle_between",
    "stable_sum",
    "triangle_areas",
    "clip_areas",
    "clip_areas_total",
    "FaceReach",
    "face_reach",
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
    return float(_angles_batch(np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)))


def _angles_batch(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """angle_between for (n, ...) stacks, axis 0 holding the coordinates; a
    zero vector raises. Each norm sums its n squares in coordinate order."""
    nu = np.linalg.norm(u, axis=0)
    nv = np.linalg.norm(v, axis=0)
    if not (np.all(nu > 0.0) and np.all(nv > 0.0)):
        raise InvalidParameterError("angle undefined for zero vector")
    a = u / nu
    b = v / nv
    # half-angle form: atan2 of chord lengths, exact at both ends of [0, pi]
    return 2.0 * np.arctan2(np.linalg.norm(a - b, axis=0), np.linalg.norm(a + b, axis=0))


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


def triangle_areas(verts: np.ndarray) -> np.ndarray:
    """Areas of a (K, 3, n) stack: half the norm of the wedge product e1∧e2.

    Its components e1_i e2_j - e1_j e2_i (i < j) are the 2x2 minors, the
    cross product in R^3. Unlike the Gram determinant g11 g22 - g12^2, the sum
    of their squares does not cancel on thin faces: the error stays near
    u L^2 (L the longest edge) whatever the shape.
    """
    e1 = verts[:, 1] - verts[:, 0]
    e2 = verts[:, 2] - verts[:, 0]
    i, j = np.triu_indices(verts.shape[2], 1)
    w = e1[:, i] * e2[:, j] - e1[:, j] * e2[:, i]
    return 0.5 * np.sqrt(np.einsum("kp,kp->k", w, w))


def subdivide4(verts: np.ndarray) -> np.ndarray:
    """Midpoint 4-way subdivision of a (K, 3, n) stack.

    Row order is deterministic (children of row k land at k, K+k, 2K+k, 3K+k),
    so parallel stacks (coordinates and parameters, say) stay aligned when
    subdivided separately.
    """
    verts = np.asarray(verts, dtype=np.float64)
    a, b, c = verts[:, 0], verts[:, 1], verts[:, 2]
    ab = 0.5 * (a + b)
    bc = 0.5 * (b + c)
    ca = 0.5 * (c + a)
    return np.concatenate(
        [
            np.stack([a, ab, ca], axis=1),
            np.stack([ab, b, bc], axis=1),
            np.stack([ca, bc, c], axis=1),
            np.stack([ab, bc, ca], axis=1),
        ]
    )


def _box_diagonal(points: np.ndarray) -> float:
    """Length of the (K, n) points' bounding-box diagonal, at least 1e-300."""
    return max(float(np.linalg.norm(points.max(axis=0) - points.min(axis=0))), 1e-300)


def _sq_diameters(verts: np.ndarray) -> np.ndarray:
    d01 = ((verts[:, 1] - verts[:, 0]) ** 2).sum(-1)
    d12 = ((verts[:, 2] - verts[:, 1]) ** 2).sum(-1)
    d20 = ((verts[:, 0] - verts[:, 2]) ** 2).sum(-1)
    return np.maximum(np.maximum(d01, d12), d20)


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


def _straddling_areas(rel: np.ndarray, r2) -> np.ndarray:
    """Exact area of each triangle of a (K, 3, n) stack inside the ball of
    squared radius r2 centred at the origin; rows must be nondegenerate.

    r2 is one float for every row or a (K,) array, one per row, so one call
    clips a centre's faces at many radii. Every operation is rowwise, so a
    row's area does not depend on the other rows: it is bit-identical
    whether the row is clipped alone or in a stack.

    The triangle's plane meets the ball in a disk of squared radius
    rho2 = r2 - h^2, h the distance from the centre to the plane. In an
    orthonormal in-plane frame built from the longest edge, with the origin
    at the foot of the centre, the area is the sum over the three edges of
    the signed area of (foot, edge) ∩ disk.
    """
    k = rel.shape[0]
    nxt = [1, 2, 0]
    lengths = ((rel[:, nxt] - rel) ** 2).sum(-1)  # edge i: v_i -> v_i+1
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
    return _edge_fan_areas(x, y, x[:, nxt], y[:, nxt], rho2[:, None]).sum(axis=1)


def _triangle_stack(verts, dim: int) -> np.ndarray:
    verts = np.asarray(verts, dtype=np.float64)
    if verts.ndim != 3 or verts.shape[1] != 3:
        raise InvalidParameterError(f"expected (K, 3, n) triangle stack, got {verts.shape}")
    if verts.shape[2] != dim:
        raise InputInconsistentError(
            f"triangles have dimension {verts.shape[2]}, the ball centre has {dim}"
        )
    return verts


@dataclass(frozen=True)
class FaceReach:
    """How far each face of a (K, 3, n) stack reaches from one centre, and
    the stack's clips at the radii it was built for.

    areas: the wedge-product areas (`triangle_areas`); longest2: the squared
    length of each face's longest edge (`_sq_diameters`); live: the faces
    whose area is at least DEGENERATE_REL_TOL times longest2; near2: the
    squared distance from the centre to the nearest point of the face
    (`point_triangle_dist2`); far2: the squared distance to its farthest
    vertex. A ball of squared radius r2 about the centre holds a live face
    whole when far2 <= r2 (the ball is convex) and misses it when
    near2 > r2; only the faces in between need the closed form. clips maps
    each radius r the reach was built with to (inside, crossing, part): the
    mask of the live faces the ball of radius r holds whole, the indices of
    the live faces its sphere crosses, ascending, and the exact area of
    each of those inside the ball.
    """

    center: PointN
    areas: np.ndarray
    longest2: np.ndarray
    live: np.ndarray
    near2: np.ndarray
    far2: np.ndarray
    clips: dict


def face_reach(
    verts: np.ndarray, center, areas: np.ndarray | None = None, radii=()
) -> FaceReach:
    """Classify a (K, 3, n) stack once about `center` and clip it at `radii`.

    `areas` may pass the stack's `triangle_areas` when they are already known
    (a surface's `face_areas`); they are computed otherwise. The faces each
    sphere crosses are clipped here, in one `_straddling_areas` call over
    every (radius, crossing face) row with that row's r^2; `clip_areas` and
    `clip_areas_total` read the result, and only at these radii.
    """
    center = as_point(center)
    verts = _triangle_stack(verts, center.size)
    if areas is None:
        areas = triangle_areas(verts)
    areas = np.asarray(areas, dtype=np.float64)
    if areas.shape != verts.shape[:1]:
        raise InputInconsistentError(
            f"areas of shape {areas.shape} for {verts.shape[0]} triangles"
        )
    radii = tuple(float(r) for r in radii)
    if not all(math.isfinite(r) and r > 0.0 for r in radii):
        raise InvalidParameterError(f"clip radii must be finite and positive, got {radii}")
    longest2 = _sq_diameters(verts)
    live = (areas > 0.0) & (areas >= DEGENERATE_REL_TOL * longest2)
    near2 = point_triangle_dist2(verts, center)
    far2 = ((verts - center) ** 2).sum(-1).max(axis=1)
    clips = {}
    if radii:
        inside = [live & (far2 <= r * r) for r in radii]
        crossing = [np.flatnonzero(live & ~i & (near2 <= r * r)) for i, r in zip(inside, radii)]
        sizes = [c.size for c in crossing]
        face = np.concatenate(crossing)
        r2 = np.array([r * r for r in radii]).repeat(sizes)
        part = np.clip(_straddling_areas(verts[face] - center, r2), 0.0, areas[face])
        ends = list(itertools.accumulate(sizes))
        for r, i, c, a, b in zip(radii, inside, crossing, [0, *ends], ends):
            clips[r] = (i, c, part[a:b])
    return FaceReach(center, areas, longest2, live, near2, far2, clips)


def _clip_parts(verts, ball: Ball, reach: FaceReach | None):
    """(reach, inside, crossing, part) of a stack clipped by a ball: the
    stack's reach about the centre and its clip at the ball's radius
    (`FaceReach.clips`). Without a reach, one is built for that radius."""
    verts = _triangle_stack(verts, ball.dim)
    if reach is None:
        reach = face_reach(verts, ball.center, radii=(ball.radius,))
    elif reach.areas.shape[0] != verts.shape[0] or not np.array_equal(
        reach.center, ball.center
    ):
        raise InputInconsistentError("the face reach was built for another stack or centre")
    elif ball.radius not in reach.clips:
        raise InputInconsistentError(f"the face reach was not built for radius {ball.radius!r}")
    return (reach, *reach.clips[ball.radius])


def clip_areas(verts: np.ndarray, ball: Ball, reach: FaceReach | None = None) -> np.ndarray:
    """Exact area of each triangle of a (K, 3, n) stack inside a ball.

    Faces with every vertex inside the ball (the ball is convex) count
    whole; faces farther from the centre than the radius count zero;
    degenerate faces (area below DEGENERATE_REL_TOL times the squared
    diameter) count zero. The rest go through the closed form of
    `_straddling_areas`, clamped to [0, area]. `reach`, from `face_reach`
    on the same stack and the ball's centre with the ball's radius among
    its radii, holds the clip already; the result is the same.
    """
    reach, inside, crossing, part = _clip_parts(verts, ball, reach)
    out = np.where(inside, reach.areas, 0.0)
    out[crossing] = part
    return out


def clip_areas_total(verts: np.ndarray, ball: Ball, reach: FaceReach | None = None) -> float:
    """Exact total area of the (K, 3, n) triangle stack inside a ball.

    The error-free sum of `clip_areas`, which is correctly rounded whatever
    the order, so it adds only the nonzero parts: the areas of the faces
    inside and the clipped areas of the faces the sphere crosses. Exact up
    to floating-point rounding in any dimension n >= 3.
    """
    reach, inside, _crossing, part = _clip_parts(verts, ball, reach)
    return stable_sum(reach.areas[inside].tolist() + part.tolist())


def _cell_index(x: np.ndarray, cell: float) -> np.ndarray:
    """floor(x / cell) as int64, clipped to +-2^61 so that it and any span of
    two such indices fit in int64; monotone in x, as _box_pairs needs."""
    return np.floor(x / cell).clip(-(2.0**61), 2.0**61).astype(np.int64)


def _box_pairs(lo: np.ndarray, hi: np.ndarray, pad: float) -> np.ndarray:
    """Every pair (i, j), i < j, of the closed boxes [lo_i - pad, hi_i + pad]
    that overlap, as a (K, 2) int64 array in lexicographic order; lo and hi
    are (N, n) with lo <= hi, and pad > 0.

    A uniform grid only prunes. Its cell is the median box diagonal, or
    2 sqrt(n) pad, the least diagonal any padded box has, if that is larger,
    so the cell is positive at every scale with no absolute floor. A
    coordinate x lies in cell floor(x / cell) (`_cell_index`), a monotone map
    of x, so if two boxes share a point p, on each axis the cell of p lies
    in both boxes' cell ranges: the two ranges meet, on axis d in the cells
    from max(l_a, l_b) to min(h_a, h_b), where l and h are a box's lowest and
    highest cells on that axis.

    Each box is entered in every cell it covers, with a bitmask whose bit d
    is set where that cell is the box's lowest on axis d, and pairs are
    formed within each cell. A pair is owned by the one cell c with
    c_d = max(l_a, l_b) on every axis, the lowest cell both ranges share.
    In any cell c the two boxes share, l_a <= c_d and l_b <= c_d, so
    c_d = max(l_a, l_b) exactly when c_d equals l_a or l_b, that is, when
    bit d is set in mask_a | mask_b. A pair is therefore owned where
    mask_a | mask_b has all n bits set. The mask is stored eight axes to a
    uint8 word, so any n works, and for n <= 8 two uint8 gathers test this
    before any float work. Each pair whose ranges meet is kept once, and
    the exact box test then drops the owned pairs whose boxes do not
    overlap.

    A box that covers more cells than there are boxes is not entered: it is
    box-tested against every box directly, at O(N) cost, less than hashing
    it would take. Cells are grouped by `np.lexsort` over the per-axis
    indices, which cannot overflow whatever the coordinates; a single linear
    cell key could.
    """
    lo = lo - pad
    hi = hi + pad
    nb, n = lo.shape
    cell = max(float(np.median(np.linalg.norm(hi - lo, axis=1))), 2.0 * math.sqrt(n) * pad)
    lo_i = _cell_index(lo, cell)
    spans = _cell_index(hi, cell) - lo_i + 1
    big = spans.astype(np.float64).prod(axis=1) > nb

    # one entry per (box, covered cell), expanded axis by axis; boxes ascend,
    # so with the stable sort below they ascend within every cell as well
    box = np.flatnonzero(~big)
    cells = np.empty((0, box.size), dtype=np.int64)
    mask = np.zeros((-(-n // 8), box.size), dtype=np.uint8)
    for d in range(n):
        span = spans[box, d]
        rep = np.repeat(np.arange(box.size), span)
        off = np.arange(rep.size) - (np.cumsum(span) - span)[rep]
        box, mask = box[rep], mask[:, rep]
        mask[d // 8] |= (off == 0).astype(np.uint8) << (d % 8)
        cells = np.concatenate([cells[:, rep], (lo_i[box, d] + off)[None]])
    order = np.lexsort(cells)
    cells, box, mask = cells[:, order], box[order], mask[:, order]
    new_cell = np.ones(box.size, dtype=bool)
    new_cell[1:] = (cells[:, 1:] != cells[:, :-1]).any(axis=0)
    starts = np.flatnonzero(new_cell)
    sizes = np.diff(np.append(starts, box.size))
    # entry e pairs with the `after[e]` entries that follow it in its cell
    after = np.repeat(starts + sizes, sizes) - np.arange(box.size) - 1
    first = np.repeat(np.arange(box.size), after)
    step = np.arange(1, box.size + 1) - (np.cumsum(after) - after)
    second = np.arange(first.size) + np.repeat(step, after)
    owned = np.ones(first.size, dtype=bool)
    for w, word in enumerate(mask):
        owned &= (word.take(first) | word.take(second)) == (1 << min(8, n - 8 * w)) - 1
    first, second = first[owned], second[owned]
    # the exact test, on per-entry bounds: one contiguous array per axis
    elo, ehi = lo.T.take(box, axis=1), hi.T.take(box, axis=1)
    keep = np.ones(first.size, dtype=bool)
    for d in range(n):
        lo_d, hi_d = elo[d], ehi[d]
        keep &= (lo_d.take(first) <= hi_d.take(second)) & (lo_d.take(second) <= hi_d.take(first))
    a, b = box[first[keep]], box[second[keep]]

    keys = [a * nb + b]
    ids = np.arange(nb)
    for i in np.flatnonzero(big):
        # a pair of two oversized boxes is found from its first box only
        hit = (lo[i] <= hi).all(axis=1) & (lo <= hi[i]).all(axis=1) & (~big | (ids > i))
        j = np.flatnonzero(hit)
        keys.append(np.minimum(i, j) * nb + np.maximum(i, j))
    key = np.sort(np.concatenate(keys))
    return np.stack([key // nb, key % nb], axis=1)


def _disjoint_box_pairs(
    lo: np.ndarray, hi: np.ndarray, pad: float, ids: np.ndarray
) -> np.ndarray:
    """The pairs of `_box_pairs(lo, hi, pad)` whose rows of the (N, m) vertex
    ids share no entry: the face pairs of a mesh, or the segment pairs of a
    polyline, that have no common vertex and whose padded boxes overlap, in
    lexicographic order."""
    pairs = _box_pairs(lo, hi, pad)
    corners = ids.T
    fa, fb = corners.take(pairs[:, 0], axis=1), corners.take(pairs[:, 1], axis=1)
    shared = np.zeros(pairs.shape[0], dtype=bool)
    for v in fa:
        for w in fb:
            shared |= v == w
    return pairs[~shared]
