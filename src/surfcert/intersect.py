"""Pairwise triangle proximity sweep used to cross-check embeddedness.

Works in any ambient dimension by computing exact squared distances between
candidate face pairs: the minimum over a convex quadratic is attained either
at an interior critical point of a face-pair subproblem (triangle x triangle,
edge x triangle) or on a lower feature (segment pairs, vertex vs triangle).
Interpenetrating faces have distance zero, so "distance <= tol" doubles as an
intersection predicate without any dimension-specific branch logic.

The candidate pairs are exactly the face pairs that share no vertex and whose
bounding boxes, inflated by tol, overlap. A spatial hash enumerates them as
array operations; it only prunes, and changes no member of that set.

Before the exact distance, a separating-axis test (`_separated`; Ericson,
*Real-Time Collision Detection*, 2005, ch. 4-5) drops every candidate that
some axis separates by more than tol plus a rounding slack: the in-plane edge
normals of both faces, in any dimension, and in R^3 the two face normals. A
dropped pair is farther apart than tol in exact arithmetic, so only the pairs
that may touch reach `triangle_pair_dist2`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import _segment_pair_dist2
from .geometry import point_triangle_dist2
from .surfaces import SurfaceModel

__all__ = ["IntersectionReport", "self_intersections"]

# candidate interior solves are ridge-regularized by this times the Gram trace
_RIDGE = 1e-12


@dataclass(frozen=True)
class IntersectionReport:
    """Outcome of a sweep: offending face pairs and the scale of the test."""

    pairs: tuple  # of (face_i, face_j), i < j, at most max_reports entries
    count: int  # total offending pairs, may exceed len(pairs)
    candidates: int  # broad-phase pairs, before the separating-axis reject
    tolerance: float

    @property
    def clean(self) -> bool:
        return self.count == 0


def _bary_feasible(lam0: np.ndarray, lam1: np.ndarray, eps: float = 0.0):
    return (lam0 >= -eps) & (lam1 >= -eps) & (lam0 + lam1 <= 1.0 + eps)


def _solve_gram(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched PSD solve with a trace-scaled ridge; G is (K, m, m)."""
    m = G.shape[1]
    tr = np.einsum("kii->k", G)
    G = G + (_RIDGE * np.maximum(tr, 1e-300))[:, None, None] * np.eye(m)
    return np.linalg.solve(G, rhs[:, :, None])[:, :, 0]


def _interior_tri_tri(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Distance^2 at the feasible interior critical point, inf when infeasible.

    Minimizes |p0 + E s - q0 - F u|^2 over barycentric s, u; t1, t2 are
    (K, 3, n) stacks.
    """
    p0, q0 = t1[:, 0], t2[:, 0]
    E = np.stack([t1[:, 1] - p0, t1[:, 2] - p0], axis=2)  # (K, n, 2)
    F = np.stack([t2[:, 1] - q0, t2[:, 2] - q0], axis=2)
    A = np.concatenate([E, -F], axis=2)  # (K, n, 4)
    d = q0 - p0
    G = np.einsum("knm,knl->kml", A, A)
    rhs = np.einsum("knm,kn->km", A, d)
    x = _solve_gram(G, rhs)
    ok = _bary_feasible(x[:, 0], x[:, 1]) & _bary_feasible(x[:, 2], x[:, 3])
    diff = np.einsum("knm,km->kn", A, x) - d
    d2 = (diff**2).sum(-1)
    return np.where(ok, d2, np.inf)


def _interior_edge_tri(a: np.ndarray, b: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """Distance^2 at the feasible edge x triangle critical point, else inf."""
    q0 = tri[:, 0]
    F = np.stack([tri[:, 1] - q0, tri[:, 2] - q0], axis=2)  # (K, n, 2)
    ed = (b - a)[:, :, None]  # (K, n, 1)
    A = np.concatenate([ed, -F], axis=2)  # (K, n, 3)
    d = q0 - a
    G = np.einsum("knm,knl->kml", A, A)
    rhs = np.einsum("knm,kn->km", A, d)
    x = _solve_gram(G, rhs)
    ok = (x[:, 0] >= 0.0) & (x[:, 0] <= 1.0) & _bary_feasible(x[:, 1], x[:, 2])
    diff = np.einsum("knm,km->kn", A, x) - d
    d2 = (diff**2).sum(-1)
    return np.where(ok, d2, np.inf)


def triangle_pair_dist2(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Exact squared distance between triangle pairs; (K, 3, n) stacks."""
    t1 = np.asarray(t1, dtype=np.float64)
    t2 = np.asarray(t2, dtype=np.float64)
    best = np.full(t1.shape[0], np.inf)
    # 9 segment pairs
    for i in range(3):
        a1, b1 = t1[:, i], t1[:, (i + 1) % 3]
        for j in range(3):
            a2, b2 = t2[:, j], t2[:, (j + 1) % 3]
            best = np.minimum(best, _segment_pair_dist2(a1, b1, a2, b2))
    # 6 vertex-triangle distances (point_triangle_dist2 is one point vs many
    # triangles; here each row pairs its own point, so go through the rowwise
    # helper by treating each vertex against the opposite stack)
    for i in range(3):
        best = np.minimum(best, _rowwise_point_tri_dist2(t1[:, i], t2))
        best = np.minimum(best, _rowwise_point_tri_dist2(t2[:, i], t1))
    # 6 edge-triangle interior candidates
    for i in range(3):
        a1, b1 = t1[:, i], t1[:, (i + 1) % 3]
        best = np.minimum(best, _interior_edge_tri(a1, b1, t2))
        a2, b2 = t2[:, i], t2[:, (i + 1) % 3]
        best = np.minimum(best, _interior_edge_tri(a2, b2, t1))
    # interior-interior candidate
    best = np.minimum(best, _interior_tri_tri(t1, t2))
    return best


def _rowwise_point_tri_dist2(p: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """Squared distance from p[k] to tri[k]; thin wrapper over the stack form."""
    # point_triangle_dist2 broadcasts one point over a stack; the rowwise case
    # is served by shifting each triangle so its own point sits at the origin
    shifted = tri - p[:, None, :]
    return point_triangle_dist2(shifted, np.zeros(tri.shape[2]))


def _candidate_pairs(surface: SurfaceModel, margin: float) -> np.ndarray:
    """Broad phase: the face pairs (i, j), i < j, that share no vertex and
    whose closed boxes, inflated by margin, overlap; sorted lexicographically.

    Each face is hashed into every cell of a uniform grid (cell size: the
    median box diagonal) that its box covers, and pairs are formed within each
    cell. The hash only prunes: if two boxes overlap, a common point p lies
    in the cell floor(p / cell), and since floor of a quotient by a positive
    cell is monotone, that cell is covered by both boxes. A pair is kept
    only in the lowest cell its two cell ranges share, so it appears once,
    and the exact box test removes the pairs whose cell ranges meet but
    whose boxes do not.
    """
    tris = surface.face_triangles()
    nf = tris.shape[0]
    lo = tris.min(axis=1) - margin
    hi = tris.max(axis=1) + margin
    diag = np.linalg.norm(hi - lo, axis=1)
    cell = max(float(np.median(diag)), 1e-30)
    lo_i = np.floor(lo / cell).astype(np.int64)
    hi_i = np.floor(hi / cell).astype(np.int64)
    spans = hi_i - lo_i + 1
    counts = spans.prod(axis=1)

    # one entry per (face, covered cell): decode a mixed-radix offset over the
    # face's spans into cell coordinates
    face = np.repeat(np.arange(nf, dtype=np.int64), counts)
    rest = np.arange(face.size, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    cells = np.empty((tris.shape[2], face.size), dtype=np.int64)  # one row per axis
    for d in range(tris.shape[2] - 1, -1, -1):
        span = spans[face, d]
        cells[d] = lo_i[face, d] + rest % span
        rest //= span
    # group by cell; lexsort is stable, so faces ascend within each cell
    order = np.lexsort(cells)
    cells, face = cells[:, order], face[order]
    new_cell = np.ones(face.size, dtype=bool)
    new_cell[1:] = (cells[:, 1:] != cells[:, :-1]).any(axis=0)
    starts = np.flatnonzero(new_cell)
    sizes = np.diff(np.append(starts, face.size))
    # entry k, at position a in a cell of size g, pairs with the g - 1 - a
    # entries after it
    after = np.repeat(starts + sizes, sizes) - np.arange(face.size) - 1
    first = np.repeat(np.arange(face.size), after)
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(after) - after, after)
    fa, fb = face[first], face[second]
    # per axis: the exact box test, and ownership by the lowest cell the two
    # cell ranges share, which keeps each pair once
    for d in range(tris.shape[2]):
        keep = (
            (lo[fa, d] <= hi[fb, d])
            & (lo[fb, d] <= hi[fa, d])
            & (cells[d, first] == np.maximum(lo_i[fa, d], lo_i[fb, d]))
        )
        fa, fb, first = fa[keep], fb[keep], first[keep]
    faces = surface.faces
    apart = ~(faces[fa][:, :, None] == faces[fb][:, None, :]).any(axis=(1, 2))
    key = np.sort(fa[apart] * nf + fb[apart])
    return np.stack([key // nf, key % nf], axis=1)


def _unit_axes(a: np.ndarray) -> np.ndarray:
    """The vectors a[:, ...] (components along axis 0) scaled to unit length;
    zero vectors stay zero.

    Dividing by the largest |component| first makes that component exactly
    +-1, so the squared norm lies in [1, n] and neither underflows nor
    overflows.
    """
    big = np.abs(a).max(axis=0)
    a = a / np.where(big > 0.0, big, 1.0)
    return a / np.sqrt((a * a).sum(axis=0)).clip(min=1.0)


def _separated(t1: np.ndarray, t2: np.ndarray, tol: float) -> np.ndarray:
    """Pairs of a (K, 3, n) stack that some axis separates by more than
    tol + slack, so that their faces are farther apart than tol.

    For any vector a, p in the first face and q in the second,
    |q - p| >= a.(q - p) / |a|, and a linear function takes its extremes over
    a triangle at its vertices. So if the projections of the two faces'
    vertices on a unit axis leave a gap G > tol, the faces are more than tol
    apart. This holds for whatever axis is computed, so rounding in the axes
    costs only rejections, never soundness. The axes are the three in-plane
    edge normals of each face (the part of the opposite side orthogonal to the
    edge), which exist in any n, and in R^3 the two face normals. They are
    built from the vertices relative to the first face's first vertex o,
    divided by rho, the largest |coordinate| of those six relative vertices,
    so that they are O(1); an axis that computes to zero (a degenerate face)
    rejects nothing, and nothing divides by zero.

    The slack covers the rounding of the gap (unit roundoff u, dimension n).
    Each relative vertex fl(v - o) is within u |v - o| of v - o per
    coordinate, and each projection, a length-n dot product with a unit axis
    whose 1-norm is at most sqrt(n), is within sqrt(n) (n + 1) u rho of the
    exact projection of v - o, plus n 2^-1075 from products that underflow.
    The computed unit axis has length at most 1 + (n + 5) u / 2. A rejected
    pair has tol < G <= 2 sqrt(n) rho, so the rounding of the gap, of
    tol + slack and of the axis length adds at most sqrt(n) (n + 10) u rho.
    The first-order total is 3 sqrt(n) (n + 4) u rho + n 2^-1074; the slack is
    twice that, and the other half covers the rounding of the slack itself and
    every second-order term. Thus a rejected pair's exact distance exceeds
    tol; it differs from the computed `triangle_pair_dist2` only by that
    routine's own rounding.
    """
    n = t1.shape[2]
    # component-major (n, 6, K), relative to o: each operation below runs over K
    x = np.ascontiguousarray((np.concatenate([t1, t2], axis=1) - t1[:, :1]).transpose(2, 1, 0))
    rho = np.abs(x).max(axis=(0, 1))
    z = x / np.where(rho > 0.0, rho, 1.0)
    axes = []
    for tri in (z[:, :3], z[:, 3:]):
        e = np.roll(tri, -1, axis=1) - tri  # edge k runs from vertex k to k + 1
        w = np.roll(tri, -2, axis=1) - tri  # from vertex k to the opposite one
        ee = (e * e).sum(axis=0)
        ew = (e * w).sum(axis=0)
        axes.append(ee * w - ew * e)  # |e|^2 times w's part orthogonal to e
        if n == 3:
            axes.append(np.cross(e[:, 0], e[:, 1], axis=0)[:, None])
    unit = _unit_axes(np.concatenate(axes, axis=1))  # (n, m, K)
    proj = np.einsum("nmk,nvk->mvk", unit, x)  # (m, 6, K)
    gap = np.maximum(
        proj[:, 3:].min(axis=1) - proj[:, :3].max(axis=1),
        proj[:, :3].min(axis=1) - proj[:, 3:].max(axis=1),
    )
    u = np.finfo(np.float64).eps / 2.0
    slack = 6.0 * math.sqrt(n) * (n + 4) * u * rho + n * 2.0**-1073
    return (gap > tol + slack).any(axis=0)


def self_intersections(
    surface: SurfaceModel,
    tol: float | None = None,
    max_reports: int = 32,
) -> IntersectionReport:
    """Sweep all non-adjacent face pairs for contact within tol.

    tol defaults to 1e-9 times the surface's bounding-box diagonal. The
    candidates are exactly the pairs sharing no vertex whose bounding boxes,
    inflated by tol, overlap (`_candidate_pairs`); a pair within tol has such
    boxes, so no pair within tol is missed except those sharing a vertex.
    The separating-axis reject (`_separated`) then drops every candidate that
    is farther apart than tol in exact arithmetic, by a margin above the
    rounding slack derived there, and only the rest go to the exact distance
    `triangle_pair_dist2`. Every candidate at computed distance <= tol is
    reported, in lexicographic order; `candidates` counts the broad-phase
    pairs, before the reject.
    """
    if tol is None:
        tol = 1e-9 * max(surface.scale, 1e-30)
    pairs = _candidate_pairs(surface, margin=tol)
    tris = surface.face_triangles()
    chunk = 16384
    hits = [np.empty((0, 2), dtype=np.int64)]
    for lo in range(0, pairs.shape[0], chunk):
        block = pairs[lo : lo + chunk]
        t1, t2 = tris[block[:, 0]], tris[block[:, 1]]
        near = ~_separated(t1, t2, tol)
        if near.any():
            d2 = triangle_pair_dist2(t1[near], t2[near])
            hits.append(block[near][d2 <= tol * tol])
    hits = np.concatenate(hits)
    return IntersectionReport(
        pairs=tuple(map(tuple, hits[:max_reports].tolist())),
        count=int(hits.shape[0]),
        candidates=int(pairs.shape[0]),
        tolerance=tol,
    )
