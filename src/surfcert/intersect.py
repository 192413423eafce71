"""Embeddedness of a mesh: an exact certificate by projection, and a
pairwise triangle proximity sweep where the projection cannot decide.

`projected_embedding` certifies a mesh with one boundary loop in O(F): a
linear map to a plane that keeps one strict orientation on every face and
maps the boundary loop to a simple polygon is injective (Meisters and Olech,
Duke Math. J. 1963), so the surface is embedded. Every sign it reads is
decided in floats under a static error bound (in the manner of Shewchuk, DCG
1997), and whatever the bound leaves undecided is refused, never guessed.

The sweep works in any ambient dimension by computing squared distances
between candidate face pairs: the minimum over a convex quadratic is attained
either at an interior critical point of a face-pair subproblem (triangle x
triangle, edge x triangle) or on a lower feature (segment pairs, vertex vs
triangle). Interpenetrating faces have distance zero, so "distance <= tol"
doubles as an intersection predicate without any dimension-specific branch
logic. The distance is not exact: the ridge (`_RIDGE`) of the interior solves
moves the critical point off a crossing at a small dihedral angle, and two
faces crossing at 1e-4 compute to 2.7e-8 apart, above the tolerance 1.4e-9.

The candidate pairs are exactly the face pairs that share no vertex and whose
bounding boxes, inflated by tol, overlap. `geometry._box_pairs`, the broad
phase the boundary curves' simplicity check also uses, enumerates the
overlapping boxes as array operations: a uniform grid forms pairs within each
cell, a per-entry bitmask keeps each pair only in the one cell that owns it
before any float work, and the exact box test runs on the owned pairs. A face
whose box covers more cells than there are faces is tested against every box
directly. The grid only prunes, and changes no member of that set.

Before the distance, a separating-axis test (`_separated`; Ericson,
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

from .curves import _best_fit_plane, _segment_pair_dist2
from .geometry import _disjoint_box_pairs, point_triangle_dist2
from .surfaces import SurfaceModel

__all__ = [
    "IntersectionReport",
    "triangle_pair_dist2",
    "self_intersections",
    "projected_embedding",
    "SWEEP_REL_TOL",
]

# candidate interior solves are ridge-regularized by this times the Gram trace
_RIDGE = 1e-12
# the sweep's contact tolerance, relative to the surface's scale; never 0, since
# the computed distance of two faces that really cross can round above 0
SWEEP_REL_TOL = 1e-9
# the report lists at most this many offending pairs; it counts them all
_MAX_REPORTS = 32


@dataclass(frozen=True)
class IntersectionReport:
    """Outcome of a sweep: offending face pairs and the scale of the test."""

    pairs: tuple  # of (face_i, face_j), i < j, the first _MAX_REPORTS of them
    count: int  # total offending pairs, may exceed len(pairs)
    candidates: int  # broad-phase pairs, before the separating-axis reject
    tolerance: float

    @property
    def clean(self) -> bool:
        return self.count == 0


def _bary_feasible(lam0: np.ndarray, lam1: np.ndarray):
    return (lam0 >= 0.0) & (lam1 >= 0.0) & (lam0 + lam1 <= 1.0)


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
    """Squared distance between triangle pairs; (K, 3, n) stacks. Not exact:
    at a small dihedral angle theta the interior solves' Gram matrix has
    condition about 1 / theta^2, and their ridge keeps a crossing above 0."""
    t1 = np.asarray(t1, dtype=np.float64)
    t2 = np.asarray(t2, dtype=np.float64)
    best = np.full(t1.shape[0], np.inf)
    # 9 segment pairs
    for i in range(3):
        a1, b1 = t1[:, i], t1[:, (i + 1) % 3]
        for j in range(3):
            a2, b2 = t2[:, j], t2[:, (j + 1) % 3]
            best = np.minimum(best, _segment_pair_dist2(a1, b1, a2, b2))
    # 6 vertex-triangle distances: point_triangle_dist2 measures from one
    # point, so each row's triangle is shifted to put its own vertex there
    origin = np.zeros(t1.shape[2])
    for i in range(3):
        best = np.minimum(best, point_triangle_dist2(t2 - t1[:, i, None], origin))
        best = np.minimum(best, point_triangle_dist2(t1 - t2[:, i, None], origin))
    # 6 edge-triangle interior candidates
    for i in range(3):
        a1, b1 = t1[:, i], t1[:, (i + 1) % 3]
        best = np.minimum(best, _interior_edge_tri(a1, b1, t2))
        a2, b2 = t2[:, i], t2[:, (i + 1) % 3]
        best = np.minimum(best, _interior_edge_tri(a2, b2, t1))
    # interior-interior candidate
    best = np.minimum(best, _interior_tri_tri(t1, t2))
    return best


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
    tol, whatever `triangle_pair_dist2`, which is not exact, would compute.
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


def self_intersections(surface: SurfaceModel) -> IntersectionReport:
    """Sweep all non-adjacent face pairs for contact within tol.

    tol is SWEEP_REL_TOL times the surface's bounding-box diagonal, and the
    report carries it as `tolerance`. The candidates are exactly the pairs
    sharing no vertex whose bounding boxes, inflated by tol, overlap
    (`geometry._disjoint_box_pairs`); a pair within tol has such boxes, so
    no pair within tol is missed except those sharing a vertex. The
    separating-axis reject (`_separated`) then drops every candidate that is
    farther apart than tol in exact arithmetic, by a margin above the
    rounding slack derived there, and only the rest go to the distance
    `triangle_pair_dist2`, which can miss a crossing at a small dihedral
    angle. Every candidate at computed distance <= tol counts; the first
    _MAX_REPORTS of them, in lexicographic order, are listed. `candidates`
    counts the broad-phase pairs, before the reject.
    """
    tol = SWEEP_REL_TOL * surface.scale
    tris = surface.face_triangles()
    pairs = _disjoint_box_pairs(tris.min(axis=1), tris.max(axis=1), tol, surface.faces)
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
        pairs=tuple(map(tuple, hits[:_MAX_REPORTS].tolist())),
        count=int(hits.shape[0]),
        candidates=int(pairs.shape[0]),
        tolerance=tol,
    )


def _projected(P: np.ndarray, a: np.ndarray, b: np.ndarray):
    """(x, d): x = P (b - a) rowwise for (K, n) stacks a and b (a may be one
    row), as computed from their float difference, and d, the first-order
    bound (n + 1) u pi1 |b - a|_inf + n 2^-1074 on each coordinate's rounding
    error, pi1 being P's largest row 1-norm (see `projected_embedding`)."""
    e = b - a
    n = e.shape[1]
    pe = (n + 1) * (np.finfo(np.float64).eps / 2.0) * float(np.abs(P).sum(axis=1).max())
    return e @ P.T, pe * np.abs(e).max(axis=1) + n * 2.0**-1074


def _decide(value, t, x, y, dx, dy) -> np.ndarray:
    """The sign (-1, 0 or 1) of the exact value of a computed 2 x 2 form,
    fl(x1 y2) -+ fl(x2 y1) or fl(x1 y1) + fl(x2 y2), of the computed vectors
    x and y from `_projected`; t is the sum of the two products' moduli and
    0 means rounding leaves the sign undecided (see `projected_embedding`)."""
    u = np.finfo(np.float64).eps / 2.0
    sx, sy = np.abs(x).sum(axis=1), np.abs(y).sum(axis=1)
    bound = 2.0 * (dy * sx + dx * sy + 2.0 * dx * dy + 2.0 * u * t) + 2.0**-1071
    return np.sign(value) * (np.abs(value) > bound)


def _orientations(P: np.ndarray, a, b, c) -> np.ndarray:
    """Decided signs of det[P (b - a), P (c - a)], rowwise."""
    (x, dx), (y, dy) = _projected(P, a, b), _projected(P, a, c)
    xy, yx = x[:, 0] * y[:, 1], x[:, 1] * y[:, 0]
    return _decide(xy - yx, np.abs(xy) + np.abs(yx), x, y, dx, dy)


def projected_embedding(surface: SurfaceModel) -> np.ndarray | None:
    """The (2, n) linear map P that shows the surface embedded, or None.

    P is the basis of the vertices' best-fit plane (`curves._best_fit_plane`).
    Every test below is about the exact linear map with P's float entries,
    and any matrix is a linear map, so the SVD's rounding only picks a worse
    or better map and costs no soundness. P certifies the surface when

    (a) the mesh has exactly one boundary loop;
    (b) every face's signed area det[P (b - a), P (c - a)] is decided
        nonzero, with one sign s for all faces;
    (c) P maps the boundary loop to a simple closed polygon.

    Lemma (a PL form of Meisters and Olech, Duke Math. J. 1963). On any mesh
    that `SurfaceModel.build` accepts, (a)-(c) make P injective on the
    surface, so the surface is embedded. Build leaves each edge in one or two
    faces, and two faces that share an edge run it in opposite directions.
    So in the sum of the faces' oriented boundaries the interior edges
    cancel, and the boundary loop is what remains. For y in the plane off
    the image of every edge, let N(y) be the number of faces whose image
    contains y. A face's image winds about y s times if it contains y and
    0 times if not, so s N(y) is the winding number of the loop's image
    about y, which is 0 or +-1 by (c): N(y) <= 1. Now let x != x' be points
    of the mesh with P x = P x' (two vertices at one position are two
    points). No face contains both, since P is injective on each face. If
    both lie on the boundary loop, (c) fails. Otherwise say x does not.
    Then the faces containing x cover a
    neighbourhood of P x: one face if x is inside it; the two faces of an
    interior edge, which lie on opposite sides of its image because they
    run it in opposite directions with one sign; or, at an interior vertex,
    whose edges are all interior, closed fans of triangles that all turn the
    same way about P x, and each fan sweeps a positive multiple of 2 pi. A
    face containing x' maps to a nondegenerate triangle through P x, which
    meets that neighbourhood in an open set, so some y off every edge image
    has N(y) >= 2, a contradiction. The argument needs no connectivity,
    Euler characteristic or vertex link test: a closed component, a pinched
    interior vertex or a branch point would cover some y twice, so (b) and
    (c) cannot hold on such a mesh.

    Rounding (unit roundoff u, dimension n, pi1 the largest row 1-norm of
    P, eta = 2^-1075 the error of a product that underflows; a sum of floats
    that underflows is exact). Every signed area comes from the differences
    e = fl(b - a) and f = fl(c - a) of its own three vertices, so no term of
    its bound grows with their distance from the origin:

    - a coordinate of x = fl(P e) is within u pi1 |e|_inf of P (b - a) by the
      difference, and within gamma_n pi1 |e|_inf + n eta of P e by the dot
      product in any summation order, with or without fused multiply-adds:
      d_x = (n + 1) u pi1 |e|_inf + n eta to first order (`_projected`);
    - with |x_i - X_i| <= d_x and |y_i - Y_i| <= d_y for the exact X and Y,
      x1 y2 - X1 Y2 = x1 (y2 - Y2) + Y2 (x1 - X1) and |Y2| <= |y2| + d_y, so
      the exact det[x, y] is within d_y s_x + d_x s_y + 2 d_x d_y of
      det[X, Y], where s = |v1| + |v2|; the two products and the difference
      add (2 u + u^2) t + (2 + 2 u) eta, where t = |fl(x1 y2)| + |fl(x2 y1)|.
      The dot product x . y has the same bound with t = |fl(x1 y1)| +
      |fl(x2 y2)|;
    - `_decide` takes twice the terms in d, s and t, and the other half covers
      the rounding of the bound itself and every second-order term (gamma_n
      against n u, pi1, s and t as computed). It adds 2^-1071 = 16 eta for the
      (2 + 2 u) eta above and the four products of the bound's own
      evaluation that may underflow. A value beyond the bound has the exact
      sign.

    The loop is projected relative to its own first vertex w0: a coordinate
    of q_i = fl(P fl(w_i - w0)) is within D = (n + 1) u pi1 M + n eta, to
    first order, of P (w_i - w0), where M is the largest |fl(w_i - w0)|_inf.
    The exact images of two segments that meet have computed boxes at most
    2 D apart, so `_box_pairs`, padded by twice `_projected`'s bound on D,
    lists every such pair; rounding is monotone, so its padded comparisons
    keep them. Each listed pair that shares no vertex must be shown apart:
    one segment strictly on one side of the other's line, by the decided
    signs of two signed areas of ambient triples as above. Two
    disjoint segments that are not collinear always have such a side: if
    each straddled the other's line, they would meet. At each loop vertex
    the two segments must meet only there: their signed area is decided
    nonzero, or their dot product decided positive, so no vertex folds back.
    `_segment_pair_dist2`, which the curves' own simplicity check reads, does
    not fit here: the distance between its two computed points bounds the
    segments' distance only from above.

    Anything the bound leaves undecided returns None, and so does a mesh
    that fails (a), (b) or (c); no exact arithmetic runs. The cost is a few
    array operations per face, plus the broad phase on the loop.
    """
    if len(surface.boundary_loops) != 1:
        return None
    v, f = surface.vertices, surface.faces
    P = _best_fit_plane(v)[1]
    signs = _orientations(P, v[f[:, 0]], v[f[:, 1]], v[f[:, 2]])
    if not (np.all(signs == 1) or np.all(signs == -1)):
        return None

    loop = surface.boundary_loops[0]
    w = v[loop]
    prev, nxt = np.roll(w, 1, axis=0), np.roll(w, -1, axis=0)
    (x, dx), (y, dy) = _projected(P, prev, w), _projected(P, w, nxt)
    xx, yy = x[:, 0] * y[:, 0], x[:, 1] * y[:, 1]
    ahead = _decide(xx + yy, np.abs(xx) + np.abs(yy), x, y, dx, dy) == 1
    if not np.all(ahead | (_orientations(P, prev, w, nxt) != 0)):
        return None
    q, dq = _projected(P, w[:1], w)
    q_next = np.roll(q, -1, axis=0)
    pairs = _disjoint_box_pairs(
        np.minimum(q, q_next),
        np.maximum(q, q_next),
        2.0 * float(dq.max()),
        np.stack([loop, np.roll(loop, -1)], axis=1),
    )
    ii, jj = pairs[:, 0], pairs[:, 1]
    a, b, c, d = w[ii], nxt[ii], w[jj], nxt[jj]
    one_side = _orientations(P, a, b, c) * _orientations(P, a, b, d) == 1
    other_side = _orientations(P, c, d, a) * _orientations(P, c, d, b) == 1
    if not np.all(one_side | other_side):
        return None
    return P
