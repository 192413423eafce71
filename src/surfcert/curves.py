"""Closed polyline curves: turning angles, radial projections, cones.

A curve is a closed polyline in R^n. Total curvature is the polygonal kind,
the sum of turning angles; reports label it "polygonal". The radial projection
of a segment onto the unit sphere around x0 is a great-circle arc whose length
equals the angle the segment subtends at x0, so projection lengths are exact
for polylines.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InputInconsistentError,
    InvalidParameterError,
    ProjectionSingularError,
)
from .geometry import (
    PointN,
    as_point,
    stable_sum,
    _angles_batch,
    _box_diagonal,
    _disjoint_box_pairs,
    _point_segment_dist2,
)

__all__ = [
    "CornerFlag",
    "PolylineCurve",
    "BoundReport",
    "total_curvature",
    "turning_angles",
    "curve_length",
    "radial_projection_length",
    "cone_density",
    "build_cone",
    "projection_bound_report",
    "best_fit_plane_deviation",
]

# vertex/segment coincidence tolerance, relative to the curve scale
COINCIDENCE_REL_TOL = 1e-12


@dataclass(frozen=True)
class CornerFlag:
    """Marks vertex ``index`` as a genuine corner with exterior angle ``theta``."""

    index: int
    theta: float


@dataclass(frozen=True)
class PolylineCurve:
    """Closed simple polyline in R^n.

    corner_flags semantics:
      * None: a raw polygon; every vertex is a genuine corner and its actual
        turning angle is used wherever a corner angle matters.
      * a tuple (possibly empty): the polyline samples a piecewise-C^1 curve;
        only flagged vertices are corners (with the intended theta) and
        unflagged vertices are smooth samples (theta 0).
    """

    vertices: np.ndarray
    corner_flags: tuple[CornerFlag, ...] | None = None

    def __post_init__(self):
        v = np.array(self.vertices, dtype=np.float64)
        if v.ndim != 2:
            raise InvalidParameterError(f"expected (k, n) vertex array, got {v.shape}")
        if v.shape[1] < 3:
            raise InvalidParameterError("curve vertices need n >= 3 coordinates")
        if not np.all(np.isfinite(v)):
            raise InvalidParameterError("curve vertices must be finite")
        k = v.shape[0]
        if k < 3:
            raise InvalidParameterError("a closed curve needs at least 3 vertices")
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        seg_len = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)
        if np.any(seg_len <= COINCIDENCE_REL_TOL * self.scale):
            raise InvalidParameterError("consecutive curve vertices must be distinct")
        if self.corner_flags is not None:
            flags = tuple(self.corner_flags)
            seen = set()
            for f in flags:
                if not (0 <= f.index < k):
                    raise InvalidParameterError(f"corner index {f.index} out of range")
                if f.index in seen:
                    raise InvalidParameterError(f"corner index {f.index} repeated")
                if not (0.0 <= f.theta <= math.pi + 1e-12):
                    raise InvalidParameterError("corner theta must lie in [0, pi]")
                seen.add(f.index)
            object.__setattr__(self, "corner_flags", flags)
        self._check_simple()

    @property
    def k(self) -> int:
        return self.vertices.shape[0]

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @cached_property
    def scale(self) -> float:
        """Length of the bounding box's diagonal, at least 1e-300."""
        return _box_diagonal(self.vertices)

    def _check_simple(self) -> None:
        """Reject a curve that backtracks at a vertex or whose non-adjacent
        segments come within tol = COINCIDENCE_REL_TOL * scale, as computed
        by `_segment_pair_dist2`.

        Only the segment pairs whose boxes, inflated by tol + slack, overlap
        (`_disjoint_box_pairs`) are measured. The slack makes that set
        contain every pair whose computed d2 is at most tol^2, so the verdict
        is the one a check over all pairs gives, however far the curve lies
        from the origin. Per coordinate, with unit roundoff u and L <= scale
        the largest extent of a segment:

        - a computed closest point fl(a + fl(s fl(b - a))), s in [0, 1], is
          within 2 u L + 2^-1075 of the segment's box [min(a, b), max(a, b)]
          before the last rounding, and within three times that after it,
          since a and b are floats and rounding is monotone; no term grows
          with |a|;
        - a rounded sum of nonnegative terms is at least each term, so for a
          flagged pair each squared coordinate difference of the two computed
          points is at most d2 <= tol^2, and each difference is at most
          tol (1 + 3 u) + 2^-536, the last term for squares that underflow;
        - so the two boxes are at most tol (1 + 3 u) + 12 u L + 2^-535 apart
          on every axis.

        `_box_pairs` compares the rounded lo - pad and hi + pad, with
        pad = fl(tol + slack); rounding is monotone, so it keeps every pair
        whose boxes are at most 2 pad apart. That covers the gap above once
        slack >= 6 u L + 2^-536 to first order, whatever tol is. The slack is
        twice that, which also covers every second-order term.
        """
        v, scale = self.vertices, self.scale
        # backtracking at a vertex means the two incident segments overlap
        if np.any(turning_angles(self) >= math.pi - 1e-12):
            raise InputInconsistentError("curve backtracks onto itself at a vertex")
        if v.shape[0] < 4:
            return
        a = v
        b = np.roll(v, -1, axis=0)
        tol = COINCIDENCE_REL_TOL * scale
        ids = np.arange(v.shape[0])
        pairs = _disjoint_box_pairs(
            np.minimum(a, b),
            np.maximum(a, b),
            tol + _simplicity_slack(scale),
            np.stack([ids, np.roll(ids, -1)], axis=1),
        )
        ii, jj = pairs[:, 0], pairs[:, 1]
        tol2 = tol**2
        for lo in range(0, ii.size, 2_000_000):
            hi = min(lo + 2_000_000, ii.size)
            d2 = _segment_pair_dist2(a[ii[lo:hi]], b[ii[lo:hi]], a[jj[lo:hi]], b[jj[lo:hi]])
            if np.any(d2 <= tol2):
                raise InputInconsistentError("curve is not simple: segments intersect")


def _simplicity_slack(scale: float) -> float:
    """The rounding slack `PolylineCurve._check_simple` adds to tol when it
    inflates segment boxes: 12 u scale + 2^-535, derived there."""
    return 12.0 * (np.finfo(np.float64).eps / 2.0) * scale + 2.0**-535


def _segment_pair_dist2(a1, b1, a2, b2) -> np.ndarray:
    """Squared distances between segment pairs, rowwise; fully clamped."""
    d1 = b1 - a1
    d2 = b2 - a2
    r = a1 - a2
    a = np.einsum("kn,kn->k", d1, d1)
    e = np.einsum("kn,kn->k", d2, d2)
    f = np.einsum("kn,kn->k", d2, r)
    c = np.einsum("kn,kn->k", d1, r)
    b = np.einsum("kn,kn->k", d1, d2)
    denom = a * e - b * b
    safe = np.where(denom > 0, denom, 1.0)
    s = np.where(denom > 0, np.clip((b * f - c * e) / safe, 0.0, 1.0), 0.0)
    esafe = np.where(e > 0, e, 1.0)
    t = (b * s + f) / esafe
    asafe = np.where(a > 0, a, 1.0)
    s = np.where(t < 0, np.clip(-c / asafe, 0.0, 1.0), s)
    s = np.where(t > 1, np.clip((b - c) / asafe, 0.0, 1.0), s)
    t = np.clip(t, 0.0, 1.0)
    p1 = a1 + s[:, None] * d1
    p2 = a2 + t[:, None] * d2
    return ((p1 - p2) ** 2).sum(-1)


def turning_angles(c: PolylineCurve) -> np.ndarray:
    """Exterior angle at every vertex of the polyline, each in [0, pi]."""
    v = c.vertices
    d_in = v - np.roll(v, 1, axis=0)
    d_out = np.roll(v, -1, axis=0) - v
    return _angles_batch(d_in.T, d_out.T)


def total_curvature(c: PolylineCurve) -> float:
    """Polygonal total curvature: the sum of turning angles.

    Any closed polygon turns by at least 2*pi; that bound doubles as an
    internal sanity check.
    """
    tc = stable_sum(turning_angles(c).tolist())
    if tc < 2.0 * math.pi - 1e-9:
        raise RuntimeError(f"total curvature {tc} below 2*pi: turning-angle bug")
    return tc


def curve_length(c: PolylineCurve) -> float:
    v = c.vertices
    return stable_sum(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1).tolist())


def _locate_center(c: PolylineCurve, x0: PointN) -> int | None:
    """Index of the curve vertex equal to x0, or None; raises if x0 sits on a segment."""
    v = c.vertices
    scale = c.scale
    tol = COINCIDENCE_REL_TOL * scale
    d = np.linalg.norm(v - x0[None, :], axis=1)
    i = int(np.argmin(d))
    if d[i] <= tol:
        return i
    a = v
    b = np.roll(v, -1, axis=0)
    seg_d2 = _point_segment_dist2(a, b, x0)
    if float(seg_d2.min()) <= tol * tol:
        raise ProjectionSingularError("projection center lies on the curve")
    return None


def _subtended_angles(c: PolylineCurve, x0: PointN) -> tuple[np.ndarray, np.ndarray]:
    """(keep, angles): the mask of the segments [v_i, v_i+1] that do not end
    at x0 and the angle each of them subtends at x0, from the half-angle
    formula of `_angles_batch`, accurate to a few ulps all the way to pi."""
    x0 = as_point(x0, dim=c.dim)
    center_idx = _locate_center(c, x0)
    v = c.vertices
    k = c.k
    keep = np.ones(k, dtype=bool)
    if center_idx is not None:
        keep[center_idx] = False
        keep[(center_idx - 1) % k] = False
    u = v[keep] - x0[None, :]
    w = np.roll(v, -1, axis=0)[keep] - x0[None, :]
    return keep, _angles_batch(u.T, w.T)


def radial_projection_length(c: PolylineCurve, x0: PointN) -> float:
    """Length of the curve's radial projection onto the unit sphere around x0.

    Each segment projects to a great-circle arc whose length is the angle the
    segment subtends at x0 (`_subtended_angles`). When x0 coincides with a
    curve vertex, that vertex is excised: the two incident segments project
    to single points and contribute zero, and the rest of the curve is
    projected as an open arc.
    """
    return stable_sum(_subtended_angles(c, x0)[1].tolist())


def cone_density(c: PolylineCurve, x0: PointN) -> float:
    """Area density at the apex of the cone over the curve: projection/(2*pi)."""
    return radial_projection_length(c, x0) / (2.0 * math.pi)


def build_cone(c: PolylineCurve, x0: PointN) -> "SurfaceModel":  # noqa: F821
    """The mesh of the cone {x0 + t (x - x0) : x in curve, t in [0, 1]}.

    Every ring reuses the curve's vertices scaled about x0, so the t = 1 ring
    coincides with the curve vertex-for-vertex, and the apex closes the fan
    at t = 0. The apex may not lie on the curve.
    """
    from .surfaces import SurfaceModel, strip_faces

    x0 = as_point(x0, dim=c.dim)
    if _locate_center(c, x0) is not None:
        raise InvalidParameterError("unit cone apex must not lie on the curve")

    v = c.vertices
    k = c.k
    rad = v - x0[None, :]
    span = float(np.linalg.norm(rad, axis=1).mean())
    edges = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)
    nt = int(np.clip(round(span / max(float(edges.mean()), 1e-12)), 1, 512))
    ts = np.linspace(0.0, 1.0, nt + 1)
    # the apex stands in for the t = 0 ring
    rings = x0[None, None, :] + ts[1:, None, None] * rad[None, :, :]
    stack = np.concatenate([x0[None, :], rings.reshape(-1, c.dim)])
    return SurfaceModel.build(stack, strip_faces(nt, k, True, True)[0])


@dataclass(frozen=True)
class BoundReport:
    """Outcome of checking a projection length against its turning-angle bound."""

    mode: str  # "interior" (x0 off the curve) or "boundary" (x0 a curve vertex)
    projection_length: float
    tc: float
    theta: float
    bound: float
    slack: float
    tolerance: float
    ok: bool
    tc_method: str = "polygonal"

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "projection_length": self.projection_length,
            "total_curvature": self.tc,
            "tc_method": self.tc_method,
            "theta": self.theta,
            "bound": self.bound,
            "slack": self.slack,
            "tolerance": self.tolerance,
            "ok": self.ok,
        }


def projection_bound_report(c: PolylineCurve, x0: PointN) -> BoundReport:
    """Compare the radial projection length with its curvature bound.

    With x0 off the curve the bound is the total curvature. With x0 at a
    curve vertex the bound is TC - pi - theta, where theta is the corner's
    exterior angle: the actual turning angle for a raw polygon, the flagged
    intended angle (0 if unflagged) for a sampled curve.

    The tolerance bounds the slack's rounding: each subtended or turning
    angle (`_angles_batch`, theta included) is off by at most
    (2 sqrt(2) (n + 4) + 2 pi) u, as `monotonicity._clip_rounding_bounds`
    derives, and the exact sums, math.pi and the subtractions add less than
    4u (proj + TC + pi + theta).
    """
    keep, angles = _subtended_angles(c, x0)  # locates x0 on the curve
    proj = stable_sum(angles.tolist())
    tc = total_curvature(c)
    count = angles.size + c.k
    if keep.all():
        bound, theta, mode = tc, 0.0, "interior"
    else:
        mode = "boundary"
        center_idx = int(np.flatnonzero(~keep & ~np.roll(keep, 1))[0])
        if c.corner_flags is None:
            theta = float(turning_angles(c)[center_idx])
            count += 1
        else:
            theta = 0.0
            for f in c.corner_flags:
                if f.index == center_idx:
                    theta = float(f.theta)
                    break
        bound = tc - math.pi - theta
    slack = bound - proj
    u = np.finfo(np.float64).eps / 2.0
    e = (2.0 * math.sqrt(2.0) * (c.dim + 4) + 2.0 * math.pi) * u
    tol = e * count + 4.0 * u * (proj + tc + math.pi + theta)
    return BoundReport(
        mode=mode,
        projection_length=proj,
        tc=tc,
        theta=theta,
        bound=bound,
        slack=slack,
        tolerance=tol,
        ok=bool(slack >= -tol),
    )


def _best_fit_plane(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(centered, basis): the points less their mean, and the (2, n) rows
    spanning the directions of their best-fit affine 2-plane (the two
    leading right singular vectors of the centered points)."""
    x = np.asarray(points, dtype=np.float64)
    centered = x - x.mean(axis=0, keepdims=True)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return centered, vt[:2]


def best_fit_plane_deviation(points: np.ndarray) -> float:
    """Max distance from the points to their best-fit affine 2-plane."""
    centered, basis = _best_fit_plane(points)
    residual = centered - centered @ basis.T @ basis
    return float(np.linalg.norm(residual, axis=1).max(initial=0.0))
