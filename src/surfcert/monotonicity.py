"""Area-ratio profiles m(r), the first variation of the mesh, and the
mean-curvature smallness constants.

m(r) = area((M u E) n B(r)) / r^2, where E is the exterior cone over the
boundary with vertex x0, measured in closed form: over a segment [a, b] it
is the plane wedge from x0 less the triangle (x0, a, b). `first_variation`
evaluates the divergence theorem on the PL surface in each ball,
2A = E + B + S, in closed form on the mesh alone: E is the moment of the
edges' mean-curvature measure, the term the monotonicity argument bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import PolylineCurve, _subtended_angles
from .errors import InputInconsistentError, InvalidParameterError
from .geometry import (
    Ball,
    FaceReach,
    PointN,
    _point_segment_dist2,
    as_point,
    clip_areas,
    clip_areas_total,
    face_reach,
    stable_sum,
    subdivide4,
    triangle_areas,
)
from .surfaces import (
    SurfaceModel,
    _local_edge_length,
    boundary_polyline,
    extrinsic_diameter,
    lp_norm,
    mean_curvature_field,
    nearest_vertex,
)

__all__ = [
    "PropertyPConstants",
    "MonotonicityProfile",
    "PropertyPReport",
    "WeightedMonotonicityReport",
    "LargeRadiusReport",
    "curvature_prefactor",
    "property_p_constants",
    "m_profile",
    "FirstVariation",
    "first_variation",
    "check_property_p",
    "check_weighted_monotonicity",
    "check_large_radius_bound",
    "default_radius_grid",
]


@dataclass(frozen=True)
class PropertyPConstants:
    """Exponent and weight of the mean-curvature smallness property.

    lam = C(p) ||H||_p and alpha come from `curvature_prefactor`: p = inf
    gives (alpha, lam) = (1, sup |H|); finite p > 2 gives alpha = 1 - 2/p and
    lam = (2p/(p-2)) (2/pi)^(1/p) ||H||_p, valid under a smallness condition
    on ||H||_p times diameter^alpha.
    """

    p: float
    alpha: float
    lam: float
    smallness_ok: bool
    smallness_margin: float

    def to_dict(self) -> dict:
        return {
            "p": "inf" if math.isinf(self.p) else self.p,
            "alpha": self.alpha,
            "lambda": self.lam,
            "smallness_ok": self.smallness_ok,
            "smallness_margin": self.smallness_margin,
        }


@dataclass(frozen=True)
class MonotonicityProfile:
    x0: PointN
    radii: tuple
    m_values: tuple
    alpha: float
    lam: float
    r0: float  # extrinsic diameter of the surface
    defects: tuple  # (i, j, weighted defect) for every i < j
    tol_disc: float
    m_errors: tuple  # rounding bound dm(r) on each m value

    @property
    def weighted_m(self) -> tuple:
        return tuple(
            math.exp(self.lam * r**self.alpha) * m
            for r, m in zip(self.radii, self.m_values)
        )


@dataclass(frozen=True)
class PropertyPReport:
    radii: tuple
    curvature_integrals: tuple  # integral of |H| over M n B(r)
    bounds: tuple  # alpha lam r^(alpha+1) m(r)
    slacks: tuple  # bound - integral
    tolerance: float
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class WeightedMonotonicityReport:
    defects: tuple  # (i, j, value)
    tolerance: float
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class LargeRadiusReport:
    anchor: float
    radii: tuple
    slacks: tuple
    tolerance: float
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class FirstVariation:
    """2 A(r) = E(r) + B(r) + S(r) at each radius, from `first_variation`."""

    radii: tuple
    areas: tuple  # A
    interior: tuple  # E
    boundary: tuple  # B
    sphere: tuple  # S
    errors: tuple  # bound on the sum of the rounding errors of 2A, E, B and S

    @property
    def residuals(self) -> tuple:
        """2A - E - B - S, correctly rounded."""
        return tuple(
            stable_sum([2.0 * a, -e, -b, -s])
            for a, e, b, s in zip(self.areas, self.interior, self.boundary, self.sphere)
        )


# ---------------------------------------------------------------------------
# constants


def curvature_prefactor(p: float) -> tuple[float, float]:
    """(C(p), alpha): the constant multiplying ||H||_p r0^alpha and the
    exponent, C(inf) = 1 with alpha = 1."""
    if p is None or not (p == math.inf or p > 2):
        raise InvalidParameterError(f"exponent must be > 2 or inf, got {p}")
    if math.isinf(p):
        return 1.0, 1.0
    return (2.0 * p / (p - 2.0)) * (2.0 / math.pi) ** (1.0 / p), 1.0 - 2.0 / p


def property_p_constants(s: SurfaceModel, p: float) -> PropertyPConstants:
    """Smallness constants from the surface's mean curvature at exponent p."""
    cp, alpha = curvature_prefactor(p)
    hnorm = lp_norm(mean_curvature_field(s), s, p)
    lam = cp * hnorm
    if math.isinf(p):
        return PropertyPConstants(
            p=math.inf, alpha=alpha, lam=lam, smallness_ok=True, smallness_margin=math.inf
        )
    r0 = extrinsic_diameter(s)
    lhs = hnorm * r0**alpha
    rhs = ((p - 2.0) / 2.0) * (math.pi / 2.0) ** (1.0 / p)
    return PropertyPConstants(
        p=float(p),
        alpha=alpha,
        lam=lam,
        smallness_ok=bool(lhs <= rhs),
        smallness_margin=float(rhs - lhs),
    )


# ---------------------------------------------------------------------------
# boundary matching and the exterior cone


def _as_curves(boundary) -> list:
    if isinstance(boundary, PolylineCurve):
        return [boundary]
    curves = list(boundary)
    if not curves or not all(isinstance(c, PolylineCurve) for c in curves):
        raise InvalidParameterError("boundary must be a curve or a sequence of curves")
    return curves


def _match_boundary(s: SurfaceModel, curves: list) -> None:
    """Every mesh boundary loop must coincide with exactly one given curve.

    Matching is up to cyclic shift and orientation, within 1e-9 of the
    surface scale per vertex.
    """
    tol = 1e-9 * s.scale
    loops = list(s.boundary_loops)
    if len(curves) != len(loops):
        raise InputInconsistentError(
            f"surface has {len(loops)} boundary loops, given {len(curves)} curves"
        )
    taken = [False] * len(loops)
    for c in curves:
        cv = c.vertices
        found = None
        for li, loop in enumerate(loops):
            if taken[li] or loop.shape[0] != cv.shape[0]:
                continue
            lv = s.vertices[loop]
            starts = np.nonzero(np.linalg.norm(lv - cv[0], axis=1) <= tol)[0]
            for st in starts:
                rolled = np.roll(lv, -st, axis=0)
                if np.max(np.linalg.norm(rolled - cv, axis=1)) <= tol:
                    found = li
                    break
                rev = rolled[::-1]
                if np.max(np.linalg.norm(np.roll(rev, 1, axis=0) - cv, axis=1)) <= tol:
                    found = li
                    break
            if found is not None:
                break
        if found is None:
            raise InputInconsistentError(
                "a given boundary curve matches no mesh boundary loop"
            )
        taken[found] = True


def default_radius_grid(s: SurfaceModel, x0) -> tuple:
    """Geometric x sqrt(2) grid from 5 local edge lengths to 4 diameters.

    The diameter itself is inserted so large-radius checks have their anchor.
    """
    x0 = as_point(x0, dim=s.dim)
    r0 = extrinsic_diameter(s)
    vi, _ = nearest_vertex(s, x0)
    lo = 5.0 * _local_edge_length(s, vi)
    hi = 4.0 * r0
    if not (0 < lo < hi):
        pts = [0.5 * r0, r0, 2.0 * r0, 4.0 * r0]
    else:
        pts = []
        r = lo
        while r < hi * (1.0 - 1e-12):
            pts.append(r)
            r *= math.sqrt(2.0)
        pts.append(hi)
        pts.append(r0)
    pts = sorted(pts)
    out = [pts[0]]
    for r in pts[1:]:
        if r > out[-1] * (1.0 + 1e-12):
            out.append(r)
    return tuple(out)


def m_profile(
    s: SurfaceModel,
    boundary,
    x0,
    radii=None,
    constants: PropertyPConstants | None = None,
) -> MonotonicityProfile:
    """Profile of m(r) over a radius grid, with pairwise weighted defects.

    boundary: the surface's boundary as one curve or a sequence covering all
    mesh loops (verified vertex-for-vertex up to cyclic shift). m(r) r^2 is
    the error-free sum of the surface's area A(r) in the ball, itself the
    correctly rounded `clip_areas_total`, and, for each boundary segment
    [a, b] closer to x0 than r, theta r^2 / 2 less the area of the fan
    triangle (x0, a, b) in the ball, theta the angle [a, b] subtends at x0.
    x0 inside a segment raises ProjectionSingularError.

    tol_disc bounds the rounding error of any weighted increment w_j - w_i,
    w = exp(lam r^alpha) m. With dm(r) = (`_clip_rounding_bounds` at r of
    the surface and of the fan) / r^2 + 3u m(r), the last term for the
    roundings of A(r), of the exact sum and of the division (u A(r) / r^2
    <= u m(r), since every fan term is at least 0: the fan triangle in the
    ball lies in the sector of angle theta), that error is at most
    w_j dm(r_j) + w_i dm(r_i); the third unit in tol_disc =
    3 max_r w(r) dm(r) covers the weights and the subtraction. m_errors
    holds dm(r) at each radius, for checks that weigh m differently.
    """
    x0 = as_point(x0, dim=s.dim)
    curves = _as_curves(boundary)
    _match_boundary(s, curves)
    if radii is None:
        radii = default_radius_grid(s, x0)
    radii = tuple(float(r) for r in radii)
    if not radii or any(r <= 0 for r in radii) or any(
        b <= a for a, b in zip(radii, radii[1:])
    ):
        raise InvalidParameterError("radii must be positive and strictly increasing")
    if constants is None:
        constants = property_p_constants(s, math.inf)

    # a segment's cone adds nothing until r passes the segment's distance
    tris = s.face_triangles()
    reach = face_reach(tris, x0, s.face_areas, radii)
    fan, fan_near2, theta = _boundary_fan(curves, x0)
    fan_reach = face_reach(fan, x0, radii=radii)
    m_vals = []
    for r in radii:
        ball = Ball(center=x0, radius=r)
        parts = [clip_areas_total(tris, ball, reach)]
        crossed = fan_near2 < r * r
        if crossed.any():
            parts += (theta[crossed] * (0.5 * r * r)).tolist()
            parts += (-clip_areas(fan, ball, fan_reach)[crossed]).tolist()
        m_vals.append(stable_sum(parts) / r**2)
    lam, alpha = constants.lam, constants.alpha
    w = [math.exp(lam * r**alpha) * m for r, m in zip(radii, m_vals)]
    clip_err = _clip_rounding_bounds(reach, reach.near2, radii)
    clip_err += _clip_rounding_bounds(fan_reach, fan_near2, radii, wedge=True)
    u = np.finfo(np.float64).eps / 2.0
    m_err = [float(e) / r**2 + 3.0 * u * m for e, r, m in zip(clip_err, radii, m_vals)]
    tol_disc = 3.0 * max(wi * dm for wi, dm in zip(w, m_err))
    defects = tuple(
        (i, j, w[j] - w[i]) for i in range(len(radii)) for j in range(i + 1, len(radii))
    )
    return MonotonicityProfile(
        x0=x0,
        radii=radii,
        m_values=tuple(m_vals),
        alpha=alpha,
        lam=lam,
        r0=extrinsic_diameter(s),
        defects=defects,
        tol_disc=tol_disc,
        m_errors=tuple(m_err),
    )


def _boundary_fan(curves: list, x0: PointN):
    """(fan, near2, theta) over the segments [a, b] of the curves that do not
    end at x0: the (k, 3, n) triangles (x0, a, b), the squared distance from
    x0 to each segment and the angle each subtends at x0. Raises
    ProjectionSingularError when x0 lies inside a segment."""
    fans, near2, theta = [], [], []
    for c in curves:
        keep, angles = _subtended_angles(c, x0)
        a = c.vertices[keep]
        b = np.roll(c.vertices, -1, axis=0)[keep]
        fans.append(np.stack([np.broadcast_to(x0, a.shape), a, b], axis=1))
        near2.append(_point_segment_dist2(a, b, x0))
        theta.append(angles)
    return np.concatenate(fans), np.concatenate(near2), np.concatenate(theta)


def _clip_rounding_bounds(
    reach: FaceReach, near2: np.ndarray, radii, wedge: bool = False
) -> np.ndarray:
    """First-order bound, per radius r, on the rounding error of the clip by
    B(x0, r) of the (K, 3, n) stack that `reach` classifies about x0, over
    the faces with near2 <= r^2: the squared distances the clip is gated
    on, `reach.near2` or the segment distances of `m_profile`'s boundary
    fan. The reach gives each face's longest edge L (from `longest2`) and
    far2, the squared distance of its farthest corner.

    For a face the sphere crosses (far2 > r^2), with longest edge L,
    s = r + L, unit roundoff u and dimension n, every quantity the closed
    form reads has magnitude at most s, and to first order in u:
    - the in-plane vertices move by at most (2n + 5) u s, so the area moves
      by at most the perimeter 3s times that;
    - rho^2 = r^2 - h^2 is off by at most (5n + 19) u s^2, so the area is off
      by at most pi times that (the annulus between the two disks);
    - the chord points are stationary points of their edge term, and the
      nine sector and chord-triangle terms (absolute sum at most
      3 (1 + pi) s^2 / 2, relative error 5u each), the edge sums and the
      clamp add at most 45 u s^2.
    Together at most 24 (n + 6) u s^2 per face, which leaves
    ((18 - 5 pi) n + 84 - 19 pi) u s^2 > (3n/2 + 12) u s^2 unused. A face
    wholly inside (far2 <= r^2) counts its wedge-product area
    (`triangle_areas`), half the norm of the minors e1_i e2_j - e1_j e2_i;
    each minor is off by at most 4u (|e1_i e2_j| + |e1_j e2_i|) and the
    squares, sum and root add (n^2 - n + 4) u / 4 of relative error, so that
    area is off by at most (3 + n^2 / 8) u L^2 whatever the face's shape,
    and that is what such a face is charged.

    With `wedge`, each triangle is a fan triangle (x0, a, b) that also
    carries its wedge term theta r^2 / 2, with theta from
    `_angles_batch(a - x0, b - x0)`. There each norm is off by (n/2 + 1) u
    relative and each unit vector by (n/2 + 2) u, so the chord lengths
    |a' - b'| and |a' + b'|, whose squares sum to 4, are off by (2n + 8) u
    each. atan2 of the two moves by at most 1/sqrt(2) times that, plus its
    own ulp, so theta is off by (2 sqrt(2) (n + 4) + 2 pi) u; with the two
    roundings of theta (r^2 / 2), theta <= pi, the wedge term is off by at
    most (sqrt(2) (n + 4) + 2 pi) u r^2 < (3n/2 + 12) u s^2. A crossing fan
    triangle's budget holds it in its unused part; one wholly inside is
    charged it on top of its area's bound. An underestimate only makes the
    checks that use tol_disc stricter.
    """
    n = reach.center.size
    u = np.finfo(np.float64).eps / 2.0
    longest = np.sqrt(reach.longest2)
    r = np.asarray(radii, dtype=np.float64)[:, None]
    r2 = r * r
    # in units of the crossing budget 24 (n + 6) u
    inside = (3.0 + n * n / 8.0) * longest**2
    if wedge:
        inside = inside + (math.sqrt(2.0) * (n + 4) + 2.0 * math.pi) * r2
    per_face = np.where(reach.far2 <= r2, inside / (24.0 * (n + 6)), (r + longest) ** 2)
    return 24.0 * (n + 6) * u * np.where(near2 <= r2, per_face, 0.0).sum(axis=1)


# ---------------------------------------------------------------------------
# the first variation on the mesh


def first_variation(s: SurfaceModel, x0, radii) -> FirstVariation:
    """The terms of 2 A(r) = E(r) + B(r) + S(r), the first variation of the
    PL surface in each ball B(x0, r), with a bound on their rounding error.

    X = x - x0 has tangential divergence 2 on a flat face, so twice the
    face's area in the ball is the flux of X out through its sides, with
    outward in-plane conormal nu, on which X.nu is constant, and through the
    arc, of angle phi, of the circle of radius rho where its plane cuts the
    sphere, on which X.nu = rho. So E sums |e n B(r)| (a_e - x0).(nu_1 +
    nu_2), the moment of the PL mean-curvature measure, over the interior
    edges, B the same with one nu over the boundary edges and S rho^2 phi
    over the faces; A is `clip_areas_total`, and faces it counts as
    degenerate add to no term. An edge a + t d is in the ball for t in
    [t0 - tau, t0 + tau] n [0, 1], t0 the foot of x0 on its line,
    tau = sqrt(q) / |d| and q = r^2 less the squared distance from x0 to the
    line. That one solve gives the edge's length in the ball and the sector
    ends of `geometry._edge_fan_areas`, whose angles add up to phi over a
    face's sides: from the foot of x0 on the plane a side starts at
    (-t0 |d|, eta) in its own coordinates, eta = (a - x0).nu, and
    rho^2 = q + eta^2. S is never 2A - E - B, so the identity checks E and B
    against the clip.

    `errors` bounds, to first order in the unit roundoff u and dimension n,
    the sum of the errors of 2A, E, B and S, hence |2A - E - B - S| and each
    term's error. 2A is charged twice `_clip_rounding_bounds`. On a face of
    area A_f, longest edge L_f, v = (d.w) d - |d|^2 w (sides d, w) has norm
    2 A_f |d| and is off by (2n + 10) u |d|^2 |w|, so nu by
    eps_f = (2n + 10) u L_f^2 / A_f + (n/2 + 2) u. On an edge from a, of
    length l, with s = max(r, |a - x0|) + l: the moment m is off by
    dm = |a - x0| (eps_1 + eps_2 + (2n + 4) u), q by dq = (5n + 18) u s^2,
    sqrt(q) by min(sqrt(dq), dq / sqrt(q)), which grows near tangency, and a
    crossing t l by dp = that + (3n + 8) u s. A crossing over dp off [0, l],
    or on an edge with q + dq <= 0, is exact; moving one by dp moves the edge
    term by |m| dp and each side's sector term by |eta| dp <= r dp. The
    length L in the ball is off by (n/2 + 4) u L, and the product and the
    exact sum add 2u. So an edge is charged L dm + (|m| + dm) (n/2 + 6) u L
    + (|m| + dm + 2r) dp per inexact crossing. A side of a face the ball
    meets, unless its crossings pin it whole inside (then its sectors are
    exact zeros): eta is off by s (eps_f + (n + 1) u), rho^2 by
    dq + 2 s^2 (eps_f + (n + 2) u) times sectors of at most pi; the four
    sector ends, rho or more from the foot, move by (2n + 5) u s plus eta's
    error, which after the factor rho^2 adds r times that; atan2 and its
    arguments add (12 + 4 pi) u s^2, the product and the exact sum
    2 pi u s^2: (11 eps_f + (34 n + 126) u) s^2 a side. As in
    `_clip_rounding_bounds`, the gates on computed distances count as exact.
    """
    x0 = as_point(x0, dim=s.dim)
    balls = [Ball(center=x0, radius=r) for r in radii]
    n = s.dim
    u = np.finfo(np.float64).eps / 2.0
    tris = s.face_triangles()
    reach = face_reach(tris, x0, s.face_areas, [b.radius for b in balls])
    live = reach.live

    # side 3f + c runs from corner c of face f to corner c + 1: its outward
    # conormal nu, nu's error eps and eta
    d = np.roll(tris, -1, axis=1) - tris
    w = np.roll(tris, -2, axis=1) - tris
    v = (d * w).sum(-1)[..., None] * d - (d * d).sum(-1)[..., None] * w
    norm = np.linalg.norm(v, axis=2, keepdims=True)
    nu = np.where(live[:, None, None], v / np.where(norm > 0.0, norm, 1.0), 0.0).reshape(-1, n)
    eps = (2 * n + 10) * u * reach.longest2 / np.where(live, reach.areas, 1.0) + (n / 2 + 2) * u
    eps = np.repeat(np.where(live, eps, 0.0), 3)
    eta = ((tris - x0).reshape(-1, n) * nu).sum(-1)

    # the edges, from the start a of their first side: side h lies on edge
    # `edge[h]`, reversed where `back[h]`; an edge of two sides is interior,
    # and one with no live face is dead
    start, end = s.faces.ravel(), np.roll(s.faces, -1, axis=1).ravel()
    key = np.minimum(start, end) * s.n_vertices + np.maximum(start, end)
    _, rep, edge, sides = np.unique(key, return_index=True, return_inverse=True, return_counts=True)
    back = start != start[rep][edge]
    nu_sum = np.zeros((rep.size, n))
    np.add.at(nu_sum, edge, nu)
    eps_sum = np.bincount(edge, eps)
    dead = eps_sum == 0.0
    xa = s.vertices[start[rep]] - x0
    de = s.vertices[end[rep]] - s.vertices[start[rep]]
    moment = (xa * nu_sum).sum(-1)
    xa_len = np.linalg.norm(xa, axis=1)
    dm = np.where(dead, 0.0, xa_len * (eps_sum + (2 * n + 4) * u))
    length = np.where(dead, 1.0, np.linalg.norm(de, axis=1))
    t0 = -(xa * de).sum(-1) / (length * length)
    perp2 = ((xa + t0[:, None] * de) ** 2).sum(-1)
    side_t0 = np.where(back, 1.0 - t0[edge], t0[edge])

    clip_err = _clip_rounding_bounds(reach, reach.near2, [b.radius for b in balls])
    areas, e_terms, b_terms, s_terms, errors = [], [], [], [], []
    for ball, cerr in zip(balls, clip_err):
        r = ball.radius
        r2 = r * r
        areas.append(clip_areas_total(tris, ball, reach))
        # each edge's crossings, how many are inexact, and its charge
        se = np.maximum(r, xa_len) + length
        dq = (5 * n + 18) * u * se * se
        q = r2 - perp2
        root = np.sqrt(np.maximum(q, 0.0))
        dp = dq / np.maximum(root, np.sqrt(dq)) + (3 * n + 8) * u * se
        lo, hi = t0 - root / length, t0 + root / length
        t1, t2 = np.clip(lo, 0.0, 1.0), np.clip(hi, 0.0, 1.0)
        inside = (t2 - t1) * length
        loose = sum(
            ~dead & (q + dq > 0.0) & (t * length > -dp) & (t * length < length + dp)
            for t in (lo, hi)
        )
        mm = np.abs(moment) + dm
        charge = inside * dm + mm * (n / 2 + 6) * u * inside + (mm + 2.0 * r) * dp * loose
        e_terms.append(stable_sum((inside * moment)[sides == 2].tolist()))
        b_terms.append(stable_sum((inside * moment)[sides == 1].tolist()))

        # the sides of the live faces the ball meets, bar those pinned whole
        touched = ((inside > 0.0) | (loose > 0))[edge].reshape(-1, 3).any(axis=1)
        near = live & ((reach.near2 <= r2) | touched)
        on = np.repeat(near, 3) & ~((t1 == 0.0) & (t2 == 1.0) & (loose == 0))[edge]
        k, rev, et, l, a0 = edge[on], back[on], eta[on], length[edge[on]], side_t0[on]
        a1 = np.where(rev, 1.0 - t2[k], t1[k])
        a2 = np.where(rev, 1.0 - t1[k], t2[k])
        angle = np.arctan2(a1 * l * et, a0 * (a0 - a1) * l * l + et * et) + np.arctan2(
            (1.0 - a2) * l * et, (a2 - a0) * (1.0 - a0) * l * l + et * et
        )
        s_terms.append(stable_sum((np.maximum(q[k] + et * et, 0.0) * angle).tolist()))
        side_charge = (11.0 * eps[on] + (34 * n + 126) * u) * se[k] ** 2
        errors.append(2.0 * float(cerr) + float(charge.sum()) + float(side_charge.sum()))
    return FirstVariation(
        radii=tuple(b.radius for b in balls),
        areas=tuple(areas),
        interior=tuple(e_terms),
        boundary=tuple(b_terms),
        sphere=tuple(s_terms),
        errors=tuple(errors),
    )


# ---------------------------------------------------------------------------
# checks


def check_property_p(
    s: SurfaceModel, k: PropertyPConstants, x0, profile=None
) -> PropertyPReport:
    """Per-radius slack of the curvature-mass bound against alpha lam r^(1+alpha) m(r).

    The boundary curves are taken from the mesh's own loops; the curvature
    integrand comes from the analytic source when present, else from the
    reliable part of the discrete estimate. A precomputed profile at the same
    x0 may be passed to reuse its m values and radii (they do not depend on
    p); otherwise the profile is taken on the default radius grid.
    """
    x0 = as_point(x0, dim=s.dim)
    prof = profile
    if prof is None:
        curves = [boundary_polyline(s, li) for li in range(len(s.boundary_loops))]
        prof = m_profile(s, curves, x0, constants=k)

    if s.patch is not None and s.params is not None:
        pp = subdivide4(s.face_param_triangles())
        coords = s.patch.u(pp.reshape(-1, 2)).reshape(pp.shape[0], 3, -1)
        areas = triangle_areas(coords)
        hmag = s.patch.curvature_at(pp.mean(axis=1))[0]
    else:
        scalar = mean_curvature_field(s)
        vals = np.where(scalar.unreliable, 0.0, scalar.values)
        coords, areas = s.face_triangles(), s.face_areas
        hmag = vals[s.faces].mean(axis=1)
    reach = face_reach(coords, x0, areas, prof.radii)

    integrals, bounds, slacks, violations = [], [], [], []
    for idx, r in enumerate(prof.radii):
        w = clip_areas(coords, Ball(center=x0, radius=r), reach)
        integral = float((hmag * w).sum())
        bound = k.alpha * k.lam * r ** (k.alpha + 1.0) * prof.m_values[idx]
        slack = bound - integral
        integrals.append(integral)
        bounds.append(bound)
        slacks.append(slack)
        if slack < -prof.tol_disc:
            violations.append((r, slack))
    return PropertyPReport(
        radii=prof.radii,
        curvature_integrals=tuple(integrals),
        bounds=tuple(bounds),
        slacks=tuple(slacks),
        tolerance=prof.tol_disc,
        violations=tuple(violations),
    )


def check_weighted_monotonicity(prof: MonotonicityProfile) -> WeightedMonotonicityReport:
    """All pairwise increments of exp(lam r^alpha) m(r); flags drops beyond
    the discretization tolerance."""
    violations = tuple(
        (i, j, d) for (i, j, d) in prof.defects if d < -prof.tol_disc
    )
    return WeightedMonotonicityReport(
        defects=prof.defects, tolerance=prof.tol_disc, violations=violations
    )


def check_large_radius_bound(prof: MonotonicityProfile) -> LargeRadiusReport:
    """Slack of m(r) against the floor pinned at the diameter radius.

    The anchor is the smallest profile radius at or above the diameter (the
    floor stays valid for any anchor that contains the whole surface).
    """
    anchors = [rr for rr in prof.radii if rr >= prof.r0 * (1.0 - 1e-9)]
    if not anchors:
        raise InvalidParameterError(
            f"profile has no radius >= the diameter {prof.r0:g}; extend the grid"
        )
    anchor = anchors[0]
    ai = prof.radii.index(anchor)
    m0 = prof.m_values[ai]
    radii, slacks, violations = [], [], []
    for idx in range(ai + 1, len(prof.radii)):
        rr = prof.radii[idx]
        floor = m0 * (
            1.0
            - (prof.alpha * prof.lam * anchor**prof.alpha / 2.0)
            * (1.0 - anchor**2 / rr**2)
        )
        slack = prof.m_values[idx] - floor
        radii.append(rr)
        slacks.append(slack)
        if slack < -prof.tol_disc:
            violations.append((rr, slack))
    if not radii:
        raise InvalidParameterError("profile needs at least one radius beyond the anchor")
    return LargeRadiusReport(
        anchor=anchor,
        radii=tuple(radii),
        slacks=tuple(slacks),
        tolerance=prof.tol_disc,
        violations=tuple(violations),
    )
