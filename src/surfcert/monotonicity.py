"""Area-ratio profiles m(r), the integrated boundary monotonicity identity,
and the mean-curvature smallness constants.

m(r) = area((M u E) n B(r)) / r^2, where E is the exterior cone over the
boundary with vertex x0, measured in closed form: over a segment [a, b] it
is the plane wedge from x0 less the triangle (x0, a, b). The identity defect
integrates the derivative identity for A(r)/r^2 between two radii and
reports LHS minus RHS; it needs an analytic source because the curvature
term cannot be trusted on raw meshes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import PolylineCurve, _subtended_angles
from .errors import (
    InputInconsistentError,
    InvalidParameterError,
    UnsupportedOperationError,
)
from .geometry import (
    Ball,
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
    "identity_defect",
    "check_property_p",
    "check_weighted_monotonicity",
    "check_large_radius_bound",
    "default_radius_grid",
]

# quadrature pieces per face = 4**REFINE; boundary sub-edges per edge = 2**(REFINE + 2)
REFINE = 1

# degree-5 rule on the reference triangle: barycentric abscissae and weights
_Q7_A1 = (6.0 - math.sqrt(15.0)) / 21.0
_Q7_A2 = (6.0 + math.sqrt(15.0)) / 21.0
_Q7_BARY = np.array(
    [
        [1 / 3, 1 / 3, 1 / 3],
        [1 - 2 * _Q7_A1, _Q7_A1, _Q7_A1],
        [_Q7_A1, 1 - 2 * _Q7_A1, _Q7_A1],
        [_Q7_A1, _Q7_A1, 1 - 2 * _Q7_A1],
        [1 - 2 * _Q7_A2, _Q7_A2, _Q7_A2],
        [_Q7_A2, 1 - 2 * _Q7_A2, _Q7_A2],
        [_Q7_A2, _Q7_A2, 1 - 2 * _Q7_A2],
    ]
)
_Q7_W = np.array(
    [9 / 40]
    + [(155.0 - math.sqrt(15.0)) / 1200.0] * 3
    + [(155.0 + math.sqrt(15.0)) / 1200.0] * 3
)


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
    one error-free sum: the surface's area in the ball plus, for each
    boundary segment [a, b] closer to x0 than r, theta r^2 / 2 less the
    area of the fan triangle (x0, a, b) in the ball, theta the angle [a, b]
    subtends at x0. x0 inside a segment raises ProjectionSingularError.

    tol_disc bounds the rounding error of any weighted increment w_j - w_i,
    w = exp(lam r^alpha) m. With dm(r) = (`_clip_rounding_bounds` at r of
    the surface and of the fan) / r^2 + 2u m(r), the last term for the
    rounding of the exact sum and of the division, that error is at most
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
    reach = face_reach(tris, x0, s.face_areas)
    fan, fan_near2, theta = _boundary_fan(curves, x0)
    fan_reach = face_reach(fan, x0)
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
    clip_err = _clip_rounding_bounds(tris, reach.near2, reach.far2, radii)
    clip_err += _clip_rounding_bounds(fan, fan_near2, fan_reach.far2, radii, wedge=True)
    u = np.finfo(np.float64).eps / 2.0
    m_err = [float(e) / r**2 + 2.0 * u * m for e, r, m in zip(clip_err, radii, m_vals)]
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
    tris: np.ndarray, near2: np.ndarray, far2: np.ndarray, radii, wedge: bool = False
) -> np.ndarray:
    """First-order bound, per radius r, on the rounding error of the clip of
    the (K, 3, n) stack `tris` by B(x0, r), over the faces with
    near2 <= r^2: the squared distances the clip is gated on, a surface's
    `face_reach(tris, x0).near2` or the segment distances of `m_profile`'s
    boundary fan. far2 is `face_reach(tris, x0).far2`, the squared distance
    of each face's farthest corner.

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
    n = tris.shape[2]
    u = np.finfo(np.float64).eps / 2.0
    longest = np.linalg.norm(tris - np.roll(tris, 1, axis=1), axis=2).max(axis=1)
    r = np.asarray(radii, dtype=np.float64)[:, None]
    r2 = r * r
    # in units of the crossing budget 24 (n + 6) u
    inside = (3.0 + n * n / 8.0) * longest**2
    if wedge:
        inside = inside + (math.sqrt(2.0) * (n + 4) + 2.0 * math.pi) * r2
    per_face = np.where(far2 <= r2, inside / (24.0 * (n + 6)), (r + longest) ** 2)
    return 24.0 * (n + 6) * u * np.where(near2 <= r2, per_face, 0.0).sum(axis=1)


# ---------------------------------------------------------------------------
# quadrature pieces over an analytic surface


def _analytic_pieces(s: SurfaceModel):
    """Subdivide faces in parameter space and lift through the patch.

    Returns (param pieces (K,3,2), coordinate pieces (K,3,n), areas (K,),
    coordinate centroids (K,n), parameter centroids (K,2)).
    """
    if s.patch is None:
        raise UnsupportedOperationError(
            "this operation needs an analytic source; the mesh alone cannot "
            "supply curvature and exact boundary data"
        )
    pp = subdivide4(s.face_param_triangles(), levels=REFINE)
    flat = pp.reshape(-1, 2)
    coords = s.patch.u(flat).reshape(pp.shape[0], 3, -1)
    areas = triangle_areas(coords)
    ccent = coords.mean(axis=1)
    pcent = pp.mean(axis=1)
    return pp, coords, areas, ccent, pcent


def _boundary_elements(s: SurfaceModel):
    """Subdivided boundary sub-edges with midpoints, lengths and outward
    conormals, all from the analytic tangent plane.

    Returns (midpoints (B,n), lengths (B,), conormals (B,n)).
    """
    patch = s.patch
    fp = s.face_param_triangles()
    mids, lens, conos = [], [], []
    splits = 2 ** (REFINE + 2)
    t0s = np.arange(splits) / splits
    t1s = t0s + 1.0 / splits
    for fi, la in s.boundary_face_corners.tolist():
        pa = fp[fi, la]
        pb = fp[fi, (la + 1) % 3]
        pc = fp[fi].mean(axis=0)
        # parameter points along the edge
        p0 = pa[None, :] + t0s[:, None] * (pb - pa)[None, :]
        p1 = pa[None, :] + t1s[:, None] * (pb - pa)[None, :]
        pm = 0.5 * (p0 + p1)
        x0p = patch.u(p0)
        x1p = patch.u(p1)
        xm = patch.u(pm)
        E = patch.du(pm)  # (S, n, 2)
        tang = np.einsum("snj,j->sn", E, pb - pa)
        tn = tang / np.maximum(np.linalg.norm(tang, axis=1, keepdims=True), 1e-300)
        out_par = pm - pc[None, :]
        v = np.einsum("snj,sj->sn", E, out_par)
        v = v - np.einsum("sn,sn->s", v, tn)[:, None] * tn
        nv = np.linalg.norm(v, axis=1, keepdims=True)
        v = v / np.maximum(nv, 1e-300)
        # outward means away from the face centroid in coordinates
        xc = patch.u(fp[fi].mean(axis=0)[None, :])[0]
        sign = np.sign(np.einsum("sn,sn->s", v, xm - xc[None, :]))
        sign[sign == 0] = 1.0
        conos.append(v * sign[:, None])
        mids.append(xm)
        lens.append(np.linalg.norm(x1p - x0p, axis=1))
    return np.concatenate(mids), np.concatenate(lens), np.concatenate(conos)


def _step_moment_integral(rho: np.ndarray, moment: np.ndarray, sigma: float, r: float) -> float:
    """Exact integral over t in [sigma, r] of M(t) / t^3, where M(t) sums the
    moments m_i with rho_i <= t: each m_i with rho_i < r contributes
    m_i (1 / max(rho_i, sigma)^2 - 1 / r^2) / 2."""
    near = rho < r
    lo = np.maximum(rho[near], sigma)
    return 0.5 * math.fsum((moment[near] * (1.0 / lo**2 - 1.0 / r**2)).tolist())


def identity_defect(s: SurfaceModel, x0, sigma: float, r: float) -> float:
    """LHS minus RHS of the integrated area-ratio identity between two radii.

    LHS = A(r)/r^2 - A(sigma)/sigma^2 with A the area inside the ball.
    RHS = (annulus integral of the squared normal component of the radial
    field over distance^4) + (radial integral of the curvature moment)
    - (radial integral of the boundary conormal moment). Each piece and
    boundary element sits at one distance rho_i from x0, so both radial
    integrands are step functions M(t)/t^3 and integrate in closed form; the
    areas use piece-level ball clipping. Needs an analytic source.
    """
    if not (0.0 < sigma < r):
        raise InvalidParameterError(f"need 0 < sigma < r, got {sigma}, {r}")
    x0 = as_point(x0, dim=s.dim)
    pp, coords, areas, ccent, pcent = _analytic_pieces(s)
    x0a = np.asarray(x0)

    # LHS from exact piece-level clipping
    reach = face_reach(coords, x0, areas)
    in_r = clip_areas(coords, Ball(center=x0, radius=r), reach)
    in_sigma = clip_areas(coords, Ball(center=x0, radius=sigma), reach)
    lhs = stable_sum(in_r.tolist()) / r**2 - stable_sum(in_sigma.tolist()) / sigma**2

    # shell term: 7-point rule in parameter space on interior pieces; a band
    # piece weighs its centroid value by its exact area inside the annulus
    curv = s.patch.curvature_at(pcent)
    hvec = curv["mean_curvature_vec"]
    good = ~curv["unreliable"]

    def shell_integrand(par_pts: np.ndarray, metric_J: bool = True):
        x = s.patch.u(par_pts)
        E = s.patch.du(par_pts)
        d = x - x0a[None, :]
        G = np.einsum("knj,knl->kjl", E, E)
        rhs = np.einsum("knj,kn->kj", E, d)
        det = G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] * G[:, 1, 0]
        safe = np.maximum(det, 1e-300)
        inv00, inv11 = G[:, 1, 1] / safe, G[:, 0, 0] / safe
        inv01 = -G[:, 0, 1] / safe
        c0 = inv00 * rhs[:, 0] + inv01 * rhs[:, 1]
        c1 = inv01 * rhs[:, 0] + inv11 * rhs[:, 1]
        tang = np.einsum("knj,kj->kn", E, np.stack([c0, c1], axis=1))
        perp = d - tang
        rho2 = (d**2).sum(-1)
        val = (perp**2).sum(-1) / np.maximum(rho2, 1e-300) ** 2
        if metric_J:
            val = val * np.sqrt(safe)
        return val

    vr = np.linalg.norm(coords - x0a[None, None, :], axis=2)
    inside_r = np.all(vr <= r, axis=1)
    outside_sigma = reach.near2 >= sigma * sigma
    interior = inside_r & outside_sigma
    band = ~interior & ~(reach.near2 >= r * r) & ~np.all(vr <= sigma, axis=1)

    shell = 0.0
    if np.any(interior):
        tri_par = pp[interior]
        par_area = 0.5 * np.abs(
            (tri_par[:, 1, 0] - tri_par[:, 0, 0]) * (tri_par[:, 2, 1] - tri_par[:, 0, 1])
            - (tri_par[:, 2, 0] - tri_par[:, 0, 0]) * (tri_par[:, 1, 1] - tri_par[:, 0, 1])
        )
        acc = np.zeros(tri_par.shape[0])
        for q in range(_Q7_BARY.shape[0]):
            lam = _Q7_BARY[q]
            pts = lam[0] * tri_par[:, 0] + lam[1] * tri_par[:, 1] + lam[2] * tri_par[:, 2]
            acc += _Q7_W[q] * shell_integrand(pts)
        shell += float((acc * par_area).sum())
    if np.any(band):
        ring = in_r[band] - in_sigma[band]
        vals = shell_integrand(pcent[band], metric_J=False)
        shell += float((vals * ring).sum())

    # radial integrals
    vmom = np.einsum("kn,kn->k", ccent - x0a[None, :], hvec)
    vmom = np.where(good, vmom, 0.0)
    rho_c = np.linalg.norm(ccent - x0a[None, :], axis=1)
    curv_term = _step_moment_integral(rho_c, vmom * areas, sigma, r)

    mids, lens, conos = _boundary_elements(s)
    bmom = np.einsum("bn,bn->b", mids - x0a[None, :], conos) * lens
    brho = np.linalg.norm(mids - x0a[None, :], axis=1)
    bdry_term = _step_moment_integral(brho, bmom, sigma, r)

    rhs = shell + curv_term - bdry_term
    return float(lhs - rhs)


# ---------------------------------------------------------------------------
# checks


def check_property_p(
    s: SurfaceModel, k: PropertyPConstants, x0, radii=None, profile=None
) -> PropertyPReport:
    """Per-radius slack of the curvature-mass bound against alpha lam r^(1+alpha) m(r).

    The boundary curves are taken from the mesh's own loops; the curvature
    integrand comes from the analytic source when present, else from the
    reliable part of the discrete estimate. A precomputed profile at the same
    x0 may be passed to reuse its m values (they do not depend on p).
    """
    x0 = as_point(x0, dim=s.dim)
    if profile is not None:
        prof = profile
    else:
        if radii is None:
            radii = default_radius_grid(s, x0)
        curves = [boundary_polyline(s, li) for li in range(len(s.boundary_loops))]
        prof = m_profile(s, curves, x0, radii=radii, constants=k)

    if s.patch is not None and s.params is not None:
        _pp, coords, areas, _cc, pcent = _analytic_pieces(s)
        curv = s.patch.curvature_at(pcent)
        hmag = np.where(curv["unreliable"], 0.0, curv["mean_curvature_norm"])
    else:
        scalar = mean_curvature_field(s)
        vals = np.where(scalar.unreliable, 0.0, scalar.values)
        coords, areas = s.face_triangles(), s.face_areas
        hmag = vals[s.faces].mean(axis=1)
    reach = face_reach(coords, x0, areas)

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
