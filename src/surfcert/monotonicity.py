"""Area-ratio profiles m(r), the integrated boundary monotonicity identity,
and the mean-curvature smallness constants.

m(r) = area((M u E) n B(r)) / r^2, where E is the exterior cone over the
boundary with vertex x0. The identity defect integrates the derivative
identity for A(r)/r^2 between two radii and reports LHS minus RHS; it needs
an analytic source because the curvature term cannot be trusted on raw
meshes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import PolylineCurve, build_cone
from .errors import (
    InputInconsistentError,
    InvalidParameterError,
    UnsupportedOperationError,
)
from .geometry import (
    Ball,
    PointN,
    as_point,
    clip_areas,
    clip_areas_total,
    point_triangle_dist2,
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
    "property_p_constants",
    "m_profile",
    "identity_defect",
    "check_property_p",
    "check_weighted_monotonicity",
    "check_large_radius_bound",
    "conormal_spot_check",
    "default_radius_grid",
]

# quadrature pieces per face = 4**DEFAULT_REFINE
DEFAULT_REFINE = 1

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

    p = inf gives (alpha, lam) = (1, sup |H|); finite p > 2 gives
    alpha = 1 - 2/p and lam = (2p/(p-2)) (2/pi)^(1/p) ||H||_p, valid under a
    smallness condition on ||H||_p times diameter^alpha.
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

    @property
    def weighted_m(self) -> tuple:
        return tuple(
            math.exp(self.lam * r**self.alpha) * m
            for r, m in zip(self.radii, self.m_values)
        )

    def to_dict(self) -> dict:
        return {
            "x0": [float(v) for v in self.x0],
            "radii": list(self.radii),
            "m": list(self.m_values),
            "weighted_m": list(self.weighted_m),
            "alpha": self.alpha,
            "lambda": self.lam,
            "r0": self.r0,
            "tol_disc": self.tol_disc,
        }


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


def property_p_constants(s: SurfaceModel, p: float) -> PropertyPConstants:
    """Smallness constants from the surface's mean curvature at exponent p."""
    if p is None or (not math.isinf(p) and p <= 2):
        raise InvalidParameterError(f"exponent must be > 2 or inf, got {p}")
    scalar, _vec = mean_curvature_field(s)
    if math.isinf(p):
        lam = lp_norm(scalar, s, math.inf)
        return PropertyPConstants(
            p=math.inf, alpha=1.0, lam=lam, smallness_ok=True, smallness_margin=math.inf
        )
    alpha = 1.0 - 2.0 / p
    hnorm = lp_norm(scalar, s, p)
    lam = (2.0 * p / (p - 2.0)) * (2.0 / math.pi) ** (1.0 / p) * hnorm
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
    tol = 1e-9 * max(s.scale, 1e-30)
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


def _exterior_cones(curves: list, x0: PointN, t_max: float) -> list:
    return [build_cone(c, x0, kind="exterior", R=t_max) for c in curves]


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
    mesh loops (verified vertex-for-vertex up to cyclic shift). The exterior
    cone over each curve with vertex x0 is truncated far enough to exit the
    largest queried ball.

    tol_disc bounds the rounding error of any weighted increment w_j - w_i,
    w = exp(lam r^alpha) m. With dm(r) = (`_clip_rounding_bounds` at r) / r^2
    + 2u m(r), the last term for the rounding of the exact sum and of the
    division, that error is at most w_j dm(r_j) + w_i dm(r_i); the third
    unit in tol_disc = 3 max_r w(r) dm(r) covers the weights and the
    subtraction.
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

    all_bv = np.concatenate([c.vertices for c in curves], axis=0)
    dists = np.linalg.norm(all_bv - np.asarray(x0)[None, :], axis=1)
    positive = dists[dists > 1e-12 * max(s.scale, 1e-30)]
    if positive.size == 0:
        raise InputInconsistentError("x0 coincides with the entire boundary")
    t_max = 2.0 * max(radii) / float(positive.min()) + 1.0
    cones = _exterior_cones(curves, x0, t_max)

    face_tris = s.face_triangles()
    cone_tris = [c.mesh.face_triangles() for c in cones]
    m_vals = []
    for r in radii:
        ball = Ball(center=x0, radius=r)
        area = clip_areas_total(face_tris, ball)
        for ct in cone_tris:
            area += clip_areas_total(ct, ball)
        m_vals.append(area / r**2)

    lam, alpha = constants.lam, constants.alpha
    w = [math.exp(lam * r**alpha) * m for r, m in zip(radii, m_vals)]
    clip_err = _clip_rounding_bounds(np.concatenate([face_tris, *cone_tris]), x0, radii)
    u = np.finfo(np.float64).eps / 2.0
    tol_disc = 3.0 * max(
        wi * (e / r**2 + 2.0 * u * m) for wi, e, r, m in zip(w, clip_err, radii, m_vals)
    )
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
    )


def _clip_rounding_bounds(tris: np.ndarray, x0: np.ndarray, radii) -> np.ndarray:
    """First-order bound, per radius r, on the rounding error of
    clip_areas_total(tris, B(x0, r)).

    For a face within r of x0 (the clip's own point_triangle_dist2 test),
    with longest edge L, s = r + L, unit roundoff u and dimension n, every
    quantity the closed form reads has magnitude at most s, and to first
    order in u:
    - the in-plane vertices move by at most (2n + 5) u s, so the area moves
      by at most the perimeter 3s times that;
    - rho^2 = r^2 - h^2 is off by at most (5n + 19) u s^2, so the area is off
      by at most pi times that (the annulus between the two disks);
    - the chord points are stationary points of their edge term, and the
      nine sector and chord-triangle terms (absolute sum at most
      3 (1 + pi) s^2 / 2, relative error 5u each), the edge sums and the
      clamp add at most 45 u s^2.
    Together at most 24 (n + 6) u s^2 per face. A face fully inside counts
    its Gram area, whose error (n + 3) u L^4 / (2 area) stays within that
    (s >= 3L/2 there) unless area < L^2 / 100; an underestimate only makes
    the checks that use tol_disc stricter.
    """
    n = tris.shape[2]
    u = np.finfo(np.float64).eps / 2.0
    longest = np.linalg.norm(tris - np.roll(tris, 1, axis=1), axis=2).max(axis=1)
    d2 = point_triangle_dist2(tris, np.asarray(x0))
    r = np.asarray(radii, dtype=np.float64)[:, None]
    per_face = np.where(d2[None, :] <= r * r, (r + longest[None, :]) ** 2, 0.0)
    return 24.0 * (n + 6) * u * per_face.sum(axis=1)


# ---------------------------------------------------------------------------
# quadrature pieces over an analytic surface


def _analytic_pieces(s: SurfaceModel, refine: int):
    """Subdivide faces in parameter space and lift through the patch.

    Returns (param pieces (K,3,2), coordinate pieces (K,3,n), areas (K,),
    coordinate centroids (K,n), parameter centroids (K,2)).
    """
    if s.patch is None:
        raise UnsupportedOperationError(
            "this operation needs an analytic source; the mesh alone cannot "
            "supply curvature and exact boundary data"
        )
    pp = subdivide4(s.face_param_triangles(), levels=refine)
    flat = pp.reshape(-1, 2)
    coords = s.patch.u(flat).reshape(pp.shape[0], 3, -1)
    areas = triangle_areas(coords)
    ccent = coords.mean(axis=1)
    pcent = pp.mean(axis=1)
    return pp, coords, areas, ccent, pcent


def _boundary_elements(s: SurfaceModel, refine: int):
    """Subdivided boundary sub-edges with midpoints, lengths, outward
    conormals, and unit tangents, all from the analytic tangent plane.

    Returns (midpoints (B,n), lengths (B,), conormals (B,n), tangents (B,n)).
    """
    patch = s.patch
    fp = s.face_param_triangles()
    # directed boundary edges with their unique incident face
    edge_face: dict = {}
    for fi, f in enumerate(s.faces):
        for a in range(3):
            edge_face[(int(f[a]), int(f[(a + 1) % 3]))] = (fi, a)
    mids, lens, conos, tangs = [], [], [], []
    splits = 2 ** (refine + 2)
    t0s = np.arange(splits) / splits
    t1s = t0s + 1.0 / splits
    for loop in s.boundary_loops:
        k = loop.shape[0]
        for e in range(k):
            a, b = int(loop[e]), int(loop[(e + 1) % k])
            fi, la = edge_face[(a, b)]
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
            tangs.append(tn)
            mids.append(xm)
            lens.append(np.linalg.norm(x1p - x0p, axis=1))
    return (
        np.concatenate(mids),
        np.concatenate(lens),
        np.concatenate(conos),
        np.concatenate(tangs),
    )


def _segment_ball_clipped_length(mids, lens, x0, r):
    """Approximate length of each sub-edge inside B(x0, r) by its midpoint.

    Sub-edges are short (refined below the mesh scale), so the midpoint rule
    keeps the boundary integrand first-order accurate without root solving.
    """
    rho = np.linalg.norm(mids - np.asarray(x0)[None, :], axis=1)
    return np.where(rho <= r, lens, 0.0)


def _adaptive_simpson(f, a: float, b: float, tol: float, max_depth: int = 24) -> float:
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def rec(x0, x2, f0, f1, f2, s, tol, depth):
        x1 = 0.5 * (x0 + x2)
        lm, rm = 0.5 * (x0 + x1), 0.5 * (x1 + x2)
        flm, frm = f(lm), f(rm)
        left = (x1 - x0) / 6.0 * (f0 + 4.0 * flm + f1)
        right = (x2 - x1) / 6.0 * (f1 + 4.0 * frm + f2)
        if depth >= max_depth or abs(left + right - s) <= 15.0 * tol:
            return left + right + (left + right - s) / 15.0
        return rec(x0, x1, f0, flm, f1, left, tol / 2.0, depth + 1) + rec(
            x1, x2, f1, frm, f2, right, tol / 2.0, depth + 1
        )

    return rec(a, b, fa, fm, fb, whole, tol, 0)


def identity_defect(
    s: SurfaceModel, x0, sigma: float, r: float, refine: int = DEFAULT_REFINE
) -> float:
    """LHS minus RHS of the integrated area-ratio identity between two radii.

    LHS = A(r)/r^2 - A(sigma)/sigma^2 with A the area inside the ball.
    RHS = (annulus integral of the squared normal component of the radial
    field over distance^4) + (radial integral of the curvature moment)
    - (radial integral of the boundary conormal moment). The two radial
    integrals run adaptive Simpson in the outer radius; inner integrals use
    piece-level ball clipping. Needs an analytic source.
    """
    if not (0.0 < sigma < r):
        raise InvalidParameterError(f"need 0 < sigma < r, got {sigma}, {r}")
    x0 = as_point(x0, dim=s.dim)
    pp, coords, areas, ccent, pcent = _analytic_pieces(s, refine)
    x0a = np.asarray(x0)

    # LHS from exact piece-level clipping
    a_r = clip_areas_total(coords, Ball(center=x0, radius=r))
    a_s = clip_areas_total(coords, Ball(center=x0, radius=sigma))
    lhs = a_r / r**2 - a_s / sigma**2

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
    mind2 = point_triangle_dist2(coords, x0a)
    outside_sigma = mind2 >= sigma * sigma
    interior = inside_r & outside_sigma
    band = ~interior & ~(mind2 >= r * r) & ~np.all(vr <= sigma, axis=1)

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
        ring = clip_areas(coords[band], Ball(x0, r)) - clip_areas(coords[band], Ball(x0, sigma))
        vals = shell_integrand(pcent[band], metric_J=False)
        shell += float((vals * ring).sum())

    # radial integrals
    vmom = np.einsum("kn,kn->k", ccent - x0a[None, :], hvec)
    vmom = np.where(good, vmom, 0.0)
    rho_c = np.linalg.norm(ccent - x0a[None, :], axis=1)
    order = np.argsort(rho_c)
    rho_sorted = rho_c[order]
    mom_sorted = (vmom * areas)[order]
    mom_cum = np.concatenate([[0.0], np.cumsum(mom_sorted)])

    def f_curv(rho_hat: float) -> float:
        k = np.searchsorted(rho_sorted, rho_hat, side="right")
        return mom_cum[k] / rho_hat**3

    mids, lens, conos, _tangs = _boundary_elements(s, refine)
    bmom = np.einsum("bn,bn->b", mids - x0a[None, :], conos) * lens
    brho = np.linalg.norm(mids - x0a[None, :], axis=1)
    border = np.argsort(brho)
    brho_sorted = brho[border]
    bmom_cum = np.concatenate([[0.0], np.cumsum(bmom[border])])

    def f_bdry(rho_hat: float) -> float:
        k = np.searchsorted(brho_sorted, rho_hat, side="right")
        return bmom_cum[k] / rho_hat**3

    m_scale = a_r / r**2
    tol_abs = 1e-4 * max(abs(lhs), 1e-3 * m_scale, 1e-12)
    curv_term = _adaptive_simpson(f_curv, sigma, r, tol_abs)
    bdry_term = _adaptive_simpson(f_bdry, sigma, r, tol_abs)

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
        _pp, coords, _areas, _cc, pcent = _analytic_pieces(s, DEFAULT_REFINE)
        curv = s.patch.curvature_at(pcent)
        hmag = np.where(curv["unreliable"], 0.0, curv["mean_curvature_norm"])
    else:
        scalar, _ = mean_curvature_field(s)
        vals = np.where(scalar.unreliable, 0.0, scalar.values)
        coords = s.face_triangles()
        hmag = vals[s.faces].mean(axis=1)

    integrals, bounds, slacks, violations = [], [], [], []
    for idx, r in enumerate(prof.radii):
        w = clip_areas(coords, Ball(center=x0, radius=r))
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


def conormal_spot_check(s: SurfaceModel, x0) -> float:
    """Max over boundary sub-edges of (x-x0).nu_M - |radial component normal
    to the boundary tangent|; nonpositive values are consistent with the
    exterior-cone comparison used by the profile."""
    x0 = as_point(x0, dim=s.dim)
    if s.patch is not None and s.params is not None:
        mids, _lens, conos, tn = _boundary_elements(s, refine=0)
        x0a = np.asarray(x0)
        d = mids - x0a[None, :]
        radial = np.einsum("bn,bn->b", d, conos)
        perp = d - np.einsum("bn,bn->b", d, tn)[:, None] * tn
        return float(np.max(radial - np.linalg.norm(perp, axis=1)))
    # mesh-only fallback: face-plane conormals
    verts = s.vertices
    best = -math.inf
    x0a = np.asarray(x0)
    edge_face: dict = {}
    for fi, f in enumerate(s.faces):
        for a in range(3):
            edge_face[(int(f[a]), int(f[(a + 1) % 3]))] = fi
    for loop in s.boundary_loops:
        k = loop.shape[0]
        for e in range(k):
            a, b = int(loop[e]), int(loop[(e + 1) % k])
            pa, pb = verts[a], verts[b]
            mid = 0.5 * (pa + pb)
            fi = edge_face[(a, b)]
            cent = verts[s.faces[fi]].mean(axis=0)
            t = pb - pa
            tn = t / max(np.linalg.norm(t), 1e-300)
            v = mid - cent
            v = v - float(v @ tn) * tn
            nv = np.linalg.norm(v)
            if nv < 1e-300:
                continue
            nu = v / nv
            d = mid - x0a
            perp = d - float(d @ tn) * tn
            best = max(best, float(d @ nu) - float(np.linalg.norm(perp)))
    return best
