"""Checkable certificates: density lower bounds, embeddedness via small mean
curvature plus boundary turning, corner density dichotomy, and the genus
bound from total curvature.

A certificate records each hypothesis with its measured value, the conclusion
with slacks, and a digest of the inputs. Failed hypotheses make the whole
certificate "not-applicable"; "violated" is reserved for a conclusion that
fails while every hypothesis holds.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .curves import (
    PolylineCurve,
    best_fit_plane_deviation,
    cone_density,
    total_curvature,
)
from .errors import InfeasibleError, InvalidParameterError
from .geometry import Ball, as_point, clip_areas_total
from .intersect import self_intersections
from .monotonicity import (
    check_weighted_monotonicity,
    default_radius_grid,
    m_profile,
    property_p_constants,
)
from .surfaces import (
    SurfaceModel,
    _local_edge_length,
    boundary_polyline,
    density_estimate,
    euler_characteristic,
    extrinsic_diameter,
    genus,
    second_form_sup,
)

__all__ = [
    "DeltaSolution",
    "Hypothesis",
    "Certificate",
    "delta_for_epsilon",
    "curvature_prefactor",
    "density_estimate_certificate",
    "embeddedness_certificate",
    "corner_density_certificate",
    "genus_certificate",
    "genus_bound",
]

# sampled density thresholds get this safety margin below 2 (interior) and
# 3/2 (boundary)
DENSITY_MARGIN = 0.05
# admissible corner density values are matched within this tolerance
CORNER_TOL = 0.05
_DELTA_SAFETY = 1e-9


@dataclass(frozen=True)
class DeltaSolution:
    epsilon: float
    alpha: float
    mode: str
    delta: float
    margin: float  # slack of the defining strict inequality at delta

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "alpha": self.alpha,
            "mode": self.mode,
            "delta": self.delta,
            "margin": self.margin,
        }


@dataclass(frozen=True)
class Hypothesis:
    name: str
    required: str
    measured: object  # number, string, or None when asserted
    ok: bool
    source: str = "measured"  # or "asserted"

    def to_dict(self) -> dict:
        m = self.measured
        if isinstance(m, float) and (math.isinf(m) or math.isnan(m)):
            m = str(m)
        return {
            "name": self.name,
            "required": self.required,
            "measured": m,
            "ok": self.ok,
            "source": self.source,
        }


@dataclass(frozen=True)
class Certificate:
    theorem_id: str
    hypotheses: tuple
    conclusion: dict
    citations: tuple
    inputs_digest: str
    status: str = field(init=False)

    def __post_init__(self):
        hyps_ok = all(h.ok for h in self.hypotheses)
        concl_ok = bool(self.conclusion.get("satisfied", False))
        if not hyps_ok:
            status = "not-applicable"
        elif concl_ok:
            status = "satisfied"
        else:
            status = "violated"
        object.__setattr__(self, "status", status)

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem_id,
            "status": self.status,
            "hypotheses": [h.to_dict() for h in self.hypotheses],
            "conclusion": _jsonable(self.conclusion),
            "citations": list(self.citations),
            "inputs_digest": self.inputs_digest,
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and (math.isinf(obj) or math.isnan(obj)):
        return str(obj)
    return obj


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())
        h.update(b"|")
    return h.hexdigest()


def _surface_digest(op: str, s: SurfaceModel, *extra) -> str:
    return _digest(op, s.vertices, s.faces, *extra)


# ---------------------------------------------------------------------------
# delta solver


def _delta_gap(delta: float, epsilon: float, alpha: float, mode: str) -> float:
    """Right side minus left side of the mode's strict inequality; positive
    means delta is admissible."""
    if mode == "interior":
        return 2.0 * (2.0 - alpha * delta) - math.exp(delta) * (4.0 - epsilon)
    if mode == "boundary":
        return 1.5 * (2.0 - alpha * delta) - math.exp(delta) * (3.0 - epsilon)
    if mode == "class_P":
        # no alpha dependence in this variant
        return 4.0 / (4.0 - epsilon) - math.exp(delta) / (1.0 - delta)
    raise InvalidParameterError(f"unknown delta mode {mode!r}")


def delta_for_epsilon(epsilon: float, alpha: float = 1.0, mode: str = "interior") -> DeltaSolution:
    """Largest admissible delta in (0, 1) for the given excess epsilon.

    Bisection to 1e-12, returned with a 1e-9 safety subtraction so the strict
    inequality survives round-tripping.
    """
    if not (0.0 < epsilon <= 2.0):
        raise InvalidParameterError(f"epsilon must lie in (0, 2], got {epsilon}")
    if not (0.0 < alpha <= 1.0):
        raise InvalidParameterError(f"alpha must lie in (0, 1], got {alpha}")
    lo = 1e-15
    if _delta_gap(lo, epsilon, alpha, mode) <= 0.0:
        raise InfeasibleError(
            f"no positive delta satisfies the {mode} inequality at epsilon={epsilon}"
        )
    hi = 1.0 - 1e-15
    if _delta_gap(hi, epsilon, alpha, mode) > 0.0:
        delta = hi
    else:
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if _delta_gap(mid, epsilon, alpha, mode) > 0.0:
                lo = mid
            else:
                hi = mid
        delta = lo
    delta = max(delta - _DELTA_SAFETY, 1e-15)
    return DeltaSolution(
        epsilon=epsilon,
        alpha=alpha,
        mode=mode,
        delta=delta,
        margin=_delta_gap(delta, epsilon, alpha, mode),
    )


def curvature_prefactor(p: float) -> tuple[float, float]:
    """(C(p), alpha): the constant multiplying ||H||_p r0^alpha and the
    exponent, C(inf) = 1 with alpha = 1."""
    if math.isinf(p):
        return 1.0, 1.0
    if p <= 2:
        raise InvalidParameterError(f"exponent must be > 2 or inf, got {p}")
    return (2.0 * p / (p - 2.0)) * (2.0 / math.pi) ** (1.0 / p), 1.0 - 2.0 / p


# ---------------------------------------------------------------------------
# shared hypothesis builders


def _curves_of(boundary) -> list:
    if isinstance(boundary, PolylineCurve):
        return [boundary]
    return list(boundary)


def _tc_hypothesis(curves) -> tuple[Hypothesis, float | None, float]:
    """Total boundary turning and the largest admissible excess epsilon."""
    tc = sum(total_curvature(c) for c in curves)
    eps = 4.0 - tc / math.pi
    ok = eps > 0.0
    hyp = Hypothesis(
        name="boundary-turning-below-4pi",
        required="total curvature < 4*pi (excess epsilon > 0)",
        measured=tc,
        ok=ok,
    )
    return hyp, (min(eps, 2.0) if ok else None), tc


def _smallness_hypotheses(s: SurfaceModel, p: float, delta: float | None):
    """Property constants, the C(p) ||H||_p r0^alpha < delta hypothesis, and
    the finite-p smallness condition."""
    k = property_p_constants(s, p)
    r0 = extrinsic_diameter(s)
    # lam already carries the C(p) prefactor, so lam r0^alpha is the scaled
    # curvature that competes with delta
    measured = k.lam * r0**k.alpha
    hyps = [
        Hypothesis(
            name="curvature-smallness",
            required="finite-p moment condition on the mean curvature",
            measured=k.smallness_margin,
            ok=k.smallness_ok,
        )
    ]
    if delta is None:
        hyps.append(
            Hypothesis(
                name="scaled-curvature-below-delta",
                required="C(p) ||H||_p r0^alpha < delta(epsilon)",
                measured=measured,
                ok=False,
            )
        )
    else:
        hyps.append(
            Hypothesis(
                name="scaled-curvature-below-delta",
                required=f"C(p) ||H||_p r0^alpha < {delta:.6g}",
                measured=measured,
                ok=bool(measured < delta),
            )
        )
    return k, measured, r0, hyps


def _vertex_density(s: SurfaceModel, x0) -> float:
    return density_estimate(s, x0, mode="auto").value


def _sample_vertices(total: int, exclude_mask, count: int) -> list:
    idx = [i for i in range(total) if not exclude_mask[i]]
    if not idx:
        return []
    if len(idx) <= count:
        return idx
    step = len(idx) / count
    return [idx[int(j * step)] for j in range(count)]


# ---------------------------------------------------------------------------
# certificates


def density_estimate_certificate(
    s: SurfaceModel, boundary, x0, p: float, profile=None
) -> Certificate:
    """Lower bound on the boundary-cone density by the surface density, plus
    the per-radius area-ratio form over the profile radii up to the diameter.

    profile: optional precomputed m-profile at the same x0 (saves the most
    expensive step; its m values are p-independent).
    """
    x0 = as_point(x0, dim=s.dim)
    curves = _curves_of(boundary)
    k, _measured, r0, small_hyps = _smallness_hypotheses(s, p, delta=None)
    # this certificate needs only the smallness condition, not a delta
    hyps = [small_hyps[0]]

    lam_r0 = k.lam * r0**k.alpha
    factor = math.exp(-lam_r0) * (1.0 - k.alpha * lam_r0 / 2.0)

    theta_m = _vertex_density(s, x0)
    theta_cone = sum(cone_density(c, x0) for c in curves)
    point_bound = factor * theta_m
    point_slack = theta_cone - point_bound

    prof = profile if profile is not None else m_profile(s, curves, x0, constants=k)
    profile_slacks = []
    for r, m in zip(prof.radii, prof.m_values):
        if r > r0 * (1.0 + 1e-12):
            continue
        w = math.exp(-k.lam * (r0**k.alpha - r**k.alpha))
        bound = w * (1.0 - k.alpha * lam_r0 / 2.0) * m
        profile_slacks.append(math.pi * theta_cone - bound)
    min_profile_slack = min(profile_slacks) if profile_slacks else math.inf

    ok = point_slack >= -1e-3 and min_profile_slack >= -prof.tol_disc
    conclusion = {
        "name": "cone-density-lower-bound",
        "surface_density": theta_m,
        "cone_density": theta_cone,
        "prefactor": factor,
        "point_bound": point_bound,
        "point_slack": point_slack,
        "profile_min_slack": min_profile_slack,
        "profile_tolerance": prof.tol_disc,
        "satisfied": bool(ok),
    }
    return Certificate(
        theorem_id="density-lower-bound",
        hypotheses=tuple(hyps),
        conclusion=conclusion,
        citations=("area-ratio-monotonicity", "cone-density-lower-bound"),
        inputs_digest=_surface_digest("density", s, [float(v) for v in x0], p),
    )


def embeddedness_certificate(
    s: SurfaceModel, boundary, p: float, which: str = "interior"
) -> Certificate:
    """Certify embeddedness from small scaled curvature and boundary turning
    below 4*pi; the conclusion checks sampled densities and runs the global
    face-pair sweep.
    """
    if which not in ("interior", "full"):
        raise InvalidParameterError(f"which must be 'interior' or 'full', got {which!r}")
    curves = _curves_of(boundary)
    tc_hyp, eps, _tc = _tc_hypothesis(curves)

    if eps is not None:
        _cp, alpha = curvature_prefactor(p)
        sol_i = delta_for_epsilon(eps, alpha, "interior")
        if which == "full":
            sol_b = delta_for_epsilon(eps, alpha, "boundary")
            delta = min(sol_i.delta, sol_b.delta)
        else:
            delta = sol_i.delta
    else:
        delta = None
    k, measured, _r0, small_hyps = _smallness_hypotheses(s, p, delta)
    hyps = [tc_hyp] + small_hyps

    bmask = s.boundary_vertex_mask
    interior_samples = _sample_vertices(s.n_vertices, bmask, 12)
    sampled = []
    worst_interior = 0.0
    for vi in interior_samples:
        d = _vertex_density(s, s.vertices[vi])
        sampled.append({"vertex": vi, "kind": "interior", "density": d})
        worst_interior = max(worst_interior, d)
    if s.patch is not None:
        for bp, _order in s.patch.branch_points:
            pt = s.patch.u(np.asarray([bp], dtype=np.float64))[0]
            d = _vertex_density(s, pt)
            sampled.append({"kind": "branch-point", "density": d})
            worst_interior = max(worst_interior, d)
    dens_ok = worst_interior <= 2.0 - DENSITY_MARGIN

    worst_boundary = 0.0
    if which == "full":
        bidx = np.nonzero(bmask)[0]
        pick = _sample_vertices(len(bidx), np.zeros(len(bidx), dtype=bool), 12)
        for j in pick:
            vi = int(bidx[j])
            d = _vertex_density(s, s.vertices[vi])
            sampled.append({"vertex": vi, "kind": "boundary", "density": d})
            worst_boundary = max(worst_boundary, d)
        dens_ok = dens_ok and worst_boundary <= 1.5 - DENSITY_MARGIN

    sweep = self_intersections(s)
    ok = dens_ok and sweep.clean
    conclusion = {
        "name": "certified embedded (sampled)",
        "scope": which,
        "max_interior_density": worst_interior,
        "max_boundary_density": worst_boundary if which == "full" else None,
        "interior_threshold": 2.0 - DENSITY_MARGIN,
        "boundary_threshold": 1.5 - DENSITY_MARGIN if which == "full" else None,
        "samples": sampled,
        "intersection_free": sweep.clean,
        "intersection_pairs": list(sweep.pairs),
        "satisfied": bool(ok),
    }
    return Certificate(
        theorem_id=(
            "interior-embeddedness" if which == "interior" else "boundary-embeddedness"
        ),
        hypotheses=tuple(hyps),
        conclusion=conclusion,
        citations=(
            "radial-projection-bound",
            "density-gap-dichotomy",
            "embedded-conclusion",
        ),
        inputs_digest=_surface_digest("embeddedness", s, p, which),
    )


def corner_density_certificate(s: SurfaceModel, boundary, corner_index: int) -> Certificate:
    """Match the extrapolated density at a flagged boundary corner against
    its two admissible values (or the cusp values)."""
    if not isinstance(boundary, PolylineCurve):
        raise InvalidParameterError("corner certificates need a single boundary curve")
    flags = boundary.corner_flags or ()
    theta = None
    for f in flags:
        if f.index == corner_index:
            theta = float(f.theta)
            break
    if theta is None:
        raise InvalidParameterError(
            f"vertex {corner_index} carries no corner flag on the given curve"
        )
    tc_hyp, eps, _tc = _tc_hypothesis([boundary])
    hyps = [tc_hyp]
    k = property_p_constants(s, math.inf)
    r0 = extrinsic_diameter(s)
    lam_r0 = k.lam * r0
    if eps is not None:
        sol = delta_for_epsilon(eps, 1.0, "class_P")
        hyps.append(
            Hypothesis(
                name="scaled-curvature-in-class",
                required=f"sup|H| r0 < {sol.delta:.6g}",
                measured=lam_r0,
                ok=bool(lam_r0 < sol.delta),
            )
        )
    else:
        hyps.append(
            Hypothesis(
                name="scaled-curvature-in-class",
                required="sup|H| r0 < delta(epsilon)",
                measured=lam_r0,
                ok=False,
            )
        )

    x0 = boundary.vertices[corner_index]
    note = ""
    if abs(theta - math.pi) <= 1e-9:
        planar_dev = best_fit_plane_deviation(boundary.vertices)
        if planar_dev <= 1e-9 * r0:
            admissible = (0.0, 1.0)
            note = "planar exception: cusp on a planar boundary admits density 1"
        else:
            admissible = (0.0,)
            note = "cusp: zero density unless the boundary is planar"
    else:
        admissible = (0.5 - theta / (2.0 * math.pi), 0.5 + theta / (2.0 * math.pi))

    measured = _corner_area_ratio_density(s, x0)
    nearest = min(admissible, key=lambda a: abs(a - measured))
    dist = abs(nearest - measured)
    conclusion = {
        "name": "corner-density-dichotomy (statement-level check)",
        "theta": theta,
        "admissible": list(admissible),
        "measured": measured,
        "nearest": nearest,
        "distance": dist,
        "tolerance": CORNER_TOL,
        "note": note,
        "satisfied": bool(dist <= CORNER_TOL),
    }
    return Certificate(
        theorem_id="corner-density-dichotomy",
        hypotheses=tuple(hyps),
        conclusion=conclusion,
        citations=("corner-density-dichotomy",),
        inputs_digest=_surface_digest("corner", s, corner_index),
    )


def _corner_area_ratio_density(s: SurfaceModel, x0) -> float:
    """Density at a boundary point by extrapolating area/(pi r^2) to r = 0.

    Boundary points are fair game here (unlike interior extrapolation, no
    full-disk assumption is made); the intercept of a linear-in-r^2 fit
    removes the leading curvature effect.
    """
    x0 = as_point(x0, dim=s.dim)
    from .surfaces import nearest_vertex

    vi, _ = nearest_vertex(s, x0)
    r1 = 5.0 * _local_edge_length(s, vi)
    if not (r1 > 0) or r1 > 0.5 * s.scale:
        r1 = 0.1 * s.scale
    tris = s.face_triangles()
    radii = [r1, r1 / 2.0, r1 / 4.0]
    ratios = []
    for r in radii:
        a = clip_areas_total(tris, Ball(center=x0, radius=r))
        ratios.append(a / (math.pi * r * r))
    A = np.stack([np.ones(3), np.asarray(radii) ** 2], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.asarray(ratios), rcond=None)
    return float(coef[0])


def genus_bound(tc: float, delta: float, b: int) -> float:
    """Upper bound for the genus from total boundary curvature and the
    curvature-scale constant: (2 - chi_min - b)/2 with
    chi_min = -(tc + 3 pi delta^2)/(2 pi)."""
    chi_min = -(tc + 3.0 * math.pi * delta * delta) / (2.0 * math.pi)
    return (2.0 - chi_min - b) / 2.0


def genus_certificate(s: SurfaceModel, boundary, Delta: float) -> Certificate:
    """Genus of the mesh against the total-curvature bound at scale Delta."""
    if Delta < 0 or not math.isfinite(Delta):
        raise InvalidParameterError(f"Delta must be a finite nonnegative real, got {Delta}")
    curves = _curves_of(boundary)
    b = len(s.boundary_loops)
    chi = euler_characteristic(s)
    tc_hyp, eps, tc = _tc_hypothesis(curves)
    hyps = [tc_hyp]

    r0 = extrinsic_diameter(s)
    if s.patch is not None and eps is not None:
        k = property_p_constants(s, math.inf)
        lam_r0 = k.lam * r0
        sol = delta_for_epsilon(eps, 1.0, "class_P")
        hyps.append(
            Hypothesis(
                name="scaled-curvature-in-class",
                required=f"sup|H| r0 < {sol.delta:.6g}",
                measured=lam_r0,
                ok=bool(lam_r0 < sol.delta),
            )
        )
    elif eps is not None:
        # raw meshes carry no trustworthy pointwise curvature, so class
        # membership rides on the same trust as Delta itself
        hyps.append(
            Hypothesis(
                name="scaled-curvature-in-class",
                required="sup|H| r0 < delta(epsilon) (no analytic source; taken on trust)",
                measured=None,
                ok=True,
                source="asserted",
            )
        )
    if s.patch is not None:
        supa = second_form_sup(s)
        hyps.append(
            Hypothesis(
                name="curvature-scale-constant",
                required="Delta >= r0 * sup|A|",
                measured=r0 * supa,
                ok=bool(Delta >= r0 * supa - 1e-12),
            )
        )
    else:
        hyps.append(
            Hypothesis(
                name="curvature-scale-constant",
                required="Delta >= r0 * sup|A| (no analytic source; taken on trust)",
                measured=None,
                ok=True,
                source="asserted",
            )
        )

    if b != 1:
        hyps.append(
            Hypothesis(
                name="single-boundary-loop",
                required="exactly one boundary component",
                measured=b,
                ok=False,
            )
        )
        conclusion = {
            "name": "euler-characteristic-report",
            "chi": chi,
            "boundary_loops": b,
            "genus": genus(s),
            "satisfied": False,
        }
        return Certificate(
            theorem_id="genus-from-total-curvature",
            hypotheses=tuple(hyps),
            conclusion=conclusion,
            citations=("genus-from-total-curvature",),
            inputs_digest=_surface_digest("genus", s, Delta),
        )

    g = genus(s)
    bound = genus_bound(tc, Delta, b)
    conclusion = {
        "name": "genus-upper-bound",
        "genus": g,
        "bound": bound,
        "bound_floor": int(math.floor(bound + 1e-12)),
        "chi": chi,
        "total_curvature": tc,
        "satisfied": bool(g <= bound),
    }
    return Certificate(
        theorem_id="genus-from-total-curvature",
        hypotheses=tuple(hyps),
        conclusion=conclusion,
        citations=("genus-from-total-curvature", "gauss-bonnet-balance"),
        inputs_digest=_surface_digest("genus", s, Delta),
    )
