"""Checkable certificates: density lower bounds, embeddedness via small mean
curvature plus boundary turning (with the mesh's own embeddedness shown by
projection or, where that refuses, by the pair sweep), corner density
dichotomy, and the genus bound from total curvature.

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
from .geometry import as_point
from .geometry import clip_areas_total  # noqa: F401 (a binding the benchmark's tracer wraps)
from .intersect import projected_embedding, self_intersections
from .monotonicity import (
    _as_curves,
    curvature_prefactor,
    m_profile,
    property_p_constants,
)
from .surfaces import (
    SurfaceModel,
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
    "certificate_status",
    "delta_for_epsilon",
    "density_estimate_certificate",
    "embeddedness_certificate",
    "corner_density_certificate",
    "genus_certificate",
    "genus_bound",
]

# the embeddedness conclusion needs every interior density below 2 and every
# boundary density below 3/2; both thresholds keep this safety margin
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


def certificate_status(hypotheses_ok, satisfied) -> str:
    """A certificate's status from its hypotheses' truth values and its
    conclusion's: "not-applicable" if any hypothesis fails, else
    "satisfied" or "violated" as the conclusion holds or fails."""
    if not all(hypotheses_ok):
        return "not-applicable"
    return "satisfied" if satisfied else "violated"


@dataclass(frozen=True)
class Certificate:
    theorem_id: str
    hypotheses: tuple
    conclusion: dict
    citations: tuple
    inputs_digest: str
    status: str = field(init=False)

    def __post_init__(self):
        status = certificate_status(
            (h.ok for h in self.hypotheses), self.conclusion.get("satisfied", False)
        )
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


def _surface_digest(op: str, s: SurfaceModel, curves, *extra) -> str:
    """Digest of the operation, the mesh, each boundary curve the certificate
    reads (vertices, True for closed, corner flags; every curve is closed,
    and the constant keeps the digests of earlier reports) and the extra
    arguments."""
    parts = [op, s.vertices, s.faces, len(curves)]
    for c in curves:
        parts += [c.vertices, True, c.corner_flags]
    return _digest(*parts, *extra)


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


# ---------------------------------------------------------------------------
# shared hypothesis builders


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


def _smallness_hypothesis(k) -> Hypothesis:
    """The finite-p smallness condition of the property constants k."""
    return Hypothesis(
        name="curvature-smallness",
        required="finite-p moment condition on the mean curvature",
        measured=k.smallness_margin,
        ok=k.smallness_ok,
    )


def _in_class_hypothesis(eps: float | None, lam_r0: float | None) -> Hypothesis:
    """sup|H| r0 < delta(epsilon) in the class-P variant; fails when no
    epsilon is admissible. lam_r0 None asserts it for a surface without an
    analytic source."""
    name = "scaled-curvature-in-class"
    if lam_r0 is None:
        # raw meshes carry no trustworthy pointwise curvature, so class
        # membership rides on the same trust as Delta itself
        return Hypothesis(
            name=name,
            required="sup|H| r0 < delta(epsilon) (no analytic source; taken on trust)",
            measured=None,
            ok=True,
            source="asserted",
        )
    if eps is None:
        return Hypothesis(
            name=name, required="sup|H| r0 < delta(epsilon)", measured=lam_r0, ok=False
        )
    delta = delta_for_epsilon(eps, 1.0, "class_P").delta
    return Hypothesis(
        name=name,
        required=f"sup|H| r0 < {delta:.6g}",
        measured=lam_r0,
        ok=bool(lam_r0 < delta),
    )


def _max_over(values: np.ndarray, mask: np.ndarray) -> tuple[float, int | None]:
    """Largest value where mask holds and its index; (0.0, None) if none."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return 0.0, None
    best = int(idx[np.argmax(values[idx])])
    return float(values[best]), best


# ---------------------------------------------------------------------------
# certificates


def density_estimate_certificate(
    s: SurfaceModel, boundary, x0, p: float, profile=None
) -> Certificate:
    """Lower bound on the boundary-cone density by the surface density, plus
    the per-radius area-ratio form over the profile radii up to the diameter.

    profile: optional precomputed m-profile at the same x0 (saves the most
    expensive step; its m values are p-independent).

    The conclusion carries the surface density with the mode, radii and
    note of its `DensityEstimate`.

    Each profile slack pi theta_cone - mult(r) m(r) is allowed to fall below
    zero by 3 max |mult(r)| dm(r) over the radii read, dm being the
    profile's rounding bound on m (`MonotonicityProfile.m_errors`); the
    profile's own tol_disc carries the weights exp(lam r^alpha) up to 4 r0,
    which this check never applies.
    """
    x0 = as_point(x0, dim=s.dim)
    curves = _as_curves(boundary)
    k = property_p_constants(s, p)
    r0 = extrinsic_diameter(s)
    # this certificate needs only the smallness condition, not a delta
    hyps = [_smallness_hypothesis(k)]

    lam_r0 = k.lam * r0**k.alpha
    factor = math.exp(-lam_r0) * (1.0 - k.alpha * lam_r0 / 2.0)

    estimate = density_estimate(s, x0)
    theta_m = estimate.value
    theta_cone = sum(cone_density(c, x0) for c in curves)
    point_bound = factor * theta_m
    point_slack = theta_cone - point_bound

    prof = profile if profile is not None else m_profile(s, curves, x0, constants=k)
    profile_slacks = []
    profile_tol = 0.0
    for r, m, dm in zip(prof.radii, prof.m_values, prof.m_errors):
        if r > r0 * (1.0 + 1e-12):
            continue
        w = math.exp(-k.lam * (r0**k.alpha - r**k.alpha))
        mult = w * (1.0 - k.alpha * lam_r0 / 2.0)
        profile_slacks.append(math.pi * theta_cone - mult * m)
        # the slack inherits m's rounding bound through its multiplier; the
        # factor 3 covers the multiplier and the subtraction, as in tol_disc
        profile_tol = max(profile_tol, 3.0 * abs(mult) * dm)
    min_profile_slack = min(profile_slacks) if profile_slacks else math.inf

    ok = point_slack >= -1e-3 and min_profile_slack >= -profile_tol
    conclusion = {
        "name": "cone-density-lower-bound",
        "surface_density": theta_m,
        "surface_density_mode": estimate.mode,
        "surface_density_radii": list(estimate.radii),
        "surface_density_note": estimate.note,
        "cone_density": theta_cone,
        "prefactor": factor,
        "point_bound": point_bound,
        "point_slack": point_slack,
        "profile_min_slack": min_profile_slack,
        "profile_tolerance": profile_tol,
        "satisfied": bool(ok),
    }
    return Certificate(
        theorem_id="density-lower-bound",
        hypotheses=tuple(hyps),
        conclusion=conclusion,
        citations=("area-ratio-monotonicity", "cone-density-lower-bound"),
        inputs_digest=_surface_digest("density", s, curves, [float(v) for v in x0], p),
    )


def embeddedness_certificate(
    s: SurfaceModel, boundary, p: float, which: str = "interior"
) -> Certificate:
    """Certify embeddedness from small scaled curvature and boundary turning
    below 4*pi.

    The conclusion takes the exact PL density at every vertex (its angle sum
    over 2*pi): the maximum over interior vertices, and with which="full"
    over boundary vertices, against 2 and 3/2 less DENSITY_MARGIN. The
    branch points of an analytic patch count as interior points.

    It also needs the mesh free of self-contact, and names the method that
    decided it (`embedding_method`). "projection": `projected_embedding`
    found a linear map to a plane (`projection_map`) that is injective on
    the surface, so `intersection_free` is true and means the mesh is
    exactly embedded; the sweep does not run, so its hit count is 0, its
    pair list empty, and its candidates and tolerance null. "pair-sweep":
    the projection refused (more or fewer than one boundary loop, a face it
    cannot show turning the same way as the others, or a boundary image it
    cannot show simple), and the global face-pair sweep ran instead;
    `intersection_free` then means that no two faces sharing no vertex come
    within the sweep's tolerance, as `triangle_pair_dist2` computes it, and
    the report gives the hit count (the listed pairs stop at 32), the
    candidate count and the tolerance.
    """
    if which not in ("interior", "full"):
        raise InvalidParameterError(f"which must be 'interior' or 'full', got {which!r}")
    curves = _as_curves(boundary)
    tc_hyp, eps, _tc = _tc_hypothesis(curves)
    k = property_p_constants(s, p)
    delta = None
    if eps is not None:
        delta = delta_for_epsilon(eps, k.alpha, "interior").delta
        if which == "full":
            delta = min(delta, delta_for_epsilon(eps, k.alpha, "boundary").delta)
    # lam already carries the C(p) prefactor, so lam r0^alpha is the scaled
    # curvature that competes with delta
    scaled = k.lam * extrinsic_diameter(s) ** k.alpha
    hyps = [
        tc_hyp,
        _smallness_hypothesis(k),
        Hypothesis(
            name="scaled-curvature-below-delta",
            required="C(p) ||H||_p r0^alpha < "
            + ("delta(epsilon)" if delta is None else f"{delta:.6g}"),
            measured=scaled,
            ok=delta is not None and bool(scaled < delta),
        ),
    ]

    densities = s.angle_sums / (2.0 * math.pi)
    worst_interior, interior_vertex = _max_over(densities, ~s.boundary_vertex_mask)
    branch = [
        density_estimate(s, s.patch.u(np.asarray([bp], dtype=np.float64))[0]).value
        for bp, _order in (s.patch.branch_points if s.patch is not None else ())
    ]
    worst_interior = max([worst_interior, *branch])
    dens_ok = worst_interior <= 2.0 - DENSITY_MARGIN

    worst_boundary, boundary_vertex = None, None
    if which == "full":
        worst_boundary, boundary_vertex = _max_over(densities, s.boundary_vertex_mask)
        dens_ok = dens_ok and worst_boundary <= 1.5 - DENSITY_MARGIN

    plane = projected_embedding(s)
    sweep = self_intersections(s) if plane is None else None
    free = sweep is None or sweep.clean
    ok = dens_ok and free
    conclusion = {
        "name": "certified embedded",
        "scope": which,
        "max_interior_density": worst_interior,
        "max_interior_vertex": interior_vertex,
        "branch_points": branch,
        "max_boundary_density": worst_boundary,
        "max_boundary_vertex": boundary_vertex,
        "interior_threshold": 2.0 - DENSITY_MARGIN,
        "boundary_threshold": 1.5 - DENSITY_MARGIN if which == "full" else None,
        "embedding_method": "pair-sweep" if sweep is not None else "projection",
        "projection_map": None if plane is None else plane.tolist(),
        "intersection_free": free,
        "intersection_count": 0 if sweep is None else sweep.count,
        "intersection_pairs": [] if sweep is None else list(sweep.pairs),
        "sweep_candidates": None if sweep is None else sweep.candidates,
        "sweep_tolerance": None if sweep is None else sweep.tolerance,
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
        inputs_digest=_surface_digest("embeddedness", s, curves, p, which),
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
    r0 = extrinsic_diameter(s)
    hyps = [tc_hyp, _in_class_hypothesis(eps, property_p_constants(s, math.inf).lam * r0)]

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

    measured = density_estimate(s, x0, mode="extrapolated").value
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
        inputs_digest=_surface_digest("corner", s, [boundary], corner_index),
    )


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
    curves = _as_curves(boundary)
    b = len(s.boundary_loops)
    chi = euler_characteristic(s)
    tc_hyp, eps, tc = _tc_hypothesis(curves)
    hyps = [tc_hyp]

    r0 = extrinsic_diameter(s)
    if eps is not None:
        lam_r0 = property_p_constants(s, math.inf).lam * r0 if s.patch is not None else None
        hyps.append(_in_class_hypothesis(eps, lam_r0))
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
        citations = ("genus-from-total-curvature",)
    else:
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
        citations = ("genus-from-total-curvature", "gauss-bonnet-balance")
    return Certificate(
        theorem_id="genus-from-total-curvature",
        hypotheses=tuple(hyps),
        conclusion=conclusion,
        citations=citations,
        inputs_digest=_surface_digest("genus", s, curves, Delta),
    )
