"""Acceptance checks: thirteen numbered, independently runnable criteria.

Each check exercises one quantitative promise of the toolkit end to end
(closed-form oracles, seeded fuzzing, resolution studies, certificates) and
reports a single pass/fail line. `run_checks` executes them in order; a
raised exception inside a check counts as a failure, not a crash.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .catalog import build_scene, catalog_names, scaled_scene
from .certificates import (
    corner_density_certificate,
    delta_for_epsilon,
    density_estimate_certificate,
    embeddedness_certificate,
    genus_bound,
    genus_certificate,
)
from .curves import PolylineCurve, build_cone, projection_bound_report, total_curvature
from .errors import ProjectionSingularError
from .intersect import self_intersections
from .monotonicity import (
    PropertyPConstants,
    check_large_radius_bound,
    check_property_p,
    check_weighted_monotonicity,
    first_variation,
    m_profile,
    property_p_constants,
)
from .surfaces import boundary_polyline, density_estimate, extrinsic_diameter, genus

__all__ = ["CheckResult", "run_checks", "random_simple_polygon"]


@dataclass(frozen=True)
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.number:2d} {self.name} ({self.seconds:.2f} s): {self.detail}"


_CHECKS: list = []


def _check(number: int, name: str):
    def deco(fn):
        _CHECKS.append((number, name, fn))
        return fn

    return deco


# profiles are the expensive ingredient; several criteria share them
_PROFILE_CACHE: dict = {}


def _default_profile(name: str, params: dict | None = None, res: int = 64):
    """(scene, profile at the scene's default point, p = inf constants)."""
    scene = build_scene(name, params, res=res)
    key = (name, tuple(sorted((params or {}).items())), res)
    if key not in _PROFILE_CACHE:
        k = property_p_constants(scene.surface, math.inf)
        _PROFILE_CACHE[key] = m_profile(
            scene.surface, list(scene.boundaries), scene.default_x0, constants=k
        )
    return scene, _PROFILE_CACHE[key]


# ---------------------------------------------------------------------------
# seeded polygon generator (criteria 2 and 3)


def random_simple_polygon(rng: np.random.Generator) -> PolylineCurve:
    """Star-shaped polygon of 5 to 40 vertices around the z axis, with vertical noise.

    Sorted distinct polar angles make the xy projection simple, hence the
    space curve as well; the z jitter takes it off any plane.
    """
    k = int(rng.integers(5, 41))
    for _ in range(64):
        ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, k))
        gaps = np.diff(ang, append=ang[0] + 2.0 * math.pi)
        if gaps.min() > 1e-3:
            break
    rad = rng.uniform(0.5, 1.5, k)
    v = np.stack(
        [rad * np.cos(ang), rad * np.sin(ang), rng.uniform(-0.3, 0.3, k)], axis=1
    )
    return PolylineCurve(vertices=v)


def _report_at_random_point(rng: np.random.Generator, c: PolylineCurve):
    # a uniform sample hits the curve with probability zero, but retry anyway
    for _ in range(64):
        try:
            return projection_bound_report(c, rng.uniform(-2.5, 2.5, 3))
        except ProjectionSingularError:
            continue
    raise RuntimeError("could not sample a point off the curve")


# ---------------------------------------------------------------------------
# the criteria


@_check(1, "cone-ratio-constancy")
def _check_cone_constancy():
    ang = np.linspace(0.0, 2.0 * math.pi, 97)[:-1]
    circle = PolylineCurve(
        vertices=np.stack([np.cos(ang), np.sin(ang), np.ones_like(ang)], axis=1),
        corner_flags=(),
    )
    apex = (0.0, 0.0, 0.0)
    cone = build_cone(circle, apex)
    # the cone is flat off the apex; supply the true constants rather than a
    # discrete estimate polluted by the apex singularity
    flat = PropertyPConstants(
        p=math.inf, alpha=1.0, lam=0.0, smallness_ok=True, smallness_margin=math.inf
    )
    prof = m_profile(cone, circle, apex, radii=(0.1, 0.5, 1.0, 2.0), constants=flat)
    # with its exterior cone the cone is infinite, so m(r) is one constant
    spread = max(prof.m_values) - min(prof.m_values)
    tol = 2.0 * float(max(prof.m_errors))
    return spread <= tol, f"m(r) spread {spread:.3e} over r in {{0.1,0.5,1,2}} (tol {tol:.3e})"


@_check(2, "projection-bound-random-polygons")
def _check_projection_bound():
    rng = np.random.default_rng(137)
    violations = 0
    worst = math.inf
    for _ in range(1000):
        c = random_simple_polygon(rng)
        for _ in range(10):
            rep = _report_at_random_point(rng, c)
            worst = min(worst, rep.slack)
            if not rep.ok:
                violations += 1
    return (
        violations == 0,
        f"1000 polygons x 10 centers, {violations} violations, worst slack {worst:.3e}",
    )


@_check(3, "boundary-projection-bound")
def _check_boundary_projection_bound():
    rng = np.random.default_rng(411)
    violations = 0
    worst = math.inf
    count = 0
    for _ in range(200):
        c = random_simple_polygon(rng)
        for i in range(c.k):
            rep = projection_bound_report(c, c.vertices[i])
            worst = min(worst, rep.slack)
            count += 1
            if not rep.ok:
                violations += 1
    return (
        violations == 0,
        f"{count} vertex centers on 200 polygons, {violations} violations, "
        f"worst slack {worst:.3e}",
    )


@_check(4, "integrated-identity")
def _check_integrated_identity():
    # E = 0 on the flat disk, where nu_1 + nu_2 = 0 at every interior edge;
    # on the unit hemisphere E tends to the integral of |X|^2, pi r^4 / 2
    disk = first_variation(build_scene("flat_disk").surface, (0.0, 0.0, 0.0), (0.5, 2.0))
    rows = list(zip(disk.radii, disk.interior, disk.residuals, disk.errors))
    hemi = [build_scene("hemisphere", res=res).surface for res in (64, 128)]
    e64, e128 = (abs(first_variation(h, (0, 0, 1), (1,)).interior[0] - math.pi / 2) for h in hemi)
    factor = e64 / max(e128, 1e-300)
    ok = all(abs(e) <= err and abs(res) <= err for _r, e, res, err in rows) and factor >= 1.8
    flat = "; ".join(
        f"r = {r:g}: |E| {abs(e):.2e}, residual {abs(res):.2e} (bound {err:.2e})"
        for r, e, res, err in rows
    )
    return ok, (
        f"flat disk {flat}; hemisphere |E - pi/2| at r = 1 {e64:.2e} -> {e128:.2e} at "
        f"doubled resolution, factor {factor:.2f} (>= 1.8)"
    )


@_check(5, "weighted-monotonicity")
def _check_weighted_monotonicity_suite():
    cases = [
        ("flat_disk", None),
        ("catenoid", None),
        ("graph_disk", {"seed": 0}),
        ("graph_disk", {"seed": 1}),
        ("graph_disk", {"seed": 2}),
        ("cap", None),
    ]
    worst = math.inf
    bad = []
    for name, params in cases:
        _scene, prof = _default_profile(name, params)
        rep = check_weighted_monotonicity(prof)
        drops = [d for (_i, _j, d) in prof.defects]
        worst = min(worst, min(drops))
        if rep.violations:
            bad.append(f"{name}{params or ''}")
    return (
        not bad,
        f"6 surfaces, worst pairwise defect {worst:.3e}, violations beyond tol: "
        f"{bad or 'none'}",
    )


@_check(6, "large-radius-bound")
def _check_large_radius():
    bad = []
    details = []
    for name in ("cap", "catenoid"):
        scene = build_scene(name)
        s = scene.surface
        r0 = extrinsic_diameter(s)
        radii = tuple(r0 * f for f in (0.5, 1.0, 1.5, 2.0, 4.0))
        prof = m_profile(s, list(scene.boundaries), scene.default_x0, radii=radii)
        rep = check_large_radius_bound(prof)
        worst = min(rep.slacks) if rep.slacks else 0.0
        details.append(f"{name} worst slack {worst:.3e}")
        if rep.violations:
            bad.append(name)
    return not bad, f"r/r0 in {{1.5, 2, 4}}: {'; '.join(details)}; violations: {bad or 'none'}"


@_check(7, "curvature-smallness-chain")
def _check_property_p_chain():
    scene, prof = _default_profile("cap")
    s = scene.surface
    margins = []
    bad = []
    for p in (4.0, 8.0, math.inf):
        k = property_p_constants(s, p)
        if not (k.smallness_ok and (k.smallness_margin > 0 or math.isinf(p))):
            bad.append(f"p={p} margin {k.smallness_margin:.3f}")
        margins.append(k.smallness_margin)
        rep = check_property_p(s, k, scene.default_x0, profile=prof)
        if rep.violations:
            bad.append(f"p={p} slack violations {len(rep.violations)}")
    finite = [f"{m:.3f}" for m in margins if math.isfinite(m)]
    return not bad, f"p in {{4, 8, inf}}: smallness margins {finite}, issues: {bad or 'none'}"


@_check(8, "density-lower-bound")
def _check_density_estimate():
    cap_scene, cap_prof = _default_profile("cap")
    cap_cert = density_estimate_certificate(
        cap_scene.surface, list(cap_scene.boundaries), cap_scene.default_x0, math.inf,
        profile=cap_prof,
    )
    cap_slack = cap_cert.conclusion["point_slack"]
    disk_scene, disk_prof = _default_profile("flat_disk")
    disk_cert = density_estimate_certificate(
        disk_scene.surface, list(disk_scene.boundaries), disk_scene.default_x0,
        math.inf, profile=disk_prof,
    )
    disk_slack = disk_cert.conclusion["point_slack"]
    ok = (
        cap_cert.status == "satisfied"
        and abs(cap_slack - 0.46) <= 0.02
        and disk_cert.status == "satisfied"
        and abs(disk_slack) < 1e-3
    )
    return ok, (
        f"shallow-cap slack {cap_slack:.4f} (0.46 +- 0.02), flat-disk slack "
        f"{disk_slack:.2e} (tol 1e-3)"
    )


@_check(9, "delta-solver")
def _check_delta_solver():
    # independent bisection: interior at eps=2, alpha=1 solves e^d + d = 2;
    # class_P at eps=2 solves e^d = 2(1 - d)
    def bisect(f):
        lo, hi = 0.0, 1.0 - 1e-12
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return lo

    oracle_i = bisect(lambda d: 2.0 - d - math.exp(d))
    oracle_p = bisect(lambda d: 2.0 * (1.0 - d) - math.exp(d))
    d_i = delta_for_epsilon(2.0, 1.0, "interior").delta
    d_p = delta_for_epsilon(2.0, 1.0, "class_P").delta
    ok = (
        abs(d_i - oracle_i) < 1e-6
        and abs(d_p - oracle_p) < 1e-6
        and abs(d_i - 0.4425) <= 5e-4
        and abs(d_p - 0.3149) <= 5e-4
    )
    return ok, (
        f"interior delta {d_i:.6f} vs oracle {oracle_i:.6f} (0.4425 +- 5e-4); "
        f"class_P {d_p:.6f} vs {oracle_p:.6f} (0.3149 +- 5e-4)"
    )


@_check(10, "embeddedness-cross-validation")
def _check_embeddedness_cross():
    certified = []
    sweep_failures = []
    branch_detail = ""
    branch_ok = False
    for name in catalog_names():
        scene = build_scene(name)
        cert = embeddedness_certificate(
            scene.surface, list(scene.boundaries), math.inf, "full"
        )
        if name == "branched_disk":
            dens = cert.conclusion["branch_points"]
            branch_ok = (
                cert.status != "satisfied"
                and not cert.conclusion["satisfied"]
                and dens
                and abs(dens[0] - 2.0) <= 0.02
            )
            branch_detail = f"branch density {dens[0]:.4f}" if dens else "no branch sample"
        if cert.status == "satisfied":
            certified.append(f"{name} by {cert.conclusion['embedding_method']}")
            # the sweep cross-checks every certified scene, whichever method
            # certified it
            if not self_intersections(scene.surface).clean:
                sweep_failures.append(name)
    ok = branch_ok and not sweep_failures and len(certified) >= 2
    return ok, (
        f"certified {certified} all pass the pair sweep "
        f"(failures: {sweep_failures or 'none'}); branched_disk not certified, "
        f"{branch_detail} (2 +- 0.02)"
    )


@_check(11, "corner-density")
def _check_corner_density():
    scene = build_scene("flat_sector", {"angle": math.pi / 2.0})
    bdy = scene.boundary
    apex = min(f.index for f in bdy.corner_flags)
    cert = corner_density_certificate(scene.surface, bdy, apex)
    measured = cert.conclusion["measured"]
    ok = cert.status == "satisfied" and abs(measured - 0.25) <= 0.02
    return ok, (
        f"right-angle sector corner density {measured:.4f} (0.25 +- 0.02), "
        f"certificate {cert.status}"
    )


@_check(12, "genus-bound")
def _check_genus():
    gb = genus_bound(2.0 * math.pi, 1.0, 1)
    tor = build_scene("torus_minus_disk")
    g = genus(tor.surface)
    tor_cert = genus_certificate(tor.surface, list(tor.boundaries), 1.0)
    disk = build_scene("flat_disk")
    disk_cert = genus_certificate(disk.surface, list(disk.boundaries), 0.0)
    ok = (
        abs(gb - 1.75) < 1e-12
        and g == 1
        and tor_cert.status == "satisfied"
        and disk_cert.status == "satisfied"
        and disk_cert.conclusion["genus"] == 0
    )
    return ok, (
        f"torus-minus-disk g = {g} (bound {tor_cert.conclusion['bound']:.3f}, "
        f"{tor_cert.status}); closed-form bound(2pi, 1, 1) = {gb}; flat disk "
        f"g = 0 {disk_cert.status}"
    )


@_check(13, "scale-invariance")
def _check_scale_invariance():
    def snapshot(cap, sector, disk, tor):
        k = property_p_constants(cap.surface, math.inf)
        emb = embeddedness_certificate(
            cap.surface, list(cap.boundaries), math.inf, "full"
        )
        corner = corner_density_certificate(
            sector.surface, sector.boundary, min(f.index for f in sector.boundary.corner_flags)
        )
        quantities = np.array(
            [
                k.lam * extrinsic_diameter(cap.surface) ** k.alpha,
                total_curvature(cap.boundary),
                density_estimate(cap.surface, cap.default_x0).value,
                corner.conclusion["measured"],
            ]
        )
        verdicts = (
            emb.status,
            corner.status,
            genus_certificate(disk.surface, list(disk.boundaries), 0.0).status,
            genus_certificate(tor.surface, list(tor.boundaries), 1.0).status,
            genus(tor.surface),
        )
        return quantities, verdicts

    base_scenes = (
        build_scene("cap"),
        build_scene("flat_sector"),
        build_scene("flat_disk"),
        build_scene("torus_minus_disk"),
    )
    q0, v0 = snapshot(*base_scenes)
    worst = 0.0
    mismatches = []
    for lam in (0.1, 10.0):
        q, v = snapshot(*(scaled_scene(sc, lam) for sc in base_scenes))
        rel = np.abs(q - q0) / np.maximum(np.abs(q0), 1e-300)
        worst = max(worst, float(rel.max()))
        if v != v0:
            mismatches.append(f"lambda={lam}: {v} != {v0}")
    ok = worst <= 1e-9 and not mismatches
    return ok, (
        f"lambda in {{0.1, 10}}: worst relative drift {worst:.2e} (tol 1e-9) over "
        f"Lambda r0^a, TC, densities; verdict mismatches: {mismatches or 'none'}"
    )


# ---------------------------------------------------------------------------


def run_checks(only=None) -> list:
    """Run the acceptance checks (all, or the numbers in `only`) in order."""
    wanted = set(only) if only else None
    results = []
    for number, name, fn in sorted(_CHECKS, key=lambda t: t[0]):
        if wanted is not None and number not in wanted:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as e:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(e).__name__}: {e}"
        results.append(
            CheckResult(
                number=number,
                name=name,
                passed=bool(passed),
                detail=detail,
                seconds=time.perf_counter() - t0,
            )
        )
    return results
