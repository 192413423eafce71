"""Certificate construction, the delta solver, and status semantics.

The delta oracles are independent bisections of the defining
inequalities written out in closed form here, not calls back into the
library. Status rules under test: a failed hypothesis forces
not-applicable (never violated), the conclusion is still evaluated and
recorded, and digests are deterministic functions of the inputs.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from surfcert import (
    Certificate,
    CornerFlag,
    Hypothesis,
    InfeasibleError,
    InvalidParameterError,
    PolylineCurve,
    SurfaceModel,
    boundary_distance,
    boundary_polyline,
    build_scene,
    catalog_names,
    corner_density_certificate,
    curvature_prefactor,
    delta_for_epsilon,
    density_estimate,
    density_estimate_certificate,
    embeddedness_certificate,
    extrinsic_diameter,
    genus_bound,
    genus_certificate,
    lp_norm,
    m_profile,
    mean_curvature_field,
    projected_embedding,
    property_p_constants,
    self_intersections,
)
from surfcert.certificates import CORNER_TOL
from surfcert.cli import main


def bisect_root(f, lo=1e-12, hi=1.0 - 1e-12, iters=80):
    """Root of a decreasing function on (lo, hi), independent of the library."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestDeltaSolver:
    def test_interior_closed_form(self):
        # at epsilon = 2, alpha = 1 the condition reduces to e^d + d < 2
        want = bisect_root(lambda d: 2.0 - math.exp(d) - d)
        got = delta_for_epsilon(2.0, 1.0, "interior")
        assert got.delta == pytest.approx(want, abs=1e-6)
        assert got.delta == pytest.approx(0.442854, abs=5e-4)

    def test_boundary_closed_form(self):
        # 1.5 (2 - d) > e^d (3 - 2)  <=>  3 - 1.5 d - e^d > 0
        want = bisect_root(lambda d: 3.0 - 1.5 * d - math.exp(d))
        got = delta_for_epsilon(2.0, 1.0, "boundary")
        assert got.delta == pytest.approx(want, abs=1e-6)

    def test_class_membership_closed_form(self):
        # 4/(4 - eps) > e^d / (1 - d) at eps = 2:  e^d = 2 (1 - d)
        want = bisect_root(lambda d: 2.0 * (1.0 - d) - math.exp(d))
        got = delta_for_epsilon(2.0, 1.0, "class_P")
        assert got.delta == pytest.approx(want, abs=1e-6)
        assert got.delta == pytest.approx(0.314923, abs=5e-4)

    def test_returned_delta_keeps_strict_inequality(self):
        for mode in ("interior", "boundary", "class_P"):
            for eps in (0.1, 0.7, 1.3, 2.0):
                sol = delta_for_epsilon(eps, 1.0, mode)
                assert 0.0 < sol.delta < 1.0
                assert sol.margin > 0.0

    def test_monotone_in_epsilon(self):
        deltas = [delta_for_epsilon(e, 1.0, "interior").delta for e in (0.2, 0.8, 1.4, 2.0)]
        assert all(b > a for a, b in zip(deltas, deltas[1:]))

    def test_smaller_alpha_admits_no_less(self):
        d1 = delta_for_epsilon(1.0, 1.0, "interior").delta
        d_half = delta_for_epsilon(1.0, 0.5, "interior").delta
        assert d_half >= d1 - 1e-12

    def test_epsilon_range_enforced(self):
        with pytest.raises(InvalidParameterError):
            delta_for_epsilon(0.0)
        with pytest.raises(InvalidParameterError):
            delta_for_epsilon(2.5)
        with pytest.raises(InvalidParameterError):
            delta_for_epsilon(1.0, alpha=0.0)

    def test_solution_serializes(self):
        d = delta_for_epsilon(1.0).to_dict()
        assert set(d) == {"epsilon", "alpha", "mode", "delta", "margin"}


class TestPrefactor:
    def test_sup_norm_case(self):
        assert curvature_prefactor(math.inf) == (1.0, 1.0)

    def test_p_four(self):
        c, alpha = curvature_prefactor(4.0)
        assert c == pytest.approx(4.0 * (2.0 / math.pi) ** 0.25, rel=1e-12)
        assert alpha == pytest.approx(0.5)

    def test_small_exponent_rejected(self):
        with pytest.raises(InvalidParameterError):
            curvature_prefactor(2.0)

    @pytest.mark.parametrize("p", [4.0, 8.0, math.inf])
    def test_property_constants_carry_the_prefactor(self, p):
        s = build_scene("graph_disk", res=16).surface
        c, alpha = curvature_prefactor(p)
        k = property_p_constants(s, p)
        assert k.lam == c * lp_norm(mean_curvature_field(s), s, p)
        assert k.alpha == alpha


class TestStatusSemantics:
    def make(self, hyp_ok: bool, concl_ok: bool) -> Certificate:
        return Certificate(
            theorem_id="density-lower-bound",
            hypotheses=(Hypothesis("h", "x > 0", 1.0, hyp_ok),),
            conclusion={"satisfied": concl_ok},
            citations=("density-lower-bound",),
            inputs_digest="0" * 64,
        )

    def test_all_good_is_satisfied(self):
        assert self.make(True, True).status == "satisfied"

    def test_failed_conclusion_is_violated(self):
        assert self.make(True, False).status == "violated"

    def test_failed_hypothesis_is_not_applicable_even_if_conclusion_holds(self):
        assert self.make(False, True).status == "not-applicable"
        assert self.make(False, False).status == "not-applicable"

    def test_to_dict_shape(self):
        d = self.make(True, True).to_dict()
        assert set(d) == {
            "theorem",
            "status",
            "hypotheses",
            "conclusion",
            "citations",
            "inputs_digest",
        }
        (h,) = d["hypotheses"]
        assert set(h) == {"name", "required", "measured", "ok", "source"}
        assert h["source"] == "measured"


@pytest.fixture(scope="module")
def disk():
    return build_scene("flat_disk")


@pytest.fixture(scope="module")
def cap32():
    return build_scene("cap", res=32)


class TestDensityCertificate:
    def test_flat_disk_is_the_equality_case(self, disk):
        cert = density_estimate_certificate(
            disk.surface, disk.boundaries, (0.0, 0.0, 0.0), math.inf
        )
        assert cert.status == "satisfied"
        assert cert.conclusion["point_slack"] == pytest.approx(0.0, abs=1e-9)

    def test_cap_has_the_expected_slack(self, cap32):
        cert = density_estimate_certificate(
            cap32.surface, cap32.boundaries, cap32.default_x0, math.inf
        )
        assert cert.status == "satisfied"
        assert cert.conclusion["point_slack"] == pytest.approx(0.46, abs=0.02)

    def test_profile_slack_is_gated_by_its_own_rounding(self):
        # torus_minus_disk has a large lambda: the profile's tol_disc, which
        # weighs m by exp(lam r^alpha) up to 4 r0, is in the thousands, and
        # would forgive the slack of -0.01 set below
        torus = build_scene("torus_minus_disk", res=32)
        s, x0 = torus.surface, torus.default_x0
        prof = m_profile(s, torus.boundaries, x0, constants=property_p_constants(s, math.inf))
        cert = density_estimate_certificate(s, torus.boundaries, x0, math.inf, profile=prof)
        assert cert.status == "satisfied"
        assert prof.tol_disc > 1e3
        assert 0.0 < cert.conclusion["profile_tolerance"] < 1e-8

        # set m at the diameter, where the weight is 1, so that its slack is
        # -0.01; the multiplier is negative here, so m itself turns negative
        r0 = extrinsic_diameter(s)
        k = property_p_constants(s, math.inf)
        mult = 1.0 - k.alpha * k.lam * r0**k.alpha / 2.0
        target = math.pi * cert.conclusion["cone_density"] + 0.01
        i = max(i for i, r in enumerate(prof.radii) if r <= r0 * (1.0 + 1e-12))
        assert prof.radii[i] == r0
        m_values = list(prof.m_values)
        m_values[i] = target / mult
        bad = dataclasses.replace(prof, m_values=tuple(m_values))
        cert = density_estimate_certificate(s, torus.boundaries, x0, math.inf, profile=bad)
        assert cert.conclusion["profile_min_slack"] == pytest.approx(-0.01, abs=1e-12)
        assert cert.status == "violated"

    @pytest.mark.parametrize("res", [16, 32])
    def test_flat_sector_certifies_at_its_default_point(self, res, tmp_path):
        # five local edge lengths reach the boundary from the sector's
        # default point, so the density radius is half the boundary distance
        sec = build_scene("flat_sector", res=res)
        x0 = sec.default_x0
        est = density_estimate(sec.surface, x0)
        d = boundary_distance(sec.surface, x0)
        assert est.radii[0] == 0.5 * d
        assert "half the boundary distance" in est.note
        out = tmp_path / "density.json"
        argv = ["certify", "--catalog", "flat_sector", "--res", str(res), "--kind", "density"]
        assert main([*argv, "--p", "4", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["status"] == "satisfied"
        conclusion = payload["conclusion"]
        assert conclusion["surface_density"] == pytest.approx(1.0, abs=1e-12)
        # the report names the density it used
        assert conclusion["surface_density_mode"] == "extrapolated"
        assert conclusion["surface_density_radii"] == list(est.radii)
        assert conclusion["surface_density_note"] == est.note

    def test_only_smallness_hypotheses_needed(self, disk):
        cert = density_estimate_certificate(
            disk.surface, disk.boundaries, (0.0, 0.0, 0.0), math.inf
        )
        assert all(h.ok for h in cert.hypotheses)
        names = [h.name for h in cert.hypotheses]
        assert not any("turning" in n for n in names)


class TestEmbeddednessCertificate:
    def test_disk_interior(self, disk):
        cert = embeddedness_certificate(disk.surface, disk.boundaries, math.inf)
        assert cert.status == "satisfied"
        assert cert.conclusion["intersection_free"] is True

    def test_cap_full(self, cap32):
        cert = embeddedness_certificate(
            cap32.surface, cap32.boundaries, math.inf, which="full"
        )
        assert cert.status == "satisfied"

    def test_hemisphere_fails_smallness(self):
        hemi = build_scene("hemisphere", res=32)
        cert = embeddedness_certificate(hemi.surface, hemi.boundaries, math.inf)
        # scaled curvature 2 * diameter = 4 is far above any admissible delta
        assert cert.status == "not-applicable"
        assert any(not h.ok for h in cert.hypotheses)
        # the conclusion is still evaluated and recorded
        assert "intersection_free" in cert.conclusion

    def test_branched_disk_is_not_certified(self):
        br = build_scene("branched_disk", res=32)
        cert = embeddedness_certificate(br.surface, br.boundaries, math.inf)
        assert cert.status != "satisfied"

    def test_branch_vertex_counts_without_its_patch(self):
        # the bare mesh, with the branch vertex relabelled from 0 to 1: only
        # its angle sum can show the density 2 there
        br = build_scene("branched_disk", res=32)
        swap = np.arange(br.surface.n_vertices)
        swap[[0, 1]] = [1, 0]
        bare = SurfaceModel.build(br.surface.vertices[swap], swap[br.surface.faces])
        assert np.all(bare.vertices[1] == 0.0)
        cert = embeddedness_certificate(bare, br.boundaries, math.inf, which="full")
        assert cert.conclusion["max_interior_density"] == pytest.approx(2.0, abs=0.02)
        assert cert.conclusion["max_interior_vertex"] == 1
        assert cert.conclusion["branch_points"] == []
        assert cert.conclusion["satisfied"] is False

    def test_every_vertex_density_is_reported(self, cap32):
        cert = embeddedness_certificate(
            cap32.surface, cap32.boundaries, math.inf, which="full"
        )
        dens = cap32.surface.angle_sums / (2.0 * math.pi)
        bmask = cap32.surface.boundary_vertex_mask
        concl = cert.conclusion
        assert concl["name"] == "certified embedded"
        assert "samples" not in concl
        assert concl["max_interior_density"] == dens[~bmask].max()
        assert concl["max_boundary_density"] == dens[bmask].max()
        assert dens[concl["max_interior_vertex"]] == dens[~bmask].max()
        assert bmask[concl["max_boundary_vertex"]]

    def test_sweep_totals_are_reported(self):
        # two crossing 9 x 9 sheets: more hits than the 32 pairs listed
        u, w = np.meshgrid(np.linspace(-1, 1, 9), np.linspace(-1, 1, 9))
        flat = np.stack([u.ravel(), w.ravel(), np.zeros(81)], axis=1)
        upright = np.stack([u.ravel(), np.zeros(81), w.ravel()], axis=1)
        corner = (np.arange(8)[:, None] * 9 + np.arange(8)).ravel()
        a, b, c, d = corner, corner + 1, corner + 10, corner + 9
        f = np.concatenate([np.stack([a, b, c], axis=1), np.stack([a, c, d], axis=1)])
        s = SurfaceModel.build(np.vstack([flat, upright]), np.vstack([f, f + 81]))
        loops = [boundary_polyline(s, i) for i in range(len(s.boundary_loops))]
        concl = embeddedness_certificate(s, loops, math.inf).conclusion
        sweep = self_intersections(s)
        assert concl["intersection_count"] == sweep.count > 32
        assert len(concl["intersection_pairs"]) == 32
        assert concl["sweep_candidates"] == sweep.candidates >= sweep.count
        assert concl["sweep_tolerance"] == sweep.tolerance == 1e-9 * s.scale
        assert concl["intersection_free"] is False
        assert concl["embedding_method"] == "pair-sweep" and concl["projection_map"] is None

    def test_projection_replaces_the_sweep_on_a_disk(self, cap32):
        concl = embeddedness_certificate(
            cap32.surface, cap32.boundaries, math.inf, which="full"
        ).conclusion
        assert concl["embedding_method"] == "projection"
        assert concl["projection_map"] == projected_embedding(cap32.surface).tolist()
        assert np.asarray(concl["projection_map"]).shape == (2, 3)
        assert concl["intersection_free"] is True
        assert (concl["intersection_count"], concl["intersection_pairs"]) == (0, [])
        assert concl["sweep_candidates"] is None and concl["sweep_tolerance"] is None

    def test_which_validated(self, disk):
        with pytest.raises(InvalidParameterError):
            embeddedness_certificate(disk.surface, disk.boundaries, math.inf, which="x")


def embeddedness_verdict(s: SurfaceModel, curves, move=None, p=math.inf) -> tuple:
    """status, method and intersection_free of the full certificate at
    exponent p on the bare mesh, with its vertices and the curves' moved by
    move."""
    if move is not None:
        s = SurfaceModel.build(move(s.vertices), s.faces)
        curves = [PolylineCurve(move(c.vertices), corner_flags=c.corner_flags) for c in curves]
    cert = embeddedness_certificate(s, curves, p, "full")
    return cert.status, cert.conclusion["embedding_method"], cert.conclusion["intersection_free"]


class TestEmbeddednessInvariance:
    """The verdict and the method survive rigid motions, far translations,
    extreme scales, vertex relabelings and face reorderings; both methods
    are covered (the projection on the disk-type scenes, the sweep on the
    others)."""

    @pytest.fixture(scope="class", params=catalog_names())
    def scene(self, request):
        sc = build_scene(request.param, res=16)
        bare = SurfaceModel.build(sc.surface.vertices, sc.surface.faces)
        return bare, list(sc.boundaries), embeddedness_verdict(bare, list(sc.boundaries))

    @pytest.mark.parametrize(
        "move",
        [lambda v: v + 1e3, lambda v: v + 1e6, lambda v: v * 1e-35, lambda v: v * 1e20],
        ids=["shift-1e3", "shift-1e6", "scale-1e-35", "scale-1e20"],
    )
    def test_translation_and_scale(self, scene, move):
        s, curves, verdict = scene
        assert embeddedness_verdict(s, curves, move) == verdict

    @pytest.mark.parametrize("k", [100, -100], ids=["scale-2^100", "scale-2^-100"])
    def test_finite_p_at_extreme_scales(self, scene, k):
        # ||H||_16 takes 16th powers of |H|, which scales as 2^-k
        s, curves, _ = scene
        verdict = embeddedness_verdict(s, curves, p=16.0)
        move = lambda v: v * math.ldexp(1.0, k)  # noqa: E731
        assert embeddedness_verdict(s, curves, move, p=16.0) == verdict

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_rotation_relabeling_and_face_order(self, scene, seed):
        s, curves, verdict = scene
        rng = np.random.default_rng(seed)
        q, r = np.linalg.qr(rng.normal(size=(s.dim, s.dim)))
        assert embeddedness_verdict(s, curves, lambda v: v @ (q * np.sign(np.diag(r)))) == verdict
        perm = rng.permutation(s.n_vertices)
        relabeled = SurfaceModel.build(s.vertices[perm], np.argsort(perm)[s.faces])
        assert embeddedness_verdict(relabeled, curves) == verdict
        reordered = SurfaceModel.build(s.vertices, s.faces[rng.permutation(s.n_faces)])
        assert embeddedness_verdict(reordered, curves) == verdict


class TestCornerCertificate:
    def test_right_angle_sector(self):
        sec = build_scene("flat_sector")
        entry = next(
            f.index for f in sec.boundary.corner_flags if abs(f.theta - math.pi / 2) < 1e-9
        )
        cert = corner_density_certificate(sec.surface, sec.boundary, entry)
        assert cert.status == "satisfied"
        assert cert.conclusion["measured"] == pytest.approx(0.25, abs=0.02)

    @pytest.mark.parametrize("res", [8, 12, 16, 24])
    @pytest.mark.parametrize("angle", [0.5 * math.pi, math.pi, 1.5 * math.pi])
    def test_coarse_sector_corners(self, res, angle):
        # on these meshes five local edge lengths often exceed half the
        # extent, where the density radius falls back to a tenth of it
        sec = build_scene("flat_sector", {"angle": angle}, res=res)
        curve = sec.boundary
        for flag in curve.corner_flags:
            x0 = curve.vertices[flag.index]
            want = angle / (2.0 * math.pi) if np.all(x0 == 0.0) else 0.25
            cert = corner_density_certificate(sec.surface, curve, flag.index)
            assert abs(cert.conclusion["measured"] - want) <= CORNER_TOL
            est = density_estimate(sec.surface, x0, mode="extrapolated")
            assert est.value == cert.conclusion["measured"]

    def test_density_radius_falls_back_at_coarse_corners(self):
        sec = build_scene("flat_sector", res=8)
        curve = sec.boundary
        for flag in curve.corner_flags:
            x0 = curve.vertices[flag.index]
            est = density_estimate(sec.surface, x0, mode="extrapolated")
            assert est.radii[0] == 0.1 * sec.surface.scale
            want = 0.25  # the right-angled apex and both arc ends
            assert abs(est.value - want) <= CORNER_TOL

    def test_unflagged_vertex_rejected(self, disk):
        with pytest.raises(InvalidParameterError):
            corner_density_certificate(disk.surface, disk.boundary, 0)

    def test_needs_single_curve(self, disk):
        with pytest.raises(InvalidParameterError):
            corner_density_certificate(disk.surface, list(disk.boundaries), 0)


class TestGenusCertificate:
    def test_bound_formula(self):
        # chi_min = -(tc + 3 pi d^2)/(2 pi); bound = (2 - chi_min - b)/2
        assert genus_bound(2.0 * math.pi, 1.0, 1) == pytest.approx(1.75, abs=1e-12)
        assert genus_bound(2.0 * math.pi, 0.0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_disk_at_zero_scale(self, disk):
        cert = genus_certificate(disk.surface, disk.boundaries, 0.0)
        assert cert.status == "satisfied"
        assert cert.conclusion["genus"] == 0

    def test_torus_keeps_its_handle(self):
        t = build_scene("torus_minus_disk", res=48)
        cert = genus_certificate(t.surface, t.boundaries, 0.5)
        assert cert.status == "satisfied"
        assert cert.conclusion["genus"] == 1
        assert cert.conclusion["bound"] >= 1.0

    def test_negative_scale_rejected(self, disk):
        with pytest.raises(InvalidParameterError):
            genus_certificate(disk.surface, disk.boundaries, -0.1)
        with pytest.raises(InvalidParameterError):
            genus_certificate(disk.surface, disk.boundaries, math.inf)

    def test_two_boundary_loops_disqualify(self):
        cat = build_scene("catenoid", res=32)
        cert = genus_certificate(cat.surface, cat.boundaries, 0.0)
        assert cert.status == "not-applicable"
        assert any(not h.ok for h in cert.hypotheses)


class TestDigests:
    def test_same_inputs_same_digest(self, disk):
        a = genus_certificate(disk.surface, disk.boundaries, 0.0)
        b = genus_certificate(disk.surface, disk.boundaries, 0.0)
        assert a.inputs_digest == b.inputs_digest
        assert len(a.inputs_digest) == 64

    def test_different_inputs_different_digest(self, disk):
        a = genus_certificate(disk.surface, disk.boundaries, 0.0)
        b = genus_certificate(disk.surface, disk.boundaries, 0.5)
        assert a.inputs_digest != b.inputs_digest

    def test_operations_do_not_collide(self, disk):
        g = genus_certificate(disk.surface, disk.boundaries, 0.0)
        e = embeddedness_certificate(disk.surface, disk.boundaries, math.inf)
        assert g.inputs_digest != e.inputs_digest

    def test_corner_flags_are_covered(self):
        sec = build_scene("flat_sector", res=32)
        curve = sec.boundary
        apex = next(f.index for f in curve.corner_flags if np.all(curve.vertices[f.index] == 0.0))
        bent = PolylineCurve(
            curve.vertices,
            corner_flags=tuple(
                CornerFlag(f.index, 0.1 if f.index == apex else f.theta)
                for f in curve.corner_flags
            ),
        )
        a = corner_density_certificate(sec.surface, curve, apex)
        b = corner_density_certificate(sec.surface, bent, apex)
        assert (a.status, b.status) == ("satisfied", "violated")
        assert a.inputs_digest != b.inputs_digest

    def test_boundary_curve_is_covered(self):
        disk = build_scene("flat_disk", res=32)
        v = disk.boundary.vertices.copy()
        v[::2, 2] += 0.3
        lifted = PolylineCurve(v, corner_flags=())
        a = embeddedness_certificate(disk.surface, disk.boundaries, math.inf)
        b = embeddedness_certificate(disk.surface, [lifted], math.inf)
        assert (a.status, b.status) == ("satisfied", "not-applicable")
        assert a.inputs_digest != b.inputs_digest

    def test_raw_polygon_and_flagged_curve_differ(self, disk):
        raw = PolylineCurve(disk.boundary.vertices, corner_flags=None)
        assert disk.boundary.corner_flags == ()
        a = genus_certificate(disk.surface, disk.boundaries, 0.0)
        b = genus_certificate(disk.surface, [raw], 0.0)
        assert a.inputs_digest != b.inputs_digest
