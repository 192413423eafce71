"""Area-ratio profiles and the weighted monotonicity machinery.

The flat disk is the exact reference: the disk plus the exterior cone
over its rim tile the whole plane, so m(r) = pi at every radius from the
center, and from a rim vertex m(r) is the polygon sector value
(pi - 2*pi/k) / 2, both to the profile's own rounding bound. The first
variation 2A = E + B + S holds on every catalog mesh, with or without its
analytic patch, to its derived rounding bound, and on the flat disk the
interior-edge term E is zero to that bound.
"""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from surfcert import (
    Ball,
    InputInconsistentError,
    InvalidParameterError,
    PolylineCurve,
    ProjectionSingularError,
    RadiusTooLargeError,
    SurfaceModel,
    as_point,
    build_scene,
    catalog_names,
    check_large_radius_bound,
    check_property_p,
    check_weighted_monotonicity,
    clip_areas_total,
    default_radius_grid,
    density_estimate,
    extrinsic_diameter,
    face_reach,
    first_variation,
    lp_norm,
    m_profile,
    mean_curvature_field,
    nearest_vertex,
    point_triangle_dist2,
    property_p_constants,
    stable_sum,
    triangle_areas,
)
from surfcert import geometry
from surfcert.cli import main
from surfcert.geometry import DEGENERATE_REL_TOL, _straddling_areas, clip_areas
from surfcert.monotonicity import _boundary_fan, _clip_rounding_bounds
from surfcert.surfaces import _faces_meeting_ball, _vertex_distances


U = np.finfo(np.float64).eps / 2.0  # unit roundoff


@pytest.fixture(scope="module")
def disk():
    return build_scene("flat_disk")


@pytest.fixture(scope="module")
def disk_profile(disk):
    return m_profile(disk.surface, disk.boundaries, (0.0, 0.0, 0.0), radii=(0.3, 0.6, 0.9, 1.5, 3.0, 6.0))


class TestProfile:
    def test_disk_profile_is_constant_pi(self, disk_profile):
        # math.pi is within u pi of pi
        for m, dm in zip(disk_profile.m_values, disk_profile.m_errors):
            assert abs(m - math.pi) <= dm + U * math.pi

    def test_disk_weighted_values_equal_raw_for_flat_input(self, disk_profile):
        # lam = 0 on a flat mesh, so the weight is identically 1
        assert disk_profile.lam == pytest.approx(0.0, abs=1e-12)
        assert disk_profile.weighted_m == pytest.approx(disk_profile.m_values)

    def test_rim_vertex_sector_value(self, disk):
        loop = disk.surface.boundary_loops[0]
        k = len(loop)
        x0 = disk.surface.vertices[loop[0]]
        prof = m_profile(disk.surface, disk.boundaries, x0, radii=(0.01, 0.02))
        # the three roundings of want put it within 2 u pi of its exact value
        want = (math.pi - 2.0 * math.pi / k) / 2.0
        for m, dm in zip(prof.m_values, prof.m_errors):
            assert abs(m - want) <= dm + 2.0 * U * math.pi

    def test_default_grid_contains_diameter_and_four_diameters(self, disk):
        r0 = extrinsic_diameter(disk.surface)
        grid = default_radius_grid(disk.surface, (0.0, 0.0, 0.0))
        assert any(abs(g - r0) < 1e-12 for g in grid)
        assert any(abs(g - 4.0 * r0) < 1e-12 for g in grid)
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_profile_records_inputs(self, disk_profile):
        assert disk_profile.r0 == pytest.approx(2.0, abs=1e-12)
        assert disk_profile.tol_disc > 0.0
        assert len(disk_profile.defects) == 15  # all pairs of 6 radii

    def test_tol_disc_below_the_adaptive_clippers_on_selftest_profiles(self):
        # tol_disc was 3 * 1e-6 * (largest clipped area) / (smallest r^2) when
        # a 1e-6-relative adaptive clipper computed m(r); the derived rounding
        # bound of the exact clip may only be tighter
        from surfcert.selftest import _default_profile

        profiles = [
            _default_profile(name, params)[1]
            for name, params in [
                ("flat_disk", None),
                ("catenoid", None),
                ("graph_disk", {"seed": 0}),
                ("graph_disk", {"seed": 1}),
                ("graph_disk", {"seed": 2}),
                ("cap", None),
            ]
        ]
        for name in ("cap", "catenoid"):
            scene = build_scene(name)
            r0 = extrinsic_diameter(scene.surface)
            radii = tuple(r0 * f for f in (0.5, 1.0, 1.5, 2.0, 4.0))
            profiles.append(
                m_profile(scene.surface, list(scene.boundaries), scene.default_x0, radii=radii)
            )
        for prof in profiles:
            max_area = max(m * r * r for r, m in zip(prof.radii, prof.m_values))
            old = 3.0 * 1e-6 * max_area / min(r * r for r in prof.radii)
            assert 0.0 < prof.tol_disc <= old

    @pytest.mark.parametrize("res", [16, 32, 64])
    def test_exterior_cone_reaches_every_ball_near_a_segment(self, res, capsys):
        # the centroid of face 0 sits much closer to the sector's straight
        # edge than to any boundary vertex; the sector plus its exterior
        # cone is the whole plane, so m(r) = pi at every radius
        sector = build_scene("flat_sector", res=res)
        s = sector.surface
        x0 = s.vertices[s.faces[0]].mean(axis=0)
        prof = m_profile(s, sector.boundaries, x0)
        for m, dm in zip(prof.m_values, prof.m_errors):
            assert abs(m - math.pi) <= dm + U * math.pi
        point = ",".join(repr(float(v)) for v in x0)
        code = main(["monotonicity", "--catalog", "flat_sector", "--res", str(res), "--x0", point])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert payload["weighted_monotone"] and payload["large_radius_ok"]

    def test_center_inside_a_boundary_segment_raises(self, disk):
        loop = disk.surface.boundary_loops[0]
        x0 = disk.surface.vertices[loop[:2]].mean(axis=0)
        with pytest.raises(ProjectionSingularError):
            m_profile(disk.surface, disk.boundaries, x0, radii=(0.5, 1.0))

    def test_nonpositive_radius_rejected(self, disk):
        with pytest.raises(InvalidParameterError):
            m_profile(disk.surface, disk.boundaries, (0.0, 0.0, 0.0), radii=(0.5, -1.0))


class TestBoundaryMatching:
    """m_profile takes the boundary curves up to cyclic shift and orientation
    of each loop, and rejects curves that are not the mesh's loops."""

    @pytest.mark.parametrize("name", ["graph_disk", "catenoid", "flat_sector", "cap"])
    def test_shifted_and_reversed_loops_give_the_same_profile(self, name):
        scene = build_scene(name, res=16)
        s = scene.surface
        want = m_profile(s, scene.boundaries, scene.default_x0)
        for shift, step in [(1, 1), (5, 1), (1, -1), (5, -1)]:
            curves = [
                PolylineCurve(np.roll(c.vertices, shift, axis=0)[::step])
                for c in scene.boundaries
            ]
            got = m_profile(s, curves, scene.default_x0)
            assert got.m_values == want.m_values

    def test_moved_vertex_is_rejected(self):
        scene = build_scene("graph_disk", res=16)
        v = scene.boundary.vertices.copy()
        v[3, 2] += 1e-6 * scene.surface.scale
        with pytest.raises(InputInconsistentError):
            m_profile(scene.surface, PolylineCurve(v), scene.default_x0)

    def test_missing_loop_is_rejected(self):
        scene = build_scene("catenoid", res=16)
        assert len(scene.boundaries) == 2
        with pytest.raises(InputInconsistentError):
            m_profile(scene.surface, scene.boundaries[:1], scene.default_x0)

    def test_curve_with_a_vertex_fewer_is_rejected(self):
        scene = build_scene("graph_disk", res=16)
        v = np.delete(scene.boundary.vertices, 3, axis=0)
        with pytest.raises(InputInconsistentError):
            m_profile(scene.surface, PolylineCurve(v), scene.default_x0)


class TestWeightedMonotonicity:
    def test_disk_has_no_violations(self, disk_profile):
        rep = check_weighted_monotonicity(disk_profile)
        assert rep.ok
        assert rep.violations == ()
        # m is constant, so every pairwise defect is numerically zero
        for _i, _j, d in rep.defects:
            assert abs(d) <= 1e-4

    def test_cap_is_monotone(self):
        cap = build_scene("cap", res=32)
        prof = m_profile(
            cap.surface, cap.boundaries, cap.default_x0, radii=(0.5, 1.0, 2.0, 4.0)
        )
        rep = check_weighted_monotonicity(prof)
        assert rep.ok, rep.violations

    def test_large_radius_floor_on_disk(self, disk_profile):
        rep = check_large_radius_bound(disk_profile)
        assert rep.ok
        assert rep.violations == ()
        assert rep.anchor == pytest.approx(3.0)  # first radius >= the diameter

    def test_large_radius_needs_radius_at_diameter(self, disk):
        prof = m_profile(disk.surface, disk.boundaries, (0.0, 0.0, 0.0), radii=(0.3, 0.6))
        with pytest.raises(InvalidParameterError):
            check_large_radius_bound(prof)


class TestSmallnessConstants:
    def test_finite_exponent_formula(self):
        cap = build_scene("cap")
        k = property_p_constants(cap.surface, 4.0)
        f = mean_curvature_field(cap.surface)
        prefactor = (2.0 * 4.0 / (4.0 - 2.0)) * (2.0 / math.pi) ** (1.0 / 4.0)
        assert k.p == 4.0
        assert k.alpha == pytest.approx(0.5)
        assert k.lam == pytest.approx(prefactor * lp_norm(f, cap.surface, 4.0), rel=1e-12)
        assert k.smallness_ok
        assert k.smallness_margin > 0.0

    def test_sup_norm_case(self):
        cap = build_scene("cap")
        k = property_p_constants(cap.surface, math.inf)
        f = mean_curvature_field(cap.surface)
        assert k.alpha == 1.0
        assert k.lam == pytest.approx(lp_norm(f, cap.surface, math.inf), rel=1e-12)

    def test_small_exponent_rejected(self):
        cap = build_scene("cap")
        with pytest.raises(InvalidParameterError):
            property_p_constants(cap.surface, 2.0)


class TestCurvatureMassBound:
    def test_flat_disk_bound_holds_with_zero_mass(self, disk, disk_profile):
        k = property_p_constants(disk.surface, math.inf)
        rep = check_property_p(disk.surface, k, (0.0, 0.0, 0.0), profile=disk_profile)
        assert rep.ok
        assert rep.violations == ()
        for integral in rep.curvature_integrals:
            assert abs(integral) <= 1e-10

    def test_cap_bound_holds(self):
        cap = build_scene("cap", res=32)
        k = property_p_constants(cap.surface, math.inf)
        prof = m_profile(
            cap.surface, list(cap.boundaries), cap.default_x0, (0.5, 1.0, 2.0, 4.0), constants=k
        )
        rep = check_property_p(cap.surface, k, cap.default_x0, profile=prof)
        assert rep.radii == (0.5, 1.0, 2.0, 4.0)
        assert rep.ok, rep.violations
        assert min(rep.slacks) > 0.0


def _per_radius_clip(verts: np.ndarray, ball: Ball) -> np.ndarray:
    """The clip classified from scratch at one radius: the vertex test for
    faces wholly inside, then the nearest-point test on the faces left."""
    areas = triangle_areas(verts)
    sq_diam = ((verts - np.roll(verts, 1, axis=1)) ** 2).sum(-1).max(axis=1)
    live = (areas > 0.0) & (areas >= DEGENERATE_REL_TOL * sq_diam)
    r2 = ball.radius * ball.radius
    inside = live & np.all(((verts - ball.center) ** 2).sum(-1) <= r2, axis=1)
    out = np.where(inside, areas, 0.0)
    rest = np.nonzero(live & ~inside)[0]
    rest = rest[point_triangle_dist2(verts[rest], ball.center) <= r2]
    out[rest] = np.clip(_straddling_areas(verts[rest] - ball.center, r2), 0.0, areas[rest])
    return out


def _centres(s: SurfaceModel, x0) -> list:
    """The mesh vertex nearest x0 and the centroid of a face around it."""
    vi, _ = nearest_vertex(s, x0)
    face = s.faces[np.flatnonzero((s.faces == vi).any(axis=1))[0]]
    return [s.vertices[vi], s.vertices[face].mean(axis=0)]


class TestFaceReach:
    @pytest.mark.parametrize("res", [16, 32])
    @pytest.mark.parametrize("name", catalog_names())
    def test_reach_gives_the_per_radius_clip_bit_for_bit(self, name, res):
        scene = build_scene(name, res=res)
        s = scene.surface
        for x0 in _centres(s, scene.default_x0):
            radii = default_radius_grid(s, x0)
            fan = _boundary_fan(list(scene.boundaries), x0)[0]
            stacks = [(s.face_triangles(), s.face_areas), (fan, None)]
            for tris, areas in stacks:
                reach = face_reach(tris, x0, areas, radii)
                for r in radii:
                    ball = Ball(x0, r)
                    got = clip_areas(tris, ball, reach)
                    assert got.tobytes() == clip_areas(tris, ball).tobytes()
                    assert got.tobytes() == _per_radius_clip(tris, ball).tobytes()
                    assert clip_areas_total(tris, ball, reach) == stable_sum(got.tolist())

    @pytest.mark.parametrize("name", catalog_names())
    def test_longest_edge_is_the_one_the_bounds_read(self, name):
        # `_clip_rounding_bounds` and `first_variation` read longest2 in
        # place of their own norms of the rolled edges: the same bits
        scene = build_scene(name, res=16)
        tris = scene.surface.face_triangles()
        fan = _boundary_fan(list(scene.boundaries), scene.default_x0)[0]
        for tris in (tris, fan, tris * 1e70, tris * 1e-70):
            reach = face_reach(tris, np.zeros(tris.shape[2]))
            norms = np.linalg.norm(tris - np.roll(tris, 1, axis=1), axis=2).max(axis=1)
            assert np.sqrt(reach.longest2).tobytes() == norms.tobytes()
            d = np.roll(tris, -1, axis=1) - tris
            assert reach.longest2.tobytes() == (d * d).sum(-1).max(axis=1).tobytes()

    def test_reach_for_another_centre_or_stack_raises(self, disk):
        tris = disk.surface.face_triangles()
        reach = face_reach(tris, (0.0, 0.0, 0.0))
        with pytest.raises(InputInconsistentError):
            clip_areas(tris, Ball((0.1, 0.0, 0.0), 0.5), reach)
        with pytest.raises(InputInconsistentError):
            clip_areas_total(tris[1:], Ball((0.0, 0.0, 0.0), 0.5), reach)
        with pytest.raises(InputInconsistentError):
            face_reach(tris, (0.0, 0.0, 0.0), disk.surface.face_areas[1:])

    @pytest.fixture
    def dist_calls(self, monkeypatch):
        calls = []
        real = geometry.point_triangle_dist2

        def counted(verts, p):
            calls.append(len(verts))
            return real(verts, p)

        monkeypatch.setattr(geometry, "point_triangle_dist2", counted)
        return calls

    def test_profile_measures_distances_once(self, dist_calls):
        scene = build_scene("catenoid", res=16)
        prof = m_profile(scene.surface, list(scene.boundaries), scene.default_x0)
        fan = _boundary_fan(list(scene.boundaries), scene.default_x0)[0]
        assert len(prof.radii) > 1
        # one classification of the surface and one of the boundary fan
        assert dist_calls == [scene.surface.n_faces, len(fan)]

    def test_density_measures_distances_once(self, dist_calls):
        scene = build_scene("graph_disk", res=16)
        s = scene.surface
        x0 = as_point(_centres(s, scene.default_x0)[1])
        est = density_estimate(s, x0)
        assert est.mode == "extrapolated" and len(est.radii) == 3
        # one classification, of the faces near x0 only
        kept = _faces_meeting_ball(s, x0, _vertex_distances(s, x0), est.radii[0])
        assert dist_calls == [kept.size]
        assert 0 < kept.size < s.n_faces


    @pytest.fixture
    def clip_calls(self, monkeypatch):
        """Counts of closed-form calls and of `clip_areas_total` calls made
        through the bindings `monotonicity` and `surfaces` hold."""
        from surfcert import monotonicity, surfaces

        calls = {"closed_form": 0, "total": 0}
        real_form, real_total = geometry._straddling_areas, geometry.clip_areas_total

        def closed_form(rel, r2):
            calls["closed_form"] += 1
            return real_form(rel, r2)

        def total(verts, ball, reach=None):
            calls["total"] += 1
            return real_total(verts, ball, reach)

        monkeypatch.setattr(geometry, "_straddling_areas", closed_form)
        for module in (monotonicity, surfaces):
            monkeypatch.setattr(module, "clip_areas_total", total)
        return calls

    def test_profile_clips_every_radius_in_two_closed_form_calls(self, clip_calls):
        # one call for the surface and one for the boundary fan, while the
        # per-radius clip_areas_total calls stay for the benchmark's tracer
        scene = build_scene("catenoid", res=16)
        prof = m_profile(scene.surface, list(scene.boundaries), scene.default_x0)
        assert len(prof.radii) > 1
        assert clip_calls == {"closed_form": 2, "total": len(prof.radii)}

    def test_first_variation_clips_every_radius_in_one_closed_form_call(self, clip_calls):
        scene = build_scene("graph_disk", res=16)
        fv = first_variation(scene.surface, scene.default_x0, (0.2, 0.5, 1.0))
        assert clip_calls == {"closed_form": 1, "total": len(fv.radii)}

    def test_density_clips_its_three_radii_in_one_closed_form_call(self, clip_calls):
        scene = build_scene("graph_disk", res=16)
        s = scene.surface
        est = density_estimate(s, as_point(_centres(s, scene.default_x0)[1]))
        assert est.mode == "extrapolated"
        assert clip_calls == {"closed_form": 1, "total": 3}

    def test_property_p_clips_every_radius_in_one_closed_form_call(self, clip_calls):
        # the profile's own calls are not counted; check_property_p reads
        # each radius with clip_areas, so no clip_areas_total call is made
        scene = build_scene("graph_disk", res=16)
        s, x0 = scene.surface, scene.default_x0
        k = property_p_constants(s, math.inf)
        prof = m_profile(s, list(scene.boundaries), x0, constants=k)
        clip_calls.update(closed_form=0, total=0)
        rep = check_property_p(s, k, x0, profile=prof)
        assert len(rep.radii) > 1
        assert clip_calls == {"closed_form": 1, "total": 0}


class TestClipRoundingBounds:
    @pytest.mark.parametrize("name", ["graph_disk", "catenoid"])
    def test_inside_faces_are_charged_their_own_bound(self, name, monkeypatch):
        # a face wholly inside is charged (3 + n^2/8) u L^2 rather than the
        # crossing budget 24 (n + 6) u (r + L)^2; far2 = inf charges every
        # gated face the crossing budget, as the bound did before
        scene = build_scene(name, res=32)
        s, x0 = scene.surface, scene.default_x0
        radii = default_radius_grid(s, x0)
        tris = s.face_triangles()
        reach = face_reach(tris, x0, s.face_areas)
        crossing_only = dataclasses.replace(reach, far2=np.full_like(reach.far2, np.inf))
        got = _clip_rounding_bounds(reach, reach.near2, radii)
        old = _clip_rounding_bounds(crossing_only, reach.near2, radii)
        assert np.all(got <= old)
        assert got[0] < old[0] / 2.0
        assert got[-1] < old[-1] / 1e5

        from surfcert import monotonicity

        real = monotonicity._clip_rounding_bounds

        def crossing_budget(reach, near2, radii, wedge=False):
            far2 = np.full_like(reach.far2, np.inf)
            return real(dataclasses.replace(reach, far2=far2), near2, radii, wedge)

        prof = m_profile(s, list(scene.boundaries), x0)
        monkeypatch.setattr(monotonicity, "_clip_rounding_bounds", crossing_budget)
        loose = m_profile(s, list(scene.boundaries), x0)
        assert prof.m_values == loose.m_values
        assert all(a <= b for a, b in zip(prof.m_errors, loose.m_errors))
        assert prof.tol_disc < loose.tol_disc / 2.0

    def test_rounding_term_covers_the_sum_of_the_rounded_parts(self, monkeypatch):
        # m(r) r^2 sums the correctly rounded surface total A(r) with the fan
        # terms, so from the faces' clipped areas and the fan terms to m(r)
        # three roundings add up: A(r)'s, the sum's and the division's. With
        # the clip bounds set to 0, m_errors is that rounding term alone, and
        # it must cover them; on this profile one m value lies 2.36 u m(r)
        # from the exact ratio of those parts, more than two roundings cost
        from surfcert import monotonicity

        monkeypatch.setattr(
            monotonicity, "_clip_rounding_bounds", lambda reach, near2, radii, **k: np.zeros(len(radii))
        )
        scene = build_scene("catenoid", res=32)
        s, x0, curves = scene.surface, scene.default_x0, list(scene.boundaries)
        prof = m_profile(s, curves, x0)
        tris = s.face_triangles()
        fan, near2, theta = _boundary_fan(curves, x0)
        off = []
        for r, m, dm in zip(prof.radii, prof.m_values, prof.m_errors):
            ball = Ball(x0, r)
            crossed = near2 < r * r
            parts = clip_areas(tris, ball).tolist() + (theta[crossed] * (0.5 * r * r)).tolist()
            parts += (-clip_areas(fan, ball)[crossed]).tolist()
            exact = sum(map(Fraction, parts)) / Fraction(r) ** 2
            assert abs(Fraction(m) - exact) <= Fraction(dm)
            off.append(float(abs(Fraction(m) - exact) / Fraction(U * m)))
        assert max(off) > 2.0

    def test_inside_fan_triangles_keep_the_wedge_term(self, disk):
        # beyond the rim every fan triangle is inside, and its charge is its
        # area's bound plus the wedge term's (sqrt(2) (n + 4) + 2 pi) u r^2
        fan, near2, _theta = _boundary_fan(list(disk.boundaries), np.zeros(3))
        reach = face_reach(fan, np.zeros(3))
        r = 3.0
        longest = np.linalg.norm(fan - np.roll(fan, 1, axis=1), axis=2).max(axis=1)
        area_only = (3.0 + 9.0 / 8.0) * U * longest**2
        wedge = (math.sqrt(2.0) * 7.0 + 2.0 * math.pi) * U * r * r
        got = _clip_rounding_bounds(reach, near2, [r], wedge=True)[0]
        assert got == pytest.approx(float((area_only + wedge).sum()), rel=1e-12)
        assert _clip_rounding_bounds(reach, near2, [r])[0] == pytest.approx(
            float(area_only.sum()), rel=1e-12
        )


def _sliver_mesh() -> SurfaceModel:
    """A bumped grid whose columns 1e-15 and 1e-9 wide hold dead and live
    slivers, next to faces hundreds of times longer than wide."""
    xs = np.array([0.0, 1e-15, 1e-9, 0.3, 0.3 + 1e-9, 0.7, 1.0])
    ys = np.linspace(0.0, 1.0, 13)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    xx, yy = xx.ravel(), yy.ravel()
    verts = np.stack([xx, yy, 0.1 * np.sin(3.0 * xx) * np.cos(2.0 * yy)], axis=1)
    cols = ys.size
    faces = []
    for i in range(xs.size - 1):
        for j in range(cols - 1):
            a, b = i * cols + j, (i + 1) * cols + j
            faces += [(a, b, b + 1), (a, b + 1, a + 1)]
    return SurfaceModel.build(verts, np.asarray(faces))


SURFACES = {name: (lambda name=name: build_scene(name, res=16).surface) for name in catalog_names()}
SURFACES["slivers"] = _sliver_mesh


def _whole_surface_ratios(s: SurfaceModel, x0, radii) -> tuple:
    tris = s.face_triangles()
    reach = face_reach(tris, x0, s.face_areas, radii)
    return tuple(clip_areas_total(tris, Ball(x0, r), reach) / (math.pi * r * r) for r in radii)


class TestDensityReadsOnlyNearbyFaces:
    @settings(max_examples=80, deadline=None)
    @given(
        name=st.sampled_from(sorted(SURFACES)),
        face=st.integers(min_value=0, max_value=10**6),
        weights=st.tuples(*[st.floats(min_value=0.0, max_value=1.0)] * 3),
        lift=st.one_of(st.just(0.0), st.floats(min_value=-10.0, max_value=10.0)),
        seed=st.integers(min_value=0, max_value=2**31),
        edges=st.floats(min_value=0.05, max_value=40.0),
    )
    # straight up from the flat disk, where no face meets the ball
    @example(name="flat_disk", face=0, weights=(1.0, 1.0, 1.0), lift=10.0, seed=0, edges=5.0)
    def test_same_estimate_as_the_whole_surface(self, name, face, weights, lift, seed, edges):
        # a centre on a face, or lifted off it in a random direction (R^4
        # for branched_disk) by up to ten edge lengths, which from far enough
        # out leaves no face in the ball; the largest radius is `edges` edge
        # lengths
        s = SURFACES[name]()
        corners = s.vertices[s.faces[face % s.n_faces]]
        w = np.asarray(weights) + 1e-3
        step = np.random.default_rng(seed).normal(size=s.dim)
        edge = np.linalg.norm(corners[1] - corners[0])
        step *= lift * edge / np.linalg.norm(step)
        x0 = as_point(w @ corners / w.sum() + step)
        r1 = edges * edge
        radii = (r1, 0.5 * r1, 0.25 * r1)
        kept = _faces_meeting_ball(s, x0, _vertex_distances(s, x0), r1)
        # (a) clipping the faces kept gives the whole surface's ratios
        tris = s.vertices[s.faces[kept]]
        reach = face_reach(tris, x0, s.face_areas[kept], radii)
        near = [clip_areas_total(tris, Ball(x0, r), reach) / (math.pi * r * r) for r in radii]
        whole = _whole_surface_ratios(s, x0, radii)
        assert [r.hex() for r in near] == [r.hex() for r in whole]
        # (b) every face left out is one the clip drops at the largest ball
        dropped = face_reach(np.delete(s.face_triangles(), kept, axis=0), x0)
        assert np.all(dropped.near2 > r1 * r1)  # point_triangle_dist2
        assert np.all(dropped.far2 > r1 * r1)
        # (c) the estimate at its own radii is the whole surface's
        try:
            est = density_estimate(s, x0, mode="extrapolated")
        except RadiusTooLargeError:
            return
        whole = _whole_surface_ratios(s, x0, est.radii)
        assert [r.hex() for r in est.ratios] == [r.hex() for r in whole]
        design = np.array([[1.0, r * r] for r in est.radii])
        coef = np.linalg.lstsq(design, np.asarray(whole), rcond=None)[0]
        assert est.value.hex() == float(coef[0]).hex()


def _scene_radii(s: SurfaceModel) -> tuple:
    """Radii from 0.1 to 4 times the surface's scale, so that the sphere
    crosses the interior, then the boundary, then holds the whole surface."""
    return tuple(s.scale * f for f in (0.1, 0.2, 0.35, 0.5, 0.7, 1.0, 1.5, 2.5, 4.0))


def _holds(fv) -> bool:
    return all(abs(res) <= err for res, err in zip(fv.residuals, fv.errors))


class TestIntegratedIdentity:
    @pytest.mark.parametrize(
        "sigma,r,tol",
        [
            (0.2, 0.5, 1e-6),  # both radii inside the disk
            (0.5, 2.0, 1e-4),  # straddles the rim: boundary term active
            (1.5, 3.0, 1e-12),  # both radii beyond the rim
        ],
    )
    def test_flat_disk_defect_vanishes(self, disk, sigma, r, tol):
        # at both ends of [sigma, r] the identity closes and the plane has
        # no interior term, to the derived bound and to the fixed tolerance
        fv = first_variation(disk.surface, (0.0, 0.0, 0.0), (sigma, r))
        assert _holds(fv), (fv.residuals, fv.errors)
        for res, e in zip(fv.residuals, fv.interior):
            assert abs(res) < tol
            assert abs(e) < tol


class TestFirstVariation:
    """2A = E + B + S holds on the mesh itself, to its derived rounding bound."""

    @pytest.mark.parametrize("res", [16, 32, 64])
    @pytest.mark.parametrize("name", catalog_names())
    def test_identity_on_every_scene(self, name, res):
        scene = build_scene(name, res=res)
        s = scene.surface
        raw = SurfaceModel.build(s.vertices, s.faces)
        assert raw.patch is None
        radii = _scene_radii(s)
        for x0 in [scene.default_x0, *_centres(s, scene.default_x0)]:
            fv = first_variation(s, x0, radii)
            assert _holds(fv), (fv.residuals, fv.errors)
            assert any(b != 0.0 for b in fv.boundary)
            # the mesh alone is enough: the patch changes nothing
            bare = first_variation(raw, x0, radii)
            assert (bare.interior, bare.boundary, bare.sphere, bare.errors) == (
                fv.interior, fv.boundary, fv.sphere, fv.errors
            )

    def test_flat_disk_has_no_interior_term(self, disk):
        # nu_1 + nu_2 = 0 on a plane; inside the rim (radius 1) the boundary
        # is out of reach and the arcs make up the whole circle, beyond it
        # no face is cut
        fv = first_variation(disk.surface, (0.0, 0.0, 0.0), (0.2, 0.5, 0.9, 1.5, 3.0))
        assert _holds(fv)
        for r, e, b, s, err in zip(fv.radii, fv.interior, fv.boundary, fv.sphere, fv.errors):
            assert abs(e) <= err
            if r < 0.99:
                assert b == 0.0
                assert abs(s - 2.0 * math.pi * r * r) <= err + 2.0 * U * s
            else:
                assert s == 0.0

    def test_degenerate_faces_add_nothing(self):
        s = _sliver_mesh()
        reach = face_reach(s.face_triangles(), np.zeros(3), s.face_areas)
        assert not reach.live.all()
        for x0 in s.vertices[::7]:
            fv = first_variation(s, x0, (0.05, 0.2, 0.6, 2.0))
            assert _holds(fv), (fv.residuals, fv.errors)

    def test_minimal_catenoid_interior_term_vanishes(self):
        values = []
        for res in (8, 16, 32):
            scene = build_scene("catenoid", res=res)
            r = 0.45 * scene.surface.scale
            fv = first_variation(scene.surface, scene.default_x0, (r,))
            assert _holds(fv)
            values.append(abs(fv.interior[0]))
        assert values[0] >= 2.0 * values[1] and values[1] >= 2.0 * values[2], values

    @pytest.mark.parametrize("ulps", [-3, -1, 0, 1, 3])
    def test_bound_holds_at_a_tangent_edge(self, ulps):
        # a sphere tangent to a rim edge cuts it in a chord of length about
        # sqrt(u) r, whose error only the sqrt(dq) part of the bound covers
        s = build_scene("flat_disk", res=8).surface
        a, b = s.vertices[s.boundary_loops[0][:2]]
        foot = a + (a @ (a - b)) / ((b - a) @ (b - a)) * (b - a)
        r = float(np.linalg.norm(foot)) * (1.0 + ulps * 2.0 * U)
        q, _ = np.linalg.qr(np.random.default_rng(ulps + 3).normal(size=(3, 3)))
        shift = np.array([0.3, -1.2, 2.0])
        here = first_variation(s, np.zeros(3), (r,))
        moved = first_variation(SurfaceModel.build(s.vertices @ q.T + shift, s.faces), shift, (r,))
        for fv in (here, moved):
            assert _holds(fv)
        for field in ("interior", "boundary", "sphere"):
            diff = abs(getattr(here, field)[0] - getattr(moved, field)[0])
            assert diff <= here.errors[0] + moved.errors[0], field

    @pytest.mark.parametrize("r", [0.0, -1.0, math.inf, math.nan])
    def test_nonpositive_radius_rejected(self, disk, r):
        with pytest.raises(InvalidParameterError):
            first_variation(disk.surface, (0.0, 0.0, 0.0), (0.5, r))

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(catalog_names()),
        res=st.sampled_from([8, 12]),
        face=st.integers(min_value=0, max_value=10**6),
        weights=st.tuples(*[st.floats(min_value=0.0, max_value=1.0)] * 3),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_terms_survive_motion_and_relabeling(self, name, res, face, weights, seed):
        s = build_scene(name, res=res).surface
        w = np.asarray(weights) + 1e-3
        x0 = w @ s.vertices[s.faces[face % s.n_faces]] / w.sum()
        radii = _scene_radii(s)[:6]
        base = first_variation(s, x0, radii)
        rng = np.random.default_rng(seed)
        # a rigid motion of the surface and the centre
        q, _ = np.linalg.qr(rng.normal(size=(s.dim, s.dim)))
        shift = rng.normal(size=s.dim) * s.scale
        moved = first_variation(
            SurfaceModel.build(s.vertices @ q.T + shift, s.faces), q @ x0 + shift, radii
        )
        # new vertex labels, faces in a new order, each turned cyclically
        perm = rng.permutation(s.n_vertices)
        inv = np.argsort(perm)
        order = rng.permutation(s.n_faces)
        turns = (rng.integers(0, 3, s.n_faces)[:, None] + np.arange(3)) % 3
        faces = inv[s.faces][order][np.arange(s.n_faces)[:, None], turns[order]]
        relabeled = first_variation(SurfaceModel.build(s.vertices[perm], faces), x0, radii)
        for other in (moved, relabeled):
            assert _holds(other)
            for field in ("interior", "boundary", "sphere"):
                for a, b, ea, eb in zip(
                    getattr(base, field), getattr(other, field), base.errors, other.errors
                ):
                    assert abs(a - b) <= ea + eb, (field, a, b)
