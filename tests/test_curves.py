"""Turning angles, radial projection, and the projection bound.

Oracles: regular polygons (TC exactly 2*pi), hand-computed subtended
angles for the unit square, and the spherical-circle limit for a planar
circle seen from an off-plane apex. The simplicity check is compared with
a check of every pair of non-adjacent segments.
"""

import math

import numpy as np
import pytest

import surfcert.curves as curves_module

from surfcert import (
    CornerFlag,
    InputInconsistentError,
    InvalidParameterError,
    PolylineCurve,
    ProjectionSingularError,
    best_fit_plane_deviation,
    build_cone,
    cone_density,
    curve_length,
    projection_bound_report,
    radial_projection_length,
    total_curvature,
    turning_angles,
)
from surfcert.curves import COINCIDENCE_REL_TOL, _segment_pair_dist2, _simplicity_slack
from surfcert.geometry import _box_diagonal


def regular_polygon(k: int, radius: float = 1.0, z: float = 0.0) -> PolylineCurve:
    ang = 2.0 * math.pi * np.arange(k) / k
    pts = np.stack([radius * np.cos(ang), radius * np.sin(ang), np.full(k, z)], axis=1)
    return PolylineCurve(pts)


def unit_square() -> PolylineCurve:
    return PolylineCurve(np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float))


class TestTotalCurvature:
    def test_square_turns_by_two_pi(self):
        sq = unit_square()
        assert turning_angles(sq) == pytest.approx([math.pi / 2] * 4)
        assert total_curvature(sq) == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_regular_polygon_turns_by_two_pi(self):
        for k in (3, 7, 128):
            assert total_curvature(regular_polygon(k)) == pytest.approx(
                2.0 * math.pi, abs=1e-9
            )

    def test_reflex_polygon_exceeds_two_pi(self):
        # L-shape: one reflex corner adds 2*(pi/2) beyond the convex total
        pts = np.array(
            [[0, 0, 0], [2, 0, 0], [2, 1, 0], [1, 1, 0], [1, 2, 0], [0, 2, 0]],
            dtype=float,
        )
        tc = total_curvature(PolylineCurve(pts))
        assert tc == pytest.approx(3.0 * math.pi, abs=1e-12)

    def test_nonplanar_polygon_satisfies_fenchel(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = int(rng.integers(4, 12))
            ang = np.sort(rng.uniform(0, 2 * math.pi, size=k))
            if np.min(np.diff(ang, append=ang[0] + 2 * math.pi)) < 1e-3:
                continue
            r = rng.uniform(0.5, 1.5, size=k)
            z = rng.uniform(-0.4, 0.4, size=k)
            pts = np.stack([r * np.cos(ang), r * np.sin(ang), z], axis=1)
            assert total_curvature(PolylineCurve(pts)) >= 2.0 * math.pi - 1e-9

    def test_length(self):
        assert curve_length(unit_square()) == pytest.approx(4.0, abs=1e-15)


class TestRadialProjection:
    def test_planar_curve_from_inside_point_covers_the_sphere_equator(self):
        # any simple planar polygon seen from an interior point subtends 2*pi
        for k in (3, 5, 64):
            c = regular_polygon(k)
            got = radial_projection_length(c, (0.0, 0.0, 0.0))
            assert got == pytest.approx(2.0 * math.pi, abs=1e-12)
            assert cone_density(c, (0.0, 0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_off_center_interior_point_still_two_pi(self):
        c = regular_polygon(16)
        got = radial_projection_length(c, (0.3, -0.2, 0.0))
        assert got == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_exterior_point_in_plane_wraps_zero(self):
        # from outside in the plane the polygon subtends a back-and-forth arc
        got = radial_projection_length(regular_polygon(8), (5.0, 0.0, 0.0))
        tc = total_curvature(regular_polygon(8))
        assert got < tc
        assert got > 0.0

    def test_apex_above_center_matches_spherical_circle(self):
        # circle of radius rho seen from height h projects onto a spherical
        # circle of length 2*pi*sin(beta), beta = atan(rho/h)
        rho, h, k = 1.0, 2.0, 512
        c = regular_polygon(k, radius=rho)
        got = radial_projection_length(c, (0.0, 0.0, h))
        want = 2.0 * math.pi * math.sin(math.atan2(rho, h))
        assert got == pytest.approx(want, rel=1e-4)

    def test_vertex_excision_square_corner(self):
        # from the corner (0,0): incident sides contribute nothing, each far
        # side subtends pi/4
        got = radial_projection_length(unit_square(), (0.0, 0.0, 0.0))
        assert got == pytest.approx(math.pi / 2.0, abs=1e-12)

    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-8, 1e-10])
    def test_segment_subtending_nearly_pi(self, eps):
        # the side (-1, eps, 0)-(1, eps, 0) subtends pi - 2 atan(eps) at the
        # origin, the two short sides pi/4 - atan(eps) each and the far side
        # pi/2; an arccos of the dot product loses half the digits near pi
        c = PolylineCurve(np.array([[-1, eps, 0], [1, eps, 0], [1, 1, 0], [-1, 1, 0]], float))
        got = radial_projection_length(c, (0.0, 0.0, 0.0))
        want = 2.0 * math.pi - 4.0 * math.atan(eps)
        assert abs(got - want) <= 4.0 * np.spacing(want)

    def test_point_on_edge_interior_rejected(self):
        with pytest.raises(ProjectionSingularError):
            radial_projection_length(unit_square(), (0.5, 0.0, 0.0))


class TestProjectionBound:
    def test_interior_mode_bound_is_total_curvature(self):
        c = regular_polygon(12)
        rep = projection_bound_report(c, (0.1, 0.2, 0.05))
        assert rep.mode == "interior"
        assert rep.bound == pytest.approx(rep.tc)
        assert rep.slack >= -rep.tolerance
        assert rep.ok

    def test_boundary_mode_square_corner_is_tight(self):
        # bound = TC - pi - theta = 2*pi - pi - pi/2 = pi/2, met with equality
        rep = projection_bound_report(unit_square(), (0.0, 0.0, 0.0))
        assert rep.mode == "boundary"
        assert rep.theta == pytest.approx(math.pi / 2.0)
        assert rep.bound == pytest.approx(math.pi / 2.0)
        assert rep.projection_length == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert abs(rep.slack) <= 1e-9
        assert rep.ok

    @pytest.mark.parametrize("k", [3, 7, 40, 360])
    def test_equality_case_within_the_derived_tolerance(self, k):
        # from a vertex of a convex plane polygon the projection is the
        # interior angle pi - theta, which is the bound TC - pi - theta with
        # TC = 2 pi: the slack is zero up to rounding
        c = regular_polygon(k)
        for i in range(k):
            rep = projection_bound_report(c, c.vertices[i])
            assert rep.ok and abs(rep.slack) <= rep.tolerance
            assert rep.tolerance < 1e-9  # the hand-set tolerance it replaces

    def test_centre_is_located_once(self, monkeypatch):
        calls = []
        real = curves_module._locate_center

        def counted(c, x0):
            calls.append(x0)
            return real(c, x0)

        monkeypatch.setattr(curves_module, "_locate_center", counted)
        projection_bound_report(unit_square(), (0.0, 0.0, 0.0))
        projection_bound_report(unit_square(), (0.3, 0.2, 0.1))
        assert len(calls) == 2

    def test_sampled_curve_uses_flagged_theta(self):
        # same square, but flagged as a sampled curve with one true corner
        flags = (CornerFlag(index=0, theta=math.pi / 2.0),)
        c = PolylineCurve(unit_square().vertices, corner_flags=flags)
        rep = projection_bound_report(c, (0.0, 0.0, 0.0))
        assert rep.theta == pytest.approx(math.pi / 2.0)

    def test_sampled_curve_unflagged_vertex_counts_as_smooth(self):
        c = PolylineCurve(unit_square().vertices, corner_flags=())
        rep = projection_bound_report(c, (1.0, 0.0, 0.0))
        assert rep.mode == "boundary"
        assert rep.theta == 0.0
        assert rep.bound == pytest.approx(math.pi)

    def test_to_dict_round_trip_fields(self):
        rep = projection_bound_report(regular_polygon(6), (0.0, 0.0, 0.0))
        d = rep.to_dict()
        assert d["mode"] == "interior"
        assert d["ok"] is True
        assert d["total_curvature"] == pytest.approx(2.0 * math.pi)


class TestCurveValidation:
    def test_repeated_vertex_rejected(self):
        pts = np.array([[0, 0, 0], [0, 0, 0], [1, 1, 0]], dtype=float)
        with pytest.raises(InvalidParameterError):
            PolylineCurve(pts)

    def test_self_crossing_rejected(self):
        pts = np.array(
            [[0, 0, 0], [2, 2, 0], [2, 0, 0], [0, 2, 0]], dtype=float
        )  # bowtie
        with pytest.raises(InputInconsistentError):
            PolylineCurve(pts)

    def test_flag_index_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            PolylineCurve(unit_square().vertices, corner_flags=(CornerFlag(9, 0.3),))

    def test_flag_index_repeated(self):
        flags = (CornerFlag(1, 0.3), CornerFlag(1, 0.4))
        with pytest.raises(InvalidParameterError):
            PolylineCurve(unit_square().vertices, corner_flags=flags)

    def test_flag_theta_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            PolylineCurve(unit_square().vertices, corner_flags=(CornerFlag(0, 4.0),))

    def test_two_dimensional_points_rejected(self):
        with pytest.raises(InvalidParameterError):
            PolylineCurve(np.array([[0, 0], [1, 0], [0, 1]], dtype=float))


def all_pairs_simple(v: np.ndarray) -> bool:
    """The check over every pair of non-adjacent segments."""
    k = v.shape[0]
    a, b = v, np.roll(v, -1, axis=0)
    ii, jj = np.triu_indices(k, 1)
    adjacent = (jj - ii == 1) | ((ii == 0) & (jj == k - 1))
    ii, jj = ii[~adjacent], jj[~adjacent]
    tol2 = (COINCIDENCE_REL_TOL * _box_diagonal(v)) ** 2
    return not np.any(_segment_pair_dist2(a[ii], b[ii], a[jj], b[jj]) <= tol2)


def is_simple(v: np.ndarray) -> bool:
    try:
        PolylineCurve(v)
    except InputInconsistentError:
        return False
    return True


def figure_eight(theta: np.ndarray, gap: float) -> np.ndarray:
    """Lemniscate of Gerono samples, the strand through theta = pi/2 lifted
    gap/2 and the one through 3 pi/2 lowered gap/2 where they cross."""
    return np.stack([np.cos(theta), np.sin(theta) * np.cos(theta), 0.5 * gap * np.sin(theta)], 1)


class TestSimplicityCheck:
    """The curve check measures only segment pairs whose inflated boxes
    overlap, and gives the verdict of the check over all pairs."""

    @staticmethod
    def bridge(gap: float) -> np.ndarray:
        # the segment (1, 1, gap) -> (1, -1, gap) passes gap above the
        # segment (0, 0, 0) -> (2, 0, 0); no other non-adjacent pair is close
        return np.array(
            [[0, 0, 0], [2, 0, 0], [2, 1, 0], [1, 1, gap], [1, -1, gap], [0, -1, 0]], dtype=float
        )

    @pytest.mark.parametrize("dim", [3, 9])
    def test_figure_eight_rejected(self, dim):
        # in R^9 the box broad phase needs an ownership bit for every axis
        theta = 2.0 * math.pi * (np.arange(40) + 0.3) / 40
        v = figure_eight(theta, 0.0) @ np.eye(dim)[:3] + np.linspace(0.0, 1.0, dim)
        with pytest.raises(InputInconsistentError, match="not simple"):
            PolylineCurve(v)

    @pytest.mark.parametrize("factor", [0.0, 0.5, 0.99])
    def test_segments_within_tol_rejected(self, factor):
        tol = COINCIDENCE_REL_TOL * _box_diagonal(self.bridge(0.0))
        with pytest.raises(InputInconsistentError, match="not simple"):
            PolylineCurve(self.bridge(factor * tol))

    @pytest.mark.parametrize("reach", ["tol", "tol + slack", "2 (tol + slack)"])
    def test_near_miss_accepted(self, reach):
        # just beyond tol + slack the boxes, each inflated by that much,
        # still overlap and the pair is measured; beyond twice that it is not
        scale = _box_diagonal(self.bridge(0.0))
        tol = COINCIDENCE_REL_TOL * scale
        slack = _simplicity_slack(scale)
        gap = {"tol": tol, "tol + slack": tol + slack, "2 (tol + slack)": 2.0 * (tol + slack)}
        PolylineCurve(self.bridge(gap[reach] * (1.0 + 1e-6)))

    def test_matches_all_pairs_far_from_the_origin(self):
        # figure eights whose strands pass within about tol of each other,
        # rotated and moved 1e4 scales away: the rounding of the coordinates
        # is then about tol, and both verdicts occur
        rng = np.random.default_rng(11)
        verdicts = []
        for _ in range(200):
            k = int(rng.integers(12, 60))
            theta = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=k))
            gap = COINCIDENCE_REL_TOL * math.sqrt(5.0) * 10.0 ** rng.uniform(-0.5, 0.5)
            q, r = np.linalg.qr(rng.normal(size=(3, 3)))
            shift = 1e4 * math.sqrt(5.0) * rng.normal(size=3) / math.sqrt(3.0)
            v = figure_eight(theta, gap) @ (q * np.sign(np.diag(r))).T + shift
            verdicts.append(is_simple(v))
            assert verdicts[-1] == all_pairs_simple(v)
        assert 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("gap, simple", [(1e-3, False), (0.1, True)])
    def test_matches_all_pairs_where_squares_underflow(self, gap, simple):
        # two lobes whose vertices kiss across gap * 1e-160, far beyond tol;
        # at 1e-163 the squared distance underflows to 0 <= tol^2 = 0, so the
        # pair counts as touching, and the slack's 2^-535 keeps it measured
        lobes = [[gap, 0, 0], [1, 1, 0], [0, 2, 0], [-1, 1, 0], [0, 0, 0], [-1, -1, 0], [0, -2, 0]]
        v = 1e-160 * np.array(lobes + [[1, -1, 0]])
        assert is_simple(v) == all_pairs_simple(v) == simple

    def test_long_circle_measures_few_pairs(self, monkeypatch):
        # 5,000 vertices: the check over all pairs measures 12.5M pairs
        rows = []

        def counting(a1, b1, a2, b2):
            rows.append(a1.shape[0])
            return _segment_pair_dist2(a1, b1, a2, b2)

        monkeypatch.setattr(curves_module, "_segment_pair_dist2", counting)
        c = regular_polygon(5000)
        assert c.k == 5000
        assert sum(rows) <= 4 * 5000


def small_angle_quad(theta: float) -> np.ndarray:
    """A 4-gon in the plane z = 0 whose sides 0 and 2 cross each other at
    an angle of about 2 theta, so it is not simple for any theta > 0."""
    return np.array(
        [[-1.0, -0.6 * theta, 0.0], [1.0, 1.3 * theta, 0.0], [1.0, -0.7 * theta, 0.0],
         [-1.0, 1.1 * theta, 0.0]]
    )


class TestSmallCrossingAngle:
    """The curve check's blind spot, pinned until it decides crossings
    exactly: `_segment_pair_dist2`'s clamped closest-point parameters are
    off by about u / theta^2, as in the triangle narrow phase."""

    def test_crossing_at_a_moderate_angle_rejected(self):
        with pytest.raises(InputInconsistentError, match="not simple"):
            PolylineCurve(small_angle_quad(1e-4))

    @pytest.mark.xfail(
        strict=True,
        reason="_segment_pair_dist2 computes the crossing sides 1.2e-11, 3.6e-11 and "
        "6.2e-10 apart at 1e-5, 1e-6 and 1e-7, against the tolerance 2e-12",
    )
    @pytest.mark.parametrize("theta", [1e-5, 1e-6, 1e-7])
    def test_crossing_at_a_small_angle_rejected(self, theta):
        with pytest.raises(InputInconsistentError, match="not simple"):
            PolylineCurve(small_angle_quad(theta))


class TestCone:
    def test_unit_cone_area_over_circle(self):
        # cone over a radius-1 circle at height 1 from the origin: each mesh
        # triangle is exact, total = sum of the k flat triangles
        c = regular_polygon(64, z=1.0)
        cone = build_cone(c, (0.0, 0.0, 0.0))
        got = float(cone.face_areas.sum())
        # side length of the base polygon and slant height of each triangle
        side = 2.0 * math.sin(math.pi / 64)
        slant2 = 2.0 - (side / 2.0) ** 2
        want = 64 * 0.5 * side * math.sqrt(slant2)
        assert got == pytest.approx(want, rel=1e-12)

    def test_unit_cone_apex_on_curve_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_cone(unit_square(), (0.0, 0.0, 0.0))


class TestPlaneDeviation:
    def test_planar_points_have_zero_deviation(self):
        pts = regular_polygon(10).vertices
        assert best_fit_plane_deviation(pts) <= 1e-12

    def test_lifted_point_registers(self):
        pts = np.array(unit_square().vertices)
        pts[2, 2] = 0.5
        assert best_fit_plane_deviation(pts) > 0.05
