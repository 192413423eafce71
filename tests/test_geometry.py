"""Closed-form oracles for the clipping and angle primitives.

Every expected value here is computable by hand: full/empty overlaps,
in-plane disks, half and quarter disks at edges and corners, and flat
vertex stars whose cone angles are known exactly.
"""

import itertools
import math

import numpy as np
import pytest

from surfcert import (
    Ball,
    InputInconsistentError,
    InvalidParameterError,
    Triangle,
    angle_between,
    clip_area_in_ball,
    clip_areas_total,
    point_triangle_dist2,
    stable_sum,
    subdivide4,
    triangle_area,
    triangle_areas,
    vertex_total_angle,
)
from surfcert.geometry import DEGENERATE_REL_TOL, _edge_fan_areas

# the clip is exact up to rounding: closed forms agree to this relative error
REL = 1e-12


def tri(*pts) -> Triangle:
    return Triangle(np.array(pts, dtype=float))


def big_triangle(side: float = 40.0) -> Triangle:
    # equilateral, centroid at the origin, in the z = 0 plane
    h = side * math.sqrt(3.0) / 2.0
    return tri(
        (-side / 2.0, -h / 3.0, 0.0),
        (side / 2.0, -h / 3.0, 0.0),
        (0.0, 2.0 * h / 3.0, 0.0),
    )


class TestClipClosedForms:
    def test_triangle_fully_inside(self):
        t = tri((0, 0, 0), (1, 0, 0), (0, 1, 0))
        got = clip_area_in_ball(t, Ball((0.2, 0.2, 0.0), 100.0))
        assert got == pytest.approx(0.5, rel=1e-12)

    def test_triangle_fully_outside(self):
        t = tri((10, 0, 0), (11, 0, 0), (10, 1, 0))
        assert clip_area_in_ball(t, Ball((0, 0, 0), 1.0)) == 0.0

    def test_small_ball_in_triangle_interior_is_a_disk(self):
        t = big_triangle()
        r = 1.5
        got = clip_area_in_ball(t, Ball((0.0, 0.0, 0.0), r))
        assert got == pytest.approx(math.pi * r * r, rel=REL)

    def test_ball_on_edge_midpoint_is_a_half_disk(self):
        side = 40.0
        h = side * math.sqrt(3.0) / 2.0
        t = big_triangle(side)
        # midpoint of the bottom edge, well away from both endpoints
        center = (0.0, -h / 3.0, 0.0)
        r = 2.0
        got = clip_area_in_ball(t, Ball(center, r))
        assert got == pytest.approx(math.pi * r * r / 2.0, rel=REL)

    def test_ball_at_right_angle_corner_is_a_quarter_disk(self):
        t = tri((0, 0, 0), (30, 0, 0), (0, 30, 0))
        r = 1.0
        got = clip_area_in_ball(t, Ball((0.0, 0.0, 0.0), r))
        assert got == pytest.approx(math.pi * r * r / 4.0, rel=REL)

    def test_offset_plane_clips_to_smaller_disk(self):
        # ball center off the triangle plane: the slice is a disk of radius
        # sqrt(r^2 - d^2)
        t = big_triangle()
        r, d = 2.0, 1.2
        got = clip_area_in_ball(t, Ball((0.0, 0.0, d), r))
        expect = math.pi * (r * r - d * d)
        assert got == pytest.approx(expect, rel=REL)

    def test_radius_monotone(self):
        t = tri((0, 0, 0), (3, 0, 0), (0, 2, 0))
        prev = 0.0
        for r in (0.2, 0.5, 1.0, 1.8, 2.6, 10.0):
            cur = clip_area_in_ball(t, Ball((0.5, 0.4, 0.0), r))
            assert cur >= prev - REL * triangle_area(t)
            prev = cur
        assert prev == pytest.approx(triangle_area(t), rel=1e-12)

    def test_result_bounded_by_triangle_area(self):
        t = tri((0, 0, 0), (2, 0, 0), (0, 2, 0))
        a = triangle_area(t)
        for r in (0.1, 0.7, 1.3, 5.0):
            got = clip_area_in_ball(t, Ball((0.3, 0.3, 0.0), r))
            assert 0.0 <= got <= a + 1e-15

    def test_degenerate_triangle_measures_zero(self):
        t = tri((0, 0, 0), (1, 1, 1), (2, 2, 2))
        assert triangle_area(t) == 0.0
        assert clip_area_in_ball(t, Ball((0, 0, 0), 5.0)) == 0.0

    def test_dimension_mismatch_rejected(self):
        t = tri((0, 0, 0), (1, 0, 0), (0, 1, 0))
        with pytest.raises(InputInconsistentError):
            clip_area_in_ball(t, Ball((0.0, 0.0, 0.0, 0.0), 1.0))

    def test_four_dimensional_clip(self):
        # same in-plane disk geometry, embedded in R^4
        t = Triangle(
            np.array(
                [
                    [-20.0, -11.547, 0.0, 3.0],
                    [20.0, -11.547, 0.0, 3.0],
                    [0.0, 23.094, 0.0, 3.0],
                ]
            )
        )
        got = clip_area_in_ball(t, Ball((0.0, 0.0, 0.0, 3.0), 1.5))
        assert got == pytest.approx(math.pi * 1.5**2, rel=REL)

    def test_stack_total_matches_sum_of_singles(self):
        rng = np.random.default_rng(7)
        stack = rng.normal(size=(12, 3, 3))
        b = Ball((0.1, -0.2, 0.05), 1.1)
        total = clip_areas_total(stack, b)
        singles = sum(clip_area_in_ball(Triangle(v), b) for v in stack)
        assert total == pytest.approx(singles, abs=1e-12)

    def test_offset_ball_in_r4_cuts_a_disk_of_radius_rho(self):
        # large triangle in the plane x3 = 1, x4 = 0 of R^4; the centre sits
        # off that plane by h in both normal directions
        t = Triangle(
            np.array(
                [[-50.0, -30.0, 1.0, 0.0], [50.0, -30.0, 1.0, 0.0], [0.0, 60.0, 1.0, 0.0]]
            )
        )
        r, c3, c4 = 3.0, 0.4, -1.1
        h2 = (1.0 - c3) ** 2 + c4**2
        got = clip_area_in_ball(t, Ball((0.7, 2.0, c3, c4), r))
        assert got == pytest.approx(math.pi * (r * r - h2), rel=REL)

    @pytest.mark.parametrize("corner", [0.0, -0.0])
    @pytest.mark.parametrize("center", [0.0, -0.0])
    @pytest.mark.parametrize("h", [0.0, 0.6])
    def test_ball_at_a_vertex_cuts_a_sector(self, corner, center, h):
        # acute corner at the origin, opening angle atan2(12, 32); a corner
        # at -0.0 under a centre at +0.0 gives in-plane coordinates -0.0,
        # and atan2(0, -0.0) = pi would add a spurious half disk
        t = tri((corner, corner, corner), (40.0, 0.0, 0.0), (32.0, 12.0, 0.0))
        r = 1.0
        got = clip_area_in_ball(t, Ball((center, center, center + h), r))
        rho2 = r * r - h * h
        assert got == pytest.approx(0.5 * rho2 * math.atan2(12.0, 32.0), rel=REL)

    def test_ball_on_an_edge_with_signed_zeros_adds_no_half_disk(self):
        # the centre, given with signed zeros, is the midpoint of the edge
        # from (4, 0, 0) to (-4, 0, 0): a half disk, never a full one
        t = tri((4.0, -0.0, -0.0), (-4.0, 0.0, 0.0), (0.0, -6.0, -0.0))
        for center in [(-0.0, -0.0, -0.0), (0.0, 0.0, 0.0), (-0.0, 0.0, -0.0)]:
            got = clip_area_in_ball(t, Ball(center, 1.5))
            assert got == pytest.approx(0.5 * math.pi * 1.5**2, rel=REL)
        # centred on the edge's end vertex: a sector of that corner's angle
        got = clip_area_in_ball(t, Ball((-4.0, -0.0, 0.0), 1.0))
        assert got == pytest.approx(0.5 * math.atan2(6.0, 4.0), rel=REL)

    def test_edge_term_ignores_signed_zeros(self):
        # the fan (foot, A, B) with A on the foot has no area, whatever the
        # signs of A's zero coordinates; atan2(0, -0.0) = pi would give it a
        # half disk
        z = np.array([0.0, -0.0])
        for ax, ay in itertools.product(z, z):
            for bx, by in [(1.0, 0.0), (0.0, 1.0), (-1.0, -0.0), (2.0, 3.0)]:
                got = _edge_fan_areas(
                    np.array([ax]), np.array([ay]), np.array([bx]), np.array([by]), 0.25
                )
                assert got[0] == 0.0
                back = _edge_fan_areas(
                    np.array([bx]), np.array([by]), np.array([ax]), np.array([ay]), 0.25
                )
                assert back[0] == 0.0

    def test_sliver_just_above_the_degeneracy_floor_is_finite(self):
        # right-angled, so the Gram determinant eps^2 is exact: area eps / 2
        # is twice the floor times the squared diameter (1 + eps^2)
        eps = 4.0 * DEGENERATE_REL_TOL
        pts = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, eps, 0.0)]
        for shift in range(3):
            t = tri(*(pts[shift:] + pts[:shift]))
            area = triangle_area(t)
            assert area == pytest.approx(eps / 2.0, rel=1e-12)
            for center, r in [((0.5, 0.0, 0.0), 0.2), ((0.0, 0.0, 0.1), 0.3), ((1.2, 0.0, 0.0), 0.3)]:
                got = clip_area_in_ball(t, Ball(center, r))
                assert math.isfinite(got)
                assert 0.0 <= got <= area


class TestSubdivide:
    def test_preserves_total_area(self):
        rng = np.random.default_rng(3)
        stack = rng.normal(size=(5, 3, 3))
        fine = subdivide4(stack, levels=2)
        assert fine.shape == (80, 3, 3)
        assert float(triangle_areas(fine).sum()) == pytest.approx(
            float(triangle_areas(stack).sum()), rel=1e-12
        )

    def test_children_stay_aligned_with_parent_rows(self):
        stack = np.array(
            [
                [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
                [[5, 5, 0], [6, 5, 0], [5, 6, 0]],
            ],
            dtype=float,
        )
        fine = subdivide4(stack)
        # children of parent k land at rows k, K+k, 2K+k, 3K+k
        for k in range(2):
            for j in range(4):
                child = fine[j * 2 + k]
                assert triangle_areas(child[None])[0] == pytest.approx(0.125)
                # each child sits inside its parent's bounding box
                assert child.min() >= stack[k].min() - 1e-12
                assert child.max() <= stack[k].max() + 1e-12


class TestVertexTotalAngle:
    def fan(self, angles_deg, apex=(0.0, 0.0, 0.0)):
        """Star of triangles around the apex with the given sector widths."""
        apex = np.array(apex)
        tris = []
        acc = 0.0
        for w in angles_deg:
            a0 = math.radians(acc)
            a1 = math.radians(acc + w)
            p0 = apex + np.array([math.cos(a0), math.sin(a0), 0.0])
            p1 = apex + np.array([math.cos(a1), math.sin(a1), 0.0])
            tris.append(np.stack([apex, p0, p1]))
            acc += w
        return np.array(tris)

    def test_flat_interior_vertex_is_two_pi(self):
        star = self.fan([60] * 6)
        assert vertex_total_angle(star) == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_half_plane_fan_is_pi(self):
        star = self.fan([45] * 4)
        assert vertex_total_angle(star) == pytest.approx(math.pi, abs=1e-12)

    def test_quarter_fan_is_half_pi(self):
        star = self.fan([30, 60])
        # two triangles share the whole ray at 30 degrees; disambiguate
        assert vertex_total_angle(star, apex=(0.0, 0.0, 0.0)) == pytest.approx(
            math.pi / 2.0, abs=1e-12
        )

    def test_two_triangle_star_needs_explicit_apex(self):
        # both triangles share a whole edge, so the common vertex is ambiguous
        a = np.array([0.0, 0.0, 0.0])
        b = np.array([1.0, 0.0, 0.0])
        star = np.array(
            [
                np.stack([a, b, np.array([0.5, 1.0, 0.0])]),
                np.stack([a, b, np.array([0.5, -1.0, 0.0])]),
            ]
        )
        got = vertex_total_angle(star, apex=a)
        want = 2.0 * math.atan2(1.0, 0.5)
        assert got == pytest.approx(want, abs=1e-12)

    def test_cone_vertex_angle_deficit(self):
        # six sectors tilted out of plane: total angle < 2*pi
        apex = np.zeros(3)
        tris = []
        for i in range(6):
            a0 = 2.0 * math.pi * i / 6.0
            a1 = 2.0 * math.pi * (i + 1) / 6.0
            p0 = np.array([math.cos(a0), math.sin(a0), 1.0])
            p1 = np.array([math.cos(a1), math.sin(a1), 1.0])
            tris.append(np.stack([apex, p0, p1]))
        got = vertex_total_angle(np.array(tris))
        # each sector's apex angle: vectors at 60 degrees in-plane, lifted
        v0 = np.array([1.0, 0.0, 1.0])
        v1 = np.array([0.5, math.sqrt(3) / 2.0, 1.0])
        want = 6.0 * angle_between(v0, v1)
        assert got == pytest.approx(want, abs=1e-12)
        assert got < 2.0 * math.pi


class TestPointTriangleDistance:
    def test_projection_onto_interior(self):
        verts = np.array([[[0, 0, 0], [4, 0, 0], [0, 4, 0]]], dtype=float)
        d2 = point_triangle_dist2(verts, np.array([1.0, 1.0, 3.0]))
        assert d2[0] == pytest.approx(9.0, abs=1e-12)

    def test_closest_at_vertex(self):
        verts = np.array([[[0, 0, 0], [1, 0, 0], [0, 1, 0]]], dtype=float)
        d2 = point_triangle_dist2(verts, np.array([-3.0, -4.0, 0.0]))
        assert d2[0] == pytest.approx(25.0, abs=1e-12)

    def test_closest_on_edge(self):
        verts = np.array([[[0, 0, 0], [2, 0, 0], [1, 5, 0]]], dtype=float)
        d2 = point_triangle_dist2(verts, np.array([1.0, -2.0, 0.0]))
        assert d2[0] == pytest.approx(4.0, abs=1e-12)

    def test_point_inside_is_zero(self):
        verts = np.array([[[0, 0, 0], [2, 0, 0], [0, 2, 0]]], dtype=float)
        d2 = point_triangle_dist2(verts, np.array([0.5, 0.5, 0.0]))
        assert d2[0] == pytest.approx(0.0, abs=1e-15)


class TestScalarHelpers:
    def test_stable_sum_exact_on_decimal_fractions(self):
        assert stable_sum([0.1] * 10) == 1.0

    def test_stable_sum_cancellation(self):
        vals = [1e16, 1.0, -1e16]
        assert stable_sum(vals) == 1.0

    def test_angle_between_orthogonal(self):
        assert angle_between([1, 0, 0], [0, 1, 0]) == pytest.approx(math.pi / 2)

    def test_angle_between_near_parallel(self):
        got = angle_between([1.0, 0.0, 0.0], [1.0, 1e-9, 0.0])
        assert got == pytest.approx(1e-9, rel=1e-6)

    def test_angle_between_near_antiparallel(self):
        got = angle_between([1.0, 0.0, 0.0], [-1.0, 1e-9, 0.0])
        assert got == pytest.approx(math.pi - 1e-9, abs=1e-15)


class TestValidation:
    def test_ball_radius_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            Ball((0, 0, 0), 0.0)
        with pytest.raises(InvalidParameterError):
            Ball((0, 0, 0), -1.0)
        with pytest.raises(InvalidParameterError):
            Ball((0, 0, 0), math.nan)

    def test_triangle_needs_three_vertices(self):
        with pytest.raises(InvalidParameterError):
            Triangle(np.zeros((2, 3)))

    def test_triangle_needs_at_least_three_coordinates(self):
        with pytest.raises(InvalidParameterError):
            Triangle(np.zeros((3, 2)))
