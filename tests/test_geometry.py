"""Closed-form oracles for the clipping and angle primitives.

Every expected value here is computable by hand: full/empty overlaps,
in-plane disks, half and quarter disks at edges and corners, and flat
vertex stars whose cone angles are known exactly.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from surfcert import (
    Ball,
    FaceReach,
    InputInconsistentError,
    InvalidParameterError,
    SurfaceModel,
    angle_between,
    clip_areas_total,
    face_reach,
    point_triangle_dist2,
    stable_sum,
    subdivide4,
    triangle_areas,
)
from surfcert.geometry import DEGENERATE_REL_TOL, _edge_fan_areas, _straddling_areas, clip_areas

# the clip is exact up to rounding: closed forms agree to this relative error
REL = 1e-12


def tri(*pts) -> np.ndarray:
    """One triangle as a (3, n) array."""
    return np.array(pts, dtype=float)


def clip(t: np.ndarray, ball: Ball) -> float:
    """Area of one triangle inside a ball: the clip of a one-face stack."""
    return clip_areas_total(t[None], ball)


def live_area(t: np.ndarray) -> float:
    """Area of one triangle, 0.0 when `face_reach` counts it degenerate."""
    reach = face_reach(t[None], t[0])
    return float(reach.areas[0]) if reach.live[0] else 0.0


def big_triangle(side: float = 40.0) -> np.ndarray:
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
        got = clip(t, Ball((0.2, 0.2, 0.0), 100.0))
        assert got == pytest.approx(0.5, rel=1e-12)

    def test_triangle_fully_outside(self):
        t = tri((10, 0, 0), (11, 0, 0), (10, 1, 0))
        assert clip(t, Ball((0, 0, 0), 1.0)) == 0.0

    def test_small_ball_in_triangle_interior_is_a_disk(self):
        t = big_triangle()
        r = 1.5
        got = clip(t, Ball((0.0, 0.0, 0.0), r))
        assert got == pytest.approx(math.pi * r * r, rel=REL)

    def test_ball_on_edge_midpoint_is_a_half_disk(self):
        side = 40.0
        h = side * math.sqrt(3.0) / 2.0
        t = big_triangle(side)
        # midpoint of the bottom edge, well away from both endpoints
        center = (0.0, -h / 3.0, 0.0)
        r = 2.0
        got = clip(t, Ball(center, r))
        assert got == pytest.approx(math.pi * r * r / 2.0, rel=REL)

    def test_ball_at_right_angle_corner_is_a_quarter_disk(self):
        t = tri((0, 0, 0), (30, 0, 0), (0, 30, 0))
        r = 1.0
        got = clip(t, Ball((0.0, 0.0, 0.0), r))
        assert got == pytest.approx(math.pi * r * r / 4.0, rel=REL)

    def test_offset_plane_clips_to_smaller_disk(self):
        # ball center off the triangle plane: the slice is a disk of radius
        # sqrt(r^2 - d^2)
        t = big_triangle()
        r, d = 2.0, 1.2
        got = clip(t, Ball((0.0, 0.0, d), r))
        expect = math.pi * (r * r - d * d)
        assert got == pytest.approx(expect, rel=REL)

    def test_radius_monotone(self):
        t = tri((0, 0, 0), (3, 0, 0), (0, 2, 0))
        prev = 0.0
        for r in (0.2, 0.5, 1.0, 1.8, 2.6, 10.0):
            cur = clip(t, Ball((0.5, 0.4, 0.0), r))
            assert cur >= prev - REL * live_area(t)
            prev = cur
        assert prev == pytest.approx(live_area(t), rel=1e-12)

    def test_result_bounded_by_triangle_area(self):
        t = tri((0, 0, 0), (2, 0, 0), (0, 2, 0))
        a = live_area(t)
        for r in (0.1, 0.7, 1.3, 5.0):
            got = clip(t, Ball((0.3, 0.3, 0.0), r))
            assert 0.0 <= got <= a + 1e-15

    def test_degenerate_triangle_measures_zero(self):
        t = tri((0, 0, 0), (1, 1, 1), (2, 2, 2))
        assert live_area(t) == 0.0
        assert clip(t, Ball((0, 0, 0), 5.0)) == 0.0

    def test_dimension_mismatch_rejected(self):
        t = tri((0, 0, 0), (1, 0, 0), (0, 1, 0))
        with pytest.raises(InputInconsistentError):
            clip(t, Ball((0.0, 0.0, 0.0, 0.0), 1.0))

    def test_four_dimensional_clip(self):
        # same in-plane disk geometry, embedded in R^4
        t = tri((-20.0, -11.547, 0.0, 3.0), (20.0, -11.547, 0.0, 3.0), (0.0, 23.094, 0.0, 3.0))
        got = clip(t, Ball((0.0, 0.0, 0.0, 3.0), 1.5))
        assert got == pytest.approx(math.pi * 1.5**2, rel=REL)

    def test_stack_total_matches_sum_of_singles(self):
        rng = np.random.default_rng(7)
        stack = rng.normal(size=(12, 3, 3))
        b = Ball((0.1, -0.2, 0.05), 1.1)
        total = clip_areas_total(stack, b)
        singles = sum(clip(v, b) for v in stack)
        assert total == pytest.approx(singles, abs=1e-12)

    def test_offset_ball_in_r4_cuts_a_disk_of_radius_rho(self):
        # large triangle in the plane x3 = 1, x4 = 0 of R^4; the centre sits
        # off that plane by h in both normal directions
        t = tri((-50.0, -30.0, 1.0, 0.0), (50.0, -30.0, 1.0, 0.0), (0.0, 60.0, 1.0, 0.0))
        r, c3, c4 = 3.0, 0.4, -1.1
        h2 = (1.0 - c3) ** 2 + c4**2
        got = clip(t, Ball((0.7, 2.0, c3, c4), r))
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
        got = clip(t, Ball((center, center, center + h), r))
        rho2 = r * r - h * h
        assert got == pytest.approx(0.5 * rho2 * math.atan2(12.0, 32.0), rel=REL)

    def test_ball_on_an_edge_with_signed_zeros_adds_no_half_disk(self):
        # the centre, given with signed zeros, is the midpoint of the edge
        # from (4, 0, 0) to (-4, 0, 0): a half disk, never a full one
        t = tri((4.0, -0.0, -0.0), (-4.0, 0.0, 0.0), (0.0, -6.0, -0.0))
        for center in [(-0.0, -0.0, -0.0), (0.0, 0.0, 0.0), (-0.0, 0.0, -0.0)]:
            got = clip(t, Ball(center, 1.5))
            assert got == pytest.approx(0.5 * math.pi * 1.5**2, rel=REL)
        # centred on the edge's end vertex: a sector of that corner's angle
        got = clip(t, Ball((-4.0, -0.0, 0.0), 1.0))
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
        # right-angled: area eps / 2 is twice the floor times the squared
        # diameter (1 + eps^2)
        eps = 4.0 * DEGENERATE_REL_TOL
        pts = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, eps, 0.0)]
        for shift in range(3):
            t = tri(*(pts[shift:] + pts[:shift]))
            area = live_area(t)
            assert area == pytest.approx(eps / 2.0, rel=1e-12, abs=0.0)
            for center, r in [((0.5, 0.0, 0.0), 0.2), ((0.0, 0.0, 0.1), 0.3), ((1.2, 0.0, 0.0), 0.3)]:
                got = clip(t, Ball(center, r))
                assert math.isfinite(got)
                assert 0.0 <= got <= area


    def test_thin_isosceles_sliver_keeps_its_area(self):
        # the Gram determinant g11 g22 - g12^2 = 1/4 - 1/4 cancels to 0.0 here
        h = 4e-14
        area = pytest.approx(h / 2.0, rel=1e-12, abs=0.0)
        pts = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, h, 0.0)]
        for shift in range(3):
            t = tri(*(pts[shift:] + pts[:shift]))
            assert live_area(t) == area
            assert clip(t, Ball((0.5, 0.0, 0.0), 2.0)) == area
        lifted = np.array([[p + (0.0,) for p in pts]])
        assert triangle_areas(lifted)[0] == area


def assert_reach_reads_match(verts: np.ndarray, center, radii) -> FaceReach:
    """Clips read from a reach built with `radii` are bit-identical to the
    clips of no reach and to the closed form run at one radius with a
    scalar r^2, at each of `radii`, and a radius outside them raises;
    returns the reach."""
    reach = face_reach(verts, center, radii=radii)
    assert sorted(reach.clips) == sorted(set(radii))
    for r in radii:
        ball = Ball(center, r)
        got = clip_areas(verts, ball, reach)
        assert got.tobytes() == clip_areas(verts, ball).tobytes()
        assert clip_areas_total(verts, ball, reach) == clip_areas_total(verts, ball)
        r2 = r * r
        inside = reach.live & (reach.far2 <= r2)
        crossing = np.flatnonzero(reach.live & ~inside & (reach.near2 <= r2))
        want = np.where(inside, reach.areas, 0.0)
        want[crossing] = np.clip(
            _straddling_areas(verts[crossing] - reach.center, r2), 0.0, reach.areas[crossing]
        )
        assert got.tobytes() == want.tobytes()
    other = Ball(center, 1.5 * max(radii) + 1.0)
    for clip_at in (clip_areas, clip_areas_total):
        with pytest.raises(InputInconsistentError, match="not built for radius"):
            clip_at(verts, other, reach)
    return reach


# coordinates on a grid of eighths, so that squared distances are often exact
EIGHTHS = st.integers(-16, 16).map(lambda k: k / 8.0)


@st.composite
def stacks_with_dead_faces(draw):
    """(verts, centre): up to six faces in R^3 or R^4, then a face with a
    repeated vertex and a collinear one, both dead."""
    dim = draw(st.sampled_from([3, 4]))
    k = draw(st.integers(0, 6))
    pts = np.array(draw(st.lists(EIGHTHS, min_size=3 * k * dim + 3 * dim, max_size=3 * k * dim + 3 * dim)))
    faces = pts[: 3 * k * dim].reshape(k, 3, dim)
    p, q, c = pts[3 * k * dim :].reshape(3, dim)
    dead = np.array([[p, p, q], [p, 0.5 * (p + q), q]])
    return np.concatenate([faces, dead]), c


class TestReachAtManyRadii:
    """`face_reach(..., radii)` clips every radius in one closed-form call;
    reading a clip from it changes no bit of the result."""

    @settings(max_examples=150, deadline=None)
    @given(stack=stacks_with_dead_faces(), data=st.data())
    def test_clips_read_from_the_reach_are_the_clips_at_one_radius(self, stack, data):
        verts, center = stack
        reach = face_reach(verts, center)
        assert not reach.live[-2:].any()
        # spheres through a vertex (r^2 = far2) or touching a face
        # (r^2 = near2), the same nudged by an ulp, and a few more
        gates = np.concatenate([reach.far2, reach.near2])
        gates = np.sqrt(gates[gates > 0.0])
        pool = sorted({*gates, *np.nextafter(gates, 0.0), *np.nextafter(gates, np.inf), 0.3, 1.7})
        radii = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8, unique=True))
        # beyond every face the crossing set is empty
        radii.append(2.0 * math.sqrt(reach.far2.max()) + 1.0)
        assert_reach_reads_match(verts, center, radii)

    def test_spheres_through_a_vertex_and_tangent_to_a_face(self):
        # face 0 lies in the plane z = 1/2 over the centre; the nearest
        # corner of face 1 and the farthest of face 2 are at squared distance
        # 25/64 = 0.625^2; face 3 is dead. Every gate holds with equality:
        # r^2 = near2 for faces 0 (r = 1/2) and 1, r^2 = far2 for face 2
        verts = np.array(
            [
                [(-1.0, -1.0, 0.5), (1.0, -1.0, 0.5), (0.0, 1.0, 0.5)],
                [(0.375, 0.5, 0.0), (1.0, 0.5, 0.0), (1.0, 1.5, 0.0)],
                [(-0.375, -0.5, 0.0), (-0.375, 0.0, 0.0), (0.0, -0.5, 0.0)],
                [(0.0, 0.0, 2.0), (0.0, 0.0, 2.0), (1.0, 1.0, 2.0)],
            ]
        )
        reach = assert_reach_reads_match(verts, np.zeros(3), [0.25, 0.5, 0.625, 9.0])
        assert reach.near2[0] == 0.25
        assert reach.near2[1] == reach.far2[2] == 0.625**2 == 25 / 64
        assert reach.live.tolist() == [True, True, True, False]
        # a sphere touching a face at one point crosses it and clips no area
        _inside, crossing, part = reach.clips[0.5]
        assert crossing.tolist() == [0, 2] and part[0] == 0.0 < part[1]
        inside, crossing, part = reach.clips[0.625]
        assert inside.tolist() == [False, False, True, False]
        assert crossing.tolist() == [0, 1] and part[1] == 0.0
        assert clip_areas(verts, Ball(np.zeros(3), 0.625), reach)[2] == 0.5 * 0.375 * 0.5
        # below every face and beyond every face, nothing crosses
        assert reach.clips[0.25][1].size == 0 and reach.clips[9.0][1].size == 0

    def test_an_empty_stack_has_empty_clips(self):
        reach = assert_reach_reads_match(np.zeros((0, 3, 4)), np.zeros(4), [1.0, 2.0])
        assert reach.clips[1.0][1].size == 0

    def test_a_reach_built_with_radii_still_checks_its_centre_and_stack(self):
        tris = np.array([[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]] * 2)
        reach = face_reach(tris, (0.0, 0.0, 0.0), radii=[0.5])
        with pytest.raises(InputInconsistentError):
            clip_areas(tris, Ball((0.1, 0.0, 0.0), 0.5), reach)
        with pytest.raises(InputInconsistentError):
            clip_areas_total(tris[1:], Ball((0.0, 0.0, 0.0), 0.5), reach)
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InvalidParameterError):
                face_reach(tris, (0.0, 0.0, 0.0), radii=[0.5, bad])


class TestSubdivide:
    def test_preserves_total_area(self):
        rng = np.random.default_rng(3)
        stack = rng.normal(size=(5, 3, 3))
        fine = subdivide4(subdivide4(stack))
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


def fan(widths_deg, lift=0.0) -> SurfaceModel:
    """Apex 0 at the origin and unit rim vertices at the sector edges, lifted
    to height lift; sectors adding up to 360 degrees close the fan."""
    edges = np.radians(np.cumsum([0.0, *widths_deg]))
    k = len(widths_deg)
    if math.isclose(sum(widths_deg), 360.0):
        edges = edges[:-1]
    rim = np.stack([np.cos(edges), np.sin(edges), np.full(edges.size, lift)], axis=1)
    faces = [[0, 1 + i, 1 + (i + 1) % edges.size] for i in range(k)]
    return SurfaceModel.build(np.vstack([np.zeros(3), rim]), faces)


class TestVertexTotalAngle:
    """SurfaceModel.angle_sums at the apex of flat and tilted vertex stars
    whose cone angles are known exactly."""

    def test_flat_interior_vertex_is_two_pi(self):
        assert fan([60] * 6).angle_sums[0] == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_half_plane_fan_is_pi(self):
        assert fan([45] * 4).angle_sums[0] == pytest.approx(math.pi, abs=1e-12)

    def test_quarter_fan_is_half_pi(self):
        assert fan([30, 60]).angle_sums[0] == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_two_triangle_star_oriented_consistently(self):
        # both triangles contain the edge a -> b, run in opposite directions
        v = [[0.0, 0, 0], [1.0, 0, 0], [0.5, 1, 0], [0.5, -1, 0]]
        sums = SurfaceModel.build(v, [[0, 1, 2], [0, 3, 1]]).angle_sums
        want = 2.0 * math.atan2(1.0, 0.5)
        assert sums[0] == pytest.approx(want, abs=1e-12)
        assert sums[1] == pytest.approx(want, abs=1e-12)

    def test_cone_vertex_angle_deficit(self):
        # six sectors tilted out of plane: total angle < 2*pi
        got = fan([60] * 6, lift=1.0).angle_sums[0]
        # each sector's apex angle: vectors at 60 degrees in-plane, lifted
        v0 = np.array([1.0, 0.0, 1.0])
        v1 = np.array([0.5, math.sqrt(3) / 2.0, 1.0])
        assert got == pytest.approx(6.0 * angle_between(v0, v1), abs=1e-12)
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
            clip_areas_total(np.zeros((1, 2, 3)), Ball((0, 0, 0), 1.0))

    def test_triangle_needs_at_least_three_coordinates(self):
        with pytest.raises(InvalidParameterError):
            face_reach(np.zeros((1, 3, 2)), np.zeros(2))
