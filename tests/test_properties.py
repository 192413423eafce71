"""Property-based checks of the library's standing inequalities.

Strategy notes: closed polygons are generated star-shaped (sorted
angles, bounded radii, mild z perturbation) so simplicity holds by
construction and no example is filtered out. Geometric predicates get a
small numerical allowance; the structural inequalities (Fenchel, the
projection bound, weight monotonicity) are the actual subject.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from surfcert import (
    Ball,
    PolylineCurve,
    ProjectionSingularError,
    ScalarField,
    Triangle,
    build_scene,
    clip_area_in_ball,
    delta_for_epsilon,
    lp_norm,
    m_profile,
    projection_bound_report,
    stable_sum,
    subdivide4,
    total_curvature,
    triangle_area,
    triangle_areas,
)

SETTINGS = settings(max_examples=40, deadline=None)

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)


@st.composite
def triangles(draw):
    pts = np.array([[draw(finite) for _ in range(3)] for _ in range(3)])
    return Triangle(pts)


@st.composite
def balls(draw):
    center = [draw(finite) for _ in range(3)]
    radius = draw(st.floats(min_value=0.05, max_value=8.0))
    return Ball(center, radius)


@st.composite
def star_polygons(draw):
    """Simple closed polygon: star-shaped about the z axis by construction."""
    k = draw(st.integers(min_value=4, max_value=24))
    jitter = [draw(st.floats(min_value=0.05, max_value=0.95)) for _ in range(k)]
    base = 2.0 * math.pi * np.arange(k) / k
    ang = base + np.array(jitter) * (2.0 * math.pi / k)
    radii = np.array([draw(st.floats(min_value=0.5, max_value=1.5)) for _ in range(k)])
    z = np.array([draw(st.floats(min_value=-0.3, max_value=0.3)) for _ in range(k)])
    pts = np.stack([radii * np.cos(ang), radii * np.sin(ang), z], axis=1)
    return PolylineCurve(pts)


class TestClipProperties:
    @SETTINGS
    @given(t=triangles(), b=balls())
    def test_clip_stays_within_bounds(self, t, b):
        got = clip_area_in_ball(t, b)
        area = triangle_area(t)
        assert -1e-12 <= got <= area * (1.0 + 1e-9) + 1e-12

    @SETTINGS
    @given(t=triangles(), b=balls(), factor=st.floats(min_value=1.1, max_value=4.0))
    def test_clip_monotone_in_radius(self, t, b, factor):
        small = clip_area_in_ball(t, b)
        grown = clip_area_in_ball(t, Ball(b.center, b.radius * factor))
        assert grown >= small - 1e-6 * max(triangle_area(t), 1e-9)

    @SETTINGS
    @given(
        t=triangles(),
        b=balls(),
        seed=st.integers(min_value=0, max_value=2**31),
        shift=st.tuples(finite, finite, finite),
    )
    def test_clip_invariant_under_rigid_motion(self, t, b, seed, shift):
        q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        sh = np.asarray(shift)
        t2 = Triangle(t.vertices @ q.T + sh)
        b2 = Ball(np.asarray(b.center) @ q.T + sh, b.radius)
        a1 = clip_area_in_ball(t, b)
        a2 = clip_area_in_ball(t2, b2)
        assert a2 == pytest.approx(a1, abs=2e-6 * max(triangle_area(t), 1.0))


ORACLE_LEVELS = 6  # 4**6 midpoint pieces per triangle


class TestClipOracle:
    @SETTINGS
    @given(t=triangles(), b=balls())
    def test_clip_matches_subdivision_oracle(self, t, b):
        # independent oracle: midpoint pieces counted by where their centroid
        # falls. Every point of a piece lies within the piece's diameter of
        # its centroid, so a piece whose centroid is farther than that from
        # the sphere is classified right; the other pieces bound the error.
        got = clip_area_in_ball(t, b)
        if t.degenerate:
            assert got == 0.0
            return
        pieces = subdivide4(t.vertices[None], levels=ORACLE_LEVELS)
        areas = triangle_areas(pieces)
        dist = np.linalg.norm(pieces.mean(axis=1) - b.center, axis=1)
        diam = np.sqrt(
            np.max(((pieces - np.roll(pieces, 1, axis=1)) ** 2).sum(-1), axis=1)
        )
        oracle = float(areas[dist <= b.radius].sum())
        unsure = float(areas[np.abs(dist - b.radius) <= diam].sum())
        assert abs(got - oracle) <= unsure + 1e-12 * triangle_area(t)


class TestCurveProperties:
    @SETTINGS
    @given(c=star_polygons())
    def test_fenchel(self, c):
        assert total_curvature(c) >= 2.0 * math.pi - 1e-9

    @SETTINGS
    @given(
        c=star_polygons(),
        x=st.floats(min_value=-0.4, max_value=0.4),
        y=st.floats(min_value=-0.4, max_value=0.4),
        z=st.floats(min_value=-0.2, max_value=0.2),
    )
    def test_projection_never_beats_total_curvature(self, c, x, y, z):
        try:
            rep = projection_bound_report(c, (x, y, z))
        except ProjectionSingularError:
            return  # x0 landed on the curve itself; nothing to check
        assert rep.ok, (rep.slack, rep.bound, rep.projection_length)

    @SETTINGS
    @given(c=star_polygons(), idx=st.integers(min_value=0, max_value=10**6))
    def test_projection_bound_at_every_vertex(self, c, idx):
        x0 = c.vertices[idx % c.k]
        rep = projection_bound_report(c, x0)
        assert rep.mode == "boundary"
        assert rep.ok, (rep.slack, rep.theta)


class TestNormProperties:
    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        p=st.sampled_from([2.5, 3.0, 4.0, 8.0, 32.0]),
    )
    def test_lp_bounded_by_sup_times_area_share(self, seed, p):
        scene = build_scene("flat_disk", res=16)
        s = scene.surface
        rng = np.random.default_rng(seed)
        f = ScalarField(
            values=rng.uniform(0.0, 3.0, size=s.n_vertices),
            provenance="analytic",
            unreliable=np.zeros(s.n_vertices, dtype=bool),
        )
        area = float(s.face_areas.sum())
        assert lp_norm(f, s, p) <= lp_norm(f, s, math.inf) * area ** (1.0 / p) + 1e-12

    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_lp_nondecreasing_under_pointwise_domination(self, seed):
        scene = build_scene("flat_disk", res=16)
        s = scene.surface
        rng = np.random.default_rng(seed)
        base = rng.uniform(0.0, 2.0, size=s.n_vertices)
        bump = rng.uniform(0.0, 1.0, size=s.n_vertices)
        clean = np.zeros(s.n_vertices, dtype=bool)
        f = ScalarField(base, "analytic", clean)
        g = ScalarField(base + bump, "analytic", clean)
        for p in (3.0, math.inf):
            assert lp_norm(g, s, p) >= lp_norm(f, s, p) - 1e-12


@pytest.fixture(scope="module")
def cap_profile():
    cap = build_scene("cap", res=32)
    return m_profile(
        cap.surface, cap.boundaries, cap.default_x0, radii=(0.5, 1.0, 2.0, 4.0)
    )


class TestWeightProperties:
    @SETTINGS
    @given(extra=st.floats(min_value=0.0, max_value=2.0))
    def test_stronger_weight_keeps_monotonicity(self, cap_profile, extra):
        # if exp(lam r^a) m(r) is nondecreasing then so is the profile
        # reweighted with any lam' >= lam: the ratio of weights is itself
        # nondecreasing in r
        prof = cap_profile
        lam2 = prof.lam + extra
        w = [math.exp(lam2 * r**prof.alpha) * m for r, m in zip(prof.radii, prof.m_values)]
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
                assert w[j] - w[i] >= -prof.tol_disc * math.exp(
                    lam2 * prof.radii[j] ** prof.alpha
                )

    @SETTINGS
    @given(
        eps=st.floats(min_value=1e-3, max_value=2.0),
        alpha=st.floats(min_value=0.05, max_value=1.0),
        mode=st.sampled_from(["interior", "boundary", "class_P"]),
    )
    def test_delta_solution_is_strict_and_bounded(self, eps, alpha, mode):
        sol = delta_for_epsilon(eps, alpha, mode)
        assert 0.0 < sol.delta < 1.0
        assert sol.margin > 0.0


class TestSummation:
    @SETTINGS
    @given(
        vals=st.lists(
            st.floats(min_value=-1e12, max_value=1e12, allow_nan=False), min_size=1, max_size=50
        ),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_stable_sum_is_permutation_invariant(self, vals, seed):
        shuffled = list(vals)
        np.random.default_rng(seed).shuffle(shuffled)
        assert stable_sum(shuffled) == stable_sum(vals)


class TestLargeRadiusLimit:
    @given(
        x=st.floats(min_value=-0.5, max_value=0.5),
        y=st.floats(min_value=-0.5, max_value=0.5),
    )
    @settings(max_examples=8, deadline=None)
    def test_profile_tends_to_cone_value_on_flat_input(self, x, y):
        # far beyond the rim the disk plus its exterior cone looks exactly
        # like the cone over the rim: m -> pi * (cone density) = pi
        disk = build_scene("flat_disk", res=16)
        prof = m_profile(disk.surface, disk.boundaries, (x, y, 0.0), radii=(8.0,))
        assert prof.m_values[0] == pytest.approx(math.pi, rel=5e-3)
