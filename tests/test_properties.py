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
from hypothesis import example, given, settings, strategies as st

from surfcert import (
    Ball,
    PolylineCurve,
    ProjectionSingularError,
    ScalarField,
    build_scene,
    clip_areas_total,
    delta_for_epsilon,
    face_reach,
    lp_norm,
    m_profile,
    projection_bound_report,
    stable_sum,
    subdivide4,
    total_curvature,
    triangle_areas,
)
from surfcert.monotonicity import _clip_rounding_bounds

SETTINGS = settings(max_examples=40, deadline=None)

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)


@st.composite
def triangles(draw):
    return np.array([[draw(finite) for _ in range(3)] for _ in range(3)])


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


def clip(t: np.ndarray, ball: Ball) -> float:
    """Area of one (3, n) triangle inside a ball: the clip of a one-face stack."""
    return clip_areas_total(t[None], ball)


def live_area(t: np.ndarray) -> float:
    """Area of one triangle, 0.0 when `face_reach` counts it degenerate."""
    reach = face_reach(t[None], t[0])
    return float(reach.areas[0]) if reach.live[0] else 0.0


class TestClipProperties:
    @SETTINGS
    @given(t=triangles(), b=balls())
    def test_clip_stays_within_bounds(self, t, b):
        got = clip(t, b)
        area = live_area(t)
        assert -1e-12 <= got <= area * (1.0 + 1e-9) + 1e-12

    @SETTINGS
    @given(t=triangles(), b=balls(), factor=st.floats(min_value=1.1, max_value=4.0))
    def test_clip_monotone_in_radius(self, t, b, factor):
        small = clip(t, b)
        grown = clip(t, Ball(b.center, b.radius * factor))
        assert grown >= small - 1e-6 * max(live_area(t), 1e-9)

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
        t2 = t @ q.T + sh
        b2 = Ball(np.asarray(b.center) @ q.T + sh, b.radius)
        a1 = clip(t, b)
        a2 = clip(t2, b2)
        assert a2 == pytest.approx(a1, abs=2e-6 * max(live_area(t), 1.0))


ORACLE_LEVELS = 6  # 4**6 midpoint pieces per triangle
U = np.finfo(np.float64).eps / 2.0  # unit roundoff


class TestClipOracle:
    @SETTINGS
    @given(t=triangles(), b=balls())
    @example(t=np.array([[0, 1, 0], [0, 1, 1e-9], [0, 0, 1]]), b=Ball((0, 0, 0), 2.0))
    @example(t=np.array([[0, 0.8, 1], [0, 0, 2**-24], [0, 0, 0]]), b=Ball((0, 0, 0), 2.0))
    def test_clip_matches_subdivision_oracle(self, t, b):
        # independent oracle: midpoint pieces counted by where their centroid
        # falls. Every point of a piece lies within the piece's diameter of
        # its centroid, so a piece whose centroid is farther than that from
        # the sphere is classified right; the other pieces bound the error.
        got = clip(t, b)
        if live_area(t) == 0.0:
            assert got == 0.0
            return
        pieces = t[None]
        for _level in range(ORACLE_LEVELS):
            pieces = subdivide4(pieces)
        areas = triangle_areas(pieces)
        dist = np.linalg.norm(pieces.mean(axis=1) - b.center, axis=1)
        edges = np.linalg.norm(pieces - np.roll(pieces, 1, axis=1), axis=2)
        diam = edges.max(axis=1)
        oracle = stable_sum(areas[dist <= b.radius].tolist())
        unsure = stable_sum(areas[np.abs(dist - b.radius) <= diam].tolist())
        # Rounding of both sides, to first order in the unit roundoff u:
        # - the clip is within `_clip_rounding_bounds` of the exact area;
        # - each subdivision level rounds a midpoint coordinate by at most
        #   u M, M the largest |coordinate| of t, so the pieces' vertices are
        #   within delta = ORACLE_LEVELS u |M| of the exact subdivision's,
        #   which tiles t; a piece's area is Lipschitz in each vertex with
        #   half the opposite edge as constant, so it moves by at most delta
        #   times half the perimeter;
        # - `triangle_areas` is within (3 + n^2 / 8) u L^2 of a piece's area,
        #   L its longest edge;
        # - the piece errors reach both oracle and unsure, so they count
        #   twice, and each error-free sum adds u relative.
        # A piece's points lie within 2L/3 of its centroid, so the
        # classification by L = diam keeps L/3 of margin for rounding.
        n = t.shape[1]
        delta = ORACLE_LEVELS * U * np.linalg.norm(np.abs(t).max(axis=0))
        per_piece = (3.0 + n * n / 8.0) * U * diam**2 + delta * edges.sum(axis=1) / 2.0
        reach = face_reach(t[None], b.center)
        bound = (
            _clip_rounding_bounds(reach, reach.near2, [b.radius])[0]
            + 2.0 * stable_sum(per_piece.tolist())
            + U * (oracle + unsure)
        )
        assert abs(got - oracle) <= unsure + bound


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
        f = ScalarField(base, clean)
        g = ScalarField(base + bump, clean)
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
        # far beyond the rim the disk plus its exterior cone is exactly the
        # cone over the rim: m = pi * (cone density) = pi, and math.pi is
        # within u pi of pi
        disk = build_scene("flat_disk", res=16)
        prof = m_profile(disk.surface, disk.boundaries, (x, y, 0.0), radii=(8.0,))
        assert abs(prof.m_values[0] - math.pi) <= prof.m_errors[0] + U * math.pi
