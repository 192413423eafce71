"""Triangle-pair distances and the self-contact sweep.

Distance oracles are exact configurations: crossing triangles (zero),
parallel offset planes (the offset), nearest-vertex and nearest-edge
cases, and a pure fourth-coordinate offset in R^4. The broad phase is
checked against an O(F^2) enumeration of every face pair, and the
separating-axis reject against the exact distance of pairs built just inside
and just outside the tolerance.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from surfcert import SurfaceModel, build_scene, self_intersections, triangle_pair_dist2
from surfcert.intersect import _candidate_pairs, _separated


def pair(t1, t2):
    a = np.array(t1, dtype=float)[None]
    b = np.array(t2, dtype=float)[None]
    return float(triangle_pair_dist2(a, b)[0])


class TestPairDistance:
    def test_crossing_triangles_touch(self):
        d2 = pair(
            [[-1, -1, 0], [1, -1, 0], [0, 2, 0]],
            [[0, 0, -1], [0, 0, 1], [0, 3, 0]],
        )
        assert d2 == pytest.approx(0.0, abs=1e-12)

    def test_parallel_planes_measure_offset(self):
        d2 = pair(
            [[0, 0, 0], [2, 0, 0], [0, 2, 0]],
            [[0, 0, 0.5], [2, 0, 0.5], [0, 2, 0.5]],
        )
        assert d2 == pytest.approx(0.25, abs=1e-12)

    def test_vertex_to_face_distance(self):
        d2 = pair(
            [[-2, -2, 0], [2, -2, 0], [0, 3, 0]],
            [[0.1, 0.1, 0.3], [1, 1, 1], [1, 0, 1]],
        )
        assert d2 == pytest.approx(0.09, abs=1e-12)

    def test_edge_pierces_face(self):
        d2 = pair(
            [[-2, -2, 0], [2, -2, 0], [0, 3, 0]],
            [[0, 0, -1], [0.2, 0.1, 1], [3, 3, 2]],
        )
        assert d2 == pytest.approx(0.0, abs=1e-10)

    def test_offset_in_fourth_coordinate(self):
        d2 = pair(
            [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]],
            [[0, 0, 0, 0.7], [1, 0, 0, 0.7], [0, 1, 0, 0.7]],
        )
        assert d2 == pytest.approx(0.49, abs=1e-12)

    def test_symmetry(self):
        t1 = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        t2 = [[3, 1, 2], [4, 1, 2], [3, 2, 2]]
        assert pair(t1, t2) == pytest.approx(pair(t2, t1), abs=1e-12)


class TestSelfContactSweep:
    def plus_sign(self) -> SurfaceModel:
        # two rectangular sheets crossing along the x axis
        va = np.array([[-1, -0.2, 0], [1, -0.2, 0], [1, 0.2, 0], [-1, 0.2, 0]], float)
        vb = np.array([[-1, 0, -0.2], [1, 0, -0.2], [1, 0, 0.2], [-1, 0, 0.2]], float)
        v = np.vstack([va, vb])
        f = np.array([[0, 1, 2], [0, 2, 3], [4, 5, 6], [4, 6, 7]])
        return SurfaceModel.build(v, f)

    def test_crossing_sheets_report_all_four_pairs(self):
        rep = self_intersections(self.plus_sign())
        assert not rep.clean
        assert rep.count == 4
        assert rep.pairs == ((0, 2), (0, 3), (1, 2), (1, 3))

    def test_separated_sheets_are_clean(self):
        va = np.array([[-1, -0.2, 0], [1, -0.2, 0], [1, 0.2, 0], [-1, 0.2, 0]], float)
        vb = va + np.array([0.0, 0.0, 1.0])
        v = np.vstack([va, vb])
        f = np.array([[0, 1, 2], [0, 2, 3], [4, 5, 6], [4, 6, 7]])
        rep = self_intersections(SurfaceModel.build(v, f))
        assert rep.clean
        assert rep.count == 0

    def test_adjacent_faces_do_not_count_as_contact(self):
        # a quad split along its diagonal touches itself along that edge
        v = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float)
        f = np.array([[0, 1, 2], [0, 2, 3]])
        rep = self_intersections(SurfaceModel.build(v, f))
        assert rep.clean

    def test_tolerance_widens_the_net(self):
        # sheets 0.05 apart: clean at the default tolerance, flagged at 0.1
        va = np.array([[-1, -0.2, 0], [1, -0.2, 0], [1, 0.2, 0], [-1, 0.2, 0]], float)
        vb = va + np.array([0.0, 0.0, 0.05])
        v = np.vstack([va, vb])
        f = np.array([[0, 1, 2], [0, 2, 3], [4, 5, 6], [4, 6, 7]])
        s = SurfaceModel.build(v, f)
        assert self_intersections(s).clean
        assert not self_intersections(s, tol=0.1).clean

    def test_max_reports_caps_the_listing_not_the_count(self):
        rep = self_intersections(self.plus_sign(), max_reports=2)
        assert len(rep.pairs) == 2
        assert rep.count == 4

    @pytest.mark.parametrize("name", ["flat_disk", "cap", "catenoid"])
    def test_catalog_surfaces_are_embedded(self, name):
        scene = build_scene(name, res=32)
        rep = self_intersections(scene.surface)
        assert rep.clean, rep.pairs

    def test_four_dimensional_sweep(self):
        # crossing sheets separated only in the fourth coordinate: clean
        va = np.array(
            [[-1, -0.2, 0, 0], [1, -0.2, 0, 0], [1, 0.2, 0, 0], [-1, 0.2, 0, 0]], float
        )
        vb = np.array(
            [[-1, 0, -0.2, 1], [1, 0, -0.2, 1], [1, 0, 0.2, 1], [-1, 0, 0.2, 1]], float
        )
        v = np.vstack([va, vb])
        f = np.array([[0, 1, 2], [0, 2, 3], [4, 5, 6], [4, 6, 7]])
        rep = self_intersections(SurfaceModel.build(v, f))
        assert rep.clean


def grid_faces(rows: int, cols: int) -> np.ndarray:
    """Consistently oriented triangles of a rows x cols vertex grid."""
    faces = []
    for i in range(rows - 1):
        for j in range(cols - 1):
            a, b, c, d = i * cols + j, i * cols + j + 1, (i + 1) * cols + j + 1, (i + 1) * cols + j
            faces += [[a, b, c], [a, c, d]]
    return np.array(faces)


def default_tol(s: SurfaceModel) -> float:
    return 1e-9 * s.scale


def oracle_pairs(s: SurfaceModel, tol: float) -> np.ndarray:
    """Every pair i < j sharing no vertex whose tol-inflated boxes overlap."""
    tris = s.face_triangles()
    lo, hi = tris.min(axis=1) - tol, tris.max(axis=1) + tol
    i, j = np.triu_indices(s.n_faces, 1)
    overlap = ~((lo[i] > hi[j]).any(axis=1) | (lo[j] > hi[i]).any(axis=1))
    shared = (s.faces[i][:, :, None] == s.faces[j][:, None, :]).any(axis=(1, 2))
    keep = overlap & ~shared
    return np.stack([i[keep], j[keep]], axis=1)


def assert_sweep_matches_oracle(s: SurfaceModel) -> np.ndarray:
    tol = default_tol(s)
    expected = oracle_pairs(s, tol)
    got = _candidate_pairs(s, tol)
    assert got.dtype == np.int64 and got.shape == expected.shape
    assert np.array_equal(got, expected)
    tris = s.face_triangles()
    d2 = triangle_pair_dist2(tris[expected[:, 0]], tris[expected[:, 1]])
    hits = expected[d2 <= tol * tol]
    rep = self_intersections(s)
    assert rep.candidates == expected.shape[0]
    assert rep.count == hits.shape[0]
    assert rep.pairs == tuple(map(tuple, hits[:32].tolist()))
    return expected


def sheet(rows: int, cols: int, frame: np.ndarray, origin) -> np.ndarray:
    """Grid vertices over [-1, 1]^2 placed by the two rows of frame."""
    u, w = np.meshgrid(np.linspace(-1, 1, cols), np.linspace(-1, 1, rows))
    return np.stack([u.ravel(), w.ravel()], axis=1) @ frame + np.asarray(origin, float)


class TestBroadPhaseOracle:
    """The candidate set is exactly the oracle's, in lexicographic order."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rows=st.integers(min_value=2, max_value=6),
        cols=st.integers(min_value=2, max_value=6),
        dim=st.sampled_from([3, 4]),
        spread=st.sampled_from([0.05, 1.0, 30.0]),
    )
    def test_random_meshes(self, seed, rows, cols, dim, spread):
        rng = np.random.default_rng(seed)
        v = rng.uniform(-spread, spread, size=(rows * cols, dim))
        assert_sweep_matches_oracle(SurfaceModel.build(v, grid_faces(rows, cols)))

    def test_plus_sign_sheets(self):
        s = TestSelfContactSweep().plus_sign()
        assert assert_sweep_matches_oracle(s).tolist() == [[0, 2], [0, 3], [1, 2], [1, 3]]

    def test_crossing_sheets(self):
        flat = sheet(9, 11, np.array([[1.0, 0, 0], [0, 1.0, 0]]), [0, 0, 0])
        tilted = sheet(7, 8, np.array([[0.6, 0.2, 0.5], [0.0, 0.5, -0.7]]), [0.1, -0.2, 0.0])
        f = grid_faces(9, 11)
        s = SurfaceModel.build(np.vstack([flat, tilted]), np.vstack([f, grid_faces(7, 8) + 99]))
        assert_sweep_matches_oracle(s)
        assert not self_intersections(s).clean

    @pytest.mark.parametrize("cells", [5, 20, 60])
    def test_faces_pulled_many_cells_out_of_plane(self, cells):
        s = build_scene("flat_disk", res=16).surface
        tris = s.face_triangles()
        cell = float(np.median(np.linalg.norm(tris.max(axis=1) - tris.min(axis=1), axis=1)))
        v = s.vertices.copy()
        v[[5, s.n_vertices // 2], 2] = [cells * cell, -cells * cell]
        assert_sweep_matches_oracle(SurfaceModel.build(v, s.faces))

    def test_all_faces_in_one_cell(self):
        # a crumpled strip whose every face spans the whole width in x: the
        # median box diagonal exceeds the extent, so every box falls in the
        # cell at the origin
        rng = np.random.default_rng(5)
        v = rng.uniform(0.001, 0.3, size=(24, 3))
        v[:, 0] = np.where(np.arange(24) % 2 == 0, 0.001, 0.999)
        s = SurfaceModel.build(v, grid_faces(12, 2))
        tris = s.face_triangles()
        tol = default_tol(s)
        lo, hi = tris.min(axis=1) - tol, tris.max(axis=1) + tol
        cell = float(np.median(np.linalg.norm(hi - lo, axis=1)))
        assert (np.floor(lo / cell) == 0).all() and (np.floor(hi / cell) == 0).all()
        assert assert_sweep_matches_oracle(s).shape[0] > 0

    @pytest.mark.parametrize("name", ["branched_disk", "hemisphere", "torus_minus_disk"])
    def test_catalog_scenes(self, name):
        assert_sweep_matches_oracle(build_scene(name, res=16).surface)


def frame(rng, dim: int) -> np.ndarray:
    """A random orthonormal basis, one vector per row."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return (q * np.sign(np.diag(r))).T


def near_pair(rng, dim: int, kind: str, shape: str, d: float):
    """Two unit-sized triangles at exact distance d, in local coordinates:
    x, y in-plane, z normal, w = 0 in R^4.

    shape pulls one triangle's third vertex toward a point of its first edge,
    which keeps it in the half-space that fixes the distance: "sliver" by a
    factor 1e-12 to 1e-3, "collinear" all the way onto the edge.
    """
    a, b = rng.uniform(0.5, 1.5, size=2)
    eps = {"plain": 1.0, "sliver": 10.0 ** rng.uniform(-12, -3), "collinear": 0.0}[shape]

    def bend(tri):
        foot = tri[0] + rng.uniform(0.2, 0.8) * (tri[1] - tri[0])
        tri[2] = foot + eps * (tri[2] - foot)
        return tri

    if kind == "vertex-face":
        # t2's first vertex sits d above an interior point of t1; t2 rises
        t1 = np.array([[-a, -a, 0.0], [b, -a, 0.0], [0.0, b, 0.0]])
        p = np.array([rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1), d])
        t2 = bend(np.array([p, p + [1.0, 0.0, 0.5], p + [0.0, 1.0, 0.7]]))
    elif kind == "edge-edge":
        # t1 leans down from the x axis, t2 up from the line x = 0, z = d
        t1 = np.array([[-a, 0.0, 0.0], [b, 0.0, 0.0], [0.2, -a, -0.5]])
        t2 = bend(np.array([[0.0, -b, d], [0.0, a, d], [0.3, 0.2, d + 0.8]]))
    elif kind == "parallel":
        # t2 is t1 shrunk about its centroid and lifted by d
        t1 = bend(np.array([[-a, 0.0, 0.0], [b, 0.0, 0.0], [0.2, -a, 0.0]]))
        c = t1.mean(axis=0)
        t2 = c + 0.7 * (t1 - c) + [0.0, 0.0, d]
    else:  # "coplanar-gap": t1 lies in x <= b, t2 in x >= b + d, edges facing
        t1 = bend(np.array([[b, -a, 0.0], [b, a, 0.0], [-b, 0.0, 0.0]]))
        t2 = np.array([[b + d, 0.5 * a, 0.0], [b + d, -0.5 * a, 0.0], [b + d + 1.0, 0.0, 0.0]])
    pad = np.zeros((3, dim - 3))
    return np.hstack([t1, pad]), np.hstack([t2, pad])


class TestSeparatingAxisReject:
    """A rejected pair is always farther apart than tol by the exact distance
    the narrow phase computes, whatever the frame, scale or position."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        dim=st.sampled_from([3, 4]),
        kind=st.sampled_from(["vertex-face", "edge-edge", "parallel", "coplanar-gap"]),
        shape=st.sampled_from(["plain", "sliver", "collinear"]),
        side=st.sampled_from([-1.0, 1.0]),
        log_scale=st.floats(min_value=-3.0, max_value=3.0),
        log_tol=st.floats(min_value=-5.0, max_value=-2.0),
        log_shift=st.floats(min_value=-1.0, max_value=6.0),
    )
    def test_rejected_pairs_are_farther_than_tol(
        self, seed, dim, kind, shape, side, log_scale, log_tol, log_shift
    ):
        rng = np.random.default_rng(seed)
        scale, tol = 10.0**log_scale, 10.0 ** (log_scale + log_tol)
        t1, t2 = near_pair(rng, dim, kind, shape, tol / scale * (1.0 + side * 1e-3))
        basis = frame(rng, dim)
        shift = rng.normal(size=dim) * scale * 10.0**log_shift
        t1, t2 = (t @ basis * scale + shift for t in (t1, t2))
        rejected = bool(_separated(t1[None], t2[None], tol)[0])
        d2 = float(triangle_pair_dist2(t1[None], t2[None])[0])
        if rejected:
            assert d2 > tol * tol
        if side < 0:
            assert d2 <= tol * tol and not rejected

    @pytest.mark.parametrize("scale", [2.0**-500, 1.0, 2.0**500])
    @pytest.mark.parametrize("dim", [3, 4])
    def test_rejects_just_beyond_tol(self, scale, dim):
        # the separating axis sees a gap of d to within a few ulps, far inside
        # the 1e-3 margin; 2^-500 and 2^500 scale the coordinates exactly
        tol = 2.0**-30 * scale
        for kind in ("vertex-face", "coplanar-gap"):
            if kind == "vertex-face" and dim == 4:
                continue  # no face normal in R^4
            for side, expected in ((1.0, True), (-1.0, False)):
                t1, t2 = near_pair(np.random.default_rng(0), dim, kind, "plain", 2.0**-30 * (1 + side * 1e-3))
                got = _separated(t1[None] * scale, t2[None] * scale, tol)
                assert got.tolist() == [expected]

    @pytest.mark.parametrize("seed", range(4))
    def test_slack_covers_the_rounding(self, seed):
        # a vertex over the interior of a face, rotated and shifted in
        # floating point: the exact distance is the apex's height over the
        # face's plane, in rationals. With tol rounded up from it the pair
        # must survive, though the computed gap may exceed tol by rounding
        rng = np.random.default_rng(seed)
        for _ in range(50):
            scale = 10.0 ** rng.uniform(-3, 3)
            d = 1e-9 * rng.uniform(0.5, 2.0)
            t1, t2 = near_pair(rng, 3, "vertex-face", "plain", d)
            shift = rng.normal(size=3) * scale * 10.0 ** rng.uniform(0, 6)
            t1, t2 = (t @ frame(rng, 3) * scale + shift for t in (t1, t2))
            a, b, c = ([Fraction(x) for x in v] for v in t1)
            e, f = [y - x for x, y in zip(a, b)], [y - x for x, y in zip(a, c)]
            nrm = [e[1] * f[2] - e[2] * f[1], e[2] * f[0] - e[0] * f[2], e[0] * f[1] - e[1] * f[0]]
            h = sum(k * (Fraction(x) - y) for k, x, y in zip(nrm, t2[0], a))
            dist2 = h * h / sum(k * k for k in nrm)
            tol = float(np.sqrt(float(dist2)))
            while Fraction(tol) ** 2 < dist2:
                tol = float(np.nextafter(tol, np.inf))
            assert _separated(t1[None], t2[None], tol).tolist() == [False]

    def test_faces_with_a_repeated_vertex_give_no_axis(self):
        # two segments far apart, each a face with a repeated vertex: every
        # axis is exactly zero, so nothing is rejected and nothing divides
        t1 = np.array([[[0.0, 0, 0], [1.0, 0, 0], [1.0, 0, 0]]])
        t2 = np.array([[[0.0, 5, 0], [0.0, 6, 0], [0.0, 6, 0]]])
        assert _separated(t1, t2, 1e-9).tolist() == [False]
        assert float(triangle_pair_dist2(t1, t2)[0]) == pytest.approx(25.0)

    def test_sweep_counts_broad_phase_candidates(self):
        # the reject drops every candidate of an embedded disk, and the report
        # still counts them
        s = build_scene("flat_disk", res=16).surface
        tol = default_tol(s)
        pairs = _candidate_pairs(s, tol)
        tris = s.face_triangles()
        assert _separated(tris[pairs[:, 0]], tris[pairs[:, 1]], tol).all()
        rep = self_intersections(s)
        assert rep.clean and rep.candidates == pairs.shape[0] > 0
