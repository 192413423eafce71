"""Triangle-pair distances and the self-contact sweep.

Distance oracles are exact configurations: crossing triangles (zero),
parallel offset planes (the offset), nearest-vertex and nearest-edge
cases, and a pure fourth-coordinate offset in R^4. The broad phase is
checked against an O(F^2) enumeration of every face pair.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from surfcert import SurfaceModel, build_scene, self_intersections, triangle_pair_dist2
from surfcert.intersect import _candidate_pairs


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
