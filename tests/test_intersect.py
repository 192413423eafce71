"""Triangle-pair distances and the self-contact sweep.

Distance oracles are exact configurations: crossing triangles (zero),
parallel offset planes (the offset), nearest-vertex and nearest-edge
cases, and a pure fourth-coordinate offset in R^4. The broad phase is
checked against an O(F^2) enumeration of every face pair, and the
separating-axis reject against the exact distance of pairs built just inside
and just outside the tolerance. The projection certificate's signs are
checked against the same forms in rationals, and its refusals against meshes
it must not certify.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from surfcert import (
    SurfaceModel,
    boundary_polyline,
    build_scene,
    embeddedness_certificate,
    projected_embedding,
    self_intersections,
    triangle_pair_dist2,
)
from surfcert.geometry import _box_pairs, _disjoint_box_pairs
from surfcert.intersect import (
    SWEEP_REL_TOL,
    _decide,
    _orientations,
    _projected,
    _separated,
)


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
        # parallel sheets half the sweep tolerance apart touch in all four
        # overlapping pairs; twice the tolerance apart they are clean
        scale = float(np.hypot(2.0, 0.4))  # the sheets' bounding-box diagonal
        va = np.array([[-1, -0.2, 0], [1, -0.2, 0], [1, 0.2, 0], [-1, 0.2, 0]], float)
        f = np.array([[0, 1, 2], [0, 2, 3], [4, 5, 6], [4, 6, 7]])
        for gap, count in [(0.5, 4), (2.0, 0)]:
            vb = va + np.array([0.0, 0.0, gap * SWEEP_REL_TOL * scale])
            rep = self_intersections(SurfaceModel.build(np.vstack([va, vb]), f))
            assert rep.tolerance == pytest.approx(SWEEP_REL_TOL * scale, rel=1e-12)
            assert rep.count == count

    @pytest.mark.parametrize("factor", [1.0, 1e-20, 1e-35])
    def test_sweep_is_scale_invariant(self, factor):
        # a strip crossing two parallel strips 1e-5 apart, which is far more
        # than the tolerance at every scale: the same contacts and candidates
        # however small the mesh, with no absolute floor on the tolerance
        flat = sheet(3, 11, np.array([[1.0, 0, 0], [0, 0.2, 0]]), [0, 0, 0])
        lifted = flat + [0.0, 0.0, 1e-5]
        upright = sheet(3, 11, np.array([[1.0, 0, 0], [0, 0, 0.2]]), [0.05, 0.01, 0])
        f = grid_faces(3, 11)
        v = np.vstack([flat, lifted, upright]) * factor
        s = SurfaceModel.build(v, np.vstack([f, f + 33, f + 66]))
        rep = self_intersections(s)
        assert rep.tolerance == SWEEP_REL_TOL * s.scale
        unit = self_intersections(SurfaceModel.build(v / factor, s.faces))
        assert (rep.pairs, rep.count, rep.candidates) == (unit.pairs, unit.count, unit.candidates)
        assert 0 < rep.count < rep.candidates

    def test_max_reports_caps_the_listing_not_the_count(self):
        # two 20-cell strips crossing along the x axis: far more than 32
        # contacts, of which the first 32 are listed and all are counted
        a = sheet(2, 21, np.array([[1.0, 0, 0], [0, 0.2, 0]]), [0, 0, 0])
        b = sheet(2, 21, np.array([[1.0, 0, 0], [0, 0, 0.2]]), [0, 0, 0])
        f = grid_faces(2, 21)
        s = SurfaceModel.build(np.vstack([a, b]), np.vstack([f, f + 42]))
        assert_sweep_matches_oracle(s)
        rep = self_intersections(s)
        assert len(rep.pairs) == 32 < rep.count

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


def crossing_at_angle(theta: float) -> SurfaceModel:
    """T1 in the plane z = 0 and T2 through the line y = 0.3 at dihedral
    angle theta to it: they cross along the segment x in [0.225, 0.675] of
    that line, of length 0.45, so their distance is exactly 0."""
    c, s = math.cos(theta), math.sin(theta)
    v = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.3 - 0.3 * c, -0.3 * s],
            [0.45, 0.3 + 0.3 * c, 0.3 * s],
            [0.9, 0.3 - 0.3 * c, -0.3 * s],
        ]
    )
    return SurfaceModel.build(v, [[0, 1, 2], [3, 4, 5]])


class TestSmallDihedralAngle:
    """The narrow phase's blind spot (ROADMAP item 2), pinned until the
    exact narrow phase lands."""

    def test_crossing_at_a_moderate_angle_is_found(self):
        assert self_intersections(crossing_at_angle(1e-2)).count == 1

    @pytest.mark.xfail(
        strict=True,
        reason="the ridge in triangle_pair_dist2's normal equations moves the critical "
        "point off the crossing: the pair computes to 2.7e-8 apart at 1e-4 and 1.0e-7 "
        "at 1e-6, against the sweep tolerance 1.4e-9",
    )
    @pytest.mark.parametrize("theta", [1e-4, 1e-6])
    def test_crossing_at_a_small_angle_is_found(self, theta):
        assert self_intersections(crossing_at_angle(theta)).count == 1


def fan(rim) -> SurfaceModel:
    """A closed fan of triangles from a hub at the origin over the rim."""
    k = len(rim)
    faces = [[0, 1 + i, 1 + (i + 1) % k] for i in range(k)]
    return SurfaceModel.build(np.vstack([np.zeros(3), np.asarray(rim, float)]), faces)


# the shared-vertex witness of ROADMAP item 2: faces 0 and 2 cross along a
# segment that starts at the hub, which the sweep never pairs
HUB_RIM = [(2.5, -1.0, 0.0), (1.0, 0.0, -1.0), (3.0, 0.0, 1.0), (2.5, 1.0, 0.0)]


class TestSharedVertexBlindSpot:
    """The sweep never pairs faces that share a vertex (ROADMAP item 2), and
    the projection refuses the hub fan, so the crossing at its hub goes
    unseen; pinned until the sweep tests such pairs."""

    def fan_certificate(self):
        s = fan(HUB_RIM)
        return s, embeddedness_certificate(s, [boundary_polyline(s, 0)], math.inf, "full")

    def test_sweep_sees_no_candidate(self):
        s, cert = self.fan_certificate()
        assert self_intersections(s).candidates == 0
        assert cert.conclusion["embedding_method"] == "pair-sweep"
        assert cert.conclusion["max_interior_density"] == pytest.approx(0.512, abs=1e-3)

    @pytest.mark.xfail(
        strict=True,
        reason="faces 0 and 2 cross along a segment from the shared hub, and the sweep "
        "drops every pair that shares a vertex",
    )
    def test_crossing_at_the_hub_is_found(self):
        assert self.fan_certificate()[1].conclusion["intersection_free"] is False


def grid_faces(rows: int, cols: int) -> np.ndarray:
    """Consistently oriented triangles of a rows x cols vertex grid."""
    faces = []
    for i in range(rows - 1):
        for j in range(cols - 1):
            a, b, c, d = i * cols + j, i * cols + j + 1, (i + 1) * cols + j + 1, (i + 1) * cols + j
            faces += [[a, b, c], [a, c, d]]
    return np.array(faces)


def default_tol(s: SurfaceModel) -> float:
    return SWEEP_REL_TOL * s.scale


def candidate_pairs(s: SurfaceModel, tol: float) -> np.ndarray:
    """The sweep's broad phase: face pairs sharing no vertex whose
    tol-inflated boxes overlap."""
    tris = s.face_triangles()
    return _disjoint_box_pairs(tris.min(axis=1), tris.max(axis=1), tol, s.faces)


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
    got = candidate_pairs(s, tol)
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

    @pytest.mark.parametrize("dim", [9, 10])
    def test_crossing_sheets_beyond_eight_dimensions(self, dim):
        # the crossing sheets above, embedded in the first three of dim axes
        # and moved off the origin on the rest: ownership needs a bit per axis
        flat = sheet(9, 11, np.eye(dim)[:2], np.zeros(dim))
        tilted = sheet(7, 8, np.array([[0.6, 0.2, 0.5], [0.0, 0.5, -0.7]]) @ np.eye(dim)[:3], np.zeros(dim))
        shift = np.linspace(0.3, 2.0, dim - 3)
        v = np.vstack([flat, tilted])
        v[:, 3:] += shift
        f = grid_faces(9, 11)
        s = SurfaceModel.build(v, np.vstack([f, grid_faces(7, 8) + 99]))
        assert assert_sweep_matches_oracle(s).shape[0] > 0
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

    @pytest.mark.parametrize("count", [1, 2])
    def test_faces_many_times_larger_than_the_mesh(self, count):
        # tilted triangles 32 disk diameters across, crossing the disk and
        # each other: each box covers far more grid cells than there are
        # faces, and is tested against every box instead of being hashed
        s = build_scene("flat_disk", res=16).surface
        big = 16.0 * np.array(
            [[[-2.0, -2.0, -1.0], [2.0, -1.0, 1.5], [0.0, 2.0, -0.5]],
             [[-2.0, 1.5, 1.0], [1.5, 2.0, -1.5], [0.5, -2.0, 0.5]]]
        )[:count]
        v = np.vstack([s.vertices, big.reshape(-1, 3)])
        extra = s.n_vertices + np.arange(3 * count).reshape(count, 3)
        pairs = assert_sweep_matches_oracle(SurfaceModel.build(v, np.vstack([s.faces, extra])))
        assert (pairs[:, 1] >= s.n_faces).sum() > count

    def test_sheets_far_apart(self):
        # two small sheets 1e8 of their size apart on every axis: a single
        # linear key over the grid's cells would overflow int64
        a = sheet(5, 6, np.array([[1.0, 0.3, 0], [0, 0.5, 0.8]]), [0, 0, 0])
        b = a + 1e8
        f = grid_faces(5, 6)
        assert_sweep_matches_oracle(SurfaceModel.build(np.vstack([a, b]), np.vstack([f, f + 30])))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        nb=st.integers(min_value=1, max_value=40),
        dim=st.sampled_from([3, 4, 9, 10]),
    )
    def test_box_pairs_match_all_pairs(self, seed, nb, dim):
        # boxes from points to many times the spread, some far off: every
        # overlapping pair once, in lexicographic order
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-1.0, 1.0, size=(nb, dim)) * 10.0 ** rng.integers(0, 4, size=(nb, 1))
        hi = lo + rng.uniform(0.0, 1.0, size=(nb, dim)) * 10.0 ** rng.uniform(-3, 2, size=(nb, 1))
        pad = 10.0 ** rng.uniform(-12, -1)
        i, j = np.triu_indices(nb, 1)
        overlap = ~((lo[i] - pad > hi[j] + pad) | (lo[j] - pad > hi[i] + pad)).any(axis=1)
        got = _box_pairs(lo, hi, pad)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.stack([i[overlap], j[overlap]], axis=1))

    def test_box_pairs_where_rounding_swallows_the_pad(self):
        # three point boxes at 1 lose the pad to rounding, so the median
        # diagonal is 0; the cell is then 2 sqrt(n) pad, and the fourth box,
        # whose lower corner rounds to exactly 0, still gets a cell index
        pad = 1e-20
        lo = np.array([[1.0] * 3] * 3 + [[pad] * 3])
        hi = np.array([[1.0] * 3] * 3 + [[2.0] * 3])
        assert _box_pairs(lo, hi, pad).tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]


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
        pairs = candidate_pairs(s, tol)
        tris = s.face_triangles()
        assert _separated(tris[pairs[:, 0]], tris[pairs[:, 1]], tol).all()
        rep = self_intersections(s)
        assert rep.clean and rep.candidates == pairs.shape[0] > 0


def annulus_strip(angles, radii, lift=0.0) -> tuple[np.ndarray, np.ndarray]:
    """Vertices (angle-major) and faces of the strip over angles x radii,
    raised by lift per radian."""
    t, r = np.meshgrid(angles, radii, indexing="ij")
    v = np.stack([r * np.cos(t), r * np.sin(t), lift * t], axis=-1).reshape(-1, 3)
    w = len(radii)
    faces = []
    for i in range(len(angles) - 1):
        for j in range(w - 1):
            a, b = i * w + j, (i + 1) * w + j
            faces += [[a, b, b + 1], [a, b + 1, a + 1]]
    return v, np.array(faces)


def flat_c(gap: float, m: int = 24) -> SurfaceModel:
    """A flat annulus in z = 0 cut open at angle 0 into a "C": its two end
    caps are the segments y = +-gap/2, 1 <= x <= 2, gap apart."""
    v, f = annulus_strip(2.0 * math.pi * np.arange(m + 1) / m, [1.0, 1.5, 2.0])
    v[:3] = [[1.0, gap / 2, 0.0], [1.5, gap / 2, 0.0], [2.0, gap / 2, 0.0]]
    v[-3:] = [[1.0, -gap / 2, 0.0], [1.5, -gap / 2, 0.0], [2.0, -gap / 2, 0.0]]
    return SurfaceModel.build(v, f)


def exact_forms(P, a, b, c) -> tuple:
    """det and dot of P (b - a) and P (c - a), in rationals from the floats."""
    rows = [[Fraction(x) for x in row] for row in P]
    e = [Fraction(y) - Fraction(x) for x, y in zip(a, b)]
    f = [Fraction(y) - Fraction(x) for x, y in zip(a, c)]
    x = [sum(p * q for p, q in zip(row, e)) for row in rows]
    y = [sum(p * q for p, q in zip(row, f)) for row in rows]
    return x[0] * y[1] - x[1] * y[0], x[0] * y[0] + x[1] * y[1]


def near_perpendicular_faces(rng, dim, count, log_edge, log_offset, log_scale):
    """count faces whose edges lie within a tilt t (10^-20 to 1, per face) of
    the directions a, n: a in P's plane, n orthogonal to it, so each face's
    image has signed area about t |e| |f|. Returns P and the corner stacks."""
    basis = frame(rng, dim)
    P = basis[:2]
    shape = (count, 3)
    tilt = 10.0 ** rng.uniform(-20.0, 0.0, size=(count, 1))
    corners = []
    for _ in range(2):
        k = rng.normal(size=shape)
        length = 10.0 ** rng.uniform(log_edge, 0.0, size=(count, 1))
        corners.append(length * (k[:, :1] * basis[0] + k[:, 1:2] * basis[-1] + tilt * k[:, 2:] * basis[1]))
    scale = 10.0**log_scale
    a = rng.normal(size=(count, dim)) * 10.0**log_offset * scale
    return P, a, a + corners[0] * scale, a + corners[1] * scale


class TestProjectedEmbedding:
    """The projection certificate is exact: a decided sign is the sign of
    the exact rational form, and whatever it cannot show embedded, it
    refuses."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        dim=st.sampled_from([3, 4]),
        log_edge=st.floats(min_value=-8.0, max_value=0.0),
        log_offset=st.floats(min_value=-2.0, max_value=6.0),
        log_scale=st.floats(min_value=-30.0, max_value=0.0),
    )
    def test_decided_signs_are_exact(self, seed, dim, log_edge, log_offset, log_scale):
        rng = np.random.default_rng(seed)
        P, a, b, c = near_perpendicular_faces(rng, dim, 24, log_edge, log_offset, log_scale)
        det_sign = _orientations(P, a, b, c)
        (x, dx), (y, dy) = _projected(P, a, b), _projected(P, a, c)
        xx, yy = x[:, 0] * y[:, 0], x[:, 1] * y[:, 1]
        dot_sign = _decide(xx + yy, np.abs(xx) + np.abs(yy), x, y, dx, dy)
        for i in range(a.shape[0]):
            det, dot = exact_forms(P, a[i], b[i], c[i])
            if det_sign[i] != 0:
                assert det_sign[i] == (det > 0) - (det < 0)
            if dot_sign[i] != 0:
                assert dot_sign[i] == (dot > 0) - (dot < 0)

    @pytest.mark.parametrize("log_scale", [-30.0, 0.0, 20.0])
    def test_clear_signs_are_decided(self, log_scale):
        # a tilt of 1e-6 leaves an area far above the rounding bound, at any
        # scale and a million face sizes from the origin
        rng = np.random.default_rng(1)
        P, a, b, c = near_perpendicular_faces(rng, 3, 200, -8.0, 6.0, log_scale)
        e, f = (b - a) @ P.T, (c - a) @ P.T
        area = np.abs(e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0])
        clear = area > 1e-6 * np.abs(b - a).max(axis=1) * np.abs(c - a).max(axis=1)
        assert clear.sum() > 100
        assert np.all(_orientations(P, a, b, c)[clear] != 0)

    @pytest.mark.parametrize("name", ["flat_disk", "flat_sector", "graph_disk", "cap", "hemisphere", "enneper"])
    def test_disk_scenes_certify(self, name):
        s = build_scene(name, res=16).surface
        P = projected_embedding(s)
        assert P.shape == (2, 3)
        assert np.allclose(P @ P.T, np.eye(2))

    @pytest.mark.parametrize("name", ["branched_disk", "catenoid", "torus_minus_disk"])
    def test_other_scenes_are_refused(self, name):
        # a boundary winding twice, two boundary loops, and genus 1
        assert projected_embedding(build_scene(name, res=16).surface) is None

    @pytest.mark.parametrize("order", list(itertools.permutations([1, 2, 3])))
    def test_hub_fan_is_refused_in_every_rim_order(self, order):
        rim = [HUB_RIM[0]] + [HUB_RIM[i] for i in order]
        assert projected_embedding(fan(rim)) is None

    def test_vertex_dragged_past_its_ring_is_refused(self):
        disk = build_scene("flat_disk", res=16).surface
        v, f = disk.vertices.copy(), disk.faces
        i = 40
        ring = np.unique(f[(f == i).any(axis=1)])
        far = v[ring][np.argmax(np.linalg.norm(v[ring] - v[i], axis=1))]
        v[i] += 1.5 * (far - v[i])
        s = SurfaceModel.build(v, f)
        assert not self_intersections(s).clean
        assert projected_embedding(s) is None

    def test_closed_component_is_refused(self):
        # a disk plus a separate octahedron above it: one boundary loop, and
        # the two components are disjoint, but a closed surface cannot keep
        # one orientation on every face
        disk = build_scene("flat_disk", res=16).surface
        octa = 0.3 * np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], float)
        octa_faces = []
        for a, b in [(0, 2), (2, 1), (1, 3), (3, 0)]:
            octa_faces += [[4, a, b], [5, b, a]]
        s = SurfaceModel.build(
            np.vstack([disk.vertices, octa + [0.0, 0.0, 3.0]]),
            np.vstack([disk.faces, np.array(octa_faces) + disk.n_vertices]),
        )
        assert len(s.boundary_loops) == 1 and self_intersections(s).clean
        assert projected_embedding(s) is None

    def test_embedded_strip_with_overlapping_image_is_refused(self):
        # a ramp winding 1.5 times about the z axis: embedded, but its image
        # in the best-fit plane covers part of the annulus twice
        v, f = annulus_strip(np.linspace(0.0, 3.0 * math.pi, 61), [1.0, 1.5, 2.0], lift=0.15)
        s = SurfaceModel.build(v, f)
        assert len(s.boundary_loops) == 1 and self_intersections(s).clean
        assert projected_embedding(s) is None
        concl = embeddedness_certificate(s, [boundary_polyline(s, 0)], math.inf, "full").conclusion
        assert concl["embedding_method"] == "pair-sweep" and concl["projection_map"] is None
        assert concl["intersection_free"] is True

    def test_c_with_close_tips_is_embedded_but_within_sweep_tolerance(self):
        # the tips are half the sweep's tolerance apart: the projection shows
        # the surface exactly embedded, while the sweep counts the contact
        s = flat_c(0.5 * SWEEP_REL_TOL * float(np.hypot(4.0, 4.0)))
        assert s.scale == pytest.approx(np.hypot(4.0, 4.0))
        assert projected_embedding(s) is not None
        assert self_intersections(s).count > 0
        concl = embeddedness_certificate(s, [boundary_polyline(s, 0)], math.inf, "full").conclusion
        assert concl["embedding_method"] == "projection"
        assert concl["intersection_free"] is True and concl["intersection_count"] == 0

    def test_touching_tips_are_refused(self):
        s = flat_c(0.0)
        assert projected_embedding(s) is None
