"""Mesh model invariants against closed-form sphere/disk/catenoid values.

Area oracles: pi for the unit disk, 2*pi*R^2*(1-cos(theta)) for a
spherical cap, 2*pi for the unit hemisphere. Curvature oracles: a sphere
of radius R has mean curvature 2/R and second-form norm sqrt(2)/R; the
catenoid is minimal. Discretization tolerances are set from the catalog
resolution (res 64 angular grid: relative area deficit about 4e-4).
"""

import math

import numpy as np
import pytest

from surfcert import (
    AnalyticPatch,
    Ball,
    InputInconsistentError,
    InvalidParameterError,
    SurfaceModel,
    UnsupportedOperationError,
    angle_between,
    boundary_distance,
    boundary_polyline,
    build_scene,
    catalog_names,
    clip_areas_total,
    curve_length,
    density_estimate,
    euler_characteristic,
    extrinsic_diameter,
    face_reach,
    genus,
    lp_norm,
    mean_curvature_field,
    nearest_vertex,
    second_form_sup,
    triangle_areas,
)
from surfcert.curves import build_cone
from surfcert.surfaces import strip_faces

MESH_REL = 2e-3  # area tolerance for res-64 catalog meshes


@pytest.fixture(scope="module")
def disk():
    return build_scene("flat_disk")


@pytest.fixture(scope="module")
def cap():
    return build_scene("cap")  # R=10, theta=0.1


@pytest.fixture(scope="module")
def hemisphere():
    return build_scene("hemisphere")


class TestAreas:
    def test_unit_disk_area(self, disk):
        assert float(disk.surface.face_areas.sum()) == pytest.approx(
            math.pi, rel=MESH_REL
        )

    def test_cap_area(self, cap):
        want = 2.0 * math.pi * 10.0**2 * (1.0 - math.cos(0.1))
        assert float(cap.surface.face_areas.sum()) == pytest.approx(want, rel=MESH_REL)

    def test_hemisphere_area(self, hemisphere):
        assert float(hemisphere.surface.face_areas.sum()) == pytest.approx(
            2.0 * math.pi, rel=2e-3
        )

    def test_area_in_ball_on_disk(self, disk):
        got = clip_areas_total(disk.surface.face_triangles(), Ball((0.0, 0.0, 0.0), 0.5))
        assert got == pytest.approx(math.pi * 0.25, rel=MESH_REL)

    def test_area_in_ball_radius_monotone(self, disk):
        tris = disk.surface.face_triangles()
        vals = [clip_areas_total(tris, Ball((0.0, 0.0, 0.0), r)) for r in (0.2, 0.4, 0.8)]
        assert vals[0] < vals[1] < vals[2]


class TestCurvature:
    def test_cap_mean_curvature_is_two_over_R(self, cap):
        f = mean_curvature_field(cap.surface)
        assert lp_norm(f, cap.surface, math.inf) == pytest.approx(0.2, rel=1e-9)

    def test_hemisphere_mean_curvature(self, hemisphere):
        f = mean_curvature_field(hemisphere.surface)
        assert lp_norm(f, hemisphere.surface, math.inf) == pytest.approx(2.0, rel=1e-9)

    def test_catenoid_is_minimal(self):
        cat = build_scene("catenoid")
        f = mean_curvature_field(cat.surface)
        assert lp_norm(f, cat.surface, math.inf) <= 1e-10

    def test_lp_norm_factorizes_for_constant_fields(self, cap):
        # |H| is constant on the sphere, so ||H||_p = |H| * area^(1/p); the
        # norm drops the area share of excluded samples (one vertex here),
        # hence the 5e-4 slack
        f = mean_curvature_field(cap.surface)
        area = float(cap.surface.face_areas.sum())
        for p in (3.0, 4.0, 8.0):
            assert lp_norm(f, cap.surface, p) == pytest.approx(
                0.2 * area ** (1.0 / p), rel=5e-4
            )

    def test_lp_norm_rejects_small_exponents(self, cap):
        f = mean_curvature_field(cap.surface)
        with pytest.raises(InvalidParameterError):
            lp_norm(f, cap.surface, 2.0)

    def test_second_form_sphere(self, cap):
        # sqrt(k1^2 + k2^2) = sqrt(2)/R
        assert second_form_sup(cap.surface) == pytest.approx(
            math.sqrt(2.0) / 10.0, rel=1e-9
        )

    @pytest.mark.parametrize("name", ["cap", "catenoid"])
    def test_second_form_samples_each_face_in_its_parameter_triangle(self, name, monkeypatch):
        # a face across the psi seam has vertex parameters near 2 pi and 0;
        # its midpoints and centroid must come from its own unwrapped triangle
        s = build_scene(name, res=16).surface
        seen = []
        kernel = AnalyticPatch.curvature_at

        def spy(patch, pts):
            seen.append(pts)
            return kernel(patch, pts)

        monkeypatch.setattr(AnalyticPatch, "curvature_at", spy)
        second_form_sup(s)
        (pts,) = seen
        assert np.array_equal(pts[: s.n_vertices], s.params)
        t = s.face_param_triangles()
        q = pts[s.n_vertices :].reshape(4, s.n_faces, 2) - t[:, 0]
        e1, e2 = t[:, 1] - t[:, 0], t[:, 2] - t[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        l1 = (q[..., 0] * e2[:, 1] - q[..., 1] * e2[:, 0]) / det
        l2 = (e1[:, 0] * q[..., 1] - e1[:, 1] * q[..., 0]) / det
        assert np.all(np.stack([l1, l2, 1.0 - l1 - l2]) >= -1e-12)

    def test_second_form_needs_patch(self, disk):
        bare = SurfaceModel.build(disk.surface.vertices, disk.surface.faces)
        with pytest.raises(UnsupportedOperationError):
            second_form_sup(bare)

    def test_discrete_mean_curvature_tracks_analytic(self, cap):
        # strip the patch: the cotangent estimate should land near 2/R on
        # interior vertices
        bare = SurfaceModel.build(cap.surface.vertices, cap.surface.faces)
        f = mean_curvature_field(bare)
        good = ~f.unreliable
        assert good.sum() > 100
        mid = np.median(f.values[good])
        assert mid == pytest.approx(0.2, rel=0.05)


class TestDensity:
    def test_disk_center_is_one(self, disk):
        est = density_estimate(disk.surface, (0.0, 0.0, 0.0))
        assert est.mode == "pl_exact"
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_disk_boundary_vertex_is_half(self, disk):
        loop = disk.surface.boundary_loops[0]
        x0 = disk.surface.vertices[loop[0]]
        est = density_estimate(disk.surface, x0)
        assert est.mode == "pl_exact"
        # a rim vertex of the polygonal disk sees exactly the interior angle
        # of the regular k-gon: (pi - 2*pi/k) / (2*pi)
        k = len(loop)
        want = 0.5 - 1.0 / k
        assert est.value == pytest.approx(want, abs=1e-12)
        assert est.value == pytest.approx(0.5, abs=2e-2)

    def test_off_vertex_point_extrapolates(self, disk):
        est = density_estimate(disk.surface, (0.013, 0.007, 0.0))
        assert est.mode == "extrapolated"
        assert est.value == pytest.approx(1.0, abs=5e-3)
        assert len(est.radii) == 3

    def test_forced_pl_exact_off_vertex_rejected(self, disk):
        with pytest.raises(InvalidParameterError):
            density_estimate(disk.surface, (0.013, 0.007, 0.0), mode="pl_exact")


class TestTopology:
    def test_disk_topology(self, disk):
        s = disk.surface
        assert euler_characteristic(s) == 1
        assert genus(s) == 0
        assert len(s.boundary_loops) == 1

    def test_cap_topology(self, cap):
        assert euler_characteristic(cap.surface) == 1
        assert genus(cap.surface) == 0

    def test_catenoid_has_two_loops(self):
        cat = build_scene("catenoid")
        assert len(cat.surface.boundary_loops) == 2
        assert euler_characteristic(cat.surface) == 0
        assert genus(cat.surface) == 0

    def test_torus_with_disk_removed(self):
        t = build_scene("torus_minus_disk")
        s = t.surface
        assert len(s.boundary_loops) == 1
        assert euler_characteristic(s) == -1
        assert genus(s) == 1

    def test_boundary_polyline_matches_loop(self, disk):
        c = boundary_polyline(disk.surface)
        loop = disk.surface.boundary_loops[0]
        assert c.k == len(loop)
        assert np.allclose(c.vertices, disk.surface.vertices[loop])
        # unit circle at res 64: length just under 2*pi
        assert curve_length(c) == pytest.approx(2.0 * math.pi, rel=1e-3)

    def test_boundary_polyline_bad_loop_index(self, disk):
        with pytest.raises(InvalidParameterError):
            boundary_polyline(disk.surface, loop_index=5)


class TestMetricQueries:
    def test_extrinsic_diameter_of_disk(self, disk):
        # the res-64 angular grid contains antipodal rim vertices
        assert extrinsic_diameter(disk.surface) == pytest.approx(2.0, abs=1e-12)

    def test_nearest_vertex(self, disk):
        idx, dist = nearest_vertex(disk.surface, (0.0, 0.0, 0.0))
        assert dist == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(disk.surface.vertices[idx], [0.0, 0.0, 0.0])

    def test_boundary_distance_from_center(self, disk):
        # nearest rim point of the polygonal circle
        d = boundary_distance(disk.surface, (0.0, 0.0, 0.0))
        assert d == pytest.approx(1.0, rel=2e-3)
        assert d <= 1.0


class TestMeshValidation:
    def tetra(self):
        v = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
            dtype=float,
        )
        f = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])
        return v, f

    def test_closed_tetrahedron_builds(self):
        v, f = self.tetra()
        s = SurfaceModel.build(v, f)
        assert euler_characteristic(s) == 2
        assert len(s.boundary_loops) == 0

    def test_face_index_out_of_range(self):
        v, f = self.tetra()
        f = f.copy()
        f[0, 0] = 9
        with pytest.raises(InputInconsistentError):
            SurfaceModel.build(v, f)

    def test_face_repeats_vertex(self):
        v, f = self.tetra()
        f = f.copy()
        f[0] = [1, 1, 2]
        with pytest.raises(InputInconsistentError):
            SurfaceModel.build(v, f)

    def test_inconsistent_orientation_rejected(self):
        v, f = self.tetra()
        f = f.copy()
        f[1] = f[1][::-1]  # flip one face: a directed edge now appears twice
        with pytest.raises(InputInconsistentError):
            SurfaceModel.build(v, f)

    def test_nonmanifold_edge_rejected(self):
        # three faces sharing one edge
        v = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]],
            dtype=float,
        )
        f = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
        with pytest.raises(InputInconsistentError):
            SurfaceModel.build(v, f)

    def test_nonfinite_vertices_rejected(self):
        v, f = self.tetra()
        v = v.copy()
        v[0, 0] = math.nan
        with pytest.raises(InvalidParameterError):
            SurfaceModel.build(v, f)

    @pytest.mark.parametrize("extent", [1e80, 1e100, 1e150, 1e160, 1e200, 1e308])
    def test_overflowing_areas_are_a_typed_error(self, extent):
        # the wedge-product areas overflow silently from about 1e77 and with
        # a numpy warning from about 1e154; the suite turns warnings into
        # errors, so only the typed error may come out
        v, f = self.tetra()
        with pytest.raises(InvalidParameterError):
            SurfaceModel.build(v * extent, f)

    def test_large_finite_areas_build_unchanged(self):
        v, f = self.tetra()
        s = SurfaceModel.build(v * 1e60, f)
        assert s.face_areas.tobytes() == triangle_areas((v * 1e60)[f]).tobytes()
        assert np.all(np.isfinite(s.face_areas))

    def test_coincident_vertices_make_angles_a_typed_error(self):
        # vertices 2 and 3 sit at the same point: face (1, 3, 2) has a
        # zero-length edge, so two of its corners have no angle
        v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1, 0]], dtype=float)
        s = SurfaceModel.build(v, [[0, 1, 2], [1, 3, 2]])
        assert face_reach(s.face_triangles(), v[0]).live.tolist() == [True, False]
        with pytest.raises(InvalidParameterError):
            s.angle_sums
        with pytest.raises(InvalidParameterError):
            density_estimate(s, v[2])


class TestDerivedData:
    """Quantities SurfaceModel computes once, against per-vertex and
    dict-built oracles."""

    @pytest.mark.parametrize("name", catalog_names())
    def test_angle_sums_match_each_vertex_star(self, name):
        s = build_scene(name, res=16).surface
        v, f = s.vertices, s.faces
        for vi in range(s.n_vertices):
            star = f[(f == vi).any(axis=1)]
            # roll each face of the star so that vi is its first corner
            star = np.array([np.roll(t, -int(np.flatnonzero(t == vi)[0])) for t in star])
            corners = [angle_between(v[b] - v[a], v[c] - v[a]) for a, b, c in star]
            assert s.angle_sums[vi] == pytest.approx(math.fsum(corners), rel=1e-12)

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("name", catalog_names())
    def test_corner_geometry_matches_a_per_corner_reference(self, name, dim):
        s = bare_in(build_scene(name, res=16).surface, dim)
        v, f = s.vertices, s.faces
        sums = np.zeros(s.n_vertices)
        for c in range(3):
            u, w = v[f[:, (c + 1) % 3]] - v[f[:, c]], v[f[:, (c + 2) % 3]] - v[f[:, c]]
            np.add.at(sums, f[:, c], [angle_between(a, b) for a, b in zip(u, w)])
        assert s.angle_sums.tobytes() == sums.tobytes()
        field = s.mean_curvature
        values, unreliable = per_corner_mean_curvature(s)
        assert field.values.tobytes() == values.tobytes()
        assert field.unreliable.tobytes() == unreliable.tobytes()

    @pytest.mark.parametrize("name", catalog_names())
    def test_boundary_face_corners_match_a_dict_oracle(self, name):
        s = build_scene(name, res=16).surface
        oracle = {}
        for fi, f in enumerate(s.faces.tolist()):
            for c in range(3):
                oracle[(f[c], f[(c + 1) % 3])] = (fi, c)
        expected = [
            oracle[e]
            for loop in s.boundary_loops
            for e in zip(loop.tolist(), np.roll(loop, -1).tolist())
        ]
        assert [tuple(fc) for fc in s.boundary_face_corners.tolist()] == expected

    @pytest.mark.parametrize("name", ["cap", "graph_disk"])
    def test_cached_once_and_read_only(self, name):
        analytic = build_scene(name, res=16).surface
        # the same mesh without its patch takes the discrete curvature path
        for s in (analytic, SurfaceModel.build(analytic.vertices, analytic.faces)):
            assert s.diameter is s.diameter
            assert extrinsic_diameter(s) is s.diameter
            assert s.angle_sums is s.angle_sums
            assert s.mean_curvature is s.mean_curvature
            field = mean_curvature_field(s)
            assert field is s.mean_curvature
            arrays = [s.angle_sums, field.values, field.unreliable]
            for a in arrays + [s.boundary_face_corners]:
                assert not a.flags.writeable


def bare_in(s: SurfaceModel, dim: int) -> SurfaceModel:
    """s without its patch, in R^dim: a fourth coordinate xy / 4 lifts an R^3
    mesh, and dropping coordinates lowers an R^4 one."""
    v = s.vertices
    if v.shape[1] < dim:
        v = np.concatenate([v, 0.25 * v[:, :1] * v[:, 1:2]], axis=1)
    return SurfaceModel.build(v[:, :dim], s.faces)


def per_corner_mean_curvature(s: SurfaceModel) -> tuple:
    """The discrete |H| and its unreliable mask, one corner column at a time,
    each cotangent weight scattered with np.add.at."""
    v, f = s.vertices, s.faces
    acc = np.zeros_like(v)
    sq_ext = float(((v.max(0) - v.min(0)) ** 2).sum())
    degenerate = np.zeros(s.n_vertices, dtype=bool)
    for c, (i, j) in ((0, (1, 2)), (1, (2, 0)), (2, (0, 1))):
        u, w = v[f[:, i]] - v[f[:, c]], v[f[:, j]] - v[f[:, c]]
        dot, uu, ww = (np.einsum("kn,kn->k", a, b) for a, b in ((u, w), (u, u), (w, w)))
        cross2 = np.maximum(uu * ww - dot * dot, 0.0)
        bad = cross2 <= 1e-28 * max(sq_ext, 1e-300) ** 2
        cot = np.where(bad, 0.0, dot / np.sqrt(np.where(bad, 1.0, cross2)))
        degenerate[f[bad].ravel()] = True
        contrib = 0.5 * cot[:, None] * (v[f[:, j]] - v[f[:, i]])
        np.add.at(acc, f[:, i], contrib)
        np.add.at(acc, f[:, j], -contrib)
    area = s.per_vertex_area
    tiny = area <= 1e-14 * max(sq_ext, 1e-300)
    unreliable = s.boundary_vertex_mask | tiny | degenerate
    hvec = np.where(unreliable[:, None], 0.0, -acc / np.where(tiny, 1.0, area)[:, None])
    return np.linalg.norm(hvec, axis=1), unreliable


def brute_diameter(v: np.ndarray) -> float:
    d2 = ((v[:, None, :] - v[None, :, :]) ** 2).sum(-1)
    return math.sqrt(float(d2.max()))


def strip(points) -> SurfaceModel:
    """A triangle strip through the points, in order, so that the mesh's
    vertices are exactly the point set."""
    n = len(points)
    faces = [[k, k + 1, k + 2] if k % 2 == 0 else [k + 1, k, k + 2] for k in range(n - 2)]
    return SurfaceModel.build(np.asarray(points, dtype=np.float64), faces)


class TestPrunedDiameter:
    """SurfaceModel.diameter equals the all-pairs maximum bit for bit."""

    @pytest.mark.parametrize("res", [16, 32])
    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_scenes(self, name, res):
        s = build_scene(name, res=res).surface
        assert s.diameter == brute_diameter(s.vertices)

    def test_every_point_coincident(self):
        s = strip(np.tile([[0.3, -1.2, 7.0]], (9, 1)))
        assert s.diameter == brute_diameter(s.vertices) == 0.0

    def test_collinear_points(self):
        rng = np.random.default_rng(3)
        t = rng.uniform(-2.0, 5.0, size=40)
        s = strip(np.outer(t, [0.3, -0.4, 1.1]) + [1.0, 2.0, 3.0])
        assert s.diameter == brute_diameter(s.vertices)

    def test_exactly_two_points(self):
        pts = np.array([[0.1, 0.2, 0.3], [-4.0, 1.5, 2.25]])
        s = strip(pts[np.arange(11) % 2])
        assert s.diameter == brute_diameter(s.vertices) == brute_diameter(pts)

    def test_points_on_a_sphere(self):
        # every rc is about equal, so the bound prunes nothing
        rng = np.random.default_rng(4)
        p = rng.normal(size=(300, 3))
        s = strip(p / np.linalg.norm(p, axis=1)[:, None])
        assert s.diameter == brute_diameter(s.vertices)

    def test_cloud_offset_by_a_million(self):
        rng = np.random.default_rng(6)
        s = strip(rng.uniform(-1.0, 1.0, size=(500, 3)) + 1e6)
        assert s.diameter == brute_diameter(s.vertices)

    def test_four_dimensional_cloud(self):
        rng = np.random.default_rng(7)
        s = strip(rng.normal(size=(500, 4)) * [1.0, 3.0, 0.5, 2.0])
        assert s.diameter == brute_diameter(s.vertices)


class TestStripFaces:
    """The one ring-strip triangulation behind every generated mesh."""

    def test_open_strip(self):
        # rings 0: 0 1 2 and 1: 3 4 5
        faces, ring, col = strip_faces(2, 3, periodic=False, apex=False)
        assert faces.tolist() == [[0, 3, 4], [0, 4, 1], [1, 4, 5], [1, 5, 2]]
        assert ring.tolist() == [[0, 1, 1], [0, 1, 0]] * 2
        assert col.tolist() == [[0, 0, 1], [0, 1, 1], [1, 1, 2], [1, 2, 2]]

    def test_periodic_strip_wraps_with_unwrapped_columns(self):
        faces, ring, col = strip_faces(2, 3, periodic=True, apex=False)
        assert faces.tolist() == [
            [0, 3, 4], [0, 4, 1], [1, 4, 5], [1, 5, 2], [2, 5, 3], [2, 3, 0]
        ]
        assert col[-2:].tolist() == [[2, 2, 3], [2, 3, 3]]

    def test_periodic_fan_comes_first(self):
        # apex 0, rings 1: 1 2 3 and 2: 4 5 6
        faces, ring, col = strip_faces(2, 3, periodic=True, apex=True)
        assert faces.tolist() == [
            [0, 1, 2], [0, 2, 3], [0, 3, 1],
            [1, 4, 5], [1, 5, 2], [2, 5, 6], [2, 6, 3], [3, 6, 4], [3, 4, 1],
        ]
        assert ring[:3].tolist() == [[0, 1, 1]] * 3
        assert col[:3].tolist() == [[0, 0, 1], [1, 1, 2], [2, 2, 3]]

    def test_open_fan_alone(self):
        faces, ring, col = strip_faces(1, 4, periodic=False, apex=True)
        assert faces.tolist() == [[0, 1, 2], [0, 2, 3], [0, 3, 4]]
        assert ring.tolist() == [[0, 1, 1]] * 3

    @staticmethod
    def _loop_reference(rings, cols, periodic, apex):
        a = int(apex)
        n = cols if periodic else cols - 1
        faces = [(0, a + j, a + (j + 1) % cols) for j in range(n)] if apex else []
        for i in range(rings - 1):
            s0, s1 = a + i * cols, a + (i + 1) * cols
            for j in range(n):
                j2 = (j + 1) % cols
                faces += [(s0 + j, s1 + j, s1 + j2), (s0 + j, s1 + j2, s0 + j2)]
        return faces

    @pytest.mark.parametrize("rings,cols", [(1, 3), (2, 3), (3, 8), (5, 4)])
    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("apex", [False, True])
    def test_matches_the_loop_triangulation(self, rings, cols, periodic, apex):
        faces, ring, col = strip_faces(rings, cols, periodic, apex)
        assert [tuple(f) for f in faces.tolist()] == self._loop_reference(
            rings, cols, periodic, apex
        )
        # every corner's (ring, column) names its vertex
        ids = int(apex) + (ring - int(apex)) * cols + col % cols
        assert np.array_equal(np.where(ring == 0, 0, ids) if apex else ids, faces)

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("apex", [False, True])
    def test_builds_a_valid_disk_or_band(self, periodic, apex):
        faces, _ring, _col = strip_faces(3, 5, periodic, apex)
        nv = int(apex) + 3 * 5
        s = SurfaceModel.build(np.random.default_rng(0).normal(size=(nv, 3)), faces)
        # a fan or open strip is a disk; a periodic strip without apex, an annulus
        assert len(s.boundary_loops) == (2 if periodic and not apex else 1)
        assert euler_characteristic(s) == 2 - len(s.boundary_loops)


def isin_topology(v: np.ndarray, f: np.ndarray) -> dict:
    """Boundary data and edge count by the earlier formulas: partners from
    np.isin over the reversed edges, the count from np.unique."""
    nv, nf = v.shape[0], f.shape[0]
    directed = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]], axis=0)
    key = directed[:, 0] * nv + directed[:, 1]
    rev = directed[:, 1] * nv + directed[:, 0]
    boundary_ids = np.flatnonzero(~np.isin(key, rev))
    boundary_edges = directed[boundary_ids]
    undirected = np.sort(directed, axis=1)
    loops = SurfaceModel._chain_loops(boundary_edges)
    mask = np.zeros(nv, dtype=bool)
    leaving = np.zeros(nv, dtype=np.int64)
    leaving[boundary_edges[:, 0]] = boundary_ids
    for lp in loops:
        mask[lp] = True
    ids = leaving[np.concatenate(loops)] if loops else leaving[:0]
    return {
        "loops": [lp.tolist() for lp in loops],
        "corners": np.stack([ids % nf, ids // nf], axis=1).tolist(),
        "mask": mask.tolist(),
        "edges": np.unique(undirected[:, 0] * nv + undirected[:, 1]).size,
    }


def assert_topology_matches_isin(s: SurfaceModel) -> None:
    expected = isin_topology(s.vertices, s.faces)
    assert [lp.tolist() for lp in s.boundary_loops] == expected["loops"]
    assert s.boundary_face_corners.tolist() == expected["corners"]
    assert s.boundary_vertex_mask.tolist() == expected["mask"]
    assert s.edge_count == expected["edges"]


class TestEdgePairing:
    """`build` finds edge partners by searchsorted and counts edges in closed
    form; both agree with the np.isin / np.unique formulas they replace."""

    @pytest.mark.parametrize("res", [8, 16])
    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_scenes(self, name, res):
        assert_topology_matches_isin(build_scene(name, res=res).surface)

    @pytest.mark.parametrize("name", catalog_names())
    def test_exterior_cones(self, name):
        # cones over each boundary curve: strip_faces with its apex fan
        sc = build_scene(name, res=9)
        for c in sc.boundaries:
            for apex in (sc.default_x0, c.vertices.mean(axis=0)):
                assert_topology_matches_isin(build_cone(c, apex))

    @pytest.mark.parametrize("seed", range(12))
    def test_random_grids_with_holes(self, seed):
        # drop quad cells (i, j) with i, j odd, off the outer rings: no two
        # share a vertex, so each hole is its own 4-vertex boundary loop
        rng = np.random.default_rng(seed)
        rows, cols = (int(k) for k in rng.integers(4, 10, size=2))
        periodic = bool(seed % 2)
        faces = strip_faces(rows, cols, periodic, apex=False)[0]
        n = cols if periodic else cols - 1  # quad cells per ring
        cell = np.arange(faces.shape[0]) // 2
        i, j = cell // n, cell % n
        hole = (i % 2 == 1) & (i < rows - 2) & (j % 2 == 1) & (j < cols - 2)
        hole &= rng.random(n * (rows - 1))[cell] < 0.6
        s = SurfaceModel.build(rng.normal(size=(rows * cols, 3)), faces[~hole])
        assert len(s.boundary_loops) == (2 if periodic else 1) + int(hole.sum()) // 2
        assert_topology_matches_isin(s)

    def test_repeated_directed_edge_raises(self):
        v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
        # two faces on one side of edge 0 -> 1, and a face listed twice
        for v, faces in ((v, [[0, 1, 2], [0, 1, 3]]), (v[:3], [[0, 1, 2], [0, 1, 2]])):
            with pytest.raises(InputInconsistentError, match="directed edge appears twice"):
                SurfaceModel.build(v, faces)
