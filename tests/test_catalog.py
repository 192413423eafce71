"""Catalog scenes: closed-form areas, boundary wiring, and rescaling.

Each scene's boundary curves must reference the mesh loops
vertex-for-vertex, since every downstream bound assumes the curve and
the mesh edge agree exactly.
"""

import math

import numpy as np
import pytest

from surfcert import (
    InvalidParameterError,
    build_scene,
    catalog_entry,
    catalog_names,
    density_estimate,
    genus,
    scaled_scene,
)

ALL_NAMES = [
    "branched_disk",
    "cap",
    "catenoid",
    "enneper",
    "flat_disk",
    "flat_sector",
    "graph_disk",
    "hemisphere",
    "torus_minus_disk",
]


class TestListing:
    def test_names_are_sorted_and_complete(self):
        assert catalog_names() == ALL_NAMES

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(InvalidParameterError, match="available"):
            build_scene("moebius")

    def test_entry_carries_schema_and_doc(self):
        e = catalog_entry("cap")
        assert e.name == "cap"
        assert set(e.schema) == {"R", "theta"}
        assert e.doc

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_every_scene_builds_at_low_res(self, name):
        scene = build_scene(name, res=16)
        s = scene.surface
        assert s.n_faces > 0
        assert len(scene.boundaries) == len(s.boundary_loops)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_boundary_curves_match_mesh_loops(self, name):
        scene = build_scene(name, res=16)
        for curve, loop in zip(scene.boundaries, scene.surface.boundary_loops):
            assert np.array_equal(curve.vertices, scene.surface.vertices[loop])


class TestClosedFormAreas:
    def test_disk(self):
        assert float(build_scene("flat_disk").surface.face_areas.sum()) == pytest.approx(
            math.pi, rel=2e-3
        )

    def test_sector(self):
        # quarter disk of radius 1
        got = float(build_scene("flat_sector").surface.face_areas.sum())
        assert got == pytest.approx(math.pi / 4.0, rel=2e-3)

    def test_cap(self):
        got = float(build_scene("cap").surface.face_areas.sum())
        assert got == pytest.approx(2.0 * math.pi * 100.0 * (1.0 - math.cos(0.1)), rel=2e-3)

    def test_catenoid(self):
        # area of the catenoid x^2+y^2 = cosh(z)^2 for |z| <= h:
        # pi (sinh(2h)/... ) with a=1: 2 pi int_-h^h cosh^2 = pi (sinh(2h) + 2h)
        h = 0.75  # default height 1.5 split symmetrically
        want = math.pi * (math.sinh(2 * h) + 2 * h)
        got = float(build_scene("catenoid").surface.face_areas.sum())
        assert got == pytest.approx(want, rel=5e-3)


class TestParameters:
    def test_defaults_recorded(self):
        scene = build_scene("cap")
        assert scene.parameters["R"] == 10.0
        assert scene.parameters["theta"] == 0.1
        assert scene.provenance == "catalog:cap"

    def test_unknown_parameter_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown parameters"):
            build_scene("cap", {"bogus": 1.0})

    def test_out_of_range_parameter_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_scene("cap", {"theta": 3.5})  # beyond pi
        with pytest.raises(InvalidParameterError):
            build_scene("cap", {"R": -1.0})

    def test_res_bounds(self):
        with pytest.raises(InvalidParameterError):
            build_scene("flat_disk", res=2)
        with pytest.raises(InvalidParameterError):
            build_scene("flat_disk", res=4096)

    def test_integer_parameter_coercion(self):
        scene = build_scene("graph_disk", {"seed": 1.0}, res=16)
        assert scene.parameters["seed"] == 1
        assert isinstance(scene.parameters["seed"], int)

    def test_scene_cache_returns_identical_objects(self):
        assert build_scene("flat_disk") is build_scene("flat_disk")
        assert build_scene("flat_disk", res=16) is not build_scene("flat_disk", res=32)

    def test_graph_seeds_give_different_surfaces(self):
        g0 = build_scene("graph_disk", {"seed": 0}, res=16)
        g1 = build_scene("graph_disk", {"seed": 1}, res=16)
        assert not np.allclose(g0.surface.vertices, g1.surface.vertices)


def _expected_counts(name: str, res: int) -> tuple:
    """(vertices, faces) of a default catalog scene, in closed form."""
    w, rings = max(8, 2 * res), max(2, res // 2)
    if name == "torus_minus_disk":
        # n x n periodic grid less a 4 x 4 block of cells and its 9 inner vertices
        n = max(16, res)
        return n * n - 9, 2 * n * n - 32
    if name == "catenoid":
        return (rings + 1) * w, 2 * w * rings
    if name == "flat_sector":
        # opening angle pi/2: res / 2 arcs, rounded half to even
        arcs = max(3, round(res / 2))
        return 1 + rings * (arcs + 1), arcs + 2 * arcs * (rings - 1)
    # apex fan plus strips: disks, caps, the hemisphere
    return 1 + rings * w, w + 2 * w * (rings - 1)


class TestMeshCounts:
    @pytest.mark.parametrize("res", [8, 9, 16])
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_closed_form_counts(self, name, res):
        s = build_scene(name, res=res).surface
        assert (s.n_vertices, s.n_faces) == _expected_counts(name, res)

    def test_default_disk_has_8064_faces(self):
        assert build_scene("flat_disk").surface.n_faces == 8064


class TestLoopReference:
    """The vectorised grids against the per-vertex loops they replaced, bit for bit."""

    def test_disk_grid(self):
        res = 9
        rings, wedges = max(2, res // 2), max(8, 2 * res)
        pts = [(0.0, 0.0)]
        for i in range(1, rings + 1):
            r = 1.0 * i / rings
            for j in range(wedges):
                a = 2.0 * math.pi * j / wedges
                pts.append((r * math.cos(a), r * math.sin(a)))
        s = build_scene("flat_disk", res=res).surface
        assert np.array_equal(s.params, np.asarray(pts))

    def test_cap_grid_face_params(self):
        res, theta = 9, 0.1
        rows, wedges = max(2, res // 2), max(8, 2 * res)
        params = [(0.0, 0.0)]
        for i in range(1, rows + 1):
            for j in range(wedges):
                params.append((theta * i / rows, 2.0 * math.pi * j / wedges))
        dpsi = 2.0 * math.pi / wedges
        fparams = []
        for j in range(wedges):
            psi_a, psi_b = j * dpsi, (j + 1) * dpsi
            phi1 = theta / rows
            fparams.append(((0.0, 0.5 * (psi_a + psi_b)), (phi1, psi_a), (phi1, psi_b)))
        for i in range(rows - 1):
            p0, p1 = theta * (i + 1) / rows, theta * (i + 2) / rows
            for j in range(wedges):
                psi_a, psi_b = j * dpsi, (j + 1) * dpsi
                fparams.append(((p0, psi_a), (p1, psi_a), (p1, psi_b)))
                fparams.append(((p0, psi_a), (p1, psi_b), (p0, psi_b)))
        s = build_scene("cap", res=res).surface
        assert np.array_equal(s.params, np.asarray(params))
        assert np.array_equal(s.face_params, np.asarray(fparams))


class TestSectorFlags:
    def test_three_right_angle_corners(self):
        scene = build_scene("flat_sector")
        flags = scene.boundary.corner_flags
        assert len(flags) == 3
        for f in flags:
            assert f.theta == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_apex_flag_sits_at_the_origin(self):
        scene = build_scene("flat_sector")
        apex = min(f.index for f in scene.boundary.corner_flags)
        v = scene.boundary.vertices[apex]
        assert np.linalg.norm(v) <= 1e-12


class TestBranchedDisk:
    def test_branch_point_density_matches_sheet_count(self):
        scene = build_scene("branched_disk", res=48)
        assert scene.surface.dim == 4  # two sheets separated in the 4th axis
        m = scene.parameters["m"]
        got = density_estimate(scene.surface, np.zeros(4)).value
        assert got == pytest.approx(float(m), abs=0.02)


class TestTopologyByName:
    def test_torus_minus_disk(self):
        scene = build_scene("torus_minus_disk", res=32)
        assert genus(scene.surface) == 1
        assert len(scene.surface.boundary_loops) == 1

    def test_catenoid_annulus(self):
        scene = build_scene("catenoid", res=16)
        assert genus(scene.surface) == 0
        assert len(scene.surface.boundary_loops) == 2


class TestScaling:
    def test_area_scales_quadratically(self):
        base = build_scene("flat_sector")
        big = scaled_scene(base, 2.0)
        assert float(big.surface.face_areas.sum()) == pytest.approx(
            4.0 * float(base.surface.face_areas.sum()), rel=1e-12
        )

    def test_flags_and_anchor_survive(self):
        base = build_scene("flat_sector")
        lam = 3.0
        big = scaled_scene(base, lam)
        assert big.boundary.corner_flags == base.boundary.corner_flags
        assert np.allclose(big.default_x0, lam * np.asarray(base.default_x0))
        assert big.provenance.startswith(base.provenance)

    def test_meshonly_scene_scales(self):
        base = build_scene("torus_minus_disk", res=16)
        big = scaled_scene(base, 0.5)
        assert float(big.surface.face_areas.sum()) == pytest.approx(
            0.25 * float(base.surface.face_areas.sum()), rel=1e-12
        )

    def test_scale_factor_validated(self):
        base = build_scene("flat_disk", res=16)
        with pytest.raises(InvalidParameterError):
            scaled_scene(base, 0.0)
        with pytest.raises(InvalidParameterError):
            scaled_scene(base, -2.0)


# every analytic entry at its defaults, then parameters that reach other
# terms of each formula; one scene also rescaled, to cover scaled_scene
PATCH_SCENES = [(name, {}, 1.0) for name in ALL_NAMES if catalog_entry(name).analytic] + [
    ("cap", {"R": 2.0, "theta": 1.2}, 1.0),
    ("catenoid", {"waist": 0.7, "height": 2.0}, 1.0),
    ("catenoid", {"waist": 0.7, "height": 2.0}, 2.5),
    ("enneper", {"scale": 0.5}, 1.0),
    ("branched_disk", {"m": 3}, 1.0),
    ("graph_disk", {"seed": 7}, 1.0),
]

# A central difference with step H errs by at most H^2 / 6 times the third
# derivative (truncation) plus the rounding of the two samples over 2H. On
# these domains every third and fourth partial of u is below 40 in
# magnitude (about 12 on the m = 3 branched disk and 10 on the R = 10 cap
# and the rescaled catenoid), and each sample is within 8 eps of its largest
# entry, so the bound is 40 H^2 / 6 + 16 eps max|f| / H, near 7e-8. A wrong
# or missing term is off by O(1).
H = 1e-4


def _fd_bound(samples):
    return 40.0 * H * H / 6.0 + 16.0 * np.finfo(np.float64).eps * np.max(np.abs(samples)) / H


def _patch_points(name, params, factor):
    scene = build_scene(name, params, res=8)
    s = (scene if factor == 1.0 else scaled_scene(scene, factor)).surface
    pts = [s.params] if s.face_params is None else [s.params, s.face_params.reshape(-1, 2)]
    return s.patch, np.concatenate(pts)


class TestPatchDerivatives:
    @pytest.mark.parametrize("name, params, factor", PATCH_SCENES)
    def test_du_is_the_central_difference_of_u(self, name, params, factor):
        patch, p = _patch_points(name, params, factor)
        for (a, b), step in zip(((1, 0), (0, 1)), H * np.eye(2)):
            fd = (patch.u(p + step) - patch.u(p - step)) / (2.0 * H)
            assert np.max(np.abs(patch.partials(p, a, b) - fd)) <= _fd_bound(patch.u(p))

    @pytest.mark.parametrize("name, params, factor", PATCH_SCENES)
    def test_d2u_is_the_central_difference_of_du(self, name, params, factor):
        # the mixed partial is checked both ways: d/dx of the v partial and
        # d/dy of the u partial
        patch, p = _patch_points(name, params, factor)
        first = {(1, 0): patch.partials(p, 1, 0), (0, 1): patch.partials(p, 0, 1)}
        bound = _fd_bound(np.stack(list(first.values())))
        for (a, b) in first:
            for j, step in enumerate(H * np.eye(2)):
                fd = (patch.partials(p + step, a, b) - patch.partials(p - step, a, b)) / (2.0 * H)
                want = patch.partials(p, a + (j == 0), b + (j == 1))
                assert np.max(np.abs(want - fd)) <= bound


# the curvature kernel at res 16 on every analytic scene, each also rescaled
KERNEL_SCENES = [
    (name, factor)
    for name in ALL_NAMES
    if catalog_entry(name).analytic
    for factor in (1.0, 1e-3, 1e3)
]
# unit roundoff; the kernel and the oracles below agree to under 7 u |A| per
# sample on these scenes, and 32 u |A| leaves room for other platforms' libm
U = np.finfo(np.float64).eps / 2.0


def _kernel_scene(name, factor):
    scene = build_scene(name, res=16)
    return scene if factor == 1.0 else scaled_scene(scene, factor)


def _kernel_samples(s):
    """Vertex parameters, then each face's edge midpoints and centroid."""
    t = s.face_param_triangles()
    a, b, c = t[:, 0], t[:, 1], t[:, 2]
    return np.concatenate([s.params, 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a), (a + b + c) / 3.0])


def _einsum_curvature(patch, pts):
    """|H|, |A| and the unreliable mask from the Jacobian and Hessian layout,
    g^-1 entry by entry and einsum contractions: an independent formulation
    of `AnalyticPatch.curvature_at`."""
    e = np.stack([patch.partials(pts, 1, 0), patch.partials(pts, 0, 1)], axis=-1)
    mixed = patch.partials(pts, 1, 1)
    rows = ((patch.partials(pts, 2, 0), mixed), (mixed, patch.partials(pts, 0, 2)))
    d2 = np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)
    g = np.einsum("mia,mib->mab", e, e)
    det = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
    bad = det <= 1e-12 * np.maximum(g[:, 0, 0] + g[:, 1, 1], 1e-300) ** 2
    safe = np.where(bad, 1.0, det)
    ginv = np.stack([g[:, 1, 1], -g[:, 0, 1], -g[:, 1, 0], g[:, 0, 0]], axis=1) / safe[:, None]
    ginv = ginv.reshape(-1, 2, 2)
    coeff = np.einsum("mab,mib,micd->macd", ginv, e, d2)
    second = d2 - np.einsum("mia,macd->micd", e, coeff)
    h = np.linalg.norm(np.einsum("mab,miab->mi", ginv, second), axis=1)
    a2 = np.einsum("mac,mbd,miab,micd->m", ginv, ginv, second, second)
    if patch.branch_points:
        bp = np.array([q for q, _order in patch.branch_points]).reshape(-1, 2)
        d2b = ((pts[:, None, :] - bp[None, :, :]) ** 2).sum(-1).min(axis=1)
        bad = bad | (d2b <= patch.branch_radius**2)
    return np.where(bad, 0.0, h), np.where(bad, 0.0, np.sqrt(np.maximum(a2, 0.0))), bad


class TestCurvatureKernel:
    @pytest.mark.parametrize("name, factor", KERNEL_SCENES)
    def test_matches_the_einsum_formulation(self, name, factor):
        s = _kernel_scene(name, factor).surface
        pts = _kernel_samples(s)
        h, a, bad = s.patch.curvature_at(pts)
        h_ref, a_ref, bad_ref = _einsum_curvature(s.patch, pts)
        assert np.array_equal(bad, bad_ref)
        assert not (h[bad].any() or a[bad].any())
        assert np.all(np.abs(h - h_ref) <= 32.0 * U * a_ref)
        assert np.all(np.abs(a - a_ref) <= 32.0 * U * a_ref)

    @pytest.mark.parametrize("name", ["cap", "hemisphere"])
    @pytest.mark.parametrize("factor", [1.0, 1e-3, 1e3])
    def test_sphere(self, name, factor):
        scene = _kernel_scene(name, factor)
        R = factor * scene.parameters.get("R", 1.0)
        h, a, bad = scene.surface.patch.curvature_at(_kernel_samples(scene.surface))
        assert bad.sum() == 1  # the pole, where e_psi vanishes
        assert np.all(np.abs(h[~bad] - 2.0 / R) <= 32.0 * U * (2.0 / R))
        assert np.all(np.abs(a[~bad] - math.sqrt(2.0) / R) <= 32.0 * U * (math.sqrt(2.0) / R))

    @pytest.mark.parametrize("factor", [1.0, 1e-3, 1e3])
    def test_catenoid(self, factor):
        # |A| = sqrt(2) / (a cosh^2(v / a)) at (v, psi); the surface is minimal
        scene = _kernel_scene("catenoid", factor)
        pts = _kernel_samples(scene.surface)
        h, a, bad = scene.surface.patch.curvature_at(pts)
        waist = scene.parameters["waist"]
        want = math.sqrt(2.0) / (factor * waist * np.cosh(pts[:, 0] / waist) ** 2)
        assert not bad.any()
        assert np.all(np.abs(a - want) <= 32.0 * U * want)
        assert np.all(h <= 32.0 * U * want)

    @pytest.mark.parametrize("name", ["flat_disk", "flat_sector"])
    @pytest.mark.parametrize("factor", [1.0, 1e-3, 1e3])
    def test_flat_scenes_are_exactly_zero(self, name, factor):
        s = _kernel_scene(name, factor).surface
        h, a, bad = s.patch.curvature_at(_kernel_samples(s))
        assert not bad.any()
        assert not h.any() and not a.any()
