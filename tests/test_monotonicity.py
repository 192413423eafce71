"""Area-ratio profiles and the weighted monotonicity machinery.

The flat disk is the exact reference: the disk plus the exterior cone
over its rim tile the whole plane, so m(r) = pi at every radius from the
center, and from a rim vertex m(r) tends to the polygon sector value
(pi - 2*pi/k) / 2. The integrated identity has defect zero on flat input
for every radius pair, including pairs that straddle the rim, which
exercises the boundary moment with weight (1/2)(max(sigma,rho)^-2 - r^-2).
"""

import math

import numpy as np
import pytest

from surfcert import (
    InvalidParameterError,
    UnsupportedOperationError,
    SurfaceModel,
    build_scene,
    check_large_radius_bound,
    check_property_p,
    check_weighted_monotonicity,
    conormal_spot_check,
    default_radius_grid,
    extrinsic_diameter,
    identity_defect,
    lp_norm,
    m_profile,
    mean_curvature_field,
    property_p_constants,
)


@pytest.fixture(scope="module")
def disk():
    return build_scene("flat_disk")


@pytest.fixture(scope="module")
def disk_profile(disk):
    return m_profile(disk.surface, disk.boundaries, (0.0, 0.0, 0.0), radii=(0.3, 0.6, 0.9, 1.5, 3.0, 6.0))


class TestProfile:
    def test_disk_profile_is_constant_pi(self, disk_profile):
        for m in disk_profile.m_values:
            assert m == pytest.approx(math.pi, rel=1e-4)

    def test_disk_weighted_values_equal_raw_for_flat_input(self, disk_profile):
        # lam = 0 on a flat mesh, so the weight is identically 1
        assert disk_profile.lam == pytest.approx(0.0, abs=1e-12)
        assert disk_profile.weighted_m == pytest.approx(disk_profile.m_values)

    def test_rim_vertex_sector_value(self, disk):
        loop = disk.surface.boundary_loops[0]
        k = len(loop)
        x0 = disk.surface.vertices[loop[0]]
        prof = m_profile(disk.surface, disk.boundaries, x0, radii=(0.01, 0.02))
        want = (math.pi - 2.0 * math.pi / k) / 2.0
        for m in prof.m_values:
            assert m == pytest.approx(want, rel=1e-4)

    def test_default_grid_contains_diameter_and_four_diameters(self, disk):
        r0 = extrinsic_diameter(disk.surface)
        grid = default_radius_grid(disk.surface, (0.0, 0.0, 0.0))
        assert any(abs(g - r0) < 1e-12 for g in grid)
        assert any(abs(g - 4.0 * r0) < 1e-12 for g in grid)
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_profile_records_inputs(self, disk_profile):
        assert disk_profile.r0 == pytest.approx(2.0, abs=1e-12)
        assert disk_profile.tol_disc > 0.0
        assert len(disk_profile.defects) == 15  # all pairs of 6 radii

    def test_tol_disc_below_the_adaptive_clippers_on_selftest_profiles(self):
        # tol_disc was 3 * 1e-6 * (largest clipped area) / (smallest r^2) when
        # a 1e-6-relative adaptive clipper computed m(r); the derived rounding
        # bound of the exact clip may only be tighter
        from surfcert.selftest import _default_profile

        profiles = [
            _default_profile(name, params)[1]
            for name, params in [
                ("flat_disk", None),
                ("catenoid", None),
                ("graph_disk", {"seed": 0}),
                ("graph_disk", {"seed": 1}),
                ("graph_disk", {"seed": 2}),
                ("cap", None),
            ]
        ]
        for name in ("cap", "catenoid"):
            scene = build_scene(name)
            r0 = extrinsic_diameter(scene.surface)
            radii = tuple(r0 * f for f in (0.5, 1.0, 1.5, 2.0, 4.0))
            profiles.append(
                m_profile(scene.surface, list(scene.boundaries), scene.default_x0, radii=radii)
            )
        for prof in profiles:
            max_area = max(m * r * r for r, m in zip(prof.radii, prof.m_values))
            old = 3.0 * 1e-6 * max_area / min(r * r for r in prof.radii)
            assert 0.0 < prof.tol_disc <= old

    def test_nonpositive_radius_rejected(self, disk):
        with pytest.raises(InvalidParameterError):
            m_profile(disk.surface, disk.boundaries, (0.0, 0.0, 0.0), radii=(0.5, -1.0))


class TestWeightedMonotonicity:
    def test_disk_has_no_violations(self, disk_profile):
        rep = check_weighted_monotonicity(disk_profile)
        assert rep.ok
        assert rep.violations == ()
        # m is constant, so every pairwise defect is numerically zero
        for _i, _j, d in rep.defects:
            assert abs(d) <= 1e-4

    def test_cap_is_monotone(self):
        cap = build_scene("cap", res=32)
        prof = m_profile(
            cap.surface, cap.boundaries, cap.default_x0, radii=(0.5, 1.0, 2.0, 4.0)
        )
        rep = check_weighted_monotonicity(prof)
        assert rep.ok, rep.violations

    def test_large_radius_floor_on_disk(self, disk_profile):
        rep = check_large_radius_bound(disk_profile)
        assert rep.ok
        assert rep.violations == ()
        assert rep.anchor == pytest.approx(3.0)  # first radius >= the diameter

    def test_large_radius_needs_radius_at_diameter(self, disk):
        prof = m_profile(disk.surface, disk.boundaries, (0.0, 0.0, 0.0), radii=(0.3, 0.6))
        with pytest.raises(InvalidParameterError):
            check_large_radius_bound(prof)


class TestIntegratedIdentity:
    @pytest.mark.parametrize(
        "sigma,r,tol",
        [
            (0.2, 0.5, 1e-6),  # both radii inside the disk
            (0.5, 2.0, 1e-3),  # straddles the rim: boundary moment active
            (1.5, 3.0, 1e-4),  # both radii beyond the rim
        ],
    )
    def test_flat_disk_defect_vanishes(self, disk, sigma, r, tol):
        assert abs(identity_defect(disk.surface, (0.0, 0.0, 0.0), sigma, r)) < tol

    def test_radius_order_enforced(self, disk):
        with pytest.raises(InvalidParameterError):
            identity_defect(disk.surface, (0.0, 0.0, 0.0), 0.5, 0.5)
        with pytest.raises(InvalidParameterError):
            identity_defect(disk.surface, (0.0, 0.0, 0.0), 2.0, 0.5)

    def test_needs_analytic_source(self, disk):
        bare = SurfaceModel.build(disk.surface.vertices, disk.surface.faces)
        with pytest.raises(UnsupportedOperationError):
            identity_defect(bare, (0.0, 0.0, 0.0), 0.2, 0.5)


class TestConormalComparison:
    def test_disk_is_the_equality_case(self, disk):
        # on a flat disk from the center the conormal is exactly radial
        assert abs(conormal_spot_check(disk.surface, (0.0, 0.0, 0.0))) <= 1e-12

    def test_cap_is_strictly_consistent(self):
        cap = build_scene("cap", res=32)
        assert conormal_spot_check(cap.surface, cap.default_x0) < 0.0


class TestSmallnessConstants:
    def test_finite_exponent_formula(self):
        cap = build_scene("cap")
        k = property_p_constants(cap.surface, 4.0)
        f, _vec = mean_curvature_field(cap.surface)
        prefactor = (2.0 * 4.0 / (4.0 - 2.0)) * (2.0 / math.pi) ** (1.0 / 4.0)
        assert k.p == 4.0
        assert k.alpha == pytest.approx(0.5)
        assert k.lam == pytest.approx(prefactor * lp_norm(f, cap.surface, 4.0), rel=1e-12)
        assert k.smallness_ok
        assert k.smallness_margin > 0.0

    def test_sup_norm_case(self):
        cap = build_scene("cap")
        k = property_p_constants(cap.surface, math.inf)
        f, _vec = mean_curvature_field(cap.surface)
        assert k.alpha == 1.0
        assert k.lam == pytest.approx(lp_norm(f, cap.surface, math.inf), rel=1e-12)

    def test_small_exponent_rejected(self):
        cap = build_scene("cap")
        with pytest.raises(InvalidParameterError):
            property_p_constants(cap.surface, 2.0)


class TestCurvatureMassBound:
    def test_flat_disk_bound_holds_with_zero_mass(self, disk, disk_profile):
        k = property_p_constants(disk.surface, math.inf)
        rep = check_property_p(disk.surface, k, (0.0, 0.0, 0.0), profile=disk_profile)
        assert rep.ok
        assert rep.violations == ()
        for integral in rep.curvature_integrals:
            assert abs(integral) <= 1e-10

    def test_cap_bound_holds(self):
        cap = build_scene("cap", res=32)
        k = property_p_constants(cap.surface, math.inf)
        rep = check_property_p(cap.surface, k, cap.default_x0, radii=(0.5, 1.0, 2.0, 4.0))
        assert rep.ok, rep.violations
        assert min(rep.slacks) > 0.0
