import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from thermoservo import (
    CircleContour,
    DegeneratePoseError,
    Pose,
    QuadratureSpec,
    ViewFactor,
    l_parallel,
    vf_batch,
    vf_dsi_oracle,
    vf_general,
    vf_parallel_disks,
    view_factor_gradient,
)
from thermoservo import viewfactor
from thermoservo.geometry import fourier_fit

from conftest import (
    BUNNY_BUMPS,
    coaxial_disk_view_factor,
    disk_facets,
    euler_from_rotation,
    star_polyline,
)


class TestQuadratureSpec:
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_spec_validation(self, n):
        with pytest.raises(ValueError):
            QuadratureSpec(n)


class TestViewFactorType:
    def test_noise_clamp(self):
        assert ViewFactor.from_raw(-5e-10).value == 0.0

    def test_large_negative_rejected(self):
        with pytest.raises(ValueError):
            ViewFactor.from_raw(-1e-8)

    def test_at_least_one_rejected(self):
        with pytest.raises(ValueError):
            ViewFactor.from_raw(1.0)


class TestParallelDisks:
    def test_coaxial_matches_closed_form(self):
        f = vf_parallel_disks(Pose(0, 0, 0.05), 0.015, 0.015, QuadratureSpec(64))
        assert f.value == pytest.approx(coaxial_disk_view_factor(0.015, 0.015, 0.05), abs=1e-4)
        assert f.value == pytest.approx(0.0767, abs=1e-4)

    def test_vanishes_at_large_separation(self):
        f = vf_parallel_disks(Pose(0, 0, 10.0), 0.015, 0.015, QuadratureSpec(64))
        assert f.value < 1e-4

    def test_lateral_offset_reduces_value(self):
        spec = QuadratureSpec(64)
        centered = vf_parallel_disks(Pose(0, 0, 0.05), 0.015, 0.015, spec).value
        offset = vf_parallel_disks(Pose(0.10, 0, 0.05), 0.015, 0.015, spec).value
        assert offset < centered
        # cross-check the offset value against the facet-sum oracle
        oracle = vf_dsi_oracle(Pose(0.10, 0, 0.05), 0.015, CircleContour(0.015), 4000).value
        assert offset == pytest.approx(oracle, abs=1e-3)

    def test_invalid_poses(self):
        with pytest.raises(ValueError):
            vf_parallel_disks(Pose(0, 0, -0.05), 0.015, 0.015)
        with pytest.raises(ValueError):
            vf_parallel_disks(Pose(0, 0, 0.05, theta_x=0.1), 0.015, 0.015)

    def test_richardson_convergence(self):
        pose = Pose(0.01, -0.02, 0.04)
        values = {
            n: vf_parallel_disks(pose, 0.10, 0.015, QuadratureSpec(n)).value
            for n in (16, 32, 64)
        }
        coarse_step = abs(values[32] - values[16])
        fine_step = abs(values[64] - values[32])
        assert fine_step <= coarse_step
        assert fine_step < 1e-6

    def test_parallel_disks_converge_geometrically(self):
        """The periodic trapezoid rule on both boundary circles: on seeded
        poses up to 12 cm off axis and 2-15 cm above a 10 cm source, a
        1.5 cm disk's value at n=32 agrees with n=512 to 1e-6. It reads
        about 1e-8 here; composite Simpson, whose error falls as n^-4,
        leaves about 1e-5."""
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(20):
            pose = Pose(rng.uniform(-0.12, 0.12), rng.uniform(-0.12, 0.12), rng.uniform(0.02, 0.15))
            coarse = vf_parallel_disks(pose, 0.10, 0.015, QuadratureSpec(32)).value
            fine = vf_parallel_disks(pose, 0.10, 0.015, QuadratureSpec(512)).value
            worst = max(worst, abs(coarse - fine))
        assert worst <= 1e-6, f"n=32 vs n=512: {worst:.2e}"

    @pytest.mark.parametrize("entries", [1, 3 * 64 + 5, 64 * 64])
    def test_row_blocks_sum_the_whole_grid(self, entries):
        """Blocks of one row, of 3 rows with a short last block, and one
        block of the whole grid give the same references to rounding."""
        pose, spec = Pose(0.01, -0.02, 0.04), QuadratureSpec(64)
        value = vf_parallel_disks(pose, 0.10, 0.015, spec).value
        row = l_parallel(pose, 0.10, 0.015, 1.0, spec)
        with mock.patch.object(viewfactor, "_PARALLEL_BLOCK_ENTRIES", entries):
            assert vf_parallel_disks(pose, 0.10, 0.015, spec).value == pytest.approx(
                value, rel=1e-13
            )
            assert l_parallel(pose, 0.10, 0.015, 1.0, spec) == pytest.approx(row, rel=1e-13)

    @pytest.mark.parametrize("reference", ["vf_parallel_disks", "l_parallel"])
    def test_memory_is_row_blocks_not_the_grid(self, reference):
        """One n=2048 call allocates at most 12 MB at a time: a few (rows, n)
        blocks of about 512 kB each, where the four 2048 x 2048 grids took
        about 170-200 MB."""
        pose, spec = Pose(0.01, -0.02, 0.04), QuadratureSpec(2048)
        call = {
            "vf_parallel_disks": lambda: vf_parallel_disks(pose, 0.10, 0.015, spec),
            "l_parallel": lambda: l_parallel(pose, 0.10, 0.015, 1.0, spec),
        }[reference]
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6, f"{peak / 1e6:.1f} MB"


class TestGeneral:
    def test_zero_rotation_reduces_to_parallel(self):
        spec = QuadratureSpec(64)
        pose = Pose(0.02, -0.01, 0.05)
        general = vf_general(pose, 0.10, CircleContour(0.015), spec).value
        parallel = vf_parallel_disks(pose, 0.10, 0.015, spec).value
        assert general == pytest.approx(parallel, abs=1e-10)

    def test_complete_self_obstruction_is_zero(self):
        f = vf_general(Pose(0, 0, 0.05, math.pi, 0, 0), 0.10, CircleContour(0.015))
        assert f.value == 0.0

    def test_tilted_partial_matches_oracle(self):
        pose = Pose(0, 0, 0.03, math.pi / 4, 0, 0)
        contour = vf_general(pose, 0.10, CircleContour(0.015)).value
        oracle = vf_dsi_oracle(pose, 0.10, CircleContour(0.015), 20000).value
        assert contour == pytest.approx(oracle, abs=1e-3)

    def test_near_contact_rejected(self):
        with pytest.raises(DegeneratePoseError):
            vf_general(Pose(0, 0, 1e-8), 0.10, CircleContour(0.015))

    def test_range_on_random_admissible_poses(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            pose = Pose(
                rng.uniform(-0.1, 0.1),
                rng.uniform(-0.1, 0.1),
                rng.uniform(0.03, 0.3),
                rng.uniform(-1.0, 1.0),
                rng.uniform(-1.0, 1.0),
                rng.uniform(-math.pi, math.pi),
            )
            f = vf_general(pose, 0.10, CircleContour(0.015)).value
            assert 0.0 <= f < 1.0

    def test_rotational_symmetry_about_source_axis(self):
        from thermoservo.geometry import pose_rotation, rotation_from_euler

        base = Pose(0.03, 0.01, 0.05, 0.4, -0.2, 0.1)
        f_base = vf_general(base, 0.10, CircleContour(0.015)).value
        for gamma in (0.7, 2.0, -1.3):
            rz = rotation_from_euler(0.0, 0.0, gamma)
            rotated = Pose(
                *(rz @ base.translation),
                *euler_from_rotation(rz @ pose_rotation(base)),
            )
            f_rot = vf_general(rotated, 0.10, CircleContour(0.015)).value
            assert f_rot == pytest.approx(f_base, abs=5e-9)

    def test_own_axis_spin_invariance_zero_tilt(self):
        f0 = vf_general(Pose(0.04, 0.02, 0.05), 0.10, CircleContour(0.015)).value
        f1 = vf_general(Pose(0.04, 0.02, 0.05, 0, 0, 1.1), 0.10, CircleContour(0.015)).value
        assert f1 == pytest.approx(f0, abs=1e-12)

    def test_contour_vs_oracle_on_random_family(self):
        """Common and partial poses against the facet-sum oracle."""
        rng = np.random.default_rng(11)
        checked_partial = 0
        for _ in range(6):
            pose = Pose(
                rng.uniform(-0.04, 0.04),
                rng.uniform(-0.04, 0.04),
                rng.uniform(0.025, 0.08),
                rng.uniform(-0.9, 0.9),
                rng.uniform(-0.9, 0.9),
                0.0,
            )
            from thermoservo import classify_occlusion, Complete, Partial

            occ = classify_occlusion(pose, 0.10)
            if isinstance(occ, Complete):
                continue
            checked_partial += isinstance(occ, Partial)
            contour = vf_general(pose, 0.10, CircleContour(0.015)).value
            oracle = vf_dsi_oracle(pose, 0.10, CircleContour(0.015), 20000).value
            assert contour == pytest.approx(oracle, abs=1e-3)
        assert checked_partial >= 1

    def test_fourier_circle_matches_circle_contour(self):
        pose = Pose(0.01, 0.005, 0.05, 0.3, 0.0, 0.0)
        spec = QuadratureSpec(64)
        circle = vf_general(pose, 0.10, CircleContour(0.015), spec).value
        w = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
        fitted = fourier_fit(0.015 * np.stack([np.cos(w), np.sin(w)], axis=-1), 5)
        fourier = vf_general(pose, 0.10, fitted, spec).value
        assert fourier == pytest.approx(circle, abs=1e-4)


def broadcast_dsi_sum(obj_centers, obj_areas, src_centers, src_areas, normal):
    """The oracle's facet sum with every facet-pair difference broadcast and
    r^2 summed from dx, dy and dz: the reference for its matrix-product sum."""
    total = 0.0
    chunk = max(1, 2**18 // len(src_centers))
    sx, sy = src_centers[:, 0], src_centers[:, 1]
    for lo in range(0, len(obj_centers), chunk):
        oc = obj_centers[lo : lo + chunk]
        dx = oc[:, 0, None] - sx[None, :]
        dy = oc[:, 1, None] - sy[None, :]
        dz = np.broadcast_to(oc[:, 2, None], dx.shape)
        r_sq = dx * dx + dy * dy + dz * dz
        cos_obj = -(dx * normal[0] + dy * normal[1] + dz * normal[2])
        kernel = dz * cos_obj * ((dz > 0.0) & (cos_obj > 0.0)) / (r_sq * r_sq)
        total += float((obj_areas[lo : lo + chunk] @ kernel) @ src_areas)
    return total / math.pi


class TestDsiOracle:
    @pytest.mark.parametrize(
        "contour",
        [CircleContour(0.015), fourier_fit(star_polyline(0.018, BUNNY_BUMPS), 5)],
        ids=["circle", "fourier"],
    )
    def test_matrix_product_sum_matches_the_broadcast_sum(self, monkeypatch, contour):
        """The facet sum with r^2 = |o|^2 + |s|^2 - 2 o.s from one matrix
        product against the broadcast sum, on Common, Partial and facing-away
        poses and near-contact ones 1-1.5 mm above the source. There the
        expansion loses about eps |o|^2 / r^2 of each r^2, under 1e-11 here;
        elsewhere the sums agree to about 1e-15 (rel=1e-10 covers both)."""
        poses = [
            Pose(0, 0, 0.05),
            Pose(0, 0, 0.03, math.pi / 4, 0, 0),
            Pose(0.01, -0.02, 0.05, 0.3, 0.2, 0.0),
            Pose(0, 0, 0.01, 1.4, 0, 0.5),
            Pose(0, 0, 0.05, math.pi, 0, 0),
            Pose(0.02, 0.01, 0.001),
            Pose(0.05, 0.0, 0.0015, 0.05, 0.0, 0.0),
            Pose(0.099, 0.0, 0.0012, 0.0, 0.0, 1.0),
        ]
        matrix_sum, pairs = viewfactor._dsi_sum, []

        def both(*args):
            pairs.append((matrix_sum(*args), broadcast_dsi_sum(*args)))
            return 0.0

        monkeypatch.setattr(viewfactor, "_dsi_sum", both)
        for pose in poses:
            vf_dsi_oracle(pose, 0.10, contour, 2000)
        assert pairs[4] == (0.0, 0.0)
        for value, reference in pairs:
            assert value == pytest.approx(reference, rel=1e-10, abs=0.0)

    def test_coaxial_matches_closed_form(self):
        f = vf_dsi_oracle(Pose(0, 0, 0.05), 0.015, CircleContour(0.015), 20000)
        assert f.value == pytest.approx(coaxial_disk_view_factor(0.015, 0.015, 0.05), abs=1e-3)

    def test_reciprocity_both_directions(self):
        """A1 F12 = A2 F21, running the oracle with swapped roles."""
        pose = Pose(0.01, -0.02, 0.05, 0.3, 0.2, 0.0)
        r_source, r_object = 0.04, 0.015
        from thermoservo.geometry import pose_rotation

        f21 = vf_dsi_oracle(pose, r_source, CircleContour(r_object), 6000).value
        # Express the source in the object's frame: flip the object frame so
        # it becomes the at-origin +z-facing surface, then the old source
        # becomes the posed object of the swapped configuration.
        rotation = pose_rotation(pose)
        flip = np.diag([1.0, -1.0, -1.0])
        r_swapped = flip @ rotation.T @ flip
        p_swapped = -(flip @ rotation.T @ pose.translation)
        swapped_pose = Pose(*p_swapped, *euler_from_rotation(r_swapped))
        f12 = vf_dsi_oracle(swapped_pose, r_object, CircleContour(r_source), 6000).value
        a1 = math.pi * r_source**2
        a2 = math.pi * r_object**2
        assert a2 * f21 == pytest.approx(a1 * f12, rel=1e-3)

    def test_facing_away_is_zero(self):
        f = vf_dsi_oracle(Pose(0, 0, 0.05, math.pi, 0, 0), 0.10, CircleContour(0.015), 2000)
        assert f.value == 0.0

    def test_minimum_facets(self):
        with pytest.raises(ValueError):
            vf_dsi_oracle(Pose(0, 0, 0.05), 0.10, CircleContour(0.015), 8)

    def test_chunk_budget_does_not_change_value(self, monkeypatch):
        """A chunk of a few facet pairs gives the one-chunk value."""
        from thermoservo import viewfactor

        pose = Pose(0.01, -0.02, 0.05, 0.3, 0.2, 0.0)
        whole = vf_dsi_oracle(pose, 0.04, CircleContour(0.015), 600).value
        monkeypatch.setattr(viewfactor, "DSI_BLOCK_PAIRS", 7)
        chunked = vf_dsi_oracle(pose, 0.04, CircleContour(0.015), 600).value
        assert chunked == pytest.approx(whole, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize(
        "pose",
        [Pose(0.01, 0.005, 0.05, 0.3, 0.0, 0.0), Pose(0.0, 0.0, 0.03, math.pi / 4, 0.0, 0.0)],
        ids=["common", "partial"],
    )
    def test_fourier_circle_meshes_like_the_circle(self, pose):
        """A Fourier fit of a circle gets the circle's mesh, so the oracle
        reads the same value for both."""
        w = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
        fitted = fourier_fit(0.015 * np.stack([np.cos(w), np.sin(w)], axis=-1), 5)
        circle = vf_dsi_oracle(pose, 0.10, CircleContour(0.015), 2000).value
        assert vf_dsi_oracle(pose, 0.10, fitted, 2000).value == pytest.approx(circle, abs=1e-12)

    @pytest.mark.parametrize("name", ["bunny_contour", "hand_contour"])
    @pytest.mark.parametrize(
        "pose",
        [Pose(0.0, 0.0, 0.05), Pose(0.03, -0.02, 0.02, 0.4, -0.3, 0.2)],
        ids=["common", "partial"],
    )
    def test_fourier_oracle_converges_on_the_kernel(self, request, name, pose):
        """On irregular contours the oracle's error against the converged
        kernel falls as the facets shrink (about 1/N): at least 3x from
        2,000 to 8,000 facets."""
        contour = request.getfixturevalue(name)
        reference = vf_general(pose, 0.10, contour, QuadratureSpec(512)).value
        coarse, fine = (
            abs(vf_dsi_oracle(pose, 0.10, contour, n).value - reference) for n in (2000, 8000)
        )
        assert fine <= coarse / 3.0
        assert fine <= 2e-4

    @pytest.mark.parametrize("radius", [0.015, 0.04, 0.10])
    @pytest.mark.parametrize("n_facets", [16, 600, 2000, 20000])
    def test_circle_mesh_is_the_polar_disk_grid(self, radius, n_facets):
        centers, areas = viewfactor._facets(CircleContour(radius), n_facets)
        ref_centers, ref_areas = disk_facets(radius, n_facets)
        assert centers.shape == ref_centers.shape
        assert np.abs(centers - ref_centers).max() <= 1e-13 * radius
        np.testing.assert_allclose(areas, ref_areas, rtol=1e-13, atol=0.0)

    def test_contour_not_star_shaped_from_its_centroid_is_rejected(self):
        theta = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
        r = 1.0 + 0.8 * np.cos(theta) ** 3
        x, y = r * np.cos(theta), r * np.sin(theta)
        bean = fourier_fit(0.02 * np.stack([x, 0.5 * y + 0.6 * x**2], axis=1), 5)
        with pytest.raises(ValueError, match="not star-shaped from centroid"):
            vf_dsi_oracle(Pose(0, 0, 0.05), 0.10, bean, 2000)


# The interaction row lambda1 * grad F21: l_parallel and the kernel's
# gradient against finite differences.

SPEC64 = QuadratureSpec(64)
R1, R2 = 0.10, 0.015


def central_fd_row(pose, lambda1, h=1e-5):
    """lambda1-scaled central difference of the parallel-disk view factor."""
    row = np.empty(3)
    for i in range(3):
        x, step = pose.as_vector(), h * np.eye(6)[i]
        fp = vf_parallel_disks(Pose.from_vector(x + step), R1, R2, SPEC64).value
        fm = vf_parallel_disks(Pose.from_vector(x - step), R1, R2, SPEC64).value
        row[i] = lambda1 * (fp - fm) / (2 * h)
    return row


class TestLParallel:
    def test_coaxial_symmetry_and_sign(self, aluminum_lambdas):
        row = l_parallel(Pose(0, 0, 0.05), R1, R2, aluminum_lambdas.lambda1, SPEC64)
        assert abs(row[0]) < 1e-8 and abs(row[1]) < 1e-8
        assert row[2] < 0.0

    def test_matches_central_difference(self, aluminum_lambdas):
        pose = Pose(0.015, -0.025, 0.06)
        row = l_parallel(pose, R1, R2, aluminum_lambdas.lambda1, SPEC64)
        reference = central_fd_row(pose, aluminum_lambdas.lambda1)
        assert np.linalg.norm(row - reference) < 1e-5 * np.linalg.norm(reference)

    def test_far_field_decay(self, aluminum_lambdas):
        lam1 = aluminum_lambdas.lambda1
        near = l_parallel(Pose(0, 0, 0.05), 0.015, 0.015, lam1, SPEC64)
        far = l_parallel(Pose(0, 0, 1.0), 0.015, 0.015, lam1, SPEC64)
        assert np.abs(far).max() < 1e-3 * abs(near[2])

    def test_requires_zero_rotation(self, aluminum_lambdas):
        with pytest.raises(ValueError):
            l_parallel(Pose(0, 0, 0.05, 0.1, 0, 0), R1, R2, aluminum_lambdas.lambda1)

    @pytest.mark.parametrize("r1, r2", [(0.1, 0.0), (0.0, 0.015), (-0.1, 0.015)])
    def test_requires_positive_radii(self, r1, r2):
        with pytest.raises(ValueError):
            l_parallel(Pose(0, 0, 0.05), r1, r2, 1.0)

    def test_scaling_in_lambda1(self):
        pose = Pose(0.01, 0.0, 0.05)
        row = l_parallel(pose, R1, R2, 2.0, SPEC64)
        scaled = l_parallel(pose, R1, R2, 6.0, SPEC64)
        assert np.allclose(scaled, 3.0 * row, rtol=1e-14)


def kernel_row(pose, lambda1):
    """lambda1-scaled kernel gradient of F21 over all six coordinates."""
    return lambda1 * view_factor_gradient(pose, R1, CircleContour(R2), SPEC64)


def kernel_value(x):
    return vf_batch(np.asarray(x)[None, :], R1, CircleContour(R2), SPEC64)[0][0]


class TestFiniteDifferenceRow:
    """The interaction row lambda1 * grad F21 from the kernel, against
    l_parallel and finite differences of the kernel's values."""

    def test_translation_components_match_l_parallel(self, aluminum_lambdas):
        pose = Pose(0.01, -0.02, 0.06)
        row = kernel_row(pose, aluminum_lambdas.lambda1)
        analytic = l_parallel(pose, R1, R2, aluminum_lambdas.lambda1, SPEC64)
        assert np.linalg.norm(row[:3] - analytic) < 1e-4 * np.linalg.norm(analytic)

    def test_own_axis_spin_component_vanishes_coaxial(self, aluminum_lambdas):
        row = kernel_row(Pose(0, 0, 0.05), aluminum_lambdas.lambda1)
        assert abs(row[5]) < 1e-8

    def test_deep_complete_obstruction_gives_zero_row(self, aluminum_lambdas):
        row = kernel_row(Pose(0, 0, 0.05, math.pi, 0, 0), aluminum_lambdas.lambda1)
        assert np.array_equal(row, np.zeros(6))

    def test_first_order_richardson_convergence(self, aluminum_lambdas):
        """Forward differences of the kernel's values converge to its
        gradient at first order: the gradient is their limit."""
        pose = Pose(0.02, 0.01, 0.05)
        h = 4e-5
        lam1 = aluminum_lambdas.lambda1

        def forward_row(step):
            f0 = kernel_value(pose.as_vector())
            return np.array(
                [lam1 * (kernel_value(pose.as_vector() + step * np.eye(6)[i]) - f0) / step
                 for i in range(3)]
            )

        fd_h, fd_h2 = forward_row(h), forward_row(h / 2)
        extrapolated = 2.0 * fd_h2 - fd_h  # first-order Richardson
        analytic = kernel_row(pose, lam1)[:3]
        # halving the step roughly halves the forward-difference error
        err_h = np.linalg.norm(fd_h - analytic)
        err_h2 = np.linalg.norm(fd_h2 - analytic)
        assert err_h / err_h2 == pytest.approx(2.0, rel=0.35)
        assert np.linalg.norm(extrapolated - analytic) < 1e-4 * np.linalg.norm(analytic)

    def test_directional_derivative_identity(self, aluminum_lambdas):
        pose = Pose(0.01, 0.02, 0.06, 0.2, -0.1, 0.0)
        row = kernel_row(pose, aluminum_lambdas.lambda1)
        rng = np.random.default_rng(2)
        direction = rng.normal(size=6)
        direction /= np.linalg.norm(direction)
        eps = 2e-5
        f_plus = kernel_value(pose.as_vector() + eps * direction)
        f_minus = kernel_value(pose.as_vector() - eps * direction)
        fd_directional = (f_plus - f_minus) / (2 * eps)
        assert (row @ direction) / aluminum_lambdas.lambda1 == pytest.approx(
            fd_directional, rel=2e-3
        )

    def test_j_row_invariant_to_lambda1(self):
        pose = Pose(0.01, 0.0, 0.05)
        grad = view_factor_gradient(pose, R1, CircleContour(R2), SPEC64)
        # J = L / lambda1: the row divided by its lambda1 is the gradient.
        assert np.allclose(kernel_row(pose, 3.0) / 3.0, grad, rtol=1e-14)


class TestAssemble:
    """Rows of L, one per object, as the controllers stack them."""

    def test_mirrored_rows(self, aluminum_lambdas):
        lam1 = aluminum_lambdas.lambda1
        left = l_parallel(Pose(-0.03, 0, 0.05), R1, R2, lam1, SPEC64)
        right = l_parallel(Pose(0.03, 0, 0.05), R1, R2, lam1, SPEC64)
        assert left[0] == pytest.approx(-right[0], rel=1e-9)
        assert left[2] == pytest.approx(right[2], rel=1e-9)
