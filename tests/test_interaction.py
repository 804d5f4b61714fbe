import math

import numpy as np
import pytest

from thermoservo import (
    CircleContour,
    Pose,
    QuadratureSpec,
    l_parallel,
    vf_batch,
    vf_parallel_disks,
    view_factor_gradient,
)

SPEC64 = QuadratureSpec(64)
R1, R2 = 0.10, 0.015


def central_fd_row(pose, lambda1, h=1e-5):
    """lambda1-scaled central difference of the parallel-disk view factor."""
    row = np.empty(3)
    for i in range(3):
        fp = vf_parallel_disks(pose.perturbed(i, h), R1, R2, SPEC64).value
        fm = vf_parallel_disks(pose.perturbed(i, -h), R1, R2, SPEC64).value
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
                [lam1 * (kernel_value(pose.perturbed(i, step).as_vector()) - f0) / step
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
