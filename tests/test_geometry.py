import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoservo import (
    CircleContour,
    Common,
    Complete,
    DegeneratePoseError,
    Partial,
    Pose,
    classify_occlusion,
    fourier_fit,
    rotation_from_euler,
    wrap_angle,
)
from thermoservo.geometry import (
    classify_occlusions,
    pose_rotation,
    rotation_derivative_planes,
)

from conftest import BUNNY_BUMPS, euler_from_rotation, star_polyline

angles = st.floats(-50.0, 50.0, allow_nan=False)


def elementary_rotations(tx, ty, tz):
    """Explicit composition oracle, independent of rotation_from_euler."""
    rx = np.array(
        [[1, 0, 0], [0, math.cos(tx), -math.sin(tx)], [0, math.sin(tx), math.cos(tx)]]
    )
    ry = np.array(
        [[math.cos(ty), 0, math.sin(ty)], [0, 1, 0], [-math.sin(ty), 0, math.cos(ty)]]
    )
    rz = np.array(
        [[math.cos(tz), -math.sin(tz), 0], [math.sin(tz), math.cos(tz), 0], [0, 0, 1]]
    )
    return rz @ ry @ rx


class TestWrapAngle:
    def test_half_open_interval(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(0.0) == 0.0

    @given(angles)
    def test_range_and_periodicity(self, a):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert math.isclose(
            math.cos(w), math.cos(a), abs_tol=1e-9
        ) and math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            wrap_angle(float("nan"))


class TestRotation:
    def test_identity(self):
        assert np.allclose(rotation_from_euler(0, 0, 0), np.eye(3))

    def test_half_turn_about_x(self):
        assert np.allclose(
            rotation_from_euler(math.pi, 0, 0), np.diag([1.0, -1.0, -1.0]), atol=1e-15
        )

    def test_quarter_turns_match_explicit_composition(self):
        a = math.pi / 2
        expected = elementary_rotations(a, a, a)
        assert np.allclose(rotation_from_euler(a, a, a), expected, atol=1e-14)

    @given(angles, angles, angles)
    @settings(max_examples=50)
    def test_orthonormal_unit_determinant(self, tx, ty, tz):
        r = rotation_from_euler(tx, ty, tz)
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    @given(
        st.floats(-3.0, 3.0),
        st.floats(-1.4, 1.4),
        st.floats(-3.0, 3.0),
    )
    @settings(max_examples=40)
    def test_euler_roundtrip(self, tx, ty, tz):
        r = rotation_from_euler(tx, ty, tz)
        recovered = rotation_from_euler(*euler_from_rotation(r))
        assert np.allclose(recovered, r, atol=1e-10)

    @given(
        angles,
        st.one_of(
            angles,
            st.sampled_from((-1.0, 1.0)).flatmap(
                lambda sign: st.floats(-1e-3, 1e-3).map(lambda e: sign * math.pi / 2 + e)
            ),
        ),
        angles,
    )
    @settings(max_examples=80)
    def test_derivatives_match_central_differences(self, tx, ty, tz):
        """The closed-form dR/dtheta_j, also next to gimbal lock at
        theta_y = +-pi/2, against central differences of the rotation."""
        a = np.array([tx, ty, tz])
        derivatives = rotation_derivative_planes(a)
        # Truncation h^2 / 6 ~ 2e-11; rounding of a + h at |a| <= 50 ~ 1e-9.
        h = 1e-5
        for j in range(3):
            step = np.zeros(3)
            step[j] = h
            fd = (rotation_from_euler(*(a + step)) - rotation_from_euler(*(a - step))) / (2 * h)
            assert np.abs(derivatives[j] - fd).max() <= 1e-8

    def test_derivatives_at_gimbal_lock_and_batched(self):
        a = np.array([[0.3, math.pi / 2, -0.7], [0.3, -math.pi / 2, -0.7], [1.0, 2.0, 3.0]])
        batched = rotation_derivative_planes(a.T)
        assert batched.shape == (3, 3, 3, 3)
        for row, derivatives in zip(a, np.moveaxis(batched, -1, 0)):
            assert derivatives.tobytes() == rotation_derivative_planes(row).tobytes()
            r = rotation_from_euler(*row)
            # dR/dtheta_x = R [e_x]x and dR/dtheta_z = [e_z]x R.
            assert np.allclose(derivatives[0], r @ np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]]))
            assert np.allclose(derivatives[2], np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]]) @ r)


class TestObjectNormal:
    """The object normal is the rotated -z axis, -R[:, 2], as
    classify_occlusions and the kernel read it."""

    def test_identity_points_down(self):
        assert np.allclose(-rotation_from_euler(0, 0, 0)[:, 2], [0.0, 0.0, -1.0])

    def test_flipped_surface(self):
        normal = -rotation_from_euler(math.pi, 0, 0)[:, 2]
        assert np.allclose(normal, [0.0, 0.0, 1.0], atol=1e-15)

    def test_quarter_turn_about_y(self):
        r = rotation_from_euler(0, math.pi / 2, 0)
        # independent check: R @ [0,0,-1] by hand
        assert np.allclose(-r[:, 2], r @ np.array([0.0, 0.0, -1.0]))
        assert np.allclose(-r[:, 2], [-1.0, 0.0, 0.0], atol=1e-15)

    @given(angles, angles, angles)
    @settings(max_examples=50)
    def test_unit_norm(self, tx, ty, tz):
        n = -rotation_from_euler(tx, ty, tz)[:, 2]
        assert abs(np.linalg.norm(n) - 1.0) < 1e-12


class TestPose:
    def test_angles_wrapped(self):
        pose = Pose(0, 0, 0.1, theta_x=3 * math.pi)
        assert pose.theta_x == pytest.approx(math.pi)

    def test_non_finite_translation_rejected(self):
        with pytest.raises(ValueError):
            Pose(float("inf"), 0, 0.1)

    def test_vector_roundtrip(self):
        pose = Pose(0.01, -0.02, 0.05, 0.1, -0.2, 0.3)
        assert Pose.from_vector(pose.as_vector()) == pose


def arc_ends(pose, source_radius):
    """(lo, hi) of a pose's contributing arc, as the kernel reads them."""
    occ = classify_occlusions(pose_rotation(pose)[None], pose.translation[None], source_radius)
    assert occ.partial[0]
    return float(occ.lo[0]), float(occ.hi[0])


class TestClassifyOcclusion:
    def test_coaxial_facing_is_common(self):
        assert isinstance(classify_occlusion(Pose(0, 0, 0.05), 0.10), Common)

    def test_facing_away_is_complete(self):
        occ = classify_occlusion(Pose(0, 0, 0.05, math.pi, 0, 0), 0.10)
        assert isinstance(occ, Complete)

    def test_tilted_partial_roots_lie_on_plane_and_circle(self):
        pose = Pose(0, 0, 0.02, math.pi / 3, 0, 0)
        assert isinstance(classify_occlusion(pose, 0.10), Partial)
        normal = -pose_rotation(pose)[:, 2]
        for phi in arc_ends(pose, 0.10):
            point = np.array([0.10 * math.cos(phi), 0.10 * math.sin(phi), 0.0])
            # on the source circle by construction; verify the plane equation
            assert abs(normal @ (point - pose.translation)) < 1e-12

    def test_partial_angles_sorted_in_range(self):
        pose = Pose(0.01, -0.03, 0.02, 1.0, 0.4, 0.0)
        assert isinstance(classify_occlusion(pose, 0.10), Partial)
        lo, hi = arc_ends(pose, 0.10)
        assert 0.0 < hi - lo < 2 * math.pi

    def test_coplanar_pose_rejected(self):
        with pytest.raises(DegeneratePoseError):
            classify_occlusion(Pose(0.02, 0, 0.0), 0.10)

    @given(st.floats(-3.0, 3.0))
    @settings(max_examples=25)
    def test_invariant_under_own_axis_spin_at_zero_tilt(self, tz):
        # With zero tilt, theta_z rotates the circular object about its own
        # normal, which cannot change the classification.
        base = classify_occlusion(Pose(0.03, 0.02, 0.04), 0.10)
        rolled = classify_occlusion(Pose(0.03, 0.02, 0.04, 0.0, 0.0, tz), 0.10)
        assert type(base) is type(rolled)

    @given(st.floats(-3.0, 3.0))
    @settings(max_examples=25)
    def test_invariant_under_source_axis_rotation(self, gamma):
        # Rotating the whole configuration (translation and orientation)
        # about the source axis is a symmetry of the circular source.
        pose = Pose(0.01, 0.02, 0.03, 0.9, 0.0, 0.0)
        base = classify_occlusion(pose, 0.10)
        rz = rotation_from_euler(0.0, 0.0, gamma)
        rotated = Pose(
            *(rz @ pose.translation),
            *euler_from_rotation(rz @ pose_rotation(pose)),
        )
        assert type(classify_occlusion(rotated, 0.10)) is type(base)

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            classify_occlusion(Pose(0, 0, 0.05), -1.0)

    @given(
        translations=st.lists(
            st.tuples(
                st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-1.0, 1.0)),
                st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-1.0, 1.0)),
                st.one_of(
                    st.sampled_from((0.0, -0.0, 1e-12, -1e-12, 5e-13, -5e-13, 5e-324)),
                    st.floats(-1.0, 1.0),
                ),
            ),
            min_size=1,
            max_size=8,
        ),
        signs=st.lists(st.sampled_from((0.0, -0.0)), min_size=3, max_size=3),
        radius=st.floats(1e-3, 1.0),
    )
    @settings(max_examples=200)
    def test_zero_rotation_reduces_to_the_sign_of_p3(self, translations, signs, radius):
        """At theta = 0 exactly (either sign of zero) no pose is Partial, a
        pose is Complete iff p3 <= 0 and coplanar iff |p3| < 1e-12: the
        reduction the kernel's zero-rotation blocks use in place of this
        test."""
        p3 = np.array([t[2] for t in translations])
        rotations = np.repeat(rotation_from_euler(*signs)[None], len(p3), axis=0)
        occ = classify_occlusions(rotations, np.array(translations), radius)
        assert not occ.partial.any()
        assert (occ.complete == (p3 <= 0.0)).all()
        assert (occ.coplanar == (np.abs(p3) < 1e-12)).all()


class TestFourierFit:
    def test_circle_has_pure_fundamental(self):
        radius = 0.02
        w = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        pts = radius * np.stack([np.cos(w), np.sin(w)], axis=1)
        # orders -1, 0, 1: a counterclockwise circle is r exp(-2 pi i (-1) phi)
        c = np.abs(fourier_fit(pts, 1).coefficients)
        assert c[0] == pytest.approx(radius, rel=1e-9)
        assert c[1] < 1e-9 * radius and c[2] < 1e-9 * radius

    def test_circle_higher_harmonics_vanish(self):
        radius = 0.02
        w = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        pts = radius * np.stack([np.cos(w), np.sin(w)], axis=1)
        contour = fourier_fit(pts, 5)
        higher = np.abs(contour.orders) >= 2
        assert np.abs(contour.coefficients[higher]).max() < 1e-9 * radius

    def test_square_residual_improves_with_harmonics(self):
        side = np.linspace(-1.0, 1.0, 50, endpoint=False)
        square = np.concatenate(
            [
                np.stack([side, -np.ones_like(side)], axis=1),
                np.stack([np.ones_like(side), side], axis=1),
                np.stack([-side, np.ones_like(side)], axis=1),
                np.stack([-np.ones_like(side), -side], axis=1),
            ]
        )

        def max_residual(contour):
            seg = np.linalg.norm(np.diff(np.vstack([square, square[:1]]), axis=0), axis=1)
            phi = np.concatenate([[0.0], np.cumsum(seg[:-1])]) / seg.sum()
            return np.abs(contour.local_point(phi) - square).max()

        assert max_residual(fourier_fit(square, 5)) < max_residual(fourier_fit(square, 2))

    def test_collinear_points_rejected(self):
        with pytest.raises(ValueError):
            fourier_fit(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), 1)

    def test_too_few_points_rejected(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(ValueError):
            fourier_fit(pts, 2)

    def test_self_intersecting_rejected(self):
        bowtie = np.array(
            [[0, 0], [2, 2], [2, 0], [0, 2], [-1, 1], [-2, 1.5], [-2.5, 0.2], [-1, -0.5]],
            dtype=float,
        )
        with pytest.raises(ValueError):
            fourier_fit(bowtie, 2)

    def test_orientation_normalized(self):
        w = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        clockwise = 0.02 * np.stack([np.cos(-w), np.sin(-w)], axis=1)
        contour = fourier_fit(clockwise, 3)
        assert contour.area > 0.0


def posed_point(contour, pose, param):
    """World point of a posed contour: R @ (local x, local y, 0) + p."""
    local = np.append(contour.local_point(param), 0.0)
    return pose_rotation(pose) @ local + pose.translation


class TestContourEval:
    """Local contour points and tangents, posed by R = Rz @ Ry @ Rx."""

    def test_source_circle_point_and_differential(self):
        contour = CircleContour(0.10)
        # circle lying in the source plane: point (r,0,0), d/dw (0,r,0)
        assert np.allclose(posed_point(contour, Pose(0, 0, 0.0), 0.0), [0.10, 0.0, 0.0])
        assert np.allclose(contour.local_tangent(0.0), [0.0, 0.10])

    def test_translated_circle(self):
        contour = CircleContour(0.02)
        pose = Pose(0.01, -0.03, 0.07)
        point = posed_point(contour, pose, math.pi / 2)
        assert np.allclose(point, [0.01, 0.02 - 0.03, 0.07])

    def test_fourier_circle_matches_analytic(self):
        radius = 0.02
        w = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        pts = radius * np.stack([np.cos(w), np.sin(w)], axis=1)
        contour = fourier_fit(pts, 3)
        point = posed_point(contour, Pose(0, 0, 0.05), 0.25)
        assert abs(np.linalg.norm(point[:2]) - radius) < 1e-6 * radius

    @pytest.mark.parametrize("kind", ["circle", "fourier"])
    def test_closed_curve_tangent_integrates_to_zero(self, kind, bunny_contour):
        contour = CircleContour(0.02) if kind == "circle" else bunny_contour
        pose = Pose(0.01, 0.02, 0.06, 0.3, -0.2, 0.5)
        params = np.linspace(0.0, contour.period, 4001)
        rotation = pose_rotation(pose)
        local = contour.local_tangent(params)
        tangent = np.concatenate([local, np.zeros((len(params), 1))], axis=1) @ rotation.T
        integral = np.trapezoid(tangent, params, axis=0)
        assert np.linalg.norm(integral) < 1e-9

    def test_rotated_pose_rotates_points(self):
        contour = CircleContour(0.02)
        pose = Pose(0.0, 0.0, 0.05, math.pi / 2, 0.0, 0.0)
        point = posed_point(contour, pose, math.pi / 2)
        # local (0, r, 0) rotated by Rx(pi/2) -> (0, 0, r)
        assert np.allclose(point, [0.0, 0.0, 0.05 + 0.02], atol=1e-12)


class TestFourierContourShape:
    def test_closure(self, bunny_contour):
        start = bunny_contour.local_point(0.0)
        end = bunny_contour.local_point(1.0 - 1e-12)
        assert np.linalg.norm(end - start) < 1e-9

    def test_fit_quality_on_smooth_blob(self):
        pts = star_polyline(0.018, BUNNY_BUMPS)
        contour = fourier_fit(pts, 5)
        seg = np.linalg.norm(np.diff(np.vstack([pts, pts[:1]]), axis=0), axis=1)
        phi = np.concatenate([[0.0], np.cumsum(seg[:-1])]) / seg.sum()
        residual = np.abs(contour.local_point(phi) - pts).max()
        assert residual < 0.1 * 0.018
