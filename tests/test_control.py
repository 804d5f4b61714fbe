import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thermoservo import (
    AdaptiveState,
    Gains,
    Pose,
    QuadratureSpec,
    VelocityLimits,
    adaptive_control,
    adaptive_lyapunov,
    adaptive_update,
    damped_pseudoinverse,
    l_parallel,
    lambdas,
    model_based_control,
    vf_parallel_disks,
)
from thermoservo.control import _clamp

from conftest import temperature_rate

R1, R2 = 0.10, 0.015
SPEC = QuadratureSpec(32)
WIDE_LIMITS = VelocityLimits(max_translation=1e6, max_rotation=1e6)


class TestDampedPseudoinverse:
    def test_unit_row(self):
        m = np.array([[1.0, 0.0, 0.0]])
        assert np.allclose(damped_pseudoinverse(m, 0.0), m.T)

    def test_zero_row_damped_limit(self):
        m = np.zeros((1, 3))
        assert np.allclose(damped_pseudoinverse(m, 1e-6), np.zeros((3, 1)))

    def test_right_inverse_residual(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(2, 6))
        pinv = damped_pseudoinverse(m, 0.0)
        assert np.linalg.norm(m @ pinv - np.eye(2)) < 1e-10

    def test_rank_deficient_needs_damping(self):
        m = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])
        with pytest.raises(ValueError):
            damped_pseudoinverse(m, 0.0)
        damped = damped_pseudoinverse(m, 1e-6)
        assert np.isfinite(damped).all()

    def test_tall_matrix_rejected(self):
        with pytest.raises(ValueError):
            damped_pseudoinverse(np.ones((4, 2)), 0.0)


class TestModelBasedControl:
    def test_equilibrium_gives_zero_velocity(self):
        out = model_based_control(
            np.array([[1.0, 0.0, -2.0]]),
            v=np.zeros(1),
            dtau=np.zeros(1),
            t_cubed=np.array([300.0**3]),
            lambda2s=np.array([1e-13]),
            gains=Gains(),
        )
        assert np.allclose(out.u, 0.0)
        assert out.lyapunov == 0.0
        assert not out.clamped

    def test_one_step_closed_loop_matches_design(self, aluminum_lambdas, bench_env):
        """v-dot after substituting the control equals -D v - K dtau."""
        gains = Gains(d=0.2, k=0.05)
        pose = Pose(0.0, 0.0, 0.06)
        temp = 310.0
        target = 315.0
        lam = aluminum_lambdas
        row = l_parallel(pose, R1, R2, lam.lambda1, SPEC)
        f0 = vf_parallel_disks(pose, R1, R2, SPEC).value
        v0 = temperature_rate(f0, temp, lam)
        out = model_based_control(
            row[None, :],
            np.array([v0]),
            np.array([temp - target]),
            np.array([temp**3]),
            np.array([lam.lambda2]),
            gains,
            damping=0.0,
            limits=WIDE_LIMITS,
        )
        dt = 1e-7  # u is enormous; keep the pose displacement small
        new_pose = Pose.from_vector(pose.as_vector()[:3].tolist() + [0, 0, 0])
        x = new_pose.as_vector()
        x[:3] += out.u * dt
        f1 = vf_parallel_disks(Pose.from_vector(x), R1, R2, SPEC).value
        temp1 = temp + v0 * dt
        v1 = temperature_rate(f1, temp1, lam)
        v_dot = (v1 - v0) / dt
        expected = -gains.d * v0 - gains.k * (temp - target)
        assert v_dot == pytest.approx(expected, rel=1e-3)

    def test_lyapunov_value(self):
        out = model_based_control(
            np.array([[1.0, 0.0, 0.0]]),
            v=np.array([0.3]),
            dtau=np.array([-2.0]),
            t_cubed=np.array([300.0**3]),
            lambda2s=np.array([1e-13]),
            gains=Gains(d=0.2, k=0.05),
            limits=WIDE_LIMITS,
        )
        assert out.lyapunov == pytest.approx(0.5 * 0.09 + 0.5 * 0.05 * 4.0)

    def test_translation_clamp_records_flag(self):
        out = model_based_control(
            np.array([[1e-6, 0.0, 0.0]]),
            v=np.zeros(1),
            dtau=np.array([50.0]),
            t_cubed=np.array([300.0**3]),
            lambda2s=np.array([1e-13]),
            gains=Gains(),
            limits=VelocityLimits(max_translation=0.05, max_rotation=0.2),
        )
        assert out.clamped
        assert np.linalg.norm(out.u[:3]) == pytest.approx(0.05)

    def test_non_finite_command_is_left_unscaled_and_unflagged(self):
        """A right-hand side that overflows gives an infinite command; the
        clamp neither scales it into NaN nor flags it."""
        with np.errstate(over="ignore"):
            out = model_based_control(
                np.array([[1.0, -1.0, 0.5]]),
                v=np.zeros(1),
                dtau=np.array([10.0]),
                t_cubed=np.array([300.0**3]),
                lambda2s=np.array([1e-13]),
                gains=Gains(d=0.2, k=1e308),
                limits=VelocityLimits(max_translation=0.05, max_rotation=0.2),
            )
        assert out.u.tolist() == [-np.inf, np.inf, -np.inf]
        assert not out.clamped


class TestAdaptiveControl:
    def test_equilibrium_gives_zero_velocity(self):
        state = AdaptiveState(np.array([5.0]), np.array([2e-10]))
        out = adaptive_control(
            np.array([[0.5, 0.0, -2.0]]),
            v=np.zeros(1),
            dtau=np.zeros(1),
            t_cubed=np.array([300.0**3]),
            adaptive=state,
            gains=Gains(),
        )
        assert np.allclose(out.u, 0.0)
        assert np.allclose(out.zeta, 0.0)

    def test_direct_substitution(self):
        """zeta=1 with zero estimates: u = J+ (-K zeta) = -K J^T for a unit row."""
        state = AdaptiveState(np.array([0.0]), np.array([0.0]))
        j_row = np.array([[1.0, 0.0, 0.0]])
        out = adaptive_control(
            j_row,
            v=np.array([1.0]),
            dtau=np.array([0.0]),
            t_cubed=np.array([300.0**3]),
            adaptive=state,
            gains=Gains(k=0.15, mu=0.05),
            damping=0.0,
            limits=WIDE_LIMITS,
        )
        assert np.allclose(out.zeta, [1.0])
        assert np.allclose(out.u, -0.15 * j_row[0])

    def test_update_rule_vanishes_at_rest(self):
        da1, da2 = adaptive_update(
            np.zeros(2), np.array([1.0, -1.0]), np.full(2, 300.0**3), Gains(), 1.0
        )
        assert np.allclose(da1, 0.0) and np.allclose(da2, 0.0)

    def test_update_rule_direct_case(self):
        gains = Gains(mu=0.05, gamma1=1.0, gamma2=1.0)
        da1, da2 = adaptive_update(
            np.array([1.0]), np.array([1.0]), np.array([300.0**3]), gains, 1.0
        )
        assert da1[0] == pytest.approx(0.05)
        assert da2[0] == pytest.approx(-4.0 * 300.0**3)

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            adaptive_update(np.ones(1), np.ones(1), np.ones(1), Gains(), 0.0)


class TestAdaptiveLyapunovDecay:
    def test_h_dot_equals_minus_k_zeta_squared(self, printed_sheet, bench_env):
        """Continuous exact closed loop: dH/dt tracks -K ||zeta||^2."""
        lam = lambdas(printed_sheet, bench_env)
        true_a1 = np.array([1.0 / lam.lambda1])
        true_a2 = np.array([lam.lambda2 / lam.lambda1])
        gains = Gains(d=0.2, k=0.15, mu=0.05, gamma1=0.5, gamma2=1e-18)
        state = AdaptiveState(true_a1 * 1.8, true_a2 * 0.6)
        pose = np.array([0.0, 0.0, 0.08])
        temp = 310.0
        target = 315.0
        dt = 2e-3
        h_values, zeta_values = [], []
        for _ in range(400):
            f0 = vf_parallel_disks(Pose(*pose), R1, R2, SPEC).value
            v = temperature_rate(f0, temp, lam)
            grad = l_parallel(Pose(*pose), R1, R2, 1.0, SPEC)  # J row
            out = adaptive_control(
                grad[None, :],
                np.array([v]),
                np.array([temp - target]),
                np.array([temp**3]),
                state,
                gains,
                damping=0.0,
                limits=WIDE_LIMITS,
            )
            h_values.append(adaptive_lyapunov(out.zeta, state, true_a1, true_a2, gains))
            zeta_values.append(float(out.zeta[0]))
            da1, da2 = adaptive_update(
                np.array([v]), out.zeta, np.array([temp**3]), gains, dt
            )
            state = AdaptiveState(state.a1_hat + da1, state.a2_hat + da2)
            pose = pose + out.u * dt
            temp += v * dt
        h = np.array(h_values)
        zeta = np.array(zeta_values)
        dh_dt = np.diff(h) / dt
        predicted = -gains.k * zeta[:-1] ** 2
        # skip the first few steps where the discrete loop is still settling
        scale = np.abs(predicted[5:]).max()
        assert np.abs(dh_dt[5:] - predicted[5:]).max() < 0.02 * scale
        assert np.all(np.diff(h) < 1e-12)


class TestClosedLoopHomogeneity:
    def test_row_scaling_leaves_design_dynamics_unchanged(self):
        """v-dot = L u - 4 T Lambda v is invariant to row scaling of L
        (the pseudoinverse compensates) at full row rank and zero damping."""
        rng = np.random.default_rng(9)
        gains = Gains(d=0.2, k=0.05)
        v = rng.normal(size=2) * 1e-3
        dtau = rng.normal(size=2)
        t_cubed = np.array([305.0**3, 312.0**3])
        lambda2s = np.array([3e-13, 2.2e-11])
        l_matrix = rng.normal(size=(2, 6)) * 1e-3

        def closed_loop_vdot(matrix):
            out = model_based_control(
                matrix, v, dtau, t_cubed, lambda2s, gains, damping=0.0, limits=WIDE_LIMITS
            )
            return matrix @ out.u - 4.0 * t_cubed * lambda2s * v

        reference = closed_loop_vdot(l_matrix)
        assert np.allclose(reference, -gains.d * v - gains.k * dtau, rtol=1e-9)
        scaled = closed_loop_vdot(np.diag([3.0, 0.2]) @ l_matrix)
        assert np.allclose(scaled, reference, rtol=1e-9)


class TestSampledLoopBound:
    """The law imposes v-dot = -d v - k dtau; a loop that holds u over the
    control period h steps these dynamics by forward Euler, whose matrix
    [[1 - h d, -h k], [h, 1]] has determinant 1 - h d + h^2 k: stable only
    for h < d/k (4 s at d = 0.2, k = 0.05)."""

    @staticmethod
    def final_error(h: float, periods: int = 400) -> float:
        """|dtau| after `periods` periods of a linear stand-in plant from
        dtau = -5 K at rest; no period clamps."""
        gains = Gains(d=0.2, k=0.05)
        l_row = np.array([[0.4, -0.2, 1.0]])
        t_cubed = np.array([320.0**3])
        lambda2s = np.array([3e-13])
        v, dtau = np.zeros(1), np.array([-5.0])
        for _ in range(periods):
            out = model_based_control(
                l_row, v, dtau, t_cubed, lambda2s, gains,
                damping=0.0, limits=VelocityLimits(max_translation=1e9, max_rotation=1e9),
            )
            assert not out.clamped
            v_dot = l_row @ out.u - 4.0 * t_cubed * lambda2s * v
            v, dtau = v + h * v_dot, dtau + h * v
        return abs(float(dtau[0]))

    def test_stable_only_below_d_over_k(self):
        assert self.final_error(3.6) < 1e-5  # 0.9 d/k: decays
        assert 1.0 < self.final_error(4.0) < 10.0  # d/k: |eigenvalue| 1, neither
        assert self.final_error(4.4) > 1e6  # 1.1 d/k: diverges


class TestValidation:
    def test_gains_positive(self):
        with pytest.raises(ValueError):
            Gains(d=0.0)
        with pytest.raises(ValueError):
            Gains(gamma2=-1.0)

    def test_limits_positive(self):
        with pytest.raises(ValueError):
            VelocityLimits(max_translation=0.0)

    def test_adaptive_state_shape(self):
        with pytest.raises(ValueError):
            AdaptiveState(np.ones(2), np.ones(3))


def reference_solve(matrix, rhs, damping):
    """M^T (M M^T + damping I)^-1 rhs through LAPACK, the solve the laws
    ran before, and the Gram matrix's condition number."""
    gram = matrix @ matrix.T + damping * np.eye(len(matrix))
    return matrix.T @ np.linalg.solve(gram, rhs), np.linalg.cond(gram)


def reference_clamp(u, limits):
    """The clamp on numpy norms, as the laws clamped before."""
    out = np.array(u, dtype=float)
    for block, limit in ((out[:3], limits.max_translation), (out[3:], limits.max_rotation)):
        norm = np.linalg.norm(block)
        if norm > limit:
            block *= limit / norm
    return out


# A seed, K objects and the controlled DOF, and whether the Gram matrix is
# undamped (a full-rank draw) or damped.
solve_cases = st.tuples(
    st.integers(0, 2**32 - 1), st.integers(1, 3), st.sampled_from([3, 6]), st.booleans()
)


def draw_case(seed, k, dof, undamped):
    """A K x dof matrix with rows of different scales, a damping, and K-vectors
    v, dtau, T^3 and positive per-object parameters near the loop's."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(k, dof)) * 10.0 ** rng.uniform(-3, 1, (k, 1))
    damping = 0.0 if undamped else 10.0 ** rng.uniform(-8, 0)
    v = rng.normal(size=k) * 10.0 ** rng.uniform(-4, -1)
    dtau = rng.normal(size=k) * 10.0 ** rng.uniform(-2, 1)
    t_cubed = rng.uniform(290.0, 340.0, k) ** 3
    params = 10.0 ** rng.uniform(-1, 1, (3, k)) * np.array([[1e-13], [5.0], [2e-10]])
    return rng, matrix, damping, v, dtau, t_cubed, params


class TestFixedOrderSolveAgainstLapack:
    """The Python-float solve, clamp and laws against the numpy code they
    replace: equal to rounding, the bound scaling with the Gram matrix's
    condition number (both solves are backward stable)."""

    @staticmethod
    def assert_close(got, expected, cond):
        scale = np.abs(expected).max()
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-14 * cond * scale)

    @given(solve_cases)
    @settings(max_examples=80, deadline=None)
    def test_pseudoinverse_applied_to_a_vector(self, case):
        rng, matrix, damping, *_ = draw_case(*case)
        rhs = rng.normal(size=len(matrix))
        expected, cond = reference_solve(matrix, rhs, damping)
        got = damped_pseudoinverse(matrix, damping, rhs)
        assert isinstance(got, list) and len(got) == matrix.shape[1]
        self.assert_close(got, expected, cond)
        gram = matrix @ matrix.T + damping * np.eye(len(matrix))
        self.assert_close(
            damped_pseudoinverse(matrix, damping), np.linalg.solve(gram, matrix).T, cond
        )

    @given(solve_cases)
    @settings(max_examples=80, deadline=None)
    def test_model_based_law(self, case):
        rng, matrix, damping, v, dtau, t_cubed, (lambda2s, _, _) = draw_case(*case)
        gains = Gains(d=0.2, k=0.05)
        rhs = -gains.d * v - gains.k * dtau + 4.0 * t_cubed * lambda2s * v
        raw, cond = reference_solve(matrix, rhs, damping)
        limits = self.limits_near(rng, raw)
        out = model_based_control(matrix, v, dtau, t_cubed, lambda2s, gains, damping, limits)
        self.assert_close(out.u, reference_clamp(raw, limits), cond)
        assert out.clamped == (not np.array_equal(reference_clamp(raw, limits), raw))
        assert out.lyapunov == pytest.approx(
            0.5 * float(v @ v) + 0.5 * gains.k * float(dtau @ dtau), rel=1e-14
        )

    @given(solve_cases)
    @settings(max_examples=80, deadline=None)
    def test_adaptive_law(self, case):
        rng, matrix, damping, v, dtau, t_cubed, (_, a1, a2) = draw_case(*case)
        gains = Gains(k=0.15, mu=0.05)
        zeta = v + gains.mu * dtau
        rhs = -gains.mu * a1 * v - gains.k * zeta + 4.0 * t_cubed * a2 * v
        raw, cond = reference_solve(matrix, rhs, damping)
        limits = self.limits_near(rng, raw)
        out = adaptive_control(
            matrix, v, dtau, t_cubed, AdaptiveState(a1, a2), gains, damping, limits
        )
        np.testing.assert_array_equal(out.zeta, zeta)
        self.assert_close(out.u, reference_clamp(raw, limits), cond)
        assert out.clamped == (not np.array_equal(reference_clamp(raw, limits), raw))

    @given(st.integers(0, 2**32 - 1), st.sampled_from([3, 6]))
    @settings(max_examples=80, deadline=None)
    def test_clamp(self, seed, dof):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=dof) * 10.0 ** rng.uniform(-4, 1)
        limits = self.limits_near(rng, u)
        got, clamped = _clamp(u.tolist(), limits)
        expected = reference_clamp(u, limits)
        np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0.0)
        assert clamped == (not np.array_equal(expected, u))

    @staticmethod
    def limits_near(rng, u):
        """Limits from half to twice each block's norm, away from rounding
        of it, so that about half the draws clamp."""
        norms = [np.linalg.norm(u[:3]), np.linalg.norm(u[3:])]
        ratios = rng.uniform(0.5, 2.0, 2)
        assume(all(abs(r - 1.0) > 1e-9 for r in ratios) and norms[0] > 0.0)
        return VelocityLimits(norms[0] * ratios[0], (norms[1] or 1.0) * ratios[1])

    @given(solve_cases, st.sampled_from([np.inf, -np.inf, np.nan]))
    @settings(max_examples=60, deadline=None)
    def test_non_finite_rhs_gives_non_finite_u_and_never_raises(self, case, bad):
        rng, matrix, damping, v, dtau, t_cubed, (lambda2s, a1, a2) = draw_case(*case)
        rhs = rng.normal(size=len(matrix))
        rhs[rng.integers(len(rhs))] = bad
        assert not np.isfinite(damped_pseudoinverse(matrix, damping, rhs)).any()
        v = v.copy()
        v[rng.integers(len(v))] = bad
        laws = (
            model_based_control(matrix, v, dtau, t_cubed, lambda2s, Gains(), damping),
            adaptive_control(matrix, v, dtau, t_cubed, AdaptiveState(a1, a2), Gains(), damping),
        )
        for out in laws:
            assert not np.isfinite(out.u).any()
            assert not out.clamped
