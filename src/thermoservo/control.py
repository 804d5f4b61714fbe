"""Velocity controllers that regulate object temperatures by moving the pose.

Two laws are provided. The model-based law cancels the known quartic
radiative damping and imposes spring-damper error dynamics; it needs the
true thermophysical parameters. The adaptive law works with the
parameter-free interaction matrix and estimates the per-object parameters
a1 = 1/lambda1 and a2 = lambda2/lambda1 online with Lyapunov update rules.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Gains:
    """Controller gains; all strictly positive.

    d and k shape the model-based spring-damper response; mu weights the
    combined thermal error of the adaptive law; gamma1/gamma2 are the
    adaptive learning rates.
    """

    d: float = 0.2
    k: float = 0.05
    mu: float = 0.05
    gamma1: float = 1.0
    gamma2: float = 1.0

    def __post_init__(self) -> None:
        for name in ("d", "k", "mu", "gamma1", "gamma2"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"gain {name} must be positive")


@dataclass(frozen=True)
class VelocityLimits:
    """Cartesian rate clamp emulating robot limits.

    Clamping voids the per-step Lyapunov decrease guarantee, so it is
    recorded in the control output diagnostics.
    """

    max_translation: float = 0.05  # m/s
    max_rotation: float = 0.2  # rad/s

    def __post_init__(self) -> None:
        if self.max_translation <= 0.0 or self.max_rotation <= 0.0:
            raise ValueError("velocity limits must be positive")


@dataclass
class AdaptiveState:
    """Per-object estimates of a1 = 1/lambda1 and a2 = lambda2/lambda1."""

    a1_hat: np.ndarray
    a2_hat: np.ndarray

    def __post_init__(self) -> None:
        self.a1_hat = np.asarray(self.a1_hat, dtype=float).reshape(-1)
        self.a2_hat = np.asarray(self.a2_hat, dtype=float).reshape(-1)
        if self.a1_hat.shape != self.a2_hat.shape:
            raise ValueError("estimate vectors must have matching length")
        if not (np.isfinite(self.a1_hat).all() and np.isfinite(self.a2_hat).all()):
            raise ValueError("estimates must be finite")


@dataclass(frozen=True)
class ControlOutput:
    """Commanded Cartesian velocity plus loop diagnostics."""

    u: np.ndarray
    lyapunov: float | None
    clamped: bool
    zeta: np.ndarray | None = None


def damped_pseudoinverse(matrix: np.ndarray, damping: float = 1e-6) -> np.ndarray:
    """Damped right pseudoinverse M^T (M M^T + damping I)^-1 for wide matrices.

    With damping = 0 and full row rank this is the exact Moore-Penrose
    pseudoinverse (M @ M_pinv = I).

    Raises:
        ValueError: More rows than columns, or damping = 0 with a
            rank-deficient matrix (callers near singularities must damp).
    """
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    n_rows, n_cols = m.shape
    if n_rows > n_cols:
        raise ValueError("pseudoinverse expects a wide matrix (N <= n)")
    if damping < 0.0:
        raise ValueError("damping must be non-negative")
    if damping == 0.0 and np.linalg.matrix_rank(m) < n_rows:
        raise ValueError("rank-deficient matrix with zero damping")
    gram = m @ m.T + damping * np.eye(n_rows)
    return np.linalg.solve(gram, m).T


def _clamp(u: np.ndarray, limits: VelocityLimits) -> tuple[np.ndarray, bool]:
    """u with its translation and rotation blocks scaled down to their
    limits, and whether either was. A non-finite u is returned unscaled and
    unflagged; `run_simulation` reports it."""
    out = u.copy()
    clamped = False
    if np.isfinite(out).all():
        for block, limit in ((out[:3], limits.max_translation), (out[3:], limits.max_rotation)):
            norm = float(np.linalg.norm(block))
            if norm > limit:
                block *= limit / norm
                clamped = True
    return out, clamped


def model_based_control(
    l_matrix: np.ndarray,
    v: np.ndarray,
    dtau: np.ndarray,
    t_cubed: np.ndarray,
    lambda2s: np.ndarray,
    gains: Gains,
    damping: float = 1e-6,
    limits: VelocityLimits = VelocityLimits(),
) -> ControlOutput:
    """Model-based velocity law u = L+ (-D v - K dtau + 4 T Lambda v).

    The diagnostic Lyapunov value is Q = 0.5 ||v||^2 + 0.5 K ||dtau||^2,
    which is non-increasing along the exact-model closed loop.
    """
    l_matrix = np.atleast_2d(np.asarray(l_matrix, dtype=float))
    v = np.asarray(v, dtype=float).reshape(-1)
    dtau = np.asarray(dtau, dtype=float).reshape(-1)
    t_cubed = np.asarray(t_cubed, dtype=float).reshape(-1)
    lambda2s = np.asarray(lambda2s, dtype=float).reshape(-1)
    if np.any(lambda2s <= 0.0):
        raise ValueError("lambda2 values must be positive")
    rhs = -gains.d * v - gains.k * dtau + 4.0 * t_cubed * lambda2s * v
    u_raw = damped_pseudoinverse(l_matrix, damping) @ rhs
    u, clamped = _clamp(u_raw, limits)
    q = 0.5 * float(v @ v) + 0.5 * gains.k * float(dtau @ dtau)
    return ControlOutput(u=u, lyapunov=q, clamped=clamped)


def adaptive_control(
    j_matrix: np.ndarray,
    v: np.ndarray,
    dtau: np.ndarray,
    t_cubed: np.ndarray,
    adaptive: AdaptiveState,
    gains: Gains,
    damping: float = 1e-6,
    limits: VelocityLimits = VelocityLimits(),
) -> ControlOutput:
    """Adaptive velocity law u = J+ (-mu A1_hat v - K zeta + 4 T A2_hat v).

    zeta = v + mu * dtau is the combined thermal error. The Lyapunov
    diagnostic needs the true parameters and is therefore left to the
    caller (see adaptive_lyapunov); lyapunov is None here.
    """
    j_matrix = np.atleast_2d(np.asarray(j_matrix, dtype=float))
    v = np.asarray(v, dtype=float).reshape(-1)
    dtau = np.asarray(dtau, dtype=float).reshape(-1)
    t_cubed = np.asarray(t_cubed, dtype=float).reshape(-1)
    zeta = v + gains.mu * dtau
    rhs = (
        -gains.mu * adaptive.a1_hat * v
        - gains.k * zeta
        + 4.0 * t_cubed * adaptive.a2_hat * v
    )
    u_raw = damped_pseudoinverse(j_matrix, damping) @ rhs
    u, clamped = _clamp(u_raw, limits)
    return ControlOutput(u=u, lyapunov=None, clamped=clamped, zeta=zeta)


def adaptive_update(
    v: np.ndarray,
    zeta: np.ndarray,
    t_cubed: np.ndarray,
    gains: Gains,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One explicit Euler step of the adaptive parameter update rules.

    da1/dt = gamma1 * mu * v_i * zeta_i
    da2/dt = -4 * gamma2 * v_i * zeta_i * T_i^3

    Returns:
        (delta_a1, delta_a2) increments for the estimate vectors.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    v = np.asarray(v, dtype=float).reshape(-1)
    zeta = np.asarray(zeta, dtype=float).reshape(-1)
    t_cubed = np.asarray(t_cubed, dtype=float).reshape(-1)
    da1 = dt * gains.gamma1 * gains.mu * v * zeta
    da2 = dt * (-4.0) * gains.gamma2 * v * zeta * t_cubed
    return da1, da2


def adaptive_lyapunov(
    zeta: np.ndarray,
    adaptive: AdaptiveState,
    true_a1: np.ndarray,
    true_a2: np.ndarray,
    gains: Gains,
) -> float:
    """Energy H = 0.5 zeta^T A1 zeta + estimate-error terms.

    Only computable in simulation, where the true parameters are known; its
    continuous-time derivative along the adaptive closed loop is
    -K ||zeta||^2.
    """
    zeta = np.asarray(zeta, dtype=float).reshape(-1)
    true_a1 = np.asarray(true_a1, dtype=float).reshape(-1)
    true_a2 = np.asarray(true_a2, dtype=float).reshape(-1)
    err1 = adaptive.a1_hat - true_a1
    err2 = adaptive.a2_hat - true_a2
    return (
        0.5 * float(zeta @ (true_a1 * zeta))
        + 0.5 / gains.gamma1 * float(err1 @ err1)
        + 0.5 / gains.gamma2 * float(err2 @ err2)
    )
