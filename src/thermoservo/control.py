"""Velocity controllers that regulate object temperatures by moving the pose.

Two laws are provided. The model-based law cancels the known quartic
radiative damping and imposes spring-damper error dynamics; it needs the
true thermophysical parameters. The adaptive law works with the
parameter-free interaction matrix and estimates the per-object parameters
a1 = 1/lambda1 and a2 = lambda2/lambda1 online with Lyapunov update rules.

A row l = lambda1 * d(F21)/dx maps end-effector velocity to the object's
temperature-rate change. Rows are stacked into L for the model-based
controller; dividing each row by its lambda1 gives the parameter-free
matrix J built from view-factor gradients alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Gains:
    """Controller gains; all finite and strictly positive.

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
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"gain {name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class VelocityLimits:
    """Cartesian rate clamp emulating robot limits.

    Clamping voids the per-step Lyapunov decrease guarantee, so it is
    recorded in the control output diagnostics.
    """

    max_translation: float = 0.05  # m/s
    max_rotation: float = 0.2  # rad/s

    def __post_init__(self) -> None:
        for name in ("max_translation", "max_rotation"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"velocity limit {name} must be finite and positive, got {value}")


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


def _floats(values) -> list[float]:
    """A vector as a list of Python floats."""
    return np.asarray(values, dtype=float).reshape(-1).tolist()


def _dot(a, b) -> float:
    """sum_i a_i b_i, added left to right: a fixed order on every host,
    where a BLAS dot's order depends on the kernel it dispatches to."""
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


# A pivot at or below this share of its diagonal entry of M M^T + damping I
# is rounding, not rank: forming and factoring the Gram matrix of a wide
# matrix over at most 6 coordinates (K <= n <= 6) errs by about
# (n + K + 1) u d = 6.5 eps d (Higham, Accuracy and Stability of Numerical
# Algorithms, ch. 10); 64 eps leaves a ten-fold margin.
_SINGULAR_PIVOT = 64.0 * math.ulp(1.0)


def damped_pseudoinverse(matrix, damping: float, rhs) -> list[float]:
    """The n entries of u = M^T y, (M M^T + damping I) y = rhs, as floats:
    the damped right pseudoinverse of a wide K x n matrix applied to the
    K-vector rhs, without forming it. At damping 0 and full row rank,
    M u = rhs.

    The K x K Gram matrix is factored by Cholesky and solved on Python
    floats in a fixed order, so the bits do not depend on the host's BLAS.
    Its pivots decide singularity: one at or below 64 eps of its diagonal
    entry, or NaN, makes every entry of u NaN (a rank-deficient undamped or
    a non-finite matrix), and the control loop ends the run with
    `non_finite_control`.

    Raises:
        ValueError: More rows than columns, a negative damping, or an rhs
            whose length is not K.
    """
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    n_rows, n_cols = m.shape
    if n_rows > n_cols:
        raise ValueError("pseudoinverse expects a wide matrix (N <= n)")
    if damping < 0.0:
        raise ValueError("damping must be non-negative")
    b = _floats(rhs)
    if len(b) != n_rows:
        raise ValueError(f"rhs needs {n_rows} entries, got {len(b)}")
    rows = m.tolist()
    # Lower Cholesky factor of M M^T + damping I, row by row.
    low = []
    for i, row in enumerate(rows):
        low_row = []
        for j in range(i):
            s = _dot(row, rows[j])
            for k in range(j):
                s -= low_row[k] * low[j][k]
            low_row.append(s / low[j][j])
        s = diagonal = _dot(row, row) + damping
        for k in range(i):
            s -= low_row[k] * low_row[k]
        low_row.append(math.sqrt(s) if s > _SINGULAR_PIVOT * diagonal else math.nan)
        low.append(low_row)
    y = []  # L z = b, then L^T y = z in place from the last row
    for i, low_row in enumerate(low):
        s = b[i]
        for k in range(i):
            s -= low_row[k] * y[k]
        y.append(s / low_row[i])
    for i in reversed(range(n_rows)):
        s = y[i]
        for k in range(i + 1, n_rows):
            s -= low[k][i] * y[k]
        y[i] = s / low[i][i]
    return [_dot(column, y) for column in zip(*rows)]


def _clamp(u: list[float], limits: VelocityLimits) -> tuple[list[float], bool]:
    """u with its translation and rotation blocks scaled down to their
    limits, and whether either was; the norms are sums of squares added in
    order. A non-finite u is returned unscaled and unflagged;
    `run_simulation` reports it."""
    if not all(map(math.isfinite, u)):
        return u, False
    out, clamped = [], False
    for block, limit in ((u[:3], limits.max_translation), (u[3:], limits.max_rotation)):
        norm = math.sqrt(_dot(block, block))
        if norm > limit:
            scale = limit / norm
            block = [x * scale for x in block]
            clamped = True
        out += block
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
    v, dtau, t_cubed, lambda2s = map(_floats, (v, dtau, t_cubed, lambda2s))
    if any(l2 <= 0.0 for l2 in lambda2s):
        raise ValueError("lambda2 values must be positive")
    d, k = gains.d, gains.k
    rhs = [
        -d * vi - k * di + 4.0 * t3 * l2 * vi
        for vi, di, t3, l2 in zip(v, dtau, t_cubed, lambda2s)
    ]
    u, clamped = _clamp(damped_pseudoinverse(l_matrix, damping, rhs), limits)
    q = 0.5 * _dot(v, v) + 0.5 * k * _dot(dtau, dtau)
    return ControlOutput(u=np.array(u), lyapunov=q, clamped=clamped)


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
    v, dtau, t_cubed, a1_hat, a2_hat = map(
        _floats, (v, dtau, t_cubed, adaptive.a1_hat, adaptive.a2_hat)
    )
    mu, k = gains.mu, gains.k
    zeta = [vi + mu * di for vi, di in zip(v, dtau)]
    rhs = [
        -mu * a1 * vi - k * zi + 4.0 * t3 * a2 * vi
        for vi, zi, t3, a1, a2 in zip(v, zeta, t_cubed, a1_hat, a2_hat)
    ]
    u, clamped = _clamp(damped_pseudoinverse(j_matrix, damping, rhs), limits)
    return ControlOutput(u=np.array(u), lyapunov=None, clamped=clamped, zeta=np.array(zeta))


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
    zeta, true_a1, true_a2, a1_hat, a2_hat = map(
        _floats, (zeta, true_a1, true_a2, adaptive.a1_hat, adaptive.a2_hat)
    )
    err1 = [a - b for a, b in zip(a1_hat, true_a1)]
    err2 = [a - b for a, b in zip(a2_hat, true_a2)]
    return (
        0.5 * _dot(zeta, [a * z for a, z in zip(true_a1, zeta)])
        + 0.5 / gains.gamma1 * _dot(err1, err1)
        + 0.5 / gains.gamma2 * _dot(err2, err2)
    )
