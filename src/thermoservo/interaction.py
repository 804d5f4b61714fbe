"""Thermal interaction matrices: temperature-rate sensitivity to pose rates.

A row l = lambda1 * d(F21)/dx maps end-effector velocity to the object's
temperature-rate change. Rows are stacked into L for the model-based
controller; dividing each row by its lambda1 gives the parameter-free
matrix J built from view-factor gradients alone.
"""
from __future__ import annotations

import math

import numpy as np

from .geometry import DegeneratePoseError, Pose, TWO_PI
from .viewfactor import (
    DEFAULT_SPEC,
    MIN_KERNEL_DISTANCE,
    QuadratureSpec,
    _general_value,
    simpson_2d,
    vf_batch,
)

# Forward-difference perturbations: balance quadrature noise against
# truncation at the centimeter geometry scale of the setup.
DEFAULT_TRANSLATION_STEP = 5e-6  # m
DEFAULT_ROTATION_STEP = 5e-5  # rad


def l_parallel(
    pose: Pose,
    r1: float,
    r2: float,
    lambda1: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> np.ndarray:
    """Analytic-integrand interaction row for parallel circular surfaces.

    The three translation sensitivities are double integrals of the shared
    scalar kernel h = lambda1 * r1 r2 cos(w1 - w2) / (2 pi A2 s^2) against
    the components of the contour-point difference.

    Returns:
        (3,) array: d(rate)/d(p1, p2, p3) in K/s per m/s.
    """
    if pose.theta_x != 0.0 or pose.theta_y != 0.0 or pose.theta_z != 0.0:
        raise ValueError("l_parallel requires a zero-rotation pose")
    if pose.p3 <= 0.0:
        raise ValueError("requires p3 > 0")
    p1, p2, p3 = pose.p1, pose.p2, pose.p3
    area2 = math.pi * r2**2
    prefactor = lambda1 * r1 * r2 / (TWO_PI * area2)

    def make_integrand(component: int):
        def integrand(w1, w2):
            dx = p1 + r2 * np.cos(w2) - r1 * np.cos(w1)
            dy = p2 + r2 * np.sin(w2) - r1 * np.sin(w1)
            s_sq = np.maximum(dx * dx + dy * dy + p3 * p3, MIN_KERNEL_DISTANCE**2)
            g = (dx, dy, p3)[component]
            return np.cos(w1 - w2) / s_sq * g

        return integrand

    ranges = ((0.0, TWO_PI), (0.0, TWO_PI))
    return np.array(
        [
            -prefactor * simpson_2d(make_integrand(k), ranges, spec)
            for k in range(3)
        ]
    )


def view_factor_gradients(
    poses,
    source_radius: float,
    contours,
    spec: QuadratureSpec = DEFAULT_SPEC,
    translation_step: float = DEFAULT_TRANSLATION_STEP,
    rotation_step: float = DEFAULT_ROTATION_STEP,
    indices: tuple[int, ...] = (0, 1, 2, 3, 4, 5),
    base_values=None,
) -> np.ndarray:
    """Forward-difference gradients of F21 for K objects, from one kernel call.

    Row k of `poses` is the pose of the object bounded by `contours[k]`.
    Each component is independently computable; `indices` restricts which
    components are evaluated (the rest stay zero). A component whose forward
    pose is degenerate falls back to a backward difference.

    Args:
        poses: (K, 6) array of object poses.
        contours: K contours.
        base_values: (K,) F21 at the poses, if the caller already has them.

    Returns:
        (K, 6) array, row k = d(F21_k)/d(p1, p2, p3, theta_x, theta_y, theta_z).

    Raises:
        DegeneratePoseError: A base pose degenerate, or both one-sided
            differences of a component degenerate.
    """
    poses = np.asarray(poses, dtype=float)
    contours = tuple(contours)
    forward, steps = _forward_poses(poses, indices, translation_step, rotation_step)
    # One kernel call for the base poses (if needed) and every forward pose.
    batch = forward if base_values is not None else np.concatenate([poses[None], forward])
    values, degenerate = vf_batch(batch.reshape(-1, 6), source_radius, contours, spec)
    values = values.reshape(-1, len(contours))
    degenerate = degenerate.reshape(values.shape)
    if base_values is None:
        if degenerate[0].any():
            k = int(np.argmax(degenerate[0]))
            raise DegeneratePoseError(f"base pose in row {k} is degenerate")
        base_values, values, degenerate = values[0], values[1:], degenerate[1:]
    return _finite_differences(
        poses, base_values, values, degenerate, indices, steps, source_radius, contours, spec
    )


def _forward_poses(
    poses: np.ndarray, indices, translation_step: float, rotation_step: float
) -> tuple[np.ndarray, np.ndarray]:
    """Forward-difference poses of K objects and their steps.

    Returns:
        (forward, steps): forward[d, k] is poses[k] with coordinate
        indices[d] stepped by steps[d]; shapes (D, K, 6) and (D,).
    """
    idx = np.asarray(indices, dtype=int)
    steps = np.where(idx < 3, translation_step, rotation_step)
    forward = np.repeat(poses[None], len(idx), axis=0)
    forward[np.arange(len(idx)), :, idx] += steps[:, None]
    return forward, steps


def _finite_differences(
    poses: np.ndarray,
    base_values,
    values: np.ndarray,
    degenerate: np.ndarray,
    indices,
    steps: np.ndarray,
    source_radius: float,
    contours: tuple,
    spec: QuadratureSpec,
) -> np.ndarray:
    """(K, 6) gradients from the kernel's values and degenerate flags at the
    `_forward_poses` poses, both (D, K). A degenerate forward pose falls
    back to a backward difference from `base_values`, F21 at `poses`.

    Raises:
        DegeneratePoseError: Both one-sided differences of a component
            degenerate.
    """
    idx = np.asarray(indices, dtype=int)
    f0 = np.asarray(base_values, dtype=float)
    grads = np.zeros((len(contours), 6))
    grads[:, idx] = ((values - f0) / steps[:, None]).T
    for k, d in zip(*np.nonzero(degenerate.T)):
        # Forward pose degenerate: fall back to a backward difference.
        i, h = int(idx[d]), float(steps[d])
        backward = poses[k].copy()
        backward[i] -= h
        try:
            f_bwd = _general_value(
                Pose.from_vector(backward), source_radius, contours[k], spec
            )
        except DegeneratePoseError as exc:
            raise DegeneratePoseError(
                f"both perturbations of pose coordinate {i} are degenerate"
            ) from exc
        grads[k, i] = (f0[k] - f_bwd) / h
    return grads


def view_factor_gradient(
    pose: Pose,
    source_radius: float,
    contour,
    spec: QuadratureSpec = DEFAULT_SPEC,
    translation_step: float = DEFAULT_TRANSLATION_STEP,
    rotation_step: float = DEFAULT_ROTATION_STEP,
    indices: tuple[int, ...] = (0, 1, 2, 3, 4, 5),
    base_value: float | None = None,
) -> np.ndarray:
    """Forward-difference gradient of F21 over the 6 pose coordinates: a
    batch of one `view_factor_gradients`.

    Args:
        base_value: F21 at the base pose, if the caller already has it.

    Returns:
        (6,) array d(F21)/d(p1, p2, p3, theta_x, theta_y, theta_z).

    Raises:
        DegeneratePoseError: Base pose degenerate, or both one-sided
            differences of a component degenerate.
    """
    return view_factor_gradients(
        pose.as_vector()[None, :],
        source_radius,
        (contour,),
        spec,
        translation_step,
        rotation_step,
        indices,
        None if base_value is None else (base_value,),
    )[0]


def l_finite_diff(
    pose: Pose,
    source_radius: float,
    contour,
    lambda1: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    translation_step: float = DEFAULT_TRANSLATION_STEP,
    rotation_step: float = DEFAULT_ROTATION_STEP,
    indices: tuple[int, ...] = (0, 1, 2, 3, 4, 5),
) -> np.ndarray:
    """Numerically differentiated interaction row for arbitrary 6-DOF poses.

    Returns:
        (6,) array, lambda1-scaled view-factor gradient.
    """
    return lambda1 * view_factor_gradient(
        pose,
        source_radius,
        contour,
        spec,
        translation_step,
        rotation_step,
        indices,
    )


def assemble(rows, lambda1s) -> tuple[np.ndarray, np.ndarray]:
    """Stack per-object interaction rows into L and the parameter-free J.

    J divides each row by its object's lambda1, so diag(lambda1) @ J
    reproduces L exactly (bit for bit; L is recomposed from J to make the
    identity hold in floating point).

    Args:
        rows: N interaction rows of equal length n, N <= n.
        lambda1s: N positive scalars.

    Returns:
        (L, J): arrays of shape (N, n).
    """
    stacked = np.atleast_2d(np.asarray(rows, dtype=float))
    lam = np.asarray(lambda1s, dtype=float).reshape(-1)
    n_obj, n_dof = stacked.shape
    if lam.shape != (n_obj,):
        raise ValueError("one lambda1 per row required")
    if np.any(lam <= 0.0):
        raise ValueError("lambda1 values must be positive")
    if n_obj > n_dof:
        raise ValueError(
            f"need at least as many DOF as objects (N={n_obj} > n={n_dof})"
        )
    j_matrix = stacked / lam[:, None]
    l_matrix = lam[:, None] * j_matrix
    return l_matrix, j_matrix
