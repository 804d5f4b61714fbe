"""Thermal interaction matrices: temperature-rate sensitivity to pose rates.

A row l = lambda1 * d(F21)/dx maps end-effector velocity to the object's
temperature-rate change. Rows are stacked into L for the model-based
controller; dividing each row by its lambda1 gives the parameter-free
matrix J built from view-factor gradients alone.

The gradient d(F21)/dx comes from the view-factor kernel itself,
`vf_batch(..., dof=3 or 6)`, which differentiates its contour integral;
`view_factor_gradient` is its batch of one. `l_parallel` is the
independent analytic-integrand row for parallel disks: it differentiates
under the integral sign and integrates both boundary circles with the
periodic trapezoid rule, sharing no code with the kernel.
"""
from __future__ import annotations

import math

import numpy as np

from .geometry import DegeneratePoseError, Pose, TWO_PI
from .viewfactor import DEFAULT_SPEC, QuadratureSpec, _parallel_grid, vf_batch


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
    the components (dx, dy, p3) of the contour-point difference, on the
    same n x n periodic trapezoid grid as `vf_parallel_disks`, built once
    for all three.

    Returns:
        (3,) array: d(rate)/d(p1, p2, p3) in K/s per m/s.

    Raises:
        ValueError: Non-zero rotation, non-positive radii, or p3 <= 0.
    """
    n = spec.n_per_dim
    dx, dy, s_sq, cos_dw = _parallel_grid(pose, r1, r2, n)
    kernel = cos_dw / s_sq
    # Trapezoid weight (2 pi / n)^2, A2 = pi r2^2.
    prefactor = lambda1 * r1 * r2 * (TWO_PI / n) ** 2 / (TWO_PI * math.pi * r2**2)
    return -prefactor * np.array(
        [np.sum(kernel * dx), np.sum(kernel * dy), pose.p3 * np.sum(kernel)]
    )


def view_factor_gradient(
    pose: Pose,
    source_radius: float,
    contour,
    spec: QuadratureSpec = DEFAULT_SPEC,
    indices: tuple[int, ...] = (0, 1, 2, 3, 4, 5),
    base_value: float | None = None,
) -> np.ndarray:
    """Gradient of F21 over the 6 pose coordinates: a batch of one
    `vf_batch(..., dof=3)`, or dof=6 if `indices` names an angle.

    Args:
        indices: Components to return; the others are zero.
        base_value: Accepted for callers that pass F21 at the pose; ignored,
            because the kernel computes the value with the gradient.

    Returns:
        (6,) array d(F21)/d(p1, p2, p3, theta_x, theta_y, theta_z).

    Raises:
        DegeneratePoseError: Degenerate pose.
    """
    idx = np.asarray(indices, dtype=int)
    dof = 6 if np.any(idx >= 3) else 3
    _, degenerate, grads = vf_batch(
        pose.as_vector()[None, :], source_radius, contour, spec, dof=dof
    )
    if degenerate[0]:
        raise DegeneratePoseError(f"pose {pose} is degenerate")
    grad = np.zeros(6)
    grad[idx] = grads[0, idx]
    return grad

