"""Shared fixtures: bench materials, environments, contours, oracles and
reference helpers."""
from __future__ import annotations

import math

import numpy as np
import pytest

from thermoservo import (
    CircleContour,
    Environment,
    LambdaParams,
    ThermoParams,
    fourier_fit,
    lambdas,
)
from thermoservo.units import celsius_to_kelvin


def coaxial_disk_view_factor(r_from: float, r_to: float, gap: float) -> float:
    """Closed-form view factor between coaxial parallel disks.

    Standard catalog result: F = (S - sqrt(S^2 - 4 (r_to/r_from)^2)) / 2
    with S = 1 + (1 + R_to^2) / R_from^2 and R = r / gap. Independent of the
    contour-integral code path it is used to check.
    """
    r_from_n = r_from / gap
    r_to_n = r_to / gap
    s = 1.0 + (1.0 + r_to_n**2) / r_from_n**2
    return 0.5 * (s - math.sqrt(s**2 - 4.0 * (r_to / r_from) ** 2))


def temperature_rate(f21: float, temperature: float, lam: LambdaParams) -> float:
    """Right-hand side of the thermal ODE, dT2/dt in K/s: the reference the
    plant, the steady state and the control laws are checked against."""
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    return lam.lambda1 * f21 - lam.lambda2 * temperature**4 + lam.lambda3


def euler_from_rotation(rotation: np.ndarray) -> tuple[float, float, float]:
    """Extrinsic X-Y-Z angles of a rotation matrix, the inverse of
    rotation_from_euler (R = Rz @ Ry @ Rx), for building rotated poses.

    At the gimbal-lock singularity (|R[2,0]| = 1) theta_z is set to 0 and the
    remaining freedom folded into theta_x.
    """
    r = np.asarray(rotation, dtype=float)
    sy = min(1.0, max(-1.0, -r[2, 0]))
    theta_y = math.asin(sy)
    if abs(sy) < 1.0 - 1e-12:
        theta_x = math.atan2(r[2, 1], r[2, 2])
        theta_z = math.atan2(r[1, 0], r[0, 0])
    else:
        theta_x = math.atan2(-r[0, 1], r[1, 1]) * (1.0 if sy > 0 else -1.0)
        theta_z = 0.0
    return theta_x, theta_y, theta_z


def disk_facets(radius: float, n_facets: int) -> tuple[np.ndarray, np.ndarray]:
    """Polar-grid facet centres and areas covering a disk, about n_facets
    cells: the disk mesh the facet-sum oracle used before it meshed every
    contour alike, kept as the reference its circle mesh must reproduce."""
    n_rings = max(2, int(round(math.sqrt(n_facets / math.pi))))
    centers = []
    areas = []
    for k in range(n_rings):
        r_in = radius * k / n_rings
        r_out = radius * (k + 1) / n_rings
        r_mid = 0.5 * (r_in + r_out)
        n_sec = max(
            8, int(round(2.0 * math.pi * max(r_mid, radius / (2 * n_rings)) * n_rings / radius))
        )
        theta = (np.arange(n_sec) + 0.5) * 2.0 * math.pi / n_sec
        # Area centroid radius of an annular sector.
        r_c = (2.0 / 3.0) * (r_out**3 - r_in**3) / (r_out**2 - r_in**2)
        centers.append(np.stack([r_c * np.cos(theta), r_c * np.sin(theta)], axis=1))
        areas.append(np.full(n_sec, 0.5 * (r_out**2 - r_in**2) * 2.0 * math.pi / n_sec))
    return np.concatenate(centers), np.concatenate(areas)


def star_polyline(mean_radius_m: float, bumps, samples: int = 160) -> np.ndarray:
    """Smooth star-shaped closed boundary r(theta) with cosine bumps."""
    theta = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    radius = np.ones_like(theta)
    for amplitude, harmonic, phase in bumps:
        radius = radius + amplitude * np.cos(harmonic * theta + phase)
    radius = radius * mean_radius_m
    return np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)


BUNNY_BUMPS = ((0.18, 2, 0.7), (0.10, 3, 2.1), (0.06, 5, 0.3))
HAND_BUMPS = ((0.12, 4, 0.0), (0.08, 3, 1.2), (0.05, 6, 2.6))


@pytest.fixture(scope="session")
def bench_env() -> Environment:
    """Source at 200 C with emittance 0.25, ambient 23 C."""
    return Environment(
        source_temp=celsius_to_kelvin(200.0),
        source_emittance=0.25,
        ambient_temp=celsius_to_kelvin(23.0),
    )


@pytest.fixture(scope="session")
def aluminum() -> ThermoParams:
    """Bench aluminum disk: r 1.5 cm, 3 mm thick, handbook constants."""
    return ThermoParams.from_disk(
        emittance=0.04,
        absorptance=0.04,
        specific_heat=903.0,
        density=2702.0,
        radius=0.015,
        thickness=0.003,
    )


@pytest.fixture(scope="session")
def aluminum_lambdas(aluminum, bench_env):
    return lambdas(aluminum, bench_env)


@pytest.fixture(scope="session")
def printed_sheet() -> ThermoParams:
    """Fast 3D-printed circular sheet (1 mm PLA-class material)."""
    return ThermoParams.from_disk(
        emittance=0.90,
        absorptance=0.90,
        specific_heat=1800.0,
        density=1250.0,
        radius=0.015,
        thickness=0.001,
    )


@pytest.fixture(scope="session")
def bunny_contour():
    return fourier_fit(star_polyline(0.018, BUNNY_BUMPS), 5)


@pytest.fixture(scope="session")
def hand_contour():
    return fourier_fit(star_polyline(0.016, HAND_BUMPS), 5)


@pytest.fixture(scope="session")
def small_disk() -> CircleContour:
    return CircleContour(0.015)
