"""Lumped radiative thermal plant for gray planar objects.

Maps thermophysical constants to the three rate parameters of the
temperature ODE

    dT2/dt = lambda1 * F21 - lambda2 * T2^4 + lambda3

and integrates that ODE for a (possibly time-varying) view factor. All
temperatures are Kelvin; Celsius exists only at I/O boundaries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

STEFAN_BOLTZMANN = 5.670374419e-8  # W m^-2 K^-4


class ThermalDivergenceError(RuntimeError):
    """Temperature integration produced a non-finite value."""


@dataclass(frozen=True)
class ThermoParams:
    """Per-object thermophysical constants.

    emittance/absorptance are gray-surface fractions in (0, 1];
    specific_heat is J kg^-1 K^-1, mass kg, area m^2.
    """

    emittance: float
    absorptance: float
    specific_heat: float
    mass: float
    area: float

    def __post_init__(self) -> None:
        for name in ("emittance", "absorptance"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {v}")
        for name in ("specific_heat", "mass", "area"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive, got {v}")

    @staticmethod
    def from_disk(
        emittance: float,
        absorptance: float,
        specific_heat: float,
        density: float,
        radius: float,
        thickness: float,
    ) -> "ThermoParams":
        """Constants of a homogeneous disk given material density and size."""
        area = math.pi * radius**2
        return ThermoParams(
            emittance=emittance,
            absorptance=absorptance,
            specific_heat=specific_heat,
            mass=density * area * thickness,
            area=area,
        )


@dataclass(frozen=True)
class Environment:
    """Source and ambient radiative conditions (temperatures in Kelvin)."""

    source_temp: float
    source_emittance: float
    ambient_temp: float

    def __post_init__(self) -> None:
        if not (math.inf > self.source_temp > self.ambient_temp > 0.0):
            raise ValueError("require finite source_temp > ambient_temp > 0")
        if not 0.0 < self.source_emittance <= 1.0:
            raise ValueError("source_emittance must be in (0, 1]")


@dataclass(frozen=True)
class LambdaParams:
    """Rate parameters of the thermal ODE; all strictly positive.

    Units: lambda1 and lambda3 in K/s, lambda2 in K^-3 s^-1.
    """

    lambda1: float
    lambda2: float
    lambda3: float

    def __post_init__(self) -> None:
        for name in ("lambda1", "lambda2", "lambda3"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class ThermalState:
    """Object temperature."""

    temperature: float

    def __post_init__(self) -> None:
        if not (self.temperature > 0.0 and math.isfinite(self.temperature)):
            raise ValueError("temperature must be positive and finite")


def lambdas(obj: ThermoParams, env: Environment) -> LambdaParams:
    """Rate parameters for an object in a given radiative environment.

    Raises:
        ValueError: Source too cold (eps1*T1^4 <= T3^4), which would make
            lambda1 non-positive; the adaptive formulation needs lambda1 > 0.
    """
    drive = env.source_emittance * env.source_temp**4 - env.ambient_temp**4
    if drive <= 0.0:
        raise ValueError(
            "source too cold: eps1*T1^4 must exceed T3^4 for lambda1 > 0"
        )
    scale = obj.area * STEFAN_BOLTZMANN / (obj.mass * obj.specific_heat)
    return LambdaParams(
        lambda1=scale * obj.absorptance * drive,
        lambda2=scale * obj.emittance,
        lambda3=scale * obj.absorptance * env.ambient_temp**4,
    )


def integrate_thermal(
    state: ThermalState,
    f21_of_t: Callable[[float], float],
    lam: LambdaParams,
    dt: float,
    steps: int,
    t0: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the thermal ODE with the classical 4th-order one-step method.

    Args:
        state: Initial state at time t0.
        f21_of_t: View factor as a function of absolute time.
        lam: Rate parameters.
        dt: Step size in seconds (> 0).
        steps: Number of steps.

    Returns:
        (times, temperatures): arrays of length steps + 1.

    Raises:
        ThermalDivergenceError: The trajectory left the finite range.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")

    times = t0 + dt * np.arange(steps + 1)
    temps = np.empty(steps + 1)
    temp = temps[0] = float(state.temperature)
    l1, l2, l3 = lam.lambda1, lam.lambda2, lam.lambda3
    half, sixth = 0.5 * dt, dt / 6.0
    # Stages run on Python floats, which are several times cheaper than numpy
    # scalars here; t equals times[k] bitwise. Each stage is the rate
    # l1*F21 - l2*T^4 + l3 in that operation order; stage evaluations may
    # transiently leave the physical range, and the per-step divergence check
    # below rejects such trajectories.
    for k in range(steps):
        t = t0 + dt * k
        try:
            k1 = l1 * f21_of_t(t) - l2 * temp**4 + l3
            f_mid = f21_of_t(t + half)
            k2 = l1 * f_mid - l2 * (temp + half * k1) ** 4 + l3
            k3 = l1 * f_mid - l2 * (temp + half * k2) ** 4 + l3
            k4 = l1 * f21_of_t(t + dt) - l2 * (temp + dt * k3) ** 4 + l3
            temp = float(temp + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        except OverflowError:
            temp = math.inf
        if not math.isfinite(temp) or temp <= 0.0:
            raise ThermalDivergenceError(
                f"temperature diverged at t={times[k + 1]:.6g} s (step {k + 1}): {temp}"
            )
        temps[k + 1] = temp
    return times, temps
