"""Lumped radiative thermal plant for gray planar objects.

Maps thermophysical constants to the three rate parameters of the
temperature ODE

    dT2/dt = lambda1 * F21 - lambda2 * T2^4 + lambda3

and integrates that ODE with the classical fourth-order Runge-Kutta step.
`integrate_period` advances every object over one control period, F21
linear in time between the period's end values, and picks each object's
step count by step doubling: 1, 2, 4, ... steps until two successive counts
agree within `PLANT_TOL` kelvin, never more than the caller's cap.
`integrate_thermal` is the fixed-step reference for any F21(t). Both take
the same RK4 step. All temperatures are Kelvin; Celsius exists only at I/O
boundaries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

STEFAN_BOLTZMANN = 5.670374419e-8  # W m^-2 K^-4
# Largest change, in K, between the last two step counts that
# `integrate_period` accepts for one object over one period.
PLANT_TOL = 1e-9


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


def _rk4_step(
    temp: float, f0: float, f_mid: float, f1: float, lam: LambdaParams, dt: float
) -> float:
    """One classical RK4 step of length dt from `temp`; F21 is f0, f_mid and
    f1 at the step's start, middle and end.

    Stages run on Python floats, which are several times cheaper than numpy
    scalars here. Each stage is the rate l1*F21 - l2*T^4 + l3 in that
    operation order. Stages may transiently leave the physical range; an
    overflow returns inf, which the callers' divergence checks reject.
    """
    l1, l2, l3 = lam.lambda1, lam.lambda2, lam.lambda3
    half = 0.5 * dt
    try:
        k1 = l1 * f0 - l2 * temp**4 + l3
        k2 = l1 * f_mid - l2 * (temp + half * k1) ** 4 + l3
        k3 = l1 * f_mid - l2 * (temp + half * k2) ** 4 + l3
        k4 = l1 * f1 - l2 * (temp + dt * k3) ** 4 + l3
        return float(temp + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    except OverflowError:
        return math.inf


def _diverged(temp: float, t: float, step: int) -> ThermalDivergenceError:
    return ThermalDivergenceError(f"temperature diverged at t={t:.6g} s (step {step}): {temp}")


def _rk4_period(
    temp: float,
    f_start: float,
    f_end: float,
    lam: LambdaParams,
    t0: float,
    period: float,
    steps: int,
) -> float:
    """Temperature after `steps` equal RK4 steps across [t0, t0 + period],
    F21 linear in time from f_start to f_end.

    Raises:
        ThermalDivergenceError: A step left the finite positive range.
    """
    dt = period / steps
    half = 0.5 * dt
    slope = f_end - f_start
    for k in range(steps):
        t = t0 + dt * k
        temp = _rk4_step(
            temp,
            f_start + slope * (t - t0) / period,
            f_start + slope * (t + half - t0) / period,
            f_start + slope * (t + dt - t0) / period,
            lam,
            dt,
        )
        if not math.isfinite(temp) or temp <= 0.0:
            raise _diverged(temp, t0 + dt * (k + 1), k + 1)
    return temp


def integrate_period(
    temps, f_start, f_end, lams, t0: float, period: float, max_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Advance every object's temperature over one control period.

    Object i's view factor is linear in time, from f_start[i] at t0 to
    f_end[i] at t0 + period. Its step count doubles from one step until two
    successive counts agree within `PLANT_TOL`; the counts are capped at
    max_steps, and the capped count is the last one tried. At max_steps the
    result is bitwise that of `integrate_thermal` with max_steps steps of
    period / max_steps and F21(t) = f_start + (f_end - f_start) * (t - t0) /
    period.

    Args:
        temps, f_start, f_end: One value per object.
        lams: Rate parameters, one per object.
        t0: Start of the period, s.
        period: Period length, s (> 0).
        max_steps: Most RK4 steps per object (>= 1).

    Returns:
        (temps, steps): temperatures at t0 + period and the step count each
        object took, arrays with one entry per object.

    Raises:
        ThermalDivergenceError: A step at max_steps steps left the finite
            positive range; a smaller count that diverges just doubles.
    """
    if not (period > 0.0 and max_steps >= 1):
        raise ValueError("period must be positive and max_steps at least 1")
    out = np.empty(len(lams))
    counts = np.empty(len(lams), dtype=int)
    starts = zip(
        np.asarray(temps, dtype=float).tolist(),
        np.asarray(f_start, dtype=float).tolist(),
        np.asarray(f_end, dtype=float).tolist(),
        lams,
    )
    for i, (temp, fa, fb, lam) in enumerate(starts):
        steps, new = 0, math.nan
        while steps < max_steps:
            prev, steps = new, min(2 * steps, max_steps) or 1
            try:
                new = _rk4_period(temp, fa, fb, lam, t0, period, steps)
            except ThermalDivergenceError:
                if steps == max_steps:
                    raise
                new = math.nan
            if abs(new - prev) <= PLANT_TOL:
                break
        out[i], counts[i] = new, steps
    return out, counts


def integrate_thermal(
    state: ThermalState,
    f21_of_t: Callable[[float], float],
    lam: LambdaParams,
    dt: float,
    steps: int,
    t0: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the thermal ODE with a fixed classical RK4 step.

    Args:
        state: Initial state at time t0.
        f21_of_t: View factor as a function of absolute time.
        lam: Rate parameters.
        dt: Step size in seconds (> 0).
        steps: Number of steps.
        t0: Start time, s.

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
    half = 0.5 * dt
    # t equals times[k] bitwise.
    for k in range(steps):
        t = t0 + dt * k
        temp = _rk4_step(temp, f21_of_t(t), f21_of_t(t + half), f21_of_t(t + dt), lam, dt)
        if not math.isfinite(temp) or temp <= 0.0:
            raise _diverged(temp, times[k + 1], k + 1)
        temps[k + 1] = temp
    return times, temps
