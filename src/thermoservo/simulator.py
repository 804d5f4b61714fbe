"""Closed-loop thermal servoing simulation.

Each control tick senses noisy object temperatures, smooths them through
the sliding-window estimator, builds the interaction matrix at the current
source-relative pose, computes the commanded Cartesian velocity, steps the
pose (position-stepping robot), and integrates the radiative plant over the
control period. One view-factor kernel call per tick evaluates F21 and its
gradient at the period's ends; the end pose is the next tick's, so that
tick's interaction matrix comes from the carried gradient. The adaptive
controller estimates every object's a1 and a2 online, from the seeded start
that `AdaptiveInit.start` draws around the scenario's centers. Runs are fully
deterministic for a fixed scenario and its seeds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Literal

import numpy as np

from .control import (
    AdaptiveState,
    adaptive_control,
    adaptive_lyapunov,
    adaptive_update,
    model_based_control,
)
from .estimation import SampleWindow
from .feasibility import write_csv
from .geometry import DegeneratePoseError, Pose, wrap_angle
from .scenario import Scenario
from .thermal import ThermalDivergenceError, integrate_period, lambdas
from .units import kelvin_to_celsius
from .viewfactor import vf_batch


@dataclass
class RunLog:
    """Per-tick simulation log with a fixed, documented column order.

    Columns: time_s; per object i: T_true_C, T_meas_C, T_hat_C, v_hat_Ks,
    dtau_K, F21, a1_hat, a2_hat; then u_1..u_dof (m/s, rad/s), pose
    (p1_m, p2_m, p3_m, theta_x, theta_y, theta_z), lyapunov, clamped.
    Temperatures are logged in Celsius; everything else is SI.

    `termination` says why the run ended and `detail` describes any reason
    but "completed". A run that ends early keeps the rows of every tick it
    finished.
    """

    columns: list[str]
    rows: np.ndarray
    termination: Literal[
        "completed",
        "degenerate_pose",
        "thermal_divergence",
        "non_finite_control",
    ] = "completed"
    detail: str = ""

    @property
    def violation(self) -> bool:
        """Always False: the position driver saturates at the workspace box,
        so no run leaves it. Kept only because `perfbench/workloads.py`
        checks it; it goes when the benchmark stops reading it."""
        return False

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]

    def to_csv(self, path: str | Path) -> None:
        write_csv(path, ",".join(self.columns), self.rows)


def _log_columns(scenario: Scenario) -> list[str]:
    cols = ["time_s"]
    for i in range(scenario.n_objects):
        cols += [
            f"T_true_C_{i + 1}",
            f"T_meas_C_{i + 1}",
            f"T_hat_C_{i + 1}",
            f"v_hat_Ks_{i + 1}",
            f"dtau_K_{i + 1}",
            f"F21_{i + 1}",
            f"a1_hat_{i + 1}",
            f"a2_hat_{i + 1}",
        ]
    cols += [f"u_{k + 1}" for k in range(scenario.dof)]
    cols += ["p1_m", "p2_m", "p3_m", "theta_x", "theta_y", "theta_z"]
    cols += ["lyapunov", "clamped"]
    return cols


def run_simulation(scenario: Scenario) -> RunLog:
    """Run the closed loop and return the per-tick log.

    Loop per tick: sample true temperatures, add seeded sensor noise, push
    them into the estimator window, build the interaction matrix at the
    current source-relative pose, compute the velocity command, Euler-step
    the pose over one period (the step saturates at the workspace box), then
    integrate the thermal plant across the period. The robot holds still
    until the estimator window has 10 samples.
    The adaptive law updates a1_hat and a2_hat from the start that the
    scenario's `adaptive_init` gives, once the window is full.
    One `integrate_period` call per period advances every object; each
    object's RK4 takes as many steps as step doubling asks for, at most
    round(control_period / plant_dt).

    Each plant step makes one view-factor kernel call over the period's
    ends. It returns F21 and its gradient over the controlled coordinates:
    the period's end pose is the next tick's pose.

    A run that reaches a degenerate pose, moves an object through the
    source plane within one period, whose temperature diverges or whose
    control output or adaptive estimates are not finite ends early. Its log
    keeps the rows of the finished ticks and names the reason in
    `termination`.
    """
    n_obj = scenario.n_objects
    dof = scenario.dof
    adaptive = scenario.controller == "adaptive"
    env = scenario.environment
    lams = [lambdas(o.material, env) for o in scenario.objects]
    lambda1s = np.array([l.lambda1 for l in lams])
    lambda2s = np.array([l.lambda2 for l in lams])
    true_a1 = 1.0 / lambda1s
    true_a2 = lambda2s / lambda1s
    targets = np.array(scenario.targets)

    period = scenario.control_period
    n_ticks = scenario.n_ticks
    amplitude = scenario.sensor.noise_amplitude
    # One draw of every tick's noise: the same values, in the same order, as
    # one draw of n_obj values per tick.
    noise = np.random.default_rng(scenario.sensor.seed).uniform(
        -amplitude, amplitude, (n_ticks + 1, n_obj)
    )
    window = SampleWindow()
    # The adaptive estimates, logged each tick, then the next tick's; the
    # start is checked once, and the loop checks every update.
    state = AdaptiveState(*scenario.adaptive_init.start(n_obj)) if adaptive else None

    x = scenario.initial_pose.as_vector().tolist()  # end-effector pose
    temps = np.array([o.initial_temp for o in scenario.objects])
    max_steps = max(1, int(round(period / scenario.plant_dt)))
    schedule = scenario.source_schedule
    moving_source = schedule is not None and schedule.moves
    offsets = np.zeros((n_obj, 6))  # object frames relative to the end effector
    offsets[:, :3] = [o.displacement for o in scenario.objects]
    contours = tuple(o.contour for o in scenario.objects)

    def object_poses(times) -> np.ndarray:
        """Source-relative poses of every object at pose x, (len(times), n_obj, 6)."""
        rel = np.add(x, offsets)
        if schedule is None:  # a static source at the origin
            return rel[None]
        src = np.zeros((len(times), 1, 6))
        src[:, 0, :3] = [schedule.position(tt) for tt in times]
        return rel - src

    def view_factors(rel: np.ndarray):
        """F21 of every object at the poses `object_poses` returned and its
        gradient over the controlled coordinates, (len(rel), n_obj) and
        (len(rel), n_obj, dof), from one kernel call."""
        values, degenerate, grads = vf_batch(
            rel.reshape(-1, 6), scenario.source_radius, contours, scenario.quadrature, dof=dof
        )
        degenerate = degenerate.reshape(rel.shape[:2])
        if degenerate.any():
            # The first object with any degenerate pose, whatever the time.
            i = int(np.argmax(degenerate.any(axis=0)))
            raise DegeneratePoseError(
                f"object {i + 1} touches the source plane at pose {Pose.from_vector(x)}"
            )
        return values.reshape(rel.shape[:2]), grads.reshape(*rel.shape[:2], dof)

    columns = _log_columns(scenario)
    rows = np.empty((n_ticks + 1, len(columns)))
    unset = [np.nan] * n_obj
    logged = 0  # rows of finished ticks
    termination, detail = "completed", ""
    try:
        # Relative poses, F21 and its gradient at the current pose and time;
        # each plant step below leaves them at the next tick's pose and time.
        rel_now = object_poses((0.0,))[0]
        f_now, g_now = (a[0] for a in view_factors(rel_now[None]))

        for tick in range(n_ticks + 1):
            t = tick * period
            measured = temps + noise[tick]
            estimate = window.push_and_estimate(t, measured)

            u = [0.0] * dof
            lyap = np.nan
            clamped = False
            t_hat = v_hat = dtau = unset
            if estimate is not None:
                with np.errstate(over="ignore", invalid="ignore"):  # non-finite u: checked below
                    t_hat, v_hat = estimate
                    dtau = t_hat - targets
                    t_cubed = t_hat**3
                    if adaptive:
                        output = adaptive_control(
                            g_now,
                            v_hat,
                            dtau,
                            t_cubed,
                            state,
                            scenario.gains,
                            scenario.pinv_damping,
                            scenario.limits,
                        )
                        da1, da2 = adaptive_update(
                            v_hat, output.zeta, t_cubed, scenario.gains, period
                        )
                        lyap = adaptive_lyapunov(
                            output.zeta, state, true_a1, true_a2, scenario.gains
                        )
                        state.a1_hat, state.a2_hat = state.a1_hat + da1, state.a2_hat + da2
                    else:
                        output = model_based_control(
                            lambda1s[:, None] * g_now,
                            v_hat,
                            dtau,
                            t_cubed,
                            lambda2s,
                            scenario.gains,
                            scenario.pinv_damping,
                            scenario.limits,
                        )
                        lyap = output.lyapunov
                    u, clamped = output.u.tolist(), output.clamped
                    v_hat, dtau = v_hat.tolist(), dtau.tolist()

            a_hat = (state.a1_hat.tolist(), state.a2_hat.tolist()) if adaptive else (unset, unset)
            celsius = kelvin_to_celsius(np.array([temps, measured, t_hat])).tolist()
            per_object = zip(*celsius, v_hat, dtau, f_now.tolist(), *a_hat)
            rows[tick] = [
                t, *(v for values in per_object for v in values), *u, *x, lyap, float(clamped)
            ]
            logged = tick + 1

            if tick == n_ticks:
                break
            if not all(map(math.isfinite, u)):
                termination = "non_finite_control"
                detail = f"control output {u} at {t:g} s is not finite"
                break
            if adaptive and not all(map(math.isfinite, a_hat[0] + a_hat[1])):
                termination = "non_finite_control"
                detail = f"adaptive estimates {list(a_hat)} at {t:g} s are not finite"
                break

            # Position-stepping robot: apply the commanded velocity for one
            # period. The driver saturates the step at the workspace box, as
            # a real position controller does at its range limits.
            for j, rate in enumerate(u):
                x[j] += rate * period
            x[:3] = scenario.workspace.clip(x[:3])
            x[3:] = map(wrap_angle, x[3:])

            # Heat at the new pose; for a moving source the view factor is
            # interpolated linearly across the period. The values at the end
            # of the period are the next tick's: for a static source the
            # relative pose does not change over the period.
            rel = object_poses((t, (tick + 1) * period) if moving_source else (t,))
            # The kernel sees the object on one side of the source plane at
            # each end; an object whose centre changes side between the
            # period's start and either end passed through the source.
            crossed = (rel[:, :, 2] * rel_now[:, 2] < 0.0).any(axis=0)
            if crossed.any():
                i = int(np.argmax(crossed))
                raise DegeneratePoseError(
                    f"object {i + 1} passes through the source plane between "
                    f"{t:g} s and {(tick + 1) * period:g} s"
                )
            f_ends, g_ends = view_factors(rel)
            temps, _ = integrate_period(temps, f_ends[0], f_ends[-1], lams, t, period, max_steps)
            rel_now, f_now, g_now = rel[-1], f_ends[-1], g_ends[-1]
    except DegeneratePoseError as exc:
        termination, detail = "degenerate_pose", str(exc)
    except ThermalDivergenceError as exc:
        termination, detail = "thermal_divergence", str(exc)
    return RunLog(columns, rows[:logged], termination, detail)
