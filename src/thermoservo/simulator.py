"""Closed-loop thermal servoing simulation.

Each control tick senses noisy object temperatures, smooths them through
the sliding-window estimator, builds the interaction matrix at the current
source-relative pose, computes the commanded Cartesian velocity, steps the
pose (position-stepping robot), and integrates the radiative plant over the
control period. One view-factor kernel call per tick evaluates F21 and its
gradient at the period's ends; the end pose is the next tick's, so that
tick's interaction matrix comes from the carried gradient. Runs are fully
deterministic for a fixed scenario and seed.

Scenario files are YAML with centimeters/Celsius at the boundary; see
`load_scenario` for the schema.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Literal

import numpy as np
import yaml

from .control import (
    AdaptiveState,
    Gains,
    VelocityLimits,
    adaptive_control,
    adaptive_lyapunov,
    adaptive_update,
    model_based_control,
)
from .estimation import SampleWindow
from .feasibility import write_csv
from .geometry import CircleContour, Contour, DegeneratePoseError, Pose, fourier_fit
from .thermal import (
    Environment,
    LambdaParams,
    ThermalDivergenceError,
    ThermalState,
    ThermoParams,
    integrate_thermal,
    lambdas,
)
from .units import celsius_to_kelvin, cm_to_m, kelvin_to_celsius
from .viewfactor import FAST_SPEC, QuadratureSpec, vf_batch


class ScenarioError(ValueError):
    """Scenario file failed validation."""


def aluminum_reference_params() -> ThermoParams:
    """The bench aluminum disk used to seed adaptive estimates."""
    return ThermoParams.from_disk(
        emittance=0.04,
        absorptance=0.04,
        specific_heat=903.0,
        density=2702.0,
        radius=0.015,
        thickness=0.003,
    )


@dataclass(frozen=True)
class SourceSchedule:
    """Piecewise-linear track of the source disk center (meters)."""

    times: np.ndarray
    centers: np.ndarray  # shape (k, 3)

    def __post_init__(self) -> None:
        if len(self.times) == 0 or np.shape(self.centers) != (len(self.times), 3):
            raise ScenarioError("schedule needs non-empty times and one (x, y, z) center per time")
        if np.any(np.diff(self.times) <= 0.0):
            raise ScenarioError("schedule times must be strictly increasing")

    def position(self, t: float) -> np.ndarray:
        return np.array(
            [np.interp(t, self.times, self.centers[:, k]) for k in range(3)]
        )

    @property
    def moves(self) -> bool:
        return len(self.times) > 1 and not np.allclose(self.centers, self.centers[0])


@dataclass(frozen=True)
class ObjectSpec:
    """One controlled object: geometry, material, mounting and start state."""

    name: str
    contour: Contour
    material: ThermoParams
    displacement: np.ndarray  # (3,) meters from the end-effector frame
    initial_temp: float  # K
    unknown_params: bool = False


@dataclass(frozen=True)
class SensorSpec:
    """Additive uniform measurement noise, seed-deterministic."""

    noise_amplitude: float = 0.1  # K
    seed: int = 0

    def __post_init__(self) -> None:
        if self.noise_amplitude < 0.0:
            raise ScenarioError("noise amplitude must be non-negative")


@dataclass(frozen=True)
class AdaptiveInit:
    """How adaptive estimates start.

    'reference' uses the center values directly, 'random' draws seeded
    log-uniform factors in [1/spread, spread] around them, 'values' takes
    explicit per-object vectors. Centers default to the aluminum reference
    disk; scenarios with other material classes should supply centers of
    the right order of magnitude (the estimates scale the velocity law, so
    starting orders of magnitude off drives the rig away from the source
    faster than the update law can correct).
    """

    mode: str = "reference"  # reference | random | values
    seed: int = 0
    spread: float = 4.0
    a1_center: float | None = None  # None: aluminum reference 1/lambda1
    a2_center: float | None = None  # None: aluminum reference lambda2/lambda1
    a1: tuple[float, ...] | None = None
    a2: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("reference", "random", "values"):
            raise ScenarioError(f"unknown adaptive init mode: {self.mode}")
        if self.mode == "values" and (self.a1 is None or self.a2 is None):
            raise ScenarioError("adaptive init 'values' needs a1 and a2")


@dataclass(frozen=True)
class Workspace:
    """Axis-aligned box the end-effector must stay inside (meters)."""

    bounds: tuple[tuple[float, float], tuple[float, float], tuple[float, float]]

    def __post_init__(self) -> None:
        for axis, (lo, hi) in zip(("p1", "p2", "p3"), self.bounds):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ScenarioError(
                    f"workspace {axis} range needs finite lo <= hi, got ({lo}, {hi}) m"
                )

    def contains(self, pose: Pose) -> bool:
        p = (pose.p1, pose.p2, pose.p3)
        return all(lo <= v <= hi for v, (lo, hi) in zip(p, self.bounds))

    def clip(self, translation: np.ndarray) -> np.ndarray:
        lo = np.array([b[0] for b in self.bounds])
        hi = np.array([b[1] for b in self.bounds])
        return np.clip(translation, lo, hi)


DEFAULT_WORKSPACE = Workspace(bounds=((-0.4, 0.4), (-0.4, 0.4), (0.002, 0.5)))


@dataclass(frozen=True)
class Scenario:
    """Full simulation description."""

    environment: Environment
    source_radius: float
    objects: tuple[ObjectSpec, ...]
    targets: tuple[float, ...]  # K
    controller: str  # model_based | adaptive
    gains: Gains = Gains()
    limits: VelocityLimits = VelocityLimits()
    adaptive_init: AdaptiveInit = AdaptiveInit()
    initial_pose: Pose = Pose(0.0, 0.0, 0.10)
    dof: int = 3
    sensor: SensorSpec = SensorSpec()
    control_period: float = 1.0
    plant_dt: float = 0.1
    duration: float = 600.0
    workspace: Workspace = DEFAULT_WORKSPACE
    boundary_mode: str = "terminate"  # terminate | clip
    quadrature: QuadratureSpec = FAST_SPEC
    source_schedule: SourceSchedule | None = None
    pinv_damping: float = 1e-6

    def __post_init__(self) -> None:
        if not self.objects:
            raise ScenarioError("at least one object required")
        if self.boundary_mode not in ("terminate", "clip"):
            raise ScenarioError("boundary_mode must be 'terminate' or 'clip'")
        if len(self.targets) != len(self.objects):
            raise ScenarioError("one target per object required")
        if self.controller not in ("model_based", "adaptive"):
            raise ScenarioError(f"unknown controller: {self.controller}")
        if self.dof not in (3, 6):
            raise ScenarioError("dof must be 3 or 6")
        if len(self.objects) > self.dof:
            raise ScenarioError("need no more objects than controlled DOF")
        if self.duration <= 0.0 or self.control_period <= 0.0:
            raise ScenarioError("duration and control period must be positive")
        if self.plant_dt <= 0.0:
            raise ScenarioError("plant_dt must be positive")
        if self.source_radius <= 0.0:
            raise ScenarioError("source radius must be positive")
        if any(o.unknown_params for o in self.objects) and self.controller != "adaptive":
            raise ScenarioError(
                "objects with unknown parameters require the adaptive controller"
            )
        init = self.adaptive_init
        if init.mode == "values" and not len(init.a1) == len(init.a2) == len(self.objects):
            raise ScenarioError("adaptive init 'values' needs one a1 and one a2 per object")

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_ticks(self) -> int:
        return int(round(self.duration / self.control_period))


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
        "workspace_violation",
        "degenerate_pose",
        "thermal_divergence",
        "non_finite_control",
    ] = "completed"
    detail: str = ""

    @property
    def violation(self) -> bool:
        """The pose left the workspace box."""
        return self.termination == "workspace_violation"

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


def _initial_adaptive_state(scenario: Scenario, ref: LambdaParams) -> AdaptiveState:
    n = scenario.n_objects
    init = scenario.adaptive_init
    a1_ref = init.a1_center if init.a1_center is not None else 1.0 / ref.lambda1
    a2_ref = init.a2_center if init.a2_center is not None else ref.lambda2 / ref.lambda1
    if init.mode == "reference":
        return AdaptiveState(np.full(n, a1_ref), np.full(n, a2_ref))
    if init.mode == "random":
        rng = np.random.default_rng(init.seed)
        factors1 = np.exp(rng.uniform(-math.log(init.spread), math.log(init.spread), n))
        factors2 = np.exp(rng.uniform(-math.log(init.spread), math.log(init.spread), n))
        return AdaptiveState(a1_ref * factors1, a2_ref * factors2)
    return AdaptiveState(np.array(init.a1, dtype=float), np.array(init.a2, dtype=float))


def run_simulation(scenario: Scenario) -> RunLog:
    """Run the closed loop and return the per-tick log.

    Loop per tick: sample true temperatures, add seeded sensor noise, push
    them into the estimator window, build the interaction matrix at the
    current source-relative pose, compute the velocity command, Euler-step
    the pose over one period, then integrate the thermal plant across the
    period. The robot holds still until the estimator window has 10 samples.

    Each plant step makes one view-factor kernel call over the period's
    ends. It returns F21 and its gradient over the controlled coordinates:
    the period's end pose is the next tick's pose.

    A run that leaves the configured workspace box, reaches a degenerate
    pose, moves an object through the source plane within one period,
    whose temperature diverges or whose control output is not finite ends
    early. Its log keeps the rows of the finished ticks and names the
    reason in `termination`.
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

    rng = np.random.default_rng(scenario.sensor.seed)
    window = SampleWindow()
    adaptive_state = _initial_adaptive_state(scenario, lambdas(aluminum_reference_params(), env))

    x = scenario.initial_pose.as_vector()  # end-effector pose
    temps = np.array([o.initial_temp for o in scenario.objects])
    period = scenario.control_period
    n_ticks = scenario.n_ticks
    substeps = max(1, int(round(period / scenario.plant_dt)))
    schedule = scenario.source_schedule
    moving_source = schedule is not None and schedule.moves
    offsets = np.zeros((n_obj, 6))  # object frames relative to the end effector
    offsets[:, :3] = [o.displacement for o in scenario.objects]
    contours = tuple(o.contour for o in scenario.objects)

    def object_poses(times) -> np.ndarray:
        """Source-relative poses of every object at pose x, (len(times), n_obj, 6)."""
        src = np.zeros((len(times), 1, 6))
        if schedule is not None:
            src[:, 0, :3] = [schedule.position(tt) for tt in times]
        return x + offsets - src

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
    rows = np.full((n_ticks + 1, len(columns)), np.nan)
    # Per-object columns of every row, (ticks, n_obj, 8), in _log_columns order.
    object_rows = rows[:, 1 : 1 + 8 * n_obj].reshape(n_ticks + 1, n_obj, 8)
    logged = 0  # rows of finished ticks
    termination, detail = "completed", ""
    try:
        # Relative poses, F21 and its gradient at the current pose and time;
        # each plant step below leaves them at the next tick's pose and time.
        rel_now = object_poses((0.0,))[0]
        f_now, g_now = (a[0] for a in view_factors(rel_now[None]))

        for tick in range(n_ticks + 1):
            t = tick * period
            measured = temps + rng.uniform(
                -scenario.sensor.noise_amplitude, scenario.sensor.noise_amplitude, n_obj
            )
            estimate = window.push_and_estimate(t, measured)

            u = np.zeros(dof)
            lyap = np.nan
            clamped = False
            t_hat = v_hat = dtau = np.full(n_obj, np.nan)
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
                            adaptive_state,
                            scenario.gains,
                            scenario.pinv_damping,
                            scenario.limits,
                        )
                        da1, da2 = adaptive_update(
                            v_hat, output.zeta, t_cubed, scenario.gains, period
                        )
                        lyap = adaptive_lyapunov(
                            output.zeta, adaptive_state, true_a1, true_a2, scenario.gains
                        )
                        adaptive_state = AdaptiveState(
                            adaptive_state.a1_hat + da1, adaptive_state.a2_hat + da2
                        )
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
                    u, clamped = output.u, output.clamped

            rows[tick, 0] = t
            obj_row = object_rows[tick]
            obj_row[:, 0] = kelvin_to_celsius(temps)
            obj_row[:, 1] = kelvin_to_celsius(measured)
            obj_row[:, 2] = kelvin_to_celsius(t_hat)
            obj_row[:, 3] = v_hat
            obj_row[:, 4] = dtau
            obj_row[:, 5] = f_now
            if adaptive:
                obj_row[:, 6] = adaptive_state.a1_hat
                obj_row[:, 7] = adaptive_state.a2_hat
            rows[tick, 1 + 8 * n_obj :] = (*u, *x, lyap, 1.0 if clamped else 0.0)
            logged = tick + 1

            if tick == n_ticks:
                break
            if not np.isfinite(u).all():
                termination = "non_finite_control"
                detail = f"control output {u.tolist()} at {t:g} s is not finite"
                break

            # Position-stepping robot: apply the commanded velocity for one
            # period. In clip mode the driver saturates steps at its range
            # limits (what a real position controller does); in terminate
            # mode leaving the box ends the run.
            x[:dof] += u * period
            if scenario.boundary_mode == "clip":
                x[:3] = scenario.workspace.clip(x[:3])
            pose = Pose.from_vector(x)
            if not scenario.workspace.contains(pose):
                termination = "workspace_violation"
                detail = f"pose {pose} left the workspace"
                break
            x = pose.as_vector()

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
            for i in range(n_obj):
                f_start, f_end = float(f_ends[0, i]), float(f_ends[-1, i])

                def f_of_time(tt: float, a=f_start, b=f_end, t0=t) -> float:
                    return a + (b - a) * (tt - t0) / period

                _, traj = integrate_thermal(
                    ThermalState(temps[i]),
                    f_of_time,
                    lams[i],
                    period / substeps,
                    substeps,
                    t0=t,
                )
                temps[i] = traj[-1]
            rel_now, f_now, g_now = rel[-1], f_ends[-1], g_ends[-1]
    except DegeneratePoseError as exc:
        termination, detail = "degenerate_pose", str(exc)
    except ThermalDivergenceError as exc:
        termination, detail = "thermal_divergence", str(exc)
    return RunLog(columns, rows[:logged], termination, detail)


# ---------------------------------------------------------------------------
# Scenario loading
# ---------------------------------------------------------------------------


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ScenarioError(f"missing '{key}' in {context}")
    return mapping[key]


def _load_contour(spec: dict) -> Contour:
    kind = _require(spec, "type", "contour")
    if kind == "circle":
        return CircleContour(cm_to_m(float(_require(spec, "radius_cm", "contour"))))
    if kind == "fourier":
        points = np.asarray(_require(spec, "points_cm", "contour"), dtype=float)
        harmonics = int(spec.get("harmonics", 5))
        return fourier_fit(points * 1e-2, harmonics)
    raise ScenarioError(f"unknown contour type: {kind}")


def _load_object(spec: dict, index: int) -> ObjectSpec:
    ctx = f"objects[{index}]"
    contour = _load_contour(_require(spec, "contour", ctx))
    mat = _require(spec, "material", ctx)
    material = ThermoParams(
        emittance=float(_require(mat, "emittance", f"{ctx}.material")),
        absorptance=float(_require(mat, "absorptance", f"{ctx}.material")),
        specific_heat=float(_require(mat, "specific_heat", f"{ctx}.material")),
        mass=float(_require(mat, "density", f"{ctx}.material"))
        * contour.area
        * cm_to_m(float(_require(mat, "thickness_cm", f"{ctx}.material"))),
        area=contour.area,
    )
    displacement = np.array(
        [cm_to_m(float(v)) for v in spec.get("displacement_cm", (0.0, 0.0, 0.0))]
    )
    if displacement.shape != (3,):
        raise ScenarioError(f"{ctx}: displacement_cm needs 3 entries")
    return ObjectSpec(
        name=str(spec.get("name", f"object{index + 1}")),
        contour=contour,
        material=material,
        displacement=displacement,
        initial_temp=celsius_to_kelvin(float(spec.get("initial_temp_c", 23.0))),
        unknown_params=bool(spec.get("unknown_params", False)),
    )


def scenario_from_dict(raw: dict) -> Scenario:
    """Build and validate a Scenario from parsed YAML (cm / Celsius units)."""
    try:
        env_raw = _require(raw, "environment", "scenario")
        env = Environment(
            source_temp=celsius_to_kelvin(float(_require(env_raw, "source_temp_c", "environment"))),
            source_emittance=float(_require(env_raw, "source_emittance", "environment")),
            ambient_temp=celsius_to_kelvin(float(env_raw.get("ambient_temp_c", 23.0))),
        )
        source = _require(raw, "source", "scenario")
        source_radius = cm_to_m(float(_require(source, "radius_cm", "source")))
        schedule = None
        if source.get("waypoints"):
            pts = source["waypoints"]
            ctx = "source.waypoints"
            times = np.array([float(_require(p, "time_s", ctx)) for p in pts])
            centers = np.array(
                [[cm_to_m(float(v)) for v in _require(p, "center_cm", ctx)] for p in pts]
            )
            schedule = SourceSchedule(times=times, centers=centers)

        objects = tuple(
            _load_object(o, i) for i, o in enumerate(_require(raw, "objects", "scenario"))
        )
        targets = tuple(
            celsius_to_kelvin(float(v)) for v in _require(raw, "targets_c", "scenario")
        )

        ctrl = _require(raw, "controller", "scenario")
        gains_raw = ctrl.get("gains", {})
        gains = Gains(
            d=float(gains_raw.get("d", 0.2)),
            k=float(gains_raw.get("k", 0.05)),
            mu=float(gains_raw.get("mu", 0.05)),
            gamma1=float(gains_raw.get("gamma1", 1.0)),
            gamma2=float(gains_raw.get("gamma2", 1.0)),
        )
        lim_raw = ctrl.get("limits", {})
        limits = VelocityLimits(
            max_translation=float(lim_raw.get("max_translation_m_s", 0.05)),
            max_rotation=float(lim_raw.get("max_rotation_rad_s", 0.2)),
        )
        ai_raw = ctrl.get("adaptive_init", {})
        adaptive_init = AdaptiveInit(
            mode=str(ai_raw.get("mode", "reference")),
            seed=int(ai_raw.get("seed", 0)),
            spread=float(ai_raw.get("spread", 4.0)),
            a1_center=(
                float(ai_raw["a1_center"]) if "a1_center" in ai_raw else None
            ),
            a2_center=(
                float(ai_raw["a2_center"]) if "a2_center" in ai_raw else None
            ),
            a1=tuple(ai_raw["a1"]) if "a1" in ai_raw else None,
            a2=tuple(ai_raw["a2"]) if "a2" in ai_raw else None,
        )

        pose_raw = raw.get("initial_pose_cm_deg", (0.0, 0.0, 10.0, 0.0, 0.0, 0.0))
        if len(pose_raw) != 6:
            raise ScenarioError("initial_pose_cm_deg needs 6 entries")
        initial_pose = Pose(
            cm_to_m(float(pose_raw[0])),
            cm_to_m(float(pose_raw[1])),
            cm_to_m(float(pose_raw[2])),
            math.radians(float(pose_raw[3])),
            math.radians(float(pose_raw[4])),
            math.radians(float(pose_raw[5])),
        )

        sensor_raw = raw.get("sensor", {})
        sensor = SensorSpec(
            noise_amplitude=float(sensor_raw.get("noise_c", 0.1)),
            seed=int(sensor_raw.get("seed", 0)),
        )

        ws_raw = raw.get("workspace_cm")
        if ws_raw is None:
            workspace = DEFAULT_WORKSPACE
        else:
            ranges = [_require(ws_raw, k, "workspace_cm") for k in ("p1", "p2", "p3")]
            workspace = Workspace(
                bounds=tuple((cm_to_m(float(lo)), cm_to_m(float(hi))) for lo, hi in ranges)
            )

        return Scenario(
            environment=env,
            source_radius=source_radius,
            objects=objects,
            targets=targets,
            controller=str(_require(ctrl, "type", "controller")),
            gains=gains,
            limits=limits,
            adaptive_init=adaptive_init,
            initial_pose=initial_pose,
            dof=int(raw.get("dof", 3)),
            sensor=sensor,
            control_period=float(raw.get("control_period_s", 1.0)),
            plant_dt=float(raw.get("plant_dt_s", 0.1)),
            duration=float(_require(raw, "duration_s", "scenario")),
            workspace=workspace,
            boundary_mode=str(raw.get("boundary_mode", "terminate")),
            quadrature=QuadratureSpec(int(raw.get("quadrature_n", 16))),
            source_schedule=schedule,
            pinv_damping=float(raw.get("pinv_damping", 1e-6)),
        )
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid scenario: {exc}") from exc


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a YAML scenario file."""
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except (OSError, yaml.YAMLError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario file must contain a mapping")
    return scenario_from_dict(raw)
