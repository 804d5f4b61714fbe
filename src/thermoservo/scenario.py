"""Scenario descriptions and the YAML schema that builds them.

Scenario files are YAML with centimeters/Celsius at the boundary; README
"Scenario files" lists every key. A scenario is validated as it is built,
so a bad file fails at load, before any run starts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .control import Gains, VelocityLimits
from .geometry import CircleContour, Contour, Pose, fourier_fit
from .thermal import Environment, ThermoParams
from .units import celsius_to_kelvin, cm_to_m, m_to_cm
from .viewfactor import FAST_SPEC, QuadratureSpec


class ScenarioError(ValueError):
    """Scenario file failed validation."""


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

    def __post_init__(self) -> None:
        if not 0.0 < self.initial_temp < math.inf:
            raise ScenarioError(
                f"object {self.name!r}: initial temperature must be finite and above "
                f"0 K, got {self.initial_temp} K"
            )


@dataclass(frozen=True)
class SensorSpec:
    """Additive uniform measurement noise, seed-deterministic."""

    noise_amplitude: float = 0.1  # K
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.noise_amplitude < math.inf:
            raise ScenarioError(
                f"noise amplitude must be finite and non-negative, got {self.noise_amplitude}"
            )
        if self.seed < 0:
            raise ScenarioError(f"sensor seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class AdaptiveInit:
    """Where the adaptive estimates of a1 = 1/lambda1 and a2 =
    lambda2/lambda1 start.

    Object i of n starts at a1_center * exp(u1_i) and a2_center * exp(u2_i):
    `default_rng(seed)` draws n values of U(-ln spread, ln spread) for u1,
    then n for u2. Spread 1 draws exact zeros, so every object starts at the
    centers. The adaptive controller needs both centers (`Scenario` checks
    this); they should be of the objects' order of magnitude, because the
    estimates scale the velocity law, and a start orders of magnitude off
    drives the rig away from the source faster than the update law corrects.
    """

    seed: int = 0
    spread: float = 1.0
    a1_center: float | None = None  # s/K
    a2_center: float | None = None  # 1/K^4

    def __post_init__(self) -> None:
        if not 1.0 <= self.spread < math.inf:
            raise ScenarioError(f"adaptive init spread must be finite and >= 1, got {self.spread}")
        if self.seed < 0:
            raise ScenarioError(f"adaptive init seed must be non-negative, got {self.seed}")
        for name in ("a1_center", "a2_center"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ScenarioError(f"adaptive init {name} must be finite, got {value}")

    def start(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The start estimates (a1, a2) of n objects; both centers set."""
        rng = np.random.default_rng(self.seed)
        half = math.log(self.spread)
        u1, u2 = rng.uniform(-half, half, n), rng.uniform(-half, half, n)
        return self.a1_center * np.exp(u1), self.a2_center * np.exp(u2)


@dataclass(frozen=True)
class Workspace:
    """Axis-aligned box of the end-effector translation (meters). The
    position driver saturates every step at it."""

    bounds: tuple[tuple[float, float], tuple[float, float], tuple[float, float]]

    def __post_init__(self) -> None:
        for axis, (lo, hi) in zip(("p1", "p2", "p3"), self.bounds):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ScenarioError(
                    f"workspace {axis} range needs finite lo <= hi, got ({lo}, {hi}) m"
                )

    def clip(self, translation) -> list[float]:
        """The translation (p1, p2, p3) saturated at the box."""
        return [min(max(v, lo), hi) for v, (lo, hi) in zip(translation, self.bounds)]


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
    workspace: Workspace = Workspace(bounds=((-0.4, 0.4), (-0.4, 0.4), (0.002, 0.5)))
    quadrature: QuadratureSpec = FAST_SPEC
    source_schedule: SourceSchedule | None = None
    pinv_damping: float = 1e-6

    def __post_init__(self) -> None:
        if not self.objects:
            raise ScenarioError("at least one object required")
        if len(self.targets) != len(self.objects):
            raise ScenarioError("one target per object required")
        if not all(0.0 < t < math.inf for t in self.targets):
            raise ScenarioError(f"targets must be finite and above 0 K, got {self.targets} K")
        if self.controller not in ("model_based", "adaptive"):
            raise ScenarioError(f"unknown controller: {self.controller}")
        if self.dof not in (3, 6):
            raise ScenarioError("dof must be 3 or 6")
        if len(self.objects) > self.dof:
            raise ScenarioError("need no more objects than controlled DOF")
        for name in ("duration", "control_period", "plant_dt"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ScenarioError(f"{name} must be finite and positive, got {value} s")
        if not 0.0 < self.source_radius < math.inf:
            raise ScenarioError(
                f"source radius must be finite and positive, got {self.source_radius} m"
            )
        if not 0.0 <= self.pinv_damping < math.inf:
            raise ScenarioError(f"pinv_damping must be finite and >= 0, got {self.pinv_damping}")
        start = [self.initial_pose.p1, self.initial_pose.p2, self.initial_pose.p3]
        if self.workspace.clip(start) != start:
            box = ", ".join(
                f"{axis} [{m_to_cm(lo):g}, {m_to_cm(hi):g}]"
                for axis, (lo, hi) in zip(("p1", "p2", "p3"), self.workspace.bounds)
            )
            raise ScenarioError(
                "initial pose ({:g}, {:g}, {:g}) cm lies outside the workspace box "
                "{} cm".format(*map(m_to_cm, start), box)
            )
        init = self.adaptive_init
        if self.controller == "adaptive" and None in (init.a1_center, init.a2_center):
            raise ScenarioError(
                "the adaptive controller needs the start centers "
                "adaptive_init.a1_center and adaptive_init.a2_center"
            )

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_ticks(self) -> int:
        return int(round(self.duration / self.control_period))


def _read(mapping, ctx: str, table: dict, required: tuple[str, ...] = ()) -> dict:
    """The fields the mapping at path `ctx` sets: `table` maps each allowed
    key to (field, convert), and a field of None merges the fields convert
    returns. A key the mapping leaves out keeps its dataclass default."""
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{ctx} must be a mapping")
    fields = {}
    for key, value in mapping.items():
        if key not in table:
            raise ScenarioError(f"unknown key '{key}' in {ctx}")
        field, convert = table[key]
        try:
            value = convert(value)
        except ScenarioError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(f"'{key}' in {ctx}: {exc}") from exc
        fields.update(value if field is None else {field: value})
    for key in required:
        if key not in mapping:
            raise ScenarioError(f"missing '{key}' in {ctx}")
    return fields


def _each(convert):
    return lambda values: tuple(map(convert, values))


def _whole(value) -> int:
    if isinstance(value, bool) or not float(value).is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def pose_from_cm_deg(values) -> Pose:
    """The pose (p1, p2, p3 in cm, tx, ty, tz in degrees) as a Pose."""
    if len(values) != 6:
        raise ValueError(f"pose needs 6 values p1,p2,p3,tx,ty,tz, got {len(values)}")
    p = [float(v) for v in values]
    return Pose(*map(cm_to_m, p[:3]), *map(math.radians, p[3:]))


def _environment(spec) -> Environment:
    fields = _read(spec, "environment", _ENVIRONMENT_KEYS, ("source_temp_c", "source_emittance"))
    return Environment(**{"ambient_temp": celsius_to_kelvin(23.0), **fields})


def _schedule(points) -> SourceSchedule | None:
    if not points:
        return None
    read = [
        _read(p, f"source.waypoints[{i}]", _WAYPOINT_KEYS, tuple(_WAYPOINT_KEYS))
        for i, p in enumerate(points)
    ]
    return SourceSchedule(*(np.array([p[k] for p in read]) for k in ("time", "center")))


def _contour(spec, ctx: str) -> Contour:
    kind = spec.get("type") if isinstance(spec, dict) else None
    if kind == "circle":
        return CircleContour(**_read(spec, ctx, _CIRCLE_KEYS, ("radius_cm",)))
    if kind == "fourier":
        return fourier_fit(**{"harmonics": 5, **_read(spec, ctx, _FOURIER_KEYS, ("points_cm",))})
    _read(spec, ctx, {**_CIRCLE_KEYS, **_FOURIER_KEYS}, ("type",))  # an unknown key first
    raise ScenarioError(f"{ctx} needs type circle or fourier, got {kind!r}")


def _workspace(spec) -> Workspace:
    ranges = _read(spec, "workspace_cm", _WORKSPACE_KEYS, tuple(_WORKSPACE_KEYS))
    return Workspace(bounds=tuple(ranges[axis] for axis in _WORKSPACE_KEYS))


def _objects(specs) -> tuple[ObjectSpec, ...]:
    objects = []
    for i, spec in enumerate(specs):
        ctx = f"objects[{i}]"
        obj = dict(
            name=f"object{i + 1}", displacement=np.zeros(3), initial_temp=celsius_to_kelvin(23.0)
        )
        obj.update(_read(spec, ctx, _OBJECT_KEYS, ("contour", "material")))
        if obj["displacement"].shape != (3,):
            raise ScenarioError(f"{ctx}: displacement_cm needs 3 entries")
        contour = obj["contour"] = _contour(obj["contour"], f"{ctx}.contour")
        mat = _read(obj["material"], f"{ctx}.material", _MATERIAL_KEYS, tuple(_MATERIAL_KEYS))
        mass = mat.pop("density") * contour.area * mat.pop("thickness")
        obj["material"] = ThermoParams(mass=mass, area=contour.area, **mat)
        objects.append(ObjectSpec(**obj))
    return tuple(objects)


# One key table {key: (field, convert)} per mapping; README "Scenario files" lists them.
_TYPE_KEY = {"type": (None, lambda kind: {})}  # read by `_contour`
_CIRCLE_KEYS = {**_TYPE_KEY, "radius_cm": ("radius", cm_to_m)}
_FOURIER_KEYS = {
    **_TYPE_KEY,
    "points_cm": ("polyline", lambda points: cm_to_m(np.asarray(points, dtype=float))),
    "harmonics": ("harmonics", _whole),
}
_MATERIAL_KEYS = {
    **{name: (name, float) for name in ("emittance", "absorptance", "specific_heat", "density")},
    "thickness_cm": ("thickness", cm_to_m),
}
_OBJECT_KEYS = {
    "name": ("name", str),
    "contour": ("contour", lambda spec: spec),  # read by `_objects`, as is the material
    "material": ("material", lambda spec: spec),
    "displacement_cm": ("displacement", lambda xyz: np.array(_each(cm_to_m)(xyz))),
    "initial_temp_c": ("initial_temp", celsius_to_kelvin),
}
_ENVIRONMENT_KEYS = {
    "source_temp_c": ("source_temp", celsius_to_kelvin),
    "source_emittance": ("source_emittance", float),
    "ambient_temp_c": ("ambient_temp", celsius_to_kelvin),
}
_WAYPOINT_KEYS = {"time_s": ("time", float), "center_cm": ("center", _each(cm_to_m))}
_SOURCE_KEYS = {
    "radius_cm": ("source_radius", cm_to_m),
    "waypoints": ("source_schedule", _schedule),
}
_GAINS_KEYS = {name: (name, float) for name in ("d", "k", "mu", "gamma1", "gamma2")}
_LIMITS_KEYS = {
    "max_translation_m_s": ("max_translation", float),
    "max_rotation_rad_s": ("max_rotation", float),
}
_ADAPTIVE_INIT_KEYS = {
    "seed": ("seed", _whole),
    **{name: (name, float) for name in ("spread", "a1_center", "a2_center")},
}
_CONTROLLER_KEYS = {
    "type": ("controller", str),
    "gains": ("gains", lambda m: Gains(**_read(m, "controller.gains", _GAINS_KEYS))),
    "limits": ("limits", lambda m: VelocityLimits(**_read(m, "controller.limits", _LIMITS_KEYS))),
    "adaptive_init": (
        "adaptive_init",
        lambda m: AdaptiveInit(**_read(m, "controller.adaptive_init", _ADAPTIVE_INIT_KEYS)),
    ),
}
_SENSOR_KEYS = {"noise_c": ("noise_amplitude", float), "seed": ("seed", _whole)}
_WORKSPACE_KEYS = {axis: (axis, _each(cm_to_m)) for axis in ("p1", "p2", "p3")}
_SCENARIO_KEYS = {
    "environment": ("environment", _environment),
    "source": (None, lambda m: _read(m, "source", _SOURCE_KEYS, ("radius_cm",))),
    "objects": ("objects", _objects),
    "targets_c": ("targets", _each(celsius_to_kelvin)),
    "controller": (None, lambda m: _read(m, "controller", _CONTROLLER_KEYS, ("type",))),
    "initial_pose_cm_deg": ("initial_pose", pose_from_cm_deg),
    "dof": ("dof", _whole),
    "sensor": ("sensor", lambda m: SensorSpec(**_read(m, "sensor", _SENSOR_KEYS))),
    "control_period_s": ("control_period", float),
    "plant_dt_s": ("plant_dt", float),
    "duration_s": ("duration", float),
    "workspace_cm": ("workspace", _workspace),
    "quadrature_n": ("quadrature", lambda n: QuadratureSpec(_whole(n))),
    "pinv_damping": ("pinv_damping", float),
}
_SCENARIO_REQUIRED = ("environment", "source", "objects", "targets_c", "controller", "duration_s")


def scenario_from_dict(raw: dict) -> Scenario:
    """Build and validate a Scenario from parsed YAML (cm / Celsius units)."""
    return Scenario(**_read(raw, "scenario", _SCENARIO_KEYS, _SCENARIO_REQUIRED))


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a YAML scenario file."""
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except (OSError, yaml.YAMLError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    return scenario_from_dict(raw)
