"""Steady-state temperature analysis and thermal-target feasibility.

For a fixed pose the thermal ODE has a unique attracting equilibrium
T_v0(F21) = ((lambda1 F21 + lambda3) / lambda2)^(1/4), strictly increasing
in the view factor. Reachable targets are bounded by the ambient
temperature and eps1^(1/4) T1 (condition 1); multiple objects rigidly fixed
to one end-effector are additionally constrained by their fixed spatial
arrangement (condition 2), checked here by grid search over end-effector
poses. Scalar fields of F21 over pose grids back both the analysis and the
isosurface export.

Grid coordinates at this boundary use centimeters (translation subsets) and
degrees (rotation subsets), the reporting units of the lab setup; poses and
temperatures everywhere else stay SI.
"""
from __future__ import annotations

import itertools
import math
import multiprocessing
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .geometry import Contour, Pose
from .thermal import Environment, LambdaParams
from .units import cm_to_m
from .viewfactor import DEFAULT_SPEC, QuadratureSpec, vf_batch

#: Target counts as met when the steady-state temperature at the witness
#: pose is within this band (Kelvin), mirroring the closed-loop band.
FEASIBILITY_TOLERANCE_K = 0.5

#: Default translation grid step for condition-2 searches, in cm.
DEFAULT_GRID_STEP_CM = 0.5

#: End-effector poses evaluated together in a condition-2 search; bounds
#: its per-pose arrays whatever the grid size.
SEARCH_CHUNK = 4096

#: A condition-2 search without a witness re-centers on its best cell this
#: many times, each at the step divided by SEARCH_REFINE_FACTOR.
SEARCH_REFINE_LEVELS = 2
SEARCH_REFINE_FACTOR = 4


def steady_state_temperature(f21, lam: LambdaParams):
    """Equilibrium temperature T_v0 for a view factor (float or array), in
    Kelvin."""
    if not np.all((0.0 <= f21) & (f21 < 1.0)):
        raise ValueError("view factor must be in [0, 1)")
    return ((lam.lambda1 * f21 + lam.lambda3) / lam.lambda2) ** 0.25


def required_view_factor(target_temp: float, lam: LambdaParams) -> float:
    """Inverse of steady_state_temperature: the view factor whose
    equilibrium equals the target (may fall outside [0, 1) for
    unreachable targets)."""
    return (lam.lambda2 * target_temp**4 - lam.lambda3) / lam.lambda1


def target_bounds(env: Environment) -> tuple[float, float]:
    """Half-open interval [T3, eps1^(1/4) T1) of reachable single-object
    steady-state temperatures (Kelvin), assuming gray surfaces with equal
    emittance and absorptance."""
    return env.ambient_temp, env.source_emittance**0.25 * env.source_temp


# ---------------------------------------------------------------------------
# Scalar fields over pose grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Regular half-open grid: values lo, lo+step, ... strictly below hi.

    Units are cm for translation subsets, degrees for rotation subsets.
    """

    ranges: tuple[tuple[float, float], tuple[float, float], tuple[float, float]]
    step: float

    def __post_init__(self) -> None:
        if not 0.0 < self.step < math.inf:
            raise ValueError(f"grid step must be finite and positive, got {self.step}")
        for lo, hi in self.ranges:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"each grid range needs finite lo < hi, got ({lo}, {hi})")

    def axis_values(self, axis: int) -> np.ndarray:
        lo, hi = self.ranges[axis]
        n = int(math.ceil((hi - lo) / self.step - 1e-9))
        return lo + self.step * np.arange(n)

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(len(self.axis_values(k)) for k in range(3))  # type: ignore[return-value]


#: Paper-style default grids for the two controlled-variable subsets.
TRANSLATION_GRID = GridSpec(ranges=((-20.0, 20.0), (-20.0, 20.0), (0.0, 30.0)), step=1.0)
ROTATION_GRID = GridSpec(ranges=((-90.0, 90.0), (-90.0, 90.0), (-90.0, 90.0)), step=2.0)


@dataclass(frozen=True)
class ScalarField:
    """Per-cell view-factor values over a 3-coordinate pose subset.

    axis_names are ("p1","p2","p3") in cm or ("tx","ty","tz") in degrees.
    Degenerate poses are recorded with the flag set, never dropped.
    Values must lie in [0, 1).
    """

    axis_names: tuple[str, str, str]
    axis_values: tuple[np.ndarray, np.ndarray, np.ndarray]
    values: np.ndarray
    degenerate: np.ndarray

    def __post_init__(self) -> None:
        shape = tuple(len(a) for a in self.axis_values)
        if self.values.shape != shape or self.degenerate.shape != shape:
            raise ValueError("values/degenerate must match the grid shape")
        if not ((self.values >= 0.0) & (self.values < 1.0)).all():
            raise ValueError("view-factor field values outside [0, 1)")

    @property
    def n_cells(self) -> int:
        return int(self.values.size)


def write_csv(path: str | Path, header: str, rows: np.ndarray) -> None:
    """Write a header line and one line per row of a 2-D array: values with
    nine significant digits, `nan` for unavailable ones."""
    # One row format over each row's Python floats: np.savetxt formats
    # numpy scalars and takes about half as long again. Rows are converted
    # one at a time; the whole array as Python floats would take about six
    # times its own size in memory.
    line = ",".join(["%.9g"] * rows.shape[1]) + "\n"
    with open(path, "w") as out:
        out.write(header + "\n")
        out.writelines(line % tuple(row.tolist()) for row in rows)


def export_field(field: ScalarField, path: str | Path) -> None:
    """Write a scalar field as CSV: header `p1,p2,p3,value` (or tx/ty/tz),
    row-major cell order, nine significant digits, the bytes `write_csv`
    writes for the cells' coordinates and values. Deterministic: identical
    fields export byte-identically."""
    if field.n_cells == 0:
        raise ValueError("cannot export an empty field")
    # Each axis coordinate is formatted once; a row joins the prefixes of
    # its cell and formats only its value.
    labels = [["%.9g," % x for x in axis.tolist()] for axis in field.axis_values]
    rows = zip(itertools.product(*labels), field.values.reshape(-1).tolist())
    with open(path, "w") as out:
        out.write(",".join(field.axis_names) + ",value\n")
        out.writelines("%s%s%s%.9g\n" % (a, b, c, value) for (a, b, c), value in rows)


def _clamp(values: np.ndarray) -> np.ndarray:
    """Absorb quadrature noise at the range ends: coarse rules can overshoot
    slightly for near-contact cells, while physical F stays in [0, 1)."""
    return np.minimum(np.maximum(values, 0.0), 1.0 - 1e-12)


def _cell_poses(subset: str, coords: np.ndarray) -> np.ndarray:
    """(N, 6) poses of (N, 3) grid coordinates (cm or degrees)."""
    poses = np.zeros((len(coords), 6))
    if subset == "translation":
        poses[:, :3] = cm_to_m(coords)
    else:
        poses[:, 2] = cm_to_m(5.0)
        poses[:, 3:] = np.radians(coords)
    return poses


def _grid_chunk(args) -> tuple[np.ndarray, np.ndarray]:
    """Clamped F21 values and degenerate flags of a run of grid cells;
    degenerate cells get 0."""
    subset, coords, source_radius, contour, spec = args
    values, degenerate = vf_batch(_cell_poses(subset, coords), source_radius, contour, spec)
    return np.where(degenerate, 0.0, _clamp(values)), degenerate


def _grid_cells(axes) -> np.ndarray:
    """(N, 3) coordinates of every grid cell, in row-major cell order."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


def isosurface_grid(
    source_radius: float,
    contour: Contour,
    subset: str = "translation",
    grid: GridSpec | None = None,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> ScalarField:
    """Evaluate F21 over a regular grid of one controlled-variable subset.

    The translation subset varies (p1, p2, p3) in cm at zero rotation; the
    rotation subset varies (theta_x, theta_y, theta_z) in degrees at the
    fixed translation (0, 0, 5 cm). Cells are evaluated independently and
    merged deterministically in row-major cell order. A grid of more than
    256 cells is split across one worker process per CPU this process may
    run on, if there are two or more; the values are the same either way.
    """
    if subset not in ("translation", "rotation"):
        raise ValueError("subset must be 'translation' or 'rotation'")
    if grid is None:
        grid = TRANSLATION_GRID if subset == "translation" else ROTATION_GRID
    axes = tuple(grid.axis_values(k) for k in range(3))
    shape = tuple(len(a) for a in axes)
    coords = _grid_cells(axes)
    affinity = getattr(os, "sched_getaffinity", None)  # absent on some platforms
    workers = len(affinity(0)) if affinity else os.cpu_count() or 1
    if workers > 1 and len(coords) > 256:
        n_chunks = workers * 8
        chunk_size = max(1, (len(coords) + n_chunks - 1) // n_chunks)
        chunks = [
            (subset, coords[i : i + chunk_size], source_radius, contour, spec)
            for i in range(0, len(coords), chunk_size)
        ]
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_grid_chunk, chunks)
        values = np.concatenate([v for v, _ in results])
        degenerate = np.concatenate([d for _, d in results])
    else:
        values, degenerate = _grid_chunk((subset, coords, source_radius, contour, spec))

    values, degenerate = values.reshape(shape), degenerate.reshape(shape)
    names = ("p1", "p2", "p3") if subset == "translation" else ("tx", "ty", "tz")
    return ScalarField(
        axis_names=names, axis_values=axes, values=values, degenerate=degenerate
    )


# ---------------------------------------------------------------------------
# Pairwise (condition 2) feasibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the two necessary target-feasibility conditions.

    Condition 1 failures list the offending target indices. For condition 2
    the grid search reports either a witness end-effector pose whose
    steady-state temperatures all sit within tolerance of their targets, or
    the smallest residual found. delta_range is the (min, max) of the
    steady-state temperature difference of the first two objects over the
    grid, the interval-form diagnostic.
    """

    feasible: bool
    reason: str
    bounds: tuple[float, float]
    bound_violations: tuple[int, ...]
    witness: Pose | None = None
    residual: float = math.inf
    steady_states: tuple[float, ...] = ()
    delta_range: tuple[float, float] | None = None


def pairwise_feasibility(
    targets: Sequence[float],
    displacements: Sequence[Sequence[float]],
    objects: Sequence[tuple[Contour, LambdaParams]],
    source_radius: float,
    env: Environment,
    grid: GridSpec,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> FeasibilityReport:
    """Check whether rigidly arranged objects can all reach their targets.

    Every candidate end-effector pose x on the (translation, cm) grid places
    object i at x + displacement_i with zero rotation; the pose is a witness
    when each object's steady-state temperature lies within tolerance of its
    target. Degenerate object poses (touching the source plane) are skipped.
    After the base sweep the grid is re-centered on the best cell and
    refined SEARCH_REFINE_LEVELS times, since steady-state temperatures
    move by several Kelvin per base grid cell.

    Args:
        targets: Per-object target temperatures, Kelvin.
        displacements: Per-object (dx, dy, dz) from the end-effector, meters.
        objects: Per-object (contour, rate parameters).
        grid: End-effector translation grid in cm.

    Raises:
        ValueError: Mismatched lengths or an empty workspace grid.
    """
    n_obj = len(targets)
    if n_obj < 1:
        raise ValueError("need at least one target")
    if len(displacements) != n_obj or len(objects) != n_obj:
        raise ValueError("targets, displacements and objects must align")
    axes = tuple(grid.axis_values(k) for k in range(3))
    if any(len(a) == 0 for a in axes):
        raise ValueError("empty workspace grid")

    bounds = target_bounds(env)
    violations = tuple(
        i for i, t in enumerate(targets) if not bounds[0] <= t < bounds[1]
    )
    if violations:
        return FeasibilityReport(
            feasible=False,
            reason=(
                "condition 1 violated: targets outside the reachable "
                f"steady-state interval [{bounds[0]:.2f} K, {bounds[1]:.2f} K)"
            ),
            bounds=bounds,
            bound_violations=violations,
        )

    disp = np.asarray(displacements, dtype=float)
    target_temps = np.asarray(targets, dtype=float)
    best_residual = math.inf
    best_pose: Pose | None = None
    best_tv0: tuple[float, ...] = ()
    delta_min, delta_max = math.inf, -math.inf

    def evaluate(cells_cm: np.ndarray) -> None:
        """Steady states of every object over the cells, in chunks of
        SEARCH_CHUNK cells; an end-effector pose with any degenerate object
        pose is skipped. The first cell with the smallest residual wins."""
        nonlocal best_residual, best_pose, best_tv0, delta_min, delta_max
        for start in range(0, len(cells_cm), SEARCH_CHUNK):
            base = cm_to_m(cells_cm[start : start + SEARCH_CHUNK])
            tv0 = np.empty((len(base), n_obj))
            skip = np.zeros(len(base), dtype=bool)
            poses = np.zeros((len(base), 6))
            for i, (contour, lam) in enumerate(objects):
                poses[:, :3] = base + disp[i]
                values, degenerate = vf_batch(poses, source_radius, contour, spec)
                tv0[:, i] = steady_state_temperature(
                    np.where(degenerate, 0.0, _clamp(values)), lam
                )
                skip |= degenerate
            base, tv0 = base[~skip], tv0[~skip]
            if len(base) == 0:
                continue
            if n_obj >= 2:
                delta = tv0[:, 0] - tv0[:, 1]
                delta_min = min(delta_min, float(delta.min()))
                delta_max = max(delta_max, float(delta.max()))
            residual = np.abs(tv0 - target_temps).max(axis=1)
            k = int(np.argmin(residual))
            if residual[k] < best_residual:
                best_residual = float(residual[k])
                best_pose = Pose(*(float(v) for v in base[k]))
                best_tv0 = tuple(float(v) for v in tv0[k])

    evaluate(_grid_cells(axes))

    step = grid.step
    for _ in range(SEARCH_REFINE_LEVELS):
        if best_pose is None or best_residual <= FEASIBILITY_TOLERANCE_K:
            break
        center = np.array([best_pose.p1, best_pose.p2, best_pose.p3]) * 1e2
        fine = step / SEARCH_REFINE_FACTOR
        offsets = fine * np.arange(-SEARCH_REFINE_FACTOR, SEARCH_REFINE_FACTOR + 1)
        local_axes = []
        for k in range(3):
            lo, hi = grid.ranges[k]
            vals = center[k] + offsets
            flat = len(axes[k]) == 1  # collapsed axis (e.g. slab grids) stays collapsed
            local_axes.append(
                np.array([center[k]]) if flat else vals[(vals >= lo) & (vals < hi)]
            )
        evaluate(_grid_cells(local_axes))
        step = fine

    feasible = best_pose is not None and best_residual <= FEASIBILITY_TOLERANCE_K
    return FeasibilityReport(
        feasible=feasible,
        reason=(
            "witness pose places every object within tolerance of its target"
            if feasible
            else "condition 2 violated: no grid pose places all objects on their "
            f"target isosurfaces (best residual {best_residual:.3f} K)"
        ),
        bounds=bounds,
        bound_violations=(),
        witness=best_pose,
        residual=best_residual,
        steady_states=best_tv0,
        delta_range=(delta_min, delta_max) if n_obj >= 2 else None,
    )
