"""The benchmark workloads: inputs from a seed, one timed unit, checks.

A unit is what one CLI invocation pays: `simulate` (run + CSV),
`isosurface` (grid + export) or `feasibility` (grid search). Every check
compares against a reference computed outside the timed region.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
import os
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from thermoservo import (
    CircleContour,
    GridSpec,
    Pose,
    QuadratureSpec,
    export_field,
    isosurface_grid,
    lambdas,
    load_scenario,
    pairwise_feasibility,
    run_simulation,
    steady_state_temperature,
    vf_dsi_oracle,
    vf_general,
    vf_parallel_disks,
)
from thermoservo.feasibility import FEASIBILITY_TOLERANCE_K
from thermoservo.geometry import Partial, classify_occlusion

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"

# Closed-loop band of acceptance criteria 5 and 6, in K.
CONVERGENCE_BAND_K = 0.5
# Ticks re-run to check that one seed reproduces the same CSV bytes.
PREFIX_TICKS = 200
# Rows before every estimator window holds 10 samples carry NaN estimates.
ESTIMATOR_FILL_ROWS = 10

# Field references. Tolerances are the repo's own: 1e-9 for the mirror
# symmetry of acceptance criterion 9, 1e-4 for the coaxial closed form
# (criterion 1), 1e-3 for facet-sum and other quadrature references.
SOURCE_RADIUS = 0.10
OBJECT_RADIUS = 0.015
SYMMETRY_TOL = 1e-9
COAXIAL_TOL = 1e-4
REFERENCE_TOL = 1e-3
REFERENCE_N = 512
PARALLEL_SAMPLES = 64
DSI_SAMPLES = 3
DSI_FACETS = 2000
ROTATION_RANGES = ((-90.0, 90.0), (-90.0, 90.0), (-90.0, 90.0))


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext(-1)


def check_rng(seed: int, purpose: int) -> np.random.Generator:
    """Seeded stream for one purpose (check sampling, micro inputs)."""
    return np.random.default_rng([seed, purpose])


class Checks:
    """Counts correctness checks and keeps the messages of failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.deviations: dict[str, float] = {}

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def deviation(self, name: str, value: float) -> None:
        """Record the largest deviation seen against one reference."""
        self.deviations[name] = max(self.deviations.get(name, 0.0), float(value))

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def vf_max_abs_err(self) -> float | None:
        """Largest |F - reference| over the exact references (coaxial closed
        form, n=512 parallel-disk integral); None if none was checked."""
        found = [self.deviations[k] for k in ("coaxial", "parallel_n512") if k in self.deviations]
        return max(found) if found else None


def _digest(*chunks: bytes) -> str:
    return hashlib.sha256(b"".join(chunks)).hexdigest()


def _same_outputs(digests: list[str], checks: Checks) -> None:
    """Every unit of a run computed the same output from the same inputs."""
    if len(digests) > 1:
        checks.expect(len(set(digests)) == 1, f"{len(set(digests))} different outputs in one run")


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


# ---------------------------------------------------------------------------
# Closed loops
# ---------------------------------------------------------------------------


class ClosedLoop:
    """`run_simulation` over a scenario's horizon, then `RunLog.to_csv`."""

    item = "ticks"

    def __init__(self, name: str, scenario_file: str, duration_s: float | None = None):
        self.name = name
        self.path = SCENARIOS / scenario_file
        self.duration_s = duration_s

    def setup_code(self) -> str:
        return f"import thermoservo\nthermoservo.load_scenario({str(self.path)!r})\n"

    def prepare(self, seed: int, out_dir: Path) -> None:
        base = load_scenario(self.path)
        if self.duration_s is not None:
            base = dataclasses.replace(base, duration=self.duration_s)
        self.scenario = dataclasses.replace(
            base,
            sensor=dataclasses.replace(base.sensor, seed=seed),
            adaptive_init=dataclasses.replace(base.adaptive_init, seed=seed),
        )
        self.out_dir = out_dir
        self.csv_path = out_dir / f"{self.name}.csv"

    def unit(self, tracer=None):
        with _span(tracer, "simulator.run_simulation"):
            log = run_simulation(self.scenario)
        with _span(tracer, "simulator.RunLog.to_csv"):
            log.to_csv(self.csv_path)
        return len(log.rows), log

    def collect(self, log) -> dict:
        csv = self.csv_path.read_bytes()
        return {"log": log, "csv": csv, "digest": _digest(csv)}

    def facts(self, out: dict) -> dict:
        return {
            "simulator.ticks": len(out["log"].rows),
            "simulator.csv_bytes": len(out["csv"]),
        }

    def check(self, out: dict, digests: list[str], checks: Checks) -> None:
        scenario = self.scenario
        log = out["log"]
        checks.expect(not log.violation, "workspace violation")
        checks.expect(
            len(log.rows) == scenario.n_ticks + 1,
            f"{len(log.rows)} rows logged, {scenario.n_ticks + 1} expected",
        )
        checks.expect(_log_finite(log, scenario.controller), "non-finite logged value")
        last = log.rows[-1]
        for i, target in enumerate(scenario.targets):
            err = abs(last[log.columns.index(f"T_true_C_{i + 1}")] - (target - 273.15))
            checks.deviation(f"final_error_K_{i + 1}", err)
            checks.expect(
                err < CONVERGENCE_BAND_K,
                f"object {i + 1} ends {err:.3f} K from its target",
            )
        _same_outputs(digests, checks)
        # A second run of the same seed over a shorter horizon must write
        # the same bytes as the head of the full log.
        ticks = min(PREFIX_TICKS, scenario.n_ticks // 2)
        prefix = dataclasses.replace(scenario, duration=ticks * scenario.control_period)
        path = self.out_dir / f"{self.name}-prefix.csv"
        run_simulation(prefix).to_csv(path)
        head = path.read_bytes().splitlines(keepends=True)
        full = out["csv"].splitlines(keepends=True)
        checks.expect(head == full[: len(head)], "repeated seed wrote different CSV bytes")


def _log_finite(log, controller: str) -> bool:
    """Every value finite, except the documented NaN diagnostics: estimates
    and Lyapunov values before the windows fill, adaptive estimates of a
    model-based run."""
    rows = log.rows
    late_only = ("T_hat_C_", "v_hat_Ks_", "dtau_K_", "lyapunov")
    never = ("a1_hat_", "a2_hat_") if controller == "model_based" else ()
    for j, name in enumerate(log.columns):
        if name.startswith(never):
            continue
        col = rows[ESTIMATOR_FILL_ROWS:, j] if name.startswith(late_only) else rows[:, j]
        if not np.isfinite(col).all():
            return False
    return True


# ---------------------------------------------------------------------------
# Field export
# ---------------------------------------------------------------------------


class FieldExport:
    """Translation and rotation isosurfaces at n=64, each exported to CSV.

    The translation part uses the default `TRANSLATION_GRID`; the worker
    count is never passed, so the default pool runs.
    """

    item = "cells"

    def __init__(self, translation_grid: GridSpec | None = None, rotation_step: float = 6.0):
        self.name = "field_export"
        self.translation_grid = translation_grid
        self.rotation_grid = GridSpec(ROTATION_RANGES, rotation_step)

    def setup_code(self) -> str:
        return (
            "import thermoservo\n"
            f"thermoservo.CircleContour({OBJECT_RADIUS!r})\n"
            f"thermoservo.GridSpec({ROTATION_RANGES!r}, {self.rotation_grid.step!r}).shape\n"
        )

    def prepare(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.contour = CircleContour(OBJECT_RADIUS)
        self.parts = (
            ("translation", self.translation_grid, out_dir / "translation.csv"),
            ("rotation", self.rotation_grid, out_dir / "rotation.csv"),
        )

    def unit(self, tracer=None):
        fields = []
        cpu = 0.0
        for subset, grid, path in self.parts:
            cpu0 = _cpu_seconds()
            with _span(tracer, "feasibility.isosurface_grid") as idx:
                field = isosurface_grid(SOURCE_RADIUS, self.contour, subset, grid=grid)
            cpu += _cpu_seconds() - cpu0
            if tracer is not None:
                tracer.merge_workers(idx)
            with _span(tracer, "simulator.export_field"):
                export_field(field, path)
            fields.append(field)
        return sum(f.n_cells for f in fields), (fields, cpu)

    def collect(self, payload) -> dict:
        fields, cpu = payload
        return {
            "fields": fields,
            "cpu_s": cpu,
            "bytes": sum(path.stat().st_size for _, _, path in self.parts),
            "digest": _digest(
                *(a.tobytes() for f in fields for a in (f.values, f.degenerate))
            ),
        }

    def facts(self, out: dict) -> dict:
        fields = out["fields"]
        return {
            "feasibility.cells": sum(f.n_cells for f in fields),
            "feasibility.degenerate_cells": int(sum(f.degenerate.sum() for f in fields)),
            "feasibility.grid_cpu_s": out["cpu_s"],
            "simulator.export_field_bytes": out["bytes"],
        }

    def check(self, out: dict, digests: list[str], checks: Checks) -> None:
        translation, rotation = out["fields"]
        _same_outputs(digests, checks)
        for (subset, _, path), field in zip(self.parts, (translation, rotation)):
            _check_export(field, path, subset, checks)
        check_translation(translation, check_rng(self.seed, 1), checks)
        check_rotation(rotation, self.contour, check_rng(self.seed, 2), checks)


def _check_export(field, path: Path, subset: str, checks: Checks) -> None:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    checks.expect(len(data) == field.n_cells, f"{subset}: {len(data)} rows exported")
    if len(data) != field.n_cells:
        return
    grids = np.meshgrid(*field.axis_values, indexing="ij")
    coords_ok = all(
        np.allclose(data[:, k], grids[k].ravel(), rtol=1e-8, atol=1e-12) for k in range(3)
    )
    values = field.values.ravel()
    values_ok = np.all(np.abs(data[:, 3] - values) <= 1e-8 * np.abs(values))
    checks.expect(coords_ok and values_ok, f"{subset}: exported CSV differs from the field")


def coaxial_view_factor(r_from: float, r_to: float, gap: float) -> float:
    """Closed-form view factor from a disk to a coaxial parallel disk."""
    a = r_from / gap
    b = r_to / gap
    s = 1.0 + (1.0 + b * b) / (a * a)
    return 0.5 * (s - math.sqrt(s * s - 4.0 * (r_to / r_from) ** 2))


def check_translation(field, rng: np.random.Generator, checks: Checks) -> None:
    """Degenerate plane, range, mirror symmetry, coaxial closed form and a
    seeded sample against the parallel-disk integral at n=512."""
    p1, p2, p3 = field.axis_values
    values = field.values
    contact = np.broadcast_to(np.abs(p3)[None, None, :] < 1e-6, values.shape)
    checks.expect(
        np.array_equal(field.degenerate, contact),
        f"{int(field.degenerate.sum())} degenerate cells, {int(contact.sum())} expected "
        "(the p3 = 0 plane)",
    )
    checks.expect(
        bool(np.all((values >= 0.0) & (values < 1.0))), "translation value outside [0, 1)"
    )
    for axis, coords in ((0, p1), (1, p2)):
        mirror = [(i, int(np.argmin(np.abs(coords + c)))) for i, c in enumerate(coords)]
        pairs = [(i, j) for i, j in mirror if abs(coords[i] + coords[j]) < 1e-9]
        a = np.take(values, [i for i, _ in pairs], axis=axis)
        b = np.take(values, [j for _, j in pairs], axis=axis)
        checks.deviation("mirror_symmetry", np.max(np.abs(a - b)) if pairs else 0.0)
        checks.expect(
            bool(pairs) and np.allclose(a, b, rtol=0.0, atol=SYMMETRY_TOL),
            f"translation field not mirror-symmetric in p{axis + 1}",
        )

    i0 = np.flatnonzero(np.abs(p1) < 1e-9)
    j0 = np.flatnonzero(np.abs(p2) < 1e-9)
    for i in i0:
        for j in j0:
            for k, gap_cm in enumerate(p3):
                if field.degenerate[i, j, k]:
                    continue
                ref = coaxial_view_factor(OBJECT_RADIUS, SOURCE_RADIUS, gap_cm * 1e-2)
                err = abs(values[i, j, k] - ref)
                checks.deviation("coaxial", err)
                checks.expect(err <= COAXIAL_TOL, f"coaxial cell p3={gap_cm} cm off by {err:.2e}")

    open_cells = np.argwhere(~field.degenerate)
    picks = rng.choice(len(open_cells), size=min(PARALLEL_SAMPLES, len(open_cells)), replace=False)
    spec = QuadratureSpec(REFERENCE_N)
    for i, j, k in open_cells[np.sort(picks)]:
        pose = Pose(p1[i] * 1e-2, p2[j] * 1e-2, p3[k] * 1e-2)
        ref = vf_parallel_disks(pose, SOURCE_RADIUS, OBJECT_RADIUS, spec).value
        err = abs(values[i, j, k] - ref)
        checks.deviation("parallel_n512", err)
        checks.expect(
            err <= REFERENCE_TOL,
            f"translation cell ({p1[i]}, {p2[j]}, {p3[k]}) cm off by {err:.2e}",
        )


def check_rotation(field, contour, rng: np.random.Generator, checks: Checks) -> None:
    """Range, invariance under theta_z (the object is centred on the source
    axis) and a seeded sample of Partial cells against the facet-sum oracle."""
    tx, ty, tz = field.axis_values
    values = field.values
    checks.expect(
        bool(np.all((values >= 0.0) & (values < 1.0))), "rotation value outside [0, 1)"
    )
    spread = values.max(axis=2) - values.min(axis=2)
    checks.deviation("theta_z_invariance", spread.max())
    checks.expect(
        bool(np.all(spread <= SYMMETRY_TOL)), "rotation field varies along theta_z"
    )

    partial = []
    for i, j, k in rng.permutation(np.argwhere(~field.degenerate)):
        pose = _rotation_pose(tx[i], ty[j], tz[k])
        if isinstance(classify_occlusion(pose, SOURCE_RADIUS), Partial):
            partial.append((i, j, k, pose))
            if len(partial) == DSI_SAMPLES:
                break
    checks.expect(len(partial) == DSI_SAMPLES, "too few Partial rotation cells to check")
    for i, j, k, pose in partial:
        ref = vf_dsi_oracle(pose, SOURCE_RADIUS, contour, DSI_FACETS).value
        err = abs(values[i, j, k] - ref)
        checks.deviation("dsi", err)
        checks.expect(
            err <= REFERENCE_TOL,
            f"rotation cell ({tx[i]}, {ty[j]}, {tz[k]}) deg off the facet sum by {err:.2e}",
        )


def _rotation_pose(tx: float, ty: float, tz: float) -> Pose:
    return Pose(0.0, 0.0, 0.05, math.radians(tx), math.radians(ty), math.radians(tz))


# ---------------------------------------------------------------------------
# Feasibility search
# ---------------------------------------------------------------------------


class FeasibilitySearch:
    """`pairwise_feasibility` on the 3-sheet scenario's workspace and
    targets, as the `feasibility` subcommand builds it."""

    item = "poses"

    def __init__(self, step_cm: float = 2.0):
        self.name = "feasibility_search"
        self.path = SCENARIOS / "three_sheet_adaptive.yaml"
        self.step_cm = step_cm

    def setup_code(self) -> str:
        return (
            "import thermoservo\n"
            f"s = thermoservo.load_scenario({str(self.path)!r})\n"
            "thermoservo.GridSpec(tuple((b[0] * 1e2, b[1] * 1e2 + 1e-9) for b in "
            f"s.workspace.bounds), {self.step_cm!r}).shape\n"
        )

    def prepare(self, seed: int, out_dir: Path) -> None:
        s = load_scenario(self.path)
        self.scenario = s
        self.grid = GridSpec(
            tuple((lo * 1e2, hi * 1e2 + 1e-9) for lo, hi in s.workspace.bounds),
            self.step_cm,
        )
        self.objects = [(o.contour, lambdas(o.material, s.environment)) for o in s.objects]
        self.poses = int(np.prod(self.grid.shape))

    def unit(self, tracer=None):
        s = self.scenario
        with _span(tracer, "feasibility.pairwise_feasibility"):
            report = pairwise_feasibility(
                targets=s.targets,
                displacements=[o.displacement for o in s.objects],
                objects=self.objects,
                source_radius=s.source_radius,
                env=s.environment,
                grid=self.grid,
                spec=s.quadrature,
            )
        return self.poses, report

    def collect(self, report) -> dict:
        return {"report": report, "digest": _digest(repr(report).encode())}

    def facts(self, out: dict) -> dict:
        return {"feasibility.poses": self.poses}

    def check(self, out: dict, digests: list[str], checks: Checks) -> None:
        s = self.scenario
        report = out["report"]
        _same_outputs(digests, checks)
        checks.expect(report.feasible, f"not feasible: {report.reason}")
        if report.witness is None:
            checks.expect(False, "no witness pose")
            return
        w = report.witness
        for i, (obj, (contour, lam)) in enumerate(zip(s.objects, self.objects)):
            p = np.array([w.p1, w.p2, w.p3]) + obj.displacement
            f21 = vf_general(Pose(p[0], p[1], p[2]), s.source_radius, contour, s.quadrature).value
            t_ss = steady_state_temperature(f21, lam)
            err = abs(t_ss - s.targets[i])
            checks.deviation("witness_residual_K", err)
            checks.expect(
                err <= FEASIBILITY_TOLERANCE_K,
                f"witness puts object {i + 1} {err:.3f} K from its target",
            )
            checks.expect(
                abs(t_ss - report.steady_states[i]) <= 1e-9,
                f"object {i + 1}: reported steady state differs from vf_general",
            )


WORKLOADS = {
    "closed_loop_adaptive": lambda: ClosedLoop(
        "closed_loop_adaptive", "three_sheet_adaptive.yaml"
    ),
    "closed_loop_model_based": lambda: ClosedLoop(
        "closed_loop_model_based", "aluminum_model_based.yaml"
    ),
    "field_export": FieldExport,
    "feasibility_search": FeasibilitySearch,
}
