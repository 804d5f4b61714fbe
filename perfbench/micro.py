"""Micro set: per-call timings of the public functions behind each layer.

Inputs are seeded and taken from the workloads: poses the 3-sheet loop
visits, translation and rotation grid cells, the estimator's sample
stream, the control laws' operands and a loop-sized log. Every entry
reports the median of a fixed number of timed calls.
"""
from __future__ import annotations

from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from thermoservo import (
    AdaptiveState,
    CircleContour,
    Pose,
    QuadratureSpec,
    RunLog,
    SampleWindow,
    ScalarField,
    ThermalState,
    adaptive_control,
    export_field,
    integrate_thermal,
    lambdas,
    load_scenario,
    model_based_control,
    vf_general,
    view_factor_gradient,
)
from thermoservo.geometry import Common, Partial, classify_occlusion

from workloads import OBJECT_RADIUS, SCENARIOS, SOURCE_RADIUS, check_rng

VF_SAMPLES = 200
SMALL_SAMPLES = 400
FILE_SAMPLES = 5


def _timed(fn, inputs) -> float:
    """Median wall time of fn(*x) over the inputs, in microseconds."""
    times = []
    for x in inputs:
        t0 = perf_counter()
        fn(*x)
        times.append(perf_counter() - t0)
    return median(times) * 1e6


def _poses(rng, draw, kind, count):
    """`count` poses from `draw(rng)` whose occlusion class is `kind`."""
    out = []
    while len(out) < count:
        pose = draw(rng)
        if pose.p3 > 0.002 and isinstance(classify_occlusion(pose, SOURCE_RADIUS), kind):
            out.append(pose)
    return out


def _loop_pose(rng, displacement):
    """End-effector positions the 3-sheet loop moves through, plus a sheet
    offset."""
    p = np.array([rng.uniform(-0.03, 0.03), rng.uniform(-0.03, 0.03), rng.uniform(0.04, 0.12)])
    p = p + displacement
    return Pose(p[0], p[1], p[2])


def _rotation_cell(rng):
    t = np.radians(rng.uniform(-90.0, 90.0, 3))
    return Pose(0.0, 0.0, 0.05, *t)


def _translation_cell(rng):
    return Pose(*(rng.uniform([-0.2, -0.2, 0.01], [0.2, 0.2, 0.3])))


def run_micro(seed: int, out_dir: Path) -> dict[str, tuple[float, int, str]]:
    """Return metric name -> (value, sample count, unit)."""
    rng = check_rng(seed, 3)
    sheets = load_scenario(SCENARIOS / "three_sheet_adaptive.yaml")
    disk = load_scenario(SCENARIOS / "aluminum_model_based.yaml")
    circle = CircleContour(OBJECT_RADIUS)
    n16, n64 = QuadratureSpec(16), QuadratureSpec(64)
    result = {}

    objs = sheets.objects
    loop_inputs = []
    for _ in range(VF_SAMPLES):
        obj = objs[rng.integers(len(objs))]
        pose = _poses(rng, lambda r: _loop_pose(r, obj.displacement), Common, 1)[0]
        loop_inputs.append((pose, SOURCE_RADIUS, obj.contour, n16))
    partial = _poses(rng, _rotation_cell, Partial, VF_SAMPLES)
    common64 = _poses(rng, _translation_cell, Common, VF_SAMPLES)
    vf_sets = {
        "viewfactor.common_n16_us": loop_inputs,
        "viewfactor.partial_n16_us": [(p, SOURCE_RADIUS, circle, n16) for p in partial],
        "viewfactor.common_n64_us": [(p, SOURCE_RADIUS, circle, n64) for p in common64],
        "viewfactor.partial_n64_us": [(p, SOURCE_RADIUS, circle, n64) for p in partial],
    }
    for name, inputs in vf_sets.items():
        result[name] = (_timed(vf_general, inputs), len(inputs), "us")

    # As in the loop: translation components only, base value supplied.
    grad_inputs = [x + (vf_general(*x).value,) for x in loop_inputs[:100]]

    def gradient(pose, radius, contour, spec, base):
        return view_factor_gradient(
            pose, radius, contour, spec, indices=(0, 1, 2), base_value=base
        )

    result["micro.gradient_us"] = (_timed(gradient, grad_inputs), len(grad_inputs), "us")

    window = SampleWindow()
    period = sheets.control_period
    for k in range(9):
        window.push_and_estimate(k * period, 296.15 + rng.uniform(-0.1, 0.1))
    samples = [
        ((9 + k) * period, 296.15 + 0.01 * k + rng.uniform(-0.1, 0.1))
        for k in range(SMALL_SAMPLES)
    ]
    result["micro.estimate_us"] = (
        _timed(window.push_and_estimate, samples), len(samples), "us"
    )

    grads = [gradient(*x)[:3] for x in grad_inputs[:30]]
    n_obj = len(objs)
    adaptive_inputs = []
    for k in range(SMALL_SAMPLES):
        j_matrix = np.array([grads[(k + i) % len(grads)] for i in range(n_obj)])
        t_hat = 296.15 + rng.uniform(0.0, 30.0, n_obj)
        state = AdaptiveState(
            5.0 * np.exp(rng.uniform(-1.0, 1.0, n_obj)),
            2e-10 * np.exp(rng.uniform(-1.0, 1.0, n_obj)),
        )
        adaptive_inputs.append(
            (
                j_matrix, rng.uniform(-0.02, 0.02, n_obj), rng.uniform(-20.0, 5.0, n_obj),
                t_hat**3, state, sheets.gains, sheets.pinv_damping, sheets.limits,
            )
        )
    result["micro.adaptive_control_us"] = (
        _timed(adaptive_control, adaptive_inputs), len(adaptive_inputs), "us"
    )

    lam = lambdas(disk.objects[0].material, disk.environment)
    model_inputs = []
    for k in range(SMALL_SAMPLES):
        t_hat = 296.15 + rng.uniform(0.0, 30.0, 1)
        model_inputs.append(
            (
                lam.lambda1 * grads[k % len(grads)][None, :], rng.uniform(-0.01, 0.01, 1),
                rng.uniform(-30.0, 5.0, 1), t_hat**3, np.array([lam.lambda2]),
                disk.gains, disk.pinv_damping, disk.limits,
            )
        )
    result["micro.model_based_control_us"] = (
        _timed(model_based_control, model_inputs), len(model_inputs), "us"
    )

    sheet_lam = lambdas(objs[0].material, sheets.environment)
    substeps = max(1, int(round(period / sheets.plant_dt)))
    thermal_inputs = []
    for k in range(SMALL_SAMPLES):
        t0 = k * period
        # The loop's view factor, linear across the period.
        f_start, f_end = rng.uniform(0.05, 0.4, 2)

        def f_of_time(t, a=f_start, b=f_end, t0=t0):
            return a + (b - a) * (t - t0) / period

        thermal_inputs.append(
            (
                ThermalState(296.15 + rng.uniform(0.0, 30.0)), f_of_time, sheet_lam,
                period / substeps, substeps, t0,
            )
        )
    result["micro.thermal_period_us"] = (
        _timed(integrate_thermal, thermal_inputs), len(thermal_inputs), "us"
    )

    columns = [f"c{k}" for k in range(1 + 8 * n_obj + sheets.dof + 6 + 2)]
    rows = rng.uniform(-100.0, 100.0, (sheets.n_ticks + 1, len(columns)))
    log = RunLog(columns=columns, rows=rows)
    csv_path = out_dir / "micro-log.csv"
    result["micro.to_csv_ms"] = (
        _timed(log.to_csv, [(csv_path,)] * FILE_SAMPLES) / 1e3, FILE_SAMPLES, "ms"
    )

    axes = tuple(np.arange(20.0) for _ in range(3))
    field = ScalarField(
        axis_names=("p1", "p2", "p3"),
        axis_values=axes,
        values=rng.uniform(0.0, 0.9, (20, 20, 20)),
        degenerate=np.zeros((20, 20, 20), dtype=bool),
    )
    field_path = out_dir / "micro-field.csv"
    result["micro.export_field_ms"] = (
        _timed(export_field, [(field, field_path)] * FILE_SAMPLES) / 1e3, FILE_SAMPLES, "ms"
    )
    return result
