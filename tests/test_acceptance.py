"""End-to-end acceptance checks.

One test per criterion; each prints a `[criterion N] PASS` line (run with
`pytest tests/test_acceptance.py -v -s` to see them). Tolerances are fixed
here, not tuned at runtime.
"""
import math
import time

import numpy as np
import pytest

from thermoservo import (
    AdaptiveInit,
    CircleContour,
    Environment,
    Gains,
    GridSpec,
    ObjectSpec,
    Pose,
    QuadratureSpec,
    Scenario,
    SensorSpec,
    SourceSchedule,
    ThermoParams,
    VelocityLimits,
    Workspace,
    export_field,
    fourier_fit,
    isosurface_grid,
    l_parallel,
    lambdas,
    pairwise_feasibility,
    required_view_factor,
    run_simulation,
    target_bounds,
    vf_dsi_oracle,
    vf_general,
    vf_parallel_disks,
)
from thermoservo.feasibility import TRANSLATION_GRID
from thermoservo.units import celsius_to_kelvin as c2k
from thermoservo.units import kelvin_to_celsius as k2c

from conftest import BUNNY_BUMPS, HAND_BUMPS, coaxial_disk_view_factor, star_polyline

SOURCE_RADIUS = 0.10
ENV = Environment(c2k(200.0), 0.25, c2k(23.0))
ALUMINUM = ThermoParams.from_disk(0.04, 0.04, 903.0, 2702.0, 0.015, 0.003)
SHEET = ThermoParams.from_disk(0.90, 0.90, 1800.0, 1250.0, 0.015, 0.001)
WORKSPACE = Workspace(bounds=((-0.25, 0.25), (-0.25, 0.25), (0.008, 0.40)))


def aluminum_servo(target_c: float, duration: float, gains=Gains(d=0.2, k=0.05)) -> Scenario:
    return Scenario(
        environment=ENV,
        source_radius=SOURCE_RADIUS,
        objects=(ObjectSpec("disk", CircleContour(0.015), ALUMINUM, np.zeros(3), c2k(23.0)),),
        targets=(c2k(target_c),),
        controller="model_based",
        gains=gains,
        limits=VelocityLimits(0.0125, 0.2),
        initial_pose=Pose(0.0, 0.0, 0.15),
        dof=3,
        sensor=SensorSpec(0.0, 1),
        control_period=4.0,
        duration=duration,
        workspace=WORKSPACE,
        quadrature=QuadratureSpec(16),
    )


def sheet_servo(k_gain: float, duration: float = 2500.0) -> Scenario:
    return Scenario(
        environment=ENV,
        source_radius=SOURCE_RADIUS,
        objects=(ObjectSpec("sheet", CircleContour(0.015), SHEET, np.zeros(3), c2k(23.0)),),
        targets=(c2k(50.0),),
        controller="model_based",
        gains=Gains(d=0.2, k=k_gain),
        limits=VelocityLimits(0.05, 0.2),
        initial_pose=Pose(0.0, 0.0, 0.15),
        dof=3,
        sensor=SensorSpec(0.0, 1),
        control_period=1.0,
        duration=duration,
        workspace=WORKSPACE,
        quadrature=QuadratureSpec(16),
    )


def three_object_rig():
    """Triangular holder with two irregular printed sheets and a disk."""
    bunny_contour = fourier_fit(star_polyline(0.018, BUNNY_BUMPS), 5)
    hand_contour = fourier_fit(star_polyline(0.016, HAND_BUMPS), 5)
    circle_contour = CircleContour(0.015)

    def sheet_material(emittance, density, contour):
        return ThermoParams(
            emittance, emittance, 1800.0, density * contour.area * 0.001, contour.area
        )

    contours = (bunny_contour, hand_contour, circle_contour)
    materials = (
        sheet_material(0.92, 500.0, bunny_contour),
        sheet_material(0.90, 700.0, hand_contour),
        sheet_material(0.90, 1250.0, circle_contour),
    )
    arms = tuple(
        np.array([0.034 * math.cos(math.radians(a)), 0.034 * math.sin(math.radians(a)), 0.0])
        for a in (90.0, 210.0, 330.0)
    )
    return contours, materials, arms


def adaptive_servo(targets_c, duration=8000.0, schedule=None) -> Scenario:
    contours, materials, arms = three_object_rig()
    objects = tuple(
        ObjectSpec(name, contour, material, arm, c2k(23.0))
        for name, contour, material, arm in zip(
            ("bunny", "hand", "circle"), contours, materials, arms
        )
    )
    return Scenario(
        environment=ENV,
        source_radius=SOURCE_RADIUS,
        objects=objects,
        targets=tuple(c2k(t) for t in targets_c),
        controller="adaptive",
        gains=Gains(d=0.2, k=0.15, mu=0.05, gamma1=0.1, gamma2=1e-18),
        limits=VelocityLimits(0.0015, 0.2),
        adaptive_init=AdaptiveInit(seed=7, spread=3.0, a1_center=5.0, a2_center=2e-10),
        initial_pose=Pose(0.0, 0.0, 0.10),
        dof=3,
        sensor=SensorSpec(0.1, 11),
        control_period=2.0,
        duration=duration,
        workspace=WORKSPACE,
        quadrature=QuadratureSpec(16),
        source_schedule=schedule,
    )


def tail_errors(log, targets_c, fraction=0.1):
    n = len(log.rows)
    start = int((1.0 - fraction) * n)
    return [
        np.abs(log.column(f"T_true_C_{i + 1}") - targets_c[i])[start:].max()
        for i in range(len(targets_c))
    ]


def settle_time(log, target_c, band=0.5):
    temps = log.column("T_true_C_1")
    err = np.abs(temps - target_c)
    inside = err < band
    for i in range(len(temps)):
        if inside[i:].all():
            return log.column("time_s")[i]
    return math.inf


def test_criterion_1_coaxial_accuracy_and_speed():
    spec = QuadratureSpec(64)
    combos = [
        (r1, r2, gap)
        for r1, r2 in ((0.015, 0.015), (0.05, 0.015), (0.015, 0.03), (0.10, 0.015))
        for gap in (0.02, 0.035, 0.05, 0.10, 0.20)
    ]
    assert len(combos) == 20
    worst = 0.0
    elapsed = 0.0
    for r1, r2, gap in combos:
        t0 = time.perf_counter()
        value = vf_parallel_disks(Pose(0, 0, gap), r1, r2, spec).value
        elapsed += time.perf_counter() - t0
        # closed form evaluated from the object (radius r2) to the source
        worst = max(worst, abs(value - coaxial_disk_view_factor(r2, r1, gap)))
    per_eval_ms = elapsed / len(combos) * 1e3
    assert worst <= 1e-4, f"worst coaxial deviation {worst:.2e}"
    assert per_eval_ms < 10.0, f"evaluation took {per_eval_ms:.2f} ms"
    print(
        f"\n[criterion 1] PASS - coaxial deviation {worst:.2e} <= 1e-4, "
        f"{per_eval_ms:.2f} ms/eval < 10 ms"
    )


def test_criterion_2_irregular_contour_vs_dsi():
    contour = fourier_fit(star_polyline(0.018, BUNNY_BUMPS), 5)
    pose = Pose(0.0, 0.0, 0.05)
    # warm up the facet-sum path so timing excludes one-time setup
    vf_dsi_oracle(pose, SOURCE_RADIUS, contour, 100)

    t0 = time.perf_counter()
    fourier_value = vf_general(pose, SOURCE_RADIUS, contour, QuadratureSpec(64)).value
    fourier_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    dsi_value = vf_dsi_oracle(pose, SOURCE_RADIUS, contour, 20000).value
    dsi_time = time.perf_counter() - t0

    deviation = abs(fourier_value - dsi_value)
    speedup = dsi_time / fourier_time
    assert deviation <= 1e-3, f"deviation {deviation:.2e}"
    assert speedup >= 10.0, f"speedup only {speedup:.1f}x"
    print(
        f"\n[criterion 2] PASS - Fourier {fourier_value:.6f} vs DSI {dsi_value:.6f} "
        f"(diff {deviation:.2e} <= 1e-3), speedup {speedup:.0f}x >= 10x"
    )


def test_criterion_3_interaction_consistency(aluminum_lambdas):
    spec = QuadratureSpec(64)
    lam1 = aluminum_lambdas.lambda1
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(50):
        pose = Pose(
            rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05), rng.uniform(0.03, 0.15)
        )
        row = l_parallel(pose, SOURCE_RADIUS, 0.015, lam1, spec)
        reference = np.empty(3)
        h = 1e-5
        for i in range(3):
            x, step = pose.as_vector(), h * np.eye(6)[i]
            up, down = Pose.from_vector(x + step), Pose.from_vector(x - step)
            fp = vf_parallel_disks(up, SOURCE_RADIUS, 0.015, spec).value
            fm = vf_parallel_disks(down, SOURCE_RADIUS, 0.015, spec).value
            reference[i] = lam1 * (fp - fm) / (2 * h)
        worst = max(worst, np.linalg.norm(row - reference) / np.linalg.norm(reference))
    coaxial = l_parallel(Pose(0, 0, 0.05), SOURCE_RADIUS, 0.015, lam1, spec)
    assert worst <= 1e-4, f"worst relative deviation {worst:.2e}"
    assert abs(coaxial[0]) < 1e-8 and abs(coaxial[1]) < 1e-8
    print(
        f"\n[criterion 3] PASS - 50 random poses, worst relative deviation "
        f"{worst:.2e} <= 1e-4; coaxial lateral components < 1e-8"
    )


def test_criterion_4_steady_state_table(aluminum_lambdas):
    table = {30.0: 0.12, 40.0: 0.37, 50.0: 0.65}
    deviations = {}
    for target_c, reported in table.items():
        f_required = required_view_factor(c2k(target_c), aluminum_lambdas)
        deviations[target_c] = abs(f_required - reported)
        assert deviations[target_c] <= 0.05, (
            f"T*={target_c} C needs F={f_required:.3f}, reported {reported}"
        )
    lo, hi = target_bounds(ENV)
    assert k2c(hi) == pytest.approx(61.4, abs=0.1)
    assert not lo <= c2k(80.0) < hi, "80 C must exceed the reachable bound"
    print(
        "\n[criterion 4] PASS - view factors for 30/40/50 C within 0.05 of "
        f"0.12/0.37/0.65 (max dev {max(deviations.values()):.3f}); "
        f"upper bound {k2c(hi):.2f} C explains the failed 80 C run"
    )


def test_criterion_5_model_based_closed_loop():
    # (a) Lyapunov monotonicity on a fine-period exact-model run
    fine = Scenario(
        environment=ENV,
        source_radius=SOURCE_RADIUS,
        objects=(ObjectSpec("sheet", CircleContour(0.015), SHEET, np.zeros(3), c2k(23.0)),),
        targets=(c2k(50.0),),
        controller="model_based",
        gains=Gains(d=0.2, k=0.05),
        limits=VelocityLimits(0.05, 0.2),
        initial_pose=Pose(0.0, 0.0, 0.15),
        dof=3,
        sensor=SensorSpec(0.0, 1),
        control_period=0.05,
        plant_dt=0.05,
        duration=700.0,
        workspace=WORKSPACE,
        quadrature=QuadratureSpec(16),
    )
    log = run_simulation(fine)
    q = log.column("lyapunov")
    clamped = log.column("clamped")
    valid = ~np.isnan(q)
    dq = np.diff(q[valid])
    unclamped = clamped[valid][:-1] == 0.0
    assert unclamped.sum() > 1000, "run never reached the unclamped regime"
    q_tolerance = 1e-8 * q[valid][0]
    worst_dq = dq[unclamped].max()
    assert worst_dq <= q_tolerance, f"Q increased by {worst_dq:.2e} at an unclamped tick"

    # (b) steady errors for three targets on the bench aluminum disk
    finals = {}
    for target_c, duration in ((40.0, 30000.0), (50.0, 40000.0), (60.0, 90000.0)):
        run = run_simulation(aluminum_servo(target_c, duration))
        finals[target_c] = tail_errors(run, [target_c], fraction=0.05)[0]
        assert finals[target_c] < 0.5, f"T*={target_c}: tail error {finals[target_c]:.3f}"

    # (c) gain sweep: over/under-damped ordering
    runs = {k: run_simulation(sheet_servo(k)) for k in (0.005, 0.05, 0.5)}
    settle = {k: settle_time(runs[k], 50.0) for k in runs}
    overshoot = {k: runs[k].column("T_true_C_1").max() - 50.0 for k in runs}
    half = len(runs[0.5].rows) // 2
    crossings = {
        k: int(np.sum(np.abs(np.diff(np.sign(runs[k].column("T_true_C_1")[half:] - 50.0))) > 0))
        for k in runs
    }
    assert settle[0.005] > settle[0.05], f"settle times {settle}"
    assert overshoot[0.005] <= 0.05, f"K=0.005 overshoot {overshoot[0.005]:.3f}"
    assert overshoot[0.05] > 0.01, f"K=0.05 overshoot {overshoot[0.05]:.3f}"
    assert crossings[0.5] >= 20 > crossings[0.005], f"crossings {crossings}"
    assert crossings[0.5] >= 20 > crossings[0.05], f"crossings {crossings}"
    print(
        f"\n[criterion 5] PASS - Q non-increasing on {int(unclamped.sum())} unclamped "
        f"ticks (worst +{worst_dq:.1e} <= {q_tolerance:.1e}); steady errors "
        + ", ".join(f"T*={t}: {e:.3f} K" for t, e in finals.items())
        + f"; gain sweep settle {settle[0.005]:.0f}s > {settle[0.05]:.0f}s, "
        f"oscillation only at K=0.5 ({crossings[0.5]} crossings)"
    )


FEASIBLE_TARGET_VECTORS = {
    "tau1": (40.0, 40.0, 40.0),
    "tau2": (50.0, 40.0, 40.0),
    "tau3": (50.0, 50.0, 35.0),
    "tau4": (60.0, 60.0, 30.0),
    "tau5": (50.0, 45.0, 35.0),
    "tau6": (40.0, 45.0, 50.0),
}
INFEASIBLE_TARGET_VECTORS = {"high-low": (70.0, 35.0, 35.0), "all-high": (80.0, 80.0, 80.0)}


def test_criterion_6_adaptive_closed_loop():
    # feasible target vectors converge within the band
    worst_by_vector = {}
    estimate_extent = 0.0
    for name, targets in FEASIBLE_TARGET_VECTORS.items():
        log = run_simulation(adaptive_servo(targets))
        errors = tail_errors(log, targets)
        worst_by_vector[name] = max(errors)
        assert max(errors) < 0.5, f"{name}: tail errors {np.round(errors, 3)}"
        for i in range(3):
            a1 = log.column(f"a1_hat_{i + 1}")
            a2 = log.column(f"a2_hat_{i + 1}")
            assert np.isfinite(a1).all() and np.isfinite(a2).all()
            estimate_extent = max(estimate_extent, np.abs(a1).max())
            assert np.abs(a1).max() < 1e3 and np.abs(a2).max() < 1e-6

    # energy decay on a fine-period exact run (known plant, wrong estimates)
    sheet_lam = lambdas(SHEET, ENV)
    fine = Scenario(
        environment=ENV,
        source_radius=SOURCE_RADIUS,
        objects=(ObjectSpec("sheet", CircleContour(0.015), SHEET, np.zeros(3), c2k(23.0)),),
        targets=(c2k(50.0),),
        controller="adaptive",
        gains=Gains(d=0.2, k=0.15, mu=0.05, gamma1=0.1, gamma2=1e-18),
        limits=VelocityLimits(0.05, 0.2),
        adaptive_init=AdaptiveInit(
            seed=3,
            spread=2.0,
            a1_center=1.5 / sheet_lam.lambda1,
            a2_center=0.5 * sheet_lam.lambda2 / sheet_lam.lambda1,
        ),
        initial_pose=Pose(0.0, 0.0, 0.15),
        dof=3,
        sensor=SensorSpec(0.0, 1),
        control_period=0.05,
        plant_dt=0.05,
        duration=700.0,
        workspace=WORKSPACE,
        quadrature=QuadratureSpec(16),
    )
    fine_log = run_simulation(fine)
    h = fine_log.column("lyapunov")
    clamped = fine_log.column("clamped")
    valid = ~np.isnan(h)
    dh = np.diff(h[valid])
    unclamped = clamped[valid][:-1] == 0.0
    h_tolerance = 1e-8 * h[valid][0]
    worst_dh = dh[unclamped].max()
    assert worst_dh <= h_tolerance, f"H increased by {worst_dh:.2e} at an unclamped tick"

    # infeasible vectors: persistent error and a pre-run flag
    contours, materials, arms = three_object_rig()
    lams = [lambdas(m, ENV) for m in materials]
    grid = GridSpec(ranges=((-14.0, 14.0), (-14.0, 14.0), (1.0, 26.0)), step=2.0)
    failures = {}
    for name, targets in INFEASIBLE_TARGET_VECTORS.items():
        report = pairwise_feasibility(
            [c2k(t) for t in targets],
            arms,
            list(zip(contours, lams)),
            SOURCE_RADIUS,
            ENV,
            grid,
            QuadratureSpec(16),
        )
        assert not report.feasible, f"{name} should be pre-flagged infeasible"
        assert report.bound_violations, f"{name} violates the reachability bound"
        log = run_simulation(adaptive_servo(targets, duration=3000.0))
        final_errors = [
            abs(log.column(f"T_true_C_{i + 1}")[-1] - targets[i]) for i in range(3)
        ]
        failures[name] = max(final_errors)
        assert max(final_errors) > 2.0, f"{name}: expected persistent error"

    print(
        "\n[criterion 6] PASS - feasible vectors tail errors "
        + ", ".join(f"{k}: {v:.3f} K" for k, v in worst_by_vector.items())
        + f"; H non-increasing (worst +{worst_dh:.1e} <= {h_tolerance:.1e}); "
        + "infeasible vectors pre-flagged with persistent errors "
        + ", ".join(f"{k}: {v:.1f} K" for k, v in failures.items())
    )


def test_criterion_7_moving_source():
    schedule = SourceSchedule(
        times=np.array([0.0, 3000.0, 3600.0]),
        centers=np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.05, 0.0, 0.0]]),
    )
    log = run_simulation(adaptive_servo((40.0, 40.0, 40.0), schedule=schedule))
    errors = tail_errors(log, (40.0, 40.0, 40.0))
    assert max(errors) < 0.5, f"final errors {np.round(errors, 3)}"
    final_p1 = log.column("p1_m")[-1]
    assert final_p1 > 0.02, "rig did not follow the source translation"
    print(
        f"\n[criterion 7] PASS - 5 cm source move mid-run, final errors "
        f"{np.round(errors, 3)} K all < 0.5 K (rig tracked to p1={final_p1 * 100:.1f} cm)"
    )


def test_criterion_8_estimator():
    from thermoservo import SampleWindow

    window = SampleWindow()
    result = None
    for k in range(10):
        emitted = window.push_and_estimate(float(k), float(k) ** 3)
        if k < 9:
            assert emitted is None, "estimate emitted before 10 samples"
        result = emitted
    t_hat, v_hat = result
    assert t_hat == pytest.approx(729.0, rel=1e-9)
    assert v_hat == pytest.approx(243.0, rel=1e-9)

    rng = np.random.default_rng(42)
    noisy = SampleWindow()
    slope_errors = []
    for k in range(60):
        est = noisy.push_and_estimate(float(k), 300.0 + 2.0 * k + rng.uniform(-0.1, 0.1))
        if est is not None:
            slope_errors.append(abs(est[1] - 2.0))
    assert max(slope_errors) < 0.15, f"worst slope error {max(slope_errors):.3f}"
    print(
        f"\n[criterion 8] PASS - cubic exact to 1e-9, no early estimates, "
        f"seeded-noise slope error {max(slope_errors):.3f} < 0.15 K/s"
    )


def test_criterion_9_isosurface_grid(tmp_path):
    t0 = time.perf_counter()
    field = isosurface_grid(
        SOURCE_RADIUS,
        CircleContour(0.015),
        "translation",
        TRANSLATION_GRID,
        QuadratureSpec(64),
    )
    elapsed = time.perf_counter() - t0
    assert field.n_cells == 48000
    assert elapsed < 60.0, f"grid took {elapsed:.1f} s"

    path = tmp_path / "translation_grid.csv"
    export_field(field, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 48001

    values = field.values
    assert np.all(values >= 0.0) and np.all(values < 1.0)
    axis = field.axis_values[0]
    for i, p1 in enumerate(axis):
        j = int(np.argmin(np.abs(axis + p1)))
        if abs(axis[j] + p1) > 1e-9:
            continue
        assert np.allclose(values[i], values[j], atol=1e-9), f"mirror mismatch at p1={p1}"
    k0 = int(np.argmin(np.abs(field.axis_values[2])))
    assert field.degenerate[:, :, k0].all(), "source-plane cells must be flagged"
    print(
        f"\n[criterion 9] PASS - 48,000 cells in {elapsed:.1f} s < 60 s; "
        f"48,001 lines exported; mirror symmetry and range checks hold"
    )


def test_criterion_10_determinism(tmp_path):
    scenario_a = adaptive_servo((40.0, 45.0, 50.0), duration=600.0)
    scenario_b = adaptive_servo((40.0, 45.0, 50.0), duration=600.0)
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_simulation(scenario_a).to_csv(path_a)
    run_simulation(scenario_b).to_csv(path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    print("\n[criterion 10] PASS - identical seeds produce byte-identical logs")
