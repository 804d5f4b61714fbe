import copy
import dataclasses
import hashlib
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoservo import (
    AdaptiveInit,
    CircleContour,
    Environment,
    Gains,
    GridSpec,
    ObjectSpec,
    Pose,
    QuadratureSpec,
    RunLog,
    ScalarField,
    Scenario,
    ScenarioError,
    SensorSpec,
    SourceSchedule,
    ThermoParams,
    VelocityLimits,
    Workspace,
    export_field,
    isosurface_grid,
    lambdas,
    load_scenario,
    run_simulation,
    scenario_from_dict,
)
from thermoservo import scenario as schema
from thermoservo.units import celsius_to_kelvin as c2k

from conftest import temperature_rate

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def quick_scenario(**overrides) -> Scenario:
    """Small, fast single-object run used across simulator tests."""
    sheet = ThermoParams.from_disk(0.90, 0.90, 1800.0, 1250.0, 0.015, 0.001)
    defaults = dict(
        environment=Environment(c2k(200.0), 0.25, c2k(23.0)),
        source_radius=0.10,
        objects=(ObjectSpec("sheet", CircleContour(0.015), sheet, np.zeros(3), c2k(23.0)),),
        targets=(c2k(45.0),),
        controller="model_based",
        gains=Gains(d=0.2, k=0.05),
        limits=VelocityLimits(0.01, 0.2),
        initial_pose=Pose(0.0, 0.0, 0.12),
        dof=3,
        sensor=SensorSpec(0.1, 3),
        control_period=2.0,
        duration=400.0,
        workspace=Workspace(bounds=((-0.3, 0.3), (-0.3, 0.3), (0.01, 0.45))),
        quadrature=QuadratureSpec(16),
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestScenarioValidation:
    def test_more_objects_than_dof(self):
        sheet = ThermoParams.from_disk(0.9, 0.9, 1800.0, 1250.0, 0.015, 0.001)
        objs = tuple(
            ObjectSpec(f"s{i}", CircleContour(0.015), sheet, np.zeros(3), 300.0)
            for i in range(4)
        )
        with pytest.raises(ScenarioError):
            quick_scenario(objects=objs, targets=(300.0,) * 4)

    def test_target_count_mismatch(self):
        with pytest.raises(ScenarioError):
            quick_scenario(targets=(300.0, 310.0))

    @pytest.mark.parametrize("centers", [{}, {"a1_center": 5.0}, {"a2_center": 2e-10}])
    def test_the_adaptive_controller_needs_both_centers(self, centers):
        """There is no default start: a missing center fails when the
        scenario is built, naming both."""
        message = "needs the start centers adaptive_init.a1_center and adaptive_init.a2_center"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            quick_scenario(controller="adaptive", adaptive_init=AdaptiveInit(**centers))
        quick_scenario(adaptive_init=AdaptiveInit(**centers))  # model-based: no start
        quick_scenario(
            controller="adaptive", adaptive_init=AdaptiveInit(a1_center=5.0, a2_center=2e-10)
        )

    @pytest.mark.parametrize("damping", [-1.0, math.inf, math.nan])
    def test_pinv_damping_must_be_finite_and_non_negative(self, damping):
        with pytest.raises(ScenarioError, match="pinv_damping must be finite and >= 0"):
            quick_scenario(pinv_damping=damping)

    @pytest.mark.parametrize("spread", [0.0, 0.5, math.inf, math.nan])
    def test_adaptive_spread_must_be_finite_and_at_least_one(self, spread):
        """Below 1 the start interval [1/spread, spread] is empty."""
        with pytest.raises(ScenarioError, match="spread must be finite and >= 1"):
            AdaptiveInit(spread=spread)
        AdaptiveInit(spread=1.0)

    def test_a_start_outside_the_workspace_is_rejected(self):
        """The driver saturates every step at the box, so a start outside it
        would jump onto the box at the first step with no commanded velocity;
        the scenario is rejected when it is built, naming the pose and box."""
        box = Workspace(bounds=((-0.05, 0.05), (-0.05, 0.05), (0.05, 0.15)))
        message = (
            "initial pose (20, 0, 40) cm lies outside the workspace box "
            "p1 [-5, 5], p2 [-5, 5], p3 [5, 15] cm"
        )
        with pytest.raises(ScenarioError, match=re.escape(message)):
            quick_scenario(initial_pose=Pose(0.2, 0.0, 0.4), workspace=box)
        quick_scenario(initial_pose=Pose(0.05, -0.05, 0.15), workspace=box)  # on its faces

    @pytest.mark.parametrize("center_cm", [[0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    def test_waypoint_center_needs_three_coordinates(self, center_cm):
        raw = yaml.safe_load((SCENARIO_DIR / "aluminum_model_based.yaml").read_text())
        raw["source"]["waypoints"] = [{"time_s": 0.0, "center_cm": center_cm}]
        with pytest.raises(ScenarioError):
            scenario_from_dict(raw)

    @pytest.mark.parametrize(
        "p3_cm", [[10.0, 0.0], [1.0, float("inf")], [float("nan"), 45.0]]
    )
    def test_workspace_range_must_be_finite_and_ordered(self, p3_cm):
        raw = yaml.safe_load((SCENARIO_DIR / "aluminum_model_based.yaml").read_text())
        raw["workspace_cm"]["p3"] = p3_cm
        with pytest.raises(ScenarioError, match="workspace p3 range"):
            scenario_from_dict(raw)

    @pytest.mark.parametrize(
        "where, key, context",
        [
            (("objects", 0, "material"), "density", r"objects\[0\]\.material"),
            (("workspace_cm",), "p3", "workspace_cm"),
            (("source", "waypoints", 0), "time_s", r"source\.waypoints"),
        ],
        ids=["density", "workspace_axis", "waypoint_time"],
    )
    def test_missing_key_names_its_context(self, where, key, context):
        raw = yaml.safe_load((SCENARIO_DIR / "aluminum_model_based.yaml").read_text())
        raw["source"]["waypoints"] = [{"time_s": 0.0, "center_cm": [0.0, 0.0, 0.0]}]
        mapping = raw
        for k in where:
            mapping = mapping[k]
        del mapping[key]
        with pytest.raises(ScenarioError, match=f"missing '{key}' in {context}"):
            scenario_from_dict(raw)


@pytest.fixture(scope="module")
def short_log():
    return run_simulation(quick_scenario())


@pytest.fixture(scope="module")
def tiny_field():
    grid = GridSpec(ranges=((-2.0, 3.0), (-2.0, 3.0), (2.0, 8.0)), step=2.0)
    return isosurface_grid(
        0.10, CircleContour(0.015), "translation", grid, QuadratureSpec(16)
    )


class TestAdaptiveStart:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64),
        n=st.integers(1, 6),
        a1=st.floats(allow_nan=False, allow_infinity=False),
        a2=st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_spread_one_starts_at_the_centers_bitwise(self, seed, n, a1, a2):
        a1_hat, a2_hat = AdaptiveInit(seed, 1.0, a1, a2).start(n)
        assert a1_hat.tobytes() == np.full(n, a1).tobytes()
        assert a2_hat.tobytes() == np.full(n, a2).tobytes()

    def test_shipped_start_is_the_seeded_log_uniform_draw(self):
        """The three-sheet run starts where the old `random` mode put it: n
        seeded log-uniform factors in [1/3, 3] for a1, then n for a2."""
        scenario = load_scenario(SCENARIO_DIR / "three_sheet_adaptive.yaml")
        rng = np.random.default_rng(7)
        factors1 = np.exp(rng.uniform(-math.log(3.0), math.log(3.0), 3))
        factors2 = np.exp(rng.uniform(-math.log(3.0), math.log(3.0), 3))
        a1, a2 = scenario.adaptive_init.start(3)
        assert a1.tobytes() == (5.0 * factors1).tobytes()
        assert a2.tobytes() == (2.0e-10 * factors2).tobytes()
        assert not np.any(factors1 == 1.0) and not np.any(factors2 == 1.0)
        log = run_simulation(dataclasses.replace(scenario, duration=4.0))
        for i in range(3):
            assert log.column(f"a1_hat_{i + 1}")[0] == a1[i]
            assert log.column(f"a2_hat_{i + 1}")[0] == a2[i]


class TestRunLoop:
    def test_row_count_and_monotone_time(self, short_log):
        scenario = quick_scenario()
        assert len(short_log.rows) == scenario.n_ticks + 1
        times = short_log.column("time_s")
        assert np.all(np.diff(times) > 0.0)
        assert times[0] == 0.0 and times[-1] == scenario.duration

    def test_robot_holds_still_until_window_filled(self, short_log):
        u_norm = np.linalg.norm(
            np.stack([short_log.column(f"u_{k}") for k in (1, 2, 3)], axis=1), axis=1
        )
        assert np.all(u_norm[:9] == 0.0)
        assert u_norm[10:50].max() > 0.0
        p3 = short_log.column("p3_m")
        assert np.all(p3[:10] == p3[0])

    def test_no_estimates_logged_while_filling(self, short_log):
        t_hat = short_log.column("T_hat_C_1")
        assert np.all(np.isnan(t_hat[:9]))
        assert np.all(~np.isnan(t_hat[9:]))

    def test_determinism_bitwise(self, tmp_path):
        log_a = run_simulation(quick_scenario())
        log_b = run_simulation(quick_scenario())
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        log_a.to_csv(path_a)
        log_b.to_csv(path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_seed_changes_measurements(self):
        log_a = run_simulation(quick_scenario())
        log_b = run_simulation(quick_scenario(sensor=SensorSpec(0.1, 4)))
        assert not np.array_equal(log_a.column("T_meas_C_1"), log_b.column("T_meas_C_1"))

    def test_estimator_tracks_true_rate_without_noise(self, bench_env):
        # Quasi-static pose keeps the heating curve smooth, so the only
        # estimator error left is the cubic-window approximation error.
        scenario = quick_scenario(
            sensor=SensorSpec(0.0, 1),
            duration=600.0,
            limits=VelocityLimits(1e-12, 1e-12),
        )
        log = run_simulation(scenario)
        lam = lambdas(scenario.objects[0].material, bench_env)
        t_true = log.column("T_true_C_1") + 273.15
        f21 = log.column("F21_1")
        v_hat = log.column("v_hat_Ks_1")
        valid = ~np.isnan(v_hat)
        v_true = np.array(
            [temperature_rate(f, t, lam) for f, t in zip(f21[valid], t_true[valid])]
        )
        assert np.abs(v_hat[valid] - v_true).max() < 1e-5

    def test_commands_past_the_workspace_floor_saturate_at_it(self):
        """The run dives toward the source past a 10 cm floor: the driver
        holds p3 at the floor, and the run completes with every row."""
        scenario = quick_scenario(
            workspace=Workspace(bounds=((-0.3, 0.3), (-0.3, 0.3), (0.10, 0.45))),
            duration=600.0,
        )
        log = run_simulation(scenario)
        assert log.termination == "completed"
        assert len(log.rows) == scenario.n_ticks + 1 == 301
        p3 = log.column("p3_m")
        assert p3.min() == 0.10
        assert (p3 == 0.10).sum() > 100

    def test_source_passing_through_the_object_ends_the_run(self):
        """The source rises 40 cm in 60 s past the disk, which starts 15 cm
        up and dives toward it: within the period from 18 s to 20 s the
        disk's centre changes side of the source plane. Each end alone is a
        valid pose (the later one Complete, F21 = 0); the run ends with
        degenerate_pose and keeps the ticks it finished."""
        raw = yaml.safe_load((SCENARIO_DIR / "aluminum_model_based.yaml").read_text())
        raw.update(control_period_s=2.0, duration_s=120.0)
        raw["source"]["waypoints"] = [
            {"time_s": 0.0, "center_cm": [0.0, 0.0, 0.0]},
            {"time_s": 60.0, "center_cm": [0.0, 0.0, 40.0]},
        ]
        scenario = scenario_from_dict(raw)
        log = run_simulation(scenario)
        assert log.termination == "degenerate_pose"
        assert log.detail == "object 1 passes through the source plane between 18 s and 20 s"
        assert len(log.rows) == 10
        assert log.column("F21_1").min() > 0.0
        head = run_simulation(dataclasses.replace(scenario, duration=18.0))
        assert head.termination == "completed"
        assert np.array_equal(log.rows, head.rows, equal_nan=True)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_control_ends_the_run(self):
        """A gain of 1e308 overflows the control law at the first estimate
        (tick 9, 36 s): the velocity is infinite, and neither clamped nor
        warned about. The run ends with non_finite_control before the pose
        moves and keeps that tick's row."""
        raw = yaml.safe_load((SCENARIO_DIR / "aluminum_model_based.yaml").read_text())
        raw["controller"]["gains"] = {"d": 0.2, "k": 1.0e308}
        raw["duration_s"] = 200.0
        scenario = scenario_from_dict(raw)
        log = run_simulation(scenario)
        assert log.termination == "non_finite_control"
        assert log.detail == "control output [-inf, inf, -inf] at 36 s is not finite"
        assert len(log.rows) == 10
        assert [log.column(f"u_{k}")[-1] for k in (1, 2, 3)] == [-math.inf, math.inf, -math.inf]
        assert log.column("clamped")[-1] == 0.0
        assert log.column("p3_m")[-1] == 0.15
        head = run_simulation(dataclasses.replace(scenario, duration=32.0))
        assert head.termination == "completed"
        assert np.array_equal(log.rows[:9], head.rows, equal_nan=True)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_estimate_ends_the_run(self):
        """A learning rate of 1e308 overflows the a1 update at the first
        estimate (tick 9, 18 s) while that tick's velocity is still finite.
        The run ends with non_finite_control and keeps that tick's row,
        whose a1_hat is the overflowed estimate."""
        raw = yaml.safe_load((SCENARIO_DIR / "three_sheet_adaptive.yaml").read_text())
        raw["controller"]["gains"]["gamma1"] = 1.0e308
        raw["duration_s"] = 60.0
        scenario = scenario_from_dict(raw)
        log = run_simulation(scenario)
        assert log.termination == "non_finite_control"
        assert log.detail.startswith("adaptive estimates [[-inf, -inf, -inf], [")
        assert log.detail.endswith("] at 18 s are not finite")
        assert len(log.rows) == 10
        assert [log.column(f"a1_hat_{i}")[-1] for i in (1, 2, 3)] == [-math.inf] * 3
        assert np.isfinite([log.column(f"u_{k}")[-1] for k in (1, 2, 3)]).all()
        head = run_simulation(dataclasses.replace(scenario, duration=18.0))
        assert head.termination == "completed"
        assert np.array_equal(log.rows, head.rows, equal_nan=True)

    def test_six_dof_loop_runs(self):
        """6-DOF control path: rotation gradients enter the loop and the
        commanded rotation rates stay within their clamp."""
        scenario = quick_scenario(
            dof=6,
            initial_pose=Pose(0.03, 0.0, 0.10, 0.3, 0.0, 0.0),
            duration=300.0,
            limits=VelocityLimits(0.002, 0.05),
        )
        log = run_simulation(scenario)
        assert not log.violation
        u_rot = np.stack([log.column(f"u_{k}") for k in (4, 5, 6)], axis=1)
        assert np.isfinite(u_rot).all()
        assert np.linalg.norm(u_rot, axis=1).max() <= 0.05 + 1e-12
        assert np.abs(u_rot).max() > 0.0  # rotations are actually commanded
        final_err = abs(log.column("T_true_C_1")[-1] - 45.0)
        start_err = abs(log.column("T_true_C_1")[0] - 45.0)
        assert final_err < start_err  # heading toward the target

    def test_two_object_model_based(self, bench_env):
        sheet = ThermoParams.from_disk(0.90, 0.90, 1800.0, 1250.0, 0.015, 0.001)
        objs = (
            ObjectSpec("left", CircleContour(0.015), sheet, np.array([-0.02, 0.0, 0.0]), c2k(23.0)),
            ObjectSpec("right", CircleContour(0.015), sheet, np.array([0.02, 0.0, 0.0]), c2k(23.0)),
        )
        scenario = quick_scenario(
            objects=objs,
            targets=(c2k(45.0), c2k(45.0)),
            limits=VelocityLimits(0.002, 0.2),
            duration=2000.0,
        )
        log = run_simulation(scenario)
        for i in (1, 2):
            err = abs(log.column(f"T_true_C_{i}")[-1] - 45.0)
            assert err < 0.5


class TestSourceSchedule:
    def test_interpolation_and_hold(self):
        schedule = SourceSchedule(
            times=np.array([0.0, 10.0, 20.0]),
            centers=np.array([[0.0, 0, 0], [0.02, 0, 0], [0.02, 0.04, 0]]),
        )
        assert np.allclose(schedule.position(-5.0), [0.0, 0.0, 0.0])
        assert np.allclose(schedule.position(5.0), [0.01, 0.0, 0.0])
        assert np.allclose(schedule.position(15.0), [0.02, 0.02, 0.0])
        assert np.allclose(schedule.position(100.0), [0.02, 0.04, 0.0])
        assert schedule.moves

    def test_static_schedule(self):
        schedule = SourceSchedule(times=np.array([0.0]), centers=np.zeros((1, 3)))
        assert not schedule.moves

    def test_times_must_increase(self):
        with pytest.raises(ScenarioError):
            SourceSchedule(times=np.array([0.0, 0.0]), centers=np.zeros((2, 3)))


class TestExportField:
    def test_header_and_row_count(self, tiny_field, tmp_path):
        path = tmp_path / "field.csv"
        export_field(tiny_field, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "p1,p2,p3,value"
        assert len(lines) == tiny_field.n_cells + 1

    def test_reexport_is_byte_identical(self, tiny_field, tmp_path):
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_field(tiny_field, path_a)
        export_field(tiny_field, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_values_roundtrip_at_nine_digits(self, tiny_field, tmp_path):
        path = tmp_path / "field.csv"
        export_field(tiny_field, path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.allclose(data[:, 3], tiny_field.values.ravel(), rtol=1e-8)

    def test_matches_write_csv_of_the_cell_rows(self, tmp_path):
        """Coordinates formatted once per axis write the bytes of the
        per-row formatter over (coordinates, value) rows, on a grid with
        negative coordinates and degenerate cells on the source plane."""
        from thermoservo.feasibility import write_csv

        grid = GridSpec(ranges=((-3.5, 3.0), (-2.0, 1.5), (0.0, 6.0)), step=1.25)
        field = isosurface_grid(0.10, CircleContour(0.015), "translation", grid)
        assert field.degenerate[..., 0].all() and not field.degenerate[..., 1:].any()
        assert (field.axis_values[0] < 0.0).any() and (field.axis_values[1] < 0.0).any()
        export_field(field, tmp_path / "field.csv")
        cells = np.stack(np.meshgrid(*field.axis_values, indexing="ij"), axis=-1).reshape(-1, 3)
        write_csv(tmp_path / "rows.csv", "p1,p2,p3,value", np.column_stack([cells, field.values.ravel()]))
        assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_empty_field_rejected(self):
        from thermoservo.feasibility import ScalarField

        empty = ScalarField(
            axis_names=("p1", "p2", "p3"),
            axis_values=(np.array([]), np.array([]), np.array([])),
            values=np.zeros((0, 0, 0)),
            degenerate=np.zeros((0, 0, 0), dtype=bool),
        )
        with pytest.raises(ValueError):
            export_field(empty, "/tmp/unused.csv")


def _nine_digit_csv(header: str, rows) -> bytes:
    """The CSV text of a line-per-row formatter with nine significant digits."""

    def fmt(value: float) -> str:
        return "nan" if math.isnan(value) else f"{value:.9g}"

    lines = [header] + [",".join(fmt(float(v)) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


class TestCsvBytes:
    SPECIALS = [np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -2.2e-308, 1e-310, 1.0, -1.5e300]

    def test_log_matches_line_formatter(self, tmp_path):
        rng = np.random.default_rng(3)
        values = np.concatenate(
            [
                self.SPECIALS,
                rng.normal(0.0, 1.0, 2000) * 10.0 ** rng.integers(-320, 300, 2000),
                rng.uniform(-100.0, 100.0, 2000),
            ]
        )
        columns = ["a", "b", "c", "d"]
        log = RunLog(columns=columns, rows=values[: len(values) // 4 * 4].reshape(-1, 4))
        path = tmp_path / "log.csv"
        log.to_csv(path)
        assert path.read_bytes() == _nine_digit_csv("a,b,c,d", log.rows)

    def test_field_matches_line_formatter(self, tmp_path):
        rng = np.random.default_rng(4)
        axes = (np.array([-0.0, 1e-310, 2.5]), np.array([-3.0, 0.1]), rng.normal(0.0, 1e5, 3))
        values = rng.uniform(0.0, 1.0, (3, 2, 3))
        values[0, 0, 0], values[0, 0, 1] = 0.0, 5e-324
        field = ScalarField(("p1", "p2", "p3"), axes, values, np.zeros((3, 2, 3), dtype=bool))
        path = tmp_path / "field.csv"
        export_field(field, path)
        cells = [
            (x, y, z, values[i, j, k])
            for i, x in enumerate(axes[0])
            for j, y in enumerate(axes[1])
            for k, z in enumerate(axes[2])
        ]
        assert path.read_bytes() == _nine_digit_csv("p1,p2,p3,value", cells)


class TestScenarioLoading:
    def test_shipped_aluminum_scenario(self):
        scenario = load_scenario(SCENARIO_DIR / "aluminum_model_based.yaml")
        assert scenario.controller == "model_based"
        assert scenario.source_radius == pytest.approx(0.10)
        assert scenario.targets[0] == pytest.approx(c2k(50.0))
        assert scenario.objects[0].material.mass == pytest.approx(
            2702.0 * math.pi * 0.015**2 * 0.003
        )
        assert scenario.initial_pose.p3 == pytest.approx(0.15)

    def test_shipped_adaptive_scenario(self):
        scenario = load_scenario(SCENARIO_DIR / "three_sheet_adaptive.yaml")
        assert scenario.controller == "adaptive"
        assert scenario.n_objects == 3
        assert scenario.gains.gamma2 == pytest.approx(1e-18)

    def test_missing_key_rejected(self, tmp_path):
        raw = yaml.safe_load((SCENARIO_DIR / "aluminum_model_based.yaml").read_text())
        del raw["targets_c"]
        path = tmp_path / "broken.yaml"
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_non_mapping_rejected(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_missing_file_rejected(self):
        with pytest.raises(ScenarioError):
            load_scenario("/nonexistent/file.yaml")

    def test_fourier_contour_loading(self, tmp_path):
        raw = yaml.safe_load((SCENARIO_DIR / "aluminum_model_based.yaml").read_text())
        theta = np.linspace(0, 2 * math.pi, 40, endpoint=False)
        pts = [[1.5 * math.cos(t), 1.5 * math.sin(t)] for t in theta]
        raw["objects"][0]["contour"] = {"type": "fourier", "harmonics": 3, "points_cm": pts}
        path = tmp_path / "fourier.yaml"
        path.write_text(yaml.safe_dump(raw))
        scenario = load_scenario(path)
        assert scenario.objects[0].contour.area == pytest.approx(math.pi * 0.015**2, rel=1e-6)


SHIPPED = ("aluminum_model_based.yaml", "three_sheet_adaptive.yaml")


def _mapping_paths(node, path=()):
    """The path (keys and list indices) of every mapping in parsed YAML."""
    if isinstance(node, dict):
        yield path
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _mapping_paths(child, path + (key,))


def _key_path(path, key) -> str:
    """`key` of the mapping at `path`, with `[]` for any list index."""
    name = "".join("[]" if isinstance(k, int) else f".{k}" for k in (*path, key))
    return name.lstrip(".")


#: The mapping each key table of the loader reads, as a `_key_path`.
KEY_TABLES = (
    ("", "_SCENARIO_KEYS"),
    ("environment", "_ENVIRONMENT_KEYS"),
    ("source", "_SOURCE_KEYS"),
    ("source.waypoints[]", "_WAYPOINT_KEYS"),
    ("objects[]", "_OBJECT_KEYS"),
    ("objects[].contour", "_CIRCLE_KEYS"),
    ("objects[].contour", "_FOURIER_KEYS"),
    ("objects[].material", "_MATERIAL_KEYS"),
    ("controller", "_CONTROLLER_KEYS"),
    ("controller.gains", "_GAINS_KEYS"),
    ("controller.limits", "_LIMITS_KEYS"),
    ("controller.adaptive_init", "_ADAPTIVE_INIT_KEYS"),
    ("sensor", "_SENSOR_KEYS"),
    ("workspace_cm", "_WORKSPACE_KEYS"),
)

#: Scenario keys that no shipped scenario sets, kept with the reason.
UNSET_SCENARIO_KEYS = {
    **dict.fromkeys(
        ("source.waypoints", "source.waypoints[].time_s", "source.waypoints[].center_cm"),
        "a moving source: the CI moving-source step and criterion 7",
    ),
    **dict.fromkeys(
        ("objects[].contour.points_cm", "objects[].contour.harmonics"),
        "the paper's non-circular objects (Fourier contours), which only the tests set",
    ),
    "pinv_damping": "perfbench/micro.py reads Scenario.pinv_damping",
}


def schema_keys() -> set[str]:
    """Every key the loader's `_*_KEYS` tables allow."""
    tables = {name for name in vars(schema) if re.fullmatch(r"_[A-Z_]+_KEYS", name)}
    assert tables == {table for _, table in KEY_TABLES}, "map each key table to its mapping"
    return {
        f"{section}.{key}".lstrip(".")
        for section, table in KEY_TABLES
        for key in getattr(schema, table)
    }


def shipped_keys() -> set[str]:
    """Every key some file in scenarios/ sets."""
    keys = set()
    for name in SHIPPED:
        raw = yaml.safe_load((SCENARIO_DIR / name).read_text())
        for path in _mapping_paths(raw):
            keys |= {_key_path(path, key) for key in _at(raw, path)}
    return keys


def _at(raw, path):
    for key in path:
        raw = raw[key]
    return raw


def _section(path) -> str:
    """The name a loader message gives the mapping at `path`."""
    name = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
    return name.lstrip(".") or "scenario"


class TestScenarioSchema:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_misspelled_key_names_the_key_and_its_section(self, name):
        """Every key of every mapping, misspelled one at a time, is rejected;
        the scenario gains a (legal) waypoint so that mapping is read too."""
        raw = yaml.safe_load((SCENARIO_DIR / name).read_text())
        raw["source"]["waypoints"] = [{"time_s": 0.0, "center_cm": [0.0, 0.0, 0.0]}]
        scenario_from_dict(copy.deepcopy(raw))
        paths = list(_mapping_paths(raw))
        assert {_section(p) for p in paths} >= {
            "scenario", "environment", "source", "source.waypoints[0]", "objects[0]",
            "objects[0].contour", "objects[0].material", "controller", "controller.gains",
            "controller.limits", "sensor", "workspace_cm",
        }
        for path in paths:
            for key in list(_at(raw, path)):
                bad = copy.deepcopy(raw)
                mapping = _at(bad, path)
                mapping[key.upper()] = mapping.pop(key)
                message = f"unknown key '{key.upper()}' in {_section(path)}"
                with pytest.raises(ScenarioError, match=re.escape(message)):
                    scenario_from_dict(bad)

    @pytest.mark.parametrize(
        "contour, key",
        [
            ({"type": "circle", "radius_cm": 1.5, "harmonics": 3}, "harmonics"),
            ({"type": "fourier", "points_cm": [[1, 0], [0, 1], [-1, 0]], "radius_cm": 1},
             "radius_cm"),
        ],
    )
    def test_contour_keys_depend_on_its_type(self, contour, key):
        raw = yaml.safe_load((SCENARIO_DIR / "aluminum_model_based.yaml").read_text())
        raw["objects"][0]["contour"] = contour
        message = f"unknown key '{key}' in objects[0].contour"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            scenario_from_dict(raw)

    @pytest.mark.parametrize(
        "where, key, value",
        [
            ((), "dof", 3.7),
            ((), "dof", True),
            ((), "quadrature_n", 16.9),
            (("sensor",), "seed", 11.5),
            (("controller", "adaptive_init"), "seed", 7.5),
            (("objects", 0, "contour"), "harmonics", 3.5),
            (("objects", 0), "unknown_params", "false"),
            (("objects", 0), "unknown_params", 1),
        ],
    )
    def test_integer_and_boolean_keys_are_strict(self, where, key, value):
        """Integer keys take whole numbers only, and `unknown_params`, a
        boolean until the adaptive law estimated every object, is an unknown
        key: each rejection names the key and its section."""
        raw = yaml.safe_load((SCENARIO_DIR / "three_sheet_adaptive.yaml").read_text())
        theta = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
        points = [[1.8 * math.cos(t), 1.8 * math.sin(t)] for t in theta]
        raw["objects"][0]["contour"] = {"type": "fourier", "harmonics": 3, "points_cm": points}
        whole = copy.deepcopy(raw)
        _at(whole, where)[key] = 6.0 if key == "dof" else 16.0 if key == "quadrature_n" else 3.0
        if key != "unknown_params":
            scenario_from_dict(whole)  # a whole float is a whole number
        _at(raw, where)[key] = value
        with pytest.raises(ScenarioError, match=re.escape(f"'{key}' in {_section(where)}")):
            scenario_from_dict(raw)

    def test_every_field_has_a_key(self):
        """Each field of these dataclasses can be set from a scenario file:
        some entry of the loader's key tables names it."""
        tables = {
            Gains: [schema._GAINS_KEYS],
            VelocityLimits: [schema._LIMITS_KEYS],
            AdaptiveInit: [schema._ADAPTIVE_INIT_KEYS],
            SensorSpec: [schema._SENSOR_KEYS],
            Scenario: [schema._SCENARIO_KEYS, schema._SOURCE_KEYS, schema._CONTROLLER_KEYS],
        }
        for cls, keys in tables.items():
            named = {field for table in keys for field, _ in table.values() if field is not None}
            assert named == {f.name for f in dataclasses.fields(cls)}, cls.__name__

    def test_every_key_is_set_by_a_shipped_scenario(self):
        """No scenario key that no file sets, but those listed with a reason."""
        assert sorted(path.name for path in SCENARIO_DIR.glob("*.yaml")) == sorted(SHIPPED)
        shipped, allowed = shipped_keys(), schema_keys()
        assert shipped <= allowed
        unset = allowed - shipped - set(UNSET_SCENARIO_KEYS)
        assert not unset, f"scenario keys that no file in scenarios/ sets: {sorted(unset)}"

    def test_unset_keys_are_still_keys_and_unset(self):
        assert set(UNSET_SCENARIO_KEYS) <= schema_keys()
        assert not set(UNSET_SCENARIO_KEYS) & shipped_keys(), "drop the exception: a file sets it"

    def test_pinv_damping_and_spread_are_checked_at_load(self):
        raw = yaml.safe_load((SCENARIO_DIR / "three_sheet_adaptive.yaml").read_text())
        cases = (((), "pinv_damping", -1.0), (("controller", "adaptive_init"), "spread", 0))
        for where, key, value in cases:
            bad = copy.deepcopy(raw)
            _at(bad, where)[key] = value
            with pytest.raises(ScenarioError, match=key):
                scenario_from_dict(bad)

    @pytest.mark.parametrize(
        "where, key, value, message",
        [
            ((), "duration_s", math.nan, "duration must be finite and positive"),
            ((), "control_period_s", math.inf, "control_period must be finite and positive"),
            ((), "plant_dt_s", math.nan, "plant_dt must be finite and positive"),
            (("controller", "limits"), "max_translation_m_s", math.nan,
             "velocity limit max_translation must be finite and positive"),
            (("controller", "limits"), "max_rotation_rad_s", math.inf,
             "velocity limit max_rotation must be finite and positive"),
            *((("controller", "gains"), gain, math.inf, f"gain {gain} must be finite and positive")
              for gain in ("d", "k", "mu", "gamma1", "gamma2")),
            (("sensor",), "noise_c", math.inf, "noise amplitude must be finite and non-negative"),
            (("objects", 0), "initial_temp_c", -300.0,
             "initial temperature must be finite and above 0 K"),
            (("objects", 0), "initial_temp_c", math.nan,
             "initial temperature must be finite and above 0 K"),
            ((), "targets_c", [40.0, math.nan, 50.0], "targets must be finite and above 0 K"),
            (("source",), "radius_cm", math.inf, "source radius must be finite and positive"),
            (("environment",), "source_temp_c", math.inf,
             "require finite source_temp > ambient_temp > 0"),
        ],
    )
    def test_non_finite_numbers_are_rejected_at_load(self, where, key, value, message):
        """Each of these loaded and then failed inside the run (an overflow,
        a NaN tick count, a plant step's error, a non-finite control or
        temperature) or ran with its check off (a NaN velocity limit
        disabled the clamp)."""
        raw = yaml.safe_load((SCENARIO_DIR / "three_sheet_adaptive.yaml").read_text())
        _at(raw, where)[key] = value
        with pytest.raises(ScenarioError, match=re.escape(message)):
            scenario_from_dict(raw)

    @pytest.mark.parametrize(
        "where, key, value",
        [
            (("sensor",), "seed", -1),
            (("controller", "adaptive_init"), "seed", -3),
            (("controller", "adaptive_init"), "a1_center", math.nan),
            (("controller", "adaptive_init"), "a2_center", math.inf),
            (("controller", "adaptive_init"), "a1", [1.0, math.nan, 1.0]),
            (("controller", "adaptive_init"), "a2", [1.0, 1.0, -math.inf]),
        ],
    )
    def test_seeds_and_start_estimates_are_checked_at_load(self, where, key, value):
        """A negative seed or a non-finite start center fails at load, naming
        its key, not once the run starts; `a1` and `a2`, the per-object start
        vectors of the removed `values` start, are unknown keys."""
        raw = yaml.safe_load((SCENARIO_DIR / "three_sheet_adaptive.yaml").read_text())
        _at(raw, where)[key] = value
        if key in ("a1", "a2"):
            key = re.escape(f"unknown key '{key}' in {_section(where)}")
        with pytest.raises(ScenarioError, match=key):
            scenario_from_dict(raw)


def _openblas_picks_its_kernel() -> bool:
    """numpy's BLAS is scipy-openblas on x86_64: a DYNAMIC_ARCH build that
    reads OPENBLAS_CORETYPE."""
    if platform.machine() != "x86_64":
        return False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return blas.get("name") == "scipy-openblas" and "DYNAMIC_ARCH" in str(
        blas.get("openblas configuration")
    )


class TestHostIndependentLogs:
    """The loop's small solves run on Python floats in a fixed order and the
    estimator's filter is a constant table, so the logs do not depend on the
    BLAS kernel that OpenBLAS picks for the host."""

    def test_the_loop_makes_no_lapack_call(self, monkeypatch):
        def no_lapack(*args, **kwargs):
            raise AssertionError("a LAPACK routine ran in the loop")

        for name in ("solve", "lstsq", "pinv", "inv", "matrix_rank", "svd", "qr", "cholesky",
                     "eig", "eigh", "det", "norm"):
            monkeypatch.setattr(np.linalg, name, no_lapack)
        for name in ("aluminum_model_based", "three_sheet_adaptive"):
            scenario = load_scenario(SCENARIO_DIR / f"{name}.yaml")
            scenario = dataclasses.replace(scenario, duration=40 * scenario.control_period)
            log = run_simulation(scenario)
            assert log.termination == "completed" and len(log.rows) == 41
            assert not np.isnan(log.column("u_1")[-1])

    @pytest.mark.skipif(
        not _openblas_picks_its_kernel(), reason="numpy's BLAS is not scipy-openblas on x86_64"
    )
    def test_the_log_bytes_do_not_depend_on_the_openblas_kernel(self, tmp_path):
        """200 ticks of the adaptive scenario (the aluminum run is clamped
        throughout, so its first ticks hide a solve's rounding) in two
        processes, one with the kernel OpenBLAS picks and one with the
        oldest x86-64 kernel it ships."""
        script = (
            "import dataclasses, sys\n"
            "from thermoservo import load_scenario, run_simulation\n"
            "s = load_scenario(sys.argv[1])\n"
            "run_simulation(dataclasses.replace(s, duration=200 * s.control_period))"
            ".to_csv(sys.argv[2])\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        digests = {}
        for coretype in (None, "Prescott"):
            env = dict(os.environ)
            env.pop("OPENBLAS_CORETYPE", None)
            if coretype:
                env["OPENBLAS_CORETYPE"] = coretype
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            out = tmp_path / f"{coretype}.csv"
            subprocess.run(
                [sys.executable, "-c", script, str(SCENARIO_DIR / "three_sheet_adaptive.yaml"),
                 str(out)],
                env=env, check=True,
            )
            digests[coretype] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digests[None] == digests["Prescott"], digests


def test_noise_drawn_at_once_equals_per_tick_draws():
    """`run_simulation` draws every tick's sensor noise in one call; numpy's
    generator fills the (ticks, objects) array in the order that one call per
    tick would draw, so the values are the same bits."""
    for amplitude in (0.1, 0.0):
        per_tick = np.random.default_rng(11)
        at_once = np.random.default_rng(11).uniform(-amplitude, amplitude, (4001, 3))
        expected = [per_tick.uniform(-amplitude, amplitude, 3) for _ in range(4001)]
        assert at_once.tobytes() == np.array(expected).tobytes()
