import math
from pathlib import Path

import pytest
import yaml

from thermoservo import cli, load_scenario, run_simulation
from thermoservo.thermal import ThermalDivergenceError

from conftest import coaxial_disk_view_factor

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture()
def quick_scenario_file(tmp_path):
    """Shortened copy of the shipped aluminum scenario."""
    raw = yaml.safe_load((SCENARIO_DIR / "aluminum_model_based.yaml").read_text())
    raw["duration_s"] = 120.0
    raw["control_period_s"] = 2.0
    path = tmp_path / "quick.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def _csv_lines(log, tmp_path):
    """The data lines `log` writes."""
    path = tmp_path / "expected.csv"
    log.to_csv(path)
    return path.read_text().splitlines()[1:]


class TestViewfactorCommand:
    def test_contour_method_matches_closed_form(self, capsys):
        code = cli.main(
            [
                "viewfactor",
                "--pose", "0,0,5,0,0,0",
                "--source-radius-cm", "1.5",
                "--object-radius-cm", "1.5",
            ]
        )
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(coaxial_disk_view_factor(0.015, 0.015, 0.05), abs=1e-4)

    def test_dsi_method(self, capsys):
        code = cli.main(
            [
                "viewfactor",
                "--pose", "0,0,5,0,0,0",
                "--source-radius-cm", "1.5",
                "--object-radius-cm", "1.5",
                "--method", "dsi",
                "--facets", "2000",
            ]
        )
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(coaxial_disk_view_factor(0.015, 0.015, 0.05), abs=3e-3)

    def test_bad_pose_returns_invalid(self, capsys):
        code = cli.main(["viewfactor", "--pose", "1,2,3"])
        assert code == cli.EXIT_INVALID_SCENARIO

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", ["contour", "dsi"])
    @pytest.mark.parametrize("radius", ["inf", "nan"])
    def test_non_finite_source_radius_returns_invalid(self, capsys, method, radius):
        """The radius is rejected, not integrated into a NaN view factor."""
        code = cli.main(
            [
                "viewfactor",
                "--pose", "0,0,5,0,0,0",
                "--source-radius-cm", radius,
                "--method", method,
                "--facets", "200",
            ]
        )
        assert code == cli.EXIT_INVALID_SCENARIO
        err = capsys.readouterr().err
        assert err.startswith("invalid input:") and "radius must be" in err and radius in err

    def test_missing_contour_csv_returns_invalid(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        code = cli.main(["viewfactor", "--pose", "0,0,5,0,0,0", "--contour-csv", str(missing)])
        assert code == cli.EXIT_INVALID_SCENARIO
        err = capsys.readouterr().err
        assert err.startswith("invalid input:") and len(err.splitlines()) == 1


class TestSimulateCommand:
    def test_simulate_writes_log(self, quick_scenario_file, tmp_path, capsys):
        out = tmp_path / "log.csv"
        code = cli.main(["simulate", str(quick_scenario_file), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("time_s,")
        assert len(lines) == 62  # 120 s / 2 s + 1 rows + header

    def test_invalid_scenario_exit_code(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("environment: {}\n")
        code = cli.main(["simulate", str(path), "--out", str(tmp_path / "x.csv")])
        assert code == cli.EXIT_INVALID_SCENARIO

    def test_degenerate_pose_writes_partial_log(self, quick_scenario_file, tmp_path, capsys):
        # The source rises to 0.5 um below the disk, which starts 15 cm up
        # and all but holds still: inside the contact clearance from the
        # end of tick 14's period.
        raw = yaml.safe_load(quick_scenario_file.read_text())
        raw["controller"]["limits"]["max_translation_m_s"] = 1e-9
        raw["source"]["waypoints"] = [
            {"time_s": 0.0, "center_cm": [0.0, 0.0, 0.0]},
            {"time_s": 30.0, "center_cm": [0.0, 0.0, 14.99995]},
        ]
        path = tmp_path / "rising.yaml"
        path.write_text(yaml.safe_dump(raw))
        out = tmp_path / "d.csv"
        code = cli.main(["simulate", str(path), "--out", str(out)])
        assert code == cli.EXIT_NUMERICAL_FAILURE
        log = run_simulation(load_scenario(path))
        assert log.termination == "degenerate_pose"
        assert len(log.rows) == 15
        lines = out.read_text().splitlines()
        assert lines[0].startswith("time_s,")
        assert lines[1:] == _csv_lines(log, tmp_path)
        err = capsys.readouterr().err
        assert "degenerate_pose" in err and "object 1 touches" in err

    def test_source_passing_through_writes_partial_log(self, quick_scenario_file, tmp_path, capsys):
        # The source rises 40 cm in 60 s through the disk 15 cm up.
        raw = yaml.safe_load(quick_scenario_file.read_text())
        raw["source"]["waypoints"] = [
            {"time_s": 0.0, "center_cm": [0.0, 0.0, 0.0]},
            {"time_s": 60.0, "center_cm": [0.0, 0.0, 40.0]},
        ]
        path = tmp_path / "through.yaml"
        path.write_text(yaml.safe_dump(raw))
        out = tmp_path / "t.csv"
        code = cli.main(["simulate", str(path), "--out", str(out)])
        assert code == cli.EXIT_NUMERICAL_FAILURE
        log = run_simulation(load_scenario(path))
        assert log.termination == "degenerate_pose"
        assert out.read_text().splitlines()[1:] == _csv_lines(log, tmp_path)
        err = capsys.readouterr().err
        assert "degenerate_pose" in err and "object 1 passes through the source plane" in err

    def test_non_finite_control_writes_partial_log(self, quick_scenario_file, tmp_path, capsys):
        raw = yaml.safe_load(quick_scenario_file.read_text())
        raw["controller"]["gains"] = {"d": 0.2, "k": 1.0e308}
        path = tmp_path / "overflow.yaml"
        path.write_text(yaml.safe_dump(raw))
        out = tmp_path / "n.csv"
        code = cli.main(["simulate", str(path), "--out", str(out)])
        assert code == cli.EXIT_NUMERICAL_FAILURE
        log = run_simulation(load_scenario(path))
        assert log.termination == "non_finite_control"
        assert len(log.rows) == 10
        assert out.read_text().splitlines()[1:] == _csv_lines(log, tmp_path)
        assert "non_finite_control" in capsys.readouterr().err

    def test_non_finite_estimate_writes_partial_log(self, tmp_path, capsys):
        raw = yaml.safe_load((SCENARIO_DIR / "three_sheet_adaptive.yaml").read_text())
        raw["controller"]["gains"]["gamma1"] = 1.0e308
        raw["duration_s"] = 60.0
        path = tmp_path / "overflow.yaml"
        path.write_text(yaml.safe_dump(raw))
        out = tmp_path / "a.csv"
        code = cli.main(["simulate", str(path), "--out", str(out)])
        assert code == cli.EXIT_NUMERICAL_FAILURE
        log = run_simulation(load_scenario(path))
        assert log.termination == "non_finite_control"
        assert len(log.rows) == 10
        assert out.read_text().splitlines()[1:] == _csv_lines(log, tmp_path)
        assert "non_finite_control" in capsys.readouterr().err

    def test_misspelled_key_fails_before_the_run(
        self, quick_scenario_file, tmp_path, monkeypatch, capsys
    ):
        def not_called(scenario):
            raise AssertionError("the run started with a misspelled key")

        monkeypatch.setattr(cli, "run_simulation", not_called)
        raw = yaml.safe_load(quick_scenario_file.read_text())
        raw["controller"]["gain"] = raw["controller"].pop("gains")
        path = tmp_path / "misspelled.yaml"
        path.write_text(yaml.safe_dump(raw))
        out = tmp_path / "m.csv"
        code = cli.main(["simulate", str(path), "--out", str(out)])
        assert code == cli.EXIT_INVALID_SCENARIO
        assert capsys.readouterr().err == "invalid scenario: unknown key 'gain' in controller\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("sensor", "seed", -1),
            ("adaptive_init", "seed", -3),
            ("adaptive_init", "a1_center", math.nan),
        ],
    )
    def test_bad_seed_or_start_estimate_fails_before_the_run(
        self, quick_scenario_file, tmp_path, monkeypatch, capsys, section, key, value
    ):
        def not_called(scenario):
            raise AssertionError(f"the run started with {section}.{key} = {value}")

        monkeypatch.setattr(cli, "run_simulation", not_called)
        raw = yaml.safe_load(quick_scenario_file.read_text())
        mapping = raw if section == "sensor" else raw["controller"]
        mapping.setdefault(section, {})[key] = value
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(raw))
        out = tmp_path / "bad.csv"
        code = cli.main(["simulate", str(path), "--out", str(out)])
        assert code == cli.EXIT_INVALID_SCENARIO
        assert capsys.readouterr().err.startswith("invalid scenario: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "where, section, key, value",
        [
            (("controller", "adaptive_init"), "controller.adaptive_init", "mode", "random"),
            (("controller", "adaptive_init"), "controller.adaptive_init", "a1", [5.0] * 3),
            (("controller", "adaptive_init"), "controller.adaptive_init", "a2", [2.0e-10] * 3),
            (("objects", 0), "objects[0]", "unknown_params", True),
        ],
    )
    def test_removed_start_keys_are_unknown_keys(
        self, tmp_path, monkeypatch, capsys, where, section, key, value
    ):
        """The start modes, the per-object start vectors and the per-object
        unknown-parameter flag are gone from the schema."""
        monkeypatch.setattr(cli, "run_simulation", None)
        raw = yaml.safe_load((SCENARIO_DIR / "three_sheet_adaptive.yaml").read_text())
        mapping = raw
        for k in where:
            mapping = mapping[k]
        mapping[key] = value
        path = tmp_path / "removed.yaml"
        path.write_text(yaml.safe_dump(raw))
        out = tmp_path / "removed.csv"
        code = cli.main(["simulate", str(path), "--out", str(out)])
        assert code == cli.EXIT_INVALID_SCENARIO
        assert capsys.readouterr().err == f"invalid scenario: unknown key '{key}' in {section}\n"
        assert not out.exists()

    def test_adaptive_scenario_without_centers_fails_before_the_run(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "run_simulation", None)
        raw = yaml.safe_load((SCENARIO_DIR / "three_sheet_adaptive.yaml").read_text())
        del raw["controller"]["adaptive_init"]["a1_center"]
        del raw["controller"]["adaptive_init"]["a2_center"]
        path = tmp_path / "no-centers.yaml"
        path.write_text(yaml.safe_dump(raw))
        out = tmp_path / "no-centers.csv"
        code = cli.main(["simulate", str(path), "--out", str(out)])
        assert code == cli.EXIT_INVALID_SCENARIO
        assert capsys.readouterr().err == (
            "invalid scenario: the adaptive controller needs the start centers "
            "adaptive_init.a1_center and adaptive_init.a2_center\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "where, key, value",
        [
            ((), "control_period_s", math.inf),
            ((), "duration_s", math.nan),
            (("sensor",), "noise_c", math.inf),
            (("objects", 0), "initial_temp_c", -300.0),
            (("controller", "limits"), "max_translation_m_s", math.nan),
            (("controller", "gains"), "d", math.inf),
        ],
    )
    def test_non_finite_number_fails_before_the_run(
        self, quick_scenario_file, tmp_path, monkeypatch, capsys, where, key, value
    ):
        def not_called(scenario):
            raise AssertionError(f"the run started with {key} = {value}")

        monkeypatch.setattr(cli, "run_simulation", not_called)
        raw = yaml.safe_load(quick_scenario_file.read_text())
        mapping = raw
        for k in where:
            mapping = mapping[k]
        mapping[key] = value
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(raw))
        out = tmp_path / "bad.csv"
        code = cli.main(["simulate", str(path), "--out", str(out)])
        assert code == cli.EXIT_INVALID_SCENARIO
        assert capsys.readouterr().err.startswith("invalid scenario: ")
        assert not out.exists()

    def test_malformed_waypoint_returns_invalid(self, quick_scenario_file, tmp_path, capsys):
        raw = yaml.safe_load(quick_scenario_file.read_text())
        raw["source"]["waypoints"] = [{"time_s": 0.0, "center_cm": [0, 0]}]
        path = tmp_path / "waypoint.yaml"
        path.write_text(yaml.safe_dump(raw))
        code = cli.main(["simulate", str(path), "--out", str(tmp_path / "x.csv")])
        assert code == cli.EXIT_INVALID_SCENARIO
        assert capsys.readouterr().err.startswith("invalid scenario:")

    def test_numerical_failure_exit_code(self, quick_scenario_file, tmp_path, monkeypatch):
        def boom(scenario):
            raise ThermalDivergenceError("non-finite temperature")

        monkeypatch.setattr(cli, "run_simulation", boom)
        code = cli.main(["simulate", str(quick_scenario_file), "--out", str(tmp_path / "x.csv")])
        assert code == cli.EXIT_NUMERICAL_FAILURE

    def test_unwritable_out_fails_before_the_run(
        self, quick_scenario_file, tmp_path, monkeypatch, capsys
    ):
        def not_called(scenario):
            raise AssertionError("the run started before --out was opened")

        monkeypatch.setattr(cli, "run_simulation", not_called)
        out = tmp_path / "no" / "such" / "x.csv"
        code = cli.main(["simulate", str(quick_scenario_file), "--out", str(out)])
        assert code == cli.EXIT_INVALID_SCENARIO
        assert capsys.readouterr().err.startswith("invalid input:")


class TestIsosurfaceCommand:
    def test_small_grid_export(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = cli.main(
            [
                "isosurface",
                "--subset", "translation",
                "--out", str(out),
                "--step", "10",
                "--quadrature-n", "16",
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p1,p2,p3,value"
        assert len(lines) == 4 * 4 * 3 + 1

    def test_unwritable_out_fails_before_the_grid(self, tmp_path, monkeypatch, capsys):
        def not_called(*args, **kwargs):
            raise AssertionError("the grid was computed before --out was opened")

        monkeypatch.setattr(cli, "isosurface_grid", not_called)
        out = tmp_path / "no" / "such" / "x.csv"
        code = cli.main(["isosurface", "--subset", "rotation", "--out", str(out)])
        assert code == cli.EXIT_INVALID_SCENARIO
        assert capsys.readouterr().err.startswith("invalid input:")

    @pytest.mark.parametrize("step", ["nan", "inf", "0", "-2"])
    def test_bad_step_fails_before_the_out_file(self, tmp_path, monkeypatch, capsys, step):
        monkeypatch.setattr(cli, "isosurface_grid", None)
        out = tmp_path / "grid.csv"
        code = cli.main(["isosurface", "--subset", "translation", "--out", str(out), "--step", step])
        assert code == cli.EXIT_INVALID_SCENARIO
        err = capsys.readouterr().err
        assert err == f"invalid input: grid step must be finite and positive, got {float(step)}\n"
        assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param(["simulate", "{dir}/missing.yaml"], "cannot read scenario", id="unreadable"),
        pytest.param(
            ["simulate", "{dir}/unknown-key.yaml"],
            "unknown key 'boundary_mode' in scenario",
            id="unknown-key",
        ),
        pytest.param(
            ["simulate", "{dir}/non-finite.yaml"],
            "duration must be finite and positive, got nan s",
            id="non-finite-number",
        ),
        pytest.param(
            ["simulate", "{dir}/no-centers.yaml"], "needs the start centers", id="no-centers"
        ),
        pytest.param(
            ["simulate", "{dir}/outside-box.yaml"],
            "initial pose (0, 0, 50) cm lies outside the workspace box",
            id="start-outside-box",
        ),
        *(
            pytest.param(
                ["isosurface", "--source-radius-cm", radius],
                f"source radius must be finite and positive, got {float(radius)} cm",
                id=f"source-radius-{radius}",
            )
            for radius in ("inf", "nan", "-1", "0")
        ),
        pytest.param(
            ["isosurface", "--quadrature-n", "3"], "n_per_dim must be an even integer", id="odd-n"
        ),
        pytest.param(
            ["isosurface", "--object-radius-cm", "0"],
            "radius must be finite and positive, got 0.0",
            id="object-radius",
        ),
        pytest.param(
            ["isosurface", "--contour-csv", "{dir}/missing.csv"], "missing.csv", id="contour-csv"
        ),
        pytest.param(
            ["isosurface", "--contour-csv", "{dir}/nan.csv"],
            "polyline points must be finite",
            id="contour-csv-nan",
        ),
        pytest.param(
            ["isosurface", "--step", "nan"], "grid step must be finite and positive", id="step"
        ),
    ],
)
def test_invalid_input_exits_2_and_leaves_no_output_file(
    tmp_path, monkeypatch, capsys, args, message
):
    """Each class of invalid input of the commands that write a file is
    rejected before the file is opened, and before any work starts."""
    monkeypatch.setattr(cli, "run_simulation", None)
    monkeypatch.setattr(cli, "isosurface_grid", None)
    aluminum = (SCENARIO_DIR / "aluminum_model_based.yaml").read_text()
    adaptive = (SCENARIO_DIR / "three_sheet_adaptive.yaml").read_text()
    edits = {
        "unknown-key.yaml": aluminum + "boundary_mode: clip\n",
        "non-finite.yaml": aluminum.replace("duration_s: 40000.0", "duration_s: .nan"),
        "no-centers.yaml": adaptive.replace(", a1_center: 5.0, a2_center: 2.0e-10}", "}"),
        "outside-box.yaml": aluminum.replace(
            "initial_pose_cm_deg: [0.0, 0.0, 15.0,", "initial_pose_cm_deg: [0.0, 0.0, 50.0,"
        ),
    }
    for name, text in edits.items():
        assert text not in (aluminum, adaptive), name
        (tmp_path / name).write_text(text)
    # A 16-point circle of radius 1.5 cm with one coordinate not a number.
    circle = [[1.5 * math.cos(j * math.pi / 8), 1.5 * math.sin(j * math.pi / 8)] for j in range(16)]
    circle[5][0] = math.nan
    (tmp_path / "nan.csv").write_text("".join(f"{x},{y}\n" for x, y in circle))
    argv = [arg.format(dir=tmp_path) for arg in args]
    if argv[0] == "isosurface":
        argv += ["--subset", "translation"]
    out = tmp_path / "out.csv"
    code = cli.main([*argv, "--out", str(out)])
    assert code == cli.EXIT_INVALID_SCENARIO
    err = capsys.readouterr().err
    assert err.startswith(("invalid scenario: ", "invalid input: ")), err
    assert len(err.splitlines()) == 1 and message in err, err
    assert not out.exists()


class TestFeasibilityCommand:
    def test_report_runs(self, capsys):
        code = cli.main(
            [
                "feasibility",
                str(SCENARIO_DIR / "three_sheet_adaptive.yaml"),
                "--grid-step-cm", "4.0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "condition 1 interval" in out
        assert "feasible:" in out
