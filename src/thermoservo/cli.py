"""Command-line interface.

Subcommands: simulate, viewfactor, isosurface, feasibility.
Exit codes: 0 success, 2 invalid scenario/arguments or an unreadable or
unwritable file, 4 numerical failure. `simulate` and `isosurface` check
every input, then open their output before the work: invalid input leaves
no file, and an unwritable path exits 2. A simulation that ends early
still writes the log of the ticks it finished; its termination reason
(degenerate_pose, thermal_divergence or non_finite_control) gives exit 4.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from .feasibility import (
    DEFAULT_GRID_STEP_CM,
    ROTATION_GRID,
    TRANSLATION_GRID,
    GridSpec,
    export_field,
    isosurface_grid,
    pairwise_feasibility,
    target_bounds,
)
from .geometry import CircleContour, fourier_fit
from .scenario import ScenarioError, load_scenario, pose_from_cm_deg
from .simulator import run_simulation
from .thermal import ThermalDivergenceError, lambdas
from .units import cm_to_m, kelvin_to_celsius, m_to_cm
from .viewfactor import DEFAULT_SPEC, QuadratureSpec, vf_dsi_oracle, vf_general

EXIT_OK = 0
EXIT_INVALID_SCENARIO = 2
EXIT_NUMERICAL_FAILURE = 4


def _object_contour(args):
    if args.contour_csv:
        points = np.loadtxt(args.contour_csv, delimiter=",", ndmin=2)
        return fourier_fit(cm_to_m(points), args.harmonics)
    return CircleContour(cm_to_m(args.object_radius_cm))


def _source_radius(args) -> float:
    if not 0.0 < args.source_radius_cm < math.inf:
        raise ValueError(
            f"source radius must be finite and positive, got {args.source_radius_cm} cm"
        )
    return cm_to_m(args.source_radius_cm)


_TERMINATION_EXIT = {
    "completed": EXIT_OK,
    "degenerate_pose": EXIT_NUMERICAL_FAILURE,
    "thermal_divergence": EXIT_NUMERICAL_FAILURE,
    "non_finite_control": EXIT_NUMERICAL_FAILURE,
}


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    open(args.out, "w").close()  # an unwritable path fails before the run
    log = run_simulation(scenario)
    log.to_csv(args.out)
    if len(log.rows):
        last = log.rows[-1]
        t_end = last[log.columns.index("time_s")]
        errors = [
            abs(last[log.columns.index(f"dtau_K_{i + 1}")])
            for i in range(scenario.n_objects)
        ]
        print(f"simulated {t_end:.9g} s, log written to {args.out}")
        print("final |dtau| per object [K]: " + ", ".join(f"{e:.3f}" for e in errors))
    if log.termination != "completed":
        print(
            f"{log.termination}: run terminated early ({log.detail}); "
            f"{len(log.rows)} ticks written to {args.out}",
            file=sys.stderr,
        )
    return _TERMINATION_EXIT[log.termination]


def _cmd_viewfactor(args) -> int:
    pose = pose_from_cm_deg(args.pose.split(","))
    contour = _object_contour(args)
    radius = _source_radius(args)
    if args.method == "contour":
        value = vf_general(pose, radius, contour, QuadratureSpec(args.quadrature_n)).value
    else:
        value = vf_dsi_oracle(pose, radius, contour, args.facets).value
    print(f"{value:.9g}")
    return EXIT_OK


def _cmd_isosurface(args) -> int:
    contour = _object_contour(args)
    radius = _source_radius(args)
    spec = QuadratureSpec(args.quadrature_n)
    grid = None
    if args.step is not None:
        default = TRANSLATION_GRID if args.subset == "translation" else ROTATION_GRID
        grid = dataclasses.replace(default, step=args.step)
    open(args.out, "w").close()  # an unwritable path fails before the grid
    field = isosurface_grid(radius, contour, subset=args.subset, grid=grid, spec=spec)
    export_field(field, args.out)
    print(f"{field.n_cells} cells written to {args.out}")
    return EXIT_OK


def _cmd_feasibility(args) -> int:
    scenario = load_scenario(args.scenario)
    env = scenario.environment
    lo, hi = target_bounds(env)
    print(
        f"condition 1 interval: [{kelvin_to_celsius(lo):.2f} C, "
        f"{kelvin_to_celsius(hi):.2f} C)"
    )
    ws = scenario.workspace.bounds
    grid = GridSpec(
        ranges=tuple((m_to_cm(b[0]), m_to_cm(b[1]) + 1e-9) for b in ws),
        step=args.grid_step_cm,
    )
    n_poses = int(np.prod(grid.shape))
    print(f"searching {n_poses} end-effector poses at {args.grid_step_cm} cm step")
    report = pairwise_feasibility(
        targets=scenario.targets,
        displacements=[o.displacement for o in scenario.objects],
        objects=[(o.contour, lambdas(o.material, env)) for o in scenario.objects],
        source_radius=scenario.source_radius,
        env=env,
        grid=grid,
        spec=scenario.quadrature,
    )
    print(f"feasible: {report.feasible}")
    print(f"reason: {report.reason}")
    if report.bound_violations:
        print(f"targets violating condition 1 (0-based): {list(report.bound_violations)}")
    if report.witness is not None:
        w = report.witness
        print(
            f"best pose [cm]: ({m_to_cm(w.p1):.2f}, {m_to_cm(w.p2):.2f}, {m_to_cm(w.p3):.2f}), "
            f"residual {report.residual:.3f} K"
        )
    if report.delta_range is not None:
        print(
            f"steady-state difference range over grid [K]: "
            f"[{report.delta_range[0]:.2f}, {report.delta_range[1]:.2f}]"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermoservo",
        description="Radiation-based thermal servoing simulator and analysis tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a closed-loop scenario")
    p.add_argument("scenario", help="YAML scenario file")
    p.add_argument("--out", required=True, help="output CSV log path")
    p.set_defaults(func=_cmd_simulate)

    # Arguments of the view-factor commands: the source disk and one object.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--source-radius-cm", type=float, default=10.0)
    shared.add_argument("--object-radius-cm", type=float, default=1.5)
    shared.add_argument("--contour-csv", help="boundary points (x_cm,y_cm) for a Fourier contour")
    shared.add_argument("--harmonics", type=int, default=5)
    shared.add_argument("--quadrature-n", type=int, default=DEFAULT_SPEC.n_per_dim)

    p = sub.add_parser("viewfactor", parents=[shared], help="single view-factor evaluation")
    p.add_argument("--pose", required=True, help="p1,p2,p3 [cm], tx,ty,tz [deg]")
    p.add_argument("--method", choices=("contour", "dsi"), default="contour")
    p.add_argument("--facets", type=int, default=20000)
    p.set_defaults(func=_cmd_viewfactor)

    p = sub.add_parser("isosurface", parents=[shared], help="export a view-factor grid")
    p.add_argument("--subset", choices=("translation", "rotation"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--step", type=float, default=None, help="grid step (cm or deg)")
    p.set_defaults(func=_cmd_isosurface)

    p = sub.add_parser("feasibility", help="target feasibility report for a scenario")
    p.add_argument("scenario")
    p.add_argument("--grid-step-cm", type=float, default=DEFAULT_GRID_STEP_CM)
    p.set_defaults(func=_cmd_feasibility)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_INVALID_SCENARIO
    except (ValueError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_SCENARIO
    except (ThermalDivergenceError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE


if __name__ == "__main__":
    sys.exit(main())
