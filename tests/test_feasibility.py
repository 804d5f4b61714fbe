import math
import multiprocessing
import os
from unittest import mock

import numpy as np
import pytest

from thermoservo import (
    CircleContour,
    GridSpec,
    ThermoParams,
    isosurface_grid,
    lambdas,
    pairwise_feasibility,
    required_view_factor,
    steady_state_temperature,
    target_bounds,
)
from thermoservo import feasibility as feasibility_module
from thermoservo.feasibility import ROTATION_GRID, TRANSLATION_GRID
from thermoservo.geometry import classify_occlusions, rotation_planes
from thermoservo.units import celsius_to_kelvin, kelvin_to_celsius
from thermoservo.viewfactor import QuadratureSpec

from conftest import temperature_rate

USABLE_CPUS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)

#: Grids above the 256-cell pool threshold: the translation grid includes
#: the degenerate p3 = 0 layer, and the rotation grid tilts the object plane
#: through the source disk (Partial cells).
POOLED_GRIDS = {
    "translation": GridSpec(ranges=((-6.0, 7.0), (-6.0, 7.0), (0.0, 12.0)), step=2.0),
    "rotation": GridSpec(ranges=((-75.0, 76.0), (-75.0, 76.0), (-30.0, 31.0)), step=15.0),
}


def chunk_reference(subset, grid):
    """Values and degenerate flags of `_grid_chunk` run on every cell at
    once, in the grid's shape."""
    axes = tuple(grid.axis_values(k) for k in range(3))
    cells = feasibility_module._grid_cells(axes)
    values, degenerate = feasibility_module._grid_chunk(
        (subset, cells, 0.10, CircleContour(0.015), QuadratureSpec(16))
    )
    return values.reshape(grid.shape), degenerate.reshape(grid.shape)


class TestSteadyState:
    def test_no_view_gives_ambient(self, aluminum_lambdas, bench_env):
        # equal emittance/absorptance: lambda3/lambda2 = T3^4
        t = steady_state_temperature(0.0, aluminum_lambdas)
        assert t == pytest.approx(bench_env.ambient_temp, abs=1e-9)

    def test_full_view_limit_matches_source_bound(self, aluminum_lambdas, bench_env):
        t = steady_state_temperature(1.0 - 1e-12, aluminum_lambdas)
        bound = bench_env.source_emittance**0.25 * bench_env.source_temp
        assert t == pytest.approx(bound, abs=0.01)
        assert kelvin_to_celsius(bound) == pytest.approx(61.4, abs=0.1)

    @pytest.mark.parametrize(
        "f21,target_c", [(0.12, 30.0), (0.37, 40.0), (0.65, 50.0)]
    )
    def test_reported_view_factor_table(self, f21, target_c, aluminum_lambdas):
        t = steady_state_temperature(f21, aluminum_lambdas)
        assert kelvin_to_celsius(t) == pytest.approx(target_c, abs=3.0)

    def test_rate_vanishes_at_steady_state_on_grid(self, aluminum_lambdas):
        for f21 in np.linspace(0.0, 0.95, 25):
            t = steady_state_temperature(f21, aluminum_lambdas)
            assert abs(temperature_rate(f21, t, aluminum_lambdas)) < 1e-12

    def test_strictly_increasing_in_view_factor(self, aluminum_lambdas):
        grid = np.linspace(0.0, 0.99, 60)
        values = [steady_state_temperature(f, aluminum_lambdas) for f in grid]
        assert np.all(np.diff(values) > 0.0)

    def test_required_view_factor_inverts(self, aluminum_lambdas):
        for f21 in (0.1, 0.4, 0.8):
            t = steady_state_temperature(f21, aluminum_lambdas)
            assert required_view_factor(t, aluminum_lambdas) == pytest.approx(f21, rel=1e-12)

    def test_domain_validation(self, aluminum_lambdas):
        with pytest.raises(ValueError):
            steady_state_temperature(1.0, aluminum_lambdas)


class TestTargetBounds:
    def test_bench_interval(self, bench_env):
        lo, hi = target_bounds(bench_env)
        assert lo == pytest.approx(296.15)
        assert hi == pytest.approx(0.25**0.25 * 473.15)

    def test_eighty_celsius_infeasible(self, bench_env):
        lo, hi = target_bounds(bench_env)
        assert not lo <= celsius_to_kelvin(80.0) < hi

    def test_ambient_is_boundary_feasible(self, bench_env):
        lo, hi = target_bounds(bench_env)
        assert lo <= lo < hi


class TestGridSpec:
    def test_half_open_axis(self):
        grid = GridSpec(ranges=((0.0, 3.0), (0.0, 1.0), (0.0, 1.0)), step=1.0)
        assert np.allclose(grid.axis_values(0), [0.0, 1.0, 2.0])

    def test_translation_grid_has_48000_cells(self):
        assert TRANSLATION_GRID.shape == (40, 40, 30)
        assert int(np.prod(TRANSLATION_GRID.shape)) == 48000

    def test_rotation_grid_has_729000_cells(self):
        assert int(np.prod(ROTATION_GRID.shape)) == 729000

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(ranges=((0.0, 1.0), (1.0, 0.0), (0.0, 1.0)), step=1.0)

    @pytest.mark.parametrize("step", [0.0, -1.0, math.inf, math.nan])
    def test_step_must_be_finite_and_positive(self, step):
        with pytest.raises(ValueError, match="grid step must be finite and positive"):
            GridSpec(ranges=((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)), step=step)

    @pytest.mark.parametrize(
        "axis", [(math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0), (0.0, math.inf), (1.0, 1.0)]
    )
    def test_range_ends_must_be_finite_and_ordered(self, axis):
        with pytest.raises(ValueError, match="each grid range needs finite lo < hi"):
            GridSpec(ranges=((0.0, 1.0), axis, (0.0, 1.0)), step=1.0)


@pytest.fixture(scope="module")
def small_field():
    grid = GridSpec(ranges=((-6.0, 7.0), (-6.0, 7.0), (0.0, 12.0)), step=3.0)
    return isosurface_grid(
        0.10, CircleContour(0.015), "translation", grid, QuadratureSpec(32)
    )


@pytest.fixture(scope="module")
def two_equal_disks(bench_env):
    material = ThermoParams.from_disk(0.04, 0.04, 903.0, 2702.0, 0.015, 0.003)
    lam = lambdas(material, bench_env)
    contour = CircleContour(0.015)
    return [(contour, lam), (contour, lam)]


class TestIsosurfaceGrid:
    def test_values_in_range(self, small_field):
        assert np.all(small_field.values >= 0.0)
        assert np.all(small_field.values < 1.0)

    def test_mirror_symmetry(self, small_field):
        axis = small_field.axis_values[0]
        for i, p1 in enumerate(axis):
            j = np.argmin(np.abs(axis + p1))
            if abs(axis[j] + p1) > 1e-9:
                continue
            assert np.allclose(
                small_field.values[i], small_field.values[j], atol=1e-9
            )

    def test_axis_column_decreases_with_height(self, small_field):
        i = np.argmin(np.abs(small_field.axis_values[0]))
        j = np.argmin(np.abs(small_field.axis_values[1]))
        column = small_field.values[i, j, 1:]  # skip the degenerate p3=0 cell
        assert np.all(np.diff(column) < 0.0)

    def test_source_plane_cells_flagged_degenerate(self, small_field):
        k = np.argmin(np.abs(small_field.axis_values[2]))
        assert small_field.axis_values[2][k] == 0.0
        assert small_field.degenerate[:, :, k].all()
        assert np.all(small_field.values[:, :, k] == 0.0)
        assert not small_field.degenerate[:, :, k + 1 :].any()

    @pytest.mark.skipif(USABLE_CPUS < 2, reason="the pool needs two or more usable CPUs")
    def test_parallel_matches_serial(self):
        """The pooled grid equals one serial chunk over every cell, bit for
        bit, on both subsets."""
        for subset, grid in POOLED_GRIDS.items():
            with mock.patch.object(multiprocessing, "Pool", wraps=multiprocessing.Pool) as pool:
                field = isosurface_grid(
                    0.10, CircleContour(0.015), subset, grid, QuadratureSpec(16)
                )
            pool.assert_called_once_with(USABLE_CPUS)
            values, degenerate = chunk_reference(subset, grid)
            assert field.values.tobytes() == values.tobytes()
            assert field.degenerate.tobytes() == degenerate.tobytes()
            if subset == "translation":  # the degenerate p3 = 0 layer is covered
                assert degenerate[..., 0].all() and not degenerate[..., 1:].any()
        # So are Partial cells.
        grid = POOLED_GRIDS["rotation"]
        poses = feasibility_module._cell_poses(
            "rotation", feasibility_module._grid_cells([grid.axis_values(k) for k in range(3)])
        )
        rotations = np.moveaxis(rotation_planes(poses[:, 3:].T), -1, 0)
        assert classify_occlusions(rotations, poses[:, :3], 0.10).partial.any()

    def test_one_usable_cpu_starts_no_pool(self):
        grid = POOLED_GRIDS["rotation"]
        no_pool = AssertionError("a pool was started on one usable CPU")
        with mock.patch.object(os, "sched_getaffinity", return_value={0}, create=True), \
                mock.patch.object(multiprocessing, "Pool", side_effect=no_pool):
            field = isosurface_grid(0.10, CircleContour(0.015), "rotation", grid, QuadratureSpec(16))
        values, degenerate = chunk_reference("rotation", grid)
        assert field.values.tobytes() == values.tobytes()
        assert field.degenerate.tobytes() == degenerate.tobytes()

    def test_rotation_subset(self):
        grid = GridSpec(ranges=((-60.0, 61.0), (-0.5, 0.5), (-0.5, 0.5)), step=30.0)
        field = isosurface_grid(
            0.10, CircleContour(0.015), "rotation", grid, QuadratureSpec(16)
        )
        assert field.axis_names == ("tx", "ty", "tz")
        assert np.all(field.values >= 0.0) and np.all(field.values < 1.0)
        # tilting away from parallel reduces the view factor at (0,0,5 cm)
        center = np.argmin(np.abs(field.axis_values[0]))
        assert field.values[center, 0, 0] == field.values[:, 0, 0].max()

    def test_bad_subset(self):
        with pytest.raises(ValueError):
            isosurface_grid(0.10, CircleContour(0.015), "spin")

    def test_steady_state_field_transform(self, small_field, aluminum_lambdas, bench_env):
        t_values = steady_state_temperature(small_field.values, aluminum_lambdas)
        assert t_values.shape == small_field.values.shape
        # monotone map: the spatial argmax is preserved
        assert np.argmax(t_values) == np.argmax(small_field.values)
        # degenerate cells (F recorded as 0) map to the ambient equilibrium
        assert np.allclose(t_values[small_field.degenerate], bench_env.ambient_temp, atol=1e-9)
        expected = steady_state_temperature(
            float(small_field.values.max()), aluminum_lambdas
        )
        assert t_values.max() == pytest.approx(expected, rel=1e-12)


class TestPairwiseFeasibility:
    def test_equal_targets_feasible_with_symmetric_arms(self, two_equal_disks, bench_env):
        grid = GridSpec(ranges=((-6.0, 6.5), (0.0, 0.5), (2.0, 26.0)), step=1.0)
        report = pairwise_feasibility(
            targets=[celsius_to_kelvin(30.0)] * 2,
            displacements=[(0.02, 0.0, 0.0), (-0.02, 0.0, 0.0)],
            objects=two_equal_disks,
            source_radius=0.10,
            env=bench_env,
            grid=grid,
            spec=QuadratureSpec(16),
        )
        assert report.feasible
        # symmetric arms: the witness sits on the mirror plane
        assert abs(report.witness.p1) < 1e-9
        assert report.residual <= 0.5

    def test_bound_violation_flagged(self, two_equal_disks, bench_env):
        grid = GridSpec(ranges=((-2.0, 2.5), (0.0, 0.5), (2.0, 10.0)), step=2.0)
        report = pairwise_feasibility(
            targets=[celsius_to_kelvin(80.0), celsius_to_kelvin(30.0)],
            displacements=[(0.02, 0.0, 0.0), (-0.02, 0.0, 0.0)],
            objects=two_equal_disks,
            source_radius=0.10,
            env=bench_env,
            grid=grid,
        )
        assert not report.feasible
        assert report.bound_violations == (0,)

    def test_single_object_reduces_to_attainability(self, bench_env, aluminum_lambdas):
        """Fine z-column grid: verdict equals bounds + attainable-F check."""
        contour = CircleContour(0.015)
        grid = GridSpec(ranges=((0.0, 0.5), (0.0, 0.5), (2.0, 30.0)), step=0.25)
        spec = QuadratureSpec(16)
        for target_c in (30.0, 50.0, 59.0):
            target = celsius_to_kelvin(target_c)
            report = pairwise_feasibility(
                targets=[target],
                displacements=[(0.0, 0.0, 0.0)],
                objects=[(contour, aluminum_lambdas)],
                source_radius=0.10,
                env=bench_env,
                grid=grid,
                spec=spec,
            )
            lo, hi = target_bounds(bench_env)
            f_needed = required_view_factor(target, aluminum_lambdas)
            from thermoservo.viewfactor import vf_general
            from thermoservo import Pose

            f_max = max(
                vf_general(Pose(0, 0, z * 1e-2), 0.10, contour, spec).value
                for z in grid.axis_values(2)
            )
            expected = (lo <= target < hi) and (f_max >= f_needed)
            assert report.feasible == expected

    def test_empty_grid_rejected(self, two_equal_disks, bench_env):
        grid = GridSpec(ranges=((0.0, 0.1), (0.0, 0.1), (5.0, 5.1)), step=1.0)
        # grid is non-empty (one cell per axis); shrink to zero via ranges
        with pytest.raises(ValueError):
            pairwise_feasibility(
                targets=[celsius_to_kelvin(30.0)] * 2,
                displacements=[(0.02, 0, 0), (-0.02, 0, 0)],
                objects=two_equal_disks,
                source_radius=0.10,
                env=bench_env,
                grid=GridSpec(ranges=((0.0, 1e-12), (0.0, 1.0), (5.0, 6.0)), step=1.0),
            )

    def test_mismatched_lengths_rejected(self, two_equal_disks, bench_env):
        with pytest.raises(ValueError):
            pairwise_feasibility(
                targets=[300.0],
                displacements=[(0, 0, 0), (0.02, 0, 0)],
                objects=two_equal_disks,
                source_radius=0.10,
                env=bench_env,
                grid=GridSpec(ranges=((0, 1), (0, 1), (5, 6)), step=1.0),
            )
