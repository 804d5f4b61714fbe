"""The batched view-factor kernel against a per-pose contour integral and
the coaxial closed form, its Partial arc against the per-pose reference
arc, its quadrature ladder against the same rung rule on the reference,
its gradients against central differences, contour groups against
single-contour calls, plus the batched callers: feasibility search and the
simulator's evaluation and kernel-call counts."""
import dataclasses
import hashlib
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, event, find, given, settings
from hypothesis import strategies as st

from thermoservo import (
    AdaptiveInit,
    CircleContour,
    Common,
    Complete,
    DegeneratePoseError,
    Environment,
    GridSpec,
    ObjectSpec,
    Partial,
    Pose,
    QuadratureSpec,
    Scenario,
    SensorSpec,
    SourceSchedule,
    ThermoParams,
    VelocityLimits,
    Workspace,
    classify_occlusion,
    isosurface_grid,
    lambdas,
    pairwise_feasibility,
    run_simulation,
    steady_state_temperature,
    vf_general,
    view_factor_gradient,
)
from thermoservo import feasibility as feasibility_module
from thermoservo import simulator as simulator_module
from thermoservo import viewfactor as viewfactor_module
from thermoservo.geometry import (
    MIN_SURFACE_CLEARANCE,
    TWO_PI,
    classify_occlusions,
    fourier_fit,
    rotation_planes,
)
from thermoservo.units import celsius_to_kelvin
from thermoservo.viewfactor import MIN_KERNEL_DISTANCE, REFINE_TOL, _rungs, vf_batch

from conftest import BUNNY_BUMPS, coaxial_disk_view_factor, star_polyline

SOURCE_RADIUS = 0.10
CONTOURS = {
    "circle": CircleContour(0.015),
    "fourier": fourier_fit(star_polyline(0.018, BUNNY_BUMPS), 5),
}


# ---------------------------------------------------------------------------
# Reference: the per-pose contour integral
# ---------------------------------------------------------------------------

#: Nodes of the periodic trapezoid rule on the reference's full source
#: circle: far beyond convergence for samples 1 mm or more from the rim.
TRAPEZOID_NODES = 2**14
#: Composite Simpson intervals on the reference's Partial arc and chord: for
#: F21, and for the 24 evaluations of its central differences. For samples
#: 1 mm or more from both curves of a 10 cm source, doubling SIMPSON_INTERVALS
#: moves F21 by under 2e-13 (2**13 intervals left errors up to 5e-11 there),
#: and doubling GRADIENT_INTERVALS moves the gradient by under 1e-8 of its
#: largest component.
SIMPSON_INTERVALS = 2**15
GRADIENT_INTERVALS = 2**11


def _simpson_nodes(a, b, n):
    x = np.linspace(a, b, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (b - a) / (3.0 * n)
    return x, w


def reference_rotation(pose):
    cx, sx = math.cos(pose.theta_x), math.sin(pose.theta_x)
    cy, sy = math.cos(pose.theta_y), math.sin(pose.theta_y)
    cz, sz = math.cos(pose.theta_z), math.sin(pose.theta_z)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    return rz @ ry @ rx


def reference_arc(pose, source_radius):
    """Per-pose occlusion class: "common", "complete" or the contributing
    arc (lo, hi) of a Partial pose; raises DegeneratePoseError if coplanar."""
    normal = -reference_rotation(pose)[:, 2]
    d = float(normal @ pose.translation)
    amp = source_radius * math.hypot(normal[0], normal[1])
    if abs(pose.p3) < 1e-12 and amp < 1e-12 * source_radius:
        raise DegeneratePoseError("object lies in the source plane")
    if amp - abs(d) <= 1e-12 * max(amp, abs(d), source_radius):
        return "common" if d < 0.0 else "complete"
    psi = math.atan2(normal[1], normal[0])
    delta = math.acos(min(1.0, max(-1.0, d / amp)))

    def wrap_2pi(x):
        w = x % TWO_PI
        return 0.0 if w >= TWO_PI else w

    phi1, phi2 = sorted((wrap_2pi(psi + delta), wrap_2pi(psi - delta)))
    if phi2 - phi1 < 1e-12 or TWO_PI - (phi2 - phi1) < 1e-12:
        return "common" if d < 0.0 else "complete"
    mid = 0.5 * (phi1 + phi2)
    if source_radius * (normal[0] * math.cos(mid) + normal[1] * math.sin(mid)) - d > 0.0:
        return phi1, phi2
    return phi2, phi1 + TWO_PI


def _object_curve(contour, pose, n):
    """The object's n periodic trapezoid nodes, posed, and their weights."""
    t, w = contour.period * np.arange(n) / n, np.full(n, contour.period / n)
    rotation = reference_rotation(pose)
    zeros = np.zeros((len(t), 1))
    pts = np.concatenate([contour.local_point(t), zeros], axis=1) @ rotation.T + pose.translation
    tans = np.concatenate([contour.local_tangent(t), zeros], axis=1) @ rotation.T
    return pts, tans, w


def _circle_curve(radius, t, w):
    zeros = np.zeros_like(t)
    pts = np.stack([radius * np.cos(t), radius * np.sin(t), zeros], axis=1)
    tans = np.stack([-radius * np.sin(t), radius * np.cos(t), zeros], axis=1)
    return pts, tans, w


def _circle_arc_curve(radius, lo, hi, n):
    return _circle_curve(radius, *_simpson_nodes(lo, hi, n))


def _trapezoid_circle_curve(radius, n):
    return _circle_curve(radius, TWO_PI * np.arange(n) / n, np.full(n, TWO_PI / n))


def _chord_curve(start, end, n):
    t, w = _simpson_nodes(0.0, 1.0, n)
    pts = start[None, :] + t[:, None] * (end - start)[None, :]
    return pts, np.broadcast_to(end - start, pts.shape).copy(), w


def _source_integral(source_curve, obj_curve):
    """Per object node, the source curve's quadrature of ln(s) (ds_src . t_obj).
    Source curves lie in z = 0."""
    pts1, tans1, w1 = source_curve
    pts2, tans2, _ = obj_curve
    s_sq = np.subtract.outer(pts1[:, 0], pts2[:, 0]) ** 2
    s_sq += np.subtract.outer(pts1[:, 1], pts2[:, 1]) ** 2
    s_sq += pts2[:, 2] ** 2
    np.maximum(s_sq, MIN_KERNEL_DISTANCE**2, out=s_sq)
    kernel = np.log(s_sq, out=s_sq)
    kernel *= tans1 @ tans2.T
    return 0.5 * (w1 @ kernel)


def reference_integrand(pose, source_radius, contour, n, arc=None, intervals=SIMPSON_INTERVALS):
    """Per-pose contour integral as (w, g), F21 = w @ g: the object's
    n-node periodic trapezoid weights and, per object node, the source side
    over -2 pi A2. Raises DegeneratePoseError. The source side is a
    TRAPEZOID_NODES periodic trapezoid rule on the full circle of a Common
    pose, the composite Simpson rule at `intervals` on the arc and chord of
    a Partial one.
    `arc` ("common" or (lo, hi)) holds the source curves fixed instead of
    following the pose."""
    if arc is None:
        arc = reference_arc(pose, source_radius)
    obj_curve = _object_curve(contour, pose, n)
    if arc == "complete":
        return obj_curve[2], np.zeros(n)
    if obj_curve[0][:, 2].min() < MIN_SURFACE_CLEARANCE:
        raise DegeneratePoseError("near contact")
    if arc == "common":
        g = _source_integral(_trapezoid_circle_curve(source_radius, TRAPEZOID_NODES), obj_curve)
    else:
        lo, hi = arc
        arc_start = source_radius * np.array([math.cos(lo), math.sin(lo), 0.0])
        arc_end = source_radius * np.array([math.cos(hi), math.sin(hi), 0.0])
        g = _source_integral(_circle_arc_curve(source_radius, lo, hi, intervals), obj_curve)
        g += _source_integral(_chord_curve(arc_end, arc_start, intervals), obj_curve)
    return obj_curve[2], g / -(TWO_PI * contour.area)


def reference_value(pose, source_radius, contour, n, arc=None, intervals=SIMPSON_INTERVALS):
    """F21 of reference_integrand."""
    w, g = reference_integrand(pose, source_radius, contour, n, arc, intervals)
    return float(w @ g)


def borderline(pose, source_radius, contour, n):
    """True within rounding of a class boundary (contact clearance or a
    tangent cut), where the two paths may round to different classes."""
    normal = -reference_rotation(pose)[:, 2]
    d = float(normal @ pose.translation)
    amp = source_radius * math.hypot(normal[0], normal[1])
    if abs(amp - abs(d)) <= 1e-9 * source_radius:
        return True
    min_z = _object_curve(contour, pose, n)[0][:, 2].min()
    return abs(min_z - MIN_SURFACE_CLEARANCE) <= 1e-12


# ---------------------------------------------------------------------------
# The quadrature ladder: the rung a pose stops on
# ---------------------------------------------------------------------------


def fixed_rule():
    """Every pose climbs to its top rung, so vf_batch at QuadratureSpec(n)
    takes the n-sample rule for every pose."""
    return mock.patch.object(viewfactor_module, "REFINE_TOL", -math.inf)


def rung_rule(sums, n, tolerance=REFINE_TOL):
    """The rung the ladder of n stops a pose on, from its sums {k: T_k} at
    its rungs and at half its bottom rung; None if it needs a missing sum."""
    rungs = _rungs(n)
    for k in rungs[:-1]:
        if k not in sums:
            return None
        if abs(sums[k] - sums[k // 2]) <= tolerance:
            return k
    return rungs[-1] if rungs[-1] in sums else None


def rungs_within(sums, n, band):
    """The rungs the ladder may stop on when each estimate may be off by
    `band`: an estimate that close to REFINE_TOL may fall either way."""
    low, high = rung_rule(sums, n, REFINE_TOL + band), rung_rule(sums, n, REFINE_TOL - band)
    return [k for k in _rungs(n) if low <= k <= high]


def reference_ladder(pose, contour, n, arc):
    """The reference's sums T_k at k = m, m/2, ..., 8 samples, every
    (m / k)-th term of one reference integrand at m samples, and the
    integral of the integrand's magnitude at m samples: m = min(n, 64), or n
    when the rung rule climbs past 64."""
    for samples in sorted({min(n, 64), n}):
        w, g = reference_integrand(pose, SOURCE_RADIUS, contour, samples, arc)
        sums, step = {}, 1
        while samples % step == 0 and samples // step >= 8:
            sums[samples // step] = step * (w[::step] @ g[::step])
            step *= 2
        if rung_rule(sums, n, REFINE_TOL / 2) is not None:
            return sums, w @ np.abs(g)


def assert_matches_ladder_reference(poses, values, degenerate, contour, n):
    """Common poses: the closed-form source circle against the trapezoid
    reference, within 1e-13 of the integral of the integrand's magnitude
    (the scale of its rounding; the value itself, where the integrand keeps
    one sign). Partial poses: the closed-form arc and chord against the
    converged Simpson reference, 1e-12. Each at the rung the ladder's rule
    picks from the reference's own sums (either rung where an estimate lies
    within twice the tolerance of REFINE_TOL). Both for samples 1 mm or
    more from the source curves, where the fixed reference rules have
    converged; closer poses are checked for a finite value only. Complete
    and degenerate poses: exact 0 and the flag."""
    for pose, value, flagged in zip(poses, values, degenerate):
        try:
            arc = reference_arc(pose, SOURCE_RADIUS)
            points = _object_curve(contour, pose, n)[0]
            if (
                arc != "complete"
                and points[:, 2].min() >= MIN_SURFACE_CLEARANCE
                and source_curve_distance(points, arc, SOURCE_RADIUS) < 1e-3
            ):
                event("within 1 mm of the source curves: finite, not compared")
                assert not flagged and math.isfinite(value)
                continue
            if arc == "complete":
                assert not flagged and value == 0.0
                continue
            sums, magnitude = reference_ladder(pose, contour, n, arc)
        except DegeneratePoseError:
            assert flagged and math.isnan(value)
            continue
        assert not flagged
        tolerance = 1e-13 * magnitude if arc == "common" else 1e-12
        rungs = rungs_within(sums, n, 2.0 * tolerance)
        event(f"{'common' if arc == 'common' else 'partial'} stops on {rungs} of n={n}")
        assert any(abs(value - sums[k]) <= tolerance for k in rungs)


# ---------------------------------------------------------------------------
# Pose strategies: Common, Partial, Complete and near-contact
# ---------------------------------------------------------------------------

lateral = st.floats(-0.15, 0.15)
angle = st.floats(-math.pi, math.pi)
common_poses = st.builds(
    Pose, lateral, lateral, st.floats(0.02, 0.3), st.floats(-0.3, 0.3), st.floats(-0.3, 0.3), angle
)
partial_poses = st.builds(
    Pose, st.floats(-0.08, 0.08), st.floats(-0.08, 0.08), st.floats(0.01, 0.06),
    st.floats(0.6, 1.5), st.floats(-0.8, 0.8), angle,
)
complete_poses = st.builds(
    Pose, lateral, lateral, st.floats(0.01, 0.2), st.floats(2.8, math.pi), st.floats(-0.2, 0.2), angle
)
near_contact_poses = st.builds(
    Pose, lateral, lateral, st.floats(1e-7, 2e-3), st.floats(-0.05, 0.05), st.floats(-0.05, 0.05), angle
)
#: Common poses 3 mm to 2 cm above the plane: most climb above the bottom rung.
low_poses = st.builds(
    Pose, lateral, lateral, st.floats(0.003, 0.02), st.floats(-0.05, 0.05), st.floats(-0.05, 0.05), angle
)
any_pose = st.one_of(common_poses, partial_poses, complete_poses, near_contact_poses)
pose_lists = st.lists(any_pose, min_size=1, max_size=12)
cases = st.sampled_from([(name, n) for name in CONTOURS for n in (16, 64)])
dofs = st.sampled_from((0, 3, 6))


def as_array(poses):
    return np.array([p.as_vector() for p in poses])


#: `find` settings that stop at the first matching example: the tests need
#: one, and shrinking it takes seconds.
FIRST_EXAMPLE = settings(database=None, phases=[Phase.generate])


@pytest.mark.parametrize(
    "strategy, kind",
    [(common_poses, Common), (partial_poses, Partial), (complete_poses, Complete)],
)
def test_strategies_reach_their_class(strategy, kind):
    find(
        strategy,
        lambda p: isinstance(classify_occlusion(p, SOURCE_RADIUS), kind),
        settings=FIRST_EXAMPLE,
    )


def test_near_contact_strategy_reaches_both_sides_of_the_clearance():
    contour = CONTOURS["circle"]
    for inside in (True, False):
        find(
            near_contact_poses,
            lambda p: (_object_curve(contour, p, 16)[0][:, 2].min() < MIN_SURFACE_CLEARANCE)
            == inside,
            settings=FIRST_EXAMPLE,
        )


@st.composite
def near_tangent_poses(draw):
    """A Partial pose's orientation, moved along its normal until the plane
    nearly touches the source circle: |d| / amp = 1 - 10^-k, k in [8, 16],
    on either side of the disk."""
    pose = draw(partial_poses)
    k = draw(st.floats(8.0, 16.0))
    side = draw(st.sampled_from((-1.0, 1.0)))
    normal = -reference_rotation(pose)[:, 2]
    amp = SOURCE_RADIUS * math.hypot(normal[0], normal[1])
    shift = side * (1.0 - 10.0**-k) * amp - float(normal @ pose.translation)
    p1, p2, p3 = pose.translation + shift * normal
    return Pose(p1, p2, p3, pose.theta_x, pose.theta_y, pose.theta_z)


def test_near_tangent_strategy_reaches_both_sides_of_the_partial_margin():
    for partial in (True, False):
        find(
            near_tangent_poses(),
            lambda p: isinstance(reference_arc(p, SOURCE_RADIUS), tuple) == partial,
            settings=FIRST_EXAMPLE,
        )


@given(poses=st.lists(st.one_of(partial_poses, near_tangent_poses()), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_contributing_arc_matches_the_reference_arc(poses):
    """classify_occlusions' (psi - delta, psi + delta) against
    reference_arc's sorted roots, side test and tangency fallback: the same
    Partial poses, the same arc modulo 2 pi, never shorter than 2e-6 nor a
    full turn, centred on the object's front side. The arc's ends agree
    within 1e-12 plus what arccos makes of rounding in d / amp, which the
    two paths sum in different orders: near tangency delta = arccos(d / amp)
    multiplies it by 1 / sqrt(1 - (d / amp)^2), up to 7e5."""
    rotations = np.array([reference_rotation(p) for p in poses])
    occ = classify_occlusions(rotations, as_array(poses)[:, :3], SOURCE_RADIUS)
    eps = np.finfo(float).eps
    for pose, partial, lo, hi, rotation in zip(poses, occ.partial, occ.lo, occ.hi, rotations):
        normal = -rotation[:, 2]
        d = float(normal @ pose.translation)
        amp = SOURCE_RADIUS * math.hypot(normal[0], normal[1])
        margin = 1e-12 * max(amp, abs(d), SOURCE_RADIUS)
        if abs(amp - abs(d) - margin) <= 1e-15 * SOURCE_RADIUS:
            event("within rounding of the Partial margin: not compared")
            continue
        arc = reference_arc(pose, SOURCE_RADIUS)
        assert partial == isinstance(arc, tuple)
        if not partial:
            continue
        ratio_rounding = 8.0 * eps * (np.abs(pose.translation).sum() / amp + 1.0)
        tolerance = 1e-12 + ratio_rounding / math.sqrt(1.0 - (d / amp) ** 2)
        for end, reference in zip((lo, hi), arc):
            assert abs(math.remainder(end - reference, TWO_PI)) <= tolerance
        assert 0.0 < hi - lo < TWO_PI
        assert (hi - lo) / 2.0 >= 1e-6
        mid = 0.5 * (lo + hi)
        point = SOURCE_RADIUS * np.array([math.cos(mid), math.sin(mid), 0.0])
        assert normal @ (point - pose.translation) > 0.0


def rim_distance(points, source_radius):
    """Least distance of the (m, 3) points from the source circle."""
    return np.hypot(np.hypot(points[:, 0], points[:, 1]) - source_radius, points[:, 2]).min()


def source_curve_distance(points, arc, source_radius):
    """Least distance of the (m, 3) points from the source curves of `arc`:
    the source circle for a Common pose; for a Partial one (lo, hi), the
    chord and the whole circle, which bounds the distance from the arc."""
    distance = rim_distance(points, source_radius)
    if arc == "common":
        return distance
    end, start = (source_radius * np.array([math.cos(a), math.sin(a), 0.0]) for a in arc[::-1])
    edge = start - end
    along = np.clip((points - end) @ edge / (edge @ edge), 0.0, 1.0)
    chord = np.linalg.norm(points - end - along[:, None] * edge, axis=1).min()
    return min(distance, chord)


@given(case=cases, poses=pose_lists)
@settings(max_examples=60, deadline=None)
def test_matches_per_pose_reference(case, poses):
    """Every pose against the per-pose reference at the rung it stops on
    (assert_matches_ladder_reference)."""
    name, n = case
    contour = CONTOURS[name]
    assume(not any(borderline(p, SOURCE_RADIUS, contour, n) for p in poses))
    values, degenerate = vf_batch(as_array(poses), SOURCE_RADIUS, contour, QuadratureSpec(n))
    assert_matches_ladder_reference(poses, values, degenerate, contour, n)


@given(
    name=st.sampled_from(sorted(CONTOURS)),
    n=st.sampled_from((64, 256)),
    poses=st.lists(st.one_of(low_poses, any_pose), min_size=1, max_size=3),
)
@settings(max_examples=25, deadline=None)
def test_each_pose_stops_on_the_rung_its_reference_picks(name, n, poses):
    """Ladders of three and five rungs, with poses low over the plane that
    climb them: each value is the reference at the rung the same rule picks
    from the reference's own T_8, T_16, T_32, ... sums."""
    contour = CONTOURS[name]
    assume(not any(borderline(p, SOURCE_RADIUS, contour, n) for p in poses))
    values, degenerate = vf_batch(as_array(poses), SOURCE_RADIUS, contour, QuadratureSpec(n))
    assert_matches_ladder_reference(poses, values, degenerate, contour, n)


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("radius", [0.015, 0.03])
@pytest.mark.parametrize("gap", [0.01, 0.05, 0.2])
def test_coaxial_circle_matches_closed_form(n, radius, gap):
    """On a coaxial circle the object integrand is constant, so the
    closed-form source side leaves only rounding."""
    values, degenerate = vf_batch(
        np.array([[0.0, 0.0, gap, 0.0, 0.0, 0.0]]), SOURCE_RADIUS, CircleContour(radius),
        QuadratureSpec(n),
    )
    expected = coaxial_disk_view_factor(radius, SOURCE_RADIUS, gap)
    assert not degenerate[0]
    assert abs(values[0] - expected) <= 1e-13


def test_fourier_contour_converges_at_the_simulator_default():
    """The object contour is a closed loop, so its periodic rule converges
    fast: on 200 seeded Common poses (p3 2-30 cm, tilt up to 0.3 rad,
    lateral +-15 cm), the Fourier contour's F21 at n=16 has a median
    relative error of at most 1e-6 against n=256. Composite Simpson on the
    same nodes reads about 1.3e-4."""
    rng = np.random.default_rng(8)
    poses = []
    while len(poses) < 200:
        pose = Pose(
            *rng.uniform(-0.15, 0.15, 2), rng.uniform(0.02, 0.3),
            *rng.uniform(-0.3, 0.3, 2), rng.uniform(-math.pi, math.pi),
        )
        if isinstance(classify_occlusion(pose, SOURCE_RADIUS), Common):
            poses.append(pose)
    contour = CONTOURS["fourier"]
    coarse, flagged = vf_batch(as_array(poses), SOURCE_RADIUS, contour, QuadratureSpec(16))
    fine, _ = vf_batch(as_array(poses), SOURCE_RADIUS, contour, QuadratureSpec(256))
    assert not flagged.any()
    assert np.median(np.abs(coarse - fine) / fine) <= 1e-6


@pytest.mark.parametrize("name", sorted(CONTOURS))
def test_partial_poses_converge_at_the_simulator_default(name):
    """The arc and chord are exact, so the periodic object-side rule alone
    sets the Partial error: on the non-degenerate ones of 200 seeded Partial
    poses in partial_poses' ranges, F21 at n=16 has a median relative error
    of at most 1e-6 against n=256. Simpson on the arc and chord at n
    intervals reads about 1e-4."""
    contour, rng, poses = CONTOURS[name], np.random.default_rng(9), []
    while len(poses) < 200:
        pose = Pose(
            *rng.uniform(-0.08, 0.08, 2), rng.uniform(0.01, 0.06),
            rng.uniform(0.6, 1.5), rng.uniform(-0.8, 0.8), rng.uniform(-math.pi, math.pi),
        )
        if isinstance(classify_occlusion(pose, SOURCE_RADIUS), Partial):
            poses.append(pose)
    coarse, _ = vf_batch(as_array(poses), SOURCE_RADIUS, contour, QuadratureSpec(16))
    fine, flagged = vf_batch(as_array(poses), SOURCE_RADIUS, contour, QuadratureSpec(256))
    # The n=16 samples are every 16th n=256 sample, so they clear the plane too.
    keep = ~flagged
    assert np.count_nonzero(keep) >= 150
    assert np.median(np.abs(coarse - fine)[keep] / fine[keep]) <= 1e-6


def on_axis_poses():
    """Partial poses with a circle sample on the source axis. Rotation-grid
    cells (90 degree steps) tilted by -90 degrees about x or y, and the same
    cells at +90 degrees: the object plane contains the axis, so the arc is
    a half circle, and the sample is off the axis by rounding (|w| ~ 1e-18
    in _partial_values). And poses tilted by 0.6 or 1.2 rad and turned,
    whose translation carries the sample at t = 0 onto the axis exactly
    (w = 0), or that at t = pi / 2 to within rounding, with longer arcs."""
    grid = dataclasses.replace(feasibility_module.ROTATION_GRID, step=90.0)
    cells = np.stack(np.meshgrid(*(grid.axis_values(k) for k in range(3)), indexing="ij"), -1)
    cells = cells.reshape(-1, 3)
    cells = cells[(cells[:, 0] == -90.0) | (cells[:, 1] == -90.0)]
    mirrored = cells * np.where(cells == -90.0, -1.0, 1.0)
    poses = [Pose(0.0, 0.0, 0.05, *np.radians(c)) for c in np.concatenate([cells, mirrored])]
    radius = CONTOURS["circle"].radius
    for local in ((radius, 0.0, 0.0), (0.0, radius, 0.0)):
        for tilt in (0.6, 1.2):
            for turn in (0.0, 2.0, 4.0):
                sample = reference_rotation(Pose(0.0, 0.0, 0.0, 0.0, tilt, turn)) @ local
                poses.append(Pose(-sample[0], -sample[1], 0.04 - sample[2], 0.0, tilt, turn))
    return poses


def test_partial_poses_with_samples_on_the_source_axis():
    """On the axis ln(1 - w) ~ -w: the antiderivative of ln(1 - w) ds must
    not divide by w, and chi(w) = (w + ln(1 - w)) / w^2 must not be the
    quotient, which reads 0 for -1/2. Values and gradients are finite and
    match the converged reference and its central differences. (The
    Fourier contour has no sample on its local axes.)"""
    contour, n = CONTOURS["circle"], 16
    poses = on_axis_poses()
    values, degenerate, grads = vf_batch(
        as_array(poses), SOURCE_RADIUS, contour, QuadratureSpec(n), dof=6
    )
    assert not degenerate.any()
    assert np.isfinite(values).all() and np.isfinite(grads).all()
    for pose, value, grad in zip(poses, values, grads):
        points = _object_curve(contour, pose, n)[0]
        assert isinstance(reference_arc(pose, SOURCE_RADIUS), tuple)
        assert np.hypot(points[:, 0], points[:, 1]).min() < 1e-15
        assert abs(value - reference_value(pose, SOURCE_RADIUS, contour, n)) <= 1e-12
        expected = reference_gradient(pose, contour, n)
        assert np.abs(grad - expected).max() <= 1e-6 * np.abs(expected).max()


def block_budget(samples):
    """Patch the object samples per block."""
    return mock.patch.object(viewfactor_module, "BLOCK_SAMPLES", samples)


def assert_same_outputs(first, second):
    """Equal bits in every array of two vf_batch results."""
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.tobytes() == b.tobytes()


@given(case=cases, poses=pose_lists, dof=dofs, data=st.data())
@settings(max_examples=40, deadline=None)
def test_batch_independence_bitwise(case, poses, dof, data):
    name, n = case
    contour, spec = CONTOURS[name], QuadratureSpec(n)
    batch = as_array(poses)
    outputs = vf_batch(batch, SOURCE_RADIUS, contour, spec, dof=dof)
    # The values and flags do not depend on dof.
    assert_same_outputs(outputs[:2], vf_batch(batch, SOURCE_RADIUS, contour, spec))
    alone = [vf_batch(row[None, :], SOURCE_RADIUS, contour, spec, dof=dof) for row in batch]
    assert_same_outputs(outputs, [np.concatenate(a) for a in zip(*alone)])
    samples = data.draw(st.integers(1, 3 * n), label="block_samples")
    with block_budget(samples):
        assert_same_outputs(outputs, vf_batch(batch, SOURCE_RADIUS, contour, spec, dof=dof))
    order = np.array(data.draw(st.permutations(range(len(batch))), label="order"))
    shuffled = vf_batch(batch[order], SOURCE_RADIUS, contour, spec, dof=dof)
    assert_same_outputs(shuffled, [a[order] for a in outputs])


def kernel_rungs(poses, contours, n):
    """The rung each pose stops on, by the rung rule on the kernel's own
    sums under the fixed rule: F21 at each rung of n and at half the bottom
    rung."""
    rungs = _rungs(n)
    with fixed_rule():
        sums = {
            k: vf_batch(poses, SOURCE_RADIUS, contours, QuadratureSpec(k))[0]
            for k in (rungs[0] // 2, *rungs)
        }
    return np.array([rung_rule({k: v[i] for k, v in sums.items()}, n) for i in range(len(poses))])


def ladder_mix():
    """Rows of (circle, Fourier) groups that stop on every rung of n=64:
    Common poses high above the source (the bottom rung) and 3 mm to 2 cm
    above it, Partial poses, and a Complete and a coplanar group."""
    rng = np.random.default_rng(13)
    rows = []
    for _ in range(6):
        rows += [
            [*rng.uniform(-0.03, 0.03, 2), rng.uniform(0.1, 0.3), *rng.uniform(-0.1, 0.1, 2), 0.0],
            [*rng.uniform(-0.12, 0.12, 2), rng.uniform(0.003, 0.02), *rng.uniform(-0.05, 0.05, 2), 1.0],
            [*rng.uniform(-0.08, 0.08, 2), rng.uniform(0.01, 0.06), rng.uniform(0.6, 1.5), 0.2, 2.0],
        ]
    rows += [[0.0, 0.0, 0.05, math.pi, 0.0, 0.0]] * 2 + [[0.02, 0.0, 0.0, 0.0, 0.0, 0.0]] * 2
    return np.array(rows)


@pytest.mark.parametrize("dof", [0, 3, 6])
def test_batch_independence_with_poses_on_every_rung(dof):
    """Poses that stop on the bottom rung and poses that climb to 32 and 64
    samples, in one block and in every block split: values, flags and
    gradients are bitwise those of each group alone, in reverse group
    order, and the values and flags those of dof 0."""
    contours, spec = (CONTOURS["circle"], CONTOURS["fourier"]), QuadratureSpec(64)
    poses = ladder_mix()
    outputs = vf_batch(poses, SOURCE_RADIUS, contours, spec, dof=dof)
    flagged = outputs[1]
    assert flagged[-2:].all() and not flagged[-4:-2].any()
    assert set(kernel_rungs(poses, contours, 64)[~flagged].tolist()) == {16, 32, 64}
    assert_same_outputs(outputs[:2], vf_batch(poses, SOURCE_RADIUS, contours, spec))
    for samples in (1, 31, 32, 33, 64, 200, len(poses) * 16):
        with block_budget(samples):
            assert_same_outputs(outputs, vf_batch(poses, SOURCE_RADIUS, contours, spec, dof=dof))
    alone = [vf_batch(poses[g : g + 2], SOURCE_RADIUS, contours, spec, dof=dof) for g in range(0, len(poses), 2)]
    assert_same_outputs(outputs, [np.concatenate(a) for a in zip(*alone)])
    reverse = np.arange(len(poses)).reshape(-1, 2)[::-1].ravel()
    shuffled = vf_batch(poses[reverse], SOURCE_RADIUS, contours, spec, dof=dof)
    assert_same_outputs(shuffled, [a[reverse] for a in outputs])


def tilted_between_samples(margin, turn=0.0):
    """The circle tilted by 0.4 rad so that its lowest point is sample 1 of
    64, halfway between samples 0 and 1 of 16, and lowered until that point
    sits `margin` above the contact clearance."""
    lowest, tilt = TWO_PI / 64, 0.4
    theta_y = math.asin(tilt * math.cos(lowest))
    theta_x = math.asin(-tilt * math.sin(lowest) / math.cos(theta_y))
    height = MIN_SURFACE_CLEARANCE + tilt * CONTOURS["circle"].radius + margin
    return Pose(0.01, -0.02, height, theta_x, theta_y, turn)


def test_flags_read_every_sample_of_the_top_rung():
    """Poses whose 16 bottom-rung samples clear the plane by 29 um while one
    of their 64 samples comes within 1 nm either side of the contact
    clearance: flagged exactly where a sample of the 64 is inside it, as at
    the fixed n=64 rule, whichever rung they would stop on."""
    contour = CONTOURS["circle"]
    poses = [tilted_between_samples(m, turn) for m in (-1e-9, 1e-9) for turn in (0.0, 1.0, -2.5)]
    inside = []
    for pose in poses:
        assert _object_curve(contour, pose, 16)[0][:, 2].min() > MIN_SURFACE_CLEARANCE + 2e-5
        inside.append(_object_curve(contour, pose, 64)[0][:, 2].min() < MIN_SURFACE_CLEARANCE)
    assert inside == [True] * 3 + [False] * 3
    for dof in (0, 6):
        outputs = vf_batch(as_array(poses), SOURCE_RADIUS, contour, QuadratureSpec(64), dof=dof)
        with fixed_rule():
            fixed = vf_batch(as_array(poses), SOURCE_RADIUS, contour, QuadratureSpec(64), dof=dof)
        assert outputs[1].tolist() == fixed[1].tolist() == inside
        assert np.isnan(outputs[0]).tolist() == inside
        assert np.isfinite(outputs[0][3:]).all()
    bottom, flagged = vf_batch(as_array(poses), SOURCE_RADIUS, contour, QuadratureSpec(16))
    assert not flagged.any()


def row_position_poses():
    """19 poses, two AVX-512 widths of 8 rows and a tail of 3: Common poses
    high over the source and low enough to climb the n=64 ladder, Partial,
    Complete and near-contact poses, a Partial pose with a circle sample on
    the source axis, a coplanar pose, one below the plane and one flagged by
    a sample of the top rung only."""
    rng = np.random.default_rng(19)
    u = rng.uniform
    rows = []
    for _ in range(3):
        rows += [
            [*u(-0.1, 0.1, 2), u(0.05, 0.3), *u(-0.3, 0.3, 2), u(-3.0, 3.0)],
            [*u(-0.12, 0.12, 2), u(0.003, 0.02), 0.0, 0.0, 0.0],
            [*u(-0.08, 0.08, 2), u(0.01, 0.06), u(0.6, 1.5), u(-0.8, 0.8), u(-3.0, 3.0)],
            [*u(-0.1, 0.1, 2), u(0.01, 0.2), u(2.8, math.pi), 0.1, 0.5],
            [*u(-0.1, 0.1, 2), u(1e-7, 2e-3), *u(-0.05, 0.05, 2), 1.0],
        ]
    rows += [
        on_axis_poses()[-1].as_vector(),
        [0.02, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.01, -0.01, 0.2, 0.0, 0.0],
        tilted_between_samples(-1e-9).as_vector(),
    ]
    return np.array(rows)


@pytest.mark.parametrize("dof", [0, 3, 6])
@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("name", sorted(CONTOURS))
def test_bits_do_not_depend_on_the_row_or_the_array_layout(name, n, dof):
    """Each pose's arrays are one lane of planes whose inner axis is the
    batch's rows. Every pose of a 19-row batch passes through every row
    index (the batch rolled by 0-18 rows), and the batch is also passed
    Fortran-ordered and as a strided view: values, flags and gradients are
    bitwise those of each pose alone."""
    contour, spec = CONTOURS[name], QuadratureSpec(n)
    poses = row_position_poses()
    alone = [vf_batch(row[None, :], SOURCE_RADIUS, contour, spec, dof=dof) for row in poses]
    expected = [np.concatenate(a) for a in zip(*alone)]
    flagged = expected[1]
    assert flagged.any() and not flagged.all()
    wide = np.zeros((len(poses), 9))
    wide[:, 2:8] = poses
    for batch in (np.asfortranarray(poses), wide[:, 2:8]):
        assert_same_outputs(vf_batch(batch, SOURCE_RADIUS, contour, spec, dof=dof), expected)
    for shift in range(len(poses)):
        order = np.roll(np.arange(len(poses)), shift)
        outputs = vf_batch(poses[order], SOURCE_RADIUS, contour, spec, dof=dof)
        assert_same_outputs(outputs, [a[order] for a in expected])


#: sha256 of the circle's local points and tangents at the nodes of the n=64
#: ladder (16 samples and the midpoints of the rungs of 16 and 32), as cos
#: and sin round them here: correctly, checked against 200-bit references.
GOLDEN_NODES = "351fe60f59808f2dc6c602756423dd7aea56e2ad5ad6f0bb9d6db836fd39909c"
#: Zero-rotation Common poses, (p1, p2, p3) per row, and float.hex of F21 and
#: of its dof-3 gradient: at n=16, and at n=64 for poses that stop on 16,
#: 16, 16, 32, 32, 32, 64 and 64 samples. Any change in the order of a sum
#: over samples moves them.
GOLDEN_BITS = {
    16: (
        [[0.0, 0.0, 0.05], [0.01, -0.02, 0.03], [-0.04, 0.03, 0.08], [0.09, 0.0, 0.02],
         [0.0, 0.12, 0.1], [-0.07, -0.07, 0.015], [0.03, 0.05, 0.25], [0.105, -0.01, 0.04]],
        [
            ("0x1.981c02f062046p-1", "-0x1.fc7fe20f49b19p-49", "0x1.d1772291a82e3p-52", "-0x1.9c857b890ab9fp+2"),
            ("0x1.d0ed5a43fbaccp-1", "-0x1.525a4d37d2c41p-2", "0x1.525a4d37d2bfbp-1", "-0x1.602c7bafb0cb4p+2"),
            ("0x1.0fb85ff53ae7bp-1", "0x1.3d8b455dc4ac8p+1", "-0x1.dc50e80ca7030p+0", "-0x1.55778953b7725p+2"),
            ("0x1.4a73970acf732p-1", "-0x1.1dad591ac7d69p+4", "0x1.51bcbe4dcf80dp-50", "-0x1.23a55ae1c9c07p+3"),
            ("0x1.a9bb3fe6d08ebp-3", "-0x1.6de1ce29a0cb9p-50", "-0x1.96414c25d9498p+1", "-0x1.8617d89fb501bp-1"),
            ("0x1.ef38c8231084ep-2", "0x1.1cd3820963dffp+4", "0x1.1cd3820963e00p+4", "-0x1.a38d53df3ef9cp+1"),
            ("0x1.04274a89a8773p-3", "-0x1.69ce0a6bb8ba1p-3", "-0x1.2d8108af19eedp-2", "-0x1.a1895474cbd3cp-1"),
            ("0x1.5c59415854da7p-2", "-0x1.5340eea248155p+3", "0x1.027a9d6f5c6bep+0", "-0x1.9dea7d58bafc4p-1"),
        ],
    ),
    64: (
        [[0.1063, -0.1022, 0.2475], [0.0027, -0.0383, 0.1929], [0.1143, -0.0723, 0.1691],
         [0.0105, -0.0872, 0.1023], [0.0965, -0.0983, 0.0841], [-0.0167, 0.0445, 0.0162],
         [-0.0282, -0.0911, 0.0135], [0.0737, 0.0752, 0.0122]],
        [
            ("0x1.609e89734c627p-4", "-0x1.8324478a5812ap-2", "0x1.7435aa2b6b8dap-2", "-0x1.6d9f5f6976183p-2"),
            ("0x1.9b907c87ca35fp-3", "-0x1.25dd5d61ff962p-5", "0x1.0488678811641p-1", "-0x1.940557d708ed3p+0"),
            ("0x1.0d067f99e7636p-3", "-0x1.0984970d33202p+0", "0x1.4fe7921362f21p-1", "-0x1.193efba2fa4efp-1"),
            ("0x1.4092d0909c545p-2", "-0x1.9f4b41b7b8296p-2", "0x1.af1d5c9a2592dp+1", "-0x1.354a831099bb1p+1"),
            ("0x1.3ee318032f03fp-3", "-0x1.1513da2e36e15p+1", "0x1.1a3eeef69219cp+1", "0x1.c47aaa67da5acp-3"),
            ("0x1.e9dd7aaf59b78p-1", "0x1.741e33a1c2b6dp-2", "-0x1.efc9326550db9p-1", "-0x1.3f07399b5b55ep+2"),
            ("0x1.2b5493df82757p-1", "0x1.e928daf7cf99ap+2", "0x1.8b0e9cdf497abp+4", "-0x1.cf791399d9119p+2"),
            ("0x1.487465e2ce2c6p-2", "-0x1.1d26b50fd60dbp+4", "-0x1.22f46f1b9f032p+4", "0x1.e05ccf704ced5p+1"),
        ],
    ),
}


def test_golden_bits_pin_the_order_of_every_sum():
    """With zero rotations, cos 0 and sin 0 are exact, so only +, -, *, /
    and sqrt act on the contour's node tables: the bits are the same on any
    IEEE platform whose cos and sin round those nodes as here, and change
    with the order of any sum over samples, the ladder's every-other-sample
    estimate and the gradient sums included."""
    contour = CONTOURS["circle"]
    nodes = []
    for n, offset in ((16, 0.0), (16, 0.5), (32, 0.5)):
        t = (TWO_PI / n) * (np.arange(n) + offset)
        nodes += [contour.local_point(t), contour.local_tangent(t)]
    if hashlib.sha256(np.concatenate(nodes).tobytes()).hexdigest() != GOLDEN_NODES:
        pytest.skip("cos or sin round the contour's nodes differently on this platform")
    for n, (positions, bits) in GOLDEN_BITS.items():
        poses = np.concatenate([positions, np.zeros((len(positions), 3))], axis=1)
        values, flagged, grads = vf_batch(poses, SOURCE_RADIUS, contour, QuadratureSpec(n), dof=3)
        assert not flagged.any()
        got = [(v.hex(), *map(float.hex, g)) for v, g in zip(values.tolist(), grads.tolist())]
        assert got == bits
        if n == 64:
            assert kernel_rungs(poses, contour, n).tolist() == [16, 16, 16, 32, 32, 32, 64, 64]


def seeded_poses(rng, kind, lateral, heights, tilts_x, tilts_y, count=150):
    """`count` seeded poses of one occlusion class: lateral offsets within
    +-`lateral`, heights, tilts about x and y in the given ranges, any turn."""
    poses = []
    while len(poses) < count:
        pose = Pose(
            *rng.uniform(-lateral, lateral, 2), rng.uniform(*heights),
            rng.uniform(*tilts_x), rng.uniform(*tilts_y), rng.uniform(-math.pi, math.pi),
        )
        if isinstance(classify_occlusion(pose, SOURCE_RADIUS), kind):
            poses.append(pose)
    return poses


@pytest.mark.parametrize("name", sorted(CONTOURS))
def test_error_estimate_bounds_the_error_where_a_pose_stops_early(name):
    """Seeded Common poses 0.3-2 cm and 2-30 cm above the plane and Partial
    poses: wherever the n=64 ladder stops below its top rung, F21 is within
    REFINE_TOL of the n=1022 rule, a ladder of one rung (1022 is not a
    multiple of 4), so the reference takes no ladder code."""
    contour, rng = CONTOURS[name], np.random.default_rng(14)
    poses = as_array(
        seeded_poses(rng, Common, 0.15, (0.003, 0.02), (-0.05, 0.05), (-0.05, 0.05))
        + seeded_poses(rng, Common, 0.15, (0.02, 0.3), (-0.3, 0.3), (-0.3, 0.3))
        + seeded_poses(rng, Partial, 0.08, (0.01, 0.06), (0.6, 1.5), (-0.8, 0.8))
    )
    values, flagged = vf_batch(poses, SOURCE_RADIUS, contour, QuadratureSpec(64))
    assert _rungs(1022) == [1022]
    reference, _ = vf_batch(poses, SOURCE_RADIUS, contour, QuadratureSpec(1022))
    early = ~flagged & (kernel_rungs(poses, contour, 64) < 64)
    # 363 of 450 for the circle; 9 for the Fourier contour, whose bottom
    # estimate compares 16 samples with 8.
    assert np.count_nonzero(early) >= 5
    assert np.abs(values - reference)[early].max() <= REFINE_TOL


@pytest.mark.parametrize("name", sorted(CONTOURS))
def test_scalar_call_is_a_batch_of_one(name):
    contour, spec = CONTOURS[name], QuadratureSpec(16)
    poses = [Pose(0.01, 0.02, 0.05, 0.1, 0.2, 0.3), Pose(0.0, 0.0, 0.03, 1.0, 0.0, 0.0)]
    values, _ = vf_batch(as_array(poses), SOURCE_RADIUS, contour, spec)
    for pose, value in zip(poses, values):
        assert vf_general(pose, SOURCE_RADIUS, contour, spec).value == value


class TestDegeneracy:
    SPEC = QuadratureSpec(16)

    def test_coplanar_and_clearance_poses_flagged(self):
        poses = [
            Pose(0.02, 0.0, 0.0),  # coplanar with the source
            Pose(0.0, 0.0, MIN_SURFACE_CLEARANCE / 2),  # inside the clearance
            Pose(0.0, 0.0, 0.005, 1.2, 0.0, 0.0),  # tilted boundary dips below the plane
            Pose(0.0, 0.0, 0.05),
        ]
        values, degenerate, grads = vf_batch(
            as_array(poses), SOURCE_RADIUS, CONTOURS["circle"], self.SPEC, dof=6
        )
        assert degenerate.tolist() == [True, True, True, False]
        assert np.isnan(values[:3]).all() and 0.0 < values[3] < 1.0
        assert np.isnan(grads[:3]).all() and np.isfinite(grads[3]).all()
        for pose in poses[:3]:
            with pytest.raises(DegeneratePoseError):
                vf_general(pose, SOURCE_RADIUS, CONTOURS["circle"], self.SPEC)

    @given(pose=complete_poses)
    @settings(max_examples=30, deadline=None)
    def test_complete_gives_exact_zero(self, pose):
        assume(isinstance(classify_occlusion(pose, SOURCE_RADIUS), Complete))
        values, degenerate, grads = vf_batch(
            as_array([pose]), SOURCE_RADIUS, CONTOURS["fourier"], self.SPEC, dof=6
        )
        assert not degenerate[0]
        assert values[0] == 0.0 and not np.signbit(values[0])
        assert np.all(grads == 0.0) and not np.signbit(grads).any()

    def test_empty_batch(self):
        values, degenerate = vf_batch(np.zeros((0, 6)), SOURCE_RADIUS, CONTOURS["circle"], self.SPEC)
        assert values.shape == degenerate.shape == (0,)


class TestInputChecks:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", [0, 2, 4])
    def test_non_finite_coordinate_rejected(self, bad, column):
        poses = np.array([[0.0, 0.0, 0.05, 0.0, 0.0, 0.0]] * 2)
        poses[1, column] = bad
        with pytest.raises(ValueError):
            vf_batch(poses, SOURCE_RADIUS, CONTOURS["circle"], QuadratureSpec(16))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("radius", [math.inf, math.nan, -0.1])
    @pytest.mark.parametrize("dof", [0, 3])
    def test_source_radius_must_be_finite_and_positive(self, radius, dof):
        pose = np.array([[0.0, 0.0, 0.05, 0.0, 0.0, 0.0]])
        message = f"source_radius must be finite and positive, got {radius}"
        with pytest.raises(ValueError, match=re.escape(message)):
            vf_batch(pose, radius, CONTOURS["circle"], QuadratureSpec(16), dof=dof)

    def test_shape_and_radius_rejected(self):
        with pytest.raises(ValueError):
            vf_batch(np.zeros((2, 3)), SOURCE_RADIUS, CONTOURS["circle"])
        with pytest.raises(ValueError):
            vf_batch(np.array([[0, 0, 0.05, 0, 0, 0]]), 0.0, CONTOURS["circle"])
        with pytest.raises(ValueError):
            vf_batch(np.array([[0, 0, 0.05, 0, 0, 0]]), SOURCE_RADIUS, CONTOURS["circle"], dof=2)


# ---------------------------------------------------------------------------
# Contour groups: one call for K contours, each pose as in a single-contour call
# ---------------------------------------------------------------------------

GROUP_CONTOURS = (CONTOURS["circle"], CONTOURS["fourier"], CircleContour(0.02))


@st.composite
def pose_groups(draw):
    """(contours, n, poses): a mixed group of K contours and G * K poses,
    row r belonging to contour r % K."""
    members = draw(st.lists(st.sampled_from(range(len(GROUP_CONTOURS))), min_size=1, max_size=4))
    n = draw(st.sampled_from((16, 64)))
    rows = draw(st.integers(1, 4)) * len(members)
    poses = draw(st.lists(any_pose, min_size=rows, max_size=rows))
    return tuple(GROUP_CONTOURS[m] for m in members), n, as_array(poses)


def assert_group_matches_single_calls(contours, n, poses, dof):
    spec = QuadratureSpec(n)
    outputs = vf_batch(poses, SOURCE_RADIUS, contours, spec, dof=dof)
    k_obj = len(contours)
    for k, contour in enumerate(contours):
        alone = vf_batch(poses[k::k_obj], SOURCE_RADIUS, contour, spec, dof=dof)
        assert_same_outputs([a[k::k_obj] for a in outputs], alone)


@given(group=pose_groups(), dof=dofs)
@settings(max_examples=60, deadline=None)
def test_group_matches_single_contour_calls_bitwise(group, dof):
    assert_group_matches_single_calls(*group, dof)


@given(group=pose_groups(), dof=dofs, slack=st.sampled_from((-1, 0, 1)))
@settings(max_examples=30, deadline=None)
def test_group_matches_single_contour_calls_when_a_group_barely_fits_a_block(group, dof, slack):
    contours, n, poses = group
    # One group's bottom-rung samples, give or take one: blocks of one
    # group each, and a budget too small for one group, which still takes
    # whole groups.
    samples = len(contours) * _rungs(n)[0] + slack
    with block_budget(samples):
        assert_group_matches_single_calls(contours, n, poses, dof)


def test_group_rejects_rows_not_a_multiple_of_its_size():
    poses = np.array([[0.0, 0.0, 0.05, 0.0, 0.0, 0.0]] * 4)
    with pytest.raises(ValueError):
        vf_batch(poses, SOURCE_RADIUS, GROUP_CONTOURS, QuadratureSpec(16))
    with pytest.raises(ValueError):
        vf_batch(poses, SOURCE_RADIUS, (), QuadratureSpec(16))


def test_equal_contours_share_one_cache_entry(monkeypatch):
    monkeypatch.setattr(viewfactor_module, "_NODE_CACHE", {})
    poses = np.array([[0.0, 0.0, 0.05, 0.0, 0.0, 0.0]] * 2)
    spec = QuadratureSpec(16)
    first = vf_batch(poses, SOURCE_RADIUS, (CircleContour(0.015), CONTOURS["fourier"]), spec)
    entries = len(viewfactor_module._NODE_CACHE)
    twin = fourier_fit(star_polyline(0.018, BUNNY_BUMPS), 5)
    assert twin is not CONTOURS["fourier"]
    second = vf_batch(poses, SOURCE_RADIUS, (CircleContour(0.015), twin), spec)
    assert len(viewfactor_module._NODE_CACHE) == entries
    assert first[0].tobytes() == second[0].tobytes()


# ---------------------------------------------------------------------------
# Zero-rotation blocks: posed by adds, against the general path
# ---------------------------------------------------------------------------


def general_path():
    """Every block takes the general path: rotation_planes, the occlusion
    test and the height minima, whatever its angles."""
    return mock.patch.object(viewfactor_module, "_frames", rotation_planes)


signed_zero = st.sampled_from((0.0, -0.0))
#: Heights that reach every flag of a zero-rotation pose: the source plane
#: (either zero), inside and just outside the coplanar band, below the
#: plane (Complete), at and around the contact clearance, near contact
#: (climbing to n=64) and well clear of it.
zero_rotation_heights = st.one_of(
    st.sampled_from(
        (
            0.0, -0.0, 5e-13, -5e-13, 1e-12, -1e-12, MIN_SURFACE_CLEARANCE,
            math.nextafter(MIN_SURFACE_CLEARANCE, 0.0), math.nextafter(MIN_SURFACE_CLEARANCE, 1.0),
        )
    ),
    st.floats(-0.05, -1e-9),
    st.floats(1e-7, 2e-3),
    st.floats(0.003, 0.3),
)
#: Lateral offsets, with signed zeros and the circle's own radius, which put
#: a sample on x = 0 or y = 0.
zero_rotation_laterals = st.one_of(signed_zero, st.sampled_from((0.015, -0.015)), lateral)
zero_rotation_poses = st.tuples(
    zero_rotation_laterals, zero_rotation_laterals, zero_rotation_heights,
    signed_zero, signed_zero, signed_zero,
)


@st.composite
def zero_rotation_batches(draw):
    """(contours, n, poses, samples): a group of K = 1 to 3 contours, G * K
    zero-rotation poses and a block budget of one to three groups, so that
    the batch spans several blocks."""
    contours = tuple(
        draw(st.lists(st.sampled_from(GROUP_CONTOURS), min_size=1, max_size=3))
    )
    n = draw(st.sampled_from((16, 64)))
    rows = draw(st.integers(1, 8)) * len(contours)
    poses = np.array(draw(st.lists(zero_rotation_poses, min_size=rows, max_size=rows)))
    samples = draw(st.integers(1, 3 * len(contours) * _rungs(n)[0]))
    return contours, n, poses, samples


@given(batch=zero_rotation_batches(), dof=dofs)
@settings(max_examples=120, deadline=None)
def test_zero_rotation_blocks_match_the_general_path_bitwise(batch, dof):
    """Values, flags and gradients of zero-rotation poses, in one block and
    over several, are bitwise those of the general path called directly."""
    contours, n, poses, samples = batch
    spec = QuadratureSpec(n)
    outputs = vf_batch(poses, SOURCE_RADIUS, contours, spec, dof=dof)
    with general_path():
        assert_same_outputs(outputs, vf_batch(poses, SOURCE_RADIUS, contours, spec, dof=dof))
    with block_budget(samples):
        split = vf_batch(poses, SOURCE_RADIUS, contours, spec, dof=dof)
        with general_path():
            assert_same_outputs(split, vf_batch(poses, SOURCE_RADIUS, contours, spec, dof=dof))
    assert_same_outputs(outputs, split)


@given(batch=zero_rotation_batches(), dof=dofs, data=st.data())
@settings(max_examples=60, deadline=None)
def test_a_tiny_angle_sends_its_block_to_the_general_path(batch, dof, data):
    """One pose turned by a tiny angle takes its block off the zero-rotation
    path; every row, that block's and the others', keeps the general path's
    bits, and the zero-rotation rows keep those of a batch without it."""
    contours, n, poses, samples = batch
    spec = QuadratureSpec(n)
    row = data.draw(st.integers(0, len(poses) - 1), label="row")
    axis = data.draw(st.integers(3, 5), label="axis")
    turn = data.draw(st.sampled_from((5e-324, -1e-300, 1e-12, -1e-9, 0.3)), label="turn")
    mixed = poses.copy()
    mixed[row, axis] = turn
    zero = np.ones(len(poses), dtype=bool)
    zero[row] = False
    with block_budget(samples):
        outputs = vf_batch(mixed, SOURCE_RADIUS, contours, spec, dof=dof)
        with general_path():
            assert_same_outputs(outputs, vf_batch(mixed, SOURCE_RADIUS, contours, spec, dof=dof))
    unturned = vf_batch(poses, SOURCE_RADIUS, contours, spec, dof=dof)
    assert_same_outputs([a[zero] for a in outputs], [a[zero] for a in unturned])


def test_zero_rotation_callers_skip_the_rotation(bench_env, aluminum_lambdas, monkeypatch):
    """The feasibility search and the translation grid pose every block by
    adds: rotation_planes, patched to raise, is never called. The grid's
    values are those of the general path."""
    grid = GridSpec(ranges=((-4.0, 4.0), (-4.0, 4.0), (0.0, 8.0)), step=2.0)
    with general_path():
        general = isosurface_grid(SOURCE_RADIUS, CONTOURS["fourier"], "translation", grid)

    def no_rotation(angles):
        raise AssertionError("a zero-rotation block built rotation planes")

    monkeypatch.setattr(viewfactor_module, "rotation_planes", no_rotation)
    field = isosurface_grid(SOURCE_RADIUS, CONTOURS["fourier"], "translation", grid)
    assert field.n_cells <= 256  # one serial call: the patch reaches it
    assert field.degenerate[:, :, 0].all() and not field.degenerate[:, :, 1:].any()
    assert field.values.tobytes() == general.values.tobytes()
    report = pairwise_feasibility(
        [celsius_to_kelvin(30.0)] * 2,
        [(0.02, 0.0, 0.0), (-0.02, 0.0, 0.01)],
        [(CircleContour(0.015), aluminum_lambdas), (CONTOURS["fourier"], aluminum_lambdas)],
        SOURCE_RADIUS, bench_env, grid, QuadratureSpec(16),
    )
    assert report.witness is not None


# ---------------------------------------------------------------------------
# Gradient: from the kernel's own arrays, against central differences
# ---------------------------------------------------------------------------

def reference_gradient(pose, contour, n):
    """Fourth-order central differences of F21 at the n-sample rule with
    the source curves of `pose` held fixed: of vf_batch itself for a Common
    pose, of the per-pose contour integral over the pose's own arc and chord
    for a Partial one. None if a perturbed pose is degenerate or, for a
    Common pose, not Common.

    The steps are 1% of the scales on which the integrand varies: the
    least distance of the object samples from the source curves for a
    translation, and that over the object's reach, at most 1 rad, for a
    rotation. Truncation ~ (h/s)^4 then stays far below the rounding of the
    sum, which a smaller step would amplify.
    """
    arc = reference_arc(pose, SOURCE_RADIUS)
    points = _object_curve(contour, pose, n)[0]
    s_min = source_curve_distance(points, arc, SOURCE_RADIUS)
    reach = np.linalg.norm(points - pose.translation, axis=1).max()
    steps = 1e-2 * np.array([s_min] * 3 + [min(s_min / reach, 1.0)] * 3)
    stencil = pose.as_vector() + np.concatenate([k * np.diag(steps) for k in (2, 1, -1, -2)])
    if arc == "common":
        with fixed_rule():
            values, degenerate = vf_batch(stencil, SOURCE_RADIUS, contour, QuadratureSpec(n))
        if degenerate.any() or any(
            reference_arc(Pose(*x), SOURCE_RADIUS) != "common" for x in stencil
        ):
            return None
    else:
        try:
            values = np.array(
                [
                    reference_value(Pose(*x), SOURCE_RADIUS, contour, n, arc, GRADIENT_INTERVALS)
                    for x in stencil
                ]
            )
        except DegeneratePoseError:
            return None
    f2, f1, b1, b2 = values.reshape(4, 6)
    return (b2 - 8.0 * b1 + 8.0 * f1 - f2) / (12.0 * steps)


@given(case=cases, pose=any_pose)
@settings(max_examples=150, deadline=None)
def test_gradient_matches_central_differences(case, pose):
    """All six components on Common, Partial, Complete and near-contact
    poses, against central differences at the rung the pose stops on (by
    the rung rule on the reference's own sums; poses whose estimate lies
    within rounding of REFINE_TOL are skipped): exact +0 for Complete, NaN
    for degenerate poses. Partial poses with a sample within 1 mm of the arc
    or chord, where the fixed Simpson reference has not converged, are
    checked for a finite gradient only."""
    name, n = case
    contour = CONTOURS[name]
    assume(not borderline(pose, SOURCE_RADIUS, contour, n))
    _, degenerate, grads = vf_batch(
        as_array([pose]), SOURCE_RADIUS, contour, QuadratureSpec(n), dof=6
    )
    if degenerate[0]:
        assert np.isnan(grads).all()
        return
    arc = reference_arc(pose, SOURCE_RADIUS)
    points = _object_curve(contour, pose, n)[0]
    if arc == "complete":
        assert np.all(grads == 0.0) and not np.signbit(grads).any()
    elif arc != "common" and source_curve_distance(points, arc, SOURCE_RADIUS) < 1e-3:
        event("partial within 1 mm of the source curves: finite, not compared")
        assert np.isfinite(grads).all()
    else:
        rungs = rungs_within(reference_ladder(pose, contour, n, arc)[0], n, 2e-12)
        assume(len(rungs) == 1)
        expected = reference_gradient(pose, contour, rungs[0])
        assume(expected is not None)
        event(f"{arc == 'common' and 'common' or 'partial'} on rung {rungs[0]} of n={n}")
        assert np.abs(grads[0] - expected).max() <= 1e-6 * np.abs(expected).max()


@pytest.mark.parametrize("name", sorted(CONTOURS))
def test_gradient_matches_per_component_differences(name):
    contour, spec = CONTOURS[name], QuadratureSpec(16)
    # A Common and a Partial pose.
    for pose in (Pose(0.01, -0.02, 0.05, 0.2, -0.1, 0.4), Pose(0.0, 0.0, 0.03, 1.0, 0.0, 0.0)):
        grad = view_factor_gradient(pose, SOURCE_RADIUS, contour, spec)
        expected = reference_gradient(pose, contour, 16)
        assert np.abs(grad - expected).max() <= 1e-6 * np.abs(expected).max()


@pytest.mark.parametrize("name", sorted(CONTOURS))
def test_partial_gradient_is_the_derivative_of_f21(name):
    """Holding a Partial pose's arc and chord fixed drops no term: at the
    n = 256 rule, where quadrature error is small, the gradient agrees with
    central differences of vf_batch, whose arc and chord follow the pose."""
    contour, spec = CONTOURS[name], QuadratureSpec(256)
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 6:
        pose = Pose(
            *rng.uniform(-0.08, 0.08, 2), rng.uniform(0.01, 0.06),
            rng.uniform(0.6, 1.5), rng.uniform(-0.8, 0.8), rng.uniform(-math.pi, math.pi),
        )
        with fixed_rule():
            _, degenerate, grads = vf_batch(as_array([pose]), SOURCE_RADIUS, contour, spec, dof=6)
        if not isinstance(classify_occlusion(pose, SOURCE_RADIUS), Partial) or degenerate[0]:
            continue
        h = 1e-6
        stencil = pose.as_vector() + np.concatenate([h * np.eye(6), -h * np.eye(6)])
        with fixed_rule():
            values, _ = vf_batch(stencil, SOURCE_RADIUS, contour, spec)
        expected = (values[:6] - values[6:]) / (2 * h)
        assert np.abs(grads[0] - expected).max() <= 1e-4 * np.abs(expected).max()
        checked += 1


def test_translation_gradient_is_the_dof3_kernel_row():
    """The benchmark's call form, translation components with a base value:
    bitwise the kernel's dof=3 row, zeros in the other components."""
    spec = QuadratureSpec(16)
    for contour in CONTOURS.values():
        pose = Pose(0.01, -0.02, 0.05, 0.2, -0.1, 0.4)
        values, _, grads = vf_batch(as_array([pose]), SOURCE_RADIUS, contour, spec, dof=3)
        grad = view_factor_gradient(
            pose, SOURCE_RADIUS, contour, spec, indices=(0, 1, 2), base_value=values[0]
        )
        assert grad[:3].tobytes() == grads[0].tobytes()
        assert np.array_equal(grad[3:], np.zeros(3))
        some = view_factor_gradient(pose, SOURCE_RADIUS, contour, spec, indices=(2, 4))
        full = vf_batch(as_array([pose]), SOURCE_RADIUS, contour, spec, dof=6)[2][0]
        assert some[[2, 4]].tobytes() == full[[2, 4]].tobytes()
        assert np.array_equal(some[[0, 1, 3, 5]], np.zeros(4))


def tilted_near_contact(margin):
    """Circle tilted by 0.5 rad about x whose lowest object sample sits
    `margin` above the contact clearance; tilting further lowers it."""
    return Pose(0.0, 0.0, 0.015 * math.sin(0.5) + MIN_SURFACE_CLEARANCE + margin, 0.5, 0.0, 0.0)


def test_near_contact_gradient_needs_no_perturbed_pose():
    """0.3 um above the contact clearance, where a tilt by 5e-5 rad either
    way would touch the source, the gradient is finite; only a degenerate
    pose raises."""
    contour, spec = CONTOURS["circle"], QuadratureSpec(16)
    level = Pose(0.0, 0.0, MIN_SURFACE_CLEARANCE + 3e-7)
    grad = view_factor_gradient(level, SOURCE_RADIUS, contour, spec)
    assert np.isfinite(grad).all() and grad[2] < 0.0
    tilted = view_factor_gradient(tilted_near_contact(3e-7), SOURCE_RADIUS, contour, spec)
    assert np.isfinite(tilted).all()
    with pytest.raises(DegeneratePoseError):
        view_factor_gradient(Pose(0.0, 0.0, 0.0), SOURCE_RADIUS, contour, spec)


@pytest.mark.parametrize("with_base", [False, True])
def test_batched_gradients_equal_stacked_single_gradients(with_base):
    spec = QuadratureSpec(16)
    objects = [
        (Pose(0.01, -0.02, 0.05, 0.2, -0.1, 0.4), CONTOURS["circle"]),
        (tilted_near_contact(3e-7), CONTOURS["circle"]),
        (Pose(0.0, 0.0, 0.03, 1.0, 0.0, 0.0), CONTOURS["fourier"]),
    ]
    poses = as_array([pose for pose, _ in objects])
    contours = tuple(contour for _, contour in objects)
    values, _, batched = vf_batch(poses, SOURCE_RADIUS, contours, spec, dof=6)
    stacked = np.array([
        view_factor_gradient(
            pose, SOURCE_RADIUS, c, spec, base_value=base if with_base else None
        )
        for (pose, c), base in zip(objects, values)
    ])
    assert batched.tobytes() == stacked.tobytes()


# ---------------------------------------------------------------------------
# Feasibility search against a per-pose loop
# ---------------------------------------------------------------------------


def per_pose_search(targets, displacements, objects, grid, spec):
    """The base sweep of pairwise_feasibility, one pose at a time."""
    best = (math.inf, None, ())
    delta_min, delta_max = math.inf, -math.inf
    for a in grid.axis_values(0):
        for b in grid.axis_values(1):
            for c in grid.axis_values(2):
                base = np.array([a, b, c]) * 1e-2
                tv0 = []
                try:
                    for disp, (contour, lam) in zip(displacements, objects):
                        p = base + np.asarray(disp)
                        pose = Pose(*p).as_vector()[None]
                        values, degenerate = vf_batch(pose, SOURCE_RADIUS, contour, spec)
                        if degenerate[0]:
                            raise DegeneratePoseError("touches the source")
                        f = values[0]
                        tv0.append(steady_state_temperature(min(max(f, 0.0), 1.0 - 1e-12), lam))
                except DegeneratePoseError:
                    continue
                delta_min = min(delta_min, tv0[0] - tv0[1])
                delta_max = max(delta_max, tv0[0] - tv0[1])
                residual = max(abs(t - ts) for t, ts in zip(tv0, targets))
                if residual < best[0]:
                    best = (residual, Pose(*base), tuple(tv0))
    return best, (delta_min, delta_max)


@pytest.mark.parametrize("chunk", [feasibility_module.SEARCH_CHUNK, 7])
def test_feasibility_matches_per_pose_loop(bench_env, aluminum_lambdas, printed_sheet, chunk):
    objects = [
        (CircleContour(0.015), aluminum_lambdas),
        (CONTOURS["fourier"], lambdas(printed_sheet, bench_env)),
    ]
    # Object 1 sits 1 cm below the end effector: the p3 = 1 cm layer puts it
    # on the source plane, so those whole poses are skipped.
    displacements = [(0.02, 0.0, -0.01), (-0.02, 0.01, 0.0)]
    grid = GridSpec(ranges=((-4.0, 4.5), (-2.0, 2.5), (1.0, 7.5)), step=1.5)
    targets = [celsius_to_kelvin(30.0), celsius_to_kelvin(45.0)]
    spec = QuadratureSpec(16)
    with mock.patch.object(feasibility_module, "SEARCH_CHUNK", chunk), mock.patch.object(
        feasibility_module, "SEARCH_REFINE_LEVELS", 0
    ):
        report = pairwise_feasibility(
            targets, displacements, objects, SOURCE_RADIUS, bench_env, grid, spec
        )
    (residual, witness, tv0), delta_range = per_pose_search(
        targets, displacements, objects, grid, spec
    )
    assert report.witness == witness
    assert report.residual == pytest.approx(residual, rel=1e-12)
    assert report.steady_states == pytest.approx(tv0, rel=1e-12)
    assert report.delta_range == pytest.approx(delta_range, rel=1e-12)


def test_feasibility_skips_pose_when_any_object_degenerate(bench_env, aluminum_lambdas):
    contour = CircleContour(0.015)
    grid = GridSpec(ranges=((0.0, 0.5), (0.0, 0.5), (1.0, 3.5)), step=1.0)
    with mock.patch.object(feasibility_module, "SEARCH_REFINE_LEVELS", 0):
        report = pairwise_feasibility(
            [celsius_to_kelvin(30.0)] * 2,
            [(0.0, 0.0, -0.01), (0.0, 0.0, 0.0)],
            [(contour, aluminum_lambdas)] * 2,
            SOURCE_RADIUS, bench_env, grid, QuadratureSpec(16),
        )
    # Only the p3 = 2 and 3 cm poses count; object 1 touches the source at 1 cm.
    assert report.witness.p3 in (0.02, 0.03)


# ---------------------------------------------------------------------------
# Simulator: view-factor evaluations per tick
# ---------------------------------------------------------------------------


def sheet_scenario(n_objects, schedule=None, duration=40.0):
    sheet = ThermoParams.from_disk(0.90, 0.90, 1800.0, 1250.0, 0.015, 0.001)
    arms = [np.array([0.03 * math.cos(a), 0.03 * math.sin(a), 0.0]) for a in (0.0, 2.1, 4.2)]
    objects = tuple(
        ObjectSpec(f"sheet{i}", CircleContour(0.015), sheet, arms[i], celsius_to_kelvin(23.0))
        for i in range(n_objects)
    )
    return Scenario(
        environment=Environment(celsius_to_kelvin(200.0), 0.25, celsius_to_kelvin(23.0)),
        source_radius=SOURCE_RADIUS,
        objects=objects,
        targets=(celsius_to_kelvin(40.0),) * n_objects,
        controller="model_based",
        limits=VelocityLimits(0.005, 0.2),
        initial_pose=Pose(0.0, 0.0, 0.08),
        sensor=SensorSpec(0.1, 3),
        duration=duration,
        workspace=Workspace(((-0.3, 0.3), (-0.3, 0.3), (0.005, 0.4))),
        quadrature=QuadratureSpec(16),
        source_schedule=schedule,
    )


def poses_per_call(monkeypatch, scenario):
    """Poses in each kernel call of a run, and the (start, end) view
    factors each plant call saw for object 1."""
    sizes, ends = [], []

    def counting(poses, *args, **kwargs):
        sizes.append(len(poses))
        return vf_batch(poses, *args, **kwargs)

    integrate = simulator_module.integrate_period

    def plant(temps, f_start, f_end, *args):
        ends.append((f_start[0], f_end[0]))
        return integrate(temps, f_start, f_end, *args)

    monkeypatch.setattr(simulator_module, "vf_batch", counting)
    monkeypatch.setattr(simulator_module, "integrate_period", plant)
    log = run_simulation(scenario)
    return np.array(sizes), ends, log


def assert_logged_view_factors_are_fresh(log, scenario):
    """The value carried over from the plant step is exactly a fresh
    evaluation at the logged pose and time."""
    poses = np.stack([log.column(c) for c in ("p1_m", "p2_m", "p3_m")], axis=1)
    schedule = scenario.source_schedule
    for i, obj in enumerate(scenario.objects):
        fresh = [
            vf_batch(
                Pose(*(p + obj.displacement - (schedule.position(t) if schedule else 0.0)))
                .as_vector()[None],
                SOURCE_RADIUS,
                obj.contour,
                scenario.quadrature,
            )[0][0]
            for p, t in zip(poses, log.column("time_s"))
        ]
        assert np.array_equal(log.column(f"F21_{i + 1}"), fresh)


@pytest.mark.parametrize("n_objects", [1, 3])
def test_static_source_evaluates_one_per_object_per_tick(monkeypatch, n_objects):
    """Kernel call 0 evaluates the start pose and call j the plant step of
    tick j - 1, gradients included: one pose per object per call."""
    scenario = sheet_scenario(n_objects)
    per_call, _, log = poses_per_call(monkeypatch, scenario)
    assert len(per_call) == scenario.n_ticks + 1
    assert np.all(per_call == n_objects)
    assert_logged_view_factors_are_fresh(log, scenario)


def test_simulator_default_takes_one_rung(monkeypatch):
    """At the simulator's n=16 the ladder has one rung: a run requests no
    midpoint node set, where one n=64 call requests both of its own."""
    requests = []
    object_nodes = viewfactor_module._object_nodes

    def recording(contours, n, midpoints=False):
        requests.append((n, midpoints))
        return object_nodes(contours, n, midpoints)

    monkeypatch.setattr(viewfactor_module, "_object_nodes", recording)
    log = run_simulation(sheet_scenario(3, duration=10.0))
    assert log.termination == "completed"
    assert requests and set(requests) == {(16, False)}
    requests.clear()
    vf_batch(np.array([[0.0, 0.0, 0.05, 0.0, 0.0, 0.0]]), SOURCE_RADIUS, CONTOURS["circle"])
    assert sorted(set(requests)) == [(16, False), (16, True), (32, True)]


def test_moving_source_evaluates_both_plant_ends(monkeypatch):
    schedule = SourceSchedule(
        times=np.array([0.0, 40.0]), centers=np.array([[0.0, 0.0, 0.0], [0.02, 0.0, 0.0]])
    )
    scenario = sheet_scenario(3, schedule)
    per_call, ends, log = poses_per_call(monkeypatch, scenario)
    assert len(per_call) == scenario.n_ticks + 1
    assert per_call[0] == 3 and np.all(per_call[1:] == 2 * 3)
    assert len(ends) == scenario.n_ticks
    assert all(start != end for start, end in ends)
    assert_logged_view_factors_are_fresh(log, scenario)


def kernel_calls_per_tick(monkeypatch, scenario):
    """Kernel calls between consecutive plant calls, and all kernel calls of
    the run."""
    calls, marks = [0], []

    def counting(*args, **kwargs):
        calls[0] += 1
        return vf_batch(*args, **kwargs)

    integrate = simulator_module.integrate_period

    def plant(*args):
        marks.append(calls[0])
        return integrate(*args)

    monkeypatch.setattr(simulator_module, "vf_batch", counting)
    monkeypatch.setattr(simulator_module, "integrate_period", plant)
    run_simulation(scenario)
    return np.diff(marks), calls[0]


MOVING_SCHEDULE = SourceSchedule(
    times=np.array([0.0, 40.0]), centers=np.array([[0.0, 0.0, 0.0], [0.02, 0.0, 0.0]])
)


@pytest.mark.parametrize("moving", [False, True])
@pytest.mark.parametrize("n_objects", [1, 3])
def test_one_gradient_and_one_plant_call_per_tick(monkeypatch, n_objects, moving):
    """The plant ends and the next tick's gradient come from one kernel
    call: exactly one call per tick, whatever the object count."""
    scenario = sheet_scenario(n_objects, MOVING_SCHEDULE if moving else None)
    per_tick, total = kernel_calls_per_tick(monkeypatch, scenario)
    assert len(per_tick) == scenario.n_ticks - 1
    assert np.all(per_tick == 1)
    assert total == scenario.n_ticks + 1


@pytest.mark.parametrize("moving", [False, True])
def test_degenerate_pose_names_the_object_that_touches(moving):
    """Object 2 alone reaches the source plane; the run ends with the
    degenerate_pose reason naming it and keeps the ticks it finished."""
    scenario = sheet_scenario(3)
    # The end effector starts 8 cm above the source. Object 2 hangs 1 cm
    # below the others and meets the rising source at 7 s, or 8 cm below
    # them and touches the static source from the start.
    drop = 0.01 if moving else 0.08
    schedule = SourceSchedule(
        times=np.array([0.0, 10.0]), centers=np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.1]])
    )
    objects = list(scenario.objects)
    lowered = objects[1].displacement - [0.0, 0.0, drop]
    objects[1] = dataclasses.replace(objects[1], displacement=lowered)
    scenario = dataclasses.replace(
        scenario, objects=tuple(objects), source_schedule=schedule if moving else None
    )
    log = run_simulation(scenario)
    assert log.termination == "degenerate_pose"
    assert log.detail.startswith("object 2 touches")
    assert not log.violation
    # The plant step from 6 s to 7 s ends at the contact; ticks 0-6 are kept.
    assert len(log.rows) == (7 if moving else 0)
    if moving:
        full = run_simulation(dataclasses.replace(scenario, duration=6.0))
        assert np.array_equal(log.rows, full.rows, equal_nan=True)


# ---------------------------------------------------------------------------
# Simulator: the carried gradients against a fresh kernel call
# ---------------------------------------------------------------------------


def received_gradients(monkeypatch, scenario):
    """The matrix each control-law call received, in tick order."""
    received = []
    for name in ("adaptive_control", "model_based_control"):
        law = getattr(simulator_module, name)

        def recording(matrix, *args, law=law):
            received.append(matrix.copy())
            return law(matrix, *args)

        monkeypatch.setattr(simulator_module, name, recording)
    return received


POSE_COLUMNS = ("p1_m", "p2_m", "p3_m", "theta_x", "theta_y", "theta_z")


def fresh_matrix(log, scenario, tick):
    """`vf_batch(..., dof=scenario.dof)` gradients at the logged pose and
    time of `tick`, scaled as the scenario's control law receives them."""
    x = np.array([log.column(c)[tick] for c in POSE_COLUMNS])
    offsets = np.zeros((scenario.n_objects, 6))
    offsets[:, :3] = [o.displacement for o in scenario.objects]
    src = np.zeros(6)
    if scenario.source_schedule is not None:
        src[:3] = scenario.source_schedule.position(log.column("time_s")[tick])
    contours = tuple(o.contour for o in scenario.objects)
    _, _, grads = vf_batch(
        x + offsets - src, SOURCE_RADIUS, contours, scenario.quadrature, dof=scenario.dof
    )
    if scenario.controller == "adaptive":
        return grads
    env = scenario.environment
    lambda1s = np.array([lambdas(o.material, env).lambda1 for o in scenario.objects])
    return lambda1s[:, None] * grads


@pytest.mark.parametrize("controller", ["model_based", "adaptive"])
@pytest.mark.parametrize("moving", [False, True])
@pytest.mark.parametrize("n_objects", [1, 3])
def test_carried_gradients_equal_view_factor_gradients(monkeypatch, n_objects, moving, controller):
    """The gradient each control law receives, carried from the previous
    plant step's kernel call, is bitwise a fresh call at the logged pose.
    The adaptive run starts at the aluminum reference disk's a1 and a2."""
    scenario = sheet_scenario(n_objects, MOVING_SCHEDULE if moving else None)
    aluminum = ThermoParams.from_disk(0.04, 0.04, 903.0, 2702.0, 0.015, 0.003)
    ref = lambdas(aluminum, scenario.environment)
    start = AdaptiveInit(a1_center=1.0 / ref.lambda1, a2_center=ref.lambda2 / ref.lambda1)
    scenario = dataclasses.replace(scenario, controller=controller, adaptive_init=start)
    received = received_gradients(monkeypatch, scenario)
    log = run_simulation(scenario)
    assert log.termination == "completed"
    ticks = range(9, len(log.rows))
    assert len(received) == len(ticks)
    for tick, matrix in zip(ticks, received):
        assert matrix.tobytes() == fresh_matrix(log, scenario, tick).tobytes()


def test_thermal_divergence_keeps_the_finished_ticks(monkeypatch):
    """A plant step that diverges ends the run with thermal_divergence; the
    log keeps every tick up to and including the diverging step's tick."""
    scenario = sheet_scenario(1)
    integrate = simulator_module.integrate_period
    calls = [0]

    def stiff_at_tick_12(temps, f_start, f_end, lams, t0, period, max_steps):
        # From tick 12 on every step is far beyond RK4's stability limit.
        calls[0] += 1
        scale = 1e6 if calls[0] > 12 else 1.0
        return integrate(temps, f_start, f_end, lams, t0, period * scale, max_steps)

    monkeypatch.setattr(simulator_module, "integrate_period", stiff_at_tick_12)
    log = run_simulation(scenario)
    assert calls[0] == 13
    assert log.termination == "thermal_divergence"
    assert "temperature diverged" in log.detail
    assert not log.violation
    assert len(log.rows) == 13
    monkeypatch.setattr(simulator_module, "integrate_period", integrate)
    full = run_simulation(scenario)
    assert np.array_equal(log.rows, full.rows[:13], equal_nan=True)
