"""The batched view-factor kernel against a per-pose contour integral and
the coaxial closed form, its gradients against central differences,
contour groups against single-contour calls, plus the batched callers:
feasibility search and the simulator's evaluation and kernel-call
counts."""
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, find, given, settings
from hypothesis import strategies as st

from thermoservo import (
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
from thermoservo.geometry import MIN_SURFACE_CLEARANCE, TWO_PI, fourier_fit
from thermoservo.units import celsius_to_kelvin
from thermoservo.viewfactor import MIN_KERNEL_DISTANCE, vf_batch

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
    """Per object node, the source curve's quadrature of ln(s) (ds_src . t_obj)."""
    pts1, tans1, w1 = source_curve
    pts2, tans2, _ = obj_curve
    diff = pts2[None, :, :] - pts1[:, None, :]
    s = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.maximum(s, MIN_KERNEL_DISTANCE, out=s)
    return w1 @ (np.log(s) * (tans1 @ tans2.T))


def reference_integrand(pose, source_radius, contour, n, arc=None):
    """Per-pose contour integral as (w, g), F21 = w @ g: the object's
    n-node periodic trapezoid weights and, per object node, the source side
    over -2 pi A2. Raises DegeneratePoseError. The source side is a
    TRAPEZOID_NODES periodic trapezoid rule on the full circle of a Common
    pose, the n-interval Simpson rule on the arc and chord of a Partial one.
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
        g = _source_integral(_circle_arc_curve(source_radius, lo, hi, n), obj_curve)
        g += _source_integral(_chord_curve(arc_end, arc_start, n), obj_curve)
    return obj_curve[2], g / -(TWO_PI * contour.area)


def reference_value(pose, source_radius, contour, n, arc=None):
    """F21 of reference_integrand."""
    w, g = reference_integrand(pose, source_radius, contour, n, arc)
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
any_pose = st.one_of(common_poses, partial_poses, complete_poses, near_contact_poses)
pose_lists = st.lists(any_pose, min_size=1, max_size=12)
cases = st.sampled_from([(name, n) for name in CONTOURS for n in (16, 64)])
dofs = st.sampled_from((0, 3, 6))


def as_array(poses):
    return np.array([p.as_vector() for p in poses])


@pytest.mark.parametrize(
    "strategy, kind",
    [(common_poses, Common), (partial_poses, Partial), (complete_poses, Complete)],
)
def test_strategies_reach_their_class(strategy, kind):
    find(
        strategy,
        lambda p: isinstance(classify_occlusion(p, SOURCE_RADIUS), kind),
        settings=settings(database=None),
    )


def test_near_contact_strategy_reaches_both_sides_of_the_clearance():
    contour = CONTOURS["circle"]
    for inside in (True, False):
        find(
            near_contact_poses,
            lambda p: (_object_curve(contour, p, 16)[0][:, 2].min() < MIN_SURFACE_CLEARANCE)
            == inside,
            settings=settings(database=None),
        )


def rim_distance(points, source_radius):
    """Least distance of the (m, 3) points from the source circle."""
    return np.hypot(np.hypot(points[:, 0], points[:, 1]) - source_radius, points[:, 2]).min()


@given(case=cases, poses=pose_lists)
@settings(max_examples=60, deadline=None)
def test_matches_per_pose_reference(case, poses):
    """Common poses: the closed-form source circle against the trapezoid
    reference, within 1e-13 of the integral of the integrand's magnitude
    (the scale of its rounding; the value itself, where the integrand keeps
    one sign), for samples 1 mm or more from the rim, where the fixed
    trapezoid rule has converged. Partial, Complete and degenerate poses:
    the same-n Simpson integral, 1e-12."""
    name, n = case
    contour = CONTOURS[name]
    assume(not any(borderline(p, SOURCE_RADIUS, contour, n) for p in poses))
    values, degenerate = vf_batch(as_array(poses), SOURCE_RADIUS, contour, QuadratureSpec(n))
    for pose, value, flagged in zip(poses, values, degenerate):
        try:
            arc = reference_arc(pose, SOURCE_RADIUS)
            points = _object_curve(contour, pose, n)[0]
            if (
                arc == "common"
                and points[:, 2].min() >= MIN_SURFACE_CLEARANCE
                and rim_distance(points, SOURCE_RADIUS) < 1e-3
            ):
                event("common within 1 mm of the rim: finite, not compared")
                assert not flagged and math.isfinite(value)
                continue
            w, g = reference_integrand(pose, SOURCE_RADIUS, contour, n, arc)
        except DegeneratePoseError:
            assert flagged and math.isnan(value)
            continue
        assert not flagged
        expected = w @ g
        if arc == "common":
            event("common")
            assert abs(value - expected) <= 1e-13 * (w @ np.abs(g))
        else:
            assert abs(value - expected) <= 1e-12


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


def block_budgets(samples, pairs):
    """Patch the object samples per block and the node pairs per Partial
    sub-block."""
    return mock.patch.multiple(viewfactor_module, BLOCK_SAMPLES=samples, BLOCK_PAIRS=pairs)


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
    pairs = data.draw(st.integers(1, 3 * n * (n + 1)), label="block_pairs")
    with block_budgets(samples, pairs):
        assert_same_outputs(outputs, vf_batch(batch, SOURCE_RADIUS, contour, spec, dof=dof))
    order = np.array(data.draw(st.permutations(range(len(batch))), label="order"))
    shuffled = vf_batch(batch[order], SOURCE_RADIUS, contour, spec, dof=dof)
    assert_same_outputs(shuffled, [a[order] for a in outputs])


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


@given(
    group=pose_groups(),
    dof=dofs,
    slack=st.sampled_from((-1, 0, 1)),
    pair_slack=st.sampled_from((-1, 0, 1)),
)
@settings(max_examples=30, deadline=None)
def test_group_matches_single_contour_calls_when_a_group_barely_fits_a_block(
    group, dof, slack, pair_slack
):
    contours, n, poses = group
    # One group's object samples, give or take one: blocks of one group
    # each, and a budget too small for one group, which still takes whole
    # groups. Partial sub-blocks: one group's node pairs, give or take one.
    samples = len(contours) * n + slack
    pairs = len(contours) * n * (n + 1) + pair_slack
    with block_budgets(samples, pairs):
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
# Gradient: from the kernel's own arrays, against central differences
# ---------------------------------------------------------------------------

def reference_gradient(pose, contour, n):
    """Fourth-order central differences of F21 with the source curves of
    `pose` held fixed: of vf_batch itself for a Common pose, of the per-pose
    contour integral over the pose's own arc and chord for a Partial one.
    None if a perturbed pose is degenerate or, for a Common pose, not Common.

    The steps are 1% of the scales on which the integrand varies: the
    smallest object-source node distance for a translation, and that over
    the object's reach, at most 1 rad, for a rotation. Truncation ~ (h/s)^4
    then stays far below the rounding of the sum, which a smaller step
    would amplify.
    """
    arc = reference_arc(pose, SOURCE_RADIUS)
    points = _object_curve(contour, pose, n)[0]
    if arc == "common":
        curves = [_circle_arc_curve(SOURCE_RADIUS, 0.0, TWO_PI, n)]
    else:
        ends = [SOURCE_RADIUS * np.array([math.cos(a), math.sin(a), 0.0]) for a in arc]
        curves = [_circle_arc_curve(SOURCE_RADIUS, *arc, n), _chord_curve(ends[1], ends[0], n)]
    s_min = min(np.linalg.norm(points[:, None] - c[0][None], axis=2).min() for c in curves)
    reach = np.linalg.norm(points - pose.translation, axis=1).max()
    steps = 1e-2 * np.array([s_min] * 3 + [min(s_min / reach, 1.0)] * 3)
    stencil = pose.as_vector() + np.concatenate([k * np.diag(steps) for k in (2, 1, -1, -2)])
    if arc == "common":
        values, degenerate = vf_batch(stencil, SOURCE_RADIUS, contour, QuadratureSpec(n))
        if degenerate.any() or any(
            reference_arc(Pose(*x), SOURCE_RADIUS) != "common" for x in stencil
        ):
            return None
    else:
        try:
            values = np.array(
                [reference_value(Pose(*x), SOURCE_RADIUS, contour, n, arc) for x in stencil]
            )
        except DegeneratePoseError:
            return None
    f2, f1, b1, b2 = values.reshape(4, 6)
    return (b2 - 8.0 * b1 + 8.0 * f1 - f2) / (12.0 * steps)


@given(case=cases, pose=any_pose)
@settings(max_examples=150, deadline=None)
def test_gradient_matches_central_differences(case, pose):
    """All six components on Common, Partial, Complete and near-contact
    poses: exact +0 for Complete, NaN for degenerate poses."""
    name, n = case
    contour = CONTOURS[name]
    assume(not borderline(pose, SOURCE_RADIUS, contour, n))
    _, degenerate, grads = vf_batch(
        as_array([pose]), SOURCE_RADIUS, contour, QuadratureSpec(n), dof=6
    )
    if degenerate[0]:
        assert np.isnan(grads).all()
    elif reference_arc(pose, SOURCE_RADIUS) == "complete":
        assert np.all(grads == 0.0) and not np.signbit(grads).any()
    else:
        expected = reference_gradient(pose, contour, n)
        assume(expected is not None)
        event(reference_arc(pose, SOURCE_RADIUS) == "common" and "common" or "partial")
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
    """Holding a Partial pose's arc and chord fixed drops no term: at n =
    256, where quadrature error is small, the gradient agrees with central
    differences of vf_batch, whose arc and chord follow the pose."""
    contour, spec = CONTOURS[name], QuadratureSpec(256)
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 6:
        pose = Pose(
            *rng.uniform(-0.08, 0.08, 2), rng.uniform(0.01, 0.06),
            rng.uniform(0.6, 1.5), rng.uniform(-0.8, 0.8), rng.uniform(-math.pi, math.pi),
        )
        _, degenerate, grads = vf_batch(as_array([pose]), SOURCE_RADIUS, contour, spec, dof=6)
        if not isinstance(classify_occlusion(pose, SOURCE_RADIUS), Partial) or degenerate[0]:
            continue
        h = 1e-6
        stencil = pose.as_vector() + np.concatenate([h * np.eye(6), -h * np.eye(6)])
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
    with mock.patch.object(feasibility_module, "SEARCH_CHUNK", chunk):
        report = pairwise_feasibility(
            targets, displacements, objects, SOURCE_RADIUS, bench_env, grid, spec,
            tolerance=0.0, refine_levels=0,
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
    report = pairwise_feasibility(
        [celsius_to_kelvin(30.0)] * 2,
        [(0.0, 0.0, -0.01), (0.0, 0.0, 0.0)],
        [(contour, aluminum_lambdas)] * 2,
        SOURCE_RADIUS, bench_env, grid, QuadratureSpec(16), refine_levels=0,
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
        boundary_mode="clip",
        quadrature=QuadratureSpec(16),
        source_schedule=schedule,
    )


def poses_per_call(monkeypatch, scenario):
    """Poses in each kernel call of a run, and the (start, end) view
    factors each plant step of object 1 saw."""
    sizes, ends = [], []

    def counting(poses, *args, **kwargs):
        sizes.append(len(poses))
        return vf_batch(poses, *args, **kwargs)

    integrate = simulator_module.integrate_thermal

    def plant(state, f_of_time, lam, dt, steps, t0=0.0):
        ends.append((f_of_time(t0), f_of_time(t0 + dt * steps)))
        return integrate(state, f_of_time, lam, dt, steps, t0=t0)

    monkeypatch.setattr(simulator_module, "vf_batch", counting)
    monkeypatch.setattr(simulator_module, "integrate_thermal", plant)
    log = run_simulation(scenario)
    return np.array(sizes), ends[:: len(scenario.objects)], log


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


def test_moving_source_evaluates_both_plant_ends(monkeypatch):
    schedule = SourceSchedule(
        times=np.array([0.0, 40.0]), centers=np.array([[0.0, 0.0, 0.0], [0.02, 0.0, 0.0]])
    )
    scenario = sheet_scenario(3, schedule)
    per_call, ends, log = poses_per_call(monkeypatch, scenario)
    assert len(per_call) == scenario.n_ticks + 1
    assert per_call[0] == 3 and np.all(per_call[1:] == 2 * 3)
    assert all(start != end for start, end in ends)
    assert_logged_view_factors_are_fresh(log, scenario)


def kernel_calls_per_tick(monkeypatch, scenario):
    """Kernel calls between consecutive plant steps of object 1, and all
    kernel calls of the run."""
    calls, marks = [0], []

    def counting(*args, **kwargs):
        calls[0] += 1
        return vf_batch(*args, **kwargs)

    integrate = simulator_module.integrate_thermal

    def plant(*args, **kwargs):
        marks.append(calls[0])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(simulator_module, "vf_batch", counting)
    monkeypatch.setattr(simulator_module, "integrate_thermal", plant)
    run_simulation(scenario)
    return np.diff(marks[:: len(scenario.objects)]), calls[0]


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
    plant step's kernel call, is bitwise a fresh call at the logged pose."""
    scenario = dataclasses.replace(
        sheet_scenario(n_objects, MOVING_SCHEDULE if moving else None), controller=controller
    )
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
    integrate = simulator_module.integrate_thermal
    steps_taken = [0]

    def stiff_at_tick_12(state, f_of_time, lam, dt, steps, t0=0.0):
        # From tick 12 on the step is far beyond RK4's stability limit.
        steps_taken[0] += 1
        scale = 1e6 if steps_taken[0] > 12 else 1.0
        return integrate(state, f_of_time, lam, dt * scale, steps, t0=t0)

    monkeypatch.setattr(simulator_module, "integrate_thermal", stiff_at_tick_12)
    log = run_simulation(scenario)
    assert log.termination == "thermal_divergence"
    assert "temperature diverged" in log.detail
    assert not log.violation
    assert len(log.rows) == 13
    monkeypatch.setattr(simulator_module, "integrate_thermal", integrate)
    full = run_simulation(scenario)
    assert np.array_equal(log.rows, full.rows[:13], equal_nan=True)
