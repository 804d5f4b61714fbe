"""View factors between a circular source disk and a posed planar contour.

The production path converts the classical double surface integral into
double contour integrals (ln-distance kernel). The object contour, a closed
loop, gets the periodic trapezoid rule. Over the full source circle (the
Common case) the source integral has a closed form, so a Common pose costs
one term per object sample. Self-obstructed configurations integrate over
the contributing arc + chord split of the source boundary, with Simpson
quadrature on both source curves. A brute-force discrete surface integral
(DSI) over facet pairs serves as the independent oracle.

Orientation convention: both contours are parametrized counterclockwise in
their own planes and the sign of the kernel is folded into the final
prefactor, so that admissible configurations yield F21 >= 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    MIN_SURFACE_CLEARANCE,
    CircleContour,
    Contour,
    DegeneratePoseError,
    FourierContour,
    Pose,
    TWO_PI,
    classify_occlusions,
    pose_rotation,
    rotation_derivatives_from_euler,
    rotations_from_euler,
)

# Floor on the contour-point distance inside the ln kernel; the integrable
# singularity is otherwise sharp when surfaces nearly touch.
MIN_KERNEL_DISTANCE = 1e-9


class NonFiniteIntegrandError(RuntimeError):
    """An integrand sample evaluated to NaN/inf; carries the sample location."""

    def __init__(self, location: tuple[float, float]):
        self.location = location
        super().__init__(f"non-finite integrand sample at {location}")


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature resolution n: n periodic-trapezoid samples on the object
    contour and, for a Partial pose, n composite-Simpson intervals on the
    contributing arc and the chord, so n stays even. A Common pose's source
    circle needs no nodes. `simpson_2d` and `vf_parallel_disks` take n
    Simpson intervals on both of their dimensions."""

    n_per_dim: int = 64

    def __post_init__(self) -> None:
        if self.n_per_dim < 2 or self.n_per_dim % 2 != 0:
            raise ValueError("n_per_dim must be an even integer >= 2")


#: Production default; keeps a single evaluation well under a millisecond.
DEFAULT_SPEC = QuadratureSpec(64)
#: The simulator's default (a scenario's `quadrature_n`).
FAST_SPEC = QuadratureSpec(16)


@dataclass(frozen=True)
class ViewFactor:
    """Dimensionless view factor in [0, 1)."""

    value: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.value < 1.0):
            raise ValueError(f"view factor outside [0, 1): {self.value}")

    @staticmethod
    def from_raw(value: float) -> "ViewFactor":
        """Wrap a quadrature result, absorbing sub-1e-9 negative noise."""
        if -1e-9 < value < 0.0:
            value = 0.0
        if value < 0.0 or value >= 1.0 or not math.isfinite(value):
            raise ValueError(f"computed view factor outside [0, 1): {value}")
        return ViewFactor(value)


def _simpson_nodes(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.linspace(a, b, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (b - a) / (3.0 * n)
    return x, w


def simpson_2d(f, ranges, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Tensor-product composite Simpson estimate of f over a rectangle.

    Args:
        f: Integrand f(x, y). Called once with broadcastable column/row node
            arrays; plain scalar functions are vectorized as a fallback.
        ranges: ((x_lo, x_hi), (y_lo, y_hi)).
        spec: Quadrature resolution.

    Raises:
        NonFiniteIntegrandError: A sampled value is NaN or infinite.
    """
    (a1, b1), (a2, b2) = ranges
    n = spec.n_per_dim
    x1, w1 = _simpson_nodes(a1, b1, n)
    x2, w2 = _simpson_nodes(a2, b2, n)
    try:
        vals = np.asarray(f(x1[:, None], x2[None, :]), dtype=float)
        if vals.shape != (n + 1, n + 1):
            raise ValueError
    except (ValueError, TypeError):
        vals = np.vectorize(f)(x1[:, None], x2[None, :]).astype(float)
    if not np.isfinite(vals).all():
        i, j = np.argwhere(~np.isfinite(vals))[0]
        raise NonFiniteIntegrandError((float(x1[i]), float(x2[j])))
    return float(w1 @ vals @ w2)


# ---------------------------------------------------------------------------
# Contour-integral engine
# ---------------------------------------------------------------------------

#: Object samples (poses x n contour samples) per vectorized block. Bounds
#: the Common rows' temporary arrays to about 32 kB each, and the block's
#: points and tangents to 96 kB each.
BLOCK_SAMPLES = 2**12
#: Node pairs (object node x source node) per sub-block of Partial rows.
#: Bounds the Partial kernel's temporary arrays to about 128 kB each; the
#: gradient's per-pair derivatives take 3 (dof 3) or 5 (dof 6) times that.
BLOCK_PAIRS = 2**14

_NODE_CACHE: dict = {}
_NODE_CACHE_LIMIT = 64


def _cached(key, build):
    """Tuple of arrays from build(), kept per key and shared read-only."""
    hit = _NODE_CACHE.get(key)
    if hit is None:
        if len(_NODE_CACHE) >= _NODE_CACHE_LIMIT:
            _NODE_CACHE.clear()
        hit = _NODE_CACHE[key] = build()
        for array in hit:
            array.flags.writeable = False
    return hit


def _contour_key(contour: Contour) -> tuple:
    """Cache key of a contour by content: equal contours share entries, and
    unlike id(), which a collected contour hands on, a key names one shape."""
    if isinstance(contour, CircleContour):
        return ("circle", contour.radius)
    return ("fourier", contour.harmonics, contour.beta.tobytes(), contour.b.tobytes())


def _object_nodes(contours: tuple[Contour, ...], n: int):
    """Local boundary samples of K contours over one period each, stacked
    and cached per (contents, n).

    Periodic trapezoid samples t_j = j period / n, each tangent scaled by
    the rule's weight period / n: every term is linear in the object
    tangent, so a row's sum over its samples is the integral. Returns
    (along_x, along_y, areas): the local x and y of the n points followed by
    those of their weighted tangents, each (K, 1, 2n), and the (K,) areas.
    """

    def build():
        columns = []
        for contour in contours:
            h = contour.period / n
            t = h * np.arange(n)
            (x, y), (tx, ty) = contour.local_point(t).T, h * contour.local_tangent(t).T
            columns.append((np.concatenate([x, tx]), np.concatenate([y, ty])))
        along_x, along_y = (np.stack(c) for c in zip(*columns))
        areas = np.array([contour.area for contour in contours])
        return along_x[:, None], along_y[:, None], areas

    return _cached(("object", n, *map(_contour_key, contours)), build)


def _unit_nodes(n: int):
    """Simpson nodes and weights on [0, 1], the parameter range of every
    source curve."""
    return _cached(("unit", n), lambda: _simpson_nodes(0.0, 1.0, n))


def _pair_values(points, tangents, source, w_src, dof=0):
    """Quadrature of ln(s) * (ds_src . ds_obj) for each row of a block and,
    for dof > 0, its derivatives by the object's boundary samples.

    points: (rows, 3, m_obj) world object samples; tangents: (rows, 3,
    m_obj) their weighted tangents; source: (x, y, tx, ty), each (rows,
    m_src). Source curves lie in z = 0, so the z component of the object
    tangent drops out. Each row is reduced on its own in a fixed order, so
    its value does not depend on the other rows of the block.

    Returns:
        (values, partials): partials is None for dof 0, else (rows, P,
        m_obj): per object sample, the source-node sum of the integrand's
        derivative by the sample's x, y and z (P = 3) and, for dof 6, by its
        tangent's x and y (P = 5), with the source curves held fixed.
    """
    ox, oy, oz = (points[:, k, :, None] for k in range(3))
    otx, oty = tangents[:, 0, :, None], tangents[:, 1, :, None]
    sx, sy, stx, sty = (a[:, None, :] for a in source)
    dx = ox - sx
    s_sq = dx * dx
    dy = oy - sy
    s_sq += dy * dy
    s_sq += oz * oz
    np.maximum(s_sq, MIN_KERNEL_DISTANCE**2, out=s_sq)
    dot = otx * stx
    dot += oty * sty
    if dof:
        # Per node pair: d ln(s) / d(object sample) = (sample - source
        # node) / s^2 times the tangent dot product, then, for dof 6,
        # d / d(object tangent) = ln(s) times the source tangent.
        q = dot / s_sq
        by_pair = np.empty((len(dx), 5 if dof == 6 else 3) + dx.shape[1:])
        np.multiply(dx, q, out=by_pair[:, 0])
        np.multiply(dy, q, out=by_pair[:, 1])
        np.multiply(oz, q, out=by_pair[:, 2])
    kernel = np.log(s_sq, out=s_sq)
    if dof == 6:
        np.multiply(kernel, 0.5 * stx, out=by_pair[:, 3])
        np.multiply(kernel, 0.5 * sty, out=by_pair[:, 4])
    kernel *= dot
    # ln s = ln(s^2) / 2. einsum reduces each row alone; a stacked matmul
    # such as (kernel @ w_src).sum(1) does not give batch-independent bits.
    values = 0.5 * np.einsum("bij,j->b", kernel, w_src)
    return values, np.einsum("bpij,j->bpi", by_pair, w_src) if dof else None


def _circle_values(points, tangents, radius, dof=0):
    """What _pair_values computes, over the full source circle and with the
    source side in closed form.

    For an object sample o = (x, y, z), with rho^2 = x^2 + y^2,
    A = rho^2 + R^2 + z^2, P = sqrt(((rho - R)^2 + z^2)((rho + R)^2 + z^2))
    and D = A + P, the source integral of ln|o - s| ds is exactly
    -2 pi R^2 (-y, x) / D: of the Fourier series of ln|o - s| in the source
    angle, only the k = 1 term has a non-zero integral against ds. So each
    row takes its object samples alone, with no logarithm. P is a product
    of two sums of squares, which keeps it accurate near the rim; it is
    positive, because a non-degenerate sample lies above the source plane.

    Same arguments and returns as _pair_values, with the circle's radius
    for its nodes.
    """
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    tx, ty = tangents[:, 0], tangents[:, 1]
    r_sq = radius * radius
    rho_sq = x * x + y * y
    z_sq = z * z
    rho = np.sqrt(rho_sq)
    a = rho_sq + r_sq + z_sq
    p = np.sqrt(((rho - radius) ** 2 + z_sq) * ((rho + radius) ** 2 + z_sq))
    d = a + p
    cross = x * ty - y * tx
    k = (-TWO_PI * r_sq) / d
    values = (k * cross).sum(axis=1)
    if not dof:
        return values, None
    # The sample's partials of k * cross, with dD/dx = x e, dD/dy = y e and
    # dD/dz = 2 z (1 + A / P), and for dof 6 those by its tangent.
    q = cross / d
    e = 2.0 * (1.0 + (a - 2.0 * r_sq) / p)
    partials = np.empty((len(x), 5 if dof == 6 else 3, x.shape[1]))
    partials[:, 0] = k * (ty - q * x * e)
    partials[:, 1] = -k * (tx + q * y * e)
    partials[:, 2] = -k * q * 2.0 * z * (1.0 + a / p)
    if dof == 6:
        partials[:, 3] = -k * y
        partials[:, 4] = k * x
    return values, partials


def _partial_values(points, tangents, lo, hi, radius, unit, dof=0):
    """What _pair_values computes, over each row's contributing arc
    (lo, hi), each (rows, 1), and the chord that closes it."""
    u, w_src = unit
    theta = lo + (hi - lo) * u
    rc, rs = radius * np.cos(theta), radius * np.sin(theta)
    arc = (rc, rs, (lo - hi) * rs, (hi - lo) * rc)
    # The chord from the arc's last node back to its first closes the segment.
    end_x, end_y = rc[:, -1:], rs[:, -1:]
    edge_x, edge_y = rc[:, :1] - end_x, rs[:, :1] - end_y
    chord = (end_x + u * edge_x, end_y + u * edge_y, edge_x, edge_y)
    arc_total, arc_partials = _pair_values(points, tangents, arc, w_src, dof)
    chord_total, chord_partials = _pair_values(points, tangents, chord, w_src, dof)
    # The arc and chord stay fixed; vf_batch says why that is exact.
    return arc_total + chord_total, arc_partials + chord_partials if dof else None


def _block_values(poses, source_radius, nodes, unit, dof):
    """View factors, degenerate flags and, for dof > 0, gradients of one
    block of whole pose groups."""
    along_x, along_y, areas = nodes
    groups = len(poses) // len(areas)
    translations = poses[:, :3]
    rotations = rotations_from_euler(poses[:, 3:])
    # Frame axes and origins as (groups, K, 3, 1), against the (K, 1, 2m)
    # contour tables: one product per axis rotates points and tangents.
    frames = rotations.reshape(groups, -1, 3, 3)
    rotated = frames[..., 0, None] * along_x + frames[..., 1, None] * along_y
    m = along_x.shape[-1] // 2
    # World-frame boundary samples: (B, 3, m) points and tangents.
    points = (rotated[..., :m] + translations.reshape(groups, -1, 3, 1)).reshape(len(poses), 3, m)
    tangents = rotated[..., m:].reshape(len(poses), 3, m)

    occ = classify_occlusions(rotations, translations, source_radius)
    near_contact = points[:, 2].min(axis=1) < MIN_SURFACE_CLEARANCE
    degenerate = occ.coplanar | (~occ.complete & near_contact)
    values = np.zeros(len(poses))
    partials = np.zeros((len(poses), 5 if dof == 6 else 3, m)) if dof else None
    common = ~(occ.partial | occ.complete | degenerate)
    if np.count_nonzero(common):
        values[common], common_partials = _circle_values(
            points[common], tangents[common], source_radius, dof
        )
        if dof:
            partials[common] = common_partials

    # Partial rows cost m (m + 1) pairs per source curve: sub-blocks of BLOCK_PAIRS.
    partial = np.flatnonzero(occ.partial & ~degenerate)
    step = max(1, BLOCK_PAIRS // (m * (m + 1)))
    for rows in (partial[i : i + step] for i in range(0, len(partial), step)):
        values[rows], partial_partials = _partial_values(
            points[rows], tangents[rows],
            occ.lo[rows, None], occ.hi[rows, None], source_radius, unit, dof,
        )
        if dof:
            partials[rows] = partial_partials

    scale = -(TWO_PI * areas)
    by_group = values.reshape(groups, -1)  # a view of values
    by_group /= scale
    values[occ.complete] = 0.0  # not -0.0
    values[degenerate] = np.nan
    if not dof:
        return values, degenerate

    grads = np.empty((len(poses), dof))
    grads[:, :3] = partials[:, :3].sum(axis=2)
    if dof == 6:
        # dR/dtheta_j moves each sample by (dR/dtheta_j) c and its tangent
        # by (dR/dtheta_j) c': (B, 3 angles, 5 coordinates, m).
        turned = rotation_derivatives_from_euler(poses[:, 3:]).reshape(groups, -1, 3, 3, 3)
        moved = turned[..., 0, None] * along_x[:, None] + turned[..., 1, None] * along_y[:, None]
        moved = moved.reshape(len(poses), 3, 3, 2 * m)
        jacobian = np.concatenate([moved[..., :m], moved[:, :, :2, m:]], axis=2)
        grads[:, 3:] = np.einsum("bjsi,bsi->bj", jacobian, partials)
    by_group = grads.reshape(groups, -1, dof)  # a view of grads
    by_group /= scale[:, None]
    grads[occ.complete] = 0.0
    grads[degenerate] = np.nan
    return values, degenerate, grads


def vf_batch(
    poses,
    source_radius: float,
    contour: Contour | tuple[Contour, ...],
    spec: QuadratureSpec = DEFAULT_SPEC,
    dof: int = 0,
) -> tuple[np.ndarray, ...]:
    """View factors F21 of B posed contours, with degenerate flags and, for
    dof 3 or 6, their gradients.

    The batched contour-integral kernel behind every view-factor caller.
    `contour` is one contour for every pose, or a group of K contours: then
    row r of `poses` belongs to `contour[r % K]`, so a (G, K, 6) array of G
    pose groups, reshaped to (G * K, 6), evaluates every contour of the
    group at each of its G poses in one call. One contour is a group of one.

    A Common pose integrates the full source circle in closed form over
    the object's n periodic-trapezoid samples; a Partial pose takes the
    Simpson rule on its contributing arc and chord as well. Poses are
    processed in blocks of whole groups, about BLOCK_SAMPLES object samples
    each, and a block's Partial poses in sub-blocks of at most BLOCK_PAIRS
    node pairs (at least one pose). Each pose's value and gradient are
    computed independently of the others, so they are bitwise identical
    alone, in any batch or group, at any block split and in any order.
    Complete self-obstruction gives exactly 0. Degenerate poses (coplanar with the
    source, or with the boundary within MIN_SURFACE_CLEARANCE of the source
    plane) are flagged and get NaN.

    The gradient differentiates the contour integral under the quadrature
    (Sparrow's contour formulation): the object's samples and tangents move
    with the pose, the source circle stays. On a Partial pose the
    contributing arc and chord are held fixed, which is exact: the surface
    kernel vanishes on the chord, which lies in the object's plane, and the
    arc's ends only slide along the source circle. The gradient-free path
    (dof 0) does no gradient work, and the values do not depend on dof.

    Args:
        poses: (B, 6) array of [p1, p2, p3, theta_x, theta_y, theta_z]; B
            a multiple of the group size K.
        dof: 0 for values only; 3 for the gradient by (p1, p2, p3); 6 for
            the gradient by all six coordinates.

    Returns:
        (values, degenerate): float and bool arrays of shape (B,); for dof
        3 or 6, (values, degenerate, grads) with grads (B, dof).

    Raises:
        ValueError: Malformed or non-finite poses, a row count that is not
            a multiple of K, non-positive radius, dof not 0, 3 or 6.
    """
    contours = contour if isinstance(contour, tuple) else (contour,)
    poses = np.asarray(poses, dtype=float)
    if poses.ndim != 2 or poses.shape[1] != 6:
        raise ValueError(f"poses must have shape (B, 6), got {poses.shape}")
    if not contours or len(poses) % len(contours):
        raise ValueError(
            f"{len(poses)} poses do not split into groups of {len(contours)} contours"
        )
    if not np.isfinite(poses).all():
        raise ValueError("pose coordinates must be finite")
    if not source_radius > 0.0:
        raise ValueError("source_radius must be positive")
    if dof not in (0, 3, 6):
        raise ValueError(f"dof must be 0, 3 or 6, got {dof}")
    n = spec.n_per_dim
    nodes = _object_nodes(contours, n)
    unit = _unit_nodes(n)
    per_block = len(contours) * max(1, BLOCK_SAMPLES // (len(contours) * n))
    results = (np.empty(len(poses)), np.empty(len(poses), dtype=bool))
    if dof:
        results += (np.empty((len(poses), dof)),)
    for lo in range(0, len(poses), per_block):
        block = slice(lo, lo + per_block)
        parts = _block_values(poses[block], source_radius, nodes, unit, dof)
        for out, part in zip(results, parts):
            out[block] = part
    return results


def vf_general(
    pose: Pose,
    source_radius: float,
    contour: Contour,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> ViewFactor:
    """View factor from a posed planar contour to the circular source disk:
    a batch of one `vf_batch`.

    Dispatches on the occlusion class: the common case integrates over the
    full source circle, partial self-obstruction over the contributing
    arc + chord, complete self-obstruction returns exactly 0.

    Raises:
        DegeneratePoseError: Coplanar or near-contact configurations, and
            any non-obstructed pose whose boundary dips to or below the
            source plane (the model covers objects above the source only).
    """
    values, degenerate = vf_batch(pose.as_vector()[None, :], source_radius, contour, spec)
    if degenerate[0]:
        raise DegeneratePoseError(
            "object lies in the source plane or its boundary comes within "
            f"{MIN_SURFACE_CLEARANCE} m of it"
        )
    return ViewFactor.from_raw(float(values[0]))


def vf_parallel_disks(
    pose: Pose, r1: float, r2: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> ViewFactor:
    """View factor between parallel circular surfaces (zero-rotation pose).

    Evaluates the closed-form-kernel double integral over the two boundary
    angles directly, with the contour-point distance expanded analytically.

    Raises:
        ValueError: Non-zero rotation, non-positive radii, or p3 <= 0.
    """
    if pose.theta_x != 0.0 or pose.theta_y != 0.0 or pose.theta_z != 0.0:
        raise ValueError("vf_parallel_disks requires a zero-rotation pose")
    if pose.p3 <= 0.0:
        raise ValueError("requires p3 > 0 (object above the source plane)")
    if r1 <= 0.0 or r2 <= 0.0:
        raise ValueError("radii must be positive")
    p1, p2, p3 = pose.p1, pose.p2, pose.p3
    area2 = math.pi * r2**2

    def integrand(w1, w2):
        s_sq = (
            p1**2
            + p2**2
            + p3**2
            + 2.0 * p1 * (r2 * np.cos(w2) - r1 * np.cos(w1))
            + 2.0 * p2 * (r2 * np.sin(w2) - r1 * np.sin(w1))
            + r1**2
            + r2**2
            - 2.0 * r1 * r2 * np.cos(w2 - w1)
        )
        s = np.sqrt(np.maximum(s_sq, MIN_KERNEL_DISTANCE**2))
        return r1 * r2 * np.cos(w1 - w2) * np.log(s)

    raw = simpson_2d(integrand, ((0.0, TWO_PI), (0.0, TWO_PI)), spec)
    return ViewFactor.from_raw(-raw / (TWO_PI * area2))


# ---------------------------------------------------------------------------
# Discrete surface integral oracle
# ---------------------------------------------------------------------------


def _disk_facets(radius: float, n_facets: int) -> tuple[np.ndarray, np.ndarray]:
    """Polar-grid facet centers and areas covering a disk, about n_facets cells."""
    n_rings = max(2, int(round(math.sqrt(n_facets / math.pi))))
    centers = []
    areas = []
    for k in range(n_rings):
        r_in = radius * k / n_rings
        r_out = radius * (k + 1) / n_rings
        r_mid = 0.5 * (r_in + r_out)
        n_sec = max(8, int(round(TWO_PI * max(r_mid, radius / (2 * n_rings)) * n_rings / radius)))
        theta = (np.arange(n_sec) + 0.5) * TWO_PI / n_sec
        # Area centroid radius of an annular sector.
        r_c = (2.0 / 3.0) * (r_out**3 - r_in**3) / (r_out**2 - r_in**2)
        centers.append(
            np.stack([r_c * np.cos(theta), r_c * np.sin(theta)], axis=1)
        )
        areas.append(np.full(n_sec, 0.5 * (r_out**2 - r_in**2) * TWO_PI / n_sec))
    return np.concatenate(centers), np.concatenate(areas)


def _fourier_facets(contour: FourierContour, n_facets: int) -> tuple[np.ndarray, np.ndarray]:
    """Fan triangulation from the centroid: centers and areas of n_facets triangles."""
    phi = np.arange(n_facets) / n_facets
    boundary = contour.local_point(phi)
    nxt = np.roll(boundary, -1, axis=0)
    # Polygon area centroid.
    cross = boundary[:, 0] * nxt[:, 1] - nxt[:, 0] * boundary[:, 1]
    poly_area = 0.5 * cross.sum()
    centroid = ((boundary + nxt) * cross[:, None]).sum(axis=0) / (6.0 * poly_area)
    areas = 0.5 * (
        (boundary[:, 0] - centroid[0]) * (nxt[:, 1] - centroid[1])
        - (nxt[:, 0] - centroid[0]) * (boundary[:, 1] - centroid[1])
    )
    if np.any(areas <= 0.0):
        raise ValueError("non-positive facet area: contour not star-shaped from centroid")
    centers = (boundary + nxt + centroid[None, :]) / 3.0
    return centers, areas


#: Facet pairs (object facet x source facet) per chunk of the DSI sum.
#: Bounds each of its temporary arrays to about 2 MB.
DSI_BLOCK_PAIRS = 2**18


def _dsi_sum(obj_centers, obj_areas, src_centers, src_areas, normal) -> float:
    total = 0.0
    chunk = max(1, DSI_BLOCK_PAIRS // max(len(src_centers), 1))
    sx, sy = src_centers[:, 0], src_centers[:, 1]
    for lo in range(0, len(obj_centers), chunk):
        oc = obj_centers[lo : lo + chunk]
        oa = obj_areas[lo : lo + chunk]
        dx = oc[:, 0, None] - sx[None, :]
        dy = oc[:, 1, None] - sy[None, :]
        dz = np.broadcast_to(oc[:, 2, None], dx.shape)
        r_sq = dx * dx
        r_sq += dy * dy
        r_sq += dz * dz
        cos_obj = dx * normal[0]
        cos_obj += dy * normal[1]
        cos_obj += dz * normal[2]
        np.negative(cos_obj, out=cos_obj)
        kernel = dz * cos_obj
        kernel *= (dz > 0.0) & (cos_obj > 0.0)
        r_sq *= r_sq
        kernel /= r_sq
        total += float((oa @ kernel) @ src_areas)
    return total / math.pi


def vf_dsi_oracle(
    pose: Pose, source_radius: float, contour: Contour, n_facets: int
) -> ViewFactor:
    """Brute-force view factor via the discrete surface integral.

    Both surfaces are meshed into about n_facets planar facets each; the
    classical cos(theta2) cos(theta1) / (pi r^2) kernel is summed over
    facet-center pairs, skipping pairs whose connecting ray has a
    non-positive cosine at either surface. Intended as a slow, independent
    check of the contour-integral path.

    Args:
        n_facets: Facet count per surface, >= 16.

    Raises:
        ValueError: Too few facets or a contour yielding non-positive facets.
    """
    if n_facets < 16:
        raise ValueError("n_facets must be >= 16")
    src_centers2d, src_areas = _disk_facets(source_radius, n_facets)
    src_centers = np.concatenate(
        [src_centers2d, np.zeros((len(src_centers2d), 1))], axis=1
    )
    if isinstance(contour, CircleContour):
        obj2d, obj_areas = _disk_facets(contour.radius, n_facets)
    else:
        obj2d, obj_areas = _fourier_facets(contour, n_facets)
    rotation = pose_rotation(pose)
    obj_centers = (
        np.concatenate([obj2d, np.zeros((len(obj2d), 1))], axis=1) @ rotation.T
        + pose.translation
    )
    normal = -rotation[:, 2]
    area2 = float(obj_areas.sum())

    total = _dsi_sum(obj_centers, obj_areas, src_centers, src_areas, normal)
    return ViewFactor.from_raw(total / area2)
