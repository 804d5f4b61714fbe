"""View factors between a circular source disk and a posed planar contour.

The production path converts the classical double surface integral into
double contour integrals (ln-distance kernel). The object contour, a closed
loop, gets the periodic trapezoid rule, on a per-pose ladder of sample
counts that stops at the coarsest one its error estimate accepts. The
source side is in closed form for every occlusion class: over the full
source circle (the Common case), and over the contributing arc and the
chord that closes it (Partial self-obstruction). So a pose costs a few
terms per object sample and no sum over source nodes. The kernel lays each
per-sample array out as planes (..., samples, rows), a block's pose rows on
the contiguous inner axis, so each elementwise operation is one loop over
the block; every sum over samples runs on a row-major copy, so a pose's
bits do not depend on the batch around it. A brute-force discrete surface
integral (DSI) over facet pairs serves as the independent oracle.

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
    Pose,
    TWO_PI,
    classify_occlusions,
    pose_rotation,
    rotation_derivative_planes,
    rotation_planes,
)

# Floor on the contour-point distance inside the sampled kernels of
# `vf_parallel_disks` and `l_parallel`; the integrable
# singularity is otherwise sharp when surfaces nearly touch. `vf_batch` needs
# none: it samples no source node, and its samples keep MIN_SURFACE_CLEARANCE
# from the source plane.
MIN_KERNEL_DISTANCE = 1e-9

# Absolute bound on F21 for the quadrature ladder of `vf_batch`: a pose stops
# on the first rung whose error estimate |T_k - T_(k/2)| is at most this,
# or on its top rung. Far below the 1e-9 the grids and the acceptance
# criteria resolve, and far above the rounding of a sum (about 1e-16).
REFINE_TOL = 1e-10


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature resolution n: at most n periodic-trapezoid samples per
    pose on the object contour. `vf_batch` climbs the ladder of rungs n,
    n/2, n/4, ... (halving while the half is an even count of at least 16)
    from the bottom and stops each pose on the first rung whose error
    estimate it accepts; for n <= 16 the ladder is the single rung n. The
    source side of `vf_batch` is in closed form and needs no nodes. The
    parallel-disk references `vf_parallel_disks` and `l_parallel` take the
    n x n periodic trapezoid rule on their two boundary angles."""

    n_per_dim: int

    def __post_init__(self) -> None:
        if self.n_per_dim < 2 or self.n_per_dim % 2 != 0:
            raise ValueError("n_per_dim must be an even integer >= 2")


#: Production default: at most 64 samples per pose, on the ladder 16, 32,
#: 64. Grid cells mostly stop on 16 or 32 samples, near-plane ones on 64.
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


# ---------------------------------------------------------------------------
# Contour-integral engine
# ---------------------------------------------------------------------------

#: Object samples (poses x bottom-rung samples) per array block. The
#: per-sample arrays are planes with the block's rows innermost, so the
#: bottom rung's Common temporaries, (samples, rows), are about 32 kB each,
#: its Partial ones (both arc ends, complex) 128 kB, its points 96 kB and
#: the x and y of its tangents 64 kB. A rung of k samples above the bottom
#: holds k / 2 midpoints for each pose that climbs to it, and the
#: degenerate test reads each rung's midpoint heights for every pose: the
#: top one's are n / 2 per pose, n / (2 bottom rung) times the budget.
BLOCK_SAMPLES = 2**12

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


def _rungs(n: int) -> list[int]:
    """Sample counts of the quadrature ladder for at most n samples,
    smallest first: n, n/2, n/4, ... while the half is an even count of at
    least FAST_SPEC's 16. So 64 gives 16, 32, 64, and n <= 16 one rung."""
    rungs = [n]
    while rungs[0] % 4 == 0 and rungs[0] // 2 >= FAST_SPEC.n_per_dim:
        rungs.insert(0, rungs[0] // 2)
    return rungs


def _object_nodes(contours: tuple[Contour, ...], n: int, midpoints: bool = False):
    """Local boundary samples of K contours over one period each, stacked
    and cached per (contents, n, midpoints).

    Periodic trapezoid samples t_j = j period / n or, with `midpoints`, the
    n samples halfway between them, t_j = (j + 1/2) period / n: those the
    rung of 2n adds to the rung of n. Each tangent is scaled by the rule's
    weight period / n: every term is linear in the object tangent, so a
    row's sum over its samples is the integral (or, for midpoints, the
    rule on the shifted samples). Returns (x, y, tx, ty, scale): the local
    x and y of the n points and of their weighted tangents, each (n, 1, K),
    contour k in column k, and the (K,) factors -2 pi A_k that turn a raw
    sum into F21.
    """
    offset = 0.5 if midpoints else 0.0

    def build():
        columns = []
        for contour in contours:
            h = contour.period / n
            t = h * (np.arange(n) + offset)
            columns.append((*contour.local_point(t).T, *(h * contour.local_tangent(t).T)))
        tables = tuple(np.stack(c, axis=-1)[:, None] for c in zip(*columns))
        return *tables, -(TWO_PI * np.array([contour.area for contour in contours]))

    return _cached(("object", n, midpoints, *map(_contour_key, contours)), build)


def _circle_terms(points, radius):
    """Each object sample's x, y, z and A, P and D = A + P (see
    _circle_values)."""
    x, y, z = points
    rho_sq = x * x + y * y
    z_sq = z * z
    rho = np.sqrt(rho_sq)
    a = rho_sq + radius * radius + z_sq
    p = np.sqrt(((rho - radius) ** 2 + z_sq) * ((rho + radius) ** 2 + z_sq))
    return x, y, z, a, p, a + p


def _circle_values(points, tangents, radius, dof=0):
    """Per object sample of each row of a block, its term of the contour
    integral of ln|o - s| (ds_src . ds_obj) over the full source circle,
    with the source side in closed form, and, for dof > 0, the term's
    derivatives by the sample.

    For an object sample o = (x, y, z), with rho^2 = x^2 + y^2,
    A = rho^2 + R^2 + z^2, P = sqrt(((rho - R)^2 + z^2)((rho + R)^2 + z^2))
    and D = A + P, the source integral of ln|o - s| ds is exactly
    -2 pi R^2 (-y, x) / D: of the Fourier series of ln|o - s| in the source
    angle, only the k = 1 term has a non-zero integral against ds. So each
    row takes its object samples alone, with no logarithm. P is a product
    of two sums of squares, which keeps it accurate near the rim; it is
    positive, because a non-degenerate sample lies above the source plane.

    points: (3, m, rows) planes of the world object samples' x, y and z;
    tangents: (2, m, rows), the x and y of their weighted tangents. Source
    curves lie in z = 0, so the z component of the object tangent drops
    out. Every operation is elementwise, on planes whose inner axis is the
    block's rows. A row's sum over its samples is its integral; the terms
    are kept so that the quadrature ladder can also sum every other sample.

    Returns:
        (terms, partials): terms (m, rows); partials is None for dof 0,
        else (P, m, rows): per object sample, the derivative of its term by
        the sample's x, y and z (P = 3) and, for dof 6, by its tangent's x
        and y (P = 5), with the source curves held fixed.
    """
    x, y, z, a, p, d = _circle_terms(points, radius)
    tx, ty = tangents
    r_sq = radius * radius
    cross = x * ty - y * tx
    k = (-TWO_PI * r_sq) / d
    terms = k * cross
    if not dof:
        return terms, None
    # The sample's partials of k * cross, with dD/dx = x e, dD/dy = y e and
    # dD/dz = 2 z (1 + A / P), and for dof 6 those by its tangent.
    q = cross / d
    e = 2.0 * (1.0 + (a - 2.0 * r_sq) / p)
    partials = np.empty((5 if dof == 6 else 3,) + x.shape)
    partials[0] = k * (ty - q * x * e)
    partials[1] = -k * (tx + q * y * e)
    partials[2] = -k * q * 2.0 * z * (1.0 + a / p)
    if dof == 6:
        partials[3] = -k * y
        partials[4] = k * x
    return terms, partials


#: Below this |w|, chi(w) = (w + ln(1 - w)) / w^2 takes its series: the
#: quotient would lose about eps / |w|^2 to cancellation.
_SERIES_W = 0.05
#: Series coefficients 1 / (k + 2), k = 0..11, highest first: the first
#: term dropped is below |w|^12 / 14 < 2e-17 inside _SERIES_W.
_CHI_SERIES = tuple(1.0 / k for k in range(13, 1, -1))


def _chi(w, log_w):
    """chi(w) = (w + ln(1 - w)) / w^2 = -sum_k w^k / (k + 2), by its series
    below _SERIES_W; log_w is ln(1 - w)."""
    near = w.real * w.real + w.imag * w.imag < _SERIES_W**2
    chi = np.divide(w + log_w, w * w, out=np.empty_like(w), where=~near)
    wn = w[near]
    acc = np.full_like(wn, _CHI_SERIES[0])
    for coefficient in _CHI_SERIES[1:]:
        acc = acc * wn + coefficient
    chi[near] = -acc
    return chi


def _partial_values(points, tangents, lo, hi, radius, dof=0):
    """The terms _circle_values computes, on the same planes, over each
    row's contributing arc (lo, hi), each (rows,), and the chord that closes
    it: both in closed form, so a row costs a few terms per object sample.
    Arrays that differ between the arc's two ends carry a leading axis of
    two, (2, m, rows).

    In complex notation, with A, P and D as in _circle_values, c = 2 (x -
    i y) / D, s = R e^(i theta) and w = c s (|w| < 1): ln|o - s| =
    ln(D / 2) / 2 + Re ln(1 - w). Along the arc, ds = i s dtheta, and the
    integral of Re ln(1 - w) ds is [G + H] / 2 from lo to hi, with
    G = s (ln(1 - w) - w chi(w)), the antiderivative of ln(1 - w) ds that
    vanishes at w = 0, and H = s (1 - conj w) conj ln(1 - w) - i theta s
    conj w, that of conj ln(1 - w) ds. As s conj w = R^2 conj c on the
    circle, G + H = 2 s Re ln(1 - w) - c s^2 chi(w) - R^2 conj c Q with
    Q = conj ln(1 - w) + i theta. Neither divides by w, so a sample on the
    source axis (w ~ 0) needs no care beyond chi's series.

    The chord runs from s_hi to s_lo, along the unit vector u for length L.
    A sample sits mu0 along u from s_hi and h >= z > 0 from the chord line,
    so the chord integral is u [F(L - mu0) - F(-mu0)] with
    F(t) = t ln(t^2 + h^2) / 2 - t + h atan(t / h).

    The gradient holds the arc and chord fixed (vf_batch says why that is
    exact): dG/dc = s^2 chi(w) and dH/d(conj c) = -R^2 Q, up to a constant
    that cancels between the ends, with dc/dx_k = (2 (1, -i, 0) - c
    dD/dx_k) / D; on the chord, dF/dmu0 = -ln(t^2 + h^2) / 2 and dF/dh =
    atan(t / h).
    """
    x, y, z, a, p, d = _circle_terms(points, radius)
    tx, ty = tangents
    r_sq = radius * radius
    c = 2.0 * (x - 1j * y) / d
    # The arc's ends, lo then hi: (2, 1, rows) against the samples' (m, rows).
    theta = np.stack([lo, hi])[:, None]
    s = radius * (np.cos(theta) + 1j * np.sin(theta))
    w = c * s
    # ln(1 - w), with 1 - Re w > 0; numpy's complex log is far slower.
    re, im = 1.0 - w.real, w.imag
    log_w = 0.5 * np.log(re * re + im * im) + 1j * np.arctan(-im / re)
    s2_chi = s * s * _chi(w, log_w)
    q = log_w.conj() + 1j * theta
    ends = 2.0 * s * log_w.real - c * s2_chi - (r_sq * c.conj()) * q
    s_lo, s_hi = s
    arc = 0.5 * (np.log(0.5 * d) * (s_hi - s_lo) + ends[1] - ends[0])

    edge = s_lo - s_hi
    length = np.abs(edge)
    u = edge / length
    offset = (x + 1j * y - s_hi) * u.conj()
    along, across = offset.real, offset.imag
    h_sq = across * across + z * z
    h = np.sqrt(h_sq)
    t = np.stack([-along, length - along])
    log_r = np.log(t * t + h_sq)
    atan = np.arctan(t / h)
    f = 0.5 * t * log_r - t + h * atan
    total = arc + u * (f[1] - f[0])
    terms = tx * total.real + ty * total.imag
    if not dof:
        return terms, None

    # dD/dx_k as in _circle_values, dG/dc and dH/d(conj c) at both ends, and
    # the chord's dF/dmu0 and dF/dh / h, each differenced over the ends.
    e = 2.0 * (1.0 + (a - 2.0 * r_sq) / p)
    d_d = (x * e, y * e, 2.0 * z * (1.0 + a / p))
    dh_dconj_c = -r_sq * q
    df_dmu = -0.5 * (log_r[1] - log_r[0])
    df_dh = (atan[1] - atan[0]) / h
    # across is the offset along the chord-line normal i u, so dh/dx_k is
    # ((-Im u, Re u) across, z) / h, and dmu0/dx_k is (Re u, Im u, 0).
    d_mu = (u.real, u.imag, 0.0)
    d_across = (-u.imag * across, u.real * across, z)
    partials = np.empty((5 if dof == 6 else 3,) + x.shape)
    for k, (dd, c_k) in enumerate(zip(d_d, (2.0, -2.0j, 0.0))):
        c_k = (c_k - c * dd) / d
        by_end = s2_chi * c_k + dh_dconj_c * c_k.conj()
        d_total = 0.5 * (dd / d * (s_hi - s_lo) + by_end[1] - by_end[0])
        d_total += u * (df_dmu * d_mu[k] + df_dh * d_across[k])
        partials[k] = tx * d_total.real + ty * d_total.imag
    if dof == 6:
        partials[3] = total.real
        partials[4] = total.imag
    return terms, partials


def _frames(angles):
    """The (3, 3, rows) rotation planes of a block's angles (3, rows), or
    None, the identity, when every angle is zero of either sign: R is then
    the identity bit for bit (see _block_values)."""
    return rotation_planes(angles) if angles.any() else None


def _posed(frames, x, y, tx, ty, translations):
    """Rotated samples (3, m, rows) and the x and y of their rotated
    weighted tangents (2, m, rows), as planes with the rows innermost, of
    the node tables x, y, tx and ty (m, 1, T) under the rotations frames
    (3, 3, rows), one entry per plane, then moved by the translations
    (3, rows) unless None; row r takes column r % T of the tables. Tangents
    drop their z, which no term reads. frames None is the identity: the
    samples are x + p1, y + p2 and p3 and the tangents the tables' own,
    by adds alone (see _block_values for why that is exact)."""
    m, width = len(x), x.shape[-1]
    if frames is None:
        p1, p2, p3 = translations.reshape(3, 1, -1, width)
        points = np.empty((3, m) + p1.shape[1:])
        np.add(x, p1, out=points[0])
        np.add(y, p2, out=points[1])
        points[2] = p3
        tangents = np.empty((2,) + points.shape[1:])
        tangents[0], tangents[1] = tx, ty
    else:
        frames = frames.reshape(3, 3, -1, width)
        points = frames[:, 0, None] * x + frames[:, 1, None] * y
        tangents = frames[:2, 0, None] * tx + frames[:2, 1, None] * ty
        if translations is not None:
            points += translations.reshape(3, 1, -1, width)
    return points.reshape(3, m, -1), tangents.reshape(2, m, -1)


def _gradients(partials, angles, tables):
    """Gradients (rows, 3 or 6) of the rows' summed terms: the partials
    (P, m, rows) by each sample's x, y and z summed and, for dof 6,
    contracted with how the rows' rotations (angles (3, rows)) move each
    sample and turn its tangent. `tables` are the node tables that posed
    the samples (see _posed). Both the sums and the contraction run on a
    C-contiguous (rows, P, m) copy of the partials, as the values do (see
    _block_values)."""
    by_row = np.ascontiguousarray(partials.transpose(2, 0, 1))
    sums = by_row[:, :3].sum(axis=2)
    rows, coordinates, m = by_row.shape
    if coordinates == 3:
        return sums
    # dR/dtheta_j moves each sample by (dR/dtheta_j) c and its tangent by
    # (dR/dtheta_j) c': (rows, 3 angles, 5 coordinates, m).
    jacobian = np.empty((rows, 3, 5, m))
    for j, turned in enumerate(rotation_derivative_planes(angles)):
        moved, turned_tangents = _posed(turned, *tables, None)
        jacobian[:, j, :3] = moved.transpose(2, 0, 1)
        jacobian[:, j, 3:] = turned_tangents.transpose(2, 0, 1)
    return np.concatenate([sums, np.einsum("bjsi,bsi->bj", jacobian, by_row)], axis=1)


def _block_values(poses, source_radius, ladder, dof):
    """View factors, degenerate flags and, for dof > 0, gradients of one
    block of whole pose groups, each pose on the quadrature ladder.

    `ladder` is (bottom, midpoints, scale): the (x, y, tx, ty) node tables
    of the bottom rung and those of each lower rung's midpoints, as
    _object_nodes builds them, and the (K,) scale factors. Every pose takes
    the bottom rung of k samples, whose sum is T_k. Its estimate is
    |T_k - T_(k/2)|, T_(k/2) being twice the sum over every other sample's
    term: no new term. While the estimate exceeds REFINE_TOL (on F21) and a
    rung remains, the pose takes the k midpoints alone, T_2k = (T_k + M_k) / 2
    and G_2k = (G_k + G_mid) / 2 for the gradient, and |T_2k - T_k| is the
    next estimate. The decision reads the pose's own
    values only, so it is the same for every dof and at any block split. A
    ladder of one rung takes no estimate and no second pass. The degenerate
    flags read all n samples, whichever rung a pose stops on: the bottom
    rung's and every rung's midpoints.

    The pose coordinates, the rotation entries and every per-sample array
    are planes with the rows innermost, so each elementwise operation runs
    one long loop over the block. Every sum over samples runs on a
    C-contiguous (rows, m) copy, whose contiguous last axis numpy adds
    pairwise: a row's sum has the same bits whatever the batch around it,
    where a sum across the planes would be a running sum in another order.

    A block whose angles are all zero (either sign) skips rotation_planes,
    the occlusion test and the height minima, and gives the same bits. At
    theta = +-0, R has ones on its diagonal and signed zeros off it, and
    adding a zero product to a non-zero number returns it: the general
    path's samples are fl(x + p1), fl(y + p2) and p3 and its tangents the
    tables' own, as _posed makes them under frames None. In
    classify_occlusions the normal is (+-0, +-0, -1), d = -p3 and amp = 0:
    no pose is Partial, a pose is Complete iff p3 <= 0 and coplanar iff
    |p3| < 1e-12. Only the sign of an exact zero can differ (the circle's
    first tangent x is -0.0 in its table, +0 after the general path's
    adds), and it reaches the outputs only as a zero term of a sum with
    non-zero terms.
    """
    bottom, midpoints, scale = ladder
    k_obj = len(scale)
    groups = len(poses) // k_obj
    coordinates = np.ascontiguousarray(poses.T)
    translations, angles = coordinates[:3], coordinates[3:]
    frames = _frames(angles)
    points, tangents = _posed(frames, *bottom, translations)
    m = points.shape[1]
    if frames is None:  # every sample height is p3
        lowest = translations[2]
        complete, coplanar = lowest <= 0.0, np.abs(lowest) < 1e-12
    else:
        # The lowest of all n sample heights: the bottom rung's and those
        # each higher rung adds. A height is fl(a_j + p3), a_j the sample's
        # rotated local part; rounding is monotone, so adding p3 after the
        # minimum gives the same bits.
        lowest = points[2].min(axis=0)
        for x, y, *_ in midpoints:
            r20, r21 = frames[2, :2].reshape(2, groups, k_obj)
            heights = r20 * x + r21 * y
            lowest = np.minimum(lowest, heights.min(axis=0).reshape(-1) + translations[2])
        occ = classify_occlusions(frames.transpose(2, 0, 1), translations.T, source_radius)
        complete, coplanar = occ.complete, occ.coplanar
    degenerate = coplanar | (~complete & (lowest < MIN_SURFACE_CLEARANCE))
    # Per occlusion class, its rows and the terms of given rows' samples.
    common = ~(complete | degenerate)
    classes = [(common, lambda rows, *samples: _circle_values(*samples, source_radius, dof))]
    if frames is not None:
        common &= ~occ.partial
        classes.append(
            (
                occ.partial & ~degenerate,
                lambda rows, *samples: _partial_values(
                    *samples, occ.lo[rows], occ.hi[rows], source_radius, dof
                ),
            )
        )
    values = np.zeros(len(poses))
    partials = np.zeros((5 if dof == 6 else 3, m, len(poses))) if dof else None
    tolerance = REFINE_TOL * np.abs(scale) if midpoints else None  # on raw sums
    climbing = []
    for of_class, terms_of in classes:
        rows = of_class.nonzero()[0]
        if not len(rows):
            continue
        if len(rows) == len(poses):
            samples = points, tangents
        else:
            samples = points[..., rows], tangents[..., rows]
        terms, class_partials = terms_of(rows, *samples)
        by_row = np.ascontiguousarray(terms.T)
        values[rows] = by_row.sum(axis=1)
        if dof:
            partials[..., rows] = class_partials
        if midpoints:
            estimate = np.abs(values[rows] - 2.0 * by_row[:, ::2].sum(axis=1))
            climbing.append((terms_of, rows[estimate > tolerance[rows % k_obj]]))
    if dof:
        grads = _gradients(partials, angles, bottom)

    for terms_of, rows in climbing:
        for tables in midpoints:
            if not len(rows):
                break
            contour_of = rows % k_obj
            tables = tuple(table[..., contour_of] for table in tables)
            mid_frames = None if frames is None else frames[..., rows]
            mid_points, mid_tangents = _posed(mid_frames, *tables, translations[:, rows])
            terms, mid_partials = terms_of(rows, mid_points, mid_tangents)
            previous = values[rows]
            values[rows] = finer = 0.5 * (previous + np.ascontiguousarray(terms.T).sum(axis=1))
            if dof:
                mid_grads = _gradients(mid_partials, angles[:, rows], tables)
                grads[rows] = 0.5 * (grads[rows] + mid_grads)
            rows = rows[np.abs(finer - previous) > tolerance[contour_of]]

    by_group = values.reshape(groups, -1)  # a view of values
    by_group /= scale
    values[complete] = 0.0  # not -0.0
    values[degenerate] = np.nan
    if not dof:
        return values, degenerate
    by_group = grads.reshape(groups, -1, dof)  # a view of grads
    by_group /= scale[:, None]
    grads[complete] = 0.0
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

    Over the object's periodic-trapezoid samples, a Common pose integrates
    the full source circle in closed form, and a Partial pose its
    contributing arc and chord, also in closed form; no path sums over
    source nodes. `spec` allows at most n samples per pose: each pose
    climbs the ladder of rungs 16, 32, ..., n (see QuadratureSpec) and stops
    on the first whose error estimate |T_k - T_(k/2)| is at most REFINE_TOL,
    or on n; for n <= 16 it takes exactly n samples and no estimate. Poses
    are processed in blocks of whole groups, about BLOCK_SAMPLES bottom-rung
    samples each; a block evaluates its Common rows in one call and its
    Partial rows in another, and then each higher rung's midpoints for the
    rows that climb to it. Each pose's value and gradient, and the rung it
    stops on, are computed independently of the others, so they are bitwise
    identical alone, in any batch or group, at any block split and in any
    order. A block whose poses all have theta = 0 exactly, as every pose
    of the translation grid, the feasibility search and the shipped loops
    has, is posed by adds alone and classified by the sign of p3, with no
    rotation, and gives the same bits as the general path (see
    _block_values).
    Complete self-obstruction gives exactly 0. Degenerate poses (coplanar
    with the source, or with any of the n samples within
    MIN_SURFACE_CLEARANCE of the source plane, whichever rung the pose
    would stop on) are flagged and get NaN.

    The gradient differentiates the contour integral under the object-side
    quadrature (Sparrow's contour formulation): the object's samples and
    tangents move with the pose, the source circle stays. On a Partial pose the
    contributing arc and chord are held fixed, which is exact: the surface
    kernel vanishes on the chord, which lies in the object's plane, and the
    arc's ends only slide along the source circle. A pose's gradient comes
    from the rung its value stops on. The gradient-free path (dof 0) does no
    gradient work, and the values do not depend on dof.

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
            a multiple of K, a radius that is not finite and positive, dof
            not 0, 3 or 6.
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
    if not 0.0 < source_radius < math.inf:
        raise ValueError(f"source_radius must be finite and positive, got {source_radius}")
    if dof not in (0, 3, 6):
        raise ValueError(f"dof must be 0, 3 or 6, got {dof}")
    rungs = _rungs(spec.n_per_dim)
    *bottom, scale = _object_nodes(contours, rungs[0])
    midpoints = [_object_nodes(contours, k, midpoints=True)[:4] for k in rungs[:-1]]
    ladder = (bottom, midpoints, scale)
    per_block = len(contours) * max(1, BLOCK_SAMPLES // (len(contours) * rungs[0]))
    if 0 < len(poses) <= per_block:  # one block: its arrays are the results
        return _block_values(poses, source_radius, ladder, dof)
    results = (np.empty(len(poses)), np.empty(len(poses), dtype=bool))
    if dof:
        results += (np.empty((len(poses), dof)),)
    for lo in range(0, len(poses), per_block):
        block = slice(lo, lo + per_block)
        parts = _block_values(poses[block], source_radius, ladder, dof)
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


def view_factor_gradient(
    pose: Pose,
    source_radius: float,
    contour,
    spec: QuadratureSpec = DEFAULT_SPEC,
    indices: tuple[int, ...] = (0, 1, 2, 3, 4, 5),
    base_value: float | None = None,
) -> np.ndarray:
    """Gradient of F21 over the 6 pose coordinates: a batch of one
    `vf_batch(..., dof=3)`, or dof=6 if `indices` names an angle.

    Args:
        indices: Components to return; the others are zero.
        base_value: Accepted for callers that pass F21 at the pose; ignored,
            because the kernel computes the value with the gradient.

    Returns:
        (6,) array d(F21)/d(p1, p2, p3, theta_x, theta_y, theta_z).

    Raises:
        DegeneratePoseError: Degenerate pose.
    """
    idx = np.asarray(indices, dtype=int)
    dof = 6 if np.any(idx >= 3) else 3
    _, degenerate, grads = vf_batch(
        pose.as_vector()[None, :], source_radius, contour, spec, dof=dof
    )
    if degenerate[0]:
        raise DegeneratePoseError(f"pose {pose} is degenerate")
    grad = np.zeros(6)
    grad[idx] = grads[0, idx]
    return grad


#: Entries of each (rows, n) temporary of the parallel-disk references: they
#: sum their n x n grid in blocks of source rows, so a call holds O(n) of
#: it at a time, about 512 kB per array.
_PARALLEL_BLOCK_ENTRIES = 2**16


def _parallel_blocks(pose: Pose, r1: float, r2: float, n: int):
    """Both circles of the parallel-disk references on the n x n periodic
    trapezoid grid w = 2 pi j / n, the source circle (radius r1, angle w1)
    on axis 0 and the object circle (radius r2, angle w2) on axis 1, in
    blocks of consecutive source rows of about _PARALLEL_BLOCK_ENTRIES
    entries.

    Yields:
        (dx, dy, s_sq, cos_dw), each (rows, n): the contour-point difference
        (object minus source) in the plane, the squared distance floored at
        MIN_KERNEL_DISTANCE**2, and cos(w1 - w2).

    Raises:
        ValueError: Non-zero rotation, radii that are not finite and
            positive, or p3 <= 0, when the first block is drawn.
    """
    if pose.theta_x != 0.0 or pose.theta_y != 0.0 or pose.theta_z != 0.0:
        raise ValueError("the parallel-disk references require a zero-rotation pose")
    if pose.p3 <= 0.0:
        raise ValueError("requires p3 > 0 (object above the source plane)")
    if not (0.0 < r1 < math.inf and 0.0 < r2 < math.inf):
        raise ValueError(f"radii r1 and r2 must be finite and positive, got {r1} and {r2}")
    w = TWO_PI / n * np.arange(n)
    cos_w, sin_w = np.cos(w), np.sin(w)
    step = max(1, _PARALLEL_BLOCK_ENTRIES // n)
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        dx = pose.p1 + r2 * cos_w[None, :] - r1 * cos_w[rows, None]
        dy = pose.p2 + r2 * sin_w[None, :] - r1 * sin_w[rows, None]
        s_sq = np.maximum(dx * dx + dy * dy + pose.p3**2, MIN_KERNEL_DISTANCE**2)
        yield dx, dy, s_sq, np.cos(w[rows, None] - w[None, :])


def vf_parallel_disks(
    pose: Pose, r1: float, r2: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> ViewFactor:
    """View factor between parallel circular surfaces (zero-rotation pose).

    F21 = -1 / (2 pi A2) * double integral of r1 r2 cos(w1 - w2) ln s over
    the two boundary angles, on the n x n periodic trapezoid rule, which
    converges geometrically on this smooth periodic integrand. Independent
    of `vf_batch`: it shares no nodes or code with the kernel.

    Raises:
        ValueError: Non-zero rotation, radii that are not finite and
            positive, or p3 <= 0.
    """
    n = spec.n_per_dim
    total = sum(
        float(np.sum(cos_dw * (0.5 * np.log(s_sq))))  # ln s = ln(s^2) / 2
        for _, _, s_sq, cos_dw in _parallel_blocks(pose, r1, r2, n)
    )
    # Trapezoid weight (2 pi / n)^2, A2 = pi r2^2.
    raw = r1 * r2 * (TWO_PI / n) ** 2 * total
    return ViewFactor.from_raw(-raw / (TWO_PI * math.pi * r2**2))


def l_parallel(
    pose: Pose,
    r1: float,
    r2: float,
    lambda1: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> np.ndarray:
    """Analytic-integrand interaction row lambda1 * d(F21)/d(p1, p2, p3)
    for parallel circular surfaces, independent of `vf_batch`.

    It differentiates `vf_parallel_disks` under the integral sign: the
    three translation sensitivities are double integrals of the shared
    scalar kernel h = lambda1 * r1 r2 cos(w1 - w2) / (2 pi A2 s^2) against
    the components (dx, dy, p3) of the contour-point difference, on the
    same n x n periodic trapezoid grid, each block of it taken once for
    all three.

    Returns:
        (3,) array: d(rate)/d(p1, p2, p3) in K/s per m/s.

    Raises:
        ValueError: Non-zero rotation, radii that are not finite and
            positive, or p3 <= 0.
    """
    n = spec.n_per_dim
    sums = np.zeros(3)
    for dx, dy, s_sq, cos_dw in _parallel_blocks(pose, r1, r2, n):
        kernel = cos_dw / s_sq
        sums += (np.sum(kernel * dx), np.sum(kernel * dy), np.sum(kernel))
    # Trapezoid weight (2 pi / n)^2, A2 = pi r2^2.
    prefactor = lambda1 * r1 * r2 * (TWO_PI / n) ** 2 / (TWO_PI * math.pi * r2**2)
    return -prefactor * np.array([sums[0], sums[1], pose.p3 * sums[2]])


# ---------------------------------------------------------------------------
# Discrete surface integral oracle
# ---------------------------------------------------------------------------


def _facets(contour: Contour, n_facets: int) -> tuple[np.ndarray, np.ndarray]:
    """Local centres and areas of about n_facets cells covering a contour's
    region, on a polar grid about its area centroid c = int b (b x b') dt /
    (3 A). Ring k spans the scale rho in [k, k + 1] / n_rings about c, cut
    into sectors of equal parameter length of the boundary b(t). A cell's
    area is (rho_out^2 - rho_in^2) times its sector's, 1/2 int (b - c) x b'
    dt by 4-point Gauss-Legendre (exact on a circle); its centre is c +
    g (b(t_mid) - c), g the annular-sector centroid radius. On a circle
    this is the polar disk grid.

    Raises:
        ValueError: A sector of non-positive area: the contour is not
            star-shaped from c.
    """
    nodes, weights = np.polynomial.legendre.leggauss(4)
    n_rings = max(2, int(round(math.sqrt(n_facets / math.pi))))
    rho = np.arange(n_rings + 1) / n_rings
    rings = [
        (lo, hi, max(8, int(round(TWO_PI * max(0.5 * (lo + hi), 0.5 / n_rings) * n_rings))))
        for lo, hi in zip(rho[:-1], rho[1:])
    ]

    def sampled(count):
        """Points and Gauss-weighted normals (b'_y, -b'_x) dt, so that
        b x b' dt = b . normal, at 4 nodes in each of `count` sectors."""
        h = contour.period / count
        t = h * (np.arange(count)[:, None] + 0.5 * (1.0 + nodes))
        normals = contour.local_tangent(t)[..., ::-1] * (1.0, -1.0)
        return contour.local_point(t), (0.5 * h * weights)[:, None] * normals

    points, normals = sampled(rings[-1][2])  # the finest ring
    moments = (points * normals).sum(axis=-1)
    c = (points * moments[..., None]).sum(axis=(0, 1)) / (1.5 * moments.sum())
    centers, areas = [], []
    for lo, hi, count in rings:
        points, normals = sampled(count)
        sectors = 0.5 * ((points - c) * normals).sum(axis=(1, 2))
        if np.any(sectors <= 0.0):
            raise ValueError("non-positive facet area: contour not star-shaped from centroid")
        mid = contour.local_point(contour.period / count * (np.arange(count) + 0.5))
        centers.append(c + (2.0 / 3.0) * (hi**3 - lo**3) / (hi**2 - lo**2) * (mid - c))
        areas.append((hi**2 - lo**2) * sectors)
    return np.concatenate(centers), np.concatenate(areas)


#: Facet pairs (object facet x source facet) per chunk of the DSI sum.
#: Bounds each of its temporary arrays to about 2 MB.
DSI_BLOCK_PAIRS = 2**18


def _dsi_sum(obj_centers, obj_areas, src_centers, src_areas, normal) -> float:
    """Sum of cos(theta_src) cos(theta_obj) dA dA / (pi r^2) over the facet
    pairs in front of both surfaces. The source facets lie in z = 0, their
    centres given as (x, y), so for object facet o and source facet s,
    r^2 = |o|^2 + |s|^2 - 2 o.s is one matrix product per chunk, and the
    object-side cosine times r, -n.(o - s) = n.s - n.o, a rank-one sum; the
    source-side one is o_z / r. Near contact the expansion loses about
    eps |o|^2 / r^2 of r^2."""
    above = obj_centers[:, 2] > 0.0
    obj_centers, obj_areas = obj_centers[above], obj_areas[above]
    src_sq = np.einsum("ij,ij->i", src_centers, src_centers)
    src_normal = src_centers @ normal[:2]
    total = 0.0
    chunk = max(1, DSI_BLOCK_PAIRS // max(len(src_centers), 1))
    for lo in range(0, len(obj_centers), chunk):
        oc = obj_centers[lo : lo + chunk]
        r_sq = oc[:, :2] @ (-2.0 * src_centers.T)
        r_sq += src_sq
        r_sq += np.einsum("ij,ij->i", oc, oc)[:, None]
        cos_obj = src_normal - (oc @ normal)[:, None]
        kernel = np.maximum(cos_obj, 0.0, out=cos_obj)
        kernel *= oc[:, 2, None]
        r_sq *= r_sq
        kernel /= r_sq
        total += float((obj_areas[lo : lo + chunk] @ kernel) @ src_areas)
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
        ValueError: Too few facets, or a contour that is not star-shaped
            from its area centroid.
    """
    if n_facets < 16:
        raise ValueError("n_facets must be >= 16")
    src_centers, src_areas = _facets(CircleContour(source_radius), n_facets)
    obj_local, obj_areas = _facets(contour, n_facets)
    rotation = pose_rotation(pose)
    obj_centers = obj_local @ rotation[:, :2].T + pose.translation
    normal = -rotation[:, 2]
    area2 = float(obj_areas.sum())

    total = _dsi_sum(obj_centers, obj_areas, src_centers, src_areas, normal)
    return ViewFactor.from_raw(total / area2)
