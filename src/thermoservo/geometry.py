"""Frames, rotations, contour parametrizations and source-plane occlusion.

Geometry backbone for all view-factor computations: 6-DOF poses of a planar
object relative to a circular source, closed contours (circles or truncated
Fourier series fitted to boundary polylines), and the classification of how
the object plane cuts the bounded source disk.

Euler convention: angles (theta_x, theta_y, theta_z) compose extrinsically
about the fixed source-frame axes X, then Y, then Z, i.e. R = Rz @ Ry @ Rx.
All tests and scenario files assume this convention.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

# Poses closer than this to the source plane are treated as contact and
# rejected; the physical setup never approaches the source surface.
MIN_SURFACE_CLEARANCE = 1e-6


class DegeneratePoseError(ValueError):
    """Pose places the object surface in (or touching) the source plane."""


def wrap_angle(angle: float) -> float:
    """Wrap an angle to the half-open interval (-pi, pi]."""
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle}")
    return math.pi - (math.pi - angle) % TWO_PI


@dataclass(frozen=True)
class Pose:
    """6-DOF configuration of the object center in the source frame.

    Translations are meters, angles radians. Angles are stored wrapped to
    (-pi, pi]. The source frame has its origin at the source disk center
    with the +z axis along the source normal.
    """

    p1: float
    p2: float
    p3: float
    theta_x: float = 0.0
    theta_y: float = 0.0
    theta_z: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "p3"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("theta_x", "theta_y", "theta_z"):
            object.__setattr__(self, name, wrap_angle(getattr(self, name)))

    @property
    def translation(self) -> np.ndarray:
        return np.array([self.p1, self.p2, self.p3])

    def as_vector(self) -> np.ndarray:
        """Pose as [p1, p2, p3, theta_x, theta_y, theta_z]."""
        return np.array(
            [self.p1, self.p2, self.p3, self.theta_x, self.theta_y, self.theta_z]
        )

    @staticmethod
    def from_vector(x: np.ndarray) -> "Pose":
        return Pose(*(float(v) for v in x))


def _trig(angles) -> tuple[np.ndarray, np.ndarray]:
    """Cosines and sines of (3, ...) angle planes, computed on a contiguous
    copy, so that each value depends only on its own angle, whatever the
    batch around it."""
    a = np.ascontiguousarray(angles, dtype=float)
    return np.cos(a), np.sin(a)


def rotation_planes(angles) -> np.ndarray:
    """Entries of R = Rz @ Ry @ Rx for (3, ...) planes of extrinsic X-Y-Z
    angles, as (3, 3, ...) planes: [i, j] is R[i, j] over the batch.

    The entries are the expanded products, computed elementwise, so each
    matrix depends only on its own angles, whatever the batch around it.
    """
    (cx, cy, cz), (sx, sy, sz) = _trig(angles)
    sy_sx, sy_cx = sy * sx, sy * cx
    r = np.empty((3, 3) + cx.shape)
    r[0, 0], r[0, 1], r[0, 2] = cz * cy, cz * sy_sx - sz * cx, cz * sy_cx + sz * sx
    r[1, 0], r[1, 1], r[1, 2] = sz * cy, sz * sy_sx + cz * cx, sz * sy_cx - cz * sx
    r[2, 0], r[2, 1], r[2, 2] = -sy, cy * sx, cy * cx
    return r


def rotation_derivative_planes(angles) -> np.ndarray:
    """Derivatives dR/dtheta_j of R = Rz @ Ry @ Rx for (3, ...) planes of
    extrinsic X-Y-Z angles, as (3, 3, 3, ...) planes: [j] is dR/dtheta_j.

    Closed form, elementwise as in rotation_planes: dR/dtheta_x =
    Rz @ Ry @ dRx, dR/dtheta_y = Rz @ dRy @ Rx, dR/dtheta_z = dRz @ Ry @ Rx.
    """
    (cx, cy, cz), (sx, sy, sz) = _trig(angles)
    sy_sx, sy_cx, cy_sx, cy_cx = sy * sx, sy * cx, cy * sx, cy * cx
    d = np.zeros((3, 3, 3) + cx.shape)
    dx, dy, dz = d
    dx[0, 1], dx[0, 2] = cz * sy_cx + sz * sx, sz * cx - cz * sy_sx
    dx[1, 1], dx[1, 2] = sz * sy_cx - cz * sx, -(sz * sy_sx + cz * cx)
    dx[2, 1], dx[2, 2] = cy_cx, -cy_sx
    dy[0, 0], dy[0, 1], dy[0, 2] = -cz * sy, cz * cy_sx, cz * cy_cx
    dy[1, 0], dy[1, 1], dy[1, 2] = -sz * sy, sz * cy_sx, sz * cy_cx
    dy[2, 0], dy[2, 1], dy[2, 2] = -cy, -sy_sx, -sy_cx
    dz[0, 0], dz[0, 1], dz[0, 2] = -sz * cy, -(sz * sy_sx + cz * cx), cz * sx - sz * sy_cx
    dz[1, 0], dz[1, 1], dz[1, 2] = cz * cy, cz * sy_sx - sz * cx, cz * sy_cx + sz * sx
    return d


def rotation_from_euler(theta_x: float, theta_y: float, theta_z: float) -> np.ndarray:
    """Rotation matrix for extrinsic X-Y-Z angles, R = Rz @ Ry @ Rx."""
    return rotation_planes(np.array([theta_x, theta_y, theta_z]))


def pose_rotation(pose: Pose) -> np.ndarray:
    return rotation_from_euler(pose.theta_x, pose.theta_y, pose.theta_z)


# ---------------------------------------------------------------------------
# Contours
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CircleContour:
    """Circular boundary of radius `radius` (meters), parametrized by the
    angle omega in [0, 2*pi), counterclockwise in the local plane."""

    radius: float

    def __post_init__(self) -> None:
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be finite and positive, got {self.radius}")

    @property
    def area(self) -> float:
        return math.pi * self.radius**2

    @property
    def period(self) -> float:
        return TWO_PI

    def local_point(self, param: np.ndarray) -> np.ndarray:
        """Local (x, y) boundary points, shape (..., 2)."""
        w = np.asarray(param, dtype=float)
        return np.stack(
            [self.radius * np.cos(w), self.radius * np.sin(w)], axis=-1
        )

    def local_tangent(self, param: np.ndarray) -> np.ndarray:
        """d(point)/d(param), shape (..., 2)."""
        w = np.asarray(param, dtype=float)
        return np.stack(
            [-self.radius * np.sin(w), self.radius * np.cos(w)], axis=-1
        )


@dataclass(frozen=True)
class FourierContour:
    """Closed boundary as a truncated Fourier series in arc length phi in [0, 1).

    Coefficient pairs (beta[j], b[j]) for harmonics j = -F..F enter the local
    coordinates as

        x(phi) = sum_j beta_j sin(2 pi j phi) + b_j cos(2 pi j phi)
        y(phi) = sum_j beta_j cos(2 pi j phi) - b_j sin(2 pi j phi)

    which is the complex series sum_j (b_j + i beta_j) exp(-2 pi i j phi).
    The truncated series is closed by construction. Stored contours are
    counterclockwise (positive enclosed area).
    """

    beta: np.ndarray  # shape (2F+1,), harmonic order j = -F..F
    b: np.ndarray
    harmonics: int

    def __post_init__(self) -> None:
        beta = np.asarray(self.beta, dtype=float)
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "b", b)
        n = 2 * self.harmonics + 1
        if self.harmonics < 1:
            raise ValueError("harmonics must be >= 1")
        if beta.shape != (n,) or b.shape != (n,):
            raise ValueError(f"coefficient arrays must have shape ({n},)")
        if not (np.isfinite(beta).all() and np.isfinite(b).all()):
            raise ValueError("coefficients must be finite")
        if self.area <= 0.0:
            raise ValueError("contour must enclose positive area (counterclockwise)")

    @property
    def orders(self) -> np.ndarray:
        return np.arange(-self.harmonics, self.harmonics + 1)

    @property
    def coefficients(self) -> np.ndarray:
        """Complex coefficients c_j = b_j + i*beta_j."""
        return self.b + 1j * self.beta

    @property
    def area(self) -> float:
        # Signed area of z(phi) = sum c_j exp(-2 pi i j phi) is
        # -pi * sum_j j |c_j|^2 by orthogonality of the harmonics.
        c = self.b + 1j * self.beta
        return float(-math.pi * np.sum(self.orders * np.abs(c) ** 2))

    @property
    def period(self) -> float:
        return 1.0

    def local_point(self, param: np.ndarray) -> np.ndarray:
        phi = np.asarray(param, dtype=float)
        z = np.exp(-2j * math.pi * np.multiply.outer(phi, self.orders)) @ self.coefficients
        return np.stack([z.real, z.imag], axis=-1)

    def local_tangent(self, param: np.ndarray) -> np.ndarray:
        phi = np.asarray(param, dtype=float)
        dc = -2j * math.pi * self.orders * self.coefficients
        dz = np.exp(-2j * math.pi * np.multiply.outer(phi, self.orders)) @ dc
        return np.stack([dz.real, dz.imag], axis=-1)


Contour = CircleContour | FourierContour


# ---------------------------------------------------------------------------
# Fourier fitting
# ---------------------------------------------------------------------------


def _segments_intersect(p1, p2, q1, q2) -> bool:
    """Proper intersection test between segments p1p2 and q1q2."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    return (d1 * d2 < 0.0) and (d3 * d4 < 0.0)


def _is_simple_polygon(points: np.ndarray) -> bool:
    """Pairwise O(n^2) segment test; contours are small so this is fine."""
    n = len(points)
    segs = [(points[i], points[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue  # adjacent segments share an endpoint
            if _segments_intersect(*segs[i], *segs[j]):
                return False
    return True


def fourier_fit(polyline: np.ndarray, harmonics: int) -> FourierContour:
    """Fit a truncated Fourier contour to an ordered closed boundary polyline.

    Points are parametrized by normalized arc length and the coefficient
    pairs solve the least-squares boundary-position residual. The fitted
    contour is normalized to counterclockwise orientation.

    Args:
        polyline: (n, 2) ordered boundary points of a simple closed polygon
            (the closing edge from the last to the first point is implicit).
        harmonics: Harmonic count F >= 1; the series keeps 2F+1 terms.

    Raises:
        ValueError: A non-finite point, fewer than 2F+2 distinct points, a
            self-intersecting polygon, or a degenerate (zero-area) boundary.
    """
    pts = np.asarray(polyline, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("polyline must have shape (n, 2)")
    if harmonics < 1:
        raise ValueError("harmonics must be >= 1")
    if not np.isfinite(pts).all():
        raise ValueError("polyline points must be finite")
    # Drop a duplicated closing point and any consecutive duplicates.
    if len(pts) > 1 and np.allclose(pts[0], pts[-1]):
        pts = pts[:-1]
    keep = np.ones(len(pts), dtype=bool)
    for i in range(1, len(pts)):
        if np.allclose(pts[i], pts[i - 1]):
            keep[i] = False
    pts = pts[keep]
    n = len(pts)
    if n < 2 * harmonics + 2:
        raise ValueError(
            f"need at least {2 * harmonics + 2} distinct points for F={harmonics}, got {n}"
        )
    # Signed polygon area; zero means collinear/degenerate input.
    x, y = pts[:, 0], pts[:, 1]
    signed_area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    if abs(signed_area) < 1e-12 * max(1.0, np.abs(pts).max() ** 2):
        raise ValueError("degenerate boundary: points enclose no area")
    if not _is_simple_polygon(pts):
        raise ValueError("boundary polygon is self-intersecting")
    if signed_area < 0.0:
        pts = pts[::-1]

    closed = np.vstack([pts, pts[:1]])
    seg_len = np.linalg.norm(np.diff(closed, axis=0), axis=1)
    total = float(seg_len.sum())
    phi = np.concatenate([[0.0], np.cumsum(seg_len[:-1])]) / total

    orders = np.arange(-harmonics, harmonics + 1)
    design = np.exp(-2j * math.pi * np.outer(phi, orders))
    z = pts[:, 0] + 1j * pts[:, 1]
    coeffs, *_ = np.linalg.lstsq(design, z, rcond=None)
    return FourierContour(
        beta=coeffs.imag.copy(), b=coeffs.real.copy(), harmonics=harmonics
    )


# ---------------------------------------------------------------------------
# Occlusion classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Common:
    """The whole bounded source disk radiates to the object's front side."""


@dataclass(frozen=True)
class Partial:
    """The object plane cuts the source disk; only the circular segment on
    the object's front side contributes. classify_occlusions gives the ends
    of its arc."""


@dataclass(frozen=True)
class Complete:
    """The source disk sees only the object's back side; the view factor is 0."""


Occlusion = Common | Partial | Complete


class OcclusionArrays(NamedTuple):
    """Occlusion classes of B poses; poses in none of the three masks are
    Common. (lo, hi) is the contributing arc, hi - lo in (0, 2*pi),
    meaningful where `partial` is set."""

    coplanar: np.ndarray
    partial: np.ndarray
    complete: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def classify_occlusions(
    rotations: np.ndarray, translations: np.ndarray, source_radius: float
) -> OcclusionArrays:
    """Batch form of classify_occlusion for (B, 3, 3) rotations and (B, 3)
    translations; elementwise, so each pose's class depends only on that
    pose.

    The object plane meets the source circle where amp cos(phi - psi) = d,
    with psi the direction of the normal's (n0, n1) and amp = R |(n0, n1)|,
    so the source side the object faces is |phi - psi| < delta, delta =
    arccos(d / amp): the arc (lo, hi) = (psi - delta, psi + delta).
    """
    # Contiguous rows, so that the elementwise math takes the same path for
    # a batch of one as for many. Neither is copied for the transposes of
    # (3, 3, B) and (3, B) planes that the view-factor kernel passes.
    n0, n1, n2 = np.ascontiguousarray(-rotations[:, :, 2].T)
    p1, p2, p3 = np.ascontiguousarray(translations.T)
    d = n0 * p1 + n1 * p2 + n2 * p3
    abs_d = np.abs(d)
    amp = source_radius * np.hypot(n0, n1)
    coplanar = (np.abs(p3) < 1e-12) & (amp < 1e-12 * source_radius)
    # The plane cuts the disk only where amp > |d|; otherwise (tangent or
    # non-intersecting chord) the disk is one-sided and the sign of d decides.
    # The margin keeps |d| / amp below 1 - 1e-12, so delta > 1.4e-6.
    partial = amp - abs_d > 1e-12 * np.maximum(np.maximum(amp, abs_d), source_radius)
    lo, hi = np.zeros(len(d)), np.zeros(len(d))
    if np.count_nonzero(partial):
        delta = np.arccos(d[partial] / amp[partial])
        psi = np.arctan2(n1[partial], n0[partial])
        lo[partial], hi[partial] = psi - delta, psi + delta
    # d < 0 means the disk center is on the front side of the object plane.
    complete = ~partial & (d >= 0.0)
    return OcclusionArrays(coplanar, partial, complete, lo, hi)


def classify_occlusion(pose: Pose, source_radius: float) -> Occlusion:
    """Classify how the object plane relates to the bounded source disk.

    Substituting the source circle x = r1 cos(phi), y = r1 sin(phi), z = 0
    into the object plane equation gives a*cos(phi) + b*sin(phi) = d. Two
    real roots with the plane actually cutting the disk yield the partial
    self-obstruction case, whose arc ends classify_occlusions returns.
    Otherwise the whole disk lies on one side of the object plane: the side
    the object normal faces gives the common case, the far side gives
    complete self-obstruction.

    Raises:
        DegeneratePoseError: Object coplanar with the source plane.
        ValueError: Non-positive source radius.
    """
    if source_radius <= 0.0:
        raise ValueError("source_radius must be positive")
    occ = classify_occlusions(pose_rotation(pose)[None], pose.translation[None], source_radius)
    if occ.coplanar[0]:
        raise DegeneratePoseError("object lies in the source plane")
    if occ.partial[0]:
        return Partial()
    return Complete() if occ.complete[0] else Common()
