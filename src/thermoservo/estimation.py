"""Sliding-window cubic smoothing of noisy discrete temperature samples.

Raw feedback temperatures are too coarse and noisy to difference directly.
A cubic polynomial is least-squares fitted over the 10 newest samples and
evaluated (with its derivative) at the newest timestamp, yielding a
smoothed temperature and temperature-rate estimate. No estimate is emitted
while the window is underfilled; the control loop holds the robot still
during that initialization stage.

The fit is in u = (t - t_newest) / span, span being the window's time
extent, so the newest sample sits at u = 0: the constant coefficient is the
smoothed temperature and the linear one divided by span the rate. Samples
come at evenly spaced times, so a full window's u are always (j - 9) / 9
and the fit is one fixed linear filter, a table of constants (Savitzky &
Golay, Anal. Chem. 1964); a push that breaks the spacing is rejected. One
window serves any number of objects sampled at the same times: each
sample's temperature may be a vector of K columns, and each column sums its
products in the same order, so a K-column window gives, bit for bit, what K
one-column windows give.
"""
from __future__ import annotations

from collections import deque

import numpy as np

WINDOW_SIZE = 10


# Rows (T_hat, span * v_hat) of the cubic fit at u_j = (j - 9) / 9: the
# first two rows of the pseudoinverse of the window's Vandermonde matrix, as
# LAPACK's pinv gave them on OpenBLAS's SkylakeX kernel. Each lies within
# 2e-14 of its exact rational; a constant table keeps every host's bits.
_FILTER_HEX = (
    (
        "-0x1.40ce3b6f59d13p-4", "0x1.18b474016e9d0p-4", "0x1.6ea28d118b424p-4",
        "0x1.12f9e9cd286e3p-5", "-0x1.9c76deb3bcbb1p-5", "-0x1.d005ba8a34496p-4",
        "-0x1.b3610784d5677p-4", "0x1.40ce3b6f59e2ep-6", "0x1.40ce3b6f59dfep-2",
        "0x1.a5c5ff48aeba3p-1",
    ),
    (
        "-0x1.0479bbf8d6d28p+1", "0x1.5c32203949612p+0", "0x1.1ee19101ca4bep+1",
        "0x1.6a11e6efe35fap+0", "-0x1.423cddfc6b645p-2", "-0x1.11e6efe35b4cfp+1",
        "-0x1.a0abdc32203afp+1", "-0x1.6d6d33ea847b0p+1", "-0x1.101ca4b30558ep-3",
        "0x1.6ddfc6b699f5fp+2",
    ),
)


# The filter rows shaped (2, 1, window), to meet a (K, window) stack of
# columns; one read-only array serves every window.
_FILTER = np.array([[float.fromhex(h) for h in row] for row in _FILTER_HEX])[:, None, :]
_FILTER.flags.writeable = False


# Largest deviation of a sample time from even spacing, as a share of the
# window's span.
_SPACING_TOL = 1e-9


class SampleWindow:
    """Ring of samples at strictly increasing, evenly spaced times; each
    sample is one temperature or a vector of K temperatures taken at that
    time."""

    def __init__(self) -> None:
        self._times: deque[float] = deque(maxlen=WINDOW_SIZE)
        # Sample k sits in columns k % W and k % W + W of a (K, 2W) ring, so
        # the newest W samples are always one contiguous slice, oldest first.
        self._ring: np.ndarray | None = None
        self._shape: tuple[int, ...] = ()  # the first sample's
        self._pushed = 0

    def __len__(self) -> int:
        return len(self._times)

    @property
    def filled(self) -> bool:
        return len(self._times) == WINDOW_SIZE

    def push_and_estimate(self, time_s: float, temperature):
        """Insert a sample; return (T_hat, v_hat) once the window is full.

        A float sample gives a pair of floats; a length-K vector gives a
        pair of length-K arrays, one entry per column.

        Raises:
            ValueError: Timestamp not greater than the last one, one that
                leaves the window's times unevenly spaced by more than 1e-9
                of its span, or a sample whose shape differs from the first
                one's. The sample is not stored.
        """
        time_s = float(time_s)
        if self._times and time_s <= self._times[-1]:
            raise ValueError(
                f"timestamps must be strictly increasing ({time_s} after {self._times[-1]})"
            )
        times = [*self._times, time_s][-WINDOW_SIZE:]
        span = time_s - times[0]
        step = span / max(len(times) - 1, 1)
        if any(abs(t - times[0] - j * step) > _SPACING_TOL * span for j, t in enumerate(times)):
            raise ValueError(f"timestamps must be evenly spaced ({time_s} after {times[:-1]})")
        sample = np.asarray(temperature, dtype=float)
        if self._ring is None:
            self._shape = sample.shape
            self._ring = np.empty((sample.size, 2 * WINDOW_SIZE))
        elif sample.shape != self._shape:
            raise ValueError(f"sample shape {sample.shape} differs from {self._shape}")
        slot = self._pushed % WINDOW_SIZE
        self._ring[:, slot] = self._ring[:, slot + WINDOW_SIZE] = sample
        self._pushed += 1
        self._times.append(time_s)
        if not self.filled:
            return None
        # The window axis last and contiguous: every column sums in one order.
        window = self._ring[:, slot + 1 : slot + 1 + WINDOW_SIZE]
        fit = (_FILTER * window).sum(axis=-1)  # (2, K or 1)
        t_hat, v_hat = fit[0], fit[1] / span
        if not self._shape:
            return float(t_hat[0]), float(v_hat[0])
        return t_hat, v_hat
