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
and the fit is one fixed linear filter, built once, on the first full
window (Savitzky & Golay, Anal. Chem. 1964); a push that breaks the
spacing is rejected. One window serves any number of objects sampled at
the same times: each sample's temperature may be a vector of K columns, and
each column sums its products in the same order, so a K-column window
gives, bit for bit, what K one-column windows give.
"""
from __future__ import annotations

import functools
from collections import deque

import numpy as np

WINDOW_SIZE = 10


@functools.cache
def _filter() -> np.ndarray:
    """Rows (T_hat, span * v_hat) of the cubic fit: the first two rows of the
    pseudoinverse of the window's Vandermonde matrix, shaped (2, 1, window)
    to meet a (K, window) stack of columns. Built on the first full window,
    so a process that never estimates makes no LAPACK call for it."""
    u = np.arange(1 - WINDOW_SIZE, 1) / (WINDOW_SIZE - 1)
    rows = np.linalg.pinv(np.vander(u, 4, increasing=True))[:2, None, :]
    rows.flags.writeable = False  # one array serves every window
    return rows


# Largest deviation of a sample time from even spacing, as a share of the
# window's span.
_SPACING_TOL = 1e-9


class SampleWindow:
    """Ring of samples at strictly increasing, evenly spaced times; each
    sample is one temperature or a vector of K temperatures taken at that
    time."""

    def __init__(self) -> None:
        self._times: deque[float] = deque(maxlen=WINDOW_SIZE)
        self._temps: deque[np.ndarray] = deque(maxlen=WINDOW_SIZE)

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
            ValueError: Timestamp not greater than the last one, or one
                that leaves the window's times unevenly spaced by more than
                1e-9 of its span. The sample is not stored.
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
        self._times.append(time_s)
        self._temps.append(np.array(temperature, dtype=float))
        if not self.filled:
            return None
        temps = np.array(self._temps)
        # The window axis last and contiguous: every column sums in one order.
        fit = np.sum(_filter() * np.ascontiguousarray(temps.T), axis=-1)  # (2, K or 1)
        t_hat, v_hat = fit[0], fit[1] / span
        if temps.ndim == 1:
            return float(t_hat[0]), float(v_hat[0])
        return t_hat, v_hat
