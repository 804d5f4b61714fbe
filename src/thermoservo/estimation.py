"""Sliding-window cubic smoothing of noisy discrete temperature samples.

Raw feedback temperatures are too coarse and noisy to difference directly.
A cubic polynomial is least-squares fitted over the 10 newest samples and
evaluated (with its derivative) at the newest timestamp, yielding a
smoothed temperature and temperature-rate estimate. No estimate is emitted
while the window is underfilled; the control loop holds the robot still
during that initialization stage.

The fit is in u = (t - t_newest) / span, span being the window's time
extent, so the newest sample sits at u = 0: the constant coefficient is the
smoothed temperature and the linear one divided by span the rate, and the
Vandermonde matrix stays well conditioned at any absolute time. One window
serves any number of objects sampled at the same times: each sample's
temperature may be a vector, and all columns are fitted in one solve. With
uniform sampling the fit is a fixed linear filter (Savitzky & Golay, Anal.
Chem. 1964).
"""
from __future__ import annotations

from collections import deque

import numpy as np

WINDOW_SIZE = 10
_TERMS = 4  # cubic fit


class SampleWindow:
    """Ring of samples at strictly increasing times; each sample is one
    temperature or a vector of K temperatures taken at that time."""

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
            ValueError: Timestamp not greater than the last one.
        """
        if self._times and time_s <= self._times[-1]:
            raise ValueError(
                f"timestamps must be strictly increasing ({time_s} after {self._times[-1]})"
            )
        self._times.append(float(time_s))
        self._temps.append(np.array(temperature, dtype=float))
        if not self.filled:
            return None
        times = np.array(self._times)
        span = times[-1] - times[0]
        vander = np.vander((times - times[-1]) / span, _TERMS, increasing=True)
        temps = np.array(self._temps)
        coeffs = np.linalg.lstsq(vander, temps, rcond=None)[0]
        t_hat, v_hat = coeffs[0], coeffs[1] / span
        if temps.ndim == 1:
            return float(t_hat), float(v_hat)
        return t_hat, v_hat
