from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoservo import SampleWindow
from thermoservo.estimation import WINDOW_SIZE, _filter


class TestWindowFilling:
    def test_no_estimate_before_ten_samples(self):
        window = SampleWindow()
        for k in range(9):
            assert window.push_and_estimate(float(k), 300.0) is None
        assert window.push_and_estimate(9.0, 300.0) is not None

    def test_timestamps_must_increase(self):
        window = SampleWindow()
        window.push_and_estimate(0.0, 300.0)
        with pytest.raises(ValueError):
            window.push_and_estimate(0.0, 301.0)
        with pytest.raises(ValueError):
            window.push_and_estimate(-1.0, 301.0)


class TestExactness:
    def test_cubic_signal_recovered_exactly(self):
        window = SampleWindow()
        result = None
        for k in range(10):
            result = window.push_and_estimate(float(k), float(k) ** 3)
        t_hat, v_hat = result
        assert t_hat == pytest.approx(729.0, rel=1e-9)
        assert v_hat == pytest.approx(243.0, rel=1e-9)

    def test_constant_signal(self):
        window = SampleWindow()
        result = None
        for k in range(10):
            result = window.push_and_estimate(float(k), 300.0)
        t_hat, v_hat = result
        assert t_hat == pytest.approx(300.0, abs=1e-10)
        assert v_hat == pytest.approx(0.0, abs=1e-10)

    @given(
        coeffs=st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4),
        t0=st.floats(0.0, 1e4),
    )
    @settings(max_examples=40)
    def test_exact_on_any_cubic(self, coeffs, t0):
        window = SampleWindow()
        result = None
        times = t0 + np.arange(10) * 0.7
        for t in times:
            dt = t - t0
            value = 300.0 + coeffs[0] + coeffs[1] * dt + coeffs[2] * dt**2 + coeffs[3] * dt**3
            result = window.push_and_estimate(float(t), float(value))
        t_hat, v_hat = result
        dt_end = times[-1] - t0
        expected_t = 300.0 + coeffs[0] + coeffs[1] * dt_end + coeffs[2] * dt_end**2 + coeffs[3] * dt_end**3
        expected_v = coeffs[1] + 2 * coeffs[2] * dt_end + 3 * coeffs[3] * dt_end**2
        assert t_hat == pytest.approx(expected_t, rel=1e-9, abs=1e-7)
        assert v_hat == pytest.approx(expected_v, rel=1e-9, abs=1e-7)


class TestNoise:
    def test_seeded_noise_slope_recovery(self):
        rng = np.random.default_rng(42)
        window = SampleWindow()
        errors = []
        for k in range(60):
            t = float(k)
            noisy = 300.0 + 2.0 * t + rng.uniform(-0.1, 0.1)
            result = window.push_and_estimate(t, noisy)
            if result is not None:
                errors.append(abs(result[1] - 2.0))
        assert errors, "window never filled"
        assert max(errors) < 0.15


class TestInvariances:
    @given(shift=st.floats(-50.0, 50.0))
    @settings(max_examples=25)
    def test_temperature_shift(self, shift):
        base, shifted = SampleWindow(), SampleWindow()
        rng = np.random.default_rng(1)
        samples = 300.0 + np.cumsum(rng.uniform(-0.5, 0.5, 10))
        r_base = r_shift = None
        for k in range(10):
            r_base = base.push_and_estimate(float(k), float(samples[k]))
            r_shift = shifted.push_and_estimate(float(k), float(samples[k] + shift))
        assert r_shift[0] - r_base[0] == pytest.approx(shift, abs=1e-8)
        assert r_shift[1] == pytest.approx(r_base[1], abs=1e-9)

    @given(delta=st.floats(-1e4, 1e4))
    @settings(max_examples=25)
    def test_time_translation(self, delta):
        base, shifted = SampleWindow(), SampleWindow()
        rng = np.random.default_rng(2)
        samples = 300.0 + np.cumsum(rng.uniform(-0.5, 0.5, 10))
        r_base = r_shift = None
        for k in range(10):
            r_base = base.push_and_estimate(float(k) * 1.5, float(samples[k]))
            r_shift = shifted.push_and_estimate(float(k) * 1.5 + delta, float(samples[k]))
        assert r_shift[0] == pytest.approx(r_base[0], abs=1e-7)
        assert r_shift[1] == pytest.approx(r_base[1], abs=1e-8)

    def test_sliding_keeps_newest_ten(self):
        window = SampleWindow()
        for k in range(30):
            result = window.push_and_estimate(float(k), 2.0 * k + 300.0)
        assert len(window) == 10
        assert result[1] == pytest.approx(2.0, abs=1e-10)


class TestVectorWindow:
    """One window over K columns sampled at shared times."""

    def test_columns_equal_scalar_windows(self):
        rng = np.random.default_rng(5)
        k_cols = 3
        vector = SampleWindow()
        scalars = [SampleWindow() for _ in range(k_cols)]
        times = 1234.5 + 0.8 * np.arange(40)
        samples = 300.0 + np.cumsum(rng.uniform(-0.5, 0.5, (40, k_cols)), axis=0)
        for t, row in zip(times, samples):
            got = vector.push_and_estimate(float(t), row)
            expected = [w.push_and_estimate(float(t), float(v)) for w, v in zip(scalars, row)]
            if got is None:
                assert all(e is None for e in expected)
                continue
            t_hat, v_hat = got
            assert t_hat.shape == v_hat.shape == (k_cols,)
            np.testing.assert_array_equal(t_hat, [e[0] for e in expected])
            np.testing.assert_array_equal(v_hat, [e[1] for e in expected])

    @pytest.mark.parametrize("k_cols", [None, 1, 4])
    def test_cubic_exact_for_both_shapes(self, k_cols):
        rng = np.random.default_rng(11)
        shape = (4,) if k_cols is None else (4, k_cols)
        c = rng.uniform(-5.0, 5.0, shape)
        window = SampleWindow()
        times = 5e3 + np.arange(10) * 0.7
        result = None
        for t in times:
            dt = t - times[0]
            value = 300.0 + c[0] + c[1] * dt + c[2] * dt**2 + c[3] * dt**3
            result = window.push_and_estimate(float(t), value)
        dt = times[-1] - times[0]
        expected_t = 300.0 + c[0] + c[1] * dt + c[2] * dt**2 + c[3] * dt**3
        expected_v = c[1] + 2 * c[2] * dt + 3 * c[3] * dt**2
        np.testing.assert_allclose(result[0], expected_t, rtol=1e-9, atol=1e-7)
        np.testing.assert_allclose(result[1], expected_v, rtol=1e-9, atol=1e-7)

    def test_columns_equal_scalar_windows_after_the_ring_wraps(self):
        """47 pushes wrap the (K, 2W) ring's slots four times; every estimate
        of the K-column window still equals, bit for bit, those of K
        one-column windows."""
        rng = np.random.default_rng(17)
        k_cols, pushes = 3, 47
        assert pushes > 4 * WINDOW_SIZE
        vector = SampleWindow()
        scalars = [SampleWindow() for _ in range(k_cols)]
        samples = 300.0 + np.cumsum(rng.normal(size=(pushes, k_cols)), axis=0)
        for k, row in enumerate(samples):
            t = 0.25 + 2.0 * k
            got = vector.push_and_estimate(t, row)
            expected = [w.push_and_estimate(t, float(x)) for w, x in zip(scalars, row)]
            if k < WINDOW_SIZE - 1:
                assert got is None and expected == [None] * k_cols
                continue
            assert got[0].tolist() == [e[0] for e in expected]
            assert got[1].tolist() == [e[1] for e in expected]

    def test_a_sample_of_another_shape_is_rejected(self):
        window = SampleWindow()
        window.push_and_estimate(0.0, [300.0, 301.0])
        for bad in (300.0, [300.0, 301.0, 302.0]):
            with pytest.raises(ValueError, match="sample shape"):
                window.push_and_estimate(1.0, bad)
        assert len(window) == 1

    def test_scalar_input_gives_python_floats(self):
        window = SampleWindow()
        for k in range(10):
            result = window.push_and_estimate(float(k), np.float64(300.0 + k))
        assert type(result[0]) is float and type(result[1]) is float


def lstsq_estimate(times, temps):
    """The cubic least-squares fit the filter replaces, solved on the
    window's own times: (T_hat, v_hat) at the newest sample."""
    times = np.asarray(times)
    span = times[-1] - times[0]
    vander = np.vander((times - times[-1]) / span, 4, increasing=True)
    coeffs = np.linalg.lstsq(vander, np.asarray(temps), rcond=None)[0]
    return coeffs[0], coeffs[1] / span


# Evenly spaced windows as the loop pushes them: a period, a start time and
# K columns (None: a scalar sample), pushed 10 to 25 times.
evenly_spaced_runs = st.tuples(
    st.floats(0.05, 4.0),
    st.floats(0.0, 1e5),
    st.sampled_from([None, 1, 2, 3, 4]),
    st.integers(10, 25),
    st.integers(0, 2**32 - 1),
)


def _on_binary_grid(run):
    """The run with its period and start rounded to multiples of 2^-16 s:
    every time start + k * period is then exact, and so is each window's
    u = (t - t_newest) / span = (j - 9) / 9, the u the filter is built on."""
    period, start, *rest = run
    return (round(period * 2**16) / 2**16, round(start * 2**16) / 2**16, *rest)


exact_time_runs = evenly_spaced_runs.map(_on_binary_grid)


def run_samples(period, start, k_cols, count, seed):
    """Times start + k * period and a random walk around 300 K whose step
    size is drawn per run."""
    rng = np.random.default_rng(seed)
    times = [start + k * period for k in range(count)]
    shape = (count,) if k_cols is None else (count, k_cols)
    temps = 300.0 + np.cumsum(rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 1), axis=0)
    return times, temps


class TestFixedFilter:
    """The fixed filter against the least-squares solve it replaces."""

    @given(exact_time_runs)
    @settings(max_examples=60, deadline=None)
    def test_filter_matches_lstsq_on_exact_times(self, run):
        """On exact times the solve and the filter see the same u, so the
        1e-12 bounds their arithmetic."""
        self._check_against_lstsq(run, 1e-12)

    @given(evenly_spaced_runs)
    @settings(max_examples=60, deadline=None)
    def test_filter_matches_lstsq_on_rounded_times(self, run):
        """Rounded times sit up to half an ulp of t off the even grid, which
        the solve sees and the filter does not: at start times up to 1e5 s
        and periods down to 0.05 s that is 1.6e-11 of the span. The bound is
        the window's spacing tolerance, 1e-9."""
        self._check_against_lstsq(run, 1e-9)

    @staticmethod
    def _check_against_lstsq(run, rtol):
        """Every estimate of the run within rtol of the window's largest
        temperature on T_hat, and of that over the span on v_hat."""
        times, temps = run_samples(*run)
        window = SampleWindow()
        for k, (t, temp) in enumerate(zip(times, temps)):
            got = window.push_and_estimate(t, temp)
            if k < 9:
                assert got is None
                continue
            last = slice(k - 9, k + 1)
            t_ref, v_ref = lstsq_estimate(times[last], temps[last])
            scale = np.abs(temps[last]).max()
            span = times[k] - times[k - 9]
            np.testing.assert_allclose(got[0], t_ref, rtol=0.0, atol=rtol * scale)
            np.testing.assert_allclose(got[1], v_ref, rtol=0.0, atol=rtol * scale / span)

    @given(evenly_spaced_runs)
    @settings(max_examples=60, deadline=None)
    def test_columns_equal_scalar_windows_bit_for_bit(self, run):
        period, start, k_cols, count, seed = run
        times, temps = run_samples(period, start, k_cols or 1, count, seed)
        vector = SampleWindow()
        scalars = [SampleWindow() for _ in range(temps.shape[1])]
        for t, row in zip(times, temps):
            got = vector.push_and_estimate(t, row)
            expected = [w.push_and_estimate(t, float(v)) for w, v in zip(scalars, row)]
            if got is None:
                assert expected == [None] * len(scalars)
                continue
            np.testing.assert_array_equal(got[0], [e[0] for e in expected])
            np.testing.assert_array_equal(got[1], [e[1] for e in expected])

    @given(
        evenly_spaced_runs,
        st.floats(1e-6, 0.9) | st.floats(-0.9, -1e-6),
    )
    @settings(max_examples=60, deadline=None)
    def test_uneven_push_is_rejected_and_not_stored(self, run, offset):
        """A push `offset` periods off the even spacing raises; the next
        evenly spaced push estimates as if the bad one never came."""
        times, temps = run_samples(*run)
        period = run[0]
        window, clean = SampleWindow(), SampleWindow()
        for t, temp in zip(times[:-1], temps[:-1]):
            window.push_and_estimate(t, temp)
            clean.push_and_estimate(t, temp)
        with pytest.raises(ValueError, match="evenly spaced"):
            window.push_and_estimate(times[-1] + offset * period, temps[-1])
        assert len(window) == len(clean)
        got = window.push_and_estimate(times[-1], temps[-1])
        expected = clean.push_and_estimate(times[-1], temps[-1])
        assert got is not None
        np.testing.assert_array_equal(got, expected)

    def test_no_solver_runs_per_push(self, monkeypatch):
        """The filter is built once, on the first full window."""
        _filter()

        def no_solver(*args, **kwargs):
            raise AssertionError("a solver ran during a push")

        for module, name in ((np.linalg, "lstsq"), (np.linalg, "pinv"), (np.linalg, "solve"),
                             (np.linalg, "qr"), (np.linalg, "svd"), (np, "vander")):
            monkeypatch.setattr(module, name, no_solver)
        window = SampleWindow()
        estimates = [window.push_and_estimate(2.0 * k, [300.0 + k, 310.0]) for k in range(12)]
        assert all(e is not None for e in estimates[9:])


def _determinant(matrix):
    """Exact determinant by cofactor expansion along the first row."""
    if len(matrix) == 1:
        return matrix[0][0]
    return sum(
        (-1) ** c * matrix[0][c] * _determinant([row[:c] + row[c + 1:] for row in matrix[1:]])
        for c in range(len(matrix))
    )


def test_filter_entries_are_the_exact_fractions_to_rounding():
    """Each filter entry lies within 2e-14 of its exact rational: the normal
    equations (V^T V) c = V^T e_j solved by Cramer's rule for every unit
    sample e_j, at u_j = (j - 9) / 9. (LAPACK's pseudoinverse misses the
    correctly rounded value of each entry by up to 1.8e-14.)"""
    u = [Fraction(j - 9, 9) for j in range(WINDOW_SIZE)]
    vander = [[x**p for p in range(4)] for x in u]
    gram = [[sum(r[a] * r[b] for r in vander) for b in range(4)] for a in range(4)]
    det = _determinant(gram)
    exact = [
        [
            _determinant([g[:a] + [vander[j][row]] + g[a + 1:] for row, g in enumerate(gram)])
            / det
            for j in range(WINDOW_SIZE)
        ]
        for a in range(2)
    ]
    assert exact[0][:3] == [Fraction(-56, 715), Fraction(49, 715), Fraction(64, 715)]
    assert exact[1][:3] == [Fraction(-291, 143), Fraction(389, 286), Fraction(641, 286)]
    # The rows reproduce every cubic: value and slope at u = 0.
    for p in range(4):
        assert [sum(e[j] * vander[j][p] for j in range(WINDOW_SIZE)) for e in exact] == [
            int(p == 0), int(p == 1)
        ]
    filter_rows = _filter()
    assert filter_rows.shape == (2, 1, WINDOW_SIZE)
    for a in range(2):
        for j in range(WINDOW_SIZE):
            assert abs(Fraction(float(filter_rows[a, 0, j])) - exact[a][j]) <= 2e-14, (a, j)
