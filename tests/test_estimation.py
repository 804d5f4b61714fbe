import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoservo import SampleWindow


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
        times = 1234.5 + np.cumsum(rng.uniform(0.5, 1.5, 40))
        samples = 300.0 + np.cumsum(rng.uniform(-0.5, 0.5, (40, k_cols)), axis=0)
        for t, row in zip(times, samples):
            got = vector.push_and_estimate(float(t), row)
            expected = [w.push_and_estimate(float(t), float(v)) for w, v in zip(scalars, row)]
            if got is None:
                assert all(e is None for e in expected)
                continue
            t_hat, v_hat = got
            assert t_hat.shape == v_hat.shape == (k_cols,)
            np.testing.assert_allclose(t_hat, [e[0] for e in expected], rtol=1e-12)
            np.testing.assert_allclose(v_hat, [e[1] for e in expected], rtol=1e-12, atol=1e-12)

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

    def test_scalar_input_gives_python_floats(self):
        window = SampleWindow()
        for k in range(10):
            result = window.push_and_estimate(float(k), np.float64(300.0 + k))
        assert type(result[0]) is float and type(result[1]) is float
