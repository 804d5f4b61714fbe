import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoservo import (
    Environment,
    LambdaParams,
    ThermalDivergenceError,
    ThermalState,
    ThermoParams,
    integrate_thermal,
    lambdas,
    steady_state_temperature,
)
from thermoservo.thermal import STEFAN_BOLTZMANN

from conftest import temperature_rate


def reference_lambdas(obj: ThermoParams, env: Environment):
    """Straight transcription of the rate-parameter definitions."""
    l1 = (
        obj.area
        * obj.absorptance
        * STEFAN_BOLTZMANN
        * (env.source_emittance * env.source_temp**4 - env.ambient_temp**4)
        / (obj.mass * obj.specific_heat)
    )
    l2 = obj.area * obj.emittance * STEFAN_BOLTZMANN / (obj.mass * obj.specific_heat)
    l3 = (
        obj.area
        * obj.absorptance
        * STEFAN_BOLTZMANN
        * env.ambient_temp**4
        / (obj.mass * obj.specific_heat)
    )
    return l1, l2, l3


class TestLambdas:
    def test_bench_aluminum_values(self, aluminum, bench_env):
        lam = lambdas(aluminum, bench_env)
        # disk: m = rho * pi r^2 * t = 2702 * pi * 0.015^2 * 0.003
        assert lam.lambda2 == pytest.approx(3.10e-13, rel=0.01)
        assert lam.lambda1 == pytest.approx(1.50e-3, rel=0.01)
        assert lam.lambda3 == pytest.approx(2.38e-3, rel=0.01)

    def test_matches_reference_formulas(self, aluminum, bench_env):
        lam = lambdas(aluminum, bench_env)
        l1, l2, l3 = reference_lambdas(aluminum, bench_env)
        assert lam.lambda1 == pytest.approx(l1, rel=1e-14)
        assert lam.lambda2 == pytest.approx(l2, rel=1e-14)
        assert lam.lambda3 == pytest.approx(l3, rel=1e-14)

    def test_cold_source_rejected(self, aluminum):
        # eps1 T1^4 == T3^4 exactly at the validity boundary
        t3 = 296.15
        t1 = t3 / 0.25**0.25
        env = Environment(source_temp=t1, source_emittance=0.25, ambient_temp=t3)
        with pytest.raises(ValueError):
            lambdas(aluminum, env)

    def test_homogeneous_in_mass_and_area(self, aluminum, bench_env):
        doubled = ThermoParams(
            emittance=aluminum.emittance,
            absorptance=aluminum.absorptance,
            specific_heat=aluminum.specific_heat,
            mass=2 * aluminum.mass,
            area=2 * aluminum.area,
        )
        lam = lambdas(aluminum, bench_env)
        lam2 = lambdas(doubled, bench_env)
        assert lam2.lambda1 == pytest.approx(lam.lambda1, rel=1e-14)
        assert lam2.lambda2 == pytest.approx(lam.lambda2, rel=1e-14)
        assert lam2.lambda3 == pytest.approx(lam.lambda3, rel=1e-14)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ThermoParams(1.5, 0.5, 900.0, 0.01, 1e-3)
        with pytest.raises(ValueError):
            ThermoParams(0.5, 0.5, 900.0, -0.01, 1e-3)
        with pytest.raises(ValueError):
            Environment(source_temp=300.0, source_emittance=0.25, ambient_temp=400.0)
        with pytest.raises(ValueError):
            LambdaParams(0.0, 1e-13, 1e-3)


class TestTemperatureRate:
    def test_zero_at_steady_state(self, aluminum_lambdas):
        t_eq = steady_state_temperature(0.4, aluminum_lambdas)
        assert abs(temperature_rate(0.4, t_eq, aluminum_lambdas)) < 1e-12

    def test_ambient_equilibrium_without_source_view(self, aluminum, bench_env):
        # F=0 and T2=T3 with equal emittance/absorptance: lambda3 cancels
        lam = lambdas(aluminum, bench_env)
        assert temperature_rate(0.0, bench_env.ambient_temp, lam) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_explicit_substitution(self, aluminum, bench_env):
        lam = lambdas(aluminum, bench_env)
        l1, l2, l3 = reference_lambdas(aluminum, bench_env)
        expected = l1 * 0.37 - l2 * 296.15**4 + l3
        assert expected > 0.0
        assert temperature_rate(0.37, 296.15, lam) == pytest.approx(expected, rel=1e-14)

    @given(f21=st.floats(0.0, 0.99), temp=st.floats(250.0, 340.0))
    @settings(max_examples=60)
    def test_sign_matches_steady_state_comparison(self, f21, temp, aluminum_lambdas):
        t_eq = steady_state_temperature(f21, aluminum_lambdas)
        v = temperature_rate(f21, temp, aluminum_lambdas)
        if temp < t_eq - 1e-9:
            assert v > 0.0
        elif temp > t_eq + 1e-9:
            assert v < 0.0

    def test_positive_temperature_required(self, aluminum_lambdas):
        with pytest.raises(ValueError):
            temperature_rate(0.4, -10.0, aluminum_lambdas)


class TestIntegrateThermal:
    def test_equilibrium_is_fixed_point(self, aluminum_lambdas):
        t_eq = steady_state_temperature(0.5, aluminum_lambdas)
        _, temps = integrate_thermal(
            ThermalState(t_eq), lambda t: 0.5, aluminum_lambdas, 0.1, 1000
        )
        assert np.abs(temps - t_eq).max() < 1e-9

    def test_monotone_approach_to_equilibrium(self, printed_sheet, bench_env):
        lam = lambdas(printed_sheet, bench_env)
        t_eq = steady_state_temperature(0.6, lam)
        start = ThermalState(bench_env.ambient_temp)
        _, temps = integrate_thermal(start, lambda t: 0.6, lam, 1.0, 4000)
        assert np.all(np.diff(temps) >= -1e-12)
        assert abs(temps[-1] - t_eq) < 0.01

    def test_fourth_order_convergence(self):
        # fast synthetic plant (seconds-scale time constant) keeps the
        # truncation error well above the roundoff floor
        lam = LambdaParams(lambda1=50.0, lambda2=5e-9, lambda3=10.0)
        start = ThermalState(296.0)
        horizon = 4.0

        def endpoint(dt):
            _, temps = integrate_thermal(start, lambda t: 0.7, lam, dt, int(horizon / dt))
            return temps[-1]

        reference = endpoint(1e-4)
        err_coarse = abs(endpoint(0.4) - reference)
        err_fine = abs(endpoint(0.2) - reference)
        assert err_coarse / err_fine == pytest.approx(16.0, rel=0.5)

    def test_divergence_detected(self):
        lam = LambdaParams(lambda1=1.0, lambda2=1e-12, lambda3=0.1)
        # huge negative view factor forces the temperature negative
        with pytest.raises(ThermalDivergenceError):
            integrate_thermal(ThermalState(300.0), lambda t: -1e9, lam, 1.0, 10)

    def test_invalid_dt(self, aluminum_lambdas):
        with pytest.raises(ValueError):
            integrate_thermal(ThermalState(300.0), lambda t: 0.5, aluminum_lambdas, -0.1, 5)

    def test_multi_object_composition_is_bitwise(self, aluminum, printed_sheet, bench_env):
        """Joint integration of independent objects equals separate runs."""
        lams = [lambdas(aluminum, bench_env), lambdas(printed_sheet, bench_env)]
        profiles = [lambda t: 0.4 + 0.1 * math.sin(t / 50.0), lambda t: 0.6]
        separate = [
            integrate_thermal(ThermalState(300.0), profiles[i], lams[i], 0.5, 200)[1]
            for i in range(2)
        ]
        joint = []
        for i in range(2):  # same step schedule, per-object loop
            joint.append(
                integrate_thermal(ThermalState(300.0), profiles[i], lams[i], 0.5, 200)[1]
            )
        for a, b in zip(separate, joint):
            assert np.array_equal(a, b)

    def test_float_stages_match_numpy_scalar_stages_bitwise(self, printed_sheet, bench_env):
        """The stage loop equals, bit for bit, a loop whose times and
        temperatures are numpy scalars, as the loop's view factor is fed."""
        lam = lambdas(printed_sheet, bench_env)

        def numpy_scalar_loop(temp, f21_of_t, dt, steps, t0):
            def rate(f21, temp_k):
                return lam.lambda1 * f21 - lam.lambda2 * temp_k**4 + lam.lambda3

            times = t0 + dt * np.arange(steps + 1)
            temps = np.empty(steps + 1)
            temps[0] = temp
            for k in range(steps):
                t = times[k]
                k1 = rate(f21_of_t(t), temp)
                k2 = rate(f21_of_t(t + 0.5 * dt), temp + 0.5 * dt * k1)
                k3 = rate(f21_of_t(t + 0.5 * dt), temp + 0.5 * dt * k2)
                k4 = rate(f21_of_t(t + dt), temp + dt * k3)
                temp += dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                temps[k + 1] = temp
            return times, temps

        rng = np.random.default_rng(7)
        for _ in range(50):
            t0 = float(rng.integers(0, 4000)) * 0.7
            a, b = (float(v) for v in rng.uniform(0.0, 0.6, 2))

            def f_of_time(t, a=a, b=b, t0=t0):
                return a + (b - a) * (t - t0) / 0.7

            temp = np.float64(rng.uniform(280.0, 420.0))
            dt, steps = 0.7 / 7, 7
            expected = numpy_scalar_loop(temp, f_of_time, dt, steps, t0)
            got = integrate_thermal(ThermalState(temp), f_of_time, lam, dt, steps, t0=t0)
            assert np.array_equal(got[0], expected[0])
            assert np.array_equal(got[1], expected[1])
