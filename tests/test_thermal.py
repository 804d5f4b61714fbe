import math
from pathlib import Path

import mpmath
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
    integrate_period,
    integrate_thermal,
    lambdas,
    load_scenario,
    steady_state_temperature,
)
from thermoservo.thermal import PLANT_TOL, STEFAN_BOLTZMANN

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
            ThermalState(t_eq), lambda t: 0.5, aluminum_lambdas, 0.1, 1000, 0.0
        )
        assert np.abs(temps - t_eq).max() < 1e-9

    def test_monotone_approach_to_equilibrium(self, printed_sheet, bench_env):
        lam = lambdas(printed_sheet, bench_env)
        t_eq = steady_state_temperature(0.6, lam)
        start = ThermalState(bench_env.ambient_temp)
        _, temps = integrate_thermal(start, lambda t: 0.6, lam, 1.0, 4000, 0.0)
        assert np.all(np.diff(temps) >= -1e-12)
        assert abs(temps[-1] - t_eq) < 0.01

    def test_fourth_order_convergence(self):
        # fast synthetic plant (seconds-scale time constant) keeps the
        # truncation error well above the roundoff floor
        lam = LambdaParams(lambda1=50.0, lambda2=5e-9, lambda3=10.0)
        start = ThermalState(296.0)
        horizon = 4.0

        def endpoint(dt):
            _, temps = integrate_thermal(start, lambda t: 0.7, lam, dt, int(horizon / dt), 0.0)
            return temps[-1]

        reference = endpoint(1e-4)
        err_coarse = abs(endpoint(0.4) - reference)
        err_fine = abs(endpoint(0.2) - reference)
        assert err_coarse / err_fine == pytest.approx(16.0, rel=0.5)

    def test_divergence_detected(self):
        lam = LambdaParams(lambda1=1.0, lambda2=1e-12, lambda3=0.1)
        # huge negative view factor forces the temperature negative
        with pytest.raises(ThermalDivergenceError):
            integrate_thermal(ThermalState(300.0), lambda t: -1e9, lam, 1.0, 10, 0.0)

    def test_invalid_dt(self, aluminum_lambdas):
        with pytest.raises(ValueError):
            integrate_thermal(ThermalState(300.0), lambda t: 0.5, aluminum_lambdas, -0.1, 5, 0.0)

    def test_multi_object_composition_is_bitwise(self, aluminum, printed_sheet, bench_env):
        """Joint integration of independent objects equals separate runs."""
        lams = [lambdas(aluminum, bench_env), lambdas(printed_sheet, bench_env)]
        profiles = [lambda t: 0.4 + 0.1 * math.sin(t / 50.0), lambda t: 0.6]
        separate = [
            integrate_thermal(ThermalState(300.0), profiles[i], lams[i], 0.5, 200, 0.0)[1]
            for i in range(2)
        ]
        joint = []
        for i in range(2):  # same step schedule, per-object loop
            joint.append(
                integrate_thermal(ThermalState(300.0), profiles[i], lams[i], 0.5, 200, 0.0)[1]
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


# ---------------------------------------------------------------------------
# The step-doubling plant
# ---------------------------------------------------------------------------

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# A synthetic plant with a time constant of about 2 s: a 4 s period needs
# hundreds of steps to meet PLANT_TOL.
STIFF = LambdaParams(lambda1=50.0, lambda2=5e-9, lambda3=10.0)


def shipped_lambdas():
    """Rate parameters of every object of both shipped scenarios."""
    found = []
    for name in ("aluminum_model_based.yaml", "three_sheet_adaptive.yaml"):
        scenario = load_scenario(SCENARIOS / name)
        found += [lambdas(o.material, scenario.environment) for o in scenario.objects]
    return found


def fixed_step(temp, f_start, f_end, lam, t0, period, steps):
    """`integrate_thermal` over one period with F21 linear in time, formed as
    the simulator formed it before the plant picked its own step count."""

    def f_of_time(t):
        return f_start + (f_end - f_start) * (t - t0) / period

    return integrate_thermal(ThermalState(temp), f_of_time, lam, period / steps, steps, t0)[1][-1]


def period_cases(seed, count):
    """(temp, f_start, f_end, t0, period) on the loop's grid of times."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        period = float(rng.choice([0.5, 2.0, 4.0]))
        t0 = float(rng.integers(0, 20000)) * period
        f_start, f_end = (float(v) for v in rng.uniform(0.0, 0.6, 2))
        yield float(rng.uniform(280.0, 420.0)), f_start, f_end, t0, period


def exact_temperature(temp, f21, lam, period):
    """T(period) of dT/dt = lambda2 (T_inf^4 - T^4) from temp, for a
    constant F21, from the implicit closed form
    t = [atanh(T/T_inf) + atan(T/T_inf)] / (2 lambda2 T_inf^3) + const
    (arcoth in place of atanh above T_inf), solved at 40 digits."""
    with mpmath.workdps(40):
        l1, l2, l3 = (mpmath.mpf(v) for v in (lam.lambda1, lam.lambda2, lam.lambda3))
        t_inf = mpmath.root((l1 * mpmath.mpf(f21) + l3) / l2, 4)

        def elapsed(t):
            x = t / t_inf
            return ((mpmath.atanh(x) if x < 1 else mpmath.acoth(x)) + mpmath.atan(x)) / (
                2 * l2 * t_inf**3
            )

        target = elapsed(mpmath.mpf(temp)) + period
        return mpmath.findroot(lambda t: elapsed(t) - target, mpmath.mpf(temp))


class TestIntegratePeriod:
    def test_one_step_equals_integrate_thermal_bitwise(self):
        for lam in shipped_lambdas():
            for temp, f_start, f_end, t0, period in period_cases(1, 40):
                got, steps = integrate_period([temp], [f_start], [f_end], [lam], t0, period, 1)
                assert steps.tolist() == [1]
                assert got[0] == fixed_step(temp, f_start, f_end, lam, t0, period, 1)

    @pytest.mark.parametrize("cap", [3, 8, 20])
    def test_the_cap_equals_integrate_thermal_bitwise(self, cap):
        """A plant too fast to converge below the cap takes the cap's
        fixed-step result."""
        for temp, f_start, f_end, t0, period in period_cases(2, 40):
            got, steps = integrate_period([temp], [f_start], [f_end], [STIFF], t0, period, cap)
            assert steps.tolist() == [cap]
            assert got[0] == fixed_step(temp, f_start, f_end, STIFF, t0, period, cap)

    def test_accepted_count_is_its_fixed_step_result(self):
        """Below the cap the plant returns the fixed-step result of the count
        it accepted, bitwise, for every object of one call."""
        lams = shipped_lambdas()
        cases = list(period_cases(3, 30))
        for temp, f_start, f_end, t0, period in cases:
            k = len(lams)
            got, steps = integrate_period(
                [temp] * k, [f_start] * k, [f_end] * k, lams, t0, period, 20
            )
            assert len(got) == len(steps) == k
            for lam, value, count in zip(lams, got, steps):
                assert 1 < count < 20
                assert value == fixed_step(temp, f_start, f_end, lam, t0, period, int(count))

    def test_stiff_case_climbs_and_meets_the_reference(self):
        got, steps = integrate_period([296.0], [0.7], [0.7], [STIFF], 0.0, 4.0, 1024)
        reference = fixed_step(296.0, 0.7, 0.7, STIFF, 0.0, 4.0, 1024)
        assert 2 < steps[0] < 1024
        assert abs(got[0] - reference) <= PLANT_TOL

    @pytest.mark.parametrize("lam", [STIFF, LambdaParams(1.5e-3, 3.1e-13, 2.4e-3)])
    def test_step_count_never_exceeds_the_cap(self, lam):
        for cap in range(1, 26):
            for temp, f_start, f_end, t0, period in period_cases(cap, 5):
                _, steps = integrate_period([temp], [f_start], [f_end], [lam], t0, period, cap)
                count = int(steps[0])
                assert 1 <= count <= cap
                assert count == cap or count & (count - 1) == 0, (cap, count)

    def test_diverging_step_raises(self):
        lam = LambdaParams(lambda1=1.0, lambda2=1e-12, lambda3=0.1)
        for cap in (1, 8, 20):
            with pytest.raises(ThermalDivergenceError, match="temperature diverged"):
                integrate_period([300.0], [-1e9], [-1e9], [lam], 0.0, 4.0, cap)

    def test_coarse_divergence_below_the_cap_doubles(self):
        """One 4 s step from 1000 K leaves the positive range; the cap's 64
        steps are stable, so the call returns their result instead of
        raising."""
        with pytest.raises(ThermalDivergenceError):
            integrate_period([1000.0], [0.7], [0.7], [STIFF], 0.0, 4.0, 1)
        got, steps = integrate_period([1000.0], [0.7], [0.7], [STIFF], 0.0, 4.0, 64)
        assert steps.tolist() == [64]
        assert got[0] == fixed_step(1000.0, 0.7, 0.7, STIFF, 0.0, 4.0, 64)

    def test_invalid_period_or_cap(self, aluminum_lambdas):
        for period, cap in ((0.0, 8), (-1.0, 8), (4.0, 0)):
            with pytest.raises(ValueError):
                integrate_period([300.0], [0.5], [0.5], [aluminum_lambdas], 0.0, period, cap)


def test_plant_meets_the_closed_form_within_plant_tol():
    """For a constant view factor the plant has an exact implicit solution;
    one call lands within PLANT_TOL of it for every object of both shipped
    scenarios, F21 from 0 to 0.9, starts below and above the steady state
    and periods from 0.5 to 8 s."""
    worst = 0.0
    for lam in shipped_lambdas():
        for f21 in (0.0, 0.3, 0.6, 0.9):
            t_inf = ((lam.lambda1 * f21 + lam.lambda3) / lam.lambda2) ** 0.25
            for temp in (t_inf - 60.0, t_inf - 5.0, t_inf + 5.0, t_inf + 60.0):
                for period in (0.5, 2.0, 4.0, 8.0):
                    got, steps = integrate_period([temp], [f21], [f21], [lam], 0.0, period, 1024)
                    assert steps[0] < 1024
                    error = abs(float(got[0] - exact_temperature(temp, f21, lam, period)))
                    worst = max(worst, error)
                    assert error <= PLANT_TOL, (f21, temp, period, error)
    assert worst > 0.0  # zero would mean the reference repeats the plant's rounding
