import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from gaussnm import (
    EnvironmentSpec,
    QbmChannel,
    build_coefficients,
    divisibility_check,
    write_coefficients_csv,
)
from gaussnm import spectral
from gaussnm.states import fidelity_arrays, pair_invariants
from helpers import coefficients_from_functions
from quad_oracle import (
    QuadratureError,
    _omega_cut,
    _thermal_occupancy_weight,
    delta_coefficient,
    delta_thermal,
    delta_zero_temperature,
    gamma_coefficient,
)

ENV_REF = EnvironmentSpec(omega0=1.0, omega_c=0.2, temperature=0.2)


def brute_force_gamma(t, env, pieces=400):
    """2-d quadrature of the damping integrand, omega truncated at e^-12 decay."""
    wmax = env.omega_c * math.log(1e12)

    def inner(s):
        val, _ = quad(lambda w: w * np.exp(-w / env.omega_c) * np.sin(w * s),
                      0.0, wmax, limit=pieces)
        return val * np.sin(env.omega0 * s)

    val, _ = quad(inner, 0.0, t, limit=pieces)
    return val


def brute_force_delta(t, env, pieces=400):
    wmax = max(env.omega_c, env.temperature) * math.log(1e12) + 10 * max(
        env.omega_c, env.temperature)

    temp = env.temperature
    # the thermal peak sits near w ~ T, far below wmax at low T
    peaks = [temp, 10.0 * temp] if temp > 0.0 else None

    def occupancy(w):
        if temp == 0.0:
            return 0.5
        # N(w) = e^{-w/T} / (1 - e^{-w/T}): no overflow for w >> T
        return math.exp(-w / temp) / -math.expm1(-w / temp) + 0.5

    def inner(s):
        val, _ = quad(
            lambda w: w * np.exp(-w / env.omega_c) * occupancy(w) * np.cos(w * s),
            0.0, wmax, limit=pieces, points=peaks)
        return val * np.cos(env.omega0 * s)

    val, _ = quad(inner, 0.0, t, limit=pieces)
    return val


class TestCoefficients:
    def test_zero_time(self):
        assert gamma_coefficient(0.0, ENV_REF) == 0.0
        assert delta_coefficient(0.0, ENV_REF) == 0.0

    def test_gamma_temperature_independent(self):
        env_cold = EnvironmentSpec(omega0=1.0, omega_c=0.2, temperature=0.0)
        env_hot = EnvironmentSpec(omega0=1.0, omega_c=0.2, temperature=10.0)
        for t in (0.5, 2.0, 7.0):
            assert gamma_coefficient(t, env_cold) == gamma_coefficient(t, env_hot)

    def test_gamma_against_brute_force(self):
        env = EnvironmentSpec(omega0=1.0, omega_c=0.2)
        t = 5.0
        semi = gamma_coefficient(t, env)
        brute = brute_force_gamma(t, env)
        assert semi == pytest.approx(brute, rel=1e-6)

    def test_delta_is_zero_point_part_at_t0(self):
        env = EnvironmentSpec(omega0=1.0, omega_c=0.2, temperature=0.0)
        for t in (1.0, 4.0):
            assert delta_thermal(t, env) == 0.0
            assert delta_coefficient(t, env) == delta_zero_temperature(t, env)

    def test_delta_against_brute_force(self):
        t = 4.0
        semi = delta_coefficient(t, ENV_REF)
        brute = brute_force_delta(t, ENV_REF)
        assert semi == pytest.approx(brute, rel=1e-6)
        # low temperature, T / omega_c = 0.005 and 0.01
        for temp in (0.001, 0.002):
            env = EnvironmentSpec(omega0=1.0, omega_c=0.2, temperature=temp)
            for t in (1.0, 3.0, 8.0):
                assert delta_coefficient(t, env) == pytest.approx(
                    brute_force_delta(t, env), rel=1e-6)

    def test_semi_analytic_vs_brute_force_sample(self):
        # 20-point (t, env) sample across frequency/temperature regimes
        sample = [
            (t, EnvironmentSpec(omega0=w0, omega_c=wc, temperature=tt))
            for t in (1.0, 3.0, 8.0, 15.0)
            for (w0, wc, tt) in [(1.0, 0.2, 0.2), (4.0, 1.0, 0.0),
                                 (1.0, 1.0, 1.0), (6.0, 1.0, 4.0),
                                 (1.0, 0.3, 0.5)]
        ][:20]
        for t, env in sample:
            g = gamma_coefficient(t, env)
            d = delta_coefficient(t, env)
            gb = brute_force_gamma(t, env)
            db = brute_force_delta(t, env)
            scale_g = max(abs(gb), 1e-3)
            scale_d = max(abs(db), 1e-3)
            assert abs(g - gb) / scale_g <= 1e-6
            assert abs(d - db) / scale_d <= 1e-6

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            gamma_coefficient(-1.0, ENV_REF)
        with pytest.raises(ValueError):
            delta_coefficient(-1.0, ENV_REF)

    def test_high_temperature_linearity(self):
        # thermal part doubles with T once k_B T dominates every energy scale
        env1 = EnvironmentSpec(omega0=1.0, omega_c=1.0, temperature=40.0)
        env2 = EnvironmentSpec(omega0=1.0, omega_c=1.0, temperature=80.0)
        for t in (0.8, 1.6, 3.0):
            d1 = delta_thermal(t, env1)
            d2 = delta_thermal(t, env2)
            assert abs(d1) > 1.0  # away from zero crossings
            assert abs(d2 / d1 - 2.0) <= 0.02

    @pytest.mark.parametrize("omega0, omega_c", [(4.0, 1.0), (1.0, 0.2)])
    def test_gauss_legendre_delta_zero_matches_quadpack(self, omega0, omega_c):
        # the package's Delta_0 (perfbench's T = 0 reference) against QAWO
        env = EnvironmentSpec(omega0=omega0, omega_c=omega_c)
        assert spectral.delta_zero_temperature(0.0, env) == 0.0
        for t in (0.5, 2.0, 7.5, 13.0, 21.5, 29.0):
            assert abs(spectral.delta_zero_temperature(t, env)
                       - delta_zero_temperature(t, env)) <= 1e-12

    def test_low_temperature_insensitivity(self):
        env0 = EnvironmentSpec(omega0=1.0, omega_c=1.0, temperature=0.0)
        env = EnvironmentSpec(omega0=1.0, omega_c=1.0, temperature=1.0 / 20.0)
        ts = np.linspace(0.2, 8.0, 12)
        d0 = np.array([delta_zero_temperature(t, env0) for t in ts])
        d = np.array([delta_coefficient(t, env) for t in ts])
        assert np.max(np.abs(d - d0)) <= 0.05 * np.max(np.abs(d0))


class TestThermalKernel:
    """The thermal cosine kernel int_0^inf J(w) N(w) cos(w s) dw."""

    @pytest.mark.parametrize("ratio", [0.0025, 0.005, 0.2, 1.0, 4.0, 40.0])
    def test_trigamma_oracle(self, ratio):
        # geometric series of N(w): the kernel is T^2 Re psi_1(1 + T/w_c - iTs)
        import mpmath

        wc = 0.2
        t = ratio * wc
        env = EnvironmentSpec(omega0=1.0, omega_c=wc, temperature=t)
        ss = np.linspace(0.0, 40.0, 41)
        values, bound = spectral._thermal_kernel(ss, env)
        for s, value in zip(ss, values):
            ref = float(t * t * mpmath.re(mpmath.psi(1, 1 + t / wc - 1j * t * s)))
            assert value == pytest.approx(ref, rel=1e-12, abs=0.0)
        # the first omitted series term, B_18 / w^19 at w = 13 + T / w_c
        assert bound == pytest.approx(t * t * 43867 / 798 / (13 + ratio) ** 19)
        assert bound < 1e-18 * values[0]

    def test_weight_at_zero_frequency(self):
        for t in (0.001, 0.2, 8.0):
            assert _thermal_occupancy_weight(0.0, t, 0.2) == t

    @pytest.mark.parametrize("t", [0.05, 0.2, 8.0])
    def test_weight_matches_array_expression(self, t):
        wc = 0.2

        def array_weight(omega):
            w = np.asarray(omega, dtype=float)
            with np.errstate(over="ignore"):
                ratio = np.where(w > 0.0, w / np.expm1(np.maximum(w, 1e-300) / t), t)
            return ratio * np.exp(-w / wc)

        for w in np.linspace(0.0, 40.0 * max(t, wc), 2001):
            assert _thermal_occupancy_weight(float(w), t, wc) == float(array_weight(w))

    @pytest.mark.parametrize("t", [1e-4, 0.001, 0.2, 8.0, 1e4])
    def test_cut_keeps_expm1_finite(self, t):
        env = EnvironmentSpec(omega0=1.0, omega_c=0.2, temperature=t)
        cut = _omega_cut(env)
        assert cut / t <= math.log(1e12) + 10.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 0.0 < _thermal_occupancy_weight(cut, t, env.omega_c) < 1e-14 * t


class TestTables:
    def test_constant_stub_cumulative(self):
        g0 = 0.7
        table = coefficients_from_functions(lambda t: g0, lambda t: 0.0,
                                            alpha=0.3, t_end=5.0, n_steps=500)
        expected = 2.0 * 0.3 * g0 * table.times
        assert np.max(np.abs(table.x - expected)) <= 1e-10
        assert table.x[0] == 0.0 and table.y[0] == 0.0

    def test_smooth_stub_richardson(self):
        # halving the step changes the cumulative integral below 1e-8 relative
        table1 = coefficients_from_functions(np.sin, np.cos, alpha=0.5,
                                             t_end=10.0, n_steps=2000)
        table2 = coefficients_from_functions(np.sin, np.cos, alpha=0.5,
                                             t_end=10.0, n_steps=4000)
        rel = abs(table1.x[-1] - table2.x[-1]) / abs(table2.x[-1])
        assert rel <= 1e-8

    def test_build_coefficients_matches_point_evaluations(self):
        table = build_coefficients(ENV_REF, alpha=0.05, t_end=10.0, n_steps=500)
        assert 0.0 < table.kernel_abserr < 1e-20  # the series truncation bound
        for idx in (50, 200, 450):
            t = table.times[idx]
            assert table.gamma[idx] == pytest.approx(
                gamma_coefficient(t, ENV_REF), abs=1e-8)
            assert table.delta[idx] == pytest.approx(
                delta_coefficient(t, ENV_REF), abs=1e-8)

    def test_continuity(self):
        # adjacent-sample differences shrink like O(h): halving the step
        # halves the largest jump (no quadrature-induced discontinuities)
        coarse = build_coefficients(ENV_REF, alpha=0.05, t_end=20.0, n_steps=500)
        fine = build_coefficients(ENV_REF, alpha=0.05, t_end=20.0, n_steps=1000)
        for arr_c, arr_f in ((coarse.gamma, fine.gamma),
                             (coarse.delta, fine.delta)):
            ratio = np.max(np.abs(np.diff(arr_f))) / np.max(np.abs(np.diff(arr_c)))
            assert 0.3 <= ratio <= 0.7

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            build_coefficients(ENV_REF, alpha=0.05, t_end=-1.0, n_steps=100)
        with pytest.raises(ValueError):
            build_coefficients(ENV_REF, alpha=0.05, t_end=1.0, n_steps=1)

    def test_csv_export(self, tmp_path):
        table = coefficients_from_functions(lambda t: 1.0, lambda t: 0.5,
                                            alpha=0.1, t_end=1.0, n_steps=4)
        path = tmp_path / "coeffs.csv"
        write_coefficients_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,gamma,delta,x,y"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[3]) == 0.0


class TestDivisibility:
    def test_pure_diffusion_is_divisible(self):
        table = coefficients_from_functions(lambda t: 0.0, lambda t: 1.0,
                                            alpha=0.1, t_end=5.0, n_steps=100)
        assert divisibility_check(table) == []

    def test_pure_damping_violates_everywhere(self):
        table = coefficients_from_functions(lambda t: 1.0, lambda t: 0.0,
                                            alpha=0.1, t_end=5.0, n_steps=100)
        intervals = divisibility_check(table)
        assert len(intervals) == 1
        lo, hi = intervals[0]
        assert lo == 0.0 and hi == 5.0

    def test_overlapping_windows_merge_at_exact_roots(self):
        # cos t < sin t on (pi/4, 5 pi/4) and cos t < -sin t on (3 pi/4, 7 pi/4)
        table = coefficients_from_functions(math.sin, math.cos, alpha=0.1,
                                            t_end=2.0 * math.pi, n_steps=400)
        (lo, hi), = divisibility_check(table)
        assert lo == pytest.approx(math.pi / 4.0, abs=1e-8)
        assert hi == pytest.approx(7.0 * math.pi / 4.0, abs=1e-8)

    def test_reference_environment_not_divisible(self):
        table = build_coefficients(ENV_REF, alpha=0.05, t_end=20.0, n_steps=800)
        assert divisibility_check(table) != []
        assert table.delta.min() < 0.0

    def test_resonant_hot_environment_divisible(self):
        env = EnvironmentSpec(omega0=1.0, omega_c=1.0, temperature=4.0)
        table = build_coefficients(env, alpha=0.05, t_end=30.0, n_steps=900)
        assert divisibility_check(table) == []

    @pytest.mark.parametrize("temperature, dips", [(0.2, True), (4.0, False)])
    def test_fidelity_rises_outside_the_windows_between_physical_states(
            self, temperature, dips):
        # outside the windows the exact QBM map of each grid step is CPTP, so
        # F cannot fall there while both evolved states are physical (both
        # Heisenberg gaps c^2 det + c n tr + n^2 - 1/4 >= 0 at both ends).
        # At T = 0.2 near-pure states dip below the bound at finite alpha,
        # and there F does fall outside the windows; at T = 4 none dips
        rng = np.random.default_rng(29)
        pure = rng.random((2, 200)) < 0.5
        n1, n2 = np.where(pure, 0.0, rng.uniform(0.0, 1.0, (2, 200)))
        r1, r2, b1, b2 = rng.uniform(0.0, [[2.0], [2.0], [1.5], [1.5]], (4, 200))
        phi1, phi2, th1, th2 = rng.uniform(0.0, 2.0 * math.pi, (4, 200))
        inv = pair_invariants(n1, n2, r1, r2, phi1, phi2, b1, b2, th1, th2)
        env = EnvironmentSpec(omega0=1.0, omega_c=0.2, temperature=temperature)
        table = build_coefficients(env, alpha=1.0, t_end=40.0, n_steps=400)
        ts = np.linspace(0.0, 40.0, 2001)
        outside = np.ones(ts.size - 1, dtype=bool)
        for lo, hi in divisibility_check(table):
            outside &= (ts[1:] <= lo) | (ts[:-1] >= hi)
        assert 0 < outside.sum() < ts.size - 1
        for alpha in (0.02, 0.1, 0.15):
            m, c, n = QbmChannel(table.rescaled(alpha)).maps(ts)
            df = np.diff(fidelity_arrays(inv, (m, c, n), branch=True), axis=1)
            physical = np.all([c * c * inv[k, :, None] + c * n * inv[k + 1, :, None]
                               + n * n - 0.25 >= 0.0 for k in (4, 6)], axis=0)
            steps = outside & physical[:, :-1] & physical[:, 1:]
            assert df[steps].min() > 0.0
            falls = outside & (df < 0.0)
            assert falls.any() == dips and not (falls & steps).any()
            assert physical.all() != dips


def test_quadrature_error_carries_estimate():
    err = QuadratureError("inner integral", 3.2e-7)
    assert err.estimate == 3.2e-7
    assert "3.2" in str(err)
