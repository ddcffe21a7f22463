import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from gaussnm import (
    DampingChannel,
    DampingRateSpec,
    FidelityTrajectory,
    QbmChannel,
    StatePairParams,
    UnsupportedShapeError,
    backflow_intervals,
    build_coefficients,
    closed_form_coherent_damping,
    closed_form_coherent_qbm,
    coefficients_from_functions,
    coherent_pair,
    damping_response,
    fidelity_trajectory,
    first_order_coherent,
    first_order_coherent_thermal,
    first_order_squeezed_damping_max,
    first_order_squeezed_qbm,
    first_order_squeezed_qbm_max,
    g1_squeezed,
    maximize_measure,
    measure_from_trajectory,
    measure_record,
    squeezed_response,
)
from gaussnm.measure import (
    _NOISE_FLOOR,
    NegativityInterval,
    _locate_extrema,
    first_order_pure_combination,
)
from gaussnm.spectral import EnvironmentSpec
from gaussnm.states import fidelity

RATE = DampingRateSpec.decaying_sine()
ENV_REF = EnvironmentSpec(omega0=1.0, omega_c=0.2, temperature=0.2)


def damping_channel(alpha, rate=RATE):
    return DampingChannel(alpha=alpha, rate=rate, t_max=25.0)


def x_oracle(t, alpha):
    a = 0.1
    switch = 2.5 * math.pi

    def ramp(u):
        return (1.0 - math.exp(-a * u) * (a * math.sin(u) + math.cos(u))) / (1 + a * a)

    if t <= switch:
        return alpha * ramp(t)
    return alpha * (ramp(switch) + math.exp(-math.pi / 4.0) * (t - switch))


def closed_oracle(alpha):
    """Single-interval coherent optimum from the analytic antiderivative."""
    xp, xm = x_oracle(math.pi, alpha), x_oracle(2.0 * math.pi, alpha)
    ep, em = math.exp(-xp), math.exp(-xm)
    k = (xm - xp) / (ep - em)
    return math.exp(-k * ep) - math.exp(-k * em), k


@pytest.fixture(scope="module")
def qbm_base():
    # reference environment table at unit coupling; rescaled per test
    return build_coefficients(ENV_REF, alpha=1.0, t_end=40.0, n_steps=2000)


def qbm_channel(base, alpha):
    scale = alpha / base.alpha
    from gaussnm.experiments import rescale_coefficients
    return QbmChannel(rescale_coefficients(base, alpha))


class TestFidelityTrajectory:
    def test_identical_pair_flat(self):
        pair = StatePairParams(r1=0.5, r2=0.5)
        traj = fidelity_trajectory(pair, damping_channel(0.1),
                                   np.linspace(0.0, 20.0, 501))
        assert np.allclose(traj.fidelities, 1.0, atol=1e-12)
        assert traj.extrema == ()

    def test_divisible_coherent_monotone(self):
        channel = DampingChannel(alpha=0.2, rate=DampingRateSpec.constant(0.5))
        traj = fidelity_trajectory(coherent_pair(1.0), channel,
                                   np.linspace(0.0, 15.0, 501))
        assert np.all(np.diff(traj.fidelities) >= -1e-14)
        assert traj.fidelities[-1] > traj.fidelities[0]
        assert traj.extrema == ()

    def test_single_decrease_interval_at_rate_negativity(self):
        traj = fidelity_trajectory(coherent_pair(1.0), damping_channel(0.1),
                                   np.linspace(0.0, 25.0, 2001))
        intervals = backflow_intervals(traj)
        assert len(intervals) == 1
        assert intervals[0].t_plus == pytest.approx(math.pi, abs=1e-3)
        assert intervals[0].t_minus == pytest.approx(2.0 * math.pi, abs=1e-3)

    def test_extremum_refinement_accuracy(self):
        traj = fidelity_trajectory(coherent_pair(1.0), damping_channel(0.1),
                                   np.linspace(0.0, 25.0, 401))
        # refined extrema sit at the rate's zeros even on a coarse grid
        ts = sorted(t for t, _, _ in traj.extrema)
        assert ts[0] == pytest.approx(math.pi, abs=25.0 * 1e-6 * 5)
        assert ts[1] == pytest.approx(2.0 * math.pi, abs=25.0 * 1e-6 * 5)


def search_extremum(pair, channel, lo, hi, kind):
    """Bounded scalar search on the GaussianState path: evolve + fidelity."""
    s1, s2 = pair.states()

    def fid(t):
        return fidelity(channel.evolve(s1, t), channel.evolve(s2, t))

    res = minimize_scalar(lambda t: -kind * fid(t), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-10})
    return float(res.x), fid(float(res.x))


def physical_qbm_channel():
    # Delta > gamma keeps both evolved states above the Heisenberg bound,
    # which the GaussianState path of the search enforces
    table = coefficients_from_functions(RATE.rate, lambda t: RATE.rate(t) + 0.05,
                                        alpha=0.1, t_end=25.0, n_steps=1000)
    return QbmChannel(table)


class TestExtremumRefinement:
    @pytest.mark.parametrize("pair, channel", [
        (coherent_pair(1.0), damping_channel(0.1)),
        (StatePairParams(r1=1.0, r2=1.0, phi1=0.1), damping_channel(0.05)),
        (coherent_pair(0.7), physical_qbm_channel()),
        (StatePairParams(r1=1.0, r2=1.0, phi1=0.1), physical_qbm_channel()),
    ], ids=["damping-coherent", "damping-squeezed", "qbm-coherent",
            "qbm-squeezed"])
    def test_matches_independent_search(self, pair, channel):
        times = np.linspace(0.0, 25.0, 401)
        step = times[1] - times[0]
        traj = fidelity_trajectory(pair, channel, times)
        assert {kind for _, _, kind in traj.extrema} == {1, -1}
        for t, f, kind in traj.extrema:
            t_ref, f_ref = search_extremum(pair, channel, max(t - step, 0.0),
                                           min(t + step, times[-1]), kind)
            assert f == pytest.approx(f_ref, abs=1e-12)
            # within one sub-grid step (two grid steps over 64)
            assert t == pytest.approx(t_ref, abs=step / 32.0)


class FunctionEngine:
    """Pair-engine stand-in whose fidelity is a given function of t."""

    def __init__(self, fn, times):
        self.fn = fn
        self.times = np.asarray(times, dtype=float)

    def fidelity(self, ts):
        return self.fn(np.asarray(ts, dtype=float))


def located(fn, times):
    engine = FunctionEngine(fn, times)
    return _locate_extrema(engine, fn(engine.times))


class TestLocateExtremaEdges:
    def test_fewer_than_three_samples(self):
        for times in ([0.0], [0.0, 1.0]):
            assert located(np.cos, times) == []

    def test_monotone_has_no_extrema(self):
        assert located(np.tanh, np.linspace(-3.0, 3.0, 61)) == []

    def test_wiggle_below_noise_floor_skipped(self):
        def wiggle(t):
            return 0.5 + 2e-15 * np.sin(t)

        times = np.linspace(0.0, 20.0, 81)
        df = np.diff(wiggle(times))
        assert np.any(df[:-1] * df[1:] < 0.0)
        assert np.abs(df).max() < _NOISE_FLOOR
        assert located(wiggle, times) == []

    def test_extremum_at_bracket_end(self):
        # F(1) == F(2) exactly, so the sign change brackets [1, 3] and the
        # best sub-grid sample is the bracket start; the parabola through
        # the first three samples peaks left of it, outside the bracket
        def fn(t):
            u = (t - 1.5) ** 2
            return np.cos(2.0 * np.pi * t) + 0.3 * u - 0.3 * u ** 2

        times = np.arange(4.0)
        (t, f, kind), = located(fn, times)
        assert kind == 1
        assert 1.0 <= t <= 3.0
        assert f >= fn(times[1:]).max()


class TestMeasureFromTrajectory:
    def test_monotone_gives_zero(self):
        channel = DampingChannel(alpha=0.2, rate=DampingRateSpec.constant(0.5))
        traj = fidelity_trajectory(coherent_pair(1.0), channel,
                                   np.linspace(0.0, 15.0, 301))
        assert measure_from_trajectory(traj) == pytest.approx(0.0, abs=1e-12)

    def test_single_dip_value(self):
        # the K = 1.114 pair dips from about 0.391 to about 0.345
        _, k = closed_oracle(0.1)
        traj = fidelity_trajectory(coherent_pair(k), damping_channel(0.1),
                                   np.linspace(0.0, 25.0, 2001))
        (iv,) = backflow_intervals(traj)
        f_plus = math.exp(-k * math.exp(-x_oracle(math.pi, 0.1)))
        f_minus = math.exp(-k * math.exp(-x_oracle(2 * math.pi, 0.1)))
        assert f_plus == pytest.approx(0.391, abs=1e-3)
        assert f_minus == pytest.approx(0.345, abs=1e-3)
        assert measure_from_trajectory(traj) == pytest.approx(f_plus - f_minus,
                                                              abs=1e-9)

    def test_two_dips_add(self):
        times = np.linspace(0.0, 10.0, 11)
        fvals = np.ones(11)
        fvals[0], fvals[-1] = 0.85, 0.95
        traj = FidelityTrajectory(
            times=times, fidelities=fvals,
            extrema=((2.0, 0.9, 1), (3.0, 0.8, -1), (6.0, 0.85, 1),
                     (8.0, 0.7, -1)),
            channel="damping", params=coherent_pair(1.0),
        )
        # 0.85 -> 0.9(max) -> 0.8(min) -> 0.85(max) -> 0.7(min) -> 0.95
        assert measure_from_trajectory(traj) == pytest.approx(0.1 + 0.15, abs=1e-12)

    def test_interval_invariants(self):
        with pytest.raises(ValueError):
            NegativityInterval(t_plus=2.0, t_minus=1.0, contribution=0.1)
        with pytest.raises(ValueError):
            NegativityInterval(t_plus=1.0, t_minus=2.0, contribution=-1.0)


class TestMaximizeDamping:
    @pytest.mark.parametrize("family", ["coherent", "squeezed",
                                        "coherent_thermal", "general_pure"])
    def test_divisible_zero_for_every_family(self, family):
        channel = DampingChannel(alpha=0.1, rate=DampingRateSpec.constant(0.5))
        res = maximize_measure(family, channel, phi=0.1,
                               times=np.linspace(0.0, 10.0, 401))
        assert res.value <= 1e-9
        # a flat objective cannot improve over the coarse grid: reported as
        # a stagnation diagnostic, not an error
        assert res.diagnostics["stagnation"] is True

    def test_coherent_matches_closed_form(self):
        res = maximize_measure("coherent", damping_channel(0.1),
                               times=np.linspace(0.0, 25.0, 2001))
        n_ref, k_ref = closed_oracle(0.1)
        assert res.value == pytest.approx(n_ref, abs=1e-5)
        assert res.diagnostics["argmax_vector"][0] == pytest.approx(k_ref,
                                                                    abs=1e-4)
        assert res.value == pytest.approx(
            sum(iv.contribution for iv in res.intervals), abs=1e-9)

    def test_squeezed_phi_ordering(self):
        values = {}
        for phi in (0.1, 0.2):
            res = maximize_measure("squeezed", damping_channel(0.1), phi=phi,
                                   times=np.linspace(0.0, 25.0, 1501))
            values[phi] = res.value
        coh = closed_form_coherent_damping(0.1, RATE).value
        assert values[0.1] > values[0.2] > coh

    def test_squeezed_argmax_has_equal_magnitudes(self):
        res = maximize_measure("squeezed", damping_channel(0.01), phi=0.1,
                               times=np.linspace(0.0, 25.0, 1501))
        r1, r2 = res.diagnostics["argmax_vector"]
        assert abs(r1 - r2) <= 0.05

    def test_coherent_thermal_prefers_pure(self):
        res = maximize_measure("coherent_thermal", damping_channel(0.05),
                               times=np.linspace(0.0, 25.0, 1001))
        assert res.diagnostics["argmax_vector"][1] <= 0.01
        pure = closed_form_coherent_damping(0.05, RATE).value
        assert res.value == pytest.approx(pure, rel=1e-3)


class TestClosedFormDamping:
    def test_reference_values(self):
        res = closed_form_coherent_damping(0.1, RATE)
        assert res.value == pytest.approx(0.0459, abs=5e-4)
        assert res.diagnostics["K"] == pytest.approx(1.114, abs=1e-3)

    def test_oracle_agreement_across_couplings(self):
        for alpha in (0.01, 0.05, 0.1):
            res = closed_form_coherent_damping(alpha, RATE)
            n_ref, k_ref = closed_oracle(alpha)
            assert res.value == pytest.approx(n_ref, rel=1e-12)
            assert res.diagnostics["K"] == pytest.approx(k_ref, rel=1e-12)

    def test_small_coupling_limit(self):
        res = closed_form_coherent_damping(0.01, RATE)
        assert res.value / 0.01 == pytest.approx(0.4604, rel=0.02)
        assert res.diagnostics["K"] == pytest.approx(1.0, abs=0.05)

    def test_multi_interval_rejected(self):
        ts = np.linspace(0.0, 12.0, 1201)
        spec = DampingRateSpec.from_table(ts, np.sin(ts))
        with pytest.raises(UnsupportedShapeError):
            closed_form_coherent_damping(0.1, spec, t_max=12.0)

    def test_constant_rate_rejected(self):
        with pytest.raises(UnsupportedShapeError):
            closed_form_coherent_damping(0.1, DampingRateSpec.constant(0.5))

    def test_near_degenerate_interval(self):
        # a barely negative smooth dip: backflow tends to zero while K
        # stays finite, approaching e^{x(t+)}
        ts = np.linspace(0.0, 3.0, 3001)
        vals = 0.5 - (0.5 + 1e-4) * np.exp(-8.0 * (ts - 1.5) ** 2)
        spec = DampingRateSpec.from_table(ts, vals)
        res = closed_form_coherent_damping(0.2, spec, t_max=3.0)
        assert res.value <= 1e-6
        x_plus = res.diagnostics["x_plus"]
        assert res.diagnostics["K"] == pytest.approx(math.exp(x_plus), rel=0.05)


class TestClosedFormQbm:
    def test_cross_validates_numeric_optimizer(self, qbm_base):
        channel = qbm_channel(qbm_base, 0.05)
        intervals = channel.propagator.delta_negativity_intervals()
        closed = closed_form_coherent_qbm(channel.coeffs, intervals[0])
        numeric = maximize_measure("coherent", channel,
                                   times=np.linspace(0.0, 40.0, 2001))
        assert abs(closed.value - numeric.value) <= 1e-4

    def test_damping_limit_via_equal_coefficients(self):
        # the damping channel is the Delta = gamma special case; the closed
        # form converges to the damping one as the coupling shrinks
        rels = []
        for alpha in (0.02, 0.005):
            table = coefficients_from_functions(RATE.rate, RATE.rate,
                                                alpha=alpha, t_end=8.0,
                                                n_steps=1600)
            qbm = closed_form_coherent_qbm(table, (math.pi, 2.0 * math.pi))
            damp = closed_form_coherent_damping(alpha, RATE)
            rels.append(abs(qbm.value - damp.value) / damp.value)
        # the two expressions share the first order; the gap shrinks with alpha
        assert rels[0] <= 0.05
        assert rels[1] <= rels[0] / 2.5

    def test_zero_damping_stub_sign(self):
        # x = 0, diffusion dips negative: backflow iff the effective
        # exponent decreases; cross-checked against the trajectory measure
        table = coefficients_from_functions(lambda t: 0.0, np.cos,
                                            alpha=0.05, t_end=1.5 * math.pi,
                                            n_steps=1500)
        channel = QbmChannel(table)
        (iv,) = channel.propagator.delta_negativity_intervals()
        closed = closed_form_coherent_qbm(table, iv)
        assert closed.value > 0.0
        numeric = maximize_measure("coherent", channel,
                                   times=np.linspace(0.0, 1.5 * math.pi, 1001))
        assert closed.value == pytest.approx(numeric.value, rel=5e-3)

    def test_positive_interval_rejected(self, qbm_base):
        with pytest.raises(UnsupportedShapeError):
            closed_form_coherent_qbm(qbm_base, (0.5, 1.5))

    def test_unphysical_table_rejected(self):
        table = coefficients_from_functions(lambda t: 0.0, lambda t: -1.0,
                                            alpha=0.6, t_end=2.0, n_steps=200)
        with pytest.raises(ValueError, match="unphysical"):
            closed_form_coherent_qbm(table, (0.5, 1.9))


class TestFirstOrder:
    def test_damping_slope(self):
        channel = damping_channel(0.0625)
        assert first_order_coherent(channel) / 0.0625 == pytest.approx(0.4604,
                                                                       abs=1e-4)

    def test_no_negativity_gives_zero(self):
        channel = DampingChannel(alpha=0.1, rate=DampingRateSpec.constant(0.3))
        assert first_order_coherent(channel) == 0.0

    def test_qbm_temperature_threshold(self):
        # off-resonance cutoff 0.3: the diffusion coefficient develops a
        # negative region between T = 0.3 and T = 0.5
        for temp, positive in ((0.3, False), (0.5, True)):
            env = EnvironmentSpec(omega0=1.0, omega_c=0.3, temperature=temp)
            table = build_coefficients(env, alpha=0.05, t_end=40.0,
                                       n_steps=1200)
            value = first_order_coherent(QbmChannel(table))
            assert (value > 1e-6) is positive

    def test_coherent_thermal_suppression(self):
        channel = damping_channel(0.05)
        base = first_order_coherent(channel)
        assert first_order_coherent_thermal(0.0, channel) == base
        assert first_order_coherent_thermal(0.5, channel) == pytest.approx(
            base / 2.0, rel=1e-12)
        values = [first_order_coherent_thermal(n, channel)
                  for n in (0.0, 0.3, 1.0, 3.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestSqueezedCoefficients:
    def test_g1_at_zero_squeezing(self):
        # printed formula gives 1 at r = 0 (k = 4) for any angle
        for phi in (0.05, 0.3, 1.0):
            assert g1_squeezed(0.0, phi) == pytest.approx(1.0, rel=1e-12)

    def test_g1_aligned_axes(self):
        # phi = 0 keeps k = 4, so the formula returns cosh(2r), although
        # identical states carry no backflow; the oracle vanishes there
        for r in (0.3, 1.0):
            assert g1_squeezed(r, 0.0) == pytest.approx(math.cosh(2 * r),
                                                        rel=1e-12)
            assert abs(damping_response(r, r, 0.0)) <= 1e-9

    def test_g1_reference_value(self):
        import mpmath
        r, phi = mpmath.mpf("0.5"), mpmath.mpf("0.1")
        k = 3 + mpmath.cos(phi) + mpmath.cosh(4 * r) * (1 - mpmath.cos(phi))
        ref = 8 * mpmath.cosh(2 * r) * (k - mpmath.sqrt(k)) / k ** 2
        assert g1_squeezed(0.5, 0.1) == pytest.approx(float(ref), abs=1e-12)

    def test_response_vanishes_for_identical_pair(self):
        s_gamma, s_delta = squeezed_response(0.7, 0.7, 0.0)
        assert abs(s_gamma) <= 1e-9
        assert abs(s_delta) <= 1e-9

    def test_response_against_analytic_forms(self):
        # closed forms of the physical-branch derivatives for r1 = r2 = r
        for r, phi in ((0.5, 0.1), (1.0, 0.05), (2.0, 0.1), (2.5, 0.3)):
            k = 3 + math.cos(phi) + math.cosh(4 * r) * (1 - math.cos(phi))
            f0 = math.sqrt(2.0) * k ** -0.25
            s_gamma_ref = f0 * (0.5 - 1.0 / math.sqrt(k))
            s_delta_ref = f0 * math.cosh(2 * r) * (math.sqrt(k) - 2.0) / k
            s_gamma, s_delta = squeezed_response(r, r, phi)
            assert s_gamma == pytest.approx(s_gamma_ref, rel=1e-6)
            assert s_delta == pytest.approx(s_delta_ref, rel=1e-6)
            assert damping_response(r, r, phi) == pytest.approx(
                s_gamma_ref + s_delta_ref, rel=1e-6)

    def test_gamma_subdominant_at_large_squeezing(self):
        s_gamma, s_delta = squeezed_response(2.0, 2.0, 0.05)
        assert s_gamma / s_delta < 0.1
        # at moderate squeezing the ratio follows sqrt(k) / (2 cosh 2r)
        s_gamma, s_delta = squeezed_response(1.0, 1.0, 0.05)
        k = 3 + math.cos(0.05) + math.cosh(4.0) * (1 - math.cos(0.05))
        assert s_gamma / s_delta == pytest.approx(
            math.sqrt(k) / (2.0 * math.cosh(2.0)), rel=1e-4)

    def test_printed_g1_versus_oracle_argmax(self):
        # coarse scan: the two coefficients peak one grid step apart
        rs = np.arange(0.3, 3.31, 0.5)
        printed = [g1_squeezed(r, 0.1) for r in rs]
        oracle = [damping_response(r, r, 0.1) for r in rs]
        r_printed = rs[int(np.argmax(printed))]
        r_oracle = rs[int(np.argmax(oracle))]
        assert abs(r_printed - r_oracle) <= 0.5 + 1e-12


class TestFirstOrderSqueezed:
    def test_identical_pair_zero(self, qbm_base):
        from gaussnm.experiments import rescale_coefficients
        table = rescale_coefficients(qbm_base, 0.01)
        assert abs(first_order_squeezed_qbm(1.0, 1.0, 0.0, table)) <= 1e-9

    def test_slope_matches_numeric_measure(self, qbm_base):
        channel = qbm_channel(qbm_base, 0.005)
        numeric = maximize_measure("squeezed", channel, phi=0.05,
                                   equal_squeezing=True,
                                   times=np.linspace(0.0, 40.0, 2001))
        first, _ = first_order_squeezed_qbm_max(channel.coeffs, 0.05)
        assert numeric.value == pytest.approx(first, rel=0.10)

    def test_damping_slope_matches_numeric_measure(self):
        channel = damping_channel(0.002)
        numeric = maximize_measure("squeezed", channel, phi=0.1,
                                   equal_squeezing=True,
                                   times=np.linspace(0.0, 25.0, 2001))
        first, _ = first_order_squeezed_damping_max(channel, 0.1)
        assert numeric.value == pytest.approx(first, rel=0.10)

    def test_pure_combination_reduces_to_coherent_part(self):
        k = 0.8
        combo = first_order_pure_combination(k, 0.0, 0.0, 0.3)
        assert combo == pytest.approx(k * math.exp(-k), rel=1e-9)


class TestRecords:
    def test_measure_record_layout(self):
        res = closed_form_coherent_damping(0.1, RATE)
        header, row = measure_record(res)
        assert header.startswith("family,channel,alpha,T,omega0,omega_c,value")
        cells = row.split(",")
        assert cells[0] == "coherent" and cells[1] == "damping"
        assert cells[3] == "" and cells[4] == ""  # no environment for damping
        assert float(cells[6]) == pytest.approx(res.value, rel=1e-12)

    def test_qbm_record_carries_environment(self, qbm_base):
        channel = qbm_channel(qbm_base, 0.01)
        res = maximize_measure("coherent", channel,
                               times=np.linspace(0.0, 40.0, 801))
        header, row = measure_record(res)
        cells = row.split(",")
        assert float(cells[3]) == 0.2 and float(cells[4]) == 1.0
        assert float(cells[5]) == pytest.approx(0.2)
