import gc
import math
import pickle
import weakref

import numpy as np
import pytest

from gaussnm import (
    DampingChannel,
    DampingRateSpec,
    PhysicalityWarning,
    QbmChannel,
    StatePairParams,
    build_coefficients,
    damping_x,
    make_gaussian,
    rotate_state,
    trajectory,
    write_trajectory_csv,
)
from gaussnm import channels
from gaussnm._spline import cubic_splines, cumulative_simpson
from gaussnm.spectral import ChannelCoefficients, EnvironmentSpec
from gaussnm.states import _det2, fidelity_arrays, matrix_invariants
from helpers import coefficients_from_functions

RATE = DampingRateSpec.decaying_sine()


def damped(state, t, alpha, spec):
    return DampingChannel(alpha=alpha, rate=spec).evolve(state, t)


def qbm_evolved(state, t, table):
    return QbmChannel(table).evolve(state, t)


def x_oracle(t, alpha):
    """Analytic antiderivative of the built-in decaying-sine rate."""
    a = 0.1
    switch = 2.5 * math.pi

    def ramp(u):
        return (1.0 - math.exp(-a * u) * (a * math.sin(u) + math.cos(u))) / (1 + a * a)

    if t <= switch:
        return alpha * ramp(t)
    return alpha * (ramp(switch) + math.exp(-math.pi / 4.0) * (t - switch))


class TestDampingRate:
    def test_zero_at_pi(self):
        assert RATE.rate(math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_negative_lobe_value(self):
        expected = -0.5 * math.exp(-3.0 * math.pi / 20.0)
        assert RATE.rate(1.5 * math.pi) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(-0.312, abs=5e-4)

    def test_constant_branch(self):
        expected = 0.5 * math.exp(-math.pi / 4.0)
        assert RATE.rate(10.0 * math.pi) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.228, abs=5e-4)

    def test_continuity_at_switch(self):
        eps = 1e-9
        left = RATE.rate(2.5 * math.pi - eps)
        right = RATE.rate(2.5 * math.pi + eps)
        assert left == pytest.approx(right, abs=1e-8)

    def test_negativity_interval(self):
        assert RATE.negativity_intervals(30.0) == [(math.pi, 2.0 * math.pi)]

    def test_table_rate_roundtrip(self):
        ts = np.linspace(0.0, 5.0, 300)
        spec = DampingRateSpec.from_table(ts, np.sin(ts))
        assert spec.rate(2.0) == pytest.approx(math.sin(2.0), abs=1e-4)
        # cumulative against the analytic integral of 2 sin
        assert spec.x_per_alpha(3.0) == pytest.approx(2.0 * (1 - math.cos(3.0)),
                                                      abs=1e-6)
        ivals = spec.negativity_intervals(5.0)
        assert len(ivals) == 1
        assert ivals[0][0] == pytest.approx(math.pi, abs=1e-3)

    def test_table_rate_is_one_spline(self):
        # x is twice the spline's exact antiderivative and the intervals
        # are cut at its exact roots
        ts = np.linspace(0.0, 12.0, 1201)
        spec = DampingRateSpec.from_table(ts, np.sin(ts))
        dense = np.linspace(0.0, 12.0, 24001)
        err = np.abs(spec.x_per_alpha(dense) - 2.0 * (1.0 - np.cos(dense)))
        assert err.max() <= 1e-10
        (a, b), (c, end) = spec.negativity_intervals(12.0)
        assert np.allclose([a, b, c], np.pi * np.arange(1, 4), rtol=0.0, atol=1e-12)
        assert end == 12.0
        for method in (spec.rate, spec.x_per_alpha):
            with pytest.raises(ValueError, match="outside the rate's range"):
                method(12.5)


class TestDampingX:
    def test_zero_at_origin(self):
        assert damping_x(0.0, 0.1, RATE) == 0.0

    def test_value_at_pi(self):
        x = damping_x(math.pi, 0.1, RATE)
        assert x == pytest.approx(x_oracle(math.pi, 0.1), rel=1e-14)
        assert x == pytest.approx(0.17133, abs=5e-6)

    def test_backflow_at_two_pi(self):
        x = damping_x(2.0 * math.pi, 0.1, RATE)
        assert x == pytest.approx(0.04619, abs=5e-6)
        assert x < damping_x(math.pi, 0.1, RATE)

    def test_constant_rate(self):
        spec = DampingRateSpec.constant(0.5)
        assert damping_x(3.0, 0.2, spec) == pytest.approx(2 * 0.2 * 0.5 * 3.0,
                                                          rel=1e-14)


class TestEvolveDamping:
    def test_vacuum_fixed_point(self):
        v = make_gaussian()
        for t in (0.5, 3.0, 12.0):
            out = damped(v, t, 0.1, RATE)
            assert np.allclose(out.cov, np.eye(2) / 2.0, atol=1e-14)
            assert np.allclose(out.mean, 0.0)

    def test_constant_rate_amplitude_decay(self):
        spec = DampingRateSpec.constant(0.8)
        s = make_gaussian(beta=1.0 + 0.0j)
        out = damped(s, 2.0, 0.3, spec)
        assert out.mean[0] == pytest.approx(math.sqrt(2.0) * math.exp(-0.3 * 0.8 * 2.0),
                                            rel=1e-12)

    def test_amplitude_at_pi(self):
        s = make_gaussian(beta=1.0 + 0.0j)
        out = damped(s, math.pi, 0.1, RATE)
        assert out.mean[0] / math.sqrt(2.0) == pytest.approx(
            math.exp(-x_oracle(math.pi, 0.1) / 2.0), rel=1e-12)

    def test_semigroup_composition_constant_rate(self):
        spec = DampingRateSpec.constant(0.4)
        s = make_gaussian(n=0.5, r=0.6, phi=1.0, beta=0.7 + 0.3j)
        one = damped(damped(s, 1.3, 0.2, spec), 0.9, 0.2, spec)
        # time-homogeneous: shift the second leg back to the origin
        two = damped(s, 2.2, 0.2, spec)
        assert np.max(np.abs(one.cov - two.cov)) <= 1e-10
        assert np.max(np.abs(one.mean - two.mean)) <= 1e-10

    def test_rotation_covariance(self):
        s = make_gaussian(r=0.8, phi=0.7, beta=1.0 + 0.5j)
        theta = 1.1
        a = damped(rotate_state(s, theta), 2.0, 0.1, RATE)
        b = rotate_state(damped(s, 2.0, 0.1, RATE), theta)
        assert np.max(np.abs(a.cov - b.cov)) <= 1e-10
        assert np.max(np.abs(a.mean - b.mean)) <= 1e-10

    def test_physicality_along_trajectory(self):
        pair = StatePairParams(r1=1.5, r2=0.5, phi1=0.3, beta1_mag=1.0)
        channel = DampingChannel(alpha=0.1, rate=RATE, t_max=25.0)
        t1, t2 = trajectory(pair, channel, np.linspace(0.0, 25.0, 501))
        for tr in (t1, t2):
            assert np.all(_det2(tr.covs) >= 0.25 - 1e-9)



@pytest.fixture(scope="module")
def qbm_table():
    env = EnvironmentSpec(omega0=1.0, omega_c=0.2, temperature=0.2)
    return build_coefficients(env, alpha=0.01, t_end=30.0, n_steps=1500)


class TestEvolveQbm:
    def test_identity_at_t0(self, qbm_table):
        s = make_gaussian(n=0.3, r=0.5, beta=1.0 + 0.0j)
        out = qbm_evolved(s, 0.0, qbm_table)
        assert np.allclose(out.cov, s.cov, atol=1e-12)
        assert np.allclose(out.mean, s.mean, atol=1e-12)

    def test_pure_damping_stub(self):
        # Delta = 0 removes the noise term entirely: sigma -> e^{-2 alpha g t} sigma
        g = 0.5
        table = coefficients_from_functions(lambda t: g, lambda t: 0.0,
                                            alpha=0.2, t_end=4.0, n_steps=400)
        s = make_gaussian(n=1.0)
        out = qbm_evolved(s, 3.0, table)
        factor = math.exp(-2.0 * 0.2 * g * 3.0)
        assert np.max(np.abs(out.cov - factor * s.cov)) <= 1e-8

    @pytest.mark.parametrize("temperature", [0.2, 4.0])
    def test_propagator_takes_exact_knot_slopes(self, monkeypatch, temperature):
        # on every 32nd knot of a 32000-step table, Hermite pieces with the
        # exact slopes x' = 2 alpha gamma, y' = 2 alpha Delta and
        # z' = alpha e^x Delta stay at most half as far from the fine table
        # between the knots as not-a-knot splines through the same values
        env = EnvironmentSpec(omega0=1.0, omega_c=0.2, temperature=temperature)
        fine = build_coefficients(env, alpha=0.1, t_end=40.0, n_steps=32000)
        z = cumulative_simpson(0.1 * np.exp(fine.x) * fine.delta, fine.times)
        knot = np.zeros(fine.times.size, dtype=bool)
        knot[::32] = True
        coarse = ChannelCoefficients(
            times=fine.times[knot], gamma=fine.gamma[knot], delta=fine.delta[knot],
            x=fine.x[knot], y=fine.y[knot], alpha=0.1)
        # z at the knots from the fine table, so that only the interpolation errs
        monkeypatch.setattr(channels, "cumulative_simpson", lambda y, x: z[knot])
        prop = channels.QbmPropagator(coarse)
        t = fine.times[~knot]
        for spline, col in zip((prop.x, prop.y, prop.z), (fine.x, fine.y, z)):
            not_a_knot, = cubic_splines(coarse.times, col[knot])
            err = np.max(np.abs(spline(t) - col[~knot]))
            assert 0.0 < err <= 0.5 * np.max(np.abs(not_a_knot(t) - col[~knot]))

    def test_propagator_lives_with_its_channel(self, qbm_table):
        # built once per channel, not shared with another channel on the same
        # or a rescaled table, held by no table (so in no table's pickle),
        # and collected with the channel that built it
        channel = QbmChannel(qbm_table.rescaled(0.02))
        prop = weakref.ref(channel.propagator)
        assert channel.propagator is prop()
        assert QbmChannel(channel.coeffs).propagator is not prop()
        assert QbmChannel(channel.coeffs.rescaled(0.02)).propagator is not prop()
        for table in (channel.coeffs, pickle.loads(pickle.dumps(channel.coeffs))):
            assert not any(isinstance(v, channels.QbmPropagator)
                           for v in vars(table).values())
        del channel
        gc.collect()
        assert prop() is None

    def test_rotation_covariance(self, qbm_table):
        s = make_gaussian(r=0.7, phi=1.3, beta=0.4 - 0.6j)
        theta = 0.9
        a = qbm_evolved(rotate_state(s, theta), 8.0, qbm_table)
        b = rotate_state(qbm_evolved(s, 8.0, qbm_table), theta)
        assert np.max(np.abs(a.cov - b.cov)) <= 1e-10
        assert np.max(np.abs(a.mean - b.mean)) <= 1e-10

    def test_out_of_range_time_rejected(self, qbm_table):
        s = make_gaussian()
        with pytest.raises(ValueError, match="grid"):
            qbm_evolved(s, 31.0, qbm_table)

    def test_transient_heisenberg_dip_is_flagged(self):
        # the exact solution carries no vacuum floor beyond the diffusion
        # integral, so an off-resonant low-T bath dips det(cov) slightly
        # below 1/4 at finite coupling; the dip shrinks linearly with alpha
        env = EnvironmentSpec(omega0=1.0, omega_c=0.2, temperature=0.2)
        table = build_coefficients(env, alpha=0.05, t_end=40.0, n_steps=1200)
        channel = QbmChannel(table)
        pair = StatePairParams(beta1_mag=1.0)
        with pytest.warns(PhysicalityWarning):
            t1, _ = trajectory(pair, channel, np.linspace(0.0, 40.0, 801))
        min_det = _det2(t1.covs).min()
        assert 0.25 - 3.0 * 0.05 <= min_det < 0.25 - 1e-9
        # a single evolved state gets the same verdict as its trajectory
        with pytest.warns(PhysicalityWarning) as caught:
            one = channel.evolve(pair.states()[0], 40.0)
        assert caught[0].filename == __file__
        assert one.det_cov < 0.25 and np.array_equal(one.cov, t1.covs[-1])


class TestTrajectory:
    def test_identical_pair_identical_trajectories(self):
        pair = StatePairParams(r1=0.4, r2=0.4, phi1=0.2, phi2=0.2)
        channel = DampingChannel(alpha=0.1, rate=RATE)
        t1, t2 = trajectory(pair, channel, np.linspace(0.0, 10.0, 101))
        assert np.allclose(t1.means, t2.means, rtol=0.0, atol=1e-12)
        assert np.allclose(t1.covs, t2.covs, rtol=0.0, atol=1e-12)

    def test_single_point_grid(self):
        pair = StatePairParams(beta1_mag=1.0)
        channel = DampingChannel(alpha=0.1, rate=RATE)
        t1, _ = trajectory(pair, channel, np.array([0.0]))
        s1, _ = pair.states()
        assert np.allclose(t1.means[0], s1.mean, rtol=0.0, atol=1e-12)
        assert np.allclose(t1.covs[0], s1.cov, rtol=0.0, atol=1e-12)

    def test_divisible_fidelity_monotone(self):
        pair = StatePairParams(beta1_mag=1.2, r2=0.3)
        channel = DampingChannel(alpha=0.2, rate=DampingRateSpec.constant(0.6))
        t1, t2 = trajectory(pair, channel, np.linspace(0.0, 10.0, 201))
        f = fidelity_arrays(matrix_invariants(t1.means, t1.covs, t2.means, t2.covs))
        assert np.all(np.diff(f) >= -1e-12)

    def test_damping_exact_heisenberg_violation_rejected(self):
        pair = StatePairParams(r1=0.5)
        channel = DampingChannel(alpha=0.1, rate=DampingRateSpec.constant(-0.5))
        with pytest.raises(ValueError, match="Heisenberg"):
            trajectory(pair, channel, np.linspace(0.0, 25.0, 501))
        with pytest.raises(ValueError, match="Heisenberg"):
            channel.evolve(pair.states()[0], 25.0)

    def test_arrays_match_single_state_evolution(self, qbm_table):
        pair = StatePairParams(r1=0.6, phi1=0.3, beta1_mag=0.8, n2=0.4)
        times = np.linspace(0.0, 30.0, 7)
        for channel in (DampingChannel(alpha=0.1, rate=RATE),
                        QbmChannel(qbm_table)):
            trajs = trajectory(pair, channel, times)
            for traj, state in zip(trajs, pair.states()):
                assert traj.means.shape == (7, 2) and traj.covs.shape == (7, 2, 2)
                for t, m, c in zip(times, traj.means, traj.covs):
                    one = channel.evolve(state, t)
                    assert np.array_equal(one.mean, m)
                    assert np.array_equal(one.cov, c)

    def test_csv_export(self, tmp_path):
        pair = StatePairParams(beta1_mag=1.0)
        channel = DampingChannel(alpha=0.1, rate=RATE)
        t1, _ = trajectory(pair, channel, np.linspace(0.0, 5.0, 6))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(t1, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,mean_q,mean_p,cov_qq,cov_qp,cov_pp"
        assert len(lines) == 7
