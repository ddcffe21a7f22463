import cmath
import gc
import math
import pickle
import weakref
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize, minimize_scalar

from gaussnm import (
    DampingChannel,
    DampingRateSpec,
    FidelityTrajectory,
    ParamBounds,
    QbmChannel,
    StatePairParams,
    UnsupportedShapeError,
    backflow_intervals,
    build_coefficients,
    closed_form_coherent_damping,
    closed_form_coherent_qbm,
    coherent_pair,
    damping_response,
    fidelity_trajectory,
    first_order_coherent,
    first_order_coherent_thermal,
    first_order_squeezed,
    first_order_squeezed_max,
    make_gaussian,
    maximize_measure,
    measure_from_trajectory,
    squeezed_pair,
    squeezed_response,
    trajectory,
)
from gaussnm import cli, measure
from gaussnm._spline import PiecewisePoly
from gaussnm.experiments import _table, fig_defaults
from gaussnm.measure import (
    _NOISE_FLOOR,
    NegativityInterval,
    _grid_extrema,
)
from gaussnm.spectral import EnvironmentSpec
from gaussnm.states import fidelity, fidelity_arrays, matrix_invariants, pair_invariants
from helpers import (FirstOrderMaps, coefficients_from_functions, g1_squeezed,
                     moment_invariants, pair_batches)
from interval_oracle import _sign_intervals

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
    return QbmChannel(base.rescaled(alpha))


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


class TestTimeGrid:
    # grids the measure or the evolution cannot use are rejected by name,
    # not turned into a wrong N: a reversed grid gave N = 0 and a NaN time a
    # NaN sample of F
    GRID = np.linspace(0.0, 25.0, 801)
    BAD = {"reversed": (GRID[::-1], "strictly increasing"),
           "repeated": (np.insert(GRID, 5, GRID[5]), "strictly increasing"),
           "nan": (np.where(np.arange(801) == 400, np.nan, GRID), "finite"),
           "inf": (np.append(GRID, np.inf), "finite"),
           "negative": (GRID - 1.0, "times must be >= 0")}

    def test_good_grid_value(self):
        traj = fidelity_trajectory(squeezed_pair(1.0, 1.0, 0.1),
                                   DampingChannel(alpha=0.1), self.GRID)
        assert measure_from_trajectory(traj) == pytest.approx(0.002360, rel=1e-3)

    @pytest.mark.parametrize("fault", sorted(BAD))
    def test_fidelity_trajectory_rejects(self, fault):
        times, match = self.BAD[fault]
        with pytest.raises(ValueError, match=match):
            fidelity_trajectory(squeezed_pair(1.0, 1.0, 0.1),
                                DampingChannel(alpha=0.1), times)

    @pytest.mark.parametrize("fault", sorted(BAD))
    def test_maximize_measure_rejects(self, fault):
        times, match = self.BAD[fault]
        with pytest.raises(ValueError, match=match):
            maximize_measure("squeezed", DampingChannel(alpha=0.1), times=times)

    def test_default_grid(self):
        # times=None is 2001 points of [0, channel.t_max], bit for bit
        channel = QbmChannel(build_coefficients(ENV_REF, alpha=0.05, t_end=20.0,
                                                n_steps=200))
        default, explicit = (
            maximize_measure("squeezed", channel, equal_squeezing=True, times=times)
            for times in (None, np.linspace(0.0, channel.t_max, 2001)))
        assert vars(default) == vars(explicit)

    @pytest.mark.parametrize("fault", sorted(BAD))
    def test_trajectory_rejects(self, fault):
        # the same rule holds for the evolved states
        times, match = self.BAD[fault]
        with pytest.raises(ValueError, match=match):
            trajectory(squeezed_pair(1.0, 1.0, 0.1), DampingChannel(alpha=0.1), times)


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
    # below which channel.evolve warns
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


def located(fn, times):
    times = np.asarray(times, dtype=float)
    fvals = fn(times)[None]
    _, *points = _grid_extrema(1, lambda rows, maps=None:
                               fvals[rows] if maps is None else fn(*maps),
                               measure._SubGrid(times, lambda t: (t,)))
    return [(t, f, kind) for t, f, kind in zip(*(p.tolist() for p in points)) if kind]


def pair_measures(inv, channel, times, edges=None):
    """``measure._pair_measures`` of the invariants ``inv`` on the grid
    ``times``, on the grid route unless ``edges`` are given."""
    return measure._pair_measures(inv, measure._SubGrid(times, channel.maps),
                                  channel.maps(times), edges)[0]


def diff_signs(df):
    """Signs of each row of grid differences df, a zero taking the sign of the
    nearest earlier nonzero, a leading zero that of the first: the grid
    route's bracket rule before it compared values, kept as its oracle."""
    sgn = np.sign(df)
    for r in np.flatnonzero(~sgn.all(axis=1)):
        nz = np.flatnonzero(sgn[r])
        if nz.size:
            last = np.searchsorted(nz, np.arange(sgn.shape[1]), side="right") - 1
            sgn[r] = sgn[r, nz[np.maximum(last, 0)]]
    return sgn


def sign_turns(fvals):
    """``_brackets`` by the signs of each row's differences, ``diff_signs``."""
    df = np.diff(fvals, axis=1)
    sgn = diff_signs(df)
    row, idx = np.nonzero(sgn[:, :-1] * sgn[:, 1:] < 0)
    keep = np.maximum(np.abs(df[row, idx]), np.abs(df[row, idx + 1])) >= _NOISE_FLOOR
    row, idx = row[keep], idx[keep]
    return row, idx, np.where(sgn[row, idx] > 0, 1, -1)


def refine_bracket(fn, times):
    """(t, F, kind) of each grid extremum of fn, one bracket at a time, by
    the rule of ``_grid_extrema`` written out for a single row."""
    f = fn(times)
    df = np.diff(f)
    sgn = diff_signs(df[None])[0]
    out = []
    for i in range(df.size - 1):
        if sgn[i] * sgn[i + 1] >= 0 or max(abs(df[i]), abs(df[i + 1])) < _NOISE_FLOOR:
            continue
        kind = 1 if sgn[i] > 0 else -1
        step = (times[i + 2] - times[i]) / (measure._SUBGRID - 1)
        sub_t = times[i] + step * np.arange(measure._SUBGRID)
        signed = kind * fn(sub_t)
        best = int(np.argmax(signed))
        mid = min(max(best, 1), measure._SUBGRID - 2)
        f_m, f_0, f_p = signed[mid - 1], signed[mid], signed[mid + 1]
        curv = f_m - 2.0 * f_0 + f_p
        shift = 0.5 * (f_m - f_p) / curv if curv < 0.0 else 0.0
        t_v = sub_t[mid] + min(max(shift, -1.0), 1.0) * step
        f_v = fn(np.array([t_v]))[0]
        if kind * f_v > signed[best]:
            out.append((float(t_v), float(f_v), kind))
        else:
            out.append((float(sub_t[best]), float(kind * signed[best]), kind))
    return out


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
        if family in ("coherent", "coherent_thermal"):
            # solved exactly: no optimizer runs, so none can stagnate
            assert res.intervals == ()
        else:
            # a flat objective cannot improve over the coarse grid: reported
            # as a stagnation diagnostic, not an error
            assert res.diagnostics["stagnation"] is True

    @settings(max_examples=15, deadline=None)
    @given(n=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           r=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
           phi=st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 2.0 * math.pi)),
           beta=st.tuples(st.floats(0.0, 1.5), st.floats(0.0, 1.5)),
           theta=st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 2.0 * math.pi)))
    def test_divisible_zero_on_random_pairs(self, n, r, phi, beta, theta):
        pair = StatePairParams(n1=n[0], n2=n[1], r1=r[0], r2=r[1], phi1=phi[0],
                               phi2=phi[1], beta1_mag=beta[0], beta2_mag=beta[1],
                               theta1=theta[0], theta2=theta[1])
        channel = DampingChannel(alpha=0.1, rate=DampingRateSpec.constant(0.5))
        traj = fidelity_trajectory(pair, channel, np.linspace(0.0, 12.0, 601))
        assert measure_from_trajectory(traj) <= 1e-12

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

    def test_coherent_thermal_contains_coherent_first_order(self):
        # first-order N(n) is not monotone in n, and a (K, n) chord search
        # stopped at n = 5 with N = 0.0106, below the 0.0237 of the coherent
        # pairs (n = 0) that the family contains
        channel = FirstOrderMaps(DampingChannel(alpha=0.05, t_max=8.0 * np.pi))
        times = np.linspace(0.0, 8.0 * np.pi, 2001)
        coh = maximize_measure("coherent", channel, times=times)
        res = maximize_measure("coherent_thermal", channel, times=times)
        assert res.value >= coh.value - 1e-12 * coh.value
        assert res.method == "exact"
        k, n = res.diagnostics["argmax_vector"]
        assert res.argmax == StatePairParams(n1=n, n2=n, beta1_mag=math.sqrt(2.0 * k))
        traj = fidelity_trajectory(res.argmax, channel, times)
        assert measure_from_trajectory(traj) == pytest.approx(res.value, rel=1e-12)


def oracle_coherent(channel, times, k_max):
    """(N, K) by a K search through the full F(t) path of each pair.

    Independent of the exact solver: every K evolves the pair, takes its
    fidelity trajectory and its backflow, on a dense geometric K grid plus
    a bounded search around the best grid point.
    """
    def backflow(k):
        return measure_from_trajectory(
            fidelity_trajectory(coherent_pair(k), channel, times))

    ks = np.geomspace(1e-3, k_max, 64)
    vals = [backflow(k) for k in ks]
    j = int(np.argmax(vals))
    res = minimize_scalar(lambda k: -backflow(k), method="bounded",
                          bounds=(ks[max(j - 1, 0)], ks[min(j + 1, 63)]),
                          options={"xatol": 1e-10})
    if -res.fun > vals[j]:
        return float(-res.fun), float(res.x)
    return float(vals[j]), float(ks[j])


@pytest.fixture(scope="module")
def fig3_tables():
    # fig3/fig4-shaped unit-coupling tables on a coarse grid: two Delta < 0
    # intervals at T = 0.2, three at T = 0.5
    return {temp: build_coefficients(
                EnvironmentSpec(omega0=1.0, omega_c=0.2, temperature=temp),
                alpha=1.0, t_end=40.0, n_steps=400)
            for temp in (0.2, 0.5)}


def two_interval_damping():
    ts = np.linspace(0.0, 12.0, 1201)
    return DampingChannel(alpha=0.1, rate=DampingRateSpec.from_table(ts, np.sin(ts)),
                          t_max=12.0)


class TestNegativityIntervals:
    def test_dip_narrower_than_any_resample(self):
        # a 5e-3 wide dip of a 100001-sample table: the spline's roots find
        # it, where a sign check on a coarse resample sees none
        ts = np.linspace(0.0, 100.0, 100001)
        spec = DampingRateSpec.from_table(
            ts, 1.0 - 2.0 * np.exp(-((ts - 50.0123) / 0.003) ** 2))
        (lo, hi), = spec.negativity_intervals(100.0)
        assert lo < 50.0123 < hi
        assert hi - lo == pytest.approx(5e-3, rel=2e-3)
        channel = DampingChannel(alpha=0.01, rate=spec, t_max=100.0)
        assert first_order_coherent(channel) == pytest.approx(2.28e-5, rel=1e-3)

    def test_delta_intervals_match_sampled_oracle(self, fig3_tables):
        for table in fig3_tables.values():
            for alpha in (0.05, 0.1):
                rescaled = table.rescaled(alpha)
                spline = rescaled.delta_spline()
                exact = rescaled.delta_negativity_intervals()
                oracle = _sign_intervals(spline.x, spline(spline.x), spline)
                assert len(exact) == len(oracle) >= 2
                assert np.allclose(exact, oracle, rtol=0.0, atol=1e-12)

    def test_delta_intervals_found_once_per_table(self, monkeypatch):
        # Delta does not depend on alpha: a table and its rescaled copies
        # share one root search, which a pickled channel carries with it
        calls = []
        original = PiecewisePoly.negative_intervals

        def counted(spline, t_end):
            calls.append(t_end)
            return original(spline, t_end)

        monkeypatch.setattr(PiecewisePoly, "negative_intervals", counted)
        for temp in (0.2, 0.5):  # the fig3 tables, built afresh
            table = build_coefficients(EnvironmentSpec(1.0, 0.2, temp), alpha=1.0,
                                       t_end=40.0, n_steps=400)
            early = table.rescaled(0.02)  # before the search
            want = table.delta_negativity_intervals()
            assert len(want) >= 2 and len(calls) == 1
            for alpha in (0.01, 0.05, 0.1):
                assert table.rescaled(alpha).delta_negativity_intervals() == want
            assert early.delta_negativity_intervals() == want
            clone = pickle.loads(pickle.dumps(QbmChannel(table.rescaled(0.1))))
            assert clone.coeffs.delta_negativity_intervals() == want
            assert clone.exponent_backflows() == QbmChannel(
                table.rescaled(0.1)).exponent_backflows()
            assert len(calls) == 1
            calls.clear()


class KnotChannel:
    """Stand-in channel: vacuum covariances and mean factor sqrt(a(t)).

    a(t) eases by half cosines through ``knots`` at t = 0, 1, 2, ..., so a
    coherent pair's F(t) = exp(-K a(t)) has its extrema at the knots.
    """

    def __init__(self, knots):
        self.knots = np.asarray(knots, dtype=float)

    def eased(self, ts):
        ts = np.asarray(ts, dtype=float)
        i = np.clip(ts.astype(int), 0, self.knots.size - 2)
        step = self.knots[i + 1] - self.knots[i]
        return self.knots[i] + step * (1.0 - np.cos(np.pi * (ts - i))) / 2.0

    def maps(self, ts):
        a = self.eased(ts)
        return np.sqrt(a), np.ones_like(a), np.zeros_like(a)


class NoiseKnotChannel(KnotChannel):
    """Stand-in channel: m = c = 1 and noise weight (B(t) - 1) / 2, with B
    eased through ``knots`` as KnotChannel's a(t), so a coherent-thermal
    pair at occupation n has a_n = 1 / (B(t) + 2n)."""

    def maps(self, ts):
        b = self.eased(ts)
        return np.ones_like(b), np.ones_like(b), 0.5 * (b - 1.0)


class TestBatchedTrajectories:
    def test_ragged_batch_matches_lone_pairs(self, fig3_tables):
        # on [0, 6.24] these pairs have 0, 1, 2, 2 and 1 extrema, so the
        # bracket rows of one batch belong to pairs unevenly
        channel = QbmChannel(fig3_tables[0.5].rescaled(0.1))
        ts = np.linspace(0.0, 6.24, 401)
        pairs = [StatePairParams(r1=0.5, r2=0.5), coherent_pair(1.0),
                 StatePairParams(n1=1.0), StatePairParams(n1=0.2, r1=1.5, phi1=2.0),
                 squeezed_pair(2.0, 0.3, 1.0)]
        lone = [fidelity_trajectory(pair, channel, ts) for pair in pairs]
        assert [len(traj.extrema) for traj in lone] == [0, 1, 2, 2, 1]
        falls = measure._falls(measure._fid(measure._invariants_of(pairs),
                                            channel.maps(ts)),
                               len(pairs), measure._SubGrid(ts, channel.maps),
                               None)
        assert falls[0].tolist() == [1, 2, 3, 4]  # one fall each but the first's
        for r, traj in enumerate(lone):
            got = [NegativityInterval(tp, tm, fp - fm) for row, tp, tm, fp, fm
                   in zip(*(a.tolist() for a in falls)) if row == r]
            assert got == backflow_intervals(traj)


# 0.5 (sin t + 0.2) on [0, 20]: three gamma < 0 intervals, x > 0 throughout
SINE_TIMES = np.linspace(0.0, 20.0, 2001)
SINE_TABLE = DampingRateSpec.from_table(SINE_TIMES, 0.5 * (np.sin(SINE_TIMES) + 0.2))


def mixed_pairs(rng, count):
    """Random displaced squeezed thermal pairs with n >= 0.05.

    Near a pure state the fidelity kernel re-derives det V - 1/4 from
    rounded entries, which moves F by up to ~1e-8 (``TestPureStatePrecision``
    in test_states.py); these pairs keep that error out of 1e-12 bounds.
    """
    def draw(lo, hi):
        return float(rng.uniform(lo, hi))

    return [StatePairParams(n1=draw(0.05, 2.0), n2=draw(0.05, 2.0),
                            r1=draw(0.0, 1.5), r2=draw(0.0, 1.5),
                            phi1=draw(0.0, 2.0 * math.pi), phi2=draw(0.0, 2.0 * math.pi),
                            beta1_mag=draw(0.0, 2.0), beta2_mag=draw(0.0, 2.0),
                            theta1=draw(0.0, 2.0 * math.pi),
                            theta2=draw(0.0, 2.0 * math.pi))
            for _ in range(count)]


class TestEdgeRoute:
    """N of exact damping from the interval edges, against the grid route."""

    @pytest.mark.parametrize("rate, times, edges", [
        pytest.param(RATE, np.linspace(0.0, 25.0, 2001), True, id="decaying_sine"),
        pytest.param(SINE_TABLE, SINE_TIMES, True, id="three_intervals"),
        # [4, 17] starts inside the first interval and ends inside the third
        pytest.param(SINE_TABLE, np.linspace(4.0, 17.0, 1301), True, id="window"),
        # gamma < 0 from t = 0 drives x below 0: the evolved states are not
        # physical, fidelity need not rise outside the intervals
        pytest.param(DampingRateSpec.from_table(
            SINE_TIMES[:1001], 0.5 * (np.sin(SINE_TIMES[:1001]) - 0.2)),
            SINE_TIMES[:1001], False, id="x_below_zero"),
    ])
    def test_edges_match_grid_route(self, rate, times, edges):
        channel = DampingChannel(alpha=0.3, rate=rate, t_max=float(times[-1]))
        found = measure._edge_maps(channel, times)
        assert (found is not None) == edges
        pairs = mixed_pairs(np.random.default_rng(16), 40)
        got = pair_measures(measure._invariants_of(pairs), channel, times, found)
        want = [measure_from_trajectory(fidelity_trajectory(p, channel, times))
                for p in pairs]
        assert max(want) > 1e-3
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_edges_of_a_window(self):
        channel = DampingChannel(alpha=0.3, rate=SINE_TABLE, t_max=20.0)
        t, (m, c, n) = measure._edge_maps(channel, np.linspace(4.0, 17.0, 1301))
        (lo1, hi1), (lo2, hi2), (lo3, _) = SINE_TABLE.negativity_intervals(20.0)
        assert t.tolist() == [4.0, hi1, lo2, hi2, lo3, 17.0]
        assert np.array_equal(c, channel.maps(t)[1])

    @pytest.mark.parametrize("family", ["squeezed", "general_pure", "coherent_thermal"])
    def test_intervals_are_the_edge_drops(self, family):
        # F of the argmax falls only across the gamma < 0 intervals, so those
        # are the result's intervals, each with the drop of F between its
        # edges, and the drops add up to the value
        channel = DampingChannel(alpha=0.3, rate=SINE_TABLE, t_max=20.0)
        res = maximize_measure(family, channel, phi=0.1, times=SINE_TIMES)
        _, maps = measure._edge_maps(channel, SINE_TIMES)
        f = fidelity_arrays(measure._invariants_of([res.argmax]), maps, branch=True)[0]
        assert ([(iv.t_plus, iv.t_minus) for iv in res.intervals]
                == SINE_TABLE.negativity_intervals(20.0))
        drops = [iv.contribution for iv in res.intervals]
        assert drops == (f[::2] - f[1::2]).tolist()
        if family == "coherent_thermal":  # the value is the zoomed K's total
            assert res.value == pytest.approx(sum(drops), rel=1e-12)
        else:
            assert res.value == sum(drops)
        # the argmax's grid trajectory finds them to its resolution
        grid = backflow_intervals(fidelity_trajectory(res.argmax, channel, SINE_TIMES))
        assert len(grid) == len(res.intervals) == 3
        for g, e in zip(grid, res.intervals):
            assert abs(g.t_plus - e.t_plus) <= 0.02 and abs(g.t_minus - e.t_minus) <= 0.02
            assert g.contribution == pytest.approx(e.contribution, rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(n=st.tuples(st.floats(0.05, 3.0), st.floats(0.05, 3.0)),
           r=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
           angles=st.tuples(*[st.floats(0.0, 2.0 * math.pi)] * 4),
           beta=st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)),
           alpha=st.floats(0.01, 0.5),
           rate=st.sampled_from([RATE, SINE_TABLE]))
    def test_fidelity_rises_outside_intervals(self, n, r, angles, beta, alpha, rate):
        # F(t) = G(x(t)) with G non-decreasing, so F may fall only where
        # gamma < 0.  Mixed pairs only: see mixed_pairs.
        pair = StatePairParams(n1=n[0], n2=n[1], r1=r[0], r2=r[1],
                               phi1=angles[0], phi2=angles[1],
                               beta1_mag=beta[0], beta2_mag=beta[1],
                               theta1=angles[2], theta2=angles[3])
        ts = SINE_TIMES
        channel = DampingChannel(alpha=alpha, rate=rate, t_max=20.0)
        df = np.diff(fidelity_trajectory(pair, channel, ts).fidelities)
        outside = np.ones(df.size, dtype=bool)
        for lo, hi in rate.negativity_intervals(20.0):
            outside &= (ts[1:] <= lo) | (ts[:-1] >= hi)
        assert outside.sum() > 1000
        assert df[outside].min() >= -1e-14


# 0.5 (sin t - 0.2) on [0, 10]: x < 0 from t = 0, so exact damping's pair
# searches fall back to the grid route
X_BELOW_ZERO = DampingRateSpec.from_table(
    SINE_TIMES[:1001], 0.5 * (np.sin(SINE_TIMES[:1001]) - 0.2))


class TestGridRoute:
    """The blocked grid route gives each pair's own trajectory's N, bit for bit."""

    @staticmethod
    def channel(kind, tables):
        if kind == "x_below_zero":
            return DampingChannel(alpha=0.3, rate=X_BELOW_ZERO, t_max=10.0)
        channel = QbmChannel(tables[0.5].rescaled(0.1))
        return FirstOrderMaps(channel) if kind == "first_order" else channel

    @pytest.mark.parametrize("kind", ["exact", "first_order", "x_below_zero"])
    @pytest.mark.parametrize("times", [
        pytest.param(np.linspace(0.0, 10.0, 2001), id="blocks"),
        pytest.param(np.array([3.0, 6.0]), id="2points"),
        pytest.param(np.array([0.0, 4.0, 8.0]), id="3points")])
    def test_equals_lone_trajectories(self, fig3_tables, kind, times):
        channel = self.channel(kind, fig3_tables)
        pairs = mixed_pairs(np.random.default_rng(18), 11)
        pairs[5] = StatePairParams()  # identical (r1 = r2 = 0): F = 1 up to rounding
        pairs[9] = StatePairParams(beta1_mag=1e-7)  # F moves below _NOISE_FLOOR
        trajs = [fidelity_trajectory(p, channel, times) for p in pairs]
        if times.size == 2001:
            rows = measure._BATCH_SAMPLES // times.size  # pairs per grid block
            assert 2 * rows < len(pairs) and rows < 5 < 2 * rows - 1
            assert len(trajs[5].extrema) == len(trajs[9].extrema) == 0
            # several drops, so that their order in the sum counts
            assert max(len(backflow_intervals(traj)) for traj in trajs) >= 2
            if kind == "x_below_zero":
                assert measure._edge_maps(channel, times) is None
        want = [measure_from_trajectory(traj) for traj in trajs]
        assert max(want) > 1e-4
        got = pair_measures(measure._invariants_of(pairs), channel, times)
        assert got.tolist() == want

    @pytest.mark.parametrize("times", [
        pytest.param(np.linspace(0.0, 10.0, 2001), id="blocks"),
        pytest.param(np.array([3.0, 6.0]), id="2points"),
        pytest.param(np.array([0.0, 4.0, 8.0]), id="3points")])
    def test_sub_grid_maps_once_per_bracket_start(self, times):
        # rows 0-2 and 5 have the same brackets, rows 3 and 4 others: the
        # sub-grid asks for one row of maps per distinct bracket start, and
        # every bracket's refinement equals a bracket-by-bracket search
        funcs = [np.cos, lambda t: 2.0 * np.cos(t) + 1.0, lambda t: 0.5 * np.cos(t),
                 lambda t: np.cos(t - 0.7), lambda t: np.sin(2.3 * t),
                 lambda t: -np.cos(t)]
        fvals = np.array([f(times) for f in funcs])
        asked = []

        def maps_of(t):
            asked.append(t)
            return (t,)

        def fid(rows, maps=None):
            if maps is None:
                return fvals[rows]
            return np.array([funcs[r](t) for r, t in zip(rows, maps[0])])

        row, t, f, kind = _grid_extrema(len(funcs), fid,
                                        measure._SubGrid(times, maps_of))
        brute = [refine_bracket(funcs[r], times) for r in range(len(funcs))]
        got = [[(tt, ff, k) for rr, tt, ff, k in zip(row.tolist(), t.tolist(),
                                                      f.tolist(), kind.tolist())
                if rr == r and k] for r in range(len(funcs))]
        assert got == brute
        brackets = sum(map(len, brute))
        if times.size == 2:
            assert brackets == 0 and asked == []
            return
        starts = {float(t0) for t0 in asked[0][:, 0]}
        assert len(asked) == 2 and asked[0].shape == (len(starts), measure._SUBGRID)
        assert asked[1].shape == (brackets, 1)
        if times.size == 2001:
            assert 5 < len(starts) < brackets  # some starts shared, not all
            assert got[0] != [] and got[3] != [] and got[0][0][0] != got[3][0][0]

    def test_sub_grid_starts_once_per_maximization(self, fig3_tables, monkeypatch):
        # a maximization takes each bracket start's sub-grid maps once over
        # all its batches; the next asks again: its sub-grids died with it
        channel = QbmChannel(fig3_tables[0.2].rescaled(0.1))
        starts, asked, alive = [], [], []

        class Recorded(measure._SubGrid):
            def __init__(self, ts, maps_of):
                def recorded(t):
                    if t.shape[-1] == measure._SUBGRID:
                        starts[-1].extend(t[:, 0].tolist())
                    return maps_of(t)

                super().__init__(ts, recorded)
                starts.append([])
                alive.append(weakref.ref(self))

            def maps(self, idx):
                asked.extend(idx.tolist())
                return super().maps(idx)

        monkeypatch.setattr(measure, "_SubGrid", Recorded)
        runs = [maximize_measure("squeezed", channel, phi=0.05, equal_squeezing=True,
                                 times=np.linspace(0.0, 40.0, 401)) for _ in range(2)]
        gc.collect()
        assert len(alive) == 2 and not any(ref() for ref in alive)
        first, second = starts
        assert len(first) == len(set(first)) > 10 and 2 * len(first) < len(asked)
        assert second == first and runs[0].value == runs[1].value > 0.0

    @pytest.mark.parametrize("mode", ["exact", "first_order"])
    def test_sub_grid_rows_are_the_channel_maps(self, fig3_tables, mode):
        # gathered rows, old and new starts mixed, are the channel's maps at
        # the brackets' sub-grid times, bit for bit
        ts = np.linspace(0.0, 40.0, 401)
        for channel in (QbmChannel(fig3_tables[0.5].rescaled(0.1)),
                        DampingChannel(alpha=0.1, rate=RATE)):
            if mode == "first_order":
                channel = FirstOrderMaps(channel)
            sub = measure._SubGrid(ts, channel.maps)
            for idx in ([5, 9, 5, 398], [9, 0, 200, 5, 200], [398], [7, 7]):
                lo, step = ts[idx], (ts[np.add(idx, 2)] - ts[idx]) / 64.0
                sub_t = lo[:, None] + step[:, None] * np.arange(measure._SUBGRID)
                got, want = sub.maps(np.array(idx)), channel.maps(sub_t)
                assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_step_back_in_time_is_no_drop(self):
        # a peak (t = 5) and a dip (t = 7) inside one grid step: the first
        # bracket's refined maximum of F comes after the second's minimum,
        # and the fall of F between them runs back in time
        knots = [3, 2.75, 2.5, 2.25, 2, 5, 2.5, 0.1, 2.5, 2.4, 2.3, 2.1, 2, 2.1,
                 2.2, 2.3, 2.4]
        channel, times = KnotChannel(knots), np.arange(0.0, 17.0, 4.0)
        pair = coherent_pair(1.0)
        traj = fidelity_trajectory(pair, channel, times)
        assert [t for t, _, _ in traj.extrema] == [7.0, 5.0, 12.0]
        want = measure_from_trajectory(traj)
        assert want == pytest.approx(math.exp(-2.0) - math.exp(-2.4), rel=1e-12)
        assert pair_measures(measure._invariants_of([pair]), channel,
                             times).tolist() == [want]

    @pytest.mark.parametrize("mode", ["exact", "first_order"])
    @pytest.mark.parametrize("equal", [False, True], ids=["r1_r2", "equal"])
    def test_intervals_are_the_argmax_trajectory(self, fig3_tables, mode, equal):
        # the argmax's intervals are its own trajectory's, field for field,
        # and their contributions add up to the value bit for bit
        channel = QbmChannel(fig3_tables[0.5].rescaled(0.1))
        if mode == "first_order":
            channel = FirstOrderMaps(channel)
        times = np.linspace(0.0, 40.0, 401)
        res = maximize_measure("squeezed", channel, phi=0.1, equal_squeezing=equal,
                               times=times)
        want = backflow_intervals(fidelity_trajectory(res.argmax, channel, times))
        assert len(want) >= 2
        assert list(res.intervals) == want
        assert res.value == sum(iv.contribution for iv in res.intervals)

    def test_filled_signs_row_by_row(self):
        # under exact damping the identical pair r1 = r2 = 0 has F = 1
        # exactly: its row of grid differences is all zeros, and the other
        # rows keep their own signs
        channel = damping_channel(0.1)
        ts = np.linspace(0.0, 25.0, 501)
        pairs = [squeezed_pair(1.0, 1.0, 0.1), squeezed_pair(0.0, 0.0, 0.1),
                 coherent_pair(1.0), StatePairParams(n1=1.0)]
        df = np.diff(fidelity_arrays(measure._invariants_of(pairs), channel.maps(ts),
                                     branch=True), axis=1)
        assert not df[1].any() and df[[0, 2, 3]].all()
        ups = measure._filled_signs(df > 0.0, df == 0.0)
        for row, alone in zip(ups, df):
            assert np.array_equal(
                row, measure._filled_signs(alone[None] > 0.0, alone[None] == 0.0)[0])

    def test_filled_signs_oracle(self):
        # a zero takes the sign of the nearest earlier nonzero, a leading
        # zero that of the first; a row of zeros rises nowhere (all False)
        df = np.random.default_rng(19).choice([-2.0, 0.0, 0.0, 3.0], size=(40, 9))
        df[5], df[6, :4] = 0.0, 0.0
        want = []
        for row in df:
            nz = np.flatnonzero(row)
            want.append([np.sign(row[max((k for k in nz if k <= j), default=nz[0])])
                         if nz.size else 0.0 for j in range(row.size)])
        raw = measure._filled_signs(df > 0.0, df == 0.0)
        flat_rows = (df == 0.0).all(axis=1)
        assert flat_rows.sum() >= 1 and not raw[flat_rows].any()
        got = np.where(raw, 1.0, -1.0)
        assert np.array_equal(got[~flat_rows], np.asarray(want)[~flat_rows])

    def test_brackets_equal_the_difference_signs(self):
        # turns found by comparing values are the sign changes of the filled
        # grid differences, with their kinds and noise-floor cut, on rows
        # with plateaus, ties, flat rows, leading and trailing flats and
        # steps at and below _NOISE_FLOOR
        rng = np.random.default_rng(21)
        steps = rng.choice([-1.0, 0.0, 0.0, 1.0], size=(300, 40))
        steps *= rng.choice([1.0, 1e-15, _NOISE_FLOOR, 0.3], size=steps.shape)
        steps[:20] = 0.0  # flat rows
        steps[20:60, :7] = 0.0  # leading flats
        steps[40:80, -6:] = 0.0  # trailing flats
        steps[100:140, 10:30] = 0.0  # plateaus
        fvals = 0.5 + np.cumsum(steps, axis=1)
        fvals[140:160] = fvals[140:160, :1]  # ties of the first value
        fvals[160:200] += 1e-15 * rng.standard_normal((40, 40))  # rounding noise
        want = sign_turns(fvals)
        assert len(want[0]) > 1000 and (want[2] == 1).any() and (want[2] == -1).any()
        for a, b in zip(measure._brackets(fvals), want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("width", [3, 4, 9])
    def test_brackets_stop_at_row_junctions(self, width):
        # rows compared as one contiguous run of samples: turns at a row's
        # last step, flat runs into the junction and junctions that rise,
        # fall or stay level are those of the rows taken one by one
        rng = np.random.default_rng(width)
        fvals = np.cumsum(rng.choice([-1.0, 0.0, 1.0], size=(400, width)), axis=1)
        fvals[::7, -2:] = fvals[::7, -3:-2] + [[1.0, 0.0]]  # a turn at the last step
        fvals[1::7, -2:] = fvals[1::7, -3:-2]  # a flat run into the junction
        fvals[2::7] -= fvals[2::7, :1] - fvals[1::7, -1:]  # level with the row before
        want = sign_turns(fvals)
        assert (want[1] == width - 3).sum() > 50 and len(want[0]) > 100
        assert (fvals[2::7, 0] == fvals[1::7, -1]).all()
        for a, b in zip(measure._brackets(fvals), want):
            assert np.array_equal(a, b)


class TestFamilyMoments:
    @pytest.mark.parametrize("family, equal", [
        ("squeezed", True), ("squeezed", False), ("general_pure", False)])
    def test_moments_are_those_of_the_built_pairs(self, family, equal):
        # the invariants of a batch's parameter arrays are those of the
        # family's pairs, bit for bit: phi and theta beyond 2 pi are reduced
        # as StatePairParams does; one vector's fields are its pair
        dims, _, params = measure._family_space(family, ParamBounds(), 7.5, equal)

        def pair(v):
            if family == "squeezed":  # v[-1] is v[0] with equal squeezing
                return squeezed_pair(v[0], v[-1], 7.5)
            return StatePairParams(beta1_mag=v[0], theta1=v[1], r1=v[2], r2=v[3],
                                   phi1=7.5)

        rng = np.random.default_rng(17)
        lo, hi = np.array(dims).T
        vecs = rng.uniform(lo, hi, size=(25, len(dims)))
        if family == "general_pure":
            vecs[:, 1] += 2.0 * math.pi * rng.integers(1, 4, size=25)
        got = pair_invariants(**params(vecs))
        want = measure._invariants_of([pair(v) for v in vecs])
        assert got.shape == want.shape == (8, 25)
        assert got.tobytes() == want.tobytes()
        assert [StatePairParams(**params(v)) for v in vecs] == [pair(v) for v in vecs]

    def test_empty_batch(self):
        # the equal-squeezing family has no product grid: its first batch
        # is empty
        _, _, params = measure._family_space("squeezed", ParamBounds(), 0.1, True)
        empty = pair_invariants(**params(np.zeros((0, 1))))
        assert empty.shape == (8, 0)
        channel = damping_channel(0.1)
        ts = np.linspace(0.0, 25.0, 201)
        for edges in (measure._edge_maps(channel, ts), None):
            assert pair_measures(empty, channel, ts, edges).shape == (0,)


NM_OPTIONS = {"xatol": 1e-7, "fatol": 1e-13, "maxiter": 500}


def oracle_nelder_mead(build, dims, grid, channel, times):
    """N of a pair family by the search the chord zooms replaced.

    The family's pairs are ``build(v)`` for v in the box ``dims``.  Its
    coarse ``grid`` of v, then bounded Nelder-Mead (NM_OPTIONS) from the
    best three grid points, one pair per evaluation through
    ``fidelity_trajectory``.
    """
    lo, hi = np.array(dims).T

    def backflow(v):
        return measure_from_trajectory(
            fidelity_trajectory(build(np.clip(v, lo, hi)), channel, times))

    vals = [backflow(v) for v in grid]
    best = max(vals)
    for j in np.argsort(vals)[::-1][:3]:
        res = minimize(lambda v: -backflow(v), grid[j], method="Nelder-Mead",
                       bounds=dims, options=NM_OPTIONS)
        best = max(best, -res.fun)
    return best


def product_grid(dims, points):
    axes = [np.linspace(a, b, points) for a, b in dims]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


def oracle_equal_squeezing(channel, phi, times, r_max):
    """N of the r1 = r2 squeezed family: a 9-point r grid plus Nelder-Mead."""
    dims = [(0.0, r_max)]
    return oracle_nelder_mead(lambda v: squeezed_pair(v[0], v[0], phi), dims,
                              product_grid(dims, 9), channel, times)


def oracle_squeezed(channel, phi, times, r_max):
    """N of the (r1, r2) family: a 7 x 7 grid and its 29-point diagonal,
    then Nelder-Mead."""
    dims = [(0.0, r_max)] * 2
    diag = np.linspace(0.0, r_max, 29)
    grid = np.concatenate([product_grid(dims, 7), np.stack([diag, diag], axis=-1)])
    return oracle_nelder_mead(lambda v: squeezed_pair(v[0], v[1], phi), dims,
                              grid, channel, times)


def oracle_coherent_thermal(channel, times, bounds):
    """N of the (K, n) coherent-thermal family: a 7 x 7 grid, then
    Nelder-Mead."""
    def build(v):
        return StatePairParams(n1=v[1], n2=v[1], beta1_mag=math.sqrt(2.0 * v[0]))

    dims = [(1e-9, bounds.k_max), (0.0, bounds.n_max)]
    return oracle_nelder_mead(build, dims, product_grid(dims, 7), channel, times)


def tiny_squeezed_points():
    """(table T, phi) of the squeezed curves of the tiny fig4 and fig5 sweeps."""
    fig4 = replace(fig_defaults(4), alpha_points=2, n_steps=300, traj_points=300)
    fig5 = replace(fig_defaults(5), alpha_points=2, n_steps=300, traj_points=300,
                   temperatures=(0.3, 0.9))
    return [(fig4, 0.2, phi) for phi in fig4.phis] + [
        (fig5, tv, fig5.phis[0]) for tv in fig5.temperatures]


class TestEqualSqueezingSearch:
    @pytest.mark.parametrize("cfg, tv, phi", tiny_squeezed_points(),
                             ids=["fig4-phi0.05", "fig4-phi0.1", "fig5-T0.3",
                                  "fig5-T0.9"])
    def test_no_worse_than_nelder_mead(self, cfg, tv, phi):
        base = _table(cfg, cfg.omega0[0], tv)
        times = np.linspace(0.0, cfg.t_end, cfg.traj_points + 1)
        for alpha in cfg.alphas:
            channel = QbmChannel(base.rescaled(alpha))
            with pair_batches() as rows:
                res = maximize_measure("squeezed", channel, bounds=cfg.bounds(),
                                       phi=phi, equal_squeezing=True, times=times)
            oracle = oracle_equal_squeezing(channel, phi, times, cfg.r_max)
            assert res.value >= oracle - 1e-12 * res.value
            # an empty product grid, then one chord: its 33-point grid and
            # one batch per zoom step
            d = res.diagnostics
            assert rows[:2] == [0, 33]
            assert d["grid_evaluations"] == 33
            assert d["iterations"] == len(rows) - 2
            assert d["function_evaluations"] == sum(rows)


def zoom_without_memo(f, lo, hi, points, levels=7):
    """The level loop ``measure._zoom_max`` ran before its parabolic steps,
    with no memo: a ``points``-point grid, then ``levels`` levels of 17
    points, each spanning one previous step either side of the best x, every
    level sent to ``f`` whole.  Returns ``_zoom_max``'s five fields."""
    xs = np.linspace(lo, hi, points)
    vals = f(xs)
    j = int(np.argmax(vals))
    best_x, best_val, coarse = xs[j], vals[j], vals[j]
    for _ in range(levels):
        half = xs[1] - xs[0]
        xs = np.linspace(max(lo, best_x - half), min(hi, best_x + half),
                         measure._ZOOM_POINTS)
        vals = f(xs)
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_x, best_val = xs[j], vals[j]
    return (float(best_x), float(best_val), float(coarse), levels,
            points + levels * measure._ZOOM_POINTS)


def recorded_zoom(fn, lo, hi, points):
    """``measure._zoom_max`` of ``fn`` and the abscissae of each batch it sent."""
    batches = []

    def recording(xs):
        batches.append(xs.tolist())
        return fn(xs)

    return measure._zoom_max(recording, lo, hi, points), batches


def two_peaks(x):
    """Two peaks whose maxima differ by 1e-13, the coarse grid nearer the lower."""
    return (np.exp(-(x - 1.0) ** 2 / 0.01)
            + (1.0 - 1e-13) * np.exp(-(x - 1.6) ** 2 / 0.01))


class TestZoomMemo:
    @pytest.mark.parametrize("fn, lo, hi, points", [
        (lambda x: -(x - 1.3) ** 2, 0.0, 5.0, 33),
        (lambda x: np.cos(7.0 * x) * np.exp(-x), 0.0, 1.0, 129),
        (lambda x: -(x - 0.37) ** 2, 0.1, 2.9, 33),
        (lambda x: x, 0.0, 5.0, 33),  # best at the upper edge
        (lambda x: -x, 0.0, 5.0, 33),  # and at the lower
    ], ids=["interior", "oscillating", "non-dyadic", "upper-edge", "lower-edge"])
    def test_each_abscissa_scored_once(self, fn, lo, hi, points):
        (x, value, coarse, steps, scored), batches = recorded_zoom(fn, lo, hi, points)
        asked = [a for batch in batches for a in batch]
        assert len(asked) == len(set(asked)) == scored
        assert len(batches) == steps + 1
        # the best value scored, at least the coarse grid's best
        assert value == fn(np.array([x]))[0] == max(fn(np.array(asked)))
        assert coarse == max(fn(np.linspace(lo, hi, points)))
        assert value >= coarse
        assert value >= zoom_without_memo(fn, lo, hi, points)[1]

    @pytest.mark.parametrize("lo, hi", [(0.0, 5.0), (0.1, 2.9)])
    def test_parabola_reaches_its_vertex(self, lo, hi):
        (x, *_), batches = recorded_zoom(lambda x: -(x - 1.3) ** 2, lo, hi, 33)
        assert abs(x - 1.3) <= 1e-8
        assert all(len(b) <= 5 for b in batches[1:])  # steps, no level

    @pytest.mark.parametrize("sign, edge", [(1.0, 5.0), (-1.0, 0.0)],
                             ids=["upper", "lower"])
    def test_linear_returns_box_edge_through_levels(self, sign, edge):
        (x, value, *_), batches = recorded_zoom(lambda x: sign * x, 0.0, 5.0, 33)
        assert x == edge and value == sign * edge
        # the grid's best is an end: levels of 17 points, more than a step
        # sends, follow; each repeats at least the best point
        assert len(batches) > 1 and all(5 < len(b) < 17 for b in batches[1:])

    @pytest.mark.parametrize("fn", [lambda x: -np.abs(x - 0.37), two_peaks],
                             ids=["kink", "two-peaks"])
    def test_no_lower_than_the_level_loop(self, fn):
        (_, value, *_), _ = recorded_zoom(fn, 0.0, 5.0, 33)
        assert value >= zoom_without_memo(fn, 0.0, 5.0, 33)[1] - 1e-12

    def test_flat_grid_ends_the_zoom(self):
        (x, value, coarse, steps, scored), batches = recorded_zoom(
            np.zeros_like, 0.0, 5.0, 33)
        assert (x, value, coarse, steps, scored) == (0.0, 0.0, 0.0, 0, 33)
        assert len(batches) == 1

    def test_curvature_rounded_to_zero_ends_the_zoom(self):
        # (1 - 2**-53) - 2 + 1 rounds to 0.0: the step must stop there, not
        # divide by the curvature
        def step(xs):
            return np.where(xs >= 0.5, 1.0, 1.0 - 2.0 ** -53)

        assert measure._zoom_max(step, 0.0, 1.0, 33) == (0.5, 1.0, 1.0, 0, 33)

    @pytest.mark.parametrize("equal, batches", [(True, [0, 33]), (False, [78, 33, 1])],
                             ids=["equal", "r1_r2"])
    def test_divisible_channel_scores_one_grid(self, equal, batches):
        # no gamma < 0 interval: N = 0 for every pair, and each chord's grid
        # is all (seven levels of 15 new pairs followed it).  In (r1, r2)
        # the (1, -1) chord out of the corner (0, 0) has zero length: its
        # 33 grid points are one pair, sent once
        channel = DampingChannel(alpha=0.1, rate=DampingRateSpec.constant(0.5))
        with pair_batches() as rows:
            res = maximize_measure("squeezed", channel, phi=0.1,
                                   equal_squeezing=equal,
                                   times=np.linspace(0.0, 10.0, 401))
        assert rows == batches
        assert res.diagnostics["function_evaluations"] == sum(batches)
        assert res.value == 0.0 and res.intervals == ()

    def test_stationary_stencil_stops_at_once(self):
        # symmetric about the grid's best point: the parabola's vertex is
        # that point, so no step can gain more than rounding
        (x, value, _, steps, _), batches = recorded_zoom(
            lambda x: -(x - 2.5) ** 2, 0.0, 5.0, 33)
        assert (x, value, steps) == (2.5, 0.0, 0)
        assert len(batches) == 1

    def test_equal_squeezing_chord_scores_59_pairs(self, fig3_tables):
        with pair_batches() as rows:
            res = maximize_measure("squeezed",
                                   QbmChannel(fig3_tables[0.2].rescaled(0.1)),
                                   phi=0.05, equal_squeezing=True,
                                   times=np.linspace(0.0, 40.0, 401))
        # an empty product grid, then the chord: its grid and one batch per
        # step (131 pairs in 9 batches when seven levels of 17 points followed)
        assert rows == [0, 33, 5, 4, 4, 5, 5, 3]
        assert res.diagnostics["iterations"] == len(rows) - 2
        assert res.diagnostics["function_evaluations"] == sum(rows)


def fresh_falls(res, channel, times):
    """The intervals of one ``measure._falls`` pass on ``res.argmax`` alone,
    on the route ``maximize_measure`` takes: the pass it ran after its
    search until it kept the falls its value was summed from."""
    ts = measure._grid(times)
    falls = measure._falls(measure._fid(measure._invariants_of([res.argmax]),
                                        channel.maps(ts)),
                           1, measure._SubGrid(ts, channel.maps),
                           measure._edge_maps(channel, ts))
    return [NegativityInterval(tp, tm, fp - fm)
            for _, tp, tm, fp, fm in zip(*(a.tolist() for a in falls))]


def kept_falls_channel(kind, tables):
    """(channel, times) of exact damping (edge route) or QBM (grid route)."""
    if kind == "damping":
        return damping_channel(0.1), np.linspace(0.0, 25.0, 1001)
    return QbmChannel(tables[0.2].rescaled(0.1)), np.linspace(0.0, 40.0, 401)


class TestKeptFalls:
    @pytest.mark.parametrize("kind", ["damping", "qbm"])
    @pytest.mark.parametrize("family, equal", [
        ("squeezed", True), ("squeezed", False), ("general_pure", False)],
        ids=["equal-squeezing", "squeezed", "general-pure"])
    def test_squeezing_families_keep_the_argmax_falls(self, fig3_tables, kind,
                                                     family, equal):
        channel, times = kept_falls_channel(kind, fig3_tables)
        res = maximize_measure(family, channel, phi=0.1, equal_squeezing=equal,
                               times=times)
        assert res.value > 0.0 and res.intervals
        assert list(res.intervals) == fresh_falls(res, channel, times)
        assert sum(iv.contribution for iv in res.intervals) == res.value

    @pytest.mark.parametrize("kind", ["damping", "qbm"])
    @pytest.mark.parametrize("family", ["coherent", "coherent_thermal"])
    def test_coherent_families_keep_the_rises_of_a(self, fig3_tables, kind, family):
        # the rises of a at the argmax's K, against F = exp(-K a) sampled
        # afresh: the same intervals and drops.  On the grid route the
        # parabolic vertex of a and that of F land apart inside their
        # sub-grid step (2e-11 in t on this table), where both are flat
        channel, times = kept_falls_channel(kind, fig3_tables)
        res = maximize_measure(family, channel, times=times)
        fresh = fresh_falls(res, channel, times)
        step = (times[2] - times[0]) / (measure._SUBGRID - 1)
        assert res.value > 0.0 and len(res.intervals) == len(fresh) > 0
        for kept, want in zip(res.intervals, fresh):
            assert kept.contribution == pytest.approx(want.contribution, rel=0.0,
                                                      abs=1e-12)
            assert (kept.t_plus, kept.t_minus) == pytest.approx(
                (want.t_plus, want.t_minus), rel=0.0, abs=step)
        assert sum(iv.contribution for iv in res.intervals) == pytest.approx(
            res.value, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kind", ["damping", "qbm"])
    @pytest.mark.parametrize("family", ["coherent", "coherent_thermal",
                                        "squeezed"])
    def test_no_falls_pass_after_the_search(self, monkeypatch, fig3_tables,
                                            kind, family):
        channel, times = kept_falls_channel(kind, fig3_tables)
        calls, searching = [], []

        def record(name):
            fn = getattr(measure, name)

            def wrapped(*args):
                if name == "_falls":
                    calls.append(bool(searching))
                    return fn(*args)
                searching.append(name)
                try:
                    return fn(*args)
                finally:
                    searching.pop()

            monkeypatch.setattr(measure, name, wrapped)

        for name in ("_falls", "_pair_measures", "_coherent_optimum"):
            record(name)
        maximize_measure(family, channel, times=times)
        # one pass per batch, each inside a batch of the search
        assert calls and all(calls)


def accuracy_points(tables):
    """(label, family, channel, phi, times, equal_squeezing) of the searches
    the zoom is checked on against fourteen levels: QBM equal squeezing on
    each table at three couplings and two angles, and two damping families."""
    times = np.linspace(0.0, 40.0, 401)
    out = [(f"qbm-T{tv:g}-a{alpha:g}-phi{phi:g}", "squeezed",
            QbmChannel(table.rescaled(alpha)), phi, times, True)
           for tv, table in tables.items() for alpha in (0.02, 0.08, 0.15)
           for phi in (0.05, 0.1)]
    damping_times = np.linspace(0.0, 25.0, 1001)
    return out + [(f"damping-{family}", family, damping_channel(0.1), 0.1,
                   damping_times, False)
                  for family in ("squeezed", "coherent_thermal")]


class TestZoomAccuracy:
    def test_within_1e12_of_fourteen_levels(self, monkeypatch, fig3_tables):
        tables = {**fig3_tables, 4.0: build_coefficients(
            EnvironmentSpec(omega0=1.0, omega_c=0.2, temperature=4.0),
            alpha=1.0, t_end=40.0, n_steps=400)}
        points = accuracy_points(tables)

        def values():
            return [maximize_measure(family, channel, phi=phi, times=times,
                                     equal_squeezing=eq).value
                    for _, family, channel, phi, times, eq in points]

        zoomed = values()
        monkeypatch.setattr(measure, "_zoom_max",
                            lambda *args: zoom_without_memo(*args, levels=14))
        for (label, *_), value, oracle in zip(points, zoomed, values()):
            assert value == pytest.approx(oracle, rel=1e-12, abs=0.0), label


def tiny_fig1_points():
    """(channel, phi, times, r_max) of every point of the tiny fig1 sweep."""
    cfg = replace(fig_defaults(1), alpha_points=2, traj_points=300)
    rate = DampingRateSpec(kind=cfg.rate, gamma0=cfg.gamma0)
    times = np.linspace(0.0, cfg.t_end, cfg.traj_points + 1)
    return [(DampingChannel(alpha=alpha, rate=rate, t_max=cfg.t_end), phi, times,
             cfg.r_max) for phi in cfg.phis for alpha in cfg.alphas]


class TestChordSearch:
    @pytest.mark.parametrize("channel, phi, times, r_max", tiny_fig1_points(),
                             ids=["phi0.1-a0", "phi0.1-a1", "phi0.2-a0",
                                  "phi0.2-a1"])
    def test_squeezed_no_worse_than_nelder_mead(self, channel, phi, times, r_max):
        with pair_batches() as rows:
            res = maximize_measure("squeezed", channel,
                                   bounds=ParamBounds(r_max=r_max), phi=phi,
                                   times=times)
        oracle = oracle_squeezed(channel, phi, times, r_max)
        assert res.value >= oracle - 1e-12 * res.value
        d = res.diagnostics
        # the (r1, r2) grid, then at least one chord along (1, 1) and (1, -1):
        # its 33-point grid, then batches of at most 17 pairs, one per step
        chords = rows.count(33)
        assert rows[0] == 78 and max(rows[1:]) == 33
        assert chords >= 2
        assert d["grid_evaluations"] == 78 + 33 * chords
        assert d["iterations"] == len(rows) - 1 - chords
        assert d["function_evaluations"] == sum(rows)

    def test_rounding_gain_searches_no_direction_again(self, monkeypatch):
        # every chord reports one ulp above its start, the best point so far:
        # a gain of ~1e-16 relative, which used to restart the round of
        # directions until the chord budget (16) ran out
        zoom, chords = measure._zoom_max, []

        def nudged(f, lo, hi, points):
            x, val, *rest = zoom(f, lo, hi, points)
            start = f(np.zeros(1))[0]
            chords.append(val)
            return (x, max(val, np.nextafter(start, np.inf)), *rest)

        monkeypatch.setattr(measure, "_zoom_max", nudged)
        res = maximize_measure("squeezed", damping_channel(0.1), phi=0.1,
                               times=np.linspace(0.0, 25.0, 1001))
        # (1, 1) gains on the grid's best; (1, -1) from the diagonal cannot
        assert len(chords) == 2
        assert res.value == chords[0]

    @pytest.mark.parametrize("make, t_end, points", [
        (lambda tabs: damping_channel(0.05), 25.0, 1001),
        (lambda tabs: damping_channel(0.15), 25.0, 1001),
        (lambda tabs: QbmChannel(tabs[0.2].rescaled(0.1)), 40.0, 401),
        (lambda tabs: QbmChannel(tabs[0.5].rescaled(0.05)), 40.0, 401),
    ], ids=["damping-a0.05", "damping-a0.15", "qbm-T0.2-a0.1", "qbm-T0.5-a0.05"])
    def test_coherent_thermal_no_worse_than_nelder_mead(self, make, t_end, points,
                                                        fig3_tables):
        channel = make(fig3_tables)
        times = np.linspace(0.0, t_end, points)
        res = maximize_measure("coherent_thermal", channel, times=times)
        oracle = oracle_coherent_thermal(channel, times, ParamBounds())
        assert res.value > 0.0
        assert res.value >= oracle - 1e-12 * res.value

    def test_general_pure_finds_displaced_squeezed_optimum(self):
        # the best pair is displaced and squeezed; a grid plus Nelder-Mead
        # stopped at the undisplaced corner, the squeezed-family value 0.158406
        channel = DampingChannel(alpha=0.05, t_max=8.0 * np.pi)
        times = np.linspace(0.0, 8.0 * np.pi, 2001)
        pair = StatePairParams(beta1_mag=0.4266273, theta1=0.025, r1=1.8409096,
                               r2=1.8409096, phi1=0.1)
        n0 = measure_from_trajectory(fidelity_trajectory(pair, channel, times))
        assert n0 == pytest.approx(0.2285526434, abs=1e-10)
        # not an artefact of the grid: ten times finer gives the same N
        fine = np.linspace(0.0, 8.0 * np.pi, 20001)
        assert measure_from_trajectory(
            fidelity_trajectory(pair, channel, fine)) == pytest.approx(n0, rel=1e-9)
        res = maximize_measure("general_pure", channel, phi=0.1, times=times)
        assert res.value >= n0 - 1e-12 * n0


class TestParamBounds:
    @pytest.mark.parametrize("field, value", [
        ("beta_max", -2.0), ("r_max", -1.0), ("n_max", math.nan),
        ("r_max", math.inf)])
    def test_bad_search_box_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and >= 0"):
            ParamBounds(**{field: value})

    @pytest.mark.parametrize("family", ["coherent", "coherent_thermal",
                                        "general_pure"])
    def test_empty_displacement_box_rejected(self, family):
        # beta_max = 0 gave a 0/0 K ratio (coherent families) or searched
        # |beta1| = 1e-9, outside the box (general_pure)
        with pytest.raises(ValueError, match="beta_max must be > 0"):
            maximize_measure(family, damping_channel(0.1),
                             bounds=ParamBounds(beta_max=0.0), phi=0.1,
                             times=np.linspace(0.0, 8.0 * np.pi, 401))


@pytest.fixture(scope="module")
def swap_channels(fig3_tables):
    return {"damping": damping_channel(0.1),
            "qbm": QbmChannel(fig3_tables[0.2].rescaled(0.1))}


class TestSwapSymmetry:
    # a joint rotation by -phi, a reflection and an exchange of the states
    # map squeezed_pair(r1, r2, phi) onto squeezed_pair(r2, r1, phi); all
    # commute with the channels, so N is symmetric, which the (1, 1) and
    # (1, -1) chord directions rely on.  states.pair_invariants gives both
    # pairs the same floats (det Vi = nu_i^2 exactly, and the phases enter
    # det S0 only through |phi1 - phi2|), so N agrees to the bit.  From the
    # matrices it did not: a pure state's det - 1/4 is rounding, different
    # in a rotated covariance, and where an evolved det - 1/4 nears 0 the
    # kernel's root of 16 (det1 - 1/4)(det2 - 1/4) amplifies it: ~1e-9 in N
    # under damping (r1 = 1e-8, r2 = 2), 2.3e-15 under QBM (r1 = 0,
    # r2 = 0.16, phi = 0.375, at a kink of F)
    @staticmethod
    def swapped(channel, t_end, r1, r2, phi):
        times = np.linspace(0.0, t_end, 801)
        return [measure_from_trajectory(fidelity_trajectory(
            squeezed_pair(a, b, phi), channel, times)) for a, b in ((r1, r2), (r2, r1))]

    @settings(max_examples=10, deadline=None)
    @given(r1=st.floats(0.0, 2.0), r2=st.floats(0.0, 2.0),
           phi=st.floats(0.0, 2.0 * math.pi))
    def test_measure_is_symmetric(self, swap_channels, r1, r2, phi):
        for tag, t_end in (("damping", 25.0), ("qbm", 40.0)):
            n12, n21 = self.swapped(swap_channels[tag], t_end, r1, r2, phi)
            assert n21 == n12

    @settings(max_examples=10, deadline=None)
    @given(n=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           r=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
           phi=st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 2.0 * math.pi)),
           beta=st.tuples(st.floats(0.0, 1.5), st.floats(0.0, 1.5)),
           theta=st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 2.0 * math.pi)),
           rot=st.floats(0.0, 2.0 * math.pi))
    def test_measure_is_joint_rotation_invariant(self, swap_channels, n, r, phi,
                                                 beta, theta, rot):
        # R(rot) on both states turns phi_i into phi_i + 2 rot and theta_i
        # into theta_i + rot, and commutes with both channels.  The pair
        # invariants see the rotation only through angle differences: on
        # 1500 random pairs (half of their states pure) no damping N moved
        # beyond 1e-12 relative, and no QBM N beyond that by more than 1.4e-16
        # (the matrix route needed 1e-8 under damping near the vacuum)
        def pair(turn):
            return StatePairParams(n1=n[0], n2=n[1], r1=r[0], r2=r[1],
                                   phi1=phi[0] + 2.0 * turn, phi2=phi[1] + 2.0 * turn,
                                   beta1_mag=beta[0], beta2_mag=beta[1],
                                   theta1=theta[0] + turn, theta2=theta[1] + turn)

        for tag, t_end in (("damping", 25.0), ("qbm", 40.0)):
            times = np.linspace(0.0, t_end, 801)
            n0, n_rot = (measure_from_trajectory(fidelity_trajectory(
                pair(turn), swap_channels[tag], times)) for turn in (0.0, rot))
            assert 0.0 <= n0 <= 1.0
            assert n_rot == pytest.approx(n0, rel=1e-12, abs=1e-15)

    @settings(max_examples=10, deadline=None)
    @given(n=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           r=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
           phi=st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 2.0 * math.pi)),
           beta=st.tuples(st.floats(0.0, 1.5), st.floats(0.0, 1.5)),
           theta=st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 2.0 * math.pi)),
           delta=st.floats(0.0, 1.5), arg=st.floats(0.0, 2.0 * math.pi))
    def test_measure_is_joint_displacement_invariant(self, swap_channels, n, r, phi,
                                                     beta, theta, delta, arg):
        # D(delta) on both states shifts both means by one vector; the channels
        # only scale means, so the evolved mean difference and F(t) are unchanged
        def pair(shift):
            b1, b2 = (mag * cmath.exp(1j * ang) + shift
                      for mag, ang in zip(beta, theta))
            return StatePairParams(n1=n[0], n2=n[1], r1=r[0], r2=r[1],
                                   phi1=phi[0], phi2=phi[1],
                                   beta1_mag=abs(b1), beta2_mag=abs(b2),
                                   theta1=cmath.phase(b1), theta2=cmath.phase(b2))

        for tag, t_end, slack in (("damping", 25.0, 1e-8), ("qbm", 40.0, 1e-15)):
            times = np.linspace(0.0, t_end, 801)
            n0, n_shift = (measure_from_trajectory(fidelity_trajectory(
                pair(shift), swap_channels[tag], times))
                for shift in (0.0, cmath.rect(delta, arg)))
            assert n_shift == pytest.approx(n0, rel=1e-12, abs=slack)

    @pytest.mark.parametrize("r1, r2, phi1, phi2", [
        (0.0, 0.16, 0.375, 0.0), (1e-8, 2.0, 0.3, 0.0), (1e-6, 1.0, 0.5, 0.0),
        (2.0, 2.0, 0.1, 0.0), (3.0, 0.5, 2.0, 0.0), (4.0, 4.0, 1e-6, 0.0),
        (1.0, 2.5, 0.7, 4.1), (3.0, 3.0, 5.9, 0.4)])
    def test_pure_pair_starts_at_the_mpmath_value(self, swap_channels, r1, r2,
                                                  phi1, phi2):
        # det Vi = 1/4 exactly, so F(0) of an undisplaced pure pair is
        # det(S0)^(-1/4) to rounding, whatever the phases
        with mpmath.workdps(50):
            ref = float(mp_branch_fidelity(*(
                mp_squeezed_cov(mpmath.mpf(r), mpmath.mpf(phi))
                for r, phi in ((r1, phi1), (r2, phi2)))))
        pair = StatePairParams(r1=r1, r2=r2, phi1=phi1, phi2=phi2)
        for tag, t_end in (("damping", 25.0), ("qbm", 40.0)):
            traj = fidelity_trajectory(pair, swap_channels[tag],
                                       np.linspace(0.0, t_end, 801))
            assert abs(traj.fidelities[0] - ref) <= 1e-14 * ref

    def test_near_vacuum_damping_to_rounding(self, swap_channels):
        # scored as given the two differed by 3e-9 relative
        n12, n21 = self.swapped(swap_channels["damping"], 25.0, 1e-6, 1.0, 0.5)
        assert n21 == n12 > 0.0

    def test_parameter_route_keeps_the_measure(self, swap_channels):
        # undisplaced squeezed thermal pairs (n >= 0.05, away from the
        # pure-state boundary), and a displaced one, scored from their
        # parameters and from their covariance matrices
        rng = np.random.default_rng(22)
        rows = rng.uniform([0.05, 0.05, 0.0, 0.0, 0.0, 0.0],
                           [1.0, 1.0, 2.0, 2.0, 2.0 * math.pi, 2.0 * math.pi], size=(12, 6))
        pairs = [StatePairParams(n1=a, n2=b, r1=c, r2=d, phi1=e, phi2=f)
                 for a, b, c, d, e, f in rows.tolist()]
        pairs.append(StatePairParams(n1=0.3, n2=0.2, r1=1.0, phi1=0.5, beta2_mag=0.3))
        for tag, t_end in (("damping", 25.0), ("qbm", 40.0)):
            channel, times = swap_channels[tag], np.linspace(0.0, t_end, 801)
            framed = [measure_from_trajectory(fidelity_trajectory(p, channel, times))
                      for p in pairs]
            as_given = pair_measures(moment_invariants(pairs), channel, times)
            assert min(framed) > 1e-4 and (as_given != framed).any()
            np.testing.assert_allclose(as_given, framed, rtol=1e-11, atol=0.0)


class TestExactCoherent:
    @pytest.mark.parametrize("make, t_end, points, n_intervals", [
        (lambda tabs: QbmChannel(tabs[0.2].rescaled(0.02)), 40.0, 401, 2),
        (lambda tabs: QbmChannel(tabs[0.2].rescaled(0.15)), 40.0, 401, 2),
        (lambda tabs: QbmChannel(tabs[0.5].rescaled(0.02)), 40.0, 401, 3),
        (lambda tabs: QbmChannel(tabs[0.5].rescaled(0.15)), 40.0, 401, 3),
        (lambda tabs: FirstOrderMaps(QbmChannel(tabs[0.5].rescaled(0.1))),
         40.0, 401, 3),
        (lambda tabs: two_interval_damping(), 12.0, 601, 2),
        (lambda tabs: FirstOrderMaps(two_interval_damping()), 12.0, 601, 2),
        (lambda tabs: damping_channel(0.1), 25.0, 801, 1),
    ], ids=["qbm-T0.2-a0.02", "qbm-T0.2-a0.15", "qbm-T0.5-a0.02",
            "qbm-T0.5-a0.15", "qbm-first-order", "damping-two-intervals",
            "damping-first-order", "damping-one-interval"])
    def test_matches_oracle(self, make, t_end, points, n_intervals,
                            fig3_tables):
        channel = make(fig3_tables)
        times = np.linspace(0.0, t_end, points)
        exact = maximize_measure("coherent", channel, times=times)
        n_ref, _ = oracle_coherent(channel, times, ParamBounds().k_max)
        assert exact.method == "exact"
        assert len(exact.intervals) == n_intervals
        assert exact.value >= n_ref - (1e-12 * n_ref + 1e-15)
        assert exact.value <= n_ref + 1e-9 * n_ref

    @pytest.mark.parametrize("channel, times", [
        (DampingChannel(alpha=0.05), np.linspace(0.0, 8.0 * np.pi, 2001)),
        (DampingChannel(alpha=0.3, rate=SINE_TABLE, t_max=20.0), SINE_TIMES),
        (DampingChannel(alpha=0.3, rate=SINE_TABLE, t_max=20.0),
         np.linspace(4.0, 17.0, 1301)),
    ], ids=["decaying_sine", "three_intervals", "window"])
    def test_exact_damping_reads_the_edges(self, monkeypatch, channel, times):
        # a_n = 1 / (2n + e^x) rises exactly on the gamma < 0 intervals: the
        # edges give the grid route's optima with no grid pass
        grid_maps, k_max = channel.maps(times), ParamBounds().k_max
        edges = measure._edge_maps(channel, times)
        ns = [0.0, 0.3, 2.0]
        sub = measure._SubGrid(times, channel.maps)
        want, _ = measure._coherent_optimum(sub, grid_maps, None, k_max, ns)
        monkeypatch.setattr(measure, "_grid_extrema", None)
        got, _ = measure._coherent_optimum(sub, grid_maps, edges, k_max, ns)
        assert (want[:, 0] > 1e-3).all()
        np.testing.assert_allclose(got[:, 0], want[:, 0], rtol=1e-12, atol=0.0)
        # N is flat at its optimum: an ulp in a moves the zoomed K a little
        np.testing.assert_allclose(got[:, 1], want[:, 1], rtol=1e-6, atol=0.0)
        if channel.rate is RATE:  # one interval: the same floats
            assert got[0].tolist() == want[0].tolist()

    def test_several_optima_in_k(self):
        # rises 0.9 -> 1.4, 0.19 -> 0.25 and 0.07 -> 0.11 peak at K_I = 0.88,
        # 4.6 and 11.3; their sum has two local maxima, and a plain bounded
        # search of [0.88, 11.3] stops at the lower one (0.242 < 0.254)
        channel = KnotChannel([1.0, 0.9, 1.4, 0.19, 0.25, 0.07, 0.11, 0.05])
        times = np.linspace(0.0, 7.0, 701)
        exact = maximize_measure("coherent", channel, times=times)
        n_ref, _ = oracle_coherent(channel, times, ParamBounds().k_max)
        assert len(exact.intervals) == 3
        assert exact.value == pytest.approx(0.254, abs=1e-3)
        assert exact.value >= n_ref - (1e-12 * n_ref + 1e-15)
        assert exact.value <= n_ref + 1e-9 * n_ref

    @pytest.mark.parametrize("temperature", [0.2, 0.5])
    def test_qbm_coherent_thermal_is_coherent(self, fig3_tables, temperature):
        # 1/a_n = 1/a_0 + 2n on both channels, so n = 0 is optimal wherever
        # the K cap does not bind (test_drop_obeys_the_heat_equation_in_n);
        # here, with two and three rises sharing one K, the search finds it
        times = np.linspace(0.0, 40.0, 401)
        for alpha in (0.02, 0.1, 0.15):
            channel = QbmChannel(fig3_tables[temperature].rescaled(alpha))
            m, c, n = channel.maps(times)
            inv_a0 = (c + 2.0 * n) / (m * m)
            for occ in (0.3, 2.0):
                inv_a = ((2.0 * occ + 1.0) * c + 2.0 * n) / (m * m)
                np.testing.assert_allclose(inv_a - inv_a0, 2.0 * occ, rtol=1e-12)
            coh = maximize_measure("coherent", channel, times=times)
            res = maximize_measure("coherent_thermal", channel, times=times)
            assert len(coh.intervals) == {0.2: 2, 0.5: 3}[temperature]
            assert res.diagnostics["argmax_vector"] == [*coh.diagnostics["argmax_vector"], 0.0]
            assert res.value == coh.value and res.intervals == coh.intervals

    def test_drop_obeys_the_heat_equation_in_n(self):
        # a_n = a_0 / (1 + 2n a_0), so the total drop D(K, n) of any rises has
        # dD/dn = 2K d2D/dK2: at D's interior maximum over K, d2D/dK2 <= 0, so
        # that maximum never rises with n and n = 0 is optimal (Danskin)
        rng = np.random.default_rng(11)
        a0 = [[mpmath.mpf(a) for a in row] for row in rng.uniform(0.05, 1.0, (4, 2))]

        def total(k, n):
            return sum(mpmath.exp(-k * lo / (1 + 2 * n * lo))
                       - mpmath.exp(-k * hi / (1 + 2 * n * hi)) for lo, hi in a0)

        with mpmath.workdps(40):
            for k, n in ((0.5, 0.0), (3.0, 0.4), (20.0, 2.5)):
                d_n = mpmath.diff(lambda v: total(k, v), n)
                d_kk = mpmath.diff(lambda v: total(v, n), k, 2)
                assert abs(d_n - 2 * k * d_kk) < mpmath.mpf(10) ** -30 * (1 + abs(d_n))

    # B(t) through these knots on [0, 6]: three rises of a_0 = 1 / B, whose
    # best common K lies beyond the default cap k_max = 72
    CAPPED_KNOTS = [1.0, 22.77810133, 12.81847615, 30.43010643, 26.347187,
                    373.22125737, 100.61739692]

    def test_capped_k_lets_an_occupation_win(self):
        # D's best K at n = 0 (~174) is outside the box, whose best at n = 0 is
        # a lower local maximum (K = 33.67); an occupation with K at the cap
        # beats it
        channel, times = NoiseKnotChannel(self.CAPPED_KNOTS), np.linspace(0.0, 6.0, 601)
        coh = maximize_measure("coherent", channel, times=times)
        res = maximize_measure("coherent_thermal", channel, times=times)
        k, n = res.diagnostics["argmax_vector"]
        assert coh.value == pytest.approx(0.40598287670768024, rel=1e-12)
        assert coh.diagnostics["argmax_vector"][0] == pytest.approx(33.67, abs=5e-3)
        assert res.value == pytest.approx(0.40880281112884076, rel=1e-12)
        assert k == ParamBounds().k_max and n == pytest.approx(2.952, abs=1e-3)
        assert res.argmax.n1 == res.argmax.n2 == n

    def test_uncapped_k_keeps_the_pure_optimum(self):
        # the same channel with beta_max = 30 (k_max = 1800): the optimum over
        # K is interior, and the search over n returns n = 0 and the coherent value
        channel, times = NoiseKnotChannel(self.CAPPED_KNOTS), np.linspace(0.0, 6.0, 601)
        bounds = ParamBounds(beta_max=30.0)
        coh = maximize_measure("coherent", channel, bounds=bounds, times=times)
        res = maximize_measure("coherent_thermal", channel, bounds=bounds, times=times)
        assert coh.value == pytest.approx(0.4523827266265933, rel=1e-12)
        assert coh.diagnostics["argmax_vector"][0] < bounds.k_max
        assert res.diagnostics["argmax_vector"] == [*coh.diagnostics["argmax_vector"], 0.0]
        assert res.value == coh.value and res.intervals == coh.intervals

    def test_rise_from_zero_has_no_finite_optimum(self):
        # 1 - e^{-K a_hi} grows towards 1 with K
        assert measure._k_optimum(0.0, 0.5) == (math.inf, 1.0)
        # a(t) falls to exactly 0 at the grid point t = 1, then rises: the
        # optimum sits on the box edge
        res = maximize_measure("coherent", KnotChannel([1.0, 0.0, 0.5]),
                               times=np.linspace(0.0, 2.0, 201))
        k_max = ParamBounds().k_max
        assert res.diagnostics["argmax_vector"] == [k_max]
        assert res.value == pytest.approx(1.0 - math.exp(-0.5 * k_max), abs=1e-12)

    def test_one_interval_is_the_closed_form(self):
        exact = maximize_measure("coherent", damping_channel(0.1),
                                 times=np.linspace(0.0, 25.0, 2001))
        closed = closed_form_coherent_damping(0.1, RATE)
        assert exact.value == pytest.approx(closed.value, rel=1e-12)
        assert exact.diagnostics["argmax_vector"][0] == pytest.approx(
            closed.diagnostics["K"], rel=1e-12)

    def test_divisible_rate_has_no_backflow(self):
        channel = DampingChannel(alpha=0.1, rate=DampingRateSpec.constant(0.5))
        res = maximize_measure("coherent", channel,
                               times=np.linspace(0.0, 10.0, 401))
        assert res.value == 0.0 and res.intervals == ()
        assert res.diagnostics["argmax_vector"] == [1.0]

    def test_optimum_beyond_the_box_sits_on_its_edge(self):
        # K* = 1.114 lies above k_max = 2 * 0.5^2 = 0.5
        bounds = ParamBounds(beta_max=0.5)
        times = np.linspace(0.0, 25.0, 801)
        exact = maximize_measure("coherent", damping_channel(0.1),
                                 bounds=bounds, times=times)
        n_ref, k_ref = oracle_coherent(damping_channel(0.1), times, bounds.k_max)
        assert exact.diagnostics["argmax_vector"] == [bounds.k_max]
        assert k_ref == bounds.k_max
        assert exact.value >= n_ref - (1e-12 * n_ref + 1e-15)
        assert exact.value <= n_ref + 1e-9 * n_ref

    def test_runs_no_optimizer(self, monkeypatch, fig3_tables):
        def forbidden(*args, **kwargs):
            raise AssertionError("the coherent family needs no search over pairs")

        monkeypatch.setattr(measure, "_numeric_optimum", forbidden)
        res = maximize_measure("coherent",
                               QbmChannel(fig3_tables[0.5].rescaled(0.1)),
                               times=np.linspace(0.0, 40.0, 401))
        assert res.value > 0.0
        assert {k: res.diagnostics[k] for k in (
            "grid_evaluations", "iterations",
            "function_evaluations", "stagnation")} == {
            "grid_evaluations": 0, "iterations": 0,
            "function_evaluations": 0, "stagnation": False}


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
        intervals = channel.coeffs.delta_negativity_intervals()
        closed = closed_form_coherent_qbm(channel, intervals[0])
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
            qbm = closed_form_coherent_qbm(QbmChannel(table), (math.pi, 2.0 * math.pi))
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
        (iv,) = channel.coeffs.delta_negativity_intervals()
        closed = closed_form_coherent_qbm(channel, iv)
        assert closed.value > 0.0
        numeric = maximize_measure("coherent", channel,
                                   times=np.linspace(0.0, 1.5 * math.pi, 1001))
        assert closed.value == pytest.approx(numeric.value, rel=5e-3)

    def test_falling_exponent_gives_zero(self):
        # strong damping outweighs a shallow Delta dip: the weak-coupling
        # exponent e^{-x} / (e^{-x} + y) falls over the interval, so there
        # is no backflow to report, and no error either
        table = coefficients_from_functions(
            lambda t: 1.0, lambda t: 2.0 - 2.2 * math.exp(-(t - 5.0) ** 2),
            alpha=0.5, t_end=10.0, n_steps=1000)
        channel = QbmChannel(table)
        (iv,) = channel.coeffs.delta_negativity_intervals()
        res = closed_form_coherent_qbm(channel, iv)
        assert res.value == 0.0
        assert res.diagnostics["P"] > 0.0

    def test_positive_interval_rejected(self, qbm_base):
        with pytest.raises(UnsupportedShapeError):
            closed_form_coherent_qbm(QbmChannel(qbm_base), (0.5, 1.5))

    def test_unphysical_table_rejected(self):
        table = coefficients_from_functions(lambda t: 0.0, lambda t: -1.0,
                                            alpha=0.6, t_end=2.0, n_steps=200)
        with pytest.raises(ValueError, match="unphysical"):
            closed_form_coherent_qbm(QbmChannel(table), (0.5, 1.9))


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
            assert s_gamma == pytest.approx(s_gamma_ref, rel=1e-12)
            assert s_delta == pytest.approx(s_delta_ref, rel=1e-12)
            assert damping_response(r, r, phi) == pytest.approx(
                s_gamma_ref + s_delta_ref, rel=1e-12)

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


# Response oracles.  Each response is dF/dh at h = 0 along the path
# sigma_i(h) = c(h) sigma_i + n(h) I of a squeezed-vacuum pair; the paths
# give (c, n) at step h, in float (math.exp) and in mpmath arithmetic.
PATHS = {
    "gamma": (lambda h: (1.0 - h, 0.0), lambda h: (1 - h, 0)),
    "delta": (lambda h: (1.0, 0.5 * h), lambda h: (1, h / 2)),
    "damping": (lambda h: (math.exp(-h), 0.5 * (1.0 - math.exp(-h))),
                lambda h: (mpmath.exp(-h), (1 - mpmath.exp(-h)) / 2)),
}


def closed_response(r1, r2, phi, path):
    if path == "damping":
        return damping_response(r1, r2, phi)
    s_gamma, s_delta = squeezed_response(r1, r2, phi)
    return s_gamma if path == "gamma" else s_delta


def pair_covs(r1, r2, phi):
    return make_gaussian(0.0, r1, 0.0).cov, make_gaussian(0.0, r2, phi).cov


def richardson_response(r1, r2, phi, path, step=1e-5):
    """Richardson-extrapolated central difference of the float kernel."""
    c1, c2 = pair_covs(r1, r2, phi)
    f = []
    for h in (step, -step, 0.5 * step, -0.5 * step):
        c, n = PATHS[path][0](h)
        f.append(float(fidelity_arrays(matrix_invariants(
            np.zeros(2), c * c1 + n * np.eye(2), np.zeros(2), c * c2 + n * np.eye(2)),
            branch=True)))
    d1 = (f[0] - f[1]) / (2.0 * step)
    d2 = (f[2] - f[3]) / step
    return (4.0 * d2 - d1) / 3.0


def mp_branch_fidelity(a, b):
    """Physical-branch fidelity of two zero-mean states, in mpmath."""
    def det(m):
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]

    s = [[a[i][j] + b[i][j] for j in range(2)] for i in range(2)]
    g1, g2 = det(a) - mpmath.mpf(1) / 4, det(b) - mpmath.mpf(1) / 4
    small = max(16 * g1 * g2, 0)
    root = mpmath.sqrt(small) * mpmath.sign(g1 + g2)
    return mpmath.sqrt(2 / (mpmath.sqrt(4 * det(s) + small) - root))


def mp_squeezed_cov(r, phi):
    ch, sh = mpmath.cosh(2 * r), mpmath.sinh(2 * r)
    c, s = mpmath.cos(phi), mpmath.sin(phi)
    return [[(ch - sh * c) / 2, -sh * s / 2], [-sh * s / 2, (ch + sh * c) / 2]]


def mp_response(r1, r2, phi, path):
    """50-digit central difference on 50-digit pure covariances.

    The float covariances are pure only to rounding (det - 1/4 ~ 1e-16
    tr^2), which moves the derivative by up to ~5e-10 relative at r = 3;
    built at 50 digits, det = 1/4 holds far below the step, and a step of
    1e-20 leaves truncation and rounding below 1e-25.
    """
    with mpmath.workdps(50):
        covs = [mp_squeezed_cov(mpmath.mpf(r1), 0),
                mp_squeezed_cov(mpmath.mpf(r2), mpmath.mpf(phi))]
        h = mpmath.mpf("1e-20")

        def f(x):
            c, n = PATHS[path][1](x)
            a, b = ([[c * m[i][j] + (n if i == j else 0) for j in range(2)]
                     for i in range(2)] for m in covs)
            return mp_branch_fidelity(a, b)

        return float((f(h) - f(-h)) / (2 * h))


# r up to 3 with r1 != r2, the vacuum on one side, and equal squeezing;
# the damping response vanishes at phi = 0 and with a vacuum state
RESPONSE_CASES = [(r1, r2, phi) for r1, r2 in ((0.0, 0.5), (0.05, 1.0),
                                               (0.3, 2.0), (1.0, 3.0),
                                               (2.5, 3.0), (3.0, 2.99),
                                               (3.0, 0.2), (2.0, 2.0),
                                               (3.0, 3.0))
                  for phi in (0.0, 0.001, 0.1, 1.3, math.pi, 4.0)]


class TestResponseOracles:
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_closed_form_against_mpmath(self, path):
        for r1, r2, phi in RESPONSE_CASES:
            ref = mp_response(r1, r2, phi, path)
            got = closed_response(r1, r2, phi, path)
            assert got == pytest.approx(ref, rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_closed_form_against_richardson(self, path):
        # the finite differences the closed form replaced (step 1e-5, float
        # covariances) agree to ~1e-5 relative; the closed form is the
        # more accurate of the two
        for r1, r2, phi in RESPONSE_CASES:
            ref = mp_response(r1, r2, phi, path)
            fd = richardson_response(r1, r2, phi, path)
            got = closed_response(r1, r2, phi, path)
            assert got == pytest.approx(fd, rel=1e-4, abs=1e-9)
            assert abs(got - ref) <= abs(fd - ref) + 1e-12 * abs(ref) + 1e-15

    @settings(max_examples=200, deadline=None)
    @given(r1=st.floats(0.0, 3.0), r2=st.floats(0.0, 3.0),
           phi=st.floats(0.0, 2.0 * math.pi))
    def test_swap_and_reflection_symmetry(self, r1, r2, phi):
        # swapping the states equals a joint rotation by -phi, and
        # phi -> 2 pi - phi a joint reflection p -> -p; neither changes F
        # or its derivatives
        for path in PATHS:
            ref = closed_response(r1, r2, phi, path)
            swapped = closed_response(r2, r1, phi, path)
            reflected = closed_response(r1, r2, 2.0 * math.pi - phi, path)
            assert swapped == pytest.approx(ref, rel=1e-9, abs=1e-14)
            assert reflected == pytest.approx(ref, rel=1e-9, abs=1e-14)


class TestFirstOrderSqueezed:
    def test_identical_pair_zero(self, qbm_base):
        table = qbm_base.rescaled(0.01)
        assert abs(first_order_squeezed(QbmChannel(table), 1.0, 1.0, 0.0)) <= 1e-9

    def test_slope_matches_numeric_measure(self, qbm_base):
        channel = qbm_channel(qbm_base, 0.005)
        numeric = maximize_measure("squeezed", channel, phi=0.05,
                                   equal_squeezing=True,
                                   times=np.linspace(0.0, 40.0, 2001))
        first, _ = first_order_squeezed_max(channel, 0.05)
        assert numeric.value == pytest.approx(first, rel=0.10)

    def test_damping_slope_matches_numeric_measure(self):
        channel = damping_channel(0.002)
        numeric = maximize_measure("squeezed", channel, phi=0.1,
                                   equal_squeezing=True,
                                   times=np.linspace(0.0, 25.0, 2001))
        first, _ = first_order_squeezed_max(channel, 0.1)
        assert numeric.value == pytest.approx(first, rel=0.10)


class TestRecords:
    def test_measure_record_layout(self):
        res = closed_form_coherent_damping(0.1, RATE)
        header, row = cli._record("coherent", DampingChannel(0.1, RATE), res)
        assert header.startswith("family,channel,alpha,T,omega0,omega_c,value")
        cells = row.split(",")
        assert cells[0] == "coherent" and cells[1] == "damping"
        assert cells[3] == "" and cells[4] == ""  # no environment for damping
        assert float(cells[6]) == pytest.approx(res.value, rel=1e-12)

    def test_qbm_record_carries_environment(self, qbm_base):
        channel = qbm_channel(qbm_base, 0.01)
        res = maximize_measure("coherent", channel,
                               times=np.linspace(0.0, 40.0, 801))
        header, row = cli._record("coherent", channel, res)
        cells = row.split(",")
        assert float(cells[3]) == 0.2 and float(cells[4]) == 1.0
        assert float(cells[5]) == pytest.approx(0.2)
