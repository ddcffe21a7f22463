"""Gaussian dynamical maps: the damping channel and the QBM channel.

Both maps act on a Gaussian state through two scalars: a decay exponent and
an isotropic noise weight,

    mean(t) = m(t) * mean(0),   cov(t) = c(t) * cov(0) + n(t) * I.

Damping (rate gamma(t), exponent x(t) = 2 alpha int gamma):
    exact        m = e^{-x/2},  c = e^{-x},  n = (1 - e^{-x})/2
    first order  m = 1 - x/2,   c = 1 - x,   n = x/2

Quantum Brownian motion (damping gamma, diffusion Delta; x as above and
y(t) = 2 alpha int Delta):
    exact        m = e^{-x/2},  c = e^{-x},  n = e^{-x} alpha int_0^t e^{x} Delta ds
    first order  m = 1 - x/2,   c = 1 - x,   n = y/2

Each channel's ``maps(ts)`` returns (m, c, n) on a grid and is the only
place these formulas live; ``evolve_arrays`` is the only place they are
applied to a state.

``_trajectories`` evolves and checks the states of ``trajectory``,
``channel.evolve`` and ``gaussnm evolve``, with one policy (warnings point
at the caller's line):
  - the time grid must be finite, >= 0 and strictly increasing (``_grid``,
    the measure's rule too);
  - exact damping preserves det(cov) >= 1/4, so a state below it (beyond
    ``GaussianState``'s slack) raises ValueError;
  - exact QBM, which keeps no vacuum floor beyond the diffusion integral,
    and first order may dip below it: one PhysicalityWarning;
  - first-order maps with |x| = |1 - c| > FIRST_ORDER_X_LIMIT give one
    ApproximationWarning, as in ``maximize_measure``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline

from .spectral import ChannelCoefficients, _write_csv
from .states import GaussianState, StatePairParams, _below_heisenberg, _det2

__all__ = [
    "ApproximationWarning",
    "PhysicalityWarning",
    "DampingRateSpec",
    "DampingChannel",
    "QbmChannel",
    "Trajectory",
    "damping_x",
    "trajectory",
    "write_trajectory_csv",
]

_SWITCH = 2.5 * math.pi  # switch time of the built-in decaying-sine rate
_RATE_A = 0.1  # its envelope decay constant
FIRST_ORDER_X_LIMIT = 0.3


class ApproximationWarning(UserWarning):
    """First-order evolution used outside its validity domain."""


class PhysicalityWarning(UserWarning):
    """An evolved covariance dipped below the Heisenberg bound."""


@dataclass(frozen=True, eq=False)
class DampingRateSpec:
    """Time-dependent rate gamma(t) for the damping channel.

    Kinds:
      - ``decaying_sine``: (1/2) e^{-t/10} sin t for t < 5 pi / 2, then the
        constant (1/2) e^{-pi/4}; a rate with exactly one negativity
        interval, [pi, 2 pi].
      - ``constant``: gamma(t) = gamma0.
      - ``table``: the cubic spline of user samples; ``rate`` and
        ``x_per_alpha`` raise beyond the table.
    """

    kind: str = "decaying_sine"
    gamma0: float = 0.5
    table_times: np.ndarray | None = None
    table_values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("decaying_sine", "constant", "table"):
            raise ValueError(f"unknown rate kind {self.kind!r}")
        if self.kind == "table":
            ts = np.asarray(self.table_times, float)
            vs = np.asarray(self.table_values, float)
            if ts.ndim != 1 or ts.shape != vs.shape or ts.size < 2:
                raise ValueError("rate table needs matching 1-d times/values")
            if ts[0] != 0.0 or np.any(np.diff(ts) <= 0.0):
                raise ValueError("rate table times must increase from 0")
            object.__setattr__(self, "table_times", ts)
            object.__setattr__(self, "table_values", vs)
            spline = CubicSpline(ts, vs)
            object.__setattr__(self, "_spline", spline)
            object.__setattr__(self, "_integral", spline.antiderivative())

    @classmethod
    def decaying_sine(cls) -> "DampingRateSpec":
        return cls(kind="decaying_sine")

    @classmethod
    def constant(cls, gamma0: float) -> "DampingRateSpec":
        return cls(kind="constant", gamma0=float(gamma0))

    @classmethod
    def from_table(cls, times, values) -> "DampingRateSpec":
        return cls(kind="table", table_times=times, table_values=values)

    def _times(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        end = self.table_times[-1] if self.kind == "table" else math.inf
        if np.any((t < 0.0) | (t > end)):
            raise ValueError(f"t outside the rate's range [0, {end:g}]")
        return t

    def rate(self, t):
        t = self._times(t)
        if self.kind == "constant":
            out = np.full_like(t, self.gamma0)
        elif self.kind == "decaying_sine":
            out = np.where(
                t < _SWITCH,
                0.5 * np.exp(-_RATE_A * t) * np.sin(t),
                0.5 * math.exp(-math.pi / 4.0),
            )
        else:
            out = self._spline(t)
        return float(out) if out.ndim == 0 else out

    def x_per_alpha(self, t):
        """int_0^t 2 gamma(s) ds, exact for every kind."""
        t = self._times(t)
        if self.kind == "constant":
            out = 2.0 * self.gamma0 * t
        elif self.kind == "decaying_sine":
            a = _RATE_A
            tb = np.minimum(t, _SWITCH)
            ramp = (1.0 - np.exp(-a * tb) * (a * np.sin(tb) + np.cos(tb))) / (1.0 + a * a)
            x_switch = (1.0 - math.exp(-a * _SWITCH) * a) / (1.0 + a * a)
            out = np.where(
                t <= _SWITCH,
                ramp,
                x_switch + math.exp(-math.pi / 4.0) * (t - _SWITCH),
            )
        else:
            out = 2.0 * self._integral(t)
        return float(out) if out.ndim == 0 else out

    def negativity_intervals(self, t_max: float) -> list[tuple[float, float]]:
        """Maximal intervals in [0, t_max] where gamma(t) < 0."""
        t_max = float(t_max)
        if self.kind == "constant":
            return [(0.0, t_max)] if self.gamma0 < 0.0 else []
        if self.kind == "decaying_sine":
            if t_max <= math.pi:
                return []
            return [(math.pi, min(2.0 * math.pi, t_max))]
        return _negative_intervals(self._spline, min(t_max, self.table_times[-1]))


def _negative_intervals(spline, t_end: float) -> list[tuple[float, float]]:
    """Maximal intervals of [0, t_end] where the spline is negative, cut at
    its exact roots; a root at a knot may come from both pieces, ulps apart."""
    roots = spline.roots(extrapolate=False)  # a zero piece gives (start, NaN)
    inner = roots[(roots > 0.0) & (roots < t_end)]
    edges = np.unique(np.concatenate([[0.0, t_end], inner]))
    return [(float(lo), float(hi)) for lo, hi in zip(edges[:-1], edges[1:])
            if hi - lo > 1e-12 and spline(0.5 * (lo + hi)) < 0.0]


def damping_x(t, alpha: float, spec: DampingRateSpec):
    """Decay exponent x(t) = alpha int_0^t 2 gamma(s) ds."""
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    return alpha * spec.x_per_alpha(t)


def _warn_first_order(channel, maps, stacklevel: int) -> None:
    """ApproximationWarning when a first-order channel's ``maps`` reach
    |x| > FIRST_ORDER_X_LIMIT; ``stacklevel`` counts from the caller."""
    if channel.mode != "first_order":
        return
    # first order has c = 1 - x, so |x| = |1 - c|
    x_abs = float(np.max(np.abs(1.0 - maps[1])))
    if x_abs > FIRST_ORDER_X_LIMIT:
        warnings.warn(
            f"first-order evolution with |x| = {x_abs:.3g} > {FIRST_ORDER_X_LIMIT}",
            ApproximationWarning, stacklevel=stacklevel + 1,
        )


def _check_mode(mode: str):
    if mode not in ("exact", "first_order"):
        raise ValueError(f"mode must be 'exact' or 'first_order', got {mode!r}")


class QbmPropagator:
    """Spline view of a coefficient table, with the exact noise integral.

    Carries x(t), y(t) and z(t) = alpha int_0^t e^{x} Delta ds (Simpson on
    the table grid), so states can be evolved at arbitrary t within the
    table range.
    """

    def __init__(self, coeffs: ChannelCoefficients):
        ts = coeffs.times
        self.t_end = float(ts[-1])
        self.alpha = coeffs.alpha
        self.x = CubicSpline(ts, coeffs.x)
        self.y = CubicSpline(ts, coeffs.y)
        self.delta = CubicSpline(ts, coeffs.delta)
        z = np.concatenate([
            [0.0],
            cumulative_simpson(coeffs.alpha * np.exp(coeffs.x) * coeffs.delta, x=ts),
        ])
        self.z = CubicSpline(ts, z)

    def check_t(self, t):
        t = np.asarray(t, float)
        if np.any(t < 0.0) or np.any(t > self.t_end * (1.0 + 1e-12)):
            raise ValueError(f"t outside the coefficient grid [0, {self.t_end:g}]")

    def delta_negativity_intervals(self) -> list[tuple[float, float]]:
        return _negative_intervals(self.delta, self.t_end)


@lru_cache(maxsize=64)
def _propagator(coeffs: ChannelCoefficients) -> QbmPropagator:
    return QbmPropagator(coeffs)


@dataclass(frozen=True, eq=False)
class DampingChannel:
    """Damping channel with coupling alpha and a rate specification."""

    alpha: float
    rate: DampingRateSpec = field(default_factory=DampingRateSpec.decaying_sine)
    mode: str = "exact"
    t_max: float = 8.0 * math.pi

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")
        _check_mode(self.mode)

    tag = "damping"

    def maps(self, ts):
        """(mean factor, cov factor, noise weight) arrays on the grid ts."""
        x = self.alpha * self.rate.x_per_alpha(ts)
        if self.mode == "exact":
            u = np.exp(-x)
            return np.sqrt(u), u, 0.5 * (1.0 - u)
        return 1.0 - 0.5 * x, 1.0 - x, 0.5 * x

    def evolve(self, state: GaussianState, t: float) -> GaussianState:
        traj, = _trajectories([state], self, [t], None)
        return GaussianState(traj.means[0], traj.covs[0], validate=False)

    response_direction = (-1.0, 0.5)  # (c', n') per unit x, first order

    def exponent_backflows(self) -> list[tuple[float, float, float]]:
        """(t_plus, t_minus, x(t_plus) - x(t_minus)) per negativity interval."""
        out = []
        for lo, hi in self.rate.negativity_intervals(self.t_max):
            xs = damping_x(np.array([lo, hi]), self.alpha, self.rate)
            out.append((lo, hi, float(xs[0] - xs[1])))
        return out


@dataclass(frozen=True, eq=False)
class QbmChannel:
    """QBM channel backed by a tabulated coefficient set."""

    coeffs: ChannelCoefficients
    mode: str = "exact"

    def __post_init__(self):
        _check_mode(self.mode)

    tag = "qbm"

    @property
    def alpha(self) -> float:
        return self.coeffs.alpha

    @property
    def t_max(self) -> float:
        return self.coeffs.t_end

    @property
    def propagator(self) -> QbmPropagator:
        return _propagator(self.coeffs)

    def maps(self, ts):
        prop = self.propagator
        prop.check_t(ts)
        x = prop.x(ts)
        if self.mode == "exact":
            u = np.exp(-x)
            return np.sqrt(u), u, u * prop.z(ts)
        return 1.0 - 0.5 * x, 1.0 - x, 0.5 * prop.y(ts)

    def evolve(self, state: GaussianState, t: float) -> GaussianState:
        traj, = _trajectories([state], self, [t], None)
        return GaussianState(traj.means[0], traj.covs[0], validate=False)

    response_direction = (0.0, 0.5)  # (c', n') per unit y: n = y / 2

    def exponent_backflows(self) -> list[tuple[float, float, float]]:
        """(t_plus, t_minus, y(t_plus) - y(t_minus)) per Delta < 0 interval."""
        prop = self.propagator
        out = []
        for lo, hi in prop.delta_negativity_intervals():
            out.append((lo, hi, float(prop.y(lo) - prop.y(hi))))
        return out


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A state evolved over a time grid under one channel.

    ``means`` (T, 2) and ``covs`` (T, 2, 2) hold the first moments and the
    covariance matrix at each of the T grid ``times``.
    """

    times: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    channel: str
    params: StatePairParams | None = None

    def __post_init__(self):
        for name in ("times", "means", "covs"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), float))
        n = self.times.size
        if self.means.shape != (n, 2) or self.covs.shape != (n, 2, 2):
            raise ValueError("one state per grid time required")


def evolve_arrays(maps, mean0: np.ndarray, cov0: np.ndarray):
    """Apply the ``maps`` factors (m, c, n) on a grid of T times to one state.

    Returns means (T, 2) = m * mean0 and covariances (T, 2, 2) =
    c * cov0 + n * I.  They are computed component-major, so every product
    runs along the contiguous time axis (several times faster than
    time-major on long grids), and returned as transposed views.
    """
    mf, cf, nf = maps
    means = np.multiply.outer(mean0, mf)
    covs = np.multiply.outer(cov0, cf)
    covs += np.multiply.outer(np.eye(2), nf)
    return means.T, covs.transpose(2, 0, 1)


def trajectory(pair: StatePairParams, channel, times) -> tuple[Trajectory, Trajectory]:
    """Evolve both states of a pair over the grid, checked as the module
    docstring states."""
    return tuple(_trajectories(pair.states(), channel, times, pair))


def _grid(times) -> np.ndarray:
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size < 1:
        raise ValueError("times must be a 1-d grid")
    for ok, fault in ((np.isfinite(ts).all(), "finite"), (ts[0] >= 0.0, ">= 0"),
                      ((ts[1:] > ts[:-1]).all(), "strictly increasing")):
        if not ok:
            raise ValueError(f"times must be {fault}")
    return ts


def _trajectories(states, channel, times, params) -> list[Trajectory]:
    """``trajectory`` for any sequence of states: one maps call, one check.
    Warnings point at the line that called this function's caller."""
    ts = _grid(times)
    maps = channel.maps(ts)
    _warn_first_order(channel, maps, stacklevel=3)
    out = []
    for st in states:
        means, covs = evolve_arrays(maps, st.mean, st.cov)
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(covs))):
            raise ValueError("state contains non-finite entries")
        out.append(Trajectory(times=ts, means=means, covs=covs,
                              channel=channel.tag, params=params))
    covs = np.stack([traj.covs for traj in out])
    bad = _below_heisenberg(covs)
    if not np.any(bad):
        return out
    dets = _det2(covs)
    if channel.mode == "exact" and channel.tag == "damping":
        raise ValueError("covariance violates the Heisenberg bound: "
                         f"det = {dets[bad][0]:.12g} < 1/4")
    warnings.warn(
        f"evolved state dips below the Heisenberg bound (min det = {dets.min():.6g})",
        PhysicalityWarning, stacklevel=3,
    )
    return out


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV export: t, mean_q, mean_p, cov_qq, cov_qp, cov_pp."""
    m, c = traj.means, traj.covs
    _write_csv(path, ["t", "mean_q", "mean_p", "cov_qq", "cov_qp", "cov_pp"],
               [traj.times, m[:, 0], m[:, 1], c[:, 0, 0], c[:, 0, 1], c[:, 1, 1]])
