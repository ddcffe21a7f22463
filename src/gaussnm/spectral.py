"""Damping and diffusion coefficients of the weak-coupling Ohmic bath.

The bath has spectral density J(w) = w exp(-w/w_c) (Ohmic, exponential
cutoff).  The time-dependent master-equation coefficients are

    gamma(t) = int_0^t ds int_0^inf dw J(w) sin(w0 s) sin(w s)
    Delta(t) = int_0^t ds int_0^inf dw J(w) (N(w) + 1/2) cos(w0 s) cos(w s)

with N(w) the thermal occupation.  The frequency integrals are closed
forms: rational kernels for the temperature-independent parts and a
trigamma for the thermal part.  Delta splits as Delta_0 + Delta_T
(zero-point plus thermal photons).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._spline import PiecewisePoly, cubic_splines, cumulative_simpson

__all__ = [
    "EnvironmentSpec",
    "ChannelCoefficients",
    "build_coefficients",
    "divisibility_check",
    "write_coefficients_csv",
]
# unexported: delta_zero_temperature serves perfbench's T = 0 check

# Bernoulli numbers B_2 .. B_16 of the trigamma asymptotic series
# (Abramowitz & Stegun 6.4.12), and B_18, the first one left out
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
              -3617 / 510)
_B18 = 43867 / 798
_SHIFT = 12  # recurrence steps before the series, so |w| >= 13
_GAUSS_POINTS = 20  # Gauss-Legendre nodes per panel of delta_zero_temperature


@dataclass(frozen=True)
class EnvironmentSpec:
    """Ohmic environment: system frequency, cutoff and temperature (k_B T)."""

    omega0: float
    omega_c: float
    temperature: float = 0.0

    def __post_init__(self):
        for name in ("omega0", "omega_c", "temperature"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, v)
        if self.omega0 <= 0.0 or self.omega_c <= 0.0:
            raise ValueError("omega0 and omega_c must be strictly positive")
        if self.temperature < 0.0:
            raise ValueError("temperature must be >= 0")


@dataclass(frozen=True, eq=False)
class ChannelCoefficients:
    """Sampled gamma(t), Delta(t) and their cumulative exponents x(t), y(t).

    x(t) = 2 alpha int_0^t gamma, y(t) = 2 alpha int_0^t Delta, both zero at
    t = 0.  ``kernel_abserr`` carries the thermal kernel's series truncation
    bound for run summaries.  Delta's spline and negativity intervals do not
    depend on alpha: each is built at most once, when first asked for, and
    shared by the table and all its ``rescaled`` copies (pickles included).
    The spline view that evolves states is ``QbmChannel.propagator``, kept
    by the channel.
    """

    times: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    x: np.ndarray
    y: np.ndarray
    alpha: float
    kernel_abserr: float = field(default=0.0, compare=False)
    env: "EnvironmentSpec | None" = field(default=None, compare=False)

    def __post_init__(self):
        for name in ("times", "gamma", "delta", "x", "y"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), float))
        n = self.times.size
        if any(getattr(self, name).size != n for name in ("gamma", "delta", "x", "y")):
            raise ValueError("coefficient arrays must share one grid")
        if n < 2 or self.times[0] != 0.0 or np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing from 0")
        if abs(self.x[0]) > 0.0 or abs(self.y[0]) > 0.0:
            raise ValueError("x(0) and y(0) must vanish")
        if not float(self.alpha) > 0.0:
            raise ValueError("alpha must be positive")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "_delta_view", {})  # see delta_spline

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def rescaled(self, alpha: float) -> "ChannelCoefficients":
        """Same table at a different coupling: x and y scale with alpha, and
        Delta's spline and intervals, built or not, are shared unchanged."""
        scale = alpha / self.alpha
        out = ChannelCoefficients(times=self.times, gamma=self.gamma,
                                  delta=self.delta, x=scale * self.x,
                                  y=scale * self.y, alpha=alpha,
                                  kernel_abserr=self.kernel_abserr, env=self.env)
        object.__setattr__(out, "_delta_view", self._delta_view)
        return out

    def delta_spline(self) -> PiecewisePoly:
        """Cubic spline of Delta(t) on the table's times."""
        view = self._delta_view
        if "spline" not in view:
            view["spline"], = cubic_splines(self.times, self.delta)
        return view["spline"]

    def delta_negativity_intervals(self) -> list[tuple[float, float]]:
        """Maximal intervals of [0, t_end] where Delta(t) < 0, cut at the
        spline's exact roots."""
        view = self._delta_view
        if "intervals" not in view:
            view["intervals"] = self.delta_spline().negative_intervals(self.t_end)
        return list(view["intervals"])


def _sin_kernel(s, a):
    """int_0^inf w e^{-a w} sin(w s) dw = 2 a s / (a^2 + s^2)^2."""
    s = np.asarray(s, float)
    return 2.0 * a * s / (a * a + s * s) ** 2


def _cos_kernel(s, a):
    """int_0^inf w e^{-a w} cos(w s) dw = (a^2 - s^2) / (a^2 + s^2)^2."""
    s = np.asarray(s, float)
    return (a * a - s * s) / (a * a + s * s) ** 2


def _thermal_kernel(s, env: EnvironmentSpec) -> tuple[np.ndarray, float]:
    """int_0^inf J(w) N(w) cos(w s) dw on an array of s, and its truncation bound.

    Expanding N(w) = sum_k e^{-k w/T} gives T^2 Re psi_1(z) with
    z = 1 + T/w_c + i T s.  The trigamma takes _SHIFT steps of
    psi_1(z) = psi_1(z + 1) + 1/z^2, then the asymptotic series
    psi_1(w) ~ 1/w + 1/(2 w^2) + sum_k B_2k / w^(2k+1) at w = z + _SHIFT up to
    B_16.  The bound is T^2 |B_18| / |w|^19, the first omitted term, at its
    largest on the grid.
    """
    t = env.temperature
    z = 1.0 + t / env.omega_c + 1j * t * np.asarray(s, float)
    w = z + _SHIFT
    u = 1.0 / (w * w)
    series = 0.0
    for b in reversed(_BERNOULLI):
        series = (series + b) * u
    psi = (1.0 + 0.5 / w + series) / w
    for k in reversed(range(_SHIFT)):
        psi = psi + 1.0 / (z + k) ** 2
    return t * t * psi.real, t * t * _B18 / float(np.min(np.abs(w))) ** 19


def delta_zero_temperature(t: float, env: EnvironmentSpec) -> float:
    """Zero-point diffusion Delta_0(t) (half-weighted cosine transform).

    Composite Gauss-Legendre on panels no wider than min(1/w_c, pi/w0): the
    kernel's poles at s = +-i/w_c and the cosine's half period leave each
    panel far more accurate than double precision.
    """
    t = float(t)
    if t < 0.0:
        raise ValueError("t must be >= 0")
    a = 1.0 / env.omega_c
    edges = np.linspace(0.0, t, math.ceil(t / min(a, math.pi / env.omega0)) + 1)
    half = 0.5 * np.diff(edges)[:, None]
    nodes, weights = np.polynomial.legendre.leggauss(_GAUSS_POINTS)
    s = edges[:-1, None] + half * (1.0 + nodes)
    return float(np.sum(half * weights * 0.5 * _cos_kernel(s, a)
                        * np.cos(env.omega0 * s)))


def build_coefficients(env: EnvironmentSpec, alpha: float, t_end: float,
                       n_steps: int) -> ChannelCoefficients:
    """Tabulate gamma, Delta, x, y on a uniform grid of n_steps intervals.

    The time integrals are composite Simpson over the sampled integrands,
    so the cumulative columns are O(h^4) accurate in the grid spacing.
    """
    if not t_end > 0.0:
        raise ValueError("t_end must be positive")
    if n_steps < 2:
        raise ValueError("n_steps must be >= 2")
    ts = np.linspace(0.0, float(t_end), int(n_steps) + 1)
    a = 1.0 / env.omega_c
    gam_rate = _sin_kernel(ts, a) * np.sin(env.omega0 * ts)
    dlt_rate = 0.5 * _cos_kernel(ts, a) * np.cos(env.omega0 * ts)
    kernel_abserr = 0.0
    if env.temperature > 0.0:
        thermal, kernel_abserr = _thermal_kernel(ts, env)
        dlt_rate = dlt_rate + thermal * np.cos(env.omega0 * ts)
    gamma, delta = cumulative_simpson(gam_rate, ts), cumulative_simpson(dlt_rate, ts)
    return ChannelCoefficients(times=ts, gamma=gamma, delta=delta,
                               x=cumulative_simpson(2.0 * alpha * gamma, ts),
                               y=cumulative_simpson(2.0 * alpha * delta, ts),
                               alpha=alpha, kernel_abserr=kernel_abserr, env=env)


def divisibility_check(coeffs: ChannelCoefficients) -> list[tuple[float, float]]:
    """Maximal intervals of [0, t_end] where Delta(t) < |gamma(t)|: the union
    of the negative intervals of the splines of Delta - gamma and
    Delta + gamma, cut at their exact roots.  Empty means the map is
    CP-divisible (Torre, Roga & Illuminati, PRL 115, 070401 (2015))."""
    splines = cubic_splines(coeffs.times, coeffs.delta - coeffs.gamma,
                            coeffs.delta + coeffs.gamma)
    out = []
    for lo, hi in sorted(iv for s in splines for iv in s.negative_intervals(coeffs.t_end)):
        if out and lo <= out[-1][1]:  # overlaps the last one: merge
            lo, hi = out[-1][0], max(hi, out.pop()[1])
        out.append((lo, hi))
    return out


def _write_csv(path, header: list[str], columns) -> None:
    """CSV of equal-length columns, 12 significant digits, CRLF line ends."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in zip(*columns):
            fh.write(",".join(f"{v:.12g}" for v in row) + "\r\n")


def write_coefficients_csv(coeffs: ChannelCoefficients, path) -> None:
    """Write the coefficient table as CSV with 12 significant digits."""
    _write_csv(path, ["t", "gamma", "delta", "x", "y"],
               [coeffs.times, coeffs.gamma, coeffs.delta, coeffs.x, coeffs.y])
