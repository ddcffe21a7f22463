"""Damping and diffusion coefficients of the weak-coupling Ohmic bath.

The bath has spectral density J(w) = w exp(-w/w_c) (Ohmic, exponential
cutoff).  The time-dependent master-equation coefficients are

    gamma(t) = int_0^t ds int_0^inf dw J(w) sin(w0 s) sin(w s)
    Delta(t) = int_0^t ds int_0^inf dw J(w) (N(w) + 1/2) cos(w0 s) cos(w s)

with N(w) the thermal occupation.  The frequency integrals of the
temperature-independent parts are closed forms; the thermal part is a
cosine-weighted quadrature.  Delta splits as Delta_0 + Delta_T (zero-point
plus thermal photons).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_simpson, quad

__all__ = [
    "EnvironmentSpec",
    "ChannelCoefficients",
    "build_coefficients",
    "coefficients_from_functions",
    "divisibility_check",
    "write_coefficients_csv",
]
# unexported: delta_zero_temperature and QuadratureError serve perfbench's T = 0 check

_REL_TOL = 1e-8


class QuadratureError(RuntimeError):
    """Raised when an adaptive quadrature cannot reach the target accuracy."""

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (error estimate {estimate:.3e})")
        self.estimate = estimate


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
    t = 0.  ``kernel_abserr`` carries the worst thermal-kernel quadrature
    error estimate for run summaries.
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

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def rescaled(self, alpha: float) -> "ChannelCoefficients":
        """Same table at a different coupling (x and y scale with alpha)."""
        scale = alpha / self.alpha
        return ChannelCoefficients(times=self.times, gamma=self.gamma,
                                   delta=self.delta, x=scale * self.x,
                                   y=scale * self.y, alpha=alpha,
                                   kernel_abserr=self.kernel_abserr,
                                   env=self.env)


def _sin_kernel(s, a):
    """int_0^inf w e^{-a w} sin(w s) dw = 2 a s / (a^2 + s^2)^2."""
    s = np.asarray(s, float)
    return 2.0 * a * s / (a * a + s * s) ** 2


def _cos_kernel(s, a):
    """int_0^inf w e^{-a w} cos(w s) dw = (a^2 - s^2) / (a^2 + s^2)^2."""
    s = np.asarray(s, float)
    return (a * a - s * s) / (a * a + s * s) ** 2


def _thermal_occupancy_weight(w: float, t: float, omega_c: float) -> float:
    """J(w) N(w) at one frequency, with the w -> 0 limit J N -> T.

    QUADPACK calls this with plain floats.  It uses numpy's expm1/exp, not
    ``math``'s: those differ by a few ulp, which would move the tabulated
    values and the reported ``kernel_abserr``.  ``_omega_cut`` keeps w/T
    below 38, so expm1 cannot overflow.
    """
    if w <= 0.0:
        return t
    return float(w / np.expm1(w / t) * np.exp(-w / omega_c))


def _omega_cut(env: EnvironmentSpec) -> float:
    """Upper frequency limit of the thermal kernel (T > 0).

    J(w) N(w) decays as exp(-w / tau) with tau = T w_c / (T + w_c), so the
    cut scales with tau: the integrand's bulk, within a few tau of w = 0, is
    never a sliver of the range, and w/T <= log(1e12) + 10 on the whole
    range.
    """
    t, wc = env.temperature, env.omega_c
    tau = t * wc / (t + wc)
    return tau * math.log(1e12) + 10.0 * tau


def thermal_cos_kernel(s: float, env: EnvironmentSpec) -> tuple[float, float]:
    """int_0^inf J(w) N(w) cos(w s) dw and its quadrature error estimate."""
    if env.temperature == 0.0:
        return 0.0, 0.0
    val, err = quad(
        _thermal_occupancy_weight, 0.0, _omega_cut(env),
        args=(env.temperature, env.omega_c),
        weight="cos", wvar=float(s), limit=400, epsabs=1e-13, epsrel=1e-11,
    )
    return val, err


def _check_quad(value: float, estimate: float, what: str) -> float:
    # relative criterion with an absolute floor for near-zero values
    if estimate > max(_REL_TOL * abs(value), 1e-9):
        raise QuadratureError(f"{what} quadrature did not converge", estimate)
    return value


def delta_zero_temperature(t: float, env: EnvironmentSpec) -> float:
    """Zero-point diffusion Delta_0(t) (half-weighted cosine transform)."""
    t = float(t)
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return 0.0
    a = 1.0 / env.omega_c
    val, err = quad(lambda s: 0.5 * _cos_kernel(s, a), 0.0, t, weight="cos",
                    wvar=env.omega0, limit=400, epsabs=1e-13, epsrel=1e-11)
    return _check_quad(val, err, "Delta_0(t)")


def _cumulative(values: np.ndarray, ts: np.ndarray) -> np.ndarray:
    out = np.empty_like(values)
    out[0] = 0.0
    out[1:] = cumulative_simpson(values, x=ts)
    return out


def _table_grid(t_end: float, n_steps: int) -> np.ndarray:
    if not t_end > 0.0:
        raise ValueError("t_end must be positive")
    if n_steps < 2:
        raise ValueError("n_steps must be >= 2")
    return np.linspace(0.0, float(t_end), int(n_steps) + 1)


def _table(ts, gamma, delta, alpha: float, **extra) -> ChannelCoefficients:
    """Coefficient table with the exponents x = 2 alpha int gamma, y = 2 alpha int Delta."""
    return ChannelCoefficients(times=ts, gamma=gamma, delta=delta,
                               x=_cumulative(2.0 * alpha * gamma, ts),
                               y=_cumulative(2.0 * alpha * delta, ts),
                               alpha=alpha, **extra)


def build_coefficients(env: EnvironmentSpec, alpha: float, t_end: float,
                       n_steps: int) -> ChannelCoefficients:
    """Tabulate gamma, Delta, x, y on a uniform grid of n_steps intervals.

    The time integrals are composite Simpson over the sampled integrands,
    so the cumulative columns are O(h^4) accurate in the grid spacing.
    """
    ts = _table_grid(t_end, n_steps)
    a = 1.0 / env.omega_c
    gam_rate = _sin_kernel(ts, a) * np.sin(env.omega0 * ts)
    dlt_rate = 0.5 * _cos_kernel(ts, a) * np.cos(env.omega0 * ts)
    kernel_abserr = 0.0
    if env.temperature > 0.0:
        thermal = np.empty_like(ts)
        for i, s in enumerate(ts):
            thermal[i], err = thermal_cos_kernel(s, env)
            kernel_abserr = max(kernel_abserr, err)
        dlt_rate = dlt_rate + thermal * np.cos(env.omega0 * ts)
    return _table(ts, _cumulative(gam_rate, ts), _cumulative(dlt_rate, ts),
                  alpha, kernel_abserr=kernel_abserr, env=env)


def coefficients_from_functions(gamma_fn, delta_fn, alpha: float, t_end: float,
                                n_steps: int) -> ChannelCoefficients:
    """Tabulate user-supplied gamma(t), Delta(t) callables (test hook)."""
    ts = _table_grid(t_end, n_steps)
    gamma = np.asarray([float(gamma_fn(t)) for t in ts])
    delta = np.asarray([float(delta_fn(t)) for t in ts])
    return _table(ts, gamma, delta, alpha)


def divisibility_check(coeffs: ChannelCoefficients) -> list[tuple[float, float]]:
    """Grid-resolved intervals where Delta(t) < |gamma(t)|.

    Empty means the map is divisible at the grid resolution.
    """
    bad = coeffs.delta < np.abs(coeffs.gamma)
    ts = coeffs.times
    intervals = []
    start = None
    for i, flag in enumerate(bad):
        if flag and start is None:
            start = ts[i]
        elif not flag and start is not None:
            intervals.append((float(start), float(ts[i])))
            start = None
    if start is not None:
        intervals.append((float(start), float(ts[-1])))
    return intervals


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
