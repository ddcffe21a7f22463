"""Per-point adaptive-quadrature references for gamma(t) and Delta(t).

Each call integrates the time kernel of one coefficient at one t with
QUADPACK's oscillatory weights, independently of the Simpson-integrated
tables of ``gaussnm.spectral.build_coefficients``.  The thermal kernel is
one QAWO quadrature over frequency per time point, independently of the
package's closed-form trigamma, and ``delta_zero_temperature`` is the QAWO
counterpart of the package's Gauss-Legendre one.  The tests compare the
tables against these values, and these values against a 2-d brute-force
quadrature.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from gaussnm.spectral import EnvironmentSpec, _cos_kernel, _sin_kernel

_REL_TOL = 1e-8


class QuadratureError(RuntimeError):
    """Raised when an adaptive quadrature cannot reach the target accuracy."""

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (error estimate {estimate:.3e})")
        self.estimate = estimate


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


def gamma_coefficient(t: float, env: EnvironmentSpec) -> float:
    """Damping coefficient gamma(t); temperature independent."""
    t = float(t)
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return 0.0
    a = 1.0 / env.omega_c
    val, err = quad(_sin_kernel, 0.0, t, args=(a,), weight="sin",
                    wvar=env.omega0, limit=400, epsabs=1e-13, epsrel=1e-11)
    return _check_quad(val, err, "gamma(t)")


def delta_thermal(t: float, env: EnvironmentSpec) -> float:
    """Thermal diffusion Delta_T(t); identically zero at T = 0."""
    t = float(t)
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if t == 0.0 or env.temperature == 0.0:
        return 0.0
    inner_err = 0.0

    def kernel(s):
        nonlocal inner_err
        v, e = thermal_cos_kernel(s, env)
        inner_err = max(inner_err, e)
        return v

    val, err = quad(kernel, 0.0, t, weight="cos", wvar=env.omega0,
                    limit=400, epsabs=1e-12, epsrel=1e-10)
    return _check_quad(val, err + inner_err * t, "Delta_T(t)")


def delta_coefficient(t: float, env: EnvironmentSpec) -> float:
    """Diffusion coefficient Delta(t) = Delta_0(t) + Delta_T(t)."""
    return delta_zero_temperature(t, env) + delta_thermal(t, env)
