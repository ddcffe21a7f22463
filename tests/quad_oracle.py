"""Per-point adaptive-quadrature references for gamma(t) and Delta(t).

Each call integrates the time kernel of one coefficient at one t with
QUADPACK's oscillatory weights, independently of the Simpson-integrated
tables of ``gaussnm.spectral.build_coefficients``.  The tests compare the
tables against these values, and these values against a 2-d brute-force
quadrature.
"""

from __future__ import annotations

from scipy.integrate import quad

from gaussnm.spectral import (
    EnvironmentSpec,
    _check_quad,
    _sin_kernel,
    delta_zero_temperature,
    thermal_cos_kernel,
)


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
