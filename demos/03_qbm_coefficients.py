"""Ohmic-bath coefficients and non-Markovianity of the QBM channel.

Tabulates the damping and diffusion coefficients for an off-resonant Ohmic
environment, locates the diffusion-negativity intervals, and compares the
numeric measure with the coherent closed form and the first-order law.
"""

import numpy as np

from gaussnm import (
    EnvironmentSpec,
    QbmChannel,
    build_coefficients,
    closed_form_coherent_qbm,
    divisibility_check,
    first_order_coherent,
    first_order_squeezed_max,
    maximize_measure,
    write_coefficients_csv,
)

env = EnvironmentSpec(omega0=1.0, omega_c=0.2, temperature=0.2)
coeffs = build_coefficients(env, alpha=0.05, t_end=40.0, n_steps=2000)
write_coefficients_csv(coeffs, "qbm_coefficients.csv")
print("wrote qbm_coefficients.csv")
print("diffusion range: [%.4f, %.4f]" % (coeffs.delta.min(), coeffs.delta.max()))

channel = QbmChannel(coeffs)
intervals = coeffs.delta_negativity_intervals()
print("diffusion-negativity intervals:",
      [(round(a, 3), round(b, 3)) for a, b in intervals])
print("divisibility violations (Delta < |gamma|):",
      len(divisibility_check(coeffs)), "intervals")

numeric = maximize_measure("coherent", channel,
                           times=np.linspace(0.0, 40.0, 2001))
closed = closed_form_coherent_qbm(channel, intervals[0])
print("\ncoherent measure, numeric:     ", numeric.value)
print("closed form (first interval):  ", closed.value)
print("first-order law:               ", first_order_coherent(channel))

value, r_star = first_order_squeezed_max(channel, phi=0.05)
print("\nsqueezed first-order (phi=0.05):", value, "at r =", round(r_star, 3))
numeric_sq = maximize_measure("squeezed", channel, phi=0.05,
                              equal_squeezing=True,
                              times=np.linspace(0.0, 40.0, 2001))
print("squeezed numeric (r1 = r2):     ", numeric_sq.value,
      "at r =", round(numeric_sq.diagnostics["argmax_vector"][0], 3))

# a resonant hot bath keeps Delta >= |gamma|: divisible, zero measure
hot = build_coefficients(EnvironmentSpec(1.0, 1.0, 4.0), alpha=0.05,
                         t_end=30.0, n_steps=1200)
print("\nresonant hot bath divisible:",
      divisibility_check(hot) == [],
      "-> measure =",
      maximize_measure("coherent", QbmChannel(hot),
                       times=np.linspace(0.0, 30.0, 1201)).value)
