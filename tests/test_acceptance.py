"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Heavy shared artifacts (coefficient tables, the temperature
sweep) are module-scoped fixtures.
"""

import math

import numpy as np
import pytest

from gaussnm import (
    DampingChannel,
    DampingRateSpec,
    QbmChannel,
    build_coefficients,
    closed_form_coherent_damping,
    coherent_pair,
    damping_response,
    divisibility_check,
    fidelity,
    fidelity_trajectory,
    first_order_coherent,
    first_order_coherent_thermal,
    make_gaussian,
    maximize_measure,
)
from gaussnm.experiments import fig_defaults, run_experiment
from gaussnm.spectral import EnvironmentSpec
from fock_oracle import fock_fidelity, fock_gaussian
from helpers import g1_squeezed
from quad_oracle import delta_coefficient, delta_thermal, gamma_coefficient

RATE = DampingRateSpec.decaying_sine()
ENV_REF = EnvironmentSpec(omega0=1.0, omega_c=0.2, temperature=0.2)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}",
          flush=True)


@pytest.fixture(scope="module")
def qbm_base():
    return build_coefficients(ENV_REF, alpha=1.0, t_end=40.0, n_steps=2000)


@pytest.fixture(scope="module")
def fig5_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig5")
    cfg = fig_defaults(5)
    paths = run_experiment(cfg, out)
    return np.genfromtxt(paths[0], delimiter=",", names=True)


def test_criterion_01_fidelity_oracle():
    """Closed-form fidelity vs Fock brute force on 200 random pairs, 1e-6."""
    rng = np.random.default_rng(20260810)
    dim = 250  # converged truncation for the sampled box (see ledger)
    errors = []
    for _ in range(200):
        params = []
        for _ in range(2):
            params.append((
                rng.uniform(0.0, 2.0),
                rng.uniform(0.0, 1.0),
                rng.uniform(0.0, 2.0 * np.pi),
                rng.uniform(0.0, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            ))
        closed = fidelity(
            make_gaussian(n=params[0][0], r=params[0][1], phi=params[0][2],
                          beta=params[0][3]),
            make_gaussian(n=params[1][0], r=params[1][1], phi=params[1][2],
                          beta=params[1][3]),
        )
        rho1 = fock_gaussian(*params[0], dim=dim)
        rho2 = fock_gaussian(*params[1], dim=dim)
        errors.append(abs(closed - fock_fidelity(rho1, rho2)))
    worst = max(errors)
    # truncation self-consistency at the worst corner of the box
    corner = ((2.0, 1.0, 0.3, 1.0 + 0.5j), (1.8, 0.9, 2.0, 0.5 - 1.0j))
    converged = abs(
        fock_fidelity(fock_gaussian(*corner[0], dim=210),
                      fock_gaussian(*corner[1], dim=210))
        - fock_fidelity(fock_gaussian(*corner[0], dim=250),
                        fock_gaussian(*corner[1], dim=250))
    )
    ok = worst <= 1e-6 and converged <= 5e-7
    report(1, ok, f"max |closed - Fock(dim {dim})| = {worst:.2e} over 200 "
                  f"pairs (oracle truncation drift {converged:.1e})")
    assert worst <= 1e-6
    assert converged <= 5e-7


def test_criterion_02_coherent_damping_closed_form():
    """maximize_measure's exact coherent solver reproduces the closed form.

    The solver works on the time grid (refined extrema of a(t)), the closed
    form on the analytic interval ends; they agree to 1e-5.
    """
    times = np.linspace(0.0, 25.0, 2001)
    gaps = []
    for alpha in (0.01, 0.05, 0.1):
        channel = DampingChannel(alpha=alpha, rate=RATE, t_max=25.0)
        numeric = maximize_measure("coherent", channel, times=times)
        closed = closed_form_coherent_damping(alpha, RATE)
        gaps.append(abs(numeric.value - closed.value))
    res = closed_form_coherent_damping(0.1, RATE)
    value_ok = abs(res.value - 0.0459) <= 0.0005
    k_ok = abs(res.diagnostics["K"] - 1.114) <= 0.01
    ok = max(gaps) <= 1e-5 and value_ok and k_ok
    report(2, ok, f"max |numeric - closed| = {max(gaps):.2e}; value(0.1) = "
                  f"{res.value:.5f}, K = {res.diagnostics['K']:.4f}")
    assert max(gaps) <= 1e-5
    assert value_ok and k_ok


def test_criterion_03_first_order_law():
    """N(alpha)/alpha -> 0.4604 within 2% at alpha = 0.01; argmax K -> 1."""
    channel = DampingChannel(alpha=0.01, rate=RATE, t_max=25.0)
    numeric = maximize_measure("coherent", channel,
                               times=np.linspace(0.0, 25.0, 2001))
    slope = numeric.value / 0.01
    k_star = numeric.diagnostics["argmax_vector"][0]
    slope_ok = abs(slope - 0.4604) <= 0.02 * 0.4604
    k_ok = abs(k_star - 1.0) <= 0.05
    report(3, slope_ok and k_ok,
           f"N(0.01)/0.01 = {slope:.4f} (target 0.4604), K* = {k_star:.4f}")
    assert slope_ok and k_ok


def test_criterion_04_divisible_maps_have_zero_measure():
    """Constant-rate damping: < 1e-9 all families; divisible QBM: < 1e-6."""
    channel = DampingChannel(alpha=0.1, rate=DampingRateSpec.constant(0.5))
    times = np.linspace(0.0, 12.0, 601)
    worst_damping = max(
        maximize_measure(family, channel, phi=0.1, times=times).value
        for family in ("coherent", "squeezed", "coherent_thermal",
                       "general_pure")
    )
    env = EnvironmentSpec(omega0=1.0, omega_c=1.0, temperature=4.0)
    table = build_coefficients(env, alpha=0.05, t_end=30.0, n_steps=1200)
    assert divisibility_check(table) == []
    qbm = QbmChannel(table)
    times_q = np.linspace(0.0, 30.0, 1201)
    worst_qbm = max(
        maximize_measure(family, qbm, phi=0.1, times=times_q).value
        for family in ("coherent", "squeezed")
    )
    ok = worst_damping <= 1e-9 and worst_qbm <= 1e-6
    report(4, ok, f"divisible damping max = {worst_damping:.2e}, "
                  f"divisible QBM max = {worst_qbm:.2e}")
    assert worst_damping <= 1e-9
    assert worst_qbm <= 1e-6


def test_criterion_05_family_orderings(qbm_base):
    """squeezed(0.05) >= squeezed(0.1) >= squeezed(0.2) >= coherent."""
    alphas = (0.01, 0.02, 0.05, 0.1, 0.15)
    phis = (0.05, 0.1, 0.2)
    failures = []
    for tag in ("damping", "qbm"):
        for alpha in alphas:
            if tag == "damping":
                channel = DampingChannel(alpha=alpha, rate=RATE, t_max=25.0)
                times = np.linspace(0.0, 25.0, 1501)
            else:
                channel = QbmChannel(qbm_base.rescaled(alpha))
                times = np.linspace(0.0, 40.0, 1501)
            values = [
                maximize_measure("squeezed", channel, phi=phi,
                                 equal_squeezing=True, times=times).value
                for phi in phis
            ]
            values.append(maximize_measure("coherent", channel,
                                           times=times).value)
            strict = alpha >= 0.02
            for a, b in zip(values, values[1:]):
                if (a < b) or (strict and not a > b):
                    failures.append((tag, alpha, values))
                    break
    ok = not failures
    report(5, ok, "orderings hold at all sampled couplings"
           if ok else f"violations: {failures}")
    assert ok


def test_criterion_06_qbm_interval_alignment(qbm_base):
    """Fidelity-decrease intervals track diffusion sign changes within 2%."""
    period = 2.0 * math.pi / ENV_REF.omega0
    tol = 0.02 * period
    worst = 0.0
    for alpha in (0.01, 0.05):
        channel = QbmChannel(qbm_base.rescaled(alpha))
        roots = [t for iv in channel.coeffs.delta_negativity_intervals()
                 for t in iv]
        traj = fidelity_trajectory(coherent_pair(1.0), channel,
                                   np.linspace(0.0, 40.0, 2001))
        ext = sorted(t for t, _, _ in traj.extrema)
        assert len(ext) == len(roots)
        worst = max(worst, max(abs(a - b) for a, b in zip(sorted(roots), ext)))
    ok = worst <= tol
    report(6, ok, f"max endpoint offset = {worst:.4f} (tolerance {tol:.4f})")
    assert ok


def test_criterion_07_coherent_thermal_suppression():
    """First-order value at n = 0.5 is half the pure-state value."""
    channel = DampingChannel(alpha=0.05, rate=RATE, t_max=25.0)
    pure = first_order_coherent_thermal(0.0, channel)
    mixed = first_order_coherent_thermal(0.5, channel)
    rel = abs(mixed - pure / 2.0) / (pure / 2.0)
    ok = rel <= 1e-6 and pure == first_order_coherent(channel)
    report(7, ok, f"relative deviation from half suppression = {rel:.2e}")
    assert ok


def test_criterion_08_temperature_saturation(fig5_outputs):
    """Fig 5: curves saturate in alpha; plateau nondecreasing in T."""
    data = fig5_outputs
    alphas = data["alpha"]
    names = [n for n in data.dtype.names if n != "alpha"]
    spreads = {}
    plateaus = []
    assert alphas[-3] >= 0.12  # the last three sampled points sit past 0.12
    for name in names:
        col = data[name]
        assert np.all(np.diff(col) >= -1e-6 * col.max())  # nondecreasing
        last3 = col[-3:]
        spreads[name] = (last3.max() - last3.min()) / last3.max()
        plateaus.append(col[-1])
    spread_ok = all(s <= 0.05 for s in spreads.values())
    order_ok = all(a <= b + 1e-12 for a, b in zip(plateaus, plateaus[1:]))
    ok = spread_ok and order_ok
    report(8, ok, "last-three spreads " +
           ", ".join(f"{n.split('_')[1]}: {s*100:.2f}%" for n, s in spreads.items())
           + f"; plateaus {['%.4f' % p for p in plateaus]}")
    assert spread_ok
    assert order_ok


def test_criterion_09_quadrature_integrity():
    """Semi-analytic coefficients vs 2-d quadrature; thermal linearity 2%."""
    from test_spectral import brute_force_delta, brute_force_gamma

    sample = [
        (t, EnvironmentSpec(omega0=w0, omega_c=wc, temperature=tt))
        for t in (1.0, 3.0, 8.0, 15.0)
        for (w0, wc, tt) in [(1.0, 0.2, 0.2), (4.0, 1.0, 0.0),
                             (1.0, 1.0, 1.0), (6.0, 1.0, 4.0),
                             (1.0, 0.3, 0.5)]
    ][:20]
    worst = 0.0
    for t, env in sample:
        gb = brute_force_gamma(t, env)
        db = brute_force_delta(t, env)
        worst = max(
            worst,
            abs(gamma_coefficient(t, env) - gb) / max(abs(gb), 1e-3),
            abs(delta_coefficient(t, env) - db) / max(abs(db), 1e-3),
        )
    env1 = EnvironmentSpec(omega0=1.0, omega_c=1.0, temperature=40.0)
    env2 = EnvironmentSpec(omega0=1.0, omega_c=1.0, temperature=80.0)
    lin = max(
        abs(delta_thermal(t, env2) / delta_thermal(t, env1) - 2.0)
        for t in (0.8, 1.6, 3.0)
    )
    ok = worst <= 1e-6 and lin <= 0.02
    report(9, ok, f"max relative quadrature error = {worst:.2e}; "
                  f"thermal linearity deviation = {lin:.4f}")
    assert worst <= 1e-6
    assert lin <= 0.02


def test_criterion_10_g1_resolution():
    """Printed squeezing coefficient vs the exact damping response."""
    phi = 0.1
    rs = np.arange(0.3, 3.31, 0.5)
    printed = np.array([g1_squeezed(r, phi) for r in rs])
    oracle = np.array([damping_response(r, r, phi) for r in rs])
    r_printed = rs[int(np.argmax(printed))]
    r_oracle = rs[int(np.argmax(oracle))]
    argmax_ok = abs(r_printed - r_oracle) <= 0.5 + 1e-12
    small_r_oracle = damping_response(0.05, 0.05, phi)
    small_r_printed = g1_squeezed(0.05, phi)
    small_ok = abs(small_r_oracle) <= 1e-3
    report(10, argmax_ok and small_ok,
           f"argmax printed r = {r_printed:.1f} vs oracle r = {r_oracle:.1f} "
           f"(grid step 0.5); at r = 0.05 the printed value {small_r_printed:.3f}"
           f" disagrees with the vanishing oracle {small_r_oracle:.2e} "
           "(oracle authoritative)")
    assert argmax_ok
    assert small_ok
