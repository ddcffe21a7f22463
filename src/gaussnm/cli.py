"""Command-line interface.

Subcommands: ``fidelity`` (two-state fidelity and Bures distance),
``coeffs`` (Ohmic coefficient tables), ``evolve`` (single-state trajectory
CSV), ``measure`` (backflow measure records) and ``reproduce`` (canned
experiment sweeps).  All physical inputs are dimensionless with
hbar = k_B = 1: frequencies and temperatures are in inverse time units.

Exit codes: 0 success, 2 argument error, 3 unsupported method/shape for
the requested closed form, 4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .channels import (
    DampingChannel,
    DampingRateSpec,
    QbmChannel,
    _trajectories,
    write_trajectory_csv,
)
from .measure import (
    MeasureResult,
    ParamBounds,
    UnsupportedShapeError,
    closed_form_coherent_damping,
    closed_form_coherent_qbm,
    coherent_pair,
    first_order_coherent,
    first_order_coherent_thermal,
    first_order_squeezed_max,
    maximize_measure,
    squeezed_pair,
)
from .experiments import fig_defaults, parse_config, run_experiment
from .spectral import EnvironmentSpec, build_coefficients, write_coefficients_csv
from .states import StatePairParams, bures_distance, fidelity, make_gaussian

_UNITS = "dimensionless, hbar = k_B = 1; frequencies in inverse time units"


def _at_least_zero(strict: bool):
    """argparse type: a number > 0 (``strict``) or >= 0; NaN fails both."""
    def number(text: str) -> float:
        value = float(text)
        if not (value > 0.0 if strict else value >= 0.0):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} 0, got {text}")
        return value
    return number


_POSITIVE, _NON_NEGATIVE = _at_least_zero(True), _at_least_zero(False)


def _state_flags(parser: argparse.ArgumentParser, suffix: str):
    g = parser.add_argument_group(f"state {suffix}")
    g.add_argument(f"--n{suffix}", type=_NON_NEGATIVE, required=True,
                   help=f"mean thermal quanta of state {suffix} (>= 0)")
    g.add_argument(f"--r{suffix}", type=_NON_NEGATIVE, required=True,
                   help=f"squeezing magnitude of state {suffix} (>= 0)")
    g.add_argument(f"--phi{suffix}", type=float, required=True,
                   help=f"squeezing angle of state {suffix} (radians)")
    g.add_argument(f"--beta-mag{suffix}", type=_NON_NEGATIVE, required=True,
                   help=f"displacement magnitude |beta| of state {suffix}")
    g.add_argument(f"--beta-arg{suffix}", type=float, required=True,
                   help=f"displacement angle of state {suffix} (radians)")


def _state_from_flags(args, suffix: str):
    n = getattr(args, f"n{suffix}")
    r = getattr(args, f"r{suffix}")
    phi = getattr(args, f"phi{suffix}")
    mag = getattr(args, f"beta_mag{suffix}")
    arg = getattr(args, f"beta_arg{suffix}")
    return make_gaussian(n=n, r=r, phi=phi, beta=mag * np.exp(1j * arg))


def _env_from_args(args) -> EnvironmentSpec:
    return EnvironmentSpec(omega0=args.omega0, omega_c=args.omega_c,
                           temperature=args.T)


def _rate_from_args(args) -> DampingRateSpec:
    if args.rate == "constant":
        return DampingRateSpec.constant(args.gamma0)
    return DampingRateSpec.decaying_sine()


def _out_stream(path):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w"), True


def _cmd_fidelity(args) -> int:
    a = _state_from_flags(args, "1")
    b = _state_from_flags(args, "2")
    print(f"fidelity {fidelity(a, b):.12g}")
    print(f"bures_distance {bures_distance(a, b):.12g}")
    return 0


def _cmd_coeffs(args) -> int:
    env = _env_from_args(args)
    table = build_coefficients(env, alpha=args.alpha, t_end=args.t_end,
                               n_steps=args.n_steps)
    write_coefficients_csv(table, args.out)
    print(f"wrote {args.out} ({args.n_steps + 1} rows, "
          f"kernel truncation bound {table.kernel_abserr:.3g})")
    return 0


def _cmd_evolve(args) -> int:
    times = np.linspace(0.0, args.t_end, args.points)
    pair = StatePairParams(n1=args.n, r1=args.r, phi1=args.phi,
                           beta1_mag=args.beta_mag, theta1=args.beta_arg)
    channel = _channel_from_args(args)
    # evolve and check only the state that is written
    traj, = _trajectories(pair.states()[:1], channel, times)
    write_trajectory_csv(traj, args.out)
    print(f"wrote {args.out} ({args.points} rows)")
    return 0


def _channel_from_args(args):
    if args.channel == "damping":
        return DampingChannel(alpha=args.alpha, rate=_rate_from_args(args),
                              t_max=args.t_end)
    env = _env_from_args(args)
    coeffs = build_coefficients(env, alpha=args.alpha, t_end=args.t_end,
                                n_steps=args.n_steps)
    return QbmChannel(coeffs)


def _first_order_result(family: str, args, channel) -> MeasureResult:
    if family == "coherent":
        value, argmax = first_order_coherent(channel), coherent_pair(1.0)
    elif family == "coherent_thermal":
        n = args.n_thermal  # K = 1 is the first-order optimum at every n
        value = first_order_coherent_thermal(n, channel)
        argmax = StatePairParams(n1=n, n2=n, beta1_mag=math.sqrt(2.0))
    elif family == "squeezed":
        value, r_star = first_order_squeezed_max(channel, args.phi, r_max=args.r_max)
        argmax = squeezed_pair(r_star, r_star, args.phi)
    else:
        raise UnsupportedShapeError(
            "first-order method supports coherent, squeezed and "
            "coherent-thermal families"
        )
    return MeasureResult(value=value, argmax=argmax, intervals=(),
                         method="first_order")


def _closed_result(args, channel) -> MeasureResult:
    if args.family != "coherent":
        raise UnsupportedShapeError(
            "the closed form is defined for the coherent family; "
            "use --method numeric for other families"
        )
    if channel.tag == "damping":
        return closed_form_coherent_damping(args.alpha, channel.rate,
                                            t_max=args.t_end)
    backflows = [iv for iv in channel.exponent_backflows() if iv[2] > 0.0]
    if not backflows:
        raise UnsupportedShapeError(
            "diffusion coefficient has no negativity interval; the closed "
            "form does not apply (the measure is zero; use --method numeric)"
        )
    # evaluate on the dominant interval (largest exponent backflow)
    tp, tm, _ = max(backflows, key=lambda iv: iv[2])
    return closed_form_coherent_qbm(channel, (tp, tm))


_RECORD_HEADER = ("family,channel,alpha,T,omega0,omega_c,value,method,"
                  "param_K,param_n,param_r1,param_r2,param_phi")


def _record(family: str, channel, result: MeasureResult) -> tuple[str, str]:
    """(header, row) CSV record of a measure result, 12 significant digits;
    the environment cells (T, omega0, omega_c) are empty for damping."""
    env = channel.coeffs.env if isinstance(channel, QbmChannel) else None
    env_cells = (env.temperature, env.omega0, env.omega_c) if env else (None,) * 3
    p = result.argmax
    b1 = p.beta1_mag * np.exp(1j * p.theta1)
    b2 = p.beta2_mag * np.exp(1j * p.theta2)

    def num(v):
        return "" if v is None else f"{v:.12g}"

    row = ",".join([
        family, channel.tag, num(channel.alpha), *map(num, env_cells),
        num(result.value), result.method,
        num(0.5 * float(abs(b1 - b2)) ** 2), num(p.n1), num(p.r1), num(p.r2),
        num((p.phi1 - p.phi2) % (2.0 * math.pi)),
    ])
    return _RECORD_HEADER, row


def _cmd_measure(args) -> int:
    family = args.family.replace("-", "_")
    bounds = ParamBounds(r_max=args.r_max)  # checks --r-max for every method
    channel = _channel_from_args(args)
    if args.method == "numeric":
        result = maximize_measure(family, channel, phi=args.phi, bounds=bounds)
    elif args.method == "closed":
        result = _closed_result(args, channel)
    else:
        result = _first_order_result(family, args, channel)
    header, row = _record(family, channel, result)
    stream, opened = _out_stream(args.out)
    try:
        print(header, file=stream)
        print(row, file=stream)
    finally:
        if opened:
            stream.close()
    return 0


def _cmd_reproduce(args) -> int:
    if args.config:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
        if cfg.experiment != f"fig{args.figure}":
            raise ValueError(
                f"config is for {cfg.experiment!r} but --figure {args.figure} "
                "was requested"
            )
    else:
        cfg = fig_defaults(args.figure)
    paths = run_experiment(cfg, args.out)
    for p in paths:
        print(f"wrote {p}")
    return 0


def _channel_flags(parser: argparse.ArgumentParser, temperature: float,
                   t_end: float):
    """Flags choosing the channel and its time range (evolve and measure)."""
    parser.add_argument("--channel", choices=("damping", "qbm"), required=True)
    parser.add_argument("--alpha", type=_POSITIVE, required=True,
                        help="coupling constant (> 0)")
    parser.add_argument("--rate", choices=("decaying-sine", "constant"),
                        default="decaying-sine",
                        help="damping rate shape (damping channel)")
    parser.add_argument("--gamma0", type=float, default=0.5,
                        help="constant rate value (rate=constant)")
    parser.add_argument("--omega0", type=_POSITIVE, default=1.0,
                        help="system frequency (qbm)")
    parser.add_argument("--omega-c", type=_POSITIVE, default=0.2,
                        help="cutoff frequency (qbm)")
    parser.add_argument("--T", type=_NON_NEGATIVE, default=temperature,
                        help="temperature k_B T (qbm)")
    parser.add_argument("--t-end", type=float, default=t_end,
                        help="final time / coefficient table end")
    parser.add_argument("--n-steps", type=int, default=2000,
                        help="coefficient grid intervals (qbm)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussnm",
        description="Fidelity-backflow non-Markovianity of single-mode "
                    f"Gaussian channels ({_UNITS}).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fid = sub.add_parser("fidelity",
                           help="fidelity and Bures distance of two states")
    _state_flags(p_fid, "1")
    _state_flags(p_fid, "2")
    p_fid.set_defaults(fn=_cmd_fidelity)

    p_coef = sub.add_parser("coeffs", help="tabulate Ohmic bath coefficients")
    p_coef.add_argument("--omega0", type=_POSITIVE, required=True,
                        help="system frequency (inverse time units)")
    p_coef.add_argument("--omega-c", type=_POSITIVE, required=True,
                        help="cutoff frequency (inverse time units)")
    p_coef.add_argument("--T", type=_NON_NEGATIVE, default=0.0,
                        help="temperature k_B T (inverse time units)")
    p_coef.add_argument("--alpha", type=_POSITIVE, required=True,
                        help="coupling constant (dimensionless)")
    p_coef.add_argument("--t-end", type=float, default=40.0,
                        help="final time of the table")
    p_coef.add_argument("--n-steps", type=int, default=2000,
                        help="number of uniform grid intervals")
    p_coef.add_argument("--out", required=True, help="output CSV path")
    p_coef.set_defaults(fn=_cmd_coeffs)

    p_ev = sub.add_parser("evolve", help="evolve one state, CSV trajectory")
    _state_flags(p_ev, "")
    _channel_flags(p_ev, temperature=0.0, t_end=25.0)
    p_ev.add_argument("--points", type=int, default=501,
                      help="trajectory grid points")
    p_ev.add_argument("--out", required=True, help="output CSV path")
    p_ev.set_defaults(fn=_cmd_evolve)

    p_me = sub.add_parser("measure", help="backflow non-Markovianity measure")
    _channel_flags(p_me, temperature=0.2, t_end=8.0 * math.pi)
    p_me.add_argument("--family",
                      choices=("coherent", "squeezed", "coherent-thermal",
                               "general-pure"), default="coherent")
    p_me.add_argument("--method", choices=("numeric", "closed", "first-order"),
                      default="numeric")
    p_me.add_argument("--phi", type=float, default=0.1,
                      help="relative squeezing angle (squeezed family)")
    p_me.add_argument("--n-thermal", type=float, default=0.0,
                      help="coherent-thermal occupation, read by --method "
                           "first-order only (numeric maximizes over n in "
                           f"[0, {ParamBounds().n_max:g}]; closed is coherent-only)")
    p_me.add_argument("--r-max", type=float, default=5.0,
                      help="squeezing bound of the search box")
    p_me.add_argument("--out", default=None,
                      help="record destination (default stdout)")
    p_me.set_defaults(fn=_cmd_measure)

    p_rep = sub.add_parser("reproduce", help="run a canned experiment sweep")
    p_rep.add_argument("--figure", type=int, choices=(1, 2, 3, 4, 5),
                       required=True)
    p_rep.add_argument("--config", default=None,
                       help="config file overriding the defaults (schema=1)")
    p_rep.add_argument("--out", default="out", help="output directory")
    p_rep.set_defaults(fn=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UnsupportedShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, IOError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
