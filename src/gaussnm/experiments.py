"""Config-driven reproduction sweeps emitting plot-ready CSV tables.

Five canned experiments (fig1..fig5) cover the backflow measure of the
damping channel versus coupling, the Ohmic diffusion coefficient versus
time, and the QBM measure versus coupling for coherent and squeezed
families at several temperatures.  Each run writes one CSV (one column per
curve, 12 significant digits) plus a JSON run summary with quadrature and
optimizer diagnostics.  Identical configs produce byte-identical CSVs.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .channels import DampingChannel, DampingRateSpec, QbmChannel
from .measure import (
    ParamBounds,
    closed_form_coherent_damping,
    first_order_coherent,
    first_order_squeezed_damping_max,
    first_order_squeezed_qbm_max,
    maximize_measure,
)
from .spectral import ChannelCoefficients, EnvironmentSpec, build_coefficients

__all__ = [
    "ExperimentConfig",
    "parse_config",
    "format_config",
    "fig_defaults",
    "rescale_coefficients",
    "run_experiment",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_fig5",
]

_EXPERIMENTS = ("fig1", "fig2", "fig3", "fig4", "fig5", "custom")
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; see ``format_config`` for the file form."""

    experiment: str = "custom"
    channel: str = "damping"
    family: str = "coherent"
    alpha_min: float = 0.005
    alpha_max: float = 0.15
    alpha_points: int = 21
    omega0: tuple = (1.0,)
    omega_c: float = 0.2
    temperatures: tuple = (0.2,)
    temperature_unit: str = "omega0"
    phis: tuple = (0.1,)
    rate: str = "decaying_sine"
    gamma0: float = 0.5
    t_end: float = 40.0
    n_steps: int = 2000
    traj_points: int = 2000
    r_max: float = 5.0
    beta_max: float = 6.0
    n_max: float = 5.0
    workers: int = 0

    def __post_init__(self):
        if self.experiment not in _EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.channel not in ("damping", "qbm"):
            raise ValueError(f"unknown channel {self.channel!r}")
        if self.temperature_unit not in ("omega0", "omega_c"):
            raise ValueError("temperature_unit must be 'omega0' or 'omega_c'")
        for name in ("omega0", "temperatures", "phis"):
            object.__setattr__(self, name,
                               tuple(float(v) for v in getattr(self, name)))
        if not (0.0 < self.alpha_min <= self.alpha_max <= 0.5):
            raise ValueError("alpha range must sit within (0, 0.5]")
        if self.alpha_points < 1:
            raise ValueError("alpha_points must be >= 1")
        for p in self.phis:
            if not (0.0 < p <= math.pi):
                raise ValueError("phi values must lie in (0, pi]")

    @property
    def alphas(self) -> np.ndarray:
        return np.linspace(self.alpha_min, self.alpha_max, self.alpha_points)

    def kelvin(self, value: float) -> float:
        """Temperature value converted to absolute units (k_B T)."""
        unit = self.omega0[0] if self.temperature_unit == "omega0" else self.omega_c
        return float(value) * unit

    def bounds(self) -> ParamBounds:
        return ParamBounds(beta_max=self.beta_max, r_max=self.r_max,
                           n_max=self.n_max)


_LIST_KEYS = {"omega0": "omega0", "T": "temperatures", "phi": "phis"}
_SCALARS = {
    "experiment": str, "channel": str, "family": str,
    "alpha_min": float, "alpha_max": float, "alpha_points": int,
    "omega_c": float, "T_unit": str, "rate": str, "gamma0": float,
    "t_end": float, "n_steps": int, "traj_points": int,
    "r_max": float, "beta_max": float, "n_max": float, "workers": int,
}
_FIELD_OF = {"T_unit": "temperature_unit"}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key=value config format (schema=1 header required)."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].replace(" ", "") == f"schema={SCHEMA_VERSION}":
        raise ValueError(f"config must start with 'schema={SCHEMA_VERSION}'")
    kwargs = {}
    for ln in lines[1:]:
        if "=" not in ln:
            raise ValueError(f"malformed config line: {ln!r}")
        key, _, raw = ln.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in _LIST_KEYS:
            kwargs[_LIST_KEYS[key]] = (tuple(float(v) for v in raw.split(","))
                                       if raw else ())
        elif key in _SCALARS:
            kwargs[_FIELD_OF.get(key, key)] = _SCALARS[key](raw)
        else:
            raise ValueError(f"unknown config key {key!r}")
    return ExperimentConfig(**kwargs)


def format_config(cfg: ExperimentConfig) -> str:
    """Serialize a config in the flat key=value format."""
    def fmt(v):
        return f"{v:.12g}" if isinstance(v, float) else str(v)

    lines = [f"schema={SCHEMA_VERSION}"]
    lines.append(f"experiment={cfg.experiment}")
    lines.append(f"channel={cfg.channel}")
    lines.append(f"family={cfg.family}")
    lines.append(f"alpha_min={fmt(cfg.alpha_min)}")
    lines.append(f"alpha_max={fmt(cfg.alpha_max)}")
    lines.append(f"alpha_points={cfg.alpha_points}")
    lines.append("omega0=" + ",".join(fmt(v) for v in cfg.omega0))
    lines.append(f"omega_c={fmt(cfg.omega_c)}")
    lines.append("T=" + ",".join(fmt(v) for v in cfg.temperatures))
    lines.append(f"T_unit={cfg.temperature_unit}")
    lines.append("phi=" + ",".join(fmt(v) for v in cfg.phis))
    lines.append(f"rate={cfg.rate}")
    lines.append(f"gamma0={fmt(cfg.gamma0)}")
    lines.append(f"t_end={fmt(cfg.t_end)}")
    lines.append(f"n_steps={cfg.n_steps}")
    lines.append(f"traj_points={cfg.traj_points}")
    lines.append(f"r_max={fmt(cfg.r_max)}")
    lines.append(f"beta_max={fmt(cfg.beta_max)}")
    lines.append(f"n_max={fmt(cfg.n_max)}")
    lines.append(f"workers={cfg.workers}")
    return "\n".join(lines) + "\n"


def fig_defaults(figure: int) -> ExperimentConfig:
    """Default parameter set for one of the five canned experiments."""
    if figure == 1:
        return ExperimentConfig(experiment="fig1", channel="damping",
                                family="squeezed", phis=(0.1, 0.2),
                                temperatures=(), t_end=25.0)
    if figure == 2:
        return ExperimentConfig(experiment="fig2", channel="qbm",
                                omega0=(4.0, 6.0), omega_c=1.0,
                                temperatures=(0.0, 0.2, 1.0, 4.0),
                                temperature_unit="omega_c", t_end=30.0)
    if figure == 3:
        return ExperimentConfig(experiment="fig3", channel="qbm",
                                family="coherent", omega0=(1.0,), omega_c=0.2,
                                temperatures=(0.2, 0.5), t_end=40.0)
    if figure == 4:
        return ExperimentConfig(experiment="fig4", channel="qbm",
                                family="squeezed", omega0=(1.0,), omega_c=0.2,
                                temperatures=(0.2,), phis=(0.05, 0.1),
                                t_end=40.0)
    if figure == 5:
        return ExperimentConfig(experiment="fig5", channel="qbm",
                                family="squeezed", omega0=(1.0,), omega_c=0.2,
                                temperatures=(0.3, 0.9, 4.0, 8.0),
                                phis=(0.05,), t_end=40.0)
    raise ValueError(f"figure must be 1..5, got {figure}")


def rescale_coefficients(coeffs: ChannelCoefficients,
                         alpha: float) -> ChannelCoefficients:
    """Same coefficient table at a different coupling (x, y scale with alpha)."""
    scale = alpha / coeffs.alpha
    return ChannelCoefficients(times=coeffs.times, gamma=coeffs.gamma,
                               delta=coeffs.delta, x=scale * coeffs.x,
                               y=scale * coeffs.y, alpha=alpha,
                               kernel_abserr=coeffs.kernel_abserr,
                               env=coeffs.env)


def _resolve_workers(cfg: ExperimentConfig) -> int:
    workers = cfg.workers if cfg.workers > 0 else (os.cpu_count() or 1)
    cap = os.environ.get("GAUSSNM_THREADS")
    if cap:
        workers = min(workers, max(1, int(cap)))
    return max(1, workers)


def _run_tasks(tasks, workers: int):
    """Run (fn, args) tasks, preserving order; fan out when workers > 1."""
    if workers <= 1 or len(tasks) <= 1:
        return [fn(*args) for fn, args in tasks]
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        futures = [pool.submit(fn, *args) for fn, args in tasks]
        return [f.result() for f in futures]


def _write_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    rows = zip(*columns)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join(f"{v:.12g}" for v in row) + "\r\n")


def _write_summary(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _summary_base(cfg: ExperimentConfig, outputs: list[str]) -> dict:
    return {"schema": SCHEMA_VERSION, "experiment": cfg.experiment,
            "config": asdict(cfg), "outputs": [os.path.basename(p) for p in outputs]}


def _phi_label(p: float) -> str:
    return f"{p:g}".replace("-", "m")


def _merge_diag(acc: dict, diag: dict) -> None:
    acc["iterations"] = acc.get("iterations", 0) + diag.get("iterations", 0)
    acc["restarts"] = acc.get("restarts", 0) + diag.get("restarts", 0)
    acc["grid_evaluations"] = (acc.get("grid_evaluations", 0)
                               + diag.get("grid_evaluations", 0))
    acc["stagnation_count"] = (acc.get("stagnation_count", 0)
                               + int(diag.get("stagnation", False)))


# --- damping channel sweep (fig 1) -----------------------------------------

def _fig1_squeezed_column(cfg_dict: dict, phi: float):
    cfg = ExperimentConfig(**cfg_dict)
    rate = DampingRateSpec(kind=cfg.rate, gamma0=cfg.gamma0)
    times = np.linspace(0.0, cfg.t_end, cfg.traj_points + 1)
    exact, first = [], []
    diag: dict = {}
    for alpha in cfg.alphas:
        channel = DampingChannel(alpha=alpha, rate=rate, t_max=cfg.t_end)
        res = maximize_measure("squeezed", channel, bounds=cfg.bounds(),
                               phi=phi, times=times)
        _merge_diag(diag, res.diagnostics)
        exact.append(res.value)
        first.append(first_order_squeezed_damping_max(channel, phi,
                                                      r_max=cfg.r_max)[0])
    return np.array(exact), np.array(first), diag


def run_fig1(cfg: ExperimentConfig, out_dir) -> list[str]:
    """Damping-channel measure vs coupling: coherent and squeezed families."""
    os.makedirs(out_dir, exist_ok=True)
    rate = DampingRateSpec(kind=cfg.rate, gamma0=cfg.gamma0)
    alphas = cfg.alphas
    coh_exact, coh_first = [], []
    for alpha in alphas:
        channel = DampingChannel(alpha=alpha, rate=rate, t_max=cfg.t_end)
        coh_exact.append(closed_form_coherent_damping(alpha, rate,
                                                      t_max=cfg.t_end).value)
        coh_first.append(first_order_coherent(channel))
    tasks = [(_fig1_squeezed_column, (asdict(cfg), p)) for p in cfg.phis]
    results = _run_tasks(tasks, _resolve_workers(cfg))

    header = ["alpha", "coherent_exact", "coherent_first_order"]
    cols = [alphas, np.array(coh_exact), np.array(coh_first)]
    diag: dict = {}
    for p, (exact, first, d) in zip(cfg.phis, results):
        header.append(f"squeezed_exact_phi{_phi_label(p)}")
        cols.append(exact)
        _merge_diag(diag, d)
    for p, (exact, first, d) in zip(cfg.phis, results):
        header.append(f"squeezed_first_order_phi{_phi_label(p)}")
        cols.append(first)
    csv_path = os.path.join(out_dir, "fig1.csv")
    _write_csv(csv_path, header, cols)
    summary = _summary_base(cfg, [csv_path])
    summary["optimizer"] = diag
    summary["quadrature"] = {"kernel_abserr": 0.0}
    sum_path = os.path.join(out_dir, "fig1_summary.json")
    _write_summary(sum_path, summary)
    return [csv_path, sum_path]


# --- coefficient curves (fig 2) --------------------------------------------

def _fig2_column(omega0: float, omega_c: float, t_abs: float, t_end: float,
                 n_steps: int):
    env = EnvironmentSpec(omega0=omega0, omega_c=omega_c, temperature=t_abs)
    table = build_coefficients(env, alpha=1.0, t_end=t_end, n_steps=n_steps)
    return table.delta, table.kernel_abserr


def run_fig2(cfg: ExperimentConfig, out_dir) -> list[str]:
    """Diffusion coefficient vs time for each (omega0, T) combination."""
    os.makedirs(out_dir, exist_ok=True)
    ts = np.linspace(0.0, cfg.t_end, cfg.n_steps + 1)
    tasks = []
    labels = []
    for w0 in cfg.omega0:
        for tv in cfg.temperatures:
            tasks.append((_fig2_column,
                          (w0, cfg.omega_c, cfg.kelvin(tv), cfg.t_end,
                           cfg.n_steps)))
            labels.append(f"delta_omega0_{w0:g}_T{tv:g}")
    results = _run_tasks(tasks, _resolve_workers(cfg))
    header = ["t"] + labels
    cols = [ts] + [delta for delta, _ in results]
    csv_path = os.path.join(out_dir, "fig2.csv")
    _write_csv(csv_path, header, cols)
    summary = _summary_base(cfg, [csv_path])
    summary["quadrature"] = {
        "kernel_abserr": max(err for _, err in results),
    }
    sum_path = os.path.join(out_dir, "fig2_summary.json")
    _write_summary(sum_path, summary)
    return [csv_path, sum_path]


# --- QBM measure sweeps (figs 3-5) ------------------------------------------

def _qbm_measure_column(cfg_dict: dict, t_value: float, family: str,
                        phi: float, equal_squeezing: bool,
                        want_first_order: bool):
    cfg = ExperimentConfig(**cfg_dict)
    env = EnvironmentSpec(omega0=cfg.omega0[0], omega_c=cfg.omega_c,
                          temperature=cfg.kelvin(t_value))
    base = build_coefficients(env, alpha=1.0, t_end=cfg.t_end,
                              n_steps=cfg.n_steps)
    times = np.linspace(0.0, cfg.t_end, cfg.traj_points + 1)
    exact, first = [], []
    diag: dict = {}
    for alpha in cfg.alphas:
        coeffs = rescale_coefficients(base, alpha)
        channel = QbmChannel(coeffs)
        res = maximize_measure(family, channel, bounds=cfg.bounds(), phi=phi,
                               equal_squeezing=equal_squeezing, times=times)
        _merge_diag(diag, res.diagnostics)
        exact.append(res.value)
        if want_first_order:
            if family == "coherent":
                first.append(first_order_coherent(channel))
            else:
                first.append(first_order_squeezed_qbm_max(coeffs, phi,
                                                          r_max=cfg.r_max)[0])
    return (np.array(exact), np.array(first) if want_first_order else None,
            diag, base.kernel_abserr)


def _run_qbm_sweep(cfg: ExperimentConfig, out_dir, name: str, specs,
                   include_first_order: bool) -> list[str]:
    """Shared driver for figs 3-5; specs are (label, T, family, phi, equal_r)."""
    os.makedirs(out_dir, exist_ok=True)
    tasks = [(_qbm_measure_column,
              (asdict(cfg), tv, family, phi, eq, include_first_order))
             for (_, tv, family, phi, eq) in specs]
    results = _run_tasks(tasks, _resolve_workers(cfg))
    header = ["alpha"]
    cols = [cfg.alphas]
    diag: dict = {}
    kernel_err = 0.0
    for (label, *_), (exact, first, d, kerr) in zip(specs, results):
        header.append(f"{label}_exact")
        cols.append(exact)
        if include_first_order:
            header.append(f"{label}_first_order")
            cols.append(first)
        _merge_diag(diag, d)
        kernel_err = max(kernel_err, kerr)
    csv_path = os.path.join(out_dir, f"{name}.csv")
    _write_csv(csv_path, header, cols)
    summary = _summary_base(cfg, [csv_path])
    summary["optimizer"] = diag
    summary["quadrature"] = {"kernel_abserr": kernel_err}
    sum_path = os.path.join(out_dir, f"{name}_summary.json")
    _write_summary(sum_path, summary)
    return [csv_path, sum_path]


def run_fig3(cfg: ExperimentConfig, out_dir) -> list[str]:
    """QBM coherent measure vs coupling at each temperature."""
    specs = [(f"coherent_T{tv:g}", tv, "coherent", 0.1, False)
             for tv in cfg.temperatures]
    return _run_qbm_sweep(cfg, out_dir, "fig3", specs, include_first_order=True)


def run_fig4(cfg: ExperimentConfig, out_dir) -> list[str]:
    """QBM squeezed (r1 = r2, fixed phi) and coherent measures vs coupling."""
    tv = cfg.temperatures[0]
    specs = [(f"coherent_T{tv:g}", tv, "coherent", 0.1, False)]
    specs += [(f"squeezed_phi{_phi_label(p)}", tv, "squeezed", p, True)
              for p in cfg.phis]
    return _run_qbm_sweep(cfg, out_dir, "fig4", specs, include_first_order=True)


def run_fig5(cfg: ExperimentConfig, out_dir) -> list[str]:
    """QBM squeezed measure vs coupling across temperatures (fixed phi)."""
    phi = cfg.phis[0]
    specs = [(f"squeezed_T{tv:g}", tv, "squeezed", phi, True)
             for tv in cfg.temperatures]
    return _run_qbm_sweep(cfg, out_dir, "fig5", specs, include_first_order=False)


_RUNNERS = {"fig1": run_fig1, "fig2": run_fig2, "fig3": run_fig3,
            "fig4": run_fig4, "fig5": run_fig5}


def run_experiment(cfg: ExperimentConfig, out_dir) -> list[str]:
    """Dispatch a config to its runner; returns the written paths."""
    if cfg.experiment not in _RUNNERS:
        raise ValueError(f"no runner for experiment {cfg.experiment!r}")
    return _RUNNERS[cfg.experiment](cfg, out_dir)
