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
import pickle
import signal
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields, replace

import numpy as np

from .channels import DampingChannel, DampingRateSpec, QbmChannel
from .measure import (
    ParamBounds,
    closed_form_coherent_damping,
    first_order_coherent,
    first_order_squeezed_max,
    maximize_measure,
)
from .spectral import ChannelCoefficients, EnvironmentSpec, _write_csv, build_coefficients

__all__ = [
    "ExperimentConfig",
    "parse_config",
    "format_config",
    "fig_defaults",
    "run_experiment",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_fig5",
]

_EXPERIMENTS = ("fig1", "fig2", "fig3", "fig4", "fig5")
# config-file key of each ExperimentConfig field whose name differs
_ALIASES = {"temperatures": "T", "temperature_unit": "T_unit", "phis": "phi"}
# list fields a sweep cannot run without (it reads their first entry, or it
# would write no data column), each with True if it reads only that entry
_LISTS = {"fig2": {"omega0": False, "temperatures": False},
          "fig3": {"omega0": True, "temperatures": False},
          "fig4": {"omega0": True, "temperatures": True, "phis": False},
          "fig5": {"omega0": True, "temperatures": False, "phis": True}}
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; see ``format_config`` for the file form."""

    experiment: str
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
        if self.rate not in ("decaying_sine", "constant"):  # no table samples
            raise ValueError("rate must be 'decaying_sine' or 'constant', "
                             f"got {self.rate!r}")
        for name in ("omega0", "temperatures", "phis"):
            object.__setattr__(self, name,
                               tuple(float(v) for v in getattr(self, name)))
        if not (0.0 < self.alpha_min <= self.alpha_max <= 0.5):
            raise ValueError("alpha range must sit within (0, 0.5]")
        if self.alpha_points < 1:
            raise ValueError("alpha_points must be >= 1")
        for name in ("n_steps", "traj_points"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be >= 2, got {getattr(self, name)}")
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise ValueError(f"t_end must be finite and > 0, got {self.t_end}")
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = all cores)")
        for p in self.phis:
            if not (0.0 < p <= math.pi):
                raise ValueError("phi values must lie in (0, pi]")
        for name, first_only in _LISTS.get(self.experiment, {}).items():
            n, key = len(getattr(self, name)), _ALIASES.get(name, name)
            if n == 0:
                raise ValueError(f"{self.experiment} needs at least one {key!r} value")
            if first_only and n > 1:
                raise ValueError(f"{self.experiment} takes one {key!r} value, got {n}")
        self.bounds()  # a bad search box fails here, not in a worker

    @property
    def alphas(self) -> np.ndarray:
        return np.linspace(self.alpha_min, self.alpha_max, self.alpha_points)

    def kelvin(self, value: float, omega0: float) -> float:
        """Temperature value converted to k_B T at system frequency omega0."""
        unit = omega0 if self.temperature_unit == "omega0" else self.omega_c
        return float(value) * unit

    def bounds(self) -> ParamBounds:
        return ParamBounds(beta_max=self.beta_max, r_max=self.r_max,
                           n_max=self.n_max)


# config-file key -> ExperimentConfig field, in field order
_FIELDS = {_ALIASES.get(f.name, f.name): f for f in fields(ExperimentConfig)}
_KINDS = {int: "an integer", float: "a number", tuple: "comma-separated numbers"}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key=value config format (schema=1 header required):
    the named figure's ``fig_defaults`` with the file's values."""
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
        if key not in _FIELDS:
            raise ValueError(f"unknown config key {key!r}")
        f = _FIELDS[key]
        if f.name in kwargs:
            raise ValueError(f"repeated config key {key!r}")
        kind = str if f.default is MISSING else type(f.default)
        try:
            if kind is tuple:
                kwargs[f.name] = (tuple(float(v) for v in raw.split(","))
                                  if raw else ())
            else:
                kwargs[f.name] = kind(raw)
        except ValueError:
            raise ValueError(f"{key} must be {_KINDS[kind]}, got {raw!r}") from None
    experiment = kwargs.get("experiment")
    if experiment not in _EXPERIMENTS:
        raise ValueError(f"experiment must be one of {', '.join(_EXPERIMENTS)}, "
                         f"got {experiment!r}")
    defaults = fig_defaults(int(experiment[3:]))
    for key in ("channel", "family"):  # fixed per figure: a runner reads neither
        want = getattr(defaults, key)
        if kwargs.setdefault(key, want) != want:
            raise ValueError(f"{experiment} runs {key} {want!r}, got {kwargs[key]!r}")
    return replace(defaults, **kwargs)


def format_config(cfg: ExperimentConfig) -> str:
    """Serialize a config in the flat key=value format."""
    def fmt(v):
        if isinstance(v, tuple):
            return ",".join(fmt(x) for x in v)
        return f"{v:.12g}" if isinstance(v, float) else str(v)

    lines = [f"schema={SCHEMA_VERSION}"]
    lines += [f"{key}={fmt(getattr(cfg, f.name))}" for key, f in _FIELDS.items()]
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


def _resolve_workers(cfg: ExperimentConfig) -> int:
    workers = cfg.workers if cfg.workers > 0 else (os.cpu_count() or 1)
    cap = os.environ.get("GAUSSNM_THREADS")
    if cap:
        try:
            cap = int(cap)
        except ValueError:
            raise ValueError(
                f"GAUSSNM_THREADS must be an integer, got {cap!r}") from None
        workers = min(workers, max(1, cap))
    return max(1, workers)


def _pool_tasks(tasks, workers: int):
    """Run (fn, args) tasks in a process pool, preserving order."""
    if workers <= 1 or len(tasks) <= 1:
        return [fn(*args) for fn, args in tasks]
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        futures = [pool.submit(fn, *args) for fn, args in tasks]
        return [f.result() for f in futures]


def _child(tasks, fd: int):
    """Run ``tasks`` and write ``pickle.dumps((ok, results or exception))``
    to ``fd``; never returns (exit status 1 if nothing was written)."""
    status = 1
    try:
        try:
            reply = True, [fn(*args) for fn, args in tasks]
        except Exception as exc:
            reply = False, exc
        try:
            data = pickle.dumps(reply)
        except Exception as exc:  # an unpicklable result or exception
            data = pickle.dumps((False, RuntimeError(repr(exc))))
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


def _run_tasks(tasks, workers: int):
    """Run (fn, args) tasks and return their results in task order.

    With W = min(workers, len(tasks)) > 1 on Linux, this process forks
    W - 1 children once: child w runs ``tasks[w::W]`` on its inherited copy
    of the inputs and pipes back its pickled results, while this process
    runs ``tasks[0::W]``.  Every child is reaped, and killed first if this
    process's share raised; a child's exception is re-raised here.  Where
    fork is not the platform's usual way to start a worker (macOS and
    Windows), the tasks run in this process.
    """
    width = min(workers, len(tasks))
    if width <= 1 or sys.platform != "linux":
        return [fn(*args) for fn, args in tasks]
    results, children, done = [None] * len(tasks), [], False
    try:
        for w in range(1, width):
            read, write = os.pipe()
            pipe = os.fdopen(read, "rb")
            try:
                pid = os.fork()
            except OSError:
                pipe.close()
                os.close(write)
                raise
            if pid == 0:
                _child(tasks[w::width], write)
            os.close(write)
            children.append((pid, pipe))
        results[0::width] = [fn(*args) for fn, args in tasks[0::width]]
        replies = [pipe.read() for _, pipe in children]
        done = True
    finally:
        for pid, pipe in children:
            pipe.close()
            if not done:
                os.kill(pid, signal.SIGKILL)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for pid, _ in children]
    for w, (reply, code) in enumerate(zip(replies, codes), 1):
        if code != 0 or not reply:
            raise RuntimeError(f"worker {w} exited with status {code} "
                               "without a result")
        ok, value = pickle.loads(reply)
        if not ok:
            raise value
        results[w::width] = value
    return results


def _write_outputs(cfg: ExperimentConfig, out_dir, name: str, header: list[str],
                   cols, tables, **sections) -> list[str]:
    """Write ``<name>.csv`` and its JSON run summary; returns both paths.

    The summary's ``kernel_abserr`` is the worst over the sweep's
    coefficient tables, 0 without tables.
    """
    csv_path = os.path.join(out_dir, f"{name}.csv")
    _write_csv(csv_path, header, cols)
    abserr = max([0.0, *(t.kernel_abserr for t in tables)])
    summary = {"schema": SCHEMA_VERSION, "experiment": cfg.experiment,
               "config": asdict(cfg), "outputs": [os.path.basename(csv_path)],
               "quadrature": {"kernel_abserr": abserr}, **sections}
    sum_path = os.path.join(out_dir, f"{name}_summary.json")
    with open(sum_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [csv_path, sum_path]


def _phi_label(p: float) -> str:
    return f"{p:g}".replace("-", "m")


def _merge_diag(acc: dict, diag: dict) -> None:
    """Add one ``maximize_measure`` diagnostics dict to the sweep totals."""
    for key in ("iterations", "grid_evaluations"):
        acc[key] = acc.get(key, 0) + diag.get(key, 0)
    acc["stagnation_count"] = (acc.get("stagnation_count", 0)
                               + int(diag.get("stagnation", False)))


def _regroup(points: list, n_curves: int):
    """Split ordered ``(value, first_order, diagnostics)`` points into
    per-curve value and first-order arrays; sum the diagnostics."""
    diag: dict = {}
    for _, _, d in points:
        _merge_diag(diag, d)
    size = len(points) // max(n_curves, 1)
    curves = [points[i * size:(i + 1) * size] for i in range(n_curves)]
    exact = [np.array([value for value, _, _ in c]) for c in curves]
    first = [np.array([f for _, f, _ in c]) for c in curves]
    return exact, first, diag


def _table(cfg: ExperimentConfig, omega0: float,
           t_value: float) -> ChannelCoefficients:
    env = EnvironmentSpec(omega0=omega0, omega_c=cfg.omega_c,
                          temperature=cfg.kelvin(t_value, omega0))
    return build_coefficients(env, alpha=1.0, t_end=cfg.t_end,
                              n_steps=cfg.n_steps)


def _tables(cfg: ExperimentConfig, keys, workers: int) -> dict:
    """One alpha = 1 table per distinct (omega0, T) key.

    The coupling only rescales x and y, so one table serves every curve
    and coupling at its key.
    """
    keys = list(dict.fromkeys(keys))
    return dict(zip(keys, _pool_tasks([(_table, (cfg, *key)) for key in keys],
                                      workers)))


def _point(cfg: ExperimentConfig, channel, family: str, phi: float,
           equal_squeezing: bool, want_first_order: bool):
    """``(value, first_order, diagnostics)`` of one family at one coupling."""
    times = np.linspace(0.0, cfg.t_end, cfg.traj_points + 1)
    res = maximize_measure(family, channel, bounds=cfg.bounds(), phi=phi,
                           equal_squeezing=equal_squeezing, times=times)
    first = None
    if want_first_order:
        if family == "coherent":
            first = first_order_coherent(channel)
        else:
            first = first_order_squeezed_max(channel, phi, r_max=cfg.r_max)[0]
    return res.value, first, res.diagnostics


# --- damping channel sweep (fig 1) -----------------------------------------

def run_fig1(cfg: ExperimentConfig, out_dir) -> list[str]:
    """Damping-channel measure vs coupling: coherent and squeezed families."""
    os.makedirs(out_dir, exist_ok=True)
    rate = DampingRateSpec(kind=cfg.rate, gamma0=cfg.gamma0)
    alphas = cfg.alphas
    channels = [DampingChannel(alpha=alpha, rate=rate, t_max=cfg.t_end)
                for alpha in alphas]
    coh_exact = [closed_form_coherent_damping(alpha, rate, t_max=cfg.t_end).value
                 for alpha in alphas]
    coh_first = [first_order_coherent(channel) for channel in channels]
    tasks = [(_point, (cfg, channel, "squeezed", p, False, True))
             for p in cfg.phis for channel in channels]
    exact, first, diag = _regroup(_run_tasks(tasks, _resolve_workers(cfg)),
                                  len(cfg.phis))

    header = ["alpha", "coherent_exact", "coherent_first_order"]
    cols = [alphas, np.array(coh_exact), np.array(coh_first)]
    for p, col in zip(cfg.phis, exact):
        header.append(f"squeezed_exact_phi{_phi_label(p)}")
        cols.append(col)
    for p, col in zip(cfg.phis, first):
        header.append(f"squeezed_first_order_phi{_phi_label(p)}")
        cols.append(col)
    return _write_outputs(cfg, out_dir, "fig1", header, cols, (), optimizer=diag)


# --- coefficient curves (fig 2) --------------------------------------------

def run_fig2(cfg: ExperimentConfig, out_dir) -> list[str]:
    """Diffusion coefficient vs time for each (omega0, T) combination."""
    os.makedirs(out_dir, exist_ok=True)
    keys = [(w0, tv) for w0 in cfg.omega0 for tv in cfg.temperatures]
    tables = _tables(cfg, keys, _resolve_workers(cfg))
    header = ["t"] + [f"delta_omega0_{w0:g}_T{tv:g}" for w0, tv in keys]
    cols = [tables[keys[0]].times] + [tables[key].delta for key in keys]
    return _write_outputs(cfg, out_dir, "fig2", header, cols, tables.values())


# --- QBM measure sweeps (figs 3-5) ------------------------------------------

def _run_qbm_sweep(cfg: ExperimentConfig, out_dir, name: str, specs,
                   include_first_order: bool) -> list[str]:
    """Shared driver for figs 3-5; specs are (label, T, family, phi, equal_r)."""
    os.makedirs(out_dir, exist_ok=True)
    workers = _resolve_workers(cfg)
    w0 = cfg.omega0[0]
    tables = _tables(cfg, [(w0, tv) for _, tv, *_ in specs], workers)
    if include_first_order:  # Delta's roots, found once here, before any fork
        for table in tables.values():
            table.delta_negativity_intervals()
    # one channel, and so one propagator, per (T, alpha) serves all its curves
    qbm = {(tv, alpha): QbmChannel(table.rescaled(alpha))
           for (_, tv), table in tables.items() for alpha in cfg.alphas}
    tasks = [(_point, (cfg, qbm[tv, alpha], family, phi, eq, include_first_order))
             for (_, tv, family, phi, eq) in specs for alpha in cfg.alphas]
    exact, first, diag = _regroup(_run_tasks(tasks, workers), len(specs))
    header = ["alpha"]
    cols = [cfg.alphas]
    for (label, *_), ex, fo in zip(specs, exact, first):
        header.append(f"{label}_exact")
        cols.append(ex)
        if include_first_order:
            header.append(f"{label}_first_order")
            cols.append(fo)
    return _write_outputs(cfg, out_dir, name, header, cols, tables.values(),
                          optimizer=diag)


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
    return _RUNNERS[cfg.experiment](cfg, out_dir)
