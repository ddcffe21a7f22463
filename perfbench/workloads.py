"""Seeded, figure-shaped workloads of the gaussnm benchmark and their checks.

Each workload is one ``gaussnm reproduce --figure N --config FILE`` sweep.
Grid sizes and column counts are fixed per workload; the seed draws only
physical parameters (temperatures, relative squeezing angles, the coupling
range) from narrow fixed ranges, so the amount of work changes little
between seeds.  The program receives nothing but the ``schema=1`` config
files written here.

This module imports no numpy or gaussnm at load time: ``run.py`` pins the
thread environment before either is imported.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 1
HELD_OUT_SEED = 7
REFERENCE_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Reference cells must satisfy |value - ref| <= ATOL + RTOL * |ref|.  This
# admits relative changes of order 1e-11 (closed-form kernels, batched
# extremum refinement) while catching any change to the physics.
REFERENCE_ATOL = 1e-10
REFERENCE_RTOL = 1e-9

# The T = 0 diffusion column is Simpson-integrated on the table grid; the
# independent adaptive quadrature agrees to ~1e-6 at n_steps = 600.
T0_ATOL = 1e-5
T0_SAMPLE_TIMES = (2.0, 7.5, 13.0, 21.5, 29.0)

# Every key the program reads, written explicitly so that a change of the
# program's defaults cannot change the workload.
_BASE = {
    "experiment": "custom", "channel": "damping", "family": "coherent",
    "alpha_min": 0.005, "alpha_max": 0.15, "alpha_points": 21,
    "omega0": [1.0], "omega_c": 0.2, "T": [0.2], "T_unit": "omega0",
    "phi": [0.1], "rate": "decaying_sine", "gamma0": 0.5,
    "t_end": 40.0, "n_steps": 2000, "traj_points": 2000,
    "r_max": 5.0, "beta_max": 6.0, "n_max": 5.0, "workers": 2,
}


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _alpha_range(rng: random.Random) -> dict:
    return {"alpha_min": _uniform(rng, 0.008, 0.012),
            "alpha_max": _uniform(rng, 0.14, 0.16)}


def _draw_tables(rng: random.Random) -> dict:
    # T / omega_c: the T = 0 column takes the closed-form path, the others
    # the per-point quadrature whose cost grows with T
    return {"T": [0.0, _uniform(rng, 0.19, 0.21), _uniform(rng, 0.95, 1.05),
                  _uniform(rng, 3.9, 4.1)]}


def _draw_damping(rng: random.Random) -> dict:
    return {"phi": [_uniform(rng, 0.12, 0.18)], **_alpha_range(rng)}


def _draw_qbm(rng: random.Random) -> dict:
    return {"T": [_uniform(rng, 0.19, 0.21)],
            "phi": [_uniform(rng, 0.045, 0.055), _uniform(rng, 0.09, 0.11)],
            **_alpha_range(rng)}


@dataclass(frozen=True)
class Workload:
    """One figure-shaped sweep: fixed shape, seeded physical parameters."""

    name: str
    figure: int
    why: str
    fixed: dict
    draw: Callable[[random.Random], dict]
    tiny: dict = field(default_factory=dict)  # self-test sizes
    spans: frozenset = frozenset()  # layertrace spans a sweep must record

    @property
    def layers(self) -> set[str]:
        return {name.split(".")[0] for name in self.spans}

    @property
    def csv_name(self) -> str:
        return f"fig{self.figure}.csv"

    def params(self, seed: int) -> dict:
        """Full config mapping for a seed (pool of 2 workers)."""
        cfg = dict(_BASE)
        cfg.update(self.fixed)
        cfg.update(self.draw(random.Random(f"{self.name}:{seed}")))
        return cfg

    def config_text(self, seed: int, workers: int, tiny: bool = False) -> str:
        cfg = self.params(seed)
        if tiny:
            cfg.update(self.tiny)
        cfg["workers"] = workers
        lines = ["schema=1"]
        for key, value in cfg.items():
            if isinstance(value, list):
                value = ",".join(f"{v:.12g}" for v in value)
            elif isinstance(value, float):
                value = f"{value:.12g}"
            lines.append(f"{key}={value}")
        return "\n".join(lines) + "\n"

    def reference_path(self, seed: int) -> Path:
        return REFERENCE_DIR / f"{self.name}-seed{seed}.csv"

    def check_names(self, seed: int, first: bool, tiny: bool) -> list[str]:
        """Checks applied to one sweep's CSV (all fail if the sweep fails).

        The T = 0 quadrature and reference checks need the full grid sizes.
        """
        names = ["finite"]
        if self.figure == 2 and not tiny:
            names.append("t0_quadrature")
        if self.figure != 2:
            names += ["measure_range", "squeezed_ge_coherent"]
        if not first:
            names.append("identical_rerun")
        if seed in REFERENCE_SEEDS and not tiny:
            names.append("reference")
        return names

    def check(self, seed: int, data: bytes | None, first_data: bytes | None,
              tiny: bool = False) -> dict[str, bool]:
        """Run every applicable check on one sweep's CSV bytes."""
        names = self.check_names(seed, first_data is None, tiny)
        if data is None:
            return {name: False for name in names}
        try:
            header, rows = parse_csv(data)
        except ValueError:
            return {name: False for name in names}
        out = {}
        for name in names:
            try:
                out[name] = bool(_CHECKS[name](self, seed, header, rows,
                                               data, first_data))
            except (ValueError, KeyError, IndexError, OSError):
                out[name] = False
        return out


def parse_csv(data: bytes) -> tuple[list[str], list[list[float]]]:
    """Header and float rows of a program CSV; raises ValueError if ragged."""
    reader = csv.reader(io.StringIO(data.decode("ascii")))
    header = next(reader, [])
    rows = [[float(v) for v in row] for row in reader]
    if not rows or any(len(r) != len(header) for r in rows):
        raise ValueError("ragged or empty CSV")
    return header, rows


def data_cells(data: bytes) -> int:
    """Cells produced by a sweep: every column except the axis."""
    header, rows = parse_csv(data)
    return len(rows) * (len(header) - 1)


def _column(header, rows, name) -> list[float]:
    j = header.index(name)
    return [r[j] for r in rows]


def _exact_columns(header) -> list[str]:
    return [h for h in header if "exact" in h]


def _check_finite(wl, seed, header, rows, data, first):
    return all(math.isfinite(v) for r in rows for v in r)


def _check_range(wl, seed, header, rows, data, first):
    cols = _exact_columns(header)
    return bool(cols) and all(0.0 <= v <= 1.0 for c in cols
                              for v in _column(header, rows, c))


def _check_ordering(wl, seed, header, rows, data, first):
    # criterion-05 ordering: every squeezed column dominates the coherent one
    exact = _exact_columns(header)
    coherent = [h for h in exact if h.startswith("coherent")]
    squeezed = [h for h in exact if h.startswith("squeezed")]
    if len(coherent) != 1 or not squeezed:
        return False
    base = _column(header, rows, coherent[0])
    return all(s >= c for name in squeezed
               for s, c in zip(_column(header, rows, name), base))


def _check_identical(wl, seed, header, rows, data, first):
    return data == first


def _check_t0(wl, seed, header, rows, data, first):
    from gaussnm.spectral import EnvironmentSpec, delta_zero_temperature

    fixed = wl.params(seed)
    col = [h for h in header if h.endswith("_T0")][0]
    ts, delta = _column(header, rows, "t"), _column(header, rows, col)
    env = EnvironmentSpec(omega0=fixed["omega0"][0], omega_c=fixed["omega_c"],
                          temperature=0.0)
    for t in T0_SAMPLE_TIMES:
        i = min(range(len(ts)), key=lambda k: abs(ts[k] - t))
        if abs(delta[i] - delta_zero_temperature(ts[i], env)) > T0_ATOL:
            return False
    return True


def _check_reference(wl, seed, header, rows, data, first):
    ref_header, ref_rows = parse_csv(wl.reference_path(seed).read_bytes())
    if header != ref_header or len(rows) != len(ref_rows):
        return False
    return all(abs(v - r) <= REFERENCE_ATOL + REFERENCE_RTOL * abs(r)
               for row, ref in zip(rows, ref_rows) for v, r in zip(row, ref))


_CHECKS = {
    "finite": _check_finite,
    "measure_range": _check_range,
    "squeezed_ge_coherent": _check_ordering,
    "identical_rerun": _check_identical,
    "t0_quadrature": _check_t0,
    "reference": _check_reference,
}


WORKLOADS = {
    wl.name: wl for wl in (
        Workload(
            name="tables", figure=2,
            why=("fig2-shaped Delta(t) tables: spectral does all the work "
                 "(closed-form T = 0 column, per-point quadrature at T > 0) "
                 "and the unequal columns expose pool imbalance"),
            fixed={"experiment": "fig2", "channel": "qbm", "omega0": [4.0],
                   "omega_c": 1.0, "T_unit": "omega_c", "t_end": 30.0,
                   "n_steps": 600},
            draw=_draw_tables,
            tiny={"n_steps": 10},
            spans=frozenset({"cli.main", "experiments.run_experiment",
                             "spectral.build_coefficients"}),
        ),
        Workload(
            name="damping_sweep", figure=1,
            why=("fig1-shaped damping sweep: measure, states and the analytic "
                 "channel maps do all the work and spectral none; main "
                 "workload for optimizer and extremum changes"),
            fixed={"experiment": "fig1", "channel": "damping",
                   "family": "squeezed", "alpha_points": 8, "t_end": 25.0, "traj_points": 2000},
            draw=_draw_damping,
            tiny={"alpha_points": 1, "traj_points": 100},
            spans=frozenset({"cli.main", "experiments.run_experiment",
                             "measure.maximize_measure", "measure.first_order",
                             "measure.closed_form", "channels.maps",
                             "states.fidelity_arrays"}),
        ),
        Workload(
            name="qbm_sweep", figure=4,
            why=("fig4-shaped QBM sweep: three coefficient tables and 15 "
                 "spline-backed maximizations, so spectral and measure "
                 "gains show together and trade-offs between them show"),
            fixed={"experiment": "fig4", "channel": "qbm", "family": "squeezed",
                   "alpha_points": 5, "omega0": [1.0], "omega_c": 0.2,
                   "T_unit": "omega0", "t_end": 40.0, "n_steps": 1000,
                   "traj_points": 2000},
            draw=_draw_qbm,
            tiny={"alpha_points": 1, "n_steps": 40, "traj_points": 100},
            spans=frozenset({"cli.main", "experiments.run_experiment",
                             "spectral.build_coefficients",
                             "measure.maximize_measure", "measure.first_order",
                             "channels.maps", "states.fidelity_arrays"}),
        ),
    )
}
