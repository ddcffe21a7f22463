"""Benchmark of gaussnm's figure sweeps, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload (see ``workloads.py``) is a closed loop with one
client: it runs ``gaussnm.cli.main(["reproduce", ...])`` in-process on
seeded ``schema=1`` configs, one sweep after another, until ``--seconds``
have passed (at least two sweeps, so that the rerun can be compared byte
for byte), and checks every output.

``--trace 0`` prints the end-to-end metrics: median sweep wall time, data
cells per second, CPU time including pool workers, fresh-interpreter set-up
time, peak RSS and the failed-check fraction.  ``--trace 1`` runs rounds of
(pooled sweep, single-process sweep, traced single-process sweep) and prints
the per-layer metrics of ``layertrace.py``.  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` (counts of output
checks) and ``metrics``; the exit code is 1 if any check failed and 2 if the
checkout holds no package to run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from layertrace import LAYER_METRICS, Tracer
from workloads import DEFAULT_SEED, WORKLOADS, Workload, data_cells

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
POOL_WORKERS = 2
SETUP_REPEATS = 5
MIN_SWEEPS = 2

E2E_METRICS = {
    "sweep_s": "s",
    "values_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# the pool's <= 2 workers are the only parallelism: BLAS stays serial
SERIAL_BLAS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


def bench_env() -> dict:
    """Environment of a fresh interpreter that imports this checkout."""
    env = {**os.environ, **SERIAL_BLAS}
    env.pop("GAUSSNM_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


@dataclass
class Sweep:
    wall: float
    cpu: float
    data: bytes | None  # the CSV, or None if the run failed


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_sweep(wl: Workload, config: Path, out: Path) -> Sweep:
    """One reproduce call through the public CLI entry point."""
    import gaussnm.cli

    shutil.rmtree(out, ignore_errors=True)
    argv = ["reproduce", "--figure", str(wl.figure), "--config", str(config),
            "--out", str(out)]
    cpu0 = _cpu_seconds()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = gaussnm.cli.main(argv)
    except Exception:  # a crashing sweep fails its checks; keep measuring
        traceback.print_exc()
        rc = None
    wall = perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    data = None
    if rc == 0:
        try:
            data = (out / wl.csv_name).read_bytes()
        except OSError:
            traceback.print_exc()
    return Sweep(wall, cpu, data)


class Checks:
    """Tally of output checks; failures are reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def add(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(label)
            print(f"check failed: {label}", file=sys.stderr)

    def sweep(self, wl: Workload, seed: int, sweep: Sweep, first: bytes | None,
              label: str, tiny: bool = False) -> None:
        for name, ok in wl.check(seed, sweep.data, first, tiny).items():
            self.add(f"{label}:{name}", ok)


def write_config(wl: Workload, seed: int, workers: int, path: Path,
                 tiny: bool = False) -> Path:
    path.write_text(wl.config_text(seed, workers, tiny))
    return path


def measure_setup(wl: Workload, seed: int, work: Path) -> float:
    """Median of fresh-interpreter ``import gaussnm`` plus input generation."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import gaussnm"], env=bench_env(),
                       cwd=ROOT, check=True)
        write_config(wl, seed, POOL_WORKERS, work / "setup.cfg")
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any process it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def warm_up(wl: Workload, seed: int, work: Path, checks: Checks) -> None:
    """A tiny sweep first, so lazy imports and first-call costs are not timed."""
    cfg = write_config(wl, seed, POOL_WORKERS, work / "warmup.cfg", tiny=True)
    checks.sweep(wl, seed, run_sweep(wl, cfg, work / "warmup"), None,
                 "warmup", tiny=True)


def timed_run(wl: Workload, seed: int, seconds: float, work: Path,
              checks: Checks, tiny: bool = False) -> dict:
    """Untraced closed loop; returns the end-to-end metrics."""
    setup = measure_setup(wl, seed, work)
    cfg = write_config(wl, seed, POOL_WORKERS, work / "sweep.cfg", tiny)
    warm_up(wl, seed, work, checks)
    sweeps: list[Sweep] = []
    start = perf_counter()
    while len(sweeps) < MIN_SWEEPS or perf_counter() - start < seconds:
        s = run_sweep(wl, cfg, work / f"sweep{len(sweeps)}")
        first = sweeps[0].data if sweeps else None
        checks.sweep(wl, seed, s, first, f"sweep{len(sweeps)}", tiny)
        sweeps.append(s)
    wall = statistics.median(s.wall for s in sweeps)
    cells = next((s.data for s in sweeps if s.data is not None), None)
    return {
        "sweep_s": wall,
        "values_per_s": 0.0 if cells is None else data_cells(cells) / wall,
        "cpu_s": statistics.median(s.cpu for s in sweeps),
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_run(wl: Workload, seed: int, seconds: float, work: Path,
               checks: Checks, tracer: Tracer, tiny: bool = False) -> dict:
    """Rounds of pooled, single-process and traced single-process sweeps."""
    pooled_cfg = write_config(wl, seed, POOL_WORKERS, work / "pooled.cfg", tiny)
    single_cfg = write_config(wl, seed, 1, work / "single.cfg", tiny)
    warm_up(wl, seed, work, checks)
    pooled, single, traced = [], [], []
    first = None
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        r = len(traced)
        p = run_sweep(wl, pooled_cfg, work / f"pooled{r}")
        checks.sweep(wl, seed, p, first, f"pooled{r}", tiny)
        first = first if first is not None else p.data
        s = run_sweep(wl, single_cfg, work / f"single{r}")
        checks.sweep(wl, seed, s, first, f"single{r}", tiny)
        with tracer.installed(run=r):
            t = run_sweep(wl, single_cfg, work / f"traced{r}")
        checks.sweep(wl, seed, t, first, f"traced{r}", tiny)
        pooled.append(p)
        single.append(s)
        traced.append(t)

    rounds = []
    for r, t in enumerate(traced):
        m = tracer.metrics(r)
        m["experiments.csv_bytes"] = 0 if t.data is None else len(t.data)
        rounds.append(m)
    metrics = {k: statistics.median(m[k] for m in rounds) for k in rounds[0]}
    pooled_wall = statistics.median(s.wall for s in pooled)
    metrics["experiments.pool_efficiency"] = (
        statistics.median(s.cpu for s in pooled) / (POOL_WORKERS * pooled_wall))
    metrics["trace.overhead_frac"] = (
        statistics.median(s.wall for s in traced)
        / statistics.median(s.wall for s in single) - 1.0)

    # zero-work predictions: no coefficient tables without a QBM channel,
    # no maximization in the coefficient-table workload
    if "spectral" not in wl.layers:
        checks.add("zero_work:spectral.tables",
                   all(m["spectral.tables"] == 0 for m in rounds))
    if "measure" not in wl.layers:
        checks.add("zero_work:measure.maximize_calls",
                   all(m["measure.maximize_calls"] == 0 for m in rounds))
    return metrics


def _checkout_ok() -> bool:
    return (ROOT / "src" / "gaussnm" / "__init__.py").is_file()


def import_package() -> None:
    """Import gaussnm from this checkout's src/ with serial BLAS."""
    os.environ.update(SERIAL_BLAS)
    os.environ.pop("GAUSSNM_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    import gaussnm

    if Path(gaussnm.__file__).resolve().parent != ROOT / "src" / "gaussnm":
        raise ImportError(f"gaussnm imported from {gaussnm.__file__}, "
                          f"not from {ROOT / 'src'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not _checkout_ok():
        print(f"error: no package at {ROOT / 'src' / 'gaussnm'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    import_package()

    wl = WORKLOADS[args.workload]
    work = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checks = Checks()
    try:
        if args.trace:
            tracer = Tracer()
            values = traced_run(wl, args.seed, args.seconds, work, checks,
                                tracer)
            tracer.write(OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl.gz")
            units = {k: u for k, (u, _) in LAYER_METRICS.items()}
        else:
            values = timed_run(wl, args.seed, args.seconds, work, checks)
            units = E2E_METRICS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    fail_frac = len(checks.failed) / checks.attempted
    for name, unit in units.items():
        print(f"{wl.name} {name} {values[name]:.6g} {unit}")
    print(f"{wl.name} fail_frac {fail_frac:.6g} ratio "
          f"({len(checks.failed)} of {checks.attempted} checks)")
    result = {
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not checks.failed else 1


if __name__ == "__main__":
    sys.exit(main())
