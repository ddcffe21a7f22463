"""Self-test of the benchmark: every workload at tiny sizes, in seconds.

    python3 perfbench/selftest.py

Runs the same timed loop, traced rounds and output checks as ``run.py``, on
configs with tiny grids, and asserts that:

- every output check passes and every metric is reported;
- each layer wrapper fired wherever its layer runs, and no other did;
- no layer's self time exceeds the wall time of the traced sweep;
- the metric and workload names match ``BENCHMARK.json``.

Exits 1 and lists the failures if any assertion does not hold.
"""

import json
import shutil
import sys
from time import perf_counter

from layertrace import LAYER_METRICS, Tracer
from run import (E2E_METRICS, OUT_DIR, ROOT, Checks, import_package,
                 timed_run, traced_run)
from workloads import DEFAULT_SEED, WORKLOADS


def _names(entries) -> set:
    return {e["name"] for e in entries}


def main() -> int:
    import_package()
    failures = []

    def expect(ok, message):
        if not ok:
            failures.append(message)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(_names(bench["workloads"]) == set(WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.py")
    expect(_names(bench["end_to_end"]) == set(E2E_METRICS),
           "BENCHMARK.json end_to_end metrics differ from run.py")
    expect(_names(bench["per_layer"]) == set(LAYER_METRICS),
           "BENCHMARK.json per_layer metrics differ from layertrace.py")

    work = OUT_DIR / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for wl in WORKLOADS.values():
            t0 = perf_counter()
            checks = Checks()
            e2e = timed_run(wl, DEFAULT_SEED, 0.0, work, checks, tiny=True)
            tracer = Tracer()
            layer = traced_run(wl, DEFAULT_SEED, 0.0, work, checks, tracer,
                               tiny=True)
            expect(not checks.failed, f"{wl.name}: failed {checks.failed}")
            expect(set(e2e) == set(E2E_METRICS) and min(e2e.values()) > 0.0,
                   f"{wl.name}: end-to-end metrics {e2e}")
            expect(set(layer) == set(LAYER_METRICS),
                   f"{wl.name}: per-layer metrics {sorted(layer)}")
            fired = tracer.span_names(0)
            expect(fired == wl.spans,
                   f"{wl.name}: spans fired {sorted(fired)}, "
                   f"expected {sorted(wl.spans)}")
            qbm_maps = {"spectral", "channels"} <= wl.layers
            expect((layer["channels.propagator_builds"] > 0) == qbm_maps,
                   f"{wl.name}: propagator builds "
                   f"{layer['channels.propagator_builds']}")
            wall = max(s.duration for s in tracer.spans if s.name == "cli.main")
            for name, t in tracer.layer_self_times(0).items():
                expect(0.0 <= t <= wall,
                       f"{wl.name}: {name} self time {t:.4g} s outside "
                       f"[0, {wall:.4g}] s")
            print(f"{wl.name}: {checks.attempted} checks, "
                  f"spans {sorted(fired)}, {perf_counter() - t0:.1f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in failures:
        print(f"FAIL {message}", file=sys.stderr)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
