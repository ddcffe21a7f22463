"""Record the reference CSVs of every workload at the reference seeds.

    python3 perfbench/capture_reference.py

Run from the root of a source checkout, only when a change of the program's
outputs is intended; the benchmark compares later outputs against these
files within ``workloads.REFERENCE_ATOL`` / ``REFERENCE_RTOL``.
"""

import shutil
import sys

from run import OUT_DIR, POOL_WORKERS, import_package, run_sweep, write_config
from workloads import REFERENCE_DIR, REFERENCE_SEEDS, WORKLOADS


def main() -> int:
    import_package()
    work = OUT_DIR / "capture"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        for wl in WORKLOADS.values():
            for seed in REFERENCE_SEEDS:
                cfg = write_config(wl, seed, POOL_WORKERS, work / "ref.cfg")
                sweep = run_sweep(wl, cfg, work / "out")
                if sweep.data is None:
                    print(f"{wl.name} seed {seed}: sweep failed", file=sys.stderr)
                    return 1
                wl.reference_path(seed).write_bytes(sweep.data)
                print(f"wrote {wl.reference_path(seed)} ({sweep.wall:.2f} s)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
