"""Set-up time probe: one fresh interpreter through imports, the first
cluster and its namespace, up to a workload's first measured op.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED T0`` where ``T0``
is the caller's ``time.monotonic()`` just before it started this process
(CLOCK_MONOTONIC is system-wide).  Prints the elapsed seconds.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench_workloads  # noqa: E402


def main() -> None:
    workload, seed, t0 = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    bench_workloads.prepare(workload, seed)
    print(repr(time.monotonic() - t0))


if __name__ == "__main__":
    main()
