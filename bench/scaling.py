#!/usr/bin/env python3
"""Reference figures: `verify_scenario` time over (n, d) in {2, 4, 8, 16}^2.

Run from the repository root:

    python3 bench/scaling.py

Not a workload: it prints, for each path count n and detector dimension d,
the median wall time of three calls of `relations.verify_scenario` on one
seeded mixed-order random scenario, with BLAS pinned to one thread.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from switchlab import relations  # noqa: E402

SIZES = (2, 4, 8, 16)
REPEATS = 3


def main() -> int:
    relations.verify_scenario(relations.random_scenario(0, 2, 2), seed=0)  # warm-up
    print("n\\d " + "".join(f"{d:>10d}" for d in SIZES) + "   (ms per verify_scenario)")
    for n in SIZES:
        cells = []
        for d in SIZES:
            scenario = relations.random_scenario(1000 * n + d, n, d, mixed_order=True)
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                relations.verify_scenario(scenario, seed=1)
                times.append(time.perf_counter() - start)
            cells.append(1000.0 * statistics.median(times))
        print(f"{n:<4d}" + "".join(f"{ms:10.1f}" for ms in cells), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
