"""Entry point of the pacf benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It pins BLAS and pacf to one thread
before numpy is imported, imports pacf from the checkout's ``src/``, runs one
workload in this process and prints the result as the last line of stdout.
It exits with code 2, printing no result, when the sources are missing.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "PACF_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def prepare() -> bool:
    """Pin every thread pool to one thread and put the checkout's pacf first on sys.path.

    Returns False when the checkout holds no pacf sources.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC_DIR / "pacf" / "__init__.py").is_file():
        return False
    for path in (str(BENCH_DIR), str(SRC_DIR)):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)
    return True


def main() -> int:
    if not prepare():
        print(f"perfbench: no pacf sources under {SRC_DIR}", file=sys.stderr)
        return 2
    import bench

    return bench.main(sys.argv[1:], THREAD_VARS)


if __name__ == "__main__":
    raise SystemExit(main())
