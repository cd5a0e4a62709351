"""epifield benchmark.

    python3 bench/run.py --workload {nm33-fit,path3-accept,nm33-pipeline} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout; it measures the package in the
checkout's `src/`, never an installed copy.  See bench/README.md.
"""

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def main():
    start = time.perf_counter()
    # One BLAS thread before numpy loads: the load is one single-threaded caller.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if not (SRC / "epifield" / "__init__.py").is_file():
        print(f"error: no epifield sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import epifield

    if SRC not in Path(epifield.__file__).resolve().parents:
        print(f"error: imported epifield from {epifield.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from epibench.runner import run

    return run(sys.argv[1:], time.perf_counter() - start, ROOT)


if __name__ == "__main__":
    sys.exit(main())
