"""Benchmark entry point: times `riskpath path` on one workload.

Run from the repository root:

    python3 perfbench/run.py --workload path-small --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. Full results, with the machine record, go
to perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def prepare_process() -> bool:
    """Pin BLAS threads to 1 and put the checkout's src/ on sys.path.

    Must run before numpy is first imported. False when there is no riskpath
    source tree to benchmark.
    """
    if not (ROOT / "src" / "riskpath" / "__init__.py").is_file():
        return False
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("RISKPATH_OUT", None)  # it would override --out
    sys.path.insert(0, str(ROOT / "src"))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="picks the scenario sets the workload runs on")
    parser.add_argument("--seconds", type=int, required=True,
                        help="time budget of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not prepare_process():
        print(f"error: no riskpath source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    import bench

    return bench.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
