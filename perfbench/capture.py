"""Capture the per-gamma reference values the correctness gate compares against.

    python3 perfbench/capture.py --pool 256 path-small

Runs `riskpath path` for scenario seeds 0 .. pool-1 of each named workload and
writes perfbench/references/<workload>.json: gamma, j, j_gamma and iterations
per gamma point, and the path's state-solve count, which orders the strata the
benchmark draws from. Capture at the commit whose results are the reference
(the references in the tree come from the initial riskpath code); every
captured path must pass the gate's own checks.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import run


def capture(name: str, pool: int) -> dict:
    import bench
    from tracer import Tracer

    workload = bench.load_workload(name)
    tol = float(bench.config.resolve(workload["config"])["solver"]["tol_stationarity"])
    workdir = bench.OUT / "capture" / name
    by_seed = {}
    try:
        paths = bench.write_configs(workload, range(pool), workdir / "configs")
        for seed, path in zip(range(pool), paths):
            with Tracer() as tracer:
                _, code, error = bench.run_path(path, workdir / "path_out")
            raw, _, failures = bench.gate(workdir / "path_out", code, error, None, tol, None)
            if failures:
                raise SystemExit(f"{name} scenario seed {seed}: {failures}")
            rows = bench.read_path_csv(raw.decode())
            by_seed[str(seed)] = {
                "gamma": [bench.number(r["gamma"]) for r in rows],
                "j": [bench.number(r["j"]) for r in rows],
                "j_gamma": [bench.number(r["j_gamma"]) for r in rows],
                "iterations": [int(r["iterations"]) for r in rows],
                "solves": tracer.totals()["grid.solve_state"]["calls"],
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"config": workload["config"], "by_seed": by_seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--pool", type=int, required=True, help="number of scenario seeds")
    args = parser.parse_args(argv)
    if not run.prepare_process():
        print("error: no riskpath source tree to capture from", file=sys.stderr)
        return 2
    import bench

    for name in args.workloads:
        start = time.perf_counter()
        refs = capture(name, args.pool)
        (bench.REFERENCES / f"{name}.json").write_text(json.dumps(refs, separators=(",", ":")) + "\n")
        print(f"{name}: {args.pool} scenario seeds in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
