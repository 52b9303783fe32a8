"""Closed-loop benchmark of `riskpath path`: one process, one path at a time.

A workload is a config override plus a number M of scenario sets. The run seed
picks M scenario seeds from the pool that has reference values, so the same
seed gives the same inputs and another seed gives another draw of the same
problem. A pass runs ``riskpath.cli.main(["path", ...])`` once per scenario
set; passes repeat until the time budget is spent, and every call goes through
the correctness gate. The times of untraced passes are scaled to a reference
host speed by hostspeed.SpeedProbe. See README.md in this directory.
"""

from __future__ import annotations

import csv
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from riskpath import cli, config

from hostspeed import KERNEL_REFERENCE_S, SpeedProbe
from tracer import Tracer

HERE = Path(__file__).resolve().parent
WORKLOADS = HERE / "workloads"
REFERENCES = HERE / "references"
OUT = HERE / "out"

# Per-gamma j and j_gamma must match the reference values to this relative
# tolerance. The seed commit's accelerated solver (stationarity <= 1e-8) and
# plain projected gradient on the same inputs differ by up to ~4e-7 in j and
# ~1e-11 in j_gamma, so a solver that converges differently still passes.
REFERENCE_RTOL = 1e-5

# Set-ups timed after each untraced pass: at least this many, over at least
# this long, so that the host-speed probe samples each block many times.
SETUP_SAMPLES = 30
SETUP_MIN_S = 0.5


def load_workload(name: str) -> dict:
    known = sorted(p.stem for p in WORKLOADS.glob("*.json"))
    if name not in known:
        raise SystemExit(f"unknown workload {name!r}; known: {', '.join(known)}")
    return json.loads((WORKLOADS / f"{name}.json").read_text())


def load_references(name: str, workload: dict) -> dict[int, dict]:
    refs = json.loads((REFERENCES / f"{name}.json").read_text())
    if refs["config"] != workload["config"]:
        raise SystemExit(f"references/{name}.json was captured for another config; "
                         "re-capture with perfbench/capture.py")
    return {int(k): v for k, v in refs["by_seed"].items()}


def scenario_seeds(seed: int, count: int, references: dict[int, dict]) -> list[int]:
    """One scenario seed drawn from each of ``count`` strata of the reference pool.

    The pool is sorted by the state-solve count of each seed's reference path,
    a measure of its work, and cut into equal strata, so every run mixes cheap
    and costly draws in the same proportion. The work per pass then varies
    little from seed to seed, while the seed still picks which draws run.
    """
    order = sorted(references, key=lambda s: (references[s]["solves"], s))
    if count > len(order):
        raise SystemExit(f"{count} scenario sets asked for, {len(order)} have references")
    rng = random.Random(seed)
    n = len(order)
    return [rng.choice(order[j * n // count:(j + 1) * n // count]) for j in range(count)]


def config_for(workload: dict, scenario_seed: int) -> dict:
    cfg = json.loads(json.dumps(workload["config"]))
    cfg.setdefault("scenarios", {})["seed"] = scenario_seed
    return cfg


def write_configs(workload: dict, seeds, directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for s in seeds:
        path = directory / f"config_s{s}.json"
        path.write_text(json.dumps(config_for(workload, s), sort_keys=True))
        paths.append(path)
    return paths


def time_setup(config_paths) -> list[tuple[float, float]]:
    """(start, end) of what a user pays before the first iteration, cycling the configs."""
    intervals, began = [], time.perf_counter()
    while len(intervals) < SETUP_SAMPLES or time.perf_counter() - began < SETUP_MIN_S:
        for path in config_paths:
            start = time.perf_counter()
            cfg = config.load_config(path)
            config.build_problem(cfg)
            config.build_schedule(cfg)
            intervals.append((start, time.perf_counter()))
    return intervals


def run_path(config_path: Path, out_dir: Path):
    """One in-process `riskpath path` call: ((start, end), exit code, error text)."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    start = time.perf_counter()
    try:
        code = cli.main(["path", "--config", str(config_path), "--out", str(out_dir)])
    except Exception:  # a crash is a failed run, recorded with its traceback
        return (start, time.perf_counter()), None, traceback.format_exc()
    return (start, time.perf_counter()), code, None


def read_path_csv(text: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# schema="):
        raise ValueError("path CSV has no schema line")
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


def number(text: str) -> float:
    """A CSV float; the seed code writes some numpy scalars as ``np.float64(x)``."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def reference_failures(rows: list[dict], reference: dict) -> list[str]:
    """Per-gamma j and j_gamma against the reference values, within REFERENCE_RTOL."""
    gammas = [number(r["gamma"]) for r in rows]
    if len(gammas) != len(reference["gamma"]) or not all(
            _close(g, r, 1e-12) for g, r in zip(gammas, reference["gamma"])):
        return [f"gamma points {gammas} differ from the reference {reference['gamma']}"]
    return [
        f"gamma={row['gamma']}: {key}={row[key]} differs from reference {ref!r} "
        f"by more than rtol {REFERENCE_RTOL}"
        for key in ("j", "j_gamma")
        for row, ref in zip(rows, reference[key])
        if not _close(number(row[key]), ref, REFERENCE_RTOL)
    ]


def gate(out_dir: Path, code, error, reference: dict | None, tol_stationarity: float,
         first_csv: bytes | None):
    """Correctness gate for one path call; ``None`` skips the reference or byte check.

    Returns (csv bytes or None, per-gamma iterations or None, failures).
    """
    if error is not None:
        return None, None, [f"exception: {error.strip().splitlines()[-1]}"]
    failures = []
    if code != 0:
        failures.append(f"exit code {code}")
    csvs = sorted(out_dir.glob("path_*.csv"))
    slopes = sorted(out_dir.glob("slopes_*.json"))
    if len(csvs) != 1 or len(slopes) != 1:
        return None, None, failures + [
            f"expected one path CSV and one slopes file, got {len(csvs)} and {len(slopes)}"]
    raw = csvs[0].read_bytes()
    rows = read_path_csv(raw.decode())
    for row in rows:
        # numpy booleans reach the CSV as "True" rather than "true"
        converged = row["converged"] in ("true", "True")
        if not converged or not number(row["stationarity"]) <= tol_stationarity:
            failures.append(f"gamma={row['gamma']}: converged={row['converged']} "
                            f"stationarity={row['stationarity']}")
    assertions = json.loads(slopes[0].read_text()).get("assertions", {})
    failures += [f"slopes assertion {k} is false" for k, v in assertions.items() if v is False]
    if reference is not None:
        failures += reference_failures(rows, reference)
    if first_csv is not None and raw != first_csv:
        failures.append("path CSV differs from the first run of the same input")
    return raw, [int(r["iterations"]) for r in rows], failures


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_name() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def environment(seed: int, seeds) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name(),
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "seed": seed,
        "scenario_seeds": list(seeds),
        "load": "closed loop, one client: one process runs one path at a time",
    }


def tail_percentile(samples):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 20:
        return None
    ordered = sorted(samples)
    return {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}


class Run:
    """State of one benchmark run: inputs, timings and gate results."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.workload = load_workload(name)
        refs = load_references(name, self.workload)
        self.seeds = scenario_seeds(seed, self.workload["scenario_sets"], refs)
        self.references = [refs[s] for s in self.seeds]
        self.config_paths = write_configs(self.workload, self.seeds, workdir / "configs")
        resolved = config.resolve(self.workload["config"])
        self.tol_stationarity = float(resolved["solver"]["tol_stationarity"])
        self.out_dir = workdir / "path_out"
        self.first_csv: list[bytes | None] = [None] * len(self.seeds)
        self.iterations: list[list[int] | None] = [None] * len(self.seeds)
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.setup_intervals: list[tuple[float, float]] = []

    def run_pass(self) -> list[tuple[float, float]]:
        intervals = []
        for i, path in enumerate(self.config_paths):
            interval, code, error = run_path(path, self.out_dir)
            intervals.append(interval)
            raw, iters, failures = gate(self.out_dir, code, error, self.references[i],
                                        self.tol_stationarity, self.first_csv[i])
            self.attempted += 1
            if failures:
                self.failed += 1
                self.failures += [f"scenario seed {self.seeds[i]}: {f}" for f in failures]
            if self.first_csv[i] is None and raw is not None:
                self.first_csv[i], self.iterations[i] = raw, iters
        return intervals

    def passes(self, seconds: float, min_passes: int, time_setup_too: bool):
        """(start, end) of each path call of whole passes, stopping at the pass
        boundary nearest the time budget.

        Set-up samples are taken after each pass, so that they spread over the
        run like the path samples do.
        """
        intervals, start, done = [], time.perf_counter(), 0
        while True:
            pass_start = time.perf_counter()
            intervals += self.run_pass()
            if time_setup_too:
                self.setup_intervals += time_setup(self.config_paths)
            done += 1
            now = time.perf_counter()
            if done >= min_passes and now - start + (now - pass_start) / 2 >= seconds:
                return intervals


def layer_metrics(tracer: Tracer, traced_passes: int, overhead_s: float) -> dict:
    totals = tracer.totals()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for _, _, layer in tracer.targets:
        if layer in tracer.absent:
            metrics[f"{layer}.calls"] = {"value": None, "unit": "count", "absent": True}
            metrics[f"{layer}.self_s"] = {"value": None, "unit": "s", "absent": True}
            continue
        stats = totals.get(layer, {"calls": 0, "self_s": 0.0})
        put(f"{layer}.calls", stats["calls"] // traced_passes, "count")
        put(f"{layer}.self_s", stats["self_s"] / traced_passes, "s")
    cone = [stats for layer, stats in totals.items() if layer.startswith("cone.")]
    put("cone.calls", sum(c["calls"] for c in cone) // traced_passes, "count")
    put("cone.self_s", sum(c["self_s"] for c in cone) / traced_passes, "s")
    iterations = sum(tracer.gamma_iterations().values()) // traced_passes
    put("solver.iterations", iterations, "count")

    def calls(layer):
        return totals.get(layer, {"calls": 0})["calls"] / traced_passes

    evals = calls("objective.evaluate") + calls("objective.objective_only")
    put("solver.evals_per_iter", evals / iterations if iterations else None, "ratio")
    put("solver.solves_per_iter", calls("grid.solve_state") / iterations if iterations else None,
        "ratio")
    put("trace.overhead_s", overhead_s, "s")
    return metrics


def run(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workdir = OUT / "work" / f"{name}_seed{seed}_trace{int(trace)}_{os.getpid()}"
    try:
        bench = Run(name, seed, workdir)
        untraced_seconds = seconds / 2 if trace else seconds
        # The probe's kernel would land in the traced layers' self times, so
        # it samples the untraced passes only.
        with SpeedProbe() as probe:
            untraced = bench.passes(untraced_seconds, min_passes=1 if trace else 2,
                                    time_setup_too=True)
        if trace:
            tracer = Tracer()
            with tracer:
                traced = bench.passes(seconds / 2, min_passes=1, time_setup_too=False)
            traced_passes = len(traced) // len(bench.seeds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    complete = all(it is not None for it in bench.iterations)
    iterations = sum(sum(it) for it in bench.iterations) if complete else None
    path_samples = [probe.scaled(a, b) for a, b in untraced]
    path_s = statistics.median(path_samples)
    setup = [probe.scaled(a, b) for a, b in bench.setup_intervals]
    end_to_end = {
        "path_s": {"value": path_s, "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "iterations": {"value": iterations, "unit": "count"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    result = {
        "workload": name,
        "why": bench.workload["why"],
        "stresses": bench.workload["stresses"],
        "environment": environment(seed, bench.seeds),
        "seconds": seconds,
        "trace": trace,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failed_frac": bench.failed / bench.attempted,
        "failures": bench.failures,
        "end_to_end": end_to_end,
        "path_s_samples": len(path_samples),
        "path_s_all": path_samples,
        "path_s_tail": tail_percentile(path_samples),
        "path_wall_s": statistics.median(probe.own(a, b) for a, b in untraced),
        "setup_s_samples": len(setup),
        "host_speed": {
            "kernel_samples": len(probe.durations),
            "kernel_s_median": statistics.median(probe.durations),
            "kernel_s_min": min(probe.durations),
            "kernel_s_max": max(probe.durations),
            "kernel_reference_s": KERNEL_REFERENCE_S,
        },
        "iterations_per_scenario_set": dict(zip(bench.seeds, bench.iterations)),
    }
    if trace:
        traced_wall_s = statistics.median(b - a for a, b in traced)
        overhead = traced_wall_s - result["path_wall_s"]
        result["per_layer"] = layer_metrics(tracer, traced_passes, overhead)
        result["traced_path_s"] = traced_wall_s
        result["traced_passes"] = traced_passes
        result["absent_layers"] = tracer.absent
        result["phases"] = tracer.phases()
        result["gamma_iterations"] = {f"{g:.0e}": n for g, n in sorted(tracer.gamma_iterations().items())}
        result["spans"] = tracer.spans
    return result


def report(result: dict, results_path: Path) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    e2e = result["end_to_end"]
    tail = result["path_s_tail"]
    tail_text = (f"p{tail['percentile']:.1f} {tail['value']:.4f} s" if tail
                 else "fewer than 20 samples, no percentile above the median")
    lines = [
        f"workload     {result['workload']}  seed {result['environment']['seed']}  "
        f"scenario sets {len(result['environment']['scenario_seeds'])}",
        f"path_s       {e2e['path_s']['value']:.4f} s  median of {result['path_s_samples']} "
        f"untraced calls at the reference host speed; {tail_text}; "
        f"unscaled median {result['path_wall_s']:.4f} s",
        f"setup_s      {e2e['setup_s']['value']:.6f} s  median of {result['setup_s_samples']}",
        f"host speed   kernel median {result['host_speed']['kernel_s_median'] * 1e3:.2f} ms "
        f"over {result['host_speed']['kernel_samples']} samples "
        f"(reference {KERNEL_REFERENCE_S * 1e3:.2f} ms)",
        f"iterations   {e2e['iterations']['value']} count  over all gamma points of one pass",
        f"failed_frac  {result['failed_frac']:.4f}  ({result['failed']} of {result['attempted']} runs)",
        f"peak_rss_mb  {e2e['peak_rss_mb']['value']:.1f} MB",
        f"correctness  {'pass' if result['failed'] == 0 else 'FAIL'}",
    ]
    for failure in result["failures"][:20]:
        lines.append(f"  failure: {failure}")
    if result["trace"]:
        lines.append(f"traced       unscaled path_s {result['traced_path_s']:.4f} s over "
                     f"{result['traced_passes']} traced passes; per gamma iterations "
                     f"{result['gamma_iterations']}")
        for metric, entry in result["per_layer"].items():
            value = "absent" if entry.get("absent") else f"{entry['value']:.6g}"
            lines.append(f"  {metric:<40} {value} {entry['unit']}")
    lines.append(f"results      {results_path}")
    print("\n".join(lines), flush=True)
    metrics = result["per_layer"] if result["trace"] else e2e
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(workload: str, seed: int, seconds: int, trace: bool) -> int:
    result = run(workload, seed, seconds, trace)
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    results_path = results_dir / f"{workload}_seed{seed}_trace{int(trace)}.json"
    results_path.write_text(json.dumps(result, indent=1, default=str) + "\n")
    final = report(result, results_path.relative_to(HERE.parent))
    print(json.dumps(final), flush=True)
    return 0
