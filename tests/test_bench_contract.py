"""What the benchmark harness under perfbench/ needs from the package.

The harness traces module attributes by name, times the config set-up calls,
reads gamma as the second argument of ``solver.minimize`` and ``iterations``
from its result, and takes its result from the files of one
``cli.main(["path", ...])`` call. A rename or
a changed return there leaves the benchmark with a null metric or without a
result line, so these checks fail first.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from riskpath import cone, config, objective, path, solver
from riskpath.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    """perfbench/bench.py, read from the checkout; its own imports need perfbench/ on sys.path."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_bench", PERFBENCH / "bench.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def test_every_traced_target_resolves():
    missing = [f"{mod}.{attr}" for mod, attr, _ in _tracer().TARGETS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []


def _count_calls(monkeypatch, targets):
    """Wrap each (module, name) as the tracer does; the list gets (name, args, result) per call."""
    calls = []

    def counted(name, function):
        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            calls.append((name, args, result))
            return result
        return wrapper

    for module, name in targets:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def test_setup_calls_go_through_traced_module_attributes(monkeypatch):
    # the harness times load_config + build_problem + build_schedule as set-up, and
    # traces sampling and assembly where build_problem reaches them
    assert all(callable(getattr(config, name, None))
               for name in ("resolve", "load_config", "build_schedule"))
    calls = _count_calls(monkeypatch, ((config, "sample"), (objective, "assemble")))
    config.build_problem(config.resolve({"problem": {"n_interior": 7}}))
    assert sorted(name for name, _, _ in calls) == ["assemble", "sample"]


def test_an_evaluation_calls_each_traced_cone_function_once(monkeypatch):
    # an evaluation that formed a cone quantity inline would leave the per-layer
    # cone metrics reading fewer calls, and fail nothing else
    data = config.build_problem(config.resolve({"problem": {"n_interior": 7}}))
    names = ("constraint_eval", "penalty", "constraint_adjoints")
    calls = _count_calls(monkeypatch, [(cone, name) for name in names])
    objective.evaluate(data, 10.0, np.ones(7))
    assert sorted(name for name, _, _ in calls) == sorted(names)


def test_a_hessian_product_makes_two_traced_solves_and_one_constraint_adjoint(monkeypatch):
    # the per-layer solve and adjoint counts of a path are products times these, plus the
    # evaluations' own: a product that formed a solve or an adjoint inline would hide it
    data = config.build_problem(config.resolve({"problem": {"n_interior": 7}}))
    product = objective.hessian_operator(objective.evaluate(data, 1e3, np.full(7, 5.0)))
    calls = _count_calls(monkeypatch, ((objective, "solve_state"), (cone, "constraint_adjoints")))
    product(np.ones(7))
    assert sorted(name for name, _, _ in calls) == ["constraint_adjoints", "solve_state",
                                                     "solve_state"]


def test_minimize_takes_gamma_second_and_reports_iterations():
    assert list(inspect.signature(solver.minimize).parameters)[1] == "gamma"
    assert "iterations" in {f.name for f in dataclasses.fields(solver.SolveResult)}


@pytest.mark.parametrize("workload", ["path-small", "path-tail", "path-wide"])
def test_workload_config_builds(workload):
    # the harness resolves and builds each workload's config as its set-up; a key
    # the schema or a constructor rejects fails the benchmark with exit 1
    spec = json.loads((PERFBENCH / "workloads" / f"{workload}.json").read_text())
    cfg = config.resolve(spec["config"])
    config.build_problem(cfg)
    assert config.build_schedule(cfg).size > 0


def test_path_command_on_small_workload_writes_one_result(tmp_path):
    workload = json.loads((PERFBENCH / "workloads" / "path-small.json").read_text())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(workload["config"]))  # 15 nodes, 4 scenarios
    out = tmp_path / "out"
    assert main(["path", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(list(out.glob("path_*.csv"))) == 1
    assert len(list(out.glob("slopes_*.json"))) == 1


def test_path_command_checks_the_final_bundle_once(monkeypatch, tmp_path):
    # the feasible reference is one traced call, after the path's last solve and
    # handed that solve's bundle
    workload = json.loads((PERFBENCH / "workloads" / "path-small.json").read_text())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(workload["config"]))
    calls = _count_calls(monkeypatch, ((solver, "minimize"), (path, "shrink_to_feasible")))
    assert main(["path", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert [name for name, _, _ in calls] == ["minimize"] * 4 + ["shrink_to_feasible"]
    (_, _, last), (_, args, _) = calls[-2:]
    assert args[1] is last.bundle


@pytest.mark.parametrize("workload", ["path-small", "path-tail", "path-wide"])
def test_two_stored_scenario_sets_pass_the_benchmark_gate(bench, workload, tmp_path):
    # the benchmark's own correctness gate on a cheap and a costly stored draw: exit 0,
    # every point converged, the slopes assertions, and j and j_gamma within
    # REFERENCE_RTOL of the stored references
    spec = bench.load_workload(workload)
    references = bench.load_references(workload, spec)
    seeds = bench.scenario_seeds(1, 2, references)
    tol = float(config.resolve(spec["config"])["solver"]["tol_stationarity"])
    for seed, cfg in zip(seeds, bench.write_configs(spec, seeds, tmp_path / "configs")):
        _, code, error = bench.run_path(cfg, tmp_path / "out")
        _, _, failures = bench.gate(tmp_path / "out", code, error, references[seed], tol, None)
        assert failures == [], (seed, failures)
