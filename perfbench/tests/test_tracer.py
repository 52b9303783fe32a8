"""Tests of the benchmark's tracer and correctness gate.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import sys
import time
import types

import pytest

import bench
from tracer import Tracer


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("fake_layer")

    def inner(x):
        time.sleep(0.01)
        return x + 1

    def outer(x):
        time.sleep(0.01)
        return mod.inner(x) + mod.inner(x)

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    return mod


def test_self_time_excludes_traced_children_and_originals_come_back(fake_module):
    inner, outer = fake_module.inner, fake_module.outer
    targets = (("fake_layer", "outer", "fake.outer"), ("fake_layer", "inner", "fake.inner"))
    with Tracer(targets) as tracer:
        assert fake_module.outer(1) == 4
    assert fake_module.inner is inner and fake_module.outer is outer
    totals = tracer.totals()
    assert totals["fake.inner"]["calls"] == 2
    assert totals["fake.outer"]["calls"] == 1
    outer_stats = totals["fake.outer"]
    assert outer_stats["incl_s"] >= 0.03
    assert outer_stats["self_s"] == pytest.approx(outer_stats["incl_s"] - totals["fake.inner"]["incl_s"])
    assert 0.01 <= outer_stats["self_s"] <= outer_stats["incl_s"] - 0.02


def test_missing_attribute_or_module_is_reported_absent(fake_module):
    targets = (
        ("fake_layer", "inner", "fake.inner"),
        ("fake_layer", "removed_by_refactor", "fake.removed"),
        ("no_such_module_for_tracing", "f", "gone.f"),
    )
    with Tracer(targets) as tracer:
        fake_module.inner(0)
    assert tracer.absent == ["fake.removed", "gone.f"]
    metrics = bench.layer_metrics(tracer, traced_passes=1, overhead_s=0.0)
    assert metrics["fake.removed.calls"] == {"value": None, "unit": "count", "absent": True}
    assert metrics["gone.f.self_s"] == {"value": None, "unit": "s", "absent": True}
    assert metrics["fake.inner.calls"] == {"value": 1, "unit": "count"}


# The timed path-small workload stops at 1e3; the self-check runs the test
# suite's make_problem(n=15, bound=0.05, mu_tik=0.01) fixture, scenario seed 2,
# over the full schedule.
FULL_SCHEDULE = {"start_exp": 0, "stop_exp": 6, "per_decade": 1}


def _small_config(tmp_path, **overrides):
    cfg = bench.config_for(bench.load_workload("path-small"), 2)
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_trace_self_check_full_small_path(tmp_path):
    """Counts through the CLI at the seed commit; shrink_to_feasible adds 252 solves."""
    path = _small_config(tmp_path, gamma_schedule=FULL_SCHEDULE)
    with Tracer() as tracer:
        seconds, code, error = bench.run_path(path, tmp_path / "out")
    assert (code, error) == (0, None)
    assert tracer.absent == []
    iterations = [s["iterations"] for s in tracer.spans if s["name"] == "solver.minimize"]
    assert iterations == [15, 20, 45, 160, 1190, 6730, 24460]
    totals = tracer.totals()
    assert totals["objective.evaluate"]["calls"] == 43194
    assert totals["objective.objective_only"]["calls"] == 81562
    assert totals["grid.solve_state"]["calls"] == 672080
    assert totals["objective.unpenalized_objective"]["calls"] == 70
    csv_rows = bench.read_path_csv(next((tmp_path / "out").glob("path_*.csv")).read_text())
    assert [int(r["iterations"]) for r in csv_rows] == iterations


def _short_run(tmp_path):
    path = _small_config(tmp_path, gamma_schedule={"start_exp": 0, "stop_exp": 1, "per_decade": 1})
    out = tmp_path / "out"
    _, code, error = bench.run_path(path, out)
    raw, _, failures = bench.gate(out, code, error, None, 1e-8, None)
    assert failures == []
    rows = bench.read_path_csv(raw.decode())
    reference = {key: [bench.number(r[key]) for r in rows] for key in ("gamma", "j", "j_gamma")}
    return out, code, raw, reference


def test_gate_compares_values_within_tolerance(tmp_path):
    out, code, raw, reference = _short_run(tmp_path)
    near = dict(reference, j=[v * (1 + 0.1 * bench.REFERENCE_RTOL) for v in reference["j"]])
    assert bench.gate(out, code, None, near, 1e-8, raw)[2] == []
    far = dict(reference, j_gamma=[v * (1 + 10 * bench.REFERENCE_RTOL) for v in reference["j_gamma"]])
    failures = bench.gate(out, code, None, far, 1e-8, raw)[2]
    assert len(failures) == 2 and all("j_gamma" in f for f in failures)


def test_gate_flags_changed_bytes_exit_code_and_crash(tmp_path):
    out, code, raw, reference = _short_run(tmp_path)
    assert bench.gate(out, code, None, reference, 1e-8, raw + b"\n")[2] == [
        "path CSV differs from the first run of the same input"]
    assert bench.gate(out, 2, None, reference, 1e-8, raw)[2] == ["exit code 2"]
    failures = bench.gate(out, None, "Traceback ...\nTypeError: boom\n", reference, 1e-8, None)[2]
    assert failures == ["exception: TypeError: boom"]
    tight = bench.gate(out, code, None, reference, 1e-30, raw)[2]
    assert tight and all("stationarity" in f for f in tight)


def test_reported_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((bench.HERE.parent / "BENCHMARK.json").read_text())
    path = _small_config(tmp_path, gamma_schedule={"start_exp": 0, "stop_exp": 1, "per_decade": 1})
    with Tracer() as tracer:
        bench.run_path(path, tmp_path / "out")
    metrics = bench.layer_metrics(tracer, traced_passes=1, overhead_s=0.1)
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])
    assert all(m["unit"] == metrics[m["name"]]["unit"] for m in spec["per_layer"])
    assert metrics["solver.iterations"]["value"] == 15 + 20


def test_workload_files_match_benchmark_json():
    spec = json.loads((bench.HERE.parent / "BENCHMARK.json").read_text())
    for entry in spec["workloads"]:
        assert bench.load_workload(entry["name"])["why"] == entry["why"]
