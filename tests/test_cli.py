import csv
import itertools
import json
import re
import warnings
from math import inf, nan
from pathlib import Path

import numpy as np
import pytest

import riskpath.cli as cli_mod
import riskpath.objective as objective_mod
import riskpath.risk as risk_mod
from riskpath.cli import main, reduced_gradient_fd_error
from riskpath.cone import ConeSpec, constraint_eval
from riskpath.config import ConfigError, build_problem, config_hash, load_config, resolve
from riskpath.path import CSV_SCHEMA_VERSION
from test_objective import flip_adjoint_sign

SMALL = {
    "problem": {
        "n_interior": 15,
        "mu_tik": 0.01,
        "constraint": {"kind": "mixed", "epsilon": 0.05, "delta": 1e-8},
    },
    "scenarios": {"n_scenarios": 4, "seed": 3, "bound_spec": {"kind": "constant", "value": 0.05}},
    "gamma_schedule": {"start_exp": 0, "stop_exp": 3, "per_decade": 1},
    "solver": {"tol_stationarity": 1e-8},
}


# the volume budget: a scalar constraint per scenario, active on this problem
VOLUME = {
    "problem": dict(SMALL["problem"], constraint={"kind": "volume"}),
    "scenarios": dict(SMALL["scenarios"], bound_spec={"kind": "constant", "value": 0.01}),
}


def write_config(tmp_path, overrides=None, name="cfg.json"):
    raw = json.loads(json.dumps(SMALL))
    for key, val in (overrides or {}).items():
        raw[key] = val
    p = tmp_path / name
    p.write_text(json.dumps(raw))
    return p


def tag_of(cfg_path):
    cfg = load_config(cfg_path)
    return f"{config_hash(cfg)}_s{cfg['scenarios']['seed']}"


def read_path_csv(path):
    """The records of a path CSV, as dicts of strings (the first line is the schema tag)."""
    return list(csv.DictReader(path.read_text().splitlines()[1:]))


def test_config_defaults_and_unknown_key():
    cfg = resolve(json.loads(json.dumps(SMALL)))
    assert cfg["risk"]["kind"] == "expectation"
    assert cfg["generator"] == "philox4x64"
    with pytest.raises(ConfigError, match="unknown config key"):
        resolve({"probem": {}})
    with pytest.raises(ConfigError, match="risk.alpha"):
        resolve({"risk": {"kind": "avar", "alpha": 0.0, "tau": 1e-3}})
    with pytest.raises(ConfigError, match="mu_tik"):
        resolve({"problem": {"mu_tik": -1.0}})
    with pytest.raises(ConfigError, match="gamma_schedule"):
        resolve({"gamma_schedule": {"values": [100.0, 10.0, 1.0]}})


def test_solve_writes_artifacts_and_exits_zero(tmp_path):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["solve", "--config", str(cfg_path), "--out", str(out), "--gamma", "100"])
    assert rc == 0
    tag = tag_of(cfg_path)
    summary = json.loads((out / f"solve_{tag}.json").read_text())
    assert summary["converged"] is True
    assert summary["gamma"] == 100.0
    assert summary["config_hash"] in tag
    assert len(summary["control"]) == 15
    assert summary["stationarity"] <= 1e-8
    kkt = json.loads((out / f"kkt_{tag}.json").read_text())
    assert kkt["state_residual"] <= 1e-10
    assert (out / f"iterations_{tag}.log").read_text().startswith("iter=")


def test_solve_reports_hessian_products(tmp_path):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out), "--gamma", "100"]) == 0
    tag = tag_of(cfg_path)
    summary = json.loads((out / f"solve_{tag}.json").read_text())
    assert "mode" not in summary  # one solver, nothing to name
    lines = (out / f"iterations_{tag}.log").read_text().splitlines()
    assert len(lines) == summary["iterations"] + 1
    assert not any("np." in line for line in lines)  # plain floats, not numpy reprs
    counts = [int(line.rsplit(" cg=", 1)[1]) for line in lines]
    assert counts[0] == 0 and counts[-1] == summary["hessian_products"] > 0
    assert summary["backtracks"] >= 0


@pytest.mark.parametrize("overrides,gamma", [
    (None, "100"),
    (None, "1e6"),
    (VOLUME, "100"),
    ({"problem": dict(SMALL["problem"], tol_feas=1.0)}, "100"),
    ({"problem": dict(SMALL["problem"], tol_feas=0.0)}, "100"),
    # slack everywhere: feasible at the least tolerance, tol_feas = 0 = max_violation
    ({"problem": dict(SMALL["problem"], tol_feas=0.0),
      "scenarios": dict(SMALL["scenarios"], bound_spec={"kind": "constant", "value": 10.0})}, "100"),
    # the other target kinds
    ({"problem": dict(SMALL["problem"], y_d={"kind": "zero"})}, "100"),
    ({"problem": dict(SMALL["problem"], y_d={"kind": "sine", "amplitude": 0.5})}, "100"),
    ({"problem": dict(SMALL["problem"], y_d={"kind": "values", "values": [0.1] * 15})}, "100"),
])
def test_solve_report_equals_unpenalized_objective(tmp_path, overrides, gamma):
    # j, max_violation and feasible are those of the written control, bit for bit
    cfg_path = write_config(tmp_path, overrides)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out), "--gamma", gamma]) == 0
    summary = json.loads((out / f"solve_{tag_of(cfg_path)}.json").read_text())
    control = np.array([float(v) for v in summary["control"]])
    j, feasible, max_violation = objective_mod.unpenalized_objective(
        build_problem(load_config(cfg_path)), control
    )
    assert (summary["j"], summary["max_violation"], summary["feasible"]) == (j, max_violation, feasible)


def test_path_with_infeasible_zero_control_exits_one(tmp_path, capsys):
    # a negative bound makes the zero control infeasible, so no scaled reference exists
    spec = {"kind": "constant", "value": -0.1}
    cfg_path = write_config(tmp_path, {"scenarios": dict(SMALL["scenarios"], bound_spec=spec),
                                       "feasible_reference": {"mode": "scaled-initial"}})
    out = tmp_path / "out"
    assert main(["path", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "feasible_reference.mode" in err
    tag = tag_of(cfg_path)
    assert len((out / f"path_{tag}.csv").read_text().splitlines()) == 2 + 4
    assert not (out / f"path_{tag}.json").exists()  # the CSV is the one record of the path


def test_path_with_zero_control_outside_the_box_exits_one(tmp_path, capsys):
    # lo = 1 leaves the zero control, and so the ray from it, outside the box: no scaled
    # reference exists, and none below lo may certify the sandwich
    cfg_path = write_config(tmp_path, {"problem": dict(SMALL["problem"], control_lo=1.0),
                                       "feasible_reference": {"mode": "scaled-initial"}})
    out = tmp_path / "out"
    assert main(["path", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: feasible_reference.mode scaled-initial: zero "
                                       "control is infeasible; no scaled reference exists\n")
    tag = tag_of(cfg_path)
    assert len((out / f"path_{tag}.csv").read_text().splitlines()) == 2 + 4
    assert len(json.loads((out / f"kkt_path_{tag}.json").read_text())) == 4
    assert not (out / f"slopes_{tag}.json").exists()


def test_path_with_infeasible_zero_but_feasible_final_control_exits_zero(tmp_path):
    # a negative volume bound makes the zero control infeasible, but the constraint is
    # inactive at the optimum: the final control is its own reference and the path passes
    problem = dict(VOLUME["problem"], y_d={"kind": "parabola", "amplitude": -2.0})
    spec = {"kind": "constant", "value": -0.05}
    cfg_path = write_config(tmp_path, {"problem": problem,
                                       "scenarios": dict(SMALL["scenarios"], bound_spec=spec),
                                       "feasible_reference": {"mode": "scaled-initial"}})
    data = build_problem(load_config(cfg_path))
    zero = np.zeros(data.grid.n_interior)
    assert np.max(constraint_eval(data.constraint, zero, zero)) > data.tol_feas
    out = tmp_path / "out"
    assert main(["path", "--config", str(cfg_path), "--out", str(out)]) == 0
    slopes = json.loads((out / f"slopes_{tag_of(cfg_path)}.json").read_text())
    assert slopes["assertions"]["sandwich_j_le_jgamma_le_jref"] is True


def test_solve_exit_two_when_budget_exhausted(tmp_path):
    cfg_path = write_config(tmp_path, {"solver": {"tol_stationarity": 1e-14, "max_iters": 3}})
    rc = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--gamma", "100"])
    assert rc == 2


@pytest.mark.parametrize("gamma", ["-1", "0", "nan", "inf"])
def test_solve_rejects_bad_gamma(tmp_path, capsys, gamma):
    cfg_path = write_config(tmp_path)
    rc = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o"), f"--gamma={gamma}"])
    assert rc == 1
    assert capsys.readouterr().err == "error: --gamma must be a finite positive number\n"


EXPECTATION = {"kind": "expectation"}
AVAR = {"kind": "avar", "alpha": 0.25}
AVAR_SMOOTH = {"kind": "avar-smooth", "alpha": 0.25, "tau": 1e-3}


@pytest.mark.parametrize("risk,amplitude,code", [
    (EXPECTATION, 1e308, 1), (EXPECTATION, 1e150, 0), (AVAR, 1e308, 1), (AVAR_SMOOTH, 1e308, 1),
    (AVAR_SMOOTH, 1e150, 2),  # costs near 1e300 leave tau = 1e-3 below their round-off
], ids=["1e+308-1", "1e+150-0", "avar-1e+308-1", "avar-smooth-1e+308-1", "avar-smooth-1e+150-2"])
def test_non_finite_start_is_divergence(tmp_path, capsys, risk, amplitude, code):
    # a target of 1e308 makes the scenario costs overflow at the start point
    problem = dict(SMALL["problem"], y_d={"kind": "parabola", "amplitude": amplitude})
    cfg_path = write_config(tmp_path, {"problem": problem, "risk": risk})
    out = str(tmp_path / "out")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", "--config", str(cfg_path), "--out", out, "--gamma", "10"]) == code
        assert main(["path", "--config", str(cfg_path), "--out", out]) == code
    assert [str(w.message) for w in caught] == []  # the overflow is reported, not warned
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Warning" not in err
    if code == 1:
        assert "solve diverged at gamma=10.0" in err
        assert "path aborted: solve diverged at gamma=1.0" in err


def test_overflow_at_huge_gamma_is_divergence(tmp_path, capsys):
    # despite the name, no divergence: the exact Newton step forms the 3-node
    # Hessian in one stacked product, whose columns stay finite up to
    # gamma = 1e308 (CG's products overflowed at 1e164). From gamma = 1e12 on,
    # 20 steps no longer meet the stopping test (ROADMAP item 2's round-off
    # floor), so the path ends with exit 2.
    # test_overflowing_hessian_solve_aborts_the_path keeps the divergence case.
    cfg_path = write_config(tmp_path, {
        "problem": {"n_interior": 3}, "scenarios": {"n_scenarios": 2},
        "solver": {"max_iters": 20}, "gamma_schedule": {"start_exp": 0, "stop_exp": 170}})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["path", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    rows = read_path_csv(out / f"path_{tag_of(cfg_path)}.csv")
    assert [r["converged"] for r in rows] == ["true"] * 12 + ["false"] * 159  # gamma = 1 .. 1e170
    assert float(rows[12]["gamma"]) == 1e12
    assert all(np.isfinite(float(r["j_gamma"])) for r in rows)


def test_overflowing_kkt_report_warns_nothing(tmp_path, capsys):
    # at gamma = 1e200 the adjoint residual overflows to inf: a value in
    # the report, not a numpy warning on stderr
    cfg_path = write_config(tmp_path, {"problem": {"n_interior": 3},
                                       "gamma_schedule": {"values": [1.0, 1e200]}})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["path", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    reports = json.loads((out / f"kkt_path_{tag_of(cfg_path)}.json").read_text())
    assert reports[-1]["adjoint_residual"] == inf


def overflow_hessian_from_gamma_100(monkeypatch):
    """From gamma = 100 on, every Hessian product overflows its tridiagonal solves."""
    real = objective_mod.hessian_operator

    def overflowing(bundle):
        product = real(bundle)
        return product if bundle.gamma < 100.0 else (lambda v: product(v * np.inf))

    monkeypatch.setattr(objective_mod, "hessian_operator", overflowing)


def test_overflowing_hessian_solve_aborts_the_path(tmp_path, capsys, monkeypatch):
    # the path stops at gamma = 100 with exit 1 and keeps the CSV of the points before it
    overflow_hessian_from_gamma_100(monkeypatch)
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["path", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "path aborted: solve diverged at gamma=100.0\n"
    rows = read_path_csv(out / f"path_{tag_of(cfg_path)}.csv")
    assert [float(r["gamma"]) for r in rows] == [1.0, 10.0]


def test_path_writes_csv_and_assertions(tmp_path):
    for overrides in (None, VOLUME):
        cfg_path = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        rc = main(["path", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        tag = tag_of(cfg_path)
        csv_text = (out / f"path_{tag}.csv").read_text()
        assert csv_text.startswith(f"# schema={CSV_SCHEMA_VERSION}")
        assert len(csv_text.splitlines()) == 2 + 4  # tag, header, one row per decade
        slopes = json.loads((out / f"slopes_{tag}.json").read_text())
        asserts = slopes["assertions"]
        assert asserts["j_gamma_nondecreasing"] is True
        assert asserts["sandwich_j_le_jgamma_le_jref"] is True
        records = read_path_csv(out / f"path_{tag}.csv")
        assert [float(r["gamma"]) for r in records] == [1.0, 10.0, 100.0, 1000.0]
        kkts = json.loads((out / f"kkt_path_{tag}.json").read_text())
        assert len(kkts) == 4


def test_slopes_report_gamma_times_the_least_weight(tmp_path):
    cfg_path = write_config(tmp_path, {"scenarios": dict(SMALL["scenarios"], n_scenarios=16)})
    out = tmp_path / "out"
    assert main(["path", "--config", str(cfg_path), "--out", str(out)]) == 0
    slopes = json.loads((out / f"slopes_{tag_of(cfg_path)}.json").read_text())
    assert slopes["points"] == [{"gamma": g, "gamma_min_weight": g / 16}
                                for g in (1.0, 10.0, 100.0, 1000.0)]


def test_path_rerun_is_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["path", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["path", "--config", str(cfg_path), "--out", str(out2)]) == 0
    tag = tag_of(cfg_path)
    assert (out1 / f"path_{tag}.csv").read_bytes() == (out2 / f"path_{tag}.csv").read_bytes()
    stamp = re.compile(rb'"timestamp": "[^"]*"')  # only its value may differ
    for name, stamps in ((f"slopes_{tag}.json", 1), (f"kkt_path_{tag}.json", 0)):
        a, n_a = stamp.subn(b'"timestamp": ""', (out1 / name).read_bytes())
        b, n_b = stamp.subn(b'"timestamp": ""', (out2 / name).read_bytes())
        assert n_a == n_b == stamps
        assert a == b


def test_every_artifact_goes_through_the_one_writer(tmp_path, capsys, monkeypatch):
    # solve, path (complete and aborted) and verify write each file by cli._write alone
    cfg_path = write_config(tmp_path)
    tag = tag_of(cfg_path)

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{self} written past cli._write")

    monkeypatch.setattr(Path, "write_text", refuse)
    monkeypatch.setattr(Path, "write_bytes", refuse)
    out = tmp_path / "out"
    args = ["--config", str(cfg_path), "--out", str(out)]
    assert main(["solve", *args, "--gamma", "100"]) == 0
    assert main(["path", *args]) == 0
    assert main(["verify", *args]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(
        f"{kind}_{tag}.{ext}" for kind, ext in (
            ("solve", "json"), ("kkt", "json"), ("iterations", "log"), ("path", "csv"),
            ("kkt_path", "json"), ("slopes", "json"), ("checks", "json")))
    assert json.loads((out / f"solve_{tag}.json").read_text())["gamma"] == 100.0
    assert (out / f"iterations_{tag}.log").read_text().startswith("iter=")
    with monkeypatch.context() as patch:
        overflow_hessian_from_gamma_100(patch)
        aborted = tmp_path / "aborted"
        assert main(["path", "--config", str(cfg_path), "--out", str(aborted)]) == 1
    rows = read_path_csv(aborted / f"path_{tag}.csv")
    assert [float(r["gamma"]) for r in rows] == [1.0, 10.0]
    # a file that cannot be written is an error message and exit 1, not a traceback
    blocked = tmp_path / "blocked"
    (blocked / f"path_{tag}.csv").mkdir(parents=True)
    capsys.readouterr()
    assert main(["path", "--config", str(cfg_path), "--out", str(blocked)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"path_{tag}.csv" in err
    assert "Traceback" not in err


def test_stalled_volume_avar_solve_is_reported(tmp_path, capsys):
    # exact avar with the volume kind stops making progress at gamma = 1e4 and 1e5
    # (stationarity near 2e-6 after 150 Newton steps, thousands of rejected trial
    # points): the CLI reports both points unconverged, keeps every row, exits 2
    cfg_path = write_config(tmp_path, {
        "problem": {"n_interior": 20, "constraint": {"kind": "volume"}},
        "scenarios": {"n_scenarios": 5, "seed": 3,
                      "bound_spec": {"kind": "constant", "value": 0.01}},
        "risk": {"kind": "avar", "alpha": 0.5},
        "gamma_schedule": {"start_exp": 0, "stop_exp": 5, "per_decade": 1},
        "solver": {"max_iters": 150}})
    out = tmp_path / "out"
    assert main(["path", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    rows = read_path_csv(out / f"path_{tag_of(cfg_path)}.csv")
    assert [float(r["gamma"]) for r in rows] == [1.0, 10.0, 100.0, 1e3, 1e4, 1e5]
    assert [r["converged"] for r in rows] == ["true"] * 4 + ["false"] * 2
    assert [int(r["iterations"]) for r in rows[4:]] == [150, 150]
    assert all(1e-6 < float(r["stationarity"]) < 1e-5 for r in rows[4:])


def test_cold_path_reaches_same_endpoint(tmp_path):
    cfg_path = write_config(tmp_path)
    out_w, out_c = tmp_path / "warm", tmp_path / "cold"
    assert main(["path", "--config", str(cfg_path), "--out", str(out_w)]) == 0
    assert main(["path", "--config", str(cfg_path), "--out", str(out_c), "--cold"]) == 0
    tag = tag_of(cfg_path)
    warm = read_path_csv(out_w / f"path_{tag}.csv")
    cold = read_path_csv(out_c / f"path_{tag}.csv")
    assert float(warm[-1]["j_gamma"]) == pytest.approx(float(cold[-1]["j_gamma"]), rel=1e-8)
    assert sum(int(r["iterations"]) for r in warm) <= sum(int(r["iterations"]) for r in cold)


def test_verify_passes_on_healthy_build(tmp_path):
    for overrides in (None, VOLUME, {"risk": AVAR}):
        cfg_path = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        rc = main(["verify", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        checks = json.loads((out / f"checks_{tag_of(cfg_path)}.json").read_text())["checks"]
        assert {c["name"] for c in checks} >= {
            "projection_identities",
            "penalty_gradient_fd",
            "risk_axioms_and_duality",
            "constraint_adjoint_identity",
            "reduced_gradient_fd",
            "solve_self_adjointness",
        }
        assert all(c["passed"] for c in checks)
        skipped = {c["name"] for c in checks if c["detail"].startswith("skipped")}
        assert skipped == ({"reduced_gradient_fd"} if overrides == {"risk": AVAR} else set())


def test_verify_cone_checks_use_the_penalty_cone(monkeypatch):
    # projection_identities and penalty_gradient_fd test the cone the penalty uses:
    # weight 1 on the scalar volume budget, h = 1/16 on grid functions. The
    # projection takes no cone, so its identities meet the cone in its inner product
    seen = []

    def recorded(function):
        def wrapper(cone, *args):
            seen.append(cone.weight)
            return function(cone, *args)
        return wrapper

    monkeypatch.setattr(cli_mod, "penalty", recorded(cli_mod.penalty))
    monkeypatch.setattr(ConeSpec, "inner", recorded(ConeSpec.inner))
    for overrides, weight in ((VOLUME, 1.0), ({}, 1.0 / 16)):
        seen.clear()
        checks = itertools.islice(cli_mod._verify_checks(resolve(dict(SMALL, **overrides))), 2)
        assert [(name, passed) for name, passed, _ in checks] == [
            ("projection_identities", True), ("penalty_gradient_fd", True)]
        assert seen and set(seen) == {weight}


def test_verify_catches_adjoint_sign_mutation(tmp_path, monkeypatch, capsys):
    cfg_path = write_config(tmp_path)
    flip_adjoint_sign(monkeypatch)
    rc = main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "verification failed" in err
    assert "reduced_gradient_fd" in err


@pytest.mark.parametrize("risk", [EXPECTATION, AVAR_SMOOTH], ids=["expectation", "avar-smooth"])
def test_verify_on_overflowing_costs_fails_the_gradient_check(tmp_path, capsys, risk):
    # a target of 1e308 overflows the costs: a failed check, not a traceback or warning
    problem = dict(SMALL["problem"], y_d={"kind": "parabola", "amplitude": 1e308})
    cfg_path = write_config(tmp_path, {"problem": problem, "risk": risk})
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 3
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == "verification failed: reduced_gradient_fd\n"
    checks = json.loads((out / f"checks_{tag_of(cfg_path)}.json").read_text())["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == ["reduced_gradient_fd"]


@pytest.mark.parametrize("risk,per_sample", [(EXPECTATION, 10), (AVAR, 10), (AVAR_SMOOTH, 8)],
                         ids=["expectation", "avar", "avar-smooth"])
def test_risk_axiom_check_evaluates_each_sample_once(monkeypatch, risk, per_sample):
    # R[xi] and R[xi2] once per sample, not once per comparison: with the three
    # mixtures, min, max, xi + c, lam xi and the duality gap's own R[xi], 10
    # calls; avar-smooth is not positively homogeneous and has no gap check
    calls = []
    real = risk_mod.evaluate

    def counted(rm, xi, weights):
        calls.append(xi)
        return real(rm, xi, weights)

    monkeypatch.setattr(risk_mod, "evaluate", counted)
    checks = list(itertools.islice(cli_mod._verify_checks(resolve(dict(SMALL, risk=risk))), 3))
    assert checks[-1][:2] == ("risk_axioms_and_duality", True)
    assert len(calls) == 200 * per_sample


def test_reduced_gradient_check_passes_for_every_draw():
    # directions nearly orthogonal to the gradient are redrawn, so the check on
    # the default config no longer passes or fails with the random draw
    data = build_problem(resolve({}))
    for seed in range(60):
        worst = reduced_gradient_fd_error(data, np.random.Generator(np.random.Philox(seed)))
        assert worst <= 1e-6, f"seed {seed}: max rel err {worst:.3e}"


def test_missing_config_file_exits_one(tmp_path, capsys):
    rc = main(["solve", "--config", str(tmp_path / "nope.json"), "--gamma", "1",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_config_names_field(tmp_path, capsys):
    cases = []
    # bound tables of the wrong shape: 4 scenarios by 15 nodes is right
    for rows, cols in ((2, 15), (4, 3)):
        table = tmp_path / f"bounds_{rows}x{cols}.txt"
        table.write_text(("0.1 " * cols + "\n") * rows)
        spec = {"kind": "per-scenario-file", "path": str(table)}
        cases.append(({"scenarios": dict(SMALL["scenarios"], bound_spec=spec)},
                      "scenarios: per-scenario bound file"))
    cases += [
        ({"scenarios": {"n_scenarios": 0, "seed": 1}}, "scenarios.n_scenarios"),
        ({"problem": {"n_interior": "15"}}, "problem.n_interior"),
        ({"risk": {"kind": "avar-smooth", "tau": 0}}, "error: risk.tau: tau must be positive"),
        ({"problem": {"control_lo": 1.0, "control_hi": 0.0}},
         "problem.control_lo must be <= problem.control_hi"),
        ({"scenarios": {"a0": 0.4}}, "scenarios.a0 minus the sigma budget"),
        ({"solver": {"step_rule": "bogus"}}, "step_rule"),
        ({"solver": {"step_rule": "fixed"}}, "solver.step_rule"),
        ({"solver": {"subgradient_mode": True}}, "solver.subgradient_mode"),
        ({"solver": {"max_iters": "100"}}, "solver.max_iters"),
        ({"solver": {"accelerate": 1}}, "solver.accelerate"),
        ({"solver": {"accelerate": True}}, "unknown config key solver.accelerate"),
        ({"solver": {"method": "accelerated"}}, "solver.method"),
        ({"gamma_schedule": {"start_exp": 0, "stop_exp": 400}}, "gamma_schedule.stop_exp"),
        ({"gamma_schedule": {"start_exp": -400, "stop_exp": 0}}, "gamma_schedule.start_exp"),
        ({"gamma_schedule": {"start_exp": 0, "stopexp": 2}}, "gamma_schedule.stopexp"),
        ({"gamma_schedule": {"stop_exp": 2, "per_decade": 0}}, "gamma_schedule.per_decade"),
        ({"gamma_schedule": {"values": [1.0, "10"]}}, "gamma_schedule.values"),
        ({"problem": {"constraint": {"kind": "mixed", "epsilon": 0.05, "delat": 1}}},
         "problem.constraint.delat"),
        ({"problem": {"constraint": {"epsilon": 0.05}}}, "problem.constraint.kind"),
        ({"problem": {"y_d": {"kind": "values"}}}, "problem.y_d.values"),
        ({"problem": {"n_interior": 15, "y_d": {"kind": "values", "values": [0.0] * 14}}},
         "problem.y_d.values length must equal n_interior"),
        ({"problem": {"y_d": {"kind": "sine", "amplitde": 2.0}}}, "problem.y_d.amplitde"),
        ({"scenarios": {"bound_spec": {"kind": "constant"}}}, "scenarios.bound_spec.value"),
        ({"scenarios": {"bound_spec": {"kind": "constant", "value": "0.1"}}},
         "scenarios.bound_spec.value"),
        ({"scenarios": {"bound_spec": {"kind": "affine-in-s", "c0": 0.1}}},
         "scenarios.bound_spec.c1"),
        ({"feasible_reference": {"mdoe": "none"}}, "feasible_reference.mdoe"),
        ({"feasible_reference": {"mode": "scaled"}}, "feasible_reference.mode"),
        ({"problem": {"tol_feas": "1e-9"}}, "problem.tol_feas"),
        ({"output_dir": "out"}, "unknown config key output_dir"),
        # json reads NaN and Infinity; every number must be finite
        ({"risk": {"kind": "avar-smooth", "tau": nan}}, "risk.tau"),
        ({"problem": {"tol_feas": nan}}, "problem.tol_feas"),
        # a negative tolerance passed solve and failed path only at its reference
        ({"problem": {"n_interior": 15, "tol_feas": -1}, "scenarios": {"n_scenarios": 4},
          "gamma_schedule": {"stop_exp": 3}}, "problem.tol_feas"),
        ({"problem": {"mu_tik": inf}}, "problem.mu_tik"),
        ({"scenarios": {"a0": inf}}, "scenarios.a0"),
        ({"scenarios": {"a_min": inf}}, "scenarios.a_min"),
        ({"problem": {"constraint": {"kind": "mixed", "epsilon": inf}}},
         "problem.constraint.epsilon"),
        ({"scenarios": {"bound_spec": {"kind": "constant", "value": nan}}},
         "scenarios.bound_spec.value"),
        ({"problem": {"n_interior": 15, "y_d": {"kind": "values", "values": [0.0] * 14 + [inf]}}},
         "problem.y_d.values"),
        ({"gamma_schedule": {"values": [1.0, nan]}}, "gamma_schedule.values"),
        ({"solver": {"tol_stationarity": inf}}, "solver.tol_stationarity"),
        ({"scenarios": {"seed": -1}}, "scenarios.seed"),
        # finite conductivities whose stencil overflows
        ({"scenarios": {"a0": 1e308, "sigma": [1e300]}}, "scenarios: stencil is not finite"),
        ({"risk": 5}, "error: risk must be an object"),
        # sizes whose first array cannot be allocated (7.1 PiB, 14.2 PiB, 14.2 PiB)
        ({"problem": {"n_interior": 10**15}}, "problem.n_interior"),
        ({"scenarios": {"n_scenarios": 10**15}}, "scenarios.n_scenarios"),
        ({"gamma_schedule": {"stop_exp": 2, "per_decade": 10**15}}, "gamma_schedule.per_decade"),
    ]
    for name, text, field in (
        ("bounds_nan.txt", ("0.1 " * 14 + "nan\n") * 4, "holds a non-finite entry"),
        ("bounds_empty.txt", "", "must be 4 rows"),  # numpy warns of no data; not passed on
    ):
        table = tmp_path / name
        table.write_text(text)
        spec = {"kind": "per-scenario-file", "path": str(table)}
        cases.append(({"scenarios": dict(SMALL["scenarios"], bound_spec=spec)},
                      f"scenarios: per-scenario bound file {field}"))
    unparsable = tmp_path / "bounds_text.txt"
    unparsable.write_text(("0.1 " * 14 + "x\n") * 4)
    cases.append(({"scenarios": dict(SMALL["scenarios"], bound_spec={
        "kind": "per-scenario-file", "path": str(unparsable)})}, "error: scenarios: could not convert"))
    # a gradient bound below 0 leaves no feasible state: rejected before any solve
    negative = tmp_path / "bounds_negative.txt"
    negative.write_text(("0.1 " * 16 + "\n") * 3 + "0.1 " * 15 + "-0.01\n")  # 4 x 16 cells
    gradient = dict(SMALL["problem"], constraint={"kind": "gradient"})
    for spec in ({"kind": "constant", "value": -0.01}, {"kind": "affine-in-s", "c0": 0.5, "c1": -1},
                 {"kind": "per-scenario-file", "path": str(negative)}):
        cases.append(({"problem": gradient, "scenarios": dict(SMALL["scenarios"], bound_spec=spec)},
                      "error: scenarios.bound_spec: a gradient bound must be >= 0"))
    for overrides, field in cases:
        cfg_path = write_config(tmp_path, overrides)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["path", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
    overflow = tmp_path / "overflow.json"
    overflow.write_text('{"problem": {"mu_tik": 1e400}}')  # json reads 1e400 as inf
    assert main(["path", "--config", str(overflow), "--out", str(tmp_path / "out")]) == 1
    assert "problem.mu_tik" in capsys.readouterr().err


def test_resolved_config_is_complete():
    # a section given in part resolves to the values that run, so the same run has the same tag
    assert resolve({"gamma_schedule": {"stop_exp": 6}}) == resolve({})
    y_d = resolve({"problem": {"y_d": {"kind": "parabola"}}})["problem"]["y_d"]
    assert y_d == {"kind": "parabola", "amplitude": 1.0}
    constraint = resolve({"problem": {"constraint": {"kind": "volume"}}})["problem"]["constraint"]
    assert constraint == {"kind": "volume", "epsilon": 0.0, "delta": 1e-8}
    assert resolve({"feasible_reference": {}})["feasible_reference"] == {"mode": "none"}
    assert type(resolve({"problem": {"mu_tik": 1}})["problem"]["mu_tik"]) is int  # no coercion
    assert config_hash(resolve({})) == "340bb0cc82f1"


def test_readme_config_example_builds():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    example = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    data = build_problem(resolve(example))
    assert data.grid.n_interior == example["problem"]["n_interior"]
    assert data.scenarios.count == example["scenarios"]["n_scenarios"]


def test_per_scenario_bound_file_loads(tmp_path):
    # one bound per node, and one constant bound per scenario (broadcast over the nodes)
    rows = np.arange(1, 5)[:, None] * 0.01
    for table in (rows + 1e-3 * np.arange(15), rows):
        path = tmp_path / f"bounds_{table.shape[1]}.txt"
        np.savetxt(path, table)
        spec = {"kind": "per-scenario-file", "path": str(path)}
        raw = json.loads(json.dumps(SMALL))
        raw["scenarios"]["bound_spec"] = spec
        data = build_problem(resolve(raw))
        np.testing.assert_array_equal(data.constraint.bounds, np.broadcast_to(table, (4, 15)))
        assert np.all(np.isfinite(objective_mod.evaluate(data, 10.0, np.zeros(15)).gradient))


def test_path_with_one_column_bound_file(tmp_path):
    # one bound per scenario, broadcast over the bound points of each kind: the
    # scaled feasible reference indexes the bounds by constraint entry
    path = tmp_path / "bounds.txt"
    np.savetxt(path, np.arange(1, 5)[:, None] * 0.05)
    for kind in ("mixed", "gradient"):
        cfg_path = write_config(tmp_path, {
            "problem": dict(SMALL["problem"], constraint={"kind": kind}),
            "scenarios": dict(SMALL["scenarios"],
                              bound_spec={"kind": "per-scenario-file", "path": str(path)})})
        assert main(["path", "--config", str(cfg_path), "--out", str(tmp_path / kind)]) == 0


def test_constraint_bounds_for_each_kind():
    # the bound c0 + c1 s at the points of each kind: nodes, cell midpoints, one point
    h = 1.0 / 16
    points = {"mixed": np.arange(1, 16) * h, "gradient": (np.arange(16) + 0.5) * h,
              "volume": np.zeros(1)}
    for kind, at in points.items():
        raw = json.loads(json.dumps(SMALL))
        raw["problem"]["constraint"] = {"kind": kind}
        raw["scenarios"]["bound_spec"] = {"kind": "affine-in-s", "c0": 0.5, "c1": 1.0}
        bounds = build_problem(resolve(raw)).constraint.bounds
        assert bounds.shape == (4, at.size)
        np.testing.assert_allclose(bounds, np.tile(0.5 + at, (4, 1)), rtol=1e-15)


def test_invalid_json_exits_one(tmp_path, capsys):
    # a syntax error, bytes that do not decode as UTF-8/16/32, and nesting too deep to parse
    bad = tmp_path / "bad.json"
    nested = b"[" * 100_000 + b"]" * 100_000
    for content in (b"{not json", b"\xff\xfe\x00garbage", b'{"output_dir": "\xff"}', nested):
        bad.write_bytes(content)
        rc = main(["verify", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config file is not valid JSON") and "Traceback" not in err


def test_verify_gradient_constraint_flat_state(tmp_path):
    # delta = 0 keeps the kink of the gradient bound; the documented tie-break
    # (subgradient value 0 at flat points) must not trip the battery
    cfg_path = write_config(
        tmp_path,
        {"problem": {"n_interior": 15, "mu_tik": 0.01,
                     "constraint": {"kind": "gradient", "epsilon": 0.0, "delta": 0.0}}},
    )
    rc = main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 0
