import json
import warnings
from math import inf, nan
from pathlib import Path

import numpy as np
import pytest

import riskpath.objective as objective_mod
from riskpath.cli import main, reduced_gradient_fd_error
from riskpath.config import ConfigError, build_problem, config_hash, load_config, resolve
from riskpath.path import CSV_SCHEMA_VERSION

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
    kkt = json.loads((out / f"kkt_{tag}.json").read_text())
    assert kkt["stationarity_x1"] <= 1e-8
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
    assert len(json.loads((out / f"path_{tag}.json").read_text())) == 4


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


@pytest.mark.parametrize("amplitude,code", [(1e308, 1), (1e150, 0)])
def test_non_finite_start_is_divergence(tmp_path, capsys, amplitude, code):
    # a target of 1e308 makes the scenario costs overflow at the start point
    problem = dict(SMALL["problem"], y_d={"kind": "parabola", "amplitude": amplitude})
    cfg_path = write_config(tmp_path, {"problem": problem})
    out = str(tmp_path / "out")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", "--config", str(cfg_path), "--out", out, "--gamma", "10"]) == code
        assert main(["path", "--config", str(cfg_path), "--out", out]) == code
    assert [str(w.message) for w in caught] == []  # the overflow is reported, not warned
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Warning" not in err
    if code:
        assert "solve diverged at gamma=10.0" in err
        assert "path aborted: solve diverged at gamma=1.0" in err


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
        records = json.loads((out / f"path_{tag}.json").read_text())
        assert [r["gamma"] for r in records] == [1.0, 10.0, 100.0, 1000.0]
        kkts = json.loads((out / f"kkt_path_{tag}.json").read_text())
        assert len(kkts) == 4


def test_path_rerun_is_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["path", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["path", "--config", str(cfg_path), "--out", str(out2)]) == 0
    tag = tag_of(cfg_path)
    assert (out1 / f"path_{tag}.csv").read_bytes() == (out2 / f"path_{tag}.csv").read_bytes()
    for name in (f"path_{tag}.json", f"slopes_{tag}.json", f"kkt_path_{tag}.json"):
        a = (out1 / name).read_text()
        b = (out2 / name).read_text()
        strip = lambda s: "\n".join(l for l in s.splitlines() if '"timestamp"' not in l)
        assert strip(a) == strip(b)


def test_cold_path_reaches_same_endpoint(tmp_path):
    cfg_path = write_config(tmp_path)
    out_w, out_c = tmp_path / "warm", tmp_path / "cold"
    assert main(["path", "--config", str(cfg_path), "--out", str(out_w)]) == 0
    assert main(["path", "--config", str(cfg_path), "--out", str(out_c), "--cold"]) == 0
    tag = tag_of(cfg_path)
    warm = json.loads((out_w / f"path_{tag}.json").read_text())
    cold = json.loads((out_c / f"path_{tag}.json").read_text())
    assert warm[-1]["j_gamma"] == pytest.approx(cold[-1]["j_gamma"], rel=1e-8)
    assert sum(r["iterations"] for r in warm) <= sum(r["iterations"] for r in cold)


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path)
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("RISKPATH_OUT", str(env_out))
    rc = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "ignored"), "--gamma", "10"])
    assert rc == 0
    tag = tag_of(cfg_path)
    assert (env_out / f"solve_{tag}.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_verify_passes_on_healthy_build(tmp_path):
    for overrides in (None, VOLUME):
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


def test_verify_catches_adjoint_sign_mutation(tmp_path, monkeypatch, capsys):
    cfg_path = write_config(tmp_path)
    monkeypatch.setattr(objective_mod, "_ADJOINT_SIGN", -1.0)
    rc = main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "verification failed" in err
    assert "reduced_gradient_fd" in err


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
        ({"risk": {"kind": "avar-smooth", "tau": 0}}, "tau"),
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
        ({"problem": {"y_d": {"kind": "sine", "amplitde": 2.0}}}, "problem.y_d.amplitde"),
        ({"scenarios": {"bound_spec": {"kind": "constant"}}}, "scenarios.bound_spec.value"),
        ({"scenarios": {"bound_spec": {"kind": "constant", "value": "0.1"}}},
         "scenarios.bound_spec.value"),
        ({"scenarios": {"bound_spec": {"kind": "affine-in-s", "c0": 0.1}}},
         "scenarios.bound_spec.c1"),
        ({"feasible_reference": {"mdoe": "none"}}, "feasible_reference.mdoe"),
        ({"feasible_reference": {"mode": "scaled"}}, "feasible_reference.mode"),
        ({"problem": {"tol_feas": "1e-9"}}, "problem.tol_feas"),
        ({"output_dir": 5}, "output_dir"),
        # json reads NaN and Infinity; every number must be finite
        ({"risk": {"kind": "avar-smooth", "tau": nan}}, "risk.tau"),
        ({"problem": {"tol_feas": nan}}, "problem.tol_feas"),
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
    ]
    table = tmp_path / "bounds_nan.txt"
    table.write_text(("0.1 " * 14 + "nan\n") * 4)
    spec = {"kind": "per-scenario-file", "path": str(table)}
    cases.append(({"scenarios": dict(SMALL["scenarios"], bound_spec=spec)},
                  "scenarios: per-scenario bound file holds a non-finite entry"))
    for overrides, field in cases:
        cfg_path = write_config(tmp_path, overrides)
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
    assert config_hash(resolve({})) == "60706193cc8a"


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
        np.testing.assert_array_equal(data.scenarios.bounds, table)
        assert np.all(np.isfinite(objective_mod.evaluate(data, 10.0, np.zeros(15)).gradient))


def test_invalid_json_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["verify", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "not valid JSON" in capsys.readouterr().err


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
