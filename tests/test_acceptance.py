"""Acceptance battery for the penalty-path solver.

One test per criterion; each prints a single pass line on success (visible
with -s or in the captured output). The shared fixture runs the default
continuation path once (n=127 grid, 16 scenarios, mixed constraint with an
active region, expectation risk, gamma from 1 to 1e6 by decades).
"""

import json
import time

import numpy as np
import pytest

from riskpath.cli import main
from riskpath.cone import ConeSpec, penalty, penalty_multiplier, project
from riskpath.config import build_problem, build_schedule, resolve
from riskpath.grid import Grid, assemble, inner_h, solve_state
from riskpath.kkt import check_gamma_system, complementarity_value
from riskpath.objective import evaluate, objective_only, unpenalized_objective
from riskpath.path import fit_decay_slope, run_path, shrink_to_feasible
from riskpath.risk import RiskMeasure, duality_gap
from riskpath.risk import evaluate as risk_evaluate
from riskpath.risk import subgradient
from riskpath.solver import SolveOptions, minimize

from reference import reference_minimize
from test_objective import make_problem


def _report(n, name):
    print(f"[criterion {n:2d}] {name}: PASS")


@pytest.fixture(scope="module")
def default_path():
    cfg = resolve({})
    data = build_problem(cfg)
    schedule = build_schedule(cfg)
    opts = SolveOptions(tol_stationarity=1e-8)
    t0 = time.monotonic()
    records, details = run_path(data, schedule, opts, return_details=True)
    elapsed = time.monotonic() - t0
    return data, records, details, elapsed


def test_criterion_01_feasibility_decay(default_path):
    data, records, details, elapsed = default_path
    assert elapsed < 120.0, f"path run took {elapsed:.1f}s, budget is 2 minutes"
    assert all(r.converged for r in records)
    slope, r2 = fit_decay_slope(records, "sq_violation")
    assert slope <= -0.8, f"sq_violation decay slope {slope:.3f} > -0.8"
    assert r2 >= 0.95, f"decay fit r^2 {r2:.4f} < 0.95"
    assert records[-1].max_violation <= 1e-3 * records[0].max_violation, (
        "max_violation did not drop by three decades: "
        f"{records[0].max_violation:.3e} -> {records[-1].max_violation:.3e}"
    )
    _report(1, "feasibility decay along the penalty path")


def test_criterion_02_monotone_sandwich(default_path):
    data, records, details, _ = default_path
    ref = shrink_to_feasible(data, details[-1].result.x1_opt)
    j_ref, feasible, _ = unpenalized_objective(data, ref)
    assert feasible
    for r in records:
        assert r.j <= r.j_gamma + 1e-10
        assert r.j_gamma <= j_ref + 1e-10
    _report(2, "monotone sandwich j <= j_gamma <= j(feasible reference)")


def test_criterion_03_gradient_correctness():
    rng = np.random.Generator(np.random.Philox(31))
    cases = [
        ("expectation", make_problem(n=31, bound=0.05, mu_tik=0.01), 1e-6, 1e-6),
        (
            "avar-smooth",
            make_problem(n=31, bound=0.05, mu_tik=0.01,
                         risk_kind="avar-smooth", alpha=0.5, tau=1e-3),
            1e-5,
            1e-4,
        ),
    ]
    for label, data, eps, tol in cases:
        x = data.clamp(rng.standard_normal(31))
        b = evaluate(data, 10.0, x)
        for _ in range(10):
            d = rng.standard_normal(31)
            d /= np.linalg.norm(d)
            fd = (
                objective_only(data, 10.0, x + eps * d)
                - objective_only(data, 10.0, x - eps * d)
            ) / (2 * eps)
            an = float(np.dot(b.gradient, d))
            err = abs(fd - an) / max(1e-12, abs(fd))
            assert err <= tol, f"{label}: gradient FD error {err:.3e} > {tol:.0e}"
    _report(3, "adjoint reduced gradient vs central finite differences")


def test_criterion_04_kkt_gamma_system_residuals(default_path):
    data, records, details, _ = default_path
    for step in details:
        rep = check_gamma_system(data, step.result.bundle)
        assert rep.stationarity_x1 <= 1e-8
        assert rep.adjoint_residual <= 1e-10
        assert rep.rho_consistency <= 1e-10
        assert rep.state_residual <= 1e-10
        assert rep.multiplier_formula_residual <= 1e-10
    _report(4, "penalized KKT system residuals at every converged solve")


def test_criterion_05_complementarity_identity_and_trend(default_path):
    data, records, details, _ = default_path
    comps = []
    for r, step in zip(records, details):
        comp = complementarity_value(data, step.result.bundle)
        identity = r.gamma * r.sq_violation
        assert comp == pytest.approx(identity, rel=1e-12, abs=1e-12)
        comps.append(comp)
    assert comps[-1] <= 1e-2 * max(comps), (
        f"complementarity at gamma=1e6 is {comps[-1]:.3e}, "
        f"path maximum {max(comps):.3e}"
    )
    _report(5, "complementarity identity (1e-12) and decay to 1% of peak")


def test_criterion_06_multiplier_path_boundedness(default_path):
    data, records, details, _ = default_path
    tail = [r for r in records if r.gamma >= 10.0]
    for field in ("multiplier_l1", "adjoint_l1"):
        vals = [getattr(r, field) for r in tail]
        assert min(vals) > 0.0
        assert max(vals) / min(vals) < 10.0, (
            f"{field} varies by {max(vals) / min(vals):.2f}x over gamma in [10, 1e6]"
        )
    _report(6, "multiplier and adjoint mass bounded along the path (<10x)")


def test_criterion_07_cone_projection_identities():
    rng = np.random.Generator(np.random.Philox(7))
    failures = 0
    for trial in range(1000):
        dim = int(rng.integers(1, 12))
        cone = ConeSpec(weight=float(rng.uniform(0.01, 1.0)))
        k = 3.0 * rng.standard_normal(dim)
        p = project(cone, k)
        ok = bool(np.all(p >= 0.0))
        ok &= abs(cone.inner(p, k - p)) <= 1e-12
        ok &= np.array_equal(project(cone, p), p)
        q = 3.0 * rng.standard_normal(dim)
        ok &= cone.norm(project(cone, k) - project(cone, q)) <= cone.norm(k - q) + 1e-12
        gamma = float(rng.uniform(0.5, 100.0))
        pv = penalty(cone, gamma, k)
        ok &= (pv.value == 0.0) == bool(np.all(k <= 0.0))
        lam = penalty_multiplier(cone, gamma, k)
        d = rng.standard_normal(dim)
        eps = 1e-6
        fd = (penalty(cone, gamma, k + eps * d).value - penalty(cone, gamma, k - eps * d).value) / (2 * eps)
        ok &= abs(fd - cone.inner(lam, d)) <= 1e-6 * max(1.0, abs(fd))
        failures += not ok
    assert failures == 0, f"{failures}/1000 randomized cone instances failed"
    _report(7, "projection/penalty identities on 1000 randomized instances")


def test_criterion_08_risk_axioms_and_duality():
    rng = np.random.Generator(np.random.Philox(8))
    measures = [RiskMeasure(kind="expectation")] + [
        RiskMeasure(kind="avar", alpha=a) for a in (0.1, 0.5, 0.9)
    ]
    for rm in measures:
        for _ in range(1000):
            n = int(rng.integers(2, 10))
            w = rng.uniform(0.05, 1.0, n)
            w /= w.sum()
            xi = rng.standard_normal(n)
            eta = rng.standard_normal(n)
            lam = float(rng.uniform())
            # R1 convexity
            assert risk_evaluate(rm, lam * xi + (1 - lam) * eta, w) <= (
                lam * risk_evaluate(rm, xi, w) + (1 - lam) * risk_evaluate(rm, eta, w) + 1e-10
            )
            # R2 monotonicity
            assert risk_evaluate(rm, np.minimum(xi, eta), w) <= risk_evaluate(rm, np.maximum(xi, eta), w) + 1e-12
            # R3 translation equivariance
            c = float(rng.standard_normal())
            assert risk_evaluate(rm, xi + c, w) == pytest.approx(risk_evaluate(rm, xi, w) + c, abs=1e-10)
            # R4 positive homogeneity
            s = float(rng.uniform(0.1, 4.0))
            assert risk_evaluate(rm, s * xi, w) == pytest.approx(s * risk_evaluate(rm, xi, w), abs=1e-9)
            # dual tightness at the returned subgradient
            th = subgradient(rm, xi, w).theta
            assert duality_gap(rm, xi, th, w) <= 1e-12

    # frozen example against the brute-force epigraph oracle
    xi = np.array([1.0, 2.0, 3.0, 4.0])
    w = np.full(4, 0.25)
    rm = RiskMeasure(kind="avar", alpha=0.5)
    got = risk_evaluate(rm, xi, w)
    assert got == pytest.approx(3.5, abs=1e-12)
    ts = np.linspace(0.0, 5.0, 500001)
    oracle = float(np.min(ts + (np.maximum(0.0, xi[None, :] - ts[:, None]) @ w) / 0.5))
    assert got == pytest.approx(oracle, abs=1e-6)
    _report(8, "risk axioms R1-R4, tight duality, and the tail-mean oracle")


def test_criterion_09_cross_solver_agreement():
    for seed in (1, 2, 3, 4, 5):
        data = make_problem(n=15, seed=seed, bound=0.1, mu_tik=1.0)
        newton = minimize(data, 100.0, SolveOptions(tol_stationarity=1e-9, max_iters=20000))
        ref = reference_minimize(data, 100.0)
        assert newton.converged
        scale = max(1.0, abs(newton.bundle.j_gamma))
        assert abs(newton.bundle.j_gamma - ref.fun) <= 1e-8 * scale, (
            f"seed {seed}: objectives differ by {abs(newton.bundle.j_gamma - ref.fun):.3e}"
        )
    _report(9, "semismooth Newton and the L-BFGS-B reference agree to 1e-8")


def test_criterion_10_pde_verification():
    errors, hs = [], []
    for n in (25, 50, 100, 200):
        g = Grid(n)
        op = assemble(g, np.ones(g.n_cells))
        u = solve_state(op, np.sin(np.pi * g.nodes))
        exact = np.sin(np.pi * g.nodes) / np.pi**2
        errors.append(np.max(np.abs(u - exact)))
        hs.append(g.h)
    slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    assert abs(slope - 2.0) <= 0.1, f"convergence order {slope:.3f} not 2 +/- 0.1"

    g = Grid(33)
    rng = np.random.Generator(np.random.Philox(10))
    for _ in range(10):
        a = 0.3 + rng.uniform(0.0, 1.5, g.n_cells)
        op = assemble(g, a)
        r = rng.standard_normal(g.n_interior)
        q = rng.standard_normal(g.n_interior)
        lhs = inner_h(g, solve_state(op, r), q)
        rhs = inner_h(g, r, solve_state(op, q))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
    _report(10, "O(h^2) convergence and solve self-adjointness")


def test_criterion_11_determinism(tmp_path):
    cfg = {
        "problem": {"n_interior": 15, "mu_tik": 0.01},
        "scenarios": {"n_scenarios": 4, "seed": 3,
                      "bound_spec": {"kind": "constant", "value": 0.05}},
        "gamma_schedule": {"start_exp": 0, "stop_exp": 4, "per_decade": 1},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["path", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["path", "--config", str(cfg_path), "--out", str(out2)]) == 0
    csvs1 = sorted(out1.glob("path_*.csv"))
    csvs2 = sorted(out2.glob("path_*.csv"))
    assert len(csvs1) == len(csvs2) == 1
    assert csvs1[0].read_bytes() == csvs2[0].read_bytes()
    _report(11, "byte-identical path CSV across reruns")
