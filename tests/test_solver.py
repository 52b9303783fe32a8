import numpy as np
import pytest

import riskpath.objective as obj_mod
from riskpath.grid import Grid, assemble, inner_h, solve_state
from riskpath.objective import ProblemData, evaluate, objective_only
from riskpath.solver import (
    CHECK_EVERY,
    SolveOptions,
    SolveResult,
    minimize,
    stationarity_residual,
)

from test_objective import make_problem


def make_recovery_problem(n=15, mu_tik=1.0, seed=0):
    """Single deterministic scenario, slack constraint, y_d manufactured so the
    unconstrained minimizer is a known control x_star."""
    data = make_problem(n=n, n_scen=1, seed=seed, bound=100.0, mu_tik=mu_tik)
    rng = np.random.Generator(np.random.Philox(seed + 100))
    x_star = np.clip(rng.standard_normal(n), -2.0, 2.0)
    op = data.operator
    # stationarity of 0.5 mu ||u||_h^2 + 0.5 ||S u - y_d||_h^2 at x_star:
    # mu x_star + S^* (S x_star - y_d) = 0  =>  y_d = S x_star + mu A_h x_star
    # with S = A^{-1} and the mass-weighted pairing folding into A directly
    s_x = solve_state(op, x_star)[0]
    y_d = s_x + mu_tik * op.matvec(x_star)[0]
    return ProblemData.build(
        grid=data.grid,
        scenarios=data.scenarios,
        constraint=data.constraint,
        risk=data.risk,
        y_d=y_d,
        mu_tik=mu_tik,
        lo=-50.0,
        hi=50.0,
    ), x_star


@pytest.mark.parametrize(
    "accelerate,tol,err_tol",
    [(True, 1e-9, 1e-7), (False, 1e-7, 1e-5)],
    ids=["fista", "pg"],
)
def test_recovers_manufactured_minimizer(accelerate, tol, err_tol):
    data, x_star = make_recovery_problem()
    opts = SolveOptions(tol_stationarity=tol, accelerate=accelerate, max_iters=20000)
    res = minimize(data, 1.0, opts)
    assert res.converged
    assert np.max(np.abs(res.x1_opt - x_star)) <= err_tol
    assert res.stationarity_norm <= tol


def test_singleton_box_returns_immediately():
    data = make_problem(bound=0.1)
    fixed = ProblemData.build(
        grid=data.grid,
        scenarios=data.scenarios,
        constraint=data.constraint,
        risk=data.risk,
        y_d=data.y_d,
        mu_tik=data.mu_tik,
        lo=0.7,
        hi=0.7,
    )
    res = minimize(fixed, 10.0, SolveOptions())
    assert res.iterations == 0
    assert res.converged
    assert np.allclose(res.x1_opt, 0.7)
    assert np.array_equal(res.xi, -res.bundle.gradient)


def test_methods_agree_on_strongly_convex_instances():
    # well conditioned instances: cross-method objective and control agreement
    for seed in (1, 2, 3):
        data = make_problem(n=11, seed=seed, bound=0.1, mu_tik=1.0)
        opts_a = SolveOptions(tol_stationarity=1e-9, accelerate=True, max_iters=20000)
        opts_b = SolveOptions(tol_stationarity=1e-9, accelerate=False, max_iters=20000)
        ra = minimize(data, 100.0, opts_a)
        rb = minimize(data, 100.0, opts_b)
        assert ra.converged and rb.converged
        assert abs(ra.bundle.j_gamma - rb.bundle.j_gamma) <= 1e-8 * max(1.0, abs(ra.bundle.j_gamma))
        assert np.max(np.abs(ra.x1_opt - rb.x1_opt)) <= 1e-5


def test_plain_projected_gradient_descends_monotonically():
    data = make_problem(n=11, bound=0.05, mu_tik=0.5)
    values = []
    minimize(
        data,
        50.0,
        SolveOptions(max_iters=200, tol_stationarity=1e-12, accelerate=False),
        callback=lambda it, f, stat, s: values.append(f),
    )
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_iterates_stay_in_box():
    data = make_problem(n=11, bound=0.05)
    tight = ProblemData.build(
        grid=data.grid,
        scenarios=data.scenarios,
        constraint=data.constraint,
        risk=data.risk,
        y_d=data.y_d,
        mu_tik=data.mu_tik,
        lo=-0.2,
        hi=0.2,
    )
    res = minimize(tight, 100.0, SolveOptions(tol_stationarity=1e-10))
    assert np.all(res.x1_opt >= tight.lo - 1e-15)
    assert np.all(res.x1_opt <= tight.hi + 1e-15)


def test_active_bounds_produce_normal_cone_element():
    data = make_problem(n=11, bound=10.0, mu_tik=1e-4)
    # loose regularization and a strong target push some controls to the bounds
    tight = ProblemData.build(
        grid=data.grid,
        scenarios=data.scenarios,
        constraint=data.constraint,
        risk=data.risk,
        y_d=5.0 * data.y_d,
        mu_tik=1e-4,
        lo=-0.5,
        hi=0.5,
    )
    res = minimize(tight, 1.0, SolveOptions(tol_stationarity=1e-10))
    assert res.converged
    active = (res.x1_opt <= tight.lo + 1e-9) | (res.x1_opt >= tight.hi - 1e-9)
    assert np.any(active)
    assert np.allclose(res.bundle.gradient[active] + res.xi[active], 0.0)
    assert np.allclose(res.xi[~active], 0.0)


def test_warm_start_helps():
    data = make_problem(n=15, bound=0.05)
    opts = SolveOptions(tol_stationarity=1e-9)
    cold = minimize(data, 1000.0, opts)
    warm = minimize(data, 1000.0, opts, warm_start=cold.x1_opt)
    assert warm.converged
    assert warm.iterations <= max(5, cold.iterations // 2)
    assert abs(warm.bundle.j_gamma - cold.bundle.j_gamma) <= 1e-10 * max(1.0, cold.bundle.j_gamma)


def test_stationarity_residual_examples():
    data, x_star = make_recovery_problem()
    assert stationarity_residual(data, 1.0, x_star) <= 1e-10
    assert stationarity_residual(data, 1.0, x_star + 1.0) > 1e-3


def test_unconverged_run_is_flagged_not_raised():
    data = make_problem(n=15, bound=0.05)
    res = minimize(data, 1e6, SolveOptions(max_iters=3, tol_stationarity=1e-14))
    assert isinstance(res, SolveResult)
    assert not res.converged
    assert res.iterations == 3


def test_accelerated_solve_evaluates_each_point_once(monkeypatch):
    # the full evaluation at y already carries j_gamma, a check's gradient at x
    # serves a restart from x, and the last check evaluated the returned point
    calls = []

    def recording(name, fn):
        def wrapper(data, gamma, x1):
            value = fn(data, gamma, x1)
            calls.append((name, np.array(x1, dtype=float), value))
            return value
        return wrapper

    monkeypatch.setattr(obj_mod, "evaluate", recording("evaluate", obj_mod.evaluate))
    monkeypatch.setattr(obj_mod, "objective_only", recording("objective_only", obj_mod.objective_only))
    data = make_problem(n=15, seed=0, bound=0.05, mu_tik=0.01)  # restarts right after checks
    res = minimize(data, 100.0, SolveOptions(tol_stationarity=1e-9))
    assert res.converged and res.mode == "accelerated" and res.iterations > CHECK_EVERY
    for (first, x_first, _), (second, x_second, _) in zip(calls, calls[1:]):
        assert not (first == "evaluate" and np.array_equal(x_first, x_second)), (
            f"{second} called again on the point evaluate just saw"
        )
    evaluated = [x.tobytes() for name, x, _ in calls if name == "evaluate"]
    assert len(set(evaluated)) == len(evaluated), "evaluate called twice on one point"
    name, x_last, bundle = calls[-1]
    assert name == "evaluate" and bundle is res.bundle
    assert np.array_equal(x_last, res.x1_opt)


def test_invalid_options_rejected():
    with pytest.raises(ValueError):
        SolveOptions(tol_stationarity=0.0)
    with pytest.raises(ValueError):
        SolveOptions(max_iters=0)
