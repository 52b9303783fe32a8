import numpy as np
import pytest

import riskpath.objective as obj_mod
from riskpath.grid import Grid, assemble, inner_h, norm_h, solve_state
from riskpath.objective import ProblemData, evaluate, objective_only
from riskpath.solver import (
    SolveOptions,
    SolveResult,
    minimize,
)

from reference import reference_minimize
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


def _newton_control(data, gamma):
    res = minimize(data, gamma, SolveOptions(tol_stationarity=1e-9, max_iters=20000))
    assert res.converged
    return res.x1_opt


@pytest.mark.parametrize(
    "solve,err_tol",
    [(_newton_control, 1e-7), (lambda data, gamma: reference_minimize(data, gamma).x, 1e-5)],
    ids=["newton", "reference"],
)
def test_recovers_manufactured_minimizer(solve, err_tol):
    # j_gamma is ~1.1e5 here: near x_star its decrease is below round-off
    data, x_star = make_recovery_problem()
    assert np.max(np.abs(solve(data, 1.0) - x_star)) <= err_tol


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
    # well conditioned instances: Newton and the reference agree in objective and control
    for seed in (1, 2, 3):
        data = make_problem(n=11, seed=seed, bound=0.1, mu_tik=1.0)
        newton = minimize(data, 100.0, SolveOptions(tol_stationarity=1e-9, max_iters=20000))
        ref = reference_minimize(data, 100.0)
        assert newton.converged
        assert abs(newton.bundle.j_gamma - ref.fun) <= 1e-8 * max(1.0, abs(newton.bundle.j_gamma))
        assert np.max(np.abs(newton.x1_opt - ref.x)) <= 1e-5


def test_newton_descends_monotonically():
    # a solve whose line search backtracks: no accepted step raises j_gamma
    data = make_problem(n=15, bound=0.05, mu_tik=0.01, kind="gradient")
    values = []
    res = minimize(
        data,
        100.0,
        SolveOptions(tol_stationarity=1e-12),
        callback=lambda it, f, stat, s, products: values.append(f),
    )
    assert res.backtracks > 0
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
    # the projected-gradient step x - clamp(x - g) vanishes exactly at KKT points
    data, x_star = make_recovery_problem()

    def residual(x):
        return norm_h(data.grid, x - data.clamp(x - evaluate(data, 1.0, x).gradient))

    assert residual(x_star) <= 1e-10
    assert residual(x_star + 1.0) > 1e-3


def test_unconverged_run_is_flagged_not_raised():
    # Newton needs three steps here, so a budget of one runs out
    data = make_problem(n=15, bound=0.05)
    res = minimize(data, 1e6, SolveOptions(max_iters=1, tol_stationarity=1e-14))
    assert isinstance(res, SolveResult)
    assert not res.converged
    assert res.iterations == 1


def test_solve_evaluates_each_point_once(monkeypatch):
    # each trial point of a line search gets one full evaluation, whose bundle
    # the next iteration takes, and the result carries the last one
    calls = []

    def recording(name, fn):
        def wrapper(data, gamma, x1):
            value = fn(data, gamma, x1)
            calls.append((name, np.array(x1, dtype=float), value))
            return value
        return wrapper

    monkeypatch.setattr(obj_mod, "evaluate", recording("evaluate", obj_mod.evaluate))
    monkeypatch.setattr(obj_mod, "objective_only", recording("objective_only", obj_mod.objective_only))
    data = make_problem(n=15, seed=1, bound=0.1, mu_tik=1.0)
    res = minimize(data, 100.0, SolveOptions(tol_stationarity=1e-9))
    assert res.converged and res.iterations > 1
    assert [name for name, _, _ in calls] == ["evaluate"] * len(calls)
    evaluated = [x.tobytes() for _, x, _ in calls]
    assert len(set(evaluated)) == len(evaluated), "evaluate called twice on one point"
    _, x_last, bundle = calls[-1]
    assert bundle is res.bundle
    assert np.array_equal(x_last, res.x1_opt)


def test_newton_counts_hessian_products():
    data = make_problem(n=15, bound=0.05)
    lines = []
    res = minimize(data, 100.0, SolveOptions(), callback=lambda *args: lines.append(args))
    assert res.converged
    assert [args[0] for args in lines] == list(range(res.iterations + 1))
    counts = [args[4] for args in lines]
    assert counts[0] == 0 and counts == sorted(counts)
    assert counts[-1] == res.hessian_products
    # at most one product per free variable and Newton step
    assert 0 < res.hessian_products <= res.iterations * 15


def test_backtracks_count_rejected_trial_points(monkeypatch):
    # every evaluation is the start point, an accepted step or a rejected trial
    # point; cold-started at gamma = 1 the gradient bound rejects two of them
    data = make_problem(n=15, bound=0.05, mu_tik=0.01, kind="gradient")
    evaluations = []

    def counted(data, gamma, x1):
        evaluations.append(x1)
        return evaluate(data, gamma, x1)

    monkeypatch.setattr(obj_mod, "evaluate", counted)
    res = minimize(data, 1.0, SolveOptions())
    assert res.converged and res.backtracks == 2
    assert res.backtracks == len(evaluations) - res.iterations - 1


@pytest.mark.parametrize("kind", ["mixed", "volume", "gradient"])
@pytest.mark.parametrize("risk_kind", ["expectation", "avar", "avar-smooth"])
def test_newton_agrees_with_reference(kind, risk_kind):
    bound = 0.01 if kind == "volume" else 0.05
    data = make_problem(n=15, bound=bound, risk_kind=risk_kind, mu_tik=0.01, kind=kind)
    newton = minimize(data, 100.0, SolveOptions(tol_stationarity=1e-9, max_iters=20000))
    ref = reference_minimize(data, 100.0)
    assert newton.converged
    assert np.any(newton.bundle.penalty_residuals > 0.0)  # the penalty is active
    scale = max(1.0, abs(ref.fun))
    assert abs(newton.bundle.j_gamma - ref.fun) <= 1e-8 * scale
    assert newton.iterations < ref.nit


def test_invalid_options_rejected():
    with pytest.raises(ValueError):
        SolveOptions(tol_stationarity=0.0)
    with pytest.raises(ValueError):
        SolveOptions(max_iters=0)
