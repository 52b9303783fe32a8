import dataclasses

import numpy as np
import pytest

import riskpath.objective as obj_mod
import riskpath.solver as solver_mod
from riskpath.grid import solve_state
from riskpath.objective import ProblemData, evaluate, objective_only
from riskpath.solver import (
    SolveOptions,
    SolveResult,
    minimize,
)

import reference
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
    return ProblemData(
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
    return res.bundle.x1


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
    fixed = ProblemData(
        grid=data.grid,
        scenarios=data.scenarios,
        constraint=data.constraint,
        risk=data.risk,
        y_d=data.y_d,
        mu_tik=data.mu_tik,
        lo=0.7,
        hi=0.7,
    )
    # the stopping test ends the loop: x - clamp(x - g) is exactly 0 on a one-point box
    seen = []
    res = minimize(fixed, 10.0, SolveOptions(), callback=lambda *args: seen.append(args))
    assert res.iterations == 0
    assert res.converged and res.stationarity_norm == 0.0
    assert np.allclose(res.bundle.x1, 0.7)
    assert [args[0] for args in seen] == [0]


def test_methods_agree_on_strongly_convex_instances():
    # well conditioned instances: Newton and the reference agree in objective and control
    for seed in (1, 2, 3):
        data = make_problem(n=11, seed=seed, bound=0.1, mu_tik=1.0)
        newton = minimize(data, 100.0, SolveOptions(tol_stationarity=1e-9, max_iters=20000))
        ref = reference_minimize(data, 100.0)
        assert newton.converged
        assert abs(newton.bundle.j_gamma - ref.fun) <= 1e-8 * max(1.0, abs(newton.bundle.j_gamma))
        assert np.max(np.abs(newton.bundle.x1 - ref.x)) <= 1e-5


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
    tight = ProblemData(
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
    assert np.all(res.bundle.x1 >= tight.lo - 1e-15)
    assert np.all(res.bundle.x1 <= tight.hi + 1e-15)


def test_active_bounds_produce_normal_cone_element():
    data = make_problem(n=11, bound=10.0, mu_tik=1e-4)
    # loose regularization and a strong target push some controls to the bounds
    tight = ProblemData(
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
    at_lo = res.bundle.x1 <= tight.lo + 1e-9
    at_hi = res.bundle.x1 >= tight.hi - 1e-9
    assert np.any(at_lo | at_hi)
    # -gradient lies in the normal cone of the box: it points out of each active bound
    g = res.bundle.gradient
    assert np.all(g[at_lo] >= 0.0) and np.all(g[at_hi] <= 0.0)


def test_warm_start_helps():
    data = make_problem(n=15, bound=0.05)
    opts = SolveOptions(tol_stationarity=1e-9)
    cold = minimize(data, 1000.0, opts)
    warm = minimize(data, 1000.0, opts, warm_start=cold.bundle.x1)
    assert warm.converged
    assert warm.iterations <= max(5, cold.iterations // 2)
    assert abs(warm.bundle.j_gamma - cold.bundle.j_gamma) <= 1e-10 * max(1.0, cold.bundle.j_gamma)


def test_stationarity_residual_examples():
    # the projected-gradient step x - clamp(x - g) vanishes exactly at KKT points
    data, x_star = make_recovery_problem()

    def residual(x):
        return data.grid.norm(x - data.clamp(x - evaluate(data, 1.0, x).gradient))

    assert residual(x_star) <= 1e-10
    assert residual(x_star + 1.0) > 1e-3


def test_unconverged_run_is_flagged_not_raised():
    # Newton needs several steps here (the gradient bound is nonlinear), so a
    # budget of one runs out
    data = make_problem(n=15, bound=0.05, mu_tik=0.01, kind="gradient")
    res = minimize(data, 1.0, SolveOptions(max_iters=1, tol_stationarity=1e-14))
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
    # three steps and two rejected trial points (see the backtracks test)
    data = make_problem(n=15, bound=0.05, mu_tik=0.01, kind="gradient")
    res = minimize(data, 1.0, SolveOptions(tol_stationarity=1e-9))
    assert res.converged and res.iterations > 1 and res.backtracks > 0
    assert [name for name, _, _ in calls] == ["evaluate"] * len(calls)
    evaluated = [x.tobytes() for _, x, _ in calls]
    assert len(set(evaluated)) == len(evaluated), "evaluate called twice on one point"
    _, x_last, bundle = calls[-1]
    assert bundle is res.bundle
    assert np.array_equal(x_last, res.bundle.x1)


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


def _masked_direction(bundle, stat, tol_stationarity):
    # the CG step of _newton_direction: -g on the binding bounds, CG on the free set
    data, x, g = bundle.data, bundle.x1, bundle.gradient
    eps = min(solver_mod.BINDING_EPS, stat)
    free = ~(((x <= data.lo + eps) & (g > 0.0)) | ((x >= data.hi - eps) & (g < 0.0)))
    hessian = obj_mod.hessian_operator(bundle)
    v = np.zeros_like(x)

    def product(p):
        v[free] = p
        return hessian(v)[free]

    direction = -g
    norm = float(np.linalg.norm(g[free]))
    floor = solver_mod.CG_MARGIN * tol_stationarity / np.sqrt(data.grid.h)
    tol = max(min(solver_mod.ETA_MAX, np.sqrt(norm)) * norm, floor)
    direction[free], products = solver_mod._conjugate_gradients(product, -g[free], tol, x.size)
    return direction, products


def make_cg_problem(**kwargs):
    # 16 K n n above DENSE_WORK: every step takes CG
    data = make_problem(n=31, n_scen=16, **kwargs)
    assert data.operator.diag.size * 31 > solver_mod.DENSE_WORK
    return data


@pytest.mark.parametrize("kind,risk_kind", [("mixed", "expectation"), ("gradient", "avar-smooth")])
def test_unmasked_newton_direction_is_bit_identical(kind, risk_kind):
    # with no bound binding the free set is every variable, and above DENSE_WORK
    # the step is CG's on it
    data = make_cg_problem(bound=0.05, mu_tik=0.01, kind=kind, risk_kind=risk_kind, alpha=0.25)
    rng = np.random.Generator(np.random.Philox(9))
    for gamma in (1.0, 1e3, 1e6):
        x = rng.standard_normal(31)  # far inside the box [-50, 50]: no bound binds
        bundle = evaluate(data, gamma, x)
        stat = solver_mod._stationarity(bundle)
        direction, products = solver_mod._newton_direction(bundle, stat, 1e-8)
        expected, expected_products = _masked_direction(bundle, stat, 1e-8)
        assert np.array_equal(direction, expected) and products == expected_products > 0


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


def test_the_reference_refuses_a_run_that_stopped_short(monkeypatch):
    # a loose relative-reduction test ends L-BFGS-B with success, far from the minimiser
    data = make_problem(n=15, bound=0.05, mu_tik=0.01)
    monkeypatch.setitem(reference.OPTIONS, "ftol", 1e-3)
    with pytest.raises(AssertionError, match="stopped short"):
        reference_minimize(data, 100.0)


def test_invalid_options_rejected():
    with pytest.raises(ValueError):
        SolveOptions(tol_stationarity=0.0)
    with pytest.raises(ValueError, match="tol_stationarity"):  # else no solve could converge
        SolveOptions(tol_stationarity=np.nan)
    with pytest.raises(ValueError):
        SolveOptions(max_iters=0)


@pytest.mark.parametrize("kind", ["mixed", "volume", "gradient"])
def test_non_finite_state_direction_in_a_product_is_divergence(kind, monkeypatch):
    # a direction with an inf entry: only the product's adjoint solve checks, and
    # minimize reports what it raises as a divergence
    data = make_cg_problem(bound=0.05, mu_tik=0.01, kind=kind)
    real = obj_mod.hessian_operator

    def poisoned(bundle):
        product = real(bundle)
        return lambda v: product(np.where(np.arange(v.size) == 7, np.inf, v))

    monkeypatch.setattr(obj_mod, "hessian_operator", poisoned)
    with pytest.raises(solver_mod.DivergedError):
        minimize(data, 1e3, SolveOptions())


def test_warm_start_from_a_bundle_equals_warm_start_from_its_control():
    # the start evaluation reuses the bundle's control half: the same solve, bit for bit
    data = make_problem(n=15, bound=0.05, mu_tik=0.01, kind="gradient", risk_kind="avar-smooth",
                        alpha=0.25)
    first = minimize(data, 10.0, SolveOptions())
    from_bundle = minimize(data, 1e3, SolveOptions(), warm_start=first.bundle)
    from_control = minimize(data, 1e3, SolveOptions(), warm_start=first.bundle.x1)
    assert from_bundle.iterations == from_control.iterations > 0
    assert from_bundle.hessian_products == from_control.hessian_products
    assert from_bundle.bundle.x1.tobytes() == from_control.bundle.x1.tobytes()
    assert from_bundle.bundle.j_gamma == from_control.bundle.j_gamma


def test_warm_start_from_another_problems_bundle_equals_warm_start_from_its_control():
    # shifted bounds, as an augmented Lagrangian step makes them: the bundle's constraint
    # values are the old problem's, so only its control carries over
    data = make_problem(n=15, bound=0.05, mu_tik=0.01)
    first = minimize(data, 1e3, SolveOptions())
    shifted = dataclasses.replace(data, constraint=dataclasses.replace(
        data.constraint, bounds=data.constraint.bounds - 0.02))
    assert evaluate(shifted, 1e3, first.bundle).j_gamma == evaluate(
        shifted, 1e3, first.bundle.x1).j_gamma
    from_bundle = minimize(shifted, 1e3, SolveOptions(), warm_start=first.bundle)
    from_control = minimize(shifted, 1e3, SolveOptions(), warm_start=first.bundle.x1)
    assert from_bundle.iterations == from_control.iterations > 0
    assert from_bundle.bundle.x1.tobytes() == from_control.bundle.x1.tobytes()
    assert from_bundle.bundle.j_gamma == from_control.bundle.j_gamma


@pytest.mark.parametrize("kind,risk_kind", [("mixed", "expectation"), ("gradient", "avar-smooth"),
                                            ("volume", "avar")])
def test_dense_direction_solves_the_newton_system(kind, risk_kind):
    # 4 n n = 900 <= DENSE_WORK and no bound binds: the exact Newton direction,
    # counted as its n products, which CG run to its round-off floor approaches
    bound = 0.01 if kind == "volume" else 0.05
    data = make_problem(n=15, bound=bound, mu_tik=0.01, kind=kind, risk_kind=risk_kind, alpha=0.25)
    rng = np.random.Generator(np.random.Philox(19))
    for gamma in (1.0, 1e3, 1e6):
        x = rng.standard_normal(15)
        bundle = evaluate(data, gamma, x)
        stat = solver_mod._stationarity(bundle)
        direction, products = solver_mod._newton_direction(bundle, stat, 1e-8)
        assert products == 15
        product, g = obj_mod.hessian_operator(bundle), bundle.gradient
        hessian = np.array([product(e) for e in np.eye(15)])
        assert np.linalg.norm(hessian @ direction + g) <= 1e-12 * np.linalg.norm(hessian) * (
            np.linalg.norm(direction))
        cg, _ = solver_mod._conjugate_gradients(product, -g, 1e-14 * np.linalg.norm(g), 1000)
        assert np.linalg.norm(cg - direction) <= 1e-8 * np.linalg.norm(direction)


def test_non_finite_batched_column_is_divergence(monkeypatch):
    # an inf in a column of the stacked product reaches its checked adjoint solve
    data = make_problem(n=15, bound=0.05, mu_tik=0.01)
    real = obj_mod.hessian_operator

    def poisoned(bundle):
        product = real(bundle)
        return lambda v: product(np.where(np.arange(v.shape[-1]) == 7, np.inf, v))

    monkeypatch.setattr(obj_mod, "hessian_operator", poisoned)
    with pytest.raises(solver_mod.DivergedError):
        minimize(data, 1e3, SolveOptions())


def test_step_with_a_binding_bound_takes_cg(monkeypatch):
    # exact directions on binding steps were measured to cost more steps: where
    # the upper bound binds and the free gradient is above the stopping test,
    # the masked CG direction
    data = make_problem(n=15, bound=10.0, mu_tik=1e-4)
    tight = dataclasses.replace(data, y_d=5.0 * data.y_d, hi=20.0)
    x = minimize(tight, 1.0, SolveOptions(tol_stationarity=1e-10)).bundle.x1
    at_hi = x >= tight.hi
    assert 0 < at_hi.sum() < x.size
    shift = np.random.Generator(np.random.Philox(29)).uniform(0.5, 1.5, x.size)
    bundle = evaluate(tight, 1.0, np.where(at_hi, x, x - shift))  # the free variables move
    assert np.all(bundle.gradient[at_hi] < 0.0)  # pointing out of the box: the bound binds
    monkeypatch.setattr(solver_mod, "dposv", None)  # a call would raise
    stat = solver_mod._stationarity(bundle)
    assert stat > 1e-8
    direction, products = solver_mod._newton_direction(bundle, stat, 1e-8)
    expected, expected_products = _masked_direction(bundle, stat, 1e-8)
    assert np.array_equal(direction, expected) and products == expected_products > 0
    assert np.array_equal(direction[at_hi], -bundle.gradient[at_hi])


def _trial_points_read(monkeypatch, j_gamma):
    # the start point is evaluated as usual; every later point reads j_gamma(bundle)
    real, evaluations = obj_mod.evaluate, []

    def patched(data, gamma, x1):
        evaluations.append(x1)
        bundle = real(data, gamma, x1)
        if len(evaluations) == 1:
            return bundle
        return dataclasses.replace(bundle, j_gamma=j_gamma(bundle))

    monkeypatch.setattr(obj_mod, "evaluate", patched)
    return evaluations


def test_non_finite_objective_at_a_trial_point_is_divergence(monkeypatch):
    evaluations = _trial_points_read(monkeypatch, lambda bundle: np.inf)
    with pytest.raises(solver_mod.DivergedError, match="during line search"):
        minimize(make_problem(n=15, bound=0.05, mu_tik=0.01), 1e3, SolveOptions())
    assert len(evaluations) == 2


def test_line_search_that_rejects_every_trial_point_ends_unconverged(monkeypatch):
    # every trial point reads a larger j_gamma, beyond round-off: from the zero
    # control even the last trial step 2**-59 moves x, so all BACKTRACKS are counted
    evaluations = _trial_points_read(monkeypatch, lambda bundle: bundle.j_gamma + 1.0)
    res = minimize(make_problem(n=15, bound=0.05, mu_tik=0.01), 1e3, SolveOptions())
    assert not res.converged and res.iterations == 0
    assert res.backtracks == solver_mod.BACKTRACKS == len(evaluations) - 1
    assert not np.any(res.bundle.x1)  # the start point
    assert res.stationarity_norm == solver_mod._stationarity(res.bundle) > 1e-8


def test_cg_stops_on_non_positive_curvature_and_keeps_its_iterate():
    # the first direction b has positive curvature, the second none: CG keeps
    # the iterate of its first step and counts both products
    hessian = np.diag([2.0, -1.0])
    b = np.array([1.0, 0.1])
    seen = []

    def product(p):
        seen.append(p.copy())
        return hessian @ p

    d, products = solver_mod._conjugate_gradients(product, b, 1e-12, 10)
    rr = float(np.dot(b, b))
    assert products == 2 and np.dot(seen[1], hessian @ seen[1]) <= 0.0
    assert np.array_equal(d, rr / float(np.dot(b, hessian @ b)) * b)


def test_hessian_not_positive_definite_falls_back_to_cg(monkeypatch):
    # dposv's info > 0: CG takes the step, and the n formed columns still count
    data = make_problem(n=15, bound=0.05, mu_tik=0.01)
    x = np.random.Generator(np.random.Philox(23)).standard_normal(15)
    bundle = evaluate(data, 1e3, x)
    stat = solver_mod._stationarity(bundle)
    monkeypatch.setattr(solver_mod, "dposv", lambda a, b: (a, b, 3))
    direction, products = solver_mod._newton_direction(bundle, stat, 1e-8)
    expected, expected_products = _masked_direction(bundle, stat, 1e-8)
    assert np.array_equal(direction, expected) and products == 15 + expected_products
