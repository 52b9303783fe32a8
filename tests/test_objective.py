import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest

import riskpath.objective as objective_mod
from riskpath import cone, risk
from riskpath.cone import ConstraintMap, bound_points
from riskpath.grid import DivergedError, Grid, dot_last, solve_state
from riskpath.kkt import check_limit_system
from riskpath.objective import (
    EvalBundle,
    ProblemData,
    evaluate,
    hessian_operator,
    objective_only,
    unpenalized_objective,
)
from riskpath.risk import RiskMeasure
from riskpath.scenario import ScenarioConfig, sample
from riskpath.solver import SolveOptions, minimize


def make_problem(
    n=15,
    n_scen=4,
    seed=2,
    bound=0.15,
    risk_kind="expectation",
    alpha=0.5,
    tau=1e-2,
    mu_tik=0.5,
    kind="mixed",
):
    grid = Grid(n)
    scen = sample(ScenarioConfig(n_scenarios=n_scen, seed=seed), grid.n_cells)
    bounds = np.full((n_scen, bound_points(kind, grid).size), float(bound))
    constraint = ConstraintMap(kind=kind, grid=grid, bounds=bounds, epsilon=0.05, delta=1e-6)
    y_d = 2.0 * grid.nodes * (1.0 - grid.nodes)
    return ProblemData(
        grid=grid,
        scenarios=scen,
        constraint=constraint,
        risk=RiskMeasure(kind=risk_kind, alpha=alpha, tau=tau),
        y_d=y_d,
        mu_tik=mu_tik,
        lo=-50.0,
        hi=50.0,
    )


def test_zero_control_costs_are_pure_tracking():
    data = make_problem(bound=10.0)  # slack bound: penalty inactive
    b = evaluate(data, 1.0, np.zeros(15))
    assert b.j1 == 0.0
    assert b.penalty_term == 0.0
    # states vanish, so each scenario cost is the tracking norm of y_d
    track = 0.5 * data.grid.inner(data.y_d, data.y_d)
    assert np.allclose(b.scenario_costs, track)
    assert b.j_gamma == pytest.approx(track)


def test_slack_bound_matches_unconstrained_gradient():
    # with the constraint inactive the reduced gradient must be blind to gamma
    data = make_problem(bound=10.0)
    rng = np.random.Generator(np.random.Philox(1))
    x = rng.standard_normal(15)
    g1 = evaluate(data, 1.0, x)
    g2 = evaluate(data, 1e6, x)
    assert g1.penalty_term == 0.0 and g2.penalty_term == 0.0
    assert np.array_equal(g1.gradient, g2.gradient)
    for lam in g1.lambda_i:
        assert np.allclose(lam, 0.0)


@pytest.mark.parametrize("kind", ["mixed", "volume", "gradient"])
def test_gradient_matches_finite_differences_expectation(kind):
    data = make_problem(bound=0.05, kind=kind)
    rng = np.random.Generator(np.random.Philox(3))
    x = rng.standard_normal(15)
    b = evaluate(data, 50.0, x)
    for _ in range(5):
        d = rng.standard_normal(15)
        eps = 1e-6
        fd = (objective_only(data, 50.0, x + eps * d) - objective_only(data, 50.0, x - eps * d)) / (2 * eps)
        an = float(np.dot(b.gradient, d))
        assert abs(fd - an) <= 1e-6 * max(1.0, abs(an))


def test_gradient_matches_finite_differences_smoothed_risk():
    data = make_problem(bound=0.05, risk_kind="avar-smooth", alpha=0.3, tau=1e-2)
    rng = np.random.Generator(np.random.Philox(4))
    x = rng.standard_normal(15)
    b = evaluate(data, 50.0, x)
    for _ in range(5):
        d = rng.standard_normal(15)
        eps = 1e-5
        fd = (objective_only(data, 50.0, x + eps * d) - objective_only(data, 50.0, x - eps * d)) / (2 * eps)
        an = float(np.dot(b.gradient, d))
        assert abs(fd - an) <= 1e-4 * max(1.0, abs(an))


@pytest.mark.parametrize("kind", ["mixed", "volume"])
@pytest.mark.parametrize("risk_kind", ["expectation", "avar-smooth"])
def test_hessian_product_matches_gradient_differences(kind, risk_kind):
    # affine constraints: the generalised Hessian is exact away from the kinks of max(0, i)
    data = make_problem(bound=0.01 if kind == "volume" else 0.05, kind=kind,
                        risk_kind=risk_kind, alpha=0.3, tau=1e-2, mu_tik=0.01)
    rng = np.random.Generator(np.random.Philox(14))
    x = 5.0 + rng.standard_normal(15)
    b = evaluate(data, 50.0, x)
    assert np.any(b.constraint_values > 0.0)  # the penalty is active somewhere
    assert np.min(np.abs(b.constraint_values)) > 1e-3  # and no difference crosses a kink
    hessian = hessian_operator(b)
    eps = 1e-5
    for _ in range(5):
        d = rng.standard_normal(15)
        fd = (evaluate(data, 50.0, x + eps * d).gradient
              - evaluate(data, 50.0, x - eps * d).gradient) / (2 * eps)
        assert np.linalg.norm(hessian(d) - fd) <= 1e-6 * np.linalg.norm(fd)


@pytest.mark.parametrize("kind", ["mixed", "volume", "gradient"])
@pytest.mark.parametrize("risk_kind", ["expectation", "avar", "avar-smooth"])
def test_hessian_product_is_symmetric_positive_definite(kind, risk_kind):
    # beyond the Tikhonov term mu_tik h I, the risk and penalty parts are
    # positive semidefinite (the gradient constraint in its Gauss-Newton form)
    data = make_problem(bound=0.05, kind=kind, risk_kind=risk_kind, alpha=0.3,
                        tau=1e-2, mu_tik=0.01)
    rng = np.random.Generator(np.random.Philox(15))
    b = evaluate(data, 100.0, 3.0 + 3.0 * rng.standard_normal(15))
    assert np.any(b.penalty_residuals > 0.0)
    hessian = hessian_operator(b)
    for _ in range(10):
        u, v = rng.standard_normal(15), rng.standard_normal(15)
        hu, hv = hessian(u), hessian(v)
        assert abs(np.dot(u, hv) - np.dot(v, hu)) <= 1e-12 * np.linalg.norm(hu) * np.linalg.norm(v)
        tikhonov = data.mu_tik * data.grid.h * np.dot(v, v)
        assert np.dot(v, hv) >= tikhonov * (1.0 - 1e-12)


def _boxed_problem(kind, risk_kind):
    """A problem whose penalty is active and whose control box is [-3, 3].

    Neither h = 1/13 nor the weights 1/3 are powers of two, so a reordered
    operation shows in the last bits.
    """
    data = make_problem(n=12, n_scen=3, bound=0.01 if kind == "volume" else 0.05, kind=kind,
                        risk_kind=risk_kind, alpha=0.3, tau=1e-2, mu_tik=0.01)
    return ProblemData(grid=data.grid, scenarios=data.scenarios, constraint=data.constraint,
                       risk=data.risk, y_d=data.y_d, mu_tik=data.mu_tik, lo=-3.0, hi=3.0)


KINDS = pytest.mark.parametrize("kind", ["mixed", "volume", "gradient"])
RISK_KINDS = pytest.mark.parametrize("risk_kind", ["expectation", "avar", "avar-smooth"])


def _within(got, previous, rel=1e-13):
    """The largest entrywise difference is at most rel times the largest entry of previous."""
    return np.max(np.abs(got - previous)) <= rel * np.max(np.abs(previous))


def _previous_adjoint(data, b):
    """The unscaled adjoint lambda_e of a bundle's point, as evaluate formed it before it kept
    p = -h lambda_e: the right-hand side divided by -h, then solved in place."""
    adj_y = cone.constraint_adjoints(
        data.constraint, cone.constraint_slope(data.constraint, b.states), b.lambda_i)
    lam_e = b.theta[:, None] * b.zeta2
    lam_e += adj_y
    lam_e /= -data.grid.h
    return solve_state(data.operator, lam_e, out=lam_e), adj_y


def _previous_rho_mean(data, lam_e, adj_y):
    """E[rho] = -h E[lambda_e] - coef E[i_x2^* lambda_i], as evaluate formed it from lambda_e."""
    w, coef = data.scenarios.weights, data.constraint.control_coefficient
    rho_mean = -data.grid.h * (w @ lam_e)
    if coef:
        rho_mean -= coef * (w @ adj_y)
    return rho_mean


def _control_adjoint_stack(data, lam):
    """i_x1^* lam as its own stack, as the previous formulas formed it: -epsilon h lam (mixed)."""
    if data.constraint.kind == "mixed":
        return -data.constraint.epsilon * data.grid.h * lam
    return np.zeros((lam.shape[0], data.grid.n_interior))


@KINDS
@RISK_KINDS
def test_evaluate_equals_previous_formula(kind, risk_kind):
    # the in-place adjoint solve and the one matrix-vector product per expectation
    # reproduce these formulas bit for bit
    data = _boxed_problem(kind, risk_kind)
    rng = np.random.Generator(np.random.Philox(16))
    x = data.clamp(3.0 + 3.0 * rng.standard_normal(12))
    b = evaluate(data, 100.0, x)
    h, w, coef = data.grid.h, data.scenarios.weights, data.constraint.control_coefficient
    states = solve_state(data.operator, x)
    zeta2 = h * (states - data.y_d)
    costs = 0.5 * data.grid.inner(states - data.y_d, states - data.y_d)
    theta = risk.subgradient(data.risk, costs, w).theta
    i_vals = cone.constraint_eval(data.constraint, x, states)
    lam_i = cone.penalty_multiplier(100.0, i_vals)
    adj_y = cone.constraint_adjoints(
        data.constraint, cone.constraint_slope(data.constraint, states), lam_i)
    p = solve_state(data.operator, theta[:, None] * zeta2 + adj_y)  # p = -h lambda_e
    rho_mean = w @ p - coef * (w @ adj_y) if coef else w @ p
    assert np.array_equal(b.zeta2, zeta2)
    assert np.array_equal(b.adjoints, p)
    assert np.array_equal(b.rho_mean, rho_mean)
    # the previous formula, with the unscaled adjoint lambda_e: h = 1/13 rounds differently
    lam_e = solve_state(data.operator, -(theta[:, None] * zeta2 + adj_y) / h)
    assert _within(b.adjoints, -h * lam_e)
    assert _within(b.rho_mean, _previous_rho_mean(data, lam_e, adj_y))
    assert np.array_equal(b.lambda_i, lam_i)
    assert np.array_equal(b.penalty_residuals, np.maximum(0.0, i_vals))
    assert np.array_equal(b.gradient, b.eta + rho_mean)
    assert b.risk_value == risk.evaluate(data.risk, costs, w)
    # the previous formula: rho with its control adjoint stack, weighted, summed over axis 0
    rho = -h * lam_e + _control_adjoint_stack(data, lam_i)
    assert _within(b.rho_mean, (w[:, None] * rho).sum(axis=0))
    # objective_only and unpenalized_objective read this one evaluation
    assert objective_only(data, 100.0, x) == b.j_gamma
    max_i = float(np.max(i_vals))
    assert unpenalized_objective(data, x) == (b.j1 + b.risk_value, max_i <= data.tol_feas,
                                             max(0.0, max_i))


def _product_parts(data, bundle, v):
    """(the adjoint solve y, the multiplier, the constraint adjoint's state part, the smoothed
    tail mean's rank-one term or zeros) of a Hessian product: fresh arrays, checked solves."""
    h, w = data.grid.h, data.scenarios.weights
    theta, i_slope = bundle.theta, cone.constraint_slope(data.constraint, bundle.states)
    curvature = bundle.gamma * (bundle.penalty_residuals > 0.0)
    d_states = solve_state(data.operator, v)
    d_lam = curvature * cone.constraint_jvp(data.constraint, i_slope, v, d_states)
    adj_y = cone.constraint_adjoints(data.constraint, i_slope, d_lam)
    y = solve_state(data.operator, theta[:, None] * h * d_states + adj_y)
    tail = np.zeros_like(v)
    if data.risk.kind == "avar-smooth":
        grad_j = solve_state(data.operator, bundle.zeta2)
        slope = w * theta * (1.0 - data.risk.alpha * theta) / data.risk.tau
        total = float(slope.sum())
        if total > 0.0:
            dj = grad_j @ v
            tail = (slope * (dj - np.dot(slope, dj) / total)) @ grad_j
    return y, d_lam, adj_y, tail


def _product_formula(data, bundle, v):
    """The generalised Hessian product, each expectation one matrix-vector product."""
    y, _, adj_y, tail = _product_parts(data, bundle, v)
    w, coef = data.scenarios.weights, data.constraint.control_coefficient
    hv = w @ y - coef * (w @ adj_y) if coef else w @ y
    hv += data.mu_tik * data.grid.h * v
    return hv + tail if data.risk.kind == "avar-smooth" else hv


def _product_with_control_stack(data, bundle, v):
    """The product as formed before: rho = y + i_x1^* d_lam per scenario, weighted, summed."""
    y, d_lam, _, tail = _product_parts(data, bundle, v)
    rho = y + _control_adjoint_stack(data, d_lam)
    weighted_sum = (data.scenarios.weights[:, None] * rho).sum(axis=0)
    return data.mu_tik * data.grid.h * v + weighted_sum + tail


@KINDS
@RISK_KINDS
def test_hessian_product_equals_previous_formula(kind, risk_kind):
    data = _boxed_problem(kind, risk_kind)
    rng = np.random.Generator(np.random.Philox(17))
    x = data.clamp(1.0 + 5.0 * rng.standard_normal(12))
    b = evaluate(data, 100.0, x)
    assert np.any(b.penalty_residuals > 0.0)
    at_bound = (x <= data.lo) | (x >= data.hi)
    assert np.any(at_bound) and not np.all(at_bound)
    hessian = hessian_operator(b)
    directions = list(rng.standard_normal((3, 12)))
    # a Newton step restricts its CG directions to the free nodes
    directions.append(np.where(at_bound, 0.0, directions[0]))
    products = [hessian(v) for v in directions]  # every product reuses its work arrays
    for v, hv in zip(directions, products):
        assert np.array_equal(hv, _product_formula(data, b, v))
        assert _within(hv, _product_with_control_stack(data, b, v))


def test_objective_only_consistent_with_full_evaluation():
    data = make_problem(bound=0.05)
    rng = np.random.Generator(np.random.Philox(5))
    for gamma in (1.0, 1e3):
        x = rng.standard_normal(15)
        b = evaluate(data, gamma, x)
        assert objective_only(data, gamma, x) == b.j_gamma


def test_penalized_objective_monotone_in_gamma():
    data = make_problem(bound=0.05)
    rng = np.random.Generator(np.random.Philox(6))
    x = rng.standard_normal(15)
    vals = [objective_only(data, g, x) for g in (1.0, 10.0, 100.0, 1e4)]
    assert all(a <= b + 1e-14 for a, b in zip(vals, vals[1:]))


def test_penalized_objective_sandwich():
    # j(x) <= j^gamma(x) <= j(x) + penalty, and at a feasible point they agree
    data = make_problem(bound=10.0)
    rng = np.random.Generator(np.random.Philox(7))
    x = 0.1 * rng.standard_normal(15)
    j, feasible, viol = unpenalized_objective(data, x)
    assert feasible and viol == 0.0
    assert objective_only(data, 1e5, x) == pytest.approx(j, abs=1e-14)


def test_penalized_objective_is_convex():
    data = make_problem(bound=0.05)
    rng = np.random.Generator(np.random.Philox(8))
    for _ in range(20):
        a = rng.standard_normal(15)
        b = rng.standard_normal(15)
        mid = objective_only(data, 10.0, 0.5 * (a + b))
        assert mid <= 0.5 * (objective_only(data, 10.0, a) + objective_only(data, 10.0, b)) + 1e-10


def test_strong_convexity_from_tikhonov():
    # along segments the objective exceeds the chord gap by mu_tik/8 ||a-b||_h^2
    data = make_problem(bound=10.0, mu_tik=2.0)
    rng = np.random.Generator(np.random.Philox(9))
    for _ in range(10):
        a = rng.standard_normal(15)
        b = rng.standard_normal(15)
        gap = 0.5 * (objective_only(data, 1.0, a) + objective_only(data, 1.0, b)) - objective_only(
            data, 1.0, 0.5 * (a + b)
        )
        d = a - b
        assert gap >= 0.125 * data.mu_tik * data.grid.inner(d, d) - 1e-12


def test_zeta2_is_mass_weighted_tracking_residual():
    data = make_problem(bound=0.05)
    rng = np.random.Generator(np.random.Philox(10))
    x = rng.standard_normal(15)
    b = evaluate(data, 1.0, x)
    for k in range(data.scenarios.count):
        assert np.allclose(b.zeta2[k], data.grid.h * (b.states[k] - data.y_d))


def test_theta_is_risk_density():
    data = make_problem(bound=0.05, risk_kind="avar", alpha=0.5)
    rng = np.random.Generator(np.random.Philox(11))
    b = evaluate(data, 1.0, rng.standard_normal(15))
    assert np.all(b.theta >= 0.0)
    assert float(np.dot(data.scenarios.weights, b.theta)) == pytest.approx(1.0, abs=1e-12)


def test_rho_mean_matches_weighted_sum():
    data = make_problem(bound=0.05)
    rng = np.random.Generator(np.random.Philox(12))
    b = evaluate(data, 10.0, rng.standard_normal(15))
    w, coef = data.scenarios.weights, data.constraint.control_coefficient
    i_slope = cone.constraint_slope(data.constraint, b.states)
    adj_y = cone.constraint_adjoints(data.constraint, i_slope, b.lambda_i)
    assert coef == 0.05 and np.array_equal(b.rho_mean, w @ b.adjoints - coef * (w @ adj_y))
    assert _within(b.rho_mean, _previous_rho_mean(data, *_previous_adjoint(data, b)))
    # the scenario loop over rho = p + i_x1^* lambda_i, p = -h lambda_e
    rho = b.adjoints + _control_adjoint_stack(data, b.lambda_i)
    direct = sum(p * r for p, r in zip(w, rho))
    assert _within(b.rho_mean, direct)
    assert np.allclose(b.gradient, b.eta + direct)


def test_unpenalized_objective_flags_violation():
    data = make_problem(bound=1e-6)
    x = np.full(15, -5.0)  # strong negative source pushes the state up
    j, feasible, viol = unpenalized_objective(data, x)
    assert not feasible
    assert viol > 0.0


def test_invalid_gamma_rejected():
    data = make_problem()
    with pytest.raises(ValueError):
        evaluate(data, 0.0, np.zeros(15))
    with pytest.raises(ValueError):
        objective_only(data, -1.0, np.zeros(15))


def test_clamp_respects_bounds():
    data = make_problem()
    x = np.linspace(-100.0, 100.0, 15)
    c = data.clamp(x)
    assert np.all(c >= data.lo) and np.all(c <= data.hi)
    inside = (x >= data.lo) & (x <= data.hi)
    assert np.array_equal(c[inside], x[inside])


def flip_adjoint_sign(monkeypatch):
    """Negate every in-place solve of objective: in evaluate, only the adjoint's is one."""
    real_solve = objective_mod.solve_state

    def flipped(op, rhs, out=None, check=True):
        u = real_solve(op, rhs, out=out, check=check)
        if out is rhs:
            u *= -1.0
        return u

    monkeypatch.setattr(objective_mod, "solve_state", flipped)


def test_adjoint_sign_hook_breaks_gradient(monkeypatch):
    data = make_problem(bound=0.05)
    rng = np.random.Generator(np.random.Philox(13))
    x = rng.standard_normal(15)
    d = rng.standard_normal(15)
    eps = 1e-6
    fd = (objective_only(data, 50.0, x + eps * d) - objective_only(data, 50.0, x - eps * d)) / (2 * eps)
    good = evaluate(data, 50.0, x)
    flip_adjoint_sign(monkeypatch)
    bad = evaluate(data, 50.0, x)
    assert np.array_equal(bad.adjoints, -good.adjoints)
    assert _within(-good.adjoints, data.grid.h * _previous_adjoint(data, good)[0])
    assert abs(fd - float(np.dot(bad.gradient, d))) > 1e-3


def test_clamp_is_np_clip_bit_for_bit():
    # nodewise bounds with signed zeros, subnormals and infinities; NaN stays NaN
    data = make_problem()
    values = np.array([-np.inf, -50.0, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0, 50.0, np.inf])
    points = np.append(values, np.nan)
    rng = np.random.Generator(np.random.Philox(21))
    for _ in range(300):
        a, b = rng.choice(values, 15), rng.choice(values, 15)
        d = dataclasses.replace(data, lo=np.minimum(a, b), hi=np.maximum(a, b))
        x = rng.choice(points, 15)
        assert d.clamp(x).tobytes() == np.clip(x, d.lo, d.hi).tobytes()


@pytest.mark.parametrize("n", [15, 63])
@KINDS
@RISK_KINDS
def test_the_mass_weighted_adjoint_is_the_previous_one_bit_for_bit(n, kind, risk_kind):
    # h = 1/16 and 1/64: scaling by -h commutes exactly with the solve and the sums,
    # so keeping p = -h lambda_e moves no bit of the gradient or of the KKT report
    data = make_problem(n=n, n_scen=3, bound=0.01 if kind == "volume" else 0.05, kind=kind,
                        risk_kind=risk_kind, alpha=0.3, mu_tik=0.01)
    h, w, op = data.grid.h, data.scenarios.weights, data.operator
    x = 1.0 + 3.0 * np.random.Generator(np.random.Philox(18)).standard_normal(n)
    b = evaluate(data, 100.0, x)
    assert np.any(b.penalty_residuals > 0.0)
    lam_e, adj_y = _previous_adjoint(data, b)
    rho_mean = _previous_rho_mean(data, lam_e, adj_y)
    assert b.adjoints.tobytes() == (-h * lam_e).tobytes()
    assert b.rho_mean.tobytes() == rho_mean.tobytes()
    assert b.gradient.tobytes() == (b.eta + rho_mean).tobytes()
    # the report's three adjoint quantities as it formed them from lambda_e, each max of
    # row norms as sqrt(h max(dot_last))

    def max_norm(u):
        return math.sqrt(h * float(dot_last(u, u).max()))

    coef = data.constraint.control_coefficient
    rho = -h * lam_e - coef * adj_y if coef else -h * lam_e
    residual = b.theta[:, None] * b.zeta2 + h * op.matvec(lam_e) + adj_y
    report = check_limit_system(b)
    assert report.adjoint_l1 == float(np.dot(w, h * np.abs(lam_e).sum(axis=-1)))
    assert report.rho_per_scenario_max == max_norm(rho)
    assert report.adjoint_residual == max_norm(residual)
    assert report.rho_mean_norm == max_norm(rho_mean)


PRODUCT_CASES = [("mixed", "expectation", 0.05), ("gradient", "avar-smooth", 0.05),
                 ("volume", "avar", 0.01)]


@pytest.mark.parametrize("kind,risk_kind,bound", PRODUCT_CASES)
def test_hessian_product_is_bit_identical_to_two_checked_solves(kind, risk_kind, bound):
    data = make_problem(bound=bound, kind=kind, risk_kind=risk_kind, alpha=0.25, mu_tik=0.01)
    rng = np.random.Generator(np.random.Philox(5))
    active = 0
    for gamma in (1.0, 1e3, 1e6):
        bundle = evaluate(data, gamma, rng.standard_normal(15))
        active += np.count_nonzero(bundle.penalty_residuals)
        product = hessian_operator(bundle)
        for _ in range(3):
            v = rng.standard_normal(15)
            # _product_formula checks both of its solves
            assert product(v).tobytes() == _product_formula(data, bundle, v).tobytes()
            assert _within(product(v), _product_with_control_stack(data, bundle, v))
    assert active > 0  # the penalty curvature took part


@pytest.mark.parametrize("kind", ["mixed", "volume", "gradient"])
def test_non_finite_state_direction_raises_at_the_adjoint_solve(kind, monkeypatch):
    # the state solve of a product is not checked; its inf reaches the adjoint solve
    data = make_problem(bound=0.05, kind=kind, mu_tik=0.01)
    product = hessian_operator(evaluate(data, 1e3, np.ones(15)))
    checks = []
    real_solve = objective_mod.solve_state
    monkeypatch.setattr(objective_mod, "solve_state", lambda *a, check=True, **kw: (
        checks.append(check) or real_solve(*a, check=check, **kw)))
    v = np.zeros(15)
    v[7] = np.inf
    with pytest.raises(DivergedError):
        product(v)
    stack = np.eye(15)  # and in one column of a stack of directions
    stack[4, 7] = np.inf
    with pytest.raises(DivergedError):
        product(stack)
    assert checks == [False, True] * 2


def _assert_same_bundle(got, want):
    # the stored fields but the problem evaluated (a reference, not a value), and the derived arrays
    names = [f.name for f in dataclasses.fields(EvalBundle) if f.name != "data"]
    for name in names + ["penalty_residuals", "lambda_i"]:
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes(), name


@pytest.mark.parametrize("kind,risk_kind,bound", PRODUCT_CASES)
def test_evaluate_reusing_a_bundle_is_bit_identical(kind, risk_kind, bound):
    # the control half of a bundle at one gamma serves the same control at another
    data = make_problem(bound=bound, kind=kind, risk_kind=risk_kind, alpha=0.25, mu_tik=0.01)
    x = 2.0 + np.random.Generator(np.random.Philox(8)).standard_normal(15)
    before = evaluate(data, 10.0, x)
    reused, fresh = evaluate(data, 1e3, before), evaluate(data, 1e3, x)
    assert np.any(fresh.penalty_residuals > 0.0)
    _assert_same_bundle(reused, fresh)


@pytest.mark.parametrize("changed", ["scenarios", "constraint"])
def test_replaced_input_evaluates_like_a_fresh_problem(changed):
    # the factor and the cone are derived from the inputs, so replace cannot keep stale ones
    data = make_problem(n=15, n_scen=4, seed=1, bound=0.15)
    fresh = (make_problem(n=15, n_scen=4, seed=2, bound=0.15) if changed == "scenarios"
             else make_problem(n=15, n_scen=4, seed=1, bound=0.15, kind="volume"))
    replaced = dataclasses.replace(data, **{changed: getattr(fresh, changed)})
    x = np.full(15, 5.0)
    _assert_same_bundle(evaluate(replaced, 100.0, x), evaluate(fresh, 100.0, x))
    assert evaluate(replaced, 100.0, x).j_gamma != evaluate(data, 100.0, x).j_gamma


def test_derived_fields_are_not_inputs():
    data = make_problem()
    for name in ("operator", "cone"):
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(data, **{name: getattr(data, name)})


@pytest.mark.parametrize("name,value", [
    ("lo", np.nan), ("hi", np.nan), ("mu_tik", np.nan), ("mu_tik", 0.0), ("lo", 60.0),
    ("tol_feas", np.nan), ("tol_feas", -1.0)])
def test_invalid_input_rejected(name, value):
    # NaN fails every ordering comparison, so each check passes only for numbers
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        dataclasses.replace(make_problem(), **{name: value})


@pytest.mark.parametrize("part,name,value", [
    ("constraint", "epsilon", np.nan), ("constraint", "delta", np.nan), ("risk", "tau", np.nan),
    ("risk", "tau", np.inf), ("config", "a0", np.nan), ("config", "a_min", np.nan),
    ("config", "sigma", (np.nan, 0.15)), ("cone", "weight", np.nan),
    ("scenarios", "weights", np.array([np.nan, 0.5, 0.5, 0.0]))])
def test_parts_reject_nan_parameters(part, name, value):
    # each would surface only later, as a divergence of the solve (tau = inf too)
    data = make_problem(kind="gradient", risk_kind="avar-smooth")
    parts = {"constraint": data.constraint, "risk": data.risk, "scenarios": data.scenarios,
             "cone": data.cone, "config": ScenarioConfig(n_scenarios=4, seed=2)}
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        dataclasses.replace(parts[part], **{name: value})


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["mixed", "volume", "gradient", "y_d"])
def test_non_finite_problem_data_rejected(kind, value):
    # a constraint bound of each kind, or y_d: built, each would surface only later, as a
    # diverging solve or (a +inf mixed bound) a NaN complementarity in the KKT report
    data = make_problem(kind="mixed" if kind == "y_d" else kind)
    part, name = (data, "y_d") if kind == "y_d" else (data.constraint, "bounds")
    array = getattr(part, name).copy()
    array.flat[-1] = value
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        dataclasses.replace(part, **{name: array})


def test_inconsistent_parts_rejected():
    # parts built for another grid or scenario count are named, not broadcast
    data = make_problem(bound=0.05)  # 15 nodes, 4 scenarios, 15 bound points
    cmap, bounds = data.constraint, data.constraint.bounds
    for name, parts in (
        ("constraint.grid", {"constraint": dataclasses.replace(cmap, grid=Grid(31))}),
        ("constraint.bounds", {"constraint": dataclasses.replace(cmap, bounds=bounds[:1])}),
        ("constraint.bounds", {"constraint": dataclasses.replace(cmap, bounds=bounds[:, :1])}),
        ("y_d", {"y_d": data.y_d[:1]}),
    ):
        with pytest.raises(ValueError, match=rf"^{name} "):
            dataclasses.replace(data, **parts)


def test_array_holders_compare_by_identity():
    # arrays give no single truth value, so these dataclasses compare as objects
    data = make_problem()
    result = minimize(data, 10.0, SolveOptions(max_iters=1))
    for value in (data, data.scenarios, data.constraint, data.operator, result.bundle, result):
        assert value == value and value != dataclasses.replace(value)
        assert len({value, dataclasses.replace(value)}) == 2


@pytest.mark.parametrize("kind", ["mixed", "volume", "gradient"])
@pytest.mark.parametrize("risk_kind", ["expectation", "avar", "avar-smooth"])
def test_batched_product_equals_single_products(kind, risk_kind):
    # a stack of directions (m, n) gives each row's product: bit for bit where
    # the risk weights are frozen, to round-off through the smoothed tail
    # mean's rank-one term, whose stacked matrix products round differently
    bound = 0.01 if kind == "volume" else 0.05
    data = make_problem(bound=bound, kind=kind, risk_kind=risk_kind, alpha=0.25, mu_tik=0.01)
    rng = np.random.Generator(np.random.Philox(17))
    active = 0
    for gamma in (1.0, 1e3, 1e6):
        bundle = evaluate(data, gamma, rng.standard_normal(15))
        active += np.count_nonzero(bundle.penalty_residuals)
        product = hessian_operator(bundle)
        for stack in (rng.standard_normal((7, 15)), np.eye(15)):
            batched = product(stack)
            single = np.array([product(v) for v in stack])
            assert batched.shape == stack.shape
            if risk_kind == "avar-smooth":
                assert np.max(np.abs(batched - single)) <= 1e-14 * np.max(np.abs(single))
            else:
                assert batched.tobytes() == single.tobytes()
    assert active > 0



@pytest.mark.parametrize("kind", ["mixed", "volume", "gradient"])
def test_a_hessian_product_allocates_less_than_one_stack(kind):
    # the operator owns one direction's states, multiplier and constraint adjoint, and a
    # product forms no control-adjoint stack; numpy's ufunc buffers (at most 64 KB) are a
    # quarter stack at this size. The gradient kind's adjoint also forms d lam on the
    # n + 1 cells. At the parent one product allocated 3.26 / 2.27 / 4.02 stacks.
    k, n = 256, 127
    data = make_problem(n=n, n_scen=k, bound=0.01 if kind == "volume" else 0.05, kind=kind)
    bundle = evaluate(data, 1e3, np.full(n, 5.0))
    assert np.any(bundle.penalty_residuals > 0.0)
    product = hessian_operator(bundle)
    v = np.random.Generator(np.random.Philox(3)).standard_normal(n)
    extra = k * (n + 1) * 8 if kind == "gradient" else 0
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        gc.collect()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        product(v)
        allocated = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert allocated < k * n * 8 + extra, allocated / (k * n * 8)
