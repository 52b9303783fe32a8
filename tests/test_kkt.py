import dataclasses

import numpy as np
import pytest

import riskpath.solver as solver_mod
from riskpath import cone
from riskpath.kkt import check_limit_system, concentration_index
from riskpath.objective import evaluate, hessian_operator
from riskpath.solver import SolveOptions, minimize

from test_manufactured import manufactured_problem
from test_objective import _previous_adjoint, make_problem


@pytest.fixture(scope="module")
def converged_run():
    # tuned so the state constraint is active at the optimum
    data = make_problem(n=15, bound=0.05, mu_tik=0.01)
    res = minimize(data, 100.0, SolveOptions(tol_stationarity=1e-9))
    assert res.converged
    return data, res


def test_gamma_system_residuals_small_at_solution(converged_run):
    data, res = converged_run
    rep = check_limit_system(res.bundle)
    b = res.bundle  # stationarity is the solver's, recomputed here from the bundle
    stationarity = data.grid.norm(b.x1 - data.clamp(b.x1 - b.gradient))
    assert stationarity <= 1e-8
    assert stationarity == res.stationarity_norm
    # structural equations are recomputed independently and must agree to
    # rounding, not merely to solver tolerance
    assert rep.adjoint_residual <= 1e-12
    assert rep.state_residual <= 1e-10


def test_adjoint_residual_detects_perturbed_adjoint(converged_run):
    data, res = converged_run
    bundle = evaluate(data, res.bundle.gamma, res.bundle.x1)
    h, op = data.grid.h, data.operator
    lam_e, adj_y = _previous_adjoint(data, bundle)
    lam_e[0] += 0.01
    bundle.adjoints[0] -= h * 0.01  # p = -h lambda_e
    rep = check_limit_system(bundle)
    assert rep.adjoint_residual > 1e-4
    # the residual theta zeta2 + (h A) lambda_e + i_x2^* lambda_i of the perturbed lambda_e
    previous = np.max(data.grid.norm(bundle.theta[:, None] * bundle.zeta2
                                     + h * op.matvec(lam_e) + adj_y))
    assert abs(rep.adjoint_residual - previous) <= 1e-13 * previous


def test_limit_system_zeros_on_slack_problem():
    # a problem whose constraint never activates: every limit residual is zero
    data = make_problem(n=11, bound=10.0)
    res = minimize(data, 1000.0, SolveOptions(tol_stationarity=1e-10))
    rep = check_limit_system(res.bundle)
    assert np.all(res.bundle.lambda_i >= 0.0)
    assert rep.primal_feasibility == 0.0
    assert rep.complementarity == 0.0
    assert rep.multiplier_l1 == 0.0
    assert rep.concentration_index == 0.0


def test_a_bundle_reports_and_curves_the_problem_it_was_evaluated_for():
    # shifted bounds, as an augmented Lagrangian step makes them: the report and
    # the Hessian read the problem from the bundle, so the shifted problem's are
    # reached only through a bundle of it, here re-evaluated from the old control
    data = make_problem(bound=0.05, mu_tik=0.01)
    r = minimize(data, 1e3, SolveOptions())
    shifted = dataclasses.replace(data, constraint=dataclasses.replace(
        data.constraint, bounds=data.constraint.bounds - 0.02))
    moved = evaluate(shifted, 1e3, r.bundle)  # another problem's bundle: its control only
    fresh = evaluate(shifted, 1e3, r.bundle.x1.copy())
    rep = check_limit_system(moved)
    assert rep == check_limit_system(fresh)
    assert rep.primal_feasibility == pytest.approx(0.0227, abs=5e-5)
    assert rep.complementarity == pytest.approx(0.162, abs=5e-4)
    old = check_limit_system(r.bundle)  # the unshifted problem's own report
    assert old.primal_feasibility == pytest.approx(0.00267, abs=5e-6)
    assert old.complementarity == pytest.approx(0.000582, abs=5e-7)
    ones = np.ones(data.grid.n_interior)
    assert hessian_operator(moved)(ones).tobytes() == hessian_operator(fresh)(ones).tobytes()
    curvature_change = hessian_operator(moved)(ones) - hessian_operator(r.bundle)(ones)
    assert np.max(np.abs(curvature_change)) == pytest.approx(0.168, abs=5e-4)


def test_complementarity_identity(converged_run):
    # E[(lambda, i)_H] = gamma E[||max(0, i)||_H^2] exactly (same nonzero terms)
    data, res = converged_run
    b = res.bundle
    sq = sum(
        p * data.cone.inner(r, r)
        for p, r in zip(data.scenarios.weights, b.penalty_residuals)
    )
    pairing = sum(p * data.cone.inner(lam, i)  # E[(lambda_i, i)_H]
                  for p, lam, i in zip(data.scenarios.weights, b.lambda_i, b.constraint_values))
    assert pairing == pytest.approx(b.gamma * sq, rel=1e-12)


def test_complementarity_pairing_nonnegative(converged_run):
    # (lambda, i + k)_H >= 0 for every k in the cone, checked on the nodal basis
    data, res = converged_run
    b = res.bundle
    dim = np.atleast_1d(b.constraint_values[0]).size
    for k in range(data.scenarios.count):
        lam = np.atleast_1d(b.lambda_i[k])
        i_k = np.atleast_1d(b.constraint_values[k])
        assert data.cone.inner(lam, i_k) >= -1e-15
        for e in np.eye(dim):
            assert data.cone.inner(lam, i_k + e) >= -1e-15


def test_concentration_index_examples():
    w = np.full(10, 0.1)
    masses = np.zeros(10)
    masses[3] = 5.0
    # all mass on one scenario of probability 0.1: fully concentrated at q=0.1
    assert concentration_index(masses, w, 0.1) == pytest.approx(1.0)
    # uniform masses: q=0.1 captures one of ten scenarios
    assert concentration_index(np.ones(10), w, 0.1) == pytest.approx(0.1)
    assert concentration_index(np.zeros(10), w, 0.5) == 0.0


def test_concentration_index_matches_sorted_prefix_oracle():
    # the loop is the reference: cumulative sums in the same order give the same bits
    rng = np.random.Generator(np.random.Philox(4))
    for i in range(100):
        n = int(rng.integers(3, 20))
        w = rng.uniform(0.05, 1.0, n) if i % 2 else np.ones(n)  # uniform: ties at the cut
        w /= w.sum()
        m = rng.uniform(0.0, 1.0, n)
        q = float(rng.uniform(0.1, 0.9)) if i % 4 else 0.125
        got = concentration_index(m, w, q)
        weighted = m * w
        order = np.argsort(-weighted, kind="stable")
        cum_w, carried = 0.0, 0.0
        for k in order:
            if cum_w + w[k] > q + 1e-15:
                break
            cum_w += w[k]
            carried += weighted[k]
        assert got == carried / weighted.sum()
        assert 0.0 <= got <= 1.0 + 1e-14


def test_concentration_index_rejects_bad_q():
    with pytest.raises(ValueError):
        concentration_index(np.ones(3), np.full(3, 1 / 3), 0.0)
    with pytest.raises(ValueError):
        concentration_index(np.ones(3), np.full(3, 1 / 3), 1.0)


def test_limit_quantities_decay_along_gamma(converged_run):
    # feasibility violation and complementarity shrink as gamma grows while the
    # multiplier mass stays bounded (factor-10 window around the midpoint)
    data, _ = converged_run
    gammas = [10.0, 1e3, 1e5]
    reports = []
    x = None
    for gamma in gammas:
        res = minimize(data, gamma, SolveOptions(tol_stationarity=1e-8), warm_start=x)
        assert res.converged
        assert np.all(res.bundle.lambda_i >= 0.0)
        x = res.bundle.x1
        reports.append(check_limit_system(res.bundle))
    feas = [r.primal_feasibility for r in reports]
    comp = [r.complementarity for r in reports]
    assert feas[2] < feas[0]
    assert comp[2] < comp[0]
    masses = [r.multiplier_l1 for r in reports]
    assert max(masses) <= 10.0 * max(masses[1], 1e-12)
    assert min(masses) >= 0.1 * min(masses[1], 1e12) or masses[1] == 0.0


def test_report_as_dict_roundtrip(converged_run):
    data, res = converged_run
    rep = check_limit_system(res.bundle)
    d = rep.as_dict()
    assert set(d) == set(rep.__dict__)
    assert all(isinstance(v, float) for v in d.values())


@pytest.mark.parametrize("kind,risk_kind,bound", [
    ("mixed", "expectation", 0.05), ("gradient", "avar-smooth", 0.05), ("volume", "avar", 0.01)])
def test_report_equals_the_row_norm_recomputation(kind, risk_kind, bound):
    # each field recomputed from its definition, the expectations by np.dot with the
    # weights and the h-norms row by row; the report takes the max of the row norms
    data = make_problem(n=15, bound=bound, kind=kind, risk_kind=risk_kind, alpha=0.25,
                        mu_tik=0.01)
    g, h, op = data.grid, data.grid.h, data.operator
    rng = np.random.Generator(np.random.Philox(6))
    for gamma in (1.0, 1e3, 1e6):
        b = evaluate(data, gamma, 1.0 + rng.standard_normal(15))
        rep = check_limit_system(b)
        i_slope = cone.constraint_slope(data.constraint, b.states)
        adj_y = cone.constraint_adjoints(data.constraint, i_slope, b.lambda_i)
        i_vals = b.constraint_values
        w, coef = data.scenarios.weights, data.constraint.control_coefficient
        # rho = p + i_x1^* lambda_i, with p = -h lambda_e and i_x1^* lambda_i = -coef adj_y
        rho = b.adjoints - coef * adj_y if coef else b.adjoints
        x, grad = b.x1, b.gradient
        held = ((x == data.lo) & (grad > 0.0)) | ((x == data.hi) & (grad < 0.0))
        expected = {
            "adjoint_residual": np.max(g.norm(
                b.theta[:, None] * b.zeta2 - op.matvec(b.adjoints) + adj_y)),
            "state_residual": np.max(g.norm(h * op.matvec(b.states) - h * b.x1)),
            "rho_mean_norm": g.norm(b.rho_mean),
            "rho_per_scenario_max": np.max(g.norm(rho)),
            "primal_feasibility": max(0.0, float(np.max(i_vals))),
            "complementarity": abs(float(np.dot(w, data.cone.inner(b.lambda_i, i_vals)))),
            "multiplier_l1": float(np.dot(w, data.cone.weight * np.sum(np.abs(b.lambda_i), -1))),
            "adjoint_l1": float(np.dot(w, np.sum(np.abs(b.adjoints), axis=-1))),
            "concentration_index": concentration_index(data.cone.norm(b.lambda_i), w, 0.125),
            "certificate": g.norm(np.where(held, 0.0, grad / h)) / data.mu_tik,
        }
        assert set(expected) == set(rep.as_dict())  # every field is recomputed here
        # the solver's measure, the one stationarity reported
        assert g.norm(b.x1 - data.clamp(b.x1 - b.gradient)) == solver_mod._stationarity(b)
        for name, value in expected.items():
            assert getattr(rep, name) == value, name
        # the previous formulas, with the unscaled adjoint lambda_e and the control
        # adjoint -epsilon h lambda_i as its own stack
        lam_e, _ = _previous_adjoint(data, b)
        adj_u = -data.constraint.epsilon * h * b.lambda_i if kind == "mixed" else 0.0
        previous = np.max(g.norm(-h * lam_e + adj_u))
        assert abs(rep.rho_per_scenario_max - previous) <= 1e-13 * previous
        previous = float(np.dot(w, h * np.sum(np.abs(lam_e), axis=-1)))
        assert abs(rep.adjoint_l1 - previous) <= 1e-13 * previous
        terms = b.theta[:, None] * b.zeta2  # the residual is round-off of terms this size
        previous = np.max(g.norm(terms + h * op.matvec(lam_e) + adj_y))
        assert abs(rep.adjoint_residual - previous) <= 1e-13 * np.max(g.norm(terms))


@pytest.mark.parametrize("problem", ["manufactured", "boxed-K16"])
def test_certificate_bounds_the_distance_between_two_solves(problem):
    # each certificate bounds its control's distance to the one minimiser of j_gamma
    # over the box, so two of them bound the distance between two controls; 127 nodes
    # and 31 x 16 take CG steps, so the ladder's solves stop short of the minimiser,
    # and the box [0, 2] of the second holds some of its nodes at lo
    gamma = 1e4
    if problem == "manufactured":
        data = manufactured_problem(127)[0]
    else:
        data = dataclasses.replace(make_problem(n=31, n_scen=16, bound=0.05, mu_tik=0.01),
                                   lo=0.0, hi=2.0)
    tight = minimize(data, gamma, SolveOptions(tol_stationarity=1e-13)).bundle
    tight_certificate = check_limit_system(tight).certificate
    assert tight_certificate <= 1e-9
    assert np.any(tight.x1 == data.lo) == (problem == "boxed-K16")
    start, ratios = None, []
    for tol in 10.0 ** -np.arange(2, 11):  # a warm-started ladder of tolerances
        start = minimize(data, gamma, SolveOptions(tol_stationarity=tol), warm_start=start).bundle
        distance = data.grid.norm(start.x1 - tight.x1)
        bound = check_limit_system(start).certificate + tight_certificate
        assert distance <= bound, tol
        ratios.append(distance / bound)
    assert max(ratios) > 0.1  # and the bound is within a factor of ten of it somewhere
