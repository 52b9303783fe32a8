import numpy as np
import pytest

from riskpath.kkt import (
    check_gamma_system,
    check_limit_system,
    complementarity_value,
    concentration_index,
)
from riskpath.objective import evaluate
from riskpath.solver import SolveOptions, minimize

from test_objective import make_problem


@pytest.fixture(scope="module")
def converged_run():
    # tuned so the state constraint is active at the optimum
    data = make_problem(n=15, bound=0.05, mu_tik=0.01)
    res = minimize(data, 100.0, SolveOptions(tol_stationarity=1e-9))
    assert res.converged
    return data, res


def test_gamma_system_residuals_small_at_solution(converged_run):
    data, res = converged_run
    rep = check_gamma_system(data, res.bundle)
    assert rep.stationarity_x1 <= 1e-8
    # structural equations are recomputed independently and must agree to
    # rounding, not merely to solver tolerance
    assert rep.adjoint_residual <= 1e-12
    assert rep.rho_consistency <= 1e-12
    assert rep.state_residual <= 1e-10
    assert rep.multiplier_formula_residual <= 1e-12


def test_adjoint_residual_detects_perturbed_adjoint(converged_run):
    data, res = converged_run
    bundle = evaluate(data, res.bundle.gamma, res.x1_opt)
    bundle.lambda_e[0] = bundle.lambda_e[0] + 0.01
    rep = check_gamma_system(data, bundle)
    assert rep.adjoint_residual > 1e-4
    assert rep.rho_consistency > 1e-4


def test_multiplier_residual_detects_scaled_multiplier(converged_run):
    data, res = converged_run
    bundle = evaluate(data, res.bundle.gamma, res.x1_opt)
    bundle.lambda_i[0] = np.asarray(bundle.lambda_i[0]) + 0.01
    rep = check_gamma_system(data, bundle)
    assert rep.multiplier_formula_residual > 1e-6


def test_limit_system_zeros_on_slack_problem():
    # a problem whose constraint never activates: every limit residual is zero
    data = make_problem(n=11, bound=10.0)
    res = minimize(data, 1000.0, SolveOptions(tol_stationarity=1e-10))
    rep = check_limit_system(data, res.bundle)
    assert rep.primal_feasibility == 0.0
    assert rep.dual_cone_violation == 0.0
    assert rep.complementarity == 0.0
    assert rep.multiplier_l1 == 0.0
    assert rep.concentration_index == 0.0


def test_complementarity_identity(converged_run):
    # E[(lambda, i)_H] = gamma E[||max(0, i)||_H^2] exactly (same nonzero terms)
    data, res = converged_run
    b = res.bundle
    sq = sum(
        p * data.cone.inner(r, r)
        for p, r in zip(data.scenarios.weights, b.penalty_residuals)
    )
    assert complementarity_value(data, b) == pytest.approx(b.gamma * sq, rel=1e-12)


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
    rng = np.random.Generator(np.random.Philox(4))
    for _ in range(50):
        n = int(rng.integers(3, 20))
        w = rng.uniform(0.05, 1.0, n)
        w /= w.sum()
        m = rng.uniform(0.0, 1.0, n)
        q = float(rng.uniform(0.1, 0.9))
        got = concentration_index(m, w, q)
        weighted = m * w
        order = np.argsort(-weighted, kind="stable")
        cum_w, carried = 0.0, 0.0
        for k in order:
            if cum_w + w[k] > q + 1e-15:
                break
            cum_w += w[k]
            carried += weighted[k]
        assert got == pytest.approx(carried / weighted.sum(), abs=1e-14)
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
        x = res.x1_opt
        reports.append(check_limit_system(data, res.bundle))
    feas = [r.primal_feasibility for r in reports]
    comp = [r.complementarity for r in reports]
    assert feas[2] < feas[0]
    assert comp[2] < comp[0]
    masses = [r.multiplier_l1 for r in reports]
    assert max(masses) <= 10.0 * max(masses[1], 1e-12)
    assert min(masses) >= 0.1 * min(masses[1], 1e12) or masses[1] == 0.0
    for r in reports:
        assert r.dual_cone_violation == 0.0


def test_report_as_dict_roundtrip(converged_run):
    data, res = converged_run
    rep = check_limit_system(data, res.bundle)
    d = rep.as_dict()
    assert set(d) == set(rep.__dict__)
    assert all(isinstance(v, float) for v in d.values())
