"""The paper's consistency claim on a problem whose constrained solution is known.

One scenario, the mixed bound y - eps x <= psi, and y_d chosen so that a given
pair (x*, lambda*) solves the constrained optimality system exactly, with
strict complementarity on the active set A = (0.4, 0.6):

    state       A y* = x*
    adjoint     A lambda_e = y_d - y* - lambda*
    gradient    mu x* - lambda_e - eps lambda* = 0
    constraint  y* - eps x* = psi on A, < psi elsewhere; lambda* > 0 on A, 0 elsewhere

so y_d = y* + mu A x* - eps A lambda* + lambda*, with A the assembled stencil.
The Moreau-Yosida path must then approach x* at the rate O(1/gamma).
"""

import numpy as np

from riskpath.cone import ConstraintMap
from riskpath.grid import Grid, assemble, solve_state
from riskpath.objective import ProblemData
from riskpath.path import decade_schedule, run_path
from riskpath.risk import RiskMeasure
from riskpath.scenario import ScenarioConfig, sample
from riskpath.solver import SolveOptions

EPSILON, MU = 0.05, 1e-2


def manufactured_problem(n: int, epsilon: float = EPSILON):
    """(data, x*, lambda*) for the construction above on n interior nodes."""
    grid = Grid(n)
    s = grid.nodes
    scenarios = sample(ScenarioConfig(n_scenarios=1, seed=0), grid.n_cells)
    op = assemble(grid, scenarios.conductivities)  # the stencil of the one scenario
    x_star = 3.0 * np.sin(np.pi * s)
    y_star = solve_state(op, x_star)[0]
    active = (s > 0.4) & (s < 0.6)
    lam_star = np.where(active, 5.0 * np.sin(np.pi * (s - 0.4) / 0.2) + 1.0, 0.0)
    psi = y_star - epsilon * x_star + np.where(active, 0.0, 0.05 + 0.5 * np.abs(s - 0.5))
    y_d = y_star + MU * op.matvec(x_star)[0] - epsilon * op.matvec(lam_star)[0] + lam_star
    data = ProblemData(
        grid=grid, scenarios=scenarios,
        constraint=ConstraintMap(kind="mixed", grid=grid, bounds=psi[None, :], epsilon=epsilon),
        risk=RiskMeasure(), y_d=y_d, mu_tik=MU, lo=-50.0, hi=50.0,
    )
    return data, x_star, lam_star


def _path_errors(epsilon: float):
    """(gammas, ||x_gamma - x*||_h, ||lambda_gamma - lambda*||_h) along gamma = 1e3 ... 1e8
    at n = 127, every point converged; lambda_gamma is the penalty multiplier gamma max(0, i)."""
    data, x_star, lam_star = manufactured_problem(127, epsilon)
    steps = list(run_path(data, decade_schedule(3, 8), SolveOptions(tol_stationarity=1e-10)))
    assert all(step.record.converged for step in steps)
    gammas = np.array([step.record.gamma for step in steps])
    bundles = [step.result.bundle for step in steps]
    return (gammas, np.array([data.grid.norm(b.x1 - x_star) for b in bundles]),
            np.array([data.grid.norm(b.lambda_i[0] - lam_star) for b in bundles]))


def test_path_converges_to_the_known_limit_at_rate_one_over_gamma():
    # tol 1e-10, not the default 1e-8: at 1e-8 the stopping test passes before
    # the error reaches its O(1/gamma) value, and the error freezes at 1.7e-5
    # from gamma of about 1e7 (the test measures the mass-weighted gradient as
    # a primal step, so it passes more easily than the error it stands for)
    gammas, errors, lam_errors = _path_errors(EPSILON)
    assert np.all(np.diff(errors) < 0.0)
    slope = np.polyfit(np.log(gammas), np.log(errors), 1)[0]
    assert abs(slope + 1.0) <= 0.05, (slope, errors)
    # the multiplier converges at the same rate (1.1e-2 ... 1.1e-7, slope -1.001)
    slope = np.polyfit(np.log(gammas), np.log(lam_errors), 1)[0]
    assert abs(slope + 1.0) <= 0.05, (slope, lam_errors)


def test_pure_state_bound_converges_at_rate_one_over_gamma_from_1e5():
    # epsilon 0: a bound on the state alone, with the L2 multiplier lambda*; the
    # error leaves its pre-asymptotic regime later (slope -0.90 over 1e3 ... 1e8)
    gammas, errors, lam_errors = _path_errors(0.0)
    assert np.all(np.diff(errors) < 0.0)
    slope = np.polyfit(np.log(gammas[2:]), np.log(errors[2:]), 1)[0]  # gamma = 1e5 ... 1e8
    assert abs(slope + 1.0) <= 0.05, (slope, errors)
    # the multiplier converges more slowly here (4.5e-1 ... 1.4e-4, slope -0.75 on 1e5 ... 1e8)
    assert np.all(np.diff(lam_errors) < 0.0)
    slope = np.polyfit(np.log(gammas[2:]), np.log(lam_errors[2:]), 1)[0]
    assert slope <= -0.5, (slope, lam_errors)
