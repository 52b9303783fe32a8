import csv
import dataclasses
import gc
import io
import json
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from riskpath.path import (
    CSV_SCHEMA_VERSION,
    InsufficientDataError,
    PathRecord,
    decade_schedule,
    fit_decay_slope,
    records_to_csv,
    run_path,
    shrink_to_feasible,
    validate_schedule,
)
from riskpath import cone, objective, solver
from riskpath.config import build_problem, build_schedule, build_solve_options, resolve
from riskpath.grid import solve_state
from riskpath.kkt import check_limit_system
from riskpath.objective import unpenalized_objective
from riskpath.scenario import ScenarioConfig, ScenarioSet, conductivity
from riskpath.solver import SolveOptions, minimize

from reference import limit_polish
from test_objective import make_problem

OPTS = SolveOptions(tol_stationarity=1e-8)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def active_path():
    data = make_problem(n=15, bound=0.05, mu_tik=0.01)
    records = [step.record for step in run_path(data, decade_schedule(0, 6), OPTS)]
    return data, records


def test_decade_schedule_examples():
    assert np.allclose(decade_schedule(0, 3), [1.0, 10.0, 100.0, 1000.0])
    assert np.allclose(decade_schedule(0, 1, per_decade=2), [1.0, 10**0.5, 10.0])
    with pytest.raises(ValueError):
        validate_schedule([1.0, 1.0])
    with pytest.raises(ValueError):
        validate_schedule([10.0, 1.0])
    with pytest.raises(ValueError):
        validate_schedule([])
    for bad in ([1.0, np.inf], [1.0, np.nan, 10.0]):
        with pytest.raises(ValueError, match="finite"):
            validate_schedule(bad)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        decade_schedule(0, 400)  # 10^400 overflows to inf


def test_path_on_slack_problem_is_flat():
    # never-active constraint: every gamma point solves the same smooth problem
    data = make_problem(n=11, bound=10.0)
    records = [step.record for step in run_path(data, decade_schedule(0, 3), OPTS)]
    assert len(records) == 4
    for r in records:
        assert r.converged
        assert r.penalty_term == 0.0
        assert r.sq_violation == 0.0
        assert r.max_violation == 0.0
        assert r.j == pytest.approx(records[0].j, abs=1e-12)
    # warm-started later points start at the solution and stay there
    for r in records[1:]:
        assert r.control_change <= 10.0 * OPTS.tol_stationarity


def test_single_point_schedule_equals_direct_solve():
    data = make_problem(n=11, bound=0.05, mu_tik=0.01)
    (step,) = run_path(data, [100.0], OPTS)
    direct = minimize(data, 100.0, OPTS)
    assert step.record.j_gamma == pytest.approx(direct.bundle.j_gamma, abs=1e-14)
    assert np.array_equal(step.result.bundle.x1, direct.bundle.x1)
    assert np.isnan(step.record.control_change)


def test_callback_sees_every_iterate_of_every_point():
    data = make_problem(n=11, bound=0.05, mu_tik=0.01)
    seen = []
    steps = list(run_path(data, decade_schedule(0, 3), OPTS,
                          callback=lambda *args: seen.append(args)))
    # each point logs its iterates 0..iterations, in schedule order
    expected = [it for step in steps for it in range(step.record.iterations + 1)]
    assert [args[0] for args in seen] == expected


def test_divergence_keeps_the_steps_solved_before(monkeypatch):
    data = make_problem(n=11, bound=0.05, mu_tik=0.01)
    solved = list(run_path(data, decade_schedule(0, 3), OPTS))
    real = solver.minimize

    def diverging_at_100(data, gamma, *args, **kwargs):
        if gamma == 100.0:
            raise solver.DivergedError("non-finite objective during line search")
        return real(data, gamma, *args, **kwargs)

    monkeypatch.setattr(solver, "minimize", diverging_at_100)
    partial = []
    with pytest.raises(solver.DivergedError, match="solve diverged at gamma=100.0") as caught:
        for step in run_path(data, decade_schedule(0, 3), OPTS):
            partial.append(step.record)
    assert isinstance(caught.value.__cause__, solver.DivergedError)
    assert str(caught.value.__cause__) == "non-finite objective during line search"
    assert records_to_csv(partial) == records_to_csv([step.record for step in solved[:2]])


def test_draining_a_path_keeps_one_bundle_alive():
    # the path keeps only the previous point's bundle, for the warm start and
    # control_change: a caller that drops each step holds no other
    data = make_problem(n=15, bound=0.05, mu_tik=0.01)
    bundles, alive = [], []
    for step in run_path(data, decade_schedule(0, 6), OPTS):
        bundles.append(weakref.ref(step.result.bundle))
        del step
        gc.collect()
        alive.append(sum(ref() is not None for ref in bundles))
    assert alive == [1] * 7


def test_path_converges_everywhere(active_path):
    _, records = active_path
    assert all(r.converged for r in records)
    assert all(r.stationarity <= OPTS.tol_stationarity for r in records)


def test_full_small_path_steps_and_products(monkeypatch):
    # 4 n n = 900 is at most DENSE_WORK and no bound binds: every step is an
    # exact Newton step of 15 products, one stacked product of the identity.
    # CG took [3, 4, 4, 4, 3, 3, 3] steps and 89 products.
    data = make_problem(n=15, bound=0.05, mu_tik=0.01)
    solves = []
    real_solve = objective.solve_state
    monkeypatch.setattr(objective, "solve_state",
                        lambda *a, **kw: solves.append(1) or real_solve(*a, **kw))
    steps = list(run_path(data, decade_schedule(0, 6), OPTS))
    records = [step.record for step in steps]
    assert [r.iterations for r in records] == [2, 1, 2, 2, 1, 1, 1]
    assert sum(step.result.hessian_products for step in steps) == 150
    # 2 per evaluation and 2 per step (17 evaluations, 10 steps), less the
    # state solve of each of the 6 warm starts, whose start evaluation reuses
    # the previous point's states (234 with CG)
    assert len(solves) == 48
    assert all(r.converged and r.stationarity <= OPTS.tol_stationarity for r in records)


def test_default_path_does_not_creep_at_large_gamma():
    # the default config with 64 scenarios took 10 and 13 Newton steps at
    # gamma = 1e5 and 1e6 with the forcing term capped at 0.1
    cfg = resolve({"scenarios": {"n_scenarios": 64},
                   "gamma_schedule": {"start_exp": 0, "stop_exp": 8}})
    steps = list(run_path(build_problem(cfg), build_schedule(cfg), build_solve_options(cfg)))
    records = [step.record for step in steps]
    assert len(records) == 9
    assert all(r.converged for r in records)
    assert max(r.iterations for r in records) <= 8


def test_penalized_value_nondecreasing_along_path(active_path):
    _, records = active_path
    jg = [r.j_gamma for r in records]
    assert all(a <= b + 1e-10 * max(1.0, abs(b)) for a, b in zip(jg, jg[1:]))


def test_violation_decays_with_slope(active_path):
    _, records = active_path
    slope, r2 = fit_decay_slope(records, "sq_violation")
    assert slope <= -0.8
    assert r2 >= 0.9
    mv = [r.max_violation for r in records]
    assert mv[-1] < 1e-3 * mv[0]


def lobatto_problem(n: int):
    """The default config on n nodes with its 16 scenarios at the 4 x 4 Gauss-Lobatto rule.

    The rule's nodes on [-1, 1] are +-1 and +-1/sqrt(5) with weights 1/6 and 5/6; a
    scenario sits at each pair (xi_1, xi_2) of them, with the product of their weights
    over 4, and takes the scenario model's conductivity at it.
    """
    cfg = resolve({"problem": {"n_interior": n}})
    data, field = build_problem(cfg), cfg["scenarios"]
    nodes, weights = np.array([-1.0, -5**-0.5, 5**-0.5, 1.0]), np.array([1.0, 5.0, 5.0, 1.0]) / 6
    xi = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1).reshape(-1, 2)
    model = ScenarioConfig(xi.shape[0], field["seed"], field["a0"], tuple(field["sigma"]),
                           field["a_min"])
    scenarios = ScenarioSet(np.outer(weights, weights).reshape(-1) / 4,
                            conductivity(model, xi, data.grid.n_cells))
    return dataclasses.replace(data, scenarios=scenarios)


def test_path_reaches_the_exact_limit_at_rate_one_over_gamma():
    # K = 16, no manufactured data: the limit's minimiser x* comes from the active-set
    # polish of the last point, certified by its feasibility and multiplier signs
    data = lobatto_problem(15)
    steps = list(run_path(data, decade_schedule(0, 10), SolveOptions(tol_stationarity=1e-10)))
    assert all(step.record.converged for step in steps)
    limit = limit_polish(data, steps[-1].result.bundle.x1)
    assert limit.max_constraint <= 1e-12
    assert limit.min_multiplier > 0.0
    assert limit.j == pytest.approx(unpenalized_objective(data, limit.x)[0], rel=1e-12)
    tail = [step.result.bundle for step in steps if 1e5 <= step.record.gamma <= 1e9]
    log_gamma = np.log10([b.gamma for b in tail])
    errors = {"control": [data.grid.norm(b.x1 - limit.x) for b in tail],
              "multiplier": [np.abs(b.lambda_i - limit.lam).max() for b in tail]}
    for name, error in errors.items():
        slope = np.polyfit(log_gamma, np.log10(error), 1)[0]
        assert abs(slope + 1.0) <= 0.05, (name, slope)


def test_penalty_term_identity(active_path):
    # penalty_term = (gamma/2) * sq_violation record by record
    _, records = active_path
    for r in records:
        assert r.penalty_term == pytest.approx(0.5 * r.gamma * r.sq_violation, rel=1e-12)
        assert r.complementarity == pytest.approx(r.gamma * r.sq_violation, rel=1e-12)


def test_sandwich_against_feasible_reference(active_path):
    # j^gamma(x_gamma) <= j(x_feasible) for every gamma (penalty is exact from
    # below); the final control scaled into the feasible set gives the bound
    data, records = active_path
    # rebuild the final control by re-running the last solve
    (step,) = run_path(data, [records[-1].gamma], OPTS)
    final = step.result.bundle.x1
    ref, j_ref = shrink_to_feasible(data, final)
    assert unpenalized_objective(data, ref)[:2] == (j_ref, True)
    for r in records:
        assert r.j_gamma <= j_ref + 1e-10 * max(1.0, abs(j_ref))
        assert r.j <= r.j_gamma + 1e-12


def test_control_settles_in_last_decade():
    # moderate tolerance: the control movement per decade falls below 10x tol
    # once the path has settled (movement is O(1/gamma) at large gamma)
    data = make_problem(n=15, bound=0.05, mu_tik=0.01)
    opts = SolveOptions(tol_stationarity=1e-4)
    steps = list(run_path(data, decade_schedule(0, 6), opts))
    assert steps[-1].record.control_change <= 10.0 * opts.tol_stationarity


@pytest.mark.parametrize("kind", ["mixed", "gradient"])
def test_a_finished_path_retains_four_stacked_arrays_per_point(kind):
    # a bundle stores the states, zeta2, the constraint values and the adjoints;
    # it derives max(0, i) and the multipliers (7.2 K n 8 bytes when it stored them
    # and rho), and keeps no constraint slope (5.2 for gradient if it did)
    k, n = 64, 63
    cfg = resolve({"problem": {"n_interior": n, "constraint": {"kind": kind}},
                   "scenarios": {"n_scenarios": k},
                   "gamma_schedule": {"start_exp": 0, "stop_exp": 3, "per_decade": 1}})
    data, schedule, opts = build_problem(cfg), build_schedule(cfg), build_solve_options(cfg)
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        steps = list(run_path(data, schedule, opts))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert len(steps) == 4
    assert retained <= 4.5 * k * n * 8 * len(steps), retained / (k * n * 8 * len(steps))


# At K = 64, n = 63, in stacks of K n 8 bytes: the peak above the memory before each call of
# evaluate from a control, evaluate of another gamma's bundle, the KKT report,
# shrink_to_feasible of the final bundle, one Hessian product and run_path, then what run_path
# retains per point.
# Each peak bound is the value from before these calls stopped building per-scenario
# temporaries, less 2.5 stacks (1.5 for volume; 0.5 for the report and volume's reference).
# Those values were, in order, 11.18, 8.10, 8.03, 8.32 (from the final control), 29.06 and
# 4.22 for mixed; 8.24, 6.13, 7.05, 4.18, 21.26 and 3.25 for volume; 12.26, 9.16, 9.09, 9.47,
# 30.30 and 4.26 for gradient. Without a control-adjoint stack, evaluate's bounds and mixed's
# run_path bound are one stack lower again (measured 7.16, 4.09 and 25.09 for mixed, 5.21 and
# 3.10 for volume; 8.17, 5.09, 26.09, 6.21 and 4.10 with one). With the padded off-diagonal
# band and constraint values formed in place, the report's bounds for mixed and volume, and
# mixed's reference and volume's run_path bounds, are the measured values plus 0.5 (from
# 6.06, 6.06, 5.19 and 19.09 to 4.13, 4.13, 4.18 and 18.28). A product's bound is its measured
# peak plus 0.5: 1.07 for mixed and volume, 2.06 for gradient (3.07 when the gradient kind's
# constraint adjoint formed lam d as a (K, n + 1) stack and its cell differences took numpy's
# buffered iteration).
ALLOCATION_BOUNDS = {
    "mixed": (7.68, 4.60, 4.63, 4.68, 1.57, 25.56, 4.3),
    "volume": (5.74, 3.63, 4.63, 3.68, 1.57, 18.78, 3.3),
    "gradient": (9.76, 6.66, 8.59, 6.97, 2.56, 27.80, 4.3),
}


@pytest.mark.parametrize("kind", ["mixed", "volume", "gradient"])
def test_an_evaluation_allocates_only_what_it_returns(kind):
    k, n = 64, 63
    cfg = resolve({"problem": {"n_interior": n, "constraint": {"kind": kind}},
                   "scenarios": {"n_scenarios": k},
                   "gamma_schedule": {"start_exp": 0, "stop_exp": 3, "per_decade": 1}})
    data, schedule, opts = build_problem(cfg), build_schedule(cfg), build_solve_options(cfg)

    def peak(call):
        gc.collect()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        now, top = tracemalloc.get_traced_memory()
        return result, (top - before) / (k * n * 8), (now - before) / (k * n * 8)

    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        steps, path_peak, retained = peak(lambda: list(run_path(data, schedule, opts)))
        final = steps[-1].result.bundle
        x = final.x1.copy()
        product = objective.hessian_operator(final)  # its work stacks are not the product's
        peaks = [peak(call)[1] for call in (
            lambda: objective.evaluate(data, final.gamma, x),
            lambda: objective.evaluate(data, 10.0 * final.gamma, final),
            lambda: check_limit_system(final),
            lambda: shrink_to_feasible(data, final),
            lambda: product(x))]
    finally:
        if started:
            tracemalloc.stop()
    measured = (*peaks, path_peak, retained / len(steps))
    assert all(m <= bound for m, bound in zip(measured, ALLOCATION_BOUNDS[kind])), measured
    assert np.max(final.constraint_values) > data.tol_feas  # the reference scales the control


def test_shrink_to_feasible_basics():
    data = make_problem(n=11, bound=0.05, mu_tik=0.01)
    rng = np.random.Generator(np.random.Philox(2))
    base = 5.0 * rng.standard_normal(11)
    ref, j_ref = shrink_to_feasible(data, base)
    j, feasible, viol = unpenalized_objective(data, ref)
    assert feasible and viol <= data.tol_feas and j == j_ref
    # already-feasible controls come back unchanged, with their j
    z = np.zeros(11)
    ref, j_ref = shrink_to_feasible(data, z)
    assert np.array_equal(ref, z) and j_ref == unpenalized_objective(data, z)[0]


def _resolving_bisection(data, base_control, iters=60):
    # oracle: the bisection that solves the state afresh at every trial scale
    base = data.clamp(np.asarray(base_control, dtype=float))
    if unpenalized_objective(data, base)[1]:
        return base
    t_lo, t_hi = 0.0, 1.0
    for _ in range(iters):
        t = 0.5 * (t_lo + t_hi)
        if unpenalized_objective(data, t * base)[1]:
            t_lo = t
        else:
            t_hi = t
    return t_lo * base


@pytest.mark.parametrize("kind", ["mixed", "volume", "gradient"])
def test_shrink_to_feasible_solves_once_and_certifies(kind, monkeypatch):
    # one solve of the base plus the certifying checks, and the same reference
    # as re-solving at every bisection step
    data = make_problem(n=15, bound=0.05, mu_tik=0.01, kind=kind)
    rng = np.random.Generator(np.random.Philox(7))
    solves = []

    def counted(op, rhs):
        solves.append(rhs)
        return solve_state(op, rhs)

    for _ in range(8):
        base = 20.0 * np.abs(rng.standard_normal(15))
        assert not unpenalized_objective(data, base)[1]
        solves.clear()
        monkeypatch.setattr(objective, "solve_state", counted)
        ref, j_ref = shrink_to_feasible(data, base)
        monkeypatch.undo()
        assert len(solves) <= 3
        j, feasible, _ = unpenalized_objective(data, ref)
        assert feasible and j == j_ref
        j_oracle, feasible_oracle, _ = unpenalized_objective(data, _resolving_bisection(data, base))
        assert feasible_oracle
        assert abs(j - j_oracle) <= 1e-12 * abs(j_oracle)


@pytest.mark.parametrize("kind", ["mixed", "volume", "gradient"])
def test_shrink_to_feasible_with_some_scenarios_feasible(kind):
    # scenarios feasible at full scale stay feasible at every smaller one, so
    # leaving them out of the bisection gives the re-solving oracle's reference
    data = make_problem(n=15, n_scen=8, bound=0.05, mu_tik=0.01, kind=kind)
    rng = np.random.Generator(np.random.Philox(11))
    direction = np.abs(rng.standard_normal(15))
    states = solve_state(data.operator, direction)

    def infeasible_scenarios(c):
        i_vals = cone.constraint_eval(data.constraint, c * direction, c * states)
        return np.sum(np.max(i_vals, axis=-1) > data.tol_feas)

    scales = [c for c in np.geomspace(0.01, 100.0, 400) if 0 < infeasible_scenarios(c) < 8]
    assert len(scales) >= 3
    for c in (scales[0], scales[len(scales) // 2], scales[-1]):
        base = c * direction
        ref, j_ref = shrink_to_feasible(data, base)
        j, feasible, _ = unpenalized_objective(data, ref)
        assert feasible and j == j_ref
        j_oracle, feasible_oracle, _ = unpenalized_objective(data, _resolving_bisection(data, base))
        assert feasible_oracle
        assert abs(j - j_oracle) <= 1e-12 * abs(j_oracle)


def test_shrink_to_feasible_walks_back_past_rejected_iterates(monkeypatch):
    # the first check is the closed-form scale t* backed off by a relative 2**-44, and
    # each scale the real test rejects is followed by one backed off 16 times further;
    # the result is the last scale checked, and the zero control once every
    # certifying solve is rejected, priced by one more call
    data = make_problem(n=11, bound=0.05, mu_tik=0.01)
    base = 5.0 * np.ones(11)
    slope, bound = cone.ray_bounds(data.constraint, base, solve_state(data.operator, base),
                                   data.tol_feas)
    t = float(np.min(bound[slope > bound] / slope[slope > bound]))
    backed_off = []
    for k in range(5):
        t *= 1.0 - 2.0 ** (4 * k - 44)
        backed_off.append(t * base)
    for rejections, checks in ((3, 4), (100, 6)):
        checked = []

        def rejecting(d, x1):
            checked.append(x1)
            j, feasible, viol = unpenalized_objective(d, x1)
            return j, feasible and len(checked) > rejections, viol

        monkeypatch.setattr(objective, "unpenalized_objective", rejecting)
        ref, j_ref = shrink_to_feasible(data, base)
        monkeypatch.undo()
        assert len(checked) == checks
        assert np.array_equal(checked[:5], backed_off[:checks])
        assert np.array_equal(ref, checked[-1] if checks == 4 else np.zeros(11))
        assert unpenalized_objective(data, ref)[:2] == (j_ref, True)


@pytest.mark.parametrize("workload, seed", [
    ("path-small", 4), ("path-small", 6), ("path-tail", 0), ("path-wide", 6)])
def test_feasible_reference_certifies_once_on_stored_seeds(workload, seed, monkeypatch):
    # benchmark seeds on which the fresh solve rejects the closed-form scale t* itself:
    # t* backed off by a relative 2**-44 certifies at the first call
    cfg = json.loads((PERFBENCH / "workloads" / f"{workload}.json").read_text())["config"]
    cfg.setdefault("scenarios", {})["seed"] = seed
    cfg = resolve(cfg)
    data = build_problem(cfg)
    final = list(run_path(data, build_schedule(cfg), build_solve_options(cfg)))[-1].result.bundle
    assert np.max(final.constraint_values) > data.tol_feas
    checks = []

    def counted(d, x1):
        checks.append(unpenalized_objective(d, x1))
        return checks[-1]

    monkeypatch.setattr(objective, "unpenalized_objective", counted)
    ref, j_ref = shrink_to_feasible(data, final)
    assert len(checks) == 1 and checks[0][:2] == (j_ref, True) and np.any(ref != 0.0)


@pytest.mark.parametrize("kind", ["mixed", "volume", "gradient"])
def test_ray_bounds_give_the_largest_feasible_scale(kind):
    # on the states of one solve scaled by t, t* = min b / L over the entries
    # infeasible at full scale is the largest feasible scale; at t* itself the
    # test sits within round-off of tol_feas, so it is bracketed from both sides
    data = make_problem(n=15, n_scen=8, bound=0.05, mu_tik=0.01, kind=kind)
    rng = np.random.Generator(np.random.Philox(5))
    for _ in range(8):
        base = 20.0 * np.abs(rng.standard_normal(15))
        states = solve_state(data.operator, base)
        slope, bound = cone.ray_bounds(data.constraint, base, states, data.tol_feas)
        over = slope > bound
        assert over.any() and np.all(bound >= 0.0)
        t = float(np.min(bound[over] / slope[over]))

        def worst(s):
            return np.max(cone.constraint_eval(data.constraint, s * base, s * states))

        assert worst(t * (1.0 - 2.0**-40)) <= data.tol_feas < worst(t * (1.0 + 2.0**-40))
        assert abs(worst(t) - data.tol_feas) <= 1e-15


def test_records_read_objective_and_violation_from_the_bundle(active_path):
    # j and max_violation equal unpenalized_objective at each point, bit for bit
    data, records = active_path
    for step in run_path(data, [r.gamma for r in records], OPTS):
        j, _, max_violation = unpenalized_objective(data, step.result.bundle.x1)
        assert step.record.j == j and step.record.max_violation == max_violation


def test_fit_decay_slope_synthetic():
    def rec(gamma, v):
        return PathRecord(
            gamma=gamma, j=0.0, j_gamma=0.0, penalty_term=0.0, max_violation=0.0,
            sq_violation=v, complementarity=0.0, multiplier_l1=0.0, adjoint_l1=0.0,
            concentration_index=0.0, control_change=0.0, iterations=0,
            converged=True, stationarity=0.0,
        )

    gammas = [1.0, 10.0, 100.0, 1e3, 1e4]
    exact = [rec(g, 3.0 / g) for g in gammas]
    slope, r2 = fit_decay_slope(exact, "sq_violation")
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)

    flat = [rec(g, 2.0) for g in gammas]
    slope, r2 = fit_decay_slope(flat, "sq_violation")
    assert slope == pytest.approx(0.0, abs=1e-12)
    assert r2 == 1.0  # zero total variation: the fit is exact by convention


def test_fit_decay_slope_matches_regression_oracle():
    rng = np.random.Generator(np.random.Philox(3))
    gammas = np.logspace(0, 6, 7)
    noise = rng.uniform(0.5, 2.0, 7)

    def rec(gamma, v):
        return PathRecord(
            gamma=gamma, j=0.0, j_gamma=0.0, penalty_term=0.0, max_violation=0.0,
            sq_violation=v, complementarity=0.0, multiplier_l1=0.0, adjoint_l1=0.0,
            concentration_index=0.0, control_change=0.0, iterations=0,
            converged=True, stationarity=0.0,
        )

    records = [rec(g, nz / g**1.7) for g, nz in zip(gammas, noise)]
    slope, _ = fit_decay_slope(records, "sq_violation")
    x = np.log(gammas)
    y = np.log([r.sq_violation for r in records])
    oracle = float(np.cov(x, y, bias=True)[0, 1] / np.var(x))
    assert slope == pytest.approx(oracle, abs=1e-10)
    assert abs(slope + 1.7) <= 0.2


def test_fit_decay_slope_insufficient_data():
    def rec(gamma, v):
        return PathRecord(
            gamma=gamma, j=0.0, j_gamma=0.0, penalty_term=0.0, max_violation=0.0,
            sq_violation=v, complementarity=0.0, multiplier_l1=0.0, adjoint_l1=0.0,
            concentration_index=0.0, control_change=0.0, iterations=0,
            converged=True, stationarity=0.0,
        )

    with pytest.raises(InsufficientDataError):
        fit_decay_slope([rec(1.0, 1.0), rec(10.0, 0.1), rec(100.0, 0.0)], "sq_violation")


def test_records_to_csv_layout(active_path):
    _, records = active_path
    text = records_to_csv(records)
    lines = text.splitlines()
    assert lines[0] == f"# schema={CSV_SCHEMA_VERSION}"
    assert lines[1].split(",") == PathRecord.csv_header()
    assert len(lines) == 2 + len(records)
    # round-trip precision: parsing the gamma column reproduces the floats
    for line, r in zip(lines[2:], records):
        assert float(line.split(",")[0]) == r.gamma
    # plain cells: every float parses with float(), booleans are true/false
    header = PathRecord.csv_header()
    for line, r in zip(lines[2:], records):
        for name, cell in zip(header, line.split(",")):
            if name == "converged":
                assert cell in ("true", "false")
            elif name != "iterations":
                assert float(cell) == getattr(r, name) or np.isnan(getattr(r, name))
    # deterministic serialization
    assert records_to_csv(records) == text
    # the bytes csv.writer writes, also for non-finite values and an unconverged point
    records = records + [dataclasses.replace(records[-1], j=-0.0, converged=False,
                                             stationarity=np.inf, sq_violation=-np.inf)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"# schema={CSV_SCHEMA_VERSION}"])
    writer.writerow(header)
    for r in records:
        writer.writerow([str(getattr(r, name)).lower() for name in header])
    assert records_to_csv(records) == buf.getvalue()
