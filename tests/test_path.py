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
from riskpath import objective
from riskpath.grid import solve_state
from riskpath.objective import unpenalized_objective
from riskpath.solver import SolveOptions, minimize

from test_objective import make_problem

OPTS = SolveOptions(tol_stationarity=1e-8)


@pytest.fixture(scope="module")
def active_path():
    data = make_problem(n=15, bound=0.05, mu_tik=0.01)
    records = run_path(data, decade_schedule(0, 6), OPTS)
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
    records = run_path(data, decade_schedule(0, 3), OPTS)
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
    records, details = run_path(data, [100.0], OPTS, return_details=True)
    direct = minimize(data, 100.0, OPTS)
    assert len(records) == 1
    assert records[0].j_gamma == pytest.approx(direct.bundle.j_gamma, abs=1e-14)
    assert np.array_equal(details[0].result.x1_opt, direct.x1_opt)
    assert np.isnan(records[0].control_change)


def test_path_converges_everywhere(active_path):
    _, records = active_path
    assert all(r.converged for r in records)
    assert all(r.stationarity <= OPTS.tol_stationarity for r in records)


def test_full_small_path_steps_and_products():
    # CG stops once the step would pass the stopping test: the Newton steps
    # stay as they were and the products fall from 114
    data = make_problem(n=15, bound=0.05, mu_tik=0.01)
    records, details = run_path(data, decade_schedule(0, 6), OPTS, return_details=True)
    assert [r.iterations for r in records] == [3, 4, 4, 6, 3, 3, 3]
    assert sum(d.result.hessian_products for d in details) <= 105
    assert all(r.converged and r.stationarity <= OPTS.tol_stationarity for r in records)


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
    final = None
    # rebuild the final control by re-running the last solve warm-started
    recs, details = run_path(data, [records[-1].gamma], OPTS, return_details=True)
    final = details[0].result.x1_opt
    ref = shrink_to_feasible(data, final)
    j_ref, feasible, _ = unpenalized_objective(data, ref)
    assert feasible
    for r in records:
        assert r.j_gamma <= j_ref + 1e-10 * max(1.0, abs(j_ref))
        assert r.j <= r.j_gamma + 1e-12


def test_control_settles_in_last_decade():
    # moderate tolerance: the control movement per decade falls below 10x tol
    # once the path has settled (movement is O(1/gamma) at large gamma)
    data = make_problem(n=15, bound=0.05, mu_tik=0.01)
    opts = SolveOptions(tol_stationarity=1e-4)
    records = run_path(data, decade_schedule(0, 6), opts)
    assert records[-1].control_change <= 10.0 * opts.tol_stationarity


def test_shrink_to_feasible_basics():
    data = make_problem(n=11, bound=0.05, mu_tik=0.01)
    rng = np.random.Generator(np.random.Philox(2))
    base = 5.0 * rng.standard_normal(11)
    ref = shrink_to_feasible(data, base)
    _, feasible, viol = unpenalized_objective(data, ref)
    assert feasible and viol <= data.tol_feas
    # already-feasible controls come back unchanged
    z = np.zeros(11)
    assert np.array_equal(shrink_to_feasible(data, z), z)


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
        ref = shrink_to_feasible(data, base)
        monkeypatch.undo()
        assert len(solves) <= 5
        j, feasible, _ = unpenalized_objective(data, ref)
        assert feasible
        j_oracle, feasible_oracle, _ = unpenalized_objective(data, _resolving_bisection(data, base))
        assert feasible_oracle
        assert abs(j - j_oracle) <= 1e-12 * abs(j_oracle)


def test_shrink_to_feasible_walks_back_past_rejected_iterates(monkeypatch):
    # when the real test rejects the last scaled-feasible iterates, the result
    # is the next smaller bisection iterate that it accepts
    data = make_problem(n=11, bound=0.05, mu_tik=0.01)
    base = 5.0 * np.ones(11)
    checked = []

    def rejecting_three(d, x1):
        checked.append(x1)
        j, feasible, viol = unpenalized_objective(d, x1)
        return j, feasible and len(checked) > 3, viol

    monkeypatch.setattr(objective, "unpenalized_objective", rejecting_three)
    ref = shrink_to_feasible(data, base)
    scales = [x[0] / base[0] for x in checked]
    assert len(checked) >= 4 and np.all(np.diff(scales) < 0.0)
    assert np.array_equal(ref, checked[-1])
    assert unpenalized_objective(data, ref)[1]


def test_records_read_objective_and_violation_from_the_bundle(active_path):
    # j and max_violation equal unpenalized_objective at each point, bit for bit
    data, records = active_path
    _, details = run_path(data, [r.gamma for r in records], OPTS, return_details=True)
    for step in details:
        j, _, max_violation = unpenalized_objective(data, step.result.x1_opt)
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
