"""Penalty continuation: solve over an increasing gamma schedule with warm starts."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields, replace

import numpy as np

from . import cone as cone_mod
from . import kkt as kkt_mod
from . import objective as obj_mod
from . import solver as solver_mod
from .grid import norm_h
from .objective import ProblemData
from .scenario import empirical_expectation
from .solver import SolveOptions, SolveResult

CSV_SCHEMA_VERSION = "riskpath-path-v1"


class InsufficientDataError(ValueError):
    """Too few positive samples for a log-log slope fit."""


class PathAborted(RuntimeError):
    """A solve along the schedule diverged; partial records are attached."""

    def __init__(self, message, records):
        super().__init__(message)
        self.records = records


def decade_schedule(start_exp: int = 0, stop_exp: int = 6, per_decade: int = 1):
    """Geometric schedule 10^start .. 10^stop with per_decade points per decade."""
    n = (stop_exp - start_exp) * per_decade + 1
    values = np.logspace(start_exp, stop_exp, n)
    return validate_schedule(values)


def validate_schedule(values):
    values = np.asarray(values, dtype=float)
    finite_positive = np.isfinite(values) & (values > 0.0)
    if values.size == 0 or not np.all(finite_positive) or np.any(np.diff(values) <= 0.0):
        raise ValueError("gamma schedule must be finite, strictly increasing and positive")
    return values


@dataclass
class PathRecord:
    gamma: float
    j: float
    j_gamma: float
    penalty_term: float
    max_violation: float
    sq_violation: float  # E[ ||max(0,i)||_H^2 ]
    complementarity: float
    multiplier_l1: float
    adjoint_l1: float
    concentration_index: float
    control_change: float
    iterations: int
    converged: bool
    stationarity: float

    @staticmethod
    def csv_header() -> list[str]:
        return [f.name for f in fields(PathRecord)]


@dataclass
class PathStep:
    record: PathRecord
    result: SolveResult
    report: kkt_mod.KktReport


def run_path(
    data: ProblemData,
    schedule,
    opts: SolveOptions | None = None,
    warm_start: bool = True,
    return_details: bool = False,
):
    """Solve the penalized problem along the schedule, warm-starting each point.

    The first point, and every point of a cold path, starts from the zero control.
    A diverging solve raises PathAborted carrying the records gathered so far.
    """
    schedule = validate_schedule(schedule)
    opts = opts or SolveOptions()
    records: list[PathRecord] = []
    details: list[PathStep] = []
    x_prev = None
    for gamma in schedule:
        start = x_prev if warm_start else None
        try:
            result = solver_mod.minimize(data, gamma, opts, warm_start=start)
        except solver_mod.DivergedError as exc:
            raise PathAborted(f"solve diverged at gamma={gamma}", records) from exc
        bundle = result.bundle
        report = kkt_mod.check_limit_system(data, bundle)
        j = bundle.j1 + bundle.risk_value  # the unpenalized objective
        max_violation = max(0.0, np.max(bundle.constraint_values))
        sq_violation = empirical_expectation(
            data.scenarios, data.cone.inner(bundle.penalty_residuals, bundle.penalty_residuals)
        )
        change = (
            norm_h(data.grid, result.x1_opt - x_prev) if x_prev is not None else np.nan
        )
        # Python scalars only, so the CSV writes plain round-trip floats
        records.append(
            PathRecord(
                gamma=float(gamma),
                j=float(j),
                j_gamma=float(bundle.j_gamma),
                penalty_term=float(bundle.penalty_term),
                max_violation=float(max_violation),
                sq_violation=sq_violation,
                complementarity=float(report.complementarity),
                multiplier_l1=float(report.multiplier_l1),
                adjoint_l1=float(report.adjoint_l1),
                concentration_index=float(report.concentration_index),
                control_change=float(change),
                iterations=int(result.iterations),
                converged=bool(result.converged),
                stationarity=float(result.stationarity_norm),
            )
        )
        if return_details:
            details.append(PathStep(record=records[-1], result=result, report=report))
        x_prev = result.x1_opt
    if return_details:
        return records, details
    return records


def shrink_to_feasible(data: ProblemData, base_control: np.ndarray, iters: int = 60):
    """Scale a control toward zero until the unpenalized problem is feasible.

    Bisection on the scale, valid as the constraint is convex in it and strictly
    feasible at zero for positive bounds. Convexity also makes a scenario that is
    feasible at the full scale feasible at every smaller one, so the bisection
    looks only at the scenarios infeasible at full scale. One solve of the clamped
    base gives the (linear) states of all scales; fresh solves differ by
    round-off, so the result is the largest iterate that unpenalized_objective
    also passes. Fixture for the reference-control comparisons, not part of the
    optimization method.
    """
    base = data.clamp(np.asarray(base_control, dtype=float))
    states = obj_mod.solve_state(data.operator, base)
    cmap = data.constraint

    def constraint(t):
        return cone_mod.constraint_eval(cmap, t * base, t * states)

    def feasible(t):
        return np.max(constraint(t)) <= data.tol_feas

    rows = np.max(constraint(1.0), axis=-1) > data.tol_feas  # the infeasible scenarios
    if not rows.any():
        return base
    if not feasible(0.0):
        raise ValueError("zero control is infeasible; no scaled reference exists")
    cmap = replace(cmap, bounds=cmap.bounds[rows])  # from here on, only these rows
    states = states[rows]
    passed, t_hi = [0.0], 1.0  # the feasible iterates, increasing
    for _ in range(iters):
        t = 0.5 * (passed[-1] + t_hi)
        if t in (passed[-1], t_hi):  # the bracket is one ulp wide
            break
        if feasible(t):
            passed.append(t)
        else:
            t_hi = t
    # zero passes: its states are exactly zero either way
    return next(t * base for t in reversed(passed)
                if obj_mod.unpenalized_objective(data, t * base)[1])


def fit_decay_slope(records, field_name: str):
    """Least-squares slope of log(field) vs log(gamma) with R^2.

    Needs at least 4 records with strictly positive field values.
    """
    gammas, values = [], []
    for r in records:
        v = getattr(r, field_name)
        if v > 0.0:
            gammas.append(r.gamma)
            values.append(v)
    if len(values) < 4:
        raise InsufficientDataError(
            f"need >= 4 positive values of {field_name!r}, have {len(values)}"
        )
    x = np.log(np.asarray(gammas))
    y = np.log(np.asarray(values))
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return float(slope), float(r2)


def records_to_csv(records) -> str:
    """Fixed-order CSV with a schema-version tag; floats in round-trip precision."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"# schema={CSV_SCHEMA_VERSION}"])
    writer.writerow(PathRecord.csv_header())
    for r in records:
        row = []
        for name in PathRecord.csv_header():
            v = getattr(r, name)
            if isinstance(v, bool):
                row.append(str(v).lower())
            elif isinstance(v, float):
                row.append(repr(v))
            else:
                row.append(str(v))
        writer.writerow(row)
    return buf.getvalue()
