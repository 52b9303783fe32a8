"""Penalty continuation: solve over an increasing gamma schedule with warm starts."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import cone as cone_mod
from . import kkt as kkt_mod
from . import objective as obj_mod
from . import solver as solver_mod
from .objective import ProblemData
from .solver import SolveOptions, SolveResult

CSV_SCHEMA_VERSION = "riskpath-path-v1"


class InsufficientDataError(ValueError):
    """Too few positive samples for a log-log slope fit."""


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
    callback=None,
):
    """Solve the penalized problem along the schedule, yielding one PathStep per point.

    The first point, and every point of a cold path, starts from the zero control;
    a warm start is the previous point's bundle, whose control half is reused. That
    bundle is the only one kept between points. ``callback`` goes to every
    ``minimize`` call unchanged. A diverging solve raises DivergedError, chained from
    the solver's, after the points before it were yielded.
    """
    schedule = validate_schedule(schedule)
    opts = opts or SolveOptions()
    previous = None  # the last point's bundle: the next warm start and control_change's base
    for gamma in schedule:
        try:
            result = solver_mod.minimize(data, gamma, opts, callback=callback,
                                         warm_start=previous if warm_start else None)
        except solver_mod.DivergedError as exc:
            raise solver_mod.DivergedError(f"solve diverged at gamma={gamma}") from exc
        bundle = result.bundle
        report = kkt_mod.check_limit_system(bundle)
        j = bundle.j1 + bundle.risk_value  # the unpenalized objective
        residual = bundle.penalty_residuals
        sq_violation = float(data.scenarios.mean(data.cone.inner(residual, residual)))
        del residual  # one (K, m) stack, not kept while the caller reads the step
        change = np.nan if previous is None else data.grid.norm(bundle.x1 - previous.x1)
        previous = bundle
        # Python scalars only, so the CSV and the JSON reports write plain floats
        record = PathRecord(
            gamma=float(gamma),
            j=float(j),
            j_gamma=float(bundle.j_gamma),
            penalty_term=float(bundle.penalty_term),
            max_violation=float(report.primal_feasibility),
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
        yield PathStep(record=record, result=result, report=report)


def shrink_to_feasible(data: ProblemData, base_control):
    """Scale a control toward zero until the unpenalized problem is feasible.

    ``base_control`` is a control, clamped to the box, or a ControlEval, whose states give
    those of every scale t (one of ``data``, a path's final bundle, is read as it is), so
    the largest feasible scale t* = min(1, min b / L) is closed-form (cone.ray_bounds).
    Fresh solves differ by round-off, so unpenalized_objective certifies t* base backed
    off by a relative 2**-44; each rejection backs t off by 2**-40, 2**-36, ... more,
    and the zero control is the last resort. Returns (control, j) with j its
    unpenalized objective, from the certifying call where there is one. Fixture for
    the reference-control comparisons.
    """
    c = base_control
    if not (isinstance(c, obj_mod.ControlEval) and c.data is data):
        c = obj_mod.control_half(data, data.clamp(np.asarray(getattr(c, "x1", c), dtype=float)))
    base, cmap, tol = c.x1, data.constraint, data.tol_feas
    if np.max(c.constraint_values) <= tol:
        return base, c.j1 + c.risk_value
    zero = 0.0 * base  # its states are exactly zero, in every scenario
    if np.max(cone_mod.constraint_eval(cmap, zero, zero)) > tol:
        raise ValueError("zero control is infeasible; no scaled reference exists")
    slope, bound = cone_mod.ray_bounds(cmap, base, c.states, tol)
    over = slope > bound  # the entries infeasible at full scale; b >= 0 here
    t = float(np.min(bound[over] / slope[over], initial=1.0))
    del c, slope, bound, over  # the certifying solves need none of the base's stacks
    for k in range(5):  # certifying solves before the zero control
        t *= 1.0 - 2.0 ** (4 * k - 44)
        j, feasible, _ = obj_mod.unpenalized_objective(data, t * base)
        if feasible:
            return t * base, j
    return zero, obj_mod.unpenalized_objective(data, zero)[0]


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
    x -= x.mean()  # centered: the slope is <x, y> / <x, x>, the intercept drops out
    y -= y.mean()
    slope = float(np.dot(x, y) / np.dot(x, x))
    ss_res = float(np.sum((y - slope * x) ** 2))
    ss_tot = float(np.dot(y, y))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return slope, r2


def records_to_csv(records) -> str:
    """Fixed-order CSV with a schema-version tag; floats in round-trip precision.

    No field holds a comma, a quote or a line break, so none is quoted and a row is
    its fields joined by commas, as csv.writer writes them.
    """
    header = PathRecord.csv_header()
    lines = [f"# schema={CSV_SCHEMA_VERSION}", ",".join(header)]
    for r in records:  # a record holds Python scalars; str of a float is its repr
        lines.append(",".join([str(getattr(r, name)) for name in header]).lower())  # true, false
    lines.append("")
    return "\n".join(lines)
