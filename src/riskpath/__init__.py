"""Scenario-based penalty-path solver for risk-averse optimal control.

A deterministic heat-source control acts on random elliptic states that must
satisfy almost-sure conical constraints; the constraint is enforced through a
quadratic (Moreau-envelope) penalty driven to infinity along a continuation
schedule, with risk-averse aggregation of the scenario costs and full
first-order (KKT) residual reporting along the path.
"""

from .cone import ConeSpec, ConstraintMap, PenaltyValue, penalty, penalty_multiplier, project
from .grid import EllipticOperator, EllipticityError, Grid, assemble, solve_state
from .kkt import KktReport, check_limit_system, concentration_index
from .objective import EvalBundle, ProblemData, evaluate, objective_only, unpenalized_objective
from .path import (
    PathRecord,
    decade_schedule,
    fit_decay_slope,
    run_path,
    shrink_to_feasible,
)
from .risk import RiskMeasure, RiskSubgradient, duality_gap, evaluate as risk_evaluate, subgradient
from .scenario import ScenarioConfig, ScenarioSet, conductivity, sample
from .solver import DivergedError, SolveOptions, SolveResult, minimize

__version__ = "0.1.0"
