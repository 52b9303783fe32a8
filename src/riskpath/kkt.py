"""Residual evaluation for the penalized first-order system and its limit analogue.

The penalized system is satisfied by construction at a converged solve; the
checks here recompute every equation independently so implementation drift is
caught. The limit-system quantities (feasibility, complementarity, multiplier
mass) measure the distance to the constrained optimality system at finite
penalty strength. Mass escaping to few scenarios is summarized by a
concentration index, the finite-sample stand-in for multiplier parts that live
on vanishingly small probability sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cone as cone_mod
from .grid import dot_last
from .objective import EvalBundle, ProblemData
from .scenario import empirical_expectation

Q_CONCENTRATION = 0.125  # probability share of the heaviest scenarios in concentration_index


@dataclass
class KktReport:
    # penalized-system residuals (max over scenarios where applicable)
    stationarity_x1: float = 0.0
    adjoint_residual: float = 0.0
    rho_consistency: float = 0.0
    state_residual: float = 0.0
    multiplier_formula_residual: float = 0.0
    # limit-system quantities
    primal_feasibility: float = 0.0
    dual_cone_violation: float = 0.0
    complementarity: float = 0.0
    multiplier_l1: float = 0.0
    adjoint_l1: float = 0.0
    concentration_index: float = 0.0
    # diagnostics
    rho_mean_norm: float = 0.0
    rho_per_scenario_max: float = 0.0

    def as_dict(self) -> dict:
        return {k: float(v) for k, v in self.__dict__.items()}


def _max_norm(weight: float, u: np.ndarray) -> float:
    """Largest row norm sqrt(weight sum_j u_j^2), as max(norm_h) or max(cone.norm): the
    square root and the positive factor commute with the max, both rounding monotonically."""
    return math.sqrt(weight * float(dot_last(u, u).max()))


def check_gamma_system(data: ProblemData, bundle: EvalBundle) -> KktReport:
    """Evaluate the five penalized optimality equations as residual norms."""
    h = data.grid.h
    op = data.operator
    report = KktReport()
    report.stationarity_x1 = _max_norm(h, bundle.x1 - data.clamp(bundle.x1 - bundle.gradient))
    adj_u, adj_y = cone_mod.constraint_adjoints(
        data.constraint, bundle.x1, bundle.states, bundle.lambda_i
    )
    # theta zeta2 + (h A) lambda_e + i_x2^* lambda_i = 0
    adjoint = bundle.theta[:, None] * bundle.zeta2 + h * op.matvec(bundle.lambda_e) + adj_y
    report.adjoint_residual = _max_norm(h, adjoint)
    # e_x1^* lambda_e + i_x1^* lambda_i - rho = 0 (the control part of zeta is 0)
    report.rho_consistency = _max_norm(h, -h * bundle.lambda_e + adj_u - bundle.rho)
    # h A x2 = h x1 (state equation in mass-weighted form)
    report.state_residual = _max_norm(h, h * op.matvec(bundle.states) - h * bundle.x1)
    # lambda_i = gamma (i + proj(-i))
    i_vals = bundle.constraint_values
    formula = bundle.gamma * (i_vals + cone_mod.project(data.cone, -i_vals))
    report.multiplier_formula_residual = _max_norm(data.cone.weight, bundle.lambda_i - formula)
    report.rho_mean_norm = _max_norm(h, bundle.rho_mean)
    report.rho_per_scenario_max = _max_norm(h, bundle.rho)
    return report


def complementarity_value(data: ProblemData, bundle: EvalBundle) -> float:
    """Signed pairing E[(lambda_i, i)_H]; equals gamma E[||max(0,i)||_H^2]."""
    return empirical_expectation(
        data.scenarios, data.cone.inner(bundle.lambda_i, bundle.constraint_values)
    )


def concentration_index(lambda_masses, weights, q: float) -> float:
    """Fraction of total multiplier mass carried by the heaviest scenarios.

    Scenarios are taken in decreasing order of mass p_k ||lambda_k|| while
    their cumulative probability stays <= q. Values near 1 for small q signal
    multiplier mass concentrating on low-probability sets. The cumulative
    sums run in that order, one term after the other.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    weights = np.asarray(weights, dtype=float)
    masses = np.asarray(lambda_masses, dtype=float) * weights
    total = float(masses.sum())
    if total <= 0.0:
        return 0.0
    order = np.argsort(-masses, kind="stable")
    taken = int(np.searchsorted(np.cumsum(weights[order]), q + 1e-15, side="right"))
    return float(np.cumsum(masses[order])[taken - 1]) / total if taken else 0.0


def check_limit_system(data: ProblemData, bundle: EvalBundle) -> KktReport:
    """Distance-to-limit diagnostics at finite penalty strength."""
    report = check_gamma_system(data, bundle)
    w, cone = data.scenarios.weights, data.cone
    lam_i = bundle.lambda_i
    report.primal_feasibility = max(0.0, float(bundle.constraint_values.max()))
    report.dual_cone_violation = max(0.0, -float(lam_i.min()))
    report.complementarity = abs(complementarity_value(data, bundle))
    # the expectations below are empirical_expectation's np.dot
    report.multiplier_l1 = float(np.dot(w, cone.weight * np.abs(lam_i).sum(axis=-1)))
    report.adjoint_l1 = float(np.dot(w, data.grid.h * np.abs(bundle.lambda_e).sum(axis=-1)))
    report.concentration_index = concentration_index(cone.norm(lam_i), w, Q_CONCENTRATION)
    return report
