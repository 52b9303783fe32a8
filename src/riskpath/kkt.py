"""Residuals of the penalized first-order system and its limit analogue.

Two penalized equations are recomputed: the adjoint and state equations,
through the stencil's matvec, not the factor that solved them; the adjoint one
on the bundle's mass-weighted adjoint p = -h lambda_e, as
theta zeta2 - A p + i_x2^* lambda_i = 0. The third that
can fail, control stationarity against the box, is the solver's stopping
measure and is reported once, as the path's stationarity. The other three
hold by construction, as evaluate builds rho and the multiplier
gamma max(0, i) >= 0 from the very expressions a check would repeat; tests pin
those formulas bit for bit. The limit-system quantities (feasibility,
complementarity, multiplier mass) measure the distance to the constrained
optimality system at finite penalty strength. Mass escaping to few scenarios is summarized by a
concentration index, the finite-sample stand-in for multiplier parts that
live on vanishingly small probability sets. The certificate bounds the
distance from the bundle's control to the exact minimiser of j_gamma over the
box, by the mu_tik-strong convexity of j_gamma (Bauschke & Combettes, Convex
Analysis and Monotone Operator Theory in Hilbert Spaces, 2nd ed. 2017, ch. 22).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cone as cone_mod
from .objective import EvalBundle

Q_CONCENTRATION = 0.125  # probability share of the heaviest scenarios in concentration_index


@dataclass
class KktReport:
    # penalized-system residuals (max over scenarios where applicable)
    adjoint_residual: float
    state_residual: float
    # limit-system quantities
    primal_feasibility: float
    complementarity: float
    multiplier_l1: float
    adjoint_l1: float
    concentration_index: float
    # diagnostics
    rho_mean_norm: float
    rho_per_scenario_max: float
    # ||x1 - the minimiser of j_gamma over the box||_h <= certificate
    certificate: float

    def as_dict(self) -> dict:
        return {k: float(v) for k, v in self.__dict__.items()}


def concentration_index(lambda_masses, weights, q: float) -> float:
    """Fraction of total multiplier mass carried by the heaviest scenarios.

    Scenarios are taken in decreasing order of mass p_k ||lambda_k|| while
    their cumulative probability stays <= q. Values near 1 for small q signal
    multiplier mass concentrating on low-probability sets. The cumulative
    sums run in that order, one term after the other. Both arguments are float arrays.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    masses = lambda_masses * weights
    total = float(masses.sum())
    if total <= 0.0:
        return 0.0
    order = np.argsort(-masses, kind="stable")
    taken = int(np.searchsorted(np.cumsum(weights[order]), q + 1e-15, side="right"))
    return float(np.cumsum(masses[order])[taken - 1]) / total if taken else 0.0


@np.errstate(over="ignore", invalid="ignore")  # an overflow reads inf or NaN in the report
def check_limit_system(bundle: EvalBundle) -> KktReport:
    """The penalized equations that can fail, and distance-to-limit diagnostics."""
    data = bundle.data
    grid, op, scenarios, cone = data.grid, data.operator, data.scenarios, data.cone
    adjoint_l1 = float(scenarios.mean(np.abs(bundle.adjoints).sum(axis=-1)))  # E[h sum |lambda_e|]
    lam_i = bundle.lambda_i
    i_slope = cone_mod.constraint_slope(data.constraint, bundle.states)
    adj_y = cone_mod.constraint_adjoints(data.constraint, i_slope, lam_i)
    # E[(lambda_i, i)_H], which equals gamma E[||max(0, i)||_H^2]
    complementarity = abs(float(scenarios.mean(cone.inner(lam_i, bundle.constraint_values))))
    concentration = concentration_index(cone.norm(lam_i), scenarios.weights, Q_CONCENTRATION)
    multiplier_l1 = float(scenarios.mean(cone.weight * np.abs(lam_i, out=lam_i).sum(axis=-1)))
    del lam_i, i_slope  # each stack is dropped, or reused, once it has been reduced
    work = op.matvec(bundle.states)  # the report's scratch stack, then rho's and the residual's
    work *= grid.mass
    work -= grid.mass * bundle.x1
    state_residual = grid.max_norm(work)  # M A x2 = M x1
    # rho = e_x1^* lambda_e + i_x1^* lambda_i = p - coef i_x2^* lambda_i, p = -h lambda_e
    rho, coef = bundle.adjoints, data.constraint.control_coefficient
    if coef:
        rho = np.subtract(rho, np.multiply(coef, adj_y, out=work), out=work)
    rho_per_scenario_max = grid.max_norm(rho)
    # theta zeta2 - A p + i_x2^* lambda_i = 0
    residual = np.multiply(bundle.theta[:, None], bundle.zeta2, out=work)
    residual -= op.matvec(bundle.adjoints)
    residual += adj_y
    # j_gamma is mu_tik-strongly convex in the lumped product, so ||v||_h / mu_tik bounds
    # the distance for v in its subdifferential at x1: the least-norm one, the gradient's
    # Riesz form M^-1 g, 0 where a bound takes it up (binds at distance 0)
    v = grid.riesz(bundle.gradient)
    v[data.binding(bundle.x1, bundle.gradient, 0.0)] = 0.0
    return KktReport(
        adjoint_residual=grid.max_norm(residual),
        state_residual=state_residual,
        primal_feasibility=max(0.0, float(bundle.constraint_values.max())),
        complementarity=complementarity,
        multiplier_l1=multiplier_l1,
        adjoint_l1=adjoint_l1,
        concentration_index=concentration,
        rho_mean_norm=grid.norm(bundle.rho_mean),
        rho_per_scenario_max=rho_per_scenario_max,
        certificate=grid.norm(v) / data.mu_tik,
    )
