"""Penalized composite objective, its adjoint-based reduced gradient and Hessian products.

The state equation is kept in the mass-weighted (Galerkin-like) form: the stiffness part
is M A with A the assembled stencil and M = h I the grid's lumped mass, and the control
enters through the negative lumped-mass injection, so the control coupling's adjoint is
p = -h lambda_e nodewise; the adjoint is kept as p, which solves A p = theta zeta2 +
i_x2^* lambda_i. All duals returned here pair with controls and states through the plain
euclidean dot product (the mass is baked in), as the finite-difference checks rely on.

Per-scenario quantities are stacked (K, n) arrays: one solve with the shared
block-diagonal factor gives every state, one more every adjoint, and each pointwise map
acts on the whole stack at once. Each expectation over the scenarios is one
matrix-vector product with the weights (ScenarioSet.mean). The models own their
derivatives: the risk's density and curvature (risk.subgradient, risk.hessian_product),
the penalty's multiplier (cone.penalty) and the constraint's linearisation and adjoints;
this module composes them by the chain rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import cone as cone_mod
from . import risk as risk_mod
from .cone import ConeSpec, ConstraintMap, bound_points
from .grid import EllipticOperator, Grid, assemble, solve_state
from .risk import RiskMeasure
from .scenario import ScenarioSet


@dataclass(frozen=True, eq=False)
class ProblemData:
    """The inputs of one problem, and the two values derived from them when it is made.

    The factored operator and the cone are not inputs: dataclasses.replace of
    an input derives them afresh, and refuses them as arguments.
    """

    grid: Grid
    scenarios: ScenarioSet
    constraint: ConstraintMap
    risk: RiskMeasure
    y_d: np.ndarray
    mu_tik: float
    lo: np.ndarray
    hi: np.ndarray
    tol_feas: float = 1e-9
    operator: EllipticOperator = field(init=False)  # all K stencils, one block-diagonal factor
    cone: ConeSpec = field(init=False)

    def __post_init__(self):
        if not self.mu_tik > 0.0:  # NaN fails too
            raise ValueError("mu_tik must be positive (strong convexity)")
        if not self.tol_feas >= 0.0:  # NaN fails too
            raise ValueError("tol_feas must be >= 0")
        n, lo, hi = self.grid.shape, self.lo, self.hi
        m = (self.scenarios.count, bound_points(self.constraint.kind, self.grid).size)
        for name, ok in (("constraint.grid", self.constraint.grid == self.grid),
                         ("constraint.bounds", np.shape(self.constraint.bounds) == m),
                         ("y_d", np.shape(self.y_d) == n)):
            if not ok:
                raise ValueError(f"{name} does not fit nodes of shape {n} and bounds of shape {m}")
        object.__setattr__(self, "lo", np.broadcast_to(np.asarray(lo, dtype=float), n).copy())
        object.__setattr__(self, "hi", np.broadcast_to(np.asarray(hi, dtype=float), n).copy())
        if not np.all(self.lo <= self.hi):  # NaN fails too
            raise ValueError("control bounds lo and hi must be numbers with lo <= hi nodewise")
        object.__setattr__(self, "y_d", np.asarray(self.y_d, dtype=float))
        if not np.isfinite(self.y_d).all():
            raise ValueError("y_d must be finite")
        object.__setattr__(self, "operator", assemble(self.grid, self.scenarios.conductivities))
        object.__setattr__(self, "cone", self.constraint.cone_spec())

    def clamp(self, x1: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(x1, self.lo), self.hi)  # np.clip's bits, in less time

    def binding(self, x1: np.ndarray, g: np.ndarray, eps: float) -> np.ndarray:
        """Where a bound takes up g: x1 within eps of lo with g > 0, or of hi with g < 0."""
        return ((x1 <= self.lo + eps) & (g > 0.0)) | ((x1 >= self.hi - eps) & (g < 0.0))


@dataclass(eq=False)
class ControlEval:
    """The half of an evaluation that depends on the control alone, not on gamma."""

    data: ProblemData = field(repr=False)  # the problem it was computed for
    x1: np.ndarray
    states: np.ndarray  # x2, (K, n)
    constraint_values: np.ndarray  # i, (K, m)
    zeta2: np.ndarray  # state part of the scenario-cost subgradient, mass-weighted, (K, n)
    theta: np.ndarray  # risk subgradient density, (K,)
    j: float  # the unpenalized objective (mu/2) ||x1||^2 + R[J2]


@dataclass(eq=False)
class EvalBundle(ControlEval):
    """One full evaluation; per-scenario quantities are stacked along axis 0.

    It stores four stacked arrays: the states, zeta2, the constraint values and
    the adjoints. The penalty residuals and the multipliers are one-line
    functions of them, computed on access with the penalty's expressions, so a path
    that keeps a bundle per gamma point does not keep them.
    """

    gamma: float
    adjoints: np.ndarray  # p = -h lambda_e, mass-weighted like zeta2, (K, n)
    rho_mean: np.ndarray  # E[rho], (n,)
    penalty_term: float
    j_gamma: float
    gradient: np.ndarray  # reduced gradient, dual of the control

    @property
    def penalty_residuals(self) -> np.ndarray:
        """max(0, i), (K, m)."""
        return cone_mod.project(self.constraint_values)

    @property
    def lambda_i(self) -> np.ndarray:
        """The penalty multipliers gamma max(0, i), (K, m)."""
        return self.gamma * self.penalty_residuals


def control_half(data: ProblemData, x1: np.ndarray) -> ControlEval:
    """The one forward map of a control: states, risk, constraint values and j."""
    states = solve_state(data.operator, x1)
    zeta2 = states - data.y_d  # the tracking residual
    costs = 0.5 * data.grid.inner(zeta2, zeta2)  # J2
    zeta2 *= data.grid.mass  # the residual, mass-weighted
    risk = risk_mod.subgradient(data.risk, costs, data.scenarios.weights)
    j = 0.5 * data.mu_tik * data.grid.inner(x1, x1) + risk.value
    i_vals = cone_mod.constraint_eval(data.constraint, x1, states)
    return ControlEval(data, x1, states, i_vals, zeta2, risk.theta, j)


def evaluate(data: ProblemData, gamma: float, x1) -> EvalBundle:
    """Full evaluation: states, penalty, multipliers, adjoints, reduced gradient.

    ``x1`` is a control, or a ControlEval of one. One of ``data`` (its bundle at
    another gamma, say) is taken as it is: only the penalty, multipliers, adjoint
    solve and gradient depend on gamma. One of another problem gives its control.
    """
    if not math.isfinite(gamma) or gamma <= 0.0:
        raise ValueError("gamma must be a finite positive real")
    if isinstance(x1, ControlEval) and x1.data is not data:
        x1 = x1.x1
    c = x1 if isinstance(x1, ControlEval) else control_half(data, np.asarray(x1, dtype=float))
    pv = cone_mod.penalty(data.cone, gamma, c.constraint_values)
    i_slope = cone_mod.constraint_slope(data.constraint, c.states)
    adj_y = cone_mod.constraint_adjoints(data.constraint, i_slope, pv.multiplier)
    p, rho_mean = _adjoint_step(data, c.theta[:, None], c.zeta2, adj_y)
    penalty_term = float(data.scenarios.mean(pv.value))
    return EvalBundle(  # the control half, in field order, then the gamma half
        data, c.x1, c.states, c.constraint_values, c.zeta2, c.theta, c.j, gamma=gamma,
        adjoints=p, rho_mean=rho_mean, penalty_term=penalty_term, j_gamma=c.j + penalty_term,
        gradient=data.mu_tik * data.grid.mass * c.x1 + rho_mean,
    )


def _adjoint_step(data: ProblemData, weight, r: np.ndarray, adj_y: np.ndarray, out=None):
    """(p, E[rho]) of a gradient (weight theta, r zeta2) or a Hessian product.

    Forms weight r + i_x2^* lambda (``adj_y``) in ``out`` (new when None; ``r`` may
    be it) and solves A p = that in place: p = -h lambda_e solves the adjoint equation
    theta zeta2 + (h A) lambda_e + i_x2^* lambda = 0. Then rho = e_x1^* lambda_e +
    i_x1^* lambda = p - coef i_x2^* lambda, each expectation one matrix-vector product.
    """
    p = np.multiply(weight, r, out=out)
    p += adj_y
    p = solve_state(data.operator, p, out=p)
    scenarios, coef = data.scenarios, data.constraint.control_coefficient
    mean = scenarios.mean(p)
    if coef:
        mean -= coef * scenarios.mean(adj_y)
    return p, mean


def hessian_operator(bundle: EvalBundle):
    """Generalised Hessian of j^gamma at the bundle's point, as a product v -> H v.

    Each product is one stacked state solve (the state directions) and one stacked adjoint
    solve. A stack of directions (m, n) gives the stack of their products from one state and
    one adjoint solve of m K right-hand sides, each row bit for bit its own product but for
    the risk's curvature term, whose matrix products round differently for a stack. The
    penalty contributes gamma times the active indicator of max(0, i) on the constraint
    linearisation (Gauss-Newton for the gradient constraint). The risk weights each scenario
    by its density theta and, where curved (risk.hessian_product), adds its second
    derivative on the cost directions grad J_k . v (one more stacked solve).

    Only the adjoint solve of a product checks for a non-finite solution: its
    right-hand side is the state solution times theta mass (finite, >= 0) plus a
    constraint adjoint, so each non-finite entry of the state solution stays
    non-finite there (inf * 0 and inf - inf are NaN).
    """
    data, mass, theta = bundle.data, bundle.data.grid.mass, bundle.theta
    i_slope = cone_mod.constraint_slope(data.constraint, bundle.states)
    curvature = bundle.gamma * (bundle.constraint_values > 0.0)  # where max(0, i) > 0
    risk_hessian = risk_mod.hessian_product(data.risk, theta, data.scenarios.weights)
    grad_j = None if risk_hessian is None else solve_state(data.operator, bundle.zeta2)  # (K, n)
    risk_weight, shape = theta[:, None] * mass, data.operator.diag.shape
    # one direction's states, then adjoints; its multiplier; its constraint adjoint
    work, lam_work, adj_work = np.empty(shape), np.empty(curvature.shape), np.empty(shape)

    def product(v: np.ndarray) -> np.ndarray:
        dv = v[..., None, :]  # a stack (m, n) meets the scenarios as (m, 1, n)
        one = v.ndim == 1
        out = work if one else np.empty(v.shape[:-1] + shape)
        d_states = solve_state(data.operator, dv, out=out, check=False)
        d_lam = cone_mod.constraint_jvp(data.constraint, i_slope, dv, d_states,
                                        out=lam_work if one else None)
        d_lam *= curvature
        adj_y = cone_mod.constraint_adjoints(data.constraint, i_slope, d_lam,
                                             out=adj_work if one else None)
        _, hv = _adjoint_step(data, risk_weight, d_states, adj_y, out)
        hv += data.mu_tik * mass * v
        if risk_hessian is not None:  # grad_j @ v.T is (K,), or (K, m) for a stack
            hv += risk_hessian(grad_j @ v.T).T @ grad_j
        return hv

    return product


def objective_only(data: ProblemData, gamma: float, x1: np.ndarray) -> float:
    """j^gamma alone, as evaluate computes it (for difference quotients)."""
    return evaluate(data, gamma, x1).j_gamma


def unpenalized_objective(data: ProblemData, x1: np.ndarray):
    """(j, feasible, max_violation) without the penalty term."""
    c = control_half(data, np.asarray(x1, dtype=float))
    max_i = float(np.max(c.constraint_values))
    return c.j, max_i <= data.tol_feas, max(0.0, max_i)
