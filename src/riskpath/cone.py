"""Nonnegativity cones, their projections, the quadratic penalty, and constraint maps.

The penalty is the Moreau envelope of the cone indicator evaluated at the
negated constraint value: for nonnegativity cones it collapses to the closed
form (gamma/2) ||max(0, i)||_H^2 with gradient gamma * max(0, i).

Three constraint maps are realized: a mixed control/state bound, a scalar
volume bound, and a bound on the state gradient magnitude (delta-smoothed so
the map stays continuously differentiable), each with its linearisation and
adjoints. Constraint values are stacked (K, m) arrays, one row per scenario;
the volume bound is the case m = 1. Each map reads the control at most as
-epsilon x1, so its control derivative is a multiple of its state derivative,
i_x1 = -c i_x2 with c = ConstraintMap.control_coefficient, and only the state
adjoint i_x2^* lam is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, dot_last


@dataclass(frozen=True)
class ConeSpec:
    """Pointwise-nonnegative cone in a weighted discrete L2 space.

    The inner product is weight * sum_j u_j v_j over the last axis: the grid's
    mass for grid functions on nodes or cells (the lumped product), 1 for the
    half line of a scalar constraint. Stacked arguments give one value per row.
    """

    weight: float = 1.0

    def __post_init__(self):
        if not self.weight > 0.0:  # NaN fails too
            raise ValueError("cone weight must be positive")

    def inner(self, u: np.ndarray, v: np.ndarray):
        return self.weight * dot_last(u, v)

    def norm(self, u: np.ndarray):
        return np.sqrt(self.inner(u, u))  # a sum of squares is >= 0, or NaN


def project(k):
    """H-orthogonal projection onto every ConeSpec: the pointwise positive part."""
    return np.maximum(0.0, np.asarray(k, dtype=float))


@dataclass(frozen=True)
class PenaltyValue:
    value: float | np.ndarray  # one value per row of a stacked constraint value
    multiplier: np.ndarray  # gamma max(0, i), the penalty's gradient


def penalty(cone: ConeSpec, gamma: float, i_value) -> PenaltyValue:
    """(gamma/2) ||max(0, i)||_H^2, zero exactly where i <= 0, and its gradient gamma max(0, i)."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    r = project(i_value)
    value = 0.5 * gamma * cone.inner(r, r)
    return PenaltyValue(value, np.multiply(gamma, r, out=r))


def penalty_multiplier(gamma: float, i_value):
    """gamma * (i + proj(-i)) = gamma * max(0, i); always in the dual cone."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    return gamma * project(i_value)


@dataclass(frozen=True, eq=False)
class ConstraintMap:
    """Constraint i(x1, x2; omega) for every scenario, one of three kinds.

    mixed:    i = x2 - bound - epsilon*x1, nodewise (bounds (K, n) on nodes)
    volume:   i = integral of x2 - b, one column (bounds (K, 1))
    gradient: i = sqrt((Du)^2 + delta^2) - delta - psi at cell midpoints, with
              Du the grid's cell gradient, boundary cells included (bounds
              (K, n_cells))
    """

    kind: str
    grid: Grid
    bounds: np.ndarray
    epsilon: float = 0.0
    delta: float = 1e-8

    def __post_init__(self):
        if self.kind not in ("mixed", "volume", "gradient"):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if not (self.epsilon >= 0.0 and self.delta >= 0.0):  # NaN fails too
            raise ValueError("epsilon and delta must be nonnegative")
        if not np.isfinite(self.bounds).all():
            raise ValueError("constraint bounds must be finite")
        if self.kind == "gradient" and not (self.bounds >= 0.0).all():  # i >= -psi: none feasible
            raise ValueError("a gradient bound must be >= 0: no smoothed gradient norm is below 0")

    def cone_spec(self) -> ConeSpec:
        return ConeSpec(weight=1.0 if self.kind == "volume" else self.grid.mass)

    @property
    def control_coefficient(self) -> float:
        """c with i_x1 = -c i_x2: epsilon for mixed, 0 for the kinds that do not read x1."""
        return self.epsilon if self.kind == "mixed" else 0.0


def bound_points(kind: str, grid: Grid) -> np.ndarray:
    """Where a constraint of ``kind`` takes its bound: the columns of ConstraintMap.bounds."""
    if kind == "mixed":
        return grid.nodes
    if kind == "gradient":
        return grid.cell_midpoints
    return np.array([0.0])  # volume: one scalar bound


def constraint_eval(cmap: ConstraintMap, x1: np.ndarray, x2: np.ndarray):
    """Constraint values (K, m) for the states x2 (K, n) under the control x1."""
    if cmap.kind == "mixed":
        i = np.subtract(x2, cmap.bounds)
        return np.subtract(i, cmap.epsilon * x1, out=i)
    if cmap.kind == "volume":
        return cmap.grid.integral(x2) - cmap.bounds
    i = cmap.grid.cell_gradient(x2)  # sqrt(du^2 + delta^2) - delta - psi, in du's array
    np.square(i, out=i)
    i += cmap.delta**2
    np.sqrt(i, out=i)
    i -= cmap.delta
    # a new array where the bounds broadcast the cells of one (n,) state
    return np.subtract(i, cmap.bounds, out=i if i.shape == cmap.bounds.shape else None)


def ray_bounds(cmap: ConstraintMap, x1: np.ndarray, x2: np.ndarray, tol: float):
    """(L, b) such that, for t >= 0, constraint_eval(cmap, t x1, t x2) <= tol where t L <= b.

    Needs psi + tol >= 0 for the bounds psi. Gradient kind: the smoothed norm
    sqrt(s^2 + delta^2) - delta <= psi + tol where s <= sqrt((psi + tol)(psi + tol + 2 delta)).
    """
    slack = cmap.bounds + tol
    if cmap.kind == "mixed":
        return x2 - cmap.epsilon * x1, slack
    if cmap.kind == "volume":
        return cmap.grid.integral(x2), slack
    return np.abs(cmap.grid.cell_gradient(x2)), np.sqrt(slack * (slack + 2.0 * cmap.delta))


def constraint_slope(cmap: ConstraintMap, x2: np.ndarray):
    """The point's factor in i's derivative, from the states x2: the smoothed-norm slope at
    the cell gradients (gradient kind); None for the affine kinds, whose derivative is fixed."""
    if cmap.kind != "gradient":
        return None
    du = cmap.grid.cell_gradient(x2)
    denom = np.sqrt(du**2 + cmap.delta**2)
    # subgradient tie-break: slope 0 where the smoothed norm is flat (delta=0, du=0)
    return np.divide(du, denom, out=np.zeros_like(du), where=denom > 0.0)


def constraint_jvp(cmap: ConstraintMap, d, dx1, dx2, out=None):
    """Linearisation i_x1 dx1 + i_x2 dx2 at d = constraint_slope(point), stacked (K, m), in
    ``out``.

    Exact for the affine kinds; for the gradient kind it is the first-order term
    of the smoothed norm (its curvature is left out).
    """
    if cmap.kind == "mixed":
        return np.subtract(dx2, cmap.epsilon * np.asarray(dx1, dtype=float), out=out)
    if cmap.kind == "volume":
        return cmap.grid.integral(dx2, out=out)
    du = cmap.grid.cell_gradient(dx2, out=out)
    return np.multiply(du, d, out=du)


def constraint_adjoints(cmap: ConstraintMap, d, lam, out=None):
    """State adjoint i_x2^* lam at d = constraint_slope(point), in a C-contiguous ``out``.

    With the control adjoint i_x1^* lam = -c i_x2^* lam (c = cmap.control_coefficient)
    it satisfies (lam, i_x1 du + i_x2 dy)_H = <-c i_x2^* lam, du> + <i_x2^* lam, dy>,
    the right-hand pairings the plain euclidean dot product, row by row.
    """
    lam = np.asarray(lam, dtype=float)
    if out is None:
        out = np.empty(lam.shape[:-1] + cmap.grid.shape)
    elif not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    if cmap.kind == "gradient":  # c_j - c_{j+1}, c = lam d over the cells, on out's flat view
        flat = np.multiply(lam[..., :-1], d[..., :-1], out=out).reshape(-1)
        flat[:-1] -= flat[1:]  # so each row's last node takes the next row's c_0, mended here:
        np.subtract(lam[..., -2] * d[..., -2], lam[..., -1] * d[..., -1], out=out[..., -1])
        return out
    return np.multiply(cmap.grid.mass, lam, out=out)  # volume: the one column, on every node
