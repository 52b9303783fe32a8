"""Minimization of the penalized objective over the box C, one gamma point at a time.

The Moreau–Yosida penalty (gamma/2) ||max(0, i)||^2 is C^1 with the semismooth
gradient gamma * max(0, i), so each gamma point is a box-constrained problem,
solved from the warm start of the previous point by projected semismooth Newton
(Hintermüller, Ito & Kunisch 2003; Bertsekas 1982). The bounds that bind
(gradient pointing out of the box) take a gradient step; on the free variables
the Newton system with the generalised Hessian is solved by unpreconditioned
conjugate gradients, matrix-free through ``objective.hessian_operator``. CG
stops at the forcing term min(ETA_MAX, sqrt|g_F|) |g_F| on the free gradient
g_F, or once its residual alone would pass CG_MARGIN times the stopping test,
so the last step of a solve does not oversolve (Kelley, Iterative Methods for
Linear and Nonlinear Equations, SIAM 1995, 6.3). ETA_MAX is 0.03, not Kelley's
0.1: at the first steps of a warm-started gamma point a direction cut off after
one or two products costs whole Newton steps and backtracks. The exact tail
mean keeps its scenario weights frozen within a step.

Each step backtracks (Armijo) along the projected path from the full step, and
each trial point gets one full evaluation, whose bundle the next iteration
takes if accepted: no point is evaluated twice. A solve returns the bundle of
its last point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import objective as obj_mod
from .grid import norm_h
from .objective import EvalBundle, ProblemData

ARMIJO = 1e-4  # sufficient-decrease constant
SHRINK = 0.5  # backtracking factor
BACKTRACKS = 60  # trial steps per line search
ROUNDOFF = 64.0 * np.finfo(float).eps  # |change of j_gamma| / |j_gamma| below round-off
BINDING_EPS = 1e-3  # largest distance to a bound at which it can bind
CG_MARGIN = 0.5  # CG stops once its residual alone would pass this share of the test
ETA_MAX = 0.03  # cap of the CG forcing term min(ETA_MAX, sqrt|g_F|)


class DivergedError(RuntimeError):
    """Objective or gradient non-finite at the start point, or objective along a line search."""


@dataclass(frozen=True)
class SolveOptions:
    max_iters: int = 50000
    tol_stationarity: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol_stationarity <= 0.0:
            raise ValueError("tol_stationarity must be positive")


@dataclass
class SolveResult:
    x1_opt: np.ndarray
    bundle: EvalBundle
    xi: np.ndarray  # normal-cone element, -gradient on the active bound set
    iterations: int
    stationarity_norm: float
    converged: bool
    hessian_products: int  # conjugate-gradient products over the solve
    backtracks: int  # trial points the line search rejected


def _normal_cone_element(data: ProblemData, x1: np.ndarray, g: np.ndarray, tol=1e-10):
    xi = np.zeros_like(x1)
    at_lo = x1 <= data.lo + tol
    at_hi = x1 >= data.hi - tol
    xi[at_lo] = -g[at_lo]
    xi[at_hi] = -g[at_hi]
    return xi


def _stationarity(data: ProblemData, x1: np.ndarray, g: np.ndarray) -> float:
    return norm_h(data.grid, x1 - data.clamp(x1 - g))


def minimize(
    data: ProblemData,
    gamma: float,
    opts: SolveOptions | None = None,
    warm_start: np.ndarray | None = None,
    callback=None,
) -> SolveResult:
    """Minimize j^gamma over the box; deterministic given inputs.

    ``callback(it, j_gamma, stationarity, step, hessian_products)`` sees every
    iterate, with the products counted so far. Returns converged=False (not an
    error) when the iteration budget runs out or no step decreases j_gamma.
    """
    opts = opts or SolveOptions()
    start = np.zeros(data.grid.n_interior) if warm_start is None else warm_start
    x = data.clamp(np.asarray(start, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):  # reported as a divergence
        bundle = obj_mod.evaluate(data, gamma, x)
    if not (np.isfinite(bundle.j_gamma) and np.isfinite(bundle.gradient).all()):
        raise DivergedError("non-finite objective or gradient at the start point")
    if np.all(data.lo == data.hi):  # x is the only point of the box
        return _finish(data, x, bundle, 0, opts, 0, 0)
    s, products, backtracks = 1.0, 0, 0  # s: the last accepted step
    for it in range(opts.max_iters + 1):
        stat = _stationarity(data, x, bundle.gradient)
        if callback:
            callback(it, bundle.j_gamma, stat, s, products)
        if stat <= opts.tol_stationarity or it == opts.max_iters:
            break
        direction, used = _newton_direction(data, bundle, x, stat, opts.tol_stationarity)
        products += used
        accepted, rejected = _line_search(data, gamma, x, bundle, stat, direction)
        backtracks += rejected
        if accepted is None:
            break
        x, bundle, s = accepted
    return _finish(data, x, bundle, it, opts, products, backtracks)


def _finish(data, x, bundle, iters, opts, products, backtracks):
    """SolveResult at x from its evaluation bundle."""
    stat = _stationarity(data, x, bundle.gradient)
    return SolveResult(
        x1_opt=x,
        bundle=bundle,
        xi=_normal_cone_element(data, x, bundle.gradient),
        iterations=iters,
        stationarity_norm=stat,
        converged=stat <= opts.tol_stationarity,
        hessian_products=products,
        backtracks=backtracks,
    )


def _line_search(data, gamma, x, bundle, stat, direction):
    """Backtrack from s = 1 along clamp(x + s * direction) until j_gamma decreases enough.

    Sufficient decrease is Armijo's along the projected path. A change of
    j_gamma within round-off of its size carries no information, so there a
    step is accepted when it lowers the stationarity residual instead.
    Returns ((x_new, bundle_new, s), rejected) with the number of rejected
    trial points, or (None, rejected) when no trial step qualifies.
    """
    g, f = bundle.gradient, bundle.j_gamma
    s = 1.0
    for rejected in range(BACKTRACKS):
        x_new = data.clamp(x + s * direction)
        if np.array_equal(x_new, x):
            return None, rejected
        with np.errstate(over="ignore", invalid="ignore"):  # reported as a divergence
            new = obj_mod.evaluate(data, gamma, x_new)
        if not np.isfinite(new.j_gamma):
            raise DivergedError("non-finite objective during line search")
        slope = float(np.dot(g, x_new - x))
        if slope < 0.0 and new.j_gamma <= f + ARMIJO * slope:
            return (x_new, new, s), rejected
        if abs(new.j_gamma - f) <= ROUNDOFF * abs(f) and (
            _stationarity(data, x_new, new.gradient) < stat
        ):
            return (x_new, new, s), rejected
        s *= SHRINK
    return None, BACKTRACKS


def _conjugate_gradients(product, b, tol, max_products):
    """Approximate solution of H d = b for symmetric positive definite H; (d, products)."""
    d = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = float(np.dot(r, r))
    products = 0
    while np.sqrt(rr) > tol and products < max_products:
        hp = product(p)
        products += 1
        php = float(np.dot(p, hp))
        if php <= 0.0:  # no positive curvature left (round-off): keep what we have
            break
        a = rr / php
        d += a * p
        r -= a * hp
        rr_new = float(np.dot(r, r))
        p = r + (rr_new / rr) * p
        rr = rr_new
    return d, products


def _newton_direction(data, bundle, x, stat, tol_stationarity):
    """Projected Newton direction and its products: -g on the binding bounds, CG on the rest.

    On the quadratic model the free gradient after the step is minus the CG
    residual r, which the stopping test measures as sqrt(h) |r|.
    """
    g = bundle.gradient
    eps = min(BINDING_EPS, stat)
    binding = ((x <= data.lo + eps) & (g > 0.0)) | ((x >= data.hi - eps) & (g < 0.0))
    free = ~binding
    hessian = obj_mod.hessian_operator(data, bundle)
    v = np.zeros_like(x)

    def product(p):
        v[free] = p
        return hessian(v)[free]

    direction = -g
    norm = float(np.linalg.norm(g[free]))
    floor = CG_MARGIN * tol_stationarity / np.sqrt(data.grid.h)
    tol = max(min(ETA_MAX, np.sqrt(norm)) * norm, floor)
    direction[free], products = _conjugate_gradients(product, -g[free], tol, x.size)
    return direction, products
