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

On small problems a step at which no bound binds is exact instead. While K n n,
the work of one stacked product of the n identity columns, is at most
DENSE_WORK, that product forms the Hessian and LAPACK's Cholesky (dposv) solves
the system; a Hessian that dposv finds not numerically positive definite leaves
the step to CG. Over 8 scenario sets of path-small's config, a path with exact
steps took 0.58-0.83 of CG's time at K n n up to 3,844, 0.87-1.05 from 6,400 to
8,836 and 1.1-1.5 from 10,000 to 15,876 (4.1-4.4 at 63,504), so the cut sits at
4,096. Path-small (900) takes 2,457 Newton steps instead of 3,836 over its 256
stored scenario sets. Steps with a binding bound keep CG: exact free-set steps
on every step took 1,871 steps instead of 808 on 15 nodes, 16 scenarios, mu_tik
1e-4, box [0, 2], gamma to 1e8 over scenario seeds 0-5 (978 instead of 813 with
epsilon 0, 1,016 instead of 634 on box [-1, 1.5]): there the exact step crosses
penalty kinks that the box then bends.

Each step backtracks (Armijo) along the projected path from the full step, and
each trial point gets one full evaluation, whose bundle the next iteration
takes if accepted: no point is evaluated twice. A solve returns the bundle of
its last point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dposv

from . import objective as obj_mod
from .grid import DivergedError
from .objective import EvalBundle, ProblemData

ARMIJO = 1e-4  # sufficient-decrease constant
SHRINK = 0.5  # backtracking factor
BACKTRACKS = 60  # trial steps per line search
ROUNDOFF = 64.0 * np.finfo(float).eps  # |change of j_gamma| / |j_gamma| below round-off
BINDING_EPS = 1e-3  # largest distance to a bound at which it can bind
CG_MARGIN = 0.5  # CG stops once its residual alone would pass this share of the test
ETA_MAX = 0.03  # cap of the CG forcing term min(ETA_MAX, sqrt|g_F|)
DENSE_WORK = 4096  # largest K n n at which a step with no bound binding forms the Hessian


@dataclass(frozen=True)
class SolveOptions:
    max_iters: int = 50000
    tol_stationarity: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.tol_stationarity > 0.0:  # NaN fails too
            raise ValueError("tol_stationarity must be positive")


@dataclass(eq=False)
class SolveResult:
    bundle: EvalBundle  # of the last point; its control is bundle.x1
    iterations: int
    stationarity_norm: float
    converged: bool
    hessian_products: int  # Hessian-vector products: CG's, and n per formed Hessian
    backtracks: int  # trial points the line search rejected


def _stationarity(bundle: EvalBundle) -> float:
    return bundle.data.grid.norm(bundle.x1 - bundle.data.clamp(bundle.x1 - bundle.gradient))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value is reported as a divergence
def minimize(
    data: ProblemData,
    gamma: float,
    opts: SolveOptions | None = None,
    warm_start: np.ndarray | EvalBundle | None = None,
    callback=None,
) -> SolveResult:
    """Minimize j^gamma over the box; deterministic given inputs.

    ``warm_start`` is a control, clamped to the box, or the bundle of a solve at
    another gamma: of ``data``, its control half is reused; of another problem,
    its control is clamped. ``callback(it, j_gamma, stationarity, step,
    hessian_products)`` sees every iterate, with the products counted so far.
    The solution is the returned bundle's control, ``result.bundle.x1``.
    Returns converged=False (not an error) when the iteration budget runs out
    or no step decreases j_gamma.
    """
    opts = opts or SolveOptions()
    start = np.zeros(data.grid.shape) if warm_start is None else warm_start
    if not (isinstance(start, EvalBundle) and start.data is data):
        start = data.clamp(np.asarray(getattr(start, "x1", start), dtype=float))
    bundle = obj_mod.evaluate(data, gamma, start)
    if not (np.isfinite(bundle.j_gamma) and np.isfinite(bundle.gradient).all()):
        raise DivergedError("non-finite objective or gradient at the start point")
    s, products, backtracks = 1.0, 0, 0  # s: the last accepted step
    for it in range(opts.max_iters + 1):
        stat = _stationarity(bundle)
        if callback:
            callback(it, bundle.j_gamma, stat, s, products)
        if stat <= opts.tol_stationarity or it == opts.max_iters:
            break
        direction, used = _newton_direction(bundle, stat, opts.tol_stationarity)
        products += used
        accepted, rejected = _line_search(bundle, stat, direction)
        backtracks += rejected
        if accepted is None:
            break
        bundle, s = accepted
    return SolveResult(  # the loop ends on the bundle's stopping test, so stat is the bundle's
        bundle=bundle,
        iterations=it,
        stationarity_norm=stat,
        converged=stat <= opts.tol_stationarity,
        hessian_products=products,
        backtracks=backtracks,
    )


def _line_search(bundle, stat, direction):
    """Backtrack from s = 1 along clamp(x + s * direction) until j_gamma decreases enough.

    Sufficient decrease is Armijo's along the projected path. A change of
    j_gamma within round-off of its size carries no information, so there a
    step is accepted when it lowers the stationarity residual instead.
    Returns ((bundle_new, s), rejected) with the number of rejected trial
    points, or (None, rejected) when no trial step qualifies.
    """
    data, x, g, f = bundle.data, bundle.x1, bundle.gradient, bundle.j_gamma
    s = 1.0
    for rejected in range(BACKTRACKS):
        x_new = data.clamp(x + s * direction)
        if np.array_equal(x_new, x):
            return None, rejected
        new = obj_mod.evaluate(data, bundle.gamma, x_new)
        if not np.isfinite(new.j_gamma):
            raise DivergedError("non-finite objective during line search")
        slope = float(np.dot(g, x_new - x))
        if slope < 0.0 and new.j_gamma <= f + ARMIJO * slope:
            return (new, s), rejected
        if abs(new.j_gamma - f) <= ROUNDOFF * abs(f) and _stationarity(new) < stat:
            return (new, s), rejected
        s *= SHRINK
    return None, BACKTRACKS


def _conjugate_gradients(product, b, tol, max_products):
    """Approximate solution of H d = b for symmetric positive definite H; (d, products)."""
    d = np.zeros(b.shape)
    r = b.copy()
    p = r.copy()
    rr = float(np.dot(r, r))
    products = 0
    while math.sqrt(rr) > tol and products < max_products:
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


def _newton_direction(bundle, stat, tol_stationarity):
    """Projected Newton direction and its products: -g on the binding bounds, CG on the rest.

    With no bound binding and K n n at most DENSE_WORK, the exact Newton
    direction instead, from the Hessian formed by one stacked product.
    On the quadratic model the free gradient after a CG step is minus the CG
    residual r, which the stopping test measures as ||r|| = sqrt(mass) |r|.
    """
    data, x, g = bundle.data, bundle.x1, bundle.gradient
    free = ~data.binding(x, g, min(BINDING_EPS, stat))
    hessian = obj_mod.hessian_operator(bundle)
    direction, products = -g, 0
    if free.all() and data.operator.diag.size * x.size <= DENSE_WORK:  # K n n
        _, exact, info = dposv(hessian(np.eye(x.size)), direction)
        if info == 0:
            return exact, x.size
        products = x.size  # not numerically positive definite: CG takes the step
    v = np.zeros(x.shape)

    def product(p):
        v[free] = p
        return hessian(v)[free]

    g_free = g[free]
    norm = math.sqrt(np.dot(g_free, g_free))  # np.linalg.norm's sum
    floor = CG_MARGIN * tol_stationarity / math.sqrt(data.grid.mass)
    tol = max(min(ETA_MAX, math.sqrt(norm)) * norm, floor)
    direction[free], used = _conjugate_gradients(product, -g_free, tol, x.size)
    return direction, products + used
