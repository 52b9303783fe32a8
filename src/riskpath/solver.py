"""Minimization of the penalized objective over the box C, one gamma point at a time.

The Moreau–Yosida penalty (gamma/2) ||max(0, i)||^2 is C^1 with the semismooth
gradient gamma * max(0, i), so each gamma point is a box-constrained problem
that generalised Newton solves with the warm start of the previous point
(Hintermüller, Ito & Kunisch 2003). Two methods:

- the default, "newton": projected semismooth Newton (Bertsekas 1982). The
  bounds that bind (gradient pointing out of the box) take a gradient step;
  on the free variables the Newton system with the generalised Hessian is
  solved by unpreconditioned conjugate gradients, matrix-free through
  ``objective.hessian_operator``. CG stops at the forcing term
  min(0.1, sqrt|g_F|) |g_F| on the free gradient g_F, or once its residual
  alone would pass CG_MARGIN times the stopping test, so the last step of a
  solve does not oversolve (Kelley, Iterative Methods for Linear and Nonlinear
  Equations, SIAM 1995, 6.3). The exact tail mean keeps its scenario weights
  frozen within a step.
- the reference, "projected-gradient": plain, monotone projected gradient,
  its first step from a power iteration on the curvature at the start, kept
  to cross-check the default.

Both backtrack (Armijo) along the projected path, and each trial point gets
one full evaluation, whose bundle the next iteration takes if it is accepted:
no point is evaluated twice. A solve returns the bundle of its last point.
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
METHODS = ("newton", "projected-gradient")


class DivergedError(RuntimeError):
    """Objective or gradient non-finite at the start point, or objective along a line search."""


@dataclass(frozen=True)
class SolveOptions:
    max_iters: int = 50000
    tol_stationarity: float = 1e-8
    method: str = "newton"  # or "projected-gradient", the reference

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol_stationarity <= 0.0:
            raise ValueError("tol_stationarity must be positive")
        if self.method not in METHODS:
            raise ValueError(f"method must be {' | '.join(METHODS)}")


@dataclass
class SolveResult:
    x1_opt: np.ndarray
    bundle: EvalBundle
    xi: np.ndarray  # normal-cone element, -gradient on the active bound set
    iterations: int
    stationarity_norm: float
    converged: bool
    mode: str
    hessian_products: int  # conjugate-gradient products over the solve


def _normal_cone_element(data: ProblemData, x1: np.ndarray, g: np.ndarray, tol=1e-10):
    xi = np.zeros_like(x1)
    at_lo = x1 <= data.lo + tol
    at_hi = x1 >= data.hi - tol
    xi[at_lo] = -g[at_lo]
    xi[at_hi] = -g[at_hi]
    return xi


def _stationarity(data: ProblemData, x1: np.ndarray, g: np.ndarray) -> float:
    return norm_h(data.grid, x1 - data.clamp(x1 - g))


def _estimate_curvature(data, gamma, x0, iters=5, rng_seed=0):
    """Power iteration on the finite-difference Hessian of the objective at x0."""
    rng = np.random.Generator(np.random.Philox(rng_seed))
    v = rng.standard_normal(x0.size)
    v /= np.linalg.norm(v)
    eps = 1e-6 * (1.0 + float(np.linalg.norm(x0)))
    lam = 0.0
    for _ in range(iters):
        gp = obj_mod.evaluate(data, gamma, x0 + eps * v).gradient
        gm = obj_mod.evaluate(data, gamma, x0 - eps * v).gradient
        hv = (gp - gm) / (2.0 * eps)
        lam = float(np.linalg.norm(hv))
        if lam <= 0.0:
            break
        v = hv / lam
    return lam


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
    bundle = obj_mod.evaluate(data, gamma, x)
    if not (np.isfinite(bundle.j_gamma) and np.isfinite(bundle.gradient).all()):
        raise DivergedError("non-finite objective or gradient at the start point")
    if np.all(data.lo == data.hi):  # x is the only point of the box
        return _finish(data, x, bundle, 0, opts, 0)
    if opts.method == "newton":

        def propose(x, bundle, stat, s):  # (direction, first step, Hessian products)
            direction, products = _newton_direction(data, bundle, x, stat, opts.tol_stationarity)
            return direction, 1.0, products

        s = 1.0
    else:
        curv = _estimate_curvature(data, gamma, x)
        s = s0 = 1.0 / curv if curv > 0.0 else 1.0

        def propose(x, bundle, stat, s):  # the step may grow back after backtracking
            return -bundle.gradient, min(2.0 * s, 1e6 * s0), 0

    products = 0
    for it in range(opts.max_iters + 1):
        stat = _stationarity(data, x, bundle.gradient)
        if callback:
            callback(it, bundle.j_gamma, stat, s, products)
        if stat <= opts.tol_stationarity or it == opts.max_iters:
            break
        direction, first, used = propose(x, bundle, stat, s)
        products += used
        accepted = _line_search(data, gamma, x, bundle, stat, direction, first)
        if accepted is None:
            break
        x, bundle, s = accepted
    return _finish(data, x, bundle, it, opts, products)


def _finish(data, x, bundle, iters, opts, products):
    """SolveResult at x from its evaluation bundle."""
    stat = _stationarity(data, x, bundle.gradient)
    return SolveResult(
        x1_opt=x,
        bundle=bundle,
        xi=_normal_cone_element(data, x, bundle.gradient),
        iterations=iters,
        stationarity_norm=stat,
        converged=stat <= opts.tol_stationarity,
        mode=opts.method,
        hessian_products=products,
    )


def _line_search(data, gamma, x, bundle, stat, direction, s):
    """Backtrack along clamp(x + s * direction) until j_gamma decreases enough.

    Sufficient decrease is Armijo's along the projected path. A change of
    j_gamma within round-off of its size carries no information, so there a
    step is accepted when it lowers the stationarity residual instead.
    Returns (x_new, bundle_new, s), or None when no trial step qualifies.
    """
    g, f = bundle.gradient, bundle.j_gamma
    for _ in range(BACKTRACKS):
        x_new = data.clamp(x + s * direction)
        if np.array_equal(x_new, x):
            return None
        new = obj_mod.evaluate(data, gamma, x_new)
        if not np.isfinite(new.j_gamma):
            raise DivergedError("non-finite objective during line search")
        slope = float(np.dot(g, x_new - x))
        if slope < 0.0 and new.j_gamma <= f + ARMIJO * slope:
            return x_new, new, s
        if abs(new.j_gamma - f) <= ROUNDOFF * abs(f) and (
            _stationarity(data, x_new, new.gradient) < stat
        ):
            return x_new, new, s
        s *= SHRINK
    return None


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
    tol = max(min(0.1, np.sqrt(norm)) * norm, CG_MARGIN * tol_stationarity / np.sqrt(data.grid.h))
    direction[free], products = _conjugate_gradients(product, -g[free], tol, x.size)
    return direction, products
