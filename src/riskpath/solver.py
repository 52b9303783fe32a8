"""Projected first-order minimization of the penalized objective over the box C.

The Moreau–Yosida penalty (gamma/2) ||max(0, i)||^2 is C^1, so each gamma
point is a box-constrained problem, smooth but for the kink of the exact tail
mean (which both methods also solve to stationarity). Two methods:

- the default: accelerated projected gradient (momentum with restart on
  objective increase; Beck & Teboulle 2009) with Armijo backtracking;
- the reference: plain, monotone projected gradient with Armijo
  backtracking, kept to cross-check the default.

Both take their first step from a power iteration on the curvature at the
start. A full evaluation yields gradient and objective together, so no point
is evaluated twice in a row; a solve returns its last stationarity check's bundle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import objective as obj_mod
from .grid import norm_h
from .objective import EvalBundle, ProblemData

ARMIJO = 1e-4  # sufficient-decrease constant
SHRINK = 0.5  # backtracking factor
CHECK_EVERY = 5  # iterations between stationarity checks of the accelerated method


class DivergedError(RuntimeError):
    """Objective became non-finite during the iteration."""


@dataclass(frozen=True)
class SolveOptions:
    max_iters: int = 50000
    tol_stationarity: float = 1e-8
    accelerate: bool = True  # False selects the projected-gradient reference

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
    mode: str


def _normal_cone_element(data: ProblemData, x1: np.ndarray, g: np.ndarray, tol=1e-10):
    xi = np.zeros_like(x1)
    at_lo = x1 <= data.lo + tol
    at_hi = x1 >= data.hi - tol
    xi[at_lo] = -g[at_lo]
    xi[at_hi] = -g[at_hi]
    return xi


def _stationarity(data: ProblemData, x1: np.ndarray, g: np.ndarray) -> float:
    return norm_h(data.grid, x1 - data.clamp(x1 - g))


def stationarity_residual(data: ProblemData, gamma: float, x1: np.ndarray) -> float:
    """Norm of the projected-gradient step x1 - clamp(x1 - g); zero iff KKT-stationary."""
    bundle = obj_mod.evaluate(data, gamma, x1)
    return _stationarity(data, x1, bundle.gradient)


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

    Returns converged=False (not an error) when the iteration budget runs out.
    """
    opts = opts or SolveOptions()
    start = np.zeros(data.grid.n_interior) if warm_start is None else warm_start
    x = data.clamp(np.asarray(start, dtype=float))
    mode = "accelerated" if opts.accelerate else "projected-gradient"
    if np.all(data.lo == data.hi):  # x is the only point of the box
        return _finish(data, x, obj_mod.evaluate(data, gamma, x), 0, opts.tol_stationarity, mode)

    curv = _estimate_curvature(data, gamma, x)
    s0 = 1.0 / curv if curv > 0.0 else 1.0
    if opts.accelerate:
        return _minimize_accelerated(data, gamma, opts, x, s0, callback)
    return _minimize_pg(data, gamma, opts, x, s0, callback)


def _armijo_step(data, gamma, x, g, f, s):
    """Backtrack until sufficient decrease; returns (x_new, f_new, s_used)."""
    for _ in range(60):
        x_new = data.clamp(x - s * g)
        f_new = obj_mod.objective_only(data, gamma, x_new)
        if not np.isfinite(f_new):
            raise DivergedError("non-finite objective during line search")
        if f_new <= f + ARMIJO * float(np.dot(g, x_new - x)) or np.array_equal(x_new, x):
            return x_new, f_new, s
        s *= SHRINK
    return x_new, f_new, s


def _finish(data, x, bundle, iters, tol, mode):
    """SolveResult at x from its evaluation bundle."""
    stat = _stationarity(data, x, bundle.gradient)
    return SolveResult(
        x1_opt=x,
        bundle=bundle,
        xi=_normal_cone_element(data, x, bundle.gradient),
        iterations=iters,
        stationarity_norm=stat,
        converged=stat <= tol,
        mode=mode,
    )


def _minimize_pg(data, gamma, opts, x, s0, callback):
    s = s0
    for it in range(opts.max_iters + 1):
        bundle = obj_mod.evaluate(data, gamma, x)
        g, f = bundle.gradient, bundle.j_gamma
        stat = _stationarity(data, x, g)
        if callback:
            callback(it, f, stat, s)
        if stat <= opts.tol_stationarity or it == opts.max_iters:
            return _finish(data, x, bundle, it, opts.tol_stationarity, "projected-gradient")
        x, _, s = _armijo_step(data, gamma, x, g, f, min(s * 2.0, 1e6 * s0))


def _minimize_accelerated(data, gamma, opts, x, s0, callback):
    s, t, y = s0, 1.0, x.copy()
    bundle = obj_mod.evaluate(data, gamma, y)
    g_y, f_y = bundle.gradient, bundle.j_gamma
    g_x, f = g_y, f_y  # gradient (None until known) and j_gamma at x; x == y at the start
    for it in range(1, opts.max_iters + 1):
        x_new, f_new, s = _armijo_step(data, gamma, y, g_y, f_y, s)
        if f_new > f:  # restart on objective increase, fall back to a plain step
            t = 1.0
            if g_x is None:
                g_x = obj_mod.evaluate(data, gamma, x).gradient
            x_new, f_new, s = _armijo_step(data, gamma, x, g_x, f, s)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = data.clamp(x_new + ((t - 1.0) / t_new) * (x_new - x))
        x, f, t = x_new, f_new, t_new
        g_x = g_y = None
        if it % CHECK_EVERY == 0 or it == opts.max_iters:
            bundle = obj_mod.evaluate(data, gamma, x)
            stat = _stationarity(data, x, bundle.gradient)
            if callback:
                callback(it, f, stat, s)
            if stat <= opts.tol_stationarity or it == opts.max_iters:
                return _finish(data, x, bundle, it, opts.tol_stationarity, "accelerated")
            g_x = bundle.gradient
            if np.array_equal(y, x):  # no momentum after a restart: y is the point just checked
                g_y, f_y = g_x, bundle.j_gamma
        # allow the step to grow back between iterations
        s = min(s * 1.3, 1e3 * s0)
        if g_y is None:
            bundle = obj_mod.evaluate(data, gamma, y)
            g_y, f_y = bundle.gradient, bundle.j_gamma
