"""Projected first-order minimization of the penalized objective over the box C.

Plain projected gradient with Armijo backtracking, an accelerated (momentum
with restart-on-increase) variant, and a diminishing-step subgradient mode for
the nonsmooth exact tail-risk objective. The initial step comes from a short
power iteration estimating the curvature of the objective at the start point.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import objective as obj_mod
from .grid import norm_h
from .objective import EvalBundle, ProblemData


class DivergedError(RuntimeError):
    """Objective became non-finite during the iteration."""


@dataclass(frozen=True)
class SolveOptions:
    max_iters: int = 50000
    tol_stationarity: float = 1e-8
    step_rule: str = "backtracking"  # "backtracking" | "fixed"
    fixed_step: float | None = None
    armijo: float = 1e-4
    shrink: float = 0.5
    accelerate: bool = True
    subgradient_mode: bool = False
    subgrad_c: float = 1.0
    check_every: int = 5  # stationarity checks in accelerated mode

    def __post_init__(self):
        if self.tol_stationarity <= 0.0:
            raise ValueError("tol_stationarity must be positive")
        if self.step_rule not in ("backtracking", "fixed"):
            raise ValueError("step_rule must be backtracking | fixed")
        if not 0.0 < self.armijo < 0.5:
            raise ValueError("armijo constant must lie in (0, 0.5)")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink factor must lie in (0, 1)")


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
    if warm_start is None:
        x = data.clamp(np.zeros(data.grid.n_interior))
    else:
        x = data.clamp(np.asarray(warm_start, dtype=float))

    mode = (
        "subgradient"
        if opts.subgradient_mode
        else ("accelerated" if opts.accelerate else "projected-gradient")
    )

    if np.all(data.lo == data.hi):
        bundle = obj_mod.evaluate(data, gamma, data.lo.copy())
        return SolveResult(
            x1_opt=data.lo.copy(),
            bundle=bundle,
            xi=-bundle.gradient,
            iterations=0,
            stationarity_norm=0.0,
            converged=True,
            mode=mode,
        )

    if opts.step_rule == "fixed" and opts.fixed_step is not None:
        s0 = opts.fixed_step
    else:
        curv = _estimate_curvature(data, gamma, x)
        s0 = 1.0 / curv if curv > 0.0 else 1.0

    if opts.subgradient_mode:
        return _minimize_subgradient(data, gamma, opts, x, s0, callback)
    if opts.accelerate:
        return _minimize_accelerated(data, gamma, opts, x, s0, callback)
    return _minimize_pg(data, gamma, opts, x, s0, callback)


def _armijo_step(data, gamma, x, g, f, s, opts):
    """Backtrack until sufficient decrease; returns (x_new, f_new, s_used)."""
    for _ in range(60):
        x_new = data.clamp(x - s * g)
        f_new = obj_mod.objective_only(data, gamma, x_new)
        if not np.isfinite(f_new):
            raise DivergedError("non-finite objective during line search")
        if f_new <= f + opts.armijo * float(np.dot(g, x_new - x)) or np.array_equal(x_new, x):
            return x_new, f_new, s
        s *= opts.shrink
    return x_new, f_new, s


def _finish(data, gamma, x, iters, tol, mode):
    bundle = obj_mod.evaluate(data, gamma, x)
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
    f = obj_mod.objective_only(data, gamma, x)
    for it in range(1, opts.max_iters + 1):
        g = obj_mod.evaluate(data, gamma, x).gradient
        stat = _stationarity(data, x, g)
        if callback:
            callback(it - 1, f, stat, s)
        if stat <= opts.tol_stationarity:
            return _finish(data, gamma, x, it - 1, opts.tol_stationarity, "projected-gradient")
        if opts.step_rule == "fixed":
            x_new = data.clamp(x - s * g)
            f_new = obj_mod.objective_only(data, gamma, x_new)
            if not np.isfinite(f_new):
                raise DivergedError("non-finite objective")
        else:
            x_new, f_new, s = _armijo_step(data, gamma, x, g, f, min(s * 2.0, 1e6 * s0), opts)
        x, f = x_new, f_new
    return _finish(data, gamma, x, opts.max_iters, opts.tol_stationarity, "projected-gradient")


def _minimize_accelerated(data, gamma, opts, x, s0, callback):
    s = s0
    f = obj_mod.objective_only(data, gamma, x)
    y = x.copy()
    t = 1.0
    x_prev = x.copy()
    for it in range(1, opts.max_iters + 1):
        g_y = obj_mod.evaluate(data, gamma, y).gradient
        x_new, f_new, s = _armijo_step(data, gamma, y, g_y, obj_mod.objective_only(data, gamma, y), s, opts)
        if f_new > f:  # restart on objective increase, fall back to a plain step
            t = 1.0
            y = x.copy()
            g_x = obj_mod.evaluate(data, gamma, x).gradient
            x_new, f_new, s = _armijo_step(data, gamma, x, g_x, f, s, opts)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = data.clamp(x_new + ((t - 1.0) / t_new) * (x_new - x))
        x_prev, x, f, t = x, x_new, f_new, t_new
        if it % opts.check_every == 0 or it == opts.max_iters:
            g = obj_mod.evaluate(data, gamma, x).gradient
            stat = _stationarity(data, x, g)
            if callback:
                callback(it, f, stat, s)
            if stat <= opts.tol_stationarity:
                return _finish(data, gamma, x, it, opts.tol_stationarity, "accelerated")
        # allow the step to grow back between iterations
        s = min(s * 1.3, 1e3 * s0)
    return _finish(data, gamma, x, opts.max_iters, opts.tol_stationarity, "accelerated")


def _minimize_subgradient(data, gamma, opts, x, s0, callback):
    best_x = x.copy()
    best_f = obj_mod.objective_only(data, gamma, x)
    for it in range(1, opts.max_iters + 1):
        g = obj_mod.evaluate(data, gamma, x).gradient
        stat = _stationarity(data, x, g)
        if callback:
            callback(it - 1, best_f, stat, s0)
        if stat <= opts.tol_stationarity:
            break
        step = opts.subgrad_c * s0 / np.sqrt(it)
        x = data.clamp(x - step * g)
        f = obj_mod.objective_only(data, gamma, x)
        if not np.isfinite(f):
            raise DivergedError("non-finite objective")
        if f < best_f:
            best_f, best_x = f, x.copy()
    return _finish(data, gamma, best_x, min(it, opts.max_iters), opts.tol_stationarity, "subgradient")
