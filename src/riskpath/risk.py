"""Coherent risk measures on weighted finite samples.

Shipped measures: expectation, average value-at-risk (exact, by sorting), and
a softplus-smoothed average value-at-risk used when a differentiable surrogate
is needed. The smoothed variant keeps convexity, monotonicity, and translation
equivariance but gives up positive homogeneity (the temperature is a fixed
length scale), so the homogeneity axiom check is skipped for it. Its threshold
solves a monotone 1-D equation by safeguarded Newton–bisection (Newton from
the alpha-quantile, bisection when a step leaves the bracket or stalls).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DENSITY_TOL = 1e-9  # feasibility tolerance of a dual density in duality_gap
THRESHOLD_RTOL = 1e-15  # a threshold step below THRESHOLD_RTOL * (1 + |t|) ends the solve
# A cap, so that every sample ends: bisection alone takes any finite bracket
# (narrower than 2**1025) below the tolerance (at least 2**-50) in fewer halvings.
THRESHOLD_STEPS = 1100


@dataclass(frozen=True)
class RiskMeasure:
    """kind: "expectation" | "avar" | "avar-smooth"; alpha in (0, 1]."""

    kind: str = "expectation"
    alpha: float = 1.0
    tau: float = 1e-3  # smoothing temperature, avar-smooth only

    def __post_init__(self):
        if self.kind not in ("expectation", "avar", "avar-smooth"):
            raise ValueError(f"unknown risk measure kind {self.kind!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if self.kind == "avar-smooth" and not 0.0 < self.tau < math.inf:  # NaN fails too
            raise ValueError("tau must be positive for the smoothed measure")

    @property
    def positively_homogeneous(self) -> bool:
        return self.kind != "avar-smooth"


@dataclass(frozen=True)
class RiskSubgradient:
    """Density theta w.r.t. the weights (theta >= 0, E[theta] = 1) and the risk value."""

    theta: np.ndarray
    value: float


def _check(xi, weights):
    xi = np.asarray(xi, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if xi.size == 0:
        raise ValueError("empty sample")
    if xi.shape != weights.shape:
        raise ValueError("sample and weights must have matching shapes")
    return xi, weights


def _quantile_threshold(xi, weights, alpha):
    """Smallest t with P(xi <= t) >= 1 - alpha (the value-at-risk level)."""
    order = np.argsort(xi, kind="stable")
    cum = np.cumsum(weights[order])
    target = 1.0 - alpha
    idx = int(np.searchsorted(cum, target - 1e-15, side="left"))
    idx = min(idx, xi.size - 1)
    return float(xi[order[idx]])


def _sigmoid(z):
    """1 / (1 + exp(-z)); below z = -709 exp overflows to inf and gives the right 0,
    so callers ignore overflow."""
    return 1.0 / (1.0 + np.exp(-z))


def _smooth_root(xi, weights, alpha, tau):
    """The root t of phi'(t) = 1 - E[sigmoid((xi - t)/tau)]/alpha, and the sigmoids at t.

    phi' is strictly increasing with slope E[sigmoid (1 - sigmoid)]/(alpha tau).
    Safeguarded Newton from the alpha-quantile (from the middle of the gap above
    it if the tail mass there is alpha): a Newton step that leaves the
    bracket, or is not below half the step before the last, becomes a
    bisection. The solve ends when a step falls below THRESHOLD_RTOL (1 + |t|),
    tested before the bisection fallback so that the last Newton step ends it.
    """
    lo = float(xi.min()) - 60.0 * tau - 1.0
    hi = float(xi.max()) + 60.0 * tau + 1.0
    with np.errstate(over="ignore"):
        sigma = _sigmoid((xi - lo) / tau)
        if 1.0 - float(np.dot(weights, sigma)) / alpha >= 0.0:
            return lo, sigma
        t = _quantile_threshold(xi, weights, alpha)
        above = xi > t
        if above.any() and abs(float(np.dot(weights, above)) - alpha) <= 1e-15:
            # phi' is flat to round-off across the gap, where Newton crawls by ~tau
            t = 0.5 * t + 0.5 * float(xi[above].min())
        step = last = hi - lo
        for _ in range(THRESHOLD_STEPS):
            sigma = _sigmoid((xi - t) / tau)
            f = 1.0 - float(np.dot(weights, sigma)) / alpha
            if f < 0.0:
                lo = t
            elif f > 0.0:
                hi = t
            else:  # phi' is 0, or NaN from a non-finite sample
                break
            slope = float(np.dot(weights, sigma * (1.0 - sigma))) / (alpha * tau)
            newton = -f / slope if slope > 0.0 else math.inf
            if abs(newton) <= THRESHOLD_RTOL * (1.0 + abs(t)):
                break
            if lo < t + newton < hi and abs(newton) < 0.5 * abs(last):
                step, last = newton, step
            else:
                step, last = 0.5 * lo + 0.5 * hi - t, step
                if abs(step) <= THRESHOLD_RTOL * (1.0 + abs(t)):
                    break
            t += step
    return t, sigma


def evaluate(rm: RiskMeasure, xi, weights) -> float:
    """Risk value of the sample (see subgradient, which computes it)."""
    return subgradient(rm, xi, weights).value


def subgradient(rm: RiskMeasure, xi, weights) -> RiskSubgradient:
    """The risk value and a maximizing density from the dual representation.

    AVaR uses the epigraph form min_t { t + (1/alpha) E[max(0, xi - t)] },
    minimized exactly at the alpha-tail quantile t. Its density is 1/alpha
    strictly above t, 0 strictly below, and the boundary atoms take fractional
    values filled in ascending scenario index until E[theta] = 1. A constant
    sample returns theta = 1 (documented tie-break; every feasible density is
    then optimal). The smoothed AVaR replaces max(0, .) by tau softplus(./tau)
    and its density is the sigmoid slope.
    """
    xi, weights = _check(xi, weights)
    if rm.kind == "expectation":
        return RiskSubgradient(theta=np.ones_like(xi), value=float(np.dot(weights, xi)))
    if rm.kind == "avar-smooth":
        t, sigma = _smooth_root(xi, weights, rm.alpha, rm.tau)
        z = (xi - t) / rm.tau
        softplus = np.where(z > 30.0, z, np.log1p(np.exp(np.minimum(z, 30.0))))
        value = t + rm.tau * float(np.dot(weights, softplus)) / rm.alpha
        return RiskSubgradient(theta=sigma / rm.alpha, value=value)
    t = _quantile_threshold(xi, weights, rm.alpha)
    value = t + float(np.dot(weights, np.maximum(0.0, xi - t))) / rm.alpha
    if np.ptp(xi) == 0.0:
        return RiskSubgradient(theta=np.ones_like(xi), value=value)
    cap = 1.0 / rm.alpha
    theta = np.zeros_like(xi)
    theta[xi > t] = cap
    remaining = 1.0 - float(np.dot(weights, theta))
    for k in np.flatnonzero(xi == t):
        if remaining <= 0.0:
            break
        take = min(cap, remaining / weights[k]) if weights[k] > 0 else cap
        theta[k] = take
        remaining -= take * weights[k]
    return RiskSubgradient(theta=theta, value=value)


def hessian_product(rm: RiskMeasure, theta, weights):
    """dxi -> R'' dxi, R's second derivative at the sample of density theta, on dxi (K,) or a
    stack (K, m); None where R is piecewise linear or flat. The smoothed tail mean's gradient
    w theta moves by s (dxi - dt) with s = w theta (1 - alpha theta)/tau, and its threshold,
    the root of E[alpha theta] = alpha, by dt = s.dxi/sum(s)."""
    if rm.kind != "avar-smooth":
        return None
    s = weights * theta * (1.0 - rm.alpha * theta) / rm.tau
    total = float(s.sum())  # below, the transposes scale a stack's rows by s
    return (lambda dxi: ((dxi - np.dot(s, dxi) / total).T * s).T) if total > 0.0 else None


def duality_gap(rm: RiskMeasure, xi, theta, weights) -> float:
    """R[xi] - E[xi theta]; nonnegative for feasible densities, 0 at maximizers.

    Infeasible densities (a component below 0, E[theta] != 1, or for the exact
    AVaR a component above 1/alpha, each beyond DENSITY_TOL) are reported as
    an infinite gap.
    """
    xi, weights = _check(xi, weights)
    theta = np.asarray(theta, dtype=float)
    cap = 1.0 / rm.alpha if rm.kind == "avar" else math.inf
    if (np.any(theta < -DENSITY_TOL) or np.any(theta > cap + DENSITY_TOL)
            or abs(float(np.dot(weights, theta)) - 1.0) > DENSITY_TOL):
        return math.inf
    return evaluate(rm, xi, weights) - float(np.dot(weights, theta * xi))
