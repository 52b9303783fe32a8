"""Finite scenario sets: random conductivity fields, constraint bounds, weights.

Sampling is a pure function of the configuration (seed included); the PRNG is
numpy's counter-based Philox, echoed by name in exported metadata so runs are
reproducible across implementations of the same generator.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

GENERATOR_NAME = "philox4x64"


@dataclass(frozen=True)
class ScenarioConfig:
    n_scenarios: int
    seed: int
    a0: float = 1.0
    sigma: tuple[float, ...] = (0.3, 0.15)
    a_min: float = 0.3
    # bound_spec: ("constant", value) | ("affine-in-s", c0, c1) | ("per-scenario-file", path)
    bound_spec: tuple = ("constant", 1.0)

    def __post_init__(self):
        if self.n_scenarios < 1:
            raise ValueError("n_scenarios must be positive")
        if self.a_min <= 0.0:
            raise ValueError("a_min must be positive")
        if self.a0 - sum(abs(s) for s in self.sigma) <= 0.0:
            raise ValueError("field model admits nonpositive conductivity (a0 - sum sigma <= 0)")


@dataclass(frozen=True)
class ScenarioSet:
    """K scenarios stacked along the first axis of every per-scenario array."""

    count: int
    weights: np.ndarray  # (K,)
    seed: int
    conductivities: np.ndarray  # (K, n_cells)
    bounds: np.ndarray  # (K, m): constraint bound per scenario, m = 1 for a scalar bound
    a_min: float
    generator: str = GENERATOR_NAME

    def __post_init__(self):
        w = self.weights
        if np.any(w < 0.0) or abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        if np.any(self.conductivities < self.a_min):
            raise ValueError("conductivity below stored a_min")


def _bound_values(spec, midpoints_or_nodes: np.ndarray, n_scenarios: int) -> np.ndarray:
    kind = spec[0]
    if kind == "constant":
        return np.full((n_scenarios, midpoints_or_nodes.size), float(spec[1]))
    if kind == "affine-in-s":
        c0, c1 = float(spec[1]), float(spec[2])
        return np.tile(c0 + c1 * midpoints_or_nodes, (n_scenarios, 1))
    if kind == "per-scenario-file":
        table = np.loadtxt(spec[1], ndmin=2)
        if table.shape[0] != n_scenarios or table.shape[1] not in (1, midpoints_or_nodes.size):
            raise ValueError(f"per-scenario bound file must be {n_scenarios} rows (scenarios) "
                             f"by 1 or {midpoints_or_nodes.size} columns (bound points)")
        if not np.all(np.isfinite(table)):
            raise ValueError("per-scenario bound file holds a non-finite entry")
        return table
    raise ValueError(f"unknown bound_spec kind {kind!r}")


def sample(config: ScenarioConfig, n_cells: int, bound_points: np.ndarray | None = None) -> ScenarioSet:
    """Draw a scenario set: truncated sine expansions for the conductivity.

    a_k(s) = a0 + sum_m xi_{k,m} sigma_m sin(m pi s) with xi uniform on [-1,1],
    clipped from below at a_min (never active for valid configs). The xi are
    drawn scenario by scenario, mode by mode. Weights are uniform. Bounds are
    given at ``bound_points`` (nodes by default), one row per scenario.
    """
    rng = np.random.Generator(np.random.Philox(config.seed))
    n = config.n_scenarios
    s = (np.arange(n_cells) + 0.5) / n_cells
    xi = rng.uniform(-1.0, 1.0, size=(n, len(config.sigma)))
    a = np.full((n, n_cells), config.a0)
    for m, sig in enumerate(config.sigma, start=1):
        a = a + xi[:, m - 1 : m] * sig * np.sin(m * np.pi * s)
    if bound_points is None:
        bound_points = np.arange(1, n_cells) / n_cells
    bounds = _bound_values(config.bound_spec, np.asarray(bound_points, dtype=float), n)
    return ScenarioSet(
        count=n,
        weights=np.full(n, 1.0 / n),
        seed=config.seed,
        conductivities=np.maximum(a, config.a_min),
        bounds=bounds,
        a_min=config.a_min,
    )


def empirical_expectation(scenarios: ScenarioSet, values: np.ndarray) -> float:
    """Probability-weighted mean sum_k p_k v_k."""
    values = np.asarray(values, dtype=float)
    if values.shape != (scenarios.count,):
        raise ValueError("values length does not match scenario count")
    return float(np.dot(scenarios.weights, values))


def export_table(scenarios: ScenarioSet) -> str:
    """Flat text table, one row per scenario: weight, conductivity..., bound..."""
    table = np.column_stack((scenarios.weights, scenarios.conductivities, scenarios.bounds))
    return "".join(" ".join(map(repr, row)) + "\n" for row in table.tolist())


def import_table(text: str, n_cells: int, seed: int = 0, a_min: float = 1e-12) -> ScenarioSet:
    """Inverse of export_table; bound width is inferred from the row length."""
    rows = np.loadtxt(io.StringIO(text), ndmin=2)
    return ScenarioSet(
        count=rows.shape[0],
        weights=rows[:, 0].copy(),
        seed=seed,
        conductivities=rows[:, 1 : 1 + n_cells].copy(),
        bounds=rows[:, 1 + n_cells :].copy(),
        a_min=a_min,
    )
