"""Finite scenario sets: random conductivity fields and their weights.

Sampling is a pure function of the configuration (seed included); the PRNG is
numpy's counter-based Philox, echoed by name in exported metadata so runs are
reproducible across implementations of the same generator.
"""

from __future__ import annotations

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

    def __post_init__(self):
        if self.n_scenarios < 1:
            raise ValueError("n_scenarios must be positive")
        if not self.a_min > 0.0:  # NaN fails too
            raise ValueError("a_min must be positive")
        if not self.a0 - sum(abs(s) for s in self.sigma) > 0.0:  # NaN fails too
            raise ValueError("field model admits nonpositive conductivity (a0 - sum sigma <= 0)")


@dataclass(frozen=True, eq=False)
class ScenarioSet:
    """K scenarios stacked along the first axis of every per-scenario array."""

    weights: np.ndarray  # (K,)
    conductivities: np.ndarray  # (K, n_cells)

    def __post_init__(self):
        w = self.weights
        if not (np.all(w >= 0.0) and abs(float(w.sum()) - 1.0) <= 1e-12):  # NaN fails too
            raise ValueError("weights must be nonnegative and sum to 1")
        if self.conductivities.shape[0] != w.size:
            raise ValueError("conductivities need one row per weight")

    @property
    def count(self) -> int:
        return self.weights.size

    def mean(self, values: np.ndarray):
        """The expectation sum_k w_k v_k: of values (K,), one value; of a stack (..., K, n),
        one (..., n) row. One BLAS product with the weights, which refuses another K."""
        return self.weights @ values


def conductivity(config: ScenarioConfig, xi: np.ndarray, n_cells: int) -> np.ndarray:
    """The field model at the cell midpoints s, one row per row of ``xi`` (K, M).

    a(xi)(s) = a0 + sum_m xi_m sigma_m sin(m pi s), summed mode by mode and
    clipped from below at a_min. For xi in [-1, 1]^M the clip is inactive while
    a_min <= a0 - sum |sigma_m| (0.55 > 0.3 on the defaults); a larger a_min
    floors the field wherever it dips below.
    """
    s = (np.arange(n_cells) + 0.5) / n_cells
    a = np.full((xi.shape[0], n_cells), config.a0)
    for m, sig in enumerate(config.sigma, start=1):
        a = a + xi[:, m - 1 : m] * sig * np.sin(m * np.pi * s)
    return np.maximum(a, config.a_min)


def sample(config: ScenarioConfig, n_cells: int) -> ScenarioSet:
    """Draw a scenario set: the field model at xi uniform on [-1, 1]^M, drawn scenario
    by scenario, mode by mode, with uniform weights."""
    rng = np.random.Generator(np.random.Philox(config.seed))
    n = config.n_scenarios
    xi = rng.uniform(-1.0, 1.0, size=(n, len(config.sigma)))
    return ScenarioSet(np.full(n, 1.0 / n), conductivity(config, xi, n_cells))
