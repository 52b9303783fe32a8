import numpy as np
import pytest

from riskpath.scenario import ScenarioConfig, ScenarioSet, sample


def test_m_zero_gives_deterministic_field():
    cfg = ScenarioConfig(n_scenarios=5, seed=1, a0=1.2, sigma=(), a_min=0.1)
    scen = sample(cfg, 8)
    for a in scen.conductivities:
        assert np.allclose(a, 1.2)


def test_single_scenario_weight_is_one():
    scen = sample(ScenarioConfig(n_scenarios=1, seed=0), 8)
    assert np.array_equal(scen.weights, [1.0])


def test_sampling_is_bitwise_deterministic():
    cfg = ScenarioConfig(n_scenarios=4, seed=42, sigma=(0.3, 0.15))
    s1 = sample(cfg, 16)
    s2 = sample(cfg, 16)
    for a, b in zip(s1.conductivities, s2.conductivities):
        assert np.array_equal(a, b)
    assert np.array_equal(s1.weights, s2.weights)


def test_sampling_matches_scalar_draw_loop():
    # the stacked draw consumes the generator scenario by scenario, mode by
    # mode, exactly as one scalar draw per coefficient does
    n_cells = 16
    s = (np.arange(n_cells) + 0.5) / n_cells
    for cfg, clips in ((ScenarioConfig(n_scenarios=6, seed=7, sigma=(0.3, 0.15, 0.05)), False),
                       (ScenarioConfig(n_scenarios=16, seed=7, a_min=0.9), True)):  # 0.9 > 0.55
        rng = np.random.Generator(np.random.Philox(cfg.seed))
        expected = []
        for _ in range(cfg.n_scenarios):
            a = np.full(n_cells, cfg.a0)
            for m, sig in enumerate(cfg.sigma, start=1):
                a = a + rng.uniform(-1.0, 1.0) * sig * np.sin(m * np.pi * s)
            expected.append(np.maximum(a, cfg.a_min))
        conductivities = sample(cfg, n_cells).conductivities
        assert np.array_equal(conductivities, expected)
        assert np.any(conductivities == cfg.a_min) == clips  # the clip acts only above a0 - sum sigma


def test_different_seed_differs():
    a = sample(ScenarioConfig(n_scenarios=4, seed=1), 16)
    b = sample(ScenarioConfig(n_scenarios=4, seed=2), 16)
    assert not np.array_equal(a.conductivities[0], b.conductivities[0])


def test_clipping_never_active_on_defaults():
    cfg = ScenarioConfig(n_scenarios=32, seed=9)
    assert cfg.a0 - sum(cfg.sigma) > cfg.a_min
    scen = sample(cfg, 32)
    for a in scen.conductivities:
        assert np.all(a > cfg.a_min)


def test_invalid_field_model_rejected():
    with pytest.raises(ValueError):
        ScenarioConfig(n_scenarios=2, seed=0, a0=0.3, sigma=(0.5,), a_min=0.1)
    with pytest.raises(ValueError):
        ScenarioConfig(n_scenarios=2, seed=0, a_min=0.0)
    with pytest.raises(ValueError, match="n_scenarios"):
        ScenarioConfig(n_scenarios=0, seed=0)


def test_empirical_expectation_uniform():
    scen = sample(ScenarioConfig(n_scenarios=4, seed=3), 8)
    assert scen.mean(np.array([1.0, 2.0, 3.0, 4.0])) == pytest.approx(2.5)
    # a stack (K, n) gives one mean per column, each the dot product of one column
    stack = np.arange(12.0).reshape(4, 3) ** 2
    columns = np.array([np.dot(scen.weights, column) for column in stack.T])
    assert scen.mean(stack).tobytes() == columns.tobytes()


def test_empirical_expectation_degenerate_weights():
    scen = sample(ScenarioConfig(n_scenarios=3, seed=3), 8)
    weighted = ScenarioSet(weights=np.array([1.0, 0.0, 0.0]),
                           conductivities=scen.conductivities)
    v = np.array([7.25, -1.0, 99.0])
    assert weighted.mean(v) == 7.25


def test_empirical_expectation_matches_compensated_sum():
    rng = np.random.Generator(np.random.Philox(77))
    n = 64
    w = rng.uniform(0.0, 1.0, n)
    w /= w.sum()
    scen = sample(ScenarioConfig(n_scenarios=n, seed=5), 8)
    weighted = ScenarioSet(weights=w, conductivities=scen.conductivities)
    v = rng.standard_normal(n) * 1e3
    oracle = float(np.sum(np.sort(w * v)))  # compensated by magnitude ordering
    got = weighted.mean(v)
    assert abs(got - oracle) <= 1e-15 * max(1.0, abs(oracle)) + 1e-12


def test_empirical_expectation_length_mismatch():
    scen = sample(ScenarioConfig(n_scenarios=4, seed=3), 8)
    with pytest.raises(ValueError):
        scen.mean(np.ones(5))
    with pytest.raises(ValueError):
        scen.mean(np.ones((5, 4)))


def test_weight_invariants_enforced():
    scen = sample(ScenarioConfig(n_scenarios=3, seed=0), 8)
    with pytest.raises(ValueError):
        ScenarioSet(weights=np.array([0.5, 0.5, 0.5]), conductivities=scen.conductivities)


def test_count_is_the_number_of_weights():
    scen = sample(ScenarioConfig(n_scenarios=3, seed=0), 8)
    assert scen.count == scen.weights.size == 3
    with pytest.raises(TypeError):  # count is no longer stored beside the weights
        ScenarioSet(count=3, weights=np.array([0.5, 0.5]), conductivities=scen.conductivities)


def test_conductivity_rows_must_match_weights():
    scen = sample(ScenarioConfig(n_scenarios=3, seed=0), 8)
    with pytest.raises(ValueError, match="one row per weight"):
        ScenarioSet(weights=np.array([0.5, 0.5]), conductivities=scen.conductivities)

