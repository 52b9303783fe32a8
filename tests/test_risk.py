import warnings

import numpy as np
import pytest

import riskpath.risk as risk_mod
from riskpath.risk import (
    RiskMeasure,
    _quantile_threshold,
    _smooth_root,
    duality_gap,
    evaluate,
    hessian_product,
    subgradient,
)

UNIFORM4 = np.full(4, 0.25)


def test_expectation_example():
    rm = RiskMeasure(kind="expectation")
    assert evaluate(rm, np.array([1.0, 2, 3, 4]), UNIFORM4) == pytest.approx(2.5)


def test_avar_half_example():
    # top half of {1,2,3,4}: mean of 3 and 4
    rm = RiskMeasure(kind="avar", alpha=0.5)
    assert evaluate(rm, np.array([1.0, 2, 3, 4]), UNIFORM4) == pytest.approx(3.5)


def test_avar_alpha_one_is_expectation():
    rng = np.random.Generator(np.random.Philox(1))
    rm = RiskMeasure(kind="avar", alpha=1.0)
    mean = RiskMeasure(kind="expectation")
    for _ in range(20):
        xi = rng.standard_normal(9)
        w = rng.uniform(0.1, 1.0, 9)
        w /= w.sum()
        assert evaluate(rm, xi, w) == pytest.approx(evaluate(mean, xi, w), abs=1e-12)


def test_avar_small_alpha_tends_to_max():
    xi = np.array([1.0, 2, 3, 4])
    rm = RiskMeasure(kind="avar", alpha=0.25)
    assert evaluate(rm, xi, UNIFORM4) == pytest.approx(4.0)


def test_avar_matches_epigraph_grid_oracle():
    # brute force min over t of t + (1/alpha) E[max(0, xi - t)] on a fine grid
    rng = np.random.Generator(np.random.Philox(2))
    for alpha in (0.1, 0.3, 0.5, 0.9):
        rm = RiskMeasure(kind="avar", alpha=alpha)
        xi = rng.standard_normal(12)
        w = rng.uniform(0.05, 1.0, 12)
        w /= w.sum()
        ts = np.linspace(xi.min() - 1, xi.max() + 1, 20001)
        vals = ts + (np.maximum(0.0, xi[None, :] - ts[:, None]) @ w) / alpha
        assert evaluate(rm, xi, w) <= vals.min() + 1e-9
        assert evaluate(rm, xi, w) >= vals.min() - 1e-4  # grid resolution


@pytest.mark.parametrize(
    "rm",
    [
        RiskMeasure(kind="expectation"),
        RiskMeasure(kind="avar", alpha=0.3),
        RiskMeasure(kind="avar", alpha=0.7),
        RiskMeasure(kind="avar-smooth", alpha=0.3, tau=1e-2),
    ],
    ids=["expectation", "avar03", "avar07", "smooth03"],
)
def test_coherence_axioms_randomized(rm):
    rng = np.random.Generator(np.random.Philox(3))
    for _ in range(50):
        n = int(rng.integers(2, 12))
        w = rng.uniform(0.05, 1.0, n)
        w /= w.sum()
        xi = rng.standard_normal(n)
        eta = rng.standard_normal(n)
        # convexity
        lam = float(rng.uniform())
        mix = evaluate(rm, lam * xi + (1 - lam) * eta, w)
        assert mix <= lam * evaluate(rm, xi, w) + (1 - lam) * evaluate(rm, eta, w) + 1e-10
        # monotonicity
        assert evaluate(rm, xi, w) <= evaluate(rm, xi + np.abs(eta), w) + 1e-12
        # translation equivariance
        c = float(rng.standard_normal())
        assert evaluate(rm, xi + c, w) == pytest.approx(evaluate(rm, xi, w) + c, abs=1e-9)
        # positive homogeneity where it holds
        if rm.positively_homogeneous:
            s = float(rng.uniform(0.1, 5.0))
            assert evaluate(rm, s * xi, w) == pytest.approx(s * evaluate(rm, xi, w), abs=1e-9)


def test_smooth_avar_not_positively_homogeneous():
    rm = RiskMeasure(kind="avar-smooth", alpha=0.5, tau=0.5)
    assert not rm.positively_homogeneous
    xi = np.array([0.0, 1.0])
    w = np.array([0.5, 0.5])
    assert evaluate(rm, 10 * xi, w) != pytest.approx(10 * evaluate(rm, xi, w), abs=1e-6)


def test_subgradient_expectation_is_one():
    rm = RiskMeasure(kind="expectation")
    sg = subgradient(rm, np.array([3.0, -1.0, 2.0]), np.full(3, 1 / 3))
    assert np.array_equal(sg.theta, np.ones(3))


def test_subgradient_avar_example():
    rm = RiskMeasure(kind="avar", alpha=0.5)
    sg = subgradient(rm, np.array([1.0, 2, 3, 4]), UNIFORM4)
    assert np.allclose(sg.theta, [0.0, 0.0, 2.0, 2.0])


def test_subgradient_avar_fractional_boundary():
    # alpha = 0.75 with {1,2,3,4}: quantile is 2, theta caps at 4/3 above it
    rm = RiskMeasure(kind="avar", alpha=0.75)
    xi = np.array([1.0, 2, 3, 4])
    sg = subgradient(rm, xi, UNIFORM4)
    assert np.dot(UNIFORM4, sg.theta) == pytest.approx(1.0, abs=1e-14)
    assert np.all(sg.theta <= 1.0 / 0.75 + 1e-14)
    assert duality_gap(rm, xi, sg.theta, UNIFORM4) == pytest.approx(0.0, abs=1e-12)


def test_subgradient_constant_sample_is_uniform():
    rm = RiskMeasure(kind="avar", alpha=0.3)
    sg = subgradient(rm, np.full(5, 4.2), np.full(5, 0.2))
    assert np.array_equal(sg.theta, np.ones(5))


def test_subgradient_is_dual_feasible_and_tight():
    rng = np.random.Generator(np.random.Philox(4))
    for kind, alpha in (("expectation", 1.0), ("avar", 0.2), ("avar", 0.6)):
        rm = RiskMeasure(kind=kind, alpha=alpha)
        for _ in range(30):
            n = int(rng.integers(2, 15))
            w = rng.uniform(0.05, 1.0, n)
            w /= w.sum()
            xi = rng.standard_normal(n)
            sg = subgradient(rm, xi, w)
            assert np.all(sg.theta >= 0.0)
            assert np.dot(w, sg.theta) == pytest.approx(1.0, abs=1e-12)
            gap = duality_gap(rm, xi, sg.theta, w)
            assert abs(gap) <= 1e-10


def test_subgradient_inequality():
    # R[eta] >= R[xi] + E[theta (eta - xi)] for theta in the subdifferential
    rng = np.random.Generator(np.random.Philox(5))
    for rm in (RiskMeasure(kind="avar", alpha=0.4),
               RiskMeasure(kind="avar-smooth", alpha=0.4, tau=1e-2)):
        for _ in range(40):
            n = 10
            w = rng.uniform(0.05, 1.0, n)
            w /= w.sum()
            xi = rng.standard_normal(n)
            eta = rng.standard_normal(n)
            th = subgradient(rm, xi, w).theta
            lower = evaluate(rm, xi, w) + float(np.dot(w, th * (eta - xi)))
            assert evaluate(rm, eta, w) >= lower - 1e-8


def test_duality_gap_uniform_theta_against_avar():
    # theta = 1 is feasible for avar(0.5); gap for {1,2,3,4} is 3.5 - 2.5 = 1
    rm = RiskMeasure(kind="avar", alpha=0.5)
    xi = np.array([1.0, 2, 3, 4])
    assert duality_gap(rm, xi, np.ones(4), UNIFORM4) == pytest.approx(1.0)


def test_duality_gap_infeasible_is_infinite():
    rm = RiskMeasure(kind="avar", alpha=0.5)
    xi = np.array([1.0, 2, 3, 4])
    assert duality_gap(rm, xi, np.array([0, 0, 0, 4.0]), UNIFORM4) == np.inf
    assert duality_gap(rm, xi, np.array([-1.0, 1, 1, 3.0]), UNIFORM4) == np.inf


def test_smooth_avar_converges_to_exact_as_tau_shrinks():
    rng = np.random.Generator(np.random.Philox(6))
    xi = rng.standard_normal(8)
    w = np.full(8, 0.125)
    exact = evaluate(RiskMeasure(kind="avar", alpha=0.4), xi, w)
    gaps = [
        abs(evaluate(RiskMeasure(kind="avar-smooth", alpha=0.4, tau=tau), xi, w) - exact)
        for tau in (1e-1, 1e-2, 1e-3)
    ]
    assert gaps[2] < gaps[0]
    assert gaps[2] < 1e-2


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        RiskMeasure(kind="entropic")
    with pytest.raises(ValueError):
        RiskMeasure(kind="avar", alpha=0.0)
    with pytest.raises(ValueError):
        RiskMeasure(kind="avar-smooth", alpha=0.5, tau=0.0)
    with pytest.raises(ValueError):
        evaluate(RiskMeasure(), np.array([]), np.array([]))
    with pytest.raises(ValueError, match="matching shapes"):
        evaluate(RiskMeasure(), np.ones(3), np.full(4, 0.25))


def _previous_value(rm, xi, w):
    """The value formulas evaluate used before subgradient returned the value."""
    if rm.kind == "expectation":
        return float(np.dot(w, xi))
    if rm.kind == "avar":
        t = _quantile_threshold(xi, w, rm.alpha)
        return t + float(np.dot(w, np.maximum(0.0, xi - t))) / rm.alpha
    t = _smooth_root(xi, w, rm.alpha, rm.tau)[0]
    z = (xi - t) / rm.tau
    softplus = np.where(z > 30.0, z, np.log1p(np.exp(np.minimum(z, 30.0))))
    return t + rm.tau * float(np.dot(w, softplus)) / rm.alpha


@pytest.mark.parametrize(
    "rm",
    [RiskMeasure("expectation"), RiskMeasure("avar", alpha=0.3),
     RiskMeasure("avar-smooth", alpha=0.3, tau=1e-2)],
    ids=["expectation", "avar", "avar-smooth"],
)
def test_subgradient_value_equals_evaluate(rm):
    rng = np.random.Generator(np.random.Philox(21))
    samples = [(rng.standard_normal(7), rng.dirichlet(np.ones(7))) for _ in range(20)]
    samples += [
        (np.array([1.0, 2.0, 2.0, 2.0, 3.0]), np.full(5, 0.2)),  # ties at the quantile
        (np.array([2.0, 1.0, 2.0, 0.5]), UNIFORM4),  # ties in the tail
        (np.full(5, 4.2), np.full(5, 0.2)),  # constant sample
    ]
    for xi, w in samples:
        value = subgradient(rm, xi, w).value
        assert isinstance(value, float)
        assert value == evaluate(rm, xi, w) == _previous_value(rm, xi, w)


@pytest.mark.parametrize("tau", [1e-2, 1e-1])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_hessian_product_is_the_derivative_of_the_weighted_density(alpha, tau):
    # the gradient of R is w theta: its central difference along dxi is the product
    rm = RiskMeasure("avar-smooth", alpha=alpha, tau=tau)
    rng = np.random.Generator(np.random.Philox(35))
    for _ in range(10):
        xi, w = 2.0 * tau * rng.standard_normal(9), rng.dirichlet(np.ones(9))
        product = hessian_product(rm, subgradient(rm, xi, w).theta, w)
        dxi, eps = rng.standard_normal(9), 1e-4 * tau

        def gradient(sample):
            return w * subgradient(rm, sample, w).theta

        fd = (gradient(xi + eps * dxi) - gradient(xi - eps * dxi)) / (2 * eps)
        assert np.allclose(product(dxi), fd, rtol=0.0, atol=1e-7 * np.abs(fd).max())
        stack = rng.standard_normal((9, 4))
        columns = np.stack([product(column) for column in stack.T], axis=1)
        assert np.allclose(product(stack), columns, rtol=0.0, atol=1e-14 * np.abs(columns).max())


def test_hessian_product_is_none_where_the_risk_is_not_curved():
    xi, w = np.array([3.0, 1.0, 2.0, 0.5]), UNIFORM4
    for rm in (RiskMeasure("expectation"), RiskMeasure("avar", alpha=0.5)):
        assert hessian_product(rm, subgradient(rm, xi, w).theta, w) is None
    # sigmoids saturated to 0 and 1: the density 0 or 1/alpha, with no slope between
    rm = RiskMeasure("avar-smooth", alpha=0.5, tau=1e-2)
    theta = subgradient(rm, np.array([0.0, 0.0, 100.0, 100.0]), w).theta
    assert np.array_equal(theta, [0.0, 0.0, 2.0, 2.0])
    assert hessian_product(rm, theta, w) is None


def _brentq_threshold(xi, w, alpha, tau):
    """The threshold as SciPy's brentq solved it before the Newton kernel, and its xtol."""
    from scipy.optimize import brentq
    from scipy.special import expit

    def phi_prime(t):
        return 1.0 - np.dot(w, expit((xi - t) / tau)) / alpha

    lo = float(xi.min()) - 60.0 * tau - 1.0
    hi = float(xi.max()) + 60.0 * tau + 1.0
    xtol = 1e-15 * (1.0 + abs(hi))
    if phi_prime(lo) >= 0.0:
        return lo, xtol
    return float(brentq(phi_prime, lo, hi, xtol=xtol, rtol=1e-15)), xtol


def _threshold_samples():
    """The samples of the smoothed-AVaR tests above, plus K = 1."""
    rng = np.random.Generator(np.random.Philox(21))
    samples = [(rng.standard_normal(7), rng.dirichlet(np.ones(7))) for _ in range(20)]
    rng = np.random.Generator(np.random.Philox(3))
    for _ in range(20):
        n = int(rng.integers(2, 12))
        w = rng.uniform(0.05, 1.0, n)
        samples.append((rng.standard_normal(n), w / w.sum()))
    samples += [
        (np.array([1.0, 2.0, 2.0, 2.0, 3.0]), np.full(5, 0.2)),  # ties at the quantile
        (np.array([2.0, 1.0, 2.0, 0.5]), UNIFORM4),  # ties in the tail
        (np.full(5, 4.2), np.full(5, 0.2)),  # constant sample
        (np.array([0.7]), np.ones(1)),  # K = 1
    ]
    return samples


@pytest.fixture
def sigmoid_calls(monkeypatch):
    """Counts the phi' evaluations of the threshold solves (one sigmoid each)."""
    calls = [0]
    sigmoid = risk_mod._sigmoid

    def counted(z):
        calls[0] += 1
        return sigmoid(z)

    monkeypatch.setattr(risk_mod, "_sigmoid", counted)
    return calls


@pytest.mark.parametrize("tau", [1e-9, 1e-6, 1e-3, 1e-2, 1e-1, 1e2])
@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_smooth_threshold_matches_brentq(sigmoid_calls, tau, offset):
    evaluations = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for xi, w in _threshold_samples():
            for alpha in (0.3, 0.4, 0.7):
                sigmoid_calls[0] = 0
                t = _smooth_root(xi + offset, w, alpha, tau)[0]
                evaluations.append(sigmoid_calls[0])
                ref, xtol = _brentq_threshold(xi + offset, w, alpha, tau)
                # brentq stops within its xtol, wider than this bound for tau = 1e2
                assert abs(t - ref) <= max(1e-14 * (1.0 + abs(ref)), xtol), (xi, w, alpha)
    assert max(evaluations) <= 64


def test_smooth_threshold_alpha_one_is_the_bracket_end(sigmoid_calls):
    # E[sigmoid] = 1 at the lower bracket end, so phi'(lo) >= 0 ends the solve there
    for xi, w in [(np.array([1.0, 2, 3, 4]), UNIFORM4), (np.full(5, 4.2), np.full(5, 0.2)),
                  (np.array([0.7]), np.ones(1))]:
        sigmoid_calls[0] = 0
        lo = float(xi.min()) - 60.0 * 1e-3 - 1.0
        assert _smooth_root(xi, w, 1.0, 1e-3)[0] == _brentq_threshold(xi, w, 1.0, 1e-3)[0] == lo
        assert sigmoid_calls[0] == 1


def test_smooth_threshold_flat_root_keeps_value_and_density(sigmoid_calls):
    # K alpha = 2 tail atoms: where the gap below them spans many tau, phi' is 0 to
    # round-off across it and any t there is a root; the value does not depend on
    # which, and theta only through sigmoid tails near round-off
    from scipy.special import expit

    rm = RiskMeasure("avar-smooth", alpha=0.25, tau=1e-3)
    w = np.full(8, 1.0 / 8)
    rng = np.random.Generator(np.random.Philox(12345))
    evaluations = []
    for _ in range(200):
        xi = rng.standard_normal(8)
        sigmoid_calls[0] = 0
        sg = subgradient(rm, xi, w)
        evaluations.append(sigmoid_calls[0])
        t = _brentq_threshold(xi, w, rm.alpha, rm.tau)[0]
        z = (xi - t) / rm.tau
        softplus = np.where(z > 30.0, z, np.log1p(np.exp(np.minimum(z, 30.0))))
        assert sg.value == pytest.approx(t + rm.tau * float(np.dot(w, softplus)) / rm.alpha,
                                         rel=1e-14)
        # elsewhere theta moves with t at a rate up to 1/(4 alpha tau) = 1e3
        assert np.allclose(sg.theta, expit(z) / rm.alpha, rtol=0.0, atol=1e-10)
    # Newton starts mid-gap, where phi' is flat: at most 5 evaluations here, and
    # at most 10 over 2,000 such samples
    assert max(evaluations) <= 10 and np.mean(evaluations) <= 2.5


def test_smooth_threshold_ends_on_non_finite_samples(sigmoid_calls):
    # overflowed costs reach the risk layer inside minimize, which reports the
    # non-finite value as a divergence; the threshold solve itself must end
    rm = RiskMeasure("avar-smooth", alpha=0.25, tau=1e-3)
    with np.errstate(invalid="ignore"):
        for xi in ([1.0, np.inf], [np.inf, np.inf], [np.nan, 1.0]):
            sigmoid_calls[0] = 0
            assert not np.isfinite(evaluate(rm, np.array(xi), np.full(2, 0.5)))
            assert sigmoid_calls[0] <= 64
