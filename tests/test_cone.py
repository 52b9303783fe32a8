import numpy as np
import pytest

from riskpath.cone import (
    ConeSpec,
    ConstraintMap,
    constraint_adjoints,
    constraint_eval,
    constraint_jvp,
    constraint_slope,
    penalty,
    penalty_multiplier,
    project,
)
from riskpath.grid import Grid


@pytest.fixture
def grid_cone():
    g = Grid(7)
    return g, ConeSpec(weight=g.h)


def test_project_examples(grid_cone):
    _, cone = grid_cone
    assert np.array_equal(
        project(np.array([-1.0, 0.0, 2.0, 0, 0, 0, 0])),
        [0.0, 0.0, 2.0, 0, 0, 0, 0],
    )
    k = np.array([0.5, 0.0, 3.0, 1, 1, 1, 1])
    assert np.array_equal(project(k), k)  # already in the cone


def test_project_scalar_cone():
    # a scalar constraint is the one-column case
    cone = ConeSpec(weight=1.0)
    assert np.array_equal(project(np.array([[-2.5], [1.5]])), [[0.0], [1.5]])


def test_project_is_coordinatewise_minimizer(grid_cone):
    # oracle: per coordinate, scan candidate nonnegative values on a fine line
    _, cone = grid_cone
    rng = np.random.Generator(np.random.Philox(1))
    k = rng.standard_normal(7)
    p = project(k)
    for j in range(7):
        candidates = np.linspace(0.0, 3.0, 3001)
        best = candidates[np.argmin((candidates - k[j]) ** 2)]
        assert abs(p[j] - best) <= 1e-3  # line-search resolution


def test_projection_characterization_triple(grid_cone):
    _, cone = grid_cone
    rng = np.random.Generator(np.random.Philox(2))
    basis = np.eye(7)
    for _ in range(100):
        k = rng.standard_normal(7)
        p = project(k)
        assert np.all(p >= 0.0)
        assert abs(cone.inner(p, k - p)) == 0.0
        for e in basis:  # p - k in the dual cone, checked on the nodal basis
            assert cone.inner(p - k, e) >= -1e-15


def test_projection_idempotent_and_nonexpansive(grid_cone):
    _, cone = grid_cone
    rng = np.random.Generator(np.random.Philox(3))
    for _ in range(100):
        a = rng.standard_normal(7)
        b = rng.standard_normal(7)
        assert np.array_equal(project(project(a)), project(a))
        assert cone.norm(project(a) - project(b)) <= cone.norm(a - b) + 1e-15


def test_penalty_single_node_closed_form():
    cone = ConeSpec(weight=1.0)
    pv = penalty(cone, gamma=2.0, i_value=np.array([0.5]))
    assert pv.value == pytest.approx(0.25, abs=1e-15)


def test_penalty_zero_iff_feasible(grid_cone):
    _, cone = grid_cone
    assert penalty(cone, 5.0, -np.ones(7)).value == 0.0
    rng = np.random.Generator(np.random.Philox(4))
    for _ in range(100):
        i = rng.standard_normal(7)
        pv = penalty(cone, 3.0, i)
        assert pv.value >= 0.0
        assert (pv.value == 0.0) == bool(np.all(i <= 0.0))


def test_penalty_rejects_bad_gamma(grid_cone):
    _, cone = grid_cone
    with pytest.raises(ValueError):
        penalty(cone, 0.0, np.zeros(7))
    with pytest.raises(ValueError):
        penalty_multiplier(-1.0, np.zeros(7))


def test_penalty_matches_envelope_minimization(grid_cone):
    # oracle: minimize (gamma/2)||(-i) - y||_H^2 over y >= 0 by projected
    # coordinate descent (separable, so one pass per coordinate suffices)
    _, cone = grid_cone
    rng = np.random.Generator(np.random.Philox(5))
    gamma = 4.0
    i = rng.standard_normal(7)
    y = np.zeros(7)
    for _ in range(3):
        for j in range(7):
            y[j] = max(0.0, -i[j])
    oracle = 0.5 * gamma * cone.inner(-i - y, -i - y)
    assert penalty(cone, gamma, i).value == pytest.approx(oracle, rel=1e-14)


def test_penalty_convex_along_segments(grid_cone):
    _, cone = grid_cone
    rng = np.random.Generator(np.random.Philox(6))
    for _ in range(50):
        a = rng.standard_normal(7)
        b = rng.standard_normal(7)
        mid = penalty(cone, 2.0, 0.5 * (a + b)).value
        assert mid <= 0.5 * (penalty(cone, 2.0, a).value + penalty(cone, 2.0, b).value) + 1e-14


def test_multiplier_examples():
    assert penalty_multiplier(10.0, np.array([0.3])) == pytest.approx([3.0])
    assert np.array_equal(penalty_multiplier(7.0, -np.ones(3)), np.zeros(3))


def test_multiplier_is_gradient_of_penalty(grid_cone):
    # lambda = -grad beta^gamma(-i), checked by central differences
    _, cone = grid_cone
    rng = np.random.Generator(np.random.Philox(7))
    gamma = 3.5
    for _ in range(20):
        i = rng.standard_normal(7)
        lam = penalty_multiplier(gamma, i)
        d = rng.standard_normal(7)
        eps = 1e-6
        fd = (penalty(cone, gamma, i + eps * d).value - penalty(cone, gamma, i - eps * d).value) / (2 * eps)
        assert abs(fd - cone.inner(lam, d)) <= 1e-6 * max(1.0, abs(fd))


def test_multiplier_sign_and_complementarity(grid_cone):
    _, cone = grid_cone
    rng = np.random.Generator(np.random.Philox(8))
    basis = np.eye(7)
    for _ in range(50):
        i = rng.standard_normal(7)
        lam = penalty_multiplier(2.0, i)
        for e in basis:
            assert cone.inner(lam, e) >= 0.0
        assert cone.inner(lam, project(-i)) == 0.0


@pytest.fixture
def mixed_map():
    g = Grid(3)
    bounds = np.full((1, 3), 0.5)
    return g, ConstraintMap(kind="mixed", grid=g, bounds=bounds, epsilon=0.0)


def test_mixed_eval_zero_at_bound(mixed_map):
    g, cmap = mixed_map
    x2 = np.full(3, 0.5)
    assert np.allclose(constraint_eval(cmap, np.zeros(3), x2), 0.0)


def test_mixed_adjoints_epsilon_zero(mixed_map):
    g, cmap = mixed_map
    lam = np.array([1.0, 2.0, 3.0])
    adj_y = constraint_adjoints(cmap, constraint_slope(cmap, np.zeros(3)), lam)
    assert cmap.control_coefficient == 0.0  # i_x1^* lam = -0 adj_y
    assert np.array_equal(adj_y, g.h * lam)


def test_volume_eval_and_adjoint():
    g = Grid(3)
    cmap = ConstraintMap(kind="volume", grid=g, bounds=np.array([[0.5]]))
    val = constraint_eval(cmap, np.zeros(3), np.ones((1, 3)))
    assert val.shape == (1, 1)
    assert val[0, 0] == pytest.approx(0.25)  # 3h - 0.5 with h = 0.25
    adj_y = constraint_adjoints(cmap, constraint_slope(cmap, np.ones((1, 3))),
                                np.array([[1.0]]))
    assert cmap.control_coefficient == 0.0  # the volume does not read the control
    assert np.array_equal(adj_y, np.full((1, 3), g.h))
    assert np.array_equal(adj_y, g.h * np.array([[1.0]]) * np.ones(3))  # the previous formula


def test_gradient_eval_linear_state():
    g = Grid(7)
    slope = 2.0
    x2 = slope * g.nodes
    # interior cells see slope 2 exactly; the last cell drops to the boundary
    cmap = ConstraintMap(
        kind="gradient", grid=g, bounds=np.ones((1, g.n_cells)), delta=0.0
    )
    i = constraint_eval(cmap, np.zeros(7), x2)[0]
    assert np.allclose(i[:-1], 1.0)


def test_gradient_adjoint_identity():
    g = Grid(9)
    rng = np.random.Generator(np.random.Philox(9))
    psi = np.full((1, g.n_cells), 0.3)
    cmap = ConstraintMap(kind="gradient", grid=g, bounds=psi, delta=1e-6)
    cone = cmap.cone_spec()
    x1 = rng.standard_normal(9)
    x2 = rng.standard_normal(9)
    lam = np.abs(rng.standard_normal(g.n_cells))
    du = rng.standard_normal(9)
    dy = rng.standard_normal(9)
    eps = 1e-7
    ip = constraint_eval(cmap, x1 + eps * du, x2 + eps * dy)[0]
    im = constraint_eval(cmap, x1 - eps * du, x2 - eps * dy)[0]
    fd = cone.inner(lam, (ip - im) / (2 * eps))
    adj_y = constraint_adjoints(cmap, constraint_slope(cmap, x2), lam)
    assert cmap.control_coefficient == 0.0  # i_x1^* lam = 0
    an = float(np.dot(adj_y, dy))
    assert abs(fd - an) <= 1e-6 * max(1.0, abs(an))


@pytest.mark.parametrize("kind", ["mixed", "volume", "gradient"])
def test_linearisation_matches_differences_and_adjoints(kind):
    g = Grid(9)
    rng = np.random.Generator(np.random.Philox(10))
    m = {"mixed": g.n_interior, "volume": 1, "gradient": g.n_cells}[kind]
    cmap = ConstraintMap(kind=kind, grid=g, bounds=np.full((3, m), 0.3), epsilon=0.05, delta=1e-2)
    cone = cmap.cone_spec()
    x1, du = rng.standard_normal(9), rng.standard_normal(9)
    x2, dy = rng.standard_normal((3, 9)), rng.standard_normal((3, 9))
    jvp = constraint_jvp(cmap, constraint_slope(cmap, x2), du, dy)
    eps = 1e-7
    fd = (constraint_eval(cmap, x1 + eps * du, x2 + eps * dy)
          - constraint_eval(cmap, x1 - eps * du, x2 - eps * dy)) / (2 * eps)
    assert jvp.shape == (3, m)
    assert np.allclose(jvp, fd, rtol=1e-6, atol=1e-6)
    # the adjoints are the transpose of the linearisation, row by row
    lam = rng.standard_normal((3, m))
    adj_y = constraint_adjoints(cmap, constraint_slope(cmap, x2), lam)
    adj_u = -cmap.control_coefficient * adj_y  # i_x1^* lam
    pairing = adj_u @ du + np.sum(adj_y * dy, axis=-1)
    assert np.allclose(cone.inner(lam, jvp), pairing, rtol=1e-12, atol=1e-12)
    # the previous formulas: -epsilon h lam for mixed, zeros otherwise; the cells' np.diff
    previous_u = -cmap.epsilon * g.h * lam if kind == "mixed" else np.zeros_like(adj_y)
    assert np.max(np.abs(adj_u - previous_u)) <= 1e-13 * np.max(np.abs(previous_u), initial=0.0)
    d = constraint_slope(cmap, x2)
    if kind == "gradient":
        cells = np.diff(dy, prepend=0.0, append=0.0, axis=-1) / g.h
        assert np.array_equal(jvp, d * cells)
        assert np.array_equal(adj_y, (lam * d)[..., :-1] - (lam * d)[..., 1:])
    # into given arrays, the same bits
    buf, adj_buf = np.empty((3, m)), np.empty((3, 9))
    assert constraint_jvp(cmap, d, du, dy, out=buf) is buf and np.array_equal(buf, jvp)
    assert constraint_adjoints(cmap, d, lam, out=adj_buf) is adj_buf
    assert np.array_equal(adj_buf, adj_y)


@pytest.mark.parametrize("n", [1, 2, 9])
@pytest.mark.parametrize("stack", [(), (3,), (2, 3)])
def test_gradient_adjoint_is_the_difference_of_cell_products(n, stack):
    # formed in the output, with no stack of lam d: the same products and differences
    g = Grid(n)
    rng = np.random.Generator(np.random.Philox(n))
    cmap = ConstraintMap(kind="gradient", grid=g, bounds=np.ones((3, g.n_cells)))
    d = constraint_slope(cmap, rng.standard_normal(stack[-1:] + (n,)))
    lam = rng.standard_normal(stack + (g.n_cells,))
    c = lam * d
    expected = c[..., :-1] - c[..., 1:]
    assert constraint_adjoints(cmap, d, lam).tobytes() == expected.tobytes()
    strided = np.empty(stack + (n, 2))[..., 0]
    if not strided.flags.c_contiguous:  # one entry is contiguous whatever its stride
        with pytest.raises(ValueError, match="C-contiguous"):
            constraint_adjoints(cmap, d, lam, out=strided)


def test_gradient_flat_state_tie_break():
    # delta = 0 with a flat state: subgradient value 0 at the kink
    g = Grid(5)
    cmap = ConstraintMap(kind="gradient", grid=g, bounds=np.ones((1, g.n_cells)), delta=0.0)
    i_slope = constraint_slope(cmap, np.zeros(5))
    adj_y = constraint_adjoints(cmap, i_slope, np.ones(g.n_cells))
    assert np.allclose(adj_y, 0.0)


def test_negative_gradient_bound_rejected():
    # sqrt(du^2 + delta^2) - delta >= 0, so a bound psi < 0 anywhere leaves no feasible state
    g = Grid(3)
    bounds = np.full((2, g.n_cells), 0.1)
    bounds[1, 2] = -1e-3
    with pytest.raises(ValueError, match="gradient bound must be >= 0"):
        ConstraintMap(kind="gradient", grid=g, bounds=bounds)
    ConstraintMap(kind="gradient", grid=g, bounds=np.zeros((1, g.n_cells)))  # psi = 0 builds
    # negative mixed and volume bounds still leave states below them: the sets are not empty
    cmap = ConstraintMap(kind="mixed", grid=g, bounds=np.full((1, 3), -0.5), epsilon=0.05)
    assert np.all(constraint_eval(cmap, np.zeros(3), np.full((1, 3), -1.0)) < 0.0)
    cmap = ConstraintMap(kind="volume", grid=g, bounds=np.array([[-0.5]]))
    assert np.all(constraint_eval(cmap, np.zeros(3), np.full((1, 3), -1.0)) < 0.0)


def test_unknown_kind_rejected():
    g = Grid(3)
    with pytest.raises(ValueError):
        ConstraintMap(kind="nope", grid=g, bounds=np.zeros((1, 3)))
    with pytest.raises(ValueError):
        ConeSpec(weight=0.0)
