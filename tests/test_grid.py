import numpy as np
import pytest

from riskpath.grid import (
    DivergedError,
    EllipticityError,
    Grid,
    assemble,
    solve_state,
)
from riskpath.scenario import ScenarioConfig, sample

from reference import dense_matrix


def test_grid_invariants():
    g = Grid(7)
    assert g.h > 0
    assert abs(g.h * (g.n_interior + 1) - 1.0) < 1e-15
    assert np.all(np.diff(g.nodes) > 0)
    assert np.all((g.nodes > 0) & (g.nodes < 1))


def test_grid_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        Grid(0)


def test_assemble_unit_conductivity_n3():
    g = Grid(3)
    op = assemble(g, np.ones(4))
    assert np.allclose(op.diag, [32.0, 32.0, 32.0])
    assert np.allclose(op.off, [-16.0, -16.0, 0.0])


def test_assemble_n1_conductivity_two():
    g = Grid(1)
    op = assemble(g, np.full(2, 2.0))
    assert np.allclose(op.diag, [16.0])


def test_assemble_matches_literal_loop():
    # independent oracle: assemble entry by entry in a throwaway loop
    g = Grid(5)
    rng = np.random.Generator(np.random.Philox(3))
    a = 0.5 + rng.uniform(0.0, 1.0, g.n_cells)
    op = assemble(g, a)
    n, h = g.n_interior, g.h
    dense = np.zeros((n, n))
    for j in range(n):
        dense[j, j] = (a[j] + a[j + 1]) / h**2
        if j + 1 < n:
            dense[j, j + 1] = -a[j + 1] / h**2
            dense[j + 1, j] = -a[j + 1] / h**2
    assert np.allclose(dense_matrix(op), dense, rtol=0, atol=0)


def test_solve_single_node():
    # K n = 1: the stacked off-diagonal is empty
    g = Grid(1)
    op = assemble(g, np.full(2, 2.0))
    assert np.array_equal(solve_state(op, np.array([8.0])), [0.5])  # diag 16
    op3 = assemble(g, np.array([[2.0, 2.0], [1.0, 3.0], [4.0, 4.0]]))
    assert np.array_equal(solve_state(op3, np.array([8.0])), 8.0 / op3.diag)


def test_assemble_rejects_non_finite_stencil():
    # a finite conductivity can still overflow once divided by h^2
    g = Grid(3)
    for a in (np.full(4, 1e308), np.array([1.0, np.nan, 1.0, 1.0]), np.full(4, np.inf)):
        with pytest.raises(EllipticityError, match="not finite"):
            assemble(g, a)


def test_assemble_rejects_nonpositive_conductivity():
    g = Grid(3)
    a = np.ones(4)
    a[2] = 0.0
    with pytest.raises(EllipticityError):
        assemble(g, a)


def test_assemble_rejects_conductivity_of_the_wrong_length():
    g = Grid(3)
    for a in (np.ones(3), np.ones((2, 5))):
        with pytest.raises(ValueError, match="conductivity must have length 4"):
            assemble(g, a)


def test_assemble_diagonal_dominance():
    g = Grid(9)
    rng = np.random.Generator(np.random.Philox(5))
    a = 0.2 + rng.uniform(0.0, 2.0, g.n_cells)
    op = assemble(g, a)
    assert np.all(op.off[:-1] < 0)
    dense = dense_matrix(op)
    offsum = np.sum(np.abs(dense), axis=1) - np.abs(np.diag(dense))
    # weak dominance on interior rows, strict at the boundary rows (irreducible)
    assert np.all(offsum <= np.diag(dense) + 1e-12)
    assert offsum[0] < dense[0, 0] and offsum[-1] < dense[-1, -1]
    assert np.all(np.linalg.eigvalsh(dense) > 0)


def test_solve_poisson_analytic():
    g = Grid(199)
    op = assemble(g, np.ones(g.n_cells))
    u = solve_state(op, np.ones(g.n_interior))
    mid = g.n_interior // 2
    assert abs(u[mid] - 0.125) < 1e-4


def test_solve_zero_rhs():
    g = Grid(11)
    op = assemble(g, np.ones(g.n_cells))
    assert np.allclose(solve_state(op, np.zeros(g.n_interior)), 0.0)


def test_solve_matches_dense_lu():
    g = Grid(17)
    rng = np.random.Generator(np.random.Philox(11))
    a = 0.3 + rng.uniform(0.0, 1.5, g.n_cells)
    op = assemble(g, a)
    rhs = rng.standard_normal(g.n_interior)
    u = solve_state(op, rhs)
    u_dense = np.linalg.solve(dense_matrix(op), rhs)
    assert np.allclose(u, u_dense, rtol=0, atol=1e-12 * np.linalg.norm(rhs))


def _unequal_stack():
    # three scenarios whose conductivities differ by a factor of up to 100
    g = Grid(9)
    rng = np.random.Generator(np.random.Philox(31))
    a = (0.2 + rng.uniform(0.0, 2.0, (3, g.n_cells))) * np.array([[1.0], [10.0], [0.1]])
    op = assemble(g, a)
    return op, rng.standard_normal((3, g.n_interior))


def test_stacked_solve_matches_dense_per_block():
    op, rhs = _unequal_stack()
    u = solve_state(op, rhs)
    for k in range(3):
        block = np.diag(op.diag[k]) + np.diag(op.off[k, :-1], 1) + np.diag(op.off[k, :-1], -1)
        exact = np.linalg.solve(block, rhs[k])
        assert np.linalg.norm(u[k] - exact) <= 1e-12 * np.linalg.norm(exact)


def test_stacked_solve_matches_banded_cholesky():
    # oracle: scipy's banded Cholesky pair on each block's upper bands
    from scipy.linalg import cho_solve_banded, cholesky_banded

    op, rhs = _unequal_stack()
    u = solve_state(op, rhs)
    for k in range(3):
        bands = np.zeros((2, op.diag.shape[1]))
        bands[0, 1:] = op.off[k, :-1]
        bands[1] = op.diag[k]
        ref = cho_solve_banded((cholesky_banded(bands), False), rhs[k])
        assert np.linalg.norm(u[k] - ref) <= 1e-13 * np.linalg.norm(ref)


def test_solve_into_buffer():
    op, rhs = _unequal_stack()
    fresh = solve_state(op, rhs)
    buf = np.full(op.diag.shape, np.nan)
    assert solve_state(op, rhs, out=buf) is buf
    assert np.array_equal(buf, fresh)
    # the right-hand side may be the buffer itself
    buf[...] = rhs
    assert solve_state(op, buf, out=buf) is buf
    assert np.array_equal(buf, fresh)
    # one (n,) right-hand side is broadcast to every scenario
    assert np.array_equal(solve_state(op, rhs[1], out=buf), solve_state(op, rhs[1]))
    assert np.array_equal(buf[0], solve_state(op, np.tile(rhs[1], (3, 1)))[0])
    bad = rhs.copy()
    bad[2, 0] = np.nan
    with pytest.raises(DivergedError, match="non-finite"):
        solve_state(op, bad, out=buf)


def test_a_non_contiguous_out_is_refused():
    # a transposed buffer has the right shape; dpttrs would write into a copy
    # of it, leaving it holding no solution
    op = assemble(Grid(5), np.ones((3, 6)))
    u = np.arange(15.0).reshape(3, 5)
    with pytest.raises(ValueError, match="out"):
        solve_state(op, u, out=np.empty((5, 3)).T)


def test_solve_rejects_non_finite_solution():
    op, rhs = _unequal_stack()
    rhs[1, 4] = np.inf
    with pytest.raises(DivergedError, match="non-finite"):
        solve_state(op, rhs)


def test_solve_residual_contract():
    g = Grid(63)
    rng = np.random.Generator(np.random.Philox(13))
    a = 0.3 + rng.uniform(0.0, 1.5, g.n_cells)
    op = assemble(g, a)
    rhs = rng.standard_normal(g.n_interior)
    u = solve_state(op, rhs)
    assert np.linalg.norm(op.matvec(u) - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_inner_h_examples():
    g = Grid(3)
    assert g.inner(np.ones(3), np.ones(3)) == pytest.approx(0.75, abs=1e-15)
    assert g.inner(np.array([1.0, 0, 0]), np.array([0, 1.0, 0])) == 0.0


def test_inner_h_matches_direct_summation():
    g = Grid(29)
    rng = np.random.Generator(np.random.Philox(17))
    u = rng.standard_normal(g.n_interior)
    v = rng.standard_normal(g.n_interior)
    direct = sum(g.h * ui * vi for ui, vi in zip(u, v))
    assert abs(g.inner(u, v) - direct) < 1e-14


def test_inner_h_length_mismatch():
    g = Grid(3)
    with pytest.raises(ValueError):
        g.inner(np.ones(3), np.ones(4))


def test_the_lumped_mass_methods_are_the_h_weighted_formulas():
    # M = h I: each method keeps the sum it replaced (np.dot for one row), bit for bit
    g = Grid(29)
    rng = np.random.Generator(np.random.Philox(19))
    u, v = rng.standard_normal((2, 4, g.n_interior))
    assert g.mass == g.h and g.shape == (29,)
    assert g.inner(u[0], v[0]) == g.h * np.dot(u[0], v[0])
    assert g.norm(u[0]) == np.sqrt(g.h * np.dot(u[0], u[0]))
    assert g.inner(u, v).tobytes() == np.array([g.h * np.dot(a, b) for a, b in zip(u, v)]).tobytes()
    assert g.norm(u).tobytes() == np.sqrt([g.h * np.dot(a, a) for a in u]).tobytes()
    assert g.riesz(u).tobytes() == (u / g.h).tobytes()
    assert g.integral(u).tobytes() == (g.h * np.sum(u, axis=-1, keepdims=True)).tobytes()
    assert g.integral(u[0]).shape == (1,)
    # the Riesz map represents the pairing: (M^-1 g, v)_M = g . v
    assert abs(g.inner(g.riesz(u[0]), v[0]) - np.dot(u[0], v[0])) <= 1e-13 * np.abs(u[0] @ v[0])


@pytest.mark.parametrize("n", [1, 2, 9])
@pytest.mark.parametrize("stack", [(), (3,), (2, 3)])
def test_cell_gradient_is_the_difference_quotient_over_every_cell(n, stack):
    g = Grid(n)
    u = np.random.Generator(np.random.Philox(n)).standard_normal(stack + (n,))
    u[..., 0] = -0.0  # a signed zero keeps its sign in the first cell
    u.reshape(-1)[-1] = np.inf
    expected = np.diff(u, prepend=0.0, append=0.0, axis=-1) / g.h
    assert g.cell_gradient(u).tobytes() == expected.tobytes()
    out = np.empty(stack + (g.n_cells,))
    assert g.cell_gradient(u, out=out) is out and out.tobytes() == expected.tobytes()
    with pytest.raises(ValueError, match="C-contiguous"):
        g.cell_gradient(u, out=np.empty(stack + (2 * g.n_cells,))[..., ::2])


def test_self_adjointness_property():
    g = Grid(21)
    rng = np.random.Generator(np.random.Philox(23))
    for _ in range(10):
        a = 0.3 + rng.uniform(0.0, 1.5, g.n_cells)
        op = assemble(g, a)
        r = rng.standard_normal(g.n_interior)
        q = rng.standard_normal(g.n_interior)
        lhs = g.inner(solve_state(op, r), q)
        rhs = g.inner(r, solve_state(op, q))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_uniform_state_bound_across_scenarios():
    # one stability constant works for every scenario of a sampled set
    g = Grid(31)
    cfg = ScenarioConfig(n_scenarios=12, seed=4)
    scen = sample(cfg, g.n_cells)
    rng = np.random.Generator(np.random.Philox(29))
    c = 1.0 / (np.pi**2 * cfg.a_min)  # Poincare-type bound for a >= a_min
    for a in scen.conductivities:
        op = assemble(g, a)
        for _ in range(3):
            rhs = rng.standard_normal(g.n_interior)
            u = solve_state(op, rhs)
            assert g.norm(u) <= 1.05 * c * g.norm(rhs)


def test_stacked_solve_matches_per_scenario_solves():
    # one block-diagonal factor for all scenarios reproduces each scenario's
    # own factorization and solve bit for bit
    g = Grid(15)
    scen = sample(ScenarioConfig(n_scenarios=5, seed=19), g.n_cells)
    op = assemble(g, scen.conductivities)
    rng = np.random.Generator(np.random.Philox(19))
    rhs = rng.standard_normal((scen.count, g.n_interior))
    u = solve_state(op, rhs)
    shared = solve_state(op, rhs[0])  # one right-hand side for every scenario
    for k, a in enumerate(scen.conductivities):
        op_k = assemble(g, a)
        assert np.array_equal(op.diag[k], op_k.diag) and np.array_equal(op.off[k], op_k.off)
        assert np.array_equal(u[k], solve_state(op_k, rhs[k]))
        assert np.array_equal(shared[k], solve_state(op_k, rhs[0]))
    per_scenario = [assemble(g, a).matvec(v) for a, v in zip(scen.conductivities, u)]
    assert np.array_equal(op.matvec(u), per_scenario)
    with pytest.raises(ValueError):
        solve_state(op, np.ones((scen.count + 1, g.n_interior)))


def test_constant_load_is_reproduced_exactly():
    # quadratic exact solution: the 3-point stencil has zero truncation error here
    g = Grid(50)
    op = assemble(g, np.ones(g.n_cells))
    u = solve_state(op, np.ones(g.n_interior))
    exact = 0.5 * g.nodes * (1.0 - g.nodes)
    assert np.max(np.abs(u - exact)) < 1e-13


def test_convergence_order_h2():
    # sinusoidal load so the truncation error is visible: -u'' = sin(pi s)
    errors, hs = [], []
    for n in (25, 50, 100, 200):
        g = Grid(n)
        op = assemble(g, np.ones(g.n_cells))
        u = solve_state(op, np.sin(np.pi * g.nodes))
        exact = np.sin(np.pi * g.nodes) / np.pi**2
        errors.append(np.max(np.abs(u - exact)))
        hs.append(g.h)
    slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    assert abs(slope - 2.0) <= 0.1


def test_stacked_right_hand_sides_solve_as_one_each():
    # leading axes before the operator's shape are dpttrs right-hand sides,
    # solved in place, each bit for bit as a solve of its own
    grid = Grid(15)
    op = assemble(grid, sample(ScenarioConfig(n_scenarios=4, seed=3), grid.n_cells).conductivities)
    rng = np.random.Generator(np.random.Philox(4))
    rhs = rng.standard_normal((6, 4, 15))
    out = np.empty(rhs.shape)
    assert solve_state(op, rhs, out=out) is out
    assert out.tobytes() == np.array([solve_state(op, r) for r in rhs]).tobytes()
    one = rng.standard_normal(15)  # one direction for every scenario, stacked as (m, 1, n)
    out = np.empty((3, 4, 15))
    solve_state(op, np.stack([one, 2.0 * one, -one])[:, None, :], out=out)
    assert out[0].tobytes() == solve_state(op, one).tobytes()


def _strided_matvec(op, u):
    # the product on the (..., n-1) strided views of the unpadded off-diagonal
    off = op.off[..., :-1]
    v = op.diag * u
    t = off * u[..., 1:]
    v[..., :-1] += t
    v[..., 1:] += off * u[..., :-1]
    return v


@pytest.mark.parametrize("n, conductivity_rows, stack", [
    (15, (), ()),  # one field
    (15, (4,), ()),  # a (K, n) stack
    (15, (4,), (3,)),  # a stack of (K, n) stacks
    (1, (4,), (2,)),  # one-node operators
    (1, (), ()),
])
def test_matvec_equals_the_strided_formula(n, conductivity_rows, stack):
    # the flat passes over the padded band give the strided product bit for bit
    g = Grid(n)
    rng = np.random.Generator(np.random.Philox(37))
    op = assemble(g, 0.2 + rng.uniform(0.0, 2.0, conductivity_rows + (g.n_cells,)))
    u = rng.standard_normal(stack + op.diag.shape)
    expected = _strided_matvec(op, u)
    assert op.matvec(u).tobytes() == expected.tobytes()
    one = u.reshape(-1, n)[0]  # one grid function for every stencil
    assert op.matvec(one).tobytes() == _strided_matvec(op, one).tobytes()


@pytest.mark.parametrize("shape", [(9,), (5, 9), (2, 3, 9), (4, 1)])
def test_off_diagonal_is_padded_to_the_diagonal_shape(shape):
    # node n has no right neighbour: the off-diagonal's last column is zero
    g = Grid(shape[-1])
    a = np.random.Generator(np.random.Philox(41)).uniform(0.5, 1.5, shape[:-1] + (g.n_cells,))
    op = assemble(g, a)
    assert op.off.shape == op.diag.shape == shape
    assert np.all(op.off[..., -1] == 0.0) and np.all(op.off[..., :-1] < 0.0)


def test_dense_matrix_is_the_block_diagonal_of_the_stencils():
    from scipy.linalg import block_diag

    g = Grid(6)
    a = np.random.Generator(np.random.Philox(43)).uniform(0.5, 1.5, (3, g.n_cells))
    blocks = []
    for row in a:  # each stencil entry by entry
        block = np.diag((row[:-1] + row[1:]) / g.h**2)
        block += np.diag(-row[1:-1] / g.h**2, 1) + np.diag(-row[1:-1] / g.h**2, -1)
        blocks.append(block)
    assert np.array_equal(dense_matrix(assemble(g, a)), block_diag(*blocks))
