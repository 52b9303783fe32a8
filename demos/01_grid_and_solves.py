"""Assemble the 1-D diffusion operator and check the solver against analytics.

The operator is the standard 3-point stencil for -(a u')' on (0,1) with
homogeneous Dirichlet ends; conductivity lives on cell midpoints. For a = 1
and unit load the exact solution is the parabola s(1-s)/2, which the stencil
reproduces to rounding. A sinusoidal load makes the O(h^2) truncation error
visible.
"""

import numpy as np

from riskpath import Grid, assemble, solve_state

g = Grid(99)
op = assemble(g, np.ones(g.n_cells))

u = solve_state(op, np.ones(g.n_interior))
exact = 0.5 * g.nodes * (1.0 - g.nodes)
print(f"unit load, n={g.n_interior}: max |u - exact| = {np.max(np.abs(u - exact)):.3e}")

print("\nsin(pi s) load, refinement study:")
print(f"{'n':>6} {'h':>12} {'max error':>14}")
prev = None
for n in (25, 50, 100, 200, 400):
    gg = Grid(n)
    opn = assemble(gg, np.ones(gg.n_cells))
    un = solve_state(opn, np.sin(np.pi * gg.nodes))
    err = np.max(np.abs(un - np.sin(np.pi * gg.nodes) / np.pi**2))
    rate = "" if prev is None else f"  rate {np.log2(prev / err):.2f}"
    print(f"{n:>6} {gg.h:>12.5f} {err:>14.3e}{rate}")
    prev = err

# the solve is self-adjoint in the lumped-mass inner product
rng = np.random.Generator(np.random.Philox(0))
a = 0.3 + rng.uniform(0.0, 1.5, g.n_cells)
op = assemble(g, a)
r, q = rng.standard_normal(g.n_interior), rng.standard_normal(g.n_interior)
lhs = g.inner(solve_state(op, r), q)
rhs = g.inner(r, solve_state(op, q))
print(f"\nself-adjointness: |(S r, q)_h - (r, S q)_h| = {abs(lhs - rhs):.3e}")
