"""Uniform 1-D grid and the elliptic operator -(a u')' with Dirichlet boundaries.

The discrete L2 product is the lumped (h-weighted) dot product, so pointwise
operations (clipping, projections) are exactly orthogonal in it. This module
gives it as inner_h and norm_h, and its unweighted row sum as dot_last. The
cone, the objective, the solver and the KKT report form their own h-weighted
sums (dot_last, np.dot or a plain sum, times h or the cone's weight).

Scenario data is stacked: K conductivity fields form one (K, n_cells) array,
their stencils one block-diagonal operator, and K grid functions one (K, n)
array. Every function here acts on the last axis, so an unstacked (n,) grid
function is the K-less case of the same code. Both bands of the operator take
the shape of such a stack, so their flat views are the bands of the stacked SPD
tridiagonal matrix, factored once as L D L^T by LAPACK's dpttrf and solved by
dpttrs (Anderson et al., LAPACK Users' Guide, SIAM 1999).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs


class EllipticityError(ValueError):
    """Conductivity violates uniform ellipticity (some entry <= 0, or a stencil not finite)."""


class DivergedError(RuntimeError):
    """Objective or gradient non-finite at the start point, objective along a line
    search, or a state, adjoint or Hessian solve non-finite anywhere in the solve."""


@dataclass(frozen=True)
class Grid:
    """Interior nodes of a uniform mesh on (0, 1); boundary values are eliminated."""

    n_interior: int

    def __post_init__(self):
        if self.n_interior < 1:
            raise ValueError("n_interior must be a positive integer")

    @cached_property  # read on every kernel call; a frozen instance computes it once
    def h(self) -> float:
        return 1.0 / (self.n_interior + 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(1, self.n_interior + 1) * self.h

    @property
    def n_cells(self) -> int:
        # cells between consecutive nodes, boundary cells included
        return self.n_interior + 1

    @property
    def cell_midpoints(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.h


@dataclass(frozen=True, eq=False)
class EllipticOperator:
    """Assembled tridiagonal stencils for -(a u')', one per conductivity row, SPD.

    ``diag``/``off`` store the bands of each stencil, both of shape (..., n); each
    matrix is symmetric, and ``off[..., -1]`` is zero, as node n has no right
    neighbour. Flat, they are the bands of the block-diagonal matrix of all
    stencils, whose L D L^T factor (dpttrf's d, e) is cached at assembly, so a
    solve for every scenario is one forward and one backward sweep.
    """

    diag: np.ndarray
    off: np.ndarray
    _ldl: tuple = field(repr=False, default=None)

    def matvec(self, u: np.ndarray, out=None) -> np.ndarray:
        """The product with every stencil, in a C-contiguous ``out``, on the flat views of
        a stack of ``diag``'s shape (``u`` broadcasts to it): a term across two blocks is 0 * u."""
        if out is not None and not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        v = np.multiply(self.diag, u, out=out)
        e = self.off.reshape(-1)[:-1]
        u = np.broadcast_to(u, v.shape).reshape(-1, self.diag.size)
        w = v.reshape(u.shape)
        t = np.multiply(e, u[:, 1:])
        w[:, :-1] += t
        w[:, 1:] += np.multiply(e, u[:, :-1], out=t)
        return v


def assemble(grid: Grid, conductivity: np.ndarray) -> EllipticOperator:
    """Assemble the 3-point stencils with cell-midpoint conductivity.

    ``conductivity`` is one field of length n_cells or a stack (K, n_cells).
    Row j carries (a_{j-1/2} + a_{j+1/2})/h^2 on the diagonal and
    -a_{j+-1/2}/h^2 off-diagonal.
    """
    a = np.asarray(conductivity, dtype=float)
    if a.shape[-1:] != (grid.n_cells,):
        raise ValueError(
            f"conductivity must have length {grid.n_cells}, got {a.shape}"
        )
    if np.any(a <= 0.0):
        raise EllipticityError("conductivity must be strictly positive on every cell")
    h2 = grid.h**2
    off = np.zeros(a.shape[:-1] + (grid.n_interior,))  # node n has no right neighbour
    with np.errstate(over="ignore"):  # an overflow is reported below
        diag = (a[..., :-1] + a[..., 1:]) / h2
        off[..., :-1] = -a[..., 1:-1] / h2
    if not np.all(np.isfinite(diag)):  # then each off-diagonal entry is finite too
        raise EllipticityError("stencil is not finite: conductivity / h^2 must be finite")
    e = off.reshape(-1)[:-1]
    # f2py's dpttrf rejects an empty off-diagonal; one node has nothing to couple
    d_ldl, e_ldl, info = dpttrf(diag.reshape(-1), e if e.size else np.zeros(1))
    if info != 0:  # pragma: no cover - SPD by construction
        raise EllipticityError(f"stencil is not positive definite (dpttrf info={info})")
    return EllipticOperator(diag=diag, off=off, _ldl=(d_ldl, e_ldl))


def solve_state(op: EllipticOperator, rhs: np.ndarray, out: np.ndarray | None = None,
                check: bool = True) -> np.ndarray:
    """Solve op . u = rhs for every stencil by the cached direct factorization.

    ``rhs`` has the shape of ``op.diag`` or broadcasts to it (one (n,)
    right-hand side for every scenario). It is copied into ``out`` (a new array
    when None; else a C-contiguous float array of that shape, or ``rhs`` itself
    to solve in place), and dpttrs overwrites ``out`` with the solution. An
    ``out`` with leading axes before the shape of ``op.diag`` holds a stack of
    such systems, which dpttrs solves as that many right-hand sides, each one
    bit for bit as alone. A non-finite solution raises, unless ``check`` is
    False: for a caller whose next checked solve carries every non-finite entry
    of this one.
    """
    if out is None:
        out = np.empty(op.diag.shape)
    elif not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    if out is not rhs:
        out[...] = rhs
    # views, as out is C-contiguous: one column, or an F-contiguous (N, stack) array
    b = out.ravel() if out.ndim == op.diag.ndim else out.reshape(-1, op.diag.size).T
    u, info = dpttrs(*op._ldl, b, overwrite_b=1)
    if info != 0 or check and not np.isfinite(u).all():
        raise DivergedError(f"non-finite solution from tridiagonal solve (info {info})")
    return out


def dot_last(u: np.ndarray, v: np.ndarray):
    """sum_j u_j v_j over the last axis, one value per leading index.

    Each row is summed by the BLAS dot product, as np.dot sums one row.
    """
    return np.matmul(u[..., None, :], v[..., :, None])[..., 0, 0]


def inner_h(grid: Grid, u: np.ndarray, v: np.ndarray):
    """Lumped-mass L2 inner product sum_j h u_j v_j (per row for stacked input)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.shape[-1:] != (grid.n_interior,):
        raise ValueError("inner_h requires two grid functions of matching length")
    return grid.h * dot_last(u, v)


def norm_h(grid: Grid, u: np.ndarray):
    return np.sqrt(np.maximum(inner_h(grid, u, u), 0.0))
