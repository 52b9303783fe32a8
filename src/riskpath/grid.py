"""Uniform 1-D grid, its lumped mass, and the elliptic operator -(a u')' with Dirichlet boundaries.

The grid owns the lumped mass matrix M = mass I (mass = h per node and per
cell) and every use of it: the discrete L2 product, exactly orthogonal for
pointwise operations (clipping, projections), its norm, the Riesz map M^-1 g,
the integral and the cells' difference quotient. No other module reads the
spacing h. Each sum over the nodes is a BLAS dot product (np.dot; dot_last per row).

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

    @cached_property
    def mass(self) -> float:
        """The lumped mass of every node and cell: M = mass I."""
        return self.h

    @property
    def shape(self) -> tuple[int]:
        """The shape of one grid function."""
        return (self.n_interior,)

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

    def _sums(self, u: np.ndarray, v: np.ndarray):
        """sum_j u_j v_j, one value per row of a stack of grid functions."""
        if u.shape != v.shape or u.shape[-1:] != self.shape:
            raise ValueError("inner requires two grid functions of matching shape")
        return np.dot(u, v) if u.ndim == 1 else dot_last(u, v)  # same sum, less cost

    def inner(self, u: np.ndarray, v: np.ndarray):
        """The lumped-mass L2 product sum_j mass u_j v_j, one value per row of a stack."""
        return self.mass * self._sums(u, v)

    def norm(self, u: np.ndarray):
        """sqrt(inner(u, u)), one value per row of a stack."""
        return np.sqrt(self.inner(u, u))  # a sum of squares is >= 0, or NaN

    def max_norm(self, u: np.ndarray):
        """The largest row norm of a stack, norm(u).max() bit for bit: scaling by mass > 0
        and the correctly rounded sqrt are monotone, so one of each after the max will do."""
        return np.sqrt(self.mass * self._sums(u, u).max())

    def riesz(self, g: np.ndarray) -> np.ndarray:
        """M^-1 g: the grid function whose inner product with v is the pairing g . v."""
        return g / self.mass

    def integral(self, u: np.ndarray, out=None) -> np.ndarray:
        """mass sum_j u_j, in ``out``: a column (..., 1), one entry per row of a stack."""
        return np.multiply(self.mass, np.sum(u, axis=-1, keepdims=True), out=out)

    def cell_gradient(self, u: np.ndarray, out=None) -> np.ndarray:
        """Difference quotients over every cell (u = 0 beyond both ends), in a C-contiguous out."""
        if out is None:
            out = np.empty(u.shape[:-1] + (self.n_cells,))
        elif not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        out[..., 0] = 0.0
        out[..., 1:] = u
        flat = out.reshape(-1)  # in place, with no copy: a row's leading 0 ends the row before
        np.subtract(flat[1:], flat[:-1], out=flat[:-1])
        np.subtract(0.0, u[..., -1], out=out[..., -1])  # the last cells, the last row's too
        out /= self.h
        return out


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
        if u.shape != v.shape:
            u = np.broadcast_to(u, v.shape)
        u = u.reshape(-1, self.diag.size)
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
