"""Independent references for cross-checking the package.

``reference_minimize`` cross-checks ``riskpath.solver.minimize``: SciPy's
L-BFGS-B (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 16, 1995) on the same
penalized objective and gradient, with the control box as its bounds.
It shares only ``objective.evaluate`` with the solver it checks: its line
search, directions and stopping test are SciPy's. SciPy can report success on
its relative-reduction test far from the minimiser, so the result's own
certificate (``KktReport.certificate``, a bound on its distance to the exact
minimiser) must be at most CERTIFICATE_BOUND: 1e-5, the tolerance of the
control cross-checks, and about 9 times the largest certificate of a Tier-1
use (1.1e-6, gradient kind at gamma 100). ``dense_matrix`` is the
block-diagonal matrix of an operator's stencils, for dense linear algebra.

``limit_polish`` is the exact gamma = infinity reference for ``expectation`` with
the ``mixed`` bound: the limit problem is then a convex QP in the control, which
it solves on the active set of a nearby point (an active-set polish; Facchinei,
Fischer & Kanzow, SIAM J. Optim. 9, 1998). Feasibility and the sign of the
multipliers certify the result as the limit's minimiser.
"""

from typing import NamedTuple

import numpy as np
from scipy.optimize import Bounds
from scipy.optimize import minimize as scipy_minimize

from riskpath.cone import constraint_eval
from riskpath.grid import solve_state
from riskpath.kkt import check_limit_system
from riskpath.objective import evaluate

OPTIONS = {"ftol": 1e-15, "gtol": 1e-13, "maxcor": 20, "maxiter": 20000}
CERTIFICATE_BOUND = 1e-5


def reference_minimize(data, gamma):
    """Minimize j^gamma over the box from the zero control; asserts success and a
    certificate of at most CERTIFICATE_BOUND.

    Returns SciPy's result: ``x`` the control, ``fun`` j^gamma there and
    ``nit`` the iterations.
    """

    def value_and_gradient(x):
        bundle = evaluate(data, gamma, x)
        return bundle.j_gamma, bundle.gradient

    res = scipy_minimize(value_and_gradient, data.clamp(np.zeros(data.grid.n_interior)),
                         jac=True, method="L-BFGS-B", bounds=Bounds(data.lo, data.hi),
                         options=OPTIONS)
    assert res.success, res.message
    certificate = check_limit_system(evaluate(data, gamma, res.x)).certificate
    assert certificate <= CERTIFICATE_BOUND, f"certificate {certificate:.3e}: stopped short"
    return res


def dense_matrix(op):
    """The (block-diagonal) matrix of all of ``op``'s stencils, from its bands."""
    off = op.off.reshape(-1)[:-1]  # zero between blocks: the stencils stay uncoupled
    return np.diag(op.diag.reshape(-1)) + np.diag(off, 1) + np.diag(off, -1)


class LimitPolish(NamedTuple):
    x: np.ndarray  # the limit problem's minimiser x*
    lam: np.ndarray  # its multipliers, (K, n), paired as the penalty's gamma max(0, i)
    j: float  # j(x*), the unpenalized objective
    max_constraint: float  # the largest constraint value over all scenarios and nodes
    min_multiplier: float  # the smallest multiplier on the active set, scaled as lam


def limit_polish(data, x_hint) -> LimitPolish:
    """Minimise j over {i(x) <= 0 a.s.} with the constraints where i(x_hint) > 0 as equalities.

    For ``expectation`` and ``mixed``, j(x) = (mu/2)|x|_h^2 + E[(1/2)|S_k x - y_d|_h^2]
    with S_k = A_k^-1 from one stacked solve of the n unit vectors, and i_k = S_k x -
    eps x - psi_k. One least-squares solve of the equality-constrained KKT system gives
    x* and the Euclidean multipliers, which E[(lambda, i)_H] = sum_k w_k h lambda_k . i_k
    scales to the penalty's. A feasible x* with positive multipliers (and the box
    inactive) is the minimiser of the limit problem, the problem being convex.
    """
    assert data.risk.kind == "expectation" and data.constraint.kind == "mixed"
    grid, w, cmap = data.grid, data.scenarios.weights, data.constraint
    n, h = grid.n_interior, grid.mass
    unit = np.empty((n,) + data.operator.diag.shape)  # S_k e_j in unit[j, k]
    S = solve_state(data.operator, np.eye(n)[:, None, :], out=unit).transpose(1, 2, 0)
    hess = h * (data.mu_tik * np.eye(n) + np.einsum("k,kji,kjl->il", w, S, S))
    grad0 = -h * np.einsum("k,kji,j->i", w, S, data.y_d)  # the linear term, at x = 0
    rows = S - cmap.epsilon * np.eye(n)  # i_k(x) = rows_k x - psi_k, (K, n, n)
    active = constraint_eval(cmap, x_hint, solve_state(data.operator, x_hint)) > 0.0
    a, b = rows[active], cmap.bounds[active]
    kkt = np.block([[hess, a.T], [a, np.zeros((a.shape[0],) * 2)]])
    sol = np.linalg.lstsq(kkt, np.concatenate([-grad0, b]), rcond=None)[0]
    x, lam = sol[:n], np.zeros(active.shape)
    lam[active] = sol[n:]
    lam /= h * w[:, None]
    assert np.all((data.lo < x) & (x < data.hi)), "the box is active at the polished point"
    y = np.einsum("kij,j->ki", S, x) - data.y_d
    j = 0.5 * data.mu_tik * h * (x @ x) + 0.5 * h * float(w @ np.einsum("ki,ki->k", y, y))
    return LimitPolish(x, lam, j, float(np.max(rows @ x - cmap.bounds)), float(lam[active].min()))
