"""Independent references for cross-checking the package.

``reference_minimize`` cross-checks ``riskpath.solver.minimize``: SciPy's
L-BFGS-B (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 16, 1995) on the same
penalized objective and gradient, with the control box as its bounds.
It shares only ``objective.evaluate`` with the solver it checks: its line
search, directions and stopping test are SciPy's. ``dense_matrix`` is the
block-diagonal matrix of an operator's stencils, for dense linear algebra.
"""

import numpy as np
from scipy.optimize import Bounds
from scipy.optimize import minimize as scipy_minimize

from riskpath.objective import evaluate

OPTIONS = {"ftol": 1e-15, "gtol": 1e-13, "maxcor": 20, "maxiter": 20000}


def reference_minimize(data, gamma):
    """Minimize j^gamma over the box from the zero control; asserts success.

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
    return res


def dense_matrix(op):
    """The (block-diagonal) matrix of all of ``op``'s stencils, from its bands."""
    off = op.off.reshape(-1)[:-1]  # zero between blocks: the stencils stay uncoupled
    return np.diag(op.diag.reshape(-1)) + np.diag(off, 1) + np.diag(off, -1)
