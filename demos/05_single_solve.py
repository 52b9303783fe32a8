"""Solve the penalized control problem at one fixed penalty strength.

A deterministic heat source drives 16 random elliptic states toward a target
profile. The almost-sure upper bound on the states is enforced by the
quadratic penalty at gamma = 100; the KKT report shows how far the solution
still is from the exactly-constrained optimality system. Every per-scenario
quantity of the evaluation is a stacked array, one row per scenario.
"""

import numpy as np

from riskpath.config import build_problem, resolve
from riskpath.kkt import check_limit_system
from riskpath.objective import unpenalized_objective
from riskpath.solver import SolveOptions, minimize

cfg = resolve({"problem": {"n_interior": 63}})
data = build_problem(cfg)

result = minimize(data, gamma=100.0, opts=SolveOptions(tol_stationarity=1e-8))
j, feasible, max_violation = unpenalized_objective(data, result.x1_opt)

print(f"converged={result.converged}  iterations={result.iterations}")
print(f"stationarity            {result.stationarity_norm:.3e}")
print(f"penalized objective     {result.bundle.j_gamma:.8f}")
print(f"unpenalized objective   {j:.8f}")
print(f"feasible                {feasible}  (max violation {max_violation:.3e})")

b = result.bundle
print(f"\nstates {b.states.shape}, multipliers {b.lambda_i.shape}, adjoints {b.lambda_e.shape}")
print(f"scenarios with an active constraint: {int(np.sum(np.any(b.lambda_i > 0.0, axis=1)))}"
      f" of {data.scenarios.count}")

report = check_limit_system(data, result.bundle)
print("\nKKT report (distance to the constrained system at gamma=100):")
for name, value in report.as_dict().items():
    print(f"  {name:<28} {value:.6e}")
