"""Drive the penalty strength through six decades and watch the limit emerge.

Each path point warm-starts from the previous one and is printed as soon as
it is solved. The squared violation decays roughly like 1/gamma^2, the
penalized objective increases monotonically toward the constrained value, and
the multiplier mass stays bounded, which is exactly the finite-dimensional
picture of penalty-path convergence.
"""

from riskpath.config import build_problem, resolve
from riskpath.path import decade_schedule, fit_decay_slope, run_path
from riskpath.solver import SolveOptions

cfg = resolve({"problem": {"n_interior": 63}})
data = build_problem(cfg)

print(f"{'gamma':>10} {'j_gamma':>12} {'max viol':>11} {'sq viol':>11} "
      f"{'mult L1':>10} {'iters':>6}")
records = []
# run_path yields each point as it is solved; only its record is kept here
for step in run_path(data, decade_schedule(0, 6), SolveOptions(tol_stationarity=1e-8)):
    r = step.record
    records.append(r)
    print(f"{r.gamma:>10.0f} {r.j_gamma:>12.6f} {r.max_violation:>11.3e} "
          f"{r.sq_violation:>11.3e} {r.multiplier_l1:>10.4f} {r.iterations:>6}", flush=True)

slope, r2 = fit_decay_slope(records, "sq_violation")
print(f"\nsq_violation decay: slope {slope:.3f} (r^2 = {r2:.4f})")
print(f"complementarity at the last point: {records[-1].complementarity:.3e}")
print(f"all solves converged: {all(r.converged for r in records)}")
