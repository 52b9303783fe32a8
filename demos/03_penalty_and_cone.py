"""Quadratic penalty for the nonnegativity cone and its multiplier.

The penalty is the squared distance from the cone, scaled by gamma/2. Its
gradient gives the running multiplier gamma * max(0, i), which is exactly the
quantity that converges to the constraint multiplier as gamma grows; penalty()
returns it beside the value.
"""

import numpy as np

from riskpath import ConeSpec, penalty, project

cone = ConeSpec(weight=0.125)

k = np.array([-1.0, 0.0, 0.5, 2.0, -0.3])
p = project(k)
print(f"k         = {k}")
print(f"project k = {p}")
print(f"(p, k - p)_H = {cone.inner(p, k - p):.3e}  (orthogonality at the projection)")

# constraint value i > 0 means violation; penalty grows linearly in gamma
i = np.array([-0.2, 0.1, 0.4, -1.0, 0.05])
print(f"\nconstraint values i = {i}")
print(f"{'gamma':>10} {'penalty':>12} {'max multiplier':>16}")
for gamma in (1.0, 10.0, 100.0, 1000.0):
    pv = penalty(cone, gamma, i)
    print(f"{gamma:>10.0f} {pv.value:>12.6f} {np.max(pv.multiplier):>16.3f}")

# the multiplier is the penalty gradient: central-difference check
rng = np.random.Generator(np.random.Philox(1))
gamma = 25.0
i = rng.standard_normal(5)
lam = penalty(cone, gamma, i).multiplier
d = rng.standard_normal(5)
eps = 1e-6
fd = (penalty(cone, gamma, i + eps * d).value - penalty(cone, gamma, i - eps * d).value) / (2 * eps)
print(f"\nFD check of the multiplier: |fd - (lam, d)_H| = {abs(fd - cone.inner(lam, d)):.3e}")
