#!/usr/bin/env python3
"""Quadratic mixing, the particle-1 lower bound, burn-in, and spatial decay.

Scaled-down versions of the headline experiments: coalescence times of the
sandwich coupling grow like n^2, particle 1 cannot reach the far left much
before n^2 steps, the chain localizes to a logarithmic band after burn-in,
and boundary influence decays exponentially inside the localized set.
"""

from atshuffle import BiasMatrix, BoundaryAssignment, LocalizationVector
from atshuffle.experiments import (burn_in_profile, localization_tail_check,
                                   lower_bound_experiment, mixing_scaling,
                                   spatial_decay_curve)

# Sandwich-coupling coalescence times at q = 0.75 across a dyadic grid.
res = mixing_scaling([32, 64, 128], {"kind": "constant-q", "q": 0.75},
                     method="coupling", budget=8, seed=1,
                     slope_window=(1.5, 2.5))
for pt in res.series:
    print(f"  n={int(pt.x):4d}: mean coalescence {pt.estimate:9.0f} "
          f"+- {pt.stderr:.0f}")
print(f"log-log slope = {res.verdict.details['slope']:.3f} "
      f"(R^2 = {res.verdict.details['r2']:.4f})")

# Exact small-n reference mixing times.
exact = mixing_scaling([3, 4, 5, 6], {"kind": "constant-q", "q": 0.75},
                       method="exact", delta=0.25)
print("exact T_mix(1/4) table:",
      {int(pt.x): int(pt.estimate) for pt in exact.series})

# The lower-bound test statistic: from the reversal start, particle 1 has
# essentially no chance to be near the left end at half of n^2 steps, while
# the stationary law keeps it there almost surely.
n = 128
p = BiasMatrix.constant(n, 0.75)
lb = lower_bound_experiment(n, p, eta=0.5, replicas=200, seed=2)
d = lb.verdict.details
print(f"n={n}: P(pos(1) <= sqrt n at t = n^2/2) = {d['estimate']:.4f}, "
      f"stationary >= {d['stationary_certified']:.6f} (certified)")

# Burn-in: the 99th-percentile max displacement at t = 8 n^2 sits at the
# logarithmic scale regardless of the start.
bp = burn_in_profile(n, p, "reversal", replicas=60, seed=3)
print(f"burn-in at n={n}: q99 displacement = "
      f"{bp.verdict.details['final_quantile']:.1f} vs threshold "
      f"{bp.verdict.details['threshold']:.1f}")

# Stationary displacement tails decay at least geometrically.
tails = localization_tail_check(100, BiasMatrix.constant(100, 0.75),
                                LocalizationVector.constant(100, 10),
                                samples=20000, seed=4, mode="sampled")
print(f"displacement tail slope = {tails.verdict.details['slope']:.3f} "
      f"(target <= {tails.verdict.details['target']:.3f})")

# Spatial decay of boundary influence: two different pins at position 1,
# exact TV of the conditional laws beyond distance r.
n, l = 60, 3
ell = LocalizationVector.constant(n, l)
eta = BoundaryAssignment(n, (1,), ())
eta_bar = BoundaryAssignment(n, (1 + l,), ())
sp = spatial_decay_curve(BiasMatrix.constant(n, 0.75), ell, eta, eta_bar,
                         list(range(l, 12 * l + 1, 3)), mode="exact")
print("exact conditional TV vs distance:")
for pt in sp.series[:5]:
    print(f"  r={int(pt.x):2d}: TV = {pt.estimate:.3e}")
print(f"  ... r={int(sp.series[-1].x)}: TV = {sp.series[-1].estimate:.3e}; "
      f"slope {sp.verdict.details['slope']:.3f}, "
      f"R^2 {sp.verdict.details['r2']:.3f}")
