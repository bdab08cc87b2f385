#!/usr/bin/env python3
"""The band transfer-matrix engine for localized instances.

When every particle is confined to a displacement window, the stationary
law factorizes along the line and a DP over window occupancy words gives
exact partition functions, exact samples, and exact conditional marginals
at sizes far beyond enumeration.
"""

import math
import time

import numpy as np

from atshuffle import (BandDP, BiasMatrix, BoundaryAssignment,
                       LocalizationVector, band_dp_conditional_marginal,
                       band_dp_partition, band_dp_sample, enumerate_stationary,
                       exact_localized_sampler, heat_bath_block_sample,
                       max_displacement, Permutation, is_localized)

rng = np.random.default_rng(11)

# Agreement with brute force at an enumerable size.
n = 7
p = BiasMatrix.random_biased(n, 0.5, rng)
ell = LocalizationVector.constant(n, 2)
mu = enumerate_stationary(n, p, ell)
logz = band_dp_partition(p, ell)
print(f"n={n}: band DP logZ = {logz:.12f}, enumeration logZ = {mu.logZ:.12f}, "
      f"difference {abs(logz - mu.logZ):.2e}")

# The same engine at n = 200 with window 6: far beyond enumeration.
n = 200
p200 = BiasMatrix.constant(n, 0.75)
ell200 = LocalizationVector.constant(n, 6)
t0 = time.time()
logz200 = band_dp_partition(p200, ell200)
print(f"n={n}, window 6: restricted logZ = {logz200:.3f} "
      f"({time.time() - t0:.2f}s)")

# Exact sampling: every draw is localized, and a seed pins the draw.
sigma = band_dp_sample(p200, ell200, np.random.default_rng(3))
print(f"one exact draw: localized = {is_localized(sigma, ell200)}, "
      f"max displacement = {max_displacement(sigma.forward[None])[0]}")
again = band_dp_sample(p200, ell200, np.random.default_rng(3))
print(f"same seed reproduces the draw: {sigma.to_tuple() == again.to_tuple()}")

# Conditional marginals: pin a boundary and ask for the law of a region.
n = 8
p8 = BiasMatrix.constant(n, 0.7)
ell8 = LocalizationVector.constant(n, 2)
bnd = BoundaryAssignment(n, (2,), ())  # particle 2 pinned to position 1
marg = band_dp_conditional_marginal(p8, ell8, bnd, (2, 3))
print("law of positions (2,3) given the pin:")
for state, prob in sorted(zip(map(tuple, marg.support.tolist()), marg.probs),
                          key=lambda x: -x[1])[:4]:
    print(f"  {state}: {prob:.4f}")

# Heat-bath block resampling: replace an interval by an exact conditional
# draw; the complement never moves.
start = band_dp_sample(p200, ell200, np.random.default_rng(5))
out = heat_bath_block_sample(start, (50, 150), p200, ell200,
                             np.random.default_rng(6))
same_outside = all(out.at(i) == start.at(i)
                   for i in list(range(1, 50)) + list(range(151, 201)))
print(f"block resample keeps the complement fixed: {same_outside}; "
      f"stays localized: {is_localized(out, ell200)}")

# The sampler dispatcher: constant-bias instances with wide windows switch
# to insertion sampling with rejection, which scales past the DP cap.
wide = LocalizationVector.constant(300, 12)
sampler = exact_localized_sampler(BiasMatrix.constant(300, 0.75), wide)
print(f"n=300, window 12 sampler strategy: {sampler.strategy}")
rows = sampler.draw_rows(np.random.default_rng(8), 1000)
disp = np.abs(np.argsort(rows, axis=1) + 1 - np.arange(1, 301))
print(f"1000 draws, max |displacement| over everything: {disp.max()}")
