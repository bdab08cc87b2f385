#!/usr/bin/env python3
"""Exact stationary computations at enumerable sizes.

Walks through the basic objects: a bias matrix, the Gibbs-type stationary
law over permutations, the one-step kernel with detailed balance, the
spectral gap, and the exact worst-case total-variation mixing curve.
"""

import math

import numpy as np

from atshuffle import (BiasMatrix, LocalizationVector, Permutation,
                       build_transition_matrix, enumerate_stationary,
                       exact_mixing_time, log_weight, spectral_gap,
                       tv_distance)

# A constant-bias instance: every pair prefers sorted order with q = 0.6,
# so the bias ratio is q/(1-q) = 1.5 and epsilon = 0.5.
n = 3
p = BiasMatrix.constant(n, 0.6)
print(f"n = {n}, constant q = 0.6, epsilon = {p.epsilon:.3f}")

# Stationary weights multiply p[a][b] over all ordered position pairs.
for perm in ((1, 2, 3), (2, 1, 3), (3, 2, 1)):
    w = math.exp(log_weight(Permutation(perm), p))
    print(f"  weight{perm} = {w:.4f}")

mu = enumerate_stationary(n, p)
print(f"partition function Z = {math.exp(mu.logZ):.4f}  (0.216 + 2*0.144 + 2*0.096 + 0.064)")
print(f"mu(identity) = {mu.prob_of((1, 2, 3)):.6f}")

# The kernel picks a uniform edge and orders the pair by the bias; it is
# reversible for mu, which build_transition_matrix verifies on the spot.
P = build_transition_matrix(p, mu)
print(f"kernel is reversible: {P.reversible}; spectral gap = "
      f"{spectral_gap(P, mu):.6f}")

# Exact mixing time: propagate every initial row and track worst-case TV.
t_mix, curve = exact_mixing_time(P, mu, 0.25)
print(f"T_mix(1/4) = {t_mix}; worst-case TV curve head: "
      + ", ".join(f"{v:.3f}" for v in curve[:6]))

# Conditioning on a localization window shrinks the support; with window 0
# the identity is the only state left.
frozen = enumerate_stationary(n, p, LocalizationVector.constant(n, 0))
print(f"window-0 support: {frozen.support.tolist()} with probability {frozen.probs[0]}")

# A random epsilon-biased instance with a random admissible window.
rng = np.random.default_rng(7)
p6 = BiasMatrix.random_biased(6, 0.5, rng)
ell6 = LocalizationVector.constant(6, 2)
mu6 = enumerate_stationary(6, p6, ell6)
P6 = build_transition_matrix(p6, mu6)
print(f"n=6 random instance restricted to window 2: {len(mu6)} states, "
      f"gap = {spectral_gap(P6, mu6):.4f}")

# TV between a point mass and the stationary law.
point = enumerate_stationary(2, BiasMatrix.constant(2, 0.6))
from atshuffle.measure import DistributionTable
pm = DistributionTable([(2, 1)], np.array([1.0]), 0.0)
print(f"TV(point mass on (2,1), mu) = {tv_distance(pm, point):.2f}")
