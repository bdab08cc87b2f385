#!/usr/bin/env python3
"""The exclusion process and the couplings that dominate the shuffle.

The k-particle projection of the permutation chain is not Markov for general
biases, but on shared randomness it stays to the left of an exclusion
process with q/(1-q) = 1 + epsilon.  This script shows the stationary law of
that process, its right-most-particle tail, the meeting time of the monotone
top/bottom coupling, and the audited long runs of both couplings.
"""

import math

import numpy as np

from atshuffle import BiasMatrix, asep_rightmost_tail, asep_stationary
from atshuffle.chains import (asep_monotone_audit_run, asep_pair_coalescence,
                              domination_audit_run)

# Stationary law for 1 particle on 3 sites at q = 0.75: mass ratios 9:3:1.
nu = asep_stationary(3, 1, 0.75)
for state in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
    print(f"  nu{state} = {nu.prob_of(state):.4f}")

# Exact right-most particle tail via restricted partition-function ratios,
# against the exp(-eps' r / 4) envelope.
n, k, q = 40, 10, 0.75
eps_p = min(q / (1 - q) - 1, 1.0)
print(f"rightmost-particle tail at n={n}, k={k}, q={q}:")
for r in (4, 8, 12, 16, 20, 24):
    tail = asep_rightmost_tail(n, k, q, r)
    print(f"  r={r:2d}: P = {tail:.3e}  envelope exp(-eps' r/4) = "
          f"{math.exp(-eps_p * r / 4):.3e}")

# The monotone coupling: the right- and left-packed states, advanced on one
# shared edge and uniform per step, stay ordered until they meet; the tail of
# the meeting time bounds the distance to stationarity (the coupling
# inequality), and the time grows like n^2.
for n in (16, 32):
    times = [asep_pair_coalescence(n, n // 2, 0.75, seed, 40 * n * n)
             for seed in range(8)]
    print(f"top/bottom meeting time at n={n}, k={n // 2}: mean "
          f"{np.mean(times):.0f} steps, {np.mean(times) / n ** 2:.2f} n^2")

# The audited long runs used by the acceptance suite, shortened here: the
# order of the monotone pair, and the domination of the shuffle's
# projections by a family of exclusion processes on one draw stream, are
# checked after every step.
rec = asep_monotone_audit_run(60, 30, 0.75, steps=50000, seed=2)
print(f"monotone audit, 50k steps at n=60: {rec['violations']} violations")
rec = domination_audit_run(60, BiasMatrix.constant(60, 0.75), 0.75,
                           ks=[1, 4, 16, 59], steps=50000, seed=3)
print(f"domination audit, 50k steps at n=60: {rec['violations']} violations")
