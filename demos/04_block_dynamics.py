#!/usr/bin/env python3
"""Heat-bath block dynamics and the spectral decomposition inequality.

Every block is a position interval.  The two-block west/east schedule
drives the multiscale analysis, and the single-block schedule, which
resamples the whole line, is its degenerate case: the gap of the full chain
is lower-bounded by the block gap times the worst within-block gap, and twin
block chains from extreme starts coalesce in a handful of steps.
"""

import numpy as np

from atshuffle import (BiasMatrix, BlockSchedule, LocalizationVector,
                       Permutation, block_step, enumerate_stationary,
                       exact_block_kernel, is_localized, max_localized_state,
                       spectral_gap, twin_chain_coupling_run)
from atshuffle.experiments import block_chain_mixing, block_decomposition_check

# Schedules: the two west/east intervals overlap in the middle third, so
# they cover every position twice at most (chi = 2); the single block covers
# each position once (chi = 1).
ws = BlockSchedule.west_east(12)
single_12 = BlockSchedule.single(12)
print(f"west/east blocks at n=12: {ws.blocks()}, chi = {ws.chi()}")
print(f"single block at n=12: {single_12.blocks()}, chi = {single_12.chi()}")

# The decomposition inequality, exactly, at n = 5.
rng = np.random.default_rng(21)
p = BiasMatrix.random_biased(5, 0.5, rng)
ell = LocalizationVector.constant(5, 2)
res = block_decomposition_check(5, p, ell, BlockSchedule.west_east(5))
d = res.verdict.details
print(f"gap(AT) = {d['gap_at']:.4f} >= (1/chi) * gap(block) * min gap(sub) = "
      f"{d['gap_block']:.4f} * {d['min_sub_gap']:.4f} / {d['chi']} "
      f"(slack {d['slack']:.4f})")

# A degenerate single-block schedule resamples everything: the block kernel
# is rank one, its gap is 1, and the inequality is tight.
single = block_decomposition_check(5, p, ell, BlockSchedule.single(5))
print(f"single block: gap(block) = {single.verdict.details['gap_block']:.6f}, "
      f"slack = {single.verdict.details['slack']:.2e}")

# Running the dynamics: each step resamples a chosen block exactly from the
# conditional law; the restricted stationary law is preserved.
sigma = Permutation.identity(5)
for _ in range(20):
    sigma = block_step(sigma, BlockSchedule.west_east(5), p, ell,
                       np.random.default_rng(1))
    assert is_localized(sigma, ell)
print(f"20 block steps from the identity end at {sigma.to_tuple()}")

# Twin block chains from extreme localized starts share their block choices
# and per-step randomness; they meet within a few updates.
n = 120
p_big = BiasMatrix.constant(n, 0.75)
ell_big = LocalizationVector.constant(n, 8)
top = max_localized_state(ell_big)
t, _ = twin_chain_coupling_run(Permutation.identity(n), top, p_big, ell_big,
                               T=50, seed=5, driver="block",
                               schedule=BlockSchedule.west_east(n))
print(f"twin west/east chains at n={n}, window 8: coalesced after {t} steps")

# The ensemble version with the verdict used by the acceptance suite.
res = block_chain_mixing(n, p_big, ell_big, BlockSchedule.west_east(n),
                         replicas=40, step_cap=50, seed=6)
print(f"40 paired runs: fraction within 50 steps = "
      f"{res.verdict.details['fraction']:.2f}, median = "
      f"{res.meta['median_time']}")
