"""Biased adjacent-transposition shuffle laboratory.

A numpy/scipy toolkit for the adjacent-transposition chain on permutations
with pairwise ordering biases: exact stationary computations at enumerable
sizes, a band transfer-matrix engine for localized instances, the dominating
exclusion-process couplings, heat-bath block dynamics, and a set of scripted
desk-scale experiments with recorded verdicts.
"""

__version__ = "0.1.0"

from .perms import (BiasMatrix, BoundaryAssignment, LocalizationVector,
                    Permutation, instance_fingerprint, is_localized,
                    max_displacement, max_localized_state, relabel_map,
                    restrict_instance)
from .measure import (DistributionTable, TransitionMatrix,
                      build_transition_matrix, check_detailed_balance,
                      enumerate_stationary, exact_mixing_time, log_weight,
                      spectral_gap, tv_distance)
from .banddp import (BandDP, band_dp_conditional_marginal, band_dp_partition,
                     band_dp_sample, exact_localized_sampler,
                     heat_bath_block_sample)
from .chains import (BlockSchedule, asep_rightmost_tail, asep_stationary,
                     block_step, derive_rng, exact_block_kernel,
                     twin_chain_coupling_run)
from .errors import CapExceeded, ContractError, EmptySupport, NotReversible
