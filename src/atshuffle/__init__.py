"""Biased adjacent-transposition shuffle laboratory.

A numpy/scipy toolkit for the adjacent-transposition chain on permutations
with pairwise ordering biases: exact stationary computations at enumerable
sizes, a band transfer-matrix engine for localized instances, the dominating
exclusion-process couplings, heat-bath block dynamics, and a set of scripted
desk-scale experiments with recorded verdicts.
"""

__version__ = "0.1.0"

from .perms import (BiasMatrix, BoundaryAssignment, LocalizationVector,
                    Permutation, apply_adjacent_transposition,
                    disconnecting_positions, embed, instance_fingerprint,
                    is_disconnecting, is_localized, max_displacement,
                    max_localized_state, random_admissible_localization,
                    relabel_map, restrict_instance)
from .measure import (DistributionTable, TransitionMatrix,
                      build_transition_matrix, check_detailed_balance,
                      enumerate_stationary, exact_mixing_time, log_weight,
                      spectral_gap, tv_distance)
from .banddp import (BandDP, band_dp_conditional_marginal, band_dp_partition,
                     band_dp_sample, exact_localized_sampler,
                     heat_bath_block_sample)
from .chains import (AsepState, BlockSchedule, DrawStream, UpdateDraw,
                     asep_rightmost_tail, asep_stationary, asep_step, at_step,
                     block_step, coupled_asep_step, coupled_domination_step,
                     derive_rng, eta_projection, exact_block_kernel,
                     left_order_leq, restricted_at_step,
                     twin_chain_coupling_run)
from .errors import CapExceeded, ContractError, EmptySupport, NotReversible
