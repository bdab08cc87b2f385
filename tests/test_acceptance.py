"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is pinned
here; seeds are fixed so reruns reproduce the same numbers.
"""

import itertools
import math
import time

import numpy as np

from audit_oracle import left_of
from chain_oracle import (random_admissible_localization,
                          regression_instances)
from atshuffle.banddp import band_dp_conditional_marginal, band_dp_partition
from atshuffle.chains import (_asep_edge, _ordered_list_step,
                              asep_monotone_audit_run, domination_audit_run)
from atshuffle.experiments import (BlockSchedule, block_chain_mixing,
                                   block_decomposition_check,
                                   burn_in_scaling, disconnect_probability,
                                   localization_tail_check,
                                   lower_bound_experiment, mixing_scaling,
                                   spatial_decay_curve)
from atshuffle.measure import (build_transition_matrix, check_detailed_balance,
                               enumerate_stationary)
from atshuffle.perms import BiasMatrix, BoundaryAssignment, LocalizationVector

MASTER_SEED = 20240801


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_detailed_balance_regression_set():
    t0 = time.time()
    instances = regression_instances(seed=MASTER_SEED, count=120,
                                     ns=(3, 4, 5, 6))
    checked = 0
    for inst in instances:
        mu = enumerate_stationary(inst["n"], inst["p"], inst["ell"])
        P = build_transition_matrix(inst["p"], mu)
        check_detailed_balance(P, mu, rtol=1e-10)  # raises on violation
        checked += 1
    elapsed = time.time() - t0
    report("1 (detailed balance, 120 instances, rtol 1e-10)",
           checked == 120 and elapsed < 60.0,
           f"{checked} instances in {elapsed:.1f}s")


def test_criterion_2_band_dp_equals_brute_force():
    t0 = time.time()
    rng = np.random.default_rng(MASTER_SEED + 2)
    worst_logz = 0.0
    count = 0
    for n in (3, 4, 5, 6, 7, 8):
        for _ in range(17):
            eps = float(rng.choice([0.2, 0.5, 1.0]))
            p = BiasMatrix.random_biased(n, eps, rng)
            ell = random_admissible_localization(n, rng, max_ell=3)
            mu = enumerate_stationary(n, p, ell, cap=8)
            logz = band_dp_partition(p, ell)
            worst_logz = max(worst_logz, abs(logz - mu.logZ))
            count += 1
    # conditional marginals against enumeration conditionals
    worst_marg = 0.0
    mcount = 0
    for trial in range(20):
        n = int(rng.integers(4, 8))
        p = BiasMatrix.random_biased(n, 0.5, rng)
        ell = random_admissible_localization(n, rng, max_ell=3)
        mu = enumerate_stationary(n, p, ell)
        sigma0 = tuple(mu.support[int(rng.choice(len(mu), p=mu.probs))].tolist())
        i = int(rng.integers(1, 3))
        j = int(rng.integers(0, 2))
        if i + j >= n - 1:
            continue
        bnd = BoundaryAssignment(n, sigma0[:i],
                                 sigma0[n - j:] if j else ())
        a = i + 1
        b = min(n - j, a + int(rng.integers(0, 2)))
        marg = band_dp_conditional_marginal(p, ell, bnd, (a, b))
        pins = bnd.values()
        tot = {}
        Z = 0.0
        for s, pr in zip(mu.support.tolist(), mu.probs):
            if all(s[pos - 1] == v for pos, v in pins.items()):
                Z += pr
                key = tuple(s[x - 1] for x in range(a, b + 1))
                tot[key] = tot.get(key, 0.0) + pr
        marg_support = list(map(tuple, marg.support.tolist()))
        assert set(tot) == set(marg_support)
        for s, pr in zip(marg_support, marg.probs):
            worst_marg = max(worst_marg,
                             abs(math.log(pr) - math.log(tot[s] / Z)))
        mcount += 1
    elapsed = time.time() - t0
    report("2 (band DP == brute force, log scale 1e-9)",
           worst_logz <= 1e-9 and worst_marg <= 1e-9 and elapsed < 120.0,
           f"{count} partitions (worst {worst_logz:.2e}), {mcount} marginal "
           f"sets (worst {worst_marg:.2e}) in {elapsed:.1f}s")


def test_criterion_3_geometric_location_bounds():
    instances = regression_instances(seed=MASTER_SEED, count=120,
                                     ns=(3, 4, 5, 6))
    violations = 0
    for inst in instances:
        res = localization_tail_check(inst["n"], inst["p"], inst["ell"],
                                      mode="exact")
        if not res.verdict.passed:
            violations += 1
    report("3 (geometric label and first-hit location bounds, exact)",
           violations == 0, f"120 instances, {violations} violations")


def test_criterion_4_disconnecting_product_bound():
    rng = np.random.default_rng(MASTER_SEED + 4)
    violations = 0
    count = 0
    for inst in regression_instances(seed=MASTER_SEED, count=60,
                                     ns=(4, 5, 6)):
        res = disconnect_probability(inst["p"], inst["ell"])
        violations += res.verdict.details["violations"]
        count += 1
    for _ in range(40):
        eps = float(rng.choice([0.2, 0.5, 1.0]))
        p = BiasMatrix.random_biased(7, eps, rng)
        ell = random_admissible_localization(7, rng, max_ell=3)
        res = disconnect_probability(p, ell)
        violations += res.verdict.details["violations"]
        count += 1
    report("4 (disconnecting probability >= product bound, exact n <= 7)",
           violations == 0, f"{count} instances, {violations} violations")


def _exhaustive_chain_asep_domination(n: int, p: BiasMatrix, q: float) -> int:
    """Tight exhaustive one-step check; returns the violation count."""
    dense = p.dense()
    cuts = sorted({q} | {float(dense[i, j]) for i in range(n)
                         for j in range(n) if i != j} | {0.0, 1.0})
    us = [0.5 * (a + b) for a, b in zip(cuts, cuts[1:]) if b > a]
    occ_by_k = {k: [s for s in itertools.product((0, 1), repeat=n)
                    if sum(s) == k] for k in range(1, n)}
    step = _ordered_list_step(p, None)
    violations = 0
    for perm in itertools.permutations(range(1, n + 1)):
        # the ASEP rows that the projections of perm dominate
        dominated = {k: [Y for Y in occ_by_k[k]
                         if left_of([int(v <= k) for v in perm], Y)]
                     for k in range(1, n)}
        for e in range(1, n):
            for u in us:
                new_perm = list(perm)
                step(new_perm, e, u)
                for k, rows in dominated.items():
                    eta_new = [int(v <= k) for v in new_perm]
                    for Y in rows:
                        Yn = list(Y)
                        Yn[e - 1], Yn[e] = _asep_edge(Y[e - 1], Y[e], u < q)
                        violations += not left_of(eta_new, Yn)
    return violations


def test_criterion_5_coupling_invariants():
    t0 = time.time()
    # exhaustive ASEP x ASEP at n <= 6
    asep_viol = 0
    for n in (4, 5, 6):
        for k in range(1, n):
            states = [s for s in itertools.product((0, 1), repeat=n)
                      if sum(s) == k]
            for Y in states:
                for Yp in states:
                    if not left_of(Y, Yp):
                        continue
                    # the pair packed as the pair drivers pack it: bit 0
                    # from Y, bit 1 from Yp
                    words = [a | b << 1 for a, b in zip(Y, Yp)]
                    for e in range(1, n):
                        for u in (0.3, 0.9):
                            w = words.copy()
                            w[e - 1], w[e] = _asep_edge(w[e - 1], w[e],
                                                        u < 0.75)
                            if not left_of([x & 1 for x in w],
                                           [x >> 1 for x in w]):
                                asep_viol += 1
    # exhaustive chain x ASEP-family at n <= 6 (constant and random bias)
    dom_viol = _exhaustive_chain_asep_domination(
        6, BiasMatrix.constant(6, 0.75), 0.75)
    rng = np.random.default_rng(MASTER_SEED + 5)
    dom_viol += _exhaustive_chain_asep_domination(
        5, BiasMatrix.random_biased(5, 2.0, rng), 0.75)
    # million-step runtime-asserted trajectories at n = 100
    p100 = BiasMatrix.constant(100, 0.75)
    rec_dom = domination_audit_run(
        100, p100, 0.75, ks=[1, 2, 4, 8, 16, 32, 64, 99], steps=10 ** 6,
        seed=MASTER_SEED + 55)
    rec_mono = asep_monotone_audit_run(100, 50, 0.75, steps=10 ** 6,
                                       seed=MASTER_SEED + 56)
    elapsed = time.time() - t0
    total = asep_viol + dom_viol + rec_dom["violations"] + rec_mono["violations"]
    report("5 (coupling order preservation, exhaustive + 1e6-step runs)",
           total == 0 and elapsed < 300.0,
           f"exhaustive viol {asep_viol + dom_viol}, trajectory viol "
           f"{rec_dom['violations'] + rec_mono['violations']}, "
           f"{elapsed:.0f}s")


def test_criterion_6_block_decomposition_inequality():
    instances = [inst for inst in
                 regression_instances(seed=MASTER_SEED, count=120,
                                      ns=(4, 5, 6))
                 if inst["n"] in (4, 5, 6)]
    violations = 0
    slacks = []
    for inst in instances:
        res = block_decomposition_check(inst["n"], inst["p"], inst["ell"],
                                        BlockSchedule.west_east(inst["n"]))
        slacks.append(res.verdict.details["slack"])
        if not res.verdict.passed:
            violations += 1
    report("6 (block decomposition inequality, chi = 2, WestEast)",
           violations == 0,
           f"{len(instances)} instances, min slack {min(slacks):.3e}")


def test_criterion_7_spatial_mixing_decay():
    n, l = 60, 3
    p = BiasMatrix.constant(n, 0.75)
    ell = LocalizationVector.constant(n, l)
    eta = BoundaryAssignment(n, (1,), ())
    eta_bar = BoundaryAssignment(n, (1 + l,), ())
    rs = list(range(l, 12 * l + 1))
    res = spatial_decay_curve(p, ell, eta, eta_bar, rs, mode="exact",
                              threshold=0.05, r2_min=0.9)
    d = res.verdict.details
    tv_at_12l = res.series[-1].estimate
    report("7 (spatial mixing: monotone, < 0.05 at r = 12 ell, R^2 >= 0.9)",
           res.verdict.passed and tv_at_12l < 0.05,
           f"TV(12 ell) = {tv_at_12l:.2e}, slope {d['slope']:.3f}, "
           f"R^2 {d['r2']:.3f}")


def test_criterion_8_quadratic_scaling():
    t0 = time.time()
    scale = mixing_scaling([64, 128, 256, 512],
                           {"kind": "constant-q", "q": 0.75},
                           method="coupling", budget=16,
                           seed=MASTER_SEED + 8, slope_window=(1.7, 2.3))
    slope = scale.verdict.details["slope"]
    p256 = BiasMatrix.constant(256, 0.75)
    lower = lower_bound_experiment(256, p256, eta=0.5, replicas=500,
                                   seed=MASTER_SEED + 88, threshold=0.05,
                                   ref_min=0.99)
    d = lower.verdict.details
    elapsed = time.time() - t0
    report("8 (Theta(n^2): coupling slope 2.0 +- 0.3; early-hit <= 0.05 "
           "vs stationary >= 0.99)",
           scale.verdict.passed and lower.verdict.passed and elapsed < 1800.0,
           f"slope {slope:.3f}, early-hit {d['estimate']:.4f}, stationary "
           f"certified {d['stationary_certified']:.5f} / exact "
           f"{d['stationary_exact']:.5f}, {elapsed:.0f}s")
    # the coalescence stream is pinned: this slope must repeat bit for bit
    assert slope == 2.0487184533436773


def test_criterion_9_burn_in_scaling():
    res = burn_in_scaling([128, 256, 512], {"kind": "constant-q", "q": 0.75},
                          T_mult=8, replicas=150, seed=MASTER_SEED + 9)
    d = res.verdict.details
    report("9 (burn-in: additive 99th-pct growth per doubling, frozen caps)",
           res.verdict.passed,
           f"q99 = {['%.1f' % q for q in d['quantiles']]}, increments "
           f"{['%.1f' % i for i in d['increments']]} <= 3.0")


def test_criterion_10_block_dynamics_coalescence():
    n = 300
    p = BiasMatrix.constant(n, 0.75)
    ell = LocalizationVector.constant(n, 12)
    res = block_chain_mixing(n, p, ell, BlockSchedule.west_east(n),
                             replicas=200, step_cap=50,
                             success_frac=0.95, seed=MASTER_SEED + 10)
    d = res.verdict.details
    report("10 (restricted WestEast twins coalesce within 50 steps, >= 95%)",
           res.verdict.passed,
           f"fraction {d['fraction']:.3f}, median "
           f"{res.meta['median_time']}, max {res.meta['max_time']}")
