import hashlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chain_oracle import (random_admissible_localization,
                          regression_instances)
from atshuffle import banddp, chains, experiments
from atshuffle.chains import BlockSchedule, derive_rng, experiment_id
from atshuffle.errors import CapExceeded, ContractError
from atshuffle.experiments import (ExperimentResult, SeriesPoint, Verdict,
                                   asep_tail_check, block_chain_mixing,
                                   block_decomposition_check, burn_in_profile,
                                   disconnect_probability,
                                   disconnect_product_bound,
                                   localization_tail_check,
                                   lower_bound_experiment, mixing_scaling,
                                   spatial_decay_curve)
from atshuffle.banddp import BandDP
from atshuffle.measure import (build_transition_matrix, enumerate_stationary,
                               exact_mixing_time, tv_distance)
from atshuffle.perms import (BiasMatrix, BoundaryAssignment,
                             LocalizationVector, instance_fingerprint)


def enum_region_tv(n, p, ell, eta_a, eta_b, region):
    mu = enumerate_stationary(n, p, ell, cap=n)
    laws = []
    for eta in (eta_a, eta_b):
        pins = eta.values()
        tot = {}
        Z = 0.0
        for s, pr in zip(mu.support, mu.probs):
            if all(s[pos - 1] == v for pos, v in pins.items()):
                Z += pr
                key = tuple(s[x - 1] for x in range(region[0], region[1] + 1))
                tot[key] = tot.get(key, 0.0) + pr
        laws.append({k: v / Z for k, v in tot.items()})
    keys = set(laws[0]) | set(laws[1])
    return 0.5 * sum(abs(laws[0].get(k, 0.0) - laws[1].get(k, 0.0))
                     for k in keys)


def test_localization_tail_exact_modes():
    rng = np.random.default_rng(0)
    p = BiasMatrix.random_biased(6, 0.5, rng)
    assert localization_tail_check(6, p, None, mode="exact").verdict.passed
    ell = random_admissible_localization(6, rng, max_ell=2)
    assert localization_tail_check(6, p, ell, mode="exact").verdict.passed
    # totally asymmetric: identically zero tails
    res = localization_tail_check(5, BiasMatrix.totally_asymmetric(5), None,
                                  mode="exact")
    assert res.verdict.passed
    assert all(pt.estimate == 0.0 for pt in res.series)


@pytest.mark.parametrize("mode", ["exactt", "Sampled"])
def test_localization_tail_refuses_an_unknown_mode(monkeypatch, mode):
    # every mode but "exact" used to run the sampled check
    def never(*args, **kwargs):
        raise AssertionError("sampled before the mode check")

    monkeypatch.setattr(experiments, "exact_localized_sampler", never)
    with pytest.raises(ContractError, match="choose exact or sampled"):
        localization_tail_check(6, BiasMatrix.constant(6, 0.75), mode=mode)


def test_localization_tail_sampled_mode():
    p = BiasMatrix.constant(60, 0.75)
    ell = LocalizationVector.constant(60, 8)
    res = localization_tail_check(60, p, ell, samples=20000, seed=1,
                                  mode="sampled")
    assert res.verdict.passed
    assert res.verdict.details["slope"] <= -math.log1p(2.0) + \
        3 * res.verdict.details["slope_se"]


def test_localization_tail_sampled_mode_large_window():
    # n=200, window 12: the constant-bias rejection sampler takes over
    p = BiasMatrix.constant(200, 0.75)
    ell = LocalizationVector.constant(200, 12)
    res = localization_tail_check(200, p, ell, samples=20000, seed=2,
                                  mode="sampled", rs=list(range(1, 9)))
    assert res.verdict.passed
    assert res.verdict.details["strategy"] == "mallows-rejection"


def test_mixing_scaling_jobs_deterministic():
    kwargs = dict(ns=[16, 32], family={"kind": "constant-q", "q": 0.75},
                  method="coupling", budget=4, seed=12,
                  slope_window=(1.0, 3.0))
    serial = mixing_scaling(jobs=1, **kwargs)
    parallel = mixing_scaling(jobs=2, **kwargs)
    assert [pt.as_dict() for pt in serial.series] == \
        [pt.as_dict() for pt in parallel.series]


def test_exact_tails_and_disconnects_honour_the_enumeration_cap():
    p = BiasMatrix.random_biased(6, 0.5, np.random.default_rng(0))
    with pytest.raises(CapExceeded, match="n=6 exceeds the enumeration cap 3"):
        localization_tail_check(6, p, None, mode="exact", enum_cap=3)
    with pytest.raises(CapExceeded, match="n=6 exceeds the enumeration cap 3"):
        disconnect_probability(p, mode="exact", enum_cap=3)
    assert localization_tail_check(6, p, None, mode="exact",
                                   enum_cap=4).verdict.passed


def test_disconnect_probability_contracts():
    assert disconnect_probability(
        BiasMatrix.constant(2, 0.6), ks=[1]).series[0].estimate == \
        pytest.approx(0.6, abs=1e-12)
    res = disconnect_probability(BiasMatrix.constant(5, 0.8),
                                 LocalizationVector.constant(5, 0))
    assert all(pt.estimate == pytest.approx(1.0) for pt in res.series)
    # boundary mode restricts the k range
    ell = LocalizationVector.constant(6, 1)
    b = BoundaryAssignment(6, (1,), (6,))
    with pytest.raises(ContractError):
        disconnect_probability(BiasMatrix.constant(6, 0.7), ell, b, ks=[1])
    res = disconnect_probability(BiasMatrix.constant(6, 0.7), ell, b)
    assert res.verdict.passed
    # no k to check used to pass: an empty ks, or a boundary that leaves the
    # valid range empty
    with pytest.raises(ContractError, match="ks must be non-empty"):
        disconnect_probability(BiasMatrix.constant(4, 0.7), ks=[])
    with pytest.raises(ContractError, match=r"valid range is \[4, 3\]"):
        disconnect_probability(BiasMatrix.constant(6, 0.7), ell,
                               BoundaryAssignment(6, (1, 2, 3), (5, 6)))


def state_loop_mass(mu, keep, pins=None):
    """The sum of the probabilities of the states kept, one state at a time,
    renormalized to the states that agree with pins when given."""
    pairs = list(zip(mu.support, mu.probs))
    if pins is not None:
        idx = [t for t, (s, _) in enumerate(pairs)
               if all(s[pos - 1] == v for pos, v in pins.items())]
        probs = mu.probs[idx] / mu.probs[idx].sum()
        pairs = [(pairs[t][0], pr) for t, pr in zip(idx, probs)]
    return float(sum(pr for s, pr in pairs if keep(s)))


def test_exact_tail_and_disconnect_sums_match_state_loops():
    # the exact modes read the support as one array; their figures must be
    # the state-by-state sums bit for bit
    for inst in regression_instances(count=24):
        n, p, ell = inst["n"], inst["p"], inst["ell"]
        mu = enumerate_stationary(n, p, ell)
        tail = localization_tail_check(n, p, ell, mode="exact")
        assert [pt.estimate for pt in tail.series] == [
            state_loop_mass(mu, lambda s, k=k: s[0] > k) for k in range(1, n)]
        disc = disconnect_probability(p, ell, mode="exact")
        assert [pt.estimate for pt in disc.series] == [
            state_loop_mass(mu, lambda s, k=k: max(s[:k]) == k)
            for k in range(1, n + 1)]
    n = 8
    p = BiasMatrix.random_biased(n, 0.5, np.random.default_rng(9))
    ell = LocalizationVector.constant(n, 2)
    b = BoundaryAssignment(n, (2,), (8,))
    mu = enumerate_stationary(n, p, ell)
    disc = disconnect_probability(p, ell, b, mode="exact")
    assert [pt.estimate for pt in disc.series] == [
        state_loop_mass(mu, lambda s, k=k: max(s[:k]) == k, b.values())
        for k in disc.params["ks"]]


def test_disconnect_probability_random_regression():
    rng = np.random.default_rng(2)
    for _ in range(5):
        p = BiasMatrix.random_biased(7, 0.5, rng)
        ell = random_admissible_localization(7, rng, max_ell=3)
        assert disconnect_probability(p, ell).verdict.passed


def test_disconnect_sampled_mode_agrees():
    p = BiasMatrix.constant(6, 0.7)
    ell = LocalizationVector.constant(6, 2)
    exact = disconnect_probability(p, ell, ks=[3])
    sampled = disconnect_probability(p, ell, ks=[3], mode="sampled",
                                     budget=30000, seed=3)
    assert sampled.verdict.passed
    assert sampled.series[0].estimate == pytest.approx(
        exact.series[0].estimate, abs=4 * sampled.series[0].stderr + 1e-3)


def test_product_bound_values():
    assert disconnect_product_bound(math.inf, 5) == 1.0
    assert disconnect_product_bound(0.0, 3) == 0.0
    b = disconnect_product_bound(1.0, 2)
    assert b == pytest.approx((1 - 0.5) * (1 - 0.25))


def test_spatial_exact_matches_enumeration_one_sided():
    rng = np.random.default_rng(4)
    for trial in range(4):
        n = 7
        p = BiasMatrix.random_biased(n, 0.5, rng) if trial % 2 \
            else BiasMatrix.constant(n, 0.7)
        ell = LocalizationVector.constant(n, 2)
        eta_a = BoundaryAssignment(n, (1,), ())
        eta_b = BoundaryAssignment(n, (2,), ())
        dpA = BandDP(p, ell, pins=eta_a.values())
        dpB = BandDP(p, ell, pins=eta_b.values())
        for r in range(1, 5):
            tv_cut = tv_distance(dpA.cut_law(1 + r), dpB.cut_law(1 + r))
            tv_enum = enum_region_tv(n, p, ell, eta_a, eta_b, (2 + r, n))
            assert tv_cut == pytest.approx(tv_enum, abs=1e-10)


def test_spatial_exact_matches_enumeration_two_sided():
    cases = [(8, BiasMatrix.constant(8, 0.7), LocalizationVector.constant(8, 1),
              ((1,), (8,)), ((2,), (7,)))]
    # a random-eps instance with asymmetric windows, pinned at the two
    # extreme end pairs of its support
    n = 9
    p = BiasMatrix.random_biased(n, 0.5, np.random.default_rng(6))
    ell = LocalizationVector([1] * n, [2] * n)
    ends = sorted({(s[:1], s[-1:]) for s in map(
        tuple, enumerate_stationary(n, p, ell, cap=n).support.tolist())})
    cases.append((n, p, ell, ends[0], ends[-1]))
    for n, p, ell, ends_a, ends_b in cases:
        eta_a = BoundaryAssignment(n, *ends_a)
        eta_b = BoundaryAssignment(n, *ends_b)
        res = spatial_decay_curve(p, ell, eta_a, eta_b, [1, 2], mode="exact")
        for pt, r in zip(res.series, (1, 2)):
            tv_enum = enum_region_tv(n, p, ell, eta_a, eta_b,
                                     (2 + r, n - 1 - r))
            assert pt.estimate == pytest.approx(tv_enum, abs=1e-10)


def test_spatial_identical_boundaries():
    n = 10
    p = BiasMatrix.constant(n, 0.75)
    ell = LocalizationVector.constant(n, 2)
    eta = BoundaryAssignment(n, (1,), ())
    res = spatial_decay_curve(p, ell, eta, eta, [2, 3, 4], mode="exact")
    assert res.verdict.passed
    assert all(pt.estimate == pytest.approx(0.0, abs=1e-12) for pt in res.series)


def test_spatial_mirrored_right_boundary():
    n = 12
    p = BiasMatrix.constant(n, 0.75)
    ell = LocalizationVector.constant(n, 2)
    eta_a = BoundaryAssignment(n, (), (n,))
    eta_b = BoundaryAssignment(n, (), (n - 2,))
    res = spatial_decay_curve(p, ell, eta_a, eta_b, [2, 3, 4, 5], mode="exact")
    tvs = [pt.estimate for pt in res.series]
    assert tvs == sorted(tvs, reverse=True)


@pytest.mark.parametrize("seed", range(4))
def test_spatial_right_boundary_cut_directly(seed):
    # right boundaries used to be mirrored, and the result recorded the
    # mirrored boundary and instance
    rng = np.random.default_rng(seed)
    n = 8
    p = BiasMatrix.random_biased(n, 0.5, rng) if seed % 2 \
        else BiasMatrix.constant(n, 0.7)
    ell = (LocalizationVector.constant(n, 2) if seed < 2
           else random_admissible_localization(n, rng, max_ell=2))
    j = 1 + seed % 2
    # the right ends of two localized states with positive weight
    support = enumerate_stationary(n, p, ell).support
    ends = sorted({s[n - j:] for s in map(tuple, support.tolist())})
    eta_a, eta_b = (BoundaryAssignment(n, (), ends[t]) for t in (0, -1))
    rs = [1, 2, 3, 4]
    res = spatial_decay_curve(p, ell, eta_a, eta_b, rs, mode="exact")
    for pt, r in zip(res.series, rs):
        tv_enum = enum_region_tv(n, p, ell, eta_a, eta_b, (1, n - j - r))
        assert pt.estimate == pytest.approx(tv_enum, abs=1e-10)
    sampled = spatial_decay_curve(p, ell, eta_a, eta_b, rs, mode="sampled",
                                  budget=3000, seed=seed)
    for pe, ps in zip(res.series, sampled.series):
        assert ps.estimate + 3 * ps.stderr >= pe.estimate - 1e-12
    for out in (res, sampled):
        assert out.fingerprint == instance_fingerprint(p, ell)
        assert (out.params["i"], out.params["j"]) == (0, j)
        assert out.params["eta"] == eta_a.values()
        assert out.params["eta_bar"] == eta_b.values()
    with pytest.raises(ContractError, match="empty far region"):
        spatial_decay_curve(p, ell, eta_a, eta_b, [n - j], mode="exact")


def test_spatial_sampled_right_boundary_reads_the_right_cuts():
    # the coupling fails unless some s in [n - j - r + 1, n - j] has the
    # labels s..n at positions s..n in both draws
    n, j, budget, seed = 10, 1, 400, 3
    p = BiasMatrix.random_biased(n, 0.5, np.random.default_rng(seed))
    ell = LocalizationVector.constant(n, 2)
    eta_a = BoundaryAssignment(n, (), (n,))
    eta_b = BoundaryAssignment(n, (), (n - 2,))
    # r = n - j + 1 reaches past site 1: every site is read, as on the left
    rs = [1, 2, 3, 4, n - j + 1]
    res = spatial_decay_curve(p, ell, eta_a, eta_b, rs, mode="sampled",
                              budget=budget, seed=seed)
    rng = derive_rng(seed, experiment_id("spatial-coupling"))
    rows = [BandDP(p, ell, pins=eta.values()).sample_rows(rng, budget)
            for eta in (eta_a, eta_b)]

    def cut(row, s):
        return set(row[s - 1:].tolist()) == set(range(s, n + 1))

    for pt, r in zip(res.series, rs):
        hits = sum(any(cut(ra, s) and cut(rb, s)
                       for s in range(max(n - j - r, 0) + 1, n - j + 1))
                   for ra, rb in zip(*rows))
        assert pt.estimate == 1.0 - hits / budget


def test_spatial_sampled_upper_bounds_exact():
    n = 8
    p = BiasMatrix.constant(n, 0.75)
    ell = LocalizationVector.constant(n, 2)
    eta_a = BoundaryAssignment(n, (1,), ())
    eta_b = BoundaryAssignment(n, (3,), ())
    exact = spatial_decay_curve(p, ell, eta_a, eta_b, [2, 3, 4], mode="exact")
    sampled = spatial_decay_curve(p, ell, eta_a, eta_b, [2, 3, 4],
                                  mode="sampled", budget=4000, seed=5)
    for pe, ps in zip(exact.series, sampled.series):
        assert ps.estimate + 3 * ps.stderr >= pe.estimate - 1e-12


def test_block_decomposition_examples():
    res = block_decomposition_check(4, BiasMatrix.constant(4, 0.6), None,
                                    BlockSchedule.west_east(4))
    assert res.verdict.passed
    assert res.verdict.details["chi"] == 2
    assert res.verdict.details["slack"] > 0
    single = block_decomposition_check(4, BiasMatrix.constant(4, 0.6), None,
                                       BlockSchedule.single(4))
    assert single.verdict.passed
    assert single.verdict.details["gap_block"] == pytest.approx(1.0, abs=1e-9)
    assert abs(single.verdict.details["slack"]) < 1e-9


@pytest.mark.parametrize("m", [3, 8])
def test_block_checks_refuse_a_schedule_for_another_n(m, monkeypatch):
    # at n = 5 a schedule for n = 3 never resampled positions 4 and 5, one
    # for n = 8 reached past position n, and the check passed on either
    def no_work(*args, **kwargs):
        raise AssertionError("enumeration began before the refusal")

    n = 5
    p = BiasMatrix.constant(n, 0.6)
    mu = enumerate_stationary(n, p)
    monkeypatch.setattr(experiments, "enumerate_stationary", no_work)
    schedule = BlockSchedule.west_east(m)
    message = f"schedule is built for n = {m}, but the instance has n = 5"
    with pytest.raises(ContractError, match=message):
        block_decomposition_check(n, p, None, schedule)
    with pytest.raises(ContractError, match=message):
        chains.exact_block_kernel(mu, schedule)


def test_block_decomposition_random_restricted():
    rng = np.random.default_rng(6)
    p = BiasMatrix.random_biased(5, 0.5, rng)
    ell = random_admissible_localization(5, rng, max_ell=2)
    res = block_decomposition_check(5, p, ell, BlockSchedule.west_east(5))
    assert res.verdict.passed


def test_asep_tail_check():
    res = asep_tail_check(12, 4, 0.75)
    assert res.verdict.passed
    assert res.verdict.details["enumeration_crosscheck"] < 1e-12
    # tail exactly 0 beyond n - k
    tail_beyond = [pt for pt in res.series if pt.x > 12 - 4]
    assert all(pt.estimate == 0.0 for pt in tail_beyond)


def test_mixing_scaling_exact_small():
    res = mixing_scaling([2, 3, 4], {"kind": "constant-q", "q": 0.6},
                         delta=0.25, method="exact")
    assert res.series[0].estimate == 1.0
    assert all(a.estimate <= b.estimate for a, b in zip(res.series, res.series[1:]))


def test_mixing_scaling_coupling_small():
    res = mixing_scaling([16, 32, 64], {"kind": "constant-q", "q": 0.75},
                         method="coupling", budget=6, seed=7,
                         slope_window=(1.5, 2.5))
    assert res.verdict.passed, res.verdict.details


def test_mixing_scaling_coupling_takes_q_from_eps_as_the_instances_do():
    # eps = inf used to give q = nan and be refused; it is q = 1
    tas = mixing_scaling([4, 6], {"kind": "constant-eps", "eps": math.inf},
                         method="coupling", budget=2)
    assert [pt.x for pt in tas.series] == [4, 6]
    for eps in (0.5, 1.0, 3.0):
        by_eps, by_q = (mixing_scaling([4, 6], family, method="coupling",
                                       budget=2, seed=5)
                        for family in ({"kind": "constant-eps", "eps": eps},
                                       {"kind": "constant-q", "q":
                                        BiasMatrix.constant_from_epsilon(
                                            2, eps).constant_q()}))
        assert by_eps.series == by_q.series


@pytest.mark.parametrize("method, ns", [("coupling", [16]),
                                        ("coupling", [16, 16]),
                                        ("statistic", [8, 8])])
def test_mixing_scaling_slope_modes_need_two_sizes(method, ns):
    # one size used to fit a slope on a single point and record NaN
    with pytest.raises(ContractError, match="two distinct sizes"):
        mixing_scaling(ns, {"kind": "constant-q", "q": 0.75}, method=method,
                       budget=4)


@pytest.mark.parametrize("method", ["exact", "coupling", "statistic"])
@pytest.mark.parametrize("delta", [-1.0, 0.0, 0.6, 2.0, math.nan])
def test_mixing_scaling_refuses_a_delta_outside_zero_to_a_half(
        monkeypatch, method, delta):
    # statistic mode at delta 2.0 used to pass with T_lb [0, 0], and coupling
    # mode recorded any delta
    def no_work(*args, **kwargs):
        raise AssertionError("work began before delta was checked")

    for name in ("check_enumerable", "make_family", "derive_rng"):
        monkeypatch.setattr(experiments, name, no_work)
    with pytest.raises(ContractError, match=r"delta must be in \(0, 0.5\]"):
        mixing_scaling([5, 6], {"kind": "constant-q", "q": 0.75},
                       delta=delta, method=method, budget=4)


def test_statistic_upper_bound_is_at_least_the_exact_mixing_time():
    # order-based twins from identity and reversal give d(t) <= P(T > t), so
    # the (1 - delta) quantile of T bounds t_mix(delta); 100 meetings per n
    family = {"kind": "constant-q", "q": 0.75}
    exact = mixing_scaling([5, 6], family, method="exact")
    assert [pt.estimate for pt in exact.series] == [33.0, 60.0]
    res = mixing_scaling([5, 6], family, method="statistic", budget=400)
    lbs = res.verdict.details["lower_bounds"]
    ubs = res.verdict.details["upper_bounds"]
    assert all(ub >= pt.estimate for ub, pt in zip(ubs, exact.series))
    for n, lb, ub in zip((5, 6), lbs, ubs):
        times = sorted(res.meta[f"n{n}"]["coalescence_times"])
        assert len(times) == 100 and ub == times[74]
        assert res.meta[f"n{n}"]["ub_over_lb"] == ub / lb


def test_statistic_lower_bound_is_exact_near_one_half():
    # near q = 1/2 the sampled lower bound stopped at its grid's last point,
    # 3 n^2 (768 and 1728); label 1's exact law runs on past it
    res = mixing_scaling([16, 24], {"kind": "constant-q", "q": 0.52},
                         method="statistic", budget=8)
    assert res.verdict.details["lower_bounds"] == [919, 3352]
    assert set(res.meta["n16"]) == {"coalescence_times", "ub_over_lb"}


@pytest.mark.parametrize("q", [0.3, 0.5, 0.75, 0.9])
def test_statistic_lower_bound_is_at_most_the_exact_mixing_time(q):
    # label 1's position is a projection of the chain, whose TV never
    # exceeds the chain's; from the identity and the reversal alone it still
    # bounds the worst start
    deltas = (0.1, 0.25, 0.5)
    # the worst-start TV curve to t_mix(0.1) gives t_mix at every delta
    curves = []
    for n in (4, 5, 6):
        p = BiasMatrix.constant(n, q)
        mu = enumerate_stationary(n, p)
        curves.append(exact_mixing_time(build_transition_matrix(p, mu), mu,
                                        deltas[0])[1])
    lbs = []
    for delta in deltas:
        lb = [experiments._label_one_lower_bound(n, q, delta)
              for n in (4, 5, 6)]
        if q != 0.5:    # statistic mode refuses unbiased twins
            res = mixing_scaling([4, 5, 6], {"kind": "constant-q", "q": q},
                                 delta=delta, method="statistic", budget=4)
            assert res.verdict.details["lower_bounds"] == lb
        t_mix = [min(t for t, tv in enumerate(c) if tv <= delta)
                 for c in curves]
        assert all(0 < a <= b for a, b in zip(lb, t_mix))
        lbs.append(lb)
    assert all(a >= b >= c for a, b, c in zip(*lbs))


@pytest.mark.parametrize("family", [{"kind": "constant-q", "q": 0.5},
                                    {"kind": "constant-eps", "eps": 0.0}])
def test_statistic_mode_refuses_unbiased_twins_before_any_work(
        family, monkeypatch):
    # its twins stopped at 40 n^2 steps and gave up at n = 32 after the
    # exact T_lb was computed; unbiased twins meet after order n^3 log n
    def refuse(*args, **kwargs):
        raise AssertionError("statistic mode started work at q = 1/2")

    monkeypatch.setattr(experiments, "twin_chain_coupling_run", refuse)
    monkeypatch.setattr(experiments, "asep_stationary", refuse)
    with pytest.raises(ContractError, match="q = 0.5"):
        mixing_scaling([16, 32], family, method="statistic")


def test_statistic_twins_run_to_a_horizon_scaled_by_the_bias(monkeypatch):
    horizons = []

    def record(*args, T, seed):
        horizons.append(T)
        return 1, None

    monkeypatch.setattr(experiments, "twin_chain_coupling_run", record)
    mixing_scaling([8, 12], {"kind": "constant-q", "q": 0.6},
                   method="statistic", budget=4)
    assert horizons == [int(40 * n * n / abs(2 * 0.6 - 1))
                        for n in (8, 8, 8, 8, 12, 12, 12, 12)]


def _cap_region_marginal(monkeypatch):
    p, ell = BiasMatrix.constant(12, 0.7), LocalizationVector.constant(12, 2)
    BandDP(p, ell).region_marginal((3, 6), cap_states=11)


def _cap_asep_stationary(monkeypatch):
    experiments.asep_stationary(10, 5, 0.7, cap_states=100)


def _cap_exact_mixing_time(monkeypatch):
    p = BiasMatrix.constant(4, 0.7)
    mu = enumerate_stationary(4, p)
    exact_mixing_time(build_transition_matrix(p, mu), mu, 0.25, t_cap=3)


def _cap_coupling_mix(monkeypatch):
    # a real pair meets long before its horizon
    monkeypatch.setattr(experiments, "asep_pair_coalescence",
                        lambda *args: None)
    mixing_scaling([8, 16], {"kind": "constant-q", "q": 0.75},
                   method="coupling", budget=2)


def _cap_statistic_mix(monkeypatch):
    monkeypatch.setattr(experiments, "twin_chain_coupling_run",
                        lambda *args, T, seed: (None, {}))
    mixing_scaling([8, 16], {"kind": "constant-q", "q": 0.25},
                   method="statistic", budget=4)


@pytest.mark.parametrize("run, knob", [
    (_cap_region_marginal, r"cap is 11; raise cap_states of region_marginal "
     r"or band_dp_conditional_marginal \(no CLI option sets it\)"),
    (_cap_asep_stationary, r"252 states exceed asep_stationary's "
     r"cap_states = 100; raise cap_states"),
    (_cap_exact_mixing_time, r"step cap 3; .*raise t_cap of "
     r"exact_mixing_time \(no CLI option sets it, in exact or statistic "
     r"mix\)"),
    (_cap_coupling_mix, r"at n=8 .* horizon of 40 n\^2/\(2q - 1\) = 5120 "
     r"steps, which no setting raises \(budget is the pair count\); use a "
     r"smaller n or a q farther from 1/2"),
    (_cap_statistic_mix, r"at n=8 within its horizon of 40 n\^2/\|2q - 1\| "
     r"= 5120 steps, which no setting raises \(budget sets the twin "
     r"count\); use a smaller n or a q farther from 1/2"),
], ids=["region_marginal", "asep_stationary", "exact_mixing_time",
        "coupling_mix", "statistic_mix"])
def test_every_cap_names_its_knob_or_says_there_is_none(run, knob,
                                                        monkeypatch):
    with pytest.raises(CapExceeded, match=knob):
        run(monkeypatch)


@pytest.mark.parametrize("q", [1.0, 0.3])
def test_statistic_mode_runs_at_a_total_and_a_reversed_bias(q):
    res = mixing_scaling([8, 12], {"kind": "constant-q", "q": q},
                         method="statistic", budget=8, seed=3)
    lbs = res.verdict.details["lower_bounds"]
    assert res.verdict.passed and 0 < lbs[0] < lbs[1]
    assert all(lb <= ub for lb, ub in
               zip(lbs, res.verdict.details["upper_bounds"]))


def test_lower_bound_experiment_small():
    p = BiasMatrix.constant(64, 0.75)
    res = lower_bound_experiment(64, p, eta=0.5, replicas=120, seed=8,
                                 ref_min=0.95)
    assert res.verdict.passed, res.verdict.details
    assert res.verdict.details["stationary_certified"] > 0.99


@pytest.mark.parametrize("n", [1, 2, 4, 6, 8])
@pytest.mark.parametrize("kind", ["constant", "total", "random-eps"])
def test_lower_bound_stationary_side_is_the_enumerated_mass(n, kind):
    # the stationary side was a sample of 20,000 rows; it is now label 1's
    # exact law, which must equal the enumerated mass of pos(1) <= sqrt n
    p = {"constant": BiasMatrix.constant(n, 0.7),
         "total": BiasMatrix.constant(n, 1.0),
         "random-eps": BiasMatrix.random_biased(
             n, 0.5, np.random.default_rng(n))}[kind]
    mu = enumerate_stationary(n, p)
    s = math.isqrt(n)
    direct = float(mu.probs[np.argmax(mu.support == 1, axis=1) < s].sum())
    res = lower_bound_experiment(n, p, replicas=2, seed=1)
    assert res.verdict.details["stationary_exact"] == pytest.approx(
        direct, abs=1e-12)


def test_lower_bound_stationary_side_is_null_past_the_enumeration_cap():
    p = BiasMatrix.random_biased(16, 0.5, np.random.default_rng(0))
    res = lower_bound_experiment(16, p, replicas=2, seed=1)
    assert res.verdict.details["stationary_exact"] is None


def test_block_chain_mixing_small():
    n = 30
    p = BiasMatrix.constant(n, 0.75)
    ell = LocalizationVector.constant(n, 4)
    res = block_chain_mixing(n, p, ell, BlockSchedule.west_east(n),
                             replicas=20, step_cap=50, seed=9)
    assert res.verdict.passed, res.verdict.details
    assert res.meta["median_time"] <= 20


# digests of block_chain_mixing's sorted JSON record, with its coalesced
# counts at t = 1..10 and meta, recorded before the block update path lost its
# text round-trip; ell = 9 makes the heat-bath blocks use the Mallows sampler,
# and its pin was recorded again when that sampler began to put the labels a
# block's window forces home back in place instead of drawing them
BLOCK_PINS = {
    3: ("aa1fea2d5e43087270077f6e980f8a2cc111c79c8bdb514b3036c67fc20dfd89",
        [0, 5, 5, 7, 8, 8, 8, 8, 8, 8], {"max_time": 5, "median_time": 2.0}),
    9: ("803ee4c4c790ee21e368c55bab6460359d6afa78ef6dae567d3295859121f465",
        [0, 5, 5, 5, 6, 8, 8, 8, 8, 8], {"max_time": 6, "median_time": 2.0}),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("ell_width", sorted(BLOCK_PINS))
def test_block_chain_mixing_pinned_stream(ell_width, jobs):
    n = 30
    p = BiasMatrix.constant(n, 0.75)
    ell = LocalizationVector.constant(n, ell_width)
    res = block_chain_mixing(n, p, ell, BlockSchedule.west_east(n),
                             replicas=8, step_cap=30, seed=11, jobs=jobs)
    digest, counts, meta = BLOCK_PINS[ell_width]
    assert [round(pt.estimate * 8) for pt in res.series[:10]] == counts
    assert res.meta == meta
    text = json.dumps(res.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_block_chain_mixing_pinned_at_a_mallows_sized_block():
    # the n = 30 pins resample about 20 labels per block; here each block
    # draws on about 80 labels through the Mallows sampler's single rows;
    # recorded when that sampler began to put forced labels back in place
    n = 120
    res = block_chain_mixing(n, BiasMatrix.constant(n, 0.75),
                             LocalizationVector.constant(n, 12),
                             BlockSchedule.west_east(n), replicas=4,
                             step_cap=20, seed=12)
    assert [round(pt.estimate * 4) for pt in res.series[:10]] == \
        [0, 0, 0, 1, 2, 4, 4, 4, 4, 4]
    assert res.meta == {"max_time": 6, "median_time": 5.5}
    text = json.dumps(res.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "e327a3d832a43b7fdb99c0df6f5205f08c0f9f262f394eef5da035b31d26b228"


# the twin block chains of a random-eps instance whose blocks draw through
# the band DP (window width 13), each sub-instance's DP built once per process
def test_block_chain_mixing_pinned_at_random_eps():
    n = 120
    p = BiasMatrix.random_biased(n, 0.25, np.random.default_rng(0))
    ell = LocalizationVector.constant(n, 6)
    for jobs in (1, 2):
        res = block_chain_mixing(n, p, ell, BlockSchedule.west_east(n),
                                 replicas=4, step_cap=4, seed=13, jobs=jobs)
        assert [round(pt.estimate * 4) for pt in res.series] == [0, 3, 4, 4]
        assert res.meta == {"max_time": 3, "median_time": 2.0}
        text = json.dumps(res.to_json_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "16e134da600bc8e863cc23e9d6652f904820ef11e0c2df009a8a8689de59e2dd"


# the bench's blockdyn instance (n = 300, ell = 12, constant q = 0.75), so
# that a change to the twin block driver's work shows whether it moved a
# meeting time
BENCH_SHAPED_PINS = {
    26: ([0, 4, 5, 9, 10], {"max_time": 5, "median_time": 3.5},
         "86245117b7a76b6fa3171e635588b11f8ed269929f3b08c8b2019c7396c6301b"),
    27: ([0, 6, 8, 10, 10], {"max_time": 4, "median_time": 2.0},
         "d8d6e64d1dba989a90dee29bf2f04f528308cc8a030b6ddc2d1e8ff17b4b1c6c"),
}


@pytest.mark.parametrize("seed", sorted(BENCH_SHAPED_PINS))
def test_block_chain_mixing_pinned_at_the_bench_instance(seed):
    n = 300
    res = block_chain_mixing(n, BiasMatrix.constant(n, 0.75),
                             LocalizationVector.constant(n, 12),
                             BlockSchedule.west_east(n), replicas=10,
                             step_cap=50, success_frac=0.95, seed=seed)
    counts, meta, digest = BENCH_SHAPED_PINS[seed]
    assert [round(pt.estimate * 10) for pt in res.series[:5]] == counts
    assert res.meta == meta
    text = json.dumps(res.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("key", ["replicas", "step_cap", "jobs"])
@pytest.mark.parametrize("value", [0, -1])
def test_block_chain_mixing_refuses_counts_below_one(key, value,
                                                     monkeypatch):
    # replicas = 0 used to record a NaN fraction, step_cap <= 0 a failed
    # verdict, and jobs = 0 ran as 1
    def no_work(ell):
        raise AssertionError("work began before the refusal")

    monkeypatch.setattr(experiments, "max_localized_state", no_work)
    n = 12
    with pytest.raises(ContractError, match=f"{key} must be >= 1"):
        block_chain_mixing(n, BiasMatrix.constant(n, 0.75),
                           LocalizationVector.constant(n, 3),
                           BlockSchedule.west_east(n), **{key: value})


@pytest.mark.parametrize("key", ["replicas", "step_cap", "jobs"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "4", None])
def test_block_chain_mixing_refuses_counts_that_are_not_integers(key, value,
                                                                 monkeypatch):
    # replicas = 2.5 used to raise TypeError from range
    def no_work(ell):
        raise AssertionError("work began before the refusal")

    monkeypatch.setattr(experiments, "max_localized_state", no_work)
    n = 12
    with pytest.raises(ContractError, match=f"{key} must be an integer"):
        block_chain_mixing(n, BiasMatrix.constant(n, 0.75),
                           LocalizationVector.constant(n, 3),
                           BlockSchedule.west_east(n), **{key: value})


@pytest.mark.parametrize("value", [-1.0, 0.0, 2.0, math.nan])
def test_block_chain_mixing_refuses_a_success_frac_outside_the_unit_interval(
        value, monkeypatch):
    # -1 used to pass vacuously, and 2.0 and NaN to record a failed verdict
    def no_work(ell):
        raise AssertionError("work began before the refusal")

    monkeypatch.setattr(experiments, "max_localized_state", no_work)
    n = 12
    with pytest.raises(ContractError, match=r"success_frac must lie in \(0, 1\]"):
        block_chain_mixing(n, BiasMatrix.constant(n, 0.75),
                           LocalizationVector.constant(n, 3),
                           BlockSchedule.west_east(n), success_frac=value)


class _RecordedCache(banddp.SamplerCache):
    made = []

    def __init__(self):
        super().__init__()
        self.made.append(self)


def _cached_run(monkeypatch, n, p, ell, **kwargs):
    """block_chain_mixing's JSON record and the run's sampler cache."""
    _RecordedCache.made = []
    monkeypatch.setattr(experiments, "SamplerCache", _RecordedCache)
    res = block_chain_mixing(n, p, ell, BlockSchedule.west_east(n), **kwargs)
    (cache,) = _RecordedCache.made
    return res.to_json_dict(), cache


def _one_shot_run(monkeypatch, n, p, ell, **kwargs):
    """block_chain_mixing's JSON record with a fresh sampler cache for every
    block update."""
    real = chains.heat_bath_block_sample
    monkeypatch.setattr(
        chains, "heat_bath_block_sample",
        lambda sigma, block, p, ell, rng, cache=None: real(sigma, block, p,
                                                           ell, rng))
    res = block_chain_mixing(n, p, ell, BlockSchedule.west_east(n), **kwargs)
    monkeypatch.setattr(chains, "heat_bath_block_sample", real)
    return res.to_json_dict()


def _cache_case(case):
    if case == "band-dp":       # random-eps, sub-windows of width 9
        n = 40
        return (n, BiasMatrix.random_biased(n, 0.25, np.random.default_rng(1)),
                LocalizationVector.constant(n, 4))
    if case == "mallows":       # constant q, sub-windows of width 19
        n, q, width = 30, 0.75, 9
    else:   # sub-windows of width 17 that accept few rows
        n, q, width = 24, 0.55, 8
    return n, BiasMatrix.constant(n, q), LocalizationVector.constant(n, width)


@pytest.mark.parametrize("case", ["mallows", "band-dp", "give-up"])
def test_block_chain_mixing_cache_matches_one_shot_updates(case,
                                                           monkeypatch):
    give_ups = []
    real = banddp.MallowsRejectionSampler._give_up

    def counted(self, rng, size):
        give_ups.append(size)
        return real(self, rng, size)

    monkeypatch.setattr(banddp.MallowsRejectionSampler, "_give_up", counted)
    if case == "give-up":   # one try of 32 rows: some samplers give up
        monkeypatch.setattr(banddp.MallowsRejectionSampler, "_MAX_TRIES", 1)
    n, p, ell = _cache_case(case)
    kwargs = dict(replicas=4, step_cap=6, seed=11)
    cached, cache = _cached_run(monkeypatch, n, p, ell, **kwargs)
    assert cached == _one_shot_run(monkeypatch, n, p, ell, **kwargs)
    assert cache.hits > 0 and cache.misses > 0
    # a sampler that gave up on its strategy is not kept
    strategies = {sampler.strategy for sampler, _ in cache._entries.values()}
    assert strategies == {"band-dp" if case == "band-dp"
                          else "mallows-rejection"}
    assert (len(give_ups) > 0) == (case == "give-up")


# a Mallows sampler here holds a few thousand bytes, so its budget is half
# what the roomy run keeps (None)
@pytest.mark.parametrize("case, budget", [("mallows", None),
                                          ("band-dp", 100000)])
def test_block_chain_mixing_cache_stays_in_its_budget(case, budget,
                                                      monkeypatch):
    n, p, ell = _cache_case(case)
    kwargs = dict(replicas=4, step_cap=6, seed=11)
    roomy_run, roomy = _cached_run(monkeypatch, n, p, ell, **kwargs)
    budget = budget or roomy.nbytes // 2
    monkeypatch.setattr(banddp, "MEMORY_BUDGET", budget)
    tight_run, tight = _cached_run(monkeypatch, n, p, ell, **kwargs)
    assert tight_run == roomy_run
    # the small budget holds fewer samplers, so more updates build one
    assert roomy.nbytes > budget >= tight.nbytes > 0
    assert tight.misses > roomy.misses and tight.hits > 0


def test_block_chain_mixing_exact_gap_recorded():
    n = 6
    p = BiasMatrix.constant(n, 0.7)
    ell = LocalizationVector.constant(n, 2)
    res = block_chain_mixing(n, p, ell, BlockSchedule.west_east(n),
                             replicas=10, step_cap=30, seed=10)
    assert "exact_inverse_block_gap" in res.meta
    assert res.meta["exact_inverse_block_gap"] >= 1.0



def test_block_chain_mixing_skips_a_kernel_above_the_budget(monkeypatch):
    # window 5 keeps all 6! states: a dense kernel of 4,147,200 bytes
    n = 6
    monkeypatch.setattr(chains, "MEMORY_BUDGET", 8 * 720 ** 2 - 1)
    res = block_chain_mixing(n, BiasMatrix.constant(n, 0.7),
                             LocalizationVector.constant(n, 5),
                             BlockSchedule.west_east(n), replicas=4,
                             step_cap=30, seed=10)
    assert "exact_inverse_block_gap" not in res.meta


def test_burn_in_profile_identity_start_stays_local():
    p = BiasMatrix.constant(48, 0.75)
    res = burn_in_profile(48, p, "identity", T=4 * 48 * 48, replicas=30,
                          seed=11)
    assert res.verdict.passed
    assert res.series[-1].estimate <= 6.0 * math.log(48)


@pytest.mark.parametrize("checkpoints", [[3], [], [0, 3, 20]])
def test_burn_in_profile_reads_its_verdict_at_T(checkpoints):
    # checkpoints=[3] used to read final_quantile and frac_above at t = 3,
    # and checkpoints=[] to raise max()'s ValueError on an empty sequence
    n, T = 8, 512
    p = BiasMatrix.constant(n, 0.75)
    res = burn_in_profile(n, p, T=T, checkpoints=checkpoints, replicas=20,
                          seed=5)
    # the checkpoints do not touch the stream, so T reads as in a default run
    default = burn_in_profile(n, p, T=T, replicas=20, seed=5)
    assert res.meta["checkpoints"] == sorted({*checkpoints, T})
    assert res.series[-1].x == T
    assert res.verdict.as_dict() == default.verdict.as_dict()
    assert res.meta["final_mean"] == default.meta["final_mean"]
    if 3 in checkpoints:
        # from the reversal, three steps leave the labels far from home
        at3 = next(pt for pt in res.series if pt.x == 3)
        assert at3.estimate > res.verdict.details["final_quantile"]


def test_burn_in_profile_refuses_a_bias_matrix_of_another_size():
    # this call used to end in numpy's broadcast ValueError
    with pytest.raises(ContractError, match="p is for n = 6, but the start "
                                            "rows have n = 4"):
        burn_in_profile(4, BiasMatrix.constant(6, 0.7), "reversal", T=10,
                        replicas=2)


@pytest.mark.parametrize("run, message", [
    # a NaN stderr, which is no valid JSON
    (lambda p: burn_in_profile(4, p, T=10, replicas=1),
     "replicas must be >= 2"),
    # numpy's ValueError
    (lambda p: burn_in_profile(4, p, T=10, replicas=2, quantile=1.0),
     r"quantile must lie in \(0, 1\)"),
    (lambda p: burn_in_profile(4, p, T=10, replicas=2, quantile=math.nan),
     r"quantile must lie in \(0, 1\)"),
    # ZeroDivisionError
    (lambda p: lower_bound_experiment(4, p, replicas=0),
     "replicas must be >= 1"),
])
def test_ensemble_experiments_refuse_what_the_cli_refuses(monkeypatch, run,
                                                          message):
    def never(*args, **kwargs):
        raise AssertionError("stepped before the contract check")

    monkeypatch.setattr(experiments, "ensemble_chain_run", never)
    with pytest.raises(ContractError, match=message):
        run(BiasMatrix.constant(4, 0.7))


Q75 = {"kind": "constant-q", "q": 0.75}
SPATIAL = (BiasMatrix.constant(8, 0.75), LocalizationVector.constant(8, 2),
           BoundaryAssignment(8, (1,), ()), BoundaryAssignment(8, (2,), ()))


@pytest.mark.parametrize("run, message", [
    # coupling mode recorded a NaN stderr at budget 1, and NaN means and a
    # silently failed verdict at budget 0
    *[(lambda budget=budget: mixing_scaling([8, 12], Q75, budget=budget),
       "coupling mode needs budget >= 2") for budget in (0, 1)],
    (lambda: mixing_scaling([8, 12], Q75, method="statistic", budget=1),
     "statistic mode needs budget >= 2"),
    # the sampled estimators recorded NaN estimates on no draws
    (lambda: localization_tail_check(6, BiasMatrix.constant(6, 0.75),
                                     samples=0, mode="sampled"),
     "samples must be >= 1"),
    (lambda: disconnect_probability(BiasMatrix.constant(6, 0.75),
                                    mode="sampled", budget=0),
     "budget must be >= 1"),
    (lambda: spatial_decay_curve(*SPATIAL, [1, 2], mode="sampled", budget=0),
     "budget must be >= 1"),
    (lambda: banddp.check_draw_memory(-1, 6, "budget"),
     "budget must be >= 1, got -1"),
])
def test_sampled_estimators_refuse_draw_counts_they_cannot_use(
        monkeypatch, run, message):
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the draw count was checked")

    for name in ("derive_rng", "exact_localized_sampler", "BandDP",
                 "twin_chain_coupling_run", "_label_one_lower_bound"):
        monkeypatch.setattr(experiments, name, no_work)
    with pytest.raises(ContractError, match=message):
        run()


def test_result_records_are_deterministic():
    p = BiasMatrix.constant(5, 0.7)
    a = localization_tail_check(5, p, None, mode="exact").to_json_dict()
    b = localization_tail_check(5, p, None, mode="exact").to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# JSON values for params, meta and verdict details: non-ASCII text, every
# float, and "series" as a nested key
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.just("series") | st.text(), inner,
                                     max_size=3)),
    max_leaves=8)
JSON_DICTS = st.dictionaries(st.just("series") | st.text(), JSON_VALUES,
                             max_size=4)
RESULTS = st.builds(
    ExperimentResult, st.text(), st.text(), JSON_DICTS,
    st.lists(st.builds(SeriesPoint, st.floats(), st.floats(), st.floats(),
                       st.integers()), max_size=12),
    st.builds(Verdict, st.booleans(), st.text(), JSON_DICTS), JSON_DICTS)
EDGE_RESULT = ExperimentResult(
    "exäct", "fingerprint", {"series": [float("nan"), -0.0], "ключ": "значение"},
    [SeriesPoint(0, float("nan"), float("inf"), 1),
     SeriesPoint(-0.0, 5e-324, float("-inf"), 0),
     SeriesPoint(2.2250738585072014e-308, -1e-310, 1e300, 7)],
    Verdict(False, "bound ≤ 1", {"series": {"x": float("inf")}}),
    {"series": "omitted"})


@settings(max_examples=200, deadline=None)
@given(res=RESULTS)
@example(res=EDGE_RESULT)
@example(res=ExperimentResult("e", "f", {}, [], Verdict(True, "b")))
def test_write_matches_json_dump_and_the_row_loop(res):
    # the JSON bytes are json's own and the CSV rows those of one f-string
    # per point
    with tempfile.TemporaryDirectory() as tmp:
        jpath, cpath = res.write(os.path.join(tmp, "out"), "r")
        with open(jpath) as fh:
            written_json = fh.read()
        with open(cpath) as fh:
            written_csv = fh.read()
    expected = io.StringIO()
    json.dump(res.to_json_dict(), expected, sort_keys=True, indent=1)
    expected.write("\n")
    assert written_json == expected.getvalue()
    assert written_csv == "x,estimate,stderr\n" + "".join(
        f"{pt.x!r},{pt.estimate!r},{pt.stderr!r}\n" for pt in res.series)


def test_regression_instances_fixed_seed():
    a = regression_instances(count=10)
    b = regression_instances(count=10)
    for ia, ib in zip(a, b):
        assert ia["p"] == ib["p"]
        assert (ia["ell"] is None) == (ib["ell"] is None)
        if ia["ell"] is not None:
            assert ia["ell"] == ib["ell"]
