import hashlib
import io
import itertools
import json
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atshuffle import chains, experiments
from atshuffle.chains import BlockSchedule, derive_rng, experiment_id
from atshuffle.errors import ContractError
from atshuffle.experiments import (ExperimentResult, SeriesPoint, Verdict,
                                   asep_tail_check, block_chain_mixing,
                                   block_decomposition_check, burn_in_profile,
                                   disconnect_probability,
                                   disconnect_product_bound,
                                   localization_tail_check,
                                   lower_bound_experiment, mixing_scaling,
                                   regression_instances, spatial_decay_curve)
from atshuffle.banddp import BandDP
from atshuffle.measure import enumerate_stationary, tv_distance
from atshuffle.perms import (BiasMatrix, BoundaryAssignment,
                             LocalizationVector, Permutation,
                             instance_fingerprint,
                             random_admissible_localization)


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


@pytest.mark.parametrize("method, ns", [("coupling", [16]),
                                        ("coupling", [16, 16]),
                                        ("statistic", [8, 8])])
def test_mixing_scaling_slope_modes_need_two_sizes(method, ns):
    # one size used to fit a slope on a single point and record NaN
    with pytest.raises(ContractError, match="two distinct sizes"):
        mixing_scaling(ns, {"kind": "constant-q", "q": 0.75}, method=method,
                       budget=4)


def test_lower_bound_experiment_small():
    p = BiasMatrix.constant(64, 0.75)
    res = lower_bound_experiment(64, p, eta=0.5, replicas=120, seed=8,
                                 ref_min=0.95)
    assert res.verdict.passed, res.verdict.details
    assert res.verdict.details["stationary_certified"] > 0.99


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
# text round-trip; ell = 9 makes the heat-bath blocks use the Mallows sampler
BLOCK_PINS = {
    3: ("aa1fea2d5e43087270077f6e980f8a2cc111c79c8bdb514b3036c67fc20dfd89",
        [0, 5, 5, 7, 8, 8, 8, 8, 8, 8], {"max_time": 5, "median_time": 2.0}),
    9: ("f3e1eb8c9c0a63daa356cb6410076bde0d0553267954612477c4fed5e2addd76",
        [0, 3, 4, 5, 6, 8, 8, 8, 8, 8], {"max_time": 6, "median_time": 3.5}),
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
    # recorded before heat-bath blocks built trusted sub-instances
    n = 120
    res = block_chain_mixing(n, BiasMatrix.constant(n, 0.75),
                             LocalizationVector.constant(n, 12),
                             BlockSchedule.west_east(n), replicas=4,
                             step_cap=20, seed=12)
    assert [round(pt.estimate * 4) for pt in res.series[:10]] == \
        [0, 0, 0, 1, 1, 2, 3, 3, 4, 4]
    assert res.meta == {"max_time": 9, "median_time": 6.5}
    text = json.dumps(res.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "07313a120139c60be36409d8dd46abaaeb26db585f8be7489b47a92fdf6aefd7"


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
@given(res=RESULTS, chunk=st.integers(1, 4))
@example(res=EDGE_RESULT, chunk=1)
@example(res=EDGE_RESULT, chunk=4096)
@example(res=ExperimentResult("e", "f", {}, [], Verdict(True, "b")), chunk=1)
def test_write_matches_json_dump_and_the_row_loop(res, chunk):
    # the series is written in chunks of any size; the JSON bytes are json's
    # own and the CSV rows those of one f-string per point
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(experiments, "_SERIES_CHUNK", chunk):
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
