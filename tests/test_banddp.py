import functools
import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import block_oracle
from banddp_oracle import (ReferenceBandDP, full_batch_draw_rows,
                           random_bias_with_certain_pairs)
from chain_oracle import random_admissible_localization
from atshuffle import banddp
from atshuffle.banddp import (BandDP, BandDPSampler, EnumerationSampler,
                              MallowsRejectionSampler, SamplerCache,
                              band_dp_conditional_marginal, band_dp_partition,
                              band_dp_sample, exact_localized_sampler,
                              heat_bath_block_rows, heat_bath_block_sample)
from atshuffle.errors import CapExceeded, ContractError, EmptySupport
from atshuffle.measure import enumerate_stationary, log_weight
from atshuffle.perms import (BiasMatrix, BoundaryAssignment,
                             LocalizationVector, Permutation, is_localized,
                             localized_rows, max_localized_state)


def brute_conditional(mu, pins):
    tot = {}
    Z = 0.0
    for s, pr in zip(mu.support, mu.probs):
        if all(s[pos - 1] == v for pos, v in pins.items()):
            Z += pr
    return Z


def test_partition_matches_enumeration_random_sweep():
    rng = np.random.default_rng(10)
    for trial in range(40):
        n = int(rng.integers(2, 8))
        fam = trial % 3
        if fam == 0:
            p = BiasMatrix.constant(n, 0.6)
        elif fam == 1:
            p = BiasMatrix.random_biased(n, 0.5, rng)
        else:
            p = BiasMatrix.totally_asymmetric(n)
        ell = random_admissible_localization(n, rng, max_ell=3)
        mu = enumerate_stationary(n, p, ell)
        assert band_dp_partition(p, ell) == pytest.approx(mu.logZ, abs=1e-9)


def test_partition_with_extreme_biases():
    # paths into one word differ by hundreds of log units here, so the
    # log-sum-exp must shift each word by its own maximum
    for q in (1e-300, 1e-200):
        p = BiasMatrix.constant(8, q)
        ell = LocalizationVector.constant(8, 3)
        assert band_dp_partition(p, ell) == pytest.approx(
            enumerate_stationary(8, p, ell).logZ, rel=1e-12)


def test_partition_unrestricted_and_frozen():
    p = BiasMatrix.constant(3, 0.6)
    assert band_dp_partition(p, LocalizationVector.constant(3, 3)) == \
        pytest.approx(math.log(0.76), abs=1e-12)
    rng = np.random.default_rng(11)
    p5 = BiasMatrix.random_biased(5, 0.5, rng)
    ell0 = LocalizationVector.constant(5, 0)
    assert band_dp_partition(p5, ell0) == \
        pytest.approx(log_weight(Permutation.identity(5), p5), abs=1e-12)


def test_window_cap():
    p = BiasMatrix.constant(30, 0.6)
    with pytest.raises(CapExceeded):
        band_dp_partition(p, LocalizationVector.constant(30, 14), window_cap=22)


def test_sampler_determinism_and_membership():
    rng = np.random.default_rng(12)
    p = BiasMatrix.random_biased(6, 0.5, rng)
    ell = LocalizationVector.constant(6, 2)
    a = band_dp_sample(p, ell, np.random.default_rng(3))
    b = band_dp_sample(p, ell, np.random.default_rng(3))
    c = band_dp_sample(p, ell, np.random.default_rng(4))
    assert a.to_tuple() == b.to_tuple()
    assert a.to_tuple() != c.to_tuple() or True  # different seeds may collide
    assert is_localized(a, ell)
    # frozen window: always identity
    ell0 = LocalizationVector.constant(6, 0)
    for seed in range(5):
        assert band_dp_sample(p, ell0, np.random.default_rng(seed)).to_tuple() \
            == tuple(range(1, 7))


def chi2_pvalue(rows, mu, pins=None):
    """p-value of Pearson's chi-square of rows against mu conditioned on the
    pins, over the states expected at least 5 times; every row must be a
    state of positive conditional mass."""
    keep = np.ones(len(mu), dtype=bool)
    for pos, label in (pins or {}).items():
        keep &= mu.support[:, pos - 1] == label
    cnt = Counter(map(tuple, rows.tolist()))
    support = list(map(tuple, mu.support[keep].tolist()))
    assert set(cnt) <= set(support)
    observed = np.array([cnt.get(s, 0) for s in support], dtype=float)
    expected = mu.probs[keep] / mu.probs[keep].sum() * len(rows)
    big = expected >= 5
    chi2 = float(np.sum((observed[big] - expected[big]) ** 2 / expected[big]))
    return 1.0 - stats.chi2.cdf(chi2, int(big.sum()) - 1)


def test_sampler_goodness_of_fit():
    # n=6, q=0.7, ell=2: one million draws against the enumerated law
    p = BiasMatrix.constant(6, 0.7)
    ell = LocalizationVector.constant(6, 2)
    mu = enumerate_stationary(6, p, ell)
    rows = BandDP(p, ell).sample_rows(np.random.default_rng(13), 10 ** 6)
    assert chi2_pvalue(rows, mu) > 1e-3


@pytest.mark.parametrize("n, width, pins", [
    (7, 2, {}), (8, 2, {}), (7, 3, {2: 3, 6: 5}), (8, 2, {1: 2, 8: 7})])
def test_backward_sampled_rows_follow_the_enumerated_law(n, width, pins):
    # random-eps 0.5 instances, windowed and pinned, 200,000 draws each
    p = BiasMatrix.random_biased(n, 0.5, np.random.default_rng(n + width))
    ell = LocalizationVector.constant(n, width)
    rows = BandDP(p, ell, pins=pins).sample_rows(np.random.default_rng(17),
                                                 200000)
    assert chi2_pvalue(rows, enumerate_stationary(n, p, ell), pins) > 1e-3


def test_draws_never_build_the_backward_pass(monkeypatch):
    def refuse(self):
        raise AssertionError("a draw built the backward pass")

    monkeypatch.setattr(BandDP, "_backward", refuse)
    n = 20
    p = BiasMatrix.random_biased(n, 0.5, np.random.default_rng(3))
    ell = LocalizationVector.constant(n, 3)
    rng = np.random.default_rng(4)
    row = BandDP(p, ell).sample_rows(rng, 1)[0]
    BandDP(p, ell, pins={5: int(row[4])}).sample_rows(rng, 3)
    band_dp_sample(p, ell, rng)
    band_dp_sample(p, ell, rng, size=2)
    BandDPSampler(p, ell).draw_rows(rng, 2)
    # a 10-position block at ell = 3 draws through a band DP sampler
    cache = SamplerCache()
    heat_bath_block_rows(Permutation(row), (6, 15), p, ell, rng, 2, cache)
    assert [s.strategy for s, _ in cache._entries.values()] == ["band-dp"]
    with pytest.raises(AssertionError, match="backward pass"):
        BandDP(p, ell).cut_law(4)


def test_conditional_marginal_matches_enumeration():
    p = BiasMatrix.constant(4, 0.6)
    ell = LocalizationVector.constant(4, 1)
    bnd = BoundaryAssignment(4, (1,), ())
    marg = band_dp_conditional_marginal(p, ell, bnd, (2, 3))
    mu = enumerate_stationary(4, p, ell)
    tot = {}
    Z = 0.0
    for s, pr in zip(mu.support.tolist(), mu.probs):
        if s[0] == 1:
            Z += pr
            tot[(s[1], s[2])] = tot.get((s[1], s[2]), 0.0) + pr
    for s, pr in zip(marg.support.tolist(), marg.probs):
        assert pr == pytest.approx(tot[tuple(s)] / Z, abs=1e-10)


def test_conditional_marginal_consistency_with_partition():
    # summing the full-region marginal reproduces probability one
    rng = np.random.default_rng(14)
    p = BiasMatrix.random_biased(5, 0.5, rng)
    ell = LocalizationVector.constant(5, 2)
    dp = BandDP(p, ell)
    marg = dp.region_marginal((1, 5))
    assert float(np.sum(marg.probs)) == pytest.approx(1.0, abs=1e-12)
    mu = enumerate_stationary(5, p, ell)
    for s, pr in zip(marg.support, marg.probs):
        assert pr == pytest.approx(mu.prob_of(s), abs=1e-10)


def random_window(n, rng, max_ell=3):
    """A random window, admissible or not: every lo and hi uniform on
    0..max_ell.  The identity keeps its support nonempty."""
    return LocalizationVector(rng.integers(0, max_ell + 1, n),
                              rng.integers(0, max_ell + 1, n))


def test_band_dp_takes_any_window():
    """On windows that are not admissible (a later label's window starts or
    ends before an earlier one's) as on those that are, the partition
    function and the full-region marginal are the enumerated ones, and every
    draw lies in the support."""
    rng = np.random.default_rng(34)
    admissible = 0
    for _ in range(400):
        n = int(rng.integers(2, 8))
        p = BiasMatrix.random_biased(n, 0.5, rng)
        ell = random_window(n, rng)
        admissible += ell.is_admissible()
        mu = enumerate_stationary(n, p, ell)
        dp = BandDP(p, ell)
        assert dp.log_partition() == pytest.approx(mu.logZ, rel=0, abs=1e-12)
        marg = dp.region_marginal((1, n))
        assert np.array_equal(marg.support, mu.support)
        np.testing.assert_allclose(marg.probs, mu.probs, rtol=0, atol=1e-12)
        support = set(map(tuple, mu.support.tolist()))
        assert set(map(tuple, dp.sample_rows(rng, 50).tolist())) <= support
    # 216 of the 400 windows are not admissible
    assert admissible <= 200


def cut_word(row, t, Lp, W):
    """The layer-t word of a row: bit i says whether particle t + 1 - Lp + i
    is among its first t labels, with particles below 1 placed."""
    base = t + 1 - Lp
    placed = set(row[:t])
    return sum(1 << i for i in range(W - 1)
               if base + i < 1 or base + i in placed)


def test_pinned_cut_laws_on_any_window_match_enumeration():
    """With one or two positions pinned to the labels of an enumerated
    state, every cut law is the enumerated law of the placed-set word."""
    rng = np.random.default_rng(35)
    admissible = 0
    for _ in range(250):
        n = int(rng.integers(3, 9))
        p = BiasMatrix.random_biased(n, 0.5, rng)
        ell = random_window(n, rng)
        admissible += ell.is_admissible()
        mu = enumerate_stationary(n, p, ell)
        state = mu.support[rng.integers(len(mu))]
        pins = {int(pos): int(state[pos - 1])
                for pos in rng.choice(np.arange(1, n + 1),
                                      size=int(rng.integers(1, 3)),
                                      replace=False)}
        keep = np.all([mu.support[:, pos - 1] == lab
                       for pos, lab in pins.items()], axis=0)
        rows, probs = mu.support[keep].tolist(), mu.probs[keep] / mu.probs[keep].sum()
        dp = BandDP(p, ell, pins=pins)
        for t in range(n + 1):
            law = dp.cut_law(t)
            want = {}
            for row, pr in zip(rows, probs):
                w = cut_word(row, t, dp.Lp, dp.W)
                want[w] = want.get(w, 0.0) + pr
            assert law.support[:, 0].tolist() == sorted(want)
            np.testing.assert_allclose(law.probs, [want[w] for w in sorted(want)],
                                       rtol=0, atol=1e-12)
    # 175 of the 250 windows are not admissible
    assert admissible <= 100


def test_region_marginal_cap_counts_partial_states():
    # the distinct (word, partial row) pairs after positions 3, 4, 5 and 6
    # number 12, 26, 60 and 146; the cap applies to each step
    dp = BandDP(BiasMatrix.constant(12, 0.7), LocalizationVector.constant(12, 2))
    for cap, need in ((11, 12), (59, 60), (145, 146)):
        with pytest.raises(CapExceeded,
                           match=f"needs {need} partial states, cap is {cap}"):
            dp.region_marginal((3, 6), cap_states=cap)
    assert len(dp.region_marginal((3, 6), cap_states=146).support) == 146


def test_empty_conditional_support():
    ell = LocalizationVector([0, 0, 0, 0], [2, 2, 2, 2])
    p = BiasMatrix.constant(4, 0.75)
    with pytest.raises(EmptySupport):
        BandDP(p, ell, pins={4: 2}).log_partition()


def assert_rows_follow_law(rows, mu, tol):
    """Every row lies in mu's support, and each state's share of the rows is
    within tol of its probability."""
    cnt = Counter(tuple(int(v) for v in r) for r in rows)
    support = list(map(tuple, mu.support.tolist()))
    assert set(cnt) <= set(support)
    worst = max(abs(cnt.get(s, 0) / len(rows) - pr)
                for s, pr in zip(support, mu.probs))
    assert worst < tol


def test_mallows_rejection_matches_enumeration():
    q = 0.7
    p = BiasMatrix.constant(8, q)
    ell = LocalizationVector.constant(8, 2)
    sampler = MallowsRejectionSampler(8, q, ell)
    rows = sampler.draw_rows(np.random.default_rng(15), 100000)
    mu = enumerate_stationary(8, p, ell)
    assert_rows_follow_law(rows, mu, 0.01)


# tight at the east end: labels 6, 7 and 8 may sit only at positions 6-7,
# 7-8 and 8, so the window forces them home, while labels 1 and 2 may take
# positions 1-3 and 1-4
EAST_TIGHT = LocalizationVector([0, 1, 2, 2, 2, 0, 0, 0],
                                [2, 2, 2, 2, 2, 1, 1, 0])


def test_east_tight_forced_end_batch_matches_enumeration():
    """An east-tight window draws only labels 1-5 and puts 6, 7 and 8 back
    home; one batch of 100,000 rows, decoded as slabs, follows the
    restricted law."""
    q = 0.7
    sampler = MallowsRejectionSampler(8, q, EAST_TIGHT)
    assert (sampler._west, sampler._m) == (0, 5)
    rows = sampler.draw_rows(np.random.default_rng(52), 100000)
    assert_rows_follow_law(
        rows, enumerate_stationary(8, BiasMatrix.constant(8, q), EAST_TIGHT),
        0.01)


def test_east_tight_forced_end_single_rows_match_enumeration():
    """40,000 single-row draws of the east-tight window, each stopped at its
    first placement outside the window, follow the restricted law."""
    q = 0.7
    sampler = MallowsRejectionSampler(8, q, EAST_TIGHT)
    assert (sampler._west, sampler._m) == (0, 5)
    rng = np.random.default_rng(53)
    rows = np.concatenate([sampler.draw_rows(rng, 1) for _ in range(40000)])
    assert_rows_follow_law(
        rows, enumerate_stationary(8, BiasMatrix.constant(8, q), EAST_TIGHT),
        0.01)


@pytest.mark.parametrize("q", [0.0, 0.75, 1.0])
def test_a_window_that_forces_every_label_home_draws_no_uniform(q):
    # at q = 0.75 the whole window used to be drawn and give up after 400
    # tries of 32 rows
    sampler = MallowsRejectionSampler(200, q, LocalizationVector.constant(200, 0))
    rng = np.random.default_rng(55)
    assert np.array_equal(sampler.draw_rows(rng, 3),
                          np.tile(np.arange(1, 201), (3, 1)))
    assert rng.random() == np.random.default_rng(55).random()


@pytest.mark.parametrize("west, east", [(5, 0), (0, 8), (5, 8)])
def test_forced_ends_are_put_back_around_the_middle_reference_rows(west, east):
    """Block-sized windows whose first labels may not move east or whose
    last labels may not move west, as a heat-bath block next to a placed
    boundary induces: the draws are the reference rows of the labels in
    between, in their own window on the same stream, with the forced labels
    at home; single rows, a small batch and a slab alike."""
    n = 200
    lo, hi = np.full(n, 12), np.full(n, 12)
    hi[:west] = 0
    lo[n - east:] = 0
    ell = LocalizationVector(lo, hi)
    sampler = MallowsRejectionSampler(n, 0.75, ell)
    middle = MallowsRejectionSampler(
        n - west - east, 0.75,
        LocalizationVector(lo[west:n - east], hi[west:n - east]))
    rng, ref_rng = np.random.default_rng(54), np.random.default_rng(54)
    for size in (1,) * 10 + (20, banddp.SLAB_MIN_ROWS):
        rows = sampler.draw_rows(rng, size)
        ref = reference_draws(middle, ref_rng, size)
        assert np.array_equal(rows[:, west:n - east], ref + west)
        assert np.array_equal(rows[:, :west], np.tile(np.arange(1, west + 1),
                                                      (size, 1)))
        assert np.array_equal(rows[:, n - east:],
                              np.tile(np.arange(n - east + 1, n + 1), (size, 1)))
        assert localized_rows(rows, ell).all()
    assert rng.random() == ref_rng.random()


def test_a_single_row_stops_at_its_first_placement_outside_the_window():
    sampler = MallowsRejectionSampler(8, 0.7, LocalizationVector.constant(8, 1))
    # label 1 at position 1, then label 4 at position 2, outside [3, 5]
    assert sampler._place([0, 2, 0, 0, 0, 0, 0, 0]) is None
    assert sampler._place([1, 0, 0, 0, 0, 0, 0, 0]) == [2, 1, 3, 4, 5, 6, 7, 8]


def test_mallows_degenerate_cases():
    ell = LocalizationVector.constant(6, 6)
    tas = MallowsRejectionSampler(6, 1.0, ell)
    rows = tas.draw_rows(np.random.default_rng(0), 8)
    assert np.all(rows == np.arange(1, 7))
    rev = MallowsRejectionSampler(6, 0.0,
                                  LocalizationVector.constant(6, math.inf))
    rows = rev.draw_rows(np.random.default_rng(0), 3)
    assert np.all(rows == np.arange(6, 0, -1))
    # the reversal is the only draw and lies outside a narrow window
    narrow = MallowsRejectionSampler(6, 0.0, LocalizationVector.constant(6, 2))
    rng = np.random.default_rng(0)
    with pytest.raises(CapExceeded):
        narrow.draw_rows(rng, 1)
    assert rng.random() == np.random.default_rng(0).random()


# sha256 of the int64 rows and the generator's next uniform after
# draw_rows(default_rng(123), size) at n = 40, q = 0.7, recorded before the
# rows were built lazily: the stream and the accepted rows must not change
MALLOWS_PINS = {
    (None, 1): ("4435f196ec7fe3b284fd52e3238de403c3f6a014a3ecdd37469292275e9e567f",
                0.11283803181979435),
    (None, 500): ("ec809747c7a0bd7f6865f50fb7b43e843e3cfaceaa2141ec9a3b7470b7c2e242",
                  0.8745306172473346),
    (4, 1): ("a60bbd52158acac723c23b7a9e4e71c63b735352f77b8f194e74e12bb329f0d1",
             0.11283803181979435),
    (4, 500): ("7596c9e11c572be605c7d3483fdb457adf45a41a2bbd45029a9f0582960cf98e",
               0.9762651676676615),
    # more rows than one conversion chunk
    (4, 5000): ("672c5cb5e8151f84cc39a18841708f59e960d534f167fe6aaee5ec4ac9277420",
                0.5310215797370997),
}


@pytest.mark.parametrize("ell_width, size", sorted(MALLOWS_PINS, key=str))
def test_mallows_pinned_stream(ell_width, size):
    ell = None if ell_width is None else LocalizationVector.constant(40, ell_width)
    rng = np.random.default_rng(123)
    rows = MallowsRejectionSampler(40, 0.7, ell).draw_rows(rng, size)
    digest, next_u = MALLOWS_PINS[(ell_width, size)]
    assert rows.dtype == np.int64 and rows.shape == (size, 40)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == digest
    assert rng.random() == next_u


def decoded(sampler, u):
    """The accepted rows of a block of uniforms, through the path draw_rows
    takes for its row count: one slab at SLAB_MIN_ROWS rows or more, one row
    at a time below."""
    if len(u) >= banddp.SLAB_MIN_ROWS:
        return sampler._slab(u)
    rows, read = sampler._single_rows(u, len(u))
    assert read == len(u)
    return np.array(rows, dtype=np.int64).reshape(-1, sampler.n)


def uniforms_near_ties(cdfs, rng, size):
    """(size, n) uniforms, each column holding its position's CDF entries
    below 1, their neighbours one ulp either side, 0, the largest uniform
    below 1 and random uniforms after them, in increasing order.  At these
    points the closed-form ranks and the table ranks may disagree."""
    n = len(cdfs)
    u = rng.random((size, n))
    for pos in range(n):
        cdf = cdfs[n - pos - 1]
        ties = cdf[cdf < 1.0]
        near = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], ties,
                               np.nextafter(ties, 0.0), np.nextafter(ties, 1.0)])
        near = near[(near >= 0.0) & (near < 1.0)][:size]
        u[:near.size, pos] = near
    u.sort(axis=0)
    return u


@settings(max_examples=60, deadline=None)
@given(n=st.integers(8, 80), q=st.floats(0.5, 0.95),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mallows_rank_paths_match_reference(n, q, seed):
    """Both paths, each chosen by the chunk's row count, give the reference
    rows of the cumsum tables on the same random uniforms."""
    sampler = MallowsRejectionSampler(n, q, None)
    u = np.random.default_rng(seed).random((banddp.SLAB_MIN_ROWS, n))
    want = block_oracle.mallows_rows(block_oracle.mallows_cdfs(n, q), u)
    # one slab, the largest guessed chunk, single rows
    for size in (banddp.SLAB_MIN_ROWS, banddp.SLAB_MIN_ROWS - 1):
        assert np.array_equal(decoded(sampler, u[:size]), want[:size])
    for r in range(8):
        assert np.array_equal(decoded(sampler, u[r:r + 1]), want[r:r + 1])


@pytest.mark.parametrize("q", [0.3, 0.5, 0.75, 0.999])
@pytest.mark.parametrize("n", [8, 255, 300])
def test_mallows_slab_ranks_are_the_column_ranks(n, q, monkeypatch):
    """A slab of SLAB_MIN_ROWS rows of random uniforms is decoded from the
    tables' column searchsorted ranks, in the smallest unsigned dtype that
    holds n - 1."""
    sampler = MallowsRejectionSampler(n, q, None)
    cdfs = block_oracle.mallows_cdfs(n, q)
    u = np.random.default_rng(n).random((banddp.SLAB_MIN_ROWS, n))
    slabs = []
    slab_rows = banddp._slab_rows
    monkeypatch.setattr(banddp, "_slab_rows",
                        lambda ranks: slabs.append(ranks.copy()) or
                        slab_rows(ranks))
    rows = sampler._slab(u)
    assert len(slabs) == 1 and slabs[0].dtype == np.min_scalar_type(n - 1)
    assert np.array_equal(slabs[0], block_oracle.mallows_ranks(cdfs, u).T)
    assert np.array_equal(rows, block_oracle.mallows_rows(cdfs, u))


@pytest.mark.parametrize("q", [0.3, 0.5, 0.51, 0.75, 0.999])
@pytest.mark.parametrize("n", [8, 255, 256, 362, 363, 500])
def test_mallows_single_rows_match_the_column_path(n, q):
    """The closed-form ranks are the tables' column searchsorted ranks on
    shared random uniforms, and single rows are the reference rows."""
    sampler = MallowsRejectionSampler(n, q, None)
    cdfs = block_oracle.mallows_cdfs(n, q)
    u = np.random.default_rng(n).random((40, n))
    want = block_oracle.mallows_rows(cdfs, u)
    for r in range(len(u)):
        assert np.array_equal(decoded(sampler, u[r:r + 1]), want[r:r + 1])
    assert np.array_equal(sampler._ranks(u), block_oracle.mallows_ranks(cdfs, u))


def assert_single_row_ranks_are_the_table_ranks(n, q, rows, seed):
    """The ranks of rows single rows of random uniforms, one row at a time,
    are the tables' column searchsorted ranks."""
    sampler = MallowsRejectionSampler(n, q, None)
    u = np.random.default_rng(seed).random((rows, n))
    ranks = block_oracle.mallows_ranks(block_oracle.mallows_cdfs(n, q), u)
    for r in range(rows):
        assert np.array_equal(sampler._ranks(u[r:r + 1]), ranks[r:r + 1])


def test_mallows_guesses_hold_at_q_one_half():
    """At phi = 1 the rank is floor(u m): 300 single rows at n = 300 (88,075
    of their 90,000 entries were wrong when every guess was 0)."""
    assert_single_row_ranks_are_the_table_ranks(300, 0.5, 300, 36)


def test_mallows_guesses_hold_below_q_one_half():
    """At phi > 1 the rank is taken from phi^-m, which cannot overflow: 20
    single rows at n = 900, q = 0.3 (1,243 of their 18,000 entries, all at
    positions <= 62, were wrong while the guess used phi^m)."""
    assert_single_row_ranks_are_the_table_ranks(900, 0.3, 20, 37)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.51, 0.75, 0.999])
@pytest.mark.parametrize("n", [2, 5, 30])
def test_mallows_ranks_are_the_exact_rational_ranks(n, q):
    """For m <= 30 labels left, the closed-form rank of a random uniform is
    its rank on the exact rational CDF."""
    sampler = MallowsRejectionSampler(n, q, None)
    u = np.random.default_rng(n).random((200, n))
    assert np.array_equal(sampler._ranks(u), block_oracle.exact_mallows_ranks(q, u))


@pytest.mark.parametrize("q", [0.3, 0.5, 0.6, 0.75, 0.999])
@pytest.mark.parametrize("n", [8, 300])
def test_mallows_ranks_never_decrease_as_u_grows(n, q):
    """On uniforms at and around every table entry, in increasing order down
    each column, the ranks never decrease and stay in [0, m - 1]."""
    sampler = MallowsRejectionSampler(n, q, None)
    u = uniforms_near_ties(block_oracle.mallows_cdfs(n, q),
                           np.random.default_rng(n), 3 * n + 200)
    ranks = sampler._ranks(u)
    assert np.all(np.diff(ranks, axis=0) >= 0)
    assert np.all((ranks >= 0) & (ranks <= np.arange(n - 1, -1, -1)))


@pytest.mark.parametrize("n, q", [(300, 0.75), (300, 0.5), (900, 0.3),
                                  (400, 0.1)])
def test_mallows_rank_of_a_zero_uniform_is_zero(n, q):
    """u = 0 takes rank 0 everywhere, the identity row, on both paths; at
    q < 1/2 that includes the positions where phi^-m underflows to 0."""
    sampler = MallowsRejectionSampler(n, q, None)
    if q < 0.5:
        assert sampler._spread[0] == -1.0
    u = np.zeros((banddp.SLAB_MIN_ROWS, n))
    for size in (1, banddp.SLAB_MIN_ROWS):
        assert np.array_equal(decoded(sampler, u[:size]),
                              np.tile(np.arange(1, n + 1), (size, 1)))


def test_mallows_ranks_at_the_largest_uniform_below_one():
    """The largest uniform below 1 takes a rank that names a label at every
    position, the same on both paths, and for m <= 30 labels left the rank
    of the exact rational CDF.  (At n = 300, q = 0.6 the tables' rounded
    entries give it rank m - 1 at 263 of the 300 positions; the closed-form
    ranks stop at 90, where the geometric tail falls below an ulp of 1.)"""
    top = np.nextafter(1.0, 0.0)
    for q in (0.3, 0.5, 0.6, 0.75, 0.999):
        sampler = MallowsRejectionSampler(30, q, None)
        u = np.full((1, 30), top)
        assert np.array_equal(sampler._ranks(u),
                              block_oracle.exact_mallows_ranks(q, u))
    sampler = MallowsRejectionSampler(300, 0.6, None)
    u = np.full((banddp.SLAB_MIN_ROWS, 300), top)
    row = decoded(sampler, u[:1])
    assert np.array_equal(np.sort(row[0]), np.arange(1, 301))
    assert np.array_equal(decoded(sampler, u), np.tile(row, (len(u), 1)))


@pytest.mark.parametrize("q", [0.3, 0.5, 0.75, 0.999])
def test_mallows_slab_rows_are_the_single_rows(q):
    """A slab and the row loop decode the same rows from the same uniforms,
    including those at and around table entries."""
    n = 120
    sampler = MallowsRejectionSampler(n, q, None)
    u = uniforms_near_ties(block_oracle.mallows_cdfs(n, q),
                           np.random.default_rng(7), banddp.SLAB_MIN_ROWS)
    u = np.random.default_rng(8).permuted(u, axis=0)
    singles = np.concatenate([decoded(sampler, u[r:r + 1])
                              for r in range(len(u))])
    assert np.array_equal(decoded(sampler, u), singles)


@pytest.mark.parametrize("n", [255, 256, 257])
def test_mallows_decode_paths_match_reference(n, monkeypatch):
    """Row by row below SLAB_MIN_ROWS and as one slab at it, the rows are
    the reference rows, across the uint8/uint16 change of the slab dtype;
    a windowed sampler keeps just the localized ones."""
    slabs = []
    slab_rows = banddp._slab_rows
    monkeypatch.setattr(banddp, "_slab_rows",
                        lambda ranks: slabs.append(ranks.dtype) or
                        slab_rows(ranks))
    plain = MallowsRejectionSampler(n, 0.75, None)
    # about half of the random rows stay within 5 of home
    windowed = MallowsRejectionSampler(n, 0.75, LocalizationVector.constant(n, 5))
    u = np.random.default_rng(n).random((banddp.SLAB_MIN_ROWS, n))
    want = block_oracle.mallows_rows(block_oracle.mallows_cdfs(n, 0.75), u)
    local = localized_rows(want, windowed.ell)
    assert 20 < local.sum() < len(local) - 20
    for size in (banddp.SLAB_MIN_ROWS - 1, banddp.SLAB_MIN_ROWS):
        assert np.array_equal(decoded(plain, u[:size]), want[:size])
        assert np.array_equal(decoded(windowed, u[:size]),
                              want[:size][local[:size]])
    assert slabs == [np.min_scalar_type(n - 1)] * 2
    assert slabs[0] == (np.uint8 if n <= 256 else np.uint16)
    # the largest label index, n - 1, in the slab's dtype: the reversal
    reversal = np.arange(n - 1, -1, -1)[:, None].repeat(3, axis=1)
    assert np.array_equal(banddp._slab_rows(reversal),
                          np.tile(np.arange(n, 0, -1), (3, 1)))


def reference_draws(sampler, rng, size):
    """draw_rows from the reference rows: each try a full batch of
    uniforms, its rows filtered by localized_rows."""
    cdfs = block_oracle.mallows_cdfs(sampler.n, sampler.q)
    out = []
    got = 0
    while got < size:
        u = rng.random((max(32, int((size - got) * 1.1)), sampler.n))
        rows = block_oracle.mallows_rows(cdfs, u)
        rows = rows[localized_rows(rows, sampler.ell)][:size - got]
        out.append(rows)
        got += len(rows)
    return np.concatenate(out)


def test_windowed_mallows_draws_are_the_filtered_reference_rows():
    n = 300
    sampler = MallowsRejectionSampler(n, 0.75, LocalizationVector.constant(n, 12))
    rng, ref_rng = np.random.default_rng(51), np.random.default_rng(51)
    for _ in range(20):
        assert np.array_equal(sampler.draw_rows(rng, 1),
                              reference_draws(sampler, ref_rng, 1))
    assert np.array_equal(sampler.draw_rows(rng, 64),
                          reference_draws(sampler, ref_rng, 64))
    assert rng.random() == ref_rng.random()


def _mallows_pair(n, q, width, fallback=False):
    """Two samplers of one instance, so that a give-up in one leaves the
    other as it was; the band DP is the fallback when fallback is set."""
    ell = width if isinstance(width, LocalizationVector) else (
        None if width is None else LocalizationVector.constant(n, width))

    def make():
        build = None
        if fallback:
            build = functools.partial(BandDPSampler, BiasMatrix.constant(n, q),
                                      ell)
        return MallowsRejectionSampler(n, q, ell, build)

    return make(), make()


def _plain_state(value):
    """A bit generator's state with its arrays as lists, for ==."""
    if isinstance(value, dict):
        return {k: _plain_state(v) for k, v in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


def _assert_draws_as_full_batches(sampler, ref, rng, ref_rng, sizes):
    for size in sizes:
        assert np.array_equal(sampler.draw_rows(rng, size),
                              full_batch_draw_rows(ref, ref_rng, size)), size
        assert _plain_state(rng.bit_generator.state) == \
            _plain_state(ref_rng.bit_generator.state), size
    assert rng.integers(0, 7, size=5).tolist() == \
        ref_rng.integers(0, 7, size=5).tolist()
    assert rng.random() == ref_rng.random()


MALLOWS_TRY_CASES = {
    # n = 300, ell = 12 accepts its first row more than 99% of the time
    "one row": ((300, 0.75, 12), (1,) * 12),
    "rows below the slab": ((300, 0.75, 12), (2, 31, 33,
                                              banddp.SLAB_MIN_ROWS - 1)),
    "a slab": ((300, 0.75, 12), (banddp.SLAB_MIN_ROWS, 500)),
    "no window": ((60, 0.7, None), (1, 5, 200)),
    # about 0.7% of rows accepted: a row takes several tries of 32
    "rejects over several tries": ((40, 0.6, 5), (1, 1, 3, 40)),
    "forced ends": ((8, 0.7, EAST_TIGHT), (1, 1, 7, 300)),
}


@pytest.mark.parametrize("case", sorted(MALLOWS_TRY_CASES))
def test_lazy_tries_draw_as_full_batches(case):
    """Each try generates only the rows it reads and jumps over the rest of
    its batch: the rows, the generator state after each draw and the next
    draws are those of full batches."""
    (n, q, width), sizes = MALLOWS_TRY_CASES[case]
    sampler, ref = _mallows_pair(n, q, width)
    # a try below the slab decodes its first row alone
    tries = []
    single = sampler._single_rows
    sampler._single_rows = lambda u, need: (tries.append(len(u) == 1)
                                            or single(u, need))
    _assert_draws_as_full_batches(sampler, ref, np.random.default_rng(61),
                                  np.random.default_rng(61), sizes)
    if case == "rejects over several tries":
        assert sum(tries) > 2 * len(sizes)


def test_lazy_tries_give_up_as_full_batches():
    # q = 1/2 and ell = 4 at n = 20 accept no row in 400 tries
    sampler, ref = _mallows_pair(20, 0.5, 4, fallback=True)
    _assert_draws_as_full_batches(sampler, ref, np.random.default_rng(62),
                                  np.random.default_rng(62), (1, 3))
    assert sampler.strategy == ref.strategy == "band-dp"


def test_lazy_tries_keep_the_buffered_half_word():
    """integers(0, 7) leaves a 32-bit half of a PCG64 output buffered, which
    PCG64.advance clears; the skip puts it back."""
    sampler, ref = _mallows_pair(300, 0.75, 12)
    rng, ref_rng = np.random.default_rng(63), np.random.default_rng(63)
    for size in (1, 1, 20):
        rng.integers(0, 7)
        ref_rng.integers(0, 7)
        assert rng.bit_generator.state["has_uint32"] == 1
        _assert_draws_as_full_batches(sampler, ref, rng, ref_rng, (size,))


def test_lazy_tries_draw_as_full_batches_on_another_bit_generator():
    # MT19937 has no jump by a count of doubles; its skipped rows are drawn
    sampler, ref = _mallows_pair(300, 0.75, 12)

    def mt():
        return np.random.Generator(np.random.MT19937(64))

    _assert_draws_as_full_batches(sampler, ref, mt(), mt(), (1, 1, 20))


def test_dispatcher_strategies():
    rng = np.random.default_rng(16)
    assert exact_localized_sampler(
        BiasMatrix.constant(5, 0.7), None).strategy == "enumeration"
    assert exact_localized_sampler(
        BiasMatrix.constant(40, 0.7),
        LocalizationVector.constant(40, 3)).strategy == "band-dp"
    assert exact_localized_sampler(
        BiasMatrix.constant(40, 0.7),
        LocalizationVector.constant(40, 12)).strategy == "mallows-rejection"
    assert exact_localized_sampler(
        BiasMatrix.constant(40, 0.7), None).strategy == "mallows-rejection"
    p40 = BiasMatrix.random_biased(40, 0.5, rng)
    with pytest.raises(CapExceeded):
        exact_localized_sampler(p40, None)
    with pytest.raises(CapExceeded):
        exact_localized_sampler(p40, LocalizationVector.constant(40, 14),
                                window_cap=22)


@pytest.mark.parametrize("n", [5, 40])
def test_dispatcher_refuses_a_window_of_another_size(n):
    # the Mallows path used to end in numpy's ValueError on a broadcast
    with pytest.raises(ContractError, match=f"ell has {n - 1} entries, but "
                                            f"the instance has n = {n}"):
        exact_localized_sampler(BiasMatrix.constant(n, 0.75),
                                LocalizationVector.constant(n - 1, 9))


def test_mallows_gives_up_to_its_fallback_once():
    # q = 0 has one row, the reversal, which ell = 1 rejects at once
    ell = LocalizationVector.constant(8, 1)
    built = []

    def fallback():
        built.append(EnumerationSampler(BiasMatrix.constant(8, 0.7), ell))
        return built[-1]

    sampler = MallowsRejectionSampler(8, 0.0, ell, fallback)
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    for size in (3, 5):
        assert np.array_equal(sampler.draw_rows(rng, size),
                              built[0].draw_rows(ref_rng, size))
    assert len(built) == 1 and sampler.strategy == "enumeration"
    with pytest.raises(CapExceeded, match="window width 3 .* cap_window"):
        MallowsRejectionSampler(8, 0.0, ell).draw_rows(rng, 1)


def test_heat_bath_block_sample_contracts():
    rng = np.random.default_rng(17)
    p = BiasMatrix.random_biased(5, 0.5, rng)
    ell = LocalizationVector.constant(5, 2)
    sigma = Permutation((2, 1, 3, 5, 4))
    out = heat_bath_block_sample(sigma, (2, 4), p, ell, np.random.default_rng(0))
    assert out.at(1) == 2 and out.at(5) == 4
    assert is_localized(out, ell)
    # singleton block: unchanged
    out = heat_bath_block_sample(sigma, (3, 3), p, ell, np.random.default_rng(1))
    assert out.to_tuple() == sigma.to_tuple()
    # whole-line block: a fresh exact draw, still localized
    out = heat_bath_block_sample(sigma, (1, 5), p, ell, np.random.default_rng(2))
    assert is_localized(out, ell)


def test_sampler_cache_draws_as_fresh_samplers_and_drops_a_give_up(
        monkeypatch):
    # at q = 0.6 the east block of the far start has a window of width 17
    # that accepts few rows, so with one try of 32 rows its Mallows sampler
    # often gives up on the band DP
    monkeypatch.setattr(MallowsRejectionSampler, "_MAX_TRIES", 1)
    give_ups = []
    real = MallowsRejectionSampler._give_up

    def counted(self, rng, size):
        give_ups.append(size)
        return real(self, rng, size)

    monkeypatch.setattr(MallowsRejectionSampler, "_give_up", counted)
    n = 24
    p = BiasMatrix.constant(n, 0.6)
    ell = LocalizationVector.constant(n, 8)
    sigma = max_localized_state(ell)
    cache = SamplerCache()
    for seed in range(12):
        cached = heat_bath_block_rows(sigma, (8, 24), p, ell,
                                      np.random.default_rng(seed), 1, cache)
        fresh = heat_bath_block_rows(sigma, (8, 24), p, ell,
                                     np.random.default_rng(seed), 1)
        assert np.array_equal(cached, fresh), seed
    # every update meets one sub-instance; its sampler is kept until it
    # gives up, and the next update builds it again
    assert 0 < len(give_ups) < 24
    assert cache.hits > 0 and cache.misses > 1
    assert cache.hits + cache.misses == 12


SIZED_SAMPLERS = {
    "enumeration": (5, lambda: EnumerationSampler(
        BiasMatrix.constant(5, 0.7), LocalizationVector.constant(5, 2))),
    "mallows-rejection": (40, lambda: MallowsRejectionSampler(
        40, 0.7, LocalizationVector.constant(40, 12))),
    "mallows-forced-home": (40, lambda: MallowsRejectionSampler(
        40, 0.7, LocalizationVector.constant(40, 0))),
    "band-dp": (30, lambda: BandDPSampler(
        BiasMatrix.constant(30, 0.7), LocalizationVector.constant(30, 3))),
}
BAD_SIZES = (-1, -5, 1.5, 2.0, True, "3", None)


@pytest.mark.parametrize("kind", sorted(SIZED_SAMPLERS))
def test_every_sampler_draws_no_rows_at_size_zero_and_refuses_bad_sizes(kind):
    # the band DP used to raise numpy's zero-size reduction error at size 0,
    # and every sampler numpy's "negative dimensions" at a negative size
    n, make = SIZED_SAMPLERS[kind]
    sampler = make()
    rng = np.random.default_rng(65)
    rows = sampler.draw_rows(rng, 0)
    assert rows.shape == (0, n) and rows.dtype == np.int64
    assert sampler.draw_rows(rng, np.int64(0)).shape == (0, n)
    for size in BAD_SIZES:
        with pytest.raises(ContractError, match="size must be an integer >= 0"):
            sampler.draw_rows(rng, size)
    assert rng.random() == np.random.default_rng(65).random()


def test_band_dp_draws_and_block_rows_take_the_same_sizes():
    n = 30
    p = BiasMatrix.constant(n, 0.7)
    ell = LocalizationVector.constant(n, 3)
    rng = np.random.default_rng(66)
    assert BandDP(p, ell).sample_rows(rng, 0).shape == (0, n)
    assert band_dp_sample(p, ell, rng, size=0) == []
    # a block of ten positions under ell = 3 is a band-DP sub-instance
    sigma = Permutation.identity(n)
    cache = SamplerCache()
    rows = heat_bath_block_rows(sigma, (6, 15), p, ell, rng, 0, cache)
    assert rows.shape == (0, n) and rows.dtype == np.int64
    assert [e[0].strategy for e in cache._entries.values()] == ["band-dp"]
    for size in BAD_SIZES:
        for draw in (lambda: BandDP(p, ell).sample_rows(rng, size),
                     lambda: heat_bath_block_rows(sigma, (6, 15), p, ell, rng,
                                                  size)):
            with pytest.raises(ContractError,
                               match="size must be an integer >= 0"):
                draw()
        if size is not None:    # band_dp_sample's None draws one Permutation
            with pytest.raises(ContractError,
                               match="size must be an integer >= 0"):
                band_dp_sample(p, ell, rng, size=size)
    assert rng.random() == np.random.default_rng(66).random()


def test_sampler_cache_serves_one_instance():
    n = 10
    ell = LocalizationVector.constant(n, 2)
    sigma = Permutation.identity(n)
    cache = SamplerCache()
    p = BiasMatrix.constant(n, 0.7)
    heat_bath_block_rows(sigma, (2, 9), p, ell, np.random.default_rng(0), 1,
                         cache)
    heat_bath_block_rows(sigma, (2, 9), p, ell, np.random.default_rng(1), 1,
                         cache)
    assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)
    for other_p, other_ell in ((BiasMatrix.constant(n, 0.7), ell),
                               (p, LocalizationVector.constant(n, 2))):
        with pytest.raises(ContractError, match="one instance"):
            heat_bath_block_rows(sigma, (2, 9), other_p, other_ell,
                                 np.random.default_rng(0), 1, cache)


def test_heat_bath_conditional_frequencies():
    # n=5, q=0.7, ell=2, block [2,4]: draws match the enumerated conditional
    p = BiasMatrix.constant(5, 0.7)
    ell = LocalizationVector.constant(5, 2)
    sigma = Permutation((2, 1, 3, 4, 5))
    R = 100000
    rows = heat_bath_block_rows(sigma, (2, 4), p, ell,
                                np.random.default_rng(18), R)
    mu = enumerate_stationary(5, p, ell)
    tot = {}
    Z = 0.0
    for s, pr in zip(map(tuple, mu.support.tolist()), mu.probs):
        if s[0] == 2 and s[4] == 5:
            Z += pr
            tot[s] = pr
    cnt = Counter(tuple(int(v) for v in r) for r in rows)
    assert set(cnt) <= set(tot)
    worst = max(abs(cnt.get(s, 0) / R - pr / Z) for s, pr in tot.items())
    assert worst < 0.01


def test_heat_bath_preserves_stationarity_exactly():
    # mu P = mu for the exact single-block heat-bath kernel, n <= 6
    from atshuffle.chains import BlockSchedule, exact_block_kernel
    rng = np.random.default_rng(19)
    for _ in range(5):
        n = int(rng.integers(3, 7))
        p = BiasMatrix.random_biased(n, 0.5, rng)
        ell = random_admissible_localization(n, rng, max_ell=2)
        mu = enumerate_stationary(n, p, ell)
        K = exact_block_kernel(mu, BlockSchedule.west_east(n))
        after = mu.probs @ K.matrix
        assert np.allclose(after, mu.probs, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 2 ** 32), data=st.data())
def test_band_dp_passes_match_the_reference(n, seed, data):
    rng = np.random.default_rng(seed)
    p = random_bias_with_certain_pairs(n, rng)
    ell = random_admissible_localization(
        n, rng, max_ell=data.draw(st.integers(0, n - 1)))
    cap = 2 * n
    try:
        row = ReferenceBandDP(p, ell, window_cap=cap).sample_rows(rng, 1)[0]
    except EmptySupport:
        with pytest.raises(EmptySupport):
            BandDP(p, ell, window_cap=cap).log_partition()
        return
    # pins copied from an exact draw keep the support nonempty
    pinned = data.draw(st.sets(st.integers(1, n), max_size=3))
    pins = {pos: int(row[pos - 1]) for pos in pinned}
    fast = BandDP(p, ell, pins=pins, window_cap=cap)
    ref = ReferenceBandDP(p, ell, pins=pins, window_cap=cap)
    assert fast.log_partition() == pytest.approx(ref.log_partition(),
                                                 rel=0, abs=1e-12)
    for t in range(n + 1):
        fm, fv = fast.forward_layer(t)
        rm, rv = ref.forward_layer(t)
        assert np.array_equal(fm, rm)
        np.testing.assert_allclose(fv, rv, rtol=0, atol=1e-12)
        assert fast.backward_layer(t)[1].tobytes() == \
            ref.backward_layer(t)[1].tobytes()
        law, ref_law = fast.cut_law(t), ref.cut_law(t)
        assert np.array_equal(law.support, ref_law.support)
        np.testing.assert_allclose(law.probs, ref_law.probs, rtol=0, atol=1e-12)
    g_fast, g_ref = (np.random.default_rng(seed + 1) for _ in range(2))
    size = data.draw(st.integers(1, 50))
    assert np.array_equal(fast.sample_rows(g_fast, size),
                          ref.sample_rows(g_ref, size))
    assert g_fast.random() == g_ref.random()
    t1 = data.draw(st.integers(0, n))
    t2 = data.draw(st.integers(t1, n))
    law = fast.cut_pair_law(t1, t2)
    rkm, rkp = ref.cut_pair_law(t1, t2)
    # the reference keys are w1 << (W - 1) | w2
    assert np.array_equal(law.support[:, 0] << (fast.W - 1) | law.support[:, 1],
                          rkm)
    np.testing.assert_allclose(law.probs, rkp, rtol=0, atol=1e-12)
    a = data.draw(st.integers(1, n))
    b = data.draw(st.integers(a, min(n, a + 3)))
    fm = fast.region_marginal((a, b))
    rm = ref.region_marginal((a, b))
    assert np.array_equal(fm.support, rm.support)
    np.testing.assert_allclose(fm.probs, rm.probs, rtol=0, atol=1e-12)
    assert fm.logZ == pytest.approx(rm.logZ, rel=0, abs=1e-12)


@pytest.mark.parametrize("pins", [{}, {3: 1, 9: 12, 14: 15}])
def test_sorted_and_marked_word_collection_agree(monkeypatch, pins):
    # SORT_FRACTION = 0 sorts every layer's words, 2^62 marks them all
    p = random_bias_with_certain_pairs(16, np.random.default_rng(8))
    ell = LocalizationVector.constant(16, 5)     # W = 11
    runs = []
    for fraction in (0, 2 ** 62):
        monkeypatch.setattr(banddp, "SORT_FRACTION", fraction)
        dp = BandDP(p, ell, pins=pins)
        runs.append(([dp.forward_layer(t) for t in range(17)],
                     [dp.backward_layer(t)[1] for t in range(17)],
                     dp.sample_rows(np.random.default_rng(9), 20)))
    (fwd0, bwd0, rows0), (fwd1, bwd1, rows1) = runs
    for (m0, v0), (m1, v1) in zip(fwd0, fwd1):
        assert m0.tobytes() == m1.tobytes() and v0.tobytes() == v1.tobytes()
    assert all(b0.tobytes() == b1.tobytes() for b0, b1 in zip(bwd0, bwd1))
    assert np.array_equal(rows0, rows1)


def test_memory_cap_refuses_wide_windows_up_front():
    # W = 22 at n = 400 would need about 3.4 GB of layers
    ell = LocalizationVector([10] * 400, [11] * 400)
    with pytest.raises(CapExceeded, match="window_cap"):
        BandDP(BiasMatrix.constant(400, 0.7), ell)
