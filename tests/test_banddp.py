import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import block_oracle
from banddp_oracle import ReferenceBandDP, random_bias_with_certain_pairs
from atshuffle import banddp
from atshuffle.banddp import (BandDP, BandDPSampler, EnumerationSampler,
                              MallowsRejectionSampler,
                              band_dp_conditional_marginal, band_dp_partition,
                              band_dp_sample, exact_localized_sampler,
                              heat_bath_block_rows, heat_bath_block_sample)
from atshuffle.errors import CapExceeded, EmptySupport
from atshuffle.measure import enumerate_stationary, log_weight
from atshuffle.perms import (BiasMatrix, BoundaryAssignment,
                             LocalizationVector, Permutation, is_localized,
                             random_admissible_localization)


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


def test_sampler_goodness_of_fit():
    # n=6, q=0.7, ell=2: one million draws against the enumerated law
    p = BiasMatrix.constant(6, 0.7)
    ell = LocalizationVector.constant(6, 2)
    mu = enumerate_stationary(6, p, ell)
    dp = BandDP(p, ell)
    R = 10 ** 6
    rows = dp.sample_rows(np.random.default_rng(13), R)
    cnt = Counter(tuple(int(v) for v in r) for r in rows)
    support = list(map(tuple, mu.support.tolist()))
    assert set(cnt) <= set(support)
    observed = np.array([cnt.get(s, 0) for s in support], dtype=float)
    expected = mu.probs * R
    keep = expected >= 5
    chi2 = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
    pval = 1.0 - stats.chi2.cdf(chi2, int(keep.sum()) - 1)
    assert pval > 1e-3


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


def test_mallows_rejection_matches_enumeration():
    q = 0.7
    p = BiasMatrix.constant(8, q)
    ell = LocalizationVector.constant(8, 2)
    sampler = MallowsRejectionSampler(8, q, ell)
    rows = sampler.draw_rows(np.random.default_rng(15), 100000)
    mu = enumerate_stationary(8, p, ell)
    cnt = Counter(tuple(int(v) for v in r) for r in rows)
    support = list(map(tuple, mu.support.tolist()))
    assert set(cnt) <= set(support)
    worst = max(abs(cnt.get(s, 0) / 100000 - pr)
                for s, pr in zip(support, mu.probs))
    assert worst < 0.01


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


def test_mallows_tables_are_shared_and_read_only():
    a = MallowsRejectionSampler(12, 0.7, None)
    b = MallowsRejectionSampler(12, 0.7, LocalizationVector.constant(12, 3))
    assert a._cdfs is b._cdfs and a._table is b._table
    assert not any(cdf.flags.writeable for cdf in a._cdfs)
    assert not a._table.flags.writeable
    # no row of ranks fits a chunk above n = 362, so no table is built
    wide = MallowsRejectionSampler(363, 0.7, None)
    assert wide._table is None
    assert sorted(wide.draw_rows(np.random.default_rng(0), 1)[0]) == \
        list(range(1, 364))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(8, 80), q=st.floats(0.5, 0.95),
       seed=st.integers(0, 2 ** 32 - 1), ties=st.floats(0.0, 0.5))
def test_mallows_rank_paths_match_reference(n, q, seed, ties):
    """Both rank paths, each forced by the chunk shape, give the reference
    rows on the same uniforms, including uniforms equal to a CDF entry."""
    sampler = MallowsRejectionSampler(n, q, None)
    rng = np.random.default_rng(seed)
    table_rows = banddp.ROW_CHUNK_ELEMENTS // (n * n)
    u = rng.random((table_rows + 1, n))
    for row, pos in zip(*np.nonzero(rng.random(u.shape) < ties)):
        # ties with entries below the CDF's top, as a uniform below 1 can be
        cdf = sampler._cdfs[n - pos - 1]
        below = int(np.searchsorted(cdf, cdf[-1]))
        if below:
            u[row, pos] = cdf[rng.integers(0, below)]
    want = block_oracle.mallows_rows(sampler._cdfs, u)
    # one chunk too large for the table, one as large as fits, single rows
    assert np.array_equal(sampler._rows_from_uniforms(u), want)
    assert np.array_equal(sampler._rows_from_uniforms(u[:table_rows]),
                          want[:table_rows])
    for r in range(min(8, table_rows)):
        assert np.array_equal(sampler._rows_from_uniforms(u[r:r + 1]),
                              want[r:r + 1])


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
        K = exact_block_kernel(n, p, ell, BlockSchedule.west_east(n), mu=mu)
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
