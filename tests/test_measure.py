import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import block_oracle
from atshuffle import measure
from banddp_oracle import (random_bias_with_certain_pairs,
                           reference_transition_matrix)
from chain_oracle import random_admissible_localization
from kernel_oracle import dense_gap
from atshuffle.banddp import BandDP
from atshuffle.chains import asep_stationary
from atshuffle.errors import CapExceeded, ContractError, NotReversible
from atshuffle.measure import (DistributionTable, build_transition_matrix,
                               check_detailed_balance, enumerate_stationary,
                               exact_mixing_time, log_weight, spectral_gap,
                               tv_distance)
from atshuffle.perms import BiasMatrix, LocalizationVector, Permutation


def test_log_weight_examples():
    p = BiasMatrix.constant(3, 0.6)
    assert math.exp(log_weight(Permutation((1, 2, 3)), p)) == pytest.approx(0.216, abs=1e-15)
    assert math.exp(log_weight(Permutation((2, 1, 3)), p)) == pytest.approx(0.144, abs=1e-15)
    pta = BiasMatrix.totally_asymmetric(2)
    assert log_weight(Permutation((2, 1)), pta) == -math.inf


def test_log_weight_is_the_batch_weight_bit_for_bit():
    # log_weight used to sum each position's row of factors first; on 174 of
    # 450 such permutations it differed from the enumerated weights in the
    # last bits
    rng = np.random.default_rng(30)
    for n in range(2, 11):
        p = BiasMatrix.random_biased(n, 0.3, rng)
        perms = np.array([rng.permutation(n) + 1 for _ in range(50)])
        batch = measure._log_weights_batch(perms, p)
        for row, want in zip(perms, batch):
            assert log_weight(Permutation(row), p) == want
            assert log_weight(row.tolist(), p) == want


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 7), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["none", "admissible", "any", "empty"]))
def test_localized_perms_are_the_filtered_permutations_in_order(n, seed, kind):
    """Row for row and in order, the enumeration is itertools.permutations
    kept by the reference window check: without a window, under admissible
    and arbitrary windows, and under windows that admit nothing, where
    enumerate_stationary refuses the empty set.  Every window of the public
    constructor holds its label's home, so the empty ones are built trusted,
    with two labels confined to one position."""
    rng = np.random.default_rng(seed)
    ell = None
    if kind == "admissible":
        ell = random_admissible_localization(n, rng,
                                             max_ell=int(rng.integers(0, n)))
    elif kind == "any":
        ell = LocalizationVector(*rng.integers(0, n, size=(2, n)))
    elif kind == "empty":
        if n < 2:
            return
        lo, hi = rng.integers(0, n, size=(2, n))
        labels = rng.choice(n, 2, replace=False)
        at = int(rng.integers(0, n))
        lo[labels], hi[labels] = labels - at, at - labels
        ell = LocalizationVector._trusted(lo, hi)
    want = np.array(list(itertools.permutations(range(1, n + 1))),
                    dtype=np.int64)
    if ell is not None:
        want = want[block_oracle.localized_rows(want, ell)]
    got = measure._localized_perms(n, ell)
    assert got.dtype == np.int64 and got.flags.c_contiguous
    assert got.shape[1] == n and np.array_equal(got, want)
    if kind == "empty":
        assert len(got) == 0
        with pytest.raises(ContractError, match="empty localized set"):
            enumerate_stationary(n, BiasMatrix.constant(n, 0.7), ell)


def test_enumerate_stationary_examples():
    p2 = BiasMatrix.constant(2, 0.7)
    mu = enumerate_stationary(2, p2)
    assert mu.prob_of((1, 2)) == pytest.approx(0.7)
    assert mu.prob_of((2, 1)) == pytest.approx(0.3)
    assert math.exp(mu.logZ) == pytest.approx(1.0)

    p3 = BiasMatrix.constant(3, 0.6)
    mu3 = enumerate_stationary(3, p3)
    assert math.exp(mu3.logZ) == pytest.approx(0.76, abs=1e-12)
    assert mu3.prob_of((1, 2, 3)) == pytest.approx(0.216 / 0.76, abs=1e-12)

    only = enumerate_stationary(3, p3, LocalizationVector.constant(3, 0))
    assert only.support.tolist() == [[1, 2, 3]]
    assert only.probs[0] == 1.0


def test_enumeration_refuses_n_0():
    with pytest.raises(ContractError, match="n must be >= 1"):
        enumerate_stationary(0, BiasMatrix.constant(0, 0.6))


def test_enumeration_cap():
    p = BiasMatrix.constant(11, 0.6)
    with pytest.raises(CapExceeded):
        enumerate_stationary(11, p)
    with pytest.warns(UserWarning):
        enumerate_stationary(9, BiasMatrix.constant(9, 0.6))


def test_transition_matrix_n2():
    p = BiasMatrix.constant(2, 0.6)
    mu = enumerate_stationary(2, p)
    P = build_transition_matrix(p, mu)
    assert P.reversible
    i12, i21 = P.states.tolist().index([1, 2]), P.states.tolist().index([2, 1])
    assert P.matrix[i12, i21] == pytest.approx(0.4)
    assert P.matrix[i21, i12] == pytest.approx(0.6)
    assert spectral_gap(P, mu) == pytest.approx(1.0, abs=1e-9)


def test_rejection_mass_goes_to_diagonal():
    # n=3, ell=1: from (2,1,3) the move at edge 2 would displace particle 1 by 2
    p = BiasMatrix.constant(3, 0.6)
    ell = LocalizationVector.constant(3, 1)
    mu = enumerate_stationary(3, p, ell)
    P = build_transition_matrix(p, mu)
    s = P.states.tolist().index([2, 1, 3])
    assert (2, 3, 1) not in [tuple(x) for x in mu.support]
    # edge 1: stay with p[2][1] = 0.4; edge 2: the swap is rejected entirely
    row = P.matrix[s].toarray().ravel()
    assert row[s] == pytest.approx(0.5 * 0.4 + 0.5 * 1.0)


def test_detailed_balance_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        p = BiasMatrix.random_biased(n, 0.5, rng)
        ell = random_admissible_localization(n, rng, max_ell=2) \
            if rng.random() < 0.5 else None
        mu = enumerate_stationary(n, p, ell)
        P = build_transition_matrix(p, mu)
        assert P.reversible


def test_detailed_balance_failure_names_pair():
    states = [(1, 2), (2, 1)]
    import scipy.sparse as sp
    bad = sp.csr_matrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
    from atshuffle.measure import TransitionMatrix
    P = TransitionMatrix(states, bad)
    mu = DistributionTable(states, np.array([0.7, 0.3]), 0.0)
    with pytest.raises(NotReversible, match=r"\(1, 2\)|\(2, 1\)"):
        check_detailed_balance(P, mu)


def test_spectral_gap_range_and_singleton():
    rng = np.random.default_rng(1)
    p = BiasMatrix.random_biased(5, 0.2, rng)
    mu = enumerate_stationary(5, p)
    P = build_transition_matrix(p, mu)
    g = spectral_gap(P, mu)
    assert 0.0 < g < 2.0
    # singleton restricted chain has gap 1 by convention
    ell0 = LocalizationVector.constant(4, 0)
    p4 = BiasMatrix.constant(4, 0.8)
    mu0 = enumerate_stationary(4, p4, ell0)
    P0 = build_transition_matrix(p4, mu0)
    assert spectral_gap(P0, mu0) == 1.0


def test_chains_without_an_edge_stay_put():
    # one site has no edge to swap across, so the kernel is the identity
    p1 = BiasMatrix.constant(1, 0.6)
    P = build_transition_matrix(p1, enumerate_stationary(1, p1))
    assert P.states.tolist() == [[1]] and P.matrix.toarray().tolist() == [[1.0]]
    for k in (0, 1):
        assert asep_stationary(1, k, 0.6).probs.tolist() == [1.0]


def test_spectral_gap_iterative_matches_dense():
    p = BiasMatrix.constant(5, 0.7)
    mu = enumerate_stationary(5, p)
    P = build_transition_matrix(p, mu)
    assert abs(spectral_gap(P, mu) - dense_gap(P, mu)) <= 1e-12


def test_spectral_gap_iterative_is_deterministic():
    p = BiasMatrix.random_biased(6, 0.3, np.random.default_rng(3))
    mu = enumerate_stationary(6, p)
    P = build_transition_matrix(p, mu)
    first = spectral_gap(P, mu)
    assert spectral_gap(P, mu) == first
    assert abs(first - dense_gap(P, mu)) <= 1e-12



def test_spectral_gap_non_convergence_is_a_cap(monkeypatch):
    import scipy.linalg

    calls = []

    def stalled(d, e, **kwargs):
        # a Ritz vector ending in 1 leaves the residual bound at beta
        calls.append(len(d))
        s = np.zeros((len(d), 1))
        s[-1] = 1.0
        return np.array([0.5]), s

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", stalled)
    p = BiasMatrix.constant(4, 0.7)
    mu = enumerate_stationary(4, p)
    P = build_transition_matrix(p, mu)
    with pytest.raises(CapExceeded, match="24 states.*tol"):
        spectral_gap(P, mu)
    # the recurrence ran its 100 m steps, looking every 10th
    assert calls == list(range(10, 2401, 10))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(2, 7),
       family=st.sampled_from(["constant", "random-eps", "monotone",
                               "eps-inf", "certain-pairs"]),
       window=st.none() | st.integers(1, 6),
       schedule=st.sampled_from([None, "west_east", "single"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_lanczos_gap_matches_the_dense_gap(n, family, window, schedule, seed):
    # a single-block kernel has rank one, so the recurrence breaks down on
    # its first step and must still return the gap 1
    from atshuffle.chains import BlockSchedule, exact_block_kernel
    rng = np.random.default_rng(seed)
    p = {"constant": lambda: BiasMatrix.constant(n, rng.uniform(0.5, 1.0)),
         "random-eps": lambda: BiasMatrix.random_biased(n, 0.5, rng),
         "monotone": lambda: BiasMatrix.monotone_biased(n, 0.3, rng),
         "eps-inf": lambda: BiasMatrix.random_biased(n, math.inf, rng),
         "certain-pairs": lambda: random_bias_with_certain_pairs(n, rng),
         }[family]()
    if n == 7 and (window is None or window > 3):
        window = 3      # the dense oracle takes seconds above 2,000 states
    ell = None if window is None else LocalizationVector.constant(
        n, min(window, n - 1))
    try:
        mu = enumerate_stationary(n, p, ell)
    except ContractError:
        return      # every localized state has weight 0
    K = (build_transition_matrix(p, mu) if schedule is None else
         exact_block_kernel(mu, getattr(BlockSchedule, schedule)(n)))
    gap = spectral_gap(K, mu)
    assert abs(gap - dense_gap(K, mu)) <= 1e-12
    assert spectral_gap(K, mu) == gap


def test_a_kernel_takes_only_its_own_law():
    p4 = BiasMatrix.constant(4, 0.7)
    mu4 = enumerate_stationary(4, p4)
    nu4 = enumerate_stationary(4, BiasMatrix.constant(4, 0.9))
    mu5 = enumerate_stationary(5, BiasMatrix.constant(5, 0.7))
    P4 = build_transition_matrix(p4, mu4)
    assert P4.law is mu4 and P4.reversible
    with pytest.raises(NotReversible):
        spectral_gap(P4, nu4)
    with pytest.raises(ContractError, match="state list"):
        spectral_gap(P4, mu5)
    with pytest.raises(NotReversible):
        exact_mixing_time(P4, nu4, 0.25)
    with pytest.raises(ContractError, match="state list"):
        exact_mixing_time(P4, mu5, 0.25)
    with pytest.raises(ContractError, match="size mismatch"):
        build_transition_matrix(p4, mu5)
    # the refusals leave the remembered law alone
    assert P4.law is mu4
    # an equal law is taken without a second balance check
    copy = DistributionTable(mu4.support.copy(), mu4.probs.copy(), mu4.logZ)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measure, "check_detailed_balance", None)
        assert spectral_gap(P4, copy) == spectral_gap(P4, mu4)
        assert exact_mixing_time(P4, copy, 0.25)[0] > 0
    # a kernel built without a law is checked at first use
    from atshuffle.measure import TransitionMatrix
    bare = TransitionMatrix(P4.states, P4.matrix)
    assert bare.law is None and not bare.reversible
    with pytest.raises(NotReversible):
        spectral_gap(bare, nu4)
    assert bare.law is None
    assert spectral_gap(bare, mu4) == spectral_gap(P4, mu4)
    assert bare.law is mu4


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
def test_spectral_gap_refuses_a_bad_tol(tol):
    p = BiasMatrix.constant(4, 0.7)
    mu = enumerate_stationary(4, p)
    P = build_transition_matrix(p, mu)
    with pytest.raises(ContractError, match="tol"):
        spectral_gap(P, mu, tol=tol)


def test_tv_distance():
    p = BiasMatrix.constant(2, 0.6)
    mu = enumerate_stationary(2, p)
    assert tv_distance(mu, mu) == 0.0
    a = DistributionTable([(1, 2)], np.array([1.0]), 0.0)
    b = DistributionTable([(2, 1)], np.array([1.0]), 0.0)
    assert tv_distance(a, b) == 1.0
    assert tv_distance(b, mu) == pytest.approx(0.6)


def test_exact_mixing_time():
    p = BiasMatrix.constant(2, 0.6)
    mu = enumerate_stationary(2, p)
    P = build_transition_matrix(p, mu)
    t, curve = exact_mixing_time(P, mu, 0.25)
    assert t == 1
    assert curve[0] == pytest.approx(0.6)
    assert curve[1] == pytest.approx(0.0, abs=1e-15)
    # delta = 0.5: worst start TV is 0.6 > 0.5, so one step is still needed
    t5, _ = exact_mixing_time(P, mu, 0.5)
    assert t5 == 1
    # singleton
    ell0 = LocalizationVector.constant(3, 0)
    p3 = BiasMatrix.constant(3, 0.9)
    mu0 = enumerate_stationary(3, p3, ell0)
    P0 = build_transition_matrix(p3, mu0)
    assert exact_mixing_time(P0, mu0, 0.25)[0] == 0
    with pytest.raises(ContractError):
        exact_mixing_time(P, mu, 0.7)
    with pytest.raises(ContractError, match="t_cap"):
        exact_mixing_time(P, mu, 0.25, t_cap=-1)
    # t_cap = 0 is a cap, not a refusal
    with pytest.raises(CapExceeded, match="step cap 0"):
        exact_mixing_time(P, mu, 0.25, t_cap=0)


def test_exact_mixing_time_monotone_in_delta():
    rng = np.random.default_rng(2)
    p = BiasMatrix.random_biased(4, 0.3, rng)
    mu = enumerate_stationary(4, p)
    P = build_transition_matrix(p, mu)
    times = [exact_mixing_time(P, mu, d)[0] for d in (0.05, 0.1, 0.25, 0.5)]
    assert times == sorted(times, reverse=True)


def test_exact_mixing_time_batched_matches_unbatched():
    p = BiasMatrix.constant(4, 0.65)
    mu = enumerate_stationary(4, p)
    P = build_transition_matrix(p, mu)
    t_full, curve_full = exact_mixing_time(P, mu, 0.25)
    t_batch, curve_batch = exact_mixing_time(P, mu, 0.25, batch_bytes=24 * 7)
    assert t_full == t_batch
    assert np.allclose(curve_full, curve_batch)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 7), seed=st.integers(0, 2 ** 32), data=st.data())
def test_kernel_matches_the_reference_build(n, seed, data):
    rng = np.random.default_rng(seed)
    p = random_bias_with_certain_pairs(n, rng)
    ell = None
    if data.draw(st.booleans()):
        ell = random_admissible_localization(
            n, rng, max_ell=data.draw(st.integers(0, n - 1)))
    try:
        mu = enumerate_stationary(n, p, ell)
    except ContractError:
        return      # every localized state has weight 0
    if data.draw(st.booleans()):
        # any state order, not only the lexicographic one
        order = rng.permutation(len(mu.support))
        mu = DistributionTable(mu.support[order], mu.probs[order], mu.logZ)
    fast = build_transition_matrix(p, mu)
    ref = reference_transition_matrix(n, p, mu)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(fast.matrix, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_kernel_shares_the_read_only_support():
    p = BiasMatrix.constant(4, 0.7)
    mu = enumerate_stationary(4, p)
    P = build_transition_matrix(p, mu)
    assert P.states is mu.support
    assert mu.support.dtype == np.int64 and mu.support.shape == (24, 4)
    with pytest.raises(ValueError, match="read-only"):
        mu.support[0, 0] = 2


def test_table_rows_and_their_edges():
    # equal-length tuples are accepted and copied into one read-only array
    t = DistributionTable([(1, 2), (2, 1)], [0.25, 0.75], 0.0)
    assert t.support.tolist() == [[1, 2], [2, 1]]
    assert not t.support.flags.writeable
    assert t.prob_of((2, 1)) == 0.75 and t.prob_of([1, 2]) == 0.25
    # rows outside the support, also of another length, have probability 0
    assert t.prob_of((3, 1)) == 0.0 and t.prob_of((1, 2, 3)) == 0.0
    with pytest.raises(ContractError, match="distinct"):
        DistributionTable([(1, 2), (2, 1), (1, 2)], [0.25, 0.25, 0.5], 0.0)
    with pytest.raises(ValueError):
        DistributionTable([(1, 2), (1,)], [0.5, 0.5], 0.0)
    # a flat list is one row
    assert DistributionTable([1, 2], [1.0], 0.0).support.tolist() == [[1, 2]]
    # supports of different widths share no row
    assert tv_distance(t, DistributionTable([(1, 2, 3)], [1.0], 0.0)) == 1.0


@pytest.mark.parametrize("rows", [[(1, 12, 3), (12, 1, 3), (3, 100, -2)],
                                  list(itertools.permutations(range(1, 5)))])
def test_csv_rows_are_the_format_loop_rows(tmp_path, rows):
    # labels of one, two and three characters, and a sign, in one table
    probs = np.random.default_rng(len(rows)).random(len(rows))
    table = DistributionTable(rows, probs / probs.sum(), 0.0)
    table.to_csv(tmp_path / "t.csv")
    n = len(rows[0])
    loop = "".join(("%d," * n + "%r\n") % (*state, pr) for state, pr
                   in zip(table.support.tolist(), table.probs.tolist()))
    assert (tmp_path / "t.csv").read_text() == \
        "".join(f"s{i}," for i in range(1, n + 1)) + "probability\n" + loop


def test_tables_built_distinct_skip_only_the_distinctness_sort(monkeypatch):
    def refuse(rows):
        raise AssertionError("rows built distinct were sorted again")

    monkeypatch.setattr(measure, "_row_ranks", refuse)
    p = BiasMatrix.random_biased(5, 0.5, np.random.default_rng(2))
    mu = enumerate_stationary(5, p, LocalizationVector.constant(5, 2))
    laws = [mu, asep_stationary(6, 2, 0.7), asep_stationary(4, 1, 1.0),
            BandDP(p, LocalizationVector.constant(5, 2)).cut_law(2)]
    # the other checks stay
    with pytest.raises(ContractError, match="sum"):
        DistributionTable._trusted([(1, 2), (2, 1)], [0.5, 0.25], 0.0)
    monkeypatch.undo()
    for law in laws:
        again = DistributionTable(law.support.copy(), law.probs.copy(), law.logZ)
        assert not law.support.flags.writeable
        assert np.array_equal(again.support, law.support)
        assert again.probs.tobytes() == law.probs.tobytes()
    # the public constructor still sorts, and refuses a duplicated row
    with pytest.raises(ContractError, match="distinct"):
        DistributionTable(np.concatenate([mu.support, mu.support[:1]]),
                          np.append(mu.probs[1:], [mu.probs[0] / 2] * 2),
                          mu.logZ)


def test_prob_of_takes_a_permutation_as_log_weight_does():
    p = BiasMatrix.constant(3, 0.7)
    mu = enumerate_stationary(3, p)
    for state in itertools.permutations(range(1, 4)):
        want = math.exp(log_weight(state, p) - mu.logZ)
        assert mu.prob_of(Permutation(state)) == mu.prob_of(state)
        assert mu.prob_of(Permutation(state)) == pytest.approx(want, rel=1e-12)
    # weights 0.343, 0.147 (twice), 0.063 (twice) and 0.027 sum to 0.79
    assert mu.prob_of(Permutation.identity(3)) == pytest.approx(0.343 / 0.79)
    assert mu.prob_of(Permutation.identity(4)) == 0.0


def dict_tv(a, b):
    """TV by a dict over the rows as tuples, one row at a time."""
    pa = dict(zip(map(tuple, a.support.tolist()), a.probs.tolist()))
    pb = dict(zip(map(tuple, b.support.tolist()), b.probs.tolist()))
    return 0.5 * sum(abs(pa.get(s, 0.0) - pb.get(s, 0.0))
                     for s in set(pa) | set(pb))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), width=st.integers(1, 3))
def test_tv_distance_aligns_rows_in_any_order(seed, width):
    rng = np.random.default_rng(seed)
    cells = np.array(list(np.ndindex(*(3,) * width)), dtype=np.int64) - 1
    tables = []
    for _ in range(2):
        rows = cells[rng.random(len(cells)) < 0.6]
        if len(rows) == 0:
            rows = cells[:1]
        w = rng.random(len(rows))
        tables.append(DistributionTable(rows, w / w.sum(), 0.0))
    a, b = tables
    tv = tv_distance(a, b)
    assert tv == pytest.approx(dict_tv(a, b), rel=0, abs=1e-15)
    assert tv_distance(b, a) == tv
    # the union is sorted, so the order of either support does not matter
    order = rng.permutation(len(b))
    shuffled = DistributionTable(b.support[order], b.probs[order], 0.0)
    assert tv_distance(a, shuffled) == tv
    # equal supports are compared row by row in their own order
    twin = DistributionTable(shuffled.support.copy(),
                             rng.permutation(shuffled.probs), 0.0)
    assert tv_distance(shuffled, twin) == \
        0.5 * float(np.sum(np.abs(shuffled.probs - twin.probs)))
