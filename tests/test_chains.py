import io
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from audit_oracle import left_of, ordered_update
from banddp_oracle import random_bias_with_certain_pairs
from chain_oracle import (UpdateDraw, at_step, random_admissible_localization,
                          twin_block_meeting_time)
from kernel_oracle import (reference_asep_transition_matrix,
                           reference_asep_weights, reference_block_kernel)
from atshuffle import chains
from atshuffle.banddp import heat_bath_block_rows
from atshuffle.chains import (BlockSchedule, _asep_edge, _audit_draws,
                              asep_rightmost_tail, asep_stationary,
                              asep_transition_matrix, block_step, derive_rng,
                              ensemble_chain_run, exact_block_kernel,
                              experiment_id, twin_chain_coupling_run,
                              write_checkpoint)
from atshuffle.errors import CapExceeded, ContractError
from atshuffle.measure import (build_transition_matrix, check_detailed_balance,
                               enumerate_stationary)
from atshuffle.perms import (BiasMatrix, LocalizationVector, Permutation,
                             is_localized, max_localized_state)


def test_at_step_examples():
    p = BiasMatrix.constant(2, 0.6)
    assert at_step(Permutation((1, 2)), p, UpdateDraw(0, 1, 0.3)).to_tuple() == (2, 1)
    assert at_step(Permutation((1, 2)), p, UpdateDraw(0, 1, 0.9)).to_tuple() == (1, 2)
    pta = BiasMatrix.totally_asymmetric(3)
    for u in (0.0, 0.5, 0.99):
        assert at_step(Permutation((1, 2, 3)), pta,
                       UpdateDraw(0, 1, u)).to_tuple() == (1, 2, 3)


def test_restricted_at_step_examples():
    p = BiasMatrix.constant(3, 0.6)
    ell0 = LocalizationVector.constant(3, 0)
    sid = Permutation.identity(3)
    for e in (1, 2):
        for u in (0.0, 0.99):
            assert at_step(sid, p, UpdateDraw(0, e, u),
                           ell0).to_tuple() == (1, 2, 3)
    ell1 = LocalizationVector.constant(3, 1)
    out = at_step(Permutation((2, 1, 3)), p, UpdateDraw(0, 2, 0.0), ell1)
    assert out.to_tuple() == (2, 1, 3)
    with pytest.raises(ContractError):
        at_step(Permutation((3, 2, 1)), p, UpdateDraw(0, 1, 0.5), ell1)


def _one_step_chi_square(rows, mu, P, start):
    cnt = Counter(tuple(int(v) for v in r) for r in rows)
    row = P.matrix[P.states.tolist().index(list(start.to_tuple()))].toarray().ravel()
    observed = np.array([cnt.get(s, 0) for s in map(tuple, mu.support.tolist())],
                        dtype=float)
    expected = row * len(rows)
    keep = expected >= 5
    assert float(observed[~keep].sum()) == 0.0
    chi2 = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
    return 1.0 - stats.chi2.cdf(chi2, int(keep.sum()) - 1)


def test_at_step_frequencies_match_exact_kernel():
    # one million one-step draws from a fixed start, vectorized over replicas
    rng = np.random.default_rng(20)
    n = 4
    p = BiasMatrix.random_biased(n, 0.5, rng)
    mu = enumerate_stationary(n, p)
    P = build_transition_matrix(p, mu)
    start = Permutation((3, 1, 4, 2))
    # the scalar step and the ensemble step implement the same rule
    probe = derive_rng(99, 0)
    edges = probe.integers(1, n, size=(2048, 1))
    us = probe.random((2048, 1))
    scalar = start
    for s in range(50):
        scalar = at_step(scalar, p, UpdateDraw(s, int(edges[s, 0]),
                                               float(us[s, 0])))
    F = ensemble_chain_run(p, start.forward[None, :], 50, derive_rng(99, 0))
    assert tuple(F[0]) == scalar.to_tuple()
    R = 10 ** 6
    rows = ensemble_chain_run(p, np.tile(start.forward, (R, 1)), 1,
                              np.random.default_rng(200))
    assert _one_step_chi_square(rows, mu, P, start) > 1e-3


def test_restricted_step_frequencies_match_exact_kernel():
    rng = np.random.default_rng(21)
    n = 4
    p = BiasMatrix.random_biased(n, 0.5, rng)
    ell = LocalizationVector.constant(n, 1)
    mu = enumerate_stationary(n, p, ell)
    P = build_transition_matrix(p, mu)
    start = Permutation((2, 1, 3, 4))
    R = 10 ** 6
    rows = ensemble_chain_run(p, np.tile(start.forward, (R, 1)), 1,
                              np.random.default_rng(201), ell=ell)
    assert _one_step_chi_square(rows, mu, P, start) > 1e-3


def test_ensemble_stepper_matches_scalar_stepper():
    # the vectorized replica stepper implements the same update rule
    rng_a = np.random.default_rng(22)
    n = 5
    p = BiasMatrix.random_biased(n, 0.5, rng_a)
    ell = LocalizationVector.constant(n, 2)
    steps = 300
    master = derive_rng(7, 1)
    # the ensemble draws fixed 2048-step chunks; mirror that layout
    edges = master.integers(1, n, size=(2048, 1))
    us = master.random((2048, 1))
    sigma = Permutation((2, 1, 3, 5, 4))
    for s in range(steps):
        sigma = at_step(sigma, p,
                        UpdateDraw(s, int(edges[s, 0]), float(us[s, 0])), ell)
    F = ensemble_chain_run(p, Permutation((2, 1, 3, 5, 4)).forward[None, :],
                           steps, derive_rng(7, 1), ell=ell)
    assert tuple(F[0]) == sigma.to_tuple()
    # like the restricted at_step, the ensemble refuses starts outside the set
    starts = np.stack([Permutation.identity(n).forward,
                       Permutation.reversal(n).forward])
    with pytest.raises(ContractError):
        ensemble_chain_run(p, starts, 1, derive_rng(7, 1), ell=ell)


def _ensemble_oracle(p, starts, steps, rng, ell, chunk):
    """States of every row after each step, by the scalar steps on the
    ensemble's draw layout: column r of each (chunk, R) block drives row r."""
    R, n = starts.shape
    rows = [Permutation(tuple(int(v) for v in r)) for r in starts]
    history = [[r.to_tuple() for r in rows]]
    while len(history) <= steps:
        edges = rng.integers(1, n, size=(chunk, R))
        us = rng.random((chunk, R))
        for s in range(min(chunk, steps + 1 - len(history))):
            for r in range(R):
                draw = UpdateDraw(len(history), int(edges[s, r]),
                                  float(us[s, r]))
                rows[r] = at_step(rows[r], p, draw, ell)
            history.append([r.to_tuple() for r in rows])
    return history


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 9), R=st.integers(2, 5), data=st.data(),
       seed=st.integers(0, 2 ** 32), steps=st.integers(0, 60),
       chunk=st.sampled_from([2048, 1, 7]), restricted=st.booleans(),
       layout=st.sampled_from(["C", "F", "transposed"]))
def test_ensemble_stepper_matches_scalar_oracle(n, R, data, seed, steps,
                                                chunk, restricted, layout):
    rng = np.random.default_rng(seed)
    # entries drawn from {0, 1/2, 1} and a uniform, so exact 0s and 1s occur
    upper = rng.choice([0.0, 0.5, 1.0, rng.random()], size=(n, n))
    p = BiasMatrix(upper)
    ell = random_admissible_localization(n, rng, max_ell=2) if restricted \
        else None
    # random localized starts: a short restricted walk from the identity
    walk_ell = ell if restricted else LocalizationVector.constant(n, n)
    starts = []
    for _ in range(R):
        sigma = Permutation.identity(n)
        for t in range(int(rng.integers(0, 4 * n))):
            sigma = at_step(sigma, BiasMatrix.constant(n, 0.5), UpdateDraw(
                t, int(rng.integers(1, n)), float(rng.random())), walk_ell)
        starts.append(sigma.forward)
    starts = np.array(starts, dtype=np.int64)
    if layout == "F":
        starts = np.asfortranarray(starts)
    elif layout == "transposed":
        starts = np.ascontiguousarray(starts.T).T
    marks = data.draw(st.lists(st.integers(0, steps), max_size=6),
                      label="checkpoints")
    if data.draw(st.booleans(), label="ends"):
        marks = marks + [0, steps]
    before = starts.copy()
    history = _ensemble_oracle(p, starts, steps, derive_rng(seed, 1), ell,
                               chunk)
    seen = []

    def snap(t, F):
        assert [tuple(r) for r in F.tolist()] == history[t]
        seen.append(t)

    F = ensemble_chain_run(p, starts, steps, derive_rng(seed, 1), ell=ell,
                           checkpoints=marks, checkpoint_fn=snap, chunk=chunk)
    assert seen == sorted(set(marks))
    assert [tuple(r) for r in F.tolist()] == history[steps]
    # the caller's starts are never written to
    assert np.array_equal(starts, before)


def test_ensemble_contract_errors():
    p = BiasMatrix.constant(4, 0.6)
    starts = np.tile(np.arange(1, 5), (3, 1))
    with pytest.raises(ContractError, match="steps"):
        ensemble_chain_run(p, starts, -1, derive_rng(1))
    for marks in ([-1], [0, 11], [11]):
        with pytest.raises(ContractError, match="checkpoints"):
            ensemble_chain_run(p, starts, 10, derive_rng(1), checkpoints=marks,
                               checkpoint_fn=lambda t, F: None)
    for bad in ([1, 2, 2, 4], [0, 1, 2, 3], [1, 2, 3, 5]):
        rows = starts.copy()
        rows[1] = bad
        with pytest.raises(ContractError, match="permutation"):
            ensemble_chain_run(p, rows, 10, derive_rng(1))
    # zero steps with checkpoint 0 fires once and returns the starts
    seen = []
    F = ensemble_chain_run(p, starts, 0, derive_rng(1), checkpoints=[0],
                           checkpoint_fn=lambda t, F: seen.append(t))
    assert seen == [0] and np.array_equal(F, starts)
    # a bias matrix of another size used to end in numpy's broadcast error
    for m in (3, 6):
        with pytest.raises(ContractError,
                           match=f"p is for n = {m}, but the start rows "
                                 "have n = 4"):
            ensemble_chain_run(BiasMatrix.constant(m, 0.6), starts, 10,
                               derive_rng(1))


def test_eta_projection_examples():
    # the trajectory records eta_k: 1 at the positions of labels <= k
    for sigma, k, eta in (((3, 1, 2), 2, [0, 1, 1]),
                          ((1, 2, 3, 4, 5), 2, [1, 1, 0, 0, 0]),
                          ((4, 3, 2, 1), 1, [0, 0, 0, 1])):
        fh = io.StringIO()
        write_checkpoint(fh, 0, np.array(sigma), tracked_ks=[k])
        assert json.loads(fh.getvalue())["projections"] == {str(k): eta}


def test_left_order_examples():
    # the proofs' prefix check
    assert left_of((1, 1, 0, 0), (1, 0, 1, 0))
    assert left_of((1, 0, 1), (1, 0, 1))
    assert not left_of((0, 1), (1, 0))


def test_asep_step_examples():
    # one process: a lone particle on the edge goes left iff u < q
    assert _asep_edge(0, 1, 0.3 < 0.75) == (1, 0)
    assert _asep_edge(1, 0, 0.8 < 0.75) == (0, 1)
    assert _asep_edge(1, 1, 0.1 < 0.75) == (1, 1)
    assert _asep_edge(0, 0, 0.9 < 0.75) == (0, 0)
    # bit j is process j: processes 2 and 3 move, 0 and 1 keep their sites
    assert _asep_edge(0b0110, 0b1010, True) == (0b1110, 0b0010)
    assert _asep_edge(0b0110, 0b1010, False) == (0b0010, 0b1110)


def test_asep_stationary_examples():
    nu = asep_stationary(3, 1, 0.75)
    assert nu.prob_of((1, 0, 0)) == pytest.approx(9 / 13, abs=1e-12)
    assert nu.prob_of((0, 1, 0)) == pytest.approx(3 / 13, abs=1e-12)
    assert nu.prob_of((0, 0, 1)) == pytest.approx(1 / 13, abs=1e-12)
    # single-edge ratio and the q -> 1 concentration direction
    nu2 = asep_stationary(2, 1, 0.9)
    assert nu2.prob_of((1, 0)) / nu2.prob_of((0, 1)) == pytest.approx(9.0)
    lo = asep_stationary(5, 2, 0.6).prob_of((1, 1, 0, 0, 0))
    hi = asep_stationary(5, 2, 0.9).prob_of((1, 1, 0, 0, 0))
    assert hi > lo


def test_asep_stationary_detailed_balance():
    nu = asep_stationary(6, 3, 0.8)
    P = asep_transition_matrix(6, 3, 0.8, states=nu.support)
    check_detailed_balance(P, nu)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 9), data=st.data(),
       q=st.sampled_from([0.3, 0.55, 0.7, 0.9, 0.999]))
def test_asep_law_and_kernel_match_the_reference_build(n, data, q):
    k = data.draw(st.integers(0, n))
    support, probs, logZ = reference_asep_weights(n, k, q)
    nu = asep_stationary(n, k, q)
    assert nu.support.tolist() == list(map(list, support)) and nu.logZ == logZ
    assert np.array_equal(nu.probs, probs)
    states = support
    if data.draw(st.booleans()):
        # any state order, not only the combinations one
        order = data.draw(st.permutations(range(len(states))))
        states = [states[i] for i in order]
    fast = asep_transition_matrix(n, k, q, states=states).matrix
    ref = reference_asep_transition_matrix(n, q, states)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(fast, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    if states is support:
        assert np.array_equal(asep_transition_matrix(n, k, q).matrix.data,
                              ref.data)


@pytest.mark.parametrize("k", [1, 2])
def test_asep_kernel_keys_past_int64_match_the_reference_build(k):
    # 2**n leaves int64 at n = 64; int64 keys collided there and dropped or
    # misdirected moves
    n, q = 100, 0.7
    nu = asep_stationary(n, k, q)
    fast = asep_transition_matrix(n, k, q, states=nu.support).matrix
    ref = reference_asep_transition_matrix(n, q,
                                           list(map(tuple, nu.support.tolist())))
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(fast, name), getattr(ref, name))


def test_asep_rightmost_tail_matches_enumeration():
    for (n, k, q) in ((3, 1, 0.75), (8, 3, 0.7), (9, 5, 0.9)):
        nu = asep_stationary(n, k, q)
        for r in range(0, n - k + 2):
            direct = sum(pr for s, pr in zip(nu.support, nu.probs)
                         if max((i + 1 for i, v in enumerate(s) if v),
                                default=0) >= k + r)
            assert asep_rightmost_tail(n, k, q, r) == pytest.approx(direct, abs=1e-12)
    assert asep_rightmost_tail(3, 1, 0.75, 1) == pytest.approx(4 / 13, abs=1e-12)


def test_block_schedules():
    ws = BlockSchedule.west_east(3)
    assert ws.blocks() == [(1, 2), (1, 3)]
    assert ws.chi() == 2
    assert BlockSchedule.single(5).chi() == 1
    for n in (6, 12, 30, 300):
        assert BlockSchedule.west_east(n).chi() == 2


def test_block_schedule_refuses_an_n_that_is_no_integer_of_at_least_one():
    # west_east(0) gave NaN probabilities, west_east(4.5) the block
    # (1.0, 4.5), west_east(-3).chi() numpy's ValueError, and True was n = 1
    for n in (0, -3, 4.5, 4.0, True, "4"):
        for make in (BlockSchedule.west_east, BlockSchedule.single):
            with pytest.raises(ContractError, match="integer n >= 1"):
                make(n)
    assert BlockSchedule.west_east(np.int64(3)).blocks() == [(1, 2), (1, 3)]
    assert BlockSchedule.single(1).chi() == 1


def test_block_schedule_refuses_an_unknown_selection():
    # an unknown selection used to fall back to uniform without a word
    for make in (BlockSchedule.west_east, BlockSchedule.single):
        with pytest.raises(ContractError, match="unknown block selection 'bogus'"):
            make(6, selection="bogus")
    assert BlockSchedule.single(4, "uniform").probabilities().tolist() == [1.0]


def test_block_schedule_refuses_an_unknown_kind_when_built():
    # an unknown kind used to construct and fail only in blocks()
    for kind in ("bogus", None, ["single"]):
        with pytest.raises(ContractError, match="unknown schedule kind"):
            BlockSchedule(kind, 5)
    assert BlockSchedule("single", 5) == BlockSchedule.single(5)


def test_block_step_preserves_stationarity():
    # empirical one-block-step distribution from an exact sample stays exact
    rng = np.random.default_rng(23)
    n = 5
    p = BiasMatrix.random_biased(n, 0.5, rng)
    ell = LocalizationVector.constant(n, 2)
    mu = enumerate_stationary(n, p, ell)
    R = 150000
    start_idx = rng.choice(len(mu.support), size=R, p=mu.probs)
    cnt = Counter()
    schedule = BlockSchedule.west_east(n)
    # group identical start states to batch the conditional draws
    by_state = Counter(int(i) for i in start_idx)
    for si, m in by_state.items():
        sigma = Permutation(mu.support[si])
        blocks = schedule.blocks()
        sizes = np.array(schedule.sizes(), dtype=float)
        probs = sizes / sizes.sum()
        picks = rng.choice(len(blocks), size=m, p=probs)
        for b_idx, count in Counter(int(x) for x in picks).items():
            rows = heat_bath_block_rows(sigma, blocks[b_idx], p, ell,
                                        rng, count)
            for row in rows:
                cnt[tuple(int(v) for v in row)] += 1
    observed = np.array([cnt.get(s, 0) for s in map(tuple, mu.support.tolist())],
                        dtype=float)
    expected = mu.probs * R
    keep = expected >= 5
    chi2 = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
    pval = 1.0 - stats.chi2.cdf(chi2, int(keep.sum()) - 1)
    assert pval > 1e-3


def test_exact_block_kernel_matches_block_step_frequencies():
    rng = np.random.default_rng(25)
    n = 4
    p = BiasMatrix.constant(n, 0.65)
    ell = LocalizationVector.constant(n, 2)
    mu = enumerate_stationary(n, p, ell)
    schedule = BlockSchedule.west_east(n)
    K = exact_block_kernel(mu, schedule)
    start = Permutation((2, 1, 4, 3))
    R = 10 ** 6
    blocks = schedule.blocks()
    sizes = np.array(schedule.sizes(), dtype=float)
    picks = rng.choice(len(blocks), size=R, p=sizes / sizes.sum())
    cnt = Counter()
    for b_idx, count in Counter(int(x) for x in picks).items():
        rows = heat_bath_block_rows(start, blocks[b_idx], p, ell, rng, count)
        cnt.update(tuple(int(v) for v in r) for r in rows)
    row = K.matrix[K.states.tolist().index(list(start.to_tuple()))].toarray().ravel()
    observed = np.array([cnt.get(s, 0) for s in map(tuple, mu.support.tolist())],
                        dtype=float)
    expected = row * R
    keep = expected >= 5
    assert float(observed[~keep].sum()) == 0.0
    chi2 = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
    pval = 1.0 - stats.chi2.cdf(chi2, int(keep.sum()) - 1)
    assert pval > 1e-3
    # the scalar block_step draws from the same conditional families
    for _ in range(300):
        out = block_step(start, schedule, p, ell, rng)
        assert is_localized(out, ell)
        assert mu.prob_of(out.to_tuple()) > 0


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_block_kernel_matches_the_reference_build(n, seed, data):
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
    selection = data.draw(st.sampled_from(["size", "uniform"]))
    schedule = data.draw(st.sampled_from([
        BlockSchedule.west_east(n, selection),
        BlockSchedule.single(n, selection)]))
    K = exact_block_kernel(mu, schedule)
    ref = reference_block_kernel(n, schedule, mu)
    assert np.array_equal(K.matrix.toarray(), ref)


def test_twin_chain_coupling():
    p = BiasMatrix.constant(2, 0.6)
    t, _ = twin_chain_coupling_run(Permutation((1, 2)), Permutation((1, 2)),
                                   p, None, 100, seed=0)
    assert t == 0
    t, _ = twin_chain_coupling_run(Permutation((1, 2)), Permutation((2, 1)),
                                   p, None, 2000, seed=1)
    assert t is not None and t <= 100
    # a bias matrix of another size used to run on its corner or crash
    for m in (1, 3):
        with pytest.raises(ContractError, match="sizes must match"):
            twin_chain_coupling_run(Permutation((1, 2)), Permutation((2, 1)),
                                    BiasMatrix.constant(m, 0.6), None, 100, 1)
    # ell selects the restricted chain
    n = 5
    ell = LocalizationVector.constant(n, 2)
    t, _ = twin_chain_coupling_run(Permutation.identity(n),
                                   max_localized_state(ell),
                                   BiasMatrix.constant(n, 0.75), ell,
                                   200000, seed=2)
    assert t is not None
    # block driver with a single block coalesces in exactly one step
    t, _ = twin_chain_coupling_run(Permutation.identity(n),
                                   max_localized_state(ell),
                                   BiasMatrix.constant(n, 0.75), ell,
                                   5, seed=3, driver="block",
                                   schedule=BlockSchedule.single(n))
    assert t == 1


# (p, ell, second start) of the twin block loop, the first start being the
# identity: constant bias on Mallows sub-instances, random-eps on band-DP
# (windowed) and enumerated (unrestricted) sub-instances
TWIN_BLOCK_CASES = {
    "constant, window": lambda: (BiasMatrix.constant(40, 0.75),
                                 LocalizationVector.constant(40, 9)),
    "constant, no window": lambda: (BiasMatrix.constant(40, 0.75), None),
    "random-eps, window": lambda: (
        BiasMatrix.random_biased(24, 0.5, np.random.default_rng(7)),
        LocalizationVector.constant(24, 4)),
    "random-eps, no window": lambda: (
        BiasMatrix.random_biased(7, 0.5, np.random.default_rng(8)), None),
}


@pytest.mark.parametrize("selection", ["size", "uniform"])
@pytest.mark.parametrize("kind", ["west-east", "single"])
@pytest.mark.parametrize("case", sorted(TWIN_BLOCK_CASES))
def test_block_driver_meets_when_the_reference_twin_loop_does(case, kind,
                                                             selection):
    """One derived generator per step, rewound for the second twin, and a
    block picked from the schedule's CDF meet at the times of a loop that
    derives each twin's generator and picks with Generator.choice."""
    p, ell = TWIN_BLOCK_CASES[case]()
    n = p.n
    schedule = BlockSchedule(kind, n, selection)
    top = Permutation.reversal(n) if ell is None else max_localized_state(ell)
    times = []
    for seed in range(4):
        t, _ = twin_chain_coupling_run(Permutation.identity(n), top, p, ell,
                                       12, seed, driver="block",
                                       schedule=schedule)
        assert t == twin_block_meeting_time(Permutation.identity(n), top, p,
                                            ell, 12, seed, schedule), seed
        times.append(t)
    assert any(t is not None and t > 1 for t in times) or kind == "single"


def test_block_driver_refuses_a_schedule_for_another_n():
    # a schedule for n = 8 used to resample only positions 1..8 of n = 12
    # and time out
    n = 12
    p = BiasMatrix.constant(n, 0.75)
    ell = LocalizationVector.constant(n, 3)
    schedule = BlockSchedule.west_east(8)
    with pytest.raises(ContractError, match="schedule is built for n = 8"):
        twin_chain_coupling_run(Permutation.identity(n),
                                max_localized_state(ell), p, ell, 50, 1,
                                driver="block", schedule=schedule)
    with pytest.raises(ContractError, match="schedule is built for n = 8"):
        block_step(Permutation.identity(n), schedule, p, ell,
                   np.random.default_rng(0))


def test_twin_chain_coupling_refuses_a_negative_horizon():
    # T = -3 used to return (None, ...), which reads as a timeout
    n = 6
    p = BiasMatrix.constant(n, 0.75)
    ell = LocalizationVector.constant(n, 2)
    for driver in ("at", "block"):
        with pytest.raises(ContractError, match="T must be >= 0, got -3"):
            twin_chain_coupling_run(Permutation.identity(n),
                                    max_localized_state(ell), p, ell, -3, 1,
                                    driver=driver,
                                    schedule=BlockSchedule.west_east(n))


@pytest.mark.parametrize("T", [5.5, 5.0, True, "5", None])
def test_twin_chain_coupling_refuses_a_horizon_that_is_not_an_integer(T):
    # T = 5.5 used to raise a slicing TypeError
    n = 6
    p = BiasMatrix.constant(n, 0.75)
    ell = LocalizationVector.constant(n, 2)
    for driver in ("at", "block"):
        with pytest.raises(ContractError, match="T must be an integer"):
            twin_chain_coupling_run(Permutation.identity(n),
                                    max_localized_state(ell), p, ell, T, 1,
                                    driver=driver,
                                    schedule=BlockSchedule.west_east(n))


def test_block_driver_meets_equal_starts_at_time_zero():
    n = 6
    p = BiasMatrix.constant(n, 0.75)
    ell = LocalizationVector.constant(n, 2)
    schedule = BlockSchedule.west_east(n)
    start = max_localized_state(ell)
    for driver in ("at", "block"):
        assert twin_chain_coupling_run(start, start, p, ell, 5, 1,
                                       driver=driver,
                                       schedule=schedule)[0] == 0
    far = Permutation.reversal(n)
    with pytest.raises(ContractError, match="starts must be localized"):
        twin_chain_coupling_run(far, far, p, ell, 5, 1, driver="block",
                                schedule=schedule)


def _first_agreement(a, b, p, ell, T, seed):
    """The twin's meeting time by two order-based scalar chains on its draw
    stream."""
    if a == b:
        return 0
    a, b = a.forward.tolist(), b.forward.tolist()
    dense = p.dense()
    rng = derive_rng(seed, experiment_id("twin-draws"))
    for t, edges, us in _audit_draws(rng, len(a), T):
        for e, u in zip(edges, us):
            t += 1
            ordered_update(a, e, u, dense, ell)
            ordered_update(b, e, u, dense, ell)
            if a == b:
                return t
    return None


@settings(max_examples=50, deadline=None, derandomize=True)
@given(n=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1),
       restricted=st.booleans(), T=st.integers(0, 1000))
def test_twin_meets_when_two_ordered_chains_first_agree(n, seed, restricted,
                                                        T):
    rng = np.random.default_rng(seed)
    p = random_bias_with_certain_pairs(n, rng)
    ell = random_admissible_localization(n, rng, max_ell=n - 1) if restricted \
        else None
    # localized starts: short restricted walks from the two extreme states
    walk_ell = ell if restricted else LocalizationVector.constant(n, n)
    starts = []
    for sigma in (Permutation.identity(n), max_localized_state(walk_ell)):
        for t in range(int(rng.integers(0, 2 * n))):
            sigma = at_step(sigma, BiasMatrix.constant(n, 0.5), UpdateDraw(
                t, int(rng.integers(1, n)), float(rng.random())), walk_ell)
        starts.append(sigma)
    t, _ = twin_chain_coupling_run(*starts, p, ell, T, seed)
    assert t == _first_agreement(*starts, p, ell, T, seed)


def _threshold_order_run(bottom, top, step, rng, steps):
    """Advance list rows bottom and top by step(f, e, u) on shared draws.

    The start pair must be ordered.  Raises AssertionError after the first
    draw that leaves some threshold projection of bottom right of top's.
    """
    n = len(bottom)

    def in_order():
        return all(left_of([int(v <= k) for v in bottom],
                           [int(v <= k) for v in top]) for k in range(1, n))

    if not in_order():
        raise ContractError("the start pair is not ordered")
    edges = rng.integers(1, n, size=steps).tolist()
    us = rng.random(steps).tolist()
    for t, (e, u) in enumerate(zip(edges, us), 1):
        step(bottom, e, u)
        step(top, e, u)
        if not in_order():
            raise AssertionError(f"twins left the threshold order at step {t}")


def _at_step_on_lists(p):
    """at_step as an in-place step(f, e, u) on plain-list rows."""
    def step(f, e, u):
        f[:] = at_step(Permutation(f), p, UpdateDraw(0, e, u)).to_tuple()
    return step


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 7), q=st.floats(0.05, 0.95), data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_ordered_list_step_keeps_twins_in_threshold_order(n, q, data, seed):
    # an ordered start pair: bottom is top after moves that each put a
    # smaller label ahead of a larger neighbour
    top = list(data.draw(st.permutations(range(1, n + 1)), label="top"))
    bottom = top.copy()
    for i in data.draw(st.lists(st.integers(0, n - 2), max_size=3 * n),
                       label="moves"):
        if bottom[i] > bottom[i + 1]:
            bottom[i], bottom[i + 1] = bottom[i + 1], bottom[i]
    step = chains._ordered_list_step(BiasMatrix.constant(n, q), None)
    _threshold_order_run(bottom, top, step, np.random.default_rng(seed), 150)


def test_at_step_breaks_the_threshold_order_on_the_same_draws():
    # the mutation check: draws that keep order-based twins in order break
    # the order of twins on at_step's swap orientation (at step 17)
    n = 5
    p = BiasMatrix.constant(n, 0.75)

    def run(step):
        _threshold_order_run(list(range(1, n + 1)), list(range(n, 0, -1)),
                             step, np.random.default_rng(1), 150)

    run(chains._ordered_list_step(p, None))
    with pytest.raises(AssertionError, match="threshold order"):
        run(_at_step_on_lists(p))


def test_coalesced_twins_never_separate():
    p = BiasMatrix.constant(4, 0.7)
    # run once to coalescence, then confirm shared-draw determinism keeps them
    # equal: rerunning with a longer horizon returns the same meeting time
    t1, _ = twin_chain_coupling_run(Permutation.identity(4),
                                    Permutation.reversal(4), p, None,
                                    5000, seed=4)
    t2, _ = twin_chain_coupling_run(Permutation.identity(4),
                                    Permutation.reversal(4), p, None,
                                    10000, seed=4)
    assert t1 == t2


def test_update_draw_contract():
    with pytest.raises(ContractError):
        UpdateDraw(0, 1, 1.5)
    with pytest.raises(ContractError):
        UpdateDraw(0, 0, 0.5)


def test_checkpoint_and_audit_records(tmp_path):
    from atshuffle.chains import (domination_audit_run,
                                  write_coupling_violation)
    path = tmp_path / "traj.jsonl"
    with open(path, "w") as fh:
        write_checkpoint(fh, 7, np.array([2, 1, 3]), tracked_ks=[1, 2])
    rec = json.loads(path.read_text())
    assert rec["step"] == 7
    assert rec["permutation"] == [2, 1, 3]
    assert rec["max_displacement"] == 1
    assert rec["projections"]["1"] == [0, 1, 0]
    vpath = tmp_path / "viol.jsonl"
    with open(vpath, "w") as fh:
        write_coupling_violation(fh, 3, 2, 0.4, [(1, 2), (0, 1)])
    vrec = json.loads(vpath.read_text())
    assert vrec == {"step": 3, "edge": 2, "u": 0.4,
                    "states": [[1, 2], [0, 1]]}
    # a clean audited run writes nothing to its log
    log = tmp_path / "audit.jsonl"
    rec = domination_audit_run(20, BiasMatrix.constant(20, 0.75), 0.75,
                               ks=[1, 4, 19], steps=5000, seed=1,
                               log_path=str(log))
    assert rec["violations"] == 0
    assert not log.exists() or log.read_text() == ""


def test_exact_block_kernel_refuses_above_the_memory_budget(monkeypatch):
    # n = 4 has 24 states: a dense kernel of 8 * 24**2 = 4608 bytes
    n = 4
    p = BiasMatrix.constant(n, 0.65)
    mu = enumerate_stationary(n, p)
    schedule = BlockSchedule.west_east(n)
    monkeypatch.setattr(chains, "MEMORY_BUDGET", 4607)
    with pytest.raises(CapExceeded, match="24 states.*4608 byte.*4607 byte"):
        exact_block_kernel(mu, schedule)
    monkeypatch.setattr(chains, "MEMORY_BUDGET", 4608)
    assert exact_block_kernel(mu, schedule).states is mu.support
