import itertools
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import audit_oracle
from audit_oracle import left_of
from chain_oracle import random_admissible_localization
from atshuffle import chains
from atshuffle.chains import (_asep_edge, _ordered_list_step,
                              asep_monotone_audit_run, asep_pair_coalescence,
                              domination_audit_run)
from atshuffle.errors import ContractError
from atshuffle.perms import (BiasMatrix, LocalizationVector, Permutation,
                             is_localized)


def occupancy_states(n, k):
    return [s for s in itertools.product((0, 1), repeat=n) if sum(s) == k]


def test_observation_two_cases_are_exhaustive():
    # any one-step order violation must be one of the two listed patterns
    for n in range(2, 7):
        for k in range(1, n):
            states = occupancy_states(n, k)
            for Y in states:
                for Yp in states:
                    if not left_of(Y, Yp):
                        continue
                    for i in range(n - 1):
                        for sa in (False, True):
                            for sb in (False, True):
                                Ya = list(Y)
                                Yb = list(Yp)
                                if sa and Ya[i] + Ya[i + 1] == 1:
                                    Ya[i], Ya[i + 1] = Ya[i + 1], Ya[i]
                                if sb and Yb[i] + Yb[i + 1] == 1:
                                    Yb[i], Yb[i + 1] = Yb[i + 1], Yb[i]
                                if left_of(Ya, Yb):
                                    continue
                                pre = ((Y[i], Y[i + 1]), (Yp[i], Yp[i + 1]))
                                post = ((Ya[i], Ya[i + 1]), (Yb[i], Yb[i + 1]))
                                case1 = pre[0] == (1, 0) and pre[1] in {(1, 0), (0, 1)} \
                                    and post == ((0, 1), (1, 0))
                                case2 = pre[0] in {(0, 1), (1, 0)} and pre[1] == (0, 1) \
                                    and post == ((0, 1), (1, 0))
                                assert case1 or case2, (Y, Yp, i, post)


def coupled_asep_step(Y, Yp, q, e, u):
    """Both rows after the engine's ASEP edge rule at edge e on uniform u,
    applied to the pair packed as two-bit words (bit 0 from Y, bit 1 from
    Yp), as the pair drivers pack it."""
    words = [a | b << 1 for a, b in zip(Y, Yp)]
    words[e - 1], words[e] = _asep_edge(words[e - 1], words[e], u < q)
    return [w & 1 for w in words], [w >> 1 for w in words]


def asep_step(Y, q, e, u):
    """Row Y after the engine's ASEP edge rule at edge e on uniform u."""
    Y = list(Y)
    Y[e - 1], Y[e] = _asep_edge(Y[e - 1], Y[e], u < q)
    return Y


def eta(f, k):
    return [int(v <= k) for v in f]


def test_coupled_asep_step_exhaustive():
    q = 0.75
    for n, k in ((4, 2), (5, 2), (5, 3)):
        states = occupancy_states(n, k)
        for Y in states:
            for Yp in states:
                if not left_of(Y, Yp):
                    continue
                for e in range(1, n):
                    for u in (0.2, 0.8):
                        assert left_of(*coupled_asep_step(Y, Yp, q, e, u))


def test_coupled_asep_step_equal_states_stay_equal():
    rng = np.random.default_rng(0)
    Y = Yp = [0, 1, 0, 1, 1, 0]
    for t in range(200):
        Y, Yp = coupled_asep_step(Y, Yp, 0.75, int(rng.integers(1, 6)),
                                  float(rng.random()))
        assert Y == Yp and sum(Y) == 3


def test_monotone_trajectory_audit():
    rec = asep_monotone_audit_run(50, 20, 0.75, steps=100000, seed=5)
    assert rec["violations"] == 0
    assert rec["audits"] == 100000


def test_domination_exhaustive_small():
    # all sigma, all k, all dominating Y, all edges, u on a grid
    rng = np.random.default_rng(1)
    ugrid = np.linspace(0.01, 0.99, 9)
    for n in (3, 4):
        for p in (BiasMatrix.constant(n, 0.75),
                  BiasMatrix.random_biased(n, 2.0, rng)):
            q = 0.75  # q/(1-q) = 3 <= 1 + eps for both instances
            all_states = {k: occupancy_states(n, k) for k in range(1, n)}
            step = _ordered_list_step(p, None)
            for perm in itertools.permutations(range(1, n + 1)):
                for e in range(1, n):
                    for u in map(float, ugrid):
                        f = list(perm)
                        step(f, e, u)
                        for k in range(1, n):
                            for Y in all_states[k]:
                                if left_of(eta(perm, k), Y):
                                    assert left_of(eta(f, k),
                                                   asep_step(Y, q, e, u))


def test_domination_exhaustive_restricted():
    # rejections override the coupling but never break the invariant
    rng = np.random.default_rng(2)
    ugrid = np.linspace(0.01, 0.99, 7)
    n = 4
    p = BiasMatrix.random_biased(n, 2.0, rng)
    for trial in range(5):
        ell = random_admissible_localization(n, rng, max_ell=2)
        step = _ordered_list_step(p, ell)
        for perm in itertools.permutations(range(1, n + 1)):
            if not is_localized(Permutation(perm), ell):
                continue
            for e in range(1, n):
                for u in map(float, ugrid):
                    f = list(perm)
                    step(f, e, u)
                    assert is_localized(Permutation(f), ell)
                    for k in range(1, n):
                        for Y in occupancy_states(n, k):
                            if left_of(eta(perm, k), Y):
                                assert left_of(eta(f, k),
                                               asep_step(Y, 0.75, e, u))


def test_domination_rejects_too_large_q():
    p = BiasMatrix.constant(3, 0.6)  # eps = 0.5
    with pytest.raises(ContractError, match="q/.1-q. <= 1.eps"):
        domination_audit_run(3, p, 0.9, [1], 10, 0,
                             start=Permutation.identity(3))


def test_domination_trajectory_audit():
    p = BiasMatrix.constant(40, 0.75)
    rec = domination_audit_run(40, p, 0.75, ks=[1, 2, 4, 8, 16, 32, 39],
                               steps=50000, seed=6)
    assert rec["violations"] == 0
    # restricted variant
    ell = LocalizationVector.constant(40, 8)
    rec = domination_audit_run(40, p, 0.75, ks=[1, 4, 16, 39], steps=50000,
                               seed=7, ell=ell,
                               start=Permutation.identity(40))
    assert rec["violations"] == 0


def test_out_of_order_swap_keeps_localization_exhaustive():
    rng = np.random.default_rng(3)
    for n in (3, 4, 5, 6):
        for _ in range(10):
            ell = random_admissible_localization(n, rng)
            for perm in itertools.permutations(range(1, n + 1)):
                sigma = Permutation(perm)
                if not is_localized(sigma, ell):
                    continue
                for v in range(1, n + 1):
                    for w in range(v + 1, n + 1):
                        if sigma.at(v) > sigma.at(w):
                            f = list(perm)
                            f[v - 1], f[w - 1] = f[w - 1], f[v - 1]
                            assert is_localized(Permutation(f), ell)


def test_restricted_move_graph_is_connected():
    rng = np.random.default_rng(4)
    for n in (3, 4, 5, 6):
        for _ in range(6):
            ell = random_admissible_localization(n, rng, max_ell=2)
            states = [s for s in itertools.permutations(range(1, n + 1))
                      if is_localized(Permutation(s), ell)]
            stset = set(states)
            seen = {states[0]}
            queue = deque([states[0]])
            while queue:
                s = queue.popleft()
                for i in range(n - 1):
                    t = s[:i] + (s[i + 1], s[i]) + s[i + 2:]
                    if t in stset and t not in seen:
                        seen.add(t)
                        queue.append(t)
            assert len(seen) == len(states)


# ---------------------------------------------------------------------------
# incremental audits and list-state coalescence against the full-recount oracle
# ---------------------------------------------------------------------------

def random_occupancy(n, k, rng):
    occ = [0] * n
    for v in rng.choice(n, size=k, replace=False):
        occ[v] = 1
    return occ


def localized_start(n, ell, rng):
    f = list(range(1, n + 1))
    for i in rng.integers(0, n - 1, size=4 * n):
        g = f.copy()
        g[i], g[i + 1] = g[i + 1], g[i]
        if is_localized(Permutation(g), ell):
            f = g
    return f


def check_domination_against_oracle(tmp_path, n, p, q, ks, steps, seed, ell,
                                    F0, Y0):
    ours, theirs = tmp_path / "ours.jsonl", tmp_path / "oracle.jsonl"
    for log in (ours, theirs):
        log.unlink(missing_ok=True)
    flagged = []
    got = chains._domination_audit(list(F0), [list(r) for r in Y0], p, q, ks,
                                   steps, seed, ell, str(ours), flagged)
    want, want_flagged = audit_oracle.domination_audit(
        F0, Y0, p, q, ks, steps, seed, ell, str(theirs))
    assert (got, flagged) == (want, want_flagged)
    assert ours.read_bytes() == theirs.read_bytes()
    assert len(ours.read_text().splitlines()) == want
    return want


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 14), data=st.data(), seed=st.integers(0, 2 ** 32),
       steps=st.integers(0, 400), family=st.sampled_from(
           ["constant", "random", "totally-asymmetric"]),
       q=st.floats(0.5, 0.75), restricted=st.booleans(),
       inject=st.booleans())
def test_domination_audit_matches_full_recount(tmp_path_factory, n, data,
                                               seed, steps, family, q,
                                               restricted, inject):
    rng = np.random.default_rng(seed)
    ks = sorted(data.draw(st.lists(st.integers(1, n - 1), min_size=1,
                                   max_size=6), label="ks"))
    p = {"constant": BiasMatrix.constant(n, 0.75),
         "random": BiasMatrix.random_biased(n, 2.0, rng),
         "totally-asymmetric": BiasMatrix.totally_asymmetric(n)}[family]
    if restricted:
        ell = random_admissible_localization(n, rng, max_ell=2)
        F0 = localized_start(n, ell, rng)
    else:
        ell = None
        F0 = [int(v) for v in rng.permutation(n) + 1]
    if inject:
        # ASEP rows that need not dominate their projections
        Y0 = [random_occupancy(n, k, rng) for k in ks]
    else:
        Y0 = [[int(v <= k) for v in F0] for k in ks]
    violations = check_domination_against_oracle(
        tmp_path_factory.mktemp("dom"), n, p, q, ks, steps, seed, ell, F0, Y0)
    if not inject:
        assert violations == 0


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 14), data=st.data(), seed=st.integers(0, 2 ** 32),
       steps=st.integers(0, 400), q=st.floats(0.05, 0.95),
       inject=st.booleans())
def test_monotone_audit_matches_full_recount(n, data, seed, steps, q, inject):
    rng = np.random.default_rng(seed)
    k = data.draw(st.integers(0, n), label="k")
    if inject:
        top, bot = random_occupancy(n, k, rng), random_occupancy(n, k, rng)
    else:
        top = [int(i >= n - k) for i in range(n)]
        bot = [int(i < k) for i in range(n)]
    flagged = []
    got = chains._monotone_audit(top, bot, q, steps, seed, flagged)
    assert (got, flagged) == audit_oracle.monotone_audit(top, bot, q, steps,
                                                         seed)
    if not inject:
        assert got == 0


def test_injected_violations_flagged_across_draw_chunks(tmp_path):
    # more than two draw chunks, so the per-chunk recount runs three times
    n, steps, seed = 12, 2 * 8192 + 17, 3
    p = BiasMatrix.constant(n, 0.75)
    ks = [2, 5, 9]
    F0 = list(range(n, 0, -1))
    # left-packed ASEP rows lie left of the reversal's right-packed projections
    Y0 = [[int(i < k) for i in range(n)] for k in ks]
    assert check_domination_against_oracle(tmp_path, n, p, 0.75, ks, steps,
                                           seed, None, F0, Y0) > 0
    top = [1, 1, 0, 0, 0, 0, 0, 0]   # top left of bottom: out of order
    bot = [0, 0, 0, 0, 0, 0, 1, 1]
    flagged = []
    got = chains._monotone_audit(top, bot, 0.6, steps, seed, flagged)
    assert got > 0 and flagged[0] == 1
    assert (got, flagged) == audit_oracle.monotone_audit(top, bot, 0.6,
                                                         steps, seed)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 40), data=st.data(), q=st.floats(0.01, 0.99),
       seed=st.integers(0, 2 ** 64), t_cap=st.integers(0, 3000))
def test_pair_coalescence_matches_reference(n, data, q, seed, t_cap):
    k = data.draw(st.integers(0, n), label="k")
    assert asep_pair_coalescence(n, k, q, seed, t_cap) == \
        audit_oracle.pair_coalescence(n, k, q, seed, t_cap)


@pytest.mark.parametrize("labels, q, ks, steps", [
    (6, 1.0, [2], 100),     # used to divide by zero
    (6, 1.5, [2], 100),     # used to run and report 65 violations
    (6, math.nan, [2], 100),
    (6, 0.75, [0], 100), (6, 0.75, [6], 100), (6, 0.75, [9], 100),
    (6, 0.75, [-1], 100),
    (6, 0.75, [], 100),     # used to audit nothing and pass
    (6, 0.75, [2], -5),     # used to record "steps": -5
    (8, 0.75, [2], 100),    # used to run on p's first six labels
])
def test_domination_audit_refuses_a_broken_contract(labels, q, ks, steps):
    p = BiasMatrix.constant(labels, 0.75)
    with pytest.raises(ContractError):
        domination_audit_run(6, p, q, ks, steps, 0)


def test_domination_audit_admits_q_one_only_at_infinite_eps():
    rec = domination_audit_run(6, BiasMatrix.totally_asymmetric(6), 1.0, [2],
                               100, 0)
    assert rec["violations"] == 0


@pytest.mark.parametrize("q, horizon", [
    (1.5, 10), (-0.5, 10), (math.nan, 10), (0.75, -1)])
def test_asep_drivers_refuse_a_bad_q_or_horizon(q, horizon):
    with pytest.raises(ContractError):
        asep_pair_coalescence(6, 3, q, 0, horizon)
    with pytest.raises(ContractError):
        asep_monotone_audit_run(6, 3, q, horizon, 0)


def test_monotone_audit_refuses_a_single_site():
    # numpy's integers(1, 1) used to raise ValueError: low >= high
    with pytest.raises(ContractError, match="n >= 2"):
        asep_monotone_audit_run(1, 0, 0.7, 10, 0)
    # a single site has nothing to couple: the pair has already met
    assert asep_pair_coalescence(1, 0, 0.7, 0, 10) == 0
    assert asep_pair_coalescence(1, 1, 0.7, 0, 10) == 0


def test_coupling_drivers_reject_bad_sizes():
    for k in (-1, 5):
        with pytest.raises(ContractError):
            asep_pair_coalescence(4, k, 0.75, 0, 10)
        with pytest.raises(ContractError):
            asep_monotone_audit_run(4, k, 0.75, 10, 0)
    with pytest.raises(ContractError):
        domination_audit_run(5, BiasMatrix.constant(5, 0.75), 0.75, [2], 10,
                             0, start=Permutation.identity(4))
