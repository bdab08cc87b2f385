import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import block_oracle as oracle
from atshuffle.errors import ContractError, EmptySupport
from atshuffle.perms import (BiasMatrix, BoundaryAssignment, LocalizationVector,
                             Permutation, apply_adjacent_transposition,
                             disconnecting_positions, embed,
                             induced_localization, inverse_rows,
                             is_disconnecting, is_localized, localized_rows,
                             max_displacement,
                             max_localized_state,
                             random_admissible_localization, relabel_map,
                             restrict_instance)


def test_adjacent_transposition_examples():
    assert apply_adjacent_transposition(Permutation((1, 2, 3)), 1).to_tuple() == (2, 1, 3)
    assert apply_adjacent_transposition(Permutation((2, 1, 3)), 1).to_tuple() == (1, 2, 3)
    two = apply_adjacent_transposition(
        apply_adjacent_transposition(Permutation((1, 2, 3)), 1), 2)
    assert two.to_tuple() == (2, 3, 1)
    with pytest.raises(ContractError):
        apply_adjacent_transposition(Permutation((1, 2, 3)), 3)


def test_forward_inverse_consistency_under_random_swaps():
    rng = np.random.default_rng(0)
    sigma = Permutation.identity(9)
    for _ in range(500):
        sigma.swap(int(rng.integers(1, 9)))
        assert np.array_equal(sigma.inverse[sigma.forward - 1],
                              np.arange(1, 10))
    assert sorted(sigma.to_tuple()) == list(range(1, 10))


def test_is_localized_examples():
    assert is_localized(Permutation.identity(6), LocalizationVector.constant(6, 0))
    assert not is_localized(Permutation((2, 1, 3, 4)), LocalizationVector.constant(4, 0))
    assert is_localized(Permutation((2, 1, 3, 4)), LocalizationVector.constant(4, 1))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 12), R=st.integers(0, 6), seed=st.integers(0, 2 ** 32 - 1),
       max_ell=st.integers(0, 4))
def test_row_checks_match_the_permutation_checks(n, R, seed, max_ell):
    rng = np.random.default_rng(seed)
    ell = random_admissible_localization(n, rng, max_ell=max_ell)
    # displaced rows, some localized and some not
    F = np.array([rng.permutation(n) + 1 if r % 2 else
                  max_localized_state(ell).forward for r in range(R)],
                 dtype=np.int64).reshape(R, n)
    INV = inverse_rows(F)
    ok = localized_rows(F, ell)
    assert ok.dtype == bool and ok.shape == (R,)
    for row, inv, flag in zip(F, INV, ok):
        sigma = Permutation(row)
        assert np.array_equal(inv, sigma.inverse)
        assert flag == is_localized(sigma, ell)
    with pytest.raises(ContractError, match="size mismatch"):
        localized_rows(np.ones((R, n + 1), dtype=np.int64), ell)


def test_disconnecting_examples():
    assert is_disconnecting(Permutation.identity(5), 3)
    assert not is_disconnecting(Permutation((2, 1, 3)), 1)
    assert is_disconnecting(Permutation((2, 1, 3)), 2)
    assert not is_disconnecting(Permutation((3, 1, 2)), 2)
    # running-max sweep agrees with the direct definition
    rng = np.random.default_rng(1)
    for _ in range(50):
        sigma = Permutation(rng.permutation(8) + 1)
        expected = [k for k in range(1, 9)
                    if set(sigma.to_tuple()[:k]) == set(range(1, k + 1))]
        assert disconnecting_positions(sigma) == expected


def test_max_displacement_examples():
    assert max_displacement(Permutation.identity(7)) == 0
    assert max_displacement(Permutation((4, 3, 2, 1))) == 3
    assert max_displacement(Permutation((2, 1, 3))) == 1


def test_relabel_map_examples():
    assert list(relabel_map(BoundaryAssignment(4, (2,), ()))) == [1, 3, 4]
    assert list(relabel_map(BoundaryAssignment(5, (1,), (5,)))) == [2, 3, 4]
    assert list(relabel_map(BoundaryAssignment(3, (), ()))) == [1, 2, 3]


def test_relabel_map_identity_on_middle_range():
    # r(k) = k + i away from the boundary, checked over localized boundaries
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(4, 9))
        ell = random_admissible_localization(n, rng, max_ell=2)
        sigma = Permutation(rng.permutation(n) + 1)
        if not is_localized(sigma, ell):
            continue
        i = int(rng.integers(0, n - 1))
        j = int(rng.integers(0, n - i))
        b = BoundaryAssignment.from_permutation(sigma, i, j)
        r = relabel_map(b)
        m = n - i - j
        for k in range(1 + ell.l_max_minus, m - ell.l_max_plus + 1):
            assert r[k - 1] == k + i


def restricted(sigma, b, p, ell):
    """The relabeled interior of sigma plus its instance."""
    sub_p, sub_ell, r = restrict_instance(b, p, ell)
    interior = sigma.forward[b.i:b.i + b.interior_size]
    return Permutation(np.searchsorted(r, interior) + 1), sub_p, sub_ell, r


def test_restrict_example_and_round_trip():
    p = BiasMatrix.constant(4, 0.6)
    ell = LocalizationVector.constant(4, math.inf)
    b = BoundaryAssignment(4, (2,), ())
    sub, _, _, r = restricted(Permutation((2, 3, 1, 4)), b, p, ell)
    assert sub.to_tuple() == (2, 1, 3)
    assert embed(sub, b, r).to_tuple() == (2, 3, 1, 4)


def test_restrict_round_trip_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(3, 9))
        ell = random_admissible_localization(n, rng, max_ell=3)
        sigma = Permutation(rng.permutation(n) + 1)
        if not is_localized(sigma, ell):
            continue
        i = int(rng.integers(0, n - 1))
        j = int(rng.integers(0, n - i))
        b = BoundaryAssignment.from_permutation(sigma, i, j)
        p = BiasMatrix.random_biased(n, 0.5, rng)
        sub, sub_p, sub_ell, r = restricted(sigma, b, p, ell)
        assert embed(sub, b, r).to_tuple() == sigma.to_tuple()
        # locality maintained with shrunken maxima, admissibility kept
        assert is_localized(sub, sub_ell)
        assert sub_ell.is_admissible()
        assert sub_ell.l_max_minus <= ell.l_max_minus
        assert sub_ell.l_max_plus <= ell.l_max_plus
        # measure map: q[k][k'] = p[r(k)][r(k')]
        m = b.interior_size
        for k1 in range(1, m + 1):
            for k2 in range(1, m + 1):
                if k1 != k2:
                    assert sub_p.get(k1, k2) == p.get(int(r[k1 - 1]), int(r[k2 - 1]))


def test_induced_localization_truncation_example():
    # n=6, boundary on both ends, constant windows: induced maxima shrink
    ell = LocalizationVector.constant(6, 2)
    b = BoundaryAssignment(6, (2,), (5,))
    sub_ell = induced_localization(b, ell)
    assert sub_ell.n == 4
    assert sub_ell.is_admissible()
    assert sub_ell.l_max <= 2


def test_induced_localization_rejects_impossible_boundary():
    # particle 2 pinned to position 4 forces every completion to shift left,
    # impossible with lo = 0 windows
    ell = LocalizationVector([0, 0, 0, 0], [2, 2, 2, 2])
    b = BoundaryAssignment(4, (), (2,))
    with pytest.raises(EmptySupport):
        induced_localization(b, ell)


def test_localization_vector_basics():
    ell = LocalizationVector.constant(5, 2)
    assert ell.l_max == 2
    assert ell.window(1) == (1, 3)
    assert ell.window(5) == (3, 5)
    assert ell.is_admissible()
    # the all-inf vector truncates to the unrestricted windows
    free = LocalizationVector.constant(4, math.inf)
    assert free.lo.tolist() == [0, 1, 2, 3] and free.hi.tolist() == [3, 2, 1, 0]
    # text round trip
    ell2 = LocalizationVector.from_text(ell.to_text())
    assert ell2 == ell


def test_random_admissible_localization_is_admissible():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        ell = random_admissible_localization(n, rng, max_ell=int(rng.integers(0, 5)))
        assert ell.is_admissible()


def test_bias_matrix_mirror_and_epsilon():
    p = BiasMatrix.constant(3, 0.6)
    assert p.get(1, 2) == 0.6
    assert p.get(2, 1) == 1.0 - 0.6
    assert abs(p.epsilon - 0.5) < 1e-12
    assert math.isinf(BiasMatrix.totally_asymmetric(4).epsilon)
    # a matrix with an inverted pair is not 0-positively biased
    up = np.zeros((3, 3))
    up[np.triu_indices(3, k=1)] = (0.4, 0.9, 0.9)
    assert BiasMatrix(up).epsilon < 0


def test_bias_matrix_families_and_serialization():
    rng = np.random.default_rng(5)
    p = BiasMatrix.random_biased(6, 0.5, rng)
    assert p.epsilon >= 0.5 - 1e-12
    m = BiasMatrix.monotone_biased(7, 0.5, rng)
    assert m.is_monotone() and m.epsilon >= 0.5 - 1e-12
    assert BiasMatrix.constant_from_epsilon(4, 0.5).get(1, 2) == pytest.approx(0.6)
    round_trip = BiasMatrix.from_text(p.to_text())
    assert round_trip == p
    unpickled = pickle.loads(pickle.dumps(p))
    assert unpickled.dense().tobytes() == p.dense().tobytes()
    assert not unpickled.dense().flags.writeable
    # a tampered certificate is rejected
    bad = p.to_text().replace(f"epsilon {p.epsilon!r}", "epsilon 0.9")
    with pytest.raises(ContractError):
        BiasMatrix.from_text(bad)


def test_max_localized_state():
    # no simultaneous lattice top exists across all projections, so the greedy
    # state is only required to be a localized, maximally displaced far start
    ell = LocalizationVector.constant(5, 2)
    mx = max_localized_state(ell)
    assert mx.to_tuple() == (3, 4, 1, 2, 5)
    assert is_localized(mx, ell)
    assert max_displacement(mx) == 2
    # every small particle sits at its deadline for constant windows
    assert mx.position(1) == 3
    # the single-particle projection is extreme: no localized state puts
    # particle 1 further right
    for perm in itertools.permutations(range(1, 6)):
        sigma = Permutation(perm)
        if is_localized(sigma, ell):
            assert sigma.position(1) <= mx.position(1)


def test_max_localized_state_random_vectors():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        ell = random_admissible_localization(n, rng, max_ell=3)
        assert is_localized(max_localized_state(ell), ell)


FAMILIES = ("constant", "random", "monotone")


def family_bias(family, n, rng):
    if family == "constant":
        return BiasMatrix.constant(n, float(rng.uniform(0.5, 1.0)))
    if family == "random":
        return BiasMatrix.random_biased(n, 0.5, rng)
    return BiasMatrix.monotone_biased(n, 0.5, rng)


def localized_walk(ell, rng, steps):
    """A localized permutation: adjacent swaps from the extreme state, each
    undone if it leaves the localized set."""
    sigma = max_localized_state(ell)
    for _ in range(steps if ell.n > 1 else 0):
        e = int(rng.integers(1, ell.n))
        sigma.swap(e)
        if not is_localized(sigma, ell):
            sigma.swap(e)
    return sigma


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 40), family=st.sampled_from(FAMILIES),
       window=st.sampled_from(["none", "constant", "random"]),
       localized=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_block_instance_matches_reference(n, family, window, localized, seed,
                                          data):
    rng = np.random.default_rng(seed)
    p = family_bias(family, n, rng)
    ell = {"none": None,
           "constant": LocalizationVector.constant(n, data.draw(st.integers(0, 5))),
           "random": random_admissible_localization(
               n, rng, max_ell=data.draw(st.integers(0, 5)))}[window]
    # boundaries of localized permutations have completions; those of
    # arbitrary ones often do not, and must fail alike
    if localized and ell is not None:
        sigma = localized_walk(ell, rng, 4 * n)
    else:
        sigma = Permutation(rng.permutation(n) + 1)
    i = data.draw(st.integers(0, n))
    b = BoundaryAssignment.from_permutation(sigma, i, data.draw(st.integers(0, n - i)))
    want_r = oracle.relabel_map(b)
    r = relabel_map(b)
    assert r.dtype == want_r.dtype and np.array_equal(r, want_r)
    try:
        want_p, want_ell, _ = oracle.restrict_instance(b, p, ell)
    except EmptySupport as exc:
        for fn in (restrict_instance, lambda b, p, ell: induced_localization(b, ell)):
            with pytest.raises(EmptySupport) as got:
                fn(b, p, ell)
            assert str(got.value) == str(exc)
        return
    sub_p, sub_ell, r = restrict_instance(b, p, ell)
    assert np.array_equal(r, want_r)
    assert sub_p.dense().tobytes() == want_p.dense().tobytes()
    assert not sub_p.dense().flags.writeable
    assert sub_p.constant_q() == oracle.constant_q(want_p)
    assert sub_p.epsilon == want_p.epsilon
    assert sub_p.to_text() == oracle.bias_text(want_p)
    if ell is None:
        assert sub_ell is None
        return
    for got_ell in (sub_ell, induced_localization(b, ell)):
        assert got_ell.n == want_ell.n
        assert got_ell.lo.dtype == got_ell.hi.dtype == np.int64
        assert np.array_equal(got_ell.lo, want_ell.lo)
        assert np.array_equal(got_ell.hi, want_ell.hi)


def test_submatrix_needs_increasing_labels_and_carries_q():
    p = BiasMatrix.random_biased(5, 0.5, np.random.default_rng(7))
    for labels in ([2, 1], [1, 3, 3], [0, 2], [4, 6], [[1, 2]]):
        with pytest.raises(ContractError, match="strictly increasing"):
            p.submatrix(labels)
    assert p.submatrix([]).n == 0
    c = BiasMatrix.constant(6, 0.7)
    assert c.submatrix([1, 4, 6])._q == 0.7
    # a single label is constant by convention, whatever its parent
    assert c.submatrix([2]).constant_q() == p.submatrix([2]).constant_q() == 1.0
    assert p.submatrix([2, 5]).constant_q() == p.get(2, 5)


def reference_outcome(fn, ell):
    try:
        return fn(ell).to_tuple()
    except (ContractError, AssertionError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1),
       max_ell=st.none() | st.integers(0, 8), admissible=st.booleans())
def test_max_localized_state_matches_reference(n, seed, max_ell, admissible):
    rng = np.random.default_rng(seed)
    if admissible:
        ell = random_admissible_localization(n, rng, max_ell=max_ell)
    else:
        top = 3 if max_ell is None else max_ell + 1
        ell = LocalizationVector(rng.integers(0, top, n), rng.integers(0, top, n))
    assert reference_outcome(max_localized_state, ell) == \
        reference_outcome(oracle.max_localized_state, ell)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 30), family=st.sampled_from(FAMILIES),
       seed=st.integers(0, 2 ** 32 - 1))
def test_bias_text_matches_reference(n, family, seed):
    p = family_bias(family, n, np.random.default_rng(seed))
    assert p.to_text() == oracle.bias_text(p)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), n=st.integers(2, 7))
def test_bias_text_keeps_signed_zeros_and_certain_pairs(data, n):
    up = np.zeros((n, n))
    up[np.triu_indices(n, k=1)] = data.draw(st.lists(
        st.sampled_from([0.0, -0.0, 1.0, 0.5, 0.75]),
        min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    p = BiasMatrix(up)
    assert p.to_text() == oracle.bias_text(p)
