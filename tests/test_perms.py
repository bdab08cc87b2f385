import hashlib
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import block_oracle as oracle
import chain_oracle
from chain_oracle import is_monotone, random_admissible_localization
from atshuffle.banddp import heat_bath_block_rows
from atshuffle.chains import BlockSchedule
from atshuffle.errors import ContractError, EmptySupport
from atshuffle.perms import (BiasMatrix, BoundaryAssignment, LocalizationVector,
                             Permutation, instance_fingerprint, is_localized,
                             localized_rows, max_displacement,
                             max_localized_state, restrict_instance)


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
    ok = localized_rows(F, ell)
    assert ok.dtype == bool and ok.shape == (R,)
    for row, flag in zip(F, ok):
        assert flag == is_localized(Permutation(row), ell)
    with pytest.raises(ContractError, match="size mismatch"):
        localized_rows(np.ones((R, n + 1), dtype=np.int64), ell)


@pytest.mark.parametrize("n", [1, 8, 300])
def test_localized_rows_matches_the_inverse_check(n):
    """The gather check gives the inverse-based check's booleans on seeded
    rows near the identity, inside and outside random admissible windows
    and constant ones."""
    rng = np.random.default_rng(n)
    # the identity, then rows of random adjacent swaps
    F = np.tile(np.arange(1, n + 1), (64, 1))
    if n > 1:
        for row in F[1:]:
            for i in rng.integers(0, n - 1, size=int(rng.integers(0, 3 * n))):
                row[i], row[i + 1] = row[i + 1], row[i]
    for ell in (random_admissible_localization(n, rng, max_ell=3),
                random_admissible_localization(n, rng, max_ell=6),
                LocalizationVector.constant(n, 2), LocalizationVector.constant(n, 0)):
        want = oracle.localized_rows(F, ell)
        assert np.array_equal(localized_rows(F, ell), want)
        if n > 1:
            assert want.any() and not want.all()


def test_max_displacement_examples():
    assert max_displacement(Permutation.identity(7).forward[None])[0] == 0
    assert max_displacement(Permutation((4, 3, 2, 1)).forward[None])[0] == 3
    assert max_displacement(Permutation((2, 1, 3)).forward[None])[0] == 1
    rows = np.array([[1, 2, 3], [3, 2, 1], [2, 1, 3]])
    assert max_displacement(rows).tolist() == [0, 2, 1]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(row=st.integers(1, 12).flatmap(
    lambda n: st.permutations(range(1, n + 1))))
def test_max_displacement_from_the_row_matches_the_inverse(row):
    # the particle at position i is |i - forward[i]| from home, so the row
    # gives the maximum over particles that the inverse gives
    row = np.array(row, dtype=np.int64)
    positions = np.argsort(row) + 1
    assert max_displacement(row[None])[0] == \
        np.max(np.abs(positions - np.arange(1, len(row) + 1)))


def test_relabel_map_examples():
    # the oracle's relabel map, the reference for a block's labels
    assert list(oracle.relabel_map(BoundaryAssignment(4, (2,), ()))) == [1, 3, 4]
    assert list(oracle.relabel_map(BoundaryAssignment(5, (1,), (5,)))) == [2, 3, 4]
    assert list(oracle.relabel_map(BoundaryAssignment(3, (), ()))) == [1, 2, 3]


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
        r = oracle.relabel_map(oracle.boundary_of(sigma, i, j))
        m = n - i - j
        for k in range(1 + ell.l_max_minus, m - ell.l_max_plus + 1):
            assert r[k - 1] == k + i


def restricted(sigma, a, b, p, ell):
    """The relabeled block (a, b) of sigma plus its instance and labels."""
    block = sigma.forward[a - 1:b]
    r = np.sort(block)
    sub_p, sub_ell = restrict_instance(p, ell, a, r)
    return Permutation(np.searchsorted(r, block) + 1), sub_p, sub_ell, r


def test_restrict_example_and_round_trip():
    p = BiasMatrix.constant(4, 0.6)
    ell = LocalizationVector.constant(4, math.inf)
    # label 2 pinned at position 1
    sub, _, _, r = restricted(Permutation((2, 3, 1, 4)), 2, 4, p, ell)
    assert sub.to_tuple() == (2, 1, 3)
    assert r[sub.forward - 1].tolist() == [3, 1, 4]


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
        a, b = i + 1, n - j
        p = BiasMatrix.random_biased(n, 0.5, rng)
        sub, sub_p, sub_ell, r = restricted(sigma, a, b, p, ell)
        # the interior relabeled back is sigma's interior
        assert np.array_equal(r[sub.forward - 1], sigma.forward[a - 1:b])
        # locality maintained with shrunken maxima, admissibility kept
        assert is_localized(sub, sub_ell)
        assert sub_ell.is_admissible()
        assert sub_ell.l_max_minus <= ell.l_max_minus
        assert sub_ell.l_max_plus <= ell.l_max_plus
        # measure map: q[k][k'] = p[r(k)][r(k')]
        m = b - a + 1
        for k1 in range(1, m + 1):
            for k2 in range(1, m + 1):
                if k1 != k2:
                    assert sub_p.get(k1, k2) == p.get(int(r[k1 - 1]), int(r[k2 - 1]))


def test_induced_localization_truncation_example():
    # n=6, boundary on both ends, constant windows: induced maxima shrink
    ell = LocalizationVector.constant(6, 2)
    # labels 2 and 5 pinned at positions 1 and 6
    _, sub_ell = restrict_instance(BiasMatrix.constant(6, 0.7), ell, 2,
                                   [1, 3, 4, 6])
    assert sub_ell.n == 4
    assert sub_ell.is_admissible()
    assert sub_ell.l_max <= 2


def test_induced_localization_rejects_impossible_boundary():
    # particle 2 pinned to position 4 forces every completion to shift left,
    # impossible with lo = 0 windows
    ell = LocalizationVector([0, 0, 0, 0], [2, 2, 2, 2])
    with pytest.raises(EmptySupport):
        restrict_instance(BiasMatrix.constant(4, 0.7), ell, 1, [1, 3, 4])


def test_restrict_instance_refuses_mismatched_sizes():
    # an 8-entry ell used to give the windows of a 6-label instance, and a
    # boundary of another n a sub-instance with the wrong labels
    p = BiasMatrix.constant(6, 0.7)
    with pytest.raises(ContractError, match="ell has 8 entries, but p has n = 6"):
        restrict_instance(p, LocalizationVector.constant(8, 2), 2, [1, 3, 4])
    for a, labels in ((5, [1, 2, 3]), (0, [1, 2]), (7, [2]),
                      (2, [1, 2, 3, 4, 5, 6])):
        with pytest.raises(ContractError, match="do not fit in 1..6"):
            restrict_instance(p, None, a, labels)
    # labels not strictly increasing in 1..n are the submatrix's to refuse
    for labels in ([3, 2], [0, 1], [5, 7]):
        with pytest.raises(ContractError, match="strictly increasing"):
            restrict_instance(p, None, 2, labels)


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
    assert is_monotone(m) and m.epsilon >= 0.5 - 1e-12
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


def test_monotone_family_matches_the_loop_bit_for_bit():
    # the running maxima replace an O(n^2) Python loop
    for n, seed, eps in itertools.product(range(40), range(5),
                                          (0.0, 0.3, 2.0, math.inf)):
        got = BiasMatrix.monotone_biased(n, eps, np.random.default_rng(seed))
        want = chain_oracle.monotone_biased(n, eps,
                                            np.random.default_rng(seed))
        assert got.dense().tobytes() == want.dense().tobytes(), (n, seed, eps)


def test_value_types_refuse_values_they_cannot_represent():
    # a NaN entry passed the [0, 1] check: constant(4, nan) read epsilon
    # inf and constant_q() None, and the domination audit ran on it
    up = np.zeros((3, 3))
    up[np.triu_indices(3, k=1)] = (0.7, math.nan, 0.8)
    with pytest.raises(ContractError, match="must lie in"):
        BiasMatrix(up)
    with pytest.raises(ContractError, match="must lie in"):
        BiasMatrix.constant(4, math.nan)
    # a NaN eps passed every eps < 0 check
    rng = np.random.default_rng(0)
    for make in (BiasMatrix.constant_from_epsilon,
                 lambda n, eps: BiasMatrix.random_biased(n, eps, rng),
                 lambda n, eps: BiasMatrix.monotone_biased(n, eps, rng)):
        with pytest.raises(ContractError, match="eps must be nonnegative"):
            make(4, math.nan)
    # eps = inf used to build NaN entries, or to end in numpy's
    # OverflowError for the random families; it is q = 1
    tas = BiasMatrix.constant_from_epsilon(4, math.inf)
    assert tas == BiasMatrix.totally_asymmetric(4)
    assert tas.constant_q() == 1.0 and math.isinf(tas.epsilon)
    assert BiasMatrix.random_biased(4, math.inf, rng) == tas
    assert BiasMatrix.monotone_biased(4, math.inf, rng) == tas
    # int64 used to truncate labels: [1.9, 2.2] became [1, 2]
    for forward in ([1.9, 2.2], [1.0, math.nan], [math.inf, 1.0]):
        with pytest.raises(ContractError, match="each label"):
            Permutation(forward)
    assert Permutation([2.0, 1.0]).to_tuple() == (2, 1)
    # int64 used to parse strings of digits: ["2", "1"] became (2, 1)
    for forward in (["2", "1"], ["1"], [True], [None, 1]):
        with pytest.raises(ContractError, match="each label"):
            Permutation(forward)
    # a scalar raised IndexError, and a nested list numpy's ValueError
    for forward in (5, [[1, 2], [2, 1]], [[1, 2], [3]], [1, [2]]):
        with pytest.raises(ContractError, match="each label"):
            Permutation(forward)
    # a boundary truncated a float label (1.5 pinned label 1), took True as
    # label 1 and raised TypeError on a string
    for left in ((1.5,), (True,), ("2",), (2.0,)):
        with pytest.raises(ContractError, match="must be integers"):
            BoundaryAssignment(4, left, ())
        with pytest.raises(ContractError, match="must be integers"):
            BoundaryAssignment(4, (), left)
    assert BoundaryAssignment(4, (np.int64(2),), ()).values() == {1: 2}
    # a float n raised TypeError from range() in values(), and True was
    # taken as n = 1
    for n, left in ((4.0, (1,)), (True, ()), ("4", (1,))):
        with pytest.raises(ContractError, match="n must be an integer"):
            BoundaryAssignment(n, left, ())
    assert BoundaryAssignment(np.int64(4), (), (4,)).values() == {4: 4}
    # numpy's ValueError used to escape on a NaN window
    for lo, hi in (([math.nan], [0]), ([0], [math.nan]), ([-math.inf], [0]),
                   ([1.5, 0], [0, 0])):
        with pytest.raises(ContractError, match="nonnegative integers"):
            LocalizationVector(lo, hi)
    assert LocalizationVector([math.inf, 1.0], [1, math.inf]).to_tuple() == \
        ((0, 1), (1, 0))


def test_max_localized_state():
    # no simultaneous lattice top exists across all projections, so the greedy
    # state is only required to be a localized, maximally displaced far start
    ell = LocalizationVector.constant(5, 2)
    mx = max_localized_state(ell)
    assert mx.to_tuple() == (3, 4, 1, 2, 5)
    assert is_localized(mx, ell)
    assert max_displacement(mx.forward[None])[0] == 2
    # every small particle sits at its deadline for constant windows
    assert mx.to_tuple().index(1) + 1 == 3
    # the single-particle projection is extreme: no localized state puts
    # particle 1 further right
    for perm in itertools.permutations(range(1, 6)):
        if is_localized(Permutation(perm), ell):
            assert perm.index(1) <= mx.to_tuple().index(1)


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
    f = sigma.forward
    for _ in range(steps if ell.n > 1 else 0):
        e = int(rng.integers(1, ell.n))
        f[e - 1], f[e] = f[e], f[e - 1]
        if not is_localized(sigma, ell):
            f[e - 1], f[e] = f[e], f[e - 1]
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
    j = data.draw(st.integers(0, n - i))
    # the block i + 1 .. n - j and its labels, as a block update takes them
    labels = np.sort(sigma.forward[i:n - j])
    b = oracle.boundary_of(sigma, i, j)
    assert np.array_equal(labels, oracle.relabel_map(b))
    try:
        want_p, want_ell, _ = oracle.restrict_instance(b, p, ell)
    except EmptySupport as exc:
        with pytest.raises(EmptySupport) as got:
            restrict_instance(p, ell, i + 1, labels)
        assert str(got.value) == str(exc)
        return
    sub_p, sub_ell = restrict_instance(p, ell, i + 1, labels)
    assert sub_p.dense().tobytes() == want_p.dense().tobytes()
    assert not sub_p.dense().flags.writeable
    assert sub_p.constant_q() == oracle.constant_q(want_p)
    assert sub_p.epsilon == want_p.epsilon
    assert sub_p.to_text() == oracle.bias_text(want_p)
    if ell is None:
        assert sub_ell is None
        return
    assert sub_ell.n == want_ell.n
    assert sub_ell.lo.dtype == sub_ell.hi.dtype == np.int64
    assert np.array_equal(sub_ell.lo, want_ell.lo)
    assert np.array_equal(sub_ell.hi, want_ell.hi)


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


LAZY_READS = {
    "dense": lambda m: m.dense().tobytes(),
    "read-only": lambda m: m.dense().flags.writeable,
    "log_dense": lambda m: m.log_dense().tobytes(),
    "get": lambda m: [m.get(i, j) for i in range(1, m.n + 1)
                      for j in range(1, m.n + 1) if i != j],
    "epsilon": lambda m: m.epsilon,
    "constant_q": lambda m: m.constant_q(),
    "is_monotone": is_monotone,
    "to_tuple": lambda m: m.to_tuple(),
    "to_text": lambda m: m.to_text(),
    "repr": repr,
    "pickle": lambda m: pickle.loads(pickle.dumps(m)).dense().tobytes(),
    "fingerprint": lambda m: instance_fingerprint(m, None),
}


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 30), family=st.sampled_from(FAMILIES),
       seed=st.integers(0, 2 ** 32 - 1), nested=st.booleans())
def test_lazy_submatrix_matches_eager_gather(n, family, seed, nested):
    """Whatever reads a submatrix first, it reads the eager np.ix_ gather,
    also for a submatrix of a submatrix."""
    rng = np.random.default_rng(seed)
    p = family_bias(family, n, rng)
    labels = np.flatnonzero(rng.random(n) < 0.7) + 1
    inner = np.flatnonzero(rng.random(labels.size) < 0.7) + 1
    if nested:
        lazy = lambda: p.submatrix(labels).submatrix(inner)
        want = oracle.submatrix(oracle.submatrix(p, labels), inner)
    else:
        lazy = lambda: p.submatrix(labels)
        want = oracle.submatrix(p, labels)
    for name, read in LAZY_READS.items():
        sub = lazy()
        assert sub._idx is not None, name
        assert read(sub) == read(want), name
    assert lazy() == want and want == lazy() and lazy() == lazy()
    if want.n >= 2:
        other = want.dense().copy()
        other[0, 1] = other[1, 0] = 0.5 if other[0, 1] != 0.5 else 0.25
        assert lazy() != BiasMatrix(np.triu(other))


def test_constant_block_update_gathers_nothing(monkeypatch):
    """A constant-q heat-bath update reads only the sub-instance's size and
    its handed-down q, so no entry is ever gathered."""
    n = 300
    p = BiasMatrix.constant(n, 0.75)
    ell = LocalizationVector.constant(n, 12)
    sigma = localized_walk(ell, np.random.default_rng(3), 20 * n)
    blocks = BlockSchedule.west_east(n).blocks()
    want = [heat_bath_block_rows(sigma, block, p, ell,
                                 np.random.default_rng(k), 2)
            for k, block in enumerate(blocks)]

    def no_gather(*args):
        raise AssertionError("a block update gathered bias entries")

    monkeypatch.setattr(np, "ix_", no_gather)
    for k, block in enumerate(blocks):
        rows = heat_bath_block_rows(sigma, block, p, ell,
                                    np.random.default_rng(k), 2)
        assert np.array_equal(rows, want[k])


def test_fingerprints_hash_the_text_once():
    """A memoized fingerprint is the hash of the text it always was, for
    every window on one matrix."""
    p = BiasMatrix.random_biased(9, 0.5, np.random.default_rng(8))
    for ell in (None, LocalizationVector.constant(9, 2),
                LocalizationVector.constant(9, 3), None):
        tail = ell.to_text().encode() if ell is not None else b"none"
        want = hashlib.sha256(p.to_text().encode() + b"|" + tail)
        assert instance_fingerprint(p, ell) == want.hexdigest()[:16]
    assert p._text_sha().hexdigest() == \
        hashlib.sha256(p.to_text().encode()).hexdigest()


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
