"""Exact computations with the stationary measure at enumerable sizes.

The stationary weight of a permutation is prod_{i<j} p[sigma(i)][sigma(j)]
over position pairs; everything here works in log space so zero-probability
pairs (totally asymmetric instances) are representable as -inf.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import CapExceeded, ContractError, NotReversible
from .perms import BiasMatrix, LocalizationVector, Permutation

if TYPE_CHECKING:
    import scipy.sparse as sp

DEFAULT_ENUM_CAP = 8
HARD_ENUM_CAP = 10
# bytes that exact_mixing_time's row batches, and banddp.BandDP's layers, may take
MEMORY_BUDGET = 2 * 10 ** 9


def log_weight(sigma, p: BiasMatrix) -> float:
    """log of prod_{i<j} p[sigma(i)][sigma(j)]; -inf if any factor is 0."""
    fwd = sigma.forward if isinstance(sigma, Permutation) else np.asarray(sigma)
    if len(fwd) != p.n:
        raise ContractError("size mismatch between permutation and bias matrix")
    return float(_log_weights_batch(fwd[None, :], p)[0])


def _log_weights_batch(perms: np.ndarray, p: BiasMatrix) -> np.ndarray:
    """Log weights for an (m, n) array of permutations (1-based labels)."""
    log = p.log_dense()
    idx = perms - 1
    n = perms.shape[1]
    out = np.zeros(perms.shape[0])
    for i in range(n - 1):
        for j in range(i + 1, n):
            out += log[idx[:, i], idx[:, j]]
    return out


def _localized_perms(n: int, ell: LocalizationVector | None) -> np.ndarray:
    """(m, n) array of all localized permutations, lexicographic order.

    Rows grow one position at a time: each row is extended by every label
    that the position admits and the row has not placed, in increasing label
    order, so the rows stay in lexicographic order.  A bitmask per row marks
    its placed labels.  The rows grow in the smallest dtype that holds n and
    are widened to int64 once, at the end.
    """
    labels = np.arange(1, n + 1, dtype=np.min_scalar_type(n))
    bit = np.left_shift(1, labels - 1, dtype=np.min_scalar_type((1 << n) - 1))
    rows = np.zeros((1, 0), dtype=labels.dtype)
    placed = np.zeros(1, dtype=bit.dtype)
    for pos in range(1, n + 1):
        admit = (slice(None) if ell is None
                 else (labels - ell.lo <= pos) & (pos <= labels + ell.hi))
        cands, cand_bit = labels[admit], bit[admit]
        src, c = np.nonzero((placed[:, None] & cand_bit) == 0)
        grown = np.empty((src.size, pos), dtype=rows.dtype)
        np.take(rows, src, axis=0, out=grown[:, :-1], mode="clip")
        grown[:, -1] = cands[c]
        rows = grown
        placed = placed[src] | cand_bit[c]
    return rows.astype(np.int64)


def _state_rows(rows) -> np.ndarray:
    """rows as a read-only (m, n) int64 array; a read-only one is kept."""
    if not (isinstance(rows, np.ndarray) and rows.dtype == np.int64
            and not rows.flags.writeable):
        rows = np.array(rows, dtype=np.int64, ndmin=2)  # ragged: ValueError
        rows.setflags(write=False)
    return rows


def _row_ranks(rows: np.ndarray) -> np.ndarray:
    """Each row's rank among the distinct rows in lexicographic order."""
    order = np.lexsort(rows.T[::-1])
    new = np.any(np.diff(rows[order], axis=0) != 0, axis=1)
    ranks = np.empty(len(rows), dtype=np.int64)
    ranks[order] = np.cumsum(np.concatenate([[False], new]))
    return ranks


@dataclass
class DistributionTable:
    """Exact finite distribution: distinct support rows, aligned probs, logZ."""

    support: np.ndarray
    probs: np.ndarray
    logZ: float

    def __post_init__(self):
        self._check()
        if _row_ranks(self.support).max() != len(self) - 1:
            raise ContractError("support entries must be distinct")

    @classmethod
    def _trusted(cls, support, probs, logZ: float) -> "DistributionTable":
        """A table of rows distinct by construction: checked as the public
        constructor checks it, but for the sort that proves them distinct."""
        out = cls.__new__(cls)
        out.support, out.probs, out.logZ = support, probs, logZ
        out._check()
        return out

    def _check(self):
        """Rows as read-only int64, probs as float64, aligned and summing
        to 1 within 1e-12."""
        self.support = _state_rows(self.support)
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if len(self.support) != len(self.probs):
            raise ContractError("support and probs must align")
        if np.any(self.probs < -1e-15):
            raise ContractError("negative probability")
        s = float(self.probs.sum())
        if abs(s - 1.0) > 1e-12:
            raise ContractError(f"probabilities sum to {s}, not 1")

    def __len__(self):
        return len(self.support)

    def prob_of(self, state) -> float:
        """Probability of state, a Permutation or a row of labels; 0.0 off
        the support."""
        if isinstance(state, Permutation):
            state = state.forward
        if np.shape(state) != self.support.shape[1:]:
            return 0.0
        return float(self.probs[np.all(self.support == state, axis=1)].sum())

    def to_csv(self, path) -> None:
        """Columns s1..sn and probability: one row per support state, in
        support order, with the probability's repr, which reads back bit
        for bit.

        A row's label columns come from a lookup of "k," cells over the
        label range, gathered as one fixed-width string per row; the NUL
        padding of cells narrower than the widest is dropped at the end.
        """
        n = self.support.shape[1]
        lo, hi = int(self.support.min()), int(self.support.max())
        cells = np.array([f"{k}," for k in range(lo, hi + 1)])
        labels = cells[self.support - lo].view(f"<U{n * cells.itemsize // 4}")
        with open(path, "w") as fh:
            fh.write("".join(f"s{i}," for i in range(1, n + 1))
                     + "probability\n" + "".join([
                         state + repr(pr) + "\n" for state, pr
                         in zip(labels.ravel().tolist(), self.probs.tolist())
                     ]).replace("\0", ""))


def check_enumerable(n: int, cap: int = DEFAULT_ENUM_CAP) -> None:
    """Raise CapExceeded if enumerate_stationary refuses size n at this cap.

    Sizes up to cap + 2 (never above HARD_ENUM_CAP) are enumerated, those
    above cap with a warning.
    """
    if n > min(cap + 2, HARD_ENUM_CAP):
        raise CapExceeded(
            f"n={n} exceeds the enumeration cap {cap}: raise cap_enum "
            "(--cap-enum on the CLI), which admits n up to cap_enum + 2 and "
            f"never above {HARD_ENUM_CAP}, or use the band DP "
            "(band_dp_partition / band_dp_sample) for localized instances")


def enumerate_stationary(n: int, p: BiasMatrix, ell: LocalizationVector | None = None,
                         cap: int = DEFAULT_ENUM_CAP) -> DistributionTable:
    """Exact stationary distribution (conditioned on the localized set if given).

    States of zero stationary weight (they contain a forbidden inversion,
    possible only when some p[i][j] is exactly 1) are excluded from the
    support: the set of positive-weight states is closed under the chain, so
    kernels and spectral quantities live there.
    """
    if n < 1:
        raise ContractError(f"n must be >= 1, got {n}")
    check_enumerable(n, cap)
    if n > cap:
        warnings.warn(f"enumerating n={n} states above the soft cap {cap}")
    if p.n != n or (ell is not None and ell.n != n):
        raise ContractError("size mismatch")
    perms = _localized_perms(n, ell)
    if len(perms) == 0:
        raise ContractError("empty localized set")
    logw = _log_weights_batch(perms, p)
    keep = np.isfinite(logw)
    perms = perms[keep]
    logw = logw[keep]
    if len(perms) == 0:
        raise ContractError("all states carry zero weight")
    m = float(np.max(logw))
    w = np.exp(logw - m)
    Z = float(w.sum())
    logZ = math.log(Z) + m
    return DistributionTable._trusted(perms, w / Z, logZ)


@dataclass
class TransitionMatrix:
    """Sparse row-stochastic kernel over states, rows as in DistributionTable.

    law is the distribution the kernel was last found in detailed balance
    with, None until then.
    """

    states: np.ndarray
    matrix: sp.csr_matrix
    law: DistributionTable | None = field(default=None, init=False)

    def __post_init__(self):
        self.states = _state_rows(self.states)
        sums = np.asarray(self.matrix.sum(axis=1)).ravel()
        if np.any(np.abs(sums - 1.0) > 1e-12):
            raise ContractError("rows must sum to 1 within 1e-12")

    def __len__(self):
        return len(self.states)

    @property
    def reversible(self) -> bool:
        return self.law is not None


def check_detailed_balance(P: TransitionMatrix, mu: DistributionTable,
                           rtol: float = 1e-10) -> None:
    """Raise NotReversible (naming a violating pair) unless mu P is in balance."""
    if not (P.states is mu.support or np.array_equal(P.states, mu.support)):
        raise ContractError("kernel and distribution must share a state list")
    M = P.matrix.tocoo()
    flows = mu.probs[M.row] * M.data
    back = np.asarray(P.matrix[M.col, M.row]).ravel()
    flows_back = mu.probs[M.col] * back
    scale = np.maximum(np.maximum(flows, flows_back), 1e-300)
    rel = np.abs(flows - flows_back) / scale
    worst = int(np.argmax(rel))
    if rel[worst] > rtol:
        x, y = (tuple(P.states[i].tolist()) for i in (M.row[worst], M.col[worst]))
        raise NotReversible(
            f"detailed balance fails for pair {x} -> {y}: relative error {rel[worst]:.3e}")


def _require_balance(P: TransitionMatrix, mu: DistributionTable) -> None:
    """check_detailed_balance(P, mu), remembered: P.law becomes mu, and the
    law P already holds (the same table, or equal states and probs) is taken
    again in O(m) without a second check."""
    law = P.law
    if law is not None and (law is mu or (
            np.array_equal(law.support, mu.support)
            and np.array_equal(law.probs, mu.probs))):
        return
    check_detailed_balance(P, mu)
    P.law = mu


def _swap_kernel(digits: np.ndarray, table: np.ndarray) -> sp.csr_matrix:
    """Kernel of one uniform adjacent swap on the states, rows of digits.

    Digits a, b at positions i, i+1 swap with probability table[b][a] if the
    swapped word is a state and differs from the word; otherwise the state
    stays.
    """
    import scipy.sparse as sp
    m, n = digits.shape
    if n < 2:       # no edge: every state stays
        return sp.identity(m, format="csr")
    edge_prob = 1.0 / (n - 1)
    # each state is one base-K integer (digit i at place n-1-i; Python ints
    # past int64); swapping i, i+1 adds (b - a) * (place_i - place_{i+1})
    K = len(table)
    place = np.array([K ** e for e in range(n - 1, -1, -1)],
                     dtype=np.int64 if K ** n < 2 ** 63 else object)
    keys = digits @ place
    order = np.argsort(keys)
    sorted_keys = keys[order]
    src = np.arange(m)
    rows, cols, vals = [src], [src], []
    diag = np.zeros(m)
    for i in range(n - 1):
        a, b = digits[:, i], digits[:, i + 1]
        step = np.multiply(b - a, place[i] - place[i + 1], dtype=place.dtype)
        swapped = keys + step
        at = np.minimum(np.searchsorted(sorted_keys, swapped), m - 1)
        moves = (sorted_keys[at] == swapped) & (step != 0)
        p_swap = table[b, a]
        # a rejected proposal keeps the state
        diag += np.where(moves, edge_prob * (1.0 - p_swap), edge_prob)
        rows.append(src[moves])
        cols.append(order[at[moves]])
        vals.append(edge_prob * p_swap[moves])
    matrix = sp.csr_matrix((np.concatenate([diag] + vals),
                            (np.concatenate(rows), np.concatenate(cols))),
                           shape=(m, m))
    matrix.sum_duplicates()
    return matrix


def build_transition_matrix(p: BiasMatrix,
                            mu: DistributionTable) -> TransitionMatrix:
    """Exact one-step kernel of the adjacent transposition chain on mu's
    support.

    An edge i in [n-1] is chosen uniformly; the two particles there end up
    with a ahead of b with probability p[a][b].  Proposals leaving the
    support (the localized set of enumerate_stationary) are rejected in place
    (their mass joins the diagonal).  The kernel is checked for detailed
    balance against mu before it is returned.
    """
    if mu.support.shape[1] != p.n:
        raise ContractError("size mismatch")
    out = TransitionMatrix(mu.support, _swap_kernel(mu.support - 1, p.dense()))
    _require_balance(out, mu)
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b summed by numpy's own loop, not BLAS, so the bits do not depend
    on the BLAS thread count."""
    return float(np.einsum("i,i->", a, b))


def _lanczos_top(S, v: np.ndarray, tol: float) -> float:
    """Largest eigenvalue of the deflated operator x -> S x - v (v . S x).

    A plain three-term Lanczos recurrence from a fixed start vector, with no
    stored basis and no reorthogonalization: a Ritz value with a small
    residual bound is accurate after orthogonality is lost (Paige 1976), and
    the lost orthogonality only adds ghost copies of converged values.  Every
    10 steps the top Ritz pair (theta, s) of the tridiagonal matrix is taken;
    the recurrence stops when beta |s_k| <= tol |theta|, ARPACK's relative
    tol, or when beta falls to rounding level (S has norm 1, so the Krylov
    space is then invariant).  After 100 m steps it raises CapExceeded.
    """
    from scipy.linalg import eigh_tridiagonal
    m = len(v)
    q = np.random.default_rng(0).standard_normal(m)
    q -= v * _dot(v, q)
    q /= math.sqrt(_dot(q, q))
    q_prev = np.zeros(m)
    alpha: list = []
    beta: list = []
    b = 0.0
    for k in range(1, 100 * m + 1):
        w = S @ q
        w -= v * _dot(v, w)
        w -= b * q_prev
        a = _dot(q, w)
        w -= a * q
        b = math.sqrt(_dot(w, w))
        alpha.append(a)
        beta.append(b)
        breakdown = b <= m * np.finfo(float).eps
        if breakdown or k % 10 == 0:
            theta, s = eigh_tridiagonal(alpha, beta[:-1], select="i",
                                        select_range=(k - 1, k - 1))
            if breakdown or b * abs(s[-1, 0]) <= tol * abs(theta[0]):
                return float(theta[0])
        q_prev, q = q, w / b
    raise CapExceeded(
        f"Lanczos did not converge on {m} states in {100 * m} steps at "
        f"tol={tol!r}; raise tol")


def spectral_gap(P: TransitionMatrix, mu: DistributionTable,
                 tol: float = 1e-9) -> float:
    """1 - lambda_2 of a kernel reversible for mu, via the symmetrized matrix.

    mu must be the law P is in detailed balance with (ContractError or
    NotReversible before any work otherwise), and tol a positive finite
    number.  A Lanczos recurrence with the top eigenvector deflated gives
    lambda_2 to relative residual tol, with the same bits under any BLAS
    thread count (_lanczos_top).  If it does not converge in 100 steps per
    state it raises CapExceeded naming tol.  A singleton chain has gap 1 by
    convention.
    """
    if not 0.0 < tol < math.inf:
        raise ContractError(f"tol must be a positive finite number, got {tol!r}")
    _require_balance(P, mu)
    import scipy.sparse as sp
    if len(P.states) == 1:
        return 1.0
    root = np.sqrt(mu.probs)
    S = (sp.diags(root) @ P.matrix @ sp.diags(1.0 / root)).tocsr()
    return 1.0 - _lanczos_top(S, root / math.sqrt(_dot(root, root)), tol)


def tv_distance(a: DistributionTable, b: DistributionTable) -> float:
    """Half L1 distance of the laws aligned on the sorted union of their rows;
    supports of different widths are at distance 1."""
    if a.support is b.support or np.array_equal(a.support, b.support):
        return 0.5 * float(np.sum(np.abs(a.probs - b.probs)))
    if a.support.shape[1] != b.support.shape[1]:
        return 1.0
    at = _row_ranks(np.concatenate([a.support, b.support]))
    p = np.zeros((2, at.max() + 1))
    p[0, at[:len(a)]] = a.probs
    p[1, at[len(a):]] = b.probs
    return 0.5 * float(np.sum(np.abs(p[0] - p[1])))


def _tv_rows_to_mu(rows: np.ndarray, mu_probs: np.ndarray) -> np.ndarray:
    return 0.5 * np.sum(np.abs(rows - mu_probs[None, :]), axis=1)


def exact_mixing_time(P: TransitionMatrix, mu: DistributionTable, delta: float,
                      t_cap: int = 10 ** 6, batch_bytes: int = MEMORY_BUDGET):
    """Smallest t with max over starts x0 of TV(P^t(x0, .), mu) <= delta.

    Returns (t_mix, tv_curve) where tv_curve[t] is the worst-case TV after t
    steps for t = 0..t_mix.  mu must be the law P is in detailed balance
    with, as for spectral_gap, and t_cap >= 0.  Rows are propagated in
    memory-bounded batches; per-row TV is nonincreasing in t, so a finished
    batch stays under delta.
    """
    m = len(P.states)
    batch = max(1, min(m, int(batch_bytes // (16 * m))))
    return _mixing_time_from(P, mu, delta, (
        np.eye(min(batch, m - lo), m, lo) for lo in range(0, m, batch)), t_cap)


def _mixing_time_from(P: TransitionMatrix, mu: DistributionTable, delta: float,
                      batches, t_cap: int = 10 ** 6):
    """exact_mixing_time over the start laws in batches, (b, m) arrays of
    laws on P's states; each batch runs at least as long as those before."""
    if not 0.0 < delta <= 0.5:
        raise ContractError("delta must lie in (0, 1/2]")
    if t_cap < 0:
        raise ContractError(f"t_cap must be >= 0, got {t_cap}")
    _require_balance(P, mu)
    if len(P.states) == 1:
        return 0, [0.0]
    matT = P.matrix.T.tocsr()
    curve: list = []
    t_needed = 0
    for rows in batches:
        t = 0
        tv = _tv_rows_to_mu(rows, mu.probs)
        while True:
            worst = float(tv.max())
            if t < len(curve):
                curve[t] = max(curve[t], worst)
            else:
                curve.append(worst)
            if worst <= delta and t >= t_needed:
                break
            if t >= t_cap:
                raise CapExceeded(
                    f"mixing time exceeds the step cap {t_cap}; last worst-case TV "
                    f"{worst:.6g}")
            rows = (matT @ rows.T).T
            tv = _tv_rows_to_mu(rows, mu.probs)
            t += 1
        t_needed = max(t_needed, t)
    t_mix = 0
    for t, v in enumerate(curve):
        if v > delta:
            t_mix = t + 1
    return t_mix, curve[:t_mix + 1] if t_mix < len(curve) else curve
