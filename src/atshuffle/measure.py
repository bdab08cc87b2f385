"""Exact computations with the stationary measure at enumerable sizes.

The stationary weight of a permutation is prod_{i<j} p[sigma(i)][sigma(j)]
over position pairs; everything here works in log space so zero-probability
pairs (totally asymmetric instances) are representable as -inf.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import CapExceeded, ContractError, NotReversible
from .perms import BiasMatrix, LocalizationVector, Permutation

DEFAULT_ENUM_CAP = 8
HARD_ENUM_CAP = 10
# bytes that exact_mixing_time's row batches, and banddp.BandDP's layers, may take
MEMORY_BUDGET = 2 * 10 ** 9


def log_weight(sigma, p: BiasMatrix) -> float:
    """log of prod_{i<j} p[sigma(i)][sigma(j)]; -inf if any factor is 0."""
    fwd = sigma.forward if isinstance(sigma, Permutation) else np.asarray(sigma)
    n = len(fwd)
    if n != p.n:
        raise ContractError("size mismatch between permutation and bias matrix")
    log = p.log_dense()
    idx = fwd - 1
    total = 0.0
    for i in range(n - 1):
        total += float(np.sum(log[idx[i], idx[i + 1:]]))
    return total


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
    """(m, n) array of all localized permutations, lexicographic order."""
    if ell is None:
        rows = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int64)
        return rows
    # depth-first fill of positions with per-position candidate sets
    candidates = [[k for k in range(1, n + 1)
                   if k - ell.lo[k - 1] <= pos <= k + ell.hi[k - 1]]
                  for pos in range(1, n + 1)]
    rows = []
    used = np.zeros(n + 1, dtype=bool)
    cur = np.empty(n, dtype=np.int64)

    def rec(pos):
        if pos > n:
            rows.append(cur.copy())
            return
        for k in candidates[pos - 1]:
            if not used[k]:
                used[k] = True
                cur[pos - 1] = k
                rec(pos + 1)
                used[k] = False

    rec(1)
    return np.array(rows, dtype=np.int64)


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
        self.support = _state_rows(self.support)
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if len(self.support) != len(self.probs):
            raise ContractError("support and probs must align")
        if np.any(self.probs < -1e-15):
            raise ContractError("negative probability")
        s = float(self.probs.sum())
        if abs(s - 1.0) > 1e-12:
            raise ContractError(f"probabilities sum to {s}, not 1")
        if _row_ranks(self.support).max() != len(self) - 1:
            raise ContractError("support entries must be distinct")

    def __len__(self):
        return len(self.support)

    def prob_of(self, state) -> float:
        if np.shape(state) != self.support.shape[1:]:
            return 0.0
        return float(self.probs[np.all(self.support == state, axis=1)].sum())

    def to_csv(self, path) -> None:
        """Two columns: rank (by decreasing probability) and probability."""
        order = np.argsort(-self.probs, kind="stable")
        with open(path, "w") as fh:
            fh.write("rank,probability\n" + "".join(
                f"{rank},{pr!r}\n"
                for rank, pr in enumerate(self.probs[order].tolist(), start=1)))


def check_enumerable(n: int, cap: int = DEFAULT_ENUM_CAP) -> None:
    """Raise CapExceeded if enumerate_stationary refuses size n at this cap.

    Sizes up to cap + 2 (never above HARD_ENUM_CAP) are enumerated, those
    above cap with a warning.
    """
    if n > min(cap + 2, HARD_ENUM_CAP):
        raise CapExceeded(
            f"n={n} exceeds the enumeration cap {cap}; use the band DP "
            "(band_dp_partition / band_dp_sample) for localized instances")


def enumerate_stationary(n: int, p: BiasMatrix, ell: LocalizationVector | None = None,
                         cap: int = DEFAULT_ENUM_CAP) -> DistributionTable:
    """Exact stationary distribution (conditioned on the localized set if given).

    States of zero stationary weight (they contain a forbidden inversion,
    possible only when some p[i][j] is exactly 1) are excluded from the
    support: the set of positive-weight states is closed under the chain, so
    kernels and spectral quantities live there.
    """
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
    return DistributionTable(perms, w / Z, logZ)


@dataclass
class TransitionMatrix:
    """Sparse row-stochastic kernel over states, rows as in DistributionTable."""

    states: np.ndarray
    matrix: sp.csr_matrix
    reversible: bool = False

    def __post_init__(self):
        self.states = _state_rows(self.states)
        sums = np.asarray(self.matrix.sum(axis=1)).ravel()
        if np.any(np.abs(sums - 1.0) > 1e-12):
            raise ContractError("rows must sum to 1 within 1e-12")

    def __len__(self):
        return len(self.states)


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


def _swap_kernel(digits: np.ndarray, table: np.ndarray) -> sp.csr_matrix:
    """Kernel of one uniform adjacent swap on the states, rows of digits.

    Digits a, b at positions i, i+1 swap with probability table[b][a] if the
    swapped word is a state and differs from the word; otherwise the state
    stays.
    """
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


def build_transition_matrix(n: int, p: BiasMatrix,
                            ell: LocalizationVector | None = None,
                            cap: int = DEFAULT_ENUM_CAP,
                            mu: DistributionTable | None = None,
                            check_balance: bool = True) -> TransitionMatrix:
    """Exact one-step kernel of the adjacent transposition chain.

    An edge i in [n-1] is chosen uniformly; the two particles there end up
    with a ahead of b with probability p[a][b].  Proposals leaving the
    localized set are rejected in place (their mass joins the diagonal).
    """
    if mu is None:
        mu = enumerate_stationary(n, p, ell, cap=cap)
    out = TransitionMatrix(mu.support, _swap_kernel(mu.support - 1, p.dense()))
    if check_balance:
        check_detailed_balance(out, mu)
        out.reversible = True
    return out


def spectral_gap(P: TransitionMatrix, mu: DistributionTable,
                 dense_cutoff: int = 5000, tol: float = 1e-9) -> float:
    """1 - lambda_2 of a reversible kernel, via the symmetrized matrix.

    Uses a full symmetric eigendecomposition below dense_cutoff states and
    Lanczos iteration with the top eigenvector deflated above it, started
    from a fixed vector so that reruns give the same bits; if Lanczos does not
    converge it raises CapExceeded naming dense_cutoff.  A singleton chain
    has gap 1 by convention.
    """
    m = len(P.states)
    if m == 1:
        return 1.0
    if not P.reversible:
        check_detailed_balance(P, mu)
        P.reversible = True
    root = np.sqrt(mu.probs)
    D = sp.diags(root)
    Dinv = sp.diags(1.0 / root)
    S = D @ P.matrix @ Dinv
    if m <= dense_cutoff:
        Sd = S.toarray()
        Sd = 0.5 * (Sd + Sd.T)
        eigs = np.linalg.eigvalsh(Sd)
        lam2 = float(eigs[-2])
    else:
        S = S.tocsr()
        v = root / np.linalg.norm(root)

        def matvec(x):
            y = S @ x
            return y - v * (v @ y)

        op = spla.LinearOperator((m, m), matvec=matvec, dtype=np.float64)
        v0 = np.random.default_rng(0).standard_normal(m)
        v0 -= v * (v @ v0)
        try:
            vals = spla.eigsh(op, k=1, which="LA", tol=tol, v0=v0,
                              return_eigenvectors=False, maxiter=100 * m)
        except spla.ArpackNoConvergence as exc:
            raise CapExceeded(
                f"Lanczos did not converge on {m} states; raise dense_cutoff "
                f"above {m} to use the dense eigensolver") from exc
        lam2 = float(vals[0])
    return 1.0 - lam2


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
    steps for t = 0..t_mix.  Rows are propagated in memory-bounded batches;
    per-row TV is nonincreasing in t, so a finished batch stays under delta.
    """
    if not 0.0 < delta <= 0.5:
        raise ContractError("delta must lie in (0, 1/2]")
    m = len(P.states)
    if m == 1:
        return 0, [0.0]
    matT = P.matrix.T.tocsr()
    batch = max(1, min(m, int(batch_bytes // (16 * m))))
    curve: list = []
    t_needed = 0
    for lo in range(0, m, batch):
        hi = min(lo + batch, m)
        rows = np.zeros((hi - lo, m))
        rows[np.arange(hi - lo), np.arange(lo, hi)] = 1.0
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
