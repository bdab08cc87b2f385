"""Permutations, bias matrices, localization windows, and boundary relabeling.

Positions and particle labels are 1-based everywhere in the public API;
internal numpy arrays are 0-indexed but never leak.  A permutation sigma is
stored as its forward row alone, ``sigma.forward[i - 1]`` being the particle
in position i, and an ensemble as the (R, n) stack of such rows.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, EmptySupport

# marks a lazily computed value that may itself be None
_LAZY = object()


class Permutation:
    """A bijection on {1..n}, stored as its forward row."""

    __slots__ = ("forward", "n")

    def __init__(self, forward, _validate: bool = True):
        if _validate:
            try:
                given = np.asarray(forward)
            except ValueError:      # a ragged nested list
                given = None
            # int64 would parse a string of digits, take a bool as 0 or 1
            # and truncate a label that is not a whole number; a scalar or a
            # nested list is no row of labels
            if (given is None or given.ndim != 1
                    or given.dtype.kind not in "iuf"
                    or (given.dtype.kind == "f" and not np.all(
                        np.isfinite(given) & (np.floor(given) == given)))):
                raise ContractError("forward must list each label in 1..n once")
        fwd = np.array(forward, dtype=np.int64)
        n = int(fwd.shape[0])
        if _validate:
            if n == 0 or np.any(fwd < 1) or np.any(fwd > n):
                raise ContractError("forward must list each label in 1..n once")
            counts = np.bincount(fwd, minlength=n + 1)
            if np.any(counts[1:] != 1):
                raise ContractError("forward must list each label in 1..n once")
        self.forward = fwd
        self.n = n

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(1, n + 1), _validate=False)

    @classmethod
    def reversal(cls, n: int) -> "Permutation":
        return cls(np.arange(n, 0, -1), _validate=False)

    def at(self, i: int) -> int:
        """Particle at position i."""
        if not 1 <= i <= self.n:
            raise ContractError(f"position {i} out of range 1..{self.n}")
        return int(self.forward[i - 1])

    def to_tuple(self) -> tuple:
        return tuple(self.forward.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return np.array_equal(self.forward, other.forward)

    def __repr__(self) -> str:
        return f"Permutation({self.to_tuple()})"


def max_displacement(F: np.ndarray) -> np.ndarray:
    """max over particles k of |position(k) - k| for each row of an (R, n)
    stack of forward rows: the particle at position i is |i - F[r, i]| from
    home, and a row holds each particle once."""
    return np.max(np.abs(F - np.arange(1, F.shape[1] + 1)), axis=1)


class LocalizationVector:
    """Per-particle displacement windows; particle k may sit in [k-lo[k], k+hi[k]].

    Entries are truncated on construction so every window is a subset of
    [1, n]; ``math.inf`` (or any oversized entry) therefore means "only the
    trivial truncation applies" and the all-inf vector is the unrestricted
    chain.
    """

    __slots__ = ("lo", "hi", "n")

    def __init__(self, lo, hi):
        lo = list(lo)
        hi = list(hi)
        if len(lo) != len(hi):
            raise ContractError("lo and hi must have equal length")
        n = len(lo)
        # NaN fails both comparisons
        if not all(x >= 0 and (math.isinf(x) or x % 1 == 0) for x in lo + hi):
            raise ContractError("localization entries must be nonnegative integers or inf")
        k = np.arange(1, n + 1)
        lo_arr = np.array([min(float(x), float(n)) for x in lo])
        hi_arr = np.array([min(float(x), float(n)) for x in hi])
        self.lo = np.minimum(lo_arr, k - 1).astype(np.int64)
        self.hi = np.minimum(hi_arr, n - k).astype(np.int64)
        self.n = n

    @classmethod
    def _trusted(cls, lo: np.ndarray, hi: np.ndarray) -> "LocalizationVector":
        """A vector from int64 arrays already truncated to lo[k] <= k - 1 and
        hi[k] <= n - k, kept without copying or checking."""
        out = cls.__new__(cls)
        out.lo = lo
        out.hi = hi
        out.n = int(lo.size)
        return out

    @classmethod
    def constant(cls, n: int, ell) -> "LocalizationVector":
        return cls([ell] * n, [ell] * n)

    @property
    def l_max_minus(self) -> int:
        return int(self.lo.max()) if self.n else 0

    @property
    def l_max_plus(self) -> int:
        return int(self.hi.max()) if self.n else 0

    @property
    def l_max(self) -> int:
        return max(self.l_max_minus, self.l_max_plus)

    def window(self, k: int) -> tuple:
        """Allowed positions [lo, hi] for particle k."""
        if not 1 <= k <= self.n:
            raise ContractError(f"label {k} out of range 1..{self.n}")
        return (k - int(self.lo[k - 1]), k + int(self.hi[k - 1]))

    def is_admissible(self) -> bool:
        """Check j - lo[j] <= k - lo[k] and j + hi[j] <= k + hi[k] for j < k."""
        k = np.arange(1, self.n + 1)
        starts = k - self.lo
        ends = k + self.hi
        return bool(np.all(np.diff(starts) >= 0) and np.all(np.diff(ends) >= 0))

    def to_tuple(self) -> tuple:
        return tuple((int(a), int(b)) for a, b in zip(self.lo, self.hi))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LocalizationVector):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.lo, other.lo) \
            and np.array_equal(self.hi, other.hi)

    def __repr__(self) -> str:
        return f"LocalizationVector(n={self.n}, l_max={self.l_max})"

    def to_text(self) -> str:
        lines = ["# atshuffle localization v1", f"n {self.n}"]
        for k in range(1, self.n + 1):
            lines.append(f"ell {k} {int(self.lo[k - 1])} {int(self.hi[k - 1])}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "LocalizationVector":
        n = None
        entries = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "n":
                n = int(parts[1])
            elif parts[0] == "ell":
                k = int(parts[1])
                lo = math.inf if parts[2] == "inf" else int(parts[2])
                hi = math.inf if parts[3] == "inf" else int(parts[3])
                entries[k] = (lo, hi)
            else:
                raise ContractError(f"unknown key in localization file: {parts[0]}")
        if n is None or set(entries) != set(range(1, n + 1)):
            raise ContractError("localization file must declare n and all particles 1..n")
        return cls([entries[k][0] for k in range(1, n + 1)],
                   [entries[k][1] for k in range(1, n + 1)])


def is_localized(sigma: Permutation, ell: LocalizationVector) -> bool:
    """True iff position(k) - k lies in [-lo[k], hi[k]] for every particle k."""
    return bool(localized_rows(sigma.forward[None, :], ell)[0])


def localized_rows(F: np.ndarray, ell: LocalizationVector) -> np.ndarray:
    """is_localized for each row of an (R, n) stack of 1-based permutation rows:
    every position holds a label F whose window [F - lo, F + hi] contains it."""
    if F.shape[1] != ell.n:
        raise ContractError("size mismatch between permutation and localization")
    at = F - 1
    pos = np.arange(1, ell.n + 1)
    return np.all((F - ell.lo.take(at) <= pos) & (pos <= F + ell.hi.take(at)),
                  axis=1)


class BiasMatrix:
    """Pairwise ordering preferences p[i][j] = P(i ends up ahead of j).

    Only the upper triangle is stored as given; the lower triangle is the
    mirror 1 - p computed once at construction, so the anti-symmetry
    p[j][i] = 1 - p[i][j] holds identically.  The diagonal is unused.
    """

    __slots__ = ("n", "_dense", "_idx", "_log", "_epsilon", "_q", "_sha")

    def __init__(self, upper):
        up = np.array(upper, dtype=np.float64)
        if up.ndim != 2 or up.shape[0] != up.shape[1]:
            raise ContractError("bias matrix must be square")
        n = up.shape[0]
        iu = np.triu_indices(n, k=1)
        vals = up[iu]
        # NaN fails both comparisons
        if not np.all((vals >= 0.0) & (vals <= 1.0)):
            raise ContractError("bias entries must lie in [0, 1]")
        dense = np.ones((n, n), dtype=np.float64)
        dense[iu] = vals
        dense[(iu[1], iu[0])] = 1.0 - vals
        dense.setflags(write=False)
        self.n = n
        self._dense = dense
        self._idx = None
        self._log = None
        self._epsilon = None
        self._q = _LAZY
        self._sha = None

    def get(self, i: int, j: int) -> float:
        """p[i][j] for particle labels i != j (1-based)."""
        if i == j or not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ContractError(f"bad label pair ({i}, {j})")
        return float(self.dense()[i - 1, j - 1])

    def dense(self) -> np.ndarray:
        """Read-only (n, n) array, 0-indexed; diagonal entries are unused (1.0).

        A submatrix gathers its entries from its parent's array here, on
        first use.
        """
        if self._idx is not None:
            dense = self._dense[np.ix_(self._idx, self._idx)]
            dense.setflags(write=False)
            self._dense = dense
            self._idx = None
        return self._dense

    def log_dense(self) -> np.ndarray:
        """Elementwise log of dense(), with log 0 = -inf (no warning)."""
        if self._log is None:
            with np.errstate(divide="ignore"):
                log = np.log(self.dense())
            log.setflags(write=False)
            self._log = log
        return self._log

    @property
    def epsilon(self) -> float:
        """Largest eps with p[i][j]/p[j][i] >= 1 + eps for all i < j.

        Pairs with p[j][i] = 0 contribute +inf, so the totally asymmetric
        instance has epsilon = inf.  Negative values mean the instance is
        not 0-positively biased.
        """
        if self._epsilon is None:
            if self.n < 2:
                self._epsilon = math.inf
            else:
                iu = np.triu_indices(self.n, k=1)
                p = self.dense()[iu]
                q = 1.0 - p
                with np.errstate(divide="ignore"):
                    ratios = np.where(q > 0.0, p / np.where(q > 0.0, q, 1.0), math.inf)
                self._epsilon = float(np.min(ratios) - 1.0)
        return self._epsilon

    def submatrix(self, labels) -> "BiasMatrix":
        """Bias matrix on strictly increasing labels (1-based).

        Increasing labels keep the upper triangle upper, so the principal
        submatrix is the matrix the constructor would build and is taken as
        it is.  It keeps this matrix's array and the label indices, and
        gathers its entries on first use, so a caller that reads only its
        size and constant_q() never pays for them: a constant parent hands
        its constant_q() down.
        """
        idx = np.asarray(labels, dtype=np.int64) - 1
        if idx.ndim != 1 or (idx.size and (idx[0] < 0 or idx[-1] >= self.n
                                           or np.any(idx[1:] <= idx[:-1]))):
            raise ContractError(
                f"submatrix needs strictly increasing labels in 1..{self.n}")
        q = self.constant_q()
        out = BiasMatrix.__new__(BiasMatrix)
        out.n = int(idx.size)
        out._dense = self.dense()
        out._idx = idx
        out._log = None
        out._epsilon = None
        out._q = q if q is not None and idx.size >= 2 else _LAZY
        out._sha = None
        return out

    def constant_q(self) -> float | None:
        """The common upper-triangle value if the matrix is constant, else None."""
        if self._q is _LAZY:
            if self.n < 2:
                self._q = 1.0
            else:
                vals = self.dense()[np.triu_indices(self.n, k=1)]
                q = float(vals[0])
                self._q = q if np.all(vals == q) else None
        return self._q

    def to_tuple(self) -> tuple:
        iu = np.triu_indices(self.n, k=1)
        return tuple(float(v) for v in self.dense()[iu])

    def __reduce__(self):
        # rebuilt through the constructor, so an unpickled matrix is read-only
        return (BiasMatrix, (self.dense(),))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiasMatrix):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.dense(), other.dense())

    def __repr__(self) -> str:
        return f"BiasMatrix(n={self.n}, epsilon={self.epsilon:.6g})"

    def to_text(self) -> str:
        n = self.n
        # one repr per distinct bit pattern, so 0.0 and -0.0 stay apart
        bits, which = np.unique(self.dense()[np.triu_indices(n, k=1)].view(np.int64),
                                return_inverse=True)
        reprs = [repr(v) for v in bits.view(np.float64).tolist()]
        vals = [reprs[w] for w in which.tolist()]
        cells = [f"{j} " for j in range(1, n + 1)]
        lines = ["# atshuffle bias matrix v1", f"n {n}", f"epsilon {self.epsilon!r}"]
        start = 0
        for i in range(1, n):
            # row i holds the pairs (i, j), j = i+1..n, in order
            stop = start + n - i
            row = map(str.__add__, cells[i:], vals[start:stop])
            lines.append(f"p {i} " + f"\np {i} ".join(row))
            start = stop
        return "\n".join(lines) + "\n"

    def _text_sha(self):
        """The sha256 state after to_text(), computed once; callers copy it."""
        if self._sha is None:
            self._sha = hashlib.sha256(self.to_text().encode())
        return self._sha

    @classmethod
    def from_text(cls, text: str) -> "BiasMatrix":
        n = None
        eps_header = None
        entries = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "n":
                n = int(parts[1])
            elif parts[0] == "epsilon":
                eps_header = float(parts[1])
            elif parts[0] == "p":
                i, j = int(parts[1]), int(parts[2])
                if not i < j:
                    raise ContractError(f"expected i < j in entry, got ({i}, {j})")
                entries[(i, j)] = float(parts[3])
            else:
                raise ContractError(f"unknown key in bias file: {parts[0]}")
        if n is None:
            raise ContractError("bias file must declare n")
        up = np.zeros((n, n))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if (i, j) not in entries:
                    raise ContractError(f"missing entry for pair ({i}, {j})")
                up[i - 1, j - 1] = entries[(i, j)]
        out = cls(up)
        if eps_header is not None and out.epsilon != eps_header:
            raise ContractError(
                f"epsilon certificate mismatch: header {eps_header!r}, recomputed {out.epsilon!r}")
        return out

    # named instance families
    @classmethod
    def constant(cls, n: int, q: float) -> "BiasMatrix":
        up = np.zeros((n, n))
        up[np.triu_indices(n, k=1)] = q
        return cls(up)

    @classmethod
    def constant_from_epsilon(cls, n: int, eps: float) -> "BiasMatrix":
        """Constant q with q/(1-q) = 1 + eps."""
        return cls.constant(n, _q_from_epsilon(eps))

    @classmethod
    def totally_asymmetric(cls, n: int) -> "BiasMatrix":
        up = np.zeros((n, n))
        up[np.triu_indices(n, k=1)] = 1.0
        return cls(up)

    @classmethod
    def random_biased(cls, n: int, eps: float, rng: np.random.Generator) -> "BiasMatrix":
        """Each p[i][j], i<j, uniform on [(1+eps)/(2+eps), 1]."""
        lo = _q_from_epsilon(eps)
        up = np.zeros((n, n))
        iu = np.triu_indices(n, k=1)
        up[iu] = rng.uniform(lo, 1.0, size=len(iu[0]))
        return cls(up)

    @classmethod
    def monotone_biased(cls, n: int, eps: float, rng: np.random.Generator) -> "BiasMatrix":
        """eps-positively biased and monotone: running max of a random table."""
        lo = _q_from_epsilon(eps)
        up = np.zeros((n, n))
        iu = np.triu_indices(n, k=1)
        up[iu] = rng.uniform(lo, 1.0, size=len(iu[0]))
        # p[i][j] = max over {i' >= i, j' <= j, i' < j'}: nondecreasing in j,
        # nonincreasing in i, still within [lo, 1].  The running maxima span
        # the whole rectangle i' >= i, j' <= j, but the zeros on and below
        # the diagonal never win over up[i, j] >= lo > 0.
        up = np.maximum.accumulate(up, axis=1)
        return cls(np.maximum.accumulate(up[::-1], axis=0)[::-1])


def _q_from_epsilon(eps: float) -> float:
    """q with q/(1-q) = 1 + eps, i.e. (1+eps)/(2+eps), and 1 at eps = inf
    (the totally asymmetric pair); a negative or NaN eps is refused."""
    if not eps >= 0:
        raise ContractError(f"eps must be nonnegative, got {eps!r}")
    return 1.0 if math.isinf(eps) else (1.0 + eps) / (2.0 + eps)


def _is_integer(v) -> bool:
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def instance_fingerprint(p: BiasMatrix, ell: LocalizationVector | None) -> str:
    """Stable short hash of (n, p, ell) used to key experiment records."""
    h = p._text_sha().copy()
    h.update(b"|")
    h.update(ell.to_text().encode() if ell is not None else b"none")
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class BoundaryAssignment:
    """Pinned particles on A^c = [1..i] union [n-j+1..n].

    ``left`` holds the particles at positions 1..i, ``right`` those at
    positions n-j+1..n (in position order).  The assignment must be injective.
    """

    n: int
    left: tuple
    right: tuple

    def __post_init__(self):
        # values() would truncate a float label and read a bool as 0 or 1
        if not _is_integer(self.n):
            raise ContractError(f"n must be an integer, got {self.n!r}")
        labels = list(self.left) + list(self.right)
        if not all(map(_is_integer, labels)):
            raise ContractError(
                f"boundary labels must be integers, got {labels!r}")
        if len(set(labels)) != len(labels):
            raise ContractError("boundary assignment must be injective")
        if any(not 1 <= v <= self.n for v in labels):
            raise ContractError("boundary labels out of range")
        if self.i + self.j > self.n:
            raise ContractError("boundary regions overlap")

    @property
    def i(self) -> int:
        return len(self.left)

    @property
    def j(self) -> int:
        return len(self.right)

    def values(self) -> dict:
        """Position -> particle map over A^c."""
        out = {pos: int(v) for pos, v in zip(range(1, self.i + 1), self.left)}
        out.update({pos: int(v) for pos, v in
                    zip(range(self.n - self.j + 1, self.n + 1), self.right)})
        return out

    def is_localized(self, ell: LocalizationVector) -> bool:
        for pos, v in self.values().items():
            lo, hi = ell.window(v)
            if not lo <= pos <= hi:
                return False
        return True


def restrict_instance(p: BiasMatrix, ell: LocalizationVector | None,
                      a: int, labels):
    """The sub-instance of a block: (sub bias matrix, sub localization).

    labels are the block's labels in increasing order, r, filling positions
    a, a + 1, ...; label r(k) becomes sub-label k.  The sub bias matrix is
    q[k][k'] = p[r(k)][r(k')], and the sub localization is the one the
    boundary outside the block induces (None stays None).  A permutation
    whose block holds labels has the sub-row np.searchsorted(labels, block)
    + 1 there.

    Raises EmptySupport if the boundary admits no localized completion
    (some induced window is empty or excludes displacement 0, which cannot
    happen for an extendable boundary).
    """
    if ell is not None and ell.n != p.n:
        raise ContractError(f"ell has {ell.n} entries, but p has n = {p.n}")
    r = np.asarray(labels, dtype=np.int64)
    m = r.size
    if not 1 <= a <= p.n - m + 1:
        raise ContractError(f"{m} labels from position {a} do not fit "
                            f"in 1..{p.n}")
    sub_p = p.submatrix(r)
    if ell is None:
        return sub_p, None
    k = np.arange(1, m + 1)
    # label r(k) becomes sub-label k, at home in position k + a - 1, which
    # is shift places left of its old home r(k)
    shift = r - k - (a - 1)
    raw_lo = ell.lo[r - 1] - shift
    raw_hi = ell.hi[r - 1] + shift
    bad = np.flatnonzero((raw_lo < 0) | (raw_hi < 0))
    if bad.size:
        raise EmptySupport(
            f"boundary admits no localized completion (particle {int(r[bad[0]])})")
    return sub_p, LocalizationVector._trusted(np.minimum(raw_lo, k - 1),
                                              np.minimum(raw_hi, m - k))


def max_localized_state(ell: LocalizationVector) -> Permutation:
    """Greedy extreme state: at each position take the largest feasible particle.

    Requires an admissible vector, for which the per-particle deadlines
    k + hi[k] are nondecreasing in k.  Choosing the particle of sorted rank t
    at position pos is feasible iff every smaller remaining particle keeps
    slack for the positions after pos, i.e. min_{m < t} (deadline(s_m) - m)
    >= pos over the remaining particles s_1 < s_2 < ...  Used as the "far"
    start of twin-chain experiments (identity is the near one).

    The window starts k - lo[k] are nondecreasing as well, so the remaining
    particles whose window opens by pos form a prefix s_1 .. s_cut.  No
    particle past it can be chosen, and both scans stop at cut.
    """
    if not ell.is_admissible():
        raise ContractError("extreme state construction needs an admissible vector")
    n = ell.n
    labels = np.arange(1, n + 1)
    start = (labels - ell.lo).tolist()
    deadline = (labels + ell.hi).tolist()
    remaining = list(range(1, n + 1))
    forward = np.empty(n, dtype=np.int64)
    for pos in range(1, n + 1):
        cut = bisect.bisect_right(remaining, bisect.bisect_right(start, pos))
        choice_idx = None
        prefix_min = math.inf
        slack_ok_until = cut
        for m in range(cut):
            if prefix_min < pos:
                slack_ok_until = m
                break
            prefix_min = min(prefix_min, deadline[remaining[m] - 1] - (m + 1))
        for t in range(slack_ok_until - 1, -1, -1):
            k = remaining[t]
            if start[k - 1] <= pos <= deadline[k - 1]:
                choice_idx = t
                break
        if choice_idx is None:
            raise ContractError("infeasible localization vector")
        forward[pos - 1] = remaining.pop(choice_idx)
    sigma = Permutation(forward)
    if not is_localized(sigma, ell):
        raise AssertionError("greedy extreme state left the localized set")
    return sigma
