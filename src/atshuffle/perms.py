"""Permutations, bias matrices, localization windows, and boundary relabeling.

Positions and particle labels are 1-based everywhere in the public API;
internal numpy arrays are 0-indexed but never leak.  A permutation sigma is
stored together with its inverse, so ``sigma.at(i)`` (particle in position i)
and ``sigma.position(k)`` (position of particle k) are both O(1) and adjacent
swaps keep the two arrays in sync.
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
    """A bijection on {1..n} with forward and inverse arrays maintained jointly."""

    __slots__ = ("forward", "inverse", "n")

    def __init__(self, forward, _validate: bool = True):
        fwd = np.array(forward, dtype=np.int64)
        n = int(fwd.shape[0])
        if _validate:
            if n == 0 or np.any(fwd < 1) or np.any(fwd > n):
                raise ContractError("forward must list each label in 1..n once")
            counts = np.bincount(fwd, minlength=n + 1)
            if np.any(counts[1:] != 1):
                raise ContractError("forward must list each label in 1..n once")
        inv = np.empty(n, dtype=np.int64)
        inv[fwd - 1] = np.arange(1, n + 1)
        self.forward = fwd
        self.inverse = inv
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

    def position(self, k: int) -> int:
        """Position of particle k."""
        if not 1 <= k <= self.n:
            raise ContractError(f"label {k} out of range 1..{self.n}")
        return int(self.inverse[k - 1])

    def swap(self, i: int) -> None:
        """In-place adjacent transposition at positions (i, i+1)."""
        if not 1 <= i <= self.n - 1:
            raise ContractError(f"edge {i} out of range 1..{self.n - 1}")
        a, b = self.forward[i - 1], self.forward[i]
        self.forward[i - 1], self.forward[i] = b, a
        self.inverse[a - 1] = i + 1
        self.inverse[b - 1] = i

    def copy(self) -> "Permutation":
        return Permutation(self.forward.copy(), _validate=False)

    def to_tuple(self) -> tuple:
        return tuple(self.forward.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return np.array_equal(self.forward, other.forward)

    def __repr__(self) -> str:
        return f"Permutation({self.to_tuple()})"


def apply_adjacent_transposition(sigma: Permutation, i: int) -> Permutation:
    """Return sigma composed with the swap of positions (i, i+1)."""
    out = sigma.copy()
    out.swap(i)
    return out


def max_displacement(sigma: Permutation) -> int:
    """max over particles k of |position(k) - k|."""
    n = sigma.n
    return int(np.max(np.abs(sigma.inverse - np.arange(1, n + 1)))) if n else 0


def is_disconnecting(sigma: Permutation, k: int) -> bool:
    """True iff the first k positions hold exactly the particles {1..k}."""
    if not 1 <= k <= sigma.n:
        raise ContractError(f"position {k} out of range 1..{sigma.n}")
    return int(np.max(sigma.forward[:k])) == k


def disconnecting_positions(sigma: Permutation) -> list:
    """All disconnecting positions, via a single running-max sweep."""
    run = np.maximum.accumulate(sigma.forward)
    return [int(k) for k in np.nonzero(run == np.arange(1, sigma.n + 1))[0] + 1]


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
        if any((isinstance(x, float) and not math.isinf(x) and x != int(x)) or
               (not math.isinf(x) and x < 0) for x in list(lo) + list(hi)):
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


def inverse_rows(F: np.ndarray) -> np.ndarray:
    """Row-wise inverses of an (R, n) stack of 1-based permutation rows."""
    R, n = F.shape
    INV = np.empty_like(F)
    INV[np.arange(R)[:, None], F - 1] = np.arange(1, n + 1)[None, :]
    return INV


def localized_rows(F: np.ndarray, ell: LocalizationVector) -> np.ndarray:
    """is_localized for each row of an (R, n) stack of 1-based permutation rows."""
    if F.shape[1] != ell.n:
        raise ContractError("size mismatch between permutation and localization")
    d = inverse_rows(F) - np.arange(1, ell.n + 1)
    return np.all((d >= -ell.lo) & (d <= ell.hi), axis=1)


class BiasMatrix:
    """Pairwise ordering preferences p[i][j] = P(i ends up ahead of j).

    Only the upper triangle is stored as given; the lower triangle is the
    mirror 1 - p computed once at construction, so the anti-symmetry
    p[j][i] = 1 - p[i][j] holds identically.  The diagonal is unused.
    """

    __slots__ = ("n", "_dense", "_log", "_epsilon", "_q")

    def __init__(self, upper):
        up = np.array(upper, dtype=np.float64)
        if up.ndim != 2 or up.shape[0] != up.shape[1]:
            raise ContractError("bias matrix must be square")
        n = up.shape[0]
        iu = np.triu_indices(n, k=1)
        vals = up[iu]
        if np.any(vals < 0.0) or np.any(vals > 1.0):
            raise ContractError("bias entries must lie in [0, 1]")
        dense = np.ones((n, n), dtype=np.float64)
        dense[iu] = vals
        dense[(iu[1], iu[0])] = 1.0 - vals
        self.n = n
        self._dense = dense
        self._dense.setflags(write=False)
        self._log = None
        self._epsilon = None
        self._q = _LAZY

    @classmethod
    def _trusted(cls, dense: np.ndarray, q=_LAZY) -> "BiasMatrix":
        """A matrix over a dense array the constructor would have built (upper
        triangle in [0, 1], its mirror 1 - p below, ones on the diagonal),
        kept without checking; q is its constant_q() when known."""
        out = cls.__new__(cls)
        out.n = dense.shape[0]
        out._dense = dense
        out._dense.setflags(write=False)
        out._log = None
        out._epsilon = None
        out._q = q
        return out

    def get(self, i: int, j: int) -> float:
        """p[i][j] for particle labels i != j (1-based)."""
        if i == j or not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ContractError(f"bad label pair ({i}, {j})")
        return float(self._dense[i - 1, j - 1])

    def dense(self) -> np.ndarray:
        """Read-only (n, n) array, 0-indexed; diagonal entries are unused (1.0)."""
        return self._dense

    def log_dense(self) -> np.ndarray:
        """Elementwise log of dense(), with log 0 = -inf (no warning)."""
        if self._log is None:
            with np.errstate(divide="ignore"):
                log = np.log(self._dense)
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
                p = self._dense[iu]
                q = 1.0 - p
                with np.errstate(divide="ignore"):
                    ratios = np.where(q > 0.0, p / np.where(q > 0.0, q, 1.0), math.inf)
                self._epsilon = float(np.min(ratios) - 1.0)
        return self._epsilon

    def is_monotone(self) -> bool:
        """p[i][j] nondecreasing in j (i<j) and nonincreasing in i (i+1<j)."""
        d = self._dense
        for i in range(self.n):
            for j in range(i + 1, self.n - 1):
                if d[i, j] > d[i, j + 1] + 1e-15:
                    return False
        for i in range(self.n - 2):
            for j in range(i + 2, self.n):
                if d[i, j] < d[i + 1, j] - 1e-15:
                    return False
        return True

    def submatrix(self, labels) -> "BiasMatrix":
        """Bias matrix on strictly increasing labels (1-based).

        Increasing labels keep the upper triangle upper, so the principal
        submatrix is the matrix the constructor would build and is taken as
        it is.  A constant parent hands its constant_q() down.
        """
        idx = np.asarray(labels, dtype=np.int64) - 1
        if idx.ndim != 1 or (idx.size and (idx[0] < 0 or idx[-1] >= self.n
                                           or np.any(idx[1:] <= idx[:-1]))):
            raise ContractError(
                f"submatrix needs strictly increasing labels in 1..{self.n}")
        q = self.constant_q()
        return BiasMatrix._trusted(
            self._dense[np.ix_(idx, idx)],
            q if q is not None and idx.size >= 2 else _LAZY)

    def constant_q(self) -> float | None:
        """The common upper-triangle value if the matrix is constant, else None."""
        if self._q is _LAZY:
            if self.n < 2:
                self._q = 1.0
            else:
                vals = self._dense[np.triu_indices(self.n, k=1)]
                q = float(vals[0])
                self._q = q if np.all(vals == q) else None
        return self._q

    def to_tuple(self) -> tuple:
        iu = np.triu_indices(self.n, k=1)
        return tuple(float(v) for v in self._dense[iu])

    def __reduce__(self):
        # rebuilt through the constructor, so an unpickled matrix is read-only
        return (BiasMatrix, (self._dense,))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiasMatrix):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._dense, other._dense)

    def __repr__(self) -> str:
        return f"BiasMatrix(n={self.n}, epsilon={self.epsilon:.6g})"

    def to_text(self) -> str:
        n = self.n
        # one repr per distinct bit pattern, so 0.0 and -0.0 stay apart
        bits, which = np.unique(self._dense[np.triu_indices(n, k=1)].view(np.int64),
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
        """Constant q with q/(1-q) = 1 + eps, i.e. q = (1+eps)/(2+eps)."""
        if eps < 0:
            raise ContractError("eps must be nonnegative")
        return cls.constant(n, (1.0 + eps) / (2.0 + eps))

    @classmethod
    def totally_asymmetric(cls, n: int) -> "BiasMatrix":
        up = np.zeros((n, n))
        up[np.triu_indices(n, k=1)] = 1.0
        return cls(up)

    @classmethod
    def random_biased(cls, n: int, eps: float, rng: np.random.Generator) -> "BiasMatrix":
        """Each p[i][j], i<j, uniform on [(1+eps)/(2+eps), 1]."""
        if eps < 0:
            raise ContractError("eps must be nonnegative")
        lo = (1.0 + eps) / (2.0 + eps)
        up = np.zeros((n, n))
        iu = np.triu_indices(n, k=1)
        up[iu] = rng.uniform(lo, 1.0, size=len(iu[0]))
        return cls(up)

    @classmethod
    def monotone_biased(cls, n: int, eps: float, rng: np.random.Generator) -> "BiasMatrix":
        """eps-positively biased and monotone: running max of a random table."""
        if eps < 0:
            raise ContractError("eps must be nonnegative")
        lo = (1.0 + eps) / (2.0 + eps)
        up = np.zeros((n, n))
        iu = np.triu_indices(n, k=1)
        up[iu] = rng.uniform(lo, 1.0, size=len(iu[0]))
        # p[i][j] = max over {i' >= i, j' <= j, i' < j'}: nondecreasing in j,
        # nonincreasing in i, still within [lo, 1]
        for i in range(n - 2, -1, -1):
            for j in range(i + 1, n):
                best = up[i, j]
                if i + 1 < j:
                    best = max(best, up[i + 1, j])
                if j - 1 > i:
                    best = max(best, up[i, j - 1])
                up[i, j] = best
        return cls(up)


def instance_fingerprint(p: BiasMatrix, ell: LocalizationVector | None) -> str:
    """Stable short hash of (n, p, ell) used to key experiment records."""
    h = hashlib.sha256()
    h.update(p.to_text().encode())
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
        labels = list(self.left) + list(self.right)
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

    @property
    def interior_size(self) -> int:
        return self.n - self.i - self.j

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

    @classmethod
    def from_permutation(cls, sigma: Permutation, i: int, j: int) -> "BoundaryAssignment":
        fwd = sigma.to_tuple()
        right = fwd[sigma.n - j:] if j > 0 else ()
        return cls(sigma.n, fwd[:i], right)


def relabel_map(boundary: BoundaryAssignment) -> np.ndarray:
    """The increasing bijection r from [n-i-j] onto [n] minus the boundary labels.

    Returned as an int array with r[x-1] = r(x), labels 1-based.
    """
    free = np.ones(boundary.n + 1, dtype=bool)
    free[0] = False
    free[[*boundary.left, *boundary.right]] = False
    return np.flatnonzero(free)


def induced_localization(boundary: BoundaryAssignment,
                         ell: LocalizationVector) -> LocalizationVector:
    """Localization windows induced on the relabeled interior instance.

    Raises EmptySupport if the boundary admits no localized completion
    (some induced window is empty or excludes displacement 0, which cannot
    happen for an extendable boundary).
    """
    return _induced(relabel_map(boundary), boundary.i, ell)


def _induced(r: np.ndarray, i: int, ell: LocalizationVector) -> LocalizationVector:
    """induced_localization from the relabel map r and the left boundary size i."""
    m = r.size
    k = np.arange(1, m + 1)
    # label r(k) becomes interior particle k, at home in position k + i,
    # which is shift places left of its old home r(k)
    shift = r - k - i
    raw_lo = ell.lo[r - 1] - shift
    raw_hi = ell.hi[r - 1] + shift
    bad = np.flatnonzero((raw_lo < 0) | (raw_hi < 0))
    if bad.size:
        raise EmptySupport(
            f"boundary admits no localized completion (particle {int(r[bad[0]])})")
    return LocalizationVector._trusted(np.minimum(raw_lo, k - 1),
                                       np.minimum(raw_hi, m - k))


def restrict_instance(boundary: BoundaryAssignment, p: BiasMatrix,
                      ell: LocalizationVector | None):
    """Relabeled interior instance: (sub bias matrix, sub localization, r map).

    The sub bias matrix is q[k][k'] = p[r(k)][r(k')]; the sub localization is
    the induced one (None stays None).  A permutation that agrees with the
    boundary has the relabeled interior np.searchsorted(r, interior) + 1.
    """
    r = relabel_map(boundary)
    sub_p = p.submatrix(r)
    sub_ell = _induced(r, boundary.i, ell) if ell is not None else None
    return sub_p, sub_ell, r


def embed(sub_sigma: Permutation, boundary: BoundaryAssignment,
          r: np.ndarray) -> Permutation:
    """Rebuild the full permutation from its relabeled interior sub_sigma."""
    n = boundary.n
    i = boundary.i
    forward = np.empty(n, dtype=np.int64)
    for pos, v in boundary.values().items():
        forward[pos - 1] = v
    forward[i:i + boundary.interior_size] = r[sub_sigma.forward - 1]
    return Permutation(forward)


def random_admissible_localization(n: int, rng: np.random.Generator,
                                   max_ell: int | None = None) -> LocalizationVector:
    """Random n-admissible localization vector, admissible by construction.

    Window starts k - lo[k] and ends k + hi[k] are built as nondecreasing
    random walks; max_ell caps every entry.
    """
    cap = n if max_ell is None else max_ell
    lo = np.empty(n, dtype=np.int64)
    hi = np.empty(n, dtype=np.int64)
    start = 1
    for k in range(1, n + 1):
        lowest = max(start, k - cap)
        start = int(rng.integers(lowest, k + 1))
        lo[k - 1] = k - start
    end = n
    for k in range(n, 0, -1):
        highest = min(end, k + cap)
        end = int(rng.integers(k, highest + 1))
        hi[k - 1] = end - k
    return LocalizationVector(lo, hi)


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
