"""Reference oracle for heat-bath block instances and Mallows ranks.

These are the straightforward versions of the block-update helpers: Python
loops for the relabel map, the induced windows and the greedy extreme state,
every sub-instance rebuilt through the validating ``BiasMatrix`` and
``LocalizationVector`` constructors from an eagerly gathered submatrix with
``constant_q`` recomputed from its entries, the bias-matrix text written one bounds-checked entry at a time, and
Mallows ranks found by one ``searchsorted`` per column in cumsum CDF tables.
The fast paths must reproduce them exactly: equal arrays, the same
exceptions and messages, and the same bytes.  The one exception is a
Mallows rank at a uniform on a table entry or within an ulp of one, where
the sampler's closed-form inverse CDF and the rounded table may disagree;
``exact_mallows_ranks`` reads the exact rational CDFs instead.  The window
check of whole rows is the inverse-based one: each label's position, read
from the inverted rows, minus the label.
"""

import bisect
import itertools
import math
from fractions import Fraction

import numpy as np

from atshuffle.errors import ContractError, EmptySupport
from atshuffle.perms import (BiasMatrix, LocalizationVector, Permutation,
                             is_localized)


def relabel_map(boundary):
    used = set(boundary.left) | set(boundary.right)
    free = [k for k in range(1, boundary.n + 1) if k not in used]
    return np.array(free, dtype=np.int64)


def induced_localization(boundary, ell):
    r = relabel_map(boundary)
    m = boundary.interior_size
    i = boundary.i
    lo = np.empty(m, dtype=np.int64)
    hi = np.empty(m, dtype=np.int64)
    for k in range(1, m + 1):
        rb = int(r[k - 1])
        raw_lo = int(ell.lo[rb - 1]) + k + i - rb
        raw_hi = int(ell.hi[rb - 1]) + rb - k - i
        if raw_lo < 0 or raw_hi < 0:
            raise EmptySupport(
                f"boundary admits no localized completion (particle {rb})")
        lo[k - 1] = min(raw_lo, k - 1)
        hi[k - 1] = min(raw_hi, m - k)
    return LocalizationVector(lo, hi)


def submatrix(p, labels):
    idx = np.asarray(labels, dtype=np.int64) - 1
    return BiasMatrix(p.dense()[np.ix_(idx, idx)])


def restrict_instance(boundary, p, ell):
    r = relabel_map(boundary)
    sub_p = submatrix(p, r)
    sub_ell = induced_localization(boundary, ell) if ell is not None else None
    return sub_p, sub_ell, r


def constant_q(p):
    if p.n < 2:
        return 1.0
    vals = p.dense()[np.triu_indices(p.n, k=1)]
    q = float(vals[0])
    return q if np.all(vals == q) else None


def bias_text(p):
    lines = ["# atshuffle bias matrix v1", f"n {p.n}", f"epsilon {p.epsilon!r}"]
    for i in range(1, p.n + 1):
        for j in range(i + 1, p.n + 1):
            lines.append(f"p {i} {j} {p.get(i, j)!r}")
    return "\n".join(lines) + "\n"


def max_localized_state(ell):
    if not ell.is_admissible():
        raise ContractError("extreme state construction needs an admissible vector")
    n = ell.n
    deadline = np.arange(1, n + 1) + ell.hi
    remaining = list(range(1, n + 1))
    forward = np.empty(n, dtype=np.int64)
    for pos in range(1, n + 1):
        choice_idx = None
        prefix_min = math.inf
        slack_ok_until = len(remaining)
        for m, k in enumerate(remaining):
            if prefix_min < pos:
                slack_ok_until = m
                break
            prefix_min = min(prefix_min, int(deadline[k - 1]) - (m + 1))
        for t in range(slack_ok_until - 1, -1, -1):
            k = remaining[t]
            if k - int(ell.lo[k - 1]) <= pos <= int(deadline[k - 1]):
                choice_idx = t
                break
        if choice_idx is None:
            raise ContractError("infeasible localization vector")
        forward[pos - 1] = remaining.pop(choice_idx)
    sigma = Permutation(forward)
    if not is_localized(sigma, ell):
        raise AssertionError("greedy extreme state left the localized set")
    return sigma


def mallows_cdfs(n, q):
    """Insertion CDFs by cumulative sums, cdfs[m - 1] for m labels left.

    Each top is set to 1, and entries rounded above it are clipped to it: a
    top rounded below 1 would give some u < 1 the rank m, which names no
    label.
    """
    logphi = math.log((1.0 - q) / q)
    cdfs = []
    for m in range(1, n + 1):
        lw = np.arange(m) * logphi
        w = np.exp(lw - lw.max())
        cdf = np.minimum(np.cumsum(w) / w.sum(), 1.0)
        cdf[-1] = 1.0
        cdfs.append(cdf)
    return cdfs


def mallows_ranks(cdfs, u):
    """The (size, n) ranks of a block of uniforms: the count of each
    position's CDF entries <= u, one searchsorted per column."""
    n = u.shape[1]
    return np.column_stack([cdfs[n - pos - 1].searchsorted(col, side="right")
                            for pos, col in enumerate(u.T)])


def exact_mallows_ranks(q, u):
    """The ranks of a (size, n) block of uniforms on the exact rational
    CDFs, with phi the double (1 - q) / q and each uniform taken exactly."""
    phi = Fraction((1.0 - q) / q)
    n = u.shape[1]
    ranks = np.empty(u.shape, dtype=np.int64)
    for pos in range(n):
        sums = list(itertools.accumulate(phi ** g for g in range(n - pos)))
        cdf = [s / sums[-1] for s in sums]
        for r, x in enumerate(u[:, pos].tolist()):
            ranks[r, pos] = bisect.bisect_right(cdf, Fraction(x))
    return ranks


def mallows_rows(cdfs, u):
    """Insertion rows from a (size, n) block of uniforms, column by column."""
    size, n = u.shape
    rows = np.empty((size, n), dtype=np.int64)
    for r, rk in enumerate(mallows_ranks(cdfs, u)):
        avail = list(range(1, n + 1))
        rows[r] = [avail.pop(k) for k in rk.tolist()]
    return rows


def localized_rows(F, ell):
    """Whether each row of an (R, n) stack keeps every label k within
    [-lo[k], hi[k]] of its home, by the inverse rows."""
    d = np.argsort(F, axis=1) + 1 - np.arange(1, ell.n + 1)
    return np.all((d >= -ell.lo) & (d <= ell.hi), axis=1)
