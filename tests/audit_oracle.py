"""Reference oracle for the scalar coupling drivers in ``atshuffle.chains``.

These are the straightforward versions: numpy state, and after every step a
full recount of every prefix sum.  They read the same draw streams as the
drivers, so on shared seeds both must flag the same steps and return the same
meeting times.
"""

import itertools

import numpy as np

from atshuffle.chains import (derive_rng, experiment_id,
                              write_coupling_violation)

CHUNK = 8192


def ordered_update(F, e, u, dense, ell=None):
    """The order-based chain update at edge e of row F, in place: the smaller
    label ends ahead iff u < dense[low - 1, high - 1], and with ell a swap
    that would leave the localized set is rejected.  Returns whether it
    swapped."""
    a = F[e - 1]
    b = F[e]
    pair_lo, pair_hi = (a, b) if a < b else (b, a)
    want_lo_ahead = u < dense[pair_lo - 1, pair_hi - 1]
    do_swap = (want_lo_ahead and a > b) or (not want_lo_ahead and a < b)
    if do_swap and ell is not None:
        do_swap = (e + 1 - a) <= ell.hi[a - 1] and (b - e) <= ell.lo[b - 1]
    if do_swap:
        F[e - 1] = b
        F[e] = a
    return do_swap


def left_of(Y, Yp):
    """Whether occupancy row Y is weakly left of Yp: every prefix of Y holds
    at least as many particles as the same prefix of Yp."""
    return all(a >= b for a, b in zip(itertools.accumulate(Y),
                                      itertools.accumulate(Yp)))


def domination_audit(F0, Y0, p, q, ks, steps, seed, ell=None, log_path=None):
    """Audited coupled run of chain row F0 and ASEP rows Y0 (one per k).

    Returns (violations, flagged steps).
    """
    F = np.array(F0, dtype=np.int64)
    Y = np.array(Y0, dtype=np.int8).reshape(len(ks), len(F))
    ks = np.array(ks, dtype=np.int64)
    n = len(F)
    dense = p.dense()
    rng = derive_rng(seed, experiment_id("domination-audit"))
    flagged = []
    log_fh = open(log_path, "a") if log_path else None
    t = 0
    while t < steps:
        edges = rng.integers(1, n, size=CHUNK)
        us = rng.random(CHUNK)
        for e, u in zip(edges[:steps - t], us[:steps - t]):
            t += 1
            ordered_update(F, e, u, dense, ell)
            s = Y[:, e - 1] + Y[:, e]
            active = s == 1
            if np.any(active):
                left = 1 if u < q else 0
                Y[active, e - 1] = left
                Y[active, e] = 1 - left
            eta_prefix = np.cumsum(F[None, :] <= ks[:, None], axis=1)
            y_prefix = np.cumsum(Y, axis=1)
            if not np.all(eta_prefix >= y_prefix):
                flagged.append(t)
                if log_fh is not None:
                    write_coupling_violation(
                        log_fh, t, int(e), float(u),
                        [F.tolist()] + [row.tolist() for row in Y])
    if log_fh is not None:
        log_fh.close()
    return len(flagged), flagged


def monotone_audit(top0, bot0, q, steps, seed):
    """Audited coupled top/bottom run; returns (violations, flagged steps)."""
    top = np.array(top0, dtype=np.int64)
    bot = np.array(bot0, dtype=np.int64)
    n = len(top)
    rng = derive_rng(seed, experiment_id("asep-monotone-audit"))
    flagged = []
    t = 0
    while t < steps:
        edges = rng.integers(1, n, size=CHUNK)
        us = rng.random(CHUNK)
        for e, u in zip(edges[:steps - t], us[:steps - t]):
            t += 1
            left = 1 if u < q else 0
            for Y in (bot, top):
                if Y[e - 1] + Y[e] == 1:
                    Y[e - 1] = left
                    Y[e] = 1 - left
            if not np.all(np.cumsum(bot) >= np.cumsum(top)):
                flagged.append(t)
    return len(flagged), flagged


def pair_coalescence(n, k, q, seed, t_cap):
    """Meeting time of the top/bottom ASEP coupling on the chunked draws of
    the "asep-coalescence" stream."""
    top = [0] * n
    bot = [0] * n
    for v in range(n - k, n):
        top[v] = 1
    for v in range(k):
        bot[v] = 1
    diff = sum(1 for a, b in zip(top, bot) if a != b)
    if diff == 0:
        return 0
    rng = derive_rng(seed, experiment_id("asep-coalescence"))
    t = 0
    while t < t_cap:
        edges = rng.integers(1, n, size=CHUNK)
        us = rng.random(CHUNK)
        for e, u in zip(edges[:t_cap - t], us[:t_cap - t]):
            t += 1
            left = 1 if u < q else 0
            before = int(top[e - 1] != bot[e - 1]) + int(top[e] != bot[e])
            for Y in (top, bot):
                if Y[e - 1] + Y[e] == 1:
                    Y[e - 1] = left
                    Y[e] = 1 - left
            after = int(top[e - 1] != bot[e - 1]) + int(top[e] != bot[e])
            diff += after - before
            if diff == 0:
                return t
    return None
