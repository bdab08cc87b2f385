"""Reference oracle for the exact ASEP law and kernel, the block kernel and
the spectral gap.

These are the straightforward state-by-state builds: the ASEP weights count
the (1 before 0) pairs one state at a time, the ASEP kernel looks up each
swapped occupancy tuple in a dict, and the heat-bath block kernel groups the
states by their complement tuple in a dict and fills the dense kernel one
row at a time.  The shared swap-kernel builder and the grouped block kernel
must reproduce them bit for bit.  The gap is read off a full eigendecomposition
of the dense symmetrized kernel, which measure.spectral_gap's Lanczos
recurrence must match to rounding.
"""

import math
from itertools import combinations

import numpy as np
import scipy.sparse as sp


def reference_asep_states(n, k):
    states = []
    for positions in combinations(range(n), k):
        occ = np.zeros(n, dtype=np.int8)
        occ[list(positions)] = 1
        states.append(tuple(int(x) for x in occ))
    return states


def reference_asep_weights(n, k, q):
    """(support, normalized probabilities, logZ) of the ASEP stationary law."""
    log_rho = math.log(q) - math.log(1.0 - q)
    support = reference_asep_states(n, k)
    logw = []
    for s in support:
        occ = np.array(s)
        holes_after = np.cumsum(occ[::-1] == 0)[::-1]
        n10 = int(sum(holes_after[v] for v in np.flatnonzero(occ)))
        logw.append(n10 * log_rho)
    logw = np.array(logw)
    m = logw.max()
    w = np.exp(logw - m)
    return support, w / w.sum(), float(m + math.log(w.sum()))


def reference_asep_transition_matrix(n, q, states):
    """CSR one-step ASEP kernel over states, built state by state."""
    index = {s: i for i, s in enumerate(states)}
    edge_prob = 1.0 / (n - 1)
    rows, cols, vals = [], [], []
    for si, s in enumerate(states):
        diag = 0.0
        for i in range(n - 1):
            a, b = s[i], s[i + 1]
            if a + b != 1:
                diag += edge_prob
                continue
            swapped = s[:i] + (b, a) + s[i + 2:]
            p_move = (1.0 - q) if (a, b) == (1, 0) else q
            rows.append(si)
            cols.append(index[swapped])
            vals.append(edge_prob * p_move)
            diag += edge_prob * (1.0 - p_move)
        rows.append(si)
        cols.append(si)
        vals.append(diag)
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(len(states), len(states)))
    matrix.sum_duplicates()
    return matrix


def reference_block_kernel(n, schedule, mu):
    """Dense heat-bath block kernel over mu.support, one state at a time."""
    states = mu.support
    m = len(states)
    P = np.zeros((m, m))
    for (a, b), wb in zip(schedule.blocks(), schedule.probabilities()):
        comp = [pos for pos in range(1, n + 1) if not a <= pos <= b]
        groups = {}
        for si, s in enumerate(states):
            key = tuple(s[pos - 1] for pos in comp)
            groups.setdefault(key, []).append(si)
        for members in groups.values():
            probs = mu.probs[members]
            probs = probs / probs.sum()
            for si in members:
                P[si, members] += wb * probs
    return P


def dense_gap(P, mu):
    """1 - lambda_2 of the kernel P reversible for mu, from eigvalsh of
    D P D^-1 with D = diag(sqrt(mu)), symmetrized; 1 for a singleton."""
    if len(mu.probs) == 1:
        return 1.0
    root = np.sqrt(mu.probs)
    S = root[:, None] * P.matrix.toarray() / root[None, :]
    return 1.0 - float(np.linalg.eigvalsh(0.5 * (S + S.T))[-2])
