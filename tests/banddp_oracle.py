"""Reference oracle for the band DP passes and the exact one-step kernel.

``ReferenceBandDP`` keeps the straightforward passes on top of the engine's
constructor and window helpers: per-candidate interaction tables built one
candidate at a time, a forward step that concatenates every transition and
collapses duplicate words by argsort and reduceat, a backward pass and
sampler that find next-layer words with ``searchsorted``, a cut-pair law that
pushes each word of the first cut alone to the second, and a region marginal
over a dict frontier of (word, partial row) pairs.
``reference_transition_matrix`` is the per-state dict-of-tuples kernel build.
The fast paths must reproduce these: the same layer words, bit-identical
backward layers, draws and kernels, and forward log weights within 1e-12.
"""

import math

import numpy as np
import scipy.sparse as sp

from atshuffle.banddp import NEG_INF, BandDP
from atshuffle.errors import EmptySupport
from atshuffle.measure import DistributionTable
from atshuffle.perms import BiasMatrix


def group_logsumexp(keys, vals):
    """Collapse duplicate keys by log-sum-exp; non-finite values are dropped."""
    finite = np.isfinite(vals)
    keys = keys[finite]
    vals = vals[finite]
    if keys.size == 0:
        return keys, vals
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    v = vals[order]
    starts = np.r_[0, np.nonzero(np.diff(k))[0] + 1]
    uniq = k[starts]
    vmax = np.maximum.reduceat(v, starts)
    rep = np.repeat(vmax, np.diff(np.r_[starts, len(v)]))
    sums = np.add.reduceat(np.exp(v - rep), starts)
    return uniq, vmax + np.log(sums)


def random_bias_with_certain_pairs(n, rng):
    """Random instance with exact 1s and a few exact 0s among its pairs.

    Exact 1s keep the identity, which every window admits, of positive
    weight.  Exact 0s sit only between neighbouring labels, so most
    instances keep a localized support.
    """
    upper = rng.random((n, n))
    kind = rng.integers(0, 16, size=(n, n))
    upper[kind < 4] = 1.0
    upper[np.eye(n, k=1, dtype=bool) & (kind == 4)] = 0.0
    return BiasMatrix(np.triu(upper, k=1))


class ReferenceBandDP(BandDP):
    """BandDP with the original argsort/searchsorted passes."""

    def _slot_candidates(self, t):
        pos = t + 1
        base = self._base(t)
        pin = int(self.pin_at[pos])
        out = []
        for j in range(self.W):
            x = base + j
            if not 1 <= x <= self.n:
                continue
            if pin and x != pin:
                continue
            if not (x - self._lo[x - 1] <= pos <= x + self._hi[x - 1]):
                continue
            out.append((j, x))
        return out

    def _interaction_tables(self, base, x):
        coefs = np.zeros(self.W)
        for j in range(self.W):
            y = base + j
            if 1 <= y <= self.n and y != x:
                coefs[j] = self._log[y - 1, x - 1]
        wlo = self.W // 2
        tab_lo = np.zeros(1)
        for b in range(wlo):
            tab_lo = np.concatenate([tab_lo, tab_lo + coefs[b]])
        tab_hi = np.zeros(1)
        for b in range(wlo, self.W):
            tab_hi = np.concatenate([tab_hi, tab_hi + coefs[b]])
        return tab_lo, tab_hi, wlo

    def _step_weight(self, masks, base, x, tabs):
        tab_lo, tab_hi, wlo = tabs
        pre = self._prefix[x - 1, max(base - 1, 0)]
        return pre + tab_lo[masks & ((1 << wlo) - 1)] + tab_hi[masks >> wlo]

    def _transitions(self, t, masks):
        base = self._base(t)
        out = []
        for j, x in self._slot_candidates(t):
            sel = (masks >> j) & 1 == 0
            if j > 0:
                sel = sel & ((masks & 1) == 1)
            if not np.any(sel):
                continue
            src = masks[sel]
            tabs = self._interaction_tables(base, x)
            dw = self._step_weight(src, base, x, tabs)
            dst = (src | (1 << j)) >> 1
            out.append((j, x, sel, dst, dw))
        return out

    def _step(self, t, masks, logv):
        keys, vals = [], []
        for _, _, sel, dst, dw in self._transitions(t, masks):
            keys.append(dst)
            vals.append(logv[sel] + dw)
        if not keys:
            return np.array([], dtype=np.int64), np.array([])
        return group_logsumexp(np.concatenate(keys), np.concatenate(vals))

    def _forward(self):
        if self._fwd is not None:
            return self._fwd
        masks = np.array([self._end_word], dtype=np.int64)
        logv = np.zeros(1)
        layers = [(masks, logv)]
        for t in range(self.n):
            masks, logv = self._step(t, masks, logv)
            if masks.size == 0:
                raise EmptySupport(
                    f"no localized completion survives past position {t + 1}")
            layers.append((masks, logv))
        self._fwd = layers
        final = self._end_word
        idx = np.searchsorted(layers[-1][0], final)
        if idx >= layers[-1][0].size or layers[-1][0][idx] != final:
            raise EmptySupport("no path reaches the fully placed state")
        self._logZ = float(layers[-1][1][idx])
        return layers

    def _backward(self):
        if self._bwd is not None:
            return self._bwd
        layers = self._forward()
        bwd = [None] * (self.n + 1)
        final_masks = layers[self.n][0]
        b = np.full(final_masks.size, NEG_INF)
        b[np.searchsorted(final_masks, self._end_word)] = 0.0
        bwd[self.n] = b
        for t in range(self.n - 1, -1, -1):
            masks = layers[t][0]
            nxt_masks = layers[t + 1][0]
            nxt_b = bwd[t + 1]
            b = np.full(masks.size, NEG_INF)
            for _, _, sel, dst, dw in self._transitions(t, masks):
                pos_idx = np.searchsorted(nxt_masks, dst)
                ok = (pos_idx < nxt_masks.size)
                pos_idx = np.minimum(pos_idx, nxt_masks.size - 1)
                ok &= nxt_masks[pos_idx] == dst
                contrib = np.where(ok, nxt_b[pos_idx] + dw, NEG_INF)
                b[sel] = np.logaddexp(b[sel], contrib)
            bwd[t] = b
        self._bwd = bwd
        return bwd

    def cut_pair_law(self, t1, t2):
        """Joint law of the words after t1 and t2 placements, word by word.

        Each word of layer t1 is pushed alone to layer t2; keys are
        w1 << (W - 1) | w2 in increasing order.
        """
        layers = self._forward()
        bwd = self._backward()
        logZ = self.log_partition()
        masks2 = layers[t2][0]
        keys, probs = [], []
        for w1, fv in zip(*layers[t1]):
            words, logv = np.array([w1]), np.array([0.0])
            for t in range(t1, t2):
                words, logv = self._step(t, words, logv)
            for w2, gv in zip(words, logv):
                idx = int(np.searchsorted(masks2, w2))
                if idx >= masks2.size or masks2[idx] != w2:
                    continue
                val = fv + gv + bwd[t2][idx] - logZ
                if math.isfinite(val):
                    keys.append(int(w1) << (self.W - 1) | int(w2))
                    probs.append(math.exp(val))
        order = np.argsort(keys)
        return (np.array(keys, dtype=np.int64)[order],
                np.array(probs)[order])

    def sample_rows(self, rng, size):
        layers = self._forward()
        bwd = self._backward()
        self.log_partition()
        R = size
        rows = np.empty((R, self.n), dtype=np.int64)
        cur = np.full(R, self._end_word, dtype=np.int64)
        for t in range(self.n):
            base = self._base(t)
            nxt_masks = layers[t + 1][0]
            nxt_b = bwd[t + 1]
            cands = self._slot_candidates(t)
            weights = np.full((R, len(cands)), NEG_INF)
            dsts = np.empty((R, len(cands)), dtype=np.int64)
            for c, (j, x) in enumerate(cands):
                valid = (cur >> j) & 1 == 0
                if j > 0:
                    valid &= (cur & 1) == 1
                tabs = self._interaction_tables(base, x)
                dw = self._step_weight(cur, base, x, tabs)
                dst = (cur | (1 << j)) >> 1
                idx = np.searchsorted(nxt_masks, dst)
                ok = idx < nxt_masks.size
                idx = np.minimum(idx, nxt_masks.size - 1)
                ok &= nxt_masks[idx] == dst
                weights[:, c] = np.where(valid & ok, dw + nxt_b[idx], NEG_INF)
                dsts[:, c] = dst
            wmax = weights.max(axis=1)
            probs = np.exp(weights - wmax[:, None])
            cdf = np.cumsum(probs, axis=1)
            u = rng.random(R) * cdf[:, -1]
            choice = np.minimum((u[:, None] >= cdf).sum(axis=1), len(cands) - 1)
            rows[:, t] = np.array([x for _, x in cands], dtype=np.int64)[choice]
            cur = dsts[np.arange(R), choice]
        return rows

    def region_marginal(self, region, cap_states=200000):
        a, b = region
        layers = self._forward()
        bwd = self._backward()
        logZ = self.log_partition()
        masks, logv = layers[a - 1]
        frontier = {(int(m), ()): float(v) for m, v in zip(masks, logv)
                    if np.isfinite(v)}
        for t in range(a - 1, b):
            base = self._base(t)
            new = {}
            by_mask = {}
            for (m, asg), v in frontier.items():
                by_mask.setdefault(m, []).append((asg, v))
            for j, x in self._slot_candidates(t):
                tabs = self._interaction_tables(base, x)
                for m, entries in by_mask.items():
                    if (m >> j) & 1:
                        continue
                    if j > 0 and not (m & 1):
                        continue
                    dw = float(self._step_weight(np.array([m]), base, x, tabs)[0])
                    if not math.isfinite(dw):
                        continue
                    dst = (m | (1 << j)) >> 1
                    for asg, v in entries:
                        key = (dst, asg + (x,))
                        val = v + dw
                        if key in new:
                            new[key] = float(np.logaddexp(new[key], val))
                        else:
                            new[key] = val
            frontier = new
        end_masks = layers[b][0]
        totals = {}
        for (m, asg), v in frontier.items():
            idx = int(np.searchsorted(end_masks, m))
            if idx >= end_masks.size or end_masks[idx] != m:
                continue
            tail = float(bwd[b][idx])
            if not math.isfinite(tail):
                continue
            val = v + tail - logZ
            if asg in totals:
                totals[asg] = float(np.logaddexp(totals[asg], val))
            else:
                totals[asg] = val
        support = sorted(totals)
        probs = np.exp(np.array([totals[s] for s in support]))
        probs /= probs.sum()
        return DistributionTable(support, probs, logZ)


def reference_transition_matrix(n, p, mu):
    """CSR one-step kernel over mu.support, built state by state."""
    states = list(map(tuple, mu.support.tolist()))
    index = {s: i for i, s in enumerate(states)}
    dense_p = p.dense()
    m = len(states)
    rows, cols, vals = [], [], []
    edge_prob = 1.0 / (n - 1) if n > 1 else 1.0
    for si, state in enumerate(states):
        diag = 0.0
        for i in range(n - 1):
            a, b = state[i], state[i + 1]
            swapped = state[:i] + (b, a) + state[i + 2:]
            p_swap = dense_p[b - 1, a - 1]
            tj = index.get(swapped)
            if tj is None:
                diag += edge_prob
            else:
                rows.append(si)
                cols.append(tj)
                vals.append(edge_prob * p_swap)
                diag += edge_prob * (1.0 - p_swap)
        rows.append(si)
        cols.append(si)
        vals.append(diag)
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(m, m))
    matrix.sum_duplicates()
    return matrix
