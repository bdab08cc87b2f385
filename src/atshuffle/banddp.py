"""Band-limited transfer-matrix engine for localized instances.

Positions are filled left to right.  With window halves Lm = max lo and
Lp = max hi, the particle eligible for position t is confined to
[t - Lp, t + Lm], so after t placements the only undetermined placement
statuses are those of the W = Lm + Lp + 1 particles around the frontier.
A DP layer is a set of W-bit occupancy words over those particles; bits for
particles below 1 are fixed to "placed" and particles above n never get set.

Weights factorize per placement: putting particle x at the frontier with
placed set S multiplies the stationary weight by prod_{y in S} p[y][x]
(every already-placed particle sits ahead of x).  The prefix part of S (all
particles below the window, always placed) is a precomputed prefix sum; the
in-window part is a subset sum over set bits, evaluated through two half-word
lookup tables per (position, candidate).  Everything is kept in log space so
forbidden pairs (p = 0) propagate as -inf and simply kill paths.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import CapExceeded, ContractError, EmptySupport
from .measure import MEMORY_BUDGET, DistributionTable, enumerate_stationary
from .perms import (BiasMatrix, BoundaryAssignment, LocalizationVector,
                    Permutation, is_localized, localized_rows,
                    restrict_instance)

DEFAULT_WINDOW_CAP = 22
FAST_WINDOW = 16
ENUM_SAMPLER_CAP = 7
# the rejection sampler turns at most this many uniforms into rows at a time,
# which bounds its temporaries to about 1 MB each
ROW_CHUNK_ELEMENTS = 1 << 17
# a BandDP layer holds per word its mask and its forward and backward log
# weights; the layers may take measure.MEMORY_BUDGET bytes
BYTES_PER_STATE = 24
# a layer step sorts its next words when they are fewer than 2^(W-1) /
# SORT_FRACTION, and marks them in a dense array over the window words
# otherwise; sorting is the faster of the two below about this share
SORT_FRACTION = 8

NEG_INF = -math.inf


def _placeable(words: np.ndarray, j: int) -> np.ndarray:
    """Which words can place their slot-j particle next.

    Slot j must be free, and for j > 0 slot 0 must be placed already, since
    its particle leaves the window with this step.
    """
    if j == 0:
        return (words & 1) == 0
    return (words & ((1 << j) | 1)) == 1


class BandDP:
    """Exact forward/backward tables for mu restricted to a localization band.

    Optional pins force specific particles at specific positions, which makes
    the same engine compute conditional partition functions, conditional
    samples, and conditional marginals.

    Every layer word has exactly Lp set bits among its low W - 1 bits, so a
    layer holds at most C(W - 1, Lp) words; the constructor refuses instances
    whose layers would not fit MEMORY_BUDGET.
    """

    def __init__(self, p: BiasMatrix, ell: LocalizationVector,
                 pins: dict | None = None, window_cap: int = DEFAULT_WINDOW_CAP):
        if p.n != ell.n:
            raise ContractError("size mismatch between bias matrix and localization")
        if not ell.is_admissible():
            raise ContractError("band DP requires an admissible localization vector")
        self.n = p.n
        self.p = p
        self.ell = ell
        self.Lm = ell.l_max_minus
        self.Lp = ell.l_max_plus
        self.W = self.Lm + self.Lp + 1
        if self.W > window_cap:
            raise CapExceeded(
                f"window width {self.W} exceeds cap {window_cap}; tighten the "
                "localization vector or raise the cap")
        need = ((self.n + 1) * math.comb(self.W - 1, self.Lp) * BYTES_PER_STATE
                + 4 * (1 << (self.W - 1)))
        if need > MEMORY_BUDGET:
            raise CapExceeded(
                f"band DP at window width {self.W} and n = {self.n} needs about "
                f"{need / 1e9:.1f} GB, above its {MEMORY_BUDGET / 1e9:.0f} GB "
                "budget; tighten the localization vector (window_cap, "
                "--cap-window on the CLI, bounds its width)")
        self.pin_at = np.zeros(self.n + 2, dtype=np.int64)
        if pins:
            for pos, lab in pins.items():
                if not (1 <= pos <= self.n and 1 <= lab <= self.n):
                    raise ContractError(f"bad pin {pos} -> {lab}")
                self.pin_at[pos] = lab
            if len(set(pins.values())) != len(pins):
                raise ContractError("pinned particles must be distinct")
        log = p.log_dense()
        # prefix[x-1, m] = sum_{y <= m} log p[y][x]
        pref = np.zeros((self.n, self.n + 1))
        pref[:, 1:] = np.cumsum(log.T, axis=1)
        self._prefix = pref
        self._log = log
        self._lo = ell.lo
        self._hi = ell.hi
        self._fwd = None       # list of (masks, logv) per layer t = 0..n
        self._bwd = None       # list of logv arrays aligned with _fwd masks
        self._logZ = None
        self._pos = None       # int32 position table over the 2^(W-1) words

    # -- window helpers ----------------------------------------------------
    def _base(self, t: int) -> int:
        """Lowest window particle while choosing position t+1."""
        return t + 1 - self.Lp

    def _init_mask(self) -> int:
        base = self._base(0)
        m = 0
        for j in range(self.W):
            if base + j < 1:
                m |= 1 << j
        return m

    def _final_mask(self) -> int:
        base = self._base(self.n)
        m = 0
        for j in range(self.W):
            if 1 <= base + j <= self.n:
                m |= 1 << j
        return m

    def _layer_tables(self, t: int):
        """Candidates for position t+1 and their step weights, pins applied.

        Returns (slots, particles, weigh): candidate c puts particle
        particles[c] from window slot slots[c], and weigh(c, words) is the log
        weight of that placement from each word, the prefix sum plus a
        subset sum of log p[y][x] over the word's set bits read from two
        half-word tables.  The tables double in ascending bit order, so their
        entries are the same bits as when built one candidate at a time.
        """
        pos = t + 1
        base = self._base(t)
        ys = base + np.arange(self.W)
        inside = (ys >= 1) & (ys <= self.n)
        yi = ys[inside] - 1
        ok = inside.copy()
        ok[inside] = (yi + 1 - self._lo[yi] <= pos) & (pos <= yi + 1 + self._hi[yi])
        pin = self.pin_at[pos]
        if pin:
            ok &= ys == pin
        slots = np.flatnonzero(ok)
        xs = ys[slots]
        coefs = np.zeros((slots.size, self.W))
        coefs[:, inside] = self._log[yi[None, :], xs[:, None] - 1]
        coefs[np.arange(slots.size), slots] = 0.0
        wlo = self.W // 2
        tab_lo = np.zeros((slots.size, 1))
        for b in range(wlo):
            tab_lo = np.concatenate([tab_lo, tab_lo + coefs[:, b:b + 1]], axis=1)
        tab_hi = np.zeros((slots.size, 1))
        for b in range(wlo, self.W):
            tab_hi = np.concatenate([tab_hi, tab_hi + coefs[:, b:b + 1]], axis=1)
        pre = self._prefix[xs - 1, max(base - 1, 0)]
        lo_mask = (1 << wlo) - 1

        def weigh(c, words):
            return pre[c] + tab_lo[c][words & lo_mask] + tab_hi[c][words >> wlo]

        return slots.tolist(), xs, weigh

    def _positions(self, masks: np.ndarray) -> np.ndarray:
        """The position table with masks[i] -> i; other entries are stale."""
        if self._pos is None:
            self._pos = np.zeros(1 << (self.W - 1), dtype=np.int32)
        self._pos[masks] = np.arange(masks.size, dtype=np.int32)
        return self._pos

    def _distinct_words(self, dsts: list) -> np.ndarray:
        """The distinct words of the arrays dsts, in increasing order.

        Few words are sorted; many are marked in a dense array over the
        2^(W-1) window words, whose scan would dominate a small layer (a
        pinned DP, or propagate from one word).  Both give the same keys.
        """
        total = sum(d.size for d in dsts)
        if total * SORT_FRACTION < 1 << (self.W - 1):
            words = np.sort(np.concatenate([np.empty(0, dtype=np.int64)] + dsts))
            keep = np.ones(words.size, dtype=bool)
            np.not_equal(words[1:], words[:-1], out=keep[1:])
            return words[keep]
        seen = np.zeros(1 << (self.W - 1), dtype=bool)
        for dst in dsts:
            seen[dst] = True
        return np.flatnonzero(seen)

    def _advance(self, t: int, masks: np.ndarray, logv: np.ndarray):
        """Push distinct layer-t words with log weights to layer t+1.

        Returns the next layer's words in increasing order with their
        log-sum-exp weights; -inf contributions are dropped, so a word enters
        only through a path of positive weight.  A step is injective for a
        fixed slot, so each slot adds at most one contribution per word, and
        words accumulate slot by slot: per-word maxima first, then exp-sums.
        """
        slots, _, weigh = self._layer_tables(t)
        moves = []
        for c, j in enumerate(slots):
            sel = np.flatnonzero(_placeable(masks, j))
            src = masks[sel]
            vals = logv[sel] + weigh(c, src)
            finite = np.isfinite(vals)
            if not finite.all():    # needs an exact 0 in p or a -inf input
                src = src[finite]
                vals = vals[finite]
            moves.append(((src | (1 << j)) >> 1, vals))
        keys = self._distinct_words([dst for dst, _ in moves])
        pos = self._positions(keys)
        moves = [(pos[dst], vals) for dst, vals in moves]
        vmax = np.full(keys.size, NEG_INF)
        for idx, vals in moves:
            vmax[idx] = np.maximum(vmax[idx], vals)
        sums = np.zeros(keys.size)
        for idx, vals in moves:
            sums[idx] += np.exp(vals - vmax[idx])
        return keys, vmax + np.log(sums)

    # -- passes ------------------------------------------------------------
    def _forward(self):
        if self._fwd is not None:
            return self._fwd
        masks = np.array([self._init_mask()], dtype=np.int64)
        logv = np.zeros(1)
        layers = [(masks, logv)]
        for t in range(self.n):
            masks, logv = self._advance(t, masks, logv)
            if masks.size == 0:
                raise EmptySupport(
                    f"no localized completion survives past position {t + 1}")
            layers.append((masks, logv))
        self._fwd = layers
        final = self._final_mask()
        idx = np.searchsorted(layers[-1][0], final)
        if idx >= layers[-1][0].size or layers[-1][0][idx] != final:
            raise EmptySupport("no path reaches the fully placed state")
        self._logZ = float(layers[-1][1][idx])
        return layers

    def _backward(self):
        # Every forward word has positive weight, so a step of finite weight
        # always lands on a word of the next layer; a step that misses has
        # weight -inf, and so has its contribution whatever stale table entry
        # it reads (clipped into range).
        if self._bwd is not None:
            return self._bwd
        layers = self._forward()
        bwd = [None] * (self.n + 1)
        final_masks = layers[self.n][0]
        b = np.full(final_masks.size, NEG_INF)
        b[np.searchsorted(final_masks, self._final_mask())] = 0.0
        bwd[self.n] = b
        for t in range(self.n - 1, -1, -1):
            masks = layers[t][0]
            nxt_b = bwd[t + 1]
            pos = self._positions(layers[t + 1][0])
            slots, _, weigh = self._layer_tables(t)
            b = np.full(masks.size, NEG_INF)
            for c, j in enumerate(slots):
                sel = np.flatnonzero(_placeable(masks, j))
                src = masks[sel]
                dst = (src | (1 << j)) >> 1
                contrib = nxt_b.take(pos[dst], mode="clip") + weigh(c, src)
                b[sel] = np.logaddexp(b[sel], contrib)
            bwd[t] = b
        self._bwd = bwd
        return bwd

    # -- public operations ---------------------------------------------------
    def log_partition(self) -> float:
        self._forward()
        if not np.isfinite(self._logZ):
            raise EmptySupport("restricted partition function is zero")
        return self._logZ

    def forward_layer(self, t: int):
        """(masks, log forward weights) after t placements."""
        layers = self._forward()
        return layers[t]

    def backward_layer(self, t: int):
        """(masks, log completion weights) aligned with forward_layer(t)."""
        layers = self._forward()
        bwd = self._backward()
        return layers[t][0], bwd[t]

    def propagate(self, t0: int, t1: int, masks: np.ndarray, logv: np.ndarray):
        """Push an arbitrary layer-t0 vector forward to layer t1.

        masks must be distinct window words below 2^(W-1), as every layer's
        are.  Positions in (t0, t1] must respect this instance's pins; used
        to build bridge transfer sums between two cuts.
        """
        if not 0 <= t0 <= t1 <= self.n:
            raise ContractError("bad propagation range")
        masks = np.asarray(masks, dtype=np.int64)
        logv = np.asarray(logv, dtype=np.float64)
        if masks.size and (masks.min() < 0 or masks.max() >= 1 << (self.W - 1)
                           or np.unique(masks).size != masks.size):
            raise ContractError(
                f"propagate needs distinct window words below 2^{self.W - 1}")
        for t in range(t0, t1):
            masks, logv = self._advance(t, masks, logv)
        return masks, logv

    def cut_law(self, t: int):
        """Exact law of the placed-set word after t placements.

        Returns (masks, probs); the mask identifies the unordered set of the
        first t placed particles, which is the sufficient statistic of the
        prefix for everything to its right.
        """
        if not 0 <= t <= self.n:
            raise ContractError("cut position out of range")
        layers = self._forward()
        bwd = self._backward()
        masks, logv = layers[t]
        w = logv + bwd[t]
        finite = np.isfinite(w)
        masks = masks[finite]
        w = w[finite]
        w -= w.max()
        probs = np.exp(w)
        probs /= probs.sum()
        return masks, probs

    def sample_rows(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """(size, n) array of exact draws, one permutation per row.

        Rows sit on words of positive forward weight, so as in the backward
        pass a stale table entry is read only by a step of weight -inf.
        """
        layers = self._forward()
        bwd = self._backward()
        self.log_partition()
        R = size
        rows = np.empty((R, self.n), dtype=np.int64)
        cur = np.full(R, self._init_mask(), dtype=np.int64)
        for t in range(self.n):
            nxt_b = bwd[t + 1]
            pos = self._positions(layers[t + 1][0])
            slots, xs, weigh = self._layer_tables(t)
            weights = np.full((R, len(slots)), NEG_INF)
            dsts = np.empty((R, len(slots)), dtype=np.int64)
            for c, j in enumerate(slots):
                dst = (cur | (1 << j)) >> 1
                weights[:, c] = np.where(
                    _placeable(cur, j),
                    weigh(c, cur) + nxt_b.take(pos[dst], mode="clip"), NEG_INF)
                dsts[:, c] = dst
            wmax = weights.max(axis=1)
            if np.any(~np.isfinite(wmax)):
                raise AssertionError("sampler reached a dead-end state")
            probs = np.exp(weights - wmax[:, None])
            cdf = np.cumsum(probs, axis=1)
            u = rng.random(R) * cdf[:, -1]
            choice = np.minimum((u[:, None] >= cdf).sum(axis=1), len(slots) - 1)
            rows[:, t] = xs[choice]
            cur = dsts[np.arange(R), choice]
        return rows

    def sample(self, rng: np.random.Generator) -> Permutation:
        return Permutation(self.sample_rows(rng, 1)[0], _validate=False)

    def region_marginal(self, region: tuple, cap_states: int = 200000) -> DistributionTable:
        """Exact joint law of the particles at positions [region[0], region[1]]."""
        a, b = region
        if not (1 <= a <= b <= self.n):
            raise ContractError("region must be a nonempty position interval")
        layers = self._forward()
        bwd = self._backward()
        logZ = self.log_partition()
        masks, logv = layers[a - 1]
        # frontier of (mask, partial assignment) pairs
        frontier = {(int(m), ()): float(v) for m, v in zip(masks, logv)
                    if np.isfinite(v)}
        for t in range(a - 1, b):
            slots, xs, weigh = self._layer_tables(t)
            new = {}
            by_mask = {}
            for (m, asg), v in frontier.items():
                by_mask.setdefault(m, []).append((asg, v))
            for c, (j, x) in enumerate(zip(slots, xs.tolist())):
                for m, entries in by_mask.items():
                    if (m >> j) & 1:
                        continue
                    if j > 0 and not (m & 1):
                        continue
                    dw = float(weigh(c, m))
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
            if len(frontier) > cap_states:
                raise CapExceeded(
                    f"region marginal needs {len(frontier)} partial states, "
                    f"cap is {cap_states}")
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
        if not totals:
            raise EmptySupport("empty conditional support on the region")
        support = sorted(totals)
        probs = np.exp(np.array([totals[s] for s in support]))
        probs /= probs.sum()
        return DistributionTable(support, probs, logZ)


def band_dp_partition(p: BiasMatrix, ell: LocalizationVector,
                      window_cap: int = DEFAULT_WINDOW_CAP) -> float:
    """log of the stationary weight summed over the localized set."""
    return BandDP(p, ell, window_cap=window_cap).log_partition()


def band_dp_sample(p: BiasMatrix, ell: LocalizationVector,
                   rng: np.random.Generator, size: int | None = None,
                   window_cap: int = DEFAULT_WINDOW_CAP):
    """Exact draws from mu conditioned on the localized set."""
    dp = BandDP(p, ell, window_cap=window_cap)
    rows = dp.sample_rows(rng, 1 if size is None else size)
    if size is None:
        return Permutation(rows[0], _validate=False)
    return [Permutation(r, _validate=False) for r in rows]


def band_dp_conditional_marginal(p: BiasMatrix, ell: LocalizationVector,
                                 boundary: BoundaryAssignment, region: tuple,
                                 window_cap: int = DEFAULT_WINDOW_CAP,
                                 cap_states: int = 200000) -> DistributionTable:
    """Exact law of sigma(region) given the boundary pins and the localized set."""
    if not boundary.is_localized(ell):
        raise ContractError("boundary is not localized")
    a, b = region
    if not (boundary.i + 1 <= a <= b <= boundary.n - boundary.j):
        raise ContractError("region must sit inside the unpinned interior")
    dp = BandDP(p, ell, pins=boundary.values(), window_cap=window_cap)
    return dp.region_marginal(region, cap_states=cap_states)


# ---------------------------------------------------------------------------
# exact samplers and the strategy dispatcher
# ---------------------------------------------------------------------------

class EnumerationSampler:
    """Categorical draws from the fully enumerated restricted measure."""

    strategy = "enumeration"

    def __init__(self, p: BiasMatrix, ell: LocalizationVector | None):
        self.table = enumerate_stationary(p.n, p, ell, cap=max(ENUM_SAMPLER_CAP, p.n))
        self._rows = np.array(self.table.support, dtype=np.int64)

    def draw_rows(self, rng: np.random.Generator, size: int) -> np.ndarray:
        idx = rng.choice(len(self.table.support), size=size, p=self.table.probs)
        return self._rows[idx]


@functools.lru_cache(maxsize=32)
def _mallows_cdfs(n: int, q: float) -> tuple:
    """Read-only insertion CDFs, one per count of remaining labels (1..n).

    Returns (cdfs, table).  table is None unless one row's ranks fit a
    conversion chunk (n * n <= ROW_CHUNK_ELEMENTS); then it holds the same
    CDFs as an (n, n) array whose row pos is the CDF for n - pos remaining
    labels, padded with +inf.
    """
    phi = (1.0 - q) / q
    logphi = math.log(phi) if phi > 0 else NEG_INF
    cdfs = []
    for remaining in range(1, n + 1):
        lw = np.arange(remaining) * logphi
        w = np.exp(lw - lw.max())
        cdf = np.cumsum(w) / w.sum()
        cdf.setflags(write=False)
        cdfs.append(cdf)
    table = None
    if n * n <= ROW_CHUNK_ELEMENTS:
        table = np.full((n, n), math.inf)
        for pos in range(n):
            table[pos, :n - pos] = cdfs[n - pos - 1]
        table.setflags(write=False)
    return tuple(cdfs), table


class MallowsRejectionSampler:
    """Insertion sampling for constant-bias instances, rejecting off-band draws.

    The sequential rank construction puts the g-th smallest remaining label at
    each position with probability proportional to phi^g, phi = (1-q)/q, which
    reproduces weights phi^(inversion count).  Draws violating the
    localization window are rejected, so accepted draws are exact conditional
    samples.  Acceptance is near 1 for windows wider than the displacement
    scale; a try cap guards degenerate combinations.
    """

    strategy = "mallows-rejection"
    _MAX_TRIES = 400
    _TOO_LOW = ("rejection sampler acceptance too low for this localization; "
                "use the band DP sampler")

    def __init__(self, n: int, q: float, ell: LocalizationVector | None):
        self.n = n
        self.q = q
        self.ell = ell
        if q <= 0.0 or q >= 1.0:
            self._degenerate = np.arange(1, n + 1) if q == 1.0 else np.arange(n, 0, -1)
            self._cdfs = self._table = None
        else:
            self._degenerate = None
            self._cdfs, self._table = _mallows_cdfs(n, q)

    def _rows_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        """One insertion permutation per row of a (size, n) block of uniforms.

        A chunk whose (size, n, n) comparison fits ROW_CHUNK_ELEMENTS takes
        all ranks at once from the padded table: the count of CDF entries
        <= u is searchsorted(side="right") on the sorted CDF, and the +inf
        padding counts for none.  Larger chunks search column by column.
        """
        size, n = u.shape
        if size * n * n <= ROW_CHUNK_ELEMENTS:
            ranks = (self._table <= u[:, :, None]).sum(axis=2)
        else:
            ranks = np.empty((n, size), dtype=np.int64)
            for pos, col in enumerate(u.T):
                ranks[pos] = self._cdfs[n - pos - 1].searchsorted(col, side="right")
            ranks = ranks.T
        rows = np.empty((size, n), dtype=np.int64)
        for r, rk in enumerate(ranks):
            avail = list(range(1, n + 1))
            rows[r] = [avail.pop(k) for k in rk.tolist()]
        return rows

    def _accept(self, rows: np.ndarray) -> np.ndarray:
        if self.ell is None:
            return np.ones(len(rows), dtype=bool)
        return localized_rows(rows, self.ell)

    def draw_rows(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """size accepted rows.

        Each try draws uniforms for a full batch, so the stream does not
        depend on acceptance, but turns them into rows only in chunks, in
        order, until the accepted rows suffice.
        """
        if self._degenerate is not None:
            # the only row there is: accepted always or never
            rows = np.tile(self._degenerate, (size, 1))
            if not np.all(self._accept(rows)):
                raise CapExceeded(self._TOO_LOW)
            return rows
        out = np.empty((size, self.n), dtype=np.int64)
        chunk = max(1, ROW_CHUNK_ELEMENTS // self.n)
        got = 0
        tries = 0
        while got < size:
            if tries >= self._MAX_TRIES:
                raise CapExceeded(self._TOO_LOW)
            batch = max(32, int((size - got) * 1.1))
            u = rng.random((batch, self.n))
            start = 0
            while start < batch and got < size:
                stop = min(batch, start + size - got, start + chunk)
                rows = self._rows_from_uniforms(u[start:stop])
                keep = rows[self._accept(rows)]
                take = min(len(keep), size - got)
                out[got:got + take] = keep[:take]
                got += take
                start = stop
            tries += 1
        return out


class BandDPSampler:
    strategy = "band-dp"

    def __init__(self, p: BiasMatrix, ell: LocalizationVector,
                 window_cap: int = DEFAULT_WINDOW_CAP):
        self.dp = BandDP(p, ell, window_cap=window_cap)

    def draw_rows(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.dp.sample_rows(rng, size)


def exact_localized_sampler(p: BiasMatrix, ell: LocalizationVector | None,
                            window_cap: int = DEFAULT_WINDOW_CAP):
    """Pick an exact sampler for mu(. | localized set).

    Preference order: full enumeration at tiny n, the band DP when the window
    is narrow, insertion-plus-rejection for constant-bias instances, then the
    band DP up to the hard window cap.  Raises CapExceeded when nothing exact
    is feasible (there is no general-purpose unrestricted exact sampler at
    large n).
    """
    n = p.n
    if n <= ENUM_SAMPLER_CAP:
        return EnumerationSampler(p, ell)
    q = p.constant_q()
    if ell is not None:
        W = ell.l_max_minus + ell.l_max_plus + 1
        if W <= FAST_WINDOW:
            return BandDPSampler(p, ell, window_cap=window_cap)
        if q is not None:
            return MallowsRejectionSampler(n, q, ell)
        if W <= window_cap:
            return BandDPSampler(p, ell, window_cap=window_cap)
        raise CapExceeded(
            f"window width {W} exceeds cap {window_cap} and the instance is not "
            "constant-bias; no exact sampler available")
    if q is not None:
        return MallowsRejectionSampler(n, q, None)
    raise CapExceeded(
        "no exact sampler for a non-constant instance without a localization "
        "window at this size; run the chain instead")


def heat_bath_block_sample(sigma: Permutation, block: tuple, p: BiasMatrix,
                           ell: LocalizationVector | None,
                           rng: np.random.Generator) -> Permutation:
    """Resample sigma on the interval block from the conditional measure.

    The complement assignment is turned into a boundary, the interior is
    relabeled to a standalone instance (which stays epsilon-positively
    biased), an exact conditional draw is taken there, and the draw is
    embedded back.  sigma outside the block is untouched.
    """
    rows = heat_bath_block_rows(sigma, block, p, ell, rng, 1)
    return Permutation(rows[0], _validate=False)


def heat_bath_block_rows(sigma: Permutation, block: tuple, p: BiasMatrix,
                         ell: LocalizationVector | None,
                         rng: np.random.Generator, size: int) -> np.ndarray:
    a, b = block
    n = sigma.n
    if not (1 <= a <= b <= n):
        raise ContractError("block must be a nonempty position interval")
    if ell is not None and not is_localized(sigma, ell):
        raise ContractError("state is outside the localized set")
    boundary = BoundaryAssignment.from_permutation(sigma, a - 1, n - b)
    sub_p, sub_ell, r = restrict_instance(boundary, p, ell)
    sub_rows = exact_localized_sampler(sub_p, sub_ell).draw_rows(rng, size)
    rows = np.tile(sigma.forward, (size, 1))
    rows[:, a - 1:b] = r[sub_rows - 1]
    return rows
