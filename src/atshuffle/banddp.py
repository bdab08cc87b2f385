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
        # the word before the first placement and after the last: every
        # layer word has exactly Lp set bits, and at either end they are the
        # lowest Lp slots (particles below 1, or the last Lp particles)
        self._end_word = (1 << self.Lp) - 1

    # -- window helpers ----------------------------------------------------
    def _base(self, t: int) -> int:
        """Lowest window particle while choosing position t+1."""
        return t + 1 - self.Lp

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

        return slots.tolist(), xs.tolist(), weigh

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
        pinned DP).  Both give the same keys.
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

    def _moves(self, t: int, words: np.ndarray):
        """The placements at position t+1 from layer-t words.

        Yields (j, x, sel, dst, dw) for each candidate that some word can
        place: sel indexes the words that can place particle x from window
        slot j next, dst holds their next words and dw the log weights of
        those steps.  A step is injective for a fixed candidate.
        """
        slots, xs, weigh = self._layer_tables(t)
        for c, j in enumerate(slots):
            sel = _placeable(words, j).nonzero()[0]
            if sel.size:
                src = words[sel]
                yield j, xs[c], sel, (src | (1 << j)) >> 1, weigh(c, src)

    def _advance(self, t: int, masks: np.ndarray, logv: np.ndarray):
        """Push distinct layer-t words with log weights to layer t+1.

        Returns the next layer's words in increasing order with their
        log-sum-exp weights; -inf contributions are dropped, so a word enters
        only through a path of positive weight.  Each candidate adds at most
        one contribution per word, and words accumulate candidate by
        candidate: per-word maxima first, then exp-sums.
        """
        moves = []
        for _, _, sel, dst, dw in self._moves(t, masks):
            vals = logv[sel] + dw
            finite = np.isfinite(vals)
            if not finite.all():    # needs an exact 0 in p or a -inf input
                dst = dst[finite]
                vals = vals[finite]
            moves.append((dst, vals))
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

    def _tagged_step(self, t: int, tags: np.ndarray, words: np.ndarray,
                     logv: np.ndarray, rows: np.ndarray | None = None):
        """Push (tag, word) entries with log weights from layer t to t+1.

        Returns (tags, words, logv, rows), sorted by tag, then word; entries
        that meet merge by log-sum-exp, those of weight zero drop out.
        Without rows each entry keeps its tag.  rows holds one row of placed
        particles per tag: a step appends the particle it places and
        renumbers the tags to the distinct new rows in increasing order.
        """
        span = 1 << (self.W - 1)
        keys, vals = [], []
        for _, x, sel, dst, dw in self._moves(t, words):
            tag = tags[sel] if rows is None else tags[sel] * (self.n + 1) + x
            keys.append(tag * span + dst)
            vals.append(logv[sel] + dw)
        keys, logv = _merge(np.concatenate(keys), np.concatenate(vals))
        tags, words = np.divmod(keys, span)
        if rows is not None:
            codes, tags = np.unique(tags, return_inverse=True)
            rows = np.column_stack([rows[codes // (self.n + 1)],
                                    codes % (self.n + 1)])
        return tags, words, logv, rows

    # -- passes ------------------------------------------------------------
    def _forward(self):
        if self._fwd is not None:
            return self._fwd
        masks = np.array([self._end_word], dtype=np.int64)
        logv = np.zeros(1)
        layers = [(masks, logv)]
        for t in range(self.n):
            masks, logv = self._advance(t, masks, logv)
            if masks.size == 0:
                raise EmptySupport(
                    f"no localized completion survives past position {t + 1}")
            layers.append((masks, logv))
        self._fwd = layers
        idx = np.searchsorted(layers[-1][0], self._end_word)
        if idx >= layers[-1][0].size or layers[-1][0][idx] != self._end_word:
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
        b[np.searchsorted(final_masks, self._end_word)] = 0.0
        bwd[self.n] = b
        for t in range(self.n - 1, -1, -1):
            masks = layers[t][0]
            nxt_b = bwd[t + 1]
            pos = self._positions(layers[t + 1][0])
            b = np.full(masks.size, NEG_INF)
            for _, _, sel, dst, dw in self._moves(t, masks):
                contrib = nxt_b.take(pos[dst], mode="clip") + dw
                b[sel] = np.logaddexp(b[sel], contrib)
            bwd[t] = b
        self._bwd = bwd
        return bwd

    def _completion(self, t: int, words: np.ndarray) -> np.ndarray:
        """Log completion weights of words reached with positive weight."""
        masks = self._forward()[t][0]
        return self._backward()[t][np.searchsorted(masks, words)]

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

    def cut_law(self, t: int) -> DistributionTable:
        """Exact law of the placed-set word after t placements.

        The rows are the words (w,) in increasing order; a word identifies the
        unordered set of the first t placed particles, which is the
        sufficient statistic of the prefix for everything to its right.
        """
        if not 0 <= t <= self.n:
            raise ContractError("cut position out of range")
        masks, logv = self._forward()[t]
        return _law(masks[:, None], np.arange(masks.size),
                    logv + self._backward()[t], self.log_partition())

    def cut_pair_law(self, t1: int, t2: int) -> DistributionTable:
        """Exact joint law of the placed-set words after t1 and t2 placements.

        The rows are the pairs (w1, w2) in increasing order.  The pass from
        t1 to t2 carries each word of layer t1 as its tag.
        """
        if not 0 <= t1 <= t2 <= self.n:
            raise ContractError("cut positions out of range")
        words, logv = self._forward()[t1]
        tags = words
        for t in range(t1, t2):
            tags, words, logv, _ = self._tagged_step(t, tags, words, logv)
        return _law(np.column_stack([tags, words]), np.arange(words.size),
                    logv + self._completion(t2, words), self.log_partition())

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
        cur = np.full(R, self._end_word, dtype=np.int64)
        for t in range(self.n):
            nxt_b = bwd[t + 1]
            pos = self._positions(layers[t + 1][0])
            moves = list(self._moves(t, cur))
            # one row per candidate some draw can place; a draw's entry
            # stays -inf where it cannot place the candidate
            weights = np.full((len(moves), R), NEG_INF)
            for c, (_, _, sel, dst, dw) in enumerate(moves):
                weights[c, sel] = dw + nxt_b.take(pos[dst], mode="clip")
            wmax = weights.max(axis=0)
            if np.any(~np.isfinite(wmax)):
                raise AssertionError("sampler reached a dead-end state")
            cdf = np.cumsum(np.exp(weights - wmax), axis=0)
            u = rng.random(R) * cdf[-1]
            choice = np.minimum((u >= cdf).sum(axis=0), len(moves) - 1)
            slot, rows[:, t] = np.array([m[:2] for m in moves])[choice].T
            cur = (cur | (1 << slot)) >> 1
        return rows

    def sample(self, rng: np.random.Generator) -> Permutation:
        return Permutation(self.sample_rows(rng, 1)[0], _validate=False)

    def region_marginal(self, region: tuple, cap_states: int = 200000) -> DistributionTable:
        """Exact joint law of the particles at positions [region[0], region[1]].

        The pass over the region tags each entry with its row of placed
        particles; cap_states bounds the (tag, word) entries of a step.
        """
        a, b = region
        if not (1 <= a <= b <= self.n):
            raise ContractError("region must be a nonempty position interval")
        logZ = self.log_partition()
        words, logv = self._forward()[a - 1]
        tags = np.zeros(words.size, dtype=np.int64)
        rows = np.zeros((1, 0), dtype=np.int64)
        for t in range(a - 1, b):
            tags, words, logv, rows = self._tagged_step(t, tags, words, logv,
                                                        rows)
            if words.size > cap_states:
                raise CapExceeded(
                    f"region marginal needs {words.size} partial states, "
                    f"cap is {cap_states}")
        logw = logv + self._completion(b, words)
        if not np.isfinite(logw).any():
            raise EmptySupport("empty conditional support on the region")
        return _law(rows, tags, logw, logZ)


def _merge(keys: np.ndarray, logv: np.ndarray):
    """Distinct keys in increasing order with the log-sum-exp of their values.

    Non-finite values drop out, so no key of weight zero is returned.
    """
    finite = np.isfinite(logv)
    keys, inv = np.unique(keys[finite], return_inverse=True)
    logv = logv[finite]
    vmax = np.full(keys.size, NEG_INF)
    np.maximum.at(vmax, inv, logv)
    sums = np.zeros(keys.size)
    np.add.at(sums, inv, np.exp(logv - vmax[inv]))
    return keys, vmax + np.log(sums)


def _law(rows: np.ndarray, keys: np.ndarray, logw: np.ndarray, logZ: float):
    """Table of rows[key] over the distinct keys, in increasing order, from
    log weights; _merge keeps the weight of a key with one entry bit for bit.
    """
    keys, logw = _merge(keys, logw)
    logw -= logw.max()
    probs = np.exp(logw)
    probs /= probs.sum()
    return DistributionTable(rows[keys], probs, logZ)


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

    def draw_rows(self, rng: np.random.Generator, size: int) -> np.ndarray:
        idx = rng.choice(len(self.table), size=size, p=self.table.probs)
        return self.table.support[idx]


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
