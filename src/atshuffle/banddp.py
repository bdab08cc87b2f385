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
from collections import OrderedDict

import numpy as np

from .errors import CapExceeded, ContractError, EmptySupport
from .measure import MEMORY_BUDGET, DistributionTable, enumerate_stationary
from .perms import (BiasMatrix, BoundaryAssignment, LocalizationVector,
                    Permutation, _is_integer, is_localized, localized_rows,
                    restrict_instance)

DEFAULT_WINDOW_CAP = 22
FAST_WINDOW = 16
ENUM_SAMPLER_CAP = 7
# the rejection sampler turns at most this many uniforms into rows at a time,
# which bounds its temporaries to about 1 MB each
ROW_CHUNK_ELEMENTS = 1 << 17
# a chunk of at least this many rows decodes its labels as one slab, a
# smaller one row by row; both take their ranks from
# MallowsRejectionSampler._ranks.  The slab wins from about 32-48 rows at
# n = 20-300, but its cost per row grows as n^2 against the row loop's n, and
# at the rows of a full chunk it loses from about n = 900; a chunk holds at
# most ROW_CHUNK_ELEMENTS // n rows, so 160 confines the slab to n <= 819,
# where it is 1.2-7x faster (2-core Xeon, numpy 2.4)
SLAB_MIN_ROWS = 160
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

    Any window will do, admissible or not: the layers need only that each
    particle's window lies within Lm below and Lp above its home, and each
    placement checks the placed particle's own window.

    Every layer word has exactly Lp set bits among its low W - 1 bits, so a
    layer holds at most C(W - 1, Lp) words; the constructor refuses instances
    whose layers would not fit MEMORY_BUDGET.
    """

    def __init__(self, p: BiasMatrix, ell: LocalizationVector,
                 pins: dict | None = None, window_cap: int = DEFAULT_WINDOW_CAP):
        if p.n != ell.n:
            raise ContractError("size mismatch between bias matrix and localization")
        self.n = p.n
        self.p = p
        self.ell = ell
        self.Lm = ell.l_max_minus
        self.Lp = ell.l_max_plus
        self.W = self.Lm + self.Lp + 1
        if self.W > window_cap:
            raise CapExceeded(
                f"window width {self.W} exceeds cap {window_cap}; tighten the "
                "localization vector or raise cap_window (--cap-window on the "
                f"CLI) to {self.W}")
        # the layers and the position table
        self.need_bytes = ((self.n + 1) * math.comb(self.W - 1, self.Lp)
                           * BYTES_PER_STATE + 4 * (1 << (self.W - 1)))
        if self.need_bytes > MEMORY_BUDGET:
            raise CapExceeded(
                f"band DP at window width {self.W} and n = {self.n} needs about "
                f"{self.need_bytes / 1e9:.1f} GB, above its "
                f"{MEMORY_BUDGET / 1e9:.0f} GB budget; tighten the localization "
                "vector (window_cap, --cap-window on the CLI, bounds its width)")
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
        half-word tables.  Each table doubles in place in ascending bit
        order: entries 2^k .. 2^(k+1) - 1 are entries 0 .. 2^k - 1 plus bit
        k's coefficient, the same bits as when built one candidate at a time.
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
        tabs = []
        for start, stop in ((0, wlo), (wlo, self.W)):
            tab = np.zeros((slots.size, 1 << (stop - start)))
            for k in range(stop - start):
                np.add(tab[:, :1 << k], coefs[:, start + k, None],
                       out=tab[:, 1 << k:2 << k])
            tabs.append(tab)
        tab_lo, tab_hi = tabs
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
        """Log completion weights per layer, aligned with the forward words.

        A step of finite weight from a layer-t word lands on a word of layer
        t+1; one that misses has weight -inf, and so has its completion,
        whatever stale position-table entry it reads (clipped).
        """
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
            pos = self._positions(layers[t + 1][0])
            b = np.full(masks.size, NEG_INF)
            for _, _, sel, dst, dw in self._moves(t, masks):
                b[sel] = np.logaddexp(b[sel],
                                      dw + bwd[t + 1].take(pos[dst], mode="clip"))
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

        Forward filtering, backward sampling (Carter and Kohn, Biometrika 81,
        1994): each draw starts at the end word of layer n and, for t = n-1
        down to 0, picks a layer-t predecessor of its word d and the
        placement that leads from it, with probability proportional to the
        predecessor's forward weight times the step's weight.  The
        predecessor inverts one placement: slot 0 leaves d << 1, and slot
        j >= 1, when bit j-1 of d is set, ((d ^ 2^(j-1)) << 1) | 1.  One
        that is no word of layer t (found through the position table with
        the stale-entry check) has weight zero.  Each layer reads one
        uniform per draw, so a row reads n; no backward pass is built.
        """
        check_draw_size(size)
        if size == 0:
            return np.empty((0, self.n), dtype=np.int64)
        layers = self._forward()
        self.log_partition()
        rows = np.empty((size, self.n), dtype=np.int64)
        cur = np.full(size, self._end_word, dtype=np.int64)
        for t in range(self.n - 1, -1, -1):
            masks, logv = layers[t]
            pos = self._positions(masks)
            slots, xs, weigh = self._layer_tables(t)
            # one row per candidate; a draw's entry is -inf where the
            # candidate leads to its word from no layer-t word
            weights = np.empty((len(slots), size))
            preds = np.empty((len(slots), size), dtype=np.int64)
            for c, j in enumerate(slots):
                if j == 0:
                    w, hit = cur << 1, True
                else:
                    w = ((cur ^ (1 << (j - 1))) << 1) | 1
                    hit = (cur >> (j - 1)) & 1 == 1
                idx = pos.take(w, mode="clip")
                hit = hit & (masks.take(idx, mode="clip") == w)
                weights[c] = np.where(hit, logv.take(idx, mode="clip")
                                      + weigh(c, w), NEG_INF)
                preds[c] = w
            wmax = weights.max(axis=0)
            if np.any(~np.isfinite(wmax)):
                raise AssertionError("sampler reached a dead-end state")
            cdf = np.cumsum(np.exp(weights - wmax), axis=0)
            u = rng.random(size) * cdf[-1]
            choice = np.minimum((u >= cdf).sum(axis=0), len(slots) - 1)
            rows[:, t] = np.take(xs, choice)
            cur = preds[choice, np.arange(size)]
        return rows

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
    return DistributionTable._trusted(rows[keys], probs, logZ)


def band_dp_partition(p: BiasMatrix, ell: LocalizationVector,
                      window_cap: int = DEFAULT_WINDOW_CAP) -> float:
    """log of the stationary weight summed over the localized set."""
    return BandDP(p, ell, window_cap=window_cap).log_partition()


def band_dp_sample(p: BiasMatrix, ell: LocalizationVector,
                   rng: np.random.Generator, size: int | None = None,
                   window_cap: int = DEFAULT_WINDOW_CAP):
    """Exact draws from mu conditioned on the localized set."""
    if size is not None:
        check_draw_size(size)
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
        check_draw_size(size)
        idx = rng.choice(len(self.table), size=size, p=self.table.probs)
        return self.table.support[idx]


def _slab_rows(ranks: np.ndarray) -> np.ndarray:
    """Rows of labels 1..n from an (n, size) array of insertion ranks.

    Rank k at position i is the index of its label among the labels not
    placed before i.  Decoding right to left, the suffix from i + 1 on holds
    the 0-based label indices among the labels left after i; inserting
    position i's pick shifts every index at or above it by one.  Each step
    is one numpy call over the whole (n - i, size) slab, in the smallest
    unsigned dtype that holds n - 1.
    """
    n = ranks.shape[0]
    v = np.ascontiguousarray(ranks, dtype=np.min_scalar_type(n - 1))
    for i in range(n - 2, -1, -1):
        tail = v[i + 1:]
        tail += tail >= v[i]
    rows = v.T.astype(np.int64, order="C")
    rows += 1
    return rows


def _skip_doubles(rng: np.random.Generator, tail: np.ndarray) -> None:
    """Move rng past tail.size uniforms, as if it had filled tail with them.

    A PCG64 jumps ahead, one step per double (O'Neill's O(log k) advance),
    and then gets back the buffered 32-bit half that advance clears; any
    other bit generator fills tail and the values are discarded.
    """
    bg = rng.bit_generator
    if type(bg) is not np.random.PCG64:
        rng.random(out=tail)
        return
    before = bg.state
    bg.advance(tail.size)
    if before["has_uint32"]:
        after = bg.state
        after["has_uint32"] = before["has_uint32"]
        after["uinteger"] = before["uinteger"]
        bg.state = after


class MallowsRejectionSampler:
    """Insertion sampling for constant-bias instances, rejecting off-band draws.

    The sequential rank construction puts the g-th smallest remaining label at
    each position with probability proportional to phi^g, phi = (1-q)/q, which
    reproduces weights phi^(inversion count).  Draws violating the
    localization window are rejected, so accepted draws are exact conditional
    samples.  Acceptance is near 1 for windows wider than the displacement
    scale; a try cap guards degenerate combinations.  When rejection gives
    up, fallback (a function of no arguments) builds the sampler that draws
    in its place from then on, and strategy becomes its strategy; without
    one, giving up is a CapExceeded.

    Labels the window forces home are put back, not drawn: the leading run
    of labels with hi = 0 sits at positions 1, 2, ..., and the trailing run
    with lo = 0 at n, n - 1, ....  They form no inversion, so the labels
    between them keep the Mallows law in their own truncated window.  Rows
    of those labels are filled west to east, and a single row stops at its
    first placement outside the window.
    """

    strategy = "mallows-rejection"
    _MAX_TRIES = 400

    def __init__(self, n: int, q: float, ell: LocalizationVector | None,
                 fallback=None):
        self.n = n
        self.q = q
        self.ell = ell
        self._fallback = fallback
        self._instead = None
        # the drawn labels are west + 1 .. west + m, in the window of their
        # own instance; the others sit at home
        self._west, m = 0, n
        self._window = None
        if ell is not None:
            self._west = int(np.logical_and.accumulate(ell.hi == 0).sum())
            east = int(np.logical_and.accumulate(
                ell.lo[self._west:][::-1] == 0).sum())
            m = n - self._west - east
            k = np.arange(m)
            drawn = slice(self._west, self._west + m)
            self._window = LocalizationVector._trusted(
                np.minimum(ell.lo[drawn], k), np.minimum(ell.hi[drawn], k[::-1]))
        self._m = m
        if m == 0 or q <= 0.0 or q >= 1.0:
            self._degenerate = np.arange(1, m + 1) if q == 1.0 else np.arange(m, 0, -1)
            return
        self._degenerate = None
        logphi = math.log((1.0 - q) / q)
        # the largest rank at each position, m - 1 for m labels left
        self._top = np.arange(m - 1, -1, -1, dtype=np.float64)
        # the scale of each position's inverse CDF: phi^m - 1 at phi < 1,
        # phi^-m - 1 at phi > 1 (phi^m itself overflows there), or m at
        # phi = 1, where the ranks are uniform and there is no log to take
        ms = self._top + 1
        self._spread = np.expm1(-ms * abs(logphi)) if logphi else ms
        self._rate = 1.0 / logphi if logphi else None
        labels = np.arange(1, m + 1)
        if self._window is None:
            lo, hi = labels - 1, m - labels
        else:
            lo, hi = self._window.lo, self._window.hi
        # each label's first and last allowed position, indexed by the label
        self._first = [0, *(labels - lo).tolist()]
        self._last = [0, *(labels + hi).tolist()]

    def _slab(self, u: np.ndarray) -> np.ndarray:
        """The rows of a (size, m) block of uniforms that stay in the window:
        ranked by _ranks, decoded as one slab and then checked whole."""
        ranks = self._ranks(u).T.astype(np.min_scalar_type(u.shape[1] - 1),
                                        order="C")
        rows = _slab_rows(ranks)
        if self._window is None:
            return rows
        return rows[localized_rows(rows, self._window)]

    def _single_rows(self, u: np.ndarray, need: int) -> tuple:
        """The first need rows of a (size, m) block of uniforms that stay in
        the window, decoded one at a time, and the count of rows read."""
        rows = []
        for read, ranks in enumerate(self._ranks(u).tolist(), 1):
            row = self._place(ranks)
            if row is not None:
                rows.append(row)
                if len(rows) == need:
                    return rows, read
        return rows, len(u)

    def _place(self, ranks: list) -> list | None:
        """The labels that ranks picks, position by position; None at the
        first label placed outside its window."""
        first = self._first
        last = self._last
        avail = list(range(1, self._m + 1))
        row = []
        for pos, k in enumerate(ranks, 1):
            label = avail.pop(k)
            if not first[label] <= pos <= last[label]:
                return None
            row.append(label)
        return row

    def _ranks(self, u: np.ndarray) -> np.ndarray:
        """The (size, m) ranks of a block of uniforms, in O(size m).

        With m labels left, rank g has probability proportional to phi^g, a
        truncated-geometric law, and a rank is its inverse CDF at u:
        floor(log1p(u (phi^m - 1)) / log phi), which at phi > 1 is taken as
        floor(m + log1p((1 - u) (phi^-m - 1)) / log phi) so that phi^m does
        not overflow, or floor(u m) at phi = 1, clipped into [0, m - 1].
        """
        if self._rate is None:
            guess = u * self._spread
        elif self._rate < 0:
            guess = np.log1p(u * self._spread)
            guess *= self._rate
        else:
            # u = 0 takes log1p(-1) = -inf where phi^-m underflows: rank 0
            with np.errstate(divide="ignore"):
                guess = np.log1p((1.0 - u) * self._spread)
            guess *= self._rate
            guess += self._top
            guess += 1.0
        np.floor(guess, out=guess)
        # fmin and fmax take the bound in place of a NaN guess
        np.fmin(guess, self._top, out=guess)
        return np.fmax(guess, 0, out=guess).astype(np.intp)

    def draw_rows(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """size accepted rows.

        Each try owns the uniforms of a full batch of the stream, so the
        stream does not depend on acceptance, but generates and decodes them
        only in order, until the accepted rows suffice, and then moves rng
        past the rest (_skip_doubles).  SLAB_MIN_ROWS or more rows still
        needed, within a chunk, are decoded as one slab, fewer one row at a
        time; a try's first row is decoded alone, as most windows accept
        most rows.  A window that forces every label home draws no uniform.
        """
        check_draw_size(size)
        if self._instead is not None:
            return self._instead.draw_rows(rng, size)
        if self._degenerate is not None:
            # the only row there is: accepted always or never
            rows = np.tile(self._degenerate, (size, 1))
            if self._window is not None and not np.all(
                    localized_rows(rows, self._window)):
                return self._give_up(rng, size)
            return self._put_back(rows)
        m = self._m
        out = np.empty((size, m), dtype=np.int64)
        chunk = max(1, ROW_CHUNK_ELEMENTS // m)
        # the first try's batch is the largest
        buf = np.empty((max(32, int(size * 1.1)), m))
        got = 0
        tries = 0
        while got < size:
            if tries >= self._MAX_TRIES:
                return self._give_up(rng, size)
            batch = max(32, int((size - got) * 1.1))
            u = buf[:batch]
            start = filled = 0
            while start < batch and got < size:
                stop = min(batch, start + chunk)
                slab = min(stop - start, size - got) >= SLAB_MIN_ROWS
                if slab:
                    stop = min(stop, start + size - got)
                elif start == 0:
                    stop = 1
                rng.random(out=u[filled:stop])
                filled = stop
                if slab:
                    rows = self._slab(u[start:stop])
                else:
                    rows, used = self._single_rows(u[start:stop], size - got)
                    stop = start + used
                if len(rows):
                    out[got:got + len(rows)] = rows
                    got += len(rows)
                start = stop
            if filled < batch:
                _skip_doubles(rng, u[filled:])
            tries += 1
        return self._put_back(out)

    def _put_back(self, rows: np.ndarray) -> np.ndarray:
        """Rows of all n labels from rows of the drawn ones, with the forced
        labels at home."""
        if self._m == self.n:
            return rows
        full = np.tile(np.arange(1, self.n + 1), (len(rows), 1))
        full[:, self._west:self._west + self._m] = rows + self._west
        return full

    def _give_up(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """All size rows from the fallback sampler, which draws from now on."""
        if self._fallback is None:
            # only a window rejects, so there is one
            W = self.ell.l_max_minus + self.ell.l_max_plus + 1
            raise CapExceeded(
                "rejection sampler acceptance too low for this localization, "
                f"and its window width {W} is above the band DP's cap; widen "
                f"ell, or raise cap_window (--cap-window on the CLI) to {W}")
        self._instead = self._fallback()
        self.strategy = self._instead.strategy
        return self._instead.draw_rows(rng, size)


def check_draw_size(size) -> None:
    """Refuse a draw count that is not an integer >= 0 with ContractError."""
    if not _is_integer(size) or size < 0:
        raise ContractError(f"size must be an integer >= 0, got {size!r}")


def check_draw_memory(size: int, n: int, key: str) -> None:
    """Raise CapExceeded, naming the config key, if size draws of n labels
    need more than measure.MEMORY_BUDGET bytes: 8 for each int64 label and
    8 for the uniform or weight it is drawn from."""
    need = 16 * size * n
    if need > MEMORY_BUDGET:
        raise CapExceeded(
            f"{key} = {size} draws at n = {n} need about {need / 1e9:.1f} GB, "
            f"above the {MEMORY_BUDGET / 1e9:.0f} GB budget "
            f"(measure.MEMORY_BUDGET); lower {key}")


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
    is narrow, insertion-plus-rejection for constant-bias instances (falling
    back on the band DP, within the window cap, if rejection gives up), then
    the band DP up to the window cap.  Raises CapExceeded when nothing exact
    is feasible (there is no general-purpose unrestricted exact sampler at
    large n).
    """
    n = p.n
    if ell is not None and ell.n != n:
        raise ContractError(f"ell has {ell.n} entries, but the instance has "
                            f"n = {n}")
    if n <= ENUM_SAMPLER_CAP:
        return EnumerationSampler(p, ell)
    q = p.constant_q()
    if ell is not None:
        W = ell.l_max_minus + ell.l_max_plus + 1
        if W <= FAST_WINDOW:
            return BandDPSampler(p, ell, window_cap=window_cap)
        if q is not None:
            fallback = None
            if W <= window_cap:
                fallback = functools.partial(BandDPSampler, p, ell,
                                             window_cap=window_cap)
            return MallowsRejectionSampler(n, q, ell, fallback)
        if W <= window_cap:
            return BandDPSampler(p, ell, window_cap=window_cap)
        raise CapExceeded(
            f"window width {W} exceeds cap {window_cap} and the instance is not "
            "constant-bias; no exact sampler available: tighten ell, or raise "
            f"cap_window (--cap-window on the CLI) to {W}")
    if q is not None:
        return MallowsRejectionSampler(n, q, None)
    raise CapExceeded(
        "no exact sampler for a non-constant instance without a localization "
        "window at this size; run the chain instead")


class SamplerCache:
    """Exact samplers of the sub-instances that the heat-bath block updates
    of one instance (p, ell) meet, least recently used first.

    Once p and ell are fixed, a block's start a and its interior labels in
    increasing order, r, fix its sub-instance: sub_p = p.submatrix(r) and
    the window induced with i = a - 1.  So an entry is keyed by (a, r) and
    holds the sampler.  The entries take at most measure.MEMORY_BUDGET
    bytes, counting the one being added: a band DP at its constructor's
    estimate, any other sampler at the nbytes of its arrays.  A chain run
    owns its cache, so worker processes share nothing.
    """

    def __init__(self):
        self._entries = OrderedDict()   # key -> (sampler, bytes)
        self.nbytes = 0                 # the entries' bytes
        self._instance = None
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def bind(self, p: BiasMatrix, ell: LocalizationVector | None) -> None:
        """Serve (p, ell) from now on; refuse any other instance."""
        if self._instance is None:
            self._instance = (p, ell)
        elif self._instance[0] is not p or self._instance[1] is not ell:
            raise ContractError("a sampler cache serves the block updates of "
                                "one instance (p, ell)")

    def get(self, key: tuple):
        """The sampler under key, now the most recently used, or None."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return entry[0]

    def put(self, key: tuple, sampler) -> None:
        """Add sampler under key, evicting the least recently used entries
        until it fits; one that does not fit alone is not kept."""
        if isinstance(sampler, BandDPSampler):
            size = sampler.dp.need_bytes
        elif isinstance(sampler, EnumerationSampler):
            size = sampler.table.support.nbytes + sampler.table.probs.nbytes
        else:
            size = sum(v.nbytes for v in vars(sampler).values()
                       if isinstance(v, np.ndarray))
        size += len(key[1])
        while self._entries and self.nbytes + size > MEMORY_BUDGET:
            self.nbytes -= self._entries.popitem(last=False)[1][1]
        if size <= MEMORY_BUDGET:
            self._entries[key] = (sampler, size)
            self.nbytes += size

    def drop(self, key: tuple) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.nbytes -= entry[1]


def heat_bath_block_sample(sigma: Permutation, block: tuple, p: BiasMatrix,
                           ell: LocalizationVector | None,
                           rng: np.random.Generator,
                           cache: SamplerCache | None = None) -> Permutation:
    """Resample sigma on the interval block from the conditional measure.

    The complement assignment is turned into a boundary, the interior is
    relabeled to a standalone instance (which stays epsilon-positively
    biased), an exact conditional draw is taken there, and the draw is
    embedded back.  sigma outside the block is untouched.
    """
    rows = heat_bath_block_rows(sigma, block, p, ell, rng, 1, cache)
    return Permutation(rows[0], _validate=False)


def heat_bath_block_rows(sigma: Permutation, block: tuple, p: BiasMatrix,
                         ell: LocalizationVector | None,
                         rng: np.random.Generator, size: int,
                         cache: SamplerCache | None = None) -> np.ndarray:
    """size heat-bath draws of sigma on block, one row each.

    The sub-instance's sampler comes from cache, which a chain run keeps
    across its updates; without one the update builds its sampler afresh.
    The draws do not depend on which: a sampler keeps no state between
    draws but its deterministic tables, except a rejection sampler that
    gives up, which is dropped, so the next update pays its tries again.
    """
    a, b = block
    n = sigma.n
    if not (1 <= a <= b <= n):
        raise ContractError("block must be a nonempty position interval")
    check_draw_size(size)
    if ell is not None and not is_localized(sigma, ell):
        raise ContractError("state is outside the localized set")
    if cache is None:
        cache = SamplerCache()
    cache.bind(p, ell)
    r = np.sort(sigma.forward[a - 1:b])
    key = (a, r.tobytes())
    sampler = cache.get(key)
    if sampler is None:
        boundary = BoundaryAssignment.from_permutation(sigma, a - 1, n - b)
        sub_p, sub_ell, _ = restrict_instance(boundary, p, ell)
        sampler = exact_localized_sampler(sub_p, sub_ell)
        cache.put(key, sampler)
    strategy = sampler.strategy
    sub_rows = sampler.draw_rows(rng, size)
    if sampler.strategy != strategy:
        cache.drop(key)
    rows = np.tile(sigma.forward, (size, 1))
    rows[:, a - 1:b] = r[sub_rows - 1]
    return rows
