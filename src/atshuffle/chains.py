"""The stochastic processes and their couplings.

Two update orientations appear on purpose.  ``at_step``, the one scalar
reference of the chain and, with a localization vector, of the restricted
chain, follows the documented single-chain convention (swap iff
u < p[behind][ahead]), as do the twin chains; the coupled steps use
the order-based convention (the smaller label ends up ahead iff
u < p[low][high]).  Both produce the same one-step kernel, but only the
order-based form nests the events of the permutation chain inside the ASEP
events, which is what makes the domination couplings preserve their
invariants pathwise.

Every process is a deterministic function of a stream of UpdateDraw values;
couplings are just several consumers of one stream.  The scalar drivers (the
twin chains and the audits) read theirs from ``_audit_draws`` as plain lists,
in fixed chunks so that the stream does not depend on the horizon.
Substreams are derived from a master seed via ``derive_rng(master, *keys)``,
which feeds the integer tuple (master, key1, key2, ...) to numpy's
SeedSequence.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import random
import zlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .banddp import BandDP, heat_bath_block_sample
from .errors import CapExceeded, ContractError
from .measure import (MEMORY_BUDGET, DistributionTable, TransitionMatrix,
                      _state_rows, _swap_kernel, check_detailed_balance,
                      enumerate_stationary)
from .perms import (BiasMatrix, LocalizationVector, Permutation, inverse_rows,
                    is_localized, localized_rows)


def derive_rng(master: int, *keys: int) -> np.random.Generator:
    """Deterministic substream: SeedSequence over (master, keys...)."""
    return np.random.default_rng(np.random.SeedSequence([int(master), *map(int, keys)]))


def experiment_id(name: str) -> int:
    """Stable integer id of an experiment name (crc32)."""
    return zlib.crc32(name.encode())


@dataclass(frozen=True)
class UpdateDraw:
    """One step of shared randomness: edge index, uniform variate, step count."""

    t: int
    edge: int
    u: float

    def __post_init__(self):
        if not 0.0 <= self.u < 1.0:
            raise ContractError("u must lie in [0, 1)")
        if self.edge < 1:
            raise ContractError("edge must be >= 1")


# ---------------------------------------------------------------------------
# single-site steps
# ---------------------------------------------------------------------------

def _swap_keeps_localized(sigma: Permutation, edge: int,
                          ell: LocalizationVector) -> bool:
    """Whether swapping (edge, edge+1) keeps sigma in the localized set.

    Only the two moved particles can leave their windows, and only on the
    side they move toward.
    """
    a, b = sigma.at(edge), sigma.at(edge + 1)
    return (edge + 1 - a) <= int(ell.hi[a - 1]) and (b - edge) <= int(ell.lo[b - 1])


def at_step(sigma: Permutation, p: BiasMatrix, draw: UpdateDraw,
            ell: LocalizationVector | None = None) -> Permutation:
    """One adjacent-transposition update; swap iff u < p[behind][ahead].

    With ell, sigma must lie in the localized set, and a swap that would
    leave it is rejected in place (the restricted chain).
    """
    if not 1 <= draw.edge <= sigma.n - 1:
        raise ContractError("edge out of range")
    if ell is not None and not is_localized(sigma, ell):
        raise ContractError("state is outside the localized set")
    out = sigma.copy()
    a, b = out.at(draw.edge), out.at(draw.edge + 1)
    if draw.u < p.get(b, a) and (ell is None
                                 or _swap_keeps_localized(out, draw.edge, ell)):
        out.swap(draw.edge)
    return out


def _ordered_pair_update(sigma: Permutation, p: BiasMatrix, draw: UpdateDraw,
                         ell: LocalizationVector | None) -> Permutation:
    """Coupling-orientation update: smaller label ends ahead iff u < p[lo][hi]."""
    out = sigma.copy()
    i = draw.edge
    a, b = out.at(i), out.at(i + 1)
    lo, hi = (a, b) if a < b else (b, a)
    want_lo_ahead = draw.u < p.get(lo, hi)
    if (want_lo_ahead and a > b) or (not want_lo_ahead and a < b):
        if ell is None or _swap_keeps_localized(out, i, ell):
            out.swap(i)
    return out


# ---------------------------------------------------------------------------
# ASEP
# ---------------------------------------------------------------------------

class AsepState:
    """Occupancy vector with exactly k particles on n sites."""

    __slots__ = ("occ", "n", "k")

    def __init__(self, occ):
        arr = np.asarray(occ, dtype=np.int8).copy()
        if np.any((arr != 0) & (arr != 1)):
            raise ContractError("occupancies must be 0/1")
        self.occ = arr
        self.n = int(arr.shape[0])
        self.k = int(arr.sum())

    @classmethod
    def left_packed(cls, n: int, k: int) -> "AsepState":
        if not 0 <= k <= n:
            raise ContractError("k must lie in 0..n")
        occ = np.zeros(n, dtype=np.int8)
        occ[:k] = 1
        return cls(occ)

    @classmethod
    def right_packed(cls, n: int, k: int) -> "AsepState":
        if not 0 <= k <= n:
            raise ContractError("k must lie in 0..n")
        occ = np.zeros(n, dtype=np.int8)
        occ[n - k:] = 1
        return cls(occ)

    def prefix_counts(self) -> np.ndarray:
        return np.cumsum(self.occ)

    def to_tuple(self) -> tuple:
        return tuple(int(v) for v in self.occ)

    def copy(self) -> "AsepState":
        return AsepState(self.occ)

    def __eq__(self, other):
        if not isinstance(other, AsepState):
            return NotImplemented
        return np.array_equal(self.occ, other.occ)

    def __repr__(self):
        return f"AsepState({''.join(map(str, self.occ))})"


def eta_projection(sigma: Permutation, k: int) -> AsepState:
    """Occupancy vector marking positions holding particles with label <= k."""
    if not 1 <= k < sigma.n:
        raise ContractError("k must lie in 1..n-1")
    return AsepState((sigma.forward <= k).astype(np.int8))


def left_order_leq(Y: AsepState, Yp: AsepState) -> bool:
    """Y is (weakly) to the left of Yp: prefix counts dominate everywhere."""
    if Y.n != Yp.n or Y.k != Yp.k:
        raise ContractError("states must share n and k")
    return bool(np.all(Y.prefix_counts() >= Yp.prefix_counts()))


def asep_step(Y: AsepState, q: float, draw: UpdateDraw) -> AsepState:
    """One ASEP update: an occupied/empty edge resolves to (1,0) iff u < q."""
    if not 0.0 < q < 1.0:
        raise ContractError("q must lie in (0, 1)")
    i = draw.edge
    if not 1 <= i <= Y.n - 1:
        raise ContractError("edge out of range")
    out = Y.copy()
    a, b = out.occ[i - 1], out.occ[i]
    if a + b == 1:
        left = 1 if draw.u < q else 0
        out.occ[i - 1] = left
        out.occ[i] = 1 - left
    return out


def coupled_asep_step(Y: AsepState, Yp: AsepState, q: float,
                      draw: UpdateDraw) -> tuple:
    """Monotone coupling: both states resolve the shared edge with the same u."""
    if not left_order_leq(Y, Yp):
        raise ContractError("precondition Y <= Yp fails")
    out = (asep_step(Y, q, draw), asep_step(Yp, q, draw))
    if not left_order_leq(out[0], out[1]):
        raise AssertionError("monotone coupling violated the order")
    return out


def coupled_domination_step(sigma: Permutation, p: BiasMatrix, aseps: dict,
                            q: float, draw: UpdateDraw,
                            ell: LocalizationVector | None = None) -> tuple:
    """Advance the chain and a family {k: AsepState} on one shared draw.

    The chain uses the order-based convention, each ASEP resolves to (1,0)
    iff u < q; with q/(1-q) <= 1+eps the projections stay dominated, and the
    restricted variant (ell given) preserves the same invariant because only
    in-order pairs ever get rejected.
    """
    eps = p.epsilon
    if q / (1.0 - q) > 1.0 + eps + 1e-12:
        raise ContractError("need q/(1-q) <= 1+eps for domination")
    for k, Y in aseps.items():
        if not left_order_leq(eta_projection(sigma, k), Y):
            raise ContractError(f"precondition eta_{k} <= Y fails")
    new_sigma = _ordered_pair_update(sigma, p, draw, ell)
    new_aseps = {k: asep_step(Y, q, draw) for k, Y in aseps.items()}
    for k, Y in new_aseps.items():
        if not left_order_leq(eta_projection(new_sigma, k), Y):
            raise AssertionError(f"domination invariant broken at k={k}")
    return new_sigma, new_aseps


# ---------------------------------------------------------------------------
# ASEP stationary law
# ---------------------------------------------------------------------------

def _asep_states(n: int, k: int) -> np.ndarray:
    """The k-particle occupancy rows on n sites, in combinations order."""
    sites = np.array(list(itertools.combinations(range(n), k)), dtype=np.int64)
    occ = np.zeros((len(sites), n), dtype=np.int64)
    occ[np.arange(len(sites))[:, None], sites] = 1
    return occ


def asep_stationary(n: int, k: int, q: float,
                    cap_states: int = 500000) -> DistributionTable:
    """Exact stationary law: nu(Y) proportional to (q/(1-q))^(#(1 before 0) pairs).

    The exponent counts pairs i<j with Y(i)=1, Y(j)=0; the opposite
    orientation fails detailed balance (a single-edge check gives
    nu(1,0)/nu(0,1) = q/(1-q)), so the orientation here is fixed by an
    explicit detailed-balance verification at construction.
    """
    if not 0.0 < q < 1.0:
        raise ContractError("q must lie in (0, 1)")
    if not 0 <= k <= n:
        raise ContractError("bad particle count")
    if math.comb(n, k) > cap_states:
        raise CapExceeded(
            f"binomial({n},{k}) exceeds the state cap; use asep_rightmost_tail "
            "for tail queries")
    log_rho = math.log(q) - math.log(1.0 - q)
    occ = _asep_states(n, k)
    # pairs (1 before 0): for each particle, the holes to its right
    holes_after = np.cumsum(occ[:, ::-1] == 0, axis=1)[:, ::-1]
    logw = np.sum(occ * holes_after, axis=1) * log_rho
    m = logw.max()
    w = np.exp(logw - m)
    table = DistributionTable(occ, w / w.sum(), float(m + math.log(w.sum())))
    check_detailed_balance(asep_transition_matrix(n, k, q, table.support), table)
    return table


def asep_transition_matrix(n: int, k: int, q: float,
                           states=None) -> TransitionMatrix:
    """Exact one-step ASEP kernel on the k-particle occupancy states (rows)."""
    occ = _state_rows(_asep_states(n, k) if states is None else states)
    # a particle hops right with probability 1 - q and left with q
    table = np.array([[1.0, 1.0 - q], [q, 1.0]])
    return TransitionMatrix(occ, _swap_kernel(occ, table))


def _log_q_binomial(m: int, k: int, phi: float) -> float:
    """log Gaussian binomial [m choose k]_phi (phi in (0,1])."""
    if k < 0 or k > m:
        return -math.inf
    logphi = math.log(phi) if phi > 0 else -math.inf
    prev = np.zeros(1)
    for mm in range(1, m + 1):
        top = min(mm, k)
        cur = np.full(top + 1, -np.inf)
        cur[0] = 0.0
        for kk in range(1, top + 1):
            stay = prev[kk] if kk < prev.size else -math.inf
            add = prev[kk - 1] + (mm - kk) * logphi
            cur[kk] = np.logaddexp(stay, add)
        prev = cur
    return float(prev[k])


def asep_rightmost_tail(n: int, k: int, q: float, r: int) -> float:
    """Exact P(rightmost particle >= k + r) under the stationary law.

    Uses P(all particles within [m]) = [m choose k]_phi / [n choose k]_phi
    with phi = (1-q)/q, which follows from the pair-counting form of the
    stationary weights.
    """
    if r <= 0:
        return 1.0
    if k + r > n:
        return 0.0
    phi = (1.0 - q) / q
    log_head = _log_q_binomial(k + r - 1, k, phi)
    log_all = _log_q_binomial(n, k, phi)
    return float(-np.expm1(log_head - log_all))


# ---------------------------------------------------------------------------
# block schedules and block dynamics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockSchedule:
    """A named collection of blocks; each block is a list of position intervals."""

    kind: str
    n: int
    M: int = 0
    selection: str = "size"  # "size" per heat-bath definition, or "uniform"

    def __post_init__(self):
        if self.selection not in ("size", "uniform"):
            raise ContractError(f"unknown block selection {self.selection!r}; "
                                "choose size or uniform")

    @classmethod
    def west_east(cls, n: int, selection: str = "size") -> "BlockSchedule":
        return cls("west-east", n, 0, selection)

    @classmethod
    def interleaved(cls, n: int, M: int, selection: str = "size") -> "BlockSchedule":
        if M < 1:
            raise ContractError("segment scale M must be >= 1")
        return cls("interleaved", n, M, selection)

    @classmethod
    def single(cls, n: int, selection: str = "size") -> "BlockSchedule":
        return cls("single", n, 0, selection)

    def blocks(self) -> list:
        n, M = self.n, self.M
        if self.kind == "west-east":
            return [[(1, math.ceil(2 * n / 3))], [(max(n // 3, 1), n)]]
        if self.kind == "single":
            return [[(1, n)]]
        if self.kind == "interleaved":
            out = []
            for offsets in ((0, 4), (3, 7)):
                segs = []
                i = 0
                while True:
                    a = (6 * i + offsets[0]) * M + 1
                    b = min((6 * i + offsets[1]) * M, n)
                    if a > n:
                        break
                    segs.append((a, b))
                    i += 1
                if segs:
                    out.append(segs)
            return out
        raise ContractError(f"unknown schedule kind {self.kind}")

    def sizes(self) -> list:
        return [sum(b - a + 1 for a, b in blk) for blk in self.blocks()]

    def probabilities(self) -> np.ndarray:
        """Block selection law: size-weighted, or uniform over blocks."""
        if self.selection == "size":
            sizes = np.array(self.sizes(), dtype=np.float64)
            return sizes / sizes.sum()
        count = len(self.blocks())
        return np.full(count, 1.0 / count)

    def chi(self) -> int:
        cover = np.zeros(self.n, dtype=np.int64)
        for blk in self.blocks():
            for a, b in blk:
                cover[a - 1:b] += 1
        if np.any(cover == 0):
            raise ContractError("blocks do not cover all positions")
        return int(cover.max())


def _segments_factorize(sigma: Permutation, segments: list,
                        ell: LocalizationVector | None) -> bool:
    """Whether the window of every block occupant touches exactly one segment.

    Only then does the conditional law factorize over the segments.
    """
    if ell is None:
        return len(segments) == 1
    for a, b in segments:
        for pos in range(a, b + 1):
            lo, hi = ell.window(sigma.at(pos))
            touch = [t for t, (aa, bb) in enumerate(segments)
                     if not (hi < aa or lo > bb)]
            if len(touch) != 1:
                return False
    return True


def block_step(sigma: Permutation, schedule: BlockSchedule, p: BiasMatrix,
               ell: LocalizationVector | None, rng: np.random.Generator,
               choice: int | None = None) -> Permutation:
    """One heat-bath block update.

    A block is chosen from rng by schedule.probabilities(), unless choice
    gives its index, then its configuration is replaced by an exact draw from
    the conditional stationary law given the complement.  Multi-segment
    blocks resample segments independently when every occupant fits a single
    segment (the conditional law factorizes); otherwise the whole line is
    resampled with the complement pinned.
    """
    blocks = schedule.blocks()
    if choice is None:
        choice = int(rng.choice(len(blocks), p=schedule.probabilities()))
    segments = blocks[choice]
    if len(segments) == 1:
        return heat_bath_block_sample(sigma, segments[0], p, ell, rng)
    if _segments_factorize(sigma, segments, ell):
        out = sigma
        for seg in segments:
            out = heat_bath_block_sample(out, seg, p, ell, rng)
        return out
    # joint resample with the complement pinned (small instances only)
    if ell is None:
        raise CapExceeded("joint multi-segment resampling needs a localization window")
    in_block = set()
    for a, b in segments:
        in_block.update(range(a, b + 1))
    pins = {pos: sigma.at(pos) for pos in range(1, sigma.n + 1)
            if pos not in in_block}
    return BandDP(p, ell, pins=pins).sample(rng)


def exact_block_kernel(n: int, p: BiasMatrix, ell: LocalizationVector | None,
                       schedule: BlockSchedule,
                       mu: DistributionTable | None = None) -> TransitionMatrix:
    """Exact heat-bath block kernel by enumeration (small n).

    The kernel is built dense; above measure.MEMORY_BUDGET bytes it raises
    CapExceeded before allocating.
    """
    if mu is None:
        mu = enumerate_stationary(n, p, ell)
    S = mu.support
    need = 8 * len(S) ** 2
    if need > MEMORY_BUDGET:
        raise CapExceeded(
            f"the exact block kernel over {len(S)} states needs a dense "
            f"{need} byte array, above the {MEMORY_BUDGET} byte budget "
            "(measure.MEMORY_BUDGET); use a smaller n or a tighter "
            "localization vector")
    P = np.zeros((len(S), len(S)))
    for blk, wb in zip(schedule.blocks(), schedule.probabilities()):
        comp = np.ones(n, dtype=bool)
        for a, b in blk:
            comp[a - 1:b] = False
        # states agreeing off the block share one complement row
        _, group = np.unique(S[:, comp], axis=0, return_inverse=True)
        order = np.argsort(group, kind="stable")
        cuts = np.flatnonzero(np.diff(group[order])) + 1
        for members in np.split(order, cuts):
            probs = mu.probs[members]
            P[np.ix_(members, members)] += wb * (probs / probs.sum())
    out = TransitionMatrix(S, sp.csr_matrix(P))
    check_detailed_balance(out, mu)
    out.reversible = True
    return out


# ---------------------------------------------------------------------------
# twin-chain couplings
# ---------------------------------------------------------------------------

def twin_chain_coupling_run(x0a: Permutation, x0b: Permutation, p: BiasMatrix,
                            ell: LocalizationVector | None, T: int, seed: int,
                            driver: str = "at",
                            schedule: BlockSchedule | None = None):
    """Run two chains on identical draws; return the first meeting time.

    Returns (t, aux) with t = None on timeout.  The at driver applies
    ``at_step``'s rule to both chains, on the ``_audit_draws`` stream and
    restricted when ell is given.  For the block driver each step gets its
    own derived substream, so a rejection in one chain cannot desynchronize
    later steps; coalescence is absorbing for both drivers.
    """
    if not x0a.n == x0b.n == p.n:
        raise ContractError("sizes must match")
    n = x0a.n
    if driver == "at":
        if ell is not None and not (is_localized(x0a, ell)
                                    and is_localized(x0b, ell)):
            raise ContractError("starts must be localized")
        fa = x0a.forward.tolist()
        fb = x0b.forward.tolist()
        diff = sum(a != b for a, b in zip(fa, fb))
        if diff == 0:
            return 0, {"driver": driver}
        prob = p.dense().tolist()
        lo = ell.lo.tolist() if ell is not None else None
        hi = ell.hi.tolist() if ell is not None else None
        rng = derive_rng(seed, experiment_id("twin-draws"))
        for t, edges, us in _audit_draws(rng, n, T):
            for e, u in zip(edges, us):
                t += 1
                i = e - 1
                before = (fa[i] != fb[i]) + (fa[e] != fb[e])
                for f in (fa, fb):
                    a = f[i]
                    b = f[e]
                    if u < prob[b - 1][a - 1]:
                        if lo is None or ((e + 1 - a) <= hi[a - 1]
                                          and (b - e) <= lo[b - 1]):
                            f[i] = b
                            f[e] = a
                diff += (fa[i] != fb[i]) + (fa[e] != fb[e]) - before
                if diff == 0:
                    return t, {"driver": driver}
        return None, {"driver": driver}
    if driver == "block":
        if schedule is None:
            raise ContractError("block driver needs a schedule")
        a = Permutation(x0a.forward.copy(), _validate=False)
        b = Permutation(x0b.forward.copy(), _validate=False)
        pick_rng = derive_rng(seed, experiment_id("twin-blocks"))
        count = len(schedule.blocks())
        probs = schedule.probabilities()
        for t in range(1, T + 1):
            choice = int(pick_rng.choice(count, p=probs))
            # one derived seed per step, consumed independently by each chain,
            # so rejections cannot desynchronize the coupling
            a = block_step(a, schedule, p, ell,
                           derive_rng(seed, experiment_id("twin-step"), t), choice)
            b = block_step(b, schedule, p, ell,
                           derive_rng(seed, experiment_id("twin-step"), t), choice)
            if np.array_equal(a.forward, b.forward):
                return t, {"driver": driver}
        return None, {"driver": driver}
    raise ContractError(f"unknown driver {driver!r}; choose at or block")


# ---------------------------------------------------------------------------
# trajectory records
# ---------------------------------------------------------------------------

def write_checkpoint(fh, step: int, sigma: Permutation, tracked_ks=()) -> None:
    """Line-delimited trajectory record: step, state, displacement, projections."""
    from .perms import max_displacement
    rec = {
        "step": step,
        "permutation": list(sigma.to_tuple()),
        "max_displacement": max_displacement(sigma),
        "projections": {str(k): eta_projection(sigma, k).to_tuple()
                        for k in tracked_ks},
    }
    fh.write(json.dumps(rec, sort_keys=True) + "\n")


def write_coupling_violation(fh, step: int, edge: int, u: float, states) -> None:
    """Audit record for a violated coupling invariant."""
    rec = {"step": step, "edge": edge, "u": u,
           "states": [list(s) for s in states]}
    fh.write(json.dumps(rec, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# vectorized ensembles (used by the experiments module)
# ---------------------------------------------------------------------------

def ensemble_chain_run(p: BiasMatrix, starts: np.ndarray, steps: int,
                       rng: np.random.Generator,
                       ell: LocalizationVector | None = None,
                       checkpoints=(), checkpoint_fn=None, chunk: int = 2048):
    """Advance R independent chains in lockstep (vectorized over replicas).

    starts is an (R, n) array of forward rows, each a permutation of 1..n and
    in the localized set when ell is given.  checkpoint_fn(t, F, INV) is
    called at each step index in checkpoints (0 means before any step), each
    of which must lie in [0, steps]; INV is the exact inverse of that step's
    F.  Returns the final (F, INV).
    """
    if steps < 0:
        raise ContractError("steps must be >= 0")
    # C order, so the flat view below aliases F instead of copying it
    F = np.array(starts, dtype=np.int64, order="C")
    R, n = F.shape
    if not np.array_equal(np.sort(F, axis=1),
                          np.broadcast_to(np.arange(1, n + 1), F.shape)):
        raise ContractError("every start row must be a permutation of 1..n")
    if ell is not None and (ell.n != n or not localized_rows(F, ell).all()):
        raise ContractError("starts must be localized")
    marks = sorted({int(c) for c in checkpoints})
    if marks and not 0 <= marks[0] <= marks[-1] <= steps:
        raise ContractError(f"checkpoints must lie in [0, {steps}]")
    if checkpoint_fn is None:
        marks = []
    if marks and marks[0] == 0:
        checkpoint_fn(0, F, inverse_rows(F))
        marks.pop(0)
    # p[b][a] at flat index b*(n+1) + a of a zero-padded copy of p.dense()
    stride = n + 1
    pflat = np.zeros((stride, stride))
    pflat[1:, 1:] = p.dense()
    pflat = pflat.ravel()
    Ff = F.ravel()
    Fn = Ff[1:]
    row_offset = np.arange(R) * n
    # chunk size depends only on R, so the draw stream is independent of the
    # horizon; the bound keeps the draw buffers around 32 MB
    chunk = max(1, min(chunk, 4_194_304 // R))
    t = 0
    while t < steps:
        edges = rng.integers(1, n, size=(chunk, R))
        us = rng.random((chunk, R))
        # edge e of row r becomes the flat index of its left cell
        edges += row_offset - 1
        for s in range(min(chunk, steps - t)):
            i = edges[s]
            a = Ff[i]
            b = Fn[i]
            do = us[s] < pflat[b * stride + a]
            if ell is not None:
                e = i - row_offset + 1
                do &= (e + 1 - a) <= ell.hi[a - 1]
                do &= (b - e) <= ell.lo[b - 1]
            Ff[i] = np.where(do, b, a)
            Fn[i] = np.where(do, a, b)
            t += 1
            if marks and marks[0] == t:
                checkpoint_fn(t, F, inverse_rows(F))
                marks.pop(0)
    return F, inverse_rows(F)


def ensemble_max_displacement(INV: np.ndarray) -> np.ndarray:
    n = INV.shape[1]
    return np.max(np.abs(INV - np.arange(1, n + 1)[None, :]), axis=1)


# ---------------------------------------------------------------------------
# scalar coupling drivers: plain-list state, one shared draw per step
# ---------------------------------------------------------------------------

_AUDIT_CHUNK = 8192

# A site of a coupled top/bottom ASEP pair holds the code 2*top + bottom.
_DIFFERS = (0, 1, 1, 0)          # top and bottom disagree at the site
_BOTTOM_MINUS_TOP = (0, 1, -1, 0)


def _pair_moves() -> tuple:
    """One-edge transitions of a coupled pair, as two tables (u >= q, u < q).

    Entry ``x << 2 | y`` of a table gives the new codes of an edge whose sites
    hold x and y, and the change in the number of disagreeing sites.  Each
    process whose edge holds one particle moves it left iff u < q.
    """
    tables = ([], [])
    for left, table in enumerate(tables):
        for x in range(4):
            for y in range(4):
                movable = x ^ y
                nx, ny = (x | movable, y & ~movable) if left else \
                    (x & ~movable, y | movable)
                table.append((nx, ny, _DIFFERS[nx] + _DIFFERS[ny]
                              - _DIFFERS[x] - _DIFFERS[y]))
    return tuple(map(tuple, tables))


_PAIR_MOVES = _pair_moves()


def asep_pair_coalescence(n: int, k: int, q: float, seed: int,
                          t_cap: int) -> int | None:
    """Meeting time of the monotone top/bottom ASEP coupling (shared draws).

    Step t draws the edge as ``random.Random(seed).randrange(n - 1)`` does
    (getrandbits with rejection), then its uniform with ``random()``.
    """
    top = AsepState.right_packed(n, k).occ.tolist()
    bot = AsepState.left_packed(n, k).occ.tolist()
    codes = [2 * a + b for a, b in zip(top, bot)]
    rnd = random.Random(seed)
    diff = sum(_DIFFERS[c] for c in codes)
    if diff == 0:
        return 0
    m = n - 1
    bits = m.bit_length()
    getrandbits = rnd.getrandbits
    uniform = rnd.random
    to_right, to_left = _PAIR_MOVES
    for t in range(1, t_cap + 1):
        i = getrandbits(bits)
        while i >= m:
            i = getrandbits(bits)
        key = codes[i] << 2 | codes[i + 1]
        x, y, change = to_left[key] if uniform() < q else to_right[key]
        codes[i] = x
        codes[i + 1] = y
        if change:
            diff += change
            if not diff:
                return t
    return None


def _audit_draws(rng: np.random.Generator, n: int, steps: int):
    """The scalar drivers' shared draws, chunk by chunk: (steps done, edges,
    us)."""
    t = 0
    while t < steps:
        edges = rng.integers(1, n, size=_AUDIT_CHUNK).tolist()
        us = rng.random(_AUDIT_CHUNK).tolist()
        take = min(_AUDIT_CHUNK, steps - t)
        yield t, edges[:take], us[:take]
        t += take


def domination_audit_run(n: int, p: BiasMatrix, q: float, ks, steps: int,
                         seed: int, ell: LocalizationVector | None = None,
                         start: Permutation | None = None,
                         log_path: str | None = None) -> dict:
    """Long coupled run of the chain and a k-family of ASEPs with audits.

    Audits the domination invariant (prefix counts of each projection
    dominate the coupled ASEP's) after every step; returns counts.
    Violations, if any, are appended to log_path as line-delimited records
    with the step, edge, uniform variate, and both states.
    """
    sigma = start if start is not None else Permutation.reversal(n)
    if sigma.n != n:
        raise ContractError("start must be a permutation of n labels")
    if ell is not None and not is_localized(sigma, ell):
        raise ContractError("start must be localized")
    ks = sorted(int(k) for k in ks)
    F = sigma.forward.tolist()
    Y = [[int(v <= k) for v in F] for k in ks]
    violations = _domination_audit(F, Y, p, q, ks, steps, seed, ell, log_path)
    return {"steps": steps, "audits": steps, "violations": violations,
            "ks": ks}


def _domination_audit(F: list, Y: list, p: BiasMatrix, q: float, ks: list,
                      steps: int, seed: int,
                      ell: LocalizationVector | None = None,
                      log_path: str | None = None, flagged=None) -> int:
    """Audited coupled run from chain row F and ASEP rows Y (one per k in ks).

    Returns the number of steps after which some projection fails to
    dominate its ASEP; each such step is appended to flagged when given.
    For each k the run keeps D_k[j] = (eta_k - Y_k prefix count over the
    first j sites) and the number of negative entries over all k.  A step at
    edge e changes only D_k[e], so it is recomputed from D_k[e - 1] and the
    new cell values; a full recount after every draw chunk cross-checks it.
    """
    n = len(F)
    if q / (1.0 - q) > 1.0 + p.epsilon + 1e-12:
        raise ContractError("need q/(1-q) <= 1+eps for domination")
    K = len(ks)
    # bit j of eta_mask[label] is set iff label <= ks[j]; bit j of y[i] is
    # Y[j][i], so one ASEP update moves every process on the edge at once
    eta_mask = [sum(1 << j for j, k in enumerate(ks) if label <= k)
                for label in range(n + 1)]
    y = [sum(row[i] << j for j, row in enumerate(Y)) for i in range(n)]
    prob = p.dense().tolist()
    lo = ell.lo.tolist() if ell is not None else None
    hi = ell.hi.tolist() if ell is not None else None

    def recount():
        D = [list(itertools.accumulate(
            [((eta_mask[F[i]] >> j) & 1) - ((y[i] >> j) & 1)
             for i in range(n)], initial=0)) for j in range(K)]
        return D, sum(d < 0 for row in D for d in row)

    D, negative = recount()
    violations = 0
    rng = derive_rng(seed, experiment_id("domination-audit"))
    with (open(log_path, "a") if log_path
          else contextlib.nullcontext()) as log_fh:
        for t, edges, us in _audit_draws(rng, n, steps):
            for e, u in zip(edges, us):
                t += 1
                i = e - 1
                a = F[i]
                b = F[e]
                # order-based orientation: the smaller label ends ahead iff
                # u < p[low][high]
                swap = (u >= prob[a - 1][b - 1] if a < b
                        else u < prob[b - 1][a - 1])
                if swap and lo is not None:
                    swap = (e + 1 - a) <= hi[a - 1] and (b - e) <= lo[b - 1]
                if swap:
                    F[i] = b
                    F[e] = a
                    changed = eta_mask[a] ^ eta_mask[b]
                else:
                    changed = 0
                yi = y[i]
                movable = yi ^ y[e]
                if movable:
                    new_yi = yi | movable if u < q else yi & ~movable
                    moved = new_yi ^ yi
                    y[i] = new_yi
                    y[e] ^= moved
                    changed |= moved
                if changed:
                    eta = eta_mask[F[i]]
                    yi = y[i]
                    while changed:
                        low = changed & -changed
                        changed ^= low
                        j = low.bit_length() - 1
                        Dj = D[j]
                        d = Dj[i] + ((eta >> j) & 1) - ((yi >> j) & 1)
                        old = Dj[e]
                        Dj[e] = d
                        negative += (d < 0) - (old < 0)
                if negative:
                    violations += 1
                    if flagged is not None:
                        flagged.append(t)
                    if log_fh is not None:
                        rows = [[(v >> j) & 1 for v in y] for j in range(K)]
                        write_coupling_violation(log_fh, t, e, u, [F] + rows)
            if recount() != (D, negative):
                raise AssertionError("incremental domination audit disagrees "
                                     f"with the full recount at step {t}")
    return violations


def asep_monotone_audit_run(n: int, k: int, q: float, steps: int,
                            seed: int) -> dict:
    """Long coupled top/bottom ASEP run with an order audit after every step."""
    top = AsepState.right_packed(n, k).occ.tolist()
    bot = AsepState.left_packed(n, k).occ.tolist()
    violations = _monotone_audit(top, bot, q, steps, seed)
    return {"steps": steps, "audits": steps, "violations": violations}


def _monotone_audit(top: list, bot: list, q: float, steps: int, seed: int,
                    flagged=None) -> int:
    """Audited coupled top/bottom run; counts steps with bottom not <= top.

    Keeps D[j] = (bottom - top prefix count over the first j sites) and its
    number of negative entries, updated incrementally as in
    ``_domination_audit`` and recounted after every draw chunk.
    """
    n = len(top)
    codes = [2 * a + b for a, b in zip(top, bot)]

    def recount():
        D = list(itertools.accumulate(
            (_BOTTOM_MINUS_TOP[c] for c in codes), initial=0))
        return D, sum(d < 0 for d in D)

    D, negative = recount()
    violations = 0
    to_right, to_left = _PAIR_MOVES
    rng = derive_rng(seed, experiment_id("asep-monotone-audit"))
    for t, edges, us in _audit_draws(rng, n, steps):
        for e, u in zip(edges, us):
            t += 1
            i = e - 1
            key = codes[i] << 2 | codes[e]
            x, y, _ = to_left[key] if u < q else to_right[key]
            codes[i] = x
            codes[e] = y
            d = D[i] + _BOTTOM_MINUS_TOP[x]
            old = D[e]
            if d != old:
                D[e] = d
                negative += (d < 0) - (old < 0)
            if negative:
                violations += 1
                if flagged is not None:
                    flagged.append(t)
        if recount() != (D, negative):
            raise AssertionError("incremental monotone audit disagrees "
                                 f"with the full recount at step {t}")
    return violations
