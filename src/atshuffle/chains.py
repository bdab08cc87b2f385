"""The stochastic processes and their couplings.

Two update orientations appear on purpose, each with one implementation in
the package.  The replica ensembles of ``ensemble_chain_run`` follow the
documented single-chain convention (swap iff u < p[behind][ahead]), also for
the restricted chain; every coupling, the twin chains included, uses the
order-based convention (the smaller label ends up ahead iff u < p[low][high])
of ``_ordered_list_step``.  Both produce the same one-step kernel, but only
the order-based form nests the chain's events inside the ASEP events and, at
constant bias, keeps two unrestricted chains on one draw in the threshold
order, which is what makes the couplings preserve their invariants pathwise.

The coupled exclusion-process rule is written once, as ``_asep_edge``.  The
scalar drivers (the twin chains, the domination and monotone audits and the
ASEP pair coalescence) are deterministic functions of one shared stream of
(edge, uniform) pairs, read from ``_audit_draws`` as plain lists in fixed
chunks so that the stream does not depend on the horizon.
Substreams are derived from a master seed via ``derive_rng(master, *keys)``,
which feeds the integer tuple (master, key1, key2, ...) to numpy's
SeedSequence.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import zlib
from dataclasses import dataclass

import numpy as np

from .banddp import SamplerCache, heat_bath_block_sample
from .errors import CapExceeded, ContractError
from .measure import (MEMORY_BUDGET, DistributionTable, TransitionMatrix,
                      _require_balance, _state_rows, _swap_kernel,
                      check_detailed_balance)
from .perms import (BiasMatrix, LocalizationVector, Permutation, _is_integer,
                    is_localized, localized_rows, max_displacement)


def derive_rng(master: int, *keys: int) -> np.random.Generator:
    """Deterministic substream: SeedSequence over (master, keys...)."""
    return np.random.default_rng(np.random.SeedSequence([int(master), *map(int, keys)]))


def experiment_id(name: str) -> int:
    """Stable integer id of an experiment name (crc32)."""
    return zlib.crc32(name.encode())


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
    """A named collection of blocks; each block is a position interval (a, b)."""

    kind: str
    n: int
    selection: str = "size"  # "size" per heat-bath definition, or "uniform"

    def __post_init__(self):
        if not _is_integer(self.n) or self.n < 1:
            raise ContractError(f"a schedule needs an integer n >= 1, "
                                f"got {self.n!r}")
        if self.kind not in ("west-east", "single"):
            raise ContractError(f"unknown schedule kind {self.kind!r}; "
                                "choose west-east or single")
        if self.selection not in ("size", "uniform"):
            raise ContractError(f"unknown block selection {self.selection!r}; "
                                "choose size or uniform")

    @classmethod
    def west_east(cls, n: int, selection: str = "size") -> "BlockSchedule":
        return cls("west-east", n, selection)

    @classmethod
    def single(cls, n: int, selection: str = "size") -> "BlockSchedule":
        return cls("single", n, selection)

    def blocks(self) -> list:
        n = self.n
        if self.kind == "west-east":
            return [(1, math.ceil(2 * n / 3)), (max(n // 3, 1), n)]
        return [(1, n)]

    def sizes(self) -> list:
        return [b - a + 1 for a, b in self.blocks()]

    def probabilities(self) -> np.ndarray:
        """Block selection law: size-weighted, or uniform over blocks."""
        if self.selection == "size":
            sizes = np.array(self.sizes(), dtype=np.float64)
            return sizes / sizes.sum()
        count = len(self.blocks())
        return np.full(count, 1.0 / count)

    def cdf(self) -> np.ndarray:
        """The normalized CDF of probabilities(), as Generator.choice
        builds it."""
        cdf = self.probabilities().cumsum()
        cdf /= cdf[-1]
        return cdf

    def chi(self) -> int:
        cover = np.zeros(self.n, dtype=np.int64)
        for a, b in self.blocks():
            cover[a - 1:b] += 1
        if np.any(cover == 0):
            raise ContractError("blocks do not cover all positions")
        return int(cover.max())

    def check_size(self, n: int) -> None:
        """Refuse an instance of size n unless the schedule is built for it."""
        if self.n != n:
            raise ContractError(f"the schedule is built for n = {self.n}, "
                                f"but the instance has n = {n}")


def block_step(sigma: Permutation, schedule: BlockSchedule, p: BiasMatrix,
               ell: LocalizationVector | None, rng: np.random.Generator,
               choice: int | None = None,
               cache: SamplerCache | None = None) -> Permutation:
    """One heat-bath block update.

    A block is chosen from rng by schedule.probabilities(), unless choice
    gives its index, then its configuration is replaced by an exact draw from
    the conditional stationary law given the complement.  cache keeps the
    blocks' samplers across the updates of a run.
    """
    schedule.check_size(sigma.n)
    if choice is None:
        choice = _pick_block(rng, schedule.cdf())
    return heat_bath_block_sample(sigma, schedule.blocks()[choice], p, ell,
                                  rng, cache)


def _pick_block(rng: np.random.Generator, cdf: np.ndarray) -> int:
    """A block index drawn from one uniform of rng on a schedule's cdf(),
    the draw and index of Generator.choice(len(cdf), p=probabilities())."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def check_dense_kernel(states: int) -> None:
    """Raise CapExceeded if a dense kernel over states states would take
    more than measure.MEMORY_BUDGET bytes."""
    need = 8 * states ** 2
    if need > MEMORY_BUDGET:
        raise CapExceeded(
            f"the exact block kernel over {states} states needs a dense "
            f"{need} byte array, above the {MEMORY_BUDGET} byte budget "
            "(measure.MEMORY_BUDGET); use a smaller n or a tighter "
            "localization vector")


def exact_block_kernel(mu: DistributionTable,
                       schedule: BlockSchedule) -> TransitionMatrix:
    """Exact heat-bath block kernel on mu's support (small n).

    The kernel is built dense; above measure.MEMORY_BUDGET bytes it raises
    CapExceeded before allocating.
    """
    import scipy.sparse as sp
    n = mu.support.shape[1]
    schedule.check_size(n)
    S = mu.support
    check_dense_kernel(len(S))
    P = np.zeros((len(S), len(S)))
    for (a, b), wb in zip(schedule.blocks(), schedule.probabilities()):
        comp = np.ones(n, dtype=bool)
        comp[a - 1:b] = False
        # states agreeing off the block share one complement row
        _, group = np.unique(S[:, comp], axis=0, return_inverse=True)
        order = np.argsort(group, kind="stable")
        cuts = np.flatnonzero(np.diff(group[order])) + 1
        for members in np.split(order, cuts):
            probs = mu.probs[members]
            P[np.ix_(members, members)] += wb * (probs / probs.sum())
    out = TransitionMatrix(S, sp.csr_matrix(P))
    _require_balance(out, mu)
    return out


# ---------------------------------------------------------------------------
# twin-chain couplings
# ---------------------------------------------------------------------------

def twin_chain_coupling_run(x0a: Permutation, x0b: Permutation, p: BiasMatrix,
                            ell: LocalizationVector | None, T: int, seed: int,
                            driver: str = "at",
                            schedule: BlockSchedule | None = None,
                            cache: SamplerCache | None = None):
    """Run two chains on identical draws; return the first meeting time.

    Returns (t, aux) with t = None on timeout, and t = 0 for equal starts.
    The at driver applies the domination audit's order-based update to both
    chains, on the ``_audit_draws`` stream and restricted when ell is given.
    Unrestricted at constant bias, one draw keeps every threshold projection
    of an ordered pair in order, so identity and reversal bracket every
    chain and d(t) <= P(meeting time > t).  Restricted or non-constant twins
    are not certified monotone (on random windows one draw broke that order
    for up to 17 of about 2,000 ordered pairs).  For the block driver each
    step gets its own derived substream, which both chains read from its
    start (the second after a rewind), so a rejection in one chain cannot
    desynchronize later steps; its block is picked on the schedule's cdf(),
    built once per run, and both chains draw their block samplers
    from cache (a fresh one by default), which a caller may share between
    the runs of one instance; coalescence is absorbing for both drivers.
    """
    if not x0a.n == x0b.n == p.n:
        raise ContractError("sizes must match")
    n = x0a.n
    if driver not in ("at", "block"):
        raise ContractError(f"unknown driver {driver!r}; choose at or block")
    if not _is_integer(T):
        raise ContractError(f"T must be an integer, got {T!r}")
    if T < 0:
        raise ContractError(f"T must be >= 0, got {T}")
    if driver == "block":
        if schedule is None:
            raise ContractError("block driver needs a schedule")
        schedule.check_size(n)
    if ell is not None and not (is_localized(x0a, ell)
                                and is_localized(x0b, ell)):
        raise ContractError("starts must be localized")
    if np.array_equal(x0a.forward, x0b.forward):
        return 0, {"driver": driver}
    if driver == "at":
        fa, fb = x0a.forward.tolist(), x0b.forward.tolist()
        step = _ordered_list_step(p, ell)
        rng = derive_rng(seed, experiment_id("twin-draws"))
        for t, edges, us in _audit_draws(rng, n, T):
            for e, u in zip(edges, us):
                t += 1
                # both twins step; they can meet only on a step that swaps
                if (step(fa, e, u) | step(fb, e, u)) and fa == fb:
                    return t, {"driver": driver}
        return None, {"driver": driver}
    if cache is None:
        cache = SamplerCache()
    a = Permutation(x0a.forward.copy(), _validate=False)
    b = Permutation(x0b.forward.copy(), _validate=False)
    pick_rng = derive_rng(seed, experiment_id("twin-blocks"))
    cdf = schedule.cdf()
    step_id = experiment_id("twin-step")
    for t in range(1, T + 1):
        choice = _pick_block(pick_rng, cdf)
        # one derived stream per step, consumed from its start by each chain,
        # so rejections cannot desynchronize the coupling
        rng = derive_rng(seed, step_id, t)
        start = rng.bit_generator.state
        a = block_step(a, schedule, p, ell, rng, choice, cache)
        rng.bit_generator.state = start
        b = block_step(b, schedule, p, ell, rng, choice, cache)
        if np.array_equal(a.forward, b.forward):
            return t, {"driver": driver}
    return None, {"driver": driver}


# ---------------------------------------------------------------------------
# trajectory records
# ---------------------------------------------------------------------------

def write_checkpoint(fh, step: int, row: np.ndarray, tracked_ks=()) -> None:
    """Trajectory record of a forward row: step, state, displacement,
    projections."""
    f = row.tolist()
    rec = {
        "step": step,
        "permutation": f,
        "max_displacement": int(max_displacement(row[None])[0]),
        # eta_k marks the positions holding labels <= k
        "projections": {str(k): [int(v <= k) for v in f] for k in tracked_ks},
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
    in the localized set when ell is given.  checkpoint_fn(t, F) is called at
    each step index in checkpoints (0 means before any step), each of which
    must lie in [0, steps].  Returns the final F.
    """
    if steps < 0:
        raise ContractError("steps must be >= 0")
    # C order, so the flat view below aliases F instead of copying it
    F = np.array(starts, dtype=np.int64, order="C")
    R, n = F.shape
    if p.n != n:
        raise ContractError(f"p is for n = {p.n}, but the start rows have "
                            f"n = {n}")
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
        checkpoint_fn(0, F)
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
                checkpoint_fn(t, F)
                marks.pop(0)
    return F


# ---------------------------------------------------------------------------
# scalar coupling drivers: plain-list state, one shared draw per step
# ---------------------------------------------------------------------------

_AUDIT_CHUNK = 8192

# A site of a coupled top/bottom ASEP pair holds the code 2*top + bottom.
_DIFFERS = (0, 1, 1, 0)          # top and bottom disagree at the site
_BOTTOM_MINUS_TOP = (0, 1, -1, 0)


def _asep_edge(x: int, y: int, left: bool) -> tuple:
    """The ASEP update of one edge: the new occupancy words of its sites.

    Bit j of x and y is process j's occupancy of the edge's left and right
    site.  Each process with one particle on the edge puts it on the left
    site iff left (u < q); the others keep their bits.
    """
    movable = x ^ y
    return (x | movable, y & ~movable) if left else (x & ~movable, y | movable)


def _pair_moves() -> tuple:
    """One-edge transitions of a coupled pair, as two tables (u >= q, u < q).

    Entry ``x << 2 | y`` of a table gives the new codes of an edge whose sites
    hold x and y, and the change in the number of disagreeing sites.
    """
    tables = ([], [])
    for left, table in enumerate(tables):
        for x in range(4):
            for y in range(4):
                nx, ny = _asep_edge(x, y, left)
                table.append((nx, ny, _DIFFERS[nx] + _DIFFERS[ny]
                              - _DIFFERS[x] - _DIFFERS[y]))
    return tuple(map(tuple, tables))


_PAIR_MOVES = _pair_moves()


def _packed_pair(n: int, k: int, q: float) -> tuple:
    """The top (right-packed) and bottom (left-packed) k-particle rows of the
    ASEP pair drivers, after refusing a k outside 0..n and a q outside
    [0, 1]."""
    if not 0 <= k <= n:
        raise ContractError(f"k must lie in 0..n, got k = {k}, n = {n}")
    if not 0.0 <= q <= 1.0:
        raise ContractError(f"q must lie in [0, 1], got q = {q!r}")
    return [int(i >= n - k) for i in range(n)], [int(i < k) for i in range(n)]


def asep_pair_coalescence(n: int, k: int, q: float, seed: int,
                          t_cap: int) -> int | None:
    """Meeting time of the monotone top/bottom ASEP coupling (shared draws)."""
    if t_cap < 0:
        raise ContractError(f"t_cap must be >= 0, got {t_cap}")
    top, bot = _packed_pair(n, k, q)
    codes = [2 * a + b for a, b in zip(top, bot)]
    diff = sum(_DIFFERS[c] for c in codes)
    if diff == 0:
        return 0
    to_right, to_left = _PAIR_MOVES
    rng = derive_rng(seed, experiment_id("asep-coalescence"))
    for t, edges, us in _audit_draws(rng, n, t_cap):
        for e, u in zip(edges, us):
            t += 1
            i = e - 1
            key = codes[i] << 2 | codes[e]
            x, y, change = to_left[key] if u < q else to_right[key]
            codes[i] = x
            codes[e] = y
            if change:
                diff += change
                if not diff:
                    return t
    return None


def _ordered_list_step(p: BiasMatrix, ell: LocalizationVector | None):
    """The coupled drivers' chain update on plain-list rows: step(f, e, u)
    applies the order-based rule at edge e of f in place, restricted when
    ell is given, and returns whether it swapped."""
    prob = p.dense().tolist()
    lo, hi = (None, None) if ell is None else (ell.lo.tolist(),
                                               ell.hi.tolist())

    def step(f: list, e: int, u: float) -> bool:
        a, b = f[e - 1], f[e]
        # the smaller label ends ahead iff u < p[low][high]
        if (u >= prob[a - 1][b - 1] if a < b else u < prob[b - 1][a - 1]) \
                and (lo is None or ((e + 1 - a) <= hi[a - 1]
                                    and (b - e) <= lo[b - 1])):
            f[e - 1], f[e] = b, a
            return True
        return False

    return step


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
    if n < 2:
        raise ContractError(f"the audit needs n >= 2 labels, got n = {n}")
    sigma = start if start is not None else Permutation.reversal(n)
    if not sigma.n == p.n == n:
        raise ContractError("start and p must have n labels")
    if ell is not None and not is_localized(sigma, ell):
        raise ContractError("start must be localized")
    eps = p.epsilon
    # q/(1-q) <= 1+eps, multiplied out: q = 1 is dominated only at eps = inf
    if not (0.0 <= q <= 1.0 and (eps == math.inf
                                 or q <= (1.0 + eps + 1e-12) * (1.0 - q))):
        raise ContractError("domination needs q in [0, 1] with q/(1-q) <= "
                            f"1+eps, got q = {q!r}, eps = {eps!r}")
    ks = sorted(int(k) for k in ks)
    if not ks or not all(1 <= k < n for k in ks):
        raise ContractError(f"ks must be a nonempty list in 1..{n - 1}, "
                            f"got {ks}")
    if steps < 0:
        raise ContractError(f"steps must be >= 0, got {steps}")
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
    The caller, as domination_audit_run does, checks q against p.epsilon.
    """
    n = len(F)
    K = len(ks)
    # bit j of eta_mask[label] is set iff label <= ks[j]; bit j of y[i] is
    # Y[j][i], so one ASEP update moves every process on the edge at once
    eta_mask = [sum(1 << j for j, k in enumerate(ks) if label <= k)
                for label in range(n + 1)]
    y = [sum(row[i] << j for j, row in enumerate(Y)) for i in range(n)]
    step = _ordered_list_step(p, ell)

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
                changed = (eta_mask[F[i]] ^ eta_mask[F[e]]
                           if step(F, e, u) else 0)
                yi = y[i]
                if yi != y[e]:
                    y[i], y[e] = _asep_edge(yi, y[e], u < q)
                    changed |= y[i] ^ yi
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
    if n < 2:
        raise ContractError(f"the audit needs n >= 2 sites, got n = {n}")
    if steps < 0:
        raise ContractError(f"steps must be >= 0, got {steps}")
    top, bot = _packed_pair(n, k, q)
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
