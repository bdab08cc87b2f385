"""Reference oracle for the chain's step rule and the regression instances.

``at_step`` is the straightforward scalar step of the single-chain
convention, one permutation and one draw at a time; the vectorized stepper
``atshuffle.chains.ensemble_chain_run`` must follow it on shared draws.
``regression_instances`` is the fixed randomized instance set of the
detailed-balance checks, built with ``random_admissible_localization``, and
``is_monotone`` tests Fill's monotonicity condition on a bias matrix, and
``monotone_biased`` builds the monotone family by the straightforward
double loop on the same draws as ``BiasMatrix.monotone_biased``.
``twin_block_meeting_time`` is the twin block loop of
``twin_chain_coupling_run`` with each step's generator derived once per twin
and each block picked by ``Generator.choice``; the driver must meet at the
same times.
"""

from dataclasses import dataclass

import numpy as np

from atshuffle.chains import block_step, derive_rng, experiment_id
from atshuffle.errors import ContractError
from atshuffle.perms import (BiasMatrix, LocalizationVector, Permutation,
                             _q_from_epsilon, is_localized)


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
    f = sigma.forward.copy()
    e = draw.edge
    a, b = sigma.at(e), sigma.at(e + 1)
    if draw.u < p.get(b, a) and (ell is None
                                 or _swap_keeps_localized(sigma, e, ell)):
        f[e - 1], f[e] = b, a
    return Permutation(f, _validate=False)


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


def regression_instances(seed: int = 20240801, count: int = 120,
                         ns=(3, 4, 5, 6), eps_values=(0.2, 0.5, 1.0),
                         with_ell: bool = True, max_ell: int = 3):
    """The fixed randomized regression set (seeds live in this signature)."""
    rng = derive_rng(seed, experiment_id("regression-set"))
    out = []
    i = 0
    while len(out) < count:
        n = int(ns[i % len(ns)])
        eps = float(eps_values[(i // len(ns)) % len(eps_values)])
        fam = i % 4
        if fam == 0:
            p = BiasMatrix.constant_from_epsilon(n, eps)
        elif fam == 1:
            p = BiasMatrix.random_biased(n, eps, rng)
        elif fam == 2:
            p = BiasMatrix.monotone_biased(n, eps, rng)
        else:
            p = BiasMatrix.totally_asymmetric(n)
        ell = None
        if with_ell and i % 2 == 1:
            ell = random_admissible_localization(n, rng, max_ell=max_ell)
        out.append({"name": f"reg{i:03d}", "n": n, "eps": eps, "p": p, "ell": ell})
        i += 1
    return out


def is_monotone(p: BiasMatrix) -> bool:
    """p[i][j] nondecreasing in j (i<j) and nonincreasing in i (i+1<j)."""
    d = p.dense()
    for i in range(p.n):
        for j in range(i + 1, p.n - 1):
            if d[i, j] > d[i, j + 1] + 1e-15:
                return False
    for i in range(p.n - 2):
        for j in range(i + 2, p.n):
            if d[i, j] < d[i + 1, j] - 1e-15:
                return False
    return True


def monotone_biased(n: int, eps: float, rng: np.random.Generator) -> BiasMatrix:
    """p[i][j] = max of a random table over {i' >= i, j' <= j, i' < j'},
    filled one entry at a time from row n - 2 up."""
    up = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    up[iu] = rng.uniform(_q_from_epsilon(eps), 1.0, size=len(iu[0]))
    for i in range(n - 2, -1, -1):
        for j in range(i + 1, n):
            best = up[i, j]
            if i + 1 < j:
                best = max(best, up[i + 1, j])
            if j - 1 > i:
                best = max(best, up[i, j - 1])
            up[i, j] = best
    return BiasMatrix(up)


def twin_block_meeting_time(x0a: Permutation, x0b: Permutation, p: BiasMatrix,
                            ell: LocalizationVector | None, T: int, seed: int,
                            schedule):
    """First t <= T at which two block chains from x0a and x0b agree, or
    None; 0 for equal starts."""
    if np.array_equal(x0a.forward, x0b.forward):
        return 0
    a, b = x0a, x0b
    pick_rng = derive_rng(seed, experiment_id("twin-blocks"))
    count = len(schedule.blocks())
    probs = schedule.probabilities()
    for t in range(1, T + 1):
        choice = int(pick_rng.choice(count, p=probs))
        a = block_step(a, schedule, p, ell,
                       derive_rng(seed, experiment_id("twin-step"), t), choice)
        b = block_step(b, schedule, p, ell,
                       derive_rng(seed, experiment_id("twin-step"), t), choice)
        if np.array_equal(a.forward, b.forward):
            return t
    return None
