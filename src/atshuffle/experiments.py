"""Scripted desk-scale verifications of the chain's quantitative behavior.

Every experiment returns an ExperimentResult whose verdict is a pure function
of the recorded series and the stated bound; re-running with the same seeds
reproduces the record bit for bit.  Monte Carlo estimates carry standard
errors and a verdict only fails when its bound is violated by at least three
of them; exact-mode verdicts are strict.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .banddp import (BandDP, DEFAULT_WINDOW_CAP, SamplerCache,
                     check_draw_memory, exact_localized_sampler)
from .chains import (BlockSchedule, asep_pair_coalescence,
                     asep_rightmost_tail, asep_stationary, check_dense_kernel,
                     derive_rng, ensemble_chain_run, exact_block_kernel,
                     experiment_id, twin_chain_coupling_run)
from .errors import CapExceeded, ContractError, EmptySupport
from .measure import (DEFAULT_ENUM_CAP, build_transition_matrix,
                      check_enumerable, enumerate_stationary,
                      exact_mixing_time, spectral_gap, tv_distance)
from .perms import (BiasMatrix, BoundaryAssignment, LocalizationVector,
                    Permutation, _is_integer, _q_from_epsilon,
                    instance_fingerprint, max_displacement,
                    max_localized_state, restrict_instance)

# Calibrated once on the constant-bias reference family (q = 0.75, reversal
# start, t = 8 n^2, 150 replicas, master seed 20240801; observed 99th-pct max
# displacement 8.5 / 8.0 / 10.0 at n = 128 / 256 / 512) and frozen.
BURNIN_THRESHOLDS = {
    "c0_log": 6.0,          # 99th pct of max displacement <= c0_log * log n
    "additive_per_doubling": 3.0,
}


@dataclass
class SeriesPoint:
    x: float
    estimate: float
    stderr: float
    n_replicas: int

    def __post_init__(self):
        self.x = float(self.x)
        self.estimate = float(self.estimate)
        self.stderr = float(self.stderr)
        self.n_replicas = int(self.n_replicas)

    def as_dict(self):
        return {"x": float(self.x), "estimate": float(self.estimate),
                "stderr": float(self.stderr), "n_replicas": int(self.n_replicas)}


@dataclass
class Verdict:
    passed: bool
    bound: str
    details: dict = field(default_factory=dict)

    def as_dict(self):
        return {"passed": bool(self.passed), "bound": self.bound,
                "details": _plain(self.details)}


@dataclass
class ExperimentResult:
    experiment: str
    fingerprint: str
    params: dict
    series: list
    verdict: Verdict
    meta: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "experiment": self.experiment,
            "fingerprint": self.fingerprint,
            "params": _plain(self.params),
            "series": [pt.as_dict() for pt in self.series],
            "verdict": self.verdict.as_dict(),
            "meta": _plain(self.meta),
        }

    def write(self, outdir, stem: str) -> list:
        """Write <stem>.json and <stem>.csv into outdir; returns the paths."""
        import os
        os.makedirs(outdir, exist_ok=True)
        jpath = os.path.join(outdir, f"{stem}.json")
        cpath = os.path.join(outdir, f"{stem}.csv")
        with open(jpath, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=1)
            fh.write("\n")
        with open(cpath, "w") as fh:
            fh.write("x,estimate,stderr\n")
            for pt in self.series:
                fh.write(f"{pt.x!r},{pt.estimate!r},{pt.stderr!r}\n")
        return [jpath, cpath]


def _plain(obj):
    """Recursively convert numpy scalars/arrays for deterministic JSON."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    return obj


def _se_bernoulli(phat: float, n: int) -> float:
    return math.sqrt(max(phat * (1.0 - phat), 1e-12) / max(n, 1))


def _ols(x, y) -> dict:
    """Least squares line fit of y on x, as verdict details: slope, slope_se
    (its stderr) and r2.  Fewer than two distinct x fit no line: all three
    are None, and no_fit says why."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m = len(x)
    if len(np.unique(x)) < 2:
        return {"slope": None, "slope_se": None, "r2": None,
                "no_fit": "fewer than two distinct x: no line to fit"}
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    if m > 2:
        s2 = float(np.sum(resid ** 2) / (m - 2))
        se = math.sqrt(s2 / sxx)
    else:
        se = 0.0
    sst = float(np.sum((y - ym) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / sst if sst > 0 else 1.0
    return {"slope": slope, "slope_se": se, "r2": r2}


def geometric_bound(eps: float, k: float) -> float:
    """(1+eps)^(-k); 0 when eps is infinite."""
    if math.isinf(eps):
        return 0.0
    return (1.0 + eps) ** (-k)


def disconnect_product_bound(eps: float, k: int) -> float:
    """prod_{m=1}^{k} (1 - (1+eps)^(-m)); the explicit lower bound."""
    if math.isinf(eps):
        return 1.0
    if eps <= 0.0:
        return 0.0
    out = 1.0
    for m in range(1, k + 1):
        out *= 1.0 - (1.0 + eps) ** (-m)
    return out


# the parameters make_family reads for each family kind
FAMILY_PARAMS = {"constant-q": ("q",), "constant-eps": ("eps",),
                 "totally-asymmetric": (), "random-eps": ("eps",),
                 "monotone-eps": ("eps",)}


def make_family(n: int, family: dict, seed: int = 0) -> BiasMatrix:
    """Build a named bias-matrix family instance for size n."""
    kind = family["kind"]
    if kind == "constant-q":
        return BiasMatrix.constant(n, float(family["q"]))
    if kind == "constant-eps":
        return BiasMatrix.constant_from_epsilon(n, float(family["eps"]))
    if kind == "totally-asymmetric":
        return BiasMatrix.totally_asymmetric(n)
    if kind == "random-eps":
        return BiasMatrix.random_biased(n, float(family["eps"]),
                                        derive_rng(seed, experiment_id("family"), n))
    if kind == "monotone-eps":
        return BiasMatrix.monotone_biased(n, float(family["eps"]),
                                          derive_rng(seed, experiment_id("family"), n))
    raise ContractError(f"unknown family kind {kind!r}; choose from "
                        + ", ".join(FAMILY_PARAMS))


# ---------------------------------------------------------------------------
# burn-in
# ---------------------------------------------------------------------------

def _start_rows(n: int, init, replicas: int, rng) -> np.ndarray:
    """The start rows of a replica ensemble: "identity", "reversal",
    "random" (one uniform permutation per replica, drawn from rng), or one
    permutation of 1..n, given as a Permutation or as a list of ints."""
    if (isinstance(init, list) and all(type(v) is int for v in init)
            and sorted(init) == list(range(1, n + 1))):
        init = Permutation(init)
    if isinstance(init, Permutation) and init.n == n:
        return np.tile(init.forward, (replicas, 1))
    if init == "identity":
        return np.tile(np.arange(1, n + 1), (replicas, 1))
    if init == "reversal":
        return np.tile(np.arange(n, 0, -1), (replicas, 1))
    if init == "random":
        return np.array([rng.permutation(n) + 1 for _ in range(replicas)])
    raise ContractError(f"unknown start {init!r}; choose identity, reversal, "
                        f"random or a permutation of 1..{n} as a list")


def burn_in_profile(n: int, p: BiasMatrix, init="reversal", T: int | None = None,
                    checkpoints=None, replicas: int = 100, seed: int = 0,
                    ell: LocalizationVector | None = None,
                    quantile: float = 0.99) -> ExperimentResult:
    """Max-displacement profile of an ensemble along the run.

    The verdict compares the terminal displacement quantile against
    c0_log * log(n), c0_log from the frozen calibration.
    """
    # the stderr of each checkpoint needs two replicas (ddof = 1)
    if replicas < 2:
        raise ContractError(f"replicas must be >= 2, got {replicas}")
    if not 0.0 < quantile < 1.0:
        raise ContractError(f"quantile must lie in (0, 1), got {quantile!r}")
    if T is None:
        T = 8 * n * n
    if checkpoints is None:
        checkpoints = {0, T // 8, T // 4, T // 2, (3 * T) // 4}
    # the verdict is read at T
    checkpoints = sorted({*checkpoints, T})
    c0 = BURNIN_THRESHOLDS["c0_log"]
    rng = derive_rng(seed, experiment_id("burn-in"), n)
    starts = _start_rows(n, init, replicas, rng)
    profile = {}

    def snap(t, F):
        profile[t] = max_displacement(F)

    ensemble_chain_run(p, starts, T, rng, ell=ell, checkpoints=checkpoints,
                       checkpoint_fn=snap)
    series = []
    for t in sorted(profile):
        d = profile[t]
        series.append(SeriesPoint(t, float(np.quantile(d, quantile)),
                                  float(d.std(ddof=1) / math.sqrt(len(d))),
                                  replicas))
    threshold = c0 * math.log(max(n, 2))
    final = profile[T]
    frac_above = float(np.mean(final > threshold))
    tol = 3.0 * _se_bernoulli(1.0 - quantile, replicas)
    passed = frac_above <= (1.0 - quantile) + tol
    verdict = Verdict(passed,
                      f"P(max displacement > {c0}*log n at t={T}) <= {1 - quantile:.3g}",
                      {"threshold": threshold, "frac_above": frac_above,
                       "tolerance_3se": tol,
                       "final_quantile": float(np.quantile(final, quantile))})
    return ExperimentResult(
        "burn_in_profile", instance_fingerprint(p, ell),
        {"n": n, "init": str(init), "T": T, "replicas": replicas, "seed": seed,
         "quantile": quantile, "c0_log": c0},
        series, verdict,
        {"checkpoints": list(sorted(profile)),
         "final_mean": float(final.mean())})


def burn_in_scaling(ns, family: dict, T_mult: int = 8, replicas: int = 100,
                    seed: int = 0, quantile: float = 0.99) -> ExperimentResult:
    """Terminal displacement quantile versus n; additive growth per doubling."""
    cap = BURNIN_THRESHOLDS["additive_per_doubling"]
    series = []
    qs = []
    sub = {}
    for n in ns:
        p = make_family(n, family, seed)
        res = burn_in_profile(n, p, "reversal", T_mult * n * n,
                              replicas=replicas, seed=seed, quantile=quantile)
        qn = res.verdict.details["final_quantile"]
        qs.append(qn)
        sub[n] = res.verdict.as_dict()
        series.append(SeriesPoint(n, qn, res.series[-1].stderr, replicas))
    increments = [qs[i + 1] - qs[i] for i in range(len(qs) - 1)]
    passed = all(inc <= cap for inc in increments) and \
        all(sub[n]["passed"] for n in ns)
    verdict = Verdict(passed,
                      f"quantile increment per doubling <= {cap} and "
                      "every per-n threshold holds",
                      {"quantiles": qs, "increments": increments,
                       "per_n": sub})
    return ExperimentResult(
        "burn_in_scaling", f"family:{json.dumps(family, sort_keys=True)}",
        {"ns": list(ns), "family": family, "T_mult": T_mult,
         "replicas": replicas, "seed": seed, "quantile": quantile},
        series, verdict, {})


# ---------------------------------------------------------------------------
# stationary localization tails
# ---------------------------------------------------------------------------

def _check_mode(mode: str) -> None:
    if mode not in ("exact", "sampled"):
        raise ContractError(f"unknown mode {mode!r}; choose exact or sampled")


def localization_tail_check(n: int, p: BiasMatrix,
                            ell: LocalizationVector | None = None,
                            samples: int = 20000, seed: int = 0,
                            mode: str | None = None, rs=None,
                            enum_cap: int = DEFAULT_ENUM_CAP) -> ExperimentResult:
    """Geometric tail bounds for particle locations under the stationary law.

    Exact mode checks mu(sigma(1) not in [k]) <= (1+eps)^-k for every k and
    the product form mu(X > s) <= (1+eps)^-ks for the first small-particle
    position X; sampling mode fits the displacement tail rate instead.
    """
    eps = p.epsilon
    if eps < 0:
        raise ContractError("tail bounds need a 0-positively biased instance")
    if mode is None:
        mode = "exact" if n <= DEFAULT_ENUM_CAP else "sampled"
    _check_mode(mode)
    fp = instance_fingerprint(p, ell)
    params = {"n": n, "mode": mode, "seed": seed, "samples": samples,
              "eps": eps if math.isfinite(eps) else "inf"}
    if mode == "exact":
        mu = enumerate_stationary(n, p, ell, enum_cap)
        # run_min[:, s - 1] > k: no particle of [k] in the first s positions
        run_min = np.minimum.accumulate(mu.support, axis=1)
        series = []
        violations = 0
        worst_margin = math.inf
        for k in range(1, n):
            prob = _mass(mu.probs, run_min[:, 0] > k)
            bound = geometric_bound(eps, k)
            series.append(SeriesPoint(k, prob, 0.0, len(mu)))
            if prob > bound + 1e-12:
                violations += 1
            worst_margin = min(worst_margin, bound - prob)
        first_hit_viol = 0
        for k in range(1, n):
            for s in range(1, n - k + 1):
                prob = _mass(mu.probs, run_min[:, s - 1] > k)
                if prob > geometric_bound(eps, k * s) + 1e-12:
                    first_hit_viol += 1
        passed = violations == 0 and first_hit_viol == 0
        verdict = Verdict(passed,
                          "mu(sigma(1) not in [k]) <= (1+eps)^-k and "
                          "mu(X > s) <= (1+eps)^-(ks), all k, s",
                          {"violations": violations,
                           "first_hit_violations": first_hit_viol,
                           "worst_margin": worst_margin})
        return ExperimentResult("localization_tail_check", fp, params,
                                series, verdict, {})
    # sampled mode
    sampler = exact_localized_sampler(p, ell)
    rng = derive_rng(seed, experiment_id("localization-tail"))
    rows = sampler.draw_rows(rng, samples)
    R = rows.shape[0]
    # each row holds the displacements of its particles, in position order
    disp = np.abs(rows - np.arange(1, n + 1))
    if rs is None:
        rs = list(range(1, 9))
    series = []
    logs = []
    for r in rs:
        tail = float(np.mean(disp >= r))
        se = _se_bernoulli(tail, R * n)
        series.append(SeriesPoint(r, tail, se, R))
        if tail > 0:
            logs.append((r, math.log(tail)))
    if math.isinf(eps) or len(logs) < 2:
        passed = all(pt.estimate == 0.0 for pt in series) or len(logs) >= 2
        verdict = Verdict(passed, "degenerate tail (all mass on identity)",
                          {"strategy": sampler.strategy})
        return ExperimentResult("localization_tail_check", fp, params,
                                series, verdict, {})
    fit = _ols([x for x, _ in logs], [y for _, y in logs])
    target = -math.log1p(eps)
    passed = (fit["slope"] is not None
              and fit["slope"] <= target + 3.0 * fit["slope_se"])
    verdict = Verdict(passed,
                      "displacement tail rate decays at least like (1+eps)^-r",
                      {**fit, "target": target, "strategy": sampler.strategy})
    return ExperimentResult("localization_tail_check", fp, params, series,
                            verdict, {})


# ---------------------------------------------------------------------------
# disconnecting positions
# ---------------------------------------------------------------------------

def _mass(probs: np.ndarray, mask: np.ndarray) -> float:
    """Total probability of the states in mask, summed in state order."""
    return float(np.cumsum(probs[mask])[-1]) if mask.any() else 0.0


def disconnect_probability(p: BiasMatrix, ell: LocalizationVector | None = None,
                           boundary: BoundaryAssignment | None = None,
                           ks=None, mode: str = "exact", budget: int = 20000,
                           seed: int = 0,
                           window_cap: int = DEFAULT_WINDOW_CAP,
                           enum_cap: int = DEFAULT_ENUM_CAP) -> ExperimentResult:
    """Probability that position k splits the configuration, vs the product bound."""
    n = p.n
    eps = p.epsilon
    if eps < 0:
        raise ContractError("needs a 0-positively biased instance")
    _check_mode(mode)
    i_off = boundary.i if boundary is not None else 0
    k_lo, k_hi = 1, n
    if boundary is not None:
        if ell is None:
            raise ContractError("boundary mode needs a localization vector")
        k_lo = max(boundary.i + ell.l_max_minus, 1)
        k_hi = n - boundary.j - ell.l_max_plus
    if ks is None:
        ks = list(range(k_lo, k_hi + 1))
    if not ks:
        raise ContractError(f"ks must be non-empty; the valid range is "
                            f"[{k_lo}, {k_hi}]")
    for k in ks:
        if not k_lo <= k <= k_hi:
            raise ContractError(
                f"k={k} outside the valid range [{k_lo}, {k_hi}]")
    fp = instance_fingerprint(p, ell)
    params = {"n": n, "ks": list(map(int, ks)), "mode": mode, "seed": seed,
              "boundary": boundary.values() if boundary else None}
    series = []
    violations = 0
    if mode == "exact":
        mu = enumerate_stationary(n, p, ell, enum_cap)
        states = mu.support
        probs = mu.probs
        if boundary is not None:
            pins = boundary.values()
            keep = np.all(states[:, [pos - 1 for pos in pins]]
                          == list(pins.values()), axis=1)
            if not keep.any():
                raise EmptySupport("boundary admits no localized completion")
            probs = probs[keep] / probs[keep].sum()
            states = states[keep]
        run_max = np.maximum.accumulate(states, axis=1)
        for k in ks:
            est = _mass(probs, run_max[:, k - 1] == k)
            bound = disconnect_product_bound(eps, k - i_off)
            series.append(SeriesPoint(k, est, 0.0, len(states)))
            if est < bound - 1e-12:
                violations += 1
        passed = violations == 0
    else:
        check_draw_memory(budget, n, "budget")
        if boundary is not None:
            dp = BandDP(p, ell, pins=boundary.values(), window_cap=window_cap)
            rows = dp.sample_rows(derive_rng(seed, experiment_id("disconnect")),
                                  budget)
        else:
            sampler = exact_localized_sampler(p, ell, window_cap=window_cap)
            rows = sampler.draw_rows(derive_rng(seed, experiment_id("disconnect")),
                                     budget)
        run_max = np.maximum.accumulate(rows, axis=1)
        for k in ks:
            hits = run_max[:, k - 1] == k
            est = float(np.mean(hits))
            se = _se_bernoulli(est, budget)
            bound = disconnect_product_bound(eps, k - i_off)
            series.append(SeriesPoint(k, est, se, budget))
            if est < bound - 3.0 * se:
                violations += 1
        passed = violations == 0
    verdict = Verdict(passed,
                      "P(k disconnecting) >= prod_m (1 - (1+eps)^-m)",
                      {"violations": violations,
                       "eps": eps if math.isfinite(eps) else "inf"})
    return ExperimentResult("disconnect_probability", fp, params, series,
                            verdict, {})


# ---------------------------------------------------------------------------
# spatial mixing decay
# ---------------------------------------------------------------------------

def spatial_decay_curve(p: BiasMatrix, ell: LocalizationVector,
                        eta: BoundaryAssignment, eta_bar: BoundaryAssignment,
                        rs, mode: str = "exact", budget: int = 4000,
                        seed: int = 0, threshold: float = 0.05,
                        r2_min: float = 0.9,
                        window_cap: int = DEFAULT_WINDOW_CAP) -> ExperimentResult:
    """TV between the two boundary-conditioned laws on the far region A_r.

    Exact mode computes the law of the placed-set cut word, which is a
    sufficient statistic for the far region; this is exact for one-sided
    boundaries, and for two-sided ones as long as no localization window can
    span the middle gap.  Sampled mode estimates the failure probability of
    the common-disconnecting-point coupling, an upper bound on the TV.
    """
    n = p.n
    _check_mode(mode)
    if eta.n != n or eta_bar.n != n or (eta.i, eta.j) != (eta_bar.i, eta_bar.j):
        raise ContractError("boundaries must pin the same positions")
    if not (eta.is_localized(ell) and eta_bar.is_localized(ell)):
        raise ContractError("boundaries must be localized")
    i, j = eta.i, eta.j
    fp = instance_fingerprint(p, ell)
    params = {"n": n, "i": i, "j": j, "rs": list(map(int, rs)), "mode": mode,
              "seed": seed, "eta": eta.values(), "eta_bar": eta_bar.values()}
    series = []
    identical = eta.values() == eta_bar.values()
    if mode == "exact":
        dpA = BandDP(p, ell, pins=eta.values(), window_cap=window_cap)
        dpB = BandDP(p, ell, pins=eta_bar.values(), window_cap=window_cap)
        for r in rs:
            m1, m2 = i + r, n - j - r
            if i and j:
                if m2 - m1 < ell.l_max_minus + ell.l_max_plus:
                    raise ContractError(
                        f"r={r}: windows can span the gap; exact mode needs "
                        "|A_r| >= l_max_minus + l_max_plus")
                tv = tv_distance(dpA.cut_pair_law(m1, m2), dpB.cut_pair_law(m1, m2))
            else:
                # a one-sided far region, [m1 + 1, n] or [1, m2], meets the
                # rest of the line only through the placed set at its cut
                cut, far = (m1, n - m1) if j == 0 else (m2, m2)
                if far <= 0:
                    raise ContractError(f"r={r} leaves an empty far region")
                tv = tv_distance(dpA.cut_law(cut), dpB.cut_law(cut))
            series.append(SeriesPoint(r, tv, 0.0, 1))
    else:
        # each boundary draws budget rows
        check_draw_memory(budget, n, "budget")
        rng = derive_rng(seed, experiment_id("spatial-coupling"))
        dpA = BandDP(p, ell, pins=eta.values(), window_cap=window_cap)
        dpB = BandDP(p, ell, pins=eta_bar.values(), window_cap=window_cap)
        rowsA = dpA.sample_rows(rng, budget)
        rowsB = dpB.sample_rows(rng, budget)
        runA = np.maximum.accumulate(rowsA, axis=1)
        runB = np.maximum.accumulate(rowsB, axis=1)
        sites = np.arange(1, n + 1)
        discA = runA == sites[None, :]
        discB = runB == sites[None, :]
        both = discA & discB
        if j > 0:
            rminA = np.minimum.accumulate(rowsA[:, ::-1], axis=1)[:, ::-1]
            rminB = np.minimum.accumulate(rowsB[:, ::-1], axis=1)[:, ::-1]
            rboth = (rminA == sites[None, :]) & (rminB == sites[None, :])
        for r in rs:
            m1, m2 = i + r, n - j - r
            # a common disconnecting point between each boundary and A_r
            hit = np.ones(budget, dtype=bool)
            if i or not j:
                hit &= np.any(both[:, i:m1], axis=1)
            if j:
                hit &= np.any(rboth[:, max(m2, 0):n - j], axis=1)
            fail = 1.0 - float(np.mean(hit))
            series.append(SeriesPoint(r, fail, _se_bernoulli(fail, budget),
                                      budget))
    tvs = [pt.estimate for pt in series]
    monotone = all(tvs[a + 1] <= tvs[a] + 1e-9 for a in range(len(tvs) - 1))
    below = tvs[-1] <= threshold if tvs else True
    logs = [(pt.x, math.log(pt.estimate)) for pt in series if pt.estimate > 0]
    if identical or len(logs) < 3:
        fit = {"slope": None, "slope_se": None, "r2": None,
               "no_fit": "eta equals eta_bar: no decay to fit" if identical
               else "fewer than three positive TVs to fit"}
        decay_ok = all(v == 0.0 for v in tvs) if identical else True
    else:
        fit = _ols([x for x, _ in logs], [y for _, y in logs])
        decay_ok = (fit["slope"] is not None and fit["slope"] < 0
                    and fit["r2"] >= r2_min)
    passed = monotone and below and decay_ok
    verdict = Verdict(passed,
                      f"TV nonincreasing in r, <= {threshold} at r_max, "
                      f"log-TV slope < 0 with R^2 >= {r2_min}",
                      {"monotone": monotone, "final_tv": tvs[-1] if tvs else 0.0,
                       **fit})
    return ExperimentResult("spatial_decay_curve", fp, params, series,
                            verdict, {})


# ---------------------------------------------------------------------------
# block decomposition inequality
# ---------------------------------------------------------------------------

def block_decomposition_check(n: int, p: BiasMatrix,
                              ell: LocalizationVector | None,
                              schedule: BlockSchedule,
                              enum_cap: int = DEFAULT_ENUM_CAP) -> ExperimentResult:
    """Exact check of gap(AT) >= chi^-1 * gap(block) * min gap(AT on a block)."""
    schedule.check_size(n)
    if ell is None and p.dense().min() > 0.0:
        # no window and no forbidden pair: all n! states carry weight, so
        # the dense block kernel can refuse before the enumeration
        check_dense_kernel(math.factorial(n))
    mu = enumerate_stationary(n, p, ell, enum_cap)
    # the dense block kernel refuses above the memory budget before any gap
    K = exact_block_kernel(mu, schedule)
    P = build_transition_matrix(p, mu)
    gap_at = spectral_gap(P, mu)
    gap_block = spectral_gap(K, mu)
    min_sub = math.inf
    sub_records = []
    for a, b in schedule.blocks():
        for left, right in dict.fromkeys((tuple(s[:a - 1]), tuple(s[b:]))
                                         for s in mu.support.tolist()):
            bnd = BoundaryAssignment(n, left, right)
            sub_p, sub_ell, _ = restrict_instance(bnd, p, ell)
            m = bnd.interior_size
            if m <= 1:
                gap = 1.0
            else:
                mu_sub = enumerate_stationary(m, sub_p, sub_ell, enum_cap)
                P_sub = build_transition_matrix(sub_p, mu_sub)
                gap = spectral_gap(P_sub, mu_sub)
            min_sub = min(min_sub, gap)
            sub_records.append({"block": [a, b], "eta": list(left) + list(right),
                                "gap": gap})
    chi = schedule.chi()
    rhs = gap_block * min_sub / chi
    slack = gap_at - rhs
    passed = gap_at >= rhs - 1e-9
    series = [SeriesPoint(0, gap_at, 0.0, 1),
              SeriesPoint(1, gap_block, 0.0, 1),
              SeriesPoint(2, min_sub, 0.0, 1)]
    verdict = Verdict(passed,
                      "gap(AT) >= chi^-1 * gap(block) * min_eta gap(AT(B^eta))",
                      {"gap_at": gap_at, "gap_block": gap_block,
                       "min_sub_gap": min_sub, "chi": chi, "slack": slack})
    return ExperimentResult(
        "block_decomposition_check", instance_fingerprint(p, ell),
        {"n": n, "schedule": schedule.kind, "selection": schedule.selection},
        series, verdict, {"sub_gaps": sub_records[:50]})


# ---------------------------------------------------------------------------
# ASEP stationary tails
# ---------------------------------------------------------------------------

def asep_tail_check(n: int, k: int, q: float, rs=None,
                    cap_states: int = 200000) -> ExperimentResult:
    """Right-most particle tail of the ASEP stationary law vs exp(-eps' r/4)."""
    if not (k >= 0 and 0.5 < q < 1.0):
        raise ContractError(
            f"needs k >= 0 and 1/2 < q < 1, got k = {k}, q = {q!r}")
    eps = q / (1.0 - q) - 1.0
    eps_p = min(eps, 1.0)
    r_min = (4.0 / eps_p) * math.log(2.0 / eps_p)
    if rs is None:
        rs = list(range(1, n - k + 2))
    series = []
    violations = 0
    judged = 0
    for r in rs:
        tail = asep_rightmost_tail(n, k, q, r)
        series.append(SeriesPoint(r, tail, 0.0, 1))
        if r >= r_min:
            judged += 1
            if tail > math.exp(-eps_p * r / 4.0) + 1e-12:
                violations += 1
    exact_crosscheck = None
    if math.comb(n, k) <= 20000:
        nu = asep_stationary(n, k, q, cap_states=cap_states)
        # the rightmost occupied site of each state, 0 for the empty one
        rightmost = np.max(nu.support * np.arange(1, n + 1), axis=1)
        worst = 0.0
        for r in rs:
            direct = _mass(nu.probs, rightmost >= k + r)
            worst = max(worst, abs(direct - asep_rightmost_tail(n, k, q, r)))
        exact_crosscheck = worst
    passed = violations == 0
    verdict = Verdict(passed,
                      f"tail(r) <= exp(-eps' r / 4) for r >= {r_min:.3g}",
                      {"violations": violations, "judged": judged,
                       "eps_prime": eps_p,
                       "enumeration_crosscheck": exact_crosscheck})
    return ExperimentResult(
        "asep_tail_check", f"asep:{n}:{k}:{q!r}",
        {"n": n, "k": k, "q": q, "rs": list(map(int, rs))},
        series, verdict, {})


# ---------------------------------------------------------------------------
# mixing time scaling
# ---------------------------------------------------------------------------

def _coalescence_worker(args):
    n, k, q, seed, t_cap = args
    return asep_pair_coalescence(n, k, q, seed, t_cap)


def mixing_scaling(ns, family: dict, delta: float = 0.25,
                   method: str = "coupling", budget: int = 16, seed: int = 0,
                   jobs: int = 1, slope_window=(1.7, 2.3),
                   enum_cap: int = DEFAULT_ENUM_CAP) -> ExperimentResult:
    """Mixing-time scaling in n: exact small-n values or coupling estimates."""
    if not 0 < delta <= 0.5:
        raise ContractError(f"delta must be in (0, 0.5], got {delta!r}")
    if method in ("coupling", "statistic") and len(set(ns)) < 2:
        raise ContractError(f"{method} mode fits a slope over n; it needs at "
                            f"least two distinct sizes, got {list(ns)}")
    params = {"ns": list(map(int, ns)), "family": family, "delta": delta,
              "method": method, "budget": budget, "seed": seed}
    series = []
    meta = {}
    if method == "exact":
        meta["tv_curves"] = {}
        for n in ns:    # refuse an oversized n before the first enumeration
            check_enumerable(n, enum_cap)
        for n in ns:
            p = make_family(n, family, seed)
            mu = enumerate_stationary(n, p, cap=enum_cap)
            P = build_transition_matrix(p, mu)
            t_mix, curve = exact_mixing_time(P, mu, delta)
            meta["tv_curves"][str(n)] = [float(v) for v in curve]
            series.append(SeriesPoint(n, float(t_mix), 0.0, 1))
        verdict = Verdict(True, "record-only: exact small-n reference table",
                          _ols(np.log([pt.x for pt in series]),
                               np.log([max(pt.estimate, 1.0)
                                       for pt in series])))
    elif method == "coupling":
        if family.get("kind") not in ("constant-q", "constant-eps"):
            raise ContractError("coupling mode works on the constant-bias family")
        q = (float(family["q"]) if family["kind"] == "constant-q"
             else _q_from_epsilon(float(family["eps"])))
        if not 0.5 < q <= 1.0:
            raise ContractError(f"coupling mode needs q in (1/2, 1], "
                                f"got q = {q!r}")
        work = []
        for n in ns:
            k = n // 2
            t_cap = int(40 * n * n / (2 * q - 1))
            for rep in range(budget):
                work.append((n, k, q, int(derive_rng(seed, experiment_id(
                    "asep-coalescence"), n, rep).integers(0, 2 ** 62)), t_cap))
        if jobs > 1:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=jobs) as ex:
                times = list(ex.map(_coalescence_worker, work))
        else:
            times = [_coalescence_worker(w) for w in work]
        for j, n in enumerate(ns):
            ts = times[j * budget:(j + 1) * budget]
            if any(t is None for t in ts):
                raise CapExceeded(f"coalescence budget exhausted at n={n}")
            ts = np.array(ts, dtype=np.float64)
            series.append(SeriesPoint(n, float(ts.mean()),
                                      float(ts.std(ddof=1) / math.sqrt(len(ts))),
                                      budget))
        fit = _ols(np.log(list(map(float, ns))),
                   np.log([pt.estimate for pt in series]))
        lo, hi = slope_window
        verdict = Verdict(lo <= fit["slope"] <= hi,
                          f"log-log slope in [{lo}, {hi}]", fit)
        meta["starts"] = "right-packed vs left-packed (top/bottom sandwich)"
    elif method == "statistic":
        lbs, ubs = [], []
        for n in ns:
            lb, ub, meta[f"n{n}"] = _statistic_bracket(
                n, make_family(n, family, seed), delta, budget, seed)
            lbs.append(lb)
            ubs.append(ub)
            series.append(SeriesPoint(n, float(ub), 0.0, budget))
        passed = all(lb <= ub for lb, ub in zip(lbs, ubs))
        fit = _ols(np.log(list(map(float, ns))),
                   np.log([max(u, 1.0) for u in ubs]))
        verdict = Verdict(passed, "bracket consistency T_lb <= T_ub",
                          {"lower_bounds": lbs, "upper_bounds": ubs,
                           "ub_slope": fit["slope"], "r2": fit["r2"]})
        meta["starts"] = ("identity vs reversal, the extremes of every "
                          "threshold projection")
    else:
        raise ContractError(f"unknown method {method}")
    return ExperimentResult(
        "mixing_scaling", f"family:{json.dumps(family, sort_keys=True)}",
        params, series, verdict, meta)


def _statistic_bracket(n: int, p: BiasMatrix, delta: float, budget: int,
                       seed: int):
    """Bracket T_mix: statistic TV lower bound and twin-coalescence upper bound.

    The lower bound compares against exact reference draws, which only
    constant-bias instances have at every n.  The upper bound is the
    ceil((1 - delta) m)-th smallest of m twin meeting times, rounded so that
    a decimal delta such as 0.3 is not pushed up a rank by float error.
    """
    if p.constant_q() is None:
        raise ContractError("statistic mode needs a constant-bias family; "
                            "this instance has no reference sampler")
    rng = derive_rng(seed, experiment_id("statistic-mode"), n)
    replicas = max(200, budget)
    grid = sorted({max(1, int(c * n * n)) for c in
                   (0.125, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)})
    starts = _start_rows(n, "reversal", replicas, rng)
    hist = {}

    def snap(t, F):
        hist[t] = np.argmax(F == 1, axis=1) + 1

    ensemble_chain_run(p, starts, grid[-1], rng, checkpoints=grid,
                       checkpoint_fn=snap)
    ref_rows = exact_localized_sampler(p, None).draw_rows(rng, 20000)
    Rr = ref_rows.shape[0]
    inv1 = np.argmax(ref_rows == 1, axis=1) + 1
    ref_counts = np.bincount(inv1, minlength=n + 1)[1:] / Rr
    null_a = np.bincount(inv1[:Rr // 2], minlength=n + 1)[1:] / (Rr // 2)
    null_b = np.bincount(inv1[Rr // 2:], minlength=n + 1)[1:] / (Rr - Rr // 2)
    bias0 = 0.5 * float(np.sum(np.abs(null_a - null_b)))
    t_lb = 0
    for t in grid:
        emp = np.bincount(hist[t], minlength=n + 1)[1:] / replicas
        tv = 0.5 * float(np.sum(np.abs(emp - ref_counts)))
        if tv > delta + bias0:
            t_lb = t
    times = []
    for rep in range(max(4, budget // 4)):
        t, _ = twin_chain_coupling_run(
            Permutation.identity(n), Permutation.reversal(n), p, None,
            T=int(40 * n * n), seed=int(derive_rng(
                seed, experiment_id("twin-ub"), n, rep).integers(0, 2 ** 62)))
        if t is None:
            raise CapExceeded(f"twin coupling did not coalesce at n={n}")
        times.append(t)
    t_ub = sorted(times)[math.ceil(round((1.0 - delta) * len(times), 9)) - 1]
    return t_lb, t_ub, {"grid": grid, "bias0": bias0,
                        "coalescence_times": times,
                        "t_lb_censored": t_lb == grid[-1],
                        "ub_over_lb": t_ub / t_lb if t_lb else None}


# ---------------------------------------------------------------------------
# the lower-bound experiment
# ---------------------------------------------------------------------------

def lower_bound_experiment(n: int, p: BiasMatrix, eta: float = 0.5,
                           replicas: int = 500, seed: int = 0,
                           threshold: float = 0.05,
                           ref_min: float = 0.99) -> ExperimentResult:
    """From the reversal start, particle 1 cannot reach [sqrt n] early.

    Estimates P(position of particle 1 <= sqrt(n) at t = (1-eta) n^2) and
    contrasts it with the stationary probability of the same event, which is
    certified >= 1 - (1+eps)^(-sqrt n) by the geometric location bound and
    estimated by exact sampling when the instance allows it.
    """
    if not 0.0 < eta < 1.0:
        raise ContractError("eta must lie in (0, 1)")
    if replicas < 1:
        raise ContractError(f"replicas must be >= 1, got {replicas}")
    eps = p.epsilon
    if eps < 0:
        raise ContractError("the certificate needs a 0-positively biased instance")
    t_run = int(round((1.0 - eta) * n * n))
    s = int(math.isqrt(n))
    rng = derive_rng(seed, experiment_id("lower-bound"))
    starts = _start_rows(n, "reversal", replicas, rng)
    F = ensemble_chain_run(p, starts, t_run, rng)
    hit = np.argmax(F == 1, axis=1) + 1 <= s
    est = float(np.mean(hit))
    se = _se_bernoulli(est, replicas)
    ref_cert = 1.0 - geometric_bound(eps, s)
    ref_mc = None
    ref_mc_se = None
    try:
        sampler = exact_localized_sampler(p, None)
        rows = sampler.draw_rows(rng, 20000)
        pos1 = np.argmax(rows == 1, axis=1) + 1
        ref_mc = float(np.mean(pos1 <= s))
        ref_mc_se = _se_bernoulli(ref_mc, rows.shape[0])
    except CapExceeded:
        pass
    ref_ok = ref_cert >= ref_min or (
        ref_mc is not None and ref_mc - 3.0 * ref_mc_se >= ref_min)
    passed = (est <= threshold + 3.0 * se) and ref_ok
    series = [SeriesPoint(t_run, est, se, replicas)]
    verdict = Verdict(passed,
                      f"P(pos(1) <= sqrt n at t=(1-eta)n^2) <= {threshold} "
                      f"while stationary P >= {ref_min}",
                      {"estimate": est, "stderr": se,
                       "stationary_certified": ref_cert,
                       "stationary_mc": ref_mc, "stationary_mc_se": ref_mc_se})
    return ExperimentResult(
        "lower_bound_experiment", instance_fingerprint(p, None),
        {"n": n, "eta": eta, "replicas": replicas, "seed": seed,
         "t": t_run, "s": s},
        series, verdict, {})


# ---------------------------------------------------------------------------
# block-dynamics mixing
# ---------------------------------------------------------------------------

# the shared part of every task of a block_chain_mixing pool, set once per
# worker process by the pool initializer, so that each worker has its own
# copy of the run's sampler cache
_block_instance = None


def _set_block_instance(instance):
    global _block_instance
    _block_instance = instance


def _twin_block_time(instance, seed):
    bottom, top, p, ell, schedule, step_cap, cache = instance
    t, _ = twin_chain_coupling_run(bottom, top, p, ell, step_cap, seed,
                                   driver="block", schedule=schedule,
                                   cache=cache)
    return t


def _twin_block_worker(seed):
    return _twin_block_time(_block_instance, seed)


def block_chain_mixing(n: int, p: BiasMatrix, ell: LocalizationVector,
                       schedule: BlockSchedule, replicas: int = 200,
                       step_cap: int = 50, success_frac: float = 0.95,
                       seed: int = 0, jobs: int = 1) -> ExperimentResult:
    """Twin restricted block chains from extreme starts: coalescence histogram.

    At enumerable sizes the exact inverse gap of the restricted block kernel
    is recorded alongside.  The replicas share one sampler cache per process,
    as they update the same blocks of one instance.
    """
    for key, value in (("replicas", replicas), ("step_cap", step_cap),
                       ("jobs", jobs)):
        if not _is_integer(value):
            raise ContractError(f"{key} must be an integer, got {value!r}")
        if value < 1:
            raise ContractError(f"{key} must be >= 1, got {value}")
    if not 0.0 < success_frac <= 1.0:
        raise ContractError(
            f"success_frac must lie in (0, 1], got {success_frac!r}")
    instance = (Permutation.identity(n), max_localized_state(ell), p, ell,
                schedule, step_cap, SamplerCache())
    seeds = [int(derive_rng(seed, experiment_id("twin-block"), rep).integers(0, 2 ** 62))
             for rep in range(replicas)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs, initializer=_set_block_instance,
                                 initargs=(instance,)) as ex:
            times = list(ex.map(_twin_block_worker, seeds))
    else:
        times = [_twin_block_time(instance, s) for s in seeds]
    hit = np.array([t is not None for t in times])
    frac = float(np.mean(hit))
    se = _se_bernoulli(frac, replicas)
    finite = sorted(t for t in times if t is not None)
    series = []
    if finite:
        counts = np.bincount(finite, minlength=step_cap + 1)
        cum = 0
        for t in range(1, step_cap + 1):
            cum += int(counts[t]) if t < len(counts) else 0
            series.append(SeriesPoint(t, cum / replicas,
                                      _se_bernoulli(cum / replicas, replicas),
                                      replicas))
    meta = {"median_time": float(np.median(finite)) if finite else None,
            "max_time": max(finite) if finite else None}
    if n <= DEFAULT_ENUM_CAP:
        mu = enumerate_stationary(n, p, ell)
        try:
            K = exact_block_kernel(mu, schedule)
        except CapExceeded:     # a dense kernel above the memory budget
            pass
        else:
            meta["exact_inverse_block_gap"] = 1.0 / spectral_gap(K, mu)
    passed = frac >= success_frac - 3.0 * se
    verdict = Verdict(passed,
                      f"P(coalescence within {step_cap} block steps) >= "
                      f"{success_frac}",
                      {"fraction": frac, "stderr": se})
    return ExperimentResult(
        "block_chain_mixing", instance_fingerprint(p, ell),
        {"n": n, "schedule": schedule.kind, "replicas": replicas,
         "step_cap": step_cap, "seed": seed},
        series, verdict, meta)
