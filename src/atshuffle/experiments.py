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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .banddp import BandDP, DEFAULT_WINDOW_CAP, exact_localized_sampler
from .chains import (BlockSchedule, asep_pair_coalescence,
                     asep_rightmost_tail, asep_stationary,
                     derive_rng, ensemble_chain_run,
                     ensemble_max_displacement, exact_block_kernel,
                     experiment_id, twin_chain_coupling_run)
from .errors import CapExceeded, ContractError, EmptySupport
from .measure import (DEFAULT_ENUM_CAP, build_transition_matrix,
                      check_enumerable, enumerate_stationary,
                      exact_mixing_time, spectral_gap, tv_distance)
from .perms import (BiasMatrix, BoundaryAssignment, LocalizationVector,
                    Permutation, instance_fingerprint, inverse_rows,
                    max_localized_state, random_admissible_localization,
                    restrict_instance)

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

    def _fields(self) -> dict:
        """The record's top-level entries other than the series."""
        return {
            "schema": 1,
            "experiment": self.experiment,
            "fingerprint": self.fingerprint,
            "params": _plain(self.params),
            "verdict": self.verdict.as_dict(),
            "meta": _plain(self.meta),
        }

    def to_json_dict(self) -> dict:
        return {**self._fields(),
                "series": [pt.as_dict() for pt in self.series]}

    def write(self, outdir, stem: str) -> list:
        """Write <stem>.json and <stem>.csv into outdir; returns the paths.

        <stem>.json holds the bytes of ``json.dump(self.to_json_dict(), fh,
        sort_keys=True, indent=1)`` and a newline.  The series, the one entry
        that grows with the run, is formatted from ``repr`` of its columns
        instead of going through json's pure-Python indenting encoder.
        """
        import os
        os.makedirs(outdir, exist_ok=True)
        jpath = os.path.join(outdir, f"{stem}.json")
        cpath = os.path.join(outdir, f"{stem}.csv")
        # the one line that starts with a single space and "series" holds the
        # top-level series: nested keys sit deeper, and json escapes newlines
        # inside strings
        head, _, tail = json.dumps(
            {**self._fields(), "series": None}, sort_keys=True,
            indent=1).partition('\n "series": null')
        with open(jpath, "w") as jfh, open(cpath, "w") as cfh:
            jfh.write(head + '\n "series": ')
            cfh.write("x,estimate,stderr\n")
            for jtext, ctext in _series_texts(self.series):
                jfh.write(jtext)
                cfh.write(ctext)
            jfh.write(tail + "\n")
        return [jpath, cpath]


# series points formatted per write, so that the text held at once stays a
# few MB whatever the length of the series
_SERIES_CHUNK = 4096
# one series point as json.dump(..., sort_keys=True, indent=1) nests it
_POINT_JSON = ('  {\n   "estimate": %s,\n   "n_replicas": %s,\n'
               '   "stderr": %s,\n   "x": %s\n  }')


def _list_items(encoded: str) -> list:
    """The item texts of the repr ``[a, b, ...]`` of a list of numbers."""
    return encoded[1:-1].split(", ") if encoded != "[]" else []


def _json_floats(encoded: str) -> str:
    """json's spelling of the repr of a list of floats: it writes nan, inf
    and -inf, which occur in no finite float's repr, as NaN, Infinity and
    -Infinity, and every other float as repr does."""
    return encoded.replace("nan", "NaN").replace("inf", "Infinity")


def _series_texts(series: list):
    """Yield (JSON, CSV) text pieces of a series: the JSON pieces join to
    result.json's series entry, the CSV pieces to result.csv's rows."""
    if not series:
        yield "[]", ""
        return
    for start in range(0, len(series), _SERIES_CHUNK):
        part = series[start:start + _SERIES_CHUNK]
        xs = repr([float(pt.x) for pt in part])
        ests = repr([float(pt.estimate) for pt in part])
        ses = repr([float(pt.stderr) for pt in part])
        reps = _list_items(repr([int(pt.n_replicas) for pt in part]))
        jx, je, js = (_list_items(_json_floats(col)) for col in (xs, ests, ses))
        points = ",\n".join(map(_POINT_JSON.__mod__, zip(je, reps, js, jx)))
        rows = "".join(f"{x},{e},{s}\n" for x, e, s
                       in zip(*map(_list_items, (xs, ests, ses))))
        yield ("[\n" if start == 0 else ",\n") + points, rows
    yield "\n ]", ""


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


def _ols(x, y):
    """Least squares line fit: slope, intercept, slope stderr, R^2."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m = len(x)
    if m < 2:
        return math.nan, math.nan, math.inf, 0.0
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
    return slope, intercept, se, r2


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
    raise ContractError(f"unknown family kind {kind}")


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


# ---------------------------------------------------------------------------
# burn-in
# ---------------------------------------------------------------------------

def _start_rows(n: int, init, replicas: int, rng) -> np.ndarray:
    if isinstance(init, Permutation):
        return np.tile(init.forward, (replicas, 1))
    if init == "identity":
        return np.tile(np.arange(1, n + 1), (replicas, 1))
    if init == "reversal":
        return np.tile(np.arange(n, 0, -1), (replicas, 1))
    if init == "random":
        return np.array([rng.permutation(n) + 1 for _ in range(replicas)])
    raise ContractError(f"unknown start {init}")


def burn_in_profile(n: int, p: BiasMatrix, init="reversal", T: int | None = None,
                    checkpoints=None, replicas: int = 100, seed: int = 0,
                    ell: LocalizationVector | None = None,
                    quantile: float = 0.99) -> ExperimentResult:
    """Max-displacement profile of an ensemble along the run.

    The verdict compares the terminal displacement quantile against
    c0_log * log(n), c0_log from the frozen calibration.
    """
    if T is None:
        T = 8 * n * n
    if checkpoints is None:
        checkpoints = sorted({0, T // 8, T // 4, T // 2, (3 * T) // 4, T})
    c0 = BURNIN_THRESHOLDS["c0_log"]
    rng = derive_rng(seed, experiment_id("burn-in"), n)
    starts = _start_rows(n, init, replicas, rng)
    profile = {}

    def snap(t, F, INV):
        profile[t] = ensemble_max_displacement(INV).copy()

    ensemble_chain_run(p, starts, T, rng, ell=ell, checkpoints=checkpoints,
                       checkpoint_fn=snap)
    series = []
    for t in sorted(profile):
        d = profile[t]
        series.append(SeriesPoint(t, float(np.quantile(d, quantile)),
                                  float(d.std(ddof=1) / math.sqrt(len(d))),
                                  replicas))
    threshold = c0 * math.log(max(n, 2))
    final = profile[max(profile)]
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

def localization_tail_check(n: int, p: BiasMatrix,
                            ell: LocalizationVector | None = None,
                            samples: int = 20000, seed: int = 0,
                            mode: str | None = None,
                            rs=None) -> ExperimentResult:
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
    fp = instance_fingerprint(p, ell)
    params = {"n": n, "mode": mode, "seed": seed, "samples": samples,
              "eps": eps if math.isfinite(eps) else "inf"}
    if mode == "exact":
        mu = enumerate_stationary(n, p, ell)
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
    disp = np.abs(inverse_rows(rows) - np.arange(1, n + 1)[None, :])
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
    slope, _, se_slope, r2 = _ols([x for x, _ in logs], [y for _, y in logs])
    target = -math.log1p(eps)
    passed = slope <= target + 3.0 * se_slope
    verdict = Verdict(passed,
                      "displacement tail rate decays at least like (1+eps)^-r",
                      {"slope": slope, "slope_se": se_slope, "target": target,
                       "r2": r2, "strategy": sampler.strategy})
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
                           seed: int = 0, window_cap: int | None = None) -> ExperimentResult:
    """Probability that position k splits the configuration, vs the product bound."""
    n = p.n
    eps = p.epsilon
    if eps < 0:
        raise ContractError("needs a 0-positively biased instance")
    i_off = boundary.i if boundary is not None else 0
    k_lo, k_hi = 1, n
    if boundary is not None:
        if ell is None:
            raise ContractError("boundary mode needs a localization vector")
        k_lo = max(boundary.i + ell.l_max_minus, 1)
        k_hi = n - boundary.j - ell.l_max_plus
    if ks is None:
        ks = list(range(k_lo, k_hi + 1))
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
        mu = enumerate_stationary(n, p, ell)
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
        cap = DEFAULT_WINDOW_CAP if window_cap is None else window_cap
        if boundary is not None:
            dp = BandDP(p, ell, pins=boundary.values(), window_cap=cap)
            rows = dp.sample_rows(derive_rng(seed, experiment_id("disconnect")),
                                  budget)
        else:
            sampler = exact_localized_sampler(p, ell, window_cap=cap)
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
                      {"violations": violations, "eps": _plain(eps)})
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
                        window_cap: int | None = None) -> ExperimentResult:
    """TV between the two boundary-conditioned laws on the far region A_r.

    Exact mode computes the law of the placed-set cut word, which is a
    sufficient statistic for the far region; this is exact for one-sided
    boundaries, and for two-sided ones as long as no localization window can
    span the middle gap.  Sampled mode estimates the failure probability of
    the common-disconnecting-point coupling, an upper bound on the TV.
    """
    n = p.n
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
    cap = DEFAULT_WINDOW_CAP if window_cap is None else window_cap
    if mode == "exact":
        dpA = BandDP(p, ell, pins=eta.values(), window_cap=cap)
        dpB = BandDP(p, ell, pins=eta_bar.values(), window_cap=cap)
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
    elif mode == "sampled":
        rng = derive_rng(seed, experiment_id("spatial-coupling"))
        dpA = BandDP(p, ell, pins=eta.values(), window_cap=cap)
        dpB = BandDP(p, ell, pins=eta_bar.values(), window_cap=cap)
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
    else:
        raise ContractError(f"unknown mode {mode}")
    tvs = [pt.estimate for pt in series]
    monotone = all(tvs[a + 1] <= tvs[a] + 1e-9 for a in range(len(tvs) - 1))
    below = tvs[-1] <= threshold if tvs else True
    logs = [(pt.x, math.log(pt.estimate)) for pt in series if pt.estimate > 0]
    if identical or len(logs) < 3:
        slope, se_slope, r2 = -math.inf, 0.0, 1.0
        decay_ok = all(v == 0.0 for v in tvs) if identical else True
    else:
        slope, _, se_slope, r2 = _ols([x for x, _ in logs],
                                      [y for _, y in logs])
        decay_ok = slope < 0 and r2 >= r2_min
    passed = monotone and below and decay_ok
    verdict = Verdict(passed,
                      f"TV nonincreasing in r, <= {threshold} at r_max, "
                      f"log-TV slope < 0 with R^2 >= {r2_min}",
                      {"monotone": monotone, "final_tv": tvs[-1] if tvs else 0.0,
                       "slope": slope, "slope_se": se_slope, "r2": r2})
    return ExperimentResult("spatial_decay_curve", fp, params, series,
                            verdict, {})


# ---------------------------------------------------------------------------
# block decomposition inequality
# ---------------------------------------------------------------------------

def block_decomposition_check(n: int, p: BiasMatrix,
                              ell: LocalizationVector | None,
                              schedule: BlockSchedule) -> ExperimentResult:
    """Exact check of gap(AT) >= chi^-1 * gap(block) * min gap(AT on a block)."""
    blocks = schedule.blocks()
    for blk in blocks:
        if len(blk) != 1:
            raise ContractError(
                "decomposition check supports interval blocks only")
    mu = enumerate_stationary(n, p, ell)
    # the dense block kernel refuses above the memory budget before any gap
    K = exact_block_kernel(n, p, ell, schedule, mu=mu)
    P = build_transition_matrix(n, p, ell, mu=mu)
    gap_at = spectral_gap(P, mu)
    gap_block = spectral_gap(K, mu)
    min_sub = math.inf
    sub_records = []
    for blk in blocks:
        a, b = blk[0]
        for left, right in dict.fromkeys((tuple(s[:a - 1]), tuple(s[b:]))
                                         for s in mu.support.tolist()):
            bnd = BoundaryAssignment(n, left, right)
            sub_p, sub_ell, _ = restrict_instance(bnd, p, ell)
            m = bnd.interior_size
            if m <= 1:
                gap = 1.0
            else:
                mu_sub = enumerate_stationary(m, sub_p, sub_ell)
                P_sub = build_transition_matrix(m, sub_p, sub_ell, mu=mu_sub)
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
    eps = q / (1.0 - q) - 1.0
    if eps <= 0:
        raise ContractError("needs q > 1/2")
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
                   jobs: int = 1, slope_window=(1.7, 2.3)) -> ExperimentResult:
    """Mixing-time scaling in n: exact small-n values or coupling estimates."""
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
            check_enumerable(n)
        for n in ns:
            p = make_family(n, family, seed)
            mu = enumerate_stationary(n, p)
            P = build_transition_matrix(n, p, mu=mu)
            t_mix, curve = exact_mixing_time(P, mu, delta)
            meta["tv_curves"][str(n)] = [float(v) for v in curve]
            series.append(SeriesPoint(n, float(t_mix), 0.0, 1))
        slope, _, se_slope, r2 = _ols(np.log([pt.x for pt in series]),
                                      np.log([max(pt.estimate, 1.0)
                                              for pt in series]))
        verdict = Verdict(True, "record-only: exact small-n reference table",
                          {"slope": slope, "slope_se": se_slope, "r2": r2})
    elif method == "coupling":
        if family.get("kind") not in ("constant-q", "constant-eps"):
            raise ContractError("coupling mode works on the constant-bias family")
        q = (float(family["q"]) if family["kind"] == "constant-q"
             else (1.0 + family["eps"]) / (2.0 + family["eps"]))
        work = []
        for n in ns:
            k = n // 2
            t_cap = int(40 * n * n / (2 * q - 1))
            for rep in range(budget):
                work.append((n, k, q, int(derive_rng(seed, experiment_id(
                    "asep-coalescence"), n, rep).integers(0, 2 ** 62)), t_cap))
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as ex:
                times = list(ex.map(_coalescence_worker, work))
        else:
            times = [_coalescence_worker(w) for w in work]
        idx = 0
        means = []
        for n in ns:
            ts = times[idx:idx + budget]
            idx += budget
            if any(t is None for t in ts):
                raise CapExceeded(f"coalescence budget exhausted at n={n}")
            ts = np.array(ts, dtype=np.float64)
            series.append(SeriesPoint(n, float(ts.mean()),
                                      float(ts.std(ddof=1) / math.sqrt(len(ts))),
                                      budget))
            means.append(float(ts.mean()))
        slope, _, se_slope, r2 = _ols(np.log(list(map(float, ns))), np.log(means))
        lo, hi = slope_window
        passed = lo <= slope <= hi
        verdict = Verdict(passed, f"log-log slope in [{lo}, {hi}]",
                          {"slope": slope, "slope_se": se_slope, "r2": r2})
        meta["starts"] = "right-packed vs left-packed (top/bottom sandwich)"
    elif method == "statistic":
        lbs, ubs = [], []
        for n in ns:
            p = make_family(n, family, seed)
            lb, ub, info = _statistic_bracket(n, p, delta, budget, seed)
            lbs.append(lb)
            ubs.append(ub)
            series.append(SeriesPoint(n, float(ub), 0.0, budget))
            meta[f"n{n}"] = info
        passed = all(lb <= ub for lb, ub in zip(lbs, ubs))
        slope, _, se_slope, r2 = _ols(np.log(list(map(float, ns))),
                                      np.log([max(u, 1.0) for u in ubs]))
        verdict = Verdict(passed, "bracket consistency T_lb <= T_ub",
                          {"lower_bounds": lbs, "upper_bounds": ubs,
                           "ub_slope": slope, "r2": r2})
        meta["starts"] = "identity vs reversal (selected, not maximized)"
    else:
        raise ContractError(f"unknown method {method}")
    return ExperimentResult(
        "mixing_scaling", f"family:{json.dumps(family, sort_keys=True)}",
        params, series, verdict, meta)


def _statistic_bracket(n: int, p: BiasMatrix, delta: float, budget: int,
                       seed: int):
    """Bracket T_mix: statistic TV lower bound and twin-coalescence upper bound.

    The lower bound compares against exact reference draws, which only
    constant-bias instances have at every n.
    """
    if p.constant_q() is None:
        raise ContractError("statistic mode needs a constant-bias family; "
                            "this instance has no reference sampler")
    rng = derive_rng(seed, experiment_id("statistic-mode"), n)
    replicas = max(200, budget)
    grid = sorted({max(1, int(c * n * n)) for c in
                   (0.125, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)})
    starts = np.tile(np.arange(n, 0, -1), (replicas, 1))
    hist = {}

    def snap(t, F, INV):
        hist[t] = INV[:, 0].copy()

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
    t_ub = int(np.median(times))
    return t_lb, t_ub, {"grid": grid, "bias0": bias0,
                        "coalescence_times": times}


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
    t_run = int(round((1.0 - eta) * n * n))
    s = int(math.isqrt(n))
    rng = derive_rng(seed, experiment_id("lower-bound"))
    starts = np.tile(np.arange(n, 0, -1), (replicas, 1))
    F, INV = ensemble_chain_run(p, starts, t_run, rng)
    hit = INV[:, 0] <= s
    est = float(np.mean(hit))
    se = _se_bernoulli(est, replicas)
    eps = p.epsilon
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
# worker process by the pool initializer
_block_instance = None


def _set_block_instance(instance):
    global _block_instance
    _block_instance = instance


def _twin_block_time(instance, seed):
    bottom, top, p, ell, schedule, step_cap = instance
    t, _ = twin_chain_coupling_run(bottom, top, p, ell, step_cap, seed,
                                   driver="block", schedule=schedule)
    return t


def _twin_block_worker(seed):
    return _twin_block_time(_block_instance, seed)


def block_chain_mixing(n: int, p: BiasMatrix, ell: LocalizationVector,
                       schedule: BlockSchedule, replicas: int = 200,
                       step_cap: int = 50, success_frac: float = 0.95,
                       seed: int = 0, jobs: int = 1) -> ExperimentResult:
    """Twin restricted block chains from extreme starts: coalescence histogram.

    At enumerable sizes the exact inverse gap of the restricted block kernel
    is recorded alongside.
    """
    instance = (Permutation.identity(n), max_localized_state(ell), p, ell,
                schedule, step_cap)
    seeds = [int(derive_rng(seed, experiment_id("twin-block"), rep).integers(0, 2 ** 62))
             for rep in range(replicas)]
    if jobs > 1:
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
            K = exact_block_kernel(n, p, ell, schedule, mu=mu)
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
