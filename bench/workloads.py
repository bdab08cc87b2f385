"""The benchmark's workloads: inputs from a seed, the calls of one round, and
the checks on every output.

A workload is one closed-loop client: each round makes its calls one after
another, and the next call starts when the previous one returns.  Inputs of
round r are a function of (seed, r) only; the package receives nothing but
these generated configs and instances.  Every call carries a ``verify`` that
checks its output, counts the work it did in the workload's unit, and returns
a digest of its result files so that a rerun can be compared byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from atshuffle import banddp, chains, cli, experiments
from atshuffle.perms import BiasMatrix, LocalizationVector

Q = 0.75          # the constant-bias family of criteria 7 to 10
BYTES_PER_DP_STATE = 24   # int64 mask + float64 forward + float64 backward


class Checks:
    """Counts output checks; a failed one is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.known_defects = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr, flush=True)
        return bool(ok)

    def known_defect(self, what: str) -> None:
        """Record a known defect of the package that is not a wrong output;
        it is reported on stderr and in the run's record, and fails nothing."""
        self.known_defects.append(what)
        print(f"known defect: {what}", file=sys.stderr, flush=True)

    def verdict(self, label: str, verdict: dict | None) -> bool:
        return self.expect(verdict is not None and verdict.get("passed") is True,
                           f"{label}: verdict did not pass")


@dataclass
class Call:
    label: str
    run: Callable[[], object]
    # verify(output, checks) -> (units of work, digest of the result files)
    verify: Callable[[object, Checks], tuple]


def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed for one input, from the workload seed and keys."""
    ss = np.random.SeedSequence([int(seed), *map(int, keys)])
    return int(ss.generate_state(1, np.uint32)[0])


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(len(c).to_bytes(8, "little"))
        h.update(c)
    return h.hexdigest()


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _result_json(res) -> bytes:
    return json.dumps(res.to_json_dict(), sort_keys=True, indent=1).encode()


def cli_call(label: str, config: dict, workdir: str,
             check: Callable[[dict, str, Checks], int],
             unhashed: tuple = ()) -> Call:
    """One CLI invocation; ``check(result, outdir, checks)`` returns units.

    ``unhashed`` names keys of ``result.json`` whose values are left out of
    the digest; ``check`` must compare them across reruns itself.
    """
    cfg_path = os.path.join(workdir, f"{label}.json")
    outdir = os.path.join(workdir, f"{label}-out")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)

    def run():
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["--config", cfg_path, "--out", outdir,
                             "--jobs", "1"])

    def verify(status, checks):
        checks.expect(status == 0, f"{label}: exit status {status}")
        result = _read_json(os.path.join(outdir, "result.json"))
        manifest = _read_json(os.path.join(outdir, "manifest.json"))
        checks.verdict(label, result and result.get("verdict"))
        checks.expect(manifest is not None and manifest.get("incomplete") is False,
                      f"{label}: manifest missing or incomplete")
        units = check(result, outdir, checks) if result else 0
        names = sorted(os.listdir(outdir)) if os.path.isdir(outdir) else []
        chunks = []
        for name in names:
            if name == "manifest.json":   # the only file with wall-clock data
                continue
            with open(os.path.join(outdir, name), "rb") as fh:
                data = fh.read()
            if name == "result.json":
                for key in unhashed:
                    data = re.sub(rb'"%s": [^,\n]*' % key.encode(),
                                  rb'"%s": null' % key.encode(), data)
            chunks += [name.encode(), data]
        shutil.rmtree(outdir, ignore_errors=True)
        return units, _digest(*chunks)

    return Call(label, run, verify)


def _check_localized_rows(rows, n: int, ell: int) -> bool:
    """Every row is a permutation of 1..n with |position(k) - k| <= ell."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != n:
        return False
    if not np.array_equal(np.sort(rows, axis=1),
                          np.broadcast_to(np.arange(1, n + 1), rows.shape)):
        return False
    pos = np.argsort(rows, axis=1) + 1      # pos[r, k-1] = position of k
    return bool(np.all(np.abs(pos - np.arange(1, n + 1)) <= ell))


class Workload:
    name = ""
    unit = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)
        self.workdir = workdir

    def calls(self, r: int) -> list:
        raise NotImplementedError

    def layer_records(self) -> dict:
        """Per-layer figures the workload measures itself (exact only)."""
        return {}


class Burnin(Workload):
    """CLI burnin (criterion 9's setup at n = 32, 64) and lowerbound."""

    name = "burnin"
    unit = "replica-steps"
    NS = (32, 64)
    REPLICAS = 150
    LB_N = 128
    LB_REPLICAS = 500

    def calls(self, r):
        fam = {"family": "constant-q", "q": Q}
        out = []
        for n in self.NS:
            out.append(cli_call(
                f"r{r}-burnin-n{n}",
                {"command": "burnin", "n": n, "p": fam, "init": "reversal",
                 "T": 8 * n * n, "replicas": self.REPLICAS,
                 "seed": derive_seed(self.seed, r, n)},
                self.workdir, self._burnin_units))
        out.append(cli_call(
            f"r{r}-lowerbound",
            {"command": "lowerbound", "n": self.LB_N, "p": fam, "eta": 0.5,
             "replicas": self.LB_REPLICAS,
             "seed": derive_seed(self.seed, r, 0)},
            self.workdir, self._lowerbound_units))
        return out

    @staticmethod
    def _burnin_units(result, outdir, checks):
        prm = result["params"]
        checks.expect(prm["T"] == 8 * prm["n"] ** 2, "burnin: horizon is not 8 n^2")
        return prm["replicas"] * prm["T"]

    @staticmethod
    def _lowerbound_units(result, outdir, checks):
        prm = result["params"]
        return prm["replicas"] * prm["t"]


class Coupling(Workload):
    """CLI mix by coupling, plus the domination and monotone audit runs."""

    name = "coupling"
    unit = "coupled process steps"
    NS = [32, 64, 128]
    BUDGET = 16
    AUDIT_N = 100
    AUDIT_KS = [1, 2, 4, 8, 16, 32, 64, 99]
    DOMINATION_STEPS = 20_000
    MONOTONE_STEPS = 50_000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.p = BiasMatrix.constant(self.AUDIT_N, Q)

    def calls(self, r):
        mix = cli_call(
            f"r{r}-mix",
            {"command": "mix", "ns": self.NS,
             "p": {"family": "constant-q", "q": Q}, "method": "coupling",
             "budget": self.BUDGET, "seed": derive_seed(self.seed, r, 0)},
            self.workdir, self._meeting_times)
        dom_seed = derive_seed(self.seed, r, 1)
        mono_seed = derive_seed(self.seed, r, 2)
        dom = Call(f"r{r}-domination-audit",
                   lambda: chains.domination_audit_run(
                       self.AUDIT_N, self.p, Q, self.AUDIT_KS,
                       self.DOMINATION_STEPS, dom_seed),
                   self._audit(self.DOMINATION_STEPS))
        mono = Call(f"r{r}-monotone-audit",
                    lambda: chains.asep_monotone_audit_run(
                        self.AUDIT_N, self.AUDIT_N // 2, Q,
                        self.MONOTONE_STEPS, mono_seed),
                    self._audit(self.MONOTONE_STEPS))
        return [mix, dom, mono]

    def _meeting_times(self, result, outdir, checks):
        series = result["series"]
        checks.expect([pt["x"] for pt in series] == self.NS,
                      "mix: series does not cover every n")
        # each point is the mean meeting time over n_replicas coupled pairs
        return sum(round(pt["estimate"] * pt["n_replicas"]) for pt in series)

    @staticmethod
    def _audit(steps):
        def verify(rec, checks):
            checks.expect(rec["steps"] == steps and rec["audits"] == steps,
                          "audit: not every step was audited")
            checks.expect(rec["violations"] == 0,
                          f"audit: {rec['violations']} order violations")
            return rec["steps"], _digest(json.dumps(rec, sort_keys=True).encode())
        return verify


class BlockDyn(Workload):
    """Criterion 10's twin block chains (n = 300, ell = 12, west-east)."""

    name = "blockdyn"
    unit = "block updates"
    N = 300
    ELL = 12
    STEP_CAP = 50
    REPLICAS = 10

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.p = BiasMatrix.constant(self.N, Q)
        self.ell = LocalizationVector.constant(self.N, self.ELL)
        self.schedule = chains.BlockSchedule.west_east(self.N)

    def calls(self, r):
        seed = derive_seed(self.seed, r)
        return [Call(f"r{r}-block-chain-mixing",
                     lambda: experiments.block_chain_mixing(
                         self.N, self.p, self.ell, self.schedule,
                         replicas=self.REPLICAS, step_cap=self.STEP_CAP,
                         success_frac=0.95, seed=seed, jobs=1),
                     self._verify)]

    def _verify(self, res, checks):
        checks.verdict("block_chain_mixing", res.verdict.as_dict())
        # the series is the cumulative coalesced fraction at t = 1..cap
        cum = [0] + [round(pt.estimate * self.REPLICAS) for pt in res.series]
        steps = sum(t * (cum[t] - cum[t - 1]) for t in range(1, len(cum)))
        steps += (self.REPLICAS - cum[-1]) * self.STEP_CAP
        # both twins take one block update per step
        return 2 * steps, _digest(_result_json(res))


class Exact(Workload):
    """CLI exact, spatial and sample, and large band DPs at W = 19, 21."""

    name = "exact"
    unit = "verified instances"
    EXACT_N = 8
    # above 5,000 states measure.spectral_gap runs eigsh from a random start
    # vector with tol = 1e-9, so reruns agree on the gap only to that
    # tolerance: the gap is compared within GAP_TOL, the rest byte for byte
    GAP_TOL = 1e-8
    SAMPLE_N = 100
    SAMPLE_ELL = 7
    SAMPLES = 200
    DP_N = 24
    DP_DRAWS = 500
    SPATIAL = {"command": "spatial", "n": 60,
               "p": {"family": "constant-q", "q": Q}, "ell": 3,
               "eta": {"left": [1]}, "eta_bar": {"left": [4]},
               "rs": list(range(3, 37)), "mode": "exact", "threshold": 0.05}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.dp_records = []
        self._logz_rechecked = False
        self.gaps = {}      # round -> gap of its first run

    def calls(self, r):
        out = [
            cli_call(f"r{r}-exact",
                     {"command": "exact", "n": self.EXACT_N,
                      "p": {"family": "random-eps", "eps": 0.5},
                      "seed": derive_seed(self.seed, r, 0)},
                     self.workdir,
                     lambda result, outdir, checks:
                         self._exact_units(r, result, checks),
                     unhashed=("gap",)),
            cli_call(f"r{r}-spatial", self.SPATIAL, self.workdir,
                     lambda result, outdir, checks: 1),
            cli_call(f"r{r}-sample",
                     {"command": "sample", "n": self.SAMPLE_N,
                      "p": {"family": "random-eps", "eps": 0.5},
                      "ell": self.SAMPLE_ELL, "samples": self.SAMPLES,
                      "seed": derive_seed(self.seed, r, 1)},
                     self.workdir, self._sample_units),
        ]
        for W in (19, 21):
            rng = np.random.default_rng(derive_seed(self.seed, r, W))
            p = BiasMatrix.random_biased(self.DP_N, 0.5, rng)
            ell = LocalizationVector.constant(self.DP_N, (W - 1) // 2)
            out.append(Call(f"r{r}-banddp-W{W}",
                            self._dp_run(p, ell, derive_seed(self.seed, r, W, 1)),
                            self._dp_verify(p, ell, W)))
        return out

    def _exact_units(self, r, result, checks):
        details = result["verdict"]["details"]
        states = details.get("states")
        checks.expect(states == math.factorial(self.EXACT_N),
                      f"exact: {states} states, expected n!")
        gap = details.get("gap", 0)
        checks.expect(gap > 0, "exact: spectral gap is not positive")
        first = self.gaps.setdefault(r, gap)
        checks.expect(abs(gap - first) <= self.GAP_TOL,
                      f"round {r}: exact gap {gap!r} differs from the first "
                      f"run's {first!r} by more than {self.GAP_TOL}")
        if gap != first:
            checks.known_defect(
                f"round {r}: exact gap {gap!r} differs from the first run's "
                f"{first!r} in its last digits (eigsh random start vector)")
        return 1

    def _sample_units(self, result, outdir, checks):
        checks.expect(result["verdict"]["details"].get("strategy") == "band-dp",
                      "sample: expected the band-DP strategy")
        try:
            with open(os.path.join(outdir, "samples.jsonl")) as fh:
                rows = [json.loads(line) for line in fh]
        except (OSError, ValueError):
            rows = []
        ok = checks.expect(len(rows) == self.SAMPLES
                           and _check_localized_rows(rows, self.SAMPLE_N,
                                                     self.SAMPLE_ELL),
                           "sample: a draw is missing or not localized")
        return int(ok)

    def _dp_run(self, p, ell, seed):
        def run():
            dp = banddp.BandDP(p, ell)
            t0 = perf_counter()
            logz = dp.log_partition()
            t1 = perf_counter()
            dp.backward_layer(0)
            t2 = perf_counter()
            rows = dp.sample_rows(np.random.default_rng(seed), self.DP_DRAWS)
            sizes = [dp.forward_layer(t)[0].size for t in range(p.n + 1)]
            return {"logZ": logz, "rows": rows, "forward_s": t1 - t0,
                    "backward_s": t2 - t1, "max_layer_states": max(sizes),
                    "computed_bytes": BYTES_PER_DP_STATE * sum(sizes)}
        return run

    def _dp_verify(self, p, ell, W):
        def verify(out, checks):
            ok = checks.expect(math.isfinite(out["logZ"]),
                               f"banddp W{W}: logZ is not finite")
            ok &= checks.expect(
                _check_localized_rows(out["rows"], p.n, (W - 1) // 2),
                f"banddp W{W}: a draw is not localized")
            if W == 19 and not self._logz_rechecked:
                self._logz_rechecked = True
                again = banddp.BandDP(p, ell).log_partition()
                ok &= checks.expect(
                    abs(again - out["logZ"]) <= 1e-9 * max(1.0, abs(again)),
                    "banddp W19: logZ differs from a second instance")
            self.dp_records.append((W, out))
            return int(ok), _digest(repr(out["logZ"]).encode(),
                                    out["rows"].tobytes())
        return verify

    def layer_records(self):
        out = {}
        for W in (19, 21):
            recs = [o for w, o in self.dp_records if w == W]
            for key in ("forward_s", "backward_s", "max_layer_states",
                        "computed_bytes"):
                vals = [o[key] for o in recs]
                out[f"{key}.W{W}"] = float(np.median(vals)) if vals else 0.0
        return out


WORKLOADS = {w.name: w for w in (Burnin, Coupling, BlockDyn, Exact)}
