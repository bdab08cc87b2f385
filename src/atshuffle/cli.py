"""Batch front door: config parsing, dispatch, seeds, output artifacts.

Usage:
    atshuffle --config cfg.json [--seed N] [--jobs K] [--out DIR]
              [--cap-enum N] [--cap-window W]
    atshuffle --generate-instance --family constant-q --n 8 --epsilon 0.5
              --seed 7 --out DIR

The config file is JSON with a fixed key set per command (unknown keys are
rejected, and so are configs missing a key the command needs).  Common keys:

    command   one of exact | sample | chain | asep | burnin | spatial |
              disconnect | blockcheck | mix | lowerbound
    n         instance size (or "ns": [..] for scaling commands)
    p         {"family": "constant-q", "q": 0.6} or {"family": "constant-eps",
              "eps": ..}, {"family": "random-eps", "eps": ..},
              {"family": "monotone-eps", "eps": ..},
              {"family": "totally-asymmetric"} or {"file": "instance.txt"}
    ell       null (unrestricted), an integer (constant window), a list of
              [lo, hi] pairs, or {"file": "localization.txt"}
    seed      master seed (the --seed flag wins)
    jobs, cap_enum, cap_window
              run settings, as the --jobs, --cap-enum and --cap-window flags
              (a flag wins)

Only a command that reads a key accepts it: ns belongs to burnin and mix, and
mix, lowerbound and asep take no ell (asep takes no p either).

Every run echoes the resolved config into the output directory (itself a
config that reruns the same run), writes the result JSON and CSV series, and
a manifest listing seeds, code version, timestamps, and the verdict.  Result
files carry no timestamps, so a rerun with the same config and master seed
is byte-identical; wall-clock metadata lives only in the manifest.  Replica
r of experiment e draws its stream from SeedSequence([master, crc32(e), r]).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .banddp import exact_localized_sampler
from .chains import (BlockSchedule, derive_rng, ensemble_chain_run,
                     ensemble_max_displacement, experiment_id,
                     write_checkpoint)
from .errors import CapExceeded, ContractError, EmptySupport, NotReversible
from .experiments import (FAMILY_PARAMS, ExperimentResult, SeriesPoint,
                          Verdict, asep_tail_check, block_decomposition_check,
                          burn_in_profile, burn_in_scaling,
                          disconnect_probability, lower_bound_experiment,
                          make_family, mixing_scaling, spatial_decay_curve)
from .measure import (build_transition_matrix, enumerate_stationary,
                      spectral_gap)
from .perms import (BiasMatrix, BoundaryAssignment, LocalizationVector,
                    Permutation, instance_fingerprint, localized_rows)

# the kind of a config key, as its type error names it
INT, INTS, NUMBER = "an integer", "a list of integers", "a finite number"


class KeyRule(NamedTuple):
    """A config key's kind (None: free-form, checked where it is read) and
    range (a phrase for the error and the predicate it names), if any."""

    kind: str | None
    bound: str | None = None
    ok: Callable | None = None


FREE = KeyRule(None)
_COMMON_KEYS = {
    "command": FREE, "out": FREE,
    "n": KeyRule(INT, ">= 2", lambda v: v >= 2),
    "seed": KeyRule(INT),
    # run settings, as resolved_config.json records them; their flags win
    "jobs": KeyRule(INT, ">= 1", lambda v: v >= 1),
    "cap_enum": KeyRule(INT), "cap_window": KeyRule(INT),
}
_INSTANCE_KEYS = {"p": FREE, "ell": FREE}
_NS_KEY = {"ns": KeyRule(INTS, "a non-empty list of integers >= 2",
                         lambda v: v != [] and min(v) >= 2)}
# the keys each command accepts, each read by the command; defaults live in
# the experiment signatures
CONFIG_KEYS = {command: {**_COMMON_KEYS, **keys} for command, keys in {
    "exact": _INSTANCE_KEYS,
    "sample": {**_INSTANCE_KEYS,
               "samples": KeyRule(INT, ">= 1", lambda v: v >= 1)},
    "chain": {**_INSTANCE_KEYS, "steps": KeyRule(INT), "init": FREE,
              "checkpoint_every": KeyRule(INT), "tracked_ks": KeyRule(INTS)},
    "asep": {"k": KeyRule(INT), "q": KeyRule(NUMBER),
             "rs": KeyRule(INTS, "non-empty", lambda v: v != [])},
    # the stderr of each burn-in checkpoint needs two replicas (ddof = 1)
    "burnin": {**_INSTANCE_KEYS, **_NS_KEY, "T_mult": KeyRule(INT),
               "replicas": KeyRule(INT, ">= 2", lambda v: v >= 2),
               "quantile": KeyRule(NUMBER, "in (0, 1)", lambda v: 0 < v < 1),
               "init": FREE, "T": KeyRule(INT)},
    "spatial": {**_INSTANCE_KEYS, "eta": FREE, "eta_bar": FREE,
                "rs": KeyRule(INTS, "non-empty", lambda v: v != []),
                "mode": FREE,
                "budget": KeyRule(INT, ">= 1", lambda v: v >= 1),
                "threshold": KeyRule(NUMBER)},
    "disconnect": {**_INSTANCE_KEYS, "ks": KeyRule(INTS), "mode": FREE,
                   "budget": KeyRule(INT, ">= 1", lambda v: v >= 1),
                   "boundary": FREE},
    "blockcheck": {**_INSTANCE_KEYS, "schedule": FREE, "selection": FREE},
    # mix and lowerbound run unrestricted chains: no ell; the stderr of
    # each mix fit needs two runs per size (ddof = 1)
    "mix": {"p": FREE, **_NS_KEY,
            "delta": KeyRule(NUMBER, "in (0, 0.5]", lambda v: 0 < v <= 0.5),
            "method": FREE, "budget": KeyRule(INT, ">= 2", lambda v: v >= 2)},
    "lowerbound": {"p": FREE, "eta": KeyRule(NUMBER),
                   "replicas": KeyRule(INT, ">= 1", lambda v: v >= 1),
                   "threshold": KeyRule(NUMBER)},
}.items()}
COMMANDS = tuple(CONFIG_KEYS)
# keys a command cannot run without; a tuple means "one of these"
_REQUIRED_KEYS = {
    "exact": ("n", "p"),
    "sample": ("n", "p"),
    "chain": ("n", "p"),
    "asep": ("n", "k", "q"),
    "burnin": (("n", "ns"), "p"),
    "spatial": ("n", "p", "eta", "eta_bar", "rs"),
    "disconnect": ("n", "p"),
    "blockcheck": ("n", "p"),
    "mix": (("n", "ns"), "p"),
    "lowerbound": ("n", "p"),
}


def _has_kind(value, kind: str) -> bool:
    """Whether a JSON value is of the kind; bools are not numbers, and
    NaN, Infinity and integers past the float range are not finite numbers."""
    if kind == INTS:
        return isinstance(value, list) and all(_has_kind(v, INT) for v in value)
    if kind == INT:
        return isinstance(value, int) and not isinstance(value, bool)
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


class RunConfig:
    """Validated, fully resolved run configuration: ``raw`` as given, and
    ``values`` with number-kind values converted to float."""

    def __init__(self, raw: dict, seed_override=None, cap_enum=None,
                 cap_window=None, jobs: int | None = None,
                 out: str | None = None):
        if "command" not in raw:
            raise ContractError("config must name a command")
        command = raw["command"]
        if command not in COMMANDS:
            raise ContractError(f"unknown command {command!r}; choose from "
                                + ", ".join(COMMANDS))
        rules = CONFIG_KEYS[command]
        unknown = set(raw) - set(rules)
        if unknown:
            raise ContractError(
                f"unknown config keys for {command}: {sorted(unknown)}")
        for need in _REQUIRED_KEYS[command]:
            options = need if isinstance(need, tuple) else (need,)
            if not any(key in raw for key in options):
                raise ContractError(
                    f"{command} needs the config key {' or '.join(options)}")
        self.values = {}
        for key, value in raw.items():
            rule = rules[key]
            if rule.kind is not None and not _has_kind(value, rule.kind):
                raise ContractError(
                    f"config key {key} must be {rule.kind}, got {value!r}")
            if rule.ok is not None and not rule.ok(value):
                raise ContractError(
                    f"config key {key} must be {rule.bound}, got {value!r}")
            self.values[key] = float(value) if rule.kind == NUMBER else value
        spec = raw.get("p")
        if isinstance(spec, dict) and "family" in spec:
            kind = spec["family"]
            if not isinstance(kind, str) or kind not in FAMILY_PARAMS:
                raise ContractError(f"unknown family {kind!r}; choose from "
                                    + ", ".join(FAMILY_PARAMS))
            for key in FAMILY_PARAMS[kind]:
                if key not in spec:
                    raise ContractError(
                        f"family {kind} needs the key {key!r} in p")
                if not _has_kind(spec[key], NUMBER):
                    raise ContractError(
                        f"config key p.{key} must be {NUMBER}, "
                        f"got {spec[key]!r}")
        if jobs is not None and jobs < 1:
            raise ContractError(f"--jobs must be >= 1, got {jobs}")
        self.command = command
        self.raw = dict(raw)
        # a flag beats the config's value
        self.seed = (seed_override if seed_override is not None
                     else raw.get("seed", 0))
        self.cap_enum = cap_enum if cap_enum is not None else raw.get("cap_enum")
        self.cap_window = (cap_window if cap_window is not None
                           else raw.get("cap_window"))
        self.jobs = jobs if jobs is not None else raw.get("jobs", 1)
        self.out = out or raw.get("out") or "atshuffle-out"

    def pick(self, *keys) -> dict:
        """The validated values of those keys that the config sets."""
        return {key: self.values[key] for key in keys if key in self.values}

    def resolved(self) -> dict:
        out = dict(self.raw)
        out["seed"] = self.seed
        out["jobs"] = self.jobs
        if self.cap_enum is not None:
            out["cap_enum"] = self.cap_enum
        if self.cap_window is not None:
            out["cap_window"] = self.cap_window
        return out


def _parse_file(spec: dict, key: str, parse):
    """The file a {"file": path} config value names, read and given to
    parse."""
    path = spec["file"]
    if not isinstance(path, str):
        raise ContractError(f"{key}'s file must be a path, got {path!r}")
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ContractError(
            f"cannot read {key}'s file {path!r}: {exc}") from exc
    try:
        return parse(text)
    except (ValueError, IndexError) as exc:
        raise ContractError(
            f"malformed {key} file {path!r}: {exc}") from exc


def _load_bias(spec, n: int, seed: int) -> BiasMatrix:
    if isinstance(spec, dict) and "file" in spec:
        return _parse_file(spec, "p", BiasMatrix.from_text)
    if isinstance(spec, dict) and "family" in spec:
        return make_family(n, _family_dict(spec), seed)
    raise ContractError("p must be {'family': ...} or {'file': ...}")


def _load_ell(spec, n: int | None) -> LocalizationVector | None:
    if spec is None:
        return None
    if isinstance(spec, dict) and "file" in spec:
        return _parse_file(spec, "ell", LocalizationVector.from_text)
    if _has_kind(spec, INT):
        if n is None:
            raise ContractError("constant localization needs n")
        return LocalizationVector.constant(n, spec)
    if isinstance(spec, list) and all(
            isinstance(pair, list) and len(pair) == 2
            and all(_has_kind(v, INT) or v == math.inf for v in pair)
            for pair in spec):
        return LocalizationVector([a for a, _ in spec], [b for _, b in spec])
    raise ContractError(f"ell must be null, an int, [[lo,hi],...], or a file; "
                        f"got {spec!r}")


def _family_dict(spec) -> dict:
    if not (isinstance(spec, dict) and "family" in spec):
        raise ContractError("this command needs p as {'family': ...}")
    fam = dict(spec)
    fam["kind"] = fam.pop("family")
    return fam


def generate_instance(family: str, n: int, epsilon: float | None, seed: int,
                      path: str) -> str:
    """Write a certified bias-matrix instance file; returns the path."""
    rng = derive_rng(seed, experiment_id("generate-instance"))
    if family == "constant-q":
        if epsilon is None or epsilon < 0:
            raise ContractError("constant-q generation needs epsilon >= 0")
        p = BiasMatrix.constant_from_epsilon(n, epsilon)
    elif family == "totally-asymmetric":
        p = BiasMatrix.totally_asymmetric(n)
    elif family == "random-eps":
        if epsilon is None or epsilon < 0:
            raise ContractError("random-eps generation needs epsilon >= 0")
        p = BiasMatrix.random_biased(n, epsilon, rng)
    elif family == "monotone-eps":
        if epsilon is None or epsilon < 0:
            raise ContractError("monotone-eps generation needs epsilon >= 0")
        p = BiasMatrix.monotone_biased(n, epsilon, rng)
    else:
        raise ContractError(
            "family must be constant-q, totally-asymmetric, random-eps, or "
            "monotone-eps")
    if epsilon is not None and p.epsilon < epsilon - 1e-12:
        raise ContractError("generated instance misses the requested bias")
    with open(path, "w") as fh:
        fh.write(p.to_text())
    return path


# ---------------------------------------------------------------------------
# command handlers; each returns (ExperimentResult-like record, artifacts)
# ---------------------------------------------------------------------------

def _run_exact(cfg: RunConfig, outdir: str):
    n = cfg.values["n"]
    p = _load_bias(cfg.values["p"], n, cfg.seed)
    ell = _load_ell(cfg.values.get("ell"), n)
    kwargs = {}
    if cfg.cap_enum is not None:
        kwargs["cap"] = cfg.cap_enum
    mu = enumerate_stationary(n, p, ell, **kwargs)
    P = build_transition_matrix(n, p, ell, mu=mu, **kwargs)
    gap = spectral_gap(P, mu)
    series = [SeriesPoint(i, float(pr), 0.0, 1)
              for i, pr in enumerate(mu.probs)]
    verdict = Verdict(True, "detailed balance holds (checked at build)",
                      {"logZ": mu.logZ, "Z": float(np.exp(mu.logZ)),
                       "gap": gap, "states": len(mu)})
    res = ExperimentResult("exact", instance_fingerprint(p, ell),
                           cfg.resolved(), series, verdict,
                           {"support": mu.support.tolist()
                            if len(mu) <= 5040 else "omitted"})
    paths = res.write(outdir, "result")
    mu.to_csv(os.path.join(outdir, "distribution.csv"))
    paths.append(os.path.join(outdir, "distribution.csv"))
    return res, paths


def _run_sample(cfg: RunConfig, outdir: str):
    n = cfg.values["n"]
    p = _load_bias(cfg.values["p"], n, cfg.seed)
    ell = _load_ell(cfg.values.get("ell"), n)
    samples = cfg.values.get("samples", 100)
    kwargs = {}
    if cfg.cap_window is not None:
        kwargs["window_cap"] = cfg.cap_window
    sampler = exact_localized_sampler(p, ell, **kwargs)
    rows = sampler.draw_rows(
        derive_rng(cfg.seed, experiment_id("sample")), samples)
    path = os.path.join(outdir, "samples.jsonl")
    ok = ell is None or bool(localized_rows(rows, ell).all())
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(list(map(int, row))) + "\n")
    verdict = Verdict(ok, "every draw lies in the localized set",
                      {"strategy": sampler.strategy})
    res = ExperimentResult("sample", instance_fingerprint(p, ell),
                           cfg.resolved(), [], verdict, {"samples": samples})
    paths = res.write(outdir, "result")
    paths.append(path)
    return res, paths


def _run_chain(cfg: RunConfig, outdir: str):
    n = cfg.values["n"]
    p = _load_bias(cfg.values["p"], n, cfg.seed)
    ell = _load_ell(cfg.values.get("ell"), n)
    steps = cfg.values.get("steps", 10 * n * n)
    every = cfg.values.get("checkpoint_every", max(1, steps // 100))
    if every < 1:
        raise ContractError("checkpoint_every must be >= 1")
    init = cfg.values.get("init", "reversal")
    tracked = cfg.values.get("tracked_ks", [])
    if init == "identity":
        start = Permutation.identity(n)
    elif init == "reversal":
        start = Permutation.reversal(n)
    elif _has_kind(init, INTS) and sorted(init) == list(range(1, n + 1)):
        start = Permutation(init)
    else:
        raise ContractError(f"unknown start {init!r}; choose identity, "
                            f"reversal or a permutation of 1..{n} as a list")
    rng = derive_rng(cfg.seed, experiment_id("chain"))
    rows = start.forward[None, :]
    path = os.path.join(outdir, "trajectory.jsonl")
    marks = list(range(0, steps + 1, every))
    recs = []

    def snap(t, F, INV):
        recs.append((t, F[0].copy(), int(ensemble_max_displacement(INV)[0])))

    ensemble_chain_run(p, rows, steps, rng, ell=ell, checkpoints=marks,
                       checkpoint_fn=snap)
    with open(path, "w") as fh:
        for t, f, _ in recs:
            write_checkpoint(fh, t, Permutation(f, _validate=False), tracked)
    series = [SeriesPoint(t, float(d), 0.0, 1) for t, _, d in recs]
    verdict = Verdict(True, "record-only trajectory",
                      {"final_max_displacement": recs[-1][2]})
    res = ExperimentResult("chain", instance_fingerprint(p, ell),
                           cfg.resolved(), series, verdict, {"steps": steps})
    paths = res.write(outdir, "result")
    paths.append(path)
    return res, paths


def _run_asep(cfg: RunConfig, outdir: str):
    res = asep_tail_check(cfg.values["n"], cfg.values["k"], cfg.values["q"],
                          **cfg.pick("rs"))
    return res, res.write(outdir, "result")


def _run_burnin(cfg: RunConfig, outdir: str):
    if "ns" in cfg.values:
        if cfg.values.get("ell") is not None:
            raise ContractError("burnin over ns runs unrestricted chains; "
                                "drop ell or run each n with its own config")
        res = burn_in_scaling(
            cfg.values["ns"], _family_dict(cfg.values["p"]), seed=cfg.seed,
            **cfg.pick("T_mult", "replicas", "quantile"))
    else:
        n = cfg.values["n"]
        res = burn_in_profile(
            n, _load_bias(cfg.values["p"], n, cfg.seed), seed=cfg.seed,
            ell=_load_ell(cfg.values.get("ell"), n),
            **cfg.pick("init", "T", "replicas", "quantile"))
    return res, res.write(outdir, "result")


def _boundary_from_spec(spec, n: int, key: str) -> BoundaryAssignment:
    """The boundary of a {"left": [..], "right": [..]} config value; either
    list may be left out."""
    if not (isinstance(spec, dict) and set(spec) <= {"left", "right"}
            and all(_has_kind(v, INTS) for v in spec.values())):
        raise ContractError(
            f'{key} must be {{"left": [...], "right": [...]}} with lists of '
            f"integers, got {spec!r}")
    return BoundaryAssignment(n, tuple(spec.get("left", ())),
                              tuple(spec.get("right", ())))


def _run_spatial(cfg: RunConfig, outdir: str):
    n = cfg.values["n"]
    p = _load_bias(cfg.values["p"], n, cfg.seed)
    ell = _load_ell(cfg.values.get("ell"), n)
    if ell is None:
        raise ContractError("spatial needs a localization vector")
    eta = _boundary_from_spec(cfg.values["eta"], n, "eta")
    eta_bar = _boundary_from_spec(cfg.values["eta_bar"], n, "eta_bar")
    res = spatial_decay_curve(
        p, ell, eta, eta_bar, cfg.values["rs"], seed=cfg.seed,
        window_cap=cfg.cap_window, **cfg.pick("mode", "budget", "threshold"))
    return res, res.write(outdir, "result")


def _run_disconnect(cfg: RunConfig, outdir: str):
    n = cfg.values["n"]
    p = _load_bias(cfg.values["p"], n, cfg.seed)
    ell = _load_ell(cfg.values.get("ell"), n)
    boundary = None
    if cfg.values.get("boundary") is not None:
        boundary = _boundary_from_spec(cfg.values["boundary"], n, "boundary")
    res = disconnect_probability(
        p, ell, boundary, seed=cfg.seed, window_cap=cfg.cap_window,
        **cfg.pick("ks", "mode", "budget"))
    return res, res.write(outdir, "result")


def _run_blockcheck(cfg: RunConfig, outdir: str):
    n = cfg.values["n"]
    p = _load_bias(cfg.values["p"], n, cfg.seed)
    ell = _load_ell(cfg.values.get("ell"), n)
    kind = cfg.values.get("schedule", "west-east")
    if kind == "west-east":
        schedule = BlockSchedule.west_east(n, **cfg.pick("selection"))
    elif kind == "single":
        schedule = BlockSchedule.single(n, **cfg.pick("selection"))
    else:
        raise ContractError("blockcheck supports west-east or single schedules")
    res = block_decomposition_check(n, p, ell, schedule)
    return res, res.write(outdir, "result")


def _run_mix(cfg: RunConfig, outdir: str):
    res = mixing_scaling(
        cfg.values["ns"] if "ns" in cfg.values else [cfg.values["n"]],
        _family_dict(cfg.values["p"]), seed=cfg.seed, jobs=cfg.jobs,
        **cfg.pick("delta", "method", "budget"))
    paths = res.write(outdir, "result")
    for key, curve in res.meta.get("tv_curves", {}).items():
        cpath = os.path.join(outdir, f"tv_curve_n{key}.csv")
        with open(cpath, "w") as fh:
            fh.write("t,tv\n")
            for t, tv in enumerate(curve):
                fh.write(f"{t},{tv!r}\n")
        paths.append(cpath)
    return res, paths


def _run_lowerbound(cfg: RunConfig, outdir: str):
    n = cfg.values["n"]
    res = lower_bound_experiment(
        n, _load_bias(cfg.values["p"], n, cfg.seed), seed=cfg.seed,
        **cfg.pick("eta", "replicas", "threshold"))
    return res, res.write(outdir, "result")


_HANDLERS = {
    "exact": _run_exact,
    "sample": _run_sample,
    "chain": _run_chain,
    "asep": _run_asep,
    "burnin": _run_burnin,
    "spatial": _run_spatial,
    "disconnect": _run_disconnect,
    "blockcheck": _run_blockcheck,
    "mix": _run_mix,
    "lowerbound": _run_lowerbound,
}


def run(cfg: RunConfig) -> int:
    """Execute a resolved config; returns the process exit status."""
    outdir = cfg.out
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "resolved_config.json"), "w") as fh:
        json.dump(cfg.resolved(), fh, sort_keys=True, indent=1)
        fh.write("\n")
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    t0 = time.time()
    manifest = {
        "schema": 1,
        "code_version": __version__,
        "command": cfg.command,
        "config": cfg.resolved(),
        "master_seed": cfg.seed,
        "started": started,
        "incomplete": True,
    }
    status = 0
    try:
        res, artifacts = _HANDLERS[cfg.command](cfg, outdir)
        manifest["incomplete"] = False
        manifest["artifacts"] = [os.path.basename(a) for a in artifacts]
        manifest["verdict"] = res.verdict.as_dict()
        if not res.verdict.passed:
            status = 1
            print(f"FAILED verdict: {res.verdict.bound}", file=sys.stderr)
        else:
            print(f"pass: {res.experiment} ({res.verdict.bound})")
    except KeyboardInterrupt:
        manifest["interrupted"] = True
        status = 130
    except (ContractError, CapExceeded, EmptySupport, NotReversible) as exc:
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        print(f"error: {exc}", file=sys.stderr)
        status = 2
    except Exception as exc:
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        manifest["runtime_s"] = round(time.time() - t0, 3)
        manifest["finished"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
        with open(os.path.join(outdir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=1)
            fh.write("\n")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="atshuffle",
        description="biased adjacent-transposition shuffle laboratory")
    ap.add_argument("--config", help="JSON run configuration")
    ap.add_argument("--seed", type=int, default=None, help="master seed")
    ap.add_argument("--jobs", type=int, default=None,
                    help="worker bound (default 1)")
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--cap-enum", type=int, default=None,
                    help="enumeration size cap")
    ap.add_argument("--cap-window", type=int, default=None,
                    help="band DP window cap")
    ap.add_argument("--generate-instance", action="store_true",
                    help="write a certified bias-matrix file instead of running")
    ap.add_argument("--family", default=None)
    ap.add_argument("--n", type=int, default=None)
    ap.add_argument("--epsilon", type=float, default=None)
    args = ap.parse_args(argv)
    try:
        if args.generate_instance:
            if args.family is None or args.n is None:
                ap.error("--generate-instance needs --family and --n")
            outdir = args.out or "atshuffle-out"
            os.makedirs(outdir, exist_ok=True)
            path = os.path.join(outdir, f"{args.family}-n{args.n}.txt")
            generate_instance(args.family, args.n, args.epsilon,
                              args.seed or 0, path)
            print(path)
            return 0
        if not args.config:
            ap.error("--config is required (or use --generate-instance)")
        with open(args.config) as fh:
            raw = json.load(fh)
        cfg = RunConfig(raw, seed_override=args.seed, cap_enum=args.cap_enum,
                        cap_window=args.cap_window, jobs=args.jobs,
                        out=args.out)
    except (ContractError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
