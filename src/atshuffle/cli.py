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
              (a flag wins); see RUN_SETTINGS

Only a command that reads a key accepts it: ns belongs to burnin and mix, and
mix, lowerbound and asep take no ell (asep takes no p either).  A key that
only some modes read is refused in the others (KeyRule.modes), and burnin
and mix take n or ns, not both.  A command that does not read a run setting
accepts it only at its default.

Every run echoes the resolved config into the output directory (itself a
config that reruns the same run), writes the result JSON and CSV series, and
a manifest listing seeds, code version, timestamps, and the verdict.  Result
files carry no timestamps, so a rerun with the same config and master seed
is byte-identical; wall-clock metadata lives only in the manifest.  Every
draw comes from ``chains.derive_rng(master, crc32(e), *keys)``, where e names
the experiment and its keys, if any, are a size n and a replica index.  An
ensemble draws all its replicas from one stream; mix by coupling or statistic
seeds replica r at size n with the first integer of the stream keyed (n, r),
and the coupled driver derives its own streams from that seed.
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
from .banddp import (DEFAULT_WINDOW_CAP, check_draw_memory,
                     exact_localized_sampler)
from .chains import (BlockSchedule, derive_rng, ensemble_chain_run,
                     experiment_id, write_checkpoint)
from .errors import CapExceeded, ContractError, EmptySupport, NotReversible
from .experiments import (FAMILY_PARAMS, ExperimentResult, Verdict,
                          _start_rows, asep_tail_check,
                          block_decomposition_check, burn_in_profile,
                          burn_in_scaling, disconnect_probability,
                          lower_bound_experiment, make_family, mixing_scaling,
                          spatial_decay_curve)
from .measure import (DEFAULT_ENUM_CAP, build_transition_matrix,
                      enumerate_stationary, spectral_gap)
from .perms import (BiasMatrix, BoundaryAssignment, LocalizationVector,
                    instance_fingerprint, localized_rows, max_displacement)

# the kind of a config key, as its type error names it
INT, INTS, NUMBER = "an integer", "a list of integers", "a finite number"


class KeyRule(NamedTuple):
    """A config key's kind (None: free-form, checked where it is read),
    range (a phrase for the error and the predicate it names), if any, and
    the modes that read it (empty: every mode)."""

    kind: str | None
    bound: str | None = None
    ok: Callable | None = None
    modes: tuple = ()


FREE = KeyRule(None)
_COMMON_KEYS = {
    "command": FREE, "out": FREE,
    "n": KeyRule(INT, ">= 2", lambda v: v >= 2),
    "seed": KeyRule(INT, ">= 0", lambda v: v >= 0),
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
              "checkpoint_every": KeyRule(INT, ">= 1", lambda v: v >= 1),
              "tracked_ks": KeyRule(INTS)},
    "asep": {"k": KeyRule(INT), "q": KeyRule(NUMBER),
             "rs": KeyRule(INTS, "non-empty", lambda v: v != [])},
    # the stderr of each burn-in checkpoint needs two replicas (ddof = 1);
    # over ns the chains run unrestricted
    "burnin": {"p": FREE, "ell": KeyRule(None, modes=("n",)), **_NS_KEY,
               "T_mult": KeyRule(INT, modes=("ns",)),
               "replicas": KeyRule(INT, ">= 2", lambda v: v >= 2),
               "quantile": KeyRule(NUMBER, "in (0, 1)", lambda v: 0 < v < 1),
               "init": KeyRule(None, modes=("n",)),
               "T": KeyRule(INT, modes=("n",))},
    "spatial": {**_INSTANCE_KEYS, "eta": FREE, "eta_bar": FREE,
                "rs": KeyRule(INTS, "non-empty", lambda v: v != []),
                "mode": FREE,
                "budget": KeyRule(INT, ">= 1", lambda v: v >= 1, ("sampled",)),
                "threshold": KeyRule(NUMBER)},
    "disconnect": {**_INSTANCE_KEYS,
                   "ks": KeyRule(INTS, "non-empty", lambda v: v != []),
                   "mode": FREE,
                   "budget": KeyRule(INT, ">= 1", lambda v: v >= 1,
                                     ("sampled",)),
                   "boundary": FREE},
    "blockcheck": {**_INSTANCE_KEYS, "schedule": FREE, "selection": FREE},
    # mix and lowerbound run unrestricted chains: no ell; the stderr of
    # each mix fit needs two runs per size (ddof = 1)
    "mix": {"p": FREE, **_NS_KEY,
            "delta": KeyRule(NUMBER, "in (0, 0.5]", lambda v: 0 < v <= 0.5,
                             ("exact", "statistic")),
            "method": FREE,
            "budget": KeyRule(INT, ">= 2", lambda v: v >= 2,
                              ("coupling", "statistic"))},
    "lowerbound": {"p": FREE, "eta": KeyRule(NUMBER),
                   "replicas": KeyRule(INT, ">= 1", lambda v: v >= 1),
                   "threshold": KeyRule(NUMBER)},
}.items()}
COMMANDS = tuple(CONFIG_KEYS)
# keys a command cannot run without; a tuple means "exactly one of these"
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
# each run setting's default, and the (command, mode) pairs that read it,
# mode None for every mode; any other command or mode takes only the default
RUN_SETTINGS = {
    "jobs": (1, (("mix", "coupling"),)),
    "cap_enum": (DEFAULT_ENUM_CAP, (("exact", None), ("blockcheck", None),
                                    ("disconnect", "exact"), ("mix", "exact"))),
    "cap_window": (DEFAULT_WINDOW_CAP, (("sample", None), ("spatial", None),
                                        ("disconnect", "sampled"))),
}
# the key whose value is the mode above, and the experiment's default for it;
# burnin's mode is ns when the config gives ns and n otherwise, and the other
# commands have no mode (None)
_MODE_KEYS = {"disconnect": ("mode", "exact"), "spatial": ("mode", "exact"),
              "mix": ("method", "coupling")}


def _has_kind(value, kind: str) -> bool:
    """Whether a JSON value is of the kind; bools are not numbers, and
    NaN, Infinity and integers past the float range are not finite numbers."""
    if kind == INTS:
        return isinstance(value, list) and all(_has_kind(v, INT) for v in value)
    if kind == INT:
        return isinstance(value, int) and not isinstance(value, bool)
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _check(name: str, rule: KeyRule, value) -> None:
    """Raise ContractError, naming the key or flag, unless value is of the
    rule's kind and in its range."""
    if rule.kind is not None and not _has_kind(value, rule.kind):
        raise ContractError(f"{name} must be {rule.kind}, got {value!r}")
    if rule.ok is not None and not rule.ok(value):
        raise ContractError(f"{name} must be {rule.bound}, got {value!r}")


class RunConfig:
    """Validated, fully resolved run configuration: ``raw`` as given, with
    the flags' values over the config's, ``values`` with number-kind values
    converted to float, and the seed and run settings as plain ints."""

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
            _check(f"config key {key}", rule, value)
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
                _check(f"config key p.{key}", KeyRule(NUMBER), spec[key])
        flags = {"seed": seed_override, "jobs": jobs, "cap_enum": cap_enum,
                 "cap_window": cap_window}
        flags = {key: value for key, value in flags.items() if value is not None}
        for key, value in flags.items():
            _check(f"--{key.replace('_', '-')}", rules[key], value)
        self.command = command
        # a flag beats the config's value
        self.raw = {**raw, **flags}
        for need in _REQUIRED_KEYS[command]:
            if isinstance(need, tuple) and all(key in raw for key in need):
                raise ContractError(
                    f"{command} over {need[-1]} does not read the config key "
                    f"{need[0]}; give one of {' or '.join(need)}")
        if command == "burnin":
            mode = "ns" if "ns" in raw else "n"
        else:
            mode = self.raw.get(*_MODE_KEYS.get(command, (None, None)))
        for key in raw:
            if rules[key].modes and mode not in rules[key].modes:
                raise ContractError(f"{command} in {mode} mode does not read "
                                    f"the config key {key}")
        for key, (default, readers) in RUN_SETTINGS.items():
            if (self.raw.get(key, default) != default
                    and (command, mode) not in readers
                    and (command, None) not in readers):
                # name the mode where another mode reads the setting
                where = (f"{command} in {mode} mode"
                         if any(c == command for c, _ in readers) else command)
                raise ContractError(
                    f"{where} does not read the run setting {key}; it takes "
                    f"only the default {default}, got {self.raw[key]!r}")
        self.seed = self.raw.get("seed", 0)
        self.jobs, self.cap_enum, self.cap_window = (
            self.raw.get(key, default)
            for key, (default, _) in RUN_SETTINGS.items())
        self.out = out or raw.get("out") or "atshuffle-out"

    def pick(self, *keys) -> dict:
        """The validated values of those keys that the config sets."""
        return {key: self.values[key] for key in keys if key in self.values}

    def instance(self):
        """The (n, p, ell) instance the config names; ell may be None."""
        n = self.values["n"]
        return (n, _load_bias(self.values["p"], n, self.seed),
                _load_ell(self.values.get("ell"), n))

    def resolved(self) -> dict:
        """The config that reruns this run: the seed and jobs always, the
        caps when a flag or the config sets them."""
        return {**self.raw, "seed": self.seed, "jobs": self.jobs}


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


def _load_ell(spec, n: int) -> LocalizationVector | None:
    if spec is None:
        return None
    if isinstance(spec, dict) and "file" in spec:
        ell = _parse_file(spec, "ell", LocalizationVector.from_text)
    elif _has_kind(spec, INT):
        ell = LocalizationVector.constant(n, spec)
    elif isinstance(spec, list) and all(
            isinstance(pair, list) and len(pair) == 2
            and all(_has_kind(v, INT) or v == math.inf for v in pair)
            for pair in spec):
        ell = LocalizationVector([a for a, _ in spec], [b for _, b in spec])
    else:
        raise ContractError(f"ell must be null, an int, [[lo,hi],...], or a "
                            f"file; got {spec!r}")
    if ell.n != n:
        raise ContractError(f"ell has {ell.n} entries, but n = {n}")
    return ell


def _family_dict(spec) -> dict:
    if not (isinstance(spec, dict) and "family" in spec):
        raise ContractError("this command needs p as {'family': ...}")
    fam = dict(spec)
    fam["kind"] = fam.pop("family")
    return fam


def generate_instance(family: str, n: int, epsilon: float | None, seed: int,
                      path: str) -> str:
    """Write a certified bias-matrix instance file, the instance that a
    config with this family and seed runs (constant-q is given by its
    epsilon); returns the path."""
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    kind = "constant-eps" if family == "constant-q" else family
    if FAMILY_PARAMS.get(kind) and epsilon is None:
        raise ContractError(f"{family} generation needs epsilon >= 0")
    p = make_family(n, {"kind": kind, "eps": epsilon}, seed)
    if epsilon is not None and p.epsilon < epsilon - 1e-12:
        raise ContractError("generated instance misses the requested bias")
    with open(path, "w") as fh:
        fh.write(p.to_text())
    return path


# ---------------------------------------------------------------------------
# command handlers; each returns its ExperimentResult-like record and the
# paths of the artifacts it wrote besides result.json and result.csv
# ---------------------------------------------------------------------------

def _run_exact(cfg: RunConfig, outdir: str):
    n, p, ell = cfg.instance()
    mu = enumerate_stationary(n, p, ell, cfg.cap_enum)
    P = build_transition_matrix(p, mu)
    gap = spectral_gap(P, mu)
    verdict = Verdict(True, "detailed balance holds (checked at build)",
                      {"logZ": mu.logZ, "Z": float(np.exp(mu.logZ)),
                       "gap": gap, "states": len(mu)})
    res = ExperimentResult("exact", instance_fingerprint(p, ell),
                           cfg.resolved(), [], verdict,
                           {"distribution": "distribution.csv"})
    path = os.path.join(outdir, "distribution.csv")
    mu.to_csv(path)
    return res, [path]


def _run_sample(cfg: RunConfig, outdir: str):
    n, p, ell = cfg.instance()
    samples = cfg.values.get("samples", 100)
    check_draw_memory(samples, n, "samples")
    sampler = exact_localized_sampler(p, ell, window_cap=cfg.cap_window)
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
    return res, [path]


def _run_chain(cfg: RunConfig, outdir: str):
    n, p, ell = cfg.instance()
    steps = cfg.values.get("steps", 10 * n * n)
    every = cfg.values.get("checkpoint_every", max(1, steps // 100))
    init = cfg.values.get("init", "reversal")
    tracked = cfg.values.get("tracked_ks", [])
    if not all(1 <= k < n for k in tracked):
        raise ContractError(f"tracked_ks must lie in 1..{n - 1}, got {tracked}")
    rng = derive_rng(cfg.seed, experiment_id("chain"))
    rows = _start_rows(n, init, 1, rng)
    path = os.path.join(outdir, "trajectory.jsonl")
    marks = list(range(0, steps + 1, every))
    recs = []

    def snap(t, F):
        recs.append((t, F[0].copy()))

    ensemble_chain_run(p, rows, steps, rng, ell=ell, checkpoints=marks,
                       checkpoint_fn=snap)
    with open(path, "w") as fh:
        for t, f in recs:
            write_checkpoint(fh, t, f, tracked)
    verdict = Verdict(True, "record-only trajectory", {
        "final_max_displacement": int(max_displacement(recs[-1][1][None])[0])})
    res = ExperimentResult("chain", instance_fingerprint(p, ell),
                           cfg.resolved(), [], verdict,
                           {"steps": steps, "trajectory": "trajectory.jsonl"})
    return res, [path]


def _run_asep(cfg: RunConfig, outdir: str):
    res = asep_tail_check(cfg.values["n"], cfg.values["k"], cfg.values["q"],
                          **cfg.pick("rs"))
    return res, []


def _run_burnin(cfg: RunConfig, outdir: str):
    if "ns" in cfg.values:
        res = burn_in_scaling(
            cfg.values["ns"], _family_dict(cfg.values["p"]), seed=cfg.seed,
            **cfg.pick("T_mult", "replicas", "quantile"))
    else:
        n, p, ell = cfg.instance()
        res = burn_in_profile(
            n, p, seed=cfg.seed, ell=ell,
            **cfg.pick("init", "T", "replicas", "quantile"))
    return res, []


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
    n, p, ell = cfg.instance()
    if ell is None:
        raise ContractError("spatial needs a localization vector")
    eta = _boundary_from_spec(cfg.values["eta"], n, "eta")
    eta_bar = _boundary_from_spec(cfg.values["eta_bar"], n, "eta_bar")
    res = spatial_decay_curve(
        p, ell, eta, eta_bar, cfg.values["rs"], seed=cfg.seed,
        window_cap=cfg.cap_window, **cfg.pick("mode", "budget", "threshold"))
    return res, []


def _run_disconnect(cfg: RunConfig, outdir: str):
    n, p, ell = cfg.instance()
    boundary = None
    if cfg.values.get("boundary") is not None:
        boundary = _boundary_from_spec(cfg.values["boundary"], n, "boundary")
    res = disconnect_probability(
        p, ell, boundary, seed=cfg.seed, window_cap=cfg.cap_window,
        enum_cap=cfg.cap_enum, **cfg.pick("ks", "mode", "budget"))
    return res, []


def _run_blockcheck(cfg: RunConfig, outdir: str):
    n, p, ell = cfg.instance()
    schedule = BlockSchedule(cfg.values.get("schedule", "west-east"), n,
                             **cfg.pick("selection"))
    res = block_decomposition_check(n, p, ell, schedule,
                                    enum_cap=cfg.cap_enum)
    return res, []


def _run_mix(cfg: RunConfig, outdir: str):
    res = mixing_scaling(
        cfg.values["ns"] if "ns" in cfg.values else [cfg.values["n"]],
        _family_dict(cfg.values["p"]), seed=cfg.seed, jobs=cfg.jobs,
        enum_cap=cfg.cap_enum, **cfg.pick("delta", "method", "budget"))
    paths = []
    for key, curve in res.meta.get("tv_curves", {}).items():
        cpath = os.path.join(outdir, f"tv_curve_n{key}.csv")
        with open(cpath, "w") as fh:
            fh.write("t,tv\n")
            for t, tv in enumerate(curve):
                fh.write(f"{t},{tv!r}\n")
        paths.append(cpath)
    return res, paths


def _run_lowerbound(cfg: RunConfig, outdir: str):
    n, p, _ = cfg.instance()
    res = lower_bound_experiment(
        n, p, seed=cfg.seed, **cfg.pick("eta", "replicas", "threshold"))
    return res, []


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
        artifacts = res.write(outdir, "result") + artifacts
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
