#!/usr/bin/env python3
"""atshuffle benchmark: time a workload end to end, check every output.

    python3 bench/run.py --workload {burnin,coupling,blockdyn,exact}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src`` directory.  One process is one client: rounds of the workload's calls
run back to back, with jobs = 1 and BLAS/OpenMP threads pinned to 1, until
``--seconds`` have passed.  Round 0 runs once untimed first, to finish lazy
set-up, and its timed rerun must produce byte-identical result files (one
value, the ``exact`` workload's iteratively computed spectral gap, is compared
within its solver's tolerance instead; see ``bench/README.md``).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` every round runs twice, untraced and
traced in alternating order, and the metrics are the per-layer figures from
the traced passes plus the tracing overhead.  A record with the environment,
the per-round figures and every failed check goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
SETUP_SAMPLES = 5     # the main process plus four fresh probe processes
# reference_slice()'s seconds on a quiet 2-core Xeon VM; timings are scaled
# to this speed so that shared-CPU contention cancels out
REFERENCE_S = 0.015
# contention on a shared box changes at every time scale, and its level a
# few seconds away says little about the level during a call; so each call
# is scaled by the mean slice within this reach of its ends, and slices worth
# this share of each call's time keep that mean from resting on a few slices
SPEED_WINDOW_S = 1.0
REFERENCE_SHARE = 0.25


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("burnin", "coupling", "blockdyn", "exact"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time import and set-up only, print the seconds")
    return ap.parse_args(argv)


def setup(name: str, seed: int, workdir: str):
    """Import the package, build the workload and round 0's inputs.

    Returns the workload and the set-up time, raw and at reference speed.
    """
    t0 = perf_counter()
    import atshuffle
    if os.path.commonpath([os.path.abspath(atshuffle.__file__), SRC]) != SRC:
        raise ImportError(f"atshuffle was imported from {atshuffle.__file__}, "
                          f"not from {SRC}")
    import workloads
    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.calls(0)
    raw = perf_counter() - t0
    slices = []
    sample_speed(slices, raw)
    return wl, (raw, raw * REFERENCE_S / statistics.median(d for _, d in slices))


def probe_setup(name: str, seed: int) -> tuple:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True)
    return tuple(json.loads(out.stdout.strip().splitlines()[-1]))


def reference_slice() -> float:
    """Fixed work that never touches the package; returns its seconds.

    Interpreter-bound, small-array and text-parsing work in about equal
    shares, the kinds of work that dominate the workloads.  Timed next to
    every call, it gauges how fast the shared CPU runs at that moment.
    """
    import numpy as np
    t0 = perf_counter()
    rnd = random.Random(12345)
    x = list(range(64))
    for _ in range(12_000):
        i = rnd.randrange(63)
        if (rnd.random() < 0.75) == (x[i] > x[i + 1]):
            x[i], x[i + 1] = x[i + 1], x[i]
    rng = np.random.default_rng(1)
    F = np.tile(np.arange(64), (150, 1))
    rows = np.arange(150)
    for _ in range(250):
        e = rng.integers(1, 63, 150)
        a, b = F[rows, e - 1], F[rows, e]
        do = rng.random(150) < 0.5
        F[rows[do], e[do] - 1] = b[do]
        F[rows[do], e[do]] = a[do]
    text = "\n".join(f"p {i} {i + 1} {v!r}" for i, v in
                     enumerate(rng.random(1_500).tolist()))
    parsed = {}
    for line in text.splitlines():
        parts = line.split()
        parsed[int(parts[1]), int(parts[2])] = float(parts[3])
    return perf_counter() - t0


def sample_speed(slices: list, seconds: float) -> None:
    """Run reference slices for about ``seconds`` (at least one), recording
    each slice's (midpoint, seconds) in ``slices``."""
    spent = 0.0
    while True:
        sec = reference_slice()
        slices.append((perf_counter() - sec / 2, sec))
        spent += sec
        if spent >= seconds:
            return


def run_round(wl, r: int, slices: list, tracer=None):
    """One round of calls, back to back, with reference slices between calls.

    Returns the calls, their outputs and each call's (midpoint, seconds).
    After each call, slices run for REFERENCE_SHARE of its time; they are
    appended to ``slices`` and are not part of the round.
    """
    calls = wl.calls(r)
    outputs, times = [], []
    ctx = contextlib.nullcontext()
    if tracer is not None:
        import spans
        tracer.round = r
        ctx = spans.installed(tracer)
    with ctx:
        sample_speed(slices, 0.0)
        for call in calls:
            t0 = perf_counter()
            try:
                outputs.append(call.run())
            except Exception:       # a raising call is a failed check
                traceback.print_exc()
                outputs.append(None)
            t1 = perf_counter()
            times.append(((t0 + t1) / 2, t1 - t0))
            sample_speed(slices, REFERENCE_SHARE * (t1 - t0))
    return calls, outputs, times


def at_reference_speed(times, slices) -> float:
    """Sum of call seconds, each scaled to the reference speed.

    A call's speed is the mean reference slice within SPEED_WINDOW_S of its
    ends, which always includes the slices just before and after it.
    """
    mids = [m for m, _ in slices]
    total = 0.0
    for mid, sec in times:
        reach = sec / 2 + SPEED_WINDOW_S
        near = [d for m, (_, d) in zip(mids, slices) if abs(m - mid) <= reach]
        total += sec * REFERENCE_S / statistics.fmean(near)
    return total


def verify_round(calls, outputs, checks):
    """Check every output; returns verified units of work and the digests."""
    units = 0
    digests = []
    for call, out in zip(calls, outputs):
        before = len(checks.failures)
        if not checks.expect(out is not None, f"{call.label}: raised"):
            digests.append(None)
            continue
        try:
            u, d = call.verify(out, checks)
        except Exception:
            traceback.print_exc()
            checks.expect(False, f"{call.label}: output could not be checked")
            u, d = 0, None
        # only work whose output passed every check counts
        units += u if len(checks.failures) == before else 0
        digests.append(d)
    return units, digests


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def environment() -> dict:
    import numpy as np
    import scipy
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = (np.show_config(mode="dicts").get("Build Dependencies", {})
            .get("blas", {}))
    commit = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)})
        if git.returncode == 0:
            commit = git.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"git_commit": commit, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "threads": {v: os.environ.get(v) for v in PINNED_THREADS}}


def end_to_end(walls, units, setup_s) -> dict:
    """Median round time, work rate, peak memory and set-up time.

    ``walls`` and ``units`` are per round.  The rate is total verified work
    over total round time: in blockdyn the cost of a round is not
    proportional to its block updates, so per-round rates vary with the mix.
    """
    return {
        "wall_s": (statistics.median(walls), "s"),
        "work_rate": (sum(units) / sum(walls), "units/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(summary: dict, records: dict, overhead: float,
              n_spans: int) -> dict:
    def agg(name):
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                  "counters": {}})

    def count(name, key):
        return agg(name)["counters"].get(key, 0)

    def per(seconds, base, scale=1e6):
        return seconds / base * scale if base else 0.0

    out = {}
    for name, key in (("chains.ensemble_chain_run", "replica_steps"),
                      ("chains.asep_pair_coalescence", "steps"),
                      ("chains.domination_audit_run", "steps"),
                      ("chains.asep_monotone_audit_run", "steps"),
                      ("chains.twin_chain_coupling_run", "block_updates")):
        base = count(name, key)
        unit_name = "block_update" if key == "block_updates" else key[:-1]
        out[f"{name}.us_per_{unit_name}"] = (
            per(agg(name)["total_s"], base), "us")
        out[f"{name}.{key}"] = (base, "count")
    for name in ("perms.BiasMatrix.to_text", "perms.BiasMatrix.from_text",
                 "perms.restrict_instance", "banddp.exact_localized_sampler",
                 "measure.enumerate_stationary",
                 "measure.build_transition_matrix", "measure.spectral_gap",
                 "experiments.burn_in_profile",
                 "experiments.lower_bound_experiment",
                 "experiments.mixing_scaling",
                 "experiments.block_chain_mixing",
                 "experiments.spatial_decay_curve", "cli.run"):
        out[f"{name}.self_s"] = (agg(name)["self_s"], "s")
        out[f"{name}.calls"] = (agg(name)["calls"], "count")
    out["perms.text_bytes"] = (
        count("perms.BiasMatrix.to_text", "text_bytes")
        + count("perms.BiasMatrix.from_text", "text_bytes"), "B")
    for strategy in ("enumeration", "band-dp", "mallows-rejection"):
        out[f"banddp.exact_localized_sampler.strategy.{strategy}"] = (
            count("banddp.exact_localized_sampler", f"strategy.{strategy}"),
            "count")
    for strategy in ("mallows", "band-dp"):
        name = f"banddp.{strategy}.draw_rows"
        draws = count(name, "draws")
        out[f"banddp.{strategy}.us_per_draw"] = (
            per(agg(name)["self_s"], draws), "us")
        out[f"banddp.{strategy}.draws"] = (draws, "count")
    hb = agg("banddp.heat_bath_block_sample")
    out["banddp.heat_bath_block_sample.us_per_call"] = (
        per(hb["total_s"], hb["calls"]), "us")
    out["banddp.heat_bath_block_sample.calls"] = (hb["calls"], "count")
    for W in (19, 21):
        for key, unit in (("forward_s", "s"), ("backward_s", "s"),
                          ("max_layer_states", "count"),
                          ("computed_bytes", "B")):
            out[f"banddp.BandDP.{key}.W{W}"] = (
                records.get(f"{key}.W{W}", 0.0), unit)
    out["measure.states"] = (count("measure.enumerate_stationary", "states"),
                             "count")
    out["cli.artifact_bytes"] = (count("cli.run", "artifact_bytes"), "B")
    out["trace.overhead_frac"] = (overhead, "ratio")
    out["trace.spans"] = (n_spans, "count")
    return out


def measure(wl, seconds: float, trace: bool, checks, setups):
    """The timed loop.

    Returns the metrics, the figures reported beside them, the per-round
    record with the reference slices, and the spans of a traced run.
    """
    slices = []
    calls, outs, _ = run_round(wl, 0, slices)
    _, reference = verify_round(calls, outs, checks)
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
    rounds = []
    start = perf_counter()
    r = 0
    while r == 0 or perf_counter() - start < seconds:
        # in a traced run each round also runs traced, alternating which
        # pass goes first; both passes must give identical result files
        passes = [None, tracer] if r % 2 == 0 else [tracer, None]
        digests = [reference] if r == 0 else []
        rec = {"round": r}
        for tr in passes if trace else [None]:
            calls, outs, times = run_round(wl, r, slices, tr)
            units, d = verify_round(calls, outs, checks)
            digests.append(d)
            rec["traced" if tr else "untraced"] = {"times": times,
                                                   "units": units}
        checks.expect(all(d == digests[0] for d in digests),
                      f"round {r}: result files differ between reruns")
        rounds.append(rec)
        r += 1
    for rec in rounds:
        for p in [rec[k] for k in ("untraced", "traced") if k in rec]:
            p["wall_s"] = sum(sec for _, sec in p["times"])
            p["norm_s"] = at_reference_speed(p["times"], slices)
    units = [rec["untraced"]["units"] for rec in rounds]
    walls = [rec["untraced"]["wall_s"] for rec in rounds]
    norm = [rec["untraced"]["norm_s"] for rec in rounds]
    # reported, not gated: the tail percentile over a dozen rounds is the
    # second-slowest round, which moves too much on a shared box; the raw
    # figures are the same quantities before scaling to reference speed
    extra = {"rounds": (len(rounds), "count"),
             "wall_s_p90": (percentile(norm, 0.9), "s"),
             "raw.wall_s": (statistics.median(walls), "s"),
             "raw.wall_s_p90": (percentile(walls, 0.9), "s"),
             "raw.work_rate": (sum(units) / sum(walls), "units/s"),
             "raw.setup_s": (statistics.median(raw for raw, _ in setups),
                             "s")}
    if not trace:
        metrics = end_to_end(norm, units,
                             statistics.median(n for _, n in setups))
        return metrics, extra, {"rounds": rounds, "slices": slices}, None
    traced = sum(rec["traced"]["norm_s"] for rec in rounds)
    metrics = per_layer(tracer.summary(), wl.layer_records(),
                        traced / sum(norm) - 1.0, len(tracer.spans))
    return metrics, extra, {"rounds": rounds, "slices": slices}, \
        tracer.spans


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in PINNED_THREADS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        try:
            wl, setup_s = setup(args.workload, args.seed, workdir)
        except ImportError as exc:
            print(f"bench: cannot import the package: {exc}", file=sys.stderr)
            return 2
        if args.setup_probe:
            print(json.dumps(setup_s))
            return 0
        load_before = os.getloadavg()
        setups = [setup_s] + [probe_setup(args.workload, args.seed)
                              for _ in range(SETUP_SAMPLES - 1)]
        from workloads import Checks
        checks = Checks()
        metrics, extra, log, span_list = measure(
            wl, args.seconds, bool(args.trace), checks, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment()
    env["loadavg_before"] = load_before
    env["loadavg_after"] = os.getloadavg()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "unit": wl.unit, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "setup_samples_s": setups,
              "reported": {k: {"value": v, "unit": u}
                           for k, (v, u) in extra.items()},
              **log, "checks_attempted": checks.attempted,
              "checks_failed": checks.failures,
              "known_defects": checks.known_defects,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    with open(os.path.join(OUT, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if span_list is not None:
        with open(os.path.join(OUT, stem + "-spans.jsonl"), "w") as fh:
            for s in span_list:
                fh.write(json.dumps(s) + "\n")
    failed = len(checks.failures)
    print(f"workload {args.workload}: {len(log['rounds'])} rounds, unit of work: "
          f"{wl.unit}, environment: {json.dumps(env)}")
    for k, (v, u) in extra.items():
        print(f"info {k} {v!r} {u}")
    for k, (v, u) in metrics.items():
        print(f"{k} {v!r} {u}")
    print(f"failed_frac {failed / max(1, checks.attempted)!r} ratio "
          f"({failed} of {checks.attempted} checks)")
    print(f"info known_defects {len(checks.known_defects)} count")
    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
