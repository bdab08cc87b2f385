"""Spans and work counters for the traced benchmark run.

The package itself is not instrumented.  ``installed`` wraps the public
functions of each layer at run time, from this file, and puts each wrapper in
every ``atshuffle`` module namespace that holds the original function (so
``asep_pair_coalescence`` is traced when ``experiments`` calls it, and
``heat_bath_block_sample`` when ``chains`` calls it).  Leaving the context
restores every original, so traced and untraced passes share one process.

Spans are kept in memory: name, start, end, parent span and round (the
request identifier).  A span's self time is its duration minus the time its
direct children cover; calls are single-threaded and nested, so that is the
sum of the children's durations.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import sys
from collections import Counter
from time import perf_counter

from atshuffle import banddp, chains, cli, experiments, measure, perms


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _replica_steps(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"replica_steps": len(a["starts"]) * int(a["steps"])}


def _coalescence_steps(fn, args, kwargs, result):
    if result is None:
        return {"steps": int(_bound(fn, args, kwargs)["t_cap"])}
    return {"steps": int(result)}


def _audit_steps(fn, args, kwargs, result):
    return {"steps": int(result["steps"])}


def _block_updates(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    if a["driver"] != "block":
        return {}
    t = result[0]
    # both chains take one heat-bath block update per step
    return {"block_updates": 2 * (int(a["T"]) if t is None else int(t))}


def _text_out(fn, args, kwargs, result):
    return {"text_bytes": len(result)}


def _text_in(fn, args, kwargs, result):
    return {"text_bytes": len(_bound(fn, args, kwargs)["text"])}


def _strategy(fn, args, kwargs, result):
    return {f"strategy.{result.strategy}": 1}


def _draws(fn, args, kwargs, result):
    return {"draws": len(result)}


def _states(fn, args, kwargs, result):
    return {"states": len(result.support)}


def _artifact_bytes(fn, args, kwargs, result):
    out = _bound(fn, args, kwargs)["cfg"].out
    return {"artifact_bytes": sum(e.stat().st_size for e in os.scandir(out)
                                  if e.is_file())}


# (span name, owner, attribute, counter); owners are modules or classes
TARGETS = [
    ("cli.run", cli, "run", _artifact_bytes),
    ("experiments.burn_in_profile", experiments, "burn_in_profile", None),
    ("experiments.lower_bound_experiment", experiments,
     "lower_bound_experiment", None),
    ("experiments.mixing_scaling", experiments, "mixing_scaling", None),
    ("experiments.block_chain_mixing", experiments, "block_chain_mixing",
     None),
    ("experiments.spatial_decay_curve", experiments, "spatial_decay_curve",
     None),
    ("chains.ensemble_chain_run", chains, "ensemble_chain_run",
     _replica_steps),
    ("chains.asep_pair_coalescence", chains, "asep_pair_coalescence",
     _coalescence_steps),
    ("chains.domination_audit_run", chains, "domination_audit_run",
     _audit_steps),
    ("chains.asep_monotone_audit_run", chains, "asep_monotone_audit_run",
     _audit_steps),
    ("chains.twin_chain_coupling_run", chains, "twin_chain_coupling_run",
     _block_updates),
    ("banddp.exact_localized_sampler", banddp, "exact_localized_sampler",
     _strategy),
    ("banddp.heat_bath_block_sample", banddp, "heat_bath_block_sample", None),
    ("banddp.mallows.draw_rows", banddp.MallowsRejectionSampler, "draw_rows",
     _draws),
    ("banddp.band-dp.draw_rows", banddp.BandDPSampler, "draw_rows", _draws),
    # private passes, traced only so that sampler self time excludes them
    ("banddp.BandDP.forward", banddp.BandDP, "_forward", None),
    ("banddp.BandDP.backward", banddp.BandDP, "_backward", None),
    ("measure.enumerate_stationary", measure, "enumerate_stationary", _states),
    ("measure.build_transition_matrix", measure, "build_transition_matrix",
     None),
    ("measure.spectral_gap", measure, "spectral_gap", None),
    ("perms.BiasMatrix.to_text", perms.BiasMatrix, "to_text", _text_out),
    ("perms.BiasMatrix.from_text", perms.BiasMatrix, "from_text", _text_in),
    ("perms.restrict_instance", perms, "restrict_instance", None),
]


class Tracer:
    """In-memory span recorder; ``round`` tags the spans of one round."""

    def __init__(self):
        self.spans = []
        self.round = None
        self._stack = []

    def call(self, name, fn, counter, args, kwargs):
        span = {"id": len(self.spans), "name": name, "round": self.round,
                "parent": self._stack[-1] if self._stack else None,
                "counters": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = perf_counter()
            self._stack.pop()
        if counter is not None:
            span["counters"] = counter(fn, args, kwargs, result)
        return result

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, counters."""
        covered = Counter()
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        out = {}
        for s in self.spans:
            agg = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0,
                                             "self_s": 0.0,
                                             "counters": Counter()})
            dur = s["end"] - s["start"]
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - covered[s["id"]]
            agg["counters"].update(s["counters"])
        return out


def _wrap(tracer, name, fn, counter):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, counter, args, kwargs)
    traced.__wrapped__ = fn
    return traced


@contextlib.contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Trace every target for the duration of the block, then restore."""
    undo = []
    try:
        for name, owner, attr, counter in targets:
            if inspect.isclass(owner):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(_wrap(tracer, name, raw.__func__,
                                            counter))
                else:
                    new = _wrap(tracer, name, raw, counter)
                setattr(owner, attr, new)
                undo.append((owner, attr, raw))
                continue
            fn = getattr(owner, attr)
            new = _wrap(tracer, name, fn, counter)
            for mod in [m for k, m in sys.modules.items()
                        if k == "atshuffle" or k.startswith("atshuffle.")]:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, new)
                        undo.append((mod, key, fn))
        yield tracer
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)
