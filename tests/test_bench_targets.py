"""The traced benchmark's span targets still exist with the parameters it binds.

``bench/spans.py`` wraps functions by name and reads their arguments by
parameter name; a rename there would only show when the traced bench runs.
"""

import importlib.util
import inspect
import os
import re

from atshuffle import measure
from atshuffle.perms import BiasMatrix

SPANS_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def target_function(owner, attr):
    if inspect.isclass(owner):
        raw = owner.__dict__[attr]
        return raw.__func__ if isinstance(raw, classmethod) else raw
    return getattr(owner, attr)


def test_every_span_target_resolves_with_the_parameters_its_counter_binds():
    spans = load_spans()
    bound_names = set()
    for name, owner, attr, counter in spans.TARGETS:
        fn = target_function(owner, attr)
        assert callable(fn), name
        if counter is None:
            continue
        source = inspect.getsource(counter)
        if "_bound(" not in source:
            continue
        # the counter reads the bound arguments by name, as a["name"]
        names = set(re.findall(r'\["(\w+)"\]', source))
        params = inspect.signature(fn).parameters
        assert names <= set(params), (name, names - set(params))
        bound_names |= names
    assert bound_names == {"starts", "steps", "t_cap", "T", "driver", "text",
                           "cfg"}


def test_tracing_installs_and_restores_every_target():
    spans = load_spans()
    original = measure.build_transition_matrix
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert measure.build_transition_matrix is not original
        p = BiasMatrix.constant(3, 0.6)
        measure.build_transition_matrix(p, measure.enumerate_stationary(3, p))
    assert measure.build_transition_matrix is original
    summary = tracer.summary()
    assert summary["measure.build_transition_matrix"]["calls"] == 1
    assert summary["measure.enumerate_stationary"]["counters"]["states"] == 6
