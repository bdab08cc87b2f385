"""Tests of the benchmark itself, including the negative controls.

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from atshuffle import chains, experiments  # noqa: E402
from atshuffle.perms import BiasMatrix, LocalizationVector  # noqa: E402

FAMILY = {"kind": "constant-q", "q": 0.75}


def _run_calls(calls):
    class OneRound(workloads.Workload):
        def calls(self, r):
            return calls
    checks = workloads.Checks()
    got, outs, _ = run.run_round(OneRound(0, ""), 0, [])
    units, digests = run.verify_round(got, outs, checks)
    return checks, units, digests


def test_negative_control_unreachable_slope_window_counts_as_failure():
    call = workloads.Call(
        "mix-unreachable",
        lambda: experiments.mixing_scaling([16, 32], FAMILY, budget=4, seed=1,
                                           slope_window=(0.0, 0.1)),
        lambda res, checks: (
            1 if checks.verdict("mix", res.verdict.as_dict()) else 0, ""))
    checks, units, _ = _run_calls([call])
    assert checks.failures == ["mix: verdict did not pass"]
    assert units == 0


def test_negative_control_failed_cli_verdict_counts_as_failure(tmp_path):
    call = workloads.cli_call(
        "lowerbound-unreachable",
        {"command": "lowerbound", "n": 16, "p": {"family": "constant-q",
                                                  "q": 0.75},
         "replicas": 20, "threshold": -1.0, "seed": 3},
        str(tmp_path), lambda result, outdir, checks: 1)
    checks, units, _ = _run_calls([call])
    assert "lowerbound-unreachable: exit status 1" in checks.failures
    assert "lowerbound-unreachable: verdict did not pass" in checks.failures
    assert units == 0


def test_a_raising_call_is_a_failure():
    def boom():
        raise ValueError("injected")
    call = workloads.Call("boom", boom, lambda out, checks: (1, ""))
    checks, units, digests = _run_calls([call])
    assert checks.failures == ["boom: raised"] and units == 0
    assert digests == [None]


def test_exact_gap_is_compared_within_tolerance_not_bytes():
    wl = workloads.Exact(0, "")
    states = {"states": 40320}
    checks = workloads.Checks()
    for gap in (0.031, 0.031 + 1e-15, 0.031 + 2 * wl.GAP_TOL):
        wl._exact_units(0, {"verdict": {"details": {**states, "gap": gap}}},
                        checks)
    assert len(checks.known_defects) == 2
    assert len(checks.failures) == 1
    assert "by more than" in checks.failures[0]


def test_unhashed_key_is_left_out_of_the_digest_and_nothing_else(tmp_path):
    call = workloads.cli_call(
        "exact-small", {"command": "exact", "n": 4,
                        "p": {"family": "random-eps", "eps": 0.5}, "seed": 2},
        str(tmp_path), lambda result, outdir, checks: 1, unhashed=("gap",))
    path = tmp_path / "exact-small-out" / "result.json"

    def digest(edit):
        assert call.run() == 0
        path.write_text(edit(path.read_text()))
        units, d = call.verify(0, workloads.Checks())
        assert units == 1
        return d

    same = digest(lambda text: text)
    assert digest(lambda text: text.replace('"gap": 0.', '"gap": 0.0')) == same
    assert digest(lambda text: text.replace('"states": 24', '"states": 25')) != same


def test_localization_check_rejects_bad_rows():
    good = [[2, 1, 3, 4], [1, 2, 4, 3]]
    assert workloads._check_localized_rows(good, 4, 1)
    assert not workloads._check_localized_rows([[3, 1, 2, 4]], 4, 1)
    assert not workloads._check_localized_rows([[1, 1, 3, 4]], 4, 1)


def test_same_seed_gives_same_inputs(tmp_path):
    def configs(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        workloads.Burnin(seed, str(d)).calls(3)
        return {f.name: f.read_text() for f in sorted(d.iterdir())}
    first = configs(7, "a")
    assert first == configs(7, "b")
    assert first != configs(8, "c")


def test_spans_nest_and_self_times_add_up():
    tracer = spans.Tracer()
    original = experiments.asep_pair_coalescence
    with spans.installed(tracer):
        assert experiments.asep_pair_coalescence is not original
        experiments.mixing_scaling([8, 16], FAMILY, budget=2, seed=5)
    assert experiments.asep_pair_coalescence is original
    assert chains.asep_pair_coalescence is original
    root = [s for s in tracer.spans if s["parent"] is None]
    assert [s["name"] for s in root] == ["experiments.mixing_scaling"]
    kids = [s for s in tracer.spans if s["parent"] == root[0]["id"]]
    assert [s["name"] for s in kids] == ["chains.asep_pair_coalescence"] * 4
    summary = tracer.summary()
    total_self = sum(a["self_s"] for a in summary.values())
    assert total_self == pytest.approx(root[0]["end"] - root[0]["start"])
    assert summary["chains.asep_pair_coalescence"]["counters"]["steps"] > 0


def test_block_updates_from_results_match_the_trace():
    n, ell = 40, 4
    wl = workloads.BlockDyn(0, "")
    wl.REPLICAS = 3
    p = BiasMatrix.constant(n, 0.75)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        res = experiments.block_chain_mixing(
            n, p, LocalizationVector.constant(n, ell),
            chains.BlockSchedule.west_east(n), replicas=3, step_cap=50,
            seed=11)
    units, _ = wl._verify(res, workloads.Checks())
    counted = tracer.summary()["chains.twin_chain_coupling_run"]["counters"]
    assert units == counted["block_updates"] > 0
    hb = tracer.summary()["banddp.heat_bath_block_sample"]["calls"]
    assert hb == units


def test_benchmark_json_lists_exactly_the_printed_metrics():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = run.end_to_end([1.0, 2.0], [10, 30], 0.5)
    layers = run.per_layer({}, {}, 0.0, 0)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in e2e.values()]
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in layers.values()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_reference_speed_scaling_cancels_a_uniform_slowdown():
    slices = [(0.0, run.REFERENCE_S), (2.0, run.REFERENCE_S)]
    slow = [(m, 2 * d) for m, d in slices]
    times = [(1.0, 1.5)]
    assert run.at_reference_speed(times, slices) == pytest.approx(1.5)
    doubled = [(1.0, 3.0)]
    assert run.at_reference_speed(doubled, slow) == pytest.approx(1.5)


def test_percentile_is_nearest_rank():
    values = list(np.arange(1.0, 11.0))
    assert run.percentile(values, 0.9) == 9.0
    assert run.percentile(values, 0.5) == 5.0
    assert run.percentile([3.0], 0.9) == 3.0
