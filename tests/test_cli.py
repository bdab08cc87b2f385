import concurrent.futures
import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chain_oracle import is_monotone
from atshuffle import banddp, cli, experiments, measure
from atshuffle.cli import RunConfig, generate_instance, main, run
from atshuffle.errors import ContractError
from atshuffle.perms import BiasMatrix, LocalizationVector


def write_config(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_exact_command(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "command": "exact", "n": 3, "p": {"family": "constant-q", "q": 0.6}})
    out = str(tmp_path / "run")
    assert main(["--config", cfg, "--out", out]) == 0
    rec = json.loads((tmp_path / "run" / "result.json").read_text())
    assert rec["verdict"]["details"]["Z"] == pytest.approx(0.76, abs=1e-12)
    # the law is in distribution.csv, which result.json names
    assert rec["series"] == []
    assert rec["meta"] == {"distribution": "distribution.csv"}
    man = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert man["incomplete"] is False
    assert "runtime_s" in man and "started" in man
    header, *rows = (tmp_path / "run" / "distribution.csv").read_text() \
        .splitlines()
    assert header == "s1,s2,s3,probability"
    assert len(rows) == 6 and rows[0].startswith("1,2,3,")
    assert sum(float(row.split(",")[-1]) for row in rows) == \
        pytest.approx(1.0, abs=1e-12)
    assert (tmp_path / "run" / "resolved_config.json").exists()


def test_mix_exact_command(tmp_path):
    cfg = write_config(tmp_path, "m.json", {
        "command": "mix", "ns": [2], "p": {"family": "constant-q", "q": 0.6},
        "method": "exact", "delta": 0.25})
    out = str(tmp_path / "mix")
    assert main(["--config", cfg, "--out", out]) == 0
    rec = json.loads((tmp_path / "mix" / "result.json").read_text())
    assert rec["series"][0]["estimate"] == 1.0
    # the worst-case TV curve is exported as t,tv
    curve = (tmp_path / "mix" / "tv_curve_n2.csv").read_text().splitlines()
    assert curve[0] == "t,tv"
    assert float(curve[1].split(",")[1]) == pytest.approx(0.6)


def test_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path, "d.json", {
        "command": "disconnect", "n": 6,
        "p": {"family": "random-eps", "eps": 0.5}, "ell": 2,
        "mode": "sampled", "budget": 2000})
    assert main(["--config", cfg, "--seed", "9", "--out", str(tmp_path / "a")]) == 0
    assert main(["--config", cfg, "--seed", "9", "--out", str(tmp_path / "b")]) == 0
    ra = (tmp_path / "a" / "result.json").read_bytes()
    rb = (tmp_path / "b" / "result.json").read_bytes()
    assert ra == rb
    ca = (tmp_path / "a" / "result.csv").read_bytes()
    cb = (tmp_path / "b" / "result.csv").read_bytes()
    assert ca == cb


def test_unknown_keys_rejected(tmp_path, capsys):
    with pytest.raises(ContractError):
        RunConfig({"command": "exact", "n": 3,
                   "p": {"family": "constant-q", "q": 0.6}, "bogus": 1})
    cfg = write_config(tmp_path, "bad.json", {
        "command": "exact", "n": 3, "p": {"family": "constant-q", "q": 0.6},
        "bogus": 1})
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 2
    # keys of other commands: these used to run and silently ignore the key
    fam = {"family": "constant-q", "q": 0.75}
    for raw, key in [
            ({"command": "lowerbound", "n": 16, "p": fam, "ell": 1}, "ell"),
            ({"command": "mix", "ns": [8, 12], "p": fam, "ell": 2}, "ell"),
            ({"command": "exact", "n": 3, "p": fam, "ns": [5, 6]}, "ns"),
            ({"command": "asep", "n": 10, "k": 3, "q": 0.7, "p": fam}, "p"),
            ({"command": "asep", "n": 10, "k": 3, "q": 0.7, "ell": 1}, "ell")]:
        with pytest.raises(ContractError, match=f"unknown config keys for "
                                                f"{raw['command']}: \\['{key}'\\]"):
            RunConfig(raw)
        cfg = write_config(tmp_path, "other.json", raw)
        assert main(["--config", cfg, "--out", str(tmp_path / "u")]) == 2
        assert "unknown config keys" in capsys.readouterr().err
        assert not (tmp_path / "u").exists()


@pytest.mark.parametrize("raw, flags", [
    ({"command": "exact", "n": 4, "p": {"family": "constant-q", "q": 0.6}},
     ["--cap-enum", "100000"]),
    ({"command": "sample", "n": 12, "p": {"family": "random-eps", "eps": 0.5},
      "ell": 2, "samples": 5}, ["--cap-window", "20", "--jobs", "1"]),
])
def test_resolved_config_reruns(tmp_path, raw, flags):
    # resolved_config.json records the run settings, which configs used to
    # refuse as unknown keys
    cfg = write_config(tmp_path, "first.json", raw)
    assert main(["--config", cfg, "--seed", "5", "--out", str(tmp_path / "a"),
                 *flags]) == 0
    again = str(tmp_path / "a" / "resolved_config.json")
    assert main(["--config", again, "--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "result.json").read_bytes()
            == (tmp_path / "b" / "result.json").read_bytes())


def test_run_settings_from_config_and_flags():
    # sampled disconnect reads cap_window, and mix by coupling reads jobs;
    # a setting left out resolves to its default
    raw = {"command": "disconnect", "n": 4,
           "p": {"family": "constant-q", "q": 0.6}, "mode": "sampled",
           "jobs": 1, "cap_enum": measure.DEFAULT_ENUM_CAP, "cap_window": 9}
    cfg = RunConfig(raw)
    assert (cfg.jobs, cfg.cap_enum, cfg.cap_window) == (1, 8, 9)
    cfg = RunConfig(raw, cap_window=11, jobs=1)
    assert (cfg.jobs, cfg.cap_enum, cfg.cap_window) == (1, 8, 11)
    assert RunConfig({k: v for k, v in raw.items() if "cap" not in k}) \
        .cap_window == banddp.DEFAULT_WINDOW_CAP
    mix = {"command": "mix", "ns": [4, 6],
           "p": {"family": "constant-q", "q": 0.75}, "jobs": 2}
    assert RunConfig(mix).jobs == 2 and RunConfig(mix, jobs=3).jobs == 3
    assert RunConfig({k: v for k, v in mix.items() if k != "jobs"}).jobs == 1
    with pytest.raises(ContractError, match="config key jobs must be >= 1"):
        RunConfig({**raw, "jobs": 0})


def test_exact_reads_cap_enum_from_the_config(tmp_path):
    # the key was accepted and ignored: no soft-cap warning at n = 4 > 2
    cfg = write_config(tmp_path, "e.json", {
        "command": "exact", "n": 4, "p": {"family": "constant-q", "q": 0.6},
        "cap_enum": 2})
    with pytest.warns(UserWarning, match="above the soft cap 2"):
        assert main(["--config", cfg, "--out", str(tmp_path / "e")]) == 0


def test_unknown_command_rejected():
    with pytest.raises(ContractError):
        RunConfig({"command": "frobnicate"})


def test_cap_violation_surfaces(tmp_path):
    cfg = write_config(tmp_path, "big.json", {
        "command": "exact", "n": 11, "p": {"family": "constant-q", "q": 0.6}})
    out = str(tmp_path / "big")
    assert main(["--config", cfg, "--out", out]) == 2
    man = json.loads((tmp_path / "big" / "manifest.json").read_text())
    assert "CapExceeded" in man["error"]


def test_band_dp_memory_cap_surfaces(tmp_path):
    # W = 22 passes the default window cap, but its layers at n = 400 would
    # need about 3.4 GB: the sampler refuses before allocating any
    cfg = write_config(tmp_path, "wide.json", {
        "command": "sample", "n": 400, "p": {"family": "random-eps", "eps": 0.5},
        "ell": [[10, 11]] * 400, "samples": 1})
    assert main(["--config", cfg, "--out", str(tmp_path / "wide")]) == 2
    man = json.loads((tmp_path / "wide" / "manifest.json").read_text())
    assert "CapExceeded" in man["error"] and "--cap-window" in man["error"]


@pytest.mark.parametrize("raw, key", [
    # the uniforms and rows of 10^9 draws at n = 100 used to end in numpy's
    # "Unable to allocate 745. GiB", exit 1
    ({"command": "sample", "n": 100, "p": {"family": "constant-q", "q": 0.75},
      "samples": 10 ** 9}, "samples"),
    ({"command": "disconnect", "n": 100,
      "p": {"family": "constant-q", "q": 0.75}, "mode": "sampled",
      "budget": 10 ** 9}, "budget"),
    # each boundary's draws used to reach BandDP.sample_rows: about 960 GB
    ({"command": "spatial", "n": 60, "p": {"family": "constant-q", "q": 0.75},
      "ell": 2, "eta": {"left": [1]}, "eta_bar": {"left": [3]}, "rs": [2],
      "mode": "sampled", "budget": 10 ** 9}, "budget"),
])
def test_draw_counts_past_the_memory_budget_exit_2(tmp_path, monkeypatch, raw,
                                                   key):
    def never(*args, **kwargs):
        raise AssertionError("drew before the memory budget check")

    for cls in (banddp.MallowsRejectionSampler, banddp.BandDPSampler,
                banddp.EnumerationSampler):
        monkeypatch.setattr(cls, "draw_rows", never)
    monkeypatch.setattr(banddp.BandDP, "sample_rows", never)
    cfg = write_config(tmp_path, "d.json", raw)
    assert main(["--config", cfg, "--out", str(tmp_path / "d")]) == 2
    man = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert "CapExceeded" in man["error"] and f"{key} = 1000000000" in man["error"]
    assert "measure.MEMORY_BUDGET" in man["error"]


def test_burnin_rejects_start_outside_window(tmp_path):
    # the default reversal start puts particle 1 at distance 19 > ell = 2
    cfg = write_config(tmp_path, "b.json", {
        "command": "burnin", "n": 20, "p": {"family": "constant-q", "q": 0.75},
        "ell": 2, "replicas": 4, "T": 10})
    assert main(["--config", cfg, "--out", str(tmp_path / "b")]) == 2
    man = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert "ContractError" in man["error"]


def test_sample_falls_back_on_the_band_dp(tmp_path):
    # at q = 0.5 the rejection sampler accepts too few draws for ell = 9 and
    # gives up; W = 19 fits the window cap, so the band DP draws instead
    config = {"command": "sample", "n": 40,
              "p": {"family": "constant-q", "q": 0.5}, "ell": 9, "samples": 3}
    cfg = write_config(tmp_path, "s.json", config)
    assert main(["--config", cfg, "--out", str(tmp_path / "s")]) == 0
    res = json.loads((tmp_path / "s" / "result.json").read_text())
    assert res["verdict"]["passed"]
    assert res["verdict"]["details"]["strategy"] == "band-dp"
    # W = 25 does not fit, and the refusal names both knobs
    cfg = write_config(tmp_path, "w.json", dict(config, ell=12))
    assert main(["--config", cfg, "--out", str(tmp_path / "w")]) == 2
    man = json.loads((tmp_path / "w" / "manifest.json").read_text())
    assert "CapExceeded" in man["error"]
    assert "widen ell" in man["error"] and "cap_window" in man["error"]


# not admissible: label 1 may reach position 3, but label 2 no further
# than position 2
ANY_ELL = [[0, 2], [1, 0], [2, 2], [0, 1], [2, 0], [1, 2], [2, 1], [0, 2],
           [2, 0], [1, 1]]


@pytest.mark.parametrize("raw", [
    {"command": "sample", "n": 10, "p": {"family": "random-eps", "eps": 0.5},
     "ell": ANY_ELL, "samples": 20},
    {"command": "spatial", "n": 10, "p": {"family": "constant-q", "q": 0.75},
     "ell": ANY_ELL, "eta": {"left": [1]}, "eta_bar": {"left": [3]},
     "rs": [2, 3]},
    {"command": "spatial", "n": 10, "p": {"family": "constant-q", "q": 0.75},
     "ell": ANY_ELL, "eta": {"left": [1]}, "eta_bar": {"left": [3]},
     "rs": [2, 3], "mode": "sampled", "budget": 50},
    {"command": "disconnect", "n": 10,
     "p": {"family": "constant-q", "q": 0.75}, "ell": ANY_ELL,
     "mode": "sampled", "budget": 50},
], ids=["sample", "spatial", "spatial-sampled", "disconnect-sampled"])
def test_band_dp_commands_run_on_a_window_that_is_not_admissible(tmp_path,
                                                                 raw):
    # each used to exit 2: "band DP requires an admissible localization
    # vector"; spatial's verdict on these two distances may fail, exit 1
    assert not LocalizationVector(*zip(*ANY_ELL)).is_admissible()
    cfg = write_config(tmp_path, "a.json", raw)
    assert main(["--config", cfg, "--out", str(tmp_path / "a")]) in (0, 1)
    man = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert "error" not in man
    assert (tmp_path / "a" / "result.json").exists()


@pytest.mark.parametrize("raw, flag", [
    ({"command": "exact", "n": 11, "p": {"family": "constant-q", "q": 0.6}},
     "--cap-enum"),
    ({"command": "blockcheck", "n": 6,
      "p": {"family": "random-eps", "eps": 0.5}, "cap_enum": 3}, "--cap-enum"),
    # the band DP's own refusal: W = 5 against a cap of 3
    ({"command": "spatial", "n": 8, "p": {"family": "constant-q", "q": 0.75},
      "ell": 2, "eta": {"left": [1]}, "eta_bar": {"left": [3]}, "rs": [2, 3],
      "cap_window": 3}, "--cap-window"),
    # the dispatcher's: W = 25 and no constant bias to fall back on
    ({"command": "sample", "n": 40, "p": {"family": "random-eps", "eps": 0.5},
      "ell": 12, "samples": 1}, "--cap-window"),
], ids=["exact", "blockcheck", "spatial", "sample"])
def test_cap_refusals_name_their_flag(tmp_path, raw, flag):
    cfg = write_config(tmp_path, "c.json", raw)
    assert main(["--config", cfg, "--out", str(tmp_path / "c")]) == 2
    man = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert "CapExceeded" in man["error"] and flag in man["error"]


def test_sample_and_chain_commands(tmp_path):
    cfg = write_config(tmp_path, "s.json", {
        "command": "sample", "n": 6, "p": {"family": "constant-q", "q": 0.7},
        "ell": 2, "samples": 50})
    assert main(["--config", cfg, "--out", str(tmp_path / "s")]) == 0
    lines = (tmp_path / "s" / "samples.jsonl").read_text().splitlines()
    assert len(lines) == 50
    assert sorted(json.loads(lines[0])) == list(range(1, 7))

    cfg = write_config(tmp_path, "t.json", {
        "command": "chain", "n": 8, "p": {"family": "constant-q", "q": 0.7},
        "steps": 200, "checkpoint_every": 50, "tracked_ks": [2]})
    assert main(["--config", cfg, "--out", str(tmp_path / "t")]) == 0
    recs = [json.loads(l) for l in
            (tmp_path / "t" / "trajectory.jsonl").read_text().splitlines()]
    assert recs[0]["step"] == 0 and recs[-1]["step"] == 200
    assert "2" in recs[0]["projections"]
    # result.json names the trajectory instead of repeating it as a series,
    # and its verdict holds the last checkpoint's displacement
    res = json.loads((tmp_path / "t" / "result.json").read_text())
    assert res["series"] == []
    assert res["meta"] == {"steps": 200, "trajectory": "trajectory.jsonl"}
    assert res["verdict"]["details"]["final_max_displacement"] == \
        recs[-1]["max_displacement"]

    # a listed start, which used to raise TypeError from a dict lookup
    cfg = write_config(tmp_path, "l.json", {
        "command": "chain", "n": 4, "p": {"family": "constant-q", "q": 0.7},
        "init": [2, 4, 1, 3], "steps": 10})
    assert main(["--config", cfg, "--out", str(tmp_path / "l")]) == 0
    first = (tmp_path / "l" / "trajectory.jsonl").read_text().splitlines()[0]
    assert json.loads(first)["permutation"] == [2, 4, 1, 3]

    # a random start, which burnin took and chain used to refuse
    cfg = write_config(tmp_path, "r.json", {
        "command": "chain", "n": 8, "p": {"family": "constant-q", "q": 0.7},
        "init": "random", "steps": 10})
    assert main(["--config", cfg, "--out", str(tmp_path / "r")]) == 0
    first = (tmp_path / "r" / "trajectory.jsonl").read_text().splitlines()[0]
    assert sorted(json.loads(first)["permutation"]) == list(range(1, 9))


def test_burnin_runs_from_a_listed_start(tmp_path):
    # chain took a permutation list and burnin used to refuse it; the t = 0
    # checkpoint is the start's max displacement, 2 (labels 4 and 1)
    cfg = write_config(tmp_path, "b.json", {
        "command": "burnin", "n": 6, "p": {"family": "constant-q", "q": 0.7},
        "init": [2, 4, 1, 3, 6, 5], "replicas": 2, "T": 10})
    assert main(["--config", cfg, "--out", str(tmp_path / "b")]) == 0
    res = json.loads((tmp_path / "b" / "result.json").read_text())
    assert res["series"][0]["x"] == 0 and res["series"][0]["estimate"] == 2


def test_asep_burnin_blockcheck_lowerbound_spatial(tmp_path):
    runs = [
        ("asep", {"command": "asep", "n": 10, "k": 3, "q": 0.75}),
        ("burnin", {"command": "burnin", "n": 24,
                    "p": {"family": "constant-q", "q": 0.75},
                    "replicas": 20, "T": 2000}),
        ("blockcheck", {"command": "blockcheck", "n": 4,
                        "p": {"family": "constant-q", "q": 0.6}}),
        ("lowerbound", {"command": "lowerbound", "n": 36,
                        "p": {"family": "constant-q", "q": 0.75},
                        "replicas": 60, "threshold": 0.2}),
        ("spatial", {"command": "spatial", "n": 20,
                     "p": {"family": "constant-q", "q": 0.75}, "ell": 2,
                     "eta": {"left": [1]}, "eta_bar": {"left": [3]},
                     "rs": [2, 4, 6, 8]}),
        ("spatial-two-sided", {"command": "spatial", "n": 40,
                               "p": {"family": "constant-q", "q": 0.75},
                               "ell": 3,
                               "eta": {"left": [1], "right": [40]},
                               "eta_bar": {"left": [4], "right": [37]},
                               "rs": [3, 5, 7, 9, 11, 13]}),
    ]
    for name, obj in runs:
        cfg = write_config(tmp_path, f"{name}.json", obj)
        code = main(["--config", cfg, "--out", str(tmp_path / name)])
        assert code == 0, name
        rec = json.loads((tmp_path / name / "result.json").read_text())
        assert rec["verdict"]["passed"], (name, rec["verdict"])


def test_generate_instance_roundtrip(tmp_path):
    path = str(tmp_path / "inst.txt")
    generate_instance("random-eps", 6, 0.5, 7, path)
    p = BiasMatrix.from_text(open(path).read())
    assert p.epsilon >= 0.5
    generate_instance("constant-q", 4, 0.5, 0, str(tmp_path / "c.txt"))
    pc = BiasMatrix.from_text(open(tmp_path / "c.txt").read())
    assert pc.get(1, 2) == pytest.approx(0.6)
    generate_instance("totally-asymmetric", 4, None, 0, str(tmp_path / "t.txt"))
    assert math.isinf(BiasMatrix.from_text(open(tmp_path / "t.txt").read()).epsilon)
    generate_instance("monotone-eps", 5, 0.5, 3, str(tmp_path / "m.txt"))
    pm = BiasMatrix.from_text(open(tmp_path / "m.txt").read())
    assert is_monotone(pm) and pm.epsilon >= 0.5
    with pytest.raises(ContractError):
        generate_instance("random-eps", 4, -0.5, 0, str(tmp_path / "x.txt"))


def test_instance_file_config(tmp_path):
    inst = str(tmp_path / "inst.txt")
    generate_instance("random-eps", 5, 0.5, 11, inst)
    cfg = write_config(tmp_path, "f.json", {
        "command": "exact", "n": 5, "p": {"file": inst}})
    assert main(["--config", cfg, "--out", str(tmp_path / "f")]) == 0


def test_failed_verdict_exit_status(tmp_path):
    # an impossible threshold forces a failing verdict and exit status 1
    cfg = write_config(tmp_path, "fail.json", {
        "command": "lowerbound", "n": 36,
        "p": {"family": "constant-q", "q": 0.75},
        "replicas": 40, "eta": 0.999, "threshold": 0.0})
    code = main(["--config", cfg, "--out", str(tmp_path / "fail")])
    rec = json.loads((tmp_path / "fail" / "result.json").read_text())
    if rec["verdict"]["passed"]:
        assert code == 0
    else:
        assert code == 1


def test_burnin_over_ns_refuses_ell(tmp_path, capsys):
    # ell used to be dropped silently when the config had ns; over ns the
    # chains run unrestricted, so even a null ell is a key no mode reads
    for ell in (1, None):
        raw = {"command": "burnin", "ns": [8, 12],
               "p": {"family": "constant-q", "q": 0.75}, "ell": ell,
               "replicas": 4, "T_mult": 1}
        with pytest.raises(ContractError, match="burnin in ns mode does not "
                                                "read the config key ell"):
            RunConfig(raw)
        cfg = write_config(tmp_path, "bns.json", raw)
        assert main(["--config", cfg, "--out", str(tmp_path / "bns")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "bns").exists()


@pytest.mark.parametrize("raw, missing", [
    ({"command": "burnin", "p": {"family": "constant-q", "q": 0.75}},
     "n or ns"),
    ({"command": "exact", "n": 3, "p": {"family": "constant-q"}}, "'q'"),
    ({"command": "mix", "p": {"family": "constant-eps"}, "ns": [8]}, "'eps'"),
    ({"command": "asep", "n": 10, "k": 3}, "key q"),
    ({"command": "lowerbound", "n": 36}, "key p"),
    # values out of range, which used to reach the experiments: burnin with
    # replicas 0 or quantile 1.5 crashed, replicas 1 passed on NaN stderrs
    ({"command": "burnin", "n": 8, "p": {"family": "constant-q", "q": 0.75},
      "replicas": 0}, "replicas must be >= 2"),
    ({"command": "burnin", "n": 8, "p": {"family": "constant-q", "q": 0.75},
      "replicas": 1}, "replicas must be >= 2"),
    ({"command": "lowerbound", "n": 8,
      "p": {"family": "constant-q", "q": 0.75}, "replicas": 0},
     "replicas must be >= 1"),
    ({"command": "burnin", "n": 8, "p": {"family": "constant-q", "q": 0.75},
      "quantile": 1.5}, "quantile must be in"),
    ({"command": "burnin", "n": 8, "p": {"family": "constant-q", "q": 0.75},
      "quantile": 0}, "quantile must be in"),
    ({"command": "mix", "ns": [], "p": {"family": "constant-q", "q": 0.75}},
     "ns must be a non-empty list"),
    ({"command": "mix", "ns": [8, 1], "p": {"family": "constant-q", "q": 0.75}},
     "ns must be a non-empty list"),
    ({"command": "exact", "n": 1, "p": {"family": "constant-q", "q": 0.6}},
     "n must be >= 2"),
    # statistic mode used to run with any delta and exit 1
    ({"command": "mix", "ns": [8, 12], "p": {"family": "constant-q", "q": 0.75},
      "method": "statistic", "delta": -1}, "delta must be in \\(0, 0.5\\]"),
    ({"command": "mix", "ns": [8, 12], "p": {"family": "constant-q", "q": 0.75},
      "delta": 0.75}, "delta must be in \\(0, 0.5\\]"),
    # sample used to crash on an empty or negative draw count
    ({"command": "sample", "n": 8, "p": {"family": "constant-q", "q": 0.75},
      "samples": 0}, "samples must be >= 1"),
    ({"command": "sample", "n": 8, "p": {"family": "constant-q", "q": 0.75},
      "samples": -3}, "samples must be >= 1"),
    # an empty rs used to pass: spatial with a -Infinity slope, asep with an
    # empty series
    ({"command": "spatial", "n": 8, "p": {"family": "constant-q", "q": 0.75},
      "ell": 2, "eta": {}, "eta_bar": {}, "rs": []}, "rs must be non-empty"),
    ({"command": "asep", "n": 8, "k": 3, "q": 0.7, "rs": []},
     "rs must be non-empty"),
    # a sampled run on no draws used to crash on an empty reduction
    ({"command": "spatial", "n": 8, "p": {"family": "constant-q", "q": 0.75},
      "ell": 2, "eta": {}, "eta_bar": {}, "rs": [2], "mode": "sampled",
      "budget": 0}, "budget must be >= 1"),
    ({"command": "disconnect", "n": 6, "p": {"family": "constant-q", "q": 0.7},
      "mode": "sampled", "budget": 0}, "budget must be >= 1"),
    # a mix stderr over fewer than two runs used to be NaN, a failed verdict
    *[({"command": "mix", "ns": [8, 12],
        "p": {"family": "constant-q", "q": 0.75}, "budget": budget},
       "budget must be >= 2") for budget in (0, 1)],
    # an empty ks used to pass with nothing checked
    ({"command": "disconnect", "n": 5, "p": {"family": "constant-q", "q": 0.75},
      "ks": []}, "ks must be non-empty"),
    # a negative seed used to end in numpy's ValueError, exit 1
    ({"command": "burnin", "n": 8, "p": {"family": "random-eps", "eps": 0.5},
      "seed": -5}, "seed must be >= 0"),
    # a key the command's mode does not read used to be accepted and
    # ignored: burnin at n ran T = 50 and ignored T_mult
    ({"command": "burnin", "n": 8, "p": {"family": "constant-q", "q": 0.75},
      "T_mult": 3, "T": 50},
     "burnin in n mode does not read the config key T_mult"),
    # burnin over ns ran reversal starts to T_mult n^2
    ({"command": "burnin", "ns": [8, 12],
      "p": {"family": "constant-q", "q": 0.75}, "T": 5},
     "burnin in ns mode does not read the config key T"),
    ({"command": "burnin", "ns": [8, 12],
      "p": {"family": "constant-q", "q": 0.75}, "init": "identity"},
     "burnin in ns mode does not read the config key init"),
    # exact mix ran over ns and echoed n = 9, above the cap
    ({"command": "mix", "n": 9, "ns": [4, 5],
      "p": {"family": "constant-q", "q": 0.75}, "method": "exact"},
     "mix over ns does not read the config key n"),
    # coupling mix recorded a delta it never used, exact mix a budget
    ({"command": "mix", "ns": [8, 12],
      "p": {"family": "constant-q", "q": 0.75}, "delta": 0.01},
     "mix in coupling mode does not read the config key delta"),
    ({"command": "mix", "ns": [4, 5], "p": {"family": "constant-q", "q": 0.75},
      "method": "exact", "budget": 9},
     "mix in exact mode does not read the config key budget"),
    # exact disconnect and spatial dropped a budget without a word
    ({"command": "disconnect", "n": 5,
      "p": {"family": "constant-q", "q": 0.75}, "budget": 9},
     "disconnect in exact mode does not read the config key budget"),
    ({"command": "spatial", "n": 10, "p": {"family": "constant-q", "q": 0.75},
      "ell": 2, "eta": {"left": [1]}, "eta_bar": {"left": [3]},
      "rs": [2, 4], "mode": "exact", "budget": 9},
     "spatial in exact mode does not read the config key budget"),
    # a chain checkpointed every 0 steps used to be refused only after its
    # output directory was written
    ({"command": "chain", "n": 6, "p": {"family": "constant-q", "q": 0.7},
      "steps": 40, "checkpoint_every": 0}, "checkpoint_every must be >= 1"),
])
def test_missing_required_keys_are_config_errors(tmp_path, capsys, raw,
                                                 missing):
    with pytest.raises(ContractError, match=missing):
        RunConfig(raw)
    cfg = write_config(tmp_path, "miss.json", raw)
    assert main(["--config", cfg, "--out", str(tmp_path / "miss")]) == 2
    assert "config error" in capsys.readouterr().err


def test_jobs_below_one_is_a_config_error(tmp_path, capsys):
    # --jobs 0 used to be raised to 1 without a word
    raw = {"command": "exact", "n": 3, "p": {"family": "constant-q", "q": 0.6}}
    with pytest.raises(ContractError, match="--jobs must be >= 1"):
        RunConfig(raw, jobs=0)
    cfg = write_config(tmp_path, "j.json", raw)
    assert main(["--config", cfg, "--jobs", "0",
                 "--out", str(tmp_path / "j")]) == 2
    assert "config error" in capsys.readouterr().err


def test_negative_seeds_exit_2(tmp_path, capsys):
    # each used to end in numpy's "expected non-negative integer", exit 1
    raw = {"command": "chain", "n": 4, "p": {"family": "random-eps",
                                             "eps": 0.5}, "steps": 3}
    with pytest.raises(ContractError, match="--seed must be >= 0, got -5"):
        RunConfig(raw, seed_override=-5)
    cfg = write_config(tmp_path, "s.json", raw)
    assert main(["--config", cfg, "--seed", "-5",
                 "--out", str(tmp_path / "s")]) == 2
    assert main(["--generate-instance", "--family", "random-eps", "--n", "4",
                 "--epsilon", "0.5", "--seed", "-1",
                 "--out", str(tmp_path / "g")]) == 2
    err = capsys.readouterr().err
    assert err.count("config error") == 2 and "seed must be >= 0" in err


@pytest.mark.parametrize("family", ["random-eps", "monotone-eps"])
def test_generated_instance_is_the_configs_instance(tmp_path, family):
    # generation used to draw on its own stream: the random-eps file had
    # fingerprint 4274b4005efc3e2e, the config df4fe30177d8e6ad
    out = str(tmp_path / "gen")
    assert main(["--generate-instance", "--family", family, "--n", "8",
                 "--epsilon", "0.5", "--seed", "7", "--out", out]) == 0
    fingerprints = []
    for name, p in [("family", {"family": family, "eps": 0.5}),
                    ("file", {"file": os.path.join(out, f"{family}-n8.txt")})]:
        cfg = write_config(tmp_path, f"{name}.json", {
            "command": "chain", "n": 8, "p": p, "steps": 1, "seed": 7})
        assert main(["--config", cfg, "--out", str(tmp_path / name)]) == 0
        fingerprints.append(json.loads(
            (tmp_path / name / "result.json").read_text())["fingerprint"])
    assert fingerprints[0] == fingerprints[1]
    if family == "random-eps":
        assert fingerprints[0] == "df4fe30177d8e6ad"


def test_unknown_family_is_a_config_error():
    with pytest.raises(ContractError, match="unknown family"):
        RunConfig({"command": "exact", "n": 3, "p": {"family": "bogus"}})
    with pytest.raises(ContractError, match="unknown family"):
        RunConfig({"command": "exact", "n": 3, "p": {"family": ["q"]}})


def test_unexpected_exception_is_recorded_in_manifest(tmp_path, monkeypatch):
    def broken(cfg, outdir):
        raise RuntimeError("handler blew up")

    monkeypatch.setitem(cli._HANDLERS, "exact", broken)
    cfg = RunConfig({"command": "exact", "n": 3,
                     "p": {"family": "constant-q", "q": 0.6}},
                    out=str(tmp_path / "x"))
    with pytest.raises(RuntimeError):
        run(cfg)
    man = json.loads((tmp_path / "x" / "manifest.json").read_text())
    assert man["error"] == "RuntimeError: handler blew up"
    assert man["incomplete"] is True


@pytest.mark.parametrize("raw, message", [
    ({"command": "burnin", "n": 8, "p": {"family": "constant-q", "q": 0.75},
      "replicas": 4, "T": -5}, "steps must be >= 0"),
    # chain's steps has no key range: the stepper refuses a negative count
    ({"command": "chain", "n": 6, "p": {"family": "constant-q", "q": 0.7},
      "steps": -1}, "steps must be >= 0"),
    # statistic mode has no exact label-1 law for a non-constant family; it
    # used to record lower bounds of 0 and pass
    ({"command": "mix", "ns": [8, 12],
      "p": {"family": "random-eps", "eps": 0.5}, "method": "statistic",
      "budget": 8, "seed": 3}, "only at constant bias"),
    # a slope over one size used to be recorded as NaN, exit 1
    ({"command": "mix", "n": 8, "p": {"family": "constant-q", "q": 0.75}},
     "two distinct sizes"),
    ({"command": "mix", "ns": [8, 8], "p": {"family": "constant-q", "q": 0.75},
      "method": "statistic"}, "two distinct sizes"),
    # an unknown selection used to run as uniform and echo the bad value
    ({"command": "blockcheck", "n": 4, "p": {"family": "constant-q", "q": 0.6},
      "selection": "bogus"}, "unknown block selection 'bogus'"),
    # without a boundary, k ranges over 1..n: exact mode used to record 0
    # for k > n and sampled mode crashed
    ({"command": "disconnect", "n": 6, "p": {"family": "constant-q", "q": 0.7},
      "ks": [7]}, "k=7 outside the valid range [1, 6]"),
    ({"command": "disconnect", "n": 6, "p": {"family": "constant-q", "q": 0.7},
      "ks": [0, 2], "mode": "sampled", "budget": 50},
     "k=0 outside the valid range [1, 6]"),
    # chain starts other than the two names and a permutation list used to
    # crash, or, for a string of digits, to run from its characters
    *[({"command": "chain", "n": 4, "p": {"family": "constant-q", "q": 0.7},
        "steps": 10, "init": init}, "unknown start")
      for init in (7, "bogus", "4321", [1, 2, 2, 4], [1, 2, 3], [1, 2, 3, True])],
    # a bool used to run as window 1; bare numbers or triples as pairs, and
    # missing files, used to crash
    *[({"command": "exact", "n": 4, "p": {"family": "constant-q", "q": 0.7},
        "ell": ell}, "ell must be")
      for ell in (True, [1, 1, 1, 1], [[1, 1, 1]] * 4, [[1, True]] * 4,
                  [[1, 1.5]] * 4)],
    ({"command": "exact", "n": 4, "p": {"family": "constant-q", "q": 0.7},
      "ell": {"file": "missing-localization.txt"}}, "cannot read ell's file"),
    ({"command": "exact", "n": 4, "p": {"file": "missing-instance.txt"}},
     "cannot read p's file"),
    ({"command": "exact", "n": 4, "p": {"file": 3}}, "p's file must be a path"),
    # math.comb's ValueError, and two divisions by zero, used to end in a
    # traceback, exit 1
    ({"command": "asep", "n": 6, "k": -1, "q": 0.75}, "needs k >= 0"),
    ({"command": "asep", "n": 6, "k": 3, "q": 1}, "1/2 < q < 1, got k = 3, q = 1"),
    ({"command": "mix", "ns": [8, 12], "p": {"family": "constant-q", "q": 0.5},
      "budget": 2}, "coupling mode needs q in (1/2, 1], got q = 0.5"),
    # lowerbound's certificate needs eps >= 0: q = 0 used to end in a
    # ZeroDivisionError, q = 0.3 in a failed verdict against it
    *[({"command": "lowerbound", "n": 16,
        "p": {"family": "constant-q", "q": q}, "replicas": 10},
       "0-positively biased") for q in (0.0, 0.3)],
    # coupling mode builds no bias matrix, so q > 1 used to pass
    ({"command": "mix", "ns": [8, 12], "p": {"family": "constant-q", "q": 1.5},
      "method": "coupling", "budget": 4},
     "coupling mode needs q in (1/2, 1], got q = 1.5"),
    # burnin reads its start with chain's rule and refuses the same values
    *[({"command": "burnin", "n": 4, "p": {"family": "constant-q", "q": 0.7},
        "T": 10, "replicas": 2, "init": init}, "unknown start")
      for init in (7, "bogus", "4321", [1, 2, 2, 4], [1, 2, 3], [1, 2, 3, True])],
    # statistic mode's unbiased twins used to give up at n = 32, exit 2
    # only after the exact lower bound was computed
    ({"command": "mix", "ns": [16, 32], "p": {"family": "constant-q", "q": 0.5},
      "method": "statistic"}, "needs a biased family, got q = 0.5"),
])
def test_bad_horizons_exit_2_with_the_error_in_the_manifest(tmp_path, raw,
                                                            message):
    # both used to crash with a traceback and exit 1
    cfg = write_config(tmp_path, "h.json", raw)
    assert main(["--config", cfg, "--out", str(tmp_path / "h")]) == 2
    man = json.loads((tmp_path / "h" / "manifest.json").read_text())
    assert "ContractError" in man["error"] and message in man["error"]
    assert not (tmp_path / "h" / "result.json").exists()


@pytest.mark.parametrize("key, text", [
    ("p", "n abc\n"), ("p", "n\n"),
    ("ell", "n 4\nell 1 x 1\n"), ("ell", "n 4\nell\n")])
def test_malformed_instance_files_exit_2_naming_the_file(tmp_path, key, text):
    # from_text's ValueError or IndexError used to end in a traceback, exit 1
    path = tmp_path / f"{key}.txt"
    path.write_text(text)
    raw = {"command": "exact", "n": 4, "p": {"family": "constant-q", "q": 0.7},
           key: {"file": str(path)}}
    cfg = write_config(tmp_path, "m.json", raw)
    assert main(["--config", cfg, "--out", str(tmp_path / "m")]) == 2
    man = json.loads((tmp_path / "m" / "manifest.json").read_text())
    assert "ContractError" in man["error"]
    assert f"malformed {key} file {str(path)!r}" in man["error"]


# a valid value of each key some command requires
REQUIRED_VALUES = {"n": 8, "p": {"family": "constant-q", "q": 0.75}, "k": 3,
                   "q": 0.7, "eta": {}, "eta_bar": {}, "rs": [2]}
# the kind of every typed key in the CLI's key table
TYPED_KEYS = {key: rule.kind for rules in cli.CONFIG_KEYS.values()
              for key, rule in rules.items() if rule.kind is not None}
# values of the wrong type for each kind: bools are no numbers
WRONG_VALUES = {cli.INT: ("three", 3.0, True), cli.INTS: (8, [8, "12"]),
                cli.NUMBER: ("x", True, None)}
NON_INTEGER_CASES = [
    ("n", "three"), ("n", 3.0), ("n", True), ("seed", "7"), ("cap_enum", 1.5),
    ("ns", [8, "12"]), ("ns", 8),
    # keys read as floats: numbers only, and no bools
    ("quantile", "high"), ("quantile", True), ("delta", "x"),
    ("threshold", None), ("eta", "half"), ("q", "x"), ("p.q", "x"),
    ("p.eps", False),
]
# the run settings came last to the table; sorting them last keeps the ids
# of the cases before them
NON_INTEGER_CASES += [
    (key, value)
    for key in sorted(TYPED_KEYS, key=lambda k: (k in ("cap_window", "jobs"), k))
    if key not in {k for k, _ in NON_INTEGER_CASES}
    for value in WRONG_VALUES[TYPED_KEYS[key]]]


def valid_config(command):
    raw = {"command": command}
    for need in cli._REQUIRED_KEYS[command]:
        key = need[0] if isinstance(need, tuple) else need
        raw[key] = json.loads(json.dumps(REQUIRED_VALUES[key]))
    RunConfig(raw)
    return raw


@pytest.mark.parametrize("key, value", NON_INTEGER_CASES)
def test_non_integer_values_are_config_errors(tmp_path, capsys, key, value):
    # every command whose key table types the key; family parameters are
    # checked on exact
    commands = ["exact"] if key.startswith("p.") else [
        command for command, rules in cli.CONFIG_KEYS.items()
        if key in rules and rules[key].kind is not None]
    assert commands
    for command in commands:
        raw = valid_config(command)
        if key == "p.eps":
            raw["p"] = {"family": "random-eps", "eps": value}
        elif key.startswith("p."):
            raw["p"][key[2:]] = value
        else:
            raw[key] = value
        with pytest.raises(ContractError, match=f"config key {key} must be"):
            RunConfig(raw)
        cfg = write_config(tmp_path, "t.json", raw)
        assert main(["--config", cfg, "--out", str(tmp_path / "t")]) == 2
        assert "config error" in capsys.readouterr().err


def test_exact_gap_non_convergence_exits_2(tmp_path, monkeypatch):
    import numpy as np
    import scipy.linalg

    def stalled(d, e, **kwargs):
        # a Ritz vector ending in 1 leaves the residual bound at beta
        s = np.zeros((len(d), 1))
        s[-1] = 1.0
        return np.array([0.5]), s

    # the Lanczos recurrence behind the gap at n = 4 never converges
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", stalled)
    cfg = write_config(tmp_path, "g.json", {
        "command": "exact", "n": 4, "p": {"family": "constant-q", "q": 0.6}})
    assert main(["--config", cfg, "--out", str(tmp_path / "g")]) == 2
    man = json.loads((tmp_path / "g" / "manifest.json").read_text())
    assert "CapExceeded" in man["error"] and "tol" in man["error"]


SPATIAL = {"command": "spatial", "n": 8,
           "p": {"family": "constant-q", "q": 0.75}, "ell": 2,
           "eta": {"left": [1]}, "eta_bar": {"left": [3]}, "rs": [2, 3]}


@pytest.mark.parametrize("raw, message", [
    # a boundary that is no dict used to end in an AttributeError, exit 1
    ({**SPATIAL, "eta": "x"}, "eta must be"),
    ({"command": "disconnect", "n": 6, "p": {"family": "constant-q", "q": 0.7},
      "ell": 1, "boundary": 5}, "boundary must be"),
    # a misspelt side used to be dropped with its pins, exit 0
    ({**SPATIAL, "eta": {"left": [1], "rigth": [6]}}, "eta must be"),
    # 1.5 used to be truncated to 1, so the boundaries were equal and the
    # curve passed with TV 0
    ({**SPATIAL, "eta": {"left": [1.5]}, "eta_bar": {"left": [1]}},
     "eta must be"),
    ({**SPATIAL, "eta_bar": {"left": [True]}}, "eta_bar must be"),
])
def test_malformed_boundaries_exit_2(tmp_path, raw, message):
    cfg = write_config(tmp_path, "b.json", raw)
    assert main(["--config", cfg, "--out", str(tmp_path / "b")]) == 2
    man = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert "ContractError" in man["error"] and message in man["error"]
    assert not (tmp_path / "b" / "result.json").exists()


@pytest.mark.parametrize("key, value", [
    # a NaN threshold used to reach the verdict as "<= nan", exit 1
    ("threshold", math.nan), ("threshold", math.inf),
    ("eta", -math.inf), ("p.q", math.nan),
    # an integer past the float range used to end in an OverflowError
    pytest.param("threshold", 10 ** 400, id="threshold-10**400")])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, key, value):
    raw = {"command": "lowerbound", "n": 16,
           "p": {"family": "constant-q", "q": 0.75}}
    if key.startswith("p."):
        raw["p"][key[2:]] = value
    else:
        raw[key] = value
    with pytest.raises(ContractError, match=f"config key {key} must be "
                                            "a finite number"):
        RunConfig(raw)
    cfg = write_config(tmp_path, "f.json", raw)
    assert main(["--config", cfg, "--out", str(tmp_path / "f")]) == 2
    assert "config error" in capsys.readouterr().err


def test_infinite_ell_entries_stay_accepted(tmp_path):
    cfg = write_config(tmp_path, "e.json", {
        "command": "exact", "n": 4, "p": {"family": "constant-q", "q": 0.7},
        "ell": [[math.inf, math.inf]] * 4})
    assert main(["--config", cfg, "--out", str(tmp_path / "e")]) == 0


def _no_constant(token):
    raise ValueError(f"result.json holds the non-JSON token {token}")


@pytest.mark.parametrize("raw, details", [
    # a -Infinity slope
    ({"command": "spatial", "n": 20, "p": {"family": "constant-q", "q": 0.75},
      "ell": 3, "eta": {"left": [1]}, "eta_bar": {"left": [1]},
      "rs": [2, 4, 6]},
     {"slope": None, "slope_se": None, "r2": None,
      "no_fit": "eta equals eta_bar: no decay to fit"}),
    # a NaN slope and an Infinity stderr from a fit over one size
    ({"command": "mix", "ns": [3], "p": {"family": "constant-q", "q": 0.75},
      "method": "exact"},
     {"slope": None, "slope_se": None, "r2": None,
      "no_fit": "fewer than two distinct x: no line to fit"}),
    # an Infinity eps
    ({"command": "disconnect", "n": 5,
      "p": {"family": "totally-asymmetric"}, "mode": "exact"},
     {"eps": "inf"}),
])
def test_results_with_no_finite_figure_are_strict_json(tmp_path, raw, details):
    cfg = write_config(tmp_path, "s.json", raw)
    assert main(["--config", cfg, "--out", str(tmp_path / "s")]) == 0
    rec = json.loads((tmp_path / "s" / "result.json").read_text(),
                     parse_constant=_no_constant)
    got = rec["verdict"]["details"]
    assert {key: got[key] for key in details} == details


@pytest.mark.parametrize("raw", [
    {"command": "blockcheck", "n": 6, "p": {"family": "random-eps", "eps": 0.5}},
    {"command": "mix", "ns": [5, 6], "p": {"family": "constant-q", "q": 0.75},
     "method": "exact"},
    {"command": "disconnect", "n": 6, "p": {"family": "random-eps", "eps": 0.5},
     "mode": "exact"},
])
def test_enumerating_commands_refuse_past_cap_enum_before_enumerating(
        tmp_path, monkeypatch, raw):
    # each used to enumerate all 720 states at n = 6, where exact refuses;
    # exact disconnect then passed
    def never(*args, **kwargs):
        raise AssertionError("enumerated before the cap check")

    monkeypatch.setattr(measure, "_localized_perms", never)
    cfg = write_config(tmp_path, "c.json", {**raw, "cap_enum": 3})
    assert main(["--config", cfg, "--out", str(tmp_path / "c")]) == 2
    man = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert "CapExceeded" in man["error"]
    assert "n=6 exceeds the enumeration cap 3" in man["error"]


def test_mix_exact_refuses_an_oversized_n_before_enumerating(tmp_path,
                                                             monkeypatch):
    # n = 8 used to run (over four minutes at 1.6 GB) before n = 12 was
    # refused
    def never(*args, **kwargs):
        raise AssertionError("enumerated before the cap check")

    monkeypatch.setattr(experiments, "enumerate_stationary", never)
    cfg = write_config(tmp_path, "m.json", {
        "command": "mix", "ns": [8, 12],
        "p": {"family": "constant-q", "q": 0.75}, "method": "exact"})
    assert main(["--config", cfg, "--out", str(tmp_path / "m")]) == 2
    man = json.loads((tmp_path / "m" / "manifest.json").read_text())
    assert "CapExceeded" in man["error"] and "n=12" in man["error"]


def test_blockcheck_refuses_its_dense_kernel_before_enumerating(tmp_path,
                                                               monkeypatch):
    # with no window and no forbidden pair all 9! states carry weight, so
    # the kernel's 8 * 362880^2 bytes are known before any enumeration,
    # which used to take 2.2 s before the kernel refused
    def never(*args, **kwargs):
        raise AssertionError("enumerated before the kernel budget check")

    monkeypatch.setattr(experiments, "enumerate_stationary", never)
    cfg = write_config(tmp_path, "b.json", {
        "command": "blockcheck", "n": 9,
        "p": {"family": "random-eps", "eps": 0.5}})
    assert main(["--config", cfg, "--out", str(tmp_path / "b")]) == 2
    man = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert "CapExceeded" in man["error"] and "362880 states" in man["error"]


FAMILY = {"family": "constant-q", "q": 0.75}


@pytest.mark.parametrize("raw", [
    {"command": "exact", "n": 5, "p": FAMILY},
    # sample used to exit 1 with numpy's ValueError, and burnin and chain
    # exited 2 blaming the start for the window's length
    {"command": "sample", "n": 30, "p": FAMILY, "samples": 3},
    {"command": "chain", "n": 5, "p": FAMILY, "steps": 10},
    {"command": "burnin", "n": 5, "p": FAMILY, "replicas": 2, "T": 10},
    SPATIAL,
    {"command": "disconnect", "n": 5, "p": FAMILY},
    {"command": "blockcheck", "n": 5, "p": FAMILY},
], ids=lambda raw: raw["command"])
def test_an_ell_of_another_length_than_n_exits_2(tmp_path, raw):
    n = raw["n"]
    short = n * 2 // 3
    cfg = write_config(tmp_path, "e.json", {**raw, "ell": [[9, 9]] * short})
    assert main(["--config", cfg, "--out", str(tmp_path / "e")]) == 2
    man = json.loads((tmp_path / "e" / "manifest.json").read_text())
    assert "ContractError" in man["error"]
    assert f"ell has {short} entries, but n = {n}" in man["error"]
    assert not (tmp_path / "e" / "result.json").exists()


def test_an_ell_file_of_another_length_than_n_exits_2(tmp_path):
    path = tmp_path / "ell.txt"
    path.write_text(LocalizationVector.constant(4, 1).to_text())
    cfg = write_config(tmp_path, "f.json", {
        "command": "exact", "n": 5, "p": FAMILY, "ell": {"file": str(path)}})
    assert main(["--config", cfg, "--out", str(tmp_path / "f")]) == 2
    man = json.loads((tmp_path / "f" / "manifest.json").read_text())
    assert "ell has 4 entries, but n = 5" in man["error"]


@pytest.mark.parametrize("raw", [
    # disconnect used to run the sampled mode, exit 0 and record the typo
    {"command": "disconnect", "n": 5, "p": FAMILY},
    SPATIAL,
], ids=lambda raw: raw["command"])
def test_an_unknown_mode_is_refused_before_any_work(tmp_path, monkeypatch,
                                                    raw):
    def never(*args, **kwargs):
        raise AssertionError("worked before the mode check")

    for name in ("exact_localized_sampler", "enumerate_stationary", "BandDP"):
        monkeypatch.setattr(experiments, name, never)
    cfg = write_config(tmp_path, "d.json", {**raw, "mode": "exactt"})
    assert main(["--config", cfg, "--out", str(tmp_path / "d")]) == 2
    man = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert "unknown mode 'exactt'; choose exact or sampled" in man["error"]
    assert not (tmp_path / "d" / "result.json").exists()


@pytest.mark.parametrize("tracked", [[0], [2, 8]])
def test_chain_checks_tracked_ks_before_stepping(tmp_path, monkeypatch,
                                                 tracked):
    # n = 50, 2,000,000 steps and [0] used to run for 18.5 s, then exit 2
    # with an empty trajectory.jsonl
    def never(*args, **kwargs):
        raise AssertionError("stepped before the tracked_ks check")

    monkeypatch.setattr(cli, "ensemble_chain_run", never)
    cfg = write_config(tmp_path, "c.json", {
        "command": "chain", "n": 8, "p": FAMILY, "steps": 2000000,
        "tracked_ks": tracked})
    assert main(["--config", cfg, "--out", str(tmp_path / "c")]) == 2
    man = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert f"tracked_ks must lie in 1..7, got {tracked}" in man["error"]
    assert not (tmp_path / "c" / "trajectory.jsonl").exists()


Q75 = {"family": "constant-q", "q": 0.75}
RANDOM_EPS = {"family": "random-eps", "eps": 0.5}
# a cheap config of each command, and of each mode of the commands whose
# run settings depend on the mode
SETTING_CONFIGS = {
    "exact": {"command": "exact", "n": 4, "p": Q75},
    "sample": {"command": "sample", "n": 8, "p": RANDOM_EPS, "ell": 2,
               "samples": 5},
    "chain": {"command": "chain", "n": 4, "p": Q75, "steps": 10},
    "asep": {"command": "asep", "n": 6, "k": 2, "q": 0.7},
    "burnin": {"command": "burnin", "n": 6, "p": Q75, "replicas": 2, "T": 10},
    "spatial": {"command": "spatial", "n": 10, "p": Q75, "ell": 2,
                "eta": {"left": [1]}, "eta_bar": {"left": [3]}, "rs": [2, 4]},
    "disconnect-exact": {"command": "disconnect", "n": 4, "p": RANDOM_EPS},
    "disconnect-sampled": {"command": "disconnect", "n": 8, "p": RANDOM_EPS,
                           "ell": 2, "mode": "sampled", "budget": 20},
    "blockcheck": {"command": "blockcheck", "n": 4, "p": Q75},
    "mix-exact": {"command": "mix", "ns": [3, 4], "p": Q75, "method": "exact"},
    "mix-coupling": {"command": "mix", "ns": [4, 6], "p": Q75, "budget": 2},
    "mix-statistic": {"command": "mix", "ns": [4, 5], "p": Q75,
                      "method": "statistic", "budget": 2},
    "lowerbound": {"command": "lowerbound", "n": 4, "p": Q75, "replicas": 10},
}
# the (config, setting) pairs whose setting the run reads, and a value of
# each setting that shows it does: caps of 1 refuse n = 4 and every band DP
SETTING_READS = {("exact", "cap_enum"), ("blockcheck", "cap_enum"),
                 ("disconnect-exact", "cap_enum"), ("mix-exact", "cap_enum"),
                 ("sample", "cap_window"), ("spatial", "cap_window"),
                 ("disconnect-sampled", "cap_window"),
                 ("mix-coupling", "jobs")}
HONOURED = {"jobs": 2, "cap_enum": 1, "cap_window": 1}


class SerialPool:
    """A stand-in ProcessPoolExecutor that records its worker bound."""

    workers = []

    def __init__(self, max_workers, **kwargs):
        SerialPool.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_setting_configs_cover_every_command_and_setting():
    commands = {raw["command"] for raw in SETTING_CONFIGS.values()}
    assert commands == set(cli.COMMANDS)
    assert set(HONOURED) == set(cli.RUN_SETTINGS)


@pytest.mark.parametrize("source", ["key", "flag"])
@pytest.mark.parametrize("setting", sorted(cli.RUN_SETTINGS))
@pytest.mark.parametrize("name", SETTING_CONFIGS)
def test_run_settings_only_where_read(tmp_path, monkeypatch, capsys, name,
                                      setting, source):
    # every command used to accept every setting, and to record one it never
    # read in its manifest as if it had been used
    # experiments imports the pool from concurrent.futures where jobs > 1
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    SerialPool.workers = []

    def call(value, out):
        raw = dict(SETTING_CONFIGS[name])
        flags = [f"--{setting.replace('_', '-')}", str(value)]
        if source == "key":
            raw[setting], flags = value, []
        cfg = write_config(tmp_path, f"{out}.json", raw)
        return main(["--config", cfg, "--out", str(tmp_path / out), *flags])

    default = cli.RUN_SETTINGS[setting][0]
    assert call(default, "default") in (0, 1)
    resolved = json.loads((tmp_path / "default" / "resolved_config.json")
                          .read_text())
    assert resolved[setting] == default
    capsys.readouterr()
    value = HONOURED[setting]
    status = call(value, "other")
    if (name, setting) not in SETTING_READS:
        assert status == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"run setting {setting}" in err
        assert not (tmp_path / "other").exists()
    elif setting == "jobs":
        assert status in (0, 1) and SerialPool.workers == [value]
        assert ((tmp_path / "default" / "result.json").read_bytes()
                == (tmp_path / "other" / "result.json").read_bytes())
    else:
        assert status == 2
        man = json.loads((tmp_path / "other" / "manifest.json").read_text())
        assert "CapExceeded" in man["error"] and "cap 1" in man["error"]


# the draw memory budget while fuzzing: at 16 bytes a label it puts the
# edge at DRAW_BUDGET // (16 n) draws, 20,000 (the default budget) at n = 5
DRAW_BUDGET = 16 * 5 * 20000
BOUNDARIES = [{}, {"left": [1]}, {"left": [3]}, {"left": [1, 2]},
              {"right": [4]}, {"left": [1], "right": [5]}, {"left": [9]},
              {"rigth": [1]}, "x", None]
# values of each config key, the same for every command that takes it: in
# its range, just outside it, and of the wrong kind
FUZZ_VALUES = {
    "n": [2, 3, 5, 1, 0, "4", 4.0, True],
    "ns": [[2, 3], [3, 5], [2, 4, 5], [4], [4, 4], [], [1, 4], 4],
    "seed": [0, 7, -1, "7"],
    "jobs": [1, 2, 0, 1.0],
    "cap_enum": [8, 3, 9, 1.5],
    "cap_window": [22, 3, 23, "22"],
    "p": [Q75, RANDOM_EPS, *[{"family": "constant-q", "q": q}
                             for q in (0.5, 1.0, 0.0, 0.3, 1.5)],
          *[{"family": kind, "eps": eps} for kind in
            ("constant-eps", "random-eps", "monotone-eps")
            for eps in (0.0, 3.0, -0.5)],
          {"family": "totally-asymmetric"}, {"family": "bogus"},
          {"family": "constant-q"}, {"file": "missing.txt"}, 0.7],
    "ell": [None, 0, 1, 2, -1, True, [[1, 1]] * 4, "x"],
    "steps": [0, 5, 40, -1],
    "checkpoint_every": [1, 3, 0],
    "tracked_ks": [[], [1], [1, 2], [0], [9]],
    "init": ["identity", "reversal", "random", "bogus", [2, 1, 3, 4], "4321"],
    "k": [0, 1, 2, -1, 9],
    "q": [0.51, 0.7, 0.99, 0.5, 1.0, 2, "x"],
    "rs": [[1], [1, 2, 3], [2, 4], [], [-1], [50]],
    "T_mult": [1, 2, 0, -1],
    "replicas": [2, 5, 0, 1],
    "quantile": [0.5, 0.99, 0, 1, 1.5],
    "T": [0, 10, -1],
    "eta": [0.25, 0.5, 0, 1, 1.5, *BOUNDARIES],
    "eta_bar": BOUNDARIES,
    "mode": ["exact", "sampled", "bogus", None],
    "threshold": [0.05, 0.5, -1],
    "ks": [[1], [2, 3], [], [0], [9]],
    "boundary": BOUNDARIES,
    "schedule": ["west-east", "single", "bogus"],
    "selection": ["size", "uniform", "bogus"],
    "delta": [0.25, 0.5, 0, 0.75],
    "method": ["exact", "coupling", "statistic", "bogus"],
}


@st.composite
def fuzzed_configs(draw, name):
    """A config of SETTING_CONFIGS with up to three keys set to fuzz values
    and maybe one key left out."""
    raw = json.loads(json.dumps(SETTING_CONFIGS[name]))
    command = raw["command"]
    keys = [key for key in cli.CONFIG_KEYS[command]
            if key not in ("command", "out")]
    for key in draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)):
        if key == "budget" and command == "mix":
            values = [2, 4, 0, 1]
        elif key in ("samples", "budget"):      # around the budget's edge
            n = raw.get("n")
            edge = DRAW_BUDGET // (16 * (n if isinstance(n, int) and n > 0
                                         else 4))
            values = [1, 2, 20, edge, 0, edge + 1]
        else:
            values = FUZZ_VALUES[key]
        raw[key] = draw(st.sampled_from(values))
    for key in draw(st.lists(st.sampled_from(sorted(set(raw) - {"command"})),
                             max_size=1)):
        del raw[key]
    return raw


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-finite {name} in result.json")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("name", SETTING_CONFIGS)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_no_config_ends_in_a_traceback(name, data):
    # a config exits 0 or 1 with a strict-JSON result, or 2 as a config
    # error or with the error in the manifest; lowerbound at q = 0 used to
    # end in a ZeroDivisionError, a negative seed in numpy's ValueError
    raw = data.draw(fuzzed_configs(name))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(banddp, "MEMORY_BUDGET", DRAW_BUDGET), \
            warnings.catch_warnings(), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("ignore")
        cfg = os.path.join(tmp, "c.json")
        with open(cfg, "w") as fh:
            json.dump(raw, fh)
        out = os.path.join(tmp, "out")
        status = main(["--config", cfg, "--out", out])
        if status in (0, 1):
            with open(os.path.join(out, "result.json")) as fh:
                _strict_json(fh.read())
        else:
            assert status == 2, status
            if "config error" not in err.getvalue():
                with open(os.path.join(out, "manifest.json")) as fh:
                    assert "error" in json.load(fh)
