import json
import math
import os

import pytest

from atshuffle import cli, experiments
from atshuffle.cli import RunConfig, generate_instance, main, run
from atshuffle.errors import ContractError
from atshuffle.perms import BiasMatrix


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
    assert len(rec["series"]) == 6
    man = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert man["incomplete"] is False
    assert "runtime_s" in man and "started" in man
    assert (tmp_path / "run" / "distribution.csv").exists()
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
      "ell": 2, "samples": 5}, ["--cap-window", "20", "--jobs", "2"]),
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
    raw = {"command": "exact", "n": 4, "p": {"family": "constant-q", "q": 0.6},
           "jobs": 2, "cap_enum": 2, "cap_window": 9}
    cfg = RunConfig(raw)
    assert (cfg.jobs, cfg.cap_enum, cfg.cap_window) == (2, 2, 9)
    cfg = RunConfig(raw, cap_enum=7, cap_window=11, jobs=1)
    assert (cfg.jobs, cfg.cap_enum, cfg.cap_window) == (1, 7, 11)
    assert RunConfig({k: v for k, v in raw.items() if k != "jobs"}).jobs == 1
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


def test_burnin_rejects_start_outside_window(tmp_path):
    # the default reversal start puts particle 1 at distance 19 > ell = 2
    cfg = write_config(tmp_path, "b.json", {
        "command": "burnin", "n": 20, "p": {"family": "constant-q", "q": 0.75},
        "ell": 2, "replicas": 4, "T": 10})
    assert main(["--config", cfg, "--out", str(tmp_path / "b")]) == 2
    man = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert "ContractError" in man["error"]


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
    # the series and the verdict repeat each checkpoint's displacement
    res = json.loads((tmp_path / "t" / "result.json").read_text())
    assert [(pt["x"], pt["estimate"]) for pt in res["series"]] == \
        [(r["step"], r["max_displacement"]) for r in recs]
    assert res["verdict"]["details"]["final_max_displacement"] == \
        recs[-1]["max_displacement"]

    # a listed start, which used to raise TypeError from a dict lookup
    cfg = write_config(tmp_path, "l.json", {
        "command": "chain", "n": 4, "p": {"family": "constant-q", "q": 0.7},
        "init": [2, 4, 1, 3], "steps": 10})
    assert main(["--config", cfg, "--out", str(tmp_path / "l")]) == 0
    first = (tmp_path / "l" / "trajectory.jsonl").read_text().splitlines()[0]
    assert json.loads(first)["permutation"] == [2, 4, 1, 3]


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
    assert pm.is_monotone() and pm.epsilon >= 0.5
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


def test_burnin_over_ns_refuses_ell(tmp_path):
    # ell used to be dropped silently when the config had ns
    cfg = write_config(tmp_path, "bns.json", {
        "command": "burnin", "ns": [8, 12],
        "p": {"family": "constant-q", "q": 0.75}, "ell": 1, "replicas": 4,
        "T_mult": 1})
    assert main(["--config", cfg, "--out", str(tmp_path / "bns")]) == 2
    man = json.loads((tmp_path / "bns" / "manifest.json").read_text())
    assert "ContractError" in man["error"] and "ell" in man["error"]
    assert not (tmp_path / "bns" / "result.json").exists()


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
    ({"command": "chain", "n": 6, "p": {"family": "constant-q", "q": 0.7},
      "steps": 40, "checkpoint_every": 0}, "checkpoint_every"),
    # statistic mode has no reference draws for a non-constant family; it
    # used to record lower bounds of 0 and pass
    ({"command": "mix", "ns": [8, 12],
      "p": {"family": "random-eps", "eps": 0.5}, "method": "statistic",
      "budget": 8, "seed": 3}, "no reference sampler"),
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
    import scipy.sparse.linalg as spla

    def stalled(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", [], [])

    # n = 8 has 40320 states, above the dense cutoff, so the gap uses eigsh
    monkeypatch.setattr(spla, "eigsh", stalled)
    cfg = write_config(tmp_path, "g.json", {
        "command": "exact", "n": 8, "p": {"family": "constant-q", "q": 0.6}})
    assert main(["--config", cfg, "--out", str(tmp_path / "g")]) == 2
    man = json.loads((tmp_path / "g" / "manifest.json").read_text())
    assert "CapExceeded" in man["error"] and "dense_cutoff" in man["error"]


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
