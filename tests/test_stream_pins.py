"""Pinned outputs of the scalar coupling drivers and the ensemble stepper.

The coupling values were recorded with the original numpy/randrange
implementations; the list-state drivers must reproduce them exactly (same draw
streams, same meeting times, same result files).  The ensemble values were
recorded with the row-indexed stepper that kept INV current at every step; the
flat-indexed stepper must reproduce them byte for byte.  The band DP and
kernel values were recorded with the argsort/searchsorted band DP and the
state-by-state kernel build.
"""

import hashlib
import json
import re

import numpy as np
import pytest

from atshuffle.banddp import BandDP
from atshuffle.chains import (asep_monotone_audit_run, asep_pair_coalescence,
                              domination_audit_run)
from atshuffle.cli import main
from atshuffle.perms import BiasMatrix, LocalizationVector, Permutation

Q = 0.75
COALESCENCE_SEEDS = (1, 2, 3, 2 ** 61 + 7)
MEETING_TIMES = {
    32: [4453, 3051, 3175, 3432],
    64: [13364, 13398, 13570, 13664],
    128: [59585, 58170, 59973, 59309],
}
# sha256 of result.json of the CLI config MIX_CONFIG
MIX_CONFIG = {"command": "mix", "ns": [32, 64, 128],
              "p": {"family": "constant-q", "q": Q}, "method": "coupling",
              "budget": 4, "seed": 11}
MIX_DIGEST = "8bc32141de316c6680a2d8d13740a2c4e529c19fbebd40d26717a1f8ed99249b"
# sha256 of result.json of CLI mix in statistic mode: T_lb [64, 216] <=
# T_ub [145, 398]
STATISTIC_CONFIG = {"command": "mix", "ns": [8, 12],
                    "p": {"family": "constant-q", "q": Q},
                    "method": "statistic", "budget": 8, "seed": 3}
STATISTIC_DIGEST = "ed6880107907289038170ee736f3f1eee316b64a026d48360c4186e47a7af5c8"
# (config, artifact, sha256) of CLI runs driven by ensemble_chain_run: burnin
# spans three 2048-step draw chunks, chain takes the restricted branch and
# fires 101 checkpoints
ENSEMBLE_PINS = {
    "burnin": ({"command": "burnin", "n": 16,
                "p": {"family": "constant-q", "q": Q}, "T": 5000,
                "replicas": 40, "seed": 5}, "result.json",
               "f7ecca18570772928978cd5896715c35e44ebbd92a65abbc55447a94dbe5bdfd"),
    "lowerbound": ({"command": "lowerbound", "n": 32,
                    "p": {"family": "constant-q", "q": Q}, "seed": 6},
                   "result.json",
                   "1d73528fb9b175568d2a8d3a9056c2dd92f7b5ab1864259ccb37e9e1f96d99c5"),
    "chain": ({"command": "chain", "n": 12,
               "p": {"family": "random-eps", "eps": 0.5}, "ell": 2,
               "init": "identity", "steps": 3000, "tracked_ks": [3, 6],
               "seed": 7}, "trajectory.jsonl",
              "7b408915326db1ed718b682789c8c343cfd28350b9f1cca3bdc1ba74e9477d8b"),
}
# sha256 of BandDP.sample_rows at n = 24, W = 19 and the generator's next
# uniform after it
BAND_DP_ROWS = ("a75c86707a3d22ed2c2046f3aa7b5833c4476e62dcd277a6392e35c36428ca30",
                0.4963587251624958)
# sha256 of samples.jsonl of CLI sample on the band DP (band-dp strategy at
# W = 15)
SAMPLE_CONFIG = {"command": "sample", "n": 100,
                 "p": {"family": "random-eps", "eps": 0.5}, "ell": 7,
                 "samples": 200, "seed": 9}
SAMPLE_DIGEST = "b77ea7bc023a97d4a1a222609fc53677882f08f43b14bc1c71b9c0d792aa2eaf"
# result.json of CLI exact at n = 8 (40,320 states): its gap comes from eigsh,
# whose BLAS dot products and norms may round differently with the number of
# BLAS threads, so the gap is compared within GAP_TOL and the rest of the
# file, gap nulled, byte for byte
EXACT_CONFIG = {"command": "exact", "n": 8,
                "p": {"family": "random-eps", "eps": 0.5}, "seed": 4}
EXACT_GAP = 0.029170059140116833
GAP_TOL = 1e-8
EXACT_DIGEST = "c2855f554904811bdfc4d573743396378661c5d96cfbac45121a6e1deb00d694"
# sha256 of the two tables of the same run; neither holds the gap
EXACT_TABLE_DIGESTS = {
    "result.csv":
        "fd2cf3096304d1def3a2722d419a479b0bb2049b37b0e9a1dc7150e9d5dd4550",
    "distribution.csv":
        "9e551001124e3f487706b9435d87596f363eae51655c87497d4f9590b64123e5",
}


@pytest.mark.parametrize("n", sorted(MEETING_TIMES))
def test_coalescence_meeting_times_pinned(n):
    t_cap = int(40 * n * n / (2 * Q - 1))
    assert [asep_pair_coalescence(n, n // 2, Q, seed, t_cap)
            for seed in COALESCENCE_SEEDS] == MEETING_TIMES[n]
    assert asep_pair_coalescence(n, n // 2, Q, 5, 100) is None


def test_audit_result_dicts_pinned():
    p = BiasMatrix.constant(40, Q)
    assert domination_audit_run(40, p, Q, ks=[39, 1, 8, 16], steps=20000,
                                seed=6) == {
        "steps": 20000, "audits": 20000, "violations": 0, "ks": [1, 8, 16, 39]}
    assert domination_audit_run(
        40, p, Q, ks=[1, 4, 16, 39], steps=20000, seed=7,
        ell=LocalizationVector.constant(40, 8),
        start=Permutation.identity(40)) == {
        "steps": 20000, "audits": 20000, "violations": 0, "ks": [1, 4, 16, 39]}
    assert asep_monotone_audit_run(50, 20, Q, steps=20000, seed=5) == {
        "steps": 20000, "audits": 20000, "violations": 0}


def cli_artifact(tmp_path, config, artifact):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    return (tmp_path / "o" / artifact).read_bytes()


def cli_artifact_digest(tmp_path, config, artifact):
    return hashlib.sha256(cli_artifact(tmp_path, config, artifact)).hexdigest()


def test_cli_mix_result_pinned(tmp_path):
    assert cli_artifact_digest(tmp_path, MIX_CONFIG, "result.json") == MIX_DIGEST


def test_cli_mix_statistic_result_pinned(tmp_path):
    assert (cli_artifact_digest(tmp_path, STATISTIC_CONFIG, "result.json")
            == STATISTIC_DIGEST)


@pytest.mark.parametrize("name", sorted(ENSEMBLE_PINS))
def test_cli_ensemble_artifacts_pinned(tmp_path, name):
    config, artifact, digest = ENSEMBLE_PINS[name]
    assert cli_artifact_digest(tmp_path, config, artifact) == digest


def test_cli_sample_band_dp_pinned(tmp_path):
    assert (cli_artifact_digest(tmp_path, SAMPLE_CONFIG, "samples.jsonl")
            == SAMPLE_DIGEST)


def test_cli_exact_result_pinned(tmp_path):
    data = cli_artifact(tmp_path, EXACT_CONFIG, "result.json")
    gap = json.loads(data)["verdict"]["details"]["gap"]
    assert abs(gap - EXACT_GAP) <= GAP_TOL
    gapless = re.sub(rb'"gap": [^,}\n]*', b'"gap": null', data)
    assert gapless.count(b'"gap": null') == 1
    assert hashlib.sha256(gapless).hexdigest() == EXACT_DIGEST


def test_cli_exact_tables_pinned(tmp_path):
    cli_artifact(tmp_path, EXACT_CONFIG, "result.csv")
    assert {name: hashlib.sha256((tmp_path / "o" / name).read_bytes())
            .hexdigest() for name in EXACT_TABLE_DIGESTS} == EXACT_TABLE_DIGESTS


def test_band_dp_rows_pinned():
    p = BiasMatrix.random_biased(24, 0.5, np.random.default_rng(31))
    dp = BandDP(p, LocalizationVector.constant(24, 9))
    assert dp.W == 19
    rng = np.random.default_rng(32)
    rows = dp.sample_rows(rng, 300)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == BAND_DP_ROWS[0]
    assert rng.random() == BAND_DP_ROWS[1]
