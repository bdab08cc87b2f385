"""Pinned outputs of the scalar coupling drivers and the ensemble stepper.

The coupling values were recorded with the original numpy/randrange
implementations; the list-state drivers must reproduce them exactly (same draw
streams, same meeting times, same result files).  The ensemble values were
recorded with the row-indexed stepper that kept INV current at every step; the
flat-indexed stepper must reproduce them byte for byte.  The band DP and
kernel values were recorded with the argsort/searchsorted band DP and the
state-by-state kernel build.  The Mallows values were recorded with the
list.pop rank-to-label loop for every chunk and rejection only after a whole
row was built; they hold with single rows stopped at their first placement
outside the window.  The forced-end Mallows rows were recorded when labels
a window forces home began to be put back instead of drawn.  The twin at
meeting times and the statistic-mode mix results were recorded again when
the twins took the domination audit's order-based update and T_ub became the
(1 - delta) quantile of their meeting times.  The ASEP pair coalescence times
and the coupling-mode mix result were recorded again when the coalescence
moved from a stdlib ``random.Random`` stream to the numpy ``_audit_draws``
stream that the other scalar drivers read.  The statistic-mode mix results
and the lowerbound results were recorded again when label 1's exact
one-particle exclusion law replaced the sampled lower bound and the 20,000
Mallows rows of both stationary references; T_ub and lowerbound's estimate
kept their bits.  The band DP rows and the CLI sample on the band DP were
recorded again when the draws became forward filtering, backward sampling.
"""

import hashlib
import json

import numpy as np
import pytest

from atshuffle.banddp import (BandDP, MallowsRejectionSampler,
                              band_dp_conditional_marginal)
from atshuffle.chains import (asep_monotone_audit_run, asep_pair_coalescence,
                              domination_audit_run, twin_chain_coupling_run)
from atshuffle.cli import main
from atshuffle.experiments import localization_tail_check, make_family
from atshuffle.measure import enumerate_stationary
from atshuffle.perms import (BiasMatrix, BoundaryAssignment,
                             LocalizationVector, Permutation,
                             max_localized_state)

Q = 0.75
COALESCENCE_SEEDS = (1, 2, 3, 2 ** 61 + 7)
MEETING_TIMES = {
    32: [2780, 4222, 3142, 2929],
    64: [12710, 14200, 15668, 16165],
    128: [61217, 62589, 58085, 62788],
}
# twin AT chains, identity against reversal at constant Q with T = 40 n^2,
# meeting times for the seeds 1, 2 and 3 (recorded when the twins took the
# domination audit's order-based update)
TWIN_MEETING_TIMES = {
    32: [3856, 4229, 3704],
    64: [17208, 16372, 16192],
    128: [64049, 69220, 63085],
}
# the restricted twin: n = 32, random-eps 0.5 (instance rng 0), ell = 3,
# identity against max_localized_state, seed 1
RESTRICTED_TWIN_TIME = 658
# sha256 of result.json of the CLI config MIX_CONFIG
MIX_CONFIG = {"command": "mix", "ns": [32, 64, 128],
              "p": {"family": "constant-q", "q": Q}, "method": "coupling",
              "budget": 4, "seed": 11}
MIX_DIGEST = "13be305acace6642e38bff516e293ba82c3a2652c66be3b63c102634c0496a1e"
# sha256 of result.json of CLI mix in statistic mode: T_lb [92, 246] <=
# T_ub [156, 515], the third of four order-based twin meeting times
STATISTIC_CONFIG = {"command": "mix", "ns": [8, 12],
                    "p": {"family": "constant-q", "q": Q},
                    "method": "statistic", "budget": 8, "seed": 3}
STATISTIC_DIGEST = "3195823e9800bc8afa12a02badc7e866dcec0342c5e17f3faad3e9475c50217f"
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
                   "59384caa1db434df102bac83cc6ec84c709bb4830afb92f2e2e8234a4d729512"),
    "chain": ({"command": "chain", "n": 12,
               "p": {"family": "random-eps", "eps": 0.5}, "ell": 2,
               "init": "identity", "steps": 3000, "tracked_ks": [3, 6],
               "seed": 7}, "trajectory.jsonl",
              "7b408915326db1ed718b682789c8c343cfd28350b9f1cca3bdc1ba74e9477d8b"),
}
# sha256 of BandDP.sample_rows at n = 24, W = 19 and the generator's next
# uniform after it (the rows recorded again when the draws became forward
# filtering, backward sampling; each row still reads n uniforms)
BAND_DP_ROWS = ("c58211109c9662dc568c370854823da7e64446cc0144dac5ad8010cccbc77098",
                0.4963587251624958)
# sha256 of samples.jsonl of CLI sample on the band DP (band-dp strategy at
# W = 15; recorded again with the backward-sampled rows)
SAMPLE_CONFIG = {"command": "sample", "n": 100,
                 "p": {"family": "random-eps", "eps": 0.5}, "ell": 7,
                 "samples": 200, "seed": 9}
SAMPLE_DIGEST = "c8c380ac1d0f08d14b7853a1743c615fc37eaa05f8ae8056367a8e6278ab3372"
# result.json of CLI exact at n = 8 (40,320 states) and its gap, which the
# Lanczos recurrence gives with the same bits under any BLAS thread count
# (recorded when the recurrence replaced ARPACK's eigsh, which gave a gap
# less than 1e-15 away whose last bits varied with the thread count)
EXACT_CONFIG = {"command": "exact", "n": 8,
                "p": {"family": "random-eps", "eps": 0.5}, "seed": 4}
EXACT_GAP = 0.029170059140115945
EXACT_DIGEST = "2668b598b7a2574bc8c38eea896597ee2b7da3a38991df0a81882840c247f926"
# sha256 of the two tables of the same run; neither holds the gap, and
# result.csv holds only its header, since the law is in distribution.csv
EXACT_TABLE_DIGESTS = {
    "result.csv":
        "6bce1e5d824435472e79f223d8d1ff037dc32002814b1dfe249c4d5b8c2823e7",
    "distribution.csv":
        "7b468c017808d64a90c558f6e2e9c12b79a0d264e341db00df6e19a3108eff45",
}

# (config, sha256 of result.json) of CLI runs on exact supports and laws:
# spatial TVs of cut laws and pair-cut laws, a block kernel, a small
# windowed exact run, a pinned disconnect table and the ASEP enumeration
# crosscheck (recorded with tuple-list supports; the exact run re-recorded
# when its law moved from result.json to distribution.csv, and the block
# kernel and exact runs when their gaps moved by at most 2e-15 from a dense
# eigensolver to the Lanczos recurrence)
EXACT_LAW_PINS = {
    "spatial-one-sided": (
        {"command": "spatial", "n": 60, "p": {"family": "constant-q", "q": Q},
         "ell": 3, "eta": {"left": [1]}, "eta_bar": {"left": [4]},
         "rs": list(range(3, 37)), "mode": "exact"},
        "e37c913064d89f2d82b90443f1aeef3e801ef9836ae271f820edd613a0bd2103"),
    "spatial-two-sided": (
        {"command": "spatial", "n": 40,
         "p": {"family": "random-eps", "eps": 0.5}, "ell": 3,
         "eta": {"left": [1], "right": [40]},
         "eta_bar": {"left": [3], "right": [38]}, "rs": [2, 4, 6, 8],
         "mode": "exact", "threshold": 1.0},
        "9fa92303150a1e0fe3b67a4c3bb6e342bbee4420dced1ff94c8c703bfe76f9b9"),
    "blockcheck": (
        {"command": "blockcheck", "n": 6,
         "p": {"family": "random-eps", "eps": 0.5}, "ell": 2},
        "99f6d98a6ec96f9766f619021192dab484c1f7d103c3145cdf2c1f25b8c13953"),
    "exact": (
        {"command": "exact", "n": 5,
         "p": {"family": "random-eps", "eps": 0.5}, "ell": 2},
        "24db8894bb736b1245d6dbe6dd82464027fdf50a1a966c14f6be019c65376e46"),
    "disconnect": (
        {"command": "disconnect", "n": 7,
         "p": {"family": "random-eps", "eps": 0.5}, "ell": 2,
         "mode": "exact", "boundary": {"left": [2]}},
        "aba9bb80b2f5a1aab3bb1b5ba6f62970cd23269bcee265cf721aa2ed8dbe119d"),
    "asep": (
        {"command": "asep", "n": 12, "k": 5, "q": 0.7},
        "f9a65e3538bb5e9c683dbea9ef3b1517886c86ccff4d4bb93882626bf45c8e5c"),
}
# sha256 of result.json of CLI runs that read label 1's exact stationary
# law: lowerbound's stationary_exact at n = 128 and mix statistic's exact
# lower bound T_lb
LABEL_ONE_LAW_PINS = {
    "lowerbound": (
        {"command": "lowerbound", "n": 128,
         "p": {"family": "constant-q", "q": Q}, "replicas": 100, "seed": 13},
        "330f2c63b9128252117c530f4d27e353c35ecce338fb22eacc84fcea411e1087"),
    "statistic": (
        {"command": "mix", "ns": [32, 64],
         "p": {"family": "constant-q", "q": Q}, "method": "statistic",
         "budget": 8, "seed": 17},
        "a068c67646e927508c7f4c4cceb85ec3d8b9e7e1c750a67af2601a413928aa7d"),
}
# sha256 of MallowsRejectionSampler rows at q = Q and the generator's next
# uniform after them: (n, ell, draws per call, calls, seed) -> pin
MALLOWS_ROW_PINS = {
    (300, 12, 1, 200, 19): (
        "7fc85266a7ebad45afab7b48345aad08f4f4a4d9629773bf51edd0c6238881c4",
        0.5279024809891051),
    (300, 12, 64, 1, 29): (
        "b06051ee972bf718d6ddd713ca784cb0787770bbb7ddf4b99f735d722626af93",
        0.19001081315287116),
    (128, None, 3000, 1, 23): (
        "2e59591291e9162b81f002d5971934f738aec4641769d06289c323846860be9c",
        0.7730328887658874),
}
# sha256 of MallowsRejectionSampler rows at n = 200, q = Q, ell = 12 but no
# westward room for the last eight labels, which the window forces home: 30
# single rows and then 200 rows, seed 61, and the generator's next uniform
MIRRORED_ROW_PIN = (
    "fefd6a46429153341f2bf4854d7acb635211fe0b5cd4d2a304ee6e3f038c2789",
    0.39169212071400217)
# sha256 of the int64 rows then the probs of band_dp_conditional_marginal at
# n = 12 (103 rows)
REGION_MARGINAL_DIGEST = (
    "e19d6a360f5724777c7daabf7ddf43e45facf47401d308c0038caa67db3ab2b7")
# sha256 of the sorted-key JSON record of an exact localization_tail_check
# at n = 7
TAIL_RECORD_DIGEST = (
    "7f1572942186696ba8fc4238345e16a7ad42079c25520222004a9f37dbdfc984")


@pytest.mark.parametrize("n", sorted(MEETING_TIMES))
def test_coalescence_meeting_times_pinned(n):
    t_cap = int(40 * n * n / (2 * Q - 1))
    assert [asep_pair_coalescence(n, n // 2, Q, seed, t_cap)
            for seed in COALESCENCE_SEEDS] == MEETING_TIMES[n]
    assert asep_pair_coalescence(n, n // 2, Q, 5, 100) is None


@pytest.mark.parametrize("n", sorted(TWIN_MEETING_TIMES))
def test_twin_meeting_times_pinned(n):
    p = BiasMatrix.constant(n, Q)
    assert [twin_chain_coupling_run(
        Permutation.identity(n), Permutation.reversal(n), p, None,
        40 * n * n, seed)[0] for seed in (1, 2, 3)] == TWIN_MEETING_TIMES[n]


def test_restricted_twin_and_timeout_pinned():
    n = 32
    p = BiasMatrix.random_biased(n, 0.5, np.random.default_rng(0))
    ell = LocalizationVector.constant(n, 3)
    assert twin_chain_coupling_run(
        Permutation.identity(n), max_localized_state(ell), p, ell,
        40 * n * n, 1)[0] == RESTRICTED_TWIN_TIME
    assert twin_chain_coupling_run(
        Permutation.identity(n), Permutation.reversal(n),
        BiasMatrix.constant(n, Q), None, 1000, 1)[0] is None


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
    assert json.loads(data)["verdict"]["details"]["gap"] == EXACT_GAP
    assert hashlib.sha256(data).hexdigest() == EXACT_DIGEST


def test_cli_exact_tables_pinned(tmp_path):
    cli_artifact(tmp_path, EXACT_CONFIG, "result.csv")
    assert {name: hashlib.sha256((tmp_path / "o" / name).read_bytes())
            .hexdigest() for name in EXACT_TABLE_DIGESTS} == EXACT_TABLE_DIGESTS


@pytest.mark.parametrize("config", [EXACT_CONFIG, EXACT_LAW_PINS["exact"][0]],
                         ids=["n8", "n5-windowed"])
def test_cli_exact_table_reads_back_to_the_law(tmp_path, config):
    """distribution.csv holds each support state and its probability, in
    support order, and reads back to the enumerated law bit for bit."""
    n = config["n"]
    header, *lines = cli_artifact(tmp_path, config, "distribution.csv") \
        .decode().splitlines()
    mu = enumerate_stationary(
        n, make_family(n, {"kind": "random-eps", "eps": 0.5},
                       config.get("seed", 0)),
        LocalizationVector.constant(n, config["ell"]) if "ell" in config
        else None)
    assert header.split(",") == [f"s{i}" for i in range(1, n + 1)] + \
        ["probability"]
    cells = [line.split(",") for line in lines]
    support = np.array([cell[:-1] for cell in cells], dtype=np.int64)
    probs = np.array([float(cell[-1]) for cell in cells])
    assert np.array_equal(support, mu.support)
    assert probs.tobytes() == mu.probs.tobytes()
    rec = json.loads((tmp_path / "o" / "result.json").read_bytes())
    assert rec["meta"] == {"distribution": "distribution.csv"}
    assert rec["verdict"]["details"]["states"] == len(mu)


def test_band_dp_rows_pinned():
    p = BiasMatrix.random_biased(24, 0.5, np.random.default_rng(31))
    dp = BandDP(p, LocalizationVector.constant(24, 9))
    assert dp.W == 19
    rng = np.random.default_rng(32)
    rows = dp.sample_rows(rng, 300)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == BAND_DP_ROWS[0]
    assert rng.random() == BAND_DP_ROWS[1]


@pytest.mark.parametrize("name", sorted(EXACT_LAW_PINS))
def test_cli_exact_law_results_pinned(tmp_path, name):
    config, digest = EXACT_LAW_PINS[name]
    assert cli_artifact_digest(tmp_path, config, "result.json") == digest


def test_region_marginal_pinned():
    n = 12
    p = BiasMatrix.random_biased(n, 0.5, np.random.default_rng(41))
    marg = band_dp_conditional_marginal(
        p, LocalizationVector.constant(n, 2), BoundaryAssignment(n, (2,), (11,)),
        (4, 7))
    rows = np.asarray(marg.support, dtype=np.int64)
    assert len(marg) == 103
    assert (hashlib.sha256(rows.tobytes() + marg.probs.tobytes()).hexdigest()
            == REGION_MARGINAL_DIGEST)


def test_exact_tail_record_pinned():
    p = BiasMatrix.random_biased(7, 0.5, np.random.default_rng(42))
    res = localization_tail_check(7, p, LocalizationVector.constant(7, 2),
                                  mode="exact")
    record = json.dumps(res.to_json_dict(), sort_keys=True).encode()
    assert hashlib.sha256(record).hexdigest() == TAIL_RECORD_DIGEST


@pytest.mark.parametrize("name", sorted(LABEL_ONE_LAW_PINS))
def test_cli_label_one_law_results_pinned(tmp_path, name):
    config, digest = LABEL_ONE_LAW_PINS[name]
    assert cli_artifact_digest(tmp_path, config, "result.json") == digest


@pytest.mark.parametrize("key", sorted(MALLOWS_ROW_PINS, key=str))
def test_mallows_rows_pinned(key):
    n, ell, size, calls, seed = key
    sampler = MallowsRejectionSampler(
        n, Q, None if ell is None else LocalizationVector.constant(n, ell))
    rng = np.random.default_rng(seed)
    rows = np.concatenate([sampler.draw_rows(rng, size) for _ in range(calls)])
    assert rows.shape == (size * calls, n)
    assert (hashlib.sha256(rows.tobytes()).hexdigest(), rng.random()) \
        == MALLOWS_ROW_PINS[key]


def test_mirrored_mallows_rows_pinned():
    n = 200
    lo = np.full(n, 12)
    lo[-8:] = 0
    sampler = MallowsRejectionSampler(
        n, Q, LocalizationVector(lo, np.full(n, 12)))
    assert (sampler._west, sampler._m) == (0, 192)
    rng = np.random.default_rng(61)
    rows = np.concatenate([sampler.draw_rows(rng, 1) for _ in range(30)]
                          + [sampler.draw_rows(rng, 200)])
    assert (hashlib.sha256(rows.tobytes()).hexdigest(), rng.random()) \
        == MIRRORED_ROW_PIN
