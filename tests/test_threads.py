"""The exact layer's results do not depend on the BLAS thread count.

Every spectral gap comes from a Lanczos recurrence whose inner products are
numpy sums, not BLAS calls, so CLI exact at n = 8 (40,320 states), CLI
blockcheck at n = 6 with window 2 (its block kernel and every sub-instance
gap) and the gap at n = 7 (5,040 states) come out with the same bits under
one and two BLAS threads.  Each run is a fresh interpreter, since OpenBLAS
reads its thread count when it loads.
"""

import json
import os
import subprocess
import sys
import textwrap

import atshuffle

SRC = os.path.dirname(os.path.dirname(os.path.abspath(atshuffle.__file__)))

PROBE = textwrap.dedent("""
    import json, os, sys

    from atshuffle.cli import main
    from atshuffle.experiments import make_family
    from atshuffle.measure import (build_transition_matrix,
                                   enumerate_stationary, spectral_gap)

    work = sys.argv[1]
    codes = []
    for name, config in [
            ("exact", {"command": "exact", "n": 8,
                       "p": {"family": "random-eps", "eps": 0.5}, "seed": 4}),
            ("blockcheck", {"command": "blockcheck", "n": 6,
                            "p": {"family": "random-eps", "eps": 0.5},
                            "ell": 2})]:
        path = os.path.join(work, name + ".json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        codes.append(main(["--config", path, "--out",
                           os.path.join(work, name)]))
    p = make_family(7, {"kind": "random-eps", "eps": 0.5}, 3)
    mu = enumerate_stationary(7, p)
    gap = spectral_gap(build_transition_matrix(p, mu), mu)
    print(json.dumps([codes, gap.hex()]))
""")


def test_exact_results_do_not_depend_on_the_blas_thread_count(tmp_path):
    seen = {}
    for threads in ("1", "2"):
        work = tmp_path / threads
        work.mkdir()
        env = {**os.environ, "PYTHONPATH": SRC,
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        out = subprocess.run([sys.executable, "-c", PROBE, str(work)],
                             capture_output=True, text=True, env=env,
                             timeout=120, check=True)
        codes, gap7 = json.loads(out.stdout.strip().splitlines()[-1])
        assert codes == [0, 0]
        seen[threads] = ((work / "exact" / "result.json").read_bytes(),
                         (work / "blockcheck" / "result.json").read_bytes(),
                         gap7)
    assert seen["1"] == seen["2"]
