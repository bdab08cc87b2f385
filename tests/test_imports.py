"""scipy and the process pool load only where a command needs them.

The kernel, gap and exact-block-kernel functions import scipy on first use,
and ``jobs > 1`` imports the process pool, so the commands that never build
a sparse kernel start without either.  Each check runs in a fresh
interpreter, whose ``sys.modules`` nothing else in the test session touched.
"""

import hashlib
import json
import os
import subprocess
import sys
import textwrap

import atshuffle

SRC = os.path.dirname(os.path.dirname(os.path.abspath(atshuffle.__file__)))

# result.json of CLI exact at n = 4, the same bytes as when scipy loaded at
# import
EXACT_N4_DIGEST = \
    "2a504908d55ea9df7fab59ab31767d35fbd4b26cad91b4b86bdbc08f3b02913b"

PROBE = textwrap.dedent("""
    import json, os, sys

    def heavy():
        return sorted(m for m in sys.modules
                      if m == "scipy" or m.startswith("scipy.")
                      or m == "concurrent.futures.process")

    import atshuffle, atshuffle.cli
    seen = {"import": heavy()}
    configs = {
        "burnin": {"command": "burnin", "n": 16,
                   "p": {"family": "constant-q", "q": 0.75}, "T": 500,
                   "replicas": 10, "seed": 5},
        "sample": {"command": "sample", "n": 40,
                   "p": {"family": "random-eps", "eps": 0.5}, "ell": 3,
                   "samples": 20, "seed": 1},
        "lowerbound": {"command": "lowerbound", "n": 32,
                       "p": {"family": "constant-q", "q": 0.75},
                       "replicas": 10, "seed": 6},
        "exact": {"command": "exact", "n": 4,
                  "p": {"family": "random-eps", "eps": 0.5}, "seed": 4},
    }
    work = sys.argv[1]
    for name, config in configs.items():
        path = os.path.join(work, name + ".json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        code = atshuffle.cli.main(["--config", path,
                                   "--out", os.path.join(work, name)])
        seen[name] = [code, heavy()]
    print(json.dumps(seen))
""")


def test_scipy_loads_only_for_a_kernel(tmp_path):
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=60,
                         check=True)
    seen = json.loads(out.stdout.strip().splitlines()[-1])
    assert seen["import"] == []
    assert seen["burnin"] == [0, []]
    assert seen["sample"] == [0, []]
    # label 1's exact stationary side is a closed form, not a kernel
    assert seen["lowerbound"] == [0, []]
    code, loaded = seen["exact"]
    assert code == 0 and "scipy.sparse" in loaded
    assert "concurrent.futures.process" not in loaded
    sample = json.loads((tmp_path / "sample" / "result.json").read_text())
    assert sample["verdict"]["details"]["strategy"] == "band-dp"
    exact = (tmp_path / "exact" / "result.json").read_bytes()
    assert hashlib.sha256(exact).hexdigest() == EXACT_N4_DIGEST
