"""The benchmark's smoke test (``bench/smoke.py``) runs every workload's ops
through their oracles at tiny sizes.  Running it here makes a change to the
package that breaks a benchmark oracle fail the package's own tests.  It
runs in a subprocess that writes no bytecode and no pytest cache, so
``bench/`` is left as it was."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    before = sorted(os.listdir(ROOT / "bench"))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH="src")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench/smoke.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert sorted(os.listdir(ROOT / "bench")) == before
