"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/smoke.py

Every workload is built at ``workloads.TINY`` sizes (word length 3 and 6,
n <= 4, a 5-point grid) and every op's output must pass its oracle, so each
oracle is shown to agree with the package.  The one allowed disagreement is
the known elliptic-label defect on the triangle groups.  Corrupted outputs
must fail their oracle, and the benchmark must refuse to run without the
package sources.  The file is not named ``test_*.py`` so that the package's
own test run does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracles  # noqa: E402
import workloads  # noqa: E402
from selberg import cli  # noqa: E402

KNOWN_DEFECT = "elliptic records"


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.run(list(argv)) == 0, argv
    return out.getvalue()


def tiny_outputs(workload: str, seed: int, tmp_path: Path):
    ops, warm = workloads.build(workload, seed, tmp_path, run_cli, workloads.TINY)
    for argv in warm:
        run_cli(argv)
    return [(op, run_cli(op.argv)) for op in ops]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_oracles_agree_with_package(workload, seed, tmp_path):
    for op, out in tiny_outputs(workload, seed, tmp_path):
        reason = op.check(out)
        if workload == "spectrum-triangle" and reason and KNOWN_DEFECT in reason:
            continue
        assert reason is None, f"{op.name}: {reason}"


def test_inputs_follow_the_seed(tmp_path):
    for seed, sub in ((1, "a"), (1, "b"), (2, "c")):
        workloads.build("spectral-zeta", seed, tmp_path / sub, run_cli, workloads.TINY)
    text = {sub: (tmp_path / sub / "synthetic.csv").read_text() for sub in "abc"}
    assert text["a"] == text["b"] != text["c"]


def test_necklace_counts():
    assert [oracles.free_class_count(n) for n in (3, 4, 5, 6)] == [24, 50, 102, 234]


def _scale_first_row(text: str) -> str:
    """Scale every value after the first column of the first data row by 1 + 1e-6."""
    lines = text.splitlines()
    row = lines[1].split(",")
    lines[1] = ",".join(row[:1] + [repr(float(x) * (1 + 1e-6)) for x in row[1:]])
    return "\n".join(lines) + "\n"


def test_oracles_reject_corrupted_output(tmp_path):
    zeta = {op.name: (op, out) for op, out in tiny_outputs("spectral-zeta", 1, tmp_path / "z")}
    for op, out in zeta.values():
        assert op.check(_scale_first_row(out)), op.name
    ((op, out),) = tiny_outputs("spectrum-free", 1, tmp_path / "f")
    assert op.check("\n".join(out.splitlines()[:-1]) + "\n")  # a class missing
    weyl = {op.name: (op, out) for op, out in tiny_outputs("spectral-weyl", 1, tmp_path / "w")}
    op, out = weyl["lie-character-n3"]
    re_v, im_v = (float(x) for x in out.split(","))
    assert op.check(f"{re_v * (1 + 1e-6)!r},{im_v!r}")
    op, out = weyl["orbital-poly-n4"]
    assert op.check(",".join(out.strip().split(",")[:-1]))  # top coefficient dropped
    op, out = weyl["heat-weyl"]
    assert op.check(out.replace(out.splitlines()[1].split(",")[-1], "1"))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "spectral-weyl", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
