"""Run the benchmark's workloads and print every metric by name and unit.

    python3 bench/report.py                      # every workload, seed 1, plus a traced run
    python3 bench/report.py --workloads spectral-zeta,spectral-weyl --seeds 1-10 \\
        --no-trace --out bench/baseline.json     # spread over seeds, recorded as a baseline

For each workload it runs ``run.py --trace 0`` once per seed and prints the
median and the quartile spread (Q3 - Q1) / median of each end-to-end metric,
the op counts and each failed op with its reason.  Unless ``--no-trace`` is
given, it then runs ``run.py --trace 1`` on the first seed and prints the
per-layer metrics with ``trace.overhead_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH, ROOT, WORKLOADS

#: which end-to-end metric each per-layer group should move, and on which workload
LAYER_MAP = {
    "geometry conjugator search (conjugacy_reduce.self_s, projective_key.*, conjugator_trials, "
    "classes_per_trial)": "wall_s, cpu_s on spectrum-free (most), spectrum-triangle (less)",
    "geometry enumeration and classification (enumerate_elements.s, ball_elements, "
    "enumerate.collision_checks, classify.*, build_length_spectrum.s)":
        "wall_s on spectrum-triangle; peak_rss_mb on both spectrum workloads",
    "geometry counts (classes, ambiguous_classes, elliptic_classes) and read_csv.s":
        "counts only; read_csv.s moves wall_s on spectral-zeta",
    "zeta (log_zeta_truncated.*, abscissa_fit.*, xi_correction.s, geometric_heat_terms.s, "
    "class_terms)": "wall_s on spectral-zeta; none on the spectrum workloads",
    "lie (weyl_character.*, torus_character.calls)":
        "wall_s on spectral-zeta (rank 1) and spectral-weyl (n = 3..6)",
    "lie.weyl_group.s": "setup_s on spectral-weyl",
    "orbital (orbital_polynomial.*, even_residual.max)": "wall_s on spectral-weyl",
    "heat (heat_trace.*, exact_spectrum.s, fit_expansion.s)": "wall_s on spectral-weyl",
    "cli (run.calls, run.self_s)": "wall_s on every workload, most on spectral-zeta",
    "trace (overhead_s, coverage.*)": "none; the cost and reach of the traced run",
}


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-800:]}")
    return json.loads(lines[-1]), [ln for ln in lines[:-1] if ln.startswith("# failed")]


def spread(values: list[float]) -> tuple[float, float]:
    """Median and (Q3 - Q1) / median, quartiles as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", help="write the runs and their spreads to this JSON file")
    args = parser.parse_args()
    seeds = seed_list(args.seeds)

    seconds = spec["run_seconds"]
    record = {"seeds": seeds, "run_seconds": seconds, "machine": machine(),
              "layer_map": LAYER_MAP, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        print(f"== {workload}  (seeds {args.seeds}, {seconds} s per run)")
        for seed in seeds:
            result, failures = run_once(workload, seed, seconds, 0)
            runs.append(result)
            print(f"   seed {seed}: attempted {result['attempted']}, ops_failed {result['failed']}, "
                  + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()))
            for line in failures:
                print(f"      {line[2:]}")
        summary = {}
        for name, entry in runs[0]["metrics"].items():
            med, rel = spread([r["metrics"][name]["value"] for r in runs])
            summary[name] = {"median": med, "spread": rel, "unit": entry["unit"]}
            print(f"   {name:<12} median {med:12.6g} {entry['unit']:<5} spread {rel:7.2%}"
                  f"  (bound {bounds[name]:.0%})")
        total = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"   ops_failed   {failed} of {total} attempted")
        record["workloads"][workload] = {"summary": summary, "ops_failed": failed,
                                         "attempted": total, "runs": runs}
        if not args.no_trace:
            traced, _ = run_once(workload, seeds[0], seconds, 1)
            print(f"   per-layer metrics, traced run on seed {seeds[0]}:")
            for name, entry in traced["metrics"].items():
                print(f"     {name:<40} {entry['value']:14.6g} {entry['unit']}")
            record["workloads"][workload]["traced"] = traced
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


def machine() -> dict:
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             cwd=ROOT, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha, "platform": platform.platform()}


if __name__ == "__main__":
    sys.exit(main())
