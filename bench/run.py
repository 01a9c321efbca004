"""Benchmark of the selberg package: seeded workloads, oracle checks, and a
separate traced run for per-layer metrics.

    python3 bench/run.py --workload spectral-zeta --seed 1 --trace 0

Each op is one in-process ``selberg.cli.run(argv)`` call, run one after
another on a single thread (closed loop, one client) with BLAS pinned to one
thread.  A round is the workload's fixed op list; rounds repeat until the
next one would end after ``--seconds`` (at least ``MIN_ROUNDS``), and timings
are medians over rounds, scaled to a reference core speed (``Speedometer``).
Every op's output must hash to the same SHA-256 on every repeat in this run
and in earlier runs of the same code with the same seed.  After the
measurement, each op's first output is checked against an oracle in
``oracles.py``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics, with
``trace.overhead_s`` = median traced round - median untraced round.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Lines before it name each failed op with its reason.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "SELBERG_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("spectrum-free", "spectrum-triangle", "spectral-zeta", "spectral-weyl")
MIN_ROUNDS = 3
SETUP_REPEATS = 9
#: seconds between two samples of the machine's speed
SAMPLE_PERIOD = 0.01
#: typical time of one ``_reference_loop`` on the machine the baseline was
#: recorded on (2-vCPU Intel Xeon VM at 2.0 GHz); it ran from about 140 to
#: 250 us there as the neighbours' load changed
REF_S = 180e-6


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def run_cli(argv) -> tuple[int, str, str]:
    import selberg.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = selberg.cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def reference_cli(argv) -> str:
    """CLI output for an oracle's reference input; a failure is the op's."""
    code, out, err = run_cli(argv)
    if code != 0:
        raise RuntimeError(f"reference run exited {code}: {err.strip()}")
    return out


def setup(workload: str, seed: int, tracer=None):
    """Import the package, write the inputs and warm up; returns the ops.
    A ``tracer`` given here is installed for the warm-up, which builds the
    cached W(D_n)."""
    import selberg.cli  # noqa: F401  (the import is part of set-up)
    import workloads

    work = ROOT / ".bench_work" / f"{workload}-{seed}"
    ops, warm = workloads.build(workload, seed, work, reference_cli)
    if tracer:
        tracer.install()
    try:
        for argv in warm:
            code, _, err = run_cli(argv)
            if code != 0:
                raise RuntimeError(f"warm-up {argv[:2]} exited {code}: {err.strip()}")
    finally:
        if tracer:
            tracer.uninstall()
    return ops


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters, so imports count each time."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def source_digest() -> str:
    """Digest of the package and benchmark code, which with the seed fix every output."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "selberg").glob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x, self.y = x, y

    def norm(self) -> float:
        return abs(complex(self.x, self.y))


def _reference_loop() -> float:
    """Fixed pure-Python work that touches strings, dicts, objects, sorting,
    complex and rational arithmetic.  Contention slows the package's mixed
    Python code roughly as much as it slows this loop; a tight numeric loop
    slowed less and tracked it worse."""
    counts: dict[str, int] = {}
    acc, frac = 0.0, Fraction(1, 3)
    for i in range(20):
        key = f"k{i % 13}:{i:03d}"
        counts[key[:3]] = counts.get(key[:3], 0) + len(key)
        acc += _Point(i * 0.5, -i).norm() + max(sorted((i * 7919 + j) % 101 for j in range(6)))
        frac += Fraction(i, 7)
    return acc + float(frac) + len(counts)


class Speedometer:
    """Samples the speed of the core the benchmark runs on.

    On a shared machine, neighbours can slow a core by up to 2x for seconds
    at a time.  Every ``SAMPLE_PERIOD`` seconds of wall time a SIGALRM
    handler times ``_reference_loop``.  ``REF_S`` over the mean loop time of
    a span is the speed factor by which the span's time is scaled to the
    reference speed, and the handler's own time is taken out.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _reference_loop()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def overhead(self, since: int) -> float:
        """Time the handler took since ``mark()`` returned ``since``."""
        return sum(self.samples[since:])

    def factor(self, since: int) -> float:
        """Reference speed over the mean speed since ``mark()`` returned ``since``."""
        window = self.samples[since:]
        return REF_S * len(window) / sum(window) if window else 1.0


class Runner:
    """Runs ops and hashes every output; the oracles run later, in ``check``,
    so that their memory and time stay out of the measurement."""

    def __init__(self, ops, digest_file: Path, speed: Speedometer):
        self.ops = ops
        self.speed = speed
        self.digest_file = digest_file
        self.code = source_digest()
        stored = json.loads(digest_file.read_text()) if digest_file.exists() else {}
        self.earlier = stored.get("digests", {}) if stored.get("source") == self.code else {}
        self.digests: dict[str, str] = {}
        self.first: dict[str, str] = {}  # op name -> its first output, for the oracle
        self.matching = Counter()  # op name -> runs whose output hashed like the first
        self.failures: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def round(self) -> tuple[float, float, float]:
        """One pass over the op list; returns its wall seconds as measured and
        its wall and CPU seconds scaled to the reference speed."""
        wall = cpu = sampling = 0.0
        first = self.speed.mark()
        for op in self.ops:
            mark = self.speed.mark()
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                code, out, err = run_cli(op.argv)
            except Exception as exc:  # a crash is a failed op, not a failed benchmark
                code, out, err = -1, "", f"{type(exc).__name__}: {exc}"
            wall += time.perf_counter() - w0
            cpu += time.process_time() - c0
            sampling += self.speed.overhead(mark)
            self.attempted += 1
            self._record(op, code, out, err)
        factor = self.speed.factor(first)
        return wall, (wall - sampling) * factor, (cpu - sampling) * factor

    def _fail(self, name: str, reason: str, count: int = 1) -> None:
        self.failed += count
        self.failures.setdefault(name, reason)

    def _record(self, op, code: int, out: str, err: str) -> None:
        if code != 0:
            return self._fail(op.name, f"exit code {code}: {err.strip()[-300:]}")
        digest = hashlib.sha256(out.encode()).hexdigest()
        if self.digests.setdefault(op.name, digest) != digest:
            return self._fail(op.name, "output differs between repeats in this run")
        self.first.setdefault(op.name, out)
        self.matching[op.name] += 1

    def check(self) -> None:
        """Check each op's first output against its oracle and the digest of
        earlier runs; a wrong output fails every run that repeated it."""
        for op in self.ops:
            if op.name not in self.first:
                continue
            try:
                reason = op.check(self.first[op.name])
            except Exception as exc:  # unparsable output fails the op
                reason = f"oracle could not read the output: {type(exc).__name__}: {exc}"
            if not reason and self.earlier.get(op.name, self.digests[op.name]) != self.digests[op.name]:
                reason = "output differs from an earlier run of the same code and seed"
            if reason:
                self._fail(op.name, reason, self.matching[op.name])

    def save_digests(self) -> None:
        if not self.earlier and self.digests:
            tmp = self.digest_file.with_suffix(".tmp")
            tmp.write_text(json.dumps({"source": self.code, "digests": self.digests}, indent=1))
            os.replace(tmp, self.digest_file)


def measure(runner: Runner, seconds: float) -> dict:
    start = time.perf_counter()
    rounds = []
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start + rounds[-1][0] <= seconds:
        rounds.append(runner.round())
    return {
        "wall_s": statistics.median(w for _, w, _ in rounds),
        "cpu_s": statistics.median(c for _, _, c in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_traced(runner: Runner, seconds: float, spans_file: Path) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    start = time.perf_counter()
    plain, traced = [], []
    while not traced or time.perf_counter() - start + plain[-1][0] + traced[-1][0] <= seconds:
        plain.append(runner.round())
        tracer.install()
        try:
            traced.append(runner.round())
        finally:
            tracer.uninstall()
    out = tracer.metrics(len(traced), sum(raw for raw, _, _ in traced))
    out["trace.overhead_s"] = (statistics.median(w for _, w, _ in traced)
                               - statistics.median(w for _, w, _ in plain))
    spans_file.write_text(json.dumps(tracer.spans))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up in this process and print it")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "selberg" / "__init__.py").is_file():
        return _fail(f"no selberg sources at {ROOT / 'src' / 'selberg'}")
    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        return _fail(f"missing {spec_file}")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

    if args.setup_probe:
        with Speedometer() as speed:
            t0 = time.perf_counter()
            setup(args.workload, args.seed)
            elapsed = time.perf_counter() - t0
        print((elapsed - speed.overhead(0)) * speed.factor(0))
        return 0

    spec = json.loads(spec_file.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    setup_s = setup_seconds(args.workload, args.seed) if not args.trace else None
    setup_tracer = None
    if args.trace:
        from tracer import Tracer

        setup_tracer = Tracer()
    ops = setup(args.workload, args.seed, setup_tracer)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    with Speedometer() as speed:
        runner = Runner(ops, work / "digests.json", speed)
        if args.trace:
            values = measure_traced(runner, seconds, work / "spans.json")
            # rounds only hit the cache; the W(D_n) builds happen in the warm-up
            values["lie.weyl_group.s"] = setup_tracer.stats["lie.weyl_group"][1]
        else:
            values = measure(runner, seconds)
            values["setup_s"] = setup_s
    runner.check()
    runner.save_digests()

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return _fail(f"benchmark produced no value for {missing}")
    for name, reason in sorted(runner.failures.items()):
        print(f"# failed op {name}: {reason}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
