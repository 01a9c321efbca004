"""In-memory spans and counters around the package's public functions.

The wrappers are installed from outside: ``src/`` knows nothing of them.  A
function is replaced in its own module and wherever another module imported
it by name (``selberg.zeta.weyl_character``, ``selberg.cli.build_length_spectrum``
and so on), and every original is put back by ``uninstall``.

Three kinds of wrapper keep the cost of tracing small next to the work:

span   records (name, start, end, parent span) plus call count, total and
       self time; used at layer boundaries, which run at most a few
       hundred times per round;
timed  call count, total and self time without a span record, for
       functions called up to about a million times per round;
count  call count only, for hot leaves whose timing would cost about as
       much as their work.

Self time is a call's duration minus the time of the timed calls nested in
it, so the time of a count-only leaf stays in its caller's self time.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("lie", "orbital", "geometry", "zeta", "heat", "cli")
RANKS = (3, 4, 5, 6)

# (module, attribute, metric name, kind); ``Class.method`` patches a classmethod
TARGETS = (
    ("cli", "run", "cli.run", "span"),
    ("geometry", "build_length_spectrum", "geometry.build_length_spectrum", "span"),
    ("geometry", "enumerate_elements", "geometry.enumerate_elements", "span"),
    ("geometry", "conjugacy_reduce", "geometry.conjugacy_reduce", "span"),
    ("geometry", "LengthSpectrum.read_csv", "geometry.read_csv", "span"),
    ("geometry", "classify", "geometry.classify", "timed"),
    ("geometry", "projective_key", "geometry.projective_key", "timed"),
    ("geometry", "projectively_close", "geometry.projectively_close", "count"),
    ("zeta", "log_zeta_truncated", "zeta.log_zeta_truncated", "span"),
    ("zeta", "convergence_abscissa_estimate", "zeta.abscissa_fit", "span"),
    ("zeta", "xi_correction", "zeta.xi_correction", "span"),
    ("zeta", "geometric_heat_terms", "zeta.geometric_heat_terms", "span"),
    ("lie", "weyl_character", "lie.weyl_character", "timed"),
    ("lie", "weyl_group", "lie.weyl_group", "timed"),
    ("lie", "torus_character", "lie.torus_character", "count"),
    ("orbital", "orbital_polynomial", "orbital.orbital_polynomial", "span"),
    ("heat", "heat_trace", "heat.heat_trace", "span"),
    ("heat", "exact_spectrum", "heat.exact_spectrum", "span"),
    ("heat", "fit_expansion", "heat.fit_expansion", "span"),
    ("heat", "weyl_counting_check", "heat.weyl_counting_check", "span"),
)

#: per-call durations are kept by rank for these, for the p50_s metrics
PER_RANK = ("lie.weyl_character", "orbital.orbital_polynomial")
#: these read counts off their arguments and result, see ``_after``
AFTER = ("geometry.enumerate_elements", "geometry.build_length_spectrum",
         "zeta.log_zeta_truncated", "zeta.geometric_heat_terms", "orbital.orbital_polynomial")


def _after(tracer: "Tracer", name: str, args, result) -> None:
    c = tracer.counts
    if name == "geometry.enumerate_elements":
        c["geometry.ball_elements"] += len(result)
    elif name == "geometry.build_length_spectrum":
        c["geometry.classes"] += len(result.records)
        c["geometry.ambiguous_classes"] += sum(1 for r in result.records if r.ambiguous)
        c["geometry.elliptic_classes"] += sum(1 for r in result.records if r.kind == "elliptic")
    elif name in ("zeta.log_zeta_truncated", "zeta.geometric_heat_terms"):
        c["zeta.class_terms"] += sum(1 for r in args[1].spectrum.records if r.kind == "hyperbolic")
    else:
        c["orbital.even_residual.max"] = max(c["orbital.even_residual.max"], result.even_residual)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent span index or -1)
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.per_rank = defaultdict(list)  # (name, n) -> per-call seconds
        self.counts = Counter()
        # open calls of the functions whose callees are counted separately
        self._depth = {"geometry.conjugacy_reduce": 0, "geometry.enumerate_elements": 0}
        self._stack: list[list] = []  # per open timed call: [time of nested timed calls]
        self._open_spans: list[int] = []
        self._restore: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name: str, fn, record_span: bool):
        clock = time.perf_counter
        stack, spans, open_spans, depth = self._stack, self.spans, self._open_spans, self._depth
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        tracked = name in depth
        trials = name == "geometry.projective_key"
        samples = self.per_rank if name in PER_RANK else None
        after = _after if name in AFTER else None

        def wrapper(*args, **kwargs):
            if trials and depth["geometry.conjugacy_reduce"]:
                self.counts["geometry.conjugator_trials"] += 1
            if record_span:
                index = len(spans)
                parent = open_spans[-1] if open_spans else -1
                spans.append(None)
                open_spans.append(index)
            if tracked:
                depth[name] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if tracked:
                    depth[name] -= 1
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if record_span:
                    open_spans.pop()
                    spans[index] = (name, start, end, parent)
                if samples is not None and args[0].rank in RANKS:
                    samples[(name, args[0].rank)].append(duration)
            if after:
                after(self, name, args, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        depth, counts = self._depth, self.counts
        collisions = name == "geometry.projectively_close"

        def wrapper(*args, **kwargs):
            stats[0] += 1
            if collisions and depth["geometry.enumerate_elements"]:
                counts["geometry.enumerate.collision_checks"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "selberg" or k.startswith("selberg.")]
        for module, attr, name, kind in TARGETS:
            owner = sys.modules[f"selberg.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                wrapped = self._timed(name, original.__func__, kind == "span")
                setattr(cls, meth, classmethod(wrapped))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            if kind == "count":
                wrapped = self._count(name, original)
            else:
                wrapped = self._timed(name, original, kind == "span")
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        self._restore.append((m, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def metrics(self, rounds: int, traced_wall: float) -> dict:
        """Per-round values of every counter and timer, plus the share of the
        traced rounds' total wall time ``traced_wall`` that each layer's self
        time covers."""
        out = {}
        for _, _, name, kind in TARGETS:
            calls, total, own = self.stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls / rounds
            if kind != "count":
                out[f"{name}.s"] = total / rounds
                out[f"{name}.self_s"] = own / rounds
        for name in PER_RANK:
            for n in RANKS:
                samples = self.per_rank.get((name, n))
                out[f"{name}.n{n}.p50_s"] = statistics.median(samples) if samples else 0.0
        for key in ("geometry.ball_elements", "geometry.classes", "geometry.ambiguous_classes",
                    "geometry.elliptic_classes", "geometry.conjugator_trials",
                    "geometry.enumerate.collision_checks", "zeta.class_terms"):
            out[key] = self.counts[key] / rounds
        trials = out["geometry.conjugator_trials"]
        out["geometry.classes_per_trial"] = out["geometry.classes"] / trials if trials else 0.0
        out["orbital.even_residual.max"] = self.counts["orbital.even_residual.max"]
        for layer in LAYERS:
            own = sum(
                self.stats.get(name, (0, 0.0, 0.0))[2]
                for _, _, name, kind in TARGETS
                if kind != "count" and name.startswith(layer + ".")
            )
            out[f"trace.coverage.{layer}"] = own / traced_wall
        # the part of the round spent below the CLI's own parsing and formatting
        out["trace.coverage"] = sum(out[f"trace.coverage.{layer}"] for layer in LAYERS[:-1])
        return out
