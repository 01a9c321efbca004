"""Command-line interface.

Subcommands mirror the library layout: ``lie``, ``orbital``, ``spectrum``,
``zeta`` and ``heat``.
All output is plain CSV-ish text with full-precision (17 significant digit)
floats and no locale dependence; identical configuration and inputs give
bitwise-identical artifacts.

Only an argv that begins with a group and one of its subcommands can run a
command, as the top-level and group parsers take no option but ``-h``; that
subcommand's own parser parses the rest.  Any other argv, or one with tokens
left over, goes whole to the full tree, which prints help or argparse's
error.  Each parser is built once per process, the tree only when needed:
every argparse build leaves reference cycles behind, which only a full
garbage collection frees.
Likewise, an in-process caller of ``run`` whose ops read one spectrum file
parses it once (``LengthSpectrum.read_csv`` keeps the last spectrum read),
and builds the zeta layer's class factors of a weight once, kept on that
spectrum; a one-shot command gains nothing.  A ``--config`` file's values
are parsed like flags placed before the command line, so they pass the same
types and choices, may supply a required option, and explicit flags win.

Exit codes: 0 success, 2 validation error, 3 numerical-guard error.  A
radius, side, rmax, heat time, cutoff or volume that is not finite and
positive is a validation error, and so are a chi dimension or element cap
below 1, a group spec that is not an object with ``model`` and
``generators`` lists of matrices whose entries are finite JSON numbers or
[re, im] pairs of them, a ``--s`` point that is not finite, a flat model
past ``MAX_AXIS_MODES`` modes on an axis or a lattice radius of 2^52, a
weight coordinate with |2k| >= 2^53 and a rank past ``lie.MAX_RANK``.  So
are a missing or unwritable file, malformed JSON and a list or grid item
that is not a number; each prints one ``error:`` line.  A twist trace that
is not finite, a Plancherel coefficient past the float range and a phase
k*phi that may round past ``lie.PHASE_TOL`` are numerical guards.

``--validate`` runs every check of the op, the computation included, and
prints ``ok`` in place of the output lines, so its exit code and error line
are those of the run.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
from functools import lru_cache

import numpy as np

from . import heat as heat_mod
from . import zeta as zeta_mod
from .errors import NumericalGuardError, ValidationError
from .geometry import (
    DEFAULT_ELEMENT_CAP,
    KINDS,
    GroupSpec,
    LengthSpectrum,
    build_length_spectrum,
    classify,
    read_json,
)
from .lie import (
    EllipticAngles,
    WeightVector,
    half_sum_positive_roots,
    torus_character,
    weyl_character,
    weyl_group,
    weyl_group_order,
)
from .orbital import (
    orbital_polynomial,
    plancherel_polynomial,
    weyl_A_invariance_gap,
)

#: most points a zeta grid may hold
MAX_GRID_POINTS = 10**6


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def fmt_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return fmt(z.real)
    return f"({z.real:.17g}{z.imag:+.17g}j)"


def _number(text: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        raise ValidationError(f"cannot parse number {text.strip()!r}") from None


def _parse_values(text: str, kind=float) -> list:
    """Comma-separated numbers of type ``kind``; empty items are skipped."""
    return [_number(x, kind) for x in text.split(",") if x.strip()]


def _parse_grid(text: str) -> list[complex]:
    """``re0:re1:step,im0:im1:step`` inclusive grids; the imaginary triple
    may be omitted for a real grid.  Grids of more than MAX_GRID_POINTS
    points are refused before any point is built."""

    def axis(part: str) -> tuple[float, float, int]:
        bits = part.split(":")
        if len(bits) != 3:
            raise ValidationError(f"grid axis {part!r} is not start:stop:step")
        start, stop, step = map(_number, bits)
        if not (step > 0 and all(map(math.isfinite, (start, stop, step)))):
            raise ValidationError("grid bounds must be finite and the step positive")
        if stop < start:
            raise ValidationError(f"grid axis {part!r} has its stop below its start")
        # point i is start + i*step; the count is fixed once, so no drift.
        # The slack takes in the rounding of decimal bounds, 2^-40 of the span
        # (0:0.3:0.1 is 2.9999999999999996 steps) and an ulp of each bound,
        # but never half a step, so start == stop is one point.  The cap keeps
        # a huge or infinite span countable; it still fails below.
        span = (stop - start) / step
        slack = min(span * 2**-40 + (math.ulp(start) + math.ulp(stop)) / step, 0.5)
        span = min(span + slack, MAX_GRID_POINTS)
        return start, step, math.floor(span) + 1

    parts = text.split(",")
    if len(parts) > 2:
        raise ValidationError("grid must be one or two start:stop:step triples")
    axes = [axis(part) for part in parts]
    if math.prod(count for _, _, count in axes) > MAX_GRID_POINTS:
        raise ValidationError(f"grid has more than {MAX_GRID_POINTS} points")
    # a real grid has the single imaginary part 0
    (re0, re_step, re_count), (im0, im_step, im_count) = (axes + [(0.0, 0.0, 1)])[:2]
    return [
        complex(re0 + i * re_step, im0 + j * im_step)
        for j in range(im_count)
        for i in range(re_count)
    ]


def _load_context(args) -> zeta_mod.ZetaTermContext:
    spectrum = LengthSpectrum.read_csv(args.spectrum)
    if args.cutoff is not None:
        spectrum = spectrum.with_cutoff(args.cutoff)
    return zeta_mod.ZetaTermContext(
        sigma=WeightVector.parse(args.sigma),
        chi_dim=args.chi_dim,
        spectrum=spectrum,
        vol=args.vol,
        elliptic_vols=_parse_values(args.elliptic_vols) if args.elliptic_vols else None,
        allow_ambiguous=args.allow_ambiguous,
    )


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its output lines


def cmd_lie_delta_m(args) -> list[str]:
    return [str(half_sum_positive_roots(args.n))]


def cmd_lie_weyl(args) -> list[str]:
    if args.count:
        return [str(weyl_group_order(args.n))]
    perm, signs, det = weyl_group(args.n)
    return [
        ".".join(str(x) for x in p) + ";" + ".".join("+" if x == 1 else "-" for x in s) + f";{d}"
        for p, s, d in zip(perm.tolist(), signs.tolist(), det.tolist())
    ]


def cmd_lie_character(args) -> list[str]:
    weight = WeightVector.parse(args.weight)
    angles = EllipticAngles.parse(args.angles)
    value = (torus_character if args.xi else weyl_character)(weight, angles)
    return [f"{fmt(value.real)},{fmt(value.imag)}"]


def cmd_orbital_poly(args) -> list[str]:
    sigma = WeightVector.parse(args.sigma)
    angles = EllipticAngles.parse(args.angles)
    poly = orbital_polynomial(sigma, angles, args.n)
    return [",".join(fmt_complex(c) for c in poly.coeffs)]


def cmd_orbital_plancherel(args) -> list[str]:
    sigma = WeightVector.parse(args.sigma)
    poly = plancherel_polynomial(sigma, sigma.rank)
    return [",".join(fmt_complex(c) for c in poly.coeffs)]


def cmd_orbital_gap(args) -> list[str]:
    sigma = WeightVector.parse(args.sigma)
    angles = EllipticAngles.parse(args.angles)
    return [fmt(weyl_A_invariance_gap(sigma, angles, args.n))]


def cmd_spectrum_enumerate(args) -> list[str]:
    spec = GroupSpec.from_file(args.group)
    spectrum = build_length_spectrum(
        spec, args.max_word_len, args.cutoff, element_cap=args.element_cap
    )
    return spectrum.to_csv().splitlines()


def cmd_spectrum_classify(args) -> list[str]:
    spec = GroupSpec.from_file(args.group)
    word = tuple(_parse_values(args.word, int))
    kind, length, angle = classify(spec.word_matrix(word), spec.model)
    return ["kind,l,theta", f"{KINDS[kind[0]]},{fmt(length[0])},{fmt(angle[0])}"]


def _abs_exp(z: complex) -> float:
    try:
        return abs(cmath.exp(z))
    except OverflowError:
        return math.inf


def cmd_zeta_eval(args) -> list[str]:
    ctx = _load_context(args)
    grid = _parse_grid(args.s_grid)
    return ["re_s,im_s,re_logZ,im_logZ,abs_Z"] + [
        f"{fmt(s.real)},{fmt(s.imag)},{fmt(logz.real)},{fmt(logz.imag)},{fmt(_abs_exp(logz))}"
        for s, logz in zip(grid, zeta_mod.log_zeta_truncated(grid, ctx))
    ]


def cmd_zeta_xi(args) -> list[str]:
    ctx = _load_context(args)
    values = _parse_values(args.s)
    if not all(map(math.isfinite, values)):
        raise ValidationError("--s points must be finite")
    points = [complex(x, 0.0) for x in values]
    return ["re_s,im_s,re_xi,im_xi"] + [
        f"{fmt(s.real)},{fmt(s.imag)},{fmt(value.real)},{fmt(value.imag)}"
        for s, value in zip(points, zeta_mod.xi_correction(points, ctx))
    ]


def cmd_zeta_heat_terms(args) -> list[str]:
    ctx = _load_context(args)
    times = _parse_values(args.t)
    return ["t,re_I,im_I,re_E,im_E,re_H,im_H"] + [
        f"{fmt(t)},{fmt(terms.identity.real)},{fmt(terms.identity.imag)},"
        f"{fmt(terms.elliptic.real)},{fmt(terms.elliptic.imag)},"
        f"{fmt(terms.hyperbolic.real)},{fmt(terms.hyperbolic.imag)}"
        for t, terms in zip(times, zeta_mod.geometric_heat_terms(times, ctx))
    ]


def _model(args) -> heat_mod.FlatOrbifoldModel:
    """The flat model that ``--model``, ``--radius`` and ``--sides`` name."""
    if not args.sides:
        return heat_mod.make_model(args.model, radius=args.radius)
    sides = _parse_values(args.sides)
    if len(sides) != 2:
        raise ValidationError("--sides needs exactly two lengths")
    return heat_mod.make_model(args.model, radius=args.radius, sides=sides)


def cmd_heat_trace(args) -> list[str]:
    model, times = _model(args), _parse_values(args.t)
    traces = heat_mod.heat_trace(model, times)
    return ["t,trace"] + [f"{fmt(t)},{fmt(trace)}" for t, trace in zip(times, traces)]


def cmd_heat_fit(args) -> list[str]:
    model = _model(args)
    grid = _parse_values(args.t_grid) if args.t_grid else list(np.geomspace(0.001, 0.01, 12))
    fit = heat_mod.fit_expansion(model, grid)
    return [
        f"# expected_leading={fmt(fit.expected_leading)} residual={fmt(fit.residual)}",
        "exponent,coefficient",
    ] + [f"{fmt(e)},{fmt(c)}" for e, c in zip(fit.exponents, fit.coefficients)]


def cmd_heat_weyl(args) -> list[str]:
    report = heat_mod.weyl_counting_check(_model(args), args.rmax)
    return [
        "fitted,predicted,relative_error,eigenvalues",
        f"{fmt(report.fitted)},{fmt(report.predicted)},"
        f"{fmt(report.relative_error)},{report.eigenvalue_count}",
    ]


# ---------------------------------------------------------------------------
# parser


def _arg(flag: str, **kwargs) -> tuple[str, dict]:
    return flag, kwargs


_COMMON = (
    _arg("--out", help="write output to this file instead of stdout"),
    _arg("--validate", action="store_true", help="check inputs and exit"),
    _arg("--config", help="JSON file with default argument values"),
)
_N = _arg("--n", type=int, required=True)
_SIGMA = _arg("--sigma", required=True)
_ANGLES = _arg("--angles", required=True)
_ZETA = (
    _arg("--spectrum", required=True, help="length-spectrum CSV file"),
    _arg("--sigma", required=True, help="weight, e.g. '1' or '1,0'"),
    _arg("--vol", type=float, default=1.0, help="orbifold volume"),
    _arg("--chi-dim", type=int, default=1),
    _arg("--cutoff", type=float, default=None,
         help="drop hyperbolic classes above this length"),
    _arg("--elliptic-vols", default=None,
         help="comma-separated centralizer volumes per elliptic class"),
    _arg("--allow-ambiguous", action="store_true"),
)
_HEAT = (
    _arg("--model", required=True, choices=heat_mod.MODEL_NAMES),
    _arg("--radius", type=float, default=1.0),
    _arg("--sides", default=None, help="pillowcase side lengths, e.g. '6.2832,6.2832'"),
)

#: group -> (help, {subcommand: (help or None, handler, arguments before _COMMON)})
_COMMANDS = {
    "lie": ("root system, Weyl group and characters", {
        "delta-m": ("half-sum of positive roots", cmd_lie_delta_m, (_N,)),
        "weyl": ("enumerate the Weyl group", cmd_lie_weyl,
                 (_N, _arg("--count", action="store_true"))),
        "character": ("irreducible or torus character", cmd_lie_character, (
            _arg("--weight", required=True), _ANGLES,
            _arg("--xi", action="store_true", help="plain torus character"))),
    }),
    "orbital": ("orbital-integral polynomials", {
        "poly": ("elliptic orbital polynomial coefficients", cmd_orbital_poly,
                 (_N, _SIGMA, _ANGLES)),
        "plancherel": ("Plancherel polynomial", cmd_orbital_plancherel, (_SIGMA,)),
        "gap": ("flip-invariance gap of the polynomial", cmd_orbital_gap,
                (_N, _SIGMA, _ANGLES)),
    }),
    "spectrum": ("group enumeration and length spectra", {
        "enumerate": ("build a cutoff length spectrum", cmd_spectrum_enumerate, (
            _arg("--group", required=True, help="group spec JSON file"),
            _arg("--max-word-len", type=int, required=True),
            _arg("--cutoff", type=float, required=True),
            _arg("--element-cap", type=int, default=DEFAULT_ELEMENT_CAP))),
        "classify": ("classify one word", cmd_spectrum_classify, (
            _arg("--group", required=True),
            _arg("--word", required=True, help="comma-separated signed indices"))),
    }),
    "zeta": ("truncated zeta functions and heat terms", {
        "eval": ("log Z on a grid of s values", cmd_zeta_eval,
                 _ZETA + (_arg("--s-grid", required=True, help="re0:re1:step[,im0:im1:step]"),)),
        "xi": ("corrected symmetric zeta", cmd_zeta_xi,
               _ZETA + (_arg("--s", required=True, help="comma-separated real s values"),)),
        "heat-terms": ("identity/elliptic/hyperbolic terms", cmd_zeta_heat_terms,
                       _ZETA + (_arg("--t", required=True, help="comma-separated times"),)),
    }),
    "heat": ("flat orbifold models", {
        "trace": (None, cmd_heat_trace, _HEAT + (_arg("--t", required=True),)),
        "fit": (None, cmd_heat_fit, _HEAT + (_arg("--t-grid", default=None),)),
        "weyl": (None, cmd_heat_weyl, _HEAT + (_arg("--rmax", type=float, required=True),)),
    }),
}


@lru_cache(maxsize=None)
def _leaf_parser(group: str, leaf: str) -> argparse.ArgumentParser:
    """Subcommand ``leaf``'s own parser, of the argv past ``group leaf``."""
    parser = argparse.ArgumentParser(prog=f"selberg {group} {leaf}")
    for flag, kwargs in _COMMANDS[group][1][leaf][2] + _COMMON:
        parser.add_argument(flag, **kwargs)
    parser.set_defaults(func=_COMMANDS[group][1][leaf][1])
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The whole tree: every group, and under it every subcommand with the
    -h, arguments and handler of its own parser."""
    parser = argparse.ArgumentParser(
        prog="selberg",
        description="geometric side of the trace formula and truncated zeta "
        "functions on compact hyperbolic orbifolds",
    )
    groups = parser.add_subparsers(dest="command", required=True)
    for group, (text, leaves) in _COMMANDS.items():
        subs = groups.add_parser(group, help=text).add_subparsers(dest="subcommand", required=True)
        for leaf, (text, _, _) in leaves.items():
            subs.add_parser(leaf, parents=[_leaf_parser(group, leaf)], add_help=False,
                            **({} if text is None else {"help": text}))
    return parser


def _with_config(group: str, leaf: str, tokens: list[str]) -> list[str]:
    """The tokens past ``group leaf``, after the values of the ``--config``
    file they name, so explicit flags win: ``--key=value``, or ``--key`` for
    a flag set to true.  The file is found before any option is required, so
    that it can supply a required one."""
    options = dict(_COMMANDS[group][1][leaf][2] + _COMMON)
    # --config or a prefix that begins no other option, as argparse reads them
    flags = (a.partition("=")[0] for a in tokens)
    named = [f for f in flags if len(f) > 2 and "--config".startswith(f)]
    if not named or any(sum(o.startswith(f) for o in options) > 1 for f in named):
        return tokens
    finder = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    finder.add_argument("--config")
    try:
        path = finder.parse_known_args(tokens)[0].config
    except argparse.ArgumentError:  # the subcommand's parser reports it
        return tokens
    if not path:
        return tokens
    data = read_json(path)
    if not isinstance(data, dict):
        raise ValidationError("config file must hold a JSON object")
    config = []
    for key, value in data.items():
        kwargs = options.get(f"--{key}")
        if kwargs is None:
            raise ValidationError(f"unknown config key {key!r}")
        # a flag takes a boolean, a typed option a number, any other option
        # a number or a string
        flag = kwargs.get("action") == "store_true"
        kinds = bool if flag else (int, float) if "type" in kwargs else (int, float, str)
        if not isinstance(value, kinds) or (isinstance(value, bool) and not flag):
            raise ValidationError(f"config key {key!r} has a value of the wrong type")
        config += [f"--{key}"] * value if flag else [f"--{key}={value}"]
    return config + tokens


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    head, tokens = argv[:2], argv[2:]
    direct = len(head) == 2 and head[1] in _COMMANDS.get(head[0], ("", {}))[1]
    try:
        if direct:
            tokens = _with_config(*head, tokens)
            args, extra = _leaf_parser(*head).parse_known_args(tokens)
        if not direct or extra:  # the tree prints help or the error, as argparse does
            args = _parser().parse_args(head + tokens)
        lines = args.func(args)
        payload = "".join(f"{line}\n" for line in (["ok"] if args.validate else lines))
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
        return 0
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalGuardError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
