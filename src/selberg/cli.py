"""Command-line interface.

Subcommands mirror the library layout: ``lie``, ``orbital``, ``spectrum``,
``zeta`` and ``heat``.
All output is plain CSV-ish text with full-precision (17 significant digit)
floats and no locale dependence; identical configuration and inputs give
bitwise-identical artifacts.

Exit codes: 0 success, 2 validation error, 3 numerical-guard error.  A
radius, side, rmax, heat time, cutoff or volume that is not finite and
positive is a validation error, and so is a chi dimension or element cap
below 1.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

from . import heat as heat_mod
from . import zeta as zeta_mod
from .errors import NumericalGuardError, ValidationError
from .geometry import (
    GroupSpec,
    LengthSpectrum,
    build_length_spectrum,
    classify,
)
from .lie import (
    EllipticAngles,
    WeightVector,
    half_sum_positive_roots,
    torus_character,
    weyl_character,
    weyl_group,
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


class _Output:
    def __init__(self, path: str | None):
        self.path = path
        self.lines: list[str] = []

    def line(self, text: str) -> None:
        self.lines.append(text)

    def finish(self) -> None:
        payload = "\n".join(self.lines) + ("\n" if self.lines else "")
        if self.path:
            with open(self.path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)


def _parse_values(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _parse_grid(text: str) -> list[complex]:
    """``re0:re1:step,im0:im1:step`` inclusive grids; the imaginary triple
    may be omitted for a real grid.  Grids of more than MAX_GRID_POINTS
    points are refused before any point is built."""

    def axis(part: str) -> tuple[float, float, int]:
        bits = part.split(":")
        if len(bits) != 3:
            raise ValidationError(f"grid axis {part!r} is not start:stop:step")
        start, stop, step = (float(b) for b in bits)
        if not (step > 0 and all(map(math.isfinite, (start, stop, step)))):
            raise ValidationError("grid bounds must be finite and the step positive")
        # point i is start + i*step; the count is fixed once, so no drift.
        # The cap keeps a huge or infinite span countable; it still fails below.
        span = min((stop + 1e-12 * max(1.0, abs(stop)) - start) / step, MAX_GRID_POINTS)
        return start, step, max(math.floor(span) + 1, 0)

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
        if not 0 < args.cutoff < math.inf:
            raise ValidationError("cutoff must be finite and positive")
        spectrum.records = [
            r
            for r in spectrum.records
            if r.kind != "hyperbolic" or r.length <= args.cutoff
        ]
        spectrum.cutoff = min(spectrum.cutoff, args.cutoff)
    sigma = WeightVector.parse(args.sigma)
    elliptic = spectrum.elliptic()
    vols = None
    if args.elliptic_vols:
        vols = _parse_values(args.elliptic_vols)
    return zeta_mod.ZetaTermContext(
        n=sigma.rank,
        sigma=sigma,
        chi_dim=args.chi_dim,
        spectrum=spectrum,
        elliptic=elliptic,
        vol=args.vol,
        elliptic_vols=vols,
        allow_ambiguous=args.allow_ambiguous,
    )


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_lie_delta_m(args, out: _Output) -> None:
    if args.validate:
        out.line("ok")
        return
    out.line(str(half_sum_positive_roots(args.n)))


def cmd_lie_weyl(args, out: _Output) -> None:
    perm, signs, det = weyl_group(args.n)
    if args.validate:
        out.line("ok")
        return
    if args.count:
        out.line(str(len(det)))
        return
    for p, s, d in zip(perm.tolist(), signs.tolist(), det.tolist()):
        perm_text = ".".join(str(x) for x in p)
        signs_text = ".".join("+" if x == 1 else "-" for x in s)
        out.line(f"{perm_text};{signs_text};{d}")


def cmd_lie_character(args, out: _Output) -> None:
    weight = WeightVector.parse(args.weight)
    angles = EllipticAngles.parse(args.angles)
    if args.validate:
        out.line("ok")
        return
    if args.xi:
        value = torus_character(weight, angles)
    else:
        value = weyl_character(weight, angles)
    out.line(f"{fmt(value.real)},{fmt(value.imag)}")


def cmd_orbital_poly(args, out: _Output) -> None:
    sigma = WeightVector.parse(args.sigma)
    angles = EllipticAngles.parse(args.angles)
    if args.validate:
        out.line("ok")
        return
    poly = orbital_polynomial(sigma, angles, args.n)
    out.line(",".join(fmt_complex(c) for c in poly.coeffs))


def cmd_orbital_plancherel(args, out: _Output) -> None:
    sigma = WeightVector.parse(args.sigma)
    if args.validate:
        out.line("ok")
        return
    poly = plancherel_polynomial(sigma, sigma.rank)
    out.line(",".join(fmt_complex(c) for c in poly.coeffs))


def cmd_orbital_gap(args, out: _Output) -> None:
    sigma = WeightVector.parse(args.sigma)
    angles = EllipticAngles.parse(args.angles)
    if args.validate:
        out.line("ok")
        return
    out.line(fmt(weyl_A_invariance_gap(sigma, angles, args.n)))


def cmd_spectrum_enumerate(args, out: _Output) -> None:
    spec = GroupSpec.from_file(args.group)
    if args.max_word_len < 0:
        raise ValidationError("max word length must be nonnegative")
    if args.validate:
        out.line("ok")
        return
    spectrum = build_length_spectrum(
        spec, args.max_word_len, args.cutoff, element_cap=args.element_cap
    )
    for line in spectrum.to_csv().splitlines():
        out.line(line)


def cmd_spectrum_classify(args, out: _Output) -> None:
    spec = GroupSpec.from_file(args.group)
    word = tuple(int(x) for x in args.word.split(",") if x.strip())
    if args.validate:
        out.line("ok")
        return
    c = classify(spec.word_matrix(word), spec.model)
    out.line("kind,l,theta")
    out.line(f"{c.kind},{fmt(c.length)},{fmt(c.angle)}")


def cmd_zeta_eval(args, out: _Output) -> None:
    ctx = _load_context(args)
    grid = _parse_grid(args.s_grid)
    if args.validate:
        out.line("ok")
        return
    out.line("re_s,im_s,re_logZ,im_logZ,abs_Z")
    for s, logz in zip(grid, zeta_mod.log_zeta_truncated(grid, ctx)):
        try:
            abs_z = abs(cmath.exp(logz))
        except OverflowError:
            abs_z = math.inf
        out.line(
            f"{fmt(s.real)},{fmt(s.imag)},{fmt(logz.real)},{fmt(logz.imag)},{fmt(abs_z)}"
        )


def cmd_zeta_xi(args, out: _Output) -> None:
    ctx = _load_context(args)
    points = [complex(x, 0.0) for x in _parse_values(args.s)]
    if args.validate:
        out.line("ok")
        return
    out.line("re_s,im_s,re_xi,im_xi")
    for s, value in zip(points, zeta_mod.xi_correction(points, ctx)):
        out.line(f"{fmt(s.real)},{fmt(s.imag)},{fmt(value.real)},{fmt(value.imag)}")


def cmd_zeta_heat_terms(args, out: _Output) -> None:
    ctx = _load_context(args)
    times = _parse_values(args.t)
    if not all(0 < t < math.inf for t in times):
        raise ValidationError("heat times must be finite and positive")
    if args.validate:
        out.line("ok")
        return
    out.line("t,re_I,im_I,re_E,im_E,re_H,im_H")
    for t, terms in zip(times, zeta_mod.geometric_heat_terms(times, ctx)):
        out.line(
            f"{fmt(t)},{fmt(terms.identity.real)},{fmt(terms.identity.imag)},"
            f"{fmt(terms.elliptic.real)},{fmt(terms.elliptic.imag)},"
            f"{fmt(terms.hyperbolic.real)},{fmt(terms.hyperbolic.imag)}"
        )


def cmd_heat_trace(args, out: _Output) -> None:
    model = heat_mod.make_model(args.model, radius=args.radius, sides=args.sides_pair)
    times = _parse_values(args.t)
    if not all(0 < t < math.inf for t in times):
        raise ValidationError("heat times must be finite and positive")
    if args.validate:
        out.line("ok")
        return
    out.line("t,trace")
    for t in times:
        out.line(f"{fmt(t)},{fmt(heat_mod.heat_trace(model, t))}")


def cmd_heat_fit(args, out: _Output) -> None:
    model = heat_mod.make_model(args.model, radius=args.radius, sides=args.sides_pair)
    if args.t_grid:
        grid = _parse_values(args.t_grid)
    else:
        import numpy as np

        grid = list(np.geomspace(0.001, 0.01, 12))
    if args.validate:
        out.line("ok")
        return
    fit = heat_mod.fit_expansion(model, grid)
    out.line(f"# expected_leading={fmt(fit.expected_leading)} residual={fmt(fit.residual)}")
    out.line("exponent,coefficient")
    for e, c in zip(fit.exponents, fit.coefficients):
        out.line(f"{fmt(e)},{fmt(c)}")


def cmd_heat_weyl(args, out: _Output) -> None:
    model = heat_mod.make_model(args.model, radius=args.radius, sides=args.sides_pair)
    if not 0 < args.rmax < math.inf:
        raise ValidationError("rmax must be finite and positive")
    if args.validate:
        out.line("ok")
        return
    report = heat_mod.weyl_counting_check(model, args.rmax)
    out.line("fitted,predicted,relative_error,eigenvalues")
    out.line(
        f"{fmt(report.fitted)},{fmt(report.predicted)},"
        f"{fmt(report.relative_error)},{report.eigenvalue_count}"
    )


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.add_argument("--validate", action="store_true", help="check inputs and exit")
    p.add_argument("--config", help="JSON file with default argument values")


def _zeta_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spectrum", required=True, help="length-spectrum CSV file")
    p.add_argument("--sigma", required=True, help="weight, e.g. '1' or '1,0'")
    p.add_argument("--vol", type=float, default=1.0, help="orbifold volume")
    p.add_argument("--chi-dim", type=int, default=1, dest="chi_dim")
    p.add_argument("--cutoff", type=float, default=None,
                   help="drop hyperbolic classes above this length")
    p.add_argument("--elliptic-vols", dest="elliptic_vols", default=None,
                   help="comma-separated centralizer volumes per elliptic class")
    p.add_argument("--allow-ambiguous", action="store_true", dest="allow_ambiguous")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selberg",
        description="geometric side of the trace formula and truncated zeta "
        "functions on compact hyperbolic orbifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lie = sub.add_parser("lie", help="root system, Weyl group and characters")
    lie_sub = lie.add_subparsers(dest="subcommand", required=True)
    p = lie_sub.add_parser("delta-m", help="half-sum of positive roots")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_lie_delta_m)
    _add_common(p)
    p = lie_sub.add_parser("weyl", help="enumerate the Weyl group")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", action="store_true")
    p.set_defaults(func=cmd_lie_weyl)
    _add_common(p)
    p = lie_sub.add_parser("character", help="irreducible or torus character")
    p.add_argument("--weight", required=True)
    p.add_argument("--angles", required=True)
    p.add_argument("--xi", action="store_true", help="plain torus character")
    p.set_defaults(func=cmd_lie_character)
    _add_common(p)

    orb = sub.add_parser("orbital", help="orbital-integral polynomials")
    orb_sub = orb.add_subparsers(dest="subcommand", required=True)
    p = orb_sub.add_parser("poly", help="elliptic orbital polynomial coefficients")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--angles", required=True)
    p.set_defaults(func=cmd_orbital_poly)
    _add_common(p)
    p = orb_sub.add_parser("plancherel", help="rank-1 Plancherel polynomial")
    p.add_argument("--sigma", required=True)
    p.set_defaults(func=cmd_orbital_plancherel)
    _add_common(p)
    p = orb_sub.add_parser("gap", help="flip-invariance gap of the polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--angles", required=True)
    p.set_defaults(func=cmd_orbital_gap)
    _add_common(p)

    spec = sub.add_parser("spectrum", help="group enumeration and length spectra")
    spec_sub = spec.add_subparsers(dest="subcommand", required=True)
    p = spec_sub.add_parser("enumerate", help="build a cutoff length spectrum")
    p.add_argument("--group", required=True, help="group spec JSON file")
    p.add_argument("--max-word-len", type=int, required=True, dest="max_word_len")
    p.add_argument("--cutoff", type=float, required=True)
    p.add_argument("--element-cap", type=int, default=200_000, dest="element_cap")
    p.set_defaults(func=cmd_spectrum_enumerate)
    _add_common(p)
    p = spec_sub.add_parser("classify", help="classify one word")
    p.add_argument("--group", required=True)
    p.add_argument("--word", required=True, help="comma-separated signed indices")
    p.set_defaults(func=cmd_spectrum_classify)
    _add_common(p)

    zet = sub.add_parser("zeta", help="truncated zeta functions and heat terms")
    zeta_sub = zet.add_subparsers(dest="subcommand", required=True)
    p = zeta_sub.add_parser("eval", help="log Z on a grid of s values")
    _zeta_common(p)
    p.add_argument("--s-grid", required=True, dest="s_grid",
                   help="re0:re1:step[,im0:im1:step]")
    p.set_defaults(func=cmd_zeta_eval)
    _add_common(p)
    p = zeta_sub.add_parser("xi", help="corrected symmetric zeta")
    _zeta_common(p)
    p.add_argument("--s", required=True, help="comma-separated real s values")
    p.set_defaults(func=cmd_zeta_xi)
    _add_common(p)
    p = zeta_sub.add_parser("heat-terms", help="identity/elliptic/hyperbolic terms")
    _zeta_common(p)
    p.add_argument("--t", required=True, help="comma-separated times")
    p.set_defaults(func=cmd_zeta_heat_terms)
    _add_common(p)

    heat = sub.add_parser("heat", help="flat orbifold models")
    heat_sub = heat.add_subparsers(dest="subcommand", required=True)
    for name, fn, extra in (
        ("trace", cmd_heat_trace, ("--t",)),
        ("fit", cmd_heat_fit, ("--t-grid",)),
        ("weyl", cmd_heat_weyl, ("--rmax",)),
    ):
        p = heat_sub.add_parser(name)
        p.add_argument("--model", required=True, choices=heat_mod.MODEL_NAMES)
        p.add_argument("--radius", type=float, default=1.0)
        p.add_argument("--sides", default=None,
                       help="pillowcase side lengths, e.g. '6.2832,6.2832'")
        if "--t" in extra:
            p.add_argument("--t", required=True)
        if "--t-grid" in extra:
            p.add_argument("--t-grid", dest="t_grid", default=None)
        if "--rmax" in extra:
            p.add_argument("--rmax", type=float, required=True)
        p.set_defaults(func=fn)
        _add_common(p)

    return parser


def _apply_config(args, argv: list[str]) -> None:
    if not getattr(args, "config", None):
        return
    with open(args.config, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValidationError("config file must hold a JSON object")
    for key, value in data.items():
        dest = key.replace("-", "_")
        if not hasattr(args, dest):
            raise ValidationError(f"unknown config key {key!r}")
        # explicit command-line flags win over config values
        if f"--{key}" not in argv and f"--{dest}" not in argv:
            setattr(args, dest, value)


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, list(argv))
        if getattr(args, "sides", None):
            args.sides_pair = tuple(_parse_values(args.sides))
            if len(args.sides_pair) != 2:
                raise ValidationError("--sides needs exactly two lengths")
        elif hasattr(args, "sides"):
            args.sides_pair = (6.283185307179586, 6.283185307179586)
        out = _Output(getattr(args, "out", None))
        args.func(args, out)
        out.finish()
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalGuardError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
