"""Truncated Selberg zeta functions and geometric-side heat terms.

The zeta function over a cutoff length spectrum is

    log Z(s) = - sum_hyperbolic  tr chi * v * tr sigma(m) * e^{-(s+n) l}
                                 / (power * e^{n l} * D),

where e^{n l} D is the absolute adjoint determinant |det(Id - Ad|_n)| of
the class.  The symmetric combination multiplies the zeta functions of a
weight and its last-coordinate flip; the antisymmetric one divides them.
Heat-side terms integrate the Plancherel and orbital polynomials against a
Gaussian (identity and elliptic contributions) and evaluate the hyperbolic
line's Fourier integral in closed form.

Character convention: the zeta sum uses tr sigma(m) unconjugated, the heat
term uses the conjugate, matching each formula's own display.

Every public evaluator takes one point or a sequence of them.  The
point-independent factors of each class (characters, adjoint determinants,
twists) are built into arrays once per call: one class-array build serves
both sigma and w0 sigma, with one character call per weight.  Each point is
then one array expression over the classes, its exponential row shared by
the two weights.  Sums accumulate with compensated (exact) summation in a
canonical record order, so results do not depend on how work is
partitioned.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    AmbiguousClassError,
    NumericalGuardError,
    UnsupportedRankError,
    ValidationError,
)
from .geometry import ConjClassRecord, LengthSpectrum
from .lie import EllipticAngles, WeightVector, w0_flip, weyl_character
from .orbital import orbital_polynomial, plancherel_polynomial


@dataclass
class ZetaTermContext:
    """Everything one zeta/heat evaluation needs besides the point s or t.

    ``vol`` is the orbifold volume (hyperbolic volume units, user supplied).
    ``elliptic_vols`` optionally assigns each elliptic class its centralizer
    covolume; classes without an entry default to 1 with a warning.
    """

    n: int
    sigma: WeightVector
    chi_dim: int
    spectrum: LengthSpectrum
    elliptic: list[ConjClassRecord] = field(default_factory=list)
    vol: float = 1.0
    elliptic_vols: list[float] | None = None
    allow_ambiguous: bool = False

    def __post_init__(self):
        if not 0 < self.vol < math.inf:
            raise ValidationError("orbifold volume must be finite and positive")
        if not 0 < self.spectrum.cutoff < math.inf:
            raise ValidationError("spectrum cutoff must be finite and positive")
        if self.chi_dim < 1:
            raise ValidationError("chi dimension must be at least 1")
        if self.sigma.rank != self.n:
            raise ValidationError("sigma rank must equal n")
        if self.elliptic_vols is not None and len(self.elliptic_vols) != len(
            self.elliptic
        ):
            raise ValidationError("need one volume per elliptic class")

    def with_sigma(self, sigma: WeightVector) -> "ZetaTermContext":
        return replace(self, sigma=sigma)


def _csum(values) -> complex:
    """Compensated complex sum in the iteration order given."""
    vals = np.asarray(values, dtype=complex)
    return complex(math.fsum(vals.real.tolist()), math.fsum(vals.imag.tolist()))


def _points(x) -> tuple[list, bool]:
    """The points of a scalar or 1-D sequence argument, and whether it was a scalar."""
    scalar = np.ndim(x) == 0
    return ([x] if scalar else list(x)), scalar


def _exp(value: complex, s) -> complex:
    """cmath.exp, with overflow reported as a numerical guard at point s."""
    try:
        return cmath.exp(value)
    except OverflowError:
        raise NumericalGuardError(f"exponential overflows at s = {s}") from None


def _finite(value: complex, s) -> complex:
    """The value itself; a numerical guard at point s if it is not finite."""
    if not cmath.isfinite(value):
        raise NumericalGuardError(f"zeta product is not finite at s = {s}")
    return value


class _ClassArrays(NamedTuple):
    """Point-independent per-class factors, in canonical record order.
    ``num`` and ``heat`` hold one array per weight: sigma, then w0 sigma
    when both were asked for."""

    length: np.ndarray
    den: np.ndarray  # power * e^{n l} * D
    num: list  # tr chi * v * tr sigma
    heat: list  # tr chi * v * l0 / (2 pi D) * conj(tr sigma)


def _class_arrays(ctx: ZetaTermContext, both: bool) -> _ClassArrays:
    """Per-class arrays for sigma, and for its flip w0 sigma too when
    ``both``: one pass over the classes, then one character call per weight.
    Refuses flagged-ambiguity classes unless the context allows them."""
    recs = sorted(ctx.spectrum.hyperbolic(), key=lambda r: (r.length, r.angles, r.word))
    if not ctx.allow_ambiguous and any(r.ambiguous for r in recs):
        raise AmbiguousClassError(
            "spectrum contains flagged-ambiguity classes; rerun with "
            "allow_ambiguous to include them"
        )
    cols = np.array([(r.length, r.primitive_length, r.D, r.power * (math.exp(ctx.n * r.length) * r.D),
                      r.tr_chi * float(r.v)) for r in recs], dtype=complex).reshape(-1, 5).T
    length, l0, d, den = cols[:4].real.copy()  # den with math.exp, as the printed digits need
    chi_v = cols[4].copy()
    angles = [EllipticAngles(tuple(r.angles)) for r in recs]
    weights = [ctx.sigma, w0_flip(ctx.sigma)] if both else [ctx.sigma]
    traces = [np.array(weyl_character(w, angles), dtype=complex) for w in weights]
    heat = chi_v * l0 / (2.0 * math.pi * d)
    return _ClassArrays(
        length=length,
        den=den,
        num=[chi_v * trace for trace in traces],
        heat=[heat * trace.conj() for trace in traces],
    )


def _log_zeta_values(ctx: ZetaTermContext, points: list, both: bool) -> list[list[complex]]:
    """log Z at each point for sigma, and for w0 sigma too when ``both``;
    one exponential row of the classes per point serves both weights."""
    arrays = _class_arrays(ctx, both)
    if not len(arrays.length):
        return [[0j] * len(points) for _ in arrays.num]
    values = [[] for _ in arrays.num]
    for s in points:
        decay = np.exp(-(s + ctx.n) * arrays.length)
        for row, num in zip(values, arrays.num):
            row.append(-_csum(num * decay / arrays.den))
    return values


def _elliptic_terms(ctx: ZetaTermContext) -> list:
    """(tr chi * centralizer volume, orbital polynomial) for each elliptic class."""
    if ctx.elliptic_vols is None and ctx.elliptic:
        warnings.warn(
            "no centralizer volumes supplied for elliptic classes; defaulting to 1", stacklevel=3
        )
    vols = ctx.elliptic_vols or [1.0] * len(ctx.elliptic)
    return [
        (rec.tr_chi * vol, orbital_polynomial(ctx.sigma, EllipticAngles(tuple(rec.angles)), ctx.n))
        for rec, vol in zip(ctx.elliptic, vols)
    ]


def epsilon_sigma(sigma: WeightVector) -> int:
    """2 when the weight moves under the last-coordinate flip, else 1."""
    return 2 if w0_flip(sigma) != sigma else 1


def convergence_abscissa_estimate(ctx: ZetaTermContext):
    """Empirical abscissa of absolute convergence.

    Fits exponential growth rates to the cumulative class counts (a
    topological-entropy estimate) and to |tr chi| along the spectrum, and
    returns their sum; with fewer than five classes it falls back to the
    conservative default 2n + k_fit.
    """
    recs = sorted(ctx.spectrum.hyperbolic(), key=lambda r: r.length)
    lengths = np.array([r.length for r in recs])
    k_fit, big_k = 0.0, 1.0
    if len(recs) >= 2:
        mags = np.array([max(abs(r.tr_chi), 1e-300) for r in recs])
        slope, intercept = np.polyfit(lengths, np.log(mags), 1)
        k_fit = max(float(slope), 0.0)
        big_k = float(np.exp(intercept))
    if len(recs) < 5:
        warnings.warn(
            "spectrum too small to fit a growth rate; using the conservative "
            "default abscissa",
            stacklevel=2,
        )
        return AbscissaEstimate(
            c=2 * ctx.n + k_fit, chi_bound=big_k, chi_rate=k_fit,
            entropy=float("nan"), conservative=True,
        )
    counts = np.arange(1, len(recs) + 1, dtype=float)
    entropy = max(float(np.polyfit(lengths, np.log(counts), 1)[0]), 0.0)
    return AbscissaEstimate(
        c=entropy + k_fit, chi_bound=big_k, chi_rate=k_fit,
        entropy=entropy, conservative=False,
    )


@dataclass(frozen=True)
class AbscissaEstimate:
    c: float
    chi_bound: float
    chi_rate: float
    entropy: float
    conservative: bool


def log_zeta_truncated(s, ctx: ZetaTermContext) -> complex | list[complex]:
    """log Z over the cutoff spectrum at a point s, or at each point of a
    sequence (returning a list).

    An empty spectrum gives 0 (so Z = 1) with a warning.  Evaluation left of
    the estimated abscissa of convergence also warns, once per call, but
    still computes.
    """
    points, scalar = _points(s)
    values = _log_zeta_values(ctx, points, both=False)[0]
    if not ctx.spectrum.hyperbolic():
        warnings.warn("empty hyperbolic spectrum; Z = 1", stacklevel=2)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = convergence_abscissa_estimate(ctx)
        below = [complex(p).real for p in points if complex(p).real <= est.c]
        if below:
            warnings.warn(
                f"{len(below)} of {len(points)} points have Re(s) at or below "
                f"the estimated abscissa {est.c:g} (lowest Re(s) = {min(below):g}); "
                "the truncated sum may be far from converged",
                stacklevel=2,
            )
    return values[0] if scalar else values


def symmetric_zeta(s, ctx: ZetaTermContext) -> complex | list[complex]:
    """Z(s, sigma) Z(s, w0 sigma), collapsing to Z when the flip fixes sigma;
    a list for a sequence of points."""
    points, scalar = _points(s)
    moved = epsilon_sigma(ctx.sigma) == 2
    logs = _log_zeta_values(ctx, points, both=moved)
    values = [_exp(v, p) for p, v in zip(points, logs[0])]
    if moved:
        values = [_finite(z * _exp(v, p), p) for p, z, v in zip(points, values, logs[1])]
    return values[0] if scalar else values


def antisymmetric_zeta(s, ctx: ZetaTermContext) -> complex | list[complex]:
    """Z(s, sigma) / Z(s, w0 sigma); defined only when the flip moves sigma.
    A list for a sequence of points."""
    if epsilon_sigma(ctx.sigma) == 1:
        raise ValidationError(
            "antisymmetric zeta needs a weight moved by the flip "
            "(last coordinate nonzero)"
        )
    points, scalar = _points(s)
    values = []
    for p, v, vf in zip(points, *_log_zeta_values(ctx, points, both=True)):
        z, zf = _exp(v, p), _exp(vf, p)
        if zf == 0 or not (cmath.isfinite(z) and cmath.isfinite(zf)):
            raise NumericalGuardError(
                f"zeta value at the flipped weight vanished or overflowed at s = {p}; "
                "the antisymmetric ratio is undefined here"
            )
        values.append(z / zf)
    return values[0] if scalar else values


@dataclass(frozen=True)
class HeatTerms:
    identity: complex
    elliptic: complex
    hyperbolic: complex


def geometric_heat_terms(t, ctx: ZetaTermContext) -> HeatTerms | list[HeatTerms]:
    """Identity, elliptic and hyperbolic heat-side contributions at time t,
    or a list of them for a sequence of times.

    The identity term integrates the rank-1 Plancherel polynomial against a
    Gaussian; the elliptic term does the same with each class's orbital
    polynomial; the hyperbolic term evaluates the Fourier integral

        int_R e^{-t lambda^2} e^{-i l lambda} d lambda
            = sqrt(pi/t) e^{-l^2 / 4t}

    in closed form, with the conjugated character pair attached.
    """
    times, scalar = _points(t)
    if not all(0 < x < math.inf for x in times):
        raise ValidationError("heat time must be finite and positive")
    if ctx.n != 1:
        raise UnsupportedRankError(
            "the identity heat term needs the rank-1 Plancherel polynomial"
        )
    eps = epsilon_sigma(ctx.sigma)
    arrays = _class_arrays(ctx, both=eps == 2)
    coeff = sum(arrays.heat[1:], arrays.heat[0])
    p_plancherel = plancherel_polynomial(ctx.sigma, ctx.n)
    ell = _elliptic_terms(ctx)
    values = [
        HeatTerms(
            eps * ctx.chi_dim * ctx.vol * p_plancherel.gaussian_transform(x),
            eps * _csum([c * poly.gaussian_transform(x) for c, poly in ell]),
            _csum(coeff * (math.sqrt(math.pi / x) * np.exp(-arrays.length**2 / (4.0 * x)))),
        )
        for x in times
    ]
    return values[0] if scalar else values


def xi_correction(s, ctx: ZetaTermContext) -> complex | list[complex]:
    """Symmetric zeta times the exponential of polynomial antiderivatives
    that absorbs the identity and elliptic contributions; a list for a
    sequence of points."""
    points, scalar = _points(s)
    p_plancherel = plancherel_polynomial(ctx.sigma, ctx.n)
    eps = epsilon_sigma(ctx.sigma)
    ell = _elliptic_terms(ctx)
    values = []
    for p, z in zip(points, symmetric_zeta(points, ctx)):
        exponent = -2.0 * math.pi * eps * ctx.chi_dim * ctx.vol * p_plancherel.antiderivative(p)
        exponent -= 2.0 * eps * _csum([c * poly.antiderivative(p) for c, poly in ell])
        values.append(_finite(_exp(exponent, p) * z, p))
    return values[0] if scalar else values
