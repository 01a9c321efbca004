"""Truncated Selberg zeta functions and geometric-side heat terms.

The zeta function over a cutoff length spectrum is

    log Z(s) = - sum_hyperbolic  tr chi * v * tr sigma(m) * e^{-(s+n) l}
                                 / (power * e^{n l} * D),

where e^{n l} D is the absolute adjoint determinant |det(Id - Ad|_n)| of
the class.  That denominator is about e^{2 n l}, where the usual
det(Id - Ad(ma)^-1|_n) = e^{-n l} D is about 1, so this s is the heat
side's spectral parameter shifted by 2n: the Laplace transform of the
hyperbolic heat term at s is (1/2s) sum_{sigma, w0 sigma} d/ds log Z at
s - 2n.  The factor v is one over the order of the rotation group about
the class's axis, as the spectrum records it (1 in a torsion-free group),
and the heat term weighs a class by l0 * v, the covolume of its
centralizer.  The symmetric combination multiplies the zeta functions of a
weight and its last-coordinate flip; the antisymmetric one divides them.
Heat-side terms are those of the heat kernel of Delta - n^2 on functions
for trivial sigma (lambda = n^2 + nu^2).  They integrate the Plancherel and
orbital polynomials against a Gaussian (identity and elliptic
contributions) and evaluate the hyperbolic line's Fourier integral in
closed form.  The identity term is normalised at every rank; the elliptic
term still lacks the normalisation of the orbital polynomial, at every rank.

Character convention: the zeta sum uses tr sigma(m) unconjugated, the heat
term uses the conjugate, matching each formula's own display.

Every public evaluator takes one point or a sequence of them.  The
point-independent factors of each class (characters, adjoint determinants,
tr chi times the exact v, elliptic orbital polynomials) are built from the
spectrum's columns once per spectrum and weight, with one character call
per weight on the whole angle matrix, and kept read-only in the spectrum's
``derived`` dict for every later call; no per-class object is made.  The
ambiguity refusal and the default-volume warning run on every call before
any lookup, and a build that fails, as on a rank mismatch, stores nothing.
Each point is then one array expression over the classes, its exponential
row shared by the two weights.  A point whose imaginary part is zero, of
either sign, takes the real row of numpy's faithful exp, so x, x + 0j, x - 0j
and np.float64(x) give the same bits.  Its terms are multiplied by the
reciprocals of the adjoint determinants, made once per call: numpy divides
by a real den as by den + 0j with Smith's algorithm, which multiplies by
the rounded 1/den, so the product keeps the bits of the division.  Each sum
returns the correctly rounded sum of its real and of its imaginary parts
over the classes in the spectrum's canonical order (what math.fsum
returns), so results do not depend on how work is partitioned or on the
order of the additions: ``_csum`` takes one error-free extraction pass over
both parts at a shared sigma, certified part by part, else math.fsum, which
alone sums the few elliptic terms.  A log Z that is not finite, as where
the exponential row overflows far left of the abscissa, is a numerical
guard that names the point; so is a heat term that is not finite, as where
a power of a tiny time t overflows, and it names t.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousClassError, NumericalGuardError, ValidationError
from .geometry import LengthSpectrum, SpectrumColumns
from .lie import EllipticAngles, WeightVector, w0_flip, weyl_character
from .orbital import orbital_polynomial, plancherel_polynomial


@dataclass
class ZetaTermContext:
    """Everything one zeta/heat evaluation needs besides the point s or t.

    The rank ``n`` is that of ``sigma``, and the elliptic classes are the
    spectrum's own.  ``vol`` is the orbifold volume (hyperbolic volume
    units, user supplied).  ``elliptic_vols`` optionally assigns each
    elliptic class its centralizer covolume; classes without an entry
    default to 1 with a warning.
    """

    sigma: WeightVector
    chi_dim: int
    spectrum: LengthSpectrum
    vol: float = 1.0
    elliptic_vols: list[float] | None = None
    allow_ambiguous: bool = False

    def __post_init__(self):
        if not 0 < self.vol < math.inf:
            raise ValidationError("orbifold volume must be finite and positive")
        if self.chi_dim < 1:
            raise ValidationError("chi dimension must be at least 1")
        if self.elliptic_vols is not None:
            if len(self.elliptic_vols) != self.spectrum.count("elliptic"):
                raise ValidationError("need one volume per elliptic class")
            if not all(0 < v < math.inf for v in self.elliptic_vols):
                raise ValidationError("centralizer volumes must be finite and positive")

    @property
    def n(self) -> int:
        return self.sigma.rank


#: a one-pass total at least this large is far enough from the subnormal
#: range for the rounding test of ``_rounded``
_NORMAL_ENOUGH = math.ldexp(1.0, -960)


def _fsum(part: np.ndarray) -> float:
    """math.fsum of the entries of part: the sum of every part that the
    one-pass rounding test of ``_rounded`` does not decide."""
    return math.fsum(part.tolist())


def _rounded(head: float, tail: float, n: int, e: int) -> float | None:
    """head + tail where the rounding test shows it is the correctly rounded
    sum of a part of n terms extracted at sigma = 2^e, else None.

    T = head is exact, and R = tail errs in any order by less than
    N^2 2^(e-105) for N < 2^26 (Higham, Accuracy and Stability of
    Numerical Algorithms, eq. 4.4).  Let res = T + R, d its exact TwoSum
    error (Knuth), h the smaller half-gap around res, a power of two, and B
    the least power of two at least N^2 2^(e-105) and h 2^-53.  If |res| >=
    2^-960, B < h and |d| < h - B, which is exact, then the exact sum lies
    strictly within h of res, and res is what math.fsum returns.
    """
    total = head + tail
    size = abs(total)
    if size < _NORMAL_ENOUGH:  # a zero or tiny total, or nan
        return None
    back = total - head
    error = (head - (total - back)) + (tail - back)  # TwoSum: head + tail - total
    half_gap = (size - math.nextafter(size, 0.0)) / 2
    bound = max(math.ldexp(1.0, (n * n - 1).bit_length() + e - 105), math.ldexp(half_gap, -53))
    return total if bound < half_gap and abs(error) < half_gap - bound else None


def _csum(values, scratch=None) -> complex:
    """complex(math.fsum(re), math.fsum(im)) of the values, bit for bit: the
    correctly rounded sum of each part, from one extraction pass over both.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation, Part I: faithful rounding", SIAM J. Sci. Comput. 31(1),
    2008, Lemma 3.3): let sigma = 2^e with e = (exponent of max|x|) + m,
    where 2^m >= N + 2 and the max runs over both parts.  Then q = (x +
    sigma) - sigma rounds each part x to a multiple of 2^-53 sigma, the
    residual r = x - q is exact with |r| <= 2^-53 sigma, and the q add up
    exactly in any order, because every partial sum is such a multiple of
    modulus below sigma.  A sigma larger than a part needs keeps all of
    this, and the error bound of ``_rounded`` at its e, so one sigma serves
    both parts, and q and r come from complex sweeps that add sigma to both
    parts at once.  One pass usually settles the nearest float (Part II:
    sign, K-fold faithful and rounding to nearest, SIAM J. Sci. Comput.
    31(2), 2008); ``_rounded`` decides it for each part.

    Each part that the test does not decide goes to math.fsum, the real
    part first: a tie, a zero or tiny total, heavy cancellation, a part
    far smaller than the other, an inf or nan (so its inf, nan,
    ValueError or OverflowError is math.fsum's), and max|x| >=
    2^(1022 - m), where sigma could overflow.  ``scratch``, two complex
    rows as long as the values, spares a caller of many rows the allocation.
    """
    z = np.ascontiguousarray(values, dtype=complex)
    n = len(z)
    q, r = np.empty((2, n), dtype=complex) if scratch is None else scratch
    m = (n + 1).bit_length()  # the least m with 2^m >= N + 2
    top = float(np.abs(z.view(float), out=q.view(float)).max(initial=0.0))
    re = im = None
    if 0.0 < top < math.ldexp(1.0, 1022 - m) and n < 1 << 26:  # not nan either
        e = math.frexp(top)[1] + m
        sigma = complex(math.ldexp(1.0, e), math.ldexp(1.0, e))
        np.add(z, sigma, out=q)
        q -= sigma
        np.subtract(z, q, out=r)
        head, tail = complex(q.sum()), complex(r.sum())
        re, im = _rounded(head.real, tail.real, n, e), _rounded(head.imag, tail.imag, n, e)
    return complex(_fsum(z.real) if re is None else re, _fsum(z.imag) if im is None else im)


def _small_csum(values: list) -> complex:
    """``_csum`` of a few values, which math.fsum alone sums faster."""
    return complex(math.fsum(z.real for z in values), math.fsum(z.imag for z in values))


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


def _finite(value: complex, s, what: str = "zeta product") -> complex:
    """The value itself; a numerical guard at point s if it is not finite."""
    if not cmath.isfinite(value):
        raise NumericalGuardError(f"{what} is not finite at s = {s}")
    return value


def _refuse_ambiguous(ctx: ZetaTermContext, flags: np.ndarray) -> None:
    """Refuse flagged-ambiguity classes among the classes an evaluator sums,
    unless the context allows them."""
    if not ctx.allow_ambiguous and flags.any():
        raise AmbiguousClassError(
            "spectrum contains flagged-ambiguity classes; rerun with "
            "allow_ambiguous to include them"
        )


def _derived(spectrum: LengthSpectrum, key: tuple, build):
    """``spectrum.derived[key]``, made by ``build()`` on first use and set
    read-only; a build that raises stores nothing.  The keys are ("trace",
    weight), ("chi_v",), ("den", n) and ("orbital", weight)."""
    derived = spectrum.derived
    if key not in derived:
        value = build()
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        derived[key] = value
    return derived[key]


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _class_arrays(ctx: ZetaTermContext, both: bool) -> tuple[SpectrumColumns, np.ndarray, list]:
    """The hyperbolic columns, tr chi * v and [tr sigma], with tr w0 sigma
    appended when ``both``, in canonical order; one character call per weight
    and spectrum.  Refuses flagged-ambiguity classes unless allowed."""
    spectrum = ctx.spectrum
    hyp = spectrum.part("hyperbolic")
    _refuse_ambiguous(ctx, hyp.ambiguous)
    weights = [ctx.sigma, w0_flip(ctx.sigma)] if both else [ctx.sigma]
    traces = [_derived(spectrum, ("trace", w),
                       lambda w=w: weyl_character(w, hyp.angles_of_rank(w.rank)))
              for w in weights]
    return hyp, _derived(spectrum, ("chi_v",), lambda: hyp.tr_chi * hyp.v.astype(float)), traces


def _adjoint_determinants(hyp: SpectrumColumns, n: int) -> np.ndarray:
    """The zeta denominators power * e^{n l} * D; one beyond the float range
    is a numerical guard.  The printed digits depend on math.exp: np.exp
    differs from it in the last bit."""
    exps = np.array([_exp_or_inf(x) for x in (n * hyp.length).tolist()], dtype=float)
    with np.errstate(over="ignore"):  # an infinite product is reported below
        den = hyp.power * (exps * hyp.D)
    overflow = np.flatnonzero(~np.isfinite(den))
    if overflow.size:
        i = int(overflow[0])
        raise NumericalGuardError(
            f"adjoint determinant overflows for the hyperbolic class of length "
            f"{hyp.length[i]:.17g} and word {'.'.join(map(str, hyp.word[i]))}"
        )
    return den


def _log_zeta_values(ctx: ZetaTermContext, points: list, both: bool) -> list[list[complex]]:
    """log Z at each point for sigma, and for w0 sigma too when ``both``;
    one exponential row of the classes per point serves both weights, real
    where the point's imaginary part is zero, whatever the point's type."""
    hyp, chi_v, traces = _class_arrays(ctx, both)
    length = hyp.length
    if not len(length):
        return [[0j] * len(points) for _ in traces]
    den = _derived(ctx.spectrum, ("den", ctx.n), lambda: _adjoint_determinants(hyp, ctx.n))
    with np.errstate(over="ignore"):  # a subnormal den gives inf, which the guard reports
        inv = (1.0 / den).astype(complex)
    nums = [chi_v * trace for trace in traces]
    values = [[] for _ in nums]
    terms, *scratch = np.empty((3, len(length)), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is a guard
        for s in points:
            decay = np.exp(-((s.real if s.imag == 0 else s) + ctx.n) * length)
            for row, num in zip(values, nums):
                np.multiply(num, decay, out=terms)
                terms *= inv  # Smith's division by den + 0j multiplies by this 1/den
                try:
                    value = -_csum(terms, scratch)
                except (ValueError, OverflowError):  # math.fsum met inf - inf, or overflowed
                    value = complex(math.nan)
                row.append(_finite(value, s, "log Z"))
    return values


def _elliptic_terms(ctx: ZetaTermContext) -> list:
    """(tr chi * centralizer volume, orbital polynomial) for each elliptic
    class, the polynomials built once per weight and spectrum.  Refuses
    flagged-ambiguity classes unless the context allows them."""
    elliptic = ctx.spectrum.part("elliptic")
    _refuse_ambiguous(ctx, elliptic.ambiguous)
    if ctx.elliptic_vols is None and len(elliptic.kind):
        warnings.warn(
            "no centralizer volumes supplied for elliptic classes; defaulting to 1", stacklevel=3
        )
    vols = ctx.elliptic_vols or [1.0] * len(elliptic.kind)
    polys = _derived(ctx.spectrum, ("orbital", ctx.sigma), lambda: tuple(
        orbital_polynomial(ctx.sigma, EllipticAngles(angles))
        for angles in elliptic.angles))
    return [(tr_chi * vol, poly) for tr_chi, vol, poly in zip(elliptic.tr_chi.tolist(), vols, polys)]


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
    hyp = ctx.spectrum.part("hyperbolic")  # canonical order runs by length
    lengths = hyp.length
    k_fit = 0.0
    if len(lengths) >= 2:
        mags = np.maximum(np.abs(hyp.tr_chi), 1e-300)
        k_fit = max(_slope(lengths, np.log(mags)), 0.0)
    if len(lengths) < 5:
        return AbscissaEstimate(2 * ctx.n + k_fit, k_fit, float("nan"), conservative=True)
    counts = np.arange(1, len(lengths) + 1, dtype=float)
    entropy = max(_slope(lengths, np.log(counts)), 0.0)
    return AbscissaEstimate(entropy + k_fit, k_fit, entropy, conservative=False)


def _slope(x: np.ndarray, y: np.ndarray) -> float:
    """The least-squares slope of y on x, sum dx dy / sum dx^2; 0 if x is constant."""
    dx = x - x.mean()
    spread = float(dx @ dx)
    return float(dx @ (y - y.mean())) / spread if spread > 0 else 0.0


@dataclass(frozen=True)
class AbscissaEstimate:
    c: float
    chi_rate: float
    entropy: float
    conservative: bool


def log_zeta_truncated(s, ctx: ZetaTermContext) -> complex | list[complex]:
    """log Z over the cutoff spectrum at a point s, or at each point of a
    sequence (returning a list).

    An empty spectrum gives 0 (so Z = 1) with a warning.  Evaluation left of
    the estimated abscissa of convergence also warns, once per call, but
    still computes; a value that is not finite is a NumericalGuardError.
    """
    points, scalar = _points(s)
    values = _log_zeta_values(ctx, points, both=False)[0]
    if not ctx.spectrum.count("hyperbolic"):
        warnings.warn("empty hyperbolic spectrum; Z = 1", stacklevel=2)
    else:
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

    The operator is Delta - n^2 on functions for trivial sigma.  The
    identity term integrates the Plancherel polynomial against a Gaussian;
    at every rank, for trivial sigma and unit volume, it is the heat kernel
    at the origin.  The elliptic term does the same with each class's
    orbital polynomial, which lacks its normalisation at every rank.  The
    hyperbolic term evaluates the Fourier integral

        int_R e^{-t lambda^2} e^{-i l lambda} d lambda
            = sqrt(pi/t) e^{-l^2 / 4t}

    in closed form, with the conjugated character pair attached.
    """
    times, scalar = _points(t)
    if not all(0 < x < math.inf for x in times):
        raise ValidationError("heat time must be finite and positive")
    eps = epsilon_sigma(ctx.sigma)
    hyp, chi_v, traces = _class_arrays(ctx, both=eps == 2)
    heat = chi_v * hyp.primitive_length / (2.0 * math.pi * hyp.D)
    coeff = sum(heat * trace.conj() for trace in traces)
    p_plancherel = plancherel_polynomial(ctx.sigma)
    ell = _elliptic_terms(ctx)
    minus_length_sq = -hyp.length**2
    values = []
    for x in times:
        try:
            terms = HeatTerms(
                eps * ctx.chi_dim * ctx.vol * p_plancherel.gaussian_transform(x),
                eps * _small_csum([c * poly.gaussian_transform(x) for c, poly in ell]),
                _csum(coeff * (math.sqrt(math.pi / x) * np.exp(minus_length_sq / (4.0 * x)))),
            )
        except (ValueError, OverflowError):  # a power of t overflowed, or math.fsum met inf - inf
            terms = HeatTerms(math.nan, math.nan, math.nan)
        if not all(map(cmath.isfinite, (terms.identity, terms.elliptic, terms.hyperbolic))):
            raise NumericalGuardError(f"heat terms are not finite at t = {x}")
        values.append(terms)
    return values[0] if scalar else values


def xi_correction(s, ctx: ZetaTermContext) -> complex | list[complex]:
    """Symmetric zeta times the exponential of polynomial antiderivatives
    that absorbs the identity and elliptic contributions; a list for a
    sequence of points."""
    points, scalar = _points(s)
    p_plancherel = plancherel_polynomial(ctx.sigma)
    eps = epsilon_sigma(ctx.sigma)
    ell = _elliptic_terms(ctx)
    values = []
    for p, z in zip(points, symmetric_zeta(points, ctx)):
        exponent = -2.0 * math.pi * eps * ctx.chi_dim * ctx.vol * p_plancherel.antiderivative(p)
        exponent -= 2.0 * eps * _small_csum([c * poly.antiderivative(p) for c, poly in ell])
        values.append(_finite(_exp(exponent, p) * z, p))
    return values[0] if scalar else values
