"""Exactly solvable flat orbifold models: heat traces, small-time expansion
fits and closed-form eigenvalue counting.

Each model is a flat torus T = R^d / (2 pi r_1 Z x ... x 2 pi r_d Z) or its
quotient T / iota by the involution iota: v -> -v:

* ``circle``: S^1 of radius r, the smooth control case;
* ``circle-reflection``: S^1 / iota, an interval whose two ends are mirror
  points of isotropy order 2;
* ``pillowcase``: T^2 / iota, whose four corners are cone points of
  isotropy order 2.

The torus spectrum is sum_i (v_i / r_i)^2 over v in Z^d, so its heat trace
is Theta(t) = prod_i theta(t / r_i^2) with theta(tau) = sum_{m in Z}
exp(-tau m^2).  The quotient keeps one eigenfunction per orbit {v, -v}, and
its trace (Theta + 1) / 2 is the orbifold trace formula in its smallest
exact case: Theta / 2 is the identity term and 1 / 2 the elliptic term of
iota, which fixes only v = 0 and whose 2^d fixed points carry 2^{-d-1} each.

Because the spectra are exact, the fitted expansion coefficients can be
checked against the predicted leading term (4 pi)^{-d/2} * vol, the
stratum-driven constant terms, and the Weyl-law slope
rk(E) * vol / ((4 pi)^{d/2} Gamma(d/2 + 1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import ClassVar

import numpy as np

from .errors import IllConditionedFitError, ValidationError

#: exponent used to bound spectral tails: exp(-TAIL_EXPONENT) ~ 3e-20,
#: with a safety factor of 10 on top of the raw bound
TAIL_EXPONENT = 45.0
TAIL_SAFETY = 10.0

MODEL_NAMES = ("circle", "circle-reflection", "pillowcase")

#: the most (bound, row) cells ``eigenvalue_count`` holds at once (128 KB float arrays)
COUNT_BLOCK_CELLS = 2**14
#: the most modes an axis may hold: far above every use (a pillowcase at rmax 1e6 has 1000)
MAX_AXIS_MODES = 10**6
#: the most lattice points ``exact_spectrum`` lists (an 80 MB float array)
MAX_LATTICE_POINTS = 10**7


@dataclass(frozen=True)
class FlatOrbifoldModel:
    """A flat torus with one radius per axis (one or two axes) or, when
    ``folded``, its quotient by v -> -v, which keeps one eigenfunction per
    lattice orbit {v, -v}.  ``strata`` lists the singular strata as
    (dimension, isotropy order): the 2^d fixed points of v -> -v if folded.
    """

    name: str
    vol: float
    radii: tuple[float, ...]
    folded: bool
    #: the Laplacian acts on functions, a line bundle
    rank_e: ClassVar[int] = 1

    @property
    def dim(self) -> int:
        return len(self.radii)

    @property
    def strata(self) -> tuple[tuple[int, int], ...]:
        return ((0, 2),) * 2**self.dim if self.folded else ()


def _finite_positive(what: str, x: float) -> float:
    x = float(x)
    if not 0.0 < x < math.inf:
        raise ValidationError(f"{what} must be finite and positive, got {x!r}")
    return x


def make_model(name: str, radius: float = 1.0, sides=(2.0 * math.pi, 2.0 * math.pi)) -> FlatOrbifoldModel:
    if name in ("circle", "circle-reflection"):
        r = _finite_positive("circle radius", radius)
        folded = name == "circle-reflection"
        return FlatOrbifoldModel(name, math.pi * r if folded else 2.0 * math.pi * r, (r,), folded)
    if name == "pillowcase":
        a, b = (_finite_positive("pillowcase side", s) for s in sides[:2])
        radii = (a / (2.0 * math.pi), b / (2.0 * math.pi))
        return FlatOrbifoldModel(name, a * b / 2.0, radii, True)
    raise ValidationError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")


def _modes(r: float, bound: float) -> float:
    """r sqrt(bound), the highest mode m with (m / r)^2 <= bound, below MAX_AXIS_MODES."""
    if not (modes := r * math.sqrt(bound)) < MAX_AXIS_MODES:
        raise ValidationError(f"an axis of radius {r:g} would need over {MAX_AXIS_MODES} modes")
    return modes


def _squares(r: float, bound: float) -> np.ndarray:
    """(m / r)^2 <= bound for m = 0, 1, ...; every eigenvalue test sums these
    in axis order, so listing and counting decide boundary points alike."""
    count = math.floor(_modes(r, bound)) + 2
    with np.errstate(over="ignore"):  # a square past the float range is past the bound
        sq = (np.arange(count, dtype=float) / r) ** 2
    return sq[sq <= bound]


def exact_spectrum(model: FlatOrbifoldModel, cutoff: float) -> list[tuple[float, int]]:
    """Eigenvalues up to and including the cutoff, with multiplicities."""
    if cutoff <= 0:
        raise ValidationError("cutoff must be positive")
    axes = [_squares(r, cutoff) for r in model.radii]
    if math.prod(2 * len(sq) - 1 for sq in axes) > MAX_LATTICE_POINTS:
        raise ValidationError(f"cutoff {cutoff:g} needs over {MAX_LATTICE_POINTS} lattice points")
    lam = np.zeros(1)
    for sq in axes:
        lam = (lam[:, None] + np.concatenate([sq[:0:-1], sq])).ravel()
    values, counts = np.unique(lam[lam <= cutoff], return_counts=True)
    if model.folded:
        # a positive eigenvalue holds whole orbits {v, -v}; 0 holds v = 0
        counts = (counts + 1) // 2
    return [(float(v), int(c)) for v, c in zip(values, counts)]


def heat_trace(model: FlatOrbifoldModel, t: float) -> float:
    """Spectral heat trace with the tail below ~1e-15 absolute.

    Mode cutoffs come from a Gaussian tail bound with a safety factor.
    """
    if not 0.0 < t < math.inf:
        raise ValidationError("heat time must be finite and positive")
    # with s_i = sum_{m >= 1} exp(-t (m / r_i)^2), Theta = prod_i (1 + 2 s_i)
    # = 1 + 2 h and (Theta + 1) / 2 = 1 + h; each axis takes h to
    # h + s_i + 2 h s_i, and every term is kept for one compensated sum
    terms: list = []
    sizes = [int(math.ceil(_modes(r, TAIL_EXPONENT / t))) + int(TAIL_SAFETY) for r in model.radii]
    with np.errstate(over="ignore"):  # a square past the float range weighs 0
        axes = [np.exp(-t * (np.arange(1, m_max + 1, dtype=float) / r) ** 2).tolist()
                for r, m_max in zip(model.radii, sizes)]
    for weights in axes:
        terms += [(2.0 * math.fsum(chain(*terms)) * math.fsum(weights),), weights]
    h = chain(*terms)
    return math.fsum(chain([1.0], h)) if model.folded else 2.0 * math.fsum(h) + 1.0


@dataclass(frozen=True)
class HeatFit:
    """Least-squares fit of the small-time trace on a pinned exponent ladder."""

    t_grid: tuple[float, ...]
    traces: tuple[float, ...]
    exponents: tuple[float, ...]
    coefficients: tuple[float, ...]
    residual: float
    expected_leading: float

    def coefficient(self, exponent: float) -> float:
        for e, c in zip(self.exponents, self.coefficients):
            if abs(e - exponent) < 1e-12:
                return c
        raise ValidationError(f"exponent {exponent} not in the fitted ladder")

    @property
    def leading_coefficient(self) -> float:
        return self.coefficients[0]

    @property
    def constant_term(self) -> float:
        return self.coefficient(0.0)


def fit_expansion(model: FlatOrbifoldModel, t_grid) -> HeatFit:
    """Fit sum_k c_k t^{(k-d)/2}, k = 0..d+1, to the heat trace.

    The exponent ladder is pinned (only coefficients are free), the grid
    must sit inside the asymptotic window t <= 0.05, and an ill-conditioned
    design matrix is an error rather than a silent bad fit.
    """
    t = np.asarray(sorted(float(x) for x in t_grid), dtype=float)
    if t.size == 0 or not np.all(t > 0):
        raise ValidationError("t grid must contain positive times")
    if t[-1] > 0.05:
        raise ValidationError(
            f"t grid reaching {t[-1]:g} leaves the asymptotic window (max 0.05)"
        )
    d = model.dim
    exponents = tuple((k - d) / 2.0 for k in range(d + 2))
    if t.size < len(exponents):
        raise ValidationError("need at least as many grid points as ladder terms")
    design = np.stack([t**e for e in exponents], axis=1)
    cond = float(np.linalg.cond(design))
    if cond > 1e12:
        raise IllConditionedFitError(
            f"fit design matrix has condition number {cond:.3e}", cond
        )
    traces = np.array([heat_trace(model, x) for x in t])
    coeffs, *_ = np.linalg.lstsq(design, traces, rcond=None)
    residual = float(np.max(np.abs(design @ coeffs - traces) / np.abs(traces)))
    expected = (4.0 * math.pi) ** (-d / 2.0) * model.vol
    return HeatFit(
        t_grid=tuple(t),
        traces=tuple(traces),
        exponents=exponents,
        coefficients=tuple(float(c) for c in coeffs),
        residual=residual,
        expected_leading=expected,
    )


def eigenvalue_count(model: FlatOrbifoldModel, bounds) -> np.ndarray:
    """N(b), the number of eigenvalues <= b with multiplicity, for each bound b.

    Closed form in one pass over all bounds, in blocks of COUNT_BLOCK_CELLS
    (bound, row) cells at most, so in O(sqrt(max b)) memory: the lattice
    points of Z^d below b, (N + 1) / 2 of them when folded.  Every boundary
    point is decided by the same float expression ``exact_spectrum`` tests,
    so the counts equal its cumulative multiplicities.
    """
    bounds = np.array([float(b) for b in bounds], dtype=float)
    if not np.all((0.0 <= bounds) & (bounds < math.inf)):
        raise ValidationError("count bounds must be finite and nonnegative")
    r = model.radii[-1]
    if not r * math.sqrt(bounds.max(initial=0.0)) < 2.0**52:  # whole float steps would stall
        raise ValidationError("the lattice radius r sqrt(bound) reaches 2^52")
    # rows p >= 0 of the first axis of two; v -> -v maps rows p < 0 onto p > 0
    rows = _squares(model.radii[0], bounds.max(initial=0.0)) if model.dim == 2 else np.zeros(1)
    counts = np.empty(len(bounds), dtype=np.int64)
    step = max(1, COUNT_BLOCK_CELLS // len(rows))
    for start in range(0, len(bounds), step):
        b = bounds[start:start + step, None]
        # row p holds |q| <= q[p]; q = 0 always fits a row with rows[p] <= b, a row
        # with rows[p] > b gets q = NaN, which passes no test, and so does an inf square
        with np.errstate(invalid="ignore", over="ignore"):
            q = np.floor(r * np.sqrt(b - rows))
            while np.any(over := rows + (q / r) ** 2 > b):
                q[over] -= 1
            while np.any(under := rows + ((q + 1) / r) ** 2 <= b):
                q[under] += 1
        per_row = 2.0 * np.fmax(q, -0.5) + 1.0  # 0 where q is NaN
        counts[start:start + step] = 2.0 * per_row.sum(axis=1) - per_row[:, 0]
    return (counts + 1) // 2 if model.folded else counts


@dataclass(frozen=True)
class WeylSlopeReport:
    fitted: float
    predicted: float
    relative_error: float
    eigenvalue_count: int


def weyl_counting_check(model: FlatOrbifoldModel, r_max: float) -> WeylSlopeReport:
    """Fit N(r) ~ A r^{d/2} and compare A with the Weyl-law constant."""
    if not 0.0 < r_max < math.inf:
        raise ValidationError("rmax must be finite and positive")
    probes = np.linspace(r_max / 2.0, r_max, 48)  # ends at r_max exactly
    counts = eigenvalue_count(model, probes)
    if (count := int(counts[-1])) < 200:
        raise ValidationError(
            f"only {count} eigenvalues up to {r_max:g}; need at least 200"
        )
    basis = probes ** (model.dim / 2.0)
    fitted = float(np.dot(counts, basis) / np.dot(basis, basis))
    d = model.dim
    predicted = model.rank_e * model.vol / (
        (4.0 * math.pi) ** (d / 2.0) * math.gamma(d / 2.0 + 1.0)
    )
    rel = abs(fitted - predicted) / predicted
    return WeylSlopeReport(fitted, predicted, rel, count)
