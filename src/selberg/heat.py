"""Exactly solvable flat orbifold models: heat traces, small-time expansion
fits and closed-form eigenvalue counting.

Three models, all with explicitly known spectra, stand in for the general
small-time parametrix machinery:

* ``circle``: S^1 of circumference 2*pi*R, the smooth control case;
* ``circle-reflection``: S^1 / Z_2, an interval with two mirror points of
  isotropy order 2 (cosine spectrum);
* ``pillowcase``: T^2 / Z_2 with four isotropy-2 corner points
  (sign-symmetrized lattice spectrum).

Because the spectra are exact, the fitted expansion coefficients can be
checked against the predicted leading term (4 pi)^{-d/2} * vol, the
stratum-driven constant terms, and the Weyl-law slope
rk(E) * vol / ((4 pi)^{d/2} Gamma(d/2 + 1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedFitError, ValidationError

#: exponent used to bound spectral tails: exp(-TAIL_EXPONENT) ~ 3e-20,
#: with a safety factor of 10 on top of the raw bound
TAIL_EXPONENT = 45.0
TAIL_SAFETY = 10.0

MODEL_NAMES = ("circle", "circle-reflection", "pillowcase")


@dataclass(frozen=True)
class FlatOrbifoldModel:
    """One exactly solvable model.

    ``strata`` lists the singular strata as (dimension, isotropy order)
    pairs; the smooth control model has none.
    """

    name: str
    dim: int
    vol: float
    strata: tuple[tuple[int, int], ...]
    radius: float = 1.0
    sides: tuple[float, float] = (2.0 * math.pi, 2.0 * math.pi)
    rank_e: int = 1


def _finite_positive(what: str, x: float) -> float:
    x = float(x)
    if not 0.0 < x < math.inf:
        raise ValidationError(f"{what} must be finite and positive, got {x!r}")
    return x


def make_model(name: str, radius: float = 1.0, sides=(2.0 * math.pi, 2.0 * math.pi)) -> FlatOrbifoldModel:
    if name == "circle":
        radius = _finite_positive("circle radius", radius)
        return FlatOrbifoldModel(name, 1, 2.0 * math.pi * radius, (), radius=radius)
    if name == "circle-reflection":
        radius = _finite_positive("circle radius", radius)
        return FlatOrbifoldModel(
            name, 1, math.pi * radius, ((0, 2), (0, 2)), radius=radius
        )
    if name == "pillowcase":
        sides = (_finite_positive("pillowcase side", sides[0]),
                 _finite_positive("pillowcase side", sides[1]))
        return FlatOrbifoldModel(
            name, 2, sides[0] * sides[1] / 2.0, ((0, 2),) * 4, sides=sides
        )
    raise ValidationError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")


def _lattice_scales(model: FlatOrbifoldModel) -> tuple[float, float]:
    """Pillowcase eigenvalues are ax p^2 + ay q^2 over the lattice (p, q)."""
    return (2.0 * math.pi / model.sides[0]) ** 2, (2.0 * math.pi / model.sides[1]) ** 2


def exact_spectrum(model: FlatOrbifoldModel, cutoff: float) -> list[tuple[float, int]]:
    """Eigenvalues up to and including the cutoff, with multiplicities."""
    if cutoff <= 0:
        raise ValidationError("cutoff must be positive")
    r = model.radius
    if model.name == "circle":
        out = [(0.0, 1)]
        m = 1
        while (m / r) ** 2 <= cutoff:
            out.append(((m / r) ** 2, 2))
            m += 1
        return out
    if model.name == "circle-reflection":
        out = []
        m = 0
        while (m / r) ** 2 <= cutoff:
            out.append(((m / r) ** 2, 1))
            m += 1
        return out
    if model.name == "pillowcase":
        ax, ay = _lattice_scales(model)
        counts: dict[float, int] = {}
        pmax = int(math.floor(math.sqrt(cutoff / ax)))
        for p in range(0, pmax + 1):
            qmax = int(math.floor(math.sqrt(max(cutoff - ax * p * p, 0.0) / ay)))
            qmin = 0 if p == 0 else -qmax
            for q in range(qmin, qmax + 1):
                lam = ax * p * p + ay * q * q
                if lam <= cutoff:
                    counts[lam] = counts.get(lam, 0) + 1
        return sorted(counts.items())
    raise ValidationError(f"unknown model {model.name!r}")


def heat_trace(model: FlatOrbifoldModel, t: float) -> float:
    """Spectral heat trace with the tail below ~1e-15 absolute.

    Mode cutoffs come from a Gaussian tail bound with a safety factor.
    """
    if not 0.0 < t < math.inf:
        raise ValidationError("heat time must be finite and positive")
    r = model.radius
    if model.name in ("circle", "circle-reflection"):
        m_max = int(math.ceil(r * math.sqrt(TAIL_EXPONENT / t))) + int(TAIL_SAFETY)
        modes = np.arange(0, m_max + 1, dtype=float)
        weights = np.exp(-t * (modes / r) ** 2)
        if model.name == "circle":
            return float(math.fsum(2.0 * w for w in weights[1:]) + weights[0])
        return float(math.fsum(weights))
    if model.name == "pillowcase":
        ax, ay = _lattice_scales(model)
        pmax = int(math.ceil(math.sqrt(TAIL_EXPONENT / (t * ax)))) + int(TAIL_SAFETY)
        qmax = int(math.ceil(math.sqrt(TAIL_EXPONENT / (t * ay)))) + int(TAIL_SAFETY)
        pieces = []
        for p in range(0, pmax + 1):
            qs = np.arange(0 if p == 0 else -qmax, qmax + 1, dtype=float)
            vals = np.exp(-t * (ax * p * p + ay * qs * qs))
            pieces.append(float(vals.sum()))
        return float(math.fsum(pieces))
    raise ValidationError(f"unknown model {model.name!r}")


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

    Closed form in O(sqrt(b)) per bound: a square-root estimate of the last
    mode, corrected by whole steps.  Every boundary mode is decided by the
    same float expression ``exact_spectrum`` tests, so the counts equal its
    cumulative multiplicities.
    """
    bounds = [float(b) for b in bounds]
    if not all(0.0 <= b < math.inf for b in bounds):
        raise ValidationError("count bounds must be finite and nonnegative")
    if model.name not in MODEL_NAMES:
        raise ValidationError(f"unknown model {model.name!r}")
    return np.array([_count_below(model, b) for b in bounds], dtype=np.int64)


def _count_below(model: FlatOrbifoldModel, b: float) -> int:
    if model.name != "pillowcase":
        # last mode m with (m / r)^2 <= b; (m / r)^2 grows with m
        r = model.radius
        m = math.floor(r * math.sqrt(b))
        while m > 0 and (m / r) ** 2 > b:
            m -= 1
        while ((m + 1) / r) ** 2 <= b:
            m += 1
        return 1 + 2 * m if model.name == "circle" else m + 1
    ax, ay = _lattice_scales(model)
    pmax = math.floor(math.sqrt(b / ax))
    while pmax > 0 and ax * pmax * pmax > b:
        pmax -= 1
    while ax * (pmax + 1) * (pmax + 1) <= b:
        pmax += 1
    # rows p = 0..pmax hold |q| <= q[p]; q = 0 always fits, since ax p^2 <= b
    p = np.arange(pmax + 1, dtype=float)
    row = ax * p * p
    q = np.floor(np.sqrt((b - row) / ay))
    while np.any(over := row + ay * q * q > b):
        q[over] -= 1
    while np.any(under := row + ay * (q + 1) * (q + 1) <= b):
        q[under] += 1
    # the sign symmetry (p, q) ~ (-p, -q) leaves q >= 0 in the p = 0 row
    return int(q[0] + 1 + np.sum(2 * q[1:] + 1))


@dataclass(frozen=True)
class WeylSlopeReport:
    fitted: float
    predicted: float
    relative_error: float
    eigenvalue_count: int


def weyl_counting_check(model: FlatOrbifoldModel, r_max: float) -> WeylSlopeReport:
    """Fit N(r) ~ A r^{d/2} and compare A with the Weyl-law constant."""
    count = int(eigenvalue_count(model, [r_max])[0])
    if count < 200:
        raise ValidationError(
            f"only {count} eigenvalues up to {r_max:g}; need at least 200"
        )
    probes = np.linspace(r_max / 2.0, r_max, 48)
    counts = eigenvalue_count(model, probes).astype(float)
    basis = probes ** (model.dim / 2.0)
    fitted = float(np.dot(counts, basis) / np.dot(basis, basis))
    d = model.dim
    predicted = model.rank_e * model.vol / (
        (4.0 * math.pi) ** (d / 2.0) * math.gamma(d / 2.0 + 1.0)
    )
    rel = abs(fitted - predicted) / predicted
    return WeylSlopeReport(fitted, predicted, rel, count)
