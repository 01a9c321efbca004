"""Plancherel and elliptic orbital-integral polynomials.

The elliptic contribution to the trace formula on a compact quotient of
H^{2n+1} is governed, per rotation class, by an even polynomial in the
spectral parameter nu.  It is built from an alternating sum over the type-D
Weyl group: each summand is the product of the pairings of the shifted,
reflected weight (with its symbolic -i*nu*e_1 component) against the roots
along which the rotation fails to be regular, times the torus character of
the reflected weight.  The sum runs over all of W in one pass on the arrays
of ``lie.weyl_group``: one row of coefficients per element, with the rows
added in order, so the result does not depend on how a BLAS splits work.

Roots of so(1,2n+1) are e_i +- e_j for 1 <= i < j <= n+1; a root belongs to
the stabilizer of a rotation exactly when its pairing with the angle vector
(0, phi_2, ..., phi_{n+1}) lies in 2*pi*Z.  Roots pairing e_1 with a
zero-angle coordinate come in +- pairs, and each pair contributes a factor
-(nu^2 + k_j^2); this is what forces the evenness of the result, which is
verified numerically on every construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvennessError, UnsupportedRankError, ValidationError
from .lie import (
    TWO_PI,
    EllipticAngles,
    WeightVector,
    half_sum_positive_roots,
    w0_flip,
    weyl_group,
)

#: Relative size above which odd-power residuals are treated as a real failure.
EVENNESS_TOL = 1e-10

#: Absolute tolerance for the "pairing lies in 2*pi*Z" stabilizer test.
STABILIZER_TOL = 1e-9


@dataclass(frozen=True)
class EvenPolynomial:
    """Polynomial in nu^2 with complex coefficients.

    ``coeffs[k]`` multiplies nu^{2k} when the polynomial is evaluated along
    the spectral line (i.e. as a function of the real parameter nu).
    ``even_residual`` records the largest odd-power coefficient, relative to
    the largest coefficient, observed when the polynomial was constructed.
    """

    coeffs: tuple[complex, ...]
    even_residual: float = 0.0

    def __post_init__(self):
        if not self.coeffs:
            object.__setattr__(self, "coeffs", (0j,))

    @property
    def degree(self) -> int:
        """Degree in nu (twice the index of the last nonzero coefficient)."""
        for k in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[k] != 0:
                return 2 * k
        return 0

    def __call__(self, nu) -> complex:
        """Value along the spectral line at parameter nu."""
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * nu * nu + c
        return acc

    def antiderivative(self, s) -> complex:
        """Coefficientwise antiderivative int_0^s of sum_k c_k x^{2k}."""
        acc = 0j
        for k in range(len(self.coeffs) - 1, -1, -1):
            acc = acc * s * s + self.coeffs[k] / (2 * k + 1)
        return acc * s

    def gaussian_transform(self, t: float) -> complex:
        """Integral over the real line against exp(-t*nu^2).

        Closed form via Gaussian moments: int nu^{2k} e^{-t nu^2} d nu
        = Gamma(k + 1/2) * t^{-(k + 1/2)}.
        """
        if t <= 0:
            raise ValidationError("Gaussian transform needs t > 0")
        return sum(
            c * math.gamma(k + 0.5) * t ** (-(k + 0.5))
            for k, c in enumerate(self.coeffs)
        )

    def scaled(self, factor) -> "EvenPolynomial":
        return EvenPolynomial(
            tuple(c * factor for c in self.coeffs), self.even_residual
        )

    def max_abs_coeff(self) -> float:
        return max(abs(c) for c in self.coeffs)

    def coeff_gap(self, other: "EvenPolynomial") -> float:
        """Max coefficientwise absolute difference."""
        m = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0j] * (m - len(self.coeffs))
        b = list(other.coeffs) + [0j] * (m - len(other.coeffs))
        return max(abs(x - y) for x, y in zip(a, b))


def ambient_positive_roots(n: int) -> np.ndarray:
    """e_i +- e_j, 1 <= i < j <= n+1, as rows of coefficients over
    (e_1, ..., e_{n+1})."""
    roots = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            for sign in (-1, 1):
                vec = [0] * (n + 1)
                vec[i] = 1
                vec[j] = sign
                roots.append(vec)
    return np.array(roots, dtype=np.int64).reshape(-1, n + 1)


def stabilizer_roots(angles: EllipticAngles, n: int) -> np.ndarray:
    """The rows of ``ambient_positive_roots`` whose pairing with
    (0, phi_2, ..., phi_{n+1}) lies in 2*pi*Z; these are the directions
    along which the rotation fails to be regular."""
    if len(angles) != n:
        raise ValidationError("angle tuple must have length n")
    roots = ambient_positive_roots(n)
    pairing = roots[:, 1:] @ np.array(angles.angles)
    fixed = np.abs(pairing - TWO_PI * np.round(pairing / TWO_PI)) < STABILIZER_TOL
    return roots[fixed]


def orbital_polynomial(
    sigma: WeightVector, angles: EllipticAngles, n: int
) -> EvenPolynomial:
    """Even polynomial weighting the principal-series characters in the
    contribution of one elliptic rotation class.

    For each Weyl element s, the reflected shifted weight k = s(sigma+delta)
    is paired against every stabilizer root (with the noncompact component
    -i*nu*e_1 kept symbolic in nu), the factors are multiplied out, and the
    result is weighted by det(s) times the torus character of -k at the
    rotation.  The global normalization constant of the underlying integral
    transform is not included.

    Raises :class:`EvennessError` if the odd-power residuals of the expanded
    sum exceed ``EVENNESS_TOL`` relative to the largest coefficient.
    """
    if sigma.rank != n or len(angles) != n:
        raise ValidationError("weight, angles and rank must agree")
    if not sigma.is_dominant():
        raise ValidationError(f"weight {sigma} is not dominant")
    mu = np.array((sigma + half_sum_positive_roots(n)).doubled) / 2.0
    roots = stabilizer_roots(angles, n)
    perm, signs, det = weyl_group(n)
    # (s.mu)[j] = signs[j] * mu[perm^{-1}(j)]
    k = signs * mu[np.argsort(perm, axis=1)]
    # <-k - i*nu*e_1, alpha> = const - i*nu*alpha_1 with alpha_1 in {0, 1};
    # each const is a sum of two half-integers, so exact
    consts = -(k @ roots[:, 1:].T)
    noncompact = roots[:, 0] != 0
    # cols[j] holds the coefficient of (-i*nu)^j, so the products stay real
    cols = [consts[:, ~noncompact].prod(axis=1)]
    for c in consts[:, noncompact].T:
        cols = [x * c + y for x, y in zip(cols + [0.0], [0.0] + cols)]
    weights = det * np.exp(-1j * np.einsum("wj,j->w", k, np.array(angles.angles)))
    total = (weights[:, None] * np.column_stack(cols)).sum(axis=0, initial=0)
    total *= (-1j) ** np.arange(len(total))

    scale = float(np.max(np.abs(total)))
    if scale == 0.0:
        return EvenPolynomial((0j,), 0.0)
    odd = total[1::2]
    residual = float(np.max(np.abs(odd))) / scale if odd.size else 0.0
    if residual > EVENNESS_TOL:
        raise EvennessError(
            f"odd-power residual {residual:.3e} exceeds {EVENNESS_TOL:g}; "
            "the construction is inconsistent for these conventions"
        )
    even = total[0::2]
    # drop trailing zeros but keep at least the constant term
    last = len(even)
    while last > 1 and abs(even[last - 1]) <= EVENNESS_TOL * scale:
        last -= 1
    return EvenPolynomial(tuple(even[:last]), residual)


def plancherel_polynomial(sigma: WeightVector, n: int) -> EvenPolynomial:
    """Plancherel density polynomial for the identity contribution.

    Supported for n = 1 only, where the density attached to the SO(2)
    character of weight k is (nu^2 + k^2) / (4 pi^2); at k = 0 its Gaussian
    transform is the free leading heat coefficient (4 pi t)^{-3/2}.
    """
    if n != 1:
        raise UnsupportedRankError(
            "closed-form Plancherel polynomials are only available for rank 1"
        )
    if sigma.rank != 1:
        raise ValidationError("weight rank must match n = 1")
    k = float(sigma.coords[0])
    c = 1.0 / (4.0 * math.pi**2)
    return EvenPolynomial((complex(k * k * c), complex(c)))


def weyl_A_invariance_gap(
    sigma: WeightVector, angles: EllipticAngles, n: int
) -> float:
    """Max coefficientwise difference between the orbital polynomials of a
    weight and of its last-coordinate flip."""
    p = orbital_polynomial(sigma, angles, n)
    q = orbital_polynomial(w0_flip(sigma), angles, n)
    return p.coeff_gap(q)
