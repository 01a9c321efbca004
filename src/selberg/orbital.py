"""Plancherel and elliptic orbital-integral polynomials.

The elliptic contribution to the trace formula on a compact quotient of
H^{2n+1} is governed, per rotation class, by an even polynomial in the
spectral parameter nu.  It is built from an alternating sum over the type-D
Weyl group: each summand is the product of the pairings of the shifted,
reflected weight (with its symbolic -i*nu*e_1 component) against the roots
along which the rotation fails to be regular, times the torus character of
the reflected weight.  The sum is split over the stabilizer's blocks (zero
angles; equal or opposite angles): a summand is alternating under a block's
reflections, so a block takes only its sorted index set, times |B|!, with
each sign pattern on its slots, and the other slots give real cosine and
sine alternants (60 rows at n = 6 with two zero angles, not 2^5 6! = 23040).

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
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .errors import EvennessError, NumericalGuardError, ValidationError
from .lie import (
    TWO_PI,
    EllipticAngles,
    WeightVector,
    _alternants,
    check_phases,
    half_sum_positive_roots,
    w0_flip,
    weyl_group_order,
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

    def max_abs_coeff(self) -> float:
        return max(abs(c) for c in self.coeffs)

    def coeff_gap(self, other: "EvenPolynomial") -> float:
        """Max coefficientwise absolute difference."""
        m = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0j] * (m - len(self.coeffs))
        b = list(other.coeffs) + [0j] * (m - len(other.coeffs))
        return max(abs(x - y) for x, y in zip(a, b))


@lru_cache(maxsize=None)
def ambient_positive_roots(n: int) -> np.ndarray:
    """e_i +- e_j, 1 <= i < j <= n+1, as read-only rows of coefficients over
    (e_1, ..., e_{n+1})."""
    roots = np.array([[1 if c == i else s if c == j else 0 for c in range(n + 1)] for i in range(n + 1)
                      for j in range(i + 1, n + 1) for s in (-1, 1)], dtype=np.int64).reshape(-1, n + 1)
    roots.flags.writeable = False
    return roots


def stabilizer_roots(angles: EllipticAngles, n: int) -> np.ndarray:
    """The rows of ``ambient_positive_roots`` whose pairing with
    (0, phi_2, ..., phi_{n+1}) lies in 2*pi*Z; these are the directions
    along which the rotation fails to be regular."""
    if len(angles) != n:
        raise ValidationError("angle tuple must have length n")
    roots = ambient_positive_roots(n)
    pairing = roots[:, 1:] @ np.array(angles.angles)
    fixed = np.abs(pairing - TWO_PI * np.rint(pairing / TWO_PI)) < STABILIZER_TOL
    return roots[fixed]


@lru_cache(maxsize=None)
def _block_rows(n: int, shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Read-only rows ``(index, signs, half, twist)``: index deals 0..n-1 out to
    blocks of sizes ``shape``, then to the r singleton slots, sorted in each
    part, for each sign pattern on the m block slots; half = sign(index)
    prod(|B|!) / 2 and twist = (-i)^r prod(signs)."""
    deals, m = [()], sum(shape)
    for size in shape + (n - m,):
        deals = [d + c for d in deals for c in combinations(sorted(set(range(n)) - set(d)), size)]
    index = np.array(deals, dtype=np.int64)
    patterns = np.array(list(product((1, -1), repeat=m)), dtype=np.int64)
    # a deal's sign as a permutation is the determinant of its permutation matrix
    half = np.linalg.det(np.eye(n)[index]) * math.prod(map(math.factorial, shape)) / 2
    rows = (np.repeat(index, 2**m, axis=0), np.tile(patterns, (len(deals), 1)),
            np.repeat(half, 2**m), np.tile(patterns.prod(axis=1) * (-1j) ** (n - m), len(deals)))
    for a in rows:
        a.flags.writeable = False
    return rows


def orbital_polynomial(
    sigma: WeightVector, angles: EllipticAngles, n: int
) -> EvenPolynomial:
    """Even polynomial weighting the principal-series characters in the
    contribution of one elliptic rotation class.

    For each Weyl element s, the reflected shifted weight k = s(sigma+delta)
    is paired against every stabilizer root (with the noncompact component
    -i*nu*e_1 kept symbolic in nu), the factors are multiplied out, and the
    result is weighted by det(s) times the torus character of -k at the
    rotation; the sum over s is the block split of the module docstring.
    The normalization of the underlying integral transform is not included:
    at rank 1 the missing factor is 1 / (2 pi * 4 sin^2(theta/2)), so it
    depends on the class, and at higher rank it is not yet fixed.  A
    coefficient's absolute error scales with machine epsilon times the sum
    of the absolute values of its summands.

    Raises :class:`EvennessError` if the odd-power residuals of the expanded
    sum exceed ``EVENNESS_TOL`` relative to the largest coefficient.
    """
    if sigma.rank != n or len(angles) != n:
        raise ValidationError("weight, angles and rank must agree")
    if not sigma.is_dominant():
        raise ValidationError(f"weight {sigma} is not dominant")
    weyl_group_order(n)  # the rank check
    mu = np.add(sigma.doubled, half_sum_positive_roots(n).doubled) / 2.0
    check_phases(mu, max(angles.angles))
    roots = stabilizer_roots(angles, n)
    blocks = []  # the components of the slots that the roots join
    for row in roots[:, 1:].tolist():
        ends = {j for j, c in enumerate(row) if c}
        blocks = [b for b in blocks if not b & ends] + [ends.union(*(b for b in blocks if b & ends))]
    blocks = sorted(map(sorted, blocks), key=lambda b: (-len(b), b))
    index, signs, half, twist = _block_rows(n, tuple(map(len, blocks)))
    # row w gives slot order[t] the index index[w, t], signed if t < m; flip = sign(order)
    order = [j for b in blocks for j in b]
    m, order = len(order), order + [j for j in range(n) if j not in order]
    flip = (-1) ** sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    phi = np.array([angles.angles[j] for j in order])
    k = signs * mu[index[:, :m]]
    # <-k - i*nu*e_1, alpha> = const - i*nu*alpha_1 with alpha_1 in {0, 1};
    # each const is a sum of two half-integers, so exact
    consts = -(k @ roots.take([1 + j for j in order[:m]], axis=1).T)
    noncompact = roots[:, 0] != 0
    # cols[j] holds the coefficient of (-i*nu)^j, so the products stay real
    cols = [consts[:, ~noncompact].prod(axis=1)]
    for c in consts[:, noncompact].T:
        cols = [x * c + y for x, y in zip(cols + [0.0], [0.0] + cols)]
    # the singleton slots give 1/2 [det(2 cos mu_i phi_j) + twist * det(2 sin mu_i phi_j)]
    cos_det, sin_det = _alternants(mu[index[:, m:], None] * phi[m:])
    weights = half * np.exp(-1j * (k * phi[:m]).sum(axis=1)) * (cos_det + twist * sin_det)
    total = (np.array(cols) * weights).sum(axis=1, initial=0) * (flip * (-1j) ** np.arange(len(cols)))

    scale = float(np.abs(total).max())
    if scale == 0.0:
        return EvenPolynomial((0j,), 0.0)
    odd = total[1::2]
    residual = float(np.abs(odd).max()) / scale if odd.size else 0.0
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
    """Plancherel density polynomial for the identity contribution on
    H^{2n+1}, at every rank:

        P(nu) = C_n dim(sigma) prod_a (nu^2 + mu_a^2),  mu = sigma + delta,

    with dim(sigma) = prod_{i<j} (mu_i^2 - mu_j^2) / (delta_i^2 - delta_j^2)
    and C_n = n! / (2 (2n)! pi^{n+1}): the identity value of
    ``orbital_polynomial`` up to one constant per n.  C_n makes the Gaussian
    transform of P at sigma = 0 the heat kernel of Delta - n^2 at the origin,
    k_t(0) of k_t(rho) = (-1/(2 pi sinh rho) d/d rho)^n (4 pi t)^{-1/2}
    e^{-rho^2/4t} (Davies and Mandouvalos, Proc. LMS 57, 1988); at n = 1,
    P = (nu^2 + k^2) / (4 pi^2).  Only the product with C_n is rounded; a
    coefficient past the float range is a NumericalGuardError.
    """
    if sigma.rank != n:
        raise ValidationError(f"weight rank must match n = {n}")
    if not sigma.is_dominant():
        raise ValidationError(f"weight {sigma} is not dominant")
    # doubled coordinates: each pair's factor 4 cancels in dim(sigma)
    delta = half_sum_positive_roots(n).doubled
    mu = [a + b for a, b in zip(sigma.doubled, delta)]
    dim = Fraction(math.prod(a * a - b * b for a, b in combinations(mu, 2)),
                   math.prod(a * a - b * b for a, b in combinations(delta, 2)))
    coeffs = [dim]  # of nu^{2k}
    for m in mu:
        coeffs = [x * Fraction(m * m, 4) + y for x, y in zip(coeffs + [0], [0] + coeffs)]
    c = math.factorial(n) / (2 * math.factorial(2 * n) * math.pi ** (n + 1))
    try:
        return EvenPolynomial(tuple(complex(float(x) * c) for x in coeffs))
    except OverflowError:
        raise NumericalGuardError(
            f"a Plancherel coefficient of weight {sigma} is past the float range") from None


def weyl_A_invariance_gap(
    sigma: WeightVector, angles: EllipticAngles, n: int
) -> float:
    """Max coefficientwise difference between the orbital polynomials of a
    weight and of its last-coordinate flip."""
    p = orbital_polynomial(sigma, angles, n)
    q = orbital_polynomial(w0_flip(sigma), angles, n)
    return p.coeff_gap(q)
