"""Exact root-system, Weyl-group, weight and character arithmetic for so(2n).

Coordinates are the standard basis functionals e_2, ..., e_{n+1} on the
compact Cartan subalgebra of so(2n) sitting inside so(1,2n+1); the extra
noncompact functional e_1 never enters here (the orbital layer handles it
symbolically).  The Weyl group is type D_n: permutations of the coordinates
combined with an even number of sign changes.  ``weyl_group`` lists it as
int8 permutation, sign and determinant arrays, one row per element, for
``lie weyl``; no sum in the package runs over all of W.

Weights are stored as doubled integers so half-integral (spin-type) weights
stay exact; all Weyl-group arithmetic is exact integer arithmetic, and
floating point appears only when a character is evaluated at rotation
angles.  Torus characters use the unimodular convention

    xi_Omega(angles) = exp(i * sum_j k_j * phi_j),

so that SO(2) blocks give the standard circle characters.

Irreducible characters are the bialternant A_{lambda+delta} / A_delta
(Fulton & Harris, *Representation Theory*, Lecture 24).  Splitting the
alternating sum over W(D_n) by the parity of the sign changes gives

    A_mu(phi) = 1/2 [det(2 cos(mu_j phi_i)) + det(2i sin(mu_j phi_i))],
    A_delta(phi) = prod_{i<j} (2 cos phi_i - 2 cos phi_j),

so characters enumerate no Weyl-group element and have no rank limit.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

import numpy as np

from .errors import NonRegularElementError, ValidationError

TWO_PI = 2.0 * math.pi

#: Denominators smaller than this trip the non-regular-element guard.
REGULARITY_TOL = 1e-12

#: largest rank of ``weyl_group`` (2^5 6! = 23040 elements) and of orbital polynomials
MAX_WEYL_RANK = 6

#: i^n, indexed by n mod 4
_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)


@dataclass(frozen=True)
class WeightVector:
    """Highest weight (k_2, ..., k_{n+1}) with entries in (1/2)Z.

    ``doubled`` holds 2*k_j as plain integers; all entries must share one
    parity (all even: integral SO(2n) weight, all odd: half-integral
    spin-type weight, accepted but flagged).
    """

    doubled: tuple[int, ...]

    def __post_init__(self):
        if not self.doubled:
            raise ValidationError("weight needs at least one coordinate")
        if not all(isinstance(d, int) for d in self.doubled):
            raise ValidationError("doubled coordinates must be integers")
        parities = {d % 2 for d in self.doubled}
        if len(parities) > 1:
            raise ValidationError(
                "coordinates must be all integral or all half-integral: "
                f"{self}"
            )

    @property
    def rank(self) -> int:
        return len(self.doubled)

    @property
    def is_spin_type(self) -> bool:
        return self.doubled[0] % 2 == 1

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(d, 2) for d in self.doubled)

    def is_dominant(self) -> bool:
        """k_2 >= ... >= k_n >= |k_{n+1}| (vacuous for rank 1)."""
        d = self.doubled
        n = len(d)
        if n == 1:
            return True
        return all(d[i] >= d[i + 1] for i in range(n - 2)) and d[n - 2] >= abs(d[n - 1])

    def __add__(self, other: "WeightVector") -> "WeightVector":
        if self.rank != other.rank:
            raise ValidationError("rank mismatch in weight addition")
        return WeightVector(tuple(a + b for a, b in zip(self.doubled, other.doubled)))

    def __str__(self) -> str:
        return ",".join(format_half_integer(Fraction(d, 2)) for d in self.doubled)

    @classmethod
    def from_coords(cls, values) -> "WeightVector":
        doubled = []
        for v in values:
            f = Fraction(v) * 2
            if f.denominator != 1:
                raise ValidationError(f"coordinate {v} is not a half-integer")
            doubled.append(int(f))
        return cls(tuple(doubled))

    @classmethod
    def parse(cls, text: str) -> "WeightVector":
        """Parse a comma-separated half-integer string like ``3/2,1/2,-1/2``."""
        parts = [p.strip() for p in text.split(",")]
        if not parts or any(not p for p in parts):
            raise ValidationError(f"malformed weight string: {text!r}")
        try:
            return cls.from_coords(Fraction(p) for p in parts)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"malformed weight string: {text!r}") from exc


def format_half_integer(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def normalize_angles(angles) -> np.ndarray:
    """Rotation angles as a float array of the same shape, each reduced into
    [0, 2pi).  Values within 1e-12 of 0 or 2pi are snapped to an exact 0,
    so exact zero keeps its meaning of "trivial block".  A non-finite angle
    is a ValidationError."""
    a = np.asarray(angles, dtype=float)
    bad = a[~np.isfinite(a)]
    if bad.size:
        raise ValidationError(f"angles must be finite, got {float(bad[0])}")
    a = a % TWO_PI
    return np.where((abs(a) < 1e-12) | (abs(a - TWO_PI) < 1e-12), 0.0, a)


@dataclass(frozen=True)
class EllipticAngles:
    """Rotation angles of an elliptic normal form, ordered e_2..e_{n+1}.

    Entries are normalised by ``normalize_angles``: they live in [0, 2pi),
    an exact 0 marks a trivial rotation block, and a non-finite angle is a
    ValidationError.
    """

    angles: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "angles", tuple(normalize_angles(self.angles).tolist()))

    def __iter__(self):
        return iter(self.angles)

    def __len__(self):
        return len(self.angles)

    @property
    def rank(self) -> int:
        return len(self.angles)

    def __str__(self) -> str:
        return ",".join(f"{a:.17g}" for a in self.angles)

    @classmethod
    def parse(cls, text: str) -> "EllipticAngles":
        return cls(tuple(parse_angle(p) for p in text.split(",")))


_PI_RE = re.compile(r"^([+-]?\d*)pi(?:/(\d+))?$")


def parse_angle(token: str) -> float:
    """Parse one angle: a decimal, or a rational multiple of pi like ``2pi/3``."""
    token = token.strip().replace(" ", "")
    m = _PI_RE.match(token)
    if m:
        coef_s, den_s = m.groups()
        if coef_s in ("", "+"):
            coef = 1
        elif coef_s == "-":
            coef = -1
        else:
            coef = int(coef_s)
        den = int(den_s) if den_s else 1
        if den == 0:
            raise ValidationError(f"zero denominator in angle {token!r}")
        return math.pi * coef / den
    try:
        return float(token)
    except ValueError as exc:
        raise ValidationError(f"cannot parse angle {token!r}") from exc


@lru_cache(maxsize=None)
def half_sum_positive_roots(n: int) -> WeightVector:
    """Half-sum of the positive roots of so(2n): coordinate j holds n+1-j.

    In the e_2..e_{n+1} coordinates this is (n-1, n-2, ..., 1, 0).
    """
    if n < 1:
        raise ValidationError("rank must be at least 1")
    return WeightVector(tuple(2 * (n - 1 - i) for i in range(n)))


def weyl_group_order(n: int) -> int:
    """2^{n-1} n!, the order of W(D_n), for the ranks ``weyl_group`` takes."""
    if not 1 <= n <= MAX_WEYL_RANK:
        raise ValidationError(f"rank must be between 1 and {MAX_WEYL_RANK}, got {n}")
    return 2 ** (n - 1) * math.factorial(n)


@lru_cache(maxsize=None)
def weyl_group(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All 2^{n-1} n! elements of W(D_n) as read-only int8 arrays
    ``(perm, signs, det)`` of shapes (|W|, n), (|W|, n) and (|W|,).

    Row w acts on a coordinate vector x by (w.x)[perm[w, i]] =
    signs[w, perm[w, i]] * x[i]: coordinate i moves to slot perm[w, i], and
    signs[w] (an even number of -1) is attached to the target slots, so
    det = sign(perm).  Rows list the permutations in ``itertools.permutations``
    order and, inside each, the even sign patterns in ``product((1, -1))``
    order.
    """
    weyl_group_order(n)  # the rank check
    perms = np.array(list(permutations(range(n))), dtype=np.int8).reshape(-1, n)
    patterns = np.array(list(product((1, -1), repeat=n)), dtype=np.int8)
    patterns = patterns[np.count_nonzero(patterns < 0, axis=1) % 2 == 0]
    perm = np.repeat(perms, len(patterns), axis=0)
    signs = np.tile(patterns, (len(perms), 1))
    upper, lower = np.triu_indices(n, 1)
    inversions = np.count_nonzero(perm[:, upper] > perm[:, lower], axis=1)
    det = np.where(inversions % 2 == 0, np.int8(1), np.int8(-1))
    for a in (perm, signs, det):
        a.flags.writeable = False
    return perm, signs, det


def w0_flip(w: WeightVector) -> WeightVector:
    """Restricted-Weyl-group action on weights: negate the last coordinate."""
    return WeightVector(w.doubled[:-1] + (-w.doubled[-1],))


def torus_character(weight: WeightVector, angles: EllipticAngles) -> complex:
    """xi_Omega at a rotation: exp(i * sum_j k_j phi_j).

    Only the compact coordinates enter; any e_1 component of an ambient
    weight is irrelevant here and handled by the caller.
    """
    if weight.rank != len(angles):
        raise ValidationError("rank mismatch between weight and angles")
    phase = math.fsum(
        d * a for d, a in zip(weight.doubled, angles.angles)
    ) / 2.0
    return cmath.exp(1j * phase)


def weyl_character(
    weight: WeightVector, angles: "EllipticAngles | np.ndarray"
) -> complex | np.ndarray:
    """Trace of the irreducible SO(2n)-representation with highest weight
    ``weight`` at the rotation with the given angles, or an array of traces
    for an (N, n) array of angles (normalised by ``normalize_angles``, as
    ``EllipticAngles`` is).  ``weight`` must be dominant.

    The bialternant A_{weight+delta} / A_delta of the module docstring,
    with one stacked determinant for the whole batch.  Requires regular
    rotations: a denominator below REGULARITY_TOL raises
    :class:`NonRegularElementError`.
    """
    n = weight.rank
    scalar = isinstance(angles, EllipticAngles)
    phi = np.array([angles.angles], dtype=float) if scalar else normalize_angles(angles)
    if phi.ndim != 2 or phi.shape[1] != n:
        raise ValidationError("rank mismatch between weight and angles")
    if not weight.is_dominant():
        raise ValidationError(f"weight {weight} is not dominant")
    x = 2.0 * np.cos(phi)
    upper, lower = np.triu_indices(n, 1)
    den = np.prod(x[:, upper] - x[:, lower], axis=1)
    singular = np.flatnonzero(np.abs(den) < REGULARITY_TOL)
    if singular.size:
        k = int(singular[0])
        raise NonRegularElementError(
            f"non-regular element at angles {','.join(f'{a:.17g}' for a in phi[k])}: "
            f"character denominator {abs(den[k]):.3e} below {REGULARITY_TOL:g}; "
            "perturb the angles or use a limit"
        )
    mu = 0.5 * np.array((weight + half_sum_positive_roots(n)).doubled, dtype=float)
    cos_det, sin_det = _alternants(phi[:, :, None] * mu)  # arg[b, i, j] = mu_j phi_i
    values = 0.5 * (cos_det + _I_POWERS[n % 4] * sin_det) / den
    return values[0].item() if scalar else values


def _alternants(arg: np.ndarray) -> np.ndarray:
    """Stacked det(2 cos arg) and det(2 sin arg): the sign halves of a D_n alternant."""
    return np.linalg.det(2.0 * np.array((np.cos(arg), np.sin(arg))))
