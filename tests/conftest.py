"""Shared fixtures: concrete groups and independent oracles.

Oracles here deliberately avoid the package's code paths: characters come
from explicit rotation matrices, orbital sums from pointwise complex
products over a W(D_n) listed from itertools, distances from
upper-half-space minimization, dedup counts from pairwise comparison.
"""

from __future__ import annotations

import cmath
import math
import random
from itertools import permutations, product

import numpy as np
import pytest

from selberg.geometry import GroupSpec
from selberg.lie import (
    EllipticAngles,
    WeightVector,
    half_sum_positive_roots,
    w0_flip,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# concrete groups


def cyclic_h3_spec(length: float = 2.0, theta: float = 0.0, chi=None) -> GroupSpec:
    """<diag(e^{(l+i theta)/2}, e^{-(l+i theta)/2})> acting on H^3."""
    half = (length + 1j * theta) / 2.0
    g = np.diag([cmath.exp(half), cmath.exp(-half)])
    return GroupSpec(model="H3-complex-2x2", generators=[g], chi=chi)


def elliptic_order3_matrix() -> np.ndarray:
    return np.diag([cmath.exp(1j * math.pi / 3), cmath.exp(-1j * math.pi / 3)])


def triangle_237_spec() -> GroupSpec:
    """Orientation-preserving (2,3,7) triangle group in SL(2,R).

    x is a half-turn at i; y is a third-turn at distance d along the
    imaginary axis, with cosh d = cos(pi/7)/sin(pi/3) making xy of order 7.
    """
    x = np.array([[0.0, 1.0], [-1.0, 0.0]])
    beta = math.pi / 3.0
    d = math.acosh(math.cos(math.pi / 7.0) / math.sin(beta))
    e = math.exp(d / 2.0)
    t = np.diag([e, 1.0 / e])
    r = np.array([[math.cos(beta), math.sin(beta)], [-math.sin(beta), math.cos(beta)]])
    y = t @ r @ np.linalg.inv(t)
    return GroupSpec(model="H2-real-2x2", generators=[x, y])


def schottky_spec(lam: float = 3.0, chi=None, **kwargs) -> GroupSpec:
    """Free purely hyperbolic two-generator group: a diagonal boost and its
    conjugate by a quarter-turn."""
    a = np.diag([lam, 1.0 / lam])
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    r = np.array([[c, -s], [s, c]])
    b = r @ a @ np.linalg.inv(r)
    return GroupSpec(model="H2-real-2x2", generators=[a, b], chi=chi, **kwargs)


# ---------------------------------------------------------------------------
# random case generators


def random_dominant(rng: random.Random, n: int, max_entry: int = 6, spin: bool = False) -> WeightVector:
    base = sorted((rng.randrange(0, max_entry) for _ in range(n)), reverse=True)
    doubled = [2 * b + (1 if spin else 0) for b in base]
    if n >= 2 and rng.random() < 0.5:
        doubled[-1] = -doubled[-1]
    return WeightVector(tuple(doubled))


def random_flip_moved_dominant(rng: random.Random, n: int) -> WeightVector:
    """A dominant weight that the flip w0 moves, i.e. with last entry != 0.

    A weight with last entry 0 is fixed by the flip, so its invariance gap
    is trivially 0; such a draw is shifted by (1, ..., 1), which adds 2 to
    every doubled entry and so keeps them sorted and of one parity.
    """
    sigma = random_dominant(rng, n)
    if sigma.doubled[-1] == 0:
        sigma = WeightVector(tuple(d + 2 for d in sigma.doubled))
    assert sigma.is_dominant() and w0_flip(sigma) != sigma, sigma
    return sigma


def random_angles(
    rng: random.Random, n: int, zero_slots: int = 0, degenerate: bool = False
) -> EllipticAngles:
    vals = [rng.uniform(0.15, TWO_PI - 0.15) for _ in range(n)]
    if degenerate and n >= 2 and rng.random() < 0.5:
        vals[1] = vals[0]  # equal-angle degeneracy
    slots = rng.sample(range(n), min(zero_slots, n))
    for i in slots:
        vals[i] = 0.0
    return EllipticAngles(tuple(vals))


# ---------------------------------------------------------------------------
# oracles


def weyl_dn(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """W(D_n) from itertools: (perm, signs, det) for every permutation and
    even sign pattern, permutations outermost; det = (-1)^inversions."""
    out = []
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        for signs in product((1, -1), repeat=n):
            if signs.count(-1) % 2 == 0:
                out.append((perm, signs, (-1) ** inversions))
    return out


def weyl_act(perm, signs, w) -> tuple:
    """Coordinate i of w moves to slot perm[i], which carries signs[perm[i]]."""
    out = [0] * len(w)
    for i, t in enumerate(perm):
        out[t] = signs[t] * w[i]
    return tuple(out)


def brute_orbital_values(sigma: WeightVector, angles, n: int, nus) -> list[complex]:
    """Pointwise Weyl-sum evaluation at each nu: numeric inner products, no
    expansion, over the W(D_n) of ``weyl_dn``."""
    delta = half_sum_positive_roots(n)
    shifted = [d / 2.0 for d in (sigma + delta).doubled]
    vec = (0.0,) + tuple(angles)
    roots = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            for sgn in (-1, 1):
                root = [0] * (n + 1)
                root[i] = 1
                root[j] = sgn
                pairing = sum(c * v for c, v in zip(root, vec))
                if abs(pairing - TWO_PI * round(pairing / TWO_PI)) < 1e-9:
                    roots.append(tuple(root))
    totals = [0j] * len(nus)
    for perm, signs, det in weyl_dn(n):
        k = weyl_act(perm, signs, shifted)
        char = cmath.exp(-1j * sum(x * a for x, a in zip(k, tuple(angles))))
        for m, nu in enumerate(nus):
            w = [-1j * nu] + [-x for x in k]
            prod = 1 + 0j
            for root in roots:
                prod *= sum(c * wc for c, wc in zip(root, w))
            totals[m] += det * prod * char
    return totals


def brute_orbital_value(sigma: WeightVector, angles, n: int, nu: float) -> complex:
    return brute_orbital_values(sigma, angles, n, [nu])[0]


def block_rotation_trace(angles) -> float:
    """Trace of the explicit 2n x 2n block-rotation matrix."""
    m = np.zeros((2 * len(tuple(angles)), 2 * len(tuple(angles))))
    for j, a in enumerate(angles):
        c, s = math.cos(a), math.sin(a)
        m[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = [[c, s], [-s, c]]
    return float(np.trace(m))


def halfspace_apply(g: np.ndarray, z: complex, t: float) -> tuple[complex, float]:
    """Action of SL(2,C) on upper half space (z, t), t > 0."""
    a, b, c, d = g[0, 0], g[0, 1], g[1, 0], g[1, 1]
    den = abs(c * z + d) ** 2 + abs(c) ** 2 * t * t
    z2 = ((a * z + b) * (c * z + d).conjugate() + a * c.conjugate() * t * t) / den
    return z2, t / den


def halfspace_distance(p: tuple[complex, float], q: tuple[complex, float]) -> float:
    zp, tp = p
    zq, tq = q
    return math.acosh(1.0 + (abs(zp - zq) ** 2 + (tp - tq) ** 2) / (2.0 * tp * tq))


def displacement_infimum(g: np.ndarray) -> float:
    """Numeric minimization of d(x, g x) over upper half space."""
    from scipy.optimize import minimize

    def cost(params):
        x, y, logt = params
        z, t = complex(x, y), math.exp(logt)
        return halfspace_distance((z, t), halfspace_apply(g, z, t))

    best = math.inf
    for start in ((0.0, 0.0, 0.0), (0.3, -0.2, 0.5), (-0.5, 0.6, -0.7), (1.0, 1.0, 1.0)):
        res = minimize(cost, start, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000})
        best = min(best, float(res.fun))
    return best


def pairwise_dedupe_count(matrices) -> int:
    """Hash-free projective dedup by quadratic pairwise comparison."""
    reps = []
    for m in matrices:
        if not any(
            np.max(np.abs(m - r)) < 1e-6 or np.max(np.abs(m + r)) < 1e-6
            for r in reps
        ):
            reps.append(m)
    return len(reps)


def reduced_words(alphabet_size: int, max_len: int):
    """All reduced words over generators 1..k and inverses, up to max_len."""
    out = [()]
    frontier = [()]
    letters = [i for g in range(1, alphabet_size + 1) for i in (g, -g)]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for letter in letters:
                if w and w[-1] == -letter:
                    continue
                nxt.append(w + (letter,))
        out.extend(nxt)
        frontier = nxt
    return out


def small_h3_spectrum_csv(seed: int = 8, classes: int = 40) -> str:
    """A seeded rank-1 H^3 length-spectrum file: ``classes`` hyperbolic rows
    with powers 1-2, v in {1, 2, 1/2} and D = 2 (cosh l - cos theta), plus
    elliptic rows at the angles pi and 2 pi / 3."""
    gen = np.random.default_rng(seed)
    lines = [
        "# selberg-spectrum spec_hash=small cutoff=4 max_word_len=0 model=H3-complex-2x2",
        "kind,l,l0,power,theta,D,v,re_trchi,im_trchi,word",
        f"elliptic,0,0,1,{math.pi!r},,1,0.75,0.25,-1",
        f"elliptic,0,0,1,{2 * math.pi / 3!r},,1,-0.5,1.0,-2",
    ]
    length = np.sort(gen.uniform(0.5, 3.0, classes)).tolist()
    for i, l in enumerate(length):
        power = int(gen.integers(1, 3))
        theta = float(gen.uniform(0.0, TWO_PI))
        tr = 1.5 * cmath.exp(0.3 * l + 1j * float(gen.uniform(0.0, TWO_PI)))
        v = ("1", "2", "1/2")[i % 3]
        d = 2.0 * (math.cosh(l) - math.cos(theta))
        lines.append(
            f"hyperbolic,{l!r},{l / power!r},{power},{theta!r},{d!r},{v},"
            f"{tr.real!r},{tr.imag!r},{i + 1}"
        )
    return "\n".join(lines) + "\n"


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260809)
