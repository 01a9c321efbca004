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
from fractions import Fraction
from itertools import permutations, product
from typing import NamedTuple

import mpmath
import numpy as np
import pytest

from selberg.geometry import GroupSpec, LengthSpectrum, SpectrumColumns
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


def _pauli_hermitian(x) -> np.ndarray:
    """X(x) = x0 I + x1 s1 + x2 s2 + x3 s3, whose determinant is -<x, x>."""
    return np.array([[x[0] + x[3], x[1] - 1j * x[2]], [x[1] + 1j * x[2], x[0] - x[3]]])


def lorentz_to_sl2c(lorentz: np.ndarray) -> np.ndarray:
    """A unit-determinant lift A of an orientation-preserving Lorentz matrix:
    A X(e_k) = X(L e_k) adj(A)* for each basis vector e_k, a real-linear
    32 x 8 system in the real and imaginary parts of A, solved by SVD."""
    rows = []
    for k in range(4):
        x, y = _pauli_hermitian(np.eye(4)[k]), _pauli_hermitian(lorentz[:, k])
        columns = []
        for unit in np.eye(8):
            a = (unit[:4] + 1j * unit[4:]).reshape(2, 2)
            adj = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]])
            columns.append((a @ x - y @ adj.conj().T).ravel())
        block = np.array(columns).T
        rows += [block.real, block.imag]
    null = np.linalg.svd(np.vstack(rows))[2][-1]
    a = (null[:4] + 1j * null[4:]).reshape(2, 2)
    return a / np.sqrt(np.linalg.det(a))


#: the Coxeter exponents m_ij of the [5,3,4] tetrahedron: m01 = 5, m12 = 3,
#: m23 = 4, every other m = 2
COXETER_534_M = np.array([[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 4], [2, 2, 4, 1]], dtype=float)


def coxeter_534_gram_normals() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Gram matrix G = -cos(pi/m_ij) of the [5,3,4] tetrahedron, its
    face normals e_i (rows) and the metric J, with <e_i, e_j> = G_ij.

    G has one negative eigenvalue; from G = U diag(lam) U^T the rows of
    U |lam|^(1/2) are the normals in the metric J = diag(sign lam), the
    time coordinate first.
    """
    gram = -np.cos(np.pi / COXETER_534_M)
    lam, u = np.linalg.eigh(gram)
    assert np.count_nonzero(lam < 0) == 1
    order = np.argsort(lam)  # the negative eigenvalue first
    lam, u = lam[order], u[:, order]
    return gram, u * np.sqrt(np.abs(lam)), np.diag(np.sign(lam))


def coxeter_534_spec() -> GroupSpec:
    """The rotation subgroup of the compact Coxeter tetrahedron group
    [5,3,4] in SL(2,C), generated by a = r0 r1, b = r1 r2 and c = r2 r3 of
    orders 5, 3 and 4, where r_i = I - 2 e_i e_i^T J is the reflection in
    face i (``coxeter_534_gram_normals``)."""
    _, normals, metric = coxeter_534_gram_normals()
    refl = [np.eye(4) - 2.0 * np.outer(e, e) @ metric for e in normals]
    rotations = [refl[0] @ refl[1], refl[1] @ refl[2], refl[2] @ refl[3]]
    return GroupSpec(model="H3-complex-2x2",
                     generators=[lorentz_to_sl2c(r) for r in rotations], name="coxeter-534")


def orthoscheme_volume(alpha: float, beta: float, gamma: float) -> float:
    """Volume of the hyperbolic orthoscheme with essential angles alpha,
    beta and gamma, by Lobachevsky's formula (Kellerhals, Math. Ann. 285,
    1989), with Lobachevsky's function L(x) = Cl_2(2x)/2 from mpmath:

        vol = (L(a+d) - L(a-d) + L(c+d) - L(c-d) - L(pi/2-b+d)
               + L(pi/2-b-d) + 2 L(pi/2-d)) / 4,

    where tan d = sqrt(cos^2 b - sin^2 a sin^2 c) / (cos a cos c)."""
    def lob(x):
        return mpmath.clsin(2, 2 * x) / 2

    a, b, c = (mpmath.mpf(x) for x in (alpha, beta, gamma))
    d = mpmath.atan(mpmath.sqrt(mpmath.cos(b) ** 2 - mpmath.sin(a) ** 2 * mpmath.sin(c) ** 2)
                    / (mpmath.cos(a) * mpmath.cos(c)))
    half_pi = mpmath.pi / 2
    return float((lob(a + d) - lob(a - d) + lob(c + d) - lob(c - d) - lob(half_pi - b + d)
                  + lob(half_pi - b - d) + 2 * lob(half_pi - d)) / 4)


def klein_tetrahedron_volume(gram, normals, metric, points: int = 20) -> float:
    """Hyperbolic volume of the tetrahedron with face normals ``normals``
    (Gram matrix ``gram`` in the metric ``metric``): the integral of the
    Klein-model volume element (1 - |x|^2)^-2 over the straight tetrahedron,
    by Gauss-Legendre quadrature in collapsed coordinates.

    The vertices are the rows of G^-1 applied to the normals, normalised to
    <v, v> = -1 and divided by their time coordinate.  The unit cube maps to
    the tetrahedron through barycentric weights u, (1-u) v, (1-u)(1-v) w,
    with Jacobian (1-u)^2 (1-v) times six times the Euclidean volume."""
    v = np.linalg.inv(gram) @ normals
    v /= np.sqrt(-np.einsum("ij,jk,ik->i", v, metric, v))[:, None]
    klein = v[:, 1:] / v[:, :1]
    nodes, weights = np.polynomial.legendre.leggauss(points)
    nodes, weights = (nodes + 1.0) / 2.0, weights / 2.0
    u, s, w = np.meshgrid(nodes, nodes, nodes, indexing="ij")
    bary = np.stack([u, (1 - u) * s, (1 - u) * (1 - s) * w], -1)
    edges = klein[1:] - klein[0]
    x = klein[0] + bary @ edges
    density = (1.0 - np.einsum("...i,...i", x, x)) ** -2 * (1 - u) ** 2 * (1 - s)
    weight = np.einsum("i,j,k->ijk", weights, weights, weights)
    return float(abs(np.linalg.det(edges)) * np.sum(weight * density))


# ---------------------------------------------------------------------------
# synthetic spectra


class ClassRow(NamedTuple):
    """One class in ``SpectrumColumns`` field order; ``D`` is None where a
    class has none."""

    kind: str
    length: float
    primitive_length: float
    power: int
    angles: tuple
    D: float | None
    v: Fraction
    tr_chi: complex
    word: tuple
    ambiguous: bool


def class_row(kind, length, angles, power=1, primitive_length=None, D=None, v=1,
              tr_chi=1.0, word=(), ambiguous=False) -> ClassRow:
    """A class row; l0 defaults to l / power."""
    v = Fraction(v)
    l0 = length / power if primitive_length is None else primitive_length
    return ClassRow(kind, length, l0, power, tuple(angles), D, v, complex(tr_chi), tuple(word),
                    ambiguous)


def synthetic_spectrum(rows=(), spec_hash="synthetic", cutoff=10.0, max_word_len=0,
                       model="H3-complex-2x2") -> LengthSpectrum:
    """The spectrum of ``rows`` through ``SpectrumColumns.from_rows``."""
    columns = SpectrumColumns.from_rows(
        [row._replace(D=math.nan if row.D is None else row.D) for row in rows])
    return LengthSpectrum(columns, spec_hash, cutoff, max_word_len, model)


def spectrum_rows(columns: SpectrumColumns) -> list[ClassRow]:
    """The rows of ``columns`` as ``ClassRow``, in their order."""
    fields = [column.tolist() for column in columns]
    fields[4], fields[8] = columns.angle_tuples(), columns.word_tuples()
    fields[5] = [None if math.isnan(d) else d for d in fields[5]]
    return [ClassRow(*row) for row in zip(*fields)]


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


def axis_fixer_oracle(witnesses, ball, tol: float = 1e-8) -> list[tuple[int, float]]:
    """(m, l0) for each hyperbolic witness: m counts the ball elements that
    fix both Moebius fixed points of the witness and are not hyperbolic, the
    identity included, and l0 is the shortest translation length of the
    hyperbolic ones.  One element at a time in Python: the fixed points
    [z : w] come from the quadratic formula on the witness's entries, and
    [[a, b], [c, d]] fixes [z : w] when -c z^2 + (a - d) z w + b w^2 = 0 up
    to the size of its terms; kinds and lengths come from each trace."""
    quadratics, lengths = [], []
    for m in ball:
        (a, b), (c, d) = (tuple(complex(x) for x in row) for row in np.asarray(m))
        quadratics.append((-c, a - d, b, abs(c), abs(a - d), abs(b)))
        tr, root = a + d, cmath.sqrt((a + d) ** 2 - 4.0)
        lam = max((tr + root) / 2.0, (tr - root) / 2.0, key=abs)
        lengths.append(2.0 * math.log(abs(lam)) if abs(lam) > 1.0 + 1e-8 else 0.0)
    out = []
    for wit in witnesses:
        (a, b), (c, d) = (tuple(complex(x) for x in row) for row in np.asarray(wit))
        root = cmath.sqrt((a + d) ** 2 - 4.0)
        if abs(c) >= abs(b):  # [z : 1] with c z^2 - (a - d) z - b = 0
            points = [((a - d + s * root) / (2.0 * c), 1.0) for s in (1, -1)]
        else:  # [1 : w] with b w^2 + (a - d) w - c = 0
            points = [(1.0, (d - a + s * root) / (2.0 * b)) for s in (1, -1)]
        (zz0, zw0, ww0), (zz1, zw1, ww1) = ((z * z, z * w, w * w) for z, w in points)
        rotations, l0 = 0, math.inf
        for (p, q, r, sp, sq, sr), length in zip(quadratics, lengths):
            if (abs(p * zz0 + q * zw0 + r * ww0)
                    <= tol * (sp * abs(zz0) + sq * abs(zw0) + sr * abs(ww0))
                    and abs(p * zz1 + q * zw1 + r * ww1)
                    <= tol * (sp * abs(zz1) + sq * abs(zw1) + sr * abs(ww1))):
                if length:
                    l0 = min(l0, length)
                else:
                    rotations += 1
        out.append((rotations, l0))
    return out


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
