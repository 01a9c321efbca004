"""Reference computations that check the benchmark's outputs.

Nothing here imports ``selberg``.  Every quantity is recomputed by a route
that shares no code with the package: exact combinatorics on words, explicit
2x2 matrix products, closed forms, the D_n determinant form of the Weyl
character and pointwise Weyl sums.  Each ``check_*`` function takes the text
an op printed and returns ``None`` when it agrees, or a one-line reason.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# words and matrices


def mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def mat_inv(a):
    """Inverse of a unit-determinant 2x2 matrix."""
    return ((a[1][1], -a[0][1]), (-a[1][0], a[0][0]))


def word_trace(gens, word) -> float:
    """Trace of the product of generators (1-based, negative for inverses)."""
    m = ((1.0, 0.0), (0.0, 1.0))
    for letter in word:
        g = gens[abs(letter) - 1]
        m = mat_mul(m, g if letter > 0 else mat_inv(g))
    return m[0][0] + m[1][1]


def translation_length(gens, word) -> float:
    return 2.0 * math.acosh(abs(word_trace(gens, word)) / 2.0)


def is_cyclically_reduced(word) -> bool:
    return all(word[i] != -word[i - 1] for i in range(len(word))) if len(word) > 1 else True


def cyclic_period(word) -> int:
    n = len(word)
    for p in range(1, n + 1):
        if n % p == 0 and word == word[p:] + word[:p]:
            return p
    return n


def necklace(word) -> tuple:
    """Least rotation: one representative per cyclic word."""
    return min(word[i:] + word[:i] for i in range(len(word)))


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def free_class_count(max_len: int) -> int:
    """Nontrivial conjugacy classes of F_2 with cyclic length <= max_len:
    sum_{k<=L} (1/k) sum_{d|k} phi(k/d) (3^d + 2 + (-1)^d)."""
    total = Fraction(0)
    for k in range(1, max_len + 1):
        inner = sum(
            euler_phi(k // d) * (3**d + 2 + (-1) ** d) for d in range(1, k + 1) if k % d == 0
        )
        total += Fraction(inner, k)
    assert total.denominator == 1
    return int(total)


def triangle_elliptic_angles(p: int, q: int, r: int) -> list[float]:
    """Rotation angles of the (p-1)+(q-1)+(r-1) elliptic classes."""
    return sorted(TWO_PI * k / m for m in (p, q, r) for k in range(1, m))


# ---------------------------------------------------------------------------
# spectrum CSV (as written by ``spectrum enumerate``)


def parse_spectrum(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != "kind,l,l0,power,theta,D,v,re_trchi,im_trchi,word":
        raise ValueError("unexpected spectrum header")
    rows = []
    for ln in lines[1:]:
        kind, l, l0, power, theta, _d, _v, _re, _im, word = ln.split(",")
        rows.append(
            {
                "kind": kind,
                "l": float(l),
                "l0": float(l0),
                "power": int(power),
                "theta": float(theta.split("|")[0]) if theta else 0.0,
                "word": tuple(int(x) for x in word.split(".")) if word else (),
            }
        )
    return rows


def check_free_spectrum(text: str, gens, max_len: int) -> str | None:
    rows = parse_spectrum(text)
    want = free_class_count(max_len)
    if len(rows) != want:
        return f"{len(rows)} classes, necklace count is {want}"
    seen = set()
    for r in rows:
        w = r["word"]
        if r["kind"] != "hyperbolic":
            return f"free group record {w} is {r['kind']}"
        if not w or len(w) > max_len or not is_cyclically_reduced(w):
            return f"witness {w} is not a cyclically reduced word of length <= {max_len}"
        key = necklace(w)
        if key in seen:
            return f"two records share the cyclic word {key}"
        seen.add(key)
        power = len(w) // cyclic_period(w)
        if r["power"] != power:
            return f"witness {w} has power {power}, record says {r['power']}"
        length = translation_length(gens, w)
        if abs(r["l"] - length) > 1e-8 * max(1.0, length):
            return f"witness {w} has length {length!r}, record says {r['l']!r}"
        if abs(r["l0"] * power - r["l"]) > 1e-8 * max(1.0, length):
            return f"witness {w}: l0 * power != l"
    return None


def check_triangle_spectrum(
    text: str, gens, pqr, reference_lengths, systole: float | None
) -> str | None:
    rows = parse_spectrum(text)
    hyper = [r for r in rows if r["kind"] == "hyperbolic"]
    for r in hyper:
        length = translation_length(gens, r["word"])
        if abs(r["l"] - length) > 1e-7 * max(1.0, length):
            return f"witness {r['word']} has length {length!r}, record says {r['l']!r}"
    lengths = sorted(r["l"] for r in hyper)
    if len(lengths) != len(reference_lengths) or any(
        abs(a - b) > 1e-7 * max(1.0, b) for a, b in zip(lengths, reference_lengths)
    ):
        return "hyperbolic length multiset depends on the conjugator"
    if systole is not None and abs(lengths[0] - systole) > 1e-6:
        return f"systole {lengths[0]:.6f}, expected {systole:.6f}"
    angles = sorted(r["theta"] for r in rows if r["kind"] == "elliptic")
    want = triangle_elliptic_angles(*pqr)
    if len(angles) != len(want) or any(abs(a - b) > 1e-7 for a, b in zip(angles, want)):
        return (
            f"{len(angles)} elliptic records, expected {len(want)} rotation classes "
            f"for {pqr} (known defect: elliptic angle labels, ROADMAP item 1)"
        )
    return None


# ---------------------------------------------------------------------------
# rank-1 zeta, xi and heat terms from the synthetic records


def rank1_log_zeta(s, recs, k: float):
    """log Z(s) for sigma = (k) on H^3, and the sum of the terms' moduli;
    ``recs`` holds numpy columns."""
    s = np.asarray(s, dtype=complex)[:, None]
    trace = np.exp(1j * k * recs["theta"])
    coef = recs["trchi"] * recs["v"] * trace / (recs["power"] * np.exp(recs["l"]) * recs["D"])
    terms = coef * np.exp(-(s + 1.0) * recs["l"])
    return -np.sum(terms, axis=1), np.sum(np.abs(terms), axis=1)


def rank1_xi(s, recs, ell, k: float, vol: float, vols):
    """xi(s) for a weight moved by the flip (epsilon = 2), chi_dim = 1."""
    s = np.asarray(s, dtype=complex)
    c = 1.0 / (4.0 * math.pi**2)
    planch = k * k * c * s + c * s**3 / 3.0
    ell_sum = sum(
        tc * w * np.exp(-1j * k * th) * s for tc, w, th in zip(ell["trchi"], vols, ell["theta"])
    )
    exponent = -2.0 * math.pi * 2 * vol * planch - 2.0 * 2 * ell_sum
    return np.exp(exponent + rank1_log_zeta(s, recs, k)[0] + rank1_log_zeta(s, recs, -k)[0])


def rank1_heat(t, recs, ell, k: float, vol: float, vols):
    """Identity, elliptic and hyperbolic heat terms (epsilon = 2, chi_dim = 1),
    each as (value, sum of the terms' moduli)."""
    t = np.asarray(t, dtype=float)
    c = 1.0 / (4.0 * math.pi**2)
    sq = math.sqrt(math.pi)
    ident = 2 * vol * (k * k * c * sq * t**-0.5 + c * 0.5 * sq * t**-1.5)
    ell_terms = np.array(
        [2 * tc * w * np.exp(-1j * k * th) for tc, w, th in zip(ell["trchi"], vols, ell["theta"])]
    )[:, None] * np.sqrt(math.pi / t)[None, :]
    pair = np.exp(-1j * k * recs["theta"]) + np.exp(1j * k * recs["theta"])
    coef = recs["trchi"] * recs["v"] * recs["l0"] / (TWO_PI * recs["D"]) * pair
    gauss = np.sqrt(math.pi / t)[:, None] * np.exp(-recs["l"] ** 2 / (4.0 * t[:, None]))
    hyp_terms = coef * gauss
    return (
        (ident, np.abs(ident)),
        (ell_terms.sum(axis=0), np.abs(ell_terms).sum(axis=0)),
        (hyp_terms.sum(axis=1), np.abs(hyp_terms).sum(axis=1)),
    )


def _close(got: complex, want: complex, rel: float, scale: float | None = None) -> bool:
    """|got - want| <= rel * scale, where scale defaults to max(1, |want|); for
    a sum, pass the sum of its terms' moduli, the scale of its rounding error."""
    return abs(got - want) <= rel * (max(1.0, abs(want)) if scale is None else scale)


def _rows(text: str, header: str) -> list[list[float]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"unexpected header {lines[0] if lines else ''!r}")
    return [[float(x) for x in ln.split(",")] for ln in lines[1:]]


def check_zeta_eval(text: str, recs, k: float, points: int) -> str | None:
    rows = _rows(text, "re_s,im_s,re_logZ,im_logZ,abs_Z")
    if len(rows) != points:
        return f"{len(rows)} grid points, expected {points}"
    s = np.array([complex(r[0], r[1]) for r in rows])
    want, scale = rank1_log_zeta(s, recs, k)
    for r, w, sc in zip(rows, want, scale):
        if not _close(complex(r[2], r[3]), w, 1e-11, sc):
            return f"log Z({r[0]}) = {complex(r[2], r[3])}, oracle {w}"
        if not _close(r[4], abs(cmath.exp(w)), 1e-10, abs(cmath.exp(w))):
            return f"|Z({r[0]})| = {r[4]}, oracle {abs(cmath.exp(w))}"
    return None


def check_zeta_xi(text: str, recs, ell, k, vol, vols, s_values) -> str | None:
    rows = _rows(text, "re_s,im_s,re_xi,im_xi")
    if [r[0] for r in rows] != list(s_values):
        return "xi rows do not match the requested points"
    want = rank1_xi(np.array(s_values), recs, ell, k, vol, vols)
    for r, w in zip(rows, want):
        if w == 0 or not _close(complex(r[2], r[3]), w, 1e-9, abs(w)):
            return f"xi({r[0]}) = {complex(r[2], r[3])}, oracle {w}"
    return None


def check_heat_terms(text: str, recs, ell, k, vol, vols, t_values) -> str | None:
    rows = _rows(text, "t,re_I,im_I,re_E,im_E,re_H,im_H")
    if [r[0] for r in rows] != list(t_values):
        return "heat-term rows do not match the requested times"
    terms = rank1_heat(np.array(t_values), recs, ell, k, vol, vols)
    for i, r in enumerate(rows):
        for j, name in enumerate("IEH"):
            got = complex(r[1 + 2 * j], r[2 + 2 * j])
            want, scale = terms[j][0][i], terms[j][1][i]
            if not _close(got, want, 1e-11, scale):
                return f"heat term {name}({r[0]}) = {got}, oracle {want}"
    return None


# ---------------------------------------------------------------------------
# type-D characters and orbital polynomials


def dn_character(weight, angles) -> complex:
    """Weyl character of SO(2n) by the determinant form (Fulton-Harris,
    Lecture 24): A_mu = (det(2 cos(mu_j phi_i)) + det(2i sin(mu_j phi_i))) / 2,
    character = A_{lambda+delta} / A_delta."""
    n = len(weight)
    phi = np.asarray(angles, dtype=float)[:, None]
    delta = np.arange(n - 1, -1, -1, dtype=float)

    def alt(mu):
        x = phi * np.asarray(mu, dtype=float)[None, :]
        return 0.5 * (np.linalg.det(2.0 * np.cos(x)) + np.linalg.det(2j * np.sin(x)))

    return complex(alt(np.asarray(weight, dtype=float) + delta) / alt(delta))


def check_character(text: str, weight, angles) -> str | None:
    re_v, im_v = (float(x) for x in text.strip().split(","))
    want = dn_character(weight, angles)
    if not _close(complex(re_v, im_v), want, 1e-8):
        return f"character {complex(re_v, im_v)}, determinant form {want}"
    return None


def weyl_dn_arrays(n: int):
    """W(D_n) as (|W|, n) index, sign and determinant arrays."""
    perms, signs = [], []
    for perm in permutations(range(n)):
        for sg in product((1, -1), repeat=n):
            if sg.count(-1) % 2 == 0:
                perms.append(perm)
                signs.append(sg)
    perms = np.array(perms)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    inversions = np.sum((perms[:, :, None] > perms[:, None, :]) & upper[None], axis=(1, 2))
    return perms, np.array(signs), np.where(inversions % 2 == 0, 1.0, -1.0)


def orbital_weyl_sum(weight, angles, nu_values) -> np.ndarray:
    """Orbital polynomial values at nu by the pointwise Weyl sum
    sum_w det(w) prod_{alpha fixed} <-w(mu) - i nu e_1, alpha> e^{-i <w(mu), phi>},
    mu = weight + delta, over positive roots e_i +- e_j of so(1, 2n+1)."""
    n = len(weight)
    mu = np.asarray(weight, dtype=float) + np.arange(n - 1, -1, -1, dtype=float)
    perms, signs, dets = weyl_dn_arrays(n)
    k = signs * mu[perms]
    vec = np.concatenate(([0.0], np.asarray(angles, dtype=float)))
    roots = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            for sg in (-1, 1):
                pairing = vec[i] + sg * vec[j]
                if abs(pairing - TWO_PI * round(pairing / TWO_PI)) < 1e-9:
                    roots.append((i, j, sg))
    char = np.exp(-1j * (k @ np.asarray(angles, dtype=float)))
    out = []
    for nu in nu_values:
        w = np.concatenate((np.full((len(k), 1), -1j * nu), -k), axis=1)
        prod_ = np.ones(len(k), dtype=complex)
        for i, j, sg in roots:
            prod_ *= w[:, i] + sg * w[:, j]
        out.append(np.sum(dets * prod_ * char))
    return np.array(out)


def check_orbital(text: str, weight, angles, nu_values) -> str | None:
    coeffs = [complex(x.strip("()")) for x in text.strip().split(",")]
    for nu, want in zip(nu_values, orbital_weyl_sum(weight, angles, nu_values)):
        got = sum(c * nu ** (2 * i) for i, c in enumerate(coeffs))
        if not _close(got, want, 1e-9):
            return f"orbital polynomial at nu={nu}: {got}, Weyl sum {want}"
    return None


# ---------------------------------------------------------------------------
# flat pillowcase T^2 / Z_2


def pillowcase_count(bound: float, sides) -> int:
    """Eigenvalues <= bound with multiplicity: (#{(p,q) in Z^2 : ax p^2 +
    ay q^2 <= bound} + 1) / 2, since (p,q) and (-p,-q) give one mode."""
    ax = (TWO_PI / sides[0]) ** 2
    ay = (TWO_PI / sides[1]) ** 2
    p = np.arange(0, int(math.isqrt(int(bound / ax))) + 2, dtype=float)
    p = p[ax * p * p <= bound]
    rest = bound - ax * p * p
    q = np.floor(np.sqrt(rest / ay))
    q[ay * q * q > rest] -= 1  # sqrt rounding at lattice points on the ellipse
    q[ay * (q + 1) * (q + 1) <= rest] += 1
    rows = 2 * q + 1
    lattice = int(rows[0] + 2 * np.sum(rows[1:]))
    return (lattice + 1) // 2


def check_heat_weyl(text: str, sides, rmax: float) -> str | None:
    lines = text.splitlines()
    if lines[0] != "fitted,predicted,relative_error,eigenvalues":
        return "unexpected heat weyl header"
    fitted, predicted, rel, count = lines[1].split(",")
    want_count = pillowcase_count(rmax, sides)
    if int(count) != want_count:
        return f"{count} eigenvalues up to {rmax:g}, lattice count {want_count}"
    vol = sides[0] * sides[1] / 2.0
    want_pred = vol / (4.0 * math.pi)
    probes = np.linspace(rmax / 2.0, rmax, 48)
    counts = np.array([float(pillowcase_count(x, sides)) for x in probes])
    want_fit = float(np.dot(counts, probes) / np.dot(probes, probes))
    if not _close(float(predicted), want_pred, 1e-12):
        return f"Weyl constant {predicted}, closed form {want_pred}"
    if not _close(float(fitted), want_fit, 1e-12):
        return f"fitted slope {fitted}, lattice fit {want_fit}"
    if abs(float(rel) - abs(want_fit - want_pred) / want_pred) > 1e-12 or float(rel) > 1e-2:
        return f"relative error {rel} inconsistent or above 1e-2"
    return None


def check_heat_fit(text: str, sides) -> str | None:
    """Pillowcase trace = (theta_x theta_y + 1) / 2 with theta ~ sqrt(pi/(a t)),
    so on the ladder (-1, -1/2, 0, 1/2) the coefficients are vol/(4 pi), 0,
    1/2, 0 up to terms of order exp(-pi^2 / (a t))."""
    lines = text.splitlines()
    head = dict(kv.split("=") for kv in lines[0].lstrip("# ").split())
    vol = sides[0] * sides[1] / 2.0
    want = {-1.0: vol / (4.0 * math.pi), -0.5: 0.0, 0.0: 0.5, 0.5: 0.0}
    if not _close(float(head["expected_leading"]), want[-1.0], 1e-12):
        return f"expected leading {head['expected_leading']}, closed form {want[-1.0]}"
    got = {float(e): float(c) for e, c in (ln.split(",") for ln in lines[2:])}
    if sorted(got) != sorted(want):
        return f"exponent ladder {sorted(got)}"
    for e, c in want.items():
        if abs(got[e] - c) > 1e-6 * max(1.0, abs(want[-1.0])):
            return f"coefficient of t^{e}: {got[e]}, closed form {c}"
    return None
