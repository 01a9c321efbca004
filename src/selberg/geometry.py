"""Word-ball enumeration of discrete isometry groups and length spectra.

Groups are given by unit-determinant 2x2 generator matrices in one of two
models: real matrices acting on the hyperbolic plane, or complex matrices
acting on hyperbolic 3-space (the rank-1 case of the ambient theory).
Elements are enumerated as reduced words up to a length bound, one word
length at a time as a stack of products.  The ball is one ``Ball``: a
read-only (N, 2, 2) matrix stack and its words, in (length, word) order.
The stack is classified through its eigenvalues once, in one numpy pass,
and collected into conjugacy classes with all the per-class quantities the
zeta and trace-formula layers consume: geodesic length, primitive length
and power, rotation angle, the adjoint-determinant weight D, the
centralizer factor v, and the twist trace.

The centralizer of a hyperbolic class is read from the same ball: it is
the set of ball elements that commute with the class's witness, the test
``_commuting`` makes.  For a loxodromic witness these are the elements that
fix both ends of its axis: screw motions along the axis and the m rotations
about it.  The shortest translation among them is l0, l / l0 is the power,
and v = 1/m, so that l0 * v is the covolume of the centralizer (Elstrodt,
Grunewald & Mennicke, Groups Acting on Hyperbolic Space, ch. 6).  Both
count only what the ball holds: m counts the rotations in the ball, and a
ball that misses the primitive screw motion gives a multiple of l0.

"Same isometry" is decided only by ``projectively_close``, relative to the
size of the product compared.  Products are not rescaled to determinant 1,
which would only add rounding: generator determinants are 1 to 1e-10.

Every invariant ``classify`` returns is a function of +-m, so no spectrum
depends on the signs of the generators' lifts.

Conjugacy is decided by invariants plus an explicit conjugator search
inside the enumerated ball, one stacked product h g h^-1 over the ball per
class representative; full conjugacy decision is undecidable in general,
so classes with equal invariants but no certifying conjugator are flagged
ambiguous rather than merged or dropped (not when the generators commute:
conjugacy is equality there).  The search runs only on the buckets within
the length cutoff, and the witness data only on the classes within it; the
conjugators and the centralizer are still drawn from the whole ball.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import json
import math
from dataclasses import dataclass, make_dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import (
    EnumerationExplosionError,
    NumericalGuardError,
    ParabolicElementError,
    ValidationError,
)
from .lie import TWO_PI, _fraction

MODELS = ("H2-real-2x2", "H3-complex-2x2")

#: quantization grid of ``projective_key``
KEY_GRID = 1e-7
#: relative tolerance of ``projectively_close``, times a bound on the size
#: of the product compared
MATRIX_TOL = 1e-12
#: tolerance for classification invariants, relative for lengths and angles
CLASSIFY_TOL = 1e-8

DEFAULT_MAX_WORD_LEN = 14
DEFAULT_ELEMENT_CAP = 200_000


# ---------------------------------------------------------------------------
# group specification


@dataclass
class GroupSpec:
    """A finitely generated matrix group with an optional twist.

    ``generators`` are unit-determinant 2x2 matrices.  ``chi`` optionally
    assigns an invertible (possibly non-unitary) matrix to each generator.
    """

    model: str
    generators: list
    chi: list | None = None
    name: str = ""

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValidationError(f"unknown model {self.model!r}; expected one of {MODELS}")
        self.generators = [np.asarray(g, dtype=complex) for g in self.generators]
        for k, g in enumerate(self.generators, 1):
            if g.shape != (2, 2):
                raise ValidationError("generators must be 2x2 matrices")
            if not np.isfinite(g).all():
                raise ValidationError(f"generator {k} has an entry that is not finite")
            det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
            if abs(det - 1.0) > 1e-10:
                raise ValidationError(f"generator determinant {det} is not 1")
            if self.model == "H2-real-2x2" and np.max(np.abs(g.imag)) > 1e-12:
                raise ValidationError("real model requires real generator entries")
        if self.chi is not None:
            self.chi = [np.asarray(m, dtype=complex) for m in self.chi]
            if len(self.chi) != len(self.generators):
                raise ValidationError("chi must give one matrix per generator")
            for k, m in enumerate(self.chi, 1):
                if m.shape[0] != m.shape[1] or not m.size:
                    raise ValidationError("chi matrices must be square and not empty")
                if not np.isfinite(m).all():
                    raise ValidationError(f"chi matrix {k} has an entry that is not finite")
                if np.linalg.cond(m) > 1e12:  # inf if singular
                    raise ValidationError("chi matrix is numerically singular")

    def spec_hash(self) -> str:
        """Stable 16-hex-digit digest of the defining data."""
        payload = {
            "model": self.model,
            "generators": [
                [[round(x.real, 12), round(x.imag, 12)] for x in g.flat]
                for g in self.generators
            ],
            # a key of specs that could name a torsion-free subgroup, kept
            # so that every spec keeps the digest it had then
            "torsion_free_words": None,
            "chi": None
            if self.chi is None
            else [[[round(x.real, 12), round(x.imag, 12)] for x in m.flat] for m in self.chi],
        }
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
        return digest.hexdigest()[:16]

    def word_matrix(self, word) -> np.ndarray:
        """Evaluate a word (1-based signed generator indices) to a matrix with
        ``_mul``, so a ball element's word gives its matrix bit for bit."""
        m = np.eye(2, dtype=complex)
        for letter in word:
            if letter == 0 or abs(letter) > len(self.generators):
                raise ValidationError(f"word letter {letter} out of range")
            g = self.generators[abs(letter) - 1]
            m = _mul(m, g if letter > 0 else _inv2(g))
        return m

    def chi_trace(self, word) -> complex:
        """Trace of the twist representation along a word; one that is not
        finite is a numerical guard that names the word."""
        if self.chi is None:
            return 1.0 + 0j
        m = np.eye(self.chi[0].shape[0], dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            for letter in word:
                img = self.chi[abs(letter) - 1]
                m = m @ (img if letter > 0 else np.linalg.inv(img))
        if not cmath.isfinite(trace := complex(np.trace(m))):
            raise NumericalGuardError(
                f"twist trace is not finite along the word {'.'.join(map(str, word))}")
        return trace

    @classmethod
    def from_file(cls, path) -> "GroupSpec":
        return cls.from_dict(read_json(path))

    @classmethod
    def from_dict(cls, data: dict) -> "GroupSpec":
        if not isinstance(data, dict):
            raise ValidationError("group spec must be a JSON object")
        unknown = set(data) - {"model", "generators", "chi", "name"}
        if unknown:
            raise ValidationError(f"unknown group-spec keys: {sorted(unknown)}")
        if missing := {"model", "generators"} - set(data):
            raise ValidationError(f"group spec needs the key {min(missing)!r}")
        chi = None if data.get("chi") is None else _matrices(data, "chi", "chi matrix")
        return cls(data["model"], _matrices(data, "generators", "generator"), chi,
                   data.get("name", ""))


def read_json(path):
    """The JSON value in a UTF-8 file; bad JSON or bad UTF-8 is a ValidationError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ValidationError(f"{path} is not valid JSON: {exc}") from None


def _matrices(data: dict, key: str, label: str) -> list:
    """The list of matrices under ``data[key]``; the k-th is ``label k`` in errors."""
    if not (isinstance(data[key], list) and all(isinstance(m, list) for m in data[key])):
        raise ValidationError(f"group-spec key {key!r} must list matrices as lists of rows")
    return [_matrix_from_rows(m, f"{label} {k}") for k, m in enumerate(data[key], 1)]


def _matrix_from_rows(rows: list, label: str):
    """Row-major number array; each entry a JSON number or an [re, im] pair of them."""

    def entry(x):
        pair = isinstance(x, (list, tuple))
        parts = x if pair else [x]
        with contextlib.suppress(OverflowError):  # an integer past the float range
            if len(parts) == (2 if pair else 1) and all(type(p) in (int, float) for p in parts):
                return complex(*parts)
        raise ValidationError(f"{label} has an entry that is not a number or [re, im] pair: {x!r}")

    flat = [entry(x) for row in rows for x in (row if isinstance(row, (list, tuple)) else [row])]
    side = int(round(math.sqrt(len(flat))))
    if side * side != len(flat):
        raise ValidationError("matrix data is not square")
    return np.array(flat, dtype=complex).reshape(side, side)


def _inv2(m):
    """Inverse of unit-determinant 2x2 matrices (the adjugate), over leading axes."""
    m = np.asarray(m, dtype=complex)
    adjugate = np.stack([m[..., 1, 1], -m[..., 0, 1], -m[..., 1, 0], m[..., 0, 0]], -1)
    return adjugate.reshape(m.shape)


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over broadcast leading axes, in explicit entry arithmetic so that
    no BLAS call (and no BLAS thread count) can change a bit."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    for i in range(2):
        for j in range(2):
            out[..., i, j] = a[..., i, 0] * b[..., 0, j] + a[..., i, 1] * b[..., 1, j]
    return out


def _size(m: np.ndarray) -> np.ndarray:
    """Largest entry modulus, over leading axes."""
    return np.abs(m).max(axis=(-2, -1))


# ---------------------------------------------------------------------------
# projective comparison


def projective_key(m: np.ndarray) -> tuple:
    """Quantized key identifying m and -m.

    The sign is canonicalized at the first entry of significant magnitude,
    then all entries are rounded to the KEY_GRID lattice.  The package does
    not use it: a conjugate can fall on either side of a grid edge.
    """
    flat = [m[0, 0], m[0, 1], m[1, 0], m[1, 1]]
    for x in flat:
        if abs(x) > 1e-8:
            if x.real < -1e-10 or (abs(x.real) <= 1e-10 and x.imag < 0):
                flat = [-y for y in flat]
            break
    return tuple(
        (int(round(x.real / KEY_GRID)), int(round(x.imag / KEY_GRID))) for x in flat
    )


def projectively_close(a, b, tol):
    """Whether a = +-b within ``tol`` in every entry, over broadcast leading
    axes.  ``tol`` is MATRIX_TOL times a bound on the size of the product:
    max(1, max|m|) for a ball product m, max|h|^2 max|g| for a conjugate
    h g h^-1, max|p| for a power p and max|h| max|w| for a commutator."""
    a, b = np.asarray(a), np.asarray(b)
    return np.minimum(_size(a - b), _size(a + b)) < tol


def _matches(queries: np.ndarray, tols: np.ndarray, refs: np.ndarray):
    """Index pairs (i, j) with queries[i] projectively close to refs[j] at
    tols[i].  A match moves the Frobenius norm by at most 2 tol (four
    entries), so only refs in that window of the sorted norms are compared."""
    ref_norm = np.linalg.norm(refs, axis=(-2, -1))
    order = np.argsort(ref_norm, kind="stable")
    ref_norm = ref_norm[order]
    norm = np.linalg.norm(queries, axis=(-2, -1))
    lo = np.searchsorted(ref_norm, norm - 2.0 * tols, side="left")
    counts = np.searchsorted(ref_norm, norm + 2.0 * tols, side="right") - lo
    qi = np.repeat(np.arange(len(queries)), counts)
    offset = np.arange(len(qi)) - np.repeat(np.cumsum(counts) - counts, counts)
    rj = order[np.repeat(lo, counts) + offset]
    hit = projectively_close(queries[qi], refs[rj], tols[qi])
    return qi[hit], rj[hit]


# ---------------------------------------------------------------------------
# enumeration


@dataclass(frozen=True)
class Ball:
    """A word ball: the (N, 2, 2) stack of its elements' matrices and their
    N words, in the same order; ``len`` is N."""

    matrices: np.ndarray
    words: tuple

    def __len__(self) -> int:
        return len(self.words)


def enumerate_elements(
    spec: GroupSpec,
    max_word_len: int,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> Ball:
    """All distinct reduced generator words up to the length bound,
    deduplicated up to overall matrix sign, as one read-only stack in
    (length, word) order; each word length is one stack of frontier x letter
    products."""
    if not 0 <= max_word_len <= DEFAULT_MAX_WORD_LEN:
        raise ValidationError(
            f"max_word_len must be between 0 and {DEFAULT_MAX_WORD_LEN}, got {max_word_len}"
        )
    if element_cap < 1:
        raise ValidationError("element cap must be at least 1")
    gens = np.array(spec.generators, dtype=complex).reshape(-1, 2, 2)
    steps = np.stack([gens, _inv2(gens)], 1).reshape(-1, 2, 2)
    letters = np.repeat(np.arange(1, len(gens) + 1), 2) * np.tile([1, -1], len(gens))
    levels, words, last = [np.eye(2, dtype=complex)[None]], [()], np.zeros(1, dtype=int)
    for _ in range(max_word_len):
        # frontier-major, letter-minor; reduced words only
        f, k = np.nonzero(letters[None, :] != -last[:, None])
        cand = _mul(levels[-1][f], steps[k])
        tols = MATRIX_TOL * np.maximum(1.0, _size(cand))
        # drop a product equal to a ball element or to an earlier product
        qi, rj = _matches(cand, tols, np.concatenate(levels + [cand]))
        keep = np.ones(len(cand), dtype=bool)
        keep[qi[rj < len(words) + qi]] = False
        if len(words) + int(keep.sum()) > element_cap:
            raise EnumerationExplosionError(
                f"enumeration exceeded the cap of {element_cap} elements"
            )
        last = letters[k[keep]]
        start = len(words) - len(levels[-1])  # the frontier's words
        words += [words[start + i] + (x,) for i, x in zip(f[keep].tolist(), last.tolist())]
        levels.append(cand[keep])
    order = sorted(range(len(words)), key=lambda i: (len(words[i]), words[i]))
    matrices = np.concatenate(levels)[order]
    matrices.flags.writeable = False
    return Ball(matrices, tuple(words[i] for i in order))


# ---------------------------------------------------------------------------
# classification


#: kind names by the codes ``classify`` returns, in record order
KINDS = ("identity", "elliptic", "hyperbolic")
ELLIPTIC, HYPERBOLIC = 1, 2


def classify(stack, model: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kind code (index into KINDS), length and angle of each matrix of a
    stack, in one pass, through its eigenvalue of largest modulus.

    Hyperbolic: |lambda| > 1, translation length 2*ln|lambda| and rotation
    angle arg(lambda^2) mod 2pi (the orientation induced by the translation
    direction makes this stable under inversion).  Elliptic: in H2,
    2*acos(tr/2) of the lift whose lower-left entry is positive, so g and
    g^-1 get the labels theta and 2pi - theta whatever the conjugate; in
    H3, whose rotation axes have no orientation, 2*acos(|tr|/2) in [0, pi].
    Each is the same for -m, whose eigenvalue here is -lambda to the bit.
    A trace within 1e-8 of +-2 on a non-identity element means a
    (numerically) defective parabolic, which is rejected: the groups of
    interest act cocompactly.
    """
    m = np.asarray(stack, dtype=complex).reshape(-1, 2, 2)
    identity = projectively_close(m, np.eye(2), CLASSIFY_TOL)
    tr = m[:, 0, 0] + m[:, 1, 1]
    if np.any(~identity & (np.minimum(abs(tr - 2.0), abs(tr + 2.0)) < CLASSIFY_TOL)):
        raise ParabolicElementError(
            "parabolic element detected (trace within tolerance of +-2 on a "
            "non-identity element); the group does not act cocompactly"
        )
    disc = np.sqrt(tr * tr - 4.0)
    plus, minus = (tr + disc) / 2.0, (tr - disc) / 2.0
    lam = np.where(abs(minus) > abs(plus), minus, plus)
    hyperbolic = ~identity & (abs(lam) > 1.0 + CLASSIFY_TOL)
    elliptic = ~identity & ~hyperbolic
    length, angle = np.zeros(len(m)), np.zeros(len(m))
    length[hyperbolic] = 2.0 * np.log(abs(lam[hyperbolic]))
    turn = np.angle(lam[hyperbolic] ** 2) % TWO_PI
    angle[hyperbolic] = np.where(np.minimum(turn, TWO_PI - turn) < CLASSIFY_TOL, 0.0, turn)
    half_trace = tr.real[elliptic] / 2.0
    if model == "H2-real-2x2":
        half_trace *= np.where(m[elliptic, 1, 0].real > 0, 1.0, -1.0)
    else:
        half_trace = abs(half_trace)
    angle[elliptic] = 2.0 * np.arccos(np.clip(half_trace, -1.0, 1.0))
    return ELLIPTIC * elliptic + HYPERBOLIC * hyperbolic, length, angle


def weight_D(length: float, angles) -> float:
    """Adjoint-determinant weight of a hyperbolic class with one rotation
    angle theta_j per rank.

    The adjoint action of the normal form on the 2n-dimensional nilpotent
    algebra has eigenvalues exp(l +- i*theta_j), so

        D = e^{-n l} |det(Ad - Id)| = prod_j 4 |sinh((l + i*theta_j)/2)|^2,

    evaluated in the stable sinh form.
    """
    if length <= 0:
        raise ValidationError("weight D is defined for hyperbolic classes only")
    out = 1.0
    for theta in angles:
        out *= 4.0 * abs(cmath.sinh((length + 1j * theta) / 2.0)) ** 2
    return out


# ---------------------------------------------------------------------------
# conjugacy classes


def _chain(indices: np.ndarray, values: np.ndarray) -> list[np.ndarray]:
    """Sort indices by value (then index) and cut wherever neighbours differ
    by more than CLASSIFY_TOL relative."""
    indices = indices[np.lexsort((indices, values[indices]))]
    v = values[indices]
    cuts = np.flatnonzero(np.diff(v) > CLASSIFY_TOL * np.maximum(1.0, abs(v[1:]))) + 1
    return np.split(indices, cuts)


def _commuting(stack: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Which matrices of the stack commute with w up to sign."""
    tol = MATRIX_TOL * _size(stack) * _size(w)
    return projectively_close(_mul(stack, w), _mul(w, stack), tol)


def conjugacy_reduce(ball: Ball, spec: GroupSpec, cutoff: float) -> SpectrumColumns:
    """The conjugacy classes of the ball's elements as columns: every
    elliptic class, and the hyperbolic classes of length <= cutoff.

    The elements come in (length, word) order, as ``enumerate_elements``
    returns them, and their stack is classified as given.  They are
    bucketed by (kind, length, angle) within the invariant tolerance; a
    hyperbolic bucket whose shortest member is longer than the cutoff is
    skipped.  A bucket of several elements is split into classes by a
    conjugator search over the whole ball, and flagged ambiguous unless the
    generators commute.  A class's witness is its first member, whose
    length is the class's, and a hyperbolic class is kept if that is within
    the cutoff.  A kept class gets its witness's angle and twist trace; a
    hyperbolic one also gets the weight D and, from the ball elements that
    commute with the witness (``_axis_fixers``), its primitive length l0,
    its power and v = 1/m.  Elliptic rows come by (theta, word) and
    hyperbolic rows by bucket; ``LengthSpectrum`` puts the hyperbolic rows
    in canonical order.
    """
    mats, words = ball.matrices, ball.words
    kind, length, angle = classify(mats, spec.model)
    buckets = []
    for code in (ELLIPTIC, HYPERBOLIC):
        for chain in _chain(np.flatnonzero(kind == code), length):
            # a kind with no elements gives one empty chain
            buckets += [bucket for bucket in _chain(chain, angle) if len(bucket)
                        and (code == ELLIPTIC or length[bucket].min() <= cutoff)]
    gens = np.array(spec.generators, dtype=complex).reshape(-1, 2, 2)
    abelian = all(_commuting(gens, g).all() for g in gens)
    hyper = np.flatnonzero(kind == HYPERBOLIC)
    hyper = hyper[np.argsort(length[hyper], kind="stable")]
    # the identity and the rotations, then the translations by length
    axis_ball = mats, length, np.flatnonzero(kind != HYPERBOLIC), hyper, length[hyper]
    inverses, size = _inv2(mats), _size(mats)

    elliptic, hyperbolic = [], []
    for bucket in buckets:
        # in ball order, so the first member left is a class's witness
        rest = sorted(bucket.tolist())
        witnesses = []
        while rest:
            rep, *rest = rest
            witnesses.append(rep)
            if rest:
                # drop the witness's class through every conjugator in the ball at once
                images = _mul(_mul(mats, mats[rep]), inverses)
                found = _matches(images, MATRIX_TOL * size**2 * size[rep], mats[rest])[1]
                rest = np.delete(rest, found).tolist()
        ambiguous = len(witnesses) > 1 and not abelian
        for witness in witnesses:
            w_len, w_angle, word = float(length[witness]), float(angle[witness]), words[witness]
            if kind[witness] == ELLIPTIC:
                elliptic.append(("elliptic", 0.0, 0.0, 1, (w_angle,), math.nan, Fraction(1),
                                 spec.chi_trace(word), word, ambiguous))
            elif w_len <= cutoff:
                power, prim_len, rotations = _axis_fixers(witness, axis_ball)
                hyperbolic.append(("hyperbolic", w_len, prim_len, power, (w_angle,),
                                   weight_D(w_len, (w_angle,)), Fraction(1, rotations),
                                   spec.chi_trace(word), word, ambiguous))
    elliptic.sort(key=lambda row: (row[4], row[8]))  # (angles, word)
    return SpectrumColumns.from_rows(elliptic + hyperbolic)


def _axis_fixers(witness: int, axis_ball: tuple) -> tuple[int, float, int]:
    """Power k, primitive length l0 and rotation count m of the hyperbolic
    ball element ``witness``, from the ball elements that commute with it.

    ``axis_ball`` is (matrices, lengths, the indices of the elements that
    are not hyperbolic, the indices of the hyperbolic ones by length, and
    their lengths).  An element B commutes with the loxodromic witness W
    exactly when it fixes both ends of W's axis: W's eigenvalues differ, so
    BW = WB keeps each of W's eigenlines, and BW = -WB would force tr W = 0.
    Those elements are the m rotations about the axis, the identity
    included, and screw motions along it whose lengths are the multiples of
    l0.  So only the elements that are not hyperbolic and the hyperbolic
    ones of length l/k, k >= 2, are tested.  l0 is the length of the
    shortest of those screw motions, or l if there is none (the witness
    commutes with itself), k = l/l0 rounded, and m counts only the rotations
    in the ball.
    """
    mats, length, still, hyper, hyper_len = axis_ball
    w_len = float(length[witness])
    targets = w_len / np.arange(2, int(w_len / hyper_len[0] + 1e-9) + 1)
    win = CLASSIFY_TOL * np.maximum(1.0, targets)
    lo = np.searchsorted(hyper_len, targets - win, side="left")
    hi = np.searchsorted(hyper_len, targets + win, side="right")
    cand = np.concatenate([still] + [hyper[a:b] for a, b in zip(lo, hi)])
    fixes = _commuting(mats[cand], mats[witness])
    roots = length[cand[len(still):][fixes[len(still):]]]
    prim_len = float(roots.min()) if len(roots) else w_len
    return round(w_len / prim_len), prim_len, int(np.count_nonzero(fixes[: len(still)]))


# ---------------------------------------------------------------------------
# length spectrum container and CSV round trip

_CSV_COLUMNS = "kind,l,l0,power,theta,D,v,re_trchi,im_trchi,word"
#: the values of a power or word letter
_INT64 = range(np.iinfo(np.int64).min, np.iinfo(np.int64).max + 1)


class SpectrumColumns(NamedTuple):
    """The conjugacy classes of a spectrum as columns, one row per class,
    with everything the zeta and trace layers need, each value held once: v
    only as exact Fractions, whose floats the zeta layer makes once per
    spectrum and keeps in ``LengthSpectrum.derived``.

    ``angles`` and ``word`` hold one tuple per class, the class's rotation
    angles and its witness word; ``angles_of_rank`` gives the angles as a
    float matrix.
    """

    kind: np.ndarray  # "elliptic" or "hyperbolic"
    length: np.ndarray  # l(gamma); 0 for elliptic
    # l0: the shortest length l/k, k = 1, 2, ..., of a ball element that
    # commutes with gamma; 0 for elliptic
    primitive_length: np.ndarray
    power: np.ndarray  # l / l0: gamma is gamma_0^power times a rotation about its axis
    angles: np.ndarray  # rotation angles of the compact part
    D: np.ndarray  # the weight D of a hyperbolic class; NaN for elliptic
    # exact Fractions 1/m, m the number of rotations about gamma's axis in the
    # ball, the identity included, so that l0 * v is the covolume of the
    # centralizer; 1 for elliptic
    v: np.ndarray
    tr_chi: np.ndarray
    word: np.ndarray  # the witness word
    ambiguous: np.ndarray

    @classmethod
    def from_rows(cls, rows: list) -> "SpectrumColumns":
        """The columns of rows of field values in field order, ``D`` NaN
        where a class has none."""
        kind, length, l0, power, angles, D, v, tr_chi, word, ambiguous = (
            list(zip(*rows)) or [()] * len(cls._fields))
        return cls(
            np.array(kind, dtype=str), np.array(length, dtype=float),
            np.array(l0, dtype=float), np.array(power, dtype=np.int64),
            _tuples(angles), np.array(D, dtype=float),
            np.array(v, dtype=object), np.array(tr_chi, dtype=complex),
            _tuples(word), np.array(ambiguous, dtype=bool),
        )

    def take(self, index) -> "SpectrumColumns":
        """The rows that a mask, slice or index array selects."""
        return SpectrumColumns(*(column[index] for column in self))

    def angles_of_rank(self, n: int) -> np.ndarray:
        """The (N, n) angle matrix; a ValidationError unless every row has n angles."""
        if any(len(angles) != n for angles in self.angles):
            raise ValidationError("rank mismatch between weight and angles")
        return np.array(self.angles.tolist(), dtype=float).reshape(len(self.angles), n)


def _tuples(rows) -> np.ndarray:
    """A 1-D object array of one tuple per row; ``np.array`` would make a
    matrix of equal-length rows."""
    return np.fromiter(map(tuple, rows), dtype=object, count=len(rows))


def _spectrum_row(text: str, fractions: dict) -> tuple:
    """The fields of one spectrum-file row, in ``SpectrumColumns`` order,
    or a ValidationError naming its problem: the row does not convert, or
    it breaks a rule.  ``fractions`` maps each v text read so far to its
    ``Fraction`` and float (inf beyond the float range)."""
    try:
        kind, l, l0, power, theta, d, v, re_t, im_t, word = text.split(",")
        length, prim, dval = float(l), float(l0), float(d or "nan")
        power = int(power)
        angles = tuple(map(float, theta.split("|"))) if theta else ()
        letters = tuple(map(int, word.split("."))) if word else ()
        if v not in fractions:
            exact = _fraction(v)
            try:
                fractions[v] = exact, float(exact)
            except OverflowError:
                fractions[v] = exact, math.inf
        tr_chi = complex(float(re_t), float(im_t))
        if not all(map(_INT64.__contains__, (power, *letters))):
            raise ValueError("an integer outside int64")
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"malformed spectrum row {text!r}") from None
    exact, v_float = fractions[v]
    hyper, elliptic = kind == "hyperbolic", kind == "elliptic"
    # the rules in precedence order: a row gets the message of the first it breaks
    if not (cmath.isfinite(tr_chi) and all(map(math.isfinite, angles))):
        raise ValidationError("a row needs finite angles and tr chi")
    if elliptic and d:
        raise ValidationError("an elliptic row needs an empty D")
    if not (hyper or elliptic):
        raise ValidationError(f"unknown class kind {kind!r}")
    if elliptic and not (length == prim == 0 and power == 1):
        raise ValidationError("an elliptic row needs l = l0 = 0 and power = 1")
    if hyper and not (all(0 < x < math.inf for x in (length, prim, dval)) and power >= 1):
        raise ValidationError("a hyperbolic row needs finite positive l, l0 and D and power >= 1")
    if v_float == math.inf:
        raise ValidationError("v is too large for a float")
    if v_float <= 0:
        raise ValidationError("v must be positive")
    return kind, length, prim, power, angles, dval, exact, tr_chi, letters, False


def _check_provenance(cutoff: float, model: str) -> None:
    """A ValidationError unless the cutoff is finite and positive and the model is known."""
    if not 0 < cutoff < math.inf:
        raise ValidationError("cutoff must be finite and positive")
    if model not in MODELS:
        raise ValidationError(f"unknown model {model!r}; expected one of {MODELS}")


#: (class, file bytes, spectrum) of the last file ``LengthSpectrum.read_csv`` read
_last_read: tuple = (None, None, None)


#: one class of a spectrum as an object, with the fields of ``SpectrumColumns``
#: and ``D`` None for elliptic.  Only ``LengthSpectrum.records`` builds it,
#: for the benchmark tracer (``bench/tracer.py``), which counts classes
#: through it; both go when the tracer counts with ``LengthSpectrum.count``.
ConjClassRecord = make_dataclass("ConjClassRecord", SpectrumColumns._fields)


class LengthSpectrum:
    """Cutoff-bounded conjugacy data plus provenance, stored as columns.

    ``columns`` holds one row per class in canonical order: the elliptic
    classes first, in the order given (centralizer volumes are listed in
    it), then the hyperbolic classes by one stable ``sorted`` on (l, angles,
    word), the order the zeta sums run in: a shorter tuple sorts before its
    extensions, and ties keep the order given.  A spectrum is built from
    ``SpectrumColumns`` and is not changed afterwards: its column arrays
    are read-only, so one spectrum can be shared, as ``read_csv`` shares
    it.  Every class is elliptic or hyperbolic, so ``part`` and ``count``
    read one block of rows.

    ``derived`` holds values computed from the columns alone, such as the
    zeta layer's per-class factors of a weight, keyed by the layer that
    fills it.  It is empty when the spectrum is made and lives and dies
    with it: a ``with_cutoff`` spectrum starts a dict of its own.
    """

    def __init__(self, columns: SpectrumColumns, spec_hash: str, cutoff: float,
                 max_word_len: int, model: str = "H3-complex-2x2"):
        _check_provenance(cutoff, model)
        hyper = columns.kind == "hyperbolic"
        length, angles, word = columns.length.tolist(), columns.angles, columns.word
        self.columns = columns.take(np.flatnonzero(~hyper).tolist() + sorted(
            np.flatnonzero(hyper).tolist(), key=lambda i: (length[i], angles[i], word[i])))
        for column in self.columns:
            column.flags.writeable = False
        kind = self.columns.kind
        elliptic = int(np.count_nonzero(kind != "hyperbolic"))
        if np.any(unknown := kind[:elliptic] != "elliptic"):
            raise ValidationError(f"unknown class kind {kind[:elliptic][unknown][0]!r}")
        self._parts = {"elliptic": self.columns.take(slice(elliptic)),
                       "hyperbolic": self.columns.take(slice(elliptic, None))}
        self.spec_hash = spec_hash
        self.cutoff = cutoff
        self.max_word_len = max_word_len
        self.model = model
        self.derived: dict = {}

    def __eq__(self, other):
        """Equal provenance and rows, with NaN equal to NaN."""
        if not isinstance(other, LengthSpectrum):
            return NotImplemented
        return self._provenance() == other._provenance() and all(
            np.array_equal(x, y, equal_nan=x.dtype.kind in "fc")
            for x, y in zip(self.columns, other.columns))

    def _provenance(self) -> tuple:
        return self.spec_hash, self.cutoff, self.max_word_len, self.model

    @property
    def records(self) -> list[ConjClassRecord]:
        """One new ``ConjClassRecord`` per row, in canonical order; for the
        benchmark tracer only (see ``ConjClassRecord``)."""
        cols = [column.tolist() for column in self.columns]
        return [
            ConjClassRecord(kind, length, l0, power, angles, None if math.isnan(d) else d, *rest)
            for kind, length, l0, power, angles, d, *rest in zip(*cols)
        ]

    def part(self, kind: str) -> SpectrumColumns:
        """The columns of the classes of one kind, in canonical order: one
        block of rows of ``columns``, as read-only views."""
        if kind not in self._parts:
            raise ValidationError(f"unknown class kind {kind!r}")
        return self._parts[kind]

    def count(self, kind: str) -> int:
        return len(self.part(kind).kind)

    def with_cutoff(self, cutoff: float) -> "LengthSpectrum":
        """The spectrum without its hyperbolic classes longer than ``cutoff``,
        with its cutoff lowered to ``cutoff``."""
        _check_provenance(cutoff, self.model)
        keep = (self.columns.kind != "hyperbolic") | (self.columns.length <= cutoff)
        return LengthSpectrum(self.columns.take(keep), self.spec_hash,
                              min(self.cutoff, cutoff), self.max_word_len, self.model)

    def to_csv(self) -> str:
        cols = self.columns
        lines = [
            f"# selberg-spectrum spec_hash={self.spec_hash} "
            f"cutoff={self.cutoff:.17g} max_word_len={self.max_word_len} "
            f"model={self.model}"
        ]
        flagged = np.flatnonzero(cols.ambiguous).tolist()
        if flagged:
            lines.append("# ambiguous=" + ".".join(map(str, flagged)))
        lines.append(_CSV_COLUMNS)
        for kind, length, l0, power, angles, d, v, tr_chi, word in zip(
            cols.kind.tolist(), cols.length.tolist(), cols.primitive_length.tolist(),
            cols.power.tolist(), cols.angles.tolist(), cols.D.tolist(), cols.v.tolist(),
            cols.tr_chi.tolist(), cols.word.tolist(),
        ):
            theta = "|".join(f"{a:.17g}" for a in angles)
            d = "" if math.isnan(d) else f"{d:.17g}"
            lines.append(
                f"{kind},{length:.17g},{l0:.17g},{power},{theta},{d},{v},"
                f"{tr_chi.real:.17g},{tr_chi.imag:.17g},{'.'.join(map(str, word))}"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def read_csv(cls, path) -> "LengthSpectrum":
        """Read a spectrum written by ``to_csv``: the body row by row, in
        file order, then the columns once at the end.

        The header must give ``spec_hash``, a finite positive ``cutoff`` and
        ``max_word_len``; ``model``, if given, is one of ``MODELS``.  The
        optional ``# ambiguous=`` line lists row indices that exist.  The
        file must be UTF-8.  Every row has ten fields that convert: floats,
        an int64 power and word letters, and a rational v.  Then the rules,
        in precedence order (a row breaking several gets the first one's
        message):

        1. the angles and tr chi are finite;
        2. an elliptic row has an empty D;
        3. the kind is ``hyperbolic`` or ``elliptic``;
        4. an elliptic row has l = l0 = 0 and power 1;
        5. a hyperbolic row has finite positive l, l0 and D and power >= 1;
        6. v lies within the float range;
        7. v is positive.

        Anything else is a ValidationError naming the file and the first
        bad line; no row after it is read.  Blank lines are skipped but
        counted.

        The last spectrum read without error is kept, keyed on the file's
        full content: its bytes, never its path, size or time.  A read of
        the same bytes returns that same (read-only) spectrum without
        parsing.  The memo has one entry; a file that fails to read is never
        kept, so it fails the same way on every read.
        """
        global _last_read
        with open(path, "rb") as fh:
            raw = fh.read()
        if _last_read[:2] == (cls, raw):
            return _last_read[2]
        try:
            lines = raw.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            line = raw[: exc.start].count(b"\n") + 1
            raise ValidationError(f"{path} line {line}: not UTF-8 text") from None
        if not lines or not lines[0].startswith("# selberg-spectrum"):
            raise ValidationError(f"{path} is not a length-spectrum file")
        try:
            meta = dict(kv.split("=", 1) for kv in lines[0][len("# selberg-spectrum ") :].split())
            spec_hash, cutoff = meta["spec_hash"], float(meta["cutoff"])
            max_word_len = int(meta["max_word_len"])
        except (KeyError, ValueError):
            raise ValidationError(
                f"{path} line 1: header needs spec_hash, cutoff and max_word_len"
            ) from None
        model = meta.get("model", "H3-complex-2x2")
        try:
            _check_provenance(cutoff, model)
        except ValidationError as exc:
            raise ValidationError(f"{path} line 1: {exc}") from None
        flagged: set[int] = set()
        body = 1
        if len(lines) > 1 and lines[1].startswith("# ambiguous="):
            try:
                flagged = {int(i) for i in lines[1][len("# ambiguous=") :].split(".") if i}
            except ValueError:
                raise ValidationError(f"{path} line 2: malformed ambiguous indices") from None
            body = 2
        if len(lines) <= body or lines[body] != _CSV_COLUMNS:
            raise ValidationError(f"{path} line {body + 1}: unexpected length-spectrum header")
        rows, fractions = [], {}
        for lineno, text in enumerate(lines[body + 1 :], body + 2):
            if text:
                try:
                    rows.append(_spectrum_row(text, fractions))
                except ValidationError as exc:
                    raise ValidationError(f"{path} line {lineno}: {exc}") from None
        stray = flagged.difference(range(len(rows)))
        if stray:
            raise ValidationError(f"{path} line 2: ambiguous index {min(stray)} names no row")
        columns = SpectrumColumns.from_rows(rows)
        columns.ambiguous[list(flagged)] = True
        spectrum = cls(columns, spec_hash, cutoff, max_word_len, model)
        _last_read = cls, raw, spectrum
        return spectrum


def build_length_spectrum(
    spec: GroupSpec,
    max_word_len: int,
    cutoff: float,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> LengthSpectrum:
    """Enumerate, classify and reduce a group into a cutoff length spectrum."""
    _check_provenance(cutoff, spec.model)
    ball = enumerate_elements(spec, max_word_len, element_cap=element_cap)
    return LengthSpectrum(conjugacy_reduce(ball, spec, cutoff), spec.spec_hash(), cutoff,
                          max_word_len, spec.model)
