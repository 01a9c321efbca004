"""Word-ball enumeration of discrete isometry groups and length spectra.

Groups are given by unit-determinant 2x2 generator matrices in one of two
models: real matrices acting on the hyperbolic plane, or complex matrices
acting on hyperbolic 3-space (the rank-1 case of the ambient theory).
Elements are enumerated as reduced words up to a length bound, one word
length at a time as a stack of products, classified through their
eigenvalues, and collected into conjugacy classes with all the per-class
quantities the zeta and trace-formula layers consume: geodesic length,
primitive length and power, rotation angle, the adjoint-determinant weight
D, the centralizer index correction v, and the twist trace.

"Same isometry" is decided only by ``projectively_close``, relative to the
size of the product compared.  Products are not rescaled to determinant 1,
which would only add rounding: generator determinants are 1 to 1e-10.

Conjugacy is decided by invariants plus an explicit conjugator search
inside the enumerated ball, one stacked product h g h^-1 over the ball per
class representative; full conjugacy decision is undecidable in general,
so classes with equal invariants but no certifying conjugator are flagged
ambiguous rather than merged or dropped.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    EnumerationExplosionError,
    ParabolicElementError,
    UndeterminedVFactorError,
    ValidationError,
)

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
    """A finitely generated matrix group with optional torsion-free data.

    ``generators`` are unit-determinant 2x2 matrices.  ``torsion_free_words``
    optionally presents a finite-index torsion-free subgroup by words in the
    generators (1-based indices, negative for inverses).  ``chi`` optionally
    assigns an invertible (possibly non-unitary) matrix to each generator.
    """

    model: str
    generators: list
    torsion_free_words: list | None = None
    torsion_free_index: int | None = None
    chi: list | None = None
    name: str = ""

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValidationError(f"unknown model {self.model!r}; expected one of {MODELS}")
        self.generators = [np.asarray(g, dtype=complex) for g in self.generators]
        for g in self.generators:
            if g.shape != (2, 2):
                raise ValidationError("generators must be 2x2 matrices")
            det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
            if abs(det - 1.0) > 1e-10:
                raise ValidationError(f"generator determinant {det} is not 1")
            if self.model == "H2-real-2x2" and np.max(np.abs(g.imag)) > 1e-12:
                raise ValidationError("real model requires real generator entries")
        if self.chi is not None:
            self.chi = [np.asarray(m, dtype=complex) for m in self.chi]
            if len(self.chi) != len(self.generators):
                raise ValidationError("chi must give one matrix per generator")
            for m in self.chi:
                if m.shape[0] != m.shape[1]:
                    raise ValidationError("chi matrices must be square")
                if not np.isfinite(np.linalg.cond(m)) or np.linalg.cond(m) > 1e12:
                    raise ValidationError("chi matrix is numerically singular")

    def spec_hash(self) -> str:
        """Stable 16-hex-digit digest of the defining data."""
        payload = {
            "model": self.model,
            "generators": [
                [[round(x.real, 12), round(x.imag, 12)] for x in g.flat]
                for g in self.generators
            ],
            "torsion_free_words": self.torsion_free_words,
            "chi": None
            if self.chi is None
            else [[[round(x.real, 12), round(x.imag, 12)] for x in m.flat] for m in self.chi],
        }
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
        return digest.hexdigest()[:16]

    def word_matrix(self, word) -> np.ndarray:
        """Evaluate a word (1-based signed generator indices) to a matrix."""
        m = np.eye(2, dtype=complex)
        for letter in word:
            if letter == 0 or abs(letter) > len(self.generators):
                raise ValidationError(f"word letter {letter} out of range")
            g = self.generators[abs(letter) - 1]
            m = m @ (g if letter > 0 else _inv2(g))
        return m

    def chi_trace(self, word) -> complex:
        """Trace of the twist representation along a word."""
        if self.chi is None:
            return 1.0 + 0j
        m = np.eye(self.chi[0].shape[0], dtype=complex)
        for letter in word:
            img = self.chi[abs(letter) - 1]
            m = m @ (img if letter > 0 else np.linalg.inv(img))
        return complex(np.trace(m))

    @classmethod
    def from_file(cls, path) -> "GroupSpec":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # bad JSON or bad UTF-8
                raise ValidationError(f"{path} is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict) -> "GroupSpec":
        known = {"model", "generators", "torsion_free_subgroup", "chi", "name"}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown group-spec keys: {sorted(unknown)}")
        tf = data.get("torsion_free_subgroup")
        words = index = None
        if tf is not None:
            bad = set(tf) - {"words", "index"}
            if bad:
                raise ValidationError(f"unknown torsion_free_subgroup keys: {sorted(bad)}")
            words = tf.get("words")
            index = tf.get("index")
        return cls(
            model=data["model"],
            generators=[_matrix_from_rows(g) for g in data["generators"]],
            torsion_free_words=words,
            torsion_free_index=index,
            chi=None if "chi" not in data or data["chi"] is None
            else [_matrix_from_rows(m) for m in data["chi"]],
            name=data.get("name", ""),
        )


def _matrix_from_rows(rows):
    """Row-major number array; each entry a number or an [re, im] pair."""

    def entry(x):
        if isinstance(x, (list, tuple)):
            if len(x) != 2:
                raise ValidationError(f"complex entry must be [re, im], got {x}")
            return complex(x[0], x[1])
        return complex(x)

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
    h g h^-1, max|p| for a power p and max|h w| for a commutator."""
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


@dataclass
class GroupElement:
    matrix: np.ndarray
    word: tuple


# ---------------------------------------------------------------------------
# enumeration


def enumerate_elements(
    spec: GroupSpec,
    max_word_len: int,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> list[GroupElement]:
    """All distinct reduced generator words up to the length bound,
    deduplicated up to overall matrix sign, in (length, word) order; each
    word length is one stack of frontier x letter products."""
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
    mats = np.concatenate(levels)
    order = sorted(range(len(words)), key=lambda i: (len(words[i]), words[i]))
    return [GroupElement(mats[i], words[i]) for i in order]


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class Classification:
    kind: str  # identity | elliptic | hyperbolic
    length: float
    angle: float


def classify(matrix, model: str) -> Classification:
    """Classify an isometry through its eigenvalue of largest modulus.

    Hyperbolic: |lambda| > 1, translation length 2*ln|lambda| and rotation
    angle 2*arg(lambda) mod 2pi (the orientation induced by the translation
    direction makes this stable under lift sign and inversion).  Elliptic in
    H2: the angle is 2*acos(tr/2) of the lift whose lower-left entry is
    positive, so neither the lift nor conjugation changes it, and g and g^-1
    get the labels theta and 2pi - theta.  Elliptic in H3: the angle comes
    from the eigenvalue in the upper half plane of the given lift; the
    opposite lift carries the complementary label 2pi - theta for the same
    projective class.  A trace within 1e-8 of +-2 on a non-identity element
    means a (numerically) defective parabolic, which is rejected: the groups
    of interest act cocompactly.
    """
    m = np.asarray(matrix, dtype=complex)
    if projectively_close(m, np.eye(2), CLASSIFY_TOL):
        return Classification("identity", 0.0, 0.0)
    tr = m[0, 0] + m[1, 1]
    if min(abs(tr - 2.0), abs(tr + 2.0)) < CLASSIFY_TOL:
        raise ParabolicElementError(
            "parabolic element detected (trace within tolerance of +-2 on a "
            "non-identity element); the group does not act cocompactly"
        )
    disc = cmath.sqrt(tr * tr - 4.0)
    lam = (tr + disc) / 2.0
    other = (tr - disc) / 2.0
    if abs(other) > abs(lam):
        lam, other = other, lam
    if abs(lam) > 1.0 + CLASSIFY_TOL:
        length = 2.0 * math.log(abs(lam))
        angle = (2.0 * cmath.phase(lam)) % (2.0 * math.pi)
        if min(angle, 2.0 * math.pi - angle) < CLASSIFY_TOL:
            angle = 0.0
        return Classification("hyperbolic", length, angle)
    if model == "H2-real-2x2":
        half_trace = tr.real / 2.0 if m[1, 0].real > 0 else -tr.real / 2.0
        return Classification("elliptic", 0.0, 2.0 * math.acos(min(1.0, max(-1.0, half_trace))))
    if lam.imag < 0:
        lam = other
    angle = (2.0 * cmath.phase(lam)) % (2.0 * math.pi)
    return Classification("elliptic", 0.0, angle)


def weight_D(length: float, angles, n: int) -> float:
    """Adjoint-determinant weight of a hyperbolic class.

    The adjoint action of the normal form on the 2n-dimensional nilpotent
    algebra has eigenvalues exp(l +- i*theta_j), so

        D = e^{-n l} |det(Ad - Id)| = prod_j 4 |sinh((l + i*theta_j)/2)|^2,

    evaluated in the stable sinh form.
    """
    if length <= 0:
        raise ValidationError("weight D is defined for hyperbolic classes only")
    angles = tuple(angles)
    if len(angles) != n:
        raise ValidationError(f"need {n} rotation angles, got {len(angles)}")
    out = 1.0
    for theta in angles:
        out *= 4.0 * abs(cmath.sinh((length + 1j * theta) / 2.0)) ** 2
    return out


# ---------------------------------------------------------------------------
# conjugacy classes


@dataclass
class ConjClassRecord:
    """One conjugacy class with everything the zeta/trace layers need."""

    kind: str
    length: float  # l(gamma); 0 for elliptic
    primitive_length: float  # l(gamma_0)
    power: int  # gamma = gamma_0^power
    angles: tuple  # rotation angles of the compact part
    D: float | None  # hyperbolic only
    v: Fraction
    tr_chi: complex
    word: tuple
    ambiguous: bool = False
    v_defaulted: bool = False  # v = 1 assumed because no torsion-free data

    @property
    def theta(self) -> float:
        return self.angles[0] if self.angles else 0.0


def _chain(indices: list, value) -> list[list]:
    """Sort indices by value and cut wherever neighbours differ by more than
    CLASSIFY_TOL relative."""
    vals = sorted((value(i), i) for i in indices)
    gaps = [b - a > CLASSIFY_TOL * max(1.0, abs(b)) for (a, _), (b, _) in zip(vals, vals[1:])]
    cuts = [j + 1 for j, gap in enumerate(gaps) if gap]
    return [[i for _, i in vals[a:b]] for a, b in zip([0] + cuts, cuts + [len(vals)])]


def conjugacy_reduce(
    elements: list[GroupElement],
    spec: GroupSpec,
    torsion_ball: list[GroupElement] | None = None,
) -> list[ConjClassRecord]:
    """Collect enumerated elements into conjugacy classes.

    Elements are bucketed by (kind, length, angle) within the invariant
    tolerance; a bucket of several elements is split into classes by a
    conjugator search over the whole ball.  Each class gets a minimal-word
    witness, a primitive decomposition, the weight D, the centralizer
    correction v and the twist trace.
    """
    mats = np.array([el.matrix for el in elements], dtype=complex).reshape(-1, 2, 2)
    words = [el.word for el in elements]
    classes = [classify(m, spec.model) for m in mats]
    buckets = []
    for kind in ("elliptic", "hyperbolic"):
        same_kind = [i for i, c in enumerate(classes) if c.kind == kind]
        for chain in _chain(same_kind, lambda i: classes[i].length):
            buckets += _chain(chain, lambda i: classes[i].angle)

    cand_mats, cand_classes, torsion_mats = mats, classes, None
    if torsion_ball is not None:
        torsion_mats = cand_mats = np.array([el.matrix for el in torsion_ball]).reshape(-1, 2, 2)
        cand_classes = [classify(m, spec.model) for m in cand_mats]
    hyper = sorted((c.length, i) for i, c in enumerate(cand_classes) if c.kind == "hyperbolic")
    cand_len = np.array([length for length, _ in hyper])
    cand_mats = cand_mats[[i for _, i in hyper]]
    inverses = _inv2(mats)
    size = _size(mats)

    records: list[ConjClassRecord] = []
    for bucket in buckets:
        unassigned = sorted(bucket, key=lambda i: (len(words[i]), words[i]))
        class_groups = []
        while unassigned:
            rep, rest = unassigned[0], unassigned[1:]
            found = set()
            if rest:
                # spread the class through every conjugator in the ball at once
                images = _mul(_mul(mats, mats[rep]), inverses)
                tols = MATRIX_TOL * size**2 * size[rep]
                found = set(_matches(images, tols, mats[rest])[1].tolist())
            class_groups.append([rep] + [m for j, m in enumerate(rest) if j in found])
            unassigned = [m for j, m in enumerate(rest) if j not in found]
        ambiguous = len(class_groups) > 1
        for group in class_groups:
            witness = group[0]  # the members are in (length, word) order
            wc = classes[witness]
            if wc.kind == "hyperbolic":
                power, prim_len = _primitive_decomposition(
                    wc.length, mats[group], cand_len, cand_mats
                )
                d_val = weight_D(wc.length, (wc.angle,), 1)
                v_val, defaulted = _v_factor_impl(mats[witness], spec, mats, torsion_mats)
            else:
                power, prim_len, d_val = 1, wc.length, None
                v_val, defaulted = Fraction(1), spec.torsion_free_words is None
            records.append(
                ConjClassRecord(
                    kind=wc.kind,
                    length=wc.length,
                    primitive_length=prim_len,
                    power=power,
                    angles=(wc.angle,),
                    D=d_val,
                    v=v_val,
                    tr_chi=spec.chi_trace(words[witness]),
                    word=words[witness],
                    ambiguous=ambiguous,
                    v_defaulted=defaulted,
                )
            )
    records.sort(key=lambda r: (_KIND_ORDER[r.kind], r.length, r.theta, r.word))
    return records


_KIND_ORDER = {"identity": 0, "elliptic": 1, "hyperbolic": 2}


def _primitive_decomposition(
    length: float,
    members: np.ndarray,
    cand_len: np.ndarray,
    cand_mats: np.ndarray,
) -> tuple[int, float]:
    """Largest m with p^m a member of the class for a candidate p, and the
    length of the first such p.  Candidates come from the torsion-free
    subgroup ball when one was given, so the power is relative to it."""
    max_m = int(length / max(cand_len[0], 1e-12) + 1e-9) if len(cand_len) else 1
    for m in range(max_m, 1, -1):
        target, win = length / m, CLASSIFY_TOL * max(1.0, length / m)
        lo, hi = np.searchsorted(cand_len, [target - win, target + win])
        p = base = cand_mats[lo:hi]
        for _ in range(m - 1):
            p = _mul(p, base)
        hit = projectively_close(
            p[:, None], members[None], MATRIX_TOL * _size(p)[:, None]
        ).any(axis=1)
        if hit.any():
            return m, float(cand_len[lo + int(np.argmax(hit))])
    return 1, length


# ---------------------------------------------------------------------------
# centralizer index correction


def _v_factor_impl(
    w: np.ndarray,
    spec: GroupSpec,
    ball: np.ndarray,
    torsion_ball: np.ndarray | None,
) -> tuple[Fraction, bool]:
    if spec.torsion_free_words is None or torsion_ball is None:
        return Fraction(1), True
    found = []
    for stack in (ball, torsion_ball):
        hw = _mul(stack, w)
        commuting = projectively_close(hw, _mul(w, stack), MATRIX_TOL * _size(hw))
        found.append([classify(h, spec.model) for h in stack[commuting]])
    cent, cent_sub = found
    # the ball holds each element once, so this counts distinct elements
    torsion_count = sum(1 for c in cent if c.kind != "hyperbolic")
    hyper = [c.length for c in cent if c.kind == "hyperbolic"]
    hyper_sub = [c.length for c in cent_sub if c.kind == "hyperbolic"]
    if not hyper or not hyper_sub:
        raise UndeterminedVFactorError(
            "ball too small to certify the centralizer index",
            lower_bound=max(torsion_count, 1),
        )
    ratio = min(hyper_sub) / min(hyper)
    frac = Fraction(ratio).limit_denominator(1024)
    if abs(float(frac) - ratio) > 1e-6:
        raise UndeterminedVFactorError(
            "centralizer length ratio is not certified rational within the ball",
            lower_bound=torsion_count,
        )
    return frac * torsion_count, False


# ---------------------------------------------------------------------------
# length spectrum container and CSV round trip


@dataclass
class LengthSpectrum:
    """Cutoff-bounded conjugacy data plus provenance."""

    records: list[ConjClassRecord]
    spec_hash: str
    cutoff: float
    max_word_len: int
    model: str = "H3-complex-2x2"

    def hyperbolic(self) -> list[ConjClassRecord]:
        return [r for r in self.records if r.kind == "hyperbolic"]

    def elliptic(self) -> list[ConjClassRecord]:
        return [r for r in self.records if r.kind == "elliptic"]

    def to_csv(self) -> str:
        lines = [
            f"# selberg-spectrum spec_hash={self.spec_hash} "
            f"cutoff={self.cutoff:.17g} max_word_len={self.max_word_len} "
            f"model={self.model}"
        ]
        flagged = [i for i, r in enumerate(self.records) if r.ambiguous]
        if flagged:
            lines.append("# ambiguous=" + ".".join(str(i) for i in flagged))
        lines.append("kind,l,l0,power,theta,D,v,re_trchi,im_trchi,word")
        for r in self.records:
            theta = "|".join(f"{a:.17g}" for a in r.angles)
            d = "" if r.D is None else f"{r.D:.17g}"
            word = ".".join(str(x) for x in r.word)
            lines.append(
                f"{r.kind},{r.length:.17g},{r.primitive_length:.17g},"
                f"{r.power},{theta},{d},{r.v},"
                f"{r.tr_chi.real:.17g},{r.tr_chi.imag:.17g},{word}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())

    @classmethod
    def read_csv(cls, path) -> "LengthSpectrum":
        """Read a spectrum written by ``to_csv``, in one pass over the rows.

        The header must give ``spec_hash``, ``cutoff`` and ``max_word_len``.
        Every row has ten fields that parse, the kind ``hyperbolic`` or
        ``elliptic``, finite angles and tr chi, and a positive v.  A
        hyperbolic row also has finite positive l, l0 and D and an integer
        power of at least 1; an elliptic row has an empty D.  The optional
        ``# ambiguous=`` line lists row indices that exist.  The file must be
        UTF-8.  Anything else is a ValidationError naming the file and line.
        """
        with open(path, "rb") as fh:
            raw = fh.read()
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
        flagged: set[int] = set()
        body = 1
        if len(lines) > 1 and lines[1].startswith("# ambiguous="):
            try:
                flagged = {int(i) for i in lines[1][len("# ambiguous=") :].split(".") if i}
            except ValueError:
                raise ValidationError(f"{path} line 2: malformed ambiguous indices") from None
            body = 2
        header = "kind,l,l0,power,theta,D,v,re_trchi,im_trchi,word"
        if len(lines) <= body or lines[body] != header:
            raise ValidationError(f"{path} line {body + 1}: unexpected length-spectrum header")
        records = []
        fractions: dict[str, Fraction] = {}  # each distinct v text is parsed once
        isfinite, inf = math.isfinite, math.inf
        for lineno, ln in enumerate(lines[body + 1 :], body + 2):
            if not ln:
                continue
            problem = None
            try:
                kind, l, l0, power, theta, d, v, re_t, im_t, word = ln.split(",")
                length, prim, re_t, im_t = map(float, (l, l0, re_t, im_t))
                power = int(power)
                angles = tuple(map(float, theta.split("|"))) if theta else ()
                dval = float(d) if d else None
                word = tuple(map(int, word.split("."))) if word else ()
                frac = fractions.get(v)
                if frac is None:
                    frac = fractions[v] = Fraction(v)
                    if frac <= 0:
                        problem = "v must be positive"
            except (ValueError, ZeroDivisionError):
                raise ValidationError(f"{path} line {lineno}: malformed spectrum row {ln!r}") from None
            tr_chi = complex(re_t, im_t)
            if kind == "hyperbolic":
                if not (0 < length < inf and 0 < prim < inf and power >= 1
                        and dval is not None and 0 < dval < inf):
                    problem = "a hyperbolic row needs finite positive l, l0 and D and power >= 1"
            elif kind != "elliptic":
                problem = f"unknown class kind {kind!r}"
            elif d:
                problem = "an elliptic row needs an empty D"
            if not (cmath.isfinite(tr_chi) and all(map(isfinite, angles))):
                problem = "a row needs finite angles and tr chi"
            if problem:
                raise ValidationError(f"{path} line {lineno}: {problem}")
            records.append(ConjClassRecord(
                kind, length, prim, power, angles, dval, frac, tr_chi, word,
                len(records) in flagged,
            ))
        stray = flagged.difference(range(len(records)))
        if stray:
            raise ValidationError(f"{path} line 2: ambiguous index {min(stray)} names no row")
        return cls(
            records=records,
            spec_hash=spec_hash,
            cutoff=cutoff,
            max_word_len=max_word_len,
            model=meta.get("model", "H3-complex-2x2"),
        )


def build_length_spectrum(
    spec: GroupSpec,
    max_word_len: int,
    cutoff: float,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> LengthSpectrum:
    """Enumerate, classify and reduce a group into a cutoff length spectrum."""
    if not 0 < cutoff < math.inf:
        raise ValidationError("cutoff must be finite and positive")
    ball = enumerate_elements(spec, max_word_len, element_cap=element_cap)
    torsion_ball = None
    if spec.torsion_free_words is not None:
        sub = GroupSpec(
            model=spec.model,
            generators=[spec.word_matrix(w) for w in spec.torsion_free_words],
        )
        torsion_ball = enumerate_elements(sub, max_word_len, element_cap=element_cap)
    records = conjugacy_reduce(ball, spec, torsion_ball=torsion_ball)
    kept = [
        r
        for r in records
        if r.kind == "elliptic" or (r.kind == "hyperbolic" and r.length <= cutoff)
    ]
    return LengthSpectrum(
        records=kept,
        spec_hash=spec.spec_hash(),
        cutoff=cutoff,
        max_word_len=max_word_len,
        model=spec.model,
    )
