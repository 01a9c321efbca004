"""Word-ball enumeration of discrete isometry groups and length spectra.

Groups are given by unit-determinant 2x2 generator matrices in one of two
models: real matrices acting on the hyperbolic plane, or complex matrices
acting on hyperbolic 3-space (the rank-1 case of the ambient theory).
Elements are enumerated as reduced words up to a length bound, deduplicated
projectively (g and -g are the same isometry), classified through their
eigenvalues, and collected into conjugacy classes with all the per-class
quantities the zeta and trace-formula layers consume: geodesic length,
primitive length and power, rotation angle, the adjoint-determinant weight
D, the centralizer index correction v, and the twist trace.

Conjugacy is decided by invariants plus an explicit conjugator search
inside the enumerated ball; full conjugacy decision is undecidable in
general, so classes with equal invariants but no certifying conjugator are
flagged ambiguous rather than merged or dropped.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    EnumerationExplosionError,
    ParabolicElementError,
    UndeterminedVFactorError,
    ValidationError,
)

MODELS = ("H2-real-2x2", "H3-complex-2x2")

#: quantization grid for projective hash keys
KEY_GRID = 1e-7
#: tolerance for matrix-level comparisons after word products
MATRIX_TOL = 1e-6
#: tolerance for classification invariants
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

    @property
    def chi_dim(self) -> int:
        return 1 if self.chi is None else self.chi[0].shape[0]

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
            data = json.load(fh)
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


def _inv2(m: np.ndarray) -> np.ndarray:
    # unit determinant: adjugate
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex)


# ---------------------------------------------------------------------------
# projective deduplication


def projective_key(m: np.ndarray) -> tuple:
    """Quantized key identifying m and -m.

    The sign is canonicalized at the first entry of significant magnitude,
    then all entries are rounded to the KEY_GRID lattice.
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


def projectively_close(a: np.ndarray, b: np.ndarray, tol: float = MATRIX_TOL) -> bool:
    return bool(
        np.max(np.abs(a - b)) < tol or np.max(np.abs(a + b)) < tol
    )


@dataclass
class GroupElement:
    matrix: np.ndarray
    word: tuple
    key: tuple = field(default=None)

    def __post_init__(self):
        if self.key is None:
            self.key = projective_key(self.matrix)


# ---------------------------------------------------------------------------
# enumeration


def enumerate_elements(
    spec: GroupSpec,
    max_word_len: int,
    word_len_limit: int = DEFAULT_MAX_WORD_LEN,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> list[GroupElement]:
    """All distinct reduced generator words up to the length bound,
    deduplicated up to overall matrix sign, in deterministic order."""
    if max_word_len < 0:
        raise ValidationError("max_word_len must be nonnegative")
    if max_word_len > word_len_limit:
        raise ValidationError(
            f"max_word_len {max_word_len} exceeds the configured limit {word_len_limit}"
        )
    steps = []
    for i, g in enumerate(spec.generators, start=1):
        steps.append((i, g))
        steps.append((-i, _inv2(g)))

    identity = GroupElement(np.eye(2, dtype=complex), ())
    buckets: dict[tuple, list[GroupElement]] = {identity.key: [identity]}
    ordered = [identity]
    frontier = [identity]

    def seen(matrix, key) -> bool:
        bucket = buckets.get(key)
        if bucket is None:
            return False
        # exact-comparison fallback on key collisions
        return any(projectively_close(matrix, el.matrix) for el in bucket)

    for _ in range(max_word_len):
        new_frontier = []
        for el in frontier:
            for letter, step in steps:
                if el.word and el.word[-1] == -letter:
                    continue  # reduced words only
                m = el.matrix @ step
                det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
                m = m / cmath.sqrt(det)  # keep det drift from accumulating
                key = projective_key(m)
                if seen(m, key):
                    continue
                new = GroupElement(m, el.word + (letter,), key)
                buckets.setdefault(key, []).append(new)
                ordered.append(new)
                new_frontier.append(new)
                if len(ordered) > element_cap:
                    raise EnumerationExplosionError(
                        f"enumeration exceeded the cap of {element_cap} elements"
                    )
        frontier = new_frontier
    ordered.sort(key=lambda e: (len(e.word), e.word))
    return ordered


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class Classification:
    kind: str  # identity | elliptic | hyperbolic
    length: float
    angle: float
    eigenvalue: complex


def classify(matrix, model: str, tol: float = CLASSIFY_TOL) -> Classification:
    """Classify an isometry through its eigenvalue of largest modulus.

    Hyperbolic: |lambda| > 1, translation length 2*ln|lambda| and rotation
    angle 2*arg(lambda) mod 2pi (the orientation induced by the translation
    direction makes this stable under lift sign and inversion).  Elliptic:
    |lambda| = 1 and not +-identity, rotation angle from the eigenvalue in
    the upper half plane of the given lift; the opposite lift carries the
    complementary label 2pi - theta for the same projective class.  A trace
    within 1e-8 of +-2 on a non-identity element means a (numerically)
    defective parabolic, which is rejected: the groups of interest act
    cocompactly.
    """
    if isinstance(matrix, GroupElement):
        matrix = matrix.matrix
    m = np.asarray(matrix, dtype=complex)
    if projectively_close(m, np.eye(2), tol):
        return Classification("identity", 0.0, 0.0, 1.0 + 0j)
    tr = m[0, 0] + m[1, 1]
    if min(abs(tr - 2.0), abs(tr + 2.0)) < tol:
        raise ParabolicElementError(
            "parabolic element detected (trace within tolerance of +-2 on a "
            "non-identity element); the group does not act cocompactly"
        )
    disc = cmath.sqrt(tr * tr - 4.0)
    lam = (tr + disc) / 2.0
    other = (tr - disc) / 2.0
    if abs(other) > abs(lam):
        lam, other = other, lam
    if abs(lam) > 1.0 + tol:
        length = 2.0 * math.log(abs(lam))
        angle = (2.0 * cmath.phase(lam)) % (2.0 * math.pi)
        if min(angle, 2.0 * math.pi - angle) < tol:
            angle = 0.0
        return Classification("hyperbolic", length, angle, lam)
    if lam.imag < 0:
        lam = other
    angle = (2.0 * cmath.phase(lam)) % (2.0 * math.pi)
    return Classification("elliptic", 0.0, angle, lam)


def weight_D(length: float, angles, n: int) -> float:
    """Adjoint-determinant weight of a hyperbolic class.

    The adjoint action of the normal form on the 2n-dimensional nilpotent
    algebra has eigenvalues exp(l +- i*theta_j), so

        D = e^{-n l} |det(Ad - Id)| = prod_j 4 |sinh((l + i*theta_j)/2)|^2,

    evaluated in the stable sinh form.
    """
    if length <= 0:
        raise ValidationError("weight D is defined for hyperbolic classes only")
    if isinstance(angles, (int, float)):
        angles = (float(angles),)
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


def _invariant_key(c: Classification) -> tuple:
    return (
        c.kind,
        int(round(c.length / CLASSIFY_TOL)),
        int(round(c.angle / CLASSIFY_TOL)),
    )


def conjugacy_reduce(
    elements: list[GroupElement],
    spec: GroupSpec,
    torsion_ball: list[GroupElement] | None = None,
    compute_v: bool = True,
) -> list[ConjClassRecord]:
    """Collect enumerated elements into conjugacy classes.

    Classes are keyed by (kind, length, angle) within tolerance and
    confirmed by explicit conjugator search within the ball; each class gets
    a minimal-word witness, a primitive decomposition, the weight D, the
    centralizer correction v and the twist trace.
    """
    classified = [(el, classify(el, spec.model)) for el in elements]
    buckets: dict[tuple, list[tuple[GroupElement, Classification]]] = {}
    for el, c in classified:
        if c.kind == "identity":
            continue
        buckets.setdefault(_invariant_key(c), []).append((el, c))

    candidates = classified
    if torsion_ball is not None:
        candidates = [(el, classify(el, spec.model)) for el in torsion_ball]
    cand_hyper = sorted(
        ((c.length, el) for el, c in candidates if c.kind == "hyperbolic"),
        key=lambda t: t[0],
    )
    inverses = None  # computed lazily, only if a multi-member bucket shows up

    records: list[ConjClassRecord] = []
    for inv_key in sorted(buckets):
        members = sorted(buckets[inv_key], key=lambda mc: (len(mc[0].word), mc[0].word))
        if len(members) == 1:
            class_groups = [members]
        else:
            if inverses is None:
                inverses = [_inv2(el.matrix) for el in elements]
            unassigned = {m[0].key: m for m in members}
            class_groups = []
            while unassigned:
                rep_key = next(iter(unassigned))
                rep, rep_cls = unassigned.pop(rep_key)
                group = [(rep, rep_cls)]
                # spread the class through every available conjugator
                for h, hinv in zip(elements, inverses):
                    if not unassigned:
                        break
                    img = h.matrix @ rep.matrix @ hinv
                    k = projective_key(img)
                    if k in unassigned:
                        group.append(unassigned.pop(k))
                class_groups.append(group)
        ambiguous = len(class_groups) > 1
        for group in class_groups:
            witness, wc = min(group, key=lambda mc: (len(mc[0].word), mc[0].word))
            member_keys = {m[0].key for m in group}
            power, prim_len = _primitive_decomposition(
                witness, wc, member_keys, cand_hyper
            )
            if wc.kind == "hyperbolic":
                d_val = weight_D(wc.length, (wc.angle,), 1)
            else:
                d_val = None
            if compute_v and wc.kind == "hyperbolic":
                v_val, defaulted = _v_factor_impl(witness, spec, elements, torsion_ball)
            else:
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
                    tr_chi=spec.chi_trace(witness.word),
                    word=witness.word,
                    ambiguous=ambiguous,
                    v_defaulted=defaulted,
                )
            )
    records.sort(key=lambda r: (_KIND_ORDER[r.kind], r.length, r.theta, r.word))
    return records


_KIND_ORDER = {"identity": 0, "elliptic": 1, "hyperbolic": 2}


def _primitive_decomposition(
    witness: GroupElement,
    wc: Classification,
    member_keys: set,
    cand_hyper: list,
) -> tuple[int, float]:
    """Largest m with witness conjugate to p^m for p in the candidate ball.

    Candidates come from the torsion-free subgroup ball when one was given,
    so the returned power is the one relative to that subgroup.
    """
    if wc.kind != "hyperbolic" or not cand_hyper:
        return 1, wc.length
    l_min = cand_hyper[0][0]
    max_m = int(math.floor(wc.length / max(l_min, 1e-12) + 1e-9))
    for m in range(max_m, 1, -1):
        target = wc.length / m
        for length, el in cand_hyper:
            if length > target + 1e-7:
                break
            if abs(length - target) > 1e-7:
                continue
            p = np.linalg.matrix_power(el.matrix, m)
            if projective_key(p) in member_keys or projectively_close(
                p, witness.matrix
            ):
                return m, length
    return 1, wc.length


# ---------------------------------------------------------------------------
# centralizer index correction


def _commutes_projectively(a: np.ndarray, b: np.ndarray) -> bool:
    left = a @ b
    right = b @ a
    scale = max(1.0, float(np.max(np.abs(left))))
    return bool(
        np.max(np.abs(left - right)) < MATRIX_TOL * scale
        or np.max(np.abs(left + right)) < MATRIX_TOL * scale
    )


def _v_factor_impl(
    witness: GroupElement,
    spec: GroupSpec,
    ball: list[GroupElement],
    torsion_ball: list[GroupElement] | None,
) -> tuple[Fraction, bool]:
    if spec.torsion_free_words is None or torsion_ball is None:
        return Fraction(1), True
    w = witness.matrix
    cent = [el for el in ball if _commutes_projectively(el.matrix, w)]
    cent_classes = [classify(el, spec.model) for el in cent]
    torsion_count = len(
        {el.key for el, c in zip(cent, cent_classes) if c.kind != "hyperbolic"}
    )
    hyper = [c.length for c in cent_classes if c.kind == "hyperbolic"]
    cent_sub = [el for el in torsion_ball if _commutes_projectively(el.matrix, w)]
    hyper_sub = [
        c.length
        for c in (classify(el, spec.model) for el in cent_sub)
        if c.kind == "hyperbolic"
    ]
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
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
        if not lines or not lines[0].startswith("# selberg-spectrum"):
            raise ValidationError(f"{path} is not a length-spectrum file")
        meta = dict(
            kv.split("=", 1) for kv in lines[0][len("# selberg-spectrum ") :].split()
        )
        flagged: set[int] = set()
        body = 1
        if len(lines) > 1 and lines[1].startswith("# ambiguous="):
            flagged = {
                int(i) for i in lines[1][len("# ambiguous=") :].split(".") if i
            }
            body = 2
        header = "kind,l,l0,power,theta,D,v,re_trchi,im_trchi,word"
        if len(lines) <= body or lines[body] != header:
            raise ValidationError("unexpected length-spectrum header")
        records = []
        for ln in lines[body + 1 :]:
            if not ln:
                continue
            parts = ln.split(",")
            if len(parts) != 10:
                raise ValidationError(f"malformed spectrum row: {ln!r}")
            kind, l, l0, power, theta, d, v, re_t, im_t, word = parts
            records.append(
                ConjClassRecord(
                    kind=kind,
                    length=float(l),
                    primitive_length=float(l0),
                    power=int(power),
                    angles=tuple(float(a) for a in theta.split("|")) if theta else (),
                    D=float(d) if d else None,
                    v=Fraction(v),
                    tr_chi=complex(float(re_t), float(im_t)),
                    word=tuple(int(x) for x in word.split(".")) if word else (),
                    ambiguous=len(records) in flagged,
                )
            )
        return cls(
            records=records,
            spec_hash=meta["spec_hash"],
            cutoff=float(meta["cutoff"]),
            max_word_len=int(meta["max_word_len"]),
            model=meta.get("model", "H3-complex-2x2"),
        )


def build_length_spectrum(
    spec: GroupSpec,
    max_word_len: int,
    cutoff: float,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> LengthSpectrum:
    """Enumerate, classify and reduce a group into a cutoff length spectrum."""
    if cutoff <= 0:
        raise ValidationError("cutoff must be positive")
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
