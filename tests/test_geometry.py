import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    cyclic_h3_spec,
    displacement_infimum,
    elliptic_order3_matrix,
    halfspace_apply,
    halfspace_distance,
    pairwise_dedupe_count,
    reduced_words,
    schottky_spec,
    triangle_237_spec,
)
from selberg.errors import (
    EnumerationExplosionError,
    ParabolicElementError,
    UndeterminedVFactorError,
    ValidationError,
)
from selberg.geometry import (
    ConjClassRecord,
    GroupElement,
    GroupSpec,
    LengthSpectrum,
    build_length_spectrum,
    classify,
    conjugacy_reduce,
    enumerate_elements,
    projectively_close,
    weight_D,
)
from selberg.geometry import _inv2


def test_enumerate_cyclic_ball():
    spec = cyclic_h3_spec(2.0)
    ball = enumerate_elements(spec, 3)
    assert len(ball) == 7
    assert sorted(len(e.word) for e in ball) == [0, 1, 1, 2, 2, 3, 3]


def test_enumerate_empty_generators():
    spec = GroupSpec(model="H3-complex-2x2", generators=[])
    ball = enumerate_elements(spec, 5)
    assert len(ball) == 1 and ball[0].word == ()


def test_enumerate_triangle_group_matches_pairwise_oracle():
    tri = triangle_237_spec()
    for max_len in (1, 2, 3):
        ball = enumerate_elements(tri, max_len)
        mats = [tri.word_matrix(w) for w in reduced_words(2, max_len)]
        assert len(ball) == pairwise_dedupe_count(mats)


def test_enumerate_guards():
    spec = cyclic_h3_spec(2.0)
    with pytest.raises(ValidationError):
        enumerate_elements(spec, 20)
    with pytest.raises(EnumerationExplosionError):
        enumerate_elements(schottky_spec(), 6, element_cap=100)


def test_classify_translation_against_displacement_oracle():
    g = np.diag([math.e, 1.0 / math.e])
    c = classify(g, "H3-complex-2x2")
    assert c.kind == "hyperbolic"
    assert c.length == pytest.approx(2.0, abs=1e-12)
    assert c.angle == 0.0
    assert displacement_infimum(g) == pytest.approx(2.0, abs=1e-6)


def test_classify_loxodromic_displacement():
    half = (1.4 + 1j * 2.1) / 2.0
    g = np.diag([cmath.exp(half), cmath.exp(-half)])
    c = classify(g, "H3-complex-2x2")
    assert c.kind == "hyperbolic"
    assert c.length == pytest.approx(1.4, abs=1e-12)
    assert c.angle == pytest.approx(2.1, abs=1e-12)
    assert displacement_infimum(g) == pytest.approx(1.4, abs=1e-6)


def test_classify_elliptic_and_identity():
    m = elliptic_order3_matrix()
    c = classify(m, "H3-complex-2x2")
    assert c.kind == "elliptic"
    assert c.angle == pytest.approx(2.0 * math.pi / 3.0, abs=1e-12)
    assert classify(np.eye(2), "H3-complex-2x2").kind == "identity"
    assert classify(-np.eye(2), "H3-complex-2x2").kind == "identity"


def test_classify_parabolic_error():
    with pytest.raises(ParabolicElementError):
        classify(np.array([[1.0, 1.0], [0.0, 1.0]]), "H2-real-2x2")
    with pytest.raises(ParabolicElementError):
        classify(np.array([[-1.0, 1.0], [0.0, -1.0]]), "H3-complex-2x2")


def test_classification_conjugation_stable(rng):
    tri = triangle_237_spec()
    ball = enumerate_elements(tri, 5)
    for _ in range(60):
        a = rng.choice(ball)
        h = rng.choice(ball)
        ca = classify(a.matrix, tri.model)
        cb = classify(h.matrix @ a.matrix @ _inv2(h.matrix), tri.model)
        assert ca.kind == cb.kind
        assert ca.length == pytest.approx(cb.length, abs=1e-8)
        # in H2 the angle label depends neither on the conjugate nor on the lift
        assert ca.angle == pytest.approx(cb.angle, abs=1e-8)
        assert classify(-a.matrix, tri.model).angle == pytest.approx(ca.angle, abs=1e-12)


def test_conjugacy_merges_explicit_conjugates():
    tri = triangle_237_spec()
    ball = enumerate_elements(tri, 3)
    g = next(e for e in ball if len(e.word) == 1)
    h = next(e for e in ball if len(e.word) == 2)
    conj = GroupElement(h.matrix @ g.matrix @ _inv2(h.matrix), h.word + g.word + tuple(-x for x in reversed(h.word)))
    recs = conjugacy_reduce([g, conj, h], tri)
    same = [r for r in recs if abs(r.length - classify(g.matrix, tri.model).length) < 1e-8
            and r.kind == classify(g.matrix, tri.model).kind
            and not r.ambiguous]
    assert any(r.word == g.word for r in same)


def test_triangle_elliptic_classes_are_exact():
    # (2,3,7): x, y, y^-1 and (xy)^k for k = 1..6, one record each
    ls = build_length_spectrum(triangle_237_spec(), 10, cutoff=5.0)
    want = sorted([math.pi, 2 * math.pi / 3, 4 * math.pi / 3]
                  + [2 * math.pi * k / 7 for k in range(1, 7)])
    assert len(ls.elliptic()) == 9
    assert not any(r.ambiguous for r in ls.elliptic())
    assert sorted(r.theta for r in ls.elliptic()) == pytest.approx(want, abs=1e-10)


def _rotation(a):
    return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])


def conjugated_free_spec(lam, tau, a, b) -> GroupSpec:
    """diag(lam, 1/lam) and its quarter-turn conjugate, both conjugated by
    R(a) diag(e^{tau/2}, e^{-tau/2}) R(b)."""
    gen = np.diag([lam, 1.0 / lam])
    c = _rotation(a) @ np.diag([math.exp(tau / 2), math.exp(-tau / 2)]) @ _rotation(b)
    q = _rotation(math.pi / 4)
    gens = [gen, q @ gen @ np.linalg.inv(q)]
    return GroupSpec(model="H2-real-2x2", generators=[c @ g @ np.linalg.inv(c) for g in gens])


def free_class_count(max_len: int) -> int:
    """Nontrivial conjugacy classes of F_2 of cyclic length <= max_len:
    sum_{k<=L} (1/k) sum_{d|k} phi(k/d) (3^d + 2 + (-1)^d)."""
    def phi(n):
        return sum(1 for j in range(1, n + 1) if math.gcd(j, n) == 1)

    total = sum(
        Fraction(sum(phi(k // d) * (3**d + 2 + (-1) ** d) for d in range(1, k + 1) if k % d == 0), k)
        for k in range(1, max_len + 1)
    )
    assert total.denominator == 1
    return int(total)


FREE_CASES = [
    ((3.663170, 0.421549, 0.948864, 3.604418), 6),
    ((3.916891, 0.853142, 1.441763, 0.219035), 6),
    ((3.933694, 0.916994, 2.353356, 2.458080), 7),
]


@pytest.mark.parametrize("params,max_len", FREE_CASES)
def test_conjugated_free_group_has_one_record_per_class(params, max_len):
    spec = conjugated_free_spec(*params)
    ls = build_length_spectrum(spec, max_len, cutoff=4 * max_len * math.log(params[0]) + 1)
    assert len(ls.records) == free_class_count(max_len)
    necklaces = set()
    for r in ls.records:
        w = r.word
        assert r.kind == "hyperbolic" and 0 < len(w) <= max_len
        assert all(w[i] != -w[i - 1] for i in range(len(w)))  # cyclically reduced
        necklaces.add(min(w[i:] + w[:i] for i in range(len(w))))
        period = next(p for p in range(1, len(w) + 1) if w == w[p:] + w[:p])
        assert r.power == len(w) // period
    assert len(necklaces) == len(ls.records)


def test_free_ball_matches_exact_products():
    spec = conjugated_free_spec(*FREE_CASES[2][0])
    letters = {}
    for i, g in enumerate(spec.generators, start=1):
        (p, q), (r, s) = [[Fraction(float(x.real)) for x in row] for row in g]
        letters[i], letters[-i] = ((p, q), (r, s)), ((s, -q), (-r, p))  # adjugate
    exact = {(): ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))}
    ball = enumerate_elements(spec, 7)
    assert len(ball) == 1 + 4 * (3**7 - 1) // 2
    for el in ball:
        if el.word:
            (a, b), (c, d) = exact[el.word[:-1]]  # a first-found word's prefix is in the ball
            (p, q), (r, s) = letters[el.word[-1]]
            exact[el.word] = ((a * p + b * r, a * q + b * s), (c * p + d * r, c * q + d * s))
        want = np.array(exact[el.word], dtype=float)
        assert np.max(np.abs(el.matrix - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_conjugacy_power_decomposition():
    spec = cyclic_h3_spec(2.0)
    ls = build_length_spectrum(spec, 5, cutoff=100.0)
    squares = [r for r in ls.hyperbolic() if abs(r.length - 4.0) < 1e-9]
    assert squares and all(r.power == 2 and abs(r.primitive_length - 2.0) < 1e-9 for r in squares)


def test_conjugacy_elliptic_distinct_angles():
    m = elliptic_order3_matrix()
    spec = GroupSpec(model="H3-complex-2x2", generators=[m])
    els = [
        GroupElement(np.asarray(m, dtype=complex), (1,)),
        GroupElement(np.asarray(m @ m, dtype=complex), (1, 1)),
    ]
    recs = conjugacy_reduce(els, spec)
    angles = sorted(r.theta for r in recs)
    assert angles == pytest.approx([2 * math.pi / 3, 4 * math.pi / 3], abs=1e-10)
    assert all(r.kind == "elliptic" and r.length == 0.0 for r in recs)


PHI = (1.0 + math.sqrt(5.0)) / 2.0
#: SU(2) lifts of a quarter-turn, a third-turn and a fifth-turn of the sphere
Q4 = np.diag([cmath.exp(1j * math.pi / 4), cmath.exp(-1j * math.pi / 4)])
Q3 = 0.5 * np.array([[1 + 1j, 1 + 1j], [-1 + 1j, 1 - 1j]])
Q5 = np.array([[PHI / 2 + 0.5j, 1 / (2 * PHI)], [-1 / (2 * PHI), PHI / 2 - 0.5j]])


@pytest.mark.parametrize("gens,max_len,order,folded,flagged", [
    # S4: 4-cycles, 3-cycles, and two classes of half-turns with equal angle
    ([Q4, Q3], 6, 24, [math.pi / 2, 2 * math.pi / 3, math.pi, math.pi], [math.pi, math.pi]),
    # A5: two classes of fifth-turns, third-turns, half-turns
    ([Q5, Q3], 10, 60, [2 * math.pi / 5, 4 * math.pi / 5, 2 * math.pi / 3, math.pi], []),
    # cyclic of order 3: m and m^-1 are distinct classes, and certified so
    ([elliptic_order3_matrix()], 4, 3, [2 * math.pi / 3, 2 * math.pi / 3], []),
], ids=["S4", "A5", "cyclic-3"])
def test_h3_rotation_classes_are_counted_once(gens, max_len, order, folded, flagged):
    """In H3 a rotation by theta is one by 2pi - theta about the reversed
    axis; a finite rotation group has one record per non-identity class."""
    spec = GroupSpec(model="H3-complex-2x2", generators=gens)
    assert len(enumerate_elements(spec, max_len)) == order  # the whole group
    recs = build_length_spectrum(spec, max_len, cutoff=1.0).records
    assert all(r.kind == "elliptic" for r in recs)
    fold = sorted(min(r.theta, 2 * math.pi - r.theta) for r in recs)
    assert fold == pytest.approx(sorted(folded), abs=1e-10)
    assert [r.theta for r in recs if r.ambiguous] == pytest.approx(flagged, abs=1e-10)


def test_word_matrix_is_the_ball_matrix_bit_for_bit():
    c = _rotation(0.4) @ np.diag([math.exp(0.3), math.exp(-0.3)]) @ _rotation(2.2)
    tri = triangle_237_spec()
    spec = GroupSpec(model=tri.model, generators=[c @ g @ np.linalg.inv(c) for g in tri.generators])
    ball = enumerate_elements(spec, 10)
    assert len(ball) > 100
    for el in ball:
        assert spec.word_matrix(el.word).tobytes() == el.matrix.tobytes()


def test_weight_D_values():
    assert weight_D(2.0, (0.0,), 1) == pytest.approx(4.0 * math.sinh(1.0) ** 2, rel=1e-14)
    assert weight_D(1.0, (math.pi,), 1) == pytest.approx(
        math.e + 2.0 + 1.0 / math.e, rel=1e-13
    )
    # explicit adjoint eigenvalue arithmetic as the oracle
    l, th = 0.9, 1.7
    oracle = math.exp(-l) * abs(
        (cmath.exp(l + 1j * th) - 1) * (cmath.exp(l - 1j * th) - 1)
    )
    assert weight_D(l, (th,), 1) == pytest.approx(oracle, rel=1e-13)
    # degeneration toward the identity
    assert weight_D(1e-8, (0.0,), 1) < 1e-15
    with pytest.raises(ValidationError):
        weight_D(0.0, (0.0,), 1)


def test_weight_D_power_consistency():
    l, th = 0.8, 0.6
    for m in (2, 3, 5):
        direct = weight_D(m * l, (m * th,), 1)
        half = (m * l + 1j * ((m * th) % (2 * math.pi))) / 2.0
        assert direct == pytest.approx(4.0 * abs(cmath.sinh(half)) ** 2, rel=1e-12)


def test_v_factor_defaults_to_one_without_subgroup():
    spec = cyclic_h3_spec(1.0)
    ls = build_length_spectrum(spec, 4, cutoff=10.0)
    assert all(r.v == Fraction(1) and r.v_defaulted for r in ls.records)


def test_v_factor_cyclic_index_two():
    spec = cyclic_h3_spec(0.8)
    spec.torsion_free_words = [[1, 1]]
    spec.torsion_free_index = 2
    ls = build_length_spectrum(spec, 6, cutoff=5.0)
    gs = [r for r in ls.hyperbolic() if abs(r.length - 1.6) < 1e-9]
    assert gs and all(r.v == Fraction(2) and not r.v_defaulted for r in gs)
    # power is relative to the subgroup: g^2 is primitive there
    assert all(r.power == 1 and abs(r.primitive_length - 1.6) < 1e-9 for r in gs)


def test_v_factor_trivial_when_subgroup_is_whole_group():
    spec = cyclic_h3_spec(0.8)
    spec.torsion_free_words = [[1]]
    spec.torsion_free_index = 1
    ball = enumerate_elements(spec, 5)
    sub = GroupSpec(model=spec.model, generators=[spec.word_matrix([1])])
    torsion_ball = enumerate_elements(sub, 5)
    recs = conjugacy_reduce(ball, spec, torsion_ball=torsion_ball)
    assert all(r.v == Fraction(1) for r in recs)


def test_v_factor_undetermined_when_ball_too_small():
    spec = cyclic_h3_spec(0.8)
    spec.torsion_free_words = [[1, 1]]
    ball = enumerate_elements(spec, 3)
    # torsion ball with only the identity cannot certify anything
    sub = GroupSpec(model=spec.model, generators=[])
    torsion_ball = enumerate_elements(sub, 3)
    with pytest.raises(UndeterminedVFactorError) as info:
        conjugacy_reduce(ball, spec, torsion_ball=torsion_ball)
    assert info.value.lower_bound >= 1


def test_cyclic_length_spectrum_exact():
    c = 0.7
    spec = cyclic_h3_spec(c)
    cutoff = 5.0
    ls = build_length_spectrum(spec, 7, cutoff=cutoff)
    expected = [m * c for m in range(1, int(cutoff / c) + 1)]
    got = sorted({round(r.length, 9) for r in ls.hyperbolic()})
    assert got == pytest.approx(expected, abs=1e-9)
    for r in ls.hyperbolic():
        m = round(r.length / c)
        assert r.power == m
        assert r.primitive_length == pytest.approx(c, abs=1e-9)
        assert r.length == pytest.approx(r.power * r.primitive_length, abs=1e-8)


def test_tr_chi_is_class_function(rng):
    chi = [
        np.array([[1.3, 0.4], [0.1, 0.8]]),
        np.array([[0.9, -0.2], [0.3, 1.1]]),
    ]
    spec = schottky_spec(chi=chi)
    ball = enumerate_elements(spec, 4)
    mats = np.array([e.matrix for e in ball])
    samples = 0
    for el in ball[1:40]:
        for h in (ball[3], ball[7], ball[11]):
            conj = h.matrix @ el.matrix @ _inv2(h.matrix)
            close = projectively_close(mats, conj, 1e-9 * np.max(np.abs(conj)))
            if not close.any():
                continue
            partner = ball[int(np.argmax(close))]
            t1 = spec.chi_trace(el.word)
            t2 = spec.chi_trace(partner.word)
            assert abs(t1 - t2) < 1e-8
            samples += 1
    assert samples > 20


def test_chi_growth_rate_recovered_by_fit():
    # cyclic group with tr chi(g^m) = 2 cosh(a m): the log-magnitude slope
    # against length must recover a / l0
    a, l0 = 0.9, 0.7
    chi = [np.diag([math.exp(a), math.exp(-a)])]
    spec = cyclic_h3_spec(l0, chi=chi)
    ls = build_length_spectrum(spec, 7, cutoff=6.0)
    lengths = np.array([r.length for r in ls.hyperbolic()])
    mags = np.array([abs(r.tr_chi) for r in ls.hyperbolic()])
    slope = np.polyfit(lengths, np.log(mags), 1)[0]
    assert slope == pytest.approx(a / l0, rel=0.05)


def test_spectrum_csv_roundtrip(tmp_path):
    spec = cyclic_h3_spec(0.9, theta=1.2)
    ls = build_length_spectrum(spec, 5, cutoff=6.0)
    path = tmp_path / "spectrum.csv"
    ls.write_csv(path)
    back = LengthSpectrum.read_csv(path)
    assert back.spec_hash == ls.spec_hash
    assert back.cutoff == ls.cutoff
    assert back.max_word_len == ls.max_word_len
    assert len(back.records) == len(ls.records)
    for a, b in zip(ls.records, back.records):
        assert a.kind == b.kind
        assert a.length == b.length  # exact float round trip via %.17g
        assert a.primitive_length == b.primitive_length
        assert a.power == b.power
        assert a.angles == b.angles
        assert a.D == b.D
        assert a.v == b.v
        assert a.tr_chi == b.tr_chi
        assert a.word == b.word
        assert a.ambiguous == b.ambiguous
    # second write is bitwise identical
    path2 = tmp_path / "spectrum2.csv"
    back.write_csv(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_spectrum_csv_roundtrip_is_equal(tmp_path):
    """Elliptic rows, flagged rows and v in {1, 2, 1/2} come back equal."""
    def record(kind, length, power, angles, v, ambiguous=False):
        hyper = kind == "hyperbolic"
        return ConjClassRecord(
            kind, length, length / power, power, angles,
            2.0 * (math.cosh(length) - math.cos(angles[0])) if hyper else None,
            Fraction(v), complex(0.3 * length, -1.0 / 3.0), (1, -2) if hyper else (-1,),
            ambiguous,
        )

    spectrum = LengthSpectrum(
        records=[
            record("elliptic", 0.0, 1, (math.pi,), 1),
            record("elliptic", 0.0, 1, (2.0 * math.pi / 3.0, 0.1), 1),
            record("hyperbolic", 0.7, 1, (0.25,), 1),
            record("hyperbolic", 1.3, 2, (1.0 / 3.0,), 2, ambiguous=True),
            record("hyperbolic", 2.9, 1, (5.5,), "1/2", ambiguous=True),
        ],
        spec_hash="roundtrip", cutoff=3.5, max_word_len=4,
    )
    path = tmp_path / "spectrum.csv"
    spectrum.write_csv(path)
    assert LengthSpectrum.read_csv(path) == spectrum


def test_group_spec_file_parsing(tmp_path):
    payload = """
    {
      "model": "H3-complex-2x2",
      "generators": [[[ [2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]],
      "torsion_free_subgroup": {"words": [[1, 1]], "index": 2},
      "name": "cyclic"
    }
    """
    path = tmp_path / "group.json"
    path.write_text(payload)
    spec = GroupSpec.from_file(path)
    assert spec.model == "H3-complex-2x2"
    assert spec.torsion_free_words == [[1, 1]]
    assert spec.torsion_free_index == 2
    assert np.allclose(spec.generators[0], np.diag([2.0, 0.5]))


def test_group_spec_rejects_unknown_keys(tmp_path):
    path = tmp_path / "group.json"
    path.write_text('{"model": "H3-complex-2x2", "generators": [], "extra": 1}')
    with pytest.raises(ValidationError):
        GroupSpec.from_file(path)


def test_group_spec_determinant_guard():
    with pytest.raises(ValidationError):
        GroupSpec(model="H3-complex-2x2", generators=[np.diag([2.0, 1.0])])


def test_halfspace_action_sanity():
    # the displacement oracle's own ingredients: isometry invariance
    g = np.array([[1.2, 0.3], [0.5, (1 + 0.3 * 0.5) / 1.2]])
    p = (0.3 + 0.4j, 0.8)
    q = (-0.1 + 0.2j, 1.5)
    d = halfspace_distance(p, q)
    gp = halfspace_apply(g, *p)
    gq = halfspace_apply(g, *q)
    assert halfspace_distance(gp, gq) == pytest.approx(d, rel=1e-12)
