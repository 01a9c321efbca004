import cmath
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    axis_fixer_oracle,
    class_row,
    coxeter_534_spec,
    cyclic_h3_spec,
    displacement_infimum,
    elliptic_order3_matrix,
    halfspace_apply,
    halfspace_distance,
    pairwise_dedupe_count,
    reduced_words,
    schottky_spec,
    spectrum_rows,
    synthetic_spectrum,
    triangle_237_spec,
)
from selberg import geometry
from selberg.errors import (
    EnumerationExplosionError,
    ParabolicElementError,
    ValidationError,
)
from selberg.geometry import (
    KINDS,
    Ball,
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
    assert len(ball) == 7 and ball.matrices.shape == (7, 2, 2)
    assert not ball.matrices.flags.writeable
    assert sorted(map(len, ball.words)) == [0, 1, 1, 2, 2, 3, 3]


def test_enumerate_empty_generators():
    spec = GroupSpec(model="H3-complex-2x2", generators=[])
    ball = enumerate_elements(spec, 5)
    assert len(ball) == 1 and ball.words == ((),)


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


def classify_one(matrix, model):
    """(kind name, length, angle) of one matrix, from the stacked ``classify``."""
    kind, length, angle = classify(matrix, model)
    return KINDS[kind[0]], float(length[0]), float(angle[0])


def test_classify_translation_against_displacement_oracle():
    g = np.diag([math.e, 1.0 / math.e])
    kind, length, angle = classify_one(g, "H3-complex-2x2")
    assert kind == "hyperbolic"
    assert length == pytest.approx(2.0, abs=1e-12)
    assert angle == 0.0
    assert displacement_infimum(g) == pytest.approx(2.0, abs=1e-6)


def test_classify_loxodromic_displacement():
    half = (1.4 + 1j * 2.1) / 2.0
    g = np.diag([cmath.exp(half), cmath.exp(-half)])
    kind, length, angle = classify_one(g, "H3-complex-2x2")
    assert kind == "hyperbolic"
    assert length == pytest.approx(1.4, abs=1e-12)
    assert angle == pytest.approx(2.1, abs=1e-12)
    assert displacement_infimum(g) == pytest.approx(1.4, abs=1e-6)


def test_classify_elliptic_and_identity():
    m = elliptic_order3_matrix()
    kind, _, angle = classify_one(m, "H3-complex-2x2")
    assert kind == "elliptic"
    assert angle == pytest.approx(2.0 * math.pi / 3.0, abs=1e-12)
    assert classify_one(np.eye(2), "H3-complex-2x2")[0] == "identity"
    assert classify_one(-np.eye(2), "H3-complex-2x2")[0] == "identity"


def test_classify_parabolic_error():
    with pytest.raises(ParabolicElementError):
        classify(np.array([[1.0, 1.0], [0.0, 1.0]]), "H2-real-2x2")
    with pytest.raises(ParabolicElementError):
        classify(np.array([[-1.0, 1.0], [0.0, -1.0]]), "H3-complex-2x2")


def test_classification_conjugation_stable(rng):
    tri = triangle_237_spec()
    ball = enumerate_elements(tri, 5).matrices
    for _ in range(60):
        a = ball[rng.randrange(len(ball))]
        h = ball[rng.randrange(len(ball))]
        kind, length, angle = classify_one(a, tri.model)
        kind_h, length_h, angle_h = classify_one(h @ a @ _inv2(h), tri.model)
        assert kind == kind_h
        assert length == pytest.approx(length_h, abs=1e-8)
        # in H2 the angle label depends neither on the conjugate nor on the lift
        assert angle == pytest.approx(angle_h, abs=1e-8)
        assert classify_one(-a, tri.model)[2] == pytest.approx(angle, abs=1e-12)


def test_conjugacy_merges_explicit_conjugates():
    tri = triangle_237_spec()
    ball = enumerate_elements(tri, 3)
    i = next(i for i, w in enumerate(ball.words) if len(w) == 1)
    j = next(j for j, w in enumerate(ball.words) if len(w) == 2)
    g, h = ball.matrices[i], ball.matrices[j]
    g_word, h_word = ball.words[i], ball.words[j]
    conj_word = h_word + g_word + tuple(-x for x in reversed(h_word))
    three = Ball(np.stack([g, h @ g @ _inv2(h), h]), (g_word, conj_word, h_word))
    recs = spectrum_rows(conjugacy_reduce(three, tri, cutoff=10.0))
    kind, length, _ = classify_one(g, tri.model)
    same = [r for r in recs if abs(r.length - length) < 1e-8
            and r.kind == kind
            and not r.ambiguous]
    assert any(r.word == g_word for r in same)


def test_triangle_elliptic_classes_are_exact():
    # (2,3,7): x, y, y^-1 and (xy)^k for k = 1..6, one record each
    ls = build_length_spectrum(triangle_237_spec(), 10, cutoff=5.0)
    want = sorted([math.pi, 2 * math.pi / 3, 4 * math.pi / 3]
                  + [2 * math.pi * k / 7 for k in range(1, 7)])
    elliptic = ls.part("elliptic")
    assert len(elliptic.kind) == 9
    assert not elliptic.ambiguous.any()
    assert sorted(elliptic.angles_of_rank(1)[:, 0]) == pytest.approx(want, abs=1e-10)


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
    rows = spectrum_rows(ls.columns)
    assert len(rows) == free_class_count(max_len)
    necklaces = set()
    for r in rows:
        w = r.word
        assert r.kind == "hyperbolic" and 0 < len(w) <= max_len
        assert all(w[i] != -w[i - 1] for i in range(len(w)))  # cyclically reduced
        necklaces.add(min(w[i:] + w[:i] for i in range(len(w))))
        period = next(p for p in range(1, len(w) + 1) if w == w[p:] + w[:p])
        assert r.power == len(w) // period
    assert len(necklaces) == len(rows)


def test_free_ball_matches_exact_products():
    spec = conjugated_free_spec(*FREE_CASES[2][0])
    letters = {}
    for i, g in enumerate(spec.generators, start=1):
        (p, q), (r, s) = [[Fraction(float(x.real)) for x in row] for row in g]
        letters[i], letters[-i] = ((p, q), (r, s)), ((s, -q), (-r, p))  # adjugate
    exact = {(): ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))}
    ball = enumerate_elements(spec, 7)
    assert len(ball) == 1 + 4 * (3**7 - 1) // 2
    for matrix, word in zip(ball.matrices, ball.words):
        if word:
            (a, b), (c, d) = exact[word[:-1]]  # a first-found word's prefix is in the ball
            (p, q), (r, s) = letters[word[-1]]
            exact[word] = ((a * p + b * r, a * q + b * s), (c * p + d * r, c * q + d * s))
        want = np.array(exact[word], dtype=float)
        assert np.max(np.abs(matrix - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_conjugacy_power_decomposition():
    spec = cyclic_h3_spec(2.0)
    ls = build_length_spectrum(spec, 5, cutoff=100.0)
    squares = [r for r in spectrum_rows(ls.part("hyperbolic")) if abs(r.length - 4.0) < 1e-9]
    assert squares and all(r.power == 2 and abs(r.primitive_length - 2.0) < 1e-9 for r in squares)


def test_conjugacy_elliptic_distinct_angles():
    """m and m^2 = m^-1 (in PSL) are rotations by 2pi/3 about one axis,
    with opposite orientations: one angle, and two certified classes of
    the cyclic group."""
    m = elliptic_order3_matrix()
    spec = GroupSpec(model="H3-complex-2x2", generators=[m])
    els = Ball(np.array([m, m @ m], dtype=complex), ((1,), (1, 1)))
    recs = spectrum_rows(conjugacy_reduce(els, spec, cutoff=1.0))
    assert [r.word for r in recs] == [(1,), (1, 1)]
    assert [r.angles[0] for r in recs] == pytest.approx([2 * math.pi / 3] * 2, abs=1e-10)
    assert all(r.kind == "elliptic" and r.length == 0.0 and not r.ambiguous for r in recs)


PHI = (1.0 + math.sqrt(5.0)) / 2.0
#: SU(2) lifts of a quarter-turn, a third-turn and a fifth-turn of the sphere
Q4 = np.diag([cmath.exp(1j * math.pi / 4), cmath.exp(-1j * math.pi / 4)])
Q3 = 0.5 * np.array([[1 + 1j, 1 + 1j], [-1 + 1j, 1 - 1j]])
Q5 = np.array([[PHI / 2 + 0.5j, 1 / (2 * PHI)], [-1 / (2 * PHI), PHI / 2 - 0.5j]])


@pytest.mark.parametrize("gens,max_len,order,angles,flagged", [
    # S4: 4-cycles, 3-cycles, and two classes of half-turns with equal angle
    ([Q4, Q3], 6, 24, [math.pi / 2, 2 * math.pi / 3, math.pi, math.pi], [math.pi, math.pi]),
    # A5: two classes of fifth-turns, third-turns, half-turns
    ([Q5, Q3], 10, 60, [2 * math.pi / 5, 2 * math.pi / 3, 4 * math.pi / 5, math.pi], []),
    # cyclic of order 3: m and m^-1 are distinct classes, and certified so
    ([elliptic_order3_matrix()], 4, 3, [2 * math.pi / 3, 2 * math.pi / 3], []),
], ids=["S4", "A5", "cyclic-3"])
def test_h3_rotation_classes_are_counted_once(gens, max_len, order, angles, flagged):
    """In H3 a rotation by theta is one by 2pi - theta about the reversed
    axis, and gets the angle in [0, pi]; a finite rotation group has one
    record per non-identity class, in angle order."""
    spec = GroupSpec(model="H3-complex-2x2", generators=gens)
    assert len(enumerate_elements(spec, max_len)) == order  # the whole group
    cols = build_length_spectrum(spec, max_len, cutoff=1.0).columns
    assert (cols.kind == "elliptic").all()
    theta = cols.angles_of_rank(1)[:, 0]
    assert theta.tolist() == pytest.approx(angles, abs=1e-10)
    assert theta[cols.ambiguous].tolist() == pytest.approx(flagged, abs=1e-10)


def test_abelian_group_flags_no_class():
    """Conjugacy in an abelian group is equality, so the cyclic group's
    g^k and g^-k are two certified classes, hyperbolic or elliptic."""
    cols = build_length_spectrum(cyclic_h3_spec(2.0, 0.7), 3, cutoff=7.0).columns
    assert cols.word.tolist() == [(-1,), (1,), (-1, -1), (1, 1), (-1, -1, -1), (1, 1, 1)]
    assert cols.power.tolist() == [1, 1, 2, 2, 3, 3]
    assert not cols.ambiguous.any()
    # a free group's g and g^-1 share their invariants and are not conjugate
    assert build_length_spectrum(schottky_spec(), 2, cutoff=7.0).columns.ambiguous.all()


@pytest.mark.parametrize("spec,max_len,cutoff", [
    (schottky_spec(), 7, 12.0), (coxeter_534_spec(), 8, 3.0),
], ids=["schottky", "coxeter-534"])
def test_cutoff_in_the_reduction_keeps_the_classes_below_it(spec, max_len, cutoff):
    """Reducing with the cutoff gives the classes of a reduction without
    one, cut afterwards: flags, witnesses and columns alike."""
    cut = build_length_spectrum(spec, max_len, cutoff)
    assert cut == build_length_spectrum(spec, max_len, 1e300).with_cutoff(cutoff)
    assert cut.count("hyperbolic") and cut.part("hyperbolic").length.max() <= cutoff


def test_witness_data_is_computed_only_within_the_cutoff(monkeypatch):
    """On the Schottky group at L=7 the ball holds 550 hyperbolic classes,
    350 of them within the cutoff 12: only those get their axis fixers."""
    calls = []
    axis_fixers = geometry._axis_fixers

    def counting(*args):
        calls.append(args)
        return axis_fixers(*args)

    monkeypatch.setattr(geometry, "_axis_fixers", counting)
    spectrum = build_length_spectrum(schottky_spec(), 7, 12.0)
    assert len(calls) == spectrum.count("hyperbolic") == 350


def test_commuting_scales_with_both_factors():
    """b^4 and b^-4 commute: their product is about I while each factor is
    about 40, so the rounding of the two products scales with |h| |w|."""
    ball = enumerate_elements(schottky_spec(), 4)
    ball = dict(zip(ball.words, ball.matrices))
    h, w = ball[(2, 2, 2, 2)], ball[(-2, -2, -2, -2)]
    assert geometry._commuting(np.stack([h, w, ball[()]]), w).all()
    assert not geometry._commuting(np.stack([ball[(1,)], ball[(1, 1, 1, 1)]]), w).any()


def test_word_matrix_is_the_ball_matrix_bit_for_bit():
    c = _rotation(0.4) @ np.diag([math.exp(0.3), math.exp(-0.3)]) @ _rotation(2.2)
    tri = triangle_237_spec()
    spec = GroupSpec(model=tri.model, generators=[c @ g @ np.linalg.inv(c) for g in tri.generators])
    ball = enumerate_elements(spec, 10)
    assert len(ball) > 100
    for matrix, word in zip(ball.matrices, ball.words):
        assert spec.word_matrix(word).tobytes() == matrix.tobytes()


def test_weight_D_values():
    assert weight_D(2.0, (0.0,)) == pytest.approx(4.0 * math.sinh(1.0) ** 2, rel=1e-14)
    assert weight_D(1.0, (math.pi,)) == pytest.approx(
        math.e + 2.0 + 1.0 / math.e, rel=1e-13
    )
    # explicit adjoint eigenvalue arithmetic as the oracle
    l, th = 0.9, 1.7
    oracle = math.exp(-l) * abs(
        (cmath.exp(l + 1j * th) - 1) * (cmath.exp(l - 1j * th) - 1)
    )
    assert weight_D(l, (th,)) == pytest.approx(oracle, rel=1e-13)
    # degeneration toward the identity
    assert weight_D(1e-8, (0.0,)) < 1e-15
    with pytest.raises(ValidationError):
        weight_D(0.0, (0.0,))


def test_weight_D_power_consistency():
    l, th = 0.8, 0.6
    for m in (2, 3, 5):
        direct = weight_D(m * l, (m * th,))
        half = (m * l + 1j * ((m * th) % (2 * math.pi))) / 2.0
        assert direct == pytest.approx(4.0 * abs(cmath.sinh(half)) ** 2, rel=1e-12)


def test_v_factor_defaults_to_one_without_subgroup():
    """A group without torsion has no rotation about any axis, so every
    class has m = 1 and v = 1 with no subgroup given."""
    for spec, L in ((cyclic_h3_spec(1.0), 4), (schottky_spec(), 4)):
        v = build_length_spectrum(spec, L, cutoff=10.0).columns.v
        assert len(v) and all(x == Fraction(1) for x in v)


def test_cyclic_classes_have_unit_v_and_their_power():
    """In <g> every class g^k has the trivial rotation group and power k over
    l0 = l(g), so v = 1."""
    ls = build_length_spectrum(cyclic_h3_spec(0.8), 6, cutoff=5.0)
    hyper = spectrum_rows(ls.part("hyperbolic"))
    assert len(hyper) == 2 * 6 and all(x == Fraction(1) for x in ls.columns.v)
    for r in hyper:
        k = round(r.length / 0.8)
        assert r.length == pytest.approx(0.8 * k, rel=1e-12)
        assert r.power == k and r.primitive_length == pytest.approx(0.8, rel=1e-12)


def test_torsion_free_subgroup_key_is_rejected():
    data = {"model": "H3-complex-2x2", "generators": [[[2.0, 0.0], [0.0, 0.5]]],
            "torsion_free_subgroup": {"words": [[1, 1]], "index": 2}}
    with pytest.raises(ValidationError, match="torsion_free_subgroup"):
        GroupSpec.from_dict(data)


def test_spec_hash_is_unchanged():
    """The digest keeps a ``torsion_free_words`` key, so specs keep the
    digests, and spectrum files the headers, they had when that key existed."""
    assert schottky_spec().spec_hash() == "e254e7f9b2a76ae0"
    assert triangle_237_spec().spec_hash() == "1098e120977a761d"


def test_coxeter_534_relations():
    spec = coxeter_534_spec()
    for g, order in zip(spec.generators, (5, 3, 4)):
        assert abs(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0] - 1.0) < 1e-12
        power = np.linalg.matrix_power(g, order)
        assert min(abs(power - np.eye(2)).max(), abs(power + np.eye(2)).max()) < 1e-12
        assert all(abs(np.linalg.matrix_power(g, k) - s * np.eye(2)).max() > 0.1
                   for k in range(1, order) for s in (1, -1))


def test_axis_fixers_match_fixed_point_oracle():
    """v, l0 and power of every hyperbolic class of the [5,3,4] fixture at
    L=8 against a count of the ball elements that fix both Moebius fixed
    points of the witness, made one element at a time in Python."""
    spec = coxeter_534_spec()
    ls = build_length_spectrum(spec, 8, cutoff=4.0)
    ball = list(enumerate_elements(spec, 8).matrices)
    hyper = spectrum_rows(ls.part("hyperbolic"))
    assert len(hyper) == 68
    oracle = axis_fixer_oracle([spec.word_matrix(r.word) for r in hyper], ball)
    for r, (rotations, l0) in zip(hyper, oracle):
        assert r.v == Fraction(1, rotations)
        assert r.primitive_length == pytest.approx(l0, rel=1e-12)
        assert r.power == round(r.length / l0)
    screws = [r for r in hyper if abs(r.length - 2.1225501238) < 1e-9
              and min(abs(r.angles[0] - math.pi / 2), abs(r.angles[0] - 3 * math.pi / 2)) < 1e-9]
    assert len(screws) == 2
    for r in screws:
        assert r.power == 2 and abs(r.primitive_length - 1.0612750619) < 1e-9
        assert r.v == Fraction(1, 4)


@pytest.mark.parametrize("spec,max_len,cutoff,classes", [
    (coxeter_534_spec(), 10, 3.5, 156), (schottky_spec(), 6, 12.0, 222),
], ids=["coxeter-534", "schottky"])
def test_weight_D_is_the_witness_trace_discriminant(spec, max_len, cutoff, classes):
    """At n = 1 the weight of a class is D = |(tr W)^2 - 4| for its witness
    matrix W: the eigenvalue lambda = e^{(l + i theta)/2} gives
    |lambda - 1/lambda|^2 = 2 (cosh l - cos theta), and (lambda - 1/lambda)^2
    = (tr W)^2 - 4.  The trace is read from the word, not from l and theta."""
    hyp = build_length_spectrum(spec, max_len, cutoff).part("hyperbolic")
    assert len(hyp.kind) == classes
    want = np.abs(np.array([np.trace(spec.word_matrix(w)) for w in hyp.word]) ** 2 - 4)
    assert (np.abs(hyp.D - want) / want).max() <= 1e-13


def test_centralizer_of_a_hand_built_h3_ball():
    """A ball on the axis (0, inf): a screw S, the rotations R^k of order 4
    about the axis, the witness W = S^2 R, a half-turn J that swaps the
    axis's ends (J W J^-1 = W^-1) and a screw T of S's length that shares
    only the end inf.  W's centralizer in the ball is the identity, R, R^2,
    R^3 and S, so m = 4, l0 = l(S) and the power is 2; J and T are left out."""
    length, turn = 1.1, 0.5
    half = (length + 1j * turn) / 2.0
    r = np.diag([cmath.exp(1j * math.pi / 4), cmath.exp(-1j * math.pi / 4)])
    s = np.diag([cmath.exp(half), cmath.exp(-half)])
    c = np.array([[1.0, 0.5], [0.0, 1.0]])  # moves the end 0 to 0.5
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    spec = GroupSpec(model="H3-complex-2x2", generators=[r, s, c, j])
    words = [(), (1,), (1, 1), (-1,), (2,), (3, 2, -3), (4,), (2, 2, 1)]
    ball = Ball(np.array([spec.word_matrix(w) for w in words]), tuple(words))
    w = spec.word_matrix((2, 2, 1))
    assert projectively_close(j @ w @ _inv2(j), _inv2(w), 1e-12)
    assert not geometry._commuting(j[None], w)[0]

    cols = conjugacy_reduce(ball, spec, cutoff=10.0)
    rows = {r.word: r for r in spectrum_rows(cols) if r.kind == "hyperbolic"}
    assert set(rows) == {(2,), (3, 2, -3), (2, 2, 1)}
    witness = rows[(2, 2, 1)]
    assert witness.length == pytest.approx(2 * length, rel=1e-12)
    assert witness.angles[0] == pytest.approx(2 * turn + math.pi / 2, rel=1e-12)
    assert witness.power == 2 and witness.v == Fraction(1, 4)
    assert witness.primitive_length == pytest.approx(length, rel=1e-12)
    # S has the same rotations and no shorter screw; T commutes with no rotation
    assert (rows[(2,)].power, rows[(2,)].v) == (1, Fraction(1, 4))
    assert (rows[(3, 2, -3)].power, rows[(3, 2, -3)].v) == (1, Fraction(1))


def test_coxeter_534_elliptic_classes():
    """The [5,3,4] fixture at L=8 has 7 elliptic classes: the rotations of
    orders 5, 3 and 4 about the edges with dihedral angles pi/5, pi/3 and
    pi/4 (angles 2pi/5, 4pi/5, 2pi/3 and pi/2), and three half-turn
    classes: the square of the order-4 rotation, the half-turn about edge
    (0,2), and the one about edges (0,3) and (1,3), which share one axis.
    The four that are not half-turns are unflagged."""
    elliptic = build_length_spectrum(coxeter_534_spec(), 8, cutoff=4.0).part("elliptic")
    assert len(elliptic.kind) == 7
    theta = elliptic.angles_of_rank(1)[:, 0]
    want = sorted([2 * math.pi / 5, 4 * math.pi / 5, 2 * math.pi / 3, math.pi / 2] + [math.pi] * 3)
    assert theta.tolist() == pytest.approx(want, abs=1e-10)
    rotations = abs(theta - math.pi) > 1e-6
    assert rotations.sum() == 4 and not elliptic.ambiguous[rotations].any()


def test_cyclic_length_spectrum_exact():
    c = 0.7
    spec = cyclic_h3_spec(c)
    cutoff = 5.0
    ls = build_length_spectrum(spec, 7, cutoff=cutoff)
    expected = [m * c for m in range(1, int(cutoff / c) + 1)]
    hyper = spectrum_rows(ls.part("hyperbolic"))
    got = sorted({round(r.length, 9) for r in hyper})
    assert got == pytest.approx(expected, abs=1e-9)
    for r in hyper:
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
    mats, words = ball.matrices, ball.words
    samples = 0
    for i in range(1, 40):
        for h in (mats[3], mats[7], mats[11]):
            conj = h @ mats[i] @ _inv2(h)
            close = projectively_close(mats, conj, 1e-9 * np.max(np.abs(conj)))
            if not close.any():
                continue
            t1 = spec.chi_trace(words[i])
            t2 = spec.chi_trace(words[int(np.argmax(close))])
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
    hyper = ls.part("hyperbolic")
    lengths, mags = hyper.length, abs(hyper.tr_chi)
    slope = np.polyfit(lengths, np.log(mags), 1)[0]
    assert slope == pytest.approx(a / l0, rel=0.05)


def test_spectrum_csv_roundtrip(tmp_path):
    spec = cyclic_h3_spec(0.9, theta=1.2)
    ls = build_length_spectrum(spec, 5, cutoff=6.0)
    path = tmp_path / "spectrum.csv"
    path.write_text(ls.to_csv(), encoding="utf-8")
    back = LengthSpectrum.read_csv(path)
    assert back.spec_hash == ls.spec_hash
    assert back.cutoff == ls.cutoff
    assert back.max_word_len == ls.max_word_len
    assert len(back.columns.kind) == len(ls.columns.kind)
    for a, b in zip(spectrum_rows(ls.columns), spectrum_rows(back.columns)):
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
    path2.write_text(back.to_csv(), encoding="utf-8")
    assert path.read_bytes() == path2.read_bytes()


def test_spectrum_csv_roundtrip_is_equal(tmp_path):
    """Elliptic rows, flagged rows and v in {1, 2, 1/2} come back equal."""
    def record(kind, length, power, angles, v, ambiguous=False):
        hyper = kind == "hyperbolic"
        return class_row(
            kind, length, angles, power=power,
            D=2.0 * (math.cosh(length) - math.cos(angles[0])) if hyper else None,
            v=Fraction(v), tr_chi=complex(0.3 * length, -1.0 / 3.0),
            word=(1, -2) if hyper else (-1,), ambiguous=ambiguous,
        )

    spectrum = synthetic_spectrum(
        [
            record("elliptic", 0.0, 1, (math.pi,), 1),
            record("elliptic", 0.0, 1, (2.0 * math.pi / 3.0, 0.1), 1),
            record("hyperbolic", 0.7, 1, (0.25,), 1),
            record("hyperbolic", 1.3, 2, (1.0 / 3.0,), 2, ambiguous=True),
            record("hyperbolic", 2.9, 1, (5.5,), "1/2", ambiguous=True),
        ],
        spec_hash="roundtrip", cutoff=3.5, max_word_len=4,
    )
    path = tmp_path / "spectrum.csv"
    path.write_text(spectrum.to_csv(), encoding="utf-8")
    assert LengthSpectrum.read_csv(path) == spectrum


def test_spectrum_equality_reads_the_columns():
    """Spectra are equal when their rows are, NaN D and exact v included;
    one flag makes them differ."""
    rows = [
        class_row("elliptic", 0.0, (math.pi,), word=(-1,)),
        class_row("hyperbolic", 1.3, (0.5,), power=2, D=2.5, v=Fraction(1, 3), word=(1, 2, 1)),
        class_row("hyperbolic", 2.0, (0.25,), D=4.5, v=Fraction(1, 2), word=(2,)),
    ]
    spectrum = synthetic_spectrum(rows, "eq", 3.0, 3)
    assert np.isnan(spectrum.columns.D[0]) and spectrum.columns.v[1] == Fraction(1, 3)
    assert spectrum == synthetic_spectrum(rows, "eq", 3.0, 3)
    assert spectrum.with_cutoff(1.0) == synthetic_spectrum(rows[:1], "eq", 1.0, 3)
    flagged = [rows[0], rows[1]._replace(ambiguous=True), rows[2]]
    assert spectrum != synthetic_spectrum(flagged, "eq", 3.0, 3)
    assert spectrum != synthetic_spectrum(rows, "eq", 3.0, 4)


def test_spectrum_is_stored_in_canonical_order(tmp_path):
    """Hyperbolic rows are sorted by (l, angles, word) as tuples compare, with
    ties as given; elliptic rows come first, in the order given.  Flags move
    with their rows, and the CSV is written in the canonical order."""
    def record(kind, length, angles, word, flag=False):
        hyper = kind == "hyperbolic"
        return class_row(kind, length, angles, D=1.5 if hyper else None,
                         tr_chi=complex(length, 0.5), word=word, ambiguous=flag)

    recs = [
        record("hyperbolic", 2.0, (0.5,), (1, 2)),
        record("elliptic", 0.0, (2.0,), (-1,), True),
        record("hyperbolic", 1.0, (0.5,), (2,)),
        record("hyperbolic", 2.0, (0.5,), (1,), True),
        record("hyperbolic", 2.0, (0.5,), (1, -3)),
        record("hyperbolic", 2.0, (0.25,), (9,)),
        record("elliptic", 0.0, (1.0,), (-2,)),
        record("hyperbolic", 1.0, (0.5,), ()),
    ]
    want = [r for r in recs if r.kind == "elliptic"] + sorted(
        (r for r in recs if r.kind == "hyperbolic"), key=lambda r: (r.length, r.angles, r.word)
    )
    spectrum = synthetic_spectrum(recs, "order", 3.0, 2)
    assert spectrum_rows(spectrum.columns) == want
    path = tmp_path / "spectrum.csv"
    path.write_text(spectrum.to_csv())
    assert path.read_text().splitlines()[1] == "# ambiguous=0.5"
    shuffled = tmp_path / "shuffled.csv"
    lines = path.read_text().splitlines()
    shuffled.write_text("\n".join(lines[:3] + lines[:2:-1]).replace("ambiguous=0.5", "ambiguous=2.7")
                        + "\n")
    assert spectrum_rows(LengthSpectrum.read_csv(shuffled).columns) == [*reversed(want[:2]),
                                                                         *want[2:]]
    cut = spectrum.with_cutoff(1.5)
    assert (cut.cutoff, spectrum_rows(cut.columns)) == (1.5, want[:4])
    with pytest.raises(ValidationError, match="cutoff"):
        spectrum.with_cutoff(math.nan)


def test_canonical_order_against_a_written_out_table():
    """The elliptic rows as given, then the hyperbolic rows by (l, angles,
    word): a shorter tuple before its extensions, and a -0.0/0.0 tie in the
    given order.  Rows given as lists make the same spectrum as tuples."""
    rows = [  # (kind, l, angles, word)
        ("hyperbolic", 2.0, (0.5,), (1, -2)),
        ("elliptic", 0.0, (2.0,), (1,)),
        ("hyperbolic", 1.0, (0.0, 1.0), (1,)),
        ("hyperbolic", 2.0, (0.5,), (-2,)),
        ("hyperbolic", 1.0, (0.0,), (2,)),
        ("elliptic", 0.0, (1.0,), (2,)),
        ("hyperbolic", 1.0, (-0.0,), (2,)),
        ("hyperbolic", 2.0, (0.5,), (1,)),
    ]
    spectrum = synthetic_spectrum([class_row(k, l, a, word=w) for k, l, a, w in rows])
    body = [line.split(",") for line in spectrum.to_csv().splitlines()[2:]]
    assert [(f[0], f[1], f[4], f[9]) for f in body] == [
        ("elliptic", "0", "2", "1"),
        ("elliptic", "0", "1", "2"),
        ("hyperbolic", "1", "0", "2"),
        ("hyperbolic", "1", "-0", "2"),
        ("hyperbolic", "1", "0|1", "1"),
        ("hyperbolic", "2", "0.5", "-2"),
        ("hyperbolic", "2", "0.5", "1"),
        ("hyperbolic", "2", "0.5", "1.-2"),
    ]
    as_lists = synthetic_spectrum([class_row(k, l, a, word=w)._replace(angles=list(a), word=list(w))
                                   for k, l, a, w in rows])
    assert as_lists == spectrum and as_lists.to_csv() == spectrum.to_csv()
    assert as_lists.columns.angles.shape == as_lists.columns.word.shape == (8,)
    for n in (1, 2):
        with pytest.raises(ValidationError, match="rank mismatch between weight and angles"):
            spectrum.part("hyperbolic").angles_of_rank(n)


def test_spectrum_csv_roundtrip_with_ragged_rows_in_later_chunks(tmp_path):
    """Rows whose angle or word counts differ from those of earlier rows
    come back equal."""
    recs = [
        class_row("hyperbolic", 1.0 + i / 64, (0.5,) * (1 + (i > 500)), primitive_length=1.0,
                  D=2.5, v=Fraction(1, 1 + i % 3), tr_chi=complex(i, -i),
                  word=(1, -2) * (1 + i // 200), ambiguous=i == 7)
        for i in range(700)
    ]
    spectrum = synthetic_spectrum(recs, "ragged", 12.0, 6)
    path = tmp_path / "spectrum.csv"
    path.write_text(spectrum.to_csv(), encoding="utf-8")
    back = LengthSpectrum.read_csv(path)
    assert back == spectrum and spectrum_rows(back.columns) == recs
    assert back.to_csv() == path.read_text()


RULE_ROW = "hyperbolic,1.0,1.0,1,0.5,1.3,0,1.0,0.0,1"  # converts, but v = 0
MALFORMED_ROW = "hyperbolic,1.0,1.0,1,0.5,1.3,1,1.0,0.0,1.x"  # the word does not convert
ROW_PROBLEMS = {RULE_ROW: "v must be positive",
                MALFORMED_ROW: f"malformed spectrum row {MALFORMED_ROW!r}"}


def _spectrum_rows_file(path, count: int, bad: dict):
    """A spectrum file of ``count`` good rows with the rows of ``bad`` put in at their indices."""
    rows = [f"hyperbolic,{1.0 + k / 1000!r},1.0,1,0.5,1.3,1,1.0,0.0,{k + 1}" for k in range(count)]
    for k, row in bad.items():
        rows[k] = row
    path.write_text("\n".join(["# selberg-spectrum spec_hash=x cutoff=5 max_word_len=0",
                               geometry._CSV_COLUMNS, *rows]) + "\n")
    return path


@pytest.mark.parametrize("i", range(9))
def test_read_csv_names_the_first_bad_row_wherever_it_is(tmp_path, i):
    """The first bad row is named wherever it lies: a broken rule and a
    failed conversion each come first in turn, and a bad row of the other
    kind after it does not hide it."""
    first, other = (RULE_ROW, MALFORMED_ROW) if i % 2 == 0 else (MALFORMED_ROW, RULE_ROW)
    bad = {i: first} if i == 8 else {i: first, 8: other}
    path = _spectrum_rows_file(tmp_path / "rows.csv", 9, bad)
    with pytest.raises(ValidationError) as err:
        LengthSpectrum.read_csv(path)
    assert str(err.value) == f"{path} line {i + 3}: {ROW_PROBLEMS[first]}"


@pytest.mark.parametrize("v,message", [
    ("1e-400", "v must be positive"),
    ("1e-3000000", "v must be positive"),
    ("-1e-3000000", "v must be positive"),
    ("1e400", "v is too large for a float"),
    ("-1e400", "v is too large for a float"),
    ("1e3000000", "v is too large for a float"),
    ("1/0", None),
    ("1/2e3000000", None),
])
def test_read_csv_v_exponent_is_judged_without_building_it(tmp_path, v, message):
    """A v far beyond the float range fails at once with the message of its
    size, and a v that does not convert is a malformed row."""
    row = f"hyperbolic,1.0,1.0,1,0.5,1.3,{v},1.0,0.0,1"
    path = _spectrum_rows_file(tmp_path / "v.csv", 2, {1: row})
    start = time.perf_counter()
    with pytest.raises(ValidationError) as err:
        LengthSpectrum.read_csv(path)
    assert time.perf_counter() - start < 0.05
    assert str(err.value) == f"{path} line 4: {message or f'malformed spectrum row {row!r}'}"


def _counting_parses(monkeypatch) -> list:
    """The texts of the rows ``_spectrum_row`` converts from now on."""
    parsed = []
    spectrum_row = geometry._spectrum_row

    def counting(text, fractions):
        parsed.append(text)
        return spectrum_row(text, fractions)

    monkeypatch.setattr(geometry, "_spectrum_row", counting)
    return parsed


@pytest.mark.parametrize("k", [0, 2047, 4095])
@pytest.mark.parametrize("bad", [RULE_ROW, MALFORMED_ROW], ids=["rule", "malformed"])
def test_read_csv_stops_at_the_first_bad_row(tmp_path, monkeypatch, bad, k):
    """A file of 4096 rows whose only bad row is row k converts rows 0..k
    and no row after it, on every read."""
    count = 4096
    path = _spectrum_rows_file(tmp_path / "rows.csv", count, {k: bad})
    parsed = _counting_parses(monkeypatch)
    for _ in range(2):  # a bad file is never kept: a second read costs the same
        parsed.clear()
        with pytest.raises(ValidationError) as err:
            LengthSpectrum.read_csv(path)
        assert str(err.value) == f"{path} line {k + 3}: {ROW_PROBLEMS[bad]}"
        assert len(parsed) == k + 1 and parsed[-1] == bad


def _memo_file(path, tag: str, lengths=(1.5, 2.5)):
    """A spectrum file whose spec_hash ``tag`` no other test's file has."""
    rows = [f"hyperbolic,{x!r},{x!r},1,0.5,1.3,1,1.0,0.0,{k + 1}" for k, x in enumerate(lengths)]
    path.write_text("\n".join([f"# selberg-spectrum spec_hash={tag} cutoff=5 max_word_len=0",
                               geometry._CSV_COLUMNS, *rows]) + "\n")
    return path


def test_read_csv_memo_is_keyed_on_content_not_mtime(tmp_path):
    """New bytes of the same length under the old mtime read as the new spectrum."""
    path = _memo_file(tmp_path / "s.csv", "memo-mtime", (1.5, 2.5))
    stat = path.stat()
    assert LengthSpectrum.read_csv(path).columns.length.tolist() == [1.5, 2.5]
    size = len(path.read_bytes())
    _memo_file(path, "memo-mtime", (1.5, 2.6))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert len(path.read_bytes()) == size and path.stat().st_mtime_ns == stat.st_mtime_ns
    assert LengthSpectrum.read_csv(path).columns.length.tolist() == [1.5, 2.6]


def test_read_csv_parses_each_content_once(tmp_path, monkeypatch):
    """One content is parsed once, at any path; another content is parsed
    again, and the memo keeps only the last one read."""
    parsed = _counting_parses(monkeypatch)
    one = _memo_file(tmp_path / "a.csv", "memo-once")
    same = _memo_file(tmp_path / "b.csv", "memo-once")
    other = _memo_file(tmp_path / "c.csv", "memo-once-other")
    rows = 2  # in each file
    first = LengthSpectrum.read_csv(one)
    assert LengthSpectrum.read_csv(one) is first and LengthSpectrum.read_csv(same) == first
    assert len(parsed) == rows
    assert LengthSpectrum.read_csv(other) != first
    assert len(parsed) == 2 * rows
    assert LengthSpectrum.read_csv(one) == first
    assert len(parsed) == 3 * rows


def test_read_csv_keeps_no_failure(tmp_path, monkeypatch):
    """A bad file fails with the same message on every read, and the same
    path read good afterwards gives its spectrum."""
    parsed = _counting_parses(monkeypatch)
    path = _spectrum_rows_file(tmp_path / "rows.csv", 4, {2: RULE_ROW})
    messages = []
    for _ in range(2):
        with pytest.raises(ValidationError) as err:
            LengthSpectrum.read_csv(path)
        messages.append(str(err.value))
    assert messages == [f"{path} line 5: v must be positive"] * 2
    assert len(parsed) == 6 and parsed[:3] == parsed[3:]  # rows 0..2, on each read
    _memo_file(path, "memo-after-bad")
    assert LengthSpectrum.read_csv(path).spec_hash == "memo-after-bad"


def test_spectrum_columns_are_read_only(tmp_path):
    """Every column of a spectrum, read or built, refuses an in-place write;
    the spectrum's own operations still work."""
    built = build_length_spectrum(cyclic_h3_spec(0.8, theta=0.7), 4, cutoff=5.0)
    path = tmp_path / "s.csv"
    path.write_text(built.to_csv().replace("spec_hash=", "spec_hash=read-only-"))
    read = LengthSpectrum.read_csv(path)
    for spectrum in (built, read):
        assert len(spectrum.columns.kind) > 0
        for column in spectrum.columns:
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[0]
        cut = spectrum.with_cutoff(2.0)
        assert cut.cutoff == 2.0 and cut.count("hyperbolic") < spectrum.count("hyperbolic")
        assert len(spectrum.part("hyperbolic").length) == spectrum.count("hyperbolic")
    assert read == LengthSpectrum.read_csv(path) and read != built
    assert read.to_csv() == path.read_text()
    assert built.to_csv() == path.read_text().replace("spec_hash=read-only-", "spec_hash=")


def test_spectrum_parts_are_read_only_views():
    """``part`` is the elliptic or the hyperbolic block of the columns, as
    views, and ``count`` its length; an unknown kind is refused."""
    recs = [class_row("hyperbolic", 2.0 - k / 10, (0.5,), D=1.0, word=(k + 1,)) for k in range(5)]
    recs[1:1] = [class_row("elliptic", 0.0, (1.0,), word=(-1,)),
                 class_row("elliptic", 0.0, (2.0,), word=(-2,))]
    for spectrum in (synthetic_spectrum(recs), synthetic_spectrum(recs[2:3]), synthetic_spectrum()):
        rows = spectrum_rows(spectrum.columns)
        for kind in ("elliptic", "hyperbolic"):
            part = spectrum.part(kind)
            assert spectrum_rows(part) == [row for row in rows if row.kind == kind]
            assert spectrum.count(kind) == len(part.kind)
            for view, column in zip(part, spectrum.columns):
                assert np.shares_memory(view, column) or not len(view)
                assert not view.flags.writeable
    assert (spectrum.count("elliptic"), spectrum.count("hyperbolic")) == (0, 0)
    for kind in ("identity", "parabolic", "Hyperbolic"):
        with pytest.raises(ValidationError, match="unknown class kind"):
            synthetic_spectrum(recs).part(kind)
        with pytest.raises(ValidationError, match="unknown class kind"):
            synthetic_spectrum(recs).count(kind)
        with pytest.raises(ValidationError, match="unknown class kind"):
            synthetic_spectrum([*recs, class_row(kind, 1.0, (0.5,), D=1.0)])


def test_group_spec_file_parsing(tmp_path):
    payload = """
    {
      "model": "H3-complex-2x2",
      "generators": [[[ [2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]],
      "name": "cyclic"
    }
    """
    path = tmp_path / "group.json"
    path.write_text(payload)
    spec = GroupSpec.from_file(path)
    assert spec.model == "H3-complex-2x2" and spec.name == "cyclic"
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
