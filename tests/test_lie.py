import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from conftest import (
    block_rotation_trace,
    random_angles,
    random_dominant,
    weyl_act,
    weyl_dn,
)
from selberg.errors import NonRegularElementError, NumericalGuardError, ValidationError
from selberg.lie import (
    PHASE_TOL,
    EllipticAngles,
    WeightVector,
    half_sum_positive_roots,
    parse_angle,
    torus_character,
    w0_flip,
    weyl_character,
    weyl_group,
    _fraction,
)
from selberg.orbital import orbital_polynomial


def test_half_sum_examples():
    assert half_sum_positive_roots(3).coords == (2, 1, 0)
    assert half_sum_positive_roots(1).coords == (0,)
    assert half_sum_positive_roots(2).coords == (1, 0)
    with pytest.raises(ValidationError):
        half_sum_positive_roots(0)


def brute_force_weyl_actions(n):
    """Oracle: all signed permutations with even flip count, as actions."""
    basis = [tuple(2 if j == i else 0 for j in range(n)) for i in range(n)]
    return {tuple(weyl_act(p, s, b) for b in basis) for p, s, _ in weyl_dn(n)}


@pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 24), (4, 192)])
def test_weyl_group_count(n, count):
    perm, signs, det = weyl_group(n)
    assert count == 2 ** (n - 1) * math.factorial(n)
    assert perm.shape == signs.shape == (count, n) and det.shape == (count,)
    assert perm.dtype == signs.dtype == det.dtype == np.int8
    basis = [tuple(2 if j == i else 0 for j in range(n)) for i in range(n)]
    actions = {
        tuple(weyl_act(p, s, b) for b in basis)
        for p, s in zip(perm.tolist(), signs.tolist())
    }
    assert len(actions) == count, "duplicate coordinate actions"
    assert actions == brute_force_weyl_actions(n)
    for a in (perm, signs, det):
        with pytest.raises(ValueError):
            a[0] = 0


def test_weyl_group_rank_guard():
    with pytest.raises(ValidationError):
        weyl_group(0)
    with pytest.raises(ValidationError):
        weyl_group(7)


def test_w0_flip():
    assert w0_flip(WeightVector.from_coords([3, 1])).coords == (3, -1)
    zero = WeightVector.from_coords([0, 0])
    assert w0_flip(zero) == zero
    w = WeightVector.from_coords([2, 1, -1])
    assert w0_flip(w0_flip(w)) == w


def test_torus_character_examples():
    zero = WeightVector.from_coords([0, 0])
    g = EllipticAngles((1.1, 2.2))
    assert torus_character(zero, g) == 1
    one = torus_character(WeightVector.from_coords([1]), EllipticAngles((math.pi,)))
    assert abs(one - (-1)) < 1e-15
    val = torus_character(
        WeightVector.from_coords([1, 2]), EllipticAngles((math.pi / 2, math.pi))
    )
    assert abs(val - 1j) < 1e-15


def test_torus_character_additive(rng):
    for _ in range(40):
        n = rng.choice((1, 2, 3))
        a = WeightVector(tuple(rng.randrange(-6, 7) * 2 for _ in range(n)))
        b = WeightVector(tuple(rng.randrange(-6, 7) * 2 for _ in range(n)))
        g = random_angles(rng, n)
        lhs = torus_character(a, g) * torus_character(b, g)
        rhs = torus_character(a + b, g)
        assert abs(lhs - rhs) < 1e-12


def test_weyl_character_trivial_weight(rng):
    for _ in range(20):
        n = rng.choice((1, 2, 3))
        g = random_angles(rng, n)
        val = weyl_character(WeightVector((0,) * n), g)
        assert abs(val - 1) < 1e-10


def test_weyl_character_so2():
    for k in (-3, -1, 0, 2, 5):
        for phi in (0.4, 1.9, 5.0):
            val = weyl_character(WeightVector.from_coords([k]), EllipticAngles((phi,)))
            assert abs(val - cmath.exp(1j * k * phi)) < 1e-12


def test_weyl_character_standard_rep_oracle(rng):
    hits = 0
    while hits < 120:
        n = rng.choice((2, 3))
        g = random_angles(rng, n)
        std = WeightVector.from_coords([1] + [0] * (n - 1))
        try:
            val = weyl_character(std, g)
        except NonRegularElementError:
            continue
        assert abs(val - block_rotation_trace(g)) < 1e-10
        hits += 1


def test_weyl_character_so4_closed_form(rng):
    for _ in range(20):
        a, b = rng.uniform(0.2, 6.0), rng.uniform(0.2, 6.0)
        if abs(a - b) < 0.1 or abs(a + b - 2 * math.pi) < 0.1:
            continue
        val = weyl_character(
            WeightVector.from_coords([1, 0]), EllipticAngles((a, b))
        )
        assert abs(val - (2 * math.cos(a) + 2 * math.cos(b))) < 1e-10


def test_weyl_character_conjugation_invariance(rng):
    for _ in range(60):
        n = rng.choice((2, 3))
        lam = random_dominant(rng, n)
        g = random_angles(rng, n)
        try:
            base = weyl_character(lam, g)
        except NonRegularElementError:
            continue
        perm = rng.sample(range(n), n)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        signs[-1] *= math.prod(signs)  # an even number of sign changes
        moved = weyl_character(lam, EllipticAngles(weyl_act(perm, signs, g.angles)))
        assert abs(base - moved) < 1e-10 * max(1.0, abs(base))


def test_weyl_character_rejects_non_dominant():
    with pytest.raises(ValidationError, match="not dominant"):
        weyl_character(WeightVector.from_coords([0, 1]), EllipticAngles((0.3, 0.9)))


def test_weyl_character_non_regular_error():
    with pytest.raises(NonRegularElementError):
        weyl_character(WeightVector.from_coords([1, 0]), EllipticAngles((1.3, 1.3)))


def mp_weyl_alternant(mu, phi) -> mpmath.mpc:
    """Oracle: sum of det(w) exp(i <w mu, phi>) in mpmath over the
    itertools listing of W(D_n) in conftest."""
    total = mpmath.mpc(0)
    for perm, signs, det in weyl_dn(len(mu)):
        phase = mpmath.fsum(e * mu[p] * f for e, p, f in zip(signs, perm, phi))
        total += det * mpmath.expj(phase)
    return total


def test_weyl_character_matches_mpmath_weyl_sum_at_clustered_angles(rng):
    # all angles within 10^-2.5..10^-1 of one centre, some mirrored to
    # 2pi - phi (equal cosines): regular, but the alternating sums cancel
    # heavily; kept only when the exact denominator clears 1e-10
    hits = 0
    with mpmath.workdps(40):
        while hits < 30:
            n = rng.choice((3, 4))
            lam = random_dominant(rng, n)
            centre = rng.uniform(0.3, math.pi - 0.3)
            spread = 10 ** rng.uniform(-2.5, -1.0)
            phi = [centre + spread * rng.uniform(-1.0, 1.0) for _ in range(n)]
            phi = [2 * math.pi - a if rng.random() < 0.3 else a for a in phi]
            exact = [mpmath.mpf(a) for a in phi]
            delta = [n - 1 - j for j in range(n)]
            den = mp_weyl_alternant(delta, exact)
            if abs(den) < 1e-10:
                continue
            mu = [mpmath.mpf(d) / 2 + dj for d, dj in zip(lam.doubled, delta)]
            ref = complex(mp_weyl_alternant(mu, exact) / den)
            val = weyl_character(lam, EllipticAngles(tuple(phi)))
            assert abs(val - ref) <= 1e-8 * max(1.0, abs(ref)), (lam, phi)
            hits += 1


def test_weyl_character_standard_rep_rank_7(rng):
    # one angle in each seventh of (0, pi), some mirrored to 2pi - phi: the
    # cosines stay apart, so the rotation is far from singular
    std = WeightVector.from_coords([1] + [0] * 6)
    for _ in range(50):
        phi = [(i + rng.uniform(0.2, 0.8)) * math.pi / 7 for i in range(7)]
        rng.shuffle(phi)
        g = EllipticAngles(tuple(2 * math.pi - a if rng.random() < 0.5 else a for a in phi))
        assert abs(weyl_character(std, g) - block_rotation_trace(g)) < 1e-10


def test_weyl_character_batch_matches_scalar_bitwise(rng):
    for n in (1, 2, 3, 4, 5, 7):
        lam = random_dominant(rng, n)
        batch = [random_angles(rng, n) for _ in range(17)]
        phi = np.array([g.angles for g in batch])
        values = weyl_character(lam, phi)
        assert isinstance(values, np.ndarray) and values.shape == (len(batch),)
        singles = [weyl_character(lam, g) for g in batch]
        assert all(type(v) is complex for v in singles)
        assert values.tolist() == singles
        assert weyl_character(lam, phi[:1]).tolist() == singles[:1]


def test_weyl_character_angle_array_matches_the_batch_bitwise(rng):
    """An (N, n) array of raw angles gives, as an array, the traces at the
    EllipticAngles of its rows: one normalisation, then the same numbers."""
    for n in (1, 2, 3, 5):
        lam = random_dominant(rng, n)
        raw = [[a + 2 * math.pi * rng.randrange(-3, 4) for a in random_angles(rng, n)]
               for _ in range(9)]
        if n == 1:
            raw += [[6 * math.pi - 1e-13], [-1e-13], [0.0]]  # these snap to 0
        values = weyl_character(lam, np.array(raw))
        assert isinstance(values, np.ndarray) and values.shape == (len(raw),)
        assert values.tolist() == [weyl_character(lam, EllipticAngles(tuple(r))) for r in raw]
    std = WeightVector.from_coords([1, 0])
    for bad in (np.zeros((3, 1)), np.zeros(2), np.zeros((0, 3))):
        with pytest.raises(ValidationError, match="rank mismatch"):
            weyl_character(std, bad)
    assert weyl_character(std, np.zeros((0, 2))).shape == (0,)
    with pytest.raises(ValidationError, match="finite"):
        weyl_character(std, np.array([[0.3, 1.1], [math.nan, 0.2]]))


def test_weyl_character_batch_with_one_non_regular_rotation(rng):
    batch = np.array([random_angles(rng, 2).angles for _ in range(5)])
    batch = np.insert(batch, 3, [1.3, 2 * math.pi - 1.3], axis=0)  # equal cosines
    lam = WeightVector.from_coords([2, 1])
    with pytest.raises(NonRegularElementError, match="1.3"):
        weyl_character(lam, batch)
    for bad in (batch[:3, :1], EllipticAngles((0.5,))):
        with pytest.raises(ValidationError, match="rank mismatch"):
            weyl_character(lam, bad)


def test_weight_parse_print_roundtrip():
    for text in ("3/2,1/2,-1/2", "2,1,0", "0", "-5/2,1/2"):
        assert str(WeightVector.parse(text)) == text
    assert WeightVector.parse("3/2,1/2").is_spin_type
    with pytest.raises(ValidationError):
        WeightVector.parse("1,1/2")  # mixed parity
    with pytest.raises(ValidationError):
        WeightVector.parse("1,,2")
    with pytest.raises(ValidationError):
        WeightVector.parse("1/3")


WEIGHT_TOKENS = ("+4", "-0", "007", " 3 ", "4_0", "\u0663", "-\u0663", "3/2", "1.5", "1e0", "1/3",
                 "1e-3000000", "9" * 20, "1" * 5000, "+-4", "0x10", "1 2", "", " ")


def _fraction_route(text):
    """``WeightVector.parse`` with every token read by ``Fraction``, as
    ``from_coords`` reads it."""
    parts = [p.strip() for p in text.split(",")]
    if any(not p for p in parts):
        raise ValidationError(f"malformed weight string: {text!r}")
    try:
        coords = [_fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"malformed weight string: {text!r}") from None
    return WeightVector.from_coords(coords)


def _outcome(parse, text):
    try:
        return parse(text)
    except ValidationError as exc:
        return str(exc)


@pytest.mark.parametrize("text", [*WEIGHT_TOKENS, *(f"5,{t}" for t in WEIGHT_TOKENS),
                                  *(f"{t},1/2" for t in WEIGHT_TOKENS), "1,", ",", "2,,1"],
                         ids=lambda t: repr(t) if len(t) < 30 else f"{t[:4]}...({len(t)} chars)")
def test_weight_parse_matches_the_fraction_route(text):
    """A plain integer token is read by ``int``; every weight and every error
    message is the one the ``Fraction`` route gives."""
    assert _outcome(WeightVector.parse, text) == _outcome(_fraction_route, text)


def test_angle_parsing():
    assert parse_angle("2pi/3") == pytest.approx(2 * math.pi / 3)
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("-pi/2") == pytest.approx(-math.pi / 2)
    assert parse_angle("3pi") == pytest.approx(3 * math.pi)
    assert parse_angle("0.25") == 0.25
    with pytest.raises(ValidationError):
        parse_angle("twopi")
    angles = EllipticAngles.parse("2pi/3, 0.5")
    assert angles.angles == pytest.approx((2 * math.pi / 3, 0.5))
    # normalization into [0, 2pi) with exact-zero snapping
    assert EllipticAngles((-math.pi / 2,)).angles[0] == pytest.approx(3 * math.pi / 2)
    assert EllipticAngles((2 * math.pi,)).angles[0] == 0.0


@pytest.mark.parametrize("token, coef, den", [("pi", 1, 1), ("+pi", 1, 1), ("-pi/2", -1, 2),
                                               ("0pi", 0, 1), ("+3pi/4", 3, 4), ("-12pi/5", -12, 5)])
def test_a_pi_multiple_takes_its_signed_coefficient(token, coef, den):
    assert parse_angle(token) == math.pi * coef / den


def test_weight_vector_validation():
    with pytest.raises(ValidationError):
        WeightVector(())
    with pytest.raises(ValidationError):
        WeightVector((1, 2))
    assert WeightVector((2, 4)).coords == (Fraction(1), Fraction(2))


def test_weight_vector_guards():
    with pytest.raises(ValidationError, match="rank mismatch in weight addition"):
        WeightVector((2, 0)) + WeightVector((2,))
    with pytest.raises(ValidationError, match="doubled coordinates must be integers"):
        WeightVector((1.0,))


def test_weight_coordinates_stay_in_the_exact_float_range():
    """|2k| < 2^53: below it every doubled coordinate, and so mu = sigma +
    delta, is an exact float."""
    assert WeightVector((2**53 - 1, -(2**53 - 1))).is_spin_type
    for doubled in ((2**53,), (0, -(2**53)), (2**60, 2)):
        with pytest.raises(ValidationError, match="2k"):
            WeightVector(doubled)


def test_phases_past_the_float_rounding_are_refused():
    """k*phi is a float product, off by up to |k*phi| * 2^-53.  At k = 4e15
    and phi = 0.7 that is 0.31 rad: each evaluator that forms such phases
    refuses, where it printed 0.99233 for cos(k phi) = 0.98931.  An angle of
    0 gives an exact phase.  Below the bound, the rank-1 character is within
    PHASE_TOL of exp(i k phi) at 50 digits (mpmath, same float phi)."""
    big, at = WeightVector.from_coords([4000000000000001]), EllipticAngles((0.7,))
    evaluators = (torus_character, weyl_character,
                  lambda w, a: weyl_character(w, np.array([a.angles])),
                  lambda w, a: orbital_polynomial(w, a, 1))
    for evaluate in evaluators:
        with pytest.raises(NumericalGuardError, match=r"phases k\*phi .* past 1e-09"):
            evaluate(big, at)
    zero = EllipticAngles((0.0,))
    assert torus_character(big, zero) == weyl_character(big, zero) == 1
    k, phi = 1000000, 6.0  # |k phi| 2^-53 = 6.7e-10
    with mpmath.workdps(50):
        want = complex(mpmath.expj(mpmath.mpf(k) * mpmath.mpf(phi)))
    for got in (torus_character(WeightVector.from_coords([k]), EllipticAngles((phi,))),
                weyl_character(WeightVector.from_coords([k]), np.array([[phi]]))[0]):
        assert abs(got - want) < PHASE_TOL
