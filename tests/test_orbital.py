import cmath
import math
from fractions import Fraction

import pytest

from conftest import (
    brute_orbital_value,
    brute_orbital_values,
    random_angles,
    random_dominant,
    random_flip_moved_dominant,
    synthetic_spectrum,
    weyl_act,
    weyl_dn,
)
from selberg.errors import ValidationError
from selberg.lie import (
    TWO_PI,
    EllipticAngles,
    WeightVector,
    half_sum_positive_roots,
    w0_flip,
    weyl_group,
)
from selberg.orbital import (
    EvenPolynomial,
    orbital_polynomial,
    plancherel_polynomial,
    stabilizer_roots,
    weyl_A_invariance_gap,
)
from selberg.zeta import ZetaTermContext, geometric_heat_terms

E1M_E2 = (1, -1, 0)
E1P_E2 = (1, 1, 0)
E2M_E3 = (0, 1, -1)


def root_set(angles, n):
    return {tuple(r) for r in stabilizer_roots(angles, n).tolist()}


def test_stabilizer_roots_regular():
    assert stabilizer_roots(EllipticAngles((0.7, 2.3)), 2).shape == (0, 3)


def test_stabilizer_roots_zero_angle():
    assert root_set(EllipticAngles((0.0, 1.234)), 2) == {E1M_E2, E1P_E2}


def test_stabilizer_roots_equal_angles():
    assert root_set(EllipticAngles((1.234, 1.234)), 2) == {E2M_E3}


def test_stabilizer_roots_supplementary_angles():
    # angles summing to 2 pi fix exactly the compact sum root
    theta = 1.1
    assert root_set(EllipticAngles((theta, 2 * math.pi - theta)), 2) == {(0, 1, 1)}


def test_orbital_rank1_ratio():
    phi = 1.37
    for k in (1, 2, 5):
        pk = orbital_polynomial(WeightVector.from_coords([k]), EllipticAngles((phi,)), 1)
        p0 = orbital_polynomial(WeightVector.from_coords([0]), EllipticAngles((phi,)), 1)
        assert pk.degree == 0 and p0.degree == 0
        ratio = pk.coeffs[0] / p0.coeffs[0]
        assert abs(ratio - cmath.exp(-1j * k * phi)) < 1e-12


def test_orbital_identity_block_structure():
    # one zero angle, trivial weight: the paired noncompact roots force a
    # -(nu^2 + k^2)-type factor per zero slot
    poly = orbital_polynomial(
        WeightVector.from_coords([0, 0]), EllipticAngles((0.0, 1.9)), 2
    )
    assert poly.degree == 2
    assert poly.even_residual < 1e-12


def test_orbital_evenness_is_postcondition(rng):
    for _ in range(100):
        n = rng.choice((1, 2, 3))
        sigma = random_dominant(rng, n, spin=rng.random() < 0.3)
        angles = random_angles(rng, n, zero_slots=rng.choice((0, 0, 1, n)),
                               degenerate=True)
        poly = orbital_polynomial(sigma, angles, n)
        assert poly.even_residual < 1e-10


def test_orbital_degree_law(rng):
    for _ in range(60):
        n = rng.choice((1, 2, 3))
        sigma = random_dominant(rng, n)
        angles = random_angles(rng, n, zero_slots=rng.choice((0, 1, n)))
        noncompact = sum(1 for r in stabilizer_roots(angles, n) if r[0] != 0)
        poly = orbital_polynomial(sigma, angles, n)
        assert poly.degree == noncompact


def test_orbital_regular_limit(rng):
    # regular angles: constant polynomial equal to the bare alternating sum
    for _ in range(30):
        n = rng.choice((2, 3))
        sigma = random_dominant(rng, n)
        angles = random_angles(rng, n)
        if len(stabilizer_roots(angles, n)):
            continue
        poly = orbital_polynomial(sigma, angles, n)
        assert poly.degree == 0
        shifted = [d / 2 for d in (sigma + half_sum_positive_roots(n)).doubled]
        bare = 0j
        for perm, signs, det in weyl_dn(n):
            k = weyl_act(perm, signs, shifted)
            bare += det * cmath.exp(-1j * math.fsum(x * a for x, a in zip(k, angles)))
        assert abs(poly.coeffs[0] - bare) < 1e-12 * max(1.0, abs(bare))


def test_orbital_rejects_non_dominant():
    with pytest.raises(ValidationError):
        orbital_polynomial(
            WeightVector.from_coords([0, 1]), EllipticAngles((0.3, 0.9)), 2
        )


def test_orbital_brute_force_oracle(rng):
    worst = 0.0
    for _ in range(80):
        n = rng.choice((1, 2))
        sigma = random_dominant(rng, n)
        angles = random_angles(rng, n, zero_slots=rng.choice((0, 1, n)),
                               degenerate=True)
        poly = orbital_polynomial(sigma, angles, n)
        samples = 2 * (poly.degree // 2 + 1)
        for i in range(samples):
            nu = -2.5 + i * 1.6180339887
            want = brute_orbital_value(sigma, angles.angles, n, nu)
            got = poly(nu)
            worst = max(worst, abs(got - want) / max(abs(want), 1.0))
    assert worst < 1e-9


def separated_angles(rng, n, gap=0.2):
    """n angles at least ``gap`` from 0, from pi and from each other's +-,
    mod 2 pi, so that no root of so(2n) fixes the rotation."""

    def off(x):  # distance from 2 pi Z
        return abs(x - TWO_PI * round(x / TWO_PI))

    while True:
        phi = [rng.uniform(gap, TWO_PI - gap) for _ in range(n)]
        if all(off(a - math.pi) >= gap for a in phi) and all(
            off(a - s * b) >= gap
            for i, a in enumerate(phi) for b in phi[i + 1:] for s in (1, -1)
        ):
            return phi


def compact_root(n, a, b, sign):
    """e_{a+2} + sign * e_{b+2} for slots a < b, over (e_1, ..., e_{n+1})."""
    return tuple(1 if i == a + 1 else sign if i == b + 1 else 0 for i in range(n + 1))


@pytest.mark.parametrize("n,shape", [
    (4, "one-zero"), (4, "two-zero"), (4, "equal-pair"), (4, "all-zero"),
    (5, "one-zero"), (5, "two-zero"), (5, "equal-pair"),
    (6, "one-zero"), (6, "two-zero"), (6, "equal-pair"),
    (4, "pi-pair"), (4, "opposite-pair"),
    (5, "pi-pair"), (5, "opposite-pair"),
    (6, "pi-pair"), (6, "opposite-pair"),
])
def test_orbital_higher_rank_oracle(rng, n, shape):
    sigma = random_dominant(rng, n)
    phi = list(random_angles(rng, n).angles)
    if shape == "all-zero":
        phi = [0.0] * n
    elif shape == "equal-pair":
        phi[2] = phi[0]
    elif shape in ("pi-pair", "opposite-pair"):
        phi = separated_angles(rng, n)
        a, b = sorted(rng.sample(range(n), 2))
        if shape == "pi-pair":
            phi[a] = phi[b] = math.pi
            want = {compact_root(n, a, b, -1), compact_root(n, a, b, 1)}
        else:
            phi[b] = TWO_PI - phi[a]
            want = {compact_root(n, a, b, 1)}
        assert root_set(EllipticAngles(tuple(phi)), n) == want
    else:
        for slot in rng.sample(range(n), 1 if shape == "one-zero" else 2):
            phi[slot] = 0.0
    angles = EllipticAngles(tuple(phi))
    poly = orbital_polynomial(sigma, angles, n)
    nus = (0.3, 1.1, 2.7)
    for nu, want in zip(nus, brute_orbital_values(sigma, angles.angles, n, nus)):
        assert abs(poly(nu) - want) <= 1e-10 * abs(want), (sigma, phi, nu)


def identity_closed_form(sigma):
    """Exact coefficients of nu^0, nu^2, ... of
    (-1)^n 2^{n-1} n! prod_{i<j} (mu_i^2 - mu_j^2) prod_a (nu^2 + mu_a^2),
    mu = sigma + delta, in rationals from the doubled coordinates."""
    n = sigma.rank
    mu = [Fraction(d, 2) + n - 1 - i for i, d in enumerate(sigma.doubled)]
    lead = Fraction((-1) ** n * 2 ** (n - 1) * math.factorial(n))
    for i in range(n):
        for j in range(i + 1, n):
            lead *= mu[i] ** 2 - mu[j] ** 2
    coeffs = [lead]
    for m in mu:
        coeffs = [x * m * m + y for x, y in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


@pytest.mark.parametrize("n", range(1, 7))
def test_orbital_closed_form_at_identity(rng, n):
    # all angles zero: every root fixes the rotation, and the Weyl sum
    # collapses to a product formula that shares no code with the package
    sigmas = [WeightVector((0,) * n)] + [
        random_dominant(rng, n, spin=spin) for spin in (False, True) for _ in range(4)
    ]
    for sigma in sigmas:
        want = [float(c) for c in identity_closed_form(sigma)]
        got = orbital_polynomial(sigma, EllipticAngles((0.0,) * n), n).coeffs
        assert len(got) == len(want), sigma
        scale = max(map(abs, want))
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * (abs(w) or scale), (sigma, got, want)


def test_identity_closed_form_small_ranks():
    # -nu^2, 4 nu^2 (nu^2 + 1) and -288 nu^2 (nu^2 + 1)(nu^2 + 4) at sigma = 0
    assert identity_closed_form(WeightVector((0,))) == [0, -1]
    assert identity_closed_form(WeightVector((0, 0))) == [0, 4, 4]
    assert identity_closed_form(WeightVector((0, 0, 0))) == [0, -1152, -1440, -288]


def test_orbital_polynomial_does_not_enumerate_weyl_group(rng):
    before = weyl_group.cache_info()
    angles = EllipticAngles((0.0, 0.0, 0.7, 1.9, 2.5, 4.0))
    orbital_polynomial(random_dominant(rng, 6), angles, 6)
    after = weyl_group.cache_info()
    assert after.hits + after.misses == before.hits + before.misses


def test_flip_invariance_fixed_weight(rng):
    for _ in range(20):
        n = rng.choice((1, 2, 3))
        sigma = WeightVector(
            tuple(sorted((2 * rng.randrange(0, 5) for _ in range(n)), reverse=True)[:-1])
            + (0,)
        ) if n > 1 else WeightVector((0,))
        angles = random_angles(rng, n, degenerate=True)
        assert weyl_A_invariance_gap(sigma, angles, n) == 0.0


def test_flip_invariance_with_zero_angle(rng):
    for _ in range(60):
        n = rng.choice((2, 3))
        sigma = random_flip_moved_dominant(rng, n)
        angles = random_angles(rng, n, zero_slots=1)
        gap = weyl_A_invariance_gap(sigma, angles, n)
        scale = max(orbital_polynomial(sigma, angles, n).max_abs_coeff(), 1.0)
        assert gap < 1e-10 * scale


def test_flip_invariance_known_counterexample():
    # without a zero compact angle the flip moves the polynomial; this pins
    # the measured gap so the domain of the invariance stays documented
    gap = weyl_A_invariance_gap(
        WeightVector.from_coords([1, 1]), EllipticAngles((1.3, 1.3)), 2
    )
    theta = 1.3
    expected = abs(4 * math.sin(3 * theta) - 12 * math.sin(theta))
    assert gap == pytest.approx(expected, rel=1e-12)

    phi = 1.1
    gap1 = weyl_A_invariance_gap(WeightVector.from_coords([1]), EllipticAngles((phi,)), 1)
    assert gap1 == pytest.approx(2 * abs(math.sin(phi)), rel=1e-12)


def test_plancherel_values():
    c = 1.0 / (4.0 * math.pi**2)
    p0 = plancherel_polynomial(WeightVector.from_coords([0]), 1)
    assert p0.coeffs == (0j, complex(c))
    p1 = plancherel_polynomial(WeightVector.from_coords([1]), 1)
    assert p1.coeffs == (complex(c), complex(c))
    for k in (1.5, 5.0):  # (nu^2 + k^2) / (4 pi^2), bit for bit
        assert plancherel_polynomial(WeightVector.from_coords([k]), 1).coeffs == (
            complex(k * k * c), complex(c))
    assert p1(2.0) == pytest.approx((4.0 + 1.0) * c)
    assert p1(-2.0) == p1(2.0)


def test_plancherel_calibration_oracle():
    # independent quadrature: match int P(i nu) e^{-t nu^2} d nu against the
    # free heat coefficient (4 pi t)^{-3/2}
    from scipy.integrate import quad

    p0 = plancherel_polynomial(WeightVector.from_coords([0]), 1)
    for t in (0.1, 1.0, 10.0):
        integral, err = quad(
            lambda nu: p0(nu).real * math.exp(-t * nu * nu),
            -math.inf, math.inf, epsabs=1e-14, epsrel=1e-13,
        )
        assert err < 1e-10
        assert integral == pytest.approx((4 * math.pi * t) ** -1.5, rel=1e-10)


def test_plancherel_shift_structure_oracle():
    from scipy.integrate import quad

    p1 = plancherel_polynomial(WeightVector.from_coords([1]), 1)
    t = 0.7
    integral, _ = quad(
        lambda nu: p1(nu).real * math.exp(-t * nu * nu),
        -math.inf, math.inf, epsabs=1e-14, epsrel=1e-13,
    )
    k2 = 1.0
    expected = (4 * math.pi * t) ** -1.5 + k2 / (4 * math.pi**2) * math.sqrt(math.pi / t)
    assert integral == pytest.approx(expected, rel=1e-10)


def heat_kernel_at_origin(n, t):
    """k_t(0) of Delta - n^2 on H^{2n+1}, from the closed-form kernel
    k_t(rho) = (-1/(2 pi sinh rho) d/d rho)^n (4 pi t)^{-1/2} e^{-rho^2/4t}
    alone: with u = cosh rho the operator is (-1/(2 pi) d/du)^n, taken at u = 1
    by mpmath's numerical derivative of the kernel continued through u < 1."""
    import mpmath

    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        gauss = lambda u: (4 * mpmath.pi * t) ** -0.5 * mpmath.exp(-mpmath.acosh(u) ** 2 / (4 * t))
        return float(mpmath.re((-1 / (2 * mpmath.pi)) ** n * mpmath.diff(gauss, 1, n)))


def test_identity_heat_term_matches_kernel_at_origin(rng):
    spectrum = synthetic_spectrum(cutoff=5.0)
    for n in range(1, 7):
        ctx = ZetaTermContext(sigma=WeightVector((0,) * n), chi_dim=1, spectrum=spectrum, vol=1.0)
        for t in (0.1, 1.0, 10.0):
            want = heat_kernel_at_origin(n, t)
            assert abs(geometric_heat_terms(t, ctx).identity - want) <= 1e-12 * want, (n, t)
        # one density shape for every weight: the identity orbital
        # polynomial up to one constant per n
        ratios = []
        sigmas = [WeightVector((0,) * n)] + [
            random_dominant(rng, n, spin=spin) for spin in (False, True) for _ in range(4)
        ]
        for sigma in sigmas:
            got = plancherel_polynomial(sigma, n).coeffs
            ref = orbital_polynomial(sigma, EllipticAngles((0.0,) * n), n).coeffs
            assert len(got) == len(ref) == n + 1, sigma
            scale = max(map(abs, ref))
            for g, r in zip(got, ref):
                if abs(r) <= 1e-12 * scale:
                    assert g == 0, sigma
                else:
                    ratios.append(g / r)
        assert all(abs(r - ratios[0]) <= 1e-12 * abs(ratios[0]) for r in ratios), (n, ratios)


def test_plancherel_rejects_non_dominant_weight():
    with pytest.raises(ValidationError, match="is not dominant"):
        plancherel_polynomial(WeightVector.from_coords([0, 1]), 2)
    with pytest.raises(ValidationError):
        plancherel_polynomial(WeightVector.from_coords([1, 0]), 3)


def test_even_polynomial_helpers():
    p = EvenPolynomial((1 + 0j, 2 + 0j, 0j))
    assert p.degree == 2
    assert p(3.0) == 1 + 2 * 9
    assert p.antiderivative(2.0) == pytest.approx(1 * 2 + 2 * (2**3) / 3)
    q = EvenPolynomial((1 + 0j,))
    assert p.coeff_gap(q) == 2.0
    # Gaussian transform against quadrature
    from scipy.integrate import quad

    t = 0.9
    integral, _ = quad(
        lambda nu: p(nu).real * math.exp(-t * nu * nu),
        -math.inf, math.inf, epsabs=1e-13,
    )
    assert p.gaussian_transform(t).real == pytest.approx(integral, rel=1e-10)
    assert p.gaussian_transform(t).imag == 0.0
    with pytest.raises(ValidationError):
        p.gaussian_transform(0.0)
