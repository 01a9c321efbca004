import cmath
import math
import sys
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    brute_orbital_value,
    class_row,
    cyclic_h3_spec,
    random_angles,
    random_flip_moved_dominant,
    small_h3_spectrum_csv,
    synthetic_spectrum,
)
from selberg import zeta
from selberg.errors import AmbiguousClassError, NumericalGuardError, ValidationError
from selberg.geometry import LengthSpectrum, build_length_spectrum, weight_D
from selberg.lie import EllipticAngles, WeightVector, w0_flip
from selberg.zeta import (
    ZetaTermContext,
    _adjoint_determinants,
    _class_arrays,
    _csum,
    _small_csum,
    antisymmetric_zeta,
    convergence_abscissa_estimate,
    epsilon_sigma,
    geometric_heat_terms,
    log_zeta_truncated,
    symmetric_zeta,
    xi_correction,
)


def hyp_row(length, angles=(0.0,), power=1, l0=None, tr_chi=1.0 + 0j, v=1, n=1):
    return class_row("hyperbolic", length, angles, power=power, primitive_length=l0,
                     D=weight_D(length, tuple(angles)), v=v, tr_chi=tr_chi)


def ell_row(angles, tr_chi=1.0 + 0j):
    return class_row("elliptic", 0.0, angles, tr_chi=tr_chi)


def make_ctx(rows, sigma, cutoff=10.0, elliptic=(), **kwargs):
    spectrum = synthetic_spectrum(list(rows) + list(elliptic), cutoff=cutoff)
    return ZetaTermContext(sigma=sigma, chi_dim=kwargs.pop("chi_dim", 1), spectrum=spectrum,
                           **kwargs)


def random_spectrum(rng, count=6, n=1, complex_chi=True):
    recs = []
    for _ in range(count):
        angles = tuple(rng.uniform(0.3, 5.9) for _ in range(n))
        chi = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) if complex_chi else 1.0
        recs.append(hyp_row(rng.uniform(0.6, 3.0), angles, tr_chi=chi, n=n))
    return recs


SIGMA0 = WeightVector.from_coords([0])
SIGMA1 = WeightVector.from_coords([1])


def test_empty_spectrum_is_log_one():
    ctx = make_ctx([], SIGMA0)
    with pytest.warns(UserWarning):
        assert log_zeta_truncated(2.0, ctx) == 0j


def test_single_class_value():
    # l = l0 = 1, theta = 0, trivial twists, s = 2:
    # term = e^{-3} / (e - 1)^2, computed independently here
    ctx = make_ctx([hyp_row(1.0)], SIGMA0, cutoff=1.5)
    expected = math.exp(-3.0) / (math.e - 1.0) ** 2
    assert expected == pytest.approx(0.016862725085902915, rel=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value = log_zeta_truncated(2.0, ctx)
    assert value.real == pytest.approx(-expected, rel=1e-12)
    assert value.imag == pytest.approx(0.0, abs=1e-15)


def test_geometric_series_matches_independent_loop():
    c = 0.8
    theta = 0.9
    cutoff = 8.0
    powers = int(cutoff / c)
    recs = [
        hyp_row(m * c, ((m * theta) % (2 * math.pi),), power=m, l0=c)
        for m in range(1, powers + 1)
    ]
    k = 1
    ctx = make_ctx(recs, WeightVector.from_coords([k]), cutoff=cutoff)
    s = 2.5 + 0.7j

    total = 0j
    for m in range(1, powers + 1):
        det = abs(
            (1 - cmath.exp(m * (c + 1j * theta)))
            * (1 - cmath.exp(m * (c - 1j * theta)))
        )
        total += (
            cmath.exp(1j * k * m * theta)
            * cmath.exp(-(s + 1) * m * c)
            / (m * det)
        )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = log_zeta_truncated(s, ctx)
    assert abs(got - (-total)) < 1e-12 * max(1.0, abs(total))


def test_ambiguous_records_refused_without_optin(rng):
    rec = hyp_row(1.0)._replace(ambiguous=True)
    ctx = make_ctx([rec], SIGMA0)
    with pytest.raises(AmbiguousClassError):
        log_zeta_truncated(3.0, ctx)
    ctx2 = make_ctx([rec], SIGMA0, allow_ambiguous=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert log_zeta_truncated(3.0, ctx2) != 0j


def test_epsilon_sigma_cases():
    assert epsilon_sigma(WeightVector.from_coords([0, 0])) == 1
    assert epsilon_sigma(WeightVector.from_coords([1, 1])) == 2
    assert epsilon_sigma(WeightVector.from_coords([2])) == 2
    assert epsilon_sigma(SIGMA0) == 1


def test_symmetric_zeta_trivial_weight_equals_zeta(rng):
    recs = random_spectrum(rng)
    ctx = make_ctx(recs, SIGMA0)
    s = 3.1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert symmetric_zeta(s, ctx) == cmath.exp(log_zeta_truncated(s, ctx))


def test_symmetric_zeta_flip_symmetric(rng):
    recs = random_spectrum(rng)
    ctx = make_ctx(recs, SIGMA1)
    ctx_flip = replace(ctx, sigma=w0_flip(SIGMA1))
    s = 2.7 + 0.4j
    assert symmetric_zeta(s, ctx) == pytest.approx(symmetric_zeta(s, ctx_flip), rel=1e-12)


def test_zeta_square_identity(rng):
    for _ in range(12):
        recs = random_spectrum(rng, count=5)
        sigma = WeightVector.from_coords([rng.choice((1, 2, 3))])
        ctx = make_ctx(recs, sigma)
        s = complex(rng.uniform(2.5, 4.0), rng.uniform(-1.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            z = cmath.exp(log_zeta_truncated(s, ctx))
            lhs = z * z
            rhs = symmetric_zeta(s, ctx) * antisymmetric_zeta(s, ctx)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1e-30)


def test_antisymmetric_reciprocal(rng):
    recs = random_spectrum(rng)
    sigma = WeightVector.from_coords([2])
    ctx = make_ctx(recs, sigma)
    s = 3.3 + 0.2j
    a = antisymmetric_zeta(s, ctx)
    b = antisymmetric_zeta(s, replace(ctx, sigma=w0_flip(sigma)))
    assert a * b == pytest.approx(1.0 + 0j, rel=1e-12)


def test_antisymmetric_is_one_for_rotationless_spectrum(rng):
    recs = [hyp_row(rng.uniform(0.5, 2.5)) for _ in range(5)]
    ctx = make_ctx(recs, SIGMA1)
    assert antisymmetric_zeta(2.9, ctx) == pytest.approx(1.0 + 0j, rel=1e-13)


def test_antisymmetric_rejects_fixed_weight():
    ctx = make_ctx([hyp_row(1.0)], SIGMA0)
    with pytest.raises(ValidationError):
        antisymmetric_zeta(3.0, ctx)


def test_antisymmetric_values_are_frozen(tmp_path):
    """Z(s, 1) / Z(s, -1) on the seeded small H^3 spectrum, frozen from the
    code that built the class arrays once per weight."""
    path = tmp_path / "small.csv"
    path.write_text(small_h3_spectrum_csv())
    spectrum = LengthSpectrum.read_csv(path)
    ctx = ZetaTermContext(sigma=WeightVector.parse("1"), chi_dim=1, spectrum=spectrum, vol=1.5)
    assert antisymmetric_zeta([3.0, complex(3.5, 1.0)], ctx) == [
        complex(1.0537832604310629, 0.17275598305813689),
        complex(1.1103358643581456, 0.08244283512591796),
    ]


def test_antisymmetric_single_class_scalar_crosscheck():
    # n = 2, sigma = (1,1): chi_{(1,1)}(a,b) = 1 + 2cos(a+b),
    # chi_{(1,-1)}(a,b) = 1 + 2cos(a-b); the ratio is the exp of the
    # difference of single zeta terms
    a, b = 0.8, 2.1
    l = 1.3
    rec = hyp_row(l, (a, b), n=2)
    sigma = WeightVector.from_coords([1, 1])
    ctx = make_ctx([rec], sigma)
    s = 2.2
    det = math.exp(2 * l) * rec.D
    term = lambda tr: tr * math.exp(-(s + 2) * l) / det
    expected = cmath.exp(
        -term(1 + 2 * math.cos(a + b)) + term(1 + 2 * math.cos(a - b))
    )
    got = antisymmetric_zeta(s, ctx)
    assert got == pytest.approx(expected, rel=1e-12)


def test_heat_terms_fourier_value():
    # sqrt(pi/t) e^{-l^2/4t} at t=1, l=2 against quadrature
    from scipy.integrate import quad

    t, l = 1.0, 2.0
    closed = math.sqrt(math.pi / t) * math.exp(-l * l / (4 * t))
    assert closed == pytest.approx(0.6520493321732922, rel=1e-12)
    real, _ = quad(lambda x: math.exp(-t * x * x) * math.cos(l * x), -np.inf, np.inf)
    assert closed == pytest.approx(real, rel=1e-10)


def test_heat_identity_term_matches_free_leading_coefficient():
    ctx = make_ctx([], SIGMA0, vol=3.7)
    for t in (0.1, 1.0, 10.0):
        terms = geometric_heat_terms(t, ctx)
        assert terms.identity.real == pytest.approx(
            3.7 * (4 * math.pi * t) ** -1.5, rel=1e-10
        )
        assert terms.identity.imag == 0.0
        assert terms.elliptic == 0j and terms.hyperbolic == 0j


def test_heat_terms_hyperbolic_line():
    l, theta, t, k = 1.1, 0.7, 0.9, 2
    rec = hyp_row(l, (theta,))
    ctx = make_ctx([rec], WeightVector.from_coords([k]))
    terms = geometric_heat_terms(t, ctx)
    # conjugated character pair for sigma != w0 sigma
    chars = cmath.exp(1j * k * theta).conjugate() + cmath.exp(-1j * k * theta).conjugate()
    expected = (
        l / (2 * math.pi * rec.D) * chars
        * math.sqrt(math.pi / t) * math.exp(-l * l / (4 * t))
    )
    assert terms.hyperbolic == pytest.approx(expected, rel=1e-12)


def test_heat_terms_linear_in_spectrum(rng):
    recs1 = random_spectrum(rng, count=3)
    recs2 = random_spectrum(rng, count=4)
    sigma = SIGMA1
    t = 0.8
    both = geometric_heat_terms(t, make_ctx(recs1 + recs2, sigma))
    one = geometric_heat_terms(t, make_ctx(recs1, sigma))
    two = geometric_heat_terms(t, make_ctx(recs2, sigma))
    assert both.hyperbolic == pytest.approx(one.hyperbolic + two.hyperbolic, rel=1e-12)
    assert both.identity == pytest.approx(one.identity, rel=1e-15)


def test_heat_elliptic_term_with_volumes(rng):
    from scipy.integrate import quad

    from selberg.orbital import orbital_polynomial

    rec = ell_row((1.2,), tr_chi=0.5 + 0.25j)
    sigma = SIGMA1
    ctx = make_ctx([], sigma, elliptic=[rec], elliptic_vols=[2.5])
    t = 0.6
    terms = geometric_heat_terms(t, ctx)
    poly = orbital_polynomial(sigma, EllipticAngles((1.2,)))
    integral_re, _ = quad(lambda x: poly(x).real * math.exp(-t * x * x), -np.inf, np.inf)
    integral_im, _ = quad(lambda x: poly(x).imag * math.exp(-t * x * x), -np.inf, np.inf)
    expected = 2 * (0.5 + 0.25j) * 2.5 * complex(integral_re, integral_im)
    assert terms.elliptic == pytest.approx(expected, rel=1e-9)


def test_heat_elliptic_default_volume_warns():
    ctx = make_ctx([], SIGMA0, elliptic=[ell_row((0.9,))])
    with pytest.warns(UserWarning):
        geometric_heat_terms(0.5, ctx)


def test_heat_term_vanishes_fast():
    recs = [hyp_row(1.0), hyp_row(1.7)]
    ctx = make_ctx(recs, SIGMA0)
    values = [abs(geometric_heat_terms(t, ctx).hyperbolic) for t in (0.01, 0.003, 0.001)]
    assert values[0] > values[1] > values[2]
    assert values[2] < 1e-100
    assert abs(geometric_heat_terms(3e-4, ctx).hyperbolic) < 1e-300


def test_heat_terms_guards():
    ctx = make_ctx([], SIGMA0)
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValidationError):
            geometric_heat_terms([0.5, bad], ctx)


def determinant_character(weight, angles) -> complex:
    """Weyl character of SO(2n) by the determinant form (Fulton-Harris,
    Lecture 24): A_mu = (det(2 cos(mu_j phi_i)) + det(2i sin(mu_j phi_i))) / 2,
    character = A_{weight + delta} / A_delta."""
    phi = np.asarray(angles, dtype=float)[:, None]
    delta = np.arange(len(weight) - 1, -1, -1, dtype=float)

    def alt(mu):
        x = phi * mu[None, :]
        return 0.5 * (np.linalg.det(2.0 * np.cos(x)) + np.linalg.det(2j * np.sin(x)))

    return complex(alt(np.asarray(weight, dtype=float) + delta) / alt(delta))


def test_rank2_hyperbolic_heat_term_matches_determinant_oracle():
    # two synthetic n = 2 classes; the oracle builds its own adjoint weight
    # prod_j 4 |sinh((l + i theta_j)/2)|^2 and sums sigma and w0 sigma once each
    classes = [(1.3, (0.8, 2.1), 1, 1.3, 1, 1.5 - 0.5j), (2.9, (4.0, 1.1), 2, 1.45, 2, -0.7 + 1.2j)]
    recs = [hyp_row(l, a, power=p, l0=l0, tr_chi=chi, v=Fraction(1, m), n=2)
            for l, a, p, l0, m, chi in classes]
    for weights in ({(1, 0)}, {(2, 1), (2, -1)}):
        ctx = make_ctx(recs, WeightVector.from_coords(max(weights)))
        for t in (0.2, 1.0, 3.0):
            want = 0j
            for l, angles, _, l0, m, chi in classes:
                den = math.prod(4 * abs(cmath.sinh((l + 1j * th) / 2)) ** 2 for th in angles)
                trace = sum(determinant_character(w, angles).conjugate() for w in weights)
                want += (chi * l0 / m * (4 * math.pi * t) ** -0.5 * math.exp(-l * l / (4 * t))
                         * trace / den)
            got = geometric_heat_terms(t, ctx).hyperbolic
            assert abs(got - want) <= 1e-12 * abs(want), (weights, t)


def test_rank2_xi_matches_product_formula_plancherel(rng):
    # P(nu) = C_2 dim(sigma) (nu^2 + mu_1^2)(nu^2 + mu_2^2), mu = sigma + (1, 0),
    # C_2 = 1/(24 pi^3) and dim(sigma) = (mu_1^2 - mu_2^2) / 1
    recs = regular_spectrum(rng, 2, count=5)
    for coords in ([1, 0], [2, 1], [3 / 2, -1 / 2]):
        sigma = WeightVector.from_coords(coords)
        m1, m2 = float(sigma.coords[0]) + 1, float(sigma.coords[1])
        a, b = m1 * m1 + m2 * m2, m1 * m1 * m2 * m2  # P = c (x^4 + a x^2 + b)
        c = (m1 * m1 - m2 * m2) / (24 * math.pi**3)
        ctx = make_ctx(recs, sigma, vol=1.7, chi_dim=2)
        eps = epsilon_sigma(sigma)
        for s in (2.5, complex(3.0, 0.5)):
            integral = c * (s**5 / 5 + a * s**3 / 3 + b * s)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got, sym = xi_correction(s, ctx), symmetric_zeta(s, ctx)
            want = cmath.exp(-2 * math.pi * eps * 2 * 1.7 * integral) * sym
            assert abs(got - want) <= 1e-12 * abs(want), (coords, s)


def test_xi_no_elliptic_closed_form(rng):
    recs = random_spectrum(rng, count=4, complex_chi=False)
    vol = 2.2
    ctx = make_ctx(recs, SIGMA0, vol=vol, chi_dim=3)
    for s in (0.7, 1.9):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            xi = xi_correction(s, ctx)
            sym = symmetric_zeta(s, ctx)
        prefactor = cmath.exp(-2 * math.pi * 1 * 3 * vol * s**3 / (12 * math.pi**2))
        assert xi == pytest.approx(prefactor * sym, rel=1e-12)


def test_xi_at_zero_is_symmetric_zeta(rng):
    recs = random_spectrum(rng, count=3)
    ctx = make_ctx(recs, SIGMA1, elliptic=[ell_row((0.8,))], elliptic_vols=[1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert xi_correction(0.0, ctx) == symmetric_zeta(0.0, ctx)


def test_xi_prefactor_is_odd_in_s(rng):
    recs = random_spectrum(rng, count=3, complex_chi=False)
    ctx = make_ctx(recs, SIGMA0, vol=1.4)
    s = 1.3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plus = xi_correction(s, ctx) / symmetric_zeta(s, ctx)
        minus = xi_correction(-s, ctx) / symmetric_zeta(-s, ctx)
    assert plus * minus == pytest.approx(1.0 + 0j, rel=1e-12)


def test_abscissa_estimate_small_spectrum_defaults():
    est = convergence_abscissa_estimate(make_ctx([hyp_row(1.0)], SIGMA0))
    assert est.conservative
    assert est.c == pytest.approx(2.0)  # 2n with unitary-size chi


def test_abscissa_estimate_reports_without_warning():
    """Too few classes to fit a growth rate: ``conservative`` says so, and
    nothing warns."""
    ctx = make_ctx([hyp_row(length) for length in (1.0, 1.5, 2.5)], SIGMA0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = convergence_abscissa_estimate(ctx)
    assert est.conservative and est.c == 2.0


def test_abscissa_estimate_geometric_spectrum():
    # polynomially growing class counts: entropy estimate near zero
    recs = [hyp_row(0.5 * m, power=m, l0=0.5) for m in range(1, 15)]
    ctx = make_ctx(recs, SIGMA0, cutoff=10.0)
    est = convergence_abscissa_estimate(ctx)
    assert not est.conservative
    assert est.chi_rate == 0.0
    assert 0.0 <= est.c < 0.8


def test_abscissa_estimate_chi_growth():
    recs = [
        hyp_row(0.5 * m, power=m, l0=0.5, tr_chi=math.exp(0.6 * 0.5 * m))
        for m in range(1, 15)
    ]
    ctx = make_ctx(recs, SIGMA0, cutoff=10.0)
    est = convergence_abscissa_estimate(ctx)
    assert est.chi_rate == pytest.approx(0.6, rel=1e-6)
    assert est.c == pytest.approx(est.entropy + 0.6, rel=1e-6)


@pytest.mark.parametrize("count", [5, 40, 2000])
def test_abscissa_slopes_match_polyfit(count):
    """The closed-form slopes are numpy's least-squares line fits."""
    rng = np.random.default_rng(count)
    recs = [hyp_row(length, tr_chi=complex(*rng.normal(0.0, math.exp(0.4 * length), 2)))
            for length in rng.uniform(0.5, 6.0, count)]
    est = convergence_abscissa_estimate(make_ctx(recs, SIGMA0))
    lengths = np.sort([r.length for r in recs])
    mags = np.abs([r.tr_chi for r in sorted(recs, key=lambda r: r.length)])
    want_chi = np.polyfit(lengths, np.log(mags), 1)[0]
    want_entropy = np.polyfit(lengths, np.log(np.arange(1.0, count + 1)), 1)[0]
    assert want_chi > 0 and want_entropy > 0
    assert est.chi_rate == pytest.approx(want_chi, rel=1e-12, abs=0)
    assert est.entropy == pytest.approx(want_entropy, rel=1e-12, abs=0)
    assert est.c == est.chi_rate + est.entropy and not est.conservative


def test_abscissa_slope_of_one_length_is_zero():
    est = convergence_abscissa_estimate(make_ctx([hyp_row(1.0, tr_chi=2.0)] * 3, SIGMA0))
    assert est.chi_rate == 0.0 and est.c == 2.0


def test_truncation_cauchy_property():
    # positive terms: partial sums of log Z decrease geometrically in cutoff
    c = 0.6
    full = [hyp_row(m * c, power=m, l0=c) for m in range(1, 16)]
    ctx_full = make_ctx(full, SIGMA0, cutoff=100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        est = convergence_abscissa_estimate(ctx_full)
        s = est.c + 0.5
        values = []
        for cut in (4, 6, 8, 10, 12, 14):
            recs = [r for r in full if r.length <= cut * c]
            values.append(log_zeta_truncated(s, make_ctx(recs, SIGMA0, cutoff=cut * c)))
    gaps = [abs(values[i + 1] - values[i]) for i in range(len(values) - 1)]
    assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    assert gaps[-1] < 1e-3 * abs(values[-1])


def test_context_validation():
    with pytest.raises(ValidationError):
        make_ctx([], SIGMA0, vol=-1.0)
    with pytest.raises(ValidationError):
        make_ctx([], SIGMA0, cutoff=0.0)
    with pytest.raises(ValidationError):
        make_ctx([], SIGMA0, elliptic=[ell_row((0.5,))], elliptic_vols=[1.0, 2.0])


# ---------------------------------------------------------------------------
# grid evaluation against an independent per-class loop
#
# The reference shares no code with the package's class arrays: characters
# come from closed forms, orbital polynomials from the pointwise Weyl sum in
# conftest, and their integrals from Gauss quadrature.  Grid and loop must
# agree within GRID_TOL * sum|terms| (for exponentials, relatively, plus a
# few ulp for the exponential's own rounding).

GRID_TOL = 1e-13
EXP_ULPS = 1e-15


def closed_form_character(sigma, angles) -> complex:
    """tr sigma at a rotation: e^{i k theta} for SO(2); for SO(4), which is
    SU(2) x SU(2) / {+-1}, the product of two SU(2) characters
    sin(m x) / sin(x) at the half-sum and half-difference of the angles."""
    k = [float(c) for c in sigma.coords]
    if len(k) == 1:
        return cmath.exp(1j * k[0] * angles[0])
    a, b = k
    x, y = (angles[0] + angles[1]) / 2, (angles[0] - angles[1]) / 2
    return math.sin((a + b + 1) * x) / math.sin(x) * math.sin((a - b + 1) * y) / math.sin(y)


def loop_log_zeta(recs, sigma, n, s):
    total, size = 0j, 0.0
    for r in recs:
        trace = closed_form_character(sigma, r.angles)
        term = (r.tr_chi * float(r.v) * trace * cmath.exp(-(s + n) * r.length)
                / (r.power * math.exp(n * r.length) * r.D))
        total += term
        size += abs(term)
    return -total, size


def loop_zeta_pair(recs, sigma, n, s):
    """(Z(s, sigma), Z(s, w0 sigma), sum|terms| over both)."""
    a, size_a = loop_log_zeta(recs, sigma, n, s)
    b, size_b = loop_log_zeta(recs, w0_flip(sigma), n, s)
    return cmath.exp(a), cmath.exp(b), size_a + size_b


def regular_spectrum(rng, n, count=7, power_every=3):
    """Random classes whose rotation parts keep the SO(4) closed form well
    conditioned, i.e. |sin((a +- b)/2)| bounded away from 0."""
    recs = []
    while len(recs) < count:
        angles = tuple(rng.uniform(0.3, 5.9) for _ in range(n))
        if n == 2 and min(abs(math.sin((angles[0] + s * angles[1]) / 2)) for s in (1, -1)) < 0.2:
            continue
        power = 2 if len(recs) % power_every == 0 else 1
        chi = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        recs.append(hyp_row(rng.uniform(0.6, 3.0), angles, power=power, tr_chi=chi,
                               v=rng.choice((1, 2)), n=n))
    return recs


def grid_cases(rng):
    """(n, sigma) over a flip-moved and a flip-fixed weight."""
    for n in (1, 2):
        fixed = WeightVector.from_coords([rng.randrange(0, 4)] + [0] * (n - 1))
        for sigma in (random_flip_moved_dominant(rng, n), fixed):
            yield n, sigma


def complex_grid(rng, count=6):
    return [complex(rng.uniform(1.0, 4.0), rng.uniform(-2.0, 2.0)) for _ in range(count)]


def test_log_zeta_grid_matches_loop_and_scalar(rng):
    for n, sigma in grid_cases(rng):
        recs = regular_spectrum(rng, n)
        ctx = make_ctx(recs, sigma)
        grid = complex_grid(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            values = log_zeta_truncated(grid, ctx)
            assert values == [log_zeta_truncated(s, ctx) for s in grid]
        assert len(values) == len(grid)
        for s, got in zip(grid, values):
            want, size = loop_log_zeta(recs, sigma, n, s)
            assert abs(got - want) <= GRID_TOL * size, (n, sigma, s)


def test_symmetric_and_antisymmetric_grid_match_loop_and_scalar(rng):
    for n, sigma in grid_cases(rng):
        recs = regular_spectrum(rng, n)
        ctx = make_ctx(recs, sigma)
        grid = tuple(complex_grid(rng))
        sym = symmetric_zeta(grid, ctx)
        assert sym == [symmetric_zeta(s, ctx) for s in grid]
        moved = epsilon_sigma(sigma) == 2
        if moved:
            anti = antisymmetric_zeta(grid, ctx)
            assert anti == [antisymmetric_zeta(s, ctx) for s in grid]
        for i, s in enumerate(grid):
            z, zf, size = loop_zeta_pair(recs, sigma, n, s)
            want = z * zf if moved else z
            assert abs(sym[i] - want) <= (GRID_TOL * size + EXP_ULPS) * abs(want)
            if moved:
                assert abs(anti[i] - z / zf) <= (GRID_TOL * size + EXP_ULPS) * abs(z / zf)


def orbital_antiderivative(sigma, angles, s):
    """int_0^s of the pointwise orbital Weyl sum along the segment, by
    Gauss-Legendre (exact for the polynomial degrees at n = 1)."""
    nodes, weights = np.polynomial.legendre.leggauss(6)
    u = (nodes + 1) / 2
    return sum(w / 2 * s * brute_orbital_value(sigma, angles, 1, s * x)
               for x, w in zip(u, weights))


def orbital_gaussian(sigma, angles, t):
    """int_R P(nu) e^{-t nu^2} d nu by Gauss-Hermite, P the pointwise Weyl sum."""
    nodes, weights = np.polynomial.hermite.hermgauss(6)
    return sum(w * brute_orbital_value(sigma, angles, 1, x / math.sqrt(t))
               for x, w in zip(nodes, weights)) / math.sqrt(t)


def rank1_case(rng, sigma):
    recs = regular_spectrum(rng, 1)
    ell = [ell_row((rng.uniform(0.3, 5.9),), tr_chi=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
           for _ in range(3)]
    vols = [rng.uniform(0.2, 1.5) for _ in ell]
    ctx = make_ctx(recs, sigma, elliptic=ell, elliptic_vols=vols, vol=rng.uniform(0.5, 2.0),
                   chi_dim=2)
    return recs, ell, vols, ctx


def test_xi_grid_matches_loop_and_scalar(rng):
    for sigma in (WeightVector.from_coords([2]), WeightVector.from_coords([0])):
        recs, ell, vols, ctx = rank1_case(rng, sigma)
        k = float(sigma.coords[0])
        eps = epsilon_sigma(sigma)
        grid = [complex(rng.uniform(0.5, 2.5), rng.uniform(-1.0, 1.0)) for _ in range(5)]
        values = xi_correction(grid, ctx)
        assert values == [xi_correction(s, ctx) for s in grid]
        for s, got in zip(grid, values):
            z, zf, size = loop_zeta_pair(recs, sigma, 1, s)
            ident = -2 * math.pi * eps * 2 * ctx.vol * (k * k * s + s**3 / 3) / (4 * math.pi**2)
            ell_terms = [-2 * eps * r.tr_chi * v * orbital_antiderivative(sigma, r.angles, s)
                         for r, v in zip(ell, vols)]
            size += abs(ident) + sum(abs(x) for x in ell_terms)
            want = cmath.exp(ident + sum(ell_terms)) * (z * zf if eps == 2 else z)
            assert abs(got - want) <= (GRID_TOL * size + EXP_ULPS) * abs(want), (sigma, s)


def test_heat_terms_grid_matches_loop_and_scalar(rng):
    for sigma in (WeightVector.from_coords([3]), WeightVector.from_coords([0])):
        recs, ell, vols, ctx = rank1_case(rng, sigma)
        k = float(sigma.coords[0])
        eps = epsilon_sigma(sigma)
        times = [0.05, 0.3, 1.0, 2.7]
        values = geometric_heat_terms(times, ctx)
        assert values == [geometric_heat_terms(t, ctx) for t in times]
        for t, got in zip(times, values):
            ident = eps * 2 * ctx.vol / (4 * math.pi**2) * (
                k * k * math.sqrt(math.pi / t) + math.sqrt(math.pi) / (2 * t**1.5))
            assert abs(got.identity - ident) <= GRID_TOL * abs(ident)
            ell_terms = [eps * r.tr_chi * v * orbital_gaussian(sigma, r.angles, t)
                         for r, v in zip(ell, vols)]
            size = sum(abs(x) for x in ell_terms)
            assert abs(got.elliptic - sum(ell_terms)) <= GRID_TOL * size
            hyp_terms = []
            for r in recs:
                # the heat side conjugates the zeta side's trace
                weights = [sigma, w0_flip(sigma)][:eps]
                pair = [closed_form_character(w, r.angles) for w in weights]
                trace = sum(p.conjugate() for p in pair)
                hyp_terms.append(r.tr_chi * float(r.v) * r.primitive_length / (2 * math.pi * r.D)
                                 * trace * math.sqrt(math.pi / t) * math.exp(-r.length**2 / (4 * t)))
            size = sum(abs(x) for x in hyp_terms)
            assert abs(got.hyperbolic - sum(hyp_terms)) <= GRID_TOL * size, (sigma, t)


@pytest.mark.parametrize("coords", [[1], [0]])
def test_heat_terms_laplace_transform_is_zeta_log_derivative(coords):
    """int_0^inf e^{-t s^2} H(t) dt = (1/2s) sum_{sigma, w0 sigma} d/ds log Z(s - 2n).

    Termwise, int_0^inf e^{-t s^2} sqrt(pi/t) e^{-l^2/4t} dt = (pi/s) e^{-l s};
    the zeta side carries the class term at s - 2n, n = 1 here."""
    from scipy.integrate import quad

    spectrum = build_length_spectrum(cyclic_h3_spec(1.3, 0.7), 8, 12.0)
    sigma = WeightVector.from_coords(coords)
    ctx = ZetaTermContext(sigma=sigma, chi_dim=1, spectrum=spectrum, allow_ambiguous=True)
    weights = {sigma, w0_flip(sigma)}
    h = 1e-5
    for s in (1.5, 2.5):
        integral, _ = quad(
            lambda t: math.exp(-t * s * s) * geometric_heat_terms(t, ctx).hyperbolic.real,
            0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            derivative = sum(
                (log_zeta_truncated(s - 2 + h, replace(ctx, sigma=w))
                 - log_zeta_truncated(s - 2 - h, replace(ctx, sigma=w))) / (2 * h)
                for w in weights
            )
        want = derivative / (2 * s)
        assert abs(integral - want) <= 1e-8 * abs(want), (coords, s, integral, want)


def test_grid_left_of_abscissa_warns_once(rng):
    ctx = make_ctx(regular_spectrum(rng, 1), SIGMA1)
    grid = [complex(-3.0 + 0.25 * i, 0.5) for i in range(5)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        log_zeta_truncated(grid, ctx)
    assert len(caught) == 1
    assert issubclass(caught[0].category, UserWarning)
    assert "5 of 5" in str(caught[0].message) and "-3" in str(caught[0].message)


def overflow_ctx(sigma):
    """Five classes with l = 0.1..0.5, D = l^2 and a large negative twist:
    Re log Z is far beyond the largest finite exponential."""
    recs = []
    for i in range(1, 6):
        recs.append(hyp_row(0.1 * i, (1.0,), tr_chi=-1e6)._replace(D=(0.1 * i) ** 2))
    return make_ctx(recs, sigma)


def test_overflowing_zeta_raises_numerical_guard():
    ctx = overflow_ctx(SIGMA1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert math.isfinite(log_zeta_truncated(4.0, ctx).real)
    for fn in (symmetric_zeta, antisymmetric_zeta, xi_correction):
        with pytest.raises(NumericalGuardError, match="s = 4"):
            fn(4.0, ctx)


def test_antisymmetric_refuses_a_vanished_flipped_zeta():
    """One class at theta = pi/4 with tr chi = 2e5 e^{i pi/4}: the rank-1
    characters e^{+-i theta} turn tr chi real for the flipped weight only,
    so Re log Z(3, w0 sigma) is about -806, past exp's range, while
    Z(3, sigma) has modulus 1."""
    ctx = make_ctx([hyp_row(1.0, (math.pi / 4,), tr_chi=2e5 * cmath.exp(0.25j * math.pi))],
                   SIGMA1)
    flipped = log_zeta_truncated(3.0, replace(ctx, sigma=w0_flip(SIGMA1)))
    assert flipped.real < -800 and cmath.exp(flipped) == 0
    assert abs(cmath.exp(log_zeta_truncated(3.0, ctx))) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(NumericalGuardError) as exc:
        antisymmetric_zeta(3.0, ctx)
    assert str(exc.value) == ("zeta value at the flipped weight vanished or overflowed at "
                              "s = 3.0; the antisymmetric ratio is undefined here")


def _complex(re, im) -> np.ndarray:
    """A complex array with the given parts, set apart so that inf stays inf."""
    z = np.empty(len(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def _csum_cases() -> dict:
    gen = np.random.default_rng(20260813)

    def spread(n):
        return gen.standard_normal(n) * 10.0 ** gen.uniform(-300, 300, n)

    sizes = [0, 1, 2, 3, 5, 6, 7, 62, 2000, 5000, *gen.integers(0, 5001, 12).tolist()]
    cases = {f"spread-{i}-n{n}": _complex(spread(n), spread(n)) for i, n in enumerate(sizes)}
    for n in (1, 2, 6, 7, 2000):  # just below the largest max|x| that extraction takes
        top = math.ldexp(1.0, 1021 - (n + 1).bit_length())
        cases[f"top-n{n}"] = _complex(gen.uniform(-top, top, n), np.full(n, top))
    x, y = spread(1500), gen.standard_normal(1500)
    cases["cancel"] = _complex(np.concatenate([x, -x[::-1], [1e-300]]),
                               np.concatenate([y, -y[::-1], [-5e-324]]))
    tie = [1.0, 2.0**-53, 2.0**-110, -(2.0**-600)]  # a half-ulp tie that later passes break
    cases["tie-broken-late"] = _complex(np.array(tie), -np.array(tie[::-1]))
    cases["cancel-to-zero"] = _complex(np.concatenate([x, -x[::-1]]), np.concatenate([y, -y]))
    cases["zeros"] = np.zeros(100, dtype=complex)
    cases["negative-zeros"] = _complex(np.full(100, -0.0), np.full(100, -0.0))
    cases["subnormal"] = _complex(gen.integers(-2**40, 2**40, 300) * 5e-324,
                                  gen.integers(-9, 9, 300) * 5e-324)
    cases["subnormal-and-normal"] = _complex(np.append(gen.integers(-99, 99, 300) * 5e-324, 1.0),
                                             np.append(gen.uniform(-1e-300, 1e-300, 300), 0.0))
    huge = gen.uniform(1.6e308, 1.7e308, 6)
    cases["near-max"] = _complex(huge * [1, -1, 1, -1, 1, -1], huge[::-1] * [1, -1, -1, 1, 1, -1])
    cases["near-max-overflow"] = _complex(np.array([1.7e308, 1.7e308, 1.0]), np.ones(3))
    cases["near-max-imag-overflow"] = _complex(np.ones(3), np.array([-1.7e308, -1.7e308, 1.0]))
    cases["inf"] = _complex(np.array([1.0, math.inf, 2.0]), np.array([0.5, 0.0, math.inf]))
    cases["inf-minus-inf"] = _complex(np.array([math.inf, 1.0, -math.inf]), np.zeros(3))
    cases["nan"] = _complex(np.array([1.0, math.nan]), np.array([math.nan, -math.inf]))
    cases["inf-and-nan"] = _complex(np.array([math.inf, math.nan]), np.ones(2))
    # one sigma serves both halves, so a half far below the other, or empty,
    # must still come out as math.fsum's
    for n in (3, 62, 2000):
        x, y = gen.standard_normal(n), gen.standard_normal(n)
        cases[f"halves-2^40-apart-n{n}"] = _complex(x, np.ldexp(y, -40))
        cases[f"halves-2^600-apart-n{n}"] = _complex(np.ldexp(x, -300), np.ldexp(y, 300))
    cases["zero-imag-half"] = _complex(gen.standard_normal(500), np.zeros(500))
    cases["zero-real-half"] = _complex(np.full(500, -0.0), gen.standard_normal(500))
    cases["inf-imag-only"] = _complex(np.array([1.0, 2.5, -3.0]), np.array([0.5, math.inf, 2.0]))
    return cases


def _outcome(summer, values):
    """The bits of both parts of a sum, or the type of the exception it raised."""
    try:
        z = summer(values)
    except (ValueError, OverflowError) as exc:
        return type(exc)
    return z.real.hex(), z.imag.hex()


def _fsum_reference(values) -> complex:
    return complex(math.fsum(values.real.tolist()), math.fsum(values.imag.tolist()))


CSUM_CASES = _csum_cases()


@pytest.mark.parametrize("values", CSUM_CASES.values(), ids=CSUM_CASES.keys())
def test_csum_is_fsum_bit_for_bit(values):
    """The extraction kernel, and the math.fsum pair that sums the few
    elliptic terms, return what math.fsum returns on each part, to the bit,
    or raise the exception type it raises."""
    assert _outcome(_csum, values) == _outcome(_fsum_reference, values)
    assert _outcome(_csum, values.tolist()) == _outcome(_fsum_reference, values)
    assert _outcome(_small_csum, values.tolist()) == _outcome(_fsum_reference, values)


#: xi and the heat terms, each with 31 points on the 2000-class spectrum
XI_AND_HEAT = pytest.mark.parametrize("evaluator,points", [
    (xi_correction, np.linspace(4.0, 9.0, 31).tolist()),
    (geometric_heat_terms, np.geomspace(0.05, 5.0, 31).tolist()),
], ids=["xi", "heat"])


@XI_AND_HEAT
def test_elliptic_sums_keep_the_bits_of_the_extraction_kernel(monkeypatch, tmp_path, evaluator,
                                                              points):
    """xi and the heat terms are bit-identical when their elliptic sums go
    through ``_csum`` instead."""
    ctx = _big_spectrum_ctx(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # points left of the abscissa
        got = evaluator(points, ctx)
        monkeypatch.setattr(zeta, "_small_csum", _csum)
        want = evaluator(points, ctx)
    assert repr(got) == repr(want)


#: the points at which log Z over a 2000-class spectrum is checked
BIG_SPECTRUM_GRID = [*np.linspace(-2.0, 40.0, 43).tolist(), complex(3.0, 7.5), complex(0.25, -30.0)]


def test_log_zeta_is_fsum_of_the_class_terms_bit_for_bit(tmp_path):
    """log Z over a 2000-class spectrum equals, at each point of a grid, the
    negated math.fsum of the same class terms."""
    path = tmp_path / "big.csv"
    path.write_text(small_h3_spectrum_csv(classes=2000))
    ctx = ZetaTermContext(sigma=SIGMA1, chi_dim=1, spectrum=LengthSpectrum.read_csv(path))
    hyp, chi_v, (trace,) = _class_arrays(ctx, both=False)
    num = chi_v * trace
    den = _adjoint_determinants(hyp, ctx.n)
    points = BIG_SPECTRUM_GRID
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # points left of the abscissa
        got = log_zeta_truncated(points, ctx)
    for s, value in zip(points, got):
        want = -_fsum_reference(num * np.exp(-(s + ctx.n) * hyp.length) / den)
        assert (value.real.hex(), value.imag.hex()) == (want.real.hex(), want.imag.hex()), s


#: real points on both sides of the 2000-class spectrum's abscissa
REAL_AXIS = np.linspace(1.0, 13.0, 61)


@pytest.mark.parametrize("sigma", [SIGMA0, SIGMA1], ids=["sigma=0", "sigma=1"])
def test_a_real_point_gives_the_same_bits_whatever_its_type(tmp_path, sigma):
    """x, x + 0j, x - 0j and np.float64(x) are one point: log Z, the
    symmetric and antisymmetric zetas and xi give the same bits at each.
    log Z at x + 0j is -math.fsum of the class terms with the real
    exponential, where the complex one rounds about 5 % of them otherwise."""
    ctx = replace(_big_spectrum_ctx(tmp_path), sigma=sigma)
    xs = REAL_AXIS.tolist()
    kinds = [xs, [complex(x, 0.0) for x in xs], [complex(x, -0.0) for x in xs], list(REAL_AXIS)]
    assert type(kinds[-1][0]) is np.float64
    evaluators = [log_zeta_truncated, symmetric_zeta, xi_correction]
    if sigma == SIGMA1:
        evaluators.append(antisymmetric_zeta)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # points left of the abscissa
        want = [_terms_oracle(ctx, x) for x in xs]
        assert _bits(log_zeta_truncated(kinds[1], ctx)) == _bits(want)
        for evaluator in evaluators:
            first, *rest = [_bits(evaluator(points, ctx)) for points in kinds]
            for other in rest:
                assert other == first, evaluator.__name__


def _cancelled_to_2_pow_minus_40() -> np.ndarray:
    """About a thousand entries of size up to 1 whose sum is about 2^-40."""
    x = np.random.default_rng(20261018).uniform(-1.0, 1.0, 999)
    return np.append(x, -math.fsum(x.tolist()) + 2.0**-40)


#: name -> (a part, whether the one-pass rounding test may decide it).  In
#: the first three the one-pass total T + R lies on a half-ulp tie that the
#: lost 2^-110 breaks; returning it would round the first and third the
#: wrong way.  The fourth lies nearest to 1, below which the gap is half
#: the gap above.
CERTIFICATE_CASES = {
    "tie-broken-up": ([1.5, 2.0**-53, 2.0**-110], False),
    "tie-broken-down": ([1.5, 2.0**-53, -(2.0**-110)], False),
    "below-a-power-of-two": ([1.0, -(2.0**-54), -(2.0**-110)], False),
    "nearest-a-power-of-two": ([1.0, -(2.0**-55), -(2.0**-110)], True),
    "cancelled-to-2^-40": (_cancelled_to_2_pow_minus_40(), False),
    # T = 0, and the residual's float sum 2^-60 misses the exact sum by
    # 15/16 of an ulp with no TwoSum error: only the bound N^2 2^(e-105) sees it
    "residual-sum-off-by-an-ulp": ([1.0, -1.0, 2.0**-60, *[5 * 2.0**-116] * 3], False),
    "subnormal-total": ([1.0, -1.0, 2.0**-1070, 3 * 2.0**-1074], False),
}


def _counting_fallback(monkeypatch) -> list:
    """Count the parts that the one-pass test leaves to math.fsum; one
    entry, the part's length, per part."""
    calls = []
    fsum = zeta._fsum

    def counting(part):
        calls.append(len(part))
        return fsum(part)

    monkeypatch.setattr(zeta, "_fsum", counting)
    return calls


@pytest.mark.parametrize("part,decided", CERTIFICATE_CASES.values(), ids=CERTIFICATE_CASES.keys())
def test_one_pass_rounding_test_is_fsum_bit_for_bit(monkeypatch, part, decided):
    """The one-pass total is returned only where it is math.fsum's, and
    the cases next to a tie, a tiny total or heavy cancellation go to
    math.fsum.  The part is put in both halves, so each half is decided,
    or left to math.fsum, on its own."""
    calls = _counting_fallback(monkeypatch)
    part = np.asarray(part, dtype=float)
    want = math.fsum(part.tolist()).hex()
    got = _csum(_complex(part, part))
    assert (got.real.hex(), got.imag.hex()) == (want, want)
    assert calls == ([] if decided else [len(part), len(part)])


def _counting_parts(monkeypatch) -> list:
    """Count the parts summed by ``_csum``: two entries, the values' length,
    per call."""
    parts = []
    csum = zeta._csum

    def counting(values, *scratch):
        parts.extend([len(values)] * 2)
        return csum(values, *scratch)

    monkeypatch.setattr(zeta, "_csum", counting)
    return parts


def _big_spectrum_ctx(tmp_path) -> ZetaTermContext:
    path = tmp_path / "big.csv"
    path.write_text(small_h3_spectrum_csv(classes=2000))
    return ZetaTermContext(sigma=SIGMA1, chi_dim=1, spectrum=LengthSpectrum.read_csv(path),
                           elliptic_vols=[0.5, 0.75])


def test_one_pass_decides_most_log_zeta_parts(monkeypatch, tmp_path):
    """On a 2000-class spectrum the rounding test decides at least 90 % of
    the parts of log Z over the grid, so a test that always falls back to
    math.fsum fails here."""
    ctx = _big_spectrum_ctx(tmp_path)
    points = BIG_SPECTRUM_GRID
    calls = _counting_fallback(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # points left of the abscissa
        log_zeta_truncated(points, ctx)
    assert len(calls) <= 0.1 * (2 * len(points))


@XI_AND_HEAT
def test_one_pass_decides_most_xi_and_heat_parts(monkeypatch, tmp_path, evaluator, points):
    """The same for every part that xi (its log Z sums) and the heat terms
    (the hyperbolic sums) add up through ``_csum`` on that spectrum, so a
    sigma shared by both halves leaves few of them to math.fsum."""
    ctx = _big_spectrum_ctx(tmp_path)
    parts, calls = _counting_parts(monkeypatch), _counting_fallback(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # points left of the abscissa
        evaluator(points, ctx)
    assert len(parts) >= 2 * len(points)
    assert len(calls) <= 0.1 * len(parts), (len(calls), len(parts))


def _terms_oracle(ctx: ZetaTermContext, s) -> complex:
    """-math.fsum of the class terms of log Z at s, each divided by its
    adjoint determinant, with the point's own exponential."""
    hyp, chi_v, (trace,) = _class_arrays(ctx, both=False)
    den = _adjoint_determinants(hyp, ctx.n)
    with np.errstate(over="ignore", invalid="ignore"):
        return -_fsum_reference(chi_v * trace * np.exp(-(s + ctx.n) * hyp.length) / den)


EDGE_POINTS = [3.0, 7.5, complex(3.0, 2.5), complex(7.5, -40.0)]


def test_product_by_the_reciprocal_is_the_division_where_it_is_subnormal():
    """Adjoint determinants near 1.7e308 have subnormal reciprocals, with
    fewer than 53 bits; log Z still has the bits of the terms divided by
    them, at float and complex points."""
    rows = [hyp_row(0.6 + 0.1 * i, (0.4 * i,), tr_chi=complex(1e22 * i, -3e21))
            ._replace(D=1.7e308 / math.exp(0.6 + 0.1 * i) / (1 + 0.13 * i)) for i in range(1, 9)]
    rows += [hyp_row(0.55 + 0.2 * i, (0.9,), tr_chi=1e-292j - 1e-293) for i in range(1, 4)]
    ctx = make_ctx(rows, SIGMA1)
    hyp = _class_arrays(ctx, both=False)[0]
    assert (1.0 / _adjoint_determinants(hyp, ctx.n) < sys.float_info.min).sum() == 8
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # points left of the abscissa
        warnings.simplefilter("error", RuntimeWarning)
        got = log_zeta_truncated(EDGE_POINTS, ctx)
    for s, value in zip(EDGE_POINTS, got):
        want = _terms_oracle(ctx, s)
        assert value != 0
        assert (value.real.hex(), value.imag.hex()) == (want.real.hex(), want.imag.hex()), s


def test_an_infinite_reciprocal_is_a_numerical_guard_without_a_warning():
    """A subnormal adjoint determinant has the reciprocal inf, and the
    division gives a term that is not finite too: log Z is a numerical guard
    at every point, and numpy warns of nothing."""
    rows = [hyp_row(0.7, (0.5,), tr_chi=2.0 + 1j)._replace(D=1e-310),
            hyp_row(1.1, (0.8,), tr_chi=1.0 - 1j)]
    ctx = make_ctx(rows, SIGMA1)
    for s in EDGE_POINTS:
        assert not cmath.isfinite(_terms_oracle(ctx, s))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # points left of the abscissa
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalGuardError, match="log Z is not finite at s = "):
                log_zeta_truncated(s, ctx)


def _traced_peak(call) -> tuple:
    """What call() returns, and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_log_zeta_scratch_memory_does_not_grow_with_the_points(tmp_path):
    """The per-point buffers are made once per call: the traced peak of log
    Z at 1000 points of a 2000-class spectrum exceeds that at one point by
    less than the list of results and 256 KB, far below one row of terms
    per point (32 KB each)."""
    ctx = _big_spectrum_ctx(tmp_path)
    points = [complex(6.0 + 0.005 * i, 0.5) for i in range(1000)]
    log_zeta_truncated(points[:1], ctx)  # build the class factors kept on the spectrum
    _, one = _traced_peak(lambda: log_zeta_truncated(points[:1], ctx))
    values, many = _traced_peak(lambda: log_zeta_truncated(points, ctx))
    results = sys.getsizeof(values) + sum(map(sys.getsizeof, values))
    assert many - one < results + 256 * 1024, (many, one, results)


# ---------------------------------------------------------------------------
# class factors kept on the spectrum
#
# The characters, adjoint determinants, twists and elliptic orbital
# polynomials of a weight are built once per spectrum and kept in its
# ``derived`` dict.  A warm call must give the bits of a cold one, and every
# guard must fire again on a warm call.

MEMO_POINTS = [4.5, complex(5.0, 1.5), 7.25]
MEMO_TIMES = [0.2, 1.3]
MEMO_EVALUATORS = (log_zeta_truncated, symmetric_zeta, antisymmetric_zeta, xi_correction,
                   geometric_heat_terms)


def _bits(value):
    """The exact bits of a value, a list of values or heat terms."""
    if isinstance(value, list):
        return [_bits(v) for v in value]
    if isinstance(value, zeta.HeatTerms):
        return tuple(_bits(v) for v in (value.identity, value.elliptic, value.hyperbolic))
    value = complex(value)
    return value.real.hex(), value.imag.hex()


def _memo_call(evaluator, spectrum, sigma):
    """The bits of one evaluator at sigma on spectrum; None where the
    antisymmetric zeta is undefined."""
    if evaluator is antisymmetric_zeta and epsilon_sigma(sigma) == 1:
        return None
    ctx = ZetaTermContext(sigma=sigma, chi_dim=2, spectrum=spectrum, vol=1.5,
                          elliptic_vols=[0.5] * spectrum.count("elliptic"))
    arg = MEMO_TIMES if evaluator is geometric_heat_terms else MEMO_POINTS
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # points left of the abscissa
        return _bits(evaluator(arg, ctx))


def _fresh(spectrum: LengthSpectrum) -> LengthSpectrum:
    return LengthSpectrum(spectrum.columns, spectrum.spec_hash, spectrum.cutoff,
                          spectrum.max_word_len, spectrum.model)


def test_kept_class_factors_give_the_bits_of_a_fresh_spectrum(tmp_path):
    path = tmp_path / "memo.csv"
    path.write_text(small_h3_spectrum_csv(seed=23, classes=300))
    shared = LengthSpectrum.read_csv(path)
    sigmas = [WeightVector.from_coords([k]) for k in (0, 1, 2)]
    for _ in range(2):  # the second pass is warm throughout
        for evaluator in MEMO_EVALUATORS:
            for sigma in sigmas:  # the weights interleave on one spectrum
                want = _memo_call(evaluator, _fresh(shared), sigma)
                assert _memo_call(evaluator, shared, sigma) == want, (evaluator.__name__, sigma)
    flips = [w0_flip(sigma) for sigma in sigmas if epsilon_sigma(sigma) == 2]
    assert set(shared.derived) == {
        ("chi_v",), ("den", 1), *(("trace", w) for w in sigmas + flips),
        *(("orbital", sigma) for sigma in sigmas)}
    hyperbolic = shared.count("hyperbolic")
    for key, value in shared.derived.items():
        if key[0] == "orbital":
            assert len(value) == shared.count("elliptic")
            continue
        assert value.shape == (hyperbolic,) and not value.flags.writeable, key
        with pytest.raises(ValueError):
            value[0] = 0.0

    parent_entries = dict(shared.derived)
    child = shared.with_cutoff(2.0)
    assert child.derived == {}
    for evaluator in MEMO_EVALUATORS:
        assert _memo_call(evaluator, child, sigmas[1]) == _memo_call(evaluator, _fresh(child),
                                                                     sigmas[1])
    assert len(child.derived[("trace", sigmas[1])]) == child.count("hyperbolic") < hyperbolic
    assert shared.derived.keys() == parent_entries.keys()
    assert all(shared.derived[key] is value for key, value in parent_entries.items())


def test_guards_fire_on_warm_calls():
    rows = [hyp_row(1.0, (0.7,)), hyp_row(1.4, (2.1,))._replace(ambiguous=True)]
    ctx = make_ctx(rows, SIGMA1, elliptic=[ell_row((0.9,))], allow_ambiguous=True)
    refusing = replace(ctx, allow_ambiguous=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for evaluator in MEMO_EVALUATORS:
            evaluator(MEMO_TIMES if evaluator is geometric_heat_terms else MEMO_POINTS, ctx)
    for _ in range(2):
        for evaluator in MEMO_EVALUATORS:
            with warnings.catch_warnings(), pytest.raises(AmbiguousClassError):
                warnings.simplefilter("ignore")  # xi warns of the volumes first
                evaluator(0.5 if evaluator is geometric_heat_terms else 4.5, refusing)

    kept = dict(ctx.spectrum.derived)
    rank2 = replace(ctx, sigma=WeightVector.from_coords([1, 1]))
    for _ in range(2):
        for evaluator in (log_zeta_truncated, xi_correction, geometric_heat_terms):
            with warnings.catch_warnings(), pytest.raises(ValidationError, match="rank"):
                warnings.simplefilter("ignore")
                evaluator(0.5 if evaluator is geometric_heat_terms else 4.5, rank2)
    assert ctx.spectrum.derived.keys() == kept.keys()

    for _ in range(2):
        with pytest.warns(UserWarning, match="centralizer volumes"):
            geometric_heat_terms(0.5, ctx)
        with pytest.warns(UserWarning, match="centralizer volumes"):
            xi_correction(4.5, ctx)


def test_adjoint_determinant_overflow_is_raised_again_and_not_kept():
    huge = class_row("hyperbolic", 800.0, (0.7,), D=1.0)  # e^{n l} D is past the float range
    ctx = make_ctx([hyp_row(1.0), huge], SIGMA0, cutoff=1000.0)
    for _ in range(2):
        with pytest.raises(NumericalGuardError, match="adjoint determinant overflows"):
            log_zeta_truncated(4.0, ctx)
    assert ("den", 1) not in ctx.spectrum.derived
