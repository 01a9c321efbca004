"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here; expected values come from the independent
oracles in conftest (explicit matrices, pointwise sums, quadrature,
displacement minimization, lattice counting), never from the code paths
under test.
"""

import cmath
import math
import time
import warnings

import numpy as np
import pytest

from conftest import (
    block_rotation_trace,
    brute_orbital_value,
    class_row,
    cyclic_h3_spec,
    displacement_infimum,
    random_angles,
    random_dominant,
    random_flip_moved_dominant,
    synthetic_spectrum,
)
from selberg.errors import NonRegularElementError
from selberg.geometry import build_length_spectrum, weight_D
from selberg.heat import (
    fit_expansion,
    make_model,
    weyl_counting_check,
)
from selberg.lie import EllipticAngles, WeightVector, w0_flip, weyl_character
from selberg.orbital import orbital_polynomial, weyl_A_invariance_gap
from selberg.zeta import (
    ZetaTermContext,
    antisymmetric_zeta,
    convergence_abscissa_estimate,
    geometric_heat_terms,
    log_zeta_truncated,
    symmetric_zeta,
)

import random


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert ok, detail


def evenness_suite(rng: random.Random, cases: int):
    """Randomized (weight, angles) cases across ranks 1..3, degenerate
    zero/equal-angle configurations included."""
    for _ in range(cases):
        n = rng.choice((1, 2, 3))
        sigma = random_dominant(rng, n, spin=rng.random() < 0.25)
        angles = random_angles(
            rng, n, zero_slots=rng.choice((0, 0, 1, n)), degenerate=True
        )
        yield n, sigma, angles


def test_criterion_1_evenness(rng):
    start = time.time()
    worst = 0.0
    count = 0
    for n, sigma, angles in evenness_suite(rng, 220):
        poly = orbital_polynomial(sigma, angles)
        worst = max(worst, poly.even_residual)
        count += 1
    elapsed = time.time() - start
    ok = worst < 1e-10 and count >= 200 and elapsed < 30.0
    report(1, ok, f"odd-power residual {worst:.2e} over {count} cases in {elapsed:.1f}s")


def test_criterion_2_flip_invariance(rng):
    # the invariance holds on the flip-fixed weights for all angle tuples,
    # and on flip-moved weights whenever a zero compact angle is present
    # (its provable domain; see the counterexample regression in the orbital
    # tests for why generic angles cannot be included)
    worst = 0.0
    count = 0
    for _ in range(220):
        n = rng.choice((1, 2, 3))
        if n == 1 or rng.random() < 0.4:
            doubled = random_dominant(rng, n).doubled[:-1] + (0,)
            sigma = WeightVector(doubled)
            angles = random_angles(
                rng, n, zero_slots=rng.choice((0, 1)), degenerate=True
            )
        else:
            sigma = random_flip_moved_dominant(rng, n)
            angles = random_angles(rng, n, zero_slots=1, degenerate=True)
        gap = weyl_A_invariance_gap(sigma, angles)
        scale = max(max(map(abs, orbital_polynomial(sigma, angles).coeffs)), 1.0)
        worst = max(worst, gap / scale)
        count += 1
    ok = worst < 1e-10 and count >= 200
    report(2, ok, f"flip-invariance gap {worst:.2e} over {count} cases")


def test_criterion_3_oracle_equivalence(rng):
    worst = 0.0
    for _ in range(120):
        n = rng.choice((1, 2))
        sigma = random_dominant(rng, n)
        angles = random_angles(
            rng, n, zero_slots=rng.choice((0, 1, n)), degenerate=True
        )
        poly = orbital_polynomial(sigma, angles)
        for i in range(2 * (poly.degree // 2 + 1)):
            nu = -2.0 + i * 1.2345
            want = brute_orbital_value(sigma, angles.angles, n, nu)
            worst = max(worst, abs(poly(nu) - want) / max(abs(want), 1.0))
    ok = worst < 1e-9
    report(3, ok, f"symbolic vs pointwise Weyl-sum deviation {worst:.2e}")


def test_criterion_4_character_oracle(rng):
    worst = 0.0
    hits = 0
    while hits < 110:
        n = rng.choice((1, 2, 3))
        angles = random_angles(rng, n)
        std = WeightVector.from_coords([1] + [0] * (n - 1))
        try:
            value = weyl_character(std, angles)
        except NonRegularElementError:
            continue
        if n == 1:
            oracle = cmath.exp(1j * angles.angles[0])
        else:
            oracle = block_rotation_trace(angles)
        worst = max(worst, abs(value - oracle))
        hits += 1
    ok = worst < 1e-10
    report(4, ok, f"character vs rotation-matrix trace deviation {worst:.2e} on {hits} samples")


def _synthetic_ctx(rng, sigma, count=6):
    recs = []
    for _ in range(count):
        theta = rng.uniform(0.3, 5.9)
        chi = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        length = rng.uniform(0.6, 3.0)
        recs.append(class_row("hyperbolic", length, (theta,), D=weight_D(length, (theta,)),
                              tr_chi=chi))
    spectrum = synthetic_spectrum(recs, cutoff=10.0)
    return ZetaTermContext(sigma=sigma, chi_dim=1, spectrum=spectrum)


def test_criterion_6_zeta_algebra(rng):
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(15):
            sigma = WeightVector.from_coords([rng.choice((1, 2, 3))])
            ctx = _synthetic_ctx(rng, sigma)
            s = complex(rng.uniform(2.5, 4.0), rng.uniform(-1.0, 1.0))
            z = cmath.exp(log_zeta_truncated(s, ctx))
            lhs = z * z
            rhs = symmetric_zeta(s, ctx) * antisymmetric_zeta(s, ctx)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-30))
        square_ok = worst < 1e-12

        empty = ZetaTermContext(
            sigma=WeightVector.from_coords([0]), chi_dim=1,
            spectrum=synthetic_spectrum(cutoff=5.0),
        )
        empty_ok = cmath.exp(log_zeta_truncated(3.0, empty)) == 1.0 + 0j

        c = 0.6
        full = [
            class_row("hyperbolic", m * c, (0.0,), power=m, primitive_length=c,
                      D=weight_D(m * c, (0.0,)))
            for m in range(1, 16)
        ]
        sig0 = WeightVector.from_coords([0])
        est = convergence_abscissa_estimate(
            ZetaTermContext(sigma=sig0, chi_dim=1,
                            spectrum=synthetic_spectrum(full, cutoff=10.0))
        )
        s = est.c + 0.5
        values = []
        for cut in (5, 8, 11, 14):
            recs = [r for r in full if r.length <= cut * c]
            ctx = ZetaTermContext(
                sigma=sig0, chi_dim=1,
                spectrum=synthetic_spectrum(recs, cutoff=cut * c),
            )
            values.append(log_zeta_truncated(s, ctx))
        gaps = [abs(values[i + 1] - values[i]) for i in range(len(values) - 1)]
        cauchy_ok = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    ok = square_ok and empty_ok and cauchy_ok
    report(
        6, ok,
        f"Z^2=S*Sa deviation {worst:.2e}; empty Z==1 {empty_ok}; "
        f"Cauchy gaps {['%.1e' % g for g in gaps]}",
    )


def test_criterion_7_heat_expansion():
    start = time.time()
    refl = fit_expansion(make_model("circle-reflection"), np.geomspace(0.001, 0.01, 10))
    lead_err = abs(refl.coefficients[0] - math.sqrt(math.pi) / 2) / (
        math.sqrt(math.pi) / 2
    )
    const_err = abs(refl.coefficient(0.0) - 0.5)
    circle = fit_expansion(make_model("circle"), np.geomspace(0.001, 0.01, 10))
    control_err = abs(circle.coefficient(0.0))
    elapsed = time.time() - start
    ok = lead_err < 1e-3 and const_err < 1e-6 and control_err < 1e-8 and elapsed < 5.0
    report(
        7, ok,
        f"leading rel err {lead_err:.2e}, constant err {const_err:.2e}, "
        f"manifold-control constant {control_err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_8_weyl_law():
    r1 = weyl_counting_check(make_model("circle-reflection"), 40000.0)
    r2 = weyl_counting_check(make_model("circle"), 40000.0)
    r3 = weyl_counting_check(make_model("pillowcase"), 700.0)
    ok = (
        r1.relative_error < 0.02
        and r2.relative_error < 0.02
        and r3.relative_error < 0.05
        and min(r1.eigenvalue_count, r2.eigenvalue_count, r3.eigenvalue_count) >= 200
    )
    report(
        8, ok,
        f"slope errors: reflection {r1.relative_error:.3%}, "
        f"circle {r2.relative_error:.3%}, pillowcase {r3.relative_error:.3%}",
    )


def test_criterion_9_geometry_oracles():
    g = np.diag([math.e, 1.0 / math.e])
    length_err = abs(displacement_infimum(g) - 2.0)

    d_err = abs(weight_D(2.0, (0.0,)) - 4.0 * math.sinh(1.0) ** 2)

    c = 0.7
    cutoff = 5.0
    ls = build_length_spectrum(cyclic_h3_spec(c), 7, cutoff=cutoff)
    expected = [m * c for m in range(1, int(cutoff / c) + 1)]
    hyper = ls.part("hyperbolic")
    got = sorted({round(x, 9) for x in hyper.length.tolist()})
    spectrum_ok = (
        len(got) == len(expected)
        and all(abs(a - b) < 1e-9 for a, b in zip(got, expected))
        and all(
            power == round(length / c)
            and abs(l0 - c) < 1e-9
            for length, power, l0 in zip(hyper.length, hyper.power, hyper.primitive_length)
        )
    )
    ok = length_err < 1e-6 and d_err < 1e-9 and spectrum_ok
    report(
        9, ok,
        f"translation-length err {length_err:.2e}, D(2,0) err {d_err:.2e}, "
        f"cyclic spectrum exact {spectrum_ok}",
    )


def test_criterion_10_plancherel_calibration():
    vol = 2.31
    ctx = ZetaTermContext(
        sigma=WeightVector.from_coords([0]), chi_dim=1,
        spectrum=synthetic_spectrum(cutoff=5.0), vol=vol,
    )
    worst = 0.0
    for t in (0.1, 1.0, 10.0):
        ident = geometric_heat_terms(t, ctx).identity
        target = vol * (4.0 * math.pi * t) ** -1.5
        worst = max(worst, abs(ident - target) / target)
    ok = worst < 1e-10
    report(10, ok, f"identity-term rel err {worst:.2e} against vol (4 pi t)^(-3/2)")
