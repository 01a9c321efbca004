import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from selberg.errors import IllConditionedFitError, ValidationError
from selberg.heat import (
    COUNT_BLOCK_CELLS,
    MAX_AXIS_MODES,
    MAX_LATTICE_POINTS,
    MODEL_NAMES,
    TAIL_EXPONENT,
    eigenvalue_count,
    exact_spectrum,
    fit_expansion,
    heat_trace,
    make_model,
    weyl_counting_check,
)

TWO_PI = 2.0 * math.pi


def pillowcase_orbit_spectrum(cutoff, sides=(TWO_PI, TWO_PI)):
    """Independent oracle: explicit sign-orbit counting of lattice points."""
    ax = (TWO_PI / sides[0]) ** 2
    ay = (TWO_PI / sides[1]) ** 2
    seen = set()
    counts = {}
    bound = int(math.isqrt(int(cutoff / min(ax, ay))) + 2)
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            lam = ax * p * p + ay * q * q
            if lam > cutoff or (p, q) in seen:
                continue
            seen.add((p, q))
            seen.add((-p, -q))
            counts[lam] = counts.get(lam, 0) + 1
    return sorted(counts.items())


def test_exact_spectrum_circle_reflection():
    assert exact_spectrum(make_model("circle-reflection"), 10.0) == [
        (0.0, 1),
        (1.0, 1),
        (4.0, 1),
        (9.0, 1),
    ]


def test_exact_spectrum_circle():
    assert exact_spectrum(make_model("circle"), 5.0) == [(0.0, 1), (1.0, 2), (4.0, 2)]


def test_exact_spectrum_pillowcase_orbit_counting():
    got = exact_spectrum(make_model("pillowcase"), 3.0)
    oracle = pillowcase_orbit_spectrum(3.0)
    assert got == oracle
    # frozen from the oracle: (1,1)/(-1,-1) and (1,-1)/(-1,1) are two orbits
    assert got == [(0.0, 1), (1.0, 2), (2.0, 2)]


def test_exact_spectrum_pillowcase_bigger_window():
    got = exact_spectrum(make_model("pillowcase"), 30.0)
    assert got == pillowcase_orbit_spectrum(30.0)


def test_exact_spectrum_guards():
    with pytest.raises(ValidationError):
        exact_spectrum(make_model("circle"), 0.0)
    with pytest.raises(ValidationError):
        make_model("moebius")


def test_exact_spectrum_refuses_a_lattice_past_its_bound():
    """Two axes of 10^4 modes each pass the per-axis bound, but their 4e8
    lattice points would take GiBs: refused after the two short axis lists."""
    with pytest.raises(ValidationError, match=f"over {MAX_LATTICE_POINTS} lattice points"):
        exact_spectrum(make_model("pillowcase"), 1e8)


def test_heat_trace_circle_reflection_value():
    # frozen from direct summation of exp(-n^2)
    oracle = math.fsum(math.exp(-n * n) for n in range(0, 40))
    assert oracle == pytest.approx(1.3863186024133263, rel=1e-15)
    assert heat_trace(make_model("circle-reflection"), 1.0) == pytest.approx(
        oracle, rel=1e-14
    )


def test_heat_trace_large_time_limit():
    for name in ("circle", "circle-reflection", "pillowcase"):
        assert heat_trace(make_model(name), 60.0) == pytest.approx(1.0, abs=1e-15)


def test_heat_trace_matches_spectrum_sum():
    for name in ("circle", "circle-reflection", "pillowcase"):
        model = make_model(name)
        t = 0.3
        direct = math.fsum(
            m * math.exp(-t * lam) for lam, m in exact_spectrum(model, 300.0)
        )
        assert heat_trace(model, t) == pytest.approx(direct, rel=1e-13)


def test_heat_trace_theta_identity():
    # full circle trace = 2 * (reflection trace) - 1, exactly mode by mode
    for t in (0.05, 0.2, 1.0):
        circle = heat_trace(make_model("circle"), t)
        refl = heat_trace(make_model("circle-reflection"), t)
        assert circle == pytest.approx(2.0 * refl - 1.0, rel=1e-14)


def test_heat_trace_poisson_asymptotics():
    # theta-transform: sum e^{-t n^2} = sqrt(pi/t) (1 + tiny) at small t
    t = 0.01
    assert heat_trace(make_model("circle"), t) == pytest.approx(
        math.sqrt(math.pi / t), rel=1e-12
    )


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_heat_trace_matches_mpmath_jacobi_theta(name):
    # oracle: mpmath's theta_3(0, exp(-t / r^2)) on each axis of the torus,
    # folded as (product + 1) / 2 on the quotient by v -> -v
    model = make_model(name, radius=1.7, sides=(6.1, 7.3))
    with mpmath.workdps(30):
        if name == "pillowcase":
            radii = [mpmath.mpf(6.1) / (2 * mpmath.pi), mpmath.mpf(7.3) / (2 * mpmath.pi)]
        else:
            radii = [mpmath.mpf(1.7)]
        for t in np.geomspace(1e-3, 5.0, 9):
            theta = mpmath.fprod(mpmath.jtheta(3, 0, mpmath.exp(-mpmath.mpf(t) / r**2))
                                 for r in radii)
            want = theta if name == "circle" else (theta + 1) / 2
            assert heat_trace(model, t) == pytest.approx(float(want), rel=1e-14)


def test_heat_trace_completely_monotone():
    grid = np.geomspace(0.01, 2.0, 25)
    for name in ("circle", "circle-reflection", "pillowcase"):
        model = make_model(name)
        values = np.array([heat_trace(model, t) for t in grid])
        diffs = np.diff(values)
        assert np.all(diffs < 0)  # decreasing in t
        assert np.all(np.diff(diffs) > 0)  # convex


GRID_MODELS = [
    *(pytest.param(make_model(name, radius=r, sides=(TWO_PI * r, TWO_PI * r)), id=f"{name}-{r}")
      for name in MODEL_NAMES for r in (0.37, 1.0, 3.1)),
    pytest.param(make_model("pillowcase", sides=(5.85037, 7.885084)), id="pillowcase-5.85037x7.885084"),
]


@pytest.mark.parametrize("model", GRID_MODELS)
def test_a_time_grid_gives_each_time_s_bits(model):
    """One call on a sequence of times returns, as a list, the bits of one
    call per time, whatever the sequence type."""
    times = np.geomspace(1e-4, 80.0, 60)
    each = [heat_trace(model, t).hex() for t in times]
    for grid in (times, list(times), tuple(float(t) for t in times)):
        traces = heat_trace(model, grid)
        assert isinstance(traces, list)
        assert [x.hex() for x in traces] == each
    assert isinstance(heat_trace(model, times[0]), float)
    assert heat_trace(model, []) == []


@pytest.mark.parametrize("bad", [-1.0, 0.0, math.inf, math.nan, 1e-20])
def test_a_bad_time_in_a_grid_raises_the_one_time_message(bad):
    model = make_model("pillowcase")
    with pytest.raises(ValidationError) as one:
        heat_trace(model, bad)
    with pytest.raises(ValidationError) as grid:
        heat_trace(model, [0.1, 1.0, bad, 2.0])
    assert str(grid.value) == str(one.value)


def test_a_time_grid_holds_one_time_s_weights():
    """500 times, one of them MAX_AXIS_MODES / 4 modes deep: a grid held as
    a times x modes array would take 1 GB, one time's weights about 10 MB."""
    model = make_model("circle")
    deep = TAIL_EXPONENT / (MAX_AXIS_MODES / 4) ** 2
    times = [*np.geomspace(1e-4, 80.0, 499), deep]
    tracemalloc.start()
    try:
        traces = heat_trace(model, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert traces[-1] == pytest.approx(math.sqrt(math.pi / deep))  # Poisson: 2 pi r / sqrt(4 pi t)


def test_fit_expansion_circle_reflection():
    model = make_model("circle-reflection")
    fit = fit_expansion(model, np.geomspace(0.001, 0.01, 10))
    assert fit.exponents == (-0.5, 0.0, 0.5)
    assert fit.expected_leading == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-15)
    assert fit.leading_coefficient == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-3)
    # the two mirror points, of isotropy order 2, contribute 1/4 each
    assert fit.constant_term == pytest.approx(0.5, abs=1e-6)


def test_fit_expansion_exact_halves_identity():
    # reflection trace = 1/2 + (1/2) full theta: the constant is exactly the
    # halved fixed-mode, rederived here from the identity
    t = 0.004
    refl = heat_trace(make_model("circle-reflection"), t)
    full = heat_trace(make_model("circle"), t)
    assert refl == pytest.approx(0.5 + 0.5 * full, rel=1e-14)


def test_fit_expansion_circle_control_constant_vanishes():
    fit = fit_expansion(make_model("circle"), np.geomspace(0.001, 0.01, 10))
    assert fit.leading_coefficient == pytest.approx(math.sqrt(math.pi), rel=1e-3)
    assert abs(fit.constant_term) < 1e-8
    assert abs(fit.coefficient(0.5)) < 1e-6


def test_fit_coefficient_refuses_an_exponent_off_the_ladder():
    fit = fit_expansion(make_model("circle"), np.geomspace(0.001, 0.01, 10))
    with pytest.raises(ValidationError, match="exponent 0.25 not in the fitted ladder"):
        fit.coefficient(0.25)


def test_fit_expansion_pillowcase():
    fit = fit_expansion(make_model("pillowcase"), np.geomspace(0.002, 0.02, 12))
    # leading: (4 pi)^{-1} * vol = pi/2; constant: four corner points
    assert fit.expected_leading == pytest.approx(math.pi / 2.0, rel=1e-15)
    assert fit.leading_coefficient == pytest.approx(math.pi / 2.0, rel=1e-3)
    assert fit.constant_term == pytest.approx(0.5, abs=1e-5)
    assert fit.residual < 1e-8


def test_fit_expansion_window_guard():
    with pytest.raises(ValidationError):
        fit_expansion(make_model("circle"), [0.01, 0.2])
    with pytest.raises(ValidationError):
        fit_expansion(make_model("circle"), [0.01, 0.02])  # too few points


def test_fit_expansion_refuses_an_ill_conditioned_grid():
    """Three equal times leave two distinct rows for three ladder terms."""
    with pytest.raises(IllConditionedFitError) as exc:
        fit_expansion(make_model("circle"), [0.001, 0.001, 0.001, 0.002])
    cond = exc.value.condition_number
    assert cond > 1e12
    assert str(exc.value) == f"fit design matrix has condition number {cond:.3e}"


def test_weyl_counting_circle_reflection():
    report = weyl_counting_check(make_model("circle-reflection"), 40000.0)
    assert report.eigenvalue_count >= 200
    assert report.predicted == pytest.approx(1.0, rel=1e-12)
    assert report.relative_error < 0.02


def test_weyl_counting_circle():
    report = weyl_counting_check(make_model("circle"), 40000.0)
    assert report.predicted == pytest.approx(2.0, rel=1e-12)
    assert report.relative_error < 0.02


def test_weyl_counting_pillowcase():
    report = weyl_counting_check(make_model("pillowcase"), 700.0)
    assert report.eigenvalue_count >= 200
    assert report.predicted == pytest.approx(math.pi / 2.0, rel=1e-12)
    assert report.relative_error < 0.05


def test_weyl_counting_needs_enough_eigenvalues():
    with pytest.raises(ValidationError):
        weyl_counting_check(make_model("circle"), 100.0)


def cumulative_count(spectrum, bound):
    return sum(m for lam, m in spectrum if lam <= bound)


@pytest.mark.parametrize("sides", [(TWO_PI, TWO_PI), (TWO_PI, math.pi)])
def test_eigenvalue_count_pillowcase_matches_orbit_oracle(sides):
    # 1, 4, 5 and 25 are eigenvalues of both lattices (p^2 + q^2, p^2 + 4 q^2)
    bounds = [0.0, 0.5, 1.0, 1.5, 2.0, 4.0, 4.999, 5.0, 5.001, 17.3, 24.999, 25.0, 26.0]
    oracle = pillowcase_orbit_spectrum(30.0, sides)
    model = make_model("pillowcase", sides=sides)
    want = [cumulative_count(oracle, b) for b in bounds]
    assert eigenvalue_count(model, bounds).tolist() == want


@pytest.mark.parametrize("name,weight", [("circle", 2), ("circle-reflection", 1)])
def test_eigenvalue_count_circle_at_exact_eigenvalues(name, weight):
    r = 1.7
    bounds = [(m / r) ** 2 for m in (0, 1, 2, 7, 40, 341)]
    bounds += [math.nextafter(b, 0.0) for b in bounds[1:]]
    want = [
        sum(weight if m else 1 for m in range(400) if (m / r) ** 2 <= b)
        for b in bounds
    ]
    assert eigenvalue_count(make_model(name, radius=r), bounds).tolist() == want


def test_eigenvalue_count_matches_exact_spectrum():
    rng = np.random.default_rng(5)
    for _ in range(20):
        sides = tuple(rng.uniform(1.0, 9.0, 2))
        model = make_model("pillowcase", sides=sides)
        cutoff = float(rng.uniform(50.0, 2000.0))
        spectrum = exact_spectrum(model, cutoff)
        # the largest eigenvalues sit on the cutoff's boundary points
        bounds = [cutoff] + [lam for lam, _ in spectrum[-5:]]
        want = [cumulative_count(spectrum, b) for b in bounds]
        assert eigenvalue_count(model, bounds).tolist() == want


def lattice_count_oracle(model, bounds):
    """Independent oracle: every point v of a box of Z^d, tested against
    every bound b as sum_i (v_i / r_i)^2 <= b; (N + 1) / 2 of them when folded."""
    ends = [math.floor(r * math.sqrt(max(bounds))) + 2 for r in model.radii]
    axes = [np.arange(-m, m + 1, dtype=float) for m in ends]
    lam = 0.0
    for v, r in zip(np.meshgrid(*axes, indexing="ij"), model.radii):
        lam = lam + (v / r) * (v / r)
    counts = [int(np.count_nonzero(lam <= b)) for b in bounds]
    return [(c + 1) // 2 for c in counts] if model.folded else counts


@pytest.mark.parametrize("name,kwargs", [
    ("pillowcase", {"sides": (TWO_PI * 60.0, 2.7)}),
    ("pillowcase", {"sides": (4.1, 5.3)}),
    ("circle", {"radius": 7.3}),
    ("circle-reflection", {"radius": 0.6}),
])
def test_eigenvalue_count_in_blocks_matches_lattice_oracle(name, kwargs):
    """Unsorted bounds with duplicates, 0 and exact eigenvalues, over
    several blocks of bounds for the long first axis."""
    model = make_model(name, **kwargs)
    top = 30.0
    spectrum = exact_spectrum(model, top)
    rng = np.random.default_rng(11)
    exact = [lam for lam, _ in spectrum]
    bounds = [*rng.uniform(0.0, top, 120), 0.0, 0.0, top, *exact[:40], *exact[-20:],
              *(math.nextafter(lam, 0.0) for lam in exact[1:30])]
    bounds += bounds[:25]
    rng.shuffle(bounds)
    got = eigenvalue_count(model, bounds)
    assert got.dtype == np.int64
    assert got.tolist() == lattice_count_oracle(model, bounds)
    assert got.tolist() == [cumulative_count(spectrum, b) for b in bounds]
    if model.radii[0] > 10.0:
        rows = math.floor(model.radii[0] * math.sqrt(top)) + 1
        assert len(bounds) > 3 * (COUNT_BLOCK_CELLS // rows)  # several blocks


def test_eigenvalue_count_of_no_bounds():
    for name in MODEL_NAMES:
        got = eigenvalue_count(make_model(name), [])
        assert got.dtype == np.int64 and got.shape == (0,)


def test_eigenvalue_count_guards():
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValidationError):
            eigenvalue_count(make_model("pillowcase"), [1.0, bad])
