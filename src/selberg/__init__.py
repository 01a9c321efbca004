"""Geometric side of the twisted Selberg trace formula on compact
hyperbolic orbifolds: exact type-D Weyl/weight arithmetic, elliptic
orbital-integral polynomials, word-ball length spectra, truncated zeta
functions, and exactly solvable flat-orbifold heat checks."""

from .errors import (
    AmbiguousClassError,
    EnumerationExplosionError,
    EvennessError,
    IllConditionedFitError,
    NonRegularElementError,
    NumericalGuardError,
    ParabolicElementError,
    SelbergError,
    ValidationError,
)
from .geometry import (
    GroupElement,
    GroupSpec,
    LengthSpectrum,
    build_length_spectrum,
    classify,
    conjugacy_reduce,
    enumerate_elements,
    weight_D,
)
from .heat import (
    FlatOrbifoldModel,
    HeatFit,
    eigenvalue_count,
    exact_spectrum,
    fit_expansion,
    heat_trace,
    make_model,
    weyl_counting_check,
)
from .lie import (
    EllipticAngles,
    WeightVector,
    half_sum_positive_roots,
    torus_character,
    w0_flip,
    weyl_character,
    weyl_group,
)
from .orbital import (
    EvenPolynomial,
    orbital_polynomial,
    plancherel_polynomial,
    stabilizer_roots,
    weyl_A_invariance_gap,
)
from .zeta import (
    HeatTerms,
    ZetaTermContext,
    antisymmetric_zeta,
    convergence_abscissa_estimate,
    epsilon_sigma,
    geometric_heat_terms,
    log_zeta_truncated,
    symmetric_zeta,
    xi_correction,
)

__version__ = "0.1.0"
