"""Numerical toolkit for the geometry of the spectral ball.

The spectral ball is the set of square complex matrices with spectral
radius below one.  This package provides:

* a dense matrix kernel: spectra, symmetrized coordinates and their
  differential, companion matrices, ordered triangularization, matrix
  exponentials/logarithms and commutation-operator linear algebra;
* a cross-checked non-derogatory classifier built from five equivalent
  criteria;
* invariant-distance geometry: pseudohyperbolic distance, exact values at
  scalar base points, the permutation-minimax pairing bound with analytic
  disc witnesses, and the convex hull with constructive certificates;
* Pick-matrix interpolation with Blaschke-product recovery and certified
  discontinuity gaps;
* entire matrix curves with constant spectrum (triangular conjugation,
  exponential conjugation, low-degree polynomials) plus a sampling verifier;
* a JSON command-line interface (``spectralball``).
"""

from .curves import (
    ExpConjugationCurve,
    MatrixPolynomialCurve,
    SpectrumCheck,
    TriangularConjugationCurve,
    iso_spectral_curve,
    multiset_distance,
    quadratic_witness_2x2,
    spectrum_polynomials_2x2,
    verify_constant_spectrum,
    zero_metric_curve,
)
from .errors import (
    DomainError,
    InternalError,
    InvalidInputError,
    NoSolutionError,
    NotInHullError,
    NumericError,
    PreconditionError,
    SpectralBallError,
    UnsupportedError,
)
from .geometry import (
    DiscWitness,
    HullWitness,
    SpectralDisc,
    bottleneck_minimax,
    disk_automorphism,
    hull_membership,
    hull_witness,
    kobayashi_scalar_base,
    lempert_scalar_base,
    mobius,
    sample_omega,
    upper_bound_disc,
)
from .matcore import (
    DEFAULT_TOL,
    CommutantBasis,
    Spectrum,
    SymPoint,
    as_matrix,
    bottleneck_assignment,
    commutant_basis,
    commutation_operator,
    companion,
    elementary_symmetric,
    expm_pair,
    matrix_exp,
    ordered_triangularize,
    sigma,
    sigma_differential_matrix,
    sigma_pushforward,
    solve_conjugation,
    spectrum,
    unitary_log,
)
from .nonderog import (
    CRITERIA,
    CriterionResult,
    NonderogReport,
    PolyCoeffs,
    classify,
    minimal_polynomial,
)
from .pick import (
    BlaschkeProduct,
    GapCertificate,
    PickProblem,
    SymmetrizedDisc,
    ZeroInterpolant,
    blaschke_through_roots_of_unity,
    degenerate_interpolant,
    discontinuity_report,
    gap_certificate,
    is_psd,
    pick_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "BlaschkeProduct",
    "CommutantBasis",
    "CRITERIA",
    "CriterionResult",
    "DiscWitness",
    "DomainError",
    "ExpConjugationCurve",
    "GapCertificate",
    "HullWitness",
    "InternalError",
    "InvalidInputError",
    "MatrixPolynomialCurve",
    "NonderogReport",
    "NoSolutionError",
    "NotInHullError",
    "NumericError",
    "PickProblem",
    "PolyCoeffs",
    "PreconditionError",
    "SpectralBallError",
    "SpectralDisc",
    "Spectrum",
    "SpectrumCheck",
    "SymPoint",
    "SymmetrizedDisc",
    "TriangularConjugationCurve",
    "UnsupportedError",
    "ZeroInterpolant",
    "as_matrix",
    "blaschke_through_roots_of_unity",
    "bottleneck_assignment",
    "bottleneck_minimax",
    "classify",
    "commutant_basis",
    "commutation_operator",
    "companion",
    "degenerate_interpolant",
    "discontinuity_report",
    "disk_automorphism",
    "elementary_symmetric",
    "expm_pair",
    "gap_certificate",
    "hull_membership",
    "hull_witness",
    "is_psd",
    "iso_spectral_curve",
    "kobayashi_scalar_base",
    "lempert_scalar_base",
    "matrix_exp",
    "minimal_polynomial",
    "mobius",
    "multiset_distance",
    "ordered_triangularize",
    "pick_matrix",
    "quadratic_witness_2x2",
    "sample_omega",
    "sigma",
    "sigma_differential_matrix",
    "sigma_pushforward",
    "solve_conjugation",
    "spectrum",
    "spectrum_polynomials_2x2",
    "unitary_log",
    "upper_bound_disc",
    "verify_constant_spectrum",
    "zero_metric_curve",
]
