"""Numerical toolkit for the geometry of the spectral ball.

The spectral ball is the set of square complex matrices with spectral
radius below one.  This package provides:

* a dense matrix kernel: spectra, symmetrized coordinates and their
  differential, companion matrices, ordered triangularization, the matrix
  exponential and commutation-operator linear algebra;
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

Import footprint: ``import spectralball`` loads none of its submodules (and
so neither numpy).  The first access to an exported name imports the module
that defines it, with that module's own imports, and binds the name here, so
later lookups are plain attribute reads: ``spectralball.classify`` loads
``nonderog``, ``matcore`` and ``errors`` and nothing else.
"""

import importlib

__version__ = "0.1.0"

#: Exported names of each submodule.
_EXPORTS = {
    "curves": (
        "ExpConjugationCurve", "MatrixPolynomialCurve", "SpectrumCheck",
        "TriangularConjugationCurve", "iso_spectral_curve", "multiset_distance",
        "quadratic_witness_2x2", "spectrum_polynomials_2x2", "verify_constant_spectrum",
        "zero_metric_curve",
    ),
    "errors": (
        "DomainError", "InternalError", "InvalidInputError", "NoSolutionError",
        "NotInHullError", "NumericError", "PreconditionError", "SpectralBallError",
        "UnsupportedError",
    ),
    "geometry": (
        "DiscWitness", "HullWitness", "SpectralDisc", "bottleneck_minimax",
        "disk_automorphism", "hull_membership", "hull_witness", "kobayashi_scalar_base",
        "lempert_scalar_base", "mobius", "sample_omega", "upper_bound_disc",
    ),
    "matcore": (
        "DEFAULT_TOL", "Spectrum", "SymPoint", "as_matrix", "bottleneck_assignment",
        "commutation_operator", "companion", "elementary_symmetric", "expm_pair",
        "ordered_triangularize", "sigma", "sigma_differential_matrix", "sigma_pushforward",
        "solve_conjugation", "spectrum",
    ),
    "nonderog": (
        "CriterionResult", "NonderogReport", "PolyCoeffs", "classify", "minimal_polynomial",
    ),
    "pick": (
        "BlaschkeProduct", "GapCertificate", "PickProblem", "ZeroInterpolant",
        "blaschke_through_roots_of_unity", "degenerate_interpolant", "discontinuity_report",
        "gap_certificate", "pick_matrix",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    """Import the submodule that defines *name*, or that *name* is, and bind
    *name* here (PEP 562)."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
