"""Constant-spectrum analytic curves of matrices.

Three entire closed forms witness degenerate invariant-distance behaviour:

* triangular conjugation  -- joins two matrices with equal spectra through a
  shared triangular frame, with the conjugating unitaries interpolated along
  a logarithm path;
* exponential conjugation -- lam -> exp(-lam Y) A exp(lam Y), the canonical
  zero-metric witness with prescribed first derivative;
* matrix polynomial       -- explicit low-degree curves, including the
  quadratic 2x2 witness with constant trace and determinant.

``verify_constant_spectrum`` samples any curve and reports the worst
eigenvalue-multiset deviation from an expected spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalError,
    InvalidInputError,
    PreconditionError,
    UnsupportedError,
)
from .geometry import _triangular_frames
from .matcore import (
    DEFAULT_TOL,
    _bottleneck_pairing,
    as_matrix,
    expm_pair,
    sigma_pushforward,
    solve_conjugation,
)
from .nonderog import classify

#: Acceptance threshold when pairing two eigenvalue multisets.
PAIRING_TOL = 1e-6

#: Threshold below which a direction counts as nilpotent / a matrix as scalar.
STRUCTURE_TOL = 1e-8


@dataclass(eq=False)
class TriangularConjugationCurve:
    """exp(H0 + lam H1) ((1-lam) T0 + lam T1) exp(-(H0 + lam H1)).

    A scalar parameter gives one (n, n) matrix; a 1-D array of m parameters
    gives the (m, n, n) stack of values.
    """

    h0: np.ndarray
    h1: np.ndarray
    t0: np.ndarray
    t1: np.ndarray
    kind: str = "triangular_conjugation"

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=complex)[..., None, None]
        x = self.h0 + lam * self.h1
        mid = (1.0 - lam) * self.t0 + lam * self.t1
        w, w_inv = expm_pair(x)
        return w @ mid @ w_inv


@dataclass(eq=False)
class ExpConjugationCurve:
    """exp(-lam Y) A exp(lam Y); spectrum is constant identically.

    A scalar parameter gives one (n, n) matrix; a 1-D array of m parameters
    gives the (m, n, n) stack of values.
    """

    base: np.ndarray
    generator: np.ndarray
    kind: str = "exp_conjugation"

    def __call__(self, lam):
        x = np.asarray(lam, dtype=complex)[..., None, None] * self.generator
        w, w_inv = expm_pair(x)
        return w_inv @ self.base @ w


@dataclass(eq=False)
class MatrixPolynomialCurve:
    """sum_k lam^k C_k for a list of coefficient matrices.

    A scalar parameter gives one (n, n) matrix; a 1-D array of m parameters
    gives the (m, n, n) stack of values.
    """

    coefficients: list
    kind: str = "matrix_polynomial"

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=complex)[..., None, None]
        out = np.zeros_like(self.coefficients[0])
        power = np.ones_like(lam)
        for c in self.coefficients:
            out = out + power * c
            # unfused complex product: numpy's vectorized one may use fused
            # multiply-adds and then rounds unlike a scalar evaluation
            power = (power.real * lam.real - power.imag * lam.imag) + 1j * (
                power.real * lam.imag + power.imag * lam.real
            )
        return out


def iso_spectral_curve(a, b) -> TriangularConjugationCurve:
    """Entire curve through A (at 0) and B (at 1) with constant spectrum.

    Requires the two spectra to agree as multisets, under the optimal
    pairing, within PAIRING_TOL * (1 + r(A)), and both matrices to lie in
    the spectral ball.  Both matrices are triangularized with the same
    diagonal order; the triangular parts are joined affinely (their shared
    diagonal keeps the spectrum fixed) and the unitaries through the
    difference of their logarithms.
    """

    def pairing(sp_a, sp_b):
        gap, perm = _bottleneck_pairing(np.abs(sp_a.values[:, None] - sp_b.values))
        if gap > PAIRING_TOL * (1.0 + sp_a.radius):
            raise PreconditionError(f"spectra differ as multisets (gap {gap:.3e})")
        return perm

    t0, t1, h0, h1 = _triangular_frames(a, b, pairing)
    # shared diagonal: the affine interpolation then fixes the spectrum
    np.fill_diagonal(t1, np.diag(t0))
    return TriangularConjugationCurve(h0=h0, h1=h1, t0=t0, t1=t1)


def _is_scalar(a, tol_abs) -> bool:
    n = a.shape[0]
    return np.linalg.norm(a - (np.trace(a) / n) * np.eye(n)) <= tol_abs


def _is_nilpotent(b, tol_abs) -> bool:
    n = b.shape[0]
    power = np.linalg.matrix_power(b, n)
    return np.linalg.norm(power) <= tol_abs * max(1.0, np.linalg.norm(b)) ** n


def _conjugation_generator(A, B, tol):
    """Generator Y of the zero-metric witness through A in direction B.

    Returns None for a scalar base with a nilpotent direction, where the
    affine curve A + lam B already has constant spectrum.  Otherwise A must
    be non-derogatory and the symmetrized differential of B must vanish;
    then Y solves AY - YA = B.  Anything else raises UnsupportedError.
    """
    if _is_scalar(A, STRUCTURE_TOL * (1.0 + np.linalg.norm(A))):
        if not _is_nilpotent(B, STRUCTURE_TOL):
            raise UnsupportedError(
                "scalar base point requires a nilpotent direction"
            )
        return None
    if not classify(A, tol=tol).verdict:
        raise UnsupportedError(
            "base point is derogatory and not scalar; no witness is constructed"
        )
    push = sigma_pushforward(A, B)
    if np.max(np.abs(push)) > STRUCTURE_TOL * (
        1.0 + np.linalg.norm(A) * np.linalg.norm(B)
    ):
        raise UnsupportedError(
            "symmetrized differential of the direction does not vanish"
        )
    return solve_conjugation(A, B, tol=tol)


def zero_metric_curve(a, b, tol: float = DEFAULT_TOL):
    """Entire curve with value A and derivative B at 0, constant spectrum.

    Two supported regimes: a scalar base with a nilpotent direction gives
    the affine curve A + lam B; a non-derogatory base with vanishing
    symmetrized differential gives the exponential conjugation along the
    solution of the commutation equation.  Anything else is unsupported.
    """
    A = as_matrix(a)
    B = as_matrix(b)
    if B.shape != A.shape:
        raise InvalidInputError("matrices must have the same dimension")
    y = _conjugation_generator(A, B, tol)
    if y is None:
        return MatrixPolynomialCurve([A, B])
    return ExpConjugationCurve(base=A, generator=y)


def _poly_product(p, q):
    return np.convolve(p, q)


def spectrum_polynomials_2x2(curve: MatrixPolynomialCurve):
    """Trace and determinant of a 2x2 matrix polynomial as polynomials.

    Returns (trace_coeffs, det_coeffs), ascending in the curve parameter.
    """
    coeffs = [np.asarray(c, dtype=complex) for c in curve.coefficients]
    if coeffs[0].shape != (2, 2):
        raise InvalidInputError("only 2x2 matrix polynomials are supported")
    entry = {
        (i, j): np.array([c[i, j] for c in coeffs]) for i in range(2) for j in range(2)
    }
    trace = entry[(0, 0)] + entry[(1, 1)]
    det = _poly_product(entry[(0, 0)], entry[(1, 1)]) - _poly_product(
        entry[(0, 1)], entry[(1, 0)]
    )
    return trace, det


def _solve_quadratic_tail(a0, b):
    """Trace-zero psi with tr(A0 psi) = det B, tr(B psi) = 0, det psi = 0.

    psi is parametrized as [[u, v], [w, -u]]; the two linear constraints cut
    an affine subspace on which the isotropy condition u^2 + v w = 0 is
    rooted directly.
    """
    det_b = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
    # tr(M psi) = (m00 - m11) u + m10 v + m01 w
    rows = np.array(
        [
            [a0[0, 0] - a0[1, 1], a0[1, 0], a0[0, 1]],
            [b[0, 0] - b[1, 1], b[1, 0], b[0, 1]],
        ]
    )
    rhs = np.array([det_b, 0.0 + 0.0j])
    xp, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    if np.linalg.norm(rows @ xp - rhs) > 1e-10 * (1.0 + np.linalg.norm(rhs)):
        raise InternalError("quadratic witness constraints are inconsistent")
    _, s, vh = np.linalg.svd(rows)
    rank = int(np.count_nonzero(s > 1e-12 * (s[0] if len(s) else 1.0)))
    null = [vh[i].conj() for i in range(rank, 3)]

    def quad(x):
        return x[0] * x[0] + x[1] * x[2]

    def bilin(x, y):
        return 2.0 * x[0] * y[0] + x[1] * y[2] + x[2] * y[1]

    candidates = []
    for direction in null:
        a_coef = quad(direction)
        b_coef = bilin(xp, direction)
        c_coef = quad(xp)
        if abs(a_coef) > 1e-14:
            roots = np.roots([a_coef, b_coef, c_coef])
            candidates.extend(xp + r * direction for r in roots)
        elif abs(b_coef) > 1e-14:
            candidates.append(xp + (-c_coef / b_coef) * direction)
        elif abs(c_coef) <= 1e-14:
            candidates.append(xp)
    if not candidates:
        raise InternalError("no isotropic point on the constraint set")
    best = min(candidates, key=lambda x: abs(quad(x)) + 0.0)
    u, v, w = best
    return np.array([[u, v], [w, -u]])


def quadratic_witness_2x2(a, b) -> MatrixPolynomialCurve:
    """Degree-at-most-2 polynomial curve p with p(0)=A, p'(0)=B and
    constant spectrum, for 2x2 matrices.

    A scalar base with nilpotent direction yields the affine curve.  For a
    non-derogatory base the second-order coefficient is first taken from the
    exponential conjugation through the solution of the commutation
    equation; when the resulting trace/determinant variation is not exactly
    flat, the coefficient is recomputed by solving the four scalar
    constancy constraints directly.  The returned curve always has all
    nonconstant trace and determinant coefficients at most 1e-10.
    """
    A = as_matrix(a)
    B = as_matrix(b)
    if A.shape != (2, 2) or B.shape != (2, 2):
        raise InvalidInputError("operation is defined for 2x2 matrices")
    y = _conjugation_generator(A, B, DEFAULT_TOL)
    if y is None:
        return MatrixPolynomialCurve([A, B])
    psi = (y @ y @ A - 2.0 * y @ A @ y + A @ y @ y) / 2.0
    curve = MatrixPolynomialCurve([A, B, psi])
    if _max_nonconstant_variation(curve) > 1e-10:
        a0 = A - (np.trace(A) / 2.0) * np.eye(2)
        psi = _solve_quadratic_tail(a0, B)
        curve = MatrixPolynomialCurve([A, B, psi])
    variation = _max_nonconstant_variation(curve)
    if variation > 1e-10:
        raise InternalError(
            f"quadratic witness varies its spectrum (coefficient {variation:.3e})"
        )
    return curve


def _max_nonconstant_variation(curve: MatrixPolynomialCurve) -> float:
    trace, det = spectrum_polynomials_2x2(curve)
    worst = 0.0
    if len(trace) > 1:
        worst = max(worst, float(np.max(np.abs(trace[1:]))))
    if len(det) > 1:
        worst = max(worst, float(np.max(np.abs(det[1:]))))
    return worst


@dataclass(eq=False)
class SpectrumCheck:
    """Outcome of sampling a curve against an expected spectrum."""

    passed: bool
    max_deviation: float
    samples: int
    radius: float
    tol: float
    worst_point: complex


def _sample_points(samples, radius):
    """Deterministic low-discrepancy sampling of the disk |lam| <= radius.

    Returns 0, 1 and samples - 2 further points; *samples* is at least 2.
    """
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    k = np.arange(samples - 2)
    r = radius * np.sqrt((k + 0.5) / (samples - 2))
    theta = 2.0 * np.pi * ((k * golden) % 1.0)
    return np.concatenate(([0.0 + 0.0j, 1.0 + 0.0j], r * np.exp(1j * theta)))


def multiset_distance(values_a, values_b):
    """Optimal-pairing max distance between two eigenvalue multisets.

    *values_a* may be a stack of multisets, shape (..., n), compared each
    against the same *values_b*; the result then has shape (...), and a
    single multiset gives a float.

    Nearest values are paired when they are distinct (then that pairing is
    optimal); any other multiset goes to ``bottleneck_assignment``.  Either
    way the result is an exact entry of the distance matrix.
    """
    a = np.atleast_1d(np.asarray(values_a, dtype=complex))
    b = np.atleast_1d(np.asarray(values_b, dtype=complex))
    if a.shape[-1] != len(b):
        raise InvalidInputError("multisets must have equal size")
    value, _ = _bottleneck_pairing(np.abs(a[..., :, None] - b))
    if a.ndim == 1:
        return float(value)
    return value


def verify_constant_spectrum(
    curve,
    expected,
    samples: int = 100,
    radius: float = 10.0,
    tol: float = 1e-6,
) -> SpectrumCheck:
    """Sample a curve and compare every spectrum against the expected one.

    Evaluates the curve at *samples* points with |lam| <= radius (always
    including 0 and 1, so at least two samples are required), measures the
    optimal-pairing eigenvalue deviation and passes iff the worst deviation
    is at most *tol*.  The curve is called once, with the 1-D array of
    sample points, and must return the stack of its values, one (n, n)
    matrix per point, as the curve classes of this module do.
    """
    if samples < 2:
        raise InvalidInputError(
            f"at least 2 samples are required (0 and 1 are always sampled), got {samples}"
        )
    exp_values = np.atleast_1d(
        np.asarray(getattr(expected, "values", expected), dtype=complex)
    )
    points = _sample_points(samples, radius)
    values = np.asarray(curve(points), dtype=complex)
    if (
        values.ndim != 3
        or values.shape[0] != samples
        or values.shape[1] != values.shape[2]
    ):
        raise InvalidInputError(
            f"expected {samples} stacked square matrices, got shape {values.shape}"
        )
    if not np.isfinite(values).all():
        raise InvalidInputError("matrix entries must be finite")
    deviations = multiset_distance(np.linalg.eigvals(values), exp_values)
    k = int(np.argmax(deviations))
    worst = float(deviations[k])
    return SpectrumCheck(
        passed=bool(worst <= tol),
        max_deviation=worst,
        samples=samples,
        radius=radius,
        tol=tol,
        worst_point=complex(points[k]),
    )
