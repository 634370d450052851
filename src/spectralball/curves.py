"""Constant-spectrum analytic curves of matrices.

Three entire closed forms witness degenerate invariant-distance behaviour:

* triangular conjugation  -- joins two matrices with equal spectra through a
  shared triangular frame, with the conjugating unitaries joined by a
  one-parameter unitary group;
* exponential conjugation -- lam -> exp(-lam Y) A exp(lam Y), the canonical
  zero-metric witness with prescribed first derivative, its conjugators
  formed from one eigendecomposition of Y (the Pade exponential
  ``expm_pair`` only for a Y too close to defective);
* matrix polynomial       -- explicit low-degree curves, including the
  quadratic 2x2 witness with constant trace and determinant.

``verify_constant_spectrum`` samples any curve, settles the samples whose
spectrum a proof puts within SPECTRUM_TOL of the expected one (an
eigenvector enclosure for the exponential conjugation, the power sums for
any other curve), and reports the worst eigenvalue-multiset deviation of
the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    InternalError,
    InvalidInputError,
    NumericError,
    PreconditionError,
    UnsupportedError,
)
from .geometry import _FramePath, _triangular_frames
from .matcore import (
    PAIRING_TOL,
    _centered,
    _cmul,
    _frobenius,
    _rank_by_svd,
    as_matrix,
    bottleneck_assignment,
    expm_pair,
    sigma_pushforward,
    solve_conjugation,
)
from .nonderog import _nonderogatory

#: Threshold below which a direction counts as nilpotent / a matrix as scalar.
STRUCTURE_TOL = 1e-8

#: Largest eigenvalue deviation at which a sampled curve passes as having
#: constant spectrum.
SPECTRUM_TOL = 1e-6

# Safety factor c of the power-sum error bound (``_power_sums``).
_POWER_SUM_SAFETY = 16.0

# Coefficient of the isotropy quadratic of the 2x2 witness below which it
# counts as zero (``_solve_quadratic_tail``, on entries scaled to at most 1).
_QUADRATIC_TOL = 1e-14


@dataclass(eq=False)
class TriangularConjugationCurve(_FramePath):
    """W(lam) ((1-lam) T0 + lam T1) W(lam)^-1, W the unitary path from the frame
    U at 0 to frame_end V at 1 (L, the log of U* V, is derived).  A scalar
    parameter gives one (n, n) matrix; a 1-D array of m parameters gives the
    (m, n, n) stack.
    """

    t0: np.ndarray
    t1: np.ndarray
    kind = "triangular_conjugation"

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=complex)[..., None, None]
        return self._similarity(lam, ((1.0 - lam, self.t0), (lam, self.t1)))

    def residuals(self, a, b) -> dict:
        """``endpoint_base`` ||c(0) - A||_F and ``endpoint_target`` ||c(1) - B||_F."""
        return {
            "endpoint_base": float(np.linalg.norm(self(0.0) - a)),
            "endpoint_target": float(np.linalg.norm(self(1.0) - b)),
        }


class _FirstOrderWitness:
    """A curve built to have value A and derivative B at 0."""

    def residuals(self, a, b) -> dict:
        """``endpoint_base`` ||c(0) - A||_F and ``derivative`` ||c'(0) - B||_F."""
        return {
            "endpoint_base": float(np.linalg.norm(self(0.0) - a)),
            "derivative": float(np.linalg.norm(self.derivative_at_zero() - b)),
        }


def _eigenbasis(generator):
    """(nu, S, S^-1) with Y = S diag(nu) S^-1, from one eig of the generator,
    or None when the eig or the inverse fails or S is too ill-conditioned
    for exp(lam Y) = S diag(e^(lam nu)) S^-1.

    That route (Moler and Van Loan, SIAM Rev. 45, 2003, method 14) errs by
    about kappa(S) u relative to the exponential, u = eps / 2 the unit
    roundoff.  The bound kappa(S) <= 1 / sqrt(eps), about 6.7e7, keeps that
    below sqrt(eps) / 2, about 7.5e-9: half the digits, and two decades
    under SPECTRUM_TOL on values of norm 1.  A defective or nearly defective
    Y exceeds it (a nilpotent 2 x 2 reads kappa(S) about 2e291) and gets
    ``expm_pair``.  eig gives S unit columns, so kappa(S) is at most
    kappa_F(S) = sqrt(n) ||S^-1||_F, here taken overflow-safe.
    """
    n = generator.shape[0]
    try:
        nu, s = np.linalg.eig(generator)
        s_inv = np.linalg.inv(s)
    except np.linalg.LinAlgError:
        return None
    if not np.sqrt(n) * _frobenius(s_inv) <= np.finfo(float).eps ** -0.5:
        return None
    return nu, s, s_inv


@dataclass(eq=False)
class ExpConjugationCurve(_FirstOrderWitness):
    """exp(-lam Y) A exp(lam Y); spectrum is constant identically.

    A scalar parameter gives one (n, n) matrix; a 1-D array of m parameters
    gives the (m, n, n) stack of values.  The conjugators come from one eig
    Y = S diag(nu) S^-1 of the generator, taken at construction
    (``_eigenbasis``); a generator whose S is too ill-conditioned for that
    route, such as a nilpotent one, gets ``expm_pair``'s Pade exponential
    instead.  The value at 0 is A exactly.  Construction raises
    InvalidInputError unless A and Y are finite square matrices of one size.
    """

    base: np.ndarray
    generator: np.ndarray
    kind = "exp_conjugation"

    def __post_init__(self):
        self.base = as_matrix(self.base)
        self.generator = as_matrix(self.generator)
        if self.generator.shape != self.base.shape:
            raise InvalidInputError("matrices must have the same dimension")
        self._eigenbasis = _eigenbasis(self.generator)
        self._base_eig = None

    def __call__(self, lam):
        return self._with_frames(lam)[0]

    def _with_frames(self, lam):
        """(values, w, w_inv) at lam: the curve's values and the conjugators
        w = exp(lam Y) and w_inv = exp(-lam Y) they are formed with."""
        lam = np.asarray(lam, dtype=complex)
        if self._eigenbasis is None:
            w, w_inv = expm_pair(lam[..., None, None] * self.generator)
            return w_inv @ self.base @ w, w, w_inv
        nu, s, s_inv = self._eigenbasis
        n = len(nu)
        shape = lam.shape + (n, n)
        x = lam[..., None, None] * nu
        # (S e^(lam nu)) S^-1 and w^-1 A: each one (m n, n) by (n, n) product
        # over the whole stack
        w = ((s * np.exp(x)).reshape(-1, n) @ s_inv).reshape(shape)
        w_inv = ((s * np.exp(-x)).reshape(-1, n) @ s_inv).reshape(shape)
        zero = lam == 0
        # exp(0) = I: keep the value at 0 exactly A
        w[zero] = w_inv[zero] = np.eye(n)
        return (w_inv.reshape(-1, n) @ self.base).reshape(shape) @ w, w, w_inv

    def _base_eigenpairs(self):
        """(mu, V) with A V = V diag(mu): from one eig of the base on first
        use, unless ``zero_metric_curve`` gave the ones its base was proved
        non-derogatory with."""
        if self._base_eig is None:
            self._base_eig = np.linalg.eig(self.base)
        return self._base_eig

    def derivative_at_zero(self) -> np.ndarray:
        """A Y - Y A, the derivative of the curve at lam = 0."""
        return self.base @ self.generator - self.generator @ self.base


@dataclass(eq=False)
class MatrixPolynomialCurve(_FirstOrderWitness):
    """sum_k lam^k C_k for a list of coefficient matrices.

    A scalar parameter gives one (n, n) matrix; a 1-D array of m parameters
    gives the (m, n, n) stack of values.
    """

    coefficients: list
    kind = "matrix_polynomial"

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=complex)[..., None, None]
        out = np.zeros_like(self.coefficients[0])
        power = np.ones_like(lam)
        for c in self.coefficients:
            out = out + power * c
            power = _cmul(power, lam)
        return out

    def derivative_at_zero(self) -> np.ndarray:
        """C_1, the derivative of the curve at lam = 0."""
        c = self.coefficients
        return c[1] if len(c) > 1 else np.zeros_like(c[0])

    def max_nonconstant_variation(self) -> float:
        """Largest nonconstant coefficient of the trace and determinant of a 2x2
        curve (``spectrum_polynomials_2x2``); 0 when its spectrum is constant."""
        trace, det = spectrum_polynomials_2x2(self)
        return float(max(np.abs(trace[1:]).max(initial=0.0), np.abs(det[1:]).max(initial=0.0)))


def iso_spectral_curve(a, b) -> TriangularConjugationCurve:
    """Entire curve through A (at 0) and B (at 1) with constant spectrum.

    Requires the two spectra to agree as multisets, under the optimal
    pairing, within PAIRING_TOL * (1 + r(A)), and both matrices to lie in
    the spectral ball.  Both matrices are triangularized with the same
    diagonal order; the triangular parts are joined affinely and the
    unitaries u, v through u exp(lam L), L the principal logarithm of u* v.
    t1 takes t0's diagonal, which keeps the spectrum fixed, so c(1) is B only
    up to the pairing gap, above ENDPOINT_TOL on some defective pairs.
    """

    def pairing(sp_a, sp_b):
        gap, perm = bottleneck_assignment(np.abs(sp_a.values[:, None] - sp_b.values))
        if gap > PAIRING_TOL * (1.0 + sp_a.radius):
            raise PreconditionError(f"spectra differ as multisets (gap {gap:.3e})")
        return perm

    t0, t1, u, v = _triangular_frames(a, b, pairing)
    # shared diagonal: the affine interpolation then fixes the spectrum
    np.fill_diagonal(t1, np.diag(t0))
    return TriangularConjugationCurve(frame=u, frame_end=v, t0=t0, t1=t1)


def _centered_base(A, B):
    """(tau, c, M), A = tau I + c M centered and normalized at STRUCTURE_TOL,
    or None when the base A is scalar.  Raises UnsupportedError when the
    tests below rule out a witness with value A and derivative B.

    Both tests are scale-free: they read M and B / max |B|.  A scalar base
    needs a nilpotent direction, ||B^n|| <= STRUCTURE_TOL ||B||^n; then the
    affine curve A + lam B already has constant spectrum.  Any other base
    needs the symmetrized differential of B to vanish, every coordinate at
    most STRUCTURE_TOL.  The differential at A is the one at M composed
    with an invertible triangular map, so the two vanish together.
    """
    tau, c, M = _centered(A, STRUCTURE_TOL)
    scale = float(np.abs(B).max())
    b = B / scale if scale else B
    if c == 0.0:
        n = A.shape[0]
        power = np.linalg.norm(np.linalg.matrix_power(b, n))
        if power > STRUCTURE_TOL * np.linalg.norm(b) ** n:
            raise UnsupportedError("scalar base point requires a nilpotent direction")
        return None
    if np.abs(sigma_pushforward(M, b)).max() > STRUCTURE_TOL:
        raise UnsupportedError("symmetrized differential of the direction does not vanish")
    return tau, c, M


def zero_metric_curve(a, b):
    """Entire curve with value A and derivative B at 0, constant spectrum.

    Two supported regimes: a scalar base with a nilpotent direction gives
    the affine curve A + lam B; a non-derogatory base with vanishing
    symmetrized differential gives the exponential conjugation along the
    solution of the commutation equation.  Anything else is unsupported.

    Whether the base is non-derogatory is decided by one eigensolve of its
    centered, normalized M when the eigenpairs prove that the commutant has
    dimension n, and by ``classify`` otherwise.  A base that is not scalar
    at STRUCTURE_TOL is not scalar at the smaller DEFAULT_TOL either, and
    ``_centered`` then gives the same M at both, so the M of the structure
    tests is the one the decision reads.  The curve keeps that eig of M,
    with A's eigenvalues tau + c mu, for its verifier's enclosure.
    """
    A = as_matrix(a)
    B = as_matrix(b)
    if B.shape != A.shape:
        raise InvalidInputError("matrices must have the same dimension")
    centered = _centered_base(A, B)
    if centered is None:
        return MatrixPolynomialCurve([A, B])
    tau, c, M = centered
    mu, vectors = np.linalg.eig(M)
    if not _nonderogatory(A, M, mu, vectors):
        raise UnsupportedError(
            "base point is derogatory and not scalar; no witness is constructed"
        )
    curve = ExpConjugationCurve(base=A, generator=solve_conjugation(A, B))
    curve._base_eig = (tau + c * mu, vectors)
    return curve


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
    det = np.convolve(entry[(0, 0)], entry[(1, 1)]) - np.convolve(
        entry[(0, 1)], entry[(1, 0)]
    )
    return trace, det


def _solve_quadratic_tail(a0, b):
    """Trace-zero psi with tr(A0 psi) = det B, tr(B psi) = 0, det psi = 0.

    psi is parametrized as [[u, v], [w, -u]]; the two linear constraints cut
    an affine subspace on which the isotropy condition u^2 + v w = 0 is
    rooted directly, on A0 / s and B / s for s the power of two at the
    largest entry (an exact rescaling: every threshold below is scale-free).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]):
            raise NumericError("det B overflows")
    scale = np.ldexp(1.0, np.frexp(max(np.abs(a0).max(), np.abs(b).max()))[1])
    a0, b = a0 / scale, b / scale
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
    null = vh[_rank_by_svd(s)[0] :].conj()

    def quad(x):
        return x[0] * x[0] + x[1] * x[2]

    def bilin(x, y):
        return 2.0 * x[0] * y[0] + x[1] * y[2] + x[2] * y[1]

    candidates = []
    for direction in null:
        a_coef = quad(direction)
        b_coef = bilin(xp, direction)
        c_coef = quad(xp)
        if abs(a_coef) > _QUADRATIC_TOL:
            roots = np.roots([a_coef, b_coef, c_coef])
            candidates.extend(xp + r * direction for r in roots)
        elif abs(b_coef) > _QUADRATIC_TOL:
            candidates.append(xp + (-c_coef / b_coef) * direction)
        elif abs(c_coef) <= _QUADRATIC_TOL:
            candidates.append(xp)
    if not candidates:
        raise InternalError("no isotropic point on the constraint set")
    best = min(candidates, key=lambda x: abs(quad(x)) + 0.0)
    u, v, w = best
    return scale * np.array([[u, v], [w, -u]])


def quadratic_witness_2x2(a, b) -> MatrixPolynomialCurve:
    """Degree-at-most-2 polynomial curve p with p(0)=A, p'(0)=B and
    constant spectrum, for 2x2 matrices.

    A scalar base with nilpotent direction yields the affine curve.  Any
    other 2x2 base is non-derogatory (a 2x2 matrix is derogatory only when
    it is scalar); when the symmetrized differential of the direction
    vanishes, the second-order coefficient solves the constancy constraints
    on trace and determinant directly.  Divided by s, the largest entry of
    its coefficients, the returned curve always has all nonconstant trace
    and determinant coefficients at most 1e-10.
    """
    A = as_matrix(a)
    B = as_matrix(b)
    if A.shape != (2, 2) or B.shape != (2, 2):
        raise InvalidInputError("operation is defined for 2x2 matrices")
    if _centered_base(A, B) is None:
        return MatrixPolynomialCurve([A, B])
    psi = _solve_quadratic_tail(A - (np.trace(A) / 2.0) * np.eye(2), B)
    s = max(np.abs(A).max(), np.abs(B).max(), np.abs(psi).max())
    variation = MatrixPolynomialCurve([A / s, B / s, psi / s]).max_nonconstant_variation()
    if variation > 1e-10:
        raise InternalError(f"quadratic witness varies its spectrum ({variation:.3e} relative)")
    return MatrixPolynomialCurve([A, B, psi])


@dataclass(eq=False)
class SpectrumCheck:
    """Outcome of sampling a curve against an expected spectrum, passed at ``tol``.

    ``settled`` of the ``samples`` were proved to lie within ``tol``, by an
    eigenvector enclosure for an ``ExpConjugationCurve``
    (``_enclosure_ratio``) and by their power sums for any other curve
    (``_settle_ratio``); ``max_deviation`` and ``worst_point`` are the worst
    eigenvalue deviation over the others, or, when all are settled, the
    deviation of the one nearest to its bound.
    """

    passed: bool = field(init=False)
    max_deviation: float
    samples: int
    settled: int
    radius: float
    worst_point: complex
    tol = SPECTRUM_TOL

    def __post_init__(self):
        self.passed = bool(self.max_deviation <= self.tol)


@lru_cache(maxsize=64)
def _sample_points(samples, radius):
    """Deterministic low-discrepancy sampling of the disk |lam| <= radius.

    Returns 0, 1 and samples - 2 further points, as one read-only array per
    (samples, radius); *samples* is at least 2.
    """
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    k = np.arange(samples - 2)
    r = radius * np.sqrt((k + 0.5) / (samples - 2))
    theta = 2.0 * np.pi * ((k * golden) % 1.0)
    points = np.concatenate(([0.0 + 0.0j, 1.0 + 0.0j], r * np.exp(1j * theta)))
    points.flags.writeable = False
    return points


def multiset_distance(values_a, values_b):
    """Optimal-pairing max distance between two eigenvalue multisets.

    *values_a* may be a stack of multisets, shape (..., n), compared each
    against the same *values_b*; the result then has shape (...), and a
    single multiset gives a float.

    The pairing is ``bottleneck_assignment``'s, so the result is an exact
    entry of the distance matrix; empty multisets are at distance 0.
    """
    a = np.atleast_1d(np.asarray(values_a, dtype=complex))
    b = np.atleast_1d(np.asarray(values_b, dtype=complex))
    if a.shape[-1] != len(b):
        raise InvalidInputError("multisets must have equal size")
    # a leading axis makes even one multiset a stack, which may be empty
    value, _ = bottleneck_assignment(np.abs(a[None, ..., :, None] - b))
    return float(value[0]) if a.ndim == 1 else value[0]


def _power_sums(values, expected):
    """(delta, tau), each of shape (m, n), for the (m, n, n) stack of values.

    For each value X, delta_k = |p_k(X) - p_k(expected)| compares the power
    sums p_k = tr X^k, k = 1..n, which fix the spectrum (Newton's
    identities), and tau_k bounds, to first order in u, what rounding and
    the backward error c n u ||X|| of a stable eigensolver change p_k by:

        tau_k = c n u (||X|| (sum_{j=2..k} ||X^(j-1)|| ||X^(k-j)||
                              + k ||X^(k-1)||) + sqrt(n) ||X^k|| + k r^k),

    Frobenius norms, u the unit roundoff, r = max |expected| and c the
    safety factor.  The terms bound the rounding of the products
    P_k = P_(k-1) X, the eigensolver's perturbation F (|tr((X+F)^k - X^k)|
    <= k ||X^(k-1)|| ||F|| to first order), the trace and the expected p_k.
    A power that overflows gives inf or nan, silently.
    """
    m, n, _ = values.shape
    # X = A + iB acts on the row block [Re P, Im P] as the real matrix
    # [[A, B], [-B, A]], whose top row block is X's own: one real product
    # per power, about twice as fast as numpy's stacked complex product
    step = np.empty((m, 2 * n, 2 * n))
    step[:, :n, :n] = step[:, n:, n:] = values.real
    step[:, :n, n:] = values.imag
    step[:, n:, :n] = -values.imag
    block = step[:, :n]
    sums = np.empty((m, n), dtype=complex)
    norms = np.empty((m, n + 1))
    norms[:, 0] = np.sqrt(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n + 1):
            if k > 1:
                block = block @ step
            sums.real[:, k - 1] = np.trace(block, axis1=1, axis2=2)
            sums.imag[:, k - 1] = np.trace(block, offset=n, axis1=1, axis2=2)
            norms[:, k] = np.sqrt(np.einsum("mij,mij->m", block, block))
        order = np.arange(1, n + 1)
        products = order * norms[:, :-1]
        for k in range(2, n + 1):
            products[:, k - 1] += (norms[:, 1:k] * norms[:, k - 2 :: -1]).sum(axis=1)
        r = np.abs(expected).max(initial=0.0)
        tau = (_POWER_SUM_SAFETY * n * np.finfo(float).eps / 2.0) * (
            norms[:, 1:2] * products + np.sqrt(n) * norms[:, 1:] + order * r**order
        )
        delta = np.abs(sums - np.vander(expected, n + 1, increasing=True)[:, 1:].sum(axis=0))
    return delta, tau


def _settle_ratio(values, expected):
    """For each of the (m, n, n) values, a ratio below 1 proves that every
    matrix within a stable eigensolver's backward error of it has its
    spectrum within SPECTRUM_TOL of *expected*; inf where nothing is proved.

    With e_k the elementary symmetric functions, Newton's identities
    k e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) p_i turn the power-sum bounds
    eps_k = delta_k + tau_k >= |p_k(X) - p_k(expected)| (``_power_sums``)
    into bounds d_k on |e_k(X) - e_k(expected)|, linear in eps as long as
    every eps_k <= P_k = sum |expected|^k (then |p_k(X)| <= 2 P_k).  The
    characteristic polynomials of X and of *expected* then differ by at most
    H_i = sum_k d_k (|lam_i| + rho)^(n-k) on the circle |z - lam_i| = rho,
    rho = SPECTRUM_TOL, where the expected one is at least
    L_i = rho prod_(j != i) (|lam_i - lam_j| - rho).  Where every
    H_i < L_i and the circles are disjoint, Rouche's theorem puts one
    eigenvalue of X in each disc.  The ratio is the largest H_i / L_i.  An
    expected spectrum with two values within 2 rho (repeated or clustered)
    settles nothing, since its discs overlap.
    """
    m, n, _ = values.shape
    rho = SPECTRUM_TOL
    gaps = np.abs(expected[:, None] - expected)
    np.fill_diagonal(gaps, np.inf)
    if gaps.min(initial=np.inf) <= 2.0 * rho:
        return np.full(m, np.inf)
    radii = np.abs(expected)
    order = np.arange(1, n + 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sums_bound = (radii ** order[:, None]).sum(axis=1)
        # e_k(|expected|) >= |e_k(expected)|
        coeffs_bound = np.poly(-radii).real
        # row k: d_k = gain[k] @ eps, from
        # k d_k <= sum_(i<k) 2 P_(k-i) d_i + sum_(i<=k) e_(k-i) eps_i
        gain = np.zeros((n + 1, n))
        for k in order:
            gain[k, :k] = coeffs_bound[k - 1 :: -1]
            if k > 1:
                gain[k] += 2.0 * sums_bound[k - 2 :: -1] @ gain[1:k]
            gain[k] /= k
        floor = rho * np.prod(gaps - rho, axis=1, where=np.isfinite(gaps))
        reach = gain[1:].T @ (radii + rho) ** (n - order[:, None]) / floor
    # an expected spectrum too large for these bounds proves nothing
    if not (np.isfinite(sums_bound).all() and np.isfinite(reach).all() and floor.all()):
        return np.full(m, np.inf)
    delta, tau = _power_sums(values, expected)
    with np.errstate(over="ignore", invalid="ignore"):
        errors = delta + tau
        ratio = (errors @ reach).max(axis=1)
        # a nan or inf power proves nothing
        proved = (errors <= sums_bound).all(axis=1) & (ratio < 1.0)
    return np.where(proved, ratio, np.inf)


def _enclosure_ratio(eigenpairs, values, w, w_inv, expected):
    """For each of the (m, n, n) values X = w^-1 A w of an exponential
    conjugation, a ratio below 1 proves what ``_settle_ratio`` does: every
    matrix X + E with ||E|| <= beta = c n u ||X||, a stable eigensolver's
    backward error, has its spectrum within SPECTRUM_TOL of *expected*; inf
    where nothing is proved.

    The eigenpairs A V = V diag(mu) of the base give Z = w^-1 V and
    P = V^-1 w, approximate eigenvectors of X and their inverse.  With D the expected
    values paired to mu by ``bottleneck_assignment`` and g >= ||I - P Z||
    below 1, Z is invertible with ||Z^-1|| <= ||P|| / (1 - g), and
    Z^-1 (X + E) Z = D + Delta, Delta = Z^-1 (R + E Z) for the residual
    R = X Z - Z D, so

        ||Delta|| <= r = ||P|| (||R|| + ||Z|| beta) / (1 - g).

    (This is the bound through M = P X Z without forming M: with
    G = I - P Z, (I - G)^-1 (M - D + G D) = (I - G)^-1 P R.)  By Bauer and
    Fike (Numer. Math. 2, 1960) every eigenvalue of D + t Delta,
    0 <= t <= 1, lies within r of an expected value, so while 2 r is below
    their least gap each disc keeps the one eigenvalue it holds at t = 0.
    The ratio is r / min(SPECTRUM_TOL, gap / 2).  Frobenius norms bound the
    2-norms; the computed P Z and R are within c n u ||P|| ||Z|| and
    c n u (||X|| + max |expected|) ||Z|| of the exact ones, u the unit
    roundoff and c the power sums' safety factor.  A nan or inf settles
    nothing, silently.
    """
    m, n, _ = values.shape
    if len(expected) != n or not np.isfinite(expected).all():
        return np.full(m, np.inf)
    mu, vectors = eigenpairs
    try:
        vectors_inv = np.linalg.inv(vectors)
    except np.linalg.LinAlgError:
        return np.full(m, np.inf)
    _, perm = bottleneck_assignment(np.abs(mu[:, None] - expected))
    paired = expected[perm]
    gaps = np.abs(expected[:, None] - expected)
    np.fill_diagonal(gaps, np.inf)
    reach = min(SPECTRUM_TOL, gaps.min(initial=np.inf) / 2.0)
    cnu = _POWER_SUM_SAFETY * n * np.finfo(float).eps / 2.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # one GEMM each: the stacks against a single matrix, side by side
        z = (w_inv.reshape(m * n, n) @ vectors).reshape(m, n, n)
        p = (vectors_inv @ w.transpose(1, 0, 2).reshape(n, m * n)).reshape(n, m, n)
        p = p.transpose(1, 0, 2)
        gram = p @ z
        gram.reshape(m, n * n)[:, :: n + 1] -= 1.0
        residual = values @ z - z * paired
        # the Frobenius norms of all five stacks from one real product
        flat = np.stack([p, z, values, gram, residual]).view(float).reshape(5, m, -1)
        norm_p, norm_z, norm_x, norm_g, norm_r = np.sqrt(np.einsum("kmi,kmi->km", flat, flat))
        g = norm_g + cnu * norm_p * norm_z
        # ||R|| plus its rounding, plus ||Z|| beta
        slack = norm_r + cnu * (2.0 * norm_x + np.abs(paired).max()) * norm_z
        ratio = norm_p * slack / (1.0 - g) / reach
    return np.where((g < 1.0) & (ratio < 1.0), ratio, np.inf)


def _settled_values(curve, points, expected):
    """(values, ratio): the curve's (m, n, n) values at the m points, from
    one call, and each one's settle ratio.  A curve with ``_with_frames``
    gets ``_enclosure_ratio``; any other, ``_settle_ratio``."""
    with_frames = getattr(curve, "_with_frames", None)
    if with_frames is None:
        values, frames = curve(points), None
    else:
        values, *frames = with_frames(points)
    values = np.asarray(values, dtype=complex)
    if (
        values.ndim != 3
        or values.shape[0] != len(points)
        or values.shape[1] != values.shape[2]
    ):
        raise InvalidInputError(
            f"expected {len(points)} stacked square matrices, got shape {values.shape}"
        )
    if not np.isfinite(values).all():
        raise InvalidInputError("matrix entries must be finite")
    if frames is None:
        return values, _settle_ratio(values, expected)
    return values, _enclosure_ratio(curve._base_eigenpairs(), values, *frames, expected)


def verify_constant_spectrum(
    curve,
    expected,
    samples: int = 100,
    radius: float = 10.0,
) -> SpectrumCheck:
    """Sample a curve and compare every spectrum against the expected one.

    Evaluates the curve at *samples* >= 2 points with |lam| <= radius, a
    finite radius >= 0 (0 and 1 are always sampled).  A sample is settled
    when a proof puts its spectrum, and that of every matrix within a
    stable eigensolver's backward error of it, within SPECTRUM_TOL of the
    expected one.  An ``ExpConjugationCurve`` is evaluated once through its
    conjugators, and its samples are settled by an eigenvector enclosure
    from the eigenpairs of the base (``_enclosure_ratio``); any other curve by its
    power sums (``_settle_ratio``), where an expected spectrum with
    repeated or clustered values settles nothing.  Every other sample gets
    the optimal-pairing eigenvalue deviation, or, when every sample is
    settled, the one nearest to its bound does; the check passes iff the
    worst deviation is at most SPECTRUM_TOL.  Any other curve is called
    once, with the 1-D array of sample points, and must return the stack of
    its values, one (n, n) matrix per point, as the curve classes of this
    module do.
    """
    if samples < 2:
        raise InvalidInputError(
            f"at least 2 samples are required (0 and 1 are always sampled), got {samples}"
        )
    if not 0.0 <= radius < np.inf:
        raise InvalidInputError(f"radius must be finite and nonnegative, got {radius}")
    exp_values = np.atleast_1d(
        np.asarray(getattr(expected, "values", expected), dtype=complex)
    )
    points = _sample_points(samples, float(radius))
    values, ratio = _settled_values(curve, points, exp_values)
    settled = ratio < 1.0
    if settled.all():
        measured = [int(np.argmax(ratio))]
    else:
        measured = np.flatnonzero(~settled)
    deviations = multiset_distance(np.linalg.eigvals(values[measured]), exp_values)
    i = int(np.argmax(deviations))
    return SpectrumCheck(
        max_deviation=float(deviations[i]),
        samples=samples,
        settled=int(settled.sum()),
        radius=radius,
        worst_point=complex(points[measured[i]]),
    )
