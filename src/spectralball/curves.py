"""Constant-spectrum analytic curves of matrices.

Three entire closed forms witness degenerate invariant-distance behaviour:

* triangular conjugation  -- joins two matrices with equal spectra on the
  frame path of the analytic discs (``geometry._FramePath``);
* exponential conjugation -- lam -> exp(-lam Y) A exp(lam Y), the canonical
  zero-metric witness with prescribed first derivative, its conjugators
  formed from one eigendecomposition of Y (the Pade exponential
  ``expm_pair`` only for a Y too close to defective);
* matrix polynomial       -- explicit low-degree curves, including the
  quadratic 2x2 witness with constant trace and determinant.

Each curve maps a scalar parameter to one (n, n) matrix and a 1-D array of
m parameters to the (m, n, n) stack of its values.  ``verify_constant_spectrum``
samples any curve, settles the samples whose spectrum a proof puts within
SPECTRUM_TOL of the expected one, and reports the worst eigenvalue-multiset
deviation of the others.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, field
from functools import lru_cache, partial

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
    _as_stack,
    _centered,
    _cmul,
    _complex_array,
    _frobenius,
    _rank_by_svd,
    _scaled_down,
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

# c u in the rounding terms of ``_enclosure_ratio``: the safety factor c = 16
# times the unit roundoff u = eps / 2.
_ROUNDING = 8.0 * np.finfo(float).eps

# Coefficient of the isotropy quadratic of the 2x2 witness below which it
# counts as zero (``_solve_quadratic_tail``, on entries scaled to at most 1).
_QUADRATIC_TOL = 1e-14


@dataclass(eq=False)
class TriangularConjugationCurve(_FramePath):
    """W(lam) ((1-lam) T0 + lam T1) W(lam)^-1, W the unitary path from the frame
    U at 0 to frame_end V at 1 (``geometry._FramePath``)."""

    kind = "triangular_conjugation"
    scale = 1.0  # the parameter of frame_end

    def __call__(self, lam):
        lam = _complex_array(lam)[..., None, None]
        return self._similarity(lam, ((1.0 - lam, self.t0), (lam, self.t1)))

    def _values_and_eigenvectors(self, points):
        """The values at the 1-D points and a callable for their (Z, P, mu)."""
        return self(points), partial(self._eigenvectors, points)

    @np.errstate(over="ignore", invalid="ignore")  # a nan or inf settles nothing
    def _eigenvectors(self, points):
        """(Z, P, mu) at the 1-D points: Z = W V and P = U W^-1 for
        W = p diag(e^(i lam theta)) q* and the eigenvectors T V = V diag(mu),
        U = V^-1, of the triangular path, mu = diag t0; one product by the
        powers of lam for both, and one by p or p* for each."""
        m, n = len(points), len(self.t0)
        right = _triangular_eigenvectors(self.t0, self.t1)
        left = _triangular_eigenvectors(self.t0[::-1, ::-1].T, self.t1[::-1, ::-1].T)
        # q* V(lam) and U(lam) q: one row of n^2 coefficients per power
        vectors = [self._q.conj().T @ right, left[:, ::-1, ::-1].swapaxes(1, 2) @ self._q]
        z, p = np.vander(points, n, increasing=True) @ np.stack(vectors).reshape(2, n, -1)
        # e^(i lam theta) = e^(-Im(lam) theta) e^(i Re(lam) theta): numpy's
        # real exp, cos and sin are vectorized, its complex exp is not
        turn = points.real[:, None] * self._theta
        rotation = np.cos(turn) + 1j * np.sin(turn)
        exponent = points.imag[:, None] * self._theta
        z = z.reshape(m, n, n) * (rotation * np.exp(-exponent))[:, :, None]
        p = p.reshape(m, n, n) * (rotation.conj() * np.exp(exponent))[:, None, :]
        z = (self._p @ z.swapaxes(0, 1).reshape(n, m * n)).reshape(n, m, n).swapaxes(0, 1)
        return z, (p.reshape(m * n, n) @ self._p.conj().T).reshape(m, n, n), np.diag(self.t0)


def _triangular_eigenvectors(t0, t1):
    """(n, n, n) coefficients C_k of V(lam) = sum_k lam^k C_k, unit upper
    triangular with T V = V diag(t0) for T = triu(t0) + lam triu(t1 - t0, 1).

    Back-substitution, one row for all columns and powers at once:
    (t0_jj - t0_ii) v_ij = sum_(k>i) T_ik v_kj, a polynomial of degree j - i.
    On J t^T J, J the reversal, it gives V^-1 reversed and transposed.  A
    repeated diagonal value divides by zero: that settles nothing.
    """
    n, diag, slope = len(t0), np.diag(t0), t1 - t0  # read above the diagonal
    c = np.zeros((n, n, n), dtype=complex)
    c[0] = np.eye(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(n - 2, -1, -1):
            rhs = t0[i, i + 1 :] @ c[:, i + 1 :, i + 1 :]
            rhs[1:] += slope[i, i + 1 :] @ c[:-1, i + 1 :, i + 1 :]
            c[:, i, i + 1 :] = rhs / (diag[i + 1 :] - diag[i])
    return c


class _FirstOrderWitness:
    """A curve built to have value A and derivative B at 0, whose values raise
    NumericError, naming the least |lam| concerned, where they overflow."""

    @staticmethod
    def _finite(values, lam):
        bad = ~np.isfinite(values).all(axis=(-2, -1))
        if bad.any():
            raise NumericError(f"curve values overflow at |lam| = {np.abs(lam[bad]).min():.6g}")
        return values

    def residuals(self, a, b) -> dict:
        """``endpoint_base`` ||c(0) - A||_F and ``derivative`` ||c'(0) - B||_F."""
        return {
            "endpoint_base": _frobenius(self(0.0) - a),
            "derivative": _frobenius(self.derivative_at_zero() - b),
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

    The conjugators come from one eig Y = S diag(nu) S^-1 of the generator,
    taken at construction (``_eigenbasis``); a generator whose S is too
    ill-conditioned for that route, such as a nilpotent one, gets
    ``expm_pair``'s Pade exponential instead.  The value at 0 is A exactly.
    Construction raises InvalidInputError unless A and Y are finite square
    matrices of one size.
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

    @np.errstate(over="ignore", invalid="ignore")  # an overflow raises below
    def _with_frames(self, lam):
        """(values, w, w_inv) at lam: the curve's values and the conjugators
        w = exp(lam Y) and w_inv = exp(-lam Y) they are formed with."""
        lam = _complex_array(lam)
        if self._eigenbasis is None:
            w, w_inv = expm_pair(lam[..., None, None] * self.generator)
            values = w_inv @ self.base @ w
        else:
            nu, s, s_inv = self._eigenbasis
            n = len(nu)
            shape = lam.shape + (n, n)
            x = lam[..., None, None] * nu
            # (S e^(lam nu)) S^-1 and w^-1 A: each one (m n, n) by (n, n)
            # product over the whole stack
            w = ((s * np.exp(x)).reshape(-1, n) @ s_inv).reshape(shape)
            w_inv = ((s * np.exp(-x)).reshape(-1, n) @ s_inv).reshape(shape)
            zero = lam == 0
            # exp(0) = I: keep the value at 0 exactly A
            w[zero] = w_inv[zero] = np.eye(n)
            values = (w_inv.reshape(-1, n) @ self.base).reshape(shape) @ w
        return self._finite(values, lam), w, w_inv

    def _base_eigenpairs(self):
        """(mu, V) with A V = V diag(mu): from one eig of the base on first
        use, unless ``zero_metric_curve`` gave the ones its base was proved
        non-derogatory with."""
        if self._base_eig is None:
            self._base_eig = np.linalg.eig(self.base)
        return self._base_eig

    def _values_and_eigenvectors(self, points):
        """The values at the 1-D points and a callable for their (Z, P, mu)."""
        values, w, w_inv = self._with_frames(points)
        return values, partial(self._eigenvectors, w, w_inv)

    def _eigenvectors(self, w, w_inv):
        """(Z, P, mu) of the values formed with the conjugators w, w_inv:
        Z = w^-1 V, P = V^-1 w for A V = V diag(mu) (``_base_eigenpairs``)."""
        m, n, _ = w.shape
        mu, vectors = self._base_eigenpairs()
        with np.errstate(over="ignore", invalid="ignore"):
            # one GEMM each: the stacks against a single matrix, side by side
            z = (w_inv.reshape(m * n, n) @ vectors).reshape(m, n, n)
            p = (_inverse(vectors) @ w.transpose(1, 0, 2).reshape(n, m * n)).reshape(n, m, n)
        return z, p.transpose(1, 0, 2), mu

    def derivative_at_zero(self) -> np.ndarray:
        """A Y - Y A, the derivative of the curve at lam = 0."""
        return self.base @ self.generator - self.generator @ self.base


@dataclass(eq=False)
class MatrixPolynomialCurve(_FirstOrderWitness):
    """sum_k lam^k C_k for a list of coefficient matrices.  Construction
    raises InvalidInputError unless the list holds at least one matrix and
    every one is finite, square and of one size."""

    coefficients: list
    kind = "matrix_polynomial"

    def __post_init__(self):
        coefficients = [_complex_array(c) for c in self.coefficients]
        if not coefficients or len({c.shape for c in coefficients}) != 1:
            raise InvalidInputError("coefficients must be one or more matrices of one size")
        self.coefficients = list(_as_stack(np.stack(coefficients)))

    @np.errstate(over="ignore", invalid="ignore")  # an overflow raises below
    def __call__(self, lam):
        lam = _complex_array(lam)
        x = lam[..., None, None]
        out = np.zeros_like(self.coefficients[0])
        power = np.ones_like(x)
        for c in self.coefficients:
            out = out + power * c
            power = _cmul(power, x)
        return self._finite(out, lam)

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
    the spectral ball.  The curve joins their paired triangular forms, t1
    with t0's diagonal, which keeps the spectrum fixed: so c(1) is B only up
    to the pairing gap, above ENDPOINT_TOL on some defective pairs.
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
    d = _scaled_down(B)[0]  # B 2^-e, whose largest modulus is a normal number
    scale = float(np.abs(d).max())
    b = d / scale if scale else B
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

    Whether the base is non-derogatory is decided by one eig of the
    centered, normalized M of the structure tests (the same at DEFAULT_TOL)
    when its eigenpairs prove that the commutant has dimension n, and by
    ``classify`` otherwise; the curve keeps that eig, A's eigenvalues being
    tau + c mu, for its verifier.
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
    c = np.array([_complex_array(m) for m in curve.coefficients])
    if c.shape[1:] != (2, 2):
        raise InvalidInputError("only 2x2 matrix polynomials are supported")
    trace = c[:, 0, 0] + c[:, 1, 1]
    return trace, np.convolve(c[:, 0, 0], c[:, 1, 1]) - np.convolve(c[:, 0, 1], c[:, 1, 0])


def _solve_quadratic_tail(a0, b):
    """Trace-zero psi with tr(A0 psi) = det B, tr(B psi) = 0, det psi = 0.

    psi is parametrized as [[u, v], [w, -u]]; the two linear constraints cut
    an affine subspace on which the isotropy condition u^2 + v w = 0 is
    rooted directly, on A0 / s and B / s for s the power of two at the
    largest entry (an exact rescaling, taken part by part with ``ldexp``, as
    1 / s may overflow: every threshold below is scale-free).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]):
            raise NumericError("det B overflows")
    e = np.frexp(max(np.abs(a0).max(), np.abs(b).max()))[1]
    a0, b = np.ldexp(np.stack([a0, b]).view(float), -e).view(complex)
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
    return np.ldexp(np.array([[u, v], [w, -u]]).view(float), e).view(complex)


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
    # the coefficients 2^-e C_k, divided by s 2^-e, a normal number
    d = _scaled_down(np.stack([A, B, psi]))[0]
    variation = MatrixPolynomialCurve(list(d / np.abs(d).max())).max_nonconstant_variation()
    if variation > 1e-10:
        raise InternalError(f"quadratic witness varies its spectrum ({variation:.3e} relative)")
    return MatrixPolynomialCurve([A, B, psi])


@dataclass(eq=False)
class SpectrumCheck:
    """Outcome of ``verify_constant_spectrum``, passed at ``tol``: ``settled``
    of the ``samples`` were proved to lie within ``tol``, and ``max_deviation``
    and ``worst_point`` are the worst eigenvalue deviation over the others,
    or, when all are settled, that of the one nearest to its bound."""

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
    a = np.atleast_1d(_complex_array(values_a))
    b = np.atleast_1d(_complex_array(values_b))
    if a.shape[-1] != len(b):
        raise InvalidInputError("multisets must have equal size")
    # a leading axis makes even one multiset a stack, which may be empty
    value, _ = bottleneck_assignment(np.abs(a[None, ..., :, None] - b))
    return float(value[0]) if a.ndim == 1 else value[0]


def _inverse(x):
    """The inverse of each matrix of a stack, nan for an exactly singular one
    (numpy's stacked inverse fails as a whole: the stack is then split)."""
    try:
        return np.linalg.inv(x)
    except np.linalg.LinAlgError:
        if x.ndim == 2:
            return np.full_like(x, np.nan)
        return np.stack([_inverse(part) for part in x])


def _inverse_iteration(values, expected):
    """(Z, P, expected) for any (m, n, n) stack of values X: column j of Z is
    the largest column of the resolvent (X - (mu_j + beta) I)^-1, normalized,
    and P = Z^-1.  The shift beta = c n u ||X||_F, the backward error that
    ``_enclosure_ratio`` allows, keeps a pivot from vanishing by rounding
    alone; near one eigenvalue of X the resolvent is its eigenvector times a
    row vector, to within beta / gap, so one step of inverse iteration from
    every unit vector finds it.  A shifted matrix that is exactly singular
    is shifted once more; one that is so again settles nothing.
    """
    m, n, _ = values.shape
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        beta = np.repeat(n * _ROUNDING * np.linalg.norm(values, axis=(1, 2))[:, None], n, axis=1)
        # one stacked (m, n, n, n) inverse: every sample at every shift
        shifted = values[:, None] - (expected + beta)[..., None, None] * np.eye(n)
        resolvent = _inverse(shifted)
        again = np.isnan(resolvent[..., 0, 0])
        resolvent[again] = _inverse(shifted[again] - beta[again][:, None, None] * np.eye(n))
        largest = np.abs(resolvent).reshape(m, n, n * n).argmax(axis=-1) % n
        z = np.take_along_axis(resolvent, largest[..., None, None], axis=-1)[..., 0]
        z = (z / np.linalg.norm(z, axis=-1, keepdims=True)).swapaxes(-2, -1)
        return z, _inverse(z), expected


def _enclosure_ratio(values, z, p, paired, expected):
    """For each of the (m, n, n) values X, a ratio below 1 proves that every
    matrix X + E with ||E|| <= beta = c n u ||X||, a stable eigensolver's
    backward error, has its spectrum within SPECTRUM_TOL of *expected*; inf
    where nothing is proved.

    Z and P are any approximate eigenvectors of X and their inverse, column
    j of Z for entry j of *paired*, a permutation of *expected*.  With
    D = diag(paired) and g >= ||I - P Z|| below 1, Z is invertible with
    ||Z^-1|| <= ||P|| / (1 - g), and
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
    roundoff and c u = _ROUNDING.  A nan or inf settles nothing.
    """
    m, n, _ = values.shape
    gaps = np.abs(expected[:, None] - expected)
    np.fill_diagonal(gaps, np.inf)
    reach = min(SPECTRUM_TOL, gaps.min(initial=np.inf) / 2.0)
    cnu = n * _ROUNDING
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
    one call, and each one's ``_enclosure_ratio`` with the (Z, P, mu) of the
    callable of ``_values_and_eigenvectors``, or else of inverse iteration,
    called only once the values and the length of *expected* are checked."""
    split = getattr(curve, "_values_and_eigenvectors", None)
    values, eigenvectors = split(points) if split else (curve(points), None)
    values = _complex_array(values)
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
    n = values.shape[-1]
    if len(expected) != n:
        raise InvalidInputError(f"expected {len(expected)} eigenvalues of {n} x {n} samples")
    z, p, mu = eigenvectors() if eigenvectors else _inverse_iteration(values, expected)
    if mu is not expected:  # the expected values in the order of Z's columns
        mu = expected[bottleneck_assignment(np.abs(mu[:, None] - expected))[1]]
    return values, _enclosure_ratio(values, z, p, mu, expected)


def verify_constant_spectrum(
    curve,
    expected,
    samples: int = 100,
    radius: float = 10.0,
) -> SpectrumCheck:
    """Sample a curve and compare every spectrum against the expected one.

    Evaluates the curve once, at an integer number *samples* >= 2 of points
    with |lam| <= radius, a real, finite radius >= 0 (0 and 1 are always
    sampled), against *expected*, a ``Spectrum`` or a 1-D list of n finite
    values for n x n samples.  Other arguments raise InvalidInputError, a
    wrong length once the curve is evaluated and before any settle work.
    Any curve must map the 1-D array of points to the stack of its values,
    as the curve classes of this module do.  A sample is settled when an
    eigenvector enclosure (``_enclosure_ratio``) puts its spectrum, and that
    of every matrix within a stable eigensolver's backward error of it,
    within SPECTRUM_TOL of the expected one: with the conjugators and base
    eigenpairs of an ``ExpConjugationCurve``, the frames and triangular
    eigenvectors of a ``TriangularConjugationCurve``, and inverse iteration
    for any other curve.  Every other sample, or the settled one nearest to
    its bound when all are, gets the optimal-pairing eigenvalue deviation;
    the check passes iff the worst is at most SPECTRUM_TOL.
    """
    count = operator.index(samples) if hasattr(samples, "__index__") else 0
    if count < 2:
        raise InvalidInputError(f"an integer number of samples >= 2 is required, got {samples!r}")
    if not (isinstance(radius, numbers.Real) and 0.0 <= radius < np.inf):
        raise InvalidInputError(f"radius must be real, finite and nonnegative, got {radius!r}")
    exp_values = np.atleast_1d(_complex_array(getattr(expected, "values", expected)))
    if exp_values.ndim != 1 or exp_values.size == 0 or not np.isfinite(exp_values).all():
        raise InvalidInputError("expected spectrum must be a non-empty 1-D list of finite values")
    points = _sample_points(count, float(radius))
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
        samples=count,
        settled=int(settled.sum()),
        radius=float(radius),
        worst_point=complex(points[measured[i]]),
    )
