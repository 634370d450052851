"""Invariant-distance geometry of the spectral ball.

Pseudohyperbolic (Moebius) distance on the disk, exact two-point and
infinitesimal distance values at scalar base points, the permutation-minimax
pairing bound with explicit analytic-disc witnesses, the convex hull of
the spectral ball with constructive membership certificates, and a
deterministic random sample of the ball.  A disc and an iso-spectral curve
are one frame path (``_FramePath``): a triangular path between two paired
triangular forms, conjugated along the unitary path between their frames.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    InternalError,
    InvalidInputError,
    NotInHullError,
    NumericError,
    PreconditionError,
)
from .matcore import (
    Spectrum,
    _centered,
    _cmul,
    _complex_array,
    _frobenius,
    _misses_order,
    _require_unitary,
    _scaled_down,
    _unitary_eig,
    as_matrix,
    bottleneck_assignment,
    ordered_triangularize,
    spectrum,
)

#: Tolerances of the witnesses.
ENDPOINT_TOL = 1e-8  # endpoint residual of a disc or curve witness
SCALAR_BASE_TOL = 1e-12  # max |A - (tr A / n) I| / max |A| read as scalar
HULL_TOL = 1e-9  # max |diag(W* M W)| / max(1, ||M||) after zero-diagonal reduction


def mobius(z, w):
    """Pseudohyperbolic distance |(z - w) / (1 - z conj(w))| on the disk.

    Both arguments must lie in the open unit disk (NaN and infinite values
    do not); the value is symmetric, lies in [0, 1) and vanishes exactly
    for z == w.  Scalars give a float; arrays broadcast against each other
    and give an array, each entry rounded exactly as the scalar call
    rounds it.
    """
    z = _complex_array(z)
    w = _complex_array(w)
    if not ((np.abs(z) < 1.0).all() and (np.abs(w) < 1.0).all()):
        raise DomainError("arguments must lie in the open unit disk")
    q = (z - w) / (1.0 - _cmul(z, np.conj(w)))
    d = np.hypot(q.real, q.imag)
    return float(d) if d.ndim == 0 else d


def _disk_point(t) -> complex:
    """t as a complex number: InvalidInputError unless it is a number, and
    DomainError unless it is finite with |t| < 1."""
    if not isinstance(t, numbers.Number):
        raise InvalidInputError(f"t must be a number, got {t!r}")
    t = complex(t)
    if not abs(t) < 1.0:
        raise DomainError("|t| must be below 1")
    return t


def disk_automorphism(t: complex, b) -> np.ndarray:
    """Matrix Moebius shift B -> (B - tI)(I - conj(t) B)^-1 for |t| < 1."""
    t = _disk_point(t)
    B = as_matrix(b)
    n = B.shape[0]
    eye = np.eye(n)
    return (B - t * eye) @ np.linalg.inv(eye - np.conj(t) * B)


def sample_omega(n: int, count: int, seed) -> list:
    """Deterministic sample of spectral-ball matrices.

    Complex Gaussian entries, rescaled by 0.9 / r whenever the spectral
    radius reaches 0.9; every sample has spectral radius below 1.
    """
    if n < 1 or count < 1:
        raise InvalidInputError("dimension and count must be positive")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
        r = spectrum(g).radius
        if r >= 0.9:
            g = g * (0.9 / r)
        out.append(g)
    return out


def lempert_scalar_base(t: complex, b) -> float:
    """Two-point invariant distance from the scalar matrix tI to B.

    Equals the largest pseudohyperbolic distance from t to an eigenvalue
    of B; B must belong to the spectral ball.
    """
    return _lempert_at(_disk_point(t), spectrum(b))


def _lempert_at(t: complex, sp: Spectrum) -> float:
    """lempert_scalar_base at a disk point t, from the spectrum of B."""
    if not sp.in_spectral_ball():
        raise DomainError("matrix lies outside the spectral ball")
    return float(mobius(t, sp.values).max())


def kobayashi_scalar_base(t: complex, b) -> float:
    """Infinitesimal invariant metric at the scalar point tI in direction B.

    Equals r(B) / (1 - |t|^2); the direction may be any square matrix.
    """
    return _kobayashi_at(_disk_point(t), spectrum(b).radius)


def _kobayashi_at(t: complex, value: float) -> float:
    """Metric at tI of a direction X whose metric at 0 is *value*: the
    automorphism taking tI to 0 has differential X / (1 - |t|^2) there."""
    return value / (1.0 - abs(t) ** 2)


def bottleneck_minimax(spec_a, spec_b):
    """Minimum over pairings of the maximum pseudohyperbolic distance.

    Given two equal-length eigenvalue lists inside the disk, returns
    (value, permutation) with value = min over permutations pi of
    max_j mobius(a_j, b_pi(j)).  Verified against brute-force enumeration
    in the test suite.
    """
    a = np.atleast_1d(_complex_array(getattr(spec_a, "values", spec_a)))
    b = np.atleast_1d(_complex_array(getattr(spec_b, "values", spec_b)))
    if len(a) != len(b):
        raise InvalidInputError("eigenvalue lists must have equal length")
    return bottleneck_assignment(mobius(a[:, None], b))


def _mobius_shift(a, z):
    """T_a(z) = (z - a) / (1 - conj(a) z)."""
    return (z - a) / (1.0 - np.conj(a) * z)


@dataclass(eq=False)
class _FramePath:
    """The upper triangular path from t0 to t1, conjugated along the unitary
    path W(lam) = u exp(lam L) from the frame u to frame_end v, with L the
    principal logarithm q diag(i theta) q* of u* v = q diag(e^(i theta)) q*.
    Construction raises InvalidInputError unless the four matrices are
    finite, square and of one size and u and u* v are unitary, and then
    decomposes u* v once (``_unitary_eig``); L itself is never formed."""

    frame: np.ndarray
    frame_end: np.ndarray
    t0: np.ndarray
    t1: np.ndarray

    def __post_init__(self):
        mats = [as_matrix(m) for m in (self.frame, self.frame_end, self.t0, self.t1)]
        if len({m.shape for m in mats}) != 1:
            raise InvalidInputError("frames and triangles must be matrices of one size")
        self.frame, self.frame_end, self.t0, self.t1 = mats
        _require_unitary(self.frame)
        step = self.frame.conj().T @ self.frame_end
        _require_unitary(step)
        self._theta, self._q = _unitary_eig(step)
        self._p = self.frame @ self._q

    def _similarity(self, lam, terms):
        """W(lam) (sum c_k T_k) W(lam)* over the pairs (c_k, T_k) of *terms*,
        which broadcast with lam, as p ((sum c_k q* T_k q) o E) p* with p = u q
        and E_jk = exp(i lam (theta_j - theta_k))."""
        q, theta, p = self._q, self._theta, self._p
        mid = sum(c * (q.conj().T @ t @ q) for c, t in terms)
        return p @ (mid * np.exp(1j * lam * (theta[:, None] - theta))) @ p.conj().T

    def residuals(self, a, b) -> dict:
        """``endpoint_base`` ||c(0) - A||_F and ``endpoint_target`` ||c(s) - B||_F,
        s = ``scale``, the parameter of frame_end (overflow-safe norms)."""
        return {
            "endpoint_base": _frobenius(self(0.0) - a),
            "endpoint_target": _frobenius(self(self.scale) - b),
        }


@dataclass(eq=False)
class SpectralDisc(_FramePath):
    """Holomorphic matrix-valued disc through u t0 u* (at 0) and v t1 v* (at s),
    the triangular path conjugated by W(zeta / s).

    The path's entries above the diagonal are affine in zeta, and entry j of
    its diagonal is the disk automorphism h_j(zeta) = T_aj^{-1}(kappa_j zeta),
    with a = diag t0 (``base_diag``) and kappa = T_a(diag t1) / s derived at
    construction: in the closed disk while |kappa_j| < 1, and exactly the
    spectrum of the value at zeta.  Construction raises InvalidInputError
    unless the scale s is finite and positive, and DomainError, naming the
    entry, unless both diagonals lie in the open unit disk.
    """

    scale: float
    base_diag: np.ndarray = field(init=False)
    kappa: np.ndarray = field(init=False)

    def __post_init__(self):
        if not (isinstance(self.scale, numbers.Real) and 0.0 < self.scale < np.inf):
            raise InvalidInputError(f"scale must be finite and positive, got {self.scale!r}")
        super().__post_init__()
        diagonals = np.stack([np.diag(self.t0), np.diag(self.t1)])
        for k, j in np.argwhere(~(np.abs(diagonals) < 1.0))[:1]:  # the first one outside
            raise DomainError(f"t{k}[{j}, {j}] = {diagonals[k, j]:.6g} is outside the open unit disk")
        self.base_diag = np.diag(self.t0).copy()
        self.kappa = _mobius_shift(self.base_diag, np.diag(self.t1)) / self.scale
        self._slope = np.triu(self.t1 - self.t0, 1) / self.scale

    def diagonal_values(self, zeta):
        """Spectrum of the disc value at zeta (closed form).

        Accepts a scalar or an array of parameters; an array input yields
        one row of eigenvalues per parameter.
        """
        z = _complex_array(zeta)[..., None] * self.kappa
        return _mobius_shift(-self.base_diag, z)

    def triangular_part(self, zeta):
        t = np.triu(self.t0, 1) + complex(zeta) * self._slope
        np.fill_diagonal(t, self.diagonal_values(zeta))
        return t

    def __call__(self, zeta):
        zeta = complex(zeta)
        t = self.triangular_part(zeta)
        if zeta == 0.0:
            # the similarity is the identity: keep the value u t u* exact
            return self.frame @ t @ self.frame.conj().T
        return self._similarity(zeta / self.scale, ((1.0, t),))


@dataclass(eq=False)
class CertificateGrid:
    """Largest spectral radius of the disc over the closed unit disk."""

    max_spectral_radius: float


@dataclass(eq=False)
class DiscWitness:
    """Analytic disc certifying an upper bound on the two-point distance.

    Its certificate radius is exact: entry j of the diagonal is a disk
    automorphism of kappa_j zeta, so by the maximum principle its largest
    modulus on the closed disk is (|a_j| + |kappa_j|) / (1 + |a_j| |kappa_j|).
    """

    curve: SpectralDisc
    certificate_grid: CertificateGrid = field(init=False)
    matrix_at_base: np.ndarray
    matrix_at_target: np.ndarray
    tolerances = {"endpoint": ENDPOINT_TOL, "scalar_base": SCALAR_BASE_TOL}

    def __post_init__(self):
        abs_a, abs_k = np.abs(self.curve.base_diag), np.abs(self.curve.kappa)
        moduli = (abs_a + abs_k) / (1.0 + abs_a * abs_k)
        self.certificate_grid = CertificateGrid(float(moduli.max()))

    def endpoint_residuals(self):
        """The disc's ``residuals`` at A and B, as a tuple."""
        return tuple(self.curve.residuals(self.matrix_at_base, self.matrix_at_target).values())

    def scalar_base_exact(self):
        """``lempert_scalar_base(t, B)`` if A is scalar, tI, at SCALAR_BASE_TOL; else None."""
        t, c, _ = _centered(self.matrix_at_base, SCALAR_BASE_TOL)
        return lempert_scalar_base(t, self.matrix_at_target) if c == 0.0 else None


def _phase_align(v, t, u):
    """Multiply v by diagonal phases so diag(v* u) becomes real nonnegative.

    Keeps v a valid triangularizer (the diagonal of t is untouched) while
    removing the arbitrary per-column phase freedom; this shrinks the
    interpolating logarithm between the two unitaries.
    """
    d = np.diag(v.conj().T @ u).copy()
    d[d == 0.0] = 1.0  # any phase of a zero entry will do
    phases = d / np.abs(d)
    dm = np.diag(phases)
    return v @ dm, dm.conj().T @ t @ dm


def _eigenvector_schur(s, vectors, order):
    """Ordered Schur forms of a stack s from its eigenvectors.

    Column j of each slice of *vectors* is an eigenvector for order[..., j].
    With vectors = q r, q* s q = r diag(order) r^-1 is upper triangular in
    that order; it is taken when the part below the diagonal is within the
    rounding of a Householder triangularization, n^2 eps ||s||, and the
    diagonal matches *order* as ``ordered_triangularize`` requires.  Both
    norms are taken on the slice times 2^-e, 2^e just above its largest part:
    the ratio is unchanged, and no square overflows.  Else (nearly dependent
    eigenvectors, as in defective matrices) the stack goes to
    ``ordered_triangularize``.  Returns (u, t) as that function does, or
    raises NumericError when no triangular form it finds puts *order*, the
    computed spectrum, on its diagonal: eigenvalues too ill-conditioned to
    resolve within PAIRING_TOL.
    """
    n = s.shape[-1]
    q = np.linalg.qr(vectors)[0]
    t = q.conj().swapaxes(-2, -1) @ s @ q
    e = -np.frexp(np.abs(s.view(float)).max(axis=(-2, -1)))[1][..., None, None]
    below, size = (
        np.linalg.norm(np.ldexp(x.view(float), e).view(complex), axis=(-2, -1))
        for x in (np.tril(t, -1), s)
    )
    if (below <= n * n * np.finfo(float).eps * size).all() and not _misses_order(t, order).any():
        return q, np.triu(t)
    try:
        return ordered_triangularize(s, order)
    except InvalidInputError as err:
        raise NumericError(
            "no triangular frame puts the computed eigenvalues on its diagonal "
            "within PAIRING_TOL: they are too ill-conditioned to pair"
        ) from err


def _triangular_frames(a, b, pairing):
    """Paired triangular forms (t_a, t_b, u, v) of A = u t_a u*, B = v t_b v*.

    A and B must be square, of one size, and lie in the spectral ball.
    ``pairing(spectrum(A), spectrum(B))`` returns the permutation that lists
    B's eigenvalues in the diagonal order of A's, or raises.  One stacked
    ``eig`` gives both spectra and the eigenvectors, which are put in that
    order and give both triangular forms (``_eigenvector_schur``); the
    column phases of v are aligned to u.
    """
    A = as_matrix(a)
    B = as_matrix(b)
    if B.shape != A.shape:
        raise InvalidInputError("matrices must have the same dimension")
    pair = np.stack([A, B])
    values, vectors = np.linalg.eig(pair)
    sp_a, sp_b = Spectrum(values[0]), Spectrum(values[1])
    if not (sp_a.in_spectral_ball() and sp_b.in_spectral_ball()):
        raise DomainError("both matrices must lie in the spectral ball")
    perm = pairing(sp_a, sp_b)
    (u, v), (t_a, t_b) = _eigenvector_schur(
        pair,
        np.stack([vectors[0], vectors[1][:, perm]]),
        np.stack([sp_a.values, sp_b.values[perm]]),
    )
    v, t_b = _phase_align(v, t_b, u)
    return t_a, t_b, u, v


def upper_bound_disc(a, b, s1: float) -> DiscWitness:
    """Analytic disc through A (at 0) and B (at s1) inside the spectral ball.

    Requires s1 strictly between the pairing bound of the two spectra and 1.
    The ``SpectralDisc`` of scale s1 joins the paired triangular forms of A
    and B, in the bottleneck-optimal diagonal order, and stays in the ball
    on the closed unit disk: it proves the two-point distance at most s1.
    A radius that is not a real number raises InvalidInputError.
    """
    if not isinstance(s1, numbers.Real):
        raise InvalidInputError(f"radius s1 must be a real number, got {s1!r}")
    s1 = float(s1)

    def pairing(sp_a, sp_b):
        bound, perm = bottleneck_minimax(sp_a, sp_b)
        if not (bound < s1 < 1.0):
            raise PreconditionError(
                f"radius s1={s1} must lie strictly between the pairing bound "
                f"{bound:.6g} and 1"
            )
        return perm

    t_a, t_b, u, v = _triangular_frames(a, b, pairing)
    witness = DiscWitness(
        curve=SpectralDisc(u, v, t_a, t_b, s1),
        matrix_at_base=np.array(a, dtype=complex),
        matrix_at_target=np.array(b, dtype=complex),
    )
    if witness.certificate_grid.max_spectral_radius >= 1.0:
        raise InternalError("disc leaves the spectral ball")
    return witness


def hull_membership(a):
    """Gauge of the convex hull of the spectral ball.

    Returns (h, inside) with h = |tr A| / n; the hull consists exactly of
    the matrices with h < 1.
    """
    A = as_matrix(a)
    h = float(abs(np.trace(A))) / A.shape[0]
    return h, h < 1.0


@dataclass(eq=False)
class HullWitness:
    """Convex decomposition of a hull member A into two ball members.

    With tau = tr(A)/n and a unitary S making A - tau I zero-diagonal, the
    two ``terms`` are S (2 N_u + tau I) S^-1 and S (2 N_l + tau I) S^-1 where
    N_u, N_l are the strict triangular parts of S* (A - tau I) S, derived
    from A and S at construction.  Both terms have one-point spectrum
    {tau}, hence spectral radius below 1 when |tau| < 1.
    """

    matrix: np.ndarray
    similarity: np.ndarray
    terms: tuple = field(init=False)
    weights = (0.5, 0.5)
    tolerances = {"reconstruction": HULL_TOL}

    def __post_init__(self):
        A = self.matrix = np.array(as_matrix(self.matrix))
        s = self.similarity = as_matrix(self.similarity)
        if s.shape != A.shape:
            raise InvalidInputError("matrix and similarity must have the same dimension")
        n = A.shape[0]
        tau = np.trace(A) / n
        z = s.conj().T @ (A - tau * np.eye(n)) @ s
        self.terms = tuple(
            s @ (2.0 * part + tau * np.eye(n)) @ s.conj().T
            for part in (np.triu(z, 1), np.tril(z, -1))
        )

    def residuals(self) -> dict:
        """``reconstruction`` ||w_1 T_1 + w_2 T_2 - A||_F and ``triangularity``,
        how far S*(T_k - tau I)S, tau = tr(A) / n, are from strictly upper (k = 1)
        and lower (k = 2) triangular, relative to 1 + ||A||_F."""
        A = self.matrix
        (t1, t2), (w1, w2), s = self.terms, self.weights, self.similarity
        n = A.shape[0]
        tau = np.trace(A) / n
        z1, z2 = (s.conj().T @ (t - tau * np.eye(n)) @ s for t in (t1, t2))
        slack = max(_frobenius(np.tril(z1)), _frobenius(np.triu(z2)))
        return {
            "reconstruction": _frobenius(w1 * t1 + w2 * t2 - A),
            "triangularity": slack / (1.0 + _frobenius(A)),
        }


def _plane_zero_vector(p, q, b, c):
    """Unit vector x = (cos th, e^{i ph} sin th) with x* [[p,b],[c,q]] x = 0.

    Such x exists when 0 lies on the segment [p, q], which the numerical
    range of the block contains.  An offset of 0 from the line through p
    and q, left by rounding, is dropped: x then gives the nearest point of
    that line, and the caller's final check bounds what is left.
    """
    m = (p + q) / 2.0
    ap = (p - q) / 2.0
    if abs(ap) == 0.0:
        raise InternalError("degenerate block: equal diagonal entries")
    bc = b * np.conj(ap)
    cc = c * np.conj(ap)
    s_coef = bc.real - cc.real
    c_coef = bc.imag + cc.imag
    if s_coef == 0.0 and c_coef == 0.0:
        phi = 0.0
    else:
        phi = float(np.arctan2(-c_coef, s_coef))
    bval = (b * np.exp(1j * phi) + c * np.exp(-1j * phi)) / 2.0
    kappa = (bval * np.conj(ap)).real / abs(ap) ** 2
    mu = (m / ap).real
    r = float(np.hypot(1.0, kappa))
    if abs(mu) > r:
        raise InternalError("plane reduction target is out of reach")
    delta = float(np.arctan2(kappa, 1.0))
    uu = delta + float(np.arccos(np.clip(-mu / r, -1.0, 1.0)))
    theta = uu / 2.0
    return theta, phi


def _plane_target(frame, i, j, target):
    """Plane rotation G of slots (i, j) putting target on diagonal slot i.

    The frame stacks W* M W on W: rows i, j of the top block take G* and
    columns i, j of both take G.  The target must lie on the segment
    [d_i, d_j], which the numerical range of the 2x2 block contains
    (Toeplitz-Hausdorff); slot j then holds d_i + d_j - target.
    """
    p, q = frame[i, i], frame[j, j]
    theta, phi = _plane_zero_vector(p - target, q - target, frame[i, j], frame[j, i])
    c, s = np.cos(theta), np.sin(theta)
    g = np.array([[c, -np.exp(-1j * phi) * s], [np.exp(1j * phi) * s, c]])
    idx = [i, j]
    frame[idx, :] = g.conj().T @ frame[idx, :]
    frame[:, idx] = frame[:, idx] @ g


def _zero_diagonal_similarity(m):
    """Unitary W with diag(W* M W) = 0 for a trace-zero M.

    Slot a is cleared once the slots before it hold 0.  The entries
    d_a, ..., d_{n-1} then sum to 0; turned so that d_a > 0, the others
    have a negative mean, so their hull meets the axis at some x < 0, at an
    entry on the axis or where a segment joins an entry above the axis to
    one below it (Caratheodory).  One rotation puts x on a slot b, and a
    second puts 0, which lies on [x, d_a], on slot a: at most 2n - 3
    rotations in all.  An entry counts as on the axis within the rounding
    scale, and the leftmost x is taken, which keeps both targets clear of
    the ends of their segments.
    """
    n = m.shape[0]
    frame = np.vstack([m.astype(complex), np.eye(n, dtype=complex)])
    scale = 1e-13 * max(1.0, np.linalg.norm(m))
    for a in range(n - 1):
        d = frame.diagonal().tolist()
        if abs(d[a]) <= scale:
            continue
        turn = d[a].conjugate() / abs(d[a])
        e = {b: d[b] * turn for b in range(a + 1, n)}
        # (x, b, c, s): x = e_b + s (e_c - e_b) lies on the axis
        options = [(z.real, b, b, 0.0) for b, z in e.items() if abs(z.imag) <= scale]
        for b, zb in e.items():
            for c, zc in e.items():
                if zb.imag > scale and zc.imag < -scale:
                    s = zb.imag / (zb.imag - zc.imag)
                    options.append((zb.real + s * (zc.real - zb.real), b, c, s))
        x, b, c, s = min(options, default=(np.inf, a, a, 0.0))
        if not x < 0.0:
            raise InternalError("no diagonal target on the negative axis")
        if c != b:
            _plane_target(frame, b, c, d[b] + s * (d[c] - d[b]))
        _plane_target(frame, a, b, 0.0)
    if np.max(np.abs(frame.diagonal())) > HULL_TOL * max(1.0, np.linalg.norm(m)):
        raise InternalError("zero-diagonal reduction failed to converge")
    return frame[n:]


def hull_witness(a) -> HullWitness:
    """Write a hull member as the midpoint of two spectral-ball members: the
    ``HullWitness`` of A and a unitary S making A - tr(A)/n I zero-diagonal.
    A matrix outside the hull raises NotInHullError."""
    A = as_matrix(a)
    n = A.shape[0]
    h, inside = hull_membership(A)
    if not inside:
        raise NotInHullError(f"|tr A|/n = {h:.6g} is not below 1")
    m = A - np.trace(A) / n * np.eye(n)
    # W is unitary, so the W of m 2^-e serves m.  An m with an entry of 1 or
    # more is scaled below 1, so that no norm or product of the reduction
    # overflows; a smaller m is kept, as the floor 1 of the reduction's
    # rounding scale stands for |tau| < 1
    d, e = _scaled_down(m)
    return HullWitness(matrix=A, similarity=_zero_diagonal_similarity(d if e > 0 else m))
