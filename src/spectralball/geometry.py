"""Invariant-distance geometry of the spectral ball.

Pseudohyperbolic (Moebius) distance on the disk, exact two-point and
infinitesimal distance values at scalar base points, the permutation-minimax
pairing bound with explicit analytic-disc witnesses, the convex hull of
the spectral ball with constructive membership certificates, and a
deterministic random sample of the ball.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    InternalError,
    InvalidInputError,
    NotInHullError,
    PreconditionError,
)
from .matcore import (
    Spectrum,
    _centered,
    _cmul,
    _frobenius,
    _misses_order,
    _require_unitary,
    _scaled_down,
    as_matrix,
    bottleneck_assignment,
    ordered_triangularize,
    spectrum,
    unitary_log,
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
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if not ((np.abs(z) < 1.0).all() and (np.abs(w) < 1.0).all()):
        raise DomainError("arguments must lie in the open unit disk")
    q = (z - w) / (1.0 - _cmul(z, np.conj(w)))
    d = np.hypot(q.real, q.imag)
    return float(d) if d.ndim == 0 else d


def _disk_point(t) -> complex:
    """t as a complex number; DomainError unless it is finite with |t| < 1."""
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
    a = np.atleast_1d(np.asarray(getattr(spec_a, "values", spec_a), dtype=complex))
    b = np.atleast_1d(np.asarray(getattr(spec_b, "values", spec_b), dtype=complex))
    if len(a) != len(b):
        raise InvalidInputError("eigenvalue lists must have equal length")
    return bottleneck_assignment(mobius(a[:, None], b))


def _mobius_shift(a, z):
    """T_a(z) = (z - a) / (1 - conj(a) z)."""
    return (z - a) / (1.0 - np.conj(a) * z)


@dataclass(eq=False)
class _FramePath:
    """The unitary path W(lam) = u exp(lam L) from the frame u to frame_end v.

    L = ``unitary_log(u* v)`` and -iL = q diag(theta) q* are taken once, at
    construction, which raises InvalidInputError unless u and u* v are unitary.
    """

    frame: np.ndarray
    frame_end: np.ndarray
    frame_log: np.ndarray = field(init=False)

    def __post_init__(self):
        _require_unitary(self.frame)
        self.frame_log = unitary_log(self.frame.conj().T @ self.frame_end)
        self._theta, self._q = np.linalg.eigh(-1j * self.frame_log)
        self._p = self.frame @ self._q

    def _similarity(self, lam, terms):
        """W(lam) (sum c_k T_k) W(lam)* over the pairs (c_k, T_k) of *terms*,
        which broadcast with lam, as p ((sum c_k q* T_k q) o E) p* with p = u q
        and E_jk = exp(i lam (theta_j - theta_k))."""
        q, theta, p = self._q, self._theta, self._p
        mid = sum(c * (q.conj().T @ t @ q) for c, t in terms)
        return p @ (mid * np.exp(1j * lam * (theta[:, None] - theta))) @ p.conj().T


@dataclass(eq=False)
class SpectralDisc(_FramePath):
    """Holomorphic matrix-valued disc built from paired triangular forms.

    The inner path is upper triangular: each diagonal entry travels along a
    disk automorphism h_j(zeta) = T_aj^{-1}(kappa_j zeta) (so it stays in
    the closed disk whenever |kappa_j| < 1) and the off-diagonal entries are
    affine in zeta.  The triangular path is conjugated by W(zeta / s), the
    unitary path from the frame u (at 0) to frame_end v (at s).

    The spectrum of the value at zeta equals the diagonal h(zeta) exactly,
    for every zeta, since conjugation cannot move eigenvalues.
    """

    base_diag: np.ndarray
    kappa: np.ndarray
    t_base: np.ndarray
    t_slope: np.ndarray
    scale: float

    def diagonal_values(self, zeta):
        """Spectrum of the disc value at zeta (closed form).

        Accepts a scalar or an array of parameters; an array input yields
        one row of eigenvalues per parameter.
        """
        z = np.asarray(zeta, dtype=complex)[..., None] * self.kappa
        return _mobius_shift(-self.base_diag, z)

    def triangular_part(self, zeta):
        t = self.t_base + complex(zeta) * self.t_slope
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
    target_point: complex = field(init=False)
    certificate_grid: CertificateGrid = field(init=False)
    matrix_at_base: np.ndarray
    matrix_at_target: np.ndarray
    base_point = 0j
    tolerances = {"endpoint": ENDPOINT_TOL}

    def __post_init__(self):
        self.target_point = complex(self.curve.scale)
        abs_a, abs_k = np.abs(self.curve.base_diag), np.abs(self.curve.kappa)
        moduli = (abs_a + abs_k) / (1.0 + abs_a * abs_k)
        self.certificate_grid = CertificateGrid(float(moduli.max()))

    def endpoint_residuals(self):
        r0 = np.linalg.norm(self.curve(self.base_point) - self.matrix_at_base)
        r1 = np.linalg.norm(self.curve(self.target_point) - self.matrix_at_target)
        return float(r0), float(r1)

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
    diagonal matches *order* as ``ordered_triangularize`` requires.  Else
    (nearly dependent eigenvectors, as in defective matrices) the stack goes
    to ``ordered_triangularize``.  Returns (u, t) as that function does.
    """
    n = s.shape[-1]
    q = np.linalg.qr(vectors)[0]
    t = q.conj().swapaxes(-2, -1) @ s @ q
    below = np.linalg.norm(np.tril(t, -1), axis=(-2, -1))
    rounding = n * n * np.finfo(float).eps * np.linalg.norm(s, axis=(-2, -1))
    if (below <= rounding).all() and not _misses_order(t, order).any():
        return q, np.triu(t)
    return ordered_triangularize(s, order)


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
    Both matrices are triangularized with the bottleneck-optimal diagonal
    pairing; the diagonal entries move along disk automorphisms scaled so the
    closed unit disk stays inside the ball, off-diagonal entries are affine,
    and the triangularizing unitaries are joined by a one-parameter
    unitary group.
    The witness establishes that the two-point distance is at most s1.
    """
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
    da = np.diag(t_a).copy()
    db = np.diag(t_b).copy()
    kappa = _mobius_shift(da, db) / s1
    t_slope = np.triu(t_b - t_a, 1) / s1
    witness = DiscWitness(
        curve=SpectralDisc(u, v, da, kappa, np.triu(t_a, 1), t_slope, s1),
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
    """Convex decomposition of a hull member into two ball members."""

    terms: tuple
    similarity: np.ndarray
    weights = (0.5, 0.5)
    tolerances = {"reconstruction": HULL_TOL}

    def residuals(self, a) -> dict:
        """``reconstruction`` ||w_1 T_1 + w_2 T_2 - A||_F and ``triangularity``,
        how far S*(T_k - tau I)S, tau = tr(A) / n, are from strictly upper (k = 1)
        and lower (k = 2) triangular, relative to 1 + ||A||_F."""
        A = as_matrix(a)
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
    """Write a hull member as the midpoint of two spectral-ball members.

    With tau = tr(A)/n and a unitary S making A - tau I zero-diagonal, the
    two terms are S (2 N_u + tau I) S^-1 and S (2 N_l + tau I) S^-1 where
    N_u, N_l are the strict triangular parts of the reduced matrix.  Both
    terms have one-point spectrum {tau}, hence spectral radius below 1.
    """
    A = as_matrix(a)
    n = A.shape[0]
    h, inside = hull_membership(A)
    if not inside:
        raise NotInHullError(f"|tr A|/n = {h:.6g} is not below 1")
    tau = np.trace(A) / n
    m = A - tau * np.eye(n)
    # W is unitary, so the W of m 2^-e serves m.  An m with an entry of 1 or
    # more is scaled below 1, so that no norm or product of the reduction
    # overflows; a smaller m is kept, as the floor 1 of the reduction's
    # rounding scale stands for |tau| < 1
    d, e = _scaled_down(m)
    s = _zero_diagonal_similarity(d if e > 0 else m)
    z = s.conj().T @ m @ s
    upper = np.triu(z, 1)
    lower = np.tril(z, -1)
    t1 = s @ (2.0 * upper + tau * np.eye(n)) @ s.conj().T
    t2 = s @ (2.0 * lower + tau * np.eye(n)) @ s.conj().T
    return HullWitness(terms=(t1, t2), similarity=s)
