"""Invariant-distance geometry of the spectral ball.

Pseudohyperbolic (Moebius) distance on the disk, exact two-point and
infinitesimal distance values at scalar base points, the permutation-minimax
pairing bound with explicit analytic-disc witnesses, the convex hull of
the spectral ball with constructive membership certificates, and a
deterministic random sample of the ball.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    _cmul,
    as_matrix,
    bottleneck_assignment,
    expm_pair,
    ordered_triangularize,
    spectrum,
    unitary_log,
)

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
    t = _disk_point(t)
    sp = spectrum(b)
    if not sp.in_spectral_ball():
        raise DomainError("matrix lies outside the spectral ball")
    return float(mobius(t, sp.values).max())


def kobayashi_scalar_base(t: complex, b) -> float:
    """Infinitesimal invariant metric at the scalar point tI in direction B.

    Equals r(B) / (1 - |t|^2); the direction may be any square matrix.
    """
    t = _disk_point(t)
    return spectrum(b).radius / (1.0 - abs(t) ** 2)


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
class SpectralDisc:
    """Holomorphic matrix-valued disc built from paired triangular forms.

    The inner path is upper triangular: each diagonal entry travels along a
    disk automorphism h_j(zeta) = T_aj^{-1}(kappa_j zeta) (so it stays in
    the closed disk whenever |kappa_j| < 1) and the off-diagonal entries are
    affine in zeta.  The triangular path is conjugated by the interpolated
    similarity W(zeta) = u exp((zeta/s) L), with L the principal logarithm
    of u* v; it is unitary for real zeta and hits the two triangularizing
    unitaries u and v at 0 and s.

    The spectrum of the value at zeta equals the diagonal h(zeta) exactly,
    for every zeta, since conjugation cannot move eigenvalues.
    """

    frame: np.ndarray
    frame_log: np.ndarray
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
        return (z + self.base_diag) / (1.0 + np.conj(self.base_diag) * z)

    def triangular_part(self, zeta):
        t = self.t_base + complex(zeta) * self.t_slope
        np.fill_diagonal(t, self.diagonal_values(zeta))
        return t

    def __call__(self, zeta):
        zeta = complex(zeta)
        t = self.triangular_part(zeta)
        if zeta != 0.0:
            # at zeta = 0 the similarity would be exp(0) = I exactly
            e, e_inv = expm_pair((zeta / self.scale) * self.frame_log)
            t = e @ t @ e_inv
        u = self.frame
        return u @ t @ u.conj().T


@dataclass(eq=False)
class CertificateGrid:
    """Largest spectral radius of the disc over the closed unit disk."""

    max_spectral_radius: float


@dataclass(eq=False)
class DiscWitness:
    """Analytic disc certifying an upper bound on the two-point distance."""

    curve: SpectralDisc
    base_point: complex
    target_point: complex
    certificate_grid: CertificateGrid
    matrix_at_base: np.ndarray
    matrix_at_target: np.ndarray

    def endpoint_residuals(self):
        r0 = np.linalg.norm(self.curve(self.base_point) - self.matrix_at_base)
        r1 = np.linalg.norm(self.curve(self.target_point) - self.matrix_at_target)
        return float(r0), float(r1)


def _phase_align(v, t, u):
    """Multiply v by diagonal phases so diag(v* u) becomes real nonnegative.

    Keeps v a valid triangularizer (the diagonal of t is untouched) while
    removing the arbitrary per-column phase freedom; this shrinks the
    interpolating logarithm between the two unitaries.
    """
    d = np.diag(v.conj().T @ u).copy()
    d[np.abs(d) < 1e-12] = 1.0
    phases = d / np.abs(d)
    dm = np.diag(phases)
    return v @ dm, dm.conj().T @ t @ dm


def _triangular_frames(a, b, pairing):
    """Paired triangular forms of A and B and the logarithm joining them.

    A and B must be square, of one size, and lie in the spectral ball.
    ``pairing(spectrum(A), spectrum(B))`` returns the permutation that lists
    B's eigenvalues in the diagonal order of A's, or raises.  Both matrices
    are triangularized in that order in one stacked call, A = u t_a u*,
    B = v t_b v*, with the column phases of v aligned to u.  Returns
    (t_a, t_b, u, L) with L the principal logarithm of u* v, so that
    u exp(L) = v.
    """
    A = as_matrix(a)
    B = as_matrix(b)
    if B.shape != A.shape:
        raise InvalidInputError("matrices must have the same dimension")
    values = np.linalg.eigvals(np.stack([A, B]))
    sp_a, sp_b = Spectrum(values[0]), Spectrum(values[1])
    if not (sp_a.in_spectral_ball() and sp_b.in_spectral_ball()):
        raise DomainError("both matrices must lie in the spectral ball")
    perm = pairing(sp_a, sp_b)
    (u, v), (t_a, t_b) = ordered_triangularize(
        np.stack([A, B]), np.stack([sp_a.values, sp_b.values[perm]])
    )
    v, t_b = _phase_align(v, t_b, u)
    return t_a, t_b, u, unitary_log(u.conj().T @ v)


def upper_bound_disc(a, b, s1: float) -> DiscWitness:
    """Analytic disc through A (at 0) and B (at s1) inside the spectral ball.

    Requires s1 strictly between the pairing bound of the two spectra and 1.
    Both matrices are triangularized with the bottleneck-optimal diagonal
    pairing; the diagonal entries move along disk automorphisms scaled so the
    closed unit disk stays inside the ball, off-diagonal entries are affine,
    and the triangularizing unitaries are joined by a one-parameter
    unitary group.
    The witness establishes that the two-point distance is at most s1.  Its
    certificate radius is exact: entry j of the diagonal is a disk
    automorphism of kappa_j zeta, so by the maximum principle its largest
    modulus on the closed disk is (|a_j| + |kappa_j|) / (1 + |a_j| |kappa_j|).
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

    t_a, t_b, u, frame_log = _triangular_frames(a, b, pairing)
    da = np.diag(t_a).copy()
    db = np.diag(t_b).copy()
    kappa = _mobius_shift(da, db) / s1

    t_base = np.triu(t_a, 1)
    t_slope = np.triu(t_b - t_a, 1) / s1

    curve = SpectralDisc(u, frame_log, da, kappa, t_base, t_slope, s1)

    abs_a, abs_k = np.abs(da), np.abs(kappa)
    cert = CertificateGrid(float(((abs_a + abs_k) / (1.0 + abs_a * abs_k)).max()))
    if cert.max_spectral_radius >= 1.0:
        raise InternalError("disc leaves the spectral ball")
    return DiscWitness(
        curve=curve,
        base_point=0.0 + 0.0j,
        target_point=complex(s1),
        certificate_grid=cert,
        matrix_at_base=np.array(a, dtype=complex),
        matrix_at_target=np.array(b, dtype=complex),
    )


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

    weights: tuple
    terms: tuple
    similarity: np.ndarray


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


def _plane_target(frame, i, j, target, scale):
    """Plane rotation G of slots (i, j) putting target on diagonal slot i.

    The frame stacks W* M W on W: rows i, j of the top block take G* and
    columns i, j of both take G.  The target must lie on the segment
    [d_i, d_j], which the numerical range of the 2x2 block contains
    (Toeplitz-Hausdorff); slot j then holds d_i + d_j - target.
    """
    p, q = frame[i, i], frame[j, j]
    if abs(p - target) <= scale:
        return
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
            _plane_target(frame, b, c, d[b] + s * (d[c] - d[b]), scale)
        _plane_target(frame, a, b, 0.0, scale)
    if np.max(np.abs(frame.diagonal())) > 1e-9 * max(1.0, np.linalg.norm(m)):
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
    s = _zero_diagonal_similarity(A - tau * np.eye(n))
    z = s.conj().T @ (A - tau * np.eye(n)) @ s
    upper = np.triu(z, 1)
    lower = np.tril(z, -1)
    t1 = s @ (2.0 * upper + tau * np.eye(n)) @ s.conj().T
    t2 = s @ (2.0 * lower + tau * np.eye(n)) @ s.conj().T
    return HullWitness(weights=(0.5, 0.5), terms=(t1, t2), similarity=s)
