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
import scipy.linalg

from .errors import (
    DomainError,
    InternalError,
    InvalidInputError,
    NotInHullError,
    PreconditionError,
    UnsupportedError,
)
from .matcore import (
    as_matrix,
    bottleneck_assignment,
    ordered_triangularize,
    spectrum,
    unitary_log,
)

#: Certificate grid resolution: angles x radii over the closed unit disk.
CERTIFICATE_GRID = (64, 16)


def mobius(z: complex, w: complex) -> float:
    """Pseudohyperbolic distance |(z - w) / (1 - z conj(w))| on the disk.

    Both arguments must lie in the open unit disk; the value is symmetric,
    lies in [0, 1) and vanishes exactly for z == w.
    """
    z = complex(z)
    w = complex(w)
    if abs(z) >= 1.0 or abs(w) >= 1.0:
        raise DomainError("arguments must lie in the open unit disk")
    return abs((z - w) / (1.0 - z * np.conj(w)))


def disk_automorphism(t: complex, b) -> np.ndarray:
    """Matrix Moebius shift B -> (B - tI)(I - conj(t) B)^-1 for |t| < 1."""
    t = complex(t)
    if abs(t) >= 1.0:
        raise DomainError("|t| must be below 1")
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
    t = complex(t)
    if abs(t) >= 1.0:
        raise DomainError("|t| must be below 1")
    sp = spectrum(b)
    if not sp.in_spectral_ball():
        raise DomainError("matrix lies outside the spectral ball")
    return max(mobius(t, lam) for lam in sp.values)


def kobayashi_scalar_base(t: complex, b) -> float:
    """Infinitesimal invariant metric at the scalar point tI in direction B.

    Equals r(B) / (1 - |t|^2); the direction may be any square matrix.
    """
    t = complex(t)
    if abs(t) >= 1.0:
        raise DomainError("|t| must be below 1")
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
    cost = np.array([[mobius(x, y) for y in b] for x in a])
    return bottleneck_assignment(cost)


def _mobius_shift(a, z):
    """T_a(z) = (z - a) / (1 - conj(a) z)."""
    return (z - a) / (1.0 - np.conj(a) * z)


class SpectralDisc:
    """Holomorphic matrix-valued disc built from paired triangular forms.

    The inner path is upper triangular: each diagonal entry travels along a
    disk automorphism h_j(zeta) = T_aj^{-1}(kappa_j zeta) (so it stays in
    the closed disk whenever |kappa_j| < 1) and the off-diagonal entries are
    affine in zeta.  The triangular path is conjugated by the interpolated
    similarity W(zeta) = exp(H0 + (zeta/s) H1), which is unitary for real
    zeta and hits the two triangularizing unitaries at 0 and s.

    The spectrum of the value at zeta equals the diagonal h(zeta) exactly,
    for every zeta, since conjugation cannot move eigenvalues.
    """

    def __init__(self, h0, h1, base_diag, kappa, t_base, t_slope, scale):
        self.h0 = h0
        self.h1 = h1
        self.base_diag = base_diag
        self.kappa = kappa
        self.t_base = t_base
        self.t_slope = t_slope
        self.scale = scale

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
        x = self.h0 + (complex(zeta) / self.scale) * self.h1
        w = scipy.linalg.expm(x)
        winv = scipy.linalg.expm(-x)
        return w @ self.triangular_part(zeta) @ winv


@dataclass(eq=False)
class CertificateGrid:
    radii: np.ndarray
    angles: np.ndarray
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
    """Paired triangular forms of A and B and the logarithms joining them.

    A and B must be square, of one size, and lie in the spectral ball.
    ``pairing(spectrum(A), spectrum(B))`` returns the permutation that lists
    B's eigenvalues in the diagonal order of A's, or raises.  Both matrices
    are triangularized in that order, A = u t_a u*, B = v t_b v*, with the
    column phases of v aligned to u.  Returns (t_a, t_b, h0, h1) with
    exp(h0) = u and exp(h0 + h1) = v.
    """
    A = as_matrix(a)
    B = as_matrix(b)
    if B.shape != A.shape:
        raise InvalidInputError("matrices must have the same dimension")
    sp_a = spectrum(A)
    sp_b = spectrum(B)
    if not (sp_a.in_spectral_ball() and sp_b.in_spectral_ball()):
        raise DomainError("both matrices must lie in the spectral ball")
    perm = pairing(sp_a, sp_b)
    u, t_a = ordered_triangularize(A, sp_a.values)
    v, t_b = ordered_triangularize(B, sp_b.values[perm])
    v, t_b = _phase_align(v, t_b, u)
    h0 = unitary_log(u)
    return t_a, t_b, h0, unitary_log(v) - h0


def upper_bound_disc(a, b, s1: float) -> DiscWitness:
    """Analytic disc through A (at 0) and B (at s1) inside the spectral ball.

    Requires s1 strictly between the pairing bound of the two spectra and 1.
    Both matrices are triangularized with the bottleneck-optimal diagonal
    pairing; the diagonal entries move along disk automorphisms scaled so the
    closed unit disk stays inside the ball, off-diagonal entries are affine,
    and the triangularizing unitaries are joined by an exponential path.
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

    t_a, t_b, h0, h1 = _triangular_frames(a, b, pairing)
    da = np.diag(t_a).copy()
    db = np.diag(t_b).copy()
    kappa = _mobius_shift(da, db) / s1

    t_base = np.triu(t_a, 1)
    t_slope = np.triu(t_b - t_a, 1) / s1

    curve = SpectralDisc(h0, h1, da, kappa, t_base, t_slope, s1)

    n_angles, n_radii = CERTIFICATE_GRID
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    radii = np.arange(1, n_radii + 1) / n_radii
    zetas = radii[:, None] * np.exp(1j * angles)[None, :]
    grid_r = np.abs(curve.diagonal_values(zetas.ravel())).max()
    cert = CertificateGrid(radii=radii, angles=angles, max_spectral_radius=float(grid_r))
    if cert.max_spectral_radius >= 1.0:
        raise InternalError("disc leaves the spectral ball on the certificate grid")
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

    Exists whenever (p+q)/(p-q) is real with modulus reachable by the
    off-diagonal data; the call sites only produce such blocks.
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
    mu = m / ap
    if abs(mu.imag) > 1e-8 * (1.0 + abs(mu)):
        raise InternalError("unsupported diagonal pattern in plane reduction")
    mu = mu.real
    r = float(np.hypot(1.0, kappa))
    if abs(mu) > r:
        raise InternalError("plane reduction target is out of reach")
    delta = float(np.arctan2(kappa, 1.0))
    uu = delta + float(np.arccos(np.clip(-mu / r, -1.0, 1.0)))
    theta = uu / 2.0
    return theta, phi


def _apply_plane(work, w, i, j, theta, phi):
    x = np.array([np.cos(theta), np.exp(1j * phi) * np.sin(theta)])
    y = np.array([-np.exp(-1j * phi) * np.sin(theta), np.cos(theta)])
    g = np.column_stack([x, y])
    idx = [i, j]
    work[idx, :] = g.conj().T @ work[idx, :]
    work[:, idx] = work[:, idx] @ g
    w[:, idx] = w[:, idx] @ g


def _zero_slot(work, w, i, j, scale):
    """Plane rotation putting 0 on diagonal slot i using slot j."""
    p, q = work[i, i], work[j, j]
    if abs(p) <= scale and abs(q) <= scale:
        return
    theta, phi = _plane_zero_vector(p, q, work[i, j], work[j, i])
    _apply_plane(work, w, i, j, theta, phi)


def _equalize(work, w, i, j, scale):
    """Plane rotation making diagonal slots i and j equal (to their mean)."""
    p, q = work[i, i], work[j, j]
    if abs(p - q) <= scale:
        return
    m = (p + q) / 2.0
    theta, phi = _plane_zero_vector(p - m, q - m, work[i, j], work[j, i])
    _apply_plane(work, w, i, j, theta, phi)


def _zero_diagonal_similarity(m):
    """Unitary W with diag(W* M W) = 0 for a trace-zero M, n <= 4."""
    n = m.shape[0]
    work = m.astype(complex).copy()
    w = np.eye(n, dtype=complex)
    scale = 1e-13 * max(1.0, np.linalg.norm(m))
    if n == 1:
        pass
    elif n == 2:
        _zero_slot(work, w, 0, 1, scale)
    elif n == 3:
        _equalize(work, w, 0, 1, scale)
        _zero_slot(work, w, 2, 0, scale)
        _zero_slot(work, w, 0, 1, scale)
    elif n == 4:
        _equalize(work, w, 0, 1, scale)
        _equalize(work, w, 2, 3, scale)
        _zero_slot(work, w, 0, 2, scale)
        _zero_slot(work, w, 1, 3, scale)
    else:
        raise UnsupportedError("zero-diagonal reduction is implemented for n <= 4")
    if np.max(np.abs(np.diag(work))) > 1e-9 * max(1.0, np.linalg.norm(m)):
        raise InternalError("zero-diagonal reduction failed to converge")
    return w


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
