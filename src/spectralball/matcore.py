"""Dense complex matrix kernel.

Spectra, symmetrized coordinates (signed characteristic-polynomial
coefficients) and their differential, companion matrices, the bottleneck
assignment behind every pairing of eigenvalue multisets, Schur forms with a
prescribed diagonal order, matrix exponentials/logarithms, and the linear
algebra of the commutation operator H -> AH - HA.

Everything here is a pure function of its inputs; matrices are plain complex
numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, NoSolutionError, NumericError

#: Default relative tolerance for residuals and rank decisions.
DEFAULT_TOL = 1e-9
PAIRING_TOL = 1e-6  # relative gap within which matched eigenvalues are equal
UNITARY_TOL = 1e-8  # largest ||U*U - I|| / sqrt(n) accepted as unitary
BORDERLINE_DECADE = 10.0  # a rank decision this close to its threshold is borderline


def as_matrix(a) -> np.ndarray:
    """Validate *a* as a square complex matrix and return it as an ndarray.

    Raises InvalidInputError for non-square shapes, empty matrices or
    non-finite entries.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise InvalidInputError(f"expected a square matrix, got shape {m.shape}")
    return _as_stack(m)


def _as_stack(x) -> np.ndarray:
    """Validate *x* as a stack of square complex matrices, shape (..., n, n)."""
    m = np.asarray(x, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise InvalidInputError(f"expected square matrices, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidInputError("matrix entries must be finite")
    return m


def _rank_by_svd(s):
    """(rank, borderline) from a descending singular-value list.

    Rank counts values above DEFAULT_TOL * s_max; the decision is flagged borderline
    when a singular value sits within a factor BORDERLINE_DECADE of that
    threshold.  Decided on Python floats: the comparisons are numpy's, without
    its per-call dispatch.
    """
    s = np.asarray(s, dtype=float).tolist()
    if not s or s[0] == 0.0:
        return 0, False
    thresh = DEFAULT_TOL * s[0]
    low, high = thresh / BORDERLINE_DECADE, thresh * BORDERLINE_DECADE
    return len([x for x in s if x > thresh]), any(low <= x <= high for x in s)


def _scaled_down(x):
    """(x 2^-e, e) for a complex array x, 2^e just above its largest real or
    imaginary part (e = 0 when x is zero).  In the normal range the scaling
    is exact, so each step on x 2^-e rounds as on x itself."""
    parts = np.ascontiguousarray(x, dtype=complex).view(float)
    e = math.frexp(np.abs(parts).max())[1]
    return np.ldexp(parts, -e).view(complex), e


def _frobenius(x) -> float:
    """||x||_F, taken on ``_scaled_down(x)`` and scaled back: no square
    overflows or underflows, so the norm is finite whenever it is
    representable."""
    d, e = _scaled_down(x)
    half = math.ldexp(1.0, e - 1)  # 2^e in two factors: 2^1024 is no float
    return float(np.linalg.norm(d)) * half * 2.0


def _centered(a, tol):
    """(tau, c, M) with A = tau I + c M, tau = tr(A) / n and c = max |A - tau I|,
    so no entry of M exceeds 1.  A is scalar (c = 0, M = 0) when
    c <= tol * max |A|.  The steps act on ``_scaled_down(A)``, and tau and c
    are scaled back: no trace overflows nor divisor is subnormal.  At the top
    of the range tau or c may be inf."""
    n = a.shape[0]
    d, e = _scaled_down(a)
    top = float(np.abs(d).max())
    tau = complex(d.trace() / n)
    d.flat[:: n + 1] -= tau
    c = float(np.abs(d).max())
    half = math.ldexp(1.0, e - 1)  # 2^e in two factors: 2^1024 is no float
    tau = complex(tau.real * half * 2.0, tau.imag * half * 2.0)
    if c <= tol * top:
        return tau, 0.0, np.zeros_like(d)
    return tau, c * half * 2.0, d / c


def _cmul(a, b):
    """Complex product a * b, spelled out: numpy's vectorized product may
    fuse multiply-adds and then rounds unlike a scalar evaluation."""
    return (a.real * b.real - a.imag * b.imag) + 1j * (a.real * b.imag + a.imag * b.real)


@dataclass(eq=False)
class Spectrum:
    """Eigenvalue multiset of a square matrix, with its spectral radius."""

    values: np.ndarray
    radius: float = field(init=False)

    def __post_init__(self):
        self.values = np.atleast_1d(np.asarray(self.values, dtype=complex))
        self.radius = float(np.max(np.abs(self.values)))

    def in_spectral_ball(self) -> bool:
        return self.radius < 1.0

    def symmetrized(self) -> SymPoint:
        """SymPoint of the values; NumericError when a coordinate overflows."""
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            coords = elementary_symmetric(self.values)
        if not np.isfinite(coords).all():
            raise NumericError("symmetrized coordinates overflow")
        return SymPoint(coords)


@dataclass(eq=False)
class SymPoint:
    """Point of C^n holding the symmetrized coordinates (s_1, ..., s_n).

    s_j is the j-th elementary symmetric function of the eigenvalues, so the
    characteristic polynomial is t^n + sum_j (-1)^j s_j t^(n-j).
    """

    coords: np.ndarray

    def __post_init__(self):
        self.coords = np.atleast_1d(np.asarray(self.coords, dtype=complex))

    @property
    def n(self) -> int:
        return len(self.coords)

    def char_coefficients(self) -> np.ndarray:
        """Monic characteristic polynomial coefficients, descending degree."""
        signs = (-1.0) ** np.arange(1, self.n + 1)
        return np.concatenate(([1.0 + 0j], signs * self.coords))

    def roots(self) -> np.ndarray:
        return np.roots(self.char_coefficients())

    def in_symmetrized_polydisc(self) -> bool:
        """True iff every root of the associated polynomial lies in the
        open unit disk."""
        return bool(np.max(np.abs(self.roots())) < 1.0)


def spectrum(a) -> Spectrum:
    """Eigenvalue multiset of a square matrix (unordered, with multiplicity)."""
    return Spectrum(np.linalg.eigvals(as_matrix(a)))


def elementary_symmetric(values) -> np.ndarray:
    """Elementary symmetric functions e_1, ..., e_n of a list of numbers.

    Computed by expanding prod_j (t - v_j); no eigen-solving involved.
    """
    vals = np.atleast_1d(np.asarray(values, dtype=complex))
    coeffs = np.array([1.0 + 0j])
    for v in vals:
        coeffs = np.convolve(coeffs, np.array([1.0, -v]))
    n = len(vals)
    signs = (-1.0) ** np.arange(1, n + 1)
    return signs * coeffs[1:]


def sigma(a) -> SymPoint:
    """Symmetrized coordinates of a matrix.

    The j-th coordinate is the j-th elementary symmetric function of the
    eigenvalues; equivalently the characteristic polynomial of A is
    t^n + sum_j (-1)^j sigma_j t^(n-j).  A coordinate that overflows
    raises NumericError.
    """
    return spectrum(a).symmetrized()


def sigma_pushforward(a, b) -> np.ndarray:
    """Differential of the symmetrized coordinates at A, applied to B.

    The j-th coordinate is the sum of all j x j determinants obtained by
    taking a principal j x j submatrix of A and replacing one column by the
    corresponding entries of B.  It is computed as
    sigma_differential_matrix(A) applied to column-stacked B, in O(n^4)
    operations; the first coordinate is the trace of B, exactly.
    """
    A = as_matrix(a)
    B = as_matrix(b)
    if B.shape != A.shape:
        raise InvalidInputError(
            f"dimension mismatch: {A.shape} versus {B.shape}"
        )
    out = sigma_differential_matrix(A) @ B.ravel(order="F")
    out[0] = np.trace(B)
    return out


def sigma_differential_matrix(a) -> np.ndarray:
    """Matrix of the linear map B -> sigma_pushforward(A, B).

    Returns an n x n^2 array acting on column-stacked B.  Row j-1 represents
    tr(D_{j-1} B) where D_j = s_j I - A D_{j-1}, D_0 = I; this is the
    classical expansion of the derivative of the characteristic-polynomial
    coefficients and agrees with the column-replacement minors formula.
    The coefficients come from the same recurrence (Faddeev-LeVerrier),
    s_j = tr(A D_{j-1}) / j, so no eigenvalue is solved for.
    """
    A = as_matrix(a)
    n = A.shape[0]
    rows = np.empty((n, n * n), dtype=complex)
    d = np.eye(n, dtype=complex)
    rows[0] = d.ravel()
    for j in range(1, n):
        ad = A @ d
        d = -ad
        d.flat[:: n + 1] += ad.trace() / j  # D_j = s_j I - A D_{j-1}
        # tr(D B) pairs D[r, k] with B[k, r]: C-order ravel of D matches
        # the F-order ravel of B.
        rows[j] = d.ravel()
    return rows


def companion(s) -> np.ndarray:
    """Companion matrix with the prescribed symmetrized coordinates.

    Layout: ones on the subdiagonal and the negated monic polynomial
    coefficients in the last column, so that sigma(companion(s)) == s.
    """
    coords = np.atleast_1d(np.asarray(getattr(s, "coords", s), dtype=complex))
    if not np.isfinite(coords).all():
        raise InvalidInputError("coordinates must be finite")
    n = len(coords)
    m = np.zeros((n, n), dtype=complex)
    for k in range(n - 1):
        m[k + 1, k] = 1.0
    for i in range(n):
        m[i, n - 1] = -((-1.0) ** (n - i)) * coords[n - i - 1]
    return m


def _perfect_matching(adj):
    """Perfect matching in a boolean bipartite adjacency matrix, or None.

    Kuhn's augmenting-path algorithm; fine at desk scale.
    """
    n = adj.shape[0]
    rows = adj.tolist()
    match_col = [-1] * n

    def try_row(r, seen):
        for c in range(n):
            if rows[r][c] and not seen[c]:
                seen[c] = True
                if match_col[c] < 0 or try_row(match_col[c], seen):
                    match_col[c] = r
                    return True
        return False

    for r in range(n):
        if not try_row(r, [False] * n):
            return None
    perm = np.empty(n, dtype=int)
    for c, r in enumerate(match_col):
        perm[r] = c
    return perm


def bottleneck_assignment(cost):
    """Assignment minimizing the largest cost entry, for one square cost or
    a stack of them, shape (..., n, n).

    The largest row minimum is a lower bound, which the nearest pairing
    attains wherever the rows' nearest columns are distinct: one test over
    the whole stack.  Each other slice tests the larger of that bound and
    the largest column minimum with one matching; only if that fails does a
    bisection over the larger entries follow, ended by one matching at the
    value found.  Returns (value, permutation), permutation[..., i] the
    column of row i and each value an entry of its slice: a float for one
    cost, arrays of shape (...) and (..., n) for a stack, value 0 at n = 0.

    Raises InvalidInputError for a non-square or non-finite cost, or a
    single empty one.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim < 2 or cost.shape[-1] != cost.shape[-2]:
        raise InvalidInputError("cost matrix must be square")
    if cost.shape == (0, 0) or not np.isfinite(cost).all():
        raise InvalidInputError("cost matrix must be non-empty and finite")
    n = cost.shape[-1]
    if n == 0:
        return np.zeros(cost.shape[:-2]), np.zeros(cost.shape[:-1], dtype=int)
    flat = cost.reshape(-1, n, n)
    perm = flat.argmin(axis=2)
    value = flat.min(axis=2).max(axis=1)
    distinct = (np.sort(perm, axis=1) == np.arange(n)).all(axis=1)
    for k in np.flatnonzero(~distinct):
        c = flat[k]
        bound = max(value[k], c.min(axis=0).max())
        match = _perfect_matching(c <= bound)
        if match is None:
            values = np.unique(c[c > bound])
            lo, hi = 0, len(values) - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if _perfect_matching(c <= values[mid]) is None:
                    lo = mid + 1
                else:
                    hi = mid
            bound = values[lo]
            match = _perfect_matching(c <= bound)
        value[k], perm[k] = bound, match
    if cost.ndim == 2:
        return float(value[0]), perm[0]
    return value.reshape(cost.shape[:-2]), perm.reshape(cost.shape[:-1])


def ordered_triangularize(a, order):
    """Unitary triangularization with a prescribed diagonal order.

    *a* is a square matrix or a stack of them, shape (..., n, n), and
    *order* lists the eigenvalues of each, shape (..., n), in the order
    they should take on the diagonal.  Returns (u, t) with u unitary, t
    upper triangular and u* a u = t, stacked like *a*.

    Ordered Schur form by deflation: step k takes the smallest right
    singular vector x of T[k:, k:] - order[k] I and applies to the trailing
    rows and columns the Householder reflector whose first column is x.
    That puts order[k] on slot k, up to the smallest singular value, which
    also bounds the column below it, set to zero.  A step whose column is
    already zero is skipped, so a triangular input in the requested order
    comes back with u = I.

    Raises InvalidInputError when a diagonal entry misses *order* by more
    than PAIRING_TOL * (1 + max |diag(t)|): *order* is then not a
    permutation of the spectrum.

    The paired frames of the disc and curve witnesses come from
    eigenvectors; they call this only for pairs whose eigenvectors do not
    give a triangular form, such as defective ones.
    """
    t = _as_stack(a).copy()
    n = t.shape[-1]
    order = np.asarray(order, dtype=complex)
    if order.size != t.size // n or not np.isfinite(order).all():
        raise InvalidInputError("order must list all eigenvalues, as finite numbers")
    order = order.reshape(t.shape[:-1])
    u = np.broadcast_to(np.eye(n, dtype=complex), t.shape).copy()
    for k in range(n - 1):
        m = t[..., k:, k:] - order[..., k, None, None] * np.eye(n - k)
        x = np.linalg.svd(m)[2][..., -1, :].conj()
        # with x phased so that x[0] = -|x[0]|, w = x - e_1 gives the
        # reflector H = I - w w* / (1 + |x[0]|) and H e_1 = x; w = 0 skips
        w = -x * np.exp(-1j * np.angle(x[..., :1]))
        w[..., 0] -= 1.0
        w[(m[..., :, 0] == 0.0).all(axis=-1)] = 0.0
        w_row = w.conj() / (1.0 + np.abs(x[..., :1]))
        h = np.eye(n - k) - w[..., :, None] * w_row[..., None, :]
        t[..., :, k:] = t[..., :, k:] @ h
        t[..., k:, k:] = h @ t[..., k:, k:]
        u[..., :, k:] = u[..., :, k:] @ h
        t[..., k + 1 :, k] = 0.0
    if _misses_order(t, order).any():
        raise InvalidInputError("order is not a permutation of the spectrum")
    return u, t


def _misses_order(t, order):
    """Per slice of a stack t, whether a diagonal entry misses *order* by
    more than PAIRING_TOL * (1 + max |diag(t)|)."""
    diag = np.diagonal(t, axis1=-2, axis2=-1)
    scale = 1.0 + np.abs(diag).max(axis=-1)
    return np.abs(diag - order).max(axis=-1) > PAIRING_TOL * scale


#: Coefficients b_0, ..., b_13 of the degree-13 Pade approximant to exp,
#: divided by b_0: then V(0) = I, and the solves give exp(0) = I exactly.
_PADE13 = tuple(
    b / 64764752532480000.0
    for b in (
        64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0,
        670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
        16380.0, 182.0, 1.0,
    )
)

#: Largest 1-norm at which the degree-13 approximant is accurate to unit
#: roundoff in double precision.
_THETA13 = 5.371920351148152


def expm_pair(x):
    """exp(X) and exp(-X) for a stack of square matrices, shape (..., n, n).

    Degree-13 scaling and squaring (Higham, "The scaling and squaring method
    for the matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26,
    2005).  Each slice is scaled by 2^-s, with s the least integer >= 0 that
    brings its 1-norm to at most theta_13.  The Pade form
    r(X) = (V - U)^-1 (V + U) has U odd and V even in X, so
    r(-X) = (V + U)^-1 (V - U) shares every product; only the two solves and
    the s squarings of each slice are done twice.  Every step acts on each
    slice alone, so a stack gives its slices' values bit for bit, and
    expm_pair(-x) is expm_pair(x) swapped.

    Raises InvalidInputError for non-square, empty or non-finite input.
    """
    x = _as_stack(x)
    shape = x.shape
    n = shape[-1]
    x = x.reshape(-1, n, n)
    norm = np.abs(x).sum(axis=1).max(axis=1)
    s = np.zeros(len(x), dtype=int)
    big = norm > _THETA13
    s[big] = np.ceil(np.log2(norm[big] / _THETA13))
    x = x * np.ldexp(1.0, -s)[:, None, None]

    b = _PADE13
    ident = np.eye(n)
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (
        x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
        + b[7] * x6
        + b[5] * x4
        + b[3] * x2
        + b[1] * ident
    )
    v = (
        x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
        + b[6] * x6
        + b[4] * x4
        + b[2] * x2
        + b[0] * ident
    )
    p = v + u
    q = v - u
    e = np.linalg.solve(q, p)
    e_inv = np.linalg.solve(p, q)
    for i in range(s.max(initial=0)):
        todo = s > i
        sq = e[todo]
        e[todo] = sq @ sq
        sq = e_inv[todo]
        e_inv[todo] = sq @ sq
    return e.reshape(shape), e_inv.reshape(shape)


def _require_unitary(u):
    """InvalidInputError unless ||u* u - I||_F <= UNITARY_TOL sqrt(n)."""
    defect = np.linalg.norm(u.conj().T @ u - np.eye(len(u)))
    if defect > UNITARY_TOL * np.sqrt(len(u)):
        raise InvalidInputError(f"matrix is not unitary (defect {defect:.3e})")


def unitary_log(u) -> np.ndarray:
    """Principal logarithm of a unitary matrix: skew-Hermitian, norm <= pi.

    u is turned by a unimodular factor that puts -1 in the middle of the
    widest gap between its eigenvalue angles.  The Cayley transform of the
    turned matrix is then Hermitian with the eigenvectors of u, so one
    ``eigh`` diagonalizes u.  The angles, in (-pi, pi], are those of the
    Rayleigh quotients of u itself, so an eigenvalue -1 gives +i pi.
    """
    U = as_matrix(u)
    _require_unitary(U)
    eye = np.eye(len(U))
    angles = np.sort(np.angle(np.linalg.eigvals(U)))
    gaps = np.diff(angles, append=angles[0] + 2.0 * np.pi)
    k = int(np.argmax(gaps))
    r = np.exp(1j * (np.pi - angles[k] - gaps[k] / 2.0)) * U
    h = 1j * np.linalg.solve(eye + r, eye - r)
    _, q = np.linalg.eigh((h + h.conj().T) / 2.0)
    theta = np.angle(np.diag(q.conj().T @ U @ q))
    return (q * (1j * theta)) @ q.conj().T


def commutation_operator(a) -> np.ndarray:
    """Matrix of H -> AH - HA acting on column-stacked H (n^2 x n^2)."""
    A = as_matrix(a)
    n = A.shape[0]
    # entry (i n + p, j n + q) is delta_ij A[p, q] - A[j, i] delta_pq
    op = np.zeros((n, n, n, n), dtype=complex)
    i = np.arange(n)
    op[i, :, i, :] += A
    op[:, i, :, i] -= A.T
    return op.reshape(n * n, n * n)


def solve_conjugation(a, b) -> np.ndarray:
    """Minimal-norm solution Y of AY - YA = B.

    Solves the column-stacked linear system in the least-squares sense and
    rejects the result when B is not in the range of the commutation
    operator (residual above DEFAULT_TOL * (1 + ||B||)).
    """
    A = as_matrix(a)
    B = as_matrix(b)
    if B.shape != A.shape:
        raise InvalidInputError("A and B must have the same dimension")
    n = A.shape[0]
    op = commutation_operator(A)
    y, *_ = np.linalg.lstsq(op, B.ravel(order="F"), rcond=None)
    Y = y.reshape((n, n), order="F")
    resid = np.linalg.norm(A @ Y - Y @ A - B)
    if resid > DEFAULT_TOL * (1.0 + np.linalg.norm(B)):
        raise NoSolutionError(
            f"direction is not in the range of the commutation operator "
            f"(residual {resid:.3e})"
        )
    return Y
