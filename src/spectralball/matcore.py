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

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import InternalError, InvalidInputError, NoSolutionError

#: Default relative tolerance for residuals and rank decisions.
DEFAULT_TOL = 1e-9


def as_matrix(a) -> np.ndarray:
    """Validate *a* as a square complex matrix and return it as an ndarray.

    Raises InvalidInputError for non-square shapes, empty matrices or
    non-finite entries.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise InvalidInputError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidInputError("matrix entries must be finite")
    return m


@dataclass(eq=False)
class Spectrum:
    """Eigenvalue multiset of a square matrix, with its spectral radius."""

    values: np.ndarray
    radius: float = field(init=False)

    def __post_init__(self):
        self.values = np.atleast_1d(np.asarray(self.values, dtype=complex))
        self.radius = float(np.max(np.abs(self.values)))

    @property
    def n(self) -> int:
        return len(self.values)

    def in_spectral_ball(self) -> bool:
        return self.radius < 1.0


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
    t^n + sum_j (-1)^j sigma_j t^(n-j).
    """
    return SymPoint(elementary_symmetric(spectrum(a).values))


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
    """
    A = as_matrix(a)
    n = A.shape[0]
    sig = sigma(A).coords
    rows = np.empty((n, n * n), dtype=complex)
    d = np.eye(n, dtype=complex)
    rows[0] = d.ravel()
    for j in range(1, n):
        d = sig[j - 1] * np.eye(n) - A @ d
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


def _swap_adjacent(t, u, i):
    """Swap diagonal entries i, i+1 of the triangular factor in place."""
    t11 = t[i, i]
    t22 = t[i + 1, i + 1]
    t12 = t[i, i + 1]
    v = np.array([t12, t22 - t11])
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return
    q1 = v / nv
    q2 = np.array([-np.conj(q1[1]), np.conj(q1[0])])
    g = np.column_stack([q1, q2])
    t[:, i : i + 2] = t[:, i : i + 2] @ g
    t[i : i + 2, :] = g.conj().T @ t[i : i + 2, :]
    u[:, i : i + 2] = u[:, i : i + 2] @ g
    t[i + 1, i] = 0.0


def _perfect_matching(adj):
    """Perfect matching in a boolean bipartite adjacency matrix, or None.

    Kuhn's augmenting-path algorithm; fine at desk scale.
    """
    n = adj.shape[0]
    match_col = [-1] * n

    def try_row(r, seen):
        for c in range(n):
            if adj[r, c] and not seen[c]:
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
    """Assignment minimizing the maximum cost entry.

    Threshold bisection over the sorted set of cost values combined with
    bipartite perfect matching.  Returns (value, permutation) where
    permutation[i] is the column matched to row i and the value is an exact
    entry of the cost matrix.
    """
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    if cost.shape != (n, n):
        raise InvalidInputError("cost matrix must be square")
    values = np.unique(cost)
    lo, hi = 0, len(values) - 1
    best = _perfect_matching(cost <= values[hi])
    if best is None:
        raise InternalError("complete cost matrix admits no perfect matching")
    while lo < hi:
        mid = (lo + hi) // 2
        perm = _perfect_matching(cost <= values[mid])
        if perm is None:
            lo = mid + 1
        else:
            hi = mid
            best = perm
    return float(values[lo]), best


def _bottleneck_pairing(cost):
    """Bottleneck-optimal pairing of every slice of a cost stack (..., n, n).

    Returns (value, perm): value[...] is the least largest entry over all
    permutations and perm[..., i] the column paired with row i.  Pairing
    each row with its nearest column gives a lower bound; when those
    columns are distinct they attain it, so that pairing is exact.  Any
    other slice goes to ``bottleneck_assignment``.  Either way the value is
    an exact entry of the slice.
    """
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[-1]
    flat = cost.reshape(-1, n, n)
    perm = flat.argmin(axis=2)
    value = flat.min(axis=2).max(axis=1)
    distinct = (np.sort(perm, axis=1) == np.arange(n)).all(axis=1)
    for k in np.flatnonzero(~distinct):
        value[k], perm[k] = bottleneck_assignment(flat[k])
    return value.reshape(cost.shape[:-2]), perm.reshape(cost.shape[:-1])


def ordered_triangularize(a, order, match_tol: float = 1e-6):
    """Unitary triangularization with a prescribed diagonal order.

    Parameters
    ----------
    a : square matrix
    order : sequence of the eigenvalues of *a*, in the order they should
        appear on the diagonal of the triangular factor.
    match_tol : relative tolerance used to match *order* against the
        computed spectrum.

    Returns
    -------
    (u, t) with u unitary, t upper triangular, u* a u = t and
    diag(t) equal to *order* up to eigensolver accuracy.

    Raises InvalidInputError when *order* is not a permutation of the
    spectrum of *a*.
    """
    A = as_matrix(a)
    n = A.shape[0]
    order = np.atleast_1d(np.asarray(order, dtype=complex)).ravel()
    if len(order) != n:
        raise InvalidInputError("order must list all eigenvalues")
    t, u = scipy.linalg.schur(A, output="complex")
    diag = np.diag(t)
    gap, cols = _bottleneck_pairing(np.abs(order[:, None] - diag[None, :]))
    scale = 1.0 + float(np.max(np.abs(diag)))
    if gap > match_tol * scale:
        raise InvalidInputError("order is not a permutation of the spectrum")
    # labels[p] = destination slot of the eigenvalue currently at position p
    labels = np.empty(n, dtype=int)
    labels[cols] = np.arange(n)
    labels = list(labels)
    t = t.copy()
    u = u.copy()
    for k in range(n):
        p = labels.index(k, k)
        for i in range(p - 1, k - 1, -1):
            _swap_adjacent(t, u, i)
            labels[i], labels[i + 1] = labels[i + 1], labels[i]
    return u, t


def matrix_exp(m) -> np.ndarray:
    """Matrix exponential of a square matrix."""
    return scipy.linalg.expm(as_matrix(m))


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
    x = np.asarray(x, dtype=complex)
    if x.ndim < 2 or x.shape[-1] != x.shape[-2] or x.shape[-1] < 1:
        raise InvalidInputError(
            f"expected a stack of square matrices, got shape {x.shape}"
        )
    if not np.isfinite(x).all():
        raise InvalidInputError("matrix entries must be finite")
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


def _normal_eig(u):
    """Spectral decomposition of a normal matrix via its Schur form."""
    t, q = scipy.linalg.schur(u, output="complex")
    return np.diag(t).copy(), q


def unitary_log(u, tol: float = 1e-8) -> np.ndarray:
    """Skew-Hermitian logarithm of a unitary matrix.

    Uses the spectral decomposition (unitary matrices are normal), taking
    the principal logarithm of each unit-modulus eigenvalue.  The result L
    satisfies matrix_exp(L) == u to roundoff.
    """
    U = as_matrix(u)
    n = U.shape[0]
    defect = np.linalg.norm(U.conj().T @ U - np.eye(n))
    if defect > tol * np.sqrt(n):
        raise InvalidInputError(f"matrix is not unitary (defect {defect:.3e})")
    w, q = _normal_eig(U)
    return q @ np.diag(np.log(w)) @ q.conj().T


def commutation_operator(a) -> np.ndarray:
    """Matrix of H -> AH - HA acting on column-stacked H (n^2 x n^2)."""
    A = as_matrix(a)
    n = A.shape[0]
    eye = np.eye(n)
    return np.kron(eye, A) - np.kron(A.T, eye)


@dataclass(eq=False)
class CommutantBasis:
    """Basis of the space of matrices commuting with a given matrix."""

    dim: int
    basis: list


def commutant_basis(a, tol: float = DEFAULT_TOL) -> CommutantBasis:
    """Null-space basis of the commutation operator of *a*.

    The dimension is always at least n, with equality exactly for
    non-derogatory matrices.
    """
    A = as_matrix(a)
    n = A.shape[0]
    op = commutation_operator(A)
    _, s, vh = np.linalg.svd(op)
    # the floor keeps a noise-only operator (nearly scalar A) fully null
    scale = max(s[0] if len(s) else 0.0, np.linalg.norm(A))
    mask = s <= tol * scale
    basis = [vh[i].conj().reshape((n, n), order="F") for i in np.nonzero(mask)[0]]
    return CommutantBasis(dim=int(mask.sum()), basis=basis)


def solve_conjugation(a, b, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Minimal-norm solution Y of AY - YA = B.

    Solves the column-stacked linear system in the least-squares sense and
    rejects the result when B is not in the range of the commutation
    operator (residual above tol * (1 + ||B||)).
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
    if resid > tol * (1.0 + np.linalg.norm(B)):
        raise NoSolutionError(
            f"direction is not in the range of the commutation operator "
            f"(residual {resid:.3e})"
        )
    return Y
