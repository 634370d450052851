"""Non-derogatory classification by six independent criteria.

A square matrix is non-derogatory when every eigenvalue has geometric
multiplicity one.  Six equivalent numerical characterizations are evaluated
side by side and cross-checked:

* ``cyclic_vector``        -- a randomized vector generates a full Krylov basis
* ``minimal_degree``       -- the minimal polynomial has full degree
* ``eigenspace_dim``       -- every eigenvalue cluster has a 1-dim eigenspace
* ``commutant_dim``        -- the commutant has dimension exactly n
* ``symmetrization_rank``  -- the differential of the symmetrized
                              coordinates has rank n
* ``conjugation_orbit_rank`` -- the commutation operator has rank n^2 - n

Disagreement between criteria without a borderline rank decision is reported
as an internal error.

``classify`` solves for the eigenvalues once; the minimal polynomial is
searched on one QR of the stacked normalized powers (one SVD per leading
block of R), and the eigenvalue clusters share one stacked SVD.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InternalError, NumericError
from .matcore import (
    BORDERLINE_DECADE,
    DEFAULT_TOL,
    SymPoint,
    _rank_by_svd,
    _sigma_differential_rows,
    as_matrix,
    commutation_operator,
    elementary_symmetric,
)

CRITERIA = (
    "cyclic_vector",
    "minimal_degree",
    "eigenspace_dim",
    "commutant_dim",
    "symmetrization_rank",
    "conjugation_orbit_rank",
)

#: Relative gap used to group nearly-equal computed eigenvalues.
CLUSTER_GAP = 1e-6

#: Number of random probes for the cyclic-vector criterion.
CYCLIC_TRIALS = 5

_DEFAULT_SEED = 0x5EED


@dataclass
class CriterionResult:
    passed: bool
    diagnostic: float
    borderline: bool = False


@dataclass(eq=False)
class NonderogReport:
    """Verdict, per-criterion results and the minimal polynomial found."""

    verdict: bool
    per_criterion: dict
    tolerances: dict
    minimal_polynomial: PolyCoeffs
    borderline: bool = field(init=False)

    def __post_init__(self):
        self.borderline = any(c.borderline for c in self.per_criterion.values())


@dataclass(eq=False)
class PolyCoeffs:
    """Monic polynomial, coefficients ascending (last entry exactly 1)."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        self.coeffs[-1] = 1.0

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z: complex) -> complex:
        return complex(np.polyval(self.coeffs[::-1], z))

    def on_matrix(self, m) -> np.ndarray:
        a = as_matrix(m)
        out = np.zeros_like(a)
        power = np.eye(a.shape[0], dtype=complex)
        for c in self.coeffs:
            out = out + c * power
            power = power @ a
        return out


def _unit_columns(w):
    """Columns of *w* scaled to unit 2-norm (zero columns stay zero).

    A column whose norm overflows (entries above about 1e154) is divided by
    its largest entry first.  A non-finite entry, from a power of the matrix
    that overflowed, raises NumericError.  Callers ignore overflow warnings.
    """
    norms = np.linalg.norm(w, axis=0)
    if not np.isfinite(norms).all():
        if not np.isfinite(w).all():
            raise NumericError("powers of the matrix overflow")
        huge = ~np.isfinite(norms)
        w = w.copy()
        w[:, huge] /= np.abs(w[:, huge]).max(axis=0)
        norms[huge] = np.linalg.norm(w[:, huge], axis=0)
    norms[norms == 0.0] = 1.0  # a vanished power is already dependent
    return w / norms


@np.errstate(over="ignore", invalid="ignore")  # overflow raises NumericError
def _minimal_polynomial_impl(A, tol, values=None):
    """Return (ascending coeffs, borderline flag); *values* are eigvals(A)."""
    n = A.shape[0]
    powers = [np.eye(n, dtype=complex)]
    for _ in range(1, n):
        powers.append(powers[-1] @ A)
    w = np.column_stack([p.ravel(order="F") for p in powers])
    # the leading (d+1) x (d+1) block of R is the R factor of the first d+1
    # normalized powers, so it has their singular values
    r = np.linalg.qr(_unit_columns(w), mode="r")
    borderline = False
    for d in range(1, n):
        rank, flag = _rank_by_svd(np.linalg.svd(r[: d + 1, : d + 1], compute_uv=False), tol)
        borderline = borderline or flag
        if rank <= d:
            coeffs = np.append(np.linalg.lstsq(w[:, :d], -w[:, d], rcond=None)[0], 1.0)
            break
    else:  # full degree: the minimal polynomial is the characteristic one
        values = np.linalg.eigvals(A) if values is None else values
        coeffs = SymPoint(elementary_symmetric(values)).char_coefficients()[::-1]
    if not np.isfinite(coeffs).all():
        raise NumericError("minimal polynomial coefficients overflow")
    return coeffs, borderline


def minimal_polynomial(a, tol: float = DEFAULT_TOL) -> PolyCoeffs:
    """Monic polynomial of least degree annihilating the matrix.

    Found at the first rank deficiency of the column-normalized,
    column-vectorized powers I, A, ..., A^(n-1): one QR factorization of
    the whole stack, then one SVD of each leading block of R.  The
    coefficients come from a least-squares solve of the unnormalized prefix
    against the next power.
    """
    A = as_matrix(a)
    coeffs, _ = _minimal_polynomial_impl(A, tol)
    return PolyCoeffs(coeffs)


def _cluster_eigenvalues(values, radius):
    """Group computed eigenvalues whose mutual gap is below the cluster
    threshold; returns a list of index arrays."""
    n = len(values)
    thresh = CLUSTER_GAP * (1.0 + radius)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= thresh:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [np.array(g) for g in groups.values()]


@np.errstate(over="ignore", invalid="ignore")  # overflow raises NumericError
def _criterion_cyclic(A, tol, rng):
    n = A.shape[0]
    best_rank, best_borderline = 0, True
    for _ in range(CYCLIC_TRIALS):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        cols = [v]
        for _ in range(n - 1):
            cols.append(A @ cols[-1])
        s = np.linalg.svd(_unit_columns(np.column_stack(cols)), compute_uv=False)
        rank, borderline = _rank_by_svd(s, tol)
        if rank > best_rank or (rank == best_rank and not borderline):
            best_rank, best_borderline = rank, borderline
        if best_rank == n and not best_borderline:
            break
    return CriterionResult(best_rank == n, float(best_rank), best_borderline)


def _criterion_eigenspaces(A, tol, values):
    n = A.shape[0]
    groups = _cluster_eigenvalues(values, float(np.max(np.abs(values))))
    centers = np.array([values[g].mean() for g in groups])
    stack = np.linalg.svd(A - centers[:, None, None] * np.eye(n), compute_uv=False)
    floor = np.linalg.norm(A)
    decisions = [_rank_by_svd(s, tol, floor=floor) for s in stack]
    # every cluster has at least one eigenvalue, whatever the rank says
    max_mult = max(max(n - rank, 1) for rank, _ in decisions)
    borderline = any(flag for _, flag in decisions)
    return CriterionResult(max_mult == 1, float(max_mult), borderline)


def classify(a, tol: float = DEFAULT_TOL, rng=None) -> NonderogReport:
    """Classify a matrix as non-derogatory or derogatory.

    All six criteria are evaluated; the verdict is their majority.  A
    disagreement with no borderline rank decision raises InternalError.
    The randomized cyclic-vector probe draws from *rng* (seeded default).
    """
    A = as_matrix(a)
    n = A.shape[0]
    if rng is None:
        rng = np.random.default_rng(_DEFAULT_SEED)

    per = {}
    per["cyclic_vector"] = _criterion_cyclic(A, tol, rng)

    values = np.linalg.eigvals(A)
    min_coeffs, mp_borderline = _minimal_polynomial_impl(A, tol, values)
    degree = len(min_coeffs) - 1
    per["minimal_degree"] = CriterionResult(degree == n, float(degree), mp_borderline)

    per["eigenspace_dim"] = _criterion_eigenspaces(A, tol, values)

    op = commutation_operator(A)
    s_op = np.linalg.svd(op, compute_uv=False)
    op_rank, op_borderline = _rank_by_svd(s_op, tol, floor=np.linalg.norm(A))
    commutant_dim = n * n - op_rank
    per["commutant_dim"] = CriterionResult(
        commutant_dim == n, float(commutant_dim), op_borderline
    )

    s_sig = np.linalg.svd(_sigma_differential_rows(A, values), compute_uv=False)
    sig_rank, sig_borderline = _rank_by_svd(s_sig, tol)
    per["symmetrization_rank"] = CriterionResult(
        sig_rank == n, float(sig_rank), sig_borderline
    )

    per["conjugation_orbit_rank"] = CriterionResult(
        op_rank == n * n - n, float(op_rank), op_borderline
    )

    votes = sum(1 for c in per.values() if c.passed)
    if votes in (0, len(per)):
        verdict = votes > 0
    else:
        if not any(c.borderline for c in per.values()):
            detail = {k: (c.passed, c.diagnostic) for k, c in per.items()}
            raise InternalError(f"criteria disagree without borderline flags: {detail}")
        clean = [c.passed for c in per.values() if not c.borderline]
        pool = clean if clean and sum(clean) * 2 != len(clean) else [
            c.passed for c in per.values()
        ]
        if sum(pool) * 2 == len(pool):
            raise InternalError("criteria are tied; cannot form a verdict")
        verdict = sum(pool) * 2 > len(pool)

    tolerances = {"rank": tol, "cluster_gap": CLUSTER_GAP, "borderline_decade": BORDERLINE_DECADE}
    return NonderogReport(verdict, per, tolerances, PolyCoeffs(min_coeffs))
