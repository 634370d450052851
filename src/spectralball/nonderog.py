"""Non-derogatory classification by five independent criteria.

A square matrix is non-derogatory when every eigenvalue has geometric
multiplicity one.  Five equivalent numerical characterizations are evaluated
side by side and cross-checked:

* ``cyclic_vector``        -- a randomized vector generates a full Krylov basis
* ``minimal_degree``       -- the minimal polynomial has full degree
* ``eigenspace_dim``       -- every eigenvalue cluster has a 1-dim eigenspace
* ``commutant_dim``        -- the commutant has dimension exactly n
* ``symmetrization_rank``  -- the differential of the symmetrized
                              coordinates has rank n

Disagreement between criteria without a borderline rank decision is reported
as an internal error.  Every criterion is decided on the centered, normalized
M of A = tau I + c M (``matcore._centered``), as the property is invariant
under A -> cA + dI.  ``classify`` solves for the eigenpairs of M once; the
minimal polynomial is searched on one QR of the stacked normalized powers of
M (one SVD of the largest leading block of R when the degree is full, a
bisection over the leading blocks otherwise).  The eigenpairs decide the
eigenspace and commutant criteria where they prove the SVD's rank decision
(separated eigenvalues, well-conditioned eigenvectors); elsewhere one stacked
SVD of M - z I, z the cluster centres, or the n^2 x n^2 operator SVD decides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InternalError, InvalidInputError, NumericError
from .matcore import (
    BORDERLINE_DECADE,
    DEFAULT_TOL,
    SymPoint,
    _centered,
    _rank_by_svd,
    as_matrix,
    commutation_operator,
    elementary_symmetric,
    sigma_differential_matrix,
)

#: Relative gap used to group nearly-equal computed eigenvalues.
CLUSTER_GAP = 1e-6

#: Largest number of random probes for the cyclic-vector criterion.
CYCLIC_TRIALS = 5

_DEFAULT_SEED = 0x5EED


@dataclass
class CriterionResult:
    passed: bool
    diagnostic: float
    borderline: bool


@dataclass(eq=False)
class NonderogReport:
    """Per-criterion results, the minimal polynomial found and the verdict.

    The verdict is the majority of the criteria.  A disagreement with no
    borderline rank decision raises InternalError.  Otherwise the criteria
    without a borderline flag decide, unless they are empty or tied; then
    all five do, and five cannot tie.
    """

    verdict: bool = field(init=False)
    per_criterion: dict
    minimal_polynomial: PolyCoeffs
    borderline: bool = field(init=False)
    tolerances = {"rank": DEFAULT_TOL, "cluster_gap": CLUSTER_GAP, "borderline_decade": BORDERLINE_DECADE}

    def __post_init__(self):
        per = self.per_criterion.values()
        self.borderline = any(c.borderline for c in per)
        pool = [c.passed for c in per]
        if 0 < sum(pool) < len(pool):
            if not self.borderline:
                detail = {k: (c.passed, c.diagnostic) for k, c in self.per_criterion.items()}
                raise InternalError(f"criteria disagree without borderline flags: {detail}")
            clean = [c.passed for c in per if not c.borderline]
            if clean and sum(clean) * 2 != len(clean):
                pool = clean
        self.verdict = sum(pool) * 2 > len(pool)

    def residuals(self, a) -> dict:
        """``minimal_polynomial_norm``: ||p(A)||_F, p the minimal polynomial found."""
        return {"minimal_polynomial_norm": float(np.linalg.norm(self.minimal_polynomial.on_matrix(a)))}


@dataclass(eq=False)
class PolyCoeffs:
    """Monic polynomial, coefficients ascending (last entry exactly 1).

    The coefficients are copied and divided by the leading one, which must be
    finite and nonzero.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=complex, ndmin=1)
        lead = coeffs[-1] if coeffs.size else 0.0
        if lead == 0 or not np.isfinite(lead):
            raise InvalidInputError(f"leading coefficient must be finite and nonzero, got {lead}")
        if lead != 1:
            coeffs /= lead
        coeffs[-1] = 1.0
        self.coeffs = coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z: complex) -> complex:
        return complex(np.polyval(self.coeffs[::-1], z))

    def on_matrix(self, m) -> np.ndarray:
        a = as_matrix(m)
        out = np.zeros_like(a)
        power = np.eye(a.shape[0], dtype=complex)
        for c in self.coeffs[:-1]:
            out = out + c * power
            power = power @ a
        return out + power  # the leading coefficient is 1


def _unit_columns(w):
    """Columns of *w*, polynomials of rising degree in M, at unit 2-norm.  A
    column of norm at most DEFAULT_TOL times the previous one's, and every later
    column, is zero: the roundoff powers of a nilpotent part are no direction.
    """
    norms = np.linalg.norm(w, axis=0)
    drop = np.flatnonzero(norms[1:] <= DEFAULT_TOL * norms[:-1])
    if len(drop):
        norms[drop[0] + 1 :] = np.inf
    return w / norms


def _minimal_polynomial_impl(tau, c, M, mu=None):
    """(ascending coefficients, borderline flag) for A = tau I + c M.

    The degree is searched on M; *mu* are the eigenvalues of M.
    """
    n = M.shape[0]
    powers = [np.eye(n, dtype=complex)]
    for _ in range(1, n):
        powers.append(powers[-1] @ M)
    w = np.column_stack([p.ravel(order="F") for p in powers])
    # the leading (d+1) x (d+1) block of R is the R factor of the first d+1
    # normalized powers, so it has their singular values
    r = np.linalg.qr(_unit_columns(w), mode="r")
    flags = {0: False}  # block 0 is one unit column

    def deficient(d):
        rank, flags[d] = _rank_by_svd(np.linalg.svd(r[: d + 1, : d + 1], compute_uv=False))
        return rank <= d

    # Adding a column never lowers sigma_max nor raises sigma_min (interlacing,
    # Thompson 1972), so sigma_min / sigma_max never grows with d: every block
    # from the first deficient one on is deficient, and a full-rank block is
    # flagged only if the last full-rank block is.  So the first deficient
    # block and the flags up to it are those of a search over d = 1, 2, ...
    if n == 1 or not deficient(n - 1):
        d, borderline = n, flags[n - 1]
    else:
        lo, d = 0, n - 1
        while d - lo > 1:
            mid = (lo + d) // 2
            if deficient(mid):
                d = mid
            else:
                lo = mid
        borderline = flags[d] or flags[d - 1]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        if d < n:
            q = np.linalg.lstsq(w[:, :d], -w[:, d], rcond=None)[0] * c ** np.arange(d, 0, -1)
            # c^d q((z - tau) / c) = sum_k q_k c^(d - k) (z - tau)^k by Horner, descending
            coeffs = np.ones(1, dtype=complex)
            for qk in q[::-1]:
                coeffs = np.append(coeffs, qk)
                coeffs[1:] -= tau * coeffs[:-1]
            coeffs = coeffs[::-1]
        else:  # full degree: the minimal polynomial is the characteristic one
            mu = np.linalg.eigvals(M) if mu is None else mu
            coeffs = SymPoint(elementary_symmetric(tau + c * mu)).char_coefficients()[::-1]
    if not np.isfinite(coeffs).all():
        raise NumericError("minimal polynomial coefficients overflow")
    return coeffs, borderline


def minimal_polynomial(a) -> PolyCoeffs:
    """Monic polynomial of least degree annihilating the matrix.

    Found on the centered, normalized M of A = tau I + c M, at the first
    rank deficiency of the column-normalized, column-vectorized powers
    I, M, ..., M^(n-1): one QR factorization of the whole stack, then one
    SVD of its largest leading block of R, which settles a full degree.  As
    sigma_min / sigma_max of the leading blocks never grows with their size,
    a deficient one is followed by a bisection for the first deficient
    block.  M's coefficients come from a
    least-squares solve of the unnormalized prefix against the next power,
    and A's are c^d q((z - tau) / c).
    """
    coeffs, _ = _minimal_polynomial_impl(*_centered(as_matrix(a), DEFAULT_TOL))
    return PolyCoeffs(coeffs)


def _cluster_eigenvalues(values, radius):
    """Group computed eigenvalues joined by chains of gaps at most the
    cluster threshold; returns a list of ascending index arrays."""
    close = (np.abs(values[:, None] - values) <= CLUSTER_GAP * (1.0 + radius)).tolist()
    groups = []
    for i, row in enumerate(close):
        linked = [g for g in groups if any(row[j] for j in g)]
        groups = [g for g in groups if g not in linked] + [sorted(sum(linked, [i]))]
    return [np.array(g) for g in groups]


def _criterion_cyclic(M, rng):
    n = M.shape[0]
    best_rank, best_borderline = 0, True
    for _ in range(CYCLIC_TRIALS):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        cols = [v]
        for _ in range(n - 1):
            cols.append(M @ cols[-1])
        s = np.linalg.svd(_unit_columns(np.column_stack(cols)), compute_uv=False)
        rank, borderline = _rank_by_svd(s)
        if rank > best_rank or (rank == best_rank and not borderline):
            best_rank, best_borderline = rank, borderline
        # a random probe reaches the largest Krylov rank: retry only a borderline one
        if not best_borderline:
            break
    return CriterionResult(best_rank == n, float(best_rank), best_borderline)


def _criterion_eigenspaces(M, values):
    n = M.shape[0]
    groups = _cluster_eigenvalues(values, float(np.max(np.abs(values))))
    centers = np.array([values[g].mean() for g in groups])
    stack = np.linalg.svd(M - centers[:, None, None] * np.eye(n), compute_uv=False)
    decisions = [_rank_by_svd(s) for s in stack]
    # every cluster has at least one eigenvalue, whatever the rank says
    max_mult = max(max(n - rank, 1) for rank, _ in decisions)
    borderline = any(flag for _, flag in decisions)
    return CriterionResult(max_mult == 1, float(max_mult), borderline)


def _eigenpair_bounds(M, mu, V):
    """``(gaps, spread, v_min, v_max, r, slack, residual)`` of the eigenpairs
    (mu, V) of M, V with unit columns, or None if V is numerically singular:
    gaps_ij = |mu_i - mu_j| (inf on the diagonal), spread the largest, v_min
    <= sigma(V) <= v_max, r the computed MV - V diag(mu), each column within
    slack of the exact one (|mu| <= ||M||_F), residual >= ||MV - V diag(mu)||_F."""
    n, eps = len(mu), np.finfo(float).eps
    gaps = np.abs(mu[:, None] - mu)
    spread = gaps.max()
    np.fill_diagonal(gaps, np.inf)
    s_v = np.linalg.svd(V, compute_uv=False)
    v_max, v_min = s_v[0] * (1 + n * eps), s_v[-1] - n * eps * s_v[0]
    if not v_min > 0.0:
        return None
    r = M @ V - V * mu
    slack = 2 * (n + 2) * eps * np.linalg.norm(M)
    return gaps, spread, v_min, v_max, r, slack, np.linalg.norm(r) + slack * np.sqrt(n)


def _eigenspace_bound(M, mu, bounds):
    """``CriterionResult(True, 1.0, False)`` if the ``_eigenpair_bounds``
    prove that ``_criterion_eigenspaces(M, mu)`` returns it, else None.

    Every gap above the cluster threshold makes each cluster one mu_j, its
    own centre.  As M = V diag(mu) V^-1 + F, A_j = M - mu_j I has sigma_n <=
    ||A_j v_j||, sigma_(n-1) >= gap_j v_min / v_max - residual / v_min (Weyl)
    and sigma_1 in [||A_j||_F / sqrt(n), ||A_j||_F], each up to (n + 1) eps
    ||A_j||_F of rounding (subtraction and SVD); sigma_n and sigma_(n-1) a
    decade clear of the rank threshold give rank n - 1, unflagged.
    """
    if bounds is None or not bounds[0].min() > CLUSTER_GAP * (1.0 + np.abs(mu).max()):
        return None
    gaps, _, v_min, v_max, r, slack, residual = bounds
    if not gaps.min() * v_min**2 > residual * v_max:  # sigma_(n-1) bound <= 0 at the closest pair
        return None
    n, e = len(mu), (len(mu) + 1) * np.finfo(float).eps  # e: the rounding per unit ||A_j||_F
    a_fro = np.linalg.norm(M - mu[:, None, None] * np.eye(n), axis=(1, 2))
    small = np.linalg.norm(r, axis=0) + slack  # >= ||A_j v_j||
    below = small < a_fro * (DEFAULT_TOL / BORDERLINE_DECADE * (n**-0.5 - e) - e)
    large = gaps.min(axis=1) * (v_min / v_max) - residual / v_min
    above = large > a_fro * (DEFAULT_TOL * BORDERLINE_DECADE * (1.0 + e) + e)
    return CriterionResult(True, 1.0, False) if (below & above).all() else None


def _commutant_rank_bound(M, bounds):
    """``(n^2 - n, False)`` if the ``_eigenpair_bounds`` of M prove that
    ``_rank_by_svd`` returns it on the SVD of ``commutation_operator(M)``, else None.

    With M = V diag(mu) V^-1 + F, ||F||_2 <= residual / v_min.
    The operator K of the first term is S L S^-1, with S = V^-T (x) V and L the
    diagonal of the differences mu_p - mu_j: n singular values are 0 and the
    other n^2 - n at least delta / kappa(V)^2, delta the least gap.  Weyl's
    inequality moves each by at most 2 ||F||_2, and the assembly and the SVD
    round them by at most (n^2 + 1) eps ||K||_F.  sigma_max(K) lies between
    max(||K||_F / n, largest gap - 2 ||F||_2) and ||K||_F, where
    ||K||_F^2 = 2n ||M||_F^2 - 2 |tr M|^2.
    """
    if bounds is None:
        return None
    gaps, spread, v_min, v_max, _, _, residual = bounds
    n = M.shape[0]
    shift = 2.0 * residual / v_min
    k_fro = np.sqrt(max(2.0 * n * np.linalg.norm(M) ** 2 - 2.0 * abs(M.trace()) ** 2, 0.0))
    rounding = (n * n + 1) * np.finfo(float).eps * k_fro
    small = shift + rounding
    large = gaps.min() * (v_min / v_max) ** 2 - small
    max_low = max(k_fro / n, spread - shift) - rounding
    below = small < DEFAULT_TOL / BORDERLINE_DECADE * max_low
    above = large > DEFAULT_TOL * BORDERLINE_DECADE * (k_fro + rounding)
    return (n * n - n, False) if below and above else None


def classify(a, rng=None) -> NonderogReport:
    """Classify a matrix as non-derogatory or derogatory.

    All five criteria are evaluated on the centered, normalized M of
    A = tau I + c M, and the report takes their vote.  The randomized
    cyclic-vector probe draws from *rng* (seeded default).
    """
    A = as_matrix(a)
    n = A.shape[0]
    if rng is None:
        rng = np.random.default_rng(_DEFAULT_SEED)
    tau, c, M = _centered(A, DEFAULT_TOL)

    per = {}
    per["cyclic_vector"] = _criterion_cyclic(M, rng)

    mu, vectors = np.linalg.eig(M)
    min_coeffs, mp_borderline = _minimal_polynomial_impl(tau, c, M, mu)
    degree = len(min_coeffs) - 1
    per["minimal_degree"] = CriterionResult(degree == n, float(degree), mp_borderline)

    bounds = _eigenpair_bounds(M, mu, vectors)
    per["eigenspace_dim"] = _eigenspace_bound(M, mu, bounds) or _criterion_eigenspaces(M, mu)

    decision = _commutant_rank_bound(M, bounds)
    if decision is None:
        decision = _rank_by_svd(np.linalg.svd(commutation_operator(M), compute_uv=False))
    op_rank, op_borderline = decision
    commutant_dim = n * n - op_rank
    per["commutant_dim"] = CriterionResult(
        commutant_dim == n, float(commutant_dim), op_borderline
    )

    # row j has size about |mu|^j: its rank is read on unit rows, as the degree is
    s_sig = np.linalg.svd(_unit_columns(sigma_differential_matrix(M).T), compute_uv=False)
    sig_rank, sig_borderline = _rank_by_svd(s_sig)
    per["symmetrization_rank"] = CriterionResult(sig_rank == n, float(sig_rank), sig_borderline)

    return NonderogReport(per, PolyCoeffs(min_coeffs))


def _nonderogatory(A, M) -> bool:
    """Whether the matrix A is non-derogatory; M is its centered, normalized
    M at DEFAULT_TOL (``_centered``).

    One eigensolve of M decides every base whose eigenpairs prove that the
    commutant has dimension n (``_commutant_rank_bound``).  Any other base
    (scalar, repeated, clustered beyond the bound, defective or
    ill-conditioned) gets the verdict of ``classify``.
    """
    if _commutant_rank_bound(M, _eigenpair_bounds(M, *np.linalg.eig(M))) is not None:
        return True
    return classify(A).verdict
