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
under A -> cA + dI.  ``classify`` solves for the eigenpairs of M once, and
the minimal polynomial is searched on one QR of the stacked normalized powers
of M.  A first pass takes one SVD of a (3, n, n) stack: the first cyclic
probe's unit-column Krylov matrix, the largest leading block of R and the
eigenvector matrix.  It settles a probe that is not borderline, a full degree
and the conditioning of the eigenvectors; a borderline probe takes the next
one, and a deficient degree bisects over the leading blocks, each with its
own SVD.  The eigenpairs decide the eigenspace and commutant criteria where
they prove the SVD's rank decision (separated eigenvalues, well-conditioned
eigenvectors); elsewhere one stacked SVD of M - z I, z the cluster centres,
or the n^2 x n^2 operator SVD decides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import InternalError, InvalidInputError, NumericError
from .matcore import (
    BORDERLINE_DECADE,
    DEFAULT_TOL,
    PAIRING_TOL,
    SymPoint,
    _centered,
    _frobenius,
    _rank_by_svd,
    _scaled_down,
    as_matrix,
    commutation_operator,
    elementary_symmetric,
    sigma_differential_matrix,
)

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
    tolerances = {"rank": DEFAULT_TOL, "cluster_gap": PAIRING_TOL, "borderline_decade": BORDERLINE_DECADE}

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
        """``minimal_polynomial_norm``: ||p(A)||_F, p the minimal polynomial found.

        Taken as 2^(ed) ||q(B)||_F on B = A 2^-e (``_scaled_down``), with
        q_k = p_k 2^(e(k - d)) and d the degree: in the normal range every
        step rounds as on A, and no power of A overflows.  NumericError when
        the residual itself does."""
        b, e = _scaled_down(as_matrix(a))
        p = self.minimal_polynomial.coeffs
        d = len(p) - 1
        shifts = np.repeat(e * np.arange(-d, 1), 2)  # for the real and imaginary parts
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            q_b = PolyCoeffs(np.ldexp(p.view(float), shifts).view(complex)).on_matrix(b)
            norm = np.ldexp(_frobenius(q_b), e * d)
        if not np.isfinite(norm):
            raise NumericError("minimal polynomial residual p(A) overflows")
        return {"minimal_polynomial_norm": float(norm)}


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


def _norms(x, axis):
    """``np.linalg.norm(x, axis=axis)``: numpy's own formula, without the
    dispatch of its arguments."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=axis))


def _norm(x):
    """``np.linalg.norm(x)`` of a complex array: numpy's own formula, without
    the dispatch of its arguments."""
    x = x.ravel(order="K")
    return np.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _unit_columns(w):
    """Columns of *w*, polynomials of rising degree in M, at unit 2-norm.  A
    column of norm at most DEFAULT_TOL times the previous one's, and every later
    column, is zero: the roundoff powers of a nilpotent part are no direction.
    """
    norms = _norms(w, 0)
    if len(norms) > 1:
        drop = norms[1:] <= DEFAULT_TOL * norms[:-1]
        first = drop.argmax()
        if drop[first]:
            norms[first + 1 :] = np.inf
    return w / norms


@cache
def _strictly_lower(n):
    """The read-only mask of the entries below the diagonal of an n x n matrix."""
    mask = np.tri(n, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _power_stack(M):
    """(w, r): column k of w is M^k raveled in column-major order, for k < n,
    and r is the R factor of its ``_unit_columns``."""
    n = M.shape[0]
    # w[j n + i, k] = M^k[i, j]
    w = np.empty((n * n, n), dtype=complex)
    cube = w.reshape(n, n, n)
    power = np.eye(n, dtype=complex)
    cube[:, :, 0] = power
    for k in range(1, n):
        power = power @ M
        cube[:, :, k] = power.T
    # mode="r" is the raw factor's leading block through np.triu, which
    # builds its mask anew on every call: zeroing with a cached one gives
    # the same bytes in the same (C) order
    h, _ = np.linalg.qr(_unit_columns(w), mode="raw")
    r = h.T[:n]
    r[_strictly_lower(n)] = 0.0
    return w, r


def _minimal_polynomial_impl(tau, c, M, w, r, s, mu=None):
    """(ascending coefficients, borderline flag) for A = tau I + c M.

    The degree is searched on M: (w, r) is its ``_power_stack`` and *s* holds
    the singular values of r; *mu* are the eigenvalues of M.
    """
    n = M.shape[0]
    # the leading (d+1) x (d+1) block of R is the R factor of the first d+1
    # normalized powers, so it has their singular values
    flags = {0: False}  # block 0 is one unit column

    def deficient(d):
        block = s if d == n - 1 else np.linalg.svd(r[: d + 1, : d + 1], compute_uv=False)
        rank, flags[d] = _rank_by_svd(block)
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
    tau, c, M = _centered(as_matrix(a), DEFAULT_TOL)
    w, r = _power_stack(M)
    coeffs, _ = _minimal_polynomial_impl(tau, c, M, w, r, np.linalg.svd(r, compute_uv=False))
    return PolyCoeffs(coeffs)


def _cluster_eigenvalues(values, radius):
    """Group computed eigenvalues joined by chains of gaps at most
    PAIRING_TOL * (1 + radius); returns a list of ascending index arrays."""
    close = (np.abs(values[:, None] - values) <= PAIRING_TOL * (1.0 + radius)).tolist()
    groups = []
    for i, row in enumerate(close):
        linked = [g for g in groups if any(row[j] for j in g)]
        groups = [g for g in groups if g not in linked] + [sorted(sum(linked, [i]))]
    return [np.array(g) for g in groups]


def _draw_probes(rng, n):
    """The CYCLIC_TRIALS random probes of size n, drawn from *rng* one at a
    time: a probe that decides ends the draws."""
    for _ in range(CYCLIC_TRIALS):
        yield rng.standard_normal(n) + 1j * rng.standard_normal(n)


@cache
def _default_probes(n):
    """The probes of size n of ``default_rng(_DEFAULT_SEED)``, as the
    read-only rows of one array."""
    probes = np.array(list(_draw_probes(np.random.default_rng(_DEFAULT_SEED), n)))
    probes.flags.writeable = False
    return probes


def _krylov(M, v):
    """The ``_unit_columns`` of the Krylov matrix [v, Mv, ..., M^(n-1) v]."""
    n = len(v)
    rows = np.empty((n, n), dtype=complex)
    rows[0] = v
    for k in range(1, n):
        rows[k] = M @ rows[k - 1]
    # numpy sums the columns of a C-ordered array row by row, of an F-ordered
    # one pairwise: in C order the norms round as those of a column stack
    return _unit_columns(np.ascontiguousarray(rows.T))


def _cyclic_rank(M, probes, s):
    """Krylov rank of M.  *s* are the singular values of the first probe's
    ``_krylov`` matrix; the next probe is taken from *probes* only while the
    best decision is borderline."""
    n = M.shape[0]
    best_rank, best_borderline = 0, True
    while True:
        rank, borderline = _rank_by_svd(s)
        if rank > best_rank or (rank == best_rank and not borderline):
            best_rank, best_borderline = rank, borderline
        # a random probe reaches the largest Krylov rank: retry only a borderline one
        v = next(probes, None) if best_borderline else None
        if v is None:
            return CriterionResult(best_rank == n, float(best_rank), best_borderline)
        s = np.linalg.svd(_krylov(M, v), compute_uv=False)


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


def _eigenpair_bounds(M, mu, V, s_v):
    """``(gaps, spread, v_min, v_max, r, slack, residual)`` of the eigenpairs
    (mu, V) of M, V with unit columns and singular values *s_v*, or None if V
    is numerically singular:
    gaps_ij = |mu_i - mu_j| (inf on the diagonal), spread the largest, v_min
    <= sigma(V) <= v_max, r the computed MV - V diag(mu), each column within
    slack of the exact one (|mu| <= ||M||_F), residual >= ||MV - V diag(mu)||_F."""
    n, eps = len(mu), np.finfo(float).eps
    gaps = np.abs(mu[:, None] - mu)
    spread = gaps.max()
    np.fill_diagonal(gaps, np.inf)
    v_max, v_min = s_v[0] * (1 + n * eps), s_v[-1] - n * eps * s_v[0]
    if not v_min > 0.0:
        return None
    r = M @ V - V * mu
    slack = 2 * (n + 2) * eps * _norm(M)
    return gaps, spread, v_min, v_max, r, slack, _norm(r) + slack * np.sqrt(n)


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
    if bounds is None or not bounds[0].min() > PAIRING_TOL * (1.0 + np.abs(mu).max()):
        return None
    gaps, _, v_min, v_max, r, slack, residual = bounds
    if not gaps.min() * v_min**2 > residual * v_max:  # sigma_(n-1) bound <= 0 at the closest pair
        return None
    n, e = len(mu), (len(mu) + 1) * np.finfo(float).eps  # e: the rounding per unit ||A_j||_F
    a_fro = _norms(M - mu[:, None, None] * np.eye(n), (1, 2))
    small = _norms(r, 0) + slack  # >= ||A_j v_j||
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
    k_fro = np.sqrt(max(2.0 * n * _norm(M) ** 2 - 2.0 * abs(M.trace()) ** 2, 0.0))
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
    cyclic-vector probes are drawn from *rng*.  Without one they are fixed
    per size: the first draws of a generator seeded with ``_DEFAULT_SEED``,
    made once for each n.  One stacked SVD serves the first probe, a full
    degree and the bounds of the eigenpairs.
    """
    A = as_matrix(a)
    n = A.shape[0]
    tau, c, M = _centered(A, DEFAULT_TOL)

    # the first pass: one SVD of the first probe's Krylov matrix, the full
    # leading block of the powers' R and the eigenvectors of M
    probes = iter(_default_probes(n)) if rng is None else _draw_probes(rng, n)
    krylov = _krylov(M, next(probes))
    mu, vectors = np.linalg.eig(M)
    w, r = _power_stack(M)
    s_krylov, s_r, s_v = np.linalg.svd(np.array([krylov, r, vectors]), compute_uv=False)

    per = {"cyclic_vector": _cyclic_rank(M, probes, s_krylov)}
    min_coeffs, mp_borderline = _minimal_polynomial_impl(tau, c, M, w, r, s_r, mu)
    degree = len(min_coeffs) - 1
    per["minimal_degree"] = CriterionResult(degree == n, float(degree), mp_borderline)

    bounds = _eigenpair_bounds(M, mu, vectors, s_v)
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


def _nonderogatory(A, M, mu, vectors) -> bool:
    """Whether the matrix A is non-derogatory; M is its centered, normalized
    M at DEFAULT_TOL (``_centered``) and (mu, vectors) its eig.

    The eigenpairs decide every base for which they prove that the
    commutant has dimension n (``_commutant_rank_bound``).  Any other base
    (scalar, repeated, clustered beyond the bound, defective or
    ill-conditioned) gets the verdict of ``classify``.
    """
    bounds = _eigenpair_bounds(M, mu, vectors, np.linalg.svd(vectors, compute_uv=False))
    if _commutant_rank_bound(M, bounds) is not None:
        return True
    return classify(A).verdict
