"""Pick-matrix interpolation and discontinuity gap certificates.

Feasibility of disk interpolation problems via positive semidefiniteness of
the Pick matrix, recovery of the unique Blaschke-product solution in the
singular case, a boundary search producing a Blaschke product through scaled
roots of unity, the induced analytic disc into the symmetrized polydisc, and
the resulting certified gap between the spectral radius and the generic
two-point distance limit at scalar base points, and the two-sided
discontinuity report built on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DomainError,
    InternalError,
    InvalidInputError,
    NumericError,
    PreconditionError,
)
from .geometry import disk_automorphism, kobayashi_scalar_base, lempert_scalar_base
from .matcore import DEFAULT_TOL, as_matrix, elementary_symmetric, spectrum

#: Descending step of the coarse feasibility scan.
COARSE_STEP = 1e-2

#: Width of the final bisection bracket.
BISECT_WIDTH = 1e-10

#: Most midpoints the bisection tests.
_BISECT_STEPS = 200

#: Levels of the bisection tree solved together in one stacked call.
_BISECT_LEVELS = 3

_CIRCLE_SAMPLES = 256


@dataclass(eq=False)
class PickProblem:
    """Disk interpolation data: distinct nodes in D and target values.

    Nodes and targets have shape ``(n,)``, or ``(..., n)`` for a stack of
    problems of the same size; every problem in the stack is validated.
    """

    nodes: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        x = self.nodes = np.atleast_1d(np.asarray(self.nodes, dtype=complex))
        w = self.targets = np.atleast_1d(np.asarray(self.targets, dtype=complex))
        if x.shape != w.shape:
            raise InvalidInputError("nodes and targets must have equal length")
        if x.size == 0:
            raise InvalidInputError("interpolation problem is empty")
        if not (np.isfinite(x).all() and np.isfinite(w).all()):
            raise InvalidInputError("nodes and targets must be finite")
        ax = np.abs(x)
        if ax.max() >= 1.0:
            raise InvalidInputError("nodes must lie in the open unit disk")
        j, k = _pairs(x.shape[-1])
        if (np.abs(x[..., j] - x[..., k]) <= 1e-12 * (1.0 + ax[..., j])).any():
            raise InvalidInputError("interpolation nodes must be distinct")

    @property
    def size(self) -> int:
        return self.nodes.shape[-1]

    @cached_property
    def _factored(self):
        """Pick matrix with its eigenvalues (ascending) and eigenvectors,
        computed once per problem."""
        m = pick_matrix(self)
        return (m, *np.linalg.eigh(m))


_PAIRS: dict = {}


def _pairs(n):
    """Index pairs (j, k) with j < k among n nodes, built once per n."""
    pairs = _PAIRS.get(n)
    if pairs is None:
        pairs = np.triu_indices(n, 1)
        for index in pairs:
            index.flags.writeable = False
        _PAIRS[n] = pairs
    return pairs


class BlaschkeProduct:
    """Finite Blaschke product: unimodular constant times disk factors.

    Evaluates u * prod_i (z - z_i) / (1 - conj(z_i) z); unimodular on the
    unit circle, modulus below one inside the open disk.
    """

    def __init__(self, unimodular: complex, zeros=()):
        u = complex(unimodular)
        if abs(abs(u) - 1.0) > 1e-6:
            raise InvalidInputError("leading constant must be unimodular")
        self.unimodular = u / abs(u)
        self.zeros = np.asarray(zeros, dtype=complex).ravel()
        if self.zeros.size and np.max(np.abs(self.zeros)) >= 1.0:
            raise InvalidInputError("zeros must lie in the open unit disk")

    @property
    def order(self) -> int:
        return len(self.zeros)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.full(z.shape, self.unimodular, dtype=complex)
        for w in self.zeros:
            out = out * (z - w) / (1.0 - np.conj(w) * z)
        if z.shape == ():
            return complex(out)
        return out

    def prepend_zero_at_origin(self) -> "BlaschkeProduct":
        """The product z -> z * B(z)."""
        return BlaschkeProduct(self.unimodular, np.concatenate(([0.0], self.zeros)))

    def __repr__(self):
        return f"BlaschkeProduct(unimodular={self.unimodular!r}, zeros={self.zeros!r})"


@dataclass(eq=False)
class ZeroInterpolant:
    """Degenerate constant-zero interpolant (not a Blaschke product)."""

    order: int = 0
    degenerate: bool = True

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape, dtype=complex)
        return complex(out) if z.shape == () else out


def pick_matrix(problem: PickProblem) -> np.ndarray:
    """Hermitian Pick matrix of an interpolation problem.

    Entry (j, k) is (1 - w_j conj(w_k)) / (1 - x_j conj(x_k)); the problem
    admits a holomorphic disk-to-disk solution exactly when this matrix is
    positive semidefinite.  A stacked problem with data of shape ``(..., n)``
    gives the stack ``(..., n, n)`` of its Pick matrices, each equal to the
    matrix of its own slice.
    """
    x = problem.nodes
    w = problem.targets
    num = 1.0 - w[..., :, None] * np.conj(w)[..., None, :]
    den = 1.0 - x[..., :, None] * np.conj(x)[..., None, :]
    m = num / den
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def is_psd(m, tol: float = DEFAULT_TOL) -> bool:
    """Positive semidefiniteness of a Hermitian matrix.

    True iff the smallest eigenvalue is at least -tol * (1 + largest).
    Rejects input that is not Hermitian within tolerance.
    """
    M = as_matrix(m)
    defect = np.linalg.norm(M - M.conj().T)
    if defect > 1e-8 * (1.0 + np.linalg.norm(M)):
        raise InvalidInputError("matrix is not Hermitian")
    vals = np.linalg.eigvalsh((M + M.conj().T) / 2.0)
    return bool(vals[0] >= -tol * (1.0 + max(vals[-1], 0.0)))


def _rational_from_nullvector(problem, c):
    """Numerator/denominator coefficients (ascending) of the interpolant.

    f(z) = sum_k c_k k_x(z) / sum_k c_k conj(w_k) k_x(z) with the
    reproducing kernel k_x(z) = 1 / (1 - conj(x) z); clearing denominators
    gives two polynomials of degree below the node count.
    """
    n = problem.size
    # row k: conj(x_l) for l != k, and the ascending coefficients of
    # prod_{l != k} (1 - conj(x_l) z), one factor at a time for every k
    others = np.broadcast_to(np.conj(problem.nodes), (n, n))[~np.eye(n, dtype=bool)]
    others = others.reshape(n, n - 1)
    polys = np.zeros((n, n), dtype=complex)
    polys[:, 0] = 1.0
    for j in range(n - 1):
        polys[:, 1 : j + 2] -= others[:, j, None] * polys[:, : j + 1]
    return c @ polys, (c * np.conj(problem.targets)) @ polys


def degenerate_interpolant(problem: PickProblem, nullvec, tol: float = DEFAULT_TOL):
    """Unique interpolant of a singular positive-semidefinite Pick problem.

    Given a null vector of the (PSD, singular) Pick matrix, reconstructs the
    Blaschke product of order rank(Pick matrix) solving the problem and
    validates interpolation and circle unimodularity numerically.  All-zero
    target data yields the flagged constant-zero interpolant.
    """
    m, vals, _ = problem._factored
    scale = 1.0 + max(vals[-1], 0.0)
    if vals[0] < -1e-6 * scale:
        raise PreconditionError("Pick matrix is not positive semidefinite")
    if vals[0] > 1e-6 * scale:
        raise PreconditionError("Pick matrix is not singular")
    c = np.atleast_1d(np.asarray(nullvec, dtype=complex))
    norm = np.linalg.norm(c)
    if len(c) != problem.size or norm == 0.0:
        raise InvalidInputError("null vector has the wrong shape")
    c = c / norm
    resid = np.linalg.norm(m @ c)
    if resid > 1e-5 * scale:
        raise PreconditionError(f"vector is not in the null space ({resid:.3e})")

    if np.max(np.abs(problem.targets)) <= tol:
        return ZeroInterpolant()

    num, den = _rational_from_nullvector(problem, c)

    grid = _roots_of_unity(_CIRCLE_SAMPLES)
    den_vals = np.polyval(den[::-1], grid)
    if np.min(np.abs(den_vals)) <= 1e-12 * max(1.0, np.max(np.abs(den_vals))):
        raise NumericError("interpolant denominator vanishes on the sample grid")

    # np.roots drops leading zero coefficients itself
    roots_num = np.roots(num[::-1]).tolist()
    roots_den = np.roots(den[::-1]).tolist()
    # cancel root pairs shared by numerator and denominator
    keep = []
    used = [False] * len(roots_den)
    for r in roots_num:
        hit = None
        for i, rd in enumerate(roots_den):
            if not used[i] and abs(r - rd) <= 1e-8 * (1.0 + abs(r)):
                hit = i
                break
        if hit is None:
            keep.append(r)
        else:
            used[hit] = True
    zeros = np.array([r for r in keep if abs(r) < 1.0], dtype=complex)

    f_grid = np.polyval(num[::-1], grid) / den_vals
    shape = np.ones_like(grid)
    for z in zeros:
        shape *= (grid - z) / (1.0 - np.conj(z) * grid)
    ratios = f_grid / shape
    u = ratios.mean()
    if abs(abs(u) - 1.0) > 1e-6 or np.max(np.abs(ratios - u)) > 1e-6:
        raise NumericError("recovered interpolant is not a Blaschke product")
    bp = BlaschkeProduct(u, zeros)

    interp = np.max(np.abs(bp(problem.nodes) - problem.targets))
    if interp > 1e-6:
        raise NumericError(f"interpolation residual {interp:.3e} is too large")
    # |bp| = |shape|, since bp is shape times a unimodular constant
    circle = np.max(np.abs(np.abs(shape) - 1.0))
    if circle > 1e-8:
        raise NumericError("interpolant is not unimodular on the circle")
    return bp


@dataclass(eq=False)
class BoundarySolution:
    """Result of the roots-of-unity boundary interpolation search."""

    beta: complex
    blaschke: object
    degenerate: bool
    interpolation_residual: float
    smallest_eigenvalue: float


def _roots_of_unity(n):
    return np.exp(2j * np.pi * np.arange(n) / n)


def _pick_problem_at(lambdas, eps, radii):
    """Reduced Pick problem at one radius, or the stack of them for an array."""
    nodes = eps * np.asarray(radii)[..., None]
    targets = lambdas / nodes
    return PickProblem(nodes, targets)


def _smallest_eigs(lambdas, eps, radii):
    """Smallest Pick eigenvalue at each radius of an array: one stacked solve."""
    return np.linalg.eigvalsh(pick_matrix(_pick_problem_at(lambdas, eps, radii)))[:, 0]


def _bisect(lambdas, eps, r_hi, r_lo):
    """Lower end of the bisection bracket of the feasibility boundary.

    The test at each midpoint is the sign of the smallest Pick eigenvalue
    (``>= 0`` is feasible).  Each round solves every midpoint of the next
    ``_BISECT_LEVELS`` levels of the bisection tree in one stacked call and
    then walks down the tree: the walk tests the same floating-point
    midpoints, in the same order, as one midpoint at a time would, so the
    bracket is the same to the last bit.
    """
    steps = 0
    while steps < _BISECT_STEPS and r_hi - r_lo > BISECT_WIDTH:
        mids = []
        brackets = [(r_hi, r_lo)]
        for i in range(2**_BISECT_LEVELS - 1):
            hi, lo = brackets[i]
            mid = (hi + lo) / 2.0
            mids.append(mid)
            # heap order: child 2i + 1 if mid is feasible, 2i + 2 if not
            brackets += [(mid, lo), (hi, mid)]
        feasible = _smallest_eigs(lambdas, eps, np.array(mids)) >= 0.0
        node = 0
        while node < len(mids) and steps < _BISECT_STEPS and r_hi - r_lo > BISECT_WIDTH:
            if feasible[node]:
                r_hi, node = mids[node], 2 * node + 1
            else:
                r_lo, node = mids[node], 2 * node + 2
            steps += 1
    return r_lo


def blaschke_through_roots_of_unity(lambdas, tol: float = DEFAULT_TOL) -> BoundarySolution:
    """Blaschke product through scaled roots of unity hitting given values.

    For eigenvalues lambda_1..lambda_n in the open disk, finds beta in the
    disk and a Blaschke product B of order at most n with B(0) = 0 and
    B(eps_j beta) = lambda_j at the n-th roots of unity eps_j.  The radius
    |beta| is located where the Pick matrix of the reduced data (which
    depends on |beta| only) first turns singular positive semidefinite.
    A coarse descending scan from just below 1 solves the whole grid in one
    stacked eigenvalue call; bisection on the sign of the smallest
    eigenvalue then follows the sequential path, solving the midpoints of
    several levels per stacked call, and certifies the lower (infeasible)
    end of its final bracket.  All-zero data is returned as the degenerate
    flagged case with beta = 0.
    """
    lam = np.atleast_1d(np.asarray(lambdas, dtype=complex))
    n = len(lam)
    if n == 0:
        raise InvalidInputError("no values to interpolate")
    if not np.all(np.isfinite(lam)):
        raise InvalidInputError("values must be finite")
    if np.max(np.abs(lam)) >= 1.0:
        raise DomainError("values must lie in the open unit disk")
    if np.max(np.abs(lam)) <= tol:
        return BoundarySolution(
            beta=0.0 + 0.0j,
            blaschke=ZeroInterpolant(),
            degenerate=True,
            interpolation_residual=0.0,
            smallest_eigenvalue=0.0,
        )
    eps = _roots_of_unity(n)
    lo = float(np.max(np.abs(lam))) * (1.0 + 1e-12) + 1e-14
    hi = 1.0 - 1e-6
    if lo >= hi:
        raise NumericError("no search bracket: spectrum reaches the boundary")

    grid = np.arange(hi, lo, -COARSE_STEP)
    grid = np.append(grid, lo)
    vals = _smallest_eigs(lam, eps, grid)

    # lowest feasibility transition: last sign change scanning downward
    crossings = np.flatnonzero((vals[:-1] >= 0.0) & (vals[1:] < 0.0))
    if crossings.size == 0:
        if np.all(vals >= 0.0):
            # feasible all the way down: boundary point at the bracket bottom
            r0 = lo
        else:
            raise NumericError("feasibility scan found no positive region")
    else:
        i = crossings[-1]
        # lower endpoint: the certified radius never exceeds the true boundary
        r0 = _bisect(lam, eps, grid[i], grid[i + 1])

    problem = _pick_problem_at(lam, eps, r0)
    _, evals, evecs = problem._factored
    inner = degenerate_interpolant(problem, evecs[:, 0], tol=tol)
    if isinstance(inner, ZeroInterpolant):
        bp = inner
        residual = float(np.max(np.abs(lam)))
    else:
        bp = inner.prepend_zero_at_origin()
        residual = float(np.max(np.abs(bp(eps * r0) - lam)))
    if bp.order > n:
        raise InternalError("recovered product exceeds the admissible order")
    if residual > 1e-6:
        raise NumericError(f"boundary interpolation residual {residual:.3e}")
    return BoundarySolution(
        beta=complex(r0),
        blaschke=bp,
        degenerate=False,
        interpolation_residual=residual,
        smallest_eigenvalue=float(evals[0]),
    )


class SymmetrizedDisc:
    """Analytic disc into the symmetrized polydisc induced by a Blaschke
    product vanishing at the origin.

    Evaluates the elementary symmetric functions of B at the n-th roots of
    an arbitrary n-th root of the parameter; the value does not depend on
    the chosen root because changing it permutes the arguments.
    """

    def __init__(self, blaschke, n: int, tol: float = 1e-9):
        if blaschke.order > n:
            raise PreconditionError("product order must not exceed n")
        if not np.any(np.abs(blaschke.zeros) <= tol):
            raise PreconditionError("product must vanish at the origin")
        self.blaschke = blaschke
        self.n = n
        self._eps = _roots_of_unity(n)
        self._verify(tol)

    def _value(self, zeta, branch=0):
        zeta = complex(zeta)
        if zeta == 0.0:
            return np.zeros(self.n, dtype=complex)
        root = np.exp(np.log(zeta) / self.n) * self._eps[branch]
        return elementary_symmetric(self.blaschke(self._eps * root))

    def __call__(self, zeta):
        return self._value(zeta)

    def branch_spread(self, zeta) -> float:
        """Largest coordinatewise deviation across all root branches."""
        base = self._value(zeta, 0)
        spread = 0.0
        for b in range(1, self.n):
            spread = max(spread, float(np.max(np.abs(self._value(zeta, b) - base))))
        return spread

    def _verify(self, tol):
        rng = np.random.default_rng(1234)
        pts = 0.95 * np.sqrt(rng.uniform(0.01, 1.0, 16)) * np.exp(
            2j * np.pi * rng.uniform(size=16)
        )
        worst = max(self.branch_spread(z) for z in pts)
        if worst > tol:
            raise InternalError(
                f"symmetrized disc depends on the root branch ({worst:.3e})"
            )


def gn_disc_from_blaschke(blaschke, n: int) -> SymmetrizedDisc:
    """Analytic disc into the symmetrized polydisc from a Blaschke product
    of order at most n vanishing at 0; the disc itself vanishes at 0."""
    return SymmetrizedDisc(blaschke, n)


@dataclass(eq=False)
class GapCertificate:
    """Certified comparison of r(B) with the generic distance limit at 0.

    ``upper`` = |beta|^n bounds the two-point distance limit from above;
    ``radius`` = r(B) is the value at the scalar base point itself.  A
    strictly positive gap occurs exactly when the eigenvalues of B are not
    all equal.
    """

    beta: complex
    blaschke: object
    upper: float
    radius: float
    is_gap: bool
    degenerate: bool = False
    interpolation_residual: float = 0.0


def gap_certificate(b, tol: float = DEFAULT_TOL) -> GapCertificate:
    """Run the boundary interpolation search on the spectrum of B.

    Returns upper = |beta|^n, radius = r(B) and the gap verdict
    upper < radius - 1e-9.  A spectral radius of zero short-circuits to the
    degenerate all-zero certificate.
    """
    B = as_matrix(b)
    sp = spectrum(B)
    if not sp.in_spectral_ball():
        raise DomainError("matrix lies outside the spectral ball")
    n = B.shape[0]
    if sp.radius <= tol:
        return GapCertificate(
            beta=0.0 + 0.0j,
            blaschke=None,
            upper=0.0,
            radius=sp.radius,
            is_gap=False,
            degenerate=True,
        )
    sol = blaschke_through_roots_of_unity(sp.values, tol=tol)
    upper = float(abs(sol.beta) ** n)
    return GapCertificate(
        beta=sol.beta,
        blaschke=sol.blaschke,
        upper=upper,
        radius=sp.radius,
        is_gap=bool(upper < sp.radius - 1e-9),
        degenerate=sol.degenerate,
        interpolation_residual=sol.interpolation_residual,
    )


def discontinuity_report(b, t: complex = 0.0, tol: float = DEFAULT_TOL) -> dict:
    """Two-sided discontinuity report at the scalar base point tI.

    The two-point distance at tI is compared with the certified upper bound
    of its limit along generic perturbations of the base; the infinitesimal
    metric at tI is compared with its exact generic limit |tr B| / n, which
    is reported at t = 0 only.  Jumps vanish exactly when the eigenvalues of
    B are equal (within tolerance): equality forces both limits to agree
    with the base values, so the report pins the jumps to zero rather than
    carrying search noise into them.
    """
    B = as_matrix(b)
    t = complex(t)
    n = B.shape[0]
    sp = spectrum(B)
    if not sp.in_spectral_ball():
        raise DomainError("matrix lies outside the spectral ball")

    lempert_value = lempert_scalar_base(t, B)
    kobayashi_value = kobayashi_scalar_base(t, B)

    shifted = disk_automorphism(t, B) if t != 0.0 else B
    cert = gap_certificate(shifted, tol=tol)

    values = sp.values
    spread = np.max(np.abs(values[:, None] - values[None, :]))
    eigenvalues_equal = bool(spread <= 1e-9 * (1.0 + sp.radius))

    if t == 0.0:
        kobayashi_limit = float(abs(np.trace(B))) / n
    else:
        kobayashi_limit = None

    if eigenvalues_equal:
        jump_lempert = 0.0
        jump_kobayashi = 0.0 if kobayashi_limit is not None else None
    else:
        jump_lempert = max(lempert_value - cert.upper, 0.0)
        jump_kobayashi = (
            max(kobayashi_value - kobayashi_limit, 0.0)
            if kobayashi_limit is not None
            else None
        )

    return {
        "lempert": {
            "value_at_scalar_base": float(lempert_value),
            "generic_limit_upper": float(cert.upper),
        },
        "kobayashi": {
            "value_at_scalar_base": float(kobayashi_value),
            "generic_limit": kobayashi_limit,
        },
        "jump_lempert": jump_lempert,
        "jump_kobayashi": jump_kobayashi,
        "eigenvalues_equal": eigenvalues_equal,
    }
