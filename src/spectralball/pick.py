"""Pick-matrix interpolation and discontinuity gap certificates.

Feasibility of disk interpolation problems via positive semidefiniteness of
the Pick matrix, recovery of the unique Blaschke-product solution in the
singular case, a boundary search producing a Blaschke product through scaled
roots of unity, the resulting certified gap between the spectral radius and
the generic two-point distance limit at scalar base points, and the
two-sided discontinuity report built on it.

The boundary search builds the Pick matrices of its reduced problems in
closed form, for a whole array of radii at once, so its coarse scan and each
round of its bracketed secant search are one broadcast and one stacked
``eigvalsh``; only the certified radius goes through a validated
``PickProblem``.  Its Blaschke product comes from the unitary colligation
that ``degenerate_interpolant`` builds on that problem's ``eigh``: one
least-squares solve and one ``eigvals`` of the state matrix, whose
conjugated eigenvalues are the zeros.  The product is unimodular on the
circle by construction, so no circle samples are checked.  When
lambda_j = c eps_j^k for one c and one k in 1..n, up to the rounding margin
PICK_MARGIN * |c|, the search is skipped: |beta| = |c|^(1/k) and
B(z) = (c / |c|) z^k.  The search returns the ``GapCertificate`` itself,
which ``gap_certificate`` and ``discontinuity_report`` take on the spectrum
of B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DomainError,
    InternalError,
    InvalidInputError,
    NumericError,
    PreconditionError,
)
from .geometry import _disk_point, _kobayashi_at, _lempert_at, _mobius_shift, disk_automorphism
from .matcore import DEFAULT_TOL, _complex_array, as_matrix, spectrum

#: Descending step of the coarse feasibility scan.
COARSE_STEP = 1e-2

#: Width of the final search bracket.
BISECT_WIDTH = 1e-10

#: Rounding margin of the smallest Pick eigenvalue, relative to the largest
#: eigenvalue modulus: a radius is infeasible only below minus this margin.
PICK_MARGIN = 1024 * np.finfo(float).eps

#: Search probes around the secant root: offsets of 10^-k bracket widths to
#: either side of it, and steps below it in margins over the slope.
_PROBE_OFFSETS = 10.0 ** -np.array([2.0, 4.0, 6.0])
_MARGIN_STEPS = np.array([2.0, 4.0, 8.0])

#: Tolerances of the certificates.
INTERPOLATION_TOL = 1e-6  # largest max_j |B(x_j) - w_j| of a recovered product
EQUAL_EIGENVALUES_TOL = 1e-9  # spread / (1 + modulus) of values read as equal
_SINGULAR_TOL = 1e-6  # |smallest Pick eigenvalue| / (1 + largest) read as zero


@dataclass(eq=False)
class PickProblem:
    """Disk interpolation data: distinct nodes in D and target values, each
    of shape ``(n,)``."""

    nodes: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        x = self.nodes = np.atleast_1d(_complex_array(self.nodes))
        w = self.targets = np.atleast_1d(_complex_array(self.targets))
        if x.ndim != 1 or w.ndim != 1:
            raise InvalidInputError("nodes and targets must be one-dimensional")
        if x.shape != w.shape:
            raise InvalidInputError("nodes and targets must have equal length")
        if x.size == 0:
            raise InvalidInputError("interpolation problem is empty")
        if not (np.isfinite(x).all() and np.isfinite(w).all()):
            raise InvalidInputError("nodes and targets must be finite")
        ax = np.abs(x)
        if ax.max() >= 1.0:
            raise InvalidInputError("nodes must lie in the open unit disk")
        j, k = np.triu_indices(len(x), 1)
        if (np.abs(x[j] - x[k]) <= 1e-12 * (1.0 + ax[j])).any():
            raise InvalidInputError("interpolation nodes must be distinct")

    @property
    def size(self) -> int:
        return len(self.nodes)

    @cached_property
    def _factored(self):
        """Pick matrix with its eigenvalues (ascending) and eigenvectors,
        computed once per problem."""
        m = pick_matrix(self)
        return (m, *np.linalg.eigh(m))


class BlaschkeProduct:
    """Finite Blaschke product: unimodular constant times disk factors.

    Evaluates u * prod_i (z - z_i) / (1 - conj(z_i) z); unimodular on the
    unit circle, modulus below one inside the open disk.
    """

    def __init__(self, unimodular: complex, zeros):
        u = _complex_array(unimodular)
        if u.ndim or not abs(abs(u) - 1.0) <= 1e-6:
            raise InvalidInputError("leading constant must be one unimodular number")
        self.unimodular = complex(u) / abs(complex(u))
        self.zeros = _complex_array(zeros).ravel()
        if not (np.abs(self.zeros) < 1.0).all():
            raise InvalidInputError("zeros must lie in the open unit disk")

    @property
    def order(self) -> int:
        return len(self.zeros)

    def __call__(self, z):
        z = _complex_array(z)[..., None]
        out = self.unimodular * np.prod(_mobius_shift(self.zeros, z), axis=-1)
        if out.shape == ():
            return complex(out)
        return out

    def prepend_zero_at_origin(self) -> "BlaschkeProduct":
        """The product z -> z * B(z)."""
        return BlaschkeProduct(self.unimodular, np.concatenate(([0.0], self.zeros)))

    def __repr__(self):
        return f"BlaschkeProduct(unimodular={self.unimodular!r}, zeros={self.zeros!r})"


class ZeroInterpolant:
    """Degenerate constant-zero interpolant (not a Blaschke product)."""

    order = 0
    degenerate = True

    def __call__(self, z):
        z = _complex_array(z)
        out = np.zeros(z.shape, dtype=complex)
        return complex(out) if z.shape == () else out


def pick_matrix(problem: PickProblem) -> np.ndarray:
    """Hermitian Pick matrix of an interpolation problem.

    Entry (j, k) is (1 - w_j conj(w_k)) / (1 - x_j conj(x_k)); the problem
    admits a holomorphic disk-to-disk solution exactly when this matrix is
    positive semidefinite.
    """
    x = problem.nodes
    w = problem.targets
    m = (1.0 - w[:, None] * np.conj(w)) / (1.0 - x[:, None] * np.conj(x))
    return (m + m.conj().T) / 2.0


def degenerate_interpolant(problem: PickProblem):
    """Unique interpolant of a singular positive-semidefinite Pick problem.

    Builds the Blaschke product of order m = rank(Pick matrix) that solves
    the problem from a unitary colligation, the lurking isometry of Agler &
    McCarthy (*Pick Interpolation and Hilbert Function Spaces*, AMS 2002).
    The smallest Pick eigenvalue, which must lie within 1e-6 * (1 + largest)
    of zero, is the null direction; the eigenpairs above
    DEFAULT_TOL * (1 + largest) factor P = G G*, with rows g_j.  The rows
    a_j = [1, x_j g_j] and b_j = [w_j, g_j] then have equal Gram matrices,
    so the solution V = [[D, C], [B, A]] of a_j V = b_j is unitary and the
    interpolant is f(z) = D + z C (I - z A)^-1 B.  The a_j span all m + 1
    dimensions, since otherwise w_j = h(x_j) for some h in the model space
    of f, and the numerator of f - h, of degree m, would vanish at n > m
    nodes; so V is one least-squares solve.  The zeros of f are
    conj(eig(A)) and must lie in the open disk; the unimodular constant
    comes from the node of largest target, and the product must interpolate
    within INTERPOLATION_TOL.  V itself is not tested for unitarity: the
    search certifies a radius infeasible by a rounding margin, and V carries
    that inconsistency amplified by 1 / sigma_min(a)^2, while the product is
    unimodular on the circle by construction.  All-zero targets (|w_j| <=
    DEFAULT_TOL) give the flagged constant-zero interpolant only when their
    Pick matrix 1 / (1 - x_j conj(x_k)), positive definite, reads singular:
    for nodes that nearly coincide.  Other nodes raise PreconditionError.
    """
    _, vals, vecs = problem._factored
    scale = 1.0 + max(vals[-1], 0.0)
    if vals[0] < -_SINGULAR_TOL * scale:
        raise PreconditionError("Pick matrix is not positive semidefinite")
    if vals[0] > _SINGULAR_TOL * scale:
        raise PreconditionError("Pick matrix is not singular")
    x, w = problem.nodes, problem.targets
    if np.max(np.abs(w)) <= DEFAULT_TOL:
        return ZeroInterpolant()

    keep = vals > DEFAULT_TOL * scale
    keep[0] = False
    g = vecs[:, keep] * np.sqrt(vals[keep])
    a = np.column_stack((np.ones_like(x), x[:, None] * g))
    b = np.column_stack((w, g))
    v = np.linalg.lstsq(a, b, rcond=None)[0]
    zeros = np.conj(np.linalg.eigvals(v[1:, 1:]))
    if not np.all(np.abs(zeros) < 1.0):
        raise NumericError("recovered zeros leave the open unit disk")

    shape = BlaschkeProduct(1.0, zeros)(x)
    j = np.argmax(np.abs(w))
    u = w[j] / shape[j]
    u /= abs(u)
    interp = np.max(np.abs(u * shape - w))
    if interp > INTERPOLATION_TOL:
        raise NumericError(f"interpolation residual {interp:.3e} is too large")
    return BlaschkeProduct(u, zeros)


@dataclass(eq=False)
class GapCertificate:
    """Certified comparison of r(B) with the generic distance limit at 0.

    ``beta`` and ``blaschke`` solve the boundary interpolation problem of the
    n ``eigenvalues`` lambda_j; derived from them, ``upper`` = |beta|^n
    bounds the two-point distance limit from above, and ``radius`` =
    max |lambda_j| = r(B) is the value at the scalar base point itself.  A
    strictly positive gap occurs exactly when the eigenvalues of B are not
    all equal, so ``is_gap`` is upper < radius - EQUAL_EIGENVALUES_TOL.
    The pair is the analytic disc zeta -> sigma(B(eps_j zeta^(1/n))) into the
    symmetrized polydisc behind ``upper``: at zeta = beta^n the n-th roots are
    the nodes eps_j beta, where B takes the eigenvalues within
    ``interpolation_residual``.  ``degenerate`` marks all-zero data, radius
    <= DEFAULT_TOL, with beta = 0 and the constant-zero interpolant.
    ``smallest_eigenvalue`` is the smallest Pick eigenvalue of the reduced
    problem at |beta|: the margin of the certified radius, just below zero
    after the search.
    """

    beta: complex
    blaschke: object
    eigenvalues: np.ndarray
    smallest_eigenvalue: float
    upper: float = field(init=False)
    radius: float = field(init=False)
    is_gap: bool = field(init=False)
    degenerate: bool = field(init=False)
    #: DEFAULT_TOL decides all-zero data and the Pick rank, the product's order;
    #: PICK_MARGIN the search and the closed form.
    tolerances = {
        "interpolation": INTERPOLATION_TOL,
        "rank": DEFAULT_TOL,
        "zero_data": DEFAULT_TOL,
        "bracket_width": BISECT_WIDTH,
        "pick_margin": PICK_MARGIN,
    }

    def __post_init__(self):
        self.eigenvalues = np.atleast_1d(_complex_array(self.eigenvalues))
        self.upper = float(abs(self.beta) ** len(self.eigenvalues))
        self.radius = float(np.max(np.abs(self.eigenvalues)))
        self.is_gap = bool(self.upper < self.radius - EQUAL_EIGENVALUES_TOL)
        self.degenerate = self.radius <= DEFAULT_TOL

    @property
    def interpolation_residual(self) -> float:
        """max_j |B(eps_j |beta|) - lambda_j|, recomputed from the fields."""
        nodes = _roots_of_unity(len(self.eigenvalues)) * abs(self.beta)
        return float(np.max(np.abs(self.blaschke(nodes) - self.eigenvalues)))

    def residuals(self) -> dict:
        """``interpolation_max`` and, unless degenerate, ``circle_unimodularity``:
        max ||B(z)| - 1| over the 256th roots of unity z."""
        out = {"interpolation_max": self.interpolation_residual}
        if not self.degenerate:
            circle = np.abs(self.blaschke(_roots_of_unity(256)))
            out["circle_unimodularity"] = float(np.max(np.abs(circle - 1.0)))
        return out


def _roots_of_unity(n):
    return np.exp(2j * np.pi * np.arange(n) / n)


def _reduced_pick(lambdas, eps):
    """Pick matrices of the reduced problems of one certificate, in closed form.

    The problem at radius r has nodes eps_j r and targets lambda_j / (eps_j r).
    With a_jk = eps_j conj(eps_k) and b_jk = lambda_j conj(lambda_k) its Pick
    matrix is (1 - b / (r^2 a)) / (1 - r^2 a), Hermitian-averaged as in
    ``pick_matrix``.  Returns the map from an array of radii to the stack of
    these matrices.  The caller checks once what ``PickProblem`` checks per
    problem: lambda finite and in the open disk, and every radius in (0, 1),
    which makes the nodes distinct points of the open disk.
    """
    a = eps[:, None] * np.conj(eps)[None, :]
    b_over_a = lambdas[:, None] * np.conj(lambdas)[None, :] / a

    def matrices(radii):
        s = np.square(radii)[:, None, None]
        m = (1.0 - b_over_a / s) / (1.0 - s * a)
        return (m + np.conj(m).swapaxes(-1, -2)) / 2.0

    return matrices


def _smallest_eigs(matrices, radii):
    """Smallest Pick eigenvalue at each radius, with its rounding margin
    PICK_MARGIN * max |eigenvalue|: one stacked solve."""
    vals = np.linalg.eigvalsh(matrices(radii))
    return vals[:, 0], PICK_MARGIN * np.maximum(-vals[:, 0], vals[:, -1])


def _boundary_search(matrices, r_hi, v_hi, margin, r_lo, v_lo):
    """Lower end of a bracket of width at most BISECT_WIDTH around the
    feasibility boundary, from a feasible r_hi above an infeasible r_lo.

    Feasibility is monotone in the radius (if f solves the problem at r, then
    z -> (r / r') f(z r / r') solves it at every r' > r), so any probe splits
    the bracket.  Each round solves, in one stacked call, the secant root of
    the smallest eigenvalue, probes at geometric offsets around it and a few
    margins over the slope below it, and the midpoint, and keeps the tightest
    feasible (``>= 0``) over infeasible pair.  Infeasible means below minus
    the margin, so the lower end is infeasible beyond rounding.  A round
    whose midpoint is decided shrinks the bracket at least as much as
    bisection; a round whose midpoint is within rounding of the boundary is
    the last.  Otherwise the search ends once the bracket is at most
    BISECT_WIDTH wide and its lower end within ``_MARGIN_STEPS[-1]`` margins
    of the secant root.
    """
    while True:
        width = r_hi - r_lo
        slope = (v_hi - v_lo) / width
        root = r_lo - v_lo / slope
        below = root - _MARGIN_STEPS * (margin / slope)
        mid = r_lo + width / 2.0
        if width <= BISECT_WIDTH and (r_lo >= below[-1] or not r_lo < mid < r_hi):
            break
        offsets = width * _PROBE_OFFSETS
        probes = np.concatenate((root - offsets, [root], root + offsets, below, [mid]))
        probes = np.sort(probes[(probes > r_lo) & (probes < r_hi)])
        vals, margins = _smallest_eigs(matrices, probes)
        infeasible = np.flatnonzero(vals < -margins)
        if infeasible.size:
            k = infeasible[-1]
            r_lo, v_lo = probes[k], vals[k]
        feasible = np.flatnonzero((vals >= 0.0) & (probes > r_lo))
        if feasible.size:
            k = feasible[0]
            r_hi, v_hi, margin = probes[k], vals[k], margins[k]
        if r_lo < mid < r_hi:
            break  # the midpoint is within rounding of the boundary
    return r_lo


def _searched_product(lam, eps, matrices):
    """Certified radius, Blaschke product and smallest Pick eigenvalue there,
    from the coarse scan, the bracketed search and the realization."""
    lo = float(np.max(np.abs(lam))) * (1.0 + 1e-12) + 1e-14
    hi = max(1.0 - 1e-6, (1.0 + lo) / 2.0)
    if not lo < hi < 1.0:
        raise NumericError("no search bracket: spectrum reaches the boundary")
    grid = np.append(np.arange(hi, lo, -COARSE_STEP), lo)
    vals, margins = _smallest_eigs(matrices, grid)

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
        r0 = _boundary_search(
            matrices, grid[i], vals[i], margins[i], grid[i + 1], vals[i + 1]
        )

    nodes = eps * r0
    problem = PickProblem(nodes, lam / nodes)
    try:
        # the targets have modulus at least max |lam| / r0 > DEFAULT_TOL, so this
        # is a Blaschke product, not the zero interpolant
        interpolant = degenerate_interpolant(problem)
    except PreconditionError as err:
        # the search's radius failed the check, not the caller's data (close to
        # the circle the Pick matrix at the scan's bottom can read nonsingular)
        raise NumericError(f"no boundary point at the certified radius: {err}") from err
    return r0, interpolant.prepend_zero_at_origin(), problem._factored[1][0]


def _closed_form(lam, eps, moduli):
    """Least k in 1..n with lambda_j = c eps_j^k for every j, up to
    PICK_MARGIN * |c| in each ratio lambda_j / eps_j^k, and that c; (0, None)
    if there is none.  Only values of one modulus qualify, so the table of
    eps_j^k = eps_(jk mod n) is built only when the moduli agree within twice
    the margin, which leaves room for their rounding."""
    top = np.argmax(moduli)
    if np.ptp(moduli) > 2.0 * PICK_MARGIN * moduli[top]:
        return 0, None
    n = len(lam)
    ratios = lam / eps[np.outer(np.arange(1, n + 1), np.arange(n)) % n]
    c = ratios[:, top]
    spread = np.max(np.abs(ratios - c[:, None]), axis=1)
    hits = np.flatnonzero(spread <= PICK_MARGIN * np.abs(c))
    if hits.size == 0:
        return 0, None
    return int(hits[0]) + 1, c[hits[0]]


def blaschke_through_roots_of_unity(lambdas) -> GapCertificate:
    """Gap certificate of values lambda_1..lambda_n in the open disk.

    Finds beta in the disk and a Blaschke product B of order at most n with
    B(0) = 0 and B(eps_j beta) = lambda_j at the n-th roots of unity eps_j,
    with upper = |beta|^n and radius = max |lambda_j|.  |beta| is located
    where the Pick matrix of the reduced data (which depends on |beta| only)
    first turns singular positive semidefinite.

    When lambda_j = c eps_j^k for one c and one k in 1..n, up to
    PICK_MARGIN * |c| in every ratio lambda_j / eps_j^k, that radius is
    |c|^(1/k) and B(z) = (c / |c|) z^k, in closed form (k = n is c I): there
    B(z) / z, of order k - 1 < n, solves the reduced problem, so its Pick
    matrix is singular and the solution unique; a feasible smaller radius
    would give a second solution of modulus below one.  Other values go to
    the search.  There a coarse descending scan, from just below 1 or from
    halfway between max |lambda_j| and 1 if that is higher, solves the whole
    grid in one stacked eigenvalue call; a bracketed secant search
    (``_boundary_search``) then narrows the lowest feasibility transition to
    BISECT_WIDTH, one stacked call per round, and certifies the lower end of
    its final bracket, which is infeasible beyond the rounding margin
    PICK_MARGIN and within a few margins of the boundary.
    """
    lam = np.atleast_1d(_complex_array(lambdas))
    n = len(lam)
    if lam.ndim != 1:
        raise InvalidInputError(f"values must form a one-dimensional list, got shape {lam.shape}")
    if n == 0:
        raise InvalidInputError("no values to interpolate")
    if not np.all(np.isfinite(lam)):
        raise InvalidInputError("values must be finite")
    moduli = np.abs(lam)
    radius = float(np.max(moduli))
    if radius >= 1.0:
        raise DomainError("values must lie in the open unit disk")
    if radius <= DEFAULT_TOL:
        return GapCertificate(0j, ZeroInterpolant(), lam, 0.0)
    eps = _roots_of_unity(n)
    matrices = _reduced_pick(lam, eps)
    k, c = _closed_form(lam, eps, moduli)
    if k:
        r0 = abs(c) ** (1.0 / k)
        bp = BlaschkeProduct(c / abs(c), np.zeros(k))
        smallest = _smallest_eigs(matrices, np.array([r0]))[0][0]
    else:
        r0, bp, smallest = _searched_product(lam, eps, matrices)
    if bp.order > n:
        raise InternalError("recovered product exceeds the admissible order")
    cert = GapCertificate(complex(r0), bp, lam, float(smallest))
    residual = cert.interpolation_residual
    if residual > INTERPOLATION_TOL:
        raise NumericError(f"boundary interpolation residual {residual:.3e}")
    return cert


def gap_certificate(b) -> GapCertificate:
    """Gap certificate of B: ``blaschke_through_roots_of_unity`` of its
    eigenvalues.  A matrix outside the spectral ball raises DomainError.

    The search matches the eigenvalues to the roots of unity in the order
    ``eigvals`` lists them.  For n >= 3 other orders give other valid
    bounds, so ``upper`` may change under a unitary similarity of B.
    """
    sp = spectrum(b)
    if not sp.in_spectral_ball():
        raise DomainError("matrix lies outside the spectral ball")
    return blaschke_through_roots_of_unity(sp.values)


def discontinuity_report(b, t: complex = 0.0) -> dict:
    """Two-sided discontinuity report at the scalar base point tI.

    The two-point distance at tI is compared with the certified upper bound
    of its limit along generic perturbations of the base; the infinitesimal
    metric at tI is compared with its exact generic limit
    |tr B| / (n (1 - |t|^2)).  Jumps vanish exactly when the eigenvalues of
    B are equal (within tolerance): equality forces both limits to agree
    with the base values, so the report pins the jumps to zero rather than
    carrying search noise into them.  Every value comes from one eigensolve
    of B, and at t != 0 the certificate's from one of the shifted matrix.
    """
    B = as_matrix(b)
    n = B.shape[0]
    sp = spectrum(B)
    t = _disk_point(t)
    lempert_value = _lempert_at(t, sp)  # raises DomainError outside the ball
    kobayashi_value = _kobayashi_at(t, sp.radius)
    kobayashi_limit = _kobayashi_at(t, float(abs(np.trace(B))) / n)
    shifted = spectrum(disk_automorphism(t, B)) if t != 0.0 else sp
    cert = blaschke_through_roots_of_unity(shifted.values)

    spread = np.max(np.abs(sp.values[:, None] - sp.values[None, :]))
    eigenvalues_equal = bool(spread <= EQUAL_EIGENVALUES_TOL * (1.0 + sp.radius))
    if eigenvalues_equal:
        jump_lempert = jump_kobayashi = 0.0
    else:
        jump_lempert = max(lempert_value - cert.upper, 0.0)
        jump_kobayashi = max(kobayashi_value - kobayashi_limit, 0.0)

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
