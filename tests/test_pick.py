from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spectralball as sb
import spectralball.pick as pick_module
from spectralball.pick import BISECT_WIDTH, COARSE_STEP, PickProblem
from conftest import random_ball_matrix, random_unitary

GAP_RADIUS_SQ = 2.0 / 3.0  # positive root of 3.36 x^2 - 1.28 x - 0.64


def circle_grid(k=256):
    return np.exp(2j * np.pi * np.arange(k) / k)


@pytest.fixture
def no_companion_roots(monkeypatch):
    """np.roots raises: it binds its own eigvals, which count_eigvals misses."""

    def roots(*args, **kwargs):
        raise AssertionError("np.roots called")

    monkeypatch.setattr(np, "roots", roots)


def _sequential_smallest_eig(lam, eps, r):
    return float(np.linalg.eigvalsh(sb.pick_matrix(PickProblem(eps * r, lam / (eps * r))))[0])


def sequential_scan(lam):
    """Reference coarse scan: one Pick matrix per grid radius.

    Returns the grid, its smallest eigenvalues and the index of the lowest
    feasibility transition (None if there is none).
    """
    n = len(lam)
    eps = np.exp(2j * np.pi * np.arange(n) / n)
    lo = float(np.max(np.abs(lam))) * (1.0 + 1e-12) + 1e-14
    grid = np.append(np.arange(1.0 - 1e-6, lo, -COARSE_STEP), lo)
    vals = np.array([_sequential_smallest_eig(lam, eps, r) for r in grid])
    crossing = None
    for i in range(len(grid) - 1):
        if vals[i] >= 0.0 > vals[i + 1]:
            crossing = i
    return grid, vals, crossing


def sequential_search(lam):
    """Reference boundary search: the scan, then one midpoint per solve.

    Returns beta, the interpolation residual and the recovered product.
    """
    lam = np.asarray(lam, dtype=complex)
    n = len(lam)
    eps = np.exp(2j * np.pi * np.arange(n) / n)
    grid, vals, crossing = sequential_scan(lam)
    if crossing is None:
        assert np.all(vals >= 0.0)
        r0 = grid[-1]
    else:
        r_hi, r_lo = grid[crossing], grid[crossing + 1]
        for _ in range(200):
            if r_hi - r_lo <= BISECT_WIDTH:
                break
            mid = (r_hi + r_lo) / 2.0
            if _sequential_smallest_eig(lam, eps, mid) >= 0.0:
                r_hi = mid
            else:
                r_lo = mid
        r0 = r_lo
    problem = PickProblem(eps * r0, lam / (eps * r0))
    bp = sb.degenerate_interpolant(problem).prepend_zero_at_origin()
    residual = float(np.max(np.abs(bp(eps * r0) - lam)))
    return complex(r0), residual, bp


def seeded_spectra():
    rng = np.random.default_rng(49)
    cases = [np.array([0.8, 0.0]), np.array([0.5, 0.5])]
    for n in range(1, 9):
        cases.append(np.full(n, 0.7 * np.exp(0.3j * n)))
    for n in range(2, 9):
        for radius in (0.3, 0.55, 0.8, 0.95, 0.999):
            lam = np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
            cases.append(lam * (radius / np.max(np.abs(lam))))
    return cases


def power_of_roots(lam):
    """The k in 2..n with lam_j = c eps_j^k for every j (c = lam_0), up to
    PICK_MARGIN * |c|, or None: the closed form beyond k = 1.  c I is k = n."""
    lam = np.asarray(lam, dtype=complex)
    n = len(lam)
    eps = np.exp(2j * np.pi * np.arange(n) / n)
    for k in range(2, n + 1):
        if lam[0] != 0.0 and np.max(np.abs(lam - lam[0] * eps**k)) <= (
            pick_module.PICK_MARGIN * abs(lam[0])
        ):
            return k
    return None


def assert_power_closed_form(sol, lam, k):
    """sol is B(z) = (c / |c|) z^k at |beta| = |c|^(1/k), with upper = |c|^(n/k),
    within the rounding of lam_j = c eps_j^k, and its radius is the
    feasibility boundary: the smallest Pick eigenvalue there is within
    PICK_MARGIN times the largest of zero, and BISECT_WIDTH below (above) it
    is not feasible (infeasible) beyond that margin."""
    lam = np.asarray(lam, dtype=complex)
    n, c = len(lam), lam[0]
    rounding = 4.0 * (k + 1) * np.finfo(float).eps
    r = abs(c) ** (1.0 / k)
    assert abs(sol.beta - r) <= 4.0 * np.finfo(float).eps * r
    assert sol.blaschke.order == k and not np.any(sol.blaschke.zeros)
    assert abs(sol.blaschke.unimodular - c / abs(c)) <= rounding
    assert abs(sol.upper - abs(c) ** (n / k)) <= 2.0 * (n + 1) * np.finfo(float).eps * sol.upper
    assert sol.interpolation_residual <= rounding * abs(c)
    assert not sol.degenerate
    eps = np.exp(2j * np.pi * np.arange(n) / n)
    r = abs(sol.beta)
    largest = np.linalg.eigvalsh(sb.pick_matrix(PickProblem(eps * r, lam / (eps * r))))[-1]
    margin = pick_module.PICK_MARGIN * largest
    assert abs(sol.smallest_eigenvalue) <= margin
    assert _sequential_smallest_eig(lam, eps, r - BISECT_WIDTH) < margin
    assert _sequential_smallest_eig(lam, eps, r + BISECT_WIDTH) > -margin


class TestBlaschkeProduct:
    @pytest.mark.parametrize("order", [0, 1, 3, 8])
    def test_equals_the_factor_loop(self, order):
        """One broadcast product equals multiplying in one factor at a time,
        within the rounding of order + 1 products of terms of modulus <= 1."""
        rng = np.random.default_rng(order)
        moduli = 0.95 * np.sqrt(rng.uniform(size=order))
        zeros = moduli * np.exp(2j * np.pi * rng.uniform(size=order))
        bp = sb.BlaschkeProduct(np.exp(0.3j), zeros)
        for z in (0.4 - 0.2j, circle_grid(16), 0.9 * circle_grid(12).reshape(3, 4)):
            ref = np.full(np.shape(z), bp.unimodular)
            for w in zeros:
                ref = ref * (z - w) / (1.0 - np.conj(w) * z)
            got = bp(z)
            assert np.shape(got) == np.shape(z)
            assert np.max(np.abs(got - ref)) <= 8.0 * (order + 1) * np.finfo(float).eps
        assert isinstance(bp(0.5), complex)

    @pytest.mark.parametrize(
        "unimodular, zeros",
        [(np.nan, []), (1.0, [np.nan]), (1.0, [0.2, np.nan]), (2.0, []), (1.0, [0.5, 1.0])],
    )
    def test_rejects_invalid_data(self, unimodular, zeros):
        with pytest.raises(sb.InvalidInputError):
            sb.BlaschkeProduct(unimodular, zeros)


class TestPickMatrix:
    def test_single_node(self):
        # a scalar node and target are one-node data
        for p in (PickProblem([0.0], [0.0]), PickProblem(0.0, 0.0)):
            assert p.size == 1
            np.testing.assert_allclose(sb.pick_matrix(p), [[1.0]])

    def test_gap_data_singular(self):
        r = np.sqrt(GAP_RADIUS_SQ)
        p = PickProblem([r, -r], [0.8 / r, 0.0])
        m = sb.pick_matrix(p)
        assert abs(np.linalg.det(m)) <= 1e-9
        vals = np.linalg.eigvalsh(m)
        assert abs(vals[0]) <= 1e-9 < vals[-1]  # singular positive semidefinite

    def test_oversized_target_breaks_psd(self):
        p = PickProblem([0.1, -0.1], [1.5, 0.0])
        m = sb.pick_matrix(p)
        assert m[0, 0].real < 0.0
        vals = np.linalg.eigvalsh(m)
        assert vals[0] < -1e-9 * (1.0 + vals[-1])

    def test_coincident_nodes(self):
        with pytest.raises(sb.InvalidInputError):
            PickProblem([0.3, 0.3], [0.1, 0.2])

    def test_hermitian(self):
        rng = np.random.default_rng(41)
        nodes = 0.8 * np.sqrt(rng.uniform(size=4)) * np.exp(2j * np.pi * rng.uniform(size=4))
        targets = 0.9 * np.sqrt(rng.uniform(size=4)) * np.exp(2j * np.pi * rng.uniform(size=4))
        m = sb.pick_matrix(PickProblem(nodes, targets))
        assert np.linalg.norm(m - m.conj().T) == 0.0

    def test_phase_independence(self):
        # the scaled roots-of-unity data depends on the radius only
        lam = np.array([0.5, -0.2 + 0.3j, 0.1j])
        eps = np.exp(2j * np.pi * np.arange(3) / 3)
        rng = np.random.default_rng(42)
        r = 0.8
        base = sb.pick_matrix(PickProblem(eps * r, lam / (eps * r)))
        for _ in range(5):
            beta = r * np.exp(2j * np.pi * rng.uniform())
            m = sb.pick_matrix(PickProblem(eps * beta, lam / (eps * beta)))
            assert np.abs(m - base).max() <= 1e-12


class TestPickValidation:
    def test_empty_problem(self):
        with pytest.raises(sb.InvalidInputError, match="empty"):
            PickProblem([], [])

    @pytest.mark.parametrize(
        "nodes, targets", [([0.1, np.nan], [0.0, 0.0]), ([0.1, 0.2], [0.0, np.inf])]
    )
    def test_non_finite_data(self, nodes, targets):
        with pytest.raises(sb.InvalidInputError, match="finite"):
            PickProblem(nodes, targets)

    @pytest.mark.parametrize("node", [1.0, -1j, 1.5], ids=["one", "minus-i", "outside"])
    def test_node_outside_the_open_disk(self, node):
        with pytest.raises(sb.InvalidInputError, match="open unit disk"):
            PickProblem([0.42 + 0.1j, node], [0.0, 0.0])

    def test_shape_mismatch(self):
        with pytest.raises(sb.InvalidInputError, match="equal length"):
            PickProblem(np.zeros(3), np.zeros(2))

    @pytest.mark.parametrize(
        "nodes, targets",
        [
            ([[0.1, 0.2], [0.3, 0.4]], [[0.0, 0.0], [0.0, 0.0]]),
            ([0.1, 0.2], [[0.0, 0.0]]),
            ([[0.1, 0.2]], [0.0, 0.0]),
        ],
    )
    def test_data_must_be_one_dimensional(self, nodes, targets):
        with pytest.raises(sb.InvalidInputError, match="one-dimensional"):
            PickProblem(nodes, targets)

    def test_boundary_search_no_values(self):
        with pytest.raises(sb.InvalidInputError, match="no values"):
            sb.blaschke_through_roots_of_unity([])

    def test_boundary_search_nan_value(self):
        with pytest.raises(sb.InvalidInputError, match="finite"):
            sb.blaschke_through_roots_of_unity([0.5, np.nan])


class TestDegenerateInterpolant:
    def test_equal_target_identity_map(self):
        beta = np.sqrt(0.5)
        p = PickProblem([beta, -beta], [0.5 / beta, -0.5 / beta])
        f = sb.degenerate_interpolant(p)
        zs = 0.7 * np.exp(1j * np.linspace(0.0, 6.0, 17))
        assert np.max(np.abs(f(zs) - zs)) <= 1e-10
        assert f.order == 1

    def test_all_zero_targets(self):
        # zero targets at distinct nodes give a positive definite Pick
        # matrix: the precondition check rejects it before the zero data
        p = PickProblem([0.3, -0.3], [0.0, 0.0])
        with pytest.raises(sb.PreconditionError):
            sb.degenerate_interpolant(p)

    def test_gap_example_order_one(self):
        r = np.sqrt(GAP_RADIUS_SQ)
        p = PickProblem([r, -r], [0.8 / r, 0.0])
        f = sb.degenerate_interpolant(p)
        assert f.order == 1
        assert np.max(np.abs(f(p.nodes) - p.targets)) <= 1e-8
        assert np.max(np.abs(np.abs(f(circle_grid())) - 1.0)) <= 1e-8

    def test_nonsingular_rejected(self):
        p = PickProblem([0.0, 0.5], [0.0, 0.1])
        with pytest.raises(sb.PreconditionError):
            sb.degenerate_interpolant(p)

    def test_indefinite_rejected(self):
        p = PickProblem([0.0, 0.5], [2.0, 0.0])
        with pytest.raises(sb.PreconditionError, match="not positive semidefinite"):
            sb.degenerate_interpolant(p)

    def test_zero_targets_at_nearly_coincident_nodes(self):
        # 1 / (1 - x_j conj(x_k)) reads singular: the constant-zero interpolant
        f = sb.degenerate_interpolant(PickProblem([0.3, 0.3 + 1e-9], [0.0, 0.0]))
        assert isinstance(f, sb.ZeroInterpolant)
        assert f.order == 0 and f.degenerate

    @settings(max_examples=80)
    @given(
        st.lists(
            st.tuples(st.floats(0.0, 0.9), st.floats(0.0, 2.0 * np.pi)), min_size=0, max_size=5
        ),
        st.floats(0.0, 2.0 * np.pi),
        st.integers(1, 3),
        st.floats(0.2, 0.9),
        st.floats(0.0, 2.0 * np.pi),
    )
    def test_recovers_a_blaschke_product(self, polar, angle, extra, radius, turn):
        """Targets of a Blaschke product of order m at n > m rotated, scaled
        roots of unity: the recovered product interpolates, has its zeros in
        the open disk and is unimodular on the circle."""
        true = sb.BlaschkeProduct(np.exp(1j * angle), [m * np.exp(1j * a) for m, a in polar])
        n = true.order + extra
        nodes = radius * np.exp(1j * turn) * np.exp(2j * np.pi * np.arange(n) / n)
        targets = true(nodes)
        assume(np.max(np.abs(targets)) > sb.DEFAULT_TOL)
        f = sb.degenerate_interpolant(PickProblem(nodes, targets))
        assert np.max(np.abs(f(nodes) - targets)) <= pick_module.INTERPOLATION_TOL
        assert np.all(np.abs(f.zeros) < 1.0)
        assert np.max(np.abs(np.abs(f(circle_grid())) - 1.0)) <= 1e-12


def convolved_rational(problem, c):
    """Reference numerator and denominator: each product
    prod_{l != k} (1 - conj(x_l) z) expanded by its own convolutions."""
    x, w, n = problem.nodes, problem.targets, problem.size
    num = np.zeros(n, dtype=complex)
    den = np.zeros(n, dtype=complex)
    for k in range(n):
        poly = np.array([1.0 + 0j])
        for l in range(n):
            if l != k:
                poly = np.convolve(poly, np.array([1.0, -np.conj(x[l])]))
        num += c[k] * poly
        den += c[k] * np.conj(w[k]) * poly
    return num, den


def cancelled_roots(problem):
    """Reference zeros of the interpolant: the roots of the convolved
    numerator in the disk, less those shared with the denominator."""
    c = np.linalg.eigh(sb.pick_matrix(problem))[1][:, 0]
    num, den = convolved_rational(problem, c)
    poles = list(np.roots(den[::-1]))
    zeros = []
    for root in np.roots(num[::-1]):
        gaps = np.abs(np.array(poles) - root)
        if poles and gaps.min() <= 1e-8 * (1.0 + abs(root)):
            poles.pop(int(np.argmin(gaps)))
        elif abs(root) < 1.0:
            zeros.append(root)
    return np.array(zeros, dtype=complex)


class TestInterpolantFromTheSearch:
    @pytest.mark.parametrize("lam", seeded_spectra(), ids=lambda lam: f"n{len(lam)}")
    def test_rational_matches_the_convolutions(self, lam):
        """The realization's zeros are the reference zeros of the null-vector
        rational: the same monic polynomial within 1e-12, and the same roots
        within 1e-12 when the eigenvalues are distinct.  Equal eigenvalues put
        an (n - 1)-fold zero at the origin, which rounding splits by about
        eps^(1 / (n - 1)) in both computations."""
        n = len(lam)
        eps = np.exp(2j * np.pi * np.arange(n) / n)
        sol = sb.blaschke_through_roots_of_unity(lam)
        problem = PickProblem(eps * sol.beta, lam / (eps * sol.beta))
        zeros = sb.degenerate_interpolant(problem).zeros
        ref = cancelled_roots(problem)
        assert len(zeros) == len(ref)
        assert np.max(np.abs(np.poly(zeros) - np.poly(ref))) <= 1e-12
        if zeros.size and np.min(np.abs(np.subtract.outer(lam, lam)) + np.eye(n)) > 0.0:
            assert sb.multiset_distance(zeros, ref) <= 1e-12

    @pytest.mark.parametrize("lam", seeded_spectra(), ids=lambda lam: f"n{len(lam)}")
    def test_search_and_public_interpolant_agree(self, lam):
        n = len(lam)
        eps = np.exp(2j * np.pi * np.arange(n) / n)
        sol = sb.blaschke_through_roots_of_unity(lam)
        k = power_of_roots(lam)
        if k:
            assert_power_closed_form(sol, lam, k)
            return
        problem = PickProblem(eps * sol.beta, lam / (eps * sol.beta))
        bp = sb.degenerate_interpolant(problem)
        assert sol.blaschke.zeros[0] == 0.0
        assert len(sol.blaschke.zeros) == bp.order + 1
        if bp.order:
            assert sb.multiset_distance(sol.blaschke.zeros[1:], bp.zeros) <= 1e-12
        assert abs(sol.blaschke.unimodular - bp.unimodular) <= 1e-12

    def test_search_factors_its_pick_matrix_once(self, monkeypatch):
        calls = []
        original = np.linalg.eigh

        def counting(m, *args, **kwargs):
            calls.append(m.shape)
            return original(m, *args, **kwargs)

        monkeypatch.setattr(pick_module.np.linalg, "eigh", counting)
        sb.blaschke_through_roots_of_unity([0.8, 0.1j, -0.3])
        assert calls == [(3, 3)]


class TestAglerYoungClosedForm:
    """At n = 2 the generic limit is the Caratheodory distance of the
    symmetrized bidisc from the origin (Agler & Young, "The hyperbolic
    geometry of the symmetrized bidisc", J. Geom. Anal. 14, 2004):
    (2|s - conj(s) p| + |s^2 - 4p|) / (4 - |s|^2) with s = l1 + l2, p = l1 l2."""

    @staticmethod
    def closed_form(lam):
        s, p = lam[0] + lam[1], lam[0] * lam[1]
        return (2.0 * abs(s - np.conj(s) * p) + abs(s * s - 4.0 * p)) / (4.0 - abs(s) ** 2)

    def test_seeded_spectra(self):
        rng = np.random.default_rng(71)
        worst = 0.0
        for _ in range(300):
            lam = np.sqrt(rng.uniform(size=2)) * np.exp(2j * np.pi * rng.uniform(size=2))
            lam *= rng.uniform(0.05, 0.97) / np.max(np.abs(lam))
            upper = sb.gap_certificate(np.diag(lam)).upper
            worst = max(worst, abs(upper - self.closed_form(lam)))
        assert worst <= 1e-9

    @pytest.mark.parametrize("lam, value", [((0.8, 0.0), 2.0 / 3.0), ((0.5, 0.5), 0.5)])
    def test_anchors(self, lam, value):
        assert self.closed_form(lam) == pytest.approx(value, abs=1e-15)
        assert sb.gap_certificate(np.diag(lam)).upper == pytest.approx(value, abs=1e-9)


class TestBoundaryInterpolation:
    def test_equal_values(self):
        sol = sb.blaschke_through_roots_of_unity([0.5, 0.5])
        assert abs(abs(sol.beta) ** 2 - 0.5) <= 1e-6
        # recovered product is zeta^2 up to a unimodular factor
        bp = sol.blaschke
        assert bp.order == 2
        zs = 0.8 * np.exp(1j * np.linspace(0.0, 6.0, 13))
        u = bp(0.5) / 0.25
        assert abs(abs(u) - 1.0) <= 1e-6
        assert np.max(np.abs(bp(zs) - u * zs**2)) <= 1e-6

    def test_gap_values(self):
        sol = sb.blaschke_through_roots_of_unity([0.8, 0.0])
        assert abs(abs(sol.beta) ** 2 - GAP_RADIUS_SQ) <= 1e-6
        assert sol.interpolation_residual <= 1e-6

    def test_all_zero(self):
        sol = sb.blaschke_through_roots_of_unity([0.0, 0.0, 0.0])
        assert sol.degenerate
        assert sol.beta == 0.0

    def test_single_value(self):
        lam = 0.3 * np.exp(0.7j)
        sol = sb.blaschke_through_roots_of_unity([lam])
        assert abs(abs(sol.beta) - abs(lam)) <= 1e-6
        assert abs(sol.blaschke(sol.beta) - lam) <= 1e-6

    def test_witness_quality_random(self):
        rng = np.random.default_rng(43)
        for n in (2, 3):
            for _ in range(5):
                lam = 0.8 * np.sqrt(rng.uniform(size=n)) * np.exp(
                    2j * np.pi * rng.uniform(size=n)
                )
                sol = sb.blaschke_through_roots_of_unity(lam)
                eps = np.exp(2j * np.pi * np.arange(n) / n)
                resid = np.max(np.abs(sol.blaschke(eps * sol.beta) - lam))
                assert resid <= 1e-6
                assert sol.blaschke.order <= n
                assert np.max(np.abs(sol.blaschke(circle_grid()))) <= 1.0 + 1e-8

    def test_out_of_disk(self):
        with pytest.raises(sb.DomainError):
            sb.blaschke_through_roots_of_unity([1.2, 0.0])

    @pytest.mark.parametrize("lam", seeded_spectra(), ids=lambda lam: f"n{len(lam)}")
    def test_equals_sequential_search(self, lam):
        """The bracketed search and the sequential bisection bracket the same
        boundary: |beta| agrees within BISECT_WIDTH, is infeasible, and is
        within BISECT_WIDTH of a feasible radius."""
        beta, _, _ = sequential_search(lam)
        sol = sb.blaschke_through_roots_of_unity(lam)
        r = abs(sol.beta)
        assert abs(r - abs(beta)) <= BISECT_WIDTH
        assert sol.interpolation_residual <= 1e-6
        k = power_of_roots(lam)
        if k:
            # c I: the closed form sits on the boundary, not below it
            assert_power_closed_form(sol, lam, k)
            return
        n = len(lam)
        eps = np.exp(2j * np.pi * np.arange(n) / n)
        _, _, crossing = sequential_scan(lam)
        if crossing is not None:
            assert _sequential_smallest_eig(lam, eps, r) < 0.0
            assert _sequential_smallest_eig(lam, eps, r + BISECT_WIDTH) >= 0.0

    def test_stacked_solves_per_certificate(self, count_calls):
        """One stacked eigvalsh for the scan and one per search round: 179
        on these 45 spectra, and at most 7 for any one of them.  The closed
        form (n = 1 and the eight c I spectra) takes one, at its radius."""
        calls = count_calls(np.linalg, "eigvalsh")
        counts = []
        for lam in seeded_spectra():
            before = len(calls)
            sol = sb.blaschke_through_roots_of_unity(lam)
            counts.append(len(calls) - before)
            if len(lam) == 1 or power_of_roots(lam):
                assert counts[-1] == 1
                assert not np.any(sol.blaschke.zeros)
        assert sum(counts) == 179
        assert max(counts) <= 7

    def test_eigensolves_per_certificate(self, count_calls, no_companion_roots):
        """Besides the stacked eigvalsh: one eigh of the certified Pick matrix,
        one eigvals of the colligation's state matrix, of order one below the
        product, and no companion root-finds.  The closed form (n = 1 and the
        c I spectra here) needs neither solve."""
        eigh = count_calls(np.linalg, "eigh")
        eigvals = count_calls(np.linalg, "eigvals")
        for lam in seeded_spectra():
            eigh.clear()
            eigvals.clear()
            sol = sb.blaschke_through_roots_of_unity(lam)
            n, order = len(lam), sol.blaschke.order
            k = power_of_roots(lam)
            if n == 1 or k:
                assert (eigh, eigvals) == ([], [])
                if k:
                    assert_power_closed_form(sol, lam, k)
            else:
                assert eigh == [(n, n)]
                assert eigvals == [(order - 1, order - 1)]

    def test_search_narrows_a_convex_boundary(self):
        """1 x 1 "Pick matrices" expm1(40 (r - r*)): the secant root falls
        short of r*, so many rounds move the lower end to the midpoint, and
        the search must still end just below r*."""
        rng = np.random.default_rng(0)
        for root in rng.uniform(0.3, 0.9, 200):

            def matrices(radii, root=root):
                return np.expm1(40.0 * (radii - root))[:, None, None]

            r_hi = root + 0.01 * rng.uniform(0.01, 1.0)
            r_lo = root - 0.01 * rng.uniform(0.01, 1.0)
            v_hi, v_lo = matrices(np.array([r_hi, r_lo]))[:, 0, 0]
            r = pick_module._boundary_search(matrices, r_hi, v_hi, 0.0, r_lo, v_lo)
            assert root - 1e-12 <= r < root

    @pytest.mark.parametrize("lam", seeded_spectra(), ids=lambda lam: f"n{len(lam)}")
    def test_closed_form_stack_equals_pick_matrix(self, lam):
        """The closed-form reduced stack equals pick_matrix of the validated
        problem at every scan radius and at |beta|, within 8 eps max(1, |P|)
        / (1 - r^2): the rounding of the node factor 1 - r^2 a, which both
        forms share."""
        n = len(lam)
        eps = np.exp(2j * np.pi * np.arange(n) / n)
        grid, _, _ = sequential_scan(lam)
        radii = np.append(grid, abs(sb.blaschke_through_roots_of_unity(lam).beta))
        stack = pick_module._reduced_pick(np.asarray(lam, dtype=complex), eps)(radii)
        ref = np.stack([sb.pick_matrix(PickProblem(eps * r, lam / (eps * r))) for r in radii])
        err = np.max(np.abs(stack - ref), axis=(1, 2))
        scale = np.maximum(1.0, np.max(np.abs(ref), axis=(1, 2))) / (1.0 - radii**2)
        assert np.all(err <= 8.0 * np.finfo(float).eps * scale)

    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 0.999, allow_subnormal=False),
                st.floats(0.0, 2.0 * np.pi),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_crossing_certifies_infeasible_radius(self, polar):
        """|beta| is infeasible beyond the rounding margin and feasible
        BISECT_WIDTH above; values of the form c eps_j^k sit on the boundary."""
        lam = np.array([m * np.exp(1j * a) for m, a in polar])
        sol = sb.blaschke_through_roots_of_unity(lam)
        assume(not sol.degenerate)
        k = power_of_roots(lam)
        if k:
            # values c eps_j^k (c I included): the closed form sits on the boundary
            assert_power_closed_form(sol, lam, k)
            return
        _, _, crossing = sequential_scan(lam)
        assume(crossing is not None)
        n = len(lam)
        eps = np.exp(2j * np.pi * np.arange(n) / n)
        r = abs(sol.beta)
        vals = np.linalg.eigvalsh(sb.pick_matrix(PickProblem(eps * r, lam / (eps * r))))
        margin = pick_module.PICK_MARGIN * max(-vals[0], vals[-1])
        assert vals[0] < -margin
        assert _sequential_smallest_eig(lam, eps, r + BISECT_WIDTH) >= 0.0
        assert sol.smallest_eigenvalue < 0.0
        cert = sb.gap_certificate(np.diag(lam))
        assert cert.upper <= cert.radius


class TestGapCertificate:
    def test_distinct_eigenvalues(self):
        cert = sb.gap_certificate(np.diag([0.8, 0.0]))
        assert abs(cert.upper - GAP_RADIUS_SQ) <= 1e-6
        assert cert.radius == pytest.approx(0.8)
        assert cert.is_gap

    def test_equal_eigenvalues(self):
        cert = sb.gap_certificate(np.diag([0.5, 0.5]))
        assert abs(cert.upper - 0.5) <= 1e-6
        assert cert.radius == pytest.approx(0.5)
        assert not cert.is_gap

    def test_nilpotent(self):
        cert = sb.gap_certificate(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert cert.upper == 0.0
        assert cert.radius == 0.0
        assert not cert.is_gap
        assert cert.degenerate
        assert cert.beta == 0.0 and cert.interpolation_residual == 0.0
        assert isinstance(cert.blaschke, sb.ZeroInterpolant)
        value = cert.blaschke(0.5)
        assert type(value) is complex and value == 0.0
        values = cert.blaschke(circle_grid(8))
        assert values.shape == (8,) and values.dtype == complex and not values.any()

    def test_degenerate_residual_is_the_largest_modulus(self):
        # the constant-zero interpolant misses each eigenvalue by its modulus
        cert = sb.blaschke_through_roots_of_unity([1e-10, -2e-10j])
        assert cert.degenerate and cert.beta == 0.0 and cert.upper == 0.0
        assert cert.interpolation_residual == cert.residuals()["interpolation_max"] == 2e-10

    def test_fields_derive_from_the_independent_ones(self):
        # upper, radius and the residual follow from (beta, blaschke,
        # eigenvalues); the residual is recomputed from the stored fields
        cert = sb.gap_certificate(np.diag([0.3, -0.5, 0.1j]))
        again = sb.GapCertificate(
            cert.beta, cert.blaschke, cert.eigenvalues.copy(), cert.smallest_eigenvalue
        )
        assert (again.upper, again.radius, again.is_gap) == (cert.upper, cert.radius, cert.is_gap)
        assert cert.upper == abs(cert.beta) ** 3 and cert.radius == 0.5
        before = cert.residuals()["interpolation_max"]
        assert before == cert.interpolation_residual <= 1e-6
        cert.eigenvalues[0] += 1e-3
        assert cert.residuals()["interpolation_max"] >= 1e-3 - before
        assert again.residuals()["interpolation_max"] == before

    def test_beta_and_product_are_the_symmetrized_disc(self):
        """(beta, B) is the analytic disc zeta -> sigma(B(eps_j zeta^(1/n)))
        into the symmetrized polydisc behind ``upper``: it maps 0 to sigma(0)
        and zeta = beta^n, whose n-th roots are the nodes eps_j beta, to
        sigma(B)."""
        rng = np.random.default_rng(44)
        for n in range(2, 7):
            eps = np.exp(2j * np.pi * np.arange(n) / n)
            for _ in range(8):
                b = random_ball_matrix(rng, n, radius=rng.uniform(0.3, 0.95))
                cert = sb.gap_certificate(b)
                assert abs(cert.blaschke(0.0)) <= 1e-12
                assert cert.upper == abs(cert.beta) ** n
                disc = sb.elementary_symmetric(cert.blaschke(eps * cert.beta))
                np.testing.assert_allclose(disc, sb.sigma(b).coords, rtol=0, atol=1e-8)

    def test_upper_never_exceeds_radius(self):
        rng = np.random.default_rng(46)
        for n in (2, 3):
            for _ in range(5):
                b = random_ball_matrix(rng, n, radius=rng.uniform(0.3, 0.85))
                cert = sb.gap_certificate(b)
                assert cert.upper <= cert.radius

    def test_equal_eigenvalue_family(self):
        rng = np.random.default_rng(47)
        for n in (2, 3):
            lam = 0.6 * np.exp(2j * np.pi * rng.uniform())
            b = lam * np.eye(n, dtype=complex)
            b[0, -1] += 0.4
            cert = sb.gap_certificate(b)
            assert abs(cert.upper - abs(lam)) <= 1e-6
            assert not cert.is_gap
            # zeros of the recovered product all sit at the origin
            zs = 0.7 * np.exp(1j * np.linspace(0.0, 6.0, 9))
            u = cert.blaschke(0.5) / 0.5**n
            assert np.max(np.abs(cert.blaschke(zs) - u * zs**n)) <= 1e-6

    def test_outside_ball(self):
        with pytest.raises(sb.DomainError):
            sb.gap_certificate(np.diag([1.1, 0.0]))
        with pytest.raises(sb.DomainError, match="outside the spectral ball"):
            sb.gap_certificate(np.diag([0.5, -1.0]))

    def test_every_eigenvalue_order_gives_a_valid_bound(self):
        # the search pairs the values with the roots of unity in the order
        # it is given them; for n >= 3 orders outside one cyclic class give
        # other bounds (0.47 to 0.59 here), and each of them must be valid
        lam = np.array([0.8, 0.3j, -0.5, 0.1 - 0.4j])
        eps = np.exp(2j * np.pi * np.arange(4) / 4)
        for order in permutations(range(4)):
            values = lam[list(order)]
            sol = sb.blaschke_through_roots_of_unity(values)
            assert abs(sol.beta) ** 4 <= 0.8
            assert np.abs(sol.blaschke(eps * sol.beta) - values).max() <= 1e-6


#: Spectra of two benchmark reports (certify seed 4 report 1085 and seed 7
#: report 913, n = 8, r(B) 0.517 and 0.504), in np.linalg.eigvals order: the
#: certificate depends on the order.  A bracket end up to 1e-10 below the
#: boundary (smallest Pick eigenvalue -2.2e-10 on the first) and a product
#: zero at |z| = 0.996 made their recovery fail.
RECOVERY_REGRESSIONS = [
    [
        0.23957823634574305 + 0.45846051970862234j,
        -0.43675515529518205 - 0.004174671701855998j,
        -0.18390453208356344 - 0.30428010762980334j,
        0.021397971928612664 - 0.36530747964459315j,
        -0.11719384940262227 + 0.18844451799417394j,
        0.27620904475364394 + 0.055030699857871485j,
        0.13381240136926928 + 0.12186738167736215j,
        0.07881279082703593 - 0.07501111473772852j,
    ],
    [
        -0.31757378882284043 + 0.24799122304741944j,
        -0.09142352265649682 - 0.35729650601977114j,
        0.19045823360356157 - 0.4666137062394692j,
        0.14933332590852097 - 0.323064249394763j,
        0.05898332134325312 + 0.343302889388289j,
        0.25656564915082636 + 0.26072155670816416j,
        0.23154122940695507 + 0.07939446536987564j,
        0.056222513379940955 + 0.08488026992720446j,
    ],
]


class TestSearchRegressions:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("x", [1.0 - 1e-6, 1.0 - 2e-7, 1.0 - 1e-7])
    def test_near_the_circle(self, x, n):
        # above 1 - 1e-6 the scan starts halfway between its bottom and 1
        cert = sb.gap_certificate(np.diag([x] + [0.0] * (n - 1)))
        assert cert.interpolation_residual <= 1e-6
        assert cert.upper <= cert.radius
        if n == 2:
            # Agler-Young value of diag(x, 0)
            assert abs(cert.upper - x / (2.0 - x)) <= 1e-9

    @pytest.mark.parametrize("n", [2, 3])
    def test_closer_to_the_circle_certifies(self, n):
        # regression: the null-vector recovery raised NumericError here
        x = 1.0 - 1e-8
        cert = sb.gap_certificate(np.diag([x] + [0.0] * (n - 1)))
        if n == 2:
            assert abs(cert.upper - x / (2.0 - x)) <= 1e-9
        else:
            assert cert.upper <= cert.radius
            assert cert.interpolation_residual <= 1e-6

    def test_no_scan_radius_on_the_circle(self):
        # about 1e-14 below 1 the scan's bottom can be the float below 1, and
        # the midpoint towards 1 rounds to 1 itself; the fourth and fifth
        # values certify the scan's bottom within 1e-9 of the Agler-Young value
        x = (np.nextafter(1.0, 0.0) - 1e-14) / (1.0 + 1e-12)
        for k, value in enumerate(x + np.linspace(-5e-16, 5e-16, 11)):
            if k in (3, 4):
                cert = sb.gap_certificate(np.diag([value, 0.0]))
                assert abs(cert.upper - value / (2.0 - value)) <= 1e-9
            else:
                with pytest.raises(sb.NumericError):
                    sb.gap_certificate(np.diag([value, 0.0]))

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("x", [1.0 - 9e-7, 1.0 - 5e-7, 1.0 - 1e-7])
    def test_roots_of_unity_times_x_near_the_circle(self, x, n):
        # every lam_j / eps_j is x: the closed form |beta| = x, B(z) = z, where
        # the scan's bottom read nonsingular and raised NumericError
        lam = {1: [x], 2: [x, -x]}.get(n, x * np.exp(2j * np.pi * np.arange(n) / n))
        cert = sb.gap_certificate(np.diag(lam))
        assert cert.beta == x
        assert abs(cert.upper - x**n) <= 1e-15
        assert cert.interpolation_residual <= 1e-15
        eps = np.exp(2j * np.pi * np.arange(n) / n)
        assert np.max(np.abs(cert.blaschke(eps * cert.beta) - lam)) <= 1e-15
        if n == 2:
            assert abs(cert.upper - TestAglerYoungClosedForm.closed_form(lam)) <= 1e-9

    def test_nearly_equal_ratios_are_searched(self):
        # regression: ratios lambda_j / eps_j 1e-7 apart took the closed form
        # |beta| = 1e-3, 2e-7 (relative) below the boundary; upper = |beta|^2
        # moved by only 4e-13, so a bound on upper alone does not see it
        lam = np.array([1e-3, -(1e-3 - 1e-10)])
        sol = sb.blaschke_through_roots_of_unity(lam)
        exact = np.sqrt(TestAglerYoungClosedForm.closed_form(lam))
        assert abs(abs(sol.beta) - exact) <= 1e-9 * exact
        eps = np.exp(2j * np.pi * np.arange(2) / 2)
        r = abs(sol.beta)
        vals = np.linalg.eigvalsh(sb.pick_matrix(PickProblem(eps * r, lam / (eps * r))))
        assert sol.smallest_eigenvalue >= -pick_module.PICK_MARGIN * vals[-1]

    def test_nearly_equal_small_ratios_are_a_numeric_error(self):
        # ratios 9e-4 (relative) apart took the closed form |beta| = 1e-6 with
        # a Pick eigenvalue of -3.7e-4 there; the boundary is |beta| = 2.1e-5,
        # where the two targets agree to 5e-5 and the recovered product misses
        # them by 2.3e-5 (the null-vector recovery failed here too)
        with pytest.raises(sb.NumericError):
            sb.gap_certificate(np.diag([1e-6, -(1e-6 - 9e-10)]))

    @pytest.mark.parametrize(
        "lam", [[0.9999, 0.9999 - 1e-9], [0.9999 * np.exp(0.5j), 0.9999]], ids=["close", "apart"]
    )
    def test_bracket_end_close_to_the_circle(self, lam):
        # a lower end up to 1e-10 below the boundary read as a Pick matrix that
        # is not positive semidefinite (PreconditionError) at r(B) = 0.9999
        cert = sb.gap_certificate(np.diag(lam))
        assert abs(cert.upper - TestAglerYoungClosedForm.closed_form(lam)) <= 1e-9

    @pytest.mark.parametrize("n", range(2, 9))
    def test_scalar_spectra_certify_in_closed_form(self, n):
        # regression: c I raised NumericError for small c (up to 7.6e-7 at
        # n = 8): the search's product split its (n - 1)-fold zero at the origin
        for c in 10.0 ** -np.linspace(0.05, 8.5, 40) * np.exp(0.7j):
            cert = sb.blaschke_through_roots_of_unity(np.full(n, c))
            assert_power_closed_form(cert, np.full(n, c), n)
            assert abs(cert.radius - abs(c)) <= np.finfo(float).eps * abs(c) and not cert.is_gap
            cert = sb.gap_certificate(c * np.eye(n))
            assert abs(cert.upper - abs(c)) <= 2e-15 * abs(c)
            assert cert.blaschke.order == n and not cert.is_gap

    @pytest.mark.parametrize("n, k", [(3, 2), (4, 2), (4, 3), (6, 4), (8, 5)])
    def test_powers_of_roots_of_unity_certify_in_closed_form(self, n, k):
        eps = np.exp(2j * np.pi * np.arange(n) / n)
        for c in (0.9 * np.exp(0.3j), 1e-3, -2e-8j):
            lam = c * eps**k
            cert = sb.blaschke_through_roots_of_unity(lam)
            assert_power_closed_form(cert, lam, k)
            assert cert.is_gap == (abs(c) ** (n / k) < abs(c) - 1e-9)

    @pytest.mark.xfail(
        strict=True,
        reason="for values below about 1e-6 the search can stop below the "
        "boundary by more than BISECT_WIDTH (CHANGES.md, FOUND: small spectra)",
    )
    def test_tiny_spectrum_is_feasible_bisect_width_above(self):
        # the smallest Pick eigenvalue moves by less than its rounding margin
        # over BISECT_WIDTH here, and the search stops within a few margins
        # of zero: -5.2e-13 at |beta|, -3.2e-13 at |beta| + BISECT_WIDTH
        lam = np.array([0.0, 1.192092896e-07])
        sol = sb.blaschke_through_roots_of_unity(lam)
        eps = np.exp(2j * np.pi * np.arange(2) / 2)
        assert _sequential_smallest_eig(lam, eps, abs(sol.beta) + BISECT_WIDTH) >= 0.0

    @pytest.mark.parametrize("lam", RECOVERY_REGRESSIONS, ids=["seed4-1085", "seed7-913"])
    def test_benchmark_spectra_certify(self, lam):
        cert = sb.gap_certificate(np.diag(lam))
        assert np.array_equal(sb.spectrum(np.diag(lam)).values, lam)
        assert cert.interpolation_residual <= 1e-6
        assert cert.upper <= cert.radius
        eps = np.exp(2j * np.pi * np.arange(8) / 8)
        assert np.max(np.abs(cert.blaschke(eps * cert.beta) - lam)) <= 1e-6

class TestDiscontinuityReport:
    def test_eigensolve_counts(self, count_eigvals, no_companion_roots):
        # one solve of B; at t != 0 the certificate solves the shifted matrix;
        # each certificate adds one of its colligation's state matrix
        b = np.diag([0.8, 0.0, 0.3j]) + np.triu(np.full((3, 3), 0.2), 1)
        sb.discontinuity_report(b)
        assert len(count_eigvals) == 2
        count_eigvals.clear()
        sb.discontinuity_report(b, 0.2)
        assert len(count_eigvals) == 3

    def test_kobayashi_values_through_the_automorphism(self):
        # the automorphism taking t to 0 maps tI + hB to about
        # h B / (1 - |t|^2); at 0 the metric of X is r(X) and its generic
        # limit |tr X| / n
        h = 1e-6
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = 2 + seed % 4
            b = random_ball_matrix(rng, n, radius=rng.uniform(0.2, 0.9))
            t = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            ti = t * np.eye(n)
            x = (sb.disk_automorphism(t, ti + h * b) - sb.disk_automorphism(t, ti - h * b)) / (
                2.0 * h
            )
            rep = sb.discontinuity_report(b, t)["kobayashi"]
            assert rep["generic_limit"] == pytest.approx(abs(np.trace(x)) / n, rel=1e-6)
            assert rep["value_at_scalar_base"] == pytest.approx(sb.spectrum(x).radius, rel=1e-6)
