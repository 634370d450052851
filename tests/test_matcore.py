from itertools import combinations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import spectralball as sb
import spectralball.curves as curves_module
import spectralball.matcore as matcore_module
from conftest import (
    crafted_suite,
    jordan_block,
    random_ball_matrix,
    random_gaussian,
    random_unitary,
)


def sorted_vals(values):
    values = np.asarray(values)
    return values[np.lexsort((values.imag, values.real))]


class TestSpectrum:
    def test_diagonal(self):
        sp = sb.spectrum(np.diag([0.5, -0.8j]))
        np.testing.assert_allclose(
            sorted_vals(sp.values), sorted_vals([0.5, -0.8j]), atol=1e-14
        )
        assert sp.radius == pytest.approx(0.8)

    def test_zero_matrix(self):
        sp = sb.spectrum(np.zeros((3, 3)))
        np.testing.assert_allclose(sp.values, 0.0)
        assert sp.radius == 0.0

    def test_companion_roots(self):
        # roots of t^2 - 0.3 t + 0.02 by the quadratic formula
        sp = sb.spectrum(np.array([[0.0, -0.02], [1.0, 0.3]]))
        np.testing.assert_allclose(
            sorted_vals(sp.values), [0.1, 0.2], atol=1e-12
        )

    def test_trace_det_consistency(self):
        rng = np.random.default_rng(42)
        for n in (2, 3, 4, 5):
            for _ in range(10):
                a = random_gaussian(rng, n)
                sp = sb.spectrum(a)
                assert abs(sp.values.sum() - np.trace(a)) <= 1e-9 * (
                    1.0 + abs(np.trace(a))
                )
                assert abs(np.prod(sp.values) - np.linalg.det(a)) <= 1e-9 * (
                    1.0 + abs(np.linalg.det(a))
                )

    def test_invalid_inputs(self):
        with pytest.raises(sb.InvalidInputError):
            sb.spectrum(np.ones((2, 3)))
        with pytest.raises(sb.InvalidInputError):
            sb.spectrum(np.array([[np.nan, 0], [0, 1]]))
        with pytest.raises(sb.InvalidInputError):
            sb.spectrum(np.zeros((0, 0)))


TWO, THREE = np.diag([0.3, 0.1]), np.diag([0.3, 0.1, 0.0])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sb.as_matrix(np.ones(3)), "got shape (3,)"),
        (lambda: sb.companion([0.5, np.nan]), "coordinates must be finite"),
        (lambda: sb.solve_conjugation(TWO, THREE), "same dimension"),
        (lambda: sb.zero_metric_curve(TWO, THREE), "same dimension"),
        (lambda: sb.iso_spectral_curve(TWO, THREE), "same dimension"),
        (lambda: sb.upper_bound_disc(TWO, THREE, 0.5), "same dimension"),
        (
            lambda: sb.spectrum_polynomials_2x2(sb.MatrixPolynomialCurve([THREE, THREE])),
            "only 2x2",
        ),
    ],
    ids=[
        "as_matrix-1d", "companion-nan", "solve_conjugation-sizes", "zero_metric_curve-sizes",
        "iso_spectral_curve-sizes", "upper_bound_disc-sizes", "spectrum_polynomials_2x2-3x3",
    ],
)
def test_shape_and_finiteness_errors(call, message):
    with pytest.raises(sb.InvalidInputError) as err:
        call()
    assert message in str(err.value)


class TestSigma:
    def test_diagonal_example(self):
        np.testing.assert_allclose(
            sb.sigma(np.diag([0.1, 0.2])).coords, [0.3, 0.02], atol=1e-14
        )

    def test_zero(self):
        np.testing.assert_allclose(sb.sigma(np.zeros((4, 4))).coords, 0.0)

    def test_similarity_invariance(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4, 5):
            for _ in range(5):
                a = random_gaussian(rng, n)
                p = np.eye(n) + 0.4 * random_gaussian(rng, n)
                conj = np.linalg.solve(p, a @ p)
                diff = np.abs(sb.sigma(conj).coords - sb.sigma(a).coords)
                assert diff.max() <= 1e-8 * (1.0 + np.abs(sb.sigma(a).coords).max())

    def test_char_poly_agreement(self):
        rng = np.random.default_rng(4)
        a = random_gaussian(rng, 4)
        point = sb.sigma(a)
        for t in (0.7, -1.3 + 0.4j, 2.0j):
            direct = np.linalg.det(t * np.eye(4) - a)
            from_poly = np.polyval(point.char_coefficients(), t)
            assert abs(direct - from_poly) <= 1e-9 * (1.0 + abs(direct))

    def test_symmetrized_polydisc_membership(self):
        assert sb.sigma(np.diag([0.5, -0.3])).in_symmetrized_polydisc()
        assert not sb.sigma(np.diag([1.5, 0.0])).in_symmetrized_polydisc()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_coordinates_raise_numeric_error(self):
        # finite eigenvalues whose product, 1e616, no float holds
        with pytest.raises(sb.NumericError, match="symmetrized coordinates overflow"):
            sb.sigma(np.diag([1e308, 1e308]))
        assert sb.spectrum(np.diag([1e154, 1e154])).symmetrized().coords[1] == 1e308


class TestCentered:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [-1066, -600, 600, 1019])
    def test_same_normalized_matrix_at_every_scale(self, k):
        # integer entries stay exact down to the subnormal range; at 2^1019
        # the trace overflows unscaled, at 2^-1066 dividing by c does
        rng = np.random.default_rng(17)
        a = rng.integers(-8, 9, (4, 4)) + 1j * rng.integers(-8, 9, (4, 4))
        tau, c, m = matcore_module._centered(a, sb.DEFAULT_TOL)
        scaled = np.empty_like(a)
        scaled.real, scaled.imag = np.ldexp(a.real, k), np.ldexp(a.imag, k)
        tau_k, c_k, m_k = matcore_module._centered(scaled, sb.DEFAULT_TOL)
        assert np.array_equal(m_k, m)
        assert tau_k == complex(np.ldexp(tau.real, k), np.ldexp(tau.imag, k))
        assert c_k == pytest.approx(np.ldexp(c, k), rel=1e-12 if k > -1000 else 1e-3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scalar_at_the_top_of_the_range(self):
        tau, c, m = matcore_module._centered(1e308 * np.eye(3, dtype=complex), sb.DEFAULT_TOL)
        assert (tau, c) == (1e308, 0.0) and not m.any()


class TestFrobenius:
    @pytest.mark.parametrize("k", [-1070, -600, 0, 600, 1015])
    def test_norm_at_every_scale(self, k):
        # 2^1015 squares to inf and 2^-1070 to 0: np.linalg.norm fails at both
        rng = np.random.default_rng(19)
        a = rng.integers(-8, 9, (4, 4)) + 1j * rng.integers(-8, 9, (4, 4))
        scaled = np.empty_like(a)
        scaled.real, scaled.imag = np.ldexp(a.real, k), np.ldexp(a.imag, k)
        expected = np.ldexp(np.linalg.norm(a), k)
        rel = 1e-15 if k > -1000 else 1e-3
        assert matcore_module._frobenius(scaled) == pytest.approx(expected, rel=rel)

    def test_zero_and_real_input(self):
        assert matcore_module._frobenius(np.zeros((3, 3), dtype=complex)) == 0.0
        assert matcore_module._frobenius(np.array([[3.0, 0.0], [0.0, -4.0]])) == 5.0


class TestElementarySymmetric:
    def test_values(self):
        np.testing.assert_allclose(
            sb.elementary_symmetric([1.0, 2.0, 3.0]), [6.0, 11.0, 6.0]
        )

    def test_matches_sigma(self):
        rng = np.random.default_rng(5)
        a = random_gaussian(rng, 3)
        np.testing.assert_allclose(
            sb.elementary_symmetric(np.linalg.eigvals(a)),
            sb.sigma(a).coords,
            atol=1e-12,
        )


class TestSigmaPushforward:
    def test_identity_base(self):
        rng = np.random.default_rng(6)
        b = random_gaussian(rng, 2)
        push = sb.sigma_pushforward(np.eye(2), b)
        np.testing.assert_allclose(push, [np.trace(b), np.trace(b)], atol=1e-14)

    def test_zero_direction(self):
        np.testing.assert_allclose(
            sb.sigma_pushforward(np.diag([0.3, 0.7, 0.1]), np.zeros((3, 3))), 0.0
        )

    def test_vanishing_example(self):
        a = np.diag([0.1, 0.2])
        b = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(sb.sigma_pushforward(a, b), [0.0, 0.0], atol=1e-15)

    def test_first_coordinate_is_trace_bitwise(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 5):
            a = random_gaussian(rng, n)
            b = random_gaussian(rng, n)
            assert sb.sigma_pushforward(a, b)[0] == np.trace(b)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(8)
        h = 1e-5
        for n in (2, 3, 4, 5):
            for _ in range(5):
                a = random_gaussian(rng, n)
                b = random_gaussian(rng, n)
                fd = (sb.sigma(a + h * b).coords - sb.sigma(a - h * b).coords) / (2 * h)
                diff = np.abs(sb.sigma_pushforward(a, b) - fd)
                assert diff.max() <= 1e-7

    def test_operator_matrix_agrees(self):
        rng = np.random.default_rng(9)
        for n in (2, 3, 4):
            a = random_gaussian(rng, n)
            op = sb.sigma_differential_matrix(a)
            for _ in range(3):
                b = random_gaussian(rng, n)
                via_op = op @ b.ravel(order="F")
                direct = sb.sigma_pushforward(a, b)
                np.testing.assert_allclose(via_op, direct, atol=1e-10 * (1 + np.abs(direct).max()))

    def test_dimension_mismatch(self):
        with pytest.raises(sb.InvalidInputError):
            sb.sigma_pushforward(np.eye(2), np.eye(3))

    def test_no_eigensolve(self, count_eigvals):
        rng = np.random.default_rng(11)
        a, b = random_gaussian(rng, 4), random_gaussian(rng, 4)
        sb.sigma_pushforward(a, b)
        assert len(count_eigvals) == 0
        sb.sigma_differential_matrix(a)
        assert len(count_eigvals) == 0

    def test_recurrence_coefficients_match_the_spectrum(self):
        # s_j = tr(A D_{j-1}) / j against D_j = e_j(eigenvalues) I - A D_{j-1},
        # on centered, normalized matrices as the classifier reads them
        rng = np.random.default_rng(12)
        for n in (2, 3, 5, 8, 12, 16):
            _, _, m = matcore_module._centered(random_gaussian(rng, n), sb.DEFAULT_TOL)
            sig = sb.elementary_symmetric(np.linalg.eigvals(m))
            d = np.eye(n, dtype=complex)
            rows = [d.ravel()]
            for j in range(1, n):
                d = sig[j - 1] * np.eye(n) - m @ d
                rows.append(d.ravel())
            ref = np.array(rows)
            got = sb.sigma_differential_matrix(m)
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_minors_oracle(self):
        rng = np.random.default_rng(10)
        for n in (1, 2, 3, 4, 5):
            for _ in range(4):
                a = random_gaussian(rng, n)
                b = random_gaussian(rng, n)
                oracle = minors_pushforward(a, b)
                np.testing.assert_allclose(
                    sb.sigma_pushforward(a, b),
                    oracle,
                    rtol=0,
                    atol=1e-12 * (1.0 + np.abs(oracle).max()),
                )


def minors_pushforward(a, b):
    """Differential of sigma by its definition, O(2^n): coordinate j sums the
    j x j principal minors of A with one column replaced by that of B."""
    n = a.shape[0]
    out = np.zeros(n, dtype=complex)
    for j in range(1, n + 1):
        for idx in combinations(range(n), j):
            sel = np.ix_(idx, idx)
            for col in range(j):
                m = a[sel].astype(complex)
                m[:, col] = b[sel][:, col]
                out[j - 1] += np.linalg.det(m)
    return out


class TestCompanion:
    def test_example(self):
        np.testing.assert_allclose(
            sb.companion([0.3, 0.02]),
            np.array([[0.0, -0.02], [1.0, 0.3]]),
            atol=0,
        )

    def test_zero_coords_shift(self):
        c = sb.companion(np.zeros(3))
        expected = np.zeros((3, 3))
        expected[1, 0] = expected[2, 1] = 1.0
        np.testing.assert_allclose(c, expected)

    def test_roundtrip_property(self):
        rng = np.random.default_rng(10)
        for n in (1, 2, 3, 4):
            a = random_gaussian(rng, n)
            s = sb.sigma(a)
            back = sb.sigma(sb.companion(s))
            np.testing.assert_allclose(
                back.coords, s.coords, atol=1e-9 * (1 + np.abs(s.coords).max())
            )


class TestOrderedTriangularize:
    def test_reversed_diagonal(self):
        a = np.diag([0.1, 0.5, 0.9])
        u, t = sb.ordered_triangularize(a, [0.9, 0.5, 0.1])
        np.testing.assert_allclose(np.diag(t), [0.9, 0.5, 0.1], atol=1e-12)
        np.testing.assert_allclose(u.conj().T @ a @ u, t, atol=1e-12)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(3), atol=1e-12)

    def test_triangular_current_order(self):
        a = np.array([[0.2, 1.0, 0.5], [0, 0.6, -0.3], [0, 0, -0.1]], dtype=complex)
        u, t = sb.ordered_triangularize(a, [0.2, 0.6, -0.1])
        np.testing.assert_allclose(u, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(t, a, atol=1e-9)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = random_gaussian(rng, 4)
            vals = sb.spectrum(a).values
            order = vals[rng.permutation(4)]
            u, t = sb.ordered_triangularize(a, order)
            assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-10
            assert np.linalg.norm(u.conj().T @ a @ u - t) <= 1e-9 * (1 + np.linalg.norm(a))
            assert np.abs(np.diag(t) - order).max() <= 1e-8
            assert np.abs(np.tril(t, -1)).max() == 0.0

    def test_invalid_order(self):
        a = np.diag([0.1, 0.5])
        with pytest.raises(sb.InvalidInputError):
            sb.ordered_triangularize(a, [0.1, 0.7])

    def test_order_length_checked(self):
        for order in ([0.1], [0.1, np.nan]):
            with pytest.raises(sb.InvalidInputError, match="all eigenvalues"):
                sb.ordered_triangularize(np.diag([0.1, 0.5]), order)

    @pytest.mark.parametrize("n", (1, 2, 3, 5, 8))
    def test_stack_equals_its_slices(self, n):
        rng = np.random.default_rng(230 + n)
        a = np.array([random_gaussian(rng, n) for _ in range(6)])
        order = np.array([rng.permutation(np.linalg.eigvals(m)) for m in a])
        a[0] = np.triu(a[0])
        order[0] = np.diag(a[0])  # a slice whose steps are all skipped
        u, t = sb.ordered_triangularize(a.reshape(2, 3, n, n), order.reshape(2, 3, n))
        assert u.shape == t.shape == (2, 3, n, n)
        for k in range(6):
            one_u, one_t = sb.ordered_triangularize(a[k], order[k])
            assert np.array_equal(one_u, u.reshape(-1, n, n)[k])
            assert np.array_equal(one_t, t.reshape(-1, n, n)[k])
        assert np.array_equal(u.reshape(-1, n, n)[0], np.eye(n))

    def test_one_bad_slice_rejects_the_stack(self):
        a = np.array([np.diag([0.1, 0.5]), np.diag([0.2, 0.3])])
        with pytest.raises(sb.InvalidInputError, match="permutation"):
            sb.ordered_triangularize(a, [[0.5, 0.1], [0.2, 0.4]])

    @pytest.mark.parametrize("n", (3, 4))
    def test_defective_eigenvalue_in_eigvals_order(self, n):
        # eigvals splits a Jordan block into a cluster of radius about
        # eps^(1/n); each requested value is still reached to roundoff
        rng = np.random.default_rng(240 + n)
        for _ in range(20):
            s = random_gaussian(rng, n)
            a = 0.5 * np.linalg.solve(s, jordan_block(0.5, n) @ s)
            order = np.linalg.eigvals(a)
            u, t = sb.ordered_triangularize(a, order)
            assert np.linalg.norm(u @ t @ u.conj().T - a) <= 1e-13 * np.linalg.norm(a)
            assert np.abs(np.diag(t) - order).max() <= 1e-12

    @pytest.mark.parametrize("n", (2, 4, 8))
    def test_agrees_with_scipy_schur(self, n):
        # distinct eigenvalues in one order fix the triangular factor up to
        # diagonal phases, so the moduli of the entries agree
        rng = np.random.default_rng(250 + n)
        for _ in range(10):
            a = random_gaussian(rng, n)
            ref_t, _ = scipy.linalg.schur(a, output="complex")
            u, t = sb.ordered_triangularize(a, np.diag(ref_t))
            np.testing.assert_allclose(np.abs(t), np.abs(ref_t), atol=1e-12)


def bisection_bottleneck(cost):
    """Reference assignment: threshold bisection over every cost value, with
    a Kuhn matching at each tested threshold (the search before the
    lower-bound start)."""
    values = np.unique(cost)
    lo, hi = 0, len(values) - 1
    best = matcore_module._perfect_matching(cost <= values[hi])
    while lo < hi:
        mid = (lo + hi) // 2
        perm = matcore_module._perfect_matching(cost <= values[mid])
        if perm is None:
            lo = mid + 1
        else:
            hi = mid
            best = perm
    return float(values[lo]), best


def square_costs(elements):
    return st.integers(1, 8).flatmap(lambda n: hnp.arrays(float, (n, n), elements=elements))


def assert_equals_the_bisection(cost):
    """The value is the reference's and the permutation attains it: the
    nearest pairing where the rows' nearest columns are distinct, else the
    reference's matching."""
    value, perm = sb.bottleneck_assignment(cost)
    ref_value, ref_perm = bisection_bottleneck(cost)
    assert value == ref_value
    assert cost[np.arange(len(cost)), perm].max() == value
    nearest = cost.argmin(axis=1)
    if len(set(nearest)) == len(cost):
        assert np.array_equal(perm, nearest)
    else:
        assert np.array_equal(perm, ref_perm)


class TestBottleneckAssignment:
    @given(square_costs(st.integers(0, 3).map(float)))
    def test_tied_costs_equal_the_bisection(self, cost):
        assert_equals_the_bisection(cost)

    @given(square_costs(st.floats(0.0, 1.0, allow_subnormal=False)))
    def test_real_costs_equal_the_bisection(self, cost):
        assert_equals_the_bisection(cost)

    def test_lower_bound_start_needs_one_matching(self, monkeypatch):
        calls = []
        original = matcore_module._perfect_matching

        def counting(adj):
            calls.append(adj)
            return original(adj)

        monkeypatch.setattr(matcore_module, "_perfect_matching", counting)
        # distinct nearest columns attain the largest row minimum (0.3)
        value, perm = sb.bottleneck_assignment([[0.1, 0.2], [0.5, 0.3]])
        assert (value, list(perm)) == (0.3, [0, 1])
        assert not calls
        # both rows are nearest column 0; the largest column minimum (0.2)
        # is attained by the antidiagonal
        value, perm = sb.bottleneck_assignment([[0.1, 0.2], [0.15, 0.3]])
        assert (value, list(perm)) == (0.2, [1, 0])
        assert len(calls) == 1

    def test_only_the_largest_cost_admits_a_matching(self):
        # rows 0 and 1 reach only column 0 below 9, so the bisection over the
        # one larger value admits no matching and that value's threshold does
        value, perm = sb.bottleneck_assignment([[0, 9, 9], [0, 9, 9], [0, 0, 0]])
        assert (value, list(perm)) == (9.0, [2, 1, 0])

    @pytest.mark.parametrize(
        "cost",
        [np.zeros((0, 0)), [[0.1, np.nan], [0.2, 0.3]], [[np.inf]], [[0.1, 0.2]], np.ones(3)],
    )
    def test_rejects_invalid_costs(self, cost):
        with pytest.raises(sb.InvalidInputError):
            sb.bottleneck_assignment(cost)


def eig_log(u):
    """q diag(i theta) q* from the frame path's decomposition u = q diag(e^(i theta)) q*."""
    theta, q = matcore_module._unitary_eig(u)
    return (q * (1j * theta)) @ q.conj().T


class TestExpLog:
    def test_exp_zero(self):
        np.testing.assert_allclose(sb.expm_pair(np.zeros((3, 3)))[0], np.eye(3))

    def test_exp_nilpotent(self):
        n = np.array([[0.0, 2.5], [0.0, 0.0]])
        np.testing.assert_allclose(sb.expm_pair(n)[0], np.eye(2) + n, atol=1e-14)

    def test_log_identity(self):
        np.testing.assert_allclose(eig_log(np.eye(4)), np.zeros((4, 4)))

    def test_roundtrip(self):
        rng = np.random.default_rng(12)
        for n in (2, 3, 5):
            u = random_unitary(rng, n, scale=1.5)
            l = eig_log(u)
            assert np.linalg.norm(l + l.conj().T) <= 1e-12  # skew-Hermitian
            assert np.linalg.norm(sb.expm_pair(l)[0] - u) <= 1e-9
            assert np.linalg.norm(l - scipy.linalg.logm(u)) <= 1e-12

    def test_log_rejects_non_unitary(self):
        # the frame path checks u* v before it decomposes it
        t = np.array([[0.1, 1.0], [0.0, 0.2]])
        with pytest.raises(sb.InvalidInputError, match="not unitary"):
            sb.TriangularConjugationCurve(frame=np.eye(2), frame_end=2.0 * np.eye(2), t0=t, t1=t)

    def test_log_principal_branch(self):
        # the eigenvalue -1 takes the angle +pi, never -pi
        l = eig_log(np.diag([1.0, -1.0, 1j]))
        np.testing.assert_allclose(l, np.diag([0.0, 1j * np.pi, 0.5j * np.pi]), atol=1e-15)
        assert l[1, 1].imag == np.pi

    def test_log_of_a_cluster_around_minus_one(self):
        q = random_unitary(np.random.default_rng(13), 3, scale=1.0)
        angles = np.array([np.pi - 1e-3, -np.pi + 2e-3, 0.5])
        u = (q * np.exp(1j * angles)) @ q.conj().T
        l = eig_log(u)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(-1j * l)), np.sort(angles), atol=1e-12
        )
        assert np.linalg.norm(sb.expm_pair(l)[0] - u) <= 1e-12

    def test_log_spectral_norm_at_most_pi(self):
        rng = np.random.default_rng(14)
        for n in (1, 2, 4, 8):
            for _ in range(10):
                q, r = np.linalg.qr(random_gaussian(rng, n))
                u = q * (np.diag(r) / np.abs(np.diag(r)))
                l = eig_log(u)
                assert np.linalg.norm(l, 2) <= np.pi * (1.0 + 1e-14)
                assert np.linalg.norm(sb.expm_pair(l)[0] - u) <= 1e-12


def expm_oracle_stack(rng, n):
    """Slices of size n: zero, diagonal, triangular, nilpotent, normal and
    non-normal, with 1-norms from 0 to about 100."""
    slices = [np.zeros((n, n), dtype=complex)]
    for norm in (1e-8, 0.3, 3.0, 5.3, 5.4, 20.0, 100.0):
        g = random_gaussian(rng, n)
        h = (g + g.conj().T) / 2.0
        k = (g - g.conj().T) / 2.0
        shapes = [
            np.diag(np.diag(g)),
            np.triu(g),
            np.triu(g, 1),
            jordan_block(0.0, n),
            h,
            k,
            g,
            np.triu(g) + 1e-3 * np.tril(g, -1),
        ]
        for m in shapes:
            size = np.abs(m).sum(axis=0).max()
            if size > 0.0:
                slices.append(m * (norm / size))
    return np.array(slices)


class TestExpmPair:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_scipy(self, n):
        x = expm_oracle_stack(np.random.default_rng(300 + n), n)
        e, e_inv = sb.expm_pair(x)
        for got, ref in ((e, scipy.linalg.expm(x)), (e_inv, scipy.linalg.expm(-x))):
            err = np.linalg.norm(got - ref, axis=(1, 2))
            assert (err <= 1e-12 * np.linalg.norm(ref, axis=(1, 2))).all()

    def test_exp_zero_is_identity_exactly(self):
        for n in (1, 2, 5):
            e, e_inv = sb.expm_pair(np.zeros((3, n, n)))
            assert np.array_equal(e, np.broadcast_to(np.eye(n), (3, n, n)))
            assert np.array_equal(e_inv, e)

    def test_negation_swaps_the_pair_bitwise(self):
        x = expm_oracle_stack(np.random.default_rng(320), 4)
        e, e_inv = sb.expm_pair(x)
        neg, neg_inv = sb.expm_pair(-x)
        assert np.array_equal(neg, e_inv) and np.array_equal(neg_inv, e)

    @pytest.mark.parametrize("n", (1, 2, 3, 8))
    def test_stack_equals_its_slices_bitwise(self, n):
        x = expm_oracle_stack(np.random.default_rng(330 + n), n)
        # twelve slices spread over the norms, so their squaring counts differ
        x = x[np.linspace(0, len(x) - 1, 12).astype(int)]
        e, e_inv = sb.expm_pair(x.reshape(4, 3, n, n))
        assert e.shape == (4, 3, n, n)
        for k, m in enumerate(x):
            one, one_inv = sb.expm_pair(m)
            assert one.shape == (n, n)
            assert np.array_equal(one, e.reshape(-1, n, n)[k])
            assert np.array_equal(one_inv, e_inv.reshape(-1, n, n)[k])

    def test_product_is_identity(self):
        for n in (2, 5, 9):
            x = expm_oracle_stack(np.random.default_rng(340 + n), n)
            x = x[np.abs(x).sum(axis=1).max(axis=1) <= 20.0]
            e, e_inv = sb.expm_pair(x)
            cond = np.linalg.norm(e, axis=(1, 2)) * np.linalg.norm(e_inv, axis=(1, 2))
            resid = np.linalg.norm(e @ e_inv - np.eye(n), axis=(1, 2))
            assert (resid <= 1e-13 * cond).all()

    @given(
        hnp.arrays(
            complex,
            st.tuples(st.integers(1, 3), st.integers(1, 4)).map(lambda t: (t[0], t[1], t[1])),
            elements=st.complex_numbers(max_magnitude=8.0, allow_nan=False, allow_infinity=False),
        )
    )
    def test_property_agrees_with_scipy(self, x):
        e, e_inv = sb.expm_pair(x)
        for got, ref in ((e, scipy.linalg.expm(x)), (e_inv, scipy.linalg.expm(-x))):
            err = np.linalg.norm(got - ref, axis=(1, 2))
            assert (err <= 1e-12 * np.linalg.norm(ref, axis=(1, 2))).all()

    @pytest.mark.parametrize(
        "x", [np.zeros(3), np.zeros((2, 3)), np.zeros((2, 0, 0)), np.array([[np.nan]])]
    )
    def test_rejects_invalid_input(self, x):
        with pytest.raises(sb.InvalidInputError):
            sb.expm_pair(x)

    def test_verifier_calls_the_kernel_once_per_curve(self, count_calls):
        # the iso curve takes exp(lam L) from the eigenbasis of L that it took
        # when it was built, with no eigh, and so does the exponential
        # conjugation from the eig of a Gaussian generator; only a defective
        # generator, whose eigenvectors are nearly parallel, needs the Pade
        # kernel, once for the whole stack
        expm = count_calls(curves_module, "expm_pair")
        eigh = count_calls(np.linalg, "eigh")
        rng = np.random.default_rng(350)
        a = random_ball_matrix(rng, 3, radius=0.7)
        q = random_unitary(rng, 3, scale=0.2)
        curves = (
            (sb.iso_spectral_curve(a, q @ a @ q.conj().T), 0),
            (sb.ExpConjugationCurve(base=a, generator=0.2 * random_gaussian(rng, 3)), 0),
            (sb.ExpConjugationCurve(base=a, generator=0.2 * np.eye(3, k=1)), 1),
        )
        for curve, expm_count in curves:
            expm.clear()
            eigh.clear()
            assert sb.verify_constant_spectrum(curve, sb.spectrum(a), samples=50).passed
            assert expm == [(50, 3, 3)] * expm_count
            assert eigh == []


def commutant_dim(a):
    return sb.classify(a).per_criterion["commutant_dim"].diagnostic


class TestCommutant:
    def test_identity(self):
        assert commutant_dim(np.eye(3)) == 9

    def test_jordan_block(self):
        assert commutant_dim(np.array([[0.0, 1.0], [0.0, 0.0]])) == 2

    def test_distinct_diagonal(self):
        assert commutant_dim(np.diag([0.1, 0.2, 0.3])) == 3

    def test_basis_residuals(self):
        # the null vectors of the operator, unstacked by columns, commute with A
        rng = np.random.default_rng(13)
        a = random_gaussian(rng, 3)
        _, s, vh = np.linalg.svd(sb.commutation_operator(a))
        null = vh[s <= 1e-9 * s[0]].conj()
        assert len(null) == 3
        for v in null:
            m = v.reshape(3, 3, order="F")
            resid = np.linalg.norm(m @ a - a @ m)
            assert resid <= 1e-8 * np.linalg.norm(a) * np.linalg.norm(m)

    def test_dimension_at_least_n(self):
        rng = np.random.default_rng(15)
        cases = [random_gaussian(rng, n) for n in (2, 3, 4)]
        cases += [np.eye(3), np.diag([0.2, 0.2, 0.5]), np.zeros((2, 2))]
        for a in cases:
            assert commutant_dim(a) >= a.shape[0]


def kron_commutation_operator(a):
    """H -> AH - HA on column-stacked H as a difference of Kronecker products."""
    n = a.shape[0]
    return np.kron(np.eye(n), a) - np.kron(a.T, np.eye(n))


class TestCommutationOperator:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_equals_kronecker_form(self, n):
        rng = np.random.default_rng(70 + n)
        gauss = random_gaussian(rng, n)
        sparse = np.where(rng.uniform(size=(n, n)) < 0.5, 0.0, -gauss)
        for a in (gauss, sparse, 1e4 * jordan_block(-0.3, n), np.zeros((n, n), complex)):
            # equal entry for entry (a zero may carry the other sign)
            assert np.array_equal(sb.commutation_operator(a), kron_commutation_operator(a))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_commutant_dims_on_crafted_suite(self, n):
        """The classifier's commutant dimension is the nullity of the Kronecker form."""
        for a, nonderogatory in crafted_suite(n):
            a = np.asarray(a, dtype=complex)
            s = np.linalg.svd(kron_commutation_operator(a), compute_uv=False)
            expected = int(np.count_nonzero(s <= 1e-9 * max(s[0], np.linalg.norm(a))))
            dim = sb.classify(a).per_criterion["commutant_dim"].diagnostic
            assert dim == expected
            assert (dim == n) == nonderogatory


class TestSolveConjugation:
    def test_entrywise_example(self):
        a = np.diag([0.1, 0.2])
        b = np.array([[0.0, 1.0], [0.0, 0.0]])
        y = sb.solve_conjugation(a, b)
        np.testing.assert_allclose(y, [[0.0, -10.0], [0.0, 0.0]], atol=1e-9)

    def test_zero_direction(self):
        y = sb.solve_conjugation(np.diag([0.3, 0.4]), np.zeros((2, 2)))
        np.testing.assert_allclose(y, 0.0, atol=1e-12)

    def test_unreachable_direction(self):
        with pytest.raises(sb.NoSolutionError):
            sb.solve_conjugation(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_derivative_identity(self):
        rng = np.random.default_rng(14)
        a = random_ball_matrix(rng, 3, radius=0.6)
        y0 = 0.3 * random_gaussian(rng, 3)
        b = a @ y0 - y0 @ a
        y = sb.solve_conjugation(a, b)
        h = 1e-5
        step, back = sb.expm_pair(h * y)
        plus = back @ a @ step
        minus = step @ a @ back
        fd = (plus - minus) / (2 * h)
        assert np.linalg.norm(fd - b) <= 1e-6
