import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectralball as sb
import spectralball.curves as curves_module
import spectralball.matcore as matcore_module
from conftest import (
    brute_force_bottleneck,
    random_ball_matrix,
    random_gaussian,
    random_unitary,
)


def nearby_conjugate(rng, a, scale=0.15):
    n = a.shape[0]
    q = random_unitary(rng, n, scale=scale)
    return q @ a @ q.conj().T


class TestIsoSpectralCurve:
    def test_constant(self):
        rng = np.random.default_rng(51)
        a = random_ball_matrix(rng, 3, radius=0.7)
        c = sb.iso_spectral_curve(a, a)
        for lam in (0.0, 1.0, 0.5 + 2.0j, -4.0):
            assert np.linalg.norm(c(lam) - a) <= 1e-10

    def test_triangular_example(self):
        a = np.diag([0.3, 0.5])
        b = np.array([[0.3, 7.0], [0.0, 0.5]])
        c = sb.iso_spectral_curve(a, b)
        assert np.linalg.norm(c(0.0) - a) <= 1e-10
        assert np.linalg.norm(c(1.0) - b) <= 1e-8
        check = sb.verify_constant_spectrum(c, sb.spectrum(a))
        assert check.passed, check.max_deviation

    def test_derogatory_to_nonderogatory(self):
        a = 0.4 * np.eye(2)
        b = np.array([[0.4, 1.0], [0.0, 0.4]])
        c = sb.iso_spectral_curve(a, b)
        assert np.linalg.norm(c(0.0) - a) <= 1e-10
        assert np.linalg.norm(c(1.0) - b) <= 1e-8
        assert sb.verify_constant_spectrum(c, sb.spectrum(a)).passed

    def test_conjugated_pairs(self):
        rng = np.random.default_rng(52)
        for n in (2, 3):
            a = random_ball_matrix(rng, n, radius=0.7)
            b = nearby_conjugate(rng, a)
            c = sb.iso_spectral_curve(a, b)
            assert np.linalg.norm(c(0.0) - a) <= 1e-10
            assert np.linalg.norm(c(1.0) - b) <= 1e-8
            check = sb.verify_constant_spectrum(c, sb.spectrum(a))
            assert check.passed, check.max_deviation

    def test_shared_diagonal_invariant(self):
        rng = np.random.default_rng(53)
        a = random_ball_matrix(rng, 3, radius=0.6)
        b = nearby_conjugate(rng, a)
        c = sb.iso_spectral_curve(a, b)
        np.testing.assert_array_equal(np.diag(c.t0), np.diag(c.t1))

    def test_spectrum_mismatch(self):
        with pytest.raises(sb.PreconditionError):
            sb.iso_spectral_curve(np.diag([0.1, 0.2]), np.diag([0.1, 0.3]))

    def test_optimal_pairing_accepts_what_greedy_rejected(self):
        # greedy nearest-first pairs 0.5+1e-6 with 0.5+1.8e-6 and is then
        # left with a gap of 2e-6; the optimal pairing's gap is 1e-6, below
        # PAIRING_TOL * (1 + r) = 1.5e-6
        a = np.array([[0.5 + 1e-6, 0.3], [0.0, 0.5 + 2e-6]])
        b = np.array([[0.5, 0.2], [0.0, 0.5 + 1.8e-6]])
        c = sb.iso_spectral_curve(a, b)
        assert np.linalg.norm(c(0.0) - a) <= 1e-10
        assert np.linalg.norm(c(1.0) - b) <= 1.1e-6
        assert sb.verify_constant_spectrum(c, sb.spectrum(a)).passed

    def test_outside_ball(self):
        with pytest.raises(sb.DomainError):
            sb.iso_spectral_curve(np.diag([1.2, 0.0]), np.diag([1.2, 0.0]))


class TestZeroMetricCurve:
    def test_entrywise_example(self):
        a = np.diag([0.1, 0.2])
        b = np.array([[0.0, 1.0], [0.0, 0.0]])
        c = sb.zero_metric_curve(a, b)
        assert c.kind == "exp_conjugation"
        np.testing.assert_allclose(c.generator, [[0.0, -10.0], [0.0, 0.0]], atol=1e-9)

    def test_scalar_nilpotent(self):
        b = np.array([[0.0, 1.0], [0.0, 0.0]])
        c = sb.zero_metric_curve(np.zeros((2, 2)), b)
        assert c.kind == "matrix_polynomial"
        assert sb.verify_constant_spectrum(c, sb.spectrum(np.zeros((2, 2)))).passed

    def test_unsupported_direction(self):
        with pytest.raises(sb.UnsupportedError):
            sb.zero_metric_curve(np.diag([0.1, 0.2]), np.eye(2))

    def test_derivative_and_spectrum(self):
        rng = np.random.default_rng(54)
        h = 1e-5
        for n in (2, 3):
            a = random_ball_matrix(rng, n, radius=0.6)
            y0 = 0.2 * random_gaussian(rng, n)
            b = a @ y0 - y0 @ a
            c = sb.zero_metric_curve(a, b)
            assert np.linalg.norm(c(0.0) - a) <= 1e-10
            deriv = (c(h) - c(-h)) / (2.0 * h)
            assert np.linalg.norm(deriv - b) <= 1e-6
            assert sb.verify_constant_spectrum(c, sb.spectrum(a)).passed

    def test_derogatory_nonscalar_unsupported(self):
        a = np.zeros((3, 3), dtype=complex)
        a[0, 1] = 1.0  # nilpotent, derogatory for n=3, not scalar
        with pytest.raises(sb.UnsupportedError):
            sb.zero_metric_curve(a, np.zeros((3, 3)))


class TestQuadraticWitness:
    def test_nilpotent_tail_vanishes(self):
        a = np.diag([0.1, 0.2])
        b = np.array([[0.0, 1.0], [0.0, 0.0]])
        c = sb.quadratic_witness_2x2(a, b)
        np.testing.assert_allclose(c.coefficients[2], 0.0, atol=1e-12)
        assert sb.verify_constant_spectrum(c, sb.spectrum(a)).passed

    def test_scalar_case(self):
        b = np.array([[0.0, 1.0], [0.0, 0.0]])
        c = sb.quadratic_witness_2x2(np.zeros((2, 2)), b)
        assert len(c.coefficients) == 2

    def test_structured_example(self):
        a = np.array([[0.1, 1.0], [0.0, 0.2]])
        b = np.array([[1.0, 0.0], [0.1, -1.0]])
        # direction satisfies tr B = 0 and vanishing symmetrized differential
        np.testing.assert_allclose(sb.sigma_pushforward(a, b), 0.0, atol=1e-14)
        c = sb.quadratic_witness_2x2(a, b)
        trace, det = sb.spectrum_polynomials_2x2(c)
        assert np.abs(trace[1:]).max() <= 1e-10
        assert np.abs(det[1:]).max() <= 1e-10
        assert sb.verify_constant_spectrum(c, sb.spectrum(a)).passed

    def test_symmetric_generator_needs_direct_solve(self):
        # the second Taylor coefficient of the exponential path fails the
        # determinant constancy here; the direct constraint solve must kick in
        a = np.diag([0.6, 0.2])
        y = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = a @ y - y @ a
        c = sb.quadratic_witness_2x2(a, b)
        trace, det = sb.spectrum_polynomials_2x2(c)
        assert np.abs(trace[1:]).max() <= 1e-10
        assert np.abs(det[1:]).max() <= 1e-10
        h = 1e-5
        deriv = (c(h) - c(-h)) / (2.0 * h)
        assert np.linalg.norm(deriv - b) <= 1e-6
        assert sb.verify_constant_spectrum(c, sb.spectrum(a)).passed

    def test_random_commutator_directions(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            a = random_ball_matrix(rng, 2, radius=0.7)
            y0 = 0.3 * random_gaussian(rng, 2)
            b = a @ y0 - y0 @ a
            c = sb.quadratic_witness_2x2(a, b)
            trace, det = sb.spectrum_polynomials_2x2(c)
            assert np.abs(trace[1:]).max() <= 1e-10
            assert np.abs(det[1:]).max() <= 1e-10

    def test_wrong_dimension(self):
        with pytest.raises(sb.InvalidInputError):
            sb.quadratic_witness_2x2(np.eye(3), np.zeros((3, 3)))

    def test_non_nilpotent_scalar_direction(self):
        with pytest.raises(sb.UnsupportedError):
            sb.quadratic_witness_2x2(0.1 * np.eye(2), np.eye(2))


class TestVerifier:
    def test_constant_curve(self):
        a = np.diag([0.2, 0.4])
        c = sb.MatrixPolynomialCurve([a])
        check = sb.verify_constant_spectrum(c, sb.spectrum(a))
        assert check.passed and check.max_deviation <= 1e-14

    def test_detects_invalid_witness(self):
        a = 0.1 * np.eye(2)
        b = np.diag([1.0, -1.0])  # not nilpotent
        c = sb.MatrixPolynomialCurve([a, b])
        check = sb.verify_constant_spectrum(c, sb.spectrum(a))
        assert not check.passed

    def test_exp_conjugation_exactness(self):
        rng = np.random.default_rng(56)
        a = random_ball_matrix(rng, 3, radius=0.5)
        y = 0.2 * random_gaussian(rng, 3)
        c = sb.ExpConjugationCurve(base=a, generator=y)
        check = sb.verify_constant_spectrum(c, sb.spectrum(a), tol=1e-8)
        assert check.passed

    @pytest.mark.parametrize("samples", [-3, 0, 1])
    def test_rejects_fewer_than_two_samples(self, samples):
        # A + lam I is not constant, but lam = 0 alone would not show it
        a = np.diag([0.2, 0.4])
        c = sb.MatrixPolynomialCurve([a, np.eye(2)])
        with pytest.raises(sb.InvalidInputError):
            sb.verify_constant_spectrum(c, sb.spectrum(a), samples=samples)

    def test_two_samples_suffice(self):
        a = np.diag([0.2, 0.4])
        c = sb.MatrixPolynomialCurve([a, np.eye(2)])
        check = sb.verify_constant_spectrum(c, sb.spectrum(a), samples=2)
        assert not check.passed
        assert check.max_deviation == 1.0 and check.worst_point == 1.0

    def test_non_finite_values_rejected(self):
        def c(lam):
            return np.full((len(lam), 2, 2), np.inf)

        with pytest.raises(sb.InvalidInputError, match="finite"):
            sb.verify_constant_spectrum(c, np.zeros(2))

    def test_curve_must_accept_parameter_arrays(self):
        a = np.diag([0.2, 0.4])
        with pytest.raises(sb.InvalidInputError, match="stacked"):
            sb.verify_constant_spectrum(lambda lam: a, sb.spectrum(a))


def reference_check(curve, expected, samples=100, radius=10.0, tol=1e-6):
    """The verifier as a per-point loop: scalar evaluation, one eigensolve
    and one bottleneck assignment per sample, first maximum kept."""
    exp_values = np.asarray(expected.values)
    worst, worst_point = -1.0, None
    for lam in curves_module._sample_points(samples, radius):
        vals = np.linalg.eigvals(curve(lam))
        dev, _ = sb.bottleneck_assignment(np.abs(vals[:, None] - exp_values[None, :]))
        if dev > worst:
            worst, worst_point = dev, complex(lam)
    return worst <= tol, worst, worst_point


def scalar_polynomial(coefficients, lam):
    """sum_k lam^k C_k with powers formed by Python complex products."""
    out, power = 0.0, 1.0 + 0.0j
    for c in coefficients:
        out = out + power * c
        power *= complex(lam)
    return out


def curves_of_each_class(rng, n):
    """Base matrix and one curve of each class at size n."""
    a = random_ball_matrix(rng, n, radius=0.7)
    iso = sb.iso_spectral_curve(a, nearby_conjugate(rng, a))
    exp = sb.ExpConjugationCurve(base=a, generator=0.2 * random_gaussian(rng, n))
    poly = sb.MatrixPolynomialCurve(
        [a, 1e-3 * random_gaussian(rng, n), 1e-9 * random_gaussian(rng, n)]
    )
    return a, (iso, exp, poly)


def loop_sample_points(samples, radius):
    """The sampling rule as a per-point loop, one scalar point at a time."""
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    pts = [0.0 + 0.0j, 1.0 + 0.0j]
    for k in range(samples - 2):
        r = radius * np.sqrt((k + 0.5) / (samples - 2))
        theta = 2.0 * np.pi * ((k * golden) % 1.0)
        pts.append(r * np.exp(1j * theta))
    return np.array(pts)


class TestVectorizedVerifier:
    @pytest.mark.parametrize("radius", (10.0, 1.0, 0.37))
    def test_sample_points_match_loop_bitwise(self, radius):
        for samples in [*range(2, 130), 1000, 5000]:
            got = curves_module._sample_points(samples, radius)
            ref = loop_sample_points(samples, radius)
            assert got.dtype == ref.dtype and got.shape == (samples,)
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_stacked_evaluation_matches_pointwise(self, n):
        rng = np.random.default_rng(600 + n)
        _, curves = curves_of_each_class(rng, n)
        points = curves_module._sample_points(40, 10.0)
        for curve in curves:
            assert curve(points[3]).shape == (n, n)
            stacked = curve(points)
            assert stacked.shape == (len(points), n, n)
            np.testing.assert_array_equal(stacked, np.stack([curve(p) for p in points]))
        # the polynomial's powers round like Python's scalar complex product
        poly = sb.MatrixPolynomialCurve([random_gaussian(rng, n) for _ in range(4)])
        np.testing.assert_array_equal(
            poly(points), np.stack([scalar_polynomial(poly.coefficients, p) for p in points])
        )

    @pytest.mark.parametrize("n", range(2, 9))
    def test_verifier_matches_reference_loop(self, n):
        rng = np.random.default_rng(700 + n)
        a, curves = curves_of_each_class(rng, n)
        expected = sb.spectrum(a)
        for curve in curves:
            check = sb.verify_constant_spectrum(curve, expected)
            passed, worst, worst_point = reference_check(curve, expected)
            assert abs(check.max_deviation - worst) <= 1e-12
            assert check.worst_point == worst_point
            assert check.passed == passed

    def test_verifier_fallback_on_shared_nearest_value(self, monkeypatch):
        # both computed eigenvalues (0.4, 0.45) lie nearest to the expected 0,
        # so the nearest-value pairing is no permutation: the optimal one
        # pairs 0.4 -> 0 and 0.45 -> 1, at distance 0.55, not 0.45
        calls = []
        original = matcore_module.bottleneck_assignment

        def counting(cost):
            calls.append(cost)
            return original(cost)

        monkeypatch.setattr(matcore_module, "bottleneck_assignment", counting)
        c = sb.MatrixPolynomialCurve([np.diag([0.4, 0.45])])
        check = sb.verify_constant_spectrum(c, np.array([0.0, 1.0]), samples=5)
        assert len(calls) == 5
        assert check.max_deviation == 0.55
        assert check.worst_point == 0.0 and not check.passed
        passed, worst, worst_point = reference_check(c, sb.spectrum(np.diag([0.0, 1.0])), 5)
        assert (passed, worst, worst_point) == (False, 0.55, 0.0)

    def test_multiset_distance_mixed_stack(self):
        b = np.array([0.0, 1.0])
        stack = np.array([[0.4, 0.45], [0.25, 0.75], [1.0, 0.125]])
        np.testing.assert_array_equal(sb.multiset_distance(stack, b), [0.55, 0.25, 0.125])
        assert isinstance(sb.multiset_distance(stack[0], b), float)
        with pytest.raises(sb.InvalidInputError):
            sb.multiset_distance(stack, np.zeros(3))


_grid_value = st.builds(
    complex, st.integers(-3, 3).map(lambda k: k / 2), st.integers(-3, 3).map(lambda k: k / 2)
)
_value = st.one_of(_grid_value, st.complex_numbers(max_magnitude=4.0, allow_nan=False))


@st.composite
def stacked_multisets(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 4))
    a = np.array(draw(st.lists(st.lists(_value, min_size=n, max_size=n), min_size=m, max_size=m)))
    b = np.array(draw(st.lists(_value, min_size=n, max_size=n)))
    return a, b, draw(st.permutations(range(n))), draw(st.permutations(range(n)))


class TestMultisetDistanceProperties:
    @settings(max_examples=200, deadline=None)
    @given(stacked_multisets())
    def test_matches_brute_force_and_is_permutation_invariant(self, case):
        a, b, perm_a, perm_b = case
        got = sb.multiset_distance(a, b)
        assert got.shape == (len(a),)
        for row, value in zip(a, got):
            cost = np.abs(row[:, None] - b[None, :])
            assert value == brute_force_bottleneck(cost)[0]
        np.testing.assert_array_equal(sb.multiset_distance(a[:, perm_a], b), got)
        np.testing.assert_array_equal(sb.multiset_distance(a, b[perm_b]), got)
        # the pairing behind it: each permutation attains its value, and a
        # stack gives its slices' values and permutations
        cost = np.abs(a[:, :, None] - b)
        value, perm = matcore_module._bottleneck_pairing(cost)
        np.testing.assert_array_equal(value, got)
        for k in range(len(a)):
            assert sorted(perm[k]) == list(range(len(b)))
            assert cost[k][np.arange(len(b)), perm[k]].max() == value[k]
            one_value, one_perm = matcore_module._bottleneck_pairing(cost[k])
            assert one_value == value[k]
            np.testing.assert_array_equal(one_perm, perm[k])


class TestTaylorDecay:
    def test_cubic_remainder(self):
        rng = np.random.default_rng(57)
        a = random_ball_matrix(rng, 2, radius=0.6)
        y0 = 0.4 * random_gaussian(rng, 2)
        b = a @ y0 - y0 @ a
        c = sb.zero_metric_curve(a, b)
        y = c.generator
        psi = (y @ y @ a - 2.0 * y @ a @ y + a @ y @ y) / 2.0

        def remainder(lam):
            quad = a + lam * b + lam**2 * psi
            return np.linalg.norm(c(lam) - quad)

        r2, r3 = remainder(1e-2), remainder(1e-3)
        ratio = r2 / r3
        assert 1e3 / 3 <= ratio <= 3e3
