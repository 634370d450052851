import warnings
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import spectralball as sb
import spectralball.curves as curves_module
import spectralball.geometry as geometry_module
import spectralball.matcore as matcore_module
import spectralball.nonderog as nonderog_module
from conftest import (
    brute_force_bottleneck,
    disk_points,
    exp_frame_reference,
    jordan_block,
    principal_log,
    random_ball_matrix,
    random_gaussian,
    random_unitary,
)


def nearby_conjugate(rng, a, scale=0.15):
    n = a.shape[0]
    q = random_unitary(rng, n, scale=scale)
    return q @ a @ q.conj().T


def assert_matches_exponential_reference(curve, lam, log=None):
    """The closed-form values against u e T e^-1 u* from expm_pair, along
    *log*, by default scipy's principal logarithm of u* v."""
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    w = lam[:, None, None]
    if log is None:
        log = principal_log(curve.frame, curve.frame_end)
    ref, scale = exp_frame_reference(curve.frame, log, lam, (1.0 - w) * curve.t0 + w * curve.t1)
    err = np.linalg.norm(curve(lam) - ref, axis=(1, 2))
    assert (err <= 1e-12 * scale).all(), (err / scale).max()


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

    def test_derogatory_to_nonderogatory(self, count_calls):
        a = 0.4 * np.eye(2)
        b = np.array([[0.4, 1.0], [0.0, 0.4]])
        c = sb.iso_spectral_curve(a, b)
        assert np.linalg.norm(c(0.0) - a) <= 1e-10
        assert np.linalg.norm(c(1.0) - b) <= 1e-8
        assert sb.verify_constant_spectrum(c, sb.spectrum(a)).passed
        # rotated J_2 + J_2 at both ends: eigvals splits each double
        # eigenvalue by about sqrt(eps), under PAIRING_TOL, so the pairing
        # accepts; the split eigenvectors are too close to dependent, and
        # the deflation builds the frames
        deflation = count_calls(geometry_module, "ordered_triangularize")
        j = np.kron(np.eye(2), [[0.25, 0.1], [0.0, 0.25]])
        for seed in range(4):
            rng = np.random.default_rng([62, seed])
            q, r = random_unitary(rng, 4), random_unitary(rng, 4)
            a, b = q @ j @ q.conj().T, r @ j @ r.conj().T
            c = sb.iso_spectral_curve(a, b)
            assert np.linalg.norm(c(0.0) - a) <= geometry_module.ENDPOINT_TOL
            assert np.linalg.norm(c(1.0) - b) <= geometry_module.ENDPOINT_TOL
            assert len(deflation) == seed + 1

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

    @pytest.mark.parametrize("seed", (16, 114))
    def test_frame_log_on_the_principal_branch(self, seed):
        # pairs on which log v - log u, a difference of two principal
        # logarithms, crosses the branch cut: its norm nears 2 pi and the
        # curve leaves the spectrum at radius 10
        rng = np.random.default_rng([71, seed])
        n = int(rng.integers(2, 7))
        a = random_gaussian(rng, n)
        a *= rng.uniform(0.3, 0.9) / sb.spectrum(a).radius
        k = random_gaussian(rng, n)
        k = (k - k.conj().T) / 2.0
        k *= rng.uniform(0.05, 0.3) / np.linalg.norm(k)
        w, v = np.linalg.eigh(-1j * k)
        q = (v * np.exp(1j * w)) @ v.conj().T
        b = q @ a @ q.conj().T
        c = sb.iso_spectral_curve(a, b)
        assert np.abs(c._theta).max() <= np.pi
        assert np.linalg.norm(c(1.0) - b) <= 1e-10
        assert sb.verify_constant_spectrum(c, sb.spectrum(a)).passed
        assert_matches_exponential_reference(c, disk_points(rng, 40))

    def test_outside_ball(self):
        with pytest.raises(sb.DomainError):
            sb.iso_spectral_curve(np.diag([1.2, 0.0]), np.diag([1.2, 0.0]))


class TestClosedFormFrame:
    """exp(lam L) from the eigenbasis of L against the Pade kernel."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_exponential_reference(self, n):
        rng = np.random.default_rng([72, n])
        a = random_ball_matrix(rng, n, radius=0.8)
        same = sb.iso_spectral_curve(a, a)
        assert_matches_exponential_reference(same, disk_points(rng, 40))
        for scale in (0.2, 3.0):
            c = sb.iso_spectral_curve(a, nearby_conjugate(rng, a, scale))
            assert_matches_exponential_reference(c, disk_points(rng, 40))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_repeated_angles(self, n):
        rng = np.random.default_rng([73, n])
        angles = np.resize([0.7, 0.7, -1.2, -1.2, 3.0], n)
        v = random_unitary(rng, n)
        t0 = np.triu(random_gaussian(rng, n))
        t1 = np.triu(random_gaussian(rng, n), 1) + np.diag(np.diag(t0))
        u = random_unitary(rng, n)
        # u* v has the repeated eigenvalues exp(i angles)
        c = sb.TriangularConjugationCurve(
            frame=u, frame_end=u @ (v * np.exp(1j * angles)) @ v.conj().T, t0=t0, t1=t1
        )
        np.testing.assert_allclose(np.sort(c._theta), np.sort(angles), atol=1e-12)
        assert_matches_exponential_reference(c, disk_points(rng, 40))

    @given(
        st.integers(1, 8),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 3.0),
        st.complex_numbers(max_magnitude=10.0),
    )
    @settings(max_examples=60)
    def test_property_matches_the_exponential_reference(self, n, seed, scale, lam):
        rng = np.random.default_rng(seed)
        a = random_ball_matrix(rng, n, radius=0.8)
        c = sb.iso_spectral_curve(a, nearby_conjugate(rng, a, scale))
        assert_matches_exponential_reference(c, lam)

    @given(
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["generic", "minus_one", "repeated"]),
        st.complex_numbers(max_magnitude=10.0),
    )
    @settings(max_examples=90)
    def test_property_frame_pair(self, n, seed, case, lam):
        # any unitaries u, v, also with the eigenvalue -1 or repeated angles
        # in u* v: the curve runs from u t0 u* at 0 to v t1 v* at 1 along
        # u* v = q diag(e^(i theta)) q* with every |theta| <= pi, and its
        # values follow exp(lam L) for scipy's principal log L; at -1, where
        # that log has no unique branch, for L = q diag(i theta) q*
        rng = np.random.default_rng(seed)
        u, w = random_unitary(rng, n, scale=3.0), random_unitary(rng, n, scale=3.0)
        angles = {"minus_one": [np.pi, 0.4, np.pi, -2.0], "repeated": [0.7, 0.7, -1.2, 3.0, 3.0]}
        if case == "generic":
            v = random_unitary(rng, n, scale=3.0)
        else:
            v = u @ (w * np.exp(1j * np.resize(angles[case], n))) @ w.conj().T
        t0, t1 = (np.triu(random_gaussian(rng, n)) for _ in range(2))
        c = sb.TriangularConjugationCurve(frame=u, frame_end=v, t0=t0, t1=t1)
        theta, q = c._theta, c._q
        assert np.abs(theta).max() <= np.pi
        log = (q * (1j * theta)) @ q.conj().T
        assert np.linalg.norm(u @ sb.expm_pair(log)[0] - v) <= 1e-12
        for lam_end, frame, t in ((0.0, u, t0), (1.0, v, t1)):
            end = frame @ t @ frame.conj().T
            assert np.linalg.norm(c(lam_end) - end) <= 1e-12 * (1.0 + np.linalg.norm(t))
        assert_matches_exponential_reference(c, lam, log if case == "minus_one" else None)
        with pytest.raises(sb.InvalidInputError, match="not unitary"):
            sb.TriangularConjugationCurve(frame=u, frame_end=1.001 * v, t0=t0, t1=t1)

    @pytest.mark.parametrize(
        "log", [np.diag([0.1, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]]), np.full((2, 2), np.nan)]
    )
    def test_frame_log_must_be_skew_hermitian(self, log):
        # the log is derived from the two frames, so none that is not
        # skew-Hermitian can arise: the step I + X along an X that is not
        # skew-Hermitian is no unitary, and construction rejects the pair
        t = np.array([[0.1, 1.0], [0.0, 0.2]])
        with pytest.raises(sb.InvalidInputError, match="not unitary|finite"):
            sb.TriangularConjugationCurve(frame=np.eye(2), frame_end=np.eye(2) + log, t0=t, t1=t)

    @pytest.mark.parametrize("scale", [2.0, 0.5, 1.0 + 1e-7])
    def test_frame_must_be_unitary(self, scale):
        # u* v = I is unitary while u = scale I is not: the value at 0 would
        # be scale^2 t, so construction rejects the frame
        t = np.array([[0.1, 1.0], [0.0, 0.2]])
        with pytest.raises(sb.InvalidInputError, match="not unitary"):
            sb.TriangularConjugationCurve(
                frame=scale * np.eye(2), frame_end=np.eye(2) / scale, t0=t, t1=t
            )
        u = random_unitary(np.random.default_rng(5), 2)
        c = sb.TriangularConjugationCurve(frame=u, frame_end=u, t0=t, t1=t)
        assert np.linalg.norm(c(0.0) - u @ t @ u.conj().T) <= 1e-15


class TestZeroMetricCurve:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "a, generator, route",
        [
            # exp(lam Y) has entries e^(100 |Im lam|), the values their square
            (np.diag([0.3, 0.5]), np.array([[0.0, -100.0], [100.0, 0.0]]), "eigenbasis"),
            # nilpotent Y: the values hold lam^2 Y A Y, 0.1 lam^2 1e308
            (np.array([[0.3, 0.0], [0.1, 0.5]]), 1e154 * np.eye(2, k=1), "pade"),
        ],
    )
    def test_overflowing_values_raise_numeric_error(self, a, generator, route, count_calls):
        # the values are finite at |lam| <= 4 and overflow at 7; the curve
        # names the least |lam| at which they overflow, with no warning
        expm = count_calls(curves_module, "expm_pair")
        c = sb.ExpConjugationCurve(base=a, generator=generator)
        lam = np.array([0.0, 1e-3, 4.0, -7.0j, 3.0j, 9.0j])
        with pytest.raises(sb.NumericError, match=r"overflow at \|lam\| = 7$"):
            c(lam)
        assert np.isfinite(c(lam[[0, 1, 2, 4]])).all()
        with pytest.raises(sb.NumericError, match="overflow"):
            sb.verify_constant_spectrum(c, sb.spectrum(a))
        assert bool(expm) == (route == "pade")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_affine_curve_raises_numeric_error(self):
        # the affine witness A + lam B of a scalar base, 1e308 B: finite at
        # |lam| <= 1.5, not at 2.5 or 3
        a, b = 0.5e308 * np.eye(2), 1e308 * np.eye(2, k=1)
        c = sb.zero_metric_curve(a, b)
        assert c.kind == "matrix_polynomial"
        with pytest.raises(sb.NumericError, match=r"overflow at \|lam\| = 2.5$"):
            c(np.array([0.0, 1.0, 3.0j, 2.5, -1.5]))
        assert np.isfinite(c(np.array([0.0, 1.0, -1.5]))).all()
        with pytest.raises(sb.NumericError, match="overflow"):
            sb.verify_constant_spectrum(c, sb.spectrum(a))

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

    def test_closed_form_derivative(self):
        rng = np.random.default_rng(55)
        h = 1e-5
        a = random_ball_matrix(rng, 3, radius=0.6)
        y0 = 0.2 * random_gaussian(rng, 3)
        b = a @ y0 - y0 @ a
        c = sb.zero_metric_curve(a, b)
        assert isinstance(c, sb.ExpConjugationCurve)
        y = c.generator
        assert np.array_equal(c.derivative_at_zero(), a @ y - y @ a)
        assert np.linalg.norm(c.derivative_at_zero() - b) <= 1e-12
        central = (c(h) - c(-h)) / (2.0 * h)
        assert np.linalg.norm(central - c.derivative_at_zero()) <= 1e-8
        nil = np.array([[0.0, 1.0], [0.0, 0.0]])
        affine = sb.zero_metric_curve(0.3 * np.eye(2), nil)
        assert np.array_equal(affine.derivative_at_zero(), nil)
        assert np.array_equal(
            sb.MatrixPolynomialCurve([nil]).derivative_at_zero(), np.zeros((2, 2))
        )

    def test_derogatory_nonscalar_unsupported(self, count_calls):
        classified = count_calls(nonderog_module, "classify")
        a = np.zeros((3, 3), dtype=complex)
        a[0, 1] = 1.0  # nilpotent, derogatory for n=3, not scalar
        with pytest.raises(sb.UnsupportedError):
            sb.zero_metric_curve(a, np.zeros((3, 3)))
        assert classified == [(3, 3)]

    @pytest.mark.parametrize("n", range(2, 11))
    def test_generic_base_is_decided_by_one_eigensolve(self, count_calls, n):
        # the eigenpairs of M prove a Gaussian base non-derogatory at every
        # scale and shift: classify is not called, and the one SVD is that of
        # the eigenvectors in the proof; the other eigensolve is the curve's
        # eig of its generator
        rng = np.random.default_rng(60 + n)
        a0, y0 = random_gaussian(rng, n), 0.2 * random_gaussian(rng, n)
        classified = count_calls(nonderog_module, "classify")
        eigensolves = count_calls(np.linalg, "eig", "eigvals")
        svds = count_calls(np.linalg, "svd")
        for scale in (1.0, 1e-4, 1e4):
            for shift in (0.0, 2.0 - 1.0j):
                a = scale * a0 + shift * np.eye(n)
                b = scale * (a0 @ y0 - y0 @ a0)
                eigensolves.clear()
                svds.clear()
                c = sb.zero_metric_curve(a, b)
                assert isinstance(c, sb.ExpConjugationCurve)
                assert eigensolves == [(n, n)] * 2
                assert svds == [(n, n)]
        assert classified == []

    def test_jordan_base_falls_back_to_classify(self, count_calls):
        # a rotated Jordan block is non-derogatory, but its eigenvectors are
        # nearly parallel and prove nothing: classify decides
        rng = np.random.default_rng(61)
        u, _ = np.linalg.qr(random_gaussian(rng, 3))
        a = u @ jordan_block(0.3, 3) @ u.conj().T
        y0 = 0.2 * random_gaussian(rng, 3)
        b = a @ y0 - y0 @ a
        classified = count_calls(nonderog_module, "classify")
        c = sb.zero_metric_curve(a, b)
        assert classified == [(3, 3)]
        assert isinstance(c, sb.ExpConjugationCurve)
        assert np.linalg.norm(c.derivative_at_zero() - b) <= 1e-9 * (1.0 + np.linalg.norm(b))


def defective_zero_metric_curve():
    """The zero-metric curve of diag(0.3, 0.5) along AY - YA, Y = [[0, 0.2],
    [0, 0]]: its generator is nilpotent, and eig gives it nearly parallel
    eigenvectors."""
    a = np.diag([0.3, 0.5])
    y = np.array([[0.0, 0.2], [0.0, 0.0]])
    return a, sb.zero_metric_curve(a, a @ y - y @ a)


def pade_frames(curve, lam):
    """(values, w, w_inv) of an exponential conjugation from expm_pair."""
    w, w_inv = sb.expm_pair(np.asarray(lam, dtype=complex)[..., None, None] * curve.generator)
    return w_inv @ curve.base @ w, w, w_inv


def relative_error(x, ref):
    return np.linalg.norm(x - ref, axis=(-2, -1)) / np.linalg.norm(ref, axis=(-2, -1))


class TestExpConjugationCurve:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_eigenbasis_matches_expm_pair_and_scipy(self, count_calls, n):
        rng = np.random.default_rng([330, n])
        expm = count_calls(curves_module, "expm_pair")
        for scale in (0.2, 1.0):
            a = random_ball_matrix(rng, n, radius=0.7)
            curve = sb.ExpConjugationCurve(base=a, generator=scale * random_gaussian(rng, n))
            assert curve._eigenbasis is not None
            lam = np.concatenate(([1.0, -1.0, 10.0, 10.0j], disk_points(rng, 30)))
            values, w, w_inv = curve._with_frames(lam)
            assert expm == []
            for got, ref in zip((values, w, w_inv), pade_frames(curve, lam)):
                assert relative_error(got, ref).max() <= 1e-12
            for k, t in enumerate(lam):
                e, e_inv = scipy.linalg.expm(t * curve.generator), scipy.linalg.expm(-t * curve.generator)
                assert relative_error(w[k], e) <= 1e-12
                assert relative_error(w_inv[k], e_inv) <= 1e-12
                assert relative_error(values[k], e_inv @ a @ e) <= 1e-12

    def test_defective_generator_takes_expm_pair_bit_for_bit(self, count_calls):
        a, curve = defective_zero_metric_curve()
        assert curve._eigenbasis is None
        _, s = np.linalg.eig(curve.generator)
        assert np.linalg.cond(s) > 1e200
        expm = count_calls(curves_module, "expm_pair")
        points = curves_module._sample_points(100, 10.0)
        for got, ref in zip(curve._with_frames(points), pade_frames(curve, points)):
            np.testing.assert_array_equal(got, ref)
        assert expm == [(100, 2, 2)]
        check = sb.verify_constant_spectrum(curve, sb.spectrum(a))
        assert check.passed and check.settled == 100

    @pytest.mark.parametrize("delta, eigenbasis", [(1e-5, True), (1e-9, False)])
    def test_route_follows_the_condition_of_the_eigenvectors(self, delta, eigenbasis):
        # Y = 0.2 [[delta, 1], [0, -delta]] has eigenvectors at an angle of
        # about 2 delta: kappa_F(S) about 1 / delta, against 1 / sqrt(eps)
        y = 0.2 * np.array([[delta, 1.0], [0.0, -delta]])
        _, s = np.linalg.eig(y)
        kappa = np.sqrt(2.0) * np.linalg.norm(np.linalg.inv(s))
        assert (kappa <= np.finfo(float).eps ** -0.5) == eigenbasis
        a = np.array([[0.3, 0.1], [0.05, -0.2]])
        curve = sb.ExpConjugationCurve(base=a, generator=y)
        assert (curve._eigenbasis is not None) == eigenbasis
        lam = disk_points(np.random.default_rng(331), 20)
        err = relative_error(curve(lam), pade_frames(curve, lam)[0])
        assert err.max() <= kappa * np.finfo(float).eps * 10.0

    def test_value_at_zero_is_the_base_on_both_routes(self):
        rng = np.random.default_rng(332)
        a, y = random_ball_matrix(rng, 4, radius=0.6), 0.3 * random_gaussian(rng, 4)
        defective_base, defective = defective_zero_metric_curve()
        for base, curve in (
            (a, sb.ExpConjugationCurve(base=a, generator=y)),
            (a, sb.zero_metric_curve(a, a @ y - y @ a)),
            (defective_base, defective),
        ):
            n = base.shape[0]
            np.testing.assert_array_equal(curve(0.0), base)
            values, w, w_inv = curve._with_frames(np.array([0.0, 0.5j, 0.0, 2.0]))
            for k in (0, 2):
                np.testing.assert_array_equal(values[k], base)
                np.testing.assert_array_equal(w[k], np.eye(n))
                np.testing.assert_array_equal(w_inv[k], np.eye(n))
            assert curve.residuals(base, curve.derivative_at_zero())["endpoint_base"] == 0.0

    def test_mismatched_sizes_are_invalid(self):
        with pytest.raises(sb.InvalidInputError, match="same dimension"):
            sb.ExpConjugationCurve(base=np.eye(2), generator=np.zeros((3, 3)))

    def test_list_inputs_are_matrices(self):
        base = [[0.3, 0.1], [0.0, -0.2]]
        generator = [[0.0, 0.2], [0.1, 0.05]]
        curve = sb.ExpConjugationCurve(base=base, generator=generator)
        reference = sb.ExpConjugationCurve(base=np.array(base), generator=np.array(generator))
        np.testing.assert_array_equal(curve.derivative_at_zero(), reference.derivative_at_zero())
        np.testing.assert_array_equal(curve(0.7j), reference(0.7j))

    @pytest.mark.parametrize("which", ["base", "generator"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_are_invalid(self, which, bad):
        entries = {"base": np.diag([0.3, 0.5]), "generator": np.array([[0.0, 0.2], [0.1, 0.0]])}
        entries[which] = entries[which].copy()
        entries[which][0, 1] = bad
        with pytest.raises(sb.InvalidInputError, match="finite"):
            sb.ExpConjugationCurve(**entries)

    def test_non_square_input_is_invalid(self):
        with pytest.raises(sb.InvalidInputError, match="square"):
            sb.ExpConjugationCurve(base=np.zeros((2, 3)), generator=np.zeros((2, 3)))

    def test_failed_eigensolve_falls_back_to_expm_pair(self, monkeypatch):
        def no_convergence(x):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        rng = np.random.default_rng(333)
        a, y = random_ball_matrix(rng, 3, radius=0.6), 0.2 * random_gaussian(rng, 3)
        with monkeypatch.context() as mp:
            mp.setattr(np.linalg, "eig", no_convergence)
            curve = sb.ExpConjugationCurve(base=a, generator=y)
        assert curve._eigenbasis is None
        lam = disk_points(rng, 10)
        for got, ref in zip(curve._with_frames(lam), pade_frames(curve, lam)):
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_zero_metric_report_takes_one_eig_of_the_base(self, count_calls, n):
        # the eig of M that proves the base non-derogatory is the verifier's
        # too: building the curve solves M and the generator, and verifying
        # it solves only the eigvals of its samples
        rng = np.random.default_rng([334, n])
        a, y = random_ball_matrix(rng, n, radius=0.7), 0.2 * random_gaussian(rng, n)
        expected = sb.spectrum(a)
        eig = count_calls(np.linalg, "eig")
        curve = sb.zero_metric_curve(a, a @ y - y @ a)
        assert eig == [(n, n)] * 2
        eig.clear()
        check = sb.verify_constant_spectrum(curve, expected)
        assert eig == []
        # a curve built directly takes its own eig of the base, once
        direct = sb.ExpConjugationCurve(base=curve.base, generator=curve.generator)
        eig.clear()
        for _ in range(2):
            again = sb.verify_constant_spectrum(direct, expected)
        assert eig == [(n, n)]
        assert again.passed == check.passed
        # the eigenvalues tau + c mu of the proof pair with the expected
        # values as those of the base's own eig do
        paired = [
            sb.bottleneck_assignment(np.abs(mu[:, None] - expected.values))[1]
            for mu, _ in (curve._base_eigenpairs(), direct._base_eigenpairs())
        ]
        np.testing.assert_array_equal(*paired)


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

    def test_jordan_base_roots_the_linear_isotropy_equation(self):
        # on this base the isotropy quadratic along the constraint line has no
        # quadratic term, so its root solves a linear equation
        a = np.array([[0.3, 1.0], [0.0, 0.3]])
        b = np.array([[0.2, 0.5], [0.0, -0.2]])
        c = sb.quadratic_witness_2x2(a, b)
        trace, det = sb.spectrum_polynomials_2x2(c)
        assert np.abs(trace[1:]).max() <= 1e-10
        assert np.abs(det[1:]).max() <= 1e-10
        assert np.linalg.det(c.coefficients[2]) == pytest.approx(0.0, abs=1e-15)
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

    def test_non_vanishing_differential(self):
        with pytest.raises(sb.UnsupportedError, match="does not vanish"):
            sb.quadratic_witness_2x2(np.diag([0.1, 0.2]), np.eye(2))

    def test_no_classify_and_no_conjugation_solve(self, monkeypatch):
        # a 2x2 matrix is derogatory only when it is scalar, and psi comes
        # from the constraint solve: neither call is needed
        calls = {"classify": 0, "solve_conjugation": 0}

        def counting(name):
            def fail(*args, **kwargs):
                calls[name] += 1
                raise AssertionError(f"{name} called")
            return fail

        monkeypatch.setattr(nonderog_module, "classify", counting("classify"))
        monkeypatch.setattr(curves_module, "solve_conjugation", counting("solve_conjugation"))
        rng = np.random.default_rng(56)
        for _ in range(5):
            a = random_ball_matrix(rng, 2, radius=0.7)
            y0 = 0.3 * random_gaussian(rng, 2)
            sb.quadratic_witness_2x2(a, a @ y0 - y0 @ a)
        sb.quadratic_witness_2x2(0.3 * np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert calls == {"classify": 0, "solve_conjugation": 0}


class TestScaleFreeWitnessTests:
    """The witness tests read the centered, normalized base and B / max |B|."""

    @pytest.mark.parametrize("scale", [100.0, 1000.0])
    def test_large_bases_with_commutator_directions(self, scale):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = scale * rng.standard_normal((6, 6))
            y = 0.2 * rng.standard_normal((6, 6))
            b = a @ y - y @ a
            curve = sb.zero_metric_curve(a, b)
            assert curve.kind == "exp_conjugation"
            assert np.linalg.norm(curve.derivative_at_zero() - b) <= 1e-8 * np.linalg.norm(b)

    @pytest.mark.parametrize("a_scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("b_scale", [1e-6, 1e6])
    def test_non_vanishing_differential_at_every_scale(self, a_scale, b_scale):
        with pytest.raises(sb.UnsupportedError, match="does not vanish"):
            sb.zero_metric_curve(a_scale * np.diag([0.1, 0.2, 0.3]), b_scale * np.eye(3))

    def test_small_non_nilpotent_direction(self):
        with pytest.raises(sb.UnsupportedError, match="nilpotent"):
            sb.zero_metric_curve(0.1 * np.eye(3), 1e-3 * np.eye(3))
        with pytest.raises(sb.UnsupportedError, match="nilpotent"):
            sb.quadratic_witness_2x2(0.1 * np.eye(2), 1e-3 * np.eye(2))

    @pytest.mark.parametrize("scale", [0.0, 1e-300, 1e-8, 1.0, 1e8, 1e300])
    def test_strictly_triangular_direction_at_any_scale(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n, witness in ((3, sb.zero_metric_curve), (2, sb.quadratic_witness_2x2)):
                b = scale * np.triu(np.ones((n, n)), 1)
                curve = witness(0.3 * np.eye(n), b)
                assert curve.kind == "matrix_polynomial"
                assert len(curve.coefficients) == 2

    @pytest.mark.parametrize(
        "scale", [1e-300, 1e-160, 1e-6, 1.0, 1e3, 1e4, 1e8, 1e78, 1e100, 1e150]
    )
    def test_quadratic_witness_at_every_scale(self, scale):
        # the constancy check reads the trace coefficients over s and the
        # determinant coefficients over s^2, s the largest coefficient entry;
        # both are formed on the curve over s, since products of entries
        # near 1e-160 underflow
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = scale * rng.standard_normal((2, 2))
            y = 0.2 * rng.standard_normal((2, 2))
            curve = sb.quadratic_witness_2x2(a, a @ y - y @ a)
            s = max(np.abs(c).max() for c in curve.coefficients)
            unit = sb.MatrixPolynomialCurve([c / s for c in curve.coefficients])
            trace, det = sb.spectrum_polynomials_2x2(unit)
            assert len(curve.coefficients) == 3
            assert np.abs(trace[1:]).max() <= 1e-14
            assert np.abs(det[1:]).max() <= 1e-14

    def test_quadratic_witness_overflow(self):
        rng = np.random.default_rng(3)
        a = 1e160 * rng.standard_normal((2, 2))
        y = 0.2 * rng.standard_normal((2, 2))
        with pytest.raises(sb.NumericError, match="det B overflows"):
            sb.quadratic_witness_2x2(a, a @ y - y @ a)

    def test_eigensolve_counts(self, count_eigvals):
        # the non-derogatory proof of a zero-metric curve solves once and the
        # curve's eigenbasis of its generator once; the differential and the
        # quadratic witness solve nothing
        rng = np.random.default_rng(57)
        a3, y3 = random_gaussian(rng, 3), 0.2 * random_gaussian(rng, 3)
        a2, y2 = random_gaussian(rng, 2), 0.2 * random_gaussian(rng, 2)
        sb.zero_metric_curve(a3, a3 @ y3 - y3 @ a3)
        assert len(count_eigvals) == 2
        count_eigvals.clear()
        sb.quadratic_witness_2x2(a2, a2 @ y2 - y2 @ a2)
        assert len(count_eigvals) == 0


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
        check = sb.verify_constant_spectrum(c, sb.spectrum(a))
        assert check.passed and check.max_deviation <= 1e-8

    @pytest.mark.parametrize("samples", [-3, 0, 1, 3.7, "5", 2.0, None])
    def test_rejects_fewer_than_two_samples(self, samples):
        # A + lam I is not constant, but lam = 0 alone would not show it
        a = np.diag([0.2, 0.4])
        c = sb.MatrixPolynomialCurve([a, np.eye(2)])
        with pytest.raises(sb.InvalidInputError):
            sb.verify_constant_spectrum(c, sb.spectrum(a), samples=samples)

    @pytest.mark.parametrize("kind", ("iso", "exp"))
    @pytest.mark.parametrize(
        "expected",
        [[], [[0.1, 0.4, -0.3]], 5.0, [0.1, np.nan, 0.2], [0.1, 0.4], [0.1, 0.4, -0.3, 0.0]],
        ids=["empty", "2-D", "scalar", "nan", "short", "long"],
    )
    def test_rejects_a_malformed_expected_spectrum(self, count_calls, expected, kind):
        # on a 3 x 3 curve: a list that is not 1-D, is empty, is not finite
        # or has another length than 3 is rejected before any settle work
        a = np.array([[0.1, 1.0, 0.0], [0.0, 0.4, 1.0], [0.0, 0.0, -0.3]])
        if kind == "iso":
            c = sb.iso_spectral_curve(a, a)
        else:
            c = sb.ExpConjugationCurve(a, 0.2 * np.triu(np.ones((3, 3))))
        settle = count_calls(curves_module, "_enclosure_ratio", "_inverse_iteration")
        eigenvectors = count_calls(type(c), "_eigenvectors")
        with pytest.raises(sb.InvalidInputError, match="expected"):
            sb.verify_constant_spectrum(c, expected)
        assert settle == eigenvectors == []
        assert sb.verify_constant_spectrum(c, [0.1, 0.4, -0.3]).passed

    @pytest.mark.parametrize("radius", [-5.0, -1e-300, np.inf, np.nan, 1j, "10", None])
    def test_rejects_a_negative_or_non_finite_radius(self, radius):
        a = np.diag([0.2, 0.4])
        c = sb.MatrixPolynomialCurve([a, np.zeros((2, 2))])
        with pytest.raises(sb.InvalidInputError, match="radius"):
            sb.verify_constant_spectrum(c, sb.spectrum(a), radius=radius)

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


def reference_deviations(curve, expected, samples=100, radius=10.0):
    """Eigenvalue deviation of every sample by a per-point loop: scalar
    evaluation, one eigensolve and one bottleneck assignment per sample."""
    exp_values = np.asarray(expected.values)
    deviations = []
    for lam in curves_module._sample_points(samples, radius):
        vals = np.linalg.eigvals(curve(lam))
        dev, _ = sb.bottleneck_assignment(np.abs(vals[:, None] - exp_values[None, :]))
        deviations.append(dev)
    return np.array(deviations)


def reference_check(curve, expected, samples=100, radius=10.0, tol=1e-6):
    """The eigensolve-only verifier as a per-point loop, first maximum kept."""
    deviations = reference_deviations(curve, expected, samples, radius)
    k = int(np.argmax(deviations))
    points = curves_module._sample_points(samples, radius)
    return deviations[k] <= tol, deviations[k], complex(points[k])


def settled_samples(curve, points, expected):
    """The verifier's own settled mask at *points*: an enclosure ratio below
    1, with the eigenvectors of the curve's class or, for any other curve,
    of inverse iteration."""
    _, ratio = curves_module._settled_values(curve, points, np.asarray(expected.values))
    return ratio < 1.0


def assert_matches_reference_over_unsettled(check, curve, expected):
    """Every settled sample passes the reference loop; max_deviation and
    worst_point are the loop's over the unsettled samples, or its value at
    worst_point when all are settled."""
    points = curves_module._sample_points(check.samples, check.radius)
    deviations = reference_deviations(curve, expected, check.samples, check.radius)
    settled = settled_samples(curve, points, expected)
    assert (deviations[settled] <= curves_module.SPECTRUM_TOL).all()
    assert check.settled == settled.sum()
    if settled.all():
        k = int(np.flatnonzero(points == check.worst_point)[0])
    else:
        k = int(np.argmax(np.where(settled, -1.0, deviations)))
        assert check.worst_point == points[k]
    assert abs(check.max_deviation - deviations[k]) <= 1e-12


@dataclass(eq=False)
class PerturbedValues(sb.ExpConjugationCurve):
    """The frames of the exponential conjugation of the base A, with the
    values of A + perturbation conjugated by them."""

    perturbation: np.ndarray

    def _with_frames(self, lam):
        _, w, w_inv = super()._with_frames(lam)
        return w_inv @ (self.base + self.perturbation) @ w, w, w_inv


@dataclass(eq=False)
class PerturbedTriangle(sb.TriangularConjugationCurve):
    """The frames of an iso curve, with the values of its triangular path
    plus a perturbation conjugated along its unitary path."""

    perturbation: np.ndarray

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=complex)[..., None, None]
        d = self.perturbation
        return self._similarity(lam, ((1.0 - lam, self.t0 + d), (lam, self.t1 + d)))


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

    def test_sample_points_are_one_read_only_array(self):
        points = curves_module._sample_points(100, 10.0)
        assert curves_module._sample_points(100, 10.0) is points
        assert not points.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            points[0] = 2.0

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

    @pytest.mark.parametrize("n", range(2, 11))
    def test_verifier_matches_reference_loop(self, n):
        # the settled samples skip the eigensolve: max_deviation is the
        # reference's over the others, or its value at worst_point when
        # every sample is settled
        rng = np.random.default_rng(700 + n)
        a, curves = curves_of_each_class(rng, n)
        expected = sb.spectrum(a)
        for curve in curves:
            check = sb.verify_constant_spectrum(curve, expected)
            assert check.passed == reference_check(curve, expected)[0]
            assert_matches_reference_over_unsettled(check, curve, expected)

    def test_verifier_fallback_on_shared_nearest_value(self, monkeypatch):
        # both computed eigenvalues (0.4, 0.45) lie nearest to the expected 0,
        # so the nearest-value pairing is no permutation: the optimal one
        # pairs 0.4 -> 0 and 0.45 -> 1, at distance 0.55, not 0.45
        # each of the 5 samples goes to one matching, at the largest column
        # minimum
        calls = []
        original = matcore_module._perfect_matching

        def counting(adj):
            calls.append(adj)
            return original(adj)

        monkeypatch.setattr(matcore_module, "_perfect_matching", counting)
        c = sb.MatrixPolynomialCurve([np.diag([0.4, 0.45])])
        check = sb.verify_constant_spectrum(c, np.array([0.0, 1.0]), samples=5)
        assert len(calls) == 5
        assert check.max_deviation == 0.55
        assert check.worst_point == 0.0 and not check.passed
        passed, worst, worst_point = reference_check(c, sb.spectrum(np.diag([0.0, 1.0])), 5)
        assert (passed, worst, worst_point) == (False, 0.55, 0.0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_inverse_iteration_finds_the_eigenvectors(self, n):
        # values S_i diag(mu) S_i^-1: each column of Z is the unit eigenvector
        # S_i e_j / ||S_i e_j|| up to a phase, and P Z = I, to rounding over
        # the gap; every sample settles
        rng = np.random.default_rng(930 + n)
        mu = np.linalg.eigvals(random_ball_matrix(rng, n, radius=0.8))
        s = np.stack([np.eye(n) + 0.3 * random_gaussian(rng, n) for _ in range(6)])
        values = s @ (mu[:, None] * np.linalg.inv(s))
        z, p, paired = curves_module._inverse_iteration(values, mu)
        assert paired is mu
        unit = s / np.linalg.norm(s, axis=1, keepdims=True)
        alignment = np.abs(np.einsum("mij,mij->mj", unit.conj(), z))
        np.testing.assert_allclose(alignment, 1.0, atol=1e-10)
        np.testing.assert_allclose(p @ z, np.broadcast_to(np.eye(n), z.shape), atol=1e-10)
        assert (curves_module._enclosure_ratio(values, z, p, mu, mu) < 1e-3).all()

    def test_inverse_iteration_shifts_off_an_exact_eigenvalue(self):
        # a triangular value holds the expected values on its diagonal: the
        # unshifted solve would meet a zero pivot
        t = np.array([[0.5, 1.0, 0.0], [0.0, -0.25, 2.0], [0.0, 0.0, 0.125]], dtype=complex)
        z, p, _ = curves_module._inverse_iteration(t[None], np.diag(t).copy())
        assert np.isfinite(z).all() and np.isfinite(p).all()
        np.testing.assert_allclose(t @ z[0], z[0] * np.diag(t), atol=1e-14)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_iso_eigenvectors_match_the_triangular_loop(self, n):
        # Z = W V and P = V^-1 W^-1 against a per-sample reference: V the
        # eigenvectors of T(lam) from eig, scaled to a unit diagonal, and W
        # from scipy's principal logarithm of u* v
        rng = np.random.default_rng(950 + n)
        a = random_ball_matrix(rng, n, radius=0.7)
        curve = sb.iso_spectral_curve(a, nearby_conjugate(rng, a))
        points = curves_module._sample_points(12, 10.0)
        z, p, mu = curve._eigenvectors(points)
        np.testing.assert_array_equal(mu, np.diag(curve.t0))
        log = principal_log(curve.frame, curve.frame_end)
        for lam, zk, pk in zip(points, z, p):
            t = curve.t0 + lam * (curve.t1 - curve.t0)
            eigenvalues, v = np.linalg.eig(t)
            v = v[:, np.argsort(np.argmin(np.abs(eigenvalues[:, None] - mu), axis=0))]
            v = v / np.diag(v)
            w = curve.frame @ scipy.linalg.expm(lam * log)
            scale = np.linalg.norm(w @ v)
            np.testing.assert_allclose(zk, w @ v, atol=1e-9 * scale)
            np.testing.assert_allclose(pk @ zk, np.eye(n), atol=1e-9 * scale)

    @pytest.mark.parametrize("delta", (1e-3, 1e-5))
    @pytest.mark.parametrize("n", range(2, 11))
    def test_nonconstant_polynomial_settles_only_lambda_zero(self, n, delta):
        # A + lam delta N with N not nilpotent: only lam = 0 has A's spectrum
        rng = np.random.default_rng(900 + n)
        a = random_ball_matrix(rng, n, radius=0.7)
        direction = np.diag(np.arange(1.0, n + 1.0)) + random_gaussian(rng, n)
        assert np.linalg.norm(np.linalg.matrix_power(direction, n)) > 1.0
        c = sb.MatrixPolynomialCurve([a, delta * direction])
        check = sb.verify_constant_spectrum(c, sb.spectrum(a))
        assert not check.passed
        assert check.settled <= 1

    def test_plain_callable_gets_inverse_iteration(self):
        # a plain callable with the values of a zero-metric curve: inverse
        # iteration finds their eigenvectors, so the enclosure settles every
        # sample of norm up to 100 and most beyond, as it does with the
        # curve's own conjugators; both verdicts are the reference loop's
        rng = np.random.default_rng(910)
        a = random_ball_matrix(rng, 8, radius=0.7)
        y = 0.2 * random_gaussian(rng, 8)
        curve = sb.zero_metric_curve(a, a @ y - y @ a)
        expected = sb.spectrum(a)

        def values_only(lam):
            return curve(lam)

        points = curves_module._sample_points(100, 10.0)
        norms = np.linalg.norm(curve(points), axis=(1, 2))
        for c in (values_only, curve):
            settled = settled_samples(c, points, expected)
            assert settled[norms <= 100.0].all() and settled[norms > 100.0].mean() > 0.5
            check = sb.verify_constant_spectrum(c, expected)
            assert check.passed and check.settled == settled.sum() < check.samples
            assert_matches_reference_over_unsettled(check, c, expected)

    def test_defective_spectrum_keeps_the_eigenvalue_verdict(self):
        # a repeated expected value settles nothing, whatever gives Z:
        # eigvals split a 6 x 6 Jordan block by about eps^(1/6), and the
        # eigenvalue tolerance rejects the curve as the reference loop does
        rng = np.random.default_rng(1)
        q = random_unitary(rng, 6)
        base = q @ jordan_block(0.3, 6) @ q.conj().T
        expected = sb.Spectrum(np.full(6, 0.3 + 0j))
        for curve in (
            sb.MatrixPolynomialCurve([base]),
            sb.ExpConjugationCurve(base=base, generator=0.2 * random_gaussian(rng, 6)),
        ):
            check = sb.verify_constant_spectrum(curve, expected)
            assert check.settled == 0
            passed, worst, worst_point = reference_check(curve, expected)
            assert not passed and (check.passed, check.worst_point) == (passed, worst_point)
            assert abs(check.max_deviation - worst) <= 1e-12

    def test_nilpotent_drift_is_not_settled(self):
        # [[0, 1e4], [1e-12 lam, 0]] has eigenvalues +-1e-4 sqrt(lam), about
        # 3e-4 at |lam| = 10, while p_2 moves by only 2e-8 |lam|
        curve = sb.MatrixPolynomialCurve(
            [np.array([[0.0, 1e4], [0.0, 0.0]]), np.array([[0.0, 0.0], [1e-12, 0.0]])]
        )
        expected = sb.Spectrum(np.zeros(2, dtype=complex))
        check = sb.verify_constant_spectrum(curve, expected)
        assert check.settled == 0 and not check.passed
        assert check.max_deviation > 100.0 * curves_module.SPECTRUM_TOL
        passed, worst, worst_point = reference_check(curve, expected)
        assert (check.passed, check.worst_point) == (passed, worst_point)
        assert abs(check.max_deviation - worst) <= 1e-12

    @pytest.mark.parametrize("n", (2, 5))
    def test_settles_no_sample_beyond_the_tolerance(self, n):
        # diag(lam_1 + s lam, lam_2, ...) with s = 3e-7 moves one eigenvalue
        # by 3e-7 |lam|: the samples beyond |lam| = 10 / 3 must go to eigvals
        base = np.exp(2j * np.pi * np.arange(n) / n) * 0.5
        drift = np.zeros((n, n))
        drift[0, 0] = 3e-7
        curve = sb.MatrixPolynomialCurve([np.diag(base), drift])
        expected = sb.Spectrum(base)
        check = sb.verify_constant_spectrum(curve, expected)
        assert not check.passed
        points = curves_module._sample_points(check.samples, check.radius)
        settled = settled_samples(curve, points, expected)
        assert settled[0] and check.settled == settled.sum()
        assert (3e-7 * np.abs(points[settled]) <= curves_module.SPECTRUM_TOL).all()
        assert_matches_reference_over_unsettled(check, curve, expected)

    def test_clustered_expected_spectrum_settles_within_half_its_gap(self):
        # two expected values 1.5 SPECTRUM_TOL apart: the discs shrink to
        # half that gap, so a constant curve settles, and one that moves a
        # clustered value by 1e-7 |lam| settles no sample it moves past them
        values = np.array([0.3, 0.3 + 1.5e-6, -0.4], dtype=complex)
        expected = sb.Spectrum(values)
        check = sb.verify_constant_spectrum(sb.MatrixPolynomialCurve([np.diag(values)]), expected)
        assert check.settled == check.samples and check.passed
        drift = np.zeros((3, 3))
        drift[0, 0] = 1e-7
        curve = sb.MatrixPolynomialCurve([np.diag(values), drift])
        points = curves_module._sample_points(100, 10.0)
        settled = settled_samples(curve, points, expected)
        assert settled[0] and not settled.all()
        assert (1e-7 * np.abs(points[settled]) < 0.75e-6).all()

    def test_overflowing_powers_fall_back_silently(self):
        # ||X|| ~ 1e40: the backward error c n u ||X|| alone is far above
        # SPECTRUM_TOL; at 1e160 the squared norms of the enclosure overflow.
        # No sample settles and no warning is raised; eigvals then give the
        # reference loop's verdict
        for scale in (1e40, 1e160):
            rng = np.random.default_rng(920)
            a = scale * random_ball_matrix(rng, 10, radius=1.0)
            y = 0.2 * random_gaussian(rng, 10)
            curve = sb.ExpConjugationCurve(base=a, generator=y)
            expected = sb.spectrum(a)

            def values_only(lam, curve=curve):
                return curve(lam)

            for c in (curve, values_only):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    check = sb.verify_constant_spectrum(c, expected, samples=20, radius=1.0)
                assert check.settled == 0
                assert check.passed == reference_check(c, expected, 20, 1.0)[0]
                assert_matches_reference_over_unsettled(check, c, expected)

    @pytest.mark.filterwarnings("error")
    def test_iso_frames_underflow_silently(self):
        # u* v = i I: every theta is pi / 2, so W(lam) = e^(i lam pi / 2) I
        # and the values are T itself.  Past |Im lam| ~ 452 the factor
        # e^(|Im lam| pi / 2) of Z or P overflows, past ~ 475 the other one
        # underflows to 0: those samples settle nothing, without a warning
        # (a division by the underflowed factor would warn), and get eigvals
        t = np.array([[0.1, 1.0, 0.0], [0.0, 0.4, 1.0], [0.0, 0.0, -0.3]])
        curve = sb.TriangularConjugationCurve(np.eye(3), 1j * np.eye(3), t, t)
        check = sb.verify_constant_spectrum(curve, np.diag(t), radius=500.0)
        assert check.passed and check.max_deviation <= 1e-12
        far = np.abs(curves_module._sample_points(100, 500.0).imag) > 480.0
        assert 0 < check.settled <= 100 - far.sum()

    @pytest.mark.parametrize("route", ("exp", "iso", "callable"))
    @pytest.mark.parametrize("delta", (1e-3, 1e-5))
    @pytest.mark.parametrize("n", range(2, 11))
    def test_enclosure_never_settles_values_off_their_frames(self, n, delta, route):
        # the frames are those of A's curve, the values those of A + delta E
        # conjugated by them: the residual X Z - Z D carries the conjugated
        # delta E, far above SPECTRUM_TOL.  A plain callable with those
        # values gets inverse iteration, whose Z are eigenvectors of the
        # values, at eigenvalues moved off the expected ones
        rng = np.random.default_rng(940 + n)
        a = random_ball_matrix(rng, n, radius=0.7)
        y = 0.2 * random_gaussian(rng, n)
        direction = random_gaussian(rng, n)
        perturbation = delta * direction / np.linalg.norm(direction)
        if route == "iso":
            iso = sb.iso_spectral_curve(a, nearby_conjugate(rng, a))
            curve = PerturbedTriangle(iso.frame, iso.frame_end, iso.t0, iso.t1, perturbation)
        else:
            curve = PerturbedValues(a, y, perturbation)
        if route == "callable":
            curve = curve.__call__
        check = sb.verify_constant_spectrum(curve, sb.spectrum(a))
        assert check.settled == 0 and not check.passed
        assert check.passed == reference_check(curve, sb.spectrum(a))[0]

    def test_multiset_distance_mixed_stack(self):
        b = np.array([0.0, 1.0])
        stack = np.array([[0.4, 0.45], [0.25, 0.75], [1.0, 0.125]])
        np.testing.assert_array_equal(sb.multiset_distance(stack, b), [0.55, 0.25, 0.125])
        assert isinstance(sb.multiset_distance(stack[0], b), float)
        with pytest.raises(sb.InvalidInputError):
            sb.multiset_distance(stack, np.zeros(3))

    def test_empty_multisets_are_at_distance_zero(self):
        # regression: the zeros of two order-0 products raised ValueError
        assert sb.multiset_distance([], []) == 0.0
        assert isinstance(sb.multiset_distance([], []), float)
        np.testing.assert_array_equal(sb.multiset_distance(np.zeros((3, 0)), []), np.zeros(3))
        value, perm = sb.bottleneck_assignment(np.zeros((2, 0, 0)))
        assert value.shape == (2,) and perm.shape == (2, 0)


class TestEnclosureProperties:
    @settings(max_examples=40)
    @given(st.integers(2, 10), st.integers(0, 2**32 - 1))
    def test_settles_only_samples_within_the_tolerance(self, n, seed):
        # a zero-metric curve as the benchmark draws it: every sample that
        # the enclosure settles has its eigvals within SPECTRUM_TOL, and the
        # verdict is the reference loop's
        rng = np.random.default_rng(seed)
        a = random_ball_matrix(rng, n, radius=rng.uniform(0.3, 0.8))
        y = 0.2 * random_gaussian(rng, n)
        curve = sb.zero_metric_curve(a, a @ y - y @ a)
        assert isinstance(curve, sb.ExpConjugationCurve)
        expected = sb.spectrum(a)
        points = curves_module._sample_points(100, 10.0)
        values, ratio = curves_module._settled_values(curve, points, expected.values)
        settled = ratio < 1.0
        deviations = sb.multiset_distance(np.linalg.eigvals(values), expected.values)
        assert (deviations[settled] <= curves_module.SPECTRUM_TOL).all()
        check = sb.verify_constant_spectrum(curve, expected)
        assert check.settled == settled.sum()
        assert check.passed == reference_check(curve, expected)[0]


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
        value, perm = sb.bottleneck_assignment(cost)
        np.testing.assert_array_equal(value, got)
        for k in range(len(a)):
            assert sorted(perm[k]) == list(range(len(b)))
            assert cost[k][np.arange(len(b)), perm[k]].max() == value[k]
            one_value, one_perm = sb.bottleneck_assignment(cost[k])
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
