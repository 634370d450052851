import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectralball as sb
import spectralball.geometry as geometry_module
import spectralball.matcore as matcore_module
from conftest import (
    brute_force_bottleneck,
    disk_points,
    exp_frame_reference,
    jordan_block,
    random_ball_matrix,
    random_gaussian,
    random_unitary,
)


def near_defective(rng, n, kappa):
    """S D S^-1 with S = Q M for a random unitary Q and M = I but for column
    1, e_0 + (2 / kappa) e_1, and D of radius below 0.8 but for
    d_1 = d_0 + 2 / kappa: kappa(S) is about kappa, and the pair (d_0, d_1)
    nears a Jordan block as kappa grows."""
    gap = 2.0 / kappa
    d = 0.8 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    d[1] = d[0] + gap
    m = np.eye(n, dtype=complex)
    m[:2, 1] = 1.0, gap
    s = random_unitary(rng, n) @ m
    return s @ np.diag(d) @ np.linalg.inv(s)


class TestMobius:
    def test_examples(self):
        assert sb.mobius(0.0, 0.5) == pytest.approx(0.5)
        assert sb.mobius(0.3 + 0.2j, 0.3 + 0.2j) == 0.0
        assert sb.mobius(0.3, -0.3) == pytest.approx(0.6 / 1.09)

    def test_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            z, w = 0.95 * np.sqrt(rng.uniform(size=2)) * np.exp(
                2j * np.pi * rng.uniform(size=2)
            )
            assert sb.mobius(z, w) == pytest.approx(sb.mobius(w, z), abs=1e-14)
            assert 0.0 <= sb.mobius(z, w) < 1.0

    def test_domain(self):
        with pytest.raises(sb.DomainError):
            sb.mobius(1.0, 0.0)
        with pytest.raises(sb.DomainError):
            sb.mobius(0.0, 1.2j)

    @pytest.mark.parametrize("bad", [np.nan, complex(np.nan, 0.1), np.inf, -np.inf * 1j])
    def test_non_finite_arguments(self, bad):
        with pytest.raises(sb.DomainError):
            sb.mobius(bad, 0.0)
        with pytest.raises(sb.DomainError):
            sb.mobius([0.1, 0.2], [0.3, bad])

    def test_array_entries_round_as_scalar_calls(self):
        rng = np.random.default_rng(36)
        z, w = 0.99 * np.sqrt(rng.uniform(size=(2, 9))) * np.exp(
            2j * np.pi * rng.uniform(size=(2, 9))
        )
        table = sb.mobius(z[:, None], w)
        assert table.shape == (9, 9)
        scalar = np.array([[sb.mobius(complex(x), complex(y)) for y in w] for x in z])
        assert np.array_equal(table, scalar)
        assert isinstance(sb.mobius(z[0], w[0]), float)
        with pytest.raises(sb.DomainError):
            sb.mobius(np.array([0.1, 0.99999999 + 0.1j]), 0.0)


class TestScalarBaseFormulas:
    def test_lempert_at_zero(self):
        assert sb.lempert_scalar_base(0.0, np.diag([0.5, 0.2])) == pytest.approx(0.5)

    def test_lempert_equal_eigenvalues(self):
        b = np.array([[0.5, 3.0], [0.0, 0.5]])
        assert sb.lempert_scalar_base(0.5, b) == pytest.approx(0.0, abs=1e-12)

    def test_lempert_single_mobius(self):
        b = np.array([[-0.3]])
        assert sb.lempert_scalar_base(0.3, b) == pytest.approx(sb.mobius(0.3, -0.3))

    def test_lempert_domain(self):
        with pytest.raises(sb.DomainError):
            sb.lempert_scalar_base(0.0, np.diag([1.5, 0.0]))
        with pytest.raises(sb.DomainError):
            sb.lempert_scalar_base(1.0, np.diag([0.5, 0.0]))

    def test_kobayashi(self):
        b = np.diag([0.8, 0.0])
        assert sb.kobayashi_scalar_base(0.0, b) == pytest.approx(0.8)
        assert sb.kobayashi_scalar_base(0.5, b) == pytest.approx(0.8 / 0.75)
        assert sb.kobayashi_scalar_base(0.3, np.zeros((2, 2))) == 0.0

    def test_kobayashi_direction_unrestricted(self):
        # direction vectors need not lie in the ball
        assert sb.kobayashi_scalar_base(0.0, np.diag([3.0, 0.0])) == pytest.approx(3.0)

    def test_kobayashi_domain(self):
        with pytest.raises(sb.DomainError):
            sb.kobayashi_scalar_base(1.1, np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0.0)], ids=repr)
    @pytest.mark.parametrize(
        "entry",
        [
            sb.disk_automorphism,
            sb.lempert_scalar_base,
            sb.kobayashi_scalar_base,
            lambda t, b: sb.discontinuity_report(b, t),
        ],
        ids=["disk_automorphism", "lempert", "kobayashi", "discontinuity_report"],
    )
    def test_non_finite_base_point(self, entry, bad):
        with pytest.raises(sb.DomainError, match="below 1"):
            entry(bad, np.diag([0.5, 0.2]))


def _disk_points(rng, count, radius):
    return radius * np.sqrt(rng.uniform(size=count)) * np.exp(
        2j * np.pi * rng.uniform(size=count)
    )


class TestInvariances:
    """The distances are invariant under disk automorphisms, and the hull
    gauge is absolutely homogeneous."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        radius=st.floats(0.05, 0.9),
        t_abs=st.floats(0.0, 0.9),
        t_arg=st.floats(0.0, 2.0 * np.pi),
    )
    def test_lempert_scalar_base_moves_to_zero(self, seed, n, radius, t_abs, t_arg):
        rng = np.random.default_rng(seed)
        b = random_ball_matrix(rng, n, radius=radius)
        t = t_abs * np.exp(1j * t_arg)
        moved = sb.lempert_scalar_base(0.0, sb.disk_automorphism(t, b))
        assert moved == pytest.approx(sb.lempert_scalar_base(t, b), abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 7),
        t_abs=st.floats(0.0, 0.9),
        t_arg=st.floats(0.0, 2.0 * np.pi),
        turn=st.floats(0.0, 2.0 * np.pi),
    )
    def test_bottleneck_minimax_under_one_automorphism(self, seed, n, t_abs, t_arg, turn):
        rng = np.random.default_rng(seed)
        a, b = _disk_points(rng, n, 0.95), _disk_points(rng, n, 0.95)
        t = t_abs * np.exp(1j * t_arg)

        def phi(z):
            return np.exp(1j * turn) * (z - t) / (1.0 - np.conj(t) * z)

        value, _ = sb.bottleneck_minimax(a, b)
        moved, _ = sb.bottleneck_minimax(phi(a), phi(b))
        assert moved == pytest.approx(value, abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        k=st.floats(-8.0, 8.0),
        arg=st.floats(0.0, 2.0 * np.pi),
    )
    def test_hull_gauge_scales_by_modulus(self, seed, n, k, arg):
        a = random_gaussian(np.random.default_rng(seed), n)
        c = 10.0**k * np.exp(1j * arg)
        h, _ = sb.hull_membership(a)
        hc, inside = sb.hull_membership(c * a)
        scale = np.abs(np.diag(a)).max()
        assert abs(hc - abs(c) * h) <= 1e-13 * abs(c) * (h + scale)
        assert inside == (hc < 1.0)


class TestBottleneck:
    def test_swap_example(self):
        value, perm = sb.bottleneck_minimax([0.1, 0.8], [0.75, 0.15])
        assert value == pytest.approx(0.125)
        assert list(perm) == [1, 0]

    def test_identical(self):
        value, perm = sb.bottleneck_minimax([0.3, 0.1j], [0.3, 0.1j])
        assert value == 0.0
        assert list(perm) == [0, 1]

    def test_single(self):
        value, _ = sb.bottleneck_minimax([0.0], [0.5])
        assert value == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(sb.InvalidInputError):
            sb.bottleneck_minimax([0.1], [0.1, 0.2])

    def test_outside_disk(self):
        with pytest.raises(sb.DomainError):
            sb.bottleneck_minimax([0.1, 0.2], [0.3, -1.0])

    def test_non_finite_eigenvalue(self):
        with pytest.raises(sb.DomainError):
            sb.bottleneck_minimax([0.1, np.nan], [0.2, 0.3])

    def test_brute_force_tie(self):
        rng = np.random.default_rng(32)
        for n in range(1, 8):
            for _ in range(10):
                a = 0.9 * np.sqrt(rng.uniform(size=n)) * np.exp(
                    2j * np.pi * rng.uniform(size=n)
                )
                b = 0.9 * np.sqrt(rng.uniform(size=n)) * np.exp(
                    2j * np.pi * rng.uniform(size=n)
                )
                cost = np.array([[sb.mobius(x, y) for y in b] for x in a])
                value, perm = sb.bottleneck_assignment(cost)
                brute_value, _ = brute_force_bottleneck(cost)
                assert abs(value - brute_value) <= 1e-12
                assert cost[np.arange(n), perm].max() == pytest.approx(value, abs=0)

    def test_equal_eigenvalue_case_matches_scalar_formula(self):
        lam = 0.4 - 0.2j
        b = np.full((3, 3), 0.0, dtype=complex)
        np.fill_diagonal(b, lam)
        b[0, 1] = 2.0
        t = 0.25
        value, _ = sb.bottleneck_minimax(
            sb.spectrum(t * np.eye(3)), sb.spectrum(b)
        )
        expected = sb.mobius(t, lam)
        assert value == pytest.approx(expected, abs=1e-12)
        assert sb.lempert_scalar_base(t, b) == pytest.approx(expected, abs=1e-12)


class TestUpperBoundDisc:
    def test_constant_curve(self):
        rng = np.random.default_rng(33)
        a = random_ball_matrix(rng, 3, radius=0.6)
        w = sb.upper_bound_disc(a, a, 0.5)
        for zeta in (0.0, 0.3, 0.2 + 0.4j, -0.9):
            assert np.linalg.norm(w.curve(zeta) - a) <= 1e-10

    def test_scalar_base_example(self):
        a = np.zeros((2, 2))
        b = np.diag([0.5, 0.2])
        w = sb.upper_bound_disc(a, b, 0.51)
        r0, r1 = w.endpoint_residuals()
        assert r0 <= 1e-9 and r1 <= 1e-9
        assert w.certificate_grid.max_spectral_radius < 1.0
        exact = sb.lempert_scalar_base(0.0, b)
        assert 0.51 - exact <= 0.011

    def test_two_diagonal_example(self):
        a = np.diag([0.1, 0.8])
        b = np.diag([0.15, 0.75])
        w = sb.upper_bound_disc(a, b, 0.13)
        r0, r1 = w.endpoint_residuals()
        assert max(r0, r1) <= 1e-9
        assert w.certificate_grid.max_spectral_radius < 1.0

    def test_infeasible_radius(self):
        a = np.diag([0.1, 0.8])
        b = np.diag([0.15, 0.75])
        with pytest.raises(sb.PreconditionError):
            sb.upper_bound_disc(a, b, 0.12)

    def test_domain(self):
        with pytest.raises(sb.DomainError):
            sb.upper_bound_disc(np.diag([1.5, 0.0]), np.zeros((2, 2)), 0.5)

    def test_random_certificates(self, count_calls):
        # Gaussian pairs, and bases S D S^-1 with two eigenvalues and their
        # eigenvectors 2 / kappa apart, kappa(S) about kappa: the eigenvectors
        # give the frames of some of these, the deflation those of the rest
        deflation = count_calls(geometry_module, "ordered_triangularize")
        rng = np.random.default_rng(34)
        built = 0
        for n in (2, 3, 4, 6, 8):
            bases = [random_ball_matrix(rng, n, radius=rng.uniform(0.3, 0.85)) for _ in range(4)]
            bases += [near_defective(rng, n, kappa) for kappa in (1e1, 1e3, 1e6) for _ in range(2)]
            for a in bases:
                b = random_ball_matrix(rng, n, radius=rng.uniform(0.3, 0.85))
                bound, _ = sb.bottleneck_minimax(sb.spectrum(a), sb.spectrum(b))
                if bound + 0.01 >= 0.999:
                    continue
                w = sb.upper_bound_disc(a, b, bound + 0.01)
                built += 1
                r0, r1 = w.endpoint_residuals()
                assert max(r0, r1) <= 1e-8
                assert w.certificate_grid.max_spectral_radius < 1.0
        assert 0 < len(deflation) < built

    @pytest.mark.parametrize("case", ["similar_j3", "rotated_j3_j3", "rotated_j5"])
    def test_jordan_base_point(self, case, count_calls):
        # eigvals splits a k-fold defective eigenvalue 0.25 into a cluster of
        # radius about eps^(1/k); the disc is built on that order all the
        # same.  The eigenvectors of J_3 under a general similarity give its
        # frame; those of the unitarily rotated J_3 + J_3 and J_5 are too
        # close to dependent, and the deflation builds theirs
        rotated = {
            "rotated_j3_j3": np.kron(np.eye(2), jordan_block(0.25, 3)),
            "rotated_j5": jordan_block(0.25, 5),
        }
        deflation = count_calls(geometry_module, "ordered_triangularize")
        for seed in range(50 if case == "similar_j3" else 10):
            rng = np.random.default_rng([60, seed])
            if case == "similar_j3":
                s = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                a = 0.5 * np.linalg.solve(s, jordan_block(0.5, 3) @ s)
            else:
                q = random_unitary(rng, len(rotated[case]))
                a = q @ rotated[case] @ q.conj().T
            b = np.diag(np.linspace(0.1, 0.3, len(a)))
            w = sb.upper_bound_disc(a, b, 0.9)
            assert max(w.endpoint_residuals()) <= geometry_module.ENDPOINT_TOL
            assert w.certificate_grid.max_spectral_radius < 1.0
            assert len(deflation) == (0 if case == "similar_j3" else seed + 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_frames_need_one_eigensolve_and_no_svd(self, n, count_calls, count_eigvals):
        # one stacked eig gives both spectra and both frames; the frame log
        # adds unitary_log's eigvals, and no deflation runs
        rng = np.random.default_rng([76, n])
        a = random_ball_matrix(rng, n, radius=0.6)
        b = random_ball_matrix(rng, n, radius=0.7)
        q = random_unitary(rng, n, scale=0.3)
        bound, _ = sb.bottleneck_minimax(sb.spectrum(a), sb.spectrum(b))
        svd = count_calls(np.linalg, "svd")
        for build in (
            lambda: sb.upper_bound_disc(a, b, bound + 0.05),
            lambda: sb.iso_spectral_curve(a, q @ a @ q.conj().T),
        ):
            count_eigvals.clear()
            build()
            assert count_eigvals == [(2, n, n), (n, n)]
        assert svd == []

    def test_frame_log_is_principal(self):
        rng = np.random.default_rng(37)
        a = random_ball_matrix(rng, 4, radius=0.7)
        b = random_ball_matrix(rng, 4, radius=0.6)
        bound, _ = sb.bottleneck_minimax(sb.spectrum(a), sb.spectrum(b))
        curve = sb.upper_bound_disc(a, b, bound + 0.05).curve
        log = curve.frame_log
        assert np.linalg.norm(log + log.conj().T) <= 1e-13
        assert np.linalg.norm(log, 2) <= np.pi * (1.0 + 1e-14)

    def test_value_at_zero_skips_the_exponential_bitwise(self):
        rng = np.random.default_rng(39)
        for n in (1, 2, 4, 7):
            a = random_ball_matrix(rng, n, radius=0.6)
            b = random_ball_matrix(rng, n, radius=0.7)
            bound, _ = sb.bottleneck_minimax(sb.spectrum(a), sb.spectrum(b))
            curve = sb.upper_bound_disc(a, b, bound + 0.05).curve
            u, t = curve.frame, curve.triangular_part(0.0)
            e, e_inv = sb.expm_pair(0.0 * curve.frame_log)
            assert np.array_equal(curve(0.0), u @ t @ u.conj().T)
            assert np.array_equal(curve(0.0), u @ (e @ t @ e_inv) @ u.conj().T)

    def test_endpoint_residuals_need_one_exponential(self, count_calls):
        # the value at 0 skips the similarity; the value at s1 is the one
        # exponential, exp(L) from the eigenbasis of -iL that the disc took
        # when it was built: no eigensolve, no Pade step and no solve
        rng = np.random.default_rng(41)
        a = random_ball_matrix(rng, 3, radius=0.5)
        b = random_ball_matrix(rng, 3, radius=0.6)
        bound, _ = sb.bottleneck_minimax(sb.spectrum(a), sb.spectrum(b))
        w = sb.upper_bound_disc(a, b, bound + 0.05)
        expm = count_calls(matcore_module, "expm_pair")
        eigh = count_calls(np.linalg, "eigh")
        solve = count_calls(np.linalg, "solve")
        assert max(w.endpoint_residuals()) <= 1e-8
        assert not hasattr(geometry_module, "expm_pair")
        assert (expm, eigh, solve) == ([], [], [])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_exponential_reference(self, n):
        # exp(lam L) from the eigenbasis of L against the Pade kernel at
        # |zeta / s1| <= 10: the disc itself, L = 0 (A = B) and a frame log
        # with repeated angles
        rng = np.random.default_rng([74, n])
        a = random_ball_matrix(rng, n, radius=0.6)
        b = random_ball_matrix(rng, n, radius=0.7)
        bound, _ = sb.bottleneck_minimax(sb.spectrum(a), sb.spectrum(b))
        disc = sb.upper_bound_disc(a, b, bound + 0.05).curve
        v = random_unitary(rng, n)
        angles = np.resize([0.7, 0.7, -1.2, -1.2, 3.0], n)
        # u* v has the repeated eigenvalues exp(i angles)
        end = disc.frame @ (v * np.exp(1j * angles)) @ v.conj().T
        repeated = dataclasses.replace(disc, frame_end=end)
        same = sb.upper_bound_disc(a, a, 0.5).curve
        for curve in (disc, repeated, same):
            for zeta in curve.scale * disk_points(rng, 10):
                ref, scale = exp_frame_reference(
                    curve.frame, curve.frame_log, zeta / curve.scale, curve.triangular_part(zeta)
                )
                assert np.linalg.norm(curve(zeta) - ref) <= 1e-12 * scale

    @pytest.mark.parametrize("log", [np.diag([0.1, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]])])
    def test_frame_log_must_be_skew_hermitian(self, log):
        # the log is derived from the two frames; the step I + X along an X
        # that is not skew-Hermitian is no unitary, and construction rejects it
        w = sb.upper_bound_disc(np.diag([0.1, 0.8]), np.diag([0.15, 0.75]), 0.13)
        assert np.linalg.norm(w.curve.frame_log + w.curve.frame_log.conj().T) <= 1e-15
        with pytest.raises(sb.InvalidInputError, match="not unitary"):
            dataclasses.replace(w.curve, frame_end=w.curve.frame @ (np.eye(2) + log))

    @pytest.mark.parametrize("scale", [2.0, 0.5, 1.0 + 1e-7])
    def test_frame_must_be_unitary(self, scale):
        # a frame pair with u* v unitary but u = scale W, W unitary, is no
        # similarity, and construction rejects it
        w = sb.upper_bound_disc(np.diag([0.1, 0.8]), np.diag([0.15, 0.75]), 0.13).curve
        with pytest.raises(sb.InvalidInputError, match="not unitary"):
            dataclasses.replace(w, frame=scale * w.frame, frame_end=w.frame_end / scale)
        assert dataclasses.replace(w, frame=w.frame).frame_log.shape == (2, 2)

    def test_certificate_radius_is_the_supremum_over_the_disk(self):
        rng = np.random.default_rng(40)
        zetas = (np.arange(1, 65) / 64)[:, None] * np.exp(2j * np.pi * np.arange(256) / 256)
        for n in (1, 2, 3, 5, 8):
            for radius in (0.3, 0.8, 0.99):
                a = random_ball_matrix(rng, n, radius=radius)
                b = random_ball_matrix(rng, n, radius=rng.uniform(0.3, 0.95))
                bound, _ = sb.bottleneck_minimax(sb.spectrum(a), sb.spectrum(b))
                w = sb.upper_bound_disc(a, b, (bound + 1.0) / 2.0)
                grid = np.abs(w.curve.diagonal_values(zetas.ravel())).max()
                exact = w.certificate_grid.max_spectral_radius
                assert grid <= exact < 1.0
                assert exact - grid <= 1e-3

    def test_curve_eigenvalues_match_closed_form(self):
        # the conjugation path cannot move eigenvalues: spot-check the full
        # curve against the triangular diagonal at well-conditioned points
        rng = np.random.default_rng(35)
        a = random_ball_matrix(rng, 3, radius=0.5)
        b = random_ball_matrix(rng, 3, radius=0.6)
        bound, _ = sb.bottleneck_minimax(sb.spectrum(a), sb.spectrum(b))
        s1 = bound + 0.05
        w = sb.upper_bound_disc(a, b, s1)
        for zeta in (0.0, s1 / 2, s1, s1 * np.exp(0.4j)):
            ev = np.linalg.eigvals(w.curve(zeta))
            dv = w.curve.diagonal_values(zeta)
            assert sb.multiset_distance(ev, dv) <= 1e-6


class TestHullMembership:
    def test_examples(self):
        h, inside = sb.hull_membership(np.diag([2.5, -2.5, 1.0]))
        assert h == pytest.approx(1.0 / 3.0)
        assert inside
        h, inside = sb.hull_membership(np.eye(3))
        assert h == 1.0 and not inside
        h, inside = sb.hull_membership(np.zeros((2, 2)))
        assert h == 0.0 and inside

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(36)
        a = random_gaussian(rng, 3)
        h, _ = sb.hull_membership(a)
        for c in (0.0, 0.5, 2.0, 7.25):
            hc, _ = sb.hull_membership(c * a)
            assert abs(hc - c * h) <= 1e-12 * (1.0 + c * h)

    def test_convexity_sampling(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            a1 = random_ball_matrix(rng, n, radius=0.8)
            a2 = random_ball_matrix(rng, n, radius=0.8)
            w = rng.uniform()
            _, inside = sb.hull_membership(w * a1 + (1 - w) * a2)
            assert inside


def assert_valid_witness(a, w, radii=True):
    """Midpoint reconstruction, unitary S, and S*(t_k - tau I)S strictly
    upper (first term) or lower (second term) to 1e-12 ||A||.  Term radii
    come from eigvals only where that is well conditioned."""
    n = a.shape[0]
    t1, t2 = w.terms
    s = w.similarity
    tau = np.trace(a) / n
    size = np.linalg.norm(a)
    assert np.linalg.norm(0.5 * t1 + 0.5 * t2 - a) <= 1e-9 * (1.0 + size)
    assert np.linalg.norm(s.conj().T @ s - np.eye(n)) <= 1e-12
    z1 = s.conj().T @ (t1 - tau * np.eye(n)) @ s
    z2 = s.conj().T @ (t2 - tau * np.eye(n)) @ s
    assert np.linalg.norm(np.tril(z1)) <= 1e-12 * size
    assert np.linalg.norm(np.triu(z2)) <= 1e-12 * size
    if radii:
        assert max(sb.spectrum(t1).radius, sb.spectrum(t2).radius) < 1.0


class TestHullWitness:
    def test_zero_diagonal_input(self):
        a = np.array([[0.0, 5.0], [0.0, 0.0]])
        w = sb.hull_witness(a)
        t1, t2 = w.terms
        np.testing.assert_allclose(t1, 2 * a, atol=1e-12)
        np.testing.assert_allclose(t2, 0.0, atol=1e-12)

    def test_diagonal_example(self):
        a = np.diag([1.5, -1.0])
        w = sb.hull_witness(a)
        t1, t2 = w.terms
        assert np.linalg.norm(0.5 * t1 + 0.5 * t2 - a) <= 1e-9
        assert sb.spectrum(t1).radius < 1.0
        assert sb.spectrum(t2).radius < 1.0
        # both terms carry the one-point spectrum {tr(A)/2}
        np.testing.assert_allclose(sb.spectrum(t1).values, 0.25, atol=1e-9)

    def test_not_in_hull(self):
        with pytest.raises(sb.NotInHullError):
            sb.hull_witness(np.eye(2))

    @pytest.mark.parametrize("k", [1, 660, 1000])
    def test_same_similarity_at_every_scale(self, k):
        # regression: at 2^660 ||M||_F overflowed, every diagonal entry read as
        # zero within an infinite rounding scale and no rotation was made
        base = np.array([[1.0, 0.3], [0.2j, -1.0]])
        w = sb.hull_witness(np.ldexp(1.0, k) * base)
        assert w.similarity.tobytes() == sb.hull_witness(base).similarity.tobytes()
        residuals = w.residuals(np.ldexp(1.0, k) * base)
        assert residuals["reconstruction"] <= 1e-15 * np.ldexp(np.linalg.norm(base), k)
        assert residuals["triangularity"] <= 1e-15

    def test_dimension_five(self):
        a = 0.3 * random_gaussian(np.random.default_rng(63), 5)
        assert_valid_witness(a, sb.hull_witness(a))
        w = sb.hull_witness(np.zeros((5, 5)))
        np.testing.assert_array_equal(w.similarity, np.eye(5))

    @pytest.mark.parametrize(
        "a",
        [
            np.array([[0.4j]]),
            np.diag([2.5, -2.5, 1.0, 1.0, -1.0]),
            np.diag([0.7, 0.7, 0.7, -0.7, 0.3, -0.3]),
            np.diag([3.0, -1.0, -1.0, -1.0]) + np.triu(np.ones((4, 4)), 1),
            np.array([[0.0, 2.0, 1j], [3.0, 0.0, -1.0], [0.5, 4.0, 0.0]]),
            jordan_block(0.3 + 0.1j, 7),
            0.5 * np.eye(2) + 1e-9 * random_gaussian(np.random.default_rng(4), 2),
            0.5 * np.eye(3) + 1e-9 * random_gaussian(np.random.default_rng(1), 3),
        ],
        ids=[
            "n1",
            "real-diagonal",
            "real-diagonal-ties",
            "real-diagonal-upper",
            "zero-diagonal",
            "jordan-block",
            "near-scalar-n2",
            "near-scalar-n3",
        ],
    )
    def test_structured_members(self, a):
        assert_valid_witness(a, sb.hull_witness(a))

    @settings(max_examples=40)
    @given(
        st.integers(1, 9),
        st.integers(0, 2**32 - 1),
        st.floats(-8.0, 8.0),
        st.floats(0.0, 2.0 * np.pi),
    )
    def test_similarity_and_scaling(self, n, seed, log_c, angle):
        rng = np.random.default_rng(seed)
        g = random_gaussian(rng, n)
        b = g - (np.trace(g) / n) * np.eye(n)
        u = random_unitary(rng, n, scale=3.0)
        a = u @ (b + 0.6 * np.exp(1j * angle) * np.eye(n)) @ u.conj().T
        assert_valid_witness(a, sb.hull_witness(a))
        c = 10.0**log_c * np.exp(1j * angle)
        assert_valid_witness(c * b, sb.hull_witness(c * b), radii=False)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_random_members(self, n):
        rng = np.random.default_rng(38 + n)
        for _ in range(10):
            a = random_gaussian(rng, n)
            tr = np.trace(a)
            if abs(tr) >= 0.9 * n:
                a = a * (0.8 * n / abs(tr))
            w = sb.hull_witness(a)
            t1, t2 = w.terms
            assert np.linalg.norm(0.5 * t1 + 0.5 * t2 - a) <= 1e-9 * (
                1 + np.linalg.norm(a)
            )
            assert sb.spectrum(t1).radius < 1.0
            assert sb.spectrum(t2).radius < 1.0
            s = w.similarity
            assert np.linalg.norm(s.conj().T @ s - np.eye(n)) <= 1e-12
