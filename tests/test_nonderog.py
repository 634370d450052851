import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectralball as sb
import spectralball.curves as curves_module
import spectralball.matcore as matcore_module
import spectralball.nonderog as nonderog_module
from conftest import crafted_suite, jordan_block, random_gaussian


class TestPolyCoeffs:
    def test_copies_and_normalizes(self):
        c = np.array([2, 3, 5], complex)
        p = sb.PolyCoeffs(c)
        assert p.coeffs is not c
        np.testing.assert_array_equal(c, [2, 3, 5])
        np.testing.assert_allclose(p.coeffs, [0.4, 0.6, 1.0], rtol=1e-15)
        assert p.coeffs[-1] == 1.0

    def test_monic_input_keeps_its_bytes(self):
        c = np.array([0.1 - 0.2j, -0.0, 1.0])
        assert sb.PolyCoeffs(c).coeffs.tobytes() == c.tobytes()

    @pytest.mark.parametrize("coeffs", [[1.0, 0.0], [1.0, np.nan], [1.0, np.inf], []])
    def test_rejects_a_zero_or_nonfinite_leading_coefficient(self, coeffs):
        with pytest.raises(sb.InvalidInputError, match="leading coefficient"):
            sb.PolyCoeffs(coeffs)

    def test_evaluates_at_a_point(self):
        p = sb.PolyCoeffs([2.0, -3.0, 1.0])  # (z - 1)(z - 2)
        assert p(3.0) == 2.0
        assert p(1.0 + 1.0j) == -1.0 - 1.0j
        assert p(1.0) == 0.0


class TestMinimalPolynomial:
    def test_identity(self):
        p = sb.minimal_polynomial(np.eye(2))
        np.testing.assert_allclose(p.coeffs, [-1.0, 1.0], atol=1e-12)

    def test_nilpotent_block(self):
        p = sb.minimal_polynomial(np.array([[0.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(p.coeffs, [0.0, 0.0, 1.0], atol=1e-12)

    def test_distinct_diagonal(self):
        p = sb.minimal_polynomial(np.diag([0.1, 0.2]))
        np.testing.assert_allclose(p.coeffs, [0.02, -0.3, 1.0], atol=1e-12)

    def test_annihilates(self):
        rng = np.random.default_rng(21)
        for n in (2, 3, 4):
            a = random_gaussian(rng, n)
            p = sb.minimal_polynomial(a)
            assert np.linalg.norm(p.on_matrix(a)) <= 1e-7 * max(
                1.0, np.linalg.norm(a) ** p.degree
            )

    def test_divides_characteristic(self):
        rng = np.random.default_rng(22)
        cases = [m for m, _ in crafted_suite(3)] + [random_gaussian(rng, 3)]
        for a in cases:
            minimal = sb.minimal_polynomial(a)
            char = sb.sigma(a).char_coefficients()  # descending
            _, rem = np.polydiv(char, minimal.coeffs[::-1])
            assert np.abs(rem).max() <= 1e-7


class TestLargeNorms:
    """Power and Krylov columns are normalized without overflowing."""

    A3 = np.random.default_rng(0).standard_normal((3, 3))
    A16 = np.random.default_rng(3).standard_normal((16, 16))

    @pytest.mark.parametrize("a, scale", [(A3, 1e100), (A16, 1e10), (A16, 1e12)])
    def test_full_degree_at_large_scales(self, a, scale):
        # the squares of the largest power entries overflow above ~1e154
        assert sb.minimal_polynomial(a * scale).degree == a.shape[0]

    def test_coefficient_overflow_raises(self):
        # the degree search reads 3, but det(A) ~ 1e450 is not a double
        with pytest.raises(sb.NumericError, match="coefficients overflow"):
            sb.minimal_polynomial(self.A3 * 1e150)

    def test_derogatory_coefficient_overflow_raises(self):
        # degree 2 from the centered search, but c^2 ~ 1e320 is not a double
        with pytest.raises(sb.NumericError, match="coefficients overflow"):
            sb.minimal_polynomial(np.diag([1.0, 1.0, 2.0]) * 1e160)

    def test_power_overflow_raises(self):
        with pytest.raises(sb.NumericError, match="coefficients overflow"):
            sb.minimal_polynomial(self.A3 * 1e160)
        with pytest.raises(sb.NumericError, match="coefficients overflow"):
            sb.classify(self.A3 * 1e160)


class TestClassify:
    def test_report_carries_the_polynomial(self):
        for a, _ in crafted_suite(4):
            report = sb.classify(a)
            expected = sb.minimal_polynomial(a)
            assert report.minimal_polynomial.coeffs.tobytes() == expected.coeffs.tobytes()
            assert (report.minimal_polynomial.degree == 4) == (
                report.per_criterion["minimal_degree"].passed
            )

    def test_identity_derogatory(self):
        report = sb.classify(np.eye(2))
        assert not report.verdict
        assert report.per_criterion["commutant_dim"].diagnostic == 4.0

    def test_companion_nonderogatory(self):
        report = sb.classify(sb.companion([0.3, 0.02]))
        assert report.verdict
        assert all(c.passed for c in report.per_criterion.values())
        assert set(report.per_criterion) == {
            "cyclic_vector", "minimal_degree", "eigenspace_dim", "commutant_dim",
            "symmetrization_rank",
        }

    def test_multiplicity_pair(self):
        assert not sb.classify(np.diag([0.1, 0.1])).verdict
        assert sb.classify(np.array([[0.1, 1.0], [0.0, 0.1]])).verdict

    def test_crafted_suite_agreement(self):
        for n in (2, 3, 4, 5):
            for matrix, expected in crafted_suite(n):
                report = sb.classify(matrix)
                flags = [c.passed for c in report.per_criterion.values()]
                assert report.verdict == expected, (n, matrix)
                assert all(f == expected for f in flags), (n, matrix)

    def test_random_agreement_sample(self):
        rng = np.random.default_rng(23)
        for n in (2, 3, 4, 5):
            for _ in range(20):
                a = random_gaussian(rng, n)
                report = sb.classify(a, rng=rng)
                flags = [c.passed for c in report.per_criterion.values()]
                assert all(flags)

    def test_similarity_invariance(self):
        rng = np.random.default_rng(24)
        cases = [m for m, _ in crafted_suite(3)]
        for a in cases:
            p = np.eye(3) + 0.3 * random_gaussian(rng, 3)
            conj = np.linalg.solve(p, a @ p)
            assert sb.classify(conj).verdict == sb.classify(a).verdict

    def test_dimension_one(self):
        assert sb.classify(np.array([[0.5]])).verdict

    def test_invalid_input(self):
        with pytest.raises(sb.InvalidInputError):
            sb.classify(np.zeros((0, 0)))


class TestLastColumnProbing:
    """On companion matrices the differential acts on the last column by a
    signed coordinate reversal; probing with unit matrices recovers one
    coordinate each, and the first coordinate is always the trace."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_row_pattern(self, n):
        rng = np.random.default_rng(n + 30)
        coords = 0.4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        a = sb.companion(coords)
        for k in range(1, n + 1):
            h = np.zeros((n, n), dtype=complex)
            h[k - 1, n - 1] = 1.0
            push = sb.sigma_pushforward(a, h)
            expected = np.zeros(n, dtype=complex)
            expected[n - k] = (-1.0) ** (n - k)
            np.testing.assert_allclose(push, expected, atol=1e-10)

    def test_rank_on_companions(self):
        for n in (2, 3, 4):
            a = sb.companion(0.2 * np.arange(1, n + 1))
            s = np.linalg.svd(sb.sigma_differential_matrix(a), compute_uv=False)
            assert int((s > 1e-9 * s[0]).sum()) == n


class TestJordanStructures:
    def test_single_block_sizes(self):
        for k in (2, 3, 4):
            assert sb.classify(jordan_block(0.3, k)).verdict

    def test_equal_eigenvalue_sums_derogatory(self):
        m = np.zeros((4, 4), dtype=complex)
        m[:2, :2] = jordan_block(0.3, 2)
        m[2:, 2:] = jordan_block(0.3, 2)
        assert not sb.classify(m).verdict

    def test_conjugated_jordan_sum(self):
        rng = np.random.default_rng(25)
        m = np.zeros((4, 4), dtype=complex)
        m[:2, :2] = jordan_block(0.3, 2)
        m[2:, 2:] = jordan_block(0.3, 2)
        p = np.eye(4) + 0.2 * random_gaussian(rng, 4)
        conj = np.linalg.solve(p, m @ p)
        assert not sb.classify(conj).verdict


# ----------------------------------------------------------------------
# Reference classifier, on the centered, normalized M of A = tau I + c M:
# the minimal-polynomial search with one SVD of the whole normalized prefix
# per degree, one eigensolve per criterion, one SVD per eigenvalue cluster
# and the commutation operator as a difference of Kronecker products.  The
# batched classifier must reproduce it bit for bit.


def reference_centered(A, tol):
    n = A.shape[0]
    tau = np.trace(A) / n
    d = A - tau * np.eye(n)
    c = float(np.abs(d).max())
    if c <= tol * float(np.abs(A).max()):
        return tau, 0.0, np.zeros_like(d)
    return tau, c, d / c


def reference_minimal_polynomial(A, tol):
    tau, c, M = reference_centered(A, tol)
    n = A.shape[0]
    power = np.eye(n, dtype=complex)
    cols = [power.ravel(order="F")]
    units = [cols[0] / np.linalg.norm(cols[0])]
    borderline, vanished = False, False
    for d in range(1, n):
        power = power @ M
        vec = power.ravel(order="F")
        # a power at most tol times the previous one, and every later one, is zero
        vanished = vanished or np.linalg.norm(vec) <= tol * np.linalg.norm(cols[-1])
        cols.append(vec)
        units.append(0.0 * vec if vanished else vec / np.linalg.norm(vec))
        s = np.linalg.svd(np.column_stack(units), compute_uv=False)
        if np.any((s >= tol * s[0] / 10.0) & (s <= tol * s[0] * 10.0)):
            borderline = True
        if s[-1] <= tol * s[0]:
            q, *_ = np.linalg.lstsq(np.column_stack(cols[:-1]), -vec, rcond=None)
            # c^d q((z - tau) / c) by Horner in z - tau; c^(d - k) is taken
            # as one array power, which can round unlike a scalar power
            scale = np.float64(c) ** np.arange(d, 0, -1)
            coeffs = np.ones(1, dtype=complex)
            for k in range(d - 1, -1, -1):
                coeffs = np.append(coeffs, q[k] * scale[k])
                coeffs[1:] -= tau * coeffs[:-1]
            return coeffs[::-1], borderline
    values = tau + c * np.linalg.eigvals(M)
    return sb.SymPoint(sb.elementary_symmetric(values)).char_coefficients()[::-1], borderline


def reference_eigenspaces(M):
    n = M.shape[0]
    values = np.linalg.eigvals(M)
    radius = float(np.max(np.abs(values)))
    max_mult, borderline = 0, False
    for group in nonderog_module._cluster_eigenvalues(values, radius):
        center = values[group].mean()
        s = np.linalg.svd(M - center * np.eye(n), compute_uv=False)
        rank, flag = nonderog_module._rank_by_svd(s)
        max_mult = max(max_mult, max(n - rank, 1))
        borderline = borderline or flag
    return sb.CriterionResult(max_mult == 1, float(max_mult), borderline)


def reference_classify(a):
    """(verdict, per-criterion results) or the InternalError raised."""
    rank_by_svd = nonderog_module._rank_by_svd
    A = np.asarray(a, dtype=complex)
    n = A.shape[0]
    _, _, M = reference_centered(A, sb.DEFAULT_TOL)
    rng = np.random.default_rng(nonderog_module._DEFAULT_SEED)
    per = {"cyclic_vector": former_criterion_cyclic(M, rng)}
    coeffs, mp_borderline = reference_minimal_polynomial(A, sb.DEFAULT_TOL)
    degree = len(coeffs) - 1
    per["minimal_degree"] = sb.CriterionResult(degree == n, float(degree), mp_borderline)
    per["eigenspace_dim"] = reference_eigenspaces(M)
    op = np.kron(np.eye(n), M) - np.kron(M.T, np.eye(n))
    s_op = np.linalg.svd(op, compute_uv=False)
    op_rank, op_borderline = rank_by_svd(s_op)
    per["commutant_dim"] = sb.CriterionResult(
        n * n - op_rank == n, float(n * n - op_rank), op_borderline
    )
    # the rows on one scale: unit norm, after the vanishing rule of the degree search
    rows = sb.sigma_differential_matrix(M)
    units, vanished = [rows[0] / np.linalg.norm(rows[0])], False
    for j in range(1, n):
        vanished = vanished or np.linalg.norm(rows[j]) <= sb.DEFAULT_TOL * np.linalg.norm(rows[j - 1])
        units.append(0.0 * rows[j] if vanished else rows[j] / np.linalg.norm(rows[j]))
    s_sig = np.linalg.svd(np.column_stack(units), compute_uv=False)
    sig_rank, sig_borderline = rank_by_svd(s_sig)
    per["symmetrization_rank"] = sb.CriterionResult(sig_rank == n, float(sig_rank), sig_borderline)
    votes = sum(1 for c in per.values() if c.passed)
    if votes in (0, len(per)):
        return votes > 0, per
    if not any(c.borderline for c in per.values()):
        detail = {k: (c.passed, c.diagnostic) for k, c in per.items()}
        return sb.InternalError(f"criteria disagree without borderline flags: {detail}"), per
    clean = [c.passed for c in per.values() if not c.borderline]
    pool = clean if clean and sum(clean) * 2 != len(clean) else [c.passed for c in per.values()]
    return sum(pool) * 2 > len(pool), per


STRUCTURES = ("gaussian", "jordan", "jordan_split", "repeated", "scalar", "clustered")
# inputs whose rank decisions sit near their thresholds, with no fixed truth
NEAR_THRESHOLD = ("near_pairs", "perturbed_jordan")


def structured_matrix(structure, n, seed):
    """A matrix of the given structure under a random unitary similarity."""
    rng = np.random.default_rng(seed)
    lam = 0.9 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
    d = 0.9 * rng.uniform(size=n) * np.exp(2j * np.pi * rng.uniform(size=n))
    if structure == "gaussian":
        return random_gaussian(rng, n)
    if structure == "jordan":
        a = jordan_block(lam, n)
    elif structure == "jordan_split":
        k = max(n // 2, 1)
        a = np.zeros((n, n), dtype=complex)
        a[:k, :k] = jordan_block(lam, k)
        a[k:, k:] = jordan_block(lam, n - k)
    elif structure == "repeated":
        d[1 % n] = d[0]
        a = np.diag(d)
    elif structure == "scalar":
        a = lam * np.eye(n, dtype=complex)
    elif structure == "clustered":  # pairs of eigenvalues 1e-4 .. 1e-2 apart
        d[1::2] = d[: n // 2 * 2 : 2] + 10.0 ** rng.uniform(-4, -2, size=n // 2)
        a = np.diag(d)
    elif structure == "near_pairs":  # pairs 1e-9 .. 1e-5 apart, relative
        phase = np.exp(2j * np.pi * rng.uniform(size=n // 2))
        d[1::2] = d[: n // 2 * 2 : 2] * (1.0 + 10.0 ** rng.uniform(-9, -5, size=n // 2) * phase)
        a = np.diag(d)
    else:  # perturbed_jordan: a Jordan block plus 10^-k E
        a = jordan_block(lam, n) + 10.0 ** -rng.integers(5, 15) * random_gaussian(rng, n)
    u, _ = np.linalg.qr(random_gaussian(rng, n))
    return u @ a @ u.conj().T


class TestBatchedClassifierEqualsReference:
    @settings(max_examples=200)
    @given(
        structure=st.sampled_from(STRUCTURES + NEAR_THRESHOLD),
        n=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(-4, 4),
        shift=st.booleans(),
    )
    def test_bit_for_bit(self, structure, n, seed, k, shift):
        a = structured_matrix(structure, n, seed) * 10.0**k
        if shift:
            a = a + 10.0**k * (0.7 - 0.4j) * np.eye(n)
        expected, expected_per = reference_classify(a)
        if isinstance(expected, sb.InternalError):
            with pytest.raises(sb.InternalError) as err:
                sb.classify(a)
            assert str(err.value) == str(expected)
        else:
            report = sb.classify(a)
            assert report.verdict == expected
            assert report.per_criterion == expected_per
        coeffs, _ = reference_minimal_polynomial(np.asarray(a, dtype=complex), sb.DEFAULT_TOL)
        assert sb.minimal_polynomial(a).coeffs.tobytes() == sb.PolyCoeffs(coeffs).coeffs.tobytes()

    def test_one_eigensolve_and_one_stacked_cluster_svd(self, monkeypatch, count_eigvals):
        svd_inputs = []
        svd = np.linalg.svd

        def recording_svd(x, *args, **kwargs):
            svd_inputs.append(np.array(x))
            return svd(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        # three separated eigenvalues and a full-degree minimal polynomial:
        # every consumer of the spectrum runs, and the eigenpairs settle the
        # eigenspaces without the stacked SVD
        a = np.diag([0.1, 0.3, 0.5 + 0.2j]) + np.triu(np.ones((3, 3)), 1)
        report = sb.classify(a)
        assert report.verdict
        assert report.per_criterion["eigenspace_dim"].diagnostic == 1.0
        assert len(count_eigvals) == 1
        assert cluster_stacks(svd_inputs, a) == []
        # a pair 1e-8 apart is one cluster, which the proof refuses: one
        # stacked SVD of the two clusters decides
        count_eigvals.clear()
        svd_inputs.clear()
        a = np.diag([0.3, 0.3 + 1e-8, 0.7])
        report = sb.classify(a)
        assert report.verdict
        assert len(count_eigvals) == 1
        assert [len(x) for x in cluster_stacks(svd_inputs, a)] == [2]


def cluster_stacks(svd_inputs, a):
    """The SVD inputs that are stacks of M - z I, M the centered,
    normalized M of *a*: every matrix of the stack has M's off-diagonal."""
    _, _, m = matcore_module._centered(np.asarray(a, dtype=complex), sb.DEFAULT_TOL)
    off = ~np.eye(len(m), dtype=bool)
    return [x for x in svd_inputs if x.ndim == 3 and all((y[off] == m[off]).all() for y in x)]


# ----------------------------------------------------------------------
# The rank-decision helpers before their dispatch-free spellings: the
# helpers must return these bit for bit.


def former_rank_by_svd(s):
    s = np.asarray(s, dtype=float)
    if not len(s) or s[0] == 0.0:
        return 0, False
    thresh = sb.DEFAULT_TOL * s[0]
    rank = int(np.count_nonzero(s > thresh))
    decade = matcore_module.BORDERLINE_DECADE
    borderline = bool(((s >= thresh / decade) & (s <= thresh * decade)).any())
    return rank, borderline


def former_unit_columns(w):
    norms = np.linalg.norm(w, axis=0)
    drop = np.flatnonzero(norms[1:] <= sb.DEFAULT_TOL * norms[:-1])
    if len(drop):
        norms[drop[0] + 1 :] = np.inf
    return w / norms


def former_criterion_cyclic(M, rng):
    n = M.shape[0]
    best_rank, best_borderline = 0, True
    for _ in range(nonderog_module.CYCLIC_TRIALS):
        cols = [rng.standard_normal(n) + 1j * rng.standard_normal(n)]
        for _ in range(n - 1):
            cols.append(M @ cols[-1])
        s = np.linalg.svd(former_unit_columns(np.column_stack(cols)), compute_uv=False)
        rank, borderline = former_rank_by_svd(s)
        if rank > best_rank or (rank == best_rank and not borderline):
            best_rank, best_borderline = rank, borderline
        if not best_borderline:
            break
    return sb.CriterionResult(best_rank == n, float(best_rank), best_borderline)


def singular_value_edges():
    """Descending lists with values exactly at the rank threshold, at a
    tenth and at ten times it, and the degenerate lists."""
    cases = [[], [0.0], [0.0, 0.0], [1.0], [1.0, 0.0], [np.inf, 1.0]]
    for top in (1.0, 3.7, 1e-300, 5e-324, 1e300, np.finfo(float).max):
        thresh = sb.DEFAULT_TOL * top
        low, high = thresh / 10.0, thresh * 10.0
        for edge in (thresh, low, high):
            for value in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)):
                cases.append([top, value])
                cases.append([top, top / 2, value, 0.0])
        cases.append([top, high, thresh, low, 0.0])
    return cases


def column_edges():
    """Matrices whose column-norm ratios sit exactly at DEFAULT_TOL, with
    zero, subnormal and huge columns, in C and in F order."""
    e = np.eye(4, dtype=complex)
    tol = sb.DEFAULT_TOL
    cases = [
        np.column_stack([e[0], tol * e[1], e[2], e[3]]),  # ratio exactly DEFAULT_TOL
        np.column_stack([e[0], np.nextafter(tol, 1.0) * e[1], e[2], e[3]]),
        np.column_stack([e[0], e[1], tol * e[2], tol * tol * e[3]]),
        np.column_stack([e[0], 0 * e[1], e[2], e[3]]),  # a zero column
        np.column_stack([0 * e[0], e[1], e[2], e[3]]),  # a zero first column
        np.zeros((4, 4), dtype=complex),
        np.column_stack([e[0], 1e-320 * e[1], 1e-320j * e[2], e[3]]),  # subnormal
        np.full((4, 4), 1e-310 + 2e-310j),
        np.column_stack([1e300 * e[0], 1e300 * (e[1] + e[2]), e[3], 1e300j * e[3]]),
        np.full((4, 4), 1e300 - 1e300j),
        np.ones((1, 1), dtype=complex),
        np.ones((5, 1), dtype=complex),
    ]
    rng = np.random.default_rng(17)
    for n in (2, 9, 16):
        cases.append(rng.standard_normal((n * n, n)) + 1j * rng.standard_normal((n * n, n)))
    return cases + [np.asfortranarray(w) for w in cases]


class TestRankHelpersEqualFormerSpellings:
    @pytest.mark.parametrize("s", singular_value_edges())
    def test_rank_by_svd(self, s):
        rank, flag = matcore_module._rank_by_svd(s)
        assert (rank, flag) == former_rank_by_svd(s)
        assert (type(rank), type(flag)) == (int, bool)
        array = np.array(s, dtype=float)
        assert matcore_module._rank_by_svd(array) == former_rank_by_svd(array)

    @pytest.mark.parametrize("w", column_edges())
    def test_unit_columns(self, w):
        with np.errstate(all="ignore"):  # zero and huge columns divide by 0 and inf
            expected = former_unit_columns(w.copy())
            got = nonderog_module._unit_columns(w.copy())
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("w", column_edges())
    def test_norms(self, w):
        with np.errstate(over="ignore"):  # the squares of huge columns
            assert nonderog_module._norm(w).tobytes() == np.linalg.norm(w).tobytes()
            assert nonderog_module._norms(w, 0).tobytes() == np.linalg.norm(w, axis=0).tobytes()
            stack = np.stack([w, 2.0 * w])
            expected = np.linalg.norm(stack, axis=(1, 2))
            assert nonderog_module._norms(stack, (1, 2)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("structure", STRUCTURES + NEAR_THRESHOLD)
    def test_krylov_and_criterion_cyclic(self, structure):
        for n in (1, 2, 3, 5, 8, 9, 12, 16):
            a = structured_matrix(structure, n, 100 + n)
            _, _, M = matcore_module._centered(a, sb.DEFAULT_TOL)
            v = np.random.default_rng(n).standard_normal(n) + 0.5j
            cols = [v]
            for _ in range(n - 1):
                cols.append(M @ cols[-1])
            expected = former_unit_columns(np.column_stack(cols))
            assert nonderog_module._krylov(M, v).tobytes() == expected.tobytes()
            seed = nonderog_module._DEFAULT_SEED
            got = sb.classify(a, rng=np.random.default_rng(seed)).per_criterion["cyclic_vector"]
            assert got == former_criterion_cyclic(M, np.random.default_rng(seed))
            assert sb.classify(a).per_criterion["cyclic_vector"] == got


class TestSvdBudget:
    """The eigenpairs settle the eigenspace dimensions and the commutant of a
    generic matrix without the stacked (k, n, n) SVD of the clusters and the
    n^2 x n^2 SVD of the commutation operator, interlacing settles a full
    degree with one SVD of a leading block of R and bisects for a deficient
    one, and a cyclic-vector probe that is not borderline is the last."""

    @staticmethod
    def svd_shapes_and_block_count(monkeypatch, a):
        """The report, the shape of every SVD input and the number of SVDs of
        a leading block of R: a block taken from R itself, or the full block
        copied into the first-pass stack.  Also the cluster stacks."""
        qr, svd = np.linalg.qr, np.linalg.svd
        factors, inputs, blocks = [], [], []

        def recording_qr(x, *args, **kwargs):
            out = qr(x, *args, **kwargs)
            # a raw factor holds R, transposed, in its leading block
            factors.append(out[0].T[: x.shape[1]] if isinstance(out, tuple) else out)
            return out

        def counting_svd(x, *args, **kwargs):
            inputs.append(np.array(x))
            for y in x if np.ndim(x) == 3 else [x]:
                blocks.append(
                    any(np.shares_memory(y, r) or np.array_equal(y, r) for r in factors)
                )
            return svd(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", recording_qr)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        report = sb.classify(a)
        shapes = [x.shape for x in inputs]
        return report, shapes, sum(blocks), cluster_stacks(inputs, a)

    @pytest.mark.parametrize("n", [12, 16])
    def test_gaussian(self, monkeypatch, n):
        a = random_gaussian(np.random.default_rng(n), n)
        report, shapes, blocks, clusters = self.svd_shapes_and_block_count(monkeypatch, a)
        assert report.verdict
        assert (n * n, n * n) not in shapes
        assert clusters == []
        assert blocks == 1

    def test_generic_call_budget(self, count_calls):
        """A generic 5 x 5 input: classify takes one first-pass stack SVD and
        the symmetrization SVD, one QR and one eigensolve; minimal_polynomial
        one SVD, one QR and the eigenvalues."""
        calls = {name: count_calls(np.linalg, name) for name in ("svd", "qr", "eig", "eigvals")}
        a = random_gaussian(np.random.default_rng(5), 5)
        assert sb.classify(a).verdict
        assert {name: len(c) for name, c in calls.items()} == {"svd": 2, "qr": 1, "eig": 1, "eigvals": 0}
        assert calls["svd"][0] == (3, 5, 5)
        for c in calls.values():
            c.clear()
        assert sb.minimal_polynomial(a).degree == 5
        assert {name: len(c) for name, c in calls.items()} == {"svd": 1, "qr": 1, "eig": 0, "eigvals": 1}

    def test_split_jordan(self, monkeypatch):
        n = 16
        report, shapes, blocks, _ = self.svd_shapes_and_block_count(
            monkeypatch, structured_matrix("jordan_split", n, 7)
        )
        assert not report.verdict
        assert report.per_criterion["minimal_degree"].diagnostic == n // 2
        assert shapes.count((n * n, n * n)) == 1
        assert blocks <= int(np.ceil(np.log2(n))) + 2

    @pytest.mark.parametrize(
        "a",
        [np.diag([0.3, 0.3, 0.7]), np.kron(np.eye(2), jordan_block(0.2, 2))],
        ids=["repeated", "two_jordan_blocks"],
    )
    def test_derogatory_input_makes_one_cyclic_probe(self, a):
        draws = []

        class CountingRng:
            generator = np.random.default_rng(3)

            def standard_normal(self, size):
                draws.append(size)
                return self.generator.standard_normal(size)

        u = np.linalg.qr(random_gaussian(np.random.default_rng(4), len(a)))[0]
        report = sb.classify(u @ a @ u.conj().T, rng=CountingRng())
        assert not report.verdict
        assert not report.per_criterion["cyclic_vector"].borderline
        assert len(draws) == 2  # the real and the imaginary part of one probe


TRUTH = {
    "gaussian": True,
    "jordan": True,
    "jordan_split": False,
    "repeated": False,
    "scalar": False,
    "clustered": True,
}


class TestScaleShiftAndSimilarityInvariance:
    """Non-derogatoriness is invariant under A -> cA + dI and unitary
    similarity, and so is the verdict."""

    @settings(max_examples=120)
    @given(
        structure=st.sampled_from(STRUCTURES),
        n=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(-8, 8),
        d=st.complex_numbers(max_magnitude=2.0),
    )
    def test_verdict_is_invariant(self, structure, n, seed, k, d):
        a = structured_matrix(structure, n, seed)
        c = 10.0**k
        u, _ = np.linalg.qr(random_gaussian(np.random.default_rng(seed + 1), n))
        assert sb.classify(a).verdict == TRUTH[structure]
        assert sb.classify(c * a + c * d * np.eye(n)).verdict == TRUTH[structure]
        assert sb.classify(u @ a @ u.conj().T).verdict == TRUTH[structure]


def conditioned_diagonalizable(n, seed, kappa):
    """S D S^-1 with distinct random eigenvalues and cond(S) = kappa."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(random_gaussian(rng, n))
    w, _ = np.linalg.qr(random_gaussian(rng, n))
    s = (u * np.logspace(0.0, np.log10(kappa), n)) @ w
    d = 0.9 * rng.uniform(size=n) * np.exp(2j * np.pi * rng.uniform(size=n))
    return np.linalg.solve(s.T, (s * d).T).T


def only_symmetrization_dissents(err):
    """Whether classify's InternalError has every criterion but the
    symmetrization rank passing."""
    message = str(err)
    return "'symmetrization_rank': (False" in message and message.count("(True,") == 4


class TestEigenpairProofAgreesWithClassify:
    """Where the eigenpairs of M prove the commutant n-dimensional, classify
    does not call the base derogatory, and a zero-metric curve is the one
    the classify path builds, bit for bit.  Should classify raise
    InternalError there, only the symmetrization rank may dissent, and the
    proof then builds the curve that the classify path refused.  Where they
    prove the eigenspace criterion, the stacked SVD of the clusters returns
    the same result."""

    @staticmethod
    def zero_metric_outcome(a, b):
        try:
            curve = sb.zero_metric_curve(a, b)
        except sb.SpectralBallError as err:
            return type(err), str(err)
        return getattr(curve, "generator", curve.kind)

    @classmethod
    def classify_path_outcome(cls, a, b):
        """zero_metric_outcome with the base decided by classify alone."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(curves_module, "_nonderogatory", lambda a, *_: sb.classify(a).verdict)
            return cls.zero_metric_outcome(a, b)

    @staticmethod
    def centered_eigenpairs(a):
        """(M, mu, bounds): the centered M of a, its eigenvalues and their
        ``_eigenpair_bounds``."""
        _, _, m = matcore_module._centered(np.asarray(a, dtype=complex), sb.DEFAULT_TOL)
        mu, v = np.linalg.eig(m)
        return m, mu, nonderog_module._eigenpair_bounds(m, mu, v, np.linalg.svd(v, compute_uv=False))

    @classmethod
    def proved(cls, a):
        m, _, bounds = cls.centered_eigenpairs(a)
        return nonderog_module._commutant_rank_bound(m, bounds) is not None

    @staticmethod
    def scaled_input(structure, n, seed, k, shift):
        """A structured input, S D S^-1 with kappa(S) up to 1e6 for
        "conditioned", times 10^k and shifted by 10^k (0.7 - 0.4i) I."""
        if structure == "conditioned":
            kappa = 10.0 ** np.random.default_rng(seed).uniform(0.0, 6.0)
            a = conditioned_diagonalizable(n, seed, kappa)
        else:
            a = structured_matrix(structure, n, seed)
        a = a * 10.0**k
        return a + 10.0**k * (0.7 - 0.4j) * np.eye(n) if shift else a

    @settings(max_examples=150)
    @given(
        structure=st.sampled_from(
            ("gaussian", "clustered", "conditioned", "jordan", "jordan_split", "repeated")
        ),
        n=st.integers(2, 10),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(-4, 4),
        shift=st.booleans(),
    )
    def test_proof_implies_verdict_and_same_generator(self, structure, n, seed, k, shift):
        a = self.scaled_input(structure, n, seed, k, shift)
        proved = self.proved(a)
        if proved:
            try:
                assert sb.classify(a).verdict
            except sb.InternalError as err:
                assert only_symmetrization_dissents(err)
        if structure == "gaussian":
            assert proved
        y0 = 0.2 * random_gaussian(np.random.default_rng(seed + 1), n)
        b = a @ y0 - y0 @ a
        outcome = self.zero_metric_outcome(a, b)
        reference = self.classify_path_outcome(a, b)
        if isinstance(reference, np.ndarray):
            assert np.array_equal(outcome, reference)
        elif proved and reference[0] is sb.InternalError:
            assert isinstance(outcome, np.ndarray)
        else:
            assert outcome == reference

    @settings(max_examples=300)
    @given(
        structure=st.sampled_from(
            ("gaussian", "clustered", "near_pairs", "conditioned", "jordan", "jordan_split", "repeated")
        ),
        n=st.integers(2, 16),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(-4, 4),
        shift=st.booleans(),
    )
    def test_eigenspace_proof_is_the_cluster_svd_result(self, structure, n, seed, k, shift):
        # wherever the eigenpairs prove the eigenspace criterion, the stacked
        # SVD of the clusters returns the same (passed, diagnostic, borderline)
        m, mu, bounds = self.centered_eigenpairs(self.scaled_input(structure, n, seed, k, shift))
        proof = nonderog_module._eigenspace_bound(m, mu, bounds)
        if proof is not None:
            assert nonderog_module._criterion_eigenspaces(m, mu) == proof
        if structure == "gaussian":
            assert proof is not None

    @pytest.mark.parametrize("gap", np.logspace(-10.0, -5.0, 41))
    def test_eigenspace_proof_at_the_cluster_threshold(self, gap):
        # a pair on either side of the cluster threshold, where the SVD of
        # the cluster can flag its rank borderline
        m, mu, bounds = self.centered_eigenpairs(np.diag([0.3, 0.3 + gap, 0.7]))
        proof = nonderog_module._eigenspace_bound(m, mu, bounds)
        if proof is not None:
            assert nonderog_module._criterion_eigenspaces(m, mu) == proof
        # beyond the threshold the well-separated normal M is always proved
        separated = abs(mu[1] - mu[0]) > matcore_module.PAIRING_TOL * (1.0 + np.abs(mu).max())
        assert (proof is not None) == separated

    @pytest.mark.parametrize("seed", [1, 53, 149, 156, 210, 225, 243, 250, 338, 392])
    def test_classify_and_curve_at_kappa_100(self, seed):
        # on these bases the rank of the raw differential rows, of sizes about
        # |mu|^j, failed alone and classify raised InternalError
        a = conditioned_diagonalizable(8, seed, 100.0)
        assert all(c.passed for c in sb.classify(a).per_criterion.values())
        y0 = 0.2 * random_gaussian(np.random.default_rng(seed + 1), 8)
        b = a @ y0 - y0 @ a
        curve = sb.zero_metric_curve(a, b)
        assert np.array_equal(curve.generator, self.classify_path_outcome(a, b))
        assert np.linalg.norm(curve.derivative_at_zero() - b) <= 1e-12 * np.linalg.norm(b)
        assert sb.verify_constant_spectrum(curve, sb.spectrum(a), radius=1.0).passed


@pytest.mark.xfail(
    raises=sb.InternalError,
    strict=True,
    reason="ROADMAP open item 9: at kappa(S) = 10^5.44 the commutant dimension alone dissents (7 for 5)",
)
def test_conditioned_base_at_kappa_10_to_5_44_gets_a_verdict():
    assert isinstance(sb.classify(conditioned_diagonalizable(5, 1056, 10**5.44)).verdict, bool)


def rotated_jordan_block_8():
    """A J_8(lam) under a random unitary similarity, neither scaled nor
    shifted: the classify-survey benchmark input of seed 15, report 1601."""
    rng = np.random.default_rng([15, 0, 1601])
    lam = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
    g = (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return u @ (lam * np.eye(8, dtype=complex) + np.diag(np.ones(7), 1)) @ u.conj().T


@pytest.mark.xfail(
    raises=sb.InternalError,
    strict=True,
    reason="ROADMAP open item 9: the first default probe's Krylov matrix has "
    "sigma_min / sigma_max = 1.6e-11, below the borderline band, so cyclic_vector "
    "alone reads rank 7, unflagged, and stops",
)
def test_rotated_jordan_block_gets_a_verdict():
    assert sb.classify(rotated_jordan_block_8()).verdict


class TestDefaultProbes:
    """Without a generator, classify takes the probes that a generator seeded
    with the default seed draws first, made once per size."""

    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_equal_to_a_seeded_generator(self, structure):
        for n in range(1, 17):
            for k, shift in [(0, False), (3, False), (0, True), (-2, True)]:
                a = structured_matrix(structure, n, n) * 10.0**k
                if shift:
                    a = a + 10.0**k * (0.7 - 0.4j) * np.eye(n)
                rng = np.random.default_rng(nonderog_module._DEFAULT_SEED)
                seeded, report = sb.classify(a, rng=rng), sb.classify(a)
                assert (report.verdict, report.borderline) == (seeded.verdict, seeded.borderline)
                assert report.per_criterion == seeded.per_criterion
                expected = seeded.minimal_polynomial.coeffs.tobytes()
                assert report.minimal_polynomial.coeffs.tobytes() == expected

    def test_cached_probes_are_read_only_and_unchanged(self):
        n = 6
        rng = np.random.default_rng(nonderog_module._DEFAULT_SEED)
        drawn = [
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for _ in range(nonderog_module.CYCLIC_TRIALS)
        ]
        probes = nonderog_module._default_probes(n)
        assert probes is nonderog_module._default_probes(n)
        assert not probes.flags.writeable
        with pytest.raises(ValueError):
            probes[0, 0] = 0.0
        for structure in STRUCTURES:
            sb.classify(structured_matrix(structure, n, 11))
        assert probes is nonderog_module._default_probes(n)
        assert probes.tobytes() == np.array(drawn).tobytes()


class TestPowerMatrix:
    """The power matrix written in place is the column stack of the powers
    I, M, ..., M^(n-1) raveled in column-major order, byte for byte."""

    @staticmethod
    def column_stack_powers(M):
        powers = [np.eye(len(M), dtype=complex)]
        for _ in range(1, len(M)):
            powers.append(powers[-1] @ M)
        return np.column_stack([p.ravel(order="F") for p in powers])

    def record(self, monkeypatch, a):
        seen = {}
        unit_columns, lstsq = nonderog_module._unit_columns, np.linalg.lstsq

        def recording_unit_columns(w):
            seen["w"] = w.copy()
            return unit_columns(w)

        def recording_lstsq(x, y, *args, **kwargs):
            seen["lstsq"] = (x.copy(), y.copy())
            return lstsq(x, y, *args, **kwargs)

        monkeypatch.setattr(nonderog_module, "_unit_columns", recording_unit_columns)
        monkeypatch.setattr(np.linalg, "lstsq", recording_lstsq)
        coeffs = sb.minimal_polynomial(a).coeffs
        _, _, M = matcore_module._centered(np.asarray(a, dtype=complex), sb.DEFAULT_TOL)
        return seen, self.column_stack_powers(M), coeffs

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_full_degree(self, monkeypatch, n):
        seen, w, coeffs = self.record(monkeypatch, random_gaussian(np.random.default_rng(n), n))
        assert len(coeffs) == n + 1
        assert seen["w"].flags.c_contiguous == w.flags.c_contiguous
        assert seen["w"].tobytes() == w.tobytes()
        assert "lstsq" not in seen

    def test_deficient_degree(self, monkeypatch):
        seen, w, coeffs = self.record(monkeypatch, structured_matrix("jordan_split", 8, 7))
        d = len(coeffs) - 1
        assert d == 4
        assert seen["w"].tobytes() == w.tobytes()
        x, y = seen["lstsq"]
        assert x.tobytes() == w[:, :d].tobytes()
        assert y.tobytes() == (-w[:, d]).tobytes()


class TestPowerStackFactor:
    """The R factor of ``_power_stack`` is numpy's mode="r" factor, byte for
    byte and in the same memory order, at full and at deficient degree."""

    def test_equals_numpy_mode_r(self):
        degrees = set()
        for n in range(1, 17):
            for structure in ("gaussian", "jordan_split", "repeated", "scalar"):
                a = structured_matrix(structure, n, 50 + n)
                _, _, M = matcore_module._centered(a, sb.DEFAULT_TOL)
                w, r = nonderog_module._power_stack(M)
                ref = np.linalg.qr(nonderog_module._unit_columns(w), mode="r")
                assert r.dtype == ref.dtype and r.shape == ref.shape
                assert r.flags.c_contiguous == ref.flags.c_contiguous
                assert r.strides == ref.strides
                assert r.tobytes() == ref.tobytes()
                degrees.add(len(sb.minimal_polynomial(a).coeffs) - 1 == n)
        assert degrees == {True, False}

    def test_cached_mask_is_read_only(self):
        mask = nonderog_module._strictly_lower(5)
        assert mask is nonderog_module._strictly_lower(5)
        assert not mask.flags.writeable
        assert (mask == np.tri(5, k=-1, dtype=bool)).all()


class TestNamedScaleRegressions:
    @pytest.mark.parametrize("scale", [1e-6, 1e-8])
    def test_small_repeated_diagonal(self, scale):
        report = sb.classify(np.diag([0.3, 0.3, 0.5]) * scale)
        assert not report.verdict
        assert not any(c.passed for c in report.per_criterion.values())

    def test_close_pair_gets_a_verdict(self):
        assert isinstance(sb.classify(np.diag([0.3, 0.3 + 1e-9])).verdict, bool)

    @pytest.mark.parametrize("scale", [1e-15, 1e-20, 1e-25])
    def test_small_gaussian_keeps_full_degree(self, scale):
        a = np.random.default_rng(3).standard_normal((16, 16)) * scale
        assert sb.minimal_polynomial(a).degree == 16

    def test_tiny_gaussian_keeps_full_degree(self):
        a = np.random.default_rng(0).standard_normal((3, 3)) * 1e-100
        assert sb.minimal_polynomial(a).degree == 3

    def test_huge_scalar_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = sb.classify(1e30 * np.eye(16))
        assert not report.verdict
        assert report.minimal_polynomial.degree == 1


class TestResiduals:
    """||p(A)||_F is taken on A scaled by a power of two: where nothing
    overflows nor turns subnormal it is the direct evaluation's, bit for bit."""

    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_equal_to_the_direct_evaluation(self, structure):
        for n in (1, 2, 3, 5, 8):
            for k in (-3, 0, 3, 30):
                a = structured_matrix(structure, n, n) * 10.0**k
                report = sb.classify(a)
                direct = matcore_module._frobenius(report.minimal_polynomial.on_matrix(a))
                assert report.residuals(a)["minimal_polynomial_norm"] == direct
