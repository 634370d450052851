"""Shared helpers: random matrix generators and independent oracles."""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings

import spectralball as sb

# Property tests draw the same examples on every run and host.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, *names) wraps each module.name for the test and
    returns one list that records the shape of the first argument of every
    call to any of them."""

    def install(module, *names):
        calls = []
        for name in names:
            original = getattr(module, name)

            def counting(x, *args, _original=original, **kwargs):
                calls.append(np.shape(x))
                return _original(x, *args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        return calls

    return install


@pytest.fixture
def count_eigvals(count_calls):
    """List that records the argument shape of every eigensolve, a call of
    np.linalg.eigvals or np.linalg.eig."""
    return count_calls(np.linalg, "eigvals", "eig")


def disk_points(rng, count, radius=10.0):
    """Random points of the closed disk |z| <= radius, uniform in area."""
    return radius * np.sqrt(rng.uniform(size=count)) * np.exp(2j * np.pi * rng.uniform(size=count))


def principal_log(frame, frame_end):
    """scipy's principal logarithm of u* v, independent of the library's
    frame path; u* v must not have the eigenvalue -1, on whose branch the
    two need not agree."""
    return scipy.linalg.logm(frame.conj().T @ frame_end)


def exp_frame_reference(frame, log, lam, t):
    """u e T e^-1 u* with (e, e^-1) = expm_pair(lam L), L = log, and the
    scale ||e|| ||e^-1|| ||T|| of its rounding, for stacks of lam and T."""
    lam = np.asarray(lam, dtype=complex)[..., None, None]
    e, e_inv = sb.expm_pair(lam * log)
    value = frame @ (e @ t @ e_inv) @ frame.conj().T
    norms = [np.linalg.norm(m, axis=(-2, -1)) for m in (e, e_inv, t)]
    return value, norms[0] * norms[1] * norms[2]


def random_gaussian(rng, n):
    """Standard complex Gaussian matrix (unit entry variance)."""
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


def random_ball_matrix(rng, n, radius=0.8):
    """Random matrix rescaled to the given spectral radius."""
    a = random_gaussian(rng, n)
    r = sb.spectrum(a).radius
    return a * (radius / r)


def random_unitary(rng, n, scale=1.0):
    """Unitary exp(K) with K skew-Hermitian of roughly the given norm."""
    k = random_gaussian(rng, n)
    k = (k - k.conj().T) / 2.0
    k *= scale / max(np.linalg.norm(k), 1e-12)
    return sb.expm_pair(k)[0]


def brute_force_bottleneck(cost):
    """Minimax assignment by explicit enumeration of all permutations."""
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    perms = np.array(list(permutations(range(n))))
    vals = cost[np.arange(n)[None, :], perms].max(axis=1)
    best = int(np.argmin(vals))
    return float(vals[best]), perms[best]


def jordan_block(lam, k):
    m = lam * np.eye(k, dtype=complex)
    for i in range(k - 1):
        m[i, i + 1] = 1.0
    return m


def crafted_suite(n):
    """Structured matrices of dimension n with known classification.

    Returns a list of (matrix, expected_nonderogatory) pairs: scalars,
    single Jordan blocks, direct sums of equal- and distinct-eigenvalue
    blocks, and companion matrices.
    """
    cases = []
    lam = 0.3 + 0.1j
    cases.append((lam * np.eye(n, dtype=complex), n == 1))
    cases.append((jordan_block(lam, n), True))
    if n >= 2:
        # equal eigenvalues split over two blocks: derogatory
        k = n // 2
        m = np.zeros((n, n), dtype=complex)
        m[:k, :k] = jordan_block(lam, k)
        m[k:, k:] = jordan_block(lam, n - k)
        cases.append((m, False))
        # distinct eigenvalues per block: non-derogatory
        m2 = np.zeros((n, n), dtype=complex)
        m2[:k, :k] = jordan_block(0.2, k)
        m2[k:, k:] = jordan_block(-0.4 + 0.2j, n - k)
        cases.append((m2, True))
    rng = np.random.default_rng(n)
    coords = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    cases.append((sb.companion(coords), True))
    cases.append((np.diag(np.full(n, lam)), n == 1))
    return cases
