"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints
a single PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

import spectralball as sb
from spectralball import discontinuity_report, sample_omega
from conftest import (
    brute_force_bottleneck,
    crafted_suite,
    random_ball_matrix,
    random_gaussian,
    random_unitary,
)


def _report(index, name, ok):
    print(f"ACCEPTANCE {index} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {index} ({name}) failed"


# ----------------------------------------------------------------------
# 1. classifier coherence


def test_criterion_1_classifier_coherence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    disagreements = 0
    total = 0
    for n in (2, 3, 4, 5):
        for _ in range(500):
            a = random_gaussian(rng, n)
            report = sb.classify(a, rng=rng)
            flags = [c.passed for c in report.per_criterion.values()]
            total += 1
            if len(set(flags)) != 1:
                disagreements += 1
            assert report.verdict  # random draws are non-derogatory
        for matrix, expected in crafted_suite(n):
            report = sb.classify(matrix, rng=rng)
            flags = [c.passed for c in report.per_criterion.values()]
            total += 1
            if len(set(flags)) != 1 or report.verdict != expected:
                disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 60.0
    print(f"  {total} matrices, {disagreements} disagreements, {elapsed:.1f} s")
    _report(1, "classifier coherence", ok)


# ----------------------------------------------------------------------
# 2. differential of the symmetrized coordinates vs finite differences


def test_criterion_2_sigma_differential_oracle():
    rng = np.random.default_rng(102)
    h = 1e-5
    worst = 0.0
    trace_exact = True
    for n in (2, 3, 4, 5):
        for _ in range(50):
            a = random_gaussian(rng, n)
            b = random_gaussian(rng, n)
            push = sb.sigma_pushforward(a, b)
            fd = (sb.sigma(a + h * b).coords - sb.sigma(a - h * b).coords) / (2 * h)
            worst = max(worst, float(np.max(np.abs(push - fd))))
            trace_exact = trace_exact and (push[0] == np.trace(b))
    print(f"  worst finite-difference deviation {worst:.3e}")
    _report(2, "symmetrized-differential oracle", worst <= 1e-7 and trace_exact)


# ----------------------------------------------------------------------
# 3. bottleneck matching vs brute force


def test_criterion_3_bottleneck_oracle():
    rng = np.random.default_rng(103)
    worst = 0.0
    for n in range(1, 8):
        for _ in range(200):
            a = 0.95 * np.sqrt(rng.uniform(size=n)) * np.exp(
                2j * np.pi * rng.uniform(size=n)
            )
            b = 0.95 * np.sqrt(rng.uniform(size=n)) * np.exp(
                2j * np.pi * rng.uniform(size=n)
            )
            cost = np.array([[sb.mobius(x, y) for y in b] for x in a])
            value, perm = sb.bottleneck_assignment(cost)
            brute, _ = brute_force_bottleneck(cost)
            worst = max(worst, abs(value - brute))
            assert cost[np.arange(n), perm].max() == value
    print(f"  worst deviation from enumeration {worst:.3e}")
    _report(3, "bottleneck matching oracle", worst <= 1e-12)


# ----------------------------------------------------------------------
# 4 + 5. gap certificates and witness quality


@pytest.fixture(scope="module")
def gap_results():
    rng = np.random.default_rng(104)
    certs = []
    for n in (2, 3):
        for _ in range(50):
            b = random_ball_matrix(rng, n, radius=rng.uniform(0.3, 0.85))
            certs.append((b, sb.gap_certificate(b), "distinct"))
        for _ in range(5):
            lam = rng.uniform(0.2, 0.8) * np.exp(2j * np.pi * rng.uniform())
            b = lam * np.eye(n, dtype=complex)
            b[0, n - 1] += rng.uniform(0.1, 0.5)
            certs.append((b, sb.gap_certificate(b), "equal"))
    return certs


def test_criterion_4_gap_certificates(gap_results):
    cert = sb.gap_certificate(np.diag([0.8, 0.0]))
    anchored = (
        abs(cert.upper - 2.0 / 3.0) <= 1e-6
        and cert.upper < cert.radius
        and cert.is_gap
    )

    cert_eq = sb.gap_certificate(np.diag([0.5, 0.5]))
    zs = 0.8 * np.exp(1j * np.linspace(0.0, 6.0, 13))
    u = cert_eq.blaschke(0.5) / 0.25
    square_form = (
        abs(abs(u) - 1.0) <= 1e-6
        and np.max(np.abs(cert_eq.blaschke(zs) - u * zs**2)) <= 1e-6
    )
    anchored_eq = abs(cert_eq.upper - 0.5) <= 1e-6 and square_form

    dichotomy = True
    for b, cert, kind in gap_results:
        if kind == "distinct":
            dichotomy = dichotomy and cert.is_gap
        else:
            lam = sb.spectrum(b).values[0]
            dichotomy = (
                dichotomy
                and (not cert.is_gap)
                and abs(cert.upper - abs(lam)) <= 1e-6
            )
    print(
        f"  upper(0.8,0) = {sb.gap_certificate(np.diag([0.8, 0.0])).upper:.9f}, "
        f"dichotomy over {len(gap_results)} cases"
    )
    _report(4, "gap certificates", anchored and anchored_eq and dichotomy)


def test_criterion_5_witness_quality(gap_results):
    ok = True
    grid = np.exp(2j * np.pi * np.arange(256) / 256)
    for b, cert, _ in gap_results:
        n = b.shape[0]
        if cert.degenerate:
            ok = ok and cert.upper == 0.0
            continue
        bp = cert.blaschke
        eps = np.exp(2j * np.pi * np.arange(n) / n)
        resid = np.max(np.abs(bp(eps * cert.beta) - sb.spectrum(b).values))
        ok = ok and resid <= 1e-6
        ok = ok and bp.order <= n
        ok = ok and np.max(np.abs(np.abs(bp(grid)) - 1.0)) <= 1e-8
    _report(5, "boundary interpolation witness quality", ok)


# ----------------------------------------------------------------------
# 6. constant-spectrum curves


def _curve_cases_iso(rng):
    cases = [
        (np.diag([0.3, 0.5]), np.array([[0.3, 7.0], [0.0, 0.5]])),
        (0.4 * np.eye(2), np.array([[0.4, 1.0], [0.0, 0.4]])),
    ]
    for n in (2, 3):
        for _ in range(5):
            a = random_ball_matrix(rng, n, radius=0.7)
            q = random_unitary(rng, n, scale=0.15)
            cases.append((a, q @ a @ q.conj().T))
    # triangular pairs sharing a diagonal
    for n in (2, 3):
        d = 0.5 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
        t0 = np.diag(d) + np.triu(random_gaussian(rng, n), 1)
        t1 = np.diag(d) + np.triu(random_gaussian(rng, n), 1)
        cases.append((t0, t1))
    return cases


def test_criterion_6_curves():
    rng = np.random.default_rng(106)
    ok = True

    for a, b in _curve_cases_iso(rng):
        c = sb.iso_spectral_curve(a, b)
        ok = ok and np.linalg.norm(c(0.0) - a) <= 1e-8
        ok = ok and np.linalg.norm(c(1.0) - b) <= 1e-8
        ok = ok and sb.verify_constant_spectrum(c, sb.spectrum(a)).passed

    h = 1e-5
    zero_cases = [
        (np.diag([0.1, 0.2]), np.array([[0.0, 1.0], [0.0, 0.0]])),
        (np.zeros((2, 2)), np.array([[0.0, 1.0], [0.0, 0.0]])),
    ]
    for n in (2, 3):
        for _ in range(5):
            a = random_ball_matrix(rng, n, radius=0.6)
            y0 = 0.2 * random_gaussian(rng, n)
            zero_cases.append((a, a @ y0 - y0 @ a))
    for a, b in zero_cases:
        c = sb.zero_metric_curve(a, b)
        deriv = (c(h) - c(-h)) / (2.0 * h)
        ok = ok and np.linalg.norm(c(0.0) - a) <= 1e-8
        ok = ok and np.linalg.norm(deriv - b) <= 1e-6
        ok = ok and sb.verify_constant_spectrum(c, sb.spectrum(a)).passed

    quad_cases = [
        (np.diag([0.1, 0.2]), np.array([[0.0, 1.0], [0.0, 0.0]])),
        (np.array([[0.1, 1.0], [0.0, 0.2]]), np.array([[1.0, 0.0], [0.1, -1.0]])),
        (np.diag([0.6, 0.2]), np.diag([0.6, 0.2]) @ np.array([[0.0, 1.0], [1.0, 0.0]])
         - np.array([[0.0, 1.0], [1.0, 0.0]]) @ np.diag([0.6, 0.2])),
    ]
    for _ in range(7):
        a = random_ball_matrix(rng, 2, radius=0.7)
        y0 = 0.3 * random_gaussian(rng, 2)
        quad_cases.append((a, a @ y0 - y0 @ a))
    for a, b in quad_cases:
        c = sb.quadratic_witness_2x2(a, b)
        trace, det = sb.spectrum_polynomials_2x2(c)
        coeff_worst = max(
            float(np.max(np.abs(trace[1:]))) if len(trace) > 1 else 0.0,
            float(np.max(np.abs(det[1:]))) if len(det) > 1 else 0.0,
        )
        deriv = (c(h) - c(-h)) / (2.0 * h)
        ok = ok and coeff_worst <= 1e-10
        ok = ok and np.linalg.norm(c(0.0) - a) <= 1e-8
        ok = ok and np.linalg.norm(deriv - b) <= 1e-6
        ok = ok and sb.verify_constant_spectrum(c, sb.spectrum(a)).passed

    _report(6, "constant-spectrum curves", ok)


# ----------------------------------------------------------------------
# 7. disc witnesses at the pairing bound


def test_criterion_7_disc_sandwich():
    rng = np.random.default_rng(107)
    ok = True
    built = 0
    while built < 100:
        n = int(rng.integers(2, 5))
        a = random_ball_matrix(rng, n, radius=rng.uniform(0.3, 0.85))
        b = random_ball_matrix(rng, n, radius=rng.uniform(0.3, 0.85))
        bound, _ = sb.bottleneck_minimax(sb.spectrum(a), sb.spectrum(b))
        s1 = bound + 0.01
        if s1 >= 0.999:
            continue
        witness = sb.upper_bound_disc(a, b, s1)
        r0, r1 = witness.endpoint_residuals()
        ok = ok and max(r0, r1) <= 1e-8
        ok = ok and witness.certificate_grid.max_spectral_radius < 1.0
        built += 1

    # scalar base: the pairing bound coincides with the exact distance
    for _ in range(20):
        n = int(rng.integers(2, 5))
        t = 0.5 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        a = t * np.eye(n)
        b = random_ball_matrix(rng, n, radius=rng.uniform(0.3, 0.8))
        exact = sb.lempert_scalar_base(t, b)
        bound, _ = sb.bottleneck_minimax(sb.spectrum(a), sb.spectrum(b))
        s1 = bound + 0.01
        if s1 >= 0.999:
            continue
        witness = sb.upper_bound_disc(a, b, s1)
        r0, r1 = witness.endpoint_residuals()
        ok = ok and max(r0, r1) <= 1e-8
        ok = ok and witness.certificate_grid.max_spectral_radius < 1.0
        ok = ok and (s1 - exact) <= 0.011
    _report(7, "disc witnesses at the pairing bound", ok)


# ----------------------------------------------------------------------
# 8. convex hull


def test_criterion_8_hull():
    rng = np.random.default_rng(108)
    ok = True
    for _ in range(100):
        a = random_gaussian(rng, 2)
        if abs(np.trace(a)) >= 1.8:
            a = a * (1.6 / abs(np.trace(a)))
        w = sb.hull_witness(a)
        t1, t2 = w.terms
        recon = np.linalg.norm(0.5 * t1 + 0.5 * t2 - a)
        ok = ok and recon <= 1e-9 * (1.0 + np.linalg.norm(a))
        ok = ok and sb.spectrum(t1).radius < 1.0
        ok = ok and sb.spectrum(t2).radius < 1.0

    for _ in range(100):
        n = int(rng.integers(2, 5))
        a1 = random_ball_matrix(rng, n, radius=0.85)
        a2 = random_ball_matrix(rng, n, radius=0.85)
        wgt = rng.uniform()
        _, inside = sb.hull_membership(wgt * a1 + (1.0 - wgt) * a2)
        ok = ok and inside

    for _ in range(50):
        a = random_gaussian(rng, 3)
        h, _ = sb.hull_membership(a)
        c = rng.uniform(0.0, 5.0)
        hc, _ = sb.hull_membership(c * a)
        ok = ok and abs(hc - c * h) <= 1e-12 * (1.0 + c * h)

    for n in range(1, 13):
        for _ in range(10):
            a = random_gaussian(rng, n)
            if abs(np.trace(a)) >= 0.9 * n:
                a = a * (0.8 * n / abs(np.trace(a)))
            t1, t2 = sb.hull_witness(a).terms
            recon = np.linalg.norm(0.5 * t1 + 0.5 * t2 - a)
            ok = ok and recon <= 1e-9 * (1.0 + np.linalg.norm(a))
            ok = ok and max(sb.spectrum(t1).radius, sb.spectrum(t2).radius) < 1.0
    _report(8, "convex hull certificates", ok)


# ----------------------------------------------------------------------
# 9. discontinuity report


def test_criterion_9_discontinuity_report():
    rep = discontinuity_report(np.diag([0.8, 0.0]))
    anchored = (
        rep["lempert"]["value_at_scalar_base"] == pytest.approx(0.8)
        and abs(rep["lempert"]["generic_limit_upper"] - 2.0 / 3.0) <= 1e-6
        and rep["kobayashi"]["value_at_scalar_base"] == pytest.approx(0.8)
        and rep["kobayashi"]["generic_limit"] == pytest.approx(0.4)
        and rep["jump_lempert"] > 0.0
        and rep["jump_kobayashi"] > 0.0
        and not rep["eigenvalues_equal"]
    )

    rng = np.random.default_rng(109)
    sweep_ok = True
    for k in range(50):
        n = 2 + (k % 2)
        lam = 0.7 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        b = lam * np.eye(n, dtype=complex)
        if k % 2:
            b = b + np.triu(0.3 * random_gaussian(rng, n), 1)
        rep = discontinuity_report(b)
        sweep_ok = (
            sweep_ok
            and rep["eigenvalues_equal"]
            and rep["jump_lempert"] == 0.0
            and rep["jump_kobayashi"] == 0.0
        )
    _report(9, "discontinuity report", anchored and sweep_ok)
