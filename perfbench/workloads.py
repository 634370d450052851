"""Seeded report streams for the four benchmark workloads, with output checks.

A report is what a user asks the package for: one classifier verdict, one
certificate, one curve, one CLI document.  Report ``i`` of a workload is a
pure function of ``(seed, workload, i)``; its inputs are made with numpy
alone, so a change to the library never changes what the library is given.

Library calls go only through the top-level ``spectralball`` namespace; the
CLI is driven only through its argv.

Each report kind has a ``compute`` part (the timed library work a user waits
for) and a ``check`` part (untimed) that verifies the output and returns a
summary of verdicts and values used to compare traced and untraced passes.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field

import numpy as np

import spectralball as sb

WORKLOADS = ("classify-survey", "certify", "curves", "cli-docs")

#: Curve sampling used by the CLI defaults.
CURVE_SAMPLES = 100
CURVE_RADIUS = 10.0


class CheckFailed(Exception):
    """A report's output is wrong although the library reported success."""


class ReportedFailure(Exception):
    """The library itself reported that it could not produce the output."""

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind


def _require(condition, what):
    if not condition:
        raise CheckFailed(what)


@dataclass
class Report:
    kind: str
    n: int
    arrays: dict
    params: dict = field(default_factory=dict)

    def digest(self) -> str:
        h = hashlib.sha256(f"{self.kind}|{self.n}|{sorted(self.params.items())}".encode())
        for key in sorted(self.arrays):
            h.update(key.encode())
            h.update(np.ascontiguousarray(self.arrays[key]).tobytes())
        return h.hexdigest()


# ----------------------------------------------------------------------
# input generators (numpy only)

def _gauss(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


def _radius(m):
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def _ball(rng, n, radius):
    g = _gauss(rng, n)
    return g * (radius / _radius(g))


def _unitary(rng, n, scale=None):
    """Haar-like unitary (QR) or exp(K) with skew-Hermitian K of norm *scale*."""
    g = _gauss(rng, n)
    if scale is None:
        q, r = np.linalg.qr(g)
        return q * (np.diag(r) / np.abs(np.diag(r)))
    h = (g + g.conj().T) / 2.0
    h *= scale / np.linalg.norm(h)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def _disk_point(rng, radius):
    return radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())


def _jordan(lam, k):
    return lam * np.eye(k, dtype=complex) + np.diag(np.ones(k - 1), 1)


def _pick(rng, options, weights):
    w = np.asarray(weights, dtype=float)
    return options[int(rng.choice(len(options), p=w / w.sum()))]


# The weights of every mix below are a coverage design, not measured usage;
# README.md (Mixes) gives the reason for each.
SURVEY_SIZES = ((2, 3, 4, 5, 8, 12, 16), (24, 20, 18, 14, 14, 7, 3))
SURVEY_STRUCTURES = (
    ("gaussian", "jordan", "jordan_split", "repeated", "scalar", "clustered"),
    (55, 10, 9, 9, 5, 12),
)


def _survey_report(plan, rng):
    """Classifier input with known truth, possibly scaled and shifted."""
    structure = _pick(plan, *SURVEY_STRUCTURES)
    if structure == "gaussian":
        n = _pick(plan, *SURVEY_SIZES)
        a, truth = _gauss(rng, n), True
    else:
        n = _pick(plan, (2, 3, 4, 5, 8), (25, 25, 20, 15, 15))
        lam = _disk_point(rng, 0.9)
        if structure == "jordan":
            a, truth = _jordan(lam, n), True
        elif structure == "jordan_split":
            k = int(plan.integers(1, n))
            a = np.zeros((n, n), dtype=complex)
            a[:k, :k] = _jordan(lam, k)
            a[k:, k:] = _jordan(lam, n - k)
            truth = False
        elif structure == "repeated":
            d = np.array([_disk_point(rng, 0.9) for _ in range(n)])
            d[1] = d[0]
            a, truth = np.diag(d), False
        elif structure == "scalar":
            a, truth = lam * np.eye(n, dtype=complex), False
        else:  # clustered: distinct eigenvalues in pairs 1e-4 .. 1e-2 apart
            d = np.array([_disk_point(rng, 0.9) for _ in range(n)])
            for j in range(1, n, 2):
                d[j] = d[j - 1] + 10.0 ** rng.uniform(-4, -2) * np.exp(
                    2j * np.pi * rng.uniform()
                )
            a, truth = np.diag(d), True
        u = _unitary(rng, n)
        a = u @ a @ u.conj().T
    params = {"structure": structure, "truth": truth, "scale_exp": 0, "shifted": False}
    if plan.uniform() < 0.25:
        k = int(plan.choice([-4, -3, -2, -1, 1, 2, 3, 4]))
        a = a * 10.0**k
        params["scale_exp"] = k
    if plan.uniform() < 0.25:
        a = a + (10.0 ** params["scale_exp"]) * _disk_point(rng, 2.0) * np.eye(n)
        params["shifted"] = True
    return Report("classify", n, {"a": a}, params)


ANCHORS = (
    (np.diag([0.8, 0.0]).astype(complex), 2.0 / 3.0),
    (np.diag([0.5, 0.5]).astype(complex), 0.5),
)

CERTIFY_SIZES = ((2, 3, 4, 6, 8), (28, 24, 20, 16, 12))


def _certify_radius(plan, rng):
    """Spectral radius spread over [0.3, 0.95] with a tail up to 0.999."""
    if plan.uniform() < 0.15:
        return 1.0 - 10.0 ** rng.uniform(-3.0, -1.3)
    return rng.uniform(0.3, 0.95)


def _certify_report(plan, rng, index):
    if index % 50 == 0:
        matrix, value = ANCHORS[(index // 50) % 2]
        return Report("discontinuity", 2, {"b": matrix}, {"anchor": value})
    kind = _pick(plan, ("discontinuity", "bounds", "hull"), (40, 40, 20))
    if kind == "hull":
        n = _pick(plan, (2, 3, 4), (40, 35, 25))
        return Report("hull", n, {"a": _ball(rng, n, _certify_radius(plan, rng))})
    n = _pick(plan, *CERTIFY_SIZES)
    if kind == "bounds":
        a = _ball(rng, n, rng.uniform(0.3, 0.9))
        b = _ball(rng, n, rng.uniform(0.3, 0.9))
        return Report("bounds", n, {"a": a, "b": b})
    if plan.uniform() < 0.1:
        # one-point spectrum: no gap, the degenerate interpolant path
        lam = _disk_point(rng, 0.9)
        u = _unitary(rng, n)
        b = u @ (lam * np.eye(n) + np.triu(_gauss(rng, n), 1)) @ u.conj().T
    else:
        b = _ball(rng, n, _certify_radius(plan, rng))
    return Report("discontinuity", n, {"b": b})


def _curves_report(plan, rng):
    kind = _pick(plan, ("iso", "zero_metric", "quadratic"), (45, 40, 15))
    if kind == "iso":
        n = _pick(plan, (2, 3, 4, 6, 8), (25, 25, 20, 16, 14))
        a = _ball(rng, n, rng.uniform(0.3, 0.9))
        u = _unitary(rng, n, scale=rng.uniform(0.05, 0.3))
        return Report("iso", n, {"a": a, "b": u @ a @ u.conj().T})
    n = 2 if kind == "quadratic" else _pick(plan, tuple(range(2, 11)), (22, 20, 16, 12, 10, 8, 5, 4, 3))
    a = _ball(rng, n, rng.uniform(0.3, 0.8))
    y = 0.2 * _gauss(rng, n)
    return Report(kind, n, {"a": a, "b": a @ y - y @ a})


CLI_COMMANDS = ("classify", "sigma", "bounds", "blaschke", "curve", "hull", "discontinuity", "sample")


def _cli_report(plan, rng, slot):
    cmd = CLI_COMMANDS[slot % len(CLI_COMMANDS)]
    n = _pick(plan, (2, 3, 4), (40, 35, 25))
    r = rng.uniform(0.3, 0.9)
    if cmd == "classify":
        return Report("cli", n, {"a": _gauss(rng, n)}, {"cmd": cmd})
    if cmd == "bounds":
        arrays = {"a": _ball(rng, n, r), "b": _ball(rng, n, rng.uniform(0.3, 0.9))}
        return Report("cli", n, arrays, {"cmd": cmd})
    if cmd == "curve":
        curve_kind = _pick(plan, ("iso", "zero-metric", "quadratic"), (45, 40, 15))
        if curve_kind == "quadratic":
            n = 2
        a = _ball(rng, n, r)
        if curve_kind == "iso":
            u = _unitary(rng, n, scale=rng.uniform(0.05, 0.3))
            b = u @ a @ u.conj().T
        else:
            y = 0.2 * _gauss(rng, n)
            b = a @ y - y @ a
        return Report("cli", n, {"a": a, "b": b}, {"cmd": cmd, "kind": curve_kind})
    if cmd == "sample":
        return Report("cli", n, {}, {"cmd": cmd, "count": int(plan.integers(3, 9)),
                                     "seed": int(rng.integers(0, 2**31))})
    return Report("cli", n, {"a": _ball(rng, n, r)}, {"cmd": cmd})


_WORKLOAD_IDS = {name: i for i, name in enumerate(WORKLOADS)}

#: Reports per cycle.  The discrete choices of a report (kind, size,
#: structure, variant) depend only on its slot in the cycle, and every cycle
#: holds each slot once in a seed-dependent order; so every run sees the
#: same mix, while the seed changes the matrices and the order.  A cycle of
#: CLI documents holds every command twice.
CYCLE = {"classify-survey": 200, "certify": 200, "curves": 100, "cli-docs": 16}


def report_at(workload: str, seed: int, index: int) -> Report:
    """Report *index* of *workload*'s stream for *seed* (deterministic)."""
    wid = _WORKLOAD_IDS[workload]
    cycle, pos = divmod(index, CYCLE[workload])
    slot = np.random.default_rng([seed, wid, cycle]).permutation(CYCLE[workload])[pos]
    plan = np.random.default_rng([wid, int(slot)])
    rng = np.random.default_rng([seed, wid, index])
    if workload == "classify-survey":
        return _survey_report(plan, rng)
    if workload == "certify":
        return _certify_report(plan, rng, index)
    if workload == "curves":
        return _curves_report(plan, rng)
    return _cli_report(plan, rng, int(slot))


def stream_digest(workload: str, seed: int, count: int) -> str:
    h = hashlib.sha256()
    for i in range(count):
        h.update(report_at(workload, seed, i).digest().encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# in-process reports: compute (timed) and check (untimed)

def compute(report: Report):
    """The library work of one in-process report (the timed part)."""
    a = report.arrays.get("a")
    b = report.arrays.get("b")
    kind = report.kind
    if kind == "classify":
        return sb.classify(a), sb.minimal_polynomial(a)
    if kind == "discontinuity":
        cert = sb.gap_certificate(b)
        return cert, sb.lempert_scalar_base(0.0, b), sb.kobayashi_scalar_base(0.0, b)
    if kind == "bounds":
        value, perm = sb.bottleneck_minimax(sb.spectrum(a), sb.spectrum(b))
        s1 = min(value + 0.01, (value + 1.0) / 2.0)
        witness = sb.upper_bound_disc(a, b, s1)
        return value, perm, s1, witness, witness.endpoint_residuals()
    if kind == "hull":
        return sb.hull_witness(a)
    if kind == "iso":
        curve = sb.iso_spectral_curve(a, b)
    elif kind == "zero_metric":
        curve = sb.zero_metric_curve(a, b)
    else:
        curve = sb.quadratic_witness_2x2(a, b)
    constancy = sb.verify_constant_spectrum(
        curve, sb.spectrum(a), samples=CURVE_SAMPLES, radius=CURVE_RADIUS
    )
    return curve, constancy


def _mobius(z, w):
    return np.abs((z - w) / (1.0 - z * np.conj(w)))


def check(report: Report, result):
    """Verify a computed report; return a summary of its verdicts and values."""
    a = report.arrays.get("a")
    b = report.arrays.get("b")
    kind = report.kind
    if kind == "classify":
        verdict, poly = result
        _require(verdict.verdict == report.params["truth"], "classify: verdict differs from truth")
        _require(poly.degree <= report.n, "minimal polynomial: degree above n")
        if not verdict.borderline:
            _require((poly.degree == report.n) == verdict.verdict,
                     "minimal polynomial: degree contradicts the verdict")
        return (verdict.verdict, verdict.borderline, poly.degree)
    if kind == "discontinuity":
        cert, lempert, kobayashi = result
        lam = np.linalg.eigvals(b)
        radius = float(np.max(np.abs(lam)))
        _require(abs(cert.radius - radius) <= 1e-9 * (1.0 + radius), "gap: radius")
        _require(cert.upper <= cert.radius + 1e-12, "gap: upper exceeds radius")
        _require(cert.interpolation_residual <= 1e-6, "gap: interpolation residual")
        _require(abs(lempert - radius) <= 1e-9 and abs(kobayashi - radius) <= 1e-9,
                 "scalar-base distances differ from the spectral radius")
        if "anchor" in report.params:
            _require(abs(cert.upper - report.params["anchor"]) <= 1e-6, "gap: anchor value")
        if isinstance(cert.blaschke, sb.BlaschkeProduct):
            eps = np.exp(2j * np.pi * np.arange(report.n) / report.n)
            resid = float(np.max(np.abs(cert.blaschke(eps * cert.beta) - lam)))
            _require(resid <= 1e-6, "gap: recomputed interpolation residual")
        return (cert.upper, cert.radius, cert.is_gap, lempert, kobayashi)
    if kind == "bounds":
        value, perm, s1, witness, (r0, r1) = result
        la, lb = np.linalg.eigvals(a), np.linalg.eigvals(b)
        cost = _mobius(la[:, None], lb[None, :])
        attained = float(np.max(_mobius(la, lb[perm])))
        _require(abs(attained - value) <= 1e-12, "bottleneck: permutation does not attain value")
        _require(value >= float(np.max(np.min(cost, axis=1))) - 1e-9, "bottleneck: below row minima")
        _require(max(r0, r1) <= 1e-8, "disc: endpoint residual")
        _require(witness.certificate_grid.max_spectral_radius < 1.0, "disc: grid leaves the ball")
        return (value, tuple(int(p) for p in perm), s1, r0, r1,
                witness.certificate_grid.max_spectral_radius)
    if kind == "hull":
        t1, t2 = result.terms
        recon = float(np.linalg.norm(0.5 * t1 + 0.5 * t2 - a))
        _require(recon <= 1e-9 * (1.0 + np.linalg.norm(a)), "hull: reconstruction")
        radii = (_radius(t1), _radius(t2))
        _require(max(radii) < 1.0, "hull: term leaves the ball")
        return (recon, radii)
    curve, constancy = result
    _require(np.linalg.norm(curve(0.0) - a) <= 1e-8, "curve: value at 0")
    if kind == "iso":
        _require(np.linalg.norm(curve(1.0) - b) <= 1e-8, "curve: value at 1")
    else:
        h = 1e-5
        deriv = (curve(h) - curve(-h)) / (2.0 * h)
        _require(np.linalg.norm(deriv - b) <= 1e-6 * (1.0 + np.linalg.norm(b)),
                 "curve: derivative at 0")
    if not constancy.passed:
        raise ReportedFailure(
            "SpectrumNotConstant", f"max deviation {constancy.max_deviation:.3e}"
        )
    return (curve.kind, constancy.max_deviation, complex(constancy.worst_point))


# ----------------------------------------------------------------------
# CLI documents

def _matrix_doc(m) -> dict:
    n = m.shape[0]
    return {"n": n, "rows": [[[float(m[i, j].real), float(m[i, j].imag)]
                              for j in range(n)] for i in range(n)]}


def cli_argv(report: Report, workdir: str, tag: str) -> list:
    """Write the report's matrix documents and return the CLI argv."""
    p = report.params
    argv = [p["cmd"]]
    for key, flag in (("a", "--input"), ("b", "--input2")):
        if key in report.arrays:
            path = os.path.join(workdir, f"{tag}-{key}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(_matrix_doc(report.arrays[key]), fh)
            argv += [flag, path]
    if p["cmd"] == "curve":
        argv += ["--kind", p["kind"]]
    if p["cmd"] == "sample":
        argv += ["--n", str(report.n), "--samples", str(p["count"]), "--seed", str(p["seed"])]
    return argv


def cli_process(argv: list, src: str, workdir: str) -> tuple:
    """Run one ``python -m spectralball.cli`` process.

    Returns (exit code, stdout, stderr, peak RSS in KiB of that process
    alone).  The child is reaped with ``os.wait4`` so its resource usage is
    its own, not the maximum over every child this process has waited for.
    """
    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.TemporaryFile("w+", dir=workdir) as out, \
            tempfile.TemporaryFile("w+", dir=workdir) as err:
        proc = subprocess.Popen([sys.executable, "-m", "spectralball.cli", *argv],
                                stdout=out, stderr=err, env=env)
        timer = threading.Timer(60.0, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), usage.ru_maxrss


def check_cli(report: Report, code: int, out: str, err: str):
    """Verify one CLI document; return a summary of its verdicts and values."""
    cmd = report.params["cmd"]
    if code != 0:
        try:
            kind = json.loads(err)["kind"]
        except (ValueError, KeyError, TypeError):
            kind = f"Exit{code}"
        raise ReportedFailure(kind, f"cli {cmd}: exit code {code}: {err.strip()[-200:]}")
    doc = json.loads(out)
    _require(doc.get("command") == cmd, f"cli {cmd}: wrong command field")
    o, r = doc["outputs"], doc["residuals"]
    if cmd == "classify":
        _require(o["nonderogatory"] is True, "cli classify: Gaussian reported derogatory")
        _require(r["minimal_polynomial_norm"] <= 1e-6 * (1.0 + np.linalg.norm(report.arrays["a"])) ** report.n,
                 "cli classify: minimal polynomial residual")
        key = (o["nonderogatory"], len(o["minimal_polynomial"]))
    elif cmd == "sigma":
        _require(r["companion_roundtrip"] <= 1e-8, "cli sigma: companion roundtrip")
        _require(o["in_symmetrized_polydisc"] is True, "cli sigma: ball matrix outside polydisc")
        key = (o["spectral_radius"],)
    elif cmd == "bounds":
        _require(max(r["endpoint_base"], r["endpoint_target"]) <= 1e-8, "cli bounds: endpoints")
        _require(o["certificate_max_radius"] < 1.0, "cli bounds: grid leaves the ball")
        _require(o["pairing_bound"] < o["upper_bound"] < 1.0, "cli bounds: s1 bracket")
        key = (o["pairing_bound"], o["upper_bound"])
    elif cmd == "blaschke":
        _require(r["interpolation_max"] <= 1e-6, "cli blaschke: interpolation residual")
        _require(r.get("circle_unimodularity", 0.0) <= 1e-8, "cli blaschke: circle residual")
        key = (o["upper_bound"],)
    elif cmd == "curve":
        cs = o["constant_spectrum"]
        if not cs["passed"]:
            raise ReportedFailure("SpectrumNotConstant", f"max deviation {cs['max_deviation']:.3e}")
        _require(cs["samples"] == CURVE_SAMPLES, "cli curve: sample count")
        _require(r["endpoint_base"] <= 1e-8, "cli curve: value at 0")
        if report.params["kind"] == "iso":
            _require(r["endpoint_target"] <= 1e-8, "cli curve: value at 1")
        else:
            _require(r["derivative"] <= 1e-6 * (1.0 + np.linalg.norm(report.arrays["b"])),
                     "cli curve: derivative at 0")
        key = (o["curve_kind"], cs["max_deviation"])
    elif cmd == "hull":
        a = report.arrays["a"]
        _require(o["inside"] is True, "cli hull: ball matrix outside the hull")
        _require(r["reconstruction"] <= 1e-9 * (1.0 + np.linalg.norm(a)), "cli hull: reconstruction")
        _require(max(o["witness"]["term_radii"]) < 1.0, "cli hull: term leaves the ball")
        key = (o["gauge"], r["reconstruction"])
    elif cmd == "discontinuity":
        lem = o["lempert"]
        _require(lem["generic_limit_upper"] <= lem["value_at_scalar_base"] + 1e-12,
                 "cli discontinuity: limit above the base value")
        if "jump_kobayashi_recomputed" in r:
            _require(abs(o["jump_kobayashi"] - r["jump_kobayashi_recomputed"]) <= 1e-8,
                     "cli discontinuity: Kobayashi jump differs from its recomputation")
        key = (lem["generic_limit_upper"], o["jump_lempert"])
    else:
        _require(len(o["matrices"]) == report.params["count"], "cli sample: count")
        _require(r["max_radius"] < 1.0, "cli sample: sample outside the ball")
        key = (o["nonderogatory_fraction"], r["max_radius"])
    return (cmd,) + tuple(key)


def warmup_reports(workload: str) -> list:
    """One report of every kind the workload produces (fixed inputs)."""
    seen, out = set(), []
    for i in range(1, 400):
        rep = report_at(workload, 7, i)
        key = rep.params.get("cmd", rep.kind)
        if key not in seen:
            seen.add(key)
            out.append(rep)
    return out
