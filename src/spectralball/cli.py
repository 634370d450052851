"""Command-line front end.

Every subcommand reads matrices from JSON documents, runs one library
operation and emits a single machine-readable JSON object on stdout holding
inputs, outputs, tolerances and recomputable verification residuals.  Every
float is printed as its shortest round-trip repr, so the output parses back
bit-exactly.

Exit codes: 0 success, 2 domain or precondition error, 3 numeric failure
(including a document that would hold a non-finite number).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import curves, geometry, nonderog, pick
from .errors import (
    DomainError,
    InvalidInputError,
    NumericError,
    PreconditionError,
    SpectralBallError,
    UnsupportedError,
)
from .geometry import sample_omega
from .matcore import DEFAULT_TOL, as_matrix, companion, sigma, spectrum
from .pick import discontinuity_report

USER_ERRORS = (InvalidInputError, DomainError, PreconditionError, UnsupportedError)


# ----------------------------------------------------------------------
# matrix documents

def parse_matrix(document) -> np.ndarray:
    """Matrix from a document {"n": int, "rows": [[[re, im], ...], ...]}.

    Lossless inverse of emit_matrix; raises InvalidInputError with the
    offending location for malformed input.
    """
    if not isinstance(document, dict):
        raise InvalidInputError("matrix document must be an object")
    if "n" not in document or "rows" not in document:
        raise InvalidInputError("matrix document needs fields 'n' and 'rows'")
    n = document["n"]
    rows = document["rows"]
    if not isinstance(n, int) or n < 1:
        raise InvalidInputError("field 'n' must be a positive integer")
    if not isinstance(rows, list) or len(rows) != n:
        raise InvalidInputError(f"expected {n} rows, got {len(rows) if isinstance(rows, list) else type(rows).__name__}")
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise InvalidInputError(f"row {i}: expected {n} entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(v, (int, float)) for v in entry)
            ):
                raise InvalidInputError(f"row {i}, column {j}: expected a [re, im] pair")
            re, im = float(entry[0]), float(entry[1])
            if not (np.isfinite(re) and np.isfinite(im)):
                raise InvalidInputError(f"row {i}, column {j}: entries must be finite")
            out[i, j] = complex(re, im)
    return out


def emit_matrix(a) -> dict:
    """Document representation of a matrix; parse_matrix inverts it bitwise."""
    m = as_matrix(a)
    n = m.shape[0]
    rows = [[[float(m[i, j].real), float(m[i, j].imag)] for j in range(n)] for i in range(n)]
    return {"n": n, "rows": rows}


def _pair(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _pairs(values) -> list:
    return [_pair(z) for z in np.atleast_1d(values)]


# ----------------------------------------------------------------------
# JSON writer

def _to_json(doc) -> str:
    """JSON text of a document.

    Python prints every float as the shortest repr that round-trips.  JSON
    has no non-finite numbers, so a NaN or infinity raises NumericError.
    """
    try:
        return json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"document holds a non-finite number: {exc}") from exc


def _load_matrix(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path} is not valid JSON: {exc}") from exc
    return parse_matrix(doc)


# ----------------------------------------------------------------------
# subcommand handlers

def _cmd_classify(args):
    a = _load_matrix(args.input)
    report = nonderog.classify(a, tol=args.tol, rng=np.random.default_rng(args.seed))
    per = {
        name: {
            "passed": crit.passed,
            "diagnostic": crit.diagnostic,
            "borderline": crit.borderline,
        }
        for name, crit in report.per_criterion.items()
    }
    poly = nonderog.minimal_polynomial(a, tol=args.tol)
    return {
        "command": "classify",
        "inputs": {"matrix": emit_matrix(a)},
        "tolerances": report.tolerances,
        "outputs": {
            "nonderogatory": report.verdict,
            "borderline": report.borderline,
            "criteria": per,
            "minimal_polynomial": _pairs(poly.coeffs),
        },
        "residuals": {
            "minimal_polynomial_norm": float(np.linalg.norm(poly.on_matrix(a)))
        },
    }


def _cmd_sigma(args):
    a = _load_matrix(args.input)
    point = sigma(a)
    sp = spectrum(a)
    roundtrip = float(np.max(np.abs(sigma(companion(point)).coords - point.coords)))
    return {
        "command": "sigma",
        "inputs": {"matrix": emit_matrix(a)},
        "tolerances": {"residual": DEFAULT_TOL},
        "outputs": {
            "coords": _pairs(point.coords),
            "in_symmetrized_polydisc": point.in_symmetrized_polydisc(),
            "spectrum": _pairs(sp.values),
            "spectral_radius": sp.radius,
        },
        "residuals": {"companion_roundtrip": roundtrip},
    }


def _cmd_bounds(args):
    a = _load_matrix(args.input)
    b = _load_matrix(args.input2)
    sp_a = spectrum(a)
    sp_b = spectrum(b)
    value, perm = geometry.bottleneck_minimax(sp_a, sp_b)
    s1 = args.s1 if args.s1 is not None else min(value + 0.01, (value + 1.0) / 2.0)
    witness = geometry.upper_bound_disc(a, b, s1)
    r0, r1 = witness.endpoint_residuals()
    out = {
        "command": "bounds",
        "inputs": {"matrix": emit_matrix(a), "matrix2": emit_matrix(b), "s1": float(s1)},
        "tolerances": {"endpoint": 1e-8},
        "outputs": {
            "pairing_bound": value,
            "permutation": [int(p) for p in perm],
            "upper_bound": float(s1),
            "certificate_max_radius": witness.certificate_grid.max_spectral_radius,
        },
        "residuals": {"endpoint_base": r0, "endpoint_target": r1},
    }
    n = a.shape[0]
    if np.linalg.norm(a - (np.trace(a) / n) * np.eye(n)) <= 1e-12 * (
        1.0 + np.linalg.norm(a)
    ):
        t = np.trace(a) / n
        out["outputs"]["scalar_base_exact"] = geometry.lempert_scalar_base(t, b)
    return out


def _cmd_blaschke(args):
    b = _load_matrix(args.input)
    sp = spectrum(b)
    if not sp.in_spectral_ball():
        raise DomainError("matrix lies outside the spectral ball")
    sol = pick.blaschke_through_roots_of_unity(sp.values, tol=args.tol)
    n = b.shape[0]
    doc = {
        "command": "blaschke",
        "inputs": {"matrix": emit_matrix(b)},
        "tolerances": {"interpolation": 1e-6, "circle": 1e-8},
        "outputs": {
            "beta": _pair(sol.beta),
            "upper_bound": float(abs(sol.beta) ** n),
            "degenerate": sol.degenerate,
        },
        "residuals": {"interpolation_max": sol.interpolation_residual},
    }
    if not sol.degenerate:
        grid = np.exp(2j * np.pi * np.arange(256) / 256)
        circle_dev = float(np.max(np.abs(np.abs(sol.blaschke(grid)) - 1.0)))
        doc["outputs"]["blaschke"] = {
            "unimodular": _pair(sol.blaschke.unimodular),
            "zeros": _pairs(sol.blaschke.zeros),
            "order": sol.blaschke.order,
        }
        doc["residuals"]["circle_unimodularity"] = circle_dev
    return doc


def _cmd_curve(args):
    a = _load_matrix(args.input)
    b = _load_matrix(args.input2)
    if args.kind == "iso":
        curve = curves.iso_spectral_curve(a, b)
        endpoint0 = float(np.linalg.norm(curve(0.0) - a))
        endpoint1 = float(np.linalg.norm(curve(1.0) - b))
        residuals = {"endpoint_base": endpoint0, "endpoint_target": endpoint1}
    else:
        if args.kind == "zero-metric":
            curve = curves.zero_metric_curve(a, b, tol=args.tol)
        else:
            curve = curves.quadratic_witness_2x2(a, b)
        residuals = {
            "endpoint_base": float(np.linalg.norm(curve(0.0) - a)),
            "derivative": float(np.linalg.norm(curve.derivative_at_zero() - b)),
        }
        if args.kind == "quadratic":
            residuals["max_nonconstant_coefficient"] = (
                curves._max_nonconstant_variation(curve)
            )
    check = curves.verify_constant_spectrum(
        curve, spectrum(a), samples=args.samples, radius=args.radius
    )
    return {
        "command": "curve",
        "inputs": {
            "matrix": emit_matrix(a),
            "matrix2": emit_matrix(b),
            "kind": args.kind,
        },
        "tolerances": {"spectrum": check.tol, "endpoint": 1e-8},
        "outputs": {
            "curve_kind": curve.kind,
            "constant_spectrum": {
                "passed": check.passed,
                "max_deviation": check.max_deviation,
                "samples": check.samples,
                "radius": check.radius,
            },
        },
        "residuals": residuals,
    }


def _cmd_hull(args):
    a = _load_matrix(args.input)
    h, inside = geometry.hull_membership(a)
    doc = {
        "command": "hull",
        "inputs": {"matrix": emit_matrix(a)},
        "tolerances": {"reconstruction": 1e-9},
        "outputs": {"gauge": h, "inside": inside},
        "residuals": {},
    }
    if inside:
        witness = geometry.hull_witness(a)
        t1, t2 = witness.terms
        recon = float(np.linalg.norm(0.5 * t1 + 0.5 * t2 - a))
        doc["outputs"]["witness"] = {
            "weights": [float(w) for w in witness.weights],
            "terms": [emit_matrix(t1), emit_matrix(t2)],
            "similarity": emit_matrix(witness.similarity),
            "term_radii": [spectrum(t1).radius, spectrum(t2).radius],
        }
        doc["residuals"]["reconstruction"] = recon
    return doc


def _cmd_discontinuity(args):
    b = _load_matrix(args.input)
    t = complex(args.t[0], args.t[1])
    report = discontinuity_report(b, t, tol=args.tol)
    doc = {
        "command": "discontinuity",
        "inputs": {"matrix": emit_matrix(b), "t": _pair(t)},
        "tolerances": {"eigenvalue_equality": 1e-9},
        "outputs": report,
    }
    if report["kobayashi"]["generic_limit"] is not None:
        recompute = spectrum(b).radius - abs(np.trace(b)) / b.shape[0]
        doc["residuals"] = {
            "jump_kobayashi_recomputed": float(max(recompute, 0.0))
        }
    else:
        doc["residuals"] = {}
    return doc


def _cmd_sample(args):
    mats = sample_omega(args.n, args.samples, args.seed)
    rng = np.random.default_rng(args.seed + 1)
    verdicts = [nonderog.classify(m, tol=args.tol, rng=rng).verdict for m in mats]
    radii = [spectrum(m).radius for m in mats]
    return {
        "command": "sample",
        "inputs": {"n": args.n, "count": args.samples, "seed": args.seed},
        "tolerances": {"classify": args.tol},
        "outputs": {
            "matrices": [emit_matrix(m) for m in mats],
            "radii": radii,
            "nonderogatory_fraction": float(np.mean(verdicts)),
        },
        "residuals": {"max_radius": float(max(radii))},
    }


# ----------------------------------------------------------------------
# parser / dispatch

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spectralball",
        description="Spectral-ball geometry toolkit: classification, "
        "distances, certificates and constant-spectrum curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *flags, two_inputs=False):
        """Matrix inputs plus only the listed flags, which the handler reads."""
        p.add_argument("--input", required=True, help="matrix document (JSON)")
        if two_inputs:
            p.add_argument("--input2", required=True, help="second matrix document")
        typed = {"--tol": (float, DEFAULT_TOL), "--seed": (int, 0),
                 "--samples": (int, 100), "--radius": (float, 10.0)}
        for flag in flags:
            p.add_argument(flag, type=typed[flag][0], default=typed[flag][1])

    p = sub.add_parser("classify", help="non-derogatory classification")
    common(p, "--tol", "--seed")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("sigma", help="symmetrized coordinates")
    common(p)
    p.set_defaults(handler=_cmd_sigma)

    p = sub.add_parser("bounds", help="two-point distance bounds with disc witness")
    common(p, two_inputs=True)
    p.add_argument("--s1", type=float, default=None, help="witness radius")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("blaschke", help="boundary interpolation through the spectrum")
    common(p, "--tol")
    p.set_defaults(handler=_cmd_blaschke)

    p = sub.add_parser("curve", help="constant-spectrum curve construction")
    common(p, "--tol", "--samples", "--radius", two_inputs=True)
    p.add_argument(
        "--kind",
        choices=("iso", "zero-metric", "quadratic"),
        default="iso",
    )
    p.set_defaults(handler=_cmd_curve)

    p = sub.add_parser("hull", help="convex hull membership and decomposition")
    common(p)
    p.set_defaults(handler=_cmd_hull)

    p = sub.add_parser("discontinuity", help="scalar-base discontinuity report")
    common(p, "--tol")
    p.add_argument(
        "--t",
        nargs=2,
        type=float,
        default=(0.0, 0.0),
        metavar=("RE", "IM"),
        help="scalar base point",
    )
    p.set_defaults(handler=_cmd_discontinuity)

    p = sub.add_parser("sample", help="random spectral-ball matrices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=10)
    p.set_defaults(handler=_cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text = _to_json(args.handler(args))
    except USER_ERRORS as exc:
        print(_to_json({"error": str(exc), "kind": type(exc).__name__}), file=sys.stderr)
        return 2
    except SpectralBallError as exc:
        print(_to_json({"error": str(exc), "kind": type(exc).__name__}), file=sys.stderr)
        return 3
    print(text)
    return 0


def run():  # console-script entry point
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
