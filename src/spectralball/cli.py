"""Command-line front end.

Every subcommand reads matrices from JSON documents, runs one library
operation and emits one JSON object on stdout: inputs, outputs, and the
tolerances and recomputable residuals that the result types name and compute
themselves.  Every float is printed as its shortest round-trip repr, so the
output parses back bit-exactly.  Each handler imports the library module it
calls, so a process loads only the modules its command uses.

Exit codes: 0 success, 2 domain or precondition error, 3 numeric failure
(including a document that would hold a non-finite number).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import (
    DomainError,
    InvalidInputError,
    NumericError,
    PreconditionError,
    SpectralBallError,
    UnsupportedError,
)
from .matcore import (
    DEFAULT_TOL, PAIRING_TOL, SymPoint, as_matrix, companion, elementary_symmetric, sigma,
    spectrum,
)

USER_ERRORS = (InvalidInputError, DomainError, PreconditionError, UnsupportedError)

#: Library functions this module re-exports, resolved on first access (PEP 562).
_REEXPORTS = ("sample_omega", "discontinuity_report")


def __getattr__(name):
    if name in _REEXPORTS:
        return getattr(sys.modules[__package__], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
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
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in entry)
            ):
                raise InvalidInputError(f"row {i}, column {j}: expected a [re, im] pair")
            try:
                re, im = float(entry[0]), float(entry[1])
            except OverflowError:  # an integer beyond the float range
                re = im = np.inf
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


def _rng(seed):
    """numpy generator for a --seed value, which must be non-negative."""
    if seed < 0:
        raise InvalidInputError(f"--seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def _load_matrix(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, an undecodable byte and an over-long integer
        raise InvalidInputError(f"{path} is not valid JSON: {exc}") from exc
    return parse_matrix(doc)


# ----------------------------------------------------------------------
# subcommand handlers

def _cmd_classify(args):
    from . import nonderog

    a = _load_matrix(args.input)
    report = nonderog.classify(a, rng=_rng(args.seed))
    return {
        "command": "classify",
        "inputs": {"matrix": emit_matrix(a)},
        "tolerances": report.tolerances,
        "outputs": {
            "nonderogatory": report.verdict,
            "borderline": report.borderline,
            "criteria": {name: vars(crit) for name, crit in report.per_criterion.items()},
            "minimal_polynomial": _pairs(report.minimal_polynomial.coeffs),
        },
        "residuals": report.residuals(a),
    }


def _cmd_sigma(args):
    a = _load_matrix(args.input)
    sp = spectrum(a)
    point = SymPoint(elementary_symmetric(sp.values))
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
    from . import geometry

    a = _load_matrix(args.input)
    b = _load_matrix(args.input2)
    value, perm = geometry.bottleneck_minimax(spectrum(a), spectrum(b))
    s1 = args.s1 if args.s1 is not None else min(value + 0.01, (value + 1.0) / 2.0)
    witness = geometry.upper_bound_disc(a, b, s1)
    r0, r1 = witness.endpoint_residuals()
    out = {
        "command": "bounds",
        "inputs": {"matrix": emit_matrix(a), "matrix2": emit_matrix(b), "s1": float(s1)},
        "tolerances": witness.tolerances,
        "outputs": {
            "pairing_bound": value,
            "permutation": [int(p) for p in perm],
            "upper_bound": float(s1),
            "certificate_max_radius": witness.certificate_grid.max_spectral_radius,
        },
        "residuals": {"endpoint_base": r0, "endpoint_target": r1},
    }
    exact = witness.scalar_base_exact()
    if exact is not None:
        out["outputs"]["scalar_base_exact"] = exact
    return out


def _cmd_blaschke(args):
    from . import pick

    b = _load_matrix(args.input)
    cert = pick.gap_certificate(b)
    doc = {
        "command": "blaschke",
        "inputs": {"matrix": emit_matrix(b)},
        "tolerances": cert.tolerances,
        "outputs": {
            "beta": _pair(cert.beta),
            "upper_bound": cert.upper,
            "degenerate": cert.degenerate,
        },
        "residuals": cert.residuals(),
    }
    if not cert.degenerate:
        doc["outputs"]["blaschke"] = {
            "unimodular": _pair(cert.blaschke.unimodular),
            "zeros": _pairs(cert.blaschke.zeros),
            "order": cert.blaschke.order,
        }
    return doc


def _cmd_curve(args):
    from . import curves, geometry

    a = _load_matrix(args.input)
    b = _load_matrix(args.input2)
    # constructor of each curve kind and the tolerances only it decides with
    build, tolerances = {
        "iso": (curves.iso_spectral_curve, {"pairing": PAIRING_TOL}),
        "zero-metric": (curves.zero_metric_curve, {"structure": curves.STRUCTURE_TOL, "classify": DEFAULT_TOL}),
        "quadratic": (curves.quadratic_witness_2x2, {"structure": curves.STRUCTURE_TOL}),
    }[args.kind]
    curve = build(a, b)
    residuals = curve.residuals(a, b)
    # only for this kind: a scalar 2x2 base gives zero-metric the same curve
    if args.kind == "quadratic":
        residuals["max_nonconstant_coefficient"] = curve.max_nonconstant_variation()
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
        "tolerances": {"spectrum": check.tol, "endpoint": geometry.ENDPOINT_TOL, **tolerances},
        "outputs": {
            "curve_kind": curve.kind,
            "constant_spectrum": {
                "passed": check.passed,
                "max_deviation": check.max_deviation,
                "samples": check.samples,
                "settled": check.settled,
                "radius": check.radius,
            },
        },
        "residuals": residuals,
    }


def _cmd_hull(args):
    from . import geometry

    a = _load_matrix(args.input)
    h, inside = geometry.hull_membership(a)
    doc = {
        "command": "hull",
        "inputs": {"matrix": emit_matrix(a)},
        "tolerances": geometry.HullWitness.tolerances,
        "outputs": {"gauge": h, "inside": inside},
        "residuals": {},
    }
    if inside:
        witness = geometry.hull_witness(a)
        doc["outputs"]["witness"] = {
            "weights": [float(w) for w in witness.weights],
            "terms": [emit_matrix(t) for t in witness.terms],
            "similarity": emit_matrix(witness.similarity),
            # both terms have the one-point spectrum {tr A / n}
            "term_radii": [float(abs(np.trace(a) / a.shape[0]))] * 2,
        }
        doc["residuals"] = witness.residuals(a)
    return doc


def _cmd_discontinuity(args):
    from . import pick

    b = _load_matrix(args.input)
    t = complex(args.t[0], args.t[1])
    report = pick.discontinuity_report(b, t)
    recompute = (spectrum(b).radius - abs(np.trace(b)) / b.shape[0]) / (1.0 - abs(t) ** 2)
    return {
        "command": "discontinuity",
        "inputs": {"matrix": emit_matrix(b), "t": _pair(t)},
        "tolerances": {"eigenvalue_equality": pick.EQUAL_EIGENVALUES_TOL, **pick.GapCertificate.tolerances},
        "outputs": report,
        "residuals": {"jump_kobayashi_recomputed": float(max(recompute, 0.0))},
    }


def _cmd_sample(args):
    from . import geometry, nonderog

    mats = geometry.sample_omega(args.n, args.samples, _rng(args.seed))
    rng = _rng(args.seed + 1)
    verdicts = [nonderog.classify(m, rng=rng).verdict for m in mats]
    radii = [spectrum(m).radius for m in mats]
    return {
        "command": "sample",
        "inputs": {"n": args.n, "count": args.samples, "seed": args.seed},
        "tolerances": {"classify": DEFAULT_TOL},
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
        typed = {"--seed": (int, 0), "--samples": (int, 100), "--radius": (float, 10.0)}
        for flag in flags:
            p.add_argument(flag, type=typed[flag][0], default=typed[flag][1])

    p = sub.add_parser("classify", help="non-derogatory classification")
    common(p, "--seed")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("sigma", help="symmetrized coordinates")
    common(p)
    p.set_defaults(handler=_cmd_sigma)

    p = sub.add_parser("bounds", help="two-point distance bounds with disc witness")
    common(p, two_inputs=True)
    p.add_argument("--s1", type=float, default=None, help="witness radius")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("blaschke", help="boundary interpolation through the spectrum")
    common(p)
    p.set_defaults(handler=_cmd_blaschke)

    p = sub.add_parser("curve", help="constant-spectrum curve construction")
    common(p, "--samples", "--radius", two_inputs=True)
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
    common(p)
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
