"""Command-line front end.

Every subcommand reads matrices from JSON documents, runs one library
operation and emits one JSON object on stdout: inputs, outputs, and the
tolerances and recomputable residuals that the result types name and compute
themselves.  Every float is printed as its shortest round-trip repr, so the
output parses back bit-exactly.  One table, ``_COMMANDS``, declares each
command: its help, its handler and the flags of ``_FLAGS`` that it reads.
Each handler imports the library module it calls, so a process loads only
the modules its command uses.

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
from .matcore import DEFAULT_TOL, PAIRING_TOL, as_matrix, companion, sigma, spectrum

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
# documents

def _document(args) -> dict:
    """One command's document: its name and inputs, then its handler's part.

    A handler takes the parsed arguments and the --input and --input2
    matrices, and returns its inputs beyond those matrices, if any, then its
    tolerances, outputs and residuals.
    """
    matrices = [_load_matrix(vars(args)[flag]) for flag in ("input", "input2") if flag in vars(args)]
    body = args.handler(args, *matrices)
    inputs = {key: emit_matrix(m) for key, m in zip(("matrix", "matrix2"), matrices)}
    return {"command": args.command, "inputs": {**inputs, **body.pop("inputs", {})}, **body}


def _classify(args, a):
    from . import nonderog

    report = nonderog.classify(a, rng=_rng(args.seed))
    return {
        "tolerances": report.tolerances,
        "outputs": {
            "nonderogatory": report.verdict,
            "borderline": report.borderline,
            "criteria": {name: vars(crit) for name, crit in report.per_criterion.items()},
            "minimal_polynomial": _pairs(report.minimal_polynomial.coeffs),
        },
        "residuals": report.residuals(a),
    }


def _sigma(args, a):
    sp = spectrum(a)
    point = sp.symmetrized()
    # coordinate j has degree j: its error is read relative to max(1, rho)^j
    error = np.abs(sigma(companion(point)).coords - point.coords)
    scale = (1.0 / max(1.0, sp.radius)) ** np.arange(1, point.n + 1)
    return {
        "tolerances": {"residual": DEFAULT_TOL},
        "outputs": {
            "coords": _pairs(point.coords),
            "in_symmetrized_polydisc": point.in_symmetrized_polydisc(),
            "spectrum": _pairs(sp.values),
            "spectral_radius": sp.radius,
        },
        "residuals": {"companion_roundtrip": float(np.max(error * scale))},
    }


def _bounds(args, a, b):
    from . import geometry

    value, perm = geometry.bottleneck_minimax(spectrum(a), spectrum(b))
    s1 = args.s1 if args.s1 is not None else min(value + 0.01, (value + 1.0) / 2.0)
    witness = geometry.upper_bound_disc(a, b, s1)
    r0, r1 = witness.endpoint_residuals()
    outputs = {
        "pairing_bound": value,
        "permutation": [int(p) for p in perm],
        "upper_bound": float(s1),
        "certificate_max_radius": witness.certificate_grid.max_spectral_radius,
    }
    exact = witness.scalar_base_exact()
    if exact is not None:
        outputs["scalar_base_exact"] = exact
    return {
        "inputs": {"s1": float(s1)},
        "tolerances": witness.tolerances,
        "outputs": outputs,
        "residuals": {"endpoint_base": r0, "endpoint_target": r1},
    }


def _blaschke(args, b):
    from . import pick

    cert = pick.gap_certificate(b)
    outputs = {"beta": _pair(cert.beta), "upper_bound": cert.upper, "degenerate": cert.degenerate}
    if not cert.degenerate:
        outputs["blaschke"] = {
            "unimodular": _pair(cert.blaschke.unimodular),
            "zeros": _pairs(cert.blaschke.zeros),
            "order": cert.blaschke.order,
        }
    return {"tolerances": cert.tolerances, "outputs": outputs, "residuals": cert.residuals()}


def _curve(args, a, b):
    from . import curves, geometry

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
        "inputs": {"kind": args.kind},
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


def _hull(args, a):
    from . import geometry

    h, inside = geometry.hull_membership(a)
    outputs, residuals = {"gauge": h, "inside": inside}, {}
    if inside:
        witness = geometry.hull_witness(a)
        outputs["witness"] = {
            "weights": [float(w) for w in witness.weights],
            "terms": [emit_matrix(t) for t in witness.terms],
            "similarity": emit_matrix(witness.similarity),
            # both terms have the one-point spectrum {tr A / n}
            "term_radii": [float(abs(np.trace(a) / a.shape[0]))] * 2,
        }
        residuals = witness.residuals()
    return {"tolerances": geometry.HullWitness.tolerances, "outputs": outputs, "residuals": residuals}


def _discontinuity(args, b):
    from . import pick

    t = complex(args.t[0], args.t[1])
    report = pick.discontinuity_report(b, t)
    recompute = (spectrum(b).radius - abs(np.trace(b)) / b.shape[0]) / (1.0 - abs(t) ** 2)
    return {
        "inputs": {"t": _pair(t)},
        "tolerances": {"eigenvalue_equality": pick.EQUAL_EIGENVALUES_TOL, **pick.GapCertificate.tolerances},
        "outputs": report,
        "residuals": {"jump_kobayashi_recomputed": float(max(recompute, 0.0))},
    }


def _sample(args):
    from . import geometry, nonderog

    mats = geometry.sample_omega(args.n, args.samples, _rng(args.seed))
    rng = _rng(args.seed + 1)
    verdicts = [nonderog.classify(m, rng=rng).verdict for m in mats]
    radii = [spectrum(m).radius for m in mats]
    return {
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
# command table, parser, dispatch

#: Every flag a command may read, with its argparse keywords.
_FLAGS = {
    "--input": {"required": True, "help": "matrix document (JSON)"},
    "--input2": {"required": True, "help": "second matrix document"},
    "--n": {"type": int, "required": True},
    "--seed": {"type": int, "default": 0},
    "--samples": {"type": int, "default": 100},
    "--radius": {"type": float, "default": 10.0},
    "--s1": {"type": float, "default": None, "help": "witness radius"},
    "--kind": {"choices": ("iso", "zero-metric", "quadratic"), "default": "iso"},
    "--t": {"nargs": 2, "type": float, "default": (0.0, 0.0), "metavar": ("RE", "IM"),
            "help": "scalar base point"},
}

#: Every command: its help, its handler, the flags of _FLAGS that it reads and
#: the defaults in which it differs from _FLAGS, in the order of the help.
_COMMANDS = {
    "classify": ("non-derogatory classification", _classify, ("--input", "--seed"), {}),
    "sigma": ("symmetrized coordinates", _sigma, ("--input",), {}),
    "bounds": ("two-point distance bounds with disc witness", _bounds, ("--input", "--input2", "--s1"), {}),
    "blaschke": ("boundary interpolation through the spectrum", _blaschke, ("--input",), {}),
    "curve": ("constant-spectrum curve construction", _curve,
              ("--input", "--input2", "--samples", "--radius", "--kind"), {}),
    "hull": ("convex hull membership and decomposition", _hull, ("--input",), {}),
    "discontinuity": ("scalar-base discontinuity report", _discontinuity, ("--input", "--t"), {}),
    "sample": ("random spectral-ball matrices", _sample, ("--n", "--seed", "--samples"), {"samples": 10}),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spectralball",
        description="Spectral-ball geometry toolkit: classification, "
        "distances, certificates and constant-spectrum curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, flags, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(handler=handler, **defaults)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        print(_to_json(_document(args)))
        return 0
    except SpectralBallError as exc:
        print(_to_json({"error": str(exc), "kind": type(exc).__name__}), file=sys.stderr)
        return 2 if isinstance(exc, USER_ERRORS) else 3


def run():  # console-script entry point
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
