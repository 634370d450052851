"""The public surface, pinned.

Every callable exported by ``spectralball`` has its parameter names listed
here, every CLI subcommand its flags and the classifier its criteria, so
adding or removing a knob or a criterion shows up as a diff of this file.
Every ``tolerances`` value a CLI document reports is checked against the
library constant it names and against the result type that names it, the
tolerance literals of the package are counted, and ``cli.py`` is checked to
read no private library name and to call no ``np.linalg`` function.  The
README quotes the totals, and must quote them as pinned here.
"""

import argparse
import ast
import inspect
import json
import pathlib
import re
import tokenize

import numpy as np
import pytest

import spectralball as sb
from spectralball import cli, curves, geometry, matcore, pick

PARAMETERS = {
    "BlaschkeProduct": ("unimodular", "zeros"),
    "CriterionResult": ("passed", "diagnostic", "borderline"),
    "DiscWitness": ("curve", "matrix_at_base", "matrix_at_target"),
    "ExpConjugationCurve": ("base", "generator"),
    "GapCertificate": ("beta", "blaschke", "eigenvalues", "smallest_eigenvalue"),
    "HullWitness": ("matrix", "similarity"),
    "MatrixPolynomialCurve": ("coefficients",),
    "NonderogReport": ("per_criterion", "minimal_polynomial"),
    "PickProblem": ("nodes", "targets"),
    "PolyCoeffs": ("coeffs",),
    "SpectralDisc": ("frame", "frame_end", "t0", "t1", "scale"),
    "Spectrum": ("values",),
    "SpectrumCheck": ("max_deviation", "samples", "settled", "radius", "worst_point"),
    "SymPoint": ("coords",),
    "TriangularConjugationCurve": ("frame", "frame_end", "t0", "t1"),
    "ZeroInterpolant": (),
    "as_matrix": ("a",),
    "blaschke_through_roots_of_unity": ("lambdas",),
    "bottleneck_assignment": ("cost",),
    "bottleneck_minimax": ("spec_a", "spec_b"),
    "classify": ("a", "rng"),
    "commutation_operator": ("a",),
    "companion": ("s",),
    "degenerate_interpolant": ("problem",),
    "discontinuity_report": ("b", "t"),
    "disk_automorphism": ("t", "b"),
    "elementary_symmetric": ("values",),
    "expm_pair": ("x",),
    "gap_certificate": ("b",),
    "hull_membership": ("a",),
    "hull_witness": ("a",),
    "iso_spectral_curve": ("a", "b"),
    "kobayashi_scalar_base": ("t", "b"),
    "lempert_scalar_base": ("t", "b"),
    "minimal_polynomial": ("a",),
    "mobius": ("z", "w"),
    "multiset_distance": ("values_a", "values_b"),
    "ordered_triangularize": ("a", "order"),
    "pick_matrix": ("problem",),
    "quadratic_witness_2x2": ("a", "b"),
    "sample_omega": ("n", "count", "seed"),
    "sigma": ("a",),
    "sigma_differential_matrix": ("a",),
    "sigma_pushforward": ("a", "b"),
    "solve_conjugation": ("a", "b"),
    "spectrum": ("a",),
    "spectrum_polynomials_2x2": ("curve",),
    "upper_bound_disc": ("a", "b", "s1"),
    "verify_constant_spectrum": ("curve", "expected", "samples", "radius"),
    "zero_metric_curve": ("a", "b"),
}

#: Totals: exported names; their parameters, of which with defaults; CLI flags;
#: tolerance literals.
NAME_COUNT, PARAMETER_COUNT, DEFAULT_COUNT, FLAG_COUNT, LITERAL_COUNT = 60, 93, 4, 18, 22

CRITERIA = (
    "cyclic_vector",
    "minimal_degree",
    "eigenspace_dim",
    "commutant_dim",
    "symmetrization_rank",
)

FLAGS = {
    "classify": ["--input", "--seed"],
    "sigma": ["--input"],
    "bounds": ["--input", "--input2", "--s1"],
    "blaschke": ["--input"],
    "curve": ["--input", "--input2", "--kind", "--radius", "--samples"],
    "hull": ["--input"],
    "discontinuity": ["--input", "--t"],
    "sample": ["--n", "--samples", "--seed"],
}

GAP_TOLERANCES = {
    "interpolation": pick.INTERPOLATION_TOL,
    "rank": matcore.DEFAULT_TOL,
    "zero_data": matcore.DEFAULT_TOL,
    "bracket_width": pick.BISECT_WIDTH,
    "pick_margin": pick.PICK_MARGIN,
}

CURVE_TOLERANCES = {"spectrum": curves.SPECTRUM_TOL, "endpoint": geometry.ENDPOINT_TOL}

TOLERANCES = {
    "classify": {
        "rank": matcore.DEFAULT_TOL,
        "cluster_gap": matcore.PAIRING_TOL,
        "borderline_decade": matcore.BORDERLINE_DECADE,
    },
    "sigma": {"residual": matcore.DEFAULT_TOL},
    "bounds": {"endpoint": geometry.ENDPOINT_TOL, "scalar_base": geometry.SCALAR_BASE_TOL},
    "blaschke": GAP_TOLERANCES,
    "curve": {**CURVE_TOLERANCES, "pairing": matcore.PAIRING_TOL},
    "hull": {"reconstruction": geometry.HULL_TOL},
    "discontinuity": {"eigenvalue_equality": pick.EQUAL_EIGENVALUES_TOL, **GAP_TOLERANCES},
    "sample": {"classify": matcore.DEFAULT_TOL},
}

#: The curve kinds other than iso also decide on the structure of A and B.
KIND_TOLERANCES = {
    "zero-metric": {
        **CURVE_TOLERANCES, "structure": curves.STRUCTURE_TOL, "classify": matcore.DEFAULT_TOL
    },
    "quadratic": {**CURVE_TOLERANCES, "structure": curves.STRUCTURE_TOL},
}


def test_parameters_of_every_exported_callable():
    found, defaults = {}, 0
    for name in sb.__all__:
        obj = getattr(sb, name)
        if callable(obj) and not (inspect.isclass(obj) and issubclass(obj, BaseException)):
            params = inspect.signature(obj).parameters.values()
            found[name] = tuple(p.name for p in params)
            defaults += sum(p.default is not inspect.Parameter.empty for p in params)
    assert found == PARAMETERS
    assert len(sb.__all__) == NAME_COUNT
    assert sum(len(names) for names in found.values()) == PARAMETER_COUNT
    assert defaults == DEFAULT_COUNT


def test_tolerance_literals():
    """Number literals with a negative exponent (``1e-9``) in the package's
    code, counted by ``tokenize``: a tolerance quoted in a docstring or a
    comment is a string, not a number, and does not count."""
    found = []
    for path in sorted(pathlib.Path(sb.__file__).parent.glob("*.py")):
        with tokenize.open(path) as source:
            found += [
                token.string
                for token in tokenize.generate_tokens(source.readline)
                if token.type == tokenize.NUMBER and "e-" in token.string.lower()
            ]
    assert len(found) == LITERAL_COUNT


def test_classifier_criteria():
    report = sb.classify(np.diag([0.3, 0.1]))
    assert tuple(report.per_criterion) == CRITERIA


def _subcommands():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_flags_of_every_subcommand():
    found = {
        command: sorted(
            flag
            for action in p._actions
            for flag in action.option_strings
            if flag not in ("-h", "--help")
        )
        for command, p in _subcommands().items()
    }
    assert found == FLAGS
    assert sum(len(flags) for flags in found.values()) == FLAG_COUNT


def test_readme_quotes_the_pinned_totals():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    text = " ".join(readme.read_text(encoding="utf-8").split())
    quoted = [
        re.search(r"pins the exported names \((\d+)\)", text),
        re.search(r"exported callable \((\d+), of which (\d+) have defaults\)", text),
        re.search(r"flags of every CLI command \((\d+)\)", text),
        re.search(r"tolerance literals in the package's code \((\d+) number tokens", text),
    ]
    assert all(quoted), quoted
    numbers = tuple(int(n) for match in quoted for n in match.groups())
    assert numbers == (NAME_COUNT, PARAMETER_COUNT, DEFAULT_COUNT, FLAG_COUNT, LITERAL_COUNT)


def test_tolerance_blocks_name_library_constants(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    c = tmp_path / "c.json"
    a.write_text(cli._to_json(cli.emit_matrix(np.diag([0.3, 0.1]))), encoding="utf-8")
    b.write_text(cli._to_json(cli.emit_matrix(np.diag([0.8, 0.0]))), encoding="utf-8")
    c.write_text(cli._to_json(cli.emit_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))), "utf-8")
    argv = {
        "classify": ["--input", a],
        "sigma": ["--input", a],
        "bounds": ["--input", a, "--input2", b],
        "blaschke": ["--input", b],
        "curve": ["--input", a, "--input2", a],
        "hull": ["--input", a],
        "discontinuity": ["--input", b],
        "sample": ["--n", "2"],
    }
    assert set(argv) == set(_subcommands()) == set(TOLERANCES)
    for command, args in argv.items():
        assert cli.main([command, *map(str, args)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tolerances"] == TOLERANCES[command], command
    for kind, tolerances in KIND_TOLERANCES.items():
        assert cli.main(["curve", "--input", str(a), "--input2", str(c), "--kind", kind]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tolerances"] == tolerances, kind


def test_tolerance_blocks_are_the_result_types_own():
    """Each block is the ``tolerances`` class attribute of the result type
    behind the document, which the library reads, not a copy in the CLI."""
    own = {
        "classify": sb.NonderogReport.tolerances,
        "bounds": sb.DiscWitness.tolerances,
        "blaschke": sb.GapCertificate.tolerances,
        "hull": sb.HullWitness.tolerances,
        "discontinuity": {
            "eigenvalue_equality": pick.EQUAL_EIGENVALUES_TOL, **sb.GapCertificate.tolerances
        },
    }
    for command, tolerances in own.items():
        assert TOLERANCES[command] == tolerances, command
    assert CURVE_TOLERANCES == {"spectrum": sb.SpectrumCheck.tol, "endpoint": geometry.ENDPOINT_TOL}


def test_cli_only_parses_and_emits():
    """cli.py imports no underscore-prefixed name from the package, reads no
    ``module._name`` of a library module and calls no ``np.linalg``: the
    result types compute their residuals and name their tolerances."""
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("spectralball"))
    ]
    modules = {alias.name for node in imports if node.module is None for alias in node.names}
    private = [alias.name for node in imports for alias in node.names if alias.name.startswith("_")]
    linalg = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules and node.attr.startswith("_"):
                private.append(f"{node.value.id}.{node.attr}")
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            linalg.append(node.lineno)
    assert modules == {"curves", "geometry", "nonderog", "pick"}
    assert private == []
    assert linalg == []


I2, T2, B2 = np.eye(2), np.array([[0.1, 1.0], [0.0, 0.2]]), np.diag([0.15, 0.75])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call",
    [
        lambda: sb.SpectralDisc(I2, I2, np.eye(3), np.eye(3), 0.5),
        lambda: sb.SpectralDisc(I2, I2, T2, T2, "0.5"),
        lambda: sb.TriangularConjugationCurve(I2, I2, np.eye(3), T2),
        lambda: sb.MatrixPolynomialCurve([]),
        lambda: sb.MatrixPolynomialCurve([I2, np.eye(3)]),
        lambda: sb.HullWitness(T2, np.eye(3)),
        lambda: sb.blaschke_through_roots_of_unity([[0.1, 0.2]]),
        lambda: sb.upper_bound_disc(T2, B2, None),
        lambda: sb.upper_bound_disc(T2, B2, "x"),
        lambda: sb.lempert_scalar_base("x", B2),
        lambda: sb.kobayashi_scalar_base(None, B2),
        lambda: sb.discontinuity_report(B2, "x"),
    ],
    ids=[
        "disc-sizes", "disc-scale", "iso-sizes", "polynomial-empty", "polynomial-sizes",
        "hull-sizes", "blaschke-2d", "disc-radius-none", "disc-radius-str", "lempert-t",
        "kobayashi-t", "discontinuity-t",
    ],
)
def test_typed_errors_at_public_constructors_and_scalar_arguments(call):
    """Malformed arguments raise InvalidInputError, before any warning."""
    with pytest.raises(sb.InvalidInputError):
        call()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "t0, t1, entry",
    [
        (I2, I2, r"t0\[0, 0\] = 1\+0j"),
        (T2, np.diag([0.1, 1.5j]), r"t1\[1, 1\] = 0\+1.5j"),
        (np.diag([0.1, 1j]), T2, r"t0\[1, 1\] = 0\+1j"),
    ],
    ids=["identity", "t1-outside", "t0-on-circle"],
)
def test_disc_rejects_diagonals_outside_the_disk(t0, t1, entry):
    """A disc whose triangles put a value on or outside the unit circle
    raises DomainError naming the entry, before any warning."""
    with pytest.raises(sb.DomainError, match=entry + " is outside the open unit disk"):
        sb.SpectralDisc(I2, I2, t0, t1, 0.5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call",
    [
        lambda x: sb.as_matrix([[x]]),
        lambda x: sb.verify_constant_spectrum(sb.MatrixPolynomialCurve([I2]), [x, 1.0]),
        lambda x: sb.blaschke_through_roots_of_unity([x]),
        lambda x: sb.mobius([x], 0.1),
        lambda x: sb.bottleneck_minimax([x], [0.1]),
        lambda x: sb.multiset_distance([x], [0.1]),
        lambda x: sb.elementary_symmetric([x]),
        lambda x: sb.companion([x]),
        lambda x: sb.PickProblem([x], [0.1]),
        lambda x: sb.BlaschkeProduct(1.0, [x]),
    ],
    ids=[
        "as_matrix", "verify_constant_spectrum", "blaschke_through_roots_of_unity", "mobius",
        "bottleneck_minimax", "multiset_distance", "elementary_symmetric", "companion",
        "PickProblem", "BlaschkeProduct",
    ],
)
@pytest.mark.parametrize("entry", ["x", object()], ids=["string", "object"])
def test_non_numeric_entries_are_invalid_input(call, entry):
    """An entry numpy cannot read as a number raises InvalidInputError, not
    numpy's ValueError or TypeError."""
    with pytest.raises(sb.InvalidInputError, match="expected numbers"):
        call(entry)
