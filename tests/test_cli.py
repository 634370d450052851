import contextlib
import io
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectralball as sb
from spectralball import cli, sample_omega
from spectralball.cli import _to_json, emit_matrix, main, parse_matrix
from conftest import random_gaussian, random_unitary


def write_matrix(path, a):
    path.write_text(_to_json(emit_matrix(a)), encoding="utf-8")
    return str(path)


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMatrixDocuments:
    def test_scalar_document(self):
        a = parse_matrix({"n": 1, "rows": [[[0.5, 0.0]]]})
        np.testing.assert_array_equal(a, np.array([[0.5 + 0.0j]]))

    def test_roundtrip_bitwise(self):
        rng = np.random.default_rng(61)
        a = random_gaussian(rng, 3)
        assert np.array_equal(parse_matrix(emit_matrix(a)), a)

    def test_text_roundtrip_bitwise(self):
        rng = np.random.default_rng(62)
        a = random_gaussian(rng, 4)
        text = _to_json(emit_matrix(a))
        assert np.array_equal(parse_matrix(json.loads(text)), a)

    def test_ragged_rows(self):
        with pytest.raises(sb.InvalidInputError):
            parse_matrix({"n": 2, "rows": [[[0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]})

    def test_non_finite(self):
        # 10**400 is a finite integer of JSON that no float holds
        for value in (float("inf"), 10**400):
            with pytest.raises(sb.InvalidInputError, match="row 0, column 0: entries must be finite"):
                parse_matrix({"n": 1, "rows": [[[value, 0.0]]]})

    def test_bad_entry(self):
        with pytest.raises(sb.InvalidInputError) as err:
            parse_matrix({"n": 1, "rows": [[[0.0]]]})
        assert "row 0" in str(err.value)

    def test_seventeen_digit_floats(self):
        x = 0.1 + 0.2  # 0.30000000000000004: needs all 17 digits
        text = _to_json({"v": x})
        assert "0.30000000000000004" in text
        assert json.loads(text)["v"] == x


class TestCommands:
    def test_classify_companion(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "a.json", sb.companion([0.3, 0.02]))
        code, out, _ = run_cli(capsys, "classify", "--input", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["outputs"]["nonderogatory"] is True
        assert len(doc["outputs"]["criteria"]) == 5
        # residual recomputation from the emitted input document
        a = parse_matrix(doc["inputs"]["matrix"])
        poly = sb.minimal_polynomial(a)
        recomputed = float(np.linalg.norm(poly.on_matrix(a)))
        assert abs(recomputed - doc["residuals"]["minimal_polynomial_norm"]) <= 1e-12
        assert sb.classify(a).residuals(a) == {"minimal_polynomial_norm": recomputed}

    def test_sigma(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "a.json", np.diag([0.1, 0.2]))
        code, out, _ = run_cli(capsys, "sigma", "--input", path)
        assert code == 0
        doc = json.loads(out)
        coords = [complex(re, im) for re, im in doc["outputs"]["coords"]]
        np.testing.assert_allclose(coords, [0.3, 0.02], atol=1e-12)
        assert doc["outputs"]["in_symmetrized_polydisc"] is True
        a = parse_matrix(doc["inputs"]["matrix"])
        roundtrip = float(
            np.max(np.abs(sb.sigma(sb.companion(sb.sigma(a))).coords - sb.sigma(a).coords))
        )
        assert abs(roundtrip - doc["residuals"]["companion_roundtrip"]) <= 1e-12

    def test_sigma_solves_the_eigenproblem_once(self, tmp_path, capsys, count_eigvals):
        # the input's spectrum gives both the coordinates and the spectrum;
        # the second solve is the companion round trip
        path = write_matrix(tmp_path / "a.json", random_gaussian(np.random.default_rng(63), 3))
        code, _, _ = run_cli(capsys, "sigma", "--input", path)
        assert code == 0
        assert len(count_eigvals) == 2

    def test_hull(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "a.json", np.diag([2.5, -2.5, 1.0]))
        code, out, _ = run_cli(capsys, "hull", "--input", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["outputs"]["gauge"] == pytest.approx(1.0 / 3.0)
        assert doc["outputs"]["inside"] is True
        witness = doc["outputs"]["witness"]
        t1 = parse_matrix(witness["terms"][0])
        t2 = parse_matrix(witness["terms"][1])
        a = parse_matrix(doc["inputs"]["matrix"])
        recon = float(np.linalg.norm(0.5 * t1 + 0.5 * t2 - a))
        assert abs(recon - doc["residuals"]["reconstruction"]) <= 1e-12
        assert sb.hull_witness(a).residuals()["reconstruction"] == recon
        assert max(witness["term_radii"]) < 1.0

    def test_hull_witness_at_n5(self, tmp_path, capsys):
        a = 0.3 * random_gaussian(np.random.default_rng(63), 5)
        path = write_matrix(tmp_path / "a.json", a)
        code, out, _ = run_cli(capsys, "hull", "--input", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["outputs"]["inside"] is True
        assert "witness_unavailable" not in doc["outputs"]
        witness = doc["outputs"]["witness"]
        t1, t2 = (parse_matrix(t) for t in witness["terms"])
        assert np.array_equal(parse_matrix(witness["similarity"]), sb.hull_witness(a).similarity)
        assert np.linalg.norm(0.5 * t1 + 0.5 * t2 - a) <= 1e-9 * (1.0 + np.linalg.norm(a))
        assert doc["residuals"]["reconstruction"] <= 1e-9 * (1.0 + np.linalg.norm(a))
        assert max(witness["term_radii"]) < 1.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hull_term_radii_at_large_norms(self, tmp_path, capsys, n):
        # eigvals of tau I + S 2N S* smear the one-point spectrum {tau} by
        # about eps^(1/n) ||N||; the document reports the exact radius |tau|
        rng = np.random.default_rng(64 + n)
        tau = 0.4 - 0.3j
        for scale in 10.0 ** np.arange(0, 9, 2):
            g = random_gaussian(rng, n)
            a = scale * (g - np.trace(g) / n * np.eye(n)) + tau * np.eye(n)
            path = write_matrix(tmp_path / "a.json", a)
            code, out, _ = run_cli(capsys, "hull", "--input", path)
            assert code == 0
            doc = json.loads(out)
            a = parse_matrix(doc["inputs"]["matrix"])
            witness = doc["outputs"]["witness"]
            t1, t2 = (parse_matrix(t) for t in witness["terms"])
            s = parse_matrix(witness["similarity"])
            shift = np.trace(a) / n * np.eye(n)
            assert witness["term_radii"] == [abs(np.trace(a) / n)] * 2
            assert max(witness["term_radii"]) < 1.0
            slack = max(
                np.linalg.norm(np.tril(s.conj().T @ (t1 - shift) @ s)),
                np.linalg.norm(np.triu(s.conj().T @ (t2 - shift) @ s)),
            ) / (1.0 + np.linalg.norm(a))
            assert doc["residuals"]["triangularity"] == pytest.approx(slack, rel=1e-6, abs=1e-15)
            assert doc["residuals"]["triangularity"] <= 1e-12
            assert sb.hull_witness(a).residuals()["triangularity"] == slack

    def test_bounds(self, tmp_path, capsys):
        p1 = write_matrix(tmp_path / "a.json", np.diag([0.1, 0.8]))
        p2 = write_matrix(tmp_path / "b.json", np.diag([0.15, 0.75]))
        code, out, _ = run_cli(capsys, "bounds", "--input", p1, "--input2", p2, "--s1", "0.13")
        assert code == 0
        doc = json.loads(out)
        assert doc["outputs"]["pairing_bound"] == pytest.approx(0.125)
        assert doc["outputs"]["certificate_max_radius"] < 1.0
        assert doc["residuals"]["endpoint_base"] <= 1e-8
        assert doc["residuals"]["endpoint_target"] <= 1e-8
        assert "scalar_base_exact" not in doc["outputs"]
        witness = sb.upper_bound_disc(np.diag([0.1, 0.8]), np.diag([0.15, 0.75]), 0.13)
        assert witness.scalar_base_exact() is None

    def test_bounds_scalar_reports_exact(self, tmp_path, capsys):
        b = np.diag([0.5, 0.2])
        p2 = write_matrix(tmp_path / "b.json", b)
        for t, exact in ((0.0, 0.5), (0.4j, abs((0.5 - 0.4j) / (1 + 0.2j)))):
            a = t * np.eye(2)
            p1 = write_matrix(tmp_path / "a.json", a)
            code, out, _ = run_cli(capsys, "bounds", "--input", p1, "--input2", p2)
            assert code == 0
            doc = json.loads(out)
            assert doc["outputs"]["scalar_base_exact"] == pytest.approx(exact)
            witness = sb.upper_bound_disc(a, b, doc["inputs"]["s1"])
            assert witness.scalar_base_exact() == doc["outputs"]["scalar_base_exact"]

    def test_blaschke(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "b.json", np.diag([0.8, 0.0]))
        code, out, _ = run_cli(capsys, "blaschke", "--input", path)
        assert code == 0
        doc = json.loads(out)
        beta = complex(*doc["outputs"]["beta"])
        assert abs(abs(beta) ** 2 - 2.0 / 3.0) <= 1e-6
        assert doc["residuals"]["interpolation_max"] <= 1e-6
        assert doc["residuals"]["circle_unimodularity"] <= 1e-8
        assert doc["outputs"]["blaschke"]["order"] <= 2

    def test_blaschke_document_reverifies(self, tmp_path, capsys):
        # rebuild the product purely from the emitted document and recompute
        # the interpolation residual against the parsed input matrix
        path = write_matrix(tmp_path / "b.json", np.diag([0.6, -0.2]))
        code, out, _ = run_cli(capsys, "blaschke", "--input", path)
        assert code == 0
        doc = json.loads(out)
        b = parse_matrix(doc["inputs"]["matrix"])
        data = doc["outputs"]["blaschke"]
        bp = sb.BlaschkeProduct(
            complex(*data["unimodular"]),
            [complex(re, im) for re, im in data["zeros"]],
        )
        beta = complex(*doc["outputs"]["beta"])
        n = b.shape[0]
        eps = np.exp(2j * np.pi * np.arange(n) / n)
        lam = sb.spectrum(b).values
        resid = float(np.max(np.min(
            np.abs(bp(eps * beta)[:, None] - lam[None, :]), axis=1
        )))
        assert abs(resid) <= 1e-6
        assert abs(abs(beta) ** n - doc["outputs"]["upper_bound"]) <= 1e-12
        circle = np.abs(bp(np.exp(2j * np.pi * np.arange(256) / 256)))
        unimodularity = float(np.max(np.abs(circle - 1.0)))
        assert doc["residuals"]["circle_unimodularity"] == pytest.approx(unimodularity, abs=1e-15)
        assert sb.gap_certificate(b).residuals() == doc["residuals"]

    def test_curve_iso(self, tmp_path, capsys):
        p1 = write_matrix(tmp_path / "a.json", np.diag([0.3, 0.5]))
        p2 = write_matrix(tmp_path / "b.json", np.array([[0.3, 7.0], [0.0, 0.5]]))
        code, out, _ = run_cli(capsys, "curve", "--input", p1, "--input2", p2, "--kind", "iso")
        assert code == 0
        doc = json.loads(out)
        assert doc["outputs"]["constant_spectrum"]["passed"] is True
        assert doc["outputs"]["constant_spectrum"]["settled"] == 100
        assert doc["residuals"]["endpoint_target"] <= 1e-8
        a, b = (parse_matrix(doc["inputs"][key]) for key in ("matrix", "matrix2"))
        curve = sb.iso_spectral_curve(a, b)
        recomputed = {
            "endpoint_base": float(np.linalg.norm(curve(0.0) - a)),
            "endpoint_target": float(np.linalg.norm(curve(1.0) - b)),
        }
        assert curve.residuals(a, b) == recomputed == doc["residuals"]

    @pytest.mark.parametrize("kind", ["zero-metric", "quadratic"])
    def test_curve_derivative_residual_is_exact(self, tmp_path, capsys, kind):
        rng = np.random.default_rng(81)
        a = 0.5 * random_gaussian(rng, 2)
        y = 0.2 * random_gaussian(rng, 2)
        b = a @ y - y @ a
        p1 = write_matrix(tmp_path / "a.json", a)
        p2 = write_matrix(tmp_path / "b.json", b)
        code, out, _ = run_cli(capsys, "curve", "--input", p1, "--input2", p2, "--kind", kind)
        assert code == 0
        doc = json.loads(out)
        if kind == "zero-metric":
            # the derivative A Y - Y A of exp(-lam Y) A exp(lam Y) at 0
            curve = sb.zero_metric_curve(a, b)
            expected = np.linalg.norm(curve.derivative_at_zero() - b)
            assert doc["residuals"]["derivative"] == expected <= 1e-12
        else:
            # the linear coefficient of the quadratic is B itself
            curve = sb.quadratic_witness_2x2(a, b)
            assert doc["residuals"]["derivative"] == 0.0
            trace, det = sb.spectrum_polynomials_2x2(curve)
            variation = max(np.abs(trace[1:]).max(), np.abs(det[1:]).max())
            assert curve.max_nonconstant_variation() == variation
            assert doc["residuals"]["max_nonconstant_coefficient"] == variation
        recomputed = {
            "endpoint_base": float(np.linalg.norm(curve(0.0) - a)),
            "derivative": float(np.linalg.norm(curve.derivative_at_zero() - b)),
        }
        assert curve.residuals(a, b) == recomputed
        assert {key: doc["residuals"][key] for key in recomputed} == recomputed

    def test_curve_zero_metric_eigensolve_count(self, tmp_path, capsys, count_eigvals):
        # the eig of the centered base, which proves it non-derogatory and
        # serves the verifier's enclosure, the curve's eig of its generator,
        # the reported spectrum of A and the verifier's one eigvals
        rng = np.random.default_rng(82)
        a = 0.5 * random_gaussian(rng, 3)
        y = 0.2 * random_gaussian(rng, 3)
        p1 = write_matrix(tmp_path / "a.json", a)
        p2 = write_matrix(tmp_path / "b.json", a @ y - y @ a)
        code, _, _ = run_cli(
            capsys, "curve", "--input", p1, "--input2", p2, "--kind", "zero-metric"
        )
        assert code == 0
        assert len(count_eigvals) == 4

    def test_curve_zero_metric_defective_generator(self, tmp_path, capsys):
        # the nilpotent generator Y = [[0, 0.2], [0, 0]] takes the Pade
        # exponential; the document is that of any zero-metric curve
        a, y = np.diag([0.3, 0.5]), np.array([[0.0, 0.2], [0.0, 0.0]])
        p1 = write_matrix(tmp_path / "a.json", a)
        p2 = write_matrix(tmp_path / "b.json", a @ y - y @ a)
        code, out, err = run_cli(
            capsys, "curve", "--input", p1, "--input2", p2, "--kind", "zero-metric"
        )
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["outputs"]["constant_spectrum"]["passed"] is True
        assert doc["residuals"]["endpoint_base"] == 0.0

    @pytest.mark.filterwarnings("error")
    def test_curve_zero_metric_overflow_exit_3(self, tmp_path, capsys):
        # a valid pair whose generator [[0, -100], [100, 0]] makes exp(lam Y)
        # overflow within the sampled radius: one NumericError, nothing else
        p1 = write_matrix(tmp_path / "a.json", np.diag([0.3, 0.5]))
        p2 = write_matrix(tmp_path / "b.json", np.array([[0.0, 20.0], [20.0, 0.0]]))
        code, out, err = run_cli(
            capsys, "curve", "--input", p1, "--input2", p2, "--kind", "zero-metric"
        )
        assert code == 3 and out == ""
        doc = json.loads(err)
        assert doc["kind"] == "NumericError" and "overflow at |lam|" in doc["error"]

    def test_curve_mismatched_spectra_exit_2(self, tmp_path, capsys):
        p1 = write_matrix(tmp_path / "a.json", np.diag([0.1, 0.2]))
        p2 = write_matrix(tmp_path / "b.json", np.diag([0.1, 0.3]))
        code, out, err = run_cli(capsys, "curve", "--input", p1, "--input2", p2)
        assert code == 2
        assert out == ""
        assert "error" in json.loads(err)

    @pytest.mark.parametrize("samples", ["0", "1"])
    def test_curve_too_few_samples_exit_2(self, tmp_path, capsys, samples):
        p1 = write_matrix(tmp_path / "a.json", np.diag([0.3, 0.5]))
        p2 = write_matrix(tmp_path / "b.json", np.array([[0.3, 7.0], [0.0, 0.5]]))
        code, out, err = run_cli(
            capsys, "curve", "--input", p1, "--input2", p2, "--samples", samples
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["kind"] == "InvalidInputError"

    @pytest.mark.parametrize("radius", ["-5", "inf", "nan"])
    def test_curve_bad_radius_exit_2(self, tmp_path, capsys, radius):
        p1 = write_matrix(tmp_path / "a.json", np.diag([0.3, 0.5]))
        p2 = write_matrix(tmp_path / "b.json", np.array([[0.3, 7.0], [0.0, 0.5]]))
        code, out, err = run_cli(
            capsys, "curve", "--input", p1, "--input2", p2, "--radius=" + radius
        )
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["kind"] == "InvalidInputError" and "radius" in error["error"]

    def test_discontinuity_gap_case(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "b.json", np.diag([0.8, 0.0]))
        code, out, _ = run_cli(capsys, "discontinuity", "--input", path)
        assert code == 0
        doc = json.loads(out)
        rep = doc["outputs"]
        assert rep["lempert"]["value_at_scalar_base"] == pytest.approx(0.8)
        assert rep["lempert"]["generic_limit_upper"] == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert rep["kobayashi"]["value_at_scalar_base"] == pytest.approx(0.8)
        assert rep["kobayashi"]["generic_limit"] == pytest.approx(0.4)
        assert rep["jump_lempert"] > 0.0
        assert rep["jump_kobayashi"] > 0.0
        assert rep["eigenvalues_equal"] is False
        assert abs(
            doc["residuals"]["jump_kobayashi_recomputed"] - rep["jump_kobayashi"]
        ) <= 1e-12

    def test_discontinuity_equal_case(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "b.json", np.diag([0.5, 0.5]))
        code, out, _ = run_cli(capsys, "discontinuity", "--input", path)
        doc = json.loads(out)
        rep = doc["outputs"]
        assert rep["jump_lempert"] == 0.0
        assert rep["jump_kobayashi"] == 0.0
        assert rep["eigenvalues_equal"] is True

    def test_discontinuity_zero_matrix(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "b.json", np.zeros((2, 2)))
        code, out, _ = run_cli(capsys, "discontinuity", "--input", path)
        doc = json.loads(out)
        rep = doc["outputs"]
        assert rep["lempert"]["value_at_scalar_base"] == 0.0
        assert rep["kobayashi"]["value_at_scalar_base"] == 0.0
        assert rep["jump_lempert"] == 0.0

    def test_discontinuity_nonzero_t(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "b.json", np.diag([0.8, 0.0]))
        code, out, _ = run_cli(
            capsys, "discontinuity", "--input", path, "--t", "0.2", "0.0"
        )
        assert code == 0
        doc = json.loads(out)
        rep = doc["outputs"]
        # |tr B| / (n (1 - |t|^2)): the automorphism has differential
        # X / (1 - |t|^2) at tI
        assert rep["kobayashi"]["generic_limit"] == pytest.approx(0.8 / (2 * 0.96))
        assert rep["kobayashi"]["value_at_scalar_base"] == pytest.approx(0.8 / 0.96)
        assert abs(
            doc["residuals"]["jump_kobayashi_recomputed"] - rep["jump_kobayashi"]
        ) <= 1e-12
        expected = sb.lempert_scalar_base(0.2, np.diag([0.8, 0.0]))
        assert rep["lempert"]["value_at_scalar_base"] == pytest.approx(expected)
        assert rep["lempert"]["generic_limit_upper"] < expected

    @pytest.mark.parametrize("t, count", [("0.0", 2), ("0.2", 3)])
    def test_discontinuity_eigensolve_counts(self, tmp_path, capsys, count_eigvals, t, count):
        # the report's solves (one, and the shifted matrix at t != 0) and
        # the recomputed Kobayashi jump, plus one of the certificate's
        # colligation state matrix
        path = write_matrix(tmp_path / "b.json", np.diag([0.8, 0.0, 0.3j]))
        code, _, _ = run_cli(capsys, "discontinuity", "--input", path, "--t", t, "0.0")
        assert code == 0
        assert len(count_eigvals) == count + 1

    def test_sample(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--n", "3", "--samples", "20", "--seed", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["outputs"]["nonderogatory_fraction"] == 1.0
        assert doc["residuals"]["max_radius"] < 1.0
        # determinism
        code2, out2, _ = run_cli(capsys, "sample", "--n", "3", "--samples", "20", "--seed", "5")
        assert out2 == out

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("classify", "--tol"), ("classify", "--samples"), ("classify", "--radius"),
            ("sigma", "--tol"), ("sigma", "--seed"), ("sigma", "--samples"), ("sigma", "--radius"),
            ("bounds", "--tol"), ("bounds", "--seed"), ("bounds", "--samples"), ("bounds", "--radius"),
            ("blaschke", "--tol"), ("blaschke", "--seed"), ("blaschke", "--samples"),
            ("blaschke", "--radius"),
            ("curve", "--tol"), ("curve", "--seed"),
            ("hull", "--tol"), ("hull", "--seed"), ("hull", "--samples"), ("hull", "--radius"),
            ("discontinuity", "--tol"), ("discontinuity", "--seed"), ("discontinuity", "--samples"),
            ("discontinuity", "--radius"),
            ("sample", "--tol"),
        ],
    )
    def test_unread_flag_exit_2(self, tmp_path, capsys, command, flag):
        # each command takes only the flags its handler reads
        path = write_matrix(tmp_path / "a.json", np.diag([0.3, 0.1]))
        inputs = ["--input", path] + (["--input2", path] if command in ("bounds", "curve") else [])
        if command == "sample":
            inputs = ["--n", "2"]
        with pytest.raises(SystemExit) as exc:
            main([command, *inputs, flag, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bad_input_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(capsys, "classify", "--input", str(bad))
        assert code == 2
        assert "error" in json.loads(err)

    @pytest.mark.parametrize(
        "content",
        [
            b'{"n": 1, "rows": [[[1' + b"0" * 4400 + b', 0]]]}',
            b'{"n": 1, "rows": [[[0.5, 0]]]}\xff',
        ],
        ids=["integer-beyond-digit-limit", "undecodable-byte"],
    )
    def test_unreadable_json_exit_2(self, tmp_path, capsys, content):
        # both are ValueErrors of the JSON reader, not JSONDecodeErrors
        path = tmp_path / "a.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "classify", "--input", str(path))
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["kind"] == "InvalidInputError" and "not valid JSON" in doc["error"]

    @pytest.mark.parametrize(
        "document, message",
        [
            ([[[0.5, 0.0]]], "matrix document must be an object"),
            ({"rows": [[[0.5, 0.0]]]}, "needs fields 'n' and 'rows'"),
            ({"n": 1}, "needs fields 'n' and 'rows'"),
            ({"n": 2, "rows": [[[0.5, 0.0], [0.0, 0.0]]]}, "expected 2 rows, got 1"),
            ({"n": 1, "rows": "[[0.5, 0.0]]"}, "expected 1 rows, got str"),
            (None, "cannot read"),
        ],
        ids=["not-an-object", "missing-n", "missing-rows", "too-few-rows", "rows-not-a-list",
             "unreadable-path"],
    )
    def test_malformed_document_exit_2(self, tmp_path, capsys, document, message):
        path = tmp_path / "a.json"
        if document is not None:  # None: the path names no file
            path.write_text(json.dumps(document), encoding="utf-8")
        code, out, err = run_cli(capsys, "classify", "--input", str(path))
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["kind"] == "InvalidInputError" and message in doc["error"]

    @pytest.mark.parametrize(
        "document",
        [
            {"n": True, "rows": [[[0.5, 0.0]]]},
            {"n": 1, "rows": [[[True, False]]]},
            {"n": 1, "rows": [[[0.5, False]]]},
        ],
        ids=["boolean-n", "boolean-entry", "boolean-imaginary-part"],
    )
    def test_boolean_document_exit_2(self, tmp_path, capsys, document):
        path = tmp_path / "a.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        code, out, err = run_cli(capsys, "classify", "--input", str(path))
        assert code == 2 and out == ""
        assert json.loads(err)["kind"] == "InvalidInputError"

    @pytest.mark.parametrize("command", ["classify", "sigma", "hull"])
    def test_integer_beyond_float_range_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "a.json"
        path.write_text('{"n": 1, "rows": [[[1' + "0" * 400 + ', 0]]]}', encoding="utf-8")
        code, out, err = run_cli(capsys, command, "--input", str(path))
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["kind"] == "InvalidInputError"
        assert "row 0, column 0: entries must be finite" in doc["error"]

    @pytest.mark.parametrize("command", ["classify", "sample"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, command):
        path = write_matrix(tmp_path / "a.json", np.diag([0.3, 0.1]))
        inputs = ["--input", path] if command == "classify" else ["--n", "2"]
        code, out, err = run_cli(capsys, command, *inputs, "--seed", "-1")
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["kind"] == "InvalidInputError" and "seed" in doc["error"]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_output_exit_3(self, tmp_path, capsys):
        # the gauge |tr A| / n overflows to inf, which JSON cannot hold
        path = write_matrix(tmp_path / "a.json", np.diag([1e308, 1e308]))
        code, out, err = run_cli(capsys, "hull", "--input", path)
        assert code == 3
        assert out == ""
        assert json.loads(err)["kind"] == "NumericError"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "a",
        [1e-320 * np.array([[1.0, 2.0], [0.0, 3.0]]), 1e308 * np.eye(2)],
        ids=["subnormal", "top-of-range-scalar"],
    )
    def test_classify_at_extreme_scales(self, tmp_path, capsys, a):
        # regression: the trace of 1e308 I overflowed, and dividing by a
        # subnormal c put inf in M; either ended in LinAlgError (exit 1)
        path = write_matrix(tmp_path / "a.json", a)
        code, out, err = run_cli(capsys, "classify", "--input", path)
        assert code == 0 and err == ""
        unscaled = sb.classify(a / np.abs(a).max()).verdict
        assert json.loads(out)["outputs"]["nonderogatory"] == unscaled

    def test_classify_residual_at_1e100(self, tmp_path, capsys):
        # regression: the norm of p(A), whose largest entry is near 1e285,
        # squared the entries and overflowed to inf (exit 3)
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        a = 1e100 * 0.3 * (x + 1j * y)
        path = write_matrix(tmp_path / "a.json", a)
        code, out, err = run_cli(capsys, "classify", "--input", path)
        assert code == 0 and err == ""
        residual = json.loads(out)["residuals"]["minimal_polynomial_norm"]
        p_a = sb.classify(a).minimal_polynomial.on_matrix(a)
        assert residual == pytest.approx(np.linalg.norm(p_a * 2.0**-950) * 2.0**950, rel=1e-14)
        assert 0.0 < residual <= 1e-12 * np.linalg.norm(a / 1e100) ** 3 * 1e300

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("scale", [1e200, 1e300, 1e307])
    def test_classify_nilpotent_residual_at_huge_scales(self, tmp_path, capsys, n, scale):
        # regression: p(A) = A^n = 0, but the powers of A overflowed (exit 3)
        a = np.triu(np.arange(1.0, n * n + 1).reshape(n, n) / (n * n), 1) * scale
        path = write_matrix(tmp_path / "a.json", a)
        code, out, err = run_cli(capsys, "classify", "--input", path)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["outputs"]["nonderogatory"] is True
        assert doc["residuals"]["minimal_polynomial_norm"] == 0.0

    def test_classify_residual_of_overflowing_powers(self, tmp_path, capsys):
        # p(z) = (z - 1)(z - 2) is finite and p(A) = 0, though A^2 of this A
        # is not finite: the residual is taken on A 2^-1024 (exit 3 before)
        path = write_matrix(tmp_path / "a.json", np.array([[1.0, 1e308], [0.0, 2.0]]))
        code, out, err = run_cli(capsys, "classify", "--input", path)
        assert code == 0 and err == ""
        assert json.loads(out)["residuals"]["minimal_polynomial_norm"] == 0.0

    def test_classify_residual_overflow_exit_3(self, tmp_path, capsys):
        # p(A) rounds at about eps ||A^3||, some 1e584: no double holds it
        a = np.array([[0.1, 1e300, 3e299], [0.0, 0.2, 7e299], [0.0, 0.0, 0.3]])
        path = write_matrix(tmp_path / "a.json", a)
        code, out, err = run_cli(capsys, "classify", "--input", path)
        assert code == 3 and out == ""
        assert json.loads(err) == {
            "error": "minimal polynomial residual p(A) overflows", "kind": "NumericError"
        }

    def test_hull_at_1e200(self, tmp_path, capsys):
        # regression: ||A - tau I||_F overflowed in the zero-diagonal
        # reduction, which then made no rotation (exit 3)
        a = np.array([[1e200, 3e199], [0.0, -1e200]])
        path = write_matrix(tmp_path / "a.json", a)
        code, out, err = run_cli(capsys, "hull", "--input", path)
        assert code == 0 and err == ""
        doc = json.loads(out)
        s = parse_matrix(doc["outputs"]["witness"]["similarity"])
        assert np.linalg.norm(s.conj().T @ s - np.eye(2)) <= 1e-15
        assert doc["residuals"]["reconstruction"] <= 1e-15 * 1e200
        assert doc["residuals"]["triangularity"] <= 1e-15

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sigma_overflow_exit_3(self, tmp_path, capsys):
        # finite input whose coordinates (2e308, 1e616) overflow
        path = write_matrix(tmp_path / "a.json", np.diag([1e308, 1e308]))
        code, out, err = run_cli(capsys, "sigma", "--input", path)
        assert code == 3 and out == ""
        assert json.loads(err) == {
            "error": "symmetrized coordinates overflow", "kind": "NumericError"
        }

    def test_outside_ball_exit_2(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "b.json", np.diag([1.5, 0.0]))
        code, _, _ = run_cli(capsys, "discontinuity", "--input", path)
        assert code == 2


def seeded_inputs(seed, n, shape):
    """Seeded A of one shape, each entry below 1 in modulus so that 2^k A is
    finite for every k up to 1023, with its unitary conjugate Q A Q* (on
    which ``curve --kind iso`` builds) and a direction A Y - Y A, or a
    nilpotent one at a scalar A (on which zero-metric and quadratic do)."""
    rng = np.random.default_rng([seed, n])
    a = {
        "general": random_gaussian(rng, n),
        "upper": np.triu(random_gaussian(rng, n), 1),
        "diagonal": np.diag(random_gaussian(rng, n).diagonal()),
        "jordan": 0.3 * np.eye(n) + np.eye(n, k=1),
        "scalar": random_gaussian(rng, 1) * np.eye(n),
    }[shape]
    a = a.astype(complex) * np.ldexp(1.0, -np.frexp(np.abs(a).max())[1])
    q, y = random_unitary(rng, n), 0.2 * random_gaussian(rng, n)
    direction = np.triu(y, 1) if shape == "scalar" else a @ y - y @ a
    return {"a": a, "conjugate": q @ a @ q.conj().T, "direction": direction}


#: Every command that takes a matrix, with the inputs it reads.
SCALED_COMMANDS = {
    "classify": ["--input", "a"],
    "sigma": ["--input", "a"],
    "bounds": ["--input", "a", "--input2", "direction"],
    "blaschke": ["--input", "a"],
    "curve-iso": ["--input", "a", "--input2", "conjugate", "--kind", "iso"],
    "curve-zero-metric": ["--input", "a", "--input2", "direction", "--kind", "zero-metric"],
    "curve-quadratic": ["--input", "a", "--input2", "direction", "--kind", "quadratic"],
    "hull": ["--input", "a"],
    "discontinuity": ["--input", "a"],
}

SHAPES = ("general", "upper", "diagonal", "jordan", "scalar")


def scaled(m, k):
    """2^k M, part by part: exact unless a part leaves the normal range."""
    return np.ldexp(np.ascontiguousarray(m).view(float), k).view(complex)


def run_scaled(workdir, command, inputs, k):
    """Run *command* on its *inputs* scaled by 2^k through main; returns
    (exit code, stdout, stderr)."""
    paths = {name: write_matrix(workdir / f"{name}.json", scaled(m, k)) for name, m in inputs.items()}
    argv = [command.split("-", 1)[0]] + [paths.get(arg, arg) for arg in SCALED_COMMANDS[command]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_one_answer(code, out, err):
    """Exit 0 with a document and an empty stderr, or exit 2 or 3 with one
    JSON error document on stderr and nothing on stdout."""
    if code == 0:
        assert err == "" and json.loads(out)
    else:
        assert code in (2, 3) and out == ""
        assert set(json.loads(err)) == {"error", "kind"}


@pytest.mark.filterwarnings("error")
class TestEveryScale:
    """ROADMAP item 5: every command that takes a matrix, on seeded inputs
    scaled by 2^k over the whole exponent range, gives an answer or one
    typed error, and nothing else on stderr."""

    @pytest.mark.parametrize("command", sorted(SCALED_COMMANDS))
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(2, 4),
        shape=st.sampled_from(SHAPES),
        k=st.integers(-1074, 1023),
    )
    @settings(max_examples=20)
    def test_answer_or_one_typed_error(self, tmp_path_factory, command, seed, n, shape, k):
        inputs = seeded_inputs(seed, 2 if command == "curve-quadratic" else n, shape)
        assert_one_answer(*run_scaled(tmp_path_factory.mktemp("scale"), command, inputs, k))

    @pytest.mark.parametrize("command", ["bounds", "curve-iso"])
    @given(seed=st.integers(0, 2**16), n=st.integers(2, 4), k=st.integers(-1074, 1023))
    @settings(max_examples=20)
    def test_ball_members_with_a_huge_nilpotent_part(self, tmp_path_factory, command, seed, n, k):
        # D + 2^k N, D diagonal in the disk and N strictly upper, lies in the
        # ball at every k, unlike 2^k A.  bounds pairs it with a diagonal
        # member and answers; the iso curve joins it to its transpose, whose
        # eigenvalues are too ill-conditioned to pair at large k: an answer,
        # or NumericError, never a user error
        rng = np.random.default_rng([seed, n])
        d = np.diag(0.9 * np.exp(2j * np.pi * rng.uniform(size=n)) * rng.uniform(size=n))
        a = d + scaled(seeded_inputs(seed, n, "upper")["a"], k)
        inputs = {"a": a, "direction": d[::-1, ::-1] / 2.0, "conjugate": a.T.copy()}
        code, out, err = run_scaled(tmp_path_factory.mktemp("nilpotent"), command, inputs, 0)
        assert_one_answer(code, out, err)
        assert code == 0 or json.loads(err)["kind"] == "NumericError"
        if command == "bounds":
            assert code == 0

    @given(seed=st.integers(0, 2**16), n=st.integers(2, 5), shape=st.sampled_from(SHAPES))
    @settings(max_examples=20)
    def test_classify_verdict_is_the_same_at_every_scale(self, tmp_path_factory, seed, n, shape):
        # a 2^k A with subnormal parts has lost bits of A: it is another
        # matrix, whose verdict may differ (a strictly upper A may round to 0)
        a = seeded_inputs(seed, n, shape)["a"]
        workdir = tmp_path_factory.mktemp("verdict")
        verdicts = set()
        for k in (-1074, -1040, -1000, -600, -300, -20, 0, 20, 300, 600, 1000, 1020, 1023):
            code, out, err = run_scaled(workdir, "classify", {"a": a}, k)
            assert_one_answer(code, out, err)
            if code == 0 and np.array_equal(scaled(scaled(a, k), -k), a):
                verdicts.add(json.loads(out)["outputs"]["nonderogatory"])
        assert len(verdicts) == 1


class TestConsoleScript:
    @pytest.mark.parametrize(
        "argv, code", [(["sample", "--n", "2", "--samples", "3"], 0), (["sample", "--n", "0"], 2)]
    )
    def test_run_exits_with_the_code_of_main(self, monkeypatch, capsys, argv, code):
        assert main(argv) == code
        printed = capsys.readouterr()
        monkeypatch.setattr(sys, "argv", ["spectralball", *argv])
        with pytest.raises(SystemExit) as exit_info:
            cli.run()
        assert exit_info.value.code == code
        assert capsys.readouterr() == printed


class TestSampling:
    def test_deterministic(self):
        a = sample_omega(3, 5, 9)
        b = sample_omega(3, 5, 9)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_radii_below_one(self):
        for m in sample_omega(4, 50, 1):
            assert sb.spectrum(m).radius < 1.0

    def test_invalid(self):
        with pytest.raises(sb.InvalidInputError):
            sample_omega(0, 5, 1)
