import json

import numpy as np
import pytest

import spectralball as sb
from spectralball.cli import _to_json, emit_matrix, main, parse_matrix, sample_omega
from conftest import random_gaussian


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
        with pytest.raises(sb.InvalidInputError):
            parse_matrix({"n": 1, "rows": [[[float("inf"), 0.0]]]})

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
        assert len(doc["outputs"]["criteria"]) == 6
        # residual recomputation from the emitted input document
        a = parse_matrix(doc["inputs"]["matrix"])
        poly = sb.minimal_polynomial(a)
        recomputed = float(np.linalg.norm(poly.on_matrix(a)))
        assert abs(recomputed - doc["residuals"]["minimal_polynomial_norm"]) <= 1e-12

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

    def test_bounds_scalar_reports_exact(self, tmp_path, capsys):
        p1 = write_matrix(tmp_path / "a.json", np.zeros((2, 2)))
        p2 = write_matrix(tmp_path / "b.json", np.diag([0.5, 0.2]))
        code, out, _ = run_cli(capsys, "bounds", "--input", p1, "--input2", p2)
        assert code == 0
        doc = json.loads(out)
        assert doc["outputs"]["scalar_base_exact"] == pytest.approx(0.5)

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

    def test_curve_iso(self, tmp_path, capsys):
        p1 = write_matrix(tmp_path / "a.json", np.diag([0.3, 0.5]))
        p2 = write_matrix(tmp_path / "b.json", np.array([[0.3, 7.0], [0.0, 0.5]]))
        code, out, _ = run_cli(capsys, "curve", "--input", p1, "--input2", p2, "--kind", "iso")
        assert code == 0
        doc = json.loads(out)
        assert doc["outputs"]["constant_spectrum"]["passed"] is True
        assert doc["residuals"]["endpoint_target"] <= 1e-8

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
            assert doc["residuals"]["derivative"] == 0.0

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
        assert rep["kobayashi"]["generic_limit"] is None
        expected = sb.lempert_scalar_base(0.2, np.diag([0.8, 0.0]))
        assert rep["lempert"]["value_at_scalar_base"] == pytest.approx(expected)
        assert rep["lempert"]["generic_limit_upper"] < expected

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
            ("classify", "--samples"), ("classify", "--radius"),
            ("sigma", "--tol"), ("sigma", "--seed"), ("sigma", "--samples"), ("sigma", "--radius"),
            ("bounds", "--tol"), ("bounds", "--seed"), ("bounds", "--samples"), ("bounds", "--radius"),
            ("blaschke", "--seed"), ("blaschke", "--samples"), ("blaschke", "--radius"),
            ("curve", "--seed"),
            ("hull", "--tol"), ("hull", "--seed"), ("hull", "--samples"), ("hull", "--radius"),
            ("discontinuity", "--seed"), ("discontinuity", "--samples"), ("discontinuity", "--radius"),
        ],
    )
    def test_unread_flag_exit_2(self, tmp_path, capsys, command, flag):
        # each command takes only the flags its handler reads
        path = write_matrix(tmp_path / "a.json", np.diag([0.3, 0.1]))
        inputs = ["--input", path] + (["--input2", path] if command in ("bounds", "curve") else [])
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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_output_exit_3(self, tmp_path, capsys):
        # the gauge |tr A| / n overflows to inf, which JSON cannot hold
        path = write_matrix(tmp_path / "a.json", np.diag([1e308, 1e308]))
        code, out, err = run_cli(capsys, "hull", "--input", path)
        assert code == 3
        assert out == ""
        assert json.loads(err)["kind"] == "NumericError"

    def test_outside_ball_exit_2(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "b.json", np.diag([1.5, 0.0]))
        code, _, _ = run_cli(capsys, "discontinuity", "--input", path)
        assert code == 2


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

    def test_library_function(self):
        assert sample_omega is sb.sample_omega
