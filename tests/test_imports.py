"""Import footprint: the library runs on numpy alone.

Discs, iso curves, the constant-spectrum verifier and all eight CLI
commands run in a fresh interpreter without loading any scipy module,
whose import costs each process about 0.3 s and 28 MB."""

import json
import os
import subprocess
import sys
from pathlib import Path

import spectralball as sb

COMMANDS = {"classify", "sigma", "bounds", "blaschke", "curve", "hull", "discontinuity", "sample"}

SCRIPT = r"""
import contextlib, io, json, os, sys, tempfile
import numpy as np
import spectralball as sb
from spectralball import cli

a = np.array([[0.2, 0.1, 0.0], [0.0, -0.3, 0.4], [0.1, 0.0, 0.5j]])
b = np.array([[0.6, 0.0, 0.2], [0.3, 0.1j, 0.0], [0.0, 0.2, -0.4]])
q = sb.matrix_exp(0.2j * np.array([[1.0, 0.5, 0.0], [0.5, 0.0, 0.3], [0.0, 0.3, -1.0]]))
sb.upper_bound_disc(a, b, 0.99)
curve = sb.iso_spectral_curve(a, q @ a @ q.conj().T)
assert sb.verify_constant_spectrum(curve, sb.spectrum(a)).passed
y = np.array([[0.1, 0.2, 0.0], [0.0, 0.1j, 0.3], [0.2, 0.0, -0.1]])
runs = [
    ["classify", "--input", "a"],
    ["sigma", "--input", "a"],
    ["bounds", "--input", "a", "--input2", "b"],
    ["blaschke", "--input", "a"],
    ["curve", "--input", "a", "--input2", "rotated", "--kind", "iso"],
    ["curve", "--input", "a", "--input2", "direction", "--kind", "zero-metric"],
    ["curve", "--input", "a2", "--input2", "direction2", "--kind", "quadratic"],
    ["hull", "--input", "a"],
    ["discontinuity", "--input", "a"],
    ["sample", "--n", "3", "--samples", "2"],
]
documents = {
    "a": a, "b": b, "rotated": q @ a @ q.conj().T, "direction": a @ y - y @ a,
    "a2": a[:2, :2], "direction2": a[:2, :2] @ y[:2, :2] - y[:2, :2] @ a[:2, :2],
}
codes = []
with tempfile.TemporaryDirectory() as tmp:
    paths = {}
    for name, m in documents.items():
        paths[name] = os.path.join(tmp, name + ".json")
        with open(paths[name], "w") as fh:
            json.dump(cli.emit_matrix(m), fh)
    for argv in runs:
        argv = [paths.get(arg, arg) for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append((argv[0], cli.main(argv)))
print(json.dumps({"codes": codes, "loaded": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def test_library_and_cli_do_not_import_scipy():
    src = str(Path(sb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["loaded"] == []
    assert {command for command, _ in result["codes"]} == COMMANDS
    assert all(code == 0 for _, code in result["codes"]), result["codes"]
