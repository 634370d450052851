"""Import footprint: discs, curves and the CLI pair spectra without
scipy.optimize, whose import costs each process about 0.3 s."""

import json
import os
import subprocess
import sys
from pathlib import Path

import spectralball as sb

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
paths = []
with tempfile.TemporaryDirectory() as tmp:
    for name, m in (("a", a), ("b", b)):
        paths.append(os.path.join(tmp, name + ".json"))
        with open(paths[-1], "w") as fh:
            json.dump(cli.emit_matrix(m), fh)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["bounds", "--input", paths[0], "--input2", paths[1]])
print(json.dumps({"code": code, "loaded": sorted(m for m in sys.modules if m.startswith("scipy.optimize"))}))
"""


def test_pairing_does_not_import_scipy_optimize():
    src = str(Path(sb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result == {"code": 0, "loaded": []}
