"""Import footprint: what each entry point loads.

The library runs on numpy alone.  Discs, iso curves, the constant-spectrum
verifier and all eight CLI commands run in a fresh interpreter without
loading any scipy module, whose import costs each process about 0.3 s and
28 MB.

``import spectralball`` loads no submodule and no numpy: each exported name
imports the submodule that defines it on first access and is then bound in
the package namespace.  The CLI loads ``cli``, ``errors`` and ``matcore``
for parsing and emitting, and each command adds only the library modules it
calls (``MODULES``), so no process compiles modules it does not run.  Every
case runs in its own fresh interpreter on the installed package or, with
``PYTHONPATH=src``, on the source tree.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spectralball as sb
from spectralball import cli

RUNS = [
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

#: Package modules loaded after ``cli.main`` runs each command, for every command.
CLI_MODULES = {"cli", "errors", "matcore"}
MODULES = {
    "classify": CLI_MODULES | {"nonderog"},
    "sigma": CLI_MODULES,
    "bounds": CLI_MODULES | {"geometry"},
    "blaschke": CLI_MODULES | {"geometry", "pick"},
    "curve": CLI_MODULES | {"curves", "geometry", "nonderog"},
    "hull": CLI_MODULES | {"geometry"},
    "discontinuity": CLI_MODULES | {"geometry", "pick"},
    "sample": CLI_MODULES | {"geometry", "nonderog"},
}

SCRIPT = r"""
import contextlib, io, json, sys
import spectralball as sb
from spectralball import cli

paths, runs = json.loads(sys.argv[1])

def load(name):
    with open(paths[name], encoding="utf-8") as fh:
        return cli.parse_matrix(json.load(fh))

a, b, rotated = load("a"), load("b"), load("rotated")
sb.upper_bound_disc(a, b, 0.99)
curve = sb.iso_spectral_curve(a, rotated)
assert sb.verify_constant_spectrum(curve, sb.spectrum(a)).passed
codes = []
for argv in runs:
    argv = [paths.get(arg, arg) for arg in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append((argv[0], cli.main(argv)))
print(json.dumps({"codes": codes, "loaded": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""

#: One command in a fresh interpreter: its exit code and the package
#: modules loaded once it has run.
COMMAND_SCRIPT = r"""
import contextlib, io, json, sys
from spectralball import cli

paths, argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main([paths.get(arg, arg) for arg in argv])
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("spectralball."))
print(json.dumps({"code": code, "loaded": loaded}))
"""

IMPORT_SCRIPT = r"""
import json, sys
import spectralball
print(json.dumps(sorted(m for m in sys.modules if m.startswith(("spectralball.", "numpy")))))
"""


def _documents() -> dict:
    a = np.array([[0.2, 0.1, 0.0], [0.0, -0.3, 0.4], [0.1, 0.0, 0.5j]])
    b = np.array([[0.6, 0.0, 0.2], [0.3, 0.1j, 0.0], [0.0, 0.2, -0.4]])
    q, _ = sb.expm_pair(0.2j * np.array([[1.0, 0.5, 0.0], [0.5, 0.0, 0.3], [0.0, 0.3, -1.0]]))
    y = np.array([[0.1, 0.2, 0.0], [0.0, 0.1j, 0.3], [0.2, 0.0, -0.1]])
    return {
        "a": a, "b": b, "rotated": q @ a @ q.conj().T, "direction": a @ y - y @ a,
        "a2": a[:2, :2], "direction2": a[:2, :2] @ y[:2, :2] - y[:2, :2] @ a[:2, :2],
    }


@pytest.fixture(scope="module")
def paths(tmp_path_factory) -> dict:
    """Path of each matrix document, by name."""
    tmp = tmp_path_factory.mktemp("documents")
    out = {}
    for name, m in _documents().items():
        out[name] = str(tmp / f"{name}.json")
        Path(out[name]).write_text(json.dumps(cli.emit_matrix(m)), encoding="utf-8")
    return out


def _fresh(script, *args):
    """Parsed last stdout line of *script* run in a fresh interpreter that
    imports the package from where this process found it."""
    src = str(Path(sb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_library_and_cli_do_not_import_scipy(paths):
    result = _fresh(SCRIPT, json.dumps([paths, RUNS]))
    assert result["loaded"] == []
    assert {command for command, _ in result["codes"]} == set(MODULES)
    assert all(code == 0 for _, code in result["codes"]), result["codes"]


def test_package_import_loads_no_submodule_and_no_numpy():
    assert _fresh(IMPORT_SCRIPT) == []


@pytest.mark.parametrize("argv", RUNS, ids=lambda argv: " ".join(argv[:1] + argv[-1:]))
def test_each_command_loads_only_its_modules(paths, argv):
    result = _fresh(COMMAND_SCRIPT, json.dumps([paths, argv]))
    assert result["code"] == 0
    assert set(result["loaded"]) == MODULES[argv[0]]


# ----------------------------------------------------------------------
# the lazy namespace resolves to the submodules' own objects

def test_every_exported_name_is_listed_and_bound_by_star_import():
    assert len(set(sb.__all__)) == len(sb.__all__)
    assert set(sb.__all__) <= set(dir(sb))
    namespace = {}
    exec("from spectralball import *", namespace)
    assert set(sb.__all__) <= set(namespace)


def test_exported_names_are_the_defining_modules_objects():
    for module, names in sb._EXPORTS.items():
        owner = getattr(sb, module)
        for name in names:
            value = getattr(sb, name)
            assert value is getattr(owner, name), name
            assert vars(sb)[name] is value, name
            if inspect.isfunction(value) or inspect.isclass(value):
                assert value.__module__ == owner.__name__, name


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        sb.no_such_name
    with pytest.raises(AttributeError):
        cli.no_such_name
    assert not hasattr(sb, "_private")
