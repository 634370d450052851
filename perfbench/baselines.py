#!/usr/bin/env python3
"""Reproduce the baseline rows of ROADMAP open item 1 with the tracer.

Usage, from the root of a source checkout::

    python3 perfbench/baselines.py

Prints each row as measured here next to the value the ROADMAP cites.
Times are medians of span durations from the tracer; the cold and process
rows come from fresh interpreters.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def _spans_ms(tracer, name):
    return [1e3 * s for s in tracer.durations(name)]


def _fresh(code, env):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def measure(repeats: int = 5) -> list:
    """Rows of (measurement, value here, value cited in the ROADMAP)."""
    import numpy as np

    import harness as H
    import spectralball as sb
    from tracer import Tracer
    from workloads import _ball

    rng = np.random.default_rng(2007)
    rows = []
    # warm rows: fill the lazy scipy imports first
    sb.gap_certificate(np.diag([0.8, 0.0]))
    sb.upper_bound_disc(np.diag([0.5, 0.1]), np.diag([0.2, 0.3]), 0.9)
    tracer = Tracer(sb)
    with tracer.installed():
        cls = {}
        for n in (2, 8, 16):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            tracer.clear()
            for _ in range(repeats):
                sb.classify(a)
            cls[n] = statistics.median(_spans_ms(tracer, "nonderog.classify"))
        rows.append(("classify, n=2 / 8 / 16 (ms)",
                     " / ".join(f"{cls[n]:.2f}" for n in (2, 8, 16)), "0.53 / 1.9 / 28"))

        gap_ms, evals = [], set()
        for n in range(2, 9):
            b = _ball(rng, n, 0.8)
            tracer.clear()
            sb.gap_certificate(b)
            gap_ms.append(_spans_ms(tracer, "pick.gap_certificate")[0])
            evals.add(tracer.count_under("pick.pick_matrix", "pick.gap_certificate"))
        rows.append(("gap_certificate, n=2..8, r=0.8 (ms)",
                     f"{min(gap_ms):.1f}-{max(gap_ms):.1f}", "3-6"))
        rows.append(("Pick evaluations per certificate, r=0.8",
                     "/".join(str(e) for e in sorted(evals)), "68"))

        disc_ms = []
        for n in range(3, 9):
            a, b = _ball(rng, n, 0.6), _ball(rng, n, 0.6)
            bound, _ = sb.bottleneck_minimax(sb.spectrum(a), sb.spectrum(b))
            tracer.clear()
            sb.upper_bound_disc(a, b, min(bound + 0.01, (bound + 1.0) / 2.0))
            disc_ms.append(_spans_ms(tracer, "geometry.upper_bound_disc")[0])
        rows.append(("upper_bound_disc, n=3..8, warm (ms)",
                     f"{min(disc_ms):.1f}-{max(disc_ms):.1f}", "0.9-2.2"))

        a = _ball(rng, 3, 0.7)
        k = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        w, v = np.linalg.eigh((k + k.conj().T) * 0.05)
        u = (v * np.exp(1j * w)) @ v.conj().T
        curve = sb.iso_spectral_curve(a, u @ a @ u.conj().T)
        tracer.clear()
        for _ in range(repeats):
            sb.verify_constant_spectrum(curve, sb.spectrum(a))
        rows.append(("verify_constant_spectrum, 100 samples (ms)",
                     f"{statistics.median(_spans_ms(tracer, 'curves.verify_constant_spectrum')):.1f}",
                     "19"))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    cold = _fresh(
        "import time, numpy as np, spectralball as sb\n"
        "a = np.diag([0.5, 0.1]); b = np.diag([0.2, 0.3])\n"
        "t = time.perf_counter(); sb.upper_bound_disc(a, b, 0.9)\n"
        "print(time.perf_counter() - t)", env)
    rows.append(("upper_bound_disc, first call, cold (s)", f"{cold:.2f}", "0.22"))

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        doc = Path(tmp, "b.json")
        doc.write_text(json.dumps({"n": 2, "rows": [[[0.8, 0.0], [0.0, 0.0]],
                                                    [[0.0, 0.0], [0.0, 0.0]]]}))
        walls = []
        for _ in range(3):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-m", "spectralball.cli", "discontinuity",
                            "--input", str(doc)], capture_output=True, env=env,
                           timeout=120, check=True)
            walls.append(time.perf_counter() - t0)
    imports = sum(H.measure_imports(SRC).values())
    rows.append(("spectralball discontinuity process (s), of which imports",
                 f"{statistics.median(walls):.2f}, {imports:.2f}", "0.76, 0.68"))
    return rows


def main() -> int:
    sys.path.insert(0, str(SRC))
    for label, here, cited in measure():
        print(f"{label:58s} {here:>20s}   (ROADMAP: {cited})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
