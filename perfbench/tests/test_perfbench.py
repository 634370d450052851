"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import spectralball as sb  # noqa: E402
import harness as H  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert W.stream_digest(workload, 3, 60) == W.stream_digest(workload, 3, 60)
    assert W.stream_digest(workload, 3, 60) != W.stream_digest(workload, 4, 60)


def test_tracer_preserves_values_and_exceptions():
    a = np.array([[0.3, 1.0], [0.0, 0.5]], dtype=complex)
    plain_value = sb.classify(a).verdict
    plain_sigma = sb.sigma(a).coords
    with pytest.raises(sb.InvalidInputError) as plain_exc:
        sb.spectrum(np.zeros((2, 3)))
    tracer = Tracer(sb)
    with tracer.installed():
        assert sb.classify(a).verdict == plain_value
        assert np.array_equal(sb.sigma(a).coords, plain_sigma)
        with pytest.raises(sb.InvalidInputError) as traced_exc:
            sb.spectrum(np.zeros((2, 3)))
    assert str(traced_exc.value) == str(plain_exc.value)
    calls, _, _ = tracer.totals()
    # classify reaches matcore through nonderog's own bindings
    assert calls["nonderog.classify"] == 1
    assert calls["matcore.commutation_operator"] == 1
    assert calls["matcore.spectrum"] >= 1
    assert tracer.errors == {"matcore.errors.InvalidInputError": 1}
    # bindings are restored on exit
    assert sb.classify.__module__ == "spectralball.nonderog"
    assert not hasattr(sb.classify, "__wrapped__")


def test_tracer_sees_curve_calls_and_nested_layers():
    rng = np.random.default_rng(0)
    a = np.diag([0.2, 0.5j]) + np.triu(rng.standard_normal((2, 2)), 1)
    y = 0.2 * rng.standard_normal((2, 2))
    tracer = Tracer(sb)
    with tracer.installed():
        curve = sb.zero_metric_curve(a, a @ y - y @ a)
        sb.verify_constant_spectrum(curve, sb.spectrum(a), samples=5)
    calls, self_s, top = tracer.totals()
    assert calls["curves.curve_eval"] == 5
    assert calls["nonderog.classify"] == 1  # curves -> classify
    assert tracer.count_under("geometry.bottleneck_assignment",
                              "curves.verify_constant_spectrum") == 5
    assert top > 0 and all(v >= -1e-9 for v in self_s.values())


def test_roadmap_baseline_rows():
    """Every baseline row of ROADMAP open item 1 is reproduced.  The cited
    68 Pick evaluations per certificate are 50 here for every n = 2..8 at
    r(B) = 0.8: a 21-radius scan, 27 bisection steps and two final solves."""
    import baselines

    rows = {label: here for label, here, _ in baselines.measure(repeats=1)}
    assert len(rows) == 7
    assert rows["Pick evaluations per certificate, r=0.8"] == "50"
    assert all(here for here in rows.values())


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_smoke_every_workload(workload, tmp_path):
    ops = H.Ops(workload, ROOT / "src", str(tmp_path))
    stream = H.run_stream(ops, workload, 11, range(3))
    assert len(stream.outcomes) == 3
    assert not [o.status for o in stream.outcomes if o.status.startswith("wrong:")]
    metrics, _ = H.end_to_end(stream)
    assert metrics["norm_report_mean"] > 0


def test_checked_reports_do_not_depend_on_the_clock(tmp_path):
    """A run checks the same distinct reports however fast the host is: the
    first pass ends even when the deadline has passed, and later passes
    repeat it."""
    ops = H.Ops("certify", ROOT / "src", str(tmp_path))
    late = H.run_cycled(ops, "certify", 7, 6, deadline=0.0)
    assert [o.index for o in late.outcomes] == list(range(6))
    longer = H.run_cycled(ops, "certify", 7, 6, deadline=time.perf_counter() + 0.3)
    assert len(longer.outcomes) > 6
    assert [o.index for o in longer.outcomes[6:12]] == list(range(6))
    checked, changed = H.first_pass(longer.outcomes, 6)
    assert [(o.status, o.summary) for o in checked] == [
        (o.status, o.summary) for o in late.outcomes]
    assert changed == 0
    assert H.distinct_reports("certify", 20) % W.CYCLE["certify"] == 0


def test_cli_docs_peak_rss_is_the_documents_own(tmp_path):
    """The cli-docs memory figure is that of the CLI documents alone, not of
    a larger child (such as a set-up probe) reaped before them."""
    big_mb = 256
    subprocess.run([sys.executable, "-c", f"import numpy; numpy.ones({big_mb} << 17)"],
                   check=True, timeout=60)
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024 >= big_mb
    ops = H.Ops("cli-docs", ROOT / "src", str(tmp_path))
    H.run_stream(ops, "cli-docs", 5, range(2))
    assert 0 < ops.child_rss_kb / 1024 < big_mb


def test_cli_run_prints_contract_line():
    env = dict(os.environ)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "certify",
         "--seed", "2", "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["pick.pick_matrix.calls"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
