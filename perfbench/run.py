#!/usr/bin/env python3
"""spectralball benchmark.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Workloads: classify-survey, certify, curves, cli-docs (see perfbench/README.md).
With ``--trace 0`` the run measures the end-to-end metrics over a fixed,
seed-determined set of reports, passed over once and then repeated until
``--seconds`` is used; with ``--trace 1`` it alternates untraced and traced
passes over a fixed block of reports and reports the per-layer metrics.
Every report's output is checked.  ``attempted`` and ``failed`` count the
distinct reports of the set or block, so they repeat exactly for a seed.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The metric names and units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: BLAS/OpenMP threads, pinned for the run and its child processes.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: Fresh processes timed for set-up; the median is reported.
SETUP_PROBES = 5

#: Units of the printed metrics that BENCHMARK.json does not list.
EXTRA_UNITS = {"reports_per_s": "1/s", "report_ms_p50": "ms", "report_ms_tail": "ms",
               "fail_ratio": "ratio"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    p.add_argument("--workload", required=True,
                   choices=("classify-survey", "certify", "curves", "cli-docs"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _untraced(H, args, workdir):
    setup = H.measure_setup(args.workload, SRC, workdir, SETUP_PROBES)
    ops = H.Ops(args.workload, SRC, workdir)
    H.warm_up(ops, args.workload)
    distinct = H.distinct_reports(args.workload, args.seconds)
    deadline = time.perf_counter() + args.seconds
    stream = H.run_cycled(ops, args.workload, args.seed, distinct, deadline)
    e2e, (tail_pct, tail_beyond) = H.end_to_end(stream)
    checked, changed = H.first_pass(stream.outcomes, distinct)
    e2e["fail_ratio"] = sum(1 for o in checked if o.status != "ok") / len(checked)
    # set-up seconds at the reference baseline-spawn speed, so host drift cancels
    e2e["setup_s"] = H.REFERENCE_SPAWN_S * statistics.median(s / b for s, b in setup)
    # for cli-docs, the largest CLI document process (set-up probes excluded)
    e2e["peak_rss_mb"] = (ops.child_rss_kb / 1024.0 if args.workload == "cli-docs"
                          else H.peak_rss_mb())
    host = {
        "calibration": ops.calibrate.__name__,
        "calibration_ms_median": 1e3 * statistics.median(stream.calibrations),
        "calibrations": len(stream.calibrations),
        "reports_timed": len(stream.outcomes),
        "repeats_with_changed_status": changed,
        "tail_percentile": tail_pct,
        "tail_samples_beyond": tail_beyond,
        "setup_raw_s": [s for s, _ in setup],
        "setup_baseline_s": [b for _, b in setup],
    }
    return stream.outcomes, checked, e2e, host, True


def _traced(H, args, workdir):
    import spectralball
    import workloads as W
    from tracer import Tracer

    ops = H.Ops(args.workload, SRC, workdir, in_process_cli=args.workload == "cli-docs")
    H.warm_up(ops, args.workload)
    tracer = Tracer(spectralball)
    block = range(H.TRACE_BLOCK[args.workload])
    deadline = time.perf_counter() + args.seconds
    calls, self_s, errors = Counter(), Counter(), Counter()
    top = report_s = 0.0
    evals = certs = 0
    ratios, outcomes, correct = [], [], True
    # classify time per call by matrix size, so the cost of each size can be
    # read without the survey's size weights
    survey = args.workload == "classify-survey"
    sizes = [W.report_at(args.workload, args.seed, i).n for i in block] if survey else []
    classify_s = {n: [] for n in W.SURVEY_SIZES[0]}
    while True:
        plain = H.run_stream(ops, args.workload, args.seed, block)
        ops.tracer = tracer
        tracer.clear()
        with tracer.installed():
            traced = H.run_stream(ops, args.workload, args.seed, block)
        ops.tracer = None
        if [(o.status, o.summary) for o in plain.outcomes] != [
            (o.status, o.summary) for o in traced.outcomes
        ]:
            correct = False
            print("perfbench: traced pass differs from untraced pass", file=sys.stderr)
        ratios.append(H.end_to_end(traced)[0]["norm_report_mean"]
                      / H.end_to_end(plain)[0]["norm_report_mean"])
        c, s, t = tracer.totals()
        calls.update(c)
        self_s.update(s)
        errors.update(tracer.errors)
        top += t
        report_s += sum(o.seconds for o in traced.outcomes)
        if survey:
            spans = tracer.durations("nonderog.classify", top_level=True)
            assert len(spans) == len(sizes), "one top-level classify per survey report"
            for n, secs in zip(sizes, spans):
                classify_s[n].append(secs)
        evals += tracer.count_under("pick.pick_matrix", "pick.blaschke_through_roots_of_unity")
        certs += c.get("pick.blaschke_through_roots_of_unity", 0)
        outcomes += plain.outcomes + traced.outcomes
        if time.perf_counter() >= deadline:
            break
    reports = len(ratios) * len(block)
    layer = {}
    for name in calls:
        layer[f"{name}.calls"] = calls[name] / reports
        layer[f"{name}.self_ms"] = 1e3 * self_s[name] / reports
    for name, v in errors.items():
        layer[name] = v / reports
    for n, secs in classify_s.items():
        if secs:
            layer[f"nonderog.classify.n{n}.ms"] = 1e3 * statistics.median(secs)
    layer["pick.evals_per_certificate"] = evals / certs if certs else 0.0
    layer["trace.overhead_ratio"] = statistics.median(ratios)
    layer["trace.coverage"] = top / report_s
    for key, value in H.measure_imports(SRC).items():
        layer[f"setup.import.{key}_s"] = value
    checked, changed = H.first_pass(outcomes, len(block))
    host = {"passes": len(ratios), "block_reports": len(block),
            "repeats_with_changed_status": changed}
    return outcomes, checked, layer, host, correct


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "spectralball" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import harness as H

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = dict(EXTRA_UNITS, **{m["name"]: m["unit"] for m in wanted})

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        runner = _traced if args.trace else _untraced
        outcomes, checked, values, host, correct = runner(H, args, workdir)

    wrong = [o for o in outcomes if o.status.startswith("wrong:")]
    if wrong:
        correct = False
        for o in wrong[:10]:
            print(f"perfbench: report {o.index} ({o.kind}): {o.status}", file=sys.stderr)
    failed = [o for o in checked if o.status != "ok"]
    host["failures_by_class"] = dict(Counter(o.status for o in failed))
    host["fail_ratio"] = len(failed) / len(checked)

    print(json.dumps({"provenance": H.provenance(ROOT, SRC, args.workload, args.seed,
                                                  BLAS_THREADS)}))
    print(json.dumps({"host": host}))
    for name in sorted(values):
        unit = units.get(name, "ms/report" if name.endswith("_ms") else "1/report")
        print(f"  {name:48s} {values[name]:<14.6g} {unit}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
    print(json.dumps({"correct": bool(correct), "attempted": len(checked),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
