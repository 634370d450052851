"""Closed-loop report runner, calibration kernel, statistics and provenance.

One client in one process sends the next report only after the previous one
returned.  Between blocks of reports a calibration is timed: a fixed numpy
kernel for in-process reports, a baseline interpreter spawn for reports that
are processes.  Report times divided by the adjacent calibration are the
host-drift-compensated (``norm_*``) figures: on a shared host the same work
can take half again as long from one process to the next, while the ratio
to the calibration stays within a few percent.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import spectralball as sb
import workloads as W

HERE = Path(__file__).resolve().parent

#: A calibration is taken after this many reports or this much report time
#: (one second for spawned CLI documents).
BLOCK_REPORTS = 50
BLOCK_SECONDS = 0.25

#: An untraced run checks a fixed set of distinct reports: this many whole
#: cycles of the stream (``workloads.CYCLE``) per second of run, sized so one
#: pass over them takes about 40 % of the run on a 2-core host.  The run
#: makes that pass whatever the clock says, then repeats the set until the
#: deadline; so ``attempted`` and ``failed`` depend only on the seed and the
#: run length, not on the host's speed.
CYCLES_PER_SECOND = {"classify-survey": 0.5, "certify": 0.5, "curves": 0.15, "cli-docs": 0.05}

#: Fixed reports per traced block, sized so one untraced + traced pair of
#: passes takes a few seconds on a 2-core host.
TRACE_BLOCK = {"classify-survey": 300, "certify": 400, "curves": 60, "cli-docs": 40}

#: Tail percentiles tried from the top; the first with ten samples beyond wins.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

_CAL_RNG = np.random.default_rng(20070)
_CAL_SMALL = _CAL_RNG.standard_normal((8, 8)) + 1j * _CAL_RNG.standard_normal((8, 8))
_CAL_MID = _CAL_RNG.standard_normal((16, 16)) + 1j * _CAL_RNG.standard_normal((16, 16))
_CAL_VEC = _CAL_RNG.standard_normal(6) + 1j * _CAL_RNG.standard_normal(6)


def _kernel():
    """Fixed work shaped like a report: small LAPACK calls, tiny-array numpy
    dispatch and interpreter bytecode."""
    for _ in range(4):
        np.linalg.eigvals(_CAL_SMALL)
    np.linalg.svd(_CAL_MID)
    m = _CAL_MID
    for _ in range(8):
        m = _CAL_MID @ m / 16.0
    v = _CAL_VEC
    for _ in range(60):
        v = np.abs(v - v.conj()) * 0.25 + v * 0.5
    acc = 0
    for i in range(1500):
        acc += (i * i) % 7


def calibrate() -> float:
    """Seconds for the fixed calibration kernel (median of five)."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


#: A fresh interpreter importing a fixed set of standard-library modules.
#: Process start and imports slow down with the host in ways the in-process
#: kernel does not see (page faults, file reads), so fresh-process times
#: are normalized by this spawn instead.
SPAWN_BASELINE = ("import argparse, asyncio, dataclasses, decimal, email.mime.multipart, "
                  "http.client, inspect, json, typing, unittest, xml.dom.minidom")

#: Set-up time is measured in baseline spawns (drift cancels in the ratio)
#: and reported in seconds at this fixed spawn time: 0.18 s is the median
#: baseline spawn over 80 runs on a 2-core x86-64 cloud host (two sets of
#: 40 runs gave 0.158 s and 0.189 s).  The raw seconds are host facts.
REFERENCE_SPAWN_S = 0.18


def spawn_baseline() -> float:
    """Seconds for one fresh interpreter running SPAWN_BASELINE."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SPAWN_BASELINE], check=True,
                   capture_output=True, timeout=60)
    return time.perf_counter() - t0


@dataclass
class Outcome:
    index: int
    kind: str
    seconds: float
    norm: float = 0.0
    status: str = "ok"  # ok | error:<Class> | wrong:<what>
    summary: tuple = ()


@dataclass
class Stream:
    outcomes: list = field(default_factory=list)
    calibrations: list = field(default_factory=list)


# ----------------------------------------------------------------------
# report operations per workload

class Ops:
    """prepare (untimed) -> compute (timed) -> check (untimed) for a workload."""

    def __init__(self, workload, src, workdir=None, in_process_cli=False):
        self.tracer = None
        self.workload = workload
        self.src = str(src)
        self.workdir = workdir
        self.in_process_cli = in_process_cli
        self.cli = importlib.import_module("spectralball.cli") if in_process_cli else None
        self.child_rss_kb = 0  # largest peak RSS of a spawned CLI document
        spawns = workload == "cli-docs" and not in_process_cli
        self.calibrate = spawn_baseline if spawns else calibrate
        self.block_seconds = 1.0 if spawns else BLOCK_SECONDS

    def prepare(self, report, index):
        if self.workload != "cli-docs":
            return report
        return W.cli_argv(report, self.workdir, f"doc{index}")

    def compute(self, prepared):
        if self.workload != "cli-docs":
            return W.compute(prepared)
        if not self.in_process_cli:
            code, out, err, rss_kb = W.cli_process(prepared, self.src, self.workdir)
            self.child_rss_kb = max(self.child_rss_kb, rss_kb)
            return code, out, err
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(prepared)
        return code, out.getvalue(), err.getvalue()

    def check(self, report, result):
        with self.tracer.paused() if self.tracer else contextlib.nullcontext():
            if self.workload != "cli-docs":
                return W.check(report, result)
            return W.check_cli(report, *result)


def run_report(ops, workload, seed, index) -> Outcome:
    """Prepare, time, and check report *index*.

    A report fails when the library raises or its own verifier reports
    failure (status ``error:<Class>``), and is wrong when its output does
    not pass the check (status ``wrong:...``).
    """
    report = W.report_at(workload, seed, index)
    prepared = ops.prepare(report, index)
    t0 = time.perf_counter()
    try:
        result = ops.compute(prepared)
    except Exception as exc:  # every raise on these valid inputs is a failure
        status = f"error:{type(exc).__name__}"
        return Outcome(index, report.kind, time.perf_counter() - t0, status=status,
                       summary=(status, str(exc)))
    seconds = time.perf_counter() - t0
    try:
        summary = ops.check(report, result)
    except W.ReportedFailure as exc:
        status = f"error:{exc.kind}"
    except Exception as exc:  # failed check or malformed output
        status = f"wrong:{type(exc).__name__}: {exc}"
    else:
        return Outcome(index, report.kind, seconds, summary=summary)
    return Outcome(index, report.kind, seconds, status=status, summary=(status,))


def _close_block(ops, stream, block):
    """Calibrate after *block* and normalize its reports by the mean of the
    calibrations before and after it."""
    before = stream.calibrations[-1]
    after = ops.calibrate()
    stream.calibrations.append(after)
    for out in block:
        out.norm = out.seconds / ((before + after) / 2.0)
    stream.outcomes.extend(block)


def run_stream(ops, workload, seed, indices, deadline=None, at_least=0) -> Stream:
    """Run reports closed loop, calibrating between blocks.

    Stops at the end of *indices* or once *deadline* (perf_counter) passes
    and at least *at_least* reports have run.
    """
    stream = Stream(calibrations=[ops.calibrate()])
    block, block_time = [], 0.0
    for count, index in enumerate(indices, 1):
        out = run_report(ops, workload, seed, index)
        block.append(out)
        block_time += out.seconds
        done = (deadline is not None and count >= at_least
                and time.perf_counter() >= deadline)
        if done or len(block) >= BLOCK_REPORTS or block_time >= ops.block_seconds:
            _close_block(ops, stream, block)
            block, block_time = [], 0.0
        if done:
            break
    if block:
        _close_block(ops, stream, block)
    return stream


def distinct_reports(workload, seconds) -> int:
    """Distinct reports an untraced run of *seconds* checks."""
    return max(1, int(seconds * CYCLES_PER_SECOND[workload])) * W.CYCLE[workload]


def run_cycled(ops, workload, seed, distinct, deadline) -> Stream:
    """Run reports 0 .. *distinct* - 1 once, however long that takes, then
    again from the start until *deadline* passes."""
    indices = (i % distinct for i in itertools.count())
    return run_stream(ops, workload, seed, indices, deadline, at_least=distinct)


def first_pass(outcomes, distinct):
    """(outcomes of the first pass, count of later outcomes whose status
    differs from the first outcome of the same report)."""
    first = outcomes[:distinct]
    changed = sum(1 for i, o in enumerate(outcomes[distinct:])
                  if o.status != first[i % distinct].status)
    return first, changed


def warm_up(ops, workload):
    """Run one report of every kind once, so lazy imports and caches fill.

    For spawned CLI documents this also puts every command into the peak RSS
    of the documents, however few documents the measured stream reaches."""
    for i, report in enumerate(W.warmup_reports(workload)):
        prepared = ops.prepare(report, f"warm{i}")
        ops.compute(prepared)


# ----------------------------------------------------------------------
# statistics

def tail(values):
    """(percentile, value) at the highest ladder percentile with at least ten
    samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, float(np.percentile(ordered, p))
    return 50.0, float(np.percentile(ordered, 50.0))


def end_to_end(stream: Stream):
    """(metrics, (tail percentile, samples beyond it)) of a stream."""
    outs = stream.outcomes
    secs = [o.seconds for o in outs]
    pct, tail_s = tail(secs)
    metrics = {
        "norm_report_mean": statistics.fmean(secs) / statistics.fmean(stream.calibrations),
        "norm_report_p50": statistics.median(o.norm for o in outs),
        "reports_per_s": len(outs) / sum(secs),
        "report_ms_p50": 1e3 * statistics.median(secs),
        "report_ms_tail": 1e3 * tail_s,
        "fail_ratio": sum(1 for o in outs if o.status != "ok") / len(outs),
    }
    return metrics, (pct, int(round(len(outs) * (1.0 - pct / 100.0))))


# ----------------------------------------------------------------------
# set-up and import timing (fresh processes)

def _child_env(src):
    return dict(os.environ, PYTHONPATH=str(src))


def measure_setup(workload, src, workdir, probes) -> list:
    """Imports plus warm-up in *probes* fresh processes, each as
    (seconds, mean of the baseline spawns before and after it)."""
    samples = []
    before = spawn_baseline()
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(src), str(workdir)],
            capture_output=True, text=True, env=_child_env(src), timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        after = spawn_baseline()
        samples.append((float(proc.stdout.strip().splitlines()[-1]), (before + after) / 2.0))
        before = after
    return samples


_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)")


def measure_imports(src, repeats=3) -> dict:
    """Cumulative import seconds of numpy, scipy.linalg and the package
    (CLI included), each net of the ones before, from ``-X importtime``."""
    groups = {"numpy": ("numpy",), "scipy": ("scipy", "scipy.linalg"),
              "spectralball": ("spectralball", "spectralball.cli")}
    samples = {k: [] for k in groups}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "import numpy; import scipy.linalg; import spectralball.cli"],
            capture_output=True, text=True, env=_child_env(src), timeout=120, check=True,
        )
        top = {}
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if m and m.group(3) == " ":
                top[m.group(4)] = int(m.group(2)) * 1e-6
        for key, names in groups.items():
            samples[key].append(sum(top.get(name, 0.0) for name in names))
    return {k: statistics.median(v) for k, v in samples.items()}


# ----------------------------------------------------------------------
# provenance

def _source_digest(src) -> str:
    h = hashlib.sha256()
    for path in sorted(Path(src, "spectralball").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit(root) -> str:
    if not (Path(root) / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unknown"


def _blas() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError):
        return "unknown"


def provenance(root, src, workload, seed, threads) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": threads,
        "machine": platform.machine(),
        "spectralball": getattr(sb, "__version__", "unknown"),
        "source_sha256": _source_digest(src),
        "git_commit": _git_commit(root),
        "workload": workload,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
