#!/usr/bin/env python3
"""Compare saved benchmark runs of two commits.

Save each run's standard output to a file, for example::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 > before-1.txt

then::

    python3 perfbench/compare.py --before before-*.txt --after after-*.txt

For each workload and metric this prints the median and quartiles of each
side and the change of the medians.  Runs whose machine facts (cores, Python,
numpy, scipy, BLAS, pinned threads) differ are flagged, because their
figures are not comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

MACHINE_FACTS = ("nproc", "cpu_affinity", "python", "numpy", "scipy", "blas",
                 "blas_threads", "machine")


def load(path):
    lines = Path(path).read_text().strip().splitlines()
    prov = next(json.loads(x)["provenance"] for x in lines if x.startswith('{"provenance"'))
    return prov, json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare saved benchmark runs.")
    p.add_argument("--before", nargs="+", required=True)
    p.add_argument("--after", nargs="+", required=True)
    args = p.parse_args(argv)

    runs = [("before", *load(f)) for f in args.before] + [("after", *load(f)) for f in args.after]
    facts = {tuple((k, prov.get(k)) for k in MACHINE_FACTS) for _, prov, _ in runs}
    if len(facts) > 1:
        print("WARNING: machine facts differ between runs; the comparison is not valid:")
        for f in sorted(facts):
            print("   ", dict(f))

    table = {}
    for side, prov, result in runs:
        for name, m in result["metrics"].items():
            key = (prov["workload"], name, m["unit"])
            table.setdefault(key, {"before": [], "after": []})[side].append(m["value"])
    for (workload, name, unit), sides in sorted(table.items()):
        if not sides["before"] or not sides["after"]:
            continue
        b, a = quartiles(sides["before"]), quartiles(sides["after"])
        change = (a[1] - b[1]) / b[1] if b[1] else float("nan")
        print(f"{workload:16s} {name:44s} {unit:10s} "
              f"before {b[1]:.5g} [{b[0]:.5g}, {b[2]:.5g}]  "
              f"after {a[1]:.5g} [{a[0]:.5g}, {a[2]:.5g}]  {change:+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
