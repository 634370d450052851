"""Time one fresh-process set-up: imports plus warm-up of the lazy paths.

Usage: ``python3 setup_probe.py <workload> <src dir> <work dir>``; prints the
seconds from the first line of this script (interpreter start-up excluded)
to the end of the warm-up.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402


def main():
    workload, src, workdir = sys.argv[1:4]
    sys.path.insert(0, src)
    import harness

    ops = harness.Ops(workload, src, workdir, in_process_cli=workload == "cli-docs")
    harness.warm_up(ops, workload)
    print(time.perf_counter() - T0)


if __name__ == "__main__":
    main()
