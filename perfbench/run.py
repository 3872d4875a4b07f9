"""Host-cost benchmark of the replicated-object stack: one command.

Run from the root of a checkout of the repository::

    python3 perfbench/run.py --workload sim-ordered --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload live-rw --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload live-rw --seed 1 --seconds 30 --overload
    python3 perfbench/run.py --selftest

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
traced run and reports the per-layer metrics.  Every metric is printed
with its name, unit and direction; the last line of standard output is
one JSON object with the metrics declared in ``BENCHMARK.json``.  A
failed correctness check exits with code 1 and prints no result.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
WORKLOADS = ("sim-ordered", "live-rw", "sim-recovery")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--overload", action="store_true",
                        help="live-rw: also run the ladder steps past the "
                             "overload knee; their unanswered requests "
                             "count as failed")
    parser.add_argument("--selftest", action="store_true",
                        help="short mode of every workload plus seeded "
                             "violations; exits non-zero on any failure")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.overload and (args.workload != "live-rw" or args.trace):
        parser.error("--overload applies to untraced live-rw only")
    return args


def _declared(trace: bool):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def _print_metric(name: str, value: float, unit: str, better: str,
                  tag: str = "") -> None:
    print(f"  {name:<42} {value:>14.6g} {unit:<9} "
          f"({better} is better){tag}")


def report(workload: str, trace: bool, result) -> dict:
    """Print every metric; return the JSON result line's object."""
    from perfbench.workloads import E2E_UNITS

    declared = _declared(trace)
    names = {m["name"] for m in declared}
    missing = names - result.metrics.keys()
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    print(f"== {workload} ({'traced, per-layer' if trace else 'end-to-end'})")
    for note in result.notes:
        print(f"  # {note}")
    for m in declared:
        _print_metric(m["name"], result.metrics[m["name"]], m["unit"],
                      m["better"])
    for name, value in result.metrics.items():
        if name not in names:
            unit, better = E2E_UNITS[name]
            _print_metric(name, value, unit, better, "  [this workload]")
    return {
        "correct": True,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {m["name"]: {"value": result.metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: program source not found at {SRC}/repro; run "
              f"from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench.checks import CheckFailure

    if args.selftest:
        from perfbench.selftest import run_selftest
        return run_selftest()
    from perfbench.workloads import run

    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), OUT_DIR, args.overload)
    except CheckFailure as exc:
        print(f"perfbench: CHECK FAILED: {exc}", file=sys.stderr)
        return 1
    line = report(args.workload, bool(args.trace), result)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
