"""Self-tests of the benchmark: ``python3 perfbench/run.py --selftest``.

* a short mode of every workload, untraced and traced, prints every
  metric declared in ``BENCHMARK.json`` with its name, unit and direction;
* the call ledger repeats exactly for one seed, across two processes with
  different hash seeds, and another seed still passes every check;
* seeded violations — one replica's state corrupted before the final
  digest, a write executed twice — fail the checks;
* ``--overload`` runs the steps past the knee and counts their failures.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

from perfbench import live_rw
from perfbench.checks import CheckFailure
from perfbench.workloads import run, run_live, run_sim

SHORT_SECONDS = {"sim-ordered": 1.5, "sim-recovery": 1.5, "live-rw": 4.0}

_LEDGER_SNIPPET = """
import json, sys
sys.path[:0] = [{src!r}, {root!r}]
from perfbench.workloads import _sim_ledger
calls, ops = _sim_ledger({seed}, False)
print(json.dumps({{"calls": calls, "ops": ops}}))
"""


def _check_printed(workload: str, trace: bool, out_dir: str) -> None:
    from perfbench.run import _declared, report

    result = run(workload, 7, SHORT_SECONDS[workload], trace, out_dir)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        line = report(workload, trace, result)
    lines = buf.getvalue().splitlines()
    for m in _declared(trace):
        if not any(ln.split()[:1] == [m["name"]] and f" {m['unit']} " in ln
                   and f"({m['better']} is better)" in ln for ln in lines):
            raise AssertionError(f"{workload}: {m['name']} not printed "
                                 f"with unit and direction")
        if m["name"] not in line["metrics"]:
            raise AssertionError(f"{workload}: {m['name']} not in result")
    json.dumps(line)


def _ledger_in_subprocess(seed: int, hash_seed: str) -> dict:
    from perfbench.run import ROOT, SRC

    code = _LEDGER_SNIPPET.format(src=SRC, root=ROOT, seed=seed)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_ledger() -> None:
    first = _ledger_in_subprocess(3, "1")
    second = _ledger_in_subprocess(3, "2")
    if first != second:
        raise AssertionError(f"call ledger differs between runs of one "
                             f"seed: {first} vs {second}")
    _ledger_in_subprocess(4, "1")       # another seed passes the checks


def _corrupt_one(servants) -> None:
    servants[-1].data["corrupted-by-selftest"] = 1


def _write_twice(servants) -> None:
    for s in servants:
        s.write_ids.append(s.write_ids[-1])


class _LiveViolation(live_rw.NoHooks):
    def __init__(self, mutate) -> None:
        self.mutate = mutate

    def before_final_check(self, servants) -> None:
        self.mutate(servants)


def _check_overload() -> None:
    ladder = live_rw.LADDER + live_rw.OVERLOAD_STEPS
    result = run_live(6, SHORT_SECONDS["live-rw"], overload=True)
    steps = [n for n in result.notes if n.startswith("step ")]
    if [int(n.split()[1].split("=")[1]) for n in steps] != list(ladder):
        raise AssertionError(f"overload ladder ran {steps}, not {ladder}")
    failed = sum(int(n.split()[3].split("=")[1]) for n in steps)
    if result.failed < failed or result.metrics["fail_ratio"] != (
            result.failed / result.attempted):
        raise AssertionError(f"overload failures not counted: {failed} "
                             f"in steps, {result.failed} in the result")


def _expect_failure(label: str, fn) -> None:
    try:
        fn()
    except CheckFailure as exc:
        print(f"  seeded violation caught ({label}): {exc}")
        return
    raise AssertionError(f"seeded violation not caught: {label}")


def run_selftest() -> int:
    from perfbench.run import OUT_DIR

    os.makedirs(OUT_DIR, exist_ok=True)
    cases = []
    for workload in SHORT_SECONDS:
        for trace in (False, True):
            cases.append((f"{workload} trace={int(trace)} prints all "
                          f"declared metrics",
                          lambda w=workload, t=trace:
                          _check_printed(w, t, OUT_DIR)))
    cases += [
        ("call ledger repeats exactly for one seed", _check_ledger),
        ("live-rw --overload runs and counts every step", _check_overload),
        ("sim-ordered: corrupted replica fails the digest check",
         lambda: _expect_failure("sim digest", lambda: run_sim(
             5, 0.5, False, hooks=_corrupt_one))),
        ("live-rw: corrupted replica fails the digest check",
         lambda: _expect_failure("live digest", lambda: run_live(
             5, 2.0, hooks=_LiveViolation(_corrupt_one)))),
        ("live-rw: a write executed twice fails exactly-once",
         lambda: _expect_failure("live exactly-once", lambda: run_live(
             5, 2.0, hooks=_LiveViolation(_write_twice)))),
    ]
    failures = 0
    for name, fn in cases:
        try:
            with contextlib.redirect_stdout(io.StringIO()) as buf:
                fn()
        except Exception as exc:   # report every case, then fail
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
            for ln in buf.getvalue().splitlines():
                if "seeded violation caught" in ln:
                    print(ln)
    print(f"selftest: {len(cases) - failures}/{len(cases)} passed")
    return 1 if failures else 0
