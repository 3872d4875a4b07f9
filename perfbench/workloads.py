"""The three workloads, each in an untraced and a traced form.

Every function returns a :class:`Result`: the operations attempted and
failed, the metrics for the JSON result line, and the issue-level metrics
that apply to this workload only (printed, not part of the result line).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from perfbench import layers, live_rw, sim
from perfbench.checks import CheckFailure
from perfbench.ledger import LEDGER_BINS, count_calls
from perfbench.stats import median

#: Every end-to-end metric the benchmark knows: name -> (unit, better).
#: Only those in ``BENCHMARK.json`` reach the result line; the rest are
#: printed by the workloads they apply to.
E2E_UNITS = {
    "setup_s": ("s", "lower"),
    "ops_per_ref_cpu_s": ("1/s", "higher"),
    "ops_per_cpu_s": ("1/s", "higher"),
    "fail_ratio": ("ratio", "lower"),
    "read_p50_ms": ("ms", "lower"),
    "read_p99_ms": ("ms", "lower"),
    "write_p50_ms": ("ms", "lower"),
    "write_p90_ms": ("ms", "lower"),
    "max_ok_rate": ("1/s", "higher"),
    "sim_latency_ms": ("sim_ms", "lower"),
    "sim_recovery_ms": ("sim_ms", "lower"),
    "sim_stall_ms": ("sim_ms", "lower"),
    "recovery_cpu_ms": ("ms", "lower"),
}

#: Share of ``--seconds`` given to the untraced reference window of a
#: traced run (the traced window gets the rest, less the fixed ledger).
REFERENCE_SHARE = 0.35


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: Dict[str, float]
    notes: List[str] = field(default_factory=list)


def _fail_ratio(attempted: int, failed: int) -> float:
    return failed / attempted if attempted else 0.0


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------

def _sim_window(deployment, seconds: float, run: sim.SimRun,
                recovery: bool, rng: random.Random) -> sim.ReplyClock:
    clock = sim.ReplyClock(deployment)
    if recovery:
        sim.measure_recovery(deployment, seconds, run, clock, rng)
    else:
        sim.measure_ordered(deployment, seconds, run, clock)
    return clock


def run_sim(seed: int, seconds: float, recovery: bool,
            hooks=None) -> Result:
    label = "sim-recovery" if recovery else "sim-ordered"
    rng = random.Random(seed)
    run = sim.SimRun()
    deployment, auditors = sim.deploy(seed, recovery, run, sim.SETUPS)
    clock = _sim_window(deployment, seconds, run, recovery, rng)
    sim.finish(label, deployment, auditors, hooks)
    summary = sim.summarize(run, recovery)
    metrics = {
        "setup_s": summary["setup_s"],
        "ops_per_ref_cpu_s": summary["ops_per_ref_cpu_s"],
        "ops_per_cpu_s": summary["ops_per_cpu_s"],
        "fail_ratio": _fail_ratio(run.ops, clock.exceptions),
    }
    notes = [f"samples: {summary['slices']} slices, {run.ops} operations"]
    if recovery:
        for key in ("sim_recovery_ms", "sim_stall_ms", "recovery_cpu_ms"):
            metrics[key] = summary[key]
        notes.append(f"samples: {summary['cycles']} recovery cycles")
    else:
        metrics["sim_latency_ms"] = summary["sim_latency_ms"]
    return Result(run.ops, clock.exceptions, metrics, notes)


def _sim_ledger(seed: int, recovery: bool) -> Tuple[Dict[str, int], int]:
    """Calls by package over a fixed stretch of simulated time, and the
    operations completed in it."""
    deployment, auditors = sim.deploy(seed, recovery, sim.SimRun(), 1)
    driver = deployment.driver
    ops0 = driver.acked + driver.scribbles_acked
    calls = count_calls(lambda: sim.ledger_segment(deployment, recovery))
    ops = driver.acked + driver.scribbles_acked - ops0
    if recovery and not deployment.server_group.is_operational_on(
            sim.VICTIM):
        raise CheckFailure("ledger: replica did not recover")
    sim.finish("ledger", deployment, auditors)
    return calls, ops


def traced_sim(seed: int, seconds: float, recovery: bool,
               out_dir: str) -> Result:
    label = "sim-recovery" if recovery else "sim-ordered"
    rng = random.Random(seed)
    # 1. Untraced reference window: the denominator of trace_overhead.
    reference = sim.SimRun()
    deployment, auditors = sim.deploy(seed, recovery, reference, 1)
    ref_clock = _sim_window(deployment, seconds * REFERENCE_SHARE,
                            reference, recovery, rng)
    sim.finish(label, deployment, auditors)
    # 2. The exact call ledger (no benchmark code inside the profile).
    calls, ledger_ops = _sim_ledger(seed, recovery)
    # 3. The traced window.
    recorder = layers.SpanRecorder()
    rebound = layers.install(recorder)
    try:
        traced = sim.SimRun()
        deployment, auditors = sim.deploy(seed, recovery, traced, 1)
        system = deployment.system
        recorder.reset()
        counters0 = dict(system.tracer.counters)
        events0 = system.scheduler.events_executed
        bytes0 = layers.state_bytes(system.metrics)
        clock = _sim_window(deployment, seconds * (1 - REFERENCE_SHARE),
                            traced, recovery, rng)
        recorder.stop()
        counters = _delta(system.tracer.counters, counters0)
        metrics = layers.layer_metrics(
            recorder, ops=traced.ops, reads=0, cpu_s=traced.cpu_s,
            counters=counters, nodes=len(system.stacks),
            recoveries=len(traced.recovery_ms),
            events=system.scheduler.events_executed - events0,
            state_bytes=layers.state_bytes(system.metrics) - bytes0,
            phases_s=layers.recovery_phases(system.metrics)
            if recovery else None)
        sim.finish(label, deployment, auditors)
    finally:
        layers.uninstall()
    _must_see(label, recorder)
    for package in LEDGER_BINS:
        metrics[f"calls_per_op.{package}"] = (
            calls.get(package, 0) / ledger_ops if ledger_ops else 0.0)
    metrics["trace_overhead"] = _overhead(median(reference.slices),
                                          median(traced.slices))
    trace_path = os.path.join(out_dir, f"{label}-seed{seed}.trace.json")
    spans = recorder.write_chrome(trace_path)
    notes = [f"ledger: {sum(calls.values())} calls over {ledger_ops} "
             f"operations", _wrap_note(rebound),
             f"trace: {spans} spans -> {trace_path}"]
    return Result(traced.ops + reference.ops,
                  clock.exceptions + ref_clock.exceptions, metrics, notes)


def _delta(now: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {k: v - before.get(k, 0) for k, v in now.items()}


def _overhead(untraced_rate: float, traced_rate: float) -> float:
    """Extra host CPU per operation under tracing, as a share."""
    return untraced_rate / traced_rate - 1.0 if traced_rate else 0.0


def _wrap_note(rebound: Dict[Tuple[str, str], int]) -> str:
    return (f"wrapped {len(rebound)} entry points, plus "
            f"{sum(rebound.values())} import sites that bound them by name")


def _must_see(label: str, recorder: layers.SpanRecorder) -> None:
    for layer in layers.MUST_SEE[label]:
        if not recorder.layer_calls(layer):
            raise CheckFailure(f"traced {label}: no calls seen at the "
                               f"{layer} entry points")


# ----------------------------------------------------------------------
# Live workload
# ----------------------------------------------------------------------

def run_live(seed: int, seconds: float, hooks=None,
             overload: bool = False) -> Result:
    steps = live_rw.run_ladder(seed, seconds, hooks=hooks,
                               overload=overload)
    s = live_rw.summarize(steps, live_rw.run_setup_probes(seed))
    metrics = {
        "setup_s": median(s["setup_s"]),
        "ops_per_ref_cpu_s": s["ops_per_ref_cpu_s"],
        "ops_per_cpu_s": s["ops_per_cpu_s"],
        "fail_ratio": _fail_ratio(s["attempted"], s["failed"]),
        "read_p50_ms": s["read_p50_ms"],
        "read_p99_ms": s["read_p99_ms"],
        "write_p50_ms": s["write_p50_ms"],
        "write_p90_ms": s["write_p90_ms"],
        "max_ok_rate": float(s["max_ok_rate"]),
    }
    notes = [f"samples at {live_rw.NOMINAL_RATE}/s: {s['reads']} reads, "
             f"{s['writes']} writes; {len(s['setup_s'])} set-ups"]
    for step in s["steps"]:
        notes.append("step " + " ".join(f"{k}={v}" for k, v in step.items()))
    notes.append(f"ring formation stalls (deployment rebuilt): "
                 f"{len(s['formation_stalls'])}")
    notes += [f"stall: {views}" for views in s["formation_stalls"]]
    return Result(s["attempted"], s["failed"], metrics, notes)


class _WindowHooks(live_rw.NoHooks):
    def __init__(self, recorder: layers.SpanRecorder) -> None:
        self.recorder = recorder

    def window_start(self, system) -> None:
        self.recorder.reset()
        self.counters0 = dict(system.tracer.counters)

    def window_end(self, system) -> None:
        self.recorder.stop()
        self.counters = _delta(system.tracer.counters, self.counters0)


def traced_live(seed: int, seconds: float, out_dir: str) -> Result:
    rng = random.Random(seed)
    rate = live_rw.NOMINAL_RATE
    reference = live_rw.run_step(rng, rate, seconds * REFERENCE_SHARE)
    recorder = layers.SpanRecorder()
    hooks = _WindowHooks(recorder)
    rebound = layers.install(recorder)
    try:
        traced = live_rw.run_step(rng, rate,
                                  seconds * (1 - REFERENCE_SHARE), hooks)
    finally:
        layers.uninstall()
    ops = traced.attempted
    metrics = layers.layer_metrics(
        recorder, ops=ops, reads=traced.reads_sent, cpu_s=traced.cpu_s,
        counters=hooks.counters, nodes=len(live_rw.NODES))
    _must_see("live-rw", recorder)
    for package in LEDGER_BINS:
        metrics[f"calls_per_op.{package}"] = 0.0
    ref_rate = reference.attempted / reference.cpu_s
    traced_rate = traced.attempted / traced.cpu_s
    metrics["trace_overhead"] = _overhead(ref_rate, traced_rate)
    trace_path = os.path.join(out_dir, f"live-rw-seed{seed}.trace.json")
    spans = recorder.write_chrome(trace_path)
    return Result(reference.attempted + traced.attempted,
                  reference.failed + traced.failed, metrics,
                  [_wrap_note(rebound),
                   f"trace: {spans} spans -> {trace_path}"])


def run(workload: str, seed: int, seconds: float, trace: bool,
        out_dir: str, overload: bool = False) -> Result:
    if workload == "live-rw":
        return (traced_live(seed, seconds, out_dir) if trace
                else run_live(seed, seconds, overload=overload))
    recovery = workload == "sim-recovery"
    if trace:
        return traced_sim(seed, seconds, recovery, out_dir)
    return run_sim(seed, seconds, recovery)
