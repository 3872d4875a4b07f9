"""The simulator workloads: ``sim-ordered`` and ``sim-recovery``.

Both deploy the paper's topology with :func:`repro.bench.deployments.
build_client_server`: a manager, one packet-driver client and three active
kvstore replicas (five nodes) on the default 100 Mbps Ethernet model.  The
driver is closed-loop (one invocation in flight), and every invocation is
ordered through Totem.  A strict auditor is attached to every deployment
at birth.

Host cost is measured in slices of simulated time, and the reported rate
is the median over slices, so a burst of load from elsewhere on the
machine moves one slice, not the result.  Each slice is followed by a
chunk of the reference loop (:mod:`perfbench.refspeed`), whose CPU time
is kept out of the slice's.
"""

from __future__ import annotations

import gc
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.bench.deployments import build_client_server
from repro.giop.messages import ReplyStatus
from repro.simnet.system import EternalSystem

from perfbench import refspeed
from perfbench.checks import CheckFailure, check_audit, check_packet_driver
from perfbench.stats import median

SERVER_REPLICAS = 3
ORDERED_STATE = 1_000
#: Above the 64 KiB ``bulk_min_bytes`` threshold: the bulk lane runs.
RECOVERY_STATE = 256 * 1024
SCRIBBLE_EVERY = 8
#: Deployments built per run; ``setup_s`` is the median of their times.
SETUPS = 5
#: Simulated seconds per measured slice of ``sim-ordered``.
SLICE_S = 0.05
#: Reference-loop iterations after each slice (about a tenth of a
#: ``sim-ordered`` slice's CPU time).
REF_CHUNK = 20_000
VICTIM = "s2"
DOWNTIME_S = 0.05
SETTLE_S = 0.05
#: Upper end of the seeded extra settle time, which moves the kill
#: instant against the token rotation from cycle to cycle.
SETTLE_JITTER_S = 0.01
RECOVERY_TIMEOUT_S = 5.0
#: Simulated seconds the call ledger counts (recovery takes ~17 ms).
LEDGER_SIM_S = 0.1


@contextmanager
def strict_audit(auditors: list):
    """Attach an auditor to every simulated system at birth."""
    original = EternalSystem.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        auditors.append(self.attach_auditor())

    EternalSystem.__init__ = init
    try:
        yield
    finally:
        EternalSystem.__init__ = original


class ReplyClock:
    """Timestamps, in simulated time, every reply the driver receives,
    by wrapping the invocation proxy the driver already holds."""

    def __init__(self, deployment) -> None:
        self.now = lambda: deployment.system.scheduler.now
        self.latencies: List[float] = []
        self.reply_times: List[float] = []
        self.exceptions = 0
        proxy = deployment.driver._proxy
        invoke = proxy.invoke

        def timed_invoke(operation, *args, on_reply=None, **kwargs):
            sent = self.now()

            def on_timed_reply(reply):
                t = self.now()
                self.latencies.append(t - sent)
                self.reply_times.append(t)
                if reply.reply_status is not ReplyStatus.NO_EXCEPTION:
                    self.exceptions += 1
                on_reply(reply)

            return invoke(operation, *args, on_reply=on_timed_reply,
                          **kwargs)

        proxy.invoke = timed_invoke

    @property
    def replies(self) -> int:
        return len(self.reply_times)


@dataclass
class SimRun:
    setup_s: List[float] = field(default_factory=list)
    slices: List[float] = field(default_factory=list)   # ops per CPU s
    #: The same slices rescaled to the reference machine speed.
    ref_slices: List[float] = field(default_factory=list)
    ops: int = 0
    cpu_s: float = 0.0
    latencies: List[float] = field(default_factory=list)
    recovery_ms: List[float] = field(default_factory=list)
    stall_ms: List[float] = field(default_factory=list)
    recovery_cpu_ms: List[float] = field(default_factory=list)

    def add_slice(self, rate: float, ref_rates: List[float] = ()) -> None:
        """Record a slice's rate; then run a reference chunk and rescale
        the rate by the mean of its rate and ``ref_rates``, chunks run
        earlier in the slice."""
        ref_rates = list(ref_rates) + [refspeed.chunk_rate(REF_CHUNK)[0]]
        self.slices.append(rate)
        self.ref_slices.append(refspeed.rescale(
            rate, sum(ref_rates) / len(ref_rates)))


def _deploy(seed: int, recovery: bool):
    gc.collect()    # no garbage of an earlier deployment in the timing
    t0 = time.perf_counter()
    deployment = build_client_server(
        server_replicas=SERVER_REPLICAS,
        state_size=RECOVERY_STATE if recovery else ORDERED_STATE,
        scribble_every=SCRIBBLE_EVERY if recovery else 0,
        seed=seed,
    )
    system = deployment.system
    if not system.wait_for(lambda: deployment.driver.acked >= 1, 1.0):
        raise CheckFailure("no load flowing after deployment")
    return deployment, time.perf_counter() - t0


def deploy(seed: int, recovery: bool, run: SimRun, setups: int):
    """Build ``setups`` deployments, each with a strict auditor attached at
    birth, and keep the last; the build times go to ``run``, rescaled by
    reference chunks run before and after each build (a simulated build
    is all host CPU).  Returns the kept deployment and its auditors."""
    for i in range(setups):
        auditors: list = []
        ref_before, _ = refspeed.chunk_rate(REF_CHUNK)
        with strict_audit(auditors):
            deployment, elapsed = _deploy(seed, recovery)
        ref_after, _ = refspeed.chunk_rate(REF_CHUNK)
        run.setup_s.append(refspeed.rescale_time(
            elapsed, (ref_before + ref_after) / 2))
        if i < setups - 1:
            check_audit("setup", auditors)
    return deployment, auditors


def measure_ordered(deployment, seconds: float, run: SimRun,
                    clock: ReplyClock) -> None:
    system = deployment.system
    deadline = time.perf_counter() + seconds
    first = clock.replies
    cpu_total = 0.0
    while time.perf_counter() < deadline:
        replies0 = clock.replies
        cpu0 = time.process_time()
        system.run_for(SLICE_S)
        cpu = time.process_time() - cpu0
        cpu_total += cpu
        if cpu > 0:
            run.add_slice((clock.replies - replies0) / cpu)
    run.ops += clock.replies - first
    run.cpu_s += cpu_total
    run.latencies.extend(clock.latencies[first:])


def recovery_cycle(deployment, clock: ReplyClock, rng: random.Random,
                   run: SimRun) -> None:
    """Kill the victim replica, restart it after a fixed downtime, wait
    until it is operational, then let the group settle."""
    system = deployment.system
    group = deployment.server_group
    replies0 = clock.replies
    cpu_cycle0 = time.process_time()
    kill_at = system.now
    system.kill_node(VICTIM)
    system.run_for(DOWNTIME_S)
    # A second reference chunk mid-cycle; a cycle is long (~0.4 s CPU).
    mid_ref, mid_ref_cpu = refspeed.chunk_rate(REF_CHUNK)
    restart_at = system.now
    cpu0 = time.process_time()
    system.restart_node(VICTIM)
    if not system.wait_for(lambda: group.is_operational_on(VICTIM),
                           RECOVERY_TIMEOUT_S):
        raise CheckFailure(f"replica on {VICTIM} did not recover within "
                           f"{RECOVERY_TIMEOUT_S} simulated s")
    cpu_recovery = time.process_time() - cpu0
    operational_at = system.now
    points = ([kill_at]
              + [t for t in clock.reply_times[replies0:]
                 if kill_at <= t <= operational_at]
              + [operational_at])
    stall = max(b - a for a, b in zip(points, points[1:]))
    system.run_for(SETTLE_S + rng.uniform(0.0, SETTLE_JITTER_S))
    cpu_cycle = time.process_time() - cpu_cycle0 - mid_ref_cpu
    run.recovery_ms.append((operational_at - restart_at) * 1e3)
    run.stall_ms.append(stall * 1e3)
    run.recovery_cpu_ms.append(cpu_recovery * 1e3)
    run.ops += clock.replies - replies0
    run.cpu_s += cpu_cycle
    if cpu_cycle > 0:
        run.add_slice((clock.replies - replies0) / cpu_cycle, [mid_ref])


def measure_recovery(deployment, seconds: float, run: SimRun,
                     clock: ReplyClock, rng: random.Random) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        recovery_cycle(deployment, clock, rng, run)


def ledger_segment(deployment, recovery: bool) -> None:
    """A fixed stretch of simulated time for the call ledger: load only,
    or one kill/restart cycle.  No benchmark code runs inside it."""
    system = deployment.system
    if not recovery:
        system.run_for(LEDGER_SIM_S)
        return
    system.kill_node(VICTIM)
    system.run_for(DOWNTIME_S)
    system.restart_node(VICTIM)
    system.run_for(LEDGER_SIM_S)


def finish(label: str, deployment, auditors: list,
           before_final_check: Optional[Callable] = None) -> None:
    """Quiesce the driver, then run every correctness check."""
    system = deployment.system
    driver = deployment.driver
    driver._max_invocations = driver.sent          # send nothing new
    if not system.wait_for(
            lambda: (driver.sent == driver.acked
                     and driver.scribbles_sent == driver.scribbles_acked),
            5.0):
        raise CheckFailure(f"{label}: driver never quiesced")
    system.run_for(0.05)        # the slower replicas finish executing
    servants = [deployment.server_servant(n)
                for n in deployment.server_nodes]
    if before_final_check is not None:
        before_final_check(servants)
    check_packet_driver(label, driver, servants)
    check_audit(label, auditors)


def summarize(run: SimRun, recovery: bool) -> dict:
    out = {
        "setup_s": median(run.setup_s),
        "ops_per_cpu_s": median(run.slices),
        "ops_per_ref_cpu_s": median(run.ref_slices),
        "ops": run.ops,
        "slices": len(run.slices),
    }
    if recovery:
        out.update({
            "sim_recovery_ms": median(run.recovery_ms),
            "sim_stall_ms": median(run.stall_ms),
            "recovery_cpu_ms": median(run.recovery_cpu_ms),
            "cycles": len(run.recovery_ms),
        })
    else:
        out["sim_latency_ms"] = median(run.latencies) * 1e3
    return out
