"""The ``live-rw`` workload: an open-loop read/write mix over loopback UDP.

One driver node and three active kvstore replicas run in this process on
one asyncio event loop (:class:`repro.live.system.LiveSystem`), with the
leader-lease read path on.  The driver is open-loop: requests leave on a
seeded Poisson schedule whatever the replies do, and each request's
latency runs from the instant it was *due*, so a stall also charges the
requests queued behind it.

The offered rate climbs a fixed ladder.  Every step runs on a fresh
deployment, so an overloaded step cannot leak its backlog into the next.
The default ladder stays below the overload knee, so no request fails;
``overload=True`` adds the steps past it, where most requests go
unanswered.

Every ``SAMPLE_S`` of a step the generator runs a short chunk of the
reference loop (:mod:`perfbench.refspeed`) and rescales the rate of the
sample just ended; the chunk's CPU time is kept out of the step's.
"""

from __future__ import annotations

import asyncio
import gc
import random
import time
from dataclasses import dataclass, field
from typing import List, Set

from repro.core.config import EternalConfig
from repro.ftcorba.properties import FTProperties
from repro.giop.messages import ReplyStatus
from repro.live.system import LiveSystem

from perfbench import refspeed
from perfbench.checks import (CheckFailure, check_audit,
                              check_ledger_replicas)
from perfbench.servants import DRIVER_TYPE, LedgerKvStore, OpenLoopDriver
from perfbench.stats import median, percentile

NODES = ["d", "s1", "s2", "s3"]
DRIVER_NODE, SERVER_NODES = NODES[0], NODES[1:]
STATE_SIZE = 1_000
KEYS = 8
#: One ``put`` in every WRITE_EVERY operations, as ``ReadMixDriver`` does.
WRITE_EVERY = 16
#: Offered rates (operations per second) of the ladder, lowest first.
#: On a 2-vCPU shared machine the read mix collapsed (from some instant
#: on, no request answered) in 2 of 8 7.5 s steps at 600/s, 1 of 6 at
#: 450/s and, during a slow stretch of the machine, in 1 of about 70
#: runs with a 15 s step at 300/s; so the default ladder ends at half.
LADDER = (75, 150)
#: Steps past the overload knee, run only when asked for.
OVERLOAD_STEPS = (300, 600, 1200, 2400)
#: The step whose latencies are reported as the workload's latencies.
NOMINAL_RATE = 150
#: Overall p99 latency a step must meet to count towards ``max_ok_rate``.
LATENCY_LIMIT_MS = 50.0
#: After the last request is due, replies still count until this deadline.
DRAIN_S = 2.0
#: Bound on waiting for the replicas to agree once the driver stops.
SETTLE_S = 15.0
#: Longest wait for a Totem ring to form (it takes at most about 2 s in
#: over 2,000 observed formations) before the deployment is rebuilt.
FORM_TIMEOUT_S = 5.0
#: Extra short deployments per run, besides the ladder's, that only time
#: set-up: ring formation is bimodal (about 0.1 s, or several times that
#: when a join round is repeated), so ``setup_s`` needs many samples.
SETUP_PROBES = 20
#: Load each set-up probe carries, so it still passes every check.
SETUP_PROBE_S = 0.05
#: Wall seconds of a step per rescaled rate sample.
SAMPLE_S = 0.5
#: Reference-loop iterations per sample: a few milliseconds during which
#: the event loop, and so every node, waits.
REF_CHUNK = 4_000


@dataclass
class Op:
    due: float          # offset from the step's start, seconds
    write: bool
    key: str
    value: int


@dataclass
class StepResult:
    rate: int
    attempted: int = 0
    answered: int = 0
    failed: int = 0
    read_ms: List[float] = field(default_factory=list)
    write_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    reads_sent: int = 0
    backlog_max: int = 0
    backlog_growing: bool = False
    setup_s: float = 0.0
    #: Per stalled ring formation, where each node was stuck.
    formation_stalls: List[str] = field(default_factory=list)
    cpu_s: float = 0.0
    #: Operations per CPU second of each sample, rescaled.
    ref_rates: List[float] = field(default_factory=list)
    ref_cpu_s: float = 0.0

    @property
    def all_ms(self) -> List[float]:
        return self.read_ms + self.write_ms

    def ok(self) -> bool:
        lat = self.all_ms
        return (self.failed == 0 and not self.backlog_growing and lat
                and percentile(lat, 99) <= LATENCY_LIMIT_MS)


def make_schedule(rng: random.Random, rate: float,
                  seconds: float) -> List[Op]:
    """A Poisson arrival schedule of exactly ``rate * seconds`` requests
    (a Poisson process conditioned on its count: sorted uniform arrival
    times), so seeds differ in timing and keys but not in the amount of
    work.  The first operation is a write, so the connection's handshake
    is ordered before any read may bypass Totem."""
    count = max(2, round(rate * seconds))
    times = sorted(rng.uniform(0.0, seconds) for _ in range(count - 1))
    return [Op(t, index % WRITE_EVERY == 0, f"k{rng.randrange(KEYS)}",
               index)
            for index, t in enumerate([0.0] + times)]


class _Step:
    """One ladder step: deploy, warm, drive the schedule, drain, check."""

    def __init__(self, rate: int, schedule: List[Op], hooks) -> None:
        self.rate = rate
        self.schedule = schedule
        self.hooks = hooks
        self.result = StepResult(rate)
        self.loop = asyncio.get_running_loop()
        self.answered: Set[int] = set()
        self.acked_writes: Set[int] = set()
        self.outstanding = 0
        #: Set at the drain deadline: later replies count as failed.
        self.closed = False
        #: Requests outstanding, sampled at each generator wakeup.
        self.backlog: List[int] = []
        self.duplicate_acks = 0

    async def run(self) -> StepResult:
        res = self.result
        # Garbage left by the previous deployment in this process would
        # otherwise be collected while the nodes start, and a node that
        # starts late makes ring formation repeat a join round.
        gc.collect()
        t_setup = time.perf_counter()
        system, auditor = await self._form_ring()
        try:
            driver = await self._deploy(system)
            warm = self.schedule[0]
            acked = asyncio.Event()
            driver.send("put", (warm.key, warm.value),
                        lambda reply: acked.set())
            await asyncio.wait_for(acked.wait(), 15.0)
            res.setup_s = time.perf_counter() - t_setup
            self.hooks.window_start(system)
            cpu0 = time.process_time()
            await self._generate(driver)
            res.cpu_s = time.process_time() - cpu0 - res.ref_cpu_s
            self.hooks.window_end(system)
            await self._drain()
            await self._settle(system)
        finally:
            system.close()
        check_audit(f"live-rw step {self.rate}/s", [auditor])
        if self.duplicate_acks:
            raise CheckFailure(f"live-rw step {self.rate}/s: "
                               f"{self.duplicate_acks} operations acked "
                               f"twice")
        return res

    async def _form_ring(self):
        """A fresh deployment whose Totem ring has formed.

        Formation normally takes 0.1–2 s; rarely it stalls far longer.
        A stall is recorded in ``formation_stalls`` (the views each node
        was stuck in) and the deployment is rebuilt once; the lost time
        stays in this step's set-up time.
        """
        for _ in range(2):
            system = LiveSystem(
                NODES, eternal_config=EternalConfig(read_lease=True))
            auditor = system.attach_auditor()
            if await system.wait_for(system.ring_formed,
                                     timeout=FORM_TIMEOUT_S):
                return system, auditor
            views = "; ".join(
                f"{n}: {st.totem.state.name} ring {st.totem.ring_id} "
                f"members {sorted(st.totem.members)}"
                for n, st in system.stacks.items())
            system.close()
            check_audit(f"live-rw step {self.rate}/s", [auditor])
            self.result.formation_stalls.append(views)
        raise CheckFailure(f"live-rw step {self.rate}/s: Totem ring did "
                           f"not form in {FORM_TIMEOUT_S} s, twice "
                           f"({' | '.join(self.result.formation_stalls)})")

    async def _deploy(self, system: LiveSystem) -> OpenLoopDriver:
        system.register_factory(LedgerKvStore.type_id,
                                lambda: LedgerKvStore(STATE_SIZE),
                                nodes=SERVER_NODES)
        self.group = system.create_group(
            "store", LedgerKvStore.type_id,
            FTProperties(initial_replicas=len(SERVER_NODES),
                         min_replicas=1),
            nodes=SERVER_NODES)
        if not await system.wait_for(
                lambda: all(self.group.is_operational_on(n)
                            for n in SERVER_NODES), timeout=15.0):
            raise CheckFailure(f"live-rw step {self.rate}/s: store group "
                               f"never operational")
        iogr = self.group.iogr().stringify()
        system.register_factory(DRIVER_TYPE,
                                lambda: OpenLoopDriver(iogr),
                                nodes=[DRIVER_NODE])
        driver_group = system.create_group(
            "driver", DRIVER_TYPE,
            FTProperties(initial_replicas=1, min_replicas=1),
            nodes=[DRIVER_NODE])
        if not await system.wait_for(
                lambda: driver_group.servant_on(DRIVER_NODE) is not None,
                timeout=15.0):
            raise CheckFailure(f"live-rw step {self.rate}/s: driver never "
                               f"deployed")
        return driver_group.servant_on(DRIVER_NODE)

    def _on_reply(self, op: Op, due_at: float, reply) -> None:
        if op.value in self.answered:
            self.duplicate_acks += 1
            return
        self.answered.add(op.value)
        if self.closed:
            return
        self.outstanding -= 1
        res = self.result
        res.answered += 1
        if reply.reply_status is not ReplyStatus.NO_EXCEPTION:
            res.failed += 1
            return
        latency = (self.loop.time() - due_at) * 1e3
        (res.write_ms if op.write else res.read_ms).append(latency)
        if op.write:
            self.acked_writes.add(op.value)

    async def _generate(self, driver: OpenLoopDriver) -> None:
        loop = self.loop
        res = self.result
        ops = self.schedule[1:]
        start = loop.time() + 0.001
        sample_at = start + SAMPLE_S
        sample = (0, time.process_time())
        i = 0
        while i < len(ops):
            now = loop.time()
            due = start + ops[i].due
            if due > now:
                await asyncio.sleep(due - now)
                now = loop.time()
            while i < len(ops) and start + ops[i].due <= now:
                op = ops[i]
                due_at = start + op.due
                res.late_ms.append((now - due_at) * 1e3)
                self.outstanding += 1
                res.attempted += 1
                if op.write:
                    name, args = "put", (op.key, op.value)
                else:
                    name, args = "get", (op.key,)
                    res.reads_sent += 1
                driver.send(name, args, lambda r, o=op, d=due_at:
                            self._on_reply(o, d, r))
                i += 1
            self.backlog.append(self.outstanding)
            res.backlog_max = max(res.backlog_max, self.outstanding)
            if now >= sample_at:
                sample = self._ref_sample(*sample)
                while sample_at <= now:
                    sample_at += SAMPLE_S

    def _ref_sample(self, ops0: int, cpu0: float):
        """Close the sample that began at ``ops0`` requests sent and CPU
        time ``cpu0``; return the start of the next."""
        res = self.result
        cpu = time.process_time() - cpu0
        if cpu > 0:
            ref_rate, ref_cpu = refspeed.chunk_rate(REF_CHUNK)
            res.ref_cpu_s += ref_cpu
            res.ref_rates.append(
                refspeed.rescale((res.attempted - ops0) / cpu, ref_rate))
        return res.attempted, time.process_time()

    async def _drain(self) -> None:
        res = self.result
        deadline = self.loop.time() + DRAIN_S
        while self.outstanding and self.loop.time() < deadline:
            await asyncio.sleep(0.01)
        self.closed = True
        res.failed += self.outstanding
        # Growing backlog: over the last fifth of the window the driver
        # had clearly more requests outstanding than over the first half.
        samples = self.backlog
        if len(samples) >= 2:
            first = samples[:len(samples) // 2]
            tail = samples[-max(1, len(samples) // 5):]
            res.backlog_growing = (sum(tail) / len(tail)
                                   > 1.5 * sum(first) / len(first) + 4)

    async def _settle(self, system: LiveSystem) -> None:
        """Wait until every replica has applied the same writes, then run
        the replica checks (digest, exactly once)."""
        def servants():
            return [self.group.servant_on(n) for n in SERVER_NODES]

        def agreed() -> bool:
            ss = servants()
            return (all(s is not None for s in ss)
                    and len({len(s.write_ids) for s in ss}) == 1
                    and len(ss[0].write_ids) >= len(self.acked_writes) + 1)

        await system.wait_for(agreed, timeout=SETTLE_S, poll_interval=0.05)
        self.hooks.before_final_check(servants())
        # The warm-up write (op 0) was acked before the window opened.
        check_ledger_replicas(
            f"live-rw step {self.rate}/s", servants(),
            acked_writes=self.acked_writes | {self.schedule[0].value},
            all_acked=(self.result.failed == 0))


class NoHooks:
    """Extension points used by the traced run and the self-tests."""

    def window_start(self, system) -> None:
        pass

    def window_end(self, system) -> None:
        pass

    def before_final_check(self, servants) -> None:
        pass


def run_step(rng: random.Random, rate: int, seconds: float,
             hooks=None) -> StepResult:
    """One step on a fresh deployment and a fresh event loop."""
    schedule = make_schedule(rng, rate, seconds)

    async def step() -> StepResult:
        return await _Step(rate, schedule, hooks or NoHooks()).run()

    return asyncio.run(step())


def run_ladder(seed: int, seconds: float, *, hooks=None,
               overload: bool = False) -> List[StepResult]:
    """Run every ladder step, plus the overload steps if ``overload``;
    ``seconds`` is split across the steps, with the nominal step given
    the larger share so its percentiles have at least ten samples beyond
    them."""
    rng = random.Random(seed)
    ladder = LADDER + (OVERLOAD_STEPS if overload else ())
    nominal_share = 0.5
    other = (1.0 - nominal_share) / (len(ladder) - 1)
    return [run_step(rng, rate,
                     seconds * (nominal_share if rate == NOMINAL_RATE
                                else other), hooks)
            for rate in ladder]


def run_setup_probes(seed: int) -> List[StepResult]:
    """Short steps at the nominal rate whose point is their set-up time."""
    rng = random.Random(seed + 1)
    return [run_step(rng, NOMINAL_RATE, SETUP_PROBE_S)
            for _ in range(SETUP_PROBES)]


def summarize(results: List[StepResult],
              probes: List[StepResult]) -> dict:
    step = next(r for r in results if r.rate == NOMINAL_RATE)
    attempted = sum(r.attempted for r in results + probes)
    failed = sum(r.failed for r in results + probes)
    # The highest rate below which every step also passed.
    max_ok = 0
    for r in results:
        if not r.ok():
            break
        max_ok = r.rate
    answered = step.answered - step.failed
    return {
        "attempted": attempted,
        "failed": failed,
        "setup_s": [r.setup_s for r in results + probes],
        "ops_per_cpu_s": answered / step.cpu_s if step.cpu_s else 0.0,
        "ops_per_ref_cpu_s": median(step.ref_rates),
        "read_p50_ms": percentile(step.read_ms, 50),
        "read_p99_ms": percentile(step.read_ms, 99),
        "write_p50_ms": percentile(step.write_ms, 50),
        "write_p90_ms": percentile(step.write_ms, 90),
        "reads": len(step.read_ms),
        "writes": len(step.write_ms),
        "max_ok_rate": max_ok,
        "formation_stalls": [stall for r in results + probes
                             for stall in r.formation_stalls],
        "steps": [{
            "rate": r.rate, "attempted": r.attempted, "failed": r.failed,
            "p99_ms": round(percentile(r.all_ms, 99), 3),
            "bench.gen_late_ms.p99": round(percentile(r.late_ms, 99), 3),
            "bench.backlog_max": r.backlog_max,
            "growing": r.backlog_growing, "ok": bool(r.ok()),
        } for r in results],
    }
