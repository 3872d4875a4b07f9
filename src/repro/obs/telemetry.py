"""The cluster telemetry plane: flight recorder + metrics history.

Three gaps this module closes over the point-in-time signals of
:mod:`repro.obs.metrics` / :mod:`repro.obs.health`:

* **post-mortems survive the process** — a :class:`FlightRecorder` keeps a
  bounded per-node ring of recent trace records (spans, events, audit
  findings) and dumps it to JSONL on node kill, audit violation, unhandled
  exception, or SIGINT (see :func:`install_crash_hooks`);
* **signals have history** — a :class:`MetricsHistory` sampler snapshots
  counter deltas, gauge values, and histogram quantiles into fixed-size
  per-series rings, so "what was token-rotation latency 5 s before the
  replica died" has an answer (served over ``/metrics/history`` by
  :mod:`repro.live.health_http`, rendered by ``python -m repro top``);
* **queue depths are first-class** — every sampler tick polls the live
  stacks (Totem send queue, retransmit buffer, reassembly backlog,
  outstanding invocations, recovery queues, bulk-lane pages) into gauges
  before snapshotting, so backpressure is visible as a series, not just a
  point.

The whole plane is optional and cheap: with
``TelemetryConfig(enabled=False)`` nothing subscribes and nothing samples;
enabled, the hot-path cost is one list append per admitted trace record
(the ``obs-overhead`` bench gates the fault-free throughput cost at
<= 3 %).

The flight-dump line format is exactly :func:`repro.obs.exporters.
export_jsonl`'s (``{"ts", "category", "event", "fields"}``), so dumps from
several nodes stitch back into causal timelines with
:func:`repro.obs.report.stitch_jsonl_streams`.
"""

from __future__ import annotations

import os
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.exporters import export_jsonl
from repro.runtime.timers import PeriodicTimer
from repro.runtime.trace import TraceRecord, declared_interest

#: Ring key for trace records that carry no ``node`` field (system-wide
#: administration events); they ride along in every dump.
GLOBAL_LANE = "-"


@dataclass(frozen=True)
class TelemetryConfig:
    """Tuning for one system's telemetry plane.

    ``flight_dir=None`` keeps flight dumps in memory only (the simulator
    default — tests inspect :attr:`FlightRecorder.dumps`); pointing it at a
    directory additionally writes one JSONL file per dump, which is what a
    live deployment wants so the evidence survives the process.

    ``flight_capacity`` trades post-mortem depth against cache footprint:
    every ringed record has its destruction delayed by one full ring
    cycle, so a large ring turns hot frees into cold-memory frees across
    the whole process.  512 records per lane is roughly a hundred
    invocations of context around the crash — raise it for deeper
    forensics, and pay for it only while telemetry is enabled.

    ``flight_exclude`` lists trace streams the flight recorder does *not*
    ring, as ``"category"`` or ``"category.event"`` entries.  Retaining a
    record costs ~1 µs of deferred cold-memory destruction however it is
    retained, so admission volume — not ring size — is the telemetry
    plane's dominant cost.  The default drops exactly the streams whose
    content is reconstructible from records the ring keeps:
    ``totem.deliver`` (per-fragment fan-out, one record per fragment per
    node; the envelope-level ``replication.delivered`` records carry the
    causal content and the trace id), ``net`` (simulated-transport
    internals), and ``replication.duplicate`` (routine in active
    replication — every non-primary replica's reply is suppressed as a
    duplicate, so the retained ``interceptor.reply`` records already
    imply it), and ``live.recv_batch`` (one record per socket wakeup in
    the live runtime; the ``live.sys.recv_batch_size`` histogram keeps
    the distribution).  Set it to ``()`` for full wire fidelity at
    roughly double the hot-path cost.
    """

    enabled: bool = True
    flight_capacity: int = 512
    flight_dir: Optional[str] = None
    flight_exclude: Tuple[str, ...] = ("net", "totem.deliver",
                                       "replication.duplicate",
                                       "live.recv_batch")
    sample_interval: float = 0.25
    history_capacity: int = 256


@dataclass(frozen=True)
class FlightDump:
    """One completed flight-recorder dump (whether or not it hit disk)."""

    node: str
    reason: str
    time: float
    records: Tuple[TraceRecord, ...]
    path: Optional[str] = None


class FlightRecorder:
    """Bounded per-node rings of recent trace records.

    Subscribed to the system tracer (:meth:`attach`), it appends every
    record not named by ``flight_exclude`` to the ring of the node named
    in the record's fields (``GLOBAL_LANE`` otherwise) and
    triggers an automatic dump of a node's ring — global lane included —
    when that node dies (``fault.crash``).  Audit findings arrive through
    :meth:`record_finding` (wired by ``SystemCore.attach_auditor``) and
    dump the offending node's ring too: a consistency violation is exactly
    the moment the recent past matters.
    """

    def __init__(self, config: TelemetryConfig,
                 clock: Callable[[], float]) -> None:
        self.config = config
        self._clock = clock
        #: Lanes are keyed by the *raw* ``node`` field value (``None`` for
        #: records without one) so the per-record path never stringifies;
        #: the cold read paths normalize key -> lane name instead.
        #:
        #: Each lane is a plain list trimmed in batch once it doubles,
        #: not a ``deque(maxlen=...)``: a maxlen deque destroys one
        #: long-retained (= cache-cold) record per append, which costs
        #: over a microsecond per record in a hot run.  Appending freely
        #: and slicing off the oldest half every ``capacity`` appends
        #: frees the same records sequentially, which the prefetcher can
        #: hide — the last ``capacity`` records are always intact.
        self._rings: Dict[Any, List[TraceRecord]] = {}
        self._capacity = config.flight_capacity
        self._trim_at = 2 * config.flight_capacity
        #: category -> True (skip whole category) | set of events to skip.
        self._skip: Dict[str, Any] = {}
        for spec in config.flight_exclude:
            category, dot, event = spec.partition(".")
            if not dot:
                self._skip[category] = True
            elif self._skip.get(category) is not True:
                self._skip.setdefault(category, set()).add(event)
        self._dump_seq = 0
        #: Completed dumps, newest last (in-memory record of every dump,
        #: with ``path`` set when ``flight_dir`` put it on disk too).
        self.dumps: List[FlightDump] = []

    def _ring(self, lane) -> List[TraceRecord]:
        ring = self._rings.get(lane)
        if ring is None:
            ring = self._rings[lane] = []
        return ring

    def wants(self, category: str, event: str) -> bool:
        """The recorder's declared interest: every event not named by
        ``flight_exclude``.  The tracer applies it once per event, so
        excluded records are never even built for the recorder."""
        sel = self._skip.get(category)
        return sel is None or (sel is not True and event not in sel)

    def attach(self, tracer) -> None:
        """Subscribe to ``tracer``: :meth:`note` for every event
        :meth:`wants` admits, then :meth:`on_crash` for ``fault.crash``
        alone (after :meth:`note`, so the dump includes the crash)."""
        tracer.subscribe(self.note, wants=self.wants)
        if self.wants("fault", "crash"):
            tracer.subscribe(self.on_crash,
                             wants=declared_interest({("fault", "crash")}))

    def note(self, record: TraceRecord) -> None:
        """Tracer subscriber: ring one admitted record (see :meth:`wants`).

        The work is in :meth:`_admit`, separately so the obs-overhead
        bench can time ring admission: one dict lookup, one list append,
        and an amortized batch trim."""
        self._admit(record)

    def _admit(self, record: TraceRecord) -> None:
        """Ring one admitted record (the per-record hot path)."""
        lane = record.fields.get("node")
        try:
            tape = self._rings[lane]
        except KeyError:
            tape = self._rings[lane] = []
        tape.append(record)
        if len(tape) >= self._trim_at:
            del tape[:-self._capacity]

    def on_crash(self, record: TraceRecord) -> None:
        """Tracer subscriber for ``fault.crash``: dump the dead node's
        ring, global lane included."""
        lane = record.fields.get("node")
        self.dump(node=GLOBAL_LANE if lane is None else str(lane),
                  reason="crash")

    def record_finding(self, finding) -> None:
        """Ring an audit finding (as a synthetic ``audit.finding`` record)
        and dump the implicated node — the auditor's ``on_finding`` hook."""
        lane = getattr(finding, "node", None)
        name = GLOBAL_LANE if lane is None else str(lane)
        record = TraceRecord(
            time=getattr(finding, "time", self._clock()),
            category="audit", event="finding",
            fields={"node": name,
                    "invariant": getattr(finding, "invariant", "?"),
                    "detail": getattr(finding, "detail", "")},
        )
        self._ring(lane).append(record)
        self.dump(node=name, reason="audit_violation")

    @staticmethod
    def _lane_name(lane) -> str:
        return GLOBAL_LANE if lane is None else str(lane)

    def records_for(self, node: str) -> List[TraceRecord]:
        """A node's current ring contents plus the global lane, in time
        order (what a dump of that node would contain)."""
        merged: List[TraceRecord] = []
        for lane, ring in self._rings.items():
            name = self._lane_name(lane)
            if name == node or (name == GLOBAL_LANE and node != GLOBAL_LANE):
                merged.extend(ring[-self._capacity:])
        merged.sort(key=lambda r: r.time)
        return merged

    def dump(self, *, node: str = GLOBAL_LANE,
             reason: str = "manual") -> FlightDump:
        """Snapshot one node's ring into a :class:`FlightDump` (and a JSONL
        file when ``flight_dir`` is configured)."""
        records = self.records_for(node)
        path: Optional[str] = None
        if self.config.flight_dir is not None:
            os.makedirs(self.config.flight_dir, exist_ok=True)
            self._dump_seq += 1
            path = os.path.join(
                self.config.flight_dir,
                f"flight-{node}-{self._dump_seq:03d}-{reason}.jsonl")
            export_jsonl(records, path)
        dump = FlightDump(node=node, reason=reason, time=self._clock(),
                          records=tuple(records), path=path)
        self.dumps.append(dump)
        return dump

    def dump_all(self, reason: str = "shutdown") -> List[FlightDump]:
        """Dump every node's ring (SIGINT/atexit/excepthook path)."""
        nodes = sorted({self._lane_name(lane) for lane in self._rings}
                       - {GLOBAL_LANE})
        if not nodes:
            nodes = [GLOBAL_LANE]
        return [self.dump(node=node, reason=reason) for node in nodes]


class MetricsHistory:
    """Fixed-size time series sampled from a
    :class:`~repro.obs.metrics.MetricsRegistry`.

    Each :meth:`sample` appends one point per live series:

    * counters — the **delta** since the previous sample (re-based, so a
      series that resets — e.g. a registry rebuilt via ``spawn_empty`` —
      yields a zero delta, never a negative one);
    * gauges — the current value;
    * histograms — ``[p50, p95, count]`` (cumulative quantiles: cheap,
      monotone in sample count, good enough to see a latency shift).
    """

    def __init__(self, metrics, capacity: int = 256) -> None:
        self._metrics = metrics
        self._capacity = capacity
        self._series: Dict[str, Dict[str, Any]] = {}
        self._counter_bases: Dict[str, float] = {}

    @staticmethod
    def series_key(name: str, labels: Dict[str, str]) -> str:
        inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        return f"{name}{{{inner}}}"

    def _slot(self, key: str, kind: str,
              labels: Dict[str, str]) -> Deque[list]:
        slot = self._series.get(key)
        if slot is None:
            slot = {"kind": kind, "labels": dict(labels),
                    "points": deque(maxlen=self._capacity)}
            self._series[key] = slot
        return slot["points"]

    def sample(self, now: float) -> int:
        """Snapshot every registry metric at time ``now``; returns the
        number of series touched."""
        touched = 0
        for name, labels, metric in self._metrics.find():
            key = self.series_key(name, labels)
            kind = metric.kind
            if kind == "counter":
                base = self._counter_bases.get(key, 0.0)
                delta = max(0.0, metric.value - base)
                self._counter_bases[key] = metric.value
                point = [now, delta]
            elif kind == "gauge":
                point = [now, metric.value]
            else:   # histogram
                point = [now, metric.p50, metric.p95, metric.count]
            self._slot(key, kind, labels).append(point)
            touched += 1
        return touched

    def series(self, key: str) -> List[list]:
        slot = self._series.get(key)
        return [list(p) for p in slot["points"]] if slot else []

    def snapshot(self) -> Dict[str, Any]:
        """Plain-data dump of every series (the ``/metrics/history`` body)."""
        return {
            "series": {
                key: {"kind": slot["kind"], "labels": slot["labels"],
                      "points": [list(p) for p in slot["points"]]}
                for key, slot in sorted(self._series.items())
            }
        }


class TelemetryPlane:
    """One system's telemetry plane: flight recorder + history sampler.

    Constructed unconditionally by ``SystemCore._init_core`` so call sites
    can rely on ``system.telemetry`` existing; inert unless the config
    enables it (no tracer subscription, no sampler — zero overhead).
    """

    def __init__(self, config: TelemetryConfig, *, tracer, metrics,
                 clock: Callable[[], float]) -> None:
        self.config = config
        self.tracer = tracer
        self.metrics = metrics
        self._clock = clock
        self._system = None
        self._sampler: Optional[PeriodicTimer] = None
        self.flight = FlightRecorder(config, clock)
        self.history = MetricsHistory(metrics, config.history_capacity)
        if config.enabled:
            self.flight.attach(tracer)

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    def bind_system(self, system) -> None:
        """Attach the system whose stacks :meth:`poll` reads depths from."""
        self._system = system

    def start_sampler(self, scheduler) -> None:
        """Start the periodic poll-and-sample loop on ``scheduler`` (the
        simulated scheduler or the live asyncio one — same interface)."""
        if not self.config.enabled or self._sampler is not None:
            return
        self._sampler = PeriodicTimer(scheduler,
                                      self.config.sample_interval,
                                      self.sample_now)
    def stop(self) -> None:
        if self._sampler is not None:
            self._sampler.stop()
            self._sampler = None

    def sample_now(self) -> None:
        """One sampler tick: poll live queue depths, then snapshot."""
        self.poll()
        self.history.sample(self._clock())

    def poll(self) -> None:
        """Read the live stacks' queue depths into gauges: the
        backpressure signals the ROADMAP's admission-control and
        phi-accrual arcs consume as continuous series."""
        system = self._system
        if system is None:
            return
        profiler = getattr(system, "profiler", None)
        if profiler is not None and profiler.enabled:
            # The span-resource profiler defers its counter export off the
            # hot path; reconcile here so this tick's history sample (and
            # the /metrics/history body) sees current profile.* series.
            profiler.flush_to_metrics()
        for node_id, stack in getattr(system, "stacks", {}).items():
            if not stack.process.alive:
                continue
            totem = stack.totem
            if totem is not None:
                self.metrics.gauge("totem.send_queue_depth",
                                   node=node_id).set(len(totem._send_queue))
                self.metrics.gauge("totem.retransmit_buffer",
                                   node=node_id).set(len(totem._held))
                self.metrics.gauge("totem.reassembly_pending",
                                   node=node_id).set(
                                       totem.reassembly_pending)
            mechanisms = stack.mechanisms
            if mechanisms is None:
                continue
            for group_id, binding in mechanisms.bindings.items():
                self.metrics.gauge(
                    "eternal.outstanding_invocations",
                    node=node_id, group=group_id,
                ).set(binding.interceptor.outstanding_invocations)
                self.metrics.gauge(
                    "eternal.recovery_queue_depth",
                    node=node_id, group=group_id,
                ).set(len(binding.enqueued))
            bulk = getattr(mechanisms.recovery, "bulk", None)
            if bulk is not None:
                stashes = (len(getattr(bulk, "_stashes", {}))
                           + len(getattr(bulk, "_sessions", {})))
                self.metrics.gauge("bulk.store_depth",
                                   node=node_id).set(stashes)


# ---------------------------------------------------------------------------
# Terminal rendering (``python -m repro top``)
# ---------------------------------------------------------------------------

def _cpu_pct(point: list) -> str:
    # CPU%% needs a rate: the sampled counter delta (host ns of thread CPU
    # attributed to this node's spans) over the inter-sample interval.  In
    # simulated runs the interval is *simulated* seconds while the CPU is
    # host nanoseconds, so >100% readings are expected and meaningful
    # (host cost per simulated second); live runs read as normal CPU%%.
    if len(point) < 3 or point[2] <= 0:
        return "-"
    return f"{point[1] / (point[2] * 1e9) * 100:.1f}"


#: Counter-delta series (fed by the span-resource profiler; see
#: :mod:`repro.obs.profiling`): their latest sample is folded across
#: duplicate timestamps (a manual ``sample_now`` can coincide with a
#: periodic tick, leaving a zero-delta point at the same instant) and
#: carries the inter-sample interval as a third element for rate columns.
_COUNTER_SERIES = ("profile.node_cpu_ns", "profile.node_alloc_blocks")

#: (column header, series name, value picker) for the per-node top table.
_TOP_COLUMNS = (
    ("rot p50 ms", "span.totem.rotation",
     lambda p: f"{p[1] * 1000:.2f}"),
    ("cpu%", "profile.node_cpu_ns", _cpu_pct),
    ("allocs", "profile.node_alloc_blocks", lambda p: f"{p[1]:g}"),
    ("sendq", "totem.send_queue_depth", lambda p: f"{p[1]:g}"),
    ("held", "totem.retransmit_buffer", lambda p: f"{p[1]:g}"),
    ("reasm", "totem.reassembly_pending", lambda p: f"{p[1]:g}"),
    ("pend-op", "eternal.outstanding_invocations", lambda p: f"{p[1]:g}"),
    ("recovq", "eternal.recovery_queue_depth", lambda p: f"{p[1]:g}"),
    ("bulk", "bulk.store_depth", lambda p: f"{p[1]:g}"),
    ("tok-rtt ms", "totem.token_interarrival",
     lambda p: f"{p[1] * 1000:.2f}"),
    ("rxbatch p50", "live.sys.recv_batch_size", lambda p: f"{p[1]:g}"),
)


def render_top(snapshot: Dict[str, Any]) -> str:
    """Render a :meth:`MetricsHistory.snapshot` as the per-node ``top``
    table (latest sample per series; per-group series collapse onto their
    node, numeric columns summing gauges and keeping the slowest p50)."""
    series = snapshot.get("series", {})
    latest: Dict[Tuple[str, str], list] = {}
    nodes: Dict[str, None] = {}
    rings: Dict[str, None] = {}
    last_ts = None

    def fold(name: str, row: str, point: list) -> None:
        spot = latest.get((name, row))
        if spot is None:
            latest[(name, row)] = list(point)
        elif name.startswith("span.") or name == "totem.token_interarrival":
            if point[1] > spot[1]:
                latest[(name, row)] = list(point)
        else:
            spot[1] += point[1]

    for key, slot in series.items():
        points = slot.get("points") or []
        if not points:
            continue
        point = points[-1]
        last_ts = point[0] if last_ts is None else max(last_ts, point[0])
        labels = slot.get("labels", {})
        node = labels.get("node")
        if node is None:
            continue
        name = key.split("{", 1)[0]
        nodes.setdefault(node)
        point = list(point)
        if name in _COUNTER_SERIES:
            ts = point[0]
            delta = 0.0
            prev_ts = None
            for prior in reversed(points):
                if prior[0] >= ts:      # same-instant samples: sum deltas
                    delta += prior[1]
                else:
                    prev_ts = prior[0]
                    break
            point = [ts, delta,
                     (ts - prev_ts) if prev_ts is not None else 0.0]
        fold(name, node, point)
        ring = labels.get("ring")
        if ring:
            # Sharded deployments: the same sample also feeds the per-ring
            # aggregate rows (sums for depths, slowest for latencies).
            rings.setdefault(ring)
            fold(name, f"ring={ring}", point)
    header = f"{'node':8s} " + " ".join(f"{h:>11s}" for h, _, _ in
                                        _TOP_COLUMNS)
    lines = [header, "-" * len(header)]
    for node in sorted(nodes):
        cells = []
        for _header, name, pick in _TOP_COLUMNS:
            point = latest.get((name, node))
            cells.append(pick(point) if point is not None else "-")
        lines.append(f"{node:8s} " + " ".join(f"{c:>11s}" for c in cells))
    if rings:
        lines.append("-" * len(header))
        for ring in sorted(rings):
            cells = []
            for _header, name, pick in _TOP_COLUMNS:
                point = latest.get((name, f"ring={ring}"))
                cells.append(pick(point) if point is not None else "-")
            lines.append(f"{f'ring={ring}':8s} "
                         + " ".join(f"{c:>11s}" for c in cells))
    if last_ts is not None:
        lines.append(f"(latest sample at t={last_ts:.3f}s; "
                     f"{len(series)} series)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Crash hooks (live CLI): the flight recorder's reason to exist
# ---------------------------------------------------------------------------

def install_crash_hooks(plane: TelemetryPlane, *,
                        on_dump: Optional[Callable[[List[FlightDump]],
                                                   None]] = None
                        ) -> Callable[[], None]:
    """Dump every flight ring on unhandled exception, SIGINT, or interpreter
    exit, so a live run's post-mortem survives however it dies.

    Returns an ``uninstall()`` that restores the previous hooks (the normal
    exit path calls it after its own orderly dump, so atexit does not dump
    a second time).
    """
    import atexit
    import signal

    state = {"done": False}

    def dump_once(reason: str) -> None:
        if state["done"] or not plane.enabled:
            return
        state["done"] = True
        dumps = plane.flight.dump_all(reason)
        if on_dump is not None:
            on_dump(dumps)

    previous_excepthook = sys.excepthook

    def excepthook(exc_type, exc, tb):
        dump_once("exception")
        previous_excepthook(exc_type, exc, tb)

    sys.excepthook = excepthook

    def on_atexit() -> None:
        dump_once("atexit")

    atexit.register(on_atexit)

    previous_sigint = None
    try:
        def on_sigint(signum, frame):
            dump_once("sigint")
            raise KeyboardInterrupt
        previous_sigint = signal.signal(signal.SIGINT, on_sigint)
    except (ValueError, OSError):       # non-main thread: atexit covers us
        previous_sigint = None

    def uninstall() -> None:
        state["done"] = True            # orderly exit already dumped
        sys.excepthook = previous_excepthook
        atexit.unregister(on_atexit)
        if previous_sigint is not None:
            try:
                signal.signal(signal.SIGINT, previous_sigint)
            except (ValueError, OSError):
                pass

    return uninstall
