"""The traced run: per-layer spans recorded from the benchmark's own files.

:func:`install` replaces each layer's public entry points with a wrapper
that records a span (start, duration, and the time its nested spans
cover), at the defining module or class *and* at every ``repro`` module
that imported the function by name (``from repro.giop.messages import
decode_message`` binds the original object in the importer, so wrapping
only the defining module would silently miss those calls).

A layer's self time is its spans' durations minus the part covered by
nested spans of any layer.  Spans stay in memory; :meth:`SpanRecorder.
write_chrome` writes the first :data:`SPAN_CAP` of them as Chrome
``trace_event`` JSON at the end of the run.

Install before the deployment is built: protocol objects bind their
callbacks (bound methods) when they are constructed.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.report import RECOVERY_PHASES

from perfbench.stats import percentile

#: layer -> (module, attribute path) of each wrapped entry point.
ENTRY_POINTS: Dict[str, List[Tuple[str, str]]] = {
    "giop": [("repro.giop.messages", "encode_message"),
             ("repro.giop.messages", "decode_message")],
    "core.envelope": [("repro.core.envelope", "encode_envelope"),
                      ("repro.core.envelope", "decode_envelope")],
    "orb": [("repro.orb.orb", "Orb.decode_request"),
            ("repro.orb.orb", "Orb.execute_request"),
            ("repro.orb.orb", "Orb.handle_reply"),
            ("repro.orb.connection", "ClientConnection.build_request")],
    "core.interceptor": [
        ("repro.core.interceptor", "Interceptor.capture_client_request"),
        ("repro.core.interceptor", "Interceptor.capture_server_reply"),
        ("repro.core.interceptor", "Interceptor.rewrite_incoming_reply")],
    "core.replication": [
        ("repro.core.replication", "ReplicationMechanisms.route_iiop"),
        ("repro.core.replication", "ReplicationMechanisms.multicast"),
        # The callback the layer registers with Totem for deliveries.
        ("repro.core.replication", "ReplicationMechanisms._on_deliver")],
    "core.container": [
        ("repro.core.container", "ReplicaContainer.submit_request"),
        ("repro.core.container", "ReplicaContainer.submit_reply"),
        # Scheduled callbacks: the queue pop and the completion.
        ("repro.core.container", "ReplicaContainer._run_request"),
        ("repro.core.container", "ReplicaContainer._complete_request")],
    "core.readfast": [
        ("repro.core.readfast", "ReadFastCoordinator.try_fast_read"),
        ("repro.core.readfast", "ReadFastCoordinator.intercept_reply"),
        # Frame handlers it registers with the transport endpoint.
        ("repro.core.readfast", "ReadFastCoordinator._on_request"),
        ("repro.core.readfast", "ReadFastCoordinator._on_reply"),
        ("repro.core.readfast", "ReadFastCoordinator._on_nack"),
        ("repro.core.readfast", "ReadFastCoordinator._fallback")],
    "totem": [("repro.totem.member", "TotemMember.multicast"),
              ("repro.totem.member", "TotemMember._on_data"),
              ("repro.totem.member", "TotemMember._on_token_frame")],
    "totem.wire": [("repro.totem.wire", "encode_frame_payload"),
                   ("repro.totem.wire", "encode_frame_payload_into"),
                   ("repro.totem.wire", "decode_frame_payload")],
    "live.transport": [("repro.live.transport", "UdpTransport.unicast"),
                       ("repro.live.transport", "UdpTransport.broadcast"),
                       ("repro.live.transport",
                        "UdpTransport._on_readable")],
    "simnet": [("repro.simnet.network", "Network.broadcast"),
               ("repro.simnet.network", "Network.unicast"),
               # The scheduled event that hands a frame to its receiver.
               ("repro.simnet.network", "Network._deliver")],
    "core.recovery": [
        ("repro.core.recovery", "RecoveryMechanisms.announce_join"),
        ("repro.core.recovery", "RecoveryMechanisms.handle_replica_join"),
        ("repro.core.recovery", "RecoveryMechanisms.handle_state_get"),
        ("repro.core.recovery", "RecoveryMechanisms.handle_state_set")],
    "core.statedelta": [("repro.core.statedelta", "compute_delta"),
                        ("repro.core.statedelta", "apply_delta"),
                        # Paging used by the bulk lane's manifests.
                        ("repro.core.statedelta", "split_pages"),
                        ("repro.core.statedelta", "page_digests")],
    "core.bulk": [("repro.core.bulk", "build_manifest"),
                  ("repro.core.bulk", "BulkStore.handle_fetch"),
                  ("repro.core.bulk", "BulkSession.handle_page")],
    "runtime.trace": [("repro.runtime.trace", "Tracer.emit")],
}

#: Spans kept for the Chrome trace export (aggregates count every call).
SPAN_CAP = 50_000


class SpanRecorder:
    """Aggregates self time and calls per layer; keeps the first spans."""

    def __init__(self) -> None:
        self._stack: List[int] = []     # child time of each open span
        self.reset()

    def reset(self) -> None:
        """Start a fresh window: clear every aggregate and record."""
        self.active = True
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()         # (layer, entry) -> calls
        self.spans: List[Tuple[str, int, int]] = []
        self.fifo_wait: List[float] = []        # seconds, substrate clock
        self.order_wait: List[float] = []       # seconds, substrate clock
        # Entry timestamps awaiting their pairing probe.
        self.fifo_pending: Dict[Tuple[int, int], float] = {}
        self.order_pending: Dict[Tuple[str, bytes], float] = {}

    def stop(self) -> None:
        """End the window: later calls pass through unrecorded."""
        self.active = False

    def layer_calls(self, layer: str) -> int:
        return sum(n for (lay, _), n in self.calls.items() if lay == layer)

    def wrap(self, layer: str, entry: str, fn: Callable,
             probe: Optional[Callable] = None) -> Callable:
        stack = self._stack
        clock = time.perf_counter_ns
        name = f"{layer}:{entry}"
        key = (layer, entry)
        rec = self

        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            if probe is not None:
                probe(rec, args)
            t0 = clock()
            stack.append(0)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                rec.self_ns[layer] += dur - child
                rec.calls[key] += 1
                if len(rec.spans) < SPAN_CAP:
                    rec.spans.append((name, t0, dur))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", entry)
        wrapper.__qualname__ = getattr(fn, "__qualname__", entry)
        return wrapper

    def write_chrome(self, path: str) -> int:
        """Write the kept spans as Chrome ``trace_event`` JSON."""
        events = []
        base = self.spans[0][1] if self.spans else 0
        for name, t0, dur in self.spans:
            layer, _, entry = name.partition(":")
            events.append({"name": entry, "cat": layer, "ph": "X",
                           "ts": (t0 - base) / 1e3, "dur": dur / 1e3,
                           "pid": 1, "tid": 1})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events}, fh)
        return len(events)


# ----------------------------------------------------------------------
# Probes: timestamps taken at entry points, paired later
# ----------------------------------------------------------------------

def _probe_submit(rec: SpanRecorder, args) -> None:
    container, _connection, iiop_bytes = args[:3]
    rec.fifo_pending[(id(container), id(iiop_bytes))] = \
        container.process.scheduler.now


def _probe_run(rec: SpanRecorder, args) -> None:
    container, _connection, iiop_bytes = args[:3]
    t = rec.fifo_pending.pop((id(container), id(iiop_bytes)), None)
    if t is not None:
        rec.fifo_wait.append(container.process.scheduler.now - t)


def _probe_multicast(rec: SpanRecorder, args) -> None:
    member, payload = args[:2]
    rec.order_pending[(member.node_id, bytes(payload))] = \
        member._scheduler.now


def _probe_deliver(rec: SpanRecorder, args) -> None:
    mech, origin, payload = args[:3]
    if origin != mech.node_id:
        return
    t = rec.order_pending.pop((origin, bytes(payload)), None)
    if t is not None:
        rec.order_wait.append(mech.process.scheduler.now - t)


PROBES = {
    ("core.container", "ReplicaContainer.submit_request"): _probe_submit,
    ("core.container", "ReplicaContainer._run_request"): _probe_run,
    ("totem", "TotemMember.multicast"): _probe_multicast,
    ("core.replication", "ReplicationMechanisms._on_deliver"):
        _probe_deliver,
}


def _resolve(module_name: str, path: str):
    """The object holding the entry point, its attribute name, and the
    function currently bound there."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    # The owner's own namespace: for a class, the plain function rather
    # than an inherited or bound attribute.
    current = owner.__dict__[attr]
    return owner, attr, current


def _rebind_import_sites(owner, old, new) -> int:
    """Replace ``old`` with ``new`` in every ``repro`` module that bound
    it by name; returns how many bindings changed."""
    if isinstance(owner, type):
        return 0            # methods are reached through their class
    sites = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or mod is owner or not mod_name.startswith("repro"):
            continue
        for name, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, name, new)
                sites += 1
    return sites


def install(recorder: SpanRecorder) -> Dict[Tuple[str, str], int]:
    """Wrap every entry point in :data:`ENTRY_POINTS`; returns, per entry,
    how many import sites were rewrapped besides the definition."""
    # Import every module a workload uses, so that their import sites
    # exist before the rebinding scan below.
    for name in ("repro.bench.deployments", "repro.simnet.system",
                 "repro.live.system"):
        importlib.import_module(name)
    rebound: Dict[Tuple[str, str], int] = {}
    for layer, entries in ENTRY_POINTS.items():
        for module_name, path in entries:
            owner, attr, original = _resolve(module_name, path)
            if getattr(original, "__wrapped__", None) is not None:
                raise RuntimeError(f"{module_name}.{path} wrapped twice")
            wrapper = recorder.wrap(layer, path, original,
                                    PROBES.get((layer, path)))
            setattr(owner, attr, wrapper)
            rebound[(layer, path)] = _rebind_import_sites(owner, original,
                                                          wrapper)
    return rebound


def uninstall() -> None:
    """Restore every wrapped entry point (definitions and import sites)."""
    for entries in ENTRY_POINTS.values():
        for module_name, path in entries:
            owner, attr, current = _resolve(module_name, path)
            original = getattr(current, "__wrapped__", None)
            if original is not None:
                setattr(owner, attr, original)
                _rebind_import_sites(owner, current, original)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

#: Layer whose entry points must see calls on each workload, or the
#: wrapping missed a call site.
MUST_SEE = {
    "sim-ordered": ("simnet", "giop", "core.envelope", "totem"),
    "sim-recovery": ("simnet", "core.bulk", "core.recovery"),
    "live-rw": ("core.readfast", "totem.wire", "live.transport"),
}


def layer_metrics(rec: SpanRecorder, *, ops: int, reads: int,
                  cpu_s: float, counters: Dict[str, int], nodes: int,
                  recoveries: int = 0, events: int = 0,
                  state_bytes: float = 0.0,
                  phases_s: Optional[Dict[str, float]] = None
                  ) -> Dict[str, float]:
    """Per-layer metrics of one traced window.

    ``counters`` is the window's delta of the program's own tracer
    counters; ``ops`` the operations completed in the window.
    """
    calls = rec.calls
    per_op = 1.0 / ops if ops else 0.0
    per_rec = 1.0 / recoveries if recoveries else 0.0
    self_us = {layer: ns / 1e3 for layer, ns in rec.self_ns.items()}

    def c(key: str) -> int:
        return counters.get(key, 0)

    def layer_us(layer: str) -> float:
        return self_us.get(layer, 0.0) * per_op

    def pct(values: List[float], q: float) -> float:
        return percentile(values, q) * 1e3

    multicasts = calls[("totem", "TotemMember.multicast")]
    wire_calls = rec.layer_calls("totem.wire")
    delivered = c("replication.delivered")
    out = {
        "giop.encodes_per_op": calls[("giop", "encode_message")] * per_op,
        "giop.decodes_per_op": calls[("giop", "decode_message")] * per_op,
        "giop.self_us_per_op": layer_us("giop"),
        "core.envelope.decodes_per_op":
            calls[("core.envelope", "decode_envelope")] * per_op,
        "core.envelope.self_us_per_op": layer_us("core.envelope"),
        "orb.self_us_per_op": layer_us("orb"),
        "core.interceptor.self_us_per_op": layer_us("core.interceptor"),
        "core.replication.self_us_per_op": layer_us("core.replication"),
        "core.replication.dup_drop_ratio":
            c("replication.duplicate") / delivered if delivered else 0.0,
        "core.replication.retransmits_per_op":
            c("interceptor.retransmit") * per_op,
        "core.container.fifo_wait_ms.p50": pct(rec.fifo_wait, 50),
        "core.container.fifo_wait_ms.p99": pct(rec.fifo_wait, 99),
        "core.readfast.fast_ratio":
            c("lease.read_served") / reads if reads else 0.0,
        "core.readfast.fallbacks_per_op": c("lease.fallback") * per_op,
        "core.readfast.self_us_per_op": layer_us("core.readfast"),
        "totem.multicasts_per_op": multicasts * per_op,
        "totem.payloads_per_frame":
            multicasts / c("totem.frame") if c("totem.frame") else 0.0,
        "totem.rotations_per_op": c("totem.token") / nodes * per_op,
        "totem.order_wait_ms.p50": pct(rec.order_wait, 50),
        "totem.order_wait_ms.p99": pct(rec.order_wait, 99),
        "totem.self_us_per_op": layer_us("totem"),
        "totem.token_losses": float(c("totem.token_timeout")),
        "totem.ring_installs": float(c("totem.install")),
        "totem.wire.us_per_frame":
            self_us.get("totem.wire", 0.0) / wire_calls
            if wire_calls else 0.0,
        "totem.wire.bytes_per_op": c("live.codec.bytes_out") * per_op,
        "live.transport.datagrams_per_wakeup":
            c("live.sys.recv_datagrams") / c("live.sys.recv_batches")
            if c("live.sys.recv_batches") else 0.0,
        "live.transport.sends_per_op":
            (c("live.sys.sendto") + c("live.sys.sendmmsg")) * per_op,
        "live.transport.self_us_per_op": layer_us("live.transport"),
        "simnet.events_per_op": events * per_op,
        "simnet.frames_per_op":
            (calls[("simnet", "Network.broadcast")]
             + calls[("simnet", "Network.unicast")]) * per_op,
        "simnet.self_us_per_op": layer_us("simnet"),
        "core.recovery.self_ms_per_recovery":
            self_us.get("core.recovery", 0.0) / 1e3 * per_rec,
        "core.recovery.state_bytes_per_recovery": state_bytes * per_rec,
        "core.bulk.pages_per_recovery":
            calls[("core.bulk", "BulkSession.handle_page")] * per_rec,
        "core.bulk.page_retransmits": float(c("bulk.retransmit")),
        "core.statedelta.self_ms_per_recovery":
            self_us.get("core.statedelta", 0.0) / 1e3 * per_rec,
        "runtime.trace.emits_per_op":
            calls[("runtime.trace", "Tracer.emit")] * per_op,
        "runtime.trace.self_us_per_op": layer_us("runtime.trace"),
    }
    for phase in RECOVERY_PHASES:
        out[f"core.recovery.{phase}_ms"] = \
            (phases_s or {}).get(phase, 0.0) * 1e3
    covered_s = sum(rec.self_ns.values()) / 1e9
    out["unattributed_share"] = (max(0.0, 1.0 - covered_s / cpu_s)
                                 if cpu_s else 0.0)
    return out


def recovery_phases(registry) -> Dict[str, float]:
    """Median seconds of each §5.1 recovery phase, from the program's own
    ``span.recovery.<phase>`` histograms."""
    out = {}
    for phase in RECOVERY_PHASES:
        found = registry.find(f"span.recovery.{phase}")
        hists = [m for name, _labels, m in found
                 if name == f"span.recovery.{phase}"]
        if not hists:
            continue
        merged = hists[0].spawn_empty()
        for h in hists:
            merged.merge(h)
        out[phase] = merged.p50
    return out


def state_bytes(registry) -> float:
    """Recovery state bytes shipped so far (both lanes)."""
    return sum(m.value for name, _labels, m in registry.find("state.bytes")
               if name == "state.bytes")
