"""The observability plane's declared trace interests.

Each in-tree subscriber (metrics registry, flight recorder, auditor,
profiler) tells the tracer which events it consumes; the tracer builds
records only for those.  These tests pin that every event a subscriber's
dispatch table handles actually reaches it, and that the high-volume
streams nobody consumes are never built at all.
"""

import pytest

from repro import EternalSystem
from repro.obs.audit import ConsistencyAuditor
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import ProfilingConfig, SpanResourceProfiler
from repro.obs.telemetry import FlightRecorder, TelemetryConfig
from repro.runtime import trace
from repro.runtime.trace import Tracer


def _spy(monkeypatch, cls, name):
    """Record the (category, event) of every record ``cls.name`` gets.
    Patch before the system is built: subscriptions bind methods."""
    seen = []
    original = getattr(cls, name)

    def spy(self, record):
        seen.append((record.category, record.event))
        return original(self, record)

    monkeypatch.setattr(cls, name, spy)
    return seen


def _emit_handler_keys(tracer, table):
    keys = [(category, event or "any_event") for category, event in table]
    for category, event in keys:
        tracer.emit(category, event)
    return keys


def test_every_metrics_handler_is_delivered(monkeypatch):
    seen = _spy(monkeypatch, MetricsRegistry, "observe_record")
    system = EternalSystem(["a"])
    seen.clear()
    keys = _emit_handler_keys(system.tracer, MetricsRegistry.RECORD_HANDLERS)
    assert seen == keys


def test_every_audit_rule_is_delivered(monkeypatch):
    seen = _spy(monkeypatch, ConsistencyAuditor, "observe")
    system = EternalSystem(["a"])
    system.attach_auditor()
    keys = _emit_handler_keys(system.tracer,
                              ConsistencyAuditor.RECORD_HANDLERS)
    assert seen == keys


def test_profiler_receives_span_records_only(monkeypatch):
    seen = _spy(monkeypatch, SpanResourceProfiler, "observe_record")
    system = EternalSystem(["a"], profiling=ProfilingConfig(enabled=True))
    seen.clear()
    system.tracer.emit("replication", "delivered", node="a")
    system.tracer.emit("span", "span_start", span="x", name="x")
    assert seen == [("span", "span_start")]


@pytest.mark.parametrize("stream", [
    ("net", "broadcast"), ("net", "unicast"), ("net", "drop"),
    ("totem", "deliver"), ("replication", "duplicate"),
])
def test_unconsumed_streams_build_no_record(monkeypatch, stream):
    system = EternalSystem(["a", "b"],
                           profiling=ProfilingConfig(enabled=True))
    system.attach_auditor()
    built = []
    record_type = trace.TraceRecord

    def counting(*args, **kwargs):
        built.append(args[1:3])
        return record_type(*args, **kwargs)

    monkeypatch.setattr(trace, "TraceRecord", counting)
    before = system.tracer.count(".".join(stream))
    system.tracer.emit(*stream, node="a")
    system.tracer.emit("replication", "delivered", node="a")
    assert built == [("replication", "delivered")]
    assert system.tracer.count(".".join(stream)) == before + 1


def test_auditor_counts_records_delivered_to_it():
    tracer = Tracer(keep_records=False)
    auditor = ConsistencyAuditor().bind(tracer)
    tracer.emit("net", "broadcast", src="a", size=1)
    tracer.emit("totem", "deliver", node="a")
    tracer.emit("totem", "gather", node="a")
    assert auditor.records_scanned == 1


def test_flight_recorder_wants_is_its_exclusion_set():
    recorder = FlightRecorder(
        TelemetryConfig(flight_exclude=("net", "totem.deliver")), lambda: 0)
    assert not recorder.wants("net", "unicast")
    assert not recorder.wants("totem", "deliver")
    assert recorder.wants("totem", "frame")
    assert recorder.wants("replication", "duplicate")


def test_full_fidelity_flight_config_rings_every_stream():
    system = EternalSystem(
        ["a", "b"], telemetry=TelemetryConfig(flight_exclude=()))
    for category, event in (("totem", "deliver"), ("net", "broadcast"),
                            ("replication", "duplicate")):
        system.tracer.emit(category, event, node="probe")
    ringed = [(r.category, r.event)
              for r in system.telemetry.flight.records_for("probe")
              if r.fields.get("node") == "probe"]
    assert ringed == [("totem", "deliver"), ("net", "broadcast"),
                      ("replication", "duplicate")]
