"""Live health exposition in the Prometheus text format.

:func:`render_health` snapshots a running :class:`EternalSystem` into the
plain-text exposition format (`name{label="value"} value`, one series per
line): node liveness, per-replica status/role/queues, outstanding two-way
invocations, fault-detector suspicion state, audit status, and the whole
metrics registry (histograms as quantile series plus ``_count``/``_sum``).

The renderer is read-only and works on any live system — tests, the
``python -m repro health`` CLI, and ``demo --health`` all use it.
:func:`parse_exposition` is the matching line-by-line parser (used by the
tests to pin the format, and handy for piping snapshots elsewhere).
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Tuple

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _metric_name(name: str, prefix: str = "") -> str:
    return prefix + _NAME_OK.sub("_", name)


def _escape(value: Any) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _series(name: str, labels: Dict[str, Any], value: float) -> str:
    if labels:
        body = ",".join(f'{k}="{_escape(v)}"'
                        for k, v in sorted(labels.items()))
        return f"{name}{{{body}}} {value:g}"
    return f"{name} {value:g}"


def parse_exposition(text: str) -> List[Tuple[str, Dict[str, str], float]]:
    """Parse exposition text back into ``(name, labels, value)`` tuples.

    Comment (``#``) and blank lines are skipped; any other line that does
    not match ``name{labels} value`` raises ``ValueError``.
    """
    out: List[Tuple[str, Dict[str, str], float]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        match = _LINE.match(line)
        if match is None:
            raise ValueError(f"line {lineno} is not a metric line: {line!r}")
        labels: Dict[str, str] = {}
        body = match.group("labels")
        if body:
            for key, value in _LABEL.findall(body):
                labels[key] = (value.replace("\\n", "\n")
                               .replace('\\"', '"').replace("\\\\", "\\"))
        out.append((match.group("name"), labels,
                    float(match.group("value"))))
    return out


def render_health(system, *, auditor=None) -> str:
    """Render one health snapshot of a live :class:`EternalSystem`.

    ``auditor`` defaults to ``system.auditor`` (attached via
    ``system.attach_auditor()``); pass one explicitly to report on a
    post-hoc replay instead.
    """
    if auditor is None:
        auditor = getattr(system, "auditor", None)
    lines: List[str] = [
        "# Eternal health snapshot "
        f"(simulated time {system.now:.6f}s)",
    ]

    # -- nodes and replicas ------------------------------------------------
    lines.append("# TYPE eternal_node_alive gauge")
    for node_id in sorted(system.stacks):
        stack = system.stacks[node_id]
        lines.append(_series("eternal_node_alive", {"node": node_id},
                             1 if stack.process.alive else 0))

    lines.append("# TYPE eternal_totem_partial_count gauge")
    for node_id in sorted(system.stacks):
        stack = system.stacks[node_id]
        totem = getattr(stack, "totem", None)
        if totem is None or not stack.process.alive:
            continue
        lines.append(_series("eternal_totem_partial_count",
                             {"node": node_id}, totem.reassembly_pending))

    replica_lines: List[str] = []
    detector_lines: List[str] = []
    bulk_lines: List[str] = []
    group_ids: Dict[str, Any] = {}
    for node_id in sorted(system.stacks):
        stack = system.stacks[node_id]
        if not stack.process.alive or stack.mechanisms is None:
            continue
        mechanisms = stack.mechanisms
        for group_id, info in sorted(mechanisms.groups.items()):
            group_ids.setdefault(group_id, info)
        for group_id in sorted(mechanisms.bindings):
            binding = mechanisms.bindings[group_id]
            info = mechanisms.groups.get(group_id)
            labels = {"node": node_id, "group": group_id}
            replica_lines.append(_series(
                "eternal_replica_operational", labels,
                1 if binding.operational else 0))
            role = (info.role_of(node_id) or "?") if info else "?"
            style = info.style.value if info else "?"
            replica_lines.append(_series(
                "eternal_replica_role",
                dict(labels, role=role, style=style), 1))
            replica_lines.append(_series(
                "eternal_replica_queue_depth", labels,
                binding.container.queue_depth))
            replica_lines.append(_series(
                "eternal_replica_outstanding_invocations", labels,
                binding.interceptor.outstanding_invocations))
            replica_lines.append(_series(
                "eternal_replica_enqueued_messages", labels,
                len(binding.enqueued)))
            replica_lines.append(_series(
                "eternal_replica_log_length", labels,
                binding.log.log_length))
        bulk = getattr(mechanisms.recovery, "bulk", None)
        if bulk is not None:
            state = bulk.snapshot()
            labels = {"node": node_id}
            bulk_lines.append(_series(
                "eternal_bulk_sessions_active", labels,
                state["sessions_active"]))
            bulk_lines.append(_series(
                "eternal_bulk_stripes_in_flight", labels,
                state["stripes_in_flight"]))
            bulk_lines.append(_series(
                "eternal_bulk_store_entries", labels,
                state["store_entries"]))
        detector = mechanisms.fault_detector
        if detector is not None:
            for group_id, state in detector.snapshot().items():
                labels = {"node": node_id, "group": group_id}
                detector_lines.append(_series(
                    "eternal_fault_detector_strikes", labels,
                    state["strikes"]))
                detector_lines.append(_series(
                    "eternal_fault_detector_reported", labels,
                    state["reported"]))

    lines.append("# TYPE eternal_replica_operational gauge")
    lines.extend(replica_lines)

    # -- groups ------------------------------------------------------------
    lines.append("# TYPE eternal_group_members gauge")
    for group_id in sorted(group_ids):
        info = group_ids[group_id]
        labels = {"group": group_id}
        lines.append(_series("eternal_group_members", labels,
                             len(info.member_nodes)))
        lines.append(_series("eternal_group_operational_members", labels,
                             len(info.operational_nodes())))
        lines.append(_series(
            "eternal_group_style",
            dict(labels, style=info.style.value), 1))
        if info.primary_node is not None:
            lines.append(_series(
                "eternal_group_primary",
                dict(labels, node=info.primary_node), 1))

    # -- rings (sharded deployments) ---------------------------------------
    # Each stack of a sharded facade belongs to a ring-scoped sub-system
    # (``stack.system.ring_name``); single-ring systems have no ring names
    # and skip this section entirely.
    ring_systems: Dict[str, Any] = {}
    for stack in system.stacks.values():
        ring = getattr(stack.system, "ring_name", "")
        if ring:
            ring_systems.setdefault(ring, stack.system)
    if ring_systems:
        lines.append("# TYPE eternal_ring_nodes gauge")
        for ring in sorted(ring_systems):
            sub = ring_systems[ring]
            labels = {"ring": ring}
            lines.append(_series("eternal_ring_nodes", labels,
                                 len(sub.stacks)))
            lines.append(_series(
                "eternal_ring_nodes_alive", labels,
                sum(1 for s in sub.stacks.values() if s.process.alive)))
            lines.append(_series("eternal_ring_formed", labels,
                                 1 if sub.ring_formed() else 0))
            ring_groups: set = set()
            operational = 0
            for s in sub.stacks.values():
                if not s.process.alive or s.mechanisms is None:
                    continue
                ring_groups.update(s.mechanisms.groups)
                operational += sum(
                    1 for b in s.mechanisms.bindings.values()
                    if b.operational)
            lines.append(_series("eternal_ring_groups", labels,
                                 len(ring_groups)))
            lines.append(_series("eternal_ring_operational_replicas",
                                 labels, operational))
        bridge = getattr(system, "bridge", None)
        if bridge is not None:
            lines.append(_series("eternal_gateway_forwarded_total", {},
                                 bridge.forwarded))
            lines.append(_series("eternal_gateway_duplicates_total", {},
                                 bridge.duplicates))

    if bulk_lines:
        lines.append("# TYPE eternal_bulk_sessions_active gauge")
        lines.extend(bulk_lines)

    # -- durable stores ----------------------------------------------------
    store_lines: List[str] = []
    for node_id in sorted(getattr(system, "stores", None) or {}):
        store = system.stores[node_id]
        for group_id, stats in store.snapshot().items():
            labels = {"node": node_id, "group": group_id}
            for stat in sorted(stats):
                store_lines.append(_series(
                    _metric_name(stat, "eternal_store_"), labels,
                    stats[stat]))
    if store_lines:
        lines.append("# TYPE eternal_store_bytes gauge")
        lines.extend(store_lines)

    if detector_lines:
        lines.append("# TYPE eternal_fault_detector_strikes gauge")
        lines.extend(detector_lines)

    # -- audit -------------------------------------------------------------
    if auditor is not None:
        lines.append("# TYPE eternal_audit_ok gauge")
        lines.append(_series("eternal_audit_ok", {},
                             1 if auditor.ok else 0))
        lines.append("# HELP eternal_audit_records_scanned trace records "
                     "delivered to the auditor (the events its rules "
                     "consume)")
        lines.append("# TYPE eternal_audit_records_scanned counter")
        lines.append(_series("eternal_audit_records_scanned", {},
                             auditor.records_scanned))
        by_invariant = auditor.findings_by_invariant()
        for invariant in sorted(by_invariant):
            lines.append(_series(
                "eternal_audit_findings_total",
                {"invariant": invariant}, len(by_invariant[invariant])))
        if not by_invariant:
            lines.append(_series("eternal_audit_findings_total", {}, 0))

    # -- the metrics registry ---------------------------------------------
    metrics = getattr(system, "metrics", None)
    if metrics is not None:
        lines.append("# metrics registry (repro_* namespace)")
        for name, labels, metric in metrics.find():
            flat = _metric_name(name, "repro_")
            if metric.kind == "histogram":
                for q in (0.5, 0.95, 0.99):
                    lines.append(_series(
                        flat, dict(labels, quantile=f"{q:g}"),
                        metric.quantile(q)))
                lines.append(_series(f"{flat}_count", labels, metric.count))
                lines.append(_series(f"{flat}_sum", labels, metric.total))
            else:
                lines.append(_series(flat, labels, metric.value))

    return "\n".join(lines) + "\n"
