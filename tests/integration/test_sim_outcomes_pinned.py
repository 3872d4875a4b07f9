"""Simulated outcomes pinned to recorded values.

Host-side optimizations of the simulator path (trace dispatch, envelope
routing, the scheduler's heap layout, one event per broadcast frame) must
not change what is simulated.  These scenarios run the standard
client/server deployment with seed 0 and compare, exactly, what a
simulated run produces: the tracer counters, the sequence of
``audit.order_digest`` values, the final replica state digests, and the
driver's reply latencies in simulated time.  The expected values were
recorded before those optimizations; a difference in any of them means
a change altered protocol behaviour, not just host cost.

``lossy`` adds 2% uniform frame loss and a kill/restart of ``s2``, so the
drop filters' random draws, dead-destination deliveries and a §5.1
recovery are covered too.
"""

import hashlib

import pytest

from repro.bench.deployments import build_client_server
from repro.runtime.trace import declared_interest


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


EXPECTED = {
    "fault-free": dict(
        counters={
            "audit.order_digest": 520,
            "interceptor.reply": 2786,
            "interceptor.request": 1393,
            "net.broadcast": 4262,
            "net.bytes": 851416,
            "net.unicast": 5903,
            "replica.executed": 2786,
            "replication.binding_created": 3,
            "replication.delivered": 4178,
            "replication.duplicate": 1392,
            "span.span_end": 2865,
            "span.span_start": 2867,
            "totem.deliver": 16733,
            "totem.form": 1,
            "totem.frame": 4183,
            "totem.gather": 4,
            "totem.install": 4,
            "totem.packed_frame": 1,
            "totem.token": 5895,
        },
        order_digests=(436, "7bc32578d22ac79f"),
        states={'s1': '0f56744528b5b61e', 's2': '0f56744528b5b61e'},
        latencies=(1161, "94d7e1dde7613594"),
    ),
    "lossy": dict(
        counters={
            "audit.order_digest": 260,
            "audit.state_digest": 4,
            "bulk.inorder.bytes": 1136,
            "fault.crash": 1,
            "fault.loss_rate": 1,
            "fault.restart": 1,
            "interceptor.reply": 1412,
            "interceptor.request": 714,
            "net.broadcast": 2328,
            "net.bytes": 481977,
            "net.dead_dst": 47,
            "net.drop": 151,
            "net.unicast": 3480,
            "process.crash": 1,
            "process.restart": 1,
            "recovery.checkpoint_aligned": 2,
            "recovery.handshake_replayed": 1,
            "recovery.join_announced": 1,
            "recovery.recovered": 1,
            "recovery.recovery_set_received": 1,
            "recovery.set_state_multicast": 1,
            "recovery.sync_point": 1,
            "replica.executed": 1412,
            "replica.get_state": 1,
            "replica.set_state": 1,
            "replication.binding_created": 4,
            "replication.delivered": 2125,
            "replication.duplicate": 697,
            "replication.enqueued": 1,
            "span.span_end": 1544,
            "span.span_start": 1548,
            "totem.deliver": 8514,
            "totem.form": 4,
            "totem.frame": 2220,
            "totem.gather": 14,
            "totem.install": 11,
            "totem.packed_frame": 10,
            "totem.retransmit": 92,
            "totem.token": 3272,
            "totem.token_retx": 183,
            "totem.token_timeout": 1,
        },
        order_digests=(176, "73b85f26db6c6d2d"),
        states={'s1': '70ac2770c2a805c4', 's2': '70ac2770c2a805c4'},
        latencies=(482, "ec793ff992108ea3"),
    ),
}


def _run(scenario: str):
    deployment = build_client_server(seed=0)
    system = deployment.system
    digests = []
    system.tracer.subscribe(
        lambda record: digests.append(record.fields["digest"]),
        wants=declared_interest({("audit", "order_digest")}))
    latencies = []
    proxy = deployment.driver._proxy
    invoke = proxy.invoke

    def timed_invoke(operation, *args, on_reply=None, **kwargs):
        sent = system.now

        def on_timed_reply(reply):
            latencies.append(system.now - sent)
            on_reply(reply)

        return invoke(operation, *args, on_reply=on_timed_reply, **kwargs)

    proxy.invoke = timed_invoke
    if scenario == "lossy":
        system.faults.set_loss_rate(0.02)
        system.run_for(0.1)
        system.kill_node("s2")
        system.run_for(0.05)
        system.restart_node("s2")
        system.run_for(0.35)
    else:
        system.run_for(0.5)
    states = {node: _digest(deployment.server_servant(node).get_state())
              for node in deployment.server_nodes}
    return dict(
        counters=dict(sorted(system.tracer.counters.items())),
        order_digests=(len(digests), _digest(digests)),
        states=states,
        latencies=(len(latencies), _digest(latencies)),
    )


@pytest.mark.parametrize("scenario", sorted(EXPECTED))
def test_simulated_outcomes_match_recorded_values(scenario):
    got = _run(scenario)
    expected = EXPECTED[scenario]
    assert got["counters"] == expected["counters"]
    assert got["order_digests"] == expected["order_digests"]
    assert got["states"] == expected["states"]
    assert got["latencies"] == expected["latencies"]
