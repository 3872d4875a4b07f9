"""Unit tests for the shared-medium network model."""

import pytest

from repro.errors import NetworkError, UnknownNode
from repro.simnet.network import ETHERNET_100MBPS, Network, NetworkConfig
from repro.simnet.process import Process
from repro.simnet.scheduler import Scheduler


def build(scheduler, node_ids=("a", "b", "c"), config=ETHERNET_100MBPS):
    network = Network(scheduler, config)
    inboxes = {}
    for node_id in node_ids:
        process = Process(scheduler, node_id)
        inboxes[node_id] = []
        network.attach(process,
                       lambda src, payload, n=node_id:
                       inboxes[n].append((src, payload)))
    return network, inboxes


def test_unicast_delivers_to_destination_only(scheduler):
    network, inboxes = build(scheduler)
    network.unicast("a", "b", "hello", 100)
    scheduler.run()
    assert inboxes["b"] == [("a", "hello")]
    assert inboxes["a"] == [] and inboxes["c"] == []


def test_broadcast_delivers_to_all_including_sender(scheduler):
    network, inboxes = build(scheduler)
    network.broadcast("a", "m", 100)
    scheduler.run()
    for node_id in ("a", "b", "c"):
        assert inboxes[node_id] == [("a", "m")]


def test_unicast_to_unknown_node_raises(scheduler):
    network, _ = build(scheduler)
    with pytest.raises(UnknownNode):
        network.unicast("a", "zz", "m", 10)


def test_oversized_frame_rejected(scheduler):
    network, _ = build(scheduler)
    with pytest.raises(NetworkError):
        network.unicast("a", "b", "m", network.config.mtu_payload + 1)


def test_mtu_payload_boundary_accepted(scheduler):
    network, inboxes = build(scheduler)
    network.unicast("a", "b", "m", network.config.mtu_payload)
    scheduler.run()
    assert inboxes["b"]


def test_negative_size_rejected(scheduler):
    network, _ = build(scheduler)
    with pytest.raises(NetworkError):
        network.unicast("a", "b", "m", -1)


def test_larger_frames_take_longer(scheduler):
    network, inboxes = build(scheduler)
    arrivals = {}
    network.unicast("a", "b", "small", 10)
    scheduler.run()
    small_time = scheduler.now

    scheduler2 = Scheduler()
    network2, inboxes2 = build(scheduler2)
    network2.unicast("a", "b", "big", 1400)
    scheduler2.run()
    assert scheduler2.now > small_time


def test_medium_serializes_concurrent_frames(scheduler):
    """Two frames sent at the same instant occupy the medium in turn."""
    network, inboxes = build(scheduler)
    times = []
    network.set_handler("b", lambda src, payload: times.append(scheduler.now))
    network.unicast("a", "b", "one", 1000)
    network.unicast("c", "b", "two", 1000)
    scheduler.run()
    assert len(times) == 2
    gap = times[1] - times[0]
    assert gap >= network.config.frame_time(1000) * 0.99


def test_delivery_to_crashed_process_dropped(scheduler):
    network, inboxes = build(scheduler)
    network.unicast("a", "b", "m", 100)
    network.process("b").crash()
    scheduler.run()
    assert inboxes["b"] == []


def test_drop_filter_blocks_matching_frames(scheduler):
    network, inboxes = build(scheduler)
    network.add_filter(lambda src, dst, payload, size: dst == "b")
    network.broadcast("a", "m", 100)
    scheduler.run()
    assert inboxes["b"] == []
    assert inboxes["c"] == [("a", "m")]


def test_remove_filter_restores_delivery(scheduler):
    network, inboxes = build(scheduler)
    drop_all = lambda src, dst, payload, size: True
    network.add_filter(drop_all)
    network.remove_filter(drop_all)
    network.unicast("a", "b", "m", 100)
    scheduler.run()
    assert inboxes["b"] == [("a", "m")]


def test_set_handler_replaces_delivery_callback(scheduler):
    network, inboxes = build(scheduler)
    new_inbox = []
    network.set_handler("b", lambda src, payload: new_inbox.append(payload))
    network.unicast("a", "b", "m", 10)
    scheduler.run()
    assert new_inbox == ["m"] and inboxes["b"] == []


def test_set_handler_unknown_node_raises(scheduler):
    network, _ = build(scheduler)
    with pytest.raises(UnknownNode):
        network.set_handler("zz", lambda src, payload: None)


def test_frame_time_includes_overheads():
    config = NetworkConfig()
    # 1500 payload + 18 header + 20 silence = 1538 bytes at 100 Mbps
    assert config.frame_time(1500) == pytest.approx(1538 * 8 / 100e6)


def test_mtu_payload_value():
    assert ETHERNET_100MBPS.mtu_payload == 1500


def test_node_ids_lists_attached(scheduler):
    network, _ = build(scheduler)
    assert sorted(network.node_ids()) == ["a", "b", "c"]


def test_callback_scheduled_by_first_receiver_runs_after_all_deliveries(
        scheduler):
    network = Network(scheduler)
    log = []
    node_ids = ("a", "b", "c", "d")

    def handler(node_id):
        def deliver(src, payload):
            log.append(("deliver", node_id))
            if node_id == node_ids[0]:
                scheduler.call_after(0, log.append, ("callback", node_id))
        return deliver

    for node_id in node_ids:
        network.attach(Process(scheduler, node_id), handler(node_id))
    network.broadcast("a", "m", 100)
    scheduler.run()
    assert log == [("deliver", n) for n in node_ids] + [("callback", "a")]


def test_broadcast_is_one_event_and_same_time_events_keep_insertion_order(
        scheduler):
    network, inboxes = build(scheduler)
    order = []
    for node_id in inboxes:
        network.set_handler(node_id,
                            lambda src, payload, n=node_id:
                            order.append((n, payload)))
    network.broadcast("a", "m1", 100)
    config = network.config
    arrival = (config.frame_time(100) + config.propagation_delay
               + config.per_frame_cpu)
    scheduler.call_at(arrival, order.append, "after-m1")
    scheduler.call_at(arrival, order.append, "after-that")
    before = scheduler.events_executed
    scheduler.run()
    assert order == [("a", "m1"), ("b", "m1"), ("c", "m1"),
                     "after-m1", "after-that"]
    assert scheduler.events_executed - before == 3


def test_broadcast_drop_decisions_stay_per_destination(scheduler):
    network, inboxes = build(scheduler)
    calls = []

    def drop_b(src, dst, payload, size):
        calls.append(dst)
        return dst == "b"

    network.add_filter(drop_b)
    network.broadcast("a", "m", 100)
    assert calls == ["a", "b", "c"]     # decided at send, in attach order
    scheduler.run()
    assert inboxes["a"] == [("a", "m")] and inboxes["c"] == [("a", "m")]
    assert inboxes["b"] == []
